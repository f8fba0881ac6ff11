//! The `faded` wire protocol: length-prefixed frames over a
//! unix-domain stream socket.
//!
//! Layout of one frame (all integers little-endian):
//!
//! ```text
//! kind: u8    len: u32    payload: len bytes
//! ```
//!
//! A client conversation is `HELLO (TRACE)* FINISH`; the server
//! answers with `(REPORT)* END`, or `ERROR` followed by connection
//! close at the first failure. The full specification — including the
//! HELLO payload layout, version negotiation, error replies and
//! backpressure rules — lives in `docs/PROTOCOL.md`; the constants and
//! codecs here are its single in-tree implementation.

use std::io::{self, Read, Write};

use fade_system::{Accel, Engine, SystemConfig};

/// Protocol version carried in the first byte of every HELLO payload.
/// A server refuses versions it does not speak with a typed error
/// reply (never by guessing).
pub(crate) const PROTOCOL_VERSION: u8 = 3;

/// Hard ceiling on one frame's payload (64 MiB). Anything larger is a
/// protocol error: frames are buffered whole, so the bound is what
/// keeps one client from ballooning daemon memory with a single
/// length word.
pub(crate) const MAX_FRAME_PAYLOAD: usize = 1 << 26;

/// Default per-tenant cap on buffered `.fadet` bytes (256 MiB) — the
/// store-and-forward backpressure bound (see `docs/PROTOCOL.md`).
pub(crate) const DEFAULT_MAX_TRACE_BYTES: usize = 1 << 28;

/// Client → server: session handshake (must be the first frame).
pub const FRAME_HELLO: u8 = 0x01;
/// Client → server: a run of raw `.fadet` bytes (any chunking).
pub const FRAME_TRACE: u8 = 0x02;
/// Client → server: end of trace; run the session and report.
pub const FRAME_FINISH: u8 = 0x03;
/// Client → server (admin): stop accepting, drain, exit.
pub(crate) const FRAME_SHUTDOWN: u8 = 0x7F;
/// Server → client: one JSON report line (violation or summary).
pub const FRAME_REPORT: u8 = 0x11;
/// Server → client: session complete; binary counters payload.
pub const FRAME_END: u8 = 0x12;
/// Server → client: typed failure (JSON payload); connection closes.
pub const FRAME_ERROR: u8 = 0x13;

/// Sentinel meaning "knob not set" in HELLO's u64 fields.
const U64_UNSET: u64 = u64::MAX;

/// Why a frame or HELLO payload failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before a field it promised.
    Truncated(&'static str),
    /// HELLO carried a protocol version this build does not speak.
    UnsupportedVersion(u8),
    /// A frame arrived out of order (e.g. TRACE before HELLO).
    UnexpectedFrame {
        /// The frame kind that arrived.
        got: u8,
        /// What the conversation state allowed.
        expected: &'static str,
    },
    /// A frame's length word exceeded `MAX_FRAME_PAYLOAD`.
    OversizedFrame(u64),
    /// HELLO's engine selector byte is not one of the three engine selectors.
    UnknownEngine(u8),
    /// A HELLO string field is not UTF-8.
    BadUtf8(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated(what) => write!(f, "truncated {what}"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})")
            }
            ProtocolError::UnexpectedFrame { got, expected } => {
                write!(f, "unexpected frame {got:#04x} (expected {expected})")
            }
            ProtocolError::OversizedFrame(len) => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap")
            }
            ProtocolError::UnknownEngine(e) => write!(f, "unknown engine selector {e}"),
            ProtocolError::BadUtf8(what) => write!(f, "{what} is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The execution engine a HELLO selects, as a wire-stable selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineSel {
    /// Cycle-accurate simulation ([`Engine::Cycle`]).
    Cycle,
    /// Batched execution with sampled timing ([`Engine::Batched`]) —
    /// the serving default: faster than the cycle engine, with
    /// bit-exact monitor-visible results.
    #[default]
    Batched,
    /// No accelerator: [`Engine::Cycle`] on a config without FADE.
    Unaccelerated,
}

impl EngineSel {
    fn to_byte(self) -> u8 {
        match self {
            EngineSel::Cycle => 0,
            EngineSel::Batched => 1,
            EngineSel::Unaccelerated => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        match b {
            0 => Ok(EngineSel::Cycle),
            1 => Ok(EngineSel::Batched),
            2 => Ok(EngineSel::Unaccelerated),
            other => Err(ProtocolError::UnknownEngine(other)),
        }
    }

    /// The [`Engine`] this selector names. A batched tenant always
    /// gets the default sampling schedule.
    pub fn engine(self) -> Engine {
        match self {
            EngineSel::Cycle | EngineSel::Unaccelerated => Engine::Cycle,
            EngineSel::Batched => Engine::Batched {
                period: None,
                window: None,
            },
        }
    }

    /// Parses the `--engine` spellings the client binary accepts.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cycle" => Some(EngineSel::Cycle),
            "batched" => Some(EngineSel::Batched),
            "unaccel" | "unaccelerated" => Some(EngineSel::Unaccelerated),
            _ => None,
        }
    }
}

/// The session handshake: who is asking, which monitor to run, and the
/// `SystemConfig` knobs the tenant is allowed to turn. Unset knobs
/// inherit the server's defaults.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Hello {
    /// Tenant identifier (echoed in every report line).
    pub tenant: String,
    /// Monitor name, resolved in the server's registry.
    pub monitor: String,
    /// Execution engine.
    pub engine: EngineSel,
    /// Open the streamed `.fadet` bytes in recovering mode: corrupt
    /// chunks are skipped and accounted in a `DegradationReport`
    /// instead of failing the session.
    pub recover: bool,
    /// Per-tenant shadow byte cap
    /// ([`SystemConfig::with_shadow_mem_cap`]).
    pub shadow_mem_cap: Option<u64>,
    /// Simulation seed ([`SystemConfig::with_seed`]).
    pub seed: Option<u64>,
}

impl Hello {
    /// A HELLO for `tenant` running `monitor` with every knob unset.
    pub fn new(tenant: impl Into<String>, monitor: impl Into<String>) -> Self {
        Hello {
            tenant: tenant.into(),
            monitor: monitor.into(),
            ..Hello::default()
        }
    }

    /// Applies this handshake's knobs on top of `base` — the server's
    /// default configuration — with [`Accel::None`] when unaccelerated.
    pub fn config(&self, base: SystemConfig) -> SystemConfig {
        let mut cfg = base;
        if self.engine == EngineSel::Unaccelerated {
            cfg.accel = Accel::None;
        }
        if let Some(bytes) = self.shadow_mem_cap {
            cfg = cfg.with_shadow_mem_cap(bytes as usize);
        }
        if let Some(s) = self.seed {
            cfg = cfg.with_seed(s);
        }
        cfg
    }

    /// Encodes the HELLO payload (see `docs/PROTOCOL.md` for the
    /// layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.tenant.len() + self.monitor.len());
        out.push(PROTOCOL_VERSION);
        out.push(u8::from(self.recover));
        out.push(self.engine.to_byte());
        out.push(0); // reserved
        put_str(&mut out, &self.tenant);
        put_str(&mut out, &self.monitor);
        put_u64(&mut out, self.shadow_mem_cap.unwrap_or(U64_UNSET));
        put_u64(&mut out, self.seed.unwrap_or(U64_UNSET));
        out
    }

    /// Decodes a HELLO payload.
    pub(crate) fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut p = Cursor { buf: payload, pos: 0 };
        let version = p.u8("HELLO version byte")?;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::UnsupportedVersion(version));
        }
        let recover = p.u8("HELLO flags")? != 0;
        let engine = EngineSel::from_byte(p.u8("HELLO engine selector")?)?;
        let _reserved = p.u8("HELLO reserved byte")?;
        let tenant = p.str("HELLO tenant id")?;
        let monitor = p.str("HELLO monitor name")?;
        let shadow_mem_cap = opt64(p.u64("HELLO shadow mem cap")?);
        let seed = opt64(p.u64("HELLO seed")?);
        Ok(Hello {
            tenant,
            monitor,
            engine,
            recover,
            shadow_mem_cap,
            seed,
        })
    }
}

/// The END frame's binary payload: what the session processed, so load
/// harnesses need no JSON parser to account a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct EndSummary {
    /// Monitored events the session accepted.
    pub events: u64,
    /// Application instructions retired.
    pub instrs: u64,
    /// REPORT frames the server sent before this END.
    pub reports: u32,
}

impl EndSummary {
    /// Encodes the END payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        put_u64(&mut out, self.events);
        put_u64(&mut out, self.instrs);
        out.extend_from_slice(&self.reports.to_le_bytes());
        out
    }

    /// Decodes an END payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut p = Cursor { buf: payload, pos: 0 };
        Ok(EndSummary {
            events: p.u64("END events")?,
            instrs: p.u64("END instrs")?,
            reports: p.u32("END report count")?,
        })
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).unwrap_or(u16::MAX);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

fn opt64(v: u64) -> Option<u64> {
    (v != U64_UNSET).then_some(v)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&[u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated(what))?;
        if end > self.buf.len() {
            return Err(ProtocolError::Truncated(what));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn str(&mut self, what: &'static str) -> Result<String, ProtocolError> {
        let len = u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()) as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8(what))
    }
}

/// How reading one frame can fail: transport or protocol.
#[derive(Debug)]
pub enum FrameError {
    /// The socket failed or closed mid-frame.
    Io(io::Error),
    /// The bytes violated the framing rules.
    Protocol(ProtocolError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport: {e}"),
            FrameError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<ProtocolError> for FrameError {
    fn from(e: ProtocolError) -> Self {
        FrameError::Protocol(e)
    }
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    let mut header = [0u8; 5];
    header[0] = kind;
    header[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); EOF *inside* a frame is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut kind = [0u8; 1];
    // Distinguish "closed between frames" from "died mid-frame".
    match r.read(&mut kind) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return Err(e.into()),
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len).map_err(FrameError::Io)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtocolError::OversizedFrame(len as u64).into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(Some((kind[0], payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips_every_field() {
        let hello = Hello {
            tenant: "tenant-42".into(),
            monitor: "MemLeak".into(),
            engine: EngineSel::Cycle,
            recover: true,
            shadow_mem_cap: Some(1 << 20),
            seed: Some(0x5eed),
        };
        assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);
        let bare = Hello::new("t", "AddrCheck");
        assert_eq!(Hello::decode(&bare.encode()).unwrap(), bare);
    }

    #[test]
    fn hello_rejects_bad_versions_and_truncation() {
        let mut bytes = Hello::new("t", "AddrCheck").encode();
        bytes[0] = 9;
        assert_eq!(
            Hello::decode(&bytes).unwrap_err(),
            ProtocolError::UnsupportedVersion(9)
        );
        // A version-1 client (whose HELLO carried sampling knobs) and a
        // version-2 client (whose HELLO carried a shadow page budget) get
        // the typed refusal, not a misparsed payload.
        for old in [1, 2] {
            bytes[0] = old;
            assert_eq!(
                Hello::decode(&bytes).unwrap_err(),
                ProtocolError::UnsupportedVersion(old)
            );
        }
        let bytes = Hello::new("t", "AddrCheck").encode();
        assert!(matches!(
            Hello::decode(&bytes[..bytes.len() - 3]).unwrap_err(),
            ProtocolError::Truncated(_)
        ));
    }

    #[test]
    fn hello_knobs_reach_the_config() {
        let hello = Hello {
            shadow_mem_cap: Some(4096 * 9),
            seed: Some(77),
            ..Hello::new("t", "MemCheck")
        };
        let cfg = hello.config(SystemConfig::fade_single_core());
        assert_eq!(cfg.shadow_mem_cap_bytes, Some(4096 * 9));
        assert_eq!(cfg.seed, 77);
        let bare = Hello::new("t", "MemCheck").config(SystemConfig::fade_single_core());
        assert_eq!(bare.seed, SystemConfig::fade_single_core().seed);
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_between_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_TRACE, b"abc").unwrap();
        write_frame(&mut buf, FRAME_FINISH, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some((FRAME_TRACE, b"abc".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((FRAME_FINISH, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF between frames");
        // EOF mid-frame is an I/O error, not a clean close.
        let mut r = &buf[..3];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.push(FRAME_TRACE);
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Protocol(ProtocolError::OversizedFrame(_)))
        ));
    }

    #[test]
    fn end_summary_round_trips() {
        let end = EndSummary {
            events: 123_456,
            instrs: 999,
            reports: 7,
        };
        assert_eq!(EndSummary::decode(&end.encode()).unwrap(), end);
    }
}
