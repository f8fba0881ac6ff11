//! The per-record trace codec: compact, streaming, deterministic.
//!
//! Encodes a [`TraceRecord`] stream into the byte payload of one trace
//! chunk (see [`crate::file`] for the chunked container). The design
//! goals, in order:
//!
//! 1. **Density.** Instruction PCs advance by a word and memory
//!    accesses cluster, so both are stored as zigzag varint *deltas*
//!    against a running `Ctx`; operand presence, the pointer-result
//!    hint and the memory-operand size share one flags byte. Typical
//!    generated traces land around 4–6 bytes/record, better than 4×
//!    smaller than the in-memory [`TraceRecord`].
//! 2. **Robustness.** Decoding never panics: every read is
//!    bounds-checked and every operand validated, with byte-offset
//!    [`CodecError`]s for the container to wrap.
//! 3. **Chunk independence.** The context resets at chunk boundaries,
//!    so a corrupt chunk never poisons its neighbours and readers can
//!    skip or resynchronize at chunk granularity.
//!
//! The encoding is bit-stable: the same record sequence always produces
//! the same bytes (golden `.fadet` fixtures rely on this).

use fade_isa::{
    AppInstr, HighLevelEvent, InstrClass, MemRef, Reg, StackUpdateEvent, StackUpdateKind, VirtAddr,
};

use crate::program::TraceRecord;

/// A decode failure inside one chunk payload. Offsets are relative to
/// the payload start; [`crate::file`] adds the chunk's file offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended inside a record.
    Truncated {
        /// Payload offset at which more bytes were needed.
        offset: usize,
    },
    /// An unknown record tag.
    BadTag {
        /// Payload offset of the offending tag byte.
        offset: usize,
    },
    /// A structurally valid record carried an invalid operand (register
    /// index out of range, over-long varint).
    BadOperand {
        /// Payload offset of the offending operand.
        offset: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { offset } => {
                write!(f, "payload ends inside a record (offset {offset})")
            }
            CodecError::BadTag { offset } => {
                write!(f, "unknown record tag at payload offset {offset}")
            }
            CodecError::BadOperand { offset } => {
                write!(f, "invalid operand at payload offset {offset}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// Record tags. 0..=10 are instructions, indexed by instruction class.
const TAG_STACK_CALL: u8 = 11;
const TAG_STACK_RETURN: u8 = 12;
const TAG_MALLOC: u8 = 13;
const TAG_FREE: u8 = 14;
const TAG_TAINT_SOURCE: u8 = 15;
const TAG_THREAD_SWITCH: u8 = 16;

// Instruction flags byte.
const F_SRC1: u8 = 1 << 0;
const F_SRC2: u8 = 1 << 1;
const F_DEST: u8 = 1 << 2;
const F_MEM: u8 = 1 << 3;
const F_RESULT_PTR: u8 = 1 << 4;
/// The instruction's tid differs from the context tid and follows
/// explicitly (in generated traces the context tid, maintained by
/// thread-switch records, almost always matches).
const F_TID: u8 = 1 << 5;
const SIZE_SHIFT: u8 = 6;

fn class_tag(c: InstrClass) -> u8 {
    match c {
        InstrClass::Load => 0,
        InstrClass::Store => 1,
        InstrClass::IntAlu => 2,
        InstrClass::IntMove => 3,
        InstrClass::IntMul => 4,
        InstrClass::FpAlu => 5,
        InstrClass::Branch => 6,
        InstrClass::Jump => 7,
        InstrClass::Call => 8,
        InstrClass::Return => 9,
        InstrClass::Nop => 10,
    }
}

/// Instruction class by record tag, the inverse of [`class_tag`].
const CLASS_OF_TAG: [InstrClass; 11] = [
    InstrClass::Load,
    InstrClass::Store,
    InstrClass::IntAlu,
    InstrClass::IntMove,
    InstrClass::IntMul,
    InstrClass::FpAlu,
    InstrClass::Branch,
    InstrClass::Jump,
    InstrClass::Call,
    InstrClass::Return,
    InstrClass::Nop,
];

/// Memory-operand size codes (2 bits of the flags byte). Word accesses
/// dominate generated traces, so they cost nothing; the escape code
/// keeps every `u8` size representable.
const SIZE_WORD: u8 = 0; // 4 bytes, the common case
const SIZE_BYTE: u8 = 1;
const SIZE_HALF: u8 = 2;
const SIZE_EXPLICIT: u8 = 3; // size byte follows the address delta

/// The running prediction context. One per chunk: encoder and decoder
/// start from [`Ctx::default`] at every chunk boundary and must stay in
/// lockstep record-for-record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Ctx {
    prev_pc: u32,
    prev_mem: u32,
    prev_stack: u32,
    prev_heap: u32,
    cur_tid: u8,
}

#[inline]
fn zigzag(v: u32, prev: u32) -> u32 {
    let d = v.wrapping_sub(prev) as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

#[inline]
fn unzigzag(z: u32, prev: u32) -> u32 {
    let d = ((z >> 1) as i32) ^ -((z & 1) as i32);
    prev.wrapping_add(d as u32)
}

/// Appends a LEB128 varint.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// The 8 payload bytes from `at` as a little-endian word, zero-filled
/// past the payload end. Every field is read from such a window: a
/// zero byte is a varint terminator and a valid register, so a record
/// cut by the payload end decodes to a length that overruns it, which
/// one end check per record turns into [`CodecError::Truncated`].
#[inline(always)]
fn window(buf: &[u8], at: usize) -> u64 {
    match buf.get(at..).and_then(<[u8]>::first_chunk) {
        Some(&w) => u64::from_le_bytes(w),
        None => window_at_end(buf, at),
    }
}

#[cold]
fn window_at_end(buf: &[u8], at: usize) -> u64 {
    let tail = buf.get(at..).unwrap_or(&[]);
    let mut w = [0u8; 8];
    w[..tail.len()].copy_from_slice(tail);
    u64::from_le_bytes(w)
}

/// Reads the LEB128 varint starting window `w`, whose first byte sits
/// at payload offset `at`: its value, its byte length (from the first
/// clear continuation bit) and whether it is a bad operand — a sixth
/// byte present in the payload, or a five-byte value above `u32::MAX`.
/// A varint cut by the payload end is not bad but overruns the end.
#[inline(always)]
fn varint(w: u64, at: usize, payload_len: usize) -> (u32, usize, bool) {
    let stops = !w & 0x8080_8080_8080_8080;
    // 1..=8, or 9 when all eight bytes continue.
    let len = (stops.trailing_zeros() / 8 + 1) as usize;
    // The varint's bytes: everything up to its first stop bit.
    let x = w & (stops ^ stops.wrapping_sub(1));
    let v = (x & 0x7f)
        | (x >> 1 & 0x7f << 7)
        | (x >> 2 & 0x7f << 14)
        | (x >> 3 & 0x7f << 21)
        | (x >> 4 & 0x7f << 28);
    // Only a varint of five or more bytes can be bad.
    let bad = len >= 5
        && if len == 5 {
            v > u32::MAX as u64
        } else {
            at + 6 <= payload_len
        };
    (v as u32, len, bad)
}

/// [`varint`] at `at`, failing a bad operand.
#[inline(always)]
fn varint32(buf: &[u8], at: usize) -> Result<(u32, usize), CodecError> {
    match varint(window(buf, at), at, buf.len()) {
        (_, _, true) => Err(CodecError::BadOperand { offset: at }),
        (v, len, false) => Ok((v, len)),
    }
}

/// Encodes one record, updating the context.
pub(crate) fn encode_record(ctx: &mut Ctx, r: &TraceRecord, out: &mut Vec<u8>) {
    match r {
        TraceRecord::Instr(i) => {
            out.push(class_tag(i.class));
            let mut flags = 0u8;
            if i.src1.is_some() {
                flags |= F_SRC1;
            }
            if i.src2.is_some() {
                flags |= F_SRC2;
            }
            if i.dest.is_some() {
                flags |= F_DEST;
            }
            if i.result_ptr {
                flags |= F_RESULT_PTR;
            }
            if i.tid != ctx.cur_tid {
                flags |= F_TID;
            }
            let size_code = match i.mem {
                None => 0,
                Some(m) => {
                    flags |= F_MEM;
                    match m.size {
                        4 => SIZE_WORD,
                        1 => SIZE_BYTE,
                        2 => SIZE_HALF,
                        _ => SIZE_EXPLICIT,
                    }
                }
            };
            flags |= size_code << SIZE_SHIFT;
            out.push(flags);
            write_varint(out, zigzag(i.pc.raw(), ctx.prev_pc) as u64);
            ctx.prev_pc = i.pc.raw();
            if let Some(r) = i.src1 {
                out.push(r.index());
            }
            if let Some(r) = i.src2 {
                out.push(r.index());
            }
            if let Some(r) = i.dest {
                out.push(r.index());
            }
            if flags & F_TID != 0 {
                out.push(i.tid);
            }
            if let Some(m) = i.mem {
                write_varint(out, zigzag(m.addr.raw(), ctx.prev_mem) as u64);
                ctx.prev_mem = m.addr.raw();
                if size_code == SIZE_EXPLICIT {
                    out.push(m.size);
                }
            }
        }
        TraceRecord::Stack(s) => {
            out.push(match s.kind {
                StackUpdateKind::Call => TAG_STACK_CALL,
                StackUpdateKind::Return => TAG_STACK_RETURN,
            });
            write_varint(out, zigzag(s.base.raw(), ctx.prev_stack) as u64);
            ctx.prev_stack = s.base.raw();
            write_varint(out, s.len as u64);
            out.push(s.tid);
        }
        TraceRecord::High(h) => match *h {
            HighLevelEvent::Malloc { base, len, ctx: actx } => {
                out.push(TAG_MALLOC);
                write_varint(out, zigzag(base.raw(), ctx.prev_heap) as u64);
                ctx.prev_heap = base.raw();
                write_varint(out, len as u64);
                write_varint(out, actx as u64);
            }
            HighLevelEvent::Free { base, len } => {
                out.push(TAG_FREE);
                write_varint(out, zigzag(base.raw(), ctx.prev_heap) as u64);
                ctx.prev_heap = base.raw();
                write_varint(out, len as u64);
            }
            HighLevelEvent::TaintSource { base, len } => {
                out.push(TAG_TAINT_SOURCE);
                write_varint(out, zigzag(base.raw(), ctx.prev_heap) as u64);
                ctx.prev_heap = base.raw();
                write_varint(out, len as u64);
            }
            HighLevelEvent::ThreadSwitch { tid } => {
                out.push(TAG_THREAD_SWITCH);
                out.push(tid);
                ctx.cur_tid = tid;
            }
        },
    }
}

/// Encodes a record slice into a fresh-context payload (one chunk).
pub fn encode_chunk(records: &[TraceRecord], out: &mut Vec<u8>) {
    let mut ctx = Ctx::default();
    for r in records {
        encode_record(&mut ctx, r, out);
    }
}

/// Decoder over one chunk payload.
pub struct ChunkDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    ctx: Ctx,
}

impl<'a> ChunkDecoder<'a> {
    /// Starts decoding a payload with a fresh context.
    pub fn new(payload: &'a [u8]) -> Self {
        ChunkDecoder {
            buf: payload,
            pos: 0,
            ctx: Ctx::default(),
        }
    }

    /// `true` once the whole payload has been consumed.
    pub(crate) fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Decodes the next record, or `None` at the payload end: the
    /// record-at-a-time walk of the unit tests.
    #[cfg(test)]
    fn next_record(&mut self) -> Result<Option<TraceRecord>, CodecError> {
        if self.is_done() {
            return Ok(None);
        }
        self.record().map(Some)
    }

    /// Decodes the record at `pos`. Operand checks fire in byte order
    /// and only on bytes inside the payload; a record overrunning the
    /// payload end (including one starting at it) is
    /// `Truncated { offset: payload length }`.
    #[inline(always)]
    fn record(&mut self) -> Result<TraceRecord, CodecError> {
        let (buf, at) = (self.buf, self.pos);
        let head = window(buf, at);
        let tag = head as u8;
        let (rec, end) = match tag {
            0..=10 => {
                let flags = (head >> 8) as u8;
                let (z, n, bad) = varint(head >> 16, at + 2, buf.len());
                if bad {
                    return Err(CodecError::BadOperand { offset: at + 2 });
                }
                let pc = unzigzag(z, self.ctx.prev_pc);
                self.ctx.prev_pc = pc;
                // Registers, then the explicit tid, packed in flag order.
                let ops_at = at + 2 + n;
                let ops = window(buf, ops_at);
                let nregs = (flags & (F_SRC1 | F_SRC2 | F_DEST)).count_ones() as usize;
                let bad = ops & 0xe0_e0e0 & !(u64::MAX << (8 * nregs));
                if bad != 0 {
                    return Err(CodecError::BadOperand {
                        offset: ops_at + bad.trailing_zeros() as usize / 8,
                    });
                }
                let reg = |bit: u8| {
                    let slot = (flags & (bit - 1) & (F_SRC1 | F_SRC2)).count_ones();
                    (flags & bit != 0).then_some(Reg::new((ops >> (8 * slot)) as u8 & 0x1f))
                };
                let explicit_tid = flags & F_TID != 0;
                let tid = if explicit_tid {
                    (ops >> (8 * nregs)) as u8
                } else {
                    self.ctx.cur_tid
                };
                let mut end = ops_at + nregs + explicit_tid as usize;
                let mem = if flags & F_MEM != 0 {
                    let w = window(buf, end);
                    let (z, n, bad) = varint(w, end, buf.len());
                    if bad {
                        return Err(CodecError::BadOperand { offset: end });
                    }
                    let addr = unzigzag(z, self.ctx.prev_mem);
                    self.ctx.prev_mem = addr;
                    end += n;
                    let size = match flags >> SIZE_SHIFT {
                        SIZE_WORD => 4,
                        SIZE_BYTE => 1,
                        SIZE_HALF => 2,
                        _ => {
                            end += 1;
                            (w >> (8 * n.min(7))) as u8
                        }
                    };
                    Some(MemRef {
                        addr: VirtAddr::new(addr),
                        size,
                    })
                } else {
                    None
                };
                let instr = AppInstr {
                    pc: VirtAddr::new(pc),
                    class: CLASS_OF_TAG[tag as usize],
                    src1: reg(F_SRC1),
                    src2: reg(F_SRC2),
                    dest: reg(F_DEST),
                    mem,
                    tid,
                    result_ptr: flags & F_RESULT_PTR != 0,
                };
                (TraceRecord::Instr(instr), end)
            }
            TAG_STACK_CALL | TAG_STACK_RETURN => {
                let (z, n) = varint32(buf, at + 1)?;
                let base = unzigzag(z, self.ctx.prev_stack);
                self.ctx.prev_stack = base;
                let (len, m) = varint32(buf, at + 1 + n)?;
                let tid = buf.get(at + 1 + n + m).copied().unwrap_or(0);
                let kind = if tag == TAG_STACK_CALL {
                    StackUpdateKind::Call
                } else {
                    StackUpdateKind::Return
                };
                let s = StackUpdateEvent {
                    base: VirtAddr::new(base),
                    len,
                    kind,
                    tid,
                };
                (TraceRecord::Stack(s), at + 2 + n + m)
            }
            TAG_MALLOC | TAG_FREE | TAG_TAINT_SOURCE => {
                let (z, n) = varint32(buf, at + 1)?;
                let base = VirtAddr::new(unzigzag(z, self.ctx.prev_heap));
                self.ctx.prev_heap = base.raw();
                let (len, m) = varint32(buf, at + 1 + n)?;
                let mut end = at + 1 + n + m;
                let h = match tag {
                    TAG_MALLOC => {
                        let (ctx, k) = varint32(buf, end)?;
                        end += k;
                        HighLevelEvent::Malloc { base, len, ctx }
                    }
                    TAG_FREE => HighLevelEvent::Free { base, len },
                    _ => HighLevelEvent::TaintSource { base, len },
                };
                (TraceRecord::High(h), end)
            }
            TAG_THREAD_SWITCH => {
                let tid = (head >> 8) as u8;
                self.ctx.cur_tid = tid;
                (
                    TraceRecord::High(HighLevelEvent::ThreadSwitch { tid }),
                    at + 2,
                )
            }
            _ => return Err(CodecError::BadTag { offset: at }),
        };
        if end > buf.len() {
            return Err(CodecError::Truncated { offset: buf.len() });
        }
        self.pos = end;
        Ok(rec)
    }

    /// Decodes exactly `expected` records, requiring the payload to end
    /// with the last one.
    pub fn decode_all(mut self, expected: usize, out: &mut Vec<TraceRecord>) -> Result<(), CodecError> {
        // `expected` comes from an untrusted length field: cap the
        // upfront reservation so a crafted count cannot drive a
        // payload-size-amplified allocation before the first record
        // validates — beyond the cap the vector grows only as records
        // actually decode.
        out.reserve(expected.min(64 * 1024));
        for _ in 0..expected {
            // At the payload end this is `Truncated`: fewer records
            // than the chunk header promised.
            out.push(self.record()?);
        }
        if !self.is_done() {
            // Trailing garbage after the promised record count.
            return Err(CodecError::BadTag { offset: self.pos });
        }
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3, reflected) — the per-chunk integrity check.
///
/// Slicing-by-8: eight bytes per step through eight lookup tables,
/// with the byte-at-a-time loop for the tail.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc: u32 = 0xffff_ffff;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        // The high word's terms do not depend on `crc`: combine them
        // apart so the loop-carried chain is one lookup and two xors.
        let hi = (T[3][w[4] as usize] ^ T[2][w[5] as usize])
            ^ (T[1][w[6] as usize] ^ T[0][w[7] as usize]);
        crc = hi
            ^ ((T[7][(lo & 0xff) as usize] ^ T[6][(lo >> 8 & 0xff) as usize])
                ^ (T[5][(lo >> 16 & 0xff) as usize] ^ T[4][(lo >> 24) as usize]));
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// `T[0]` is the byte-at-a-time table; `T[k][i]` is the CRC of byte
/// `i` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::program::SyntheticProgram;

    fn sample(name: &str, n: usize) -> Vec<TraceRecord> {
        let p = bench::by_name(name).unwrap();
        let mut prog = SyntheticProgram::new(&p, 42);
        (0..n).map(|_| prog.next_record()).collect()
    }

    fn round_trip(records: &[TraceRecord]) -> Vec<TraceRecord> {
        let mut payload = Vec::new();
        encode_chunk(records, &mut payload);
        let mut out = Vec::new();
        ChunkDecoder::new(&payload)
            .decode_all(records.len(), &mut out)
            .expect("valid payload");
        out
    }

    #[test]
    fn round_trips_generated_traces() {
        for name in ["gcc", "water", "mcf", "astar-taint"] {
            let records = sample(name, 20_000);
            assert_eq!(round_trip(&records), records, "{name}");
        }
    }

    #[test]
    fn delta_encoding_is_compact() {
        let records = sample("gcc", 20_000);
        let mut payload = Vec::new();
        encode_chunk(&records, &mut payload);
        let per_record = payload.len() as f64 / records.len() as f64;
        assert!(per_record < 8.0, "got {per_record:.2} bytes/record");
        let raw = std::mem::size_of::<TraceRecord>() as f64;
        assert!(
            raw >= 3.0 * per_record,
            "encoded {per_record:.2} B/record vs {raw:.0} B in memory"
        );
    }

    #[test]
    fn truncation_never_panics() {
        let records = sample("mcf", 200);
        let mut payload = Vec::new();
        encode_chunk(&records, &mut payload);
        for cut in 0..payload.len() {
            let mut dec = ChunkDecoder::new(&payload[..cut]);
            // Walk until error or clean end; must never panic.
            while let Ok(Some(_)) = dec.next_record() {}
        }
    }

    #[test]
    fn bad_tag_reports_offset() {
        let payload = [200u8, 0, 0];
        let mut dec = ChunkDecoder::new(&payload);
        assert_eq!(dec.next_record(), Err(CodecError::BadTag { offset: 0 }));
    }

    #[test]
    fn bad_register_is_a_typed_error() {
        // Load with src1 present but register index 0xff.
        let payload = [0u8, F_SRC1, 0, 0xff];
        let mut dec = ChunkDecoder::new(&payload);
        assert_eq!(dec.next_record(), Err(CodecError::BadOperand { offset: 3 }));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Instr with a 6-byte pc varint.
        let payload = [0u8, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut dec = ChunkDecoder::new(&payload);
        assert!(matches!(
            dec.next_record(),
            Err(CodecError::BadOperand { .. })
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// CRC-32 by its definition, one shift per bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xedb8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_bitwise_reference() {
        // Deterministic pseudo-random bytes (xorshift64).
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        // Every length through eight full words, at every start
        // alignment, so each word/tail split is covered.
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
        assert_eq!(crc32(&buf[3..]), crc32_bitwise(&buf[3..]));
    }
}
