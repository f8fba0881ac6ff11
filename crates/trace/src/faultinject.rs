//! Deterministic fault injection for byte streams.
//!
//! The robustness counterpart of [`crate::file`]: wraps any
//! `Read`-able trace stream (or an in-memory `.fadet` buffer) with
//! seeded, reproducible faults — bit flips, truncations, short reads
//! and injected I/O errors — so property tests can sweep thousands of
//! fault scenarios and assert that no fault ever panics, silently
//! corrupts replayed records, or goes unaccounted in a
//! [`crate::DegradationReport`].
//!
//! Everything here is a pure function of the `(seed, stream length)`
//! pair: the same seed always damages the same byte, so a failing
//! sweep case replays exactly.
//!
//! # Example
//!
//! ```
//! use fade_trace::{bench, encode_trace, SyntheticProgram, TraceMeta};
//! use fade_trace::faultinject::{FaultKind, FaultPlan};
//!
//! let p = bench::by_name("mcf").unwrap();
//! let mut prog = SyntheticProgram::new(&p, 7);
//! let records: Vec<_> = (0..500).map(|_| prog.next_record()).collect();
//! let bytes = encode_trace(&TraceMeta::new("mcf", 7), &records);
//!
//! let plan = FaultPlan::seeded(3, FaultKind::BitFlip, bytes.len() as u64);
//! let damaged = plan.apply(&bytes);
//! assert_ne!(damaged, bytes);
//! // Same seed, same damage.
//! assert_eq!(damaged, plan.apply(&bytes));
//! ```

use std::io::{self, Read};

/// The four kinds of fault the injector produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// One bit of one byte is flipped in place.
    BitFlip,
    /// The stream ends early, at the chosen offset.
    Truncate,
    /// Every read returns at most a few bytes (and occasionally
    /// `ErrorKind::Interrupted`). Semantically lossless: a correct
    /// reader must survive it with bit-identical results.
    ShortRead,
    /// Reads at and beyond the chosen offset fail with a persistent
    /// I/O error (a dying disk, not corrupt data).
    IoError,
}

impl FaultKind {
    /// All four kinds, for sweep loops.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::BitFlip,
        FaultKind::Truncate,
        FaultKind::ShortRead,
        FaultKind::IoError,
    ];
}

/// SplitMix64: tiny, high-quality, and fully deterministic.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *state = z ^ (z >> 31);
}

/// A concrete, reproducible fault: what kind, at which byte, which bit.
///
/// Built by [`FaultPlan::seeded`] from a `(seed, kind, stream length)`
/// triple; the same triple always yields the same plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The kind of fault injected.
    pub kind: FaultKind,
    /// Byte offset the fault strikes at (always within the stream).
    pub offset: u64,
    /// For [`FaultKind::BitFlip`]: which bit (0–7) flips.
    pub bit: u8,
    /// For [`FaultKind::ShortRead`]: maximum bytes per read (1–7).
    pub max_read: usize,
}

impl FaultPlan {
    /// Derives the fault deterministically from a seed and the length
    /// of the stream it will damage.
    pub fn seeded(seed: u64, kind: FaultKind, len: u64) -> Self {
        let mut s = seed ^ 0xFADE_FADE_FADE_FADE;
        splitmix64(&mut s);
        let offset = if len == 0 { 0 } else { s % len };
        splitmix64(&mut s);
        let bit = (s % 8) as u8;
        splitmix64(&mut s);
        let max_read = 1 + (s % 7) as usize;
        FaultPlan {
            kind,
            offset,
            bit,
            max_read,
        }
    }

    /// Applies the fault to an in-memory buffer. [`FaultKind::ShortRead`]
    /// and [`FaultKind::IoError`] have no buffer representation (they
    /// are transport faults, not data faults) and return the bytes
    /// unchanged — wrap the buffer in a [`FaultyReader`] to exercise
    /// them.
    pub fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match self.kind {
            FaultKind::BitFlip => {
                if let Some(b) = out.get_mut(self.offset as usize) {
                    *b ^= 1 << self.bit;
                }
                out
            }
            FaultKind::Truncate => {
                out.truncate(self.offset as usize);
                out
            }
            FaultKind::ShortRead | FaultKind::IoError => out,
        }
    }
}

/// A `Read` adapter injecting one [`FaultPlan`] into an inner stream.
///
/// The data faults ([`FaultKind::BitFlip`], [`FaultKind::Truncate`])
/// behave exactly like [`FaultPlan::apply`] on the byte stream;
/// [`FaultKind::ShortRead`] bounds every read (sprinkling
/// `Interrupted` errors a conforming reader must retry);
/// [`FaultKind::IoError`] fails persistently once the fault offset is
/// reached.
pub struct FaultyReader<R: Read> {
    inner: R,
    plan: FaultPlan,
    /// Bytes delivered so far (the current stream offset).
    pos: u64,
    /// Deterministic per-read state for `ShortRead` interrupts.
    rng: u64,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner` with the given fault.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        FaultyReader {
            inner,
            plan,
            pos: 0,
            rng: plan.offset ^ 0x5EED_5EED,
        }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut limit = buf.len();
        match self.plan.kind {
            FaultKind::Truncate => {
                let remaining = self.plan.offset.saturating_sub(self.pos);
                if remaining == 0 {
                    return Ok(0);
                }
                limit = limit.min(remaining as usize);
            }
            FaultKind::IoError => {
                let remaining = self.plan.offset.saturating_sub(self.pos);
                if remaining == 0 {
                    return Err(io::Error::other("injected I/O fault"));
                }
                limit = limit.min(remaining as usize);
            }
            FaultKind::ShortRead => {
                splitmix64(&mut self.rng);
                if self.rng.is_multiple_of(13) {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "injected interrupt",
                    ));
                }
                limit = limit.min(self.plan.max_read);
            }
            FaultKind::BitFlip => {}
        }
        let n = self.inner.read(&mut buf[..limit])?;
        if self.plan.kind == FaultKind::BitFlip
            && self.plan.offset >= self.pos
            && self.plan.offset < self.pos + n as u64
        {
            buf[(self.plan.offset - self.pos) as usize] ^= 1 << self.plan.bit;
        }
        self.pos += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Vec<u8> {
        (0u8..=255).cycle().take(10_000).collect()
    }

    fn drain(mut r: impl Read) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut buf = [0u8; 97];
        loop {
            match r.read(&mut buf) {
                Ok(0) => return Ok(out),
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    #[test]
    fn plans_are_deterministic_and_in_bounds() {
        for seed in 0..200 {
            for kind in FaultKind::ALL {
                let a = FaultPlan::seeded(seed, kind, 10_000);
                let b = FaultPlan::seeded(seed, kind, 10_000);
                assert_eq!(a, b);
                assert!(a.offset < 10_000);
                assert!(a.bit < 8);
                assert!((1..=7).contains(&a.max_read));
            }
        }
    }

    #[test]
    fn bitflip_flips_exactly_one_bit() {
        let data = payload();
        let plan = FaultPlan::seeded(7, FaultKind::BitFlip, data.len() as u64);
        let damaged = plan.apply(&data);
        let diff: Vec<usize> = (0..data.len()).filter(|&i| data[i] != damaged[i]).collect();
        assert_eq!(diff, vec![plan.offset as usize]);
        assert_eq!(data[diff[0]] ^ damaged[diff[0]], 1 << plan.bit);
        // The streaming wrapper produces the same bytes.
        let streamed = drain(FaultyReader::new(&data[..], plan)).unwrap();
        assert_eq!(streamed, damaged);
    }

    #[test]
    fn truncate_cuts_at_the_planned_offset() {
        let data = payload();
        let plan = FaultPlan::seeded(11, FaultKind::Truncate, data.len() as u64);
        assert_eq!(plan.apply(&data), &data[..plan.offset as usize]);
        let streamed = drain(FaultyReader::new(&data[..], plan)).unwrap();
        assert_eq!(streamed, &data[..plan.offset as usize]);
    }

    #[test]
    fn short_reads_are_lossless() {
        let data = payload();
        let plan = FaultPlan::seeded(13, FaultKind::ShortRead, data.len() as u64);
        let streamed = drain(FaultyReader::new(&data[..], plan)).unwrap();
        assert_eq!(streamed, data, "short reads must not lose or alter bytes");
    }

    #[test]
    fn io_error_fires_at_the_planned_offset_and_persists() {
        let data = payload();
        let plan = FaultPlan::seeded(17, FaultKind::IoError, data.len() as u64);
        let mut r = FaultyReader::new(&data[..], plan);
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        let err = loop {
            match r.read(&mut buf) {
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) => break e,
            }
        };
        assert_eq!(out, &data[..plan.offset as usize]);
        assert_eq!(err.kind(), io::ErrorKind::Other);
        // Persistent: further reads keep failing.
        assert!(r.read(&mut buf).is_err());
    }
}
