//! # fade-trace
//!
//! Synthetic workload generation for the FADE reproduction.
//!
//! The paper drives its evaluation with SPEC2006-int benchmarks (plus
//! SPLASH-2/PARSEC applications for AtomCheck) running on a full-system
//! simulator. This crate provides the equivalent: a *synthetic program
//! engine* ([`SyntheticProgram`]) that behaves like a real program at
//! the level instruction-grain monitors observe —
//!
//! * a call stack with frames allocated/deallocated on call/return,
//! * a heap with malloc/free and live-block reuse,
//! * registers and memory words carrying *value tags* (pointer, taint,
//!   initialized) propagated by the generated instructions,
//! * bursty, benchmark-dependent retirement statistics.
//!
//! Each benchmark is a [`BenchProfile`] whose knobs (instruction mix,
//! call/malloc rates, pointer/taint densities, locality, burstiness) are
//! calibrated against the per-benchmark numbers the paper reports
//! (monitored IPC, filtering ratios, queue occupancies). The 13 paper
//! benchmarks are in [`mod@bench`].
//!
//! Generated (or captured) record streams can be frozen to disk in the
//! versioned `.fadet` format ([`mod@file`]: chunked, checksummed,
//! varint/delta-encoded by [`mod@codec`]) and replayed bit-exactly —
//! the interchange point between trace capture and analysis.
//!
//! # Example
//!
//! ```
//! use fade_trace::{bench, SyntheticProgram, TraceRecord};
//!
//! let profile = bench::by_name("mcf").unwrap();
//! let mut prog = SyntheticProgram::new(&profile, 42);
//! let mut instrs = 0;
//! while instrs < 1000 {
//!     if let TraceRecord::Instr(_) = prog.next_record() {
//!         instrs += 1;
//!     }
//! }
//! ```

pub mod bench;
pub mod codec;
pub mod faultinject;
pub mod file;
mod heap;
mod profile;
mod program;
mod value;

pub use bench::by_name;
pub use faultinject::{FaultKind, FaultPlan, FaultyReader};
pub use file::{
    decode_trace, encode_trace, read_trace_file, write_trace_file, DegradationReport, SkippedChunk,
    TraceFileError, TraceMeta, TraceReader, TraceWriter, DEFAULT_CHUNK_RECORDS,
};
pub use profile::BenchProfile;
pub use program::{SyntheticProgram, TraceRecord};
