//! # fade-repro
//!
//! Facade crate for the FADE reproduction (Fytraki et al., HPCA 2014:
//! "FADE: A Programmable Filtering Accelerator for Instruction-Grain
//! Monitoring").
//!
//! Re-exports every workspace crate under one roof so examples and
//! downstream users need a single dependency:
//!
//! * [`isa`] — ISA model, application events, event IDs;
//! * [`shadow`] — shadow (metadata) memory substrate;
//! * [`trace`] — synthetic benchmark workloads;
//! * [`monitors`] — the five instruction-grain monitors;
//! * [`accel`] — the FADE accelerator itself;
//! * [`sim`] — cycle-level simulation substrate;
//! * [`system`] — composed monitoring systems + experiment harness;
//! * [`power`] — 40 nm area/power models.
//!
//! # Quickstart
//!
//! ```
//! use fade_repro::system::{Session, SystemConfig};
//! use fade_repro::trace::bench;
//!
//! let report = Session::builder()
//!     .monitor("AddrCheck")
//!     .source(bench::by_name("mcf").unwrap())
//!     .config(SystemConfig::fade_single_core())
//!     .build()
//!     .unwrap()
//!     .run_measured(10_000, 40_000)
//!     .unwrap();
//! println!(
//!     "slowdown {:.2}x, filtering ratio {:.1}%",
//!     report.stats.slowdown(),
//!     100.0 * report.stats.filtering_ratio()
//! );
//! ```

/// The README's ```rust blocks, compiled (and run unless marked
/// `no_run`) as doctests, so they keep up with the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use fade as accel;
pub use fade_isa as isa;
pub use fade_monitors as monitors;
pub use fade_power as power;
pub use fade_shadow as shadow;
pub use fade_sim as sim;
pub use fade_system as system;
pub use fade_trace as trace;

/// Commonly used items for examples and tests.
pub mod prelude {
    pub use fade::{Fade, FadeConfig, FadeProgram, FilterMode};
    pub use fade_isa::{AppEvent, AppInstr, InstrClass, Reg, VirtAddr};
    pub use fade_monitors::{monitor_by_name, Monitor};
    pub use fade_shadow::MetadataState;
    pub use fade_system::{
        measure_system_throughput, record_trace_prefix, Engine,
        MonitorRegistry, ReplayBuffer, RunReport, RunStats, Session, SessionBuilder,
        SessionError, SessionRunError, SourceError, SystemConfig, TraceSource,
    };
    pub use fade_trace::{
        bench, read_trace_file, write_trace_file, BenchProfile, DegradationReport, FaultKind,
        FaultPlan, FaultyReader, SkippedChunk, SyntheticProgram, TraceMeta, TraceReader,
        TraceRecord, TraceWriter,
    };
}
