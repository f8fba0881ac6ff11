//! # fade-system
//!
//! Composed monitoring systems and the experiment harness — the crate
//! that produces every number in the paper's evaluation (Section 7).
//!
//! A [`Session`] is one monitoring system — the engine and its public
//! handle are the same type — and it wires together:
//!
//! * an application hardware thread (a [`fade_trace::SyntheticProgram`]
//!   retiring through a [`fade_sim::CommitModel`]),
//! * optionally the FADE accelerator ([`fade::Fade`]),
//! * a monitor hardware thread executing software handlers
//!   ([`fade_sim::HandlerExec`]),
//! * the decoupling queue(s) of Figure 1,
//!
//! in one of the evaluated configurations (Figure 8): single-core
//! dual-threaded or two-core, unaccelerated or FADE-enabled, on any of
//! the three core microarchitectures of Table 1.
//!
//! The crate's one entry point is the [`Session`] builder: pick a
//! monitor (by name, trait object, or via a pluggable
//! [`MonitorRegistry`]), a trace source (synthetic workload, in-memory
//! records, or a recorded `.fadet` file), an execution [`Engine`], and
//! a [`SystemConfig`]; then [`Session::run_measured`] performs a
//! warmup-and-measure run (SMARTS-flavoured sampling) and returns a
//! [`RunReport`] whose [`RunStats`] hold everything the paper plots:
//! slowdown, filtering ratio, queue-occupancy CDFs, unfiltered
//! distances and burst sizes, handler-class time breakdowns, and
//! two-core utilization.
//!
//! # Example
//!
//! ```
//! use fade_system::{Session, SystemConfig};
//! use fade_trace::bench;
//!
//! let report = Session::builder()
//!     .monitor("AddrCheck")
//!     .source(bench::by_name("mcf").unwrap())
//!     .config(SystemConfig::fade_single_core())
//!     .build()
//!     .unwrap()
//!     .run_measured(20_000, 50_000)
//!     .unwrap();
//! assert!(report.stats.slowdown() >= 1.0);
//! ```

pub mod config;
pub mod pool;
pub mod registry;
pub mod run;
pub mod session;
pub mod system;
pub mod throughput;

pub use config::{Accel, FadeTweaks, SystemConfig, Topology};
pub use pool::{run_indexed, WorkerPool};
pub use registry::{MonitorFactory, MonitorRegistry, UnknownMonitor};
pub use run::{ClassInstrs, RunStats, SamplingSummary, UtilBreakdown};
pub use session::{
    Engine, MonitorSel, RunReport, Session, SessionBuilder, SessionError, SessionRunError,
    ShadowUsage, SourceSpec,
};
pub use system::{baseline_cycles, ReplayBuffer, SourceError, TraceSource};
pub use throughput::{
    measure_system_throughput, measure_system_throughput_records, record_trace_prefix,
    SystemThroughputReport,
};
