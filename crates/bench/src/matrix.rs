//! The declarative experiment driver: an experiment is *data*
//! (monitor × benchmark × config), and a matrix of them is executed
//! sharded across worker threads. Every experiment runs the exact
//! cycle engine ([`Engine::Cycle`]): the figures are its numbers.
//!
//! The paper's evaluation is an embarrassingly parallel grid — every
//! (monitor, benchmark, configuration) point is an independent,
//! deterministic simulation — so the driver needs no synchronization
//! beyond a work-stealing index: each worker claims the next undone
//! experiment, builds a [`Session`] for it, and runs it to a
//! [`RunReport`]. Results come back in declaration order regardless of
//! which worker ran what, and are bit-identical for any worker count
//! (each run's RNG seeds derive from its own [`SystemConfig::seed`],
//! never from shard placement — `tests/matrix.rs` pins both
//! properties).
//!
//! Experiments are isolated from each other: a run that fails — a
//! panicking monitor, a failed trace source, an exceeded shadow-memory
//! budget — becomes a typed [`ExperimentError`] row in
//! [`MatrixResult::outcomes`], in declaration order like any other
//! result, and every sibling experiment still runs to completion.
//!
//! # Example
//!
//! ```
//! use fade_bench::{Experiment, ExperimentMatrix};
//! use fade_system::SystemConfig;
//! use fade_trace::bench;
//!
//! let mut matrix = ExperimentMatrix::new();
//! for b in bench::spec_int_suite().into_iter().take(2) {
//!     matrix.push(
//!         Experiment::new(b, "AddrCheck", SystemConfig::fade_single_core())
//!             .window(2_000, 8_000),
//!     );
//! }
//! let result = matrix.run();
//! let reports = result.into_reports();
//! assert_eq!(reports.len(), 2);
//! // (the cycle engine may overshoot by up to a commit width)
//! assert!(reports.iter().all(|r| r.stats.app_instrs >= 8_000));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use fade::FadeProgram;
use fade_system::{Engine, MonitorRegistry, RunReport, Session, SessionRunError, SystemConfig};
use fade_trace::BenchProfile;

use crate::{env_setting, measure_len, warmup_len};

/// One point of an experiment grid, as plain data.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Display label (diagnostics and timing logs).
    pub(crate) label: String,
    /// The workload.
    pub(crate) bench: BenchProfile,
    /// The monitor, by registry name.
    pub(crate) monitor: String,
    /// The hardware configuration.
    pub(crate) config: SystemConfig,
    /// Warmup instructions before the measured window.
    pub(crate) warmup: u64,
    /// Measured instructions.
    pub(crate) measure: u64,
    /// Optional caller-built FADE program (ablations).
    pub(crate) program: Option<FadeProgram>,
}

impl Experiment {
    /// An experiment with the harness defaults: warmup/measure from
    /// `FADE_WARMUP`/`FADE_MEASURE`.
    pub fn new(bench: BenchProfile, monitor: impl Into<String>, config: SystemConfig) -> Self {
        let monitor = monitor.into();
        Experiment {
            label: format!("{}/{}/{}", bench.name, monitor, config.label()),
            bench,
            monitor,
            config,
            warmup: warmup_len(),
            measure: measure_len(),
            program: None,
        }
    }

    /// Replaces the warmup/measure window.
    pub fn window(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Builds and runs this experiment's session on the current thread.
    fn run(&self, registry: &Arc<MonitorRegistry>) -> Result<RunReport, ExperimentError> {
        let mut builder = Session::builder()
            .registry(Arc::clone(registry))
            .monitor(self.monitor.as_str())
            .source(self.bench.clone())
            .engine(Engine::Cycle)
            .config(self.config);
        if let Some(p) = &self.program {
            builder = builder.program(p.clone());
        }
        let session = builder.build().map_err(|e| ExperimentError::Build {
            label: self.label.clone(),
            error: e.to_string(),
        })?;
        session
            .run_measured(self.warmup, self.measure)
            .map_err(|e| ExperimentError::Run {
                label: self.label.clone(),
                error: e,
            })
    }
}

/// Why one experiment of a matrix produced no [`RunReport`]. One
/// experiment's failure never touches its siblings: the error sits in
/// [`MatrixResult::outcomes`] at the experiment's declaration-order
/// position and everything else runs to completion.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum ExperimentError {
    /// The session failed to build (unknown monitor, invalid FADE
    /// program, unreadable trace file). The underlying
    /// [`fade_system::SessionError`] is carried stringified.
    Build {
        /// The experiment's display label.
        label: String,
        /// The stringified build error.
        error: String,
    },
    /// The session built but its run failed with a typed error —
    /// including a panicking monitor, which the session catches and
    /// converts to [`SessionRunError::MonitorPanicked`].
    Run {
        /// The experiment's display label.
        label: String,
        /// The typed run error.
        error: SessionRunError,
    },
    /// The experiment panicked outside the session's own guard (a
    /// harness bug rather than a monitor bug — still isolated to this
    /// row).
    Panicked {
        /// The experiment's display label.
        label: String,
        /// The panic payload, stringified.
        payload: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Build { label, error } => {
                write!(f, "experiment {label}: build failed: {error}")
            }
            ExperimentError::Run { label, error } => {
                write!(f, "experiment {label}: run failed: {error}")
            }
            ExperimentError::Panicked { label, payload } => {
                write!(f, "experiment {label}: panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Run { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Best-effort stringification of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker count for a matrix: `FADE_WORKERS` if set, else the machine's
/// available parallelism.
///
/// # Panics
///
/// Panics if `FADE_WORKERS` is set to anything but a positive count.
pub fn default_workers() -> usize {
    env_setting::<std::num::NonZeroUsize>("FADE_WORKERS", "a positive worker count")
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, |n| n.get())
}

/// A batch of experiments executed across worker threads.
pub struct ExperimentMatrix {
    experiments: Vec<Experiment>,
    workers: usize,
    registry: Arc<MonitorRegistry>,
}

impl ExperimentMatrix {
    /// An empty matrix with [`default_workers`] and the builtin monitor
    /// registry.
    pub fn new() -> Self {
        ExperimentMatrix {
            experiments: Vec::new(),
            workers: default_workers(),
            registry: Arc::new(MonitorRegistry::builtin()),
        }
    }

    /// Replaces the worker count (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Resolves monitor names in this registry (out-of-tree monitors in
    /// a matrix).
    #[cfg(test)]
    fn registry(mut self, registry: Arc<MonitorRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// Appends one experiment.
    pub fn push(&mut self, experiment: Experiment) -> &mut Self {
        self.experiments.push(experiment);
        self
    }

    /// Appends many experiments.
    pub fn extend(&mut self, experiments: impl IntoIterator<Item = Experiment>) -> &mut Self {
        self.experiments.extend(experiments);
        self
    }

    /// Runs every experiment, sharded across the matrix's workers, and
    /// returns the outcomes **in declaration order** together with the
    /// wall-clock evidence of the sharding win.
    ///
    /// Experiments are isolated: a failed or panicking experiment
    /// becomes a typed error row at its declaration-order position — it
    /// never kills the matrix, the worker, or any sibling experiment.
    /// [`MatrixResult::into_reports`] then panics on the first error row.
    pub fn run(self) -> MatrixResult {
        let n = self.experiments.len();
        let workers = self.workers.clamp(1, n.max(1));
        let experiments = &self.experiments;
        let registry = &self.registry;
        let start = Instant::now();
        // The scheduling core lives in `fade_system::pool`: workers
        // claim the next undone experiment, results come back in
        // declaration order. The session guards monitor panics itself;
        // the catch_unwind here catches everything else (harness bugs)
        // so one bad row cannot take down a worker and with it every
        // experiment the worker would have claimed.
        let outcomes: Vec<Result<RunReport, ExperimentError>> =
            fade_system::pool::run_indexed(workers, n, |i| {
                catch_unwind(AssertUnwindSafe(|| experiments[i].run(registry))).unwrap_or_else(
                    |payload| {
                        Err(ExperimentError::Panicked {
                            label: experiments[i].label.clone(),
                            payload: panic_message(payload.as_ref()),
                        })
                    },
                )
            });
        let wall_s = start.elapsed().as_secs_f64();
        let serial_s = outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok().map(|r| r.wall_s))
            .sum();
        MatrixResult {
            outcomes,
            workers,
            wall_s,
            serial_s,
        }
    }

}

impl Default for ExperimentMatrix {
    fn default() -> Self {
        Self::new()
    }
}

/// What a matrix run produced: per-experiment outcomes plus the
/// wall-clock totals behind the sharding speedup.
#[derive(Clone, Debug)]
pub struct MatrixResult {
    /// One outcome per experiment, in declaration order: the report,
    /// or the typed error that experiment (alone) failed with.
    pub(crate) outcomes: Vec<Result<RunReport, ExperimentError>>,
    /// Worker threads used.
    pub(crate) workers: usize,
    /// Wall-clock seconds for the whole (sharded) matrix.
    pub(crate) wall_s: f64,
    /// Sum of the per-experiment wall clocks of *successful* runs —
    /// what a single worker would have paid running the same grid back
    /// to back.
    pub(crate) serial_s: f64,
}

impl MatrixResult {
    /// The successful reports, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics on the first failed experiment (with its label and typed
    /// error) — the all-or-nothing discipline of the table-rendering
    /// binaries.
    pub fn into_reports(self) -> Vec<RunReport> {
        self.outcomes
            .into_iter()
            .map(|o| match o {
                Ok(report) => report,
                Err(e) => panic!("{e}"),
            })
            .collect()
    }
}

/// The timing of one batch of experiments (see
/// [`crate::experiments::Runs::timings`]).
#[derive(Clone, Debug)]
pub struct MatrixTiming {
    /// The section the batch ran for.
    pub label: String,
    /// Experiments in the matrix.
    pub experiments: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Sharded wall-clock seconds.
    pub wall_s: f64,
    /// Serial-equivalent seconds (sum of per-run wall clocks).
    pub serial_s: f64,
}

impl MatrixTiming {
    /// Sharded-over-serial wall-clock speedup.
    pub fn speedup(&self) -> f64 {
        self.serial_s / self.wall_s.max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fade_trace::bench;

    fn tiny(bench_name: &str, monitor: &str) -> Experiment {
        Experiment::new(
            bench::by_name(bench_name).unwrap(),
            monitor,
            SystemConfig::fade_single_core(),
        )
        .window(1_000, 4_000)
    }

    #[test]
    fn reports_come_back_in_declaration_order() {
        let mut m = ExperimentMatrix::new().workers(4);
        m.push(tiny("mcf", "AddrCheck"));
        m.push(tiny("gcc", "MemLeak"));
        m.push(tiny("hmmer", "MemCheck"));
        let result = m.run();
        assert!(result.outcomes.iter().all(Result::is_ok));
        assert!(result.serial_s > 0.0 && result.wall_s > 0.0);
        let reports = result.into_reports();
        let names: Vec<&str> = reports.iter().map(|r| r.stats.benchmark.as_str()).collect();
        assert_eq!(names, vec!["mcf", "gcc", "hmmer"]);
        let monitors: Vec<&str> = reports.iter().map(|r| r.stats.monitor.as_str()).collect();
        assert_eq!(monitors, vec!["AddrCheck", "MemLeak", "MemCheck"]);
    }

    #[test]
    fn empty_matrix_runs() {
        let result = ExperimentMatrix::new().run();
        assert!(result.outcomes.is_empty());
    }

    #[test]
    fn build_failures_are_error_rows_in_declaration_order() {
        let mut m = ExperimentMatrix::new().workers(2);
        m.push(tiny("mcf", "AddrCheck"));
        m.push(tiny("gcc", "NoSuchMonitor"));
        m.push(tiny("hmmer", "MemCheck"));
        let result = m.run();
        assert_eq!(result.outcomes.len(), 3);
        assert!(result.outcomes[0].is_ok(), "sibling before the bad row");
        assert!(result.outcomes[2].is_ok(), "sibling after the bad row");
        match &result.outcomes[1] {
            Err(ExperimentError::Build { label, .. }) => {
                assert!(label.contains("NoSuchMonitor"), "label: {label}")
            }
            other => panic!("expected a Build error row, got {other:?}"),
        }
        assert_eq!(result.outcomes.iter().filter(|o| o.is_err()).count(), 1);
    }

    /// An AddrCheck that blows up on the first retired instruction —
    /// the regression fixture for monitor-panic isolation.
    struct PanicMonitor(fade_monitors::AddrCheck);

    impl fade_monitors::Monitor for PanicMonitor {
        fn name(&self) -> &'static str {
            "PanicMonitor"
        }
        fn kind(&self) -> fade_monitors::MonitorKind {
            self.0.kind()
        }
        fn selects(&self, _instr: &fade_isa::AppInstr) -> bool {
            panic!("deliberate monitor panic (matrix isolation test)")
        }
        fn monitors_stack(&self) -> bool {
            self.0.monitors_stack()
        }
        fn program(&self) -> FadeProgram {
            self.0.program()
        }
        fn init_state(&self, state: &mut fade_shadow::MetadataState) {
            self.0.init_state(state)
        }
        fn classify(
            &self,
            ev: &fade_isa::InstrEvent,
            state: &fade_shadow::MetadataState,
        ) -> fade_monitors::EventClass {
            self.0.classify(ev, state)
        }
        fn apply_instr(&mut self, ev: &fade_isa::InstrEvent, state: &mut fade_shadow::MetadataState) {
            self.0.apply_instr(ev, state)
        }
        fn apply_high_level(
            &mut self,
            ev: &fade_isa::HighLevelEvent,
            state: &mut fade_shadow::MetadataState,
        ) {
            self.0.apply_high_level(ev, state)
        }
        fn apply_stack_update(
            &self,
            ev: &fade_isa::StackUpdateEvent,
            state: &mut fade_shadow::MetadataState,
        ) {
            self.0.apply_stack_update(ev, state)
        }
        fn costs(&self) -> fade_monitors::CostModel {
            self.0.costs()
        }
    }

    /// A panicking monitor becomes one typed error row in declaration
    /// order; the sibling experiments (including ones claimed later by
    /// the same worker) still complete.
    #[test]
    fn panicking_monitor_is_one_error_row_and_spares_siblings() {
        let mut registry = MonitorRegistry::builtin();
        registry.register(|| Box::new(PanicMonitor(fade_monitors::AddrCheck::new())));
        let mut m = ExperimentMatrix::new()
            .workers(1) // one worker claims every row: isolation must protect its whole queue
            .registry(Arc::new(registry));
        m.push(tiny("mcf", "AddrCheck"));
        m.push(tiny("gcc", "PanicMonitor"));
        m.push(tiny("hmmer", "MemCheck"));
        let result = m.run();
        assert_eq!(result.outcomes.len(), 3);
        assert!(result.outcomes[0].is_ok(), "sibling before the panicking row");
        assert!(result.outcomes[2].is_ok(), "sibling after the panicking row");
        match &result.outcomes[1] {
            Err(ExperimentError::Run {
                label,
                error: SessionRunError::MonitorPanicked { monitor, payload },
            }) => {
                assert!(label.contains("PanicMonitor"), "label: {label}");
                assert_eq!(monitor, "PanicMonitor");
                assert!(
                    payload.contains("deliberate monitor panic"),
                    "payload: {payload}"
                );
            }
            other => panic!("expected a MonitorPanicked run-error row, got {other:?}"),
        }
    }
}
