//! One way to run anything: `Session` and its builder.
//!
//! A [`Session`] is the one way to run a monitoring experiment, a
//! single composition of:
//!
//! * **monitor** — a registered name, a boxed [`Monitor`] trait object,
//!   or anything in a custom [`MonitorRegistry`];
//! * **source** — a synthetic [`BenchProfile`] workload, an in-memory
//!   record buffer, a recorded `.fadet` trace file, or a caller-built
//!   [`TraceSource`];
//! * **engine** — [`Engine::Cycle`] (exact timing),
//!   [`Engine::Batched`] (fast path + sampled timing, bit-exact monitor
//!   results), or [`Engine::Unaccelerated`] (no FADE at all);
//! * **config** — the [`SystemConfig`] hardware description.
//!
//! Every combination is valid, every combination funnels through the
//! one internal constructor (so variants cannot drift apart), and the
//! built session is `Send`, which is what lets the experiment-matrix
//! driver shard whole runs across worker threads.
//!
//! # Example
//!
//! ```
//! use fade_system::{Engine, Session, SystemConfig};
//! use fade_trace::bench;
//!
//! let report = Session::builder()
//!     .monitor("AddrCheck")
//!     .source(bench::by_name("mcf").unwrap())
//!     .engine(Engine::batched())
//!     .config(SystemConfig::fade_single_core())
//!     .build()
//!     .unwrap()
//!     .run_measured(10_000, 40_000)
//!     .unwrap();
//! assert!(report.stats.slowdown() >= 0.8);
//! assert!(report.stats.sampling.is_some()); // batched timing is sampled
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fade::{BatchStats, FadeProgram, FadeStats};
use fade_monitors::Monitor;
use fade_sim::{StratumStat, WindowSample};
use fade_shadow::{BudgetExceeded, MetadataState, ShadowCounters};
use fade_trace::{BenchProfile, DegradationReport, TraceRecord};

use crate::config::{Accel, SystemConfig};
use crate::registry::{MonitorRegistry, UnknownMonitor};
use crate::run::RunStats;
use crate::system::{baseline_cycles, MonitoringSystem, ReplayBuffer, SourceError, TraceSource};

/// How a [`Session`] executes its trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The cycle-accurate reference engine: every event walks the full
    /// fetch→filter→dispatch machinery one cycle at a time; cycle
    /// counts are exact.
    #[default]
    Cycle,
    /// The batched engine: most events drain through the accelerator's
    /// fast path, periodic cycle-accurate windows sample timing.
    /// Monitor-visible results are bit-exact with [`Engine::Cycle`];
    /// cycle counts are sampled estimates with confidence intervals
    /// (see [`crate::RunStats::sampling`]).
    ///
    /// `None` knobs inherit the [`SystemConfig`]'s sampling period and
    /// window, so `Engine::batched()` matches the config exactly.
    Batched {
        /// Sampling period override (monitored events per period).
        period: Option<u64>,
        /// Cycle-accurate window override (monitored events sampled
        /// exactly per period).
        window: Option<u64>,
    },
    /// No accelerator: every monitored event runs a software handler on
    /// the monitor thread (forces [`Accel::None`] regardless of the
    /// config), cycle-accurately.
    Unaccelerated,
}

impl Engine {
    /// The batched engine with the config's own sampling knobs.
    pub fn batched() -> Self {
        Engine::Batched { period: None, window: None }
    }

    /// The batched engine with explicit sampling knobs.
    pub fn batched_with(period: u64, window: u64) -> Self {
        Engine::Batched {
            period: Some(period),
            window: Some(window),
        }
    }
}

/// Monitor selection for a [`SessionBuilder`]: by registered name or by
/// trait object. Usually constructed implicitly through
/// [`SessionBuilder::monitor`]'s `Into` conversions.
pub enum MonitorSel {
    /// Resolve this name in the builder's [`MonitorRegistry`].
    Named(String),
    /// Use this instance directly.
    Instance(Box<dyn Monitor>),
}

impl From<&str> for MonitorSel {
    fn from(name: &str) -> Self {
        MonitorSel::Named(name.to_string())
    }
}

impl From<&String> for MonitorSel {
    fn from(name: &String) -> Self {
        MonitorSel::Named(name.clone())
    }
}

impl From<String> for MonitorSel {
    fn from(name: String) -> Self {
        MonitorSel::Named(name)
    }
}

impl From<Box<dyn Monitor>> for MonitorSel {
    fn from(monitor: Box<dyn Monitor>) -> Self {
        MonitorSel::Instance(monitor)
    }
}

impl std::fmt::Debug for MonitorSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorSel::Named(n) => write!(f, "Named({n:?})"),
            MonitorSel::Instance(m) => write!(f, "Instance({:?})", m.name()),
        }
    }
}

/// Trace selection for a [`SessionBuilder`]: where the session's
/// records come from. Usually constructed implicitly through
/// [`SessionBuilder::source`]'s `Into` conversions.
pub enum SourceSpec {
    /// Generate the workload on the fly from a benchmark profile
    /// (seeded by the config).
    Synthetic(BenchProfile),
    /// Replay an in-memory record buffer captured for this profile.
    Records(BenchProfile, Vec<TraceRecord>),
    /// Stream a recorded `.fadet` trace file; the benchmark profile
    /// comes from the file's own header metadata.
    TraceFile(PathBuf),
    /// A caller-built [`TraceSource`] feeding this profile's workload.
    Custom(BenchProfile, Box<dyn TraceSource>),
}

impl From<BenchProfile> for SourceSpec {
    fn from(bench: BenchProfile) -> Self {
        SourceSpec::Synthetic(bench)
    }
}

impl From<&BenchProfile> for SourceSpec {
    fn from(bench: &BenchProfile) -> Self {
        SourceSpec::Synthetic(bench.clone())
    }
}

impl From<(BenchProfile, Vec<TraceRecord>)> for SourceSpec {
    fn from((bench, records): (BenchProfile, Vec<TraceRecord>)) -> Self {
        SourceSpec::Records(bench, records)
    }
}

impl From<PathBuf> for SourceSpec {
    fn from(path: PathBuf) -> Self {
        SourceSpec::TraceFile(path)
    }
}

impl From<&std::path::Path> for SourceSpec {
    fn from(path: &std::path::Path) -> Self {
        SourceSpec::TraceFile(path.to_path_buf())
    }
}

impl std::fmt::Debug for SourceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceSpec::Synthetic(b) => write!(f, "Synthetic({:?})", b.name),
            SourceSpec::Records(b, r) => write!(f, "Records({:?}, {} records)", b.name, r.len()),
            SourceSpec::TraceFile(p) => write!(f, "TraceFile({p:?})"),
            SourceSpec::Custom(b, _) => write!(f, "Custom({:?})", b.name),
        }
    }
}

/// Why a [`SessionBuilder`] could not produce a [`Session`].
#[derive(Debug)]
pub enum SessionError {
    /// [`SessionBuilder::monitor`] was never called.
    NoMonitor,
    /// [`SessionBuilder::source`] was never called.
    NoSource,
    /// The monitor name is not in the builder's registry.
    UnknownMonitor(UnknownMonitor),
    /// The `.fadet` trace file failed to open or decode.
    Trace(fade_trace::TraceFileError),
    /// The trace file's header names a benchmark profile this build
    /// does not know.
    UnknownBench(String),
    /// The (custom or monitor-provided) FADE program failed structural
    /// validation.
    Program(fade::ProgramError),
    /// A custom FADE program was supplied together with
    /// [`Engine::Unaccelerated`] (or an unaccelerated config): there is
    /// no accelerator to load it into.
    ProgramWithoutAccel,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoMonitor => f.write_str("no monitor selected (call .monitor(...))"),
            SessionError::NoSource => f.write_str("no trace source selected (call .source(...))"),
            SessionError::UnknownMonitor(e) => e.fmt(f),
            SessionError::Trace(e) => write!(f, "trace file: {e}"),
            SessionError::UnknownBench(name) => {
                write!(f, "trace file header names unknown benchmark {name:?}")
            }
            SessionError::Program(e) => write!(f, "FADE program failed validation: {e:?}"),
            SessionError::ProgramWithoutAccel => {
                f.write_str("a custom FADE program needs a FADE-enabled engine/config")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::UnknownMonitor(e) => Some(e),
            SessionError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnknownMonitor> for SessionError {
    fn from(e: UnknownMonitor) -> Self {
        SessionError::UnknownMonitor(e)
    }
}

impl From<fade_trace::TraceFileError> for SessionError {
    fn from(e: fade_trace::TraceFileError) -> Self {
        SessionError::Trace(e)
    }
}

/// Why a built [`Session`] failed while *running* (as opposed to
/// [`SessionError`], which covers construction).
///
/// A failed run poisons only its own session: the error is sticky —
/// every further run call returns it again — but nothing outside the
/// session (sibling sessions, the experiment matrix, the process) is
/// affected.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionRunError {
    /// The monitor (or the engine running it) panicked mid-run. The
    /// panic was caught at the session boundary; the session is
    /// poisoned, the process lives on.
    MonitorPanicked {
        /// Name of the monitor that was driving the session.
        monitor: String,
        /// The panic payload, stringified (`&str`/`String` payloads
        /// verbatim; anything else a placeholder).
        payload: String,
    },
    /// The trace source failed mid-stream with a typed error (clean
    /// exhaustion is *not* an error — see
    /// [`Session::source_exhausted`]).
    Source(SourceError),
    /// Dirty shadow state exceeded the configured byte cap
    /// ([`SystemConfig::with_shadow_mem_cap`]) even after lossless
    /// eviction compressed everything it could.
    ShadowBudget(BudgetExceeded),
}

impl std::fmt::Display for SessionRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionRunError::MonitorPanicked { monitor, payload } => {
                write!(f, "monitor {monitor:?} panicked: {payload}")
            }
            SessionRunError::Source(e) => e.fmt(f),
            SessionRunError::ShadowBudget(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SessionRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionRunError::Source(e) => Some(e),
            SessionRunError::ShadowBudget(e) => Some(e),
            SessionRunError::MonitorPanicked { .. } => None,
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

/// Builder for [`Session`]: monitor × source × engine × config.
///
/// Defaults: builtin [`MonitorRegistry`], [`Engine::Cycle`],
/// [`SystemConfig::fade_single_core`]. Monitor and source have no
/// default — [`SessionBuilder::build`] reports a typed error if either
/// is missing.
#[derive(Debug)]
pub struct SessionBuilder {
    monitor: Option<MonitorSel>,
    source: Option<SourceSpec>,
    engine: Engine,
    config: SystemConfig,
    registry: Option<Arc<MonitorRegistry>>,
    program: Option<FadeProgram>,
    recover: bool,
}

impl SessionBuilder {
    fn new() -> Self {
        SessionBuilder {
            monitor: None,
            source: None,
            engine: Engine::default(),
            config: SystemConfig::fade_single_core(),
            registry: None,
            program: None,
            recover: false,
        }
    }

    /// Selects the monitor: a registered name (`&str`/`String`) or a
    /// boxed [`Monitor`] trait object.
    pub fn monitor(mut self, monitor: impl Into<MonitorSel>) -> Self {
        self.monitor = Some(monitor.into());
        self
    }

    /// Selects a concrete monitor instance without boxing ceremony —
    /// `builder.monitor_object(MyCheck::new())`.
    pub fn monitor_object(mut self, monitor: impl Monitor + 'static) -> Self {
        self.monitor = Some(MonitorSel::Instance(Box::new(monitor)));
        self
    }

    /// Selects the trace source: a [`BenchProfile`] (synthetic
    /// generation), a `(BenchProfile, Vec<TraceRecord>)` pair
    /// (in-memory replay), or a `.fadet` path (file replay).
    pub fn source(mut self, source: impl Into<SourceSpec>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Selects a caller-built [`TraceSource`] that feeds `bench`'s
    /// workload (the escape hatch custom capture frontends plug into).
    pub fn trace_source(mut self, bench: BenchProfile, source: Box<dyn TraceSource>) -> Self {
        self.source = Some(SourceSpec::Custom(bench, source));
        self
    }

    /// Selects the execution engine (default: [`Engine::Cycle`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the system configuration (default:
    /// [`SystemConfig::fade_single_core`]).
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Resolves monitor names in this registry instead of the builtin
    /// one — how out-of-tree monitors become nameable (shared via `Arc`
    /// so one registry serves a whole experiment matrix).
    pub fn registry(mut self, registry: Arc<MonitorRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Replaces the monitor's own FADE program with a caller-built one
    /// (ablations: SUU removal, alternative event-table encodings).
    pub fn program(mut self, program: FadeProgram) -> Self {
        self.program = Some(program);
        self
    }

    /// Opens `.fadet` trace-file sources in *recovering* mode: corrupt
    /// or truncated chunks are skipped with the loss accounted in a
    /// [`DegradationReport`] (see [`Session::degradation`]) instead of
    /// failing the whole replay. Bit-exact on fault-free files; no
    /// effect on non-file sources.
    pub fn recover_faults(mut self) -> Self {
        self.recover = true;
        self
    }

    /// Builds the [`Session`].
    ///
    /// # Errors
    ///
    /// Every failure is a typed [`SessionError`]: missing monitor or
    /// source, unknown monitor name, unreadable trace file, unknown
    /// benchmark in a trace header, invalid FADE program, or a custom
    /// program without an accelerator to load it into.
    pub fn build(self) -> Result<Session, SessionError> {
        let mut cfg = self.config;
        match self.engine {
            Engine::Cycle => {}
            Engine::Unaccelerated => cfg.accel = Accel::None,
            Engine::Batched { period, window } => {
                if let Some(p) = period {
                    cfg.sample_period = p;
                }
                if let Some(w) = window {
                    cfg.sample_window = w;
                }
            }
        }

        let monitor = match self.monitor.ok_or(SessionError::NoMonitor)? {
            MonitorSel::Instance(m) => m,
            MonitorSel::Named(name) => match &self.registry {
                Some(r) => r.create(&name)?,
                None => MonitorRegistry::builtin().create(&name)?,
            },
        };

        if let Some(program) = &self.program {
            if cfg.accel == Accel::None {
                return Err(SessionError::ProgramWithoutAccel);
            }
            program.validate().map_err(SessionError::Program)?;
        }
        if cfg.accel != Accel::None {
            // The accelerator will load the monitor's program; surface
            // a broken one as a typed error instead of a late panic.
            monitor.program().validate().map_err(SessionError::Program)?;
        }

        let (bench, source): (BenchProfile, Option<Box<dyn TraceSource>>) =
            match self.source.ok_or(SessionError::NoSource)? {
                SourceSpec::Synthetic(bench) => (bench, None),
                SourceSpec::Records(bench, records) => {
                    (bench, Some(Box::new(ReplayBuffer::new(records))))
                }
                SourceSpec::TraceFile(path) => {
                    let mut reader = fade_trace::TraceReader::open(path)?;
                    if self.recover {
                        reader = reader.with_recovery();
                    }
                    let name = reader.meta().bench.clone();
                    let bench = fade_trace::bench::by_name(&name)
                        .ok_or(SessionError::UnknownBench(name))?;
                    (bench, Some(Box::new(reader)))
                }
                SourceSpec::Custom(bench, source) => (bench, Some(source)),
            };

        let sys = MonitoringSystem::build(&bench, monitor, &cfg, self.program, source);
        Ok(Session {
            sys,
            bench,
            engine: self.engine,
            created: Instant::now(),
            poisoned: None,
        })
    }
}

/// A ready-to-run monitoring session: one monitor, one trace source,
/// one engine, one configuration. Built by [`Session::builder`].
///
/// Sessions are `Send`: a built session can move to a worker thread and
/// run there, which is how the experiment-matrix driver shards runs
/// across cores.
///
/// Two driving styles:
///
/// * [`Session::run_measured`] — the one-shot experiment: warmup,
///   measured window, baseline comparison, returns a [`RunReport`].
/// * [`Session::run`] + accessors — incremental stepping for tools that
///   inspect state mid-run (see `fade-bench`'s `calibrate` binary).
pub struct Session {
    sys: MonitoringSystem,
    bench: BenchProfile,
    engine: Engine,
    /// When the session was built — the wall-clock epoch of
    /// [`Session::finish`] for manually driven runs.
    created: Instant,
    /// Sticky run failure: set by the first caught panic, returned by
    /// every subsequent run call (a panicked engine may hold torn
    /// state; nothing may run on it again).
    poisoned: Option<SessionRunError>,
}

impl Session {
    /// Starts a [`SessionBuilder`] with default engine, config and
    /// registry.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The benchmark profile this session runs.
    pub fn bench(&self) -> &BenchProfile {
        &self.bench
    }

    /// The configuration the session's system was built with (with the
    /// engine's overrides applied).
    pub fn config(&self) -> &SystemConfig {
        self.sys.config()
    }

    /// The engine this session drives its trace with.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Runs the given closure on the engine behind the session's panic
    /// guard: a panic anywhere inside (monitor callbacks included) is
    /// caught at this boundary, converted to a sticky
    /// [`SessionRunError::MonitorPanicked`], and never unwinds past the
    /// session. After a clean return, source failures and shadow-budget
    /// violations surface as their typed errors.
    fn guard(&mut self, f: impl FnOnce(&mut MonitoringSystem)) -> Result<(), SessionRunError> {
        if let Some(p) = &self.poisoned {
            return Err(p.clone());
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&mut self.sys))) {
            let err = SessionRunError::MonitorPanicked {
                monitor: self.sys.monitor().name().to_string(),
                payload: panic_message(payload.as_ref()),
            };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        if let Some(e) = self.sys.source_error() {
            return Err(SessionRunError::Source(e.clone()));
        }
        if let Some(b) = self.sys.state().mem.budget_exceeded() {
            return Err(SessionRunError::ShadowBudget(*b));
        }
        Ok(())
    }

    /// Runs until `n` more application instructions retire, through
    /// this session's engine. Stops early — `Ok`, with
    /// [`Session::source_exhausted`] set — when a finite trace source
    /// runs out of records.
    ///
    /// # Errors
    ///
    /// [`SessionRunError::MonitorPanicked`] if the monitor panicked
    /// (the session is poisoned from then on),
    /// [`SessionRunError::Source`] if the trace source failed
    /// mid-stream, [`SessionRunError::ShadowBudget`] if dirty shadow
    /// state exceeded the configured byte cap.
    pub fn run(&mut self, n: u64) -> Result<(), SessionRunError> {
        let engine = self.engine;
        self.guard(|sys| match engine {
            Engine::Cycle | Engine::Unaccelerated => sys.run_instrs(n),
            Engine::Batched { .. } => sys.run_batched(n),
        })
    }

    /// Runs until *exactly* `n` more application instructions retire
    /// (never overshooting), through this session's engine — the stop
    /// discipline that lets two sessions be compared over an identical
    /// trace prefix.
    ///
    /// # Errors
    ///
    /// As for [`Session::run`].
    pub fn run_exact(&mut self, n: u64) -> Result<(), SessionRunError> {
        let engine = self.engine;
        self.guard(|sys| match engine {
            Engine::Cycle | Engine::Unaccelerated => sys.run_instrs_exact(n),
            Engine::Batched { .. } => sys.run_batched(n),
        })
    }

    /// Runs the monitoring side with the application paused until
    /// nothing is in flight (queues empty, handlers completed).
    ///
    /// # Errors
    ///
    /// As for [`Session::run`].
    pub fn drain(&mut self) -> Result<(), SessionRunError> {
        self.guard(|sys| sys.drain())
    }

    /// The full experiment protocol: warmup, measured window (drained
    /// when batched, so the estimate covers in-flight work), baseline
    /// comparison — everything the paper's figures are made of, plus
    /// the wall-clock cost of producing it.
    ///
    /// # Errors
    ///
    /// As for [`Session::run`].
    pub fn run_measured(mut self, warmup: u64, measure: u64) -> Result<RunReport, SessionRunError> {
        let start = Instant::now();
        self.run(warmup)?;
        self.sys.start_measure();
        self.run(measure)?;
        if let Engine::Batched { .. } = self.engine {
            self.drain()?;
        }
        let cfg = *self.sys.config();
        let baseline = baseline_cycles(&self.bench, cfg.core, cfg.seed, warmup, measure);
        self.finish_report(baseline, start)
    }

    /// Collects a [`RunReport`] from a session driven manually with
    /// [`Session::run`]/[`Session::drain`] after a
    /// [`Session::start_measure`] call — the incremental counterpart of
    /// [`Session::run_measured`]. `baseline` must come from
    /// [`baseline_cycles`] for the same benchmark, core and seed; the
    /// report's wall clock covers the session's whole lifetime.
    ///
    /// # Errors
    ///
    /// The sticky poison of an earlier failed run, or
    /// [`SessionRunError::MonitorPanicked`] if the monitor's report
    /// collection itself panics.
    pub fn finish(self, baseline: u64) -> Result<RunReport, SessionRunError> {
        let start = self.created;
        self.finish_report(baseline, start)
    }

    fn finish_report(self, baseline: u64, start: Instant) -> Result<RunReport, SessionRunError> {
        if let Some(p) = self.poisoned {
            return Err(p);
        }
        let monitor_name = self.sys.monitor().name().to_string();
        let degradation = self.sys.degradation().cloned();
        let sys = self.sys;
        let bench_name = self.bench.name;
        match catch_unwind(AssertUnwindSafe(move || {
            let violations = sys.monitor().reports();
            let batch = sys.batch_stats();
            let stats = sys.finish(bench_name, baseline);
            (stats, violations, batch)
        })) {
            Ok((stats, violations, batch)) => Ok(RunReport {
                stats,
                violations,
                batch,
                degradation,
                wall_s: start.elapsed().as_secs_f64(),
            }),
            Err(payload) => Err(SessionRunError::MonitorPanicked {
                monitor: monitor_name,
                payload: panic_message(payload.as_ref()),
            }),
        }
    }

    /// Starts the measurement window (counters collected from now on).
    pub fn start_measure(&mut self) {
        self.sys.start_measure();
    }

    /// The monitor driving this session (bug reports, etc.).
    pub fn monitor(&self) -> &dyn Monitor {
        self.sys.monitor()
    }

    /// The current metadata state.
    pub fn state(&self) -> &MetadataState {
        self.sys.state()
    }

    /// Total cycles simulated so far (exact cycles only; see
    /// [`Session::estimated_total_cycles`] for the batched engine).
    pub fn cycles(&self) -> u64 {
        self.sys.cycles()
    }

    /// Total cycles including the sampled extrapolation for batched
    /// stretches.
    pub fn estimated_total_cycles(&self) -> u64 {
        self.sys.estimated_total_cycles()
    }

    /// Relative half-width of the 95% CI on
    /// [`Session::estimated_total_cycles`] — the production rate's
    /// error bound (`None` with fewer than two sampled windows). Only
    /// the sampled residual is uncertain; the simulated cycles and the
    /// deterministic base of batched stretches are exact. The interval
    /// on the residual (stratified, control-variate-adjusted ratio
    /// estimator, Student-t) is therefore an *absolute* cycle band,
    /// and the relative width divides it by the full cycle estimate —
    /// the same integer bounds [`crate::SamplingSummary::rel_half_width`]
    /// is computed from.
    pub fn rel_half_width(&self) -> Option<f64> {
        self.sys.rel_half_width()
    }

    /// Total application instructions retired so far.
    pub fn instrs(&self) -> u64 {
        self.sys.instrs()
    }

    /// Monitored events accepted so far.
    pub fn events_seen(&self) -> u64 {
        self.sys.events_seen()
    }

    /// Accumulated fast-path statistics of batched stretches.
    pub fn batch_stats(&self) -> BatchStats {
        self.sys.batch_stats()
    }

    /// Accelerator statistics (`None` for unaccelerated sessions).
    pub fn fade_stats(&self) -> Option<FadeStats> {
        self.sys.fade_stats()
    }

    /// The residual-overhead windows batched execution sampled so far:
    /// per window, the measured cycles minus the unimpeded commit-model
    /// cycles for the same instructions and minus the handler-execution
    /// cycles — what is left is queueing, SMT interference and
    /// accelerator stalls. Each carries its congestion stratum and
    /// control covariate (empty for cycle-accurate sessions).
    pub fn sampled_windows(&self) -> &[WindowSample] {
        self.sys.sampled_windows()
    }

    /// Per-congestion-stratum breakdown of the sampling interval, one
    /// row per merged stratum in ascending key order (empty for
    /// cycle-accurate sessions).
    pub fn sampling_strata(&self) -> Vec<StratumStat> {
        self.sys.sampling_strata()
    }

    /// Carried-congestion handler cycles seeded into sampling windows
    /// so far — how much batch-stretch backlog the windows started
    /// under instead of starting from drained queues (0 for
    /// cycle-accurate sessions, or when nothing ever congested).
    pub fn carried_seed_cycles(&self) -> u64 {
        self.sys.carried_seed_cycles()
    }

    /// `true` once the trace source ran out of records: the last run
    /// call stopped early with the trace fully consumed (an `Ok`
    /// outcome — replaying a shorter-than-requested trace is not an
    /// error).
    pub fn source_exhausted(&self) -> bool {
        self.sys.source_exhausted()
    }

    /// The degradation accounting of a recovering trace-file source
    /// ([`SessionBuilder::recover_faults`]): chunks skipped, records
    /// lost, byte offsets. `None` for non-recovering sources; a clean
    /// report ([`DegradationReport::is_clean`]) on fault-free files.
    pub fn degradation(&self) -> Option<&DegradationReport> {
        self.sys.degradation()
    }

    /// Eviction/compaction statistics of the session's shadow memory
    /// (all zero without a configured budget — see
    /// [`SystemConfig::with_shadow_page_budget`]).
    pub fn shadow_counters(&self) -> ShadowCounters {
        self.sys.state().mem.counters()
    }

    /// The session's *live* shadow-memory footprint, delegating to
    /// [`fade_shadow::ShadowMemory`]: total resident bytes (full page
    /// frames plus compressed demoted pages) and the number of resident
    /// full pages. This is the instantaneous quantity a multi-tenant
    /// server admits/meters tenants on, as opposed to the historical
    /// high-water mark in [`ShadowCounters::peak_full_pages`]: at any
    /// instant `full_pages <= peak_full_pages`, and under a configured
    /// page budget both stay at or below it.
    pub fn shadow_bytes_in_use(&self) -> ShadowUsage {
        let mem = &self.sys.state().mem;
        ShadowUsage {
            bytes: mem.shadow_bytes(),
            full_pages: mem.resident_full_pages(),
        }
    }
}

/// A snapshot of a session's live shadow-memory footprint
/// (see [`Session::shadow_bytes_in_use`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShadowUsage {
    /// Resident shadow bytes: full page frames plus the compressed
    /// representation of demoted pages.
    pub bytes: usize,
    /// Pages currently resident as full (uncompressed) frames.
    pub full_pages: usize,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("bench", &self.bench.name)
            .field("monitor", &self.sys.monitor().name())
            .field("engine", &self.engine)
            .field("instrs", &self.sys.instrs())
            .finish()
    }
}

/// What one measured session run produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Everything the paper plots: slowdown, filtering ratio, handler
    /// breakdowns, queue occupancy, sampling confidence intervals
    /// ([`RunStats::sampling`]) for batched runs.
    pub stats: RunStats,
    /// The monitor's violation reports (leaks, races, taint alarms, …)
    /// accumulated over the whole run.
    pub violations: Vec<String>,
    /// Fast-path statistics of batched stretches (all zero for the
    /// cycle and unaccelerated engines).
    pub batch: BatchStats,
    /// Degradation accounting of a recovering trace-file source
    /// (`None` for non-recovering sources; clean on fault-free files).
    pub degradation: Option<DegradationReport>,
    /// Wall-clock seconds this run took — what the experiment matrix
    /// aggregates into its sharding speedup.
    pub wall_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fade_trace::bench;

    fn mcf() -> BenchProfile {
        bench::by_name("mcf").unwrap()
    }

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<MonitoringSystem>();
        assert_send::<RunReport>();
    }

    #[test]
    fn missing_pieces_are_typed_errors() {
        let e = Session::builder().source(mcf()).build().unwrap_err();
        assert!(matches!(e, SessionError::NoMonitor));
        let e = Session::builder().monitor("AddrCheck").build().unwrap_err();
        assert!(matches!(e, SessionError::NoSource));
        let e = Session::builder()
            .monitor("NoSuchCheck")
            .source(mcf())
            .build()
            .unwrap_err();
        match e {
            SessionError::UnknownMonitor(u) => assert_eq!(u.name, "NoSuchCheck"),
            other => panic!("expected UnknownMonitor, got {other:?}"),
        }
        let e = Session::builder()
            .monitor("AddrCheck")
            .source(std::path::Path::new("/nonexistent/trace.fadet"))
            .build()
            .unwrap_err();
        assert!(matches!(e, SessionError::Trace(_)));
    }

    #[test]
    fn program_without_accel_is_rejected() {
        let program = fade_monitors::AddrCheck::new().program();
        let e = Session::builder()
            .monitor("AddrCheck")
            .source(mcf())
            .program(program.clone())
            .engine(Engine::Unaccelerated)
            .build()
            .unwrap_err();
        assert!(matches!(e, SessionError::ProgramWithoutAccel));
        let e = Session::builder()
            .monitor("AddrCheck")
            .source(mcf())
            .program(program)
            .config(SystemConfig::unaccelerated_single_core())
            .build()
            .unwrap_err();
        assert!(matches!(e, SessionError::ProgramWithoutAccel));
    }

    #[test]
    fn unaccelerated_engine_overrides_config() {
        let mut s = Session::builder()
            .monitor("MemLeak")
            .source(bench::by_name("gcc").unwrap())
            .engine(Engine::Unaccelerated)
            .config(SystemConfig::fade_single_core())
            .build()
            .unwrap();
        s.run(2_000).unwrap();
        assert!(s.fade_stats().is_none(), "engine must strip the accelerator");
    }

    #[test]
    fn batched_knob_overrides_reach_the_config() {
        let mut s = Session::builder()
            .monitor("AddrCheck")
            .source(bench::by_name("hmmer").unwrap())
            .engine(Engine::batched_with(1 << 40, 0))
            .build()
            .unwrap();
        // A period longer than any trace with a zero window: everything
        // runs batched, nothing is sampled cycle-accurately.
        s.run(5_000).unwrap();
        assert_eq!(s.cycles(), 0, "no cycle-accurate stretch may run");
        assert!(s.batch_stats().events > 0);
    }

    #[test]
    fn run_measured_matches_engine_defaults() {
        let r = Session::builder()
            .monitor("AddrCheck")
            .source(mcf())
            .build()
            .unwrap()
            .run_measured(2_000, 8_000)
            .unwrap();
        // (the cycle engine may overshoot by up to a commit width)
        assert!(r.stats.app_instrs >= 8_000);
        assert!(r.stats.sampling.is_none(), "cycle engine is exact");
        assert!(r.wall_s > 0.0);
    }

    /// `shadow_bytes_in_use` is the *instantaneous* footprint;
    /// `ShadowCounters::peak_full_pages` is its post-enforcement
    /// high-water mark. Stepping a budgeted session and polling both
    /// pins the relationship: every observed instantaneous full-page
    /// count stays at or below the budget and at or below the final
    /// peak, and the peak is reached by some observed instant's
    /// history (it never undershoots the running maximum we saw).
    #[test]
    fn shadow_usage_tracks_memory_and_respects_peak_semantics() {
        const BUDGET: usize = 8;
        let mut s = Session::builder()
            .monitor("MemCheck")
            .source(bench::by_name("gcc").unwrap())
            .config(SystemConfig::fade_single_core().with_shadow_page_budget(BUDGET))
            .build()
            .unwrap();
        let mut max_seen = 0usize;
        for _ in 0..40 {
            s.run(1_000).unwrap();
            let usage = s.shadow_bytes_in_use();
            assert!(
                usage.full_pages <= BUDGET,
                "budget enforcement: {} full pages > budget {BUDGET}",
                usage.full_pages
            );
            assert_eq!(
                usage.bytes,
                s.state().mem.shadow_bytes(),
                "accessor must delegate to ShadowMemory"
            );
            assert!(
                usage.bytes >= usage.full_pages * fade_shadow::memory::SHADOW_PAGE_SIZE,
                "resident bytes must cover the full-page frames"
            );
            max_seen = max_seen.max(usage.full_pages);
        }
        let peak = s.shadow_counters().peak_full_pages;
        let now = s.shadow_bytes_in_use().full_pages;
        assert!(max_seen > 0, "the workload must actually touch shadow pages");
        assert!(
            max_seen <= peak,
            "peak is a high-water mark over every instant: saw {max_seen}, peak {peak}"
        );
        assert!(now <= peak, "the current instant can never exceed the peak");
        assert!(peak <= BUDGET, "the peak is post-enforcement: {peak} > {BUDGET}");
    }

    #[test]
    fn registry_monitors_run_through_sessions() {
        let mut registry = MonitorRegistry::builtin();
        registry.register(|| Box::new(fade_monitors::AddrCheck::new()));
        let mut s = Session::builder()
            .registry(Arc::new(registry))
            .monitor("addrcheck")
            .source(bench::by_name("hmmer").unwrap())
            .build()
            .unwrap();
        s.run(2_000).unwrap();
        assert_eq!(s.monitor().name(), "AddrCheck");
    }
}
