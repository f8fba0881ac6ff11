//! One way to run anything: `Session`, its builder, and the engine.
//!
//! A [`Session`] is the one way to run a monitoring experiment, and it
//! is the monitoring system itself: the cycle-level engine that steps
//! the application core, the decoupling queue, the accelerator and the
//! monitor thread lives in this type's private methods. It is a single
//! composition of:
//!
//! * **monitor** — a registered name, a boxed [`Monitor`] trait object,
//!   or anything in a custom [`MonitorRegistry`];
//! * **source** — a synthetic [`BenchProfile`] workload, a recorded
//!   `.fadet` stream (a file or its bytes, opened by one routine), or a
//!   caller-built [`TraceSource`];
//! * **engine** — [`Engine::Cycle`] (exact timing) or
//!   [`Engine::Batched`] (fast path + sampled timing, bit-exact monitor
//!   results);
//! * **config** — the [`SystemConfig`] hardware description, including
//!   whether FADE is present at all ([`SystemConfig::accel`]).
//!
//! Every combination is valid, every combination is assembled by the
//! one constructor, [`SessionBuilder::build`] (so variants cannot drift
//! apart), and the built session is `Send`, which is what lets the
//! experiment-matrix driver shard whole runs across worker threads.
//!
//! One engine implements all four evaluated organizations (unaccelerated
//! / FADE-enabled × single-core dual-threaded / two-core): per cycle it
//! advances the application commit process, moves monitored events into
//! the decoupling queue, runs the accelerator (if present), and executes
//! software handlers on the monitor hardware thread — with issue
//! bandwidth shared through [`SmtArbiter`] on the single-core system.
//! The batched engine drains most events through the accelerator's fast
//! path and drops back to the cycle-level step for sampled windows.
//!
//! Both engines read every trace record through one `read_ahead::Feed`,
//! which owns the record buffer, the engine's cursor into it and the
//! end of the trace (live, exhausted or failed). A refill is one source
//! call for up to one writer chunk of records, made inline or ahead on
//! a helper thread; a call may return fewer, and only a call that
//! appends nothing, fails or panics ends the trace. A source that fails
//! after appending records is served like one that ends there; the run
//! call that made the failing refill returns the error.
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

use std::io::{BufReader, Cursor, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fade::{BatchStats, Fade, FadeConfig, FadeProgram, FadeStats, InvId, UnfilteredEvent};
use fade_isa::{AppEvent, HighLevelEvent};
use fade_monitors::{EventClass, Monitor};
use fade_shadow::{BudgetExceeded, MetadataState, ShadowCounters};
use fade_sim::{
    BoundedQueue, CommitModel, CongestionCarry, HandlerExec, LogHistogram, RatioEstimator, Rng,
    SmtArbiter, WindowSample,
};
use fade_trace::{
    BenchProfile, DegradationReport, SyntheticProgram, TraceFileError, TraceReader, TraceRecord,
};

use crate::config::{Accel, SystemConfig, Topology};
use crate::read_ahead::{read_ahead, Feed, LeasePool, SPARE_CPUS};
use crate::registry::{MonitorRegistry, UnknownMonitor};
use crate::run::{ClassInstrs, RunStats, SamplingSummary, UtilBreakdown};
use crate::system::{
    apply_unfiltered, baseline_cycles, dispatch_cost, fade_stats_delta, handler_cycle_est,
    handler_ipc, select_event, SourceError, TraceSource,
};

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
    /// Stream a recorded `.fadet` trace file; the benchmark profile
    /// comes from the file's own header metadata.
    TraceFile(PathBuf),
    /// Stream a recorded `.fadet` trace held in memory, exactly as
    /// [`SourceSpec::TraceFile`] streams it from disk.
    TraceBytes(Vec<u8>),
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
            SourceSpec::TraceFile(p) => write!(f, "TraceFile({p:?})"),
            SourceSpec::TraceBytes(b) => write!(f, "TraceBytes({} bytes)", b.len()),
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
    /// The recorded `.fadet` stream (file or bytes) failed to open or
    /// decode.
    Trace(TraceFileError),
    /// The recorded stream's header names a benchmark profile this
    /// build does not know.
    UnknownBench(String),
    /// The (custom or monitor-provided) FADE program failed structural
    /// validation.
    Program(fade::ProgramError),
    /// A custom FADE program was supplied together with an
    /// unaccelerated config: there is no accelerator to load it into.
    ProgramWithoutAccel,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoMonitor => f.write_str("no monitor selected (call .monitor(...))"),
            SessionError::NoSource => f.write_str("no trace source selected (call .source(...))"),
            SessionError::UnknownMonitor(e) => e.fmt(f),
            SessionError::Trace(e) => write!(f, "trace stream: {e}"),
            SessionError::UnknownBench(name) => {
                write!(f, "trace header names unknown benchmark {name:?}")
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

impl From<TraceFileError> for SessionError {
    fn from(e: TraceFileError) -> Self {
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
    /// Shadow state exceeded the configured byte cap
    /// ([`SystemConfig::with_shadow_mem_cap`]).
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
    /// Where the session's read-ahead lease comes from: always
    /// [`SPARE_CPUS`] outside this crate's tests.
    leases: &'static LeasePool,
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
            leases: &SPARE_CPUS,
        }
    }

    /// Draws the read-ahead lease from `pool`: a pool that never grants
    /// one pins the inline path, an unbounded one forces read-ahead.
    #[cfg(test)]
    pub(crate) fn leases(mut self, pool: &'static LeasePool) -> Self {
        self.leases = pool;
        self
    }

    /// Selects the monitor: a registered name (`&str`/`String`) or a
    /// boxed [`Monitor`] trait object.
    pub fn monitor(mut self, monitor: impl Into<MonitorSel>) -> Self {
        self.monitor = Some(monitor.into());
        self
    }

    /// Selects the trace source: a [`BenchProfile`] (synthetic
    /// generation), a `.fadet` path, or any [`SourceSpec`].
    pub fn source(mut self, source: impl Into<SourceSpec>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Selects a caller-built [`TraceSource`] that feeds `bench`'s
    /// workload (custom capture frontends, [`crate::ReplayBuffer`]).
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

    /// Opens recorded `.fadet` sources, files and bytes alike, in
    /// *recovering* mode: corrupt or truncated chunks are skipped with
    /// the loss accounted in a [`DegradationReport`] (see
    /// [`Session::degradation`]) instead of failing the whole replay.
    /// Bit-exact on fault-free streams; no effect on other sources.
    pub fn recover_faults(mut self) -> Self {
        self.recover = true;
        self
    }

    /// Builds the [`Session`].
    ///
    /// If a CPU is free for it, the session reads its trace ahead: the
    /// helper thread of a read-ahead lease decodes or generates records
    /// in bounded batches while the engine runs. A process has
    /// `available_parallelism() − 1` such leases, each with one
    /// long-lived helper; a session that finds none free (and every
    /// session on one CPU) runs its source inline. The engine sees the
    /// same records, errors and panics either way, so no result depends
    /// on it.
    ///
    /// # Errors
    ///
    /// Every failure is a typed [`SessionError`], first one wins: missing
    /// monitor or source, unreadable recorded stream, unknown benchmark
    /// in its header, unknown monitor name, invalid FADE program, or a
    /// custom program without an accelerator to load it into.
    pub fn build(self) -> Result<Session, SessionError> {
        let mut cfg = self.config;
        if let Engine::Batched { period, window } = self.engine {
            if let Some(p) = period {
                cfg.sample_period = p;
            }
            if let Some(w) = window {
                cfg.sample_window = w;
            }
        }

        let monitor = self.monitor.ok_or(SessionError::NoMonitor)?;
        // The source opens before the monitor resolves, so a recorded
        // stream's own faults take precedence over a bad monitor name.
        let (bench, source): (BenchProfile, Box<dyn TraceSource>) =
            match self.source.ok_or(SessionError::NoSource)? {
                SourceSpec::Synthetic(bench) => {
                    let program = SyntheticProgram::new(&bench, cfg.seed);
                    (bench, Box::new(program))
                }
                SourceSpec::TraceFile(path) => {
                    let file = std::fs::File::open(path).map_err(TraceFileError::from)?;
                    open_recorded(BufReader::new(file), self.recover)?
                }
                SourceSpec::TraceBytes(bytes) => open_recorded(Cursor::new(bytes), self.recover)?,
                SourceSpec::Custom(bench, source) => (bench, source),
            };

        let monitor = match monitor {
            MonitorSel::Instance(m) => m,
            MonitorSel::Named(name) => match &self.registry {
                Some(r) => r.create(&name)?,
                None => MonitorRegistry::builtin().create(&name)?,
            },
        };

        let mon_program = monitor.program();
        if let Some(program) = &self.program {
            if cfg.accel == Accel::None {
                return Err(SessionError::ProgramWithoutAccel);
            }
            program.validate().map_err(SessionError::Program)?;
        }
        if cfg.accel != Accel::None {
            // The accelerator will load the monitor's program; surface
            // a broken one as a typed error instead of a late panic.
            mon_program.validate().map_err(SessionError::Program)?;
        }

        let mut state = MetadataState::new(mon_program.md_map());
        state.mem.set_mem_cap(cfg.shadow_mem_cap_bytes);
        monitor.init_state(&mut state);
        Ok(Session {
            monitors_stack: monitor.monitors_stack(),
            monitor,
            // Last, so a build that fails starts no helper.
            feed: read_ahead(source, self.leases),
            commit: CommitModel::new(cfg.core, bench.commit, Rng::seed_from(cfg.seed ^ 0xbace)),
            arbiter: SmtArbiter::new(),
            handler: HandlerExec::new(cfg.core),
            state,
            fade: accelerator(&cfg, mon_program, self.program),
            sw_queue: BoundedQueue::new(cfg.event_queue),
            cur_token: None,
            producer_paused: false,
            instr_cap: None,
            estimator: RatioEstimator::new(),
            measure_from: 0,
            stretch_base_cycles: 0,
            stretch_events: 0,
            // The backlog a stretch can hand the next window is bounded
            // by the events the decoupling queues hold: the unfiltered
            // queue, the event queue ahead of it (whose entries may all
            // be future dispatches on monitor-bound workloads), plus
            // the one event in the handler. (Unbounded queues — the
            // idealized-consumer study — get a nominal cap; they never
            // backpressure anyway.)
            congestion: CongestionCarry::new(
                cfg.unfiltered_queue.capacity().unwrap_or(32)
                    + cfg.event_queue.capacity().unwrap_or(32)
                    + 1,
            ),
            handler_est_cycles: 0,
            batch_stats: BatchStats::default(),
            batch_buf: Vec::with_capacity(BATCH_CHUNK as usize),
            inv_buf: Vec::new(),
            counts: Counts::default(),
            measure_start: Counts::default(),
            measuring: false,
            class_instrs: ClassInstrs::default(),
            occupancy: LogHistogram::new(),
            distances: LogHistogram::new(),
            bursts: LogHistogram::new(),
            util: UtilBreakdown::default(),
            fade_snapshot: None,
            since_uf: 0,
            cur_burst: 0,
            last_blocked: false,
            cfg,
            bench,
            engine: self.engine,
            created: Instant::now(),
            poisoned: None,
        })
    }
}

/// Opens a recorded `.fadet` byte stream as a session source: parses
/// its header, resolves the benchmark profile the header names, and
/// applies [`SessionBuilder::recover_faults`].
fn open_recorded(
    stream: impl Read + Send + 'static,
    recover: bool,
) -> Result<(BenchProfile, Box<dyn TraceSource>), SessionError> {
    let mut reader = TraceReader::new(stream)?;
    if recover {
        reader = reader.with_recovery();
    }
    let name = reader.meta().bench.clone();
    let bench = fade_trace::bench::by_name(&name).ok_or(SessionError::UnknownBench(name))?;
    Ok((bench, Box::new(reader)))
}

/// The accelerator a session's config asks for (`None` when
/// unaccelerated), loaded with `program` if given and the monitor's own
/// program otherwise. The config describes the hardware whatever
/// program is loaded.
fn accelerator(
    cfg: &SystemConfig,
    mon_program: FadeProgram,
    program: Option<FadeProgram>,
) -> Option<Box<Fade>> {
    let Accel::Fade(mode) = cfg.accel else {
        return None;
    };
    let mut fc = FadeConfig::paper(mode);
    fc.event_queue = cfg.event_queue;
    fc.unfiltered_queue = cfg.unfiltered_queue;
    fc.md_cache.size_bytes = cfg.tweaks.md_cache_bytes;
    fc.tlb_entries = cfg.tweaks.tlb_entries;
    fc.fsq_entries = cfg.tweaks.fsq_entries;
    if cfg.ideal_consumer {
        // Section 3.2's queueing study: the accelerator consumes
        // exactly one event per cycle with no metadata-miss, drain
        // or backpressure stalls.
        fc.tlb_miss_penalty = 0;
        fc.blocking_resume_latency = 0;
        fc.mem_lat = fade_sim::MemLatency { l1: 0, l2: 0, dram: 0 };
        fc.unfiltered_queue = fade_sim::QueueDepth::Unbounded;
    }
    Some(Box::new(Fade::new(fc, program.unwrap_or(mon_program))))
}

/// A ready-to-run monitoring session: one monitor, one trace source,
/// one engine, one configuration. Built by [`Session::builder`].
///
/// The session is the complete monitoring system under simulation:
/// application commit process, decoupling queue, accelerator, monitor
/// thread, and the measurement and sampling state of the run.
///
/// Sessions are `Send`: a built session can move to a worker thread and
/// run there, which is how the experiment-matrix driver shards runs
/// across cores.
///
/// A session may borrow one read-ahead helper thread, for as long as
/// it holds one of the process's `available_parallelism() − 1`
/// read-ahead leases (see [`SessionBuilder::build`]). Each lease keeps
/// its helper from session to session. Dropping the session returns
/// the lease at once and never waits for the helper, which drops the
/// source once its current read returns.
///
/// Two driving styles:
///
/// * [`Session::run_measured`] — the one-shot experiment: warmup,
///   measured window, baseline comparison, returns a [`RunReport`].
/// * [`Session::run`] + accessors — incremental stepping for tools that
///   inspect state mid-run (see `fade-bench`'s `calibrate` binary).
pub struct Session {
    cfg: SystemConfig,
    monitor: Box<dyn Monitor>,
    /// `monitor.monitors_stack()`, read once at build.
    monitors_stack: bool,
    /// The trace source, the record buffer it refills, the engine's
    /// cursor into it and the end of the trace. A record the cycle
    /// engine could not enqueue goes back ([`Feed::unread`]) until it
    /// can.
    feed: Feed,
    commit: CommitModel,
    arbiter: SmtArbiter,
    handler: HandlerExec,
    state: MetadataState,
    /// Boxed so that `step`'s per-cycle `take` and put-back move a
    /// pointer, not the whole accelerator (over 1 KiB).
    fade: Option<Box<Fade>>,
    sw_queue: BoundedQueue<AppEvent>,
    cur_token: Option<u64>,

    // Batched execution mode (`run_batched`).
    /// `step` skips the application side (drain: the producer is
    /// paused, the monitor side gets the whole core).
    producer_paused: bool,
    /// Hard cap on retired instructions (exact-stop cycle execution).
    instr_cap: Option<u64>,
    /// Sampled monitoring-overhead windows feeding the timing
    /// extrapolation: each entry is `(events, measured cycles −
    /// unimpeded commit cycles)` for one cycle-accurate window.
    /// Overhead scales with monitored events (handler and stall work is
    /// per event), so extrapolation is per event — per-instruction
    /// extrapolation would harmonically under-weight event-sparse
    /// regions. Windows carry the adjacent stretch's base cycles per
    /// event as a control covariate, which tightens the interval.
    estimator: RatioEstimator,
    /// Index into `estimator` windows at `start_measure`.
    measure_from: usize,
    /// Base cycles of the batched stretch since the last sampling
    /// window — the control covariate's numerator for the next window.
    stretch_base_cycles: u64,
    /// Events of the batched stretch since the last sampling window.
    stretch_events: u64,
    /// Congestion summary carried from each batched stretch into the
    /// next sampling window: the handler-work backlog the stretch's
    /// dispatch stream would have left in the bounded queues. Seeded
    /// into the monitor thread at window entry so windows measure
    /// queueing under the congestion the batched path built up instead
    /// of restarting from drained queues (which truncates long
    /// congestion episodes and biases monitor-bound estimates low).
    congestion: CongestionCarry,
    /// Running total of *estimated* handler cycles (`ceil(cost /
    /// standalone IPC)`) for every event the cycle engine's consumer
    /// starts. Sampled windows subtract the same quantity the batched
    /// base charges, so the residual calibrates out the difference
    /// between estimated and real handler throughput (SMT sharing).
    handler_est_cycles: u64,
    /// Accumulated fast-path statistics of every `run_batch` call.
    batch_stats: BatchStats,
    /// Staging buffer for batch chunks (reused across segments).
    batch_buf: Vec<AppEvent>,
    /// Deferred invariant-register writes of dispatched thread
    /// switches (applied once the accelerator is reachable again).
    inv_buf: Vec<(InvId, u64)>,
    /// Record, event and cycle counters since construction.
    counts: Counts,

    // Measurement window.
    /// `counts` at `start_measure` (zero until then: the whole run).
    measure_start: Counts,
    /// Gates the window's histograms and handler-class/utilization
    /// breakdowns, which are reset rather than snapshotted.
    measuring: bool,
    class_instrs: ClassInstrs,
    occupancy: LogHistogram,
    distances: LogHistogram,
    bursts: LogHistogram,
    util: UtilBreakdown,
    fade_snapshot: Option<FadeStats>,

    // Unfiltered distance/burst trackers (run continuously).
    since_uf: u64,
    cur_burst: u64,
    /// The app thread was backpressured last cycle: it occupies no
    /// issue slots this cycle (an SMT thread stalled on a full queue
    /// does not compete for bandwidth).
    last_blocked: bool,

    // The session around the engine.
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
        &self.cfg
    }

    /// Runs the given closure on the engine behind the session's panic
    /// guard: a panic anywhere inside (monitor callbacks included) is
    /// caught at this boundary, converted to a sticky
    /// [`SessionRunError::MonitorPanicked`], and never unwinds past the
    /// session. After a clean return, source failures and shadow-budget
    /// violations surface as their typed errors.
    fn guard(&mut self, f: impl FnOnce(&mut Session)) -> Result<(), SessionRunError> {
        if let Some(p) = &self.poisoned {
            return Err(p.clone());
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(self))) {
            let err = SessionRunError::MonitorPanicked {
                monitor: self.monitor.name().to_string(),
                payload: panic_message(payload.as_ref()),
            };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        if let Some(e) = self.feed.failure() {
            return Err(SessionRunError::Source(e.clone()));
        }
        if let Some(b) = self.state.mem.budget_exceeded() {
            return Err(SessionRunError::ShadowBudget(*b));
        }
        Ok(())
    }

    /// Runs until `n` more application instructions retire, through
    /// this session's engine. Stops early — `Ok`, with
    /// [`Session::source_exhausted`] set — when a finite trace source
    /// runs out of records. The cycle engines may retire past the
    /// target by up to a commit width; on early stop the in-flight
    /// events are drained so monitor-visible state is complete for the
    /// trace that did exist.
    ///
    /// # Errors
    ///
    /// [`SessionRunError::MonitorPanicked`] if the monitor panicked
    /// (the session is poisoned from then on),
    /// [`SessionRunError::Source`] if the trace source failed
    /// mid-stream, [`SessionRunError::ShadowBudget`] if dirty shadow
    /// state exceeded the configured byte cap.
    pub fn run(&mut self, n: u64) -> Result<(), SessionRunError> {
        self.guard(|s| match s.engine {
            Engine::Cycle => s.step_until(s.counts.instrs + n, u64::MAX, false),
            Engine::Batched { .. } => s.run_batched(n),
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
        self.guard(|s| match s.engine {
            Engine::Cycle => s.step_until(s.counts.instrs + n, u64::MAX, true),
            Engine::Batched { .. } => s.run_batched(n),
        })
    }

    /// Runs the monitoring side with the application paused until
    /// nothing is in flight (queues empty, handlers completed).
    ///
    /// # Errors
    ///
    /// As for [`Session::run`].
    pub fn drain(&mut self) -> Result<(), SessionRunError> {
        self.guard(Session::quiesce)
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
        self.start_measure();
        self.run(measure)?;
        if let Engine::Batched { .. } = self.engine {
            self.drain()?;
        }
        let baseline = baseline_cycles(&self.bench, self.cfg.core, self.cfg.seed, warmup, measure);
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

    /// The one report path behind [`Session::run_measured`] and
    /// [`Session::finish`]: the measured window's statistics, the
    /// monitor's violations, and the wall clock since `start`, with
    /// report collection behind the same panic boundary as a run.
    fn finish_report(
        mut self,
        baseline: u64,
        start: Instant,
    ) -> Result<RunReport, SessionRunError> {
        if let Some(p) = self.poisoned.take() {
            return Err(p);
        }
        let degradation = self.degradation().cloned();
        match catch_unwind(AssertUnwindSafe(|| {
            let violations = self.monitor.reports();
            (self.measured_stats(baseline), violations)
        })) {
            Ok((stats, violations)) => Ok(RunReport {
                stats,
                violations,
                batch: self.batch_stats,
                degradation,
                wall_s: start.elapsed().as_secs_f64(),
            }),
            Err(payload) => Err(SessionRunError::MonitorPanicked {
                monitor: self.monitor.name().to_string(),
                payload: panic_message(payload.as_ref()),
            }),
        }
    }

    /// Starts the measurement window (counters collected from now on).
    pub fn start_measure(&mut self) {
        self.measuring = true;
        self.measure_start = self.counts;
        self.class_instrs = ClassInstrs::default();
        self.occupancy = LogHistogram::new();
        self.distances = LogHistogram::new();
        self.bursts = LogHistogram::new();
        self.util = UtilBreakdown::default();
        self.fade_snapshot = self.fade.as_ref().map(|f| *f.stats());
        self.measure_from = self.estimator.len();
        // Drop any congestion carry accrued before the window: its
        // charge lives in the unmeasured base, so seeding it into a
        // measured window would subtract from a measured base that
        // never included it.
        self.congestion.take();
    }

    /// The monitor driving this session (bug reports, etc.).
    pub fn monitor(&self) -> &dyn Monitor {
        self.monitor.as_ref()
    }

    /// The current metadata state.
    pub fn state(&self) -> &MetadataState {
        &self.state
    }

    /// Total cycles simulated so far (exact cycles only; see
    /// [`Session::estimated_total_cycles`] for the batched engine).
    pub fn cycles(&self) -> u64 {
        self.counts.cycles
    }

    /// Total cycles including the extrapolation for batched stretches:
    /// exact simulated cycles, plus the exact base (binding constraint
    /// of replayed app cycles and handler cycles) of batched stretches,
    /// plus the sampled per-event residual overhead. Equals
    /// [`Session::cycles`] when only the cycle engine ran.
    pub fn estimated_total_cycles(&self) -> u64 {
        self.counts.sampled_estimate(&self.estimator).0
    }

    /// Relative half-width of the 95% CI on
    /// [`Session::estimated_total_cycles`] — the production rate's
    /// error bound (`None` with fewer than two sampled windows). Only
    /// the sampled residual is uncertain; the simulated cycles and the
    /// deterministic base of batched stretches are exact. The interval
    /// on the residual (control-variate-adjusted ratio estimator,
    /// Student-t) is therefore an *absolute* cycle band,
    /// and the relative width divides it by the full cycle estimate —
    /// the same integer bounds [`crate::SamplingSummary::rel_half_width`]
    /// is computed from.
    pub fn rel_half_width(&self) -> Option<f64> {
        self.counts.sampled_estimate(&self.estimator).3
    }

    /// Total application instructions retired so far.
    pub fn instrs(&self) -> u64 {
        self.counts.instrs
    }

    /// Monitored events accepted so far (instruction, stack and
    /// high-level events, across both execution engines).
    pub fn events_seen(&self) -> u64 {
        self.counts.events()
    }

    /// Accumulated fast-path statistics of batched stretches (all
    /// counters zero if only the cycle engine ran).
    pub fn batch_stats(&self) -> BatchStats {
        self.batch_stats
    }

    /// Accelerator statistics (`None` for unaccelerated sessions).
    pub fn fade_stats(&self) -> Option<FadeStats> {
        self.fade.as_ref().map(|f| *f.stats())
    }

    /// The residual-overhead windows batched execution sampled so far:
    /// per window, the measured cycles minus the unimpeded commit-model
    /// cycles for the same instructions and minus the handler-execution
    /// cycles — what is left is queueing, SMT interference and
    /// accelerator stalls. Each carries its control covariate (empty
    /// for cycle-accurate sessions).
    pub fn sampled_windows(&self) -> &[WindowSample] {
        self.estimator.samples()
    }

    /// Carried-congestion handler cycles seeded into sampling windows
    /// so far — how much batch-stretch backlog the windows started
    /// under instead of starting from drained queues (0 for
    /// cycle-accurate sessions, or when nothing ever congested).
    pub fn carried_seed_cycles(&self) -> u64 {
        self.counts.seeded_cycles
    }

    /// `true` once the trace source ran out of records: the last run
    /// call stopped early with the trace fully consumed (an `Ok`
    /// outcome — replaying a shorter-than-requested trace is not an
    /// error).
    pub fn source_exhausted(&self) -> bool {
        self.feed.exhausted()
    }

    /// The degradation accounting of a recovering trace-file source
    /// ([`SessionBuilder::recover_faults`]): chunks skipped, records
    /// lost, byte offsets. `None` for non-recovering sources; a clean
    /// report ([`DegradationReport::is_clean`]) on fault-free files.
    pub fn degradation(&self) -> Option<&DegradationReport> {
        self.feed.degradation()
    }

    /// Residency statistics of the session's shadow memory.
    pub fn shadow_counters(&self) -> ShadowCounters {
        self.state.mem.counters()
    }

    /// The session's *live* shadow-memory footprint, delegating to
    /// [`fade_shadow::ShadowMemory`]: the bytes held in full page
    /// frames and the number of those frames. This is the instantaneous
    /// quantity a multi-tenant server admits/meters tenants on, as
    /// opposed to the historical high-water mark in
    /// [`ShadowCounters::peak_full_pages`]: at any instant
    /// `full_pages <= peak_full_pages`.
    pub fn shadow_bytes_in_use(&self) -> ShadowUsage {
        let mem = &self.state.mem;
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
    /// Resident shadow bytes: `full_pages` frames of
    /// [`SHADOW_PAGE_SIZE`](fade_shadow::memory::SHADOW_PAGE_SIZE).
    pub bytes: usize,
    /// Pages currently resident as full frames.
    pub full_pages: usize,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("bench", &self.bench.name)
            .field("monitor", &self.monitor.name())
            .field("engine", &self.engine)
            .field("instrs", &self.counts.instrs)
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

// ---- The engine: the session's private cycle-level and batched stepping. ----

/// Gap (in filterable events) that separates unfiltered bursts
/// (Section 3.4 defines a burst as unfiltered events separated by at
/// most 16 filterable events).
const BURST_GAP: u64 = 16;

/// Default events handed to [`Fade::run_batch_with`] per call in
/// batched mode when no sampling window is configured. With sampling,
/// chunks match the recorded window interior instead, so the exact
/// base term (`max` of app and handler cycles, a concave aggregate) is
/// evaluated at the same granularity the residual was calibrated at.
/// Chunks are also cut at thread switches and sampling boundaries.
const BATCH_CHUNK: u64 = 1024;

/// Minimum events in a sampling window's steady-state tail for the
/// tail (rather than the whole window) to be recorded as the residual
/// sample on monitor-bound windows — below this, per-window boundary
/// effects don't amortize and the tail over-samples peak congestion.
const MIN_TAIL_EVENTS: u64 = 1024;

/// The engine's monotone counters since construction. The measured
/// window reports each one as "now minus the snapshot taken at
/// [`Session::start_measure`]".
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    /// Application instructions retired (both engines).
    instrs: u64,
    /// Cycles simulated exactly by the cycle engine (`step`).
    cycles: u64,
    /// Monitored instruction events accepted.
    instr_events: u64,
    /// Stack-update events accepted.
    stack_events: u64,
    /// High-level events accepted.
    high_events: u64,
    /// Instructions retired on the batched path.
    batch_instrs: u64,
    /// Monitored events drained on the batched path.
    batch_events: u64,
    /// Exact base cycles of batched stretches: per chunk, `max(app
    /// cycles, handler cycles)` — the app side fast-forwarded through
    /// the *real* commit process unimpeded (so the whole run consumes
    /// one continuous run/stall realization and the dominant phase
    /// noise stays exact), the handler side charged at the monitor
    /// thread's standalone IPC (handler work is too bursty to sample).
    /// The max models the binding constraint: an app-bound stretch
    /// hides handler work and a monitor-bound stretch hides the app;
    /// the sampled residual captures imperfect overlap, queueing and
    /// stalls.
    batch_base_cycles: u64,
    /// Estimated handler cycles of carried congestion seeded into
    /// sampling windows.
    seeded_cycles: u64,
}

impl Counts {
    /// Monitored events accepted (instruction, stack and high-level):
    /// the clock the sampling schedule is phased against.
    fn events(&self) -> u64 {
        self.instr_events + self.stack_events + self.high_events
    }

    /// Counts one accepted event by kind.
    fn note_event(&mut self, ev: &AppEvent) {
        match ev {
            AppEvent::Instr(_) => self.instr_events += 1,
            AppEvent::StackUpdate(_) => self.stack_events += 1,
            AppEvent::HighLevel(_) => self.high_events += 1,
        }
    }

    /// Per-field difference `self - then`.
    fn since(&self, then: &Counts) -> Counts {
        Counts {
            instrs: self.instrs - then.instrs,
            cycles: self.cycles - then.cycles,
            instr_events: self.instr_events - then.instr_events,
            stack_events: self.stack_events - then.stack_events,
            high_events: self.high_events - then.high_events,
            batch_instrs: self.batch_instrs - then.batch_instrs,
            batch_events: self.batch_events - then.batch_events,
            // Never saturates: a seed is at most the handler work
            // dispatched since the previous one, which is already in
            // the base, and `start_measure` drops any earlier carry.
            batch_base_cycles: self.batch_base_cycles - then.batch_base_cycles,
            seeded_cycles: self.seeded_cycles - then.seeded_cycles,
        }
    }

    /// The sampled cycle estimate of the span these counts cover, with
    /// `est` holding its sampling windows: exactly simulated cycles,
    /// plus the exact base of the batched stretches, plus the sampled
    /// residual extrapolated onto the batched events. The residual is
    /// extrapolated at the population mean of the window control
    /// covariate — total base cycles per batched event; each window
    /// records its preceding stretch's base per event, so the two means
    /// nearly coincide and the estimator's regression adjustment closes
    /// the gap.
    ///
    /// Returns `(total, lo, hi, rel_half_width)`. Only the residual is
    /// uncertain, so `lo..hi` is its 95% band around the exact cycles,
    /// and the production-rate bound `rel_half_width` is that band's
    /// half-width relative to the whole estimate (`None` without an
    /// interval or with a zero total).
    fn sampled_estimate(&self, est: &RatioEstimator) -> (u64, u64, u64, Option<f64>) {
        let pop_mean = if self.batch_events > 0 {
            self.batch_base_cycles as f64 / self.batch_events as f64
        } else {
            0.0
        };
        let e = est.estimate_with_covariate_mean(self.batch_events, pop_mean);
        let base = self.batch_base_cycles as f64;
        let extra = |residual: f64| (base + residual).max(0.0).round() as u64;
        let total = self.cycles + extra(e.cycles);
        let (lo, hi) = (self.cycles + extra(e.lo()), self.cycles + extra(e.hi()));
        let rel = e
            .ci
            .filter(|_| total > 0)
            .map(|_| (hi - lo) as f64 / 2.0 / total as f64);
        (total, lo, hi, rel)
    }
}

impl Session {
    /// `true` when nothing is in flight anywhere: accelerator (or
    /// software queue) empty and the monitor-thread handler idle.
    fn quiesced(&self) -> bool {
        !self.handler.busy()
            && match &self.fade {
                Some(f) => f.quiesced(),
                None => self.sw_queue.is_empty(),
            }
    }

    /// Batched execution: retires exactly `n` more application
    /// instructions, draining monitored events through
    /// [`Fade::run_batch`] and periodically dropping back to the
    /// cycle-accurate engine to sample timing.
    ///
    /// Each sampling period of `cfg.sample_period` monitored events
    /// runs its first `sample_period - sample_window` events through
    /// the batched fast path and its last `sample_window` events
    /// through [`Session::step`]. Each window enters carrying
    /// the congestion of the preceding batch stretch — the monitor
    /// thread is seeded with the handler backlog the stretch's dispatch
    /// stream implies ([`CongestionCarry`]), and on monitor-bound
    /// windows the residual is recorded over the window's tail only,
    /// with the front half re-establishing steady-state queue pressure
    /// — so long congestion episodes survive sampling instead of being
    /// truncated by a drained-queue restart. The measured window
    /// (including its trailing queue drain) feeds a [`RatioEstimator`],
    /// and batched stretches are charged the sampled CPI in
    /// [`Session::estimated_total_cycles`] and
    /// [`Session::measured_stats`].
    ///
    /// Monitor-visible results — final [`MetadataState`], violation
    /// reports, and the accelerator's functional event counters — are
    /// bit-exact with cycle-accurate execution for every sampling
    /// period, because both engines filter, update and dispatch in
    /// program order (the differential test harness enforces this).
    /// Only cycle counts and the occupancy/distance/burst histograms
    /// (recorded in sampled windows only) are approximate.
    ///
    /// `sample_period <= sample_window` (e.g. the K=1 degenerate case)
    /// runs fully cycle-accurately; a period larger than the trace
    /// never reaches a sampling window and runs fully batched.
    /// Unaccelerated systems have no hardware fast path and always run
    /// cycle-accurately.
    ///
    /// Calls compose: `run_batched(a)` then `run_batched(b)` consumes
    /// the same trace prefix, with the same monitor-visible results, as
    /// `run_batched(a + b)` — the sampling schedule is phased against
    /// the global event count, not the call boundary.
    fn run_batched(&mut self, n: u64) {
        let target = self.counts.instrs + n;
        let period = self.cfg.sample_period.max(1);
        let window = self.cfg.sample_window.min(period);
        if self.fade.is_none() || window >= period {
            // No batched fast path to take: pure cycle-accurate
            // execution with the exact-stop discipline.
            self.step_until(target, u64::MAX, true);
            return;
        }
        let batch_len = period - window;
        while self.counts.instrs < target {
            if self.feed.ran_out() {
                self.quiesce();
                return;
            }
            let pos = self.counts.events() % period;
            if pos < batch_len {
                if !self.quiesced() {
                    self.quiesce();
                }
                self.run_batch_segment(target, batch_len - pos);
            } else {
                // Sampled window: cycle-accurate to the period end,
                // then drain so the batched path resumes bit-exactly.
                // The window runs whole — from the carried-congestion
                // seed at entry to the drain's last cycle — a
                // self-contained unit whose every event's work is paid
                // inside it. The recorded quantity is its *residual*
                // overhead: measured cycles minus an unimpeded replay
                // of the commit process (exact application phases) and
                // minus estimated handler-execution cycles (exact
                // bursty work), whichever of the two binds.
                let window_events = period - pos;
                let window_end = self.counts.events() + window_events;
                let events0 = self.counts.events();
                let instrs0 = self.counts.instrs;
                let cycles0 = self.counts.cycles;
                let handler0 = self.handler_est_cycles;
                // Captured before seeding: the seed's estimated cycles
                // join the window's handler term, offsetting the
                // seeded work's simulated cycles in the residual. The
                // preceding stretch's deterministic base cycles per
                // event become the window's control covariate (the
                // estimator regresses the residual on it and
                // extrapolates at the population covariate mean — see
                // `RatioEstimator::estimate_with_covariate_mean`).
                let cov = if self.stretch_events > 0 {
                    self.stretch_base_cycles as f64 / self.stretch_events as f64
                } else {
                    0.0
                };
                self.stretch_base_cycles = 0;
                self.stretch_events = 0;
                self.seed_congestion(window_events);
                // Congestion warmup: the first half of the window
                // rebuilds the queue state the batched stretch skipped
                // (the carried seed starts it congested; the warmup
                // runs it to steady state under real dynamics). It is
                // simulated — and charged — exactly like the rest of
                // the window; only the *recorded* residual is restricted
                // to the tail, so extrapolating it onto batched
                // stretches no longer mixes in the drained-queue
                // transient that biased monitor-bound estimates low.
                let warm_end = events0 + window_events / 2;
                let mut baseline_commit = self.commit.clone();
                self.step_until(target, warm_end, true);
                if self.counts.events() < warm_end {
                    continue; // instruction target hit mid-warmup
                }
                let events1 = self.counts.events();
                let instrs1 = self.counts.instrs;
                let cycles1 = self.counts.cycles;
                let handler1 = self.handler_est_cycles;
                // Advance the unimpeded replay through the warmup so
                // the tail's application-side term continues the same
                // run/stall realization.
                let ff_warm = baseline_commit.fast_forward(instrs1 - instrs0, true).0;
                self.step_until(target, window_end, true);
                if self.counts.events() >= window_end && self.counts.events() > events1 {
                    // Steady-state snapshot before the trailing drain:
                    // the drain pays the end-of-window backlog down at
                    // full-core rate, a fixed cost that would swamp a
                    // short tail's per-event residual. Its cycles stay
                    // exact (simulated, in the total) either way.
                    let cycles_pre = self.counts.cycles;
                    let handler_pre = self.handler_est_cycles;
                    self.quiesce();
                    let di = self.counts.instrs - instrs1;
                    let dc_tail = (cycles_pre - cycles1) as f64;
                    let dh_tail = (handler_pre - handler1) as f64;
                    let ff_tail = baseline_commit.fast_forward(di, true).0 as f64;
                    let dc_whole = (self.counts.cycles - cycles0) as f64;
                    let dh_whole = (self.handler_est_cycles - handler0) as f64;
                    let ff_whole = ff_warm as f64 + ff_tail;
                    // Which side bound the whole window decides what to
                    // record. Monitor-bound (handler work over commit
                    // time): the residual is queueing, and the warmup
                    // half still carries the drained-queue startup
                    // transient — record the steady-state tail only,
                    // pre-drain. App-bound: the transient is negligible
                    // and the whole window (with its cheap drain) keeps
                    // the replay pairing tight — tail-only splits lose
                    // the synced start and turn phase noise into bias.
                    // Short tails also record whole: the fixed
                    // boundary effects (inherited backlog pay-down,
                    // episode edges) don't amortize over a few hundred
                    // events and would over-sample peak congestion.
                    let tail_events = self.counts.events() - events1;
                    let (ev_rec, resid) = if dh_whole > ff_whole
                        && Self::congestion_window_ok(window_events)
                    {
                        (tail_events, dc_tail - ff_tail.max(dh_tail))
                    } else {
                        (self.counts.events() - events0, dc_whole - ff_whole.max(dh_whole))
                    };
                    self.estimator.record_window(ev_rec, resid, cov);
                }
            }
        }
    }

    /// Whether a sampling window of `window_events` events engages the
    /// congestion-carrying machinery: its planned steady-state tail
    /// (what remains after the `window_events / 2` warmup) must hold
    /// at least [`MIN_TAIL_EVENTS`]. The seed gate and the
    /// tail-record gate both use this predicate — they only work as a
    /// pair, so they must never disagree on a window.
    fn congestion_window_ok(window_events: u64) -> bool {
        window_events - window_events / 2 >= MIN_TAIL_EVENTS
    }

    /// Seeds the sampling window the engine is about to enter with the
    /// congestion the preceding batch stretch carried: the monitor
    /// thread starts the window busy with the handler backlog the
    /// stretch's dispatch stream would have left in flight, so the
    /// window's own events immediately contend for the queues and the
    /// core — the way they would mid-episode in a cycle-accurate run —
    /// instead of filling drained queues congestion-free.
    ///
    /// Pure timing: the seeded work is handler work of *already
    /// dispatched and applied* events (its functional effects landed at
    /// filter time, like any popped unfiltered event's), so no
    /// monitor-visible result can change. Its cycles were charged to
    /// the stretch's exact base (`max(app, handler)`); the charge moves
    /// with the work, and the seed's estimated cycles join
    /// `handler_est_cycles` so the window residual stays the *excess*
    /// over the base model — now measured under backpressure.
    ///
    /// The seed and the tail-recorded residual work as a pair (the
    /// seed jump-starts congestion, the warmup half carries it to
    /// steady state, the tail samples it); a window too short to
    /// tail-record gets no seed either — repeated seeding into short
    /// whole-recorded windows just piles fixed boundary costs onto too
    /// few events and flips the bias high.
    fn seed_congestion(&mut self, window_events: u64) {
        if !Self::congestion_window_ok(window_events) {
            // The carry still describes only the stretch that just
            // ended: drop it rather than letting it go stale.
            self.congestion.take();
            return;
        }
        if !self.quiesced() {
            // Mid-window resume (composition): the previous entry
            // consumed the carry already.
            return;
        }
        let seed = self.congestion.take();
        if seed == 0 {
            return;
        }
        let cost = ((seed as f64) * handler_ipc(self.cfg.core)).round().max(1.0) as u32;
        self.handler.start(cost);
        let est = handler_cycle_est(self.cfg.core, cost);
        self.handler_est_cycles += est;
        self.counts.batch_base_cycles = self.counts.batch_base_cycles.saturating_sub(seed);
        self.counts.seeded_cycles += est;
    }

    /// The unguarded body of [`Session::drain`]: steps the monitoring
    /// side with the application paused until nothing is in flight.
    /// Idempotent; a no-op when already quiesced.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to quiesce (a simulator bug).
    fn quiesce(&mut self) {
        self.producer_paused = true;
        let mut guard = 0u64;
        while !self.quiesced() {
            self.step();
            guard += 1;
            assert!(guard < 10_000_000, "drain failed to quiesce");
        }
        self.producer_paused = false;
        // The queues are empty now; a backpressured record re-enters
        // through the normal paths.
        self.last_blocked = false;
    }

    /// Steps the system until `instr_target` instructions have retired
    /// or `event_target` monitored events have been accepted, whichever
    /// comes first. `exact` caps the last cycle's retirement so the run
    /// never overshoots `instr_target`; otherwise it may retire past it
    /// by up to a commit width. If the trace source runs out of records
    /// first, the in-flight events are drained before returning.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to make forward progress with
    /// records still available (a deadlock would be a simulator bug).
    fn step_until(&mut self, instr_target: u64, event_target: u64, exact: bool) {
        if self.counts.instrs >= instr_target {
            return;
        }
        self.instr_cap = exact.then_some(instr_target);
        // Saturating: callers may pass "effectively unbounded" targets
        // (run-to-exhaustion), which must not overflow the cap math.
        let cycle_cap = (instr_target - self.counts.instrs)
            .saturating_mul(400)
            .saturating_add(self.counts.cycles + 200_000);
        let mut ran_out = false;
        while self.counts.instrs < instr_target && self.counts.events() < event_target {
            if self.feed.ran_out() {
                ran_out = true;
                break;
            }
            self.step();
            assert!(
                self.counts.cycles < cycle_cap,
                "no forward progress: {} instrs after {} cycles",
                self.counts.instrs,
                self.counts.cycles
            );
        }
        self.instr_cap = None;
        if ran_out {
            self.quiesce();
        }
    }

    /// One batched stretch: pulls trace records and drains up to
    /// `event_budget` monitored events through the accelerator's
    /// batched fast path, stopping early at `instr_target`. The
    /// accelerator must be quiesced on entry.
    fn run_batch_segment(&mut self, instr_target: u64, event_budget: u64) {
        // Chunk at the granularity the residual estimator samples at
        // (one full window), so the concave base aggregate is
        // consistent between exact and sampled stretches.
        let window = self.cfg.sample_window.min(self.cfg.sample_period.max(1));
        let chunk_cap = if window > 0 { window } else { BATCH_CHUNK };
        let mut budget = event_budget;
        while budget > 0 && self.counts.instrs < instr_target && !self.feed.ran_out() {
            // ---- Collect one chunk of monitored events. ----
            let mut chunk = std::mem::take(&mut self.batch_buf);
            chunk.clear();
            let cap = budget.min(chunk_cap);
            let instrs0 = self.counts.instrs;
            // Records are read in place (no per-record copy out of the
            // feed's buffer), and only as far as the chunk takes them,
            // so chunk and target cuts leave the rest for the next
            // consumer. The end of the trace cuts the chunk; the outer
            // loops see the feed run out.
            while (chunk.len() as u64) < cap && self.counts.instrs < instr_target {
                let Some(rec) = self.feed.next() else {
                    break;
                };
                if let TraceRecord::Instr(_) = rec {
                    self.counts.instrs += 1;
                }
                let selected = select_event(self.monitor.as_ref(), self.monitors_stack, rec);
                if let Some(ev) = selected {
                    chunk.push(ev);
                    self.counts.note_event(&ev);
                    if let AppEvent::HighLevel(HighLevelEvent::ThreadSwitch { .. }) = ev {
                        // Cut the chunk so the monitor's
                        // invariant-register updates land before the
                        // next event is filtered — same order as the
                        // cycle engine's dispatch path.
                        break;
                    }
                }
            }
            let chunk_instrs = self.counts.instrs - instrs0;
            let chunk_events = chunk.len() as u64;
            budget -= chunk_events;
            self.counts.batch_instrs += chunk_instrs;
            self.counts.batch_events += chunk_events;
            // Fast-forward the commit process over the stretch so the
            // run consumes one continuous run/stall realization: this
            // is the stretch's exact application-side cycle cost.
            let ff = self.commit.fast_forward(chunk_instrs, true).0;

            // ---- Drain the chunk through the accelerator. ----
            let mut handler_cycles = 0u64;
            if !chunk.is_empty() {
                let mut fade = self.fade.take().expect("batched segments require FADE");
                let monitor = &mut self.monitor;
                let class_instrs = &mut self.class_instrs;
                let inv_buf = &mut self.inv_buf;
                let congestion = &mut self.congestion;
                let measuring = self.measuring;
                let ideal = self.cfg.ideal_consumer;
                let core = self.cfg.core;
                let bs = fade.run_batch_with(&chunk, &mut self.state, |uf, st| {
                    apply_unfiltered(monitor.as_mut(), &uf, st, inv_buf);
                    // Same handler-cost attribution as the cycle
                    // engine's consumer, at the monitor thread's
                    // standalone rate (the steady state of a loaded
                    // system; deviations are absorbed by the sampled
                    // residual).
                    let cost = dispatch_cost(
                        monitor.as_ref(),
                        &uf,
                        ideal,
                        measuring.then_some(&mut *class_instrs),
                    );
                    let est = handler_cycle_est(core, cost);
                    handler_cycles += est;
                    congestion.on_dispatch(est);
                });
                for (id, v) in self.inv_buf.drain(..) {
                    fade.write_invariant(id, v);
                }
                self.fade = Some(fade);
                self.batch_stats.merge(&bs);
            }
            let base = ff.max(handler_cycles);
            self.counts.batch_base_cycles += base;
            self.stretch_base_cycles += base;
            self.congestion.on_stretch(handler_cycles, ff);
            self.stretch_events += chunk_events;
            self.batch_buf = chunk;
        }
    }

    /// Advances the system one cycle, or through one whole idle stall.
    ///
    /// When the application thread sits inside a commit stall with an
    /// empty window, nothing is in flight on the monitoring side and
    /// neither a drain nor a blocked enqueue is pending, no cycle of the
    /// stall can do anything but count it down. Such a step advances
    /// all but the stall's last cycle at once, charging every skipped
    /// cycle exactly as a single step would; the last cycle, which draws
    /// the next run, is the next step.
    fn step(&mut self) {
        if self.skip_idle_stall() {
            return;
        }
        self.counts.cycles += 1;
        let monitor_busy_at_start = self.handler.busy();
        let width = self.cfg.core.width();
        let mut blocked = false;

        // ---- Application thread: commit and enqueue. ----
        let monitor_slots = if self.producer_paused {
            // Draining: the application thread is frozen mid-trace and
            // the monitor side gets the whole core.
            width
        } else {
            self.commit.tick();
            let want = self.commit.retirable();
            let smt_want = if self.last_blocked { 0 } else { want };
            let (mut app_slots, monitor_slots) = match self.cfg.topology {
                Topology::TwoCore => (want, width),
                Topology::SingleCoreDualThread => {
                    self.arbiter
                        .arbitrate(width, smt_want, monitor_busy_at_start)
                }
            };
            if self.last_blocked {
                // Retry the blocked enqueue without consuming issue slots.
                app_slots = app_slots.max(1);
            }
            if let Some(cap) = self.instr_cap {
                // Exact-stop execution: never retire past the cap.
                let left = cap.saturating_sub(self.counts.instrs);
                app_slots = app_slots.min(left.min(u32::MAX as u64) as u32);
            }
            let mut retired = 0u32;
            while retired < app_slots {
                // Out of records: the application side idles from here
                // on; the run loops stop once the monitoring side
                // quiesces.
                let Some(&rec) = self.feed.next() else {
                    break;
                };
                if let Some(ev) = select_event(self.monitor.as_ref(), self.monitors_stack, &rec) {
                    if self.try_enqueue(ev).is_err() {
                        // Backpressure: leave the record unconsumed for
                        // the next retirement attempt.
                        self.feed.unread();
                        blocked = true;
                        break;
                    }
                    self.counts.note_event(&ev);
                }
                if let TraceRecord::Instr(_) = rec {
                    retired += 1;
                    self.counts.instrs += 1;
                }
            }
            self.commit.retire(retired);
            self.last_blocked = blocked;
            monitor_slots
        };

        // ---- Monitoring side. ----
        match self.fade.take() {
            Some(mut fade) => {
                let filtered_before = fade.stats().filtered;
                let tick = fade.tick(&mut self.state);
                if fade.stats().filtered > filtered_before {
                    self.since_uf += 1;
                }
                if let Some(uf) = tick.dispatched {
                    self.on_dispatch(&mut fade, uf);
                }
                // Monitor core consumes the unfiltered queue.
                if !self.handler.busy() {
                    if let Some(uf) = fade.pop_unfiltered() {
                        let cost = dispatch_cost(
                            self.monitor.as_ref(),
                            &uf,
                            self.cfg.ideal_consumer,
                            self.measuring.then_some(&mut self.class_instrs),
                        );
                        self.handler_est_cycles += handler_cycle_est(self.cfg.core, cost);
                        self.handler.start(cost);
                        self.cur_token = Some(uf.token);
                    }
                }
                if self.handler.busy() && self.handler.tick_slots(monitor_slots) {
                    if let Some(t) = self.cur_token.take() {
                        fade.handler_completed(t);
                    }
                }
                if self.measuring {
                    self.occupancy.record(fade.event_queue_len() as u64);
                }
                self.fade = Some(fade);
            }
            None => {
                // Unaccelerated: the monitor thread handles every event.
                if !self.handler.busy() {
                    if let Some(ev) = self.sw_queue.pop() {
                        let cost = self.software_handle(ev).max(1);
                        self.handler.start(cost);
                    }
                }
                if self.handler.busy() {
                    self.handler.tick_slots(monitor_slots);
                }
                if self.measuring {
                    self.occupancy.record(self.sw_queue.len() as u64);
                }
            }
        }

        // ---- Utilization classification (Figure 11(b)). ----
        if self.measuring {
            let monitor_busy = self.handler.busy();
            if monitor_busy && blocked {
                self.util.app_idle += 1;
            } else if !monitor_busy {
                self.util.monitor_idle += 1;
            } else {
                self.util.both += 1;
            }
        }
    }

    /// The idle-stall branch of [`Session::step`]: advances
    /// through all but the last cycle of an idle commit stall when the
    /// monitoring side is quiesced, charging the skipped cycles in bulk
    /// — cycle count, accelerator idle cycles, and in a measured window
    /// one empty-queue occupancy sample and one monitor-idle cycle each.
    /// Returns `false`, changing nothing, when the step must run cycle
    /// by cycle. A drain never skips: its producer is paused.
    fn skip_idle_stall(&mut self) -> bool {
        if self.producer_paused || self.last_blocked || !self.quiesced() {
            return false;
        }
        let k = self.commit.skip_idle_stall();
        if k == 0 {
            return false;
        }
        self.counts.cycles += k;
        if let Some(fade) = &mut self.fade {
            fade.skip_idle(k);
        }
        if self.cfg.topology == Topology::SingleCoreDualThread {
            // What every skipped cycle's arbitration does: the app wants
            // nothing and the monitor is idle.
            self.arbiter.arbitrate(self.cfg.core.width(), 0, false);
        }
        if self.measuring {
            self.occupancy.record_n(0, k);
            self.util.monitor_idle += k;
        }
        true
    }

    /// Attempts to hand one event to the monitoring side; a full queue
    /// hands the event back (backpressure, like [`BoundedQueue::push`]).
    fn try_enqueue(&mut self, ev: AppEvent) -> Result<(), AppEvent> {
        match &mut self.fade {
            Some(f) => f.enqueue(ev),
            None => self.sw_queue.push(ev),
        }
    }

    /// Handles a dispatch from the accelerator: functional handler
    /// effects apply now (program order); the monitor core pays the
    /// execution time when it pops the queue.
    fn on_dispatch(&mut self, fade: &mut Fade, uf: UnfilteredEvent) {
        apply_unfiltered(self.monitor.as_mut(), &uf, &mut self.state, &mut self.inv_buf);
        for (id, v) in self.inv_buf.drain(..) {
            fade.write_invariant(id, v);
        }
        // Distance/burst statistics track events needing the *complex*
        // handler; partial hits behave like filtered events for the
        // burstiness analysis of Section 3.4.
        if let AppEvent::Instr(_) = uf.event {
            if uf.partial_hit {
                self.since_uf += 1;
            } else {
                self.note_unfiltered();
            }
        }
    }

    /// Distance/burst accounting for one unfiltered instruction event.
    fn note_unfiltered(&mut self) {
        if self.measuring {
            self.distances.record(self.since_uf);
        }
        if self.cur_burst > 0 && self.since_uf <= BURST_GAP {
            self.cur_burst += 1;
        } else {
            if self.cur_burst > 0 && self.measuring {
                self.bursts.record(self.cur_burst);
            }
            self.cur_burst = 1;
        }
        self.since_uf = 0;
    }

    /// Software (unaccelerated) handling of one event: classification,
    /// functional effect, cost.
    fn software_handle(&mut self, ev: AppEvent) -> u32 {
        match ev {
            AppEvent::Instr(iev) => {
                let class = self.monitor.classify(&iev, &self.state);
                self.monitor.apply_instr(&iev, &mut self.state);
                // In software there is no hardware pre-check: the
                // "partial short" path still executes the check itself
                // (costed like a clean check).
                let cost = match class {
                    EventClass::PartialShort => self.monitor.costs().cc,
                    c => self.monitor.costs().for_class(c),
                };
                if self.measuring {
                    match class {
                        EventClass::CleanCheck => self.class_instrs.cc += cost as u64,
                        EventClass::RedundantUpdate => self.class_instrs.ru += cost as u64,
                        EventClass::PartialShort => self.class_instrs.partial += cost as u64,
                        EventClass::Complex => self.class_instrs.complex += cost as u64,
                    }
                }
                if class == EventClass::Complex {
                    self.note_unfiltered();
                } else {
                    self.since_uf += 1;
                }
                cost
            }
            AppEvent::StackUpdate(s) => {
                self.monitor.apply_stack_update(&s, &mut self.state);
                let cost = self.monitor.stack_cost(&s);
                if self.measuring {
                    self.class_instrs.stack += cost as u64;
                }
                cost
            }
            AppEvent::HighLevel(h) => {
                self.monitor.apply_high_level(&h, &mut self.state);
                let cost = self.monitor.high_level_cost(&h);
                if self.measuring {
                    self.class_instrs.high_level += cost as u64;
                }
                cost
            }
        }
    }

    /// Collects the measured window into a [`RunStats`].
    ///
    /// `baseline` must come from [`baseline_cycles`] for the same
    /// benchmark, core and seed.
    ///
    /// If part of the window ran batched ([`Session::run_batched`]),
    /// `cycles` is the sampled estimate — exactly simulated cycles plus
    /// the extrapolation for batched instructions — and `sampling`
    /// reports the windows and error bound behind it.
    fn measured_stats(&self, baseline: u64) -> RunStats {
        // Close any open burst.
        let mut burst_sizes = self.bursts.clone();
        if self.cur_burst > 0 && self.measuring {
            burst_sizes.record(self.cur_burst);
        }
        let fade_delta = match (&self.fade, self.fade_snapshot) {
            (Some(f), Some(snap)) => Some(fade_stats_delta(*f.stats(), snap)),
            (Some(f), None) => Some(*f.stats()),
            _ => None,
        };
        let m = self.counts.since(&self.measure_start);
        let (cycles, sampling) = if m.batch_instrs == 0 && m.batch_events == 0 {
            (m.cycles, None)
        } else {
            // Prefer windows sampled inside the measured window; fall
            // back to all windows (e.g. warmup-only sampling).
            let measured = &self.estimator.samples()[self.measure_from.min(self.estimator.len())..];
            let est = if measured.is_empty() {
                self.estimator.clone()
            } else {
                RatioEstimator::from_samples(measured)
            };
            let (total, lo, hi, rel) = m.sampled_estimate(&est);
            (
                total,
                Some(SamplingSummary {
                    windows: est.len(),
                    sampled_instrs: m.instrs - m.batch_instrs,
                    sampled_cycles: m.cycles,
                    extrapolated_instrs: m.batch_instrs,
                    extrapolated_events: m.batch_events,
                    extrapolated_base_cycles: m.batch_base_cycles,
                    carried_seed_cycles: m.seeded_cycles,
                    residual_per_event: est.cpi(),
                    rel_half_width: rel,
                    cycles_lo: lo,
                    cycles_hi: hi,
                }),
            )
        };
        RunStats {
            benchmark: self.bench.name.to_string(),
            monitor: self.monitor.name().to_string(),
            system: self.cfg.label(),
            app_instrs: m.instrs,
            monitored_events: m.instr_events,
            stack_events: m.stack_events,
            high_level_events: m.high_events,
            cycles,
            baseline_cycles: baseline,
            sampling,
            fade: fade_delta,
            class_instrs: self.class_instrs,
            occupancy: self.occupancy.clone(),
            unfiltered_distances: self.distances.clone(),
            burst_sizes,
            util: self.util,
        }
    }
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
        for cfg in [
            SystemConfig::unaccelerated_single_core(),
            SystemConfig::unaccelerated_two_core(),
        ] {
            let e = Session::builder()
                .monitor("AddrCheck")
                .source(mcf())
                .program(program.clone())
                .config(cfg)
                .build()
                .unwrap_err();
            assert!(matches!(e, SessionError::ProgramWithoutAccel));
        }
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
    /// `ShadowCounters::peak_full_pages` is its high-water mark.
    /// Stepping a session and polling both pins the relationship: every
    /// observed instantaneous full-page count stays at or below the
    /// final peak (the peak never undershoots the running maximum we
    /// saw), and the bytes are exactly the full frames.
    #[test]
    fn shadow_usage_tracks_memory_and_respects_peak_semantics() {
        let mut s = Session::builder()
            .monitor("MemCheck")
            .source(bench::by_name("gcc").unwrap())
            .config(SystemConfig::fade_single_core())
            .build()
            .unwrap();
        let mut max_seen = 0usize;
        for _ in 0..40 {
            s.run(1_000).unwrap();
            let usage = s.shadow_bytes_in_use();
            assert_eq!(
                usage.bytes,
                s.state().mem.shadow_bytes(),
                "accessor must delegate to ShadowMemory"
            );
            assert_eq!(
                usage.bytes,
                usage.full_pages * fade_shadow::memory::SHADOW_PAGE_SIZE,
                "resident bytes are exactly the full-page frames"
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
