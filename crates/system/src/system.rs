//! The unified cycle-level monitoring-system engine.
//!
//! One engine implements all four evaluated organizations (unaccelerated
//! / FADE-enabled × single-core dual-threaded / two-core): per cycle it
//! advances the application commit process, moves monitored events into
//! the decoupling queue, runs the accelerator (if present), and executes
//! software handlers on the monitor hardware thread — with issue
//! bandwidth shared through [`SmtArbiter`] on the single-core system.

use fade::{BatchStats, Fade, FadeConfig, FadeStats, InvId, UnfilteredEvent};
use fade_isa::{instr_event_for, AppEvent, HighLevelEvent};
use fade_monitors::{EventClass, Monitor};
use fade_shadow::MetadataState;
use fade_sim::{
    congestion_stratum, BoundedQueue, CommitModel, CongestionCarry, CoreKind, HandlerExec,
    LogHistogram, Rng, SmtArbiter, StratifiedEstimator, StratumStat, WindowSample,
};
use fade_trace::{BenchProfile, SyntheticProgram, TraceRecord};

use crate::config::{Accel, SystemConfig, Topology};
use crate::run::{ClassInstrs, RunStats, SamplingSummary, UtilBreakdown};

/// Gap (in filterable events) that separates unfiltered bursts
/// (Section 3.4 defines a burst as unfiltered events separated by at
/// most 16 filterable events).
const BURST_GAP: u64 = 16;

/// Trace records pulled from the generator per refill: the commit loop
/// consumes them one at a time, but generating them in slices keeps the
/// generator's dispatch out of the per-cycle path.
const RECORD_BATCH: usize = 64;

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


/// Why a [`TraceSource`] stopped delivering records mid-run.
///
/// Exhaustion is *not* an error — a source signals it by appending
/// fewer records than asked (see [`TraceSource::next_records_into`]).
/// A `SourceError` means the source failed: the bytes behind it went
/// bad in a way even a recovering reader could not resynchronize past.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceError {
    /// A recorded `.fadet` stream failed with a typed decode or I/O
    /// error (see [`fade_trace::TraceFileError`]).
    Trace(fade_trace::TraceFileError),
    /// Any other source-specific failure.
    Other(String),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Trace(e) => write!(f, "trace source failed: {e}"),
            SourceError::Other(msg) => write!(f, "trace source failed: {msg}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<fade_trace::TraceFileError> for SourceError {
    fn from(e: fade_trace::TraceFileError) -> Self {
        SourceError::Trace(e)
    }
}

/// Where a [`crate::Session`] gets its trace records.
///
/// The engine pulls records in batches; a source appends up to `n`
/// records per call. Implementations exist for on-the-fly synthetic
/// generation ([`SyntheticProgram`]), pre-generated buffers
/// ([`ReplayBuffer`]), and recorded `.fadet` trace files
/// ([`fade_trace::TraceReader`]) — so any future real workload is just
/// "a file we replay" through the same engine.
///
/// Sources are `Send` so whole sessions can move to worker threads
/// (the parallel experiment driver shards an experiment matrix across
/// cores; each session owns its source exclusively).
pub trait TraceSource: Send {
    /// Appends up to `n` records to `buf`, returning how many were
    /// appended.
    ///
    /// # Errors
    ///
    /// `Ok(0)` (for `n > 0`) means the source is cleanly exhausted:
    /// the engine stops pulling and the run ends early with whatever
    /// trace existed. `Err` means the source failed mid-stream; the
    /// engine also stops pulling and the session's run call returns
    /// [`crate::SessionRunError::Source`].
    fn next_records_into(
        &mut self,
        buf: &mut Vec<TraceRecord>,
        n: usize,
    ) -> Result<usize, SourceError>;

    /// The degradation accounting of a fault-tolerant source (a
    /// recovering [`fade_trace::TraceReader`]); `None` for sources
    /// that cannot degrade.
    fn degradation(&self) -> Option<&fade_trace::DegradationReport> {
        None
    }
}

impl TraceSource for SyntheticProgram {
    fn next_records_into(
        &mut self,
        buf: &mut Vec<TraceRecord>,
        n: usize,
    ) -> Result<usize, SourceError> {
        SyntheticProgram::next_records_into(self, buf, n);
        Ok(n)
    }
}

/// Replay of a pre-generated in-memory record buffer — deterministic
/// replay with generation cost out of the execution path.
pub struct ReplayBuffer {
    records: Vec<TraceRecord>,
    pos: usize,
}

impl ReplayBuffer {
    /// Wraps a record buffer.
    pub fn new(records: Vec<TraceRecord>) -> Self {
        ReplayBuffer { records, pos: 0 }
    }
}

impl TraceSource for ReplayBuffer {
    fn next_records_into(
        &mut self,
        buf: &mut Vec<TraceRecord>,
        n: usize,
    ) -> Result<usize, SourceError> {
        let end = (self.pos + n).min(self.records.len());
        let taken = end - self.pos;
        buf.extend_from_slice(&self.records[self.pos..end]);
        self.pos = end;
        Ok(taken)
    }
}

impl<R: std::io::Read + Send> TraceSource for fade_trace::TraceReader<R> {
    fn next_records_into(
        &mut self,
        buf: &mut Vec<TraceRecord>,
        n: usize,
    ) -> Result<usize, SourceError> {
        fade_trace::TraceReader::next_records_into(self, buf, n).map_err(SourceError::Trace)
    }

    fn degradation(&self) -> Option<&fade_trace::DegradationReport> {
        fade_trace::TraceReader::degradation(self)
    }
}

/// Lifecycle of the engine's trace source: once a source reports
/// exhaustion or failure the engine never pulls from it again.
enum SourceState {
    /// Still delivering records.
    Live,
    /// Cleanly out of records (a finite replay ran to its end).
    Exhausted,
    /// Failed mid-stream with a typed error.
    Failed(SourceError),
}

/// The engine's monotone counters since construction. The measured
/// window reports each one as "now minus the snapshot taken at
/// [`MonitoringSystem::start_measure`]".
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
    fn sampled_estimate(&self, est: &StratifiedEstimator) -> (u64, u64, u64, Option<f64>) {
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

/// The trace record's monitored event, if the monitor observes it —
/// the one place a retired record becomes an event (commit-time
/// selection). Every high-level record is an event; stack updates are
/// when the monitor tracks the stack.
pub(crate) fn select_event(
    monitor: &dyn Monitor,
    monitors_stack: bool,
    rec: &TraceRecord,
) -> Option<AppEvent> {
    match rec {
        TraceRecord::Instr(i) => monitor.selects(i).then(|| AppEvent::Instr(instr_event_for(i))),
        TraceRecord::Stack(s) => monitors_stack.then_some(AppEvent::StackUpdate(*s)),
        TraceRecord::High(h) => Some(AppEvent::HighLevel(*h)),
    }
}

/// A complete monitoring system under simulation.
pub(crate) struct MonitoringSystem {
    cfg: SystemConfig,
    monitor: Box<dyn Monitor>,
    /// `monitor.monitors_stack()`, read once at build.
    monitors_stack: bool,
    source: Box<dyn TraceSource>,
    source_state: SourceState,
    commit: CommitModel,
    arbiter: SmtArbiter,
    handler: HandlerExec,
    state: MetadataState,
    fade: Option<Fade>,
    sw_queue: BoundedQueue<AppEvent>,
    cur_token: Option<u64>,
    /// Batch-refilled trace records (consumed from `record_pos`). A
    /// record the cycle engine could not enqueue stays unconsumed at
    /// `record_pos` until it can.
    record_buf: Vec<TraceRecord>,
    record_pos: usize,

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
    /// regions. Windows are keyed by their congestion stratum at entry
    /// and carry the adjacent stretch's base cycles per event as a
    /// control covariate, so the interval (never the point estimate)
    /// tightens with both structures.
    estimator: StratifiedEstimator,
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
}

impl MonitoringSystem {
    /// The one real constructor: every public entry point funnels
    /// through [`crate::SessionBuilder::build`], which lands here, so
    /// session variants cannot drift apart.
    ///
    /// `program` replaces the monitor's own FADE program (ablations);
    /// `source` replaces on-the-fly synthetic generation.
    ///
    /// # Panics
    ///
    /// Panics if a program fails validation, or if `program` is given
    /// for an unaccelerated config (the session builder reports both as
    /// typed [`crate::SessionError`]s before reaching this point).
    pub(crate) fn build(
        bench: &BenchProfile,
        monitor: Box<dyn Monitor>,
        cfg: &SystemConfig,
        program: Option<fade::FadeProgram>,
        source: Option<Box<dyn TraceSource>>,
    ) -> Self {
        let mon_program = monitor.program();
        let mut state = MetadataState::new(mon_program.md_map());
        if cfg.shadow_page_budget.is_some() || cfg.shadow_mem_cap_bytes.is_some() {
            state.mem.set_budget(cfg.shadow_page_budget, cfg.shadow_mem_cap_bytes);
        }
        monitor.init_state(&mut state);
        let custom_program = program.is_some();
        if custom_program && cfg.accel == Accel::None {
            panic!("a custom FADE program requires a FADE-enabled configuration");
        }
        let fade = match cfg.accel {
            Accel::None => None,
            Accel::Fade(mode) => {
                let mut fc = FadeConfig::paper(mode);
                fc.event_queue = cfg.event_queue;
                fc.unfiltered_queue = cfg.unfiltered_queue;
                if !custom_program {
                    // Caller-built programs (ablations) run on the
                    // paper's baseline hardware parameters — ablations
                    // compare programs, not hardware tweaks; everything
                    // else gets the config's full tweak set.
                    if let Some(bytes) = cfg.tweaks.md_cache_bytes {
                        fc.md_cache = fade::TagCacheConfig {
                            size_bytes: bytes,
                            ways: 2,
                            line_bytes: 64,
                        };
                    }
                    if let Some(n) = cfg.tweaks.tlb_entries {
                        fc.tlb_entries = n;
                    }
                    if let Some(n) = cfg.tweaks.fsq_entries {
                        fc.fsq_entries = n;
                    }
                    if cfg.ideal_consumer {
                        // Section 3.2's queueing study: the accelerator
                        // consumes exactly one event per cycle with no
                        // metadata-miss, drain or backpressure stalls.
                        fc.tlb_miss_penalty = 0;
                        fc.blocking_resume_latency = 0;
                        fc.mem_lat = fade_sim::MemLatency { l1: 0, l2: 0, dram: 0 };
                        fc.unfiltered_queue = fade_sim::QueueDepth::Unbounded;
                    }
                }
                Some(Fade::new(fc, program.unwrap_or(mon_program)))
            }
        };
        let mut sys = MonitoringSystem {
            monitors_stack: monitor.monitors_stack(),
            monitor,
            source: Box::new(SyntheticProgram::new(bench, cfg.seed)),
            source_state: SourceState::Live,
            commit: CommitModel::new(cfg.core, bench.commit, Rng::seed_from(cfg.seed ^ 0xbace)),
            arbiter: SmtArbiter::new(),
            handler: HandlerExec::new(cfg.core),
            state,
            fade,
            sw_queue: BoundedQueue::new(cfg.event_queue),
            cur_token: None,
            record_buf: Vec::with_capacity(RECORD_BATCH),
            record_pos: 0,
            producer_paused: false,
            instr_cap: None,
            estimator: StratifiedEstimator::new(),
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
            cfg: *cfg,
        };
        if let Some(source) = source {
            sys.source = source;
        }
        sys
    }

    /// The monitor driving this system (bug reports, etc.).
    pub fn monitor(&self) -> &dyn Monitor {
        self.monitor.as_ref()
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The current metadata state (read access for examples/tests).
    pub fn state(&self) -> &MetadataState {
        &self.state
    }

    /// Total cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.counts.cycles
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

    /// `true` once the trace source reported clean exhaustion: the run
    /// ended early because the recorded trace ran out, not because a
    /// target was reached.
    pub fn source_exhausted(&self) -> bool {
        matches!(self.source_state, SourceState::Exhausted)
    }

    /// The typed error the trace source failed with mid-run, if any.
    /// A failed source stops the engine's run loops the same way
    /// exhaustion does; the caller decides whether that is fatal.
    pub fn source_error(&self) -> Option<&SourceError> {
        match &self.source_state {
            SourceState::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// The degradation accounting of a fault-tolerant source (a
    /// recovering [`fade_trace::TraceReader`] skipping corrupt
    /// chunks); `None` for sources that cannot degrade.
    pub fn degradation(&self) -> Option<&fade_trace::DegradationReport> {
        self.source.degradation()
    }

    /// Ensures the record buffer has an unconsumed record, pulling up
    /// to `n` more from the source if needed. Returns `false` when no
    /// record is available — the source is exhausted or failed (state
    /// is latched; a dead source is never pulled again).
    fn refill_records(&mut self, n: usize) -> bool {
        if self.record_pos < self.record_buf.len() {
            return true;
        }
        if !matches!(self.source_state, SourceState::Live) {
            return false;
        }
        self.record_buf.clear();
        self.record_pos = 0;
        match self.source.next_records_into(&mut self.record_buf, n) {
            Ok(_) if !self.record_buf.is_empty() => true,
            Ok(_) => {
                self.source_state = SourceState::Exhausted;
                false
            }
            Err(e) => {
                self.source_state = SourceState::Failed(e);
                false
            }
        }
    }

    /// `true` when the source can feed the engine no further records:
    /// it is exhausted or failed and every buffered record (including
    /// a backpressured one) has been consumed. The run loops stop here
    /// instead of spinning on an empty trace.
    fn out_of_records(&self) -> bool {
        !matches!(self.source_state, SourceState::Live) && self.record_pos == self.record_buf.len()
    }

    /// Accumulated fast-path statistics of every batched stretch run so
    /// far (all counters zero if only the cycle engine ran).
    pub fn batch_stats(&self) -> BatchStats {
        self.batch_stats
    }

    /// Estimated handler cycles of carried congestion seeded into
    /// sampling windows so far.
    pub fn carried_seed_cycles(&self) -> u64 {
        self.counts.seeded_cycles
    }

    /// Relative half-width of the 95% CI on
    /// [`MonitoringSystem::estimated_total_cycles`] (see
    /// [`crate::Session::rel_half_width`]).
    pub fn rel_half_width(&self) -> Option<f64> {
        self.counts.sampled_estimate(&self.estimator).3
    }

    /// Per-congestion-stratum breakdown of the sampling interval.
    pub fn sampling_strata(&self) -> Vec<StratumStat> {
        self.estimator.strata()
    }

    /// Accelerator statistics (`None` for unaccelerated systems).
    pub fn fade_stats(&self) -> Option<FadeStats> {
        self.fade.as_ref().map(|f| *f.stats())
    }

    /// The residual-overhead windows sampled by batched execution so
    /// far (see [`crate::Session::sampled_windows`]).
    pub fn sampled_windows(&self) -> &[WindowSample] {
        self.estimator.samples()
    }

    /// Total cycles including the extrapolation for batched stretches:
    /// exact simulated cycles, plus the exact base (binding constraint
    /// of replayed app cycles and handler cycles) of batched
    /// stretches, plus the sampled per-event residual overhead. Equals
    /// [`MonitoringSystem::cycles`] when only the cycle engine ran.
    pub fn estimated_total_cycles(&self) -> u64 {
        self.counts.sampled_estimate(&self.estimator).0
    }

    /// `true` when nothing is in flight anywhere: accelerator (or
    /// software queue) empty and the monitor-thread handler idle.
    pub fn quiesced(&self) -> bool {
        !self.handler.busy()
            && match &self.fade {
                Some(f) => f.quiesced(),
                None => self.sw_queue.is_empty(),
            }
    }

    /// Starts the measurement window: counters collected from now on.
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

    /// Runs until `n` more application instructions retire, or the
    /// trace source runs out of records ([`MonitoringSystem::
    /// source_exhausted`] / [`MonitoringSystem::source_error`]),
    /// whichever comes first. The last cycle may retire past the target
    /// by up to a commit width. On early stop the in-flight events are
    /// drained so monitor-visible state is complete for the trace that
    /// did exist.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to make forward progress with
    /// records still available (a deadlock would be a simulator bug).
    pub fn run_instrs(&mut self, n: u64) {
        self.step_until(self.counts.instrs + n, u64::MAX, false);
    }

    /// Runs until exactly `n` more application instructions retire,
    /// cycle-accurately.
    ///
    /// Unlike [`MonitoringSystem::run_instrs`], which may overshoot by
    /// up to a commit width, this caps the last cycle's retirement so
    /// the trace position lands exactly on the target — the stop
    /// discipline batched mode uses, exposed so cycle-mode runs can be
    /// compared against batched runs over an identical trace prefix.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to make forward progress.
    pub fn run_instrs_exact(&mut self, n: u64) {
        self.step_until(self.counts.instrs + n, u64::MAX, true);
    }

    /// Batched execution: retires exactly `n` more application
    /// instructions, draining monitored events through
    /// [`Fade::run_batch`] and periodically dropping back to the
    /// cycle-accurate engine to sample timing.
    ///
    /// Each sampling period of `cfg.sample_period` monitored events
    /// runs its first `sample_period - sample_window` events through
    /// the batched fast path and its last `sample_window` events
    /// through [`MonitoringSystem::step`]. Each window enters carrying
    /// the congestion of the preceding batch stretch — the monitor
    /// thread is seeded with the handler backlog the stretch's dispatch
    /// stream implies ([`CongestionCarry`]), and on monitor-bound
    /// windows the residual is recorded over the window's tail only,
    /// with the front half re-establishing steady-state queue pressure
    /// — so long congestion episodes survive sampling instead of being
    /// truncated by a drained-queue restart. The measured window
    /// (including its trailing queue drain) feeds a
    /// [`StratifiedEstimator`] keyed by the window's congestion-seed
    /// stratum, and batched stretches are charged the sampled CPI in
    /// [`MonitoringSystem::estimated_total_cycles`] and
    /// [`MonitoringSystem::finish`].
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
    pub fn run_batched(&mut self, n: u64) {
        let target = self.counts.instrs + n;
        let period = self.cfg.sample_period.max(1);
        let window = self.cfg.sample_window.min(period);
        if self.fade.is_none() || window >= period {
            // No batched fast path to take: pure cycle-accurate
            // execution with the exact-stop discipline.
            self.run_instrs_exact(n);
            return;
        }
        let batch_len = period - window;
        while self.counts.instrs < target {
            if self.out_of_records() {
                self.drain();
                return;
            }
            let pos = self.counts.events() % period;
            if pos < batch_len {
                if !self.quiesced() {
                    self.drain();
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
                // returned seed keys the window's congestion stratum,
                // and the preceding stretch's deterministic base
                // cycles per event become its control covariate (the
                // estimator regresses the residual on it and
                // extrapolates at the population covariate mean — see
                // `StratifiedEstimator::estimate_with_covariate_mean`).
                let cov = if self.stretch_events > 0 {
                    self.stretch_base_cycles as f64 / self.stretch_events as f64
                } else {
                    0.0
                };
                self.stretch_base_cycles = 0;
                self.stretch_events = 0;
                let seed = self.seed_congestion(window_events);
                let stratum = congestion_stratum(seed);
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
                    self.drain();
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
                    self.estimator.record_window(ev_rec, resid, stratum, cov);
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
    ///
    /// Returns the backlog cycles actually seeded (0 when nothing was),
    /// which doubles as the window's congestion-stratum key.
    fn seed_congestion(&mut self, window_events: u64) -> u64 {
        if !Self::congestion_window_ok(window_events) {
            // The carry still describes only the stretch that just
            // ended: drop it rather than letting it go stale.
            self.congestion.take();
            return 0;
        }
        if !self.quiesced() {
            // Mid-window resume (composition): the previous entry
            // consumed the carry already.
            return 0;
        }
        let seed = self.congestion.take();
        if seed == 0 {
            return 0;
        }
        let cost = ((seed as f64) * handler_ipc(self.cfg.core)).round().max(1.0) as u32;
        self.handler.start(cost);
        let est = handler_cycle_est(self.cfg.core, cost);
        self.handler_est_cycles += est;
        self.counts.batch_base_cycles = self.counts.batch_base_cycles.saturating_sub(seed);
        self.counts.seeded_cycles += est;
        seed
    }

    /// Runs the monitoring side with the application paused until
    /// nothing is in flight (queues empty, handlers completed).
    /// Idempotent; a no-op when already quiesced.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to quiesce (a simulator bug).
    pub fn drain(&mut self) {
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
        let mut out_of_records = false;
        while self.counts.instrs < instr_target && self.counts.events() < event_target {
            if self.out_of_records() {
                out_of_records = true;
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
        if out_of_records {
            self.drain();
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
        while budget > 0 && self.counts.instrs < instr_target && !self.out_of_records() {
            // ---- Collect one chunk of monitored events. ----
            let mut chunk = std::mem::take(&mut self.batch_buf);
            chunk.clear();
            let cap = budget.min(chunk_cap);
            let instrs0 = self.counts.instrs;
            // Larger refills than the cycle engine's: the batch path
            // consumes records in bulk. A dead source cuts the chunk;
            // the outer loops see `out_of_records`.
            'collect: while (chunk.len() as u64) < cap
                && self.counts.instrs < instr_target
                && self.refill_records(1024)
            {
                // Records are consumed in place (no per-record copy out
                // of the buffer); `record_pos` only advances past a
                // record once it is accepted, so chunk/target cuts
                // leave the remainder for the next consumer.
                while self.record_pos < self.record_buf.len() {
                    if (chunk.len() as u64) >= cap || self.counts.instrs >= instr_target {
                        break 'collect;
                    }
                    let rec = &self.record_buf[self.record_pos];
                    self.record_pos += 1;
                    if let TraceRecord::Instr(_) = rec {
                        self.counts.instrs += 1;
                    }
                    let selected = select_event(self.monitor.as_ref(), self.monitors_stack, rec);
                    if let Some(ev) = selected {
                        chunk.push(ev);
                        self.counts.note_event(&ev);
                        if let AppEvent::HighLevel(HighLevelEvent::ThreadSwitch { .. }) = ev {
                            // Cut the chunk so the monitor's
                            // invariant-register updates land before
                            // the next event is filtered — same order
                            // as the cycle engine's dispatch path.
                            break 'collect;
                        }
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
    pub fn step(&mut self) {
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
                let Some(rec) = self.next_trace_record() else {
                    break;
                };
                if let Some(ev) = select_event(self.monitor.as_ref(), self.monitors_stack, &rec) {
                    if self.try_enqueue(ev).is_err() {
                        // Backpressure: leave the record unconsumed for
                        // the next retirement attempt.
                        self.record_pos -= 1;
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

    /// The idle-stall branch of [`MonitoringSystem::step`]: advances
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

    /// The next trace record, through the batch-refilled buffer (same
    /// sequence as calling the generator directly); `None` once the
    /// source is exhausted or failed.
    fn next_trace_record(&mut self) -> Option<TraceRecord> {
        if !self.refill_records(RECORD_BATCH) {
            return None;
        }
        let r = self.record_buf[self.record_pos];
        self.record_pos += 1;
        Some(r)
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
    /// `baseline_cycles` must come from [`baseline_cycles`] for the same
    /// benchmark, core and seed.
    ///
    /// If part of the window ran batched ([`MonitoringSystem::run_batched`]),
    /// `cycles` is the sampled estimate — exactly simulated cycles plus
    /// the extrapolation for batched instructions — and `sampling`
    /// reports the windows and error bound behind it.
    pub fn finish(mut self, bench_name: &str, baseline: u64) -> RunStats {
        // Close any open burst.
        if self.cur_burst > 0 && self.measuring {
            self.bursts.record(self.cur_burst);
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
                StratifiedEstimator::from_samples(measured)
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
                    strata: est.strata(),
                }),
            )
        };
        RunStats {
            benchmark: bench_name.to_string(),
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
            burst_sizes: self.bursts.clone(),
            util: self.util,
        }
    }
}

/// The monitor thread's standalone handler IPC: the rate batched
/// stretches and congestion seeds convert handler work at.
fn handler_ipc(core: CoreKind) -> f64 {
    core.handler_ipc().min(core.width() as f64)
}

/// Estimated handler-execution cycles for a `cost`-instruction
/// handler at the monitor thread's standalone rate — the unit both the
/// batched base and the sampled residual are expressed in.
fn handler_cycle_est(core: CoreKind, cost: u32) -> u64 {
    (cost as f64 / handler_ipc(core)).ceil() as u64
}

/// Software-handler cost of one event the accelerator dispatched (1
/// under the idealized consumer), charged to its handler class in
/// `class_instrs` when given — the one charge the cycle engine's
/// consumer and the batched consumer share.
fn dispatch_cost(
    monitor: &dyn Monitor,
    uf: &UnfilteredEvent,
    ideal: bool,
    class_instrs: Option<&mut ClassInstrs>,
) -> u32 {
    let cost = if ideal {
        1
    } else {
        match uf.event {
            AppEvent::Instr(_) if uf.partial_hit => monitor.costs().partial_short,
            AppEvent::Instr(_) => monitor.costs().complex,
            AppEvent::HighLevel(h) => monitor.high_level_cost(&h),
            AppEvent::StackUpdate(s) => monitor.stack_cost(&s),
        }
        .max(1)
    };
    if let Some(c) = class_instrs {
        let class = match uf.event {
            AppEvent::Instr(_) if uf.partial_hit => &mut c.partial,
            AppEvent::Instr(_) => &mut c.complex,
            AppEvent::HighLevel(_) => &mut c.high_level,
            AppEvent::StackUpdate(_) => &mut c.stack,
        };
        *class += cost as u64;
    }
    cost
}

/// Applies the software handler's functional effect for one dispatched
/// event, deferring invariant-register writes to `inv_writes` (the
/// batched consumer cannot reach the accelerator while it is running
/// the batch; chunks are cut at thread switches so the deferral does
/// not reorder against filtering).
pub(crate) fn apply_unfiltered(
    monitor: &mut dyn Monitor,
    uf: &UnfilteredEvent,
    st: &mut MetadataState,
    inv_writes: &mut Vec<(InvId, u64)>,
) {
    match uf.event {
        AppEvent::Instr(ev) => monitor.apply_instr(&ev, st),
        AppEvent::HighLevel(h) => {
            monitor.apply_high_level(&h, st);
            if let HighLevelEvent::ThreadSwitch { tid } = h {
                inv_writes.extend(monitor.on_thread_switch(tid));
            }
        }
        AppEvent::StackUpdate(ev) => monitor.apply_stack_update(&ev, st),
    }
}

/// Per-field difference of two accelerator statistics snapshots.
fn fade_stats_delta(now: FadeStats, then: FadeStats) -> FadeStats {
    FadeStats {
        instr_events: now.instr_events - then.instr_events,
        filtered: now.filtered - then.filtered,
        partial_hits: now.partial_hits - then.partial_hits,
        unfiltered_instr: now.unfiltered_instr - then.unfiltered_instr,
        stack_updates: now.stack_updates - then.stack_updates,
        high_level: now.high_level - then.high_level,
        shots: now.shots - then.shots,
        busy_cycles: now.busy_cycles - then.busy_cycles,
        idle_cycles: now.idle_cycles - then.idle_cycles,
        blocking_stall_cycles: now.blocking_stall_cycles - then.blocking_stall_cycles,
        ufq_full_stall_cycles: now.ufq_full_stall_cycles - then.ufq_full_stall_cycles,
        fsq_full_stall_cycles: now.fsq_full_stall_cycles - then.fsq_full_stall_cycles,
        drain_stall_cycles: now.drain_stall_cycles - then.drain_stall_cycles,
        suu_busy_cycles: now.suu_busy_cycles - then.suu_busy_cycles,
        md_miss_stall_cycles: now.md_miss_stall_cycles - then.md_miss_stall_cycles,
        tlb_miss_stall_cycles: now.tlb_miss_stall_cycles - then.tlb_miss_stall_cycles,
    }
}

/// Cycles an unmonitored (application-only) system needs to retire
/// `measure` instructions after a `warmup`-instruction warmup, with the
/// same core and commit-process seed as the monitored run. The
/// measured span starts at the end of the cycle whose retirement
/// reaches `warmup` — at cycle 0 when there is no warmup.
pub fn baseline_cycles(
    bench: &BenchProfile,
    core: CoreKind,
    seed: u64,
    warmup: u64,
    measure: u64,
) -> u64 {
    let mut commit = CommitModel::new(core, bench.commit, Rng::seed_from(seed ^ 0xbace));
    // Every cycle retires everything retirable, so the warmup may
    // overshoot; the measured span retires the rest.
    let (_, warm) = commit.fast_forward(warmup, false);
    commit
        .fast_forward((warmup + measure).saturating_sub(warm), false)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use fade::FilterMode;
    use fade_trace::bench;

    const WARM: u64 = 5_000;
    const MEAS: u64 = 20_000;

    /// Warmup-measure convenience harness: the tests below test engine
    /// behavior, not the entry point, so they all go through one
    /// session-built run.
    fn run_experiment(
        bench: &BenchProfile,
        monitor: &str,
        cfg: &SystemConfig,
        warmup: u64,
        measure: u64,
    ) -> RunStats {
        crate::Session::builder()
            .monitor(monitor)
            .source(bench.clone())
            .config(*cfg)
            .build()
            .expect("paper monitor and profile")
            .run_measured(warmup, measure)
            .expect("clean synthetic run")
            .stats
    }

    #[test]
    fn fade_system_reaches_high_filtering_ratio_for_addrcheck() {
        // hmmer has ~1200-cycle commit phases; a longer window keeps the
        // baseline/monitored pairing statistically tight.
        let b = bench::by_name("hmmer").unwrap();
        let stats = run_experiment(
            &b,
            "AddrCheck",
            &SystemConfig::fade_single_core(),
            WARM,
            8 * MEAS,
        );
        assert!(
            stats.filtering_ratio() > 0.95,
            "AddrCheck should filter nearly everything, got {}",
            stats.filtering_ratio()
        );
        // Short windows pair baseline and monitored runs statistically,
        // not cycle-exactly, so allow a little noise below 1.0.
        assert!(stats.slowdown() >= 0.9, "got {}", stats.slowdown());
        assert!(stats.slowdown() < 2.0, "got {}", stats.slowdown());
    }

    #[test]
    fn unaccelerated_is_slower_than_fade() {
        let b = bench::by_name("gcc").unwrap();
        let fade = run_experiment(&b, "MemLeak", &SystemConfig::fade_single_core(), WARM, MEAS);
        let soft = run_experiment(
            &b,
            "MemLeak",
            &SystemConfig::unaccelerated_single_core(),
            WARM,
            MEAS,
        );
        assert!(
            soft.slowdown() > fade.slowdown() * 1.3,
            "unaccel {} vs fade {}",
            soft.slowdown(),
            fade.slowdown()
        );
    }

    #[test]
    fn non_blocking_beats_blocking_for_low_filter_monitors() {
        let b = bench::by_name("gcc").unwrap();
        let nb = run_experiment(&b, "MemLeak", &SystemConfig::fade_single_core(), WARM, MEAS);
        let blocking = run_experiment(
            &b,
            "MemLeak",
            &SystemConfig::fade_single_core().with_mode(FilterMode::Blocking),
            WARM,
            MEAS,
        );
        assert!(
            blocking.slowdown() > nb.slowdown(),
            "blocking {} vs nb {}",
            blocking.slowdown(),
            nb.slowdown()
        );
    }

    #[test]
    fn two_core_is_at_least_as_fast_as_single_core() {
        let b = bench::by_name("astar").unwrap();
        let one = run_experiment(&b, "MemLeak", &SystemConfig::fade_single_core(), WARM, MEAS);
        let two = run_experiment(&b, "MemLeak", &SystemConfig::fade_two_core(), WARM, MEAS);
        assert!(
            two.slowdown() <= one.slowdown() * 1.05,
            "two-core {} vs single {}",
            two.slowdown(),
            one.slowdown()
        );
        let (a, m, both) = two.util.percentages();
        assert!((a + m + both - 100.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let b = bench::by_name("mcf").unwrap();
        let cfg = SystemConfig::fade_single_core();
        let s1 = run_experiment(&b, "MemCheck", &cfg, WARM, MEAS);
        let s2 = run_experiment(&b, "MemCheck", &cfg, WARM, MEAS);
        assert_eq!(s1.cycles, s2.cycles);
        assert_eq!(s1.monitored_events, s2.monitored_events);
        assert_eq!(
            s1.fade.unwrap().filtered,
            s2.fade.unwrap().filtered
        );
    }

    #[test]
    fn atomcheck_runs_on_parallel_benchmarks() {
        let b = bench::by_name("water").unwrap();
        let stats = run_experiment(&b, "AtomCheck", &SystemConfig::fade_single_core(), WARM, MEAS);
        let f = stats.fade.unwrap();
        assert!(f.partial_hits > 0, "partial filtering must fire");
        assert!(stats.filtering_ratio() > 0.5, "got {}", stats.filtering_ratio());
    }

    #[test]
    fn monitored_ipc_is_below_app_ipc() {
        let b = bench::by_name("bzip").unwrap();
        let stats = run_experiment(&b, "AddrCheck", &SystemConfig::fade_single_core(), WARM, MEAS);
        assert!(stats.monitored_ipc() < stats.app_ipc());
        assert!(stats.monitored_ipc() > 0.0);
    }

    #[test]
    fn baseline_matches_profile_ipc() {
        let b = bench::by_name("hmmer").unwrap();
        let base = baseline_cycles(&b, CoreKind::AggrOoO4, 1, 10_000, 100_000);
        let ipc = 100_000.0 / base as f64;
        assert!(
            (ipc - b.commit.ipc_4way).abs() / b.commit.ipc_4way < 0.15,
            "baseline ipc {ipc} vs profile {}",
            b.commit.ipc_4way
        );
    }

    #[test]
    fn baseline_without_warmup_counts_from_cycle_zero() {
        let b = bench::by_name("hmmer").unwrap();
        let core = CoreKind::AggrOoO4;
        // Retiring anything takes at least one cycle.
        assert!(baseline_cycles(&b, core, 1, 0, 1) >= 1);
        assert!(baseline_cycles(&b, core, 1, 0, 4) >= 1);
        // The same realization, counted from cycle 0: no warmup cycle is
        // dropped from the measured span.
        assert_eq!(baseline_cycles(&b, core, 1, 0, 1000), 250);
        assert_eq!(baseline_cycles(&b, core, 1, 1, 1000), 250);
        let mut commit = CommitModel::new(core, b.commit, Rng::seed_from(1 ^ 0xbace));
        let (mut instrs, mut cycles) = (0u64, 0u64);
        while instrs < 1 {
            commit.tick();
            let n = commit.retirable();
            commit.retire(n);
            instrs += n as u64;
            cycles += 1;
        }
        assert_eq!(baseline_cycles(&b, core, 1, 0, 1), cycles);
    }
}
