//! What the session engine is built from, outside the [`crate::Session`]
//! type itself: the trace sources it pulls records from, the commit-time
//! selection that turns a record into a monitored event, the handler
//! charges it applies per dispatched event, and the application-only
//! baseline a measured run is compared against.

use fade::{FadeStats, InvId, UnfilteredEvent};
use fade_isa::{instr_event_for, AppEvent, HighLevelEvent};
use fade_monitors::Monitor;
use fade_shadow::MetadataState;
use fade_sim::{CommitModel, CoreKind, Rng};
use fade_trace::{BenchProfile, SyntheticProgram, TraceRecord};

use crate::run::ClassInstrs;

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
/// cores; each session owns its source exclusively), and so a session
/// can read its source ahead on a helper thread (see
/// [`crate::SessionBuilder::build`]).
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

/// The monitor thread's standalone handler IPC: the rate batched
/// stretches and congestion seeds convert handler work at.
pub(crate) fn handler_ipc(core: CoreKind) -> f64 {
    core.handler_ipc().min(core.width() as f64)
}

/// Estimated handler-execution cycles for a `cost`-instruction
/// handler at the monitor thread's standalone rate — the unit both the
/// batched base and the sampled residual are expressed in.
pub(crate) fn handler_cycle_est(core: CoreKind, cost: u32) -> u64 {
    (cost as f64 / handler_ipc(core)).ceil() as u64
}

/// Software-handler cost of one event the accelerator dispatched (1
/// under the idealized consumer), charged to its handler class in
/// `class_instrs` when given — the one charge the cycle engine's
/// consumer and the batched consumer share.
pub(crate) fn dispatch_cost(
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
pub(crate) fn fade_stats_delta(now: FadeStats, then: FadeStats) -> FadeStats {
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
    use crate::run::RunStats;
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
