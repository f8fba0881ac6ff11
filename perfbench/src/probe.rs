//! Standalone layer timings: each layer's public entry point called on
//! its own over a workload's traces — decode, record→event selection
//! (`Monitor::selects`), the filter (`Fade::run_batch`), commit
//! fast-forward (`baseline_cycles`), the sampled windows (a replay
//! against `Engine::batched_with(period, 0)`), and the cycle-accurate
//! engine — plus the simulated statistics of one batched replay per
//! trace.

use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use fade::{BatchStats, Fade, FadeConfig, FilterMode, InvId, UnfilteredEvent};
use fade_isa::{instr_event_for, AppEvent, HighLevelEvent};
use fade_monitors::{monitor_by_name, Monitor};
use fade_shadow::MetadataState;
use fade_system::{baseline_cycles, Engine, SystemConfig};
use fade_trace::{TraceReader, TraceRecord};

use crate::layers::{Clock, TimedMonitor};
use crate::trace::{replay, Reference, Simulated, Trace};
use crate::{median, ratio};

/// Events per standalone `run_batch` call (the batched engine's chunk
/// scale).
const FILTER_CHUNK: usize = 4096;

/// Aggregated standalone timings and simulated statistics over a set of
/// traces.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Records decoded / host ns spent decoding.
    pub decode: (u64, f64),
    /// Instruction records passed through `Monitor::selects` / ns.
    pub select: (u64, f64),
    /// Events through `Fade::run_batch`, excluding handler time / ns.
    pub filter: (u64, f64),
    /// Instructions through `baseline_cycles` / ns.
    pub commit: (u64, f64),
    /// Events replayed cycle-accurately / ns.
    pub cycle: (u64, f64),
    /// Host seconds of default batched replays and of the same replays
    /// without sampling windows (medians per trace, summed).
    pub batched_s: f64,
    /// See [`Probe::batched_s`].
    pub no_window_s: f64,
    /// Simulated statistics of each trace's batched replay.
    pub simulated: Vec<Simulated>,
    /// `|estimate - exact| / exact` per trace.
    pub cycle_err: Vec<f64>,
    /// Records and monitored events in the probed traces.
    pub records: u64,
    /// See [`Probe::records`].
    pub events: u64,
}

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Feeds one dispatched event's software handler, like the engine's
/// consumer does.
fn apply_dispatch(
    mon: &mut dyn Monitor,
    uf: &UnfilteredEvent,
    st: &mut MetadataState,
    inv_writes: &mut Vec<(InvId, u64)>,
) {
    match uf.event {
        AppEvent::Instr(ev) => mon.apply_instr(&ev, st),
        AppEvent::HighLevel(h) => {
            mon.apply_high_level(&h, st);
            if let HighLevelEvent::ThreadSwitch { tid } = h {
                inv_writes.extend(mon.on_thread_switch(tid));
            }
        }
        AppEvent::StackUpdate(ev) => mon.apply_stack_update(&ev, st),
    }
}

/// The events `monitor` selects from `records`, in order.
fn select_events(monitor: &dyn Monitor, records: &[TraceRecord]) -> Vec<AppEvent> {
    let stack = monitor.monitors_stack();
    records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Instr(i) => monitor
                .selects(i)
                .then(|| AppEvent::Instr(instr_event_for(i))),
            TraceRecord::Stack(s) => stack.then_some(AppEvent::StackUpdate(*s)),
            TraceRecord::High(h) => Some(AppEvent::HighLevel(*h)),
        })
        .collect()
}

/// Host ns of `Fade::run_batch` over `events`, net of the handler time
/// its dispatches cost.
fn time_filter(monitor_name: &str, events: &[AppEvent]) -> f64 {
    let handlers = Clock::shared();
    let inner = monitor_by_name(monitor_name).expect("builtin monitor");
    let program = inner.program();
    let mut mon = TimedMonitor::new(inner, Arc::clone(&handlers));
    let mut st = MetadataState::new(program.md_map());
    mon.init_state(&mut st);
    let mut fade = Fade::new(FadeConfig::paper(FilterMode::NonBlocking), program);
    let mut inv_writes = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < events.len() {
        let mut end = (i + FILTER_CHUNK).min(events.len());
        // Cut after a thread switch so its invariant writes land before
        // the next event is filtered, as the engine does.
        if let Some(p) = events[i..end]
            .iter()
            .position(|e| matches!(e, AppEvent::HighLevel(HighLevelEvent::ThreadSwitch { .. })))
        {
            end = i + p + 1;
        }
        black_box(fade.run_batch_with(&events[i..end], &mut st, |uf, st| {
            apply_dispatch(&mut mon, &uf, st, &mut inv_writes);
        }));
        for (id, v) in inv_writes.drain(..) {
            fade.write_invariant(id, v);
        }
        i = end;
    }
    let ns = ns_since(start) - handlers.take().ns as f64;
    black_box(&st);
    ns.max(0.0)
}

/// Wall seconds of a whole-trace replay through `engine`.
fn replay_secs(trace: &Trace, engine: Engine) -> (f64, fade_system::Session) {
    let start = Instant::now();
    let session = replay(trace, engine, None).expect("probe replays run clean");
    (start.elapsed().as_secs_f64(), session)
}

/// Probes every trace in `traces`. With `refs`, the setup-time
/// cycle-accurate references are reused instead of replaying again.
pub fn probe(traces: &[Trace], refs: Option<&[Reference]>) -> Probe {
    let mut p = Probe::default();
    for (i, trace) in traces.iter().enumerate() {
        let monitor = monitor_by_name(trace.monitor).expect("builtin monitor");

        let start = Instant::now();
        let records = TraceReader::new(Cursor::new(Arc::clone(&trace.bytes)))
            .and_then(|mut r| r.read_all())
            .expect("benchmark traces decode");
        p.decode.1 += ns_since(start);
        p.decode.0 += records.len() as u64;

        let start = Instant::now();
        let mut instrs = 0u64;
        for r in &records {
            if let TraceRecord::Instr(ins) = r {
                instrs += 1;
                black_box(monitor.selects(black_box(ins)));
            }
        }
        p.select.1 += ns_since(start);
        p.select.0 += instrs;

        let events = select_events(monitor.as_ref(), &records);
        p.filter.0 += events.len() as u64;
        p.filter.1 += time_filter(trace.monitor, &events);
        drop(records);

        let cfg: SystemConfig = trace.config();
        let start = Instant::now();
        black_box(baseline_cycles(
            &trace.bench,
            cfg.core,
            cfg.seed,
            0,
            trace.instrs,
        ));
        p.commit.1 += ns_since(start);
        p.commit.0 += trace.instrs;

        // Windows cost what a default replay takes beyond the same
        // replay with no cycle-accurate windows; alternate the two.
        let period = cfg.sample_period;
        let (mut with, mut without) = (Vec::new(), Vec::new());
        let mut simulated = None;
        for _ in 0..2 {
            let (s, session) = replay_secs(trace, Engine::batched());
            with.push(s);
            simulated.get_or_insert_with(|| Simulated::of(&session));
            without.push(replay_secs(trace, Engine::batched_with(period, 0)).0);
        }
        p.batched_s += median(&with);
        p.no_window_s += median(&without);
        let simulated = simulated.expect("two replays ran");

        let (exact, cycle_s) = match refs {
            Some(refs) => (refs[i].exact_cycles, refs[i].cycle_s),
            None => {
                let (s, session) = replay_secs(trace, Engine::Cycle);
                (session.cycles(), s)
            }
        };
        p.cycle.0 += trace.events;
        p.cycle.1 += cycle_s * 1e9;
        p.cycle_err
            .push((simulated.estimated_cycles as f64 - exact as f64).abs() / exact.max(1) as f64);
        p.simulated.push(simulated);
        p.records += trace.records;
        p.events += trace.events;
    }
    p
}

impl Probe {
    /// Fills the per-layer metrics the probe measures into `l`.
    pub fn fill(&self, l: &mut crate::Layers) {
        let per = |(n, ns): (u64, f64)| ratio(ns, n as f64);
        l.decode_ns_per_record = per(self.decode);
        l.select_ns_per_record = per(self.select);
        l.filter_ns_per_event = per(self.filter);
        l.commit_ns_per_instr = per(self.commit);
        l.cycle_ns_per_event = per(self.cycle);
        l.records_per_event = ratio(self.records as f64, self.events as f64);
        let n = self.simulated.len().max(1) as f64;
        let batch = self
            .simulated
            .iter()
            .fold(BatchStats::default(), |mut acc, s| {
                acc.merge(&s.batch);
                acc
            });
        l.fast_path_frac = batch.fast_path_fraction();
        l.dispatch_frac = ratio(batch.dispatched as f64, batch.events as f64);
        let windows: usize = self.simulated.iter().map(|s| s.windows.len()).sum();
        let window_events: u64 = self
            .simulated
            .iter()
            .flat_map(|s| s.windows.iter().map(|w| w.events))
            .sum();
        l.windows = windows as f64 / n;
        l.window_event_frac = ratio(window_events as f64, self.events as f64);
        l.window_share = ratio(self.batched_s - self.no_window_s, self.batched_s);
        l.cycle_err = self.cycle_err.iter().sum::<f64>() / n;
        let rhw: Vec<f64> = self
            .simulated
            .iter()
            .filter_map(|s| s.rel_half_width)
            .collect();
        l.ci_rel_half_width = ratio(rhw.iter().sum(), rhw.len() as f64);
        l.full_pages_peak = self
            .simulated
            .iter()
            .map(|s| s.full_pages_peak)
            .max()
            .unwrap_or(0) as f64;
        l.shadow_bytes = self
            .simulated
            .iter()
            .map(|s| s.shadow_bytes)
            .max()
            .unwrap_or(0) as f64;
    }
}
