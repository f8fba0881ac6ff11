//! The `figures-cycle` workload: the paper-figure path. A fixed grid —
//! every paper monitor on one benchmark of its suite, under both the
//! FADE and the unaccelerated single-core system — runs through
//! [`Session::run_measured`] with the cycle-accurate engine and live
//! [`SyntheticProgram`] generation, one experiment after another on one
//! thread, each checked against the grid's setup-time `RunStats`.

use std::sync::Arc;
use std::time::Instant;

use fade_monitors::monitor_by_name;
use fade_system::{baseline_cycles, Engine, RunReport, Session, SystemConfig};
use fade_trace::{bench, BenchProfile, SyntheticProgram};

use crate::layers::{TimedMonitor, TimedSource};
use crate::trace::{mix_seed, record, RecordTimes, Tracing};
use crate::{closed_loop, end_to_end, ratio, timed_setups, Layers, Outcome};

/// (monitor, benchmark of its suite) points of the grid.
pub const POINTS: [(&str, &str); 5] = [
    ("AddrCheck", "mcf"),
    ("MemCheck", "gcc"),
    ("MemLeak", "astar"),
    ("TaintCheck", "bzip-taint"),
    ("AtomCheck", "water"),
];
/// Warmup instructions before each measured window (the figure
/// harness's default).
pub const WARMUP: u64 = 30_000;
/// Measured instructions per experiment (the figure harness's default).
pub const MEASURE: u64 = 150_000;
/// Generator seeds per grid point: each seed's program differs by
/// about 10% in host time, so the grid averages over two.
pub const SEEDS_PER_POINT: u64 = 2;

/// One grid experiment.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Workload.
    pub bench: BenchProfile,
    /// Monitor name.
    pub monitor: &'static str,
    /// System, seeded from the workload seed.
    pub config: SystemConfig,
}

/// The grid for `seed`: every point, with each of its generator seeds,
/// under FADE and unaccelerated.
pub fn grid(seed: u64) -> Vec<Experiment> {
    let mut out = Vec::new();
    for (i, (monitor, bench_name)) in POINTS.iter().enumerate() {
        let bench = bench::by_name(bench_name).expect("grid benchmarks exist");
        let monitor = monitor_by_name(monitor)
            .expect("grid monitors are builtin")
            .name();
        for r in 0..SEEDS_PER_POINT {
            let s = mix_seed(seed, i as u64 * SEEDS_PER_POINT + r);
            for config in [
                SystemConfig::fade_single_core(),
                SystemConfig::unaccelerated_single_core(),
            ] {
                out.push(Experiment {
                    bench: bench.clone(),
                    monitor,
                    config: config.with_seed(s),
                });
            }
        }
    }
    out
}

/// Runs one experiment; with `tracing`, the generator and the monitor
/// are wrapped in timing layers.
pub fn run_one(e: &Experiment, tracing: Option<&Tracing>) -> RunReport {
    let builder = Session::builder().engine(Engine::Cycle).config(e.config);
    let builder = match tracing {
        Some(t) => {
            let gen = SyntheticProgram::new(&e.bench, e.config.seed);
            let monitor = monitor_by_name(e.monitor).expect("grid monitors are builtin");
            builder
                .monitor(
                    Box::new(TimedMonitor::new(monitor, Arc::clone(&t.handlers)))
                        as Box<dyn fade_monitors::Monitor>,
                )
                .trace_source(
                    e.bench.clone(),
                    Box::new(TimedSource::new(gen, Arc::clone(&t.source))),
                )
        }
        None => builder.monitor(e.monitor).source(e.bench.clone()),
    };
    builder
        .build()
        .expect("grid experiments build")
        .run_measured(WARMUP, MEASURE)
        .expect("grid experiments run clean")
}

/// Everything of a report that must repeat exactly.
pub fn fingerprint(r: &RunReport) -> String {
    format!("{:?}|{:?}", r.stats, r.violations)
}

/// Monitored events (instruction, stack and high-level) of the
/// measured window.
fn measured_events(r: &RunReport) -> u64 {
    r.stats.monitored_events + r.stats.stack_events + r.stats.high_level_events
}

/// Runs the workload: the reference grid as set-up (timed `setups`
/// times), then experiments back to back for `seconds`.
pub fn workload(seed: u64, seconds: f64, trace_mode: bool, setups: usize) -> Outcome {
    let experiments = grid(seed);
    let (refs, setup_s) = timed_setups(setups, || {
        experiments
            .iter()
            .map(|e| fingerprint(&run_one(e, None)))
            .collect::<Vec<_>>()
    });
    let mut out = Outcome::default();
    let run = |k: usize, tracing: Option<&Tracing>| run_one(&experiments[k], tracing);
    let check = |k: usize, report: RunReport| {
        (fingerprint(&report) == refs[k]).then(|| measured_events(&report))
    };
    let t = closed_loop(&mut out, experiments.len(), seconds, trace_mode, run, check);
    if !trace_mode {
        end_to_end(&mut out, setup_s, t.events, t.wall_s, &t.latencies_ms);
        return out;
    }

    let mut l = t.layers();
    l.generate_ns_per_record = ratio(t.source.ns as f64, t.source.units as f64);
    l.generate_share = ratio(t.source.ns as f64, t.traced_ns());
    l.unattributed_share = 1.0 - l.generate_share - l.handler_share;
    standalone(&experiments, &mut l);
    l.render(&mut out);
    out
}

/// Standalone timings of the layers the figure path runs through:
/// selection over a generated prefix of each point, commit
/// fast-forward over each experiment's instruction count, and the
/// cycle-accurate engine per event.
fn standalone(experiments: &[Experiment], l: &mut Layers) {
    let mut times = RecordTimes::default();
    let (mut select_ns, mut instrs, mut records, mut events) = (0.0, 0u64, 0u64, 0u64);
    let (mut commit_ns, mut commit_instrs, mut cycle_ns, mut cycle_events) = (0.0, 0u64, 0.0, 0u64);
    let (mut peak, mut bytes) = (0usize, 0usize);
    for e in experiments
        .iter()
        .filter(|e| e.config.accel != fade_system::Accel::None)
    {
        let trace = record(&e.bench, e.monitor, e.config.seed, 50_000, &mut times);
        let decoded = fade_trace::decode_trace(&trace.bytes)
            .expect("fresh encodings decode")
            .1;
        let monitor = monitor_by_name(e.monitor).expect("grid monitors are builtin");
        let start = Instant::now();
        for r in &decoded {
            if let fade_trace::TraceRecord::Instr(ins) = r {
                std::hint::black_box(monitor.selects(std::hint::black_box(ins)));
            }
        }
        select_ns += start.elapsed().as_nanos() as f64;
        instrs += trace.instrs;
        records += trace.records;
        events += trace.events;

        let start = Instant::now();
        std::hint::black_box(baseline_cycles(
            &e.bench,
            e.config.core,
            e.config.seed,
            WARMUP,
            MEASURE,
        ));
        commit_ns += start.elapsed().as_nanos() as f64;
        commit_instrs += WARMUP + MEASURE;

        let mut session = Session::builder()
            .monitor(e.monitor)
            .source(e.bench.clone())
            .engine(Engine::Cycle)
            .config(e.config)
            .build()
            .expect("grid experiments build");
        let start = Instant::now();
        session
            .run(WARMUP + MEASURE)
            .expect("grid experiments run clean");
        cycle_ns += start.elapsed().as_nanos() as f64;
        cycle_events += session.events_seen();
        peak = peak.max(session.shadow_counters().peak_full_pages);
        bytes = bytes.max(session.shadow_bytes_in_use().bytes);
    }
    l.select_ns_per_record = ratio(select_ns, instrs as f64);
    l.records_per_event = ratio(records as f64, events as f64);
    l.commit_ns_per_instr = ratio(commit_ns, commit_instrs as f64);
    l.cycle_ns_per_event = ratio(cycle_ns, cycle_events as f64);
    l.full_pages_peak = peak as f64;
    l.shadow_bytes = bytes as f64;
}
