//! Full-system throughput and differential harness: wall-clock time of
//! the cycle-accurate and batched engines over one frozen trace prefix.
//!
//! [`record_trace_prefix`] captures the records holding a monitor's
//! first `n` events; [`measure_system_throughput_records`] replays them
//! through both engines and asserts that they agree on every
//! monitor-visible result, so every measurement doubles as a
//! differential check of the batched engine and its cycle estimate.

use std::time::Instant;

use fade::BatchStats;
use fade_monitors::monitor_by_name;
use fade_trace::{BenchProfile, SyntheticProgram, TraceRecord};

use crate::config::SystemConfig;
use crate::session::{Engine, Session};
use crate::system::{select_event, ReplayBuffer};

/// Measured throughput of the *full system* (commit process, queues,
/// monitor thread) in cycle-accurate vs batched execution mode — the
/// number the batched system mode exists to move.
#[derive(Clone, Debug)]
pub struct SystemThroughputReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Monitor name.
    pub monitor: String,
    /// Monitored events processed by each mode (identical streams).
    pub events: u64,
    /// Application instructions retired by each mode.
    pub instrs: u64,
    /// Wall-clock seconds of the cycle-accurate run.
    pub cycle_s: f64,
    /// Wall-clock seconds of the batched run.
    pub batched_s: f64,
    /// Batched-run fast-path breakdown.
    pub batch: BatchStats,
    /// Simulated cycles of the cycle-accurate run (exact).
    pub exact_cycles: u64,
    /// Simulated cycles the batched run estimated from its samples.
    pub estimated_cycles: u64,
    /// Sampling period the batched run used (monitored events).
    pub sample_period: u64,
    /// Cycle-accurate window length the batched run used.
    pub sample_window: u64,
    /// Relative half-width of the 95% CI on the batched run's total
    /// cycle estimate — the production rate's error bound (`None` with
    /// fewer than two sampled windows).
    pub rel_half_width: Option<f64>,
    /// Carried-congestion handler cycles seeded into sampling windows.
    pub carried_seed_cycles: u64,
    /// Per-congestion-stratum interval breakdown of the batched run's
    /// sampling estimator (empty when nothing was sampled).
    pub strata: Vec<fade_sim::StratumStat>,
}

impl SystemThroughputReport {
    /// Monitored events per second, cycle-accurate mode.
    pub fn cycle_rate(&self) -> f64 {
        self.events as f64 / self.cycle_s.max(1e-12)
    }

    /// Monitored events per second, batched mode.
    pub fn batched_rate(&self) -> f64 {
        self.events as f64 / self.batched_s.max(1e-12)
    }

    /// Batched-over-cycle wall-clock speedup.
    pub fn speedup(&self) -> f64 {
        self.cycle_s / self.batched_s.max(1e-12)
    }

    /// Fraction of batched-run events on the short-circuit fast path.
    pub fn fast_path_fraction(&self) -> f64 {
        self.batch.fast_path_fraction()
    }

    /// Relative error of the sampled cycle estimate vs the exact count.
    pub fn cycle_error(&self) -> f64 {
        let exact = self.exact_cycles.max(1) as f64;
        (self.estimated_cycles as f64 - exact).abs() / exact
    }
}

/// The trace prefix holding the first `n_events` monitored events for
/// this monitor and seed: the records themselves plus the instruction
/// count (the generator is deterministic, so both execution modes can
/// be driven over exactly this prefix). This is the capture half of
/// record/replay: write the records to a `.fadet` file with
/// [`fade_trace::write_trace_file`] and any later run can replay them
/// through [`measure_system_throughput_records`] or a
/// [`crate::Session`] over a [`ReplayBuffer`] without a generator.
///
/// # Panics
///
/// Panics if the monitor is unknown.
pub fn record_trace_prefix(
    bench: &BenchProfile,
    monitor_name: &str,
    seed: u64,
    n_events: u64,
) -> (Vec<TraceRecord>, u64) {
    let monitor = monitor_by_name(monitor_name)
        .unwrap_or_else(|| panic!("unknown monitor {monitor_name}"));
    let monitors_stack = monitor.monitors_stack();
    let mut gen = SyntheticProgram::new(bench, seed);
    let mut events = 0u64;
    let mut instrs = 0u64;
    let mut records = Vec::new();
    let mut batch = Vec::new();
    while events < n_events {
        batch.clear();
        gen.next_records_into(&mut batch, 4096);
        for r in &batch {
            records.push(*r);
            if let TraceRecord::Instr(_) = r {
                instrs += 1;
            }
            if select_event(monitor.as_ref(), monitors_stack, r).is_some() {
                events += 1;
                if events == n_events {
                    break;
                }
            }
        }
    }
    (records, instrs)
}

/// Measures full-system throughput for one (benchmark, monitor) point:
/// the same `n_events`-event trace prefix is generated once (outside
/// the timed region) and then
/// replayed once cycle-accurately and once batched (with `cfg`'s
/// sampling period), both to the exact same instruction, and the
/// wall-clock times of the execution engines compared.
///
/// Every measurement doubles as a differential check: the two runs must
/// finish with identical metadata state, violation reports and
/// functional accelerator counters.
///
/// # Panics
///
/// Panics if the monitor is unknown, or if the two modes diverge in any
/// monitor-visible result (which the differential harness would flag as
/// a batched-mode bug).
pub fn measure_system_throughput(
    bench: &BenchProfile,
    monitor_name: &str,
    cfg: &SystemConfig,
    n_events: u64,
) -> SystemThroughputReport {
    let (records, instrs) = record_trace_prefix(bench, monitor_name, cfg.seed, n_events);
    measure_system_throughput_records(bench, monitor_name, cfg, records, instrs)
}

/// [`measure_system_throughput`] over a caller-provided record buffer —
/// the replay half of record/replay: feed it the records of a recorded
/// `.fadet` trace (`fade_trace::read_trace_file`) and `instrs` retired
/// instructions to consume, and both engines run the identical frozen
/// workload. A buffer holding fewer than `instrs` instructions (a
/// truncated trace) stops both engines cleanly at its end; the report's
/// `instrs` is what actually retired.
///
/// # Panics
///
/// Panics if the monitor is unknown, or if the two modes diverge in
/// retired instructions or any monitor-visible result.
pub fn measure_system_throughput_records(
    bench: &BenchProfile,
    monitor_name: &str,
    cfg: &SystemConfig,
    records: Vec<TraceRecord>,
    instrs: u64,
) -> SystemThroughputReport {
    let replay = |records: Vec<TraceRecord>, engine: Engine| -> Session {
        Session::builder()
            .monitor(monitor_name)
            .trace_source(bench.clone(), Box::new(ReplayBuffer::new(records)))
            .engine(engine)
            .config(*cfg)
            .build()
            .unwrap_or_else(|e| panic!("cannot build a {monitor_name} replay session: {e}"))
    };
    let mut cycle_sys = replay(records.clone(), Engine::Cycle);
    let start = Instant::now();
    cycle_sys
        .run_exact(instrs)
        .and_then(|()| cycle_sys.drain())
        .unwrap_or_else(|e| panic!("cycle-accurate replay failed: {e}"));
    let cycle_s = start.elapsed().as_secs_f64();

    let mut batched_sys = replay(records, Engine::batched());
    let start = Instant::now();
    batched_sys
        .run(instrs)
        .and_then(|()| batched_sys.drain())
        .unwrap_or_else(|e| panic!("batched replay failed: {e}"));
    let batched_s = start.elapsed().as_secs_f64();

    assert_eq!(
        cycle_sys.instrs(),
        batched_sys.instrs(),
        "modes retired different instruction counts for {monitor_name} on {}",
        bench.name
    );
    assert_eq!(
        cycle_sys.events_seen(),
        batched_sys.events_seen(),
        "modes consumed different event streams for {monitor_name} on {}",
        bench.name
    );
    assert!(
        cycle_sys.state() == batched_sys.state(),
        "batched metadata state diverged for {monitor_name} on {}",
        bench.name
    );
    assert_eq!(
        cycle_sys.monitor().reports(),
        batched_sys.monitor().reports(),
        "batched violation reports diverged for {monitor_name} on {}",
        bench.name
    );
    let (cf, bf) = (
        cycle_sys.fade_stats().map(|f| f.functional_counters()),
        batched_sys.fade_stats().map(|f| f.functional_counters()),
    );
    assert_eq!(
        cf, bf,
        "batched functional counters diverged for {monitor_name} on {}",
        bench.name
    );

    SystemThroughputReport {
        benchmark: bench.name.to_string(),
        monitor: monitor_name.to_string(),
        events: cycle_sys.events_seen(),
        instrs: cycle_sys.instrs(),
        cycle_s,
        batched_s,
        batch: batched_sys.batch_stats(),
        exact_cycles: cycle_sys.cycles(),
        estimated_cycles: batched_sys.estimated_total_cycles(),
        sample_period: cfg.sample_period,
        sample_window: cfg.sample_window,
        rel_half_width: batched_sys.rel_half_width(),
        carried_seed_cycles: batched_sys.carried_seed_cycles(),
        strata: batched_sys.sampling_strata(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fade_trace::bench;

    #[test]
    fn system_throughput_modes_agree_and_estimate_cycles() {
        let b = bench::by_name("hmmer").unwrap();
        let cfg = SystemConfig::fade_single_core()
            .with_sample_period(2048)
            .with_sample_window(512);
        // measure_system_throughput asserts the differential invariants
        // (state, reports, functional counters) internally.
        let r = measure_system_throughput(&b, "AddrCheck", &cfg, 20_000);
        assert_eq!(r.events, 20_000);
        assert!(r.batch.events > 0, "some events must run batched");
        assert!(r.exact_cycles > 0 && r.estimated_cycles > 0);
        // Coarse sanity here; the differential harness pins the ±5%
        // tolerance on full-size traces.
        assert!(r.cycle_error() < 0.25, "cycle error {}", r.cycle_error());
    }

    #[test]
    fn replay_from_recorded_buffer_matches_generated_prefix() {
        let b = bench::by_name("hmmer").unwrap();
        let cfg = SystemConfig::fade_single_core()
            .with_sample_period(2048)
            .with_sample_window(512);
        let (records, instrs) = record_trace_prefix(&b, "AddrCheck", cfg.seed, 20_000);
        // Driving the replayed buffer differentially checks both
        // engines against each other over the frozen trace.
        let r = measure_system_throughput_records(&b, "AddrCheck", &cfg, records.clone(), instrs);
        assert_eq!(r.events, 20_000);
        assert_eq!(r.instrs, instrs);

        // A truncated trace stops both engines at its end: the report
        // counts the instructions that retired, not the request.
        let short = records[..records.len() / 2].to_vec();
        let short_instrs = short.iter().filter(|r| matches!(r, TraceRecord::Instr(_))).count();
        let r = measure_system_throughput_records(&b, "AddrCheck", &cfg, short, instrs);
        assert_eq!(r.instrs, short_instrs as u64);
        assert!(r.events < 20_000);
    }

    #[test]
    fn degenerate_reports_stay_finite() {
        // A zero-event report (e.g. a run whose window held no batched
        // stretch) must serialize finite numbers: the fast-path
        // fraction is defined as 0.0, every rate is guarded, and the
        // cycle error never divides by zero. These land unguarded in
        // BENCH_pipeline.json.
        let r = SystemThroughputReport {
            benchmark: "none".into(),
            monitor: "none".into(),
            events: 0,
            instrs: 0,
            cycle_s: 0.0,
            batched_s: 0.0,
            batch: BatchStats::default(),
            exact_cycles: 0,
            estimated_cycles: 0,
            sample_period: 0,
            sample_window: 0,
            rel_half_width: None,
            carried_seed_cycles: 0,
            strata: Vec::new(),
        };
        for v in [
            r.fast_path_fraction(),
            r.cycle_rate(),
            r.batched_rate(),
            r.speedup(),
            r.cycle_error(),
        ] {
            assert!(v.is_finite(), "degenerate report leaked {v}");
        }
        assert_eq!(r.fast_path_fraction(), 0.0);
    }
}
