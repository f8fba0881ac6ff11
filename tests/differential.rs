//! Differential test harness: batched execution vs the cycle-accurate
//! reference engine.
//!
//! The batched engine (`Session` with `Engine::batched()`) promises
//! two things, and this harness is the contract that makes refactoring
//! either engine safe:
//!
//! 1. **Bit-exact monitor results.** For every monitor and benchmark
//!    profile, the final [`MetadataState`], the violation reports, and
//!    the accelerator's functional event counters (filtered / partial /
//!    unfiltered / stack / high-level / shots) are identical to a
//!    cycle-accurate run over the same trace prefix.
//! 2. **Sampled timing within tolerance.** The extrapolated cycle count
//!    is within [`CYCLE_TOLERANCE`] of the exact cycle count on
//!    full-size traces.

use fade_repro::monitors::all_monitors;
use fade_repro::prelude::*;
use fade_repro::system::measure_system_throughput;
use fade_repro::trace::bench;

mod common;
use common::{assert_monitor_visible_equal, suite_for};

/// Documented tolerance of the sampled cycle estimate vs a full
/// cycle-accurate simulation (relative error), at the *default*
/// (25%-sampled) configuration, on both the app-bound and the
/// congested monitor-bound workload. The congestion-carrying sampling
/// window (handler-backlog seed + steady-state tail residual) is what
/// holds the monitor-bound point inside this bound without denser
/// sampling; this test is the accuracy-regression gate that keeps the
/// drained-queue bias from silently returning.
const CYCLE_TOLERANCE: f64 = 0.05;

/// Instructions per (monitor, benchmark) point in the exhaustive sweep:
/// small traces, since the sweep covers every pair.
const SWEEP_INSTRS: u64 = 25_000;

/// Runs one session over exactly `instrs` instructions with the given
/// engine, drained so nothing is left in flight.
fn run(bench: &BenchProfile, monitor: &str, cfg: &SystemConfig, instrs: u64, batched: bool) -> Session {
    let engine = if batched { Engine::batched() } else { Engine::Cycle };
    let mut sys = Session::builder()
        .monitor(monitor)
        .source(bench)
        .engine(engine)
        .config(*cfg)
        .build()
        .unwrap_or_else(|e| panic!("{monitor}/{}: {e}", bench.name));
    sys.run_exact(instrs).unwrap();
    sys.drain().unwrap();
    sys
}

/// Every monitor, over a small trace of each profile of its suite:
/// batched mode is bit-exact with cycle mode in everything a monitor
/// can observe.
#[test]
fn batched_matches_cycle_for_every_monitor_and_profile() {
    for monitor in all_monitors() {
        let name = monitor.name();
        for b in suite_for(name) {
            // A sampling period small enough that every trace exercises
            // several batch→cycle→batch transitions.
            let cfg = SystemConfig::fade_single_core()
                .with_sample_period(1024)
                .with_sample_window(256);
            let cycle = run(&b, name, &cfg, SWEEP_INSTRS, false);
            let batched = run(&b, name, &cfg, SWEEP_INSTRS, true);
            assert!(batched.batch_stats().events > 0, "{name}/{}: batched path unused", b.name);
            assert_monitor_visible_equal(&cycle, &batched, &format!("{name}/{}", b.name));
        }
    }
}

/// The blocking filtering mode follows the same differential contract
/// (its batched fallback pays the resume latency in `settle`).
#[test]
fn batched_matches_cycle_in_blocking_mode() {
    let b = bench::by_name("gcc").unwrap();
    let cfg = SystemConfig::fade_single_core()
        .with_mode(FilterMode::Blocking)
        .with_sample_period(1024)
        .with_sample_window(256);
    let cycle = run(&b, "MemLeak", &cfg, SWEEP_INSTRS, false);
    let batched = run(&b, "MemLeak", &cfg, SWEEP_INSTRS, true);
    assert_monitor_visible_equal(&cycle, &batched, "MemLeak/gcc blocking");
}

/// Sampled cycle estimates stay within the documented tolerances of
/// the exact cycle count on full-size (200k-event) traces — the
/// acceptance bar of the batched system mode, and the regression guard
/// for the estimator. Each point also demonstrates a real wall-clock
/// speedup over cycle-accurate execution (asserted conservatively:
/// wall-clock is noisy in CI; the measured ratios — the `speedup`
/// column of the `system_results` rows, at the default sampling
/// configuration — are reported by `reproduce_all`).
/// (`measure_system_throughput` also re-checks bit-exactness.)
#[test]
fn sampled_cycle_estimates_within_tolerance() {
    // Wall-clock speedups are asserted on the best of a few attempts:
    // the simulated-cycle checks are deterministic, but the timing
    // ratio compares two wall-clock measurements and the workspace test
    // run saturates every core (the sharded-matrix suite spawns worker
    // threads), so a single contended measurement can schedule one
    // engine away. A real regression — batched genuinely no faster —
    // fails every attempt.
    fn assert_speedup_with_retry(
        measure: impl Fn() -> fade_repro::system::SystemThroughputReport,
        bar: f64,
        what: &str,
    ) {
        let mut best = 0.0f64;
        for _ in 0..3 {
            best = best.max(measure().speedup());
            if best > bar {
                return;
            }
        }
        panic!("{what}: batched mode should beat cycle mode by {bar}x (best of 3: {best:.2}x)");
    }

    // Both evaluation points run the *default* 25%-sampled
    // configuration: since the congestion-carrying sampling window, the
    // monitor-bound gcc/MemLeak point no longer needs denser sampling
    // to reach ±5% (measured: ~-0.6% vs ~-7% before the fix).
    let points = [
        ("hmmer", "AddrCheck", SystemConfig::fade_single_core(), 1.3),
        ("gcc", "MemLeak", SystemConfig::fade_single_core(), 1.5),
    ];
    for (bench_name, monitor, cfg, speedup_bar) in points {
        let b = bench::by_name(bench_name).unwrap();
        let r = measure_system_throughput(&b, monitor, &cfg, 200_000);
        assert!(
            r.cycle_error() <= CYCLE_TOLERANCE,
            "{bench_name}/{monitor}: estimated {} vs exact {} cycles ({:.2}% error, tolerance {:.0}%)",
            r.estimated_cycles,
            r.exact_cycles,
            100.0 * r.cycle_error(),
            100.0 * CYCLE_TOLERANCE,
        );
        if r.speedup() <= speedup_bar {
            assert_speedup_with_retry(
                || measure_system_throughput(&b, monitor, &cfg, 200_000),
                speedup_bar,
                &format!("{bench_name}/{monitor}"),
            );
        }
    }
    // Denser 50% sampling must stay inside the same tolerance on the
    // congested point (accuracy can only improve with more windows).
    let b = bench::by_name("gcc").unwrap();
    let dense = SystemConfig::fade_single_core()
        .with_sample_period(8_192)
        .with_sample_window(4_096);
    let r = measure_system_throughput(&b, "MemLeak", &dense, 200_000);
    assert!(
        r.cycle_error() <= CYCLE_TOLERANCE,
        "gcc/MemLeak at 50% sampling: {:.2}% error, tolerance {:.0}%",
        100.0 * r.cycle_error(),
        100.0 * CYCLE_TOLERANCE,
    );
}

/// Documented bound on the production-rate 95% CI (`rel_half_width` of
/// the total cycle estimate) at the default 25% sampling, for
/// app-bound workloads: the residual is a few percent of the total, so
/// even a loose residual interval pins the rate tightly.
const RATE_CI_APP_BOUND: f64 = 0.10;

/// Same bound for the congested monitor-bound workload. gcc/MemLeak's
/// residual is ~half the total cycle count and its window-to-window
/// spread is genuine long-wave queueing (queue-full commit stalls
/// alternating with handler idle — burst-phase episodes that no
/// batched-path-observable covariate predicts), so with 12 windows the
/// honest interval sits near ±18%; the ≤10% ROADMAP goal would need
/// denser sampling, which the cycle-accuracy bound forbids at 25%.
/// This guard keeps the interval from regressing while the gap stays
/// an open ROADMAP item.
const RATE_CI_MONITOR_BOUND: f64 = 0.25;

/// The production-rate confidence interval stays inside the documented
/// bounds at the default sampling configuration, built from at least
/// two sampled windows. This is the release-CI accuracy step's second
/// gate, next to the [`CYCLE_TOLERANCE`] bound on the point estimate.
#[test]
fn sampled_rate_ci_within_bounds() {
    let points = [
        ("hmmer", "AddrCheck", RATE_CI_APP_BOUND),
        ("gcc", "MemLeak", RATE_CI_MONITOR_BOUND),
    ];
    for (bench_name, monitor, bound) in points {
        let b = bench::by_name(bench_name).unwrap();
        let cfg = SystemConfig::fade_single_core();
        let r = measure_system_throughput(&b, monitor, &cfg, 200_000);
        let rel = r.rel_half_width.unwrap_or_else(|| {
            panic!("{bench_name}/{monitor}: default sampling must produce a CI")
        });
        assert!(
            rel <= bound,
            "{bench_name}/{monitor}: production-rate CI half-width {rel:.3} over bound {bound}",
        );
        assert!(
            r.windows >= 2,
            "{bench_name}/{monitor}: too few windows: {}",
            r.windows
        );
    }
}

/// Unaccelerated systems take the documented fallback: `run_batched`
/// runs them cycle-accurately, so results (and timing) match exactly.
#[test]
fn unaccelerated_batched_falls_back_to_cycle() {
    let b = bench::by_name("mcf").unwrap();
    let cfg = SystemConfig::unaccelerated_single_core();
    let cycle = run(&b, "AddrCheck", &cfg, 15_000, false);
    let batched = run(&b, "AddrCheck", &cfg, 15_000, true);
    assert_monitor_visible_equal(&cycle, &batched, "AddrCheck/mcf unaccelerated");
    assert_eq!(cycle.cycles(), batched.cycles(), "fallback timing is exact");
    assert_eq!(batched.batch_stats().events, 0);
}
