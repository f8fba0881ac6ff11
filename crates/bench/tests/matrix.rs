//! The parallel experiment driver's contract: sharding is invisible.
//!
//! 1. **Determinism under sharding** (property): for any seed and any
//!    worker count, `ExperimentMatrix` returns bit-identical results in
//!    the same order as a single-worker run of the same grid.
//! 2. **No seed aliasing across shards** (regression): a run's RNG
//!    streams derive only from its own `SystemConfig::seed` — never
//!    from which worker or slot executed it — so the same experiment
//!    embedded in different grid positions, grid sizes, and worker
//!    counts always produces the same result as running it alone.

use fade_bench::{Experiment, ExperimentMatrix};
use fade_system::{RunStats, SystemConfig};
use fade_trace::bench;
use proptest::prelude::*;

/// Small windows: the sweep runs whole grids many times.
const WARM: u64 = 1_000;
const MEAS: u64 = 4_000;

fn grid(seed: u64) -> Vec<Experiment> {
    let points = [
        ("mcf", "AddrCheck"),
        ("gcc", "MemLeak"),
        ("hmmer", "MemCheck"),
        ("water", "AtomCheck"),
        ("astar-taint", "TaintCheck"),
        ("gcc", "MemLeak"),
    ];
    points
        .iter()
        .map(|(b, m)| {
            Experiment::new(
                bench::by_name(b).unwrap(),
                *m,
                SystemConfig::fade_single_core().with_seed(seed),
            )
            .window(WARM, MEAS)
        })
        .collect()
}

/// The deterministic face of a run (cycle counts included: same seed ⇒
/// same cycles, sharded or not).
fn fingerprint(s: &RunStats) -> (String, String, u64, u64, u64, u64, u64, Option<[u64; 7]>) {
    (
        s.benchmark.clone(),
        s.monitor.clone(),
        s.app_instrs,
        s.monitored_events,
        s.stack_events,
        s.cycles,
        s.baseline_cycles,
        s.fade.map(|f| f.functional_counters()),
    )
}

/// Runs `m`, keeping each report's statistics.
fn stats(m: ExperimentMatrix) -> Vec<RunStats> {
    m.run().into_reports().into_iter().map(|r| r.stats).collect()
}

fn run_grid(seed: u64, workers: usize) -> Vec<RunStats> {
    let mut m = ExperimentMatrix::new().workers(workers);
    m.extend(grid(seed));
    stats(m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any seed, any worker count: identical results in identical order.
    #[test]
    fn sharded_results_equal_single_worker(seed in 0u64..1_000_000, workers in 2usize..8) {
        let one = run_grid(seed, 1);
        let many = run_grid(seed, workers);
        prop_assert_eq!(one.len(), many.len());
        for (a, b) in one.iter().zip(&many) {
            prop_assert_eq!(fingerprint(a), fingerprint(b));
        }
    }
}

/// Regression: per-run RNG seeds must not alias across shards. The same
/// experiment run (a) alone, (b) first in a grid, (c) last in a grid,
/// with different worker counts, is bit-identical every time — if any
/// worker or slot index leaked into the seed derivation, (b) or (c)
/// would diverge from (a).
#[test]
fn seeds_do_not_alias_across_shards() {
    let solo_exp = || {
        Experiment::new(
            bench::by_name("gcc").unwrap(),
            "MemLeak",
            SystemConfig::fade_single_core().with_seed(0xabcd),
        )
        .window(WARM, MEAS)
    };
    let mut solo_matrix = ExperimentMatrix::new().workers(1);
    solo_matrix.push(solo_exp());
    let solo = fingerprint(&stats(solo_matrix).remove(0));

    for workers in [1, 3] {
        // Embedded first.
        let mut m = ExperimentMatrix::new().workers(workers);
        m.push(solo_exp());
        m.extend(grid(7));
        let first = fingerprint(&stats(m).remove(0));
        assert_eq!(solo, first, "experiment drifted when run first on {workers} workers");

        // Embedded last.
        let mut m = ExperimentMatrix::new().workers(workers);
        m.extend(grid(9));
        m.push(solo_exp());
        let last = fingerprint(stats(m).last().unwrap());
        assert_eq!(solo, last, "experiment drifted when run last on {workers} workers");
    }
}

/// Two experiments differing only in seed must not collapse to the same
/// result (the seed actually reaches the workload).
#[test]
fn distinct_seeds_produce_distinct_runs() {
    let exp = |seed: u64| {
        Experiment::new(
            bench::by_name("gcc").unwrap(),
            "MemLeak",
            SystemConfig::fade_single_core().with_seed(seed),
        )
        .window(WARM, MEAS)
    };
    let mut m = ExperimentMatrix::new().workers(2);
    m.push(exp(1));
    m.push(exp(2));
    let stats = stats(m);
    assert_ne!(
        fingerprint(&stats[0]),
        fingerprint(&stats[1]),
        "different seeds must generate different traces"
    );
}
