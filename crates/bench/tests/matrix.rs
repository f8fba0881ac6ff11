//! The sharding contract of `Runs`: the worker count is invisible.
//!
//! 1. **Determinism under sharding** (property): for any seed and any
//!    worker count, a `Runs` table holds bit-identical results to a
//!    single-worker table that ran the same grid.
//! 2. **No seed aliasing across shards** (regression): a run's RNG
//!    streams derive only from its own `SystemConfig::seed` — never
//!    from which worker or slot executed it — so the same experiment
//!    embedded in different grid positions, grid sizes, and worker
//!    counts always produces the same result as running it alone.
//!
//! Every test runs short windows: `FADE_WARMUP` and `FADE_MEASURE` are
//! set once, before any experiment is declared.

use std::slice::from_ref;
use std::sync::Once;

use fade_bench::experiments::{Entry, Runs};
use fade_system::{RunStats, SystemConfig};
use proptest::prelude::*;

/// (benchmark, monitor) points of the test grid.
const POINTS: [(&str, &str); 5] = [
    ("mcf", "AddrCheck"),
    ("gcc", "MemLeak"),
    ("hmmer", "MemCheck"),
    ("water", "AtomCheck"),
    ("astar-taint", "TaintCheck"),
];

/// Small windows: the sweep runs whole grids many times.
fn short_windows() {
    static SET: Once = Once::new();
    SET.call_once(|| {
        std::env::set_var("FADE_WARMUP", "1000");
        std::env::set_var("FADE_MEASURE", "4000");
    });
}

fn config(seed: u64) -> SystemConfig {
    SystemConfig::fade_single_core().with_seed(seed)
}

/// `bench` under `monitor` alone, at `seed`.
fn point<'a>(bench: &'a &'a str, monitor: &'a &'a str, seed: u64) -> Entry<'a> {
    Entry::new(from_ref(monitor), config(seed)).on(from_ref(bench))
}

fn grid(seed: u64) -> Vec<Entry<'static>> {
    POINTS.iter().map(|(b, m)| point(b, m, seed)).collect()
}

/// The deterministic face of a run (cycle counts included: same seed ⇒
/// same cycles, sharded or not).
type Fingerprint = (String, String, u64, u64, u64, u64, u64, Option<[u64; 7]>);

fn fingerprint(s: &RunStats) -> Fingerprint {
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

fn run_grid(seed: u64, workers: usize) -> Vec<Fingerprint> {
    short_windows();
    let mut runs = Runs::new(workers);
    runs.run("grid", &grid(seed));
    POINTS
        .iter()
        .map(|(b, m)| fingerprint(runs.get(m, b, &config(seed), None)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any seed, any worker count: identical results.
    #[test]
    fn sharded_results_equal_single_worker(seed in 0u64..1_000_000, workers in 2usize..8) {
        prop_assert_eq!(run_grid(seed, 1), run_grid(seed, workers));
    }
}

/// Regression: per-run RNG seeds must not alias across shards. The same
/// experiment run (a) alone, (b) first in a grid, (c) last in a grid,
/// with different worker counts, is bit-identical every time — if any
/// worker or slot index leaked into the seed derivation, (b) or (c)
/// would diverge from (a).
#[test]
fn seeds_do_not_alias_across_shards() {
    short_windows();
    const SEED: u64 = 0xabcd;
    let solo = || point(&"gcc", &"MemLeak", SEED);
    let run = |workers: usize, grid: Vec<Entry>| {
        let mut runs = Runs::new(workers);
        runs.run("grid", &grid);
        fingerprint(runs.get("MemLeak", "gcc", &config(SEED), None))
    };
    let alone = run(1, vec![solo()]);

    for workers in [1, 3] {
        let first = run(workers, std::iter::once(solo()).chain(grid(7)).collect());
        assert_eq!(alone, first, "experiment drifted when run first on {workers} workers");
        let last = run(workers, grid(9).into_iter().chain([solo()]).collect());
        assert_eq!(alone, last, "experiment drifted when run last on {workers} workers");
    }
}

/// Two experiments differing only in seed must not collapse to the same
/// result (the seed actually reaches the workload).
#[test]
fn distinct_seeds_produce_distinct_runs() {
    short_windows();
    let mut runs = Runs::new(2);
    runs.run("seeds", &[point(&"gcc", &"MemLeak", 1), point(&"gcc", &"MemLeak", 2)]);
    assert_ne!(
        fingerprint(runs.get("MemLeak", "gcc", &config(1), None)),
        fingerprint(runs.get("MemLeak", "gcc", &config(2), None)),
        "different seeds must generate different traces"
    );
}
