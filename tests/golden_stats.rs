//! Golden-stats regression tests.
//!
//! * `batched_stats_match_golden_snapshot` runs two fixed-seed
//!   workloads through the batched engine and snapshots the functional
//!   result (events, accelerator counters, fast-path fraction,
//!   violations, metadata fingerprint) into
//!   `tests/golden/batched_stats.txt`.
//! * `run_stats_match_golden_snapshot` runs the same two workloads
//!   through `Session::run_measured` on the cycle, batched and
//!   unaccelerated engines and snapshots every scalar of the measured
//!   window's `RunStats` (timing, handler classes, histograms, sampling
//!   summary) into `tests/golden/run_stats.txt`, plus gcc/MemLeak on
//!   the two-core systems and on the in-order and 2-way cores.
//!
//! Every quantity in either snapshot is deterministic — same seed, same
//! trace, same filtering and timing decisions — so any diff is a real
//! behaviour change, not noise.
//!
//! To regenerate the golden files after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p fade-repro --test golden_stats
//! ```
//!
//! then review the diff of `tests/golden/` like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use fade_repro::isa::{layout, Reg, VirtAddr};
use fade_repro::prelude::*;
use fade_repro::sim::{CoreKind, LogHistogram};
use fade_repro::trace::bench;

/// Instructions per workload: enough to cross several sampling periods.
const INSTRS: u64 = 60_000;

/// Warmup and measured-window instructions of each `RunStats` run:
/// short enough for debug builds, long enough to span many sampling
/// periods on the batched engine.
const RUN_WARMUP: u64 = 10_000;
const RUN_MEASURE: u64 = 40_000;

fn golden_path(file: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/repro; the golden files live in the
    // repository-root tests/ directory next to this test's source.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file)
}

/// Compares `snapshot` against the golden file, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn check_golden(file: &str, snapshot: &str) {
    let path = golden_path(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, snapshot).expect("write golden file");
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        golden, snapshot,
        "{file} drifted from the golden snapshot; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// FNV-1a over the monitor-visible metadata: all register metadata plus
/// probes across globals, heap, and stack territory.
fn state_fingerprint(sys: &Session) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for r in Reg::all() {
        mix(sys.state().reg_meta(r));
    }
    for i in 0..4096u32 {
        mix(sys.state().mem_meta(VirtAddr::new(layout::GLOBALS_BASE + i * 4)));
        mix(sys.state().mem_meta(VirtAddr::new(layout::HEAP_BASE + i * 4)));
        mix(sys.state().mem_meta(VirtAddr::new(layout::STACK_TOP - 16 * 4096 + i * 4)));
    }
    h
}

fn snapshot_one(bench_name: &str, monitor: &str, out: &mut String) {
    let b = bench::by_name(bench_name).unwrap();
    let cfg = SystemConfig::fade_single_core()
        .with_sample_period(2048)
        .with_sample_window(512);
    let mut sys = Session::builder()
        .monitor(monitor)
        .source(b)
        .engine(Engine::batched())
        .config(cfg)
        .build()
        .unwrap();
    sys.run(INSTRS).unwrap();
    sys.drain().unwrap();

    let f = sys.fade_stats().expect("FADE config");
    let bs = sys.batch_stats();
    let reports = sys.monitor().reports();
    writeln!(out, "[{bench_name}/{monitor}]").unwrap();
    writeln!(out, "instrs = {}", sys.instrs()).unwrap();
    writeln!(out, "events = {}", sys.events_seen()).unwrap();
    writeln!(out, "instr_events = {}", f.instr_events).unwrap();
    writeln!(out, "filtered = {}", f.filtered).unwrap();
    writeln!(out, "partial_hits = {}", f.partial_hits).unwrap();
    writeln!(out, "unfiltered_instr = {}", f.unfiltered_instr).unwrap();
    writeln!(out, "stack_updates = {}", f.stack_updates).unwrap();
    writeln!(out, "high_level = {}", f.high_level).unwrap();
    writeln!(out, "shots = {}", f.shots).unwrap();
    writeln!(out, "batch_events = {}", bs.events).unwrap();
    writeln!(out, "batch_fast_path = {}", bs.fast_path).unwrap();
    writeln!(out, "batch_fallback = {}", bs.fallback).unwrap();
    writeln!(out, "batch_dispatched = {}", bs.dispatched).unwrap();
    writeln!(out, "fast_path_fraction = {:.4}", bs.fast_path_fraction()).unwrap();
    writeln!(out, "violations = {}", reports.len()).unwrap();
    for r in reports.iter().take(3) {
        writeln!(out, "violation = {r}").unwrap();
    }
    writeln!(out, "state_fingerprint = {:#018x}", state_fingerprint(&sys)).unwrap();
    writeln!(out).unwrap();
}

#[test]
fn batched_stats_match_golden_snapshot() {
    let mut snapshot = String::from(
        "# Golden batched-mode stats snapshot (see tests/golden_stats.rs;\n\
         # regenerate with UPDATE_GOLDEN=1 after intentional changes).\n\n",
    );
    snapshot_one("gcc", "MemLeak", &mut snapshot);
    snapshot_one("hmmer", "AddrCheck", &mut snapshot);
    check_golden("batched_stats.txt", &snapshot);
}

fn write_histogram(out: &mut String, name: &str, h: &LogHistogram) {
    writeln!(
        out,
        "{name} = total {} mean {:?} p50 {} p90 {}",
        h.total(),
        h.mean(),
        h.percentile(50.0),
        h.percentile(90.0)
    )
    .unwrap();
}

/// Snapshots one `run_measured` report. `cfg` defaults to the FADE
/// single-core 4-way system; other systems are named in the section
/// header by topology and core.
fn run_stats_one(
    bench_name: &str,
    monitor: &str,
    engine: Engine,
    cfg: Option<SystemConfig>,
    out: &mut String,
) {
    let report = Session::builder()
        .monitor(monitor)
        .source(bench::by_name(bench_name).unwrap())
        .engine(engine)
        .config(cfg.unwrap_or_else(SystemConfig::fade_single_core))
        .build()
        .unwrap()
        .run_measured(RUN_WARMUP, RUN_MEASURE)
        .unwrap();
    let s = &report.stats;
    match cfg {
        None => writeln!(out, "[{bench_name}/{monitor}/{engine:?}]").unwrap(),
        Some(c) => writeln!(
            out,
            "[{bench_name}/{monitor}/{engine:?}/{} {}]",
            c.topology, c.core
        )
        .unwrap(),
    }
    writeln!(out, "system = {}", s.system).unwrap();
    writeln!(out, "app_instrs = {}", s.app_instrs).unwrap();
    writeln!(out, "monitored_events = {}", s.monitored_events).unwrap();
    writeln!(out, "stack_events = {}", s.stack_events).unwrap();
    writeln!(out, "high_level_events = {}", s.high_level_events).unwrap();
    writeln!(out, "cycles = {}", s.cycles).unwrap();
    writeln!(out, "baseline_cycles = {}", s.baseline_cycles).unwrap();
    writeln!(out, "class_instrs = {:?}", s.class_instrs).unwrap();
    writeln!(out, "util = {:?}", s.util).unwrap();
    write_histogram(out, "occupancy", &s.occupancy);
    write_histogram(out, "unfiltered_distances", &s.unfiltered_distances);
    write_histogram(out, "burst_sizes", &s.burst_sizes);
    writeln!(out, "fade = {:#?}", s.fade).unwrap();
    writeln!(out, "sampling = {:#?}", s.sampling).unwrap();
    writeln!(out).unwrap();
}

#[test]
fn run_stats_match_golden_snapshot() {
    let mut snapshot = String::from(
        "# Golden measured-window RunStats snapshot (see tests/golden_stats.rs;\n\
         # regenerate with UPDATE_GOLDEN=1 after intentional changes).\n\n",
    );
    for (bench_name, monitor) in [("gcc", "MemLeak"), ("hmmer", "AddrCheck")] {
        // The 8192/2048 batched point has windows long enough to seed
        // carried congestion; the 2048/512 one never seeds.
        for engine in [
            Engine::Cycle,
            Engine::batched_with(2048, 512),
            Engine::batched_with(8192, 2048),
            Engine::Unaccelerated,
        ] {
            run_stats_one(bench_name, monitor, engine, None, &mut snapshot);
        }
    }
    // Systems off the default single-core 4-way point, on one workload:
    // the two-core topology (FADE and unaccelerated) and the narrower
    // cores on both engines. These reach the cycle engine's idle-stall
    // accounting on every topology and core width.
    let batched = Engine::batched_with(2048, 512);
    let two_core = SystemConfig::fade_two_core();
    let in_order = SystemConfig::fade_single_core().with_core(CoreKind::InOrder1);
    let two_way = SystemConfig::fade_single_core().with_core(CoreKind::LeanOoO2);
    for (engine, cfg) in [
        (Engine::Cycle, two_core),
        (batched, two_core),
        (Engine::Unaccelerated, two_core),
        (Engine::Cycle, in_order),
        (batched, in_order),
        (Engine::Cycle, two_way),
        (batched, two_way),
    ] {
        run_stats_one("gcc", "MemLeak", engine, Some(cfg), &mut snapshot);
    }
    check_golden("run_stats.txt", &snapshot);
}
