//! Golden-stats regression test for the batched system mode.
//!
//! Runs two fixed-seed workloads through `MonitoringSystem::run_batched`
//! and compares a full stats snapshot (events, functional accelerator
//! counters, fast-path fraction, violations, metadata fingerprint)
//! against a committed golden file. Every quantity in the snapshot is
//! deterministic — same seed, same trace, same filtering decisions —
//! so any diff is a real behaviour change, not noise.
//!
//! To regenerate the golden file after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p fade-repro --test golden_stats
//! ```
//!
//! then review the diff of `tests/golden/batched_stats.txt` like any
//! other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use fade_repro::isa::{layout, Reg, VirtAddr};
use fade_repro::prelude::*;
use fade_repro::trace::bench;

/// Instructions per workload: enough to cross several sampling periods.
const INSTRS: u64 = 60_000;

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/repro; the golden files live in the
    // repository-root tests/ directory next to this test's source.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/batched_stats.txt")
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

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &snapshot).expect("write golden file");
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
        "batched-mode stats drifted from the golden snapshot; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1 and \
         review the diff"
    );
}
