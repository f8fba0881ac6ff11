//! Cross-crate integration tests: end-to-end invariants over the full
//! simulation stack.

use fade_repro::accel::FilterMode;
use fade_repro::isa::{layout, Reg, VirtAddr};
use fade_repro::prelude::*;

const WARM: u64 = 10_000;
const MEAS: u64 = 60_000;

/// Builder-constructed equivalent of the deprecated `run_experiment`
/// free function (`tests/session_equivalence.rs` pins the two paths
/// bit-exact).
fn run_experiment(
    b: &BenchProfile,
    monitor: &str,
    cfg: &SystemConfig,
    warmup: u64,
    measure: u64,
) -> RunStats {
    Session::builder()
        .monitor(monitor)
        .source(b)
        .config(*cfg)
        .build()
        .unwrap()
        .run_measured(warmup, measure)
        .unwrap()
        .stats
}

/// A cycle-engine session over `b` with `cfg`.
fn session(b: &BenchProfile, monitor: &str, cfg: &SystemConfig) -> Session {
    Session::builder()
        .monitor(monitor)
        .source(b)
        .config(*cfg)
        .build()
        .unwrap()
}

/// Addresses sampled for state-equality checks: globals, early heap,
/// top-of-stack territory.
fn probe_addrs() -> Vec<VirtAddr> {
    let mut v = Vec::new();
    for i in 0..64 {
        v.push(VirtAddr::new(layout::GLOBALS_BASE + i * 4));
        v.push(VirtAddr::new(layout::HEAP_BASE + i * 4));
        v.push(VirtAddr::new(layout::STACK_TOP - 4096 + i * 4));
    }
    v
}

fn state_fingerprint(sys: &Session) -> Vec<u8> {
    let mut f = Vec::new();
    for r in Reg::all() {
        f.push(sys.state().reg_meta(r));
    }
    for a in probe_addrs() {
        f.push(sys.state().mem_meta(a));
    }
    f
}

/// Invariant 8: same seed, same everything.
#[test]
fn runs_are_deterministic() {
    let b = bench::by_name("gcc").unwrap();
    for cfg in [
        SystemConfig::fade_single_core(),
        SystemConfig::unaccelerated_single_core(),
    ] {
        let a = run_experiment(&b, "MemLeak", &cfg, WARM, MEAS);
        let z = run_experiment(&b, "MemLeak", &cfg, WARM, MEAS);
        assert_eq!(a.cycles, z.cycles, "{}", cfg.label());
        assert_eq!(a.monitored_events, z.monitored_events);
        assert_eq!(a.stack_events, z.stack_events);
    }
}

/// Invariant 5 at system scale: blocking and non-blocking FADE produce
/// the same final metadata and the same event classification.
#[test]
fn blocking_and_non_blocking_agree_functionally() {
    let b = bench::by_name("mcf").unwrap();
    for monitor in ["AddrCheck", "MemCheck", "MemLeak", "TaintCheck"] {
        let mut nb = session(&b, monitor, &SystemConfig::fade_single_core());
        let mut blk = session(
            &b,
            monitor,
            &SystemConfig::fade_single_core().with_mode(FilterMode::Blocking),
        );
        nb.run(50_000).unwrap();
        blk.run(50_000).unwrap();
        assert_eq!(
            state_fingerprint(&nb),
            state_fingerprint(&blk),
            "{monitor}: metadata must not depend on the filtering mode"
        );
        assert!(
            blk.cycles() >= nb.cycles(),
            "{monitor}: blocking cannot be faster"
        );
    }
}

/// Hardware path and pure-software path converge to the same metadata
/// on a full workload (invariants 1+2 at system scale).
#[test]
fn fade_and_software_agree_functionally() {
    let b = bench::by_name("gobmk").unwrap();
    for monitor in ["AddrCheck", "MemCheck", "MemLeak", "TaintCheck"] {
        let mut hw = session(&b, monitor, &SystemConfig::fade_single_core());
        let mut sw = session(&b, monitor, &SystemConfig::unaccelerated_single_core());
        hw.run(50_000).unwrap();
        sw.run(50_000).unwrap();
        assert_eq!(
            state_fingerprint(&hw),
            state_fingerprint(&sw),
            "{monitor}: acceleration must be functionally invisible"
        );
    }
}

/// Invariant 4: every instruction event is accounted for exactly once.
#[test]
fn event_conservation() {
    let b = bench::by_name("astar").unwrap();
    for monitor in ["AddrCheck", "MemLeak", "AtomCheck"] {
        let bench_profile = if monitor == "AtomCheck" {
            bench::by_name("water").unwrap()
        } else {
            b.clone()
        };
        let s = run_experiment(
            &bench_profile,
            monitor,
            &SystemConfig::fade_single_core(),
            WARM,
            MEAS,
        );
        let f = s.fade.expect("accelerated run");
        assert_eq!(
            f.instr_events,
            f.filtered + f.partial_hits + f.unfiltered_instr,
            "{monitor}: filtered + partial + unfiltered must cover all events"
        );
    }
}

/// The headline result holds end-to-end: FADE beats the unaccelerated
/// system for every monitor, and non-blocking beats blocking for the
/// low-filtering-ratio monitors (Section 7.5).
#[test]
fn headline_orderings_hold() {
    let pairs = [
        ("AddrCheck", "gcc"),
        ("MemCheck", "gcc"),
        ("MemLeak", "gcc"),
        ("TaintCheck", "astar-taint"),
        ("AtomCheck", "water"),
    ];
    for (monitor, wl) in pairs {
        let b = bench::by_name(wl).unwrap();
        let un = run_experiment(
            &b,
            monitor,
            &SystemConfig::unaccelerated_single_core(),
            WARM,
            MEAS,
        );
        let fa = run_experiment(&b, monitor, &SystemConfig::fade_single_core(), WARM, MEAS);
        assert!(
            un.slowdown() > fa.slowdown(),
            "{monitor}/{wl}: unaccel {:.2} must exceed FADE {:.2}",
            un.slowdown(),
            fa.slowdown()
        );
    }
    // Non-blocking benefit concentrates where filtering ratios are low.
    let b = bench::by_name("gcc").unwrap();
    let blocking = run_experiment(
        &b,
        "MemLeak",
        &SystemConfig::fade_single_core().with_mode(FilterMode::Blocking),
        WARM,
        MEAS,
    );
    let nb = run_experiment(&b, "MemLeak", &SystemConfig::fade_single_core(), WARM, MEAS);
    assert!(
        blocking.slowdown() / nb.slowdown() > 1.2,
        "non-blocking should clearly win for MemLeak on gcc: {:.2} vs {:.2}",
        blocking.slowdown(),
        nb.slowdown()
    );
}

/// Filtering ratios land in the paper's bands (Table 2 shape).
#[test]
fn filtering_ratio_bands() {
    let expectations = [
        ("AddrCheck", "hmmer", 0.97, 1.0),
        ("MemCheck", "libq", 0.90, 1.0),
        ("MemLeak", "hmmer", 0.90, 1.0),
        ("MemLeak", "gcc", 0.60, 0.90), // the paper's low outlier
        ("TaintCheck", "mcf-taint", 0.70, 0.95),
        ("AtomCheck", "ocean", 0.80, 0.99),
    ];
    for (monitor, wl, lo, hi) in expectations {
        let b = bench::by_name(wl).unwrap();
        let s = run_experiment(&b, monitor, &SystemConfig::fade_single_core(), WARM, MEAS);
        let r = s.filtering_ratio();
        assert!(
            (lo..=hi).contains(&r),
            "{monitor}/{wl}: filtering ratio {r:.3} outside [{lo}, {hi}]"
        );
    }
}

/// Two-core FADE is at least as fast as single-core (Figure 11(a)).
#[test]
fn two_core_never_loses() {
    for (monitor, wl) in [("MemLeak", "gcc"), ("AtomCheck", "stream.")] {
        let b = bench::by_name(wl).unwrap();
        let one = run_experiment(&b, monitor, &SystemConfig::fade_single_core(), WARM, MEAS);
        let two = run_experiment(&b, monitor, &SystemConfig::fade_two_core(), WARM, MEAS);
        assert!(
            two.slowdown() <= one.slowdown() * 1.02,
            "{monitor}/{wl}: two-core {:.2} vs single {:.2}",
            two.slowdown(),
            one.slowdown()
        );
    }
}

/// The live estimate is the reported one: a batched session measured
/// from instruction 0 reports, mid-run, exactly the cycle estimate and
/// production-rate bound its `finish` puts into `RunStats`.
#[test]
fn live_estimate_equals_reported_estimate() {
    let pairs = [
        ("AddrCheck", "hmmer"),
        ("MemCheck", "libq"),
        ("MemLeak", "gcc"),
        ("TaintCheck", "astar-taint"),
        ("AtomCheck", "water"),
    ];
    for (monitor, wl) in pairs {
        let b = bench::by_name(wl).unwrap();
        let cfg = SystemConfig::fade_single_core();
        let mut s = Session::builder()
            .monitor(monitor)
            .source(&b)
            .engine(Engine::batched_with(2048, 512))
            .config(cfg)
            .build()
            .unwrap();
        s.start_measure();
        s.run(MEAS).unwrap();
        s.drain().unwrap();
        let (cycles, rel) = (s.estimated_total_cycles(), s.rel_half_width());
        assert!(
            rel.is_some(),
            "{monitor}/{wl}: enough windows for an interval"
        );
        let baseline = fade_repro::system::baseline_cycles(&b, cfg.core, cfg.seed, 0, MEAS);
        let stats = s.finish(baseline).unwrap().stats;
        assert_eq!(cycles, stats.cycles, "{monitor}/{wl}: cycle estimate");
        let sampling = stats.sampling.expect("batched timing is sampled");
        assert_eq!(
            rel, sampling.rel_half_width,
            "{monitor}/{wl}: rel_half_width"
        );
    }
}

/// `run_measured` is exactly the manual protocol: `run(warmup)`,
/// `start_measure`, `run(measure)`, a `drain` when batched, then
/// `finish` with the matching baseline. Both report the same stats,
/// violations, batch counters and degradation on every engine (only
/// the wall clock differs), and on the unaccelerated system.
#[test]
fn incremental_driving_matches_run_measured() {
    let b = bench::by_name("gcc").unwrap();
    let (warmup, measure) = (WARM, MEAS / 2);
    let fade = SystemConfig::fade_single_core();
    for (engine, cfg) in [
        (Engine::Cycle, fade),
        (Engine::batched_with(2048, 512), fade),
        (Engine::Cycle, SystemConfig::unaccelerated_single_core()),
    ] {
        let build = || {
            Session::builder()
                .monitor("MemLeak")
                .source(&b)
                .engine(engine)
                .config(cfg)
                .build()
                .unwrap()
        };
        let oneshot = build().run_measured(warmup, measure).unwrap();

        let mut s = build();
        s.run(warmup).unwrap();
        s.start_measure();
        s.run(measure).unwrap();
        if let Engine::Batched { .. } = engine {
            s.drain().unwrap();
        }
        let cfg = *s.config();
        let baseline = fade_repro::system::baseline_cycles(&b, cfg.core, cfg.seed, warmup, measure);
        let manual = s.finish(baseline).unwrap();

        assert_eq!(
            format!("{:?}", oneshot.stats),
            format!("{:?}", manual.stats),
            "{engine:?}: stats"
        );
        assert_eq!(
            format!("{:?}", oneshot.violations),
            format!("{:?}", manual.violations),
            "{engine:?}: violations"
        );
        assert_eq!(
            format!("{:?}", oneshot.batch),
            format!("{:?}", manual.batch),
            "{engine:?}: batch"
        );
        assert_eq!(
            format!("{:?}", oneshot.degradation),
            format!("{:?}", manual.degradation),
            "{engine:?}: degradation"
        );
    }
}

/// Every simulated cycle of a measured cycle-engine window is charged
/// exactly once: one occupancy sample and one utilization class per
/// cycle, on every organization and core — including the cycles the
/// engine advances in bulk.
#[test]
fn every_measured_cycle_is_accounted_once() {
    let b = bench::by_name("gcc").unwrap();
    for org in [
        SystemConfig::fade_single_core(),
        SystemConfig::fade_two_core(),
        SystemConfig::unaccelerated_single_core(),
        SystemConfig::unaccelerated_two_core(),
    ] {
        for core in fade_repro::sim::CoreKind::ALL {
            let cfg = org.with_core(core);
            let s = run_experiment(&b, "MemLeak", &cfg, WARM / 2, MEAS / 3);
            let label = cfg.label();
            assert!(s.cycles > 0, "{label}");
            assert_eq!(s.occupancy.total(), s.cycles, "{label}: occupancy samples");
            let u = s.util;
            assert_eq!(
                u.app_idle + u.monitor_idle + u.both,
                s.cycles,
                "{label}: utilization"
            );
        }
    }
}

/// Area/power model reproduces Section 7.6 (paper-vs-measured).
#[test]
fn power_model_matches_paper() {
    let logic = fade_repro::power::fade_logic_report(2.0);
    let cache = fade_repro::power::cache_model(4096, 2, 64, 2.0);
    let total_area = logic.area_mm2() + cache.area_mm2;
    let total_power = logic.peak_power_mw() + cache.peak_power_mw;
    assert!((total_area - 0.12).abs() / 0.12 < 0.10, "area {total_area:.3}");
    assert!((total_power - 273.0).abs() / 273.0 < 0.10, "power {total_power:.0}");
}
