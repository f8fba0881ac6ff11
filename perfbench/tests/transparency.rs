//! The timing wrappers must be invisible: at a small size, every
//! workload's traced run (wrapped trace source, monitor and registry)
//! gives bit-identical monitor-visible results and simulated statistics
//! to its untraced run.

use std::sync::Arc;

use fade_service::{EngineSel, Hello};
use fade_system::{Engine, MonitorRegistry};
use fade_trace::bench;
use perfbench::faded::served_lines;
use perfbench::figures::{fingerprint, grid, run_one};
use perfbench::layers::{timed_registry, Clock};
use perfbench::trace::{record, replay, RecordTimes, Simulated, Trace, Tracing, Verdict};

fn small_trace(bench_name: &str, monitor: &'static str, seed: u64) -> Trace {
    let b = bench::by_name(bench_name).expect("known benchmark");
    record(&b, monitor, seed, 20_000, &mut RecordTimes::default())
}

#[test]
fn traced_replay_is_bit_identical() {
    for (bench_name, monitor) in [
        ("hmmer", "AddrCheck"),
        ("gcc", "MemLeak"),
        ("water", "AtomCheck"),
    ] {
        let trace = small_trace(bench_name, monitor, 7);
        for engine in [Engine::batched(), Engine::Cycle] {
            let plain = replay(&trace, engine, None).expect("clean replay");
            let tracing = Tracing::default();
            let traced = replay(&trace, engine, Some(&tracing)).expect("clean replay");
            assert_eq!(
                Verdict::of(&plain),
                Verdict::of(&traced),
                "{bench_name}/{monitor}"
            );
            assert!(
                plain.state() == traced.state(),
                "{bench_name}/{monitor}: metadata state"
            );
            assert_eq!(
                Simulated::of(&plain),
                Simulated::of(&traced),
                "{bench_name}/{monitor}"
            );
            assert_eq!(plain.cycles(), traced.cycles(), "{bench_name}/{monitor}");
            let decoded = tracing.source.take();
            assert_eq!(
                decoded.units, trace.records,
                "the wrapped reader saw every record"
            );
        }
    }
}

#[test]
fn timed_registry_serves_identical_lines() {
    let builtin = Arc::new(MonitorRegistry::builtin());
    let clock = Clock::shared();
    let (timed, starts) = timed_registry(&clock);
    let timed = Arc::new(timed);
    for (i, (bench_name, monitor)) in fade_service::LOAD_POINTS.into_iter().enumerate() {
        let monitor = fade_monitors::monitor_by_name(monitor)
            .expect("builtin")
            .name();
        let trace = small_trace(bench_name, monitor, 11 + i as u64);
        let hello = Hello {
            engine: EngineSel::Batched,
            seed: Some(trace.seed),
            ..Hello::new(format!("tenant-{i}"), monitor)
        };
        assert_eq!(
            served_lines(&hello, &trace.bytes, &builtin),
            served_lines(&hello, &trace.bytes, &timed),
            "{bench_name}/{monitor}"
        );
    }
    let starts = starts.lock().expect("not poisoned").len();
    assert_eq!(
        starts,
        fade_service::LOAD_POINTS.len(),
        "one start stamp per served session"
    );
    assert!(
        clock.take().calls > 0,
        "the timed monitors ran their handlers"
    );
}

#[test]
fn traced_figure_experiments_are_bit_identical() {
    let experiments = grid(3);
    // AddrCheck (FADE and unaccelerated) and the multithreaded
    // AtomCheck point, whose thread switches cut batches.
    let atom = experiments
        .iter()
        .find(|e| e.monitor == "AtomCheck")
        .expect("the grid has an AtomCheck point");
    for e in [&experiments[0], &experiments[1], atom] {
        let tracing = Tracing::default();
        assert_eq!(
            fingerprint(&run_one(e, None)),
            fingerprint(&run_one(e, Some(&tracing))),
            "{}/{}",
            e.bench.name,
            e.monitor
        );
        assert!(tracing.source.take().units > 0, "the wrapped generator ran");
    }
}
