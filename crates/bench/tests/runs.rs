//! The shared experiment table's contract: a (monitor, benchmark,
//! config) point runs once, however many sections declare it, and
//! reading it back gives the same statistics as running it afresh.
//!
//! Every test runs short windows: `FADE_WARMUP` and `FADE_MEASURE` are
//! set once, before any experiment is declared.

use std::sync::Once;

use fade_bench::experiments::{suite_for, Runs};
use fade_bench::{Experiment, ExperimentMatrix};
use fade_sim::CoreKind;
use fade_system::SystemConfig;

const MONITOR: &str = "TaintCheck";

fn short_windows() {
    static SET: Once = Once::new();
    SET.call_once(|| {
        std::env::set_var("FADE_WARMUP", "2000");
        std::env::set_var("FADE_MEASURE", "8000");
    });
}

/// (section, experiments run) per recorded batch.
fn batches(runs: &Runs) -> Vec<(&str, usize)> {
    runs.timings()
        .iter()
        .map(|t| (t.label.as_str(), t.experiments))
        .collect()
}

#[test]
fn an_overlapping_run_runs_only_its_new_points() {
    short_windows();
    let fade = SystemConfig::fade_single_core();
    let unacc = SystemConfig::unaccelerated_single_core();
    let suite = suite_for(MONITOR);
    let mut runs = Runs::default();
    runs.run("first", &[(&[MONITOR], fade)]);
    runs.run("second", &[(&[MONITOR], fade), (&[MONITOR], unacc)]);
    assert_eq!(
        batches(&runs),
        [("first", suite.len()), ("second", suite.len())]
    );

    // A reused point is the run a fresh matrix produces.
    let mut fresh = ExperimentMatrix::new();
    fresh.extend(
        suite
            .iter()
            .map(|b| Experiment::new(b.clone(), MONITOR, fade)),
    );
    for (b, stats) in suite.iter().zip(fresh.run_stats()) {
        assert_eq!(
            format!("{:?}", runs.get(MONITOR, b, &fade)),
            format!("{stats:?}"),
            "{MONITOR} on {}",
            b.name
        );
    }
}

#[test]
fn an_equal_config_is_reused_however_it_was_built() {
    short_windows();
    let mut runs = Runs::default();
    // The grid repeats its own points too: they run once.
    let fade = SystemConfig::fade_single_core();
    runs.run("first", &[(&[MONITOR, MONITOR], fade), (&[MONITOR], fade)]);
    let four_way = SystemConfig::fade_single_core().with_core(CoreKind::AggrOoO4);
    runs.run("again", &[(&[MONITOR], four_way)]);
    assert_eq!(batches(&runs), [("first", suite_for(MONITOR).len())]);
}

#[test]
fn reading_an_undeclared_point_names_it() {
    short_windows();
    let mut runs = Runs::default();
    runs.run("first", &[(&[MONITOR], SystemConfig::fade_single_core())]);
    // Same monitor and benchmark, another config: not declared.
    let b = &suite_for(MONITOR)[0];
    let blocking = SystemConfig::fade_single_core().with_mode(fade::FilterMode::Blocking);
    let payload = std::panic::catch_unwind(|| {
        runs.get(MONITOR, b, &blocking);
    })
    .expect_err("an undeclared point must panic");
    let msg = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    for part in [MONITOR, b.name, &format!("{blocking:?}")] {
        assert!(msg.contains(part), "{part:?} missing from {msg:?}");
    }
}
