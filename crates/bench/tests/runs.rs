//! The shared experiment table's contract: a (monitor, benchmark,
//! config, FADE program) point runs once, however many sections declare
//! it, and reading it back gives the same statistics as running it
//! afresh.
//!
//! Every test runs short windows: `FADE_WARMUP` and `FADE_MEASURE` are
//! set once, before any experiment is declared.

use std::sync::Once;

use fade_bench::experiments::{suite_for, Entry, Runs};
use fade_monitors::monitor_by_name;
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
    runs.run("first", &[Entry::new(&[MONITOR], fade)]);
    runs.run("second", &[Entry::new(&[MONITOR], fade), Entry::new(&[MONITOR], unacc)]);
    assert_eq!(
        batches(&runs),
        [("first", suite.len()), ("second", suite.len())]
    );

    // A reused point is the run a fresh table produces.
    let mut fresh = Runs::default();
    fresh.run("fresh", &[Entry::new(&[MONITOR], fade)]);
    for b in &suite {
        assert_eq!(
            format!("{:?}", runs.get(MONITOR, b.name, &fade, None)),
            format!("{:?}", fresh.get(MONITOR, b.name, &fade, None)),
            "{MONITOR} on {}",
            b.name
        );
    }
}

#[test]
fn the_design_point_reads_back_however_its_hardware_was_set() {
    short_windows();
    let fade = SystemConfig::fade_single_core();
    let b = suite_for(MONITOR)[0].name;
    let mut runs = Runs::default();
    runs.run("design point", &[Entry::new(&[MONITOR], fade).on(&[b])]);
    for cfg in [
        fade.with_md_cache_bytes(4096),
        fade.with_tlb_entries(16),
        fade.with_fsq_entries(16),
    ] {
        runs.run("sweep", &[Entry::new(&[MONITOR], cfg).on(&[b])]);
        assert!(std::ptr::eq(runs.get(MONITOR, b, &cfg, None), runs.get(MONITOR, b, &fade, None)));
    }
    assert_eq!(batches(&runs), [("design point", 1)]);
}

#[test]
fn a_failed_point_panics_naming_it() {
    short_windows();
    let fade = SystemConfig::fade_single_core();
    let payload = std::panic::catch_unwind(|| {
        Runs::new(2).run(
            "bad",
            &[Entry::new(&[MONITOR], fade), Entry::new(&["NoSuchMonitor"], fade).on(&["gcc"])],
        );
    })
    .expect_err("an unknown monitor must panic");
    let msg = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    for part in ["NoSuchMonitor on gcc", &fade.label()] {
        assert!(msg.contains(part), "{part:?} missing from {msg:?}");
    }
}

#[test]
fn an_equal_config_is_reused_however_it_was_built() {
    short_windows();
    let mut runs = Runs::default();
    // The grid repeats its own points too: they run once.
    let fade = SystemConfig::fade_single_core();
    runs.run("first", &[Entry::new(&[MONITOR, MONITOR], fade), Entry::new(&[MONITOR], fade)]);
    let four_way = SystemConfig::fade_single_core().with_core(CoreKind::AggrOoO4);
    runs.run("again", &[Entry::new(&[MONITOR], four_way)]);
    assert_eq!(batches(&runs), [("first", suite_for(MONITOR).len())]);
}

#[test]
fn reading_an_undeclared_point_names_it() {
    short_windows();
    let mut runs = Runs::default();
    runs.run("first", &[Entry::new(&[MONITOR], SystemConfig::fade_single_core())]);
    // Same monitor and benchmark, another config: not declared.
    let b = &suite_for(MONITOR)[0];
    let blocking = SystemConfig::fade_single_core().with_mode(fade::FilterMode::Blocking);
    let payload = std::panic::catch_unwind(|| {
        runs.get(MONITOR, b.name, &blocking, None);
    })
    .expect_err("an undeclared point must panic");
    let msg = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    for part in [MONITOR, b.name, &format!("{blocking:?}")] {
        assert!(msg.contains(part), "{part:?} missing from {msg:?}");
    }
}

#[test]
fn an_unedited_program_reads_back_the_default_point() {
    short_windows();
    let fade = SystemConfig::fade_single_core();
    let own = monitor_by_name(MONITOR).unwrap().program();
    let mut runs = Runs::default();
    runs.run("default", &[Entry::new(&[MONITOR], fade)]);
    runs.run("unedited", &[Entry::new(&[MONITOR], fade).program(own.clone())]);
    assert_eq!(batches(&runs), [("default", suite_for(MONITOR).len())]);
    for b in suite_for(MONITOR) {
        let unedited = runs.get(MONITOR, b.name, &fade, Some(&own));
        assert!(std::ptr::eq(unedited, runs.get(MONITOR, b.name, &fade, None)), "{}", b.name);
    }
}

#[test]
fn an_edited_program_is_a_new_point() {
    short_windows();
    let fade = SystemConfig::fade_single_core();
    let mut no_suu = monitor_by_name("MemLeak").unwrap().program();
    no_suu.clear_suu();
    let mut runs = Runs::default();
    runs.run("own", &[Entry::new(&["MemLeak"], fade).on(&["gcc"])]);
    runs.run("no SUU", &[Entry::new(&["MemLeak"], fade).on(&["gcc"]).program(no_suu.clone())]);
    assert_eq!(batches(&runs), [("own", 1), ("no SUU", 1)]);
    assert_ne!(
        format!("{:?}", runs.get("MemLeak", "gcc", &fade, None)),
        format!("{:?}", runs.get("MemLeak", "gcc", &fade, Some(&no_suu))),
    );
}

#[test]
fn an_entry_that_names_benchmarks_runs_only_those() {
    short_windows();
    let fade = SystemConfig::fade_single_core();
    let suite = suite_for(MONITOR);
    let named = [suite[1].name, suite[3].name];
    let mut runs = Runs::default();
    runs.run("named", &[Entry::new(&[MONITOR], fade).on(&named)]);
    assert_eq!(batches(&runs), [("named", named.len())]);
    for name in named {
        runs.get(MONITOR, name, &fade, None);
    }
    let unnamed = std::panic::catch_unwind(|| {
        runs.get(MONITOR, suite[0].name, &fade, None);
    });
    assert!(unnamed.is_err(), "{} was not named", suite[0].name);
    // The named points are the suite's: declaring it runs only the rest.
    runs.run("suite", &[Entry::new(&[MONITOR], fade)]);
    assert_eq!(batches(&runs), [("named", named.len()), ("suite", suite.len() - named.len())]);
}
