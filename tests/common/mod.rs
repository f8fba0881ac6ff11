//! Helpers shared by the differential harnesses
//! (`tests/differential.rs`, `tests/trace_replay.rs`): the definition
//! of "monitor-visible results" lives here once, so growing the bit-exactness contract (a
//! new counter, a new assertion) updates every harness at the same
//! time.

use fade_repro::prelude::*;
use fade_repro::trace::bench;

/// The benchmark suite a monitor is evaluated on (Section 6 of the
/// paper; mirrors `fade_bench::experiments::suite_for`).
pub(crate) fn suite_for(monitor: &str) -> Vec<BenchProfile> {
    match monitor {
        "AtomCheck" => bench::parallel_suite(),
        "TaintCheck" => bench::taint_suite(),
        _ => bench::spec_int_suite(),
    }
}

/// Everything a monitor can observe must be identical between two
/// sessions run over the same trace prefix. Only the accelerator's
/// functional counters are compared; its cycle/stall counters
/// legitimately depend on the engine.
pub(crate) fn assert_monitor_visible_equal(a: &Session, b: &Session, what: &str) {
    assert_eq!(a.instrs(), b.instrs(), "{what}: instruction counts");
    assert_eq!(a.events_seen(), b.events_seen(), "{what}: event counts");
    assert!(a.state() == b.state(), "{what}: final MetadataState");
    assert_eq!(
        a.monitor().reports(),
        b.monitor().reports(),
        "{what}: violation sets"
    );
    assert_eq!(
        a.fade_stats().map(|f| f.functional_counters()),
        b.fade_stats().map(|f| f.functional_counters()),
        "{what}: functional accelerator counters"
    );
}
