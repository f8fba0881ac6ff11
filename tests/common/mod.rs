//! Helpers shared by the differential harnesses
//! (`tests/differential.rs`, `tests/trace_replay.rs`,
//! `tests/budget_differential.rs`): the definition of "monitor-visible
//! results" lives here once, so growing the bit-exactness contract (a
//! new counter, a new assertion) updates every harness at the same
//! time.

#![allow(dead_code)] // not every harness uses every helper

use fade_repro::prelude::*;
use fade_repro::shadow::MetadataState;
use fade_repro::trace::bench;

/// The benchmark suite a monitor is evaluated on (Section 6 of the
/// paper; mirrors `fade_bench::experiments::suite_for`).
pub fn suite_for(monitor: &str) -> Vec<BenchProfile> {
    match monitor {
        "AtomCheck" => bench::parallel_suite(),
        "TaintCheck" => bench::taint_suite(),
        _ => bench::spec_int_suite(),
    }
}

/// Anything exposing the monitor-visible result surface:
/// [`MonitoringSystem`]s and live [`Session`]s, so the harnesses can
/// differentially compare across engines and driving styles.
pub trait MonitorVisible {
    fn instrs(&self) -> u64;
    fn events_seen(&self) -> u64;
    fn state(&self) -> &MetadataState;
    fn reports(&self) -> Vec<String>;
    /// The accelerator counters that must not depend on the execution
    /// engine (the cycle/stall counters legitimately do).
    fn functional_counters(&self) -> Option<[u64; 7]>;
}

impl MonitorVisible for MonitoringSystem {
    fn instrs(&self) -> u64 {
        MonitoringSystem::instrs(self)
    }
    fn events_seen(&self) -> u64 {
        MonitoringSystem::events_seen(self)
    }
    fn state(&self) -> &MetadataState {
        MonitoringSystem::state(self)
    }
    fn reports(&self) -> Vec<String> {
        self.monitor().reports()
    }
    fn functional_counters(&self) -> Option<[u64; 7]> {
        self.fade_stats().map(|f| f.functional_counters())
    }
}

impl MonitorVisible for Session {
    fn instrs(&self) -> u64 {
        Session::instrs(self)
    }
    fn events_seen(&self) -> u64 {
        Session::events_seen(self)
    }
    fn state(&self) -> &MetadataState {
        Session::state(self)
    }
    fn reports(&self) -> Vec<String> {
        self.monitor().reports()
    }
    fn functional_counters(&self) -> Option<[u64; 7]> {
        self.fade_stats().map(|f| f.functional_counters())
    }
}

/// Everything a monitor can observe must be identical between two runs
/// over the same trace prefix.
pub fn assert_monitor_visible_equal(
    a: &impl MonitorVisible,
    b: &impl MonitorVisible,
    what: &str,
) {
    assert_eq!(a.instrs(), b.instrs(), "{what}: instruction counts");
    assert_eq!(a.events_seen(), b.events_seen(), "{what}: event counts");
    assert!(a.state() == b.state(), "{what}: final MetadataState");
    assert_eq!(a.reports(), b.reports(), "{what}: violation sets");
    assert_eq!(
        a.functional_counters(),
        b.functional_counters(),
        "{what}: functional accelerator counters"
    );
}
