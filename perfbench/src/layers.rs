//! Timing wrappers around the public layer boundaries of the program.
//!
//! Nothing here reaches inside a crate: a [`TimedSource`] wraps any
//! [`TraceSource`] (the `.fadet` reader or the live generator), a
//! [`TimedMonitor`] wraps any [`Monitor`] and times its `apply_*`
//! handler calls, and [`timed_registry`] builds a [`MonitorRegistry`]
//! whose factories hand out timed monitors and stamp the moment a
//! session starts. Every wrapper delegates every call unchanged, so a
//! traced run computes exactly what an untraced one does
//! (`tests/transparency.rs` pins that).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fade::{FadeProgram, InvId};
use fade_isa::{AppInstr, HighLevelEvent, InstrEvent, StackUpdateEvent};
use fade_monitors::{CostModel, EventClass, Monitor, MonitorKind};
use fade_shadow::MetadataState;
use fade_system::{MonitorRegistry, SourceError, TraceSource};
use fade_trace::TraceRecord;

/// Host time spent in one layer, with how many calls and work units
/// (records, handler invocations) it covered. Shared between a wrapper
/// living inside a session and the benchmark outside it; the counters
/// are statistics only, so relaxed atomics suffice.
#[derive(Debug, Default)]
pub struct Clock {
    ns: AtomicU64,
    calls: AtomicU64,
    units: AtomicU64,
}

/// A snapshot of a [`Clock`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Host nanoseconds spent inside the layer.
    pub ns: u64,
    /// Calls into the layer.
    pub calls: u64,
    /// Work units the calls covered (records, for sources).
    pub units: u64,
}

impl std::ops::AddAssign for Span {
    fn add_assign(&mut self, other: Span) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.units += other.units;
    }
}

impl Clock {
    /// A fresh, shareable clock.
    pub fn shared() -> Arc<Clock> {
        Arc::new(Clock::default())
    }

    fn add(&self, start: Instant, units: u64) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.units.fetch_add(units, Ordering::Relaxed);
    }

    /// Reads and resets the clock.
    pub fn take(&self) -> Span {
        Span {
            ns: self.ns.swap(0, Ordering::Relaxed),
            calls: self.calls.swap(0, Ordering::Relaxed),
            units: self.units.swap(0, Ordering::Relaxed),
        }
    }
}

/// A [`TraceSource`] whose `next_records_into` calls are timed; the
/// clock's units are the records delivered.
pub struct TimedSource<S> {
    inner: S,
    clock: Arc<Clock>,
}

impl<S: TraceSource> TimedSource<S> {
    /// Wraps `inner`, charging its time to `clock`.
    pub fn new(inner: S, clock: Arc<Clock>) -> Self {
        TimedSource { inner, clock }
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn next_records_into(
        &mut self,
        buf: &mut Vec<TraceRecord>,
        n: usize,
    ) -> Result<usize, SourceError> {
        let start = Instant::now();
        let out = self.inner.next_records_into(buf, n);
        self.clock.add(start, *out.as_ref().unwrap_or(&0) as u64);
        out
    }

    fn degradation(&self) -> Option<&fade_trace::DegradationReport> {
        self.inner.degradation()
    }
}

/// A [`Monitor`] whose software-handler calls (`apply_instr`,
/// `apply_high_level`, `apply_stack_update`) are timed. Every other
/// method delegates untimed: selection and classification belong to
/// other layers.
pub struct TimedMonitor {
    inner: Box<dyn Monitor>,
    clock: Arc<Clock>,
}

impl TimedMonitor {
    /// Wraps `inner`, charging its handler time to `clock`.
    pub fn new(inner: Box<dyn Monitor>, clock: Arc<Clock>) -> Self {
        TimedMonitor { inner, clock }
    }
}

impl Monitor for TimedMonitor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn kind(&self) -> MonitorKind {
        self.inner.kind()
    }
    fn selects(&self, instr: &AppInstr) -> bool {
        self.inner.selects(instr)
    }
    fn monitors_stack(&self) -> bool {
        self.inner.monitors_stack()
    }
    fn program(&self) -> FadeProgram {
        self.inner.program()
    }
    fn init_state(&self, state: &mut MetadataState) {
        self.inner.init_state(state)
    }
    fn classify(&self, ev: &InstrEvent, state: &MetadataState) -> EventClass {
        self.inner.classify(ev, state)
    }
    fn apply_instr(&mut self, ev: &InstrEvent, state: &mut MetadataState) {
        let start = Instant::now();
        self.inner.apply_instr(ev, state);
        self.clock.add(start, 1);
    }
    fn apply_high_level(&mut self, ev: &HighLevelEvent, state: &mut MetadataState) {
        let start = Instant::now();
        self.inner.apply_high_level(ev, state);
        self.clock.add(start, 1);
    }
    fn apply_stack_update(&self, ev: &StackUpdateEvent, state: &mut MetadataState) {
        let start = Instant::now();
        self.inner.apply_stack_update(ev, state);
        self.clock.add(start, 1);
    }
    fn costs(&self) -> CostModel {
        self.inner.costs()
    }
    fn on_thread_switch(&mut self, tid: u8) -> Vec<(InvId, u64)> {
        self.inner.on_thread_switch(tid)
    }
    fn reports(&self) -> Vec<String> {
        self.inner.reports()
    }
    fn fork(&self) -> Option<Box<dyn Monitor>> {
        let clock = Arc::clone(&self.clock);
        self.inner
            .fork()
            .map(|m| Box::new(TimedMonitor::new(m, clock)) as Box<dyn Monitor>)
    }
    fn stack_cost(&self, ev: &StackUpdateEvent) -> u32 {
        self.inner.stack_cost(ev)
    }
    fn high_level_cost(&self, ev: &HighLevelEvent) -> u32 {
        self.inner.high_level_cost(ev)
    }
}

/// When each session built from a [`timed_registry`] started, and for
/// which monitor: the factory runs when a session is built, so its call
/// is the session's start as seen from outside.
pub type StartLog = Arc<Mutex<Vec<(Instant, &'static str)>>>;

/// The five paper monitors, each handed out as a [`TimedMonitor`]
/// charging `clock`, with every factory call stamped into the returned
/// [`StartLog`].
pub fn timed_registry(clock: &Arc<Clock>) -> (MonitorRegistry, StartLog) {
    let log: StartLog = Arc::default();
    let mut registry = MonitorRegistry::empty();
    for name in MonitorRegistry::builtin().names() {
        let (clock, log) = (Arc::clone(clock), Arc::clone(&log));
        let canonical: &'static str = fade_monitors::monitor_by_name(name)
            .expect("builtin monitor names resolve")
            .name();
        registry.register(move || {
            log.lock()
                .expect("start log is never poisoned: pushes cannot panic")
                .push((Instant::now(), canonical));
            let inner =
                fade_monitors::monitor_by_name(canonical).expect("builtin monitor names resolve");
            Box::new(TimedMonitor::new(inner, Arc::clone(&clock)))
        });
    }
    // `register` probes each factory once for its name: not a session.
    log.lock().expect("start log is never poisoned").clear();
    clock.take();
    (registry, log)
}
