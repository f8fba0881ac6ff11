//! The `Monitor` trait: what every instruction-grain monitoring tool
//! provides to the simulation harness.

use fade::FadeProgram;
use fade::InvId;
use fade_isa::{AppInstr, HighLevelEvent, InstrEvent, StackUpdateEvent};
use fade_shadow::MetadataState;

/// Memory tracking vs propagation tracking (Section 3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorKind {
    /// Processes only memory instructions (AddrCheck, AtomCheck).
    MemoryTracking,
    /// May track any instruction type and propagates metadata from
    /// sources to destination (MemCheck, MemLeak, TaintCheck).
    PropagationTracking,
}

/// How the monitor's software would handle one instruction event — the
/// classification behind Figure 4(a)'s time breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// The metadata matches the invariant; the handler just checks.
    CleanCheck,
    /// The update leaves metadata unchanged; the handler just updates.
    RedundantUpdate,
    /// A hardware pre-check passed; only the short handler tail runs
    /// (AtomCheck's common case).
    PartialShort,
    /// Full (complex) handler required.
    Complex,
}

/// Software handler lengths, in dynamic instructions.
///
/// The absolute values model Valgrind-style inline handlers (checks,
/// table lookups, register spills/fills around the instrumentation);
/// only their relative magnitudes matter for the paper's shape results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// A clean-check handler (check + exit).
    pub cc: u32,
    /// A redundant-update handler (load + compare + store).
    pub ru: u32,
    /// The short handler after a passed hardware pre-check.
    pub partial_short: u32,
    /// The full handler for an unfilterable event.
    pub complex: u32,
    /// Per-metadata-word cost of a software stack update.
    pub stack_per_word: u32,
    /// Fixed cost of a software stack update.
    pub stack_base: u32,
    /// Fixed cost of a malloc/free/taint-source handler.
    pub high_level_base: u32,
    /// Per-metadata-word cost of a high-level handler's bulk update.
    pub high_level_per_word: u32,
    /// Cost of a thread-switch notification.
    pub thread_switch: u32,
}

impl CostModel {
    /// Cost of handling `class` in software.
    pub fn for_class(&self, class: EventClass) -> u32 {
        match class {
            EventClass::CleanCheck => self.cc,
            EventClass::RedundantUpdate => self.ru,
            EventClass::PartialShort => self.partial_short,
            EventClass::Complex => self.complex,
        }
    }
}

/// An instruction-grain monitoring tool.
///
/// The simulation harness uses the same object for every system
/// configuration: the *software* path calls [`Monitor::classify`] /
/// [`Monitor::apply_instr`] per monitored event; the *FADE* path loads
/// [`Monitor::program`] into the accelerator and only consults the
/// software handlers for unfiltered events.
///
/// Monitors are `Send` so whole monitoring sessions can be sharded
/// across worker threads (each session owns its monitor exclusively —
/// no `Sync` needed).
pub trait Monitor: Send {
    /// Display name (paper spelling, e.g. "MemLeak").
    fn name(&self) -> &'static str;

    /// Memory or propagation tracking.
    fn kind(&self) -> MonitorKind;

    /// Producer-side event selection: `true` if the retired instruction
    /// is a monitored event for this tool.
    fn selects(&self, instr: &AppInstr) -> bool;

    /// Whether the monitor shadows stack allocation (and therefore
    /// consumes stack-update events).
    fn monitors_stack(&self) -> bool;

    /// The FADE program implementing this monitor in hardware.
    fn program(&self) -> FadeProgram;

    /// One-time metadata initialization at application load (e.g.
    /// pre-allocating the globals segment and initial stack).
    fn init_state(&self, state: &mut MetadataState);

    /// How the software monitor would handle this event *in the current
    /// metadata state*: the class determines both cost and — for
    /// `Complex` — whether FADE could have filtered it.
    fn classify(&self, ev: &InstrEvent, state: &MetadataState) -> EventClass;

    /// Applies the handler's full metadata effect (critical metadata,
    /// matching the FADE program's non-blocking rules, plus any
    /// monitor-internal bookkeeping).
    fn apply_instr(&mut self, ev: &InstrEvent, state: &mut MetadataState);

    /// Applies a high-level event (malloc/free/taint-source/thread
    /// switch): bulk metadata updates and bookkeeping.
    fn apply_high_level(&mut self, ev: &HighLevelEvent, state: &mut MetadataState);

    /// Applies a stack update in software (unaccelerated systems; FADE
    /// systems use the SUU instead).
    fn apply_stack_update(&self, ev: &StackUpdateEvent, state: &mut MetadataState);

    /// The monitor's handler cost model.
    fn costs(&self) -> CostModel;

    /// Invariant-register updates to push into the accelerator when the
    /// scheduler switches threads (AtomCheck's thread signature).
    fn on_thread_switch(&mut self, _tid: u8) -> Vec<(InvId, u64)> {
        Vec::new()
    }

    /// Bug reports accumulated so far (for the example applications).
    fn reports(&self) -> Vec<String> {
        Vec::new()
    }

    /// An independent copy of this monitor with all its internal
    /// bookkeeping (allocation tables, lock sets, reports), for callers
    /// that want to snapshot a monitor mid-run alongside its metadata
    /// state. Wrapping monitors should forward it to the monitor they
    /// wrap.
    ///
    /// The default returns `None`, meaning the monitor cannot be
    /// copied. All built-in monitors fork via `Clone`.
    fn fork(&self) -> Option<Box<dyn Monitor>> {
        None
    }

    /// Software cost of a stack update over `ev.len` bytes.
    fn stack_cost(&self, ev: &StackUpdateEvent) -> u32 {
        let c = self.costs();
        c.stack_base + c.stack_per_word * (ev.len / 4)
    }

    /// Software cost of a high-level event.
    fn high_level_cost(&self, ev: &HighLevelEvent) -> u32 {
        let c = self.costs();
        match ev {
            HighLevelEvent::Malloc { len, .. }
            | HighLevelEvent::Free { len, .. }
            | HighLevelEvent::TaintSource { len, .. } => {
                c.high_level_base + c.high_level_per_word * (len / 4)
            }
            HighLevelEvent::ThreadSwitch { .. } => c.thread_switch,
        }
    }
}

/// All five paper monitors, freshly constructed.
pub fn all_monitors() -> Vec<Box<dyn Monitor>> {
    vec![
        Box::new(crate::AddrCheck::new()),
        Box::new(crate::AtomCheck::new()),
        Box::new(crate::MemCheck::new()),
        Box::new(crate::MemLeak::new()),
        Box::new(crate::TaintCheck::new()),
    ]
}

/// Constructs a monitor by (case-insensitive) name.
pub fn monitor_by_name(name: &str) -> Option<Box<dyn Monitor>> {
    match name.to_ascii_lowercase().as_str() {
        "addrcheck" => Some(Box::new(crate::AddrCheck::new())),
        "atomcheck" => Some(Box::new(crate::AtomCheck::new())),
        "memcheck" => Some(Box::new(crate::MemCheck::new())),
        "memleak" => Some(Box::new(crate::MemLeak::new())),
        "taintcheck" => Some(Box::new(crate::TaintCheck::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_five_monitors() {
        let all = all_monitors();
        assert_eq!(all.len(), 5);
        let names: Vec<&str> = all.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["AddrCheck", "AtomCheck", "MemCheck", "MemLeak", "TaintCheck"]
        );
    }

    #[test]
    fn by_name_round_trips() {
        for m in all_monitors() {
            let again = monitor_by_name(m.name()).unwrap();
            assert_eq!(again.name(), m.name());
        }
        assert!(monitor_by_name("nope").is_none());
    }

    #[test]
    fn all_programs_validate() {
        for m in all_monitors() {
            assert!(m.program().validate().is_ok(), "{} program", m.name());
        }
    }

    #[test]
    fn cost_model_class_lookup() {
        let c = CostModel {
            cc: 1,
            ru: 2,
            partial_short: 3,
            complex: 4,
            stack_per_word: 0,
            stack_base: 0,
            high_level_base: 0,
            high_level_per_word: 0,
            thread_switch: 0,
        };
        assert_eq!(c.for_class(EventClass::CleanCheck), 1);
        assert_eq!(c.for_class(EventClass::RedundantUpdate), 2);
        assert_eq!(c.for_class(EventClass::PartialShort), 3);
        assert_eq!(c.for_class(EventClass::Complex), 4);
    }
}
