//! AddrCheck: checks that memory accesses go to allocated memory
//! (Nethercote & Seward; Section 6 of the paper).
//!
//! * **Critical metadata**: one byte per application word — 0 =
//!   unallocated, 1 = allocated.
//! * **Non-critical metadata**: bookkeeping for bug reporting.
//! * **Selection**: non-stack memory instructions only.
//! * **FADE technique**: clean checks against the "allocated" invariant;
//!   nearly all accesses hit allocated memory, giving the paper's 99.5%
//!   filtering ratio.

use fade::{
    EventTableEntry, FadeProgram, HandlerPc, InvId, OperandRule,
};
use fade_isa::{
    event_ids, layout, AppInstr, HighLevelEvent, InstrClass, InstrEvent, StackUpdateEvent,
};
use fade_shadow::{MetadataMap, MetadataState};

use crate::monitor::{CostModel, EventClass, Monitor, MonitorKind};

/// Metadata encoding: unallocated.
pub(crate) const UNALLOCATED: u8 = 0;
/// Metadata encoding: allocated.
pub(crate) const ALLOCATED: u8 = 1;

const INV_ALLOCATED: InvId = InvId::new(0);
const HANDLER_ACCESS: HandlerPc = HandlerPc::new(0xac00_0000);

/// The AddrCheck monitor.
#[derive(Clone, Debug, Default)]
pub struct AddrCheck {
    reports: Vec<String>,
}

impl AddrCheck {
    /// Creates the monitor.
    pub fn new() -> Self {
        AddrCheck::default()
    }
}

impl Monitor for AddrCheck {
    fn name(&self) -> &'static str {
        "AddrCheck"
    }

    fn fork(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }

    fn kind(&self) -> MonitorKind {
        MonitorKind::MemoryTracking
    }

    fn selects(&self, instr: &AppInstr) -> bool {
        match instr.mem {
            Some(m) => {
                matches!(instr.class, InstrClass::Load | InstrClass::Store)
                    && !layout::is_stack(m.addr)
            }
            None => false,
        }
    }

    fn monitors_stack(&self) -> bool {
        false
    }

    fn program(&self) -> FadeProgram {
        let mut p = FadeProgram::new(MetadataMap::per_word());
        p.set_invariant(INV_ALLOCATED, ALLOCATED as u64);
        // Loads: the memory operand is s1.
        p.set_entry(
            event_ids::LOAD,
            EventTableEntry::clean_check([
                Some(OperandRule::mem_operand(1, 0xff, INV_ALLOCATED)),
                None,
                None,
            ])
            .with_handler(HANDLER_ACCESS),
        );
        // Stores: the memory operand is the destination.
        p.set_entry(
            event_ids::STORE,
            EventTableEntry::clean_check([
                None,
                None,
                Some(OperandRule::mem_operand(1, 0xff, INV_ALLOCATED)),
            ])
            .with_handler(HANDLER_ACCESS),
        );
        p
    }

    fn init_state(&self, state: &mut MetadataState) {
        // The data segment is allocated at load time.
        state.fill_app_range(
            fade_isa::VirtAddr::new(layout::GLOBALS_BASE),
            layout::GLOBALS_SIZE,
            ALLOCATED,
        );
    }

    fn classify(&self, ev: &InstrEvent, state: &MetadataState) -> EventClass {
        if state.mem_meta(ev.app_addr) == ALLOCATED {
            EventClass::CleanCheck
        } else {
            EventClass::Complex
        }
    }

    fn apply_instr(&mut self, ev: &InstrEvent, state: &mut MetadataState) {
        // Accesses never change allocation state; the complex handler
        // only reports.
        if state.mem_meta(ev.app_addr) != ALLOCATED && self.reports.len() < 1000 {
            self.reports
                .push(format!("invalid access to {} at pc {}", ev.app_addr, ev.app_pc));
        }
    }

    fn apply_high_level(&mut self, ev: &HighLevelEvent, state: &mut MetadataState) {
        match *ev {
            HighLevelEvent::Malloc { base, len, .. } => {
                state.fill_app_range(base, len, ALLOCATED);
            }
            HighLevelEvent::Free { base, len } => {
                state.fill_app_range(base, len, UNALLOCATED);
            }
            HighLevelEvent::TaintSource { .. } | HighLevelEvent::ThreadSwitch { .. } => {}
        }
    }

    fn apply_stack_update(&self, _ev: &StackUpdateEvent, _state: &mut MetadataState) {
        // AddrCheck does not shadow the stack.
    }

    fn costs(&self) -> CostModel {
        CostModel {
            cc: 6,
            ru: 6,
            partial_short: 6,
            complex: 20,
            stack_per_word: 0,
            stack_base: 0,
            high_level_base: 40,
            high_level_per_word: 1,
            thread_switch: 10,
        }
    }

    fn reports(&self) -> Vec<String> {
        self.reports.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fade_isa::{MemRef, Reg, VirtAddr};

    fn load_at(addr: u32) -> AppInstr {
        AppInstr::new(VirtAddr::new(0x400), InstrClass::Load)
            .with_dest(Reg::new(1))
            .with_mem(MemRef::word(VirtAddr::new(addr)))
    }

    #[test]
    fn selects_non_stack_memory_only() {
        let m = AddrCheck::new();
        assert!(m.selects(&load_at(layout::HEAP_BASE)));
        assert!(m.selects(&load_at(layout::GLOBALS_BASE)));
        assert!(!m.selects(&load_at(layout::STACK_TOP - 64)));
        let alu = AppInstr::new(VirtAddr::new(0), InstrClass::IntAlu);
        assert!(!m.selects(&alu));
    }

    #[test]
    fn classify_follows_allocation_state() {
        let m = AddrCheck::new();
        let mut st = MetadataState::new(MetadataMap::per_word());
        m.init_state(&mut st);
        let ev = fade_isa::instr_event_for(&load_at(layout::GLOBALS_BASE + 16));
        assert_eq!(m.classify(&ev, &st), EventClass::CleanCheck);
        let wild = fade_isa::instr_event_for(&load_at(layout::HEAP_BASE + 0x100));
        assert_eq!(m.classify(&wild, &st), EventClass::Complex);
    }

    #[test]
    fn malloc_free_toggle_allocation() {
        let mut m = AddrCheck::new();
        let mut st = MetadataState::new(MetadataMap::per_word());
        let base = VirtAddr::new(layout::HEAP_BASE);
        m.apply_high_level(
            &HighLevelEvent::Malloc {
                base,
                len: 64,
                ctx: 1,
            },
            &mut st,
        );
        assert_eq!(st.mem_meta(base), ALLOCATED);
        m.apply_high_level(&HighLevelEvent::Free { base, len: 64 }, &mut st);
        assert_eq!(st.mem_meta(base), UNALLOCATED);
    }

    #[test]
    fn invalid_access_is_reported_without_state_change() {
        let mut m = AddrCheck::new();
        let mut st = MetadataState::new(MetadataMap::per_word());
        let ev = fade_isa::instr_event_for(&load_at(layout::HEAP_BASE + 0x500));
        m.apply_instr(&ev, &mut st);
        assert_eq!(m.reports().len(), 1);
        assert_eq!(st.mem_meta(ev.app_addr), UNALLOCATED);
    }

    #[test]
    fn program_validates_and_covers_loads_and_stores() {
        let m = AddrCheck::new();
        let p = m.program();
        assert!(p.validate().is_ok());
        assert!(p.table().entry(event_ids::LOAD).is_some());
        assert!(p.table().entry(event_ids::STORE).is_some());
        assert!(p.suu().is_none());
    }
}
