//! TaintCheck: dynamic taint analysis for overwrite-related security
//! exploits (Newsome & Song; Section 6 of the paper).
//!
//! * **Critical metadata**: one byte per word/register — 0 = untainted,
//!   1 = tainted.
//! * **Non-critical metadata**: taint origin bookkeeping.
//! * **Selection**: all propagation classes (loads, stores, integer
//!   ALU/move/mul).
//! * **FADE technique**: clean checks for untainted operands plus
//!   redundant-update filtering when propagation leaves the destination
//!   unchanged; long propagation chains make this the lowest filtering
//!   ratio in Table 2 (84%).

use fade::{
    EventTableEntry, FadeProgram, HandlerPc, InvId, NbAction, NbUpdate, OperandRule,
};
use fade_isa::{
    event_ids, AppInstr, HighLevelEvent, InstrClass, InstrEvent, StackUpdateEvent,
};
use fade_shadow::{MetadataMap, MetadataState};

use crate::monitor::{CostModel, EventClass, Monitor, MonitorKind};

/// Metadata encoding: untainted.
pub(crate) const UNTAINTED: u8 = 0;
/// Metadata encoding: tainted.
pub(crate) const TAINTED: u8 = 1;

const INV_UNTAINTED: InvId = InvId::new(0);
const HANDLER_PROP: HandlerPc = HandlerPc::new(0x7a00_0000);

/// The TaintCheck monitor.
#[derive(Clone, Debug, Default)]
pub struct TaintCheck {
    reports: Vec<String>,
}

impl TaintCheck {
    /// Creates the monitor.
    pub fn new() -> Self {
        TaintCheck::default()
    }

    fn propagated(&self, ev: &InstrEvent, state: &MetadataState) -> u8 {
        match ev.id {
            id if id == event_ids::LOAD => state.mem_meta(ev.app_addr),
            id if id == event_ids::STORE => state.reg_meta(ev.src1),
            id if id == event_ids::INT_MOVE => state.reg_meta(ev.src1),
            _ => state.reg_meta(ev.src1) | state.reg_meta(ev.src2),
        }
    }
}

impl Monitor for TaintCheck {
    fn name(&self) -> &'static str {
        "TaintCheck"
    }

    fn fork(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }

    fn kind(&self) -> MonitorKind {
        MonitorKind::PropagationTracking
    }

    fn selects(&self, instr: &AppInstr) -> bool {
        matches!(
            instr.class,
            InstrClass::Load
                | InstrClass::Store
                | InstrClass::IntAlu
                | InstrClass::IntMove
                | InstrClass::IntMul
        )
    }

    fn monitors_stack(&self) -> bool {
        false
    }

    fn program(&self) -> FadeProgram {
        let mut p = FadeProgram::new(MetadataMap::per_word());
        p.set_invariant(INV_UNTAINTED, UNTAINTED as u64);
        p.set_entry(
            event_ids::LOAD,
            EventTableEntry::clean_check([
                Some(OperandRule::mem_operand(1, 0xff, INV_UNTAINTED)),
                None,
                Some(OperandRule::reg_operand(0xff, INV_UNTAINTED)),
            ])
            .with_handler(HANDLER_PROP)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        p.set_entry(
            event_ids::STORE,
            EventTableEntry::clean_check([
                Some(OperandRule::reg_operand(0xff, INV_UNTAINTED)),
                None,
                Some(OperandRule::mem_operand(1, 0xff, INV_UNTAINTED)),
            ])
            .with_handler(HANDLER_PROP)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        for id in [event_ids::INT_ALU, event_ids::INT_MUL] {
            p.set_entry(
                id,
                EventTableEntry::clean_check([
                    Some(OperandRule::reg_operand(0xff, INV_UNTAINTED)),
                    Some(OperandRule::reg_operand(0xff, INV_UNTAINTED)),
                    Some(OperandRule::reg_operand(0xff, INV_UNTAINTED)),
                ])
                .with_handler(HANDLER_PROP)
                .with_nb(NbUpdate::unconditional(NbAction::ComposeOr)),
            );
        }
        p.set_entry(
            event_ids::INT_MOVE,
            EventTableEntry::clean_check([
                Some(OperandRule::reg_operand(0xff, INV_UNTAINTED)),
                None,
                Some(OperandRule::reg_operand(0xff, INV_UNTAINTED)),
            ])
            .with_handler(HANDLER_PROP)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        p
    }

    fn init_state(&self, _state: &mut MetadataState) {
        // Everything starts untainted.
    }

    fn classify(&self, ev: &InstrEvent, state: &MetadataState) -> EventClass {
        let (sources, dest) = match ev.id {
            id if id == event_ids::LOAD => (
                state.mem_meta(ev.app_addr),
                state.reg_meta(ev.dest),
            ),
            id if id == event_ids::STORE => (
                state.reg_meta(ev.src1),
                state.mem_meta(ev.app_addr),
            ),
            id if id == event_ids::INT_MOVE => {
                (state.reg_meta(ev.src1), state.reg_meta(ev.dest))
            }
            _ => (
                state.reg_meta(ev.src1) | state.reg_meta(ev.src2),
                state.reg_meta(ev.dest),
            ),
        };
        if sources == UNTAINTED && dest == UNTAINTED {
            // Stores are update-shaped handlers; the rest are checks.
            if ev.id == event_ids::STORE {
                EventClass::RedundantUpdate
            } else {
                EventClass::CleanCheck
            }
        } else {
            EventClass::Complex
        }
    }

    fn apply_instr(&mut self, ev: &InstrEvent, state: &mut MetadataState) {
        let v = self.propagated(ev, state);
        if ev.id == event_ids::STORE {
            state.set_mem_meta(ev.app_addr, v);
        } else {
            state.set_reg_meta(ev.dest, v);
        }
        // A tainted value flowing into a jump target would be the
        // exploit signal; jumps are rare enough to report at the sink.
        if v == TAINTED && ev.id == event_ids::INT_MUL && self.reports.len() < 1000 {
            self.reports
                .push(format!("tainted arithmetic at pc {}", ev.app_pc));
        }
    }

    fn apply_high_level(&mut self, ev: &HighLevelEvent, state: &mut MetadataState) {
        match *ev {
            HighLevelEvent::TaintSource { base, len } => {
                state.fill_app_range(base, len, TAINTED);
            }
            HighLevelEvent::Malloc { base, len, .. } | HighLevelEvent::Free { base, len } => {
                state.fill_app_range(base, len, UNTAINTED);
            }
            HighLevelEvent::ThreadSwitch { .. } => {}
        }
    }

    fn apply_stack_update(&self, _ev: &StackUpdateEvent, _state: &mut MetadataState) {
        // Taint does not shadow stack allocation.
    }

    fn costs(&self) -> CostModel {
        CostModel {
            cc: 13,
            ru: 13,
            partial_short: 16,
            complex: 18,
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
    use fade_isa::{instr_event_for, MemRef, Reg, VirtAddr};

    fn state() -> MetadataState {
        MetadataState::new(MetadataMap::per_word())
    }

    fn load(addr: u32, dest: u8) -> InstrEvent {
        instr_event_for(
            &AppInstr::new(VirtAddr::new(4), InstrClass::Load)
                .with_dest(Reg::new(dest))
                .with_mem(MemRef::word(VirtAddr::new(addr))),
        )
    }

    fn alu(s1: u8, s2: u8, d: u8) -> InstrEvent {
        instr_event_for(
            &AppInstr::new(VirtAddr::new(8), InstrClass::IntAlu)
                .with_src1(Reg::new(s1))
                .with_src2(Reg::new(s2))
                .with_dest(Reg::new(d)),
        )
    }

    #[test]
    fn untainted_flow_is_filterable() {
        let m = TaintCheck::new();
        let st = state();
        assert_eq!(m.classify(&load(0x1000, 2), &st), EventClass::CleanCheck);
        assert_eq!(m.classify(&alu(1, 2, 3), &st), EventClass::CleanCheck);
    }

    #[test]
    fn tainted_source_makes_event_complex() {
        let mut m = TaintCheck::new();
        let mut st = state();
        m.apply_high_level(
            &HighLevelEvent::TaintSource {
                base: VirtAddr::new(0x1000),
                len: 16,
            },
            &mut st,
        );
        assert_eq!(m.classify(&load(0x1004, 2), &st), EventClass::Complex);
    }

    #[test]
    fn taint_propagates_through_load_and_alu() {
        let mut m = TaintCheck::new();
        let mut st = state();
        st.set_mem_meta(VirtAddr::new(0x2000), TAINTED);
        m.apply_instr(&load(0x2000, 4), &mut st);
        assert_eq!(st.reg_meta(Reg::new(4)), TAINTED);
        m.apply_instr(&alu(4, 1, 5), &mut st);
        assert_eq!(st.reg_meta(Reg::new(5)), TAINTED);
        // Untainted pair clears the destination.
        m.apply_instr(&alu(1, 2, 5), &mut st);
        assert_eq!(st.reg_meta(Reg::new(5)), UNTAINTED);
    }

    #[test]
    fn store_of_tainted_taints_memory_and_dirty_dest_is_complex() {
        let mut m = TaintCheck::new();
        let mut st = state();
        st.set_reg_meta(Reg::new(7), TAINTED);
        let store = instr_event_for(
            &AppInstr::new(VirtAddr::new(12), InstrClass::Store)
                .with_src1(Reg::new(7))
                .with_mem(MemRef::word(VirtAddr::new(0x3000))),
        );
        assert_eq!(m.classify(&store, &st), EventClass::Complex);
        m.apply_instr(&store, &mut st);
        assert_eq!(st.mem_meta(VirtAddr::new(0x3000)), TAINTED);
        // Overwriting with untainted data untaints (and is complex,
        // because the destination was tainted).
        let clean_store = instr_event_for(
            &AppInstr::new(VirtAddr::new(16), InstrClass::Store)
                .with_src1(Reg::new(1))
                .with_mem(MemRef::word(VirtAddr::new(0x3000))),
        );
        assert_eq!(m.classify(&clean_store, &st), EventClass::Complex);
        m.apply_instr(&clean_store, &mut st);
        assert_eq!(st.mem_meta(VirtAddr::new(0x3000)), UNTAINTED);
    }

    #[test]
    fn malloc_clears_taint() {
        let mut m = TaintCheck::new();
        let mut st = state();
        st.set_mem_meta(VirtAddr::new(0x4000), TAINTED);
        m.apply_high_level(
            &HighLevelEvent::Malloc {
                base: VirtAddr::new(0x4000),
                len: 32,
                ctx: 9,
            },
            &mut st,
        );
        assert_eq!(st.mem_meta(VirtAddr::new(0x4000)), UNTAINTED);
    }

    #[test]
    fn program_validates() {
        assert!(TaintCheck::new().program().validate().is_ok());
    }
}
