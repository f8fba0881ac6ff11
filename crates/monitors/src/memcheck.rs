//! MemCheck: detects accesses to unallocated memory and uses of
//! uninitialized values (Nethercote & Seward; Section 6 of the paper).
//!
//! * **Critical metadata**: one byte per word/register encoding three
//!   states — 0 = unallocated, 1 = allocated-but-uninitialized,
//!   3 = initialized (bit 0 = allocated, bit 1 = defined, so definedness
//!   composes with bitwise AND).
//! * **Selection**: memory instructions plus integer propagation
//!   classes (definedness flows through computation).
//! * **FADE technique**: clean checks for initialized operands and
//!   redundant-update filtering for stores of defined data over defined
//!   words; 98% filtering ratio in Table 2. The SUU bulk-marks stack
//!   frames allocated-uninitialized on calls and unallocated on returns.

use fade::{
    EventTableEntry, FadeProgram, HandlerPc, InvId, NbAction, NbUpdate, OperandRule, SuuConfig,
};
use fade_isa::{
    event_ids, layout, AppInstr, HighLevelEvent, InstrClass, InstrEvent, StackUpdateEvent,
    StackUpdateKind,
};
use fade_shadow::{MetadataMap, MetadataState};

use crate::monitor::{CostModel, EventClass, Monitor, MonitorKind};

/// Metadata encoding: unallocated.
pub(crate) const UNALLOCATED: u8 = 0;
/// Metadata encoding: allocated but uninitialized.
pub(crate) const UNINIT: u8 = 1;
/// Metadata encoding: allocated and initialized (defined).
pub(crate) const INIT: u8 = 3;

const INV_INIT: InvId = InvId::new(0);
const INV_CALL: InvId = InvId::new(1);
const INV_RET: InvId = InvId::new(2);
const HANDLER: HandlerPc = HandlerPc::new(0x3c00_0000);

/// The MemCheck monitor.
#[derive(Clone, Debug, Default)]
pub struct MemCheck {
    reports: Vec<String>,
}

impl MemCheck {
    /// Creates the monitor.
    pub fn new() -> Self {
        MemCheck::default()
    }

    /// An alternative FADE program that encodes the load/store checks
    /// as two-shot multi-shot chains (one operand checked per shot),
    /// exactly like the chained entries of Figure 6(b). Functionally
    /// identical to [`Monitor::program`]; each memory event costs one
    /// extra filter-stage cycle. Used by the multi-shot ablation.
    pub fn program_multi_shot(&self) -> FadeProgram {
        use fade_isa::EventId;
        let mut p = self.program();
        // Continuation entries live in the monitor-managed upper half
        // of the table (Section 4.1, Multi-shot Filtering).
        let load_cont = EventId::new(event_ids::FIRST_CONTINUATION);
        let store_cont = EventId::new(event_ids::FIRST_CONTINUATION + 1);
        p.set_entry(
            event_ids::LOAD,
            EventTableEntry::clean_check([
                Some(OperandRule::mem_operand(1, 0xff, INV_INIT)),
                None,
                None,
            ])
            .with_handler(HANDLER)
            .with_next(load_cont)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        p.set_entry(
            load_cont,
            EventTableEntry::clean_check([
                None,
                None,
                Some(OperandRule::reg_operand(0xff, INV_INIT)),
            ])
            .with_ms(),
        );
        p.set_entry(
            event_ids::STORE,
            EventTableEntry::clean_check([
                Some(OperandRule::reg_operand(0xff, INV_INIT)),
                None,
                None,
            ])
            .with_handler(HANDLER)
            .with_next(store_cont)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        p.set_entry(
            store_cont,
            EventTableEntry::clean_check([
                None,
                None,
                Some(OperandRule::mem_operand(1, 0xff, INV_INIT)),
            ])
            .with_ms(),
        );
        p
    }

    fn operand_values(&self, ev: &InstrEvent, state: &MetadataState) -> (u8, u8, u8) {
        // Returns (s1, s2, d) metadata as the event-table rules fetch
        // them: loads read s1 from memory, stores write d to memory.
        match ev.id {
            id if id == event_ids::LOAD => (
                state.mem_meta(ev.app_addr),
                INIT, // unused source reads as clean
                state.reg_meta(ev.dest),
            ),
            id if id == event_ids::STORE => (
                state.reg_meta(ev.src1),
                INIT,
                state.mem_meta(ev.app_addr),
            ),
            id if id == event_ids::INT_MOVE => (
                state.reg_meta(ev.src1),
                INIT,
                state.reg_meta(ev.dest),
            ),
            _ => (
                state.reg_meta(ev.src1),
                state.reg_meta(ev.src2),
                state.reg_meta(ev.dest),
            ),
        }
    }
}

impl Monitor for MemCheck {
    fn name(&self) -> &'static str {
        "MemCheck"
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
        true
    }

    fn program(&self) -> FadeProgram {
        let mut p = FadeProgram::new(MetadataMap::per_word());
        p.set_invariant(INV_INIT, INIT as u64);
        p.set_invariant(INV_CALL, UNINIT as u64);
        p.set_invariant(INV_RET, UNALLOCATED as u64);
        p.set_entry(
            event_ids::LOAD,
            EventTableEntry::clean_check([
                Some(OperandRule::mem_operand(1, 0xff, INV_INIT)),
                None,
                Some(OperandRule::reg_operand(0xff, INV_INIT)),
            ])
            .with_handler(HANDLER)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        p.set_entry(
            event_ids::STORE,
            EventTableEntry::clean_check([
                Some(OperandRule::reg_operand(0xff, INV_INIT)),
                None,
                Some(OperandRule::mem_operand(1, 0xff, INV_INIT)),
            ])
            .with_handler(HANDLER)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        for id in [event_ids::INT_ALU, event_ids::INT_MUL] {
            p.set_entry(
                id,
                EventTableEntry::clean_check([
                    Some(OperandRule::reg_operand(0xff, INV_INIT)),
                    Some(OperandRule::reg_operand(0xff, INV_INIT)),
                    Some(OperandRule::reg_operand(0xff, INV_INIT)),
                ])
                .with_handler(HANDLER)
                .with_nb(NbUpdate::unconditional(NbAction::ComposeAnd)),
            );
        }
        p.set_entry(
            event_ids::INT_MOVE,
            EventTableEntry::clean_check([
                Some(OperandRule::reg_operand(0xff, INV_INIT)),
                None,
                Some(OperandRule::reg_operand(0xff, INV_INIT)),
            ])
            .with_handler(HANDLER)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        p.set_suu(SuuConfig {
            call_inv: INV_CALL,
            ret_inv: INV_RET,
        });
        p
    }

    fn init_state(&self, state: &mut MetadataState) {
        // The zero register always holds the (defined) value 0.
        state.regs.set_zero_value(INIT);
        // Data segment: allocated and defined. Registers start defined.
        state.fill_app_range(
            fade_isa::VirtAddr::new(layout::GLOBALS_BASE),
            layout::GLOBALS_SIZE,
            INIT,
        );
        state.regs.fill(INIT);
        // Initial stacks (one per possible thread).
        for tid in 0..4u32 {
            let base = layout::STACK_TOP - tid * (8 << 20) - 4096;
            state.fill_app_range(fade_isa::VirtAddr::new(base), 4096, UNINIT);
        }
    }

    fn classify(&self, ev: &InstrEvent, state: &MetadataState) -> EventClass {
        let (s1, s2, d) = self.operand_values(ev, state);
        if s1 == INIT && s2 == INIT && d == INIT {
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
        let (s1, s2, _) = self.operand_values(ev, state);
        let new = match ev.id {
            id if id == event_ids::INT_ALU || id == event_ids::INT_MUL => s1 & s2,
            _ => s1,
        };
        if ev.id == event_ids::STORE {
            state.set_mem_meta(ev.app_addr, new);
        } else {
            state.set_reg_meta(ev.dest, new);
        }
        if ev.id == event_ids::LOAD && s1 != INIT && self.reports.len() < 1000 {
            let what = if s1 == UNALLOCATED {
                "unallocated"
            } else {
                "uninitialized"
            };
            self.reports
                .push(format!("load of {what} word {} at pc {}", ev.app_addr, ev.app_pc));
        }
    }

    fn apply_high_level(&mut self, ev: &HighLevelEvent, state: &mut MetadataState) {
        match *ev {
            HighLevelEvent::Malloc { base, len, .. } => {
                state.fill_app_range(base, len, UNINIT);
            }
            HighLevelEvent::Free { base, len } => {
                state.fill_app_range(base, len, UNALLOCATED);
            }
            HighLevelEvent::TaintSource { base, len } => {
                // External input defines the buffer.
                state.fill_app_range(base, len, INIT);
            }
            HighLevelEvent::ThreadSwitch { .. } => {}
        }
    }

    fn apply_stack_update(&self, ev: &StackUpdateEvent, state: &mut MetadataState) {
        let value = match ev.kind {
            StackUpdateKind::Call => UNINIT,
            StackUpdateKind::Return => UNALLOCATED,
        };
        state.fill_app_range(ev.base, ev.len, value);
    }

    fn costs(&self) -> CostModel {
        CostModel {
            cc: 13,
            ru: 13,
            partial_short: 16,
            complex: 18,
            stack_per_word: 1,
            stack_base: 18,
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

    fn fresh() -> (MemCheck, MetadataState) {
        let m = MemCheck::new();
        let mut st = MetadataState::new(MetadataMap::per_word());
        m.init_state(&mut st);
        (m, st)
    }

    fn load(addr: u32, dest: u8) -> InstrEvent {
        instr_event_for(
            &AppInstr::new(VirtAddr::new(4), InstrClass::Load)
                .with_dest(Reg::new(dest))
                .with_mem(MemRef::word(VirtAddr::new(addr))),
        )
    }

    fn store(addr: u32, src: u8) -> InstrEvent {
        instr_event_for(
            &AppInstr::new(VirtAddr::new(8), InstrClass::Store)
                .with_src1(Reg::new(src))
                .with_mem(MemRef::word(VirtAddr::new(addr))),
        )
    }

    #[test]
    fn defined_data_flows_are_filterable() {
        let (m, st) = fresh();
        let g = layout::GLOBALS_BASE;
        assert_eq!(m.classify(&load(g, 2), &st), EventClass::CleanCheck);
        assert_eq!(m.classify(&store(g, 2), &st), EventClass::RedundantUpdate);
    }

    #[test]
    fn first_write_to_fresh_allocation_is_complex() {
        let (mut m, mut st) = fresh();
        let base = VirtAddr::new(layout::HEAP_BASE);
        m.apply_high_level(
            &HighLevelEvent::Malloc {
                base,
                len: 64,
                ctx: 1,
            },
            &mut st,
        );
        // First write: uninit -> init transition cannot be filtered.
        assert_eq!(
            m.classify(&store(base.raw(), 2), &st),
            EventClass::Complex
        );
        m.apply_instr(&store(base.raw(), 2), &mut st);
        assert_eq!(st.mem_meta(base), INIT);
        // Second write is redundant.
        assert_eq!(
            m.classify(&store(base.raw(), 2), &st),
            EventClass::RedundantUpdate
        );
    }

    #[test]
    fn uninit_load_reports_and_poisons_register() {
        let (mut m, mut st) = fresh();
        let base = VirtAddr::new(layout::HEAP_BASE + 0x40);
        m.apply_high_level(
            &HighLevelEvent::Malloc {
                base,
                len: 32,
                ctx: 2,
            },
            &mut st,
        );
        let ev = load(base.raw(), 9);
        assert_eq!(m.classify(&ev, &st), EventClass::Complex);
        m.apply_instr(&ev, &mut st);
        assert_eq!(st.reg_meta(Reg::new(9)), UNINIT);
        assert_eq!(m.reports().len(), 1);
        assert!(m.reports()[0].contains("uninitialized"));
    }

    #[test]
    fn definedness_composes_with_and() {
        let (mut m, mut st) = fresh();
        st.set_reg_meta(Reg::new(3), UNINIT);
        let alu = instr_event_for(
            &AppInstr::new(VirtAddr::new(12), InstrClass::IntAlu)
                .with_src1(Reg::new(2))
                .with_src2(Reg::new(3))
                .with_dest(Reg::new(4)),
        );
        assert_eq!(m.classify(&alu, &st), EventClass::Complex);
        m.apply_instr(&alu, &mut st);
        assert_eq!(st.reg_meta(Reg::new(4)), UNINIT, "init AND uninit = uninit");
    }

    #[test]
    fn stack_updates_toggle_frame_state() {
        let (m, mut st) = fresh();
        let frame = StackUpdateEvent {
            base: VirtAddr::new(layout::STACK_TOP - 0x2000),
            len: 128,
            kind: StackUpdateKind::Call,
            tid: 0,
        };
        m.apply_stack_update(&frame, &mut st);
        assert_eq!(st.mem_meta(frame.base), UNINIT);
        let ret = StackUpdateEvent {
            kind: StackUpdateKind::Return,
            ..frame
        };
        m.apply_stack_update(&ret, &mut st);
        assert_eq!(st.mem_meta(frame.base), UNALLOCATED);
    }

    #[test]
    fn multi_shot_program_validates_and_chains() {
        let p = MemCheck::new().program_multi_shot();
        assert!(p.validate().is_ok());
        let load = p.table().entry(event_ids::LOAD).unwrap();
        assert!(load.next_entry.is_some());
        let cont = p.table().entry(load.next_entry.unwrap()).unwrap();
        assert!(cont.ms, "continuation must AND into the chain");
    }

    #[test]
    fn program_has_suu_and_validates() {
        let p = MemCheck::new().program();
        assert!(p.validate().is_ok());
        assert!(p.suu().is_some());
        assert_eq!(p.invariants().read(INV_CALL), UNINIT as u64);
        assert_eq!(p.invariants().read(INV_RET), UNALLOCATED as u64);
    }
}
