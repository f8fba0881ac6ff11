//! MemLeak: precise memory-leak detection through reference counting
//! (Maebe et al.; Section 6 of the paper).
//!
//! * **Critical metadata**: the pointer/non-pointer status of every
//!   register and memory word (one byte, 0 = non-pointer, 1 = pointer).
//! * **Non-critical metadata**: a pointer to the allocation *context*
//!   of the block each pointer refers to — a unique ID, PC, and a
//!   reference counter — maintained in the monitor.
//! * **Selection**: instructions that may propagate a pointer value
//!   (loads, stores, integer ALU/move/mul); floating point is
//!   eliminated.
//! * **FADE technique**: clean checks filter events whose operands are
//!   all non-pointers (87% suite-wide, ~70% for astar/gcc); the SUU
//!   clears frame pointer-status on calls and returns.

use std::collections::HashMap;

use fade::{
    EventTableEntry, FadeProgram, HandlerPc, InvId, NbAction, NbUpdate, OperandRule, SuuConfig,
};
use fade_isa::{
    event_ids, AppInstr, HighLevelEvent, InstrClass, InstrEvent, Reg, StackUpdateEvent,
    VirtAddr,
};
use fade_shadow::{MetadataMap, MetadataState};

use crate::monitor::{CostModel, EventClass, Monitor, MonitorKind};

/// Metadata encoding: not a pointer.
pub(crate) const NON_POINTER: u8 = 0;
/// Metadata encoding: a pointer into a live allocation.
pub(crate) const POINTER: u8 = 1;

const INV_NONPTR: InvId = InvId::new(0);
const HANDLER: HandlerPc = HandlerPc::new(0x1e00_0000);

/// An allocation context: the non-critical metadata of one malloc site.
#[derive(Clone, Debug)]
struct Context {
    /// Allocation-site identifier.
    id: u32,
    /// Live references to the block.
    refs: i64,
    /// Block still allocated.
    live: bool,
    /// Leak already reported.
    reported: bool,
}

/// The MemLeak monitor.
#[derive(Clone, Debug, Default)]
pub struct MemLeak {
    reports: Vec<String>,
    contexts: HashMap<u32, Context>,
    /// Allocation context referenced by each pointer-holding register.
    reg_ctx: [u32; fade_isa::NUM_REGS],
    /// Allocation context referenced by each pointer-holding word.
    word_ctx: HashMap<u32, u32>,
    /// Live block base -> its own context id.
    blocks: HashMap<u32, u32>,
}

impl MemLeak {
    /// Creates the monitor.
    pub fn new() -> Self {
        MemLeak::default()
    }

    /// Count of leak reports so far (for the example applications).
    pub fn leaks_found(&self) -> usize {
        self.reports.iter().filter(|r| r.contains("leak")).count()
    }

    fn inc(&mut self, ctx: u32) {
        if let Some(c) = self.contexts.get_mut(&ctx) {
            c.refs += 1;
        }
    }

    fn dec(&mut self, ctx: u32) {
        let mut leak: Option<u32> = None;
        if let Some(c) = self.contexts.get_mut(&ctx) {
            c.refs -= 1;
            if c.refs <= 0 && c.live && !c.reported {
                c.reported = true;
                leak = Some(c.id);
            }
        }
        if let Some(id) = leak {
            if self.reports.len() < 1000 {
                self.reports
                    .push(format!("possible leak: allocation context {id} lost its last reference"));
            }
        }
    }

    fn set_reg(&mut self, state: &mut MetadataState, reg: Reg, status: u8, ctx: u32) {
        let old_status = state.reg_meta(reg);
        let old_ctx = self.reg_ctx[reg.index() as usize];
        if old_status == POINTER {
            self.dec(old_ctx);
        }
        state.set_reg_meta(reg, status);
        self.reg_ctx[reg.index() as usize] = if status == POINTER { ctx } else { 0 };
        if status == POINTER {
            self.inc(ctx);
        }
    }

    fn set_word(&mut self, state: &mut MetadataState, addr: VirtAddr, status: u8, ctx: u32) {
        let w = addr.word_index();
        if state.mem_meta(addr) == POINTER {
            if let Some(old) = self.word_ctx.remove(&w) {
                self.dec(old);
            }
        }
        state.set_mem_meta(addr, status);
        if status == POINTER {
            self.word_ctx.insert(w, ctx);
            self.inc(ctx);
        }
    }

    fn reg_info(&self, state: &MetadataState, reg: Reg) -> (u8, u32) {
        (state.reg_meta(reg), self.reg_ctx[reg.index() as usize])
    }

    fn word_info(&self, state: &MetadataState, addr: VirtAddr) -> (u8, u32) {
        (
            state.mem_meta(addr),
            self.word_ctx
                .get(&addr.word_index())
                .copied()
                .unwrap_or(0),
        )
    }
}

impl Monitor for MemLeak {
    fn name(&self) -> &'static str {
        "MemLeak"
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
        p.set_invariant(INV_NONPTR, NON_POINTER as u64);
        p.set_entry(
            event_ids::LOAD,
            EventTableEntry::clean_check([
                Some(OperandRule::mem_operand(1, 0xff, INV_NONPTR)),
                None,
                Some(OperandRule::reg_operand(0xff, INV_NONPTR)),
            ])
            .with_handler(HANDLER)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        p.set_entry(
            event_ids::STORE,
            EventTableEntry::clean_check([
                Some(OperandRule::reg_operand(0xff, INV_NONPTR)),
                None,
                Some(OperandRule::mem_operand(1, 0xff, INV_NONPTR)),
            ])
            .with_handler(HANDLER)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        p.set_entry(
            event_ids::INT_ALU,
            EventTableEntry::clean_check([
                Some(OperandRule::reg_operand(0xff, INV_NONPTR)),
                Some(OperandRule::reg_operand(0xff, INV_NONPTR)),
                Some(OperandRule::reg_operand(0xff, INV_NONPTR)),
            ])
            .with_handler(HANDLER)
            .with_nb(NbUpdate::unconditional(NbAction::ComposeOr)),
        );
        // Multiplying pointers yields a non-pointer.
        p.set_entry(
            event_ids::INT_MUL,
            EventTableEntry::clean_check([
                Some(OperandRule::reg_operand(0xff, INV_NONPTR)),
                Some(OperandRule::reg_operand(0xff, INV_NONPTR)),
                Some(OperandRule::reg_operand(0xff, INV_NONPTR)),
            ])
            .with_handler(HANDLER)
            .with_nb(NbUpdate::unconditional(NbAction::SetConst(INV_NONPTR))),
        );
        p.set_entry(
            event_ids::INT_MOVE,
            EventTableEntry::clean_check([
                Some(OperandRule::reg_operand(0xff, INV_NONPTR)),
                None,
                Some(OperandRule::reg_operand(0xff, INV_NONPTR)),
            ])
            .with_handler(HANDLER)
            .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
        );
        // Frames carry no pointers when allocated or after release.
        p.set_invariant(InvId::new(1), NON_POINTER as u64);
        p.set_invariant(InvId::new(2), NON_POINTER as u64);
        p.set_suu(SuuConfig {
            call_inv: InvId::new(1),
            ret_inv: InvId::new(2),
        });
        p
    }

    fn init_state(&self, _state: &mut MetadataState) {
        // Everything starts as non-pointer.
    }

    fn classify(&self, ev: &InstrEvent, state: &MetadataState) -> EventClass {
        let clean = match ev.id {
            id if id == event_ids::LOAD => {
                state.mem_meta(ev.app_addr) == NON_POINTER
                    && state.reg_meta(ev.dest) == NON_POINTER
            }
            id if id == event_ids::STORE => {
                state.reg_meta(ev.src1) == NON_POINTER
                    && state.mem_meta(ev.app_addr) == NON_POINTER
            }
            id if id == event_ids::INT_MOVE => {
                state.reg_meta(ev.src1) == NON_POINTER
                    && state.reg_meta(ev.dest) == NON_POINTER
            }
            _ => {
                state.reg_meta(ev.src1) == NON_POINTER
                    && state.reg_meta(ev.src2) == NON_POINTER
                    && state.reg_meta(ev.dest) == NON_POINTER
            }
        };
        if clean {
            EventClass::CleanCheck
        } else {
            EventClass::Complex
        }
    }

    fn apply_instr(&mut self, ev: &InstrEvent, state: &mut MetadataState) {
        match ev.id {
            id if id == event_ids::LOAD => {
                let (s, c) = self.word_info(state, ev.app_addr);
                self.set_reg(state, ev.dest, s, c);
            }
            id if id == event_ids::STORE => {
                let (s, c) = self.reg_info(state, ev.src1);
                self.set_word(state, ev.app_addr, s, c);
            }
            id if id == event_ids::INT_MOVE => {
                let (s, c) = self.reg_info(state, ev.src1);
                self.set_reg(state, ev.dest, s, c);
            }
            id if id == event_ids::INT_MUL => {
                self.set_reg(state, ev.dest, NON_POINTER, 0);
            }
            _ => {
                // ALU: the handler *inspects the result value* to decide
                // whether it still points into a live block (ptr+offset
                // does; ptr-ptr differences and comparisons do not). The
                // hardware's non-blocking rule is the conservative OR;
                // the handler's value-informed answer is authoritative
                // and overwrites it (Section 5.2: the handler updates
                // both critical and non-critical metadata).
                let (s1, c1) = self.reg_info(state, ev.src1);
                let status = if ev.result_ptr { POINTER } else { NON_POINTER };
                let ctx = if s1 == POINTER {
                    c1
                } else {
                    self.reg_info(state, ev.src2).1
                };
                self.set_reg(state, ev.dest, status, ctx);
            }
        }
    }

    fn apply_high_level(&mut self, ev: &HighLevelEvent, state: &mut MetadataState) {
        match *ev {
            HighLevelEvent::Malloc { base, len, ctx } => {
                self.contexts.insert(
                    ctx,
                    Context {
                        id: ctx,
                        refs: 0,
                        live: true,
                        reported: false,
                    },
                );
                self.blocks.insert(base.raw(), ctx);
                // Fresh block holds no pointers.
                state.fill_app_range(base, len, NON_POINTER);
                for w in base.word_index()..base.wrapping_add(len).word_index() {
                    self.word_ctx.remove(&w);
                }
                // The returned pointer lands in the ABI return register.
                self.set_reg(state, Reg::RET, POINTER, ctx);
            }
            HighLevelEvent::Free { base, len } => {
                // Pointers stored inside the freed block release their
                // referents.
                for off in (0..len).step_by(4) {
                    let a = base.wrapping_add(off);
                    if state.mem_meta(a) == POINTER {
                        if let Some(c) = self.word_ctx.remove(&a.word_index()) {
                            self.dec(c);
                        }
                    }
                }
                state.fill_app_range(base, len, NON_POINTER);
                if let Some(ctx) = self.blocks.remove(&base.raw()) {
                    if let Some(c) = self.contexts.get_mut(&ctx) {
                        c.live = false;
                    }
                }
            }
            HighLevelEvent::TaintSource { .. } | HighLevelEvent::ThreadSwitch { .. } => {}
        }
    }

    fn apply_stack_update(&self, ev: &StackUpdateEvent, state: &mut MetadataState) {
        // Frame pointer-status is cleared both on allocation and on
        // release. (Reference-count adjustment for spilled pointers is
        // folded into the per-word handler cost.)
        state.fill_app_range(ev.base, ev.len, NON_POINTER);
    }

    fn costs(&self) -> CostModel {
        CostModel {
            cc: 15,
            ru: 15,
            partial_short: 18,
            complex: 20,
            stack_per_word: 1,
            stack_base: 20,
            high_level_base: 55,
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
    use fade_isa::{instr_event_for, MemRef, VirtAddr};

    fn fresh() -> (MemLeak, MetadataState) {
        (MemLeak::new(), MetadataState::new(MetadataMap::per_word()))
    }

    fn malloc(m: &mut MemLeak, st: &mut MetadataState, base: u32, len: u32, ctx: u32) {
        m.apply_high_level(
            &HighLevelEvent::Malloc {
                base: VirtAddr::new(base),
                len,
                ctx,
            },
            st,
        );
    }

    fn store(addr: u32, src: u8) -> InstrEvent {
        instr_event_for(
            &AppInstr::new(VirtAddr::new(8), InstrClass::Store)
                .with_src1(Reg::new(src))
                .with_mem(MemRef::word(VirtAddr::new(addr))),
        )
    }

    fn mov(src: u8, dst: u8) -> InstrEvent {
        instr_event_for(
            &AppInstr::new(VirtAddr::new(12), InstrClass::IntMove)
                .with_src1(Reg::new(src))
                .with_dest(Reg::new(dst)),
        )
    }

    #[test]
    fn non_pointer_events_are_clean_checks() {
        let (m, st) = fresh();
        assert_eq!(m.classify(&store(0x1000, 5), &st), EventClass::CleanCheck);
        assert_eq!(m.classify(&mov(5, 6), &st), EventClass::CleanCheck);
    }

    #[test]
    fn malloc_makes_return_register_a_pointer() {
        let (mut m, mut st) = fresh();
        malloc(&mut m, &mut st, 0x4000_0000, 64, 1);
        assert_eq!(st.reg_meta(Reg::RET), POINTER);
        // Any event touching the pointer register is complex.
        assert_eq!(
            m.classify(&mov(Reg::RET.index(), 5), &st),
            EventClass::Complex
        );
    }

    #[test]
    fn overwriting_last_pointer_reports_a_leak() {
        let (mut m, mut st) = fresh();
        malloc(&mut m, &mut st, 0x4000_0000, 64, 42);
        // Overwrite the only reference (RET) with a non-pointer.
        m.apply_instr(&mov(1, Reg::RET.index()), &mut st);
        assert_eq!(st.reg_meta(Reg::RET), NON_POINTER);
        assert_eq!(m.leaks_found(), 1, "reports: {:?}", m.reports());
    }

    #[test]
    fn spilled_pointer_keeps_block_reachable() {
        let (mut m, mut st) = fresh();
        malloc(&mut m, &mut st, 0x4000_0000, 64, 7);
        // Spill RET to memory, then overwrite RET: refcount stays > 0.
        m.apply_instr(&store(0x1000_0100, Reg::RET.index()), &mut st);
        assert_eq!(st.mem_meta(VirtAddr::new(0x1000_0100)), POINTER);
        m.apply_instr(&mov(1, Reg::RET.index()), &mut st);
        assert_eq!(m.leaks_found(), 0);
        // Clearing the spilled copy loses the last reference.
        m.apply_instr(&store(0x1000_0100, 1), &mut st);
        assert_eq!(m.leaks_found(), 1);
    }

    #[test]
    fn free_releases_interior_pointers() {
        let (mut m, mut st) = fresh();
        // Block 1, kept reachable through a spill to a global.
        malloc(&mut m, &mut st, 0x4000_0000, 64, 1);
        m.apply_instr(&store(0x1000_0200, Reg::RET.index()), &mut st);
        // Block 2, whose only lasting reference lives *inside* block 1.
        malloc(&mut m, &mut st, 0x4000_1000, 64, 2);
        m.apply_instr(&store(0x4000_0010, Reg::RET.index()), &mut st);
        m.apply_instr(&mov(1, Reg::RET.index()), &mut st);
        assert_eq!(m.leaks_found(), 0, "reports: {:?}", m.reports());
        // Freeing block 1 drops the interior reference to block 2.
        m.apply_high_level(
            &HighLevelEvent::Free {
                base: VirtAddr::new(0x4000_0000),
                len: 64,
            },
            &mut st,
        );
        assert_eq!(m.leaks_found(), 1);
    }

    #[test]
    fn mul_clears_pointer_status() {
        let (mut m, mut st) = fresh();
        malloc(&mut m, &mut st, 0x4000_0000, 64, 1);
        let mul = instr_event_for(
            &AppInstr::new(VirtAddr::new(16), InstrClass::IntMul)
                .with_src1(Reg::RET)
                .with_src2(Reg::new(2))
                .with_dest(Reg::new(3)),
        );
        m.apply_instr(&mul, &mut st);
        assert_eq!(st.reg_meta(Reg::new(3)), NON_POINTER);
    }

    #[test]
    fn program_validates_with_suu() {
        let p = MemLeak::new().program();
        assert!(p.validate().is_ok());
        assert!(p.suu().is_some());
    }
}
