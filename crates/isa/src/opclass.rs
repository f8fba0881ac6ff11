//! Event-ID assignment: the event producer's decoder.
//!
//! The hardware event producer tags each monitored instruction with an
//! event ID that indexes the event table. The assignment is a pure
//! function of the instruction's class and operand shape; monitors then
//! program the table entries for the IDs they care about.

use crate::event::{EventId, InstrEvent};
use crate::instr::{AppInstr, InstrClass};
use crate::reg::Reg;

/// The canonical primary event IDs produced by the decoder.
///
/// IDs 0..=15 are decoder-assigned; IDs 64..128 are reserved for
/// multi-shot continuation entries that monitors allocate themselves.
pub mod event_ids {
    use crate::event::EventId;

    /// Memory load into an integer register.
    pub const LOAD: EventId = EventId::new(1);
    /// Integer register stored to memory.
    pub const STORE: EventId = EventId::new(2);
    /// Two-source integer ALU operation.
    pub const INT_ALU: EventId = EventId::new(3);
    /// Single-source integer move/immediate.
    pub const INT_MOVE: EventId = EventId::new(4);
    /// Integer multiply/divide.
    pub const INT_MUL: EventId = EventId::new(5);
    /// Floating-point operation.
    pub(crate) const FP_ALU: EventId = EventId::new(6);
    /// Conditional branch.
    pub const BRANCH: EventId = EventId::new(7);
    /// Unconditional/indirect jump.
    pub(crate) const JUMP: EventId = EventId::new(8);
    /// Function call instruction (beyond the stack update itself).
    pub(crate) const CALL: EventId = EventId::new(9);
    /// Function return instruction.
    pub(crate) const RETURN: EventId = EventId::new(10);
    /// Anything else (nop, prefetch): never monitored.
    pub(crate) const OTHER: EventId = EventId::new(0);

    /// First table index available for monitor-allocated multi-shot
    /// continuation entries.
    pub const FIRST_CONTINUATION: u8 = 64;
}

/// Maps a retired instruction to its primary event ID.
///
/// This models the fixed decode logic of the event producer; it is total
/// (every instruction gets an ID, monitored or not).
///
/// # Example
///
/// ```
/// use fade_isa::{event_id_for, event_ids, AppInstr, InstrClass, VirtAddr};
/// let i = AppInstr::new(VirtAddr::new(0), InstrClass::Branch);
/// assert_eq!(event_id_for(&i), event_ids::BRANCH);
/// ```
pub fn event_id_for(instr: &AppInstr) -> EventId {
    match instr.class {
        InstrClass::Load => event_ids::LOAD,
        InstrClass::Store => event_ids::STORE,
        InstrClass::IntAlu => event_ids::INT_ALU,
        InstrClass::IntMove => event_ids::INT_MOVE,
        InstrClass::IntMul => event_ids::INT_MUL,
        InstrClass::FpAlu => event_ids::FP_ALU,
        InstrClass::Branch => event_ids::BRANCH,
        InstrClass::Jump => event_ids::JUMP,
        InstrClass::Call => event_ids::CALL,
        InstrClass::Return => event_ids::RETURN,
        InstrClass::Nop => event_ids::OTHER,
    }
}

/// Builds the Figure 6(a) instruction event for a retired instruction.
///
/// Register fields that the instruction does not use are encoded as the
/// zero register, whose metadata is always clean; the event-table operand
/// valid bits decide which fields participate in filtering.
pub fn instr_event_for(instr: &AppInstr) -> InstrEvent {
    InstrEvent {
        id: event_id_for(instr),
        app_addr: instr.mem.map(|m| m.addr).unwrap_or_default(),
        app_pc: instr.pc,
        src1: instr.src1.unwrap_or(Reg::ZERO),
        src2: instr.src2.unwrap_or(Reg::ZERO),
        dest: instr.dest.unwrap_or(Reg::ZERO),
        mem_size: instr.mem.map(|m| m.size).unwrap_or(0),
        tid: instr.tid,
        result_ptr: instr.result_ptr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;
    use crate::instr::MemRef;

    #[test]
    fn every_class_maps_to_an_id() {
        for class in InstrClass::ALL {
            let i = AppInstr::new(VirtAddr::new(0), class);
            let id = event_id_for(&i);
            assert!(id.index() < 16, "primary ids stay in decoder range");
        }
    }

    #[test]
    fn distinct_monitored_classes_get_distinct_ids() {
        use std::collections::HashSet;
        let ids: HashSet<_> = InstrClass::ALL
            .iter()
            .filter(|c| !matches!(c, InstrClass::Nop))
            .map(|&c| event_id_for(&AppInstr::new(VirtAddr::new(0), c)))
            .collect();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn instr_event_carries_operands() {
        let i = AppInstr::new(VirtAddr::new(0x40), InstrClass::Load)
            .with_dest(Reg::new(9))
            .with_mem(MemRef::word(VirtAddr::new(0x9000)))
            .with_tid(3);
        let e = instr_event_for(&i);
        assert_eq!(e.id, event_ids::LOAD);
        assert_eq!(e.app_addr, VirtAddr::new(0x9000));
        assert_eq!(e.dest, Reg::new(9));
        assert_eq!(e.src1, Reg::ZERO);
        assert_eq!(e.mem_size, 4);
        assert_eq!(e.tid, 3);
    }
}
