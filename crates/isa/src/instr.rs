//! Retired dynamic instructions as seen by the monitoring system.

use std::fmt;

use crate::addr::VirtAddr;
use crate::reg::Reg;

/// The coarse instruction classes that instruction-grain monitors
/// distinguish (Section 3.1 of the paper).
///
/// Memory-tracking monitors select only `Load`/`Store`; propagation
/// trackers additionally select the value-producing classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstrClass {
    /// Memory load into a register.
    Load,
    /// Register stored to memory.
    Store,
    /// Two-source integer ALU operation (add, sub, logic ops, ...).
    IntAlu,
    /// Single-source integer operation (move, sign-extend, immediate load).
    IntMove,
    /// Integer multiply / divide.
    IntMul,
    /// Floating-point operation.
    FpAlu,
    /// Conditional branch.
    Branch,
    /// Unconditional or indirect jump.
    Jump,
    /// Function call (allocates a stack frame).
    Call,
    /// Function return (deallocates a stack frame).
    Return,
    /// No architectural effect (nop, prefetch, ...).
    Nop,
}

impl InstrClass {
    /// Every instruction class, in a stable order.
    pub const ALL: [InstrClass; 11] = [
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::IntAlu,
        InstrClass::IntMove,
        InstrClass::IntMul,
        InstrClass::FpAlu,
        InstrClass::Branch,
        InstrClass::Jump,
        InstrClass::Call,
        InstrClass::Return,
        InstrClass::Nop,
    ];

    /// Returns `true` for classes that reference memory.
    #[inline]
    pub const fn is_memory(self) -> bool {
        matches!(self, InstrClass::Load | InstrClass::Store)
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::Load => "load",
            InstrClass::Store => "store",
            InstrClass::IntAlu => "int-alu",
            InstrClass::IntMove => "int-move",
            InstrClass::IntMul => "int-mul",
            InstrClass::FpAlu => "fp-alu",
            InstrClass::Branch => "branch",
            InstrClass::Jump => "jump",
            InstrClass::Call => "call",
            InstrClass::Return => "return",
            InstrClass::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// A memory operand: effective address plus access size in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    /// Effective virtual address of the access.
    pub addr: VirtAddr,
    /// Access size in bytes (1, 2, 4 or 8).
    pub size: u8,
}

impl MemRef {
    /// A word-sized (4-byte) access.
    #[inline]
    pub const fn word(addr: VirtAddr) -> Self {
        MemRef { addr, size: 4 }
    }
}

/// A retired dynamic instruction, the unit the event producer observes.
///
/// Built with a lightweight builder-style API because most fields are
/// optional for most classes:
///
/// ```
/// use fade_isa::{AppInstr, InstrClass, MemRef, Reg, VirtAddr};
/// let store = AppInstr::new(VirtAddr::new(0x400), InstrClass::Store)
///     .with_src1(Reg::new(5))
///     .with_mem(MemRef::word(VirtAddr::new(0x9000_0000)));
/// assert!(store.class.is_memory());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AppInstr {
    /// Program counter of the instruction.
    pub pc: VirtAddr,
    /// Instruction class.
    pub class: InstrClass,
    /// First source register, if any.
    pub src1: Option<Reg>,
    /// Second source register, if any.
    pub src2: Option<Reg>,
    /// Destination register, if any.
    pub dest: Option<Reg>,
    /// Memory operand, if any.
    pub mem: Option<MemRef>,
    /// Hardware thread that retired the instruction.
    pub tid: u8,
    /// Side-band ground truth: the destination value is a pointer into
    /// a live allocation. Software handlers that inspect values (e.g.
    /// MemLeak's) consult this; the hardware never sees it.
    pub result_ptr: bool,
}

impl AppInstr {
    /// Creates an instruction of the given class with no operands.
    pub const fn new(pc: VirtAddr, class: InstrClass) -> Self {
        AppInstr {
            pc,
            class,
            src1: None,
            src2: None,
            dest: None,
            mem: None,
            tid: 0,
            result_ptr: false,
        }
    }

    /// Sets the value-inspection hint: the result is a pointer.
    pub const fn with_result_ptr(mut self, is_ptr: bool) -> Self {
        self.result_ptr = is_ptr;
        self
    }

    /// Sets the first source register.
    pub const fn with_src1(mut self, r: Reg) -> Self {
        self.src1 = Some(r);
        self
    }

    /// Sets the second source register.
    pub const fn with_src2(mut self, r: Reg) -> Self {
        self.src2 = Some(r);
        self
    }

    /// Sets the destination register.
    pub const fn with_dest(mut self, r: Reg) -> Self {
        self.dest = Some(r);
        self
    }

    /// Sets the memory operand.
    pub const fn with_mem(mut self, m: MemRef) -> Self {
        self.mem = Some(m);
        self
    }

    /// Sets the retiring hardware thread.
    pub const fn with_tid(mut self, tid: u8) -> Self {
        self.tid = tid;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let i = AppInstr::new(VirtAddr::new(4), InstrClass::IntAlu)
            .with_src1(Reg::new(1))
            .with_src2(Reg::new(2))
            .with_dest(Reg::new(3))
            .with_tid(2);
        assert_eq!(i.src1, Some(Reg::new(1)));
        assert_eq!(i.src2, Some(Reg::new(2)));
        assert_eq!(i.dest, Some(Reg::new(3)));
        assert_eq!(i.tid, 2);
        assert!(i.mem.is_none());
    }

    #[test]
    fn class_predicates() {
        assert!(InstrClass::Load.is_memory());
        assert!(InstrClass::Store.is_memory());
        assert!(!InstrClass::IntAlu.is_memory());
    }

    #[test]
    fn all_classes_have_display_names() {
        for c in InstrClass::ALL {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn memref_constructors() {
        let m = MemRef::word(VirtAddr::new(0x100));
        assert_eq!(m.size, 4);
    }
}
