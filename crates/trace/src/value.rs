//! Application-level value tags.
//!
//! The synthetic program tracks what its values *are* — pointers,
//! tainted input, initialized data — and propagates those properties
//! through the instructions it generates, exactly like a real program's
//! dataflow would. Monitors never see these tags; they reconstruct their
//! own metadata from the event stream. The tags only shape the workload
//! (which registers hold pointers, which words are initialized, ...).

use std::collections::HashMap;

use fade_isa::{Reg, VirtAddr, NUM_REGS};

/// A small set of value properties.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ValueTags(u8);

impl ValueTags {
    /// The value is a pointer into a live allocation.
    pub const POINTER: ValueTags = ValueTags(1 << 0);
    /// The value derives from tainted (external) input.
    pub const TAINT: ValueTags = ValueTags(1 << 1);
    /// The value has been written (is initialized).
    pub const INIT: ValueTags = ValueTags(1 << 2);

    /// No properties.
    pub const fn empty() -> Self {
        ValueTags(0)
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: ValueTags) -> ValueTags {
        ValueTags(self.0 | other.0)
    }

    /// Removes the given tags.
    #[inline]
    pub const fn without(self, other: ValueTags) -> ValueTags {
        ValueTags(self.0 & !other.0)
    }

    /// Returns `true` if every tag in `other` is present.
    #[inline]
    pub const fn contains(self, other: ValueTags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if no tags are set.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for ValueTags {
    type Output = ValueTags;
    fn bitor(self, rhs: ValueTags) -> ValueTags {
        self.union(rhs)
    }
}

/// Per-thread register tags plus process-wide memory word tags.
#[derive(Clone, Debug, Default)]
pub struct ValueState {
    regs: [ValueTags; NUM_REGS],
    mem: HashMap<u32, ValueTags>, // keyed by word index
}

impl ValueState {
    /// Creates a clean value state.
    pub fn new() -> Self {
        ValueState::default()
    }

    /// Tags of a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> ValueTags {
        self.regs[r.index() as usize]
    }

    /// Sets a register's tags (the zero register stays clean).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, t: ValueTags) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = t;
        }
    }

    /// Tags of the memory word containing `addr`.
    #[inline]
    pub fn mem(&self, addr: VirtAddr) -> ValueTags {
        self.mem
            .get(&addr.word_index())
            .copied()
            .unwrap_or_default()
    }

    /// Sets the tags of the word containing `addr`.
    #[inline]
    pub fn set_mem(&mut self, addr: VirtAddr, t: ValueTags) {
        if t.is_empty() {
            self.mem.remove(&addr.word_index());
        } else {
            self.mem.insert(addr.word_index(), t);
        }
    }

    /// Clears the tags of every word in `[base, base+len)` (frame
    /// deallocation, free).
    pub fn clear_range(&mut self, base: VirtAddr, len: u32) {
        let first = base.word_index();
        let last = base.wrapping_add(len.saturating_sub(1)).word_index();
        for w in first..=last {
            self.mem.remove(&w);
        }
    }

    /// Registers currently holding pointers.
    pub fn pointer_regs(&self) -> Vec<Reg> {
        Reg::all()
            .filter(|&r| self.reg(r).contains(ValueTags::POINTER))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_algebra() {
        let t = ValueTags::POINTER | ValueTags::INIT;
        assert!(t.contains(ValueTags::POINTER));
        assert!(t.contains(ValueTags::INIT));
        assert!(!t.contains(ValueTags::TAINT));
        assert!(t.without(ValueTags::POINTER | ValueTags::INIT).is_empty());
    }

    #[test]
    fn reg_round_trip_and_zero_reg() {
        let mut s = ValueState::new();
        s.set_reg(Reg::new(4), ValueTags::POINTER);
        assert!(s.reg(Reg::new(4)).contains(ValueTags::POINTER));
        s.set_reg(Reg::ZERO, ValueTags::TAINT);
        assert!(s.reg(Reg::ZERO).is_empty());
    }

    #[test]
    fn mem_round_trip_word_granular() {
        let mut s = ValueState::new();
        s.set_mem(VirtAddr::new(0x1002), ValueTags::INIT);
        assert!(s.mem(VirtAddr::new(0x1000)).contains(ValueTags::INIT));
        assert!(s.mem(VirtAddr::new(0x1004)).is_empty());
    }

    #[test]
    fn clear_range_sweeps_words() {
        let mut s = ValueState::new();
        for a in (0x2000..0x2040).step_by(4) {
            s.set_mem(VirtAddr::new(a), ValueTags::INIT);
        }
        s.clear_range(VirtAddr::new(0x2000), 0x20);
        assert!(s.mem(VirtAddr::new(0x201c)).is_empty());
        assert!(s.mem(VirtAddr::new(0x2020)).contains(ValueTags::INIT));
    }

    #[test]
    fn pointer_reg_enumeration() {
        let mut s = ValueState::new();
        assert!(s.pointer_regs().is_empty());
        s.set_reg(Reg::new(8), ValueTags::POINTER);
        s.set_reg(Reg::new(9), ValueTags::TAINT);
        assert_eq!(s.pointer_regs(), vec![Reg::new(8)]);
    }
}
