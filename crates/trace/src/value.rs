//! Application-level value tags.
//!
//! The synthetic program tracks what its values *are* — pointers,
//! tainted input, initialized data — and propagates those properties
//! through the instructions it generates, exactly like a real program's
//! dataflow would. Monitors never see these tags; they reconstruct their
//! own metadata from the event stream. The tags only shape the workload
//! (which registers hold pointers, which words are initialized, ...).
//!
//! Two stores hold them, both touched by nearly every generated
//! instruction:
//!
//! * [`RegTags`] — one thread's register file, with a bitmask of the
//!   registers holding pointers so a pointer source is picked without
//!   scanning or allocating;
//! * [`WordTags`] — the process-wide memory words, one tag byte per
//!   word in a two-level page table. Reads of never-written territory
//!   cost no allocation, and clearing a freed block or a popped frame is
//!   a slice fill per page.
//!
//! Nothing iterates either store, so their layout cannot change the
//! generator's random draws.

use fade_isa::{Reg, VirtAddr, NUM_REGS};

/// A small set of value properties.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub(crate) struct ValueTags(u8);

impl ValueTags {
    /// The value is a pointer into a live allocation.
    pub(crate) const POINTER: ValueTags = ValueTags(1 << 0);
    /// The value derives from tainted (external) input.
    pub(crate) const TAINT: ValueTags = ValueTags(1 << 1);
    /// The value has been written (is initialized).
    pub(crate) const INIT: ValueTags = ValueTags(1 << 2);

    /// No properties.
    pub(crate) const fn empty() -> Self {
        ValueTags(0)
    }

    /// Set union.
    #[inline]
    pub(crate) const fn union(self, other: ValueTags) -> ValueTags {
        ValueTags(self.0 | other.0)
    }

    /// Removes the given tags.
    #[inline]
    pub(crate) const fn without(self, other: ValueTags) -> ValueTags {
        ValueTags(self.0 & !other.0)
    }

    /// Returns `true` if every tag in `other` is present.
    #[inline]
    pub(crate) const fn contains(self, other: ValueTags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if no tags are set.
    #[inline]
    pub(crate) const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for ValueTags {
    type Output = ValueTags;
    fn bitor(self, rhs: ValueTags) -> ValueTags {
        self.union(rhs)
    }
}

// The pointer bitmask has one bit per register.
const _: () = assert!(NUM_REGS <= 32);

/// One thread's register tags.
#[derive(Clone, Debug, Default)]
pub(crate) struct RegTags {
    tags: [ValueTags; NUM_REGS],
    /// Bit `i` is set exactly when register `i` holds a pointer.
    pointers: u32,
}

impl RegTags {
    /// Tags of a register.
    #[inline]
    pub(crate) fn get(&self, r: Reg) -> ValueTags {
        self.tags[r.index() as usize]
    }

    /// Sets a register's tags (the zero register stays clean).
    #[inline]
    pub(crate) fn set(&mut self, r: Reg, t: ValueTags) {
        if r.is_zero() {
            return;
        }
        let i = r.index() as usize;
        self.tags[i] = t;
        let bit = 1u32 << i;
        if t.contains(ValueTags::POINTER) {
            self.pointers |= bit;
        } else {
            self.pointers &= !bit;
        }
    }

    /// Number of registers holding pointers.
    #[inline]
    pub(crate) fn pointer_count(&self) -> u32 {
        self.pointers.count_ones()
    }

    /// The `k`-th pointer-holding register, in register-index order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.pointer_count()`.
    #[inline]
    pub(crate) fn nth_pointer(&self, k: u32) -> Reg {
        let mut m = self.pointers;
        for _ in 0..k {
            m &= m.wrapping_sub(1); // drop the lowest set bit
        }
        assert!(m != 0, "pointer register {k} out of range");
        Reg::new(m.trailing_zeros() as u8)
    }
}

/// Log2 of the words per page of [`WordTags`].
const PAGE_SHIFT: u32 = 10;
const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
/// Log2 of the words per directory block (4 MiB of address space).
const BLOCK_SHIFT: u32 = 20;
const BLOCK_PAGES: usize = 1 << (BLOCK_SHIFT - PAGE_SHIFT);
/// Directory blocks covering the 2^30 words of the 32-bit address
/// space.
const DIR_BLOCKS: usize = 1 << (30 - BLOCK_SHIFT);

type Page = [ValueTags; PAGE_WORDS];

/// Process-wide memory word tags.
///
/// `dir[w >> 20]` holds the page slots of one 4 MiB span and stays an
/// empty `Vec` until a word in it is first tagged; a missing block or
/// page reads as untagged.
pub(crate) struct WordTags {
    dir: Vec<Vec<Option<Box<Page>>>>,
}

/// (directory block, page within the block, word within the page) of a
/// word index.
#[inline]
fn split(word: u32) -> (usize, usize, usize) {
    (
        (word >> BLOCK_SHIFT) as usize,
        (word >> PAGE_SHIFT) as usize & (BLOCK_PAGES - 1),
        word as usize & (PAGE_WORDS - 1),
    )
}

impl WordTags {
    /// No word tagged.
    pub(crate) fn new() -> Self {
        WordTags {
            dir: vec![Vec::new(); DIR_BLOCKS],
        }
    }

    /// Tags of the memory word containing `addr`.
    #[inline]
    pub(crate) fn get(&self, addr: VirtAddr) -> ValueTags {
        let (d, p, o) = split(addr.word_index());
        match self.dir[d].get(p) {
            Some(Some(page)) => page[o],
            _ => ValueTags::empty(),
        }
    }

    /// Sets the tags of the word containing `addr`.
    #[inline]
    pub(crate) fn set(&mut self, addr: VirtAddr, t: ValueTags) {
        let (d, p, o) = split(addr.word_index());
        let block = &mut self.dir[d];
        if block.is_empty() {
            if t.is_empty() {
                return;
            }
            block.resize_with(BLOCK_PAGES, || None);
        }
        match &mut block[p] {
            Some(page) => page[o] = t,
            None if t.is_empty() => {}
            slot => slot.insert(Box::new([ValueTags::empty(); PAGE_WORDS]))[o] = t,
        }
    }

    /// Clears the tags of every word in `[base, base+len)` (frame
    /// deallocation, free). A `len` of 0 clears the word at `base`; a
    /// range that wraps past the top of the address space clears
    /// nothing.
    pub(crate) fn clear_range(&mut self, base: VirtAddr, len: u32) {
        let first = base.word_index();
        let last = base.wrapping_add(len.saturating_sub(1)).word_index();
        // Word indices stay below 2^30, so `w` cannot overflow.
        let mut w = first;
        while w <= last {
            let (d, p, o) = split(w);
            let n = (PAGE_WORDS - o).min((last - w) as usize + 1);
            if let Some(Some(page)) = self.dir[d].get_mut(p) {
                page[o..o + n].fill(ValueTags::empty());
            }
            w += n as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use fade_isa::layout;
    use proptest::prelude::*;

    /// The memory half of the generator's former tag store, kept as the
    /// oracle for [`WordTags`]: a hash map keyed by word index.
    #[derive(Default)]
    struct MapWordTags(HashMap<u32, ValueTags>);

    impl MapWordTags {
        fn get(&self, addr: VirtAddr) -> ValueTags {
            self.0.get(&addr.word_index()).copied().unwrap_or_default()
        }

        fn set(&mut self, addr: VirtAddr, t: ValueTags) {
            if t.is_empty() {
                self.0.remove(&addr.word_index());
            } else {
                self.0.insert(addr.word_index(), t);
            }
        }

        fn clear_range(&mut self, base: VirtAddr, len: u32) {
            let first = base.word_index();
            let last = base.wrapping_add(len.saturating_sub(1)).word_index();
            for w in first..=last {
                self.0.remove(&w);
            }
        }
    }

    /// The former `pointer_regs`: every pointer-holding register,
    /// collected in index order.
    fn collected_pointers(r: &RegTags) -> Vec<Reg> {
        Reg::all()
            .filter(|&x| r.get(x).contains(ValueTags::POINTER))
            .collect()
    }

    /// Addresses the generator touches — globals, heap and stack — with
    /// page edges and directory-block edges among them.
    const ANCHORS: [u32; 8] = [
        layout::GLOBALS_BASE,
        layout::GLOBALS_BASE + 0x1000,
        layout::HEAP_BASE,
        layout::HEAP_BASE + 0x40_0000,
        layout::HEAP_BASE + 0x40_1000,
        layout::STACK_TOP - 0x40_0000,
        layout::STACK_TOP - 0x1000,
        layout::STACK_TOP,
    ];

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Set(u32, u8),
        Get(u32),
        Clear(u32, u32),
        /// Clear `len` bytes ending just below an anchor: the last word
        /// cleared is a page's (and sometimes a block's) last word.
        ClearBelow(usize, u32),
        /// Clear from `len` bytes below an anchor through the anchor's
        /// word: the last page holds a single word of the range.
        ClearThrough(usize, u32),
    }

    /// An address within 8 KiB of an anchor, often within 64 bytes.
    fn near_anchor() -> impl Strategy<Value = u32> {
        prop_oneof![
            (0usize..ANCHORS.len(), 0u32..16_384),
            (0usize..ANCHORS.len(), 8_128u32..8_256),
        ]
        .prop_map(|(a, off)| ANCHORS[a].wrapping_add(off).wrapping_sub(8_192))
    }

    /// A range length: anything up to three pages, or a word or two.
    fn range_len() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..12_000, 0u32..9]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (near_anchor(), 0u8..8).prop_map(|(a, t)| Op::Set(a, t)),
            near_anchor().prop_map(Op::Get),
            (near_anchor(), range_len()).prop_map(|(a, n)| Op::Clear(a, n)),
            (0usize..ANCHORS.len(), range_len()).prop_map(|(a, n)| Op::ClearBelow(a, n)),
            (0usize..ANCHORS.len(), range_len()).prop_map(|(a, n)| Op::ClearThrough(a, n)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random set/get/clear sequences read back exactly what the
        /// hash-map store reads back.
        #[test]
        fn word_tags_match_hash_map_reference(
            ops in prop::collection::vec(op(), 1..120),
        ) {
            let mut fast = WordTags::new();
            let mut oracle = MapWordTags::default();
            let mut touched = Vec::new();
            for op in ops {
                match op {
                    Op::Set(a, t) => {
                        let a = VirtAddr::new(a);
                        fast.set(a, ValueTags(t));
                        oracle.set(a, ValueTags(t));
                        touched.push(a);
                    }
                    Op::Get(a) => {
                        let a = VirtAddr::new(a);
                        prop_assert_eq!(fast.get(a), oracle.get(a));
                    }
                    Op::Clear(a, n) => {
                        fast.clear_range(VirtAddr::new(a), n);
                        oracle.clear_range(VirtAddr::new(a), n);
                    }
                    Op::ClearBelow(i, n) => {
                        let base = VirtAddr::new(ANCHORS[i].wrapping_sub(n));
                        fast.clear_range(base, n);
                        oracle.clear_range(base, n);
                    }
                    Op::ClearThrough(i, n) => {
                        let base = VirtAddr::new(ANCHORS[i].wrapping_sub(n));
                        fast.clear_range(base, n + 4);
                        oracle.clear_range(base, n + 4);
                    }
                }
            }
            for a in touched {
                for probe in [a, a.wrapping_add(4), a.wrapping_sub(4)] {
                    prop_assert_eq!(fast.get(probe), oracle.get(probe), "word at {}", probe);
                }
            }
        }

        /// The k-th pointer register is element k of the collected list.
        #[test]
        fn nth_pointer_matches_collected_list(
            writes in prop::collection::vec((0u8..32, 0u8..8), 0..64),
        ) {
            let mut regs = RegTags::default();
            for (r, t) in writes {
                regs.set(Reg::new(r), ValueTags(t));
            }
            let list = collected_pointers(&regs);
            prop_assert_eq!(regs.pointer_count() as usize, list.len());
            for (k, &r) in list.iter().enumerate() {
                prop_assert_eq!(regs.nth_pointer(k as u32), r);
            }
        }
    }

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
        let mut s = RegTags::default();
        s.set(Reg::new(4), ValueTags::POINTER);
        assert!(s.get(Reg::new(4)).contains(ValueTags::POINTER));
        s.set(Reg::ZERO, ValueTags::TAINT);
        assert!(s.get(Reg::ZERO).is_empty());
    }

    #[test]
    fn mem_round_trip_word_granular() {
        let mut s = WordTags::new();
        s.set(VirtAddr::new(0x1002), ValueTags::INIT);
        assert!(s.get(VirtAddr::new(0x1000)).contains(ValueTags::INIT));
        assert!(s.get(VirtAddr::new(0x1004)).is_empty());
    }

    #[test]
    fn clear_range_sweeps_words() {
        let mut s = WordTags::new();
        for a in (0x2000..0x2040).step_by(4) {
            s.set(VirtAddr::new(a), ValueTags::INIT);
        }
        s.clear_range(VirtAddr::new(0x2000), 0x20);
        assert!(s.get(VirtAddr::new(0x201c)).is_empty());
        assert!(s.get(VirtAddr::new(0x2020)).contains(ValueTags::INIT));
    }

    #[test]
    fn pointer_reg_enumeration() {
        let mut s = RegTags::default();
        assert_eq!(s.pointer_count(), 0);
        s.set(Reg::new(8), ValueTags::POINTER);
        s.set(Reg::new(9), ValueTags::TAINT);
        assert_eq!(s.pointer_count(), 1);
        assert_eq!(s.nth_pointer(0), Reg::new(8));
        s.set(Reg::new(8), ValueTags::INIT);
        assert_eq!(s.pointer_count(), 0);
    }
}
