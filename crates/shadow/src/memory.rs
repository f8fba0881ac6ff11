//! Sparse paged metadata memory.
//!
//! Every Metadata Read stage of the filtering pipeline lands here (up
//! to three operand reads per event), so the page lookup is the hottest
//! data-structure operation in the whole reproduction. The page table
//! is a specialized open-addressing hash map — Fibonacci hashing with
//! linear probing, no SipHash, no per-lookup allocation — fronted by a
//! one-entry last-page cache that turns the dominant same-page access
//! pattern into a single compare.
//!
//! # Memory cap
//!
//! A written page holds a full 4 KiB frame; a page set whole by
//! [`ShadowMemory::fill`] holds one byte until a partial write expands
//! it. By default the memory grows without limit.
//! [`ShadowMemory::set_mem_cap`] installs a cap on the bytes held in
//! full frames: exceeding it latches a sticky, typed [`BudgetExceeded`]
//! that the session layer surfaces. The memory keeps operating
//! correctly past the cap; it only reports it.

use std::cell::Cell;

/// Log2 of a shadow page, kept equal to the application page size so the
/// M-TLB maps one application page to one metadata frame.
pub(crate) const SHADOW_PAGE_SHIFT: u32 = 12;
/// Shadow page size in bytes.
pub const SHADOW_PAGE_SIZE: usize = 1 << SHADOW_PAGE_SHIFT;

/// Sentinel for "no cached page" (no valid page number is all-ones:
/// metadata addresses are well below 2^64).
const NO_PAGE: u64 = u64::MAX;

/// How one materialized page is stored.
#[derive(Clone, Debug)]
enum PageRepr {
    /// A full 4 KiB frame (the only writable representation).
    Full(Box<[u8; SHADOW_PAGE_SIZE]>),
    /// Every byte of the page holds this value.
    Uniform(u8),
}

/// One materialized page: number and storage.
#[derive(Clone, Debug)]
struct PageSlot {
    page: u64,
    repr: PageRepr,
}

type Slot = Option<PageSlot>;

/// Residency statistics of a [`ShadowMemory`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShadowCounters {
    /// High-water mark of simultaneously-resident full frames.
    pub peak_full_pages: usize,
}

/// Typed error latched when shadow state exceeds the configured byte
/// cap.
///
/// The memory keeps operating correctly past this point (no data is
/// dropped); the error is *sticky* and reported through
/// [`ShadowMemory::budget_exceeded`] so the session layer can fail the
/// run in a typed way instead of letting one tenant grow without bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The configured cap on shadow bytes.
    pub cap_bytes: usize,
    /// Bytes actually held when the cap was first exceeded.
    pub used_bytes: usize,
    /// Full frames resident at that moment.
    pub(crate) full_pages: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shadow memory budget exceeded: {} bytes held ({} full pages) > cap {}",
            self.used_bytes, self.full_pages, self.cap_bytes
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A sparse, byte-granularity metadata memory.
///
/// Pages are materialized on first write; reads of untouched memory
/// return zero, which every monitor maps to its "unallocated"/"clean"
/// encoding so that fresh address space is consistently encoded.
///
/// Addresses here are *metadata-space* addresses (`u64`), produced by
/// [`MetadataMap`](crate::MetadataMap).
#[derive(Clone, Debug)]
pub struct ShadowMemory {
    /// Power-of-two open-addressing table of materialized pages.
    slots: Vec<Slot>,
    /// `slots.len() - 1` (slots is always a power of two when non-empty).
    mask: usize,
    /// Materialized page count (any representation).
    len: usize,
    /// Pages currently held as full frames.
    full_pages: usize,
    /// Cap on shadow bytes; exceeding it latches `exceeded`.
    mem_cap_bytes: Option<usize>,
    /// Sticky budget-exceeded record.
    exceeded: Option<BudgetExceeded>,
    counters: ShadowCounters,
    /// Last page number looked up (read or write), `NO_PAGE` if none.
    last_page: Cell<u64>,
    /// Slot index of `last_page`.
    last_slot: Cell<usize>,
}

impl Default for ShadowMemory {
    fn default() -> Self {
        ShadowMemory::new()
    }
}

impl ShadowMemory {
    /// Creates an empty, uncapped shadow memory.
    pub fn new() -> Self {
        ShadowMemory {
            slots: Vec::new(),
            mask: 0,
            len: 0,
            full_pages: 0,
            mem_cap_bytes: None,
            exceeded: None,
            counters: ShadowCounters::default(),
            last_page: Cell::new(NO_PAGE),
            last_slot: Cell::new(0),
        }
    }

    /// Installs (or clears) the byte cap: holding more than
    /// `mem_cap_bytes` of shadow bytes latches a sticky
    /// [`BudgetExceeded`].
    pub fn set_mem_cap(&mut self, mem_cap_bytes: Option<usize>) {
        self.mem_cap_bytes = mem_cap_bytes;
        self.note_full_pages();
    }

    /// Residency statistics.
    pub fn counters(&self) -> ShadowCounters {
        self.counters
    }

    /// The sticky byte-cap violation, if one has been latched.
    pub fn budget_exceeded(&self) -> Option<&BudgetExceeded> {
        self.exceeded.as_ref()
    }

    /// Bytes currently held by full page frames.
    pub fn shadow_bytes(&self) -> usize {
        self.full_pages * SHADOW_PAGE_SIZE
    }

    /// Fibonacci multiplicative hash: spreads consecutive page numbers
    /// across the table while staying a couple of instructions.
    #[inline]
    fn hash(page: u64) -> u64 {
        page.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Finds the slot index holding `page`, starting from its hash
    /// position, or `None` if the page is not materialized.
    #[inline]
    fn find(&self, page: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        if self.last_page.get() == page {
            return Some(self.last_slot.get());
        }
        let mut i = (Self::hash(page) >> 32) as usize & self.mask;
        loop {
            match &self.slots[i] {
                Some(s) if s.page == page => {
                    self.last_page.set(page);
                    self.last_slot.set(i);
                    return Some(i);
                }
                Some(_) => i = (i + 1) & self.mask,
                None => return None,
            }
        }
    }

    /// The representation of the page in slot `i`.
    #[inline]
    fn repr(&self, i: usize) -> &PageRepr {
        &self.slots[i].as_ref().expect("found slot is occupied").repr
    }

    /// Grows (or initializes) the table to at least double capacity and
    /// re-inserts every page.
    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let mut slots: Vec<Slot> = Vec::new();
        slots.resize_with(new_cap, || None);
        let mask = new_cap - 1;
        for s in self.slots.drain(..).flatten() {
            let mut i = (Self::hash(s.page) >> 32) as usize & mask;
            while slots[i].is_some() {
                i = (i + 1) & mask;
            }
            slots[i] = Some(s);
        }
        self.slots = slots;
        self.mask = mask;
        self.last_page.set(NO_PAGE);
    }

    /// Inserts a new page slot, growing as needed; returns its index.
    fn insert(&mut self, page: u64, repr: PageRepr) -> usize {
        // Keep the table at most ~7/8 full.
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut i = (Self::hash(page) >> 32) as usize & self.mask;
        while self.slots[i].is_some() {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = Some(PageSlot { page, repr });
        self.len += 1;
        self.last_page.set(page);
        self.last_slot.set(i);
        i
    }

    /// Records the full-frame high-water mark and checks the byte cap;
    /// runs whenever a page gains a full frame.
    fn note_full_pages(&mut self) {
        self.counters.peak_full_pages = self.counters.peak_full_pages.max(self.full_pages);
        if let Some(cap) = self.mem_cap_bytes {
            let used = self.shadow_bytes();
            if used > cap && self.exceeded.is_none() {
                self.exceeded = Some(BudgetExceeded {
                    cap_bytes: cap,
                    used_bytes: used,
                    full_pages: self.full_pages,
                });
            }
        }
    }

    /// The page's storage as a full frame, materializing it or expanding
    /// its uniform form as needed.
    fn page_mut(&mut self, page: u64) -> &mut [u8; SHADOW_PAGE_SIZE] {
        let i = match self.find(page) {
            Some(i) => {
                if let PageRepr::Uniform(v) = *self.repr(i) {
                    let slot = self.slots[i].as_mut().expect("found slot is occupied");
                    slot.repr = PageRepr::Full(Box::new([v; SHADOW_PAGE_SIZE]));
                    self.full_pages += 1;
                    self.note_full_pages();
                }
                i
            }
            None => {
                let i = self.insert(page, PageRepr::Full(Box::new([0u8; SHADOW_PAGE_SIZE])));
                self.full_pages += 1;
                self.note_full_pages();
                i
            }
        };
        match &mut self.slots[i].as_mut().expect("found slot is occupied").repr {
            PageRepr::Full(frame) => frame,
            PageRepr::Uniform(_) => unreachable!("page was just expanded to a full frame"),
        }
    }

    /// Reads one metadata byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        let page = addr >> SHADOW_PAGE_SHIFT;
        let off = (addr as usize) & (SHADOW_PAGE_SIZE - 1);
        let Some(i) = self.find(page) else { return 0 };
        match self.repr(i) {
            PageRepr::Full(p) => p[off],
            PageRepr::Uniform(v) => *v,
        }
    }

    /// Reads up to 8 metadata bytes starting at `addr`, little-endian
    /// packed into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0 || n > 8`.
    pub fn read_bytes(&self, addr: u64, n: usize) -> u64 {
        assert!((1..=8).contains(&n), "metadata reads are 1..=8 bytes");
        let page = addr >> SHADOW_PAGE_SHIFT;
        let off = (addr as usize) & (SHADOW_PAGE_SIZE - 1);
        if off + n <= SHADOW_PAGE_SIZE {
            // Single-page fast path: one lookup for the whole access.
            let Some(i) = self.find(page) else { return 0 };
            let mut v = 0u64;
            match self.repr(i) {
                PageRepr::Full(p) => {
                    for i in 0..n {
                        v |= (p[off + i] as u64) << (8 * i);
                    }
                }
                PageRepr::Uniform(b) => {
                    for i in 0..n {
                        v |= (*b as u64) << (8 * i);
                    }
                }
            }
            v
        } else {
            let mut v = 0u64;
            for i in 0..n {
                v |= (self.read_u8(addr + i as u64) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes one metadata byte, materializing the page if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = addr >> SHADOW_PAGE_SHIFT;
        let off = (addr as usize) & (SHADOW_PAGE_SIZE - 1);
        self.page_mut(page)[off] = value;
    }

    /// Writes the low `n` bytes of `value` starting at `addr`,
    /// little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0 || n > 8`.
    pub fn write_bytes(&mut self, addr: u64, n: usize, value: u64) {
        assert!((1..=8).contains(&n), "metadata writes are 1..=8 bytes");
        let page = addr >> SHADOW_PAGE_SHIFT;
        let off = (addr as usize) & (SHADOW_PAGE_SIZE - 1);
        if off + n <= SHADOW_PAGE_SIZE {
            let p = self.page_mut(page);
            for i in 0..n {
                p[off + i] = (value >> (8 * i)) as u8;
            }
        } else {
            for i in 0..n {
                self.write_u8(addr + i as u64, (value >> (8 * i)) as u8);
            }
        }
    }

    /// Sets `len` consecutive metadata bytes to `value` (bulk
    /// initialization, as performed by the stack-update unit and the
    /// malloc/free handlers). Whole-page spans are stored in the
    /// one-byte uniform representation directly — bulk updates never
    /// cost full frames.
    pub fn fill(&mut self, addr: u64, len: u64, value: u8) {
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let page = cur >> SHADOW_PAGE_SHIFT;
            let off = (cur as usize) & (SHADOW_PAGE_SIZE - 1);
            let in_page = (SHADOW_PAGE_SIZE - off).min((end - cur) as usize);
            if in_page == SHADOW_PAGE_SIZE {
                // Whole page: the compact form is exact.
                match self.find(page) {
                    Some(i) => {
                        let slot = self.slots[i].as_mut().expect("found slot is occupied");
                        if let PageRepr::Full(_) = slot.repr {
                            self.full_pages -= 1;
                        }
                        slot.repr = PageRepr::Uniform(value);
                    }
                    None => {
                        self.insert(page, PageRepr::Uniform(value));
                    }
                }
            } else {
                let p = self.page_mut(page);
                p[off..off + in_page].fill(value);
            }
            cur += in_page as u64;
        }
    }

    /// Pages currently resident as full frames.
    pub fn resident_full_pages(&self) -> usize {
        self.full_pages
    }

    /// Materialized pages holding at least one non-zero byte (pages of
    /// zeros read exactly like untouched ones).
    fn nonzero_pages(&self) -> impl Iterator<Item = &PageSlot> {
        self.slots.iter().flatten().filter(|s| !s.repr.is_zero())
    }

    /// Materialized pages with at least one non-zero byte, expanded and
    /// sorted by page number — the canonical content of the memory, and
    /// the oracle the in-place [`PartialEq`] is tested against.
    #[cfg(test)]
    fn canonical_pages(&self) -> Vec<(u64, Box<[u8; SHADOW_PAGE_SIZE]>)> {
        let mut pages: Vec<(u64, Box<[u8; SHADOW_PAGE_SIZE]>)> = self
            .nonzero_pages()
            .map(|s| {
                let frame = match &s.repr {
                    PageRepr::Full(p) => p.clone(),
                    PageRepr::Uniform(v) => Box::new([*v; SHADOW_PAGE_SIZE]),
                };
                (s.page, frame)
            })
            .collect();
        pages.sort_unstable_by_key(|&(page, _)| page);
        pages
    }
}

impl PageRepr {
    /// Every byte of the page is zero.
    fn is_zero(&self) -> bool {
        match self {
            PageRepr::Full(p) => p.iter().all(|&b| b == 0),
            PageRepr::Uniform(v) => *v == 0,
        }
    }

    /// The two pages hold the same bytes, whatever their storage.
    fn same_bytes(&self, other: &PageRepr) -> bool {
        match (self, other) {
            (PageRepr::Full(a), PageRepr::Full(b)) => a == b,
            (PageRepr::Uniform(a), PageRepr::Uniform(b)) => a == b,
            (PageRepr::Full(p), PageRepr::Uniform(v)) | (PageRepr::Uniform(v), PageRepr::Full(p)) => {
                p.iter().all(|b| b == v)
            }
        }
    }
}

/// Semantic equality: two memories are equal when every metadata byte
/// reads the same, regardless of table layout, page representation
/// (full or uniform), cap or zero-filled pages. Compares pages in place:
/// each non-zero page of one side must read the same on the other, and
/// both sides must hold as many non-zero pages.
impl PartialEq for ShadowMemory {
    fn eq(&self, other: &Self) -> bool {
        let mut pages = 0;
        for s in self.nonzero_pages() {
            pages += 1;
            match other.find(s.page) {
                Some(i) if other.repr(i).same_bytes(&s.repr) => {}
                _ => return false,
            }
        }
        pages == other.nonzero_pages().count()
    }
}

impl Eq for ShadowMemory {}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = ShadowMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
        assert_eq!(m.read_bytes(0x4000, 8), 0);
        assert_eq!(m.len, 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = ShadowMemory::new();
        m.write_u8(0x1234, 0xab);
        assert_eq!(m.read_u8(0x1234), 0xab);
        assert_eq!(m.read_u8(0x1235), 0);
        assert_eq!(m.len, 1);
    }

    #[test]
    fn multi_byte_round_trip_little_endian() {
        let mut m = ShadowMemory::new();
        m.write_bytes(0xff8, 4, 0x0403_0201);
        assert_eq!(m.read_u8(0xff8), 0x01);
        assert_eq!(m.read_u8(0xffb), 0x04);
        assert_eq!(m.read_bytes(0xff8, 4), 0x0403_0201);
    }

    #[test]
    fn multi_byte_spans_page_boundary() {
        let mut m = ShadowMemory::new();
        let addr = (SHADOW_PAGE_SIZE - 2) as u64;
        m.write_bytes(addr, 4, 0xdead_beef);
        assert_eq!(m.read_bytes(addr, 4), 0xdead_beef);
        assert_eq!(m.len, 2);
    }

    #[test]
    fn fill_spans_pages() {
        let mut m = ShadowMemory::new();
        let base = (SHADOW_PAGE_SIZE - 8) as u64;
        m.fill(base, 16, 0x5a);
        for i in 0..16 {
            assert_eq!(m.read_u8(base + i), 0x5a, "byte {i}");
        }
        assert_eq!(m.read_u8(base + 16), 0);
        assert_eq!(m.read_u8(base - 1), 0);
    }

    #[test]
    fn fill_zero_length_is_noop() {
        let mut m = ShadowMemory::new();
        m.fill(0x100, 0, 0xff);
        assert_eq!(m.len, 0);
    }

    #[test]
    fn whole_page_fill_stays_compact_and_reads_back() {
        let mut m = ShadowMemory::new();
        // A one-frame cap: uniform pages cost no frame, so three of them
        // stay under it.
        m.set_mem_cap(Some(SHADOW_PAGE_SIZE));
        m.fill(SHADOW_PAGE_SIZE as u64, (3 * SHADOW_PAGE_SIZE) as u64, 0x7e);
        assert_eq!(m.len, 3);
        assert_eq!(m.resident_full_pages(), 0, "uniform fills cost no frames");
        assert_eq!(m.shadow_bytes(), 0);
        assert!(m.budget_exceeded().is_none());
        assert_eq!(m.read_u8(SHADOW_PAGE_SIZE as u64), 0x7e);
        assert_eq!(m.read_bytes(2 * SHADOW_PAGE_SIZE as u64 + 100, 8), u64::from_le_bytes([0x7e; 8]));
        // A partial write into a uniform page expands exactly that page
        // to a full frame, which counts against the cap.
        m.write_u8(SHADOW_PAGE_SIZE as u64 + 5, 1);
        assert_eq!(m.resident_full_pages(), 1);
        assert_eq!(m.shadow_bytes(), SHADOW_PAGE_SIZE);
        assert_eq!(m.counters().peak_full_pages, 1);
        assert!(m.budget_exceeded().is_none(), "one frame fits a one-frame cap");
        assert_eq!(m.read_u8(SHADOW_PAGE_SIZE as u64 + 4), 0x7e);
        assert_eq!(m.read_u8(SHADOW_PAGE_SIZE as u64 + 5), 1);
        // A second expanded page does not fit.
        m.write_u8(2 * SHADOW_PAGE_SIZE as u64, 2);
        let e = *m.budget_exceeded().expect("two frames exceed a one-frame cap");
        assert_eq!(e.full_pages, 2);
        assert_eq!(e.used_bytes, 2 * SHADOW_PAGE_SIZE);
        assert_eq!(m.read_u8(2 * SHADOW_PAGE_SIZE as u64 + 1), 0x7e);
    }

    #[test]
    #[should_panic(expected = "metadata reads are 1..=8 bytes")]
    fn read_bytes_rejects_zero() {
        ShadowMemory::new().read_bytes(0, 0);
    }

    #[test]
    #[should_panic(expected = "metadata writes are 1..=8 bytes")]
    fn write_bytes_rejects_nine() {
        ShadowMemory::new().write_bytes(0, 9, 0);
    }

    #[test]
    fn survives_growth_across_many_pages() {
        let mut m = ShadowMemory::new();
        // Enough distinct pages to force several table growths, with
        // colliding-ish strides.
        for i in 0..500u64 {
            let addr = i * (SHADOW_PAGE_SIZE as u64) * 3 + 7;
            m.write_u8(addr, (i % 251) as u8 + 1);
        }
        assert_eq!(m.len, 500);
        for i in 0..500u64 {
            let addr = i * (SHADOW_PAGE_SIZE as u64) * 3 + 7;
            assert_eq!(m.read_u8(addr), (i % 251) as u8 + 1, "page {i}");
            assert_eq!(m.read_u8(addr + 1), 0);
        }
    }

    #[test]
    fn equality_is_content_based() {
        let mut a = ShadowMemory::new();
        let mut b = ShadowMemory::new();
        assert_eq!(a, b);
        // Insertion order (and therefore table layout) differs.
        a.write_u8(0x10_000, 1);
        a.write_u8(0x90_000, 2);
        b.write_u8(0x90_000, 2);
        b.write_u8(0x10_000, 1);
        assert_eq!(a, b);
        // A page touched but holding only zeros reads like no page.
        a.write_u8(0x5000_0000, 7);
        a.write_u8(0x5000_0000, 0);
        assert_eq!(a, b);
        b.write_u8(0x90_000, 3);
        assert_ne!(a, b);
    }

    #[derive(Clone, Debug)]
    enum Op {
        Write(u64, u8),
        WriteWide(u64, usize, u64),
        Fill(u64, u64, u8),
    }

    /// Ops over three pages with two byte values, so that independent
    /// sequences often leave equal memories.
    fn op() -> impl Strategy<Value = Op> {
        let page = SHADOW_PAGE_SIZE as u64;
        let value = || prop_oneof![Just(0u8), Just(0x11u8)];
        prop_oneof![
            (0..3 * page, value()).prop_map(|(a, v)| Op::Write(a, v)),
            (0..3 * page, 1usize..=8, prop_oneof![Just(0u64), Just(0x1111_1111_1111_1111u64)])
                .prop_map(|(a, n, v)| Op::WriteWide(a, n, v)),
            (0..3 * page, 0..2 * page, value()).prop_map(|(a, n, v)| Op::Fill(a, n, v)),
            (0u64..3, value()).prop_map(move |(p, v)| Op::Fill(p * page, page, v)),
        ]
    }

    fn apply(ops: &[Op]) -> ShadowMemory {
        let mut m = ShadowMemory::new();
        for op in ops {
            match *op {
                Op::Write(a, v) => m.write_u8(a, v),
                Op::WriteWide(a, n, v) => m.write_bytes(a, n, v),
                Op::Fill(a, n, v) => m.fill(a, n, v),
            }
        }
        m
    }

    /// `m`'s content rebuilt from its canonical pages in reverse page
    /// order: uniform pages by whole-page fill, others byte by byte, with
    /// an extra zero-filled page that holds nothing.
    fn rebuilt(m: &ShadowMemory) -> ShadowMemory {
        let mut r = ShadowMemory::new();
        r.fill(7 * SHADOW_PAGE_SIZE as u64, SHADOW_PAGE_SIZE as u64, 0);
        for (page, frame) in m.canonical_pages().into_iter().rev() {
            let base = page << SHADOW_PAGE_SHIFT;
            if frame.iter().all(|&b| b == frame[0]) {
                r.fill(base, SHADOW_PAGE_SIZE as u64, frame[0]);
            } else {
                for (off, &b) in frame.iter().enumerate().filter(|(_, &b)| b != 0) {
                    r.write_u8(base + off as u64, b);
                }
            }
        }
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// In-place equality agrees with comparing expanded canonical
        /// pages, for random pairs and for rebuilt copies.
        #[test]
        fn equality_agrees_with_canonical_pages(
            ops_a in prop::collection::vec(op(), 0..10),
            ops_b in prop::collection::vec(op(), 0..10),
        ) {
            let a = apply(&ops_a);
            let b = apply(&ops_b);
            prop_assert_eq!(a == b, a.canonical_pages() == b.canonical_pages());
            prop_assert_eq!(b == a, a == b);
            let r = rebuilt(&a);
            prop_assert!(r == a);
            prop_assert!(a == r);
            prop_assert!(r.canonical_pages() == a.canonical_pages());
        }
    }

    #[test]
    fn clone_is_deep() {
        let mut a = ShadowMemory::new();
        a.write_u8(0x42, 7);
        let b = a.clone();
        a.write_u8(0x42, 9);
        assert_eq!(b.read_u8(0x42), 7);
        assert_eq!(a.read_u8(0x42), 9);
    }

    #[test]
    fn byte_cap_latches_budget_exceeded_but_stays_correct() {
        let mut m = ShadowMemory::new();
        // Tiny cap: two full frames cannot fit.
        m.set_mem_cap(Some(SHADOW_PAGE_SIZE + 100));
        for p in 0..4u64 {
            for off in 0..SHADOW_PAGE_SIZE as u64 {
                m.write_u8(
                    p * SHADOW_PAGE_SIZE as u64 + off,
                    ((off * 7 + p) % 251) as u8 + 1,
                );
            }
        }
        let e = *m.budget_exceeded().expect("cap must latch");
        assert!(e.used_bytes > e.cap_bytes);
        assert_eq!(e.cap_bytes, SHADOW_PAGE_SIZE + 100);
        // Sticky and still correct.
        assert!(m.budget_exceeded().is_some());
        for p in 0..4u64 {
            assert_eq!(
                m.read_u8(p * SHADOW_PAGE_SIZE as u64 + 3),
                ((3u64 * 7 + p) % 251) as u8 + 1
            );
        }
    }
}
