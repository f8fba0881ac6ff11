//! A heap model: bump allocation with live-block tracking and reuse.

use fade_isa::{layout, VirtAddr};
use fade_sim::Rng;

/// One live heap block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Block {
    /// Base address.
    pub(crate) base: VirtAddr,
    /// Length in bytes.
    pub(crate) len: u32,
}

/// The synthetic program's heap: tracks live blocks so the generator
/// can aim accesses at allocated memory (the common case AddrCheck
/// filters) or deliberately at freed memory (the `wild_rate` knob).
#[derive(Clone, Debug)]
pub(crate) struct HeapModel {
    cursor: u32,
    live: Vec<Block>,
    freed: Vec<Block>,
}

impl HeapModel {
    /// Maximum live blocks tracked (oldest reused beyond this).
    const MAX_LIVE: usize = 4096;
    /// Maximum retained freed blocks (for wild-access sampling).
    const MAX_FREED: usize = 256;

    /// Creates an empty heap.
    pub(crate) fn new() -> Self {
        HeapModel {
            cursor: layout::HEAP_BASE,
            live: Vec::new(),
            freed: Vec::new(),
        }
    }

    /// Allocates `len` bytes (word-aligned), returning the block.
    pub(crate) fn malloc(&mut self, len: u32) -> Block {
        let len = len.max(4).next_multiple_of(4);
        // Wrap the bump cursor long before the segment ends; the heap
        // working set is bounded by MAX_LIVE blocks anyway.
        if self.cursor.saturating_add(len) >= layout::HEAP_BASE + layout::HEAP_SIZE / 2 {
            self.cursor = layout::HEAP_BASE;
        }
        let block = Block {
            base: VirtAddr::new(self.cursor),
            len,
        };
        self.cursor += len;
        self.live.push(block);
        if self.live.len() > Self::MAX_LIVE {
            self.live.remove(0);
        }
        block
    }

    /// Frees a random live block, returning it (None if the heap is
    /// empty).
    pub(crate) fn free_random(&mut self, rng: &mut Rng) -> Option<Block> {
        if self.live.is_empty() {
            return None;
        }
        let idx = rng.below(self.live.len() as u64) as usize;
        let block = self.live.swap_remove(idx);
        self.freed.push(block);
        if self.freed.len() > Self::MAX_FREED {
            self.freed.remove(0);
        }
        Some(block)
    }

    /// A random address inside a random live block (None if empty).
    pub(crate) fn random_live_addr(&mut self, rng: &mut Rng) -> Option<VirtAddr> {
        if self.live.is_empty() {
            return None;
        }
        let b = self.live[rng.below(self.live.len() as u64) as usize];
        let words = (b.len / 4).max(1);
        Some(b.base.wrapping_add(4 * rng.below(words as u64) as u32))
    }

    /// A random address inside a previously freed block, if any — a
    /// use-after-free style wild access.
    pub(crate) fn random_freed_addr(&mut self, rng: &mut Rng) -> Option<VirtAddr> {
        if self.freed.is_empty() {
            return None;
        }
        let b = self.freed[rng.below(self.freed.len() as u64) as usize];
        let words = (b.len / 4).max(1);
        Some(b.base.wrapping_add(4 * rng.below(words as u64) as u32))
    }

    /// Number of live blocks.
    pub(crate) fn live_blocks(&self) -> usize {
        self.live.len()
    }
}

impl Default for HeapModel {
    fn default() -> Self {
        HeapModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_returns_heap_addresses() {
        let mut h = HeapModel::new();
        let b = h.malloc(100);
        assert!(layout::is_heap(b.base));
        assert_eq!(b.len, 100);
        assert_eq!(h.live_blocks(), 1);
    }

    #[test]
    fn malloc_aligns_and_rounds_up() {
        let mut h = HeapModel::new();
        assert_eq!(h.malloc(1).len, 4);
        assert_eq!(h.malloc(0).len, 4);
        let b = h.malloc(13);
        assert_eq!(b.len, 16);
        assert_eq!(b.base.raw() % 4, 0);
    }

    #[test]
    fn free_moves_block_to_freed_pool() {
        let mut h = HeapModel::new();
        let mut rng = Rng::seed_from(1);
        h.malloc(64);
        let freed = h.free_random(&mut rng).unwrap();
        assert_eq!(h.live_blocks(), 0);
        let wild = h.random_freed_addr(&mut rng).unwrap();
        assert!(wild.raw() >= freed.base.raw());
        assert!(wild.raw() < freed.base.raw() + freed.len);
    }

    #[test]
    fn live_addr_sampling_stays_in_blocks() {
        let mut h = HeapModel::new();
        let mut rng = Rng::seed_from(2);
        let b = h.malloc(256);
        for _ in 0..100 {
            let a = h.random_live_addr(&mut rng).unwrap();
            assert!(a.raw() >= b.base.raw() && a.raw() < b.base.raw() + 256);
            assert_eq!(a.raw() % 4, 0);
        }
    }

    #[test]
    fn empty_heap_yields_none() {
        let mut h = HeapModel::new();
        let mut rng = Rng::seed_from(3);
        assert!(h.random_live_addr(&mut rng).is_none());
        assert!(h.free_random(&mut rng).is_none());
        assert!(h.random_freed_addr(&mut rng).is_none());
    }

    #[test]
    fn live_set_is_bounded() {
        let mut h = HeapModel::new();
        for _ in 0..(HeapModel::MAX_LIVE + 100) {
            h.malloc(16);
        }
        assert_eq!(h.live_blocks(), HeapModel::MAX_LIVE);
    }
}
