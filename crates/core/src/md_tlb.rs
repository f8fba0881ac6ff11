//! The metadata TLB (M-TLB).
//!
//! The TLB of the MD cache holds translations from a virtual application
//! page to the physical page containing the associated memory metadata
//! (Section 4.1, after LBA's M-TLB \[2\]). Misses are serviced in software.

use fade_isa::VirtAddr;

/// A fully-associative, LRU, 16-entry (by default) M-TLB.
///
/// Tag-only model: the actual translation is the deterministic
/// [`MetadataMap`](fade_shadow::MetadataMap); the TLB decides whether
/// the translation was cached or needs the software fill handler.
#[derive(Clone, Debug)]
pub struct MdTlb {
    entries: Vec<u32>, // app page numbers, MRU first
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl MdTlb {
    /// The paper's configuration: 16 entries (Section 6).
    pub(crate) const DEFAULT_ENTRIES: usize = 16;

    /// Creates an empty M-TLB.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        MdTlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates the application address's page; returns `true` on hit.
    /// On a miss the translation is installed (after the modelled
    /// software fill).
    #[inline]
    pub fn access(&mut self, app: VirtAddr) -> bool {
        let page = app.page();
        // A hit at the MRU slot leaves the recency order as it is.
        if self.entries.first() == Some(&page) {
            self.hits += 1;
            return true;
        }
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            let p = self.entries.remove(pos);
            self.entries.insert(0, p);
            self.hits += 1;
            true
        } else {
            if self.entries.len() == self.capacity {
                self.entries.pop();
            }
            self.entries.insert(0, page);
            self.misses += 1;
            false
        }
    }

    /// TLB hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// TLB misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut tlb = MdTlb::new(4);
        assert!(!tlb.access(VirtAddr::new(0x1000)));
        assert!(tlb.access(VirtAddr::new(0x1abc))); // same page
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = MdTlb::new(2);
        tlb.access(VirtAddr::new(0x1000)); // page 1
        tlb.access(VirtAddr::new(0x2000)); // page 2
        tlb.access(VirtAddr::new(0x1000)); // page 1 MRU
        tlb.access(VirtAddr::new(0x3000)); // evicts page 2
        assert!(tlb.access(VirtAddr::new(0x1000)));
        assert!(!tlb.access(VirtAddr::new(0x2000)));
    }
}
