//! Set-associative tag-array cache model.
//!
//! Used for the 4 KB, 2-way, 64 B-line metadata cache of the Filtering
//! Unit (Section 6) and for the metadata traffic's slice of the shared
//! L2. The model is *tag-only*: data always live in the functional
//! [`fade_shadow::ShadowMemory`]; the cache decides hit/miss timing.
//! This keeps the functional metadata stream identical whether or not
//! the cache is present.

/// Geometry of a tag cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagCacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
}

impl TagCacheConfig {
    /// The paper's MD cache: 4 KB, 2-way, 64 B lines, 1-cycle access.
    pub const fn md_cache() -> Self {
        TagCacheConfig {
            size_bytes: 4096,
            ways: 2,
            line_bytes: 64,
        }
    }

    /// The Table 1 shared L2: 2 MB, 16-way, 64 B lines.
    pub(crate) const fn l2() -> Self {
        TagCacheConfig {
            size_bytes: 2 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    pub const fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// `log2(line_bytes)` — the address-to-line shift. Valid because
    /// [`TagCache::new`] rejects non-power-of-two line sizes.
    pub(crate) const fn line_shift(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]` (1 if no accesses).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU set-associative tag array.
///
/// # Example
///
/// ```
/// use fade::{TagCache, TagCacheConfig};
/// let mut c = TagCache::new(TagCacheConfig::md_cache());
/// assert!(!c.access(0x1000)); // cold miss (line filled)
/// assert!(c.access(0x1004));  // same 64B line: hit
/// ```
#[derive(Clone, Debug)]
pub struct TagCache {
    config: TagCacheConfig,
    // sets[set] = ways ordered most-recently-used first.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl TagCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways, or a
    /// non-power-of-two line size).
    pub fn new(config: TagCacheConfig) -> Self {
        assert!(config.ways > 0, "cache needs at least one way");
        assert!(
            config.line_bytes.is_power_of_two() && config.line_bytes >= 8,
            "line size must be a power of two >= 8"
        );
        let sets = config.sets();
        assert!(sets > 0 && sets.is_power_of_two(), "set count must be a power of two");
        TagCache {
            config,
            sets: vec![Vec::with_capacity(config.ways as usize); sets as usize],
            stats: CacheStats::default(),
        }
    }

    /// Set index and tag for `addr` — all shifts and masks: line size
    /// and set count are powers of two by construction.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.config.line_shift();
        let set_bits = self.sets.len().trailing_zeros();
        ((line as usize) & (self.sets.len() - 1), line >> set_bits)
    }

    /// Accesses the line containing `addr`; returns `true` on hit. On a
    /// miss the line is filled (allocate-on-miss for reads and writes:
    /// metadata is write-back, write-allocate).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        // A hit at the MRU way leaves the recency order as it is.
        if self.sets[set_idx].first() == Some(&tag) {
            self.stats.hits += 1;
            return true;
        }
        self.access_below_mru(set_idx, tag)
    }

    /// [`TagCache::access`] past the MRU way, kept out of line so the
    /// MRU check inlines into its callers: a deeper hit moves the line
    /// to the front, a miss installs it there (evicting the LRU way of
    /// a full set).
    fn access_below_mru(&mut self, set_idx: usize, tag: u64) -> bool {
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.config.ways as usize {
                set.pop();
            }
            set.insert(0, tag);
            self.stats.misses += 1;
            false
        }
    }

    /// Probes without updating LRU state or statistics: the residency
    /// oracle of the unit tests.
    #[cfg(test)]
    pub(crate) fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        self.sets[set_idx].contains(&tag)
    }

    /// Installs the line containing `addr` without counting an access
    /// (used by the SUU, whose writes stream through the cache).
    pub(crate) fn fill(&mut self, addr: u64) {
        let (set_idx, tag) = self.locate(addr);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
        } else {
            if set.len() == self.config.ways as usize {
                set.pop();
            }
            set.insert(0, tag);
        }
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = TagCacheConfig::md_cache();
        assert_eq!(c.sets(), 32);
        assert_eq!(TagCacheConfig::l2().sets(), 2048);
    }

    #[test]
    fn same_line_hits() {
        let mut c = TagCache::new(TagCacheConfig::md_cache());
        assert!(!c.access(0x1000));
        assert!(c.access(0x103f));
        assert!(!c.access(0x1040));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cfg = TagCacheConfig {
            size_bytes: 2 * 64, // 1 set, 2 ways
            ways: 2,
            line_bytes: 64,
        };
        let mut c = TagCache::new(cfg);
        c.access(0); // A
        c.access(64); // B
        c.access(0); // A hit, A is MRU
        c.access(128); // C evicts B
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = TagCache::new(TagCacheConfig::md_cache());
        assert!(!c.probe(0x2000));
        assert_eq!(c.stats().accesses(), 0);
        c.access(0x2000);
        assert!(c.probe(0x2000));
        assert_eq!(c.stats().accesses(), 1);
    }

    #[test]
    fn fill_installs_without_counting() {
        let mut c = TagCache::new(TagCacheConfig::md_cache());
        c.fill(0x3000);
        assert!(c.probe(0x3000));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn hit_ratio_of_empty_cache_is_one() {
        let c = TagCache::new(TagCacheConfig::md_cache());
        assert_eq!(c.stats().hit_ratio(), 1.0);
    }
}
