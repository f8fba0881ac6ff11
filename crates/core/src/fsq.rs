//! The Filter Store Queue (FSQ) — Section 5.2.
//!
//! When the non-blocking update logic produces new critical metadata for
//! a *memory* destination, the value is committed to the FSQ in the
//! Metadata Write stage. Dependent events search the FSQ in parallel
//! with the MD cache and use the youngest matching entry. When the
//! software handler for the originating unfiltered event completes, the
//! MD cache holds the authoritative value and the FSQ entry is
//! discarded.

use std::collections::VecDeque;

/// The FSQ is at capacity; the pipeline must stall until a handler
/// completion retires an entry. Mirrors the hardware's "full" wire,
/// but as a nameable type so callers and logs say *which* structure
/// pushed back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsqFull;

impl std::fmt::Display for FsqFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("filter store queue full")
    }
}

impl std::error::Error for FsqFull {}

/// One FSQ entry: an updated metadata value pending software completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FsqEntry {
    /// Metadata-space address of the update.
    pub(crate) md_addr: u64,
    /// Number of metadata bytes (1..=8).
    pub(crate) bytes: u8,
    /// The updated value (little-endian packed).
    pub(crate) value: u64,
    /// Token of the unfiltered event that produced the update; the entry
    /// is discarded when that event's handler completes.
    pub(crate) token: u64,
}

/// An age-ordered, address-searchable store queue.
///
/// # Example
///
/// ```
/// use fade::Fsq;
/// let mut fsq = Fsq::new(16);
/// fsq.push(0x100, 1, 0xaa, 7).unwrap();
/// assert_eq!(fsq.search(0x100, 1), Some(0xaa));
/// fsq.retire(7);
/// assert_eq!(fsq.search(0x100, 1), None);
/// ```
#[derive(Clone, Debug)]
pub struct Fsq {
    entries: VecDeque<FsqEntry>,
    capacity: usize,
}

impl Fsq {
    /// Creates an FSQ with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FSQ needs at least one entry");
        Fsq {
            entries: VecDeque::new(),
            capacity,
        }
    }

    /// Allocates an entry.
    ///
    /// # Errors
    ///
    /// Returns [`FsqFull`] when the queue is at capacity; the pipeline
    /// must stall until [`Fsq::retire`] frees an entry.
    pub fn push(&mut self, md_addr: u64, bytes: u8, value: u64, token: u64) -> Result<(), FsqFull> {
        if self.entries.len() >= self.capacity {
            return Err(FsqFull);
        }
        self.entries.push_back(FsqEntry {
            md_addr,
            bytes,
            value,
            token,
        });
        Ok(())
    }

    /// Searches for the youngest entry overlapping `[md_addr,
    /// md_addr+bytes)` and returns its value if the entry fully covers
    /// the request at the same address/width (the hardware forwards only
    /// exact-width matches; partial overlap is conservatively treated as
    /// a miss by returning the entry value only on exact match).
    pub fn search(&self, md_addr: u64, bytes: u8) -> Option<u64> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.md_addr == md_addr && e.bytes == bytes)
            .map(|e| e.value)
    }

    /// Discards all entries belonging to a completed unfiltered event.
    pub fn retire(&mut self, token: u64) {
        self.entries.retain(|e| e.token != token);
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` when at capacity.
    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn youngest_match_wins() {
        let mut fsq = Fsq::new(8);
        fsq.push(0x10, 1, 1, 100).unwrap();
        fsq.push(0x10, 1, 2, 101).unwrap();
        assert_eq!(fsq.search(0x10, 1), Some(2));
    }

    #[test]
    fn retire_discards_only_matching_token() {
        let mut fsq = Fsq::new(8);
        fsq.push(0x10, 1, 1, 100).unwrap();
        fsq.push(0x20, 1, 2, 101).unwrap();
        fsq.retire(100);
        assert_eq!(fsq.search(0x10, 1), None);
        assert_eq!(fsq.search(0x20, 1), Some(2));
        assert_eq!(fsq.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut fsq = Fsq::new(2);
        fsq.push(0, 1, 0, 0).unwrap();
        fsq.push(8, 1, 0, 1).unwrap();
        assert!(fsq.is_full());
        assert_eq!(fsq.push(16, 1, 0, 2), Err(FsqFull));
    }

    #[test]
    fn overlap_detection() {
        let mut fsq = Fsq::new(4);
        fsq.push(0x100, 4, 0, 0).unwrap();
        // Exact-width search misses on partial overlap.
        assert_eq!(fsq.search(0x102, 1), None);
        assert_eq!(fsq.search(0xfe, 4), None);
        assert_eq!(fsq.search(0x100, 4), Some(0));
    }

    #[test]
    #[should_panic(expected = "FSQ needs at least one entry")]
    fn zero_capacity_panics() {
        let _ = Fsq::new(0);
    }
}
