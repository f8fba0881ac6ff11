//! Application→metadata address mapping.
//!
//! Application and monitor processes use different address spaces
//! (Section 4.1): a metadata access first maps the application address to
//! a metadata address. In hardware the per-page part of this mapping is
//! cached by the M-TLB; this module is the functional definition the
//! M-TLB caches.

use fade_isa::{VirtAddr, PAGE_SHIFT};

/// Linear application→metadata address mapping.
///
/// `1 << gran_shift` application bytes share one metadata unit of
/// `unit_bytes` bytes, and the metadata space starts at `base`:
///
/// ```text
/// md_addr(a) = base + (a >> gran_shift) * unit_bytes
/// ```
///
/// All five paper monitors keep one byte of critical metadata per
/// application word, i.e. [`MetadataMap::per_word`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetadataMap {
    base: u64,
    gran_shift: u8,
    unit_bytes: u8,
}

impl MetadataMap {
    /// Default base of the metadata space in the monitor's address space.
    pub(crate) const DEFAULT_BASE: u64 = 0x1_0000_0000;

    /// Creates a mapping.
    ///
    /// # Panics
    ///
    /// Panics if `unit_bytes` is 0 or greater than 8, or if `gran_shift`
    /// exceeds the page shift (a metadata unit may not cover more than an
    /// application page).
    pub(crate) fn new(base: u64, gran_shift: u8, unit_bytes: u8) -> Self {
        assert!(
            (1..=8).contains(&unit_bytes),
            "metadata unit must be 1..=8 bytes"
        );
        assert!(
            (gran_shift as u32) <= PAGE_SHIFT,
            "metadata granularity must not exceed a page"
        );
        MetadataMap {
            base,
            gran_shift,
            unit_bytes,
        }
    }

    /// One metadata byte per 4-byte application word — the layout used by
    /// the critical metadata of all five paper monitors.
    pub fn per_word() -> Self {
        MetadataMap::new(Self::DEFAULT_BASE, 2, 1)
    }

    /// Maps an application address to the metadata address of its unit.
    #[inline]
    pub fn md_addr(&self, app: VirtAddr) -> u64 {
        self.base + ((app.raw() as u64) >> self.gran_shift) * self.unit_bytes as u64
    }

    /// Maps an application range to the (start, length-in-bytes) of its
    /// covering metadata range. The range is expanded outward to unit
    /// boundaries.
    pub fn md_range(&self, app_base: VirtAddr, len: u32) -> (u64, u64) {
        if len == 0 {
            return (self.md_addr(app_base), 0);
        }
        let first_unit = (app_base.raw() as u64) >> self.gran_shift;
        let last_unit = (app_base.raw() as u64 + len as u64 - 1) >> self.gran_shift;
        let start = self.base + first_unit * self.unit_bytes as u64;
        let units = last_unit - first_unit + 1;
        (start, units * self.unit_bytes as u64)
    }

    /// Number of metadata units an access of `size` bytes at `app`
    /// touches (the event-table `MD bytes` field, per operand).
    pub fn units_for_access(&self, app: VirtAddr, size: u8) -> u8 {
        if size == 0 {
            return 0;
        }
        let first = (app.raw() as u64) >> self.gran_shift;
        let last = (app.raw() as u64 + size as u64 - 1) >> self.gran_shift;
        (last - first + 1) as u8
    }
}

impl Default for MetadataMap {
    fn default() -> Self {
        MetadataMap::per_word()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_word_maps_words_to_bytes() {
        let m = MetadataMap::per_word();
        let a = m.md_addr(VirtAddr::new(0));
        assert_eq!(m.md_addr(VirtAddr::new(3)), a);
        assert_eq!(m.md_addr(VirtAddr::new(4)), a + 1);
        assert_eq!(m.md_addr(VirtAddr::new(400)), a + 100);
    }

    #[test]
    fn md_range_rounds_to_units() {
        let m = MetadataMap::per_word();
        // 6 bytes starting at offset 2 touch words 0 and 1 => 2 md bytes.
        let (start, len) = m.md_range(VirtAddr::new(2), 6);
        assert_eq!(start, m.md_addr(VirtAddr::new(0)));
        assert_eq!(len, 2);
        // Zero length range is empty.
        assert_eq!(m.md_range(VirtAddr::new(2), 0).1, 0);
    }

    #[test]
    fn units_for_access_counts_spanned_words() {
        let m = MetadataMap::per_word();
        assert_eq!(m.units_for_access(VirtAddr::new(0x1000), 4), 1);
        assert_eq!(m.units_for_access(VirtAddr::new(0x1002), 4), 2);
        assert_eq!(m.units_for_access(VirtAddr::new(0x1000), 8), 2);
        assert_eq!(m.units_for_access(VirtAddr::new(0x1000), 1), 1);
        assert_eq!(m.units_for_access(VirtAddr::new(0x1000), 0), 0);
    }

    #[test]
    #[should_panic(expected = "metadata unit must be 1..=8 bytes")]
    fn rejects_zero_unit() {
        let _ = MetadataMap::new(0, 2, 0);
    }
}
