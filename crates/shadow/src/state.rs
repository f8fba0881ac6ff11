//! Combined metadata state: the monitor's ground truth.

use fade_isa::{Reg, VirtAddr};

use crate::map::MetadataMap;
use crate::memory::ShadowMemory;
use crate::regfile::RegMeta;

/// The complete metadata state a monitor maintains: register metadata,
/// memory metadata, and the address mapping between application memory
/// and its shadow.
///
/// Both the software handlers (ground truth) and FADE's metadata cache
/// operate on this state; the accelerator's structures (MD cache, FSQ)
/// add *timing* on top of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetadataState {
    /// Register metadata file.
    pub regs: RegMeta,
    /// Memory metadata store.
    pub mem: ShadowMemory,
    map: MetadataMap,
}

impl MetadataState {
    /// Creates a clean metadata state with the given mapping.
    pub fn new(map: MetadataMap) -> Self {
        MetadataState {
            regs: RegMeta::new(),
            mem: ShadowMemory::new(),
            map,
        }
    }

    /// The application→metadata mapping in use.
    #[inline]
    pub fn map(&self) -> MetadataMap {
        self.map
    }

    /// Reads the metadata unit covering the application address.
    #[inline]
    pub fn mem_meta(&self, app: VirtAddr) -> u8 {
        self.mem.read_u8(self.map.md_addr(app))
    }

    /// Writes the metadata unit covering the application address.
    #[inline]
    pub fn set_mem_meta(&mut self, app: VirtAddr, value: u8) {
        self.mem.write_u8(self.map.md_addr(app), value);
    }

    /// Reads the metadata for an access of `size` bytes at `app`,
    /// little-endian packed (one byte per spanned unit, at most 8).
    pub fn mem_meta_span(&self, app: VirtAddr, size: u8) -> u64 {
        let units = self.map.units_for_access(app, size).min(8);
        if units == 0 {
            return 0;
        }
        self.mem.read_bytes(self.map.md_addr(app), units as usize)
    }

    /// Writes `value` to every metadata unit spanned by an access of
    /// `size` bytes at `app`.
    pub fn set_mem_meta_span(&mut self, app: VirtAddr, size: u8, value: u8) {
        let (start, len) = self.map.md_range(app, size as u32);
        self.mem.fill(start, len, value);
    }

    /// Bulk-sets the metadata covering `[app_base, app_base+len)` to
    /// `value` — what stack updates and allocation handlers do.
    pub fn fill_app_range(&mut self, app_base: VirtAddr, len: u32, value: u8) {
        let (start, md_len) = self.map.md_range(app_base, len);
        self.mem.fill(start, md_len, value);
    }

    /// Reads register metadata.
    #[inline]
    pub fn reg_meta(&self, reg: Reg) -> u8 {
        self.regs.read(reg)
    }

    /// Writes register metadata.
    #[inline]
    pub fn set_reg_meta(&mut self, reg: Reg, value: u8) {
        self.regs.write(reg, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_granularity_aliases_within_word() {
        let mut st = MetadataState::new(MetadataMap::per_word());
        st.set_mem_meta(VirtAddr::new(0x2000), 3);
        assert_eq!(st.mem_meta(VirtAddr::new(0x2003)), 3);
        assert_eq!(st.mem_meta(VirtAddr::new(0x2004)), 0);
    }

    #[test]
    fn span_reads_pack_units() {
        let mut st = MetadataState::new(MetadataMap::per_word());
        st.set_mem_meta(VirtAddr::new(0x100), 1);
        st.set_mem_meta(VirtAddr::new(0x104), 2);
        // 8-byte access spans both words.
        assert_eq!(st.mem_meta_span(VirtAddr::new(0x100), 8), 0x0201);
        // 4-byte aligned access spans one.
        assert_eq!(st.mem_meta_span(VirtAddr::new(0x100), 4), 0x01);
        // Unaligned 4-byte access spans two.
        assert_eq!(st.mem_meta_span(VirtAddr::new(0x102), 4), 0x0201);
        // Zero-size access reads nothing.
        assert_eq!(st.mem_meta_span(VirtAddr::new(0x100), 0), 0);
    }

    #[test]
    fn span_write_covers_all_units() {
        let mut st = MetadataState::new(MetadataMap::per_word());
        st.set_mem_meta_span(VirtAddr::new(0x102), 4, 7);
        assert_eq!(st.mem_meta(VirtAddr::new(0x100)), 7);
        assert_eq!(st.mem_meta(VirtAddr::new(0x104)), 7);
        assert_eq!(st.mem_meta(VirtAddr::new(0x108)), 0);
    }

    #[test]
    fn fill_app_range_covers_frame() {
        let mut st = MetadataState::new(MetadataMap::per_word());
        st.fill_app_range(VirtAddr::new(0x8000), 96, 2);
        assert_eq!(st.mem_meta(VirtAddr::new(0x8000)), 2);
        assert_eq!(st.mem_meta(VirtAddr::new(0x805c)), 2);
        assert_eq!(st.mem_meta(VirtAddr::new(0x8060)), 0);
        assert_eq!(st.mem_meta(VirtAddr::new(0x7ffc)), 0);
    }

    #[test]
    fn register_accessors_delegate() {
        let mut st = MetadataState::new(MetadataMap::per_word());
        st.set_reg_meta(Reg::new(4), 9);
        assert_eq!(st.reg_meta(Reg::new(4)), 9);
        assert_eq!(st.reg_meta(Reg::ZERO), 0);
    }
}
