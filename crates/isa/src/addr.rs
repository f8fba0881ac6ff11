//! Application address arithmetic.
//!
//! The paper's benchmarks are 32-bit binaries (Section 6), so application
//! virtual addresses are 32 bits. Metadata addresses (in the monitor's
//! address space) are modelled separately in `fade-shadow`.

use std::fmt;

/// Log2 of the page size. 4 KiB pages, matching the M-TLB granularity.
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes.
pub(crate) const PAGE_SIZE: u32 = 1 << PAGE_SHIFT;
/// Application word size in bytes (32-bit binaries).
pub(crate) const WORD_SIZE: u32 = 4;

/// A 32-bit application virtual address.
///
/// # Example
///
/// ```
/// use fade_isa::VirtAddr;
/// let a = VirtAddr::new(0x8000_1234);
/// assert_eq!(a.page(), 0x8000_1);
/// assert_eq!(a.page_offset(), 0x234);
/// assert_eq!(a.word_aligned().raw(), 0x8000_1234);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u32);

impl VirtAddr {
    /// The null address.
    pub(crate) const NULL: VirtAddr = VirtAddr(0);

    /// Creates a virtual address from its raw 32-bit value.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw 32-bit value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the virtual page number.
    #[inline]
    pub const fn page(self) -> u32 {
        self.0 >> PAGE_SHIFT
    }

    /// Returns the byte offset within the page.
    #[inline]
    pub const fn page_offset(self) -> u32 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Rounds the address down to its containing application word.
    #[inline]
    pub const fn word_aligned(self) -> Self {
        VirtAddr(self.0 & !(WORD_SIZE - 1))
    }

    /// Returns the application word index (address / word size).
    #[inline]
    pub const fn word_index(self) -> u32 {
        self.0 / WORD_SIZE
    }

    /// Address arithmetic with wrapping semantics (hardware-like).
    #[inline]
    pub const fn wrapping_add(self, delta: u32) -> Self {
        VirtAddr(self.0.wrapping_add(delta))
    }

    /// Address arithmetic with wrapping semantics (hardware-like).
    #[inline]
    pub const fn wrapping_sub(self, delta: u32) -> Self {
        VirtAddr(self.0.wrapping_sub(delta))
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#010x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u32> for VirtAddr {
    fn from(raw: u32) -> Self {
        VirtAddr(raw)
    }
}

impl From<VirtAddr> for u32 {
    fn from(addr: VirtAddr) -> Self {
        addr.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic_round_trips() {
        let a = VirtAddr::new(0xdead_beef);
        assert_eq!(a.page() << PAGE_SHIFT | a.page_offset(), a.raw());
    }

    #[test]
    fn word_alignment_masks_low_bits() {
        assert_eq!(VirtAddr::new(7).word_aligned(), VirtAddr::new(4));
        assert_eq!(VirtAddr::new(8).word_aligned(), VirtAddr::new(8));
        assert_eq!(VirtAddr::new(3).word_index(), 0);
        assert_eq!(VirtAddr::new(4).word_index(), 1);
    }

    #[test]
    fn wrapping_add_wraps() {
        assert_eq!(VirtAddr::new(u32::MAX).wrapping_add(1), VirtAddr::NULL);
        assert_eq!(VirtAddr::new(0).wrapping_sub(4).raw(), u32::MAX - 3);
    }

    #[test]
    fn display_formats_as_hex() {
        assert_eq!(VirtAddr::new(0x10).to_string(), "0x00000010");
        assert_eq!(format!("{:x}", VirtAddr::new(255)), "ff");
    }
}
