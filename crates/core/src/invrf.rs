//! The Invariant Register File (INV RF).
//!
//! Holds the monitor-specific invariant values that clean checks compare
//! metadata against, and the constants that the stack-update unit and the
//! non-blocking update logic write (Section 4.1). Memory-mapped and
//! programmed per application.

use std::fmt;

/// Number of invariant registers. The event-table format of Figure 6(b)
/// allots a 5-bit INV id per operand, i.e. 32 registers.
pub(crate) const INV_REGS: usize = 32;

/// Index of an invariant register (5 bits).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvId(u8);

impl InvId {
    /// Creates an invariant register index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= INV_REGS`.
    #[inline]
    pub const fn new(index: u8) -> Self {
        assert!((index as usize) < INV_REGS, "invariant id out of range");
        InvId(index)
    }

    /// Returns the register index.
    #[inline]
    pub(crate) const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for InvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InvId({})", self.0)
    }
}

impl fmt::Display for InvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inv{}", self.0)
    }
}

/// The invariant register file: 32 × 64-bit values.
///
/// # Example
///
/// ```
/// use fade::{InvId, InvRf};
/// let mut rf = InvRf::new();
/// rf.write(InvId::new(2), 0x0101_0101);
/// assert_eq!(rf.read(InvId::new(2)), 0x0101_0101);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvRf {
    regs: [u64; INV_REGS],
}

impl InvRf {
    /// Creates a zeroed invariant register file.
    pub fn new() -> Self {
        InvRf {
            regs: [0; INV_REGS],
        }
    }

    /// Reads an invariant value.
    #[inline]
    pub fn read(&self, id: InvId) -> u64 {
        self.regs[id.index()]
    }

    /// Writes an invariant value.
    #[inline]
    pub fn write(&mut self, id: InvId, value: u64) {
        self.regs[id.index()] = value;
    }
}

impl Default for InvRf {
    fn default() -> Self {
        InvRf::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let rf = InvRf::new();
        for i in 0..INV_REGS as u8 {
            assert_eq!(rf.read(InvId::new(i)), 0);
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut rf = InvRf::new();
        rf.write(InvId::new(31), u64::MAX);
        assert_eq!(rf.read(InvId::new(31)), u64::MAX);
        assert_eq!(rf.read(InvId::new(30)), 0);
    }

    #[test]
    #[should_panic(expected = "invariant id out of range")]
    fn rejects_out_of_range() {
        let _ = InvId::new(32);
    }
}
