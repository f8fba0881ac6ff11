//! Architectural registers.

use std::fmt;

/// Number of architectural integer registers visible to the monitor.
///
/// SPARC v9 exposes 32 integer registers per window; monitors shadow the
/// flat working set, which we model as 32 registers.
pub const NUM_REGS: usize = 32;

/// An architectural register identifier (5 bits in the event format of
/// Figure 6(a) in the paper).
///
/// # Example
///
/// ```
/// use fade_isa::Reg;
/// let r = Reg::new(17);
/// assert_eq!(r.index(), 17);
/// assert_eq!(r.to_string(), "r17");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(u8);

impl Reg {
    /// The zero register (`%g0` on SPARC): always reads zero and its
    /// metadata is always clean.
    pub const ZERO: Reg = Reg(0);
    /// Conventional return-value register (`%o0`).
    pub const RET: Reg = Reg(8);

    /// Creates a register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_REGS`.
    #[inline]
    pub const fn new(index: u8) -> Self {
        assert!((index as usize) < NUM_REGS, "register index out of range");
        Reg(index)
    }

    /// Returns the register index.
    #[inline]
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Returns `true` for the hard-wired zero register.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Iterates over all architectural registers.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..NUM_REGS as u8).map(Reg)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({})", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_registers() {
        assert!(Reg::ZERO.is_zero());
    }

    #[test]
    fn all_yields_every_register_once() {
        let regs: Vec<Reg> = Reg::all().collect();
        assert_eq!(regs.len(), NUM_REGS);
        assert_eq!(regs[0], Reg::ZERO);
        assert_eq!(regs[31], Reg::new(31));
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn out_of_range_panics() {
        let _ = Reg::new(32);
    }
}
