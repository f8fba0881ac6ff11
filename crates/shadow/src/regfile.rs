//! Per-register metadata.

use fade_isa::{Reg, NUM_REGS};

/// Metadata for the architectural register file.
///
/// Each register carries one byte of critical metadata (pointer status,
/// taint bit, init state, ...). The zero register is hard-wired clean:
/// writes to it are discarded and reads always return 0, mirroring how
/// `%g0` behaves architecturally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegMeta {
    bytes: [u8; NUM_REGS],
    zero_value: u8,
}

impl RegMeta {
    /// Creates a register metadata file with all registers clean (0).
    pub(crate) fn new() -> Self {
        RegMeta {
            bytes: [0; NUM_REGS],
            zero_value: 0,
        }
    }

    /// Sets the hard-wired metadata value of the zero register.
    ///
    /// `%g0` always holds the architectural value 0, which is a *clean*
    /// value for every monitor — but what "clean" is depends on the
    /// monitor's encoding (e.g. MemCheck's "defined" is 3). Monitors
    /// program this once in `init_state`.
    pub fn set_zero_value(&mut self, v: u8) {
        self.zero_value = v;
    }

    /// Reads the metadata byte of `reg`.
    #[inline]
    pub fn read(&self, reg: Reg) -> u8 {
        if reg.is_zero() {
            self.zero_value
        } else {
            self.bytes[reg.index() as usize]
        }
    }

    /// Writes the metadata byte of `reg`. Writes to the zero register are
    /// discarded.
    #[inline]
    pub fn write(&mut self, reg: Reg, value: u8) {
        if !reg.is_zero() {
            self.bytes[reg.index() as usize] = value;
        }
    }

    /// Sets every register to `value` (bulk reset, e.g. at thread
    /// start). The zero register keeps its hard-wired value.
    pub fn fill(&mut self, value: u8) {
        self.bytes.fill(value);
        self.bytes[0] = 0;
    }

    /// Returns `true` if every writable register is clean (0).
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }
}

impl Default for RegMeta {
    fn default() -> Self {
        RegMeta::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clean() {
        let r = RegMeta::new();
        assert!(r.is_clean());
        assert_eq!(r.read(Reg::new(7)), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut r = RegMeta::new();
        r.write(Reg::new(5), 0x42);
        assert_eq!(r.read(Reg::new(5)), 0x42);
        assert!(!r.is_clean());
    }

    #[test]
    fn zero_register_stays_clean() {
        let mut r = RegMeta::new();
        r.write(Reg::ZERO, 0xff);
        assert_eq!(r.read(Reg::ZERO), 0);
        r.fill(0xff);
        assert_eq!(r.read(Reg::ZERO), 0);
        assert_eq!(r.read(Reg::new(1)), 0xff);
    }

    #[test]
    fn zero_register_value_is_programmable() {
        let mut r = RegMeta::new();
        r.set_zero_value(3);
        assert_eq!(r.read(Reg::ZERO), 3);
        r.write(Reg::ZERO, 7); // still not writable
        assert_eq!(r.read(Reg::ZERO), 3);
        assert!(r.is_clean(), "zero value does not count as dirt");
    }
}
