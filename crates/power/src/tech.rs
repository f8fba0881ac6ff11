//! 40 nm technology constants.
//!
//! Calibrated to the paper's synthesis results (TSMC 45 nm GS
//! standard-cell library, 0.9 V, scaled to the 40 nm half node). The
//! absolute values are first-order industry-typical numbers; the
//! synthesis overhead factor absorbs placement, routing and clock-tree
//! area that a bit-count model cannot see.

/// 40 nm (TSMC half-node) technology parameters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tech40;

impl Tech40 {
    /// SRAM cell area including array periphery share (µm²/bit).
    pub(crate) const SRAM_BIT_UM2: f64 = 0.45;
    /// CAM cell area including match-line share (µm²/bit).
    pub(crate) const CAM_BIT_UM2: f64 = 1.10;
    /// Standard-cell flip-flop area (µm²).
    pub(crate) const FLOP_UM2: f64 = 4.5;
    /// NAND2-equivalent gate area (µm²).
    pub(crate) const GATE_UM2: f64 = 0.9;
    /// Post-synthesis overhead: routing, clock tree, cell utilization.
    pub(crate) const SYNTHESIS_OVERHEAD: f64 = 2.38;
    /// Leakage power density (nW/µm²) at 0.9 V, typical corner.
    pub(crate) const LEAK_NW_PER_UM2: f64 = 45.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn constants_are_physically_sensible() {
        assert!(Tech40::SRAM_BIT_UM2 < Tech40::CAM_BIT_UM2);
        assert!(Tech40::CAM_BIT_UM2 < Tech40::FLOP_UM2);
        assert!(Tech40::SYNTHESIS_OVERHEAD > 1.0);
    }
}
