//! Per-structure synthesis-like area/power model for the FADE logic.

use crate::tech::Tech40;

/// Storage/logic class of a structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StructureKind {
    /// SRAM array (bits).
    Sram,
    /// CAM array (bits, searched associatively).
    Cam,
    /// Flip-flop array (bits).
    Flops,
    /// Random logic (NAND2-equivalent gates).
    Gates,
}

/// One FADE structure with its size and peak activity.
#[derive(Clone, Debug)]
pub(crate) struct StructureCost {
    /// Structure name (as in the paper's microarchitecture).
    pub(crate) name: &'static str,
    /// Storage class.
    pub(crate) kind: StructureKind,
    /// Bits (for arrays) or gate count (for logic).
    pub(crate) size: u64,
    /// Peak switching energy per cycle (pJ) at full activity.
    pub(crate) peak_pj_per_cycle: f64,
}

impl StructureCost {
    /// Pre-overhead cell area in µm².
    pub(crate) fn raw_area_um2(&self) -> f64 {
        let per_unit = match self.kind {
            StructureKind::Sram => Tech40::SRAM_BIT_UM2,
            StructureKind::Cam => Tech40::CAM_BIT_UM2,
            StructureKind::Flops => Tech40::FLOP_UM2,
            StructureKind::Gates => Tech40::GATE_UM2,
        };
        self.size as f64 * per_unit
    }
}

/// An area/power report: per-structure entries plus totals.
#[derive(Clone, Debug)]
pub struct AreaPowerReport {
    /// The modelled structures.
    pub(crate) entries: Vec<StructureCost>,
    /// Clock frequency used for power (GHz).
    pub(crate) freq_ghz: f64,
}

impl AreaPowerReport {
    /// Total area after synthesis overhead, in mm².
    pub fn area_mm2(&self) -> f64 {
        let raw: f64 = self.entries.iter().map(|e| e.raw_area_um2()).sum();
        raw * Tech40::SYNTHESIS_OVERHEAD / 1e6
    }

    /// Peak power (dynamic at full activity + leakage), in mW.
    pub fn peak_power_mw(&self) -> f64 {
        let dyn_pj: f64 = self.entries.iter().map(|e| e.peak_pj_per_cycle).sum();
        let dynamic_mw = dyn_pj * self.freq_ghz; // pJ * GHz = mW
        let leak_mw =
            self.area_mm2() * 1e6 * Tech40::LEAK_NW_PER_UM2 * 1e-6; // nW/µm² over µm²
        dynamic_mw + leak_mw
    }

    /// Per-structure `(name, area_mm2, peak_mw)` rows.
    pub fn rows(&self) -> Vec<(&'static str, f64, f64)> {
        self.entries
            .iter()
            .map(|e| {
                (
                    e.name,
                    e.raw_area_um2() * Tech40::SYNTHESIS_OVERHEAD / 1e6,
                    e.peak_pj_per_cycle * self.freq_ghz,
                )
            })
            .collect()
    }
}

/// The FADE logic inventory (Section 6 configuration: 128-entry event
/// table, 32-entry event queue, 16-entry unfiltered queue, 16-entry
/// FSQ, 16-entry M-TLB, 32×64b INV RF, 32×8b MD RF), with peak
/// per-cycle switching energies calibrated against the paper's
/// synthesis result (122 mW at 2 GHz).
pub fn fade_logic_report(freq_ghz: f64) -> AreaPowerReport {
    use StructureKind::*;
    let entries = vec![
        // 128 entries x 96 bits (Figure 6(b)).
        StructureCost { name: "event table", kind: Sram, size: 128 * 96, peak_pj_per_cycle: 8.0 },
        // 32 entries x 112 bits (Figure 6(a) event format).
        StructureCost { name: "event queue", kind: Sram, size: 32 * 112, peak_pj_per_cycle: 6.0 },
        // 16 entries x 128 bits (event + handler PC + token).
        StructureCost { name: "unfiltered queue", kind: Sram, size: 16 * 128, peak_pj_per_cycle: 4.0 },
        // 16 entries x 88 bits, address-searched.
        StructureCost { name: "filter store queue", kind: Cam, size: 16 * 88, peak_pj_per_cycle: 4.0 },
        // 16 entries x (20b tag + 24b frame).
        StructureCost { name: "M-TLB", kind: Cam, size: 16 * 44, peak_pj_per_cycle: 2.5 },
        // 32 x 64-bit invariant registers.
        StructureCost { name: "INV RF", kind: Flops, size: 32 * 64, peak_pj_per_cycle: 3.0 },
        // 32 x 8-bit register metadata.
        StructureCost { name: "MD RF", kind: Flops, size: 32 * 8, peak_pj_per_cycle: 1.5 },
        // 4(+1)-stage pipeline latches.
        StructureCost { name: "pipeline registers", kind: Flops, size: 600, peak_pj_per_cycle: 8.5 },
        // SUU FSM state.
        StructureCost { name: "stack-update unit", kind: Flops, size: 200, peak_pj_per_cycle: 1.5 },
        // Three comparator blocks + MS chain (Figure 7).
        StructureCost { name: "filter logic", kind: Gates, size: 6_000, peak_pj_per_cycle: 5.0 },
        // Non-blocking metadata-update logic (Section 5.2 rules).
        StructureCost { name: "MD update logic", kind: Gates, size: 3_500, peak_pj_per_cycle: 3.0 },
        // Control unit + muxing + MMIO programming interface.
        StructureCost { name: "control", kind: Gates, size: 5_500, peak_pj_per_cycle: 4.0 },
        // Clock distribution (energy only; area is in the overhead).
        StructureCost { name: "clock tree", kind: Gates, size: 0, peak_pj_per_cycle: 8.0 },
    ];
    AreaPowerReport { entries, freq_ghz }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_synthesis_area() {
        // Section 7.6: 0.09 mm^2.
        let r = fade_logic_report(2.0);
        let area = r.area_mm2();
        assert!(
            (area - 0.09).abs() / 0.09 < 0.10,
            "area {area:.4} mm^2 vs paper 0.09"
        );
    }

    #[test]
    fn matches_paper_peak_power() {
        // Section 7.6: 122 mW at 2 GHz.
        let r = fade_logic_report(2.0);
        let p = r.peak_power_mw();
        assert!((p - 122.0).abs() / 122.0 < 0.10, "power {p:.1} mW vs paper 122");
    }

    #[test]
    fn power_scales_with_frequency() {
        let slow = fade_logic_report(1.0).peak_power_mw();
        let fast = fade_logic_report(2.0).peak_power_mw();
        assert!(fast > 1.8 * slow && fast < 2.2 * slow);
    }

    #[test]
    fn event_table_dominates_storage() {
        let r = fade_logic_report(2.0);
        let rows = r.rows();
        let et = rows.iter().find(|(n, ..)| *n == "event table").unwrap();
        for (name, area, _) in &rows {
            if *name != "event table" && !name.contains("pipeline") && !name.contains("INV") {
                assert!(et.1 >= *area * 0.9, "{name} unexpectedly larger than the event table");
            }
        }
    }
}
