//! # fade-power
//!
//! Analytic area/power/timing model for FADE at 40 nm (Section 7.6 of
//! the paper).
//!
//! The paper synthesizes its VHDL with Synopsys Design Compiler (TSMC
//! 45 nm scaled to the 40 nm half node, 0.9 V, 2 GHz) and models the
//! 4 KB MD cache with CACTI 6.5, reporting:
//!
//! * FADE logic: **0.09 mm²**, **122 mW** peak;
//! * MD cache: **0.03 mm²**, **151 mW** peak, **0.3 ns** access;
//! * total: 0.12 mm², 273 mW.
//!
//! This crate reproduces those numbers from first-order per-structure
//! models: bit/gate counts of every FADE structure (event table,
//! queues, FSQ, register files, pipeline, SUU, filter/update logic)
//! multiplied by calibrated 40 nm per-bit/per-gate constants
//! (`tech::Tech40`), plus a mini-CACTI for SRAM arrays
//! ([`cacti::cache_model`]).

mod cacti;
mod logic;
mod tech;

pub use cacti::{cache_model, CacheEstimate};
pub use logic::{fade_logic_report, AreaPowerReport};
