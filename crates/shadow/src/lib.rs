//! # fade-shadow
//!
//! The shadow-memory substrate shared by the software monitors and the
//! FADE accelerator.
//!
//! Instruction-grain monitors keep *metadata* about every application
//! memory location and register (Section 2 of the paper). This crate
//! provides:
//!
//! * [`ShadowMemory`] — a sparse, paged, byte-granularity metadata store
//!   living in the monitor's address space,
//! * [`MetadataMap`] — the application→metadata address mapping that the
//!   M-TLB accelerates in hardware,
//! * [`RegMeta`] — per-architectural-register metadata,
//! * [`MetadataState`] — the combination of all three: the ground-truth
//!   metadata state a monitor maintains.
//!
//! # Example
//!
//! ```
//! use fade_isa::VirtAddr;
//! use fade_shadow::{MetadataMap, MetadataState};
//!
//! // One metadata byte per application word, the layout all five paper
//! // monitors use for their critical metadata.
//! let mut st = MetadataState::new(MetadataMap::per_word());
//! st.set_mem_meta(VirtAddr::new(0x1000), 1);
//! assert_eq!(st.mem_meta(VirtAddr::new(0x1002)), 1); // same word
//! assert_eq!(st.mem_meta(VirtAddr::new(0x1004)), 0); // next word
//! ```

mod map;
pub mod memory;
mod regfile;
mod state;

pub use map::MetadataMap;
pub use memory::{BudgetExceeded, ShadowCounters, ShadowMemory};
pub use regfile::RegMeta;
pub use state::MetadataState;
