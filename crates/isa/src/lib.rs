//! # fade-isa
//!
//! ISA-level model shared by every crate in the FADE reproduction.
//!
//! The paper evaluates FADE on a SPARC v9 machine running 32-bit binaries.
//! This crate models the pieces of that ISA that instruction-grain
//! monitoring actually observes:
//!
//! * [`VirtAddr`] — 32-bit application virtual addresses,
//! * [`Reg`] — architectural integer registers,
//! * [`AppInstr`] / [`InstrClass`] — retired dynamic instructions,
//! * [`AppEvent`] — the events the application enqueues for the monitoring
//!   system: instruction events ([`InstrEvent`], the format of Figure 6(a)
//!   in the paper), stack updates ([`StackUpdateEvent`]) and high-level
//!   events ([`HighLevelEvent`]),
//! * [`EventId`] — the 6-bit identifier used to index the event table.
//!
//! # Example
//!
//! ```
//! use fade_isa::{AppInstr, InstrClass, MemRef, Reg, VirtAddr, event_id_for};
//!
//! let load = AppInstr::new(VirtAddr::new(0x1000), InstrClass::Load)
//!     .with_dest(Reg::new(3))
//!     .with_mem(MemRef::word(VirtAddr::new(0x8000_0010)));
//! let id = event_id_for(&load);
//! assert_eq!(id, fade_isa::event_ids::LOAD);
//! ```

mod addr;
mod event;
mod instr;
pub mod layout;
mod opclass;
mod reg;

pub use addr::{VirtAddr, PAGE_SHIFT};
pub use event::{
    AppEvent, EventId, HighLevelEvent, InstrEvent, StackUpdateEvent, StackUpdateKind,
    EVENT_TABLE_ENTRIES,
};
pub use instr::{AppInstr, InstrClass, MemRef};
pub use opclass::{event_id_for, event_ids, instr_event_for};
pub use reg::{Reg, NUM_REGS};
