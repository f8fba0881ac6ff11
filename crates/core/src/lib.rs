//! # fade — the programmable filtering accelerator
//!
//! This crate implements the paper's primary contribution: FADE, a
//! Filtering Accelerator for Decoupled Event processing (Sections 4
//! and 5).
//!
//! FADE sits between the application core (the *event producer*) and the
//! software monitor (the *unfiltered event consumer*), connected by two
//! shallow queues (Figure 1):
//!
//! ```text
//!  app ──▶ event queue (32) ──▶ [ FADE ] ──▶ unfiltered queue (16) ──▶ monitor
//!                                  │ filtered events end here
//! ```
//!
//! The accelerator contains:
//!
//! * the **Filtering Unit** — a four-stage pipeline (Event Table Read,
//!   Control, Metadata Read, Filter) programmed through a 128-entry
//!   [`EventTable`] and an [`InvRf`] (invariant register file), with
//!   three filtering modes: single-shot, multi-shot, and partial
//!   ([`FilterMode`] is an orthogonal blocking/non-blocking switch);
//! * the **Stack-Update Unit** (`StackUpdateUnit`) — an FSM for bulk
//!   frame metadata initialization on calls/returns;
//! * the **MD cache** ([`TagCache`]) and **M-TLB** ([`MdTlb`]) — a 4 KB
//!   metadata cache with an application-page→metadata-frame TLB;
//! * the **non-blocking extensions** (Section 5) — metadata-update logic
//!   (`update_logic`), the Metadata Write stage, and the Filter Store
//!   Queue ([`Fsq`]).
//!
//! The top-level [`Fade`] struct ties these together behind a
//! cycle-accurate [`Fade::tick`].
//!
//! # Example: programming a one-entry clean check
//!
//! ```
//! use fade::{EventTableEntry, FadeProgram, InvId, OperandRule};
//! use fade_isa::event_ids;
//! use fade_shadow::MetadataMap;
//!
//! // "Filter loads whose memory operand metadata equals invariant 0."
//! let mut program = FadeProgram::new(MetadataMap::per_word());
//! program.set_invariant(InvId::new(0), 0); // e.g. "not a pointer"
//! let entry = EventTableEntry::clean_check([
//!     Some(OperandRule::mem_operand(1, 0xff, InvId::new(0))),
//!     None,
//!     Some(OperandRule::reg_operand(0xff, InvId::new(0))),
//! ])
//! .with_handler(fade::HandlerPc::new(0x100));
//! program.set_entry(event_ids::LOAD, entry);
//! assert!(program.validate().is_ok());
//! ```

mod event_table;
mod fade;
mod filter_logic;
mod fsq;
mod invrf;
mod md_cache;
mod md_tlb;
mod program;
mod suu;
mod update_logic;

pub use crate::fade::{
    BatchStats, Fade, FadeConfig, FadeStats, FadeTick, FilterMode, UnfilteredEvent,
};
pub use event_table::{EventTable, EventTableEntry, HandlerPc, OperandRule, RuCompose};
pub use filter_logic::OperandMeta;
pub use fsq::{Fsq, FsqFull};
pub use invrf::{InvId, InvRf};
pub use md_cache::{CacheStats, TagCache, TagCacheConfig};
pub use md_tlb::MdTlb;
pub use program::{FadeProgram, ProgramError, SuuConfig};
pub use update_logic::{NbAction, NbCond, NbCondOperand, NbUpdate};
