//! # fade-monitors
//!
//! The five instruction-grain monitors the paper evaluates (Section 6),
//! implemented in full: event selection, metadata encodings, software
//! handlers (functional effect plus an instruction-count cost model),
//! and the FADE program each monitor loads into the accelerator.
//!
//! | Monitor    | Tracks                              | Kind        | FADE technique |
//! |------------|-------------------------------------|-------------|----------------|
//! | AddrCheck  | accesses to unallocated memory      | memory      | clean checks   |
//! | MemCheck   | uses of uninitialized values        | propagation | CC + RU        |
//! | MemLeak    | memory leaks via reference counting | propagation | clean checks   |
//! | TaintCheck | overwrite-related security exploits | propagation | CC + RU        |
//! | AtomCheck  | atomicity violations                | memory      | partial        |
//!
//! All monitors keep one byte of *critical* metadata per application
//! word (the state FADE checks and updates); non-critical bookkeeping
//! (MemLeak's allocation contexts and reference counts, AtomCheck's
//! access-type tables, bug reports) lives in the monitor structs.
//!
//! # Example
//!
//! ```
//! use fade_monitors::{AddrCheck, Monitor};
//! use fade_shadow::MetadataState;
//!
//! let mut mon = AddrCheck::new();
//! let mut state = MetadataState::new(mon.program().md_map());
//! mon.init_state(&mut state);
//! assert!(mon.program().validate().is_ok());
//! ```

mod addrcheck;
mod atomcheck;
mod memcheck;
mod memleak;
mod monitor;
mod taintcheck;

pub use addrcheck::AddrCheck;
pub use atomcheck::AtomCheck;
pub use memcheck::MemCheck;
pub use memleak::MemLeak;
pub use monitor::{all_monitors, monitor_by_name, CostModel, EventClass, Monitor, MonitorKind};
pub use taintcheck::TaintCheck;
