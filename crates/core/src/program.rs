//! FADE programs: everything a monitor loads into the accelerator.
//!
//! FADE is programmed per application by writing two memory-mapped
//! structures — the event table and the invariant register file
//! (Section 4.1) — plus the stack-update unit's call/return value
//! selection. [`FadeProgram`] bundles these with the metadata address
//! map and validates the structural constraints the hardware imposes.

use std::fmt;

use fade_isa::{EventId, EVENT_TABLE_ENTRIES};
use fade_shadow::MetadataMap;

use crate::event_table::{EventTable, EventTableEntry, FilterKind, OperandSel};
use crate::invrf::{InvId, InvRf};

/// Stack-update unit configuration: which INV registers hold the value
/// written on calls and on returns (Section 4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuuConfig {
    /// INV register holding the on-call fill value (e.g. "allocated and
    /// uninitialized").
    pub call_inv: InvId,
    /// INV register holding the on-return fill value (e.g.
    /// "unallocated").
    pub ret_inv: InvId,
}

/// A validation error for a FADE program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// An entry needs more than the three comparator blocks of Figure 7.
    TooManyComparators {
        /// Offending event ID.
        id: EventId,
        /// Comparators the entry would need.
        needed: usize,
    },
    /// A multi-shot chain contains a cycle.
    ChainCycle {
        /// Event ID whose chain loops.
        id: EventId,
    },
    /// A `next_entry` pointer names an unprogrammed entry.
    BrokenChain {
        /// Event ID whose chain breaks.
        id: EventId,
        /// The missing continuation entry.
        missing: EventId,
    },
    /// A redundant-update entry lacks a valid destination or source.
    MalformedRedundantUpdate {
        /// Offending event ID.
        id: EventId,
    },
    /// An entry's operand declares zero or more than eight MD bytes.
    BadMdBytes {
        /// Offending event ID.
        id: EventId,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::TooManyComparators { id, needed } => write!(
                f,
                "event {id} needs {needed} comparators but the filter logic has 3"
            ),
            ProgramError::ChainCycle { id } => {
                write!(f, "multi-shot chain starting at event {id} contains a cycle")
            }
            ProgramError::BrokenChain { id, missing } => write!(
                f,
                "multi-shot chain of event {id} points at unprogrammed entry {missing}"
            ),
            ProgramError::MalformedRedundantUpdate { id } => write!(
                f,
                "redundant-update entry for event {id} lacks a valid source/destination"
            ),
            ProgramError::BadMdBytes { id } => {
                write!(f, "event {id} has an operand with md_bytes outside 1..=8")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete FADE program.
#[derive(Clone, Debug)]
pub struct FadeProgram {
    table: EventTable,
    invariants: InvRf,
    suu: Option<SuuConfig>,
    md_map: MetadataMap,
}

impl FadeProgram {
    /// Creates an empty program over the given metadata map.
    pub fn new(md_map: MetadataMap) -> Self {
        FadeProgram {
            table: EventTable::new(),
            invariants: InvRf::new(),
            suu: None,
            md_map,
        }
    }

    /// Installs an event-table entry.
    pub fn set_entry(&mut self, id: EventId, entry: EventTableEntry) {
        self.table.set(id, entry);
    }

    /// Writes an invariant register.
    pub fn set_invariant(&mut self, id: InvId, value: u64) {
        self.invariants.write(id, value);
    }

    /// Enables the stack-update unit.
    pub fn set_suu(&mut self, suu: SuuConfig) {
        self.suu = Some(suu);
    }

    /// Disables the stack-update unit: stack updates are forwarded to
    /// the software monitor instead (ablation of Section 4.2).
    pub fn clear_suu(&mut self) {
        self.suu = None;
    }

    /// The event table.
    pub fn table(&self) -> &EventTable {
        &self.table
    }

    /// The invariant register values.
    pub fn invariants(&self) -> &InvRf {
        &self.invariants
    }

    /// Mutable access to the invariant register file (runtime
    /// memory-mapped writes, e.g. per-thread signatures).
    pub(crate) fn invariants_mut(&mut self) -> &mut InvRf {
        &mut self.invariants
    }

    /// The SUU configuration, if enabled.
    pub fn suu(&self) -> Option<SuuConfig> {
        self.suu
    }

    /// The application→metadata mapping.
    pub fn md_map(&self) -> MetadataMap {
        self.md_map
    }

    /// Checks the structural constraints the hardware imposes.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found: comparator overuse,
    /// multi-shot chain cycles or dangling pointers, malformed
    /// redundant-update entries, or out-of-range MD byte counts.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for (id, entry) in self.table.iter() {
            let needed = entry.comparators_needed();
            if needed > 3 {
                return Err(ProgramError::TooManyComparators { id, needed });
            }
            for sel in OperandSel::ALL {
                let rule = entry.operand(sel);
                if rule.valid && !(1..=8).contains(&rule.md_bytes) {
                    return Err(ProgramError::BadMdBytes { id });
                }
            }
            if let FilterKind::RedundantUpdate(_) = entry.kind {
                let d = entry.operand(OperandSel::D);
                let s1 = entry.operand(OperandSel::S1);
                let s2 = entry.operand(OperandSel::S2);
                if !d.valid || (!s1.valid && !s2.valid) {
                    return Err(ProgramError::MalformedRedundantUpdate { id });
                }
            }
            // Chain walk: detect cycles and dangling pointers.
            let mut cur = entry.next_entry;
            let mut steps = 0;
            while let Some(next) = cur {
                steps += 1;
                if steps > EVENT_TABLE_ENTRIES {
                    return Err(ProgramError::ChainCycle { id });
                }
                match self.table.entry(next) {
                    None => return Err(ProgramError::BrokenChain { id, missing: next }),
                    Some(e) => cur = e.next_entry,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_table::{OperandRule, RuCompose};
    use fade_isa::event_ids;

    fn program_with(entry: EventTableEntry) -> FadeProgram {
        let mut p = FadeProgram::new(MetadataMap::per_word());
        p.set_entry(event_ids::LOAD, entry);
        p
    }

    #[test]
    fn empty_program_validates() {
        assert!(FadeProgram::new(MetadataMap::per_word()).validate().is_ok());
    }

    #[test]
    fn simple_clean_check_validates() {
        let e = EventTableEntry::clean_check([
            Some(OperandRule::mem_operand(1, 0xff, InvId::new(0))),
            None,
            Some(OperandRule::reg_operand(0xff, InvId::new(0))),
        ]);
        assert!(program_with(e).validate().is_ok());
    }

    #[test]
    fn bad_md_bytes_rejected() {
        let mut rule = OperandRule::mem_operand(1, 0xff, InvId::new(0));
        rule.md_bytes = 9;
        let e = EventTableEntry::clean_check([Some(rule), None, None]);
        assert!(matches!(
            program_with(e).validate(),
            Err(ProgramError::BadMdBytes { .. })
        ));
    }

    #[test]
    fn ru_without_dest_rejected() {
        let e = EventTableEntry::redundant_update(
            [Some(OperandRule::reg_plain(0xff)), None, None],
            RuCompose::Direct,
        );
        assert!(matches!(
            program_with(e).validate(),
            Err(ProgramError::MalformedRedundantUpdate { .. })
        ));
    }

    #[test]
    fn broken_chain_rejected() {
        let e = EventTableEntry::clean_check([
            Some(OperandRule::reg_operand(0xff, InvId::new(0))),
            None,
            None,
        ])
        .with_next(EventId::new(64));
        let p = program_with(e);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BrokenChain { .. })
        ));
    }

    #[test]
    fn chain_cycle_rejected() {
        let head = EventTableEntry::clean_check([
            Some(OperandRule::reg_operand(0xff, InvId::new(0))),
            None,
            None,
        ])
        .with_next(EventId::new(64));
        let tail = EventTableEntry::clean_check([
            Some(OperandRule::reg_operand(0xff, InvId::new(0))),
            None,
            None,
        ])
        .with_ms()
        .with_next(EventId::new(64)); // points at itself
        let mut p = FadeProgram::new(MetadataMap::per_word());
        p.set_entry(event_ids::LOAD, head);
        p.set_entry(EventId::new(64), tail);
        assert!(matches!(p.validate(), Err(ProgramError::ChainCycle { .. })));
    }

    #[test]
    fn valid_two_shot_chain() {
        let head = EventTableEntry::clean_check([
            Some(OperandRule::reg_operand(0xff, InvId::new(0))),
            None,
            None,
        ])
        .with_next(EventId::new(64));
        let tail = EventTableEntry::clean_check([
            None,
            Some(OperandRule::reg_operand(0xff, InvId::new(1))),
            None,
        ])
        .with_ms();
        let mut p = FadeProgram::new(MetadataMap::per_word());
        p.set_entry(event_ids::LOAD, head);
        p.set_entry(EventId::new(64), tail);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn error_messages_are_informative() {
        let err = ProgramError::TooManyComparators {
            id: EventId::new(1),
            needed: 4,
        };
        assert!(err.to_string().contains("comparators"));
    }
}
