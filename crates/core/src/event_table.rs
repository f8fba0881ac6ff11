//! The event table: per-event filtering rules (Figure 6(b)).
//!
//! Each of the 128 entries is 96 bits in hardware and describes, for one
//! event ID: which operands participate and how their metadata is
//! fetched (valid/mem bits, MD bytes, mask), whether the event is a
//! clean check (CC bit + per-operand INV ids) or a redundant-update
//! check (RU field), multi-shot chaining (MS bit + next entry), the
//! partial bit (P), the software handler PC, and the non-blocking
//! update rule (Non-Block./INV id field, Section 5.2).

use std::fmt;

use fade_isa::{EventId, EVENT_TABLE_ENTRIES};

use crate::invrf::InvId;
use crate::update_logic::NbUpdate;

/// Which event operand a rule refers to (the `s1`/`s2`/`d` columns of
/// Figure 6(b)).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum OperandSel {
    /// First source operand.
    S1,
    /// Second source operand.
    S2,
    /// Destination operand.
    D,
}

impl OperandSel {
    /// All operand selectors in field order.
    pub(crate) const ALL: [OperandSel; 3] = [OperandSel::S1, OperandSel::S2, OperandSel::D];
}

/// Per-operand metadata-access rule: the valid/mem bits, evaluated MD
/// byte count, extraction mask, and (for clean checks) the invariant
/// register to compare against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OperandRule {
    /// The operand participates in this entry's evaluation.
    pub(crate) valid: bool,
    /// The operand is the memory operand (metadata fetched through the
    /// MD cache); otherwise it is a register (metadata from the MD RF).
    pub(crate) mem: bool,
    /// Number of metadata bytes evaluated (1..=8).
    pub(crate) md_bytes: u8,
    /// Mask applied to the fetched metadata before comparison.
    pub(crate) mask: u64,
    /// Invariant register compared against on a clean check.
    pub inv_id: Option<InvId>,
}

impl OperandRule {
    /// An invalid (non-participating) operand.
    pub(crate) const INVALID: OperandRule = OperandRule {
        valid: false,
        mem: false,
        md_bytes: 0,
        mask: 0,
        inv_id: None,
    };

    /// A register operand rule with a clean-check invariant.
    pub fn reg_operand(mask: u64, inv: InvId) -> Self {
        OperandRule {
            valid: true,
            mem: false,
            md_bytes: 1,
            mask,
            inv_id: Some(inv),
        }
    }

    /// A register operand rule without an invariant (used by RU entries).
    pub fn reg_plain(mask: u64) -> Self {
        OperandRule {
            valid: true,
            mem: false,
            md_bytes: 1,
            mask,
            inv_id: None,
        }
    }

    /// A memory operand rule with a clean-check invariant.
    pub fn mem_operand(md_bytes: u8, mask: u64, inv: InvId) -> Self {
        OperandRule {
            valid: true,
            mem: true,
            md_bytes,
            mask,
            inv_id: Some(inv),
        }
    }

    /// A memory operand rule without an invariant (used by RU entries).
    pub fn mem_plain(md_bytes: u8, mask: u64) -> Self {
        OperandRule {
            valid: true,
            mem: true,
            md_bytes,
            mask,
            inv_id: None,
        }
    }
}

/// How a redundant-update entry composes the source metadata before
/// comparing with the destination metadata (the RU field encodes three
/// options, Section 4.1 Stage 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuCompose {
    /// Single source: compare `s1` directly with `d`.
    Direct,
    /// Two sources composed with bitwise OR.
    Or,
    /// Two sources composed with bitwise AND.
    And,
}

/// The check kind of an event-table entry: clean check (CC bit) or
/// redundant update (RU field). Exactly one applies per entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FilterKind {
    /// Clean check: every valid operand's masked metadata must equal its
    /// invariant register.
    CleanCheck,
    /// Redundant update: composed source metadata must equal the
    /// destination metadata.
    RedundantUpdate(RuCompose),
}

/// PC of a software handler in the monitor's address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HandlerPc(u32);

impl HandlerPc {
    /// Creates a handler PC.
    #[inline]
    pub const fn new(pc: u32) -> Self {
        HandlerPc(pc)
    }
}

impl fmt::Debug for HandlerPc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HandlerPc({:#x})", self.0)
    }
}

impl fmt::Display for HandlerPc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

/// One event-table entry (Figure 6(b); 96 bits in hardware).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EventTableEntry {
    /// Metadata-access rules for `s1`, `s2`, `d` (in that order).
    pub operands: [OperandRule; 3],
    /// Clean check or redundant update.
    pub(crate) kind: FilterKind,
    /// Multi-shot bit: AND the previous shot's outcome into this one.
    pub ms: bool,
    /// Pointer to the next entry of a multi-shot chain.
    pub next_entry: Option<EventId>,
    /// Partial bit (P): a passing check selects the short handler
    /// instead of filtering outright.
    pub partial: bool,
    /// Software handler dispatched when the event is not filtered.
    pub handler_pc: HandlerPc,
    /// Short handler dispatched when a partial check passes.
    pub partial_handler_pc: HandlerPc,
    /// Non-blocking critical-metadata update rule for unfiltered events.
    pub nb: Option<NbUpdate>,
}

impl EventTableEntry {
    /// Creates a clean-check entry from per-operand rules
    /// (`[s1, s2, d]`; `None` marks a non-participating operand).
    pub fn clean_check(rules: [Option<OperandRule>; 3]) -> Self {
        EventTableEntry {
            operands: rules.map(|r| r.unwrap_or(OperandRule::INVALID)),
            kind: FilterKind::CleanCheck,
            ms: false,
            next_entry: None,
            partial: false,
            handler_pc: HandlerPc::default(),
            partial_handler_pc: HandlerPc::default(),
            nb: None,
        }
    }

    /// Creates a redundant-update entry.
    pub fn redundant_update(rules: [Option<OperandRule>; 3], compose: RuCompose) -> Self {
        EventTableEntry {
            operands: rules.map(|r| r.unwrap_or(OperandRule::INVALID)),
            kind: FilterKind::RedundantUpdate(compose),
            ms: false,
            next_entry: None,
            partial: false,
            handler_pc: HandlerPc::default(),
            partial_handler_pc: HandlerPc::default(),
            nb: None,
        }
    }

    /// Sets the unfiltered-event handler PC.
    pub fn with_handler(mut self, pc: HandlerPc) -> Self {
        self.handler_pc = pc;
        self
    }

    /// Marks the entry partial and sets the short (check-passed) handler.
    pub fn with_partial(mut self, short_handler: HandlerPc) -> Self {
        self.partial = true;
        self.partial_handler_pc = short_handler;
        self
    }

    /// Chains this entry to a continuation entry (multi-shot).
    pub fn with_next(mut self, next: EventId) -> Self {
        self.next_entry = Some(next);
        self
    }

    /// Sets the multi-shot bit (combine with the previous shot outcome).
    pub fn with_ms(mut self) -> Self {
        self.ms = true;
        self
    }

    /// Attaches a non-blocking critical-metadata update rule.
    pub fn with_nb(mut self, nb: NbUpdate) -> Self {
        self.nb = Some(nb);
        self
    }

    /// The rule for an operand selector.
    #[inline]
    pub(crate) fn operand(&self, sel: OperandSel) -> &OperandRule {
        match sel {
            OperandSel::S1 => &self.operands[0],
            OperandSel::S2 => &self.operands[1],
            OperandSel::D => &self.operands[2],
        }
    }

    /// Number of two-operand comparator blocks this entry needs in the
    /// Filter stage. The filter logic provides three (f1, f2, f3 in
    /// Figure 7); `FadeProgram::validate` enforces the bound.
    pub(crate) fn comparators_needed(&self) -> usize {
        match self.kind {
            FilterKind::CleanCheck => self
                .operands
                .iter()
                .filter(|r| r.valid && r.inv_id.is_some())
                .count(),
            // Composition plus the final comparison fits one block pair:
            // compose uses the shared OR/AND stage, compare uses one
            // comparator.
            FilterKind::RedundantUpdate(_) => 1,
        }
    }
}

/// The 128-entry event table.
#[derive(Clone, Debug)]
pub struct EventTable {
    entries: Box<[Option<EventTableEntry>; EVENT_TABLE_ENTRIES]>,
}

impl EventTable {
    /// Creates an empty table: every event is unmonitored.
    pub(crate) fn new() -> Self {
        EventTable {
            entries: Box::new([None; EVENT_TABLE_ENTRIES]),
        }
    }

    /// Looks up the entry for an event ID.
    #[inline]
    pub fn entry(&self, id: EventId) -> Option<&EventTableEntry> {
        self.entries[id.index()].as_ref()
    }

    /// Installs an entry (memory-mapped programming).
    pub(crate) fn set(&mut self, id: EventId, entry: EventTableEntry) {
        self.entries[id.index()] = Some(entry);
    }

    /// Iterates over `(id, entry)` pairs of programmed entries.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (EventId, &EventTableEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (EventId::new(i as u8), e)))
    }
}

impl Default for EventTable {
    fn default() -> Self {
        EventTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fade_isa::event_ids;

    fn cc_entry() -> EventTableEntry {
        EventTableEntry::clean_check([
            Some(OperandRule::mem_operand(1, 0xff, InvId::new(0))),
            None,
            Some(OperandRule::reg_operand(0xff, InvId::new(0))),
        ])
    }

    #[test]
    fn empty_table_has_no_entries() {
        let t = EventTable::new();
        assert_eq!(t.iter().count(), 0);
        assert!(t.entry(event_ids::LOAD).is_none());
    }

    #[test]
    fn set_and_lookup() {
        let mut t = EventTable::new();
        t.set(event_ids::LOAD, cc_entry());
        assert_eq!(t.iter().count(), 1);
        let e = t.entry(event_ids::LOAD).unwrap();
        assert!(e.operand(OperandSel::S1).valid);
        assert!(e.operand(OperandSel::S1).mem);
        assert!(!e.operand(OperandSel::S2).valid);
    }

    #[test]
    fn comparator_count_clean_check() {
        assert_eq!(cc_entry().comparators_needed(), 2);
        let three = EventTableEntry::clean_check([
            Some(OperandRule::reg_operand(0xff, InvId::new(0))),
            Some(OperandRule::reg_operand(0xff, InvId::new(1))),
            Some(OperandRule::reg_operand(0xff, InvId::new(2))),
        ]);
        assert_eq!(three.comparators_needed(), 3);
    }

    #[test]
    fn comparator_count_redundant_update() {
        let ru = EventTableEntry::redundant_update(
            [
                Some(OperandRule::reg_plain(0xff)),
                Some(OperandRule::reg_plain(0xff)),
                Some(OperandRule::reg_plain(0xff)),
            ],
            RuCompose::Or,
        );
        assert_eq!(ru.comparators_needed(), 1);
    }

    #[test]
    fn builder_chain() {
        let e = cc_entry()
            .with_handler(HandlerPc::new(0x40))
            .with_partial(HandlerPc::new(0x80))
            .with_next(EventId::new(64))
            .with_ms();
        assert_eq!(e.handler_pc, HandlerPc::new(0x40));
        assert!(e.partial);
        assert_eq!(e.partial_handler_pc, HandlerPc::new(0x80));
        assert_eq!(e.next_entry, Some(EventId::new(64)));
        assert!(e.ms);
    }

    #[test]
    fn iter_visits_programmed_entries() {
        let mut t = EventTable::new();
        t.set(event_ids::LOAD, cc_entry());
        t.set(event_ids::STORE, cc_entry());
        let ids: Vec<_> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![event_ids::LOAD, event_ids::STORE]);
    }
}
