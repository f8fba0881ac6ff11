//! The filter logic of the Filter stage (Figure 7).
//!
//! Three identical two-operand comparison blocks (f1, f2, f3) each
//! compare one event operand's metadata with another operand or with an
//! invariant register; a clocked register and a mux (controlled by the
//! MS bit) chain multi-shot outcomes. This module is the *combinational*
//! part: pure functions from fetched metadata to a filtering decision.

use crate::event_table::{EventTableEntry, FilterKind, OperandSel, RuCompose};
use crate::invrf::InvRf;

/// Metadata values fetched for the (up to) three event operands during
/// the Metadata Read stage, already masked per the operand rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OperandMeta {
    /// First source operand metadata.
    pub s1: u64,
    /// Second source operand metadata.
    pub s2: u64,
    /// Destination operand metadata.
    pub d: u64,
}

impl OperandMeta {
    /// The value for an operand selector.
    #[inline]
    pub(crate) fn get(&self, sel: OperandSel) -> u64 {
        match sel {
            OperandSel::S1 => self.s1,
            OperandSel::S2 => self.s2,
            OperandSel::D => self.d,
        }
    }
}

/// Result of evaluating one shot of an entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct FilterDecision {
    /// The filtering condition of this shot was satisfied.
    pub(crate) condition_holds: bool,
}

/// Evaluates one event-table entry (one *shot*) against fetched operand
/// metadata.
///
/// * Clean check: every valid operand with an INV id must have masked
///   metadata equal to the (equally masked) invariant value.
/// * Redundant update: the composed source metadata must equal the
///   destination metadata.
pub(crate) fn evaluate_shot(entry: &EventTableEntry, ops: &OperandMeta, inv: &InvRf) -> FilterDecision {
    let holds = match entry.kind {
        FilterKind::CleanCheck => OperandSel::ALL.iter().all(|&sel| {
            let rule = entry.operand(sel);
            if !rule.valid {
                return true;
            }
            match rule.inv_id {
                None => true,
                Some(id) => ops.get(sel) == (inv.read(id) & rule.mask),
            }
        }),
        FilterKind::RedundantUpdate(compose) => {
            let s1v = entry.operand(OperandSel::S1).valid;
            let s2v = entry.operand(OperandSel::S2).valid;
            let composed = match (compose, s1v, s2v) {
                (RuCompose::Direct, true, _) => ops.s1,
                (RuCompose::Direct, false, true) => ops.s2,
                (RuCompose::Or, true, true) => ops.s1 | ops.s2,
                (RuCompose::And, true, true) => ops.s1 & ops.s2,
                // Degenerate encodings fall back to s1; validation
                // rejects programs that rely on them.
                _ => ops.s1,
            };
            composed == ops.d
        }
    };
    FilterDecision {
        condition_holds: holds,
    }
}

/// The multi-shot chaining register of Figure 7: a one-bit clocked
/// register plus the MS-controlled mux.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShotChain {
    prev: bool,
}

impl ShotChain {
    /// Creates a chain register (initial content irrelevant; the first
    /// shot of a chain must have `ms == false`).
    pub(crate) fn new() -> Self {
        ShotChain { prev: true }
    }

    /// Combines this shot's outcome with the chain state per the MS bit,
    /// latches the result, and returns it.
    pub(crate) fn step(&mut self, ms: bool, outcome: bool) -> bool {
        let combined = if ms { self.prev && outcome } else { outcome };
        self.prev = combined;
        combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_table::{EventTableEntry, OperandRule};
    use crate::invrf::InvId;

    fn inv_with(id: u8, v: u64) -> InvRf {
        let mut rf = InvRf::new();
        rf.write(InvId::new(id), v);
        rf
    }

    #[test]
    fn clean_check_passes_when_all_match() {
        let inv = inv_with(0, 0);
        let e = EventTableEntry::clean_check([
            Some(OperandRule::mem_operand(1, 0xff, InvId::new(0))),
            None,
            Some(OperandRule::reg_operand(0xff, InvId::new(0))),
        ]);
        let ok = evaluate_shot(&e, &OperandMeta { s1: 0, s2: 9, d: 0 }, &inv);
        assert!(ok.condition_holds, "s2 is invalid so its value is ignored");
        let bad = evaluate_shot(&e, &OperandMeta { s1: 1, s2: 0, d: 0 }, &inv);
        assert!(!bad.condition_holds);
    }

    #[test]
    fn clean_check_compares_against_distinct_invariants() {
        let mut inv = InvRf::new();
        inv.write(InvId::new(1), 2);
        inv.write(InvId::new(2), 3);
        let e = EventTableEntry::clean_check([
            Some(OperandRule::reg_operand(0xff, InvId::new(1))),
            Some(OperandRule::reg_operand(0xff, InvId::new(2))),
            None,
        ]);
        assert!(
            evaluate_shot(&e, &OperandMeta { s1: 2, s2: 3, d: 0 }, &inv).condition_holds
        );
        assert!(
            !evaluate_shot(&e, &OperandMeta { s1: 3, s2: 2, d: 0 }, &inv).condition_holds
        );
    }

    #[test]
    fn clean_check_invariant_is_masked() {
        let inv = inv_with(0, 0xffff);
        let e = EventTableEntry::clean_check([
            Some(OperandRule::reg_operand(0x0f, InvId::new(0))),
            None,
            None,
        ]);
        // Operand metadata is pre-masked to 0x0f; invariant masked too.
        assert!(
            evaluate_shot(&e, &OperandMeta { s1: 0x0f, s2: 0, d: 0 }, &inv).condition_holds
        );
    }

    #[test]
    fn redundant_update_direct() {
        let inv = InvRf::new();
        let e = EventTableEntry::redundant_update(
            [
                Some(OperandRule::mem_plain(1, 0xff)),
                None,
                Some(OperandRule::reg_plain(0xff)),
            ],
            RuCompose::Direct,
        );
        assert!(
            evaluate_shot(&e, &OperandMeta { s1: 5, s2: 0, d: 5 }, &inv).condition_holds
        );
        assert!(
            !evaluate_shot(&e, &OperandMeta { s1: 5, s2: 0, d: 4 }, &inv).condition_holds
        );
    }

    #[test]
    fn redundant_update_or_and() {
        let inv = InvRf::new();
        let rules = [
            Some(OperandRule::reg_plain(0xff)),
            Some(OperandRule::reg_plain(0xff)),
            Some(OperandRule::reg_plain(0xff)),
        ];
        let or = EventTableEntry::redundant_update(rules, RuCompose::Or);
        assert!(
            evaluate_shot(&or, &OperandMeta { s1: 1, s2: 2, d: 3 }, &inv).condition_holds
        );
        let and = EventTableEntry::redundant_update(rules, RuCompose::And);
        assert!(
            evaluate_shot(&and, &OperandMeta { s1: 3, s2: 1, d: 1 }, &inv).condition_holds
        );
        assert!(
            !evaluate_shot(&and, &OperandMeta { s1: 3, s2: 1, d: 3 }, &inv).condition_holds
        );
    }

    #[test]
    fn shot_chain_ands_when_ms_set() {
        let mut chain = ShotChain::new();
        assert!(chain.step(false, true)); // first shot: latch outcome
        assert!(!chain.step(true, false)); // chained: true && false
        assert!(!chain.step(true, true)); // chained onto false stays false
        assert!(chain.step(false, true)); // fresh chain resets
    }
}
