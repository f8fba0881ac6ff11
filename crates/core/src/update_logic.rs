//! Non-blocking metadata-update logic (Section 5.2).
//!
//! For an unfilterable event, the MD update logic computes the new value
//! of the *critical* metadata in the Filter stage, so dependent events
//! can keep filtering while the software handler is still in flight.
//! The paper supports four rule shapes:
//!
//! 1. propagate a source operand's metadata to the destination;
//! 2. compose the two sources with OR or AND;
//! 3. set the destination to a constant from an INV register;
//! 4. conditionally perform one of the above after comparing the source
//!    operands to each other, to the destination, or to a constant.

use crate::filter_logic::OperandMeta;
use crate::invrf::{InvId, InvRf};

/// An unconditional non-blocking update action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NbAction {
    /// Destination metadata := `s1` metadata.
    PropagateS1,
    /// Destination metadata := `s2` metadata.
    PropagateS2,
    /// Destination metadata := `s1 | s2`.
    ComposeOr,
    /// Destination metadata := `s1 & s2`.
    ComposeAnd,
    /// Destination metadata := INV register constant.
    SetConst(InvId),
}

/// Operand of a non-blocking condition comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NbCondOperand {
    /// The `s1` metadata value.
    S1,
    /// The `s2` metadata value.
    S2,
    /// The destination's current metadata value.
    D,
    /// A constant from the INV RF.
    Inv(InvId),
}

/// A condition gating a non-blocking update: compare two values for
/// (in)equality.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NbCond {
    /// Left-hand side of the comparison.
    pub lhs: NbCondOperand,
    /// Right-hand side of the comparison.
    pub rhs: NbCondOperand,
    /// Apply the action when the comparison result equals this value
    /// (`true` = apply on equality, `false` = apply on inequality).
    pub when_equal: bool,
}

/// A complete non-blocking update rule: an action, optionally gated by a
/// condition (rule shape 4); when the condition fails, `else_action`
/// applies instead (or no update if `None`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NbUpdate {
    /// Action applied when the condition holds (or unconditionally).
    pub(crate) action: NbAction,
    /// Optional gating condition.
    pub(crate) cond: Option<NbCond>,
    /// Action applied when the condition fails.
    pub(crate) else_action: Option<NbAction>,
}

impl NbUpdate {
    /// An unconditional update.
    pub fn unconditional(action: NbAction) -> Self {
        NbUpdate {
            action,
            cond: None,
            else_action: None,
        }
    }

    /// A conditional update with no else-action.
    pub fn when(cond: NbCond, action: NbAction) -> Self {
        NbUpdate {
            action,
            cond: Some(cond),
            else_action: None,
        }
    }

    /// A conditional update with an else-action.
    pub fn when_else(cond: NbCond, action: NbAction, else_action: NbAction) -> Self {
        NbUpdate {
            action,
            cond: Some(cond),
            else_action: Some(else_action),
        }
    }

    /// Evaluates the rule against the fetched operand metadata and the
    /// invariant register file, returning the new destination metadata
    /// value, or `None` when the (failed-condition, no-else) case leaves
    /// the destination unchanged.
    pub fn evaluate(&self, ops: &OperandMeta, inv: &InvRf) -> Option<u64> {
        let action = match self.cond {
            None => Some(self.action),
            Some(c) => {
                let lhs = Self::cond_value(c.lhs, ops, inv);
                let rhs = Self::cond_value(c.rhs, ops, inv);
                if (lhs == rhs) == c.when_equal {
                    Some(self.action)
                } else {
                    self.else_action
                }
            }
        };
        action.map(|a| match a {
            NbAction::PropagateS1 => ops.s1,
            NbAction::PropagateS2 => ops.s2,
            NbAction::ComposeOr => ops.s1 | ops.s2,
            NbAction::ComposeAnd => ops.s1 & ops.s2,
            NbAction::SetConst(id) => inv.read(id),
        })
    }

    fn cond_value(op: NbCondOperand, ops: &OperandMeta, inv: &InvRf) -> u64 {
        match op {
            NbCondOperand::S1 => ops.s1,
            NbCondOperand::S2 => ops.s2,
            NbCondOperand::D => ops.d,
            NbCondOperand::Inv(id) => inv.read(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(s1: u64, s2: u64, d: u64) -> OperandMeta {
        OperandMeta { s1, s2, d }
    }

    #[test]
    fn propagate_rules() {
        let inv = InvRf::new();
        let o = ops(1, 2, 3);
        assert_eq!(
            NbUpdate::unconditional(NbAction::PropagateS1).evaluate(&o, &inv),
            Some(1)
        );
        assert_eq!(
            NbUpdate::unconditional(NbAction::PropagateS2).evaluate(&o, &inv),
            Some(2)
        );
    }

    #[test]
    fn compose_rules() {
        let inv = InvRf::new();
        let o = ops(0b0101, 0b0011, 0);
        assert_eq!(
            NbUpdate::unconditional(NbAction::ComposeOr).evaluate(&o, &inv),
            Some(0b0111)
        );
        assert_eq!(
            NbUpdate::unconditional(NbAction::ComposeAnd).evaluate(&o, &inv),
            Some(0b0001)
        );
    }

    #[test]
    fn set_const_reads_inv_rf() {
        let mut inv = InvRf::new();
        inv.write(InvId::new(3), 42);
        let u = NbUpdate::unconditional(NbAction::SetConst(InvId::new(3)));
        assert_eq!(u.evaluate(&ops(0, 0, 0), &inv), Some(42));
    }

    #[test]
    fn conditional_on_equality() {
        let inv = InvRf::new();
        let cond = NbCond {
            lhs: NbCondOperand::S1,
            rhs: NbCondOperand::S2,
            when_equal: true,
        };
        let u = NbUpdate::when(cond, NbAction::PropagateS1);
        assert_eq!(u.evaluate(&ops(5, 5, 0), &inv), Some(5));
        assert_eq!(u.evaluate(&ops(5, 6, 0), &inv), None);
    }

    #[test]
    fn conditional_against_constant_with_else() {
        let mut inv = InvRf::new();
        inv.write(InvId::new(0), 7); // threshold constant
        inv.write(InvId::new(1), 99); // else value
        let cond = NbCond {
            lhs: NbCondOperand::D,
            rhs: NbCondOperand::Inv(InvId::new(0)),
            when_equal: true,
        };
        let u = NbUpdate::when_else(
            cond,
            NbAction::PropagateS1,
            NbAction::SetConst(InvId::new(1)),
        );
        // d == 7: propagate s1.
        assert_eq!(u.evaluate(&ops(3, 0, 7), &inv), Some(3));
        // d != 7: set constant.
        assert_eq!(u.evaluate(&ops(3, 0, 8), &inv), Some(99));
    }

    #[test]
    fn conditional_on_inequality() {
        let inv = InvRf::new();
        let cond = NbCond {
            lhs: NbCondOperand::S1,
            rhs: NbCondOperand::D,
            when_equal: false,
        };
        let u = NbUpdate::when(cond, NbAction::PropagateS1);
        assert_eq!(u.evaluate(&ops(1, 0, 0), &inv), Some(1));
        assert_eq!(u.evaluate(&ops(0, 0, 0), &inv), None);
    }
}
