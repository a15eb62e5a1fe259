//! Error types shared across the crate.

use crate::ids::{ItemId, TxnId};
use crate::value::Value;
use std::fmt;

/// Errors produced by the core model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// Two states disagreed on an item during `⊔` (§2.1: the union is
    /// *undefined* when `(d′,v′_1)` and `(d′,v′_2)` with `v′_1 ≠ v′_2`).
    UnionConflict {
        /// Item on which the operands disagree.
        item: ItemId,
        /// Value in the left operand.
        left: Value,
        /// Value in the right operand.
        right: Value,
    },
    /// A formula referred to an item the state does not assign.
    MissingItem(ItemId),
    /// A term or comparison was applied to values of the wrong type.
    TypeError {
        /// What the operation expected.
        expected: &'static str,
        /// What it got.
        found: &'static str,
        /// Where it happened (human-oriented).
        context: &'static str,
    },
    /// Arithmetic overflow while evaluating a term.
    Overflow,
    /// An unknown item name was looked up in the catalog.
    UnknownItem(String),
    /// A transaction violated the §2.2 well-formedness assumptions
    /// (reads and writes each item at most once, never reads after
    /// writing it).
    MalformedTransaction {
        /// Offending transaction.
        txn: TxnId,
        /// What was violated.
        reason: MalformedKind,
        /// Item involved.
        item: ItemId,
    },
    /// A schedule interleaving did not respect some transaction's
    /// internal order, or mixed duplicate operations.
    MalformedSchedule(String),
    /// The conjuncts of an integrity constraint were expected to be
    /// disjoint (the standing assumption of §2.1) but are not.
    OverlappingConjuncts {
        /// An item shared by two conjuncts.
        item: ItemId,
    },
    /// An integrity constraint had no conjuncts.
    EmptyConstraint,
    /// The transaction was summarized by committed-prefix compaction:
    /// its operations live in the collapsed, permanent prefix, so it
    /// can no longer accept pushes or be retracted.
    SummarizedTransaction {
        /// The summarized transaction.
        txn: TxnId,
    },
}

/// The specific §2.2 transaction well-formedness rule that was broken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MalformedKind {
    /// The transaction read the same item twice.
    DuplicateRead,
    /// The transaction wrote the same item twice.
    DuplicateWrite,
    /// The transaction read an item after writing it.
    ReadAfterWrite,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnionConflict { item, left, right } => write!(
                f,
                "state union undefined: item {item:?} maps to both {left} and {right}"
            ),
            CoreError::MissingItem(item) => {
                write!(f, "state does not assign item {item:?}")
            }
            CoreError::TypeError {
                expected,
                found,
                context,
            } => write!(
                f,
                "type error in {context}: expected {expected}, found {found}"
            ),
            CoreError::Overflow => write!(f, "integer overflow while evaluating a term"),
            CoreError::UnknownItem(name) => write!(f, "unknown data item {name:?}"),
            CoreError::MalformedTransaction { txn, reason, item } => {
                let what = match reason {
                    MalformedKind::DuplicateRead => "reads",
                    MalformedKind::DuplicateWrite => "writes",
                    MalformedKind::ReadAfterWrite => "reads after writing",
                };
                write!(
                    f,
                    "transaction {txn} {what} item {item:?} (violates §2.2 assumptions)"
                )
            }
            CoreError::MalformedSchedule(msg) => write!(f, "malformed schedule: {msg}"),
            CoreError::OverlappingConjuncts { item } => write!(
                f,
                "conjuncts share item {item:?}; the paper's theorems require disjoint data sets"
            ),
            CoreError::EmptyConstraint => write!(f, "integrity constraint has no conjuncts"),
            CoreError::SummarizedTransaction { txn } => write!(
                f,
                "transaction {txn} was summarized by committed-prefix compaction; \
                 the compacted prefix is permanent, so {txn} can no longer accept \
                 pushes or be retracted"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_union_conflict() {
        let e = CoreError::UnionConflict {
            item: ItemId(0),
            left: Value::Int(5),
            right: Value::Int(6),
        };
        let s = e.to_string();
        assert!(s.contains("union undefined"), "{s}");
        assert!(s.contains('5') && s.contains('6'), "{s}");
    }

    #[test]
    fn display_malformed_txn() {
        let e = CoreError::MalformedTransaction {
            txn: TxnId(3),
            reason: MalformedKind::ReadAfterWrite,
            item: ItemId(1),
        };
        assert!(e.to_string().contains("T3"));
        assert!(e.to_string().contains("reads after writing"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(CoreError::EmptyConstraint);
        assert!(e.to_string().contains("no conjuncts"));
    }
}
