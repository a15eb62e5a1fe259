//! Transactions: totally ordered operation sequences.
//!
//! §2.2: a transaction `T_i = (O_{T_i}, ≺_{T_i})` is a set of operations
//! with a total order — here simply a `Vec<Operation>`. The paper
//! assumes each transaction (1) reads an item at most once, (2) writes
//! an item at most once, and (3) never reads an item after writing it;
//! [`Transaction::new`] enforces all three.

use crate::catalog::Catalog;
use crate::error::{CoreError, MalformedKind, Result};
use crate::ids::{ItemId, TxnId};
use crate::op::{self, Action, OpStruct, Operation};
use crate::state::{DbState, ItemSet};
use std::fmt;

/// The §2.2 admissibility of `op` against its transaction's read set
/// `rs` and write set `ws` so far: no second read, no read after a
/// write, no second write of one item — checked in that order.
pub(crate) fn validate_22(rs: &ItemSet, ws: &ItemSet, op: &Operation) -> Result<()> {
    let reason = match op.action {
        Action::Read if rs.contains(op.item) => Some(MalformedKind::DuplicateRead),
        Action::Read if ws.contains(op.item) => Some(MalformedKind::ReadAfterWrite),
        Action::Write if ws.contains(op.item) => Some(MalformedKind::DuplicateWrite),
        _ => None,
    };
    match reason {
        Some(reason) => Err(CoreError::MalformedTransaction {
            txn: op.txn,
            reason,
            item: op.item,
        }),
        None => Ok(()),
    }
}

/// A transaction: an id plus its totally ordered operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    id: TxnId,
    ops: Vec<Operation>,
}

impl Transaction {
    /// Build a transaction, enforcing the §2.2 well-formedness
    /// assumptions and that every operation is tagged with `id`.
    pub fn new(id: TxnId, ops: Vec<Operation>) -> Result<Transaction> {
        let mut read: ItemSet = ItemSet::new();
        let mut written: ItemSet = ItemSet::new();
        for o in &ops {
            if o.txn != id {
                return Err(CoreError::MalformedSchedule(format!(
                    "operation {o} tagged {:?} inside transaction {id:?}",
                    o.txn
                )));
            }
            validate_22(&read, &written, o)?;
            if o.is_write() {
                written.insert(o.item);
            } else {
                read.insert(o.item);
            }
        }
        Ok(Transaction { id, ops })
    }

    /// Build without validation (for internal use on already-checked
    /// subsequences, e.g. projections of a validated schedule).
    pub(crate) fn new_unchecked(id: TxnId, ops: Vec<Operation>) -> Transaction {
        Transaction { id, ops }
    }

    /// The transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The operations in order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Does the transaction have no operations?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// `RS(T_i)`: items read.
    pub fn read_set(&self) -> ItemSet {
        op::read_set(&self.ops)
    }

    /// `WS(T_i)`: items written.
    pub fn write_set(&self) -> ItemSet {
        op::write_set(&self.ops)
    }

    /// `read(T_i)`: the state "seen" by the transaction's reads.
    pub fn read_state(&self) -> DbState {
        op::read_state(&self.ops)
    }

    /// `write(T_i)`: the effects of the transaction's writes.
    pub fn write_state(&self) -> DbState {
        op::write_state(&self.ops)
    }

    /// `T_i^d`: the projection onto items in `d` (order preserved).
    pub fn project(&self, d: &ItemSet) -> Transaction {
        Transaction::new_unchecked(self.id, op::project(&self.ops, d))
    }

    /// `struct(T_i)`: the operation structures, values erased
    /// (Definition 3's comparison key for fixed structure).
    pub fn structure(&self) -> Vec<OpStruct> {
        op::structure(&self.ops)
    }

    /// Does the transaction access (read or write) `item`?
    pub fn accesses(&self, item: ItemId) -> bool {
        self.ops.iter().any(|o| o.item == item)
    }

    /// Render like the paper: `T1: r1(a, 0), r1(c, 5), w1(b, 5)`.
    pub fn display(&self, catalog: &Catalog) -> String {
        let body: Vec<String> = self.ops.iter().map(|o| o.display(catalog)).collect();
        format!("{}: {}", self.id, body.join(", "))
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.id)?;
        for (i, o) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, " {o}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    #[test]
    fn example1_t1() {
        let t1 = Transaction::new(TxnId(1), vec![rd(1, 0, 0), rd(1, 2, 5), wr(1, 1, 5)]).unwrap();
        assert_eq!(t1.read_set(), ItemSet::from_iter([ItemId(0), ItemId(2)]));
        assert_eq!(t1.write_set(), ItemSet::from_iter([ItemId(1)]));
        assert_eq!(t1.len(), 3);
        assert!(t1.accesses(ItemId(1)));
        assert!(!t1.accesses(ItemId(3)));
    }

    #[test]
    fn duplicate_read_rejected() {
        let err = Transaction::new(TxnId(1), vec![rd(1, 0, 0), rd(1, 0, 0)]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::MalformedTransaction {
                reason: MalformedKind::DuplicateRead,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_write_rejected() {
        let err = Transaction::new(TxnId(1), vec![wr(1, 0, 0), wr(1, 0, 1)]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::MalformedTransaction {
                reason: MalformedKind::DuplicateWrite,
                ..
            }
        ));
    }

    #[test]
    fn read_after_write_rejected() {
        let err = Transaction::new(TxnId(1), vec![wr(1, 0, 1), rd(1, 0, 1)]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::MalformedTransaction {
                reason: MalformedKind::ReadAfterWrite,
                ..
            }
        ));
    }

    #[test]
    fn write_then_no_more_reads_other_items_ok() {
        // Writing a then reading b is fine.
        let t = Transaction::new(TxnId(1), vec![wr(1, 0, 1), rd(1, 1, 2)]).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn foreign_op_rejected() {
        let err = Transaction::new(TxnId(1), vec![rd(2, 0, 0)]).unwrap_err();
        assert!(matches!(err, CoreError::MalformedSchedule(_)));
    }

    #[test]
    fn projection_preserves_order() {
        let t = Transaction::new(TxnId(1), vec![rd(1, 0, 0), rd(1, 2, 5), wr(1, 1, 5)]).unwrap();
        let p = t.project(&ItemSet::from_iter([ItemId(0), ItemId(1)]));
        assert_eq!(p.len(), 2);
        assert!(p.ops()[0].is_read());
        assert!(p.ops()[1].is_write());
        assert_eq!(p.id(), TxnId(1));
    }

    #[test]
    fn empty_transaction_ok() {
        let t = Transaction::new(TxnId(7), vec![]).unwrap();
        assert!(t.is_empty());
        assert!(t.read_set().is_empty());
    }
}
