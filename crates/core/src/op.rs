//! Operations: the paper's 3-tuples `(action, entity, value)`.
//!
//! §2.2: *"An operation o is a 3-tuple (action(o), entity(o), value(o))"*
//! — the action is read `r` or write `w`, the entity is the data item,
//! and the **value** is what the read returned / the write stored. The
//! value attribute is the paper's deliberate departure from the
//! classical read/write model: it is what makes reasoning about
//! *non-serializable* executions possible.
//!
//! [`OpStruct`] is the paper's `struct(·)`: the operation with its value
//! erased, used to define *fixed-structure* transaction programs
//! (Definition 3).

use crate::catalog::Catalog;
use crate::ids::{ItemId, TxnId};
use crate::state::{DbState, ItemSet};
use crate::value::Value;
use std::fmt;

/// The operation type: read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// `r` — a read returning `value`.
    Read,
    /// `w` — a write storing `value`.
    Write,
}

impl Action {
    /// `"r"` or `"w"`.
    pub(crate) fn letter(self) -> char {
        match self {
            Action::Read => 'r',
            Action::Write => 'w',
        }
    }
}

/// An operation of a transaction, tagged with its transaction id.
///
/// The paper writes `r1(a, 0)` for a read of `a` by `T_1` returning 0;
/// that is `Operation::read(TxnId(1), a, Value::Int(0))`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Operation {
    /// The transaction this operation belongs to.
    pub txn: TxnId,
    /// `action(o)`.
    pub action: Action,
    /// `entity(o)`.
    pub item: ItemId,
    /// `value(o)` — value returned (read) or stored (write).
    pub value: Value,
}

impl Operation {
    /// A read operation `r_txn(item, value)`.
    pub fn read(txn: TxnId, item: ItemId, value: Value) -> Operation {
        Operation {
            txn,
            action: Action::Read,
            item,
            value,
        }
    }

    /// A write operation `w_txn(item, value)`.
    pub fn write(txn: TxnId, item: ItemId, value: Value) -> Operation {
        Operation {
            txn,
            action: Action::Write,
            item,
            value,
        }
    }

    /// Is this a read?
    pub fn is_read(&self) -> bool {
        self.action == Action::Read
    }

    /// Is this a write?
    pub fn is_write(&self) -> bool {
        self.action == Action::Write
    }

    /// The paper's `struct(o)`: drop the value attribute.
    pub(crate) fn structure(&self) -> OpStruct {
        OpStruct {
            action: self.action,
            item: self.item,
        }
    }

    /// Render like the paper: `r1(a, 0)`.
    pub fn display(&self, catalog: &Catalog) -> String {
        format!(
            "{}{}({}, {})",
            self.action.letter(),
            self.txn.raw(),
            catalog.name(self.item),
            self.value
        )
    }
}

#[cfg(test)]
impl Operation {
    /// Do two operations *conflict* (same item, different transactions,
    /// at least one write)? The basis of conflict serializability.
    pub(crate) fn conflicts_with(&self, other: &Operation) -> bool {
        self.item == other.item && self.txn != other.txn && (self.is_write() || other.is_write())
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}({:?}, {})",
            self.action.letter(),
            self.txn.raw(),
            self.item,
            self.value
        )
    }
}

/// The paper's `struct(o)`: a 2-tuple `(action(o), entity(o))`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpStruct {
    /// `action(o)`.
    pub action: Action,
    /// `entity(o)`.
    pub item: ItemId,
}

impl fmt::Display for OpStruct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({:?})", self.action.letter(), self.item)
    }
}

// ---------------------------------------------------------------------
// Free functions over operation sequences (the paper's RS/WS/read/write,
// defined for any subsequence `seq` of a schedule).
// ---------------------------------------------------------------------

/// `RS(seq)`: the set of items read by operations in `seq`.
pub fn read_set(seq: &[Operation]) -> ItemSet {
    seq.iter().filter(|o| o.is_read()).map(|o| o.item).collect()
}

/// `WS(seq)`: the set of items written by operations in `seq`.
pub fn write_set(seq: &[Operation]) -> ItemSet {
    seq.iter()
        .filter(|o| o.is_write())
        .map(|o| o.item)
        .collect()
}

/// `read(seq)`: the database state "seen" by the reads in `seq`.
///
/// Under the §2.2 assumption that a transaction reads an item at most
/// once the map is unambiguous; if `seq` spans several transactions the
/// *first* read of each item wins (deterministic, and irrelevant for the
/// paper's uses, which are always per-transaction).
pub fn read_state(seq: &[Operation]) -> DbState {
    let mut out = DbState::new();
    for o in seq {
        if o.is_read() && out.get(o.item).is_none() {
            out.set(o.item, o.value.clone());
        }
    }
    out
}

/// `write(seq)`: the effect of the writes in `seq` on the database
/// (later writes to the same item overwrite earlier ones).
pub fn write_state(seq: &[Operation]) -> DbState {
    let mut out = DbState::new();
    for o in seq {
        if o.is_write() {
            out.set(o.item, o.value.clone());
        }
    }
    out
}

/// `seq^d`: the subsequence of operations on items in `d`.
pub(crate) fn project(seq: &[Operation], d: &ItemSet) -> Vec<Operation> {
    seq.iter().filter(|o| d.contains(o.item)).cloned().collect()
}

/// `struct(seq)`: the sequence of operation structures.
pub(crate) fn structure(seq: &[Operation]) -> Vec<OpStruct> {
    seq.iter().map(Operation::structure).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Domain;

    fn ops_example1() -> Vec<Operation> {
        // Example 1's T1: r1(a,0), r1(c,5), w1(b,5).
        let (a, b, c) = (ItemId(0), ItemId(1), ItemId(2));
        vec![
            Operation::read(TxnId(1), a, Value::Int(0)),
            Operation::read(TxnId(1), c, Value::Int(5)),
            Operation::write(TxnId(1), b, Value::Int(5)),
        ]
    }

    #[test]
    fn example1_rs_ws_read_write() {
        let t1 = ops_example1();
        let (a, b, c) = (ItemId(0), ItemId(1), ItemId(2));
        assert_eq!(read_set(&t1), ItemSet::from_iter([a, c]));
        assert_eq!(write_set(&t1), ItemSet::from_iter([b]));
        assert_eq!(
            read_state(&t1),
            DbState::from_pairs([(a, Value::Int(0)), (c, Value::Int(5))])
        );
        assert_eq!(write_state(&t1), DbState::from_pairs([(b, Value::Int(5))]));
    }

    #[test]
    fn example1_projection_and_structure() {
        let t1 = ops_example1();
        let b = ItemId(1);
        // T1^{b} = w1(b,5).
        let proj = project(&t1, &ItemSet::from_iter([b]));
        assert_eq!(proj.len(), 1);
        assert!(proj[0].is_write());
        // struct(T1) = r1(a), r1(c), w1(b).
        let st = structure(&t1);
        assert_eq!(
            st,
            vec![
                OpStruct {
                    action: Action::Read,
                    item: ItemId(0)
                },
                OpStruct {
                    action: Action::Read,
                    item: ItemId(2)
                },
                OpStruct {
                    action: Action::Write,
                    item: ItemId(1)
                },
            ]
        );
    }

    #[test]
    fn conflicts() {
        let a = ItemId(0);
        let r1 = Operation::read(TxnId(1), a, Value::Int(0));
        let w2 = Operation::write(TxnId(2), a, Value::Int(1));
        let r2 = Operation::read(TxnId(2), a, Value::Int(0));
        let w1b = Operation::write(TxnId(1), ItemId(1), Value::Int(0));
        assert!(r1.conflicts_with(&w2));
        assert!(w2.conflicts_with(&r1));
        assert!(!r1.conflicts_with(&r2)); // read-read
        assert!(!w2.conflicts_with(&w1b)); // different items
        let w1a = Operation::write(TxnId(1), a, Value::Int(9));
        assert!(!w1a.conflicts_with(&w1a.clone())); // same txn
    }

    #[test]
    fn display_matches_paper_notation() {
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(-10, 10));
        let op = Operation::read(TxnId(1), a, Value::Int(0));
        assert_eq!(op.display(&cat), "r1(a, 0)");
        let op = Operation::write(TxnId(2), a, Value::Int(-1));
        assert_eq!(op.display(&cat), "w2(a, -1)");
    }

    #[test]
    fn write_state_last_wins_read_state_first_wins() {
        let a = ItemId(0);
        let seq = vec![
            Operation::write(TxnId(1), a, Value::Int(1)),
            Operation::write(TxnId(2), a, Value::Int(2)),
            Operation::read(TxnId(3), a, Value::Int(2)),
            Operation::read(TxnId(4), a, Value::Int(9)), // bogus later read
        ];
        assert_eq!(write_state(&seq).get(a), Some(&Value::Int(2)));
        assert_eq!(read_state(&seq).get(a), Some(&Value::Int(2)));
    }

    #[test]
    fn empty_sequences() {
        assert!(read_set(&[]).is_empty());
        assert!(write_set(&[]).is_empty());
        assert!(read_state(&[]).is_empty());
        assert!(write_state(&[]).is_empty());
    }
}
