//! Transaction states (Definition 4).
//!
//! *"The state associated with the transaction is a possible state of
//! the data items in a conjunct that the transaction may have seen. The
//! state seen by the transaction is an abstract notion and may never
//! have been physically realized in a schedule."*
//!
//! Given a serialization order `T_1 … T_n` of `S^d` and an initial state
//! `DS_1`:
//!
//! ```text
//! state(T_1, d, S, DS_1) = DS_1^d
//! state(T_i, d, S, DS_1) = state(T_{i-1})^{d − WS(T^d_{i-1})} ∪ write(T^d_{i-1})
//! ```
//!
//! Two consequences noted in the paper (and checked by the helpers
//! here): `read(T_i^d) ⊆ state(T_i, d, S, DS)`, and executing the last
//! transaction's projection from its state yields `DS_2^d` where
//! `[DS_1] S [DS_2]`.

use crate::ids::TxnId;
use crate::op;
use crate::schedule::Schedule;
use crate::state::{DbState, ItemSet};

/// Definition 4: the state each transaction of `order` "sees" on `d`.
///
/// `order` must be a serialization order of `S^d`; the result has one
/// state per transaction, parallel to `order`.
pub fn transaction_states(
    schedule: &Schedule,
    d: &ItemSet,
    order: &[TxnId],
    initial: &DbState,
) -> Vec<DbState> {
    let mut out = Vec::with_capacity(order.len());
    let mut current = initial.restrict(d);
    for (i, &t) in order.iter().enumerate() {
        if i > 0 {
            let prev = order[i - 1];
            let prev_ops = schedule.transaction(prev).project(d);
            let ws = op::write_set(prev_ops.ops());
            let writes = op::write_state(prev_ops.ops());
            // state^{d − WS} ∪ write(T^d_{i-1}) — disjoint by
            // construction, so the ⊔ cannot conflict.
            current = current
                .without(&ws)
                .union(&writes)
                .expect("write-sets removed before union");
        }
        out.push(current.clone());
        let _ = t;
    }
    out
}

/// The state *after* the last transaction of `order` on `d`: apply the
/// last projected transaction's writes to its Definition 4 state. When
/// `order` covers every transaction of `S^d` this equals `DS_2^d` for
/// `[DS_1] S [DS_2]` (checked in tests).
pub fn final_state_on(
    schedule: &Schedule,
    d: &ItemSet,
    order: &[TxnId],
    initial: &DbState,
) -> DbState {
    let states = transaction_states(schedule, d, order, initial);
    match (order.last(), states.last()) {
        (Some(&last), Some(state)) => {
            let last_ops = schedule.transaction(last).project(d);
            state.updated_with(&op::write_state(last_ops.ops()))
        }
        _ => initial.restrict(d),
    }
}

/// Does `read(T_i^d) ⊆ state(T_i, d, S, DS)` hold for every transaction
/// (as values, not just items)? True whenever `order` is a genuine
/// serialization order of a read-coherent `S^d`.
#[cfg(test)]
pub(crate) fn reads_contained_in_states(
    schedule: &Schedule,
    d: &ItemSet,
    order: &[TxnId],
    initial: &DbState,
) -> bool {
    let states = transaction_states(schedule, d, order, initial);
    order.iter().zip(&states).all(|(&t, state)| {
        let proj = schedule.transaction(t).project(d);
        state.extends(&op::read_state(proj.ops()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ItemId;
    use crate::op::Operation;
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    /// Example 1: S = r1(a,0), r2(a,0), w2(d,0), r1(c,5), w1(b,5)
    /// from DS1 = {(a,0),(b,10),(c,5),(d,10)}; items a=0,b=1,c=2,d=3.
    fn example1() -> (Schedule, DbState) {
        let s = Schedule::new(vec![
            rd(1, 0, 0),
            rd(2, 0, 0),
            wr(2, 3, 0),
            rd(1, 2, 5),
            wr(1, 1, 5),
        ])
        .unwrap();
        let ds1 = DbState::from_pairs([
            (ItemId(0), Value::Int(0)),
            (ItemId(1), Value::Int(10)),
            (ItemId(2), Value::Int(5)),
            (ItemId(3), Value::Int(10)),
        ]);
        (s, ds1)
    }

    #[test]
    fn example1_state_depends_on_serialization_order() {
        // The paper: with order T1,T2 →
        //   state(T2, {a,b,c}, S, DS1) = {(a,0),(b,5),(c,5)};
        // with order T2,T1 →
        //   state(T2, {a,b,c}, S, DS1) = {(a,0),(b,10),(c,5)}.
        let (s, ds1) = example1();
        let d = ItemSet::from_iter([ItemId(0), ItemId(1), ItemId(2)]);

        let st_12 = transaction_states(&s, &d, &[TxnId(1), TxnId(2)], &ds1);
        assert_eq!(
            st_12[1],
            DbState::from_pairs([
                (ItemId(0), Value::Int(0)),
                (ItemId(1), Value::Int(5)),
                (ItemId(2), Value::Int(5)),
            ])
        );

        let st_21 = transaction_states(&s, &d, &[TxnId(2), TxnId(1)], &ds1);
        assert_eq!(
            st_21[0],
            DbState::from_pairs([
                (ItemId(0), Value::Int(0)),
                (ItemId(1), Value::Int(10)),
                (ItemId(2), Value::Int(5)),
            ])
        );
        // With T2 first, state(T2) = DS1^d, and state(T1) = same (T2
        // writes nothing inside d).
        assert_eq!(st_21[1], st_21[0]);
    }

    #[test]
    fn base_case_is_initial_restriction() {
        let (s, ds1) = example1();
        let d = ItemSet::from_iter([ItemId(3)]);
        let st = transaction_states(&s, &d, &[TxnId(2), TxnId(1)], &ds1);
        assert_eq!(st[0], ds1.restrict(&d));
    }

    #[test]
    fn reads_contained_in_states_on_example1() {
        let (s, ds1) = example1();
        let d = ItemSet::from_iter([ItemId(0), ItemId(1), ItemId(2), ItemId(3)]);
        // Both serialization orders satisfy read ⊆ state here.
        assert!(reads_contained_in_states(
            &s,
            &d,
            &[TxnId(1), TxnId(2)],
            &ds1
        ));
        assert!(reads_contained_in_states(
            &s,
            &d,
            &[TxnId(2), TxnId(1)],
            &ds1
        ));
    }

    #[test]
    fn final_state_matches_schedule_application() {
        // Paper's remark: [state(T_n, d, S, DS1)] T_n^d [DS2^d].
        let (s, ds1) = example1();
        let ds2 = s.apply(&ds1);
        for d in [
            ItemSet::from_iter([ItemId(0), ItemId(1)]),
            ItemSet::from_iter([ItemId(2), ItemId(3)]),
            ItemSet::from_iter([ItemId(0), ItemId(1), ItemId(2), ItemId(3)]),
        ] {
            let f = final_state_on(&s, &d, &[TxnId(1), TxnId(2)], &ds1);
            assert_eq!(f, ds2.restrict(&d), "mismatch on {d:?}");
            let f = final_state_on(&s, &d, &[TxnId(2), TxnId(1)], &ds1);
            assert_eq!(f, ds2.restrict(&d), "mismatch on {d:?} (order 2)");
        }
    }

    #[test]
    fn empty_order_yields_initial() {
        let (s, ds1) = example1();
        let d = ItemSet::from_iter([ItemId(0)]);
        assert!(transaction_states(&s, &d, &[], &ds1).is_empty());
        assert_eq!(final_state_on(&s, &d, &[], &ds1), ds1.restrict(&d));
    }

    #[test]
    fn writes_flow_through_the_chain() {
        // T1 writes a=1; T2 writes a=2; T3 sees 2.
        let s = Schedule::new(vec![wr(1, 0, 1), wr(2, 0, 2), rd(3, 0, 2)]).unwrap();
        let initial = DbState::from_pairs([(ItemId(0), Value::Int(0))]);
        let d = ItemSet::from_iter([ItemId(0)]);
        let st = transaction_states(&s, &d, &[TxnId(1), TxnId(2), TxnId(3)], &initial);
        assert_eq!(st[0].get(ItemId(0)), Some(&Value::Int(0)));
        assert_eq!(st[1].get(ItemId(0)), Some(&Value::Int(1)));
        assert_eq!(st[2].get(ItemId(0)), Some(&Value::Int(2)));
    }
}
