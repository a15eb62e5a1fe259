//! An **order verifier** that shares no code with the certifier: is a
//! claimed commit order a serialization order of the projection `S^d`
//! (Definition 2)?
//!
//! The check is the conflict form of Biswas and Enea's commit-order
//! axiom: the order must list each transaction of `S^d` once and put
//! the earlier of every two conflicting operations on an item of `d`
//! first. It runs pair by pair over the schedule, the way dbcop checks
//! a `CommitOrder` witness — no conflict graph, no topological order,
//! no state between calls — so it can hold either monitor driver to
//! its own `conjunct_order(k)` or `serialization_order()` without
//! sharing a flaw with them. An order may also list transactions with
//! no operation in the projection: a swept monitor keeps the nodes
//! that retained undo frames name. The delayed-read rung
//! (Definition 5) is a property of the schedule, not of an order:
//! [`crate::dr::is_delayed_read`] decides it.

use crate::ids::{ItemId, OpIndex, TxnId};
use crate::schedule::Schedule;
use crate::state::ItemSet;
use std::collections::HashMap;

/// Why an order was refused. Positions are absolute schedule
/// positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// `Missing(t, p)`: `t` has an operation in the projection, the
    /// first at `p`, but no place in the order.
    Missing(TxnId, OpIndex),
    /// `Repeated(t, i)`: `t` has a second place in the order, index `i`.
    Repeated(TxnId, usize),
    /// `Inverted(x, t1, t2, p)`: the operation of `t2` at `p` conflicts
    /// on item `x` with an earlier one of `t1`, but the order puts `t2`
    /// first.
    Inverted(ItemId, TxnId, TxnId, OpIndex),
}

/// Is `order` a serialization order of the projection of `schedule` on
/// `scope` (every item when `None`)? Otherwise the first refusal met,
/// in schedule order.
pub fn verify(s: &Schedule, scope: Option<&ItemSet>, order: &[TxnId]) -> Result<(), Refusal> {
    let mut rank = HashMap::with_capacity(order.len());
    for (i, &t) in order.iter().enumerate() {
        if rank.insert(t, i).is_some() {
            return Err(Refusal::Repeated(t, i));
        }
    }
    // Per item: every earlier access, as (transaction, is a write).
    let mut earlier: HashMap<ItemId, Vec<(TxnId, bool)>> = HashMap::new();
    for (p, op) in s.positions().zip(s.ops()) {
        if scope.is_some_and(|d| !d.contains(op.item)) {
            continue;
        }
        let Some(&mine) = rank.get(&op.txn) else {
            return Err(Refusal::Missing(op.txn, p));
        };
        let accesses = earlier.entry(op.item).or_default();
        for &(first, wrote) in accesses.iter() {
            if first != op.txn && (wrote || op.is_write()) && rank[&first] > mine {
                return Err(Refusal::Inverted(op.item, first, op.txn, p));
            }
        }
        accesses.push((op.txn, op.is_write()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Operation;
    use crate::serializability::serialization_order_proj;
    use crate::value::Value;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The first sequence of `n` of the `n` transactions of `s`, in
    /// lexicographic order, that [`verify`] accepts on `scope`, or
    /// `None`: every permutation is among them, and a sequence that
    /// lists a transaction twice is refused.
    fn find_order(s: &Schedule, scope: Option<&ItemSet>) -> Option<Vec<TxnId>> {
        let (ids, n) = (s.txn_ids(), s.txn_ids().len());
        let digit = |k: usize, i: usize| ids[k / n.pow((n - 1 - i) as u32) % n];
        let sequence = |k: usize| (0..n).map(|i| digit(k, i)).collect::<Vec<_>>();
        (0..n.pow(n as u32))
            .map(sequence)
            .find(|order| verify(s, scope, order).is_ok())
    }

    /// `(t, i, true)` is `w_t(i)`, `(t, i, false)` is `r_t(i)`.
    fn schedule(ops: &[(u32, u32, bool)]) -> Schedule {
        let op = |&(t, i, w): &(u32, u32, bool)| {
            let new = if w { Operation::write } else { Operation::read };
            new(TxnId(t), ItemId(i), Value::Int(0))
        };
        Schedule::new(ops.iter().map(op).collect()).expect("§2.2")
    }

    fn txns(ids: &[u32]) -> Vec<TxnId> {
        ids.iter().map(|&t| TxnId(t)).collect()
    }

    fn items(ids: &[u32]) -> ItemSet {
        ids.iter().map(|&i| ItemId(i)).collect()
    }

    proptest! {
        /// The batch decider's order of every projection is accepted,
        /// and some permutation is accepted exactly when it has one.
        #[test]
        fn accepts_the_batch_order_on_random_schedules(
            draws in proptest::collection::vec((1u32..=4, 0u32..4, any::<bool>()), 0..16),
            bits in 0u32..16,
        ) {
            // Keep what §2.2 allows: each item read and written at most
            // once per transaction, and never read after its write.
            let mut done = HashSet::new();
            let kept: Vec<_> = (draws.into_iter())
                .filter(|&(t, i, w)| !done.contains(&(t, i, true)) && done.insert((t, i, w)))
                .collect();
            let s = schedule(&kept);
            let d: ItemSet = (0..4).filter(|i| bits & 1 << i != 0).map(ItemId).collect();
            let everything = items(&[0, 1, 2, 3]);
            for scope in [Some(&d), None] {
                let order = serialization_order_proj(&s, scope.unwrap_or(&everything));
                if let Some(order) = &order {
                    prop_assert_eq!(verify(&s, scope, order), Ok(()));
                }
                prop_assert_eq!(find_order(&s, scope).is_some(), order.is_some());
            }
        }
    }

    /// `r1(x) w2(x) w3(y)` under orders that leave out, repeat and
    /// invert; a transaction outside the projection may be listed.
    #[test]
    fn refuses_a_missing_a_repeated_and_an_inverted_transaction() {
        let s = schedule(&[(1, 0, false), (2, 0, true), (3, 1, true)]);
        let (x, (t1, t2, t3)) = (Some(&items(&[0])), (TxnId(1), TxnId(2), TxnId(3)));
        assert_eq!(verify(&s, x, &txns(&[1, 2])), Ok(()));
        assert_eq!(verify(&s, x, &txns(&[3, 1, 2, 4])), Ok(()));
        let missing = Refusal::Missing(t2, OpIndex(1));
        assert_eq!(verify(&s, x, &txns(&[1])), Err(missing));
        let missing = Refusal::Missing(t3, OpIndex(2));
        assert_eq!(verify(&s, None, &txns(&[1, 2])), Err(missing));
        let repeated = Refusal::Repeated(t1, 2);
        assert_eq!(verify(&s, x, &txns(&[1, 2, 1])), Err(repeated));
        let inverted = Refusal::Inverted(ItemId(0), t1, t2, OpIndex(1));
        assert_eq!(verify(&s, x, &txns(&[2, 1])), Err(inverted));
    }

    /// A planted cycle `T1 → T2 → T3 → T1` on items 0, 1 and 2: every
    /// permutation is refused on a scope that holds the three items,
    /// and one is accepted once an item of the cycle is left out.
    #[test]
    fn refuses_every_permutation_on_a_planted_cyclic_projection() {
        // T1 → T2 on item 0, T2 → T3 on 1, T3 → T1 on 2; T4 writes 3.
        let cycle = [(1, 0, true), (2, 0, false), (2, 1, true), (3, 1, false)];
        let s = schedule(&[&cycle[..], &[(3, 2, true), (1, 2, false), (4, 3, true)]].concat());
        let cyclic = items(&[0, 1, 2]);
        for order in ["1234", "1324", "2134", "2314", "3124", "3214"] {
            let order: Vec<_> = order.bytes().map(|b| TxnId((b - b'0') as u32)).collect();
            let refusal = verify(&s, Some(&cyclic), &order);
            assert!(matches!(refusal, Err(Refusal::Inverted(..))), "{order:?}");
        }
        assert_eq!(find_order(&s, Some(&cyclic)), None);
        assert_eq!(find_order(&s, None), None);
        let acyclic = find_order(&s, Some(&items(&[0, 1])));
        assert_eq!(acyclic, Some(txns(&[1, 2, 3, 4])));
    }
}
