//! Setwise serializability over atomic data sets — Sha et al. \[14\].
//!
//! *"The database is partitioned into atomic data sets the consistency
//! of every one of which implies the consistency of the entire
//! database. A setwise serializable schedule is one whose restriction
//! to each atomic data set is serializable."* (paper §1)
//!
//! When the atomic data sets are the conjunct scopes of a disjoint
//! `IC = C_1 ∧ … ∧ C_l`, setwise serializability and PWSR coincide —
//! [`coincides_with_pwsr`] verifies this on any schedule. \[14\] claims
//! that setwise serializable schedules of **straight-line**
//! transactions preserve consistency; the paper's §3.1 critique is that
//! \[14\]'s per-data-set induction cannot carry the proof (a transaction
//! first in one set's serialization order need not be first in
//! another's). `per_set_serialization_positions` computes exactly the
//! object that breaks that induction; the `induction_gap` test pins the
//! phenomenon on the paper's Example 2.

use pwsr_core::constraint::IntegrityConstraint;
use pwsr_core::error::{CoreError, Result};
use pwsr_core::ids::TxnId;
use pwsr_core::pwsr::is_pwsr;
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::serialization_order_proj;
use pwsr_core::state::ItemSet;
use std::collections::HashMap;

/// A partition of (part of) the database into atomic data sets.
#[derive(Clone, Debug)]
pub struct AtomicDataSets {
    sets: Vec<ItemSet>,
}

impl AtomicDataSets {
    /// Build from disjoint item sets; errors on overlap.
    pub(crate) fn new(sets: Vec<ItemSet>) -> Result<AtomicDataSets> {
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                if let Some(item) = sets[i].common_item(&sets[j]) {
                    return Err(CoreError::OverlappingConjuncts { item });
                }
            }
        }
        Ok(AtomicDataSets { sets })
    }

    /// The atomic data sets induced by a (disjoint) constraint: one per
    /// conjunct, as the paper observes when relating PWSR to \[14\].
    pub fn from_constraint(ic: &IntegrityConstraint) -> Result<AtomicDataSets> {
        AtomicDataSets::new(ic.scopes())
    }
}

#[cfg(test)]
impl AtomicDataSets {
    /// Number of atomic data sets.
    pub(crate) fn len(&self) -> usize {
        self.sets.len()
    }

    /// Is the partition empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// Is `schedule` setwise serializable: every restriction `S^{d}` to an
/// atomic data set conflict-serializable?
pub fn is_setwise_serializable(schedule: &Schedule, ads: &AtomicDataSets) -> bool {
    ads.sets
        .iter()
        .all(|d| serialization_order_proj(schedule, d).is_some())
}

/// On conjunct-aligned atomic data sets, setwise serializability and
/// PWSR agree; returns the two verdicts for cross-checking.
pub fn coincides_with_pwsr(schedule: &Schedule, ic: &IntegrityConstraint) -> (bool, bool) {
    let ads = AtomicDataSets::from_constraint(ic)
        .expect("disjoint constraint yields disjoint atomic data sets");
    (
        is_setwise_serializable(schedule, &ads),
        is_pwsr(schedule, ic).ok(),
    )
}

/// For each atomic data set, the serialization position of every
/// transaction in `S^d` (position in one chosen serialization order).
///
/// \[14\]'s induction needs each transaction to occupy compatible
/// positions across the sets it touches; Example 2 gives `T1` position
/// 0 on `d1` but 1 on `d2` — the divergence the paper's §3.1 critique
/// turns on.
#[cfg(test)]
pub(crate) fn per_set_serialization_positions(
    schedule: &Schedule,
    ads: &AtomicDataSets,
) -> Option<Vec<HashMap<TxnId, usize>>> {
    let mut out = Vec::with_capacity(ads.len());
    for d in &ads.sets {
        let order = serialization_order_proj(schedule, d)?;
        out.push(order.into_iter().enumerate().map(|(i, t)| (t, i)).collect());
    }
    Some(out)
}

/// Do the per-set serialization orders *agree* (some global order is
/// compatible with every per-set order)? When they do, the schedule is
/// in fact fully serializable on the union of the sets; when they
/// don't, \[14\]'s induction has no base to stand on.
pub fn per_set_orders_compatible(schedule: &Schedule, ads: &AtomicDataSets) -> Option<bool> {
    // Build a precedence relation: t must come before u if it does in
    // any per-set order; compatible iff this union relation is acyclic.
    let txns: Vec<TxnId> = schedule.txn_ids().to_vec();
    let index: HashMap<TxnId, usize> = txns.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let mut g = pwsr_core::graph::DiGraph::new(txns.len());
    for d in &ads.sets {
        let order = serialization_order_proj(schedule, d)?;
        for w in order.windows(2) {
            g.add_edge(index[&w[0]], index[&w[1]]);
        }
    }
    Some(!g.has_cycle())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::ids::ItemId;
    use pwsr_core::op::Operation;
    use pwsr_core::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn example2_schedule() -> Schedule {
        Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ])
        .unwrap()
    }

    fn example2_ads() -> AtomicDataSets {
        AtomicDataSets::new(vec![
            ItemSet::from_iter([ItemId(0), ItemId(1)]),
            ItemSet::from_iter([ItemId(2)]),
        ])
        .unwrap()
    }

    #[test]
    fn overlap_rejected() {
        let err = AtomicDataSets::new(vec![
            ItemSet::from_iter([ItemId(0), ItemId(1)]),
            ItemSet::from_iter([ItemId(1)]),
        ])
        .unwrap_err();
        assert!(matches!(err, CoreError::OverlappingConjuncts { .. }));
    }

    #[test]
    fn example2_is_setwise_serializable() {
        let s = example2_schedule();
        let ads = example2_ads();
        assert!(is_setwise_serializable(&s, &ads));
    }

    #[test]
    fn setwise_equals_pwsr_on_conjunct_sets() {
        use pwsr_core::constraint::{Conjunct, Formula, Term};
        let ic = IntegrityConstraint::new(vec![
            Conjunct::new(
                0,
                Formula::implies(
                    Formula::gt(Term::var(ItemId(0)), Term::int(0)),
                    Formula::gt(Term::var(ItemId(1)), Term::int(0)),
                ),
            ),
            Conjunct::new(1, Formula::gt(Term::var(ItemId(2)), Term::int(0))),
        ])
        .unwrap();
        // Equal verdicts on both a PWSR and a non-PWSR schedule.
        let (sw, pw) = coincides_with_pwsr(&example2_schedule(), &ic);
        assert_eq!(sw, pw);
        assert!(sw);
        let bad = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)]).unwrap();
        let (sw, pw) = coincides_with_pwsr(&bad, &ic);
        assert_eq!(sw, pw);
        assert!(!sw);
    }

    #[test]
    fn induction_gap_on_example2() {
        // The §3.1 critique, executable: T1 is first on d1 but second
        // on d2, so no induction over a single serialization order per
        // set can cover both of T1's reads.
        let s = example2_schedule();
        let ads = example2_ads();
        let pos = per_set_serialization_positions(&s, &ads).unwrap();
        let t1_on_d1 = pos[0][&TxnId(1)];
        let t1_on_d2 = pos[1][&TxnId(1)];
        assert_eq!(t1_on_d1, 0);
        assert_eq!(t1_on_d2, 1);
        // And the per-set orders are jointly incompatible.
        assert_eq!(per_set_orders_compatible(&s, &ads), Some(false));
    }

    #[test]
    fn compatible_orders_on_serial_schedule() {
        let s = Schedule::new(vec![wr(1, 0, 1), wr(1, 2, 1), rd(2, 0, 1), rd(2, 2, 1)]).unwrap();
        let ads = example2_ads();
        assert_eq!(per_set_orders_compatible(&s, &ads), Some(true));
    }

    #[test]
    fn non_serializable_projection_returns_none() {
        let ads = AtomicDataSets::new(vec![ItemSet::from_iter([ItemId(0), ItemId(1)])]).unwrap();
        let bad = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)]).unwrap();
        assert!(per_set_serialization_positions(&bad, &ads).is_none());
        assert!(!is_setwise_serializable(&bad, &ads));
    }

    #[test]
    fn empty_partition_is_trivially_setwise() {
        let ads = AtomicDataSets::new(vec![]).unwrap();
        assert!(ads.is_empty());
        assert!(is_setwise_serializable(&example2_schedule(), &ads));
    }
}
