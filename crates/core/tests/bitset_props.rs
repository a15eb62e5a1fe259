//! Property tests for the dense-bitset [`ItemSet`] (against a
//! `BTreeSet` reference model) and for the scan-based Lemma 2/6
//! checkers — the only per-position view-set implementation — against
//! the naive projection-based recomputation the paper's recurrences
//! read as.

mod common;

use common::{arb_transactions, interleave_random};
use proptest::prelude::*;
use pwsr_core::ids::{ItemId, OpIndex, TxnId};
use pwsr_core::op;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::ItemSet;
use pwsr_core::viewset::{
    lemma2_inclusion_holds, lemma6_inclusion_holds, view_sets_dr, view_sets_general,
};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// ItemSet vs BTreeSet model
// ---------------------------------------------------------------------

/// A scripted mutation against both representations.
#[derive(Clone, Debug)]
enum SetOp {
    Insert(u32),
    Remove(u32),
    Union(Vec<u32>),
    Difference(Vec<u32>),
    Intersection(Vec<u32>),
}

fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    // Mix of ids below and above the 64-bit inline boundary so the
    // spill path is exercised.
    proptest::collection::vec(prop_oneof![0u32..40, 50u32..200], 0..8)
}

fn arb_set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        (0u32..200).prop_map(SetOp::Insert),
        (0u32..200).prop_map(SetOp::Remove),
        arb_ids().prop_map(SetOp::Union),
        arb_ids().prop_map(SetOp::Difference),
        arb_ids().prop_map(SetOp::Intersection),
    ]
}

fn model_set(ids: &[u32]) -> BTreeSet<u32> {
    ids.iter().copied().collect()
}

fn item_set(ids: &[u32]) -> ItemSet {
    ItemSet::from_iter(ids.iter().map(|&i| ItemId(i)))
}

proptest! {
    /// Every scripted operation leaves the bitset agreeing with the
    /// BTreeSet model: membership, length, ascending iteration order,
    /// and equality/canonical form.
    #[test]
    fn itemset_matches_btreeset_model(script in proptest::collection::vec(arb_set_op(), 0..24)) {
        let mut model: BTreeSet<u32> = BTreeSet::new();
        let mut set = ItemSet::new();
        for step in script {
            match step {
                SetOp::Insert(i) => {
                    prop_assert_eq!(set.insert(ItemId(i)), model.insert(i));
                }
                SetOp::Remove(i) => {
                    prop_assert_eq!(set.remove(ItemId(i)), model.remove(&i));
                }
                SetOp::Union(ids) => {
                    set = set.union(&item_set(&ids));
                    model = model.union(&model_set(&ids)).copied().collect();
                }
                SetOp::Difference(ids) => {
                    set = set.difference(&item_set(&ids));
                    model = model.difference(&model_set(&ids)).copied().collect();
                }
                SetOp::Intersection(ids) => {
                    set = set.intersection(&item_set(&ids));
                    model = model.intersection(&model_set(&ids)).copied().collect();
                }
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            // Iteration in ascending id order, exactly the model's.
            let got: Vec<u32> = set.iter().map(|i| i.0).collect();
            let want: Vec<u32> = model.iter().copied().collect();
            prop_assert_eq!(got, want);
            // Canonical form: rebuilding from the elements compares equal.
            let rebuilt = ItemSet::from_iter(model.iter().map(|&i| ItemId(i)));
            prop_assert_eq!(&set, &rebuilt);
        }
    }

    /// The relational queries agree with the model on arbitrary pairs.
    #[test]
    fn itemset_relations_match_model(a in arb_ids(), b in arb_ids()) {
        let (sa, sb) = (item_set(&a), item_set(&b));
        let (ma, mb) = (model_set(&a), model_set(&b));
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb));
        prop_assert_eq!(
            sa.common_item(&sb).is_some(),
            !ma.is_disjoint(&mb)
        );
        for &i in &a {
            prop_assert!(sa.contains(ItemId(i)));
        }
    }
}

// ---------------------------------------------------------------------
// Lemma checkers vs naive projection-based recomputation
// ---------------------------------------------------------------------
/// Lemma 2's view sets computed exactly as the recurrence reads —
/// `Vec<Operation>` projections and all. The reference the scan-based
/// checkers must match.
fn naive_view_sets_general(s: &Schedule, d: &ItemSet, order: &[TxnId], p: OpIndex) -> Vec<ItemSet> {
    let mut out = Vec::new();
    let mut current = d.clone();
    for (i, _) in order.iter().enumerate() {
        if i > 0 {
            let written_after = op::write_set(&s.after_txn_proj(order[i - 1], d, p));
            current = current.difference(&written_after);
        }
        out.push(current.clone());
    }
    out
}

/// Lemma 6's view sets, same style.
fn naive_view_sets_dr(s: &Schedule, d: &ItemSet, order: &[TxnId], p: OpIndex) -> Vec<ItemSet> {
    let mut out = Vec::new();
    let mut current = d.clone();
    for (i, _) in order.iter().enumerate() {
        if i > 0 {
            let prev = order[i - 1];
            let ws_prev = op::write_set(&s.before_txn_proj(prev, d, p))
                .union(&op::write_set(&s.after_txn_proj(prev, d, p)));
            if s.txn_finished_by(prev, p) {
                current = current.union(&ws_prev);
            } else {
                current = current.difference(&ws_prev);
            }
        }
        out.push(current.clone());
    }
    out
}

fn naive_inclusion(s: &Schedule, d: &ItemSet, order: &[TxnId], p: OpIndex, dr: bool) -> bool {
    let vs = if dr {
        naive_view_sets_dr(s, d, order, p)
    } else {
        naive_view_sets_general(s, d, order, p)
    };
    order
        .iter()
        .zip(&vs)
        .all(|(&t, v)| op::read_set(&s.before_txn_proj(t, d, p)).is_subset(v))
}

proptest! {
    /// The scan-based free functions and the naive recomputation agree
    /// on random schedules, data sets, orders (any permutation — the
    /// computation is defined for arbitrary orders) and positions.
    #[test]
    fn view_set_checkers_match_naive_recomputation(
        txns in arb_transactions(3, 5),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        d_bits in 0u32..32,
        rot in 0usize..3,
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        let d: ItemSet = (0..5).filter(|i| d_bits & (1 << i) != 0).map(ItemId).collect();
        // An arbitrary transaction order (rotation of the schedule's).
        let mut order: Vec<TxnId> = s.txn_ids().to_vec();
        let shift = rot.min(order.len().saturating_sub(1));
        order.rotate_left(shift);
        for p in s.positions() {
            prop_assert_eq!(
                view_sets_general(&s, &d, &order, p),
                naive_view_sets_general(&s, &d, &order, p)
            );
            prop_assert_eq!(
                view_sets_dr(&s, &d, &order, p),
                naive_view_sets_dr(&s, &d, &order, p)
            );
            prop_assert_eq!(
                lemma2_inclusion_holds(&s, &d, &order, p),
                naive_inclusion(&s, &d, &order, p, false)
            );
            prop_assert_eq!(
                lemma6_inclusion_holds(&s, &d, &order, p),
                naive_inclusion(&s, &d, &order, p, true)
            );
        }
    }

    /// The incremental full sweep agrees with checking every position
    /// one by one (naively).
    #[test]
    fn incremental_sweep_matches_naive_sweep(
        txns in arb_transactions(3, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        d_bits in 0u32..16,
        dr in any::<bool>(),
    ) {
        use pwsr_core::viewset::inclusion_holds_everywhere;
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        let d: ItemSet = (0..4).filter(|i| d_bits & (1 << i) != 0).map(ItemId).collect();
        let order: Vec<TxnId> = s.txn_ids().to_vec();
        let naive = s.positions().all(|p| naive_inclusion(&s, &d, &order, p, dr));
        prop_assert_eq!(inclusion_holds_everywhere(&s, &d, &order, dr), naive);
    }

    /// The positional tables baked into `Schedule` agree with direct
    /// scans of the operation sequence.
    #[test]
    fn schedule_tables_match_scans(
        txns in arb_transactions(3, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        for &t in s.txn_ids() {
            let scan_last = s.ops().iter().rposition(|o| o.txn == t);
            prop_assert_eq!(s.last_op_of(t), scan_last.map(OpIndex));
            for p in s.positions() {
                let scan_finished = !s.ops()[p.0 + 1..].iter().any(|o| o.txn == t);
                prop_assert_eq!(s.txn_finished_by(t, p), scan_finished);
            }
        }
        for p in s.positions() {
            prop_assert_eq!(s.txn_ids()[s.slot_of_op(p)], s.op(p).txn);
        }
    }
}
