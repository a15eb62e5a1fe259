//! Property-based tests for the paper's proof artifacts: view sets
//! (Lemmas 2 and 6) and transaction states (Definition 4).

mod common;

use common::{arb_transactions, interleave_random};
use proptest::prelude::*;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::all_serialization_orders;
use pwsr_core::state::{DbState, ItemSet};
use pwsr_core::txstate::{final_state_on, transaction_states};
use pwsr_core::value::Value;
use pwsr_core::viewset::{lemma2_inclusion_holds, lemma6_inclusion_holds};

fn full_state(max_items: u32) -> DbState {
    DbState::from_pairs((0..max_items).map(|i| (ItemId(i), Value::Int(-(i as i64)))))
}

proptest! {
    /// Lemma 2's inclusion holds at every operation, for every
    /// serialization order of every serializable projection.
    #[test]
    fn lemma2_inclusion_universal(
        txns in arb_transactions(3, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
        d_bits in 0u32..16,
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        let d: ItemSet = (0..4).filter(|i| d_bits & (1 << i) != 0).map(ItemId).collect();
        let proj = s.project(&d);
        if let Some(orders) = all_serialization_orders(&proj, 6) {
            for order in orders {
                for p in s.positions() {
                    prop_assert!(
                        lemma2_inclusion_holds(&s, &d, &order, p),
                        "order {order:?}, p {p:?}, S = {s}"
                    );
                }
            }
        }
    }

    /// Lemma 6's inclusion holds on DR schedules.
    #[test]
    fn lemma6_inclusion_on_dr(
        txns in arb_transactions(3, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
        d_bits in 0u32..16,
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        if !pwsr_core::dr::is_delayed_read(&s) {
            return Ok(());
        }
        let d: ItemSet = (0..4).filter(|i| d_bits & (1 << i) != 0).map(ItemId).collect();
        let proj = s.project(&d);
        if let Some(orders) = all_serialization_orders(&proj, 6) {
            for order in orders {
                for p in s.positions() {
                    prop_assert!(
                        lemma6_inclusion_holds(&s, &d, &order, p),
                        "order {order:?}, p {p:?}, S = {s}"
                    );
                }
            }
        }
    }

    /// Definition 4 closure: executing the last transaction's
    /// projection from its state gives `DS2^d`, for *every*
    /// serialization order.
    #[test]
    fn def4_final_state_matches_apply(
        txns in arb_transactions(3, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
        d_bits in 0u32..16,
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        let d: ItemSet = (0..4).filter(|i| d_bits & (1 << i) != 0).map(ItemId).collect();
        let initial = full_state(4);
        let ds2 = s.apply(&initial);
        let proj = s.project(&d);
        if let Some(orders) = all_serialization_orders(&proj, 6) {
            for order in orders {
                // Orders over the projection's transactions only.
                let f = final_state_on(&s, &d, &order, &initial);
                prop_assert_eq!(
                    &f,
                    &ds2.restrict(&d),
                    "order {:?}, S = {}", order, s
                );
            }
        }
    }

    /// Definition 4 monotonicity: every state in the chain assigns
    /// exactly the items of `d` present initially (states never lose
    /// or invent items).
    #[test]
    fn def4_states_preserve_item_scope(
        txns in arb_transactions(3, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        d_bits in 0u32..16,
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        let d: ItemSet = (0..4).filter(|i| d_bits & (1 << i) != 0).map(ItemId).collect();
        let initial = full_state(4);
        let order: Vec<TxnId> = s.txn_ids().to_vec();
        let states = transaction_states(&s, &d, &order, &initial);
        for st in states {
            prop_assert_eq!(st.items(), initial.restrict(&d).items());
        }
    }

    /// View sets only shrink (Lemma 2) along the serialization order.
    #[test]
    fn lemma2_view_sets_shrink(
        txns in arb_transactions(3, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        d_bits in 0u32..16,
    ) {
        use pwsr_core::viewset::view_sets_general;
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        let d: ItemSet = (0..4).filter(|i| d_bits & (1 << i) != 0).map(ItemId).collect();
        let proj = s.project(&d);
        if let Some(order) = pwsr_core::serializability::serialization_order(&proj) {
            for p in s.positions() {
                let vs = view_sets_general(&s, &d, &order, p);
                for w in vs.windows(2) {
                    prop_assert!(w[1].is_subset(&w[0]));
                }
                // And all are subsets of d.
                for v in &vs {
                    prop_assert!(v.is_subset(&d));
                }
            }
        }
    }
}
