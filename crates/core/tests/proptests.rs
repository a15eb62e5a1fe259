//! Property-based tests for the core model's algebraic invariants.

mod common;

use common::{arb_transactions, interleave_random};
use proptest::prelude::*;
use pwsr_core::ids::ItemId;
use pwsr_core::op::{self, Operation};
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::{is_conflict_serializable, serialization_order};
use pwsr_core::state::{DbState, ItemSet};
use pwsr_core::value::Value;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn arb_state(max_items: u32) -> impl Strategy<Value = DbState> {
    proptest::collection::btree_map(0..max_items, -50i64..50, 0..max_items as usize)
        .prop_map(|m| DbState::from_pairs(m.into_iter().map(|(i, v)| (ItemId(i), Value::Int(v)))))
}

fn arb_itemset(max_items: u32) -> impl Strategy<Value = ItemSet> {
    proptest::collection::btree_set(0..max_items, 0..max_items as usize)
        .prop_map(|s| s.into_iter().map(ItemId).collect())
}

proptest! {
    // -----------------------------------------------------------------
    // DbState algebra
    // -----------------------------------------------------------------

    #[test]
    fn restriction_is_idempotent(ds in arb_state(8), d in arb_itemset(8)) {
        let once = ds.restrict(&d);
        prop_assert_eq!(once.restrict(&d), once);
    }

    #[test]
    fn restriction_distributes_over_intersection(
        ds in arb_state(8),
        d1 in arb_itemset(8),
        d2 in arb_itemset(8),
    ) {
        prop_assert_eq!(
            ds.restrict(&d1).restrict(&d2),
            ds.restrict(&d1.intersection(&d2))
        );
    }

    #[test]
    fn union_with_self_is_identity(ds in arb_state(8)) {
        prop_assert_eq!(ds.union(&ds).unwrap(), ds);
    }

    #[test]
    fn union_is_commutative_when_defined(l in arb_state(6), r in arb_state(6)) {
        match (l.union(&r), r.union(&l)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "asymmetric union: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn union_defined_iff_compatible(l in arb_state(6), r in arb_state(6)) {
        prop_assert_eq!(l.union(&r).is_ok(), l.compatible(&r));
    }

    #[test]
    fn restrict_then_union_recovers_under_partition(
        ds in arb_state(8),
        d in arb_itemset(8),
    ) {
        // DS = DS^d ⊔ DS^{D−d}.
        let left = ds.restrict(&d);
        let right = ds.without(&d);
        prop_assert_eq!(left.union(&right).unwrap(), ds);
    }

    #[test]
    fn updated_with_agrees_with_union_on_disjoint(
        ds in arb_state(6),
        upd in arb_state(6),
    ) {
        if ds.items().is_disjoint(&upd.items()) {
            prop_assert_eq!(ds.updated_with(&upd), ds.union(&upd).unwrap());
        }
    }

    // -----------------------------------------------------------------
    // Operation-sequence combinators
    // -----------------------------------------------------------------

    #[test]
    fn projection_splits_rs_ws(txns in arb_transactions(1, 6), d in arb_itemset(6)) {
        let t = &txns[0];
        let proj = t.project(&d);
        // RS(T^d) = RS(T) ∩ d, WS(T^d) = WS(T) ∩ d.
        prop_assert_eq!(proj.read_set(), t.read_set().intersection(&d));
        prop_assert_eq!(proj.write_set(), t.write_set().intersection(&d));
    }

    #[test]
    fn read_write_states_cover_sets(txns in arb_transactions(1, 6)) {
        let t = &txns[0];
        prop_assert_eq!(t.read_state().items(), t.read_set());
        prop_assert_eq!(t.write_state().items(), t.write_set());
    }

    // -----------------------------------------------------------------
    // Schedules & serializability
    // -----------------------------------------------------------------

    #[test]
    fn serial_schedules_are_serializable(txns in arb_transactions(3, 5)) {
        let s = Schedule::serial(&txns).unwrap();
        prop_assert!(is_conflict_serializable(&s));
        let order = serialization_order(&s).unwrap();
        prop_assert_eq!(order.len(), 3);
    }

    #[test]
    fn projection_preserves_serializability(
        txns in arb_transactions(3, 5),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
        d in arb_itemset(5),
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        if is_conflict_serializable(&s) {
            // Conflict edges only disappear under projection.
            prop_assert!(is_conflict_serializable(&s.project(&d)));
        }
    }

    #[test]
    fn apply_ignores_reads(
        txns in arb_transactions(2, 5),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
        initial in arb_state(5),
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        let writes_only: Vec<Operation> =
            s.ops().iter().filter(|o| o.is_write()).cloned().collect();
        let s2 = Schedule::new(writes_only).unwrap();
        prop_assert_eq!(s.apply(&initial), s2.apply(&initial));
    }

    #[test]
    fn final_state_extends_write_effects(
        txns in arb_transactions(2, 5),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
        initial in arb_state(5),
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        let out = s.apply(&initial);
        // Every item written somewhere ends with the last write's value.
        let effects = op::write_state(s.ops());
        prop_assert!(out.extends(&effects));
    }

    #[test]
    fn depth_is_position(
        txns in arb_transactions(2, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        for (i, p) in s.positions().enumerate() {
            prop_assert_eq!(s.depth(p), i);
        }
    }

    #[test]
    fn before_after_partition_the_transaction(
        txns in arb_transactions(2, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        for p in s.positions() {
            for &t in s.txn_ids() {
                let before = s.before_txn(t, p);
                let after = s.after_txn(t, p);
                let mut joined = before.clone();
                joined.extend(after.iter().cloned());
                prop_assert_eq!(joined, s.transaction(t).ops().to_vec());
            }
        }
    }

    // -----------------------------------------------------------------
    // Reads-from & recovery classes
    // -----------------------------------------------------------------

    #[test]
    fn reads_from_points_to_latest_writer(
        txns in arb_transactions(3, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        for (reader, writer) in s.reads_from_pairs() {
            prop_assert!(writer < reader);
            let r = s.op(reader);
            let w = s.op(writer);
            prop_assert!(r.is_read() && w.is_write());
            prop_assert_eq!(r.item, w.item);
            // No intervening write to the same item.
            for k in writer.0 + 1..reader.0 {
                let o = &s.ops()[k];
                prop_assert!(!(o.is_write() && o.item == r.item));
            }
        }
    }

    #[test]
    fn serial_schedules_are_strict(txns in arb_transactions(3, 4)) {
        let s = Schedule::serial(&txns).unwrap();
        prop_assert_eq!(
            pwsr_core::dr::classify_recovery(&s),
            pwsr_core::dr::RecoveryClass::Strict
        );
    }

    #[test]
    fn recovery_hierarchy(
        txns in arb_transactions(3, 4),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use pwsr_core::dr::{is_aca, is_delayed_read, is_strict};
        let s = Schedule::new(interleave_random(&txns, &mix)).unwrap();
        // strict ⇒ ACA ⇒ DR.
        if is_strict(&s) {
            prop_assert!(is_aca(&s));
        }
        if is_aca(&s) {
            prop_assert!(is_delayed_read(&s));
        }
    }
}
