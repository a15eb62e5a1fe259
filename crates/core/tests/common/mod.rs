//! Generators shared by the core property suites (`proptests`,
//! `bitset_props`, `lemma_props`, `monitor_props`, `sharded_props`,
//! `batch_props`, `retract_props`): random well-formed transactions,
//! random interleavings of them, and two-scope carvings of the item
//! universe.

// Each suite is its own crate and uses a subset of these.
#![allow(dead_code)]

use proptest::prelude::*;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::op::Operation;
use pwsr_core::state::ItemSet;
use pwsr_core::txn::Transaction;
use pwsr_core::value::Value;

pub const MAX_ITEMS: u32 = 6;

/// Random well-formed transactions over items `0..max_items`: per item
/// at most one read then one write, so every suffix of a transaction
/// is §2.2-valid even after a truncation removed its prefix.
pub fn arb_transactions(n_txns: u32, max_items: u32) -> impl Strategy<Value = Vec<Transaction>> {
    let per_txn = proptest::collection::btree_map(
        0..max_items,
        (any::<bool>(), any::<bool>(), -20i64..20),
        1..=max_items as usize,
    );
    proptest::collection::vec(per_txn, n_txns as usize).prop_map(move |txn_specs| {
        txn_specs
            .into_iter()
            .enumerate()
            .map(|(k, spec)| {
                let txn = TxnId(k as u32 + 1);
                let mut ops = Vec::new();
                for (item, (do_read, do_write, v)) in spec {
                    if do_read {
                        ops.push(Operation::read(txn, ItemId(item), Value::Int(v)));
                    }
                    if do_write || !do_read {
                        ops.push(Operation::write(txn, ItemId(item), Value::Int(v + 1)));
                    }
                }
                Transaction::new(txn, ops).expect("respects §2.2")
            })
            .collect()
    })
}

/// Interleave complete transactions by a byte stream of picks.
pub fn interleave_random(txns: &[Transaction], mix: &[u8]) -> Vec<Operation> {
    let mut cursors: Vec<usize> = vec![0; txns.len()];
    let mut ops = Vec::new();
    let total: usize = txns.iter().map(Transaction::len).sum();
    let mut mi = 0;
    while ops.len() < total {
        let pick = (mix.get(mi).copied().unwrap_or(0) as usize) % txns.len();
        mi += 1;
        for off in 0..txns.len() {
            let k = (pick + off) % txns.len();
            if cursors[k] < txns[k].len() {
                ops.push(txns[k].ops()[cursors[k]].clone());
                cursors[k] += 1;
                break;
            }
        }
    }
    ops
}

/// Does `order` put the earlier transaction of every conflicting pair
/// of `ops` on an item of `scope` first? A transaction the order leaves
/// out fails the check.
pub fn order_respects_conflicts(ops: &[Operation], scope: &ItemSet, order: &[TxnId]) -> bool {
    let pos = |t: TxnId| order.iter().position(|&x| x == t);
    ops.iter().enumerate().all(|(i, a)| {
        ops[i + 1..].iter().all(|b| {
            let conflict = a.txn != b.txn
                && a.item == b.item
                && scope.contains(a.item)
                && (a.is_write() || b.is_write());
            !conflict || matches!((pos(a.txn), pos(b.txn)), (Some(x), Some(y)) if x < y)
        })
    })
}

/// Two scopes carved out of the item universe by a bitmask (items
/// whose bit is unset fall outside every scope).
pub fn scopes_from_bits(d1_bits: u32, d2_bits: u32) -> Vec<ItemSet> {
    let d1: ItemSet = (0..MAX_ITEMS)
        .filter(|i| d1_bits & (1 << i) != 0)
        .map(ItemId)
        .collect();
    let d2: ItemSet = (0..MAX_ITEMS)
        .filter(|i| d2_bits & (1 << i) != 0 && d1_bits & (1 << i) == 0)
        .map(ItemId)
        .collect();
    vec![d1, d2]
}
