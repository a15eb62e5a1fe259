//! Generators and oracles shared by the core property suites
//! (`proptests`, `bitset_props`, `lemma_props`, `monitor_props`,
//! `sharded_props`, `batch_props`, `retract_props`) and by the
//! pipeline explorer (`monitor::sharded::explore`, which includes this
//! file): random well-formed transactions, random interleavings of
//! them or of runs cut from them, two-scope carvings of the item universe, lane-partitioned
//! workloads, a journal that keeps the full schedule, and the oracle
//! battery a sharded monitor's recorded schedule must pass.

// Each suite is its own crate and uses a subset of these.
#![allow(dead_code)]

use proptest::prelude::*;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::journal::MonitorJournal;
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::OnlineMonitor;
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::{is_conflict_serializable, is_conflict_serializable_proj};
use pwsr_core::state::ItemSet;
use pwsr_core::txn::Transaction;
use pwsr_core::value::Value;
use std::sync::Arc;

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
    interleaved_runs(txns, &[], mix).concat()
}

/// Split each transaction into contiguous program-order runs (batch
/// sizes 1..=4 drawn from `sizes`), then interleave the runs across
/// transactions by the `mix` byte stream — per-transaction run order
/// is preserved, which is exactly what the executors guarantee.
pub fn interleaved_runs(txns: &[Transaction], sizes: &[u8], mix: &[u8]) -> Vec<Vec<Operation>> {
    let mut si = 0usize;
    let mut queues: Vec<Vec<Vec<Operation>>> = txns
        .iter()
        .map(|t| {
            let mut runs = Vec::new();
            let mut rest = t.ops();
            while !rest.is_empty() {
                let k = (1 + (sizes.get(si).copied().unwrap_or(0) as usize) % 4).min(rest.len());
                si += 1;
                runs.push(rest[..k].to_vec());
                rest = &rest[k..];
            }
            runs.reverse(); // pop() yields program order
            runs
        })
        .collect();
    let total: usize = queues.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut mi = 0usize;
    while out.len() < total {
        let pick = (mix.get(mi).copied().unwrap_or(0) as usize) % queues.len();
        mi += 1;
        for off in 0..queues.len() {
            let k = (pick + off) % queues.len();
            if let Some(run) = queues[k].pop() {
                out.push(run);
                break;
            }
        }
    }
    out
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

/// A lane-partitioned workload: the items `0..MAX_ITEMS` dealt
/// round-robin into one to three disjoint scopes, and `n_txns`
/// transactions that each keep to the items of one scope, its lane.
/// In half the cases one of the first three transactions *spans*
/// instead: at a drawn point of its run it also reads or writes an
/// item of the next lane — or, with one scope, the item `MAX_ITEMS`,
/// outside every scope. So half the cases stay in a monitor's disjoint
/// phase throughout, and the other half leave it at that transaction.
pub fn arb_lanes(n_txns: u32) -> impl Strategy<Value = (Vec<ItemSet>, Vec<Transaction>)> {
    (
        1usize..=3,
        arb_transactions(n_txns, MAX_ITEMS),
        proptest::collection::vec(0usize..3, n_txns as usize),
        (any::<bool>(), 0usize..3, any::<bool>(), 0usize..8),
    )
        .prop_map(move |(n_scopes, txns, lanes, spanning)| {
            let (span, span_at, span_write, span_pos) = spanning;
            let lane_of = |item: ItemId| item.index() % n_scopes;
            let scopes = (0..n_scopes)
                .map(|k| {
                    (0..MAX_ITEMS)
                        .map(ItemId)
                        .filter(|&i| lane_of(i) == k)
                        .collect()
                })
                .collect();
            let txns = txns
                .into_iter()
                .zip(lanes)
                .enumerate()
                .map(|(j, (t, lane))| {
                    let (txn, lane) = (t.id(), lane % n_scopes);
                    let mut ops: Vec<Operation> = t
                        .ops()
                        .iter()
                        .filter(|o| lane_of(o.item) == lane)
                        .cloned()
                        .collect();
                    if ops.is_empty() {
                        ops.push(Operation::write(txn, ItemId(lane as u32), Value::Int(0)));
                    }
                    if span && j == span_at % n_txns as usize {
                        let other = match n_scopes {
                            1 => ItemId(MAX_ITEMS),
                            _ => ItemId(((lane + 1) % n_scopes) as u32),
                        };
                        let op = match span_write {
                            true => Operation::write(txn, other, Value::Int(0)),
                            false => Operation::read(txn, other, Value::Int(0)),
                        };
                        ops.insert(span_pos % (ops.len() + 1), op);
                    }
                    Transaction::new(txn, ops).expect("respects §2.2")
                })
                .collect();
            (scopes, txns)
        })
}

/// A journal that keeps the full recorded schedule, whatever a sweep
/// drops from the monitor's own.
#[derive(Clone, Debug, Default)]
pub struct Trail(Arc<parking_lot::Mutex<Vec<Operation>>>);

impl Trail {
    /// The schedule recorded so far.
    pub fn schedule(&self) -> Schedule {
        Schedule::new(self.0.lock().clone()).expect("a recorded schedule is valid")
    }
}

impl MonitorJournal for Trail {
    fn appended(&mut self, op: &Operation) {
        self.0.lock().push(op.clone());
    }

    fn truncated(&mut self, new_len: usize) {
        self.0.lock().truncate(new_len);
    }

    fn floor_raised(&mut self, _: usize) {}
}

/// The full oracle battery over a recorded schedule: single-writer
/// replay parity (final verdict + per-conjunct certificates) and
/// batch re-verification.
pub fn check_against_oracles(
    schedule: &Schedule,
    scopes: &[ItemSet],
    sharded: &ShardedMonitor,
) -> std::result::Result<(), TestCaseError> {
    let verdict = sharded.verdict();
    let mut replay = OnlineMonitor::new(scopes.to_vec());
    let mut last = replay.verdict();
    for op in schedule.ops() {
        last = replay.push(op.clone()).expect("recorded schedule is valid");
    }
    prop_assert_eq!(last, verdict, "sharded verdict != single-writer replay");
    for k in 0..scopes.len() {
        prop_assert_eq!(
            sharded.lemma2_holds(k),
            replay.lemma2_holds(k),
            "Lemma 2, scope {}",
            k
        );
        prop_assert_eq!(
            sharded.lemma6_holds(k),
            replay.lemma6_holds(k),
            "Lemma 6, scope {}",
            k
        );
    }
    prop_assert!(replay.certify_prefix(), "Lemma 2/6 audit failed");
    // Batch re-verification of the recorded schedule.
    prop_assert_eq!(verdict.serializable, is_conflict_serializable(schedule));
    prop_assert_eq!(verdict.dr, is_delayed_read(schedule));
    prop_assert_eq!(
        verdict.pwsr(),
        scopes
            .iter()
            .all(|d| is_conflict_serializable_proj(schedule, d))
    );
    Ok(())
}
