//! Twin-harness properties for the batched admission path.
//!
//! One monitor ingests every transaction's operations through
//! `push_batch` (amortized tickets, segment-reserved appends, one
//! undo-delta run per batch); its twin ingests the identical operation
//! sequence through singleton `push`. The two must be byte-identical
//! at **every boundary** — per-operation `PushOutcome` flags, verdict
//! ladder, per-conjunct Lemma 2/6 certificates, undo-log floors — and
//! must stay identical when batches are split by the three suffix /
//! prefix surgeries: `truncate_to`, `retract_txn`, and `compact`.

mod common;

use common::{arb_transactions, scopes_from_bits, MAX_ITEMS};
use proptest::prelude::*;
use pwsr_core::ids::TxnId;
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::OnlineMonitor;
use pwsr_core::op::Operation;
use pwsr_core::txn::Transaction;

/// Split each transaction into contiguous program-order runs (batch
/// sizes 1..=4 drawn from `sizes`), then interleave the runs across
/// transactions by the `mix` byte stream — per-transaction run order
/// is preserved, which is exactly what the executors guarantee.
fn interleaved_runs(txns: &[Transaction], sizes: &[u8], mix: &[u8]) -> Vec<Vec<Operation>> {
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

/// Every observable the twins expose must agree.
fn assert_twins_agree(
    batched: &ShardedMonitor,
    singleton: &ShardedMonitor,
    n_scopes: usize,
    at: &str,
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(batched.len(), singleton.len(), "len at {}", at);
    prop_assert_eq!(batched.verdict(), singleton.verdict(), "verdict at {}", at);
    prop_assert_eq!(batched.floor(), singleton.floor(), "floor at {}", at);
    prop_assert_eq!(
        batched.log_floor(),
        singleton.log_floor(),
        "undo floor at {}",
        at
    );
    for k in 0..n_scopes {
        prop_assert_eq!(
            batched.lemma2_holds(k),
            singleton.lemma2_holds(k),
            "Lemma 2, scope {} at {}",
            k,
            at
        );
        prop_assert_eq!(
            batched.lemma6_holds(k),
            singleton.lemma6_holds(k),
            "Lemma 6, scope {} at {}",
            k,
            at
        );
    }
    Ok(())
}

proptest! {
    /// **Sharded twins.** Batched vs singleton admission of the same
    /// run sequence, with random boundary surgeries between runs:
    /// truncations, per-transaction retractions, and checkpointed
    /// compactions — applied identically to both twins. Byte-identical
    /// per-op `PushOutcome`s, verdicts, certificates, and floors at
    /// every boundary.
    #[test]
    fn sharded_batch_twin_matches_singleton(
        txns in arb_transactions(5, MAX_ITEMS),
        sizes in proptest::collection::vec(any::<u8>(), 0..48),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        events in proptest::collection::vec(any::<u8>(), 0..48),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
    ) {
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let runs = interleaved_runs(&txns, &sizes, &mix);
        let batched = ShardedMonitor::new_logged(scopes.clone());
        let singleton = ShardedMonitor::new_logged(scopes.clone());
        let mut pushed: std::collections::HashMap<TxnId, usize> =
            txns.iter().map(|t| (t.id(), 0)).collect();
        let mut summarized_prefix = false;
        for (i, run) in runs.iter().enumerate() {
            if batched.is_summarized(run[0].txn) {
                // A surgery below summarized a transaction with runs
                // still queued: both twins must refuse the batch.
                prop_assert!(batched.push_batch(run).is_err());
                prop_assert!(singleton.push(run[0].clone()).is_err());
                continue;
            }
            let a = batched.push_batch(run).expect("valid run");
            let b: Vec<_> = run
                .iter()
                .map(|op| singleton.push_outcome(op.clone()).expect("valid run"))
                .collect();
            prop_assert_eq!(&a, &b, "PushOutcome run diverged at run {}", i);
            *pushed.get_mut(&run[0].txn).unwrap() += run.len();
            assert_twins_agree(&batched, &singleton, scopes.len(), "run boundary")?;

            // Boundary surgery, decided by the event stream.
            let e = events.get(i).copied().unwrap_or(255);
            match e % 8 {
                0 => {
                    // Truncate both to the same cut above the floor.
                    let floor = batched.log_floor();
                    let cut = floor + (e as usize / 8) % (batched.len() - floor + 1);
                    let ua = batched.truncate_to(cut);
                    let ub = singleton.truncate_to(cut);
                    prop_assert_eq!(ua, ub, "truncation undo counts");
                    // The cut may have split earlier batches: reset
                    // the per-txn progress from the surviving schedule.
                    let s = batched.snapshot_schedule();
                    for t in &txns {
                        *pushed.get_mut(&t.id()).unwrap() = s.transaction(t.id()).len();
                    }
                }
                1 => {
                    // Retract one transaction from both twins — unless
                    // it settled before an earlier checkpoint and so
                    // was left out of that checkpoint's `live` set:
                    // its first operation is below the floor, and
                    // reaching there breaks the checkpoint contract.
                    // (A summarized victim has no operation left to
                    // find and goes on to the `Err` arm.)
                    let victim = txns[(e as usize / 8) % txns.len()].id();
                    let s = batched.snapshot_schedule();
                    let first = s.positions().find(|&p| s.op(p).txn == victim);
                    if first.is_none_or(|p| p.0 >= batched.log_floor()) {
                        let ra = batched.retract_txn(victim);
                        let rb = singleton.retract_txn(victim);
                        match (ra, rb) {
                            (Ok((ua, ra)), Ok((ub, rb))) => {
                                prop_assert_eq!((ua, ra), (ub, rb), "retraction counts");
                                *pushed.get_mut(&victim).unwrap() = 0;
                            }
                            (Err(_), Err(_)) => {}
                            (a, b) => prop_assert!(false, "retract asymmetry: {:?} vs {:?}", a, b),
                        }
                    }
                }
                2 => {
                    // Checkpoint past the still-growing transactions,
                    // then compact — identically on both twins.
                    for t in &txns {
                        if pushed[&t.id()] == t.len() && !batched.is_summarized(t.id()) {
                            batched.finish_txn(t.id());
                            singleton.finish_txn(t.id());
                        }
                    }
                    let live: Vec<TxnId> = txns
                        .iter()
                        .map(Transaction::id)
                        .filter(|&t| pushed[&t] < txns[(t.0 - 1) as usize].len())
                        .collect();
                    let fa = batched.checkpoint(live.clone());
                    let fb = singleton.checkpoint(live);
                    prop_assert_eq!(fa, fb, "checkpoint floors");
                    let ca = batched.compact();
                    let cb = singleton.compact();
                    prop_assert_eq!(ca.frontier, cb.frontier, "compaction frontiers");
                    prop_assert_eq!(ca.txns_summarized, cb.txns_summarized);
                    summarized_prefix |= ca.frontier > 0;
                }
                _ => {}
            }
            assert_twins_agree(&batched, &singleton, scopes.len(), "after surgery")?;
        }
        // Final audit: identical recorded schedules, and — whenever no
        // prefix has been summarized away (a fresh replay would then
        // see fewer ops) — the batched schedule replays to the same
        // verdict on a fresh single writer.
        let sa = batched.snapshot_schedule();
        let sb = singleton.snapshot_schedule();
        prop_assert_eq!(sa.ops(), sb.ops(), "recorded schedules diverged");
        if !summarized_prefix {
            let mut replay = OnlineMonitor::new(scopes.clone());
            let mut last = replay.verdict();
            for op in sa.ops() {
                last = replay.push(op.clone()).expect("recorded schedule is valid");
            }
            prop_assert_eq!(last, batched.verdict(), "replay verdict");
            prop_assert!(replay.certify_prefix(), "Lemma 2/6 audit failed");
        }
    }

    /// **Single-writer twins.** `OnlineMonitor::push_batch_logged`
    /// returns the same per-op verdict sequence as `push_logged`, and
    /// the twins stay byte-identical across truncations and
    /// checkpoint-driven compactions splitting the batches.
    #[test]
    fn online_batch_twin_matches_singleton(
        txns in arb_transactions(4, MAX_ITEMS),
        sizes in proptest::collection::vec(any::<u8>(), 0..32),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
        events in proptest::collection::vec(any::<u8>(), 0..32),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
    ) {
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let runs = interleaved_runs(&txns, &sizes, &mix);
        let mut batched = OnlineMonitor::new(scopes.clone());
        let mut singleton = OnlineMonitor::new(scopes.clone());
        let mut pushed: std::collections::HashMap<TxnId, usize> =
            txns.iter().map(|t| (t.id(), 0)).collect();
        for (i, run) in runs.iter().enumerate() {
            if batched.is_summarized(run[0].txn) {
                prop_assert!(batched.push_batch_logged(run).is_err());
                prop_assert!(singleton.push_logged(run[0].clone()).is_err());
                continue;
            }
            let va = batched.push_batch_logged(run).expect("valid run");
            let vb: Vec<_> = run
                .iter()
                .map(|op| singleton.push_logged(op.clone()).expect("valid run"))
                .collect();
            prop_assert_eq!(&va, &vb, "verdict run diverged at run {}", i);
            prop_assert_eq!(batched.log_floor(), singleton.log_floor());
            prop_assert_eq!(batched.verdict(), singleton.verdict());
            *pushed.get_mut(&run[0].txn).unwrap() += run.len();

            let e = events.get(i).copied().unwrap_or(255);
            match e % 8 {
                0 => {
                    let floor = batched.log_floor();
                    let cut = floor + (e as usize / 8) % (batched.len() - floor + 1);
                    prop_assert_eq!(batched.truncate_to(cut), singleton.truncate_to(cut));
                    for t in &txns {
                        *pushed.get_mut(&t.id()).unwrap() =
                            batched.schedule().transaction(t.id()).len();
                    }
                }
                1 => {
                    for t in &txns {
                        if pushed[&t.id()] == t.len() && !batched.is_summarized(t.id()) {
                            batched.finish_txn(t.id());
                            singleton.finish_txn(t.id());
                        }
                    }
                    let floor = batched.compaction_frontier();
                    prop_assert_eq!(batched.checkpoint(floor), singleton.checkpoint(floor));
                    let ca = batched.compact();
                    let cb = singleton.compact();
                    prop_assert_eq!(ca.frontier, cb.frontier);
                }
                _ => {}
            }
            prop_assert_eq!(batched.verdict(), singleton.verdict(), "post-surgery verdict");
            prop_assert_eq!(batched.log_floor(), singleton.log_floor());
        }
        prop_assert_eq!(
            batched.schedule().ops(),
            singleton.schedule().ops(),
            "recorded schedules diverged"
        );
        prop_assert!(batched.certify_prefix() && singleton.certify_prefix());
    }
}
