//! Twin-harness property for the single writer's batched admission
//! path.
//!
//! One monitor ingests every transaction's operations through
//! `push_batch_logged` (one undo-delta run per batch); its twin ingests
//! the identical operation sequence through singleton `push_logged`.
//! The two must be byte-identical at **every boundary** — per-operation
//! verdicts, undo-log floors — and must stay identical when batches are
//! split by truncation and by checkpoint-driven compaction. The sharded
//! monitor's batches are the pipeline explorer's
//! (`monitor::sharded::explore`): a `push_batch` run through the real
//! stage locks, held to the batch deciders and the order verifier and,
//! per operation, to the single writer's `admits`.

mod common;

use common::{arb_workload, interleaved_runs};
use proptest::prelude::*;
use pwsr_core::ids::TxnId;
use pwsr_core::monitor::OnlineMonitor;

proptest! {
    /// **Single-writer twins.** `OnlineMonitor::push_batch_logged`
    /// returns the same per-op verdict sequence as `push_logged`, and
    /// the twins stay byte-identical across truncations and
    /// checkpoint-driven compactions splitting the batches.
    #[test]
    fn online_batch_twin_matches_singleton(
        (scopes, txns) in arb_workload(4),
        sizes in proptest::collection::vec(any::<u8>(), 0..32),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
        events in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
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
