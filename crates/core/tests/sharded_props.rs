//! Stress and interleaving properties for the sharded concurrent
//! monitor.
//!
//! Two oracles pin [`ShardedMonitor`]:
//!
//! * **single-writer replay** — the interleaving the sharded monitor
//!   recorded, replayed through an [`OnlineMonitor`], must produce a
//!   byte-identical final [`Verdict`] and identical per-conjunct
//!   Lemma 2/6 certificates (and, for sequential pushes, identical
//!   verdicts at *every* prefix);
//! * **batch re-verification** — the recorded schedule must get the
//!   same serializability / PWSR / delayed-read answers from the
//!   batch checkers, and the replayed monitor must survive the
//!   `certify_prefix` audit (the full Lemma 2/6 inclusion sweeps).
//!
//! The threaded cases run real OS threads, each pushing its own
//! transactions' operations in program order — the interleaving is
//! whatever the scheduler produced, which is exactly the situation
//! the sharded monitor exists for.

mod common;

use common::{arb_transactions, interleave_random, scopes_from_bits, MAX_ITEMS};
use proptest::prelude::*;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::OnlineMonitor;
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::{is_conflict_serializable, is_conflict_serializable_proj};
use pwsr_core::state::ItemSet;
use pwsr_core::txn::Transaction;
use pwsr_core::value::Value;
use std::sync::Arc;

/// The full oracle battery over a recorded schedule: single-writer
/// replay parity (final verdict + per-conjunct certificates) and
/// batch re-verification.
fn check_against_oracles(
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

proptest! {
    /// The **abort storm**: N real threads interleave pushes and
    /// per-transaction retractions (`retract_txn`) on a *logged*
    /// sharded monitor. Whatever interleaving of pushes and truncates
    /// the OS produced, the surviving schedule must contain exactly
    /// the non-aborted transactions' operations in program order, and
    /// the monitor must be byte-identical to a single-writer replay
    /// of that surviving schedule — verdict, per-conjunct Lemma 2/6
    /// certificates, and the batch checkers.
    #[test]
    fn threaded_abort_storms_match_replay_and_batch(
        txns in arb_transactions(6),
        abort_mask in 0u32..64,
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        n_threads in 2usize..4,
    ) {
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let monitor = Arc::new(ShardedMonitor::new_logged(scopes.clone()));
        std::thread::scope(|scope| {
            for (w, chunk) in txns.chunks(txns.len().div_ceil(n_threads)).enumerate() {
                let monitor = Arc::clone(&monitor);
                scope.spawn(move || {
                    for t in chunk {
                        for op in t.ops() {
                            monitor.push(op.clone()).expect("well-formed transactions");
                        }
                        // Abort the masked transactions after their
                        // last push — a retraction racing against the
                        // other threads' pushes.
                        if abort_mask & (1 << (t.id().0 - 1)) != 0 {
                            let (undone, _) = monitor
                                .retract_txn(t.id())
                                .expect("a live transaction is never summarized");
                            assert!(undone >= t.len(), "at least its own ops undone");
                        }
                        if w % 2 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let monitor = Arc::try_unwrap(monitor).expect("threads joined");
        let schedule = monitor.snapshot_schedule();
        // Exactly the survivors' operations, in program order.
        let survivors: Vec<&Transaction> = txns
            .iter()
            .filter(|t| abort_mask & (1 << (t.id().0 - 1)) == 0)
            .collect();
        prop_assert_eq!(
            schedule.len(),
            survivors.iter().map(|t| t.len()).sum::<usize>()
        );
        for t in survivors {
            let recorded = schedule.transaction(t.id());
            prop_assert_eq!(recorded.ops(), t.ops());
        }
        check_against_oracles(&schedule, &scopes, &monitor)?;
    }

    /// Sequential truncation parity: push everything logged, truncate
    /// to a random cut, keep pushing — at the cut and at the end the
    /// sharded monitor equals a single-writer monitor that never saw
    /// the truncated suffix at all.
    #[test]
    fn sequential_truncate_matches_fresh_replay(
        txns in arb_transactions(3),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        cut_pct in 0usize..=100,
    ) {
        let ops = interleave_random(&txns, &mix);
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let sharded = ShardedMonitor::new_logged(scopes.clone());
        for op in &ops {
            sharded.push(op.clone()).expect("valid interleaving");
        }
        let cut = cut_pct * ops.len() / 100;
        prop_assert_eq!(sharded.truncate_to(cut), ops.len() - cut);
        let mut single = OnlineMonitor::new(scopes.clone());
        for op in &ops[..cut] {
            single.push(op.clone()).expect("valid");
        }
        prop_assert_eq!(sharded.verdict(), single.verdict(), "post-cut verdict");
        // The truncated monitor keeps certifying: replay the suffix.
        for op in &ops[cut..] {
            sharded.push(op.clone()).expect("valid");
            single.push(op.clone()).expect("valid");
        }
        check_against_oracles(single.schedule(), &scopes, &sharded)?;
    }

    /// N real threads, each pushing its own transactions in program
    /// order: whatever interleaving the OS produced, the recorded
    /// schedule's sharded verdict equals the single-writer replay and
    /// the batch checkers.
    #[test]
    fn threaded_runs_match_replay_and_batch(
        txns in arb_transactions(4),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        n_threads in 2usize..4,
    ) {
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let monitor = Arc::new(ShardedMonitor::new(scopes.clone()));
        std::thread::scope(|scope| {
            for (w, chunk) in txns.chunks(txns.len().div_ceil(n_threads)).enumerate() {
                let monitor = Arc::clone(&monitor);
                scope.spawn(move || {
                    for t in chunk {
                        for op in t.ops() {
                            monitor.push(op.clone()).expect("well-formed transactions");
                        }
                        // Encourage cross-thread interleaving.
                        if w % 2 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let monitor = Arc::try_unwrap(monitor).expect("threads joined");
        let schedule = monitor.snapshot_schedule();
        prop_assert_eq!(schedule.len(), txns.iter().map(Transaction::len).sum::<usize>());
        check_against_oracles(&schedule, &scopes, &monitor)?;
    }

    /// Sequential pushes (small cases): the sharded verdict equals the
    /// single-writer verdict at EVERY prefix, and the lock-free floor
    /// never claims a better rung than the truth.
    #[test]
    fn sequential_pushes_match_at_every_prefix(
        txns in arb_transactions(3),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
    ) {
        let ops = interleave_random(&txns, &mix);
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let sharded = ShardedMonitor::new(scopes.clone());
        let mut single = OnlineMonitor::new(scopes.clone());
        for op in ops {
            let floor = sharded.push(op.clone()).expect("valid interleaving");
            let v = single.push(op).expect("valid interleaving");
            prop_assert_eq!(sharded.verdict(), v, "prefix verdict diverged");
            // Floors only worsen and never overstate the guarantee.
            prop_assert!(floor >= v.level);
        }
        check_against_oracles(single.schedule(), &scopes, &sharded)?;
    }

    /// **Twin harness, sharded**: run every workload through a
    /// compacting monitor and an uncompacted twin, compacting after a
    /// random stride of completed transactions. At every push the
    /// `PushOutcome` (floor + causality flags), the verdict and the
    /// per-conjunct Lemma 2/6 certificates must stay byte-identical,
    /// and summarized transactions must reject pushes and
    /// retractions.
    #[test]
    fn sharded_compaction_twin_parity(
        txns in arb_transactions(5),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        stride in 1usize..4,
    ) {
        let ops = interleave_random(&txns, &mix);
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let compacting = ShardedMonitor::new(scopes.clone());
        let twin = ShardedMonitor::new(scopes.clone());
        // Count down each transaction's remaining ops so we can mark
        // it finished at its last push.
        let mut remaining: std::collections::HashMap<TxnId, usize> =
            txns.iter().map(|t| (t.id(), t.len())).collect();
        let mut completed = 0usize;
        for op in &ops {
            let a = compacting.push_outcome(op.clone()).expect("valid interleaving");
            let b = twin.push_outcome(op.clone()).expect("valid interleaving");
            prop_assert_eq!(a, b, "PushOutcome diverged");
            prop_assert_eq!(compacting.verdict(), twin.verdict(), "verdict diverged");
            let left = remaining.get_mut(&op.txn).unwrap();
            *left -= 1;
            if *left == 0 {
                compacting.finish_txn(op.txn);
                completed += 1;
                if completed.is_multiple_of(stride) {
                    compacting.compact();
                }
            }
        }
        compacting.compact();
        for k in 0..scopes.len() {
            prop_assert_eq!(compacting.lemma2_holds(k), twin.lemma2_holds(k));
            prop_assert_eq!(compacting.lemma6_holds(k), twin.lemma6_holds(k));
        }
        // Summarized transactions are sealed off.
        for t in &txns {
            if compacting.is_summarized(t.id()) {
                prop_assert!(compacting.push(Operation::write(
                    t.id(), ItemId(MAX_ITEMS), Value::Int(0))).is_err());
                prop_assert!(compacting.retract_txn(t.id()).is_err());
            }
        }
    }

    /// Admission probes agree with the single-writer monitor when the
    /// monitor is quiescent (the binding situation for executors).
    #[test]
    fn quiescent_probes_match_single_writer(
        txns in arb_transactions(3),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        probe_item in 0..MAX_ITEMS,
        probe_txn in 1u32..5,
        probe_write in any::<bool>(),
    ) {
        use pwsr_core::monitor::AdmissionLevel;
        let ops = interleave_random(&txns, &mix);
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let sharded = ShardedMonitor::new(scopes.clone());
        let mut single = OnlineMonitor::new(scopes);
        for op in ops {
            sharded.push(op.clone()).expect("valid");
            single.push(op).expect("valid");
        }
        for level in [
            AdmissionLevel::Serializable,
            AdmissionLevel::Pwsr,
            AdmissionLevel::PwsrDr,
        ] {
            prop_assert_eq!(
                sharded.would_admit(TxnId(probe_txn), ItemId(probe_item), probe_write, level),
                single.admits(TxnId(probe_txn), ItemId(probe_item), probe_write, level),
                "probe diverged at {:?}", level
            );
        }
    }

    /// The pointwise retraction contract: a push reports a breach of
    /// a rung exactly when the probe, asked just before it, would not
    /// have admitted the operation at that rung — on every push, also
    /// those that meet a rung some earlier push already broke.
    #[test]
    fn outcome_breaches_iff_probe_would_refuse(
        txns in arb_transactions(5),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
    ) {
        use pwsr_core::monitor::AdmissionLevel;
        let levels = [
            AdmissionLevel::Serializable,
            AdmissionLevel::Pwsr,
            AdmissionLevel::PwsrDr,
        ];
        let sharded = ShardedMonitor::new_logged(scopes_from_bits(d1_bits, d2_bits));
        for (p, op) in interleave_random(&txns, &mix).into_iter().enumerate() {
            let admitted = levels.map(|l| sharded.would_admit(op.txn, op.item, op.is_write(), l));
            let outcome = sharded.push_outcome(op).expect("valid");
            for (level, admitted) in levels.into_iter().zip(admitted) {
                prop_assert_eq!(
                    outcome.breaches(level), !admitted,
                    "op {} at {:?}: {:?}", p, level, outcome
                );
            }
        }
    }
}
