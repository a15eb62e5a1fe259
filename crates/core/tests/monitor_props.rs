//! Prefix-parity property tests for the online verdict monitor.
//!
//! The contract under test: pushing a schedule's operations one at a
//! time through [`OnlineMonitor`] must yield, at **every** prefix,
//! exactly the `Verdict` the batch deciders give a fresh [`Schedule`]
//! (every field, positions included), Lemma 2/6 certificates equal to
//! the inclusion sweeps, and orders the order verifier accepts: the
//! expensive recomputation is the oracle. The prefix and compaction
//! properties are `common::check_pushes`, which `sharded_props` runs on
//! the sharded pipeline.

mod common;

use common::{arb_workload, check_pushes, interleave_random, Single};
use proptest::prelude::*;
use pwsr_core::monitor::{AdmissionLevel, OnlineMonitor};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::is_conflict_serializable_proj;

proptest! {
    /// The single writer's verdict equals batch recomputation at EVERY
    /// prefix; each conjunct's certificates equal the inclusion sweeps
    /// under the order it offers; every order it offers, the global one
    /// too, passes the verifier. Half the cases
    /// are lane-partitioned (`arb_workload`).
    #[test]
    fn verdicts_match_batch_at_every_prefix(
        workload in arb_workload(3),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        check_pushes::<Single>(&workload, &mix, None, false)?;
    }

    /// The undo-log is exact: logged pushes truncated to any cut equal
    /// a fresh replay of the shortened prefix — verdict, schedule,
    /// certificates — and re-pushing the tail converges to the same
    /// final state as never having truncated.
    #[test]
    fn undo_log_truncation_equals_fresh_replay(
        (scopes, txns) in arb_workload(3),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        cut_pick in any::<u16>(),
    ) {
        let ops = interleave_random(&txns, &mix);
        let mut logged = OnlineMonitor::new(scopes.clone());
        for op in &ops {
            logged.push_logged(op.clone()).expect("valid interleaving");
        }
        let full_verdict = logged.verdict();
        let cut = (cut_pick as usize) % (ops.len() + 1);
        prop_assert_eq!(logged.truncate_to(cut), ops.len() - cut);
        let mut fresh = OnlineMonitor::new(scopes.clone());
        for op in &ops[..cut] {
            fresh.push(op.clone()).expect("valid prefix");
        }
        prop_assert_eq!(logged.verdict(), fresh.verdict(), "cut {}", cut);
        prop_assert_eq!(logged.schedule(), fresh.schedule());
        for k in 0..scopes.len() {
            prop_assert_eq!(logged.lemma2_holds(k), fresh.lemma2_holds(k));
            prop_assert_eq!(logged.lemma6_holds(k), fresh.lemma6_holds(k));
        }
        prop_assert!(logged.certify_prefix());
        // Re-push the undone tail: everything converges again.
        for op in &ops[cut..] {
            logged.push_logged(op.clone()).expect("valid tail");
        }
        prop_assert_eq!(logged.verdict(), full_verdict);
        prop_assert!(logged.certify_prefix());
    }

    /// **Twin harness**: a compacting single writer, logged or not,
    /// sweeps after a random stride of completed transactions. Before
    /// every push its admission probes are an uncompacted twin's, and
    /// after it its verdict is the batch deciders'; after every sweep
    /// its certificates and orders pass the oracles on what is left;
    /// summarized transactions are refused every push and probe; and
    /// it holds no more than the twin. Half the workloads are
    /// lane-partitioned, so a sweep can summarize a prefix — a conjunct
    /// cycle in it, too — before the first spanning transaction builds
    /// the global graph.
    #[test]
    fn compaction_twin_parity_at_every_push(
        workload in arb_workload(4),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
        stride in 1usize..4,
        logged in any::<bool>(),
    ) {
        let (compacting, twin) = check_pushes::<Single>(&workload, &mix, Some(stride), logged)?;
        prop_assert!(
            compacting.0.resident_bytes_estimate() <= twin.resident_bytes_estimate()
                || compacting.0.compactions() == 0
        );
    }

    /// Admission is exact: an operation is rejected at level Pwsr iff
    /// actually pushing it would break some scope's serializability —
    /// checked by replaying the accepted prefix plus the candidate
    /// through the batch checkers.
    #[test]
    fn pwsr_admission_is_exact(
        (scopes, txns) in arb_workload(3),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let ops = interleave_random(&txns, &mix);
        let mut monitor = OnlineMonitor::new(scopes.clone());
        let mut accepted: Vec<Operation> = Vec::new();
        for op in ops {
            let admitted = monitor.admits(op.txn, op.item, op.is_write(), AdmissionLevel::Pwsr);
            // Ground truth: would the extended schedule stay PWSR?
            let mut candidate = accepted.clone();
            candidate.push(op.clone());
            // The candidate may be transactionally malformed relative
            // to dropped (rejected) operations — skip those.
            let Ok(extended) = Schedule::new(candidate) else { continue };
            let stays_pwsr = scopes
                .iter()
                .all(|d| is_conflict_serializable_proj(&extended, d));
            prop_assert_eq!(admitted, stays_pwsr, "admission diverged from ground truth");
            if admitted {
                monitor.push(op.clone()).expect("admitted ops are valid");
                accepted.push(op);
            }
        }
        // Invariant: the committed stream is PWSR at the end.
        let committed = Schedule::new(accepted).expect("accepted stream is valid");
        for d in &scopes {
            prop_assert!(is_conflict_serializable_proj(&committed, d));
        }
    }
}
