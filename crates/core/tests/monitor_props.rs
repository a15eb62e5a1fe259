//! Prefix-parity property tests for the online verdict monitor.
//!
//! The contract under test: pushing a schedule's operations one at a
//! time through [`OnlineMonitor`] must yield, at **every** prefix,
//! exactly the verdicts obtained by building a fresh [`Schedule`] and
//! running the batch checkers — serializability,
//! per-scope PWSR, delayed-read, and the Lemma 2/6 inclusion sweeps
//! (the expensive recomputation is the oracle; the monitor's
//! incremental flags are the implementation under test).

mod common;

use common::{arb_transactions, interleave_random, scopes_from_bits, MAX_ITEMS};
use proptest::prelude::*;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::{AdmissionLevel, OnlineMonitor};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::{
    is_conflict_serializable, is_conflict_serializable_proj, precedence_graph_proj,
};
use pwsr_core::value::Value;
use pwsr_core::viewset::inclusion_holds_everywhere;

proptest! {
    /// The monitor's verdict equals batch recomputation at EVERY prefix:
    /// serializability, per-scope serializability (PWSR), delayed-read,
    /// and the Lemma 2/6 inclusion sweeps under the monitor's own
    /// maintained serialization orders.
    #[test]
    fn verdicts_match_batch_at_every_prefix(
        txns in arb_transactions(3),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
    ) {
        let ops = interleave_random(&txns, &mix);
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let mut monitor = OnlineMonitor::new(scopes.clone());
        for k in 0..ops.len() {
            let v = monitor.push(ops[k].clone()).expect("valid interleaving");
            let prefix = Schedule::new(ops[..=k].to_vec()).expect("valid prefix");
            prop_assert_eq!(v.len, prefix.len());
            prop_assert_eq!(v.serializable, is_conflict_serializable(&prefix));
            prop_assert_eq!(v.dr, is_delayed_read(&prefix));
            for (e, d) in scopes.iter().enumerate() {
                let batch_ok = is_conflict_serializable_proj(&prefix, d);
                prop_assert_eq!(
                    monitor.conjunct_order(e).is_some(),
                    batch_ok,
                    "scope {} serializability diverged at prefix {}",
                    e, k
                );
                if let Some(order) = monitor.conjunct_order(e) {
                    // The maintained order must respect every conflict
                    // edge of the projection…
                    let (g, proj_txns) = precedence_graph_proj(&prefix, d);
                    let pos = |t: TxnId| order.iter().position(|&x| x == t).unwrap();
                    for (u, w) in g.edges() {
                        prop_assert!(
                            pos(proj_txns[u]) < pos(proj_txns[w]),
                            "order violates conflict edge at prefix {}", k
                        );
                    }
                    // …and the incremental Lemma 2/6 certificates must
                    // equal the full batch sweeps under that order.
                    prop_assert_eq!(
                        inclusion_holds_everywhere(&prefix, d, &order, false),
                        monitor.lemma2_holds(e),
                        "Lemma 2 certificate diverged at prefix {}", k
                    );
                    prop_assert_eq!(
                        inclusion_holds_everywhere(&prefix, d, &order, true),
                        monitor.lemma6_holds(e),
                        "Lemma 6 certificate diverged at prefix {}", k
                    );
                }
            }
            prop_assert_eq!(
                v.pwsr(),
                scopes.iter().all(|d| is_conflict_serializable_proj(&prefix, d))
            );
            prop_assert!(monitor.certify_prefix());
        }
    }

    /// The undo-log is exact: logged pushes truncated to any cut equal
    /// a fresh replay of the shortened prefix — verdict, schedule,
    /// certificates — and re-pushing the tail converges to the same
    /// final state as never having truncated.
    #[test]
    fn undo_log_truncation_equals_fresh_replay(
        txns in arb_transactions(3),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        cut_pick in any::<u16>(),
    ) {
        let ops = interleave_random(&txns, &mix);
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let mut logged = OnlineMonitor::new(scopes.clone());
        for op in &ops {
            logged.push_logged(op.clone()).expect("valid interleaving");
        }
        let full_verdict = logged.verdict();
        let cut = (cut_pick as usize) % (ops.len() + 1);
        prop_assert_eq!(logged.truncate_to(cut), ops.len() - cut);
        let mut fresh = OnlineMonitor::new(scopes);
        for op in &ops[..cut] {
            fresh.push(op.clone()).expect("valid prefix");
        }
        prop_assert_eq!(logged.verdict(), fresh.verdict(), "cut {}", cut);
        prop_assert_eq!(logged.schedule(), fresh.schedule());
        for k in 0..2 {
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

    /// **Twin harness**: every workload runs through a compacting
    /// monitor and an uncompacted twin, compacting after a random
    /// stride of completed transactions. At every push the verdict
    /// (including Lemma 2/6 certificates) and every admission probe
    /// must stay byte-identical, and summarized transactions must
    /// reject further pushes.
    #[test]
    fn compaction_twin_parity_at_every_push(
        txns in arb_transactions(4),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        stride in 1usize..4,
        logged in any::<bool>(),
    ) {
        let ops = interleave_random(&txns, &mix);
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let mut compacting = OnlineMonitor::new(scopes.clone());
        let mut twin = OnlineMonitor::new(scopes.clone());
        let mut remaining: std::collections::HashMap<TxnId, usize> =
            txns.iter().map(|t| (t.id(), t.len())).collect();
        let mut completed = 0usize;
        for op in &ops {
            let (a, b) = if logged {
                (
                    compacting.push_logged(op.clone()).expect("valid interleaving"),
                    twin.push_logged(op.clone()).expect("valid interleaving"),
                )
            } else {
                (
                    compacting.push(op.clone()).expect("valid interleaving"),
                    twin.push(op.clone()).expect("valid interleaving"),
                )
            };
            prop_assert_eq!(a, b, "verdict diverged");
            let left = remaining.get_mut(&op.txn).unwrap();
            *left -= 1;
            if *left == 0 {
                compacting.finish_txn(op.txn);
                completed += 1;
                if completed.is_multiple_of(stride) {
                    if logged {
                        // A logged monitor's frontier is clamped to the
                        // undo floor; raise it over the settled prefix
                        // first (nothing live may abort in this run).
                        let floor = compacting.len();
                        compacting.checkpoint(floor);
                        twin.checkpoint(floor);
                    }
                    compacting.compact();
                }
            }
            // Probes agree after every push/compaction — except that a
            // summarized transaction is flatly refused (its push would
            // be rejected no matter what the graphs say).
            for level in [AdmissionLevel::Serializable, AdmissionLevel::Pwsr, AdmissionLevel::PwsrDr] {
                let probe = compacting.admits(op.txn, op.item, op.is_write(), level);
                if compacting.is_summarized(op.txn) {
                    prop_assert!(!probe, "summarized transactions are never admitted");
                } else {
                    prop_assert_eq!(probe, twin.admits(op.txn, op.item, op.is_write(), level));
                }
            }
        }
        compacting.compact();
        prop_assert_eq!(compacting.verdict(), twin.verdict());
        for k in 0..scopes.len() {
            prop_assert_eq!(compacting.lemma2_holds(k), twin.lemma2_holds(k));
            prop_assert_eq!(compacting.lemma6_holds(k), twin.lemma6_holds(k));
        }
        prop_assert!(
            compacting.resident_bytes_estimate() <= twin.resident_bytes_estimate()
                || compacting.compactions() == 0
        );
        for t in &txns {
            if compacting.is_summarized(t.id()) {
                prop_assert!(compacting
                    .push(Operation::write(t.id(), ItemId(MAX_ITEMS), Value::Int(0)))
                    .is_err());
            }
        }
    }

    /// Admission is exact: an operation is rejected at level Pwsr iff
    /// actually pushing it would break some scope's serializability —
    /// checked by replaying the accepted prefix plus the candidate
    /// through the batch checkers.
    #[test]
    fn pwsr_admission_is_exact(
        txns in arb_transactions(3),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
    ) {
        let ops = interleave_random(&txns, &mix);
        let scopes = scopes_from_bits(d1_bits, d2_bits);
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
