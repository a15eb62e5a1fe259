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

use common::{
    arb_transactions, interleave_random, order_respects_conflicts, scopes_from_bits, MAX_ITEMS,
};
use proptest::prelude::*;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::ids::{ItemId, OpIndex, TxnId};
use pwsr_core::monitor::journal::MonitorJournal;
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::{OnlineMonitor, Verdict, VerdictLevel};
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
        txns in arb_transactions(6, MAX_ITEMS),
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
        txns in arb_transactions(3, MAX_ITEMS),
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
    /// order — the transactions `batch_mask` picks as one `push_batch`
    /// run each, the rest op by op with `push`: whatever interleaving
    /// the OS produced, the recorded schedule's sharded verdict equals
    /// the single-writer replay and the batch checkers.
    #[test]
    fn threaded_runs_match_replay_and_batch(
        txns in arb_transactions(4, MAX_ITEMS),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        n_threads in 2usize..4,
        batch_mask in 0u32..16,
    ) {
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let monitor = Arc::new(ShardedMonitor::new(scopes.clone()));
        std::thread::scope(|scope| {
            for (w, chunk) in txns.chunks(txns.len().div_ceil(n_threads)).enumerate() {
                let monitor = Arc::clone(&monitor);
                scope.spawn(move || {
                    for t in chunk {
                        if batch_mask & (1 << (t.id().0 - 1)) != 0 {
                            monitor.push_batch(t.ops()).expect("well-formed transactions");
                        } else {
                            for op in t.ops() {
                                monitor.push(op.clone()).expect("well-formed transactions");
                            }
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
        txns in arb_transactions(3, MAX_ITEMS),
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
        txns in arb_transactions(5, MAX_ITEMS),
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
                    // The orders a sweep leaves are still serialization
                    // orders of the live tail.
                    let tail = compacting.snapshot_schedule();
                    for (k, d) in scopes.iter().enumerate() {
                        if let Some(order) = compacting.conjunct_order(k) {
                            prop_assert!(
                                order_respects_conflicts(tail.ops(), d, &order),
                                "conjunct {} order {:?} after a sweep", k, order
                            );
                        }
                    }
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

    /// The pointwise retraction contract: a push reports a breach of
    /// a rung exactly when the probe, asked just before it, would not
    /// have admitted the operation at that rung — on every push, also
    /// those that meet a rung some earlier push already broke. The
    /// probe is the single writer's, fed the same pushes.
    #[test]
    fn outcome_breaches_iff_probe_would_refuse(
        txns in arb_transactions(5, MAX_ITEMS),
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
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let sharded = ShardedMonitor::new_logged(scopes.clone());
        let mut single = OnlineMonitor::new(scopes);
        for (p, op) in interleave_random(&txns, &mix).into_iter().enumerate() {
            let admitted = levels.map(|l| single.admits(op.txn, op.item, op.is_write(), l));
            single.push_logged(op.clone()).expect("valid");
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

/// The stream shape: two lanes, each pushing its own transactions.
const LANES: u32 = 2;
const PER_LANE: u32 = 48;

/// Conjunct `k`: four items, owned by lane `k`.
fn lane_scopes() -> Vec<ItemSet> {
    (0..LANES)
        .map(|k| (4 * k..4 * k + 4).map(ItemId).collect())
        .collect()
}

/// Transaction `j` of lane `k`: read two of the lane's items, then
/// write both.
fn lane_txn(k: u32, j: u32) -> Vec<Operation> {
    let txn = TxnId(1 + k + LANES * j);
    let (x, y) = (ItemId(4 * k + j % 4), ItemId(4 * k + (j + 1) % 4));
    let v = Value::Int(j as i64);
    vec![
        Operation::read(txn, x, Value::Int(0)),
        Operation::read(txn, y, Value::Int(0)),
        Operation::write(txn, x, v.clone()),
        Operation::write(txn, y, v),
    ]
}

/// What lane 0 does halfway through its stream.
#[derive(Clone, Copy, Debug)]
enum Plant {
    /// Two transactions of its own close a cycle in its conjunct.
    ConjunctCycle,
    /// The conjunct cycle first; once a sweep has summarized it, a
    /// transaction reads an item of lane 1 — the first spanning run.
    SpanAfterSweep,
    /// The spanning transaction is retracted right after it pushed,
    /// then pushed again.
    RetractSpan,
}

/// A journal that keeps the full recorded schedule, whatever a sweep
/// drops from the monitor's own.
#[derive(Clone, Debug, Default)]
struct Trail(Arc<parking_lot::Mutex<Vec<Operation>>>);

impl MonitorJournal for Trail {
    fn appended(&mut self, op: &Operation) {
        self.0.lock().push(op.clone());
    }

    fn truncated(&mut self, new_len: usize) {
        self.0.lock().truncate(new_len);
    }

    fn floor_raised(&mut self, _: usize) {}
}

/// The shortest prefix of `schedule` that `holds` fails on (a property
/// that, once lost, stays lost), by bisection.
fn first_failing(schedule: &Schedule, holds: impl Fn(&Schedule) -> bool) -> Option<OpIndex> {
    let prefix = |n: usize| Schedule::new(schedule.ops()[..n].to_vec()).expect("valid prefix");
    if holds(schedule) {
        return None;
    }
    let (mut lo, mut hi) = (0, schedule.len());
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if holds(&prefix(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(OpIndex(hi - 1))
}

/// Every field of `v` against the batch deciders over `schedule`.
fn verdict_matches_batch(schedule: &Schedule, scopes: &[ItemSet], v: &Verdict) -> bool {
    let pwsr = |s: &Schedule| scopes.iter().all(|d| is_conflict_serializable_proj(s, d));
    let first_non_serializable = first_failing(schedule, is_conflict_serializable);
    let first_violation = first_failing(schedule, pwsr);
    let first_non_dr = first_failing(schedule, is_delayed_read);
    let level = match (first_violation, first_non_serializable, first_non_dr) {
        (Some(_), _, _) => VerdictLevel::Violation,
        (None, None, _) => VerdictLevel::Serializable,
        (None, Some(_), None) => VerdictLevel::DrPreserving,
        (None, Some(_), Some(_)) => VerdictLevel::Pwsr,
    };
    v.len == schedule.len()
        && v.level == level
        && v.serializable == first_non_serializable.is_none()
        && v.first_non_serializable == first_non_serializable
        && v.first_violation == first_violation
        && v.dr == first_non_dr.is_none()
        && v.first_non_dr == first_non_dr
}

/// Two lanes push the stream shape — `push_batch`, then `finish_txn` —
/// into one monitor, with `plant` in lane 0, sweeping every eighth
/// transaction if `sweep`. Returns the full schedule the monitor
/// recorded.
fn run_stream(m: &ShardedMonitor, trail: &Trail, plant: Plant, sweep: bool) -> Schedule {
    let (a, b) = (TxnId(1001), TxnId(1002));
    let cycle = |m: &ShardedMonitor| {
        let (x, y, v) = (ItemId(0), ItemId(1), Value::Int(7));
        m.push_batch(&[Operation::read(a, x, Value::Int(0))])
            .unwrap();
        m.push_batch(&[Operation::write(b, x, v.clone()), Operation::write(b, y, v)])
            .unwrap();
        m.push_batch(&[Operation::read(a, y, Value::Int(7))])
            .unwrap();
        m.finish_txn(a);
        m.finish_txn(b);
    };
    let planted = |m: &ShardedMonitor| match plant {
        Plant::ConjunctCycle => cycle(m),
        Plant::SpanAfterSweep | Plant::RetractSpan => {
            if let Plant::SpanAfterSweep = plant {
                cycle(m);
                while !(m.is_summarized(a) && m.is_summarized(b)) {
                    m.compact();
                    std::thread::yield_now();
                }
            }
            let s = TxnId(1003);
            let run = [
                Operation::read(s, ItemId(4), Value::Int(0)),
                Operation::write(s, ItemId(0), Value::Int(9)),
            ];
            m.push_batch(&run).unwrap();
            if let Plant::RetractSpan = plant {
                m.retract_txn(s).unwrap();
                m.push_batch(&run).unwrap();
            }
            m.finish_txn(s);
        }
    };
    std::thread::scope(|scope| {
        for k in 0..LANES {
            scope.spawn(move || {
                for j in 0..PER_LANE {
                    if k == 0 && j == PER_LANE / 2 {
                        planted(m);
                    }
                    let ops = lane_txn(k, j);
                    m.push_batch(&ops).unwrap();
                    m.finish_txn(ops[0].txn);
                    if sweep && j % 8 == 7 {
                        m.compact();
                    }
                }
            });
        }
    });
    Schedule::new(trail.0.lock().clone()).expect("a recorded schedule is valid")
}

/// The `Serializable` rung on the benchmark's stream shape, against
/// the batch deciders — code the certifier does not share. Lanes keep
/// to their own conjunct, so the monitor starts in the disjoint phase
/// and reads serializability off the conjunct graphs; a planted
/// conjunct cycle must show there as a global one, at the same
/// position. A spanning transaction that arrives after a sweep has
/// summarized such a cycle builds the global graph over the survivors
/// — frozen where the cycle closed — and must leave every verdict an
/// uncompacted twin reaches; one retracted just after it triggered the
/// build, then pushed again, must too.
#[test]
fn stream_shape_verdicts_match_the_batch_deciders() {
    let scopes = lane_scopes();
    for (plant, logged, sweep) in [
        (Plant::ConjunctCycle, false, false),
        (Plant::SpanAfterSweep, false, true),
        (Plant::RetractSpan, true, false),
    ] {
        for rep in 0..8 {
            let trail = Trail::default();
            let m = match logged {
                true => ShardedMonitor::new_logged(scopes.clone()),
                false => ShardedMonitor::new(scopes.clone()),
            }
            .with_journal(Box::new(trail.clone()));
            let schedule = run_stream(&m, &trail, plant, sweep);
            let v = m.verdict();
            assert!(
                verdict_matches_batch(&schedule, &scopes, &v),
                "{plant:?}, rep {rep}: {v:?}\n{schedule}"
            );
            if let Plant::ConjunctCycle | Plant::SpanAfterSweep = plant {
                assert_eq!(v.level, VerdictLevel::Violation, "{plant:?}");
            }
            let twin = ShardedMonitor::new(scopes.clone());
            for op in schedule.ops() {
                twin.push(op.clone()).unwrap();
            }
            assert_eq!(v, twin.verdict(), "{plant:?}, rep {rep}: uncompacted twin");
            for k in 0..scopes.len() {
                assert_eq!(m.lemma6_holds(k), twin.lemma6_holds(k), "{plant:?}");
            }
            check_against_oracles(&schedule, &scopes, &m)
                .unwrap_or_else(|e| panic!("{plant:?}, rep {rep}: {e:?}"));
        }
    }
}
