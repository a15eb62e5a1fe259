//! Sequential and real-thread properties for the sharded concurrent
//! monitor.
//!
//! Two oracles pin [`ShardedMonitor`] (`common::check_against_oracles`):
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
//! The turnstiles, retractions under concurrent pushes and the
//! per-push breach flags are the pipeline explorer's
//! (`monitor::sharded::explore`): it runs the entry points on threads
//! one at a time and picks every hand-over. What stays here on real
//! OS threads is what only they can show — the memory ordering of the
//! floor publication and of the §2.2 totals stripes, on the stream
//! shape.

mod common;

use common::{
    arb_transactions, check_against_oracles, interleave_random, interleaved_runs,
    order_respects_conflicts, scopes_from_bits, Trail, MAX_ITEMS,
};
use proptest::prelude::*;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::ids::{ItemId, OpIndex, TxnId};
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::{OnlineMonitor, Verdict, VerdictLevel};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::{is_conflict_serializable, is_conflict_serializable_proj};
use pwsr_core::state::ItemSet;
use pwsr_core::value::Value;

proptest! {
    /// Sequential truncation parity: push everything logged, as
    /// `push_batch` runs cut from the transactions, truncate to a
    /// random cut (which may split a run), keep pushing — at the cut
    /// and at the end the sharded monitor equals a single-writer
    /// monitor that never saw the truncated suffix at all.
    #[test]
    fn sequential_truncate_matches_fresh_replay(
        txns in arb_transactions(3, MAX_ITEMS),
        sizes in proptest::collection::vec(any::<u8>(), 0..32),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        cut_pct in 0usize..=100,
    ) {
        let runs = interleaved_runs(&txns, &sizes, &mix);
        let ops = runs.concat();
        let scopes = scopes_from_bits(d1_bits, d2_bits);
        let sharded = ShardedMonitor::new_logged(scopes.clone());
        for run in &runs {
            sharded.push_batch(run).expect("valid interleaving");
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
                let op = Operation::write(t.id(), ItemId(MAX_ITEMS), Value::Int(0));
                prop_assert!(compacting.push(op.clone()).is_err());
                prop_assert!(compacting.push_batch(&[op]).is_err());
                prop_assert!(compacting.retract_txn(t.id()).is_err());
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
    trail.schedule()
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
