//! Sequential and real-thread properties for the sharded concurrent
//! monitor, held to oracles that share no code with the certifier: the
//! batch deciders and the order verifier, and for each push's flags
//! the single writer's `admits` on the prefix before it — never the
//! other driver's state. The prefix and compaction properties are
//! `common::check_pushes`, which `monitor_props` runs on the single
//! writer; the rest go through `common::check_against_oracles`.
//! Turnstiles and concurrent retractions are the pipeline explorer's
//! (`monitor::sharded::explore`). What stays here on real OS threads
//! is what only they show: the memory ordering of the floor
//! publication and of the §2.2 totals stripes, on the stream shape.

mod common;

use common::{
    arb_workload, batch_verdicts, check_against_oracles, check_pushes, interleaved_runs, Trail,
};
use proptest::prelude::*;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::VerdictLevel;
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::ItemSet;
use pwsr_core::value::Value;

proptest! {
    /// Sequential pushes: at EVERY prefix the pipeline's verdict is
    /// the batch deciders', each push's whole `PushOutcome` is what the
    /// single writer's probes and the batch deciders give it, and its
    /// certificates and orders pass the oracles
    /// (`common::check_pushes`).
    #[test]
    fn sequential_pushes_match_at_every_prefix(
        workload in arb_workload(3),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        check_pushes::<ShardedMonitor>(&workload, &mix, None, false)?;
    }

    /// Compaction: a compacting pipeline, logged or not, sweeps after a
    /// random stride of completed transactions, held to the same
    /// oracles at every push and after every sweep; summarized
    /// transactions are refused pushes, batch pushes and retractions
    /// (`common::check_pushes`). Half the workloads are
    /// lane-partitioned, so a sweep can summarize a conjunct cycle
    /// before the first spanning transaction builds the global graph.
    #[test]
    fn sharded_compaction_twin_parity(
        workload in arb_workload(5),
        mix in proptest::collection::vec(any::<u8>(), 0..64),
        stride in 1usize..4,
        logged in any::<bool>(),
    ) {
        check_pushes::<ShardedMonitor>(&workload, &mix, Some(stride), logged)?;
    }

    /// Sequential truncation: push everything logged, as `push_batch`
    /// runs cut from the transactions, truncate to a random cut (which
    /// may split a run), keep pushing — at the cut the monitor holds
    /// the prefix and reports, verdict and lock-free floor, what the
    /// batch deciders give it, and at the end it passes the oracles,
    /// as if the truncated suffix never was.
    #[test]
    fn sequential_truncate_matches_fresh_replay(
        (scopes, txns) in arb_workload(3),
        sizes in proptest::collection::vec(any::<u8>(), 0..32),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
        cut_pct in 0usize..=100,
    ) {
        let runs = interleaved_runs(&txns, &sizes, &mix);
        let schedule = Schedule::new(runs.concat()).expect("valid interleaving");
        let ops = schedule.ops();
        let sharded = ShardedMonitor::new_logged(scopes.clone());
        for run in &runs {
            sharded.push_batch(run).expect("valid interleaving");
        }
        let cut = cut_pct * ops.len() / 100;
        prop_assert_eq!(sharded.truncate_to(cut), ops.len() - cut);
        let want = batch_verdicts(&schedule, &scopes)[cut];
        prop_assert_eq!(sharded.verdict(), want, "post-cut verdict");
        prop_assert_eq!(sharded.floor(), want.level, "post-cut floor");
        let held = sharded.snapshot_schedule();
        prop_assert_eq!(held.ops(), &ops[..cut], "post-cut schedule");
        // The truncated monitor keeps certifying: replay the suffix.
        for op in &ops[cut..] {
            sharded.push(op.clone()).expect("valid");
        }
        check_against_oracles(&schedule, &scopes, &sharded)?;
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
/// — frozen where the cycle closed — and must still report what the
/// batch deciders give the whole recorded schedule; one retracted just
/// after it triggered the build, then pushed again, must too.
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
            check_against_oracles(&schedule, &scopes, &m)
                .unwrap_or_else(|e| panic!("{plant:?}, rep {rep}: {e:?}\n{schedule}"));
            if let Plant::ConjunctCycle | Plant::SpanAfterSweep = plant {
                assert_eq!(m.verdict().level, VerdictLevel::Violation, "{plant:?}");
            }
        }
    }
}
