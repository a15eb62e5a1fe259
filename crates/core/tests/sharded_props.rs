//! Sequential and real-thread properties for the sharded concurrent
//! monitor, held to oracles that share no code with the certifier: the
//! batch deciders and the order verifier, and for each push's flags
//! the single writer's `admits` on the prefix before it — never the
//! other driver's state. The prefix and compaction properties are
//! `common::check_pushes`, which `monitor_props` runs on the single
//! writer; the rest go through `common::check_against_oracles`.
//! The order that the stage locks, taken hand over hand, keep under
//! concurrent pushes and retractions is the pipeline explorer's
//! (`monitor::sharded::explore`). What stays here on real OS threads
//! is what only they show: the memory ordering of the floor
//! publication and of the §2.2 totals stripes, on the stream shape.

mod common;

use common::{
    arb_transactions, arb_workload, batch_verdicts, check_against_oracles, check_flags,
    check_pushes, interleaved_runs, Trail,
};
use proptest::collection::vec;
use proptest::prelude::*;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::sharded::{PushOutcome, ShardedMonitor};
use pwsr_core::monitor::{CompactStats, OnlineMonitor, VerdictLevel};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::ItemSet;
use pwsr_core::txn::Transaction;
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

/// Transaction `j` of `txns`, moved onto lane `k`: its items shifted
/// into conjunct `k` (four items each), its id made the lane's own.
fn on_lane(k: u32, txns: &[Transaction]) -> Vec<Transaction> {
    let on = |j: usize, t: &Transaction| {
        let txn = TxnId(1 + k + LANES * j as u32);
        let item = |o: &Operation| ItemId(4 * k + o.item.0);
        let op = |o: &Operation| Operation {
            txn,
            item: item(o),
            ..o.clone()
        };
        Transaction::new(txn, t.ops().iter().map(op).collect()).expect("respects §2.2")
    };
    txns.iter().enumerate().map(|(j, t)| on(j, t)).collect()
}

/// What one pushing thread saw: each operation with its outcome, in push
/// order, and what each of its sweeps reported.
type Pushed = (Vec<(Operation, PushOutcome)>, Vec<CompactStats>);

/// Push `runs` in order, declaring each transaction finished after its
/// last run and sweeping after every `stride`-th finish.
fn push_runs(m: &ShardedMonitor, runs: &[Vec<Operation>], stride: usize) -> Pushed {
    let (mut pushed, mut sweeps, mut finished) = (Vec::new(), Vec::new(), 0);
    for (r, run) in runs.iter().enumerate() {
        let out = m.push_batch(run).expect("§2.2-valid");
        pushed.extend(run.iter().cloned().zip(out));
        let txn = run[0].txn;
        if runs[r + 1..].iter().all(|later| later[0].txn != txn) {
            m.finish_txn(txn);
            finished += 1;
            if finished % stride == 0 {
                sweeps.push(m.compact());
            }
        }
    }
    (pushed, sweeps)
}

proptest! {
    /// Lane mode on real threads. A monitor without journals, on two
    /// disjoint conjuncts, starts in lane mode: each lane's thread
    /// pushes runs of its own transactions — interleaved, so a lane sees
    /// dirty reads and cycles — finishes them and sweeps every `stride`
    /// finishes. Then transaction S, whose first run went to conjunct 0
    /// before the threads started, pushes a run into conjunct 1: the
    /// first spanning run, known as one by S's totals row alone. It
    /// ends lane mode and the threads push their second halves through
    /// the pipeline. Then the positions are `0..len`, and increase
    /// within each conjunct; every outcome's flags are what the single
    /// writer's probes give its prefix (`common::check_flags`), its
    /// floor is no better than its own flags say; the verdict, the
    /// certificates and the orders pass the oracles, and equal a replay
    /// of the schedule, which `snapshot_schedule` holds from its base;
    /// and `ops_reclaimed` counts what every sweep of both modes
    /// reported, the whole stream once a last sweep has run.
    #[test]
    fn lane_mode_runs_then_a_spanning_run_match_the_single_writer(
        txns in vec(arb_transactions(6, 4), LANES as usize),
        sizes in vec(any::<u8>(), 0..32),
        mix in vec(any::<u8>(), 0..32),
        stride in 1usize..4,
    ) {
        let scopes = lane_scopes();
        let m = ShardedMonitor::new(scopes.clone());
        let lanes: Vec<_> = (0..LANES).map(|k| on_lane(k, &txns[k as usize])).collect();
        let half = |k: usize, second: bool| {
            let (first, rest) = lanes[k].split_at(3);
            interleaved_runs(if second { rest } else { first }, &sizes, &mix)
        };
        let s = TxnId(999);
        let span = [
            Operation::read(s, ItemId(0), Value::Int(0)),
            Operation::write(s, ItemId(4), Value::Int(9)),
        ];
        let phase = |second: bool| -> Vec<Pushed> {
            std::thread::scope(|scope| {
                let threads: Vec<_> = (0..LANES as usize)
                    .map(|k| {
                        let (m, runs) = (&m, half(k, second));
                        scope.spawn(move || push_runs(m, &runs, stride))
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().expect("no panic")).collect()
            })
        };
        let mut pushed = vec![(span[0].clone(), m.push_outcome(span[0].clone()).expect("valid"))];
        let mut lanes_pushed = phase(false);
        let swept: u64 = lanes_pushed.iter().flat_map(|l| &l.1).map(|c| c.ops_reclaimed as u64).sum();
        prop_assert_eq!(m.ops_reclaimed(), swept, "lane-mode sweeps");
        let spanning = m.push_outcome(span[1].clone()).expect("valid");
        pushed.push((span[1].clone(), spanning));
        lanes_pushed.extend(phase(true));
        m.finish_txn(s);
        let last = m.compact();

        for (k, (lane, _)) in lanes_pushed.iter().enumerate() {
            let at: Vec<usize> = lane.iter().map(|(_, o)| o.pos.0).collect();
            prop_assert!(at.is_sorted(), "positions in conjunct {} out of order: {:?}", k % 2, at);
            pushed.extend(lane.iter().cloned());
        }
        pushed.sort_by_key(|(_, o)| o.pos);
        let (ops, out): (Vec<_>, Vec<_>) = pushed.into_iter().unzip();
        prop_assert!(out.iter().enumerate().all(|(p, o)| o.pos.0 == p), "positions not 0..len");
        let schedule = Schedule::new(ops.clone()).expect("each transaction in program order");
        let lanes_end = spanning.pos.0;
        check_flags(&scopes, &ops, &out, lanes_end).map_err(TestCaseError::fail)?;
        for o in &out {
            let own = match (o.caused_violation, o.caused_non_serializable, o.caused_non_dr) {
                (true, _, _) => VerdictLevel::Violation,
                (false, true, true) => VerdictLevel::Pwsr,
                (false, true, false) => VerdictLevel::DrPreserving,
                (false, false, _) => VerdictLevel::Serializable,
            };
            prop_assert!(o.floor >= own, "floor better than its own flags: {:?}", o);
        }
        check_against_oracles(&schedule, &scopes, &m)?;
        let mut replay = OnlineMonitor::new(scopes.clone());
        for op in schedule.ops() {
            replay.push(op.clone()).expect("valid");
        }
        prop_assert_eq!(m.verdict(), replay.verdict(), "replay");
        prop_assert_eq!(m.floor(), replay.verdict().level, "floor at rest");
        let tail = m.snapshot_schedule();
        prop_assert_eq!(tail.ops(), &schedule.ops()[tail.base()..], "snapshot");
        let sweeps = lanes_pushed.iter().flat_map(|l| &l.1).chain([&last]);
        let (moved, reclaimed) = sweeps.fold((0, 0), |(n, ops), c| {
            (n + u64::from(c.ops_reclaimed > 0), ops + c.ops_reclaimed as u64)
        });
        prop_assert_eq!((m.compactions(), m.ops_reclaimed()), (moved, reclaimed), "sweeps");
        prop_assert_eq!(m.ops_reclaimed(), schedule.len() as u64, "the last sweep");
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
/// to their own conjunct, but the monitor keeps a journal, so it runs
/// the pipeline with its global graph from the first push; a planted
/// conjunct cycle must show there as a global one, at the same
/// position. A sweep that summarizes such a cycle leaves the global
/// graph frozen where it closed, and a spanning transaction that
/// arrives after it must still see what the batch deciders give the
/// whole recorded schedule; one retracted just after it pushed, then
/// pushed again, must too.
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
