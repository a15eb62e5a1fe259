//! The **pipeline explorer**: the real [`ShardedMonitor`] entry points
//! on real threads, only one of them running at a time, under the
//! hand-over driver of `pwsr_turns`.
//!
//! A worker runs until the pipeline could block or race — before a
//! ranked lock, right after a stage lock's release — and there hands
//! control back. A [`Pick`] chooses the next among the runnable
//! workers: those at their start or in a window, or waiting for a lock
//! no other worker holds. None runnable while one is unfinished is a
//! **deadlock**; a worker's panic (the debug lock-rank asserts
//! included) ends the run too. What runs is the pipeline's own
//! claim-and-serve control flow, not a driver's copy of it. This module
//! names the pipeline's hand-over points and its oracles; a failure
//! lists every step, with the pick list, seed or [`Explore::path`] that
//! reproduces it.

use super::tests::{example2_scopes, rd, wr};
use super::{shard_rank, PushOutcome, ShardedMonitor, RANK_GLOBAL, RANK_SEQ};
use crate::ids::{ItemId, TxnId};
use crate::monitor::ScopeIndex;
use crate::op::Operation;
use crate::pick::{Explore, Pick};
use crate::schedule::Schedule;
use crate::state::ItemSet;
use crate::txn::Transaction;
use common::{
    arb_transactions, check_against_oracles, check_flags, scopes_from_bits, Trail, MAX_ITEMS,
};
use parking_lot::Mutex;
use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

#[path = "../../tests/common/mod.rs"]
mod common;

/// Where a worker of the pipeline hands over.
#[derive(Clone, Copy)]
enum Site {
    /// Before taking the ranked lock of this rank.
    Lock(u32),
    /// Right after a push released the global lock (`None`) or shard k's.
    Released(Option<u32>),
}

/// What one thread took, as the hooks count it: ranked-lock
/// acquisitions by rank.
type Counts = BTreeMap<u32, u32>;

thread_local! {
    /// The calling thread's counts since [`counted`] last reset them.
    static COUNTS: RefCell<Counts> = RefCell::default();
}

/// Run `f`, counting what the calling thread takes meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    COUNTS.with(RefCell::take);
    let out = f();
    (out, COUNTS.with(RefCell::take))
}

/// Hook: before taking the ranked lock of `rank`.
pub(super) fn lock(rank: u32) {
    COUNTS.with(|c| *c.borrow_mut().entry(rank).or_default() += 1);
    pwsr_turns::lock(rank.into(), Site::Lock(rank));
}

/// Hook: the ranked lock of `rank` was released (no hand-over).
pub(super) fn unlock(rank: u32) {
    pwsr_turns::unlock(rank.into());
}

/// Hook: right after a push released the global lock (`None`) or
/// shard `k`'s.
pub(super) fn released(shard: Option<u32>) {
    pwsr_turns::park(Site::Released(shard));
}

fn describe(site: &Site) -> String {
    match *site {
        Site::Lock(RANK_SEQ) => "lock sequence".into(),
        Site::Lock(RANK_GLOBAL) => "lock global".into(),
        Site::Lock(rank) => format!("lock shard {}", rank - RANK_GLOBAL - 1),
        Site::Released(None) => "after global lock".into(),
        Site::Released(Some(k)) => format!("after shard {k} lock"),
    }
}

/// Run each of `workers` under the hand-over driver, with `picks`
/// choosing at every hand-over. Returns the steps taken and, unless
/// every worker finished and the pipeline came to rest, what went
/// wrong. The driver takes no monitor lock until the run is over: a
/// parked worker may hold one.
fn run<'a>(
    m: &ShardedMonitor,
    workers: Vec<Box<dyn FnOnce() + Send + 'a>>,
    picks: &mut dyn Pick<usize>,
) -> (Vec<String>, Result<(), String>) {
    let mut pick = |workers: &[usize], _: &dyn Fn(usize) -> String| picks.pick(workers);
    let (steps, result) = pwsr_turns::run(workers, &describe, &mut pick);
    (steps, result.and_then(|()| at_rest(m)))
}

/// The pipeline at rest: an exact recompute leaves the floor and both
/// position mirrors as every push published them.
fn at_rest(m: &ShardedMonitor) -> Result<(), String> {
    let _s = m.seq.lock();
    let mirror = |at: &AtomicU32| at.load(Ordering::Acquire);
    let floor = || {
        (
            m.floor(),
            mirror(&m.first_violation),
            mirror(&m.first_non_dr),
        )
    };
    let published = floor();
    m.recompute_floor();
    match floor() {
        exact if exact == published => Ok(()),
        exact => Err(format!("floor atomics {published:?}, recomputed {exact:?}")),
    }
}

/// One instance. The `lead` operations — each a prefix of its
/// transaction's — are pushed one by one before any worker starts.
/// Then transaction `t` is pushed by a worker of its own, in program
/// order: the rest of its operations as one `push_batch` run if bit
/// `t - 1` of `batch` is set, else op by op. After its last push it
/// retracts itself if its bit of `abort` is set, else it is declared
/// finished. `sweeper` adds a worker that checkpoints past the aborting
/// transactions and then compacts; `reader` one that asks every
/// quiescent reader. The monitor keeps a journal, the oracles' record
/// of the schedule, and with it the pipeline from its first push,
/// unless `lanes` is set (and nothing aborts): it then runs in lane
/// mode until the first spanning run, and the schedule is read off the
/// pushes' positions.
#[derive(Default)]
struct Case {
    scopes: Vec<ItemSet>,
    lead: Vec<Operation>,
    txns: Vec<Transaction>,
    batch: u32,
    abort: u32,
    sweeper: bool,
    reader: bool,
    lanes: bool,
}

/// What one run of a case did: its steps, and per transaction what
/// each of its pushes took, in push order (the lead's first).
struct Ran {
    steps: Vec<String>,
    counts: Vec<(TxnId, Counts)>,
}

fn bit(mask: u32, t: TxnId) -> bool {
    mask & 1 << (t.0 - 1) != 0
}

/// Run `case` once under `picks`, then every oracle.
fn run_case(case: &Case, picks: &mut dyn Pick<usize>) -> Result<Ran, String> {
    assert!(
        !case.lanes || case.abort == 0,
        "a retraction needs the journal"
    );
    let trail = Trail::default();
    let m = match case.abort {
        0 => ShardedMonitor::new(case.scopes.clone()),
        _ => ShardedMonitor::new_logged(case.scopes.clone()),
    };
    let m = match case.lanes {
        true => m,
        false => m.with_journal(Box::new(trail.clone())),
    };
    let (m, pushed, counts) = (&m, &Mutex::new(Vec::new()), &Mutex::new(Vec::new()));
    // One push of `run` (a singleton unless `batch`): its operations
    // with their outcomes, and what it took.
    let push = move |run: &[Operation], batch: bool| {
        let (out, took) = counted(|| match batch {
            true => m.push_batch(run).expect("well-formed"),
            false => vec![m.push_outcome(run[0].clone()).expect("well-formed")],
        });
        pushed.lock().extend(run.iter().cloned().zip(out));
        counts.lock().push((run[0].txn, took));
    };
    case.lead
        .iter()
        .for_each(|op| push(std::slice::from_ref(op), false));
    let mut workers: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    for t in &case.txns {
        let led = case.lead.iter().filter(|o| o.txn == t.id()).count();
        let rest = &t.ops()[led..];
        workers.push(Box::new(move || {
            match bit(case.batch, t.id()) {
                true if !rest.is_empty() => push(rest, true),
                _ => rest.chunks(1).for_each(|op| push(op, false)),
            }
            if bit(case.abort, t.id()) {
                m.retract_txn(t.id()).expect("never summarized");
            } else {
                m.finish_txn(t.id());
            }
        }));
    }
    if case.sweeper {
        workers.push(Box::new(move || {
            let ids = case.txns.iter().map(Transaction::id);
            m.checkpoint(ids.filter(|&t| bit(case.abort, t)));
            m.compact();
        }));
    }
    if case.reader {
        workers.push(Box::new(move || {
            m.verdict();
            for k in 0..case.scopes.len() {
                m.lemma6_holds(k);
                m.conjunct_order(k);
            }
            assert!(m.resident_bytes_estimate() > 0);
        }));
    }
    let (steps, result) = run(m, workers, picks);
    let mut pushed = std::mem::take(&mut *pushed.lock());
    pushed.sort_by_key(|(_, o)| o.pos);
    let (ops, outcomes): (Vec<_>, Vec<_>) = pushed.into_iter().unzip();
    let schedule = match case.lanes {
        _ if outcomes.iter().enumerate().any(|(p, o)| o.pos.0 != p) && case.abort == 0 => {
            Err(format!("positions not 0..{}: {outcomes:?}", outcomes.len()))
        }
        true => Schedule::new(ops).map_err(|e| format!("not in program order: {e:?}")),
        false => Ok(trail.schedule()),
    };
    let result = result.and_then(|()| check(case, m, &schedule?, &outcomes));
    let mut counts = std::mem::take(&mut *counts.lock());
    counts.sort_by_key(|(t, _)| *t);
    result
        .map(|()| Ran {
            steps: steps.clone(),
            counts,
        })
        .map_err(|e| {
            let steps = steps.iter().enumerate();
            let steps = steps.map(|(n, step)| format!("\n  {:>3}. {step}", n + 1));
            format!("{e}\nsteps:{}", steps.collect::<String>())
        })
}

/// The oracles over a finished run:
/// - *schedule*: the journal (or, in lane mode, the pushes' positions)
///   holds exactly the survivors' operations, each transaction's in
///   program order, and the monitor's own schedule from its base on;
/// - *batch and verifier*: [`check_against_oracles`] — every verdict
///   field and certificate equals what the batch deciders give the
///   recorded schedule, and every conjunct order passes the order
///   verifier on the live tail;
/// - *breach flags*, without retractions: at each position the `Pwsr`
///   and `PwsrDr` flags equal the single writer's refusal on the prefix
///   before it, and a `Serializable` breach comes only with a refusal.
///   A refusal without that breach — a miss — is allowed only in lane
///   mode, after a conjunct cycle whose closing push was told; the
///   pipeline's flags are exact.
fn check(case: &Case, m: &ShardedMonitor, s: &Schedule, out: &[PushOutcome]) -> Result<(), String> {
    let survivors = || case.txns.iter().filter(|t| !bit(case.abort, t.id()));
    if s.len() != survivors().map(Transaction::len).sum::<usize>()
        || survivors().any(|t| s.transaction(t.id()).ops() != t.ops())
    {
        return Err(format!("not the survivors' operations:\n{s}"));
    }
    let held = m.snapshot_schedule();
    if held.ops() != &s.ops()[held.base()..] {
        return Err(format!("the monitor holds another schedule:\n{held}\n{s}"));
    }
    check_against_oracles(s, &case.scopes, m).map_err(|e| format!("{e:?}\n{s}"))?;
    if case.abort != 0 {
        return Ok(());
    }
    // Lane mode ends at the run holding the first operation that makes
    // its transaction span: two scopes, or none. It never starts on
    // overlapping scopes or with a journal.
    let (index, ops) = (ScopeIndex::new(&case.scopes), s.ops());
    let mut home = std::collections::HashMap::new();
    let spans = |op: &Operation| match *index.of(op.item) {
        [k] => *home.entry(op.txn).or_insert(k) != k,
        _ => true,
    };
    let lanes_end = match ops.iter().position(spans) {
        _ if !case.lanes || !index.disjoint() => 0,
        None => ops.len(),
        Some(p) if bit(case.batch, ops[p].txn) => {
            ops.iter().position(|o| o.txn == ops[p].txn).unwrap_or(p)
        }
        Some(p) => p,
    };
    check_flags(&case.scopes, ops, out, lanes_end).map_err(|e| format!("{e}\n{s}"))
}

/// A seeded draw (splitmix64).
fn seeded(mut x: u64) -> impl FnMut(usize) -> usize {
    move |n| {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Picks read off a list: the `i`-th choice is `v[i] % n`, and 0 — the
/// first runnable worker — once `v` is spent. A failing list shrinks
/// by the test runner's own rules (drop elements, lower each toward 0),
/// so it shrinks toward the schedule that always runs the first.
fn listed(v: &[u8]) -> impl FnMut(usize) -> usize + '_ {
    let mut v = v.iter();
    move |n| v.next().map_or(0, |&c| usize::from(c) % n)
}

/// Every schedule of `case`, by replay; returns how many ran.
fn explore_all(case: &Case) -> usize {
    let mut explore = Explore::default();
    for runs in 1.. {
        if let Err(e) = run_case(case, &mut explore) {
            panic!("schedule {runs}, path {:?}: {e}", explore.path());
        }
        if !explore.advance() {
            return runs;
        }
    }
    unreachable!()
}

/// The schedules the draws seeded by `seeds` pick.
fn sample(case: &Case, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        run_case(case, &mut seeded(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// A case of hand-written transactions, `T1`, `T2`, … in order.
fn case(scopes: Vec<ItemSet>, ops: Vec<Vec<Operation>>) -> Case {
    let txn = |ops: Vec<Operation>| Transaction::new(ops[0].txn, ops).expect("well-formed");
    let txns = ops.into_iter().map(txn).collect();
    Case {
        scopes,
        txns,
        ..Case::default()
    }
}

/// Lane mode: two pushers of one operation each into the lane of
/// conjunct 0 — one ranked lock each, no turn — every schedule, then
/// with a reader, sampled. A position claimed before the lock is taken
/// can reach the lane out of position order, which the conjunct order
/// then betrays. Then, every schedule, T1's write of `d0` pushed first
/// and its write of `d1` racing T2's read of `d0`: read first, the
/// lane's conjunct stage marks T1, and T1's next write, in the same
/// lane, materializes the dirty read there.
#[test]
fn explore_two_pushers_in_one_lane() {
    let mut c = case(
        example2_scopes(),
        vec![vec![wr(1, 0, 1)], vec![rd(2, 0, 1)]],
    );
    c.lanes = true;
    assert_eq!(explore_all(&c), 6);
    c.reader = true;
    sample(&c, 0..300);
    let mut c = case(
        example2_scopes(),
        vec![vec![wr(1, 0, 1), wr(1, 1, 1)], vec![rd(2, 0, 1)]],
    );
    (c.lead, c.lanes) = (vec![wr(1, 0, 1)], true);
    assert_eq!(explore_all(&c), 6);
}

/// Lane mode, every schedule: two pushers on two conjuncts and a
/// sweeper whose sweep drains both lanes, merges them into one
/// frontier and summarizes what each finished.
#[test]
fn explore_two_lanes_and_a_sweeper() {
    let mut c = case(
        example2_scopes(),
        vec![vec![wr(1, 0, 1), rd(1, 1, 0)], vec![wr(2, 2, 1)]],
    );
    (c.lanes, c.sweeper) = (true, true);
    assert_eq!(explore_all(&c), 1620);
}

/// Leaving lane mode. Every schedule: T1's write of `d0` is pushed in
/// lane mode; then T1's write of `d2`, the first spanning run, races
/// T2's read of `d0` in the lane, a mark on T1. The spanning run drains
/// the lanes and pushes what they retain again through the pipeline; a
/// lane push that meets its lane gone takes the pipeline as well.
/// Sampled: the same race beside T3, whose one write leads at `p@0`,
/// and a sweeper that may summarize T3 before the spanning run or
/// after it. Two runs of one schedule count the same locks for every
/// push.
#[test]
fn explore_the_first_spanning_run_against_a_lane_push_and_a_sweep() {
    let mut c = case(
        example2_scopes(),
        vec![vec![wr(1, 0, 1), wr(1, 2, 1)], vec![rd(2, 0, 1)]],
    );
    (c.lead, c.lanes) = (vec![wr(1, 0, 1)], true);
    assert_eq!(explore_all(&c), 1294);
    c.txns
        .push(Transaction::new(TxnId(3), vec![wr(3, 0, 5)]).expect("well-formed"));
    (c.lead, c.sweeper) = (vec![wr(3, 0, 5), wr(1, 0, 1)], true);
    sample(&c, 0..300);
    for seed in 0..20 {
        let counts = || {
            run_case(&c, &mut seeded(seed))
                .unwrap_or_else(|e| panic!("{e}"))
                .counts
        };
        assert_eq!(counts(), counts(), "seed {seed}");
    }
}

/// What a push takes, as the hooks count it. In lane mode: one ranked
/// lock, its home shard's, singly or as a run. Through the pipeline:
/// the sequence lock, the global lock and one lock per touched shard,
/// each once per run. A monitor with a journal, or a logged one, takes
/// the pipeline from its first push, on disjoint scopes too.
#[test]
fn a_push_takes_one_lock_in_lane_mode_and_the_pipeline_after() {
    let through = |shards: &[usize]| -> Counts {
        let ranks = [RANK_SEQ, RANK_GLOBAL].into_iter();
        let ranks = ranks.chain(shards.iter().map(|&k| shard_rank(k)));
        ranks.map(|rank| (rank, 1)).collect()
    };
    let m = ShardedMonitor::new(example2_scopes());
    let took = |m: &ShardedMonitor, run: &[Operation]| {
        counted(|| m.push_batch(run).expect("well-formed")).1
    };
    let home = |k| BTreeMap::from([(shard_rank(k), 1)]);
    assert_eq!(took(&m, &[wr(1, 0, 1)]), home(0));
    assert_eq!(took(&m, &[wr(2, 2, 1)]), home(1));
    assert_eq!(took(&m, &[rd(3, 0, 1), rd(3, 1, 0)]), home(0));
    took(&m, &[wr(1, 2, 2)]);
    assert_eq!(took(&m, &[rd(4, 0, 1), wr(4, 2, 3)]), through(&[0, 1]));
    let journaled = ShardedMonitor::new(example2_scopes()).with_journal(Box::new(Trail::default()));
    for m in [journaled, ShardedMonitor::new_logged(example2_scopes())] {
        assert_eq!(took(&m, &[wr(1, 0, 1)]), through(&[0]));
        assert_eq!(took(&m, &[wr(2, 2, 1)]), through(&[1]));
        assert_eq!(took(&m, &[rd(3, 0, 1), rd(3, 1, 0)]), through(&[0]));
    }
}

/// Two pushers of one operation each, every schedule: on one shard,
/// and on two, where one item lies in both scopes and takes both shard
/// locks. A serve that lets go of a stage lock before it holds the next
/// one it needs — the sequence lock before the global one, or the
/// global lock before the run's last shard lock — lets the later run
/// reach a stage first, which the oracles see. The counts are those of
/// the hand-over points.
#[test]
fn explore_two_pushers_through_the_stage_locks() {
    let scope = |items: [u32; 2]| items.map(ItemId).into_iter().collect();
    let one_shard = case(
        vec![scope([0, 1])],
        vec![vec![wr(1, 0, 1)], vec![rd(2, 0, 1)]],
    );
    assert_eq!(explore_all(&one_shard), 236);
    let scopes = vec![scope([0, 1]), scope([1, 2])];
    let two_shards = case(scopes, vec![vec![wr(1, 1, 1)], vec![wr(2, 2, 1)]]);
    assert_eq!(explore_all(&two_shards), 494);
}

/// A push's floor publication against a retraction's recompute, every
/// schedule. The lead `w1(d1) r2(d0) w1(d0) r2(d1)` closes the
/// `{d0, d1}` cycle, and T2 has read T1's write dirty. Then T2 retracts
/// itself while T1's `r1(d2)` — into the frozen global graph, and
/// materializing the dirty read — races it. The retraction heals every
/// rung, so a floor T1 publishes after the recompute is stale: a push
/// publishes under its run's last stage lock, which the recompute takes.
#[test]
fn explore_a_push_publishes_its_floor_before_a_retraction_recomputes_it() {
    let mut c = case(
        example2_scopes(),
        vec![
            vec![wr(1, 1, 1), wr(1, 0, 1), rd(1, 2, 0)],
            vec![rd(2, 0, 0), rd(2, 1, 1)],
        ],
    );
    c.lead = vec![wr(1, 1, 1), rd(2, 0, 0), wr(1, 0, 1), rd(2, 1, 1)];
    c.abort = 0b10;
    assert_eq!(explore_all(&c), 420);
}

/// Every lock-taking entry point as a concurrent worker, on three 2-op
/// transactions spanning both scopes: the pushers (T3 as one
/// `push_batch` run), T2 retracting itself, a checkpoint-then-compact
/// sweeper and a reader, under the debug lock-rank asserts.
#[test]
fn explore_the_lock_discipline_on_every_entry_point() {
    let ops = vec![
        vec![wr(1, 0, 1), rd(1, 2, 3)],
        vec![rd(2, 0, 1), wr(2, 1, 2)],
        vec![wr(3, 2, 3), rd(3, 1, 2)],
    ];
    let mut c = case(example2_scopes(), ops);
    (c.batch, c.abort, c.sweeper, c.reader) = (0b100, 0b010, true, true);
    sample(&c, 0..500);
}

/// Regression: T3's push at p@2 holds shard 0, its last stage lock,
/// and waits in the window after the global lock's release while T1's
/// push at p@3 closes the `{d2}` cycle of `r1(d2) w2(d2) w3(d0) w1(d2)`.
/// The prefix before p@2 is serializable, so T3 must not be told of a
/// `Serializable` breach; it was while a push read the violation mirror
/// after its global stage whatever position had closed the cycle, and
/// would be again if a pipeline push took that flag from the mirror
/// without filtering by position. Seed 50 reaches that window with the hand-over points as
/// they stand, and the step list must show it did: a moved hook fails
/// here rather than test nothing.
#[test]
fn explore_a_later_cycle_is_not_an_earlier_push_breach() {
    let ops = vec![
        vec![rd(1, 2, 0), wr(1, 2, 1)],
        vec![wr(2, 2, 2)],
        vec![wr(3, 0, 3)],
    ];
    let ran = run_case(&case(example2_scopes(), ops), &mut seeded(50));
    let steps = ran.unwrap_or_else(|e| panic!("{e}")).steps;
    assert!(
        reaches_the_later_cycle_window(&steps),
        "{}",
        steps.join("\n")
    );
}

/// Do `steps` show T3's p@2 parked with shard 0 held while T1's p@3
/// takes shard 1 and closes the cycle there?
fn reaches_the_later_cycle_window(steps: &[String]) -> bool {
    let at =
        |step: &str| -> Vec<usize> { (0..steps.len()).filter(|&n| steps[n] == step).collect() };
    let [t1, t2, t3] = [0, 1, 2].map(|w| at(&format!("worker {w}: lock sequence")));
    let [own, resumed] = ["worker 2: lock shard 0", "worker 2: after global lock"].map(at);
    let [shard, closed] = ["worker 0: lock shard 1", "worker 0: after global lock"].map(at);
    // T1 claims p@0 and p@3 around T2's p@1 and T3's p@2. T3 takes
    // shard 0, releases the global lock and parks; T1's p@3 takes shard
    // 1 and resumes from its own global release to close the cycle
    // there, before T3 resumes to publish its floor.
    let claims = [t1.first(), t2.first(), t3.first(), t1.get(1)];
    let window = [own.first(), shard.get(1), closed.get(1), resumed.first()];
    let reached = |w: &[Option<&usize>]| w.iter().all(Option::is_some) && w.is_sorted();
    reached(&claims) && reached(&window)
}

proptest! {
    /// Up to four transactions over two scopes, with batch and abort
    /// masks (no aborts in half the cases), an optional sweeper and up
    /// to two operations pushed before the race: three schedules per
    /// case, each picked from a list of its own and run through every
    /// oracle.
    #[test]
    fn explore_seeded_schedules_pass_every_oracle(
        txns in arb_transactions(4, MAX_ITEMS),
        n in 2usize..=4,
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        batch in 0u32..16,
        abort in 0u32..32,
        sweeper in any::<bool>(),
        lanes in any::<bool>(),
        // 60 is a multiple of every worker count, so `% n` is uniform.
        lead in 0usize..3,
        lists in vec(vec(0u8..60, 0..160), 3),
    ) {
        let (scopes, txns) = (scopes_from_bits(d1_bits, d2_bits), txns[..n].to_vec());
        let abort = if abort < 16 { abort } else { 0 };
        // Lane mode (no journal) in half the cases without aborts.
        let lanes = lanes && abort == 0;
        // The first operation of each of the first `lead` transactions
        // is pushed before the workers race.
        let lead = txns.iter().take(lead).map(|t| t.ops()[0].clone()).collect();
        let case = Case { scopes, lead, txns, batch, abort, sweeper, reader: false, lanes };
        for v in &lists {
            run_case(&case, &mut listed(v)).unwrap_or_else(|e| panic!("picks {v:?}: {e}"));
        }
    }
}
