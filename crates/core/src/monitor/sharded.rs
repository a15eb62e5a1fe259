//! The **sharded concurrent monitor**: the certifier of
//! [`OnlineMonitor`](super::OnlineMonitor) driven by many threads at
//! once, without a single big mutex — and, when logging is enabled,
//! with **speculative-suffix retraction** so an optimistic executor
//! can abort.
//!
//! A threaded executor certifying through the single writer
//! serializes every operation behind one lock — exactly the
//! parallelism the PWSR criterion exists to permit. The paper's
//! structure says that is unnecessary: the per-conjunct projections
//! are *independent* (Definition 2 quantifies per conjunct, and the
//! conjunct data sets are disjoint in every interesting instance). The
//! certifier is already written that way — three kinds of plain stage
//! state in the private `stages` module, each owning its `apply`,
//! `undo`, `compact` and journal — so this module writes no
//! certification logic of its own. It holds the same structs the
//! single writer owns, each behind its own `parking_lot` lock, and
//! adds what only a pipeline needs: the order in which threads get to
//! call them.
//!
//! ## The pipeline
//!
//! A monitored prefix is a *total order*, so something must define it.
//! Outside lane mode (next section), [`ShardedMonitor::push_batch`]
//! takes one transaction's run through three stages:
//!
//! 1. **sequence** (one short mutex around `SeqState`): append the run
//!    to the growing [`Schedule`], update the `last_write`/reads-from
//!    entries, and list the conjunct shards whose scopes contain its
//!    items (looked up in the scopes' item → conjunct index, built once
//!    at construction). This section is `O(words)` with **no graph work
//!    and no §2.2 scans** — the per-transaction read/write totals that
//!    back the §2.2 validation live *outside* the mutex, in a striped
//!    table (each transaction's row is touched only by the thread
//!    pushing that transaction, per the program-order contract), so the
//!    order-claiming region is the thinnest it can be. The durability
//!    journal hears of the run here, which makes journal order claimed
//!    order.
//! 2. **global** (`GlobalState` behind its own lock): delayed-read
//!    tracking (Definition 5 marks, the first-non-DR prefix, the
//!    per-conjunct Lemma-6 kills) and the global reduced conflict graph
//!    under Pearce–Kelly, from the pipeline's first push, as the single
//!    writer keeps them. Only lane mode leaves it idle.
//! 3. **shards** (one `ShardState` per conjunct behind its own lock):
//!    each touched conjunct's reduced conflict graph. Operations on
//!    *different* conjuncts proceed through different shards
//!    concurrently — this is where the parallelism the single writer
//!    forfeits comes back.
//!
//! The stage locks carry the order, taken **hand over hand**: a push
//! takes the global lock before it releases the sequence lock, and
//! holds the global lock until it holds the last shard lock its run
//! touches (shards ascending, each before it works the next; those
//! before the last under the global lock). A run claimed later cannot
//! reach a stage first: it waits for the global lock, which its
//! predecessor lets go only once every shard it still needs is held.
//! So every stage sees its operations in claimed-position order, and
//! the stage code is the single writer's, so each component's state
//! equals the single-writer monitor's on the same interleaving — the
//! final [`ShardedMonitor::verdict`] is **byte-identical** to replaying
//! the recorded schedule through an `OnlineMonitor`. What the pipeline
//! explorer (the test-only `explore` module) checks is therefore this
//! module's own part: that the hand-over keeps claimed order in
//! whatever order threads reach the locks, under aborts and
//! compactions. It runs the entry points on real threads, one at a
//! time, and picks who goes next before every ranked lock and after
//! each stage lock a push releases — every schedule of the smallest
//! instances, a seeded sample of larger ones. Only the *wait* for the
//! global lock overlaps the sequence hold: global work runs after the
//! sequence lock is released, so while one thread works the global
//! stage for position `p`, another can claim `p+1` and a third work a
//! shard for `p-1`; throughput is bounded by the *widest stage*, not by
//! the sum.
//!
//! ## Lane mode
//!
//! On a monitor whose scopes are pairwise disjoint and that keeps no
//! journal of either kind ([`ShardedMonitor::new`] without
//! [`ShardedMonitor::with_journal`]), every push runs without the
//! pipeline until the first run that spans two conjuncts (or touches an
//! item outside every scope): the disjoint phase. Each conjunct keeps a
//! *lane* beside its shard state, behind the shard's lock: a stage-1
//! state of its own (schedule, reads-from, first positions, finished
//! flags), whose positions and slots are the lane's, and where each of
//! its retained operations stands in the whole order. In the phase
//! every conflict, reads-from pair and delayed-read test stays inside
//! one conjunct (the stage module's docs), so every merge of the lanes
//! in position order is what the single writer would certify, and each
//! lane's state is the single writer's restricted to the lane. The
//! shard state keeps the delayed-read marks of the lane's transactions,
//! and the global stage stays idle: the shards decide serializability.
//!
//! - *A push.* It validates its §2.2 totals, takes its home shard's
//!   lock, and there calls the lane's `SeqState::apply`, claims its
//!   positions with one `fetch_add` on a shared counter, and calls
//!   `ShardState::apply` at them; it publishes the floor once the lock
//!   is released. No sequence lock and no global lock. Positions are
//!   claimed under the lock and filled before its release, so each
//!   lane and shard sees its operations in position order, and a drain
//!   never finds a claimed position empty.
//! - *The home check.* A run that keeps to one conjunct still spans if
//!   an earlier run of its transaction went to another one. The
//!   transaction's §2.2 totals row, which the push locks anyway, holds
//!   its home, so the check needs no sequence lock.
//! - *Summarized transactions* are refused in every lane: there is one
//!   summarized set, kept in the stage-1 state of the whole order (its
//!   ranges coalesce across ids that interleave between lanes), and
//!   each lane reads a copy, refreshed at each sweep under the drain.
//! - *Compaction* drains the lanes by taking every shard's lock in rank
//!   order under the sequence lock, hands each recorded finish to its
//!   transaction's lane, computes one frontier over all lanes (the
//!   single writer's, found over the lanes' transactions in order of
//!   their first positions) and sweeps each lane below it.
//! - *Readers* combine the lanes without leaving lane mode: `len`,
//!   `verdict`, `log_floor` (an unjournaled monitor's is its length),
//!   `resident_bytes_estimate`, `compactions`, `ops_reclaimed`,
//!   `is_summarized`, `conjunct_order` (through the lane's own slots)
//!   and the Lemma 2/6 readers. [`ShardedMonitor::snapshot_schedule`]
//!   and [`ShardedMonitor::into_parts`] build the lanes' merge in
//!   position order, drained, and stay in lane mode.
//! - *Leaving lane mode* is for good. The first spanning run (or a
//!   retraction) takes the sequence lock, drains the lanes, takes each
//!   out and gives the global stage and each conjunct's a fresh state
//!   that keeps only what the summarized prefix decided for good: a
//!   cycle closed there and, for the global stage, the first non-DR
//!   position and the Lemma 6 kills. Then, still under the sequence
//!   lock, it pushes the lanes' retained operations again, in position
//!   order, through `claim` and `serve` into the stage-1 state of the
//!   whole order (which stood empty at the sweeps' base) and every
//!   other stage, carries the finished flags over, and claims its own
//!   run as the pipeline's first spanning run. A lane push that finds
//!   its lane gone takes the pipeline behind it.
//! - *Who keeps the pipeline.* The optimistic executors' logged
//!   monitors and every WAL-backed run need positions in journal order,
//!   which the sequence lock gives. The threaded two-phase-locking
//!   executor's monitor without a WAL runs in lane mode. Of the
//!   benchmark's workloads, `stream_local` is the one that stays in
//!   lane mode; `stream_cross` leaves it within eight transactions per
//!   lane, and `occ_*` and `recover_replay` never enter it. Outside
//!   lane mode there is no disjoint phase: the pipeline keeps every
//!   stage from its first push.
//!
//! The verdict ladder is additionally mirrored into a **lock-free
//! atomic floor** (`fetch_max` over the ladder rank, `fetch_min` over
//! first-violation and first-non-DR positions, the rung composed from
//! the two position mirrors): `push` returns the floor without
//! taking any further lock, and readers get a sound "no better than"
//! answer mid-flight; the exact `Verdict` is assembled by
//! [`ShardedMonitor::verdict`] (exact at quiescence). The floor only
//! worsens between retractions; [`ShardedMonitor::truncate_to`] and
//! [`ShardedMonitor::retract_txn`] recompute it exactly. A push loads
//! the floor first and calls `fetch_max` only when its own rung would
//! raise it, so lanes whose rung is already met share the floor's
//! cache line without writing it.
//!
//! ## Retraction
//!
//! A monitor built with [`ShardedMonitor::new_logged`] has every stage
//! journal what it applies (`monitor::undo`): each stage state
//! owns its journal, so the journal sits *behind the stage's existing
//! lock*, and because each stage sees its operations in claimed order
//! each journal is automatically in position order — the LIFO
//! retraction invariant holds per stage without any cross-stage
//! coordination.
//!
//! The floor is published under the run's last stage lock: its last
//! shard's, or the global lock for a run that touches no shard. So the
//! **drain** is nothing but the locks in rank order: whoever holds the
//! sequence lock and then takes the global lock finds every earlier run
//! past the global stage, each holding at most its last shard lock; a
//! shard lock taken after that finds the shard's runs served and their
//! floors published. [`ShardedMonitor::truncate_to`] retracts a
//! speculative suffix that way: it holds the sequence mutex (no new
//! positions can be claimed), takes the global lock, and hands
//! `SeqState::truncate` (which bounds, journals and pops the schedule) a
//! closure that has each other stage undo its last entry; the global
//! stage stays locked for the whole truncation, and a shard is locked
//! only while *its own* entries pop, so the cost is `O(ops undone)`
//! counted per shard, not `O(schedule)`. The exact floor recompute that
//! follows takes the global lock and every shard's, so no stale
//! `fetch_max` lands after it.
//! [`ShardedMonitor::retract_txn`] is the abort primitive on top, and
//! has the one shape retraction has under either driver: truncate to
//! the victim's first operation, then re-push the survivors through
//! the ordinary admission path (the same claim and serve as a push,
//! under the sequence lock the truncation already holds). Both leave
//! the monitor byte-identical to a single-writer replay of the
//! surviving schedule — pinned by the explorer's schedules, in which
//! transactions retract themselves while others push; what a re-push
//! may and may not be assumed
//! to preserve is `retract_txn`'s doc comment, and
//! `tests/retract_props.rs` holds both drivers to it.
//!
//! [`ShardedMonitor::checkpoint`] bounds the journals' memory over a
//! long run: once the caller knows which transactions may still
//! abort, stage 1's floor rises to the oldest live transaction's first
//! operation (an unlogged monitor's is always its length) and, if it
//! moved, every stage drops its deltas below it, in lock-rank order —
//! a drain. [`ShardedMonitor::compact`] then collapses the finished
//! prefix below that floor, stage by stage in lock-rank order, so each
//! stage is swept once the runs that still needed it are served.
//! [`ShardedMonitor::finish_txn`] takes no sequence lock: it records
//! the id in the transaction's §2.2-totals stripe, and whatever next
//! reads or moves the finished flags (a frontier, a sweep, a
//! truncation) applies the recorded ids first, under the sequence lock
//! it holds anyway.
//!
//! ## Lock discipline
//!
//! The pipeline has one lock kind: every stage sits behind an
//! exclusive mutex, the quiescent readers (`verdict`, the certificates,
//! `conjunct_order`, the resident estimate) included — nothing asks the
//! stages a read-only question while pushes are in flight. The locks
//! carry fixed *ranks* — sequence mutex (0), global stage (1),
//! conjunct shard `k` (2 + k) — and every code path acquires strictly
//! ascending (holding a lock, only higher ranks may be taken), which
//! rules out deadlock by resource ordering. The same order is the
//! pipeline's: a push holds the sequence lock until it holds the global
//! one, and the global lock until it holds its last shard lock, so the
//! locks alone carry the claimed order (see "The pipeline"). A
//! retraction, checkpoint or sweep holds the sequence lock and takes
//! the global lock, then the shard locks: that is the drain. A
//! lane-mode push takes one ranked lock, its home shard's, and holds
//! nothing else. A lane-mode sweep, the merged snapshot and the end of
//! lane mode hold the sequence lock and then every shard's lock at
//! once, in rank order (the end of lane mode takes the global lock
//! between them, to hand the global stage what the sweeps decided):
//! that is the lanes' drain, since a lane push claims and fills its
//! positions under its one lock. The sequence lock is what keeps lane
//! mode from ending under a reader. Debug builds track held
//! ranks per thread and assert the discipline on every acquisition
//! (the private `lock_order` tracker), so a lock-order regression
//! fails deterministically in tests — the pipeline explorer runs
//! every lock-taking entry point (pushes singly and as runs, the
//! quiescent readers, retraction, checkpoint, compaction) as
//! concurrent workers of a small workload, one schedule after another,
//! under the asserts. The §2.2-totals
//! stripes stand outside the ranks: a thread holds at most one and
//! takes no other lock while it does, so one may be taken under the
//! sequence mutex.

use super::journal::MonitorJournal;
use super::stages::{earliest, GlobalState, SeqState, ShardState, TxnTotals};
use super::{AdmissionLevel, Applied, CompactStats, ScopeIndex, Verdict, VerdictLevel};
use crate::error::Result;
use crate::ids::{IdMap, OpIndex, TxnId};
use crate::op::Operation;
use crate::schedule::Schedule;
use crate::state::ItemSet;
use parking_lot::{Mutex, MutexGuard};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Instant;

const NO_POS: u32 = u32::MAX;
/// No conjunct: a home not drawn yet, or a position no lane holds.
const NO_LANE: u32 = u32::MAX;

/// The pipeline explorer: threads run one at a time, handing over at
/// the hook calls below (before a ranked lock, after a stage lock's
/// release).
#[cfg(test)]
#[path = "explore.rs"]
mod explore;

/// The pipeline's deadlock-freedom discipline, made checkable: every
/// lock carries a numeric *rank* — sequence mutex [`RANK_SEQ`] = 0,
/// global stage [`RANK_GLOBAL`] = 1, shard `k` [`shard_rank`] = 2 + k
/// — and a lock may only be acquired while every lock currently held
/// by the same thread has a **strictly smaller** rank (seq → global →
/// shards, ascending). Any two threads then order their lock
/// acquisitions consistently with one global partial order, which
/// rules out deadlock by the classical resource-ordering argument.
///
/// Debug builds maintain a thread-local stack of held ranks and
/// assert the discipline on every acquisition, so a lock-order
/// regression fails deterministically in tests (the pipeline explorer
/// takes every entry point through them); release builds compile the
/// tracking away entirely.
mod lock_order {
    #[cfg(debug_assertions)]
    use std::cell::RefCell;

    #[cfg(debug_assertions)]
    thread_local! {
        /// Ranks of the locks this thread currently holds, in
        /// acquisition order.
        static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    /// Record (debug) that the current thread is about to acquire a
    /// lock of `rank`; panics if any held lock's rank is not strictly
    /// smaller.
    pub(super) fn acquire(rank: u32) {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&top) = held.iter().max() {
                assert!(
                    rank > top,
                    "lock-order violation: acquiring rank {rank} while rank {top} is held \
                     (discipline: seq = 0 → global = 1 → shard k = 2 + k, strictly ascending)"
                );
            }
            held.push(rank);
        });
        #[cfg(not(debug_assertions))]
        let _ = rank;
    }

    /// Record (debug) that the current thread released a lock of
    /// `rank`.
    pub(super) fn release(rank: u32) {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let at = held
                .iter()
                .rposition(|&r| r == rank)
                .expect("releasing a lock rank this thread does not hold");
            held.remove(at);
        });
        #[cfg(not(debug_assertions))]
        let _ = rank;
    }
}

/// Rank of the order-claiming sequence mutex (stage 1).
const RANK_SEQ: u32 = 0;
/// Rank of the global-stage lock (stage 2).
const RANK_GLOBAL: u32 = 1;
/// Rank of conjunct shard `k`'s lock (stage 3; ascending in `k`).
const fn shard_rank(k: usize) -> u32 {
    2 + k as u32
}

/// A [`Mutex`] that checks the [`lock_order`] discipline in debug
/// builds (zero-cost passthrough in release).
#[derive(Debug)]
struct RankedMutex<T> {
    rank: u32,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    fn new(rank: u32, value: T) -> RankedMutex<T> {
        RankedMutex {
            rank,
            inner: Mutex::new(value),
        }
    }

    fn lock(&self) -> Held<'_, T> {
        lock_order::acquire(self.rank);
        #[cfg(test)]
        explore::lock(self.rank);
        RankedGuard {
            rank: self.rank,
            guard: self.inner.lock(),
        }
    }

    fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// RAII pairing of a lock guard with its rank: releases the rank in
/// the [`lock_order`] tracker when the guard drops.
struct RankedGuard<G> {
    rank: u32,
    guard: G,
}

/// A held [`RankedMutex`].
type Held<'a, T> = RankedGuard<MutexGuard<'a, T>>;

impl<G: Deref> Deref for RankedGuard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for RankedGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

impl<G> Drop for RankedGuard<G> {
    fn drop(&mut self) {
        lock_order::release(self.rank);
        #[cfg(test)]
        explore::unlock(self.rank);
    }
}

/// How many independently locked parts the totals table has.
const TOTALS_STRIPES: usize = 16;
const _: () = assert!(TOTALS_STRIPES.is_power_of_two());

/// The §2.2 totals of every live transaction, and the finishes
/// declared since the sequence stage last looked. Lives *outside* the
/// sequence mutex: the push contract (one thread pushes a given
/// transaction's operations, in program order) makes each entry
/// effectively thread-private, so validating against it costs no
/// shared serial time. The entries sit in a few hash maps, each behind
/// its own lock that is held only while one run is validated or
/// stripped, or one finish recorded; a transaction's entry is a row of
/// its stripe's map, not a heap cell of its own, and the rows of
/// forgotten transactions are handed to the next new ones with their
/// spill buffers.
#[derive(Debug)]
struct TotalsTable {
    stripes: Vec<Mutex<TotalsStripe>>,
}

#[derive(Debug, Default)]
struct TotalsStripe {
    live: IdMap<TxnId, Row>,
    spare: Vec<Row>,
    /// Transactions declared finished ([`ShardedMonitor::finish_txn`])
    /// whose declaration stage 1 has not applied yet. Drained in
    /// place, so the buffer keeps its capacity.
    finished: Vec<TxnId>,
}

/// One transaction's row: its §2.2 totals and, in lane mode, its home —
/// the conjunct its runs keep to ([`NO_LANE`] until a lane-mode run
/// draws it).
#[derive(Debug)]
struct Row {
    totals: TxnTotals,
    home: u32,
}

impl Default for Row {
    fn default() -> Row {
        Row {
            totals: TxnTotals::default(),
            home: NO_LANE,
        }
    }
}

impl TotalsTable {
    fn new() -> TotalsTable {
        TotalsTable {
            stripes: (0..TOTALS_STRIPES).map(|_| Mutex::default()).collect(),
        }
    }

    /// The stripe holding `txn` (the top bits of a multiplicative
    /// hash, so neighbouring ids spread over the stripes). Unranked:
    /// a thread holds at most one stripe and takes no other lock
    /// while it does, so taking one under the sequence mutex is safe.
    fn stripe(&self, txn: TxnId) -> &Mutex<TotalsStripe> {
        let h = txn.0.wrapping_mul(0x9E37_79B9) >> (32 - TOTALS_STRIPES.trailing_zeros());
        &self.stripes[h as usize]
    }

    /// §2.2-validate `ops` (one transaction's run, in program order)
    /// against the transaction's totals and record them, atomically
    /// ([`TxnTotals::admit`] — the single writer's check, by the same
    /// code). In lane mode, given the conjunct `lane` the run keeps to,
    /// returns it if the transaction keeps to it as well — its first
    /// run makes it its home — and `None` if the run spans: a later run
    /// into another conjunct is a spanning one. The row is the one
    /// place that knows, and the push locks it anyway.
    fn admit(&self, txn: TxnId, ops: &[Operation], lane: Option<u32>) -> Result<Option<u32>> {
        let mut stripe = self.stripe(txn).lock();
        let stripe = &mut *stripe;
        let row = stripe
            .live
            .entry(txn)
            .or_insert_with(|| stripe.spare.pop().unwrap_or_default());
        row.totals.admit(ops)?;
        Ok(lane.filter(|&k| {
            if row.home == NO_LANE {
                row.home = k;
            }
            row.home == k
        }))
    }

    /// Clear the bits `ops` set in `txn`'s totals: the run never
    /// claimed a position, or its operations were retracted.
    fn strip<'a>(&self, txn: TxnId, ops: impl IntoIterator<Item = &'a Operation>) {
        let mut stripe = self.stripe(txn).lock();
        let row = stripe
            .live
            .get_mut(&txn)
            .expect("totals exist for a pushed transaction");
        ops.into_iter().for_each(|op| row.totals.strip(op));
    }

    /// Drop `txn`'s totals: it was retracted whole, or summarized.
    fn forget(&self, txn: TxnId) {
        let mut stripe = self.stripe(txn).lock();
        if let Some(mut row) = stripe.live.remove(&txn) {
            row.totals.clear();
            row.home = NO_LANE;
            stripe.spare.push(row);
        }
    }

    /// Record that `txn` is finished, for stage 1 to apply later.
    fn finish(&self, txn: TxnId) {
        self.stripe(txn).lock().finished.push(txn);
    }

    /// Hand every recorded finish to `apply`, with the rows of its
    /// stripe (where a lane-mode sweep finds the transaction's home),
    /// to apply to the stage-1 state: called under the sequence lock by
    /// whatever reads or moves the finished flags — before a frontier
    /// is computed and before a truncation pops a slot (a popped
    /// finished slot parks its id; a recorded one would find no slot to
    /// mark and be lost).
    fn apply_finished(&self, mut apply: impl FnMut(TxnId, &IdMap<TxnId, Row>)) {
        for stripe in &self.stripes {
            let stripe = &mut *stripe.lock();
            for txn in stripe.finished.drain(..) {
                apply(txn, &stripe.live);
            }
        }
    }

    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.stripes
            .iter()
            .map(|stripe| {
                let stripe = stripe.lock();
                stripe
                    .live
                    .values()
                    .map(|row| size_of::<(TxnId, Row)>() + 1 + row.totals.heap_bytes())
                    .sum::<usize>()
                    + stripe.finished.len() * size_of::<TxnId>()
            })
            .sum::<usize>()
    }
}

/// What one admission call needs between its stages, kept per thread
/// so that a pushing thread reuses its own buffers and shares them with
/// nobody.
#[derive(Default)]
struct PushScratch {
    /// One entry per (operation, conjunct containing its item):
    /// `(shard, index of the operation in the run)`. Filled in program
    /// order under the sequence lock, then sorted by shard for stage 3,
    /// which so visits its shards in rank order.
    turns: Vec<(u32, u32)>,
    /// Per operation of the run: the slot of the writer a read takes
    /// its value from, as the sequence stage resolved it.
    rf_slots: Vec<Option<usize>>,
}

thread_local! {
    static PUSH_SCRATCH: Cell<PushScratch> = const {
        Cell::new(PushScratch {
            turns: Vec::new(),
            rf_slots: Vec::new(),
        })
    };
}

/// Run `f` with the calling thread's [`PushScratch`] (each claim
/// empties it). The scratch is taken out of its cell for the duration,
/// so a re-entrant call (a journal that pushes) finds a fresh one
/// instead of a borrow conflict.
fn with_scratch<R>(f: impl FnOnce(&mut PushScratch) -> R) -> R {
    let mut scratch = PUSH_SCRATCH.with(Cell::take);
    let out = f(&mut scratch);
    PUSH_SCRATCH.with(|cell| cell.set(scratch));
    out
}

/// What the order-claiming sequence mutex guards: the stage-1 state,
/// whose journal therefore hears in claimed order (see
/// [`MonitorJournal`]), plus the buffer a retraction re-pushes from.
#[derive(Debug)]
struct Sequencer {
    state: SeqState,
    /// The survivors a [`ShardedMonitor::retract_txn`] re-pushes.
    survivors: Vec<Operation>,
}

/// One conjunct shard's lock, on cache lines of its own, so that lanes
/// on neighbouring shards write no line in common.
#[derive(Debug)]
#[repr(align(128))]
struct Shard {
    state: RankedMutex<Conjunct>,
}

/// What a shard's lock guards: the conjunct's stage state and, in lane
/// mode, its lane (on the heap, so that the pipeline's shards keep
/// their size once it is gone).
#[derive(Debug)]
struct Conjunct {
    stage: ShardState,
    lane: Option<Box<Lane>>,
}

/// One conjunct's part of the order in lane mode: a stage-1 state of
/// its own, whose positions and slots are the lane's, and where each of
/// its retained operations stands in the whole order (ascending: they
/// are claimed under the shard's lock).
#[derive(Debug, Default)]
struct Lane {
    seq: SeqState,
    pos: Vec<u32>,
}

impl Lane {
    fn resident_bytes(&self) -> usize {
        self.seq.resident_bytes() + self.pos.len() * std::mem::size_of::<u32>()
    }
}

/// The lanes' retained operations in position order, from `base` up to
/// `len`, as `(lane, index among that lane's retained operations)`.
/// Taken with every lane drained: each position in between is claimed
/// under its lane's lock and filled before that lock is released, so
/// exactly one lane holds it.
fn in_position_order(
    lanes: &[&Lane],
    base: usize,
    len: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let mut owners = vec![NO_LANE; len - base];
    for (k, lane) in lanes.iter().enumerate() {
        for &p in &lane.pos {
            owners[p as usize - base] = k as u32;
        }
    }
    let mut next = vec![0; lanes.len()];
    owners.into_iter().map(move |k| {
        assert_ne!(k, NO_LANE, "a claimed position left unfilled");
        let k = k as usize;
        next[k] += 1;
        (k, next[k] - 1)
    })
}

/// The compaction frontier of the whole order in lane mode, from
/// `base`: [`SeqState::frontier`]'s longest prefix that holds every
/// operation of each transaction it touches, all of them finished (an
/// unlogged lane is permanent up to its length). Found per transaction
/// rather than per operation: in order of first positions, each start
/// that no earlier transaction reaches past ends such a prefix, up to
/// the first transaction not finished.
fn frontier_of(lanes: &[&Lane], base: usize) -> usize {
    let mut spans = Vec::new();
    for lane in lanes {
        let at = |p: usize| lane.pos[p - lane.seq.schedule.base()] as usize;
        let lane_spans = lane.seq.txn_spans();
        spans.extend(lane_spans.map(|(first, last)| (at(first), last.map(at))));
    }
    spans.sort_unstable();
    let (mut hi, mut frontier) = (base, base);
    for (first, last) in spans {
        if hi == first {
            frontier = first;
        }
        let Some(last) = last else {
            return frontier;
        };
        hi = hi.max(last + 1);
    }
    hi
}

/// A value on cache lines of its own.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// What one [`ShardedMonitor::push_outcome`] observed — the lock-free
/// floor plus one flag per rung: whether **this** push, against the
/// state just before it, *would not have been admitted* at that rung.
/// That covers the push that broke the rung and every push that met it
/// already broken: an operation pushed into a frozen graph was never
/// certified, and the retraction that heals the rung must not leave it
/// behind. What each flag guarantees, against
/// [`OnlineMonitor::admits`](super::OnlineMonitor::admits) asked on the
/// same prefix just before the push:
///
/// - `caused_violation` and `caused_non_dr` — and so
///   [`PushOutcome::breaches`] at `Pwsr` and `PwsrDr` — equal its
///   refusal on every push;
/// - `caused_non_serializable` is never set on a push the single writer
///   would admit. Through the pipeline it equals the refusal; in lane
///   mode, where no global graph is kept, it can **miss** a conjunct
///   cycle that an earlier position closed while that position's lane
///   push was still pending. The miss is safe: the push that closed the
///   cycle reported `caused_violation`.
///
/// The `floor` composes the rung from the position mirrors as they
/// stand once the push's own stages are done, counting only positions
/// up to its own; like `caused_non_serializable` in lane mode, it can
/// miss what an earlier position still pending would add, never what a
/// later one did.
///
/// An optimistic executor aborts the pushing transaction when its own
/// operation breached the configured admission floor
/// ([`PushOutcome::breaches`]); once every transaction so told has been
/// retracted, the verdict meets that floor again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushOutcome {
    /// The claimed position of the pushed operation.
    pub pos: OpIndex,
    /// The lock-free verdict floor after this push.
    pub floor: VerdictLevel,
    /// The global conflict graph would not have admitted this push:
    /// it closed the first cycle, or the graph was already frozen. In
    /// lane mode, where no global graph is kept, it is set when the
    /// violation mirror, read once this push's shard stage is done,
    /// holds a conjunct cycle at or before its position:
    /// every global cycle is then a conjunct cycle, and an access in
    /// one conjunct cannot close a cycle in another, so
    /// [`PushOutcome::breaches`] at `Serializable` stays safe. A cycle
    /// whose closing push had not reached the mirror yet is missed
    /// (see the type's docs).
    pub caused_non_serializable: bool,
    /// Some conjunct projection would not have admitted this push: it
    /// closed that projection's first cycle, or met it frozen.
    pub caused_violation: bool,
    /// This push materialized a dirty read: its transaction had been
    /// read from while still running (the first such push or a later
    /// one).
    pub caused_non_dr: bool,
}

impl PushOutcome {
    /// What an outcome slot holds before the pipeline fills it.
    const PENDING: PushOutcome = PushOutcome {
        pos: OpIndex(0),
        floor: VerdictLevel::Serializable,
        caused_non_serializable: false,
        caused_violation: false,
        caused_non_dr: false,
    };

    /// Would the rung `level` protects have refused this push? (A
    /// conjunct cycle uses edges the global graph also contains, so a
    /// violation always breaches the `Serializable` floor too.)
    pub fn breaches(&self, level: AdmissionLevel) -> bool {
        match level {
            AdmissionLevel::Serializable => self.caused_non_serializable || self.caused_violation,
            AdmissionLevel::Pwsr => self.caused_violation,
            AdmissionLevel::PwsrDr => self.caused_violation || self.caused_non_dr,
        }
    }
}

/// A concurrent [`OnlineMonitor`](super::OnlineMonitor): per-conjunct
/// certification shards behind their own locks, a pipeline of ranked
/// stage locks taken hand over hand defining the total order, a
/// lock-free verdict floor — and, when
/// constructed with [`ShardedMonitor::new_logged`], per-stage undo
/// journals enabling suffix retraction ([`ShardedMonitor::truncate_to`])
/// and transaction aborts ([`ShardedMonitor::retract_txn`]). See the
/// module docs for the stage layout and the parity argument.
///
/// `push` takes `&self` — threads share the monitor behind an `Arc`
/// and certify concurrently. Within one transaction, operations must
/// be pushed in program order by one thread at a time (the §2.2
/// validation reads the transaction's own running totals); different
/// transactions need no coordination.
#[derive(Debug)]
pub struct ShardedMonitor {
    scopes: Vec<ItemSet>,
    /// The scopes inverted: which shards an item's operations visit.
    scope_index: ScopeIndex,
    /// Per transaction: §2.2 running totals, outside the serial
    /// section (see [`TotalsTable`]).
    totals: TotalsTable,
    seq: RankedMutex<Sequencer>,
    gstate: RankedMutex<GlobalState>,
    shards: Vec<Shard>,
    /// Lock-free verdict floor: the worst `VerdictLevel as u8` any
    /// push computed (recomputed exactly by retraction).
    floor: AtomicU8,
    /// Lock-free min over conjunct cycle positions (`NO_POS` = none).
    first_violation: AtomicU32,
    /// Lock-free min over the positions that materialized a dirty read
    /// (`NO_POS` = none), from whichever stage keeps the marks.
    first_non_dr: AtomicU32,
    /// Lane mode (see the module docs): set until the first spanning
    /// run on a monitor whose scopes are pairwise disjoint and that
    /// keeps no journal of either kind. Only a hint for which path a
    /// push takes: whether a conjunct's lane is there, read under its
    /// lock, decides.
    lanes: AtomicBool,
    /// The next position lane mode hands out.
    next_pos: Padded<AtomicUsize>,
    /// Journal pushes for retraction?
    logging: bool,
    /// Measure time spent inside the order-claiming mutex?
    time_serial: bool,
    serial_ns: AtomicU64,
    serial_ops: AtomicU64,
}

impl ShardedMonitor {
    /// A sharded monitor over explicit projection scopes, without undo
    /// journals (pushes are permanent; zero logging overhead).
    pub fn new(scopes: Vec<ItemSet>) -> ShardedMonitor {
        ShardedMonitor::build(scopes, false)
    }

    /// A sharded monitor that journals every push for retraction —
    /// the optimistic executors' constructor.
    pub fn new_logged(scopes: Vec<ItemSet>) -> ShardedMonitor {
        ShardedMonitor::build(scopes, true)
    }

    fn build(scopes: Vec<ItemSet>, logging: bool) -> ShardedMonitor {
        let n = scopes.len();
        let scope_index = ScopeIndex::new(&scopes);
        let lanes = scope_index.disjoint() && !logging;
        ShardedMonitor {
            scope_index,
            scopes,
            totals: TotalsTable::new(),
            seq: RankedMutex::new(
                RANK_SEQ,
                Sequencer {
                    state: SeqState::default(),
                    survivors: Vec::new(),
                },
            ),
            gstate: RankedMutex::new(RANK_GLOBAL, GlobalState::new(lanes)),
            shards: (0..n)
                .map(|k| Shard {
                    state: RankedMutex::new(
                        shard_rank(k),
                        Conjunct {
                            stage: ShardState::conjunct(lanes),
                            lane: lanes.then(Box::default),
                        },
                    ),
                })
                .collect(),
            floor: AtomicU8::new(0),
            first_violation: AtomicU32::new(NO_POS),
            first_non_dr: AtomicU32::new(NO_POS),
            lanes: AtomicBool::new(lanes),
            next_pos: Padded::default(),
            logging,
            time_serial: false,
            serial_ns: AtomicU64::new(0),
            serial_ops: AtomicU64::new(0),
        }
    }

    /// Attach a durability journal: every append, truncation and
    /// checkpoint-floor raise is reported to `journal` **under the
    /// order-claiming sequence mutex**, so journal order is claimed
    /// schedule order even with many pushing threads — the property
    /// that lets a WAL written here replay deterministically into a
    /// single-writer monitor (see [`MonitorJournal`]). Attach before
    /// the first push; the builder style mirrors
    /// [`ShardedMonitor::with_serial_timing`].
    pub fn with_journal(mut self, journal: Box<dyn MonitorJournal>) -> ShardedMonitor {
        debug_assert_eq!(self.len(), 0, "a journal attached after a push");
        // A journal hears in claimed order, so the pipeline claims,
        // with every stage kept from the first push.
        *self.lanes.get_mut() = false;
        *self.gstate.get_mut() = GlobalState::new(false);
        for shard in &mut self.shards {
            *shard.state.get_mut() = Conjunct {
                stage: ShardState::default(),
                lane: None,
            };
        }
        self.seq.lock().state.journal = Some(journal);
        self
    }

    /// Enable serial-stage timing: every push accumulates the
    /// nanoseconds of its stage-1 section, read back by
    /// [`ShardedMonitor::serial_ns_per_op`]. Through the pipeline that
    /// is the time spent inside the order-claiming mutex; in lane mode,
    /// which has no sequence section, it is the lane's stage-1 section
    /// under its home shard's lock — the lane's `SeqState::apply` and
    /// the `fetch_add` that claims the positions. Costs two clock reads
    /// per push — a measurement mode, not the deployment default.
    pub fn with_serial_timing(mut self) -> ShardedMonitor {
        self.time_serial = true;
        self
    }

    /// Mean nanoseconds per pushed operation spent in the stage-1
    /// section (0.0 unless built [`ShardedMonitor::with_serial_timing`],
    /// which says what that section is in either mode).
    pub fn serial_ns_per_op(&self) -> f64 {
        let ops = self.serial_ops.load(Ordering::Relaxed);
        if ops == 0 {
            0.0
        } else {
            self.serial_ns.load(Ordering::Relaxed) as f64 / ops as f64
        }
    }

    /// The projection scopes.
    pub fn scopes(&self) -> &[ItemSet] {
        &self.scopes
    }

    /// Operations pushed so far.
    pub fn len(&self) -> usize {
        self.len_locked(&self.seq.lock())
    }

    /// [`ShardedMonitor::len`] under the held sequence lock, which keeps
    /// lane mode from ending: in it, the positions handed out.
    fn len_locked(&self, s: &Sequencer) -> usize {
        match self.lanes.load(Ordering::Relaxed) {
            true => self.next_pos.0.load(Ordering::Acquire),
            false => s.state.schedule.len(),
        }
    }

    /// Every shard's lock, taken in rank order: the lanes drained.
    fn lock_shards(&self) -> Vec<Held<'_, Conjunct>> {
        self.shards.iter().map(|shard| shard.state.lock()).collect()
    }

    /// The conjunct every operation of `ops` keeps to, if one does.
    fn lane_of(&self, ops: &[Operation]) -> Option<u32> {
        let mut lane = None;
        for op in ops {
            match *self.scope_index.of(op.item) {
                [k] if lane.is_none_or(|l| l == k) => lane = Some(k),
                _ => return None,
            }
        }
        lane
    }

    /// Has nothing been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one operation from any thread; returns the lock-free
    /// verdict floor after this push (a sound "no better than" rung —
    /// the exact [`Verdict`] is [`ShardedMonitor::verdict`]'s, at
    /// quiescence).
    ///
    /// Errors (leaving the monitor untouched) if the operation
    /// violates its transaction's §2.2 well-formedness.
    pub fn push(&self, op: Operation) -> Result<VerdictLevel> {
        self.push_outcome(op).map(|o| o.floor)
    }

    /// [`ShardedMonitor::push`] returning the full [`PushOutcome`]:
    /// the floor plus the flags saying whether *this* operation broke
    /// a verdict rung — what an optimistic executor's abort decision
    /// keys on. A run of one through the same pipeline as
    /// [`ShardedMonitor::push_batch`]; an attached [`MonitorJournal`]
    /// receives it as a single-operation `appended` call.
    pub fn push_outcome(&self, op: Operation) -> Result<PushOutcome> {
        let mut outcome = [PushOutcome::PENDING];
        self.admit(std::slice::from_ref(&op), false, &mut outcome)?;
        Ok(outcome[0])
    }

    /// **Batch admission**: append one transaction's program-ordered
    /// run of operations, paying each serial cost **once per batch**
    /// instead of once per operation — one sequence-mutex entry that
    /// claims a contiguous segment of positions `[p0, p0 + k)` (a
    /// segment-reserved `Schedule` append), one `gstate` lock for all
    /// `k` operations, and one lock per **touched conjunct shard**
    /// rather than per operation (in lane mode, one lock in all). The
    /// locks are taken hand over hand, each before the previous stage's
    /// is let go (the module docs say which): the run reaches every
    /// stage before any run claimed after it, and each stage applies
    /// its operations one by one in program order — so the undo
    /// journals stay per-op LIFO and
    /// [`ShardedMonitor::truncate_to`] / [`ShardedMonitor::retract_txn`]
    /// retract batch-admitted operations individually, exactly as if
    /// they had been pushed one by one.
    ///
    /// Returns one [`PushOutcome`] per operation, in program order,
    /// byte-identical to what `k` singleton [`ShardedMonitor::push_outcome`]
    /// calls would have returned for the same interleaving: per-op
    /// positions, causality flags, and floors — an executor's culprit
    /// identification and abort decisions need no batch-size cases.
    /// (The pipeline explorer holds each operation's flags to the
    /// single writer's `admits`, runs and singletons alike.)
    /// An attached [`MonitorJournal`] receives the run as **one**
    /// `appended_batch` call under the sequence mutex (the WAL frames
    /// it as a single multi-op record).
    ///
    /// The returned vector is the call's only allocation once the
    /// calling thread's scratch buffers have grown to the run's size.
    ///
    /// The slice must be nonempty operations of a **single
    /// transaction** in program order (panics otherwise — the batch
    /// unit is the transaction, per the push contract). Errors, with
    /// the monitor and the §2.2 totals untouched, if any operation
    /// violates well-formedness or the transaction was summarized.
    /// An empty slice returns an empty vector.
    pub fn push_batch(&self, ops: &[Operation]) -> Result<Vec<PushOutcome>> {
        let Some(first) = ops.first() else {
            return Ok(Vec::new());
        };
        assert!(
            ops.iter().all(|o| o.txn == first.txn),
            "push_batch requires a single-transaction batch (the program-order unit)"
        );
        let mut outcomes = vec![PushOutcome::PENDING; ops.len()];
        self.admit(ops, true, &mut outcomes)?;
        Ok(outcomes)
    }

    /// The admission of one transaction's nonempty run, filling
    /// `outcomes[i]` for `ops[i]`: §2.2 validation, then in lane mode,
    /// if the run and its transaction keep to one conjunct, the lane's
    /// [`admit_in_lane`](Self::admit_in_lane); else, leaving lane mode if
    /// it is on, [`claim`](Self::claim) under the sequence lock and
    /// [`serve`](Self::serve), which hands that lock over to the global
    /// stage's. `framed` says how
    /// a journal hears of it: as one `appended_batch`, or (a run of
    /// one from [`ShardedMonitor::push_outcome`]) as `appended`.
    fn admit(&self, ops: &[Operation], framed: bool, outcomes: &mut [PushOutcome]) -> Result<()> {
        let txn = ops[0].txn;
        let lane = match self.lanes.load(Ordering::Relaxed) {
            true => self.lane_of(ops),
            false => None,
        };
        // The whole run, atomically, outside the serial section. The
        // totals belong to this thread by the program-order contract,
        // so no ordering is lost by validating before the positions
        // are claimed.
        if let Some(k) = self.totals.admit(txn, ops, lane)? {
            if let Some(admitted) = self.admit_in_lane(k as usize, ops, framed, outcomes) {
                return admitted;
            }
        }
        with_scratch(|scratch| {
            let mut s = self.seq.lock();
            if self.lanes.load(Ordering::Relaxed) && !s.state.is_summarized(txn) {
                self.leave_lanes(&mut s, scratch);
            }
            let existing = match s.state.slot(txn) {
                Ok(existing) => existing,
                Err(summarized) => {
                    // The run never claimed a position, and a
                    // summarized transaction has no other totals.
                    drop(s);
                    self.totals.forget(txn);
                    return Err(summarized);
                }
            };
            let t0 = self.time_serial.then(Instant::now);
            let claimed = self.claim(&mut s, ops, framed, existing, scratch);
            self.timed(t0, ops.len());
            self.serve(Some(s), ops, claimed, scratch, outcomes);
            Ok(())
        })
    }

    /// Count a stage-1 section that began at `t0` (if timed) and
    /// admitted `ops` operations.
    fn timed(&self, t0: Option<Instant>, ops: usize) {
        if let Some(t0) = t0 {
            self.serial_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.serial_ops.fetch_add(ops as u64, Ordering::Relaxed);
        }
    }

    /// An admission in lane mode, into the lane of conjunct `k`, to
    /// which the run and its transaction keep: under that shard's lock
    /// alone, stage 1 on the lane's own state, one `fetch_add` on the
    /// shared counter for the positions, then stage 3 at them, and the
    /// floor published once the lock is released — no sequence lock and
    /// no global lock. `None` if lane mode ended before the lock was
    /// taken: the caller goes through the pipeline instead.
    fn admit_in_lane(
        &self,
        k: usize,
        ops: &[Operation],
        framed: bool,
        outcomes: &mut [PushOutcome],
    ) -> Option<Result<()>> {
        let txn = ops[0].txn;
        let mut held = self.shards[k].state.lock();
        let Conjunct { stage, lane } = &mut *held;
        let lane = lane.as_mut()?;
        let existing = match lane.seq.slot(txn) {
            Ok(existing) => existing,
            Err(summarized) => {
                drop(held);
                self.totals.forget(txn);
                return Some(Err(summarized));
            }
        };
        let p0 = with_scratch(|scratch| {
            scratch.rf_slots.clear();
            let t0 = self.time_serial.then(Instant::now);
            let rf_slots = &mut scratch.rf_slots;
            let (_, slot) = lane.seq.apply(ops, existing, false, framed, rf_slots);
            // Claimed under the lock and filled before its release, so
            // the lane holds its positions in order and a drain finds
            // every claimed position filled.
            let p0 = self.next_pos.0.fetch_add(ops.len(), Ordering::AcqRel);
            lane.pos.extend((p0..p0 + ops.len()).map(|p| p as u32));
            self.timed(t0, ops.len());
            for (i, op) in ops.iter().enumerate() {
                let p = OpIndex(p0 + i);
                let (violated, non_dr) = self.stage_shard(stage, slot, op, rf_slots[i], p);
                outcomes[i].caused_violation = violated;
                outcomes[i].caused_non_dr = non_dr;
            }
            p0
        });
        drop(held);
        self.publish(p0, true, outcomes);
        Some(Ok(()))
    }

    /// End lane mode for good, under the held sequence lock: drain the
    /// lanes by taking every shard's lock in rank order, take each lane
    /// out and give the global stage ([`GlobalState::resume`]) and each
    /// conjunct's ([`ShardState::resume`]) a fresh state that keeps what
    /// the swept prefix decided; then, with the stage locks released,
    /// push the lanes' retained operations again through
    /// [`claim`](Self::claim) and [`serve`](Self::serve), in position
    /// order, into the stage-1 state of the whole order (which stood
    /// empty at the sweeps' base) and every other stage, and carry their
    /// finished flags over. A push that meets its lane gone goes through
    /// the pipeline, behind this lock.
    fn leave_lanes(&self, s: &mut Sequencer, scratch: &mut PushScratch) {
        let base = s.state.schedule.base();
        let (len, lanes): (usize, Vec<Box<Lane>>) = {
            let mut g = self.gstate.lock();
            let mut held = self.lock_shards();
            let len = self.len_locked(s);
            self.lanes.store(false, Ordering::Relaxed);
            g.resume(base, held.iter().map(|c| &c.stage));
            let taken = held.iter_mut().map(|c| {
                c.stage = c.stage.resume(base);
                c.lane.take().expect("every lane is there in lane mode")
            });
            (len, taken.collect())
        };
        let refs: Vec<&Lane> = lanes.iter().map(|lane| &**lane).collect();
        for (k, i) in in_position_order(&refs, base, len) {
            let run = std::slice::from_ref(&lanes[k].seq.schedule.ops()[i]);
            let existing = s.state.schedule.txn_slot(run[0].txn);
            let claimed = self.claim(s, run, false, existing, scratch);
            self.serve(None, run, claimed, scratch, &mut [PushOutcome::PENDING]);
        }
        for lane in &lanes {
            s.state.finish_from(&lane.seq);
        }
        debug_assert_eq!(s.state.schedule.len(), len);
    }

    /// The first half of an admission, under the (held) sequence lock:
    /// claim the run's segment ([`SeqState::apply`], which journals it)
    /// and list, in program order, the shard turns its operations take.
    /// `existing` is the transaction's slot as [`SeqState::slot`]
    /// reports it. Leaves the shard turns and the resolved reads-from
    /// slots in `scratch`; returns the first position and the
    /// transaction's slot — what [`serve`](Self::serve) takes.
    fn claim(
        &self,
        s: &mut Sequencer,
        ops: &[Operation],
        framed: bool,
        existing: Option<usize>,
        scratch: &mut PushScratch,
    ) -> (usize, usize) {
        scratch.turns.clear();
        scratch.rf_slots.clear();
        let rf_slots = &mut scratch.rf_slots;
        let claimed = s.state.apply(ops, existing, self.logging, framed, rf_slots);
        for (i, op) in ops.iter().enumerate() {
            let shards = self.scope_index.of(op.item).iter();
            scratch.turns.extend(shards.map(|&k| (k, i as u32)));
        }
        claimed
    }

    /// The second half: take the claimed run through the global stage
    /// and each touched shard in rank order, hand over hand, and publish
    /// the lock-free floor under the run's last stage lock, filling
    /// `outcomes`. `seq` is the sequence lock an ordinary push still
    /// holds: released once the global lock is taken. A re-push (leaving
    /// lane mode, a retraction) passes `None` and keeps the lock it holds
    /// throughout. The global lock is held until the run's last shard
    /// lock is, so a run reaches every stage before any run claimed
    /// after it: each stage sees its operations in claimed order. A
    /// drain — the sequence lock, then the global lock, then each shard's
    /// — so finds every claimed run served and its floor published.
    fn serve(
        &self,
        seq: Option<Held<'_, Sequencer>>,
        ops: &[Operation],
        (p0, slot): (usize, usize),
        scratch: &mut PushScratch,
        outcomes: &mut [PushOutcome],
    ) {
        // --- stage 2: the global stage, the whole run ------------------
        // Per-op results are captured in program order inside the one
        // lock hold, so each operation's snapshot is prefix-exact —
        // identical to singleton pushes — and so is the first-non-DR
        // mirror each later position reads.
        let mut g = self.gstate.lock();
        drop(seq);
        for (i, op) in ops.iter().enumerate() {
            let p = OpIndex(p0 + i);
            let rf_slot = scratch.rf_slots[i];
            let caused_non_dr = g.apply(&self.scopes, slot, op, rf_slot, p, self.logging);
            if caused_non_dr {
                self.first_non_dr.fetch_min(p.0 as u32, Ordering::AcqRel);
            }
            outcomes[i].caused_non_serializable = g.serializable() == Some(false);
            outcomes[i].caused_non_dr = caused_non_dr;
        }

        // --- stage 3: the touched shards, ascending ---------------------
        scratch.turns.sort_unstable();
        let mut shards = scratch.turns.chunk_by(|a, b| a.0 == b.0);
        let last = shards.next_back();
        let mut turn = |sh: &mut ShardState, turns: &[(u32, u32)]| {
            for &(_, i) in turns {
                let i = i as usize;
                let rf_slot = scratch.rf_slots[i];
                let (violated, _) = self.stage_shard(sh, slot, &ops[i], rf_slot, OpIndex(p0 + i));
                outcomes[i].caused_violation |= violated;
            }
        };
        // Every shard but the last, under the global lock.
        for turns in shards {
            let k = turns[0].0;
            turn(&mut self.shards[k as usize].state.lock().stage, turns);
            #[cfg(test)]
            explore::released(Some(k));
        }
        let Some(turns) = last else {
            self.publish(p0, false, outcomes);
            drop(g);
            #[cfg(test)]
            explore::released(None);
            return;
        };
        let k = turns[0].0;
        let mut sh = self.shards[k as usize].state.lock();
        drop(g);
        #[cfg(test)]
        explore::released(None);
        turn(&mut sh.stage, turns);
        self.publish(p0, false, outcomes);
        drop(sh);
        #[cfg(test)]
        explore::released(Some(k));
    }

    /// The lock-free floor, per operation of the run at `p0` in program
    /// order, each outcome given its position once the run's stages are
    /// done; `in_lane` says no global graph is kept.
    fn publish(&self, p0: usize, in_lane: bool, outcomes: &mut [PushOutcome]) {
        // The rung each operation's prefix holds, from the two position
        // mirrors as the run's own stages left them: a position up to
        // this one counts, a later one's never does. An earlier position
        // whose stage is still pending is missed; that is safe, because
        // the push that closes a cycle or materializes a dirty read is
        // told through its own flags. The floor only rises while this
        // push is in flight (a retraction's recompute waits for the
        // lock this publication holds), so a value that
        // already meets this operation's rung is what `fetch_max` would
        // have returned, without taking the shared line exclusive.
        let fv = self.first_violation.load(Ordering::Acquire);
        let fnd = self.first_non_dr.load(Ordering::Acquire);
        let mut prev = self.floor.load(Ordering::Acquire);
        for (p, outcome) in (p0..).zip(outcomes.iter_mut()) {
            outcome.pos = OpIndex(p);
            let p = p as u32;
            let violated = fv <= p;
            // Lane mode: the global graph would be the shards' disjoint
            // union, cyclic exactly when one of them is.
            outcome.caused_non_serializable |= in_lane && violated;
            let serializable = !outcome.caused_non_serializable;
            let mine = VerdictLevel::compose(serializable, fnd > p, !violated);
            if prev < mine as u8 {
                prev = self.floor.fetch_max(mine as u8, Ordering::AcqRel);
            }
            outcome.floor = VerdictLevel::from_floor(prev).max(mine);
        }
    }

    /// Stage 3 against an already locked shard. Returns whether this access breached the conjunct
    /// — closed its first cycle, or met it already frozen — and
    /// whether it materialized a dirty read the shard keeps the marks
    /// of, mirroring either position into its lock-free mirror.
    fn stage_shard(
        &self,
        sh: &mut ShardState,
        slot: usize,
        op: &Operation,
        rf_slot: Option<usize>,
        p: OpIndex,
    ) -> (bool, bool) {
        let (applied, caused_non_dr) = sh.apply(slot, op, rf_slot, p, self.logging);
        if applied == Applied::Closed {
            self.first_violation.fetch_min(p.0 as u32, Ordering::AcqRel);
        }
        if caused_non_dr {
            self.first_non_dr.fetch_min(p.0 as u32, Ordering::AcqRel);
        }
        (applied != Applied::Clean, caused_non_dr)
    }

    /// Retract the logged suffix until `n` operations remain, in
    /// `O(ops undone)` — each stage's journal pops in reverse position
    /// order (the per-stage LIFO the undo layer requires), and a shard
    /// is locked only while its own entries pop. Concurrent pushes
    /// stall at the sequence stage for the duration; however, because
    /// the §2.2 totals are owner-maintained, the transactions whose
    /// operations fall in the truncated suffix must have no push in
    /// flight (coordinated rollback / bench use). The concurrent-safe
    /// abort primitive is [`ShardedMonitor::retract_txn`], which only
    /// ever rewrites the calling thread's own totals. Returns the
    /// number of operations undone.
    ///
    /// Panics if the monitor does not journal
    /// ([`ShardedMonitor::new_logged`]), `n` exceeds the current
    /// length, or `n` lies below a [`ShardedMonitor::checkpoint`]ed
    /// floor (those entries were reclaimed as permanent).
    pub fn truncate_to(&self, n: usize) -> usize {
        let mut s = self.seq.lock();
        self.truncate_locked(&mut s, n, None)
    }

    /// Raise every stage journal's retraction floor to the oldest
    /// *live* transaction's first operation (the whole trace when none
    /// are live), dropping the per-push deltas below it: those pushes
    /// become permanent and their memory is reclaimed — the long-run
    /// memory bound for OCC servers, matching
    /// [`OnlineMonitor::checkpoint`](super::OnlineMonitor::checkpoint)
    /// as surfaced by the scheduler's `MonitorAdmission`. Returns the
    /// new floor.
    ///
    /// Holds the sequence mutex for the duration (no new positions), and
    /// raises the global stage and then each shard in rank order, each
    /// once the runs in flight are done with it, so the three journals —
    /// sequence, global, per-shard — advance to the same floor
    /// atomically; a shard is locked only long enough to drop its own
    /// below-floor entries.
    ///
    /// The contract is on the caller's `live` set: after the
    /// checkpoint, [`ShardedMonitor::truncate_to`] and
    /// [`ShardedMonitor::retract_txn`] **panic** if asked to reach
    /// below the floor, so `live` must include every transaction that
    /// may yet abort. An unlogged monitor has nothing to reclaim: its
    /// floor is already its length.
    pub fn checkpoint<I: IntoIterator<Item = TxnId>>(&self, live: I) -> usize {
        let mut s = self.seq.lock();
        if self.lanes.load(Ordering::Relaxed) {
            return self.len_locked(&s);
        }
        let floor = live
            .into_iter()
            .filter_map(|t| s.state.first_op_of(t))
            .min()
            .unwrap_or(s.state.schedule.len());
        s.state.raise_floor(floor, |floor| {
            self.gstate.lock().raise_floor(floor);
            for shard in &self.shards {
                shard.state.lock().stage.raise_floor(floor);
            }
        })
    }

    /// The journals' retraction floor: the prefix length below which
    /// pushes are permanent (0 until a checkpoint raises it; equal to
    /// [`ShardedMonitor::len`] on an unlogged monitor).
    pub fn log_floor(&self) -> usize {
        let s = self.seq.lock();
        match self.lanes.load(Ordering::Relaxed) {
            true => self.len_locked(&s),
            false => s.state.log.base(),
        }
    }

    /// Declare `txn` finished: it will issue no further operations.
    /// Committed-prefix compaction ([`ShardedMonitor::compact`]) only
    /// advances over finished transactions. Advisory until the
    /// transaction is summarized — a later push for it is still
    /// accepted and simply holds the frontier back.
    ///
    /// Takes no sequence lock: the id is recorded in the transaction's
    /// §2.2-totals stripe, and the next call that reads the finished
    /// flags — `ShardedMonitor::compaction_frontier`,
    /// [`ShardedMonitor::compact`], or a truncation — applies it under
    /// the sequence lock it holds anyway (and, like the single
    /// writer's, ignores a transaction that holds no position by then).
    pub fn finish_txn(&self, txn: TxnId) {
        self.totals.finish(txn);
    }

    /// **Committed-prefix compaction**, sharded: collapse the prefix
    /// below `ShardedMonitor::compaction_frontier` — the global and
    /// per-conjunct conflict graphs keep only what a later cycle can use
    /// (`ProjGraph::condense` states the lemma) — reclaiming schedule
    /// segments, graph nodes, Pearce–Kelly order slots, delayed-read
    /// rows and the summarized transactions' §2.2 totals. Every graph
    /// is cut down in its own storage through one pair of node tables
    /// the monitor keeps, so a sweep's allocations do not grow with the
    /// number of shards.
    ///
    /// Holds the sequence mutex for the duration and walks the stages
    /// in lock-rank order — global, then each shard ascending — so each
    /// stage is swept once the runs in flight are done with it, and the
    /// discipline that rules out deadlock covers compaction too. In lane mode it
    /// drains the lanes instead and sweeps each below one frontier (see
    /// the module docs). Every verdict,
    /// certificate and [`PushOutcome`] after the call is
    /// byte-identical to an uncompacted twin's (pinned by
    /// `sharded_compaction_twin_parity` in `tests/sharded_props.rs`,
    /// and by the explorer, whose sweeper compacts while others push);
    /// pushes and retractions for summarized transactions are rejected
    /// with [`CoreError::SummarizedTransaction`].
    ///
    /// [`CoreError::SummarizedTransaction`]: crate::error::CoreError::SummarizedTransaction
    pub fn compact(&self) -> CompactStats {
        let mut s = self.seq.lock();
        if self.lanes.load(Ordering::Relaxed) {
            return self.compact_lanes(&mut s);
        }
        self.totals.apply_finished(|txn, _| s.state.finish(txn));
        s.state.compact(|s_cut, maps, summarized| {
            // Every graph is cut down in its own storage, through the
            // one pair of node tables this lock guards: global stage
            // first, then the conjunct shards in ascending rank.
            self.gstate.lock().compact(s_cut, maps);
            for shard in &self.shards {
                shard.state.lock().stage.compact(s_cut, maps);
            }
            // The summarized transactions can never push again, so
            // their §2.2 totals are dead weight — reclaim them.
            for &t in summarized {
                self.totals.forget(t);
            }
        })
    }

    /// [`ShardedMonitor::compact`] in lane mode, under the held sequence
    /// lock: drain the lanes by taking every shard's lock in rank order,
    /// hand each recorded finish to its transaction's lane (the home its
    /// totals row names), compute one frontier over all lanes and sweep
    /// each lane below it, stage 1 and its conjunct's graph together.
    /// The transactions summarized join the one summarized set, of
    /// which every lane then reads a fresh copy.
    fn compact_lanes(&self, s: &mut Sequencer) -> CompactStats {
        let mut held = self.lock_shards();
        let base = s.state.schedule.base();
        let frontier = self.lanes_frontier(s, &mut held);
        if frontier <= base {
            return CompactStats {
                frontier: base,
                ..CompactStats::default()
            };
        }
        let mut summarized = Vec::new();
        for c in &mut held {
            let Conjunct { stage, lane } = &mut **c;
            let lane = lane.as_mut().expect("lane mode");
            let cut = lane.pos.partition_point(|&p| (p as usize) < frontier);
            let swept = lane.seq.schedule.base() + cut;
            lane.seq.compact_to(swept, false, |s_cut, maps, txns| {
                stage.compact(s_cut, maps);
                summarized.extend_from_slice(txns);
            });
            lane.pos.drain(..cut);
        }
        // Lane by lane, the ids would split and merge the set's ranges.
        summarized.sort_unstable();
        summarized.iter().for_each(|&t| self.totals.forget(t));
        s.state.swept_to(frontier, &summarized);
        for c in &mut held {
            let lane = c.lane.as_mut().expect("lane mode");
            lane.seq.share_summarized(&s.state);
        }
        CompactStats {
            frontier,
            ops_reclaimed: frontier - base,
            txns_summarized: summarized.len(),
        }
    }

    /// The compaction frontier in lane mode, under the held sequence
    /// lock and every shard's (`held`): each recorded finish goes to its
    /// transaction's lane, the home its totals row names (a transaction
    /// with no row holds no position), then [`frontier_of`].
    fn lanes_frontier<G: DerefMut<Target = Conjunct>>(
        &self,
        s: &Sequencer,
        held: &mut [G],
    ) -> usize {
        self.totals.apply_finished(|txn, rows| {
            let home = rows.get(&txn).map_or(NO_LANE, |row| row.home);
            if let Some(lane) = held.get_mut(home as usize).and_then(|c| c.lane.as_mut()) {
                lane.seq.finish(txn);
            }
        });
        let lanes = held.iter().map(|c| c.lane.as_deref().expect("lane mode"));
        frontier_of(&lanes.collect::<Vec<_>>(), s.state.schedule.base())
    }

    /// Compaction calls that actually advanced the frontier.
    pub fn compactions(&self) -> u64 {
        self.seq.lock().state.compactions
    }

    /// Total operations reclaimed across all compactions.
    pub fn ops_reclaimed(&self) -> u64 {
        self.seq.lock().state.ops_reclaimed
    }

    /// Was `txn` summarized into the permanent prefix?
    pub fn is_summarized(&self, txn: TxnId) -> bool {
        self.seq.lock().state.is_summarized(txn)
    }

    /// A structural estimate of the monitor's resident state, in
    /// bytes: live rows × element sizes across the schedule, order
    /// tables, stage journals and their tapes, graphs, delayed-read
    /// rows and §2.2 totals — what the monitor must hold, not what it
    /// has reserved (see
    /// [`OnlineMonitor::resident_bytes_estimate`](super::OnlineMonitor::resident_bytes_estimate)
    /// for what is left out, and the test that pins it). Quiesces
    /// briefly (takes each stage's lock in rank order).
    pub fn resident_bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        let s = self.seq.lock();
        let mut total = ItemSet::rows_bytes(&self.scopes)
            + self.scope_index.resident_bytes()
            + self.shards.len() * size_of::<Shard>()
            + s.state.resident_bytes();
        total += self.gstate.lock().resident_bytes();
        for shard in &self.shards {
            let c = shard.state.lock();
            total += c.stage.resident_bytes() + c.lane.as_deref().map_or(0, Lane::resident_bytes);
        }
        total + self.totals.resident_bytes()
    }

    /// The truncation body, under the held sequence lock; the stage
    /// locks it takes in rank order drain the runs in flight. `victim`
    /// selects whose §2.2 totals to strip: `None`
    /// (plain [`ShardedMonitor::truncate_to`]) strips every popped
    /// operation's bit — correct only when the affected transactions'
    /// pushers are quiescent; `Some(txn)` ([`ShardedMonitor::retract_txn`])
    /// strips only the victim's, leaving survivors' totals untouched
    /// because their operations are re-pushed immediately *and* their
    /// owning threads may hold already-validated bits for in-flight
    /// pushes parked at the sequence mutex (the totals are
    /// owner-maintained; a retraction must not rewrite another
    /// thread's row under it).
    fn truncate_locked(&self, s: &mut Sequencer, n: usize, victim: Option<TxnId>) -> usize {
        assert!(self.logging, "truncate_to on an unlogged ShardedMonitor");
        self.totals.apply_finished(|txn, _| s.state.finish(txn));
        let mut g = self.gstate.lock();
        let undone = s.state.truncate(n, |u| {
            // Shards in reverse of push order, above the global stage's
            // rank.
            for &k in self.scope_index.of(u.op.item).iter().rev() {
                let shard = &self.shards[k as usize];
                shard.state.lock().stage.undo(u.slot, u.op.item, u.pos);
            }
            g.undo(u.slot, u.op.item, u.pos, u.new_slot);
            // §2.2 totals (see the `victim` contract above).
            if victim.is_none_or(|v| v == u.op.txn) {
                if u.new_slot {
                    self.totals.forget(u.op.txn);
                } else {
                    self.totals.strip(u.op.txn, [&u.op]);
                }
            }
        });
        drop(g);
        if undone > 0 {
            self.recompute_floor();
        }
        undone
    }

    /// Recompute the lock-free floor and the two position mirrors from
    /// the per-stage state (retraction can *improve* the verdict, so
    /// the monotone `fetch_max`/`fetch_min` floors must be reset).
    /// Called under the sequence lock: it takes the global lock, then
    /// every shard's, so each run in flight has published its floor
    /// before the stores.
    fn recompute_floor(&self) {
        let g = self.gstate.lock();
        let (fv, homes) = self.firsts();
        let fnd = g.first_non_dr(homes);
        let level = g.level(fv.is_none(), fnd.is_none());
        let raw = |q: Option<OpIndex>| q.map_or(NO_POS, |q| q.0 as u32);
        self.first_violation.store(raw(fv), Ordering::Release);
        self.first_non_dr.store(raw(fnd), Ordering::Release);
        self.floor.store(level as u8, Ordering::Release);
    }

    /// The first position at which a conjunct projection went cyclic,
    /// and the earliest of the conjuncts' own first non-DR positions,
    /// read off the shard states (each locked in turn).
    fn firsts(&self) -> (Option<OpIndex>, Option<OpIndex>) {
        let (mut fv, mut homes) = (None, None);
        for shard in &self.shards {
            let sh = &shard.state.lock().stage;
            fv = earliest(fv, sh.graph.cyclic_at);
            homes = earliest(homes, sh.first_non_dr);
        }
        (fv, homes)
    }

    /// Abort `txn`: truncate to its first operation and re-push the
    /// surviving interleaving (every retracted operation of another
    /// transaction, in its original order) through the admission path
    /// every push takes. The re-push's outcomes go to nobody, and it
    /// **can** close a cycle: survivors pushed while a
    /// graph was frozen were never applied to it, so un-freezing the
    /// graph certifies them for the first time. What keeps the
    /// executor safe is that each of those pushes was reported as a
    /// breach when it was made ([`PushOutcome`]): a cycle among the
    /// survivors has a last operation, that operation's push saw the
    /// rest of the cycle — closing it, or meeting the graph frozen —
    /// and its owner is already on its way here. Once every
    /// transaction that received a breaching outcome has been
    /// retracted, the verdict meets the floor. Delayed-read marks,
    /// moreover, can be **reassigned**:
    /// a survivor read that took its value from the victim's write is
    /// re-recorded as reading from the earlier writer, which can mint
    /// a DR break that no [`PushOutcome`] ever reported (the verdict
    /// and floor reflect it exactly; only the per-push causality is
    /// gone). An executor holding a DR-sensitive floor must therefore
    /// prevent reads of the victim's writes from being admitted at
    /// all — the OCC executor does so by keeping written items dirty
    /// (reader-blocking) until the writer commits, and by retracting
    /// *before* rolling the store back. Atomic with respect to
    /// concurrent pushes (they stall at the sequence stage). Returns
    /// `(ops undone, ops re-pushed)` — the abort's cost, proportional
    /// to the suffix after the transaction's first operation, not to
    /// the schedule.
    ///
    /// A transaction the monitor has never seen retracts nothing. A
    /// transaction summarized by committed-prefix compaction
    /// ([`ShardedMonitor::compact`]) is rejected with
    /// [`CoreError::SummarizedTransaction`] — its operations live in
    /// the collapsed, permanent prefix and can no longer be undone.
    ///
    /// [`CoreError::SummarizedTransaction`]: crate::error::CoreError::SummarizedTransaction
    pub fn retract_txn(&self, txn: TxnId) -> Result<(usize, usize)> {
        let mut s = self.seq.lock();
        if self.lanes.load(Ordering::Relaxed) && !s.state.is_summarized(txn) {
            // Unlogged: what the schedule holds cannot be retracted, and
            // the truncation below says so.
            with_scratch(|scratch| self.leave_lanes(&mut s, scratch));
        }
        let mut survivors = std::mem::take(&mut s.survivors);
        survivors.clear();
        let plan = s.state.retraction(&[txn], &mut survivors);
        let mut cost = (0, 0);
        if let Ok(Some(first)) = plan {
            cost = (
                self.truncate_locked(&mut s, first, Some(txn)),
                survivors.len(),
            );
            // The ordinary admission path, minus what the survivors
            // keep: their §2.2 totals stayed in place (their owners
            // may be mid-push against those very rows), and the
            // sequence lock stays held, so no run claims a position
            // in between, the journals stay in position order and the
            // floor the truncation recomputed stays exact.
            with_scratch(|scratch| {
                for op in &survivors {
                    let run = std::slice::from_ref(op);
                    let existing = s.state.schedule.txn_slot(op.txn);
                    let claimed = self.claim(&mut s, run, false, existing, scratch);
                    self.serve(None, run, claimed, scratch, &mut [PushOutcome::PENDING]);
                }
            });
        }
        s.survivors = survivors;
        plan.map(|_| cost)
    }

    /// The current lock-free verdict floor — no locks taken.
    pub fn floor(&self) -> VerdictLevel {
        VerdictLevel::from_floor(self.floor.load(Ordering::Acquire))
    }

    /// The full verdict, assembled from every stage's state. **Exact
    /// at quiescence** (no push in flight — e.g. after joining the
    /// worker threads); mid-flight it is a consistent lower bound in
    /// the same sense as [`ShardedMonitor::floor`]. At quiescence it
    /// is byte-identical to the verdict of a single-writer
    /// [`OnlineMonitor`](super::OnlineMonitor) fed the same
    /// interleaving.
    pub fn verdict(&self) -> Verdict {
        let len = self.len();
        let g = self.gstate.lock();
        let (first_violation, homes) = self.firsts();
        g.verdict(len, first_violation, homes)
    }

    /// Does the Lemma 2 certificate hold for conjunct `k` (module
    /// equivalence: the projection is still serializable)?
    pub fn lemma2_holds(&self, k: usize) -> bool {
        self.shards[k].state.lock().stage.graph.cyclic_at.is_none()
    }

    /// Does the Lemma 6 certificate hold for conjunct `k`?
    pub fn lemma6_holds(&self, k: usize) -> bool {
        self.lemma2_holds(k) && {
            let g = self.gstate.lock();
            let home = self.shards[k].state.lock();
            g.lemma6_clean(k, &home.stage)
        }
    }

    /// The maintained serialization order of conjunct `k`'s projection,
    /// or `None` once it is non-serializable — as
    /// [`OnlineMonitor::conjunct_order`](super::OnlineMonitor::conjunct_order),
    /// and exact at quiescence.
    pub fn conjunct_order(&self, k: usize) -> Option<Vec<TxnId>> {
        let s = self.seq.lock();
        let c = self.shards[k].state.lock();
        // A lane numbers its transactions' slots itself.
        let seq = c.lane.as_ref().map_or(&s.state, |lane| &lane.seq);
        c.stage.graph.order(seq.schedule.txn_ids())
    }

    /// A snapshot of the certified interleaving so far. In lane mode it
    /// is the lanes' retained operations merged in position order,
    /// built with the lanes drained; lane mode goes on.
    pub fn snapshot_schedule(&self) -> Schedule {
        let s = self.seq.lock();
        if !self.lanes.load(Ordering::Relaxed) {
            return s.state.schedule.clone();
        }
        let held = self.lock_shards();
        let lanes: Vec<&Lane> = held
            .iter()
            .map(|c| c.lane.as_deref().expect("lane mode"))
            .collect();
        let (base, len) = (s.state.schedule.base(), self.len_locked(&s));
        let mut schedule = Schedule::starting_at(base);
        for (k, i) in in_position_order(&lanes, base, len) {
            let run = std::slice::from_ref(&lanes[k].seq.schedule.ops()[i]);
            let existing = schedule.txn_slot(run[0].txn);
            schedule.push_segment_unchecked(run, existing);
        }
        schedule
    }

    /// Consume the monitor: the certified interleaving (in lane mode,
    /// [`ShardedMonitor::snapshot_schedule`]'s merge) plus the final
    /// (exact — the monitor is owned, so necessarily quiescent)
    /// verdict.
    pub fn into_parts(self) -> (Schedule, Verdict) {
        let verdict = self.verdict();
        match self.lanes.load(Ordering::Relaxed) {
            true => (self.snapshot_schedule(), verdict),
            false => (self.seq.into_inner().state.schedule, verdict),
        }
    }
}

#[cfg(test)]
impl ShardedMonitor {
    /// Sequence-journal entries currently held — one per retractable
    /// push, bounded by `len() - log_floor()` (the checkpoint test
    /// pins this).
    pub(crate) fn logged_len(&self) -> usize {
        self.seq.lock().state.log.len()
    }

    /// The **compaction frontier**: the longest prefix in which every
    /// operation belongs to a finished transaction whose *last*
    /// operation also lies in that prefix, clamped to the journals'
    /// retraction floor (a compacted push must already be permanent —
    /// the frontier-safety condition shared with
    /// [`ShardedMonitor::checkpoint`] and WAL truncation). Every
    /// [`ShardedMonitor::finish_txn`] that returned before this call
    /// counts.
    pub(crate) fn compaction_frontier(&self) -> usize {
        let mut s = self.seq.lock();
        if self.lanes.load(Ordering::Relaxed) {
            return self.lanes_frontier(&s, &mut self.lock_shards());
        }
        self.totals.apply_finished(|txn, _| s.state.finish(txn));
        s.state.frontier()
    }
}

#[cfg(test)]
mod tests {
    use super::super::OnlineMonitor;
    use super::*;
    use crate::ids::ItemId;
    use crate::value::Value;
    use std::sync::Arc;

    pub(super) fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    pub(super) fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    pub(super) fn example2_scopes() -> Vec<ItemSet> {
        vec![
            ItemSet::from_iter([ItemId(0), ItemId(1)]),
            ItemSet::from_iter([ItemId(2)]),
        ]
    }

    fn example2_ops() -> Vec<Operation> {
        vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ]
    }

    #[test]
    fn sharded_rejects_malformed_transactions_untouched() {
        let m = ShardedMonitor::new(example2_scopes());
        m.push(rd(1, 0, 0)).unwrap();
        m.push(wr(1, 1, 1)).unwrap();
        assert!(m.push(rd(1, 0, 0)).is_err(), "duplicate read");
        assert!(m.push(rd(1, 1, 1)).is_err(), "read after write");
        assert!(m.push(wr(1, 1, 2)).is_err(), "duplicate write");
        assert_eq!(m.len(), 2);
        m.push(rd(2, 0, 0)).unwrap();
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn floor_is_monotone_and_reaches_the_verdict() {
        let m = ShardedMonitor::new(example2_scopes());
        let mut worst = VerdictLevel::Serializable;
        for op in example2_ops() {
            let floor = m.push(op).unwrap();
            assert!(floor >= worst, "floor regressed");
            worst = floor;
        }
        assert_eq!(m.floor(), VerdictLevel::Pwsr);
        assert_eq!(m.verdict().level, VerdictLevel::Pwsr);
        assert!(!m.verdict().dr && !m.verdict().serializable);
    }

    #[test]
    fn empty_monitor_is_trivially_serializable() {
        let m = ShardedMonitor::new(example2_scopes());
        assert!(m.is_empty());
        let v = m.verdict();
        assert_eq!(v.level, VerdictLevel::Serializable);
        assert!(v.dr && v.lemma2_certified && v.lemma6_certified);
        assert!(m.lemma2_holds(0) && m.lemma6_holds(1));
        assert!(m.snapshot_schedule().is_empty());
    }

    /// Aborting a transaction removes exactly its operations; the
    /// surviving interleaving certifies identically to a single-writer
    /// replay, and the previously-broken rung heals when the aborted
    /// transaction caused the break.
    #[test]
    fn retract_txn_filters_and_heals() {
        // The canonical non-PWSR interleaving: r1(b) closes the {a,b}
        // cycle. Retract T1 — the survivor (T2 alone) is serializable.
        let ops = [wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)];
        let m = ShardedMonitor::new_logged(example2_scopes());
        let mut last = None;
        for op in &ops {
            last = Some(m.push_outcome(op.clone()).unwrap());
        }
        let out = last.unwrap();
        assert!(out.caused_violation && out.breaches(AdmissionLevel::Pwsr));
        assert_eq!(m.verdict().level, VerdictLevel::Violation);
        let (undone, repushed) = m.retract_txn(TxnId(1)).unwrap();
        assert_eq!((undone, repushed), (4, 2));
        let schedule = m.snapshot_schedule();
        assert!(schedule.ops().iter().all(|o| o.txn == TxnId(2)));
        let mut replay = OnlineMonitor::new(example2_scopes());
        for op in schedule.ops() {
            replay.push(op.clone()).unwrap();
        }
        assert_eq!(m.verdict(), replay.verdict());
        assert_eq!(m.verdict().level, VerdictLevel::Serializable);
        assert_eq!(m.floor(), VerdictLevel::Serializable);
        // An unknown transaction retracts nothing.
        assert_eq!(m.retract_txn(TxnId(99)).unwrap(), (0, 0));
        // T2 can be retracted too, emptying the monitor.
        let (undone, repushed) = m.retract_txn(TxnId(2)).unwrap();
        assert_eq!((undone, repushed), (2, 0));
        assert!(m.is_empty());
        assert_eq!(m.verdict().level, VerdictLevel::Serializable);
    }

    /// After a retraction, the §2.2 totals are restored: the aborted
    /// transaction can re-push the same accesses, and survivors'
    /// duplicate protections still hold.
    #[test]
    fn retraction_restores_totals() {
        let m = ShardedMonitor::new_logged(example2_scopes());
        m.push(rd(1, 0, 0)).unwrap();
        m.push(wr(2, 1, 1)).unwrap();
        m.push(wr(1, 2, 2)).unwrap();
        m.retract_txn(TxnId(1)).unwrap();
        // T1's totals are gone: the same accesses are valid again.
        m.push(rd(1, 0, 0)).unwrap();
        m.push(wr(1, 2, 2)).unwrap();
        // T2 survived with its totals intact.
        assert!(m.push(wr(2, 1, 9)).is_err(), "duplicate write kept");
        assert_eq!(m.len(), 3);
    }

    /// One monitor transition, as a [`Recorder`] heard it.
    #[derive(Debug, PartialEq)]
    enum Heard {
        Op(Operation),
        Truncate(usize),
        Floor(usize),
    }

    /// A journal that keeps what it hears where the test can read it.
    #[derive(Debug)]
    struct Recorder(Arc<Mutex<Vec<Heard>>>);

    impl Recorder {
        fn new() -> (Box<Recorder>, Arc<Mutex<Vec<Heard>>>) {
            let heard = Arc::new(Mutex::new(Vec::new()));
            (Box::new(Recorder(Arc::clone(&heard))), heard)
        }
    }

    impl MonitorJournal for Recorder {
        fn appended(&mut self, op: &Operation) {
            self.0.lock().push(Heard::Op(op.clone()));
        }
        fn truncated(&mut self, new_len: usize) {
            self.0.lock().push(Heard::Truncate(new_len));
        }
        fn floor_raised(&mut self, floor: usize) {
            self.0.lock().push(Heard::Floor(floor));
        }
    }

    /// What the durability journal hears of one retraction: the
    /// truncation to the victim's first operation, then one `appended`
    /// per survivor in its original order — the decomposition a log
    /// replays — and nothing for a transaction that holds no position;
    /// then one floor raise for two checkpoints to the same length.
    /// Both drivers hear the identical sequence.
    #[test]
    fn retract_txn_journals_one_truncation_then_each_survivor() {
        let (journal, heard) = Recorder::new();
        let m = ShardedMonitor::new_logged(example2_scopes()).with_journal(journal);
        let (journal, heard_online) = Recorder::new();
        let mut online = OnlineMonitor::new(example2_scopes()).with_journal(journal);
        let t2 = [rd(2, 0, 1), wr(2, 1, 2)];
        let runs: [&[Operation]; 5] = [
            &[wr(3, 2, 0)],
            &[wr(1, 0, 1)],
            &t2,
            &[rd(1, 1, 2)],
            &[rd(3, 1, 2)],
        ];
        for run in runs {
            m.push_batch(run).unwrap();
            online.push_batch_logged(run).unwrap();
        }
        heard.lock().clear();
        heard_online.lock().clear();
        assert_eq!(m.retract_txn(TxnId(1)).unwrap(), (5, 3));
        assert_eq!(m.retract_txn(TxnId(9)).unwrap(), (0, 0));
        assert_eq!(online.retract_txns(&[TxnId(1)]).unwrap(), (5, 3));
        assert_eq!(online.retract_txns(&[TxnId(9)]).unwrap(), (0, 0));
        for _ in 0..2 {
            assert_eq!(m.checkpoint([]), 4);
            assert_eq!(online.checkpoint(online.len()), 4);
        }
        let [r2, w2] = t2;
        assert_eq!(
            *heard.lock(),
            [
                Heard::Truncate(1),
                Heard::Op(r2),
                Heard::Op(w2),
                Heard::Op(rd(3, 1, 2)),
                Heard::Floor(4),
            ]
        );
        assert_eq!(*heard_online.lock(), *heard.lock());
    }

    /// The non-DR causality flag: the writer's next operation
    /// materializes the dirty read and reports `caused_non_dr`.
    #[test]
    fn push_outcome_reports_dr_causality() {
        let m = ShardedMonitor::new_logged(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(rd(2, 0, 1)).unwrap();
        let out = m.push_outcome(rd(1, 2, 0)).unwrap();
        assert!(out.caused_non_dr && !out.caused_violation);
        assert!(out.breaches(AdmissionLevel::PwsrDr));
        assert!(!out.breaches(AdmissionLevel::Pwsr));
        // Retract the materializing transaction: DR is restored.
        m.retract_txn(TxnId(1)).unwrap();
        assert!(m.verdict().dr);
        assert_eq!(m.floor(), VerdictLevel::Serializable);
    }

    /// The retraction contract: push `ops` with no retraction in
    /// between — every owner "descheduled" between its push returning
    /// and its `retract_txn` — then retract, in the order they were
    /// told, every transaction that received an outcome breaching
    /// `level`. The quiescent verdict must meet `level`: an aborted
    /// transaction may not change what the others were certified
    /// against.
    fn assert_told_transactions_heal(
        scopes: Vec<ItemSet>,
        ops: Vec<Operation>,
        level: AdmissionLevel,
    ) {
        let m = ShardedMonitor::new_logged(scopes);
        let mut told = Vec::new();
        for op in ops {
            let txn = op.txn;
            if m.push_outcome(op).unwrap().breaches(level) && !told.contains(&txn) {
                told.push(txn);
            }
        }
        assert!(!m.verdict().meets(level), "the schedule breaks the rung");
        for txn in told {
            m.retract_txn(txn).unwrap();
        }
        let v = m.verdict();
        assert!(v.meets(level), "every told transaction retracted: {v:?}");
        assert!(m.floor() <= v.level, "floor is a lower bound");
    }

    /// T1 closes a T1/T2 cycle over items 0 and 1; then, with T1 not
    /// yet retracted, T3/T4 push a second cycle over items 2 and 3.
    fn two_disjoint_cycles() -> Vec<Operation> {
        vec![
            rd(1, 0, 0),
            wr(2, 0, 1),
            wr(2, 1, 1),
            rd(1, 1, 1),
            rd(3, 2, 0),
            wr(4, 2, 1),
            wr(4, 3, 1),
            rd(3, 3, 1),
        ]
    }

    /// The frozen-projection window, PWSR rung: T1 closes the T1/T2
    /// cycle, and before T1 is retracted T3/T4 push a second, disjoint
    /// cycle into the frozen conjunct. Those pushes were never
    /// certified, so their transactions must be told.
    #[test]
    fn pushes_into_a_frozen_conjunct_are_told() {
        let scope = ItemSet::from_iter((0..4).map(ItemId));
        assert_told_transactions_heal(vec![scope], two_disjoint_cycles(), AdmissionLevel::Pwsr);
    }

    /// The same window on the DR rung: T1's second operation
    /// materializes the first dirty read; T3's, pushed before T1 is
    /// retracted, materializes another and must be told as well.
    #[test]
    fn every_dirtily_read_transaction_is_told() {
        let scope = ItemSet::from_iter((0..4).map(ItemId));
        let ops = vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            wr(1, 1, 1),
            wr(3, 2, 1),
            rd(4, 2, 1),
            wr(3, 3, 1),
        ];
        assert_told_transactions_heal(vec![scope], ops, AdmissionLevel::PwsrDr);
    }

    /// And on the `Serializable` rung: singleton conjuncts keep every
    /// projection acyclic, so only the global graph decides; the
    /// second, disjoint global cycle meets it frozen.
    #[test]
    fn pushes_into_a_frozen_global_graph_are_told() {
        let scopes = (0..4).map(|i| ItemSet::from_iter([ItemId(i)])).collect();
        assert_told_transactions_heal(scopes, two_disjoint_cycles(), AdmissionLevel::Serializable);
    }

    /// Serial-stage timing in both modes: a lane-mode push times its
    /// lane's stage-1 section under the home shard's lock, a push
    /// through the pipeline its hold of the sequence mutex (the first
    /// spanning run's push, T2's write of `d2`, included); every
    /// operation counts once. An untimed monitor reads 0.
    #[test]
    fn serial_timing_accumulates() {
        let m = ShardedMonitor::new(example2_scopes()).with_serial_timing();
        let ops = example2_ops();
        m.push(ops[0].clone()).unwrap();
        assert!(m.lanes.load(Ordering::Relaxed), "lane mode");
        let in_lanes = m.serial_ns.load(Ordering::Relaxed);
        assert!(in_lanes > 0 && m.serial_ns_per_op() > 0.0);
        for op in &ops[1..] {
            m.push(op.clone()).unwrap();
        }
        assert!(!m.lanes.load(Ordering::Relaxed), "the pipeline");
        assert!(m.serial_ns.load(Ordering::Relaxed) > in_lanes);
        assert_eq!(m.serial_ops.load(Ordering::Relaxed), ops.len() as u64);
        let untimed = ShardedMonitor::new(example2_scopes());
        untimed.push(wr(1, 0, 1)).unwrap();
        assert_eq!(untimed.serial_ns_per_op(), 0.0);
    }

    #[test]
    #[should_panic(expected = "unlogged ShardedMonitor")]
    fn truncate_unlogged_panics() {
        let m = ShardedMonitor::new(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.truncate_to(0);
    }

    /// `checkpoint` raises every stage journal's floor to the oldest
    /// live transaction's first operation, shrinking the sequence,
    /// global and per-shard journals to the live suffix; the live
    /// suffix still aborts incrementally afterwards.
    #[test]
    fn checkpoint_bounds_journals_to_the_live_suffix() {
        let m = ShardedMonitor::new_logged(example2_scopes());
        // 30 settled single-op transactions across both scopes, then
        // one live straggler.
        for k in 0..30u32 {
            m.push(wr(k + 10, k % 3, 1)).unwrap();
        }
        let live = TxnId(500);
        m.push(rd(live.0, 0, 1)).unwrap();
        // Unbounded: one sequence entry per push, shard entries at
        // every position each shard saw.
        assert_eq!(m.logged_len(), 31);
        assert_eq!(m.log_floor(), 0);
        let floor = m.checkpoint([live]);
        assert_eq!(floor, 30, "oldest live txn's first op");
        assert_eq!(m.log_floor(), 30);
        assert_eq!(m.logged_len(), 1);
        assert_eq!(m.len(), 31, "checkpoint retracts nothing");
        for shard in &m.shards {
            let sh = shard.state.lock();
            assert_eq!(
                sh.stage.log.count_front(|&pos| (pos as usize) < 30),
                0,
                "below-floor shard deltas must be reclaimed"
            );
        }
        let g = m.gstate.lock();
        assert_eq!((g.log.base(), g.log.len()), (30, 1));
        drop(g);
        // The live suffix still aborts incrementally, and the monitor
        // stays parity-exact with a fresh single-writer replay.
        let (undone, repushed) = m.retract_txn(live).unwrap();
        assert_eq!((undone, repushed), (1, 0));
        let mut fresh = OnlineMonitor::new(example2_scopes());
        for op in m.snapshot_schedule().ops() {
            fresh.push(op.clone()).unwrap();
        }
        assert_eq!(m.verdict(), fresh.verdict());
        // Nothing live: the whole journal drains.
        let floor = m.checkpoint([]);
        assert_eq!(floor, m.len());
        assert_eq!(m.logged_len(), 0);
        // A transaction the schedule has never seen does not lower
        // the floor (it contributes no first-op position).
        assert_eq!(m.checkpoint([TxnId(9999)]), m.len());
        // Unlogged monitors have nothing to reclaim, and so nothing to
        // journal: their floor is already their length.
        let (journal, heard) = Recorder::new();
        let u = ShardedMonitor::new(example2_scopes()).with_journal(journal);
        u.push(wr(1, 0, 1)).unwrap();
        assert_eq!(u.checkpoint([]), 1);
        assert_eq!(u.log_floor(), 1);
        assert_eq!(*heard.lock(), [Heard::Op(wr(1, 0, 1))]);
    }

    /// Reaching below a checkpointed floor is a caller bug (the live
    /// set under-approximated the abortable transactions) and fails
    /// loudly rather than corrupting state.
    #[test]
    #[should_panic(expected = "below the retraction floor")]
    fn truncating_below_the_floor_panics() {
        let m = ShardedMonitor::new_logged(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(wr(2, 1, 1)).unwrap();
        assert_eq!(m.checkpoint([TxnId(2)]), 1);
        m.truncate_to(0);
    }

    /// The rank tracker itself rejects out-of-order acquisition — the
    /// deterministic failure mode every lock-order regression hits.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn out_of_order_acquisition_is_rejected() {
        super::lock_order::acquire(shard_rank(1));
        super::lock_order::acquire(RANK_GLOBAL);
    }

    /// On a logged monitor the frontier is clamped to the checkpoint
    /// floor, and compaction composes with retraction: summarized
    /// transactions reject `retract_txn` with a descriptive error
    /// while the live suffix still aborts.
    #[test]
    fn sharded_compaction_respects_floor_and_rejects_summarized_retract() {
        let m = ShardedMonitor::new_logged(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(wr(2, 1, 1)).unwrap();
        m.finish_txn(TxnId(1));
        // No checkpoint yet: every push is retractable, so nothing is
        // eligible for the permanent prefix.
        assert_eq!(m.compaction_frontier(), 0);
        assert_eq!(m.compact(), CompactStats::default());
        assert_eq!(m.checkpoint([TxnId(2)]), 1);
        assert_eq!(m.compaction_frontier(), 1);
        let stats = m.compact();
        assert_eq!((stats.frontier, stats.txns_summarized), (1, 1));
        let err = m.retract_txn(TxnId(1)).unwrap_err();
        assert!(
            err.to_string().contains("summarized"),
            "descriptive rejection, got: {err}"
        );
        // The live transaction still aborts incrementally.
        assert_eq!(m.retract_txn(TxnId(2)).unwrap(), (1, 0));
        assert_eq!(m.len(), 1);
    }

    /// A finish recorded in its stripe outlives a retraction that pops
    /// the transaction's slot, as a declaration does in the single
    /// writer: T2 opens at position 0 and T1 finishes after it, so
    /// retracting T2 pops T1's slot and re-pushes it (the detached
    /// path); then T3 finishes, is retracted itself, a frontier is
    /// computed while it has no slot, and it pushes again. Both
    /// drivers run the script and agree on every frontier and sweep.
    #[test]
    fn a_recorded_finish_survives_a_retraction_that_pops_its_slot() {
        let m = ShardedMonitor::new_logged(example2_scopes());
        let mut online = OnlineMonitor::new(example2_scopes());
        let push = |m: &ShardedMonitor, online: &mut OnlineMonitor, run: &[Operation]| {
            m.push_batch(run).unwrap();
            online.push_batch_logged(run).unwrap();
        };
        push(&m, &mut online, &[wr(2, 0, 1)]);
        push(&m, &mut online, &[rd(1, 1, 0), wr(1, 2, 1)]);
        let before = m.resident_bytes_estimate();
        m.finish_txn(TxnId(1));
        online.finish_txn(TxnId(1));
        assert_eq!(
            m.resident_bytes_estimate(),
            before + std::mem::size_of::<TxnId>(),
            "the recorded id is resident"
        );
        assert_eq!(m.retract_txn(TxnId(2)).unwrap(), (3, 2));
        assert_eq!(online.retract_txns(&[TxnId(2)]).unwrap(), (3, 2));
        assert_eq!(m.checkpoint([]), 2);
        assert_eq!(online.checkpoint(online.len()), 2);
        assert_eq!(m.compaction_frontier(), 2);
        assert_eq!(online.compaction_frontier(), 2);
        assert_eq!(m.compact(), online.compact());
        assert!(m.is_summarized(TxnId(1)) && online.is_summarized(TxnId(1)));

        let t3 = [wr(3, 0, 2)];
        push(&m, &mut online, &t3);
        m.finish_txn(TxnId(3));
        online.finish_txn(TxnId(3));
        assert_eq!(m.retract_txn(TxnId(3)).unwrap(), (1, 0));
        assert_eq!(online.retract_txns(&[TxnId(3)]).unwrap(), (1, 0));
        assert_eq!(m.compaction_frontier(), online.compaction_frontier());
        push(&m, &mut online, &t3);
        assert_eq!(m.checkpoint([]), 3);
        assert_eq!(online.checkpoint(online.len()), 3);
        assert_eq!(m.compaction_frontier(), 3);
        assert_eq!(online.compaction_frontier(), 3);
        assert_eq!(m.compact(), online.compact());
        assert!(m.is_summarized(TxnId(3)) && online.is_summarized(TxnId(3)));
    }

    /// Finishes recorded from every lane reach the frontier: lanes on
    /// disjoint conjuncts push, finish and compact as they go, and one
    /// more sweep at quiescence reclaims the whole stream.
    #[test]
    fn finishes_from_every_lane_reach_the_frontier() {
        const LANES: u32 = 3;
        const TXNS: u32 = 200;
        let scopes = (0..LANES)
            .map(|k| ItemSet::from_iter((0..4).map(|i| ItemId(4 * k + i))))
            .collect();
        let m = ShardedMonitor::new(scopes);
        std::thread::scope(|scope| {
            for k in 0..LANES {
                let m = &m;
                scope.spawn(move || {
                    for j in 0..TXNS {
                        let (txn, x) = (1 + k + LANES * j, 4 * k + j % 4);
                        m.push_batch(&[rd(txn, x, 0), wr(txn, x, 1)]).unwrap();
                        m.finish_txn(TxnId(txn));
                        if j % 8 == 7 {
                            m.compact();
                        }
                    }
                });
            }
        });
        m.compact();
        assert_eq!(m.len(), (2 * LANES * TXNS) as usize);
        assert_eq!(m.ops_reclaimed(), m.len() as u64);
    }

    /// Satellite regression: reaching below the compaction frontier is
    /// impossible to do quietly — the frontier never exceeds the
    /// checkpoint floor, so the floor assert fires first and names the
    /// compacted prefix as permanent.
    #[test]
    #[should_panic(expected = "below the retraction floor")]
    fn truncating_below_the_compaction_frontier_panics() {
        let m = ShardedMonitor::new_logged(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(wr(2, 1, 1)).unwrap();
        m.finish_txn(TxnId(1));
        m.checkpoint([TxnId(2)]);
        assert_eq!(m.compact().frontier, 1);
        m.truncate_to(0);
    }
}
