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
//! ## The ticketed pipeline
//!
//! A monitored prefix is a *total order*, so something must define it.
//! [`ShardedMonitor::push_batch`] takes one transaction's run through
//! three stages:
//!
//! 1. **sequence** (one short mutex around `SeqState`): append the run
//!    to the growing [`Schedule`], update the `last_write`/reads-from
//!    entries, and claim *tickets* — one per operation for the global
//!    stage and one per conjunct shard whose scope contains its item
//!    (looked up in the scopes' item → conjunct index, built once at
//!    construction). This section is `O(words)` with **no graph work
//!    and no §2.2 scans** — the per-transaction read/write totals that
//!    back the §2.2 validation live *outside* the mutex, in a striped
//!    table (each transaction's row is touched only by the thread
//!    pushing that transaction, per the program-order contract), so
//!    the order-claiming region is the thinnest it can be. The
//!    durability journal hears of the run here, which makes journal
//!    order claimed order.
//! 2. **global** (ticketed, `GlobalState` behind its own lock):
//!    delayed-read tracking (Definition 5 marks, the first-non-DR
//!    prefix, the per-conjunct Lemma-6 kills) and the global reduced
//!    conflict graph under Pearce–Kelly. Tickets are served in claim
//!    order, so this state evolves in exactly the claimed
//!    interleaving.
//! 3. **shards** (ticketed, one `ShardState` per conjunct behind an
//!    `RwLock`): each touched conjunct's reduced conflict graph.
//!    Operations on *different* conjuncts proceed through different
//!    shards concurrently — this is where the parallelism the single
//!    writer forfeits comes back.
//!
//! Every stage sees its operations in claimed-position order, and the
//! stage code is the single writer's, so each component's state
//! equals the single-writer monitor's on the same interleaving — the
//! final [`ShardedMonitor::verdict`] is **byte-identical** to
//! replaying the recorded schedule through an `OnlineMonitor`. What
//! `tests/sharded_props.rs` stresses is therefore this module's own
//! part: that the turnstiles really do serve in claimed order under
//! real threads, aborts and compactions. The stages form a pipeline:
//! while one thread runs its global stage for position `p`, another
//! can run the sequence stage for `p+1` and a third a shard stage for
//! `p-1`, so throughput is bounded by the *widest stage*, not by the
//! sum.
//!
//! The verdict ladder is additionally mirrored into a **lock-free
//! atomic floor** (`fetch_max` over the ladder rank, `fetch_min` over
//! first-violation positions): `push` returns the floor without
//! taking any further lock, and readers get a sound "no better than"
//! answer mid-flight; the exact `Verdict` is assembled by
//! [`ShardedMonitor::verdict`] (exact at quiescence). The floor only
//! worsens between retractions; [`ShardedMonitor::truncate_to`] and
//! [`ShardedMonitor::retract_txn`] recompute it exactly.
//!
//! ## Retraction
//!
//! A monitor built with [`ShardedMonitor::new_logged`] has every stage
//! journal what it applies ([`undo`](super::undo)): each stage state
//! owns its journal, so the journal sits *behind the stage's existing
//! lock*, and because each stage serves tickets in claimed order each
//! journal is automatically in position order — the LIFO retraction
//! invariant holds per stage without any cross-stage coordination.
//!
//! [`ShardedMonitor::truncate_to`] retracts a speculative suffix: it
//! holds the sequence mutex (no new positions can be claimed), waits
//! for the in-flight pipeline to drain (bounded by the ops already
//! ticketed — they complete without needing the sequence mutex), then
//! has each stage undo its last entry, newest position first, handing
//! each turnstile its ticket back. A shard is locked only while *its
//! own* entries pop — a shard untouched by the suffix is never locked
//! at all — so the cost is `O(ops undone)` counted per shard, not
//! `O(schedule)`.
//! [`ShardedMonitor::retract_txn`] is the abort primitive on top, and
//! has the one shape retraction has under either driver: truncate to
//! the victim's first operation, then re-push the survivors through
//! the ordinary admission path (the same claim and serve as a push,
//! under the sequence lock the truncation already holds). Both leave
//! the monitor byte-identical to a single-writer replay of the
//! surviving schedule — pinned under real-thread abort storms by
//! `tests/sharded_props.rs`; what a re-push may and may not be assumed
//! to preserve is `retract_txn`'s doc comment, and
//! `tests/retract_props.rs` holds both drivers to it.
//!
//! [`ShardedMonitor::checkpoint`] bounds the journals' memory over a
//! long run: once the caller knows which transactions may still
//! abort, every stage's floor rises to the oldest live transaction's
//! first operation and the per-push deltas below it are reclaimed.
//! [`ShardedMonitor::compact`] then collapses the finished prefix
//! below that floor, stage by stage in lock-rank order.
//!
//! ## Lock discipline
//!
//! The pipeline's locks carry fixed *ranks* — sequence mutex (0),
//! global stage (1), conjunct shard `k` (2 + k) — and every code path
//! acquires strictly ascending (holding a lock, only higher ranks may
//! be taken), which rules out deadlock by resource ordering. Debug
//! builds track held ranks per thread and assert the discipline on
//! every acquisition (the private `lock_order` tracker), so a
//! lock-order regression fails deterministically in tests — the
//! bounded exhaustive-interleaving model test below drives every
//! lock-taking entry point through every interleaving of a small
//! workload.

use super::journal::MonitorJournal;
use super::stages::{self, GlobalState, SeqState, ShardState, TxnTotals};
use super::{AdmissionLevel, Applied, CompactStats, ScopeIndex, Verdict, VerdictLevel};
use crate::error::Result;
use crate::ids::{ItemId, OpIndex, TxnId};
use crate::op::Operation;
use crate::schedule::Schedule;
use crate::state::ItemSet;
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

const NO_POS: u32 = u32::MAX;

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
/// regression fails deterministically in tests (see the bounded
/// exhaustive-interleaving model test); release builds compile the
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

    fn lock(&self) -> RankedGuard<impl DerefMut<Target = T> + '_> {
        lock_order::acquire(self.rank);
        RankedGuard {
            rank: self.rank,
            guard: self.inner.lock(),
        }
    }

    fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// A [`RwLock`] that checks the [`lock_order`] discipline in debug
/// builds (both reader and writer acquisitions must be ascending —
/// reader/reader sharing never deadlocks by itself, but a reader that
/// acquires against rank order can still complete a writer cycle).
#[derive(Debug)]
struct RankedRwLock<T> {
    rank: u32,
    inner: RwLock<T>,
}

impl<T> RankedRwLock<T> {
    fn new(rank: u32, value: T) -> RankedRwLock<T> {
        RankedRwLock {
            rank,
            inner: RwLock::new(value),
        }
    }

    fn read(&self) -> RankedGuard<impl Deref<Target = T> + '_> {
        lock_order::acquire(self.rank);
        RankedGuard {
            rank: self.rank,
            guard: self.inner.read(),
        }
    }

    fn write(&self) -> RankedGuard<impl DerefMut<Target = T> + '_> {
        lock_order::acquire(self.rank);
        RankedGuard {
            rank: self.rank,
            guard: self.inner.write(),
        }
    }
}

/// RAII pairing of a lock guard with its rank: releases the rank in
/// the [`lock_order`] tracker when the guard drops.
struct RankedGuard<G> {
    rank: u32,
    guard: G,
}

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
    }
}

/// How many independently locked parts the totals table has.
const TOTALS_STRIPES: usize = 16;
const _: () = assert!(TOTALS_STRIPES.is_power_of_two());

/// The §2.2 totals of every live transaction. Lives *outside* the
/// sequence mutex: the push contract (one thread pushes a given
/// transaction's operations, in program order) makes each entry
/// effectively thread-private, so validating against it costs no
/// shared serial time. The entries sit in a few hash maps, each behind
/// its own lock that is held only while one run is validated or
/// stripped; a transaction's entry is a row of its stripe's map, not a
/// heap cell of its own, and the rows of forgotten transactions are
/// handed to the next new ones with their spill buffers.
#[derive(Debug)]
struct TotalsTable {
    stripes: Vec<Mutex<TotalsStripe>>,
}

#[derive(Debug, Default)]
struct TotalsStripe {
    live: HashMap<TxnId, TxnTotals>,
    spare: Vec<TxnTotals>,
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
    /// code).
    fn admit(&self, txn: TxnId, ops: &[Operation]) -> Result<()> {
        let mut stripe = self.stripe(txn).lock();
        let stripe = &mut *stripe;
        stripe
            .live
            .entry(txn)
            .or_insert_with(|| stripe.spare.pop().unwrap_or_default())
            .admit(ops)
    }

    /// Clear the bits `ops` set in `txn`'s totals: the run never
    /// claimed a position, or its operations were retracted.
    fn strip<'a>(&self, txn: TxnId, ops: impl IntoIterator<Item = &'a Operation>) {
        let mut stripe = self.stripe(txn).lock();
        let t = stripe
            .live
            .get_mut(&txn)
            .expect("totals exist for a pushed transaction");
        ops.into_iter().for_each(|op| t.strip(op));
    }

    /// Drop `txn`'s totals: it was retracted whole, or summarized.
    fn forget(&self, txn: TxnId) {
        let mut stripe = self.stripe(txn).lock();
        if let Some(mut t) = stripe.live.remove(&txn) {
            t.clear();
            stripe.spare.push(t);
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
                    .map(|t| size_of::<(TxnId, TxnTotals)>() + 1 + t.heap_bytes())
                    .sum::<usize>()
            })
            .sum::<usize>()
    }
}

/// What one admission call needs between its stages, kept per thread
/// so that a lane reuses its own buffers and shares them with nobody.
#[derive(Default)]
struct LaneScratch {
    /// One entry per (operation, conjunct containing its item):
    /// `(shard, index of the operation in the run, ticket)`. Filled in
    /// program order under the sequence lock — so each shard's tickets
    /// follow program order — then sorted by shard for stage 3.
    turns: Vec<(u32, u32, u32)>,
    /// Per operation of the run: the slot of the writer a read takes
    /// its value from, as the sequence stage resolved it.
    rf_slots: Vec<Option<usize>>,
}

thread_local! {
    static LANE_SCRATCH: Cell<LaneScratch> = const {
        Cell::new(LaneScratch {
            turns: Vec::new(),
            rf_slots: Vec::new(),
        })
    };
}

/// Run `f` with the calling thread's [`LaneScratch`] (each claim
/// empties it). The scratch is taken out of its cell for the duration,
/// so a re-entrant call (a journal that pushes) finds a fresh one
/// instead of a borrow conflict.
fn with_lane_scratch<R>(f: impl FnOnce(&mut LaneScratch) -> R) -> R {
    let mut scratch = LANE_SCRATCH.with(Cell::take);
    let out = f(&mut scratch);
    LANE_SCRATCH.with(|cell| cell.set(scratch));
    out
}

/// What the order-claiming sequence mutex guards: the stage-1 state
/// plus what only a pipeline needs beside it.
#[derive(Debug)]
struct Sequencer {
    state: SeqState,
    /// Next global-stage ticket. Tickets are compared for equality
    /// only and all their arithmetic wraps, so a stream may run past
    /// 2³² operations.
    gticket: u32,
    /// Next ticket per conjunct shard.
    tickets: Vec<u32>,
    /// Durability journal: receives appends/truncations/floor raises
    /// under this mutex, so journal order is claimed schedule order
    /// (see [`MonitorJournal`]'s ordering contract).
    journal: Option<Box<dyn MonitorJournal>>,
    /// The survivors a [`ShardedMonitor::retract_txn`] re-pushes.
    survivors: Vec<Operation>,
}

/// One conjunct shard: a ticket turnstile plus the guarded state.
/// `RwLock` (not `Mutex`) so read-mostly admission probes
/// ([`ShardedMonitor::would_admit`]) never take the shard exclusively.
#[derive(Debug)]
struct Shard {
    serving: AtomicU32,
    state: RankedRwLock<ShardState>,
}

/// Spin with bounded exponential backoff, then yield: shard turns are
/// short, so the first probes re-check almost immediately, but each
/// miss doubles the `spin_loop` burst (1, 2, 4, … capped at 64 hints)
/// so a waiter behind a slow predecessor backs off the cache line
/// instead of hammering it; past the spin budget it yields — on an
/// oversubscribed (or single-core) host the predecessor needs the CPU
/// to finish its turn.
fn wait_turn(serving: &AtomicU32, ticket: u32) {
    let mut round = 0u32;
    while serving.load(Ordering::Acquire) != ticket {
        if round < 12 {
            for _ in 0..(1u32 << round.min(6)) {
                std::hint::spin_loop();
            }
            round += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

/// What one [`ShardedMonitor::push_outcome`] observed — the lock-free
/// floor plus one flag per rung: whether **this** push, against the
/// state just before it, *would not have been admitted* at that rung
/// (what [`ShardedMonitor::would_admit`] answers, taken at the push).
/// That covers the push that broke the rung and every push that met it
/// already broken: an operation pushed into a frozen graph was never
/// certified, and the retraction that heals the rung must not leave it
/// behind. An optimistic executor aborts the pushing transaction
/// exactly when its own operation breached the configured admission
/// floor ([`PushOutcome::breaches`]); once every transaction so told
/// has been retracted, the verdict meets that floor again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushOutcome {
    /// The claimed position of the pushed operation.
    pub pos: OpIndex,
    /// The lock-free verdict floor after this push.
    pub floor: VerdictLevel,
    /// The global conflict graph would not have admitted this push:
    /// it closed the first cycle, or the graph was already frozen.
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
/// certification shards behind their own locks, a ticketed pipeline
/// defining the total order, a lock-free verdict floor — and, when
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
    gserving: AtomicU32,
    gstate: RankedRwLock<GlobalState>,
    shards: Vec<Shard>,
    /// Lock-free verdict floor: the worst `VerdictLevel as u8` any
    /// push computed (recomputed exactly by retraction).
    floor: AtomicU8,
    /// Lock-free min over conjunct cycle positions (`NO_POS` = none).
    first_violation: AtomicU32,
    /// Pushes past the sequence stage that have not yet published
    /// their floor rank — the drain waits on this as well as the
    /// ticket turnstiles, so a retraction's exact floor recompute can
    /// never be clobbered by a stale in-flight `fetch_max`.
    inflight: AtomicU32,
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
        ShardedMonitor {
            scope_index: ScopeIndex::new(&scopes),
            scopes,
            totals: TotalsTable::new(),
            seq: RankedMutex::new(
                RANK_SEQ,
                Sequencer {
                    state: SeqState::default(),
                    gticket: 0,
                    tickets: vec![0; n],
                    journal: None,
                    survivors: Vec::new(),
                },
            ),
            gserving: AtomicU32::new(0),
            gstate: RankedRwLock::new(RANK_GLOBAL, GlobalState::new(n)),
            shards: (0..n)
                .map(|k| Shard {
                    serving: AtomicU32::new(0),
                    state: RankedRwLock::new(shard_rank(k), ShardState::default()),
                })
                .collect(),
            floor: AtomicU8::new(0),
            first_violation: AtomicU32::new(NO_POS),
            inflight: AtomicU32::new(0),
            logging,
            time_serial: false,
            serial_ns: AtomicU64::new(0),
            serial_ops: AtomicU64::new(0),
        }
    }

    /// Start every turnstile of a monitor that has admitted nothing at
    /// `first` instead of 0, so a test reaches the `u32` wrap-around
    /// in a handful of pushes.
    #[cfg(test)]
    fn with_first_ticket(self, first: u32) -> ShardedMonitor {
        {
            let mut s = self.seq.lock();
            assert!(s.state.schedule.is_empty(), "tickets already claimed");
            s.gticket = first;
            s.tickets.fill(first);
        }
        self.gserving.store(first, Ordering::Release);
        for shard in &self.shards {
            shard.serving.store(first, Ordering::Release);
        }
        self
    }

    /// A sharded monitor over an integrity constraint's conjuncts.
    pub fn for_constraint(ic: &crate::constraint::IntegrityConstraint) -> ShardedMonitor {
        ShardedMonitor::new(ic.scopes())
    }

    /// Attach a durability journal: every append, truncation and
    /// checkpoint-floor raise is reported to `journal` **under the
    /// order-claiming sequence mutex**, so journal order is claimed
    /// schedule order even with many pushing threads — the property
    /// that lets a WAL written here replay deterministically into a
    /// single-writer monitor (see [`MonitorJournal`]). Attach before
    /// the first push; the builder style mirrors
    /// [`ShardedMonitor::with_serial_timing`].
    pub fn with_journal(self, journal: Box<dyn MonitorJournal>) -> ShardedMonitor {
        self.seq.lock().journal = Some(journal);
        self
    }

    /// Enable serial-stage timing: every push accumulates the
    /// nanoseconds it spent inside the order-claiming mutex, read back
    /// by [`ShardedMonitor::serial_ns_per_op`]. Costs two clock reads
    /// per push — a measurement mode, not the deployment default.
    pub fn with_serial_timing(mut self) -> ShardedMonitor {
        self.time_serial = true;
        self
    }

    /// Mean nanoseconds per push spent inside the order-claiming
    /// mutex (0.0 unless built [`ShardedMonitor::with_serial_timing`]).
    pub fn serial_ns_per_op(&self) -> f64 {
        let ops = self.serial_ops.load(Ordering::Relaxed);
        if ops == 0 {
            0.0
        } else {
            self.serial_ns.load(Ordering::Relaxed) as f64 / ops as f64
        }
    }

    /// Does this monitor journal pushes for retraction?
    pub fn logging(&self) -> bool {
        self.logging
    }

    /// The projection scopes.
    pub fn scopes(&self) -> &[ItemSet] {
        &self.scopes
    }

    /// Operations pushed so far.
    pub fn len(&self) -> usize {
        self.seq.lock().state.schedule.len()
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
    /// segment-reserved `Schedule` append) together with the whole
    /// run's global and per-shard tickets, one global-turnstile wait
    /// plus one `gstate` write lock for all `k` operations, and one
    /// turnstile wait plus one write lock per **touched conjunct
    /// shard** rather than per operation. Ticket *numbering* is
    /// unchanged — every operation still owns one global ticket and
    /// one ticket per touched shard, claimed atomically in program
    /// order — so the undo journals stay per-op LIFO and
    /// [`ShardedMonitor::truncate_to`] / [`ShardedMonitor::retract_txn`]
    /// retract batch-admitted operations individually, exactly as if
    /// they had been pushed one by one.
    ///
    /// Returns one [`PushOutcome`] per operation, in program order,
    /// byte-identical to what `k` singleton [`ShardedMonitor::push_outcome`]
    /// calls would have returned for the same interleaving (pinned by
    /// the twin-harness proptests in `tests/batch_props.rs`): per-op
    /// positions, causality flags, and floors — an executor's culprit
    /// identification and abort decisions need no batch-size cases.
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

    /// The admission pipeline for one transaction's nonempty run,
    /// filling `outcomes[i]` for `ops[i]`: §2.2 validation, then
    /// [`claim`](Self::claim) under the sequence lock, then
    /// [`serve`](Self::serve) with the lock released. `framed` says how
    /// a journal hears of it: as one `appended_batch`, or (a run of
    /// one from [`ShardedMonitor::push_outcome`]) as `appended`.
    fn admit(&self, ops: &[Operation], framed: bool, outcomes: &mut [PushOutcome]) -> Result<()> {
        let txn = ops[0].txn;
        // The whole run, atomically, outside the serial section. The
        // totals belong to this thread by the program-order contract,
        // so no ordering is lost by validating before the positions
        // are claimed.
        self.totals.admit(txn, ops)?;
        with_lane_scratch(|scratch| {
            let claimed = {
                let mut s = self.seq.lock();
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
                // Taken under the sequence lock, released after the
                // floor publication: a retraction's drain waits for
                // this to reach zero, so it can never interleave
                // between a push's stage work and its (stale-state)
                // `fetch_max`. One token covers the whole run: the
                // drain only needs to know the pipeline has
                // unpublished floors, not how many.
                self.inflight.fetch_add(1, Ordering::AcqRel);
                if let Some(t0) = t0 {
                    self.serial_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    self.serial_ops
                        .fetch_add(ops.len() as u64, Ordering::Relaxed);
                }
                claimed
            };
            self.serve(ops, claimed, scratch, outcomes);
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            Ok(())
        })
    }

    /// The first half of an admission, under the (held) sequence lock:
    /// report the run to the durability journal, claim its segment
    /// ([`SeqState::apply`]) and with it, atomically and in program
    /// order, every global and per-shard ticket. `existing` is the
    /// transaction's slot as [`SeqState::slot`] reports it. Leaves the
    /// claimed shard turns and the resolved reads-from slots in
    /// `scratch`; returns the first position, the transaction's slot
    /// and the first global ticket — what [`serve`](Self::serve) takes.
    fn claim(
        &self,
        s: &mut Sequencer,
        ops: &[Operation],
        framed: bool,
        existing: Option<usize>,
        scratch: &mut LaneScratch,
    ) -> (usize, usize, u32) {
        if let Some(journal) = s.journal.as_deref_mut() {
            if framed {
                journal.appended_batch(ops);
            } else {
                journal.appended(&ops[0]);
            }
        }
        scratch.turns.clear();
        scratch.rf_slots.clear();
        let (p0, slot) = s
            .state
            .apply(ops, existing, self.logging, &mut scratch.rf_slots);
        for (i, op) in ops.iter().enumerate() {
            for &k in self.scope_index.of(op.item) {
                let ticket = &mut s.tickets[k as usize];
                scratch.turns.push((k, i as u32, *ticket));
                *ticket = ticket.wrapping_add(1);
            }
        }
        let g0 = s.gticket;
        s.gticket = g0.wrapping_add(ops.len() as u32);
        (p0, slot, g0)
    }

    /// The second half: take the claimed run through its global turn
    /// and one turn per touched shard, then publish the lock-free
    /// floor, filling `outcomes`. Needs no sequence lock — an ordinary
    /// push has released it; a retraction re-pushing a survivor still
    /// holds it, drained, so every turn is already the caller's.
    fn serve(
        &self,
        ops: &[Operation],
        (p0, slot, g0): (usize, usize, u32),
        scratch: &mut LaneScratch,
        outcomes: &mut [PushOutcome],
    ) {
        // --- stage 2: one global turn for the run -----------------------
        // Per-op results are captured in program order inside the one
        // write-lock hold, so each operation's (serializable, dr)
        // snapshot is prefix-exact — identical to singleton pushes.
        wait_turn(&self.gserving, g0);
        {
            let mut g = self.gstate.write();
            for (i, op) in ops.iter().enumerate() {
                let p = OpIndex(p0 + i);
                let caused_non_dr =
                    g.apply(&self.scopes, slot, op, scratch.rf_slots[i], p, self.logging);
                // The outcome as far as this stage knows it: as
                // `floor`, the rung the prefix holds *if no conjunct
                // is violated* (stage 3 and the floor publication
                // settle that).
                outcomes[i] = PushOutcome {
                    pos: p,
                    floor: g.level(true),
                    caused_non_serializable: !g.graph.serializable(),
                    caused_violation: false,
                    caused_non_dr,
                };
            }
        }
        self.gserving
            .store(g0.wrapping_add(ops.len() as u32), Ordering::Release);

        // --- stage 3: one turn per touched shard ------------------------
        // The lock-free violation floor moves only through this run's
        // own `caused` flags in a single-writer interleaving, so
        // capturing it before the shard turns and prefix-OR-ing the
        // per-op flags reproduces exactly what each singleton push
        // would have loaded after its own shard stages.
        let viol_pre = self.first_violation.load(Ordering::Acquire) != NO_POS;
        scratch.turns.sort_unstable();
        for turns in scratch.turns.chunk_by(|a, b| a.0 == b.0) {
            let (k, _, t0k) = turns[0];
            let shard = &self.shards[k as usize];
            wait_turn(&shard.serving, t0k);
            {
                let mut sh = shard.state.write();
                for &(_, i, _) in turns {
                    let i = i as usize;
                    outcomes[i].caused_violation |=
                        self.stage_shard(&mut sh, slot, &ops[i], OpIndex(p0 + i));
                }
            }
            shard
                .serving
                .store(t0k.wrapping_add(turns.len() as u32), Ordering::Release);
        }

        // --- lock-free floor, per op in program order -------------------
        let mut violated = viol_pre;
        for outcome in outcomes.iter_mut() {
            violated |= outcome.caused_violation;
            let mine = if violated {
                VerdictLevel::Violation
            } else {
                outcome.floor
            };
            let prev = self.floor.fetch_max(mine as u8, Ordering::AcqRel);
            outcome.floor = VerdictLevel::from_floor(prev).max(mine);
        }
    }

    /// Stage 3 against an already write-locked shard (the caller holds
    /// its ticket). Returns whether this access breached the conjunct
    /// — closed its first cycle, or met it already frozen — mirroring
    /// a closed cycle into the lock-free violation floor.
    fn stage_shard(&self, sh: &mut ShardState, slot: usize, op: &Operation, p: OpIndex) -> bool {
        let applied = sh.apply(slot, op, p, self.logging);
        if applied == Applied::Closed {
            self.first_violation.fetch_min(p.0 as u32, Ordering::AcqRel);
        }
        applied != Applied::Clean
    }

    /// Wait for every in-flight push to clear the pipeline *and*
    /// publish its floor rank. Must be called with the sequence lock
    /// held (no new positions can be claimed, and the in-flight count
    /// cannot grow); the already-ticketed pushes finish without
    /// needing that lock, so this terminates after at most `threads`
    /// turns.
    fn drain(&self, s: &Sequencer) {
        wait_turn(&self.gserving, s.gticket);
        for (k, shard) in self.shards.iter().enumerate() {
            wait_turn(&shard.serving, s.tickets[k]);
        }
        wait_turn(&self.inflight, 0);
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
    /// length, or `n` undercuts a [`ShardedMonitor::checkpoint`]ed
    /// floor (those entries were reclaimed as permanent).
    pub fn truncate_to(&self, n: usize) -> usize {
        let mut s = self.seq.lock();
        self.drain(&s);
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
    /// Quiesces the pipeline for the duration (holds the sequence
    /// mutex and drains in-flight pushes), so the three journals —
    /// sequence, global, per-shard — advance to the same floor
    /// atomically; a shard is locked only long enough to drop its own
    /// below-floor entries.
    ///
    /// The contract is on the caller's `live` set: after the
    /// checkpoint, [`ShardedMonitor::truncate_to`] and
    /// [`ShardedMonitor::retract_txn`] **panic** if asked to reach
    /// below the floor, so `live` must include every transaction that
    /// may yet abort. An unlogged monitor has nothing to reclaim and
    /// reports its current length.
    pub fn checkpoint<I: IntoIterator<Item = TxnId>>(&self, live: I) -> usize {
        let mut s = self.seq.lock();
        self.drain(&s);
        if !self.logging {
            return s.state.schedule.len();
        }
        let floor = live
            .into_iter()
            .filter_map(|t| s.state.first_op_of(t))
            .min()
            .unwrap_or(s.state.schedule.len());
        let before = s.state.log.base();
        let floor = s.state.raise_floor(floor);
        if let Some(journal) = s.journal.as_deref_mut().filter(|_| floor > before) {
            journal.floor_raised(floor);
        }
        self.gstate.write().raise_floor(floor);
        for shard in &self.shards {
            shard.state.write().raise_floor(floor);
        }
        floor
    }

    /// The journals' retraction floor: the prefix length below which
    /// pushes are permanent (0 until a checkpoint raises it; equal to
    /// [`ShardedMonitor::len`] on an unlogged monitor).
    pub fn log_floor(&self) -> usize {
        self.floor_locked(&self.seq.lock())
    }

    /// The retraction floor, under the held sequence lock. On a logged
    /// monitor that is the checkpoint floor (`log.base()`); an
    /// unlogged monitor's pushes are all permanent.
    fn floor_locked(&self, s: &Sequencer) -> usize {
        if self.logging {
            s.state.log.base()
        } else {
            s.state.schedule.len()
        }
    }

    /// Sequence-journal entries currently held — one per retractable
    /// push, bounded by `len() - log_floor()` (the checkpoint test
    /// pins this).
    pub fn logged_len(&self) -> usize {
        self.seq.lock().state.log.len()
    }

    /// Declare `txn` finished: it will issue no further operations.
    /// Committed-prefix compaction ([`ShardedMonitor::compact`]) only
    /// advances over finished transactions. Advisory until the
    /// transaction is summarized — a later push for it is still
    /// accepted and simply holds the frontier back.
    pub fn finish_txn(&self, txn: TxnId) {
        self.seq.lock().state.finish(txn);
    }

    /// The **compaction frontier**: the longest prefix in which every
    /// operation belongs to a finished transaction whose *last*
    /// operation also lies in that prefix, clamped to the journals'
    /// retraction floor (a compacted push must already be permanent —
    /// the frontier-safety condition shared with
    /// [`ShardedMonitor::checkpoint`] and WAL truncation).
    pub fn compaction_frontier(&self) -> usize {
        let s = self.seq.lock();
        s.state.frontier(self.floor_locked(&s))
    }

    /// **Committed-prefix compaction**, sharded: collapse the prefix
    /// below [`ShardedMonitor::compaction_frontier`] into a summary —
    /// per-item last-writer/last-reader boundary facts plus the
    /// condensed reachability of the global and per-conjunct conflict
    /// graphs — reclaiming schedule segments, graph nodes,
    /// Pearce–Kelly order slots, delayed-read rows and the summarized
    /// transactions' §2.2 totals. Every graph is condensed in its own
    /// storage through one pair of node tables the monitor keeps, so a
    /// sweep's allocations do not grow with the number of shards.
    ///
    /// Quiesces the pipeline for the duration (sequence mutex held,
    /// in-flight pushes drained), then walks the stages in lock-rank
    /// order — global, then each shard ascending — so the discipline
    /// that rules out deadlock covers compaction too. Every verdict,
    /// certificate and [`PushOutcome`] after the call is
    /// byte-identical to an uncompacted twin's (pinned by the twin
    /// harness in `tests/sharded_props.rs`); pushes and retractions
    /// for summarized transactions are rejected with
    /// [`CoreError::SummarizedTransaction`].
    ///
    /// [`CoreError::SummarizedTransaction`]: crate::error::CoreError::SummarizedTransaction
    pub fn compact(&self) -> CompactStats {
        let mut s = self.seq.lock();
        self.drain(&s);
        let limit = self.floor_locked(&s);
        let (stats, summarized) = s.state.compact(limit);
        if stats.ops_reclaimed == 0 {
            return stats;
        }
        // Every graph is condensed in its own storage, through the one
        // pair of node tables this lock guards: global stage first,
        // then the conjunct shards in ascending rank.
        let s_cut = stats.txns_summarized;
        self.gstate.write().compact(s_cut, &mut s.state.maps);
        for shard in &self.shards {
            shard.state.write().compact(s_cut, &mut s.state.maps);
        }
        // The summarized transactions can never push again, so their
        // §2.2 totals are dead weight — reclaim them.
        for t in summarized {
            self.totals.forget(t);
        }
        stats
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
            + s.state.resident_bytes()
            + s.tickets.len() * size_of::<u32>();
        total += self.gstate.read().resident_bytes();
        for shard in &self.shards {
            total += shard.state.read().resident_bytes();
        }
        total + self.totals.resident_bytes()
    }

    /// The truncation body, under the held sequence lock after a
    /// drain. `victim` selects whose §2.2 totals to strip: `None`
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
        let len = s.state.schedule.len();
        assert!(n <= len, "truncate_to({n}) beyond length {len}");
        assert!(
            n >= s.state.log.base(),
            "truncate_to({n}) below the checkpoint floor {} (those deltas were reclaimed; \
             the checkpoint's live set must cover every transaction that may abort, and the \
             compaction frontier — which never exceeds this floor — is permanent)",
            s.state.log.base()
        );
        debug_assert!(
            n >= s.state.schedule.base(),
            "truncate_to({n}) below the compaction frontier {}",
            s.state.schedule.base()
        );
        let undone = len - n;
        if undone > 0 {
            if let Some(journal) = s.journal.as_deref_mut() {
                journal.truncated(n);
            }
        }
        for _ in 0..undone {
            let u = s.state.undo();
            // Shards in reverse of push order; every turnstile rolls
            // back one step so re-claimed tickets line up.
            for &k in self.scope_index.of(u.op.item).iter().rev() {
                let k = k as usize;
                self.shards[k].state.write().undo(u.slot, u.op.item, u.pos);
                s.tickets[k] = s.tickets[k].wrapping_sub(1);
                self.shards[k]
                    .serving
                    .store(s.tickets[k], Ordering::Release);
            }
            self.gstate.write().undo(u.slot, u.op.item, u.new_slot);
            s.gticket = s.gticket.wrapping_sub(1);
            self.gserving.store(s.gticket, Ordering::Release);
            // §2.2 totals (see the `victim` contract above).
            if victim.is_none_or(|v| v == u.op.txn) {
                if u.new_slot {
                    self.totals.forget(u.op.txn);
                } else {
                    self.totals.strip(u.op.txn, [&u.op]);
                }
            }
        }
        if undone > 0 {
            self.recompute_floor();
        }
        undone
    }

    /// Recompute the lock-free floor and first-violation mirror from
    /// the per-stage state (retraction can *improve* the verdict, so
    /// the monotone `fetch_max`/`fetch_min` floors must be reset).
    /// Requires the pipeline to be quiescent under the sequence lock.
    fn recompute_floor(&self) {
        let mut fv = NO_POS;
        for shard in &self.shards {
            if let Some(c) = shard.state.read().graph.cyclic_at {
                fv = fv.min(c.0 as u32);
            }
        }
        self.first_violation.store(fv, Ordering::Release);
        let level = self.gstate.read().level(fv == NO_POS);
        self.floor.store(level as u8, Ordering::Release);
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
        let mut survivors = std::mem::take(&mut s.survivors);
        survivors.clear();
        let plan = s.state.retraction(&[txn], &mut survivors);
        let mut cost = (0, 0);
        if let Ok(Some(first)) = plan {
            self.drain(&s);
            cost = (
                self.truncate_locked(&mut s, first, Some(txn)),
                survivors.len(),
            );
            // The ordinary admission path, minus what the survivors
            // keep: their §2.2 totals stayed in place (their owners
            // may be mid-push against those very rows), and the
            // sequence lock is already held and drained, so every
            // ticket claimed is served at once, the journals stay in
            // position order and the floor the truncation recomputed
            // stays exact.
            with_lane_scratch(|scratch| {
                for op in &survivors {
                    let run = std::slice::from_ref(op);
                    let existing = s.state.schedule.txn_slot(op.txn);
                    let claimed = self.claim(&mut s, run, false, existing, scratch);
                    self.serve(run, claimed, scratch, &mut [PushOutcome::PENDING]);
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

    /// Would admitting this access keep `level`? Read-only on the
    /// shards (`RwLock::read`), exclusive nowhere. Like the
    /// single-writer probe this is exact against the *current* state;
    /// under concurrent pushes the caller must hold the item's
    /// conflict domain (as the lock-based executors do) for the
    /// answer to stay binding. A summarized transaction is never
    /// admitted: its push would be rejected
    /// ([`CoreError::SummarizedTransaction`]) regardless of what the
    /// graphs say.
    ///
    /// [`CoreError::SummarizedTransaction`]: crate::error::CoreError::SummarizedTransaction
    pub fn would_admit(
        &self,
        txn: TxnId,
        item: ItemId,
        is_write: bool,
        level: AdmissionLevel,
    ) -> bool {
        let Ok(slot) = self.seq.lock().state.slot(txn) else {
            return false;
        };
        let (global, shard) = (
            || self.gstate.read(),
            |k: usize| self.shards[k].state.read(),
        );
        stages::admits(
            &self.scope_index,
            slot,
            item,
            is_write,
            level,
            global,
            shard,
        )
    }

    /// The full verdict, assembled from every stage's state. **Exact
    /// at quiescence** (no push in flight — e.g. after joining the
    /// worker threads); mid-flight it is a consistent lower bound in
    /// the same sense as [`ShardedMonitor::floor`]. At quiescence it
    /// is byte-identical to the verdict of a single-writer
    /// [`OnlineMonitor`](super::OnlineMonitor) fed the same
    /// interleaving.
    pub fn verdict(&self) -> Verdict {
        let len = self.seq.lock().state.schedule.len();
        let g = self.gstate.read();
        let first_violation = self
            .shards
            .iter()
            .filter_map(|shard| shard.state.read().graph.cyclic_at)
            .min();
        g.verdict(len, first_violation)
    }

    /// Does the Lemma 2 certificate hold for conjunct `k` (module
    /// equivalence: the projection is still serializable)?
    pub fn lemma2_holds(&self, k: usize) -> bool {
        self.shards[k].state.read().graph.cyclic_at.is_none()
    }

    /// Does the Lemma 6 certificate hold for conjunct `k`?
    pub fn lemma6_holds(&self, k: usize) -> bool {
        self.lemma2_holds(k) && self.gstate.read().lemma6_clean(k)
    }

    /// A snapshot of the certified interleaving so far.
    pub fn snapshot_schedule(&self) -> Schedule {
        self.seq.lock().state.schedule.clone()
    }

    /// Consume the monitor: the certified interleaving plus the final
    /// (exact — the monitor is owned, so necessarily quiescent)
    /// verdict.
    pub fn into_parts(self) -> (Schedule, Verdict) {
        let verdict = self.verdict();
        (self.seq.into_inner().state.schedule, verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::super::OnlineMonitor;
    use super::*;
    use crate::error::CoreError;
    use crate::value::Value;
    use std::sync::Arc;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn example2_scopes() -> Vec<ItemSet> {
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

    /// Sequential pushes: the sharded verdict equals the single-writer
    /// verdict at every prefix (same interleaving by construction) —
    /// with and without logging.
    #[test]
    fn sequential_parity_at_every_prefix() {
        for logged in [false, true] {
            for ops in [
                example2_ops(),
                vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)],
                vec![wr(1, 0, 1), rd(1, 2, 1), rd(2, 0, 1), wr(2, 2, 2)],
            ] {
                let sharded = if logged {
                    ShardedMonitor::new_logged(example2_scopes())
                } else {
                    ShardedMonitor::new(example2_scopes())
                };
                let mut single = OnlineMonitor::new(example2_scopes());
                for op in ops {
                    let floor = sharded.push(op.clone()).unwrap();
                    let v = single.push(op).unwrap();
                    assert_eq!(sharded.verdict(), v);
                    // The floor is sound: never better than the truth.
                    assert!(floor >= v.level);
                }
            }
        }
    }

    #[test]
    fn threaded_pushes_are_certified_and_parity_checked() {
        // Three transactions on three disjoint items, one thread each:
        // any interleaving is serializable; the recorded schedule must
        // replay to the identical verdict.
        let scopes: Vec<ItemSet> = (0..3u32).map(|i| ItemSet::from_iter([ItemId(i)])).collect();
        let monitor = Arc::new(ShardedMonitor::new(scopes.clone()));
        std::thread::scope(|scope| {
            for t in 1..=3u32 {
                let monitor = Arc::clone(&monitor);
                scope.spawn(move || {
                    for step in 0..20i64 {
                        // §2.2: one read and one write per (txn, item);
                        // use per-step fresh transactions.
                        let txn = t + 3 * step as u32;
                        monitor.push(rd(txn, t - 1, step)).unwrap();
                        monitor.push(wr(txn, t - 1, step + 1)).unwrap();
                    }
                });
            }
        });
        let monitor = Arc::try_unwrap(monitor).expect("threads joined");
        let (schedule, verdict) = monitor.into_parts();
        assert_eq!(schedule.len(), 3 * 20 * 2);
        assert_eq!(verdict.level, VerdictLevel::Serializable);
        let mut replay = OnlineMonitor::new(scopes);
        let mut last = None;
        for op in schedule.ops() {
            last = Some(replay.push(op.clone()).unwrap());
        }
        assert_eq!(last.unwrap(), verdict);
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
    fn would_admit_matches_single_writer_semantics() {
        // Same scenario as the single-writer test: the cycle in {a, b}
        // closes at r1(b); admission at Pwsr must reject exactly it.
        let ops = [wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)];
        let m = ShardedMonitor::new(example2_scopes());
        for (k, op) in ops.iter().enumerate() {
            let ok = m.would_admit(op.txn, op.item, op.is_write(), AdmissionLevel::Pwsr);
            if k < 3 {
                assert!(ok, "op {k} must be admitted");
                m.push(op.clone()).unwrap();
            } else {
                assert!(!ok, "the cycle-closing read must be rejected");
            }
        }
        assert_eq!(m.len(), 3);
        assert!(m.verdict().pwsr());
        // DR probe: after w1(a), r2(a), T1's next op materializes the
        // dirty read; PwsrDr rejects it.
        let m = ShardedMonitor::new(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(rd(2, 0, 1)).unwrap();
        assert!(!m.would_admit(TxnId(1), ItemId(2), false, AdmissionLevel::PwsrDr));
        assert!(m.would_admit(TxnId(1), ItemId(2), false, AdmissionLevel::Pwsr));
        assert!(m.would_admit(TxnId(3), ItemId(2), true, AdmissionLevel::PwsrDr));
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

    /// Push every op logged, truncate back to every length, and check
    /// the monitor equals a fresh single-writer replay of the
    /// shortened prefix — verdict, certificates, and future behaviour.
    #[test]
    fn truncate_to_equals_fresh_replay() {
        let runs = [
            example2_ops(),
            vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)],
            vec![
                wr(1, 1, 1),
                wr(2, 1, 2),
                rd(2, 0, 0),
                rd(3, 1, 2),
                rd(1, 0, 0),
            ],
        ];
        for ops in runs {
            for cut in 0..=ops.len() {
                let m = ShardedMonitor::new_logged(example2_scopes());
                for op in &ops {
                    m.push(op.clone()).unwrap();
                }
                assert_eq!(m.truncate_to(cut), ops.len() - cut);
                let mut fresh = OnlineMonitor::new(example2_scopes());
                for op in &ops[..cut] {
                    fresh.push(op.clone()).unwrap();
                }
                assert_eq!(m.verdict(), fresh.verdict(), "cut {cut}");
                assert_eq!(m.snapshot_schedule(), *fresh.schedule());
                for k in 0..2 {
                    assert_eq!(m.lemma2_holds(k), fresh.lemma2_holds(k));
                    assert_eq!(m.lemma6_holds(k), fresh.lemma6_holds(k));
                }
                // The truncated monitor keeps working: floor resets
                // and further pushes agree with the fresh monitor.
                assert_eq!(m.floor(), fresh.verdict().level);
                for op in &ops[cut..] {
                    m.push(op.clone()).unwrap();
                    fresh.push(op.clone()).unwrap();
                }
                assert_eq!(m.verdict(), fresh.verdict());
            }
        }
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

    /// What the durability journal hears of one `retract_txn`: the
    /// truncation to the victim's first operation, then one `appended`
    /// per survivor in its original order — the decomposition a log
    /// replays — and nothing for a transaction that holds no position.
    #[test]
    fn retract_txn_journals_one_truncation_then_each_survivor() {
        #[derive(Debug, PartialEq)]
        enum Heard {
            Op(Operation),
            Truncate(usize),
            Floor(usize),
        }
        #[derive(Debug)]
        struct Recorder(Arc<Mutex<Vec<Heard>>>);
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
        let heard = Arc::new(Mutex::new(Vec::new()));
        let m = ShardedMonitor::new_logged(example2_scopes())
            .with_journal(Box::new(Recorder(Arc::clone(&heard))));
        m.push(wr(3, 2, 0)).unwrap();
        m.push(wr(1, 0, 1)).unwrap();
        let t2 = [rd(2, 0, 1), wr(2, 1, 2)];
        m.push_batch(&t2).unwrap();
        m.push(rd(1, 1, 2)).unwrap();
        m.push(rd(3, 1, 2)).unwrap();
        heard.lock().clear();
        assert_eq!(m.retract_txn(TxnId(1)).unwrap(), (5, 3));
        assert_eq!(m.retract_txn(TxnId(9)).unwrap(), (0, 0));
        let [r2, w2] = t2;
        assert_eq!(
            *heard.lock(),
            [
                Heard::Truncate(1),
                Heard::Op(r2),
                Heard::Op(w2),
                Heard::Op(rd(3, 1, 2)),
            ]
        );
        assert_eq!(m.checkpoint([]), 4);
        assert_eq!(heard.lock().last(), Some(&Heard::Floor(4)));
        // A checkpoint that raises nothing journals nothing.
        let before = heard.lock().len();
        assert_eq!(m.checkpoint([]), 4);
        assert_eq!(heard.lock().len(), before);
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

    #[test]
    fn serial_timing_accumulates() {
        let m = ShardedMonitor::new(example2_scopes()).with_serial_timing();
        for op in example2_ops() {
            m.push(op).unwrap();
        }
        assert!(m.serial_ns_per_op() > 0.0);
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
            let sh = shard.state.read();
            assert_eq!(
                sh.log.count_front(|&pos| (pos as usize) < 30),
                0,
                "below-floor shard deltas must be reclaimed"
            );
        }
        assert_eq!(m.gstate.read().log.base(), 30);
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
        // Unlogged monitors have nothing to reclaim.
        let u = ShardedMonitor::new(example2_scopes());
        u.push(wr(1, 0, 1)).unwrap();
        assert_eq!(u.checkpoint([]), 1);
        assert_eq!(u.log_floor(), 1);
    }

    /// Reaching below a checkpointed floor is a caller bug (the live
    /// set under-approximated the abortable transactions) and fails
    /// loudly rather than corrupting state.
    #[test]
    #[should_panic(expected = "below the checkpoint floor")]
    fn truncating_below_the_floor_panics() {
        let m = ShardedMonitor::new_logged(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(wr(2, 1, 1)).unwrap();
        assert_eq!(m.checkpoint([TxnId(2)]), 1);
        m.truncate_to(0);
    }

    /// Every interleaving (bounded, exhaustive) of a small
    /// three-transaction workload, driven through every lock-taking
    /// entry point — push, admission probe, verdict, retraction,
    /// checkpoint — under the debug lock-rank asserts: a lock-order
    /// regression anywhere in the pipeline fails this test
    /// deterministically, and each surviving state stays
    /// parity-exact with the single-writer monitor.
    #[test]
    fn exhaustive_interleavings_exercise_the_lock_discipline() {
        // Three 2-op transactions spanning both scopes ({0,1} and
        // {2}): writes and reads cross conjuncts so the global stage,
        // both shards, and the DR tracking all participate.
        let seqs: Vec<Vec<Operation>> = vec![
            vec![wr(1, 0, 1), rd(1, 2, 3)],
            vec![rd(2, 0, 1), wr(2, 1, 2)],
            vec![wr(3, 2, 3), rd(3, 1, 2)],
        ];
        fn merges(
            queues: &mut Vec<std::collections::VecDeque<Operation>>,
            current: &mut Vec<Operation>,
            out: &mut Vec<Vec<Operation>>,
        ) {
            if queues.iter().all(std::collections::VecDeque::is_empty) {
                out.push(current.clone());
                return;
            }
            for i in 0..queues.len() {
                if let Some(op) = queues[i].pop_front() {
                    current.push(op.clone());
                    merges(queues, current, out);
                    current.pop();
                    queues[i].push_front(op);
                }
            }
        }
        let mut queues: Vec<std::collections::VecDeque<Operation>> =
            seqs.into_iter().map(Into::into).collect();
        let mut all = Vec::new();
        merges(&mut queues, &mut Vec::new(), &mut all);
        assert_eq!(all.len(), 90, "6! / (2!)^3 interleavings");
        for ops in &all {
            let m = ShardedMonitor::new_logged(example2_scopes());
            let mut single = OnlineMonitor::new(example2_scopes());
            for op in ops {
                // Admission probes nest global + shard read locks.
                m.would_admit(op.txn, op.item, op.is_write(), AdmissionLevel::PwsrDr);
                m.push(op.clone()).unwrap();
                single.push(op.clone()).unwrap();
                // `verdict` holds the global lock across ascending
                // shard reads — the deepest read-side nesting.
                assert_eq!(m.verdict(), single.verdict());
            }
            // Retraction nests seq → global → shards (pops descend,
            // but locks are taken one at a time under seq).
            m.retract_txn(TxnId(2)).unwrap();
            // Checkpoint nests seq → global → each shard ascending.
            let floor = m.checkpoint([TxnId(1), TxnId(3)]);
            assert!(floor <= m.len());
            assert_eq!(m.truncate_to(m.len()), 0);
        }
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

    /// Committed-prefix compaction on the sharded monitor: the
    /// compacted monitor's verdicts, certificates and `PushOutcome`s
    /// stay byte-identical to an uncompacted twin's, summarized
    /// transactions are rejected, and the resident footprint shrinks.
    #[test]
    fn sharded_compaction_matches_uncompacted_twin() {
        let ops1 = [wr(1, 0, 1), rd(2, 0, 1), wr(2, 2, 5), rd(1, 2, 5)];
        let ops2 = [wr(3, 1, 7), rd(4, 1, 7), wr(4, 2, 8), rd(3, 2, 8)];
        let m = ShardedMonitor::new(example2_scopes());
        let twin = ShardedMonitor::new(example2_scopes());
        for op in &ops1 {
            assert_eq!(
                m.push_outcome(op.clone()).unwrap(),
                twin.push_outcome(op.clone()).unwrap()
            );
        }
        m.finish_txn(TxnId(1));
        m.finish_txn(TxnId(2));
        assert_eq!(m.compaction_frontier(), 4);
        let stats = m.compact();
        assert_eq!(
            stats,
            CompactStats {
                frontier: 4,
                ops_reclaimed: 4,
                txns_summarized: 2
            }
        );
        assert!(m.is_summarized(TxnId(1)) && !m.is_summarized(TxnId(3)));
        assert_eq!(m.verdict(), twin.verdict());
        assert!(m.resident_bytes_estimate() < twin.resident_bytes_estimate());
        // A summarized transaction can no longer push — twice, to
        // prove the §2.2 totals bit of the rejected push rolled back
        // (a leaked bit would turn the second try into a
        // well-formedness error).
        for _ in 0..2 {
            assert!(matches!(
                m.push(wr(1, 5, 9)),
                Err(CoreError::SummarizedTransaction { txn: TxnId(1) })
            ));
        }
        // Fresh transactions continue with full parity.
        for op in &ops2 {
            assert_eq!(
                m.push_outcome(op.clone()).unwrap(),
                twin.push_outcome(op.clone()).unwrap()
            );
            assert_eq!(m.verdict(), twin.verdict());
        }
        for k in 0..2 {
            assert_eq!(m.lemma2_holds(k), twin.lemma2_holds(k));
            assert_eq!(m.lemma6_holds(k), twin.lemma6_holds(k));
        }
        // Second compaction (exercises the kept-summary-node path).
        m.finish_txn(TxnId(3));
        m.finish_txn(TxnId(4));
        m.compact();
        assert_eq!((m.compactions(), m.ops_reclaimed()), (2, 8));
        assert_eq!(m.verdict(), twin.verdict());
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

    /// Satellite regression: reaching below the compaction frontier is
    /// impossible to do quietly — the frontier never exceeds the
    /// checkpoint floor, so the floor assert fires first and names the
    /// compacted prefix as permanent.
    #[test]
    #[should_panic(expected = "below the checkpoint floor")]
    fn truncating_below_the_compaction_frontier_panics() {
        let m = ShardedMonitor::new_logged(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(wr(2, 1, 1)).unwrap();
        m.finish_txn(TxnId(1));
        m.checkpoint([TxnId(2)]);
        assert_eq!(m.compact().frontier, 1);
        m.truncate_to(0);
    }

    /// Ticket arithmetic wraps: a monitor whose turnstiles start four
    /// short of `u32::MAX` pushes, batches, retracts (forwards and
    /// back across the wrap), checkpoints and compacts exactly like
    /// one that starts at 0 — checked against a single-writer replay
    /// of the surviving interleaving after every step. (With `+`/`-`
    /// on the tickets a debug build panics at the first wrap.)
    #[test]
    fn tickets_wrap_around_without_losing_their_place() {
        let m = ShardedMonitor::new_logged(example2_scopes()).with_first_ticket(u32::MAX - 3);
        let mut kept: Vec<Operation> = Vec::new();
        let check = |m: &ShardedMonitor, kept: &[Operation], step: &str| {
            let mut replay = OnlineMonitor::new(example2_scopes());
            for op in kept {
                replay.push(op.clone()).unwrap();
            }
            assert_eq!(m.verdict(), replay.verdict(), "{step}");
            assert_eq!(m.floor(), replay.verdict().level, "{step}");
            assert_eq!(m.len(), kept.len(), "{step}");
        };
        // Global tickets MAX-3 … MAX, then 0: the batch crosses the wrap.
        m.push(wr(1, 0, 1)).unwrap();
        kept.push(wr(1, 0, 1));
        let t2 = [rd(2, 0, 1), rd(2, 1, 0), wr(2, 2, 5), rd(2, 3, 0)];
        let outcomes = m.push_batch(&t2).unwrap();
        assert_eq!(outcomes.last().unwrap().pos, OpIndex(4));
        kept.extend(t2.iter().cloned());
        check(&m, &kept, "batch across the global wrap");
        // Shard 0 has served MAX-3 … MAX-1; these take MAX and 0.
        m.push(wr(3, 1, 2)).unwrap();
        let t4 = [rd(4, 2, 5), wr(4, 0, 3)];
        m.push_batch(&t4).unwrap();
        kept.push(wr(3, 1, 2));
        kept.extend(t4.iter().cloned());
        check(&m, &kept, "singleton and batch past the wrap");
        // Abort T3: four tickets are handed back and T4's two re-claimed.
        assert_eq!(m.retract_txn(TxnId(3)).unwrap(), (3, 2));
        kept.retain(|o| o.txn != TxnId(3));
        check(&m, &kept, "retract_txn past the wrap");
        // Truncate back below the wrap, then push forward across it again.
        assert_eq!(m.truncate_to(2), 5);
        kept.truncate(2);
        check(&m, &kept, "truncate back across the wrap");
        let t5 = [rd(5, 1, 0), wr(5, 1, 7), wr(5, 2, 8)];
        m.push_batch(&t5).unwrap();
        m.push(rd(2, 2, 8)).unwrap();
        kept.extend(t5.iter().cloned());
        kept.push(rd(2, 2, 8));
        check(&m, &kept, "second crossing");
        // Everything settles: checkpoint, compact, and keep going.
        for t in [1, 2, 5] {
            m.finish_txn(TxnId(t));
        }
        assert_eq!(m.checkpoint([]), kept.len());
        assert_eq!(m.compact().frontier, kept.len());
        check(&m, &kept, "compacted");
        m.push_batch(&[rd(6, 0, 1), wr(6, 1, 9)]).unwrap();
        kept.extend([rd(6, 0, 1), wr(6, 1, 9)]);
        check(&m, &kept, "after compaction");
        assert_eq!(m.retract_txn(TxnId(6)).unwrap(), (2, 0));
        kept.truncate(kept.len() - 2);
        check(&m, &kept, "retract after compaction");
    }
}
