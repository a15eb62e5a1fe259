//! A genuinely threaded executor (demonstration substrate).
//!
//! The discrete-event executor in [`crate::exec`] is the measurement
//! instrument; this module shows the same policies working under real
//! OS-thread parallelism with `parking_lot` locks.
//!
//! Two recording paths, both certified live. They share everything
//! that is not their discipline: one pool of scoped workers claiming
//! transactions from one counter, one item-striped store, one commit
//! step (finish, then checkpoint and compact on cadence), one
//! description of the monitor half ([`MonitorSpec`], whose seal ends
//! both runs against its floor) and [`Metrics`] as the only counter.
//!
//! * [`run_threaded_certified`] — lock-based, with no global database
//!   lock: one worker per program, and each transaction acquires its
//!   per-conjunct space mutexes in ascending space order for its whole
//!   lifetime (conservative per-space 2PL — deadlock-free by lock
//!   ordering). The interleaving is recorded *by* the sharded monitor
//!   ([`ShardedMonitor`]) whose ticketed pipeline defines the total
//!   order. Conservative per-space 2PL already serializes conflicting
//!   accesses for entire transaction lifetimes, so a thread's
//!   `db access → push` pair cannot be split by a conflicting pair —
//!   the recorded schedule is read-coherent by construction, and the
//!   monitor certifies it live, in parallel;
//! * [`run_threaded_occ_tuned`] — **optimistic**: no spaces are
//!   ever locked. A worker pool executes transactions speculatively
//!   against the same item-striped database, every access is pushed
//!   through a *logged* sharded monitor at a configured
//!   [`AdmissionLevel`] floor, and a push whose [`PushOutcome`] says
//!   *this operation broke the floor* aborts the transaction: its
//!   store writes roll back (invisible — dirty items block readers
//!   until commit), its monitor suffix retracts per shard
//!   ([`ShardedMonitor::retract_txn`], `O(ops undone)`), and the
//!   transaction retries with backoff. This is the executor shape
//!   backward-validation OCC pioneered, with the paper's verdict
//!   ladder as the validation test — non-serializable-but-PWSR
//!   interleavings 2PL would forbid are *committed*, and exactly the
//!   accesses that would sink the floor are rolled back.
//!
//! The output schedule is PWSR by construction; tests verify it with
//! the checker rather than trusting the construction.

use crate::error::{Result, SchedError};
use crate::metrics::Metrics;
use crate::policy::{MonitorSpec, PolicySpec, StaticCertificate};
use parking_lot::{Condvar, Mutex};
use pwsr_core::catalog::Catalog;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::sharded::{PushOutcome, ShardedMonitor};
use pwsr_core::monitor::{AdmissionLevel, Verdict};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::DbState;
use pwsr_core::value::Value;
use pwsr_durability::fault::{ExecFault, FaultHandle};
use pwsr_tplang::analysis::rw_footprint;
use pwsr_tplang::ast::Program;
use pwsr_tplang::interp::{run_with_reads, RunOutcome};
use pwsr_tplang::session::{Pending, ProgramSession};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The pool both threaded executors run on: `workers` scoped threads
/// claim the transaction indices `0..n` from one shared counter and
/// run `work(worker, index, metrics)` on each, `worker` numbering the
/// thread in `0..workers`. A worker counts into a [`Metrics`] of its
/// own — nothing shared, so counting costs no atomic and moves no cache line
/// between cores — and the pool sums them at the join. A worker that
/// panics outside what `work` contains surfaces as
/// [`SchedError::Stalled`].
fn run_pool(
    n: usize,
    workers: usize,
    work: impl Fn(usize, usize, &mut Metrics) -> Result<()> + Sync,
) -> Result<Metrics> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers.min(n) {
            let (next, work) = (&next, &work);
            handles.push(scope.spawn(move || -> Result<Metrics> {
                let mut metrics = Metrics::default();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        return Ok(metrics);
                    }
                    work(w, k, &mut metrics)?;
                }
            }));
        }
        let mut total = Metrics::default();
        for h in handles {
            total.absorb(&h.join().map_err(|_| SchedError::Stalled)??);
        }
        Ok(total)
    })
}

/// The end of a committed transaction, shared by both threaded
/// executors: declare it finished (monitored transactions only — a
/// certified one never reaches the monitor, so it cannot pin the
/// frontier), and on the `MonitorSpec::compact_every` cadence
/// checkpoint past every running transaction, then compact. A commit
/// is final on both paths — 2PL admits no aborts, and a committed
/// optimistic transaction is never resurrected — so the frontier may
/// advance over it.
///
/// The optimistic monitor is *logged* (aborts retract), so its
/// frontier is gated by the undo-log floor the checkpoint raises. Each
/// of its workers owns one slot in `running`: it stores the
/// transaction it claims there before the first push and clears it
/// when the transaction commits or dies. The checkpoint reads the
/// slots lazily, once it holds the sequence lock with the pipeline
/// drained, so every transaction holding a position is named, and a
/// push that comes later lands above the new floor. The 2PL path's
/// monitor is unlogged: it has no slots, and its checkpoint is a no-op.
/// Without a cadence nothing reads the slots, so there are none.
struct CommitStep<'a> {
    monitor: &'a ShardedMonitor,
    /// Per optimistic worker: the id of the transaction it runs, `0`
    /// when none.
    running: Vec<AtomicU32>,
    every: u64,
    commits: AtomicU64,
}

impl<'a> CommitStep<'a> {
    fn new(monitor: &'a ShardedMonitor, slots: usize, every: u64) -> CommitStep<'a> {
        let slots = if every > 0 { slots } else { 0 };
        CommitStep {
            monitor,
            running: (0..slots).map(|_| AtomicU32::new(0)).collect(),
            every,
            commits: AtomicU64::new(0),
        }
    }

    /// Worker `w` now runs `txn` (`None`: nothing).
    fn run(&self, w: usize, txn: Option<TxnId>) {
        if let Some(slot) = self.running.get(w) {
            slot.store(txn.map_or(0, |t| t.0), Ordering::Release);
        }
    }

    fn commit(&self, txn: TxnId, monitored: bool) {
        if monitored {
            self.monitor.finish_txn(txn);
        }
        if self.every > 0 {
            let n = self.commits.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(self.every) {
                let running = (self.running.iter())
                    .map(|slot| slot.load(Ordering::Acquire))
                    .filter(|&t| t != 0)
                    .map(TxnId);
                self.monitor.checkpoint(running);
                self.monitor.compact();
            }
        }
    }
}

/// Run each program on a worker of its own under conservative
/// per-space two-phase locking: a transaction locks its syntactic
/// space set in ascending order, executes, then releases — with a
/// [`ShardedMonitor`] over `spec.scopes` certifying the verdict live,
/// operation by operation. The database is striped by item (no global
/// lock); the interleaving is whatever order the threads' pushes claim
/// inside the monitor's sequence stage, and the returned verdict is the
/// monitor's exact (quiescent) verdict over exactly that interleaving.
/// Returns the recorded (committed) schedule, the final state and that
/// verdict. Only `policy`'s item→space map is read; `spec` is the
/// monitor half, as for [`run_threaded_occ_tuned`].
///
/// When `spec` carries a trusted [`StaticCertificate`], transactions
/// the certificate covers **bypass the monitor pipeline entirely**:
/// their operations are recorded into a cheap side trace instead of
/// being pushed through the three-stage certification pipeline. The
/// returned verdict then covers only the *monitored* suffix of the
/// workload (its `len` is the number of monitored operations, not the
/// schedule length); the overall guarantee is the conjunction of the
/// certificate's static level over the certified subset and the live
/// verdict over the rest. Soundness rests on the analyzer's contract
/// that certified transactions form conflict-closed components — they
/// never conflict with monitored transactions, so same-item operation
/// order (and hence reads-from and coherence) is unaffected by splicing
/// the side trace after the monitored schedule.
///
/// When `spec.wal` is set, the monitor journals every claimed operation
/// into it (under its sequence mutex, so log order is claimed schedule
/// order). Errors with [`SchedError::FloorBreached`] — carrying the
/// committed schedule — when the quiescent verdict ends below
/// `spec.level`: `Ok` means the committed schedule
/// [meets](Verdict::meets) the floor.
pub fn run_threaded_certified(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    policy: &PolicySpec,
    spec: &MonitorSpec,
) -> Result<(Schedule, DbState, Verdict)> {
    // Each program's conservative space set, computed once; the lock
    // table covers them all.
    let spaces: Vec<BTreeSet<u32>> = programs
        .iter()
        .map(|p| {
            let fp = rw_footprint(p, catalog);
            fp.items().iter().map(|i| policy.space_of(i).0).collect()
        })
        .collect();
    let n_spaces = spaces.iter().flatten().max().map_or(1, |&s| s as usize + 1);
    let space_locks: Vec<Mutex<()>> = (0..n_spaces).map(|_| Mutex::new(())).collect();
    let mut monitor = ShardedMonitor::new(spec.scopes.clone());
    if let Some(wal) = &spec.wal {
        monitor = monitor.with_journal(Box::new(wal.clone()));
    }
    let db = StripedStore::new(initial, 16);
    let certificate = spec.trusted_certificate();
    // Side trace for statically-certified transactions: a plain mutex
    // push, no graph maintenance, no pipeline stages.
    let side: Mutex<Vec<Operation>> = Mutex::new(Vec::new());
    let commit = CommitStep::new(&monitor, 0, spec.compact_every);

    let mut metrics = run_pool(programs.len(), programs.len(), |_, k, _| {
        let txn = TxnId(k as u32 + 1);
        let fast = certificate.is_some_and(|c| c.covers(txn));
        let guards: Vec<_> = spaces[k]
            .iter()
            .map(|&s| space_locks[s as usize].lock())
            .collect();
        let mut session = ProgramSession::new(&programs[k], catalog, txn);
        // Whole-transaction batching: per-space 2PL holds every
        // conflicting transaction out for this one's entire lifetime,
        // so deferring the monitor pushes to one program-ordered batch
        // before lock release claims the same per-item operation
        // orders as pushing op-by-op — while paying the pipeline's
        // serial costs (seq mutex, global ticket, shard tickets) once.
        // For the same reason value and claimed position cannot be
        // split by a conflicting access, and no dirty mark is needed.
        let mut batch: Vec<Operation> = Vec::new();
        loop {
            let op = match session.pending()? {
                Pending::NeedRead(item) => {
                    let v = db.cell(item).state.lock().db.require(item)?.clone();
                    session.feed_read(v)?
                }
                Pending::Write(op) => {
                    db.cell(op.item)
                        .state
                        .lock()
                        .db
                        .set(op.item, op.value.clone());
                    session.advance_write()?;
                    op
                }
                Pending::Done => break,
            };
            if fast {
                side.lock().push(op);
            } else {
                batch.push(op);
            }
        }
        if !batch.is_empty() {
            monitor.push_batch(&batch)?;
        }
        drop(guards);
        commit.commit(txn, !fast);
        Ok(())
    })?;

    let (monitored, verdict) = monitor.into_parts();
    let schedule = splice_side_trace(monitored, side.into_inner())?;
    // This path reports no metrics; the seal is for the tail of the
    // log and the floor.
    spec.seal(&mut metrics, verdict, &schedule)?;
    Ok((schedule, db.into_state(), verdict))
}

/// Append the certified side trace after the monitored schedule.
///
/// Certified transactions never share an item with monitored ones
/// (conflict-closed components), and the side trace preserves its own
/// internal push order — so every per-item operation sequence survives
/// the splice intact, and read-coherence / reads-from assignments are
/// exactly those of the live interleaving. When committed-prefix
/// compaction ran (`MonitorSpec::compact_every > 0`), the monitored
/// schedule is already only the live tail; the splice then covers the
/// tail plus the side trace, and a tail read whose writer was
/// summarized away reports no `reads_from` writer.
fn splice_side_trace(monitored: Schedule, side: Vec<Operation>) -> Result<Schedule> {
    if side.is_empty() {
        return Ok(monitored);
    }
    let mut ops: Vec<Operation> = monitored.ops().to_vec();
    ops.extend(side);
    Ok(Schedule::new(ops)?)
}

/// One stripe of the store: the values plus a dirty mark on every
/// uncommitted optimistic write (the 2PL path never sets one). The
/// mark is the write's only undo record: its holder and the value the
/// write displaced, set together with the new value under one latch
/// hold, so a rollback can never find a write without its undo.
/// Dirty items block other transactions' accesses until the writer
/// commits or rolls back — which is what keeps a rollback invisible
/// (nobody can have read the squashed value) and the recorded
/// schedule read-coherent without any cascade. No per-item version
/// counters: the monitor certifies the *actual* recorded
/// interleaving, so there is no read-set validation for versions to
/// back (classical backward validation would re-reject the
/// non-serializable-but-PWSR interleavings the optimistic executor
/// exists to commit).
#[derive(Default)]
struct Stripe {
    db: DbState,
    /// Item → (transaction holding an uncommitted write, the value
    /// that write displaced; `None` when the item was unset).
    dirty: HashMap<ItemId, (TxnId, Option<Value>)>,
}

/// One stripe plus its parking spot: waiters blocked on a dirty item
/// park on `cv` instead of spinning; every dirty-mark clear (commit or
/// rollback) broadcasts. The condvar is advisory for liveness only —
/// waiters use timed waits, so a (hypothetically) lost wakeup degrades
/// to the old polling behaviour rather than deadlocking.
#[derive(Default)]
struct StripeCell {
    state: Mutex<Stripe>,
    cv: Condvar,
}

impl StripeCell {
    /// Run `clear` — something that takes dirty marks off and says
    /// whether it removed any — under the stripe latch, then wake the
    /// waiters parked on the stripe if it did: the one way a mark is
    /// cleared, so no site can forget the wake-up. A stripe that lost
    /// no mark has nobody to wake, which spares the sweep's scan of
    /// every stripe a broadcast per stripe.
    fn clear_marks(&self, clear: impl FnOnce(&mut Stripe) -> bool) {
        if clear(&mut self.state.lock()) {
            self.cv.notify_all();
        }
    }
}

/// The database striped by item, behind both threaded executors:
/// stripe `item.index() % n` owns the item, so threads touching
/// different items contend only `1/n` of the time and there is no
/// global database lock.
struct StripedStore {
    stripes: Vec<StripeCell>,
}

impl StripedStore {
    fn new(initial: &DbState, n: usize) -> StripedStore {
        let store = StripedStore {
            stripes: (0..n.max(1)).map(|_| StripeCell::default()).collect(),
        };
        for (item, value) in initial.iter() {
            store.cell(item).state.lock().db.set(item, value.clone());
        }
        store
    }

    fn cell(&self, item: ItemId) -> &StripeCell {
        &self.stripes[item.index() % self.stripes.len()]
    }

    /// The published store. Every attempt ends by committing or being
    /// swept, and both take its marks off, so no mark outlives a run.
    fn into_state(self) -> DbState {
        let mut out = DbState::new();
        for cell in self.stripes {
            let stripe = cell.state.into_inner();
            assert!(stripe.dirty.is_empty(), "a dirty mark outlived the run");
            for (item, value) in stripe.db.iter() {
                out.set(item, value.clone());
            }
        }
        out
    }
}

/// Outcome of [`run_threaded_occ_tuned`]: the committed schedule
/// (exactly the monitor's recorded interleaving — aborted attempts
/// have been retracted), the final store, the monitor's exact verdict
/// over that schedule, and the abort/retry counters.
#[derive(Clone, Debug)]
pub struct OccThreadedOutcome {
    /// The committed interleaving, as the monitor recorded it.
    pub schedule: Schedule,
    /// The published store after every transaction committed.
    pub final_state: DbState,
    /// The monitor's exact (quiescent) verdict over `schedule`.
    pub verdict: Verdict,
    /// `occ_aborts` / `occ_retries` / `monitor_undone_ops` /
    /// `monitor_rejections` (certification aborts) / `waits`
    /// (dirty-item waits) — comparable with the other executors'.
    pub metrics: Metrics,
}

/// What one speculative attempt of a transaction ended as.
enum AttemptEnd {
    Committed,
    /// Roll back and retry (see [`Abort`] for the causes).
    Aborted,
    /// The worker panicked mid-attempt and the panic was contained:
    /// the transaction's suffix is retracted, its writes rolled back,
    /// and it is **never retried** — the pool keeps committing without
    /// it.
    Died,
}

/// Why an attempt aborted. The cause only picks the counters; the
/// sweep is the same.
#[derive(Clone, Copy)]
enum Abort {
    /// A bounded dirty-wait expired (conflict abort).
    Conflict,
    /// The attempt outlived its deadline — self-detected or discovered
    /// after a zombie reap.
    Timeout,
    /// The access broke the admission floor (certification abort).
    Breach,
}

/// Executor knobs for the OCC path, all with conservative defaults
/// ([`OccTuning::default`]); see [`run_threaded_occ_tuned`].
#[derive(Clone, Debug)]
pub struct OccTuning {
    /// Short spin fast path: lock-probe/yield rounds on a dirty item
    /// before parking on the stripe's condvar. Spinning wins when the
    /// writer commits within a few scheduler quanta (the common case);
    /// parking wins under sustained contention.
    pub dirty_spin: u32,
    /// Timed condvar parks before the waiter gives up and aborts
    /// itself (the conflict-abort escape hatch that breaks write-write
    /// wait cycles — parking must not remove it).
    pub park_budget: u32,
    /// Timeout of each individual park, in microseconds. Bounds the
    /// cost of a missed wakeup to one timeout instead of a deadlock.
    pub park_timeout_us: u64,
    /// Cap on the abort-backoff yield count. The backoff grows with
    /// the restart count (plus a per-transaction jitter keyed on the
    /// txn id); uncapped growth overshoots badly on long conflict
    /// chains — a hot transaction that lost 50 races would sleep
    /// ~50 yields even though the conflict window is 2–3 ops wide.
    pub backoff_cap: u32,
    /// Attempt deadline in microseconds; `0` disables deadlines (the
    /// default). When armed, an attempt that outlives the deadline is
    /// aborted — by itself at its next access, or by a **zombie
    /// reaper**: any worker parked on one of the zombie's dirty items
    /// retracts the zombie's monitor suffix and rolls its writes back
    /// ([`Metrics::zombie_reaps`]), so one stalled worker cannot wedge
    /// the pool. The reaped transaction retries with a fresh deadline.
    pub txn_deadline_us: u64,
    /// Deterministic fault plane
    /// ([`FaultPlan`](pwsr_durability::fault::FaultPlan)): executor
    /// faults keyed on `(txn, access index)` fire inside the worker
    /// loop — stalls, panics, panics under a stripe lock. `None` (the
    /// default) means no instrumentation and no overhead beyond one
    /// `Option` check per access.
    pub faults: Option<FaultHandle>,
}

impl Default for OccTuning {
    fn default() -> OccTuning {
        OccTuning {
            dirty_spin: 64,
            park_budget: 256,
            park_timeout_us: 500,
            backoff_cap: 24,
            txn_deadline_us: 0,
            faults: None,
        }
    }
}

/// Run the programs under **certified optimistic concurrency**: a
/// worker pool of `threads` OS threads claims transactions from a
/// shared queue and executes them speculatively — no lock spaces, no
/// 2PL. A worker compiles the program it claims once
/// ([`ProgramSession::new`]); every attempt, retries included, runs a
/// fresh machine over that code, and an access costs the instructions
/// up to the program's next read — not a re-run of the program. Every
/// access goes through a *logged* [`ShardedMonitor`] at the
/// `spec.level` floor:
///
/// * a **read** latches the item's stripe just long enough to observe
///   the value, build the operation, run the program on to its next
///   read and claim the monitor position (so value and position cannot
///   be split by a conflicting access), skipping items left dirty by
///   an uncommitted writer — after a bounded wait the reader aborts
///   itself, which breaks wait cycles;
/// * a **write** publishes through the stripe immediately (value +
///   dirty mark) and claims its position in program order —
///   the recorded per-transaction subsequence therefore replays under
///   [`replay_matches`], unlike commit-time write batching;
/// * a push whose [`PushOutcome::breaches`] says *this* operation
///   broke the floor **aborts** the transaction: its store writes are
///   restored (invisible, because dirty items blocked readers), its
///   monitor suffix is retracted per shard in `O(ops undone)`
///   ([`ShardedMonitor::retract_txn`]), and the transaction retries
///   after an asymmetric backoff;
/// * **commit** merely clears the dirty marks — validation already
///   happened per access, against the paper's verdict ladder instead
///   of a read-set version check, which is exactly why this executor
///   commits the non-serializable-but-PWSR interleavings a
///   serializability-validating OCC would abort.
///
/// Driven by a full [`MonitorSpec`], so it honours a
/// [`StaticCertificate`]. Transactions the certificate covers run
/// **without the monitor**: their accesses still respect the
/// dirty-item discipline (store correctness and read-coherence among
/// certified transactions need it), but each operation lands in a
/// cheap side trace instead of the logged pipeline, and no admission
/// floor is ever checked for them — a statically-safe transaction
/// cannot be certification-aborted. The returned verdict covers only
/// the monitored operations; the overall guarantee is the
/// certificate's static level over the certified subset conjoined
/// with the verdict over the rest (sound because certified
/// transactions form conflict-closed components).
///
/// The access loop itself never yields the processor: a worker gives
/// it up only where somebody is actually waited for — between probes
/// of a dirty item and parked on its stripe (`with_clean_stripe`), and
/// in the backoff after an abort. [`OccTuning`] carries the dirty-wait
/// spin/park budgets and the abort-backoff cap. When `spec.wal` is set, the sharded monitor
/// journals every claimed operation (and every abort's retraction)
/// into it, and the returned metrics carry the WAL counters.
///
/// Errors with [`SchedError::RestartLimit`] when one transaction
/// aborts more than `max_restarts` times, and with
/// [`SchedError::FloorBreached`] — carrying the committed schedule —
/// when the quiescent verdict ends below `spec.level`: `Ok` means the
/// committed schedule [meets](Verdict::meets) the floor.
pub fn run_threaded_occ_tuned(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    spec: &MonitorSpec,
    threads: usize,
    max_restarts: u32,
    tuning: &OccTuning,
) -> Result<OccThreadedOutcome> {
    let mut monitor = ShardedMonitor::new_logged(spec.scopes.clone());
    if let Some(wal) = &spec.wal {
        monitor = monitor.with_journal(Box::new(wal.clone()));
    }
    let level = spec.level;
    let db = StripedStore::new(initial, 16);
    let side: Mutex<Vec<Operation>> = Mutex::new(Vec::new());
    let registry = TxnRegistry::new(programs.len());
    let ctx = OccCtx {
        monitor: &monitor,
        db: &db,
        registry: &registry,
        side: &side,
        certificate: spec.trusted_certificate(),
        level,
        tuning,
        deadline: (tuning.txn_deadline_us > 0)
            .then(|| Duration::from_micros(tuning.txn_deadline_us)),
    };
    let workers = threads.max(1);
    let commit = CommitStep::new(&monitor, workers, spec.compact_every);

    let counts = run_pool(programs.len(), workers, |w, k, m| {
        let txn = TxnId(k as u32 + 1);
        commit.run(w, Some(txn));
        // Compiled once, here; every retry runs a fresh machine over
        // the same code.
        let mut session = ProgramSession::new(&programs[k], catalog, txn);
        let mut restarts = 0u32;
        loop {
            match occ_attempt(&ctx, &mut session, m)? {
                AttemptEnd::Committed => {
                    commit.run(w, None);
                    commit.commit(txn, ctx.fast_of(txn).is_none());
                    return Ok(());
                }
                AttemptEnd::Aborted => {
                    restarts += 1;
                    if restarts > max_restarts {
                        return Err(SchedError::RestartLimit { txn, restarts });
                    }
                    m.occ_retries += 1;
                    // Asymmetric backoff: later transactions back off
                    // longer, so colliding retries separate even on a
                    // single core — capped so a long restart chain
                    // never degrades into unbounded yield storms.
                    for _ in 0..(restarts + txn.0 % 7).min(tuning.backoff_cap) {
                        std::thread::yield_now();
                    }
                }
                AttemptEnd::Died => {
                    // Contained worker panic: the transaction's suffix
                    // is retracted and its writes rolled back — it is
                    // gone for good, never retried. Clearing its slot
                    // lets the compaction frontier advance past its
                    // (absent) operations; deliberately no abort/retry
                    // counting (nothing will re-run), preserving
                    // `aborts == retries` for the survivors.
                    commit.run(w, None);
                    return Ok(());
                }
            }
        }
    })?;

    let (monitored, verdict) = monitor.into_parts();
    let schedule = splice_side_trace(monitored, side.into_inner())?;
    let mut metrics = Metrics {
        committed_ops: schedule.len() as u64,
        aborts: counts.occ_aborts,
        restarts: counts.occ_retries,
        ..counts
    };
    // When one `FaultPlan` instruments both the executor and the WAL,
    // `FaultPlan::injected` (read before the seal's sync, as ever) is
    // the authoritative total; with faults armed only beneath the WAL,
    // its stats carry the count.
    let planned = tuning.faults.as_ref().map(|faults| faults.injected());
    spec.seal(&mut metrics, verdict, &schedule)?;
    if let Some(planned) = planned {
        metrics.injected_faults = planned;
    }
    Ok(OccThreadedOutcome {
        schedule,
        final_state: db.into_state(),
        verdict,
        metrics,
    })
}

/// One transaction's liveness, as owner and reaper see it through the
/// slot mutex. The undo of the attempt's writes is not here: it sits
/// in the dirty marks, where a *reaper on another thread* finds it
/// just as the owner does. The slot decides who ends an attempt —
/// whoever flips `running` off under the lock sweeps it or commits
/// it. Lock ordering: slot → stripe/monitor, never the reverse
/// (`with_clean_stripe` drops its stripe guard before reaping, and no
/// stripe action ever touches a slot).
struct TxnSlot {
    /// An attempt is executing: not yet committed, aborted, reaped or
    /// dead.
    running: bool,
    /// When the current attempt began; anchors its deadline.
    started: Instant,
}

/// One slot per transaction (`TxnId(k+1)` ↔ index `k`).
struct TxnRegistry {
    slots: Vec<Mutex<TxnSlot>>,
}

impl TxnRegistry {
    fn new(n: usize) -> TxnRegistry {
        TxnRegistry {
            slots: (0..n)
                .map(|_| {
                    Mutex::new(TxnSlot {
                        running: false,
                        started: Instant::now(),
                    })
                })
                .collect(),
        }
    }

    fn slot(&self, txn: TxnId) -> &Mutex<TxnSlot> {
        &self.slots[txn.0 as usize - 1]
    }

    /// Open a fresh attempt and restart the deadline clock.
    fn begin(&self, txn: TxnId) {
        let mut slot = self.slot(txn).lock();
        slot.running = true;
        slot.started = Instant::now();
    }
}

/// Everything the OCC workers share, bundled — the attempt, abort, and
/// reap helpers otherwise drown in arguments.
struct OccCtx<'a> {
    monitor: &'a ShardedMonitor,
    db: &'a StripedStore,
    registry: &'a TxnRegistry,
    side: &'a Mutex<Vec<Operation>>,
    certificate: Option<&'a StaticCertificate>,
    level: AdmissionLevel,
    tuning: &'a OccTuning,
    deadline: Option<Duration>,
}

impl<'a> OccCtx<'a> {
    /// `Some(side trace)` when a static certificate covers `txn` —
    /// needed both for the worker's own transaction and for a reap
    /// victim's (whose recording target may differ from the reaper's).
    fn fast_of(&self, txn: TxnId) -> Option<&'a Mutex<Vec<Operation>>> {
        self.certificate
            .is_some_and(|c| c.covers(txn))
            .then_some(self.side)
    }
}

/// Sweep `txn`'s attempt off the shared state and mark its slot not
/// running, under the slot lock the caller holds (so owner and reaper
/// cannot interleave): retract the recorded suffix — from the monitor,
/// or from the side trace on the static fast path — THEN, stripe by
/// stripe, put back the value each of `txn`'s dirty marks displaced
/// and remove the mark. The order is load-bearing: while the dirty
/// marks still stand, no reader can record a read against either the
/// doomed write or the restored value, which is what keeps reads-from
/// assignments stable across the abort (a read admitted in between
/// would be recorded against the victim's write and then silently
/// reassigned to the earlier writer by the retraction's re-push,
/// potentially minting a delayed-read break no `PushOutcome` ever
/// reported).
///
/// Self-abort, error and panic cleanup and the reaper all end an
/// attempt here. After a reap the owner sweeps once more when it
/// notices: what is left then is exactly what one access in flight
/// during the reap recorded or wrote. A write sets its value and its
/// mark under one latch hold, so each mark is put back exactly once —
/// by the reaper if the write landed before the reaper scanned its
/// stripe, by the owner otherwise — and a transaction never writes one
/// item twice (`TpError::DoubleWrite`), so a mark's displaced value is
/// what the item held before the attempt.
fn sweep(ctx: &OccCtx<'_>, txn: TxnId, slot: &mut TxnSlot, m: &mut Metrics) {
    slot.running = false;
    let undone = match ctx.fast_of(txn) {
        Some(side) => {
            let mut ops = side.lock();
            let before = ops.len();
            ops.retain(|o| o.txn != txn);
            before - ops.len()
        }
        None => {
            (ctx.monitor.retract_txn(txn))
                .expect("an in-flight transaction is never summarized")
                .0
        }
    };
    m.monitor_undone_ops += undone as u64;
    for cell in &ctx.db.stripes {
        cell.clear_marks(|Stripe { db, dirty }| {
            let before = dirty.len();
            dirty.retain(|&item, (holder, displaced)| {
                if *holder != txn {
                    return true;
                }
                match displaced.take() {
                    Some(v) => db.set(item, v),
                    None => db.unset(item),
                };
                false
            });
            dirty.len() < before
        });
    }
}

/// [`sweep`] under a fresh hold of `txn`'s slot lock.
fn end_attempt(ctx: &OccCtx<'_>, txn: TxnId, m: &mut Metrics) {
    sweep(ctx, txn, &mut ctx.registry.slot(txn).lock(), m);
}

/// Abort `txn`'s current attempt: sweep it — a no-op beyond the
/// counters if a reaper already did and nothing was in flight — and
/// count the abort under its cause.
fn abort(ctx: &OccCtx<'_>, txn: TxnId, cause: Abort, m: &mut Metrics) -> Result<AttemptEnd> {
    end_attempt(ctx, txn, m);
    m.occ_aborts += 1;
    match cause {
        Abort::Conflict => {}
        Abort::Timeout => m.txn_timeouts += 1,
        Abort::Breach => m.monitor_rejections += 1,
    }
    Ok(AttemptEnd::Aborted)
}

/// Reap `victim` if its current attempt has outlived the deadline:
/// sweep it (the victim finds its slot not running at its next
/// liveness check and aborts) — retraction first, exactly as in a
/// self-abort, so reads-from assignments stay stable while the dirty
/// marks still stand.
fn try_reap(ctx: &OccCtx<'_>, victim: TxnId, deadline: Duration, m: &mut Metrics) {
    let mut slot = ctx.registry.slot(victim).lock();
    if slot.running && slot.started.elapsed() >= deadline {
        sweep(ctx, victim, &mut slot, m);
        m.zombie_reaps += 1;
    }
}

/// Latch `item`'s stripe once it is not dirty under another
/// transaction and run `action` under the latch. Two phases: a short
/// spin fast path (`tuning.dirty_spin` probe/yield rounds — the
/// common sub-quantum commit resolves here without a syscall), then
/// **condvar parking**: the waiter sleeps on the stripe's condvar and
/// is broadcast awake whenever a dirty mark clears (commit or
/// rollback). Each park is timed, so the conflict-abort escape hatch
/// survives: `Ok(None)` after `tuning.park_budget` parks means a
/// possible write-write wait cycle — the caller aborts itself to
/// break it — and a hypothetically lost wakeup costs one timeout,
/// never a deadlock.
///
/// When deadlines are armed, the park loop doubles as the **zombie
/// reaper**: before each park the waiter checks whether the dirty
/// mark's holder has outlived its deadline and, if so, reaps it
/// ([`try_reap`]) instead of burning the whole park budget on a
/// stalled or dead writer. The stripe guard is dropped across the
/// reap — slot locks are always taken before stripe locks.
fn with_clean_stripe<T>(
    ctx: &OccCtx<'_>,
    txn: TxnId,
    item: ItemId,
    m: &mut Metrics,
    action: impl FnOnce(&mut Stripe, &mut Metrics) -> Result<T>,
) -> Result<Option<T>> {
    let (cell, tuning) = (ctx.db.cell(item), ctx.tuning);
    let clean = |stripe: &Stripe| stripe.dirty.get(&item).is_none_or(|(w, _)| *w == txn);
    // Phase 1: spin fast path.
    let mut stripe = cell.state.lock();
    let mut spins = 0u32;
    while !clean(&stripe) {
        m.waits += 1;
        spins += 1;
        if spins >= tuning.dirty_spin {
            break;
        }
        drop(stripe);
        std::thread::yield_now();
        stripe = cell.state.lock();
    }
    // Phase 2: park until the dirty mark clears (timed, bounded).
    let mut parks = 0u32;
    while !clean(&stripe) {
        if let Some(deadline) = ctx.deadline {
            let victim = stripe.dirty[&item].0;
            drop(stripe);
            try_reap(ctx, victim, deadline, m);
            stripe = cell.state.lock();
            if clean(&stripe) {
                break;
            }
        }
        if parks >= tuning.park_budget {
            return Ok(None);
        }
        parks += 1;
        m.waits += 1;
        let park = Duration::from_micros(tuning.park_timeout_us.max(1));
        stripe = cell.cv.wait_timeout(stripe, park).0;
    }
    action(&mut stripe, m).map(Some)
}

/// One speculative attempt of `txn`, with panic containment. On abort
/// — and on any error — the recorded suffix (monitor or side trace)
/// is retracted first and every store write then restored, so the
/// shared state is as if the attempt never ran (except the attempt's
/// waits and abort counters). A panic anywhere in the attempt
/// (injected or genuine) is caught here: the same sweep runs, the
/// panic is counted ([`Metrics::worker_panics`]) and reported to
/// stderr, and the transaction ends [`AttemptEnd::Died`] — the pool
/// keeps committing without it.
fn occ_attempt(
    ctx: &OccCtx<'_>,
    session: &mut ProgramSession<'_>,
    m: &mut Metrics,
) -> Result<AttemptEnd> {
    let txn = session.txn();
    ctx.registry.begin(txn);
    match catch_unwind(AssertUnwindSafe(|| occ_attempt_inner(ctx, session, m))) {
        Ok(Err(e)) => {
            // An error must not strand dirty marks: other workers
            // would spin out their whole wait/retry budget on them
            // before the error surfaces through the join.
            end_attempt(ctx, txn, m);
            Err(e)
        }
        Ok(end) => end,
        Err(payload) => {
            end_attempt(ctx, txn, m);
            m.worker_panics += 1;
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            eprintln!("occ worker panic contained: {txn} died: {what}");
            Ok(AttemptEnd::Died)
        }
    }
}

fn occ_attempt_inner(
    ctx: &OccCtx<'_>,
    session: &mut ProgramSession<'_>,
    m: &mut Metrics,
) -> Result<AttemptEnd> {
    let (monitor, faults, txn) = (ctx.monitor, ctx.tuning.faults.as_ref(), session.txn());
    let fast = ctx.fast_of(txn);
    // A retry starts the program over. (An attempt that gave up before
    // its first access left the machine where a fresh one stands.)
    if session.emitted() > 0 {
        session.restart();
    }
    let breached = |outcomes: &[PushOutcome]| outcomes.iter().any(|o| o.breaches(ctx.level));

    // Pending-write buffer for the batched admission path. A write's
    // monitor push can be deferred for as long as its dirty mark
    // stands: no other transaction can read or write the item in that
    // window (`with_clean_stripe` holds them out), so the claimed
    // position is indistinguishable from an immediate push. Reads
    // cannot be deferred — their claimed position must be under the
    // same stripe latch as the value — so a read flushes the buffer
    // plus itself as one amortized batch; the commit path flushes the
    // remaining tail before the marks clear.
    let mut deferred: Vec<Operation> = Vec::new();
    let flush = |deferred: &mut Vec<Operation>, m: &mut Metrics| -> Result<Vec<PushOutcome>> {
        let outcomes = monitor.push_batch(deferred)?;
        let len = deferred.len() as u64;
        m.batch_pushes += 1;
        m.batched_ops += len;
        m.max_batch = m.max_batch.max(len);
        deferred.clear();
        Ok(outcomes)
    };

    // The items this attempt wrote, whose marks its commit clears.
    let mut written: Vec<ItemId> = Vec::new();
    let mut breach = false;
    let mut access: u32 = 0;
    loop {
        // The one liveness check per access, after the last access and
        // its fault, under one slot-lock hold when deadlines are armed
        // (only then can a reaper exist). A reap comes first: it
        // already swept the attempt, so the last access's outcome
        // predates the retraction and must not be read as a breach —
        // whatever that access recorded or wrote after the reaper's
        // scan, the abort's sweep removes. Then the breach, then the
        // attempt's own deadline. Every retry gets a fresh clock.
        let live = ctx.deadline.map(|deadline| {
            let slot = ctx.registry.slot(txn).lock();
            (slot.running, slot.started.elapsed() <= deadline)
        });
        match live {
            Some((false, _)) => return abort(ctx, txn, Abort::Timeout, m),
            _ if breach => return abort(ctx, txn, Abort::Breach, m),
            Some((_, false)) => return abort(ctx, txn, Abort::Timeout, m),
            _ => {}
        }
        let pending = session.pending()?;
        let item = match &pending {
            Pending::NeedRead(item) => *item,
            Pending::Write(op) => op.item,
            Pending::Done => break,
        };
        // The access: perform the pending read or write, record it and
        // advance the session, all under the stripe latch.
        let mut fault: Option<ExecFault> = None;
        let accessed = with_clean_stripe(ctx, txn, item, m, |stripe, m| {
            // The fault point for this access, if the chaos plane
            // armed one. Consumed here — the moment the access
            // actually happens — so a point on an access the attempt
            // never performs (dirty-wait give-up first) survives for
            // the retry instead of being silently eaten.
            fault = faults.and_then(|f| f.fire_exec(txn.0, access));
            if matches!(fault, Some(ExecFault::PanicInStripe)) {
                panic!("injected panic under stripe latch ({txn}, access {access})");
            }
            let (op, write) = match pending {
                // Value and claimed position under one latch:
                // same-item accesses serialize through the stripe, so
                // the recorded schedule is read-coherent per item.
                Pending::NeedRead(_) => {
                    (session.feed_read(stripe.db.require(item)?.clone())?, false)
                }
                // The value and its undo under one latch hold.
                Pending::Write(op) => {
                    let displaced = stripe.db.set(item, op.value.clone());
                    stripe.dirty.insert(item, (txn, displaced));
                    written.push(item);
                    session.advance_write()?;
                    (op, true)
                }
                Pending::Done => unreachable!("handled above"),
            };
            // Fast path: append to the side trace (same-item order
            // still serialized by the latch), no outcome to consult.
            // Monitored path: defer a write, flush the buffer with a
            // read.
            Ok(match fast {
                Some(side) => {
                    side.lock().push(op);
                    m.monitor_skipped_ops += 1;
                    false
                }
                None => {
                    deferred.push(op);
                    !write && breached(&flush(&mut deferred, m)?)
                }
            })
        })?;
        match accessed {
            Some(breached_here) => breach = breached_here,
            None => return abort(ctx, txn, Abort::Conflict, m),
        }
        // The access's fault, before the liveness check (a stall or
        // panic placed "after access k" happens even when access k
        // would also abort): a stall sleeps with dirty marks held but
        // no locks — the reaper's prey — and a panic dies
        // mid-transaction, containment's worst case.
        match fault {
            Some(ExecFault::Stall { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            Some(ExecFault::Panic) => panic!("injected worker panic ({txn}, access {access})"),
            _ => {}
        }
        access += 1;
    }
    // Commit: flush the deferred write tail and flip the slot off
    // `running` under one hold of the slot lock. A reaper's sweep
    // takes the same lock, so the flushed ops can never land after a
    // retraction, and a reap racing the commit is decided by the slot.
    // The dirty marks still stand, so the claimed positions are
    // indistinguishable from pushes at write time; a breach found
    // here aborts the attempt like any other.
    {
        let mut slot = ctx.registry.slot(txn).lock();
        if !slot.running {
            // Reaped before the tail could flush: everything already
            // rolled back (the unpushed tail never reached the monitor).
            drop(slot);
            return abort(ctx, txn, Abort::Timeout, m);
        }
        if !deferred.is_empty() && breached(&flush(&mut deferred, m)?) {
            drop(slot);
            return abort(ctx, txn, Abort::Breach, m);
        }
        slot.running = false;
    }
    // Then clear the dirty marks, waking parked waiters.
    for item in written {
        ctx.db
            .cell(item)
            .clear_marks(|stripe| stripe.dirty.remove(&item).is_some());
    }
    Ok(AttemptEnd::Committed)
}

/// Sanity helper for tests: replay a program against the values its
/// operations recorded, confirming the trace is a genuine execution.
pub fn replay_matches(program: &Program, catalog: &Catalog, txn: TxnId, ops: &[Operation]) -> bool {
    let reads: Vec<_> = ops
        .iter()
        .filter(|o| o.is_read())
        .map(|o| o.value.clone())
        .collect();
    match run_with_reads(program, catalog, txn, &reads) {
        Ok(RunOutcome::Complete { ops: replayed }) => replayed == ops,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::setup;
    use pwsr_core::ids::ItemId;
    use pwsr_core::monitor::OnlineMonitor;
    use pwsr_core::pwsr::is_pwsr;
    use pwsr_core::value::Value;
    use pwsr_tplang::parser::parse_program;

    #[test]
    fn threaded_run_is_pwsr_and_coherent() {
        let (cat, ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a0 := a0 + 1; a1 := a1 + 1;").unwrap(),
            parse_program("T2", "b0 := b0 + 1;").unwrap(),
            parse_program("T3", "b1 := b1 + 1; a1 := a1 + 2;").unwrap(),
            parse_program("T4", "a0 := a0 + 3;").unwrap(),
        ];
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let spec = MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr);
        for _ in 0..5 {
            let (schedule, final_state, verdict) =
                run_threaded_certified(&programs, &cat, &initial, &policy, &spec).unwrap();
            schedule.check_read_coherence(&initial).unwrap();
            assert!(is_pwsr(&schedule, &ic).ok());
            assert!(verdict.pwsr() && verdict.len == schedule.len());
            // All effects present regardless of interleaving.
            assert_eq!(
                final_state.get(cat.lookup("a0").unwrap()),
                Some(&Value::Int(4))
            );
            assert_eq!(
                final_state.get(cat.lookup("a1").unwrap()),
                Some(&Value::Int(3))
            );
        }
    }

    #[test]
    fn certified_threaded_run_reports_live_verdict() {
        use pwsr_core::monitor::VerdictLevel;
        let (cat, ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a0 := a0 + 1; a1 := a1 + 1;").unwrap(),
            parse_program("T2", "b0 := b0 + 1;").unwrap(),
            parse_program("T3", "b1 := b1 + 1; a1 := a1 + 2;").unwrap(),
        ];
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let spec = MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr);
        for _ in 0..5 {
            let (schedule, _, verdict) =
                run_threaded_certified(&programs, &cat, &initial, &policy, &spec).unwrap();
            // Conservative per-space 2PL holds every touched space for
            // the transaction's lifetime: the live verdict must land at
            // PWSR-or-better with DR preserved, and agree with the
            // batch checkers on the recorded schedule.
            assert_ne!(verdict.level, VerdictLevel::Violation);
            assert!(verdict.dr, "{schedule}");
            assert!(verdict.pwsr());
            assert_eq!(verdict.len, schedule.len());
            assert!(is_pwsr(&schedule, &ic).ok());
            assert!(pwsr_core::dr::is_delayed_read(&schedule));
        }
    }

    #[test]
    fn certified_threaded_run_is_coherent_and_replay_parities() {
        // The sharded path has no big mutex: the recorded schedule
        // must still be read-coherent against the initial state, the
        // final striped state must equal applying the schedule, and
        // the verdict must equal a single-writer replay.
        let (cat, ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a0 := a0 + 1; b0 := b0 - 1;").unwrap(),
            parse_program("T2", "a1 := a1 + 5;").unwrap(),
            parse_program("T3", "b1 := b1 + 7; a1 := a1 + 1;").unwrap(),
            parse_program("T4", "a0 := a0 + 2;").unwrap(),
        ];
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let scopes = ic.scopes();
        let spec = MonitorSpec::new(scopes.clone(), AdmissionLevel::Pwsr);
        for _ in 0..10 {
            let (schedule, final_state, verdict) =
                run_threaded_certified(&programs, &cat, &initial, &policy, &spec).unwrap();
            schedule.check_read_coherence(&initial).unwrap();
            assert_eq!(schedule.apply(&initial), final_state);
            let mut replay = OnlineMonitor::new(scopes.clone());
            let mut last = replay.verdict();
            for op in schedule.ops() {
                last = replay.push(op.clone()).unwrap();
            }
            assert_eq!(last, verdict, "sharded verdict != single-writer replay");
            assert!(replay.certify_prefix());
        }
    }

    #[test]
    fn per_transaction_traces_replay() {
        let (cat, ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a0 := a0 + 1;").unwrap(),
            parse_program("T2", "a0 := a0 + 1;").unwrap(),
        ];
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let spec = MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr);
        let (schedule, _, verdict) =
            run_threaded_certified(&programs, &cat, &initial, &policy, &spec).unwrap();
        assert!(verdict.pwsr() && verdict.len == schedule.len());
        for (k, p) in programs.iter().enumerate() {
            let txn = TxnId(k as u32 + 1);
            let t = schedule.transaction(txn);
            assert!(replay_matches(p, &cat, txn, t.ops()));
        }
    }

    #[test]
    fn empty_program_set() {
        let (cat, _ic, initial) = setup();
        let spec = MonitorSpec::new(Vec::new(), AdmissionLevel::Pwsr);
        let (schedule, final_state, verdict) =
            run_threaded_certified(&[], &cat, &initial, &PolicySpec::global_2pl(), &spec).unwrap();
        assert!(schedule.is_empty());
        assert_eq!(final_state, initial);
        assert_eq!(verdict.len, 0);
        let out = run_threaded_occ_tuned(&[], &cat, &initial, &spec, 4, 10, &OccTuning::default())
            .unwrap();
        assert!(out.schedule.is_empty());
        assert_eq!(out.final_state, initial);
        assert_eq!(out.metrics.occ_aborts, 0);
        let _ = ItemId(0);
    }

    /// A program that writes one item twice is refused before its
    /// second write is ever pending — by both executors, beside two
    /// ordinary programs. This is the premise of the optimistic sweep:
    /// an attempt journals at most one write per item, so the write a
    /// reaper could not see puts back exactly what it displaced.
    #[test]
    fn double_write_is_refused_by_both_executors() {
        use pwsr_tplang::error::TpError;
        let (cat, ic, initial) = setup();
        let a0 = cat.lookup("a0").unwrap();
        let programs = vec![
            parse_program("T1", "a1 := a1 + 1;").unwrap(),
            parse_program("T2", "a0 := 1; a0 := 2;").unwrap(),
            parse_program("T3", "b0 := b0 + 1;").unwrap(),
        ];
        let refused = |r: Result<()>| matches!(r, Err(SchedError::Program(TpError::DoubleWrite(i))) if i == a0);
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let spec = MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr);
        let locked = run_threaded_certified(&programs, &cat, &initial, &policy, &spec);
        assert!(refused(locked.map(|_| ())));
        for threads in [1, 4] {
            let tuning = OccTuning::default();
            let occ =
                run_threaded_occ_tuned(&programs, &cat, &initial, &spec, threads, 10, &tuning);
            assert!(refused(occ.map(|_| ())), "threads={threads}");
        }
    }

    /// The OCC-certified path commits only floor-compliant schedules:
    /// read-coherent, final state = applying the schedule, per-txn
    /// traces replay in program order, verdict byte-identical to a
    /// single-writer replay, and at or above the configured floor —
    /// at every level, across repetitions and thread counts.
    #[test]
    fn occ_certified_commits_floor_compliant_schedules() {
        let (cat, ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a0 := a0 + 1; a1 := a1 + 1;").unwrap(),
            parse_program("T2", "b0 := b0 + 1;").unwrap(),
            parse_program("T3", "b1 := b1 + 7; a1 := a1 + 2;").unwrap(),
            parse_program("T4", "a0 := a0 + 3; b0 := b0 + 2;").unwrap(),
        ];
        let scopes = ic.scopes();
        for level in [
            AdmissionLevel::Serializable,
            AdmissionLevel::Pwsr,
            AdmissionLevel::PwsrDr,
        ] {
            for threads in [1, 4] {
                for _ in 0..5 {
                    let out = run_threaded_occ_tuned(
                        &programs,
                        &cat,
                        &initial,
                        &MonitorSpec::new(scopes.clone(), level),
                        threads,
                        1_000,
                        &OccTuning::default(),
                    )
                    .unwrap();
                    out.schedule.check_read_coherence(&initial).unwrap();
                    assert_eq!(out.schedule.apply(&initial), out.final_state);
                    assert!(out.verdict.meets(level), "{level:?}: {}", out.schedule);
                    assert!(is_pwsr(&out.schedule, &ic).ok());
                    // Effects of every committed transaction survive.
                    assert_eq!(
                        out.final_state.get(cat.lookup("a0").unwrap()),
                        Some(&Value::Int(4))
                    );
                    assert_eq!(
                        out.final_state.get(cat.lookup("a1").unwrap()),
                        Some(&Value::Int(3))
                    );
                    // Per-transaction program-order replay: the
                    // batched claim defers writes, but every flush is
                    // in program order, so each transaction's
                    // subsequence of the schedule replays its program.
                    for (k, p) in programs.iter().enumerate() {
                        let txn = TxnId(k as u32 + 1);
                        let t = out.schedule.transaction(txn);
                        assert!(replay_matches(p, &cat, txn, t.ops()), "{txn:?}");
                    }
                    // Byte-identical to a single-writer replay.
                    let mut replay = OnlineMonitor::new(scopes.clone());
                    let mut last = replay.verdict();
                    for op in out.schedule.ops() {
                        last = replay.push(op.clone()).unwrap();
                    }
                    assert_eq!(last, out.verdict);
                    assert!(replay.certify_prefix());
                    // Batched admission is the only monitored path:
                    // every committed op rode in a batch, and a
                    // read-plus-deferred-write flush reaches width 2.
                    assert!(out.metrics.batch_pushes > 0);
                    assert!(out.metrics.batched_ops >= out.metrics.committed_ops);
                    assert!(out.metrics.max_batch >= 2);
                }
            }
        }
    }

    /// A certificate covering every program routes the whole workload
    /// around the monitor: the verdict covers zero operations, yet the
    /// spliced schedule is coherent, PWSR, and loses no effects.
    #[test]
    fn certified_threaded_full_certificate_bypasses_monitor() {
        use crate::policy::StaticCertificate;
        let (cat, ic, initial) = setup();
        // A statically-safe mix: each program touches its own item
        // (empty conflict graph — trivially a forest at every level).
        let programs = vec![
            parse_program("T1", "a0 := a0 + 1;").unwrap(),
            parse_program("T2", "b0 := b0 + 1;").unwrap(),
            parse_program("T3", "a1 := a1 + 5;").unwrap(),
            parse_program("T4", "b1 := b1 + 7;").unwrap(),
        ];
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let spec = MonitorSpec {
            certificate: Some(StaticCertificate::full(
                AdmissionLevel::Pwsr,
                programs.len(),
            )),
            ..MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)
        };
        for _ in 0..5 {
            let (schedule, final_state, verdict) =
                run_threaded_certified(&programs, &cat, &initial, &policy, &spec).unwrap();
            assert_eq!(verdict.len, 0, "no operation may reach the monitor");
            assert_eq!(schedule.len(), 8);
            schedule.check_read_coherence(&initial).unwrap();
            assert_eq!(schedule.apply(&initial), final_state);
            assert!(is_pwsr(&schedule, &ic).ok());
            assert_eq!(
                final_state.get(cat.lookup("a0").unwrap()),
                Some(&Value::Int(1))
            );
            assert_eq!(
                final_state.get(cat.lookup("b1").unwrap()),
                Some(&Value::Int(17))
            );
        }
    }

    /// A mixed workload: the certified component (disjoint items)
    /// bypasses the monitor while the conflicting remainder is still
    /// certified live — the verdict covers exactly the monitored ops
    /// and the spliced whole stays coherent and PWSR.
    #[test]
    fn certified_threaded_mixed_workload_monitors_only_the_rest() {
        use crate::policy::StaticCertificate;
        let (cat, ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a1 := a1 + 5;").unwrap(), // certified
            parse_program("T2", "b1 := b1 + 7;").unwrap(), // certified
            parse_program("T3", "a0 := a0 + 1;").unwrap(), // monitored
            parse_program("T4", "a0 := a0 + 2; b0 := b0 + 1;").unwrap(), // monitored
        ];
        let cert = StaticCertificate::new(
            AdmissionLevel::Pwsr,
            [TxnId(1), TxnId(2)].into_iter().collect(),
        );
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let spec = MonitorSpec {
            certificate: Some(cert),
            ..MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)
        };
        for _ in 0..5 {
            let (schedule, final_state, verdict) =
                run_threaded_certified(&programs, &cat, &initial, &policy, &spec).unwrap();
            // T3+T4 contribute 2+4 monitored ops; T1+T2 skip with 4.
            assert_eq!(verdict.len, 6);
            assert_eq!(schedule.len(), 10);
            assert!(verdict.pwsr());
            schedule.check_read_coherence(&initial).unwrap();
            assert_eq!(schedule.apply(&initial), final_state);
            assert!(is_pwsr(&schedule, &ic).ok());
            assert_eq!(
                final_state.get(cat.lookup("a0").unwrap()),
                Some(&Value::Int(3))
            );
            assert_eq!(
                final_state.get(cat.lookup("a1").unwrap()),
                Some(&Value::Int(5))
            );
        }
    }

    /// The OCC fast path: certified transactions skip certification
    /// (zero monitored ops, `monitor_skipped_ops` accounts for every
    /// access) while still obeying the dirty-item store discipline;
    /// mixed runs monitor only the uncertified remainder.
    #[test]
    fn occ_spec_certificate_skips_certification() {
        use crate::policy::{MonitorSpec, StaticCertificate};
        let (cat, ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a1 := a1 + 5;").unwrap(), // certified
            parse_program("T2", "b1 := b1 + 7;").unwrap(), // certified
            parse_program("T3", "a0 := a0 + 1;").unwrap(), // monitored
            parse_program("T4", "a0 := a0 + 2; b0 := b0 + 1;").unwrap(), // monitored
        ];
        let scopes = ic.scopes();
        let spec = MonitorSpec {
            certificate: Some(StaticCertificate::new(
                AdmissionLevel::Pwsr,
                [TxnId(1), TxnId(2)].into_iter().collect(),
            )),
            ..MonitorSpec::new(scopes.clone(), AdmissionLevel::Pwsr)
        };
        for threads in [1, 4] {
            for _ in 0..5 {
                let out = run_threaded_occ_tuned(
                    &programs,
                    &cat,
                    &initial,
                    &spec,
                    threads,
                    10_000,
                    &OccTuning::default(),
                )
                .unwrap();
                assert_eq!(out.verdict.len, 6, "only T3/T4 ops are monitored");
                assert_eq!(out.schedule.len(), 10);
                assert!(out.metrics.monitor_skipped_ops >= 4);
                out.schedule.check_read_coherence(&initial).unwrap();
                assert_eq!(out.schedule.apply(&initial), out.final_state);
                assert!(is_pwsr(&out.schedule, &ic).ok());
                assert_eq!(
                    out.final_state.get(cat.lookup("a0").unwrap()),
                    Some(&Value::Int(3))
                );
                assert_eq!(
                    out.final_state.get(cat.lookup("a1").unwrap()),
                    Some(&Value::Int(5))
                );
                // Per-transaction traces still replay in program order.
                for (k, p) in programs.iter().enumerate() {
                    let txn = TxnId(k as u32 + 1);
                    let t = out.schedule.transaction(txn);
                    assert!(replay_matches(p, &cat, txn, t.ops()), "{txn:?}");
                }
            }
        }
    }

    /// Contended single-item increments force dirty-wait serialization
    /// (and possibly aborts); no update may be lost either way, and
    /// the counters stay consistent.
    #[test]
    fn occ_certified_contention_loses_no_updates() {
        let (cat, ic, initial) = setup();
        let hot: Vec<Program> = (0..6)
            .map(|k| parse_program(&format!("H{k}"), "a0 := a0 + 1;").unwrap())
            .collect();
        let scopes = ic.scopes();
        for _ in 0..10 {
            let out = run_threaded_occ_tuned(
                &hot,
                &cat,
                &initial,
                &MonitorSpec::new(scopes.clone(), AdmissionLevel::Pwsr),
                4,
                10_000,
                &OccTuning::default(),
            )
            .unwrap();
            out.schedule.check_read_coherence(&initial).unwrap();
            assert_eq!(
                out.final_state.get(cat.lookup("a0").unwrap()),
                Some(&Value::Int(6)),
                "all six increments must survive: {}",
                out.schedule
            );
            assert_eq!(out.metrics.occ_aborts, out.metrics.occ_retries);
            assert_eq!(out.metrics.committed_ops, out.schedule.len() as u64);
        }
    }

    /// Both certified threaded paths keep working over a compacted
    /// monitor: with a compaction cadence set, transactions are
    /// declared finished at commit and the monitor is (for the logged
    /// OCC path: checkpointed and) compacted mid-run, while other
    /// workers are still pushing, aborting, and retracting. The
    /// verdict still spans and certifies the whole run, no update is
    /// lost, and `Schedule::base() > 0` proves compaction really
    /// fired.
    #[test]
    fn certified_threaded_paths_work_over_a_compacted_monitor() {
        let (cat, ic, initial) = setup();
        let hot: Vec<Program> = (0..8)
            .map(|k| parse_program(&format!("H{k}"), "a0 := a0 + 1; a1 := a1 + 1;").unwrap())
            .collect();
        let scopes = ic.scopes();

        // Lock-based certified path.
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let spec = MonitorSpec {
            compact_every: 2,
            ..MonitorSpec::new(scopes.clone(), AdmissionLevel::Pwsr)
        };
        for _ in 0..5 {
            let (schedule, final_state, verdict) =
                run_threaded_certified(&hot, &cat, &initial, &policy, &spec).unwrap();
            assert!(verdict.meets(AdmissionLevel::Pwsr));
            assert_eq!(
                verdict.len,
                schedule.len(),
                "the verdict covers summarized and live operations alike"
            );
            assert!(schedule.base() > 0, "compaction never fired");
            assert_eq!(schedule.base() + schedule.ops().len(), schedule.len());
            assert_eq!(
                final_state.get(cat.lookup("a0").unwrap()),
                Some(&Value::Int(8))
            );
            assert_eq!(
                final_state.get(cat.lookup("a1").unwrap()),
                Some(&Value::Int(8))
            );
        }

        // OCC certified path: the logged monitor needs the
        // checkpoint-then-compact pairing because in-flight
        // transactions may yet abort and retract.
        let spec = MonitorSpec {
            compact_every: 1,
            ..MonitorSpec::new(scopes.clone(), AdmissionLevel::Pwsr)
        };
        for threads in [1, 4] {
            for _ in 0..5 {
                let out = run_threaded_occ_tuned(
                    &hot,
                    &cat,
                    &initial,
                    &spec,
                    threads,
                    10_000,
                    &OccTuning::default(),
                )
                .unwrap();
                assert!(out.verdict.meets(AdmissionLevel::Pwsr));
                assert_eq!(out.verdict.len, out.schedule.len(), "threads={threads}");
                assert!(out.schedule.base() > 0, "compaction never fired");
                assert_eq!(
                    out.final_state.get(cat.lookup("a0").unwrap()),
                    Some(&Value::Int(8)),
                    "threads={threads}"
                );
                assert_eq!(
                    out.final_state.get(cat.lookup("a1").unwrap()),
                    Some(&Value::Int(8)),
                    "threads={threads}"
                );
            }
        }
    }
}
