//! A genuinely threaded executor (demonstration substrate).
//!
//! The discrete-event executor in [`crate::exec`] is the measurement
//! instrument; this module shows the same policies working under real
//! OS-thread parallelism with `parking_lot` locks. Each transaction
//! runs on its own thread; per-conjunct space mutexes are acquired in
//! ascending space order for a transaction's whole lifetime
//! (conservative per-space 2PL — deadlock-free by lock ordering).
//!
//! Two recording paths, both certified live:
//!
//! * [`run_threaded_certified`] — lock-based, with no global database
//!   lock: the database is striped by item, and the interleaving
//!   is recorded *by* the sharded monitor
//!   ([`ShardedMonitor`]) whose ticketed pipeline
//!   defines the total order. Conservative per-space 2PL already
//!   serializes conflicting accesses for entire transaction
//!   lifetimes, so a thread's `db access → push` pair cannot be split
//!   by a conflicting pair — the recorded schedule is read-coherent
//!   by construction, and the monitor certifies it live, in parallel;
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
//!
//! [`PushOutcome`]: pwsr_core::monitor::sharded::PushOutcome

use crate::error::{Result, SchedError};
use crate::metrics::Metrics;
use crate::policy::{MonitorSpec, PolicySpec, StaticCertificate};
use parking_lot::{Condvar, Mutex};
use pwsr_core::catalog::Catalog;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::{AdmissionLevel, Verdict};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::{DbState, ItemSet};
use pwsr_core::value::Value;
use pwsr_durability::fault::{ExecFault, FaultHandle};
use pwsr_tplang::ast::Program;
use pwsr_tplang::interp::{run_with_reads, RunOutcome};
use pwsr_tplang::session::{Pending, ProgramSession};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The database striped by item for the certified path: stripe
/// `item.index() % n` owns the item, so threads touching different
/// items contend only `1/n` of the time and there is no global
/// database lock. Conservative per-space 2PL (held around entire
/// transactions by the caller) makes each stripe access race-free in
/// the schedule-semantics sense; the stripe mutex provides the memory
/// safety.
struct StripedDb {
    stripes: Vec<Mutex<DbState>>,
}

impl StripedDb {
    fn new(initial: &DbState, n: usize) -> StripedDb {
        let n = n.max(1);
        let mut parts: Vec<DbState> = (0..n).map(|_| DbState::new()).collect();
        for (item, value) in initial.iter() {
            parts[item.index() % n].set(item, value.clone());
        }
        StripedDb {
            stripes: parts.into_iter().map(Mutex::new).collect(),
        }
    }

    fn read(&self, item: ItemId) -> Result<Value> {
        let stripe = self.stripes[item.index() % self.stripes.len()].lock();
        Ok(stripe.require(item)?.clone())
    }

    fn write(&self, item: ItemId, value: Value) {
        let mut stripe = self.stripes[item.index() % self.stripes.len()].lock();
        stripe.set(item, value);
    }

    fn into_state(self) -> DbState {
        let mut out = DbState::new();
        for stripe in self.stripes {
            for (item, value) in stripe.into_inner().iter() {
                out.set(item, value.clone());
            }
        }
        out
    }
}

/// The per-space lock set a conservative transaction must hold.
fn space_set(program: &Program, catalog: &Catalog, policy: &PolicySpec) -> BTreeSet<u32> {
    let (r, w) = crate::dag_admission::may_access_sets(program, catalog);
    r.union(&w).iter().map(|i| policy.space_of(i).0).collect()
}

fn space_lock_table(
    programs: &[Program],
    catalog: &Catalog,
    policy: &PolicySpec,
) -> Vec<Mutex<()>> {
    let n_spaces = programs
        .iter()
        .flat_map(|p| space_set(p, catalog, policy))
        .max()
        .map(|m| m as usize + 1)
        .unwrap_or(1);
    (0..n_spaces).map(|_| Mutex::new(())).collect()
}

/// Run each program on its own OS thread under conservative per-space
/// two-phase locking: every thread first computes its syntactic space
/// set, locks those spaces in ascending order, executes, then releases
/// — with a [`ShardedMonitor`] certifying the verdict live, operation
/// by operation. The database is striped by item (no global lock);
/// the interleaving is whatever order the threads' pushes claim inside
/// the monitor's sequence stage, and the returned verdict is the
/// monitor's exact (quiescent) verdict over exactly that interleaving.
/// Returns the recorded (committed) schedule, the final state and that
/// verdict.
///
/// When `policy.monitor` carries a [`StaticCertificate`] (see
/// [`PolicySpec::certified`]), transactions the certificate covers
/// **bypass the monitor pipeline entirely**: their operations are
/// recorded into a cheap side trace instead of being pushed through
/// the three-stage certification pipeline. The returned verdict then
/// covers only the *monitored* suffix of the workload (its `len` is
/// the number of monitored operations, not the schedule length); the
/// overall guarantee is the conjunction of the certificate's static
/// level over the certified subset and the live verdict over the
/// rest. Soundness rests on the analyzer's contract that certified
/// transactions form conflict-closed components — they never conflict
/// with monitored transactions, so same-item operation order (and
/// hence reads-from and coherence) is unaffected by splicing the side
/// trace after the monitored schedule.
///
/// [`PolicySpec::certified`]: crate::policy::PolicySpec::certified
pub fn run_threaded_certified(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    policy: &PolicySpec,
    scopes: Vec<ItemSet>,
) -> Result<(Schedule, DbState, Verdict)> {
    let space_locks = space_lock_table(programs, catalog, policy);
    let mut monitor = ShardedMonitor::new(scopes);
    // Durable admission: journal every claimed operation into the
    // policy's WAL (the journal hook runs under the monitor's
    // sequence mutex, so log order is claimed schedule order).
    if let Some(wal) = policy.monitor.as_ref().and_then(|s| s.wal.as_ref()) {
        monitor = monitor.with_journal(Box::new(wal.clone()));
    }
    let db = StripedDb::new(initial, 16);
    let certificate = policy.monitor.as_ref().and_then(certificate_of);
    // Side trace for statically-certified transactions: a plain mutex
    // push, no graph maintenance, no pipeline stages.
    let side: Mutex<Vec<Operation>> = Mutex::new(Vec::new());
    // Committed-prefix compaction (MonitorSpec::compact_every): this
    // path never retracts — 2PL admits no aborts — so no checkpoint
    // is needed before compacting; the frontier is gated purely by
    // finish_txn declarations at commit.
    let compact_every = policy.monitor.as_ref().map_or(0, |s| s.compact_every);
    let commits = AtomicU64::new(0);

    std::thread::scope(|scope| -> Result<()> {
        let mut handles = Vec::new();
        for (k, program) in programs.iter().enumerate() {
            let txn = TxnId(k as u32 + 1);
            let (monitor, db, space_locks, side) = (&monitor, &db, &space_locks, &side);
            let commits = &commits;
            let fast = certificate.is_some_and(|c| c.covers(txn));
            handles.push(scope.spawn(move || -> Result<()> {
                let spaces = space_set(program, catalog, policy);
                let guards: Vec<_> = spaces
                    .iter()
                    .map(|&s| space_locks[s as usize].lock())
                    .collect();
                let mut session = ProgramSession::new(program, catalog, txn);
                // Whole-transaction batching: per-space 2PL holds
                // every conflicting transaction out for this one's
                // entire lifetime, so deferring the monitor pushes to
                // one program-ordered batch before lock release claims
                // the same per-item operation orders as pushing
                // op-by-op — while paying the pipeline's serial costs
                // (seq mutex, global ticket, shard tickets) once.
                let mut batch: Vec<Operation> = Vec::new();
                let mut record = |op: Operation| {
                    if fast {
                        side.lock().push(op);
                    } else {
                        batch.push(op);
                    }
                };
                loop {
                    match session.pending()? {
                        Pending::NeedRead(item) => {
                            // Per-space 2PL holds every conflicting
                            // transaction out for our whole lifetime,
                            // so value and claimed position cannot be
                            // split by a conflicting access.
                            let v = db.read(item)?;
                            let op = session.feed_read(v)?;
                            record(op);
                        }
                        Pending::Write(op) => {
                            db.write(op.item, op.value.clone());
                            record(op);
                            session.advance_write()?;
                        }
                        Pending::Done => break,
                    }
                }
                if !batch.is_empty() {
                    monitor.push_batch(&batch)?;
                }
                drop(guards);
                // Commit is final here (no aborts): declare the
                // transaction finished so the compaction frontier can
                // advance over it, and compact on cadence.
                if !fast {
                    monitor.finish_txn(txn);
                    if compact_every > 0 {
                        let n = commits.fetch_add(1, Ordering::Relaxed) + 1;
                        if n.is_multiple_of(compact_every) {
                            monitor.compact();
                        }
                    }
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join().map_err(|_| SchedError::Stalled)??;
        }
        Ok(())
    })?;

    let (monitored, verdict) = monitor.into_parts();
    let schedule = splice_side_trace(monitored, side.into_inner())?;
    // This path reports no metrics; the seal is for the tail and the
    // verdict on the log.
    if let Some(wal) = policy.monitor.as_ref().and_then(|s| s.wal.as_ref()) {
        Metrics::default().seal_wal(wal)?;
    }
    Ok((schedule, db.into_state(), verdict))
}

/// The validated certificate a policy carries, if any: present only
/// when the policy has a monitor half and the certificate's level
/// implies the monitor's floor ([`PolicySpec::certified`] refuses
/// weaker attachments, but re-checking here keeps hand-built specs
/// honest).
///
/// [`PolicySpec::certified`]: crate::policy::PolicySpec::certified
fn certificate_of(spec: &MonitorSpec) -> Option<&StaticCertificate> {
    let holds = |c: &&StaticCertificate| c.satisfies(spec.level);
    spec.certificate.as_ref().filter(holds)
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

/// One stripe of the optimistic store: the values plus the claiming
/// transaction of every uncommitted write. Dirty items block other
/// transactions' accesses until the writer commits or rolls back —
/// which is what keeps a rollback invisible (nobody can have read the
/// squashed value) and the recorded schedule read-coherent without
/// any cascade. No per-item version counters: the monitor certifies
/// the *actual* recorded interleaving, so there is no read-set
/// validation for versions to back (classical backward validation
/// would re-reject the non-serializable-but-PWSR interleavings this
/// executor exists to commit).
#[derive(Default)]
struct OccStripe {
    db: DbState,
    /// Item → transaction currently holding an uncommitted write.
    dirty: std::collections::HashMap<ItemId, TxnId>,
}

/// One stripe plus its parking spot: waiters blocked on a dirty item
/// park on `cv` instead of spinning; every dirty-mark clear (commit or
/// rollback) broadcasts. The condvar is advisory for liveness only —
/// waiters use timed waits, so a (hypothetically) lost wakeup degrades
/// to the old polling behaviour rather than deadlocking.
#[derive(Default)]
struct OccStripeCell {
    state: Mutex<OccStripe>,
    cv: Condvar,
}

impl OccStripeCell {
    /// Run `clear` — something that takes dirty marks off — under the
    /// stripe latch, then wake the waiters parked on the stripe: the
    /// one way a mark is cleared, so no site can forget the wake-up.
    fn clear_marks<T>(&self, clear: impl FnOnce(&mut OccStripe) -> T) -> T {
        let out = clear(&mut self.state.lock());
        self.cv.notify_all();
        out
    }
}

/// Put back the value a write displaced (`None`: the item was unset).
fn put_back(stripe: &mut OccStripe, item: ItemId, old: Option<Value>) {
    match old {
        Some(v) => {
            stripe.db.set(item, v);
        }
        None => {
            stripe.db.unset(item);
        }
    }
}

/// The item-striped optimistic store behind [`run_threaded_occ_tuned`].
struct OccStripedDb {
    stripes: Vec<OccStripeCell>,
}

impl OccStripedDb {
    fn new(initial: &DbState, n: usize) -> OccStripedDb {
        let n = n.max(1);
        let stripes: Vec<OccStripeCell> = (0..n).map(|_| OccStripeCell::default()).collect();
        for (item, value) in initial.iter() {
            stripes[item.index() % n]
                .state
                .lock()
                .db
                .set(item, value.clone());
        }
        OccStripedDb { stripes }
    }

    fn stripe_of(&self, item: ItemId) -> usize {
        item.index() % self.stripes.len()
    }

    fn into_state(self) -> DbState {
        let mut out = DbState::new();
        for cell in self.stripes {
            for (item, value) in cell.state.into_inner().db.iter() {
                out.set(item, value.clone());
            }
        }
        out
    }
}

/// One worker's OCC counters: plain integers the worker owns, returns
/// from its thread and [`run_threaded_occ_tuned`] sums at the join into
/// [`Metrics`] — nothing shared, so counting costs no atomic and moves
/// no cache line between cores.
#[derive(Default)]
struct OccCounters {
    aborts: u64,
    retries: u64,
    certification_aborts: u64,
    undone_ops: u64,
    dirty_waits: u64,
    skipped_ops: u64,
    txn_timeouts: u64,
    zombie_reaps: u64,
    worker_panics: u64,
    batch_pushes: u64,
    batched_ops: u64,
    max_batch: u64,
}

impl OccCounters {
    /// One `push_batch` of `len` operations went to the monitor.
    fn pushed_batch(&mut self, len: usize) {
        self.batch_pushes += 1;
        self.batched_ops += len as u64;
        self.max_batch = self.max_batch.max(len as u64);
    }

    /// Fold another worker's counters in: sums, and the larger
    /// `max_batch`.
    fn absorb(&mut self, other: OccCounters) {
        self.aborts += other.aborts;
        self.retries += other.retries;
        self.certification_aborts += other.certification_aborts;
        self.undone_ops += other.undone_ops;
        self.dirty_waits += other.dirty_waits;
        self.skipped_ops += other.skipped_ops;
        self.txn_timeouts += other.txn_timeouts;
        self.zombie_reaps += other.zombie_reaps;
        self.worker_panics += other.worker_panics;
        self.batch_pushes += other.batch_pushes;
        self.batched_ops += other.batched_ops;
        self.max_batch = self.max_batch.max(other.max_batch);
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
    /// Roll back and retry: the access that broke the admission floor
    /// (certification abort), a bounded dirty-wait expired (conflict
    /// abort), or the attempt outlived its deadline (timeout — self-
    /// detected or discovered after a zombie reap).
    Aborted,
    /// The worker panicked mid-attempt and the panic was contained:
    /// the transaction's suffix is retracted, its writes rolled back,
    /// and it is **never retried** — the pool keeps committing without
    /// it.
    Died,
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
///
/// [`PushOutcome::breaches`]: pwsr_core::monitor::sharded::PushOutcome::breaches
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
    let monitor = monitor;
    let level = spec.level;
    let certificate = certificate_of(spec);
    let db = OccStripedDb::new(initial, 16);
    let next = AtomicUsize::new(0);
    let threads = threads.max(1);
    let side: Mutex<Vec<Operation>> = Mutex::new(Vec::new());
    // Committed-prefix compaction (MonitorSpec::compact_every). The
    // OCC monitor is *logged* (aborts retract), so the frontier is
    // gated by the undo-log floor: before compacting we checkpoint
    // past every transaction that may still abort. `live` starts as
    // the full workload and shrinks at each commit — a transaction
    // not yet claimed is conservatively live, so its future pushes
    // always land above any floor computed meanwhile.
    let compact_every = spec.compact_every;
    let commits = AtomicU64::new(0);
    let live: Mutex<std::collections::HashSet<TxnId>> =
        Mutex::new((0..programs.len()).map(|k| TxnId(k as u32 + 1)).collect());
    let registry = TxnRegistry::new(programs.len());
    let deadline =
        (tuning.txn_deadline_us > 0).then(|| Duration::from_micros(tuning.txn_deadline_us));

    let counters = std::thread::scope(|scope| -> Result<OccCounters> {
        let mut handles = Vec::new();
        for _ in 0..threads.min(programs.len().max(1)) {
            let (monitor, db, next, side) = (&monitor, &db, &next, &side);
            let (commits, live, registry) = (&commits, &live, &registry);
            handles.push(scope.spawn(move || -> Result<OccCounters> {
                let counters = RefCell::new(OccCounters::default());
                let ctx = OccCtx {
                    monitor,
                    db,
                    counters: &counters,
                    registry,
                    side,
                    certificate,
                    level,
                    tuning,
                    deadline,
                };
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(program) = programs.get(k) else {
                        return Ok(counters.take());
                    };
                    let txn = TxnId(k as u32 + 1);
                    let fast = ctx.fast_of(txn);
                    // Compiled once, here; every retry runs a fresh
                    // machine over the same code.
                    let mut session = ProgramSession::new(program, catalog, txn);
                    let mut restarts = 0u32;
                    loop {
                        match occ_attempt(&ctx, &mut session)? {
                            AttemptEnd::Committed => {
                                // An OCC commit is final — committed
                                // transactions are never resurrected —
                                // so it is safe to let the compaction
                                // frontier advance over this one.
                                if fast.is_none() {
                                    monitor.finish_txn(txn);
                                }
                                live.lock().remove(&txn);
                                if compact_every > 0 {
                                    let n = commits.fetch_add(1, Ordering::Relaxed) + 1;
                                    if n.is_multiple_of(compact_every) {
                                        let snapshot: Vec<TxnId> =
                                            live.lock().iter().copied().collect();
                                        monitor.checkpoint(snapshot);
                                        monitor.compact();
                                    }
                                }
                                break;
                            }
                            AttemptEnd::Aborted => {
                                restarts += 1;
                                if restarts > max_restarts {
                                    return Err(SchedError::RestartLimit { txn, restarts });
                                }
                                counters.borrow_mut().retries += 1;
                                // Asymmetric backoff: later transactions
                                // back off longer, so colliding retries
                                // separate even on a single core — capped
                                // so a long restart chain never degrades
                                // into unbounded yield storms.
                                for _ in 0..(restarts + txn.0 % 7).min(tuning.backoff_cap) {
                                    std::thread::yield_now();
                                }
                            }
                            AttemptEnd::Died => {
                                // Contained worker panic: the
                                // transaction's suffix is retracted and
                                // its writes rolled back — it is gone
                                // for good, never retried. Removing it
                                // from `live` lets the compaction
                                // frontier advance past its (absent)
                                // operations; deliberately no
                                // abort/retry counting (nothing will
                                // re-run), preserving `aborts ==
                                // retries` for the survivors.
                                live.lock().remove(&txn);
                                break;
                            }
                        }
                    }
                }
            }));
        }
        let mut total = OccCounters::default();
        for h in handles {
            total.absorb(h.join().map_err(|_| SchedError::Stalled)??);
        }
        Ok(total)
    })?;

    let (monitored, verdict) = monitor.into_parts();
    let schedule = splice_side_trace(monitored, side.into_inner())?;
    let mut metrics = Metrics {
        committed_ops: schedule.len() as u64,
        aborts: counters.aborts,
        restarts: counters.retries,
        occ_aborts: counters.aborts,
        occ_retries: counters.retries,
        monitor_rejections: counters.certification_aborts,
        monitor_undone_ops: counters.undone_ops,
        monitor_skipped_ops: counters.skipped_ops,
        waits: counters.dirty_waits,
        txn_timeouts: counters.txn_timeouts,
        zombie_reaps: counters.zombie_reaps,
        worker_panics: counters.worker_panics,
        batch_pushes: counters.batch_pushes,
        batched_ops: counters.batched_ops,
        max_batch: counters.max_batch,
        ..Metrics::default()
    };
    // When one `FaultPlan` instruments both the executor and the WAL,
    // `FaultPlan::injected` (read before the seal's sync, as ever) is
    // the authoritative total; with faults armed only beneath the WAL,
    // its stats carry the count.
    let planned = tuning.faults.as_ref().map(|faults| faults.injected());
    if let Some(wal) = &spec.wal {
        metrics.seal_wal(wal)?;
    }
    if let Some(planned) = planned {
        metrics.injected_faults = planned;
    }
    // The promise every per-push `breaches` check exists to keep,
    // checked once on the quiescent verdict: a run that committed
    // below its floor is a bug report, not a result.
    if !verdict.meets(level) {
        return Err(SchedError::FloorBreached {
            level,
            verdict,
            schedule: Box::new(schedule),
        });
    }
    Ok(OccThreadedOutcome {
        schedule,
        final_state: db.into_state(),
        verdict,
        metrics,
    })
}

/// Store rollback journal of one attempt: `(item, displaced value)`.
type WriteUndo = Vec<(ItemId, Option<Value>)>;

/// Lifecycle of one transaction's current attempt, as owner and
/// reaper see it through the slot mutex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// No attempt in flight (initial; also post-abort, between
    /// retries).
    Idle,
    /// An attempt is executing; `started` anchors its deadline.
    Running,
    /// A reaper aborted the attempt from outside. The owner discovers
    /// this at its next slot touch, compensates any in-flight access,
    /// and retries.
    Reaped,
    /// The transaction died to a contained panic; it never runs again.
    Dead,
    /// The attempt committed.
    Committed,
}

/// One transaction's shared attempt state. The store-undo journal
/// lives here — not on the worker's stack — precisely so a *reaper on
/// another thread* can roll the attempt back; the slot mutex is the
/// synchronization point between owner and reaper. Lock ordering:
/// slot → stripe/monitor, never the reverse (`with_clean_stripe`
/// drops its stripe guard before reaping, and no stripe action ever
/// touches a slot).
struct TxnSlot {
    state: SlotState,
    started: Instant,
    applied: WriteUndo,
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
                        state: SlotState::Idle,
                        started: Instant::now(),
                        applied: Vec::new(),
                    })
                })
                .collect(),
        }
    }

    fn slot(&self, txn: TxnId) -> &Mutex<TxnSlot> {
        &self.slots[txn.0 as usize - 1]
    }

    /// Open a fresh attempt: clear the undo journal, restart the
    /// deadline clock.
    fn begin(&self, txn: TxnId) {
        let mut slot = self.slot(txn).lock();
        slot.state = SlotState::Running;
        slot.started = Instant::now();
        slot.applied.clear();
    }
}

/// Everything one OCC worker needs, bundled — the attempt, abort, and
/// reap helpers otherwise drown in arguments.
struct OccCtx<'a> {
    monitor: &'a ShardedMonitor,
    db: &'a OccStripedDb,
    counters: &'a RefCell<OccCounters>,
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

/// Reap `victim` if its current attempt has outlived the deadline:
/// flip its slot to `Reaped` (the victim discovers this at its next
/// slot touch and aborts), retract its monitor suffix, then roll back
/// its registered store writes — retraction first, exactly as in a
/// self-abort, so reads-from assignments stay stable while the dirty
/// marks still stand.
///
/// The rollback does **not** drain the victim's undo journal: the
/// victim may have one access in flight that lands *after* this sweep,
/// and it needs the journal intact to compensate that access with the
/// attempt's original displaced value (see `occ_attempt_inner`).
fn try_reap(ctx: &OccCtx<'_>, victim: TxnId) -> bool {
    let Some(deadline) = ctx.deadline else {
        return false;
    };
    let mut slot = ctx.registry.slot(victim).lock();
    if !matches!(slot.state, SlotState::Running) || slot.started.elapsed() < deadline {
        return false;
    }
    slot.state = SlotState::Reaped;
    let fast = ctx.fast_of(victim);
    let undone = retract_attempt(ctx.monitor, fast, victim);
    ctx.counters.borrow_mut().undone_ops += undone as u64;
    for (item, old) in slot.applied.iter().rev() {
        ctx.db.stripes[ctx.db.stripe_of(*item)].clear_marks(|stripe| {
            put_back(stripe, *item, old.clone());
            stripe.dirty.remove(item);
        });
    }
    ctx.counters.borrow_mut().zombie_reaps += 1;
    true
}

/// Clean up after an errored or panicked attempt. If the attempt is
/// still `Running`, retract its suffix and roll back its writes; if a
/// reaper got there first, the shared state is already clean except
/// possibly one in-flight access whose recorded op the reaper's sweep
/// could not see — retract that residue. On the panic path
/// (`end_state == Dead`) a final stripe sweep clears any dirty mark
/// the dead transaction still owns: injected panics fire outside
/// mutation windows and never strand one, but an arbitrary
/// mid-mutation panic must not leave a mark that wedges every waiter
/// (it forfeits the displaced value — the price of containment for
/// panics the fault plane did not choreograph).
fn cleanup_attempt(
    ctx: &OccCtx<'_>,
    txn: TxnId,
    fast: Option<&Mutex<Vec<Operation>>>,
    end_state: SlotState,
) {
    {
        let mut slot = ctx.registry.slot(txn).lock();
        if matches!(slot.state, SlotState::Running) {
            let undone = retract_attempt(ctx.monitor, fast, txn);
            ctx.counters.borrow_mut().undone_ops += undone as u64;
            let mut applied = std::mem::take(&mut slot.applied);
            rollback_store(ctx.db, &mut applied);
        } else {
            let _ = retract_attempt(ctx.monitor, fast, txn);
        }
        slot.state = end_state;
    }
    if matches!(end_state, SlotState::Dead) {
        for cell in &ctx.db.stripes {
            cell.clear_marks(|stripe| stripe.dirty.retain(|_, w| *w != txn));
        }
    }
}

/// Squash an attempt's applied writes (newest first): restore the
/// displaced values and clear the dirty marks. Must run **after** the
/// monitor suffix is retracted — while the marks still stand, no
/// reader can record a read against either the doomed write or the
/// restored value, which is what keeps reads-from assignments stable
/// across the abort (a read admitted in between would be recorded
/// against the victim's write and then silently reassigned to the
/// earlier writer by the retraction's re-push, potentially minting a
/// delayed-read break no `PushOutcome` ever reported).
fn rollback_store(db: &OccStripedDb, applied: &mut WriteUndo) {
    for (item, old) in applied.drain(..).rev() {
        db.stripes[db.stripe_of(item)].clear_marks(|stripe| {
            put_back(stripe, item, old);
            stripe.dirty.remove(&item);
        });
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
    mut action: impl FnMut(&mut OccStripe) -> Result<T>,
) -> Result<Option<T>> {
    let (db, counters, tuning) = (ctx.db, ctx.counters, ctx.tuning);
    let cell = &db.stripes[db.stripe_of(item)];
    let clean = |stripe: &OccStripe| stripe.dirty.get(&item).is_none_or(|&w| w == txn);
    // Phase 1: spin fast path.
    let mut spins = 0u32;
    loop {
        {
            let mut stripe = cell.state.lock();
            if clean(&stripe) {
                return action(&mut stripe).map(Some);
            }
        }
        counters.borrow_mut().dirty_waits += 1;
        spins += 1;
        if spins >= tuning.dirty_spin {
            break;
        }
        std::thread::yield_now();
    }
    // Phase 2: park until the dirty mark clears (timed, bounded).
    let mut parks = 0u32;
    let mut stripe = cell.state.lock();
    loop {
        if clean(&stripe) {
            return action(&mut stripe).map(Some);
        }
        if ctx.deadline.is_some() {
            let holder = stripe.dirty.get(&item).copied();
            if let Some(victim) = holder.filter(|&v| v != txn) {
                drop(stripe);
                try_reap(ctx, victim);
                stripe = cell.state.lock();
                if clean(&stripe) {
                    continue;
                }
            }
        }
        if parks >= tuning.park_budget {
            return Ok(None);
        }
        parks += 1;
        counters.borrow_mut().dirty_waits += 1;
        let (guard, _timed_out) = cell
            .cv
            .wait_timeout(stripe, Duration::from_micros(tuning.park_timeout_us.max(1)));
        stripe = guard;
    }
}

/// Retract an attempt's recorded operations — from the monitor, or
/// from the certified side trace when the transaction runs on the
/// static fast path. Must run **before** [`rollback_store`] either
/// way: while the dirty marks still stand no reader can record a read
/// against the doomed writes, so reads-from assignments stay stable
/// across the abort.
fn retract_attempt(
    monitor: &ShardedMonitor,
    fast: Option<&Mutex<Vec<Operation>>>,
    txn: TxnId,
) -> usize {
    match fast {
        Some(side) => {
            let mut ops = side.lock();
            let before = ops.len();
            ops.retain(|o| o.txn != txn);
            before - ops.len()
        }
        None => {
            let (undone, _) = monitor
                .retract_txn(txn)
                .expect("an in-flight transaction is never summarized");
            undone
        }
    }
}

/// One speculative attempt of `txn`, with panic containment. On abort
/// — and on any error — the recorded suffix (monitor or side trace)
/// is retracted first and every store write then restored, so the
/// shared state is as if the attempt never ran (except the attempt's
/// waits and abort counters). A panic anywhere in the attempt
/// (injected or genuine) is caught here: the same cleanup runs, the
/// panic is counted ([`Metrics::worker_panics`]) and reported to
/// stderr, and the transaction ends [`AttemptEnd::Died`] — the pool
/// keeps committing without it.
fn occ_attempt(ctx: &OccCtx<'_>, session: &mut ProgramSession<'_>) -> Result<AttemptEnd> {
    let txn = session.txn();
    ctx.registry.begin(txn);
    let fast = ctx.fast_of(txn);
    match catch_unwind(AssertUnwindSafe(|| occ_attempt_inner(ctx, session, fast))) {
        Ok(end) => {
            if end.is_err() {
                // An error must not strand dirty marks: other workers
                // would spin out their whole wait/retry budget on them
                // before the error surfaces through the join.
                cleanup_attempt(ctx, txn, fast, SlotState::Idle);
            }
            end
        }
        Err(payload) => {
            cleanup_attempt(ctx, txn, fast, SlotState::Dead);
            ctx.counters.borrow_mut().worker_panics += 1;
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

/// Post-access fault actions, run once the access has registered but
/// *before* the breach check (a stall or panic choreographed "after
/// access k" must happen even when that access would also abort): a
/// stall sleeps with dirty marks held but no locks — the reaper's
/// prey — and a panic dies mid-transaction, containment's worst case.
fn apply_fault(fault: &Option<ExecFault>, txn: TxnId, access: u32) {
    match fault {
        Some(ExecFault::Stall { ms }) => std::thread::sleep(Duration::from_millis(*ms)),
        Some(ExecFault::Panic) => {
            panic!("injected worker panic ({txn}, access {access})");
        }
        _ => {}
    }
}

/// How a just-performed access relates to the attempt's slot state.
enum Registered {
    /// Attempt still running; the access is registered.
    Alive,
    /// A reaper declared the attempt dead while the access was in
    /// flight; `restore` is the value to put back if our dirty mark
    /// still stands (the attempt's *original* displaced value — not
    /// what this write displaced, which may have been our own earlier
    /// speculative value re-clobbered after the reaper's rollback).
    Dead { restore: Option<Value> },
}

fn occ_attempt_inner(
    ctx: &OccCtx<'_>,
    session: &mut ProgramSession<'_>,
    fast: Option<&Mutex<Vec<Operation>>>,
) -> Result<AttemptEnd> {
    let (monitor, counters, txn) = (ctx.monitor, ctx.counters, session.txn());
    // A retry starts the program over. (An attempt that gave up before
    // its first access left the machine where a fresh one stands.)
    if session.emitted() > 0 {
        session.restart();
    }

    // Abort this attempt: retract the recorded suffix, THEN squash the
    // store writes (see `rollback_store` / `retract_attempt` for why
    // this order is load-bearing) — all under the slot lock, so a
    // concurrent reaper cannot interleave. If a reaper already swept
    // the attempt, the shared state is clean and only the counters
    // need touching.
    let abort = |certification: bool| {
        let mut slot = ctx.registry.slot(txn).lock();
        if matches!(slot.state, SlotState::Running) {
            let undone = retract_attempt(monitor, fast, txn);
            counters.borrow_mut().undone_ops += undone as u64;
            let mut applied = std::mem::take(&mut slot.applied);
            rollback_store(ctx.db, &mut applied);
            slot.state = SlotState::Idle;
        }
        counters.borrow_mut().aborts += 1;
        if certification {
            counters.borrow_mut().certification_aborts += 1;
        }
    };

    // Abort because the attempt outlived its deadline (or a reaper
    // said so): a timeout is an abort with an extra counter.
    let timeout_abort = |already_swept: bool| {
        counters.borrow_mut().txn_timeouts += 1;
        if already_swept {
            counters.borrow_mut().aborts += 1;
        } else {
            abort(false);
        }
    };

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

    // Record one operation under the stripe latch. Fast path: append
    // to the side trace (same-item order still serialized by the
    // latch) and report "no breach" without consulting the monitor.
    // Monitored path: defer writes, batch-flush on reads; `Some`
    // carries every outcome the flush produced (breach = any
    // breaches).
    let record = |op: Operation,
                  deferred: &mut Vec<Operation>|
     -> Result<Option<Vec<pwsr_core::monitor::sharded::PushOutcome>>> {
        match fast {
            Some(side) => {
                side.lock().push(op);
                counters.borrow_mut().skipped_ops += 1;
                Ok(None)
            }
            None if op.is_write() => {
                deferred.push(op);
                Ok(None)
            }
            None => {
                deferred.push(op);
                let outcomes = monitor.push_batch(deferred)?;
                counters.borrow_mut().pushed_batch(deferred.len());
                deferred.clear();
                Ok(Some(outcomes))
            }
        }
    };

    let mut access: u32 = 0;
    loop {
        // Deadline bookkeeping before each access: discover a reap
        // (everything already rolled back), or self-abort an attempt
        // that outlived its own deadline. Either way the retry gets a
        // fresh clock.
        if ctx.deadline.is_some() {
            let (reaped, expired) = {
                let slot = ctx.registry.slot(txn).lock();
                (
                    matches!(slot.state, SlotState::Reaped),
                    matches!(slot.state, SlotState::Running)
                        && ctx.deadline.is_some_and(|d| slot.started.elapsed() > d),
                )
            };
            if reaped || expired {
                timeout_abort(reaped);
                return Ok(AttemptEnd::Aborted);
            }
        }
        let pending = session.pending()?;
        if matches!(pending, Pending::Done) {
            break;
        }
        // The fault point for this access, if the chaos plane armed
        // one. Consumed *inside* the stripe action — the moment the
        // access actually happens — so a point on an access the
        // attempt never performs (dirty-wait give-up first) survives
        // for the retry instead of being silently eaten.
        let mut fault: Option<ExecFault> = None;
        let fire = |fault: &mut Option<ExecFault>| {
            if fault.is_none() {
                *fault = ctx
                    .tuning
                    .faults
                    .as_ref()
                    .and_then(|f| f.fire_exec(txn.0, access));
            }
            matches!(fault, Some(ExecFault::PanicInStripe))
        };
        match pending {
            Pending::NeedRead(item) => {
                // Value and claimed position under one latch:
                // same-item accesses serialize through the stripe, so
                // the recorded schedule is read-coherent per item.
                let outcome = with_clean_stripe(ctx, txn, item, |stripe| {
                    if fire(&mut fault) {
                        panic!("injected panic under stripe latch ({txn}, access {access})");
                    }
                    let v = stripe.db.require(item)?.clone();
                    let op = session.feed_read(v)?;
                    record(op, &mut deferred)
                })?;
                let Some(outcome) = outcome else {
                    abort(false);
                    return Ok(AttemptEnd::Aborted);
                };
                // Post-access liveness: a reaper may have swept us
                // while the read was in flight — its retraction could
                // not see the op we just recorded, so remove that
                // residue ourselves (reads touch no store state).
                if ctx.deadline.is_some()
                    && !matches!(ctx.registry.slot(txn).lock().state, SlotState::Running)
                {
                    let _ = retract_attempt(monitor, fast, txn);
                    timeout_abort(true);
                    return Ok(AttemptEnd::Aborted);
                }
                apply_fault(&fault, txn, access);
                // A stall fault may have parked us long enough to be
                // reaped; the reaper saw the recorded op (it landed
                // before the fault), so its sweep was complete — exit
                // through the timeout path, not the breach check
                // (whose outcome predates the retraction).
                if ctx.deadline.is_some()
                    && !matches!(ctx.registry.slot(txn).lock().state, SlotState::Running)
                {
                    timeout_abort(true);
                    return Ok(AttemptEnd::Aborted);
                }
                if outcome.is_some_and(|os| os.iter().any(|o| o.breaches(ctx.level))) {
                    abort(true);
                    return Ok(AttemptEnd::Aborted);
                }
            }
            Pending::Write(op) => {
                let item = op.item;
                let res = with_clean_stripe(ctx, txn, item, |stripe| {
                    if fire(&mut fault) {
                        panic!("injected panic under stripe latch ({txn}, access {access})");
                    }
                    let old = stripe.db.set(item, op.value.clone());
                    stripe.dirty.insert(item, txn);
                    record(op.clone(), &mut deferred).map(|o| (old, o))
                })?;
                let Some((old, outcome)) = res else {
                    abort(false);
                    return Ok(AttemptEnd::Aborted);
                };
                // Register the write in the shared undo journal — or
                // learn that a reaper swept us while it was in flight.
                let registered = {
                    let mut slot = ctx.registry.slot(txn).lock();
                    if matches!(slot.state, SlotState::Running) {
                        slot.applied.push((item, old));
                        Registered::Alive
                    } else {
                        let restore = slot
                            .applied
                            .iter()
                            .find(|(i, _)| *i == item)
                            .map_or(old, |(_, first)| first.clone());
                        Registered::Dead { restore }
                    }
                };
                if let Registered::Dead { restore } = registered {
                    // Compensate the in-flight write: retract the op
                    // we just recorded, and undo the store write iff
                    // our dirty mark still stands (mark absent means
                    // the write landed before the reaper's sweep and
                    // was already rolled back).
                    let _ = retract_attempt(monitor, fast, txn);
                    ctx.db.stripes[ctx.db.stripe_of(item)].clear_marks(|stripe| {
                        if stripe.dirty.get(&item) == Some(&txn) {
                            put_back(stripe, item, restore);
                            stripe.dirty.remove(&item);
                        }
                    });
                    timeout_abort(true);
                    return Ok(AttemptEnd::Aborted);
                }
                session.advance_write()?;
                apply_fault(&fault, txn, access);
                // Same post-fault liveness re-check as the read arm:
                // a reap during the stall already rolled this write
                // back (it was registered in `applied` before the
                // fault), so the stale breach outcome must not be
                // consulted.
                if ctx.deadline.is_some()
                    && !matches!(ctx.registry.slot(txn).lock().state, SlotState::Running)
                {
                    timeout_abort(true);
                    return Ok(AttemptEnd::Aborted);
                }
                if outcome.is_some_and(|os| os.iter().any(|o| o.breaches(ctx.level))) {
                    abort(true);
                    return Ok(AttemptEnd::Aborted);
                }
            }
            Pending::Done => unreachable!("handled above"),
        }
        access += 1;
    }
    // Flush the deferred write tail before committing — under the
    // slot lock, so the flush is atomic against a reaper's sweep
    // (which takes the same lock): the flushed ops can never land
    // after a retraction. The dirty marks still stand, so the claimed
    // positions are indistinguishable from pushes at write time. A
    // breach discovered here aborts the attempt like any other (the
    // abort takes the slot lock itself, so flush and abort cannot
    // hold it together).
    let flushed = {
        let slot = ctx.registry.slot(txn).lock();
        if !matches!(slot.state, SlotState::Running) {
            None
        } else if deferred.is_empty() {
            Some(Vec::new())
        } else {
            let outcomes = monitor.push_batch(&deferred)?;
            counters.borrow_mut().pushed_batch(deferred.len());
            deferred.clear();
            Some(outcomes)
        }
    };
    let Some(outcomes) = flushed else {
        // Reaped before the tail could flush: everything already
        // rolled back (the unpushed tail never reached the monitor).
        timeout_abort(true);
        return Ok(AttemptEnd::Aborted);
    };
    if outcomes.iter().any(|o| o.breaches(ctx.level)) {
        abort(true);
        return Ok(AttemptEnd::Aborted);
    }
    // Commit: publish is already done — flip the slot to `Committed`
    // under its lock (a reap and a commit can race; the slot decides
    // the winner), then clear the dirty marks, waking parked waiters.
    let committed = {
        let mut slot = ctx.registry.slot(txn).lock();
        if matches!(slot.state, SlotState::Running) {
            slot.state = SlotState::Committed;
            Some(std::mem::take(&mut slot.applied))
        } else {
            None
        }
    };
    let Some(applied) = committed else {
        // Reaped at the finish line: everything rolled back; retry.
        timeout_abort(true);
        return Ok(AttemptEnd::Aborted);
    };
    for (item, _) in applied {
        ctx.db.stripes[ctx.db.stripe_of(item)].clear_marks(|stripe| stripe.dirty.remove(&item));
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
    use pwsr_core::constraint::IntegrityConstraint;
    use pwsr_core::ids::ItemId;
    use pwsr_core::monitor::OnlineMonitor;
    use pwsr_core::pwsr::is_pwsr;
    use pwsr_core::value::Value;
    use pwsr_tplang::parser::parse_program;

    fn scopes_of(ic: &IntegrityConstraint) -> Vec<ItemSet> {
        ic.conjuncts().iter().map(|c| c.items().clone()).collect()
    }

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
        for _ in 0..5 {
            let (schedule, final_state, verdict) =
                run_threaded_certified(&programs, &cat, &initial, &policy, scopes_of(&ic)).unwrap();
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
        let scopes = scopes_of(&ic);
        for _ in 0..5 {
            let (schedule, _, verdict) =
                run_threaded_certified(&programs, &cat, &initial, &policy, scopes.clone()).unwrap();
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
        let scopes = scopes_of(&ic);
        for _ in 0..10 {
            let (schedule, final_state, verdict) =
                run_threaded_certified(&programs, &cat, &initial, &policy, scopes.clone()).unwrap();
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
        let (schedule, _, verdict) =
            run_threaded_certified(&programs, &cat, &initial, &policy, scopes_of(&ic)).unwrap();
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
        let (schedule, final_state, verdict) =
            run_threaded_certified(&[], &cat, &initial, &PolicySpec::global_2pl(), Vec::new())
                .unwrap();
        assert!(schedule.is_empty());
        assert_eq!(final_state, initial);
        assert_eq!(verdict.len, 0);
        let out = run_threaded_occ_tuned(
            &[],
            &cat,
            &initial,
            &MonitorSpec::new(Vec::new(), AdmissionLevel::Pwsr),
            4,
            10,
            &OccTuning::default(),
        )
        .unwrap();
        assert!(out.schedule.is_empty());
        assert_eq!(out.final_state, initial);
        assert_eq!(out.metrics.occ_aborts, 0);
        let _ = ItemId(0);
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
        let scopes = scopes_of(&ic);
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
        let policy = PolicySpec::predicate_wise_2pl(&ic)
            .monitor_admission(&ic, AdmissionLevel::Pwsr)
            .certified(StaticCertificate::full(
                AdmissionLevel::Pwsr,
                programs.len(),
            ));
        let scopes = scopes_of(&ic);
        for _ in 0..5 {
            let (schedule, final_state, verdict) =
                run_threaded_certified(&programs, &cat, &initial, &policy, scopes.clone()).unwrap();
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
        let policy = PolicySpec::predicate_wise_2pl(&ic)
            .monitor_admission(&ic, AdmissionLevel::Pwsr)
            .certified(cert);
        let scopes = scopes_of(&ic);
        for _ in 0..5 {
            let (schedule, final_state, verdict) =
                run_threaded_certified(&programs, &cat, &initial, &policy, scopes.clone()).unwrap();
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
        let scopes = scopes_of(&ic);
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
        let scopes = scopes_of(&ic);
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
        let scopes = scopes_of(&ic);

        // Lock-based certified path: cadence carried by the policy.
        let policy = PolicySpec::predicate_wise_2pl(&ic)
            .monitor_admission(&ic, AdmissionLevel::Pwsr)
            .compacting(2);
        for _ in 0..5 {
            let (schedule, final_state, verdict) =
                run_threaded_certified(&hot, &cat, &initial, &policy, scopes.clone()).unwrap();
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

        // OCC certified path: cadence carried by the spec; the logged
        // monitor needs the checkpoint-then-compact pairing because
        // in-flight transactions may yet abort and retract.
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
