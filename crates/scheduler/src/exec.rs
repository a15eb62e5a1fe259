//! The deterministic discrete-event executor.
//!
//! Drives a set of transaction programs against one database under a
//! [`PolicySpec`]: each step, a seeded RNG picks a runnable transaction
//! and attempts its next operation (via
//! [`ProgramSession`]); lock
//! conflicts and delayed-read conflicts block; blocking triggers
//! waits-for deadlock detection; deadlock victims are aborted with
//! transitive *cascading* aborts (any transaction that read from an
//! aborted write), rolled back by trace filtering, and restarted after
//! a backoff. The output is the **committed** schedule — a valid
//! [`Schedule`] in the paper's sense — plus execution metrics.
//!
//! The executor is fully deterministic for a fixed seed, making every
//! experiment reproducible.

use crate::error::{Result, SchedError};
use crate::lock::{LockMode, LockTable, SpaceId};
use crate::metrics::Metrics;
use crate::plan::{access_plan, PlanMode};
use crate::policy::{MonitorAdmission, PolicySpec};
use pwsr_core::catalog::Catalog;
use pwsr_core::dag::OnlineAccessDag;
use pwsr_core::graph::DiGraph;
use pwsr_core::ids::{ItemId, OpIndex, TxnId};
use pwsr_core::op::{OpStruct, Operation};
use pwsr_core::schedule::Schedule;
use pwsr_core::state::DbState;
use pwsr_tplang::ast::Program;
use pwsr_tplang::session::{Pending, ProgramSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// How the executor deals with waits-for cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlockPolicy {
    /// Let transactions wait; detect cycles in the waits-for graph and
    /// abort a victim (default).
    Detect,
    /// *Wait-die* prevention: a requester may wait only for a younger
    /// holder; a younger requester dies (aborts itself) immediately.
    /// Timestamps survive restarts, so every transaction eventually
    /// becomes oldest and completes.
    WaitDie,
    /// *Wound-wait* prevention: an older requester wounds (aborts)
    /// younger holders; a younger requester waits.
    WoundWait,
}

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// RNG seed: same seed ⇒ identical execution.
    pub seed: u64,
    /// Step budget (livelock guard).
    pub max_steps: u64,
    /// Access-plan production (enables early release when the policy
    /// asks for it).
    pub plan_mode: PlanMode,
    /// Per-transaction restart cap (starvation guard).
    pub max_restarts: u32,
    /// Deadlock handling: detection or prevention.
    pub deadlock: DeadlockPolicy,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            seed: 0xC0FFEE,
            max_steps: 1_000_000,
            plan_mode: PlanMode::ExactIfFixed,
            max_restarts: 64,
            deadlock: DeadlockPolicy::Detect,
        }
    }
}

/// The result of one workload execution.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The committed schedule (aborted work removed).
    pub schedule: Schedule,
    /// The final database state.
    pub final_state: DbState,
    /// Counters.
    pub metrics: Metrics,
    /// Transactions permanently rejected by the runtime DAG guard
    /// (Theorem 3 admission); empty unless `PolicySpec::dag_guard`.
    pub rejected: Vec<TxnId>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Block {
    Lock {
        space: SpaceId,
        item: ItemId,
        mode: LockMode,
    },
    Dirty {
        writer: TxnId,
    },
}

struct TxnRt<'a> {
    txn: TxnId,
    session: ProgramSession<'a>,
    plan: Option<Vec<OpStruct>>,
    done: bool,
    blocked: Option<Block>,
    restarts: u32,
    backoff: u32,
}

/// Everything one execution reads and mutates. An abort touches all of
/// it — locks, trace, store, dirty map, admission, guard, the
/// transactions' own state — and can happen at any step, so the steps
/// are methods of this rather than functions over a dozen borrows.
struct Run<'a> {
    policy: &'a PolicySpec,
    cfg: &'a ExecConfig,
    initial: &'a DbState,
    rts: Vec<TxnRt<'a>>,
    locks: LockTable,
    db: DbState,
    trace: Vec<Operation>,
    dirty: HashMap<ItemId, TxnId>,
    metrics: Metrics,
    rejected: Vec<TxnId>,
    admission: Option<MonitorAdmission>,
    dag_guard: Option<DagGuard>,
}

/// Execute `programs` (program `k` runs as transaction `k+1`) from
/// `initial` under `policy`.
pub fn run_workload(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    policy: &PolicySpec,
    cfg: &ExecConfig,
) -> Result<ExecOutcome> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rts: Vec<TxnRt<'_>> = programs
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let txn = TxnId(k as u32 + 1);
            TxnRt {
                txn,
                session: ProgramSession::new(p, catalog, txn),
                plan: access_plan(p, catalog, cfg.plan_mode),
                done: false,
                blocked: None,
                restarts: 0,
                backoff: 0,
            }
        })
        .collect();
    let mut run = Run {
        policy,
        cfg,
        initial,
        rts,
        locks: LockTable::new(),
        db: initial.clone(),
        trace: Vec::new(),
        dirty: HashMap::new(),
        metrics: Metrics::default(),
        rejected: Vec::new(),
        admission: policy.monitor.as_ref().map(|m| m.admission()),
        dag_guard: policy.dag_guard.map(DagGuard::new),
    };

    loop {
        if run.rts.iter().all(|rt| rt.done) {
            break;
        }
        if run.metrics.steps >= cfg.max_steps {
            return Err(SchedError::StepBudgetExhausted {
                max_steps: cfg.max_steps,
                pending: run
                    .rts
                    .iter()
                    .filter(|rt| !rt.done)
                    .map(|rt| rt.txn)
                    .collect(),
            });
        }
        let runnable: Vec<usize> = run
            .rts
            .iter()
            .enumerate()
            .filter(|(_, rt)| !rt.done && rt.blocked.is_none() && rt.backoff == 0)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            // Let backoffs tick down first.
            let mut ticked = false;
            for rt in run.rts.iter_mut() {
                if rt.backoff > 0 {
                    rt.backoff -= 1;
                    ticked = true;
                }
            }
            if ticked {
                continue;
            }
            // Everyone live is blocked: there must be a cycle.
            if !run.resolve_deadlock()? {
                return Err(SchedError::Stalled);
            }
            continue;
        }
        let pick = runnable[rng.random_range(0..runnable.len())];
        run.metrics.steps += 1;
        run.step(pick)?;
        run.metrics.lock_acquisitions = run.locks.acquisitions();
        // Bound the admission log's memory: ops before every live
        // transaction's first operation can never be rewritten by an
        // abort, so their undo deltas are dropped. (A cascade that
        // aborts an already-finished transaction is the one case
        // `MonitorAdmission::retract` starts over for.)
        if let Some(mon) = run.admission.as_mut() {
            mon.checkpoint(run.rts.iter().filter(|rt| !rt.done).map(|rt| rt.txn));
        }
    }

    let Run {
        mut metrics,
        mut admission,
        trace,
        db,
        rejected,
        ..
    } = run;
    if let Some(mon) = admission.as_mut() {
        metrics.monitor_undone_ops = mon.undone_ops();
        metrics.monitor_log_floor = mon.log_floor() as u64;
        metrics.monitor_skipped_ops = mon.skipped_ops();
        if let Some(wal) = mon.wal() {
            // Make the tail durable before reporting: a crash after
            // this point loses nothing.
            wal.sync();
            let ws = wal.stats();
            metrics.wal_appends = ws.appends;
            metrics.wal_bytes = ws.bytes;
            metrics.wal_fsyncs = ws.fsyncs;
            metrics.wal_io_errors = ws.io_errors;
            metrics.injected_faults = ws.injected_faults;
        }
        // A sticky (unhealed) WAL error means durable history is
        // incomplete: refuse to report the run as successful. Healed
        // incidents (retry/degrade policies) pass through with only
        // `wal_io_errors` raised.
        if let Some(error) = mon.take_wal_error() {
            return Err(SchedError::WalFailed {
                error: error.to_string(),
            });
        }
    }
    metrics.committed_ops = trace.len() as u64;
    let schedule = Schedule::new(trace)?;
    Ok(ExecOutcome {
        schedule,
        final_state: db,
        metrics,
        rejected,
    })
}

/// The runtime Theorem-3 guard, incremental: the conjunct access
/// graph (`DAG(S, IC)` with lock spaces `0..l` as units) rides
/// [`OnlineAccessDag`] instead of being rebuilt from the trace on
/// every step — `O(new ops)` catch-up per step, a probe per intent,
/// and a full replay only after an abort rewrote the trace.
struct DagGuard {
    l: u32,
    dag: OnlineAccessDag,
    /// Transaction → dense entity slot for the access DAG.
    slots: HashMap<TxnId, usize>,
    /// Trace length already folded into the graph.
    synced: usize,
}

impl DagGuard {
    fn new(l: u32) -> DagGuard {
        DagGuard {
            l,
            dag: OnlineAccessDag::new(l as usize),
            slots: HashMap::new(),
            synced: 0,
        }
    }

    fn slot(&mut self, txn: TxnId) -> usize {
        let next = self.slots.len();
        *self.slots.entry(txn).or_insert(next)
    }

    /// An abort rewrote the trace: forget it all, so that the next
    /// [`sync`](Self::sync) folds the surviving trace from its start.
    fn aborted(&mut self) {
        self.dag.clear();
        self.slots.clear();
        self.synced = 0;
    }

    /// Fold trace growth into the graph.
    fn sync(&mut self, trace: &[Operation], policy: &PolicySpec) {
        for (k, op) in trace.iter().enumerate().skip(self.synced) {
            let sp = policy.space_of(op.item).0;
            if sp < self.l {
                let slot = self.slot(op.txn);
                self.dag.record(slot, sp, op.is_write(), OpIndex(k));
            }
        }
        self.synced = trace.len();
    }

    /// Would this access close a conjunct cycle? (Read-only in
    /// effect: the probe retracts its tentative edges.)
    fn rejects(&mut self, txn: TxnId, space: u32, is_write: bool) -> bool {
        let slot = self.slot(txn);
        !self.dag.admits(slot, space, is_write)
    }
}

/// Abort `victims` plus every transaction that (transitively) read one
/// of an aborted transaction's writes: tell the admission who — once,
/// as one set — drop their operations from the trace, and rebuild the
/// store by replaying what is left over `initial`. Returns the aborted
/// set — the one cascade every trace-filtering executor runs.
pub(crate) fn abort_with_dirty_readers(
    victims: &[TxnId],
    trace: &mut Vec<Operation>,
    initial: &DbState,
    db: &mut DbState,
    admission: Option<&mut MonitorAdmission>,
) -> Result<Vec<TxnId>> {
    // Transitive closure of dirty readers.
    let mut aborted = victims.to_vec();
    loop {
        let mut grew = false;
        for (i, op) in trace.iter().enumerate() {
            if !op.is_read() || aborted.contains(&op.txn) {
                continue;
            }
            let writer = trace[..i]
                .iter()
                .rev()
                .find(|w| w.is_write() && w.item == op.item)
                .map(|w| w.txn);
            if writer.is_some_and(|w| aborted.contains(&w)) {
                aborted.push(op.txn);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    if let Some(mon) = admission {
        mon.retract(&aborted)?;
    }
    // Roll back: drop aborted ops, replay the rest.
    trace.retain(|op| !aborted.contains(&op.txn));
    *db = initial.clone();
    for op in trace.iter().filter(|op| op.is_write()) {
        db.set(op.item, op.value.clone());
    }
    Ok(aborted)
}

impl Run<'_> {
    /// The access `pending` is about to make, if any.
    fn intent(pending: &Pending) -> Option<(ItemId, bool)> {
        match pending {
            Pending::NeedRead(item) => Some((*item, false)),
            Pending::Write(op) => Some((op.item, true)),
            Pending::Done => None,
        }
    }

    fn step(&mut self, pick: usize) -> Result<()> {
        let policy = self.policy;
        let txn = self.rts[pick].txn;
        let pending = self.rts[pick].session.pending()?;
        // Online verdict-monitor admission: reject (abort for restart)
        // an operation whose admission would sink the verdict below the
        // policy's configured level. The speculative test never
        // mutates. Statically-certified transactions take the zero-cost
        // fast path inside it: the certificate proves every
        // interleaving of their component safe.
        if let (Some(mon), Some((item, is_write))) = (&self.admission, Self::intent(&pending)) {
            if !mon.would_admit(txn, item, is_write) {
                self.metrics.monitor_rejections += 1;
                return self.abort_cascading(&[pick]);
            }
        }
        // Runtime Theorem-3 guard: refuse the access that would close a
        // conjunct cycle, rejecting the transaction outright (a retry
        // could never commit — committed edges persist in DAG(S, IC)).
        // Incremental: the guard folds trace growth into a live access
        // DAG and answers with a retracting probe — no per-step rebuild.
        if let Some(guard) = self.dag_guard.as_mut() {
            guard.sync(&self.trace, policy);
            if let Some((item, is_write)) = Self::intent(&pending) {
                let space = policy.space_of(item).0;
                if space < guard.l && guard.rejects(txn, space, is_write) {
                    self.abort_cascading(&[pick])?;
                    self.rts[pick].done = true;
                    self.rejected.push(txn);
                    return Ok(());
                }
            }
        }
        match pending {
            Pending::Done => {
                // Commit: release everything, clean the dirty map.
                self.locks.release_all(txn);
                self.dirty.retain(|_, w| *w != txn);
                self.rts[pick].done = true;
                self.clear_blocks();
                Ok(())
            }
            Pending::NeedRead(item) => {
                if policy.dr_block {
                    if let Some(&writer) = self.dirty.get(&item) {
                        if writer != txn {
                            return self.block(pick, Block::Dirty { writer });
                        }
                    }
                }
                let (space, mode) = (policy.space_of(item), LockMode::Shared);
                if self.locks.try_acquire(txn, space, item, mode).is_err() {
                    return self.block(pick, Block::Lock { space, item, mode });
                }
                let value = self.db.require(item)?.clone();
                let op = self.rts[pick].session.feed_read(value)?;
                self.record(pick, op);
                Ok(())
            }
            Pending::Write(op) => {
                let (space, item, mode) = (policy.space_of(op.item), op.item, LockMode::Exclusive);
                if self.locks.try_acquire(txn, space, item, mode).is_err() {
                    return self.block(pick, Block::Lock { space, item, mode });
                }
                self.db.set(item, op.value.clone());
                self.dirty.insert(item, txn);
                self.rts[pick].session.advance_write()?;
                self.record(pick, op);
                Ok(())
            }
        }
    }

    /// `pick` performed `op`: show it to the admission, append it to the
    /// trace, and release early what the access plan allows.
    fn record(&mut self, pick: usize, op: Operation) {
        if let Some(mon) = self.admission.as_mut() {
            mon.observe(&op);
        }
        self.trace.push(op);
        self.after_op(pick);
    }

    /// Post-operation hooks: early per-space lock release driven by the
    /// access plan.
    fn after_op(&mut self, pick: usize) {
        let policy = self.policy;
        if !policy.early_release {
            return;
        }
        let rt = &mut self.rts[pick];
        let Some(plan) = &rt.plan else {
            return; // no plan ⇒ hold to end
        };
        let emitted = rt.session.emitted();
        if emitted > plan.len() {
            // Plan deviation (defensive; cannot happen for certified
            // fixed-structure programs): disable early release.
            rt.plan = None;
            return;
        }
        let remaining_spaces: BTreeSet<SpaceId> = plan[emitted..]
            .iter()
            .map(|o| policy.space_of(o.item))
            .collect();
        let txn = rt.txn;
        let mut released = false;
        for space in self.locks.spaces_held(txn) {
            if !remaining_spaces.contains(&space) {
                self.locks.release_space(txn, space);
                released = true;
            }
        }
        if released {
            self.clear_blocks();
        }
    }

    fn block(&mut self, pick: usize, why: Block) -> Result<()> {
        self.metrics.waits += 1;
        let rts = &self.rts;
        // Who stands in the way right now?
        let index: HashMap<TxnId, usize> =
            rts.iter().enumerate().map(|(i, rt)| (rt.txn, i)).collect();
        let opponents: Vec<usize> = match &why {
            Block::Lock { space, item, mode } => self
                .locks
                .conflicting_holders(rts[pick].txn, *space, *item, *mode)
                .into_iter()
                .filter_map(|t| index.get(&t).copied())
                .filter(|&j| !rts[j].done)
                .collect(),
            Block::Dirty { writer } => index
                .get(writer)
                .copied()
                .filter(|&j| !rts[j].done)
                .into_iter()
                .collect(),
        };
        match self.cfg.deadlock {
            DeadlockPolicy::Detect => {
                self.rts[pick].blocked = Some(why);
                // A new edge appeared: look for a cycle right away.
                self.resolve_deadlock()?;
            }
            DeadlockPolicy::WaitDie => {
                // Wait only for younger opponents (requester older = smaller
                // timestamp); otherwise die. Timestamps = original TxnId,
                // stable across restarts.
                let me = rts[pick].txn;
                if opponents.iter().all(|&j| me < rts[j].txn) {
                    self.rts[pick].blocked = Some(why);
                } else {
                    // Prevention: the requester dies; no cycle can ever form.
                    self.abort_cascading(&[pick])?;
                }
            }
            DeadlockPolicy::WoundWait => {
                let me = rts[pick].txn;
                let younger: Vec<usize> = opponents
                    .iter()
                    .copied()
                    .filter(|&j| me < rts[j].txn)
                    .collect();
                if younger.is_empty() {
                    // All opponents are older: wait politely.
                    self.rts[pick].blocked = Some(why);
                } else {
                    // Wound every younger holder — as one set, so that
                    // the admission retracts once and each survivor is
                    // re-pushed once; retry the operation on a later step.
                    self.abort_cascading(&younger)?;
                }
            }
        }
        Ok(())
    }

    /// Build the waits-for graph from the current blocks and resolve one
    /// cycle if present. Returns whether a cycle was resolved.
    fn resolve_deadlock(&mut self) -> Result<bool> {
        let rts = &self.rts;
        let index: HashMap<TxnId, usize> =
            rts.iter().enumerate().map(|(i, rt)| (rt.txn, i)).collect();
        let mut graph = DiGraph::new(rts.len());
        for (i, rt) in rts.iter().enumerate() {
            let holders = match &rt.blocked {
                Some(Block::Lock { space, item, mode }) => {
                    self.locks.conflicting_holders(rt.txn, *space, *item, *mode)
                }
                Some(Block::Dirty { writer }) => vec![*writer],
                None => Vec::new(),
            };
            for j in holders.iter().filter_map(|holder| index.get(holder)) {
                if !rts[*j].done {
                    graph.add_edge(i, *j);
                }
            }
        }
        let Some(cycle) = graph.find_cycle() else {
            return Ok(false);
        };
        self.metrics.deadlocks += 1;
        // Victim: the cycle member with the fewest emitted operations
        // (cheapest to redo); ties broken by the larger transaction id.
        let &victim = cycle
            .iter()
            .min_by_key(|&&i| (rts[i].session.emitted(), std::cmp::Reverse(rts[i].txn)))
            .expect("cycles are non-empty");
        self.abort_cascading(&[victim])?;
        Ok(true)
    }

    /// Abort `victims` and their dirty readers ([`abort_with_dirty_readers`]
    /// rolls trace, store and admission back, once for the whole set),
    /// then restart the aborted transactions with backoff.
    fn abort_cascading(&mut self, victims: &[usize]) -> Result<()> {
        let victims: Vec<TxnId> = victims.iter().map(|&i| self.rts[i].txn).collect();
        let aborted = abort_with_dirty_readers(
            &victims,
            &mut self.trace,
            self.initial,
            &mut self.db,
            self.admission.as_mut(),
        )?;
        if let Some(guard) = self.dag_guard.as_mut() {
            guard.aborted();
        }
        // Rebuild the dirty map from the filtered trace.
        self.dirty.clear();
        let done: BTreeSet<TxnId> = self
            .rts
            .iter()
            .filter(|rt| rt.done)
            .map(|rt| rt.txn)
            .collect();
        for op in self.trace.iter().filter(|op| op.is_write()) {
            if done.contains(&op.txn) {
                self.dirty.remove(&op.item);
            } else {
                self.dirty.insert(op.item, op.txn);
            }
        }
        // Reset the aborted transactions.
        self.metrics.aborts += aborted.len() as u64;
        for rt in self.rts.iter_mut().filter(|rt| aborted.contains(&rt.txn)) {
            self.locks.release_all(rt.txn);
            rt.session.restart();
            rt.restarts += 1;
            self.metrics.restarts += 1;
            if rt.restarts > self.cfg.max_restarts {
                return Err(SchedError::RestartLimit {
                    txn: rt.txn,
                    restarts: rt.restarts,
                });
            }
            rt.backoff = rt.restarts;
            rt.blocked = None;
            rt.done = false;
        }
        self.clear_blocks();
        Ok(())
    }

    /// Unblock everyone: blocks are re-derived on the next attempt. Cheap
    /// revalidation after any lock/dirty state change.
    fn clear_blocks(&mut self) {
        for rt in self.rts.iter_mut() {
            rt.blocked = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
    use pwsr_core::pwsr::is_pwsr;
    use pwsr_core::serializability::is_conflict_serializable;
    use pwsr_core::value::{Domain, Value};
    use pwsr_tplang::parser::parse_program;

    /// Two conjuncts: C0 over {a0, b0}, C1 over {a1, b1}.
    fn setup() -> (Catalog, IntegrityConstraint, DbState) {
        let mut cat = Catalog::new();
        let a0 = cat.add_item("a0", Domain::int_range(-100, 100));
        let b0 = cat.add_item("b0", Domain::int_range(-100, 100));
        let a1 = cat.add_item("a1", Domain::int_range(-100, 100));
        let b1 = cat.add_item("b1", Domain::int_range(-100, 100));
        let ic = IntegrityConstraint::new(vec![
            Conjunct::new(0, Formula::le(Term::var(a0), Term::var(b0))),
            Conjunct::new(1, Formula::le(Term::var(a1), Term::var(b1))),
        ])
        .unwrap();
        let initial = DbState::from_pairs([
            (a0, Value::Int(0)),
            (b0, Value::Int(10)),
            (a1, Value::Int(0)),
            (b1, Value::Int(10)),
        ]);
        (cat, ic, initial)
    }

    fn cross_conjunct_programs() -> Vec<Program> {
        vec![
            parse_program("T1", "a0 := a0 + 1; a1 := a1 + 1;").unwrap(),
            parse_program("T2", "b1 := b1 + 1; b0 := b0 + 1;").unwrap(),
            parse_program("T3", "a0 := a0 + 2;").unwrap(),
        ]
    }

    #[test]
    fn global_2pl_produces_serializable_schedules() {
        let (cat, _ic, initial) = setup();
        let programs = cross_conjunct_programs();
        for seed in 0..20 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out =
                run_workload(&programs, &cat, &initial, &PolicySpec::global_2pl(), &cfg).unwrap();
            assert!(
                is_conflict_serializable(&out.schedule),
                "seed {seed}: {}",
                out.schedule
            );
            out.schedule.check_read_coherence(&initial).unwrap();
        }
    }

    #[test]
    fn pw_2pl_produces_pwsr_schedules() {
        let (cat, ic, initial) = setup();
        let programs = cross_conjunct_programs();
        for seed in 0..20 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let policy = PolicySpec::predicate_wise_2pl_early(&ic);
            let out = run_workload(&programs, &cat, &initial, &policy, &cfg).unwrap();
            assert!(is_pwsr(&out.schedule, &ic).ok(), "seed {seed}");
            out.schedule.check_read_coherence(&initial).unwrap();
        }
    }

    #[test]
    fn final_state_accumulates_all_writes() {
        let (cat, _ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a0 := a0 + 1;").unwrap(),
            parse_program("T2", "a0 := a0 + 1;").unwrap(),
        ];
        let out = run_workload(
            &programs,
            &cat,
            &initial,
            &PolicySpec::global_2pl(),
            &ExecConfig::default(),
        )
        .unwrap();
        // Both increments applied (lost updates prevented by locking).
        assert_eq!(
            out.final_state.get(cat.lookup("a0").unwrap()),
            Some(&Value::Int(2))
        );
        assert_eq!(out.metrics.committed_ops, 4);
    }

    #[test]
    fn deadlock_detected_and_resolved() {
        // Opposite lock orders on x and y force a deadlock for some
        // schedule draws; the run must nonetheless complete.
        let mut cat = Catalog::new();
        cat.add_item("x", Domain::int_range(-100, 100));
        cat.add_item("y", Domain::int_range(-100, 100));
        let initial = DbState::from_pairs([
            (cat.lookup("x").unwrap(), Value::Int(0)),
            (cat.lookup("y").unwrap(), Value::Int(0)),
        ]);
        let programs = vec![
            parse_program("T1", "x := x + 1; y := y + 1;").unwrap(),
            parse_program("T2", "y := y + 10; x := x + 10;").unwrap(),
        ];
        let mut saw_deadlock = false;
        for seed in 0..40 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out =
                run_workload(&programs, &cat, &initial, &PolicySpec::global_2pl(), &cfg).unwrap();
            saw_deadlock |= out.metrics.deadlocks > 0;
            // Both increments survive restarts: x = y = 11 always.
            assert_eq!(
                out.final_state.get(cat.lookup("x").unwrap()),
                Some(&Value::Int(11)),
                "seed {seed}"
            );
            assert_eq!(
                out.final_state.get(cat.lookup("y").unwrap()),
                Some(&Value::Int(11))
            );
            assert!(is_conflict_serializable(&out.schedule));
            out.schedule.check_read_coherence(&initial).unwrap();
        }
        assert!(saw_deadlock, "expected at least one seed to deadlock");
    }

    #[test]
    fn early_release_never_waits_more_than_hold_to_end() {
        let (cat, ic, initial) = setup();
        // A long transaction touching both conjuncts, plus short ones
        // contending on each conjunct.
        let programs = vec![
            parse_program(
                "LONG",
                "a0 := a0 + 1; b0 := b0 + 1; a1 := a1 + 1; b1 := b1 + 1;",
            )
            .unwrap(),
            parse_program("S0", "a0 := a0 + 1;").unwrap(),
            parse_program("S1", "a1 := a1 + 1;").unwrap(),
        ];
        let mut hold_waits = 0u64;
        let mut early_waits = 0u64;
        for seed in 0..30 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let hold = run_workload(
                &programs,
                &cat,
                &initial,
                &PolicySpec::predicate_wise_2pl(&ic),
                &cfg,
            )
            .unwrap();
            let early = run_workload(
                &programs,
                &cat,
                &initial,
                &PolicySpec::predicate_wise_2pl_early(&ic),
                &cfg,
            )
            .unwrap();
            hold_waits += hold.metrics.waits;
            early_waits += early.metrics.waits;
            assert!(is_pwsr(&early.schedule, &ic).ok());
        }
        assert!(
            early_waits <= hold_waits,
            "early release should not increase waiting ({early_waits} vs {hold_waits})"
        );
    }

    #[test]
    fn dr_blocking_yields_delayed_read_schedules() {
        let (cat, ic, initial) = setup();
        let programs = cross_conjunct_programs();
        for seed in 0..20 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let policy = PolicySpec::predicate_wise_2pl_early(&ic).dr_blocking();
            let out = run_workload(&programs, &cat, &initial, &policy, &cfg).unwrap();
            assert!(
                pwsr_core::dr::is_delayed_read(&out.schedule),
                "seed {seed}: {}",
                out.schedule
            );
        }
    }

    #[test]
    fn hold_to_end_pw2pl_is_dr_by_construction() {
        let (cat, ic, initial) = setup();
        let programs = cross_conjunct_programs();
        for seed in 0..10 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out = run_workload(
                &programs,
                &cat,
                &initial,
                &PolicySpec::predicate_wise_2pl(&ic),
                &cfg,
            )
            .unwrap();
            assert!(pwsr_core::dr::is_delayed_read(&out.schedule));
        }
    }

    #[test]
    fn determinism_per_seed() {
        let (cat, ic, initial) = setup();
        let programs = cross_conjunct_programs();
        let cfg = ExecConfig {
            seed: 42,
            ..ExecConfig::default()
        };
        let policy = PolicySpec::predicate_wise_2pl_early(&ic);
        let a = run_workload(&programs, &cat, &initial, &policy, &cfg).unwrap();
        let b = run_workload(&programs, &cat, &initial, &policy, &cfg).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn empty_workload() {
        let (cat, _ic, initial) = setup();
        let out = run_workload(
            &[],
            &cat,
            &initial,
            &PolicySpec::global_2pl(),
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(out.schedule.is_empty());
        assert_eq!(out.final_state, initial);
    }

    #[test]
    fn prevention_policies_complete_deadlock_prone_workloads() {
        // The opposite-lock-order workload that deadlocks under
        // detection must also complete under wait-die and wound-wait,
        // with zero detected cycles (prevention forbids them).
        let mut cat = Catalog::new();
        cat.add_item("x", Domain::int_range(-100, 100));
        cat.add_item("y", Domain::int_range(-100, 100));
        let initial = DbState::from_pairs([
            (cat.lookup("x").unwrap(), Value::Int(0)),
            (cat.lookup("y").unwrap(), Value::Int(0)),
        ]);
        let programs = vec![
            parse_program("T1", "x := x + 1; y := y + 1;").unwrap(),
            parse_program("T2", "y := y + 10; x := x + 10;").unwrap(),
            parse_program("T3", "x := x + 100; y := y + 100;").unwrap(),
        ];
        for policy in [DeadlockPolicy::WaitDie, DeadlockPolicy::WoundWait] {
            let mut restarts = 0;
            for seed in 0..30 {
                let cfg = ExecConfig {
                    seed,
                    deadlock: policy,
                    ..ExecConfig::default()
                };
                let out = run_workload(&programs, &cat, &initial, &PolicySpec::global_2pl(), &cfg)
                    .unwrap();
                assert_eq!(
                    out.metrics.deadlocks, 0,
                    "{policy:?} must not detect cycles"
                );
                restarts += out.metrics.restarts;
                assert_eq!(
                    out.final_state.get(cat.lookup("x").unwrap()),
                    Some(&Value::Int(111)),
                    "{policy:?} seed {seed}"
                );
                assert_eq!(
                    out.final_state.get(cat.lookup("y").unwrap()),
                    Some(&Value::Int(111))
                );
                assert!(is_conflict_serializable(&out.schedule));
                out.schedule.check_read_coherence(&initial).unwrap();
            }
            assert!(restarts > 0, "{policy:?}: contention should cause restarts");
        }
    }

    #[test]
    fn dag_guard_rejects_cyclic_access_and_stays_correct() {
        // The Example-2 program pair accesses the two conjuncts in a
        // cyclic pattern; under the guarded policy one of the pair is
        // rejected and the committed schedule always has an acyclic
        // DAG (and, per Theorem 3, stays strongly correct).
        use pwsr_core::dag::data_access_graph;
        use pwsr_core::solver::Solver;
        use pwsr_core::strong::check_strong_correctness;
        use pwsr_tplang::programs::example2;
        let sc = example2();
        let policy = PolicySpec::predicate_wise_2pl_early(&sc.ic).dag_guarded(&sc.ic);
        let solver = Solver::new(&sc.catalog, &sc.ic);
        let mut rejections = 0u32;
        for seed in 0..30 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out = run_workload(&sc.programs, &sc.catalog, &sc.initial, &policy, &cfg).unwrap();
            let dag = data_access_graph(&out.schedule, &sc.ic);
            assert!(
                dag.is_acyclic(),
                "seed {seed}: guard must keep the DAG acyclic"
            );
            assert!(is_pwsr(&out.schedule, &sc.ic).ok());
            let report = check_strong_correctness(&out.schedule, &solver, &sc.initial);
            assert!(report.ok(), "seed {seed}: {report:?}");
            rejections += out.rejected.len() as u32;
        }
        assert!(rejections > 0, "the cyclic pair must trigger rejections");
    }

    #[test]
    fn dag_guard_admits_acyclic_mixes_untouched() {
        use pwsr_tplang::programs::example2;
        let sc = example2();
        // Both programs read conjunct 0 and write conjunct 1 only.
        let mix = vec![
            parse_program("P1", "c := max(a, 1);").unwrap(),
            parse_program("P2", "c := abs(b) + 1;").unwrap(),
        ];
        let policy = PolicySpec::predicate_wise_2pl_early(&sc.ic).dag_guarded(&sc.ic);
        for seed in 0..20 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out = run_workload(&mix, &sc.catalog, &sc.initial, &policy, &cfg).unwrap();
            assert!(out.rejected.is_empty(), "seed {seed}");
            assert_eq!(out.schedule.txn_ids().len(), 2);
        }
    }

    #[test]
    fn monitor_admission_keeps_weak_policies_serializable() {
        // Per-item lock spaces with early release are NOT two-phase
        // globally: anomalies commit. The online monitor at level
        // Serializable is then the only guard — it must reject the
        // cycle-closing operations and keep every committed schedule
        // conflict-serializable.
        use pwsr_core::monitor::AdmissionLevel;
        let (cat, ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a0 := b0 + 1;").unwrap(),
            parse_program("T2", "b0 := a0 + 1;").unwrap(),
            parse_program("T3", "a0 := a0 + 1;").unwrap(),
        ];
        let weak = || {
            let mut p = PolicySpec::from_table("item-2PL", HashMap::new(), 0);
            p.early_release = true;
            p
        };
        let mut anomalies = 0u64;
        let mut rejections = 0u64;
        for seed in 0..30 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out = run_workload(&programs, &cat, &initial, &weak(), &cfg).unwrap();
            anomalies += u64::from(!is_conflict_serializable(&out.schedule));
            let guarded = weak().monitor_admission(&ic, AdmissionLevel::Serializable);
            let out = run_workload(&programs, &cat, &initial, &guarded, &cfg).unwrap();
            assert!(
                is_conflict_serializable(&out.schedule),
                "seed {seed}: {}",
                out.schedule
            );
            out.schedule.check_read_coherence(&initial).unwrap();
            rejections += out.metrics.monitor_rejections;
        }
        assert!(anomalies > 0, "the weak policy must exhibit anomalies");
        assert!(rejections > 0, "the monitor must have intervened");
    }

    #[test]
    fn monitor_admission_is_transparent_under_hold_to_end_pw_2pl() {
        // Hold-to-end PW-2PL already commits PWSR + DR schedules: the
        // live certifier rides along without a single rejection.
        use pwsr_core::monitor::AdmissionLevel;
        let (cat, ic, initial) = setup();
        let programs = cross_conjunct_programs();
        for seed in 0..15 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let policy =
                PolicySpec::predicate_wise_2pl(&ic).monitor_admission(&ic, AdmissionLevel::PwsrDr);
            let out = run_workload(&programs, &cat, &initial, &policy, &cfg).unwrap();
            assert_eq!(out.metrics.monitor_rejections, 0, "seed {seed}");
            assert!(is_pwsr(&out.schedule, &ic).ok());
            assert!(pwsr_core::dr::is_delayed_read(&out.schedule));
        }
    }

    #[test]
    fn monitor_admission_enforces_dr_with_early_release() {
        // PW-2PL-early can commit non-DR schedules; the PwsrDr floor
        // must forbid them while keeping the workload completable.
        use pwsr_core::monitor::AdmissionLevel;
        let (cat, ic, initial) = setup();
        let programs = cross_conjunct_programs();
        for seed in 0..15 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let policy = PolicySpec::predicate_wise_2pl_early(&ic)
                .monitor_admission(&ic, AdmissionLevel::PwsrDr);
            let out = run_workload(&programs, &cat, &initial, &policy, &cfg).unwrap();
            assert!(
                pwsr_core::dr::is_delayed_read(&out.schedule),
                "seed {seed}: {}",
                out.schedule
            );
            assert!(is_pwsr(&out.schedule, &ic).ok());
        }
    }

    /// A static certificate turns monitor admission into a no-op for
    /// covered transactions: identical committed outcomes, zero
    /// rejections, and `monitor_skipped_ops` accounting for every
    /// certified operation — the zero-cost fast path, end to end
    /// through the discrete-event executor.
    #[test]
    fn monitor_admission_certificate_is_transparent_and_skips() {
        use crate::policy::StaticCertificate;
        use pwsr_core::monitor::AdmissionLevel;
        let (cat, ic, initial) = setup();
        let programs = cross_conjunct_programs();
        for seed in 0..15 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let monitored =
                PolicySpec::predicate_wise_2pl(&ic).monitor_admission(&ic, AdmissionLevel::Pwsr);
            let certified = monitored.clone().certified(StaticCertificate::full(
                AdmissionLevel::Pwsr,
                programs.len(),
            ));
            let base = run_workload(&programs, &cat, &initial, &monitored, &cfg).unwrap();
            let fast = run_workload(&programs, &cat, &initial, &certified, &cfg).unwrap();
            // Same deterministic interleaving, same commits — the
            // certificate changes cost, not behaviour (PW-2PL already
            // commits only PWSR schedules, so skipping is sound here).
            assert_eq!(base.schedule, fast.schedule, "seed {seed}");
            assert_eq!(base.final_state, fast.final_state);
            assert_eq!(fast.metrics.monitor_rejections, 0);
            assert_eq!(base.metrics.monitor_skipped_ops, 0);
            // Every committed op rode the fast path (aborted attempts
            // may have skipped a few more before their trace rewrite).
            assert!(
                fast.metrics.monitor_skipped_ops >= fast.metrics.committed_ops,
                "seed {seed}: {} < {}",
                fast.metrics.monitor_skipped_ops,
                fast.metrics.committed_ops
            );
            assert!(is_pwsr(&fast.schedule, &ic).ok());
        }
    }

    #[test]
    fn wound_wait_favors_elders() {
        // Under wound-wait, the oldest transaction is never aborted.
        let mut cat = Catalog::new();
        cat.add_item("x", Domain::int_range(-100, 100));
        cat.add_item("y", Domain::int_range(-100, 100));
        let initial = DbState::from_pairs([
            (cat.lookup("x").unwrap(), Value::Int(0)),
            (cat.lookup("y").unwrap(), Value::Int(0)),
        ]);
        let programs = vec![
            parse_program("OLD", "x := x + 1; y := y + 1;").unwrap(),
            parse_program("YOUNG", "y := y + 10; x := x + 10;").unwrap(),
        ];
        for seed in 0..30 {
            let cfg = ExecConfig {
                seed,
                deadlock: DeadlockPolicy::WoundWait,
                ..ExecConfig::default()
            };
            let out =
                run_workload(&programs, &cat, &initial, &PolicySpec::global_2pl(), &cfg).unwrap();
            // Both effects present; T1 (older) may wound T2 but both
            // finish.
            assert_eq!(
                out.final_state.get(cat.lookup("x").unwrap()),
                Some(&Value::Int(11))
            );
        }
    }

    /// One elder, one step, two wounded: T1's write of `a0` meets the
    /// shared locks of the younger T2 and T3, and the admission hears
    /// of both at once. The cost is a single set retraction's — the two
    /// reads come off and nothing is pushed again — where one
    /// retraction per victim took three operations off (T3's read went
    /// back in after T2's and came off again). Same committed schedule
    /// either way: these are the ones the per-victim loop committed.
    #[test]
    fn wound_wait_retracts_its_victims_as_one_set() {
        use pwsr_core::monitor::AdmissionLevel;
        let (cat, ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a0 := 7;").unwrap(),
            parse_program("T2", "b0 := a0;").unwrap(),
            parse_program("T3", "b1 := a0;").unwrap(),
        ];
        let a0 = cat.lookup("a0").unwrap();
        let mut model = MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr);
        model.observe(&Operation::read(TxnId(2), a0, Value::Int(0)));
        model.observe(&Operation::read(TxnId(3), a0, Value::Int(0)));
        let (set_cost, repushed) = model.retract(&[TxnId(2), TxnId(3)]).unwrap();
        assert_eq!((set_cost, repushed), (2, 0));
        for (seed, committed) in [
            (2, "w1(a0, 7) r3(a0, 7) r2(a0, 7) w3(b1, 7) w2(b0, 7)"),
            (10, "w1(a0, 7) r2(a0, 7) r3(a0, 7) w3(b1, 7) w2(b0, 7)"),
        ] {
            let cfg = ExecConfig {
                seed,
                deadlock: DeadlockPolicy::WoundWait,
                ..ExecConfig::default()
            };
            let policy =
                PolicySpec::predicate_wise_2pl(&ic).monitor_admission(&ic, AdmissionLevel::Pwsr);
            let out = run_workload(&programs, &cat, &initial, &policy, &cfg).unwrap();
            // One block, both holders wounded in it, nobody twice.
            let m = &out.metrics;
            assert_eq!((m.waits, m.aborts, m.restarts), (1, 2, 2), "seed {seed}");
            assert_eq!(m.monitor_undone_ops, set_cost as u64, "seed {seed}");
            let shown: Vec<String> = out.schedule.ops().iter().map(|o| o.display(&cat)).collect();
            assert_eq!(shown.join(" "), committed, "seed {seed}");
        }
    }
}
