//! The deterministic discrete-event executor: one seeded runner, three
//! disciplines.
//!
//! Drives a set of transaction programs against one database under a
//! [`PolicySpec`]: each step, a seeded RNG picks a runnable transaction
//! and attempts its next operation (via [`ProgramSession`]). What
//! happens at a read, at a write, after a step and on an abort is the
//! `Discipline`'s: *locking* (here, [`run_workload`]) blocks on lock
//! and delayed-read conflicts, which triggers waits-for deadlock
//! detection or prevention; *validation* ([`crate::occ`]) buffers
//! writes and checks read versions space by space; *certification*
//! ([`crate::sgt`]) lets the admission probe every step makes decide.
//! Everything else is written once, in `Run`: the transaction table,
//! the pick, the step budget, the online-monitor admission and the
//! runtime DAG guard, *cascading* aborts (any transaction that read
//! from an aborted write) rolled back by trace filtering, restart
//! accounting, and the outcome — the **committed** schedule, a valid
//! [`Schedule`] in the paper's sense, plus execution metrics — which
//! an admitted run returns only when it meets the admission's floor.
//!
//! The executor is fully deterministic for a fixed seed, making every
//! experiment reproducible.

use crate::error::{Result, SchedError};
use crate::lock::{LockMode, LockTable, SpaceId};
use crate::metrics::Metrics;
use crate::plan::access_plan;
use crate::policy::{MonitorAdmission, PolicySpec};
use pwsr_core::catalog::Catalog;
use pwsr_core::dag::DataAccessGraph;
use pwsr_core::graph::DiGraph;
use pwsr_core::ids::{ConjunctId, ItemId, TxnId};
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

/// Why a transaction waits. Made by the discipline that makes it wait
/// and handed back to it ([`Discipline::holders`]) whenever the runner
/// needs to know for whom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Block {
    Lock {
        space: SpaceId,
        item: ItemId,
        mode: LockMode,
    },
    Dirty {
        writer: TxnId,
    },
}

/// A discipline's answer to a write.
pub(crate) enum Write {
    /// Into the store and the trace, now.
    Apply,
    /// The discipline took the operation and records it itself, later.
    Buffer,
    /// Not yet.
    Wait(Block),
}

/// One row of the transaction table.
pub(crate) struct TxnRt<'a> {
    pub(crate) txn: TxnId,
    session: ProgramSession<'a>,
    plan: Option<Vec<OpStruct>>,
    done: bool,
    blocked: Option<Block>,
    restarts: u32,
    backoff: u32,
}

impl TxnRt<'_> {
    /// The spaces this transaction may still access — whatever lies
    /// outside is finished with, and can be released or validated and
    /// published: nothing once it is done, and under early release what
    /// its access plan has left after the operations emitted so far.
    /// `None` when that is unknowable (hold-to-end policy; no plan ⇒
    /// hold to end; a plan the session has outrun — defensive, cannot
    /// happen for certified fixed-structure programs).
    pub(crate) fn spaces_ahead(&self, policy: &PolicySpec) -> Option<BTreeSet<SpaceId>> {
        if self.done {
            return Some(BTreeSet::new());
        }
        if !policy.early_release {
            return None;
        }
        let ahead = self.plan.as_ref()?.get(self.session.emitted()..)?;
        Some(ahead.iter().map(|o| policy.space_of(o.item)).collect())
    }
}

/// The four points where the concurrency-control mechanisms differ;
/// [`Run`] asks and never looks at who answers. The defaults are
/// certification's, which needs nothing but the admission probe every
/// step makes anyway.
pub(crate) trait Discipline {
    /// `txn` is about to read `item`; `Some` makes it wait.
    fn read(&mut self, _run: &Run<'_>, _txn: TxnId, _item: ItemId) -> Option<Block> {
        None
    }

    /// Its transaction is about to perform the write `op`.
    fn write(&mut self, _run: &Run<'_>, _op: &Operation) -> Write {
        Write::Apply
    }

    /// `run.rts[pick]` took a step: an access went through (or into
    /// the buffer), or it reached its end and is `done`. Commit, early
    /// release, validate-and-publish. `true` aborts it.
    fn after_step(&mut self, _run: &mut Run<'_>, _pick: usize) -> bool {
        false
    }

    /// `aborted` were rolled back and their sessions restarted.
    fn on_abort(&mut self, _run: &mut Run<'_>, _aborted: &[TxnId]) {}

    /// Who `txn` waits for while blocked on `why` — asked only of a
    /// discipline that made somebody wait.
    fn holders(&self, _txn: TxnId, _why: &Block) -> Vec<TxnId> {
        Vec::new()
    }
}

/// Everything one execution reads and mutates. An abort touches all of
/// it — trace, store, admission, guard, the transactions' own state —
/// and can happen at any step, so the steps are methods of this rather
/// than functions over a dozen borrows.
pub(crate) struct Run<'a> {
    pub(crate) policy: &'a PolicySpec,
    cfg: &'a ExecConfig,
    initial: &'a DbState,
    pub(crate) rts: Vec<TxnRt<'a>>,
    pub(crate) db: DbState,
    trace: Vec<Operation>,
    pub(crate) metrics: Metrics,
    rejected: Vec<TxnId>,
    pub(crate) admission: Option<MonitorAdmission>,
    dag_guard: Option<DagGuard>,
}

/// Execute `programs` (program `k` runs as transaction `k+1`) from
/// `initial` under `policy`, by locking.
pub fn run_workload(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    policy: &PolicySpec,
    cfg: &ExecConfig,
) -> Result<ExecOutcome> {
    Run::new(programs, catalog, initial, policy, cfg).run(&mut Locking::default())
}

/// The locking discipline: shared/exclusive locks per (space, item),
/// held to the end or — early release — until the access plan shows the
/// space finished with; optionally no read of an unfinished
/// transaction's write.
#[derive(Default)]
struct Locking {
    locks: LockTable,
}

impl Locking {
    fn acquire(
        &mut self,
        run: &Run<'_>,
        txn: TxnId,
        item: ItemId,
        mode: LockMode,
    ) -> Option<Block> {
        let space = run.policy.space_of(item);
        let refused = self.locks.try_acquire(txn, space, item, mode).is_err();
        refused.then_some(Block::Lock { space, item, mode })
    }
}

impl Discipline for Locking {
    fn read(&mut self, run: &Run<'_>, txn: TxnId, item: ItemId) -> Option<Block> {
        if run.policy.dr_block {
            // Dirty: the item's latest write is still in the trace and
            // its writer has not finished.
            let unfinished = |w: &TxnId| run.rts.iter().any(|rt| rt.txn == *w && !rt.done);
            if let Some(writer) = last_writer(&run.trace, item).filter(unfinished) {
                if writer != txn {
                    return Some(Block::Dirty { writer });
                }
            }
        }
        self.acquire(run, txn, item, LockMode::Shared)
    }

    fn write(&mut self, run: &Run<'_>, op: &Operation) -> Write {
        match self.acquire(run, op.txn, op.item, LockMode::Exclusive) {
            Some(why) => Write::Wait(why),
            None => Write::Apply,
        }
    }

    /// Commit releases everything; early release, the spaces the access
    /// plan shows finished.
    fn after_step(&mut self, run: &mut Run<'_>, pick: usize) -> bool {
        run.metrics.lock_acquisitions = self.locks.acquisitions();
        let rt = &run.rts[pick];
        let Some(ahead) = rt.spaces_ahead(run.policy) else {
            return false;
        };
        let (txn, done) = (rt.txn, rt.done);
        let held = self.locks.spaces_held(txn).into_iter();
        let finished: Vec<SpaceId> = held.filter(|s| !ahead.contains(s)).collect();
        for &space in &finished {
            self.locks.release_space(txn, space);
        }
        if done || !finished.is_empty() {
            run.clear_blocks();
        }
        false
    }

    fn on_abort(&mut self, run: &mut Run<'_>, aborted: &[TxnId]) {
        for rt in run.rts.iter_mut().filter(|rt| aborted.contains(&rt.txn)) {
            self.locks.release_all(rt.txn);
            rt.backoff = rt.restarts;
        }
    }

    fn holders(&self, txn: TxnId, why: &Block) -> Vec<TxnId> {
        match why {
            Block::Lock { space, item, mode } => {
                self.locks.conflicting_holders(txn, *space, *item, *mode)
            }
            Block::Dirty { writer } => vec![*writer],
        }
    }
}

/// The runtime Theorem-3 guard: `DAG(S, IC)` of the trace, with the
/// lock spaces `0..l` as its conjuncts, kept up to date as the trace
/// grows. An intent is probed by adding the transaction's would-be sets
/// to a copy of the `l`-node graph; an abort rewrote the trace, so the
/// graph is built again from what survived.
struct DagGuard {
    l: u32,
    dag: DataAccessGraph,
    /// Per transaction: the spaces it has read, and those it has written.
    sets: HashMap<TxnId, [BTreeSet<ConjunctId>; 2]>,
    /// Trace length already folded into the graph.
    synced: usize,
}

impl DagGuard {
    fn new(l: u32) -> DagGuard {
        DagGuard {
            l,
            dag: DataAccessGraph::new(l as usize),
            sets: HashMap::new(),
            synced: 0,
        }
    }

    /// An abort rewrote the trace: forget it all, so that the next
    /// [`sync`](Self::sync) folds the surviving trace from its start.
    fn aborted(&mut self) {
        *self = DagGuard::new(self.l);
    }

    /// Fold trace growth into the graph.
    fn sync(&mut self, trace: &[Operation], policy: &PolicySpec) {
        for op in &trace[self.synced..] {
            let space = policy.space_of(op.item).0;
            if space < self.l {
                let sets = self.sets.entry(op.txn).or_default();
                sets[op.is_write() as usize].insert(ConjunctId(space));
                self.dag.add_transaction(&sets[0], &sets[1]);
            }
        }
        self.synced = trace.len();
    }

    /// Would this access close a conjunct cycle?
    fn rejects(&self, txn: TxnId, space: u32, is_write: bool) -> bool {
        let mut sets = self.sets.get(&txn).cloned().unwrap_or_default();
        sets[is_write as usize].insert(ConjunctId(space));
        let mut probe = self.dag.clone();
        probe.add_transaction(&sets[0], &sets[1]);
        !probe.is_acyclic()
    }
}

/// The transaction whose write of `item` a read placed after `before`
/// reads from.
fn last_writer(before: &[Operation], item: ItemId) -> Option<TxnId> {
    let from = before.iter().rev().find(|w| w.is_write() && w.item == item);
    from.map(|w| w.txn)
}

impl<'a> Run<'a> {
    /// The table and the store at the start, with the policy's
    /// admission and DAG guard.
    pub(crate) fn new(
        programs: &'a [Program],
        catalog: &Catalog,
        initial: &'a DbState,
        policy: &'a PolicySpec,
        cfg: &'a ExecConfig,
    ) -> Run<'a> {
        let row = |(k, p): (usize, &'a Program)| {
            let txn = TxnId(k as u32 + 1);
            TxnRt {
                txn,
                session: ProgramSession::new(p, catalog, txn),
                plan: access_plan(p, catalog),
                done: false,
                blocked: None,
                restarts: 0,
                backoff: 0,
            }
        };
        Run {
            policy,
            cfg,
            initial,
            rts: programs.iter().enumerate().map(row).collect(),
            db: initial.clone(),
            trace: Vec::new(),
            metrics: Metrics::default(),
            rejected: Vec::new(),
            admission: policy.monitor.as_ref().map(MonitorAdmission::new),
            dag_guard: policy.dag_guard.map(DagGuard::new),
        }
    }

    /// The seeded loop: one RNG draw per step over the runnable
    /// transactions until all are done.
    pub(crate) fn run(mut self, d: &mut dyn Discipline) -> Result<ExecOutcome> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let live = |rt: &&TxnRt<'_>| !rt.done;
        while self.rts.iter().any(|rt| !rt.done) {
            if self.metrics.steps >= self.cfg.max_steps {
                return Err(SchedError::StepBudgetExhausted {
                    max_steps: self.cfg.max_steps,
                    pending: self.rts.iter().filter(live).map(|rt| rt.txn).collect(),
                });
            }
            let runnable: Vec<usize> = (0..self.rts.len())
                .filter(|&i| {
                    let rt = &self.rts[i];
                    !rt.done && rt.blocked.is_none() && rt.backoff == 0
                })
                .collect();
            if runnable.is_empty() {
                // Let backoffs tick down first.
                let mut ticked = false;
                for rt in self.rts.iter_mut().filter(|rt| rt.backoff > 0) {
                    rt.backoff -= 1;
                    ticked = true;
                }
                // Otherwise everyone live is blocked: there must be a
                // cycle.
                if !ticked && !self.resolve_deadlock(d)? {
                    return Err(SchedError::Stalled);
                }
                continue;
            }
            let pick = runnable[rng.random_range(0..runnable.len())];
            self.metrics.steps += 1;
            self.step(d, pick)?;
            // Bound the admission log's memory: an abort can take back
            // the running transactions and, by cascade, every finished
            // one that read from them (a read from an unfinished writer
            // is not a delayed read); ops before all their first
            // operations are permanent, so their undo deltas are dropped.
            if self.admission.is_some() {
                let reach = self.reach(self.rts.iter().filter(live).map(|rt| rt.txn));
                if let Some(mon) = self.admission.as_mut() {
                    mon.checkpoint(reach);
                }
            }
        }

        let mut metrics = self.metrics;
        metrics.committed_ops = self.trace.len() as u64;
        let schedule = Schedule::new(self.trace)?;
        if let Some(mon) = &self.admission {
            metrics.monitor_undone_ops = mon.undone_ops();
            metrics.monitor_log_floor = mon.monitor().log_floor() as u64;
            metrics.monitor_skipped_ops = mon.skipped_ops();
            mon.spec()
                .seal(&mut metrics, mon.monitor().verdict(), &schedule)?;
        }
        Ok(ExecOutcome {
            schedule,
            final_state: self.db,
            metrics,
            rejected: self.rejected,
        })
    }

    fn step(&mut self, d: &mut dyn Discipline, pick: usize) -> Result<()> {
        let policy = self.policy;
        let txn = self.rts[pick].txn;
        let pending = self.rts[pick].session.pending()?;
        // The access `pending` is about to make, if any.
        let intent = match &pending {
            Pending::NeedRead(item) => Some((*item, false)),
            Pending::Write(op) => Some((op.item, true)),
            Pending::Done => None,
        };
        // Online verdict-monitor admission: reject (abort for restart)
        // an operation whose admission would sink the verdict below the
        // policy's configured level. The speculative test never
        // mutates. Statically-certified transactions take the zero-cost
        // fast path inside it: the certificate proves every
        // interleaving of their component safe.
        if let (Some(mon), Some((item, is_write))) = (&self.admission, intent) {
            if !mon.would_admit(txn, item, is_write) {
                self.metrics.monitor_rejections += 1;
                return self.abort_cascading(d, &[pick]);
            }
        }
        // Runtime Theorem-3 guard: refuse the access that would close a
        // conjunct cycle, rejecting the transaction outright (a retry
        // could never commit — committed edges persist in DAG(S, IC)).
        // The guard folds trace growth into its graph and probes a copy
        // — no per-step rebuild.
        if let Some(guard) = self.dag_guard.as_mut() {
            guard.sync(&self.trace, policy);
            if let Some((item, is_write)) = intent {
                let space = policy.space_of(item).0;
                if space < guard.l && guard.rejects(txn, space, is_write) {
                    self.abort_cascading(d, &[pick])?;
                    self.rts[pick].done = true;
                    self.rejected.push(txn);
                    return Ok(());
                }
            }
        }
        match pending {
            Pending::Done => self.rts[pick].done = true,
            Pending::NeedRead(item) => {
                if let Some(why) = d.read(self, txn, item) {
                    return self.block(d, pick, why);
                }
                let value = self.db.require(item)?.clone();
                let op = self.rts[pick].session.feed_read(value)?;
                self.record(op);
            }
            Pending::Write(op) => match d.write(self, &op) {
                Write::Wait(why) => return self.block(d, pick, why),
                Write::Buffer => self.rts[pick].session.advance_write()?,
                Write::Apply => {
                    self.db.set(op.item, op.value.clone());
                    self.rts[pick].session.advance_write()?;
                    self.record(op);
                }
            },
        }
        if d.after_step(self, pick) {
            self.abort_cascading(d, &[pick])?;
        }
        Ok(())
    }

    /// `op` happened (its effect is in the store): show it to the
    /// admission and append it to the trace.
    pub(crate) fn record(&mut self, op: Operation) {
        if let Some(mon) = self.admission.as_mut() {
            mon.observe(&op);
        }
        self.trace.push(op);
    }

    /// The live transactions `txn` waits for while blocked on `why`,
    /// as rows of the table.
    fn opponents(&self, d: &dyn Discipline, txn: TxnId, why: &Block) -> Vec<usize> {
        let row = |t: TxnId| self.rts.iter().position(|rt| rt.txn == t);
        let holders = d.holders(txn, why).into_iter().filter_map(row);
        holders.filter(|&j| !self.rts[j].done).collect()
    }

    fn block(&mut self, d: &mut dyn Discipline, pick: usize, why: Block) -> Result<()> {
        self.metrics.waits += 1;
        // Timestamps = original TxnId, stable across restarts.
        let me = self.rts[pick].txn;
        let opponents = self.opponents(d, me, &why);
        let younger: Vec<usize> = opponents
            .iter()
            .copied()
            .filter(|&j| me < self.rts[j].txn)
            .collect();
        match self.cfg.deadlock {
            DeadlockPolicy::Detect => {
                self.rts[pick].blocked = Some(why);
                // A new edge appeared: look for a cycle right away.
                self.resolve_deadlock(d)?;
            }
            DeadlockPolicy::WaitDie => {
                // Wait only for younger opponents (requester older =
                // smaller timestamp); otherwise the requester dies —
                // prevention: no cycle can ever form.
                if younger.len() == opponents.len() {
                    self.rts[pick].blocked = Some(why);
                } else {
                    self.abort_cascading(d, &[pick])?;
                }
            }
            DeadlockPolicy::WoundWait => {
                if younger.is_empty() {
                    // All opponents are older: wait politely.
                    self.rts[pick].blocked = Some(why);
                } else {
                    // Wound every younger holder — as one set, so that
                    // the admission retracts once and each survivor is
                    // re-pushed once; retry the operation on a later step.
                    self.abort_cascading(d, &younger)?;
                }
            }
        }
        Ok(())
    }

    /// Build the waits-for graph from the current blocks and resolve one
    /// cycle if present. Returns whether a cycle was resolved.
    fn resolve_deadlock(&mut self, d: &mut dyn Discipline) -> Result<bool> {
        let rts = &self.rts;
        let mut graph = DiGraph::new(rts.len());
        for (i, rt) in rts.iter().enumerate() {
            if let Some(why) = &rt.blocked {
                for j in self.opponents(d, rt.txn, why) {
                    graph.add_edge(i, j);
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
        self.abort_cascading(d, &[victim])?;
        Ok(true)
    }

    /// `seeds` plus every transaction that read a write of one of them,
    /// directly or through other readers: what an abort of `seeds`
    /// takes back. Forward passes over the trace, each with a per-item
    /// last-writer map, until one adds nobody — a reader found late in
    /// a pass may have written what an earlier read took.
    fn reach(&self, seeds: impl IntoIterator<Item = TxnId>) -> BTreeSet<TxnId> {
        let mut reach: BTreeSet<TxnId> = seeds.into_iter().collect();
        loop {
            let before = reach.len();
            let mut last: HashMap<ItemId, TxnId> = HashMap::new();
            for op in &self.trace {
                if op.is_write() {
                    last.insert(op.item, op.txn);
                } else if last.get(&op.item).is_some_and(|w| reach.contains(w)) {
                    reach.insert(op.txn);
                }
            }
            if reach.len() == before {
                return reach;
            }
        }
    }

    /// Abort `victims` and their [`reach`](Self::reach) — the one
    /// cascade: tell the admission who, once, as one set; drop their
    /// operations from the trace; rebuild the store by replaying what
    /// is left over `initial`; restart them.
    fn abort_cascading(&mut self, d: &mut dyn Discipline, victims: &[usize]) -> Result<()> {
        let reach = self.reach(victims.iter().map(|&i| self.rts[i].txn));
        let aborted: Vec<TxnId> = reach.into_iter().collect();
        if let Some(mon) = self.admission.as_mut() {
            mon.retract_txns(&aborted)?;
        }
        if let Some(guard) = self.dag_guard.as_mut() {
            guard.aborted();
        }
        // Roll back: drop aborted ops, replay the rest.
        self.trace.retain(|op| !aborted.contains(&op.txn));
        self.db = self.initial.clone();
        for op in self.trace.iter().filter(|op| op.is_write()) {
            self.db.set(op.item, op.value.clone());
        }
        self.metrics.aborts += aborted.len() as u64;
        for rt in self.rts.iter_mut().filter(|rt| aborted.contains(&rt.txn)) {
            rt.session.restart();
            rt.restarts += 1;
            self.metrics.restarts += 1;
            if rt.restarts > self.cfg.max_restarts {
                return Err(SchedError::RestartLimit {
                    txn: rt.txn,
                    restarts: rt.restarts,
                });
            }
            rt.done = false;
        }
        d.on_abort(self, &aborted);
        self.clear_blocks();
        Ok(())
    }

    /// Unblock everyone: blocks are re-derived on the next attempt. Cheap
    /// revalidation after any lock/dirty state change.
    pub(crate) fn clear_blocks(&mut self) {
        for rt in self.rts.iter_mut() {
            rt.blocked = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::setup;
    use pwsr_core::pwsr::is_pwsr;
    use pwsr_core::serializability::is_conflict_serializable;
    use pwsr_core::value::{Domain, Value};
    use pwsr_tplang::parser::parse_program;

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

    /// Example 2's IC under its guarded policy, and a guard synced to
    /// `r1(c) w1(a) r2(a)`: T1 has put the edge C2 → C1 in place.
    fn guard_after_r1c_w1a_r2a() -> (DagGuard, PolicySpec, [ItemId; 2]) {
        let sc = pwsr_tplang::programs::example2();
        let policy = PolicySpec::predicate_wise_2pl_early(&sc.ic).dag_guarded(&sc.ic);
        let [a, c] = ["a", "c"].map(|name| sc.catalog.lookup(name).unwrap());
        let trace = [
            Operation::read(TxnId(1), c, Value::Int(1)),
            Operation::write(TxnId(1), a, Value::Int(1)),
            Operation::read(TxnId(2), a, Value::Int(1)),
        ];
        let mut guard = DagGuard::new(policy.dag_guard.unwrap());
        guard.sync(&trace, &policy);
        (guard, policy, [a, c])
    }

    #[test]
    fn dag_guard_rejects_the_closing_access() {
        // T2 has read C1; its write of c would add C1 → C2.
        let (guard, policy, [_, c]) = guard_after_r1c_w1a_r2a();
        assert!(guard.rejects(TxnId(2), policy.space_of(c).0, true));
    }

    #[test]
    fn dag_guard_probe_commits_nothing() {
        let (guard, policy, [a, c]) = guard_after_r1c_w1a_r2a();
        let (c1, c2) = (policy.space_of(a).0, policy.space_of(c).0);
        assert!(guard.rejects(TxnId(2), c2, true));
        // The refused probe left the graph as it was: T2 writing into
        // C1 adds no edge, and a third transaction may write anywhere.
        assert!(!guard.rejects(TxnId(2), c1, true));
        for space in [c1, c2] {
            assert!(!guard.rejects(TxnId(3), space, true));
        }
        assert!(guard.dag.is_acyclic());
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
        use crate::policy::MonitorSpec;
        use pwsr_core::monitor::AdmissionLevel;
        let (cat, ic, initial) = setup();
        let programs = vec![
            parse_program("T1", "a0 := 7;").unwrap(),
            parse_program("T2", "b0 := a0;").unwrap(),
            parse_program("T3", "b1 := a0;").unwrap(),
        ];
        let a0 = cat.lookup("a0").unwrap();
        let mut model = MonitorAdmission::new(&MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr));
        model.observe(&Operation::read(TxnId(2), a0, Value::Int(0)));
        model.observe(&Operation::read(TxnId(3), a0, Value::Int(0)));
        let (set_cost, repushed) = model.retract_txns(&[TxnId(2), TxnId(3)]).unwrap();
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
