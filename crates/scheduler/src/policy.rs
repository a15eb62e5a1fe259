//! Concurrency-control policy specifications.
//!
//! A [`PolicySpec`] tells the executor (a) which lock space each data
//! item belongs to, (b) whether a transaction's locks in a space may be
//! released as soon as its access plan shows no further accesses there
//! (*early release* — the long-transaction benefit §1 motivates), and
//! (c) whether reads of items last written by an unfinished transaction
//! must block (*DR blocking*, the operational form of Theorem 2).
//!
//! | constructor | spaces | guarantees on the committed schedule |
//! |---|---|---|
//! | [`PolicySpec::global_2pl`] | one | conflict-serializable |
//! | [`PolicySpec::predicate_wise_2pl`] | per conjunct | PWSR |
//! | [`PolicySpec::predicate_wise_2pl_early`] | per conjunct | PWSR, more interleaving |
//! | [`PolicySpec::dr_blocking`] (wrapper) | unchanged | + delayed-read |

use crate::lock::SpaceId;
use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::IntegrityConstraint;
use pwsr_core::error::CoreError;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::{AdmissionLevel, CompactStats, OnlineMonitor, Verdict};
use pwsr_core::op::Operation;
use pwsr_core::state::ItemSet;
use pwsr_durability::wal::{SharedWal, Wal, WalRecord};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Does holding verdict level `a` on a schedule imply level `b`?
/// `Serializable ⇒ Pwsr` (an acyclic global conflict graph keeps every
/// projection acyclic) and `PwsrDr ⇒ Pwsr`; `Serializable` and
/// `PwsrDr` are incomparable (serializability says nothing about
/// delayed reads).
pub fn level_implies(a: AdmissionLevel, b: AdmissionLevel) -> bool {
    a == b
        || matches!(
            (a, b),
            (AdmissionLevel::Serializable, AdmissionLevel::Pwsr)
                | (AdmissionLevel::PwsrDr, AdmissionLevel::Pwsr)
        )
}

/// A pre-computed workload-safety certificate: the transactions in
/// `certified` are drawn from a program mix proven (by
/// `pwsr_analysis`) to satisfy `level` under **every** interleaving,
/// with no conflicts against any program outside the set. Admission
/// can therefore skip runtime certification for them entirely — the
/// zero-cost fast path.
///
/// The scheduler trusts the certificate; soundness is the analyzer's
/// contract (its `Safe` verdicts are proven, and certified sets are
/// conflict-closed components, so they compose with any monitored
/// remainder).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticCertificate {
    level: AdmissionLevel,
    certified: BTreeSet<TxnId>,
}

impl StaticCertificate {
    /// Certificate for an explicit transaction set.
    pub fn new(level: AdmissionLevel, certified: BTreeSet<TxnId>) -> StaticCertificate {
        StaticCertificate { level, certified }
    }

    /// Certificate covering transactions `1..=n` (program `k` runs as
    /// transaction `k+1` in the executors).
    pub fn full(level: AdmissionLevel, n: usize) -> StaticCertificate {
        StaticCertificate {
            level,
            certified: (1..=n as u32).map(TxnId).collect(),
        }
    }

    /// The level every interleaving of the certified set is proven to
    /// hold.
    pub fn level(&self) -> AdmissionLevel {
        self.level
    }

    /// Is `txn` in the certified set?
    pub fn covers(&self, txn: TxnId) -> bool {
        self.certified.contains(&txn)
    }

    /// Is the certificate strong enough to stand in for runtime
    /// certification at `floor`?
    pub fn satisfies(&self, floor: AdmissionLevel) -> bool {
        level_implies(self.level, floor)
    }

    /// Number of certified transactions.
    pub fn len(&self) -> usize {
        self.certified.len()
    }

    /// Is the certified set empty?
    pub fn is_empty(&self) -> bool {
        self.certified.is_empty()
    }

    /// The certified transactions, ascending.
    pub fn txns(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.certified.iter().copied()
    }
}

/// Monitor-backed admission control: an [`OnlineMonitor`] tracking the
/// executor's trace, consulted before every operation. An operation
/// whose admission would sink the verdict below the configured
/// [`AdmissionLevel`] is rejected — the paper's verdicts driving
/// scheduling decisions instead of describing finished histories.
///
/// The speculative test ([`MonitorAdmission::would_admit`]) never
/// mutates; an executor that aborts says whom
/// ([`MonitorAdmission::retract`]) and the monitor takes their
/// operations back through its undo-log — `O(ops undone + ops
/// re-pushed)` graph work, so every step stays on the incremental
/// path.
#[derive(Clone, Debug)]
pub struct MonitorAdmission {
    monitor: OnlineMonitor,
    scopes: Vec<ItemSet>,
    level: AdmissionLevel,
    /// Statically-certified fast path: transactions the certificate
    /// covers bypass the monitor entirely (admitted unconditionally,
    /// their operations never pushed).
    certificate: Option<StaticCertificate>,
    /// Operations skipped via the certificate.
    skipped_ops: u64,
    /// Operations retracted via the undo-log across all retractions.
    undone_ops: u64,
    /// Optional write-ahead log: every monitored state transition
    /// (push / truncate / floor raise / reset) is appended as a
    /// checksummed record, so a crash recovers to exactly this
    /// admission's monitor state (see `pwsr_durability::recover`).
    /// Clones share the log, so clone-and-diverge admissions should
    /// not both stay journaled.
    wal: Option<SharedWal>,
}

impl MonitorAdmission {
    /// Admission over explicit projection scopes.
    pub fn new(scopes: Vec<ItemSet>, level: AdmissionLevel) -> MonitorAdmission {
        MonitorAdmission {
            monitor: OnlineMonitor::new(scopes.clone()),
            scopes,
            level,
            certificate: None,
            skipped_ops: 0,
            undone_ops: 0,
            wal: None,
        }
    }

    /// Journal WAL transitions. An I/O error the log's policy could
    /// not heal (fail-stop, or an exhausted retry) stays in the log,
    /// sticky, until the executor seals the log at the end of the run
    /// and turns it into [`SchedError::WalFailed`], a refusal to report
    /// success; self-healing policies (retry, degrade-to-memory) leave
    /// none and the run proceeds — the incident stays visible in
    /// `WalStats::io_errors`.
    ///
    /// [`SchedError::WalFailed`]: crate::error::SchedError::WalFailed
    fn journal(&self, f: impl FnOnce(&mut Wal)) {
        if let Some(wal) = &self.wal {
            wal.with(f);
        }
    }

    /// Attach a write-ahead log. Every subsequent monitored
    /// transition is journaled *before* it is applied (write-ahead
    /// discipline); certified skips are not journaled — replay
    /// reconstructs the monitored sub-trace, which is the whole
    /// monitor state.
    pub fn with_wal(mut self, wal: SharedWal) -> MonitorAdmission {
        debug_assert!(
            self.is_empty(),
            "attach the WAL before recording operations"
        );
        self.wal = Some(wal);
        self
    }

    /// Attach a static safety certificate: covered transactions are
    /// admitted without consulting the monitor and their operations
    /// are never certified at run time. A certificate weaker than the
    /// admission floor (see [`StaticCertificate::satisfies`]) is
    /// rejected and admission falls back to full monitoring.
    pub fn with_certificate(mut self, certificate: StaticCertificate) -> MonitorAdmission {
        debug_assert!(
            self.is_empty(),
            "attach certificates before recording operations"
        );
        if certificate.satisfies(self.level) {
            self.certificate = Some(certificate);
        }
        self
    }

    /// Admission over an integrity constraint's conjunct scopes.
    pub fn for_constraint(ic: &IntegrityConstraint, level: AdmissionLevel) -> MonitorAdmission {
        MonitorAdmission::new(
            ic.conjuncts().iter().map(|c| c.items().clone()).collect(),
            level,
        )
    }

    /// Admission over a policy's lock-space partition of `catalog` —
    /// one scope per space, so per-space SGT certification and the
    /// monitor agree on what "serializable per unit" means.
    pub fn for_spaces(
        catalog: &Catalog,
        policy: &PolicySpec,
        level: AdmissionLevel,
    ) -> MonitorAdmission {
        let mut by_space: HashMap<u32, ItemSet> = HashMap::new();
        for item in catalog.items() {
            by_space
                .entry(policy.space_of(item).0)
                .or_default()
                .insert(item);
        }
        let mut spaces: Vec<(u32, ItemSet)> = by_space.into_iter().collect();
        spaces.sort_by_key(|(s, _)| *s);
        MonitorAdmission::new(spaces.into_iter().map(|(_, d)| d).collect(), level)
    }

    /// The configured verdict floor.
    pub fn level(&self) -> AdmissionLevel {
        self.level
    }

    /// Operations recorded so far.
    pub fn len(&self) -> usize {
        self.monitor.len()
    }

    /// Has nothing been recorded?
    pub fn is_empty(&self) -> bool {
        self.monitor.is_empty()
    }

    /// Would this access keep the configured verdict level? Read-only.
    /// Statically-certified transactions are admitted without touching
    /// the monitor — the zero-cost fast path.
    pub fn would_admit(&self, txn: TxnId, item: ItemId, is_write: bool) -> bool {
        if self.covers(txn) {
            return true;
        }
        self.monitor.admits(txn, item, is_write, self.level)
    }

    /// Is `txn` on the certified fast path?
    pub fn covers(&self, txn: TxnId) -> bool {
        self.certificate.as_ref().is_some_and(|c| c.covers(txn))
    }

    /// Record an admitted (or already-committed) operation. Logged, so
    /// an abort can retract it through the undo-log.
    pub fn push(&mut self, op: &Operation) -> Verdict {
        self.journal(|w| w.append_op(op));
        self.monitor
            .push_logged(op.clone())
            .expect("executor traces satisfy the §2.2 transaction rules")
    }

    /// Record one trace operation, routing it past the monitor when
    /// its transaction is certified. Returns `true` if the operation
    /// was actually pushed (monitored), `false` if skipped.
    pub fn observe(&mut self, op: &Operation) -> bool {
        if self.covers(op.txn) {
            self.skipped_ops += 1;
            false
        } else {
            self.push(op);
            true
        }
    }

    /// The current verdict over the recorded trace.
    pub fn verdict(&self) -> Verdict {
        self.monitor.verdict()
    }

    /// The underlying monitor (orders, certificates, index queries).
    pub fn monitor(&self) -> &OnlineMonitor {
        &self.monitor
    }

    /// The executor aborted `victims`: take their operations back.
    /// One shape, the monitor's ([`OnlineMonitor::retract_txns`]):
    /// truncate to the earliest operation any victim still holds and
    /// re-push every other transaction's operation from there on —
    /// `O(ops undone + ops re-pushed)`, not `O(n)`: an abort of a
    /// late-starting transaction leaves the long head untouched. The
    /// WAL hears `Truncate(first)`, then one `Op` per survivor. A
    /// certified victim has nothing recorded and costs nothing.
    /// Returns `(ops undone, ops re-pushed)`.
    ///
    /// One case cannot go through the undo-log: a cascade that reaches
    /// a transaction which had *finished*, and so was not in the live
    /// set of the last [`checkpoint`](Self::checkpoint) — its first
    /// operation lies below the floor, where the deltas are gone. The
    /// admission then starts over: `Reset` in the WAL, a fresh
    /// monitor, and its own surviving operations pushed again. (Panics
    /// there if the admission was also compacted — a summarized prefix
    /// cannot be pushed again.) Above the floor, a summarized victim is
    /// rejected with [`CoreError::SummarizedTransaction`], nothing
    /// retracted.
    pub fn retract(&mut self, victims: &[TxnId]) -> Result<(usize, usize), CoreError> {
        let first = victims
            .iter()
            .filter_map(|&t| self.monitor.first_op_of(t))
            .min();
        let len = self.monitor.len();
        let cost = if first.is_some_and(|p| p.0 < self.log_floor()) {
            let schedule = self.monitor.schedule();
            assert_eq!(schedule.base(), 0, "compacted: cannot start over");
            let survivors: Vec<Operation> = schedule
                .ops()
                .iter()
                .filter(|o| !victims.contains(&o.txn))
                .cloned()
                .collect();
            self.journal(|w| w.append(&WalRecord::Reset));
            self.monitor = OnlineMonitor::new(self.scopes.clone());
            for op in &survivors {
                self.push(op);
            }
            (len, survivors.len())
        } else {
            let (undone, repushed) = self.monitor.retract_txns(victims)?;
            let ops = self.monitor.schedule().ops();
            self.journal(|w| {
                if undone > 0 {
                    w.append(&WalRecord::Truncate((len - undone) as u64));
                }
                for op in &ops[ops.len() - repushed..] {
                    w.append_op(op);
                }
            });
            (undone, repushed)
        };
        self.undone_ops += cost.0 as u64;
        Ok(cost)
    }

    /// Raise the undo-log floor to the oldest *live* transaction's
    /// first operation (or the whole trace when none are live):
    /// everything before that point can never be rewritten by an
    /// abort, so its per-push deltas are dropped — the long-run
    /// memory bound for the admission log ([`OnlineMonitor`] keeps
    /// one delta per logged push otherwise). Returns the new floor.
    pub fn checkpoint<I: IntoIterator<Item = TxnId>>(&mut self, live: I) -> usize {
        let floor = live
            .into_iter()
            .filter_map(|t| self.monitor.first_op_of(t).map(|p| p.0))
            .min()
            .unwrap_or(self.monitor.len());
        let before = self.monitor.log_floor();
        let after = self.monitor.checkpoint(floor);
        // Journal only actual raises: the executor checkpoints every
        // step, and a no-op raise would bloat the log.
        if after > before {
            self.journal(|w| w.append(&WalRecord::Floor(after as u64)));
        }
        after
    }

    /// The monitor undo-log's current retraction floor.
    pub fn log_floor(&self) -> usize {
        self.monitor.log_floor()
    }

    /// Declare `txn` finished (it will issue no further operations),
    /// making its operations eligible for committed-prefix compaction.
    /// Certified transactions are never monitored, so there is nothing
    /// to finish for them.
    pub fn finish_txn(&mut self, txn: TxnId) {
        self.monitor.finish_txn(txn);
    }

    /// Committed-prefix compaction passthrough
    /// ([`OnlineMonitor::compact`]): collapse the finished,
    /// below-floor prefix into a summary and reclaim its memory. The
    /// WAL (if attached) is untouched — it still replays the full
    /// monitored sub-trace, and recovery may re-compact once replay
    /// finishes; pairing WAL truncation with the frontier lives in
    /// `pwsr_durability` ([`Checkpoint`]-then-restart), not here.
    ///
    /// [`Checkpoint`]: pwsr_durability::checkpoint::Checkpoint
    pub fn compact(&mut self) -> CompactStats {
        self.monitor.compact()
    }

    /// The compaction frontier the next [`MonitorAdmission::compact`]
    /// would collapse to.
    pub fn compaction_frontier(&self) -> usize {
        self.monitor.compaction_frontier()
    }

    /// Structural resident-memory estimate of the underlying monitor
    /// (the `compact` experiment's plateau metric).
    pub fn resident_bytes_estimate(&self) -> usize {
        self.monitor.resident_bytes_estimate()
    }

    /// Undo-log entries currently held (bounded by
    /// `len() - log_floor()` — the checkpoint test pins this).
    pub fn log_len(&self) -> usize {
        self.monitor.logged_len()
    }

    /// Operations retracted through the undo-log across all aborts.
    pub fn undone_ops(&self) -> u64 {
        self.undone_ops
    }

    /// Operations skipped via the static certificate.
    pub fn skipped_ops(&self) -> u64 {
        self.skipped_ops
    }

    /// The attached certificate, if any survived validation.
    pub fn certificate(&self) -> Option<&StaticCertificate> {
        self.certificate.as_ref()
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&SharedWal> {
        self.wal.as_ref()
    }
}

/// The monitor-admission half of a policy: which projection scopes to
/// certify and the verdict floor to hold.
#[derive(Clone, Debug)]
pub struct MonitorSpec {
    /// Projection scopes (conjunct data sets).
    pub scopes: Vec<ItemSet>,
    /// The verdict floor admitted operations must preserve.
    pub level: AdmissionLevel,
    /// Optional static fast path: certified transactions skip runtime
    /// certification (see [`StaticCertificate`]).
    pub certificate: Option<StaticCertificate>,
    /// Optional durability: a shared write-ahead log the admission
    /// journals every monitored transition into (the handle is shared,
    /// so the caller keeps recovery access to the same log).
    pub wal: Option<SharedWal>,
    /// Committed-prefix compaction cadence for the certified threaded
    /// executors: `0` (the default) disables compaction; `n > 0` makes
    /// the executor declare each transaction finished at commit and,
    /// after every `n` commits, checkpoint past the finished prefix
    /// and [`compact`] the monitor. The verdict is unaffected (the
    /// twin-harness property), but the returned schedule then retains
    /// only the live tail — its [`base`] reports how many operations
    /// were summarized away.
    ///
    /// [`compact`]: pwsr_core::monitor::sharded::ShardedMonitor::compact
    /// [`base`]: pwsr_core::schedule::Schedule::base
    pub compact_every: u64,
}

impl MonitorSpec {
    /// Monitor `scopes` at `level`: no certificate, no WAL, no
    /// compaction.
    pub fn new(scopes: Vec<ItemSet>, level: AdmissionLevel) -> MonitorSpec {
        MonitorSpec {
            scopes,
            level,
            certificate: None,
            wal: None,
            compact_every: 0,
        }
    }

    /// Build the admission state this spec describes, certificate and
    /// WAL attached.
    pub fn admission(&self) -> MonitorAdmission {
        let mut adm = MonitorAdmission::new(self.scopes.clone(), self.level);
        if let Some(cert) = &self.certificate {
            adm = adm.with_certificate(cert.clone());
        }
        if let Some(wal) = &self.wal {
            adm = adm.with_wal(wal.clone());
        }
        adm
    }
}

/// A policy: item→space map plus behavioural flags.
#[derive(Clone)]
pub struct PolicySpec {
    /// Display name (appears in metrics and experiment tables).
    pub name: String,
    space_of: Arc<dyn Fn(ItemId) -> SpaceId + Send + Sync>,
    /// Release a space's locks once the access plan shows no further
    /// accesses there (requires plans; without a plan the executor
    /// holds to end).
    pub early_release: bool,
    /// Block reads of items whose latest writer has not finished.
    pub dr_block: bool,
    /// When `Some(l)`, spaces `0..l` are conjuncts and the executor
    /// enforces Theorem 3 at run time: a transaction whose accesses
    /// would make `DAG(S, IC)` cyclic is rejected (§3.3's data-access
    /// ordering as runtime admission). Only meaningful for
    /// conjunct-aligned policies.
    pub dag_guard: Option<u32>,
    /// When set, the executor keeps a [`MonitorAdmission`] over its
    /// trace and aborts (for restart) any transaction whose next
    /// operation would sink the verdict below `level`.
    pub monitor: Option<MonitorSpec>,
}

impl std::fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicySpec")
            .field("name", &self.name)
            .field("early_release", &self.early_release)
            .field("dr_block", &self.dr_block)
            .finish()
    }
}

impl PolicySpec {
    /// The lock space of `item`.
    pub fn space_of(&self, item: ItemId) -> SpaceId {
        (self.space_of)(item)
    }

    /// Global strict two-phase locking: a single lock space, locks held
    /// to transaction end. The serializability baseline.
    pub fn global_2pl() -> PolicySpec {
        PolicySpec {
            name: "2PL".to_owned(),
            space_of: Arc::new(|_| SpaceId(0)),
            early_release: false,
            dr_block: false,
            dag_guard: None,
            monitor: None,
        }
    }

    /// Predicate-wise strict 2PL: one lock space per conjunct of `ic`
    /// (items outside every conjunct get their own private space).
    /// Locks held to end ⇒ committed schedules are PWSR *and* DR.
    pub fn predicate_wise_2pl(ic: &IntegrityConstraint) -> PolicySpec {
        PolicySpec {
            name: "PW-2PL".to_owned(),
            space_of: conjunct_spaces(ic),
            early_release: false,
            dr_block: false,
            dag_guard: None,
            monitor: None,
        }
    }

    /// Predicate-wise 2PL with early per-conjunct release: once a
    /// transaction's access plan shows no further accesses in a
    /// conjunct, that conjunct's locks drop immediately. Committed
    /// schedules remain PWSR (per-space 2PL is still two-phase), but
    /// are generally *not* DR — this is the policy whose anomalies
    /// Theorems 1–3 adjudicate.
    pub fn predicate_wise_2pl_early(ic: &IntegrityConstraint) -> PolicySpec {
        PolicySpec {
            name: "PW-2PL-early".to_owned(),
            space_of: conjunct_spaces(ic),
            early_release: true,
            dr_block: false,
            dag_guard: None,
            monitor: None,
        }
    }

    /// Enable the runtime Theorem-3 guard (requires conjunct-aligned
    /// spaces, i.e. one of the predicate-wise constructors).
    pub fn dag_guarded(mut self, ic: &IntegrityConstraint) -> PolicySpec {
        self.dag_guard = Some(ic.len() as u32);
        self.name = format!("{}+DAG", self.name);
        self
    }

    /// Wrap a policy with delayed-read blocking (Theorem 2's condition,
    /// enforced at run time).
    pub fn dr_blocking(mut self) -> PolicySpec {
        self.dr_block = true;
        self.name = format!("{}+DR", self.name);
        self
    }

    /// Wrap a policy with online verdict-monitor admission over `ic`'s
    /// conjunct scopes: before every operation the executor consults a
    /// live [`MonitorAdmission`] and aborts (for restart) a transaction
    /// whose next access would sink the verdict below `level`. This is
    /// certification, not blocking — it composes with any lock layout,
    /// and is the only guard when the lock layout itself is too weak
    /// (e.g. per-item spaces with early release).
    pub fn monitor_admission(
        mut self,
        ic: &IntegrityConstraint,
        level: AdmissionLevel,
    ) -> PolicySpec {
        self.monitor = Some(MonitorSpec::new(
            ic.conjuncts().iter().map(|c| c.items().clone()).collect(),
            level,
        ));
        self.name = format!(
            "{}+MON({})",
            self.name,
            match level {
                AdmissionLevel::Serializable => "CSR",
                AdmissionLevel::Pwsr => "PWSR",
                AdmissionLevel::PwsrDr => "PWSR+DR",
            }
        );
        self
    }

    /// Attach a static safety certificate to the monitor-admission
    /// half of the policy ([`PolicySpec::monitor_admission`] must come
    /// first): transactions the certificate covers skip runtime
    /// certification entirely. A certificate weaker than the
    /// admission floor is ignored (the name is only tagged when the
    /// fast path is actually active).
    pub fn certified(mut self, certificate: StaticCertificate) -> PolicySpec {
        if let Some(spec) = &mut self.monitor {
            if certificate.satisfies(spec.level) {
                self.name = format!("{}+CERT({})", self.name, certificate.len());
                spec.certificate = Some(certificate);
            }
        }
        self
    }

    /// Attach a write-ahead log to the monitor-admission half of the
    /// policy ([`PolicySpec::monitor_admission`] must come first):
    /// every admitted operation and every retraction is journaled
    /// into `wal`, making the run crash-recoverable. The caller keeps
    /// a clone of the handle for recovery.
    pub fn durable(mut self, wal: SharedWal) -> PolicySpec {
        if let Some(spec) = &mut self.monitor {
            self.name = format!("{}+WAL", self.name);
            spec.wal = Some(wal);
        }
        self
    }

    /// Enable committed-prefix compaction in the certified threaded
    /// executors ([`PolicySpec::monitor_admission`] must come first):
    /// after every `every` commits the monitor checkpoints past the
    /// finished prefix and compacts it, bounding resident memory for
    /// long streams. See [`MonitorSpec::compact_every`] for the
    /// schedule-tail caveat. `every == 0` leaves compaction off.
    pub fn compacting(mut self, every: u64) -> PolicySpec {
        if let Some(spec) = &mut self.monitor {
            if every > 0 {
                self.name = format!("{}+COMPACT({every})", self.name);
            }
            spec.compact_every = every;
        }
        self
    }

    /// A policy with an explicit item→space table (used by the MDBS
    /// simulation, where spaces are *sites*).
    pub fn from_table(
        name: &str,
        table: HashMap<ItemId, SpaceId>,
        fallback_base: u32,
    ) -> PolicySpec {
        PolicySpec {
            name: name.to_owned(),
            space_of: Arc::new(move |item: ItemId| {
                table
                    .get(&item)
                    .copied()
                    .unwrap_or(SpaceId(fallback_base + item.0))
            }),
            early_release: false,
            dr_block: false,
            dag_guard: None,
            monitor: None,
        }
    }
}

/// Item→space map assigning conjunct `k` the space `k`; unconstrained
/// items get private spaces above the conjunct range (they constrain
/// nothing, so serializing them per item is harmless and maximally
/// permissive).
fn conjunct_spaces(ic: &IntegrityConstraint) -> Arc<dyn Fn(ItemId) -> SpaceId + Send + Sync> {
    let l = ic.len() as u32;
    let mut table: HashMap<ItemId, SpaceId> = HashMap::new();
    for (k, c) in ic.conjuncts().iter().enumerate() {
        for item in c.items().iter() {
            // First conjunct wins for overlapping ICs.
            table.entry(item).or_insert(SpaceId(k as u32));
        }
    }
    Arc::new(move |item: ItemId| table.get(&item).copied().unwrap_or(SpaceId(l + item.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::constraint::{Conjunct, Formula, Term};

    fn two_conjunct_ic() -> IntegrityConstraint {
        IntegrityConstraint::new(vec![
            Conjunct::new(0, Formula::gt(Term::var(ItemId(0)), Term::var(ItemId(1)))),
            Conjunct::new(1, Formula::gt(Term::var(ItemId(2)), Term::int(0))),
        ])
        .unwrap()
    }

    /// The reference a retraction is held to: `adm`, fresh, shown only
    /// the operations of `trace` that no victim issued.
    fn fed_survivors(
        mut adm: MonitorAdmission,
        trace: &[Operation],
        victims: &[TxnId],
    ) -> MonitorAdmission {
        for op in trace.iter().filter(|o| !victims.contains(&o.txn)) {
            adm.observe(op);
        }
        adm
    }

    #[test]
    fn global_maps_everything_to_space_zero() {
        let p = PolicySpec::global_2pl();
        assert_eq!(p.space_of(ItemId(0)), SpaceId(0));
        assert_eq!(p.space_of(ItemId(99)), SpaceId(0));
        assert!(!p.early_release && !p.dr_block);
    }

    #[test]
    fn predicate_wise_maps_by_conjunct() {
        let ic = two_conjunct_ic();
        let p = PolicySpec::predicate_wise_2pl(&ic);
        assert_eq!(p.space_of(ItemId(0)), SpaceId(0));
        assert_eq!(p.space_of(ItemId(1)), SpaceId(0));
        assert_eq!(p.space_of(ItemId(2)), SpaceId(1));
        // Unconstrained item 7 → private space 2 + 7.
        assert_eq!(p.space_of(ItemId(7)), SpaceId(9));
    }

    #[test]
    fn early_and_dr_flags() {
        let ic = two_conjunct_ic();
        let p = PolicySpec::predicate_wise_2pl_early(&ic);
        assert!(p.early_release);
        let p = p.dr_blocking();
        assert!(p.dr_block);
        assert_eq!(p.name, "PW-2PL-early+DR");
    }

    #[test]
    fn monitor_builder_sets_spec_and_name() {
        let ic = two_conjunct_ic();
        let p = PolicySpec::predicate_wise_2pl_early(&ic)
            .monitor_admission(&ic, AdmissionLevel::PwsrDr);
        let spec = p.monitor.as_ref().unwrap();
        assert_eq!(spec.scopes.len(), 2);
        assert_eq!(spec.level, AdmissionLevel::PwsrDr);
        assert_eq!(p.name, "PW-2PL-early+MON(PWSR+DR)");
    }

    #[test]
    fn for_spaces_partitions_the_catalog() {
        use pwsr_core::value::Domain;
        let ic = two_conjunct_ic();
        let mut cat = pwsr_core::catalog::Catalog::new();
        for name in ["a", "b", "c", "z"] {
            cat.add_item(name, Domain::int_range(0, 1));
        }
        let adm = MonitorAdmission::for_spaces(
            &cat,
            &PolicySpec::predicate_wise_2pl(&ic),
            AdmissionLevel::Pwsr,
        );
        // Conjunct spaces {a,b} and {c}, plus z's private space.
        assert_eq!(adm.monitor().scopes().len(), 3);
        assert!(adm.is_empty());
        assert_eq!(adm.level(), AdmissionLevel::Pwsr);
    }

    #[test]
    fn admission_rejects_then_syncs_after_rollback() {
        use pwsr_core::value::Value;
        let ic = two_conjunct_ic();
        let mut adm = MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr);
        let ops = [
            Operation::write(TxnId(1), ItemId(0), Value::Int(1)),
            Operation::read(TxnId(2), ItemId(0), Value::Int(1)),
            Operation::write(TxnId(2), ItemId(1), Value::Int(2)),
        ];
        for op in &ops {
            assert!(adm.would_admit(op.txn, op.item, op.is_write()));
            adm.push(op);
        }
        // r1(b) closes the {a,b} cycle: rejected.
        assert!(!adm.would_admit(TxnId(1), ItemId(1), false));
        // Roll T2 back, by name: its two operations go, and the
        // previously rejected access becomes admissible.
        assert_eq!(adm.retract(&[TxnId(2)]).unwrap(), (2, 0));
        assert_eq!(adm.len(), 1);
        assert!(adm.would_admit(TxnId(1), ItemId(1), false));
    }

    /// A retraction equals a fresh admission that never saw the victim
    /// on every observable, and its cost is proportional to the
    /// rewritten suffix, not the trace: aborting the last-arriving
    /// transaction of a long trace undoes only the ops at/after its
    /// first op.
    #[test]
    fn retract_touches_only_the_rewritten_suffix() {
        use pwsr_core::value::Value;
        let ic = two_conjunct_ic();
        // A long head of committed single-op transactions, then a
        // late transaction interleaved near the end.
        let mut trace: Vec<Operation> = Vec::new();
        for k in 0..200u32 {
            let txn = TxnId(k + 10);
            let item = ItemId(k % 3);
            trace.push(Operation::read(txn, item, Value::Int(0)));
            trace.push(Operation::write(txn, item, Value::Int(1)));
        }
        let victim = TxnId(1);
        trace.push(Operation::write(victim, ItemId(0), Value::Int(7)));
        trace.push(Operation::read(TxnId(500), ItemId(1), Value::Int(1)));
        trace.push(Operation::write(victim, ItemId(2), Value::Int(7)));
        let n = trace.len();

        let mut adm = MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr);
        for op in &trace {
            adm.push(op);
        }
        // Only the suffix from the victim's first op was touched.
        let (undone, repushed) = adm.retract(&[victim]).unwrap();
        assert_eq!(undone, 3, "undone must be the rewritten suffix, not O(n)");
        assert_eq!(repushed, 1);
        assert!((undone + repushed) * 10 < n);
        assert_eq!(adm.undone_ops(), 3);
        // Observable parity with an admission that never saw the victim.
        let fresh = fed_survivors(
            MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr),
            &trace,
            &[victim],
        );
        assert_eq!(adm.verdict(), fresh.verdict());
        assert_eq!(adm.monitor().schedule(), fresh.monitor().schedule());
        // The victim holds nothing any more: naming it again is free.
        assert_eq!(adm.retract(&[victim]).unwrap(), (0, 0));
        assert_eq!(adm.undone_ops(), 3);
    }

    /// Three tangled transactions, used by the two tests below.
    fn tangle() -> Vec<Operation> {
        use pwsr_core::value::Value;
        vec![
            Operation::write(TxnId(1), ItemId(0), Value::Int(1)),
            Operation::read(TxnId(2), ItemId(0), Value::Int(1)),
            Operation::write(TxnId(3), ItemId(2), Value::Int(2)),
            Operation::write(TxnId(2), ItemId(1), Value::Int(2)),
            Operation::read(TxnId(3), ItemId(1), Value::Int(2)),
            Operation::read(TxnId(1), ItemId(2), Value::Int(2)),
        ]
    }

    #[test]
    fn retract_equals_fresh_replay_at_every_abort_point() {
        let ic = two_conjunct_ic();
        let ops = tangle();
        for victim in (1..=3).map(TxnId) {
            let mut adm = MonitorAdmission::for_constraint(&ic, AdmissionLevel::PwsrDr);
            for op in &ops {
                adm.push(op);
            }
            adm.retract(&[victim]).unwrap();
            let fresh = fed_survivors(
                MonitorAdmission::for_constraint(&ic, AdmissionLevel::PwsrDr),
                &ops,
                &[victim],
            );
            assert_eq!(adm.verdict(), fresh.verdict(), "victim {victim}");
            assert_eq!(adm.len(), fresh.len());
            // The retracted monitor keeps certifying correctly.
            assert!(adm.monitor().certify_prefix());
        }
    }

    /// What trace-diffing could not state: a *set* of victims whose
    /// earliest member is not the first named. The truncation goes to
    /// T2's first operation (position 1), not T3's (position 2); the
    /// WAL hears that one truncation and then the one survivor.
    #[test]
    fn retract_of_a_set_truncates_to_its_earliest_member() {
        use pwsr_durability::wal::{scan, SyncPolicy};
        let ic = two_conjunct_ic();
        let ops = tangle();
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let mut adm =
            MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr).with_wal(wal.clone());
        for op in &ops {
            adm.push(op);
        }
        let victims = [TxnId(3), TxnId(2)];
        assert_eq!(adm.retract(&victims).unwrap(), (5, 1));
        let fresh = fed_survivors(
            MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr),
            &ops,
            &victims,
        );
        assert_eq!(adm.verdict(), fresh.verdict());
        assert_eq!(adm.monitor().schedule(), fresh.monitor().schedule());
        let records = scan(&wal.snapshot().unwrap()).records;
        assert_eq!(
            records[ops.len()..],
            [WalRecord::Truncate(1), WalRecord::Op(ops[5].clone())]
        );
    }

    /// §3.1's canonical non-PWSR interleaving: Example 2's schedule
    /// with fixed-structure TP1′ writing `b` on the else branch. The
    /// projection on d1 = {a, b} becomes w1(a), r2(a), r2(b), w1(b) —
    /// a cycle that closes exactly at the final write. Admission at
    /// level Pwsr must accept everything before it and reject it.
    #[test]
    fn admission_rejects_canonical_non_pwsr_at_first_offending_op() {
        use pwsr_core::constraint::{Conjunct, Formula, Term};
        use pwsr_core::value::Value;
        let (a, b, c) = (ItemId(0), ItemId(1), ItemId(2));
        let ic = IntegrityConstraint::new(vec![
            Conjunct::new(
                0,
                Formula::implies(
                    Formula::gt(Term::var(a), Term::int(0)),
                    Formula::gt(Term::var(b), Term::int(0)),
                ),
            ),
            Conjunct::new(1, Formula::gt(Term::var(c), Term::int(0))),
        ])
        .unwrap();
        let ops = [
            Operation::write(TxnId(1), a, Value::Int(1)),
            Operation::read(TxnId(2), a, Value::Int(1)),
            Operation::read(TxnId(2), b, Value::Int(-1)),
            Operation::write(TxnId(2), c, Value::Int(-1)),
            Operation::read(TxnId(1), c, Value::Int(-1)),
            Operation::write(TxnId(1), b, Value::Int(-1)), // TP1′'s else-branch write
        ];
        let mut adm = MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr);
        for (k, op) in ops.iter().enumerate() {
            let admitted = adm.would_admit(op.txn, op.item, op.is_write());
            if k < 5 {
                assert!(admitted, "op {k} is still PWSR-safe");
                adm.push(op);
            } else {
                assert!(!admitted, "w1(b) closes the d1 cycle and must be rejected");
            }
        }
        assert_eq!(adm.len(), 5);
        assert!(adm.verdict().pwsr());
    }

    /// `checkpoint` raises the undo-log floor to the oldest live
    /// transaction's first operation, bounding the log's memory to the
    /// live suffix; a retraction that reaches below a raised floor
    /// starts over (`Reset`, fresh monitor, the admission's own
    /// survivors again), stays observably correct, and recovers.
    #[test]
    fn checkpoint_bounds_the_log_to_the_live_suffix() {
        use pwsr_core::value::Value;
        use pwsr_durability::recover::recover;
        use pwsr_durability::wal::SyncPolicy;
        let ic = two_conjunct_ic();
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let mut adm =
            MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr).with_wal(wal.clone());
        // 100 settled single-op transactions, then one live straggler.
        let mut trace: Vec<Operation> = Vec::new();
        for k in 0..100u32 {
            trace.push(Operation::write(
                TxnId(k + 10),
                ItemId(k % 3),
                Value::Int(1),
            ));
        }
        let live = TxnId(500);
        trace.push(Operation::read(live, ItemId(0), Value::Int(1)));
        for op in &trace {
            adm.push(op);
        }
        // Unbounded log: one delta per push.
        assert_eq!(adm.log_len(), trace.len());
        assert_eq!(adm.log_floor(), 0);
        // Checkpoint at the live set {500}: the floor jumps to its
        // first operation and the log shrinks to the live suffix.
        let floor = adm.checkpoint([live]);
        assert_eq!(floor, 100, "oldest live txn's first op");
        assert_eq!(adm.log_floor(), 100);
        assert_eq!(adm.log_len(), 1);
        assert_eq!(adm.len(), trace.len(), "checkpoint retracts nothing");
        // The live suffix still aborts incrementally.
        assert_eq!(adm.retract(&[live]).unwrap(), (1, 0));
        // A checkpoint with nothing live drains the whole log.
        let floor = adm.checkpoint([]);
        assert_eq!(floor, adm.len());
        assert_eq!(adm.log_len(), 0);
        // Retracting below the floor (a cascade aborted a "settled"
        // transaction) starts over: everything is taken back, the 99
        // survivors are pushed again — same observables as an
        // admission that never saw the two victims, and the log
        // (… `Reset`, 99 × `Op`) recovers to the same monitor.
        let settled = trace[0].txn;
        assert_eq!(adm.retract(&[settled]).unwrap(), (100, 99));
        let fresh = fed_survivors(
            MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr),
            &trace,
            &[live, settled],
        );
        assert_eq!(adm.verdict(), fresh.verdict());
        assert_eq!(adm.monitor().schedule(), fresh.monitor().schedule());
        assert_eq!(adm.log_floor(), 0, "the fresh monitor's pushes are logged");
        let scopes = adm.monitor().scopes().to_vec();
        let rec = recover(scopes, None, &wal.snapshot().unwrap()).unwrap();
        assert_eq!(rec.monitor.verdict(), adm.verdict());
        assert_eq!(rec.monitor.schedule(), adm.monitor().schedule());
        assert_eq!(rec.monitor.log_floor(), adm.log_floor());
    }

    /// Compaction composes with retraction: settle a long head,
    /// checkpoint, compact it away, then abort the one live transaction
    /// — the retraction touches only the live suffix and every
    /// observable matches a fresh admission over the surviving trace.
    #[test]
    fn retract_after_compaction_touches_only_the_live_suffix() {
        use pwsr_core::value::Value;
        let ic = two_conjunct_ic();
        let mut adm = MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr);
        let mut trace: Vec<Operation> = Vec::new();
        for k in 0..100u32 {
            trace.push(Operation::write(
                TxnId(k + 10),
                ItemId(k % 3),
                Value::Int(1),
            ));
        }
        let live = TxnId(500);
        trace.push(Operation::read(live, ItemId(0), Value::Int(1)));
        for op in &trace {
            adm.push(op);
            if op.txn != live {
                adm.finish_txn(op.txn);
            }
        }
        assert_eq!(adm.checkpoint([live]), 100);
        assert_eq!(adm.compaction_frontier(), 100);
        let stats = adm.compact();
        assert_eq!((stats.frontier, stats.txns_summarized), (100, 100));
        assert_eq!(adm.len(), trace.len(), "compaction drops no positions");
        // Summarized transactions are flatly refused.
        assert!(!adm.would_admit(TxnId(10), ItemId(5), true));
        // Abort the live straggler: the incremental path retracts only
        // its operation — the compacted head is never revisited.
        assert_eq!(adm.retract(&[live]).unwrap(), (1, 0));
        let fresh = fed_survivors(
            MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr),
            &trace,
            &[live],
        );
        assert_eq!(adm.verdict(), fresh.verdict());
        assert!(
            adm.resident_bytes_estimate() < fresh.resident_bytes_estimate(),
            "the compacted admission must be smaller than the uncompacted one"
        );
        // A victim in the compacted prefix can no longer be retracted.
        assert_eq!(
            adm.retract(&[TxnId(10)]),
            Err(CoreError::SummarizedTransaction { txn: TxnId(10) })
        );
    }

    #[test]
    fn table_policy_with_fallback() {
        let mut table = HashMap::new();
        table.insert(ItemId(0), SpaceId(5));
        let p = PolicySpec::from_table("sites", table, 100);
        assert_eq!(p.space_of(ItemId(0)), SpaceId(5));
        assert_eq!(p.space_of(ItemId(3)), SpaceId(103));
    }

    /// The level-implication partial order: `Serializable ⇒ Pwsr`,
    /// `PwsrDr ⇒ Pwsr`, reflexive, and nothing else.
    #[test]
    fn level_implication_table() {
        use AdmissionLevel::*;
        for l in [Serializable, Pwsr, PwsrDr] {
            assert!(level_implies(l, l));
        }
        assert!(level_implies(Serializable, Pwsr));
        assert!(level_implies(PwsrDr, Pwsr));
        assert!(!level_implies(Pwsr, Serializable));
        assert!(!level_implies(Pwsr, PwsrDr));
        assert!(!level_implies(Serializable, PwsrDr));
        assert!(!level_implies(PwsrDr, Serializable));
    }

    #[test]
    fn certificate_covers_and_satisfies() {
        let cert = StaticCertificate::full(AdmissionLevel::Serializable, 3);
        assert_eq!(cert.len(), 3);
        assert!(!cert.is_empty());
        assert!(cert.covers(TxnId(1)) && cert.covers(TxnId(3)));
        assert!(!cert.covers(TxnId(4)));
        assert!(cert.satisfies(AdmissionLevel::Pwsr));
        assert!(cert.satisfies(AdmissionLevel::Serializable));
        assert!(!cert.satisfies(AdmissionLevel::PwsrDr));
        assert_eq!(
            cert.txns().collect::<Vec<_>>(),
            [TxnId(1), TxnId(2), TxnId(3)]
        );
        let explicit =
            StaticCertificate::new(AdmissionLevel::Pwsr, [TxnId(7)].into_iter().collect());
        assert!(explicit.covers(TxnId(7)) && !explicit.covers(TxnId(1)));
    }

    /// A certificate weaker than the admission floor must not attach —
    /// neither via `with_certificate` nor the policy builder.
    #[test]
    fn weak_certificate_is_rejected() {
        let ic = two_conjunct_ic();
        let weak = StaticCertificate::full(AdmissionLevel::Pwsr, 2);
        let adm = MonitorAdmission::for_constraint(&ic, AdmissionLevel::PwsrDr)
            .with_certificate(weak.clone());
        assert!(adm.certificate().is_none());
        assert!(!adm.covers(TxnId(1)));
        let p = PolicySpec::predicate_wise_2pl(&ic)
            .monitor_admission(&ic, AdmissionLevel::PwsrDr)
            .certified(weak);
        assert!(p.monitor.as_ref().unwrap().certificate.is_none());
        assert!(!p.name.contains("CERT"));
        // A strong-enough one attaches and tags the name.
        let strong = StaticCertificate::full(AdmissionLevel::PwsrDr, 2);
        let p = PolicySpec::predicate_wise_2pl(&ic)
            .monitor_admission(&ic, AdmissionLevel::Pwsr)
            .certified(strong);
        let spec = p.monitor.as_ref().unwrap();
        assert!(spec.certificate.is_some());
        assert!(p.name.ends_with("+CERT(2)"));
        assert!(spec.admission().covers(TxnId(2)));
    }

    /// Certified transactions are admitted unconditionally and their
    /// operations never reach the monitor; uncertified ones still get
    /// full certification over the *filtered* sub-trace, and `retract`
    /// agrees with a fresh admission on that sub-trace — a certified
    /// victim has nothing recorded and costs nothing.
    #[test]
    fn certificate_fast_path_skips_and_syncs_filtered() {
        use pwsr_core::value::Value;
        let ic = two_conjunct_ic();
        // T1 is certified (touching only item 2, disjoint from the
        // others — a conflict-closed singleton component); T2/T3
        // tangle on items 0/1 and stay monitored.
        let cert = StaticCertificate::new(AdmissionLevel::Pwsr, [TxnId(1)].into_iter().collect());
        let mut adm =
            MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr).with_certificate(cert);
        let trace = [
            Operation::write(TxnId(1), ItemId(2), Value::Int(1)),
            Operation::write(TxnId(2), ItemId(0), Value::Int(1)),
            Operation::read(TxnId(1), ItemId(2), Value::Int(1)),
            Operation::read(TxnId(3), ItemId(0), Value::Int(1)),
            Operation::write(TxnId(3), ItemId(1), Value::Int(2)),
        ];
        // Certified accesses admit without consulting the monitor.
        assert!(adm.would_admit(TxnId(1), ItemId(2), true));
        let mut pushed = 0;
        for op in &trace {
            assert!(adm.would_admit(op.txn, op.item, op.is_write()));
            pushed += usize::from(adm.observe(op));
        }
        assert_eq!(pushed, 3, "only uncertified ops reach the monitor");
        assert_eq!(adm.len(), 3);
        assert_eq!(adm.skipped_ops(), 2);
        // Abort T3: the monitor retracts only its ops; parity with a
        // fresh, equally certified admission over the surviving trace.
        assert_eq!(adm.retract(&[TxnId(3)]).unwrap(), (2, 0));
        assert_eq!(adm.len(), 1);
        let fresh = fed_survivors(
            MonitorAdmission::for_constraint(&ic, AdmissionLevel::Pwsr).with_certificate(
                StaticCertificate::new(AdmissionLevel::Pwsr, [TxnId(1)].into_iter().collect()),
            ),
            &trace,
            &[TxnId(3)],
        );
        assert_eq!(adm.verdict(), fresh.verdict());
        assert_eq!(adm.monitor().schedule(), fresh.monitor().schedule());
        assert_eq!(fresh.skipped_ops(), 2, "T1's ops skipped there too");
        assert_eq!(adm.skipped_ops(), 2);
        // Aborting the certified T1 finds nothing of it to retract.
        assert_eq!(adm.retract(&[TxnId(1)]).unwrap(), (0, 0));
        assert_eq!(adm.len(), 1);
    }
}
