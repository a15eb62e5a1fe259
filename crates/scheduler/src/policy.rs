//! Concurrency-control policy specifications.
//!
//! A [`PolicySpec`] tells the executor (a) which lock space each data
//! item belongs to, (b) whether a transaction's locks in a space may be
//! released as soon as its access plan shows no further accesses there
//! (*early release* — the long-transaction benefit §1 motivates), and
//! (c) whether reads of items last written by an unfinished transaction
//! must block (*DR blocking*, the operational form of Theorem 2).
//! Runtime certification is described once, by a [`MonitorSpec`]: the
//! seeded runner reads it from [`PolicySpec::monitor`], the threaded
//! executors take it as an argument, and [`MonitorAdmission::new`]
//! builds the admission from it.
//!
//! | constructor | spaces | guarantees on the committed schedule |
//! |---|---|---|
//! | [`PolicySpec::global_2pl`] | one | conflict-serializable |
//! | [`PolicySpec::predicate_wise_2pl`] | per conjunct | PWSR |
//! | [`PolicySpec::predicate_wise_2pl_early`] | per conjunct | PWSR, more interleaving |
//! | [`PolicySpec::dr_blocking`] (wrapper) | unchanged | + delayed-read |

use crate::error::SchedError;
use crate::lock::SpaceId;
use crate::metrics::Metrics;
use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::IntegrityConstraint;
use pwsr_core::error::CoreError;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::{AdmissionLevel, CompactStats, OnlineMonitor, Verdict};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::ItemSet;
use pwsr_durability::wal::SharedWal;
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
/// whose admission would sink the verdict below the spec's
/// [`AdmissionLevel`] is rejected — the paper's verdicts driving
/// scheduling decisions instead of describing finished histories.
///
/// The speculative test ([`MonitorAdmission::would_admit`]) never
/// mutates; an executor that aborts says whom
/// ([`MonitorAdmission::retract_txns`]) and the monitor takes their
/// operations back through its undo-log — `O(ops undone + ops
/// re-pushed)` graph work, so every step stays on the incremental
/// path.
#[derive(Debug)]
pub struct MonitorAdmission {
    monitor: OnlineMonitor,
    /// What this admission was built from: scopes, floor, certificate,
    /// WAL.
    spec: MonitorSpec,
    /// Operations skipped via the certificate.
    skipped_ops: u64,
    /// Operations retracted via the undo-log across all retractions.
    undone_ops: u64,
}

impl MonitorAdmission {
    /// The admission `spec` describes: a monitor over its scopes at its
    /// floor. Transactions its [trusted
    /// certificate](MonitorSpec::trusted_certificate) covers are
    /// admitted without consulting the monitor and their operations are
    /// never pushed. Its WAL becomes the monitor's journal
    /// ([`OnlineMonitor::with_journal`]): every monitored transition is
    /// journaled *before* it is applied, so a crash recovers to exactly
    /// this admission's monitor state (see `pwsr_durability::recover`).
    /// Certified skips are not journaled — replay reconstructs the
    /// monitored sub-trace, which is the whole monitor state.
    pub fn new(spec: &MonitorSpec) -> MonitorAdmission {
        let mut monitor = OnlineMonitor::new(spec.scopes.clone());
        if let Some(wal) = &spec.wal {
            monitor = monitor.with_journal(Box::new(wal.clone()));
        }
        MonitorAdmission {
            monitor,
            spec: spec.clone(),
            skipped_ops: 0,
            undone_ops: 0,
        }
    }

    /// The spec this admission was built from.
    pub fn spec(&self) -> &MonitorSpec {
        &self.spec
    }

    /// Would this access keep the configured verdict level? Read-only.
    /// Statically-certified transactions are admitted without touching
    /// the monitor — the zero-cost fast path.
    pub fn would_admit(&self, txn: TxnId, item: ItemId, is_write: bool) -> bool {
        if self.covers(txn) {
            return true;
        }
        self.monitor.admits(txn, item, is_write, self.spec.level)
    }

    /// Is `txn` on the certified fast path?
    pub fn covers(&self, txn: TxnId) -> bool {
        self.spec
            .trusted_certificate()
            .is_some_and(|c| c.covers(txn))
    }

    /// Record an admitted (or already-committed) operation. Logged, so
    /// an abort can retract it through the undo-log.
    pub fn push_logged(&mut self, op: &Operation) -> Verdict {
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
            self.push_logged(op);
            true
        }
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
    /// WAL hears what the monitor applies: `Truncate(first)`, then one
    /// `Op` per survivor. A certified victim has nothing recorded and
    /// costs nothing; a summarized one is rejected with
    /// [`CoreError::SummarizedTransaction`], nothing retracted. Returns
    /// `(ops undone, ops re-pushed)`.
    ///
    /// Panics if a victim's first operation lies below the undo-log
    /// floor: the caller's [`checkpoint`](Self::checkpoint) must have
    /// named every transaction an abort can still take back.
    pub fn retract_txns(&mut self, victims: &[TxnId]) -> Result<(usize, usize), CoreError> {
        let cost = self.monitor.retract_txns(victims)?;
        self.undone_ops += cost.0 as u64;
        Ok(cost)
    }

    /// Raise the undo-log floor to the first operation of the oldest
    /// transaction in `live` (or the whole trace when `live` is empty):
    /// everything before that point is permanent, so its per-push
    /// deltas are dropped — the long-run memory bound for the
    /// admission log ([`OnlineMonitor`] keeps one delta per logged push
    /// otherwise). Only an actual raise is journaled. Returns the new
    /// floor.
    ///
    /// The contract is [`ShardedMonitor::checkpoint`]'s: after the
    /// checkpoint, [`retract_txns`](Self::retract_txns) panics if asked
    /// to reach below the floor, so `live` must include every
    /// transaction that may still abort — under a cascade, that is also
    /// every finished transaction that read a write of one that may.
    ///
    /// [`ShardedMonitor::checkpoint`]: pwsr_core::monitor::sharded::ShardedMonitor::checkpoint
    pub fn checkpoint<I: IntoIterator<Item = TxnId>>(&mut self, live: I) -> usize {
        let floor = live
            .into_iter()
            .filter_map(|t| self.monitor.first_op_of(t).map(|p| p.0))
            .min()
            .unwrap_or(self.monitor.len());
        self.monitor.checkpoint(floor)
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

    /// Operations retracted through the undo-log across all aborts.
    pub fn undone_ops(&self) -> u64 {
        self.undone_ops
    }

    /// Operations skipped via the static certificate.
    pub fn skipped_ops(&self) -> u64 {
        self.skipped_ops
    }
}

/// The monitor-admission half of a policy — which projection scopes to
/// certify, the verdict floor to hold, an optional certificate and WAL,
/// and the compaction cadence — and the one description every executor
/// is configured by.
#[derive(Clone, Debug)]
pub struct MonitorSpec {
    /// Projection scopes (conjunct data sets).
    pub scopes: Vec<ItemSet>,
    /// The verdict floor admitted operations must preserve; an executor
    /// whose committed schedule ends below it returns
    /// [`SchedError::FloorBreached`] instead of `Ok`.
    pub level: AdmissionLevel,
    /// Optional static fast path: certified transactions skip runtime
    /// certification (see [`StaticCertificate`]). Only a
    /// [trusted](Self::trusted_certificate) one is used.
    pub certificate: Option<StaticCertificate>,
    /// Optional durability: a shared write-ahead log the admission
    /// journals every monitored transition into (the handle is shared,
    /// so the caller keeps recovery access to the same log). An I/O
    /// error the log's policy could not heal stays in the log, sticky,
    /// until the executor seals it at the end of the run and turns it
    /// into [`SchedError::WalFailed`].
    pub wal: Option<SharedWal>,
    /// Committed-prefix compaction cadence, read by the two threaded
    /// executors (the seeded runner does not compact): `0` (the
    /// default) disables compaction; `n > 0` makes the executor declare
    /// each transaction finished at commit and, after every `n`
    /// commits, checkpoint past the finished prefix and [`compact`] the
    /// monitor. The verdict is unaffected (the twin-harness property),
    /// but the returned schedule then retains only the live tail — its
    /// [`base`] reports how many operations were summarized away.
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

    /// The certificate, if it may stand in for runtime certification:
    /// one whose level implies the floor
    /// ([`StaticCertificate::satisfies`]). A weaker one is ignored and
    /// every transaction is monitored.
    pub fn trusted_certificate(&self) -> Option<&StaticCertificate> {
        self.certificate
            .as_ref()
            .filter(|c| c.satisfies(self.level))
    }

    /// The end of every executor's run: make the WAL's tail durable
    /// (a crash after this point loses nothing) and copy its counters
    /// into `metrics`; refuse to report success over a sticky (unhealed)
    /// I/O error — durable history is incomplete — with
    /// [`SchedError::WalFailed`]; then refuse it over a committed
    /// `schedule` whose quiescent `verdict` misses the floor, with
    /// [`SchedError::FloorBreached`]. Incidents the log's policy healed
    /// (retry / degrade) pass with only `wal_io_errors` raised.
    pub(crate) fn seal(
        &self,
        metrics: &mut Metrics,
        verdict: Verdict,
        schedule: &Schedule,
    ) -> crate::error::Result<()> {
        if let Some(wal) = &self.wal {
            wal.sync();
            let ws = wal.stats();
            metrics.wal_appends = ws.appends;
            metrics.wal_bytes = ws.bytes;
            metrics.wal_fsyncs = ws.fsyncs;
            metrics.wal_io_errors = ws.io_errors;
            metrics.injected_faults = ws.injected_faults;
            if let Some(error) = wal.take_error() {
                return Err(SchedError::WalFailed {
                    error: error.to_string(),
                });
            }
        }
        if !verdict.meets(self.level) {
            return Err(SchedError::FloorBreached {
                level: self.level,
                verdict,
                schedule: Box::new(schedule.clone()),
            });
        }
        Ok(())
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
    /// When set, the seeded runner keeps a [`MonitorAdmission`] over
    /// its trace and aborts (for restart) any transaction whose next
    /// operation would sink the verdict below `level` — under every
    /// discipline, except that SGT certifies its own space partition
    /// instead. The threaded executors take their [`MonitorSpec`] as an
    /// argument and do not read this.
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
        self.monitor = Some(MonitorSpec::new(ic.scopes(), level));
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
    /// half of the policy: transactions the certificate covers skip
    /// runtime certification entirely. A certificate weaker than the
    /// admission floor is not [trusted](MonitorSpec::trusted_certificate)
    /// and is dropped (the name is only tagged when the fast path is
    /// actually active).
    ///
    /// Panics unless [`PolicySpec::monitor_admission`] came first.
    pub fn certified(mut self, certificate: StaticCertificate) -> PolicySpec {
        let spec = (self.monitor.as_mut())
            .expect("PolicySpec::certified needs PolicySpec::monitor_admission first");
        spec.certificate = Some(certificate);
        match spec.trusted_certificate().map(StaticCertificate::len) {
            Some(n) => self.name = format!("{}+CERT({n})", self.name),
            None => spec.certificate = None,
        }
        self
    }

    /// Attach a write-ahead log to the monitor-admission half of the
    /// policy: every admitted operation and every retraction is
    /// journaled into `wal`, making the run crash-recoverable. The
    /// caller keeps a clone of the handle for recovery.
    ///
    /// Panics unless [`PolicySpec::monitor_admission`] came first.
    pub fn durable(mut self, wal: SharedWal) -> PolicySpec {
        let spec = (self.monitor.as_mut())
            .expect("PolicySpec::durable needs PolicySpec::monitor_admission first");
        spec.wal = Some(wal);
        self.name = format!("{}+WAL", self.name);
        self
    }

    /// The policy's lock-space partition of `catalog`, one scope per
    /// space in space order — what per-space certification monitors,
    /// so that it and the lock layout agree on what "serializable per
    /// unit" means.
    pub fn space_scopes(&self, catalog: &Catalog) -> Vec<ItemSet> {
        let mut by_space: BTreeMap<SpaceId, ItemSet> = BTreeMap::new();
        for item in catalog.items() {
            by_space
                .entry(self.space_of(item))
                .or_default()
                .insert(item);
        }
        by_space.into_values().collect()
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
    fn space_scopes_partitions_the_catalog() {
        use pwsr_core::value::Domain;
        let ic = two_conjunct_ic();
        let mut cat = pwsr_core::catalog::Catalog::new();
        for name in ["a", "b", "c", "z"] {
            cat.add_item(name, Domain::int_range(0, 1));
        }
        let scopes = PolicySpec::predicate_wise_2pl(&ic).space_scopes(&cat);
        // Conjunct spaces {a,b} and {c}, plus z's private space.
        let set = |items: &[u32]| items.iter().map(|&i| ItemId(i)).collect::<ItemSet>();
        assert_eq!(scopes, [set(&[0, 1]), set(&[2]), set(&[3])]);
    }

    #[test]
    fn admission_rejects_then_syncs_after_rollback() {
        use pwsr_core::value::Value;
        let ic = two_conjunct_ic();
        let mut adm = MonitorAdmission::new(&MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr));
        let ops = [
            Operation::write(TxnId(1), ItemId(0), Value::Int(1)),
            Operation::read(TxnId(2), ItemId(0), Value::Int(1)),
            Operation::write(TxnId(2), ItemId(1), Value::Int(2)),
        ];
        for op in &ops {
            assert!(adm.would_admit(op.txn, op.item, op.is_write()));
            adm.push_logged(op);
        }
        // r1(b) closes the {a,b} cycle: rejected.
        assert!(!adm.would_admit(TxnId(1), ItemId(1), false));
        // Roll T2 back, by name: its two operations go, and the
        // previously rejected access becomes admissible.
        assert_eq!(adm.retract_txns(&[TxnId(2)]).unwrap(), (2, 0));
        assert_eq!(adm.monitor().len(), 1);
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

        let mut adm = MonitorAdmission::new(&MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr));
        for op in &trace {
            adm.push_logged(op);
        }
        // Only the suffix from the victim's first op was touched.
        let (undone, repushed) = adm.retract_txns(&[victim]).unwrap();
        assert_eq!(undone, 3, "undone must be the rewritten suffix, not O(n)");
        assert_eq!(repushed, 1);
        assert!((undone + repushed) * 10 < n);
        assert_eq!(adm.undone_ops(), 3);
        // Observable parity with an admission that never saw the victim.
        let fresh = fed_survivors(
            MonitorAdmission::new(&MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)),
            &trace,
            &[victim],
        );
        assert_eq!(adm.monitor().verdict(), fresh.monitor().verdict());
        assert_eq!(adm.monitor().schedule(), fresh.monitor().schedule());
        // The victim holds nothing any more: naming it again is free.
        assert_eq!(adm.retract_txns(&[victim]).unwrap(), (0, 0));
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
            let mut adm =
                MonitorAdmission::new(&MonitorSpec::new(ic.scopes(), AdmissionLevel::PwsrDr));
            for op in &ops {
                adm.push_logged(op);
            }
            adm.retract_txns(&[victim]).unwrap();
            let fresh = fed_survivors(
                MonitorAdmission::new(&MonitorSpec::new(ic.scopes(), AdmissionLevel::PwsrDr)),
                &ops,
                &[victim],
            );
            assert_eq!(
                adm.monitor().verdict(),
                fresh.monitor().verdict(),
                "victim {victim}"
            );
            assert_eq!(adm.monitor().len(), fresh.monitor().len());
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
        use pwsr_durability::wal::{scan, SyncPolicy, WalRecord};
        let ic = two_conjunct_ic();
        let ops = tangle();
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let mut adm = MonitorAdmission::new(&MonitorSpec {
            wal: Some(wal.clone()),
            ..MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)
        });
        for op in &ops {
            adm.push_logged(op);
        }
        let victims = [TxnId(3), TxnId(2)];
        assert_eq!(adm.retract_txns(&victims).unwrap(), (5, 1));
        let fresh = fed_survivors(
            MonitorAdmission::new(&MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)),
            &ops,
            &victims,
        );
        assert_eq!(adm.monitor().verdict(), fresh.monitor().verdict());
        assert_eq!(adm.monitor().schedule(), fresh.monitor().schedule());
        let records = scan(&wal.dump_bytes().unwrap()).records;
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
        let mut adm = MonitorAdmission::new(&MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr));
        for (k, op) in ops.iter().enumerate() {
            let admitted = adm.would_admit(op.txn, op.item, op.is_write());
            if k < 5 {
                assert!(admitted, "op {k} is still PWSR-safe");
                adm.push_logged(op);
            } else {
                assert!(!admitted, "w1(b) closes the d1 cycle and must be rejected");
            }
        }
        assert_eq!(adm.monitor().len(), 5);
        assert!(adm.monitor().verdict().pwsr());
    }

    /// `checkpoint` raises the undo-log floor to the oldest live
    /// transaction's first operation, bounding the log's memory to the
    /// live suffix; the live suffix still retracts, and the log, floor
    /// raises included, recovers. (A retraction below the floor panics:
    /// `truncate_below_floor_panics` in `pwsr_core`'s monitor.)
    #[test]
    fn checkpoint_bounds_the_log_to_the_live_suffix() {
        use pwsr_core::value::Value;
        use pwsr_durability::recover::recover;
        use pwsr_durability::wal::SyncPolicy;
        let ic = two_conjunct_ic();
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let mut adm = MonitorAdmission::new(&MonitorSpec {
            wal: Some(wal.clone()),
            ..MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)
        });
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
            adm.push_logged(op);
        }
        // Unbounded log: one delta per push.
        assert_eq!(adm.monitor().logged_len(), trace.len());
        assert_eq!(adm.monitor().log_floor(), 0);
        // Checkpoint at the live set {500}: the floor jumps to its
        // first operation and the log shrinks to the live suffix.
        let floor = adm.checkpoint([live]);
        assert_eq!(floor, 100, "oldest live txn's first op");
        assert_eq!(adm.monitor().log_floor(), 100);
        assert_eq!(adm.monitor().logged_len(), 1);
        assert_eq!(
            adm.monitor().len(),
            trace.len(),
            "checkpoint retracts nothing"
        );
        // The live suffix still aborts incrementally.
        assert_eq!(adm.retract_txns(&[live]).unwrap(), (1, 0));
        // A checkpoint with nothing live drains the whole log.
        let floor = adm.checkpoint([]);
        assert_eq!(floor, adm.monitor().len());
        assert_eq!(adm.monitor().logged_len(), 0);
        // The log (100 × `Op`, `Floor`, `Op`, `Truncate`, `Floor`)
        // recovers to the same monitor, floor included.
        let scopes = adm.monitor().scopes().to_vec();
        let rec = recover(scopes, None, &wal.dump_bytes().unwrap()).unwrap();
        assert_eq!(rec.monitor.verdict(), adm.monitor().verdict());
        assert_eq!(rec.monitor.schedule(), adm.monitor().schedule());
        assert_eq!(rec.monitor.log_floor(), adm.monitor().log_floor());
    }

    /// Compaction composes with retraction: settle a long head,
    /// checkpoint, compact it away, then abort the one live transaction
    /// — the retraction touches only the live suffix and every
    /// observable matches a fresh admission over the surviving trace.
    #[test]
    fn retract_after_compaction_touches_only_the_live_suffix() {
        use pwsr_core::value::Value;
        let ic = two_conjunct_ic();
        let mut adm = MonitorAdmission::new(&MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr));
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
            adm.push_logged(op);
            if op.txn != live {
                adm.finish_txn(op.txn);
            }
        }
        assert_eq!(adm.checkpoint([live]), 100);
        assert_eq!(adm.monitor().compaction_frontier(), 100);
        let stats = adm.compact();
        assert_eq!((stats.frontier, stats.txns_summarized), (100, 100));
        assert_eq!(
            adm.monitor().len(),
            trace.len(),
            "compaction drops no positions"
        );
        // Summarized transactions are flatly refused.
        assert!(!adm.would_admit(TxnId(10), ItemId(5), true));
        // Abort the live straggler: the incremental path retracts only
        // its operation — the compacted head is never revisited.
        assert_eq!(adm.retract_txns(&[live]).unwrap(), (1, 0));
        let fresh = fed_survivors(
            MonitorAdmission::new(&MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)),
            &trace,
            &[live],
        );
        assert_eq!(adm.monitor().verdict(), fresh.monitor().verdict());
        assert!(
            adm.monitor().resident_bytes_estimate() < fresh.monitor().resident_bytes_estimate(),
            "the compacted admission must be smaller than the uncompacted one"
        );
        // A victim in the compacted prefix can no longer be retracted.
        assert_eq!(
            adm.retract_txns(&[TxnId(10)]),
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
    /// neither in a spec an admission is built from nor via the policy
    /// builder.
    #[test]
    fn weak_certificate_is_rejected() {
        let ic = two_conjunct_ic();
        let weak = StaticCertificate::full(AdmissionLevel::Pwsr, 2);
        let adm = MonitorAdmission::new(&MonitorSpec {
            certificate: Some(weak.clone()),
            ..MonitorSpec::new(ic.scopes(), AdmissionLevel::PwsrDr)
        });
        assert!(adm.spec().trusted_certificate().is_none());
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
        assert!(MonitorAdmission::new(spec).covers(TxnId(2)));
    }

    #[test]
    #[should_panic(expected = "monitor_admission")]
    fn certified_before_monitor_admission_panics() {
        let cert = StaticCertificate::full(AdmissionLevel::Pwsr, 2);
        let _ = PolicySpec::predicate_wise_2pl(&two_conjunct_ic()).certified(cert);
    }

    #[test]
    #[should_panic(expected = "monitor_admission")]
    fn durable_before_monitor_admission_panics() {
        use pwsr_durability::wal::SyncPolicy;
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let _ = PolicySpec::predicate_wise_2pl(&two_conjunct_ic()).durable(wal);
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
        let spec = MonitorSpec {
            certificate: Some(cert),
            ..MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)
        };
        let mut adm = MonitorAdmission::new(&spec);
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
        assert_eq!(adm.monitor().len(), 3);
        assert_eq!(adm.skipped_ops(), 2);
        // Abort T3: the monitor retracts only its ops; parity with a
        // fresh, equally certified admission over the surviving trace.
        assert_eq!(adm.retract_txns(&[TxnId(3)]).unwrap(), (2, 0));
        assert_eq!(adm.monitor().len(), 1);
        let fresh = fed_survivors(MonitorAdmission::new(&spec), &trace, &[TxnId(3)]);
        assert_eq!(adm.monitor().verdict(), fresh.monitor().verdict());
        assert_eq!(adm.monitor().schedule(), fresh.monitor().schedule());
        assert_eq!(fresh.skipped_ops(), 2, "T1's ops skipped there too");
        assert_eq!(adm.skipped_ops(), 2);
        // Aborting the certified T1 finds nothing of it to retract.
        assert_eq!(adm.retract_txns(&[TxnId(1)]).unwrap(), (0, 0));
        assert_eq!(adm.monitor().len(), 1);
    }
}
