//! Optimistic concurrency control with per-space backward validation.
//!
//! The lock-based policies in [`crate::exec`] *block*; this executor
//! never does. Transactions read the published store and buffer their
//! writes privately; when a transaction completes its accesses to a
//! lock space (per its access plan — exactly the fixed-structure
//! programs of Theorem 1 have exact plans), that space is **validated**
//! (have any items it read there been republished since?) and, on
//! success, its writes for that space are published immediately. A
//! failed validation aborts and restarts the whole transaction.
//!
//! With one global space this is classical backward-validation OCC and
//! yields serializable schedules. With one space per conjunct it yields
//! **PWSR** schedules whose per-conjunct serialization orders are the
//! per-space publish orders — and because a space can be published
//! before the transaction finishes, the schedules are generally *not*
//! delayed-read: OCC-PW is a Theorem-1 workload generator, not a
//! Theorem-2 one (tests check both facts).

use crate::error::{Result, SchedError};
use crate::exec::{ExecConfig, ExecOutcome};
use crate::lock::SpaceId;
use crate::metrics::Metrics;
use crate::plan::access_plan;
use crate::policy::PolicySpec;
use pwsr_core::catalog::Catalog;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::op::{OpStruct, Operation};
use pwsr_core::schedule::Schedule;
use pwsr_core::state::DbState;
use pwsr_tplang::ast::Program;
use pwsr_tplang::session::{Pending, ProgramSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// OCC-specific counters (folded into [`Metrics`] plus extras).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OccStats {
    /// Space validations performed.
    pub validations: u64,
    /// Validations that failed (each aborts one transaction).
    pub validation_failures: u64,
}

/// Outcome of an OCC run: the usual execution outcome plus OCC stats.
#[derive(Clone, Debug)]
pub struct OccOutcome {
    /// Committed schedule, final state, generic metrics.
    pub exec: ExecOutcome,
    /// Validation counters.
    pub occ: OccStats,
}

struct OccTxn<'a> {
    txn: TxnId,
    session: ProgramSession<'a>,
    plan: Option<Vec<OpStruct>>,
    /// Item → version observed at (first) read.
    read_versions: BTreeMap<ItemId, u64>,
    /// Read ops already appended to the trace (for rollback on abort).
    emitted_reads: Vec<usize>,
    /// Buffered writes, in program order.
    write_buffer: Vec<Operation>,
    /// Spaces already validated & published.
    published: BTreeSet<SpaceId>,
    done: bool,
    restarts: u32,
}

impl<'a> OccTxn<'a> {
    fn reset(&mut self) {
        self.session.restart();
        self.read_versions.clear();
        self.emitted_reads.clear();
        self.write_buffer.clear();
        self.published.clear();
        self.done = false;
        self.restarts += 1;
    }
}

/// Run the programs under OCC. The policy contributes its item→space
/// map and the `early_release` flag (interpreted as: validate & publish
/// each space as soon as the access plan shows it finished; without it,
/// one validation at transaction end).
pub fn run_occ(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    policy: &PolicySpec,
    cfg: &ExecConfig,
) -> Result<OccOutcome> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut txns: Vec<OccTxn<'_>> = programs
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let txn = TxnId(k as u32 + 1);
            OccTxn {
                txn,
                session: ProgramSession::new(p, catalog, txn),
                plan: access_plan(p, catalog, cfg.plan_mode),
                read_versions: BTreeMap::new(),
                emitted_reads: Vec::new(),
                write_buffer: Vec::new(),
                published: BTreeSet::new(),
                done: false,
                restarts: 0,
            }
        })
        .collect();
    let mut store = initial.clone();
    let mut versions: HashMap<ItemId, u64> = HashMap::new();
    let mut trace: Vec<Operation> = Vec::new();
    let mut metrics = Metrics::default();
    let mut occ = OccStats::default();

    while !txns.iter().all(|t| t.done) {
        if metrics.steps >= cfg.max_steps {
            return Err(SchedError::StepBudgetExhausted {
                max_steps: cfg.max_steps,
                pending: txns.iter().filter(|t| !t.done).map(|t| t.txn).collect(),
            });
        }
        let live: Vec<usize> = txns
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.done)
            .map(|(i, _)| i)
            .collect();
        let pick = live[rng.random_range(0..live.len())];
        metrics.steps += 1;
        let t = &mut txns[pick];
        match t.session.pending()? {
            Pending::NeedRead(item) => {
                let value = store.require(item)?.clone();
                let op = t.session.feed_read(value)?;
                t.read_versions
                    .entry(item)
                    .or_insert_with(|| versions.get(&item).copied().unwrap_or(0));
                t.emitted_reads.push(trace.len());
                trace.push(op);
            }
            Pending::Write(op) => {
                t.session.advance_write()?;
                t.write_buffer.push(op);
            }
            Pending::Done => {
                t.done = true;
            }
        }
        // Early per-space validation when the plan says a space is done.
        let early = policy.early_release;
        let t = &mut txns[pick];
        let candidate_spaces: Vec<SpaceId> = if t.done {
            // Validate everything still unpublished.
            let mut all: BTreeSet<SpaceId> = t
                .read_versions
                .keys()
                .chain(t.write_buffer.iter().map(|o| &o.item))
                .map(|&i| policy.space_of(i))
                .collect();
            for s in &t.published {
                all.remove(s);
            }
            all.into_iter().collect()
        } else if early {
            match (&t.plan, t.session.emitted() + t.write_buffer.len()) {
                (Some(plan), emitted_total) if emitted_total <= plan.len() => {
                    // Note: emitted() counts reads only here because
                    // writes are buffered; reconstruct progress from
                    // reads + buffered writes.
                    let progressed = t.emitted_reads.len() + t.write_buffer.len();
                    let remaining: BTreeSet<SpaceId> = plan[progressed.min(plan.len())..]
                        .iter()
                        .map(|o| policy.space_of(o.item))
                        .collect();
                    let mut touched: BTreeSet<SpaceId> = t
                        .read_versions
                        .keys()
                        .chain(t.write_buffer.iter().map(|o| &o.item))
                        .map(|&i| policy.space_of(i))
                        .collect();
                    for s in &t.published {
                        touched.remove(s);
                    }
                    touched
                        .into_iter()
                        .filter(|s| !remaining.contains(s))
                        .collect()
                }
                _ => Vec::new(),
            }
        } else {
            Vec::new()
        };
        for space in candidate_spaces {
            occ.validations += 1;
            let t = &txns[pick];
            let valid = t.read_versions.iter().all(|(&item, &v)| {
                policy.space_of(item) != space || versions.get(&item).copied().unwrap_or(0) == v
            });
            if valid {
                let t = &mut txns[pick];
                for op in t
                    .write_buffer
                    .iter()
                    .filter(|o| policy.space_of(o.item) == space)
                {
                    store.set(op.item, op.value.clone());
                    *versions.entry(op.item).or_insert(0) += 1;
                    trace.push(op.clone());
                }
                t.published.insert(space);
            } else {
                // Abort with transitive cascade: any transaction whose
                // recorded read took its value from an aborted
                // transaction's (early-published) write must abort too,
                // or its read would become incoherent after rollback.
                occ.validation_failures += 1;
                let mut aborted: BTreeSet<TxnId> = BTreeSet::new();
                aborted.insert(txns[pick].txn);
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
                        if let Some(w) = writer {
                            if aborted.contains(&w) && aborted.insert(op.txn) {
                                grew = true;
                            }
                        }
                    }
                    if !grew {
                        break;
                    }
                }
                // Bump versions of every rolled-back write so stale
                // read-versions held by live transactions fail their
                // own validation (conservative but safe).
                for op in trace.iter().filter(|o| aborted.contains(&o.txn)) {
                    if op.is_write() {
                        *versions.entry(op.item).or_insert(0) += 1;
                    }
                }
                trace.retain(|o| !aborted.contains(&o.txn));
                store = initial.clone();
                for op in &trace {
                    if op.is_write() {
                        store.set(op.item, op.value.clone());
                    }
                }
                metrics.aborts += aborted.len() as u64;
                metrics.restarts += aborted.len() as u64;
                // The OCC-specific view of the same events, so the
                // single-threaded and OCC-certified threaded paths
                // report comparable counters.
                metrics.occ_aborts += aborted.len() as u64;
                metrics.occ_retries += aborted.len() as u64;
                for t in txns.iter_mut() {
                    if aborted.contains(&t.txn) {
                        t.reset();
                        if t.restarts > cfg.max_restarts {
                            return Err(SchedError::RestartLimit {
                                txn: t.txn,
                                restarts: t.restarts,
                            });
                        }
                    }
                }
                break;
            }
        }
    }

    metrics.committed_ops = trace.len() as u64;
    let schedule = Schedule::new(trace)?;
    Ok(OccOutcome {
        exec: ExecOutcome {
            schedule,
            final_state: store,
            metrics,
            rejected: Vec::new(),
        },
        occ,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
    use pwsr_core::pwsr::is_pwsr;
    use pwsr_core::serializability::is_conflict_serializable;
    use pwsr_core::solver::Solver;
    use pwsr_core::strong::check_strong_correctness;
    use pwsr_core::value::{Domain, Value};
    use pwsr_tplang::parser::parse_program;

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

    fn programs() -> Vec<Program> {
        vec![
            parse_program("T1", "a0 := a0 + 1; a1 := a1 + 1;").unwrap(),
            parse_program("T2", "b0 := b0 + 1; b1 := b1 + 1;").unwrap(),
            parse_program("T3", "a0 := a0 + 2;").unwrap(),
            parse_program("T4", "b1 := b1 + 2;").unwrap(),
        ]
    }

    #[test]
    fn global_occ_is_serializable_and_preserves_updates() {
        let (cat, _ic, initial) = setup();
        for seed in 0..25 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out =
                run_occ(&programs(), &cat, &initial, &PolicySpec::global_2pl(), &cfg).unwrap();
            out.exec.schedule.check_read_coherence(&initial).unwrap();
            assert!(
                is_conflict_serializable(&out.exec.schedule),
                "seed {seed}: {}",
                out.exec.schedule
            );
            // No lost updates despite optimistic writes.
            assert_eq!(
                out.exec.final_state.get(cat.lookup("a0").unwrap()),
                Some(&Value::Int(3)),
                "seed {seed}"
            );
            assert_eq!(
                out.exec.final_state.get(cat.lookup("b1").unwrap()),
                Some(&Value::Int(13))
            );
        }
    }

    #[test]
    fn per_conjunct_occ_is_pwsr_and_strongly_correct() {
        let (cat, ic, initial) = setup();
        let solver = Solver::new(&cat, &ic);
        let mut non_dr = 0;
        for seed in 0..40 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let policy = PolicySpec::predicate_wise_2pl_early(&ic); // spaces + early
            let out = run_occ(&programs(), &cat, &initial, &policy, &cfg).unwrap();
            out.exec.schedule.check_read_coherence(&initial).unwrap();
            assert!(is_pwsr(&out.exec.schedule, &ic).ok(), "seed {seed}");
            // Theorem 1: templates are fixed-structure ⇒ correct.
            assert!(
                check_strong_correctness(&out.exec.schedule, &solver, &initial).ok(),
                "seed {seed}"
            );
            if !pwsr_core::dr::is_delayed_read(&out.exec.schedule) {
                non_dr += 1;
            }
        }
        // Early per-space publishing breaks DR at least sometimes.
        assert!(
            non_dr > 0,
            "expected some non-DR schedules from early publishing"
        );
    }

    #[test]
    fn validation_failures_trigger_restarts_not_corruption() {
        let (cat, _ic, initial) = setup();
        // High contention on a single item.
        let hot: Vec<Program> = (0..4)
            .map(|k| parse_program(&format!("H{k}"), "a0 := a0 + 1;").unwrap())
            .collect();
        let mut any_failures = false;
        for seed in 0..30 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out = run_occ(&hot, &cat, &initial, &PolicySpec::global_2pl(), &cfg).unwrap();
            any_failures |= out.occ.validation_failures > 0;
            // Every OCC abort shows up in the shared Metrics counters,
            // mirroring the generic abort/restart pair.
            assert_eq!(out.exec.metrics.occ_aborts, out.exec.metrics.aborts);
            assert_eq!(out.exec.metrics.occ_retries, out.exec.metrics.restarts);
            assert_eq!(
                out.exec.final_state.get(cat.lookup("a0").unwrap()),
                Some(&Value::Int(4)),
                "seed {seed}: all four increments must survive"
            );
        }
        assert!(
            any_failures,
            "contention should cause at least one validation failure"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (cat, ic, initial) = setup();
        let policy = PolicySpec::predicate_wise_2pl_early(&ic);
        let cfg = ExecConfig {
            seed: 9,
            ..ExecConfig::default()
        };
        let a = run_occ(&programs(), &cat, &initial, &policy, &cfg).unwrap();
        let b = run_occ(&programs(), &cat, &initial, &policy, &cfg).unwrap();
        assert_eq!(a.exec.schedule, b.exec.schedule);
        assert_eq!(a.occ, b.occ);
    }

    #[test]
    fn empty_workload() {
        let (cat, _ic, initial) = setup();
        let out = run_occ(
            &[],
            &cat,
            &initial,
            &PolicySpec::global_2pl(),
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(out.exec.schedule.is_empty());
        assert_eq!(out.occ, OccStats::default());
    }

    #[test]
    fn cascade_stress_keeps_schedules_coherent() {
        // Cross-space read/write chains under heavy contention: early
        // publishing + validation failures force cascading aborts; the
        // committed schedule must stay coherent and correct throughout.
        let (cat, ic, initial) = setup();
        let solver = Solver::new(&cat, &ic);
        let mix = vec![
            parse_program("W1", "a0 := a0 + 1; b1 := b1 + min(abs(a0), 2);").unwrap(),
            parse_program("W2", "a0 := a0 + 2; a1 := a1 + 1;").unwrap(),
            parse_program("R1", "b0 := b0 + min(abs(a0), 3);").unwrap(),
            parse_program("R2", "b1 := b1 + min(abs(a1), 3);").unwrap(),
            parse_program("W3", "a1 := a1 + 1;").unwrap(),
            parse_program("R3", "b0 := b0 + min(abs(a1), 1);").unwrap(),
        ];
        let policy = PolicySpec::predicate_wise_2pl_early(&ic);
        let mut total_failures = 0u64;
        for seed in 0..100 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out = run_occ(&mix, &cat, &initial, &policy, &cfg).unwrap();
            out.exec
                .schedule
                .check_read_coherence(&initial)
                .unwrap_or_else(|e| panic!("seed {seed}: incoherent after cascade: {e}"));
            assert!(is_pwsr(&out.exec.schedule, &ic).ok(), "seed {seed}");
            assert!(
                check_strong_correctness(&out.exec.schedule, &solver, &initial).ok(),
                "seed {seed}"
            );
            total_failures += out.occ.validation_failures;
        }
        assert!(total_failures > 0, "stress must exercise the abort path");
    }
}
