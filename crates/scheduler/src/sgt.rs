//! Serialization-graph-testing (SGT) certification, per lock space.
//!
//! The third concurrency-control mechanism (after locking and OCC):
//! transactions execute freely against the shared store; the scheduler
//! keeps one *conflict graph per space* live and aborts a transaction
//! the moment its next operation would close a cycle in any space's
//! graph. Committed schedules therefore have acyclic per-space
//! conflict graphs **by construction** — with conjunct-aligned spaces
//! this is a *maximal* PWSR generator: any interleaving whose
//! projections stay acyclic is admitted, which neither 2PL (blocks
//! conservatively) nor OCC (validates read versions, stricter than
//! conflict order) achieves.
//!
//! Certification runs on the online verdict monitor
//! ([`MonitorAdmission`] over the policy's space partition): each
//! operation is a read-only admission probe plus an `O(words)`
//! incremental push, replacing the old per-operation `O(n²)`
//! rebuild-all-graphs scan. Aborts cascade through dirty readers by
//! the lock-based executor's own function (the certifier is told whom
//! and retracts them through its undo-log); restarts are capped. With a single global space this is classical SGT and
//! certifies conflict-serializability.

use crate::error::{Result, SchedError};
use crate::exec::{abort_with_dirty_readers, ExecConfig, ExecOutcome};
use crate::metrics::Metrics;
use crate::policy::{MonitorAdmission, PolicySpec};
use pwsr_core::catalog::Catalog;
use pwsr_core::ids::TxnId;
use pwsr_core::monitor::AdmissionLevel;
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::DbState;
use pwsr_tplang::ast::Program;
use pwsr_tplang::session::{Pending, ProgramSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SGT statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SgtStats {
    /// Cycle certifications that failed (each aborts a transaction).
    pub certification_failures: u64,
}

/// Outcome of an SGT run.
#[derive(Clone, Debug)]
pub struct SgtOutcome {
    /// Committed schedule, final state, generic metrics.
    pub exec: ExecOutcome,
    /// SGT counters.
    pub sgt: SgtStats,
}

/// Run the programs under per-space SGT certification. Only the
/// policy's item→space map is used (early release and DR flags do not
/// apply — SGT neither locks nor blocks).
pub fn run_sgt(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    policy: &PolicySpec,
    cfg: &ExecConfig,
) -> Result<SgtOutcome> {
    struct Rt<'a> {
        txn: TxnId,
        session: ProgramSession<'a>,
        done: bool,
        restarts: u32,
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut rts: Vec<Rt<'_>> = programs
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let txn = TxnId(k as u32 + 1);
            Rt {
                txn,
                session: ProgramSession::new(p, catalog, txn),
                done: false,
                restarts: 0,
            }
        })
        .collect();
    let mut db = initial.clone();
    let mut trace: Vec<Operation> = Vec::new();
    let mut metrics = Metrics::default();
    let mut sgt = SgtStats::default();
    // Per-space acyclicity is exactly the monitor's PWSR floor over
    // the space partition of the catalog.
    let mut certifier = MonitorAdmission::for_spaces(catalog, policy, AdmissionLevel::Pwsr);

    while !rts.iter().all(|rt| rt.done) {
        if metrics.steps >= cfg.max_steps {
            return Err(SchedError::StepBudgetExhausted {
                max_steps: cfg.max_steps,
                pending: rts.iter().filter(|rt| !rt.done).map(|rt| rt.txn).collect(),
            });
        }
        let live: Vec<usize> = rts
            .iter()
            .enumerate()
            .filter(|(_, rt)| !rt.done)
            .map(|(i, _)| i)
            .collect();
        let pick = live[rng.random_range(0..live.len())];
        metrics.steps += 1;
        let txn = rts[pick].txn;
        let tentative = match rts[pick].session.pending()? {
            Pending::Done => {
                rts[pick].done = true;
                continue;
            }
            Pending::NeedRead(item) => {
                let value = db.require(item)?.clone();
                Operation::read(txn, item, value)
            }
            Pending::Write(op) => op,
        };
        if !certifier.would_admit(tentative.txn, tentative.item, tentative.is_write()) {
            // Certification failure: cascade-abort this transaction.
            sgt.certification_failures += 1;
            let aborted = abort_with_dirty_readers(
                &[txn],
                &mut trace,
                initial,
                &mut db,
                Some(&mut certifier),
            )?;
            metrics.aborts += aborted.len() as u64;
            metrics.restarts += aborted.len() as u64;
            for rt in rts.iter_mut() {
                if aborted.contains(&rt.txn) {
                    rt.session.restart();
                    rt.done = false;
                    rt.restarts += 1;
                    if rt.restarts > cfg.max_restarts {
                        return Err(SchedError::RestartLimit {
                            txn: rt.txn,
                            restarts: rt.restarts,
                        });
                    }
                }
            }
            continue;
        }
        // Certified: perform the operation (and record it with the
        // incremental certifier, keeping it exactly in step with the
        // trace).
        match &tentative {
            op if op.is_read() => {
                let emitted = rts[pick].session.feed_read(op.value.clone())?;
                certifier.push(&emitted);
                trace.push(emitted);
            }
            op => {
                db.set(op.item, op.value.clone());
                rts[pick].session.advance_write()?;
                certifier.push(op);
                trace.push(op.clone());
            }
        }
    }

    metrics.monitor_undone_ops = certifier.undone_ops();
    metrics.committed_ops = trace.len() as u64;
    let schedule = Schedule::new(trace)?;
    Ok(SgtOutcome {
        exec: ExecOutcome {
            schedule,
            final_state: db,
            metrics,
            rejected: Vec::new(),
        },
        sgt,
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
            parse_program("T3", "a0 := b0 - 5;").unwrap(),
            parse_program("T4", "a1 := b1 - 5;").unwrap(),
        ]
    }

    #[test]
    fn global_sgt_certifies_serializability() {
        let (cat, _ic, initial) = setup();
        for seed in 0..30 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out =
                run_sgt(&programs(), &cat, &initial, &PolicySpec::global_2pl(), &cfg).unwrap();
            out.exec.schedule.check_read_coherence(&initial).unwrap();
            assert!(
                is_conflict_serializable(&out.exec.schedule),
                "seed {seed}: {}",
                out.exec.schedule
            );
        }
    }

    #[test]
    fn per_conjunct_sgt_certifies_pwsr_and_correctness() {
        let (cat, ic, initial) = setup();
        let solver = Solver::new(&cat, &ic);
        for seed in 0..30 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let policy = PolicySpec::predicate_wise_2pl(&ic); // spaces only
            let out = run_sgt(&programs(), &cat, &initial, &policy, &cfg).unwrap();
            out.exec.schedule.check_read_coherence(&initial).unwrap();
            assert!(is_pwsr(&out.exec.schedule, &ic).ok(), "seed {seed}");
            // Templates are fixed-structure ⇒ Theorem 1.
            assert!(
                check_strong_correctness(&out.exec.schedule, &solver, &initial).ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn certification_failures_occur_under_contention() {
        let (cat, _ic, initial) = setup();
        // Read-write crossing on one conjunct forces cycles sometimes.
        let hot = vec![
            parse_program("H1", "a0 := b0 + 1;").unwrap(),
            parse_program("H2", "b0 := a0 + 1;").unwrap(),
            parse_program("H3", "a0 := a0 + 1;").unwrap(),
        ];
        let mut failures = 0u64;
        for seed in 0..40 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out = run_sgt(&hot, &cat, &initial, &PolicySpec::global_2pl(), &cfg).unwrap();
            failures += out.sgt.certification_failures;
            assert!(is_conflict_serializable(&out.exec.schedule));
        }
        assert!(
            failures > 0,
            "contention should trigger certification aborts"
        );
    }

    #[test]
    fn sgt_admits_pwsr_schedules_locking_blocks() {
        // SGT (per conjunct) never *waits* — metrics.waits is always 0 —
        // while admitting every PWSR-certifiable interleaving.
        let (cat, ic, initial) = setup();
        let cfg = ExecConfig {
            seed: 5,
            ..ExecConfig::default()
        };
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let out = run_sgt(&programs(), &cat, &initial, &policy, &cfg).unwrap();
        assert_eq!(out.exec.metrics.waits, 0);
    }

    #[test]
    fn deterministic_and_empty() {
        let (cat, ic, initial) = setup();
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let cfg = ExecConfig {
            seed: 11,
            ..ExecConfig::default()
        };
        let a = run_sgt(&programs(), &cat, &initial, &policy, &cfg).unwrap();
        let b = run_sgt(&programs(), &cat, &initial, &policy, &cfg).unwrap();
        assert_eq!(a.exec.schedule, b.exec.schedule);
        let empty = run_sgt(&[], &cat, &initial, &policy, &cfg).unwrap();
        assert!(empty.exec.schedule.is_empty());
    }
}
