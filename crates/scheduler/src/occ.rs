//! Optimistic concurrency control with per-space backward validation.
//!
//! The lock-based policies in [`crate::exec`] *block*; this discipline
//! of the same seeded runner never does. Transactions read the
//! published store and buffer their writes privately; when a
//! transaction completes its accesses to a lock space (per its access
//! plan — exactly the fixed-structure programs of Theorem 1 have exact
//! plans), that space is **validated** (have any items it read there
//! been republished since?) and, on success, its writes for that space
//! are published immediately. A failed validation aborts the whole
//! transaction, which restarts at once.
//!
//! With one global space this is classical backward-validation OCC and
//! yields serializable schedules. With one space per conjunct it yields
//! **PWSR** schedules whose per-conjunct serialization orders are the
//! per-space publish orders — and because a space can be published
//! before the transaction finishes, the schedules are generally *not*
//! delayed-read: OCC-PW is a Theorem-1 workload generator, not a
//! Theorem-2 one (tests check both facts).

use crate::error::Result;
use crate::exec::{Block, Discipline, ExecConfig, ExecOutcome, Run, Write};
use crate::lock::SpaceId;
use crate::policy::PolicySpec;
use pwsr_core::catalog::Catalog;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::op::Operation;
use pwsr_core::state::DbState;
use pwsr_tplang::ast::Program;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What one transaction's current attempt has done so far.
#[derive(Default)]
struct Attempt {
    /// Item → version observed at (first) read.
    read_versions: BTreeMap<ItemId, u64>,
    /// Buffered writes, in program order.
    write_buffer: Vec<Operation>,
    /// Spaces already validated & published.
    published: BTreeSet<SpaceId>,
}

/// The validating discipline: how often each item has been published,
/// and the attempts in flight (a committed transaction keeps its own —
/// a cascade can still reach it).
#[derive(Default)]
struct Validating {
    versions: HashMap<ItemId, u64>,
    attempts: HashMap<TxnId, Attempt>,
}

impl Discipline for Validating {
    fn read(&mut self, _run: &Run<'_>, txn: TxnId, item: ItemId) -> Option<Block> {
        let current = self.versions.get(&item).copied().unwrap_or(0);
        let attempt = self.attempts.entry(txn).or_default();
        attempt.read_versions.entry(item).or_insert(current);
        None
    }

    fn write(&mut self, _run: &Run<'_>, op: &Operation) -> Write {
        let attempt = self.attempts.entry(op.txn).or_default();
        attempt.write_buffer.push(op.clone());
        Write::Buffer
    }

    /// Validate and publish every space the transaction has touched and
    /// finished with: all of them once it is done, otherwise (early
    /// release) those its access plan will not come back to.
    fn after_step(&mut self, run: &mut Run<'_>, pick: usize) -> bool {
        let (policy, rt) = (run.policy, &run.rts[pick]);
        let (Some(ahead), Some(attempt)) =
            (rt.spaces_ahead(policy), self.attempts.get_mut(&rt.txn))
        else {
            return false;
        };
        let touched: BTreeSet<SpaceId> = attempt
            .read_versions
            .keys()
            .chain(attempt.write_buffer.iter().map(|o| &o.item))
            .map(|&i| policy.space_of(i))
            .collect();
        for space in touched {
            if attempt.published.contains(&space) || ahead.contains(&space) {
                continue;
            }
            let valid = attempt.read_versions.iter().all(|(&item, &v)| {
                policy.space_of(item) != space
                    || self.versions.get(&item).copied().unwrap_or(0) == v
            });
            if !valid {
                return true;
            }
            let in_space = |o: &&Operation| policy.space_of(o.item) == space;
            for op in attempt.write_buffer.iter().filter(in_space) {
                run.db.set(op.item, op.value.clone());
                *self.versions.entry(op.item).or_insert(0) += 1;
                run.record(op.clone());
            }
            attempt.published.insert(space);
        }
        false
    }

    fn on_abort(&mut self, run: &mut Run<'_>, aborted: &[TxnId]) {
        for attempt in aborted.iter().filter_map(|t| self.attempts.remove(t)) {
            // Bump versions of every rolled-back write so stale
            // read-versions held by live transactions fail their
            // own validation (conservative but safe).
            for op in &attempt.write_buffer {
                if attempt.published.contains(&run.policy.space_of(op.item)) {
                    *self.versions.entry(op.item).or_insert(0) += 1;
                }
            }
        }
        // The OCC-specific view of the same events, so the
        // single-threaded and OCC-certified threaded paths
        // report comparable counters.
        run.metrics.occ_aborts += aborted.len() as u64;
        run.metrics.occ_retries += aborted.len() as u64;
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
) -> Result<ExecOutcome> {
    Run::new(programs, catalog, initial, policy, cfg).run(&mut Validating::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::setup;
    use pwsr_core::pwsr::is_pwsr;
    use pwsr_core::serializability::is_conflict_serializable;
    use pwsr_core::solver::Solver;
    use pwsr_core::strong::check_strong_correctness;
    use pwsr_core::value::{Domain, Value};
    use pwsr_tplang::parser::parse_program;

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
            out.schedule.check_read_coherence(&initial).unwrap();
            assert!(
                is_conflict_serializable(&out.schedule),
                "seed {seed}: {}",
                out.schedule
            );
            // No lost updates despite optimistic writes.
            assert_eq!(
                out.final_state.get(cat.lookup("a0").unwrap()),
                Some(&Value::Int(3)),
                "seed {seed}"
            );
            assert_eq!(
                out.final_state.get(cat.lookup("b1").unwrap()),
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
            out.schedule.check_read_coherence(&initial).unwrap();
            assert!(is_pwsr(&out.schedule, &ic).ok(), "seed {seed}");
            // Theorem 1: templates are fixed-structure ⇒ correct.
            assert!(
                check_strong_correctness(&out.schedule, &solver, &initial).ok(),
                "seed {seed}"
            );
            if !pwsr_core::dr::is_delayed_read(&out.schedule) {
                non_dr += 1;
            }
        }
        // Early per-space publishing breaks DR at least sometimes.
        assert!(
            non_dr > 0,
            "expected some non-DR schedules from early publishing"
        );
    }

    /// Early validation follows the access plan to the end of the
    /// transaction: each conjunct is published as the plan leaves it.
    /// (A guard that counted buffered writes twice used to stop it once
    /// reads + 2·writes passed the plan's length — this transaction then
    /// committed `… r(a2) r(a3) w(a2) w(a3)`, conjunct 2 held back to
    /// `Done`.)
    #[test]
    fn early_validation_publishes_each_space_as_its_plan_leaves_it() {
        use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
        let mut cat = Catalog::new();
        let items: Vec<ItemId> = (0..4)
            .map(|k| cat.add_item(&format!("a{k}"), Domain::int_range(-100, 100)))
            .collect();
        let conjunct = |(k, &a): (usize, &ItemId)| {
            Conjunct::new(k as u32, Formula::le(Term::var(a), Term::int(50)))
        };
        let ic =
            IntegrityConstraint::new(items.iter().enumerate().map(conjunct).collect()).unwrap();
        let initial = DbState::from_pairs(items.iter().map(|&a| (a, Value::Int(0))));
        let program = "a0 := a0 + 1; a1 := a1 + 1; a2 := a2 + 1; a3 := a3 + 1;";
        let out = run_occ(
            &[parse_program("T1", program).unwrap()],
            &cat,
            &initial,
            &PolicySpec::predicate_wise_2pl_early(&ic),
            &ExecConfig::default(),
        )
        .unwrap();
        let shown: Vec<String> = out.schedule.ops().iter().map(|o| o.display(&cat)).collect();
        assert_eq!(
            shown.join(" "),
            "r1(a0, 0) w1(a0, 1) r1(a1, 0) w1(a1, 1) r1(a2, 0) w1(a2, 1) r1(a3, 0) w1(a3, 1)"
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
            any_failures |= out.metrics.occ_aborts > 0;
            // Every OCC abort shows up in the shared Metrics counters,
            // mirroring the generic abort/restart pair.
            assert_eq!(out.metrics.occ_aborts, out.metrics.aborts);
            assert_eq!(out.metrics.occ_retries, out.metrics.restarts);
            assert_eq!(
                out.final_state.get(cat.lookup("a0").unwrap()),
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
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.metrics, b.metrics);
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
        assert!(out.schedule.is_empty());
        assert_eq!(out.metrics, crate::metrics::Metrics::default());
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
            out.schedule
                .check_read_coherence(&initial)
                .unwrap_or_else(|e| panic!("seed {seed}: incoherent after cascade: {e}"));
            assert!(is_pwsr(&out.schedule, &ic).ok(), "seed {seed}");
            assert!(
                check_strong_correctness(&out.schedule, &solver, &initial).ok(),
                "seed {seed}"
            );
            total_failures += out.metrics.occ_aborts;
        }
        assert!(total_failures > 0, "stress must exercise the abort path");
    }
}
