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
//! incremental push — the probe and the push the seeded runner
//! ([`crate::exec`]) makes at every step for any discipline, so this
//! one adds nothing of its own. Aborts cascade through dirty readers
//! (the certifier is told whom and retracts them through its
//! undo-log) and the aborted restart at once; restarts are capped.
//! With a single global space this is classical SGT and certifies
//! conflict-serializability.

use crate::error::Result;
use crate::exec::{Discipline, ExecConfig, ExecOutcome, Run};
use crate::policy::{MonitorAdmission, PolicySpec};
use pwsr_core::catalog::Catalog;
use pwsr_core::monitor::AdmissionLevel;
use pwsr_core::state::DbState;
use pwsr_tplang::ast::Program;

/// Neither locks nor blocks nor buffers: every answer is the
/// [`Discipline`]'s default.
struct Certifying;

impl Discipline for Certifying {}

/// Run the programs under per-space SGT certification. Only the
/// policy's item→space map is used (early release and DR flags do not
/// apply — SGT neither locks nor blocks).
pub fn run_sgt(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    policy: &PolicySpec,
    cfg: &ExecConfig,
) -> Result<ExecOutcome> {
    let mut run = Run::new(programs, catalog, initial, policy, cfg);
    // Per-space acyclicity is exactly the monitor's PWSR floor over
    // the space partition of the catalog.
    let certifier = MonitorAdmission::for_spaces(catalog, policy, AdmissionLevel::Pwsr);
    run.admission = Some(certifier);
    run.run(&mut Certifying)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::setup;
    use pwsr_core::pwsr::is_pwsr;
    use pwsr_core::serializability::is_conflict_serializable;
    use pwsr_core::solver::Solver;
    use pwsr_core::strong::check_strong_correctness;
    use pwsr_tplang::parser::parse_program;

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
            out.schedule.check_read_coherence(&initial).unwrap();
            assert!(
                is_conflict_serializable(&out.schedule),
                "seed {seed}: {}",
                out.schedule
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
            out.schedule.check_read_coherence(&initial).unwrap();
            assert!(is_pwsr(&out.schedule, &ic).ok(), "seed {seed}");
            // Templates are fixed-structure ⇒ Theorem 1.
            assert!(
                check_strong_correctness(&out.schedule, &solver, &initial).ok(),
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
            failures += out.metrics.monitor_rejections;
            assert!(is_conflict_serializable(&out.schedule));
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
        assert_eq!(out.metrics.waits, 0);
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
        assert_eq!(a.schedule, b.schedule);
        let empty = run_sgt(&[], &cat, &initial, &policy, &cfg).unwrap();
        assert!(empty.schedule.is_empty());
    }
}
