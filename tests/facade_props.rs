//! Cross-crate property tests through the facade: scheduler outputs
//! are always well-formed executions whose guarantees match their
//! policies.

use proptest::prelude::*;
use pwsr::core::solver::Solver;
use pwsr::core::strong::check_strong_correctness;
use pwsr::gen::workloads::{random_workload, WorkloadConfig};
use pwsr::prelude::*;
use pwsr::scheduler::error::SchedError;
use pwsr::scheduler::exec::{run_workload, ExecConfig, ExecOutcome};
use pwsr::scheduler::occ::run_occ;
use pwsr::scheduler::policy::PolicySpec;
use pwsr::scheduler::sgt::run_sgt;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_cfg() -> impl Strategy<Value = WorkloadConfig> {
    (1usize..3, 1usize..3, 2usize..6, any::<bool>()).prop_map(
        |(conjuncts, items, n_background, fixed_only)| WorkloadConfig {
            conjuncts,
            items_per_conjunct: items,
            n_background,
            cross_read_prob: 0.5,
            fixed_only,
            gadgets: 0,
            domain_width: 40,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the policy, the committed schedule is a coherent
    /// execution and the final state equals its replay.
    #[test]
    fn scheduler_output_is_always_an_execution(
        cfg in small_cfg(),
        wseed in any::<u64>(),
        eseed in any::<u64>(),
        policy_pick in 0u8..7,
    ) {
        let mut rng = StdRng::seed_from_u64(wseed);
        let w = random_workload(&mut rng, &cfg);
        // All three disciplines of the seeded runner: locking (four
        // policies), certification, validation (held to the end and
        // early).
        type Runner = fn(&[Program], &Catalog, &DbState, &PolicySpec, &ExecConfig)
            -> Result<ExecOutcome, SchedError>;
        let (run, policy): (Runner, PolicySpec) = match policy_pick {
            0 => (run_workload, PolicySpec::global_2pl()),
            1 => (run_workload, PolicySpec::predicate_wise_2pl(&w.ic)),
            2 => (run_workload, PolicySpec::predicate_wise_2pl_early(&w.ic)),
            3 => (run_workload, PolicySpec::predicate_wise_2pl_early(&w.ic).dr_blocking()),
            4 => (run_sgt, PolicySpec::predicate_wise_2pl(&w.ic)),
            5 => (run_occ, PolicySpec::predicate_wise_2pl(&w.ic)),
            _ => (run_occ, PolicySpec::predicate_wise_2pl_early(&w.ic)),
        };
        let exec_cfg = ExecConfig {
            seed: eseed,
            ..ExecConfig::default()
        };
        let out = run(&w.programs, &w.catalog, &w.initial, &policy, &exec_cfg).unwrap();
        out.schedule.check_read_coherence(&w.initial).unwrap();
        prop_assert_eq!(out.schedule.apply(&w.initial), out.final_state.clone());
        // Every transaction committed exactly once.
        prop_assert_eq!(out.schedule.txn_ids().len(),
            w.programs.iter().enumerate().filter(|(k, p)| {
                // Programs that emit no ops produce no txn in the trace.
                let txn = TxnId(*k as u32 + 1);
                let t = out.schedule.transaction(txn);
                !t.is_empty() || p.body.is_empty()
            }).filter(|(_, p)| !p.body.is_empty()).count());
    }

    /// Policy guarantees: global 2PL ⇒ CSR; predicate-wise ⇒ PWSR;
    /// hold-to-end or DR blocking ⇒ DR.
    #[test]
    fn policy_guarantees_hold(
        cfg in small_cfg(),
        wseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(wseed);
        let w = random_workload(&mut rng, &cfg);
        let exec_cfg = ExecConfig {
            seed: eseed,
            ..ExecConfig::default()
        };
        let g = run_workload(&w.programs, &w.catalog, &w.initial,
            &PolicySpec::global_2pl(), &exec_cfg).unwrap();
        prop_assert!(is_conflict_serializable(&g.schedule));

        let p = run_workload(&w.programs, &w.catalog, &w.initial,
            &PolicySpec::predicate_wise_2pl(&w.ic), &exec_cfg).unwrap();
        prop_assert!(is_pwsr(&p.schedule, &w.ic).ok());
        prop_assert!(pwsr::core::dr::is_delayed_read(&p.schedule));

        let e = run_workload(&w.programs, &w.catalog, &w.initial,
            &PolicySpec::predicate_wise_2pl_early(&w.ic).dr_blocking(), &exec_cfg).unwrap();
        prop_assert!(is_pwsr(&e.schedule, &w.ic).ok());
        prop_assert!(pwsr::core::dr::is_delayed_read(&e.schedule));

        // Theorem 2 consequence on both DR-producing policies.
        let solver = Solver::new(&w.catalog, &w.ic);
        prop_assert!(check_strong_correctness(&p.schedule, &solver, &w.initial).ok());
        prop_assert!(check_strong_correctness(&e.schedule, &solver, &w.initial).ok());
    }
}
