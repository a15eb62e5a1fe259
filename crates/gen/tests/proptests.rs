//! Property-based tests on generated workloads and chaos executions:
//! the end-to-end invariants every experiment relies on.

use proptest::prelude::*;
use pwsr_core::ids::TxnId;
use pwsr_core::op::Operation;
use pwsr_core::pwsr::is_pwsr;
use pwsr_core::serializability::is_conflict_serializable;
use pwsr_core::solver::Solver;
use pwsr_core::strong::check_strong_correctness;
use pwsr_gen::chaos::{enumerate_executions, execute_with_picks, random_execution};
use pwsr_gen::workloads::{random_workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn config_strategy() -> impl Strategy<Value = WorkloadConfig> {
    (1usize..4, 1usize..4, 1usize..6, any::<bool>(), 0u8..2).prop_map(
        |(conjuncts, items, n_background, fixed_only, gadgets)| WorkloadConfig {
            conjuncts,
            items_per_conjunct: items,
            n_background,
            cross_read_prob: 0.5,
            fixed_only,
            gadgets: gadgets as usize,
            domain_width: 40,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chaos executions are genuine executions: read-coherent from the
    /// workload's initial state, with one transaction per program.
    #[test]
    fn chaos_executions_are_coherent(cfg in config_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_workload(&mut rng, &cfg);
        let s = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng).unwrap();
        s.check_read_coherence(&w.initial).unwrap();
        prop_assert!(s.txn_ids().len() <= w.programs.len());
    }

    /// CSR ⊆ PWSR on every generated execution.
    #[test]
    fn csr_subset_of_pwsr(cfg in config_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_workload(&mut rng, &cfg);
        let s = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng).unwrap();
        if is_conflict_serializable(&s) {
            prop_assert!(is_pwsr(&s, &w.ic).ok());
        }
    }

    /// Serializable executions of individually-correct programs are
    /// strongly correct (the classical guarantee the paper relaxes).
    #[test]
    fn serializable_executions_are_strongly_correct(
        cfg in config_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_workload(&mut rng, &cfg);
        let s = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng).unwrap();
        if is_conflict_serializable(&s) {
            let solver = Solver::new(&w.catalog, &w.ic);
            let report = check_strong_correctness(&s, &solver, &w.initial);
            prop_assert!(report.ok(), "CSR execution violated consistency: {s}");
        }
    }

    /// Theorem 1 as a property: PWSR + all-fixed-structure ⇒ strongly
    /// correct, over random fixed-only workloads and executions.
    #[test]
    fn theorem1_as_property(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_workload(&mut rng, &WorkloadConfig {
            conjuncts: 2,
            items_per_conjunct: 2,
            n_background: 4,
            cross_read_prob: 0.7,
            fixed_only: true,
            gadgets: 0,
            domain_width: 40,
        });
        prop_assume!(w.all_fixed_structure);
        let s = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng).unwrap();
        prop_assume!(is_pwsr(&s, &w.ic).ok());
        let solver = Solver::new(&w.catalog, &w.ic);
        let report = check_strong_correctness(&s, &solver, &w.initial);
        prop_assert!(report.ok(), "Theorem 1 violated: {s}");
    }

    /// Theorem 2 as a property: PWSR + DR ⇒ strongly correct, over
    /// arbitrary (even gadget-bearing) workloads.
    #[test]
    fn theorem2_as_property(cfg in config_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_workload(&mut rng, &cfg);
        let s = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng).unwrap();
        prop_assume!(pwsr_core::dr::is_delayed_read(&s));
        prop_assume!(is_pwsr(&s, &w.ic).ok());
        let solver = Solver::new(&w.catalog, &w.ic);
        let report = check_strong_correctness(&s, &solver, &w.initial);
        prop_assert!(report.ok(), "Theorem 2 violated: {s}");
    }

    /// Theorem 3 as a property: PWSR + acyclic DAG ⇒ strongly correct.
    #[test]
    fn theorem3_as_property(cfg in config_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_workload(&mut rng, &cfg);
        let s = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng).unwrap();
        prop_assume!(is_pwsr(&s, &w.ic).ok());
        let dag = pwsr_core::dag::data_access_graph(&s, &w.ic);
        prop_assume!(dag.is_acyclic());
        let solver = Solver::new(&w.catalog, &w.ic);
        let report = check_strong_correctness(&s, &solver, &w.initial);
        prop_assert!(report.ok(), "Theorem 3 violated: {s}");
    }

    /// Exhaustive enumeration yields each interleaving once, and each is
    /// the execution its own transaction sequence picks.
    #[test]
    fn enumerated_executions_are_distinct_and_replay(
        n_background in 0usize..3,
        gadgets in 0usize..2,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_workload(&mut rng, &WorkloadConfig {
            conjuncts: 1,
            items_per_conjunct: 2,
            n_background: n_background.min(2 - gadgets),
            cross_read_prob: 0.5,
            fixed_only: false,
            gadgets,
            domain_width: 40,
        });
        let all = enumerate_executions(&w.programs, &w.catalog, &w.initial, 2_000).unwrap();
        prop_assume!(all.is_some());
        let all = all.unwrap();
        let distinct: HashSet<&[Operation]> = all.iter().map(|s| s.ops()).collect();
        prop_assert_eq!(distinct.len(), all.len());
        for s in &all {
            let picks: Vec<TxnId> = s.ops().iter().map(|o| o.txn).collect();
            let replay = execute_with_picks(&w.programs, &w.catalog, &w.initial, &picks).unwrap();
            prop_assert_eq!(&replay, s);
        }
    }

    /// Gadget workloads always admit their violating interleaving.
    #[test]
    fn gadget_violation_reproducible(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_workload(&mut rng, &WorkloadConfig {
            conjuncts: 1,
            items_per_conjunct: 1,
            n_background: 0,
            cross_read_prob: 0.0,
            fixed_only: false,
            gadgets: 1,
            domain_width: 40,
        });
        let (t1, t2) = w.gadget_txns[0];
        let picks = pwsr_gen::gadgets::violating_picks(t1, t2);
        let s = pwsr_gen::chaos::execute_with_picks(&w.programs, &w.catalog, &w.initial, &picks)
            .unwrap();
        prop_assert!(is_pwsr(&s, &w.ic).ok());
        let solver = Solver::new(&w.catalog, &w.ic);
        prop_assert!(check_strong_correctness(&s, &solver, &w.initial).violation());
        let _ = TxnId(0);
    }
}
