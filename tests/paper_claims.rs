//! Integration tests: every headline claim of the paper, end to end
//! through the facade crate (parser → interpreter → scheduler →
//! checkers → solver).

use pwsr::core::solver::Solver;
use pwsr::core::strong::check_strong_correctness;
use pwsr::core::theorems::{classify, Guarantee, ProgramTraits};
use pwsr::prelude::*;
use pwsr::tplang::programs;

#[test]
fn example2_full_pipeline() {
    // Replay Example 2 from program text through sessions and verify
    // the complete verdict chain.
    let sc = programs::example2();
    let picks = [TxnId(1), TxnId(2), TxnId(2), TxnId(2), TxnId(1)];
    let s = pwsr::gen::chaos::execute_with_picks(&sc.programs, &sc.catalog, &sc.initial, &picks)
        .expect("the paper's interleaving executes");
    assert_eq!(&s, sc.schedule.as_ref().unwrap());

    let verdict = classify(&s, &sc.ic, ProgramTraits::not_fixed_structure());
    assert!(verdict.pwsr.ok());
    assert!(!verdict.dr);
    assert!(!verdict.dag.is_acyclic());
    assert!(!verdict.strongly_correct_guaranteed());

    let solver = Solver::new(&sc.catalog, &sc.ic);
    assert!(check_strong_correctness(&s, &solver, &sc.initial).violation());
}

#[test]
fn fix_structure_rescues_example2() {
    // Theorem 1 end to end: after fix_structure, every PWSR
    // interleaving of the two programs is strongly correct.
    let sc = programs::example2();
    let tp1p = pwsr::tplang::transform::fix_structure(&sc.programs[0], &sc.catalog).unwrap();
    assert!(pwsr::tplang::analysis::static_structure(&tp1p, &sc.catalog).is_fixed());
    let programs = vec![tp1p, sc.programs[1].clone()];
    let all = pwsr::gen::chaos::enumerate_executions(&programs, &sc.catalog, &sc.initial, 100_000)
        .unwrap()
        .unwrap();
    let solver = Solver::new(&sc.catalog, &sc.ic);
    for s in &all {
        let verdict = classify(&s.clone(), &sc.ic, ProgramTraits::fixed_structure());
        if verdict.pwsr.ok() {
            assert!(verdict.has(Guarantee::Theorem1FixedStructure));
            assert!(
                check_strong_correctness(s, &solver, &sc.initial).ok(),
                "Theorem 1 violated by {s}"
            );
        }
    }
}

#[test]
fn theorem2_end_to_end_via_scheduler() {
    // DR-blocking predicate-wise locking ⇒ PWSR + DR ⇒ Theorem 2.
    use pwsr::gen::workloads::{random_workload, WorkloadConfig};
    use pwsr::scheduler::exec::{run_workload, ExecConfig};
    use pwsr::scheduler::policy::PolicySpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(77);
    for trial in 0..10u64 {
        let w = random_workload(
            &mut rng,
            &WorkloadConfig {
                conjuncts: 2,
                items_per_conjunct: 2,
                n_background: 4,
                cross_read_prob: 0.6,
                fixed_only: false,
                gadgets: 0,
                domain_width: 50,
            },
        );
        let policy = PolicySpec::predicate_wise_2pl_early(&w.ic).dr_blocking();
        let cfg = ExecConfig {
            seed: trial,
            ..ExecConfig::default()
        };
        let out = run_workload(&w.programs, &w.catalog, &w.initial, &policy, &cfg).unwrap();
        let verdict = classify(&out.schedule, &w.ic, ProgramTraits::unknown());
        assert!(verdict.pwsr.ok());
        assert!(verdict.has(Guarantee::Theorem2DelayedRead));
        let solver = Solver::new(&w.catalog, &w.ic);
        assert!(check_strong_correctness(&out.schedule, &solver, &w.initial).ok());
    }
}

#[test]
fn theorem3_end_to_end_via_admission() {
    // Statically admitted program mixes keep DAG(S, IC) acyclic in
    // every execution; strong correctness follows from Theorem 3.
    use pwsr::gen::chaos::random_execution;
    use pwsr::scheduler::dag_admission::check_static_dag;
    use pwsr::tplang::parser::parse_program;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let sc = programs::example2();
    // One-directional mix: both programs read conjunct 0 ({a,b}) and
    // write conjunct 1 ({c}).
    let mix = vec![
        parse_program("P1", "c := max(a, 1);").unwrap(),
        parse_program("P2", "c := abs(b) + 1;").unwrap(),
    ];
    let dag = check_static_dag(&mix, &sc.catalog, &sc.ic).unwrap();
    assert!(
        dag.is_acyclic(),
        "admission accepts the one-directional mix"
    );

    let solver = Solver::new(&sc.catalog, &sc.ic);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..50 {
        let s = random_execution(&mix, &sc.catalog, &sc.initial, &mut rng).unwrap();
        let verdict = classify(&s, &sc.ic, ProgramTraits::unknown());
        assert!(verdict.dag.is_acyclic(), "runtime DAG ⊆ static DAG");
        if verdict.pwsr.ok() {
            assert!(verdict.has(Guarantee::Theorem3AcyclicDag));
            assert!(check_strong_correctness(&s, &solver, &sc.initial).ok());
        }
    }

    // The Example 2 mix is refused by the same admission check.
    let refused = check_static_dag(&sc.programs, &sc.catalog, &sc.ic).unwrap();
    assert!(!refused.is_acyclic());
}

#[test]
fn example5_defeats_every_theorem() {
    let sc = programs::example5();
    let s = sc.schedule.as_ref().unwrap();
    // All three hypotheses hold except disjointness…
    let verdict = classify(s, &sc.ic, ProgramTraits::fixed_structure());
    assert!(verdict.pwsr.ok());
    assert!(verdict.dr);
    assert!(verdict.dag.is_acyclic());
    assert!(!verdict.disjoint);
    // …so no guarantee is issued, and indeed the execution violates.
    assert!(!verdict.strongly_correct_guaranteed());
    let solver = Solver::new(&sc.catalog, &sc.ic);
    assert!(check_strong_correctness(s, &solver, &sc.initial).violation());
}

#[test]
fn restrictions_are_mutually_independent() {
    // The three restrictions are genuinely different: exhibit schedules
    // satisfying exactly one hypothesis each (plus PWSR).
    use pwsr::core::dag::data_access_graph;
    use pwsr::core::dr::is_delayed_read;

    // (a) DR but cyclic DAG, non-fixed programs: the gadget run
    // serially is DR (serial ⇒ DR) with a cyclic DAG (both directions
    // of cross-conjunct access appear across the two transactions).
    let sc = programs::example2();
    let t1 =
        pwsr::tplang::interp::execute(&sc.programs[0], &sc.catalog, TxnId(1), &sc.initial).unwrap();
    let after1 = sc.initial.updated_with(&t1.write_state());
    let t2 =
        pwsr::tplang::interp::execute(&sc.programs[1], &sc.catalog, TxnId(2), &after1).unwrap();
    let serial = Schedule::serial(&[t1, t2]).unwrap();
    assert!(is_delayed_read(&serial));
    assert!(!data_access_graph(&serial, &sc.ic).is_acyclic());

    // (b) acyclic DAG but not DR: T2 dirty-reads T1's write inside one
    // conjunct (no cross-conjunct access at all).
    let a = sc.catalog.lookup("a").unwrap();
    let b = sc.catalog.lookup("b").unwrap();
    let s = Schedule::new(vec![
        Operation::write(TxnId(1), a, Value::Int(1)),
        Operation::read(TxnId(2), a, Value::Int(1)),
        Operation::write(TxnId(1), b, Value::Int(1)),
    ])
    .unwrap();
    assert!(!is_delayed_read(&s));
    assert!(data_access_graph(&s, &sc.ic).is_acyclic());
    assert!(is_pwsr(&s, &sc.ic).ok());
}

#[test]
fn threaded_executor_agrees_with_checkers() {
    use pwsr::gen::workloads::{random_workload, WorkloadConfig};
    use pwsr::scheduler::concurrent::run_threaded_certified;
    use pwsr::scheduler::policy::PolicySpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(3);
    let w = random_workload(
        &mut rng,
        &WorkloadConfig {
            conjuncts: 2,
            items_per_conjunct: 2,
            n_background: 5,
            cross_read_prob: 0.4,
            fixed_only: true,
            gadgets: 0,
            domain_width: 50,
        },
    );
    let policy = PolicySpec::predicate_wise_2pl(&w.ic);
    let solver = Solver::new(&w.catalog, &w.ic);
    let scopes = w.ic.scopes();
    for _ in 0..3 {
        let (schedule, final_state, verdict) =
            run_threaded_certified(&w.programs, &w.catalog, &w.initial, &policy, scopes.clone())
                .unwrap();
        schedule.check_read_coherence(&w.initial).unwrap();
        assert!(is_pwsr(&schedule, &w.ic).ok());
        assert!(verdict.pwsr() && verdict.len == schedule.len());
        assert_eq!(schedule.apply(&w.initial), final_state);
        assert!(check_strong_correctness(&schedule, &solver, &w.initial).ok());
    }
}
