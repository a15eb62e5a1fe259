//! Cross-crate property tests through the facade: scheduler outputs
//! are always well-formed executions whose guarantees match their
//! policies.

use proptest::prelude::*;
use pwsr::core::monitor::AdmissionLevel;
use pwsr::core::solver::Solver;
use pwsr::core::strong::check_strong_correctness;
use pwsr::durability::fault::{ExecFault, FaultPlan};
use pwsr::durability::recover::recover;
use pwsr::durability::wal::{scan, SharedWal, SyncPolicy, WalRecord};
use pwsr::gen::workloads::{random_workload, WorkloadConfig};
use pwsr::prelude::*;
use pwsr::scheduler::concurrent::{
    replay_matches, run_threaded_certified, run_threaded_occ_tuned, OccTuning,
};
use pwsr::scheduler::error::SchedError;
use pwsr::scheduler::exec::{run_workload, ExecConfig, ExecOutcome};
use pwsr::scheduler::occ::run_occ;
use pwsr::scheduler::policy::{MonitorSpec, PolicySpec};
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
        policy_pick in 0u8..8,
    ) {
        let mut rng = StdRng::seed_from_u64(wseed);
        let w = random_workload(&mut rng, &cfg);
        // All three disciplines of the seeded runner: locking (four
        // policies, and early release under durable PWSR+DR admission),
        // certification, validation (held to the end and early).
        type Runner = fn(&[Program], &Catalog, &DbState, &PolicySpec, &ExecConfig)
            -> Result<ExecOutcome, SchedError>;
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let (run, policy): (Runner, PolicySpec) = match policy_pick {
            0 => (run_workload, PolicySpec::global_2pl()),
            1 => (run_workload, PolicySpec::predicate_wise_2pl(&w.ic)),
            2 => (run_workload, PolicySpec::predicate_wise_2pl_early(&w.ic)),
            3 => (run_workload, PolicySpec::predicate_wise_2pl_early(&w.ic).dr_blocking()),
            4 => (run_sgt, PolicySpec::predicate_wise_2pl(&w.ic)),
            5 => (run_occ, PolicySpec::predicate_wise_2pl(&w.ic)),
            6 => (run_occ, PolicySpec::predicate_wise_2pl_early(&w.ic)),
            _ => (run_workload, PolicySpec::predicate_wise_2pl_early(&w.ic)
                .monitor_admission(&w.ic, AdmissionLevel::PwsrDr)
                .durable(wal.clone())),
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
        // The durable pick: every abort retracted through the undo-log,
        // and the log alone rebuilds the committed schedule.
        if policy.monitor.is_some() {
            let bytes = wal.dump_bytes().unwrap();
            prop_assert!(!scan(&bytes).records.contains(&WalRecord::Reset));
            let rec = recover(w.ic.scopes(), None, &bytes).unwrap();
            prop_assert_eq!(rec.monitor.schedule().ops(), out.schedule.ops());
        }
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

    /// The paper's end-to-end claim on the threaded optimistic
    /// executor: at the PWSR+DR floor, whatever the threads
    /// interleaved, the committed schedule is a coherent execution
    /// whose every transaction replays its program, it meets the
    /// floor, and from a consistent initial state it is strongly
    /// correct (Theorem 2).
    #[test]
    fn threaded_occ_at_pwsr_dr_is_strongly_correct(
        cfg in small_cfg(),
        wseed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(wseed);
        let w = random_workload(&mut rng, &cfg);
        let spec = MonitorSpec::new(w.ic.scopes(), AdmissionLevel::PwsrDr);
        let out = run_threaded_occ_tuned(&w.programs, &w.catalog, &w.initial, &spec,
            2, 10_000, &OccTuning::default()).unwrap();
        out.schedule.check_read_coherence(&w.initial).unwrap();
        prop_assert_eq!(out.schedule.apply(&w.initial), out.final_state.clone());
        for (k, program) in w.programs.iter().enumerate() {
            let txn = TxnId(k as u32 + 1);
            let mine = out.schedule.transaction(txn);
            prop_assert!(replay_matches(program, &w.catalog, txn, mine.ops()), "{}", txn);
        }
        prop_assert!(out.verdict.meets(AdmissionLevel::PwsrDr));
        let solver = Solver::new(&w.catalog, &w.ic);
        prop_assert!(check_strong_correctness(&out.schedule, &solver, &w.initial).ok());
    }

    /// The floor contract on the threaded 2PL executor: under global
    /// spaces (serializable and delayed-read) at every level, and under
    /// predicate-wise spaces (PWSR and delayed-read) at the two levels
    /// they guarantee, the run returns `Ok` — so the committed schedule
    /// meets the level — and that schedule is a coherent execution
    /// whose every transaction replays its program.
    #[test]
    fn threaded_2pl_meets_its_floor(
        cfg in small_cfg(),
        wseed in any::<u64>(),
        pick in 0u8..5,
    ) {
        let mut rng = StdRng::seed_from_u64(wseed);
        let w = random_workload(&mut rng, &cfg);
        let levels = [AdmissionLevel::Serializable, AdmissionLevel::Pwsr, AdmissionLevel::PwsrDr];
        let (policy, level) = match pick {
            0..=2 => (PolicySpec::global_2pl(), levels[pick as usize]),
            _ => (PolicySpec::predicate_wise_2pl(&w.ic), levels[pick as usize - 2]),
        };
        let spec = MonitorSpec::new(w.ic.scopes(), level);
        let (schedule, final_state, verdict) =
            run_threaded_certified(&w.programs, &w.catalog, &w.initial, &policy, &spec).unwrap();
        prop_assert!(verdict.meets(level));
        schedule.check_read_coherence(&w.initial).unwrap();
        prop_assert_eq!(schedule.apply(&w.initial), final_state);
        for (k, program) in w.programs.iter().enumerate() {
            let txn = TxnId(k as u32 + 1);
            let mine = schedule.transaction(txn);
            prop_assert!(replay_matches(program, &w.catalog, txn, mine.ops()), "{}", txn);
        }
    }
}

/// The threaded optimistic executor checkpoints past the transactions
/// its workers are running, and no others. At `compact_every` 1 every
/// commit raises the floor and sweeps; a stall after the first access
/// of every other transaction lets those sweeps land between a claim
/// and the transaction's first push, or just after it. On a hot input
/// (one conjunct over two items, so aborts are common) over 200 runs, no
/// retraction reaches below the floor — it would panic in a worker —
/// and the committed schedule, rebuilt from the WAL because the monitor
/// keeps only its live tail, passes the oracles of
/// `threaded_occ_at_pwsr_dr_is_strongly_correct`.
#[test]
fn threaded_occ_checkpoints_name_running_transactions_only() {
    let cfg = WorkloadConfig {
        conjuncts: 1,
        items_per_conjunct: 2,
        n_background: 6,
        cross_read_prob: 0.5,
        fixed_only: false,
        gadgets: 0,
        domain_width: 40,
    };
    for seed in 0..200u64 {
        let w = random_workload(&mut StdRng::seed_from_u64(seed), &cfg);
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let spec = MonitorSpec {
            wal: Some(wal.clone()),
            compact_every: 1,
            ..MonitorSpec::new(w.ic.scopes(), AdmissionLevel::PwsrDr)
        };
        let plan = (1..=w.programs.len() as u32)
            .step_by(2)
            .fold(FaultPlan::new(), |plan, txn| {
                plan.on_access(txn, 0, ExecFault::Stall { ms: 1 })
            });
        let tuning = OccTuning {
            faults: Some(plan.share()),
            ..OccTuning::default()
        };
        let out = run_threaded_occ_tuned(
            &w.programs,
            &w.catalog,
            &w.initial,
            &spec,
            2,
            10_000,
            &tuning,
        )
        .unwrap();
        assert_eq!(out.metrics.worker_panics, 0, "seed {seed}");
        assert!(out.verdict.meets(AdmissionLevel::PwsrDr), "seed {seed}");
        let bytes = wal.dump_bytes().unwrap();
        let committed = recover(w.ic.scopes(), None, &bytes).unwrap().monitor;
        let committed = committed.schedule();
        committed.check_read_coherence(&w.initial).unwrap();
        assert_eq!(committed.apply(&w.initial), out.final_state, "seed {seed}");
        for (k, program) in w.programs.iter().enumerate() {
            let txn = TxnId(k as u32 + 1);
            let mine = committed.transaction(txn);
            assert!(
                replay_matches(program, &w.catalog, txn, mine.ops()),
                "seed {seed}: {txn}"
            );
        }
        let solver = Solver::new(&w.catalog, &w.ic);
        assert!(
            check_strong_correctness(committed, &solver, &w.initial).ok(),
            "seed {seed}"
        );
    }
}
