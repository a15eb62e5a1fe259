//! The deterministic fault plane, end to end: seeded faults injected
//! beneath the WAL sink and into the OCC executor, and the
//! self-healing machinery that contains them — error policies that
//! retry or degrade instead of silently dropping records, and
//! per-worker panic containment. The windows that need a schedule —
//! a commit's wake, a zombie reap, the frozen projection — are unit
//! tests of `concurrent.rs`, under the turn driver.

use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
use pwsr_core::ids::TxnId;
use pwsr_core::monitor::AdmissionLevel;
use pwsr_core::state::{DbState, ItemSet};
use pwsr_core::value::{Domain, Value};
use pwsr_durability::fault::{ExecFault, FaultPlan, WalFault, WalSite};
use pwsr_durability::recover::recover;
use pwsr_durability::wal::{SharedWal, SyncPolicy, Wal, WalErrorPolicy};
use pwsr_scheduler::concurrent::{replay_matches, run_threaded_occ_tuned, OccTuning};
use pwsr_scheduler::error::SchedError;
use pwsr_scheduler::exec::{run_workload, ExecConfig};
use pwsr_scheduler::policy::{MonitorSpec, PolicySpec};
use pwsr_tplang::ast::Program;
use pwsr_tplang::parser::parse_program;

fn setup() -> (Catalog, IntegrityConstraint, DbState) {
    let mut cat = Catalog::new();
    let a0 = cat.add_item("a0", Domain::int_range(-1000, 1000));
    let b0 = cat.add_item("b0", Domain::int_range(-1000, 1000));
    let ic = IntegrityConstraint::new(vec![Conjunct::new(
        0,
        Formula::le(Term::var(a0), Term::var(b0)),
    )])
    .unwrap();
    let initial = DbState::from_pairs([(a0, Value::Int(0)), (b0, Value::Int(100))]);
    (cat, ic, initial)
}

/// `n` transactions all incrementing the same hot item: every pair
/// conflicts, so one stalled writer blocks everyone behind it.
fn hot_increments(n: usize) -> Vec<Program> {
    (0..n)
        .map(|k| parse_program(&format!("H{k}"), "a0 := a0 + 1;").unwrap())
        .collect()
}

fn occ_spec(ic: &IntegrityConstraint, wal: Option<SharedWal>) -> MonitorSpec {
    MonitorSpec {
        wal,
        ..MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)
    }
}

/// A stalled writer (no deadlines armed) must not wedge the pool or
/// lose a wakeup: waiters park on the stripe condvar, the 30 ms stall
/// ends well inside the park budget (256 parks of 500 µs), and every
/// increment lands.
#[test]
fn stalled_writer_no_lost_wakeup() {
    let (cat, ic, initial) = setup();
    // Access 1 of H0 is the write of a0: the stall holds the dirty
    // mark for 30ms while five other writers wait.
    let plan = FaultPlan::new()
        .on_access(1, 1, ExecFault::Stall { ms: 30 })
        .share();
    let tuning = OccTuning {
        faults: Some(plan.clone()),
        ..OccTuning::default()
    };
    let out = run_threaded_occ_tuned(
        &hot_increments(6),
        &cat,
        &initial,
        &occ_spec(&ic, None),
        4,
        10_000,
        &tuning,
    )
    .unwrap();
    assert_eq!(plan.remaining(), 0, "the stall point must fire");
    assert_eq!(out.metrics.injected_faults, 1);
    assert_eq!(out.metrics.zombie_reaps, 0, "no deadlines, no reaps");
    assert_eq!(
        out.final_state.get(cat.lookup("a0").unwrap()),
        Some(&Value::Int(6)),
        "all six increments survive a 30ms stall: {}",
        out.schedule
    );
    out.schedule.check_read_coherence(&initial).unwrap();
}

/// A doomed attempt never ends the run, on threads either. R loops
/// unless it sees a0 = b0 and W moves both; R stalls between its two
/// reads, so W can commit in between. The optimistic executor checks
/// the last push's breach before the program's error surfaces, so at
/// every floor R is aborted and retried instead: no run errs, and R
/// replays its program over what it finally read.
#[test]
fn a_doomed_reader_stalled_between_its_reads_is_retried() {
    let mut cat = Catalog::new();
    let (a0, b0) = (
        cat.add_item("a0", Domain::int_range(-1000, 1000)),
        cat.add_item("b0", Domain::int_range(-1000, 1000)),
    );
    let initial = DbState::from_pairs([(a0, Value::Int(0)), (b0, Value::Int(0))]);
    let programs = [
        ("R", "x := a0; y := b0; while (x != y) do x := x;"),
        ("W", "a0 := a0 + 1; b0 := b0 + 1;"),
    ]
    .map(|(name, src)| parse_program(name, src).unwrap());
    let scope = ItemSet::from_iter([a0, b0]);
    for level in [
        AdmissionLevel::Serializable,
        AdmissionLevel::Pwsr,
        AdmissionLevel::PwsrDr,
    ] {
        let spec = MonitorSpec::new(vec![scope.clone()], level);
        for _ in 0..10 {
            let tuning = OccTuning {
                faults: Some(
                    FaultPlan::new()
                        .on_access(1, 0, ExecFault::Stall { ms: 20 })
                        .share(),
                ),
                ..OccTuning::default()
            };
            let out = run_threaded_occ_tuned(&programs, &cat, &initial, &spec, 2, 64, &tuning)
                .unwrap_or_else(|e| panic!("{level:?}: {e}"));
            assert_eq!(out.schedule.len(), 6, "{level:?}: {}", out.schedule);
            let r: Vec<_> = (out.schedule.ops().iter())
                .filter(|o| o.txn == TxnId(1))
                .cloned()
                .collect();
            assert!(
                replay_matches(&programs[0], &cat, TxnId(1), &r),
                "{}",
                out.schedule
            );
        }
    }
}

/// A worker panic mid-transaction is contained: the dead transaction's
/// operations vanish (suffix retracted, writes rolled back), every
/// surviving transaction's subsequence still replays its program, and
/// the published store equals replaying the recorded schedule.
#[test]
fn panicked_worker_containment() {
    let (cat, ic, initial) = setup();
    for fault in [ExecFault::Panic, ExecFault::PanicInStripe] {
        // H2 (TxnId 3) dies at its write access.
        let plan = FaultPlan::new().on_access(3, 1, fault).share();
        let tuning = OccTuning {
            faults: Some(plan.clone()),
            ..OccTuning::default()
        };
        let programs = hot_increments(6);
        let out = run_threaded_occ_tuned(
            &programs,
            &cat,
            &initial,
            &occ_spec(&ic, None),
            3,
            10_000,
            &tuning,
        )
        .unwrap();
        assert_eq!(plan.remaining(), 0, "{fault:?} must fire");
        assert_eq!(out.metrics.worker_panics, 1, "{fault:?} contained once");
        let victim = TxnId(3);
        assert!(
            out.schedule.ops().iter().all(|o| o.txn != victim),
            "the dead transaction leaves no trace: {}",
            out.schedule
        );
        // Survivors must be byte-identical to a replay of their
        // programs against the recorded interleaving.
        for (k, program) in programs.iter().enumerate() {
            let txn = TxnId(k as u32 + 1);
            if txn == victim {
                continue;
            }
            let mine: Vec<_> = out
                .schedule
                .ops()
                .iter()
                .filter(|o| o.txn == txn)
                .cloned()
                .collect();
            assert!(
                replay_matches(program, &cat, txn, &mine),
                "{fault:?}: survivor {txn} must replay: {}",
                out.schedule
            );
        }
        assert_eq!(
            out.final_state,
            out.schedule.apply(&initial),
            "{fault:?}: store equals schedule replay"
        );
        assert_eq!(
            out.final_state.get(cat.lookup("a0").unwrap()),
            Some(&Value::Int(5)),
            "{fault:?}: exactly the victim's increment is missing"
        );
        out.schedule.check_read_coherence(&initial).unwrap();
    }
}

fn wal_file(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pwsr_fault_{}_{name}.wal", std::process::id()))
}

/// A short write under the fail-stop policy surfaces as
/// `SchedError::WalFailed` from the lock-based executor — never a
/// silent drop — and the intact log prefix still recovers.
#[test]
fn fail_stop_surfaces_through_executor() {
    let (cat, ic, initial) = setup();
    let path = wal_file("failstop");
    let plan = FaultPlan::new()
        .on_wal(WalSite::Append, 3, WalFault::ShortWrite { keep: 5 })
        .share();
    let wal = SharedWal::new(
        Wal::create(&path, SyncPolicy::PerRecord)
            .unwrap()
            .with_error_policy(WalErrorPolicy::FailStop)
            .with_faults(plan.clone()),
    );
    let policy = PolicySpec::predicate_wise_2pl(&ic)
        .monitor_admission(&ic, AdmissionLevel::Pwsr)
        .durable(wal.clone());
    let err = run_workload(
        &hot_increments(4),
        &cat,
        &initial,
        &policy,
        &ExecConfig::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, SchedError::WalFailed { .. }),
        "fail-stop must refuse success: {err}"
    );
    assert_eq!(plan.remaining(), 0);
    assert!(wal.stats().dropped_records > 0, "drops are counted");
    // The valid prefix before the torn frame recovers cleanly; the
    // torn frame itself is detected, not replayed.
    wal.sync();
    let disk = std::fs::read(&path).unwrap();
    let rec = recover(ic.scopes(), None, &disk).unwrap();
    assert!(rec.corruption.is_some(), "the torn frame is detected");
    assert_eq!(rec.records_applied, 3, "exactly the intact prefix");
    let _ = std::fs::remove_file(&path);
}

/// The retry policy repairs a torn frame in place: the run succeeds,
/// the incident is visible in `wal_io_errors`, and the log replays to
/// the full monitored schedule as if nothing happened.
#[test]
fn retry_policy_heals_through_executor() {
    let (cat, ic, initial) = setup();
    let path = wal_file("retry");
    let plan = FaultPlan::new()
        .on_wal(WalSite::Append, 2, WalFault::ShortWrite { keep: 3 })
        .share();
    let wal = SharedWal::new(
        Wal::create(&path, SyncPolicy::PerRecord)
            .unwrap()
            .with_error_policy(WalErrorPolicy::RetryBackoff {
                attempts: 4,
                cap_us: 50,
            })
            .with_faults(plan.clone()),
    );
    let policy = PolicySpec::predicate_wise_2pl(&ic)
        .monitor_admission(&ic, AdmissionLevel::Pwsr)
        .durable(wal.clone());
    let out = run_workload(
        &hot_increments(4),
        &cat,
        &initial,
        &policy,
        &ExecConfig::default(),
    )
    .unwrap();
    assert_eq!(plan.remaining(), 0);
    assert!(out.metrics.wal_io_errors >= 1, "the incident is counted");
    assert!(out.metrics.injected_faults >= 1);
    let bytes = wal.dump_bytes().unwrap();
    let rec = recover(ic.scopes(), None, &bytes).unwrap();
    assert!(rec.corruption.is_none(), "the heal leaves no torn frame");
    assert_eq!(
        rec.monitor.schedule().ops(),
        out.schedule.ops(),
        "healed log replays the full schedule"
    );
    let _ = std::fs::remove_file(&path);
}

/// The degrade policy abandons a failing sink for an in-memory one
/// mid-run: the run succeeds and `dump_bytes` (file prefix + memory
/// tail) still replays the full schedule — no record is lost.
#[test]
fn degrade_policy_loses_nothing_through_executor() {
    let (cat, ic, initial) = setup();
    let path = wal_file("degrade");
    let plan = FaultPlan::new()
        .on_wal(WalSite::Append, 4, WalFault::ShortWrite { keep: 2 })
        .share();
    let wal = SharedWal::new(
        Wal::create(&path, SyncPolicy::PerRecord)
            .unwrap()
            .with_error_policy(WalErrorPolicy::DegradeToMemory)
            .with_faults(plan.clone()),
    );
    let policy = PolicySpec::predicate_wise_2pl(&ic)
        .monitor_admission(&ic, AdmissionLevel::Pwsr)
        .durable(wal.clone());
    let out = run_workload(
        &hot_increments(4),
        &cat,
        &initial,
        &policy,
        &ExecConfig::default(),
    )
    .unwrap();
    assert_eq!(plan.remaining(), 0);
    assert!(wal.stats().degraded, "the sink degraded to memory");
    assert!(out.metrics.wal_io_errors >= 1);
    let bytes = wal.dump_bytes().unwrap();
    let rec = recover(ic.scopes(), None, &bytes).unwrap();
    assert!(rec.corruption.is_none());
    assert_eq!(
        rec.monitor.schedule().ops(),
        out.schedule.ops(),
        "file prefix + memory tail replays the full schedule"
    );
    let _ = std::fs::remove_file(&path);
}

/// The OCC executor under a fail-stop WAL fault also refuses success.
#[test]
fn occ_fail_stop_surfaces() {
    let (cat, ic, initial) = setup();
    let plan = FaultPlan::new()
        .on_wal(WalSite::Append, 2, WalFault::ShortWrite { keep: 1 })
        .share();
    let wal = SharedWal::new(
        Wal::in_memory(SyncPolicy::Off)
            .with_error_policy(WalErrorPolicy::FailStop)
            .with_faults(plan.clone()),
    );
    let tuning = OccTuning::default();
    let err = run_threaded_occ_tuned(
        &hot_increments(4),
        &cat,
        &initial,
        &occ_spec(&ic, Some(wal)),
        2,
        10_000,
        &tuning,
    )
    .unwrap_err();
    assert!(
        matches!(err, SchedError::WalFailed { .. }),
        "OCC fail-stop must refuse success: {err}"
    );
    assert_eq!(plan.remaining(), 0);
}
