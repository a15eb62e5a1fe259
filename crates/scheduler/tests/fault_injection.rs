//! The deterministic fault plane, end to end: seeded faults injected
//! beneath the WAL sink and into the OCC executor, and the
//! self-healing machinery that contains them — error policies that
//! retry or degrade instead of silently dropping records, transaction
//! deadlines with a zombie reaper, and per-worker panic containment.

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
/// lose a wakeup: waiters park on the stripe condvar, the stall ends
/// well inside the park budget, and every increment lands.
#[test]
fn stalled_writer_no_lost_wakeup() {
    let (cat, ic, initial) = setup();
    // Access 1 of H0 is the write of a0: the stall holds the dirty
    // mark for 30ms while five other writers wait.
    let plan = FaultPlan::new()
        .on_access(1, 1, ExecFault::Stall { ms: 30 })
        .share();
    let tuning = OccTuning {
        dirty_spin: 4,
        park_budget: 4096,
        park_timeout_us: 200,
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

/// A commit wakes the waiters parked on its marks — told by counts, not
/// by a clock. T1 writes `a0` and stalls holding the dirty mark; T2,
/// back from a shorter stall of its own, reads `a0`: one probe
/// (`dirty_spin` = 1), then its single park (`park_budget` = 1), which
/// lasts a minute unless somebody notifies. T1's commit does
/// (`clear_marks`, the one way a mark is cleared). A lost wake-up would
/// not hang the run — the park times out and finds the mark gone — but
/// T2 would come back long past its 20 s deadline and abort for it:
/// `txn_timeouts` and `occ_aborts` are the witnesses. Nothing here can
/// abort for certification (T1 → T2 is the only order the marks allow),
/// so both read 0 on every repetition; that T2 really parked (`waits` =
/// the probe + the park) must show on one of up to 20 — a loaded host
/// can run T1's worker so late that T2 never meets the mark.
#[test]
fn commit_wakes_the_parked_waiter() {
    let (cat, ic, initial) = setup();
    let programs = vec![
        parse_program("T1", "a0 := 5;").unwrap(),
        parse_program("T2", "b0 := b0 + a0;").unwrap(),
    ];
    let mut parked = false;
    for _ in 0..20 {
        let plan = FaultPlan::new()
            .on_access(1, 0, ExecFault::Stall { ms: 80 })
            .on_access(2, 0, ExecFault::Stall { ms: 20 })
            .share();
        let tuning = OccTuning {
            dirty_spin: 1,
            park_budget: 1,
            park_timeout_us: 60_000_000,
            txn_deadline_us: 20_000_000,
            faults: Some(plan.clone()),
            ..OccTuning::default()
        };
        let spec = occ_spec(&ic, None);
        let out = run_threaded_occ_tuned(&programs, &cat, &initial, &spec, 2, 3, &tuning).unwrap();
        assert_eq!(plan.remaining(), 0, "both stalls fire");
        let m = &out.metrics;
        assert_eq!(
            (m.occ_aborts, m.txn_timeouts, m.zombie_reaps),
            (0, 0, 0),
            "a parked waiter was left to time out"
        );
        out.schedule.check_read_coherence(&initial).unwrap();
        if out.metrics.waits == 2 {
            assert_eq!(
                out.final_state.get(cat.lookup("b0").unwrap()),
                Some(&Value::Int(105)),
                "T2 waited for T1's write, so it read it: {}",
                out.schedule
            );
            parked = true;
            break;
        }
    }
    assert!(parked, "T2 never met T1's dirty mark in 20 runs");
}

/// With deadlines armed, a writer stalled far past its deadline is
/// reaped by a waiter: its write is rolled back, its suffix retracted,
/// the pool progresses, and the victim's retry still lands — nothing
/// is lost, and the run records the reap.
///
/// Whether a *waiter* gets to reap depends on the schedule: when the
/// other five increments finish before T1 reaches its stall there is
/// nobody left to wait on it, and T1 times itself out instead
/// (`timeouts=1 reaps=0`). So every repetition holds the
/// schedule-independent contract — the stall fired, a deadline was
/// missed, no update was lost, the schedule is an execution — and the
/// reap itself must show on at least one of up to 20.
#[test]
fn zombie_reap_restores_progress() {
    let (cat, ic, initial) = setup();
    let mut seen = Vec::new();
    for _ in 0..20 {
        let plan = FaultPlan::new()
            .on_access(1, 1, ExecFault::Stall { ms: 60 })
            .share();
        let tuning = OccTuning {
            dirty_spin: 4,
            park_budget: 4096,
            park_timeout_us: 200,
            // 3ms deadline versus a 60ms stall: the victim is a zombie
            // for ~95% of its stall.
            txn_deadline_us: 3_000,
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
        assert!(out.metrics.txn_timeouts >= 1, "{}", out.metrics);
        assert_eq!(
            out.final_state.get(cat.lookup("a0").unwrap()),
            Some(&Value::Int(6)),
            "reap + retry loses no update: {}",
            out.schedule
        );
        out.schedule.check_read_coherence(&initial).unwrap();
        assert_eq!(out.final_state, out.schedule.apply(&initial));
        seen.push(out.metrics.to_string());
        if out.metrics.zombie_reaps >= 1 {
            return;
        }
    }
    panic!(
        "the stalled writer was never reaped in {} repetitions:\n{}",
        seen.len(),
        seen.join("\n")
    );
}

/// The frozen-projection window, held open for as long as it takes: a
/// reproduction of ROADMAP's P0 through the executor that needs no
/// luck. Four programs over one conjunct {a0, b0, c0, d0}, one worker
/// each, deadlines unarmed, every step placed by a stall (a stall
/// fires after its access and before the breach check):
///
/// ```text
///  0 ms  r1(a) r2(a) r3(c) r4(c)         each then sleeps
/// 10 ms  T2 wakes: w2(a) r2(b) w2(b), commits
/// 30 ms  T1 wakes: r1(b) — reads T2's b, closes the T1/T2 cycle, is
///        told, and sleeps on it until 90 ms: the projection is frozen
/// 45 ms  T4 wakes: w4(c) r4(d) w4(d) — pushed into the frozen graph
/// 60 ms  T3 wakes: r3(d) — a second, disjoint cycle T3/T4, likewise
/// 90 ms  T1 wakes, sees its breach, retracts
/// ```
///
/// A certifier that reports only the push that *first* broke the rung
/// tells T1 alone; T3 and T4 commit, T1's retraction un-freezes the
/// graph over their cycle, and the run ends below its floor. That is
/// what this test shows at the parent of `05f0d7a` (the commit that
/// made every push into a frozen rung a told one): every repetition
/// returns `SchedError::FloorBreached`. Since then T3 and T4 are told
/// as well, retry until T1 is gone, and the run is `Ok`.
///
/// The placement is by sleeping, so a badly loaded host can miss it;
/// same shape as `zombie_reap_restores_progress`: the safety contract
/// is asserted on every repetition, and the window itself — all five
/// stalls injected and somebody besides T1 aborted — must show on at
/// least one of up to 20.
#[test]
fn frozen_window_held_open_by_a_stall_stays_above_the_floor() {
    let mut cat = Catalog::new();
    let items = ["a0", "b0", "c0", "d0"].map(|n| cat.add_item(n, Domain::int_range(-1000, 1000)));
    let initial = DbState::from_pairs(items.map(|i| (i, Value::Int(0))));
    let spec = MonitorSpec::new(vec![ItemSet::from_iter(items)], AdmissionLevel::Pwsr);
    let programs = [
        ("T1", "touch a0; touch b0;"),
        ("T2", "a0 := a0 + 1; b0 := b0 + 1;"),
        ("T3", "touch c0; touch d0;"),
        ("T4", "c0 := c0 + 1; d0 := d0 + 1;"),
    ]
    .map(|(name, src)| parse_program(name, src).unwrap());
    let mut seen = Vec::new();
    for _ in 0..20 {
        let plan = FaultPlan::new()
            .on_access(1, 0, ExecFault::Stall { ms: 30 })
            .on_access(2, 0, ExecFault::Stall { ms: 10 })
            .on_access(3, 0, ExecFault::Stall { ms: 60 })
            .on_access(4, 0, ExecFault::Stall { ms: 45 })
            .on_access(1, 1, ExecFault::Stall { ms: 60 })
            .share();
        let tuning = OccTuning {
            faults: Some(plan.clone()),
            ..OccTuning::default()
        };
        // Whoever is told while T1 sleeps retries until it wakes.
        let out = run_threaded_occ_tuned(&programs, &cat, &initial, &spec, 4, u32::MAX, &tuning)
            .unwrap_or_else(|e| panic!("the run must stay above its floor: {e}"));
        assert!(out.verdict.meets(spec.level), "{:?}", out.verdict);
        out.schedule.check_read_coherence(&initial).unwrap();
        assert_eq!(out.final_state, out.schedule.apply(&initial));
        for (k, program) in programs.iter().enumerate() {
            let txn = TxnId(k as u32 + 1);
            let mine: Vec<_> = (out.schedule.ops().iter())
                .filter(|o| o.txn == txn)
                .cloned()
                .collect();
            assert!(
                replay_matches(program, &cat, txn, &mine),
                "{txn} must replay: {}",
                out.schedule
            );
        }
        seen.push(out.metrics.to_string());
        if plan.remaining() == 0 && out.metrics.occ_aborts >= 2 {
            return;
        }
    }
    panic!(
        "the window was never exercised in {} repetitions:\n{}",
        seen.len(),
        seen.join("\n")
    );
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
