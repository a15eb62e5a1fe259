//! End-to-end durability: executors journal their admission stream
//! into a WAL, and `pwsr_durability::recover` rebuilds the monitored
//! trace byte-identically from that log alone — across the lock-based
//! executor, the certified threaded executor, and the OCC threaded
//! executor (whose abort retractions exercise the `Truncate` records).

use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
use pwsr_core::monitor::{AdmissionLevel, OnlineMonitor};
use pwsr_core::state::{DbState, ItemSet};
use pwsr_core::value::{Domain, Value};
use pwsr_durability::checkpoint::state_hash;
use pwsr_durability::recover::recover;
use pwsr_durability::wal::{scan, SharedWal, SyncPolicy, Wal, WalRecord};
use pwsr_scheduler::concurrent::{run_threaded_certified, run_threaded_occ_tuned, OccTuning};
use pwsr_scheduler::exec::{run_workload, ExecConfig};
use pwsr_scheduler::policy::{MonitorSpec, PolicySpec};
use pwsr_tplang::ast::Program;
use pwsr_tplang::parser::parse_program;
use std::path::PathBuf;

fn setup() -> (Catalog, IntegrityConstraint, DbState) {
    let mut cat = Catalog::new();
    let a0 = cat.add_item("a0", Domain::int_range(-1000, 1000));
    let b0 = cat.add_item("b0", Domain::int_range(-1000, 1000));
    let a1 = cat.add_item("a1", Domain::int_range(-1000, 1000));
    let b1 = cat.add_item("b1", Domain::int_range(-1000, 1000));
    let ic = IntegrityConstraint::new(vec![
        Conjunct::new(0, Formula::le(Term::var(a0), Term::var(b0))),
        Conjunct::new(1, Formula::le(Term::var(a1), Term::var(b1))),
    ])
    .unwrap();
    let initial = DbState::from_pairs([
        (a0, Value::Int(0)),
        (b0, Value::Int(100)),
        (a1, Value::Int(0)),
        (b1, Value::Int(100)),
    ]);
    (cat, ic, initial)
}

fn programs() -> Vec<Program> {
    vec![
        parse_program("T1", "a0 := a0 + 1; a1 := a1 + 1;").unwrap(),
        parse_program("T2", "b0 := b0 + 1;").unwrap(),
        parse_program("T3", "b1 := b1 + 1; a1 := a1 + 2;").unwrap(),
        parse_program("T4", "a0 := a0 + 3;").unwrap(),
    ]
}

/// A file-backed shared WAL in the OS temp dir — the executors here
/// journal through real file I/O (buffered writes, fsync, a reopened
/// read for recovery), not a `Vec<u8>` stand-in.
fn file_wal(name: &str, policy: SyncPolicy) -> (SharedWal, PathBuf) {
    let path = std::env::temp_dir().join(format!("pwsr_sched_{}_{name}.wal", std::process::id()));
    let wal = SharedWal::new(Wal::create(&path, policy).expect("create WAL file"));
    (wal, path)
}

/// Recover from `wal`'s bytes and assert the rebuilt monitor is
/// byte-identical (state hash) to a twin built by replaying `ops`
/// directly and raising the floor to `floor`.
fn assert_recovery_matches(
    scopes: Vec<ItemSet>,
    wal: &SharedWal,
    ops: &[pwsr_core::op::Operation],
    floor: usize,
) {
    let bytes = wal.dump_bytes().expect("dump WAL bytes");
    let rec = recover(scopes.clone(), None, &bytes).expect("recovery must succeed");
    assert!(rec.corruption.is_none(), "clean log: {:?}", rec.corruption);
    assert_eq!(rec.monitor.schedule().ops(), ops, "recovered schedule");
    assert_eq!(rec.monitor.log_floor(), floor, "recovered floor");

    let mut twin = OnlineMonitor::new(scopes);
    for op in ops {
        twin.push_logged(op.clone()).expect("twin replay");
    }
    twin.checkpoint(floor);
    assert_eq!(rec.monitor.verdict(), twin.verdict(), "recovered verdict");
    assert_eq!(
        state_hash(&rec.monitor),
        state_hash(&twin),
        "recovered state hash"
    );
}

/// The lock-based executor journals every admitted operation (and its
/// per-step checkpoint floor raises); replaying the log alone rebuilds
/// the monitored trace, verdict, and floor.
#[test]
fn exec_wal_recovers_monitored_trace() {
    let (cat, ic, initial) = setup();
    let (wal, path) = file_wal("exec", SyncPolicy::PerRecord);
    let policy = PolicySpec::predicate_wise_2pl(&ic)
        .monitor_admission(&ic, AdmissionLevel::Pwsr)
        .durable(wal.clone());
    assert!(policy.name.contains("+WAL"));
    let out = run_workload(&programs(), &cat, &initial, &policy, &ExecConfig::default()).unwrap();
    assert!(out.metrics.wal_appends >= out.metrics.committed_ops);
    assert!(out.metrics.wal_bytes > 0);
    assert!(out.metrics.wal_fsyncs > 0);
    assert_eq!(out.metrics.wal_io_errors, 0, "healthy file WAL");
    assert_recovery_matches(
        ic.scopes(),
        &wal,
        out.schedule.ops(),
        out.metrics.monitor_log_floor as usize,
    );
    // The on-disk bytes themselves (not the dump) must also replay.
    wal.sync();
    let disk = std::fs::read(&path).expect("read WAL file");
    let rec = recover(ic.scopes(), None, &disk).expect("recover from disk bytes");
    assert_eq!(rec.monitor.schedule().ops(), out.schedule.ops());
    let _ = std::fs::remove_file(&path);
}

/// A read from an unfinished writer is not a delayed read, and it lets
/// an abort cascade into a transaction that has already finished: under
/// early release `T1` can read `x` from `W` while `W` still runs, finish,
/// and then fall with `W` when admission at PWSR+DR refuses `W`'s next
/// write. The runner checkpoints every transaction an abort can reach,
/// so such a reader stays above the floor and the cascade retracts
/// through the undo-log like any other abort: no run writes `Reset`,
/// and every log recovers to the committed schedule and floor.
#[test]
fn cascade_into_a_finished_reader_stays_above_the_floor() {
    let mut cat = Catalog::new();
    let x = cat.add_item("x", Domain::int_range(-1000, 1000));
    let y = cat.add_item("y", Domain::int_range(-1000, 1000));
    let c = cat.add_item("c", Domain::int_range(-1000, 1000));
    let ic = IntegrityConstraint::new(vec![
        Conjunct::new(0, Formula::ge(Term::var(x), Term::int(0))),
        Conjunct::new(1, Formula::le(Term::var(y), Term::var(c))),
    ])
    .unwrap();
    let initial =
        DbState::from_pairs([(x, Value::Int(0)), (y, Value::Int(0)), (c, Value::Int(10))]);
    let programs = vec![
        parse_program("T1", "t := c; u := x;").unwrap(),
        parse_program("W", "x := 1; y := 1;").unwrap(),
    ];
    for seed in 0..64 {
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let policy = PolicySpec::predicate_wise_2pl_early(&ic)
            .monitor_admission(&ic, AdmissionLevel::PwsrDr)
            .durable(wal.clone());
        let cfg = ExecConfig {
            seed,
            ..ExecConfig::default()
        };
        let out = run_workload(&programs, &cat, &initial, &policy, &cfg).unwrap();
        let records = scan(&wal.dump_bytes().unwrap()).records;
        assert!(!records.contains(&WalRecord::Reset), "seed {seed}");
        assert_recovery_matches(
            ic.scopes(),
            &wal,
            out.schedule.ops(),
            out.metrics.monitor_log_floor as usize,
        );
    }
}

/// The certified threaded executor journals under the monitor's
/// sequence mutex, so WAL order is claimed schedule order even under
/// real thread interleaving.
#[test]
fn threaded_certified_wal_recovers_monitored_trace() {
    let (cat, ic, initial) = setup();
    for round in 0..5 {
        let (wal, path) = file_wal(&format!("cert{round}"), SyncPolicy::Batched(8));
        let policy = PolicySpec::predicate_wise_2pl(&ic);
        let spec = MonitorSpec {
            wal: Some(wal.clone()),
            ..MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)
        };
        let (schedule, _, _) =
            run_threaded_certified(&programs(), &cat, &initial, &policy, &spec).unwrap();
        // Batched admission journals one framed multi-op record per
        // transaction; the WAL's batch counters must say exactly that.
        let ws = wal.stats();
        assert_eq!(ws.batch_pushes, 4, "one OpBatch record per transaction");
        assert_eq!(ws.batched_ops, schedule.len() as u64);
        assert_eq!(ws.max_batch, 4, "T1/T3 carry four operations each");
        assert_recovery_matches(ic.scopes(), &wal, schedule.ops(), 0);
        let _ = std::fs::remove_file(&path);
    }
}

/// The OCC executor under contention: aborts retract journaled
/// suffixes (`Truncate` records) and re-append on retry, dirty waits
/// spin and then park on the stripe condvar — no update and no wakeup
/// may be lost, a restart chain ends with nothing lost, and the WAL
/// must still replay to the committed trace.
#[test]
fn occ_tuned_parking_and_wal_survive_contention() {
    let (cat, ic, initial) = setup();
    let hot: Vec<Program> = (0..6)
        .map(|k| parse_program(&format!("H{k}"), "a0 := a0 + 1;").unwrap())
        .collect();
    let tuning = OccTuning::default();
    for round in 0..10 {
        let (wal, path) = file_wal(&format!("occ{round}"), SyncPolicy::Off);
        let spec = MonitorSpec {
            wal: Some(wal.clone()),
            ..MonitorSpec::new(ic.scopes(), AdmissionLevel::Pwsr)
        };
        let out = run_threaded_occ_tuned(&hot, &cat, &initial, &spec, 4, 10_000, &tuning).unwrap();
        out.schedule.check_read_coherence(&initial).unwrap();
        assert_eq!(
            out.final_state.get(cat.lookup("a0").unwrap()),
            Some(&Value::Int(6)),
            "all six increments must survive parking: {}",
            out.schedule
        );
        // Every committed op travelled inside a batch record (the OCC
        // path defers writes and flushes reads with them), and abort
        // retries only add batches — never singleton op records.
        assert!(out.metrics.batch_pushes > 0);
        assert!(out.metrics.batched_ops as usize >= out.schedule.len());
        let ws = wal.stats();
        assert!(ws.batch_pushes > 0);
        assert!(ws.batched_ops >= out.schedule.len() as u64);
        assert!(ws.max_batch >= 1);
        assert_recovery_matches(ic.scopes(), &wal, out.schedule.ops(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
