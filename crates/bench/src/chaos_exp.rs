//! CHA-1 — the chaos-plane sweep: seeded, deterministic fault points
//! driven through all three executors and the WAL's error policies.
//!
//! Every point is a pure function of `(seed, index)` (via
//! [`pwsr_durability::fault::mix`]): it registers exactly one fault in
//! a [`FaultPlan`] — a torn WAL write, a failed fsync, a failed
//! checkpoint rotation, a stalled worker, or a worker panic (outside
//! or inside a stripe latch) — runs the workload against it, and then
//! holds the system to the containment contract:
//!
//! * the fault **fired** (`plan.remaining() == 0` — a point that never
//!   fires mis-predicted an invocation index and tested nothing);
//! * the outcome matches the configured [`WalErrorPolicy`]: fail-stop
//!   surfaces `SchedError::WalFailed`, retry/degrade runs succeed with
//!   nothing lost;
//! * a post-fault **recovery round-trip** (`recover` over
//!   `dump_bytes`) rebuilds exactly the surviving log;
//! * a **fault-free twin** agrees: deterministic executors reproduce
//!   the baseline schedule byte-for-byte, threaded executors replay
//!   every surviving transaction's subsequence and reach
//!   `schedule.apply(initial)`.
//!
//! One trial sweeps 132 points: 48 through the lock-based executor, 24
//! through the certified threaded executor, 12 through checkpoint
//! rotation, and 48 through the OCC executor (stalls reaped by the
//! zombie reaper, contained panics, torn OCC journal writes).

use std::path::PathBuf;

use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
use pwsr_core::ids::TxnId;
use pwsr_core::monitor::{AdmissionLevel, OnlineMonitor};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::DbState;
use pwsr_core::value::{Domain, Value};
use pwsr_durability::advance_frontier;
use pwsr_durability::fault::{mix, ExecFault, FaultHandle, FaultPlan, WalFault, WalSite};
use pwsr_durability::recover::recover;
use pwsr_durability::wal::{scan, SharedWal, SyncPolicy, Wal, WalErrorPolicy, WalRecord};
use pwsr_scheduler::concurrent::{
    replay_matches, run_threaded_certified, run_threaded_occ_tuned, OccTuning,
};
use pwsr_scheduler::error::SchedError;
use pwsr_scheduler::exec::{run_workload, ExecConfig};
use pwsr_scheduler::policy::{MonitorSpec, PolicySpec};
use pwsr_tplang::ast::Program;
use pwsr_tplang::parser::parse_program;

use crate::report::Table;

/// The counts of one CHA-1 sweep; `cha1`'s shape check gates on every
/// field.
#[derive(Default)]
struct ChaosStats {
    /// Fault points registered (each registers exactly one fault).
    fault_points: u64,
    /// Points whose run honoured the full containment contract.
    contained: u64,
    /// Points injected beneath the WAL sink (append/sync/rotate).
    wal_fault_points: u64,
    /// Points injected into executor workers (stall/panic).
    exec_fault_points: u64,
    /// Post-fault `recover` round-trips attempted.
    recover_checks: u64,
    /// ... of which rebuilt exactly the surviving log.
    recover_ok: u64,
    /// Fault-free-twin parity checks attempted (schedule/replay/apply).
    parity_checks: u64,
    /// ... of which agreed with the twin.
    parity_ok: u64,
    /// Zombie transactions reclaimed by the OCC reaper.
    zombie_reaps: u64,
    /// Worker panics contained by the executor.
    worker_panics: u64,
    /// Transaction deadline expiries (self-detected or reaped).
    txn_timeouts: u64,
    /// WAL I/O errors observed (including policy-healed ones).
    wal_io_errors: u64,
    /// Faults the chaos plane actually fired.
    injected_faults: u64,
}

impl ChaosStats {
    /// Every registered point fired and was contained, and every
    /// recovery / parity check passed.
    fn all_contained(&self) -> bool {
        self.contained == self.fault_points
            && self.recover_ok == self.recover_checks
            && self.parity_ok == self.parity_checks
    }
}

/// Per-leg bookkeeping folded into the table and the global stats.
#[derive(Default)]
struct Tally {
    points: u64,
    contained: u64,
    recover_checks: u64,
    recover_ok: u64,
    parity_checks: u64,
    parity_ok: u64,
}

impl Tally {
    fn point(&mut self, ok: bool) {
        self.points += 1;
        self.contained += ok as u64;
    }

    fn recover(&mut self, ok: bool) -> bool {
        self.recover_checks += 1;
        self.recover_ok += ok as u64;
        ok
    }

    fn parity(&mut self, ok: bool) -> bool {
        self.parity_checks += 1;
        self.parity_ok += ok as u64;
        ok
    }
}

const LEGS: usize = 7;
const LEG_NAMES: [&str; LEGS] = [
    "exec+wal",
    "2pl-mt+wal",
    "rotate",
    "occ-stall",
    "occ-panic",
    "occ-stripe-panic",
    "occ+wal",
];

/// The three error policies every WAL leg sweeps.
const POLICIES: [WalErrorPolicy; 3] = [
    WalErrorPolicy::FailStop,
    WalErrorPolicy::RetryBackoff {
        attempts: 4,
        cap_us: 50,
    },
    WalErrorPolicy::DegradeToMemory,
];

fn policy_label(p: WalErrorPolicy) -> &'static str {
    match p {
        WalErrorPolicy::FailStop => "fail-stop",
        WalErrorPolicy::RetryBackoff { .. } => "retry",
        WalErrorPolicy::DegradeToMemory => "degrade",
    }
}

/// Shared workload fixtures (the `wal_recovery` integration suite's
/// two-conjunct bank schema).
struct Ctx {
    cat: Catalog,
    ic: IntegrityConstraint,
    initial: DbState,
    progs: Vec<Program>,
}

impl Ctx {
    fn new() -> Ctx {
        let mut cat = Catalog::new();
        let a0 = cat.add_item("a0", Domain::int_range(-1000, 1000));
        let b0 = cat.add_item("b0", Domain::int_range(-1000, 1000));
        let a1 = cat.add_item("a1", Domain::int_range(-1000, 1000));
        let b1 = cat.add_item("b1", Domain::int_range(-1000, 1000));
        let ic = IntegrityConstraint::new(vec![
            Conjunct::new(0, Formula::le(Term::var(a0), Term::var(b0))),
            Conjunct::new(1, Formula::le(Term::var(a1), Term::var(b1))),
        ])
        .expect("constraint");
        let initial = DbState::from_pairs([
            (a0, Value::Int(0)),
            (b0, Value::Int(100)),
            (a1, Value::Int(0)),
            (b1, Value::Int(100)),
        ]);
        let progs = vec![
            parse_program("T1", "a0 := a0 + 1; a1 := a1 + 1;").expect("T1"),
            parse_program("T2", "b0 := b0 + 1;").expect("T2"),
            parse_program("T3", "b1 := b1 + 1; a1 := a1 + 2;").expect("T3"),
            parse_program("T4", "a0 := a0 + 3;").expect("T4"),
        ];
        Ctx {
            cat,
            ic,
            initial,
            progs,
        }
    }

    fn wal_policy(&self, wal: SharedWal) -> PolicySpec {
        PolicySpec::predicate_wise_2pl(&self.ic)
            .monitor_admission(&self.ic, AdmissionLevel::Pwsr)
            .durable(wal)
    }

    /// Six increments of the single hot item `a0` — the contention
    /// workload the reaper and panic legs run.
    fn hot(&self) -> Vec<Program> {
        (0..6)
            .map(|k| parse_program(&format!("H{k}"), "a0 := a0 + 1;").expect("hot"))
            .collect()
    }

    /// Four transactions on four disjoint items: no conflicts, no
    /// aborts, hence a deterministic OCC journal (exactly 8 appends) —
    /// what makes WAL fault indices predictable under threading.
    fn disjoint(&self) -> Vec<Program> {
        ["a0", "b0", "a1", "b1"]
            .iter()
            .enumerate()
            .map(|(k, item)| {
                parse_program(&format!("D{k}"), &format!("{item} := {item} + 1;"))
                    .expect("disjoint")
            })
            .collect()
    }
}

/// A file-backed shared WAL in the OS temp dir, armed with an error
/// policy and (optionally) a fault plan.
fn file_wal(
    tag: &str,
    salt: u64,
    sync: SyncPolicy,
    policy: WalErrorPolicy,
    faults: Option<FaultHandle>,
) -> (SharedWal, PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "pwsr_cha1_{}_{tag}_{salt:016x}.wal",
        std::process::id()
    ));
    let mut wal = Wal::create(&path, sync)
        .expect("create WAL file")
        .with_error_policy(policy);
    if let Some(f) = faults {
        wal = wal.with_faults(f);
    }
    (SharedWal::new(wal), path)
}

/// The fault-free twin of the deterministic executor leg: schedule,
/// WAL record stream, and site invocation counts to index faults into.
struct ExecBaseline {
    ops: Vec<Operation>,
    recs: Vec<WalRecord>,
    appends: u64,
    fsyncs: u64,
}

fn exec_baseline(ctx: &Ctx, salt: u64, notes: &mut Vec<String>) -> Option<ExecBaseline> {
    let (wal, path) = file_wal(
        "base",
        salt,
        SyncPolicy::PerRecord,
        WalErrorPolicy::FailStop,
        None,
    );
    let out = run_workload(
        &ctx.progs,
        &ctx.cat,
        &ctx.initial,
        &ctx.wal_policy(wal.clone()),
        &ExecConfig::default(),
    );
    let ws = wal.stats();
    let dump = wal.dump_bytes().unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    match out {
        Ok(out) if ws.appends > 0 && ws.fsyncs > 0 => Some(ExecBaseline {
            ops: out.schedule.ops().to_vec(),
            recs: scan(&dump).records,
            appends: ws.appends,
            fsyncs: ws.fsyncs,
        }),
        Ok(_) => {
            notes.push("baseline journalled nothing".into());
            None
        }
        Err(e) => {
            notes.push(format!("fault-free baseline failed: {e}"));
            None
        }
    }
}

/// One WAL fault: the `nth` append is torn short, or the `nth` fsync
/// fails.
fn wal_plan(kind: usize, nth_append: u64, nth_sync: u64, r2: u64) -> FaultPlan {
    if kind == 0 {
        FaultPlan::new().on_wal(
            WalSite::Append,
            nth_append,
            WalFault::ShortWrite {
                keep: (r2 % 7) as usize,
            },
        )
    } else {
        FaultPlan::new().on_wal(WalSite::Sync, nth_sync, WalFault::SyncFail)
    }
}

/// `n` WAL points whose fault-free baseline failed: none is contained.
fn lost(n: u64, tally: &mut Tally, s: &mut ChaosStats) {
    for _ in 0..n {
        tally.point(false);
    }
    s.fault_points += n;
    s.wal_fault_points += n;
}

/// Did the plan's single point fire, and only it?
fn fired(plan: &FaultHandle) -> bool {
    plan.remaining() == 0 && plan.injected() == 1
}

/// Does every transaction of `progs` (but `skip`) replay its own
/// subsequence of `schedule`?
fn replays(ctx: &Ctx, progs: &[Program], schedule: &Schedule, skip: Option<TxnId>) -> bool {
    (0..progs.len()).all(|k| {
        let txn = TxnId(k as u32 + 1);
        let sub: Vec<Operation> = schedule
            .ops()
            .iter()
            .filter(|o| o.txn == txn)
            .cloned()
            .collect();
        skip == Some(txn) || replay_matches(&progs[k], &ctx.cat, txn, &sub)
    })
}

/// One fault point of a WAL leg (`exec+wal`, `2pl-mt+wal`,
/// `occ+wal`): the file WAL it arms and what it is checked against.
struct WalPoint<'a> {
    leg: &'static str,
    pid: u64,
    /// Names the WAL file.
    salt: u64,
    sync: SyncPolicy,
    policy: WalErrorPolicy,
    plan: FaultHandle,
    /// The fault-free twin's record stream, where the leg has one: a
    /// fail-stopped log must be a clean prefix of it.
    twin_records: Option<&'a [WalRecord]>,
}

/// Run one WAL fault point and hold it to the containment contract.
/// `run` drives the leg's executor over the armed WAL and returns the
/// committed schedule with whether it passed the leg's parity test.
/// Fail-stop must surface `WalFailed` and leave a log that recovers
/// cleanly; a healing policy must drop nothing, pass parity, degrade
/// exactly when it is `DegradeToMemory`, and recover exactly the
/// committed schedule.
fn wal_point(
    ctx: &Ctx,
    point: WalPoint<'_>,
    run: impl FnOnce(SharedWal) -> Result<(Schedule, bool), SchedError>,
    tally: &mut Tally,
    s: &mut ChaosStats,
    notes: &mut Vec<String>,
) {
    let WalPoint {
        leg,
        pid,
        salt,
        sync,
        policy,
        plan,
        twin_records,
    } = point;
    let (wal, path) = file_wal(leg, salt, sync, policy, Some(plan.clone()));
    let res = run(wal.clone());
    let ws = wal.stats();
    let dump = wal.dump_bytes().unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    s.fault_points += 1;
    s.wal_fault_points += 1;
    s.wal_io_errors += ws.io_errors;
    s.injected_faults += plan.injected();
    let recovered = recover(ctx.ic.scopes(), None, &dump)
        .ok()
        .filter(|r| r.corruption.is_none());
    let mut ok = fired(&plan);
    match (policy, &res) {
        (WalErrorPolicy::FailStop, _) => {
            ok &= matches!(res, Err(SchedError::WalFailed { .. }));
            let prefix = twin_records.is_none_or(|twin| {
                let got = scan(&dump);
                got.corruption.is_none() && twin.starts_with(&got.records)
            });
            ok &= tally.recover(prefix && recovered.is_some());
        }
        (_, Ok((schedule, parity))) => {
            ok &= ws.dropped_records == 0;
            ok &= ws.degraded == (policy == WalErrorPolicy::DegradeToMemory);
            ok &= tally.parity(*parity);
            ok &= tally
                .recover(recovered.is_some_and(|r| r.monitor.schedule().ops() == schedule.ops()));
        }
        (_, Err(e)) => {
            notes.push(format!(
                "{leg} {} point {pid}: healed policy still failed: {e}",
                policy_label(policy)
            ));
            ok = false;
        }
    }
    if !ok && notes.len() < 8 {
        notes.push(format!(
            "{leg} {} point {pid} not contained",
            policy_label(policy)
        ));
    }
    tally.point(ok);
}

/// Leg 1 (48 points): the deterministic lock-based executor over a
/// file-backed WAL, three error policies × {torn append, failed fsync}
/// × 8 seeded indices. Fail-stop must leave a clean prefix of the
/// fault-free twin's log; retry/degrade must reproduce the fault-free
/// schedule.
fn leg_exec_wal(
    ctx: &Ctx,
    ts: u64,
    pid: &mut u64,
    tally: &mut Tally,
    s: &mut ChaosStats,
    notes: &mut Vec<String>,
) {
    let Some(base) = exec_baseline(ctx, ts, notes) else {
        return lost(48, tally, s);
    };
    for policy in POLICIES {
        for kind in 0..2 {
            for _ in 0..8 {
                *pid += 1;
                let r1 = mix(ts, *pid * 2);
                let r2 = mix(ts, *pid * 2 + 1);
                let point = WalPoint {
                    leg: "exec+wal",
                    pid: *pid,
                    salt: mix(ts, *pid),
                    sync: SyncPolicy::PerRecord,
                    policy,
                    plan: wal_plan(kind, r1 % base.appends, r1 % base.fsyncs, r2).share(),
                    twin_records: Some(&base.recs),
                };
                let run = |wal| {
                    let out = run_workload(
                        &ctx.progs,
                        &ctx.cat,
                        &ctx.initial,
                        &ctx.wal_policy(wal),
                        &ExecConfig::default(),
                    )?;
                    let parity = out.schedule.ops() == base.ops.as_slice();
                    Ok((out.schedule, parity))
                };
                wal_point(ctx, point, run, tally, s, notes);
            }
        }
    }
}

/// Leg 2 (24 points): the certified threaded executor. Interleaving is
/// thread-scheduled, but the journal's *length* is deterministic —
/// batched admission frames each transaction's whole run as one
/// `OpBatch` record, so the four-transaction workload always journals
/// exactly 4 appends (and, under `PerRecord`, 4 fsyncs) and fault
/// indices below 4 always land. Parity on the surviving run: every
/// transaction's subsequence replays, the final state is
/// `schedule.apply(initial)`, and the WAL recovers the exact claimed
/// schedule.
fn leg_threaded_wal(
    ctx: &Ctx,
    ts: u64,
    pid: &mut u64,
    tally: &mut Tally,
    s: &mut ChaosStats,
    notes: &mut Vec<String>,
) {
    for policy in POLICIES {
        for kind in 0..2 {
            for _ in 0..4 {
                *pid += 1;
                let r1 = mix(ts, *pid * 2);
                let r2 = mix(ts, *pid * 2 + 1);
                let point = WalPoint {
                    leg: "2pl-mt+wal",
                    pid: *pid,
                    salt: mix(ts, *pid),
                    sync: SyncPolicy::PerRecord,
                    policy,
                    plan: wal_plan(kind, r1 % 4, r1 % 4, r2).share(),
                    twin_records: None,
                };
                let run = |wal| {
                    let policy = ctx.wal_policy(wal);
                    let (schedule, final_state, _) = run_threaded_certified(
                        &ctx.progs,
                        &ctx.cat,
                        &ctx.initial,
                        &policy,
                        policy.monitor.as_ref().expect("the WAL policy monitors"),
                    )?;
                    let parity = replays(ctx, &ctx.progs, &schedule, None)
                        && final_state == schedule.apply(&ctx.initial);
                    Ok((schedule, parity))
                };
                wal_point(ctx, point, run, tally, s, notes);
            }
        }
    }
}

/// Leg 3 (12 points): checkpoint rotation. The committed trace is
/// journalled in four chunks with an `advance_frontier` rotation after
/// each; one seeded rotation fails. Fail-stop keeps the pre-rotation
/// log intact and surfaces the error; retry/degrade end with the full
/// trace recoverable.
fn leg_rotate(
    ctx: &Ctx,
    ts: u64,
    pid: &mut u64,
    tally: &mut Tally,
    s: &mut ChaosStats,
    notes: &mut Vec<String>,
) {
    let Some(base) = exec_baseline(ctx, mix(ts, 0xB0), notes) else {
        return lost(12, tally, s);
    };
    let n = base.ops.len();
    let bound = |j: usize| j * n / 4;
    for policy in POLICIES {
        for _ in 0..4 {
            *pid += 1;
            let r = mix(ts, *pid * 2) % 4;
            let plan = FaultPlan::new()
                .on_wal(WalSite::Rotate, r, WalFault::RotateFail)
                .share();
            let (wal, path) = file_wal(
                "c",
                mix(ts, *pid),
                SyncPolicy::Off,
                policy,
                Some(plan.clone()),
            );
            let mut monitor =
                OnlineMonitor::new(ctx.ic.scopes()).with_journal(Box::new(wal.clone()));
            let mut pushed_ok = true;
            for j in 0..4 {
                for op in &base.ops[bound(j)..bound(j + 1)] {
                    pushed_ok &= monitor.push_logged(op.clone()).is_ok();
                }
                let _ = advance_frontier(&mut monitor, &wal, None);
            }
            let error = wal.take_error();
            let ws = wal.stats();
            let dump = wal.dump_bytes().unwrap_or_default();
            let _ = std::fs::remove_file(&path);
            s.fault_points += 1;
            s.wal_fault_points += 1;
            s.wal_io_errors += ws.io_errors;
            s.injected_faults += plan.injected();
            let mut ok = fired(&plan) && pushed_ok;
            // Fail-stop froze the log at the chunk whose rotation
            // failed; the healing policies carry the whole trace.
            let expected = match policy {
                WalErrorPolicy::FailStop => {
                    ok &= error.is_some();
                    &base.ops[..bound(r as usize + 1)]
                }
                WalErrorPolicy::RetryBackoff { .. } => {
                    ok &= error.is_none() && ws.retries >= 1;
                    &base.ops[..]
                }
                WalErrorPolicy::DegradeToMemory => {
                    ok &= error.is_none() && ws.degraded;
                    &base.ops[..]
                }
            };
            let mut twin = OnlineMonitor::new(ctx.ic.scopes());
            let twin_ok = expected
                .iter()
                .all(|op| twin.push_logged(op.clone()).is_ok());
            match recover(ctx.ic.scopes(), None, &dump) {
                Ok(rec) => {
                    ok &= tally.recover(
                        rec.corruption.is_none() && rec.monitor.schedule().ops() == expected,
                    );
                    ok &= tally.parity(twin_ok && rec.monitor.verdict() == twin.verdict());
                }
                Err(e) => {
                    notes.push(format!("rotate point {pid}: recover failed: {e}"));
                    ok &= tally.recover(false);
                }
            }
            tally.point(ok);
        }
    }
}

/// The OCC tuning the chaos legs share: the deadline and faults the
/// leg supplies.
fn occ_tuning(deadline_us: u64, faults: FaultHandle) -> OccTuning {
    OccTuning {
        txn_deadline_us: deadline_us,
        faults: Some(faults),
    }
}

fn occ_spec(ctx: &Ctx, wal: Option<SharedWal>) -> MonitorSpec {
    MonitorSpec {
        wal,
        ..MonitorSpec::new(ctx.ic.scopes(), AdmissionLevel::Pwsr)
    }
}

/// Legs 4–6 (36 points): executor faults inside the OCC pool over the
/// six-way hot-item workload. A stalled worker must be reaped (or
/// time itself out) without losing an increment; a panicked worker —
/// outside or inside a stripe latch — dies alone while the survivors
/// commit a coherent, replayable schedule.
fn leg_occ_exec(
    ctx: &Ctx,
    ts: u64,
    pid: &mut u64,
    tallies: &mut [Tally; LEGS],
    s: &mut ChaosStats,
    notes: &mut Vec<String>,
) {
    let hot = ctx.hot();
    let a0 = ctx.cat.lookup("a0").expect("a0");
    // Injected panics are the point here, not noise: silence the
    // default hook's per-panic stderr trace for the duration.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (leg, fault_kind) in [(3usize, 0usize), (4, 1), (5, 2)] {
        for _ in 0..12 {
            *pid += 1;
            let r1 = mix(ts, *pid * 2);
            let r2 = mix(ts, *pid * 2 + 1);
            let victim = 1 + (r1 % 6) as u32;
            let (fault, access, deadline_us) = match fault_kind {
                0 => (ExecFault::Stall { ms: 15 }, 1, 1_500),
                1 => (ExecFault::Panic, (r2 % 2) as u32, 0),
                _ => (ExecFault::PanicInStripe, (r2 % 2) as u32, 0),
            };
            let plan = FaultPlan::new().on_access(victim, access, fault).share();
            let res = run_threaded_occ_tuned(
                &hot,
                &ctx.cat,
                &ctx.initial,
                &occ_spec(ctx, None),
                4,
                10_000,
                &occ_tuning(deadline_us, plan.clone()),
            );
            s.fault_points += 1;
            s.exec_fault_points += 1;
            s.injected_faults += plan.injected();
            let tally = &mut tallies[leg];
            let mut ok = fired(&plan);
            match &res {
                Ok(out) => {
                    s.zombie_reaps += out.metrics.zombie_reaps;
                    s.txn_timeouts += out.metrics.txn_timeouts;
                    s.worker_panics += out.metrics.worker_panics;
                    let committed = if fault_kind == 0 { 6 } else { 5 };
                    ok &= out.final_state.get(a0) == Some(&Value::Int(committed));
                    if fault_kind == 0 {
                        // The stalled transaction outlived its deadline
                        // one way or the other.
                        ok &= out.metrics.txn_timeouts >= 1;
                    } else {
                        // Exactly the victim died; its trace is gone.
                        ok &= out.metrics.worker_panics == 1;
                        ok &= !out.schedule.ops().iter().any(|o| o.txn == TxnId(victim));
                    }
                    let dead = (fault_kind != 0).then_some(TxnId(victim));
                    ok &= tally.parity(
                        replays(ctx, &hot, &out.schedule, dead)
                            && out.schedule.check_read_coherence(&ctx.initial).is_ok()
                            && out.final_state == out.schedule.apply(&ctx.initial),
                    );
                }
                Err(e) => {
                    notes.push(format!(
                        "{} point {pid}: executor failed: {e}",
                        LEG_NAMES[leg]
                    ));
                    ok = false;
                }
            }
            if !ok && notes.len() < 8 {
                let detail = match &res {
                    Ok(out) => format!(
                        "fired={} a0={:?} timeouts={} reaps={} panics={}",
                        fired(&plan),
                        out.final_state.get(a0),
                        out.metrics.txn_timeouts,
                        out.metrics.zombie_reaps,
                        out.metrics.worker_panics
                    ),
                    Err(_) => "run failed".into(),
                };
                notes.push(format!(
                    "{} point {pid} (victim {victim}, access {access}): {detail}",
                    LEG_NAMES[leg]
                ));
            }
            tally.point(ok);
        }
    }
    std::panic::set_hook(prev_hook);
}

/// Leg 7 (12 points): torn writes in the OCC journal. The disjoint
/// workload pins the journal to exactly 8 appends, so the seeded index
/// always lands; each policy then answers for it end-to-end through
/// `run_threaded_occ_tuned`.
fn leg_occ_wal(
    ctx: &Ctx,
    ts: u64,
    pid: &mut u64,
    tally: &mut Tally,
    s: &mut ChaosStats,
    notes: &mut Vec<String>,
) {
    let progs = ctx.disjoint();
    for policy in POLICIES {
        for _ in 0..4 {
            *pid += 1;
            let r1 = mix(ts, *pid * 2);
            let r2 = mix(ts, *pid * 2 + 1);
            let point = WalPoint {
                leg: "occ+wal",
                pid: *pid,
                salt: mix(ts, *pid),
                sync: SyncPolicy::Off,
                policy,
                plan: wal_plan(0, r1 % 8, 0, r2).share(),
                twin_records: None,
            };
            let run = |wal| {
                let out = run_threaded_occ_tuned(
                    &progs,
                    &ctx.cat,
                    &ctx.initial,
                    &occ_spec(ctx, Some(wal)),
                    4,
                    10_000,
                    &occ_tuning(0, FaultPlan::new().share()),
                )?;
                let parity = out.final_state == out.schedule.apply(&ctx.initial);
                Ok((out.schedule, parity))
            };
            wal_point(ctx, point, run, tally, s, notes);
        }
    }
}

/// CHA-1: sweep `trials` × 132 seeded fault points through the chaos
/// plane and hold every one to the containment contract. Shape: every
/// point registered, fired and was contained, with the 24 panic points
/// of each trial each killing one worker, and reaps, timeouts and WAL
/// errors all observed.
pub fn cha1(trials: u64, seed: u64) -> (bool, String) {
    let trials = trials.max(1);
    let ctx = Ctx::new();
    let mut s = ChaosStats::default();
    let mut tallies: [Tally; LEGS] = Default::default();
    let mut notes: Vec<String> = Vec::new();
    for t in 0..trials {
        let ts = mix(seed, 0x1000 + t);
        let mut pid = 0u64;
        leg_exec_wal(&ctx, ts, &mut pid, &mut tallies[0], &mut s, &mut notes);
        leg_threaded_wal(&ctx, ts, &mut pid, &mut tallies[1], &mut s, &mut notes);
        leg_rotate(&ctx, ts, &mut pid, &mut tallies[2], &mut s, &mut notes);
        leg_occ_exec(&ctx, ts, &mut pid, &mut tallies, &mut s, &mut notes);
        leg_occ_wal(&ctx, ts, &mut pid, &mut tallies[6], &mut s, &mut notes);
    }
    for t in &tallies {
        s.contained += t.contained;
        s.recover_checks += t.recover_checks;
        s.recover_ok += t.recover_ok;
        s.parity_checks += t.parity_checks;
        s.parity_ok += t.parity_ok;
    }
    debug_assert_eq!(
        s.fault_points,
        tallies.iter().map(|t| t.points).sum::<u64>()
    );

    let mut table = Table::new(
        &format!("CHA-1 chaos plane ({trials} trial(s), seed {seed:#x})"),
        &["leg", "points", "contained", "recover", "parity"],
    );
    for (k, t) in tallies.iter().enumerate() {
        table.row(&[
            LEG_NAMES[k].to_string(),
            t.points.to_string(),
            t.contained.to_string(),
            format!("{}/{}", t.recover_ok, t.recover_checks),
            format!("{}/{}", t.parity_ok, t.parity_checks),
        ]);
    }
    let ok = s.fault_points == 132 * trials
        && s.wal_fault_points > 0
        && s.exec_fault_points > 0
        && s.all_contained()
        && s.zombie_reaps > 0
        && s.worker_panics >= 24 * trials
        && s.txn_timeouts > 0
        && s.wal_io_errors > 0
        && s.injected_faults >= s.fault_points;
    let mut text = table.render();
    text.push_str(&format!(
        "  {} fault points ({} wal, {} exec): {} contained; \
         reaps {}, panics {}, timeouts {}, wal errors {}, injected {}\n",
        s.fault_points,
        s.wal_fault_points,
        s.exec_fault_points,
        s.contained,
        s.zombie_reaps,
        s.worker_panics,
        s.txn_timeouts,
        s.wal_io_errors,
        s.injected_faults,
    ));
    for n in notes.iter().take(8) {
        text.push_str(&format!("  !! {n}\n"));
    }
    text.push_str(&format!(
        "  chaos sweep: {}\n",
        if ok {
            "every fault contained"
        } else {
            "CONTAINMENT FAILURE"
        }
    ));
    (ok, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full sweep (132 points) must contain every fault — this is
    /// the smoke-tier guarantee CI's deeper sweep extends.
    #[test]
    fn cha1_every_fault_contained() {
        let (ok, text) = cha1(1, 0xC4A1);
        assert!(ok, "chaos sweep must contain every fault:\n{text}");
    }
}
