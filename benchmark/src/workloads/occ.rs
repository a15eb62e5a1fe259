//! `occ_hot` and `occ_durable`: a program set executed by
//! `run_threaded_occ_tuned` at the `Pwsr` admission floor.
//!
//! The executor is opaque from here, so its budget is built outside
//! in: the committed schedule of a traced round is replayed through
//! each layer on its own, single-threaded, and what the replays leave
//! of the round's thread time is reported as `scheduler.self_wait_*`.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use pwsr_core::ids::TxnId;
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::{AdmissionLevel, OnlineMonitor};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::solver::Solver;
use pwsr_durability::{recover, scan, SharedWal, SyncPolicy, Wal, WalRecord};
use pwsr_scheduler::concurrent::{
    replay_matches, run_threaded_occ_tuned, OccThreadedOutcome, OccTuning,
};
use pwsr_scheduler::policy::MonitorSpec;
use pwsr_tplang::session::{Pending, ProgramSession};

use crate::gen::{occ_durable_config, occ_hot_config, occ_input, OccInput};
use crate::harness::{Config, Failures, Kind, Layers, Round, Timing, Workload};
use crate::stats::{median, quantile};
use crate::trace::{Budget, Probe, ThreadTrace};

/// The WAL sync policy of `occ_durable`. At `Batched(32)` fsync was
/// more than half of a round and the median moved 79–99 ms from run to
/// run (a disk benchmark); at 256 it is about a fifth and repeats.
pub const DURABLE_SYNC_EVERY: usize = 256;
/// Commits between checkpoint-then-compact sweeps in `occ_durable`.
const DURABLE_COMPACT_EVERY: u64 = 64;
/// Abort budget per transaction; never reached on these inputs.
const MAX_RESTARTS: u32 = 100_000;
/// Suffix length of the retraction probe (as in `mon3`).
const RETRACT_SUFFIX: usize = 16;
const RETRACT_REPS: usize = 20;

/// What a round committed: the full schedule (the executor's own when
/// it did not compact, the WAL's recovery otherwise) and the records
/// it journaled.
struct Committed {
    schedule: Schedule,
    wal_records: Vec<WalRecord>,
}

pub struct Occ {
    input: OccInput,
    durable: bool,
    workers: usize,
    wal_path: PathBuf,
    replay_wal_path: PathBuf,
    epoch: Instant,
}

impl Occ {
    /// Generate and parse the program set and create the scratch
    /// directory — the part of a run that `setup_s` times.
    pub fn build(cfg: &Config, durable: bool, layers: &mut Layers) -> Occ {
        let t0 = Instant::now();
        let wcfg = if durable {
            occ_durable_config(cfg.size)
        } else {
            occ_hot_config(cfg.size)
        };
        let input = occ_input(cfg.seed, &wcfg);
        layers.sample("gen.build_ms", t0.elapsed().as_secs_f64() * 1e3);
        std::fs::create_dir_all(&cfg.out_dir).expect("create the benchmark's scratch directory");
        Occ {
            input,
            durable,
            workers: cfg.workers,
            wal_path: cfg.out_dir.join("occ_durable.wal"),
            replay_wal_path: cfg.out_dir.join("occ_durable.replay.wal"),
            epoch: Instant::now(),
        }
    }

    fn spec(&self, wal: Option<SharedWal>) -> MonitorSpec {
        MonitorSpec {
            scopes: self.input.scopes.clone(),
            level: AdmissionLevel::Pwsr,
            certificate: None,
            wal,
            compact_every: if self.durable {
                DURABLE_COMPACT_EVERY
            } else {
                0
            },
        }
    }

    /// The round oracle. Returns the failed conditions and, when it
    /// could be established, what the round committed.
    fn check(&self, out: &OccThreadedOutcome) -> (Failures, Option<Committed>) {
        let w = &self.input.workload;
        let mut failed = Failures::default();
        failed.fail_if(!out.verdict.pwsr(), "verdict_not_pwsr");
        failed.fail_if(out.verdict.len != out.schedule.len(), "verdict_len");
        let consistent = Solver::new(&w.catalog, &w.ic).is_consistent_total(&out.final_state);
        failed.fail_if(!matches!(consistent, Ok(true)), "final_state_inconsistent");
        let full = if self.durable {
            let bytes = std::fs::read(&self.wal_path).unwrap_or_default();
            let scanned = scan(&bytes);
            failed.fail_if(
                scanned.corruption.is_some()
                    || scanned.records.len() as u64 != out.metrics.wal_appends,
                "wal_scan",
            );
            match recover(self.input.scopes.clone(), None, &bytes) {
                Ok(rec) => {
                    failed.fail_if(rec.monitor.verdict() != out.verdict, "wal_recover_verdict");
                    Some(Committed {
                        schedule: rec.monitor.schedule().clone(),
                        wal_records: scanned.records,
                    })
                }
                Err(_) => {
                    failed.fail_if(true, "wal_recover");
                    None
                }
            }
        } else {
            let mut replay = OnlineMonitor::new(self.input.scopes.clone());
            let ok = out
                .schedule
                .ops()
                .iter()
                .all(|op| replay.push(op.clone()).is_ok());
            failed.fail_if(
                !ok || replay.verdict() != out.verdict,
                "single_writer_replay",
            );
            Some(Committed {
                schedule: out.schedule.clone(),
                wal_records: Vec::new(),
            })
        };
        if let Some(Committed { schedule: s, .. }) = &full {
            failed.fail_if(
                s.check_read_coherence(&w.initial).is_err(),
                "read_coherence",
            );
            failed.fail_if(
                s.apply(&w.initial) != out.final_state,
                "final_state_mismatch",
            );
            let by_txn = ops_by_txn(s, w.programs.len());
            let genuine = w
                .programs
                .iter()
                .zip(&by_txn)
                .enumerate()
                .all(|(k, (p, ops))| replay_matches(p, &w.catalog, TxnId(k as u32 + 1), ops));
            failed.fail_if(!genuine, "txn_replay");
        }
        (failed, full)
    }

    /// Replay one traced round's committed schedule through each layer
    /// and record the round's budget.
    fn replay_layers(
        &self,
        tr: &mut ThreadTrace,
        layers: &mut Layers,
        secs: f64,
        out: &OccThreadedOutcome,
        committed: &Committed,
    ) {
        let w = &self.input.workload;
        let full = &committed.schedule;
        let ops = full.len() as f64;
        let per_op = |ns: u64| ns as f64 / ops;
        layers.sample(
            "scheduler.thread_ns_per_op",
            secs * 1e9 * self.workers as f64 / ops,
        );

        // tplang: every committed transaction re-driven through the
        // session calls the executor makes, fed its committed reads.
        let by_txn = ops_by_txn(full, w.programs.len());
        let t0 = tr.now();
        tr.span(
            "tplang.session_replay",
            |_| full.len() as u32,
            |_| {
                for (k, (program, ops)) in w.programs.iter().zip(&by_txn).enumerate() {
                    let mut session = ProgramSession::new(program, &w.catalog, TxnId(k as u32 + 1));
                    let mut reads = ops.iter().filter(|o| o.is_read());
                    loop {
                        match session.pending().expect("committed transaction replays") {
                            Pending::NeedRead(_) => {
                                let v = reads.next().expect("a committed read").value.clone();
                                black_box(session.feed_read(v).expect("read accepted"));
                            }
                            Pending::Write(_) => session.advance_write().expect("write accepted"),
                            Pending::Done => break,
                        }
                    }
                }
            },
        );
        layers.sample("tplang.step_ns_per_op", per_op(tr.now() - t0));

        // core.monitor: admission of the committed interleaving into a
        // fresh logged monitor — maximal per-transaction runs as
        // batches, singletons as single pushes — with the executor's
        // checkpoint-then-compact cadence when it had one.
        let monitor = ShardedMonitor::new_logged(self.input.scopes.clone());
        let mut live: HashSet<TxnId> = (1..=w.programs.len() as u32).map(TxnId).collect();
        let mut compact_ns = 0u64;
        let mut compact_ms = Vec::new();
        let mut resident_peak = 0usize;
        let mut commits = 0u64;
        let t0 = tr.now();
        tr.span(
            "core.monitor.admit_replay",
            |_| full.len() as u32,
            |tr| {
                let all = full.ops();
                let mut at = 0;
                while at < all.len() {
                    let txn = all[at].txn;
                    let run = all[at..].iter().take_while(|o| o.txn == txn).count();
                    if run == 1 {
                        black_box(monitor.push_outcome(all[at].clone()).expect("valid op"));
                    } else {
                        black_box(monitor.push_batch(&all[at..at + run]).expect("valid run"));
                    }
                    at += run;
                    if self.durable && full.last_op_of(txn).is_some_and(|p| p.0 + 1 == at) {
                        monitor.finish_txn(txn);
                        live.remove(&txn);
                        commits += 1;
                        if commits.is_multiple_of(DURABLE_COMPACT_EVERY) {
                            resident_peak = resident_peak.max(monitor.resident_bytes_estimate());
                            let c0 = tr.now();
                            monitor.checkpoint(live.iter().copied());
                            let reclaimed = monitor.compact().ops_reclaimed;
                            let c1 = tr.now();
                            tr.leaf("core.monitor.compact", c0, c1, reclaimed as u32);
                            compact_ns += c1 - c0;
                            compact_ms.push((c1 - c0) as f64 / 1e6);
                        }
                    }
                }
            },
        );
        let admit = per_op(tr.now() - t0 - compact_ns);
        layers.sample("core.monitor.admit_ns_per_op", admit);
        layers.sample("core.monitor.compact_ns_per_op", per_op(compact_ns));
        layers.sample("core.monitor.compactions", monitor.compactions() as f64);
        layers.sample(
            "core.monitor.ops_reclaimed_share",
            monitor.ops_reclaimed() as f64 / ops,
        );
        let resident_end = monitor.resident_bytes_estimate();
        layers.sample("core.monitor.resident_bytes_end", resident_end as f64);
        layers.sample(
            "core.monitor.resident_bytes_peak",
            resident_peak.max(resident_end) as f64,
        );
        if !compact_ms.is_empty() {
            layers.sample("core.monitor.compact_ms_p50", median(&compact_ms));
            layers.sample("core.monitor.compact_ms_max", quantile(&compact_ms, 1.0));
        }

        // core.monitor: retract and re-push a short suffix on the
        // loaded monitor; the budget charges it per undone operation.
        let n = monitor.len();
        let suffix = RETRACT_SUFFIX.min(n - monitor.log_floor());
        let mut retract = 0.0;
        if suffix > 0 {
            let tail = full.ops()[full.ops().len() - suffix..].to_vec();
            let t0 = tr.now();
            tr.span(
                "core.monitor.retract_replay",
                |_| (RETRACT_REPS * suffix) as u32,
                |_| {
                    for _ in 0..RETRACT_REPS {
                        black_box(monitor.truncate_to(n - suffix));
                        for op in &tail {
                            black_box(monitor.push_outcome(op.clone()).expect("valid tail"));
                        }
                    }
                },
            );
            retract = (tr.now() - t0) as f64 / (RETRACT_REPS * suffix) as f64;
        }
        let m = &out.metrics;
        layers.sample("core.monitor.retract_ns_per_undone_op", retract);
        layers.sample(
            "core.monitor.retract_ns_per_op",
            retract * m.monitor_undone_ops as f64 / ops,
        );
        if m.batch_pushes > 0 {
            layers.sample(
                "core.monitor.batch_mean_ops",
                m.batched_ops as f64 / m.batch_pushes as f64,
            );
        }

        // durability: the round's own record sequence re-appended to a
        // fresh file WAL, once without and once with the fsync cadence.
        let (mut append, mut fsync) = (0.0, 0.0);
        if self.durable {
            let records = &committed.wal_records;
            let mut reappend = |name: &'static str, policy: SyncPolicy| {
                let wal = Wal::create(&self.replay_wal_path, policy);
                let mut wal = wal.expect("create the replay WAL");
                let t0 = tr.now();
                tr.span(
                    name,
                    |_| records.len() as u32,
                    |_| {
                        for rec in records {
                            wal.append(rec);
                        }
                        wal.sync();
                    },
                );
                let ns = tr.now() - t0;
                let stats = wal.stats();
                layers.sample("durability.io_errors", stats.io_errors as f64);
                layers.sample("durability.retries", stats.retries as f64);
                layers.sample("durability.dropped_records", stats.dropped_records as f64);
                ns
            };
            // Both end with one sync, so the difference is the cadence's.
            let plain = reappend("durability.append_replay", SyncPolicy::Off);
            let synced = reappend(
                "durability.fsync_replay",
                SyncPolicy::Batched(DURABLE_SYNC_EVERY),
            );
            append = per_op(plain);
            fsync = per_op(synced) - append;
        }
        layers.sample("durability.append_ns_per_op", append);
        layers.sample("durability.fsync_ns_per_op", fsync);
        layers.sample("durability.fsyncs_per_kop", m.wal_fsyncs as f64 * 1e3 / ops);
        layers.sample(
            "durability.records_per_kop",
            m.wal_appends as f64 * 1e3 / ops,
        );
        layers.sample("durability.bytes_per_op", m.wal_bytes as f64 / ops);
        layers.sample("durability.io_errors", m.wal_io_errors as f64);

        // Executor counters, per thousand committed operations.
        let kop = ops / 1e3;
        let attempts = (w.programs.len() as u64 + m.occ_aborts) as f64;
        layers.sample("scheduler.aborts_per_kop", m.occ_aborts as f64 / kop);
        layers.sample("scheduler.retries_per_kop", m.occ_retries as f64 / kop);
        layers.sample(
            "scheduler.undone_ops_per_kop",
            m.monitor_undone_ops as f64 / kop,
        );
        layers.sample("scheduler.dirty_waits_per_kop", m.waits as f64 / kop);
        layers.sample("scheduler.commit_ratio", w.programs.len() as f64 / attempts);
        layers.sample("scheduler.txn_timeouts", m.txn_timeouts as f64);
        layers.sample("scheduler.zombie_reaps", m.zombie_reaps as f64);
        layers.sample("scheduler.worker_panics", m.worker_panics as f64);
    }
}

/// Thread time per committed operation, split into what the layer
/// replays measured; the remainder is the executor's own work and
/// waiting (latching, store, spawn, backoff, time blocked). Built
/// from medians over the traced rounds, so it adds up as reported.
fn budget(layers: &Layers) -> Budget {
    let part = |label, metric| (label, layers.median(metric));
    Budget {
        total: layers.median("scheduler.thread_ns_per_op"),
        parts: vec![
            part("tplang.step", "tplang.step_ns_per_op"),
            part("core.monitor.admit", "core.monitor.admit_ns_per_op"),
            part("core.monitor.retract", "core.monitor.retract_ns_per_op"),
            part("core.monitor.compact", "core.monitor.compact_ns_per_op"),
            part("durability.append", "durability.append_ns_per_op"),
            part("durability.fsync", "durability.fsync_ns_per_op"),
        ],
    }
}

/// The per-transaction subsequences of `s` (transaction `k+1` at `k`).
fn ops_by_txn(s: &Schedule, programs: usize) -> Vec<Vec<Operation>> {
    let mut by_txn = vec![Vec::new(); programs];
    for op in s.ops() {
        if let Some(slot) = by_txn.get_mut(op.txn.0 as usize - 1) {
            slot.push(op.clone());
        }
    }
    by_txn
}

impl Workload for Occ {
    fn cycle(&self, trace: bool) -> &'static [Kind] {
        if trace {
            &[Kind::Plain, Kind::Traced, Kind::Solo]
        } else {
            &[Kind::Plain]
        }
    }

    fn ops_per_round(&self) -> u64 {
        self.input.ops_per_round
    }

    fn round(&mut self, kind: Kind, index: u32, layers: &mut Layers) -> Round {
        let w = &self.input.workload;
        let wal = self.durable.then(|| {
            let wal = Wal::create(&self.wal_path, SyncPolicy::Batched(DURABLE_SYNC_EVERY));
            SharedWal::new(wal.expect("create the round's WAL file"))
        });
        let spec = self.spec(wal);
        let threads = if kind == Kind::Solo { 1 } else { self.workers };
        let tuning = OccTuning::default();
        let mut tr = ThreadTrace::new(self.epoch, index, 0);
        let t0 = Instant::now();
        let result = tr.span(
            "scheduler.run_threaded_occ_tuned",
            |_| 0,
            |_| {
                run_threaded_occ_tuned(
                    &w.programs,
                    &w.catalog,
                    &w.initial,
                    &spec,
                    threads,
                    MAX_RESTARTS,
                    &tuning,
                )
            },
        );
        let secs = t0.elapsed().as_secs_f64();
        // Dropping the spec drops the last WAL handle, which flushes.
        drop(spec);
        let out = match result {
            Ok(out) => out,
            Err(_) => {
                return Round {
                    failures: vec!["executor_err"],
                    ..Round::default()
                }
            }
        };
        let (failures, committed) = self.check(&out);
        if kind == Kind::Traced && failures.0.is_empty() {
            if let Some(committed) = &committed {
                tr.span(
                    "bench.layer_replays",
                    |_| 0,
                    |tr| self.replay_layers(tr, layers, secs, &out, committed),
                );
                layers.absorb(tr.into_spans());
            }
        }
        Round {
            secs,
            ops: out.schedule.len() as u64,
            failures: failures.0,
        }
    }

    fn finish(&self, timing: &Timing, layers: &mut Layers) {
        if timing.solo_ns_per_op > 0.0 && timing.plain_ns_per_op > 0.0 {
            layers.sample(
                "scheduler.parallel_speedup",
                timing.solo_ns_per_op / timing.plain_ns_per_op,
            );
        }
        layers.sample(
            "scheduler.round_ms_p99",
            quantile(&timing.plain_round_ms, 0.99),
        );
        let budget = budget(layers);
        if budget.total > 0.0 {
            layers.sample("scheduler.self_wait_ns_per_op", budget.remainder());
            layers.sample("scheduler.self_wait_share", budget.remainder_share());
            layers.sample(
                "core.monitor.compact_share",
                layers.median("core.monitor.compact_ns_per_op") / budget.total,
            );
        }
    }

    fn fingerprint(&self) -> u64 {
        crate::gen::occ_fingerprint(&self.input)
    }

    fn budget(&self, layers: &Layers) -> Option<(&'static str, Budget)> {
        Some(("scheduler.self_wait", budget(layers)))
    }
}
