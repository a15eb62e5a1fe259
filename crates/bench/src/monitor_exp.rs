//! MON-1: the online verdict monitor against full batch
//! re-verification — same verdict, certificates intact. MON-2: the
//! sharded concurrent monitor at 1/2/4/8 pushing threads, verdicts
//! pinned to a single-writer replay of the recorded interleaving.
//! MON-3: the OCC-certified threaded executor — commits, aborts and
//! retries at the same thread counts, every committed schedule at or
//! above the admission floor and replay-identical, plus the sharded
//! retraction round-trip (retract + re-push of a 16-op suffix) at both
//! schedule tiers. MON-4: the batched admission path — `push_batch`
//! at batch sizes 8/32 across the same 1/2/4/8 thread sweep, beside a
//! singleton-push run of the identical workload, verdicts pinned to a
//! single-writer replay of the recorded interleaving at every
//! (threads, batch) tier.
//!
//! A scheduler that wants a live verdict after every emitted operation
//! has two options: re-run the batch pipeline on the grown prefix
//! (`Schedule::new` + `ScheduleIndex` + the serializability / PWSR /
//! DR checkers — `O(n)` *per operation*), or maintain the
//! [`OnlineMonitor`] incrementally (`O(words)` amortized per push).
//! MON-1 replays the PR-2 tiers (571 ops / 2 conjuncts and 2488 ops /
//! 4 conjuncts) through both; the shape check asserts the two paths
//! agree — the monitor's final verdict must match the batch checkers,
//! and its incremental Lemma 2/6 certificates must survive the
//! `certify_prefix` audit. What either path costs is `benchmark/`'s
//! question (`stream_*`, `recover_replay`), not this module's.

use crate::report::Table;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::{OnlineMonitor, Verdict};
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::{is_conflict_serializable, is_conflict_serializable_proj};
use pwsr_core::state::ItemSet;
use pwsr_gen::chaos::random_execution;
use pwsr_gen::workloads::{random_workload, Workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A workload sized to produce a schedule of roughly `target_ops`
/// operations.
pub fn sized_workload(rng: &mut StdRng, target_ops: usize, conjuncts: usize) -> Workload {
    // Each background template contributes ~2–6 ops.
    let n_background = (target_ops / 4).max(2);
    random_workload(
        rng,
        &WorkloadConfig {
            conjuncts,
            items_per_conjunct: 3,
            n_background,
            cross_read_prob: 0.5,
            fixed_only: true,
            gadgets: 0,
            domain_width: 50,
        },
    )
}

/// The schedule tiers every MON experiment runs on:
/// `(sized_workload target, conjuncts, seed base)` — (800, 2, 0xAB)
/// yields a 571-op schedule, (3200, 4, 0xC0DE) a 2488-op one.
pub const TIERS: [(usize, usize, u64); 2] = [(800, 2, 0xAB), (3200, 4, 0xC0DE)];

/// Build one tier's schedule and conjunct scopes. `None` — which
/// fails the calling experiment's shape check — if the random workload
/// fails to execute or executes to nothing (neither happens for the
/// fixed seeds): parity over an empty schedule would certify nothing.
pub fn tier_workload(
    target: usize,
    conjuncts: usize,
    seed_base: u64,
) -> Option<(Schedule, Vec<ItemSet>)> {
    let mut rng = StdRng::seed_from_u64(seed_base + target as u64);
    let w = sized_workload(&mut rng, target, conjuncts);
    let s = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng).ok()?;
    (!s.is_empty()).then_some((s, w.ic.scopes()))
}

/// One full batch verification of the grown prefix — what each
/// arriving operation costs without the monitor. Returns
/// `(serializable, pwsr, dr)`.
pub fn batch_verdict(ops: &[pwsr_core::op::Operation], scopes: &[ItemSet]) -> (bool, bool, bool) {
    let prefix = Schedule::new(ops.to_vec()).expect("valid schedule");
    let csr = is_conflict_serializable(&prefix);
    let pwsr = scopes
        .iter()
        .all(|d| is_conflict_serializable_proj(&prefix, d));
    let dr = is_delayed_read(&prefix);
    (csr, pwsr, dr)
}

/// Replay both tiers through the monitor and through one batch
/// re-verification, and compare. Both paths are deterministic, so one
/// pass is the whole shape.
pub fn mon1() -> (bool, String) {
    let mut ok = true;
    let mut t = Table::new(
        "MON-1  Online monitor vs batch re-verification",
        &["ops", "conjuncts", "verdict parity"],
    );
    for (target, conjuncts, seed_base) in TIERS {
        let Some((s, scopes)) = tier_workload(target, conjuncts, seed_base) else {
            ok = false;
            continue;
        };
        // Online path: replay the whole schedule through the monitor.
        let mut monitor = OnlineMonitor::new(scopes.clone());
        for op in s.ops() {
            monitor.push(op.clone()).expect("valid schedule");
        }
        // Batch path: ONE full re-verification of the grown prefix —
        // what each arriving operation costs without the monitor.
        let batch = batch_verdict(s.ops(), &scopes);

        // Parity: the incremental verdict equals the batch verdict, and
        // the Lemma 2/6 certificates survive the audit.
        let v = monitor.verdict();
        let parity = (v.serializable, v.pwsr(), v.dr) == batch && monitor.certify_prefix();
        ok &= parity;
        t.row(&[
            s.len().to_string(),
            conjuncts.to_string(),
            parity.to_string(),
        ]);
    }
    ok &= t.len() == TIERS.len();
    (ok, t.render())
}

/// Thread counts the MT sweeps run at.
pub const MT_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Partition a schedule's transactions round-robin over `n` threads;
/// each thread's stream is the schedule subsequence of its own
/// transactions — program order per transaction is preserved, which
/// is all [`ShardedMonitor`] requires.
pub fn partition_by_txn(s: &Schedule, n: usize) -> Vec<Vec<pwsr_core::op::Operation>> {
    let mut streams: Vec<Vec<pwsr_core::op::Operation>> = vec![Vec::new(); n];
    for (p, op) in s.ops().iter().enumerate() {
        let slot = s.slot_of_op(pwsr_core::ids::OpIndex(p));
        streams[slot % n].push(op.clone());
    }
    streams
}

/// The host's `available_parallelism`, printed in every threaded
/// table's title: what interleavings a run can reach (and so what its
/// parity columns have been tested against) depends on it.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Replay a recorded interleaving through a single-writer
/// [`OnlineMonitor`]: its final verdict, and whether the Lemma 2/6
/// certificates survive the audit.
fn single_writer_replay(scopes: &[ItemSet], recorded: &Schedule) -> (Verdict, bool) {
    let mut replay = OnlineMonitor::new(scopes.to_vec());
    let mut last = replay.verdict();
    for op in recorded.ops() {
        last = replay.push(op.clone()).expect("recorded schedule is valid");
    }
    (last, replay.certify_prefix())
}

/// One threaded run: `streams[w]` pushed by thread `w`. Returns the
/// recorded schedule and the monitor's verdict over it.
fn mt_run(scopes: &[ItemSet], streams: &[Vec<pwsr_core::op::Operation>]) -> (Schedule, Verdict) {
    let monitor = ShardedMonitor::new(scopes.to_vec());
    std::thread::scope(|scope| {
        for stream in streams.iter().filter(|s| !s.is_empty()) {
            let monitor = &monitor;
            scope.spawn(move || {
                for op in stream {
                    monitor.push(op.clone()).expect("valid partitioned stream");
                }
            });
        }
    });
    monitor.into_parts()
}

/// MON-2: the sharded monitor at 1/2/4/8 pushing threads, on the
/// multi-conjunct (2488-op / 4-conjunct) tier. Shape check: on every
/// one of `trials` repetitions (0 = 5) at every thread count, the
/// verdict must be byte-identical to a single-writer [`OnlineMonitor`]
/// replay of the exact interleaving the threads produced.
pub fn mon2(trials: u64) -> (bool, String) {
    let reps = if trials == 0 { 5 } else { trials };
    let mut ok = true;
    let mut t = Table::new(
        &format!(
            "MON-2  Sharded monitor under pushing threads ({} host cores)",
            host_cores()
        ),
        &["threads", "ops", "runs", "verdict parity"],
    );
    let (target, conjuncts, seed_base) = TIERS[1];
    let Some((s, scopes)) = tier_workload(target, conjuncts, seed_base) else {
        return (false, t.render());
    };
    for threads in MT_THREADS {
        let streams = partition_by_txn(&s, threads);
        let mut parity = true;
        for _ in 0..reps {
            let (recorded, verdict) = mt_run(&scopes, &streams);
            // Pin the verdict to the single-writer monitor on the SAME
            // interleaving the threads produced.
            let (last, certified) = single_writer_replay(&scopes, &recorded);
            parity &= last == verdict && recorded.len() == s.len() && certified;
        }
        ok &= parity;
        t.row(&[
            threads.to_string(),
            s.len().to_string(),
            reps.to_string(),
            parity.to_string(),
        ]);
    }
    (ok, t.render())
}

/// Suffix length per retraction round-trip.
pub const RETRACT_SUFFIX: usize = 16;

/// Retraction round-trips per tier: enough that state an undo failed
/// to restore would compound into the final verdict.
const RETRACT_ROUNDS: usize = 20;

/// MON-3: the OCC-certified threaded executor
/// ([`run_threaded_occ_tuned`]) at 1/2/4/8 worker threads over the
/// 2-conjunct tier workload, plus the sharded-retraction round-trip at
/// both schedule tiers. Shape checks, on every one of `trials`
/// repetitions (0 = 5): the committed schedule is read-coherent, lands
/// at or above the `Pwsr` admission floor, and its verdict is
/// byte-identical to a single-writer replay — the `floor+parity`
/// column names the first of these a thread count failed (`run_error`,
/// `read_coherence`, `verdict_not_pwsr`, `verdict_len`,
/// `replay_parity`); the retraction round-trips restore verdict
/// parity. Abort and retry counts (summed over the repetitions) are
/// recorded, not asserted — they are a property of the host's
/// interleavings.
///
/// [`run_threaded_occ_tuned`]: pwsr_scheduler::concurrent::run_threaded_occ_tuned
pub fn mon3(trials: u64, seed: u64) -> (bool, String) {
    use pwsr_core::monitor::AdmissionLevel;
    use pwsr_scheduler::concurrent::{run_threaded_occ_tuned, OccTuning};
    use pwsr_scheduler::error::SchedError;
    use pwsr_scheduler::policy::MonitorSpec;

    let reps = if trials == 0 { 5 } else { trials };
    let mut ok = true;
    let mut t = Table::new(
        &format!(
            "MON-3  OCC-certified threaded executor ({} host cores, {reps} runs per row)",
            host_cores()
        ),
        &["threads", "commits", "aborts", "retries", "floor+parity"],
    );
    let (target, conjuncts, _) = TIERS[0];
    let mut rng = StdRng::seed_from_u64(seed);
    let w = sized_workload(&mut rng, target, conjuncts);
    let spec = MonitorSpec::new(w.ic.scopes(), AdmissionLevel::Pwsr);
    // What went wrong, beyond the table cell: the committed schedule
    // of a run that landed below the admission floor.
    let mut witnesses = String::new();
    for threads in MT_THREADS {
        let (mut commits, mut aborts, mut retries) = (0u64, 0u64, 0u64);
        // The first check any repetition failed, under the name
        // `benchmark/`'s oracle gives the same condition.
        let mut failure: Option<&'static str> = None;
        for _ in 0..reps {
            let out = match run_threaded_occ_tuned(
                &w.programs,
                &w.catalog,
                &w.initial,
                &spec,
                threads,
                100_000,
                &OccTuning::default(),
            ) {
                Ok(out) => out,
                // The executor committed below its floor and said so
                // (a replay that disagreed would say `replay_parity`:
                // the monitor). The schedule is the bug report.
                Err(SchedError::FloorBreached { schedule, .. }) => {
                    witnesses.push_str(&format!(
                        "\nverdict_not_pwsr at {threads} threads; committed schedule:\n{schedule}"
                    ));
                    failure = failure.or(Some("verdict_not_pwsr"));
                    continue;
                }
                Err(_) => {
                    failure = failure.or(Some("run_error"));
                    break;
                }
            };
            let (last, _) = single_writer_replay(&spec.scopes, &out.schedule);
            let failed = if out.schedule.check_read_coherence(&w.initial).is_err() {
                Some("read_coherence")
            } else if out.verdict.len != out.schedule.len() {
                Some("verdict_len")
            } else if last != out.verdict {
                Some("replay_parity")
            } else {
                None
            };
            failure = failure.or(failed);
            commits += w.programs.len() as u64;
            aborts += out.metrics.occ_aborts;
            retries += out.metrics.occ_retries;
        }
        ok &= failure.is_none() && commits > 0;
        t.row(&[
            threads.to_string(),
            commits.to_string(),
            aborts.to_string(),
            retries.to_string(),
            failure.unwrap_or("true").to_string(),
        ]);
    }

    // Sharded retraction: retract + re-push a fixed suffix on a fully
    // loaded logged monitor, both tiers; after the round-trips the
    // verdict must equal the single-writer replay of the full
    // schedule.
    let mut rt = Table::new(
        "MON-3b Sharded retraction round-trip (retract + re-push)",
        &["ops", "suffix", "round-trips", "parity"],
    );
    for (target, conjuncts, seed_base) in TIERS {
        let Some((s, scopes)) = tier_workload(target, conjuncts, seed_base) else {
            ok = false;
            continue;
        };
        let n = s.len();
        let m = ShardedMonitor::new_logged(scopes.clone());
        for op in s.ops() {
            m.push(op.clone()).expect("valid schedule");
        }
        let tail = &s.ops()[n - RETRACT_SUFFIX..];
        for _ in 0..RETRACT_ROUNDS {
            m.truncate_to(n - RETRACT_SUFFIX);
            for op in tail {
                m.push(op.clone()).expect("valid tail");
            }
        }
        let parity = m.verdict() == single_writer_replay(&scopes, &s).0;
        ok &= parity;
        rt.row(&[
            n.to_string(),
            RETRACT_SUFFIX.to_string(),
            RETRACT_ROUNDS.to_string(),
            parity.to_string(),
        ]);
    }
    ok &= rt.len() == TIERS.len();
    let text = format!("{}\n{}{witnesses}", t.render(), rt.render());
    (ok, text)
}

/// Batch sizes the MON-4 sweep runs.
pub const BATCH_SIZES: [usize; 2] = [8, 32];

/// MON-4 workload shape: transactions long enough that a batch of
/// [`BATCH_SIZES`] operations is a *fraction* of a transaction, not a
/// rounding artifact.
pub const BATCH_TXNS: usize = 256;
/// Operations per MON-4 transaction (read-then-write pairs).
pub const BATCH_OPS_PER_TXN: usize = 32;

/// Synthetic long-transaction workload for the batch sweep: each of
/// `n_txns` transactions reads then writes `ops_per_txn / 2` distinct
/// items of a 64-item universe (stride-5 walk from a per-transaction
/// offset, so neighbouring transactions overlap and every conjunct
/// shard stays busy), with four conjunct scopes partitioning the
/// universe. The generated schedules replay `Serializable` — MON-4
/// exercises the pipeline, not verdict churn, and the single-writer
/// replay still pins every flag.
pub fn batch_workload(
    n_txns: usize,
    ops_per_txn: usize,
) -> (Vec<Vec<pwsr_core::op::Operation>>, Vec<ItemSet>) {
    use pwsr_core::ids::{ItemId, TxnId};
    use pwsr_core::op::Operation;
    use pwsr_core::value::Value;
    const UNIVERSE: u32 = 64;
    let items_per = (ops_per_txn / 2).min(UNIVERSE as usize);
    let programs = (0..n_txns)
        .map(|t| {
            let txn = TxnId(t as u32 + 1);
            (0..items_per)
                .flat_map(|j| {
                    let item = ItemId(((t * 17 + j * 5) % UNIVERSE as usize) as u32);
                    [
                        Operation::read(txn, item, Value::Int(t as i64)),
                        Operation::write(txn, item, Value::Int(t as i64 + 1)),
                    ]
                })
                .collect()
        })
        .collect();
    let scopes = (0..4)
        .map(|k| (k * 16..(k + 1) * 16).map(ItemId).collect())
        .collect();
    (programs, scopes)
}

/// One batched run: transactions dealt round-robin over `threads`
/// workers, each worker admitting its transactions in program-ordered
/// `push_batch` chunks of `batch` operations. A `batch` of 0 means
/// singleton `push`.
fn batch_mt_run(
    scopes: &[ItemSet],
    programs: &[Vec<pwsr_core::op::Operation>],
    threads: usize,
    batch: usize,
) -> ShardedMonitor {
    let monitor = ShardedMonitor::new(scopes.to_vec());
    std::thread::scope(|scope| {
        for w in 0..threads {
            let monitor = &monitor;
            scope.spawn(move || {
                for txn_ops in programs.iter().skip(w).step_by(threads) {
                    if batch == 0 {
                        for op in txn_ops {
                            monitor.push(op.clone()).expect("valid run");
                        }
                    } else {
                        for chunk in txn_ops.chunks(batch) {
                            monitor.push_batch(chunk).expect("valid run");
                        }
                    }
                }
            });
        }
    });
    monitor
}

/// MON-4: batched admission. A singleton run (1 thread, per-op
/// `push`) and `push_batch` at every ([`BATCH_SIZES`], [`MT_THREADS`])
/// pair, on the [`batch_workload`]. Shape check: on every one of
/// `trials` repetitions (0 = 5) at every tier the recorded
/// interleaving replays to a byte-identical verdict on a
/// single-writer [`OnlineMonitor`] and the Lemma 2/6 certificates
/// survive the audit.
pub fn mon4(trials: u64) -> (bool, String) {
    let reps = if trials == 0 { 5 } else { trials };
    let mut ok = true;
    let mut t = Table::new(
        &format!("MON-4  Batched admission ({} host cores)", host_cores()),
        &["batch", "threads", "ops", "runs", "verdict parity"],
    );
    let (programs, scopes) = batch_workload(BATCH_TXNS, BATCH_OPS_PER_TXN);
    let n: usize = programs.iter().map(Vec::len).sum();

    // Verdict parity of one run against the single-writer monitor on
    // the SAME interleaving the threads produced.
    let replay_parity = |monitor: ShardedMonitor| -> bool {
        let (recorded, verdict) = monitor.into_parts();
        let (last, certified) = single_writer_replay(&scopes, &recorded);
        last == verdict && recorded.len() == n && certified
    };

    // Singleton path: 1 thread, per-op push — one interleaving, so one
    // run.
    let parity = replay_parity(batch_mt_run(&scopes, &programs, 1, 0));
    ok &= parity;
    t.row(&[
        "1 (push)".to_owned(),
        "1".to_owned(),
        n.to_string(),
        "1".to_owned(),
        parity.to_string(),
    ]);

    for batch in BATCH_SIZES {
        for threads in MT_THREADS {
            let mut parity = true;
            for _ in 0..reps {
                parity &= replay_parity(batch_mt_run(&scopes, &programs, threads, batch));
            }
            ok &= parity;
            t.row(&[
                batch.to_string(),
                threads.to_string(),
                n.to_string(),
                reps.to_string(),
                parity.to_string(),
            ]);
        }
    }
    (ok, t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_workload_scales() {
        let mut rng = StdRng::seed_from_u64(502);
        let small = sized_workload(&mut rng, 40, 2);
        let large = sized_workload(&mut rng, 400, 2);
        assert!(large.programs.len() > small.programs.len());
    }

    #[test]
    fn mon1_verdicts_agree_across_paths() {
        let (ok, text) = mon1();
        assert!(ok, "{text}");
        assert!(text.contains("MON-1"));
    }

    /// Parity at every thread count.
    #[test]
    fn mon2_threaded_verdicts_pin_to_single_writer() {
        let (ok, text) = mon2(1);
        assert!(ok, "{text}");
        assert!(text.contains("MON-2"));
    }

    /// MON-3 shape: floor compliance, replay parity and retraction
    /// parity at every thread count.
    #[test]
    fn mon3_occ_certified_runs_pin_to_single_writer() {
        let (ok, text) = mon3(1, 902);
        assert!(ok, "{text}");
        assert!(text.contains("MON-3") && text.contains("MON-3b"));
    }

    /// MON-4 shape: single-writer replay parity at every (batch,
    /// threads) tier.
    #[test]
    fn mon4_batched_verdicts_pin_to_single_writer() {
        let (ok, text) = mon4(1);
        assert!(ok, "{text}");
        assert!(text.contains("MON-4"));
    }

    /// The MON-4 workload is what the batch contract requires:
    /// program-ordered single-transaction runs, §2.2-valid.
    #[test]
    fn batch_workload_is_well_formed() {
        let (programs, scopes) = batch_workload(BATCH_TXNS, BATCH_OPS_PER_TXN);
        assert_eq!(programs.len(), BATCH_TXNS);
        assert_eq!(scopes.len(), 4);
        let mut m = OnlineMonitor::new(scopes);
        for ops in &programs {
            assert_eq!(ops.len(), BATCH_OPS_PER_TXN);
            assert!(ops.iter().all(|o| o.txn == ops[0].txn));
            let verdicts = m.push_batch(ops).expect("valid §2.2 transaction runs");
            assert_eq!(verdicts.len(), ops.len());
        }
        assert_eq!(m.len(), BATCH_TXNS * BATCH_OPS_PER_TXN);
    }

    #[test]
    fn partition_preserves_program_order() {
        let (s, _) = tier_workload(TIERS[0].0, TIERS[0].1, TIERS[0].2).unwrap();
        for n in [1, 3, 8] {
            let streams = partition_by_txn(&s, n);
            assert_eq!(streams.iter().map(Vec::len).sum::<usize>(), s.len());
            for stream in streams {
                // Within a stream, each transaction's ops appear in
                // schedule (= program) order.
                let mut seen: std::collections::HashMap<u32, usize> = Default::default();
                for op in &stream {
                    let pos = s
                        .ops()
                        .iter()
                        .enumerate()
                        .position(|(p, o)| {
                            o == op && p >= seen.get(&op.txn.0).copied().unwrap_or(0)
                        })
                        .unwrap();
                    let last = seen.entry(op.txn.0).or_insert(0);
                    assert!(pos >= *last);
                    *last = pos + 1;
                }
            }
        }
    }
}
