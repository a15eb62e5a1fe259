//! MON-1: per-operation cost of the online verdict monitor vs full
//! batch re-verification. MON-2: certified throughput of the sharded
//! concurrent monitor at 1/2/4/8 pushing threads, verdicts pinned to
//! a single-writer replay of the recorded interleaving (plus the
//! measured serial-stage ns — the order-claiming mutex residence
//! time). MON-3: the OCC-certified threaded executor — commits,
//! aborts, retries and ns per committed operation at the same thread
//! counts, plus the sharded-retraction cost (retract + re-push of a
//! 16-op suffix) at both schedule tiers. MON-4: the batched admission
//! path — `push_batch` throughput at batch sizes 8/32 across the same
//! 1/2/4/8 thread sweep, against a singleton-push baseline on the
//! identical workload, verdicts pinned to a single-writer replay of
//! the recorded interleaving at every (threads, batch) tier.
//!
//! A scheduler that wants a live verdict after every emitted operation
//! has two options: re-run the batch pipeline on the grown prefix
//! (`Schedule::new` + `ScheduleIndex` + the serializability / PWSR /
//! DR checkers — `O(n)` *per operation*), or maintain the
//! [`OnlineMonitor`] incrementally (`O(words)` amortized per push).
//! This experiment replays the PR-2 bench tiers (571 ops / 2 conjuncts
//! and 2488 ops / 4 conjuncts) through both and reports ns/op; the
//! shape check asserts the two paths agree — the monitor's final
//! verdict must match the batch checkers, and its incremental Lemma
//! 2/6 certificates must survive the `certify_prefix` audit.

use crate::report::Table;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::OnlineMonitor;
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::{is_conflict_serializable, is_conflict_serializable_proj};
use pwsr_core::state::ItemSet;
use pwsr_gen::chaos::random_execution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One tier's measurements.
#[derive(Clone, Copy, Debug)]
pub struct TierStats {
    /// Schedule length.
    pub ops: u64,
    /// Conjunct count.
    pub conjuncts: u64,
    /// Amortized monitor cost per pushed operation.
    pub monitor_ns_per_op: f64,
    /// One full batch re-verification of the grown prefix — the cost a
    /// naive online checker pays per arriving operation.
    pub batch_ns_per_op: f64,
}

impl TierStats {
    /// Batch-per-op over monitor-per-op.
    pub fn speedup(&self) -> f64 {
        if self.monitor_ns_per_op > 0.0 {
            self.batch_ns_per_op / self.monitor_ns_per_op
        } else {
            f64::INFINITY
        }
    }
}

/// The machine-readable record the experiments binary embeds in the
/// `pwsr-experiments-v2` JSON.
#[derive(Clone, Debug, Default)]
pub struct MonitorStats {
    /// Per-tier measurements, ascending op count.
    pub tiers: Vec<TierStats>,
}

impl MonitorStats {
    /// Total operations pushed across tiers.
    pub fn total_ops(&self) -> u64 {
        self.tiers.iter().map(|t| t.ops).sum()
    }

    /// The slowest tier's monitor per-op cost (what the CI ceiling
    /// gates on).
    pub fn worst_monitor_ns_per_op(&self) -> f64 {
        self.tiers
            .iter()
            .map(|t| t.monitor_ns_per_op)
            .fold(0.0, f64::max)
    }
}

/// The measured tiers, shared with `benches/monitor.rs` so the
/// experiment and the criterion numbers line up: the PR-2 bench tiers
/// `(sized_workload target, conjuncts, seed base)` — (800, 2, 0xAB)
/// yields the 571-op schedule of the `viewsets` bench, (3200, 4,
/// 0xC0DE) the 2488-op schedule of the `theorems` bench.
pub const TIERS: [(usize, usize, u64); 2] = [(800, 2, 0xAB), (3200, 4, 0xC0DE)];

/// Build one tier's schedule and conjunct scopes (same construction
/// and seeds as the criterion benches). `None` if the random workload
/// fails to execute (it does not, for the fixed seeds).
pub fn tier_workload(
    target: usize,
    conjuncts: usize,
    seed_base: u64,
) -> Option<(Schedule, Vec<ItemSet>)> {
    let mut rng = StdRng::seed_from_u64(seed_base + target as u64);
    let w = crate::scale_exp::sized_workload(&mut rng, target, conjuncts);
    let s = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng).ok()?;
    let scopes = w.ic.conjuncts().iter().map(|c| c.items().clone()).collect();
    Some((s, scopes))
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

/// Run the comparison. `trials` controls timing repetitions (0 = 5).
pub fn mon1(trials: u64, _seed: u64) -> (bool, String, MonitorStats) {
    let reps = if trials == 0 { 5 } else { trials };
    let mut ok = true;
    let mut stats = MonitorStats::default();
    let mut t = Table::new(
        "MON-1  Online monitor per-op cost vs batch re-verification",
        &[
            "ops",
            "conjuncts",
            "monitor ns/op",
            "batch ns/op",
            "speedup",
            "verdict parity",
        ],
    );
    for (target, conjuncts, seed_base) in TIERS {
        let Some((s, scopes)) = tier_workload(target, conjuncts, seed_base) else {
            ok = false;
            continue;
        };
        let n = s.len();

        // Online path: replay the whole schedule through the monitor.
        let start = Instant::now();
        let mut final_monitor = None;
        for _ in 0..reps {
            let mut m = OnlineMonitor::new(scopes.clone());
            for op in s.ops() {
                black_box(m.push(op.clone()).expect("valid schedule"));
            }
            final_monitor = Some(m);
        }
        let monitor_ns_per_op = start.elapsed().as_nanos() as f64 / (reps as usize * n) as f64;
        let monitor = final_monitor.expect("reps >= 1");

        // Batch path: ONE full re-verification of the grown prefix —
        // what each arriving operation costs without the monitor.
        let start = Instant::now();
        let mut batch = (false, false, false);
        for _ in 0..reps {
            batch = black_box(batch_verdict(s.ops(), &scopes));
        }
        let batch_ns_per_op = start.elapsed().as_nanos() as f64 / reps as f64;

        // Parity: the incremental verdict equals the batch verdict, and
        // the Lemma 2/6 certificates survive the audit.
        let v = monitor.verdict();
        let parity = (v.serializable, v.pwsr(), v.dr) == batch && monitor.certify_prefix();
        ok &= parity;

        let tier = TierStats {
            ops: n as u64,
            conjuncts: conjuncts as u64,
            monitor_ns_per_op,
            batch_ns_per_op,
        };
        t.row(&[
            n.to_string(),
            conjuncts.to_string(),
            format!("{monitor_ns_per_op:.0}"),
            format!("{batch_ns_per_op:.0}"),
            format!("{:.1}x", tier.speedup()),
            parity.to_string(),
        ]);
        stats.tiers.push(tier);
    }
    ok &= !stats.tiers.is_empty();
    (ok, t.render(), stats)
}

/// One thread-count measurement of the sharded monitor.
#[derive(Clone, Copy, Debug)]
pub struct MtTier {
    /// Pushing threads.
    pub threads: u64,
    /// Operations certified per run.
    pub ops: u64,
    /// Certified throughput (best of the timed repetitions).
    pub ops_per_s: f64,
    /// Throughput relative to the 1-thread run of the same sweep.
    pub speedup: f64,
    /// Mean ns each push spent inside the order-claiming mutex
    /// (measured on a separate instrumented run, so the throughput
    /// numbers stay clock-read-free). The serial ceiling: by Amdahl,
    /// `1e9 / serial_ns_per_op` bounds certified throughput at any
    /// thread count.
    pub serial_ns_per_op: f64,
}

impl MtTier {
    /// Amortized cost per certified operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops_per_s > 0.0 {
            1e9 / self.ops_per_s
        } else {
            f64::INFINITY
        }
    }
}

/// The `monitor_mt` record the experiments binary embeds in the
/// `pwsr-experiments-v3` JSON.
#[derive(Clone, Debug, Default)]
pub struct MonitorMtStats {
    /// `std::thread::available_parallelism()` on the measuring host —
    /// scaling numbers are only meaningful relative to this (a 1-core
    /// host cannot exhibit parallel speedup, only overhead).
    pub parallelism: u64,
    /// Per-thread-count measurements.
    pub tiers: Vec<MtTier>,
}

impl MonitorMtStats {
    /// The worst per-op cost across tiers (what the CI ceiling gates).
    pub fn worst_ns_per_op(&self) -> f64 {
        self.tiers.iter().map(|t| t.ns_per_op()).fold(0.0, f64::max)
    }

    /// Speedup of the `threads == n` tier, if measured.
    pub fn speedup_at(&self, n: u64) -> Option<f64> {
        self.tiers
            .iter()
            .find(|t| t.threads == n)
            .map(|t| t.speedup)
    }
}

/// Thread counts the MT sweep measures.
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

/// One timed threaded run: `streams[w]` pushed by thread `w`. Returns
/// (elapsed, recorded schedule, verdict).
fn mt_run(
    scopes: &[ItemSet],
    streams: &[Vec<pwsr_core::op::Operation>],
) -> (std::time::Duration, Schedule, pwsr_core::monitor::Verdict) {
    let monitor = ShardedMonitor::new(scopes.to_vec());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for stream in streams.iter().filter(|s| !s.is_empty()) {
            let monitor = &monitor;
            scope.spawn(move || {
                for op in stream {
                    black_box(monitor.push(op.clone()).expect("valid partitioned stream"));
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let (schedule, verdict) = monitor.into_parts();
    (elapsed, schedule, verdict)
}

/// One *instrumented* threaded run: same streams, but the monitor
/// times its order-claiming mutex residence. Returns the mean serial
/// ns per push (kept out of [`mt_run`] so the throughput measurements
/// pay no clock reads).
fn mt_serial_ns(scopes: &[ItemSet], streams: &[Vec<pwsr_core::op::Operation>]) -> f64 {
    let monitor = ShardedMonitor::new(scopes.to_vec()).with_serial_timing();
    std::thread::scope(|scope| {
        for stream in streams.iter().filter(|s| !s.is_empty()) {
            let monitor = &monitor;
            scope.spawn(move || {
                for op in stream {
                    black_box(monitor.push(op.clone()).expect("valid partitioned stream"));
                }
            });
        }
    });
    monitor.serial_ns_per_op()
}

/// MON-2: certified throughput of the sharded monitor at 1/2/4/8
/// pushing threads, on the multi-conjunct (2488-op / 4-conjunct)
/// tier. Shape check: at every thread count the verdict must be
/// byte-identical to a single-writer [`OnlineMonitor`] replay of the
/// exact interleaving the threads produced (the scaling numbers are
/// reported, and asserted nowhere — they are a property of the host's
/// parallelism, which the record carries).
pub fn mon2(trials: u64, _seed: u64) -> (bool, String, MonitorMtStats) {
    let reps = if trials == 0 { 5 } else { trials };
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let mut ok = true;
    let mut stats = MonitorMtStats {
        parallelism,
        ..MonitorMtStats::default()
    };
    let mut t = Table::new(
        &format!(
            "MON-2  Sharded monitor certified throughput ({} host cores)",
            parallelism
        ),
        &[
            "threads",
            "ops",
            "Mops/s",
            "ns/op",
            "serial ns/op",
            "speedup vs 1T",
            "verdict parity",
        ],
    );
    let (target, conjuncts, seed_base) = TIERS[1];
    let Some((s, scopes)) = tier_workload(target, conjuncts, seed_base) else {
        return (false, t.render(), stats);
    };
    let n = s.len() as u64;
    let mut base_ops_per_s = 0.0f64;
    for threads in MT_THREADS {
        let streams = partition_by_txn(&s, threads);
        let mut best = std::time::Duration::MAX;
        let mut parity = true;
        for _ in 0..reps {
            let (elapsed, recorded, verdict) = mt_run(&scopes, &streams);
            best = best.min(elapsed);
            // Pin the verdict to the single-writer monitor on the SAME
            // interleaving the threads produced.
            let mut replay = OnlineMonitor::new(scopes.clone());
            let mut last = replay.verdict();
            for op in recorded.ops() {
                last = replay.push(op.clone()).expect("recorded schedule is valid");
            }
            parity &= last == verdict && recorded.len() == s.len() && replay.certify_prefix();
        }
        ok &= parity;
        let ops_per_s = n as f64 / best.as_secs_f64();
        if threads == 1 {
            base_ops_per_s = ops_per_s;
        }
        // One extra instrumented run measures the serial-stage
        // residence (the ROADMAP's open item: how much of the op now
        // sits under the order-claiming mutex).
        let serial_ns_per_op = mt_serial_ns(&scopes, &streams);
        let tier = MtTier {
            threads: threads as u64,
            ops: n,
            ops_per_s,
            speedup: if base_ops_per_s > 0.0 {
                ops_per_s / base_ops_per_s
            } else {
                0.0
            },
            serial_ns_per_op,
        };
        t.row(&[
            threads.to_string(),
            n.to_string(),
            format!("{:.2}", ops_per_s / 1e6),
            format!("{:.0}", tier.ns_per_op()),
            format!("{serial_ns_per_op:.0}"),
            format!("{:.2}x", tier.speedup),
            parity.to_string(),
        ]);
        stats.tiers.push(tier);
    }
    ok &= stats.tiers.len() == MT_THREADS.len();
    (ok, t.render(), stats)
}

/// One thread-count measurement of the OCC-certified threaded
/// executor.
#[derive(Clone, Copy, Debug)]
pub struct OccMtTier {
    /// Worker threads.
    pub threads: u64,
    /// Transactions committed (always the full program set — aborted
    /// attempts retry until they commit).
    pub commits: u64,
    /// OCC aborts across the run (certification breaches + expired
    /// dirty waits), best-timed repetition.
    pub aborts: u64,
    /// Retries scheduled after those aborts.
    pub retries: u64,
    /// Wall time per committed operation.
    pub ns_per_committed_op: f64,
}

/// One sharded-retraction cost measurement: retract + re-push of a
/// fixed-size suffix on a full schedule tier.
#[derive(Clone, Copy, Debug)]
pub struct RetractionTier {
    /// Schedule length the suffix is retracted from.
    pub ops: u64,
    /// Suffix length per retraction round-trip.
    pub suffix_ops: u64,
    /// Cost per undone operation (retract + re-push, divided by the
    /// suffix length). The acceptance shape: flat across `ops` —
    /// suffix-length-proportional, not schedule-length-proportional.
    pub ns_per_undone_op: f64,
}

/// The `occ_mt` record the experiments binary embeds in the
/// `pwsr-experiments-v4` JSON.
#[derive(Clone, Debug, Default)]
pub struct OccMtStats {
    /// Host `available_parallelism` (scaling context, as in MON-2).
    pub parallelism: u64,
    /// Per-thread-count executor measurements.
    pub tiers: Vec<OccMtTier>,
    /// Sharded-retraction cost at the schedule tiers.
    pub retraction: Vec<RetractionTier>,
}

impl OccMtStats {
    /// Worst per-committed-op cost (CI ceiling input).
    pub fn worst_ns_per_committed_op(&self) -> f64 {
        self.tiers
            .iter()
            .map(|t| t.ns_per_committed_op)
            .fold(0.0, f64::max)
    }

    /// Worst per-undone-op retraction cost (CI ceiling input).
    pub fn worst_retraction_ns(&self) -> f64 {
        self.retraction
            .iter()
            .map(|t| t.ns_per_undone_op)
            .fold(0.0, f64::max)
    }
}

/// Suffix length per retraction round-trip (matches the
/// `monitor/occ_abort_*` and `abort_resync_*` criterion benches).
pub const RETRACT_SUFFIX: usize = 16;

/// MON-3: the OCC-certified threaded executor
/// ([`run_threaded_occ_certified`]) at 1/2/4/8 worker threads over the
/// 2-conjunct tier workload, plus the sharded-retraction cost at both
/// schedule tiers. Shape checks: every run's committed schedule is
/// read-coherent, lands at or above the `Pwsr` admission floor, and
/// its verdict is byte-identical to a single-writer replay — the
/// `floor+parity` column names the first of these a thread count
/// failed (`run_error`, `read_coherence`, `verdict_not_pwsr`,
/// `verdict_len`, `replay_parity`); the retraction round-trips restore
/// verdict parity each time. Abort and retry counts are recorded, not
/// asserted — they are a property of the host's interleavings.
///
/// [`run_threaded_occ_certified`]: pwsr_scheduler::concurrent::run_threaded_occ_certified
pub fn mon3(trials: u64, seed: u64) -> (bool, String, OccMtStats) {
    use pwsr_core::monitor::AdmissionLevel;
    use pwsr_scheduler::concurrent::run_threaded_occ_certified;

    let reps = if trials == 0 { 5 } else { trials };
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let mut ok = true;
    let mut stats = OccMtStats {
        parallelism,
        ..OccMtStats::default()
    };
    let mut t = Table::new(
        &format!(
            "MON-3  OCC-certified threaded executor ({} host cores)",
            parallelism
        ),
        &[
            "threads",
            "commits",
            "aborts",
            "retries",
            "ns/committed op",
            "floor+parity",
        ],
    );
    let (target, conjuncts, _) = TIERS[0];
    let mut rng = StdRng::seed_from_u64(seed);
    let w = crate::scale_exp::sized_workload(&mut rng, target, conjuncts);
    let scopes: Vec<ItemSet> = w.ic.conjuncts().iter().map(|c| c.items().clone()).collect();
    // What went wrong, beyond the table cell: the committed schedule
    // of a run that landed below the admission floor.
    let mut witnesses = String::new();
    for threads in MT_THREADS {
        let mut best: Option<(std::time::Duration, u64, u64, u64)> = None;
        // The first check any repetition failed, under the name
        // `benchmark/`'s oracle gives the same condition.
        let mut failure: Option<&'static str> = None;
        for _ in 0..reps {
            let start = Instant::now();
            let Ok(out) = run_threaded_occ_certified(
                &w.programs,
                &w.catalog,
                &w.initial,
                scopes.clone(),
                AdmissionLevel::Pwsr,
                threads,
                100_000,
            ) else {
                failure = failure.or(Some("run_error"));
                break;
            };
            let elapsed = start.elapsed();
            // Byte-identical to the single-writer replay.
            let mut replay = OnlineMonitor::new(scopes.clone());
            let mut last = replay.verdict();
            for op in out.schedule.ops() {
                last = replay.push(op.clone()).expect("recorded schedule is valid");
            }
            let failed = if out.schedule.check_read_coherence(&w.initial).is_err() {
                Some("read_coherence")
            } else if !out.verdict.pwsr() {
                // The executor committed below its floor (a replay
                // that disagreed would say `replay_parity`: the
                // monitor). The schedule is the bug report.
                witnesses.push_str(&format!(
                    "\nverdict_not_pwsr at {threads} threads; committed schedule:\n{}",
                    out.schedule
                ));
                Some("verdict_not_pwsr")
            } else if out.verdict.len != out.schedule.len() {
                Some("verdict_len")
            } else if last != out.verdict {
                Some("replay_parity")
            } else {
                None
            };
            failure = failure.or(failed);
            if best.as_ref().is_none_or(|(b, ..)| elapsed < *b) {
                best = Some((
                    elapsed,
                    out.schedule.len() as u64,
                    out.metrics.occ_aborts,
                    out.metrics.occ_retries,
                ));
            }
        }
        ok &= failure.is_none();
        let Some((elapsed, committed_ops, aborts, retries)) = best else {
            continue;
        };
        let tier = OccMtTier {
            threads: threads as u64,
            commits: w.programs.len() as u64,
            aborts,
            retries,
            ns_per_committed_op: elapsed.as_nanos() as f64 / committed_ops.max(1) as f64,
        };
        t.row(&[
            threads.to_string(),
            tier.commits.to_string(),
            tier.aborts.to_string(),
            tier.retries.to_string(),
            format!("{:.0}", tier.ns_per_committed_op),
            failure.unwrap_or("true").to_string(),
        ]);
        stats.tiers.push(tier);
    }
    ok &= stats.tiers.len() == MT_THREADS.len();

    // Sharded-retraction cost: retract + re-push a fixed suffix on a
    // fully loaded logged monitor, both tiers. Flatness across tiers
    // is the O(ops undone) claim, measured (recorded here, asserted
    // as a ceiling by CI, statistically by `monitor/occ_abort_*`).
    let mut rt = Table::new(
        "MON-3b Sharded retraction cost (retract + re-push, per undone op)",
        &["ops", "suffix", "ns/undone op", "parity"],
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
        let tail: Vec<_> = s.ops()[n - RETRACT_SUFFIX..].to_vec();
        let rounds = reps.max(1) * 20;
        let start = Instant::now();
        for _ in 0..rounds {
            black_box(m.truncate_to(n - RETRACT_SUFFIX));
            for op in &tail {
                black_box(m.push(op.clone()).expect("valid tail"));
            }
        }
        let ns_per_undone_op =
            start.elapsed().as_nanos() as f64 / (rounds as usize * RETRACT_SUFFIX) as f64;
        // Parity after the final round-trip: byte-identical to the
        // single-writer replay of the full schedule.
        let mut replay = OnlineMonitor::new(scopes.clone());
        let mut last = replay.verdict();
        for op in s.ops() {
            last = replay.push(op.clone()).expect("valid schedule");
        }
        let parity = m.verdict() == last;
        ok &= parity;
        let tier = RetractionTier {
            ops: n as u64,
            suffix_ops: RETRACT_SUFFIX as u64,
            ns_per_undone_op,
        };
        rt.row(&[
            n.to_string(),
            RETRACT_SUFFIX.to_string(),
            format!("{ns_per_undone_op:.0}"),
            parity.to_string(),
        ]);
        stats.retraction.push(tier);
    }
    ok &= stats.retraction.len() == TIERS.len();
    let text = format!("{}\n{}{witnesses}", t.render(), rt.render());
    (ok, text, stats)
}

/// One (batch size, thread count) measurement of the batched
/// admission path.
#[derive(Clone, Copy, Debug)]
pub struct BatchTier {
    /// Operations per `push_batch` call (the last chunk of a
    /// transaction may be shorter).
    pub batch: u64,
    /// Pushing threads.
    pub threads: u64,
    /// Operations certified per run.
    pub ops: u64,
    /// Certified throughput (best of the timed repetitions).
    pub ops_per_s: f64,
    /// Throughput over the singleton-push 1-thread baseline on the
    /// same workload.
    pub speedup_vs_singleton: f64,
    /// Mean ns each *operation* spent inside the order-claiming mutex
    /// on the batch path (instrumented run; the amortization claim is
    /// this number falling as `batch` grows).
    pub serial_ns_per_op: f64,
}

impl BatchTier {
    /// Amortized cost per certified operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops_per_s > 0.0 {
            1e9 / self.ops_per_s
        } else {
            f64::INFINITY
        }
    }
}

/// The `batch` record the experiments binary embeds in the
/// `pwsr-experiments-v9` JSON.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Host `available_parallelism` (scaling context, as in MON-2).
    pub parallelism: u64,
    /// The singleton-push 1-thread baseline every tier's
    /// `speedup_vs_singleton` is measured against.
    pub singleton_ops_per_s: f64,
    /// Per-(batch, threads) measurements.
    pub tiers: Vec<BatchTier>,
}

impl BatchStats {
    /// Speedup of the `(batch, threads)` tier, if measured.
    pub fn speedup_at(&self, batch: u64, threads: u64) -> Option<f64> {
        self.tiers
            .iter()
            .find(|t| t.batch == batch && t.threads == threads)
            .map(|t| t.speedup_vs_singleton)
    }

    /// The worst per-op cost across tiers (CI ceiling input).
    pub fn worst_ns_per_op(&self) -> f64 {
        self.tiers.iter().map(|t| t.ns_per_op()).fold(0.0, f64::max)
    }
}

/// Batch sizes the MON-4 sweep measures (the CI gate reads the
/// `batch >= 8`, 1-thread tiers against the singleton baseline).
pub const BATCH_SIZES: [usize; 2] = [8, 32];

/// MON-4 workload shape: transactions long enough that a batch of
/// [`BATCH_SIZES`] operations is a *fraction* of a transaction, not a
/// rounding artifact.
pub const BATCH_TXNS: usize = 256;
/// Operations per MON-4 transaction (read-then-write pairs).
pub const BATCH_OPS_PER_TXN: usize = 32;

/// Synthetic long-transaction workload for the batch bench: each of
/// `n_txns` transactions reads then writes `ops_per_txn / 2` distinct
/// items of a 64-item universe (stride-5 walk from a per-transaction
/// offset, so neighbouring transactions overlap and every conjunct
/// shard stays busy), with four conjunct scopes partitioning the
/// universe. The generated schedules replay `Serializable` — MON-4
/// measures pipeline cost, not verdict churn, and the single-writer
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

/// One timed batched run: transactions dealt round-robin over
/// `threads` workers, each worker admitting its transactions in
/// program-ordered `push_batch` chunks of `batch` operations. A
/// `batch` of 0 means singleton `push` (the baseline path).
fn batch_mt_run(
    scopes: &[ItemSet],
    programs: &[Vec<pwsr_core::op::Operation>],
    threads: usize,
    batch: usize,
    timed: bool,
) -> (std::time::Duration, ShardedMonitor) {
    let monitor = if timed {
        ShardedMonitor::new(scopes.to_vec()).with_serial_timing()
    } else {
        ShardedMonitor::new(scopes.to_vec())
    };
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let monitor = &monitor;
            scope.spawn(move || {
                for txn_ops in programs.iter().skip(w).step_by(threads) {
                    if batch == 0 {
                        for op in txn_ops {
                            black_box(monitor.push(op.clone()).expect("valid run"));
                        }
                    } else {
                        for chunk in txn_ops.chunks(batch) {
                            black_box(monitor.push_batch(chunk).expect("valid run"));
                        }
                    }
                }
            });
        }
    });
    (start.elapsed(), monitor)
}

/// MON-4: batched admission throughput. Singleton baseline (1 thread,
/// per-op `push`) against `push_batch` at every
/// ([`BATCH_SIZES`], [`MT_THREADS`]) pair, on the [`batch_workload`].
/// Shape check: at every tier the recorded interleaving replays to a
/// byte-identical verdict on a single-writer [`OnlineMonitor`] and the
/// Lemma 2/6 certificates survive the audit. Throughput ratios are
/// recorded, not asserted — the CI gate checks the release-mode JSON
/// record (batched 1-thread tiers strictly above the singleton
/// baseline at batch ≥ 8).
pub fn mon4(trials: u64, _seed: u64) -> (bool, String, BatchStats) {
    let reps = if trials == 0 { 5 } else { trials };
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let mut ok = true;
    let mut stats = BatchStats {
        parallelism,
        ..BatchStats::default()
    };
    let mut t = Table::new(
        &format!(
            "MON-4  Batched admission throughput ({} host cores)",
            parallelism
        ),
        &[
            "batch",
            "threads",
            "ops",
            "Mops/s",
            "ns/op",
            "serial ns/op",
            "vs singleton",
            "verdict parity",
        ],
    );
    let (programs, scopes) = batch_workload(BATCH_TXNS, BATCH_OPS_PER_TXN);
    let n: usize = programs.iter().map(Vec::len).sum();

    // Verdict parity of one run against the single-writer monitor on
    // the SAME interleaving the threads produced.
    let replay_parity = |monitor: ShardedMonitor| -> bool {
        let (recorded, verdict) = monitor.into_parts();
        let mut replay = OnlineMonitor::new(scopes.clone());
        let mut last = replay.verdict();
        for op in recorded.ops() {
            last = replay.push(op.clone()).expect("recorded schedule is valid");
        }
        last == verdict && recorded.len() == n && replay.certify_prefix()
    };

    // Singleton baseline: 1 thread, per-op push.
    let mut best = std::time::Duration::MAX;
    for _ in 0..reps {
        let (elapsed, monitor) = batch_mt_run(&scopes, &programs, 1, 0, false);
        best = best.min(elapsed);
        ok &= replay_parity(monitor);
    }
    stats.singleton_ops_per_s = n as f64 / best.as_secs_f64();
    t.row(&[
        "1 (push)".to_owned(),
        "1".to_owned(),
        n.to_string(),
        format!("{:.2}", stats.singleton_ops_per_s / 1e6),
        format!("{:.0}", 1e9 / stats.singleton_ops_per_s),
        "-".to_owned(),
        "1.00x".to_owned(),
        "baseline".to_owned(),
    ]);

    for batch in BATCH_SIZES {
        for threads in MT_THREADS {
            let mut best = std::time::Duration::MAX;
            let mut parity = true;
            for _ in 0..reps {
                let (elapsed, monitor) = batch_mt_run(&scopes, &programs, threads, batch, false);
                best = best.min(elapsed);
                parity &= replay_parity(monitor);
            }
            ok &= parity;
            let ops_per_s = n as f64 / best.as_secs_f64();
            // One extra instrumented run measures the serial-stage
            // residence per operation on the batch path.
            let (_, timed_monitor) = batch_mt_run(&scopes, &programs, threads, batch, true);
            let serial_ns_per_op = timed_monitor.serial_ns_per_op();
            let tier = BatchTier {
                batch: batch as u64,
                threads: threads as u64,
                ops: n as u64,
                ops_per_s,
                speedup_vs_singleton: if stats.singleton_ops_per_s > 0.0 {
                    ops_per_s / stats.singleton_ops_per_s
                } else {
                    0.0
                },
                serial_ns_per_op,
            };
            t.row(&[
                batch.to_string(),
                threads.to_string(),
                n.to_string(),
                format!("{:.2}", ops_per_s / 1e6),
                format!("{:.0}", tier.ns_per_op()),
                format!("{serial_ns_per_op:.0}"),
                format!("{:.2}x", tier.speedup_vs_singleton),
                parity.to_string(),
            ]);
            stats.tiers.push(tier);
        }
    }
    ok &= stats.tiers.len() == BATCH_SIZES.len() * MT_THREADS.len();
    ok &= stats.singleton_ops_per_s > 0.0;
    (ok, t.render(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shape only (parity); timing ratios are not asserted here — the
    /// CI perf gate checks the release-mode JSON record instead, and
    /// the criterion bench (`benches/monitor.rs`) carries the
    /// statistics.
    #[test]
    fn mon1_verdicts_agree_across_paths() {
        let (ok, text, stats) = mon1(1, 900);
        assert!(ok, "{text}");
        assert_eq!(stats.tiers.len(), 2);
        assert!(stats.total_ops() > 0);
        assert!(stats.worst_monitor_ns_per_op() > 0.0);
        assert!(text.contains("MON-1"));
    }

    /// Parity at every thread count; scaling is a host property, not a
    /// debug-mode test assertion.
    #[test]
    fn mon2_threaded_verdicts_pin_to_single_writer() {
        let (ok, text, stats) = mon2(1, 901);
        assert!(ok, "{text}");
        assert_eq!(stats.tiers.len(), MT_THREADS.len());
        assert!(stats.parallelism >= 1);
        assert!(stats.worst_ns_per_op() > 0.0);
        assert_eq!(stats.speedup_at(1), Some(1.0));
        assert!(text.contains("MON-2"));
    }

    /// MON-3 shape: floor compliance, replay parity and retraction
    /// parity at every thread count (timings recorded, not asserted).
    #[test]
    fn mon3_occ_certified_runs_pin_to_single_writer() {
        let (ok, text, stats) = mon3(1, 902);
        assert!(ok, "{text}");
        assert_eq!(stats.tiers.len(), MT_THREADS.len());
        assert_eq!(stats.retraction.len(), TIERS.len());
        assert!(stats.parallelism >= 1);
        assert!(stats.worst_ns_per_committed_op() > 0.0);
        assert!(stats.worst_retraction_ns() > 0.0);
        assert!(text.contains("MON-3") && text.contains("MON-3b"));
    }

    /// MON-4 shape: single-writer replay parity at every (batch,
    /// threads) tier; throughput ratios are a release-mode property
    /// the CI gate checks on the JSON record, not a debug-mode
    /// assertion.
    #[test]
    fn mon4_batched_verdicts_pin_to_single_writer() {
        let (ok, text, stats) = mon4(1, 903);
        assert!(ok, "{text}");
        assert_eq!(stats.tiers.len(), BATCH_SIZES.len() * MT_THREADS.len());
        assert!(stats.parallelism >= 1);
        assert!(stats.singleton_ops_per_s > 0.0);
        assert!(stats.worst_ns_per_op() > 0.0);
        assert!(stats.speedup_at(8, 1).is_some());
        for b in BATCH_SIZES {
            for th in MT_THREADS {
                assert!(stats.speedup_at(b as u64, th as u64).unwrap() > 0.0);
            }
        }
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
