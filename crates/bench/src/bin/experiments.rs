//! Regenerate every example, figure and theorem of the paper.
//!
//! ```text
//! experiments [all|examples|lemmas|theorems|perf|scale|base|bank|recovery|exhaustive|monitor|analysis|compact|chaos|<id>]
//!             [--trials N] [--smoke] [--json PATH]
//! ```
//!
//! `<id>` ∈ {ex1 … ex5, fig3, lemma1, viewsets, lemma3, lemma4, lemma7,
//! thm1, thm2, thm3, perf1 … perf5, scale1, scale2, base1, bank1, rec1,
//! rec2, exh1, mon1, mon2, mon3, mon4, an1, cmp1, cha1}.
//! Every experiment prints a paper-vs-measured table; the exit code is
//! nonzero if any run deviates from the paper's predicted shape.
//!
//! `--smoke` caps every per-experiment trial default at a small constant
//! so the full sweep finishes in a couple of seconds — the CI entry
//! point (`experiments all --smoke`) that keeps every experiment's code
//! path *and* its shape check exercised without paying for full
//! statistical power. An explicit `--trials` overrides the cap.
//!
//! `--json PATH` additionally writes a machine-readable record of the
//! sweep — schema `pwsr-experiments-v9`: one entry per selected
//! experiment with its verdict, wall-clock seconds, and (where the
//! experiment measures them) processed-operation counts and the online
//! monitor's per-op timings; a `monitor_mt` block recording the
//! sharded monitor's certified throughput at 1/2/4/8 pushing threads
//! (with the host's `available_parallelism`, without which scaling
//! numbers are uninterpretable, and the measured serial-stage ns per
//! op); and an `occ_mt` block recording the OCC-certified threaded
//! executor (threads, commits, aborts, retries, ns per committed op)
//! plus the sharded-retraction cost entries; and a `batch` block
//! recording the batched admission path (the singleton-push baseline
//! and `push_batch` throughput per (batch size, threads) tier with
//! the amortized serial-stage ns per op); and an `analysis` block
//! recording the static robustness analyzer's portfolio (programs
//! analyzed, Safe/Unsafe/Unknown verdict counts) and the certified
//! admission fast path's per-op cost against the monitored path — so
//! successive PRs can track the perf trajectory (`BENCH_*.json` at the
//! repo root) and CI can gate on the format, the monitors' per-op
//! cost and the retraction cost staying sub-linear (it compares no
//! two timings with each other — `benchmark/` judges speed); and a
//! `recovery` block recording the REC-2 crash-injection sweep (crash
//! points injected — torn tails, bit flips, checkpoint+tail legs —
//! how many recovered byte-identically, WAL replay ns per record, and
//! the admission path's WAL-on vs WAL-off ns per op) so CI can fail
//! on any unrecovered crash point; and a `compact` block recording
//! the CMP-1 committed-prefix-compaction stream (ops streamed, compaction
//! sweeps, ops reclaimed, the compacting twin's resident-byte
//! plateau pre/post sweep vs the uncompacted baseline's footprint,
//! and both paths' ns per op) so CI can gate the memory plateau
//! staying far below the uncompacted twin; and a `chaos` block
//! recording the CHA-1 deterministic fault sweep (seeded fault points injected
//! beneath the WAL sink and into the executor workers, how many were
//! contained per the error-policy contract, post-fault recovery
//! round-trips, fault-free-twin parity checks, and the zombie-reap /
//! contained-panic / timeout / WAL-error counters) so CI can fail on
//! any uncontained fault, any recovery or parity miss, or a sweep
//! that covers fewer than 128 points.

use pwsr_bench::analysis_exp::AnalysisStats;
use pwsr_bench::chaos_exp::ChaosStats;
use pwsr_bench::compact_exp::CompactExpStats;
use pwsr_bench::monitor_exp::{BatchStats, MonitorMtStats, MonitorStats, OccMtStats};
use pwsr_bench::recovery_exp::RecoveryStats;
use pwsr_bench::{
    analysis_exp, bank_exp, base_exp, chaos_exp, compact_exp, examples_exp, exhaustive_exp,
    lemmas_exp, monitor_exp, perf_exp, recovery_exp, scale_exp, theorems_exp,
};

struct Opts {
    what: String,
    trials: u64,
    smoke: bool,
    json: Option<String>,
}

fn parse_args() -> Opts {
    let mut what = "all".to_owned();
    let mut trials = 0u64; // 0 = per-experiment default
    let mut smoke = false;
    let mut json = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trials" => {
                trials = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--trials needs a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--json" => {
                json = Some(args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }));
                i += 2;
            }
            other => {
                what = other.to_owned();
                i += 1;
            }
        }
    }
    Opts {
        what,
        trials,
        smoke,
        json,
    }
}

/// One experiment's outcome, as the registry consumes it.
struct ExpRun {
    ok: bool,
    text: String,
    /// Operations the experiment processed, when it counts them.
    ops: Option<u64>,
    /// The online monitor's worst amortized per-op cost, when measured.
    monitor_ns_per_op: Option<f64>,
    /// Full per-tier monitor stats (only `mon1` produces them); the
    /// registry lifts them into the JSON document's `monitor` block.
    monitor: Option<MonitorStats>,
    /// Sharded-monitor thread-scaling stats (only `mon2`); lifted into
    /// the JSON document's `monitor_mt` block.
    monitor_mt: Option<MonitorMtStats>,
    /// OCC-certified executor stats (only `mon3`); lifted into the
    /// JSON document's `occ_mt` block.
    occ_mt: Option<OccMtStats>,
    /// Batched-admission throughput stats (only `mon4`); lifted into
    /// the JSON document's `batch` block.
    batch: Option<BatchStats>,
    /// Static-analyzer portfolio stats (only `an1`); lifted into the
    /// JSON document's `analysis` block.
    analysis: Option<AnalysisStats>,
    /// Crash-recovery sweep stats (only `rec2`); lifted into the
    /// JSON document's `recovery` block.
    recovery: Option<RecoveryStats>,
    /// Committed-prefix-compaction stream stats (only `cmp1`); lifted
    /// into the JSON document's `compact` block.
    compact: Option<CompactExpStats>,
    /// Chaos-plane fault-sweep stats (only `cha1`); lifted into the
    /// JSON document's `chaos` block.
    chaos: Option<ChaosStats>,
}

impl From<(bool, String)> for ExpRun {
    fn from((ok, text): (bool, String)) -> ExpRun {
        ExpRun {
            ok,
            text,
            ops: None,
            monitor_ns_per_op: None,
            monitor: None,
            monitor_mt: None,
            occ_mt: None,
            batch: None,
            analysis: None,
            recovery: None,
            compact: None,
            chaos: None,
        }
    }
}

/// One experiment's machine-readable record.
struct JsonEntry {
    id: &'static str,
    group: &'static str,
    ok: bool,
    seconds: f64,
    ops: Option<u64>,
    monitor_ns_per_op: Option<f64>,
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_owned(), |x| x.to_string())
}

fn fmt_opt_f64(v: Option<f64>) -> String {
    v.map_or("null".to_owned(), |x| format!("{x:.1}"))
}

/// Render the sweep record as JSON (no external dependencies; every
/// value is a bare identifier, bool, number or null, so no escaping is
/// needed).
#[allow(clippy::too_many_arguments)]
fn render_json(
    opts: &Opts,
    all_ok: bool,
    entries: &[JsonEntry],
    monitor: &Option<MonitorStats>,
    monitor_mt: &Option<MonitorMtStats>,
    occ_mt: &Option<OccMtStats>,
    batch: &Option<BatchStats>,
    analysis: &Option<AnalysisStats>,
    recovery: &Option<RecoveryStats>,
    compact: &Option<CompactExpStats>,
    chaos: &Option<ChaosStats>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"pwsr-experiments-v9\",\n");
    out.push_str(&format!("  \"selection\": \"{}\",\n", opts.what));
    out.push_str(&format!("  \"smoke\": {},\n", opts.smoke));
    out.push_str(&format!("  \"trials_override\": {},\n", opts.trials));
    out.push_str(&format!("  \"all_ok\": {all_ok},\n"));
    match monitor {
        Some(stats) => {
            out.push_str("  \"monitor\": {\"tiers\": [\n");
            for (k, t) in stats.tiers.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"ops\": {}, \"conjuncts\": {}, \"monitor_ns_per_op\": {:.1}, \
                     \"batch_ns_per_op\": {:.1}, \"speedup\": {:.2}}}{}\n",
                    t.ops,
                    t.conjuncts,
                    t.monitor_ns_per_op,
                    t.batch_ns_per_op,
                    t.speedup(),
                    if k + 1 < stats.tiers.len() { "," } else { "" }
                ));
            }
            out.push_str("  ]},\n");
        }
        None => out.push_str("  \"monitor\": null,\n"),
    }
    match monitor_mt {
        Some(stats) => {
            out.push_str(&format!(
                "  \"monitor_mt\": {{\"parallelism\": {}, \"tiers\": [\n",
                stats.parallelism
            ));
            for (k, t) in stats.tiers.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"threads\": {}, \"ops\": {}, \"ops_per_s\": {:.1}, \
                     \"ns_per_op\": {:.1}, \"speedup\": {:.3}, \"serial_ns_per_op\": {:.1}}}{}\n",
                    t.threads,
                    t.ops,
                    t.ops_per_s,
                    t.ns_per_op(),
                    t.speedup,
                    t.serial_ns_per_op,
                    if k + 1 < stats.tiers.len() { "," } else { "" }
                ));
            }
            out.push_str("  ]},\n");
        }
        None => out.push_str("  \"monitor_mt\": null,\n"),
    }
    match occ_mt {
        Some(stats) => {
            out.push_str(&format!(
                "  \"occ_mt\": {{\"parallelism\": {}, \"tiers\": [\n",
                stats.parallelism
            ));
            for (k, t) in stats.tiers.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"threads\": {}, \"commits\": {}, \"aborts\": {}, \"retries\": {}, \
                     \"ns_per_committed_op\": {:.1}}}{}\n",
                    t.threads,
                    t.commits,
                    t.aborts,
                    t.retries,
                    t.ns_per_committed_op,
                    if k + 1 < stats.tiers.len() { "," } else { "" }
                ));
            }
            out.push_str("  ], \"retraction\": [\n");
            for (k, t) in stats.retraction.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"ops\": {}, \"suffix_ops\": {}, \"ns_per_undone_op\": {:.1}}}{}\n",
                    t.ops,
                    t.suffix_ops,
                    t.ns_per_undone_op,
                    if k + 1 < stats.retraction.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            out.push_str("  ]},\n");
        }
        None => out.push_str("  \"occ_mt\": null,\n"),
    }
    match batch {
        Some(stats) => {
            out.push_str(&format!(
                "  \"batch\": {{\"parallelism\": {}, \"singleton_ops_per_s\": {:.1}, \
                 \"tiers\": [\n",
                stats.parallelism, stats.singleton_ops_per_s
            ));
            for (k, t) in stats.tiers.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"batch\": {}, \"threads\": {}, \"ops\": {}, \
                     \"ops_per_s\": {:.1}, \"speedup_vs_singleton\": {:.3}, \
                     \"serial_ns_per_op\": {:.1}}}{}\n",
                    t.batch,
                    t.threads,
                    t.ops,
                    t.ops_per_s,
                    t.speedup_vs_singleton,
                    t.serial_ns_per_op,
                    if k + 1 < stats.tiers.len() { "," } else { "" }
                ));
            }
            out.push_str("  ]},\n");
        }
        None => out.push_str("  \"batch\": null,\n"),
    }
    match analysis {
        Some(stats) => {
            out.push_str(&format!(
                "  \"analysis\": {{\"programs\": {}, \"safe\": {}, \"unsafe\": {}, \
                 \"unknown\": {}, \"certified_ns_per_op\": {:.1}, \
                 \"monitored_ns_per_op\": {:.1}, \"speedup\": {:.2}}},\n",
                stats.programs,
                stats.safe,
                stats.unsafe_verdicts,
                stats.unknown,
                stats.certified_ns_per_op,
                stats.monitored_ns_per_op,
                stats.speedup(),
            ));
        }
        None => out.push_str("  \"analysis\": null,\n"),
    }
    match recovery {
        Some(stats) => {
            out.push_str(&format!(
                "  \"recovery\": {{\"crash_points\": {}, \"torn_tail_points\": {}, \
                 \"corrupt_checksum_points\": {}, \"checkpoint_points\": {}, \
                 \"recovered_ok\": {}, \"wal_records\": {}, \"replay_ns_per_op\": {:.1}, \
                 \"wal_on_ns_per_op\": {:.1}, \"wal_off_ns_per_op\": {:.1}}},\n",
                stats.crash_points,
                stats.torn_tail_points,
                stats.corrupt_checksum_points,
                stats.checkpoint_points,
                stats.recovered_ok,
                stats.wal_records,
                stats.replay_ns_per_op,
                stats.wal_on_ns_per_op,
                stats.wal_off_ns_per_op,
            ));
        }
        None => out.push_str("  \"recovery\": null,\n"),
    }
    match compact {
        Some(stats) => {
            out.push_str(&format!(
                "  \"compact\": {{\"ops\": {}, \"compactions\": {}, \"ops_reclaimed\": {}, \
                 \"resident_bytes_pre\": {}, \"resident_bytes_post\": {}, \
                 \"baseline_resident_bytes\": {}, \"compact_ns_per_op\": {:.1}, \
                 \"baseline_ns_per_op\": {:.1}, \"overhead\": {:.3}, \"memory_ratio\": {:.1}}},\n",
                stats.ops,
                stats.compactions,
                stats.ops_reclaimed,
                stats.resident_bytes_pre,
                stats.resident_bytes_post,
                stats.baseline_resident_bytes,
                stats.compact_ns_per_op,
                stats.baseline_ns_per_op,
                stats.overhead(),
                stats.memory_ratio(),
            ));
        }
        None => out.push_str("  \"compact\": null,\n"),
    }
    match chaos {
        Some(stats) => {
            out.push_str(&format!(
                "  \"chaos\": {{\"fault_points\": {}, \"contained\": {}, \
                 \"wal_fault_points\": {}, \"exec_fault_points\": {}, \
                 \"recover_checks\": {}, \"recover_ok\": {}, \
                 \"parity_checks\": {}, \"parity_ok\": {}, \
                 \"zombie_reaps\": {}, \"worker_panics\": {}, \
                 \"txn_timeouts\": {}, \"wal_io_errors\": {}, \
                 \"injected_faults\": {}}},\n",
                stats.fault_points,
                stats.contained,
                stats.wal_fault_points,
                stats.exec_fault_points,
                stats.recover_checks,
                stats.recover_ok,
                stats.parity_checks,
                stats.parity_ok,
                stats.zombie_reaps,
                stats.worker_panics,
                stats.txn_timeouts,
                stats.wal_io_errors,
                stats.injected_faults,
            ));
        }
        None => out.push_str("  \"chaos\": null,\n"),
    }
    out.push_str("  \"experiments\": [\n");
    for (k, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"group\": \"{}\", \"ok\": {}, \"seconds\": {:.6}, \
             \"ops\": {}, \"monitor_ns_per_op\": {}}}{}\n",
            e.id,
            e.group,
            e.ok,
            e.seconds,
            fmt_opt_u64(e.ops),
            fmt_opt_f64(e.monitor_ns_per_op),
            if k + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Trial cap applied by `--smoke` to every per-experiment default.
const SMOKE_TRIALS: u64 = 8;

fn main() {
    let opts = parse_args();
    let smoke = opts.smoke;
    let pick = move |n: u64, default: u64| -> u64 {
        if n != 0 {
            n
        } else if smoke {
            default.min(SMOKE_TRIALS)
        } else {
            default
        }
    };
    let mut all_ok = true;
    let mut matched = false;
    let mut entries: Vec<JsonEntry> = Vec::new();
    let mut monitor_stats: Option<MonitorStats> = None;
    let mut monitor_mt_stats: Option<MonitorMtStats> = None;
    let mut occ_mt_stats: Option<OccMtStats> = None;
    let mut batch_stats: Option<BatchStats> = None;
    let mut analysis_stats: Option<AnalysisStats> = None;
    let mut recovery_stats: Option<RecoveryStats> = None;
    let mut compact_stats: Option<CompactExpStats> = None;
    let mut chaos_stats: Option<ChaosStats> = None;
    {
        let monitor_out = &mut monitor_stats;
        let monitor_mt_out = &mut monitor_mt_stats;
        let occ_mt_out = &mut occ_mt_stats;
        let batch_out = &mut batch_stats;
        let analysis_out = &mut analysis_stats;
        let recovery_out = &mut recovery_stats;
        let compact_out = &mut compact_stats;
        let chaos_out = &mut chaos_stats;
        let mut run = |id: &'static str, f: &dyn Fn(u64) -> ExpRun| {
            let selected =
                matches!(opts.what.as_str(), "all") || opts.what == id || group_of(id) == opts.what;
            if selected {
                matched = true;
                let start = std::time::Instant::now();
                let r = f(opts.trials);
                let seconds = start.elapsed().as_secs_f64();
                println!("{}", r.text);
                if !r.ok {
                    eprintln!("!! {id}: deviation from the paper's predicted shape\n");
                }
                all_ok &= r.ok;
                entries.push(JsonEntry {
                    id,
                    group: group_of(id),
                    ok: r.ok,
                    seconds,
                    ops: r.ops,
                    monitor_ns_per_op: r.monitor_ns_per_op,
                });
                if r.monitor.is_some() {
                    *monitor_out = r.monitor;
                }
                if r.monitor_mt.is_some() {
                    *monitor_mt_out = r.monitor_mt;
                }
                if r.occ_mt.is_some() {
                    *occ_mt_out = r.occ_mt;
                }
                if r.batch.is_some() {
                    *batch_out = r.batch;
                }
                if r.analysis.is_some() {
                    *analysis_out = r.analysis;
                }
                if r.recovery.is_some() {
                    *recovery_out = r.recovery;
                }
                if r.compact.is_some() {
                    *compact_out = r.compact;
                }
                if r.chaos.is_some() {
                    *chaos_out = r.chaos;
                }
            }
        };

        run("ex1", &|_| examples_exp::ex1().into());
        run("ex2", &|_| examples_exp::ex2().into());
        run("ex3", &|_| examples_exp::ex3().into());
        run("ex4", &|_| examples_exp::ex4().into());
        run("ex5", &|_| examples_exp::ex5().into());
        run("fig3", &|_| examples_exp::fig3().into());

        run("lemma1", &|n| {
            let (o, t) = lemmas_exp::lemma1(pick(n, 2_000), 11);
            (o.clean(), t).into()
        });
        run("viewsets", &|n| {
            let (l2, l6, t) = lemmas_exp::viewset_lemmas(pick(n, 150), 12);
            (
                l2.clean() && l6.clean() && l2.checks > 0 && l6.checks > 0,
                t,
            )
                .into()
        });
        run("lemma3", &|n| {
            let (fixed, _ctrl, t) = lemmas_exp::lemma3(pick(n, 200), 13);
            (fixed.clean() && fixed.checks > 0, t).into()
        });
        run("lemma4", &|n| {
            let (l4, l8, t) = lemmas_exp::lemma4_and_8(pick(n, 60), 14);
            (
                l4.clean() && l8.clean() && l4.checks > 0 && l8.checks > 0,
                t,
            )
                .into()
        });
        run("lemma7", &|n| {
            let (o, t) = lemmas_exp::lemma7(pick(n, 500), 15);
            (o.clean() && o.checks > 0, t).into()
        });

        run("thm1", &|n| {
            let (o, t) = theorems_exp::theorem(1, pick(n, 30), 8, 101);
            (o.matches_paper(), t).into()
        });
        run("thm2", &|n| {
            let (o, t) = theorems_exp::theorem(2, pick(n, 30), 8, 102);
            (o.matches_paper(), t).into()
        });
        run("thm3", &|n| {
            let (o, t) = theorems_exp::theorem(3, pick(n, 30), 8, 103);
            (o.matches_paper(), t).into()
        });

        run("perf1", &|n| perf_exp::perf1(pick(n, 24), 400).into());
        run("perf2", &|_| perf_exp::perf2(401).into());
        run("perf3", &|n| perf_exp::perf3(pick(n, 5), 402).into());
        run("perf4", &|n| perf_exp::perf4(pick(n, 8), 403).into());
        run("perf5", &|n| perf_exp::perf5(pick(n, 10), 404).into());

        run("scale1", &|_| scale_exp::scale1(500).into());
        run("scale2", &|_| scale_exp::scale2(501).into());

        run("base1", &|n| base_exp::base1(pick(n, 80), 600).into());

        run("bank1", &|n| bank_exp::bank1(pick(n, 200), 700).into());
        run("rec1", &|n| recovery_exp::rec1(pick(n, 600), 800).into());
        run("rec2", &|n| {
            let (ok, text, stats) = recovery_exp::rec2(pick(n, 8), 801);
            ExpRun {
                ok,
                text,
                ops: Some(stats.wal_records),
                monitor_ns_per_op: None,
                monitor: None,
                monitor_mt: None,
                occ_mt: None,
                batch: None,
                analysis: None,
                recovery: Some(stats),
                compact: None,
                chaos: None,
            }
        });
        run("exh1", &|_| exhaustive_exp::exh1().into());

        run("mon1", &|n| {
            let (ok, text, stats) = monitor_exp::mon1(pick(n, 5), 900);
            ExpRun {
                ok,
                text,
                ops: Some(stats.total_ops()),
                monitor_ns_per_op: Some(stats.worst_monitor_ns_per_op()),
                monitor: Some(stats),
                monitor_mt: None,
                occ_mt: None,
                batch: None,
                analysis: None,
                recovery: None,
                compact: None,
                chaos: None,
            }
        });

        run("mon2", &|n| {
            let (ok, text, stats) = monitor_exp::mon2(pick(n, 5), 901);
            ExpRun {
                ok,
                text,
                ops: Some(stats.tiers.iter().map(|t| t.ops).sum()),
                monitor_ns_per_op: Some(stats.worst_ns_per_op()),
                monitor: None,
                monitor_mt: Some(stats),
                occ_mt: None,
                batch: None,
                analysis: None,
                recovery: None,
                compact: None,
                chaos: None,
            }
        });

        run("mon3", &|n| {
            let (ok, text, stats) = monitor_exp::mon3(pick(n, 5), 902);
            ExpRun {
                ok,
                text,
                ops: None,
                monitor_ns_per_op: Some(stats.worst_ns_per_committed_op()),
                monitor: None,
                monitor_mt: None,
                occ_mt: Some(stats),
                batch: None,
                analysis: None,
                recovery: None,
                compact: None,
                chaos: None,
            }
        });

        run("mon4", &|n| {
            let (ok, text, stats) = monitor_exp::mon4(pick(n, 5), 903);
            ExpRun {
                ok,
                text,
                ops: Some(stats.tiers.iter().map(|t| t.ops).sum()),
                monitor_ns_per_op: Some(stats.worst_ns_per_op()),
                monitor: None,
                monitor_mt: None,
                occ_mt: None,
                batch: Some(stats),
                analysis: None,
                recovery: None,
                compact: None,
                chaos: None,
            }
        });

        run("an1", &|n| {
            let (ok, text, stats) = analysis_exp::an1(pick(n, 5), 0xA11);
            ExpRun {
                ok,
                text,
                ops: None,
                monitor_ns_per_op: Some(stats.monitored_ns_per_op),
                monitor: None,
                monitor_mt: None,
                occ_mt: None,
                batch: None,
                analysis: Some(stats),
                recovery: None,
                compact: None,
                chaos: None,
            }
        });

        run("cmp1", &|n| {
            let (ok, text, stats) = compact_exp::cmp1(pick(n, 10), 0xC01);
            ExpRun {
                ok,
                text,
                ops: Some(stats.ops),
                monitor_ns_per_op: Some(stats.compact_ns_per_op),
                monitor: None,
                monitor_mt: None,
                occ_mt: None,
                batch: None,
                analysis: None,
                recovery: None,
                compact: Some(stats),
                chaos: None,
            }
        });

        run("cha1", &|n| {
            let (ok, text, stats) = chaos_exp::cha1(pick(n, 2), 0xC4A1);
            ExpRun {
                ok,
                text,
                ops: Some(stats.fault_points),
                monitor_ns_per_op: None,
                monitor: None,
                monitor_mt: None,
                occ_mt: None,
                batch: None,
                analysis: None,
                recovery: None,
                compact: None,
                chaos: Some(stats),
            }
        });
    }

    if !matched {
        eprintln!(
            "unknown experiment {:?}; try: all, examples, lemmas, theorems, perf, scale, base, \
             monitor, analysis, compact, chaos, or an id like ex2 / thm1 / perf2 / mon3 / an1 / \
             cmp1 / cha1",
            opts.what
        );
        std::process::exit(2);
    }
    if let Some(path) = &opts.json {
        let body = render_json(
            &opts,
            all_ok,
            &entries,
            &monitor_stats,
            &monitor_mt_stats,
            &occ_mt_stats,
            &batch_stats,
            &analysis_stats,
            &recovery_stats,
            &compact_stats,
            &chaos_stats,
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {path} ({} experiments)", entries.len());
    }
    if !all_ok {
        std::process::exit(1);
    }
}

fn group_of(id: &str) -> &'static str {
    match id {
        "ex1" | "ex2" | "ex3" | "ex4" | "ex5" | "fig3" => "examples",
        "lemma1" | "viewsets" | "lemma3" | "lemma4" | "lemma7" => "lemmas",
        "thm1" | "thm2" | "thm3" => "theorems",
        "perf1" | "perf2" | "perf3" | "perf4" | "perf5" => "perf",
        "scale1" | "scale2" => "scale",
        "base1" => "base",
        "bank1" => "bank",
        "rec1" | "rec2" => "recovery",
        "exh1" => "exhaustive",
        "mon1" | "mon2" | "mon3" | "mon4" => "monitor",
        "an1" => "analysis",
        "cmp1" => "compact",
        "cha1" => "chaos",
        _ => "",
    }
}
