//! Tiny-size runs of all five workloads, untraced and traced: the
//! whole path — set-up, rounds of every kind, oracle, layer replays,
//! budget, both output formats — in seconds.

use std::path::PathBuf;

use pwsr_benchmark::gen::Size;
use pwsr_benchmark::harness::Config;
use pwsr_benchmark::json::Json;
use pwsr_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use pwsr_benchmark::{report, run_workload, Finished};

fn smoke(workload: &str, trace: bool) -> (Config, Finished) {
    let cfg = Config {
        seed: 42,
        // Ten rounds reach every kind of every cycle (the audit round
        // of `stream_*` is the tenth).
        rounds: 10,
        trace,
        workers: 2,
        size: Size::Tiny,
        // One directory per test: tests run in parallel.
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("smoke-{workload}-t{}", u8::from(trace))),
    };
    let done = run_workload(workload, &cfg).expect("known workload");
    (cfg, done)
}

fn layer(done: &Finished, name: &str) -> f64 {
    let at = PER_LAYER.iter().position(|m| m.name == name).expect(name);
    report::per_layer_values(&done.record)[at]
}

/// The keys of the driver's record and of its `metrics` member.
fn driver_line_keys(cfg: &Config, done: &Finished) -> (Vec<String>, Vec<String>) {
    let keys = |obj: &Json| match obj {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    };
    let line = report::driver_line(cfg, &done.record);
    let Json::Obj(pairs) = &line else {
        panic!("not an object: {line:?}");
    };
    assert_eq!(pairs[0].1, Json::Bool(true), "correct");
    (keys(&line), keys(&pairs[3].1))
}

/// One test, so that no two workloads run at once: the benchmark's
/// load shape is `workers` threads and nothing else.
#[test]
fn every_workload_runs_untraced_and_traced_at_tiny_size() {
    untraced_runs_pass_the_oracle_and_report_every_end_to_end_metric();
    traced_runs_fill_their_layers_and_the_budget_adds_up();
}

fn untraced_runs_pass_the_oracle_and_report_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let (cfg, done) = smoke(workload, false);
        let rec = &done.record;
        assert!(rec.failures.is_empty(), "{workload}: {:?}", rec.failures);
        assert_eq!(rec.failed, 0);
        assert!(rec.attempted > 0 && rec.timed_rounds >= 8, "{workload}");
        let [setup_s, ops_per_s] = report::end_to_end_values(rec);
        assert!(setup_s > 0.0 && ops_per_s > 0.0, "{workload}");

        let (keys, metrics) = driver_line_keys(&cfg, &done);
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(metrics.iter().eq(END_TO_END.iter().map(|m| m.name)));
    }
}

fn traced_runs_fill_their_layers_and_the_budget_adds_up() {
    for workload in WORKLOADS {
        let (cfg, done) = smoke(workload, true);
        let rec = &done.record;
        assert!(rec.failures.is_empty(), "{workload}: {:?}", rec.failures);
        assert!(
            rec.rounds.get("traced").is_some_and(|n| *n >= 3),
            "{workload}"
        );
        assert!(!rec.layers.spans.is_empty(), "{workload}: no spans kept");

        let expected: &[&str] = match workload {
            "occ_hot" | "occ_durable" => &[
                "tplang.step_ns_per_op",
                "scheduler.thread_ns_per_op",
                "scheduler.commit_ratio",
                "scheduler.parallel_speedup",
                "core.monitor.admit_ns_per_op",
                "core.monitor.retract_ns_per_undone_op",
            ],
            "stream_local" | "stream_cross" => &[
                "core.monitor.push_batch_ns_per_op",
                "core.monitor.single_thread_ns_per_op",
                "core.monitor.contention_factor",
                "core.monitor.seq_stage_ns_per_op",
                "core.monitor.finish_ns_per_txn",
                "core.monitor.late_over_early",
                "core.monitor.compact_ms_p50",
                "core.monitor.resident_bytes_peak",
            ],
            _ => &[
                "core.monitor.replay_ns_per_op",
                "durability.scan_ns_per_record",
                "durability.checkpoint_decode_ms",
                "durability.state_hash_ms",
                "durability.journal_ns_per_op",
                "durability.advance_frontier_ms",
            ],
        };
        for name in
            expected
                .iter()
                .chain(&["gen.build_ms", "bench.round_ms_p90", "bench.peak_rss_mb"])
        {
            assert!(layer(&done, name) > 0.0, "{workload}: {name} is 0");
        }
        if workload == "occ_durable" {
            for name in [
                "durability.append_ns_per_op",
                "durability.fsyncs_per_kop",
                "durability.bytes_per_op",
                "core.monitor.compactions",
            ] {
                assert!(layer(&done, name) > 0.0, "{workload}: {name} is 0");
            }
        }
        for name in [
            "scheduler.worker_panics",
            "scheduler.txn_timeouts",
            "durability.io_errors",
            "durability.dropped_records",
        ] {
            assert_eq!(layer(&done, name), 0.0, "{workload}: {name}");
        }

        match (&done.budget, workload.starts_with("stream")) {
            (None, true) => {}
            (Some((_, b)), false) => {
                assert!(b.total > 0.0, "{workload}");
                let sum: f64 = b.parts.iter().map(|(_, v)| v).sum::<f64>() + b.remainder();
                assert!((sum - b.total).abs() <= 1e-9 * b.total, "{workload}");
                let reported = if workload == "recover_replay" {
                    "durability.recover_self_ns_per_op"
                } else {
                    "scheduler.self_wait_ns_per_op"
                };
                assert_eq!(layer(&done, reported), b.remainder(), "{workload}");
            }
            (b, _) => panic!("{workload}: unexpected budget {b:?}"),
        }

        let (_, metrics) = driver_line_keys(&cfg, &done);
        assert!(metrics.iter().eq(PER_LAYER.iter().map(|m| m.name)));
    }
}
