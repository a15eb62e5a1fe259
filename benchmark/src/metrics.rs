//! The names the benchmark reports under. `BENCHMARK.json` at the
//! repository root lists the same names and units (a test holds the
//! two together); README.md says which workload each one belongs to
//! and which end-to-end metric it should move.

/// The five workloads, in reporting order.
pub const WORKLOADS: [&str; 5] = [
    "occ_hot",
    "occ_durable",
    "stream_local",
    "stream_cross",
    "recover_replay",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload. The share of
/// operations that failed the oracle travels beside them in every
/// record as `failed` and `attempted`; WAL bytes per operation and the
/// p90 of round time are the per-layer `durability.bytes_per_op` and
/// `bench.round_ms_p90` (README, "End-to-end metrics", says why none
/// of the three is listed here).
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// How a per-layer metric's samples become one number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    Median,
    /// Counters that are expected to be 0 and stall maxima.
    Max,
}

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub agg: Agg,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        agg: Agg::Median,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        agg: Agg::Median,
    }
}

const fn max(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        agg: Agg::Max,
    }
}

/// Every per-layer metric, grouped by layer (= module). A traced run
/// prints all of them; one that does not apply to the workload reads 0.
pub const PER_LAYER: [PerLayer; 56] = [
    lo("gen.build_ms", "ms"),
    lo("tplang.step_ns_per_op", "ns/op"),
    lo("scheduler.thread_ns_per_op", "ns/op"),
    lo("scheduler.self_wait_ns_per_op", "ns/op"),
    lo("scheduler.self_wait_share", "ratio"),
    lo("scheduler.aborts_per_kop", "1/kop"),
    lo("scheduler.retries_per_kop", "1/kop"),
    lo("scheduler.undone_ops_per_kop", "1/kop"),
    lo("scheduler.dirty_waits_per_kop", "1/kop"),
    hi("scheduler.commit_ratio", "ratio"),
    max("scheduler.txn_timeouts", "count"),
    max("scheduler.zombie_reaps", "count"),
    max("scheduler.worker_panics", "count"),
    hi("scheduler.parallel_speedup", "ratio"),
    lo("scheduler.round_ms_p99", "ms"),
    lo("core.monitor.admit_ns_per_op", "ns/op"),
    hi("core.monitor.batch_mean_ops", "ops"),
    lo("core.monitor.retract_ns_per_undone_op", "ns/op"),
    lo("core.monitor.retract_ns_per_op", "ns/op"),
    lo("core.monitor.push_batch_ns_per_op", "ns/op"),
    lo("core.monitor.push_batch_call_us_p99", "us"),
    lo("core.monitor.single_thread_ns_per_op", "ns/op"),
    lo("core.monitor.contention_factor", "ratio"),
    lo("core.monitor.seq_stage_ns_per_op", "ns/op"),
    lo("core.monitor.finish_ns_per_txn", "ns/txn"),
    lo("core.monitor.late_over_early", "ratio"),
    lo("core.monitor.resident_bytes_peak", "bytes"),
    lo("core.monitor.resident_bytes_end", "bytes"),
    hi("core.monitor.ops_reclaimed_share", "ratio"),
    lo("core.monitor.compact_ns_per_op", "ns/op"),
    lo("core.monitor.compact_ms_p50", "ms"),
    max("core.monitor.compact_ms_max", "ms"),
    lo("core.monitor.compact_share", "ratio"),
    lo("core.monitor.compactions", "count"),
    lo("core.monitor.replay_ns_per_op", "ns/op"),
    lo("durability.append_ns_per_op", "ns/op"),
    lo("durability.fsync_ns_per_op", "ns/op"),
    lo("durability.fsyncs_per_kop", "1/kop"),
    lo("durability.records_per_kop", "1/kop"),
    lo("durability.bytes_per_op", "bytes/op"),
    lo("durability.scan_ns_per_record", "ns/rec"),
    lo("durability.checkpoint_decode_ms", "ms"),
    lo("durability.state_hash_ms", "ms"),
    lo("durability.recover_ns_per_op", "ns/op"),
    lo("durability.recover_self_ns_per_op", "ns/op"),
    lo("durability.journal_ns_per_op", "ns/op"),
    lo("durability.advance_frontier_ms", "ms"),
    max("durability.io_errors", "count"),
    max("durability.retries", "count"),
    max("durability.dropped_records", "count"),
    lo("bench.round_ms_p50", "ms"),
    lo("bench.round_ms_p90", "ms"),
    lo("bench.trace_overhead_share", "ratio"),
    lo("bench.peak_rss_mb", "MB"),
    hi("bench.workers", "count"),
    hi("bench.rounds", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand, one entry per line; this
    /// keeps its workloads, metrics, units, directions and bounds
    /// equal to the registry, in the registry's order.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside benchmark/");
        let listed: Vec<&str> = text
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\":"))
            .collect();
        let mut expected: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{w}\", \"why\": \""))
            .collect();
        expected.extend(END_TO_END.iter().map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        }));
        expected.extend(PER_LAYER.iter().map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        }));
        assert_eq!(listed.len(), expected.len());
        for (at, (line, want)) in listed.iter().zip(&expected).enumerate() {
            // A workload's line goes on with its `why`.
            if at < WORKLOADS.len() {
                assert!(line.starts_with(want.as_str()), "{line}");
            } else {
                assert_eq!(line, want);
            }
        }
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|s| s.len() <= 64 && s.chars().all(ok)));
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(PER_LAYER
            .iter()
            .all(|m| m.unit.len() <= 16 && m.unit.chars().all(unit_ok)));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
