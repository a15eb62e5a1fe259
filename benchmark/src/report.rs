//! What a run prints and writes: every metric by name with its unit,
//! the failed oracle conditions by name and the host it ran on.
//! `results.py` merges the run files into `result.json` and compares
//! two of those.

use std::path::Path;

use crate::harness::{Config, RunRecord};
use crate::json::Json;
use crate::metrics::{Agg, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile};
use crate::trace::Budget;
use crate::workloads::occ::DURABLE_SYNC_EVERY;

pub const SCHEMA: &str = "pwsr-benchmark-v1";

/// Where and how a run was made; results with different `workers`
/// are never compared.
pub fn host_meta(cfg: &Config) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("nproc", Json::num(nproc as f64)),
        ("workers", Json::num(cfg.workers as f64)),
        ("rustc", Json::str(env!("PWSR_BENCH_RUSTC"))),
        (
            "wal_sync",
            Json::str(format!(
                "occ_durable: Batched({DURABLE_SYNC_EVERY}); recover_replay journal: Off"
            )),
        ),
        ("out_fs", Json::str(filesystem_of(&cfg.out_dir))),
        ("seed", Json::str(cfg.seed.to_string())),
    ]
}

/// Filesystem type of the mount that holds `dir` (from
/// `/proc/self/mountinfo`; "unknown" elsewhere).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            // "<id> <parent> <dev> <root> <mount point> … - <fstype> …"
            let mount = line.split(' ').nth(4)?;
            let fstype = line.split(" - ").nth(1)?.split(' ').next()?;
            dir.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fstype)| fstype.to_string())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))])
}

/// `{name: {value, unit}}` for every end-to-end metric.
fn end_to_end_json(rec: &RunRecord) -> Json {
    Json::obj(
        END_TO_END
            .iter()
            .zip(end_to_end_values(rec))
            .map(|(m, v)| (m.name, metric(v, m.unit))),
    )
}

/// `{name: {value, unit}}` for every per-layer metric.
fn per_layer_json(rec: &RunRecord) -> Json {
    Json::obj(
        PER_LAYER
            .iter()
            .zip(per_layer_values(rec))
            .map(|(m, v)| (m.name, metric(v, m.unit))),
    )
}

/// The value of every end-to-end metric of a run, in registry order.
pub fn end_to_end_values(rec: &RunRecord) -> [f64; 2] {
    [rec.setup_s, rec.ops_per_s]
}

/// The value of every per-layer metric of a run, in registry order.
pub fn per_layer_values(rec: &RunRecord) -> Vec<f64> {
    PER_LAYER
        .iter()
        .map(|m| {
            let samples = rec.layers.get(m.name);
            match m.agg {
                Agg::Median => median(samples),
                Agg::Max => quantile(samples, 1.0),
            }
        })
        .collect()
}

/// The run as a JSON document (also the run file `report` merges).
pub fn run_json(
    workload: &str,
    cfg: &Config,
    rec: &RunRecord,
    fingerprint: u64,
    budget: Option<(&str, &Budget)>,
) -> Json {
    let mut doc = vec![
        ("schema".to_string(), Json::str(SCHEMA)),
        ("workload".into(), Json::str(workload)),
        ("trace".into(), Json::num(f64::from(u8::from(cfg.trace)))),
    ];
    doc.extend(host_meta(cfg).into_iter().map(|(k, v)| (k.into(), v)));
    doc.push((
        "input_fingerprint".into(),
        Json::str(format!("{fingerprint:016x}")),
    ));
    doc.push((
        "rounds".into(),
        Json::obj(rec.rounds.iter().map(|(k, v)| (*k, Json::num(*v as f64)))),
    ));
    doc.push(("timed_rounds".into(), Json::num(rec.timed_rounds as f64)));
    doc.push(("setup_reps".into(), Json::num(rec.setup_reps as f64)));
    doc.push(("attempted".into(), Json::num(rec.attempted as f64)));
    doc.push(("failed".into(), Json::num(rec.failed as f64)));
    doc.push((
        "failures".into(),
        Json::obj(rec.failures.iter().map(|(k, v)| (*k, Json::num(*v as f64)))),
    ));
    doc.push(("end_to_end".into(), end_to_end_json(rec)));
    doc.push((
        "round_ms".into(),
        Json::Arr(rec.round_ms.iter().map(|v| Json::num(*v)).collect()),
    ));
    if cfg.trace {
        doc.push(("per_layer".into(), per_layer_json(rec)));
        if let Some((remainder, b)) = budget {
            doc.push(("budget_ns_per_op".into(), b.to_json(remainder)));
        }
        doc.push((
            "spans_by_name".into(),
            Json::obj(
                rec.layers
                    .span_totals
                    .iter()
                    .map(|(name, (n, total, own))| {
                        (
                            *name,
                            Json::obj([
                                ("calls", Json::num(*n as f64)),
                                ("total_ns", Json::num(*total as f64)),
                                ("self_ns", Json::num(*own as f64)),
                            ]),
                        )
                    }),
            ),
        ));
    }
    Json::Obj(doc)
}

/// The last line of standard output: the driver's record.
pub fn driver_line(cfg: &Config, rec: &RunRecord) -> Json {
    let metrics = if cfg.trace {
        per_layer_json(rec)
    } else {
        end_to_end_json(rec)
    };
    Json::obj([
        ("correct", Json::Bool(rec.failed == 0)),
        ("attempted", Json::num(rec.attempted as f64)),
        ("failed", Json::num(rec.failed as f64)),
        ("metrics", metrics),
    ])
}

/// The human-readable part: every metric by name with its unit.
pub fn print_run(workload: &str, cfg: &Config, rec: &RunRecord, budget: Option<(&str, &Budget)>) {
    let meta: Vec<String> = host_meta(cfg)
        .iter()
        .map(|(k, v)| match v {
            Json::Str(s) => format!("{k}={s}"),
            v => format!("{k}={}", v.render()),
        })
        .collect();
    println!(
        "# {workload} trace={} {}",
        u8::from(cfg.trace),
        meta.join(" ")
    );
    let rounds: Vec<String> = rec.rounds.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "# rounds: {} (timed after warm-up: {}), set-up repeated {}x",
        rounds.join(" "),
        rec.timed_rounds,
        rec.setup_reps
    );
    for (m, v) in END_TO_END.iter().zip(end_to_end_values(rec)) {
        println!("{:<42} {:>16.6} {}", m.name, v, m.unit);
    }
    if cfg.trace {
        for (m, v) in PER_LAYER.iter().zip(per_layer_values(rec)) {
            println!("{:<42} {:>16.6} {}", m.name, v, m.unit);
        }
        if let Some((remainder, b)) = budget {
            println!("# budget, ns per operation (parts + remainder = total):");
            println!("#   {:<32} {:>12.1}", "total", b.total);
            for (name, v) in &b.parts {
                println!("#   {name:<32} {v:>12.1}");
            }
            println!("#   {:<32} {:>12.1}", remainder, b.remainder());
        }
    }
    for (name, rounds) in &rec.failures {
        println!("# oracle FAILED: {name} in {rounds} round(s)");
    }
    println!(
        "# oracle: failed_ops_share = {} ({} of {} operations in rounds that failed)",
        rec.failed as f64 / rec.attempted.max(1) as f64,
        rec.failed,
        rec.attempted
    );
}

/// Write the spans kept from a traced run.
pub fn write_trace(path: &Path, rec: &RunRecord) -> std::io::Result<()> {
    let spans = Json::Arr(rec.layers.spans.iter().map(|s| s.to_json()).collect());
    std::fs::write(path, spans.render())
}
