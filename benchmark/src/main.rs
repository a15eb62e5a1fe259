//! Command line of the repository benchmark.
//!
//! ```text
//! pwsr_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run prints every metric by name with its unit and, as the last
//! line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; it writes its full
//! record to `benchmark/out/`. The exit status is non-zero only when
//! the harness itself breaks (bad arguments, an unwritable scratch
//! directory): a round that fails the oracle is counted into `failed`,
//! named in the output, and the run goes on.

use std::path::PathBuf;
use std::process::ExitCode;

use pwsr_benchmark::gen::Size;
use pwsr_benchmark::harness::{default_workers, Config};
use pwsr_benchmark::metrics::WORKLOADS;
use pwsr_benchmark::{report, run_workload};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// The rounds a run of `seconds` seconds makes: as many as the 2-core
/// reference host completes in that time, oracle included. A count
/// fixed by the arguments, not a stopwatch, so that both sides of a
/// comparison take the same samples; at the default 15 s every
/// workload keeps ≥ 150 timed rounds after warm-up.
fn rounds_for(workload: &str, seconds: f64) -> usize {
    let per_second = match workload {
        "occ_hot" => 30.0,
        "occ_durable" => 15.0,
        "stream_local" => 16.0,
        "stream_cross" => 13.0,
        _ => 12.0,
    };
    ((seconds * per_second).round() as usize).max(1)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pwsr_benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => {
                value.parse().map(|v| seconds = v).is_ok() && seconds > 0.0 && seconds <= 3600.0
            }
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage();
    };
    let cfg = Config {
        seed,
        rounds: rounds_for(&workload, seconds),
        trace,
        workers: default_workers(),
        size: Size::Full,
        out_dir: PathBuf::from("benchmark/out"),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }
    let done = run_workload(&workload, &cfg).expect("workload name was checked");
    let budget = done.budget.as_ref().map(|(name, b)| (*name, b));
    report::print_run(&workload, &cfg, &done.record, budget);
    let tag = format!("{workload}-t{}", u8::from(trace));
    let doc = report::run_json(&workload, &cfg, &done.record, done.fingerprint, budget);
    let written = std::fs::write(cfg.out_dir.join(format!("run-{tag}.json")), doc.render())
        .and_then(|()| {
            if trace {
                let path = cfg.out_dir.join(format!("trace-{workload}.json"));
                report::write_trace(&path, &done.record)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("cannot write under {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }
    println!("{}", report::driver_line(&cfg, &done.record).render());
    ExitCode::SUCCESS
}
