//! # pwsr_benchmark — the repository benchmark
//!
//! Five named workloads over the certified execution path, two
//! end-to-end metrics, and an outside-in layer budget. See README.md
//! for the tables; `BENCHMARK.json` at the repository root is the
//! machine-readable contract.
//!
//! Layers are measured from outside: by timing calls into their public
//! functions and by replaying an executor's committed output through
//! each layer on its own. Nothing under `crates/` is instrumented.

pub mod gen;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use harness::{Config, Layers, RunRecord, Workload};
use trace::Budget;
use workloads::{occ::Occ, recover::Recover, stream::Stream};

/// A finished run: the record plus what names its input and budget.
pub struct Finished {
    pub record: RunRecord,
    pub fingerprint: u64,
    /// The additive budget of a traced run and the name of its
    /// remainder, where the workload has one.
    pub budget: Option<(&'static str, Budget)>,
}

/// Set up (many times over, for `setup_s`) and run one workload.
/// `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &Config) -> Option<Finished> {
    if !metrics::WORKLOADS.contains(&name) {
        return None;
    }
    let mut build = |layers: &mut Layers| -> Box<dyn Workload> {
        match name {
            "occ_hot" => Box::new(Occ::build(cfg, false, layers)),
            "occ_durable" => Box::new(Occ::build(cfg, true, layers)),
            "stream_local" => Box::new(Stream::build(cfg, false, layers)),
            "stream_cross" => Box::new(Stream::build(cfg, true, layers)),
            _ => Box::new(Recover::build(cfg, layers)),
        }
    };
    let (record, w) = harness::run(cfg, &mut build);
    let fingerprint = w.fingerprint();
    let budget = if cfg.trace {
        w.budget(&record.layers)
    } else {
        None
    };
    Some(Finished {
        record,
        fingerprint,
        budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_workload_is_refused_before_anything_runs() {
        let cfg = Config {
            seed: 1,
            rounds: 1,
            trace: false,
            workers: 1,
            size: gen::Size::Tiny,
            // Never created: nothing may run for an unknown name.
            out_dir: "/nonexistent/pwsr_benchmark".into(),
        };
        assert!(run_workload("occ_cold", &cfg).is_none());
    }
}
