//! MON-3: the OCC-certified threaded executor — commits, aborts and
//! retries at 1/2/4/8 worker threads, every committed schedule
//! read-coherent, at or above the admission floor, and verdict-identical
//! to a single-writer replay.
//!
//! The monitors' own parity checks live beside the monitors, as
//! properties run in tier-1: the online verdict against batch
//! re-verification at every prefix (`monitor_props`), the sharded
//! pipeline's threaded `push` and `push_batch` against a single-writer
//! replay (`sharded_props`, `batch_props`), and retraction round-trips
//! against a fresh replay (`sharded_props`, `retract_props`). What any
//! path costs is `benchmark/`'s question, not this module's.

use crate::report::Table;
use pwsr_core::monitor::{OnlineMonitor, Verdict};
use pwsr_core::schedule::Schedule;
use pwsr_core::state::ItemSet;
use pwsr_gen::workloads::{random_workload, Workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A workload sized to produce a schedule of roughly `target_ops`
/// operations.
fn sized_workload(rng: &mut StdRng, target_ops: usize, conjuncts: usize) -> Workload {
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

/// Thread counts MON-3 runs at.
const MT_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The host's `available_parallelism`, printed in the table's title:
/// what interleavings a run can reach (and so what its parity column
/// has been tested against) depends on it.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The final verdict of a single-writer [`OnlineMonitor`] replay of a
/// recorded interleaving.
fn single_writer_replay(scopes: &[ItemSet], recorded: &Schedule) -> Verdict {
    let mut replay = OnlineMonitor::new(scopes.to_vec());
    let mut last = replay.verdict();
    for op in recorded.ops() {
        last = replay.push(op.clone()).expect("recorded schedule is valid");
    }
    last
}

/// MON-3: the OCC-certified threaded executor
/// ([`run_threaded_occ_tuned`]) at 1/2/4/8 worker threads over an
/// ~800-op, 2-conjunct workload. Shape checks, on every one of `trials`
/// repetitions (0 = 5): the committed schedule is read-coherent, lands
/// at or above the `Pwsr` admission floor, and its verdict is
/// byte-identical to a single-writer replay — the `floor+parity`
/// column names the first of these a thread count failed (`run_error`,
/// `read_coherence`, `verdict_not_pwsr`, `verdict_len`,
/// `replay_parity`). Abort and retry counts (summed over the
/// repetitions) are recorded, not asserted — they are a property of
/// the host's interleavings.
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
    let mut rng = StdRng::seed_from_u64(seed);
    let w = sized_workload(&mut rng, 800, 2);
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
            let failed = if out.schedule.check_read_coherence(&w.initial).is_err() {
                Some("read_coherence")
            } else if out.verdict.len != out.schedule.len() {
                Some("verdict_len")
            } else if single_writer_replay(&spec.scopes, &out.schedule) != out.verdict {
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
    (ok, format!("{}{witnesses}", t.render()))
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

    /// MON-3 shape: floor compliance and replay parity at every thread
    /// count.
    #[test]
    fn mon3_occ_certified_runs_pin_to_single_writer() {
        let (ok, text) = mon3(1, 902);
        assert!(ok, "{text}");
    }
}
