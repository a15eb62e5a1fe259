//! THM-1 / THM-2 / THM-3: randomized validation of the theorems.
//!
//! For each theorem, two sampling arms over random executions:
//!
//! * **positive** — executions satisfying the theorem's hypotheses
//!   (PWSR + fixed-structure / DR / acyclic DAG, disjoint conjuncts):
//!   strong correctness must hold on **every** one;
//! * **control** — executions that are PWSR but *drop* the hypothesis:
//!   violations are expected, and a guaranteed witness (the Example-2
//!   gadget under its adversarial interleaving) is verified explicitly.
//!
//! A third arm runs the *scheduler*: policies whose outputs carry the
//! hypothesis by construction (PW-2PL hold-to-end ⇒ DR) must also be
//! violation-free.

use crate::report::Table;
use pwsr_core::dag::data_access_graph;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::pwsr::is_pwsr;
use pwsr_core::solver::Solver;
use pwsr_core::strong::check_strong_correctness;
use pwsr_gen::chaos::{execute_with_picks, random_execution};
use pwsr_gen::gadgets::violating_picks;
use pwsr_gen::workloads::{random_workload, Workload, WorkloadConfig};
use pwsr_scheduler::exec::{run_workload, ExecConfig};
use pwsr_scheduler::policy::PolicySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counters for one theorem experiment.
#[derive(Default)]
struct TheoremOutcome {
    /// Positive-arm executions satisfying all hypotheses.
    qualifying: u64,
    /// Positive-arm strong-correctness failures (must be 0).
    violations: u64,
    /// Control-arm executions (PWSR, hypothesis dropped).
    control_qualifying: u64,
    /// Control-arm violations (expected > 0 overall).
    control_violations: u64,
    /// Scheduler-arm runs.
    scheduler_runs: u64,
    /// Scheduler-arm violations (must be 0).
    scheduler_violations: u64,
    /// Was the guaranteed gadget witness confirmed?
    witness_confirmed: bool,
}

impl TheoremOutcome {
    /// The theorem's prediction holds: clean positive & scheduler arms,
    /// and the control arm produced at least one witness.
    fn matches_paper(&self) -> bool {
        self.violations == 0
            && self.scheduler_violations == 0
            && self.qualifying > 0
            && self.witness_confirmed
    }
}

fn strong_violation(w: &Workload, s: &pwsr_core::schedule::Schedule) -> bool {
    let solver = Solver::new(&w.catalog, &w.ic);
    check_strong_correctness(s, &solver, &w.initial).violation()
}

/// The gadget witness: a PWSR execution of an Example-2 workload under
/// the paper's interleaving, violating consistency while (non-fixed /
/// non-DR / cyclic-DAG) as required. Returns whether it behaves as the
/// paper says.
fn gadget_witness(rng: &mut StdRng) -> bool {
    let w = random_workload(
        rng,
        &WorkloadConfig {
            conjuncts: 1,
            items_per_conjunct: 2,
            n_background: 0,
            gadgets: 1,
            ..WorkloadConfig::default()
        },
    );
    let (t1, t2) = w.gadget_txns[0];
    let Ok(s) = execute_with_picks(
        &w.programs,
        &w.catalog,
        &w.initial,
        &violating_picks(t1, t2),
    ) else {
        return false;
    };
    is_pwsr(&s, &w.ic).ok()
        && !is_delayed_read(&s)
        && !data_access_graph(&s, &w.ic).is_acyclic()
        && !w.all_fixed_structure
        && strong_violation(&w, &s)
}

/// Run one theorem experiment. `which` ∈ {1, 2, 3}. Shape: clean
/// positive and scheduler arms, at least one qualifying execution, and
/// the gadget witness confirmed.
pub fn theorem(which: u8, trials: u64, execs_per_trial: u64, seed: u64) -> (bool, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = TheoremOutcome::default();

    // Positive + control sampling.
    for trial in 0..trials {
        // Theorem 1 alternates all-fixed workloads (positive arm) with
        // gadget-bearing non-fixed ones (control arm); the other
        // theorems sample mixed workloads (with occasional gadgets, so
        // non-DR / cyclic executions appear for the control arm).
        let positive_trial = trial % 2 == 0;
        let cfg = WorkloadConfig {
            conjuncts: 2,
            items_per_conjunct: 2,
            n_background: 3,
            cross_read_prob: 0.6,
            fixed_only: which == 1 && positive_trial,
            gadgets: usize::from(!positive_trial || which != 1),
            domain_width: 50,
        };
        let w = random_workload(&mut rng, &cfg);
        for _ in 0..execs_per_trial {
            let Ok(s) = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng) else {
                continue;
            };
            if !is_pwsr(&s, &w.ic).ok() || !w.ic.is_disjoint() {
                continue;
            }
            let hypothesis = match which {
                1 => w.all_fixed_structure,
                2 => is_delayed_read(&s),
                3 => data_access_graph(&s, &w.ic).is_acyclic(),
                _ => unreachable!("theorems are numbered 1..=3"),
            };
            let violated = strong_violation(&w, &s);
            if hypothesis {
                out.qualifying += 1;
                out.violations += u64::from(violated);
            } else {
                out.control_qualifying += 1;
                out.control_violations += u64::from(violated);
            }
        }
    }

    // Control witness: the gadget always violates under its picks.
    out.witness_confirmed = gadget_witness(&mut rng);

    // Scheduler arm: a policy that carries the hypothesis by
    // construction.
    for seed2 in 0..trials.min(20) {
        let cfg = WorkloadConfig {
            conjuncts: 2,
            items_per_conjunct: 2,
            n_background: 4,
            cross_read_prob: 0.5,
            fixed_only: which == 1,
            gadgets: 0,
            domain_width: 50,
        };
        let w = random_workload(&mut rng, &cfg);
        let policy = match which {
            1 => PolicySpec::predicate_wise_2pl_early(&w.ic),
            2 => PolicySpec::predicate_wise_2pl_early(&w.ic).dr_blocking(),
            _ => PolicySpec::predicate_wise_2pl(&w.ic),
        };
        let exec_cfg = ExecConfig {
            seed: seed2,
            ..ExecConfig::default()
        };
        let Ok(run) = run_workload(&w.programs, &w.catalog, &w.initial, &policy, &exec_cfg) else {
            continue;
        };
        // Check that the policy delivered the hypothesis it promises.
        let hypothesis = match which {
            1 => w.all_fixed_structure && is_pwsr(&run.schedule, &w.ic).ok(),
            2 => is_delayed_read(&run.schedule) && is_pwsr(&run.schedule, &w.ic).ok(),
            3 => is_pwsr(&run.schedule, &w.ic).ok(),
            _ => unreachable!(),
        };
        if !hypothesis {
            continue;
        }
        out.scheduler_runs += 1;
        out.scheduler_violations += u64::from(strong_violation(&w, &run.schedule));
    }

    let hyp_name = match which {
        1 => "fixed-structure programs",
        2 => "delayed-read schedule",
        3 => "acyclic DAG(S, IC)",
        _ => unreachable!(),
    };
    let mut t = Table::new(
        &format!("THM-{which}  PWSR + {hyp_name} ⇒ strongly correct"),
        &["arm", "executions", "violations", "as paper predicts"],
    );
    t.row(&[
        "positive (hypotheses hold)".into(),
        out.qualifying.to_string(),
        out.violations.to_string(),
        (out.violations == 0).to_string(),
    ]);
    t.row(&[
        "control (hypothesis dropped)".into(),
        out.control_qualifying.to_string(),
        out.control_violations.to_string(),
        "violations expected".into(),
    ]);
    t.row(&[
        "gadget witness (guaranteed violation)".into(),
        "1".into(),
        u64::from(out.witness_confirmed).to_string(),
        out.witness_confirmed.to_string(),
    ]);
    t.row(&[
        "scheduler (policy ⇒ hypothesis)".into(),
        out.scheduler_runs.to_string(),
        out.scheduler_violations.to_string(),
        (out.scheduler_violations == 0).to_string(),
    ]);
    (out.matches_paper(), t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thm1_matches_paper() {
        let (ok, text) = theorem(1, 12, 6, 101);
        assert!(ok, "{text}");
    }

    #[test]
    fn thm2_matches_paper() {
        let (ok, text) = theorem(2, 12, 6, 102);
        assert!(ok, "{text}");
    }

    #[test]
    fn thm3_matches_paper() {
        let (ok, text) = theorem(3, 12, 6, 103);
        assert!(ok, "{text}");
    }

    #[test]
    fn gadget_witness_is_reliable() {
        let mut rng = StdRng::seed_from_u64(999);
        for _ in 0..5 {
            assert!(gadget_witness(&mut rng));
        }
    }
}
