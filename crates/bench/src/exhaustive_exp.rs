//! EXH-1: exhaustive model-checking of the theorems on a finite
//! universe.
//!
//! Statistical validation (THM-1/2/3) samples; this experiment *proves
//! by enumeration*. Over Example 2's programs with domains narrowed to
//! `[-2, 2]`: every consistent initial state × every interleaving of
//! the two programs is executed and checked. The verified claims:
//!
//! * every execution where PWSR holds **and** some theorem hypothesis
//!   holds (DR, acyclic DAG — fixed structure is false for TP1) is
//!   strongly correct — *no exceptions*;
//! * violations exist, and **every** violation is a PWSR-or-worse
//!   execution with *all three* hypotheses false;
//! * swapping TP1 for the repaired TP1′ (fixed-structure) eliminates
//!   every violation among PWSR executions across the whole universe.

use crate::report::Table;
use pwsr_core::catalog::Catalog;
use pwsr_core::dag::data_access_graph;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::pwsr::is_pwsr;
use pwsr_core::solver::Solver;
use pwsr_core::strong::check_strong_correctness;
use pwsr_core::value::Domain;
use pwsr_gen::chaos::enumerate_executions;
use pwsr_tplang::analysis::static_structure;
use pwsr_tplang::programs::{example2, example2_with_tp1_prime};

/// Tallies from one exhaustive sweep.
#[derive(Clone, Debug, Default)]
pub(crate) struct ExhaustiveOutcome {
    /// Consistent initial states enumerated.
    pub(crate) states: u64,
    /// Total executions checked.
    pub(crate) executions: u64,
    /// Executions that were PWSR.
    pub(crate) pwsr: u64,
    /// Strong-correctness violations found.
    pub(crate) violations: u64,
    /// PWSR executions with ≥ 1 theorem hypothesis that were violated
    /// (**must be 0** — this is the theorems' claim).
    pub(crate) covered_violations: u64,
    /// Violations whose three hypotheses were all false (must equal
    /// `violations`).
    pub(crate) uncovered_violations: u64,
}

fn narrowed_catalog(catalog: &Catalog) -> Catalog {
    let mut out = Catalog::new();
    for item in catalog.items() {
        out.add_item(catalog.name(item), Domain::int_range(-2, 2));
    }
    out
}

fn sweep(
    programs: &[pwsr_tplang::ast::Program],
    base: &pwsr_tplang::programs::PaperScenario,
) -> ExhaustiveOutcome {
    let catalog = narrowed_catalog(&base.catalog);
    let solver = Solver::new(&catalog, &base.ic);
    let all_fixed = programs
        .iter()
        .all(|p| static_structure(p, &catalog).is_fixed());
    let mut out = ExhaustiveOutcome::default();
    for initial in solver.enumerate_consistent(100_000) {
        out.states += 1;
        let Ok(Some(executions)) = enumerate_executions(programs, &catalog, &initial, 100_000)
        else {
            continue;
        };
        for s in executions {
            out.executions += 1;
            let pwsr = is_pwsr(&s, &base.ic).ok();
            out.pwsr += u64::from(pwsr);
            let violated = check_strong_correctness(&s, &solver, &initial).violation();
            if !violated {
                continue;
            }
            out.violations += 1;
            let hypothesis = pwsr
                && (all_fixed
                    || is_delayed_read(&s)
                    || data_access_graph(&s, &base.ic).is_acyclic());
            if hypothesis {
                out.covered_violations += 1;
            } else {
                out.uncovered_violations += 1;
            }
        }
    }
    out
}

/// Run the exhaustive sweep for the original and repaired program pair.
pub fn exh1() -> (bool, String) {
    let base = example2();
    let orig = sweep(&base.programs, &base);
    let prime_sc = example2_with_tp1_prime();
    let repaired = sweep(&prime_sc.programs, &base);

    // The original pair: violations exist, none covered by a theorem.
    let ok_orig = orig.violations > 0
        && orig.covered_violations == 0
        && orig.uncovered_violations == orig.violations;
    // The repaired pair is all-fixed: every PWSR execution is covered
    // by Theorem 1, so zero violations anywhere PWSR holds. (Non-PWSR
    // interleavings may still violate — the theorems say nothing about
    // them, and e.g. a dirty read of `a` between TP1′'s two writes is
    // a genuine inconsistent read.)
    let ok_rep =
        repaired.covered_violations == 0 && repaired.uncovered_violations == repaired.violations;
    let ok = ok_orig && ok_rep && orig.states > 0;

    let mut t = Table::new(
        "EXH-1  Exhaustive model-check (domains [-2,2], all states × all interleavings)",
        &[
            "program pair",
            "states",
            "executions",
            "PWSR",
            "violations",
            "covered violations",
        ],
    );
    t.row(&[
        "TP1, TP2 (original)".into(),
        orig.states.to_string(),
        orig.executions.to_string(),
        orig.pwsr.to_string(),
        orig.violations.to_string(),
        format!("{} (must be 0)", orig.covered_violations),
    ]);
    t.row(&[
        "TP1', TP2 (repaired)".into(),
        repaired.states.to_string(),
        repaired.executions.to_string(),
        repaired.pwsr.to_string(),
        repaired.violations.to_string(),
        format!("{} (must be 0)", repaired.covered_violations),
    ]);
    (ok, t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_model_check_holds() {
        let (ok, text) = exh1();
        assert!(ok, "{text}");
    }
}
