//! One-call diagnosis: everything the toolkit knows about a schedule.
//!
//! [`diagnose`] runs the complete checker pipeline — serializability,
//! PWSR, recovery class, data access graph, setwise baseline, theorem
//! guarantees, optional fixed-structure analysis of the generating
//! programs and optional strong-correctness verification against an
//! initial state — and renders a human-readable report. This is the
//! "Elle-style" entry point for users who just have a history and want
//! to know what holds.

use pwsr_baselines::setwise::{is_setwise_serializable, AtomicDataSets};
use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::IntegrityConstraint;
use pwsr_core::dr::{classify_recovery, RecoveryClass};
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::is_conflict_serializable;
use pwsr_core::solver::Solver;
use pwsr_core::state::DbState;
use pwsr_core::strong::{check_strong_correctness, StrongReport};
use pwsr_core::theorems::{classify, Guarantee, ProgramTraits, Verdict};
use pwsr_tplang::analysis::static_structure;
use pwsr_tplang::ast::Program;
use std::fmt;

/// The combined analysis of one schedule.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// Is the schedule conflict-serializable outright?
    pub serializable: bool,
    /// PWSR / DR / DAG / theorem-guarantee verdict.
    pub verdict: Verdict,
    /// Recovery classification (strict / ACA / DR / unrestricted).
    pub(crate) recovery: RecoveryClass,
    /// Setwise serializability over conjunct-aligned atomic data sets
    /// (`None` when conjuncts overlap, since \[14\] requires disjoint
    /// sets).
    pub(crate) setwise: Option<bool>,
    /// Per-program fixed-structure verdicts, when programs were given.
    pub(crate) program_fixedness: Option<Vec<(String, bool)>>,
    /// Strong correctness of this execution, when an initial state was
    /// given.
    pub(crate) strong: Option<StrongReport>,
}

impl Diagnosis {
    /// Is strong correctness established? When an initial state was
    /// given, the concrete verification is authoritative (the theorem
    /// guarantees presuppose *correct* transaction programs — §2.3 —
    /// which a raw schedule cannot promise); otherwise fall back to the
    /// theorem guarantees.
    pub fn correct(&self) -> bool {
        match &self.strong {
            Some(report) => report.ok(),
            None => self.verdict.strongly_correct_guaranteed(),
        }
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let yn = |b: bool| if b { "yes" } else { "no" };
        writeln!(f, "conflict-serializable : {}", yn(self.serializable))?;
        writeln!(f, "PWSR                  : {}", yn(self.verdict.pwsr.ok()))?;
        for cv in &self.verdict.pwsr.per_conjunct {
            match (&cv.order, &cv.cycle) {
                (Some(order), _) => {
                    let names: Vec<String> = order.iter().map(|t| t.to_string()).collect();
                    writeln!(f, "  {} serializable: {}", cv.conjunct, names.join(" → "))?;
                }
                (None, Some(cycle)) => {
                    let names: Vec<String> = cycle.iter().map(|t| t.to_string()).collect();
                    writeln!(f, "  {} CYCLE: {}", cv.conjunct, names.join(" → "))?;
                }
                (None, None) => writeln!(f, "  {} not serializable", cv.conjunct)?,
            }
        }
        writeln!(f, "delayed-read          : {}", yn(self.verdict.dr))?;
        writeln!(f, "recovery class        : {:?}", self.recovery)?;
        writeln!(
            f,
            "DAG(S, IC) acyclic    : {}",
            yn(self.verdict.dag.is_acyclic())
        )?;
        if let Some(sw) = self.setwise {
            writeln!(f, "setwise-SR [14]       : {}", yn(sw))?;
        }
        if let Some(fx) = &self.program_fixedness {
            for (name, fixed) in fx {
                writeln!(f, "  program {name}: fixed-structure = {}", yn(*fixed))?;
            }
        }
        let gs: Vec<&str> = self
            .verdict
            .guarantees
            .iter()
            .map(|g| match g {
                Guarantee::Theorem1FixedStructure => "Theorem 1 (fixed structure)",
                Guarantee::Theorem2DelayedRead => "Theorem 2 (delayed read)",
                Guarantee::Theorem3AcyclicDag => "Theorem 3 (acyclic DAG)",
            })
            .collect();
        writeln!(
            f,
            "guarantees            : {}",
            if gs.is_empty() {
                "none".to_owned()
            } else {
                gs.join(", ")
            }
        )?;
        if let Some(strong) = &self.strong {
            writeln!(f, "strongly correct here : {}", yn(strong.ok()))?;
            if strong.violation() {
                let bad: Vec<String> = strong
                    .inconsistent_readers()
                    .iter()
                    .map(|t| t.to_string())
                    .collect();
                writeln!(
                    f,
                    "  VIOLATION — final consistent: {}, inconsistent readers: [{}]",
                    yn(strong.final_consistent),
                    bad.join(", ")
                )?;
            }
        }
        Ok(())
    }
}

/// Run the full pipeline. `programs` (when given) are analyzed for
/// fixed structure and feed Theorem 1; `initial` (when given) enables
/// the concrete strong-correctness check.
pub fn diagnose(
    schedule: &Schedule,
    ic: &IntegrityConstraint,
    catalog: &Catalog,
    programs: Option<&[Program]>,
    initial: Option<&DbState>,
) -> Diagnosis {
    let program_fixedness = programs.map(|ps| {
        ps.iter()
            .map(|p| (p.name.clone(), static_structure(p, catalog).is_fixed()))
            .collect::<Vec<_>>()
    });
    let traits = match &program_fixedness {
        Some(fx) => {
            if fx.iter().all(|(_, fixed)| *fixed) {
                ProgramTraits::fixed_structure()
            } else {
                ProgramTraits::not_fixed_structure()
            }
        }
        None => ProgramTraits::unknown(),
    };
    let verdict = classify(schedule, ic, traits);
    let setwise = AtomicDataSets::from_constraint(ic)
        .ok()
        .map(|ads| is_setwise_serializable(schedule, &ads));
    let strong = initial.map(|ds| {
        let solver = Solver::new(catalog, ic);
        check_strong_correctness(schedule, &solver, ds)
    });
    Diagnosis {
        serializable: is_conflict_serializable(schedule),
        verdict,
        recovery: classify_recovery(schedule),
        setwise,
        program_fixedness,
        strong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_tplang::programs::{example2, example5};

    #[test]
    fn diagnose_example2_tells_the_whole_story() {
        let sc = example2();
        let s = sc.schedule.as_ref().unwrap();
        let d = diagnose(
            s,
            &sc.ic,
            &sc.catalog,
            Some(&sc.programs),
            Some(&sc.initial),
        );
        assert!(!d.serializable);
        assert!(d.verdict.pwsr.ok());
        assert!(!d.verdict.dr);
        assert_eq!(d.setwise, Some(true));
        assert!(!d.correct());
        let text = d.to_string();
        assert!(text.contains("PWSR                  : yes"), "{text}");
        assert!(text.contains("VIOLATION"), "{text}");
        assert!(text.contains("fixed-structure = no"), "{text}");
    }

    #[test]
    fn diagnose_example5_reports_overlap_effects() {
        let sc = example5();
        let s = sc.schedule.as_ref().unwrap();
        let d = diagnose(
            s,
            &sc.ic,
            &sc.catalog,
            Some(&sc.programs),
            Some(&sc.initial),
        );
        // Overlapping conjuncts: no setwise verdict, no guarantees.
        assert_eq!(d.setwise, None);
        assert!(d.verdict.guarantees.is_empty());
        assert!(!d.correct());
        // All programs individually fixed.
        assert!(d
            .program_fixedness
            .as_ref()
            .unwrap()
            .iter()
            .all(|(_, f)| *f));
    }

    #[test]
    fn diagnose_without_optional_inputs() {
        let sc = example2();
        let s = sc.schedule.as_ref().unwrap();
        let d = diagnose(s, &sc.ic, &sc.catalog, None, None);
        assert!(d.strong.is_none());
        assert!(d.program_fixedness.is_none());
        // Unknown programs ⇒ no Theorem 1; non-DR + cyclic DAG ⇒ none.
        assert!(!d.correct());
        let text = d.to_string();
        assert!(text.contains("guarantees            : none"));
    }

    #[test]
    fn diagnose_guaranteed_case() {
        use pwsr_core::ids::TxnId;
        use pwsr_core::op::Operation;
        use pwsr_core::value::Value;
        let sc = example2();
        let a = sc.catalog.lookup("a").unwrap();
        // A trivially serial, DR schedule.
        let s = Schedule::new(vec![
            Operation::read(TxnId(1), a, Value::Int(-1)),
            Operation::write(TxnId(2), a, Value::Int(1)),
        ])
        .unwrap();
        let d = diagnose(&s, &sc.ic, &sc.catalog, None, Some(&sc.initial));
        // DR + PWSR ⇒ Theorem 2's hypotheses hold…
        assert!(d.verdict.strongly_correct_guaranteed());
        // …but the theorems presuppose *correct* programs (§2.3), and
        // this raw write (a := 1 with b = −1) is not one: the concrete
        // check is authoritative and flags the violation.
        assert!(!d.strong.as_ref().unwrap().ok());
        assert!(!d.correct());
    }
}
