//! The verdict engine: Theorems 1, 2 and 3 applied to a schedule.
//!
//! Each theorem gives a *sufficient* condition for a PWSR schedule to be
//! strongly correct:
//!
//! * **Theorem 1**: all transaction programs are fixed-structure
//!   (Definition 3 — a property of the *programs*, supplied here via
//!   [`ProgramTraits`]; the `pwsr-tplang` crate decides it).
//! * **Theorem 2**: the schedule is delayed-read (Definition 5).
//! * **Theorem 3**: the data access graph `DAG(S, IC)` is acyclic.
//!
//! All three additionally require the conjunct data sets to be disjoint
//! (Example 5 shows they fail otherwise) — a non-disjoint IC yields no
//! guarantees regardless of the other conditions.

use crate::constraint::IntegrityConstraint;
use crate::dag::{data_access_graph, DataAccessGraph};
use crate::dr::is_delayed_read;
use crate::pwsr::{is_pwsr, PwsrReport};
use crate::schedule::Schedule;

/// What is known about the transaction *programs* that produced the
/// schedule. The schedule alone cannot determine fixed structure — it
/// is a property of programs across *all* initial states (Definition 3)
/// — so the caller supplies it (e.g. from `pwsr-tplang`'s analyses).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProgramTraits {
    /// `Some(true)` if every generating program is fixed-structure,
    /// `Some(false)` if some is not, `None` if unknown.
    pub(crate) all_fixed_structure: Option<bool>,
}

impl ProgramTraits {
    /// Nothing known about the programs.
    pub fn unknown() -> ProgramTraits {
        ProgramTraits::default()
    }

    /// All programs are known to be fixed-structure.
    pub fn fixed_structure() -> ProgramTraits {
        ProgramTraits {
            all_fixed_structure: Some(true),
        }
    }

    /// Some program is known not to be fixed-structure.
    pub fn not_fixed_structure() -> ProgramTraits {
        ProgramTraits {
            all_fixed_structure: Some(false),
        }
    }
}

/// Which of the paper's theorems guarantees strong correctness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guarantee {
    /// Theorem 1: PWSR + fixed-structure programs.
    Theorem1FixedStructure,
    /// Theorem 2: PWSR + delayed-read schedule.
    Theorem2DelayedRead,
    /// Theorem 3: PWSR + acyclic data access graph.
    Theorem3AcyclicDag,
}

/// The combined classification of one schedule under one constraint.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Were the conjunct scopes disjoint? (Required by every theorem.)
    pub disjoint: bool,
    /// The Definition 2 check, per conjunct.
    pub pwsr: PwsrReport,
    /// Is the schedule delayed-read?
    pub dr: bool,
    /// The data access graph and its acyclicity.
    pub dag: DataAccessGraph,
    /// Every theorem whose hypotheses hold.
    pub guarantees: Vec<Guarantee>,
}

impl Verdict {
    /// Does at least one theorem apply (⇒ strongly correct)?
    pub fn strongly_correct_guaranteed(&self) -> bool {
        !self.guarantees.is_empty()
    }

    /// Is a specific guarantee present?
    pub fn has(&self, g: Guarantee) -> bool {
        self.guarantees.contains(&g)
    }
}

/// Apply Theorems 1–3 to `schedule` under `ic`, given what is known
/// about the generating programs.
pub fn classify(schedule: &Schedule, ic: &IntegrityConstraint, traits: ProgramTraits) -> Verdict {
    let disjoint = ic.is_disjoint();
    let pwsr = is_pwsr(schedule, ic);
    let dr = is_delayed_read(schedule);
    let dag = data_access_graph(schedule, ic);
    let mut guarantees = Vec::new();
    if disjoint && pwsr.ok() {
        if traits.all_fixed_structure == Some(true) {
            guarantees.push(Guarantee::Theorem1FixedStructure);
        }
        if dr {
            guarantees.push(Guarantee::Theorem2DelayedRead);
        }
        if dag.is_acyclic() {
            guarantees.push(Guarantee::Theorem3AcyclicDag);
        }
    }
    Verdict {
        disjoint,
        pwsr,
        dr,
        dag,
        guarantees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Conjunct, Formula, Term};
    use crate::ids::{ItemId, TxnId};
    use crate::op::Operation;
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn example2_ic() -> IntegrityConstraint {
        let (a, b, c) = (ItemId(0), ItemId(1), ItemId(2));
        IntegrityConstraint::new(vec![
            Conjunct::new(
                0,
                Formula::implies(
                    Formula::gt(Term::var(a), Term::int(0)),
                    Formula::gt(Term::var(b), Term::int(0)),
                ),
            ),
            Conjunct::new(1, Formula::gt(Term::var(c), Term::int(0))),
        ])
        .unwrap()
    }

    fn example2_schedule() -> Schedule {
        Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ])
        .unwrap()
    }

    #[test]
    fn example2_gets_no_guarantee() {
        // PWSR holds, but: programs are not fixed-structure, the
        // schedule is not DR, and the DAG is cyclic — every theorem's
        // hypothesis fails, consistent with the observed violation.
        let ic = example2_ic();
        let v = classify(
            &example2_schedule(),
            &ic,
            ProgramTraits::not_fixed_structure(),
        );
        assert!(v.disjoint);
        assert!(v.pwsr.ok());
        assert!(!v.dr);
        assert!(!v.dag.is_acyclic());
        assert!(!v.strongly_correct_guaranteed());
    }

    #[test]
    fn dr_schedule_gets_theorem2() {
        let ic = example2_ic();
        // Serial execution: trivially DR and PWSR.
        let s = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 1), rd(2, 1, 1), wr(2, 2, 1)]).unwrap();
        let v = classify(&s, &ic, ProgramTraits::unknown());
        assert!(v.dr);
        assert!(v.has(Guarantee::Theorem2DelayedRead));
        assert!(v.strongly_correct_guaranteed());
        // Unknown program structure ⇒ no Theorem 1 claim.
        assert!(!v.has(Guarantee::Theorem1FixedStructure));
    }

    #[test]
    fn fixed_structure_gets_theorem1() {
        let ic = example2_ic();
        let s = Schedule::new(vec![wr(1, 0, 1), rd(2, 1, 1)]).unwrap();
        let v = classify(&s, &ic, ProgramTraits::fixed_structure());
        assert!(v.has(Guarantee::Theorem1FixedStructure));
    }

    #[test]
    fn acyclic_dag_gets_theorem3() {
        let ic = example2_ic();
        // Both txns read d1, write d2: single DAG edge, acyclic.
        let s = Schedule::new(vec![rd(1, 0, 0), wr(1, 2, 1), rd(2, 1, 0), wr(2, 2, 2)]).unwrap();
        let v = classify(&s, &ic, ProgramTraits::unknown());
        assert!(v.dag.is_acyclic());
        assert!(v.has(Guarantee::Theorem3AcyclicDag));
    }

    #[test]
    fn non_pwsr_gets_nothing() {
        let ic = example2_ic();
        // Cycle within conjunct 0.
        let s = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)]).unwrap();
        let v = classify(&s, &ic, ProgramTraits::fixed_structure());
        assert!(!v.pwsr.ok());
        assert!(!v.strongly_correct_guaranteed());
    }

    #[test]
    fn overlapping_conjuncts_get_nothing() {
        // Example 5's lesson: non-disjoint conjuncts void every theorem,
        // even for DR schedules with acyclic DAGs and fixed programs.
        let (a, b, c) = (ItemId(0), ItemId(1), ItemId(2));
        let ic = IntegrityConstraint::new_unchecked(vec![
            Conjunct::new(0, Formula::gt(Term::var(a), Term::var(b))),
            Conjunct::new(1, Formula::eq(Term::var(a), Term::var(c))),
        ])
        .unwrap();
        assert!(!ic.is_disjoint());
        let s = Schedule::new(vec![rd(1, 0, 10), wr(1, 1, 0)]).unwrap();
        let v = classify(&s, &ic, ProgramTraits::fixed_structure());
        assert!(v.pwsr.ok() && v.dr && v.dag.is_acyclic());
        assert!(!v.strongly_correct_guaranteed());
    }
}
