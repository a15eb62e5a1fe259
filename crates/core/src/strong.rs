//! Strong correctness (Definition 1).
//!
//! *"A schedule S is strongly correct iff (i) for all consistent
//! database states DS₁, if `[DS₁] S [DS₂]` then DS₂ is consistent, and
//! (ii) for all transactions T_i ∈ τ_S, read(T_i) is consistent."*
//!
//! A *recorded* schedule bakes in the values of one particular execution
//! — so this module checks strong correctness **of that execution**:
//! from the provided (consistent) initial state, is the final state
//! consistent and does every transaction read a consistent restriction?
//! The universally-quantified form is obtained by re-running transaction
//! programs from many initial states, which the `pwsr-tplang` /
//! `pwsr-gen` crates drive through this checker.

use crate::ids::TxnId;
use crate::schedule::Schedule;
use crate::solver::Solver;
use crate::state::DbState;

/// Outcome of the strong-correctness check for one execution.
#[derive(Clone, Debug)]
pub struct StrongReport {
    /// Was the supplied initial state consistent? (A precondition —
    /// Definition 1 quantifies over consistent initial states only.)
    pub initial_consistent: bool,
    /// Did every read in the schedule return the value actually current
    /// at its position (i.e. is this a real execution from `initial`)?
    pub read_coherent: bool,
    /// Is the final state `DS₂` consistent?
    pub final_consistent: bool,
    /// Per transaction: is `read(T_i)` consistent (as a restriction,
    /// i.e. extensible to a consistent total state)?
    pub(crate) txn_reads: Vec<(TxnId, bool)>,
}

impl StrongReport {
    /// Definition 1's conjunction: consistent final state and all
    /// transaction reads consistent. Only meaningful when the inputs
    /// were valid (`initial_consistent && read_coherent`).
    pub fn ok(&self) -> bool {
        self.initial_consistent
            && self.read_coherent
            && self.final_consistent
            && self.txn_reads.iter().all(|(_, ok)| *ok)
    }

    /// The transactions that read inconsistent data, if any.
    pub fn inconsistent_readers(&self) -> Vec<TxnId> {
        self.txn_reads
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(t, _)| *t)
            .collect()
    }

    /// Did the check fail *because* of the execution (rather than a bad
    /// input)? True when inputs were valid but correctness failed.
    pub fn violation(&self) -> bool {
        self.initial_consistent && self.read_coherent && !self.ok()
    }
}

/// Check strong correctness of the execution recorded in `schedule`,
/// starting from `initial`.
pub fn check_strong_correctness(
    schedule: &Schedule,
    solver: &Solver<'_>,
    initial: &DbState,
) -> StrongReport {
    let initial_consistent = solver.is_consistent(initial);
    let read_coherent = schedule.check_read_coherence(initial).is_ok();
    let final_state = schedule.apply(initial);
    let final_consistent = solver.is_consistent(&final_state);
    let txn_reads = schedule
        .txn_ids()
        .iter()
        .map(|&t| {
            let reads = schedule.transaction(t).read_state();
            (t, solver.is_consistent(&reads))
        })
        .collect();
    StrongReport {
        initial_consistent,
        read_coherent,
        final_consistent,
        txn_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
    use crate::ids::ItemId;
    use crate::op::Operation;
    use crate::value::{Domain, Value};

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    /// Example 2 setup: D = {a,b,c}, IC = (a>0 → b>0) ∧ (c>0),
    /// initial state (−1, −1, 1).
    fn example2() -> (Catalog, IntegrityConstraint, DbState) {
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(-10, 10));
        let b = cat.add_item("b", Domain::int_range(-10, 10));
        let c = cat.add_item("c", Domain::int_range(-10, 10));
        let ic = IntegrityConstraint::new(vec![
            Conjunct::new(
                0,
                Formula::implies(
                    Formula::gt(Term::var(a), Term::int(0)),
                    Formula::gt(Term::var(b), Term::int(0)),
                ),
            ),
            Conjunct::new(1, Formula::gt(Term::var(c), Term::int(0))),
        ])
        .unwrap();
        let initial =
            DbState::from_pairs([(a, Value::Int(-1)), (b, Value::Int(-1)), (c, Value::Int(1))]);
        (cat, ic, initial)
    }

    #[test]
    fn example2_violates_strong_correctness() {
        // The paper's flagship counterexample: the schedule is PWSR but
        // drives the database to {(a,1),(b,−1),(c,−1)} — inconsistent.
        let (cat, ic, initial) = example2();
        let solver = Solver::new(&cat, &ic);
        let s = Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ])
        .unwrap();
        let report = check_strong_correctness(&s, &solver, &initial);
        assert!(report.initial_consistent);
        assert!(report.read_coherent);
        assert!(!report.final_consistent);
        assert!(report.violation());
        assert!(!report.ok());
        // T2 read {(a,1),(b,−1)} — inconsistent (a>0 forces b>0).
        assert!(report.inconsistent_readers().contains(&TxnId(2)));
    }

    #[test]
    fn serial_execution_is_strongly_correct() {
        // Run the same two programs serially (T1 then T2): now T1 sees
        // c>0, sets b := |b|+1 = 2, and T2 copies b into c.
        let (cat, ic, initial) = example2();
        let solver = Solver::new(&cat, &ic);
        let s = Schedule::new(vec![
            // T1 from (−1,−1,1): a:=1; c>0 so b:=|−1|+1=2… but wait,
            // T1 must read c before writing b, and reads b to compute.
            wr(1, 0, 1),
            rd(1, 2, 1),
            rd(1, 1, -1),
            wr(1, 1, 2),
            // T2 from (1,2,1): a>0, so c:=b=2.
            rd(2, 0, 1),
            rd(2, 1, 2),
            wr(2, 2, 2),
        ])
        .unwrap();
        let report = check_strong_correctness(&s, &solver, &initial);
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn inconsistent_initial_state_flagged() {
        let (cat, ic, _) = example2();
        let solver = Solver::new(&cat, &ic);
        let a = cat.lookup("a").unwrap();
        let b = cat.lookup("b").unwrap();
        let c = cat.lookup("c").unwrap();
        let bad = DbState::from_pairs([
            (a, Value::Int(1)),
            (b, Value::Int(-1)), // a>0 but b<0
            (c, Value::Int(1)),
        ]);
        let s = Schedule::new(vec![]).unwrap();
        let report = check_strong_correctness(&s, &solver, &bad);
        assert!(!report.initial_consistent);
        assert!(!report.ok());
        assert!(
            !report.violation(),
            "bad input is not an execution violation"
        );
    }

    #[test]
    fn incoherent_reads_flagged() {
        let (cat, ic, initial) = example2();
        let solver = Solver::new(&cat, &ic);
        // Read of a returns 42, but a is −1 initially: not an execution.
        let s = Schedule::new(vec![rd(1, 0, 42)]).unwrap();
        let report = check_strong_correctness(&s, &solver, &initial);
        assert!(!report.read_coherent);
        assert!(!report.ok());
    }

    #[test]
    fn empty_schedule_is_strongly_correct() {
        let (cat, ic, initial) = example2();
        let solver = Solver::new(&cat, &ic);
        let s = Schedule::new(vec![]).unwrap();
        let report = check_strong_correctness(&s, &solver, &initial);
        assert!(report.ok());
        assert!(report.txn_reads.is_empty());
    }

    #[test]
    fn read_only_transaction_reading_consistent_snapshot() {
        let (cat, ic, initial) = example2();
        let solver = Solver::new(&cat, &ic);
        // Reads the initial (consistent) values only.
        let s = Schedule::new(vec![rd(1, 0, -1), rd(1, 1, -1), rd(1, 2, 1)]).unwrap();
        let report = check_strong_correctness(&s, &solver, &initial);
        assert!(report.ok());
        assert_eq!(report.txn_reads, vec![(TxnId(1), true)]);
    }
}
