//! Violation gadgets: program pairs that are correct in isolation but
//! can violate consistency under a PWSR interleaving.
//!
//! The canonical gadget is the paper's Example 2, parameterized over
//! fresh item names so many instances can be embedded in one workload:
//! conjuncts `(p>0 → q>0)` and `(r>0)`, programs
//! `G1: p := 1; if (r>0) then q := abs(q)+1;` and
//! `G2: if (p>0) then r := q;`, initial `(−1, −1, 1)`. Under the
//! interleaving `w1(p) r2(p) r2(q) w2(r) r1(r)` the schedule is PWSR
//! yet ends in an inconsistent state — the control arm for every
//! theorem experiment.

use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::Conjunct;
use pwsr_core::ids::TxnId;
use pwsr_core::state::DbState;
use pwsr_core::value::{Domain, Value};
use pwsr_tplang::ast::Program;
use pwsr_tplang::parser::parse_program;

/// One instantiated Example-2 gadget.
#[derive(Clone, Debug)]
pub struct Example2Gadget {
    /// `TP1`-analogue.
    pub g1: Program,
    /// `TP2`-analogue.
    pub(crate) g2: Program,
    /// The two conjuncts to append to the workload's constraint.
    pub conjuncts: Vec<Conjunct>,
}

/// Instantiate the Example 2 gadget with fresh items named
/// `p{tag}`, `q{tag}`, `r{tag}`; extends `catalog` and `initial`
/// in place. `next_conjunct` numbers the two new conjuncts.
pub fn example2_gadget(
    catalog: &mut Catalog,
    initial: &mut DbState,
    tag: &str,
    next_conjunct: u32,
) -> Example2Gadget {
    use pwsr_core::constraint::{Formula, Term};
    let p = catalog.add_item(&format!("p{tag}"), Domain::int_range(-100, 100));
    let q = catalog.add_item(&format!("q{tag}"), Domain::int_range(-100, 100));
    let r = catalog.add_item(&format!("r{tag}"), Domain::int_range(-100, 100));
    initial.set(p, Value::Int(-1));
    initial.set(q, Value::Int(-1));
    initial.set(r, Value::Int(1));
    let g1 = parse_program(
        &format!("G1{tag}"),
        &format!("p{tag} := 1; if (r{tag} > 0) then q{tag} := abs(q{tag}) + 1;"),
    )
    .expect("gadget text parses");
    let g2 = parse_program(
        &format!("G2{tag}"),
        &format!("if (p{tag} > 0) then r{tag} := q{tag};"),
    )
    .expect("gadget text parses");
    let conjuncts = vec![
        Conjunct::new(
            next_conjunct,
            Formula::implies(
                Formula::gt(Term::var(p), Term::int(0)),
                Formula::gt(Term::var(q), Term::int(0)),
            ),
        ),
        Conjunct::new(next_conjunct + 1, Formula::gt(Term::var(r), Term::int(0))),
    ];
    Example2Gadget { g1, g2, conjuncts }
}

/// The paper's violating interleaving for a gadget run as transactions
/// `(t1, t2)`: the pick sequence `[t1, t2, t2, t2, t1]`.
pub fn violating_picks(t1: TxnId, t2: TxnId) -> Vec<TxnId> {
    vec![t1, t2, t2, t2, t1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::execute_with_picks;
    use pwsr_core::constraint::IntegrityConstraint;
    use pwsr_core::pwsr::is_pwsr;
    use pwsr_core::solver::Solver;
    use pwsr_core::strong::check_strong_correctness;

    #[test]
    fn gadget_reproduces_example2_violation() {
        let mut catalog = Catalog::new();
        let mut initial = DbState::new();
        let g = example2_gadget(&mut catalog, &mut initial, "_0", 0);
        let ic = IntegrityConstraint::new(g.conjuncts.clone()).unwrap();
        let solver = Solver::new(&catalog, &ic);
        assert!(solver.is_consistent_total(&initial).unwrap());

        let programs = [g.g1.clone(), g.g2.clone()];
        let picks = violating_picks(TxnId(1), TxnId(2));
        let schedule = execute_with_picks(&programs, &catalog, &initial, &picks).unwrap();
        assert!(is_pwsr(&schedule, &ic).ok());
        let report = check_strong_correctness(&schedule, &solver, &initial);
        assert!(report.violation(), "{report:?}");
    }

    #[test]
    fn gadget_is_correct_serially() {
        let mut catalog = Catalog::new();
        let mut initial = DbState::new();
        let g = example2_gadget(&mut catalog, &mut initial, "_0", 0);
        let ic = IntegrityConstraint::new(g.conjuncts.clone()).unwrap();
        let solver = Solver::new(&catalog, &ic);
        // Serial either way: consistent.
        for order in [[0usize, 1], [1, 0]] {
            let mut state = initial.clone();
            for (k, &pi) in order.iter().enumerate() {
                let p = if pi == 0 { &g.g1 } else { &g.g2 };
                let (_, out) = pwsr_tplang::interp::execute_and_apply(
                    p,
                    &catalog,
                    TxnId(k as u32 + 1),
                    &state,
                )
                .unwrap();
                state = out;
            }
            assert!(solver.is_consistent(&state), "order {order:?}: {state:?}");
        }
    }

    #[test]
    fn multiple_gadgets_coexist() {
        let mut catalog = Catalog::new();
        let mut initial = DbState::new();
        let a = example2_gadget(&mut catalog, &mut initial, "_a", 0);
        let b = example2_gadget(&mut catalog, &mut initial, "_b", 2);
        let mut conjuncts = a.conjuncts.clone();
        conjuncts.extend(b.conjuncts.clone());
        let ic = IntegrityConstraint::new(conjuncts).unwrap();
        assert!(ic.is_disjoint());
        assert_eq!(catalog.len(), 6);
        let solver = Solver::new(&catalog, &ic);
        assert!(solver.is_consistent_total(&initial).unwrap());
    }
}
