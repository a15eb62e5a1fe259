//! Static Theorem-3 admission control.
//!
//! §3.3's restriction is on *data access order*: number the conjuncts
//! so that no transaction reads a higher-numbered conjunct and writes a
//! lower-numbered one; then every PWSR schedule over those transactions
//! is strongly correct. Operationally this is an **admission** check on
//! the program set: build the data access graph from each program's
//! syntactic read/write footprint ([`rw_footprint`]; a sound
//! over-approximation of any execution's `DAG(S, IC)`), test
//! acyclicity, and read off the topological conjunct order. Theorem 3
//! also needs disjoint conjuncts, so an IC whose conjuncts share an item
//! is refused outright — Example 5's programs have an acyclic graph and
//! a PWSR schedule that is not strongly correct. A program mix with an
//! acyclic graph over a disjoint IC may run under plain predicate-wise
//! 2PL with early release — no DR blocking, no fixed-structure
//! requirement — and still carry a Theorem 3 guarantee.

use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::IntegrityConstraint;
use pwsr_core::dag::{access_graph_of, DataAccessGraph};
use pwsr_core::error::CoreError;
use pwsr_tplang::analysis::rw_footprint;
use pwsr_tplang::ast::Program;

/// The data access graph of a program mix's footprints under `ic`
/// (every runtime `DAG(S, IC)` of these programs is a subgraph of it),
/// or [`CoreError::OverlappingConjuncts`] when `ic`'s conjuncts share
/// an item and Theorem 3 promises nothing.
pub fn check_static_dag(
    programs: &[Program],
    catalog: &Catalog,
    ic: &IntegrityConstraint,
) -> Result<DataAccessGraph, CoreError> {
    if let Some(item) = ic.shared_item() {
        return Err(CoreError::OverlappingConjuncts { item });
    }
    let footprints = programs.iter().map(|p| {
        let fp = rw_footprint(p, catalog);
        (fp.reads, fp.writes)
    });
    Ok(access_graph_of(ic, footprints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::constraint::{Conjunct, Formula, Term};
    use pwsr_core::dag::data_access_graph;
    use pwsr_core::ids::{ConjunctId, ItemId};
    use pwsr_core::value::{Domain, Value};
    use pwsr_tplang::parser::parse_program;

    fn setup() -> (Catalog, IntegrityConstraint) {
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
        (cat, ic)
    }

    #[test]
    fn example2_mix_is_refused() {
        // TP1 reads c (C1) and writes a (C0); TP2 reads a (C0) and
        // writes c (C1): static cycle, as §3.3 diagnoses.
        let (cat, ic) = setup();
        let programs = vec![
            parse_program("TP1", "a := 1; if (c > 0) then b := abs(b) + 1;").unwrap(),
            parse_program("TP2", "if (a > 0) then c := b;").unwrap(),
        ];
        let dag = check_static_dag(&programs, &cat, &ic).unwrap();
        assert!(!dag.is_acyclic());
        assert!(dag.cycle().is_some());
        assert!(dag.topological_order().is_none());
    }

    #[test]
    fn example5_overlapping_ic_is_refused() {
        // Example 5's programs have an acyclic graph, yet its PWSR
        // schedule is not strongly correct: Theorem 3 needs disjoint
        // conjuncts, and C1 and C2 share `a`.
        let sc = pwsr_tplang::programs::example5();
        let a = sc.catalog.lookup("a").unwrap();
        let refused = check_static_dag(&sc.programs, &sc.catalog, &sc.ic).unwrap_err();
        assert!(matches!(refused, CoreError::OverlappingConjuncts { item } if item == a));
    }

    #[test]
    fn one_directional_mix_is_admitted() {
        let (cat, ic) = setup();
        let programs = vec![
            parse_program("P1", "c := a + b;").unwrap(),
            parse_program("P2", "c := a * 2;").unwrap(),
        ];
        let dag = check_static_dag(&programs, &cat, &ic).unwrap();
        assert!(dag.is_acyclic());
        assert_eq!(
            dag.topological_order().unwrap(),
            vec![ConjunctId(0), ConjunctId(1)]
        );
    }

    #[test]
    fn static_graph_contains_every_runtime_graph() {
        // Soundness: for the branching program below, the runtime DAG
        // from any single execution is a subgraph of the static DAG.
        let (cat, ic) = setup();
        let p = parse_program("P", "if (a > 0) then c := b; else b := 1;").unwrap();
        let programs = vec![p.clone()];
        let static_dag = check_static_dag(&programs, &cat, &ic).unwrap();
        for av in [-1i64, 1] {
            let st = pwsr_core::state::DbState::from_pairs([
                (cat.lookup("a").unwrap(), Value::Int(av)),
                (cat.lookup("b").unwrap(), Value::Int(1)),
                (cat.lookup("c").unwrap(), Value::Int(1)),
            ]);
            let t = pwsr_tplang::interp::execute(&p, &cat, pwsr_core::ids::TxnId(1), &st).unwrap();
            let s = pwsr_core::schedule::Schedule::new(t.ops().to_vec()).unwrap();
            let runtime = data_access_graph(&s, &ic);
            for i in (0..ic.len() as u32).map(ConjunctId) {
                for j in (0..ic.len() as u32).map(ConjunctId) {
                    if runtime.has_edge(i, j) {
                        assert!(static_dag.has_edge(i, j), "missing static edge {i}→{j}");
                    }
                }
            }
        }
    }

    #[test]
    fn may_access_sets_cover_all_branches() {
        let (cat, _) = setup();
        let p = parse_program("P", "if (a > 0) then b := 1; else c := 2;").unwrap();
        let fp = rw_footprint(&p, &cat);
        assert!(fp.reads.contains(ItemId(0)));
        assert!(fp.writes.contains(ItemId(1)) && fp.writes.contains(ItemId(2)));
    }

    #[test]
    fn locals_are_not_items() {
        let (cat, _) = setup();
        let p = parse_program("P", "t := a; b := t;").unwrap();
        let fp = rw_footprint(&p, &cat);
        assert_eq!(fp.reads.len(), 1);
        assert_eq!(fp.writes.len(), 1);
    }
}
