//! The data access graph `DAG(S, IC)` of §3.3.
//!
//! One node per conjunct; a directed edge `(C_i, C_j)`, `i ≠ j`, when
//! some transaction in `S` *reads* an item in `d_i` and *writes* an item
//! in `d_j`. Theorem 3: a PWSR schedule with an acyclic data access
//! graph is strongly correct — the topological order of conjuncts gives
//! the induction order for the proof, and an operational scheduler can
//! enforce it by ordering data accesses.
//!
//! [`DataAccessGraph`] is the only Theorem-3 graph, and
//! [`DataAccessGraph::add_transaction`] the only place its edge rule is
//! written. Its sources differ: [`data_access_graph`] takes a schedule's
//! read/write sets (batch [`classify`](crate::theorems::classify)),
//! `pwsr_scheduler::dag_admission::check_static_dag` the programs'
//! syntactic footprints — both through [`access_graph_of`] — and the
//! seeded runner's guard (`PolicySpec::dag_guarded`) its trace's lock
//! spaces, probing each intent on a copy.

use crate::constraint::IntegrityConstraint;
use crate::graph::DiGraph;
use crate::ids::ConjunctId;
use crate::schedule::Schedule;
use crate::state::ItemSet;
use std::collections::BTreeSet;

/// The data access graph over conjuncts.
#[derive(Clone, Debug)]
pub struct DataAccessGraph {
    graph: DiGraph,
}

impl DataAccessGraph {
    /// The graph over `l` conjuncts, without edges.
    pub fn new(l: usize) -> DataAccessGraph {
        DataAccessGraph {
            graph: DiGraph::new(l),
        }
    }

    /// Add one transaction's edges: `C_i → C_j`, `i ≠ j`, for every
    /// conjunct `i` it reads and every conjunct `j` it writes. Adding a
    /// transaction again, or a superset of its sets, adds only what is
    /// new.
    pub fn add_transaction(&mut self, reads: &BTreeSet<ConjunctId>, writes: &BTreeSet<ConjunctId>) {
        for i in reads {
            for j in writes.iter().filter(|&j| j != i) {
                self.graph.add_edge(i.index(), j.index());
            }
        }
    }

    /// Is the graph acyclic (Theorem 3's hypothesis)?
    pub fn is_acyclic(&self) -> bool {
        !self.graph.has_cycle()
    }

    /// A topological ordering of the conjuncts, if acyclic. Theorem 3's
    /// proof: *"every transaction that updates a data item in d_k only
    /// reads data items belonging to conjuncts d_1 … d_k"* under this
    /// ordering.
    pub fn topological_order(&self) -> Option<Vec<ConjunctId>> {
        self.graph
            .topo_sort()
            .map(|o| o.into_iter().map(|k| ConjunctId(k as u32)).collect())
    }

    /// A cycle of conjuncts witnessing a Theorem 3 violation, if any.
    pub fn cycle(&self) -> Option<Vec<ConjunctId>> {
        self.graph
            .find_cycle()
            .map(|c| c.into_iter().map(|k| ConjunctId(k as u32)).collect())
    }

    /// Is the edge `C_i → C_j` present?
    pub fn has_edge(&self, i: ConjunctId, j: ConjunctId) -> bool {
        self.graph.has_edge(i.index(), j.index())
    }
}

/// The data access graph of transactions given by their (read set,
/// write set) over items: each set becomes the conjuncts it meets.
pub fn access_graph_of(
    ic: &IntegrityConstraint,
    txns: impl IntoIterator<Item = (ItemSet, ItemSet)>,
) -> DataAccessGraph {
    let met = |items: &ItemSet| -> BTreeSet<ConjunctId> {
        ic.conjuncts()
            .iter()
            .enumerate()
            .filter(|(_, c)| !items.is_disjoint(c.items()))
            .map(|(k, _)| ConjunctId(k as u32))
            .collect()
    };
    let mut dag = DataAccessGraph::new(ic.len());
    for (reads, writes) in txns {
        dag.add_transaction(&met(&reads), &met(&writes));
    }
    dag
}

/// Build `DAG(S, IC)`.
///
/// Note the definition ranges over *transactions*, not operations: the
/// edge `(C_i, C_j)` appears if one transaction both reads from `d_i`
/// and writes to `d_j` — regardless of the order of those two
/// operations inside the transaction.
pub fn data_access_graph(schedule: &Schedule, ic: &IntegrityConstraint) -> DataAccessGraph {
    let mut sets = vec![(ItemSet::new(), ItemSet::new()); schedule.txn_ids().len()];
    for o in schedule.ops() {
        let slot = schedule
            .txn_slot(o.txn)
            .expect("every operation's transaction has a slot");
        let (reads, writes) = &mut sets[slot];
        if o.is_read() { reads } else { writes }.insert(o.item);
    }
    access_graph_of(ic, sets)
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

    /// The edges between Example 2's two conjuncts.
    fn edge_count(dag: &DataAccessGraph) -> usize {
        let (c0, c1) = (ConjunctId(0), ConjunctId(1));
        [(c0, c1), (c1, c0)]
            .into_iter()
            .filter(|&(i, j)| dag.has_edge(i, j))
            .count()
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

    #[test]
    fn example2_dag_is_cyclic() {
        // §3.3: "T1 reads data item c from conjunct C2 and writes data
        // item a in conjunct C1, while T2 reads a from C1 and writes c
        // in C2 … in a cyclic fashion".
        let ic = example2_ic();
        let s = Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ])
        .unwrap();
        let dag = data_access_graph(&s, &ic);
        assert!(dag.has_edge(ConjunctId(1), ConjunctId(0))); // T1: reads C2, writes C1
        assert!(dag.has_edge(ConjunctId(0), ConjunctId(1))); // T2: reads C1, writes C2
        assert!(!dag.is_acyclic());
        let cycle = dag.cycle().unwrap();
        assert_eq!(cycle.len(), 2);
        assert!(dag.topological_order().is_none());
    }

    #[test]
    fn one_directional_access_is_acyclic() {
        // Both transactions read C1 and write C2 only: single edge.
        let ic = example2_ic();
        let s = Schedule::new(vec![rd(1, 0, 1), wr(1, 2, 1), rd(2, 1, 1), wr(2, 2, 2)]).unwrap();
        let dag = data_access_graph(&s, &ic);
        assert!(dag.is_acyclic());
        assert_eq!(edge_count(&dag), 1);
        let order = dag.topological_order().unwrap();
        assert_eq!(order, vec![ConjunctId(0), ConjunctId(1)]);
    }

    #[test]
    fn within_conjunct_access_adds_no_edge() {
        let ic = example2_ic();
        // T1 reads a and writes b — both in C1.
        let s = Schedule::new(vec![rd(1, 0, 1), wr(1, 1, 1)]).unwrap();
        let dag = data_access_graph(&s, &ic);
        assert_eq!(edge_count(&dag), 0);
        assert!(dag.is_acyclic());
    }

    #[test]
    fn edge_ignores_intra_transaction_op_order() {
        let ic = example2_ic();
        // Write to C1 happens *before* the read of C2 — the edge
        // C2 → C1 exists regardless.
        let s = Schedule::new(vec![wr(1, 0, 1), rd(1, 2, 1)]).unwrap();
        let dag = data_access_graph(&s, &ic);
        assert!(dag.has_edge(ConjunctId(1), ConjunctId(0)));
    }

    #[test]
    fn unconstrained_items_do_not_contribute() {
        let ic = example2_ic();
        // Item 9 belongs to no conjunct: reading/writing it is edge-free.
        let s = Schedule::new(vec![rd(1, 9, 0), wr(1, 9, 1)]).unwrap();
        let dag = data_access_graph(&s, &ic);
        assert_eq!(edge_count(&dag), 0);
    }
}
