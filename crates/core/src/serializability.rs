//! Conflict serializability.
//!
//! The paper's footnote 2: *"by serializability we refer to conflict
//! serializability (CSR)"*. The classical test: build the precedence
//! graph (one node per transaction, an edge `T_i → T_j` whenever an
//! operation of `T_i` conflicts with and precedes one of `T_j`), and
//! check acyclicity; every topological order is a serialization order.

use crate::graph::DiGraph;
use crate::ids::TxnId;
use crate::schedule::Schedule;
use crate::state::ItemSet;

const ABSENT: u32 = u32::MAX;

/// The transactions of `S^d` in first-appearance order, plus the map
/// from schedule transaction slots to projection slots (`ABSENT` when
/// the transaction has no operation in `d`).
fn proj_txns(schedule: &Schedule, d: Option<&ItemSet>) -> (Vec<TxnId>, Vec<u32>) {
    let all = schedule.txn_ids();
    let mut map = vec![ABSENT; all.len()];
    let mut txns = Vec::new();
    for (p, o) in schedule.ops().iter().enumerate() {
        if d.is_some_and(|d| !d.contains(o.item)) {
            continue;
        }
        let s = schedule.slot_of_op(crate::ids::OpIndex(p));
        if map[s] == ABSENT {
            map[s] = txns.len() as u32;
            txns.push(all[s]);
        }
    }
    (txns, map)
}

/// The **full** conflict graph: every conflicting operation pair
/// contributes its edge, exactly as the classical definition reads.
/// Operations are grouped per item (only same-item pairs can conflict),
/// so the pairwise scan runs within each item's access list instead of
/// over all `O(n²)` operation pairs.
fn conflict_graph_full(schedule: &Schedule) -> DiGraph {
    let mut per_item: Vec<Vec<(usize, bool)>> = vec![Vec::new(); schedule.item_ub()];
    for (p, o) in schedule.ops().iter().enumerate() {
        let t = schedule.slot_of_op(crate::ids::OpIndex(p));
        per_item[o.item.index()].push((t, o.is_write()));
    }
    let mut g = DiGraph::new(schedule.txn_ids().len());
    for accesses in &per_item {
        for (j, &(tj, wj)) in accesses.iter().enumerate() {
            for &(ti, wi) in &accesses[..j] {
                if ti != tj && (wi || wj) {
                    g.add_edge(ti, tj);
                }
            }
        }
    }
    g
}

/// The **reduced** conflict graph: each operation only records edges
/// from the latest writer of its item (and, for writes, from the
/// readers since that write). The result has `O(n)` edges and the same
/// transitive closure as the full graph — an earlier conflicting
/// operation always reaches the later one through the intermediate
/// writers — so acyclicity, `find_cycle`-existence and the
/// smallest-index-first topological order all coincide with the full
/// graph's. This is what the CSR deciders run on.
fn conflict_graph_reduced(schedule: &Schedule, d: Option<&ItemSet>) -> (DiGraph, Vec<TxnId>) {
    let (txns, map) = proj_txns(schedule, d);
    let mut g = DiGraph::new(txns.len());
    let mut last_writer: Vec<u32> = vec![ABSENT; schedule.item_ub()];
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); schedule.item_ub()];
    for (p, o) in schedule.ops().iter().enumerate() {
        if d.is_some_and(|d| !d.contains(o.item)) {
            continue;
        }
        let t = map[schedule.slot_of_op(crate::ids::OpIndex(p))];
        let i = o.item.index();
        let w = last_writer[i];
        if w != ABSENT && w != t {
            g.add_edge(w as usize, t as usize);
        }
        if o.is_read() {
            readers[i].push(t);
        } else {
            for &r in &readers[i] {
                if r != t {
                    g.add_edge(r as usize, t as usize);
                }
            }
            readers[i].clear();
            last_writer[i] = t;
        }
    }
    (g, txns)
}

/// The precedence (conflict) graph of a schedule, with node `k`
/// representing `schedule.txn_ids()[k]`.
pub(crate) fn precedence_graph(schedule: &Schedule) -> DiGraph {
    conflict_graph_full(schedule)
}

/// Is the schedule conflict-serializable?
pub fn is_conflict_serializable(schedule: &Schedule) -> bool {
    !conflict_graph_reduced(schedule, None).0.has_cycle()
}

/// Is the projection `S^d` conflict-serializable? Equivalent to
/// `is_conflict_serializable(&schedule.project(d))` without cloning the
/// projected operations.
pub fn is_conflict_serializable_proj(schedule: &Schedule, d: &ItemSet) -> bool {
    !conflict_graph_reduced(schedule, Some(d)).0.has_cycle()
}

/// One (deterministic) serialization order of a conflict-serializable
/// schedule, or `None` if it is not CSR.
pub fn serialization_order(schedule: &Schedule) -> Option<Vec<TxnId>> {
    let (g, txns) = conflict_graph_reduced(schedule, None);
    g.topo_sort()
        .map(|order| order.into_iter().map(|k| txns[k]).collect())
}

/// A serialization order of the projection `S^d`, or `None` if it is
/// not CSR. Equivalent to `serialization_order(&schedule.project(d))`
/// without materializing the projection.
pub fn serialization_order_proj(schedule: &Schedule, d: &ItemSet) -> Option<Vec<TxnId>> {
    let (g, txns) = conflict_graph_reduced(schedule, Some(d));
    g.topo_sort()
        .map(|order| order.into_iter().map(|k| txns[k]).collect())
}

/// A conflict cycle in the projection `S^d`, if any.
pub(crate) fn conflict_cycle_proj(schedule: &Schedule, d: &ItemSet) -> Option<Vec<TxnId>> {
    let (g, txns) = conflict_graph_reduced(schedule, Some(d));
    g.find_cycle()
        .map(|c| c.into_iter().map(|k| txns[k]).collect())
}

/// All serialization orders (up to `cap`), or `None` if not CSR.
///
/// Example 1's schedule admits both `T1,T2` and `T2,T1`; Definition 4's
/// transaction states depend on which one is chosen, so enumerating the
/// orders matters.
pub fn all_serialization_orders(schedule: &Schedule, cap: usize) -> Option<Vec<Vec<TxnId>>> {
    let txns = schedule.txn_ids();
    precedence_graph(schedule)
        .all_topo_sorts(cap)
        .map(|orders| {
            orders
                .into_iter()
                .map(|o| o.into_iter().map(|k| txns[k]).collect())
                .collect()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ItemId;
    use crate::op::Operation;
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    #[test]
    fn serial_is_serializable() {
        let s = Schedule::new(vec![rd(1, 0, 0), wr(1, 1, 1), rd(2, 1, 1), wr(2, 0, 2)]).unwrap();
        assert!(is_conflict_serializable(&s));
        assert_eq!(serialization_order(&s).unwrap(), vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn example2_schedule_not_csr() {
        // Example 2: w1(a,1), r2(a,1), r2(b,−1), w2(c,−1), r1(c,−1)
        // has edges T1 → T2 (on a) and T2 → T1 (on c): a cycle.
        let s = Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ])
        .unwrap();
        assert!(!is_conflict_serializable(&s));
        assert!(serialization_order(&s).is_none());
        let everything = ItemSet::from_iter([ItemId(0), ItemId(1), ItemId(2)]);
        let cycle = conflict_cycle_proj(&s, &everything).unwrap();
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&TxnId(1)) && cycle.contains(&TxnId(2)));
    }

    #[test]
    fn example1_has_two_orders() {
        // Example 1: no conflicts at all between T1 and T2, so both
        // serialization orders exist.
        let s = Schedule::new(vec![
            rd(1, 0, 0),
            rd(2, 0, 0),
            wr(2, 3, 0),
            rd(1, 2, 5),
            wr(1, 1, 5),
        ])
        .unwrap();
        assert!(is_conflict_serializable(&s));
        let orders = all_serialization_orders(&s, 10).unwrap();
        assert_eq!(orders.len(), 2);
    }

    #[test]
    fn empty_schedule_serializable() {
        let s = Schedule::new(vec![]).unwrap();
        assert!(is_conflict_serializable(&s));
        assert_eq!(serialization_order(&s).unwrap(), Vec::<TxnId>::new());
    }

    #[test]
    fn proj_variants_match_materialized_projection() {
        use crate::state::ItemSet;
        // Example 2's schedule: projection on {a,b} is CSR (T1,T2),
        // on {c} is CSR (T2,T1), while S itself is not.
        let s = Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ])
        .unwrap();
        for d in [
            ItemSet::from_iter([ItemId(0), ItemId(1)]),
            ItemSet::from_iter([ItemId(2)]),
            ItemSet::from_iter([ItemId(0), ItemId(1), ItemId(2)]),
            ItemSet::new(),
        ] {
            let proj = s.project(&d);
            assert_eq!(
                serialization_order_proj(&s, &d),
                serialization_order(&proj),
                "order mismatch on {d:?}"
            );
            assert_eq!(
                is_conflict_serializable_proj(&s, &d),
                is_conflict_serializable(&proj)
            );
            assert_eq!(
                conflict_cycle_proj(&s, &d).is_some(),
                !is_conflict_serializable(&proj)
            );
        }
    }

    #[test]
    fn precedence_graph_edges() {
        // r1(x) w2(x): edge T1 → T2 only.
        let s = Schedule::new(vec![rd(1, 0, 0), wr(2, 0, 1)]).unwrap();
        let g = precedence_graph(&s);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_count(), 1);
    }
}
