//! The data access graph `DAG(S, IC)` of §3.3.
//!
//! One node per conjunct; a directed edge `(C_i, C_j)`, `i ≠ j`, when
//! some transaction in `S` *reads* an item in `d_i` and *writes* an item
//! in `d_j`. Theorem 3: a PWSR schedule with an acyclic data access
//! graph is strongly correct — the topological order of conjuncts gives
//! the induction order for the proof, and an operational scheduler can
//! enforce it by ordering data accesses (see
//! `pwsr-scheduler::dag_order`).

use crate::constraint::IntegrityConstraint;
use crate::graph::{DiGraph, IncrementalDag};
use crate::ids::{ConjunctId, OpIndex};
use crate::monitor::undo::Tape;
use crate::schedule::Schedule;
use crate::state::ItemSet;

/// The data access graph over conjuncts.
#[derive(Clone, Debug)]
pub struct DataAccessGraph {
    graph: DiGraph,
}

impl DataAccessGraph {
    /// The underlying digraph (node `k` = conjunct `k` of the IC).
    pub fn graph(&self) -> &DiGraph {
        &self.graph
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

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Build `DAG(S, IC)`.
///
/// Note the definition ranges over *transactions*, not operations: the
/// edge `(C_i, C_j)` appears if one transaction both reads from `d_i`
/// and writes to `d_j` — regardless of the order of those two
/// operations inside the transaction.
///
/// Read/write sets are accumulated as bitsets in one pass over the
/// operation sequence (no per-transaction operation clones), and each
/// conjunct-overlap test is a word-wise disjointness check.
pub fn data_access_graph(schedule: &Schedule, ic: &IntegrityConstraint) -> DataAccessGraph {
    use crate::state::ItemSet;
    use std::collections::HashMap;

    let n_txns = schedule.txn_ids().len();
    let slot_of: HashMap<crate::ids::TxnId, usize> = schedule
        .txn_ids()
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i))
        .collect();
    let mut rs: Vec<ItemSet> = vec![ItemSet::new(); n_txns];
    let mut ws: Vec<ItemSet> = vec![ItemSet::new(); n_txns];
    for o in schedule.ops() {
        let k = slot_of[&o.txn];
        if o.is_read() {
            rs[k].insert(o.item);
        } else {
            ws[k].insert(o.item);
        }
    }
    let l = ic.len();
    let mut graph = DiGraph::new(l);
    for k in 0..n_txns {
        for (i, ci) in ic.conjuncts().iter().enumerate() {
            if rs[k].is_disjoint(ci.items()) {
                continue;
            }
            for (j, cj) in ic.conjuncts().iter().enumerate() {
                if i != j && !ws[k].is_disjoint(cj.items()) {
                    graph.add_edge(i, j);
                }
            }
        }
    }
    DataAccessGraph { graph }
}

/// `DAG(S, IC)` maintained **incrementally**, one access at a time.
///
/// Nodes are `l` fixed *units* (conjuncts here; the scheduler reuses
/// this with guarded lock spaces as units). Per accessing entity
/// (transaction slot) the unit read/write sets are kept as bitsets;
/// a new access adds exactly the §3.3 edges it induces — read of unit
/// `i` by an entity that writes units `J` adds `i → j` for `j ∈ J`,
/// write of `j` by an entity that reads `I` adds `i → j` for `i ∈ I`
/// — into an [`IncrementalDag`], so Theorem 3's hypothesis is decided
/// per access instead of by an `O(n)` rebuild from the trace.
///
/// Two modes share the structure:
///
/// * **observational** ([`OnlineAccessDag::record`]): accesses are
///   always recorded; the first cycle-closing edge *freezes* the
///   graph (`DAG` cyclicity is monotone — edges are never removed by
///   forward execution) and pins [`OnlineAccessDag::first_cycle`];
/// * **preventive** ([`OnlineAccessDag::admits`]): a probe inserts
///   the candidate edges and retracts them LIFO, deciding whether the
///   access would keep the graph acyclic without committing it — the
///   scheduler's runtime Theorem-3 guard.
#[derive(Clone, Debug, Default)]
pub struct OnlineAccessDag {
    dag: IncrementalDag,
    /// Per entity: units it has read / written (as ItemSet bitsets
    /// over unit indices).
    rs: Vec<ItemSet>,
    ws: Vec<ItemSet>,
    /// Tag of the access that first made the graph cyclic.
    cyclic_at: Option<OpIndex>,
    /// The edges a probe has inserted and must take out again (kept
    /// between probes so that probing does not allocate).
    probe: Vec<(u32, u32)>,
}

/// The edges a fresh `(entity, unit, is_write)` access induces, given
/// the entity's unit sets *before* the access: none if the unit's bit
/// is already set on the accessed side (they are present already).
fn induced_edges<'a>(
    rs: &'a [ItemSet],
    ws: &'a [ItemSet],
    entity: usize,
    unit: u32,
    is_write: bool,
) -> impl Iterator<Item = (u32, u32)> + 'a {
    let (same, other) = if is_write { (ws, rs) } else { (rs, ws) };
    let bit = crate::ids::ItemId(unit);
    other
        .get(entity)
        .filter(|_| same.get(entity).is_some_and(|s| !s.contains(bit)))
        .into_iter()
        .flat_map(ItemSet::iter)
        .map(|i| i.0)
        .filter(move |&i| i != unit)
        .map(move |i| if is_write { (i, unit) } else { (unit, i) })
}

impl OnlineAccessDag {
    /// An access DAG over `l` units.
    pub fn new(l: usize) -> OnlineAccessDag {
        let mut dag = IncrementalDag::new();
        for _ in 0..l {
            dag.add_node();
        }
        OnlineAccessDag {
            dag,
            ..OnlineAccessDag::default()
        }
    }

    /// Number of units.
    pub fn units(&self) -> usize {
        self.dag.len()
    }

    /// Is the maintained graph still acyclic?
    pub fn is_acyclic(&self) -> bool {
        self.cyclic_at.is_none()
    }

    /// Tag of the access that first closed a cycle, if any.
    pub fn first_cycle(&self) -> Option<OpIndex> {
        self.cyclic_at
    }

    /// A topological order of the units while acyclic (Theorem 3's
    /// induction order), `None` once cyclic.
    pub fn unit_order(&self) -> Option<Vec<ConjunctId>> {
        self.is_acyclic()
            .then(|| self.dag.order().iter().map(|&u| ConjunctId(u)).collect())
    }

    /// Drop all recorded accesses (the scheduler's DAG guard, told of
    /// an abort, folds the surviving trace in again from its start).
    pub fn clear(&mut self) {
        *self = OnlineAccessDag::new(self.units());
    }

    /// Drop the per-entity unit-access rows of the first `s_cut`
    /// (summarized) transaction slots, shifting surviving entities
    /// down to match a compacted schedule's slot numbering. The unit
    /// DAG and its edges are untouched: §3.3 edges are facts of the
    /// permanent prefix and `DAG(S, IC)` cyclicity is monotone, so
    /// `admits`/`record` decisions for surviving entities are
    /// unchanged — a summarized transaction is finished and can never
    /// access again, so its rows can no longer induce new edges.
    pub fn compact_entities(&mut self, s_cut: usize) {
        let cut = s_cut.min(self.rs.len());
        self.rs.drain(..cut);
        self.ws.drain(..cut.min(self.ws.len()));
    }

    fn grow(&mut self, entity: usize) {
        if self.rs.len() <= entity {
            self.rs.resize_with(entity + 1, ItemSet::new);
            self.ws.resize_with(entity + 1, ItemSet::new);
        }
    }

    /// Would recording this access keep the graph acyclic? The probe
    /// inserts the induced edges and retracts them in LIFO order —
    /// nothing is committed. `false` once the graph is frozen.
    pub fn admits(&mut self, entity: usize, unit: u32, is_write: bool) -> bool {
        if self.cyclic_at.is_some() {
            return false;
        }
        self.probe.clear();
        let mut ok = true;
        for (u, v) in induced_edges(&self.rs, &self.ws, entity, unit, is_write) {
            match self.dag.insert_edge(u, v) {
                Ok(true) => self.probe.push((u, v)),
                Ok(false) => {}
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        for &(u, v) in self.probe.iter().rev() {
            self.dag.remove_edge(u, v);
        }
        ok
    }

    /// Record one access (observational mode): induced edges are
    /// inserted; the first cycle-closing edge freezes the graph with
    /// `tag` as the witness. Returns whether the graph is still
    /// acyclic afterwards.
    pub fn record(&mut self, entity: usize, unit: u32, is_write: bool, tag: OpIndex) -> bool {
        self.record_inner(entity, unit, is_write, tag, None);
        self.is_acyclic()
    }

    /// [`OnlineAccessDag::record`] journaling exactly what it applied
    /// as one frame on `tape`, for LIFO retraction by
    /// [`OnlineAccessDag::undo`]: the unit edges freshly inserted, in
    /// insertion order (two words each), then one trailer word —
    /// `edges << 2 | froze << 1 | fresh_bit`, where `fresh_bit` says
    /// the entity's read- or write-unit bit was newly set and `froze`
    /// that this access closed the first cycle. An access to a frozen
    /// graph applies nothing and writes the trailer `0`.
    pub fn record_logged(
        &mut self,
        entity: usize,
        unit: u32,
        is_write: bool,
        tag: OpIndex,
        tape: &mut Tape,
    ) {
        self.record_inner(entity, unit, is_write, tag, Some(tape));
    }

    fn record_inner(
        &mut self,
        entity: usize,
        unit: u32,
        is_write: bool,
        tag: OpIndex,
        mut tape: Option<&mut Tape>,
    ) {
        let mut trailer = 0u32;
        if self.cyclic_at.is_none() {
            // Cyclicity is monotone: a frozen graph records nothing.
            for (u, v) in induced_edges(&self.rs, &self.ws, entity, unit, is_write) {
                match self.dag.insert_edge(u, v) {
                    Ok(true) => {
                        if let Some(tape) = tape.as_deref_mut() {
                            tape.push(u);
                            tape.push(v);
                            trailer += 1 << 2;
                        }
                    }
                    Ok(false) => {}
                    Err(_) => {
                        self.cyclic_at = Some(tag);
                        trailer |= 2;
                        break;
                    }
                }
            }
            self.grow(entity);
            let set = if is_write {
                &mut self.ws[entity]
            } else {
                &mut self.rs[entity]
            };
            trailer |= u32::from(set.insert(crate::ids::ItemId(unit)));
        }
        if let Some(tape) = tape {
            tape.push(trailer);
        }
    }

    /// Retract one recorded access by consuming its frame from the end
    /// of `tape`. Sound only in LIFO (journal) order relative to other
    /// `record_logged` calls.
    pub fn undo(&mut self, entity: usize, unit: u32, is_write: bool, tape: &mut Tape) {
        let trailer = tape.pop();
        if trailer & 2 != 0 {
            self.cyclic_at = None;
        }
        for _ in 0..trailer >> 2 {
            let v = tape.pop();
            let u = tape.pop();
            self.dag.remove_edge(u, v);
        }
        if trailer & 1 != 0 {
            let set = if is_write {
                &mut self.ws[entity]
            } else {
                &mut self.rs[entity]
            };
            set.remove(crate::ids::ItemId(unit));
        }
    }

    /// Bytes of the unit graph and the per-entity rows.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.dag.resident_bytes() + ItemSet::rows_bytes(self.rs.iter().chain(&self.ws))
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
        assert_eq!(dag.edge_count(), 1);
        let order = dag.topological_order().unwrap();
        assert_eq!(order, vec![ConjunctId(0), ConjunctId(1)]);
    }

    #[test]
    fn within_conjunct_access_adds_no_edge() {
        let ic = example2_ic();
        // T1 reads a and writes b — both in C1.
        let s = Schedule::new(vec![rd(1, 0, 1), wr(1, 1, 1)]).unwrap();
        let dag = data_access_graph(&s, &ic);
        assert_eq!(dag.edge_count(), 0);
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
        assert_eq!(dag.edge_count(), 0);
    }

    /// Replay `ops` through an [`OnlineAccessDag`] (entity = dense
    /// transaction slot, one record per containing conjunct).
    fn replay_online(ops: &[Operation], ic: &IntegrityConstraint) -> OnlineAccessDag {
        let mut online = OnlineAccessDag::new(ic.len());
        let mut slots: std::collections::HashMap<TxnId, usize> = std::collections::HashMap::new();
        for (p, o) in ops.iter().enumerate() {
            let next = slots.len();
            let slot = *slots.entry(o.txn).or_insert(next);
            for (k, c) in ic.conjuncts().iter().enumerate() {
                if c.items().contains(o.item) {
                    online.record(slot, k as u32, o.is_write(), crate::ids::OpIndex(p));
                }
            }
        }
        online
    }

    #[test]
    fn online_access_dag_matches_batch_at_every_prefix() {
        let ic = example2_ic();
        let runs = [
            // Example 2's cyclic pattern.
            vec![
                wr(1, 0, 1),
                rd(2, 0, 1),
                rd(2, 1, -1),
                wr(2, 2, -1),
                rd(1, 2, -1),
            ],
            // One-directional: stays acyclic.
            vec![rd(1, 0, 1), wr(1, 2, 1), rd(2, 1, 1), wr(2, 2, 2)],
            // Intra-transaction order irrelevant.
            vec![wr(1, 0, 1), rd(1, 2, 1), rd(2, 0, 1), wr(2, 2, 2)],
        ];
        for ops in runs {
            for k in 1..=ops.len() {
                let online = replay_online(&ops[..k], &ic);
                let prefix = Schedule::new(ops[..k].to_vec()).unwrap();
                let batch = data_access_graph(&prefix, &ic);
                assert_eq!(online.is_acyclic(), batch.is_acyclic(), "prefix {k}");
            }
        }
    }

    #[test]
    fn online_access_dag_pins_the_closing_access() {
        let ic = example2_ic();
        // T1 reads C2 then writes C1; T2 reads C1 then writes C2. The
        // DAG cycle closes at T2's write of c (position 3).
        let ops = vec![rd(1, 2, 1), wr(1, 0, 1), rd(2, 0, 1), wr(2, 2, 1)];
        let online = replay_online(&ops, &ic);
        assert!(!online.is_acyclic());
        assert_eq!(online.first_cycle(), Some(OpIndex(3)));
        assert!(online.unit_order().is_none());
    }

    #[test]
    fn online_access_dag_probe_is_exact_and_non_committing() {
        let ic = example2_ic();
        let ops = vec![rd(1, 2, 1), wr(1, 0, 1), rd(2, 0, 1)];
        let mut online = replay_online(&ops, &ic);
        // T2 (entity 1) writing c (unit 1) would close the cycle.
        assert!(!online.admits(1, 1, true));
        // The probe committed nothing: the same graph still admits
        // T2 writing into C1 (no new edge at all) and a third entity
        // writing anywhere.
        assert!(online.admits(1, 0, true));
        assert!(online.admits(2, 1, true));
        assert!(online.is_acyclic());
    }

    #[test]
    fn online_access_dag_undo_roundtrip() {
        let ic = example2_ic();
        let mut online = OnlineAccessDag::new(ic.len());
        online.record(0, 1, false, OpIndex(0)); // T1 reads C2
        online.record(0, 0, true, OpIndex(1)); // T1 writes C1 → edge 1→0
        let mut tape = Tape::default();
        online.record_logged(1, 0, false, OpIndex(2), &mut tape); // T2 reads C1
        online.record_logged(1, 1, true, OpIndex(3), &mut tape); // closes the cycle
        assert!(!online.is_acyclic());
        // LIFO retraction restores acyclicity and admissibility.
        online.undo(1, 1, true, &mut tape);
        online.undo(1, 0, false, &mut tape);
        assert!(tape.is_empty());
        assert!(online.is_acyclic());
        assert!(online.admits(1, 0, false));
        // Re-recording reproduces the cycle at the new tag.
        online.record(1, 0, false, OpIndex(7));
        online.record(1, 1, true, OpIndex(8));
        assert_eq!(online.first_cycle(), Some(OpIndex(8)));
    }
}
