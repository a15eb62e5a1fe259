//! A small directed-graph utility.
//!
//! Used for precedence graphs ([`crate::serializability`]), data access
//! graphs ([`crate::dag`]) and the scheduler's waits-for graphs. Nodes
//! are dense `usize` indices; callers keep their own node↔entity maps.
//!
//! ## Adjacency layout
//!
//! Both graphs keep a node's neighbours in an `AdjList`: a sorted,
//! deduplicated `u32` list that holds up to seven members inside the
//! node's own 32-byte row and moves to the heap only beyond that. The
//! reduced conflict graphs the monitors maintain have a handful of
//! edges per transaction, so creating a node and giving it edges calls
//! no allocator. Iteration is **ascending by node id** — part of the
//! contract, not an accident of the container: the traversals below
//! push neighbours in that order, and a compaction's
//! `IncrementalDag::retain_induced` relies on it to rename a row in
//! place without re-sorting it. What a compaction may drop from a
//! monitor's conflict graph, and why, is stated once, at
//! `ProjGraph::condense` in [`crate::monitor`].

use crate::pick::{Explore, Pick};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Members an [`AdjList`] holds in place (with the length byte and the
/// enum tag this makes the row 32 bytes — the size of the `Vec` arm).
const INLINE: usize = 7;

/// One node's neighbours: sorted ascending, no duplicates.
#[derive(Clone, Debug)]
enum AdjList {
    /// The first `len` entries of `items` are the members.
    Inline { len: u8, items: [u32; INLINE] },
    /// More than [`INLINE`] members at some point (removals do not
    /// move a list back, so a list hovering around the limit does not
    /// allocate on every change).
    Heap(Vec<u32>),
}

impl Default for AdjList {
    fn default() -> AdjList {
        AdjList::Inline {
            len: 0,
            items: [0; INLINE],
        }
    }
}

impl AdjList {
    fn as_slice(&self) -> &[u32] {
        match self {
            AdjList::Inline { len, items } => &items[..*len as usize],
            AdjList::Heap(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn contains(&self, x: u32) -> bool {
        self.as_slice().binary_search(&x).is_ok()
    }

    /// Insert `x`, keeping the order; returns whether it was absent.
    fn insert(&mut self, x: u32) -> bool {
        let Err(at) = self.as_slice().binary_search(&x) else {
            return false;
        };
        match self {
            AdjList::Inline { len, items } if (*len as usize) < INLINE => {
                let n = *len as usize;
                items.copy_within(at..n, at + 1);
                items[at] = x;
                *len += 1;
            }
            AdjList::Inline { items, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE + 2);
                v.extend_from_slice(&items[..at]);
                v.push(x);
                v.extend_from_slice(&items[at..]);
                *self = AdjList::Heap(v);
            }
            AdjList::Heap(v) => v.insert(at, x),
        }
        true
    }

    /// Remove `x`; returns whether it was present.
    fn remove(&mut self, x: u32) -> bool {
        let Ok(at) = self.as_slice().binary_search(&x) else {
            return false;
        };
        match self {
            AdjList::Inline { len, items } => {
                items.copy_within(at + 1..*len as usize, at);
                *len -= 1;
            }
            AdjList::Heap(v) => {
                v.remove(at);
            }
        }
        true
    }

    /// Keep the members `map` does not send to `u32::MAX`, each
    /// replaced by its image. `map` increases on the kept members, so
    /// the list stays sorted.
    fn retain_renamed(&mut self, map: &[u32]) {
        let members = match self {
            AdjList::Inline { len, items } => &mut items[..*len as usize],
            AdjList::Heap(v) => v.as_mut_slice(),
        };
        let mut kept = 0;
        for i in 0..members.len() {
            let new = map[members[i] as usize];
            if new != u32::MAX {
                members[kept] = new;
                kept += 1;
            }
        }
        match self {
            AdjList::Inline { len, .. } => *len = kept as u8,
            AdjList::Heap(v) => v.truncate(kept),
        }
    }

    /// Heap bytes in use beyond the row itself.
    fn spill_bytes(&self) -> usize {
        match self {
            AdjList::Inline { .. } => 0,
            AdjList::Heap(v) => std::mem::size_of_val(v.as_slice()),
        }
    }
}

/// A directed graph over nodes `0..n` with deduplicated edges.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    /// `succ[u]` = ordered successor list of `u`.
    succ: Vec<AdjList>,
}

impl DiGraph {
    /// A graph with `n` isolated nodes.
    pub fn new(n: usize) -> DiGraph {
        DiGraph {
            succ: vec![AdjList::default(); n],
        }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.succ.len()
    }

    /// Add the edge `u → v` (self-loops allowed; duplicates ignored).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(v < self.succ.len(), "add_edge({u}, {v}): no such node");
        self.succ[u].insert(v as u32);
    }

    /// Is `u → v` present?
    pub(crate) fn has_edge(&self, u: usize, v: usize) -> bool {
        u32::try_from(v).is_ok_and(|v| self.succ[u].contains(v))
    }

    /// Successors of `u` in ascending order.
    pub(crate) fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.succ[u].as_slice().iter().map(|&v| v as usize)
    }

    /// All edges `(u, v)`.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.len()).flat_map(move |u| self.successors(u).map(move |v| (u, v)))
    }

    /// Does the graph contain a directed cycle?
    pub fn has_cycle(&self) -> bool {
        self.topo_sort().is_none()
    }

    /// One topological order (smallest-index-first, i.e. deterministic),
    /// or `None` if the graph is cyclic.
    pub(crate) fn topo_sort(&self) -> Option<Vec<usize>> {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for (_, v) in self.edges() {
            indeg[v] += 1;
        }
        // BTreeSet as a priority queue keeps the order deterministic.
        let mut ready: BTreeSet<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(&u) = ready.iter().next() {
            ready.remove(&u);
            out.push(u);
            for v in self.successors(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.insert(v);
                }
            }
        }
        (out.len() == n).then_some(out)
    }

    /// All topological orders, up to `cap` of them (the count can be
    /// factorial), in lexicographic order. Returns `None` if cyclic.
    pub(crate) fn all_topo_sorts(&self, cap: usize) -> Option<Vec<Vec<usize>>> {
        let n = self.len();
        let mut explore = Explore::default();
        let mut out = Vec::new();
        loop {
            let mut indeg = vec![0usize; n];
            self.edges().for_each(|(_, v)| indeg[v] += 1);
            let mut ready: Vec<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
            let mut order = Vec::with_capacity(n);
            while !ready.is_empty() {
                let u = ready.swap_remove(explore.pick(&ready));
                order.push(u);
                for v in self.successors(u) {
                    indeg[v] -= 1;
                    if indeg[v] == 0 {
                        ready.push(v);
                    }
                }
            }
            if order.len() < n {
                return None;
            }
            out.push(order);
            if out.len() >= cap || !explore.advance() {
                out.truncate(cap);
                return Some(out);
            }
        }
    }

    /// One directed cycle as a node list `[v0, v1, …, vk]` with
    /// `v0 = vk`'s successor closing the loop, if any exists.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Gray,
            Black,
        }
        let n = self.len();
        let mut mark = vec![Mark::White; n];
        let mut parent = vec![usize::MAX; n];
        for start in 0..n {
            if mark[start] != Mark::White {
                continue;
            }
            // Iterative DFS with explicit stack of (node, successor iter pos).
            let mut stack = vec![(start, self.successors(start))];
            mark[start] = Mark::Gray;
            while let Some((u, it)) = stack.last_mut() {
                let u = *u;
                match it.next() {
                    Some(v) => match mark[v] {
                        Mark::White => {
                            parent[v] = u;
                            mark[v] = Mark::Gray;
                            stack.push((v, self.successors(v)));
                        }
                        Mark::Gray => {
                            // Found a back edge u → v: unwind the cycle.
                            let mut cycle = vec![u];
                            let mut w = u;
                            while w != v {
                                w = parent[w];
                                cycle.push(w);
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Mark::Black => {}
                    },
                    None => {
                        mark[u] = Mark::Black;
                        stack.pop();
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
impl DiGraph {
    /// Is the graph empty (no nodes)?
    pub(crate) fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    /// Total number of edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.succ.iter().map(AdjList::len).sum()
    }
}

/// A dynamically growing DAG with **incremental cycle detection**, via
/// the Pearce–Kelly algorithm (*A dynamic topological sort algorithm
/// for directed acyclic graphs*, JEA 2006).
///
/// A topological order over the nodes is maintained across edge
/// insertions: adding `u → v` with `ord(u) < ord(v)` costs `O(1)`;
/// otherwise only the *affected region* — the nodes ordered between
/// `v` and `u` and reachable forward from `v` or backward from `u` —
/// is discovered and reordered. An insertion that would close a cycle
/// is detected during the forward search and **rejected without
/// mutating** the graph, which is exactly the shape an online
/// serialization-graph certifier needs: conflict edges stream in as
/// operations arrive, and the first edge whose insertion fails
/// pinpoints the offending operation.
#[derive(Debug, Default)]
pub(crate) struct IncrementalDag {
    /// `succ[u]` = ordered successor list of `u` (deduplicated).
    succ: Vec<AdjList>,
    /// `pred[v]` = ordered predecessor list of `v`.
    pred: Vec<AdjList>,
    /// `ord[u]` = position of `u` in the maintained topological order.
    ord: Vec<u32>,
    /// `node_at[k]` = the node at position `k` (inverse of `ord`).
    node_at: Vec<u32>,
    /// Search state reused by every traversal, so that none of them
    /// allocates once the buffers have grown. Behind a `Mutex`
    /// (uncontended in single-writer use; `&mut self` paths bypass it
    /// with `get_mut`) so the read-only admission probe can use it too
    /// *and* the DAG stays `Sync` — the sharded monitor probes shard
    /// graphs under shared read locks from several threads.
    scratch: Mutex<Scratch>,
}

impl Clone for IncrementalDag {
    fn clone(&self) -> IncrementalDag {
        IncrementalDag {
            succ: self.succ.clone(),
            pred: self.pred.clone(),
            ord: self.ord.clone(),
            node_at: self.node_at.clone(),
            // Scratch is per-search state; a clone starts fresh.
            scratch: Mutex::new(Scratch::default()),
        }
    }
}

/// Reusable traversal buffers (see [`IncrementalDag::scratch`]).
#[derive(Debug, Default)]
struct Scratch {
    /// Epoch-marked visited table: `mark[x] == epoch` means visited in
    /// the current search, so each search is O(1)-membership without
    /// clearing.
    mark: Vec<u32>,
    epoch: u32,
    /// The DFS stack.
    stack: Vec<u32>,
    /// The affected region of a reordering insertion: nodes reached
    /// forward from the edge's head, backward from its tail.
    delta_f: Vec<u32>,
    delta_b: Vec<u32>,
    /// The positions the affected region occupies.
    slots: Vec<u32>,
}

impl Scratch {
    /// Start a fresh search over `n` nodes: bump the epoch (rolling
    /// over by clearing), size the table, empty the stack.
    fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mark.iter_mut().for_each(|m| *m = 0);
                1
            }
        };
        self.stack.clear();
    }

    /// Mark `x` visited; returns whether it was fresh.
    fn visit(&mut self, x: u32) -> bool {
        let fresh = self.mark[x as usize] != self.epoch;
        self.mark[x as usize] = self.epoch;
        fresh
    }
}

/// Witness that an edge insertion would have closed a directed cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WouldCycle;

impl IncrementalDag {
    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.succ.len()
    }

    /// Add a fresh node at the end of the topological order.
    pub(crate) fn add_node(&mut self) -> u32 {
        let u = self.succ.len() as u32;
        self.succ.push(AdjList::default());
        self.pred.push(AdjList::default());
        self.ord.push(u);
        self.node_at.push(u);
        u
    }

    /// The nodes in topological order (a valid serialization order
    /// when nodes are transactions and edges are conflicts).
    pub(crate) fn order(&self) -> &[u32] {
        &self.node_at
    }

    /// [`IncrementalDag::add_edge`] that also says whether the edge is
    /// new (`Ok(false)`: it was already present) — what a journaling
    /// caller must know to retract exactly its own insertions.
    pub(crate) fn insert_edge(&mut self, u: u32, v: u32) -> Result<bool, WouldCycle> {
        if u == v {
            return Err(WouldCycle);
        }
        if self.succ[u as usize].contains(v) {
            return Ok(false);
        }
        if self.ord[u as usize] > self.ord[v as usize] {
            // Affected region: discover, check for a cycle, reorder.
            let lower = self.ord[v as usize];
            let upper = self.ord[u as usize];
            let sc = self.scratch.get_mut().unwrap_or_else(|e| e.into_inner());
            if !forward(&self.succ, &self.ord, sc, v, upper, u) {
                return Err(WouldCycle);
            }
            backward(&self.pred, &self.ord, sc, u, lower);
            reorder(&mut self.ord, &mut self.node_at, sc);
        }
        self.succ[u as usize].insert(v);
        self.pred[v as usize].insert(u);
        Ok(true)
    }

    /// Remove the edge `u → v`.
    ///
    /// Sound only in **LIFO (journal) order**: the undo-log replays a
    /// push's freshly-inserted edges in reverse insertion order, so at
    /// removal time the maintained topological order satisfies a
    /// superset of the remaining constraints and *stays valid* — no
    /// reordering is needed, which is what keeps Pearce–Kelly sound
    /// under retraction. Removing an arbitrary edge out of order is
    /// also safe for the order invariant (fewer constraints), but the
    /// affected-region bookkeeping of future insertions would then be
    /// conservative rather than tight; the monitor only ever removes
    /// in LIFO order.
    ///
    /// Panics if the edge is absent (the journal guarantees presence).
    pub(crate) fn remove_edge(&mut self, u: u32, v: u32) {
        let removed = self.succ[u as usize].remove(v) && self.pred[v as usize].remove(u);
        assert!(removed, "remove_edge({u}, {v}): edge not present");
    }

    /// Remove the most recently added node, which must be edgeless
    /// (the undo-log removes a push's edges first) and must be the
    /// highest-numbered node (LIFO again). Its slot in the maintained
    /// order is compacted away in `O(n)`; every other node keeps its
    /// relative position, so the order stays topological.
    pub(crate) fn remove_last_node(&mut self) {
        let u = (self.succ.len() - 1) as u32;
        assert!(
            self.succ[u as usize].is_empty() && self.pred[u as usize].is_empty(),
            "remove_last_node: node {u} still has edges"
        );
        let pos = self.ord[u as usize];
        self.node_at.remove(pos as usize);
        for (k, &x) in self.node_at.iter().enumerate().skip(pos as usize) {
            self.ord[x as usize] = k as u32;
        }
        self.succ.pop();
        self.pred.pop();
        self.ord.pop();
    }

    /// Cut the graph down, in its own storage, to the subgraph induced
    /// by the `kept` nodes, writing the old→new numbering into `map`
    /// (one entry per old node; dropped nodes map to `u32::MAX`).
    ///
    /// Kept nodes are renumbered **monotonically in their old ids**,
    /// which preserves the undo layer's LIFO `remove_last_node`
    /// contract — the youngest surviving node stays the
    /// highest-numbered one — and lets each kept row be filtered and
    /// renamed in place without re-sorting. The maintained order is the
    /// old one restricted to the kept nodes: still topological, since
    /// every kept edge was already there.
    pub(crate) fn retain_induced(&mut self, kept: &[bool], map: &mut [u32]) {
        let n = self.len();
        assert_eq!(kept.len(), n, "retain_induced: kept mask size");
        assert_eq!(map.len(), n, "retain_induced: map size");
        let mut next = 0u32;
        for (u, &k) in kept.iter().enumerate() {
            map[u] = if k {
                next += 1;
                next - 1
            } else {
                u32::MAX
            };
        }
        // A kept row moves down to its new id, whose old tenant was
        // dropped or has already moved further down.
        for u in (0..n).filter(|&u| kept[u]) {
            let new = map[u] as usize;
            self.succ.swap(new, u);
            self.pred.swap(new, u);
            self.succ[new].retain_renamed(map);
            self.pred[new].retain_renamed(map);
        }
        self.succ.truncate(next as usize);
        self.pred.truncate(next as usize);
        let mut at = 0;
        for k in 0..n {
            let new = map[self.node_at[k] as usize];
            if new != u32::MAX {
                self.node_at[at] = new;
                self.ord[new as usize] = at as u32;
                at += 1;
            }
        }
        self.node_at.truncate(at);
        self.ord.truncate(at);
    }

    /// Would inserting every edge `s → target` (for `s` in `sources`)
    /// keep the graph acyclic? Since all candidate edges end at the
    /// same node, a cycle can only arise if `target` already reaches
    /// one of the sources — checked by a forward search pruned by the
    /// topological order (edges only ever go order-forward), without
    /// touching the graph. The sources are any re-iterable sequence, so
    /// a caller whose sources sit in two places (a conflict graph's
    /// last writer and reader list) need not copy them into one slice
    /// first.
    pub(crate) fn admits_edges_from<I>(&self, sources: I, target: u32) -> bool
    where
        I: Iterator<Item = u32> + Clone,
    {
        let Some(limit) = sources.clone().map(|s| self.ord[s as usize]).max() else {
            return true;
        };
        if sources.clone().any(|s| s == target) {
            return false;
        }
        if self.ord[target as usize] > limit {
            return true;
        }
        // DFS forward from `target` over nodes with `ord ≤ limit`;
        // reaching any source is the cycle witness.
        let mut guard = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let sc = &mut *guard;
        sc.begin(self.len());
        sc.stack.push(target);
        while let Some(x) = sc.stack.pop() {
            if !sc.visit(x) {
                continue;
            }
            for &y in self.succ[x as usize].as_slice() {
                if sources.clone().any(|s| s == y) {
                    return false;
                }
                if self.ord[y as usize] <= limit {
                    sc.stack.push(y);
                }
            }
        }
        true
    }

    /// Bytes of graph state: the four per-node rows plus the lists
    /// that outgrew their row (the traversal buffers are not state).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.len() * 2 * (size_of::<AdjList>() + size_of::<u32>())
            + self
                .succ
                .iter()
                .chain(&self.pred)
                .map(AdjList::spill_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
impl IncrementalDag {
    /// Is `u → v` present?
    pub(crate) fn has_edge(&self, u: u32, v: u32) -> bool {
        self.succ[u as usize].contains(v)
    }

    /// Total number of edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.succ.iter().map(AdjList::len).sum()
    }

    /// The maintained topological order's position of `u`.
    pub(crate) fn position(&self, u: u32) -> u32 {
        self.ord[u as usize]
    }

    /// Insert `u → v`, restoring the topological order. Returns
    /// [`WouldCycle`] — with the graph **unchanged** — if the edge
    /// would close a cycle (including the self-loop `u → u`).
    pub(crate) fn add_edge(&mut self, u: u32, v: u32) -> Result<(), WouldCycle> {
        self.insert_edge(u, v).map(|_| ())
    }
}

/// DFS forward from `start` over nodes with `ord ≤ limit`, collecting
/// visits into `sc.delta_f`. Returns `false` if `forbidden` is reached
/// (a cycle witness).
fn forward(
    succ: &[AdjList],
    ord: &[u32],
    sc: &mut Scratch,
    start: u32,
    limit: u32,
    forbidden: u32,
) -> bool {
    sc.begin(succ.len());
    sc.stack.push(start);
    sc.delta_f.clear();
    while let Some(x) = sc.stack.pop() {
        if !sc.visit(x) {
            continue;
        }
        sc.delta_f.push(x);
        for &y in succ[x as usize].as_slice() {
            if y == forbidden {
                return false;
            }
            if ord[y as usize] <= limit {
                sc.stack.push(y);
            }
        }
    }
    true
}

/// DFS backward from `start` over nodes with `ord ≥ limit`, collecting
/// visits into `sc.delta_b`.
fn backward(pred: &[AdjList], ord: &[u32], sc: &mut Scratch, start: u32, limit: u32) {
    sc.begin(pred.len());
    sc.stack.push(start);
    sc.delta_b.clear();
    while let Some(x) = sc.stack.pop() {
        if !sc.visit(x) {
            continue;
        }
        sc.delta_b.push(x);
        for &y in pred[x as usize].as_slice() {
            if ord[y as usize] >= limit {
                sc.stack.push(y);
            }
        }
    }
}

/// Reassign the affected nodes' positions: the backward set keeps its
/// internal order and moves wholly before the forward set, reusing
/// exactly the position multiset the two sets occupied.
fn reorder(ord: &mut [u32], node_at: &mut [u32], sc: &mut Scratch) {
    sc.delta_b.sort_unstable_by_key(|&x| ord[x as usize]);
    sc.delta_f.sort_unstable_by_key(|&x| ord[x as usize]);
    sc.slots.clear();
    sc.slots.extend(
        sc.delta_b
            .iter()
            .chain(sc.delta_f.iter())
            .map(|&x| ord[x as usize]),
    );
    sc.slots.sort_unstable();
    for (k, &x) in sc.delta_b.iter().chain(sc.delta_f.iter()).enumerate() {
        let pos = sc.slots[k];
        ord[x as usize] = pos;
        node_at[pos as usize] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_topo() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 3);
        assert!(!g.has_cycle());
        let order = g.topo_sort().unwrap();
        let pos = |u: usize| order.iter().position(|&x| x == u).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(2) && pos(0) < pos(3));
    }

    #[test]
    fn cycle_detected_and_found() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        assert!(g.has_cycle());
        assert!(g.topo_sort().is_none());
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.len(), 3);
        // Every consecutive pair (and the closing pair) is an edge.
        for w in cycle.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        assert!(g.has_edge(*cycle.last().unwrap(), cycle[0]));
    }

    #[test]
    fn self_loop_is_cycle() {
        let mut g = DiGraph::new(2);
        g.add_edge(1, 1);
        assert!(g.has_cycle());
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle, vec![1]);
        assert!(g.has_edge(1, 1));
    }

    #[test]
    fn all_topo_sorts_of_antichain() {
        let g = DiGraph::new(3);
        let all = g.all_topo_sorts(100).unwrap();
        assert_eq!(all.len(), 6); // 3! orders of an antichain
    }

    #[test]
    fn all_topo_sorts_capped() {
        let g = DiGraph::new(5);
        let all = g.all_topo_sorts(10).unwrap();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn all_topo_sorts_respects_edges() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 2);
        let all = g.all_topo_sorts(100).unwrap();
        assert_eq!(all.len(), 3); // 0 before 2, 1 anywhere
        for order in &all {
            let pos = |u: usize| order.iter().position(|&x| x == u).unwrap();
            assert!(pos(0) < pos(2));
        }
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.topo_sort().unwrap(), Vec::<usize>::new());
        assert!(g.find_cycle().is_none());
    }

    /// Is the maintained order a valid topological order?
    fn order_valid(g: &IncrementalDag) -> bool {
        (0..g.len() as u32).all(|u| {
            (0..g.len() as u32).all(|v| !g.has_edge(u, v) || g.position(u) < g.position(v))
        })
    }

    #[test]
    fn incremental_dag_fast_path_and_reorder() {
        let mut g = IncrementalDag::default();
        for _ in 0..4 {
            g.add_node();
        }
        // Forward edge: O(1) path.
        g.add_edge(0, 1).unwrap();
        // Backward edge 3 → 0 forces a reorder.
        g.add_edge(3, 0).unwrap();
        assert!(order_valid(&g));
        g.add_edge(2, 3).unwrap();
        assert!(order_valid(&g));
        // Now 2 ≺ 3 ≺ 0 ≺ 1; closing the loop must fail untouched.
        let before = (g.edge_count(), g.order().to_vec());
        assert_eq!(g.add_edge(1, 2), Err(WouldCycle));
        assert_eq!((g.edge_count(), g.order().to_vec()), before);
        assert_eq!(g.add_edge(0, 0), Err(WouldCycle));
        // Duplicate insertion is a no-op.
        g.add_edge(2, 3).unwrap();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn incremental_dag_admits_edges_into() {
        let mut g = IncrementalDag::default();
        for _ in 0..3 {
            g.add_node();
        }
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        // 2 → {0}: 2 reaches 0? No — but edge 0→1→2 means adding edges
        // {0}→2 is fine while {sources containing 2} is a self-loop.
        assert!(g.admits_edges_from([0, 1].into_iter(), 2));
        assert!(
            !g.admits_edges_from(std::iter::once(2), 2),
            "self-loop rejected"
        );
        // Edge (2 → 0) would close the cycle 0→1→2→0: check the
        // admission test for sources={0} into target=2 … that models
        // inserting 0→2 (fine), while inserting into 0 from 2's
        // component must be caught:
        assert!(!g.admits_edges_from(std::iter::once(0), 0));
        // target=0, sources={2}: edge 2→0 closes a cycle iff 0 reaches 2.
        assert!(!g.admits_edges_from(std::iter::once(2), 0));
        assert!(
            g.admits_edges_from(std::iter::empty(), 0),
            "no edges, nothing to do"
        );
    }

    #[test]
    fn lifo_edge_removal_keeps_order_valid() {
        let mut g = IncrementalDag::default();
        for _ in 0..4 {
            g.add_node();
        }
        g.add_edge(0, 1).unwrap();
        g.add_edge(3, 0).unwrap(); // forces a reorder
        g.add_edge(2, 3).unwrap();
        // Undo in LIFO order; after removing 2→3 and 3→0 the once
        // cycle-closing edge 1→2 becomes insertable.
        g.remove_edge(2, 3);
        g.remove_edge(3, 0);
        assert!(order_valid(&g));
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        assert!(order_valid(&g));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn remove_last_node_compacts_the_order() {
        let mut g = IncrementalDag::default();
        for _ in 0..3 {
            g.add_node();
        }
        // Reorder so node 2 is NOT last in the maintained order.
        g.add_edge(2, 0).unwrap();
        assert_eq!(g.position(2), 0);
        g.remove_edge(2, 0);
        g.remove_last_node();
        assert_eq!(g.len(), 2);
        assert!(order_valid(&g));
        // Remaining nodes occupy positions 0..2.
        let mut pos: Vec<u32> = (0..2).map(|u| g.position(u)).collect();
        pos.sort_unstable();
        assert_eq!(pos, vec![0, 1]);
        // The graph is fully usable afterwards.
        let n = g.add_node();
        g.add_edge(n, 0).unwrap();
        assert!(order_valid(&g));
    }

    #[test]
    fn retain_induced_keeps_only_edges_among_kept_nodes() {
        // 0 → 1 → 2 → 3, plus 0 → 4; keep {0, 2, 4}: the path 0 ⇝ 2
        // through dropped node 1 leaves no edge behind.
        let mut g = IncrementalDag::default();
        for _ in 0..5 {
            g.add_node();
        }
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g.add_edge(0, 4).unwrap();
        let mut map = vec![0; 5];
        g.retain_induced(&[true, false, true, false, true], &mut map);
        assert_eq!(map, vec![0, u32::MAX, 1, u32::MAX, 2]);
        assert_eq!(g.len(), 3);
        assert!(!g.has_edge(0, 1), "0 ⇝ 2 ran through dropped 1");
        assert!(g.has_edge(0, 2), "the edge between kept 0 and 4 stays");
        assert_eq!(g.edge_count(), 1);
        assert!(order_valid(&g));
    }

    /// Model test: the retained edges are exactly the old edges between
    /// kept nodes, renamed; the renaming is monotone; and the order is
    /// the old order restricted to the kept nodes, still valid.
    #[test]
    fn retain_induced_matches_induced_subgraph_model() {
        let mut state = 0xABCDEF0123456789u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let n = 4 + (next() % 12) as usize;
            let mut g = IncrementalDag::default();
            for _ in 0..n {
                g.add_node();
            }
            for _ in 0..(3 * n) {
                let u = (next() % n as u64) as u32;
                let v = (next() % n as u64) as u32;
                let _ = g.add_edge(u, v);
            }
            let kept: Vec<bool> = (0..n).map(|_| next() % 2 == 0).collect();
            let old = g.clone();
            let mut map = vec![0; n];
            g.retain_induced(&kept, &mut map);
            let kept_ids: Vec<usize> = (0..n).filter(|&u| kept[u]).collect();
            for (new, &u) in kept_ids.iter().enumerate() {
                assert_eq!(map[u], new as u32, "round {round}: map not monotone");
            }
            assert!((0..n).all(|u| kept[u] || map[u] == u32::MAX));
            assert_eq!(g.len(), kept_ids.len());
            let mut induced = 0;
            for &a in &kept_ids {
                for &b in &kept_ids {
                    let had = old.has_edge(a as u32, b as u32);
                    induced += had as usize;
                    assert_eq!(
                        (
                            g.has_edge(map[a], map[b]),
                            g.pred[map[b] as usize].contains(map[a])
                        ),
                        (had, had),
                        "round {round}: edge {a}→{b} not induced"
                    );
                }
            }
            assert_eq!(g.edge_count(), induced, "round {round}: stray edges");
            let restricted: Vec<u32> = (old.order().iter())
                .filter(|&&u| kept[u as usize])
                .map(|&u| map[u as usize])
                .collect();
            assert_eq!(g.order(), restricted.as_slice(), "round {round}");
            assert!(order_valid(&g), "round {round}: order broken");
        }
    }

    /// Model test: journaled insertions undone in LIFO order restore
    /// cycle-detection behaviour exactly (parity with a batch DiGraph
    /// rebuilt from the surviving edges).
    #[test]
    fn lifo_undo_matches_batch_model() {
        let mut state = 0xDEADBEEFCAFEBABEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let n = 3 + (next() % 6) as usize;
            let mut inc = IncrementalDag::default();
            for _ in 0..n {
                inc.add_node();
            }
            let mut journal: Vec<(u32, u32)> = Vec::new();
            for _ in 0..(4 * n) {
                let u = (next() % n as u64) as u32;
                let v = (next() % n as u64) as u32;
                if !inc.has_edge(u, v) && inc.add_edge(u, v).is_ok() {
                    journal.push((u, v));
                }
            }
            // Undo a random suffix in LIFO order.
            let keep = (next() % (journal.len() as u64 + 1)) as usize;
            for &(u, v) in journal[keep..].iter().rev() {
                inc.remove_edge(u, v);
            }
            journal.truncate(keep);
            assert!(order_valid(&inc), "round {round}: order broken after undo");
            // Parity with a batch graph over the surviving edges.
            let mut batch = DiGraph::new(n);
            for &(u, v) in &journal {
                batch.add_edge(u as usize, v as usize);
            }
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    let mut probe = batch.clone();
                    probe.add_edge(u as usize, v as usize);
                    assert_eq!(
                        inc.admits_edges_from(std::iter::once(u), v),
                        !probe.has_cycle(),
                        "round {round}: admissibility diverged on {u}→{v}"
                    );
                }
            }
        }
    }

    /// Model test: random edge insertions agree with the batch DiGraph
    /// on cycle detection, and the maintained order stays topological.
    #[test]
    fn incremental_dag_matches_batch_model() {
        // Deterministic pseudo-random stream (no rand dev-dep in core).
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..50 {
            let n = 2 + (next() % 9) as usize;
            let mut inc = IncrementalDag::default();
            for _ in 0..n {
                inc.add_node();
            }
            let mut batch = DiGraph::new(n);
            for _ in 0..(3 * n) {
                let u = (next() % n as u64) as u32;
                let v = (next() % n as u64) as u32;
                let mut probe = batch.clone();
                probe.add_edge(u as usize, v as usize);
                let admissible = inc.admits_edges_from(std::iter::once(u), v);
                match inc.add_edge(u, v) {
                    Ok(()) => {
                        assert!(
                            !probe.has_cycle(),
                            "round {round}: incremental accepted a cyclic edge {u}→{v}"
                        );
                        assert!(admissible, "round {round}: admits_edges_from disagreed");
                        batch = probe;
                        assert!(order_valid(&inc), "round {round}: order broken");
                    }
                    Err(WouldCycle) => {
                        assert!(
                            probe.has_cycle(),
                            "round {round}: incremental rejected an acyclic edge {u}→{v}"
                        );
                        assert!(u == v || !admissible);
                        assert!(order_valid(&inc));
                    }
                }
            }
        }
    }
}
