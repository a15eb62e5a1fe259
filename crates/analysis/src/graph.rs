//! The static mixed conflict graph over program pairs.
//!
//! Nodes are the workload's programs; an edge between two programs
//! carries the number of **potential conflict instances** between
//! them — for every item both may touch, one instance per conflicting
//! operation pair (`w–r`, `w–w`, `r–w`). The §2.2 transaction rules
//! bound every program to at most one read and one write per item
//! (the interpreter coalesces re-reads through its read cache and
//! rejects double writes), so each of the three indicator products is
//! 0 or 1 and the per-item count is exact over the footprint
//! over-approximation.
//!
//! The safety criterion (`StaticConflictGraph::is_forest`) is the
//! multigraph analogue of acyclicity: **no pair carries two or more
//! instances** (two instances between the same pair can order into an
//! antiparallel two-cycle) **and the simple pair graph is acyclic**
//! (a simple cycle of single-instance edges can orient into a
//! directed cycle). A directed serialization-graph cycle needs either
//! a 2-cycle (two instances on one pair) or a simple cycle of length
//! ≥ 3 — a forest has neither, under *every* interleaving. The same
//! argument per conjunct scope gives per-projection acyclicity, i.e.
//! PWSR robustness.

use pwsr_core::ids::ItemId;
use pwsr_core::state::ItemSet;
use pwsr_tplang::analysis::RwFootprint;

/// One edge of the static conflict graph: programs `a < b` (workload
/// indices, not transaction ids) with `instances` potential conflict
/// instances across `items`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ConflictEdge {
    /// Lower program index.
    pub(crate) a: usize,
    /// Higher program index.
    pub(crate) b: usize,
    /// Total potential conflict instances between the two programs.
    pub(crate) instances: usize,
    /// The items contributing at least one instance.
    pub(crate) items: Vec<ItemId>,
}

/// The static (undirected) conflict multigraph of a program mix,
/// optionally restricted to a projection scope.
#[derive(Clone, Debug)]
pub(crate) struct StaticConflictGraph {
    n: usize,
    edges: Vec<ConflictEdge>,
}

/// Potential conflict instances between two programs on one item:
/// `[w_a][r_b] + [w_a][w_b] + [r_a][w_b]`, each indicator exact under
/// the §2.2 per-item operation bound.
fn instances_on(a: &RwFootprint, b: &RwFootprint, item: ItemId) -> usize {
    let (ra, wa) = (a.reads.contains(item), a.writes.contains(item));
    let (rb, wb) = (b.reads.contains(item), b.writes.contains(item));
    usize::from(wa && rb) + usize::from(wa && wb) + usize::from(ra && wb)
}

impl StaticConflictGraph {
    /// Build the graph over `footprints`, counting only items inside
    /// `scope` (`None` = all items — the global graph).
    pub(crate) fn build(
        footprints: &[RwFootprint],
        scope: Option<&ItemSet>,
    ) -> StaticConflictGraph {
        let n = footprints.len();
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let shared = footprints[a].items().intersection(&footprints[b].items());
                let mut instances = 0usize;
                let mut items = Vec::new();
                for item in shared.iter() {
                    if scope.is_some_and(|s| !s.contains(item)) {
                        continue;
                    }
                    let c = instances_on(&footprints[a], &footprints[b], item);
                    if c > 0 {
                        instances += c;
                        items.push(item);
                    }
                }
                if instances > 0 {
                    edges.push(ConflictEdge {
                        a,
                        b,
                        instances,
                        items,
                    });
                }
            }
        }
        StaticConflictGraph { n, edges }
    }

    /// The conflict edges, lexicographic by `(a, b)`.
    pub(crate) fn edges(&self) -> &[ConflictEdge] {
        &self.edges
    }

    /// The first pair carrying two or more conflict instances (the
    /// pairs a 2-cycle could form between), if any.
    pub(crate) fn tangled_pair(&self) -> Option<&ConflictEdge> {
        self.edges.iter().find(|e| e.instances >= 2)
    }

    /// Is the conflict multigraph a forest — no tangled pair and the
    /// simple pair graph acyclic? This is the robustness criterion:
    /// a forest admits no directed serialization-graph cycle under
    /// any interleaving (see the module docs).
    pub(crate) fn is_forest(&self) -> bool {
        if self.tangled_pair().is_some() {
            return false;
        }
        let mut uf = UnionFind::new(self.n);
        self.edges.iter().all(|e| uf.union(e.a, e.b))
    }

    /// Connected components of the pair graph, each sorted ascending;
    /// isolated programs appear as singleton components. Components
    /// are conflict-closed: no edge crosses two components, so a
    /// component's robustness composes with any schedule of the rest.
    pub(crate) fn components(&self) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(self.n);
        for e in &self.edges {
            uf.union(e.a, e.b);
        }
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for v in 0..self.n {
            by_root.entry(uf.find(v)).or_default().push(v);
        }
        by_root.into_values().collect()
    }

    /// [`StaticConflictGraph::is_forest`] restricted to the programs
    /// in `members` (edges with both endpoints inside). For a
    /// connected component this equals the forest check of the
    /// induced subgraph.
    pub(crate) fn is_forest_within(&self, members: &[usize]) -> bool {
        let inside = |v: usize| members.contains(&v);
        let mut uf = UnionFind::new(self.n);
        self.edges
            .iter()
            .filter(|e| inside(e.a) && inside(e.b))
            .all(|e| e.instances < 2 && uf.union(e.a, e.b))
    }
}

/// Does any ordered pair of distinct programs have a potential
/// cross reads-from (`writes(a) ∩ reads(b) ≠ ∅`)? When not, every
/// read in every interleaving is served by the initial state (the
/// interpreter serves own-writes from its write buffer without
/// emitting a read), so delayed-read holds trivially.
pub(crate) fn has_cross_reads_from(footprints: &[RwFootprint]) -> bool {
    footprints.iter().enumerate().any(|(i, a)| {
        footprints
            .iter()
            .enumerate()
            .any(|(j, b)| i != j && !a.writes.is_disjoint(&b.reads))
    })
}

/// [`has_cross_reads_from`] restricted to a member subset.
pub(crate) fn has_cross_reads_from_within(footprints: &[RwFootprint], members: &[usize]) -> bool {
    members.iter().any(|&i| {
        members
            .iter()
            .any(|&j| i != j && !footprints[i].writes.is_disjoint(&footprints[j].reads))
    })
}

/// Path-halving union–find. `union` returns `false` when the two
/// nodes were already connected (i.e. the new edge closes a cycle).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::catalog::Catalog;
    use pwsr_core::value::Domain;
    use pwsr_tplang::analysis::rw_footprint;
    use pwsr_tplang::parser::parse_program;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["a", "b", "c", "d"] {
            cat.add_item(name, Domain::int_range(-1000, 1000));
        }
        cat
    }

    fn feet(cat: &Catalog, bodies: &[&str]) -> Vec<RwFootprint> {
        bodies
            .iter()
            .enumerate()
            .map(|(k, b)| rw_footprint(&parse_program(&format!("P{k}"), b).unwrap(), cat))
            .collect()
    }

    #[test]
    fn disjoint_programs_have_no_edges() {
        let cat = catalog();
        let f = feet(&cat, &["a := a + 1;", "b := b + 1;", "c := c + 1;"]);
        let g = StaticConflictGraph::build(&f, None);
        assert!(g.edges().is_empty());
        assert!(g.is_forest());
        assert_eq!(g.components(), vec![vec![0], vec![1], vec![2]]);
        assert!(!has_cross_reads_from(&f));
    }

    #[test]
    fn rmw_pair_on_one_item_is_tangled() {
        let cat = catalog();
        // Both read and write `a`: w0–r1, w0–w1, r0–w1 = 3 instances.
        let f = feet(&cat, &["a := a + 1;", "a := a + 2;"]);
        let g = StaticConflictGraph::build(&f, None);
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.edges()[0].instances, 3);
        assert!(g.tangled_pair().is_some());
        assert!(!g.is_forest());
        assert!(has_cross_reads_from(&f));
    }

    #[test]
    fn single_conflict_star_is_forest() {
        let cat = catalog();
        // P0 writes a and b (blind); P1 reads a, P2 reads b: two
        // single-instance edges sharing P0 — a star, hence a forest.
        let f = feet(&cat, &["a := 1; b := 2;", "c := a;", "d := b;"]);
        let g = StaticConflictGraph::build(&f, None);
        assert_eq!(g.edges().len(), 2);
        assert!(g.edges().iter().all(|e| e.instances == 1));
        assert!(g.is_forest());
        assert_eq!(g.components(), vec![vec![0, 1, 2]]);
        assert!(has_cross_reads_from(&f));
    }

    #[test]
    fn simple_cycle_of_single_edges_is_not_forest() {
        let cat = catalog();
        // P0 w(a) r(c)… build a 3-cycle of single instances:
        // P0: w a, r b ; P1: w b, r c ; P2: w c, r a — each ordered
        // pair shares exactly one conflicting item.
        let f = feet(
            &cat,
            &["a := 1; d := b;", "b := 1; d := c;", "c := 1; d := a;"],
        );
        // `d` is written by all three — restrict scope to {a, b, c} to
        // isolate the cycle.
        let scope = ItemSet::from_iter(["a", "b", "c"].iter().map(|n| cat.lookup(n).unwrap()));
        let g = StaticConflictGraph::build(&f, Some(&scope));
        assert_eq!(g.edges().len(), 3);
        assert!(g.tangled_pair().is_none());
        assert!(!g.is_forest(), "three single edges form a cycle");
    }

    #[test]
    fn scope_restriction_drops_out_of_scope_conflicts() {
        let cat = catalog();
        let f = feet(&cat, &["a := a + 1;", "a := a + 2;"]);
        let scope = ItemSet::from_iter([cat.lookup("b").unwrap()]);
        let g = StaticConflictGraph::build(&f, Some(&scope));
        assert!(g.edges().is_empty());
        assert!(g.is_forest());
    }

    #[test]
    fn forest_within_members_ignores_outside_edges() {
        let cat = catalog();
        // P0/P1 tangle on a; P2/P3 are a clean single-edge pair on c.
        let f = feet(&cat, &["a := a + 1;", "a := a + 2;", "c := 1;", "d := c;"]);
        let g = StaticConflictGraph::build(&f, None);
        assert!(!g.is_forest());
        assert!(g.is_forest_within(&[2, 3]));
        assert!(!g.is_forest_within(&[0, 1]));
        assert!(!has_cross_reads_from_within(&f, &[0, 3]));
        assert!(has_cross_reads_from_within(&f, &[2, 3]));
    }
}
