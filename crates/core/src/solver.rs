//! Deciding consistency of (restrictions of) database states.
//!
//! §2.1: `DS^d` is consistent iff *there exist* values for the items not
//! in `d` extending it to a consistent state. Over the finite domains of
//! the catalog this is decidable; [`Solver`] implements it by
//! backtracking search with three-valued (Kleene) pruning.
//!
//! When the conjuncts are disjoint the search decomposes per conjunct —
//! this *is* Lemma 1 ("consistency of each data set implies consistency
//! of the database"), and the decomposition is the solver's main
//! optimization. With overlapping conjuncts (Example 5) the solver
//! falls back to a joint search over the union of the scopes.

use crate::catalog::Catalog;
use crate::constraint::{Cmp, Conjunct, Formula, IntegrityConstraint, Term};
use crate::error::Result;
use crate::ids::ItemId;
use crate::state::DbState;
use crate::value::{Domain, Value};
use std::cell::RefCell;
use std::collections::HashMap;

/// Memo key: a conjunct's index plus the queried state's restriction
/// to its scope, in ascending item order.
type RestrictionKey = (u32, Vec<(ItemId, Value)>);

/// Three-valued evaluation: `Some(b)` when the partial assignment
/// already determines the formula, `None` when unknown.
pub(crate) fn eval3(formula: &Formula, state: &DbState) -> Option<bool> {
    match formula {
        Formula::True => Some(true),
        Formula::False => Some(false),
        Formula::Atom(l, cmp, r) => {
            let lv = l.eval(state).ok()?;
            let rv = r.eval(state).ok()?;
            cmp.apply(&lv, &rv).ok()
        }
        Formula::And(parts) => {
            let mut unknown = false;
            for p in parts {
                match eval3(p, state) {
                    Some(false) => return Some(false),
                    Some(true) => {}
                    None => unknown = true,
                }
            }
            if unknown {
                None
            } else {
                Some(true)
            }
        }
        Formula::Or(parts) => {
            let mut unknown = false;
            for p in parts {
                match eval3(p, state) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => unknown = true,
                }
            }
            if unknown {
                None
            } else {
                Some(false)
            }
        }
        Formula::Not(p) => eval3(p, state).map(|b| !b),
        Formula::Implies(p, q) => match (eval3(p, state), eval3(q, state)) {
            (Some(false), _) | (_, Some(true)) => Some(true),
            (Some(true), Some(false)) => Some(false),
            _ => None,
        },
    }
}

/// Decision procedure for consistency over a catalog's finite domains.
pub struct Solver<'a> {
    catalog: &'a Catalog,
    ic: &'a IntegrityConstraint,
    /// Restriction-consistency memo: (conjunct, its restriction of the
    /// queried state) → consistent? The strong-correctness checker asks
    /// the same per-conjunct subproblem over and over (every
    /// transaction's read state restricts to the *same* few
    /// assignments per conjunct — usually the empty one for scopes the
    /// transaction never touched), so the disjoint decomposition path
    /// caches its verdicts. The constraint and domains are borrowed
    /// immutably for the solver's lifetime, so entries never go stale.
    memo: RefCell<HashMap<RestrictionKey, bool>>,
    /// Search nodes visited over the solver's life, held to
    /// [`SEARCH_NODE_BUDGET`].
    #[cfg(test)]
    nodes: std::cell::Cell<u64>,
}

/// The most search nodes one solver may visit in the unit tests. The
/// five queries of `interval_pruning_makes_sums_tractable` visit
/// 60 611 nodes; without interval pruning one of them enumerates two
/// 20 001-value domains, so it reaches this bound within a second
/// instead of running for minutes.
#[cfg(test)]
const SEARCH_NODE_BUDGET: u64 = 250_000;

/// Memo-size guard: drop the cache rather than grow without bound on
/// adversarial query streams (each entry is one restriction).
const MEMO_CAP: usize = 1 << 20;

impl<'a> Solver<'a> {
    /// A solver for `ic` over `catalog`'s domains.
    pub fn new(catalog: &'a Catalog, ic: &'a IntegrityConstraint) -> Solver<'a> {
        Solver {
            catalog,
            ic,
            memo: RefCell::new(HashMap::new()),
            #[cfg(test)]
            nodes: std::cell::Cell::new(0),
        }
    }

    /// The constraint being decided.
    pub fn constraint(&self) -> &IntegrityConstraint {
        self.ic
    }

    /// `DS ⊨ IC` for a state assigning every constrained item.
    pub fn is_consistent_total(&self, state: &DbState) -> Result<bool> {
        self.ic.eval(state)
    }

    /// Is the (possibly partial) state consistent in the §2.1 sense:
    /// does a consistent extension over the finite domains exist?
    ///
    /// A total state reduces to plain evaluation; unconstrained items
    /// are ignored (any domain value extends them).
    pub fn is_consistent(&self, partial: &DbState) -> bool {
        self.find_extension_internal(partial, false).is_some()
    }

    /// Enumerate consistent total states over the *constrained* items,
    /// up to `cap` of them (for exhaustive small-scale experiments).
    pub fn enumerate_consistent(&self, cap: usize) -> Vec<DbState> {
        let mut out = Vec::new();
        let vars: Vec<ItemId> = self.ic.all_items().iter().collect();
        let formula = self.ic_as_formula();
        let mut state = DbState::new();
        self.enumerate_rec(&formula, &vars, 0, &mut state, &mut out, cap);
        out
    }

    fn enumerate_rec(
        &self,
        formula: &Formula,
        vars: &[ItemId],
        k: usize,
        state: &mut DbState,
        out: &mut Vec<DbState>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        if eval3(formula, state) == Some(false) {
            return;
        }
        if k == vars.len() {
            if self.ic.eval(state).unwrap_or(false) {
                out.push(state.clone());
            }
            return;
        }
        let item = vars[k];
        for v in self.catalog.domain(item).iter() {
            state.set(item, v);
            self.enumerate_rec(formula, vars, k + 1, state, out, cap);
            if out.len() >= cap {
                break;
            }
        }
        state.unset(item);
    }

    fn ic_as_formula(&self) -> Formula {
        Formula::And(
            self.ic
                .conjuncts()
                .iter()
                .map(|c| c.formula().clone())
                .collect(),
        )
    }

    /// Core search. When `ic` is disjoint, each conjunct is solved
    /// independently (Lemma 1); otherwise all overlapping conjuncts are
    /// solved jointly.
    fn find_extension_internal(&self, partial: &DbState, build: bool) -> Option<DbState> {
        let mut witness = if build {
            partial.clone()
        } else {
            DbState::new()
        };
        if self.ic.is_disjoint() {
            for (k, c) in self.ic.conjuncts().iter().enumerate() {
                if !build {
                    // Decision-only query: answer per (conjunct,
                    // restriction) from the memo.
                    if !self.conjunct_consistent_memo(k as u32, c, partial) {
                        return None;
                    }
                    continue;
                }
                let sub = self.solve_conjuncts(std::slice::from_ref(c), partial)?;
                witness = witness
                    .union(&sub)
                    .expect("conjunct scopes are disjoint from witness additions");
            }
            Some(witness)
        } else {
            let all: Vec<Conjunct> = self.ic.conjuncts().to_vec();
            let sub = self.solve_conjuncts(&all, partial)?;
            if build {
                witness = witness
                    .union(&sub)
                    .expect("joint solution agrees with the partial state");
            }
            Some(witness)
        }
    }

    /// Is `partial`'s restriction to conjunct `k`'s scope consistent?
    /// Memoized per `(conjunct, restriction)` — the repeated
    /// subproblems of `check_strong_correctness` (initial/final states
    /// and every transaction's read state against every conjunct) hit
    /// the cache instead of re-running the backtracking search.
    fn conjunct_consistent_memo(&self, k: u32, conjunct: &Conjunct, partial: &DbState) -> bool {
        let key: Vec<(ItemId, Value)> = conjunct
            .items()
            .iter()
            .filter_map(|item| partial.get(item).map(|v| (item, v.clone())))
            .collect();
        if let Some(&hit) = self.memo.borrow().get(&(k, key.clone())) {
            return hit;
        }
        let ok = self
            .solve_conjuncts(std::slice::from_ref(conjunct), partial)
            .is_some();
        let mut memo = self.memo.borrow_mut();
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.insert((k, key), ok);
        ok
    }

    /// Find values for the unassigned items of the given conjuncts'
    /// joint scope such that all of them hold. Returns the *full local
    /// assignment* (assigned + found) on success.
    fn solve_conjuncts(&self, conjuncts: &[Conjunct], partial: &DbState) -> Option<DbState> {
        // Local scope = union of conjunct scopes.
        let mut scope = crate::state::ItemSet::new();
        for c in conjuncts {
            scope = scope.union(c.items());
        }
        let mut local = partial.restrict(&scope);
        let mut unassigned: Vec<ItemId> =
            scope.iter().filter(|&i| local.get(i).is_none()).collect();
        // Smallest domains first: fail fast.
        unassigned.sort_by_key(|&i| self.catalog.domain(i).size());
        let formula = Formula::And(conjuncts.iter().map(|c| c.formula().clone()).collect());
        if self.search(&formula, &mut local, &unassigned, 0) {
            Some(local)
        } else {
            None
        }
    }

    fn search(
        &self,
        formula: &Formula,
        state: &mut DbState,
        unassigned: &[ItemId],
        k: usize,
    ) -> bool {
        #[cfg(test)]
        {
            let nodes = self.nodes.get() + 1;
            assert!(
                nodes <= SEARCH_NODE_BUDGET,
                "the search visited more than {SEARCH_NODE_BUDGET} nodes"
            );
            self.nodes.set(nodes);
        }
        match self.prune(formula, state) {
            Some(false) => return false,
            Some(true) if k == unassigned.len() => return true,
            _ => {}
        }
        if k == unassigned.len() {
            // Fully assigned but still unknown can only mean an
            // evaluation error (type mismatch): treat as inconsistent.
            return matches!(eval3(formula, state), Some(true));
        }
        let item = unassigned[k];
        for v in self.catalog.domain(item).iter() {
            state.set(item, v);
            if self.search(formula, state, unassigned, k + 1) {
                return true;
            }
        }
        state.unset(item);
        false
    }

    /// Three-valued evaluation strengthened with interval propagation:
    /// an atom over partially-assigned integer terms is decided when
    /// the terms' value intervals make it unconditionally true or
    /// false. This is what makes sum constraints (`a + b + c = total`)
    /// tractable — after the first assignment the remaining interval
    /// pins the atom without enumerating the cross product.
    fn prune(&self, formula: &Formula, state: &DbState) -> Option<bool> {
        match formula {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Atom(l, cmp, r) => {
                // Exact evaluation if fully assigned.
                if let (Ok(lv), Ok(rv)) = (l.eval(state), r.eval(state)) {
                    return cmp.apply(&lv, &rv).ok();
                }
                let li = self.interval(l, state)?;
                let ri = self.interval(r, state)?;
                decide_interval(*cmp, li, ri)
            }
            Formula::And(parts) => {
                let mut unknown = false;
                for p in parts {
                    match self.prune(p, state) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => unknown = true,
                    }
                }
                if unknown {
                    None
                } else {
                    Some(true)
                }
            }
            Formula::Or(parts) => {
                let mut unknown = false;
                for p in parts {
                    match self.prune(p, state) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => unknown = true,
                    }
                }
                if unknown {
                    None
                } else {
                    Some(false)
                }
            }
            Formula::Not(p) => self.prune(p, state).map(|b| !b),
            Formula::Implies(p, q) => match (self.prune(p, state), self.prune(q, state)) {
                (Some(false), _) | (_, Some(true)) => Some(true),
                (Some(true), Some(false)) => Some(false),
                _ => None,
            },
        }
    }

    /// The value interval of an integer term under the partial
    /// assignment, with unassigned variables ranging over their
    /// domains. `None` when non-integer values are involved.
    fn interval(&self, term: &Term, state: &DbState) -> Option<(i64, i64)> {
        match term {
            Term::Const(Value::Int(v)) => Some((*v, *v)),
            Term::Const(_) => None,
            Term::Var(item) => match state.get(*item) {
                Some(Value::Int(v)) => Some((*v, *v)),
                Some(_) => None,
                None => domain_interval(self.catalog.domain(*item)),
            },
            Term::Add(l, r) => {
                let (ll, lh) = self.interval(l, state)?;
                let (rl, rh) = self.interval(r, state)?;
                Some((ll.saturating_add(rl), lh.saturating_add(rh)))
            }
            Term::Sub(l, r) => {
                let (ll, lh) = self.interval(l, state)?;
                let (rl, rh) = self.interval(r, state)?;
                Some((ll.saturating_sub(rh), lh.saturating_sub(rl)))
            }
            Term::Mul(l, r) => {
                let (ll, lh) = self.interval(l, state)?;
                let (rl, rh) = self.interval(r, state)?;
                let products = [
                    ll.saturating_mul(rl),
                    ll.saturating_mul(rh),
                    lh.saturating_mul(rl),
                    lh.saturating_mul(rh),
                ];
                Some((
                    *products.iter().min().expect("non-empty"),
                    *products.iter().max().expect("non-empty"),
                ))
            }
            Term::Neg(t) => {
                let (lo, hi) = self.interval(t, state)?;
                Some((hi.saturating_neg(), lo.saturating_neg()))
            }
            Term::Abs(t) => {
                let (lo, hi) = self.interval(t, state)?;
                let alo = if lo <= 0 && hi >= 0 {
                    0
                } else {
                    lo.abs().min(hi.abs())
                };
                let ahi = lo.saturating_abs().max(hi.saturating_abs());
                Some((alo, ahi))
            }
            Term::Min(l, r) => {
                let (ll, lh) = self.interval(l, state)?;
                let (rl, rh) = self.interval(r, state)?;
                Some((ll.min(rl), lh.min(rh)))
            }
            Term::Max(l, r) => {
                let (ll, lh) = self.interval(l, state)?;
                let (rl, rh) = self.interval(r, state)?;
                Some((ll.max(rl), lh.max(rh)))
            }
        }
    }
}

/// Decide a comparison from two value intervals, if possible.
fn decide_interval(cmp: Cmp, (ll, lh): (i64, i64), (rl, rh): (i64, i64)) -> Option<bool> {
    match cmp {
        Cmp::Lt => {
            if lh < rl {
                Some(true)
            } else if ll >= rh {
                Some(false)
            } else {
                None
            }
        }
        Cmp::Le => {
            if lh <= rl {
                Some(true)
            } else if ll > rh {
                Some(false)
            } else {
                None
            }
        }
        Cmp::Gt => decide_interval(Cmp::Lt, (rl, rh), (ll, lh)),
        Cmp::Ge => decide_interval(Cmp::Le, (rl, rh), (ll, lh)),
        Cmp::Eq => {
            if ll == lh && rl == rh && ll == rl {
                Some(true)
            } else if lh < rl || rh < ll {
                Some(false)
            } else {
                None
            }
        }
        Cmp::Ne => decide_interval(Cmp::Eq, (ll, lh), (rl, rh)).map(|b| !b),
    }
}

/// The integer hull of a domain (`None` for non-integer domains).
fn domain_interval(domain: &Domain) -> Option<(i64, i64)> {
    match domain {
        Domain::IntRange { lo, hi } => Some((*lo, *hi)),
        Domain::Bools => None,
        Domain::Explicit(values) => {
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for v in values {
                let x = v.as_int()?;
                lo = lo.min(x);
                hi = hi.max(x);
            }
            if lo > hi {
                None
            } else {
                Some((lo, hi))
            }
        }
    }
}

#[cfg(test)]
impl<'a> Solver<'a> {
    /// A consistent extension of `partial` over all constrained items,
    /// if one exists (unconstrained items are left untouched).
    pub(crate) fn find_consistent_extension(&self, partial: &DbState) -> Option<DbState> {
        self.find_extension_internal(partial, true)
    }

    /// A consistent state assigning *every* item of the catalog
    /// (constrained items via search, unconstrained ones with an
    /// arbitrary domain member). `None` if the IC is unsatisfiable
    /// within the domains.
    pub(crate) fn any_consistent_total(&self) -> Option<DbState> {
        let mut base = self.find_consistent_extension(&DbState::new())?;
        for item in self.catalog.items() {
            if base.get(item).is_none() {
                base.set(item, self.catalog.domain(item).any_value());
            }
        }
        Some(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Conjunct, Formula, Term};
    use crate::value::Domain;

    /// IC = (a=b) ∧ (c>0) over small int domains.
    fn setup() -> (Catalog, IntegrityConstraint) {
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(-5, 6));
        let b = cat.add_item("b", Domain::int_range(-5, 6));
        let c = cat.add_item("c", Domain::int_range(-5, 5));
        let ic = IntegrityConstraint::new(vec![
            Conjunct::new(0, Formula::eq(Term::var(a), Term::var(b))),
            Conjunct::new(1, Formula::gt(Term::var(c), Term::int(0))),
        ])
        .unwrap();
        (cat, ic)
    }

    #[test]
    fn paper_restriction_example() {
        // §2.1: DS2 = {(a,5),(b,6)} is inconsistent, but DS2^{a} = {(a,5)}
        // and DS2^{b} = {(b,6)} are each consistent.
        let (cat, ic) = setup();
        let solver = Solver::new(&cat, &ic);
        let a = cat.lookup("a").unwrap();
        let b = cat.lookup("b").unwrap();
        let c = cat.lookup("c").unwrap();
        let ds2 = DbState::from_pairs([(a, Value::Int(5)), (b, Value::Int(6)), (c, Value::Int(1))]);
        assert!(!solver.is_consistent(&ds2));
        assert!(solver.is_consistent(&DbState::from_pairs([(a, Value::Int(5))])));
        assert!(solver.is_consistent(&DbState::from_pairs([(b, Value::Int(6))])));
    }

    #[test]
    fn total_state_reduces_to_eval() {
        let (cat, ic) = setup();
        let solver = Solver::new(&cat, &ic);
        let a = cat.lookup("a").unwrap();
        let b = cat.lookup("b").unwrap();
        let c = cat.lookup("c").unwrap();
        let good =
            DbState::from_pairs([(a, Value::Int(2)), (b, Value::Int(2)), (c, Value::Int(3))]);
        assert!(solver.is_consistent_total(&good).unwrap());
        assert!(solver.is_consistent(&good));
        let bad =
            DbState::from_pairs([(a, Value::Int(2)), (b, Value::Int(2)), (c, Value::Int(-3))]);
        assert!(!solver.is_consistent_total(&bad).unwrap());
        assert!(!solver.is_consistent(&bad));
    }

    #[test]
    fn empty_state_consistent_iff_satisfiable() {
        let (cat, ic) = setup();
        let solver = Solver::new(&cat, &ic);
        assert!(solver.is_consistent(&DbState::new()));

        // Unsatisfiable within domains: a = b ∧ a > 5 with a,b ∈ [−5,5].
        let mut cat2 = Catalog::new();
        let a = cat2.add_item("a", Domain::int_range(-5, 5));
        let b = cat2.add_item("b", Domain::int_range(-5, 5));
        let ic2 = IntegrityConstraint::new(vec![Conjunct::new(
            0,
            Formula::and(vec![
                Formula::eq(Term::var(a), Term::var(b)),
                Formula::gt(Term::var(a), Term::int(5)),
            ]),
        )])
        .unwrap();
        let solver2 = Solver::new(&cat2, &ic2);
        assert!(!solver2.is_consistent(&DbState::new()));
        assert!(solver2.any_consistent_total().is_none());
    }

    #[test]
    fn witness_extension_is_consistent_and_extends() {
        let (cat, ic) = setup();
        let solver = Solver::new(&cat, &ic);
        let a = cat.lookup("a").unwrap();
        let partial = DbState::from_pairs([(a, Value::Int(3))]);
        let ext = solver.find_consistent_extension(&partial).unwrap();
        assert!(ext.extends(&partial));
        assert!(solver.is_consistent_total(&ext).unwrap());
    }

    #[test]
    fn any_consistent_total_covers_catalog() {
        let (cat, ic) = setup();
        let solver = Solver::new(&cat, &ic);
        let total = solver.any_consistent_total().unwrap();
        assert_eq!(total.len(), cat.len());
        assert!(solver.is_consistent_total(&total).unwrap());
    }

    #[test]
    fn enumerate_counts_match_closed_form() {
        // a=b has 12 solutions over [−5,6]; c>0 has 5. Total 60.
        let (cat, ic) = setup();
        let solver = Solver::new(&cat, &ic);
        let all = solver.enumerate_consistent(10_000);
        assert_eq!(all.len(), 60);
        for s in &all {
            assert!(solver.is_consistent_total(s).unwrap());
        }
        // Cap respected.
        assert_eq!(solver.enumerate_consistent(7).len(), 7);
    }

    #[test]
    fn overlapping_conjuncts_solved_jointly() {
        // §2.1's counterexample to Lemma 1 without disjointness:
        // IC = (a=5 → b=5) ∧ (c=5 → b=6).
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(0, 9));
        let b = cat.add_item("b", Domain::int_range(0, 9));
        let c = cat.add_item("c", Domain::int_range(0, 9));
        let ic = IntegrityConstraint::new_unchecked(vec![
            Conjunct::new(
                0,
                Formula::implies(
                    Formula::eq(Term::var(a), Term::int(5)),
                    Formula::eq(Term::var(b), Term::int(5)),
                ),
            ),
            Conjunct::new(
                1,
                Formula::implies(
                    Formula::eq(Term::var(c), Term::int(5)),
                    Formula::eq(Term::var(b), Term::int(6)),
                ),
            ),
        ])
        .unwrap();
        // Scopes {a,b} and {b,c} overlap on b.
        assert!(!ic.is_disjoint());
        let solver = Solver::new(&cat, &ic);
        // {(a,5)} alone: consistent (pick b=5, c≠5).
        assert!(solver.is_consistent(&DbState::from_pairs([(a, Value::Int(5))])));
        // {(c,5)} alone: consistent (pick b=6, a≠5).
        assert!(solver.is_consistent(&DbState::from_pairs([(c, Value::Int(5))])));
        // {(a,5),(c,5)} jointly: b must be both 5 and 6 — inconsistent,
        // even though each restriction is consistent. Lemma 1 fails
        // without disjointness, exactly as the paper warns.
        assert!(!solver.is_consistent(&DbState::from_pairs([
            (a, Value::Int(5)),
            (c, Value::Int(5))
        ])));
    }

    #[test]
    fn eval3_kleene_tables() {
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(0, 1));
        let known_true = Formula::eq(Term::int(1), Term::int(1));
        let known_false = Formula::eq(Term::int(0), Term::int(1));
        let unknown = Formula::eq(Term::var(a), Term::int(1));
        let empty = DbState::new();
        assert_eq!(eval3(&known_true, &empty), Some(true));
        assert_eq!(eval3(&known_false, &empty), Some(false));
        assert_eq!(eval3(&unknown, &empty), None);
        assert_eq!(
            eval3(
                &Formula::and(vec![known_false.clone(), unknown.clone()]),
                &empty
            ),
            Some(false)
        );
        assert_eq!(
            eval3(
                &Formula::and(vec![known_true.clone(), unknown.clone()]),
                &empty
            ),
            None
        );
        assert_eq!(
            eval3(
                &Formula::or(vec![known_true.clone(), unknown.clone()]),
                &empty
            ),
            Some(true)
        );
        assert_eq!(
            eval3(
                &Formula::implies(unknown.clone(), known_true.clone()),
                &empty
            ),
            Some(true)
        );
        assert_eq!(
            eval3(&Formula::implies(known_false, unknown.clone()), &empty),
            Some(true)
        );
        assert_eq!(eval3(&Formula::not(unknown), &empty), None);
    }

    #[test]
    fn interval_pruning_makes_sums_tractable() {
        // a + b + c = 300 over [-10000, 10000]: naive nested search
        // would scan ~20k^2 assignments; interval pruning pins b and c
        // ranges immediately. Without it the search runs past
        // `SEARCH_NODE_BUDGET` and panics.
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(-10_000, 10_000));
        let b = cat.add_item("b", Domain::int_range(-10_000, 10_000));
        let c = cat.add_item("c", Domain::int_range(-10_000, 10_000));
        let ic = IntegrityConstraint::new(vec![Conjunct::new(
            0,
            Formula::eq(
                Term::var(a).add(Term::var(b)).add(Term::var(c)),
                Term::int(300),
            ),
        )])
        .unwrap();
        let solver = Solver::new(&cat, &ic);
        assert!(solver.is_consistent(&DbState::from_pairs([(a, Value::Int(100))])));
        assert!(solver.is_consistent(&DbState::from_pairs([
            (a, Value::Int(100)),
            (b, Value::Int(100))
        ])));
        assert!(solver.is_consistent(&DbState::new()));
        // Total state violating the sum.
        assert!(!solver.is_consistent(&DbState::from_pairs([
            (a, Value::Int(10_000)),
            (b, Value::Int(10_000)),
            (c, Value::Int(10_000))
        ])));
        // Infeasible remainder: a = b = 10_000 forces c < -10_000.
        assert!(!solver.is_consistent(&DbState::from_pairs([
            (a, Value::Int(10_000)),
            (b, Value::Int(10_000))
        ])));
    }

    #[test]
    fn interval_pruning_agrees_with_enumeration() {
        // Cross-check the pruned search against brute force on a small
        // domain, including an abs() term.
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(-3, 3));
        let b = cat.add_item("b", Domain::int_range(-3, 3));
        let ic = IntegrityConstraint::new(vec![Conjunct::new(
            0,
            Formula::eq(
                Term::var(a).add(Term::Abs(Box::new(Term::var(b)))),
                Term::int(2),
            ),
        )])
        .unwrap();
        let solver = Solver::new(&cat, &ic);
        for av in -3..=3i64 {
            let partial = DbState::from_pairs([(a, Value::Int(av))]);
            let brute = (-3..=3i64).any(|bv| av + bv.abs() == 2);
            assert_eq!(
                solver.is_consistent(&partial),
                brute,
                "disagreement at a={av}"
            );
        }
    }

    #[test]
    fn memoized_queries_agree_with_fresh_solvers() {
        // Same queries against one long-lived (memo-warm) solver and
        // fresh solvers must agree, including repeats and mutations of
        // the queried state between calls.
        let (cat, ic) = setup();
        let warm = Solver::new(&cat, &ic);
        let a = cat.lookup("a").unwrap();
        let b = cat.lookup("b").unwrap();
        let c = cat.lookup("c").unwrap();
        let states = [
            DbState::new(),
            DbState::from_pairs([(a, Value::Int(3))]),
            DbState::from_pairs([(a, Value::Int(3)), (b, Value::Int(4))]),
            DbState::from_pairs([(a, Value::Int(3)), (b, Value::Int(3)), (c, Value::Int(1))]),
            DbState::from_pairs([(c, Value::Int(-2))]),
        ];
        for _ in 0..3 {
            for s in &states {
                let fresh = Solver::new(&cat, &ic);
                assert_eq!(warm.is_consistent(s), fresh.is_consistent(s), "{s:?}");
            }
        }
    }

    #[test]
    fn unconstrained_items_ignored() {
        let (cat, ic) = setup();
        let mut cat = cat;
        let z = cat.add_item("z", Domain::int_range(0, 0));
        let solver = Solver::new(&cat, &ic);
        // z is not constrained: its value is irrelevant.
        let s = DbState::from_pairs([(z, Value::Int(123456))]);
        assert!(solver.is_consistent(&s));
    }
}
