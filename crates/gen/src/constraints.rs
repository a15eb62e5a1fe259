//! Random integrity constraints in the paper's normal form.
//!
//! Every generated constraint is `C_1 ∧ … ∧ C_l` with pairwise-disjoint
//! conjunct scopes (§2.1's standing assumption). The workhorse shape is
//! the **chain** `x_0 ≤ x_1 ≤ … ≤ x_k` — the shape of capacity
//! ledgers, min/max watermarks and interval bounds — because a rich
//! family of provably-correct transaction templates exists for it
//! (see [`crate::templates`]).

use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
use pwsr_core::ids::ItemId;
use pwsr_core::state::DbState;
use pwsr_core::value::{Domain, Value};
use rand::Rng;

/// The shape of one generated conjunct (drives template selection).
#[derive(Clone, Debug)]
pub enum ConjunctShape {
    /// `items[0] ≤ items[1] ≤ … ≤ items[k]`.
    Chain {
        /// The chained items, low to high.
        items: Vec<ItemId>,
    },
    /// `p > 0 → q > 0` (the Example 2 shape).
    Implication {
        /// Antecedent item.
        p: ItemId,
        /// Consequent item.
        q: ItemId,
    },
    /// `item > 0` (the Example 2 second conjunct).
    Positive {
        /// The constrained item.
        item: ItemId,
    },
    /// `items[0] + items[1] + … = total` — the banking invariant
    /// (conserved sum of account balances).
    ConservedSum {
        /// The accounts.
        items: Vec<ItemId>,
        /// The invariant total.
        total: i64,
    },
}

impl ConjunctShape {
    /// The items of the shape (the conjunct's scope).
    pub fn items(&self) -> Vec<ItemId> {
        match self {
            ConjunctShape::Chain { items } => items.clone(),
            ConjunctShape::Implication { p, q } => vec![*p, *q],
            ConjunctShape::Positive { item } => vec![*item],
            ConjunctShape::ConservedSum { items, .. } => items.clone(),
        }
    }

    /// The shape's formula.
    pub(crate) fn formula(&self) -> Formula {
        match self {
            ConjunctShape::Chain { items } => Formula::And(
                items
                    .windows(2)
                    .map(|w| Formula::le(Term::var(w[0]), Term::var(w[1])))
                    .collect(),
            ),
            ConjunctShape::Implication { p, q } => Formula::implies(
                Formula::gt(Term::var(*p), Term::int(0)),
                Formula::gt(Term::var(*q), Term::int(0)),
            ),
            ConjunctShape::Positive { item } => Formula::gt(Term::var(*item), Term::int(0)),
            ConjunctShape::ConservedSum { items, total } => {
                let sum = items
                    .iter()
                    .skip(1)
                    .fold(Term::var(items[0]), |acc, &i| acc.add(Term::var(i)));
                Formula::eq(sum, Term::int(*total))
            }
        }
    }
}

/// Parameters for [`banking_ic`].
#[derive(Clone, Debug)]
pub struct BankConfig {
    /// Number of branches (one conserved-sum conjunct each).
    pub branches: usize,
    /// Accounts per branch (≥ 2 so transfers are possible).
    pub accounts_per_branch: usize,
    /// Initial balance per account.
    pub opening_balance: i64,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            branches: 2,
            accounts_per_branch: 3,
            opening_balance: 100,
        }
    }
}

/// Generate a banking constraint: one conserved-sum conjunct per
/// branch over its accounts, all opening at `opening_balance`.
pub fn banking_ic(cfg: &BankConfig) -> GeneratedIc {
    assert!(cfg.accounts_per_branch >= 2, "transfers need two accounts");
    let mut catalog = Catalog::new();
    let mut shapes = Vec::with_capacity(cfg.branches);
    let mut conjuncts = Vec::with_capacity(cfg.branches);
    let mut initial = DbState::new();
    for b in 0..cfg.branches {
        let items: Vec<ItemId> = (0..cfg.accounts_per_branch)
            .map(|i| catalog.add_item(&format!("acct{b}_{i}"), Domain::int_range(-10_000, 10_000)))
            .collect();
        for &item in &items {
            initial.set(item, Value::Int(cfg.opening_balance));
        }
        let total = cfg.opening_balance * cfg.accounts_per_branch as i64;
        let shape = ConjunctShape::ConservedSum {
            items: items.clone(),
            total,
        };
        conjuncts.push(Conjunct::new(b as u32, shape.formula()));
        shapes.push(shape);
    }
    let ic = IntegrityConstraint::new(conjuncts).expect("branch scopes are disjoint");
    GeneratedIc {
        catalog,
        ic,
        shapes,
        initial,
    }
}

/// Parameters for [`random_ic`].
#[derive(Clone, Debug)]
pub struct IcConfig {
    /// Number of conjuncts `l`.
    pub conjuncts: usize,
    /// Chain length per conjunct (items per conjunct), ≥ 1.
    pub items_per_conjunct: usize,
    /// Item domain half-width: domains are `[-width, width]`.
    pub domain_width: i64,
}

impl Default for IcConfig {
    fn default() -> Self {
        IcConfig {
            conjuncts: 3,
            items_per_conjunct: 3,
            domain_width: 1_000,
        }
    }
}

/// A generated constraint with its catalog, shapes and a consistent
/// initial state.
#[derive(Clone, Debug)]
pub struct GeneratedIc {
    /// Items and domains.
    pub catalog: Catalog,
    /// The constraint (disjoint by construction).
    pub ic: IntegrityConstraint,
    /// Per-conjunct shape (index-aligned with `ic.conjuncts()`).
    pub shapes: Vec<ConjunctShape>,
    /// A consistent initial state assigning every item.
    pub initial: DbState,
}

/// Generate a chain-shaped constraint: `cfg.conjuncts` chains of
/// `cfg.items_per_conjunct` items each, with an ascending consistent
/// initial state.
pub fn random_ic<R: Rng>(rng: &mut R, cfg: &IcConfig) -> GeneratedIc {
    let mut catalog = Catalog::new();
    let mut shapes = Vec::with_capacity(cfg.conjuncts);
    let mut conjuncts = Vec::with_capacity(cfg.conjuncts);
    let mut initial = DbState::new();
    for c in 0..cfg.conjuncts {
        let items: Vec<ItemId> = (0..cfg.items_per_conjunct)
            .map(|i| {
                catalog.add_item(
                    &format!("x{c}_{i}"),
                    Domain::int_range(-cfg.domain_width, cfg.domain_width),
                )
            })
            .collect();
        // Ascending initial values with random gaps.
        let mut v = rng.random_range(-8..=0);
        for &item in &items {
            initial.set(item, Value::Int(v));
            v += rng.random_range(0i64..=4);
        }
        let shape = ConjunctShape::Chain {
            items: items.clone(),
        };
        conjuncts.push(Conjunct::new(c as u32, shape.formula()));
        shapes.push(shape);
    }
    let ic = IntegrityConstraint::new(conjuncts).expect("generated scopes are disjoint");
    GeneratedIc {
        catalog,
        ic,
        shapes,
        initial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::solver::Solver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_ic_is_disjoint_and_satisfiable() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let g = random_ic(&mut rng, &IcConfig::default());
            assert!(g.ic.is_disjoint());
            assert_eq!(g.ic.len(), 3);
            let solver = Solver::new(&g.catalog, &g.ic);
            assert!(solver.is_consistent_total(&g.initial).unwrap());
        }
    }

    #[test]
    fn shapes_align_with_conjuncts() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_ic(
            &mut rng,
            &IcConfig {
                conjuncts: 4,
                items_per_conjunct: 2,
                domain_width: 50,
            },
        );
        assert_eq!(g.shapes.len(), g.ic.len());
        for (shape, conj) in g.shapes.iter().zip(g.ic.conjuncts()) {
            let shape_items: pwsr_core::state::ItemSet = shape.items().into_iter().collect();
            assert_eq!(&shape_items, conj.items());
        }
    }

    #[test]
    fn singleton_chains_are_unconstrained_but_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_ic(
            &mut rng,
            &IcConfig {
                conjuncts: 2,
                items_per_conjunct: 1,
                domain_width: 10,
            },
        );
        // A 1-item chain has an empty And ⇒ trivially true.
        let solver = Solver::new(&g.catalog, &g.ic);
        assert!(solver.is_consistent(&DbState::new()));
    }

    #[test]
    fn implication_and_positive_shapes() {
        let mut catalog = Catalog::new();
        let p = catalog.add_item("p", Domain::int_range(-5, 5));
        let q = catalog.add_item("q", Domain::int_range(-5, 5));
        let imp = ConjunctShape::Implication { p, q };
        let pos = ConjunctShape::Positive { item: p };
        assert_eq!(imp.items(), vec![p, q]);
        assert_eq!(pos.items(), vec![p]);
        let st = DbState::from_pairs([(p, Value::Int(1)), (q, Value::Int(-1))]);
        assert!(!imp.formula().eval(&st).unwrap());
        assert!(pos.formula().eval(&st).unwrap());
    }
}
