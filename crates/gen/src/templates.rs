//! Provably-correct transaction templates for chain conjuncts.
//!
//! Each template, executed in isolation from any consistent state,
//! preserves `x_0 ≤ x_1 ≤ … ≤ x_k` (and touches nothing else, so by
//! Lemma 1 the full constraint is preserved). Cross-conjunct variants
//! read a foreign item but only feed it through order-safe functions
//! (`min(abs(z), d)`), so correctness is unconditional. Conditional
//! variants come in a *balanced* (fixed-structure) and an *unbalanced*
//! (non-fixed) form — the knob the THM-1 experiment turns.

use crate::constraints::ConjunctShape;
use pwsr_core::catalog::Catalog;
use pwsr_core::ids::ItemId;
use pwsr_tplang::ast::Program;
use pwsr_tplang::parser::parse_program;
use rand::Rng;

/// The correct-template families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TemplateKind {
    /// Add the same delta to every chain item (order-preserving).
    Shift,
    /// `x_i := x_{i+1}` — collapse one link upward.
    Tighten,
    /// `x_k := x_k + min(abs(z), d)` — grow the top by a bounded
    /// non-negative amount (z may be a foreign item).
    GrowTop,
    /// `x_0 := x_0 − min(abs(z), d)` — shrink the bottom.
    ShrinkBottom,
    /// `if (z > 0) then x_k := x_k + min(z, d);` — conditional grow,
    /// **unbalanced** (not fixed-structure).
    CondGrowUnbalanced,
    /// The balanced version with an `else x_k := x_k;` arm —
    /// fixed-structure.
    CondGrowBalanced,
}

impl TemplateKind {
    /// Every kind, for sweeps.
    pub const ALL: [TemplateKind; 6] = [
        TemplateKind::Shift,
        TemplateKind::Tighten,
        TemplateKind::GrowTop,
        TemplateKind::ShrinkBottom,
        TemplateKind::CondGrowUnbalanced,
        TemplateKind::CondGrowBalanced,
    ];

    /// Kinds that always produce fixed-structure programs.
    pub fn is_fixed_structure(self) -> bool {
        !matches!(self, TemplateKind::CondGrowUnbalanced)
    }
}

/// Instantiate `kind` against a chain conjunct. `cross` optionally
/// names a foreign item to read (for GrowTop/ShrinkBottom/CondGrow*;
/// ignored by Shift/Tighten). `name` is the program name.
pub fn correct_chain_program<R: Rng>(
    rng: &mut R,
    catalog: &Catalog,
    shape: &ConjunctShape,
    kind: TemplateKind,
    cross: Option<ItemId>,
    name: &str,
) -> Program {
    let ConjunctShape::Chain { items } = shape else {
        panic!("correct_chain_program requires a chain shape");
    };
    assert!(!items.is_empty(), "chains are non-empty");
    let n = |id: ItemId| catalog.name(id).to_owned();
    let d = rng.random_range(1..=3);
    let src = match kind {
        TemplateKind::Shift | TemplateKind::Tighten => String::new(),
        _ => match cross {
            Some(z) => n(z),
            None => format!("{}", rng.random_range(1..=5)),
        },
    };
    let text = match kind {
        TemplateKind::Shift => {
            let delta = rng.random_range(-3i64..=3);
            items
                .iter()
                .map(|&x| format!("{} := {} + {};", n(x), n(x), delta))
                .collect::<Vec<_>>()
                .join(" ")
        }
        TemplateKind::Tighten => {
            if items.len() < 2 {
                // Degenerate chain: identity write is the only safe move.
                format!("{} := {};", n(items[0]), n(items[0]))
            } else {
                let i = rng.random_range(0..items.len() - 1);
                format!("{} := {};", n(items[i]), n(items[i + 1]))
            }
        }
        TemplateKind::GrowTop => {
            let top = n(*items.last().expect("non-empty"));
            format!("{top} := {top} + min(abs({src}), {d});")
        }
        TemplateKind::ShrinkBottom => {
            let bot = n(items[0]);
            format!("{bot} := {bot} - min(abs({src}), {d});")
        }
        TemplateKind::CondGrowUnbalanced => {
            let top = n(*items.last().expect("non-empty"));
            format!("if ({src} > 0) then {top} := {top} + min({src}, {d});")
        }
        TemplateKind::CondGrowBalanced => {
            let top = n(*items.last().expect("non-empty"));
            format!(
                "if ({src} > 0) then {{ {top} := {top} + min({src}, {d}); }} \
                 else {{ {top} := {top}; }}"
            )
        }
    };
    parse_program(name, &text).expect("template text always parses")
}

/// Instantiate a transfer over a conserved-sum (banking) conjunct:
/// move a random amount between two distinct accounts. `guarded`
/// selects the overdraft-checked variant (`if (src >= d) …`), which is
/// correct but **not** fixed-structure unless `balanced` pads the else
/// branch with identity writes.
pub fn transfer_program<R: Rng>(
    rng: &mut R,
    catalog: &Catalog,
    shape: &ConjunctShape,
    guarded: bool,
    balanced: bool,
    name: &str,
) -> Program {
    let ConjunctShape::ConservedSum { items, .. } = shape else {
        panic!("transfer_program requires a conserved-sum shape");
    };
    assert!(items.len() >= 2, "transfers need two accounts");
    let i = rng.random_range(0..items.len());
    let mut j = rng.random_range(0..items.len());
    if j == i {
        j = (j + 1) % items.len();
    }
    let src = catalog.name(items[i]).to_owned();
    let dst = catalog.name(items[j]).to_owned();
    let d = rng.random_range(1..=10);
    let text = if !guarded {
        format!("{src} := {src} - {d}; {dst} := {dst} + {d};")
    } else if balanced {
        format!(
            "if ({src} >= {d}) then {{ {src} := {src} - {d}; {dst} := {dst} + {d}; }} \
             else {{ {src} := {src}; {dst} := {dst}; }}"
        )
    } else {
        format!("if ({src} >= {d}) then {{ {src} := {src} - {d}; {dst} := {dst} + {d}; }}")
    };
    parse_program(name, &text).expect("transfer text parses")
}

/// A read-only audit of a conserved-sum conjunct: sums every account
/// into a local (no writes — useful for read-heavy mixes).
pub fn audit_program(catalog: &Catalog, shape: &ConjunctShape, name: &str) -> Program {
    let ConjunctShape::ConservedSum { items, .. } = shape else {
        panic!("audit_program requires a conserved-sum shape");
    };
    let sum = items
        .iter()
        .map(|&i| catalog.name(i).to_owned())
        .collect::<Vec<_>>()
        .join(" + ");
    parse_program(name, &format!("audit_total := {sum};")).expect("audit text parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Execute a program in isolation (test helper).
    pub(crate) fn tests_support_execute(
        p: &Program,
        catalog: &Catalog,
        state: &pwsr_core::state::DbState,
    ) -> pwsr_core::txn::Transaction {
        pwsr_tplang::interp::execute(p, catalog, TxnId(1), state).unwrap()
    }
    use crate::constraints::{random_ic, IcConfig};
    use pwsr_core::ids::TxnId;
    use pwsr_core::solver::Solver;
    use pwsr_tplang::analysis::static_structure;
    use pwsr_tplang::interp::execute_and_apply;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every template, instantiated over random chains with random
    /// cross-reads, preserves consistency in isolation.
    #[test]
    fn all_templates_are_correct_in_isolation() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let g = random_ic(&mut rng, &IcConfig::default());
            let solver = Solver::new(&g.catalog, &g.ic);
            for (ci, shape) in g.shapes.iter().enumerate() {
                for kind in TemplateKind::ALL {
                    // Cross item from a different conjunct.
                    let other = (ci + 1) % g.shapes.len();
                    let cross = g.shapes[other].items().first().copied();
                    let p = correct_chain_program(&mut rng, &g.catalog, shape, kind, cross, "T");
                    let (_, out) = execute_and_apply(&p, &g.catalog, TxnId(1), &g.initial).unwrap();
                    assert!(
                        solver.is_consistent(&out),
                        "trial {trial}, conjunct {ci}, {kind:?}: {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixedness_matches_declaration() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_ic(&mut rng, &IcConfig::default());
        let cross = g.shapes[1].items().first().copied();
        for kind in TemplateKind::ALL {
            let p = correct_chain_program(&mut rng, &g.catalog, &g.shapes[0], kind, cross, "T");
            let proven_fixed = static_structure(&p, &g.catalog).is_fixed();
            if kind.is_fixed_structure() {
                assert!(proven_fixed, "{kind:?} should be fixed: {p}");
            } else {
                assert!(!proven_fixed, "{kind:?} should not be provably fixed: {p}");
            }
        }
    }

    #[test]
    fn cross_reads_actually_cross() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_ic(&mut rng, &IcConfig::default());
        let z = g.shapes[1].items()[0];
        let p = correct_chain_program(
            &mut rng,
            &g.catalog,
            &g.shapes[0],
            TemplateKind::GrowTop,
            Some(z),
            "T",
        );
        let fp = pwsr_tplang::analysis::rw_footprint(&p, &g.catalog);
        assert!(fp.reads.contains(z));
        let c0_items: pwsr_core::state::ItemSet = g.shapes[0].items().into_iter().collect();
        assert!(!fp.writes.intersection(&c0_items).is_empty());
    }

    #[test]
    fn transfers_preserve_the_sum_from_any_state() {
        use crate::constraints::{banking_ic, BankConfig};
        let mut rng = StdRng::seed_from_u64(77);
        let g = banking_ic(&BankConfig::default());
        let solver = Solver::new(&g.catalog, &g.ic);
        for trial in 0..30 {
            for (guarded, balanced) in [(false, false), (true, false), (true, true)] {
                let p =
                    transfer_program(&mut rng, &g.catalog, &g.shapes[0], guarded, balanced, "T");
                let (_, out) = execute_and_apply(&p, &g.catalog, TxnId(1), &g.initial).unwrap();
                assert!(
                    solver.is_consistent(&out),
                    "trial {trial} guarded={guarded} balanced={balanced}: {p}"
                );
            }
        }
    }

    #[test]
    fn transfer_fixedness_matches_variant() {
        use crate::constraints::{banking_ic, BankConfig};
        let mut rng = StdRng::seed_from_u64(78);
        let g = banking_ic(&BankConfig::default());
        let plain = transfer_program(&mut rng, &g.catalog, &g.shapes[0], false, false, "T");
        assert!(static_structure(&plain, &g.catalog).is_fixed());
        let guarded = transfer_program(&mut rng, &g.catalog, &g.shapes[0], true, false, "T");
        assert!(!static_structure(&guarded, &g.catalog).is_fixed());
        let balanced = transfer_program(&mut rng, &g.catalog, &g.shapes[0], true, true, "T");
        assert!(static_structure(&balanced, &g.catalog).is_fixed());
    }

    #[test]
    fn audit_is_read_only() {
        use crate::constraints::{banking_ic, BankConfig};
        let g = banking_ic(&BankConfig::default());
        let p = audit_program(&g.catalog, &g.shapes[1], "A");
        let t = tests_support_execute(&p, &g.catalog, &g.initial);
        assert!(t.write_set().is_empty());
        assert_eq!(t.read_set().len(), 3);
    }

    #[test]
    fn singleton_chain_templates_work() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_ic(
            &mut rng,
            &IcConfig {
                conjuncts: 2,
                items_per_conjunct: 1,
                domain_width: 100,
            },
        );
        for kind in TemplateKind::ALL {
            let p = correct_chain_program(&mut rng, &g.catalog, &g.shapes[0], kind, None, "T");
            let (_, out) = execute_and_apply(&p, &g.catalog, TxnId(1), &g.initial).unwrap();
            let solver = Solver::new(&g.catalog, &g.ic);
            assert!(solver.is_consistent(&out), "{kind:?}");
        }
    }
}
