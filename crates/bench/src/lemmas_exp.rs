//! FIG-1 … FIG-7: randomized validation of every lemma.
//!
//! Each experiment samples random instances, checks the lemma's
//! implication on all of them, and reports `violations / checks`. The
//! expected shape (recorded in `EXPERIMENTS.md`): **zero violations**
//! on every arm that satisfies the lemma's hypotheses, and nonzero
//! counterexample counts on the control arms that drop a hypothesis
//! (e.g. Lemma 3 without fixed structure — Example 3's phenomenon).

use crate::report::Table;
use pwsr_core::ids::TxnId;
use pwsr_core::op;
use pwsr_core::solver::Solver;
use pwsr_core::state::DbState;
use pwsr_core::txstate::transaction_states;
use pwsr_core::viewset::{
    lemma2_inclusion_holds, lemma6_inclusion_holds, view_sets_dr, view_sets_general,
};
use pwsr_gen::chaos::random_execution;
use pwsr_gen::constraints::{random_ic, IcConfig};
use pwsr_gen::templates::{correct_chain_program, TemplateKind};
use pwsr_gen::workloads::{random_workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of one lemma validation.
struct LemmaOutcome {
    /// Implication instances checked (hypothesis held).
    checks: u64,
    /// Instances where the conclusion failed.
    violations: u64,
}

impl LemmaOutcome {
    /// Did every checked instance satisfy the conclusion?
    fn clean(&self) -> bool {
        self.violations == 0
    }

    /// The lemma's shape: something was checked, and every check held.
    fn holds(&self) -> bool {
        self.checks > 0 && self.clean()
    }
}

/// FIG-1 / Lemma 1: `⋃ DS^{d'_e}` consistent ⟺ every `DS^{d'_e}`
/// consistent (disjoint conjuncts). Random chain constraints, random
/// (partly consistent, partly corrupted) assignments. Shape: something
/// was checked, and every check held.
pub fn lemma1(trials: u64, seed: u64) -> (bool, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = LemmaOutcome {
        checks: 0,
        violations: 0,
    };
    for _ in 0..trials {
        let conjuncts = rng.random_range(1..=4);
        let items_per_conjunct = rng.random_range(1..=3);
        let g = random_ic(
            &mut rng,
            &IcConfig {
                conjuncts,
                items_per_conjunct,
                domain_width: 20,
            },
        );
        let solver = Solver::new(&g.catalog, &g.ic);
        // Random restriction: keep each item with probability 1/2;
        // corrupt kept values with probability 1/4.
        let mut restricted = DbState::new();
        for (item, v) in g.initial.iter() {
            if rng.random_bool(0.5) {
                let v = if rng.random_bool(0.25) {
                    pwsr_core::value::Value::Int(rng.random_range(-20..=20))
                } else {
                    v.clone()
                };
                restricted.set(item, v);
            }
        }
        // Per-conjunct restrictions.
        let mut parts_consistent = true;
        for c in g.ic.conjuncts() {
            let part = restricted.restrict(c.items());
            if !solver.is_consistent(&part) {
                parts_consistent = false;
            }
        }
        let union_consistent = solver.is_consistent(&restricted);
        out.checks += 1;
        if parts_consistent != union_consistent {
            out.violations += 1;
        }
    }
    let mut t = Table::new(
        "FIG-1  Lemma 1: per-conjunct ⟺ union consistency (disjoint scopes)",
        &["trials", "violations", "clean"],
    );
    t.row(&[
        out.checks.to_string(),
        out.violations.to_string(),
        out.clean().to_string(),
    ]);
    (out.holds(), t.render())
}

/// FIG-2 / Lemma 2 and FIG-6 / Lemma 6: the view-set inclusions
/// `RS(before(T^d_i, p, S)) ⊆ VS(T_i, p, d, S)` at **every** operation
/// of random executions; the Lemma 6 arm additionally filters to DR
/// schedules and checks its (larger) view sets. Shape: both arms
/// check something, and nothing fails.
pub fn viewset_lemmas(trials: u64, seed: u64) -> (bool, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen_out = LemmaOutcome {
        checks: 0,
        violations: 0,
    };
    let mut dr_out = LemmaOutcome {
        checks: 0,
        violations: 0,
    };
    let mut dr_schedules = 0u64;
    for _ in 0..trials {
        let w = random_workload(
            &mut rng,
            &WorkloadConfig {
                conjuncts: 2,
                items_per_conjunct: 2,
                n_background: 4,
                cross_read_prob: 0.6,
                fixed_only: false,
                gadgets: 0,
                domain_width: 50,
            },
        );
        let Ok(s) = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng) else {
            continue;
        };
        let is_dr = pwsr_core::dr::is_delayed_read(&s);
        dr_schedules += u64::from(is_dr);
        for c in w.ic.conjuncts() {
            let Some(order) = pwsr_core::serializability::serialization_order_proj(&s, c.items())
            else {
                continue;
            };
            for p in s.positions() {
                gen_out.checks += 1;
                if !lemma2_inclusion_holds(&s, c.items(), &order, p) {
                    gen_out.violations += 1;
                }
                if is_dr {
                    dr_out.checks += 1;
                    if !lemma6_inclusion_holds(&s, c.items(), &order, p) {
                        dr_out.violations += 1;
                    }
                }
            }
        }
    }
    let mut t = Table::new(
        "FIG-2/FIG-6  Lemmas 2 & 6: view-set inclusions at every prefix",
        &["lemma", "inclusion checks", "violations", "clean"],
    );
    t.row(&[
        "Lemma 2 (general)".into(),
        gen_out.checks.to_string(),
        gen_out.violations.to_string(),
        gen_out.clean().to_string(),
    ]);
    t.row(&[
        format!("Lemma 6 (DR; {dr_schedules} DR schedules)"),
        dr_out.checks.to_string(),
        dr_out.violations.to_string(),
        dr_out.clean().to_string(),
    ]);
    (gen_out.holds() && dr_out.holds(), t.render())
}

/// FIG-4 / Lemma 3: for a **fixed-structure** program run alone from an
/// arbitrary state, `DS1^d ∪ read(before(T,p,S))` consistent ⇒
/// `DS2^{d−WS(after(T,p,S))}` consistent, at every cut point `p` and
/// every conjunct `d`. The control arm runs the *unbalanced* template
/// and counts how often the implication breaks (Example 3's failure
/// mode). Shape: the fixed arm checks something, and nothing fails;
/// the control arm is recorded, not asserted.
pub fn lemma3(trials: u64, seed: u64) -> (bool, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fixed_out = LemmaOutcome {
        checks: 0,
        violations: 0,
    };
    let mut ctrl_out = LemmaOutcome {
        checks: 0,
        violations: 0,
    };
    // Fixed arm: balanced templates over random chains, from arbitrary
    // (possibly inconsistent) start states.
    for _ in 0..trials {
        let g = random_ic(
            &mut rng,
            &IcConfig {
                conjuncts: 2,
                items_per_conjunct: 2,
                domain_width: 20,
            },
        );
        let solver = Solver::new(&g.catalog, &g.ic);
        let cross = Some(g.shapes[1].items()[0]);
        let prog = correct_chain_program(
            &mut rng,
            &g.catalog,
            &g.shapes[0],
            TemplateKind::CondGrowBalanced,
            cross,
            "T",
        );
        let mut ds1 = DbState::new();
        for item in g.catalog.items() {
            ds1.set(
                item,
                pwsr_core::value::Value::Int(rng.random_range(-10..=10)),
            );
        }
        lemma3_check(&g.catalog, &g.ic, &solver, &prog, &ds1, &mut fixed_out);
    }
    // Control arm: the gadget's non-fixed "repairing" program G1
    // (`p := 1; if (r > 0) then q := abs(q)+1;`) — Example 3's shape —
    // from random states. When r <= 0 the repair write never happens
    // and the implication breaks mid-execution.
    for _ in 0..trials {
        let mut catalog = pwsr_core::catalog::Catalog::new();
        let mut template_initial = DbState::new();
        let gadget = pwsr_gen::gadgets::example2_gadget(&mut catalog, &mut template_initial, "", 0);
        let ic = pwsr_core::constraint::IntegrityConstraint::new(gadget.conjuncts.clone())
            .expect("gadget conjuncts disjoint");
        let solver = Solver::new(&catalog, &ic);
        let mut ds1 = DbState::new();
        for item in catalog.items() {
            ds1.set(item, pwsr_core::value::Value::Int(rng.random_range(-5..=5)));
        }
        lemma3_check(&catalog, &ic, &solver, &gadget.g1, &ds1, &mut ctrl_out);
    }
    let mut t = Table::new(
        "FIG-4  Lemma 3: mid-execution consistency of fixed-structure programs",
        &["arm", "implication checks", "violations", "clean"],
    );
    t.row(&[
        "fixed-structure (lemma)".into(),
        fixed_out.checks.to_string(),
        fixed_out.violations.to_string(),
        fixed_out.clean().to_string(),
    ]);
    t.row(&[
        "unbalanced (control)".into(),
        ctrl_out.checks.to_string(),
        ctrl_out.violations.to_string(),
        "n/a (expected dirty)".into(),
    ]);
    (fixed_out.holds(), t.render())
}

/// Shared Lemma 3 implication check: run `prog` alone from `ds1`, and
/// at every cut point and conjunct test premise => conclusion.
fn lemma3_check(
    catalog: &pwsr_core::catalog::Catalog,
    ic: &pwsr_core::constraint::IntegrityConstraint,
    solver: &Solver<'_>,
    prog: &pwsr_tplang::ast::Program,
    ds1: &DbState,
    out: &mut LemmaOutcome,
) {
    let Ok(txn) = pwsr_tplang::interp::execute(prog, catalog, TxnId(1), ds1) else {
        return;
    };
    let s = pwsr_core::schedule::Schedule::new(txn.ops().to_vec()).expect("single txn is valid");
    let ds2 = s.apply(ds1);
    for p in s.positions() {
        for c in ic.conjuncts() {
            let d = c.items();
            let before = s.before_txn(TxnId(1), p);
            let Ok(joint) = ds1.restrict(d).union(&op::read_state(&before)) else {
                continue;
            };
            if !solver.is_consistent(&joint) {
                continue; // hypothesis fails: nothing to check
            }
            let after_ws = op::write_set(&s.after_txn(TxnId(1), p));
            let target = d.difference(&after_ws);
            out.checks += 1;
            if !solver.is_consistent(&ds2.restrict(&target)) {
                out.violations += 1;
            }
        }
    }
}

/// FIG-5 / Lemmas 4 & 8: the induction step. On random executions, for
/// every conjunct `d_k`, serialization order `T_1…T_n` of `S^{d_k}` and
/// operation `p`: if every `read(before(T_j, p, S))`, `j < i`, is
/// consistent, then `state(T_i)^{VS(T_i, p, d_k)}` is consistent. The
/// Lemma 4 arm uses fixed-structure workloads (general view sets); the
/// Lemma 8 arm uses arbitrary programs but filters to DR schedules
/// (DR view sets). Shape: both arms check something, and nothing
/// fails.
pub fn lemma4_and_8(trials: u64, seed: u64) -> (bool, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut l4 = LemmaOutcome {
        checks: 0,
        violations: 0,
    };
    let mut l8 = LemmaOutcome {
        checks: 0,
        violations: 0,
    };
    for arm in [4u8, 8u8] {
        for _ in 0..trials {
            let w = random_workload(
                &mut rng,
                &WorkloadConfig {
                    conjuncts: 2,
                    items_per_conjunct: 2,
                    n_background: 3,
                    cross_read_prob: 0.6,
                    fixed_only: arm == 4,
                    gadgets: 0,
                    domain_width: 50,
                },
            );
            let Ok(s) = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng) else {
                continue;
            };
            if arm == 4 && !w.all_fixed_structure {
                continue;
            }
            if arm == 8 && !pwsr_core::dr::is_delayed_read(&s) {
                continue;
            }
            let solver = Solver::new(&w.catalog, &w.ic);
            for c in w.ic.conjuncts() {
                let proj = s.project(c.items());
                let Some(order) = pwsr_core::serializability::serialization_order(&proj) else {
                    continue;
                };
                let states = transaction_states(&s, c.items(), &order, &w.initial);
                for p in s.positions() {
                    let vs = if arm == 4 {
                        view_sets_general(&s, c.items(), &order, p)
                    } else {
                        view_sets_dr(&s, c.items(), &order, p)
                    };
                    for i in 0..order.len() {
                        // Hypothesis: all predecessors read consistent data
                        // before p.
                        let hyp = order[..i].iter().all(|&tj| {
                            let reads = op::read_state(&s.before_txn(tj, p));
                            solver.is_consistent(&reads)
                        });
                        if !hyp {
                            continue;
                        }
                        let out = if arm == 4 { &mut l4 } else { &mut l8 };
                        out.checks += 1;
                        if !solver.is_consistent(&states[i].restrict(&vs[i])) {
                            out.violations += 1;
                        }
                    }
                }
            }
        }
    }
    let mut t = Table::new(
        "FIG-5  Lemmas 4 & 8: induction step (state restricted to view set)",
        &["lemma", "induction checks", "violations", "clean"],
    );
    t.row(&[
        "Lemma 4 (fixed-structure)".into(),
        l4.checks.to_string(),
        l4.violations.to_string(),
        l4.clean().to_string(),
    ]);
    t.row(&[
        "Lemma 8 (DR)".into(),
        l8.checks.to_string(),
        l8.violations.to_string(),
        l8.clean().to_string(),
    ]);
    (l4.holds() && l8.holds(), t.render())
}

/// FIG-7 / Lemma 7: whole-transaction consistency preservation. For a
/// correct program from an arbitrary state: `DS1^d ∪ read(T)`
/// consistent ⇒ `DS2^{d ∪ WS(T)}` consistent. Shape: something was
/// checked, and every check held.
pub fn lemma7(trials: u64, seed: u64) -> (bool, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = LemmaOutcome {
        checks: 0,
        violations: 0,
    };
    for _ in 0..trials {
        let g = random_ic(
            &mut rng,
            &IcConfig {
                conjuncts: 2,
                items_per_conjunct: 2,
                domain_width: 20,
            },
        );
        let solver = Solver::new(&g.catalog, &g.ic);
        let kind = TemplateKind::ALL[rng.random_range(0..TemplateKind::ALL.len())];
        let cross = Some(g.shapes[1].items()[0]);
        let prog = correct_chain_program(&mut rng, &g.catalog, &g.shapes[0], kind, cross, "T");
        let mut ds1 = DbState::new();
        for item in g.catalog.items() {
            ds1.set(
                item,
                pwsr_core::value::Value::Int(rng.random_range(-10..=10)),
            );
        }
        let Ok(txn) = pwsr_tplang::interp::execute(&prog, &g.catalog, TxnId(1), &ds1) else {
            continue;
        };
        let ds2 = ds1.updated_with(&txn.write_state());
        for c in g.ic.conjuncts() {
            let d = c.items();
            let Ok(joint) = ds1.restrict(d).union(&txn.read_state()) else {
                continue;
            };
            if !solver.is_consistent(&joint) {
                continue;
            }
            let target = d.union(&txn.write_set());
            out.checks += 1;
            if !solver.is_consistent(&ds2.restrict(&target)) {
                out.violations += 1;
            }
        }
    }
    let mut t = Table::new(
        "FIG-7  Lemma 7: whole-transaction consistency preservation",
        &["implication checks", "violations", "clean"],
    );
    t.row(&[
        out.checks.to_string(),
        out.violations.to_string(),
        out.clean().to_string(),
    ]);
    (out.holds(), t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma1_clean() {
        let (ok, text) = lemma1(300, 11);
        assert!(ok, "{text}");
    }

    /// A run that checked nothing has not confirmed the lemma.
    #[test]
    fn lemma1_without_checks_deviates() {
        assert!(!lemma1(0, 11).0);
    }

    #[test]
    fn viewset_lemmas_clean() {
        let (ok, text) = viewset_lemmas(40, 12);
        assert!(ok, "{text}");
    }

    #[test]
    fn lemma3_fixed_arm_clean() {
        let (ok, text) = lemma3(60, 13);
        assert!(ok, "{text}");
    }

    #[test]
    fn lemma4_and_8_clean() {
        let (ok, text) = lemma4_and_8(25, 14);
        assert!(ok, "{text}");
    }

    #[test]
    fn lemma7_clean() {
        let (ok, text) = lemma7(150, 15);
        assert!(ok, "{text}");
    }
}
