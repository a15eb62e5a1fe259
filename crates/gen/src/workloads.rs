//! Assembled workload families.
//!
//! * [`random_workload`] — the THM-1/2/3 harness input: chain
//!   conjuncts, correct background templates (optionally restricted to
//!   fixed-structure kinds), and optionally embedded Example-2 gadgets
//!   whose interleavings can violate consistency.
//! * [`cad_workload`] — §1's motivating scenario: design objects as
//!   conjuncts, long transactions spanning several objects, short
//!   touch-up transactions.
//! * [`registration_workload`] — the §2.3 course-registration schema.
//! * [`mdbs_workload`] — the §4 multidatabase scenario (sites =
//!   conjuncts; local and global transactions).
//! * [`analyzer_workload`] — the static-analyzer scenario: blind-write
//!   chains whose conflict graph is a provable forest, plus optional
//!   contended read-modify-write pairs that defeat the criterion.

use crate::constraints::{banking_ic, random_ic, BankConfig, GeneratedIc, IcConfig};
use crate::gadgets::{example2_gadget, Example2Gadget};
use crate::templates::{audit_program, correct_chain_program, transfer_program, TemplateKind};
use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
use pwsr_core::ids::TxnId;
use pwsr_core::state::{DbState, ItemSet};
use pwsr_core::value::{Domain, Value};
use pwsr_tplang::analysis::static_structure;
use pwsr_tplang::ast::Program;
use pwsr_tplang::parser::parse_program;
use rand::Rng;

/// A complete experiment input.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Items and domains.
    pub catalog: Catalog,
    /// The constraint (disjoint conjuncts).
    pub ic: IntegrityConstraint,
    /// Programs (program `k` runs as transaction `k+1`).
    pub programs: Vec<Program>,
    /// A consistent initial state.
    pub initial: DbState,
    /// Does the static prover certify every program fixed-structure?
    pub all_fixed_structure: bool,
    /// Transaction-id pairs of embedded Example-2 gadgets.
    pub gadget_txns: Vec<(TxnId, TxnId)>,
}

/// Parameters for [`random_workload`].
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Chain conjuncts to generate.
    pub conjuncts: usize,
    /// Items per chain.
    pub items_per_conjunct: usize,
    /// Number of background (always-correct) transactions.
    pub n_background: usize,
    /// Probability that a background transaction reads across
    /// conjuncts (creates data-access-graph edges).
    pub cross_read_prob: f64,
    /// Restrict background templates to fixed-structure kinds.
    pub fixed_only: bool,
    /// Number of Example-2 gadgets (2 transactions each) to embed.
    pub gadgets: usize,
    /// Item domain half-width (`[-w, w]`); smaller widths make the
    /// restriction-consistency solver's search cheaper.
    pub domain_width: i64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            conjuncts: 3,
            items_per_conjunct: 3,
            n_background: 4,
            cross_read_prob: 0.5,
            fixed_only: false,
            gadgets: 0,
            domain_width: 100,
        }
    }
}

/// Generate a randomized workload per `cfg`.
pub fn random_workload<R: Rng>(rng: &mut R, cfg: &WorkloadConfig) -> Workload {
    let GeneratedIc {
        mut catalog,
        ic,
        shapes,
        mut initial,
    } = random_ic(
        rng,
        &IcConfig {
            conjuncts: cfg.conjuncts,
            items_per_conjunct: cfg.items_per_conjunct,
            domain_width: cfg.domain_width,
        },
    );
    let mut conjuncts: Vec<Conjunct> = ic.conjuncts().to_vec();
    let mut programs = Vec::new();
    let kinds: Vec<TemplateKind> = TemplateKind::ALL
        .into_iter()
        .filter(|k| !cfg.fixed_only || k.is_fixed_structure())
        .collect();
    for t in 0..cfg.n_background {
        let ci = rng.random_range(0..shapes.len());
        let kind = kinds[rng.random_range(0..kinds.len())];
        let cross = if rng.random_bool(cfg.cross_read_prob) && shapes.len() > 1 {
            let mut other = rng.random_range(0..shapes.len());
            if other == ci {
                other = (other + 1) % shapes.len();
            }
            let items = shapes[other].items();
            Some(items[rng.random_range(0..items.len())])
        } else {
            None
        };
        programs.push(correct_chain_program(
            rng,
            &catalog,
            &shapes[ci],
            kind,
            cross,
            &format!("B{t}"),
        ));
    }
    let mut gadget_txns = Vec::new();
    for gi in 0..cfg.gadgets {
        let next_conjunct = conjuncts.len() as u32;
        let Example2Gadget {
            g1,
            g2,
            conjuncts: gc,
            ..
        } = example2_gadget(&mut catalog, &mut initial, &format!("_{gi}"), next_conjunct);
        conjuncts.extend(gc);
        let t1 = TxnId(programs.len() as u32 + 1);
        programs.push(g1);
        let t2 = TxnId(programs.len() as u32 + 1);
        programs.push(g2);
        gadget_txns.push((t1, t2));
    }
    let ic = IntegrityConstraint::new(conjuncts).expect("scopes stay disjoint");
    let all_fixed_structure = programs
        .iter()
        .all(|p| static_structure(p, &catalog).is_fixed());
    Workload {
        catalog,
        ic,
        programs,
        initial,
        all_fixed_structure,
        gadget_txns,
    }
}

/// The CAD scenario: `n_objects` design objects (chain conjuncts),
/// `n_long` long transactions each spanning `long_span` objects (one
/// correct template per object), and `n_short` single-object
/// transactions. All templates are fixed-structure so Theorem 1 applies
/// and early lock release is available.
pub fn cad_workload<R: Rng>(
    rng: &mut R,
    n_objects: usize,
    n_long: usize,
    long_span: usize,
    n_short: usize,
) -> Workload {
    let g = random_ic(
        rng,
        &IcConfig {
            conjuncts: n_objects,
            items_per_conjunct: 3,
            domain_width: 10_000,
        },
    );
    let fixed_kinds: Vec<TemplateKind> = TemplateKind::ALL
        .into_iter()
        .filter(|k| k.is_fixed_structure())
        .collect();
    let mut programs = Vec::new();
    for t in 0..n_long {
        // Pick `long_span` distinct objects; one template body each.
        let mut objs: Vec<usize> = (0..n_objects).collect();
        for i in 0..long_span.min(n_objects) {
            let j = rng.random_range(i..objs.len());
            objs.swap(i, j);
        }
        let mut body = String::new();
        for &ci in objs.iter().take(long_span.min(n_objects)) {
            let kind = fixed_kinds[rng.random_range(0..fixed_kinds.len())];
            let sub = correct_chain_program(rng, &g.catalog, &g.shapes[ci], kind, None, "part");
            // Concatenate the template's text (distinct conjuncts ⇒ no
            // double writes across parts).
            for stmt in &sub.body {
                body.push_str(&stmt_text(stmt));
            }
        }
        programs.push(parse_program(&format!("LONG{t}"), &body).expect("generated text parses"));
    }
    for t in 0..n_short {
        let ci = rng.random_range(0..n_objects);
        let kind = fixed_kinds[rng.random_range(0..fixed_kinds.len())];
        programs.push(correct_chain_program(
            rng,
            &g.catalog,
            &g.shapes[ci],
            kind,
            None,
            &format!("SHORT{t}"),
        ));
    }
    let all_fixed_structure = programs
        .iter()
        .all(|p| static_structure(p, &g.catalog).is_fixed());
    Workload {
        catalog: g.catalog,
        ic: g.ic,
        programs,
        initial: g.initial,
        all_fixed_structure,
        gadget_txns: Vec::new(),
    }
}

fn stmt_text(stmt: &pwsr_tplang::ast::Stmt) -> String {
    // Statements render with trailing newlines via Program's Display;
    // single statements are rebuilt from a throwaway program.
    let p = Program::new("x", vec![stmt.clone()]);
    let text = p.to_string();
    text.lines().skip(1).collect::<Vec<_>>().join(" ")
}

/// The §2.3 registration schema: per-course seat counters with
/// capacity constraints and per-student hour counters with an upper
/// bound. Each student's registration saga is flattened into one
/// enroll transaction per chosen course plus one hours update.
/// `balanced` selects fixed-structure (padded) enrolls.
pub fn registration_workload<R: Rng>(
    rng: &mut R,
    n_students: usize,
    n_courses: usize,
    capacity: i64,
    max_hours: i64,
    courses_per_student: usize,
    balanced: bool,
) -> Workload {
    let mut catalog = Catalog::new();
    let mut conjuncts = Vec::new();
    let mut initial = DbState::new();
    let mut course_items = Vec::new();
    for ci in 0..n_courses {
        let item = catalog.add_item(&format!("course{ci}"), Domain::int_range(0, capacity + 10));
        course_items.push(item);
        conjuncts.push(Conjunct::new(
            ci as u32,
            Formula::and(vec![
                Formula::ge(Term::var(item), Term::int(0)),
                Formula::le(Term::var(item), Term::int(capacity)),
            ]),
        ));
        initial.set(item, Value::Int(0));
    }
    for si in 0..n_students {
        let item = catalog.add_item(
            &format!("hours_s{si}"),
            Domain::int_range(0, max_hours + 10),
        );
        conjuncts.push(Conjunct::new(
            (n_courses + si) as u32,
            Formula::le(Term::var(item), Term::int(max_hours)),
        ));
        initial.set(item, Value::Int(0));
    }
    let ic = IntegrityConstraint::new(conjuncts).expect("registration scopes disjoint");
    let mut programs = Vec::new();
    for si in 0..n_students {
        for _ in 0..courses_per_student {
            let ci = rng.random_range(0..n_courses);
            let c = format!("course{ci}");
            let text = if balanced {
                format!("if ({c} < {capacity}) then {{ {c} := {c} + 1; }} else {{ {c} := {c}; }}")
            } else {
                format!("if ({c} < {capacity}) then {c} := {c} + 1;")
            };
            programs.push(parse_program(&format!("enroll_s{si}_{c}"), &text).unwrap());
        }
        let h = format!("hours_s{si}");
        let hours = rng.random_range(3..=6);
        let text = if balanced {
            format!(
                "if ({h} + {hours} <= {max_hours}) then {{ {h} := {h} + {hours}; }} \
                 else {{ {h} := {h}; }}"
            )
        } else {
            format!("if ({h} + {hours} <= {max_hours}) then {h} := {h} + {hours};")
        };
        programs.push(parse_program(&format!("hours_s{si}"), &text).unwrap());
    }
    let all_fixed_structure = programs
        .iter()
        .all(|p| static_structure(p, &catalog).is_fixed());
    Workload {
        catalog,
        ic,
        programs,
        initial,
        all_fixed_structure,
        gadget_txns: Vec::new(),
    }
}

/// The §4 MDBS scenario: `k_sites` sites, each a chain conjunct (its
/// local constraint). Returns the workload plus the per-site item sets
/// (for `pwsr-scheduler::mdbs::Site`). Local transactions touch one
/// site; global transactions span `global_span` sites.
pub fn mdbs_workload<R: Rng>(
    rng: &mut R,
    k_sites: usize,
    items_per_site: usize,
    n_local: usize,
    n_global: usize,
    global_span: usize,
) -> (Workload, Vec<ItemSet>) {
    let g = random_ic(
        rng,
        &IcConfig {
            conjuncts: k_sites,
            items_per_conjunct: items_per_site,
            domain_width: 10_000,
        },
    );
    let sites: Vec<ItemSet> = g
        .shapes
        .iter()
        .map(|s| s.items().into_iter().collect())
        .collect();
    let fixed_kinds: Vec<TemplateKind> = TemplateKind::ALL
        .into_iter()
        .filter(|k| k.is_fixed_structure())
        .collect();
    let mut programs = Vec::new();
    for t in 0..n_local {
        let ci = rng.random_range(0..k_sites);
        let kind = fixed_kinds[rng.random_range(0..fixed_kinds.len())];
        programs.push(correct_chain_program(
            rng,
            &g.catalog,
            &g.shapes[ci],
            kind,
            None,
            &format!("L{t}"),
        ));
    }
    for t in 0..n_global {
        let mut body = String::new();
        let mut objs: Vec<usize> = (0..k_sites).collect();
        for i in 0..global_span.min(k_sites) {
            let j = rng.random_range(i..objs.len());
            objs.swap(i, j);
        }
        for &ci in objs.iter().take(global_span.min(k_sites)) {
            let kind = fixed_kinds[rng.random_range(0..fixed_kinds.len())];
            let sub = correct_chain_program(rng, &g.catalog, &g.shapes[ci], kind, None, "part");
            for stmt in &sub.body {
                body.push_str(&stmt_text(stmt));
            }
        }
        programs.push(parse_program(&format!("G{t}"), &body).expect("generated text parses"));
    }
    let all_fixed_structure = programs
        .iter()
        .all(|p| static_structure(p, &g.catalog).is_fixed());
    (
        Workload {
            catalog: g.catalog,
            ic: g.ic,
            programs,
            initial: g.initial,
            all_fixed_structure,
            gadget_txns: Vec::new(),
        },
        sites,
    )
}

/// Parameters for [`analyzer_workload`].
#[derive(Clone, Debug)]
pub struct AnalyzerWorkloadConfig {
    /// Chain conjuncts carrying the statically-safe programs.
    pub conjuncts: usize,
    /// Safe blind-write chain programs per conjunct (each conjunct
    /// gets `chain_len + 1` items).
    pub chain_len: usize,
    /// Contended read-modify-write pairs — each on its own fresh
    /// single-item conjunct — that defeat the structural criterion.
    pub tangled_pairs: usize,
    /// Item domain half-width (`[-w, w]`).
    pub domain_width: i64,
}

impl Default for AnalyzerWorkloadConfig {
    fn default() -> Self {
        AnalyzerWorkloadConfig {
            conjuncts: 4,
            chain_len: 4,
            tangled_pairs: 1,
            domain_width: 100,
        }
    }
}

/// The static-analyzer scenario: per conjunct, a **blind-write
/// chain** — program `j` rewrites items `j` and `j + 1` of its
/// conjunct with their initial values, so consecutive programs share
/// exactly one `w-w` conflict instance and the static mixed conflict
/// graph is a path (a forest). No program reads, so there is no cross
/// reads-from either: the analyzer certifies the chains structurally
/// at *every* admission level. Optionally, `tangled_pairs` contended
/// read-modify-write pairs on fresh single-item conjuncts embed a
/// classic lost-update race that defeats the criterion for their own
/// components, leaving the chains as the certified remainder of a
/// mixed workload.
///
/// Program order: the `conjuncts * chain_len` chain programs first
/// (conjunct-major), then the `2 * tangled_pairs` contended programs.
pub fn analyzer_workload<R: Rng>(rng: &mut R, cfg: &AnalyzerWorkloadConfig) -> Workload {
    let GeneratedIc {
        mut catalog,
        ic,
        shapes,
        mut initial,
    } = random_ic(
        rng,
        &IcConfig {
            conjuncts: cfg.conjuncts,
            items_per_conjunct: cfg.chain_len + 1,
            domain_width: cfg.domain_width,
        },
    );
    let mut conjuncts: Vec<Conjunct> = ic.conjuncts().to_vec();
    let mut programs = Vec::new();
    for (ci, shape) in shapes.iter().enumerate() {
        let items = shape.items();
        for j in 0..cfg.chain_len {
            let body: String = [items[j], items[j + 1]]
                .iter()
                .map(|&item| {
                    let v = match initial.get(item) {
                        Some(Value::Int(v)) => *v,
                        _ => 0,
                    };
                    format!("{} := {v}; ", catalog.name(item))
                })
                .collect();
            programs.push(parse_program(&format!("CHAIN{ci}_{j}"), &body).unwrap());
        }
    }
    for p in 0..cfg.tangled_pairs {
        let index = conjuncts.len() as u32;
        let item = catalog.add_item(
            &format!("tangle{p}"),
            Domain::int_range(-cfg.domain_width, cfg.domain_width),
        );
        conjuncts.push(Conjunct::new(
            index,
            Formula::le(Term::var(item), Term::int(cfg.domain_width)),
        ));
        initial.set(item, Value::Int(0));
        let name = catalog.name(item).to_owned();
        programs.push(
            parse_program(&format!("TANGLE{p}A"), &format!("{name} := {name} + 1;")).unwrap(),
        );
        programs.push(
            parse_program(&format!("TANGLE{p}B"), &format!("{name} := {name} + 2;")).unwrap(),
        );
    }
    let ic = IntegrityConstraint::new(conjuncts).expect("fresh tangle conjuncts stay disjoint");
    let all_fixed_structure = programs
        .iter()
        .all(|p| static_structure(p, &catalog).is_fixed());
    Workload {
        catalog,
        ic,
        programs,
        initial,
        all_fixed_structure,
        gadget_txns: Vec::new(),
    }
}

/// The banking scenario: branches with conserved-sum invariants,
/// transfer transactions within each branch and read-only audits.
/// `guarded`/`balanced` select the transfer variant (see
/// `transfer_program`); plain and balanced transfers are
/// fixed-structure, guarded-unbalanced ones are not.
pub fn banking_workload<R: Rng>(
    rng: &mut R,
    bank: &BankConfig,
    n_transfers: usize,
    n_audits: usize,
    guarded: bool,
    balanced: bool,
) -> Workload {
    let g = banking_ic(bank);
    let mut programs = Vec::with_capacity(n_transfers + n_audits);
    for t in 0..n_transfers {
        let b = rng.random_range(0..g.shapes.len());
        programs.push(transfer_program(
            rng,
            &g.catalog,
            &g.shapes[b],
            guarded,
            balanced,
            &format!("XFER{t}"),
        ));
    }
    for t in 0..n_audits {
        let b = rng.random_range(0..g.shapes.len());
        programs.push(audit_program(
            &g.catalog,
            &g.shapes[b],
            &format!("AUDIT{t}"),
        ));
    }
    let all_fixed_structure = programs
        .iter()
        .all(|p| static_structure(p, &g.catalog).is_fixed());
    Workload {
        catalog: g.catalog,
        ic: g.ic,
        programs,
        initial: g.initial,
        all_fixed_structure,
        gadget_txns: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::solver::Solver;
    use pwsr_tplang::interp::execute_and_apply;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_workload_programs_are_individually_correct() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..10 {
            let w = random_workload(&mut rng, &WorkloadConfig::default());
            let solver = Solver::new(&w.catalog, &w.ic);
            assert!(solver.is_consistent_total(&w.initial).unwrap());
            for (k, p) in w.programs.iter().enumerate() {
                let (_, out) =
                    execute_and_apply(p, &w.catalog, TxnId(k as u32 + 1), &w.initial).unwrap();
                assert!(solver.is_consistent(&out), "trial {trial}, {}", p.name);
            }
        }
    }

    #[test]
    fn fixed_only_workloads_are_certified_fixed() {
        let mut rng = StdRng::seed_from_u64(32);
        let cfg = WorkloadConfig {
            fixed_only: true,
            gadgets: 0,
            ..WorkloadConfig::default()
        };
        for _ in 0..10 {
            let w = random_workload(&mut rng, &cfg);
            assert!(w.all_fixed_structure);
        }
    }

    #[test]
    fn gadget_workloads_register_pairs() {
        let mut rng = StdRng::seed_from_u64(33);
        let cfg = WorkloadConfig {
            gadgets: 2,
            n_background: 2,
            ..WorkloadConfig::default()
        };
        let w = random_workload(&mut rng, &cfg);
        assert_eq!(w.gadget_txns.len(), 2);
        assert_eq!(w.programs.len(), 6);
        assert!(!w.all_fixed_structure); // gadget G1 is unbalanced
        assert!(w.ic.is_disjoint());
        assert_eq!(w.ic.len(), 3 + 4);
    }

    #[test]
    fn cad_workload_shape() {
        let mut rng = StdRng::seed_from_u64(34);
        let w = cad_workload(&mut rng, 4, 2, 3, 5);
        assert_eq!(w.programs.len(), 7);
        assert!(w.all_fixed_structure);
        let solver = Solver::new(&w.catalog, &w.ic);
        for (k, p) in w.programs.iter().enumerate() {
            let (_, out) =
                execute_and_apply(p, &w.catalog, TxnId(k as u32 + 1), &w.initial).unwrap();
            assert!(solver.is_consistent(&out), "{}", p.name);
        }
    }

    #[test]
    fn registration_workload_correctness() {
        let mut rng = StdRng::seed_from_u64(35);
        for balanced in [false, true] {
            let w = registration_workload(&mut rng, 3, 2, 30, 18, 2, balanced);
            assert_eq!(w.programs.len(), 3 * (2 + 1));
            assert_eq!(w.all_fixed_structure, balanced);
            let solver = Solver::new(&w.catalog, &w.ic);
            assert!(solver.is_consistent_total(&w.initial).unwrap());
            for (k, p) in w.programs.iter().enumerate() {
                let (_, out) =
                    execute_and_apply(p, &w.catalog, TxnId(k as u32 + 1), &w.initial).unwrap();
                assert!(solver.is_consistent(&out));
            }
        }
    }

    #[test]
    fn banking_workload_correctness() {
        let mut rng = StdRng::seed_from_u64(40);
        for (guarded, balanced, expect_fixed) in [
            (false, false, true),
            (true, false, false),
            (true, true, true),
        ] {
            let w = banking_workload(&mut rng, &BankConfig::default(), 4, 2, guarded, balanced);
            assert_eq!(w.programs.len(), 6);
            assert_eq!(w.all_fixed_structure, expect_fixed);
            let solver = Solver::new(&w.catalog, &w.ic);
            assert!(solver.is_consistent_total(&w.initial).unwrap());
            for (k, p) in w.programs.iter().enumerate() {
                let (_, out) =
                    execute_and_apply(p, &w.catalog, TxnId(k as u32 + 1), &w.initial).unwrap();
                assert!(solver.is_consistent(&out), "{}", p.name);
            }
        }
    }

    #[test]
    fn analyzer_workload_shape_and_correctness() {
        let mut rng = StdRng::seed_from_u64(41);
        let cfg = AnalyzerWorkloadConfig {
            conjuncts: 2,
            chain_len: 3,
            tangled_pairs: 1,
            ..AnalyzerWorkloadConfig::default()
        };
        let w = analyzer_workload(&mut rng, &cfg);
        assert_eq!(w.programs.len(), 2 * 3 + 2);
        assert!(w.all_fixed_structure, "blind writes and RMWs are fixed");
        assert_eq!(w.ic.len(), 2 + 1, "one fresh conjunct per tangle");
        assert!(w.ic.is_disjoint());
        // Chain programs rewrite initial values: running any one of
        // them alone leaves the (consistent) state unchanged.
        let solver = Solver::new(&w.catalog, &w.ic);
        assert!(solver.is_consistent_total(&w.initial).unwrap());
        for (k, p) in w.programs.iter().enumerate() {
            let (_, out) =
                execute_and_apply(p, &w.catalog, TxnId(k as u32 + 1), &w.initial).unwrap();
            assert!(solver.is_consistent(&out), "{}", p.name);
            if p.name.starts_with("CHAIN") {
                assert_eq!(out, w.initial, "chains rewrite initial values");
            }
        }
    }

    #[test]
    fn mdbs_workload_sites_are_disjoint() {
        let mut rng = StdRng::seed_from_u64(36);
        let (w, sites) = mdbs_workload(&mut rng, 3, 2, 4, 2, 2);
        assert_eq!(sites.len(), 3);
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                assert!(sites[i].is_disjoint(&sites[j]));
            }
        }
        assert_eq!(w.programs.len(), 6);
        assert!(w.all_fixed_structure);
    }
}
