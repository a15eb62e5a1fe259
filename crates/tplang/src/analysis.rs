//! Fixed-structure analysis (Definition 3) and related program classes.
//!
//! Definition 3: *"Transaction program TP has a fixed structure if for
//! all pairs (DS₁, DS₂) of database states, struct(T₁) = struct(T₂)"* —
//! the operation sequence with values erased must not depend on the
//! initial state.
//!
//! Three flavours are provided:
//!
//! * [`structure_of`] — the structure of one execution.
//! * `fixed_structure_over` / `is_fixed_structure_exhaustive` (test
//!   only) — ground truth by executing over supplied / all enumerable
//!   states, the oracle the prover's tests are held to.
//! * [`static_structure`] — a conservative *prover*: a `Fixed` verdict
//!   is sound (no execution can deviate), `Unknown` means the program
//!   may or may not be fixed (e.g. branches with different footprints
//!   that are never both reachable).
//!
//! [`rw_footprint`] is the syntactic over-approximation of the items a
//! program may read and write — the raw material for the static
//! robustness analyzer in `pwsr_analysis`.
//!
//! [`is_straight_line`] recognizes the transaction class of the
//! Sha–Lehoczky–Jensen baseline \[14\]: no control flow at all. Every
//! straight-line program is fixed-structure (also checked in tests).

use crate::ast::{BinOp, Cond, Expr, Program, Stmt, UnOp};
use crate::error::Result;
use crate::interp::execute;
use pwsr_core::catalog::Catalog;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::op::{Action, OpStruct};
use pwsr_core::state::{DbState, ItemSet};
use pwsr_core::value::Value;
use std::collections::BTreeSet;

/// `struct(T)` for the transaction produced by running `program` from
/// `state`.
pub fn structure_of(
    program: &Program,
    catalog: &Catalog,
    state: &DbState,
) -> Result<Vec<OpStruct>> {
    Ok(execute(program, catalog, TxnId(0), state)?.structure())
}

/// Is the structure identical across all the given states (pairwise
/// Definition 3 over a finite family)?
#[cfg(test)]
pub(crate) fn fixed_structure_over<'a, I>(
    program: &Program,
    catalog: &Catalog,
    states: I,
) -> Result<bool>
where
    I: IntoIterator<Item = &'a DbState>,
{
    let mut reference: Option<Vec<OpStruct>> = None;
    for st in states {
        let s = structure_of(program, catalog, st)?;
        match &reference {
            None => reference = Some(s),
            Some(r) if *r != s => return Ok(false),
            Some(_) => {}
        }
    }
    Ok(true)
}

/// Read/write-separated access footprint: a sound syntactic
/// over-approximation of the items a program may read (`reads`) and
/// write (`writes`) in **any** execution from **any** state.
///
/// Over-approximation only — an item in `reads` may never actually be
/// read on some (or every) path. The converse is the sound direction:
/// an execution can never read an item outside `reads` nor write one
/// outside `writes`. Because §2.2-valid transactions perform at most
/// one read and one write per item (read caching, single write), the
/// footprint also bounds operation *counts*: at most one `R x` (for
/// `x ∈ reads`) and one `W x` (for `x ∈ writes`) per execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RwFootprint {
    /// Items the program may read.
    pub reads: ItemSet,
    /// Items the program may write.
    pub writes: ItemSet,
}

impl RwFootprint {
    /// Union of both sides: everything the program may access.
    pub fn items(&self) -> ItemSet {
        let mut all = self.reads.clone();
        all.union_with(&self.writes);
        all
    }
}

/// Read/write footprint of a whole program (union over all branches).
pub fn rw_footprint(program: &Program, catalog: &Catalog) -> RwFootprint {
    block_rw_footprint(&program.body, catalog)
}

/// Read/write footprint of one statement block — use on a single
/// branch arm for per-branch footprints.
pub(crate) fn block_rw_footprint(stmts: &[Stmt], catalog: &Catalog) -> RwFootprint {
    let mut fp = RwFootprint::default();
    walk_rw(stmts, catalog, &mut fp);
    fp
}

/// The per-arm footprints of every `if` in the program, in pre-order:
/// one `(then, else)` pair per `if` statement (at any nesting depth).
#[cfg(test)]
pub(crate) fn branch_footprints(
    program: &Program,
    catalog: &Catalog,
) -> Vec<(RwFootprint, RwFootprint)> {
    fn collect(stmts: &[Stmt], catalog: &Catalog, out: &mut Vec<(RwFootprint, RwFootprint)>) {
        for s in stmts {
            match s {
                Stmt::Assign { .. } | Stmt::Touch(_) => {}
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    out.push((
                        block_rw_footprint(then_branch, catalog),
                        block_rw_footprint(else_branch, catalog),
                    ));
                    collect(then_branch, catalog, out);
                    collect(else_branch, catalog, out);
                }
                Stmt::While { body, .. } => collect(body, catalog, out),
            }
        }
    }
    let mut out = Vec::new();
    collect(&program.body, catalog, &mut out);
    out
}

fn names_into(names: Vec<String>, catalog: &Catalog, side: &mut ItemSet) {
    for n in names {
        if let Ok(item) = catalog.lookup(&n) {
            side.insert(item);
        }
    }
}

fn walk_rw(stmts: &[Stmt], catalog: &Catalog, fp: &mut RwFootprint) {
    for s in stmts {
        match s {
            Stmt::Assign { target, expr } => {
                let mut names = Vec::new();
                expr.var_names(&mut names);
                names_into(names, catalog, &mut fp.reads);
                if let Ok(item) = catalog.lookup(target) {
                    fp.writes.insert(item);
                }
            }
            Stmt::Touch(name) => {
                if let Ok(item) = catalog.lookup(name) {
                    fp.reads.insert(item);
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut names = Vec::new();
                cond.var_names(&mut names);
                names_into(names, catalog, &mut fp.reads);
                walk_rw(then_branch, catalog, fp);
                walk_rw(else_branch, catalog, fp);
            }
            Stmt::While { cond, body, .. } => {
                let mut names = Vec::new();
                cond.var_names(&mut names);
                names_into(names, catalog, &mut fp.reads);
                walk_rw(body, catalog, fp);
            }
        }
    }
}

/// Enumerate every total state over the program's accessible items (up
/// to `cap` states) and compare structures. Returns `None` if the state
/// space exceeds `cap` — fall back to sampling in that case.
#[cfg(test)]
pub(crate) fn is_fixed_structure_exhaustive(
    program: &Program,
    catalog: &Catalog,
    cap: u64,
) -> Result<Option<bool>> {
    let items: Vec<ItemId> = rw_footprint(program, catalog).items().iter().collect();
    let mut total: u64 = 1;
    for &i in &items {
        total = total.saturating_mul(catalog.domain(i).size());
        if total > cap {
            return Ok(None);
        }
    }
    // Odometer enumeration over the domains.
    let mut reference: Option<Vec<OpStruct>> = None;
    let mut counters: Vec<u64> = vec![0; items.len()];
    loop {
        let mut st = DbState::new();
        for (k, &i) in items.iter().enumerate() {
            let v = catalog
                .domain(i)
                .iter()
                .nth(counters[k] as usize)
                .expect("counter within domain");
            st.set(i, v);
        }
        let s = structure_of(program, catalog, &st)?;
        match &reference {
            None => reference = Some(s),
            Some(r) if *r != s => return Ok(Some(false)),
            Some(_) => {}
        }
        // Advance the odometer.
        let mut k = 0;
        loop {
            if k == items.len() {
                return Ok(Some(true));
            }
            counters[k] += 1;
            if counters[k] < catalog.domain(items[k]).size() {
                break;
            }
            counters[k] = 0;
            k += 1;
        }
    }
}

/// Verdict of the conservative static prover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StaticVerdict {
    /// Definitely fixed-structure: every execution from every state
    /// emits the same operation-structure sequence.
    Fixed,
    /// Could not be proven fixed (with the obstruction found).
    Unknown(String),
}

impl StaticVerdict {
    /// Was a `Fixed` proof found?
    pub fn is_fixed(&self) -> bool {
        matches!(self, StaticVerdict::Fixed)
    }
}

/// Conservative static fixed-structure check. Sound for `Fixed`:
/// branches must have identical op footprints given the read cache at
/// entry, and loops must be operation-silent. Conditions built only
/// from constants are folded, so dead arms (`if (1 > 0) …`) and
/// never-entered loops (`while (false) …`) don't block a proof, and
/// short-circuit evaluation of `&&`/`||` is modelled: a
/// state-dependent left operand makes the right operand's *fresh* item
/// reads state-dependent too.
pub fn static_structure(program: &Program, catalog: &Catalog) -> StaticVerdict {
    let mut cached: BTreeSet<ItemId> = BTreeSet::new();
    match sym_block(&program.body, catalog, &mut cached) {
        Ok(_) => StaticVerdict::Fixed,
        Err(reason) => StaticVerdict::Unknown(reason),
    }
}

/// Evaluate an expression built only from constants, mirroring the
/// interpreter's checked arithmetic (overflow ⇒ no fold). Any variable
/// — item or local — blocks the fold.
fn const_eval_expr(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Const(v) => Some(v.clone()),
        Expr::Var(_) => None,
        Expr::Unary(op, e) => {
            let v = const_eval_expr(e)?.as_int()?;
            let out = match op {
                UnOp::Neg => v.checked_neg(),
                UnOp::Abs => v.checked_abs(),
            };
            out.map(Value::Int)
        }
        Expr::Binary(op, l, r) => {
            let lv = const_eval_expr(l)?.as_int()?;
            let rv = const_eval_expr(r)?.as_int()?;
            let out = match op {
                BinOp::Add => lv.checked_add(rv),
                BinOp::Sub => lv.checked_sub(rv),
                BinOp::Mul => lv.checked_mul(rv),
                BinOp::Min => Some(lv.min(rv)),
                BinOp::Max => Some(lv.max(rv)),
            };
            out.map(Value::Int)
        }
    }
}

/// Evaluate a condition built only from constants, mirroring the
/// interpreter's left-to-right short-circuit evaluation. `None` means
/// the truth value is (possibly) state-dependent.
fn const_eval_cond(cond: &Cond) -> Option<bool> {
    match cond {
        Cond::True => Some(true),
        Cond::False => Some(false),
        Cond::Cmp(op, l, r) => {
            let lv = const_eval_expr(l)?;
            let rv = const_eval_expr(r)?;
            op.apply(&lv, &rv).ok()
        }
        Cond::And(l, r) => match const_eval_cond(l)? {
            false => Some(false),
            true => const_eval_cond(r),
        },
        Cond::Or(l, r) => match const_eval_cond(l)? {
            true => Some(true),
            false => const_eval_cond(r),
        },
        Cond::Not(c) => const_eval_cond(c).map(|b| !b),
    }
}

/// Symbolic walk result: the op-structure footprint of the block.
pub(crate) fn sym_block(
    stmts: &[Stmt],
    catalog: &Catalog,
    cached: &mut BTreeSet<ItemId>,
) -> std::result::Result<Vec<OpStruct>, String> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::Assign { target, expr } => {
                sym_expr(expr, catalog, cached, &mut out);
                if let Ok(item) = catalog.lookup(target) {
                    out.push(OpStruct {
                        action: Action::Write,
                        item,
                    });
                    cached.insert(item); // write buffer serves later reads
                }
            }
            Stmt::Touch(name) => {
                if let Ok(item) = catalog.lookup(name) {
                    if cached.insert(item) {
                        out.push(OpStruct {
                            action: Action::Read,
                            item,
                        });
                    }
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                sym_cond(cond, catalog, cached, &mut out)?;
                match const_eval_cond(cond) {
                    // Constant condition: only the live arm ever runs.
                    Some(true) => out.extend(sym_block(then_branch, catalog, cached)?),
                    Some(false) => out.extend(sym_block(else_branch, catalog, cached)?),
                    None => {
                        let mut cached_then = cached.clone();
                        let mut cached_else = cached.clone();
                        let then_ops = sym_block(then_branch, catalog, &mut cached_then)?;
                        let else_ops = sym_block(else_branch, catalog, &mut cached_else)?;
                        if then_ops != else_ops {
                            return Err(format!(
                                "if-branches have different operation footprints ({} vs {} ops)",
                                then_ops.len(),
                                else_ops.len()
                            ));
                        }
                        out.extend(then_ops);
                        *cached = cached_then; // equal footprints ⇒ equal caches
                    }
                }
            }
            Stmt::While { cond, body, .. } => {
                sym_cond(cond, catalog, cached, &mut out)?;
                if const_eval_cond(cond) == Some(false) {
                    continue; // body provably never entered
                }
                let mut cached_body = cached.clone();
                let body_ops = sym_block(body, catalog, &mut cached_body)?;
                if !body_ops.is_empty() {
                    return Err(
                        "while body performs data-item operations (iteration count is state-dependent)"
                            .to_owned(),
                    );
                }
            }
        }
    }
    Ok(out)
}

fn sym_expr(
    expr: &Expr,
    catalog: &Catalog,
    cached: &mut BTreeSet<ItemId>,
    out: &mut Vec<OpStruct>,
) {
    let mut names = Vec::new();
    expr.var_names(&mut names);
    for n in names {
        if let Ok(item) = catalog.lookup(&n) {
            if cached.insert(item) {
                out.push(OpStruct {
                    action: Action::Read,
                    item,
                });
            }
        }
    }
}

/// Would evaluating `cond` emit no read operation given the items
/// already `cached` (so skipping it is invisible in the structure)?
fn cond_reads_all_cached(cond: &Cond, catalog: &Catalog, cached: &BTreeSet<ItemId>) -> bool {
    let mut names = Vec::new();
    cond.var_names(&mut names);
    names
        .into_iter()
        .filter_map(|n| catalog.lookup(&n).ok())
        .all(|item| cached.contains(&item))
}

/// Symbolically evaluate a condition's reads, modelling the
/// interpreter's short-circuit `&&`/`||`: the right operand only runs
/// when the left doesn't decide the answer, so its fresh reads are
/// state-dependent unless the left operand folds to a constant.
fn sym_cond(
    cond: &Cond,
    catalog: &Catalog,
    cached: &mut BTreeSet<ItemId>,
    out: &mut Vec<OpStruct>,
) -> std::result::Result<(), String> {
    match cond {
        Cond::True | Cond::False => Ok(()),
        Cond::Cmp(_, l, r) => {
            // Comparisons evaluate both sides unconditionally.
            sym_expr(l, catalog, cached, out);
            sym_expr(r, catalog, cached, out);
            Ok(())
        }
        Cond::Not(c) => sym_cond(c, catalog, cached, out),
        Cond::And(l, r) | Cond::Or(l, r) => {
            let skips_on = matches!(cond, Cond::And(_, _));
            sym_cond(l, catalog, cached, out)?;
            match const_eval_cond(l) {
                // Left is constant: the right operand either always or
                // never runs — both are state-independent.
                Some(b) if b != skips_on => sym_cond(r, catalog, cached, out),
                Some(_) => Ok(()),
                // Left is state-dependent: the right operand runs on
                // some states only. Sound only if it can emit no read.
                None if cond_reads_all_cached(r, catalog, cached) => Ok(()),
                None => Err(format!(
                    "right operand of short-circuit `{}` reads items conditionally",
                    if skips_on { "&&" } else { "||" },
                )),
            }
        }
    }
}

/// Is the program straight-line (no `if`/`while` at any depth)? This is
/// the restriction on transactions assumed by Sha et al. \[14\], which the
/// paper relaxes. Straight-line ⇒ fixed-structure.
pub fn is_straight_line(program: &Program) -> bool {
    !program.has_control_flow()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use pwsr_core::value::Domain;

    fn catalog_abc(lo: i64, hi: i64) -> Catalog {
        let mut cat = Catalog::new();
        for name in ["a", "b", "c"] {
            cat.add_item(name, Domain::int_range(lo, hi));
        }
        cat
    }

    #[test]
    fn example2_tp1_is_not_fixed() {
        // The paper: "in Example 2, the transaction program TP1 does not
        // have a fixed structure."
        let cat = catalog_abc(-2, 2);
        let tp1 = parse_program("TP1", "a := 1; if (c > 0) then b := abs(b) + 1;").unwrap();
        assert_eq!(
            is_fixed_structure_exhaustive(&tp1, &cat, 10_000).unwrap(),
            Some(false)
        );
        assert!(!static_structure(&tp1, &cat).is_fixed());
    }

    #[test]
    fn example2_tp1_prime_is_fixed() {
        // TP1′ pads the else branch with b := b.
        let cat = catalog_abc(-2, 2);
        let tp1p = parse_program(
            "TP1p",
            "a := 1; if (c > 0) then { b := abs(b) + 1; } else { b := b; }",
        )
        .unwrap();
        assert_eq!(
            is_fixed_structure_exhaustive(&tp1p, &cat, 10_000).unwrap(),
            Some(true)
        );
        assert!(static_structure(&tp1p, &cat).is_fixed());
    }

    #[test]
    fn straight_line_is_fixed() {
        let cat = catalog_abc(-2, 2);
        let p = parse_program("P", "b := c - 5; a := b * 2;").unwrap();
        assert!(is_straight_line(&p));
        assert!(static_structure(&p, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&p, &cat, 10_000).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn branching_but_balanced_is_not_straight_line() {
        let cat = catalog_abc(-2, 2);
        let p = parse_program("P", "if (a > 0) then { b := 1; } else { b := 2; }").unwrap();
        assert!(!is_straight_line(&p));
        // …but it IS fixed-structure: same footprint in both branches.
        assert!(static_structure(&p, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&p, &cat, 10_000).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn identical_footprint_arms_prove_fixed() {
        // Different ASTs in the two arms, identical op footprints
        // ([R b, W b] both): the prover compares emitted structures,
        // not syntax, so this must prove Fixed.
        let cat = catalog_abc(-2, 2);
        let p = parse_program(
            "P",
            "if (c > 0) then { b := abs(b) + 1; } else { b := b * 2; }",
        )
        .unwrap();
        assert!(static_structure(&p, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&p, &cat, 10_000).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn static_is_conservative() {
        // Both branches write different items, but the condition is a
        // tautology over the domain (a*a >= 0): every execution takes
        // the then-branch, so the program is in fact fixed. The static
        // prover cannot see this and answers Unknown — the exhaustive
        // check knows better.
        let cat = catalog_abc(-2, 2);
        let p = parse_program("P", "if (a * a >= 0) then { b := 1; } else { c := 1; }").unwrap();
        assert!(!static_structure(&p, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&p, &cat, 10_000).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn constant_condition_folds_to_live_arm() {
        // The arms differ, but the condition is variable-free: only the
        // then-arm can ever run, so the program is fixed after all.
        let cat = catalog_abc(-2, 2);
        let p = parse_program("P", "if (1 > 0) then { b := 1; } else { c := 2; }").unwrap();
        assert!(static_structure(&p, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&p, &cat, 10_000).unwrap(),
            Some(true)
        );
        // The footprint of the live arm still counts.
        let q = parse_program("Q", "if (0 > 1) then { b := 1; } else { c := 2; }").unwrap();
        assert!(static_structure(&q, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&q, &cat, 10_000).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn false_loop_condition_folds_away() {
        // `while (false)` never enters its body, so item operations in
        // the body can't make the structure state-dependent.
        let cat = catalog_abc(-2, 2);
        let p = parse_program("P", "while (false) do { b := b - 1; } a := 1;").unwrap();
        assert!(static_structure(&p, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&p, &cat, 10_000).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn short_circuit_reads_are_state_dependent() {
        // `a > 5 && b > 0`: when a ≤ 5 the right operand never runs and
        // `b` is never read — the structure depends on the state. The
        // prover must NOT claim Fixed here (regression: it once emitted
        // all condition reads unconditionally).
        let cat = catalog_abc(-2, 8);
        let p =
            parse_program("P", "if (a > 5 && b > 0) then { c := 1; } else { c := 1; }").unwrap();
        assert!(!static_structure(&p, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&p, &cat, 100_000).unwrap(),
            Some(false)
        );
        // Same for `||`, which skips the right operand when the left
        // already holds.
        let q =
            parse_program("Q", "if (a > 5 || b > 0) then { c := 1; } else { c := 1; }").unwrap();
        assert!(!static_structure(&q, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&q, &cat, 100_000).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn short_circuit_over_cached_reads_is_fixed() {
        // The right operand's only item is already read before the
        // branch, so skipping it emits nothing either way.
        let cat = catalog_abc(-2, 8);
        let p = parse_program(
            "P",
            "touch b; if (a > 5 && b > 0) then { c := 1; } else { c := 1; }",
        )
        .unwrap();
        assert!(static_structure(&p, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&p, &cat, 100_000).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn constant_left_operand_unblocks_short_circuit() {
        // `1 > 0 && b > 0` always evaluates the right operand; the read
        // of b is unconditional and the structure fixed.
        let cat = catalog_abc(-2, 2);
        let p =
            parse_program("P", "if (1 > 0 && b > 0) then { c := 1; } else { c := 1; }").unwrap();
        assert!(static_structure(&p, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&p, &cat, 10_000).unwrap(),
            Some(true)
        );
        // `1 > 0 || b > 0` never evaluates it; b is never read.
        let q =
            parse_program("Q", "if (1 > 0 || b > 0) then { c := 1; } else { c := 1; }").unwrap();
        assert!(static_structure(&q, &cat).is_fixed());
        assert_eq!(
            is_fixed_structure_exhaustive(&q, &cat, 10_000).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn loops_on_locals_are_fixed() {
        let cat = catalog_abc(-2, 2);
        let p = parse_program("P", "i := 0; while (i < 3) do { i := i + 1; } a := i;").unwrap();
        assert!(static_structure(&p, &cat).is_fixed());
    }

    #[test]
    fn loops_touching_items_are_unknown() {
        let cat = catalog_abc(-2, 2);
        let p = parse_program("P", "while (a > 0) do { b := b - 1; }").unwrap();
        let v = static_structure(&p, &cat);
        assert!(matches!(v, StaticVerdict::Unknown(_)));
    }

    #[test]
    fn rw_footprint_separates_sides() {
        let cat = catalog_abc(-2, 2);
        let a = cat.lookup("a").unwrap();
        let b = cat.lookup("b").unwrap();
        let c = cat.lookup("c").unwrap();
        let p = parse_program("P", "if (a > 0) then b := 1; else c := c + 1;").unwrap();
        let fp = rw_footprint(&p, &cat);
        assert!(fp.reads.contains(a) && fp.reads.contains(c));
        assert!(!fp.reads.contains(b));
        assert!(fp.writes.contains(b) && fp.writes.contains(c));
        assert!(!fp.writes.contains(a));
        assert_eq!(fp.items().len(), 3);
    }

    #[test]
    fn footprint_items_are_the_syntactic_union() {
        let cat = catalog_abc(-2, 2);
        let p = parse_program("P", "if (a > 0) then b := 1; else c := temp_local;").unwrap();
        // temp_local is not a catalog item.
        assert_eq!(rw_footprint(&p, &cat).items().len(), 3);
    }

    #[test]
    fn branch_footprints_cover_each_arm() {
        let cat = catalog_abc(-2, 2);
        let b = cat.lookup("b").unwrap();
        let c = cat.lookup("c").unwrap();
        let p = parse_program(
            "P",
            "if (a > 0) then { b := 1; } else { if (b > 0) then c := 1; }",
        )
        .unwrap();
        let arms = branch_footprints(&p, &cat);
        assert_eq!(arms.len(), 2); // outer if + nested if
        let (outer_then, outer_else) = &arms[0];
        assert!(outer_then.writes.contains(b) && outer_then.reads.is_empty());
        assert!(outer_else.reads.contains(b) && outer_else.writes.contains(c));
        let (inner_then, inner_else) = &arms[1];
        assert!(inner_then.writes.contains(c));
        assert_eq!(*inner_else, RwFootprint::default());
    }

    #[test]
    fn exhaustive_gives_up_over_cap() {
        let cat = catalog_abc(-100, 100); // 201³ ≈ 8.1M states
        let p = parse_program("P", "a := b + c;").unwrap();
        assert_eq!(
            is_fixed_structure_exhaustive(&p, &cat, 1_000).unwrap(),
            None
        );
    }

    #[test]
    fn fixed_over_explicit_states() {
        let cat = catalog_abc(-2, 2);
        let c = cat.lookup("c").unwrap();
        let b = cat.lookup("b").unwrap();
        let tp1 = parse_program("TP1", "a := 1; if (c > 0) then b := abs(b) + 1;").unwrap();
        use pwsr_core::value::Value;
        let s_pos = DbState::from_pairs([(c, Value::Int(1)), (b, Value::Int(0))]);
        let s_neg = DbState::from_pairs([(c, Value::Int(-1)), (b, Value::Int(0))]);
        // Same-branch states agree...
        assert!(fixed_structure_over(&tp1, &cat, [&s_pos, &s_pos.clone()]).unwrap());
        // ...cross-branch states do not.
        assert!(!fixed_structure_over(&tp1, &cat, [&s_pos, &s_neg]).unwrap());
    }

    #[test]
    fn structure_of_matches_execute() {
        let cat = catalog_abc(-2, 2);
        let p = parse_program("P", "b := c - 1;").unwrap();
        use pwsr_core::value::Value;
        let st = DbState::from_pairs([(cat.lookup("c").unwrap(), Value::Int(1))]);
        let s = structure_of(&p, &cat, &st).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].action, Action::Read);
        assert_eq!(s[1].action, Action::Write);
    }
}
