//! Property-based tests for the program substrate: interpreter
//! determinism, session/isolated equivalence, the compiled machine
//! against the reference tree walk, fixed-structure soundness, and the
//! `fix_structure` rewrite.

use proptest::prelude::*;
use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::Cmp;
use pwsr_core::ids::TxnId;
use pwsr_core::state::DbState;
use pwsr_core::value::{Domain, Value};
use pwsr_tplang::analysis::{is_straight_line, static_structure};
use pwsr_tplang::ast::{BinOp, Cond, Expr, Program, Stmt, UnOp};
use pwsr_tplang::interp::{execute, execute_and_apply, run_with_reads, RunOutcome};
use pwsr_tplang::session::{Pending, ProgramSession};
use pwsr_tplang::transform::fix_structure;

#[path = "reference.rs"]
mod reference;

const ITEMS: [&str; 4] = ["a", "b", "c", "d"];

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    for n in ITEMS {
        cat.add_item(n, Domain::int_range(-100, 100));
    }
    cat
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::int),
        (0..ITEMS.len()).prop_map(|i| Expr::var(ITEMS[i])),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.add(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.sub(r)),
            inner.prop_map(|e| e.abs()),
        ]
    })
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    (arb_expr(), arb_expr(), 0u8..4).prop_map(|(l, r, op)| match op {
        0 => Cond::gt(l, r),
        1 => Cond::lt(l, r),
        2 => Cond::eq(l, r),
        _ => Cond::ge(l, r),
    })
}

/// Programs with straight-line bodies plus at most one balanced if —
/// each item written at most once overall (to satisfy §2.2 for sure,
/// writes go to distinct items).
fn arb_program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(arb_expr(), 1..3),
        arb_cond(),
        any::<bool>(),
        proptest::sample::subsequence(vec![0usize, 1, 2, 3], 1..4),
    )
        .prop_map(|(exprs, cond, with_if, targets)| {
            let mut body = Vec::new();
            let mut targets = targets.into_iter();
            for e in exprs {
                if let Some(t) = targets.next() {
                    body.push(Stmt::assign(ITEMS[t], e));
                }
            }
            if with_if {
                if let Some(t) = targets.next() {
                    let name = ITEMS[t];
                    body.push(Stmt::If {
                        cond,
                        then_branch: vec![Stmt::assign(name, Expr::var(name).add(Expr::int(1)))],
                        else_branch: vec![Stmt::assign(name, Expr::var(name))],
                    });
                }
            }
            Program::new("P", body)
        })
}

/// Names for the wide generator: the four items, two locals the
/// programs assign, and one nothing ever assigns.
const WIDE_NAMES: [&str; 7] = ["a", "b", "c", "d", "t", "u", "ghost"];

fn arb_name() -> impl Strategy<Value = &'static str> {
    // `ghost` (an unbound local wherever it is read) stays rare.
    (0usize..61).prop_map(|i| WIDE_NAMES[if i == 60 { 6 } else { i % 6 }])
}

/// Everything an expression can be: every operator, locals, constants
/// that overflow under `+` / `*` / `neg`, and the odd non-int.
fn arb_wide_expr() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-4i64..5).prop_map(Expr::int),
        (-4i64..5).prop_map(Expr::int),
        arb_name().prop_map(Expr::var),
        arb_name().prop_map(Expr::var),
        arb_name().prop_map(Expr::var),
        (0u8..8).prop_map(|k| match k {
            0 => Expr::int(i64::MAX),
            1 => Expr::int(i64::MIN),
            2 => Expr::Const(Value::Bool(true)),
            _ => Expr::int(i64::from(k)),
        }),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0u8..5).prop_map(|(l, r, op)| {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max][op as usize];
                Expr::Binary(op, Box::new(l), Box::new(r))
            }),
            (inner, any::<bool>()).prop_map(|(e, neg)| {
                Expr::Unary(if neg { UnOp::Neg } else { UnOp::Abs }, Box::new(e))
            }),
        ]
    })
}

fn arb_wide_cond() -> BoxedStrategy<Cond> {
    let leaf = prop_oneof![
        (arb_wide_expr(), arb_wide_expr(), 0u8..6).prop_map(|(l, r, op)| {
            let op = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge][op as usize];
            Cond::Cmp(op, l, r)
        }),
        (arb_wide_expr(), arb_wide_expr()).prop_map(|(l, r)| Cond::lt(l, r)),
        any::<bool>().prop_map(|b| if b { Cond::True } else { Cond::False }),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Cond::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Cond::Or(Box::new(l), Box::new(r))),
            inner.prop_map(|c| Cond::Not(Box::new(c))),
        ]
    })
}

/// Statements to the language's full width: writes to items (twice to
/// the same one happens by itself) and to locals, `touch`, `if` with
/// either arm empty or not, and `while` — over anything, with a limit
/// small enough to be hit — nested two deep.
fn arb_wide_block() -> BoxedStrategy<Vec<Stmt>> {
    let simple = prop_oneof![
        (arb_name(), arb_wide_expr()).prop_map(|(n, e)| Stmt::assign(n, e)),
        (arb_name(), arb_wide_expr()).prop_map(|(n, e)| Stmt::assign(n, e)),
        arb_name().prop_map(|n| Stmt::Touch(n.to_owned())),
    ];
    let leaf = proptest::collection::vec(simple, 0..4);
    leaf.prop_recursive(2, 8, 3, |inner| {
        let nested = prop_oneof![
            (arb_wide_cond(), inner.clone(), inner.clone()).prop_map(
                |(cond, then_branch, else_branch)| Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                }
            ),
            (arb_wide_cond(), inner.clone(), 0u32..4)
                .prop_map(|(cond, body, limit)| { Stmt::While { cond, body, limit } }),
            // The counting loop of `while_loop_runs_on_locals`, so that
            // loops also *finish*: `t` climbs to `n` under a limit that
            // is sometimes one short.
            (0i64..4, inner.clone(), 2u32..5).prop_map(|(n, mut body, limit)| {
                body.push(Stmt::assign("t", Expr::var("t").add(Expr::int(1))));
                Stmt::While {
                    cond: Cond::lt(Expr::var("t"), Expr::int(n)),
                    body,
                    limit,
                }
            }),
        ];
        (inner.clone(), nested, inner).prop_map(|(mut before, stmt, after)| {
            before.push(stmt);
            before.extend(after);
            before
        })
    })
}

fn arb_wide_program() -> impl Strategy<Value = Program> {
    // Mostly the locals are bound up front, so that most programs get
    // past their first statement; sometimes one is left to chance.
    (0u8..8, 0u8..8, arb_wide_block()).prop_map(|(t, u, mut body)| {
        for (name, unbound) in [("u", u == 0), ("t", t == 0)] {
            if !unbound {
                body.insert(0, Stmt::assign(name, Expr::int(0)));
            }
        }
        Program::new("W", body)
    })
}

/// A read log: small ints, with the odd value no operator accepts.
fn arb_read_log() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(
        (-3i64..30).prop_map(|v| match v {
            -3 => Value::Bool(false),
            -2 => Value::str("s"),
            v => Value::Int(v),
        }),
        0..7,
    )
}

fn arb_state() -> impl Strategy<Value = DbState> {
    proptest::collection::vec(-30i64..30, ITEMS.len()).prop_map(|vals| {
        let cat = catalog();
        DbState::from_pairs(
            ITEMS
                .iter()
                .zip(vals)
                .map(|(n, v)| (cat.lookup(n).unwrap(), Value::Int(v))),
        )
    })
}

proptest! {
    /// The interpreter is deterministic.
    #[test]
    fn execution_is_deterministic(p in arb_program(), st in arb_state()) {
        let cat = catalog();
        let a = execute(&p, &cat, TxnId(1), &st);
        let b = execute(&p, &cat, TxnId(1), &st);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Driving a session step-by-step against a private copy of the
    /// state produces exactly the isolated transaction.
    #[test]
    fn session_equals_isolated(p in arb_program(), st in arb_state()) {
        let cat = catalog();
        let isolated = execute(&p, &cat, TxnId(1), &st).unwrap();
        let mut db = st.clone();
        let mut sess = ProgramSession::new(&p, &cat, TxnId(1));
        let mut ops = Vec::new();
        loop {
            match sess.pending().unwrap() {
                Pending::NeedRead(item) => {
                    let v = db.get(item).unwrap().clone();
                    ops.push(sess.feed_read(v).unwrap());
                }
                Pending::Write(op) => {
                    db.set(op.item, op.value.clone());
                    ops.push(op);
                    sess.advance_write().unwrap();
                }
                Pending::Done => break,
            }
        }
        prop_assert_eq!(ops, isolated.ops().to_vec());
    }

    /// The compiled machine is the reference tree walk, observably: on
    /// every prefix of a read log the two report the same operations
    /// and the same suspended item, or the same error — and a session
    /// fed the whole log answers every `pending` call with what a
    /// replay of the values fed so far would answer, so an error
    /// surfaces at the same call.
    #[test]
    fn machine_equals_reference(p in arb_wide_program(), log in arb_read_log()) {
        let cat = catalog();
        for k in 0..=log.len() {
            let machine = run_with_reads(&p, &cat, TxnId(3), &log[..k]);
            let oracle = reference::run_with_reads(&p, &cat, TxnId(3), &log[..k]);
            prop_assert_eq!(format!("{machine:?}"), format!("{oracle:?}"), "prefix {}\n{}", k, p);
        }
        let mut sess = ProgramSession::new(&p, &cat, TxnId(3));
        let mut fed = 0;
        loop {
            let expected = reference::run_with_reads(&p, &cat, TxnId(3), &log[..fed]).map(|run| {
                let (ops, item) = match run {
                    RunOutcome::Complete { ops } => (ops, None),
                    RunOutcome::NeedsRead { item, ops } => (ops, Some(item)),
                };
                match (ops.get(sess.emitted()), item) {
                    (Some(op), _) => Pending::Write(op.clone()),
                    (None, Some(item)) => Pending::NeedRead(item),
                    (None, None) => Pending::Done,
                }
            });
            let pending = sess.pending();
            prop_assert_eq!(&pending, &expected, "after {} reads\n{}", fed, p);
            match pending {
                Ok(Pending::NeedRead(item)) if fed < log.len() => {
                    let op = sess.feed_read(log[fed].clone()).unwrap();
                    prop_assert_eq!(op, pwsr_core::op::Operation::read(TxnId(3), item, log[fed].clone()));
                    fed += 1;
                }
                Ok(Pending::Write(_)) => sess.advance_write().unwrap(),
                _ => break,
            }
        }
    }

    /// Transactions produced by the interpreter satisfy §2.2 (their
    /// constructor re-validates, so executing cannot yield a malformed
    /// transaction), and write effects match the final state delta.
    #[test]
    fn produced_transactions_are_wellformed(p in arb_program(), st in arb_state()) {
        let cat = catalog();
        if let Ok((txn, out)) = execute_and_apply(&p, &cat, TxnId(1), &st) {
            prop_assert!(out.extends(&txn.write_state()));
            // Unwritten items unchanged.
            for (item, v) in st.iter() {
                if !txn.write_set().contains(item) {
                    prop_assert_eq!(out.get(item), Some(v));
                }
            }
        }
    }

    /// A `Fixed` verdict from the static prover is sound: structures
    /// agree across arbitrary state pairs.
    #[test]
    fn static_fixed_is_sound(p in arb_program(), s1 in arb_state(), s2 in arb_state()) {
        let cat = catalog();
        if static_structure(&p, &cat).is_fixed() {
            let t1 = execute(&p, &cat, TxnId(1), &s1);
            let t2 = execute(&p, &cat, TxnId(1), &s2);
            if let (Ok(t1), Ok(t2)) = (t1, t2) {
                prop_assert_eq!(t1.structure(), t2.structure());
            }
        }
    }

    /// Straight-line programs are always provably fixed.
    #[test]
    fn straight_line_implies_fixed(p in arb_program()) {
        let cat = catalog();
        if is_straight_line(&p) {
            prop_assert!(static_structure(&p, &cat).is_fixed());
        }
    }

    /// `fix_structure` preserves final-state semantics and achieves
    /// provable fixedness whenever it succeeds.
    #[test]
    fn fix_structure_sound_and_semantics_preserving(
        p in arb_program(),
        st in arb_state(),
    ) {
        let cat = catalog();
        if let Ok(fixed) = fix_structure(&p, &cat) {
            prop_assert!(static_structure(&fixed, &cat).is_fixed());
            let orig = execute_and_apply(&p, &cat, TxnId(1), &st);
            let new = execute_and_apply(&fixed, &cat, TxnId(1), &st);
            match (orig, new) {
                (Ok((_, o1)), Ok((_, o2))) => prop_assert_eq!(o1, o2),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "behaviour diverged: {:?} vs {:?}",
                    a.map(|x| x.1),
                    b.map(|x| x.1)
                ),
            }
        }
    }

    /// Pretty-print → parse stabilizes after one generation (negative
    /// literals re-parse as unary negation, so the first round trip may
    /// renormalize; the second must be the identity).
    #[test]
    fn display_parse_roundtrip(p in arb_program()) {
        let strip = |text: &str| -> String {
            text.lines().skip(1).collect::<Vec<_>>().join("\n")
        };
        let gen1 =
            pwsr_tplang::parser::parse_program("P", &strip(&p.to_string())).unwrap();
        let gen2 =
            pwsr_tplang::parser::parse_program("P", &strip(&gen1.to_string())).unwrap();
        prop_assert_eq!(gen2.body, gen1.body);
    }
}
