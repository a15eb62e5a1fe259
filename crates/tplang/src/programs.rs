//! The paper's example programs, constraints and schedules, as code.
//!
//! Each `example*` function returns a complete [`PaperScenario`]:
//! catalog + integrity constraint + transaction programs + the initial
//! state the paper uses + (where the paper gives one) the exact
//! schedule. The experiment harness replays these to regenerate every
//! example in the paper; tests cross-check them against the paper's
//! stated outcomes.
//!
//! **Transcription note (Example 5).** The archival scan garbles some
//! subscripts and operators in Example 5. The encoding here is
//! reconstructed so that all of the paper's stated properties hold
//! simultaneously (initial state `(10, 0, 10, 5)` consistent; final
//! state `{(a,30),(b,25),(c,30),(d,−15)}`; schedule DR; `DAG(S, IC)`
//! acyclic; all programs fixed-structure; `d > 0` violated at the end):
//! `TP1: b := c − 5`, `TP2: temp := c; a := temp+20; c := temp+20`,
//! `TP3: d := a − b`, with the schedule
//! `r3(a,10), r2(c,10), w2(a,30), w2(c,30), r1(c,30), w1(b,25),
//! r3(b,25), w3(d,−15)`.

use crate::ast::Program;
use crate::parser::parse_program;
use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
use pwsr_core::ids::TxnId;
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::DbState;
use pwsr_core::value::{Domain, Value};

/// A fully specified scenario from the paper.
#[derive(Clone, Debug)]
pub struct PaperScenario {
    /// Items and domains.
    pub catalog: Catalog,
    /// The integrity constraint (overlapping conjuncts where the paper
    /// uses them — Examples 4 and 5).
    pub ic: IntegrityConstraint,
    /// The transaction programs, in `TxnId` order (program `k` runs as
    /// transaction `k+1`).
    pub programs: Vec<Program>,
    /// The initial database state used in the paper.
    pub initial: DbState,
    /// The paper's schedule, if the example gives one.
    pub schedule: Option<Schedule>,
}

fn wide_domain() -> Domain {
    Domain::int_range(-100, 100)
}

/// Example 1 (§2.2): notation. `TP1: if (a ≥ 0) then b := c else c := d`,
/// `TP2: d := a`, from `DS1 = {(a,0),(b,10),(c,5),(d,10)}`, with
/// schedule `r1(a,0), r2(a,0), w2(d,0), r1(c,5), w1(b,5)`.
pub fn example1() -> PaperScenario {
    let mut catalog = Catalog::new();
    let a = catalog.add_item("a", wide_domain());
    let b = catalog.add_item("b", wide_domain());
    let c = catalog.add_item("c", wide_domain());
    let d = catalog.add_item("d", wide_domain());
    // Example 1 states no integrity constraint; use the trivial one.
    let ic = IntegrityConstraint::new(vec![Conjunct::new(0, Formula::True)]).unwrap();
    let programs = vec![
        parse_program("TP1", "if (a >= 0) then b := c; else c := d;").unwrap(),
        parse_program("TP2", "d := a;").unwrap(),
    ];
    let initial = DbState::from_pairs([
        (a, Value::Int(0)),
        (b, Value::Int(10)),
        (c, Value::Int(5)),
        (d, Value::Int(10)),
    ]);
    let schedule = Schedule::new(vec![
        Operation::read(TxnId(1), a, Value::Int(0)),
        Operation::read(TxnId(2), a, Value::Int(0)),
        Operation::write(TxnId(2), d, Value::Int(0)),
        Operation::read(TxnId(1), c, Value::Int(5)),
        Operation::write(TxnId(1), b, Value::Int(5)),
    ])
    .unwrap();
    PaperScenario {
        catalog,
        ic,
        programs,
        initial,
        schedule: Some(schedule),
    }
}

/// Example 2 (§3) — the flagship counterexample. `D = {a,b,c}`,
/// `IC = (a>0 → b>0) ∧ (c>0)`, `TP1: a := 1; if (c>0) then b := |b|+1`,
/// `TP2: if (a>0) then c := b`, from `(−1, −1, 1)`, with the PWSR but
/// inconsistency-producing schedule
/// `w1(a,1), r2(a,1), r2(b,−1), w2(c,−1), r1(c,−1)`.
pub fn example2() -> PaperScenario {
    let mut catalog = Catalog::new();
    let a = catalog.add_item("a", wide_domain());
    let b = catalog.add_item("b", wide_domain());
    let c = catalog.add_item("c", wide_domain());
    let ic = IntegrityConstraint::new(vec![
        Conjunct::new(
            0,
            Formula::implies(
                Formula::gt(Term::var(a), Term::int(0)),
                Formula::gt(Term::var(b), Term::int(0)),
            ),
        ),
        Conjunct::new(1, Formula::gt(Term::var(c), Term::int(0))),
    ])
    .unwrap();
    let programs = vec![
        parse_program("TP1", "a := 1; if (c > 0) then b := abs(b) + 1;").unwrap(),
        parse_program("TP2", "if (a > 0) then c := b;").unwrap(),
    ];
    let initial =
        DbState::from_pairs([(a, Value::Int(-1)), (b, Value::Int(-1)), (c, Value::Int(1))]);
    let schedule = Schedule::new(vec![
        Operation::write(TxnId(1), a, Value::Int(1)),
        Operation::read(TxnId(2), a, Value::Int(1)),
        Operation::read(TxnId(2), b, Value::Int(-1)),
        Operation::write(TxnId(2), c, Value::Int(-1)),
        Operation::read(TxnId(1), c, Value::Int(-1)),
    ])
    .unwrap();
    PaperScenario {
        catalog,
        ic,
        programs,
        initial,
        schedule: Some(schedule),
    }
}

/// §3.1: Example 2 with `TP1` replaced by the fixed-structure `TP1′`
/// (`else b := b`). The paper: with `TP1′` the schedule of Example 2
/// "would not be PWSR".
pub fn example2_with_tp1_prime() -> PaperScenario {
    let mut s = example2();
    s.programs[0] = parse_program(
        "TP1'",
        "a := 1; if (c > 0) then { b := abs(b) + 1; } else { b := b; }",
    )
    .unwrap();
    s.schedule = None; // the paper's schedule is no longer producible
    s
}

/// Example 3 (§3.1) uses the same programs, constraint, state and
/// schedule as Example 2, read against Lemma 3 with `p = w1(a,1)`.
pub fn example3() -> PaperScenario {
    example2()
}

/// Example 4 (§3.2): `TP1: a := c`, `IC = (a=b) ∧ (b=c)` (conjuncts
/// overlap on `b`), `d = {a,b}`, from `DS1 = {(a,−1),(b,−1),(c,1)}`.
/// Shows Lemma 7's precondition is about the *joint* consistency of
/// `DS^d ∪ read(T)`.
pub fn example4() -> PaperScenario {
    let mut catalog = Catalog::new();
    let a = catalog.add_item("a", wide_domain());
    let b = catalog.add_item("b", wide_domain());
    let c = catalog.add_item("c", wide_domain());
    let ic = IntegrityConstraint::new_unchecked(vec![
        Conjunct::new(0, Formula::eq(Term::var(a), Term::var(b))),
        Conjunct::new(1, Formula::eq(Term::var(b), Term::var(c))),
    ])
    .unwrap();
    let programs = vec![parse_program("TP1", "a := c;").unwrap()];
    let initial =
        DbState::from_pairs([(a, Value::Int(-1)), (b, Value::Int(-1)), (c, Value::Int(1))]);
    let schedule = Schedule::new(vec![
        Operation::read(TxnId(1), c, Value::Int(1)),
        Operation::write(TxnId(1), a, Value::Int(1)),
    ])
    .unwrap();
    PaperScenario {
        catalog,
        ic,
        programs,
        initial,
        schedule: Some(schedule),
    }
}

/// Example 5 (§3.3): overlapping conjuncts defeat *all three* theorems.
/// `IC = (a>b) ∧ (a=c) ∧ (d>0)` (conjuncts share `a`), three
/// fixed-structure programs, a DR schedule with an acyclic DAG — and an
/// inconsistent final state. See the module-level transcription note.
pub fn example5() -> PaperScenario {
    let mut catalog = Catalog::new();
    let a = catalog.add_item("a", wide_domain());
    let b = catalog.add_item("b", wide_domain());
    let c = catalog.add_item("c", wide_domain());
    let d = catalog.add_item("d", wide_domain());
    let ic = IntegrityConstraint::new_unchecked(vec![
        Conjunct::new(0, Formula::gt(Term::var(a), Term::var(b))),
        Conjunct::new(1, Formula::eq(Term::var(a), Term::var(c))),
        Conjunct::new(2, Formula::gt(Term::var(d), Term::int(0))),
    ])
    .unwrap();
    let programs = vec![
        parse_program("TP1", "b := c - 5;").unwrap(),
        parse_program("TP2", "temp := c; a := temp + 20; c := temp + 20;").unwrap(),
        parse_program("TP3", "d := a - b;").unwrap(),
    ];
    let initial = DbState::from_pairs([
        (a, Value::Int(10)),
        (b, Value::Int(0)),
        (c, Value::Int(10)),
        (d, Value::Int(5)),
    ]);
    let schedule = Schedule::new(vec![
        Operation::read(TxnId(3), a, Value::Int(10)),
        Operation::read(TxnId(2), c, Value::Int(10)),
        Operation::write(TxnId(2), a, Value::Int(30)),
        Operation::write(TxnId(2), c, Value::Int(30)),
        Operation::read(TxnId(1), c, Value::Int(30)),
        Operation::write(TxnId(1), b, Value::Int(25)),
        Operation::read(TxnId(3), b, Value::Int(25)),
        Operation::write(TxnId(3), d, Value::Int(-15)),
    ])
    .unwrap();
    PaperScenario {
        catalog,
        ic,
        programs,
        initial,
        schedule: Some(schedule),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{is_fixed_structure_exhaustive, static_structure};
    use crate::interp::execute;
    use pwsr_core::dr::is_delayed_read;
    use pwsr_core::pwsr::is_pwsr;
    use pwsr_core::serializability::is_conflict_serializable;
    use pwsr_core::solver::Solver;
    use pwsr_core::strong::check_strong_correctness;

    #[test]
    fn example1_schedule_is_replayable() {
        let sc = example1();
        let s = sc.schedule.as_ref().unwrap();
        s.check_read_coherence(&sc.initial).unwrap();
        // Per the paper: [DS1] S [DS2] with DS2 = {(a,0),(b,5),(c,5),(d,0)}.
        let ds2 = s.apply(&sc.initial);
        let b = sc.catalog.lookup("b").unwrap();
        let d = sc.catalog.lookup("d").unwrap();
        assert_eq!(ds2.get(b), Some(&Value::Int(5)));
        assert_eq!(ds2.get(d), Some(&Value::Int(0)));
    }

    #[test]
    fn example1_transactions_match_isolated_runs() {
        // T2 = r2(a,0), w2(d,0) is what TP2 produces from DS1; T1 reads
        // the same values it would in isolation (no conflicts here).
        let sc = example1();
        let t2 = execute(&sc.programs[1], &sc.catalog, TxnId(2), &sc.initial).unwrap();
        let from_schedule = sc.schedule.as_ref().unwrap().transaction(TxnId(2));
        assert_eq!(t2.ops(), from_schedule.ops());
    }

    #[test]
    fn example2_all_paper_claims() {
        let sc = example2();
        let s = sc.schedule.as_ref().unwrap();
        s.check_read_coherence(&sc.initial).unwrap();
        // PWSR but not serializable.
        assert!(is_pwsr(s, &sc.ic).ok());
        assert!(!is_conflict_serializable(s));
        assert!(!is_delayed_read(s));
        // Final state {(a,1),(b,−1),(c,−1)} is inconsistent.
        let solver = Solver::new(&sc.catalog, &sc.ic);
        let report = check_strong_correctness(s, &solver, &sc.initial);
        assert!(report.violation());
        // TP1 is not fixed-structure: c>0 vs c≤0 change its shape.
        let b = sc.catalog.lookup("b").unwrap();
        let c = sc.catalog.lookup("c").unwrap();
        let pos = DbState::from_pairs([(b, Value::Int(-1)), (c, Value::Int(1))]);
        let neg = DbState::from_pairs([(b, Value::Int(-1)), (c, Value::Int(-1))]);
        assert!(
            !crate::analysis::fixed_structure_over(&sc.programs[0], &sc.catalog, [&pos, &neg])
                .unwrap()
        );
    }

    #[test]
    fn example2_schedule_arises_from_the_programs() {
        // Replay via sessions with interleaving T1 T2 T2 T2 T1.
        use crate::session::{Pending, ProgramSession};
        let sc = example2();
        let mut db = sc.initial.clone();
        let mut s1 = ProgramSession::new(&sc.programs[0], &sc.catalog, TxnId(1));
        let mut s2 = ProgramSession::new(&sc.programs[1], &sc.catalog, TxnId(2));
        let mut ops = Vec::new();
        let mut step =
            |sess: &mut ProgramSession<'_>, db: &mut DbState| match sess.pending().unwrap() {
                Pending::NeedRead(item) => {
                    let v = db.get(item).unwrap().clone();
                    ops.push(sess.feed_read(v).unwrap());
                }
                Pending::Write(op) => {
                    db.set(op.item, op.value.clone());
                    ops.push(op);
                    sess.advance_write().unwrap();
                }
                Pending::Done => panic!("unexpected completion"),
            };
        step(&mut s1, &mut db); // w1(a,1)
        step(&mut s2, &mut db); // r2(a,1)
        step(&mut s2, &mut db); // r2(b,−1)
        step(&mut s2, &mut db); // w2(c,−1)
        step(&mut s1, &mut db); // r1(c,−1)
        assert!(s1.is_done().unwrap() && s2.is_done().unwrap());
        assert_eq!(&ops, sc.schedule.as_ref().unwrap().ops());
    }

    #[test]
    fn tp1_prime_is_fixed_and_blocks_the_schedule() {
        let sc = example2_with_tp1_prime();
        assert!(static_structure(&sc.programs[0], &sc.catalog).is_fixed());
        // With TP1′, T1 always writes b, so S^{d1} would have the
        // conflict cycle: the old schedule extended by w1(b,·) is not
        // PWSR (checked in pwsr-core's tests; here check fixedness on a
        // narrowed copy of the catalog, exhaustively).
        let mut narrow = Catalog::new();
        for name in ["a", "b", "c"] {
            narrow.add_item(name, Domain::int_range(-2, 2));
        }
        assert_eq!(
            is_fixed_structure_exhaustive(&sc.programs[0], &narrow, 10_000).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn example4_joint_inconsistency() {
        let sc = example4();
        let solver = Solver::new(&sc.catalog, &sc.ic);
        let a = sc.catalog.lookup("a").unwrap();
        let b = sc.catalog.lookup("b").unwrap();
        let d = pwsr_core::state::ItemSet::from_iter([a, b]);
        // DS1^d = {(a,−1),(b,−1)} consistent; read(T1) = {(c,1)}
        // consistent; union inconsistent (forces b=1 and b=−1… i.e. no
        // extension): exactly the paper's point.
        let ds1_d = sc.initial.restrict(&d);
        let t1 = sc.schedule.as_ref().unwrap().transaction(TxnId(1));
        let reads = t1.read_state();
        assert!(solver.is_consistent(&ds1_d));
        assert!(solver.is_consistent(&reads));
        let joint = ds1_d.union(&reads).unwrap();
        assert!(!solver.is_consistent(&joint));
        // And the final state restricted to d ∪ WS(T1) is inconsistent:
        let ds2 = sc.schedule.as_ref().unwrap().apply(&sc.initial);
        let d_ws = pwsr_core::state::ItemSet::from_iter([a, b]);
        assert!(!solver.is_consistent(&ds2.restrict(&d_ws)));
    }

    #[test]
    fn example5_all_paper_claims() {
        let sc = example5();
        let s = sc.schedule.as_ref().unwrap();
        s.check_read_coherence(&sc.initial).unwrap();
        // Conjuncts overlap (share a).
        assert!(!sc.ic.is_disjoint());
        // Schedule is DR and DAG(S, IC) is acyclic.
        assert!(is_delayed_read(s));
        let dag = pwsr_core::dag::data_access_graph(s, &sc.ic);
        assert!(dag.is_acyclic());
        // All programs are fixed-structure (straight-line, even).
        for p in &sc.programs {
            assert!(static_structure(p, &sc.catalog).is_fixed(), "{}", p.name);
            assert!(crate::analysis::is_straight_line(p));
        }
        // PWSR holds per conjunct.
        assert!(is_pwsr(s, &sc.ic).ok());
        // Initial consistent; final state inconsistent (d = −15 < 0).
        let solver = Solver::new(&sc.catalog, &sc.ic);
        let report = check_strong_correctness(s, &solver, &sc.initial);
        assert!(report.initial_consistent);
        assert!(!report.final_consistent);
        assert!(report.violation());
    }

    #[test]
    fn example5_schedule_matches_program_semantics() {
        // Each transaction's ops in the schedule = the program run
        // against the values it actually saw.
        let sc = example5();
        let s = sc.schedule.as_ref().unwrap();
        // TP2 ran from the initial state (its read of c=10 precedes any
        // write): isolated run must match its schedule projection.
        let t2 = execute(&sc.programs[1], &sc.catalog, TxnId(2), &sc.initial).unwrap();
        assert_eq!(t2.ops(), s.transaction(TxnId(2)).ops());
        // Final state as the paper reconstructs: a=30,b=25,c=30,d=−15.
        let ds2 = s.apply(&sc.initial);
        let get = |n: &str| ds2.get(sc.catalog.lookup(n).unwrap()).cloned();
        assert_eq!(get("a"), Some(Value::Int(30)));
        assert_eq!(get("b"), Some(Value::Int(25)));
        assert_eq!(get("c"), Some(Value::Int(30)));
        assert_eq!(get("d"), Some(Value::Int(-15)));
    }

    #[test]
    fn example5_programs_are_individually_correct() {
        // Each program maps consistent states to consistent states.
        let sc = example5();
        let solver = Solver::new(&sc.catalog, &sc.ic);
        for (k, p) in sc.programs.iter().enumerate() {
            let (_, out) =
                crate::interp::execute_and_apply(p, &sc.catalog, TxnId(k as u32 + 1), &sc.initial)
                    .unwrap();
            assert!(
                solver.is_consistent(&out),
                "{} broke consistency in isolation",
                p.name
            );
        }
    }
}
