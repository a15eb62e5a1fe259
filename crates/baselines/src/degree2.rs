//! Degree-2 consistency (cursor stability / read committed).
//!
//! §4 names cursor stability as the archetypal "ad-hoc, operationally
//! defined" weakening of serializability. In the paper's model (no
//! explicit commit records), a schedule satisfies degree 2 when every
//! read takes its value from a transaction that has already finished —
//! which coincides with ACA/DR under last-operation commit points. The
//! classic *write skew* anomaly shows degree 2 alone preserves neither
//! serializability nor consistency; [`write_skew_demo`] constructs it
//! so tests and experiments can exhibit the contrast with
//! PWSR-plus-restrictions.

use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
use pwsr_core::dr::{is_aca_with, CommitPoints};
use pwsr_core::ids::TxnId;
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::DbState;
use pwsr_core::value::{Domain, Value};

/// Does the schedule satisfy degree-2 consistency: no transaction reads
/// another transaction's uncommitted write? With default commit points
/// this is exactly the ACA test.
pub(crate) fn satisfies_degree2(schedule: &Schedule, commits: &CommitPoints) -> bool {
    is_aca_with(schedule, commits)
}

/// Degree 2 with commit-at-last-operation points.
pub fn satisfies_degree2_default(schedule: &Schedule) -> bool {
    satisfies_degree2(schedule, &CommitPoints::at_last_op(schedule))
}

/// A complete write-skew scenario: `IC = (a + b > 0)` over one
/// conjunct, initial state `(1, 1)`; `T1` reads both and decrements
/// `a`, `T2` reads both and decrements `b`. The interleaved schedule
/// reads only committed (initial) data — degree-2 clean, DR, even
/// strict — yet drives the database to `(0, 0)`, violating the
/// constraint. Returns `(catalog, ic, initial, schedule)`.
pub fn write_skew_demo() -> (Catalog, IntegrityConstraint, DbState, Schedule) {
    let mut catalog = Catalog::new();
    let a = catalog.add_item("a", Domain::int_range(-10, 10));
    let b = catalog.add_item("b", Domain::int_range(-10, 10));
    let ic = IntegrityConstraint::new(vec![Conjunct::new(
        0,
        Formula::gt(Term::var(a).add(Term::var(b)), Term::int(0)),
    )])
    .unwrap();
    let initial = DbState::from_pairs([(a, Value::Int(1)), (b, Value::Int(1))]);
    // Both read the initial snapshot, then both write.
    let schedule = Schedule::new(vec![
        Operation::read(TxnId(1), a, Value::Int(1)),
        Operation::read(TxnId(1), b, Value::Int(1)),
        Operation::read(TxnId(2), a, Value::Int(1)),
        Operation::read(TxnId(2), b, Value::Int(1)),
        Operation::write(TxnId(1), a, Value::Int(0)),
        Operation::write(TxnId(2), b, Value::Int(0)),
    ])
    .unwrap();
    (catalog, ic, initial, schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::dr::{classify_recovery, RecoveryClass};
    use pwsr_core::pwsr::is_pwsr;
    use pwsr_core::solver::Solver;
    use pwsr_core::strong::check_strong_correctness;

    #[test]
    fn write_skew_is_degree2_clean_but_inconsistent() {
        let (catalog, ic, initial, schedule) = write_skew_demo();
        // Degree-2 (and in fact strict): all reads hit committed data.
        assert!(satisfies_degree2_default(&schedule));
        assert_eq!(classify_recovery(&schedule), RecoveryClass::Strict);
        assert!(pwsr_core::dr::is_delayed_read(&schedule));
        // But the execution breaks the constraint...
        let solver = Solver::new(&catalog, &ic);
        let report = check_strong_correctness(&schedule, &solver, &initial);
        assert!(report.initial_consistent && report.read_coherent);
        assert!(!report.final_consistent);
        // ...and PWSR catches it: the single-conjunct projection has a
        // conflict cycle (T1 reads b before T2 writes it, and vice
        // versa), so the schedule is not PWSR. DR alone — Theorem 2
        // without the PWSR hypothesis — is NOT sufficient.
        assert!(!is_pwsr(&schedule, &ic).ok());
    }

    #[test]
    fn dirty_read_fails_degree2() {
        use pwsr_core::ids::ItemId;
        let s = Schedule::new(vec![
            Operation::write(TxnId(1), ItemId(0), Value::Int(1)),
            Operation::read(TxnId(2), ItemId(0), Value::Int(1)),
            Operation::write(TxnId(1), ItemId(1), Value::Int(1)),
        ])
        .unwrap();
        assert!(!satisfies_degree2_default(&s));
    }

    #[test]
    fn serial_schedules_are_degree2() {
        let (_, _, _, schedule) = write_skew_demo();
        // Any serial recomposition of the same transactions:
        let txns = schedule.transactions();
        let serial = Schedule::serial(&txns).unwrap();
        assert!(satisfies_degree2_default(&serial));
    }

    #[test]
    fn explicit_commit_points_matter() {
        use pwsr_core::ids::{ItemId, OpIndex};
        let s = Schedule::new(vec![
            Operation::write(TxnId(1), ItemId(0), Value::Int(1)),
            Operation::read(TxnId(2), ItemId(0), Value::Int(1)),
            Operation::write(TxnId(1), ItemId(1), Value::Int(1)),
        ])
        .unwrap();
        let mut commits = CommitPoints::at_last_op(&s);
        commits.set(TxnId(1), OpIndex(0)); // group commit after first write
        assert!(satisfies_degree2(&s, &commits));
    }
}
