//! Predicate-wise serializability (Definition 2).
//!
//! *"A schedule S is said to be PWSR if for all e = 1, 2, …, l, S^{d_e}
//! is serializable."* — the restriction of `S` to each conjunct's data
//! set must be conflict-serializable. The report records the verdict
//! and a serialization order per conjunct (the orders can *differ*
//! across conjuncts; that divergence is exactly what makes the paper's
//! correctness question hard, cf. the discussion before Lemma 2).

use crate::constraint::IntegrityConstraint;
use crate::ids::{ConjunctId, TxnId};
use crate::schedule::Schedule;
use crate::serializability::{conflict_cycle_proj, serialization_order_proj};

/// Per-conjunct outcome of the PWSR test.
#[derive(Clone, Debug)]
pub struct ConjunctVerdict {
    /// Which conjunct.
    pub conjunct: ConjunctId,
    /// A serialization order of `S^{d_e}` if serializable.
    pub order: Option<Vec<TxnId>>,
    /// A conflict cycle in `S^{d_e}` if not.
    pub cycle: Option<Vec<TxnId>>,
}

impl ConjunctVerdict {
    /// Is `S^{d_e}` serializable?
    pub(crate) fn serializable(&self) -> bool {
        self.order.is_some()
    }
}

/// Outcome of the PWSR test (Definition 2).
#[derive(Clone, Debug)]
pub struct PwsrReport {
    /// One verdict per conjunct, in constraint order.
    pub per_conjunct: Vec<ConjunctVerdict>,
}

impl PwsrReport {
    /// Is the schedule PWSR (every projection serializable)?
    pub fn ok(&self) -> bool {
        self.per_conjunct.iter().all(ConjunctVerdict::serializable)
    }
}

#[cfg(test)]
impl PwsrReport {
    /// The verdict for a specific conjunct.
    pub(crate) fn conjunct(&self, id: ConjunctId) -> Option<&ConjunctVerdict> {
        self.per_conjunct.iter().find(|v| v.conjunct == id)
    }

    /// Conjuncts whose projections are *not* serializable.
    pub(crate) fn failing(&self) -> impl Iterator<Item = &ConjunctVerdict> {
        self.per_conjunct.iter().filter(|v| !v.serializable())
    }
}

/// Test Definition 2: is `S` predicate-wise serializable under `ic`?
///
/// Each conjunct's projection is checked without materializing it
/// ([`serialization_order_proj`] works off per-item access lists), so
/// the verdict engine's hot path clones no operations.
pub fn is_pwsr(schedule: &Schedule, ic: &IntegrityConstraint) -> PwsrReport {
    let per_conjunct = ic
        .conjuncts()
        .iter()
        .map(|c| {
            let order = serialization_order_proj(schedule, c.items());
            let cycle = if order.is_none() {
                conflict_cycle_proj(schedule, c.items())
            } else {
                None
            };
            ConjunctVerdict {
                conjunct: c.id(),
                order,
                cycle,
            }
        })
        .collect();
    PwsrReport { per_conjunct }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Conjunct, Formula, Term};
    use crate::ids::ItemId;
    use crate::op::Operation;
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    /// Example 2's IC: C1 = (a>0 → b>0) over {a,b}, C2 = (c>0) over {c}.
    fn example2_ic() -> IntegrityConstraint {
        let (a, b, c) = (ItemId(0), ItemId(1), ItemId(2));
        IntegrityConstraint::new(vec![
            Conjunct::new(
                0,
                Formula::implies(
                    Formula::gt(Term::var(a), Term::int(0)),
                    Formula::gt(Term::var(b), Term::int(0)),
                ),
            ),
            Conjunct::new(1, Formula::gt(Term::var(c), Term::int(0))),
        ])
        .unwrap()
    }

    /// Example 2's schedule.
    fn example2_schedule() -> Schedule {
        Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ])
        .unwrap()
    }

    #[test]
    fn example2_is_pwsr_but_not_csr() {
        let ic = example2_ic();
        let s = example2_schedule();
        let report = is_pwsr(&s, &ic);
        assert!(report.ok(), "Example 2's schedule is PWSR by design");
        // On d1 = {a,b} the order is T1, T2; on d2 = {c} it's T2, T1:
        // PWSR with *conflicting* per-conjunct orders.
        let o1 = report
            .conjunct(ConjunctId(0))
            .unwrap()
            .order
            .clone()
            .unwrap();
        let o2 = report
            .conjunct(ConjunctId(1))
            .unwrap()
            .order
            .clone()
            .unwrap();
        assert_eq!(o1, vec![TxnId(1), TxnId(2)]);
        assert_eq!(o2, vec![TxnId(2), TxnId(1)]);
        assert!(!crate::serializability::is_conflict_serializable(&s));
    }

    #[test]
    fn non_pwsr_reported_with_cycle() {
        // Make the projection on {a,b} itself non-serializable:
        // w1(a), r2(a), w2(b), r1(b) — cycle within one conjunct.
        let ic = example2_ic();
        let s = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)]).unwrap();
        let report = is_pwsr(&s, &ic);
        assert!(!report.ok());
        let failing: Vec<_> = report.failing().collect();
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].conjunct, ConjunctId(0));
        assert!(failing[0].cycle.is_some());
    }

    #[test]
    fn serializable_implies_pwsr() {
        // Any CSR schedule is PWSR: projections of an acyclic conflict
        // graph stay acyclic (edges only disappear).
        let ic = example2_ic();
        let s = Schedule::new(vec![wr(1, 0, 1), wr(1, 2, 1), rd(2, 0, 1), rd(2, 2, 1)]).unwrap();
        assert!(crate::serializability::is_conflict_serializable(&s));
        assert!(is_pwsr(&s, &ic).ok());
    }

    #[test]
    fn pwsr_with_fixed_tp1_prime_is_rejected() {
        // §3.1: replacing TP1 by fixed-structure TP1′ adds w1(b,·), so
        // S^{d1} = w1(a), r2(a), r2(b), w1(b) has a cycle — not PWSR.
        let ic = example2_ic();
        let s = Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
            wr(1, 1, -1), // TP1′ writes b even on the else branch
        ])
        .unwrap();
        let report = is_pwsr(&s, &ic);
        assert!(!report.ok());
        assert!(!report.conjunct(ConjunctId(0)).unwrap().serializable());
        assert!(report.conjunct(ConjunctId(1)).unwrap().serializable());
    }
}
