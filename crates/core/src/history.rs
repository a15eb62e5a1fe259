//! Histories: schedules with explicit commit and abort events.
//!
//! The paper's schedule model (§2.2) has no commit records — a
//! transaction "finishes" when its last operation executes, which is
//! why §3.2 introduces DR as the commit-free analogue of ACA. Real
//! systems (and the recoverability theory of Bernstein–Hadzilacos–
//! Goodman \[3\], which the paper builds on) carry explicit commits and
//! aborts; this module provides that richer [`History`] type:
//!
//! * data operations plus [`Event::Commit`] / [`Event::Abort`] markers,
//!   with the §2.2 well-formedness rules on each transaction's data
//!   operations and at most one terminal event per transaction;
//! * the **committed projection** — the paper-model [`Schedule`] of the
//!   committed transactions, which is the object the PWSR/DR/strong-
//!   correctness checkers consume;
//! * the classical recoverability hierarchy *recoverable (RC) ⊇ ACA ⊇
//!   strict (ST)*, decided against the real commit points;
//! * the bridge lemma the paper relies on: an ACA history's committed
//!   projection is a DR schedule.

use crate::error::{CoreError, Result};
use crate::ids::{OpIndex, TxnId};
use crate::op::Operation;
use crate::schedule::Schedule;
use std::collections::BTreeMap;
use std::fmt;

/// One entry of a history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A read or write.
    Op(Operation),
    /// Transaction commit.
    Commit(TxnId),
    /// Transaction abort.
    Abort(TxnId),
}

impl Event {
    /// The transaction the event belongs to.
    pub(crate) fn txn(&self) -> TxnId {
        match self {
            Event::Op(o) => o.txn,
            Event::Commit(t) | Event::Abort(t) => *t,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Op(o) => write!(f, "{o}"),
            Event::Commit(t) => write!(f, "c{}", t.raw()),
            Event::Abort(t) => write!(f, "a{}", t.raw()),
        }
    }
}

/// How a transaction ended in a history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Committed at the given position.
    Committed(OpIndex),
    /// Aborted at the given position.
    Aborted(OpIndex),
    /// Neither (still active at the end of the history).
    Active,
}

/// A schedule with explicit commit/abort events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct History {
    events: Vec<Event>,
    outcomes: BTreeMap<TxnId, Outcome>,
}

impl History {
    /// Build and validate a history: per-transaction data operations
    /// must satisfy §2.2; a transaction has at most one terminal event,
    /// placed after all of its operations.
    pub fn new(events: Vec<Event>) -> Result<History> {
        // Validate data ops via the Schedule machinery.
        let ops: Vec<Operation> = events
            .iter()
            .filter_map(|e| match e {
                Event::Op(o) => Some(o.clone()),
                _ => None,
            })
            .collect();
        Schedule::new(ops)?;
        let mut outcomes: BTreeMap<TxnId, Outcome> = BTreeMap::new();
        for (i, e) in events.iter().enumerate() {
            match e {
                Event::Op(o) => match outcomes.get(&o.txn) {
                    Some(Outcome::Committed(_)) | Some(Outcome::Aborted(_)) => {
                        return Err(CoreError::MalformedSchedule(format!(
                            "operation {o} after {:?} terminated",
                            o.txn
                        )));
                    }
                    _ => {
                        outcomes.insert(o.txn, Outcome::Active);
                    }
                },
                Event::Commit(t) | Event::Abort(t) => {
                    match outcomes.get(t) {
                        Some(Outcome::Committed(_)) | Some(Outcome::Aborted(_)) => {
                            return Err(CoreError::MalformedSchedule(format!(
                                "duplicate terminal event for {t}"
                            )));
                        }
                        _ => {}
                    }
                    let outcome = if matches!(e, Event::Commit(_)) {
                        Outcome::Committed(OpIndex(i))
                    } else {
                        Outcome::Aborted(OpIndex(i))
                    };
                    outcomes.insert(*t, outcome);
                }
            }
        }
        Ok(History { events, outcomes })
    }

    /// The outcome of `txn`.
    pub(crate) fn outcome(&self, txn: TxnId) -> Outcome {
        self.outcomes.get(&txn).copied().unwrap_or(Outcome::Active)
    }

    /// The **committed projection**: data operations of committed
    /// transactions only, as a paper-model [`Schedule`].
    pub fn committed_projection(&self) -> Schedule {
        let ops: Vec<Operation> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Op(o) if matches!(self.outcome(o.txn), Outcome::Committed(_)) => {
                    Some(o.clone())
                }
                _ => None,
            })
            .collect();
        Schedule::new(ops).expect("projection of a valid history is valid")
    }

    /// The reads-from pairs among data operations, as event indices
    /// `(reader, writer)`.
    fn reads_from_events(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (j, e) in self.events.iter().enumerate() {
            let Event::Op(r) = e else { continue };
            if !r.is_read() {
                continue;
            }
            let w = self.events[..j]
                .iter()
                .rposition(|e| matches!(e, Event::Op(w) if w.is_write() && w.item == r.item));
            if let Some(i) = w {
                out.push((j, i));
            }
        }
        out
    }

    /// Is the history **recoverable** (RC): whenever `T_j` reads from
    /// `T_i` and `T_j` commits, `T_i` committed before `T_j`'s commit?
    pub fn is_recoverable(&self) -> bool {
        self.reads_from_events()
            .into_iter()
            .all(|(reader, writer)| {
                let (rt, wt) = (self.events[reader].txn(), self.events[writer].txn());
                if rt == wt {
                    return true;
                }
                match (self.outcome(rt), self.outcome(wt)) {
                    // Reader committed: writer must have committed earlier.
                    (Outcome::Committed(rc), Outcome::Committed(wc)) => wc < rc,
                    (Outcome::Committed(_), _) => false,
                    // Reader aborted/active: no RC obligation.
                    _ => true,
                }
            })
    }

    /// Does the history **avoid cascading aborts** (ACA): every read is
    /// from a transaction already committed at the read?
    pub fn is_aca(&self) -> bool {
        self.reads_from_events()
            .into_iter()
            .all(|(reader, writer)| {
                let (rt, wt) = (self.events[reader].txn(), self.events[writer].txn());
                rt == wt || matches!(self.outcome(wt), Outcome::Committed(c) if c.0 < reader)
            })
    }

    /// Is the history **strict** (ST): no reading *or overwriting* of a
    /// value written by a transaction that has not yet terminated?
    pub fn is_strict(&self) -> bool {
        for (j, e) in self.events.iter().enumerate() {
            let Event::Op(o) = e else { continue };
            let Some(i) = self.events[..j].iter().rposition(
                |e| matches!(e, Event::Op(w) if w.is_write() && w.item == o.item && w.txn != o.txn),
            ) else {
                continue;
            };
            let wt = self.events[i].txn();
            // For reads, only the *latest* write matters and it is the
            // one found; for writes, likewise the latest conflicting
            // write. The writer must be terminated before event j.
            let terminated = match self.outcome(wt) {
                Outcome::Committed(c) => c.0 < j,
                Outcome::Aborted(a) => a.0 < j,
                Outcome::Active => false,
            };
            if !terminated {
                return false;
            }
        }
        true
    }

    /// The classical hierarchy position (ST ⊆ ACA ⊆ RC).
    pub fn recoverability(&self) -> HistoryClass {
        if self.is_strict() {
            HistoryClass::Strict
        } else if self.is_aca() {
            HistoryClass::Aca
        } else if self.is_recoverable() {
            HistoryClass::Recoverable
        } else {
            HistoryClass::Unrecoverable
        }
    }
}

#[cfg(test)]
impl History {
    /// Number of events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Transactions with a commit event.
    pub(crate) fn committed(&self) -> Vec<TxnId> {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, Outcome::Committed(_)))
            .map(|(&t, _)| t)
            .collect()
    }

    /// All data operations (committed or not) as a schedule, plus the
    /// corresponding explicit commit points for the DR/ACA machinery.
    /// Uncommitted transactions get no commit point.
    pub(crate) fn as_schedule_with_commits(&self) -> (Schedule, crate::dr::CommitPoints) {
        let mut ops = Vec::new();
        // Map event index → op index for commit positioning.
        let mut op_positions: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if let Event::Op(o) = e {
                op_positions.insert(i, ops.len());
                ops.push(o.clone());
            }
        }
        let schedule = Schedule::new(ops).expect("valid history");
        let mut commits = crate::dr::CommitPoints::default();
        for (&t, &o) in &self.outcomes {
            if let Outcome::Committed(at) = o {
                // Commit "covers" every op before the commit event: the
                // last op position strictly before `at`.
                let pos = op_positions
                    .range(..at.0)
                    .next_back()
                    .map(|(_, &p)| p)
                    .unwrap_or(0);
                commits.set(t, OpIndex(pos));
            }
        }
        (schedule, commits)
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// The recoverability classes, most restrictive first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HistoryClass {
    /// Strict.
    Strict,
    /// Avoids cascading aborts.
    Aca,
    /// Recoverable.
    Recoverable,
    /// Not even recoverable.
    Unrecoverable,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ItemId;
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Event {
        Event::Op(Operation::read(TxnId(t), ItemId(i), Value::Int(v)))
    }

    fn wr(t: u32, i: u32, v: i64) -> Event {
        Event::Op(Operation::write(TxnId(t), ItemId(i), Value::Int(v)))
    }

    fn c(t: u32) -> Event {
        Event::Commit(TxnId(t))
    }

    fn a(t: u32) -> Event {
        Event::Abort(TxnId(t))
    }

    #[test]
    fn commit_all_is_strict_for_serial() {
        let h = History::new(vec![wr(1, 0, 1), rd(2, 0, 1), c(1), c(2)]).unwrap();
        // Commits at the end: T2 read T1's value before T1 committed —
        // not ACA, but recoverable (commit order T1 before T2? No:
        // first-appearance order commits T1 first ⇒ RC holds).
        assert!(h.is_recoverable());
        assert!(!h.is_aca());
        assert_eq!(h.recoverability(), HistoryClass::Recoverable);
    }

    #[test]
    fn classic_recoverability_ladder() {
        // Strict: read after the writer committed.
        let strict = History::new(vec![wr(1, 0, 1), c(1), rd(2, 0, 1), c(2)]).unwrap();
        assert_eq!(strict.recoverability(), HistoryClass::Strict);

        // ACA but not strict: T2 overwrites T1's uncommitted write.
        let aca = History::new(vec![wr(1, 0, 1), wr(2, 0, 2), c(1), c(2)]).unwrap();
        assert!(!aca.is_strict());
        assert!(aca.is_aca());
        assert_eq!(aca.recoverability(), HistoryClass::Aca);

        // RC but not ACA: dirty read, but commit order respects it.
        let rc = History::new(vec![wr(1, 0, 1), rd(2, 0, 1), c(1), c(2)]).unwrap();
        assert!(!rc.is_aca());
        assert!(rc.is_recoverable());
        assert_eq!(rc.recoverability(), HistoryClass::Recoverable);

        // Unrecoverable: reader commits before its writer.
        let bad = History::new(vec![wr(1, 0, 1), rd(2, 0, 1), c(2), c(1)]).unwrap();
        assert!(!bad.is_recoverable());
        assert_eq!(bad.recoverability(), HistoryClass::Unrecoverable);
    }

    #[test]
    fn aborted_reader_imposes_no_rc_obligation() {
        let h = History::new(vec![wr(1, 0, 1), rd(2, 0, 1), a(2), c(1)]).unwrap();
        assert!(h.is_recoverable());
    }

    #[test]
    fn committed_projection_drops_aborted_work() {
        let h = History::new(vec![wr(1, 0, 1), wr(2, 1, 2), a(1), rd(2, 2, 0), c(2)]).unwrap();
        let s = h.committed_projection();
        assert_eq!(s.len(), 2);
        assert!(s.ops().iter().all(|o| o.txn == TxnId(2)));
        assert_eq!(h.committed(), vec![TxnId(2)]);
        assert_eq!(h.outcome(TxnId(1)), Outcome::Aborted(OpIndex(2)));
    }

    #[test]
    fn aca_history_committed_projection_is_dr() {
        // The bridge the paper uses in §3.2: ACA ⇒ the committed
        // projection is a DR schedule.
        let h = History::new(vec![
            wr(1, 0, 1),
            c(1),
            rd(2, 0, 1),
            wr(2, 1, 2),
            c(2),
            wr(3, 2, 3),
            c(3),
        ])
        .unwrap();
        assert!(h.is_aca());
        assert!(crate::dr::is_delayed_read(&h.committed_projection()));
    }

    #[test]
    fn ops_after_terminal_rejected() {
        let err = History::new(vec![wr(1, 0, 1), c(1), wr(1, 1, 2)]).unwrap_err();
        assert!(matches!(err, CoreError::MalformedSchedule(_)));
        let err = History::new(vec![wr(1, 0, 1), c(1), c(1)]).unwrap_err();
        assert!(matches!(err, CoreError::MalformedSchedule(_)));
    }

    #[test]
    fn schedule_with_commits_round_trip() {
        let h = History::new(vec![wr(1, 0, 1), c(1), rd(2, 0, 1), c(2)]).unwrap();
        let (s, commits) = h.as_schedule_with_commits();
        assert_eq!(s.len(), 2);
        // T1's commit point covers its write (position 0).
        assert_eq!(commits.get(TxnId(1)), Some(OpIndex(0)));
        // ACA under the explicit points matches the history's own test.
        assert_eq!(crate::dr::is_aca_with(&s, &commits), h.is_aca());
    }

    /// A commit point is the position *after which* its transaction is
    /// committed. In `w1(x) r2(x) c1 c2` T1's commit point falls on
    /// r2's position, so r2 read before c1: dirty under the explicit
    /// points as in the history.
    #[test]
    fn read_at_the_commit_point_is_dirty() {
        let h = History::new(vec![wr(1, 0, 1), rd(2, 0, 1), c(1), c(2)]).unwrap();
        let (s, commits) = h.as_schedule_with_commits();
        assert_eq!(commits.get(TxnId(1)), Some(OpIndex(1)));
        assert!(!h.is_aca());
        assert!(!crate::dr::is_aca_with(&s, &commits));
    }

    #[test]
    fn active_transactions_are_reported() {
        let h = History::new(vec![wr(1, 0, 1), rd(2, 0, 1)]).unwrap();
        assert_eq!(h.outcome(TxnId(1)), Outcome::Active);
        assert_eq!(h.outcome(TxnId(9)), Outcome::Active);
        assert!(h.committed().is_empty());
        assert!(h.committed_projection().is_empty());
    }

    #[test]
    fn display_notation() {
        let h = History::new(vec![wr(1, 0, 1), c(1), a(2)]).unwrap();
        assert_eq!(h.to_string(), "w1(d0, 1), c1, a2");
    }
}
