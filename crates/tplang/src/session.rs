//! Incremental program execution for schedulers.
//!
//! A [`ProgramSession`] lets a concurrency-control scheduler drive one
//! program operation-by-operation against an evolving database:
//!
//! ```text
//! loop {
//!     match session.pending()? {
//!         Pending::NeedRead(item) => {            // next op is a read
//!             let v = db.get(item);               // scheduler decides *when*
//!             let op = session.feed_read(v);      // takes value, returns r-op
//!             schedule.push(op);
//!         }
//!         Pending::Write(op) => {                 // next op is a write
//!             db.set(op.item, op.value.clone());
//!             schedule.push(op);
//!             session.advance_write()?;
//!         }
//!         Pending::Done => break,
//!     }
//! }
//! ```
//!
//! The session compiles its program once ([`Code`]) and owns one
//! [`Machine`] over it, which always stands at a stop — the next read it
//! needs, the end, or an error — with the writes it passed on the way
//! queued: [`ProgramSession::pending`] only looks,
//! [`ProgramSession::advance_write`] pops the queue, and
//! [`ProgramSession::feed_read`] runs the instructions up to the next
//! stop. An aborted transaction starts over with
//! [`ProgramSession::restart`].

use crate::ast::Program;
use crate::error::{Result, TpError};
pub use crate::machine::Pending;
use crate::machine::{Code, Machine};
use pwsr_core::catalog::Catalog;
use pwsr_core::ids::TxnId;
use pwsr_core::op::Operation;
use pwsr_core::value::Value;

/// A resumable execution of one program as one transaction.
#[derive(Clone, Debug)]
pub struct ProgramSession<'p> {
    program: &'p Program,
    code: Code<'p>,
    machine: Machine,
    /// Operations already handed to the scheduler.
    emitted: usize,
}

impl<'p> ProgramSession<'p> {
    /// Start a session for `program` running as transaction `txn`.
    pub fn new(program: &'p Program, catalog: &Catalog, txn: TxnId) -> ProgramSession<'p> {
        let code = Code::compile(program, catalog);
        let machine = Machine::start(&code, txn);
        ProgramSession {
            program,
            code,
            machine,
            emitted: 0,
        }
    }

    /// Start the transaction over, as after an abort: a fresh machine
    /// over the program as already compiled.
    pub fn restart(&mut self) {
        self.machine = Machine::start(&self.code, self.txn());
        self.emitted = 0;
    }

    /// The transaction id this session runs under.
    pub fn txn(&self) -> TxnId {
        self.machine.txn()
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// Number of operations already emitted to the scheduler.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// What happens next? An error the program ran into on its way to
    /// the next read is reported here, ahead of the writes before it.
    pub fn pending(&self) -> Result<Pending> {
        self.machine.pending()
    }

    /// Supply the value for the pending read; returns the read
    /// operation to append to the schedule.
    ///
    /// Must only be called when [`ProgramSession::pending`] returned
    /// [`Pending::NeedRead`].
    pub fn feed_read(&mut self, value: Value) -> Result<Operation> {
        let Some(op) = self.machine.feed(&self.code, value) else {
            self.pending()?; // the program's own error, if it has one
            return Err(TpError::Parse {
                at: 0,
                msg: "feed_read called while no read is pending".into(),
            });
        };
        self.emitted += 1;
        Ok(op)
    }

    /// Acknowledge the pending write (after applying it to the store).
    pub fn advance_write(&mut self) -> Result<()> {
        if self.machine.pop_write().is_none() {
            let pending = self.pending()?;
            return Err(TpError::Parse {
                at: 0,
                msg: format!("advance_write called while pending is {pending:?}"),
            });
        }
        self.emitted += 1;
        Ok(())
    }

    /// Has the program emitted all of its operations?
    pub fn is_done(&self) -> Result<bool> {
        Ok(matches!(self.pending()?, Pending::Done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use pwsr_core::state::DbState;
    use pwsr_core::value::Domain;

    fn catalog_abc() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["a", "b", "c"] {
            cat.add_item(name, Domain::int_range(-100, 100));
        }
        cat
    }

    /// Drive a session to completion against a mutable state, returning
    /// the operations in emission order.
    fn drive(session: &mut ProgramSession<'_>, db: &mut DbState) -> Vec<Operation> {
        let mut ops = Vec::new();
        loop {
            match session.pending().unwrap() {
                Pending::NeedRead(item) => {
                    let v = db.get(item).unwrap().clone();
                    ops.push(session.feed_read(v).unwrap());
                }
                Pending::Write(op) => {
                    db.set(op.item, op.value.clone());
                    ops.push(op);
                    session.advance_write().unwrap();
                }
                Pending::Done => return ops,
            }
        }
    }

    #[test]
    fn session_matches_isolated_execution() {
        let cat = catalog_abc();
        let p = parse_program("P", "a := 1; if (c > 0) then b := abs(b) + 1;").unwrap();
        let initial = DbState::from_pairs([
            (cat.lookup("a").unwrap(), Value::Int(-1)),
            (cat.lookup("b").unwrap(), Value::Int(-1)),
            (cat.lookup("c").unwrap(), Value::Int(1)),
        ]);
        let isolated = crate::interp::execute(&p, &cat, TxnId(1), &initial).unwrap();
        let mut db = initial.clone();
        let mut session = ProgramSession::new(&p, &cat, TxnId(1));
        let ops = drive(&mut session, &mut db);
        assert_eq!(ops, isolated.ops().to_vec());
        assert!(session.is_done().unwrap());
    }

    #[test]
    fn session_sees_intervening_writes() {
        // Two sessions interleaved: T2 reads a *after* T1 writes it.
        let cat = catalog_abc();
        let p1 = parse_program("TP1", "a := 1;").unwrap();
        let p2 = parse_program("TP2", "c := a;").unwrap();
        let a = cat.lookup("a").unwrap();
        let mut db = DbState::from_pairs([(a, Value::Int(-1))]);
        let mut s1 = ProgramSession::new(&p1, &cat, TxnId(1));
        let mut s2 = ProgramSession::new(&p2, &cat, TxnId(2));
        // T1's write first.
        let Pending::Write(w) = s1.pending().unwrap() else {
            panic!()
        };
        db.set(w.item, w.value.clone());
        s1.advance_write().unwrap();
        // Now T2 reads a = 1 (T1's value), not −1.
        let Pending::NeedRead(item) = s2.pending().unwrap() else {
            panic!()
        };
        assert_eq!(item, a);
        let op = s2.feed_read(db.get(a).unwrap().clone()).unwrap();
        assert_eq!(op.value, Value::Int(1));
    }

    #[test]
    fn misuse_is_rejected() {
        let cat = catalog_abc();
        let p = parse_program("P", "a := 1;").unwrap();
        let mut s = ProgramSession::new(&p, &cat, TxnId(1));
        // Pending is a write; feeding a read is an error.
        assert!(s.feed_read(Value::Int(0)).is_err());
        s.advance_write().unwrap();
        // Done; advancing again is an error.
        assert!(s.advance_write().is_err());
        assert!(s.is_done().unwrap());
    }

    #[test]
    fn session_cloned_mid_run_finishes_like_its_original() {
        // Stop the original after its first read: `w(b)` is queued and
        // the machine already stands at the read of `c`.
        let cat = catalog_abc();
        let p = parse_program("P", "b := a + 1; c := c + b; t := c; a := t;").unwrap();
        let initial = DbState::from_pairs([
            (cat.lookup("a").unwrap(), Value::Int(4)),
            (cat.lookup("c").unwrap(), Value::Int(10)),
        ]);
        let mut original = ProgramSession::new(&p, &cat, TxnId(1));
        let first = original.feed_read(Value::Int(4)).unwrap();
        assert!(matches!(original.pending().unwrap(), Pending::Write(_)));
        let mut clone = original.clone();
        // The clone runs to its end first; the original must not notice.
        let cloned_ops = drive(&mut clone, &mut initial.clone());
        assert_eq!(original.emitted(), 1);
        let ops = drive(&mut original, &mut initial.clone());
        assert_eq!(ops, cloned_ops);
        assert_eq!(ops.len(), 4); // w(b), r(c), w(c), w(a)
        let whole: Vec<Operation> = std::iter::once(first).chain(ops).collect();
        let isolated = crate::interp::execute(&p, &cat, TxnId(1), &initial).unwrap();
        assert_eq!(whole, isolated.ops().to_vec());
        assert!(original.is_done().unwrap() && clone.is_done().unwrap());
    }

    #[test]
    fn restart_forgets_reads_and_emissions() {
        let cat = catalog_abc();
        let p = parse_program("P", "b := a + 1;").unwrap();
        let mut s = ProgramSession::new(&p, &cat, TxnId(1));
        s.feed_read(Value::Int(1)).unwrap();
        s.advance_write().unwrap();
        assert!(s.is_done().unwrap());
        s.restart();
        assert_eq!(s.emitted(), 0);
        assert_eq!(
            s.pending().unwrap(),
            Pending::NeedRead(cat.lookup("a").unwrap())
        );
        s.feed_read(Value::Int(7)).unwrap();
        let Pending::Write(w) = s.pending().unwrap() else {
            panic!()
        };
        assert_eq!(w.value, Value::Int(8)); // not the first attempt's 2
    }

    #[test]
    fn error_surfaces_at_pending_ahead_of_the_writes_before_it() {
        // The double write is met on the way to the next stop, so the
        // first `pending` already reports it — `w(a, 1)` is never handed
        // out — and every later call repeats it.
        let cat = catalog_abc();
        let p = parse_program("P", "a := 1; a := 2;").unwrap();
        let mut s = ProgramSession::new(&p, &cat, TxnId(1));
        for _ in 0..2 {
            assert!(matches!(s.pending(), Err(TpError::DoubleWrite(_))));
        }
        assert!(matches!(s.advance_write(), Err(TpError::DoubleWrite(_))));
        assert!(matches!(
            s.feed_read(Value::Int(0)),
            Err(TpError::DoubleWrite(_))
        ));
        assert!(s.is_done().is_err());
        assert_eq!(s.emitted(), 0);
    }

    #[test]
    fn empty_program_is_immediately_done() {
        let cat = catalog_abc();
        let p = parse_program("P", "").unwrap();
        let s = ProgramSession::new(&p, &cat, TxnId(1));
        assert_eq!(s.pending().unwrap(), Pending::Done);
    }
}
