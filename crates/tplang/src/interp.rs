//! Whole-program execution: turns a transaction program plus a database
//! state into the paper's *transaction* (a value-carrying operation
//! sequence).
//!
//! ## Operational model (§2.2 assumptions, realized)
//!
//! * The **first** read of a data item emits a read operation; repeated
//!   reads are served from a read cache (read each item at most once).
//! * A read of an item the program has already **written** is served
//!   from the write buffer without an operation (no read-after-write).
//! * A second write to the same item is an error ([`TpError::DoubleWrite`]).
//! * Local variables (any name not in the catalog) live outside the
//!   database and never produce operations.
//!
//! ## One interpreter
//!
//! The model lives in `crate::machine`: the program is compiled once
//! and a `Machine` runs it from read to read. The functions here drive
//! one — [`run_with_reads`] from a log of read values, reporting where
//! it stands when the log runs out; [`execute`] from a database state.
//! Schedulers, which decide *when* each read happens, hold the same
//! machine through [`crate::session`].
//!
//! [`TpError::DoubleWrite`]: crate::error::TpError::DoubleWrite

use crate::ast::Program;
use crate::error::Result;
use crate::machine::{Code, Machine, Pending};
use pwsr_core::catalog::Catalog;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::op::Operation;
use pwsr_core::state::DbState;
use pwsr_core::txn::Transaction;
use pwsr_core::value::Value;

/// Result of a (possibly suspended) program run.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The program finished; `ops` is the complete transaction body.
    Complete {
        /// All operations, in program order.
        ops: Vec<Operation>,
    },
    /// The program needs the value of `item` to continue; `ops` are the
    /// operations emitted so far (the suspended read is *not* included).
    NeedsRead {
        /// The item whose value is needed.
        item: ItemId,
        /// Operations emitted before the suspension.
        ops: Vec<Operation>,
    },
}

/// Compile `program` and run it as `txn`, asking `supply` for each
/// read's value; `None` leaves the run suspended at that read.
fn drive(
    program: &Program,
    catalog: &Catalog,
    txn: TxnId,
    mut supply: impl FnMut(ItemId) -> Result<Option<Value>>,
) -> Result<RunOutcome> {
    let code = Code::compile(program, catalog);
    let mut machine = Machine::start(&code, txn);
    let mut ops = Vec::new();
    loop {
        match machine.pending()? {
            Pending::Done => return Ok(RunOutcome::Complete { ops }),
            Pending::Write(_) => ops.extend(machine.pop_write()),
            Pending::NeedRead(item) => match supply(item)? {
                Some(value) => ops.extend(machine.feed(&code, value)),
                None => return Ok(RunOutcome::NeedsRead { item, ops }),
            },
        }
    }
}

/// Run `program` as transaction `txn`, feeding its data-item reads from
/// `read_values` (in read order). Suspends when the log runs out.
pub fn run_with_reads(
    program: &Program,
    catalog: &Catalog,
    txn: TxnId,
    read_values: &[Value],
) -> Result<RunOutcome> {
    let mut log = read_values.iter();
    drive(program, catalog, txn, |_| Ok(log.next().cloned()))
}

/// Execute `program` in isolation from `state` (the `[DS1] TP [DS2]`
/// of the paper), returning the resulting transaction.
pub fn execute(
    program: &Program,
    catalog: &Catalog,
    txn: TxnId,
    state: &DbState,
) -> Result<Transaction> {
    // Every read is supplied, so the run is complete.
    let supply = |item| Ok(Some(state.require(item)?.clone()));
    let (RunOutcome::Complete { ops } | RunOutcome::NeedsRead { ops, .. }) =
        drive(program, catalog, txn, supply)?;
    Ok(Transaction::new(txn, ops)?)
}

/// Execute in isolation and also apply the writes, returning
/// `(transaction, DS2)`.
pub fn execute_and_apply(
    program: &Program,
    catalog: &Catalog,
    txn: TxnId,
    state: &DbState,
) -> Result<(Transaction, DbState)> {
    let t = execute(program, catalog, txn, state)?;
    let out = state.updated_with(&t.write_state());
    Ok((t, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Stmt;
    use crate::error::TpError;
    use crate::parser::parse_program;
    use pwsr_core::error::CoreError;
    use pwsr_core::op::Action;
    use pwsr_core::value::Domain;

    fn catalog_abcd() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["a", "b", "c", "d"] {
            cat.add_item(name, Domain::int_range(-100, 100));
        }
        cat
    }

    #[test]
    fn example1_tp1_from_ds1() {
        // TP1: if (a >= 0) then b := c else c := d, from
        // DS1 = {(a,0),(b,10),(c,5),(d,10)} → T1: r(a,0), r(c,5), w(b,5).
        let cat = catalog_abcd();
        let p = parse_program("TP1", "if (a >= 0) then b := c; else c := d;").unwrap();
        let ds1 = DbState::from_pairs([
            (cat.lookup("a").unwrap(), Value::Int(0)),
            (cat.lookup("b").unwrap(), Value::Int(10)),
            (cat.lookup("c").unwrap(), Value::Int(5)),
            (cat.lookup("d").unwrap(), Value::Int(10)),
        ]);
        let t = execute(&p, &cat, TxnId(1), &ds1).unwrap();
        let shown: Vec<String> = t.ops().iter().map(|o| o.display(&cat)).collect();
        assert_eq!(shown, vec!["r1(a, 0)", "r1(c, 5)", "w1(b, 5)"]);
    }

    #[test]
    fn example1_tp2() {
        // TP2: d := a, from DS1 → T2: r(a,0), w(d,0).
        let cat = catalog_abcd();
        let p = parse_program("TP2", "d := a;").unwrap();
        let ds1 = DbState::from_pairs([(cat.lookup("a").unwrap(), Value::Int(0))]);
        let t = execute(&p, &cat, TxnId(2), &ds1).unwrap();
        let shown: Vec<String> = t.ops().iter().map(|o| o.display(&cat)).collect();
        assert_eq!(shown, vec!["r2(a, 0)", "w2(d, 0)"]);
    }

    #[test]
    fn repeated_reads_cached() {
        let cat = catalog_abcd();
        let p = parse_program("P", "b := a + a; c := a;").unwrap();
        let ds = DbState::from_pairs([(cat.lookup("a").unwrap(), Value::Int(3))]);
        let t = execute(&p, &cat, TxnId(1), &ds).unwrap();
        // One read of a despite three uses.
        assert_eq!(
            t.ops().iter().filter(|o| o.action == Action::Read).count(),
            1
        );
        assert_eq!(
            t.write_state().get(cat.lookup("b").unwrap()),
            Some(&Value::Int(6))
        );
    }

    #[test]
    fn read_after_write_served_from_buffer() {
        let cat = catalog_abcd();
        let p = parse_program("P", "a := 7; b := a + 1;").unwrap();
        let t = execute(&p, &cat, TxnId(1), &DbState::new()).unwrap();
        // No read op at all: a's value comes from the write buffer.
        assert!(t.ops().iter().all(|o| o.action == Action::Write));
        assert_eq!(
            t.write_state().get(cat.lookup("b").unwrap()),
            Some(&Value::Int(8))
        );
    }

    #[test]
    fn double_write_rejected() {
        let cat = catalog_abcd();
        let p = parse_program("P", "a := 1; a := 2;").unwrap();
        let err = execute(&p, &cat, TxnId(1), &DbState::new()).unwrap_err();
        assert!(matches!(err, TpError::DoubleWrite(_)));
    }

    #[test]
    fn locals_produce_no_operations() {
        // Example 5's TP2: temp := c; a := temp + 20; c := temp + 20.
        let cat = catalog_abcd();
        let p = parse_program("TP2", "temp := c; a := temp + 20; c := temp + 20;").unwrap();
        let ds = DbState::from_pairs([(cat.lookup("c").unwrap(), Value::Int(10))]);
        let t = execute(&p, &cat, TxnId(2), &ds).unwrap();
        let shown: Vec<String> = t.ops().iter().map(|o| o.display(&cat)).collect();
        assert_eq!(shown, vec!["r2(c, 10)", "w2(a, 30)", "w2(c, 30)"]);
    }

    #[test]
    fn unbound_local_rejected() {
        let cat = catalog_abcd();
        let p = parse_program("P", "a := ghost + 1;").unwrap();
        let err = execute(&p, &cat, TxnId(1), &DbState::new()).unwrap_err();
        assert!(matches!(err, TpError::UnboundLocal(name) if name == "ghost"));
    }

    #[test]
    fn while_loop_runs_on_locals() {
        let cat = catalog_abcd();
        let p = parse_program(
            "P",
            "i := 0; acc := 0; while (i < 5) do { acc := acc + i; i := i + 1; } a := acc;",
        )
        .unwrap();
        let t = execute(&p, &cat, TxnId(1), &DbState::new()).unwrap();
        assert_eq!(
            t.write_state().get(cat.lookup("a").unwrap()),
            Some(&Value::Int(10))
        );
        assert_eq!(t.len(), 1); // only the final write
    }

    #[test]
    fn loop_limit_enforced() {
        let cat = catalog_abcd();
        let mut p = parse_program("P", "i := 0; while (i < 10) do { i := i + 1; }").unwrap();
        if let Stmt::While { limit, .. } = &mut p.body[1] {
            *limit = 3;
        }
        let err = execute(&p, &cat, TxnId(1), &DbState::new()).unwrap_err();
        assert!(matches!(err, TpError::LoopLimit { limit: 3 }));
    }

    #[test]
    fn suspension_and_replay() {
        let cat = catalog_abcd();
        let p = parse_program("P", "b := a + 1; d := c;").unwrap();
        // No reads fed: suspends wanting a.
        match run_with_reads(&p, &cat, TxnId(1), &[]).unwrap() {
            RunOutcome::NeedsRead { item, ops } => {
                assert_eq!(item, cat.lookup("a").unwrap());
                assert!(ops.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // One read fed: emits r(a), w(b), suspends wanting c.
        match run_with_reads(&p, &cat, TxnId(1), &[Value::Int(5)]).unwrap() {
            RunOutcome::NeedsRead { item, ops } => {
                assert_eq!(item, cat.lookup("c").unwrap());
                assert_eq!(ops.len(), 2);
                assert_eq!(ops[1].value, Value::Int(6));
            }
            other => panic!("{other:?}"),
        }
        // Both fed: completes.
        match run_with_reads(&p, &cat, TxnId(1), &[Value::Int(5), Value::Int(9)]).unwrap() {
            RunOutcome::Complete { ops } => assert_eq!(ops.len(), 4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn execute_and_apply_updates_state() {
        let cat = catalog_abcd();
        let p = parse_program("P", "a := b + 1;").unwrap();
        let ds = DbState::from_pairs([
            (cat.lookup("a").unwrap(), Value::Int(0)),
            (cat.lookup("b").unwrap(), Value::Int(4)),
        ]);
        let (t, out) = execute_and_apply(&p, &cat, TxnId(3), &ds).unwrap();
        assert_eq!(t.id(), TxnId(3));
        assert_eq!(out.get(cat.lookup("a").unwrap()), Some(&Value::Int(5)));
        assert_eq!(out.get(cat.lookup("b").unwrap()), Some(&Value::Int(4)));
    }

    #[test]
    fn missing_item_in_state_is_core_error() {
        let cat = catalog_abcd();
        let p = parse_program("P", "b := a;").unwrap();
        let err = execute(&p, &cat, TxnId(1), &DbState::new()).unwrap_err();
        assert!(matches!(err, TpError::Core(CoreError::MissingItem(_))));
    }

    #[test]
    fn branch_on_state_changes_structure() {
        // The paper's core observation: different initial states give
        // different transactions for non-fixed-structure programs.
        let cat = catalog_abcd();
        let p = parse_program("TP1", "a := 1; if (c > 0) then b := abs(b) + 1;").unwrap();
        let c = cat.lookup("c").unwrap();
        let b = cat.lookup("b").unwrap();
        let pos = DbState::from_pairs([(c, Value::Int(1)), (b, Value::Int(-1))]);
        let neg = DbState::from_pairs([(c, Value::Int(-1)), (b, Value::Int(-1))]);
        let t_pos = execute(&p, &cat, TxnId(1), &pos).unwrap();
        let t_neg = execute(&p, &cat, TxnId(1), &neg).unwrap();
        assert_ne!(t_pos.structure(), t_neg.structure());
        assert_eq!(t_pos.len(), 4); // w(a), r(c), r(b), w(b)
        assert_eq!(t_neg.len(), 2); // w(a), r(c)
    }
}
