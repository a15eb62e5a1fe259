//! The reference interpreter: the recursive tree walk `pwsr_tplang`
//! used to run on, kept as a test-only oracle for the compiled machine.
//!
//! It re-executes the whole program against a log of read values and
//! stops where the log runs out — the §2.2 model (first read of an item
//! emits an operation, later reads are served from a cache, reads of
//! self-written items from the write buffer, a second write is an
//! error) written the obvious way. It shares **no code** with
//! `pwsr_tplang::machine` — only the AST, the error type and the
//! [`RunOutcome`] data type — which is what lets
//! `proptests.rs::machine_equals_reference` hold the machine to it.

use pwsr_core::catalog::Catalog;
use pwsr_core::error::CoreError;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::op::Operation;
use pwsr_core::value::Value;
use pwsr_tplang::ast::{BinOp, Cond, Expr, Program, Stmt, UnOp};
use pwsr_tplang::error::{Result, TpError};
use pwsr_tplang::interp::RunOutcome;
use std::collections::BTreeMap;
use std::collections::HashMap;

enum Interrupt {
    NeedsRead(ItemId),
    Fail(TpError),
}

impl From<TpError> for Interrupt {
    fn from(e: TpError) -> Self {
        Interrupt::Fail(e)
    }
}

struct Runner<'a> {
    catalog: &'a Catalog,
    txn: TxnId,
    read_values: &'a [Value],
    next_read: usize,
    ops: Vec<Operation>,
    locals: HashMap<String, Value>,
    read_cache: BTreeMap<ItemId, Value>,
    write_buffer: BTreeMap<ItemId, Value>,
}

type Step<T> = std::result::Result<T, Interrupt>;

impl<'a> Runner<'a> {
    fn read_name(&mut self, name: &str) -> Step<Value> {
        match self.catalog.lookup(name) {
            Ok(item) => self.read_item(item),
            Err(_) => self
                .locals
                .get(name)
                .cloned()
                .ok_or_else(|| Interrupt::Fail(TpError::UnboundLocal(name.to_owned()))),
        }
    }

    fn read_item(&mut self, item: ItemId) -> Step<Value> {
        if let Some(v) = self.write_buffer.get(&item) {
            return Ok(v.clone()); // own write, no operation
        }
        if let Some(v) = self.read_cache.get(&item) {
            return Ok(v.clone()); // already read once
        }
        if self.next_read < self.read_values.len() {
            let v = self.read_values[self.next_read].clone();
            self.next_read += 1;
            self.ops.push(Operation::read(self.txn, item, v.clone()));
            self.read_cache.insert(item, v.clone());
            Ok(v)
        } else {
            Err(Interrupt::NeedsRead(item))
        }
    }

    fn write_name(&mut self, name: &str, value: Value) -> Step<()> {
        match self.catalog.lookup(name) {
            Ok(item) => {
                if self.write_buffer.contains_key(&item) {
                    return Err(Interrupt::Fail(TpError::DoubleWrite(item)));
                }
                self.ops
                    .push(Operation::write(self.txn, item, value.clone()));
                self.write_buffer.insert(item, value);
                Ok(())
            }
            Err(_) => {
                self.locals.insert(name.to_owned(), value);
                Ok(())
            }
        }
    }

    fn eval(&mut self, expr: &Expr) -> Step<Value> {
        fn int_of(v: Value, ctx: &'static str) -> Step<i64> {
            v.as_int()
                .ok_or(Interrupt::Fail(TpError::Core(CoreError::TypeError {
                    expected: "int",
                    found: "non-int",
                    context: ctx,
                })))
        }
        match expr {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(name) => self.read_name(name),
            Expr::Unary(op, e) => {
                let v = int_of(self.eval(e)?, "unary op")?;
                let out = match op {
                    UnOp::Neg => v.checked_neg(),
                    UnOp::Abs => v.checked_abs(),
                };
                out.map(Value::Int)
                    .ok_or(Interrupt::Fail(TpError::Core(CoreError::Overflow)))
            }
            Expr::Binary(op, l, r) => {
                let lv = int_of(self.eval(l)?, "binary op")?;
                let rv = int_of(self.eval(r)?, "binary op")?;
                let out = match op {
                    BinOp::Add => lv.checked_add(rv),
                    BinOp::Sub => lv.checked_sub(rv),
                    BinOp::Mul => lv.checked_mul(rv),
                    BinOp::Min => Some(lv.min(rv)),
                    BinOp::Max => Some(lv.max(rv)),
                };
                out.map(Value::Int)
                    .ok_or(Interrupt::Fail(TpError::Core(CoreError::Overflow)))
            }
        }
    }

    fn test(&mut self, cond: &Cond) -> Step<bool> {
        match cond {
            Cond::True => Ok(true),
            Cond::False => Ok(false),
            Cond::Cmp(op, l, r) => {
                let lv = self.eval(l)?;
                let rv = self.eval(r)?;
                op.apply(&lv, &rv)
                    .map_err(|e| Interrupt::Fail(TpError::Core(e)))
            }
            Cond::And(l, r) => Ok(self.test(l)? && self.test(r)?),
            Cond::Or(l, r) => Ok(self.test(l)? || self.test(r)?),
            Cond::Not(c) => Ok(!self.test(c)?),
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Step<()> {
        for s in stmts {
            self.exec(s)?;
        }
        Ok(())
    }

    fn exec(&mut self, stmt: &Stmt) -> Step<()> {
        match stmt {
            Stmt::Assign { target, expr } => {
                let v = self.eval(expr)?;
                self.write_name(target, v)
            }
            Stmt::Touch(name) => {
                let _ = self.read_name(name)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.test(cond)? {
                    self.exec_block(then_branch)
                } else {
                    self.exec_block(else_branch)
                }
            }
            Stmt::While { cond, body, limit } => {
                let mut iters = 0u32;
                while self.test(cond)? {
                    if iters >= *limit {
                        return Err(Interrupt::Fail(TpError::LoopLimit { limit: *limit }));
                    }
                    iters += 1;
                    self.exec_block(body)?;
                }
                Ok(())
            }
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
    let mut runner = Runner {
        catalog,
        txn,
        read_values,
        next_read: 0,
        ops: Vec::new(),
        locals: HashMap::new(),
        read_cache: BTreeMap::new(),
        write_buffer: BTreeMap::new(),
    };
    match runner.exec_block(&program.body) {
        Ok(()) => Ok(RunOutcome::Complete { ops: runner.ops }),
        Err(Interrupt::NeedsRead(item)) => Ok(RunOutcome::NeedsRead {
            item,
            ops: runner.ops,
        }),
        Err(Interrupt::Fail(e)) => Err(e),
    }
}

/// The oracle agrees with the paper before it judges anything else:
/// Example 1's `TP1` from `DS1` is `r1(a, 0), r1(c, 5), w1(b, 5)`.
#[test]
fn reference_runs_example1() {
    use pwsr_core::value::Domain;
    let mut cat = Catalog::new();
    for name in ["a", "b", "c", "d"] {
        cat.add_item(name, Domain::int_range(-100, 100));
    }
    let p =
        pwsr_tplang::parser::parse_program("TP1", "if (a >= 0) then b := c; else c := d;").unwrap();
    let RunOutcome::NeedsRead { item, ops } =
        run_with_reads(&p, &cat, TxnId(1), &[Value::Int(0)]).unwrap()
    else {
        panic!("one read is not enough");
    };
    assert_eq!((item, ops.len()), (cat.lookup("c").unwrap(), 1));
    let RunOutcome::Complete { ops } =
        run_with_reads(&p, &cat, TxnId(1), &[Value::Int(0), Value::Int(5)]).unwrap()
    else {
        panic!("two reads complete TP1");
    };
    let shown: Vec<String> = ops.iter().map(|o| o.display(&cat)).collect();
    assert_eq!(shown, vec!["r1(a, 0)", "r1(c, 5)", "w1(b, 5)"]);
}
