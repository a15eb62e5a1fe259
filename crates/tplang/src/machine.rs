//! The one interpreter: a program compiled once, run from read to read.
//!
//! `Code::compile` flattens a [`Program`] into an instruction vector:
//! every name a slot — a data item if the catalog knows it, a local
//! otherwise — and every condition jumps (short-circuit `and` / `or`).
//! A `Machine` is one execution over that code: program counter,
//! operand stack, loop counters, a cell per slot (for an item, §2.2's
//! read-once cache and write buffer) and the queue of writes it has
//! passed. It runs from where it stopped to the next read it cannot
//! serve itself, so feeding it a value costs the instructions up to the
//! next read, not a re-run of the program. It borrows neither the code
//! nor a read log, and clones mid-run.

use crate::ast::{BinOp, Cond, Expr, Program, Stmt, UnOp};
use crate::error::{Result, TpError};
use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::Cmp;
use pwsr_core::error::CoreError;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::op::Operation;
use pwsr_core::value::Value;
use std::collections::VecDeque;

/// What the program will do next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pending {
    /// The next operation is a read of this item; the scheduler must
    /// supply the current value (`Machine::feed`; a session's
    /// `feed_read`).
    NeedRead(ItemId),
    /// The next operation is this write; apply it and take it
    /// (`Machine::pop_write`; a session's `advance_write`).
    Write(Operation),
    /// The program has no further operations.
    Done,
}

/// One instruction; jump targets are instruction indices.
#[derive(Clone, Debug)]
enum Ins {
    Const(Value),
    /// Push the slot's value; without one, an item stops for a read and
    /// a local is unbound.
    Load(usize),
    /// Pop into the slot: a local binding, or an item's one write.
    Store(usize),
    /// The left operand of `Binary` must be an int *before* the right
    /// one is evaluated (and possibly read).
    CheckInt,
    Unary(UnOp),
    Binary(BinOp),
    Pop,
    Jump(usize),
    /// Pop `r`, `l`; jump to `.2` when `l op r == .1`.
    JumpCmp(Cmp, bool, usize),
    /// Zero loop counter `.0`.
    LoopEnter(usize),
    /// One more round of loop `.0`, unless it has done `.1` already.
    LoopIter(usize, u32),
}

/// A compiled program (borrowing only its names).
#[derive(Clone, Debug, Default)]
pub(crate) struct Code<'p> {
    ins: Vec<Ins>,
    /// Slot → its name and, for a data item, its id.
    slots: Vec<(&'p str, Option<ItemId>)>,
    loops: usize,
}

struct Compiler<'p, 'c> {
    catalog: &'c Catalog,
    code: Code<'p>,
    /// Label → instruction index once bound; jumps hold labels until
    /// [`Code::compile`] swaps the indices in.
    labels: Vec<usize>,
}

impl<'p> Code<'p> {
    /// Compile `program` against `catalog`. Never fails: unbound locals,
    /// double writes, type errors, overflow and loop limits depend on
    /// the values read and surface when the machine runs.
    pub(crate) fn compile(program: &'p Program, catalog: &Catalog) -> Code<'p> {
        let mut c = Compiler {
            catalog,
            code: Code::default(),
            labels: Vec::new(),
        };
        c.code.ins.reserve(16);
        c.block(&program.body);
        for ins in &mut c.code.ins {
            if let Ins::Jump(to) | Ins::JumpCmp(_, _, to) = ins {
                *to = c.labels[*to];
            }
        }
        c.code
    }
}

impl<'p> Compiler<'p, '_> {
    /// Emit `ins` over the slot of `name`; only a name not met before
    /// is looked up (hashed) in the catalog.
    fn access(&mut self, name: &'p str, ins: fn(usize) -> Ins) {
        let slots = &mut self.code.slots;
        let slot = slots.iter().position(|(n, _)| *n == name);
        let slot = slot.unwrap_or_else(|| {
            slots.push((name, self.catalog.get(name)));
            slots.len() - 1
        });
        self.emit(ins(slot));
    }

    fn emit(&mut self, ins: Ins) {
        self.code.ins.push(ins);
    }

    fn label(&mut self) -> usize {
        self.labels.push(usize::MAX);
        self.labels.len() - 1
    }

    fn bind(&mut self, label: usize) {
        self.labels[label] = self.code.ins.len();
    }

    fn expr(&mut self, expr: &'p Expr) {
        match expr {
            Expr::Const(v) => self.emit(Ins::Const(v.clone())),
            Expr::Var(name) => self.access(name, Ins::Load),
            Expr::Unary(op, e) => {
                self.expr(e);
                self.emit(Ins::Unary(*op));
            }
            Expr::Binary(op, l, r) => {
                self.expr(l);
                // Operators yield ints; anything else is checked where
                // the tree walk checked it.
                if matches!(
                    **l,
                    Expr::Var(_) | Expr::Const(Value::Bool(_) | Value::Str(_))
                ) {
                    self.emit(Ins::CheckInt);
                }
                self.expr(r);
                self.emit(Ins::Binary(*op));
            }
        }
    }

    /// Jump to `to` when `cond` evaluates to `when`; else fall through.
    fn cond(&mut self, cond: &'p Cond, when: bool, to: usize) {
        match cond {
            Cond::True | Cond::False if matches!(cond, Cond::True) != when => {}
            Cond::True | Cond::False => self.emit(Ins::Jump(to)),
            Cond::Cmp(op, l, r) => {
                self.expr(l);
                self.expr(r);
                self.emit(Ins::JumpCmp(*op, when, to));
            }
            Cond::Not(c) => self.cond(c, !when, to),
            // `or` is true, `and` false, as soon as one side is: under
            // that polarity both sides jump to `to`; under the other
            // the left side can only skip the right.
            Cond::And(l, r) | Cond::Or(l, r) if when == matches!(cond, Cond::Or(..)) => {
                self.cond(l, when, to);
                self.cond(r, when, to);
            }
            Cond::And(l, r) | Cond::Or(l, r) => {
                let skip = self.label();
                self.cond(l, !when, skip);
                self.cond(r, when, to);
                self.bind(skip);
            }
        }
    }

    fn block(&mut self, stmts: &'p [Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { target, expr } => {
                    self.expr(expr);
                    self.access(target, Ins::Store);
                }
                Stmt::Touch(name) => {
                    self.access(name, Ins::Load);
                    self.emit(Ins::Pop);
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let (otherwise, end) = (self.label(), self.label());
                    self.cond(cond, false, otherwise);
                    self.block(then_branch);
                    if !else_branch.is_empty() {
                        self.emit(Ins::Jump(end));
                    }
                    self.bind(otherwise);
                    self.block(else_branch);
                    self.bind(end);
                }
                Stmt::While { cond, body, limit } => {
                    let (top, exit) = (self.label(), self.label());
                    self.emit(Ins::LoopEnter(self.code.loops));
                    self.bind(top);
                    self.cond(cond, false, exit);
                    self.emit(Ins::LoopIter(self.code.loops, *limit));
                    self.code.loops += 1;
                    self.block(body);
                    self.emit(Ins::Jump(top));
                    self.bind(exit);
                }
            }
        }
    }
}

/// A slot's state: a local's binding; or what a read of the item is
/// served from (its own write, else its one read) and whether it wrote.
#[derive(Clone, Debug, Default)]
struct Cell {
    value: Option<Value>,
    written: bool,
}

/// One execution of a [`Code`]. Every method that takes the code must
/// be given the one the machine was started over.
#[derive(Clone, Debug)]
pub(crate) struct Machine {
    txn: TxnId,
    pc: usize,
    stack: Vec<Value>,
    cells: Vec<Cell>,
    loops: Vec<u32>,
    /// Writes passed and not yet taken, in program order.
    writes: VecDeque<Operation>,
    /// Where it stands: at a read of this item, at the end, or failed.
    at: Result<Option<ItemId>>,
}

fn int_of(v: &Value, context: &'static str) -> Result<i64> {
    v.as_int().ok_or(TpError::Core(CoreError::TypeError {
        expected: "int",
        found: "non-int",
        context,
    }))
}

impl Machine {
    /// Start `code` as transaction `txn` and run to the first stop.
    pub(crate) fn start(code: &Code<'_>, txn: TxnId) -> Machine {
        let mut machine = Machine {
            txn,
            pc: 0,
            stack: Vec::new(),
            cells: vec![Cell::default(); code.slots.len()],
            loops: vec![0; code.loops],
            writes: VecDeque::new(),
            at: Ok(None),
        };
        machine.at = machine.exec(code);
        machine
    }

    /// The transaction this machine runs as.
    pub(crate) fn txn(&self) -> TxnId {
        self.txn
    }

    /// The next operation: the oldest write passed and not yet taken,
    /// else the read the machine stands at. An error met on the way to
    /// that read is reported ahead of the writes before it.
    pub(crate) fn pending(&self) -> Result<Pending> {
        Ok(match (&self.at, self.writes.front()) {
            (Err(e), _) => return Err(e.clone()),
            (_, Some(op)) => Pending::Write(op.clone()),
            (Ok(Some(item)), None) => Pending::NeedRead(*item),
            (Ok(None), None) => Pending::Done,
        })
    }

    /// Take the pending write; `None` unless a write is pending.
    pub(crate) fn pop_write(&mut self) -> Option<Operation> {
        self.at.as_ref().ok().and_then(|_| self.writes.pop_front())
    }

    /// Supply the pending read's value and run on to the next stop;
    /// returns the read operation, or `None` (having done nothing)
    /// unless a read is pending.
    pub(crate) fn feed(&mut self, code: &Code<'_>, value: Value) -> Option<Operation> {
        let (Ok(Some(item)), None) = (&self.at, self.writes.front()) else {
            return None;
        };
        let Ins::Load(slot) = code.ins[self.pc] else {
            unreachable!("a machine stops for a read at a load");
        };
        let op = Operation::read(self.txn, *item, value.clone());
        self.cells[slot].value = Some(value);
        self.at = self.exec(code);
        Some(op)
    }

    fn pop(&mut self) -> Value {
        self.stack.pop().expect("the compiler balances the stack")
    }

    fn exec(&mut self, code: &Code<'_>) -> Result<Option<ItemId>> {
        while let Some(ins) = code.ins.get(self.pc) {
            self.pc += 1;
            match ins {
                Ins::Const(v) => self.stack.push(v.clone()),
                Ins::Load(slot) => match (&self.cells[*slot].value, code.slots[*slot]) {
                    (Some(v), _) => self.stack.push(v.clone()),
                    (None, (_, Some(item))) => {
                        self.pc -= 1;
                        return Ok(Some(item));
                    }
                    (None, (name, None)) => return Err(TpError::UnboundLocal(name.to_owned())),
                },
                Ins::Store(slot) => {
                    let (value, cell) = (self.pop(), &mut self.cells[*slot]);
                    if let Some(item) = code.slots[*slot].1 {
                        if cell.written {
                            return Err(TpError::DoubleWrite(item));
                        }
                        cell.written = true;
                        let op = Operation::write(self.txn, item, value.clone());
                        self.writes.push_back(op);
                    }
                    cell.value = Some(value);
                }
                Ins::CheckInt => {
                    int_of(self.stack.last().expect("an operand"), "binary op")?;
                }
                Ins::Unary(op) => {
                    let v = int_of(&self.pop(), "unary op")?;
                    let out = match op {
                        UnOp::Neg => v.checked_neg(),
                        UnOp::Abs => v.checked_abs(),
                    };
                    self.stack.push(Value::Int(out.ok_or(CoreError::Overflow)?));
                }
                Ins::Binary(op) => {
                    let r = int_of(&self.pop(), "binary op")?;
                    let l = int_of(&self.pop(), "binary op")?;
                    let out = match op {
                        BinOp::Add => l.checked_add(r),
                        BinOp::Sub => l.checked_sub(r),
                        BinOp::Mul => l.checked_mul(r),
                        BinOp::Min => Some(l.min(r)),
                        BinOp::Max => Some(l.max(r)),
                    };
                    self.stack.push(Value::Int(out.ok_or(CoreError::Overflow)?));
                }
                Ins::Pop => drop(self.pop()),
                Ins::Jump(to) => self.pc = *to,
                Ins::JumpCmp(op, when, to) => {
                    let r = self.pop();
                    if op.apply(&self.pop(), &r)? == *when {
                        self.pc = *to;
                    }
                }
                Ins::LoopEnter(counter) => self.loops[*counter] = 0,
                Ins::LoopIter(counter, limit) => {
                    if self.loops[*counter] >= *limit {
                        return Err(TpError::LoopLimit { limit: *limit });
                    }
                    self.loops[*counter] += 1;
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use pwsr_core::value::Domain;

    fn catalog_ab() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_item("a", Domain::int_range(-100, 100));
        cat.add_item("b", Domain::int_range(-100, 100));
        cat
    }

    #[test]
    fn names_resolve_once_to_dense_slots() {
        let cat = catalog_ab();
        let p = parse_program("P", "t := b; a := t + b; u := a;").unwrap();
        let code = Code::compile(&p, &cat);
        let (a, b) = (cat.lookup("a").unwrap(), cat.lookup("b").unwrap());
        assert_eq!(
            code.slots,
            vec![("b", Some(b)), ("t", None), ("a", Some(a)), ("u", None)]
        );
        assert!(code
            .ins
            .iter()
            .all(|ins| !matches!(ins, Ins::Jump(_) | Ins::JumpCmp(..))));
    }

    #[test]
    fn stops_at_each_new_read_with_the_writes_it_passed_queued() {
        let cat = catalog_ab();
        let (a, b) = (cat.lookup("a").unwrap(), cat.lookup("b").unwrap());
        let p = parse_program("P", "a := 1; if (b > 0 && a > 0) then b := a + b;").unwrap();
        let code = Code::compile(&p, &cat);
        let mut m = Machine::start(&code, TxnId(2));
        let first = Operation::write(TxnId(2), a, Value::Int(1));
        assert_eq!(m.pending(), Ok(Pending::Write(first.clone())));
        assert_eq!(m.feed(&code, Value::Int(5)), None); // the write comes first
        assert_eq!(m.pop_write(), Some(first));
        assert_eq!(m.pending(), Ok(Pending::NeedRead(b)));
        assert_eq!(m.pop_write(), None);
        assert_eq!(
            m.feed(&code, Value::Int(5)),
            Some(Operation::read(TxnId(2), b, Value::Int(5)))
        );
        assert_eq!(
            m.pop_write(),
            Some(Operation::write(TxnId(2), b, Value::Int(6)))
        );
        // Nothing pending: feeding is refused and changes nothing.
        assert_eq!(m.pending(), Ok(Pending::Done));
        assert_eq!(m.feed(&code, Value::Int(0)), None);
        assert_eq!(m.pending(), Ok(Pending::Done));
    }

    #[test]
    fn an_inner_loop_counts_from_zero_each_time_it_is_entered() {
        // The inner loop runs to its limit of 2 on each of the outer
        // loop's three rounds; only a counter reset on entry allows it.
        let cat = catalog_ab();
        let mut p = parse_program(
            "P",
            "i := 0; while (i < 3) do { j := 0; while (j < 2) do { j := j + 1; } i := i + 1; } a := i;",
        )
        .unwrap();
        let Stmt::While { body, .. } = &mut p.body[1] else {
            panic!()
        };
        let Stmt::While { limit, .. } = &mut body[1] else {
            panic!()
        };
        *limit = 2;
        let code = Code::compile(&p, &cat);
        let mut m = Machine::start(&code, TxnId(1));
        assert_eq!(m.pop_write().map(|w| w.value), Some(Value::Int(3)));
        assert_eq!(m.pending(), Ok(Pending::Done));
    }
}
