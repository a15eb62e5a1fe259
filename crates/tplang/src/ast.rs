//! Abstract syntax of transaction programs.
//!
//! Variables are plain names; whether a name denotes a **data item**
//! (present in the [`Catalog`](pwsr_core::catalog::Catalog)) or a
//! **local** (like the paper's `temp` in Example 5) is resolved at
//! execution time. Only data-item accesses produce operations.

use pwsr_core::constraint::Cmp;
use pwsr_core::value::Value;
use std::fmt;

/// Arithmetic binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `min(·,·)`
    Min,
    /// `max(·,·)`
    Max,
}

/// Arithmetic unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Unary minus.
    Neg,
    /// `abs(·)` — the paper's `|b|`.
    Abs,
}

/// An expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// A constant.
    Const(Value),
    /// A variable: data item or local, by name.
    Var(String),
    /// A unary application.
    Unary(UnOp, Box<Expr>),
    /// A binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Integer constant shorthand.
    pub fn int(v: i64) -> Expr {
        Expr::Const(Value::Int(v))
    }

    /// Variable shorthand.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_owned())
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // fluent builder, not operator overloading
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self − rhs`.
    #[allow(clippy::should_implement_trait)] // fluent builder, not operator overloading
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `abs(self)`.
    pub fn abs(self) -> Expr {
        Expr::Unary(UnOp::Abs, Box::new(self))
    }

    /// Variable names referenced, in evaluation order (with duplicates).
    pub(crate) fn var_names(&self, out: &mut Vec<String>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(name) => out.push(name.clone()),
            Expr::Unary(_, e) => e.var_names(out),
            Expr::Binary(_, l, r) => {
                l.var_names(out);
                r.var_names(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(name) => write!(f, "{name}"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Unary(UnOp::Abs, e) => write!(f, "abs({e})"),
            Expr::Binary(op, l, r) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Min => return write!(f, "min({l}, {r})"),
                    BinOp::Max => return write!(f, "max({l}, {r})"),
                };
                write!(f, "({l} {sym} {r})")
            }
        }
    }
}

/// A boolean condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cond {
    /// Constant truth.
    True,
    /// Constant falsity.
    False,
    /// A comparison `e1 ⋈ e2` (operators from `pwsr-core`).
    Cmp(Cmp, Expr, Expr),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// `e1 > e2` shorthand.
    pub fn gt(l: Expr, r: Expr) -> Cond {
        Cond::Cmp(Cmp::Gt, l, r)
    }

    /// `e1 ≥ e2` shorthand.
    pub fn ge(l: Expr, r: Expr) -> Cond {
        Cond::Cmp(Cmp::Ge, l, r)
    }

    /// `e1 = e2` shorthand.
    pub fn eq(l: Expr, r: Expr) -> Cond {
        Cond::Cmp(Cmp::Eq, l, r)
    }

    /// `e1 < e2` shorthand.
    pub fn lt(l: Expr, r: Expr) -> Cond {
        Cond::Cmp(Cmp::Lt, l, r)
    }

    /// Variable names referenced, in evaluation order.
    pub(crate) fn var_names(&self, out: &mut Vec<String>) {
        match self {
            Cond::True | Cond::False => {}
            Cond::Cmp(_, l, r) => {
                l.var_names(out);
                r.var_names(out);
            }
            Cond::And(l, r) | Cond::Or(l, r) => {
                l.var_names(out);
                r.var_names(out);
            }
            Cond::Not(c) => c.var_names(out),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::True => write!(f, "true"),
            Cond::False => write!(f, "false"),
            Cond::Cmp(op, l, r) => write!(f, "{l} {op} {r}"),
            Cond::And(l, r) => write!(f, "({l} && {r})"),
            Cond::Or(l, r) => write!(f, "({l} || {r})"),
            Cond::Not(c) => write!(f, "!({c})"),
        }
    }
}

/// A statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `target := expr` — a DB write if `target` is a data item,
    /// otherwise a local binding.
    Assign {
        /// Assigned variable name.
        target: String,
        /// Right-hand side.
        expr: Expr,
    },
    /// `touch x` — read `x` and discard the value. Emits a read
    /// operation (unless cached); used to pad structures.
    Touch(String),
    /// `if cond then { … } else { … }` (else may be empty).
    If {
        /// Branch condition.
        cond: Cond,
        /// Taken when the condition holds.
        then_branch: Vec<Stmt>,
        /// Taken otherwise.
        else_branch: Vec<Stmt>,
    },
    /// `while cond do { … }` — iteration capped at `limit` to keep
    /// every program terminating (exceeding it is a runtime error).
    While {
        /// Loop condition.
        cond: Cond,
        /// Loop body.
        body: Vec<Stmt>,
        /// Maximum number of iterations.
        limit: u32,
    },
}

impl Stmt {
    /// `target := expr` shorthand.
    pub fn assign(target: &str, expr: Expr) -> Stmt {
        Stmt::Assign {
            target: target.to_owned(),
            expr,
        }
    }
}

fn fmt_block(f: &mut fmt::Formatter<'_>, stmts: &[Stmt], indent: usize) -> fmt::Result {
    for s in stmts {
        s.fmt_indented(f, indent)?;
    }
    Ok(())
}

impl Stmt {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Stmt::Assign { target, expr } => writeln!(f, "{pad}{target} := {expr};"),
            Stmt::Touch(name) => writeln!(f, "{pad}touch {name};"),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                writeln!(f, "{pad}if ({cond}) then {{")?;
                fmt_block(f, then_branch, indent + 1)?;
                if else_branch.is_empty() {
                    writeln!(f, "{pad}}}")
                } else {
                    writeln!(f, "{pad}}} else {{")?;
                    fmt_block(f, else_branch, indent + 1)?;
                    writeln!(f, "{pad}}}")
                }
            }
            Stmt::While { cond, body, .. } => {
                writeln!(f, "{pad}while ({cond}) do {{")?;
                fmt_block(f, body, indent + 1)?;
                writeln!(f, "{pad}}}")
            }
        }
    }
}

/// A transaction program: a named statement sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Human-readable name (`TP1`, `TP2′`, …).
    pub name: String,
    /// The body.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Build a program.
    pub fn new(name: &str, body: Vec<Stmt>) -> Program {
        Program {
            name: name.to_owned(),
            body,
        }
    }

    /// Does any statement (recursively) use `if` or `while`? If not,
    /// the program is *straight-line* in the sense of Sha et al. \[14\].
    pub(crate) fn has_control_flow(&self) -> bool {
        fn check(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::Assign { .. } | Stmt::Touch(_) => false,
                Stmt::If { .. } | Stmt::While { .. } => true,
            })
        }
        check(&self.body)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        fmt_block(f, &self.body, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders_and_display() {
        let e = Expr::var("b").abs().add(Expr::int(1));
        assert_eq!(e.to_string(), "(abs(b) + 1)");
        let mut names = Vec::new();
        e.var_names(&mut names);
        assert_eq!(names, vec!["b"]);
    }

    #[test]
    fn cond_var_order_is_evaluation_order() {
        let c = Cond::And(
            Box::new(Cond::gt(Expr::var("a"), Expr::int(0))),
            Box::new(Cond::lt(Expr::var("b"), Expr::var("c"))),
        );
        let mut names = Vec::new();
        c.var_names(&mut names);
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn control_flow_detection() {
        let straight = Program::new("P", vec![Stmt::assign("a", Expr::int(1))]);
        assert!(!straight.has_control_flow());
        let branching = Program::new(
            "Q",
            vec![Stmt::If {
                cond: Cond::True,
                then_branch: vec![Stmt::assign("a", Expr::int(1))],
                else_branch: Vec::new(),
            }],
        );
        assert!(branching.has_control_flow());
    }

    #[test]
    fn display_round_trip_shape() {
        let p = Program::new(
            "TP1",
            vec![
                Stmt::assign("a", Expr::int(1)),
                Stmt::If {
                    cond: Cond::gt(Expr::var("c"), Expr::int(0)),
                    then_branch: vec![Stmt::assign("b", Expr::var("b").abs().add(Expr::int(1)))],
                    else_branch: vec![Stmt::assign("b", Expr::var("b"))],
                },
            ],
        );
        let text = p.to_string();
        assert!(text.contains("a := 1;"));
        assert!(text.contains("if (c > 0) then {"));
        assert!(text.contains("} else {"));
    }
}
