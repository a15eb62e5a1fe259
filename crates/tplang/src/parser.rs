//! Recursive-descent parser for transaction programs.
//!
//! Grammar (statements end with `;`, blocks use `{}`; a lone statement
//! after `then`/`else`/`do` needs no braces):
//!
//! ```text
//! program  := stmt*
//! stmt     := ident ":=" expr ";"
//!           | "touch" ident ";"
//!           | "if" "(" cond ")" "then" block ("else" block)?
//!           | "while" "(" cond ")" "do" block
//! block    := "{" stmt* "}" | stmt
//! cond     := orterm ("||" orterm)*
//! orterm   := cmp ("&&" cmp)*
//! cmp      := "!" cmp | "(" cond ")"        -- when followed by bool ops
//!           | expr (=|==|!=|<|<=|>|>=) expr | "true" | "false"
//! expr     := term (("+"|"-") term)*
//! term     := factor ("*" factor)*
//! factor   := int | string | ident | "-" factor
//!           | "abs" "(" expr ")" | "min" "(" expr "," expr ")"
//!           | "max" "(" expr "," expr ")" | "(" expr ")"
//! ```
//!
//! The default `while` iteration limit is `DEFAULT_LOOP_LIMIT`.

use crate::ast::{BinOp, Cond, Expr, Program, Stmt, UnOp};
use crate::error::{Result, TpError};
use crate::lexer::{tokenize, Token};
use pwsr_core::constraint::Cmp;
use pwsr_core::value::Value;

/// Iteration cap applied to parsed `while` loops.
pub(crate) const DEFAULT_LOOP_LIMIT: u32 = 10_000;

/// Parse a named program from source text.
pub fn parse_program(name: &str, src: &str) -> Result<Program> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut body = Vec::new();
    while !p.at_end() {
        body.push(p.stmt()?);
    }
    Ok(Program::new(name, body))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(TpError::Parse {
            at: self.pos,
            msg: msg.to_owned(),
        })
    }

    fn expect(&mut self, want: &Token, what: &str) -> Result<()> {
        match self.bump() {
            Some(ref t) if t == want => Ok(()),
            other => self.err(&format!("expected {what}, found {other:?}")),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(name)) => Ok(name),
            other => self.err(&format!("expected identifier, found {other:?}")),
        }
    }

    fn stmt(&mut self) -> Result<Stmt> {
        match self.peek() {
            Some(Token::Ident(kw)) if kw == "if" => self.if_stmt(),
            Some(Token::Ident(kw)) if kw == "while" => self.while_stmt(),
            Some(Token::Ident(kw)) if kw == "touch" => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Token::Semi, "';'")?;
                Ok(Stmt::Touch(name))
            }
            Some(Token::Ident(_)) => {
                let target = self.ident()?;
                self.expect(&Token::Assign, "':='")?;
                let expr = self.expr()?;
                self.expect(&Token::Semi, "';'")?;
                Ok(Stmt::Assign { target, expr })
            }
            other => self.err(&format!("expected a statement, found {other:?}")),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        self.bump(); // "if"
        self.expect(&Token::LParen, "'('")?;
        let cond = self.cond()?;
        self.expect(&Token::RParen, "')'")?;
        match self.bump() {
            Some(Token::Ident(kw)) if kw == "then" => {}
            other => return self.err(&format!("expected 'then', found {other:?}")),
        }
        let then_branch = self.block()?;
        let else_branch = if matches!(self.peek(), Some(Token::Ident(kw)) if kw == "else") {
            self.bump();
            self.block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt> {
        self.bump(); // "while"
        self.expect(&Token::LParen, "'('")?;
        let cond = self.cond()?;
        self.expect(&Token::RParen, "')'")?;
        match self.bump() {
            Some(Token::Ident(kw)) if kw == "do" => {}
            other => return self.err(&format!("expected 'do', found {other:?}")),
        }
        let body = self.block()?;
        Ok(Stmt::While {
            cond,
            body,
            limit: DEFAULT_LOOP_LIMIT,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>> {
        if matches!(self.peek(), Some(Token::LBrace)) {
            self.bump();
            let mut stmts = Vec::new();
            while !matches!(self.peek(), Some(Token::RBrace)) {
                if self.at_end() {
                    return self.err("unterminated block");
                }
                stmts.push(self.stmt()?);
            }
            self.bump(); // '}'
            Ok(stmts)
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn cond(&mut self) -> Result<Cond> {
        let mut left = self.and_cond()?;
        while matches!(self.peek(), Some(Token::OrOr)) {
            self.bump();
            let right = self.and_cond()?;
            left = Cond::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_cond(&mut self) -> Result<Cond> {
        let mut left = self.atom_cond()?;
        while matches!(self.peek(), Some(Token::AndAnd)) {
            self.bump();
            let right = self.atom_cond()?;
            left = Cond::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn atom_cond(&mut self) -> Result<Cond> {
        match self.peek() {
            Some(Token::Bang) => {
                self.bump();
                Ok(Cond::Not(Box::new(self.atom_cond()?)))
            }
            Some(Token::Ident(kw)) if kw == "true" && !self.next_is_cmp() => {
                self.bump();
                Ok(Cond::True)
            }
            Some(Token::Ident(kw)) if kw == "false" && !self.next_is_cmp() => {
                self.bump();
                Ok(Cond::False)
            }
            Some(Token::LParen) if self.paren_is_condition() => {
                self.bump();
                let c = self.cond()?;
                self.expect(&Token::RParen, "')'")?;
                Ok(c)
            }
            _ => {
                let left = self.expr()?;
                let op = match self.bump() {
                    Some(Token::Eq) => Cmp::Eq,
                    Some(Token::Ne) => Cmp::Ne,
                    Some(Token::Lt) => Cmp::Lt,
                    Some(Token::Le) => Cmp::Le,
                    Some(Token::Gt) => Cmp::Gt,
                    Some(Token::Ge) => Cmp::Ge,
                    other => return self.err(&format!("expected comparison, found {other:?}")),
                };
                let right = self.expr()?;
                Ok(Cond::Cmp(op, left, right))
            }
        }
    }

    /// After `true`/`false` a comparison operator means they were meant
    /// as (illegal) expression operands; treat as comparison start.
    fn next_is_cmp(&self) -> bool {
        matches!(
            self.peek2(),
            Some(Token::Eq | Token::Ne | Token::Lt | Token::Le | Token::Gt | Token::Ge)
        )
    }

    /// Disambiguate `(` in condition position: it opens a nested
    /// condition if the matching structure contains a boolean operator
    /// before the comparison; otherwise it is an arithmetic paren.
    /// A simple scan: find the matching `)` and look for `&&`, `||`,
    /// or a comparison *inside* it.
    fn paren_is_condition(&self) -> bool {
        let mut depth = 0usize;
        for t in &self.tokens[self.pos..] {
            match t {
                Token::LParen => depth += 1,
                Token::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                Token::AndAnd | Token::OrOr | Token::Bang if depth >= 1 => return true,
                Token::Eq | Token::Ne | Token::Lt | Token::Le | Token::Gt | Token::Ge
                    if depth == 1 =>
                {
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    fn expr(&mut self) -> Result<Expr> {
        let mut left = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.term()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<Expr> {
        let mut left = self.factor()?;
        while matches!(self.peek(), Some(Token::Star)) {
            self.bump();
            let right = self.factor()?;
            left = Expr::Binary(BinOp::Mul, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(Token::Int(v)) => Ok(Expr::Const(Value::Int(v))),
            Some(Token::Str(s)) => Ok(Expr::Const(Value::str(&s))),
            Some(Token::Minus) => Ok(Expr::Unary(UnOp::Neg, Box::new(self.factor()?))),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen, "')'")?;
                Ok(e)
            }
            Some(Token::Ident(name)) => match name.as_str() {
                "abs" => {
                    self.expect(&Token::LParen, "'('")?;
                    let e = self.expr()?;
                    self.expect(&Token::RParen, "')'")?;
                    Ok(Expr::Unary(UnOp::Abs, Box::new(e)))
                }
                "min" | "max" => {
                    let op = if name == "min" {
                        BinOp::Min
                    } else {
                        BinOp::Max
                    };
                    self.expect(&Token::LParen, "'('")?;
                    let l = self.expr()?;
                    self.expect(&Token::Comma, "','")?;
                    let r = self.expr()?;
                    self.expect(&Token::RParen, "')'")?;
                    Ok(Expr::Binary(op, Box::new(l), Box::new(r)))
                }
                "true" => Ok(Expr::Const(Value::Bool(true))),
                "false" => Ok(Expr::Const(Value::Bool(false))),
                _ => Ok(Expr::Var(name)),
            },
            other => self.err(&format!("expected expression, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_example2_tp1() {
        let p = parse_program("TP1", "a := 1; if (c > 0) then b := abs(b) + 1;").unwrap();
        assert_eq!(p.body.len(), 2);
        match &p.body[1] {
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                assert_eq!(cond, &Cond::gt(Expr::var("c"), Expr::int(0)));
                assert_eq!(then_branch.len(), 1);
                assert!(else_branch.is_empty());
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_with_blocks() {
        let p = parse_program(
            "TP1p",
            "a := 1; if (c > 0) then { b := abs(b) + 1; } else { b := b; }",
        )
        .unwrap();
        match &p.body[1] {
            Stmt::If { else_branch, .. } => assert_eq!(else_branch.len(), 1),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_while_and_touch() {
        let p = parse_program("L", "while (x < 10) do { x := x + 1; touch y; }").unwrap();
        match &p.body[0] {
            Stmt::While { body, limit, .. } => {
                assert_eq!(body.len(), 2);
                assert_eq!(*limit, DEFAULT_LOOP_LIMIT);
                assert_eq!(body[1], Stmt::Touch("y".into()));
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_program("P", "x := 1 + 2 * 3;").unwrap();
        match &p.body[0] {
            Stmt::Assign { expr, .. } => {
                assert_eq!(expr.to_string(), "(1 + (2 * 3))");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn boolean_operators_and_nesting() {
        let p = parse_program("P", "if ((a > 0 && b < 1) || !(c = 2)) then x := 1;").unwrap();
        match &p.body[0] {
            Stmt::If { cond, .. } => {
                let s = cond.to_string();
                assert!(
                    s.contains("&&") && s.contains("||") && s.contains('!'),
                    "{s}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_parens_in_condition() {
        // `(a + 1) > 2` — the leading paren is arithmetic, not boolean.
        let p = parse_program("P", "if ((a + 1) > 2) then x := 1;").unwrap();
        match &p.body[0] {
            Stmt::If { cond, .. } => {
                assert_eq!(
                    cond,
                    &Cond::gt(Expr::var("a").add(Expr::int(1)), Expr::int(2))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn min_max_functions() {
        let p = parse_program("P", "x := min(a, 3) + max(b, -1);").unwrap();
        match &p.body[0] {
            Stmt::Assign { expr, .. } => {
                assert_eq!(expr.to_string(), "(min(a, 3) + max(b, -(1)))");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_program("P", "x := ;").is_err());
        assert!(parse_program("P", "if (a > 0) x := 1;").is_err()); // missing then
        assert!(parse_program("P", "x := 1").is_err()); // missing ;
        assert!(parse_program("P", "if (a > 0) then { x := 1;").is_err()); // open block
        assert!(parse_program("P", "while (x) do y := 1;").is_err()); // cond not boolean
    }

    #[test]
    fn empty_program_ok() {
        let p = parse_program("P", "  # nothing\n").unwrap();
        assert!(p.body.is_empty());
    }
}
