//! Integrity constraints: quantifier-free first-order formulae.
//!
//! §2.1: integrity constraints are quantifier-free FO formulae over
//! numeric/string constants, functions over them (`+`, `max`, …),
//! comparison operators, and variables (the data items). A database
//! state is a variable assignment; `DS ⊨ IC` is standard evaluation.
//!
//! The constraint is kept in the paper's standing normal form
//! `IC = C_1 ∧ C_2 ∧ … ∧ C_l` where each conjunct `C_e` ranges over a
//! data set `d_e`. The theorems require the `d_e` to be **disjoint**
//! (each `d_e` is then an *atomic data set* in the terminology of
//! Sha et al. \[14\]); [`IntegrityConstraint::new`] enforces this, while
//! [`IntegrityConstraint::new_unchecked`] permits overlap so that the
//! paper's Example 5 (which needs overlapping conjuncts) is expressible.

use crate::error::{CoreError, Result};
use crate::ids::{ConjunctId, ItemId};
use crate::state::{DbState, ItemSet};
use crate::value::Value;
use std::fmt;

/// A term of the constraint language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Term {
    /// A constant (`5`, `"Jim"`, `true`).
    Const(Value),
    /// A variable: the current value of a data item.
    Var(ItemId),
    /// Integer addition.
    Add(Box<Term>, Box<Term>),
    /// Integer subtraction.
    Sub(Box<Term>, Box<Term>),
    /// Integer multiplication.
    Mul(Box<Term>, Box<Term>),
    /// Integer negation.
    Neg(Box<Term>),
    /// Integer absolute value (`|b|` in the paper's Example 2).
    Abs(Box<Term>),
    /// Binary minimum.
    Min(Box<Term>, Box<Term>),
    /// Binary maximum (the paper's example function `max`).
    Max(Box<Term>, Box<Term>),
}

impl Term {
    /// Integer constant shorthand.
    pub fn int(v: i64) -> Term {
        Term::Const(Value::Int(v))
    }

    /// String constant shorthand.
    pub fn str(s: &str) -> Term {
        Term::Const(Value::str(s))
    }

    /// Variable shorthand.
    pub fn var(item: ItemId) -> Term {
        Term::Var(item)
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // fluent builder, not operator overloading
    pub fn add(self, rhs: Term) -> Term {
        Term::Add(Box::new(self), Box::new(rhs))
    }

    /// `self − rhs`.
    #[allow(clippy::should_implement_trait)] // fluent builder, not operator overloading
    pub fn sub(self, rhs: Term) -> Term {
        Term::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self × rhs`.
    #[allow(clippy::should_implement_trait)] // fluent builder, not operator overloading
    pub fn mul(self, rhs: Term) -> Term {
        Term::Mul(Box::new(self), Box::new(rhs))
    }

    /// `−self`.
    #[allow(clippy::should_implement_trait)] // fluent builder, not operator overloading
    pub fn neg(self) -> Term {
        Term::Neg(Box::new(self))
    }

    /// `|self|`.
    pub fn abs(self) -> Term {
        Term::Abs(Box::new(self))
    }

    /// `min(self, rhs)`.
    pub fn min(self, rhs: Term) -> Term {
        Term::Min(Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)`.
    pub fn max(self, rhs: Term) -> Term {
        Term::Max(Box::new(self), Box::new(rhs))
    }

    /// Evaluate under the assignment `state`.
    pub fn eval(&self, state: &DbState) -> Result<Value> {
        fn int_of(v: Value, context: &'static str) -> Result<i64> {
            v.as_int().ok_or(CoreError::TypeError {
                expected: "int",
                found: "non-int",
                context,
            })
        }
        match self {
            Term::Const(v) => Ok(v.clone()),
            Term::Var(item) => state.require(*item).cloned(),
            Term::Add(l, r) => {
                let (l, r) = (int_of(l.eval(state)?, "+")?, int_of(r.eval(state)?, "+")?);
                l.checked_add(r).map(Value::Int).ok_or(CoreError::Overflow)
            }
            Term::Sub(l, r) => {
                let (l, r) = (int_of(l.eval(state)?, "-")?, int_of(r.eval(state)?, "-")?);
                l.checked_sub(r).map(Value::Int).ok_or(CoreError::Overflow)
            }
            Term::Mul(l, r) => {
                let (l, r) = (int_of(l.eval(state)?, "*")?, int_of(r.eval(state)?, "*")?);
                l.checked_mul(r).map(Value::Int).ok_or(CoreError::Overflow)
            }
            Term::Neg(t) => {
                let v = int_of(t.eval(state)?, "neg")?;
                v.checked_neg().map(Value::Int).ok_or(CoreError::Overflow)
            }
            Term::Abs(t) => {
                let v = int_of(t.eval(state)?, "abs")?;
                v.checked_abs().map(Value::Int).ok_or(CoreError::Overflow)
            }
            Term::Min(l, r) => {
                let (l, r) = (
                    int_of(l.eval(state)?, "min")?,
                    int_of(r.eval(state)?, "min")?,
                );
                Ok(Value::Int(l.min(r)))
            }
            Term::Max(l, r) => {
                let (l, r) = (
                    int_of(l.eval(state)?, "max")?,
                    int_of(r.eval(state)?, "max")?,
                );
                Ok(Value::Int(l.max(r)))
            }
        }
    }

    /// Collect the data items (free variables) of the term into `out`.
    pub fn collect_vars(&self, out: &mut ItemSet) {
        match self {
            Term::Const(_) => {}
            Term::Var(item) => {
                out.insert(*item);
            }
            Term::Add(l, r)
            | Term::Sub(l, r)
            | Term::Mul(l, r)
            | Term::Min(l, r)
            | Term::Max(l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Term::Neg(t) | Term::Abs(t) => t.collect_vars(out),
        }
    }
}

/// Comparison operators of the constraint language.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl Cmp {
    /// Apply the comparison to two values. `=`/`≠` work on any equal
    /// types; the order comparisons require two ints or two strings.
    pub fn apply(self, l: &Value, r: &Value) -> Result<bool> {
        use std::cmp::Ordering;
        let ord = match (l, r) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => {
                return Err(CoreError::TypeError {
                    expected: "matching types",
                    found: "mixed types",
                    context: "comparison",
                })
            }
        };
        Ok(match self {
            Cmp::Eq => ord == Ordering::Equal,
            Cmp::Ne => ord != Ordering::Equal,
            Cmp::Lt => ord == Ordering::Less,
            Cmp::Le => ord != Ordering::Greater,
            Cmp::Gt => ord == Ordering::Greater,
            Cmp::Ge => ord != Ordering::Less,
        })
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Eq => "=",
            Cmp::Ne => "!=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A quantifier-free first-order formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Formula {
    /// Always true.
    True,
    /// Always false.
    False,
    /// An atomic comparison `t1 ⋈ t2`.
    Atom(Term, Cmp, Term),
    /// Conjunction of subformulae.
    And(Vec<Formula>),
    /// Disjunction of subformulae.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Implication `p → q` (the paper's Example 2 uses `a>0 → b>0`).
    Implies(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// `t1 = t2`.
    pub fn eq(l: Term, r: Term) -> Formula {
        Formula::Atom(l, Cmp::Eq, r)
    }

    /// `t1 ≠ t2`.
    pub fn ne(l: Term, r: Term) -> Formula {
        Formula::Atom(l, Cmp::Ne, r)
    }

    /// `t1 < t2`.
    pub fn lt(l: Term, r: Term) -> Formula {
        Formula::Atom(l, Cmp::Lt, r)
    }

    /// `t1 ≤ t2`.
    pub fn le(l: Term, r: Term) -> Formula {
        Formula::Atom(l, Cmp::Le, r)
    }

    /// `t1 > t2`.
    pub fn gt(l: Term, r: Term) -> Formula {
        Formula::Atom(l, Cmp::Gt, r)
    }

    /// `t1 ≥ t2`.
    pub fn ge(l: Term, r: Term) -> Formula {
        Formula::Atom(l, Cmp::Ge, r)
    }

    /// `p ∧ q ∧ …`.
    pub fn and(parts: Vec<Formula>) -> Formula {
        Formula::And(parts)
    }

    /// `p ∨ q ∨ …`.
    pub fn or(parts: Vec<Formula>) -> Formula {
        Formula::Or(parts)
    }

    /// `¬p`.
    #[allow(clippy::should_implement_trait)] // fluent builder, not operator overloading
    pub fn not(p: Formula) -> Formula {
        Formula::Not(Box::new(p))
    }

    /// `p → q`.
    pub fn implies(p: Formula, q: Formula) -> Formula {
        Formula::Implies(Box::new(p), Box::new(q))
    }

    /// Evaluate under `state`; errors if a needed item is unassigned.
    pub fn eval(&self, state: &DbState) -> Result<bool> {
        match self {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Atom(l, cmp, r) => cmp.apply(&l.eval(state)?, &r.eval(state)?),
            Formula::And(parts) => {
                for p in parts {
                    if !p.eval(state)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(parts) => {
                for p in parts {
                    if p.eval(state)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Not(p) => Ok(!p.eval(state)?),
            Formula::Implies(p, q) => Ok(!p.eval(state)? || q.eval(state)?),
        }
    }

    /// The set of data items the formula mentions.
    pub fn vars(&self) -> ItemSet {
        let mut out = ItemSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut ItemSet) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(l, _, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Formula::And(parts) | Formula::Or(parts) => {
                for p in parts {
                    p.collect_vars(out);
                }
            }
            Formula::Not(p) => p.collect_vars(out),
            Formula::Implies(p, q) => {
                p.collect_vars(out);
                q.collect_vars(out);
            }
        }
    }
}

/// One conjunct `C_e` of the integrity constraint, with its data set
/// `d_e` (= the formula's free variables) cached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Conjunct {
    id: ConjunctId,
    formula: Formula,
    items: ItemSet,
}

impl Conjunct {
    /// Wrap a formula as conjunct number `id`.
    pub fn new(id: u32, formula: Formula) -> Conjunct {
        let items = formula.vars();
        Conjunct {
            id: ConjunctId(id),
            formula,
            items,
        }
    }

    /// The conjunct's identifier.
    pub fn id(&self) -> ConjunctId {
        self.id
    }

    /// The conjunct's formula `C_e`.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// The data set `d_e` over which the conjunct is defined.
    pub fn items(&self) -> &ItemSet {
        &self.items
    }

    /// Evaluate `C_e` under `state`.
    pub fn eval(&self, state: &DbState) -> Result<bool> {
        self.formula.eval(state)
    }
}

/// The integrity constraint `IC = C_1 ∧ C_2 ∧ … ∧ C_l`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntegrityConstraint {
    conjuncts: Vec<Conjunct>,
    disjoint: bool,
}

impl IntegrityConstraint {
    /// Build an IC, **requiring** the conjunct data sets to be pairwise
    /// disjoint (the paper's standing assumption, needed by Lemma 1 and
    /// all three theorems).
    pub fn new(conjuncts: Vec<Conjunct>) -> Result<IntegrityConstraint> {
        if conjuncts.is_empty() {
            return Err(CoreError::EmptyConstraint);
        }
        for i in 0..conjuncts.len() {
            for j in (i + 1)..conjuncts.len() {
                if let Some(item) = conjuncts[i].items().common_item(conjuncts[j].items()) {
                    return Err(CoreError::OverlappingConjuncts { item });
                }
            }
        }
        Ok(IntegrityConstraint {
            conjuncts,
            disjoint: true,
        })
    }

    /// Build an IC *without* the disjointness check — needed to express
    /// the paper's Example 5, which demonstrates that overlapping
    /// conjuncts break the theorems.
    pub fn new_unchecked(conjuncts: Vec<Conjunct>) -> Result<IntegrityConstraint> {
        if conjuncts.is_empty() {
            return Err(CoreError::EmptyConstraint);
        }
        let disjoint = {
            let mut ok = true;
            'outer: for i in 0..conjuncts.len() {
                for j in (i + 1)..conjuncts.len() {
                    if !conjuncts[i].items().is_disjoint(conjuncts[j].items()) {
                        ok = false;
                        break 'outer;
                    }
                }
            }
            ok
        };
        Ok(IntegrityConstraint {
            conjuncts,
            disjoint,
        })
    }

    /// Are the conjunct data sets pairwise disjoint?
    pub fn is_disjoint(&self) -> bool {
        self.disjoint
    }

    /// The conjuncts `C_1 … C_l`.
    pub fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// `l`, the number of conjuncts.
    pub fn len(&self) -> usize {
        self.conjuncts.len()
    }

    /// Always false: a constructed IC has at least one conjunct.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// The union `d_1 ∪ … ∪ d_l` of all constrained items.
    pub fn all_items(&self) -> ItemSet {
        let mut out = ItemSet::new();
        for c in &self.conjuncts {
            out = out.union(c.items());
        }
        out
    }

    /// The projection scopes `d_1 … d_l`: one conjunct data set per
    /// projection, Definition 2's decomposition — what the monitors
    /// certify and recovery replays over.
    pub fn scopes(&self) -> Vec<ItemSet> {
        self.conjuncts.iter().map(|c| c.items().clone()).collect()
    }

    /// The conjunct whose data set contains `item` (the first match if
    /// conjuncts overlap), if any.
    pub fn conjunct_of(&self, item: ItemId) -> Option<&Conjunct> {
        self.conjuncts.iter().find(|c| c.items().contains(item))
    }

    /// Every conjunct containing `item` (≥ 2 only when overlapping).
    pub fn conjuncts_of(&self, item: ItemId) -> impl Iterator<Item = &Conjunct> + '_ {
        self.conjuncts
            .iter()
            .filter(move |c| c.items().contains(item))
    }

    /// `DS ⊨ IC`: evaluate the whole conjunction on a state that must
    /// assign every constrained item.
    pub fn eval(&self, state: &DbState) -> Result<bool> {
        for c in &self.conjuncts {
            if !c.eval(state)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> ItemId {
        ItemId(n)
    }

    fn st(pairs: &[(u32, i64)]) -> DbState {
        DbState::from_pairs(pairs.iter().map(|&(i, v)| (id(i), Value::Int(v))))
    }

    #[test]
    fn term_arithmetic() {
        let s = st(&[(0, 3), (1, -4)]);
        let t = Term::var(id(0)).add(Term::var(id(1)).abs()); // 3 + |−4| = 7
        assert_eq!(t.eval(&s).unwrap(), Value::Int(7));
        let t = Term::var(id(0)).mul(Term::int(2)).sub(Term::int(1)); // 3*2−1
        assert_eq!(t.eval(&s).unwrap(), Value::Int(5));
        let t = Term::var(id(0)).min(Term::var(id(1))).max(Term::int(-10));
        assert_eq!(t.eval(&s).unwrap(), Value::Int(-4));
        assert_eq!(Term::var(id(1)).neg().eval(&s).unwrap(), Value::Int(4));
    }

    #[test]
    fn term_missing_var() {
        let s = st(&[]);
        assert!(matches!(
            Term::var(id(0)).eval(&s),
            Err(CoreError::MissingItem(_))
        ));
    }

    #[test]
    fn term_type_error() {
        let mut s = DbState::new();
        s.set(id(0), Value::str("x"));
        let t = Term::var(id(0)).add(Term::int(1));
        assert!(matches!(t.eval(&s), Err(CoreError::TypeError { .. })));
    }

    #[test]
    fn term_overflow() {
        let s = st(&[(0, i64::MAX)]);
        let t = Term::var(id(0)).add(Term::int(1));
        assert_eq!(t.eval(&s), Err(CoreError::Overflow));
    }

    #[test]
    fn comparisons() {
        assert!(Cmp::Lt.apply(&Value::Int(1), &Value::Int(2)).unwrap());
        assert!(Cmp::Ge.apply(&Value::Int(2), &Value::Int(2)).unwrap());
        assert!(Cmp::Eq
            .apply(&Value::str("Jim"), &Value::str("Jim"))
            .unwrap());
        assert!(Cmp::Lt.apply(&Value::str("a"), &Value::str("b")).unwrap());
        assert!(Cmp::Eq.apply(&Value::Int(1), &Value::str("1")).is_err());
    }

    #[test]
    fn paper_ic_a_eq_b() {
        // §2.1 example: IC = (a=b); DS1={(a,5),(b,5)} consistent,
        // DS2={(a,5),(b,6)} not.
        let ic = Formula::eq(Term::var(id(0)), Term::var(id(1)));
        assert!(ic.eval(&st(&[(0, 5), (1, 5)])).unwrap());
        assert!(!ic.eval(&st(&[(0, 5), (1, 6)])).unwrap());
    }

    #[test]
    fn implication_and_vars() {
        // Example 2's C1 = (a>0 → b>0).
        let c1 = Formula::implies(
            Formula::gt(Term::var(id(0)), Term::int(0)),
            Formula::gt(Term::var(id(1)), Term::int(0)),
        );
        assert!(c1.eval(&st(&[(0, -1), (1, -1)])).unwrap()); // vacuous
        assert!(!c1.eval(&st(&[(0, 1), (1, -1)])).unwrap());
        assert!(c1.eval(&st(&[(0, 1), (1, 1)])).unwrap());
        let vars = c1.vars();
        assert!(vars.contains(id(0)) && vars.contains(id(1)) && vars.len() == 2);
    }

    #[test]
    fn and_or_not_shortcircuit() {
        let f = Formula::or(vec![
            Formula::True,
            // Would error if evaluated (missing item).
            Formula::gt(Term::var(id(9)), Term::int(0)),
        ]);
        assert!(f.eval(&DbState::new()).unwrap());
        let f = Formula::and(vec![
            Formula::False,
            Formula::gt(Term::var(id(9)), Term::int(0)),
        ]);
        assert!(!f.eval(&DbState::new()).unwrap());
        let f = Formula::not(Formula::False);
        assert!(f.eval(&DbState::new()).unwrap());
    }

    #[test]
    fn disjoint_ic_accepted() {
        let c1 = Conjunct::new(0, Formula::gt(Term::var(id(0)), Term::int(0)));
        let c2 = Conjunct::new(1, Formula::gt(Term::var(id(1)), Term::int(0)));
        let ic = IntegrityConstraint::new(vec![c1, c2]).unwrap();
        assert!(ic.is_disjoint());
        assert_eq!(ic.len(), 2);
        assert_eq!(ic.conjunct_of(id(1)).unwrap().id(), ConjunctId(1));
        assert!(ic.conjunct_of(id(7)).is_none());
    }

    #[test]
    fn overlapping_ic_rejected_by_checked_ctor() {
        // Example 5 conjuncts (a>b) and (a=c) share item a.
        let c1 = Conjunct::new(0, Formula::gt(Term::var(id(0)), Term::var(id(1))));
        let c2 = Conjunct::new(1, Formula::eq(Term::var(id(0)), Term::var(id(2))));
        let err = IntegrityConstraint::new(vec![c1.clone(), c2.clone()]).unwrap_err();
        assert!(matches!(err, CoreError::OverlappingConjuncts { item } if item == id(0)));
        let ic = IntegrityConstraint::new_unchecked(vec![c1, c2]).unwrap();
        assert!(!ic.is_disjoint());
        assert_eq!(ic.conjuncts_of(id(0)).count(), 2);
        // One scope per conjunct, in order, overlap kept.
        assert_eq!(
            ic.scopes(),
            [
                ItemSet::from_iter([id(0), id(1)]),
                ItemSet::from_iter([id(0), id(2)])
            ]
        );
    }

    #[test]
    fn empty_ic_rejected() {
        assert!(matches!(
            IntegrityConstraint::new(vec![]),
            Err(CoreError::EmptyConstraint)
        ));
    }

    #[test]
    fn ic_eval_conjunction() {
        let c1 = Conjunct::new(0, Formula::gt(Term::var(id(0)), Term::int(0)));
        let c2 = Conjunct::new(1, Formula::gt(Term::var(id(1)), Term::int(0)));
        let ic = IntegrityConstraint::new(vec![c1, c2]).unwrap();
        assert!(ic.eval(&st(&[(0, 1), (1, 1)])).unwrap());
        assert!(!ic.eval(&st(&[(0, 1), (1, -1)])).unwrap());
        assert_eq!(ic.all_items().len(), 2);
    }
}
