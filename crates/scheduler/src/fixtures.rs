//! What the unit tests of several modules start from.

use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
use pwsr_core::state::DbState;
use pwsr_core::value::{Domain, Value};

/// Two conjuncts: C0 over {a0, b0}, C1 over {a1, b1}.
pub(crate) fn setup() -> (Catalog, IntegrityConstraint, DbState) {
    let mut cat = Catalog::new();
    let a0 = cat.add_item("a0", Domain::int_range(-100, 100));
    let b0 = cat.add_item("b0", Domain::int_range(-100, 100));
    let a1 = cat.add_item("a1", Domain::int_range(-100, 100));
    let b1 = cat.add_item("b1", Domain::int_range(-100, 100));
    let ic = IntegrityConstraint::new(vec![
        Conjunct::new(0, Formula::le(Term::var(a0), Term::var(b0))),
        Conjunct::new(1, Formula::le(Term::var(a1), Term::var(b1))),
    ])
    .unwrap();
    let initial = DbState::from_pairs([
        (a0, Value::Int(0)),
        (b0, Value::Int(10)),
        (a1, Value::Int(0)),
        (b1, Value::Int(10)),
    ]);
    (cat, ic, initial)
}
