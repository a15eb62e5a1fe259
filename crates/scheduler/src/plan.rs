//! Access plans: predicted operation structures.
//!
//! Early per-conjunct lock release needs to know that a transaction
//! will not touch a conjunct again. For **fixed-structure** programs
//! (Definition 3) the operation structure is state-independent, so one
//! probe execution yields an *exact* plan; for anything else no sound
//! plan exists and the executor holds locks to transaction end. This is
//! a pleasing operational echo of Theorem 1: the programs whose locks
//! can be released early are exactly the programs for which PWSR is
//! safe.

use pwsr_core::catalog::Catalog;
use pwsr_core::op::OpStruct;
use pwsr_core::state::DbState;
use pwsr_tplang::analysis::{static_structure, structure_of};
use pwsr_tplang::ast::Program;

/// The access plan for `program`: its (state-independent) operation
/// structure, exact for programs the static prover certifies as
/// fixed-structure; `None` for the rest.
pub fn access_plan(program: &Program, catalog: &Catalog) -> Option<Vec<OpStruct>> {
    if !static_structure(program, catalog).is_fixed() {
        return None;
    }
    // Fixed structure: any total probe state gives the plan.
    let mut probe = DbState::new();
    for item in catalog.items() {
        probe.set(item, catalog.domain(item).any_value());
    }
    structure_of(program, catalog, &probe).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::op::Action;
    use pwsr_core::value::Domain;
    use pwsr_tplang::parser::parse_program;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for n in ["a", "b", "c"] {
            cat.add_item(n, Domain::int_range(-5, 5));
        }
        cat
    }

    #[test]
    fn fixed_program_gets_exact_plan() {
        let cat = catalog();
        let p = parse_program("P", "b := c - 1;").unwrap();
        let plan = access_plan(&p, &cat).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].action, Action::Read);
        assert_eq!(plan[1].action, Action::Write);
    }

    #[test]
    fn non_fixed_program_gets_none() {
        let cat = catalog();
        let p = parse_program("P", "if (c > 0) then b := 1;").unwrap();
        assert!(access_plan(&p, &cat).is_none());
    }

    #[test]
    fn plan_matches_every_state_for_fixed_programs() {
        // The plan equals the structure from *any* state.
        let cat = catalog();
        let p = parse_program("P", "if (c > 0) then { b := 1; } else { b := 2; }").unwrap();
        let plan = access_plan(&p, &cat).unwrap();
        use pwsr_core::value::Value;
        for cv in [-2i64, 0, 2] {
            let st = DbState::from_pairs([
                (cat.lookup("c").unwrap(), Value::Int(cv)),
                (cat.lookup("b").unwrap(), Value::Int(0)),
            ]);
            assert_eq!(structure_of(&p, &cat, &st).unwrap(), plan);
        }
    }
}
