//! Multidatabase (MDBS) simulation — the §4 application.
//!
//! *"Since each local DBMS ensures serializability of its local
//! schedule, the resulting global schedule is PWSR, where the data
//! items in each conjunct are disjoint. Thus, the results of this paper
//! are directly applicable to such MDBS environments."*
//!
//! The simulation: `k` autonomous sites, each owning a disjoint item
//! set with a purely local integrity constraint; every site runs local
//! strict two-phase locking (a lock space per site) with **no global
//! coordination**. Local transactions touch one site; global
//! transactions span several. The emitted global schedule is PWSR over
//! the site partition by construction; whether it is *strongly correct*
//! is exactly what Theorems 1–3 decide — which this module reports.

use crate::error::Result;
use crate::exec::{run_workload, ExecConfig, ExecOutcome};
use crate::policy::PolicySpec;
use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::IntegrityConstraint;
use pwsr_core::ids::ItemId;
use pwsr_core::serializability::{is_conflict_serializable, is_conflict_serializable_proj};
use pwsr_core::state::{DbState, ItemSet};
use pwsr_tplang::ast::Program;
use std::collections::HashMap;

/// One autonomous site: the items it owns.
#[derive(Clone, Debug)]
pub struct Site {
    /// The items stored at this site (must be disjoint across sites).
    pub(crate) items: ItemSet,
}

impl Site {
    /// A site owning `items`.
    pub fn new(items: ItemSet) -> Site {
        Site { items }
    }
}

/// Result of an MDBS run.
#[derive(Clone, Debug)]
pub struct MdbsOutcome {
    /// The global execution (committed schedule + metrics).
    pub exec: ExecOutcome,
    /// Per site: is the local projection conflict-serializable?
    /// (Always true under per-site strict 2PL; asserted, not assumed.)
    pub(crate) local_serializable: Vec<bool>,
    /// Is the *global* schedule conflict-serializable? Typically false
    /// once global transactions interleave — the point of the exercise.
    pub globally_serializable: bool,
}

impl MdbsOutcome {
    /// Local serializability everywhere (the autonomy guarantee).
    pub fn all_locals_serializable(&self) -> bool {
        self.local_serializable.iter().all(|&b| b)
    }
}

/// Run programs against an MDBS with per-site strict 2PL. The sites'
/// item sets must be pairwise disjoint. `ic` should contain one
/// conjunct per site (local constraints only) for the PWSR reading to
/// line up with the site partition, but any constraint is accepted.
pub fn run_mdbs(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    sites: &[Site],
    early_release: bool,
    cfg: &ExecConfig,
) -> Result<MdbsOutcome> {
    let mut table: HashMap<ItemId, crate::lock::SpaceId> = HashMap::new();
    for (k, site) in sites.iter().enumerate() {
        for item in site.items.iter() {
            table.insert(item, crate::lock::SpaceId(k as u32));
        }
    }
    let mut policy = PolicySpec::from_table("MDBS", table, sites.len() as u32);
    policy.early_release = early_release;
    let exec = run_workload(programs, catalog, initial, &policy, cfg)?;
    let local_serializable = sites
        .iter()
        .map(|site| is_conflict_serializable_proj(&exec.schedule, &site.items))
        .collect();
    let globally_serializable = is_conflict_serializable(&exec.schedule);
    Ok(MdbsOutcome {
        exec,
        local_serializable,
        globally_serializable,
    })
}

/// Convenience: does the global schedule satisfy PWSR for the given
/// (site-aligned) constraint?
pub fn is_globally_pwsr(outcome: &MdbsOutcome, ic: &IntegrityConstraint) -> bool {
    pwsr_core::pwsr::is_pwsr(&outcome.exec.schedule, ic).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::constraint::{Conjunct, Formula, Term};
    use pwsr_core::value::{Domain, Value};
    use pwsr_tplang::parser::parse_program;

    /// Two sites: site 0 owns {x0, y0} with x0 ≤ y0; site 1 owns
    /// {x1, y1} with x1 ≤ y1.
    fn setup() -> (Catalog, IntegrityConstraint, Vec<Site>, DbState) {
        let mut cat = Catalog::new();
        let x0 = cat.add_item("x0", Domain::int_range(-100, 100));
        let y0 = cat.add_item("y0", Domain::int_range(-100, 100));
        let x1 = cat.add_item("x1", Domain::int_range(-100, 100));
        let y1 = cat.add_item("y1", Domain::int_range(-100, 100));
        let ic = IntegrityConstraint::new(vec![
            Conjunct::new(0, Formula::le(Term::var(x0), Term::var(y0))),
            Conjunct::new(1, Formula::le(Term::var(x1), Term::var(y1))),
        ])
        .unwrap();
        let sites = vec![
            Site::new(ItemSet::from_iter([x0, y0])),
            Site::new(ItemSet::from_iter([x1, y1])),
        ];
        let initial = DbState::from_pairs([
            (x0, Value::Int(0)),
            (y0, Value::Int(10)),
            (x1, Value::Int(0)),
            (y1, Value::Int(10)),
        ]);
        (cat, ic, sites, initial)
    }

    /// Two global transactions and two local ones.
    fn mixed_programs() -> Vec<Program> {
        vec![
            parse_program("G1", "x0 := x0 + 1; x1 := x1 + 1;").unwrap(),
            parse_program("G2", "y1 := y1 + 1; y0 := y0 + 1;").unwrap(),
            parse_program("L0", "x0 := x0 + 1;").unwrap(),
            parse_program("L1", "y1 := y1 + 2;").unwrap(),
        ]
    }

    #[test]
    fn locals_always_serializable_global_pwsr() {
        let (cat, ic, sites, initial) = setup();
        let programs = mixed_programs();
        for seed in 0..25 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out = run_mdbs(&programs, &cat, &initial, &sites, true, &cfg).unwrap();
            assert!(out.all_locals_serializable(), "seed {seed}");
            assert!(is_globally_pwsr(&out, &ic), "seed {seed}");
            out.exec.schedule.check_read_coherence(&initial).unwrap();
        }
    }

    #[test]
    fn global_serializability_can_fail_while_pwsr_holds() {
        // With early release, global transactions can interleave so
        // that the global conflict graph is cyclic across sites. Find
        // at least one seed where the global schedule is NOT CSR even
        // though every local projection is.
        let (cat, ic, sites, initial) = setup();
        let programs = vec![
            parse_program("G1", "x0 := x0 + 1; t := y1; x1 := t + 1;").unwrap(),
            parse_program("G2", "x1 := x1 + 5; u := y0; x0 := u + 5;").unwrap(),
        ];
        let mut saw_non_csr = false;
        for seed in 0..200 {
            let cfg = ExecConfig {
                seed,
                ..ExecConfig::default()
            };
            let out = run_mdbs(&programs, &cat, &initial, &sites, true, &cfg).unwrap();
            assert!(out.all_locals_serializable());
            assert!(is_globally_pwsr(&out, &ic));
            if !out.globally_serializable {
                saw_non_csr = true;
                break;
            }
        }
        assert!(
            saw_non_csr,
            "expected some interleaving to break global serializability"
        );
    }

    #[test]
    fn final_state_reflects_all_commits() {
        let (cat, _ic, sites, initial) = setup();
        let programs = mixed_programs();
        let out = run_mdbs(
            &programs,
            &cat,
            &initial,
            &sites,
            false,
            &ExecConfig::default(),
        )
        .unwrap();
        // x0: +1 (G1) +1 (L0) = 2.
        assert_eq!(
            out.exec.final_state.get(cat.lookup("x0").unwrap()),
            Some(&Value::Int(2))
        );
        // y1: +1 (G2) +2 (L1) = 13.
        assert_eq!(
            out.exec.final_state.get(cat.lookup("y1").unwrap()),
            Some(&Value::Int(13))
        );
    }
}
