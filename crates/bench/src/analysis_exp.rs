//! AN-1: the static robustness analyzer and its certified admission
//! fast path.
//!
//! Three workloads exercise the analyzer's whole verdict lattice:
//!
//! * **Safe** — blind-write chains ([`analyzer_workload`]): the
//!   static mixed conflict graph is a forest and no program reads, so
//!   the analyzer proves robustness at `PwsrDr` structurally
//!   (`Safe(Forest)`) and certifies every program.
//! * **Unsafe** — the same chains plus contended read-modify-write
//!   pairs: the pairs are refuted with a monitor-confirmed
//!   lost-update counterexample, while the chains survive as the
//!   certified remainder of the mixed workload.
//! * **Unknown** — single-write writer/reader pairs: robust in fact
//!   (a 1-op writer never materializes a dirty read; one conflict
//!   edge can never cycle), but the cross reads-from defeats the
//!   structural DR proof and the interleaving space defeats the
//!   enumeration budget — `Unknown`, never a false `Unsafe`.
//!
//! The fast-path check then replays an execution of the safe workload
//! through `MonitorAdmission` twice: once monitored (probe + monitor
//! push per op) and once carrying the analyzer's
//! [`StaticCertificate`] (probe = certificate lookup, observe =
//! counter bump — no monitor state at all). The shape check asserts
//! both paths admit everything (the workload is *statically* safe, so
//! every interleaving is admissible) and that the certified path
//! really bypasses the monitor: every operation is counted as skipped
//! and the monitor behind the admission stays empty. What the bypass
//! saves in time is `benchmark/`'s question.
//!
//! [`StaticCertificate`]: pwsr_scheduler::policy::StaticCertificate

use crate::report::Table;
use pwsr_analysis::{
    analyze_constraint, AnalyzerConfig, SafetyWitness, StaticSafety, WorkloadAnalysis,
};
use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
use pwsr_core::monitor::AdmissionLevel;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::DbState;
use pwsr_core::value::{Domain, Value};
use pwsr_gen::chaos::random_execution;
use pwsr_gen::workloads::{analyzer_workload, AnalyzerWorkloadConfig, Workload};
use pwsr_scheduler::policy::{MonitorAdmission, MonitorSpec};
use pwsr_tplang::ast::Program;
use pwsr_tplang::parser::parse_program;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The provably-safe fixture: 8 conjuncts × 16-program blind-write
/// chains (128 programs, 256-op executions), analyzed at
/// `PwsrDr`, plus one random execution of the workload.
pub fn certified_fixture(seed: u64) -> (Workload, WorkloadAnalysis, Schedule) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = analyzer_workload(
        &mut rng,
        &AnalyzerWorkloadConfig {
            conjuncts: 8,
            chain_len: 16,
            tangled_pairs: 0,
            domain_width: 100,
        },
    );
    let analysis = analyze_constraint(
        &w.programs,
        &w.catalog,
        &w.ic,
        &w.initial,
        AdmissionLevel::PwsrDr,
        &AnalyzerConfig::default(),
    );
    let trace =
        random_execution(&w.programs, &w.catalog, &w.initial, &mut rng).expect("chains execute");
    (w, analysis, trace)
}

/// A workload that is robust in fact but provably so by neither the
/// structural criterion nor bounded enumeration: `pairs` disjoint
/// (1-op writer, reader) couples. The writer's write is its last
/// operation, so a dirty read can never materialize, and a single
/// conflict edge can never close a cycle — yet `writes ∩ reads ≠ ∅`
/// defeats the static DR condition and the interleaving space defeats
/// the cap. The analyzer must answer `Unknown`.
fn unknown_workload(pairs: usize) -> (Catalog, IntegrityConstraint, Vec<Program>, DbState) {
    let mut catalog = Catalog::new();
    let mut conjuncts = Vec::new();
    let mut initial = DbState::new();
    let mut programs = Vec::new();
    for p in 0..pairs {
        let a = catalog.add_item(&format!("a{p}"), Domain::int_range(-1000, 1000));
        let b = catalog.add_item(&format!("b{p}"), Domain::int_range(-1000, 1000));
        conjuncts.push(Conjunct::new(
            p as u32,
            Formula::le(Term::var(a), Term::var(b)),
        ));
        initial.set(a, Value::Int(0));
        initial.set(b, Value::Int(100));
        programs.push(parse_program(&format!("W{p}"), &format!("a{p} := 7;")).unwrap());
        programs.push(parse_program(&format!("R{p}"), &format!("b{p} := a{p} + 90;")).unwrap());
    }
    let ic = IntegrityConstraint::new(conjuncts).expect("per-pair scopes disjoint");
    (catalog, ic, programs, initial)
}

/// Run the analyzer portfolio and the fast-path comparison. `trials`
/// (0 = 5) is how many times the trace is replayed through the one
/// certified admission: its steady state keeps no monitor state, so
/// nothing may accumulate across passes. Shape: the 128 + 20 + 12
/// programs resolve `Safe(Forest)` / `Unsafe` / `Unknown` with the
/// certified and monitored splits below, and both admission paths
/// admit everything, the certified one with the monitor bypassed.
pub fn an1(trials: u64, seed: u64) -> (bool, String) {
    let reps = if trials == 0 { 5 } else { trials };
    let level = AdmissionLevel::PwsrDr;
    let cfg = AnalyzerConfig::default();
    let mut ok = true;
    let mut verdicts = Table::new(
        "AN-1  Static robustness verdicts (analyzed at PwsrDr)",
        &["workload", "programs", "verdict", "certified", "monitored"],
    );

    // (a) Provably safe: blind-write chains, forest conflict graph.
    let (safe_w, safe_a, trace) = certified_fixture(seed);
    let forest = matches!(
        safe_a.safety,
        StaticSafety::Safe(SafetyWitness::Forest { .. })
    );
    ok &= forest && safe_w.programs.len() == 128;
    ok &= safe_a.certified().len() == safe_w.programs.len();
    verdicts.row(&[
        "chains".to_owned(),
        safe_w.programs.len().to_string(),
        verdict_name(&safe_a.safety).to_owned(),
        safe_a.certified().len().to_string(),
        safe_a.monitored().len().to_string(),
    ]);

    // (b) Refutable: chains plus contended read-modify-write pairs —
    // Unsafe overall (confirmed lost update), chains still certified.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFE);
    let mixed_w = analyzer_workload(
        &mut rng,
        &AnalyzerWorkloadConfig {
            conjuncts: 4,
            chain_len: 4,
            tangled_pairs: 2,
            domain_width: 100,
        },
    );
    let mixed_a = analyze_constraint(
        &mixed_w.programs,
        &mixed_w.catalog,
        &mixed_w.ic,
        &mixed_w.initial,
        level,
        &cfg,
    );
    let refuted = match &mixed_a.safety {
        StaticSafety::Unsafe(cex) => !cex.verdict.meets(level),
        _ => false,
    };
    ok &= refuted && mixed_w.programs.len() == 20;
    ok &= mixed_a.certified().len() == 16 && mixed_a.monitored().len() == 4;
    verdicts.row(&[
        "chains+tangles".to_owned(),
        mixed_w.programs.len().to_string(),
        verdict_name(&mixed_a.safety).to_owned(),
        mixed_a.certified().len().to_string(),
        mixed_a.monitored().len().to_string(),
    ]);

    // (c) Robust but unprovable within budget: Unknown, never a false
    // alarm.
    let (u_cat, u_ic, u_programs, u_initial) = unknown_workload(6);
    let u_a = analyze_constraint(&u_programs, &u_cat, &u_ic, &u_initial, level, &cfg);
    ok &= matches!(u_a.safety, StaticSafety::Unknown) && u_programs.len() == 12;
    verdicts.row(&[
        "writer/reader".to_owned(),
        u_programs.len().to_string(),
        verdict_name(&u_a.safety).to_owned(),
        u_a.certified().len().to_string(),
        u_a.monitored().len().to_string(),
    ]);

    // --- The certified fast path vs the monitored path --------------
    let n = trace.len();
    let cert = safe_a.certificate().expect("safe workload certifies");

    // Monitored: speculative probe + monitor push per op. A
    // statically-safe workload is admissible in EVERY interleaving —
    // the monitored run must never want to reject.
    let spec = MonitorSpec::new(safe_w.ic.scopes(), level);
    let mut adm = MonitorAdmission::new(&spec);
    let mut monitored_admits = true;
    for op in trace.ops() {
        monitored_admits &= adm.would_admit(op.txn, op.item, op.is_write());
        adm.push_logged(op);
    }
    ok &= monitored_admits;

    // Certified: probe = certificate lookup, observe = counter bump.
    // The certificate bypasses the monitor: every operation of every
    // pass is counted as skipped and the monitor stays empty.
    let mut fast = MonitorAdmission::new(&MonitorSpec {
        certificate: Some(cert),
        ..spec
    });
    let mut certified_admits = true;
    for _ in 0..reps {
        for op in trace.ops() {
            certified_admits &= fast.would_admit(op.txn, op.item, op.is_write());
            fast.observe(op);
        }
    }
    ok &= certified_admits;
    ok &= fast.skipped_ops() == (reps as usize * n) as u64 && fast.monitor().is_empty();

    let mut fastpath = Table::new(
        "AN-1  Admission paths on the certified workload",
        &[
            "path",
            "passes",
            "ops",
            "admitted",
            "monitored ops",
            "skipped ops",
        ],
    );
    fastpath.row(&[
        "monitored".to_owned(),
        "1".to_owned(),
        n.to_string(),
        monitored_admits.to_string(),
        adm.monitor().len().to_string(),
        adm.skipped_ops().to_string(),
    ]);
    fastpath.row(&[
        "certified-skip".to_owned(),
        reps.to_string(),
        n.to_string(),
        certified_admits.to_string(),
        fast.monitor().len().to_string(),
        fast.skipped_ops().to_string(),
    ]);

    let text = format!("{}\n{}", verdicts.render(), fastpath.render());
    (ok, text)
}

fn verdict_name(s: &StaticSafety) -> &'static str {
    match s {
        StaticSafety::Safe(SafetyWitness::Forest { .. }) => "Safe(Forest)",
        StaticSafety::Safe(SafetyWitness::Exhaustive { .. }) => "Safe(Exhaustive)",
        StaticSafety::Unsafe(_) => "Unsafe",
        StaticSafety::Unknown => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an1_portfolio_matches_expected_shape() {
        let (ok, text) = an1(1, 0xA11);
        assert!(ok, "{text}");
    }

    #[test]
    fn unknown_workload_is_actually_robust_on_samples() {
        // The `Unknown` fixture never breaches on sampled executions
        // (its robustness argument is in the constructor docs); spot-
        // check a handful of random interleavings through the monitor.
        use pwsr_core::monitor::OnlineMonitor;
        let (cat, ic, programs, initial) = unknown_workload(4);
        let scopes = ic.scopes();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let s = random_execution(&programs, &cat, &initial, &mut rng).unwrap();
            let mut m = OnlineMonitor::new(scopes.clone());
            let mut v = m.verdict();
            for op in s.ops() {
                v = m.push(op.clone()).unwrap();
            }
            assert!(v.pwsr() && v.dr, "the fixture must be robust at PwsrDr");
        }
    }
}
