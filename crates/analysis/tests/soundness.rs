//! Soundness harness for the static analyzer: over random small
//! workloads, a `Safe` verdict must agree with **exhaustive**
//! enumeration of every interleaving (zero breaches at the analyzed
//! level), and every `Unsafe` verdict must carry a counterexample that
//! actually breaches. `Unknown` asserts nothing — that is its meaning.
//! Breaches are decided by the order verifier ([`pwsr_core::verify`]),
//! which shares no code with the monitor `analyze` searches with.

use proptest::prelude::*;
use pwsr_analysis::{analyze, AnalyzerConfig, StaticSafety};
use pwsr_core::catalog::Catalog;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::ids::TxnId;
use pwsr_core::monitor::AdmissionLevel;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::{DbState, ItemSet};
use pwsr_core::value::{Domain, Value};
use pwsr_core::verify::verify;
use pwsr_gen::chaos::enumerate_executions;
use pwsr_tplang::ast::Program;
use pwsr_tplang::parser::parse_program;

/// Two conjunct scopes over four items (mirrors the scheduler's test
/// fixture: d0 = {a0, b0}, d1 = {a1, b1}).
fn setup() -> (Catalog, Vec<ItemSet>, DbState) {
    let mut cat = Catalog::new();
    let a0 = cat.add_item("a0", Domain::int_range(-100_000, 100_000));
    let b0 = cat.add_item("b0", Domain::int_range(-100_000, 100_000));
    let a1 = cat.add_item("a1", Domain::int_range(-100_000, 100_000));
    let b1 = cat.add_item("b1", Domain::int_range(-100_000, 100_000));
    let scopes = vec![ItemSet::from_iter([a0, b0]), ItemSet::from_iter([a1, b1])];
    let initial = DbState::from_pairs([
        (a0, Value::Int(1)),
        (b0, Value::Int(10)),
        (a1, Value::Int(1)),
        (b1, Value::Int(10)),
    ]);
    (cat, scopes, initial)
}

/// Small single-write program bodies (≤ 4 operations each, no double
/// writes) spanning the interesting shapes: blind writes, RMWs,
/// cross-item and cross-conjunct reads, and a state-dependent branch.
const POOL: &[&str] = &[
    "a0 := a0 + 1;",
    "b0 := 1;",
    "b0 := a0 + 1;",
    "a1 := a1 + 2;",
    "b1 := a1 + 1;",
    "touch a0;",
    "a1 := 5;",
    "if (a0 > 0) then { b0 := 2; } else { b0 := 3; }",
    "a0 := b1 + 1;",
];

fn programs_from(picks: &[usize]) -> Vec<Program> {
    picks
        .iter()
        .enumerate()
        .map(|(k, &i)| parse_program(&format!("P{k}"), POOL[i]).unwrap())
        .collect()
}

/// Does some order of the transactions of `s` pass the verifier on
/// `scope`? Every sequence of `n` of the `n` transactions is tried —
/// at most three, so at most 27 — and one that lists a transaction
/// twice is refused, so exactly the permutations can pass.
fn some_order(s: &Schedule, scope: Option<&ItemSet>) -> bool {
    let (ids, n) = (s.txn_ids(), s.txn_ids().len());
    let sequence = |k: usize| {
        (0..n)
            .map(|i| ids[k / n.pow(i as u32) % n])
            .collect::<Vec<_>>()
    };
    (0..n.pow(n as u32)).any(|k| verify(s, scope, &sequence(k)).is_ok())
}

/// Does `s` fall below `level`? A rung holds when each projection it
/// protects has an order that passes the verifier, and at `PwsrDr` no
/// read is dirty.
fn breaches(s: &Schedule, scopes: &[ItemSet], level: AdmissionLevel) -> bool {
    let pwsr = || scopes.iter().all(|d| some_order(s, Some(d)));
    !match level {
        AdmissionLevel::Serializable => some_order(s, None),
        AdmissionLevel::Pwsr => pwsr(),
        AdmissionLevel::PwsrDr => pwsr() && is_delayed_read(s),
    }
}

const LEVELS: [AdmissionLevel; 3] = [
    AdmissionLevel::Serializable,
    AdmissionLevel::Pwsr,
    AdmissionLevel::PwsrDr,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Safe(level)` ⇒ no interleaving breaches `level`; `Unsafe` ⇒
    /// the carried counterexample breaches, by the verifier.
    #[test]
    fn safe_never_coexists_with_a_breach(
        picks in proptest::collection::vec(0usize..POOL.len(), 1..=3),
        lvl in 0usize..3,
    ) {
        let (cat, scopes, initial) = setup();
        let programs = programs_from(&picks);
        let level = LEVELS[lvl];
        let cfg = AnalyzerConfig {
            enumeration_cap: 60_000,
            random_trials: 32,
            seed: 7,
        };
        let analysis = analyze(&programs, &cat, &scopes, &initial, level, &cfg);

        // Independent oracle: every complete interleaving, verified.
        let all = enumerate_executions(&programs, &cat, &initial, 60_000)
            .unwrap()
            .expect("pool workloads stay under the enumeration cap");
        let any_breach = all.iter().any(|s| breaches(s, &scopes, level));

        match &analysis.safety {
            StaticSafety::Safe(witness) => {
                prop_assert!(
                    !any_breach,
                    "Safe({witness:?}) but a breaching interleaving exists: {picks:?} @ {level:?}"
                );
            }
            StaticSafety::Unsafe(cex) => {
                prop_assert!(!cex.verdict.meets(level));
                // Re-confirm independently: the schedule really is an
                // execution, and really breaches.
                cex.schedule.check_read_coherence(&initial).unwrap();
                prop_assert!(breaches(&cex.schedule, &scopes, level));
                prop_assert!(any_breach, "the oracle must agree a breach exists");
            }
            StaticSafety::Unknown => {
                // Unknown promises nothing — but with the oracle in
                // hand we can at least confirm the analyzer did not
                // miss a *trivially* certifiable case.
                prop_assert!(!all.is_empty());
            }
        }
    }

    /// The certified subset composes: running **only** the certified
    /// programs (their component is conflict-closed) can never breach
    /// the level, under any interleaving — even when the full mix was
    /// `Unsafe` or `Unknown`.
    #[test]
    fn certified_components_are_robust_in_isolation(
        picks in proptest::collection::vec(0usize..POOL.len(), 1..=3),
        lvl in 0usize..3,
    ) {
        let (cat, scopes, initial) = setup();
        let programs = programs_from(&picks);
        let level = LEVELS[lvl];
        let cfg = AnalyzerConfig {
            enumeration_cap: 60_000,
            random_trials: 32,
            seed: 11,
        };
        let analysis = analyze(&programs, &cat, &scopes, &initial, level, &cfg);
        let certified: Vec<Program> = programs
            .iter()
            .enumerate()
            .filter(|(k, _)| analysis.certified().contains(&TxnId(*k as u32 + 1)))
            .map(|(_, p)| p.clone())
            .collect();
        prop_assume!(!certified.is_empty());
        let all = enumerate_executions(&certified, &cat, &initial, 60_000)
            .unwrap()
            .expect("sub-mixes stay under the enumeration cap");
        for s in &all {
            prop_assert!(
                !breaches(s, &scopes, level),
                "certified sub-mix breached {level:?}: {picks:?}"
            );
        }
    }
}
