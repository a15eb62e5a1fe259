//! Workload-level robustness analysis.
//!
//! [`analyze`] decides, before any transaction runs, whether a program
//! mix is **robust** at an [`AdmissionLevel`]: does *every*
//! interleaving of the programs land at or above the level? Three
//! verdicts:
//!
//! * [`StaticSafety::Safe`] — proven. Either structurally (the static
//!   conflict graph is a forest at the level — interleaving- and
//!   state-independent) or exhaustively (every interleaving from the
//!   given initial state was enumerated and replayed through the
//!   [`OnlineMonitor`] without a breach — initial-state-specific, the
//!   witness says which).
//! * [`StaticSafety::Unsafe`] — refuted by a **monitor-confirmed
//!   counterexample**: a concrete interleaving, replayed through the
//!   online monitor, that breaches the level. Never a false alarm —
//!   a footprint over-approximation alone is not grounds for
//!   `Unsafe`.
//! * [`StaticSafety::Unknown`] — the structural criterion failed and
//!   the interleaving space was too large to enumerate within the
//!   configured budget, and sampled executions found no breach.
//!   `Unknown` (like `Unsafe`) never means "will violate" — it means
//!   runtime certification is still required.
//!
//! Whatever the overall verdict, the analyzer also computes the
//! largest **certified subset**: the union of conflict-closed
//! components of the global conflict graph that are structurally safe
//! at the level. These transactions can skip runtime certification
//! even when the rest of the mix cannot — the mixed-workload fast
//! path ([`WorkloadAnalysis::certificate`] plugs straight into a
//! [`pwsr_scheduler::policy::MonitorSpec`]'s `certificate`).

use crate::graph::{has_cross_reads_from, has_cross_reads_from_within, StaticConflictGraph};
use pwsr_core::catalog::Catalog;
use pwsr_core::constraint::IntegrityConstraint;
use pwsr_core::ids::TxnId;
use pwsr_core::monitor::{AdmissionLevel, OnlineMonitor, Verdict};
use pwsr_core::schedule::Schedule;
use pwsr_core::state::{DbState, ItemSet};
use pwsr_gen::chaos::{enumerate_executions, random_execution};
use pwsr_scheduler::policy::StaticCertificate;
use pwsr_tplang::analysis::{rw_footprint, RwFootprint};
use pwsr_tplang::ast::Program;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Budgets for the dynamic (counterexample-guided) phase.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzerConfig {
    /// Give up exhaustive enumeration beyond this many interleavings
    /// (the partial enumeration is discarded — a sound `Safe` needs
    /// all of them).
    pub enumeration_cap: usize,
    /// Seeded random executions to sample for a counterexample when
    /// enumeration is out of budget.
    pub random_trials: usize,
    /// Seed for the sampling phase (the analyzer is deterministic).
    pub seed: u64,
}

impl Default for AnalyzerConfig {
    fn default() -> AnalyzerConfig {
        AnalyzerConfig {
            enumeration_cap: 20_000,
            random_trials: 256,
            seed: 0x5057_5352, // "PWSR"
        }
    }
}

/// Why a workload is safe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SafetyWitness {
    /// The static conflict graph is a forest at the level: no program
    /// pair carries two conflict instances and no simple cycle exists
    /// (per conjunct for PWSR levels, plus no cross reads-from for
    /// the DR level). Holds for **every** initial state.
    Forest {
        /// Conflict edges in the global graph.
        edges: usize,
        /// Conjunct scopes examined.
        conjuncts: usize,
    },
    /// Every interleaving from the analyzed initial state was
    /// enumerated and replayed through the monitor without a breach.
    /// Initial-state-specific: a different starting state may behave
    /// differently (branches can flip).
    Exhaustive {
        /// Number of complete interleavings replayed.
        interleavings: usize,
    },
}

/// A monitor-confirmed breach: the interleaving and the verdict its
/// replay produced.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The breaching interleaving.
    pub schedule: Schedule,
    /// The monitor's verdict over the full schedule.
    pub verdict: Verdict,
}

/// The analyzer's decision for one workload at one level.
#[derive(Clone, Debug)]
pub enum StaticSafety {
    /// Every interleaving holds the level (see the witness for the
    /// proof shape and its caveats).
    Safe(SafetyWitness),
    /// Some interleaving breaches the level — here is one, replayed
    /// through the monitor.
    Unsafe(Counterexample),
    /// Neither proven nor refuted within budget. Runtime
    /// certification remains necessary; this is *not* a prediction
    /// of violation.
    Unknown,
}

/// Everything [`analyze`] computed about one workload.
#[derive(Clone, Debug)]
pub struct WorkloadAnalysis {
    /// The level analyzed against.
    pub(crate) level: AdmissionLevel,
    /// Sound over-approximate read/write footprints, one per program.
    pub(crate) footprints: Vec<RwFootprint>,
    /// The workload-level verdict.
    pub safety: StaticSafety,
    /// Transactions proven safe (certified components; all of them
    /// when `safety` is `Safe`). Program `k` is transaction `k + 1`.
    certified: BTreeSet<TxnId>,
}

impl WorkloadAnalysis {
    /// The statically-certified transactions (conflict-closed and
    /// structurally safe — or the whole workload when `safety` is
    /// [`StaticSafety::Safe`]).
    pub fn certified(&self) -> &BTreeSet<TxnId> {
        &self.certified
    }

    /// The admission certificate for the certified subset, ready for a
    /// [`MonitorSpec`]'s `certificate` — `None` when nothing was
    /// certified.
    ///
    /// [`MonitorSpec`]: pwsr_scheduler::policy::MonitorSpec
    pub fn certificate(&self) -> Option<StaticCertificate> {
        if self.certified.is_empty() {
            return None;
        }
        Some(StaticCertificate::new(self.level, self.certified.clone()))
    }

    /// Workload program indices whose transactions still need runtime
    /// certification.
    pub fn monitored(&self) -> Vec<usize> {
        (0..self.footprints.len())
            .filter(|&k| !self.certified.contains(&TxnId(k as u32 + 1)))
            .collect()
    }
}

/// Replay a schedule through a fresh monitor, returning the final
/// verdict (breach fields are sticky, so the final verdict reflects
/// any prefix breach).
fn replay(schedule: &Schedule, scopes: &[ItemSet]) -> Verdict {
    let mut monitor = OnlineMonitor::new(scopes.to_vec());
    let mut verdict = monitor.verdict();
    for op in schedule.ops() {
        verdict = monitor
            .push(op.clone())
            .expect("enumerated executions satisfy the §2.2 transaction rules");
    }
    verdict
}

/// The structural robustness criterion over the full mix.
fn structurally_safe(
    global: &StaticConflictGraph,
    per_conjunct: &[StaticConflictGraph],
    footprints: &[RwFootprint],
    level: AdmissionLevel,
) -> bool {
    match level {
        AdmissionLevel::Serializable => global.is_forest(),
        AdmissionLevel::Pwsr => per_conjunct.iter().all(StaticConflictGraph::is_forest),
        AdmissionLevel::PwsrDr => {
            per_conjunct.iter().all(StaticConflictGraph::is_forest)
                && !has_cross_reads_from(footprints)
        }
    }
}

/// The structural criterion restricted to one conflict-closed
/// component.
fn structurally_safe_within(
    global: &StaticConflictGraph,
    per_conjunct: &[StaticConflictGraph],
    footprints: &[RwFootprint],
    level: AdmissionLevel,
    members: &[usize],
) -> bool {
    match level {
        AdmissionLevel::Serializable => global.is_forest_within(members),
        AdmissionLevel::Pwsr => per_conjunct.iter().all(|g| g.is_forest_within(members)),
        AdmissionLevel::PwsrDr => {
            per_conjunct.iter().all(|g| g.is_forest_within(members))
                && !has_cross_reads_from_within(footprints, members)
        }
    }
}

/// Certified subset for a mix that is not safe as a whole: the union
/// of global-graph components that pass the structural criterion on
/// their own. Components are conflict-closed, so their robustness
/// composes with *any* behaviour of the remaining transactions.
fn certified_components(
    global: &StaticConflictGraph,
    per_conjunct: &[StaticConflictGraph],
    footprints: &[RwFootprint],
    level: AdmissionLevel,
) -> BTreeSet<TxnId> {
    let mut out = BTreeSet::new();
    for component in global.components() {
        if structurally_safe_within(global, per_conjunct, footprints, level, &component) {
            out.extend(component.iter().map(|&k| TxnId(k as u32 + 1)));
        }
    }
    out
}

/// Statically decide robustness of `programs` at `level` over the
/// projection `scopes` (conjunct data sets). See the module docs for
/// the verdict semantics; `initial` grounds the dynamic
/// (counterexample / exhaustive) phase only — the structural `Safe`
/// proof is state-independent.
pub fn analyze(
    programs: &[Program],
    catalog: &Catalog,
    scopes: &[ItemSet],
    initial: &DbState,
    level: AdmissionLevel,
    cfg: &AnalyzerConfig,
) -> WorkloadAnalysis {
    let footprints: Vec<RwFootprint> = programs.iter().map(|p| rw_footprint(p, catalog)).collect();
    let global = StaticConflictGraph::build(&footprints, None);
    let per_conjunct: Vec<StaticConflictGraph> = scopes
        .iter()
        .map(|scope| StaticConflictGraph::build(&footprints, Some(scope)))
        .collect();

    if structurally_safe(&global, &per_conjunct, &footprints, level) {
        let certified = (1..=programs.len() as u32).map(TxnId).collect();
        let safety = StaticSafety::Safe(SafetyWitness::Forest {
            edges: global.edges().len(),
            conjuncts: per_conjunct.len(),
        });
        return WorkloadAnalysis {
            level,
            footprints,
            safety,
            certified,
        };
    }

    // Structural criterion failed: look for a concrete, monitor-
    // confirmed breach. Exhaustive enumeration first (its absence of
    // breaches is a proof, for this initial state); seeded sampling
    // as the over-budget fallback (its absence of breaches proves
    // nothing — Unknown).
    let mut safety = StaticSafety::Unknown;
    let mut certified = certified_components(&global, &per_conjunct, &footprints, level);
    match enumerate_executions(programs, catalog, initial, cfg.enumeration_cap) {
        Ok(Some(schedules)) => {
            let total = schedules.len();
            let breach = schedules
                .into_iter()
                .map(|s| {
                    let verdict = replay(&s, scopes);
                    (s, verdict)
                })
                .find(|(_, v)| !v.meets(level));
            safety = match breach {
                Some((schedule, verdict)) => {
                    StaticSafety::Unsafe(Counterexample { schedule, verdict })
                }
                None => {
                    certified = (1..=programs.len() as u32).map(TxnId).collect();
                    StaticSafety::Safe(SafetyWitness::Exhaustive {
                        interleavings: total,
                    })
                }
            };
        }
        Ok(None) | Err(_) => {
            // Cap hit (or an interleaving-dependent execution error):
            // sample. Trials that error are skipped — an execution
            // error is not a level breach.
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            for _ in 0..cfg.random_trials {
                let Ok(schedule) = random_execution(programs, catalog, initial, &mut rng) else {
                    continue;
                };
                let verdict = replay(&schedule, scopes);
                if !verdict.meets(level) {
                    safety = StaticSafety::Unsafe(Counterexample { schedule, verdict });
                    break;
                }
            }
        }
    }

    WorkloadAnalysis {
        level,
        footprints,
        safety,
        certified,
    }
}

/// [`analyze`] with scopes drawn from an integrity constraint's
/// conjunct data sets.
pub fn analyze_constraint(
    programs: &[Program],
    catalog: &Catalog,
    ic: &IntegrityConstraint,
    initial: &DbState,
    level: AdmissionLevel,
    cfg: &AnalyzerConfig,
) -> WorkloadAnalysis {
    analyze(programs, catalog, &ic.scopes(), initial, level, cfg)
}
