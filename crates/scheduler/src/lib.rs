//! # pwsr-scheduler — concurrency-control substrate
//!
//! The paper motivates PWSR with long-duration transactions (CAD) and
//! autonomous multidatabases: global serializability forces long waits,
//! while per-conjunct serializability permits far more interleaving.
//! This crate makes that comparison measurable by *generating* schedules
//! under lock-based policies:
//!
//! * [`lock`] — a shared/exclusive lock table partitioned into lock
//!   *spaces* (one space = one unit of serializability).
//! * [`policy`] — policy specifications: global strict 2PL (the
//!   serializability baseline), predicate-wise 2PL (one lock space per
//!   conjunct — Definition 2 made operational), optional early
//!   per-conjunct lock release (the long-transaction win), and optional
//!   delayed-read blocking (Theorem 2 made operational).
//! * [`plan`] — access plans: exact operation structures for
//!   fixed-structure programs (Theorem 1's class), enabling sound early
//!   release.
//! * [`exec`] — the one deterministic, seeded, discrete-event runner:
//!   transaction table, pick, step budget, monitor admission, cascading
//!   aborts, restarts, the committed schedule plus metrics — and its
//!   *locking* discipline ([`exec::run_workload`]: waits, waits-for
//!   deadlock detection or prevention, victim selection).
//! * [`occ`] — the same runner's *validation* discipline: buffered
//!   writes, per-space backward validation, publish on success.
//! * [`sgt`] — its *certification* discipline: nothing but the
//!   admission probe, over the policy's space partition.
//! * [`dag_admission`] — static Theorem-3 admission: conjunct access
//!   ordering from the program set's syntactic read/write sets.
//! * [`mdbs`] — the §4 multidatabase scenario: each site is a lock
//!   space; local serializability everywhere ⇒ the global schedule is
//!   PWSR over the site partition.
//! * [`concurrent`] — genuinely threaded executors (parking_lot) for
//!   demonstration that the discrete-event results are not an artifact
//!   of simulation: 2PL and optimistic, two disciplines on one worker
//!   pool, one item-striped database (no global mutex) and one commit
//!   step, certified by the sharded concurrent monitor.

pub mod concurrent;
pub mod dag_admission;
pub mod error;
pub mod exec;
#[cfg(test)]
mod fixtures;
pub mod lock;
pub mod mdbs;
pub mod metrics;
pub mod occ;
pub mod plan;
pub mod policy;
pub mod sgt;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::concurrent::{
        replay_matches, run_threaded_certified, run_threaded_occ_tuned, OccThreadedOutcome,
        OccTuning,
    };
    pub use crate::dag_admission::{check_static_dag, StaticDag};
    pub use crate::error::SchedError;
    pub use crate::exec::{run_workload, ExecConfig, ExecOutcome};
    pub use crate::lock::{LockMode, LockTable, SpaceId};
    pub use crate::mdbs::{run_mdbs, MdbsOutcome, Site};
    pub use crate::metrics::Metrics;
    pub use crate::occ::run_occ;
    pub use crate::plan::access_plan;
    pub use crate::policy::{MonitorAdmission, MonitorSpec, PolicySpec};
    pub use crate::sgt::run_sgt;
    pub use pwsr_core::monitor::AdmissionLevel;
}
