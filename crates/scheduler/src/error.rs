//! Scheduler errors.

use pwsr_core::error::CoreError;
use pwsr_core::ids::TxnId;
use pwsr_core::monitor::{AdmissionLevel, Verdict};
use pwsr_core::schedule::Schedule;
use pwsr_tplang::error::TpError;
use std::fmt;

/// Errors of the scheduling substrate.
#[derive(Clone, Debug)]
pub enum SchedError {
    /// The executor hit its step budget before all transactions
    /// committed (livelock guard).
    StepBudgetExhausted {
        /// The configured budget.
        max_steps: u64,
        /// Transactions still incomplete.
        pending: Vec<TxnId>,
    },
    /// Every live transaction is blocked but no waits-for cycle exists —
    /// an internal invariant violation.
    Stalled,
    /// A transaction exceeded the restart limit (starvation guard).
    RestartLimit {
        /// The starving transaction.
        txn: TxnId,
        /// How many times it was restarted.
        restarts: u32,
    },
    /// A program failed during execution.
    Program(TpError),
    /// A core-model error.
    Core(CoreError),
    /// The write-ahead log failed under a fail-stop error policy:
    /// durable history is incomplete, so the run refuses to report
    /// success (records were dropped, not silently lost — the WAL
    /// counted them and surfaced the first error here).
    WalFailed {
        /// The sticky I/O error, stringified (`io::Error` is not
        /// `Clone`).
        error: String,
    },
    /// An executor configured at an admission level finished with a
    /// committed schedule whose quiescent verdict sits below it — the
    /// promise "returned `Ok` ⇒ verdict ≥ level" did not hold, so the
    /// run refuses to report success. The committed schedule is the
    /// bug report: replaying it through a single-writer monitor
    /// reproduces the verdict.
    FloorBreached {
        /// The floor the executor was configured to protect.
        level: AdmissionLevel,
        /// The monitor's quiescent verdict over `schedule`.
        verdict: Verdict,
        /// The committed interleaving, as the monitor recorded it
        /// (boxed: it would otherwise size every `Result` in the
        /// crate).
        schedule: Box<Schedule>,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::StepBudgetExhausted { max_steps, pending } => write!(
                f,
                "executor exhausted {max_steps} steps with {} transactions pending",
                pending.len()
            ),
            SchedError::Stalled => write!(f, "all transactions blocked without a waits-for cycle"),
            SchedError::RestartLimit { txn, restarts } => {
                write!(f, "transaction {txn} restarted {restarts} times; giving up")
            }
            SchedError::Program(e) => write!(f, "program error: {e}"),
            SchedError::Core(e) => write!(f, "model error: {e}"),
            SchedError::WalFailed { error } => {
                write!(f, "write-ahead log failed (fail-stop): {error}")
            }
            SchedError::FloorBreached {
                level,
                verdict,
                schedule,
            } => write!(
                f,
                "committed schedule of {} operations sits at {:?}, below the {level:?} \
                 admission floor",
                schedule.len(),
                verdict.level
            ),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Program(e) => Some(e),
            SchedError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TpError> for SchedError {
    fn from(e: TpError) -> Self {
        SchedError::Program(e)
    }
}

impl From<CoreError> for SchedError {
    fn from(e: CoreError) -> Self {
        SchedError::Core(e)
    }
}

/// Result alias.
pub(crate) type Result<T> = std::result::Result<T, SchedError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        let e = SchedError::StepBudgetExhausted {
            max_steps: 10,
            pending: vec![TxnId(1)],
        };
        assert!(e.to_string().contains("10 steps"));
        assert!(SchedError::Stalled.to_string().contains("blocked"));
        let e = SchedError::RestartLimit {
            txn: TxnId(2),
            restarts: 5,
        };
        assert!(e.to_string().contains("T2"));
        let e = SchedError::WalFailed {
            error: "injected short write".into(),
        };
        assert!(e.to_string().contains("fail-stop"));
        let monitor = pwsr_core::monitor::OnlineMonitor::new(Vec::new());
        let e = SchedError::FloorBreached {
            level: AdmissionLevel::Pwsr,
            verdict: monitor.verdict(),
            schedule: Box::new(monitor.schedule().clone()),
        };
        assert!(e.to_string().contains("below the Pwsr"));
    }
}
