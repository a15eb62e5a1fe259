//! Execution metrics collected by the executor.

use std::fmt;

/// Counters describing one workload execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Scheduler steps taken (each step attempts one operation).
    pub steps: u64,
    /// Operations committed into the final schedule.
    pub committed_ops: u64,
    /// Times a transaction found itself blocked (lock or DR wait).
    pub waits: u64,
    /// Deadlock cycles resolved.
    pub deadlocks: u64,
    /// Transactions aborted (victims + cascades).
    pub aborts: u64,
    /// Transaction restarts performed.
    pub restarts: u64,
    /// Lock acquisitions granted.
    pub(crate) lock_acquisitions: u64,
    /// Operations rejected by the online verdict monitor (each rejection
    /// aborts and restarts the requesting transaction).
    pub(crate) monitor_rejections: u64,
    /// Operations the monitor's undo-log retracted across all aborts
    /// (the abort cost that used to be an `O(n)` rebuild each time).
    pub monitor_undone_ops: u64,
    /// The monitor undo-log's final retraction floor — how far
    /// checkpointing bounded the log (0 when no monitor ran).
    pub monitor_log_floor: u64,
    /// Operations that bypassed runtime certification because their
    /// transaction held a static safety certificate.
    pub(crate) monitor_skipped_ops: u64,
    /// OCC aborts: transactions rolled back by a failed backward
    /// validation or a certification breach (victims + cascades) —
    /// the same counter whichever OCC path (single-threaded or
    /// OCC-certified threaded) produced them.
    pub occ_aborts: u64,
    /// OCC retries: transaction re-executions scheduled after an OCC
    /// abort.
    pub occ_retries: u64,
    /// Write-ahead-log records appended (operations + retractions +
    /// floor raises); 0 when no WAL is attached.
    pub wal_appends: u64,
    /// Write-ahead-log frame bytes written.
    pub wal_bytes: u64,
    /// Write-ahead-log fsyncs issued (per the configured
    /// `SyncPolicy`).
    pub wal_fsyncs: u64,
    /// Write-ahead-log I/O errors observed (including errors the WAL's
    /// error policy healed by retry or degradation). Non-zero with a
    /// fail-stop policy means the run ended in `SchedError::WalFailed`.
    pub wal_io_errors: u64,
    /// Faults the deterministic chaos plane fired during the run
    /// (WAL faults and executor faults alike); 0 outside fault drills.
    pub injected_faults: u64,
    /// Transaction attempts aborted because they outlived the
    /// configured OCC deadline — self-detected or discovered after a
    /// zombie reap.
    pub txn_timeouts: u64,
    /// Stalled/dead transactions another worker reclaimed: the zombie's
    /// monitor suffix retracted and its dirty items rolled back so the
    /// pool could make progress.
    pub zombie_reaps: u64,
    /// Worker panics contained by the executor (the panicking
    /// transaction died; the pool kept committing).
    pub worker_panics: u64,
    /// Batch admissions: contiguous single-transaction runs pushed
    /// through the monitor's amortized batch path.
    pub batch_pushes: u64,
    /// Operations carried inside those batch admissions (singleton
    /// pushes are not counted here).
    pub batched_ops: u64,
    /// Largest single batch admitted.
    pub(crate) max_batch: u64,
}

impl Metrics {
    /// Fold another worker's counters in: every count sums, and the
    /// two levels — `monitor_log_floor`, `max_batch` — take the larger.
    pub(crate) fn absorb(&mut self, other: &Metrics) {
        let counts = [
            (&mut self.steps, other.steps),
            (&mut self.committed_ops, other.committed_ops),
            (&mut self.waits, other.waits),
            (&mut self.deadlocks, other.deadlocks),
            (&mut self.aborts, other.aborts),
            (&mut self.restarts, other.restarts),
            (&mut self.lock_acquisitions, other.lock_acquisitions),
            (&mut self.monitor_rejections, other.monitor_rejections),
            (&mut self.monitor_undone_ops, other.monitor_undone_ops),
            (&mut self.monitor_skipped_ops, other.monitor_skipped_ops),
            (&mut self.occ_aborts, other.occ_aborts),
            (&mut self.occ_retries, other.occ_retries),
            (&mut self.wal_appends, other.wal_appends),
            (&mut self.wal_bytes, other.wal_bytes),
            (&mut self.wal_fsyncs, other.wal_fsyncs),
            (&mut self.wal_io_errors, other.wal_io_errors),
            (&mut self.injected_faults, other.injected_faults),
            (&mut self.txn_timeouts, other.txn_timeouts),
            (&mut self.zombie_reaps, other.zombie_reaps),
            (&mut self.worker_panics, other.worker_panics),
            (&mut self.batch_pushes, other.batch_pushes),
            (&mut self.batched_ops, other.batched_ops),
        ];
        for (mine, theirs) in counts {
            *mine += theirs;
        }
        self.monitor_log_floor = self.monitor_log_floor.max(other.monitor_log_floor);
        self.max_batch = self.max_batch.max(other.max_batch);
    }

    /// Useful-work fraction: committed operations per step.
    pub fn goodput(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.committed_ops as f64 / self.steps as f64
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps={} ops={} waits={} deadlocks={} aborts={} restarts={} locks={} monrej={} \
             monundo={} monfloor={} monskip={} occab={} occretry={} \
             walapp={} walbytes={} walsync={} walerr={} faults={} timeouts={} reaps={} \
             panics={} batches={} batchops={} maxbatch={} goodput={:.3}",
            self.steps,
            self.committed_ops,
            self.waits,
            self.deadlocks,
            self.aborts,
            self.restarts,
            self.lock_acquisitions,
            self.monitor_rejections,
            self.monitor_undone_ops,
            self.monitor_log_floor,
            self.monitor_skipped_ops,
            self.occ_aborts,
            self.occ_retries,
            self.wal_appends,
            self.wal_bytes,
            self.wal_fsyncs,
            self.wal_io_errors,
            self.injected_faults,
            self.txn_timeouts,
            self.zombie_reaps,
            self.worker_panics,
            self.batch_pushes,
            self.batched_ops,
            self.max_batch,
            self.goodput()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let m = Metrics {
            steps: 10,
            committed_ops: 5,
            waits: 2,
            ..Metrics::default()
        };
        assert!((m.goodput() - 0.5).abs() < 1e-9);
        let z = Metrics::default();
        assert_eq!(z.goodput(), 0.0);
    }

    #[test]
    fn absorb_sums_counts_and_keeps_the_larger_level() {
        let mut total = Metrics {
            waits: 2,
            occ_aborts: 1,
            max_batch: 8,
            monitor_log_floor: 3,
            ..Metrics::default()
        };
        total.absorb(&Metrics {
            waits: 5,
            occ_aborts: 1,
            batch_pushes: 4,
            max_batch: 6,
            monitor_log_floor: 7,
            ..Metrics::default()
        });
        let expected = Metrics {
            waits: 7,
            occ_aborts: 2,
            batch_pushes: 4,
            max_batch: 8,
            monitor_log_floor: 7,
            ..Metrics::default()
        };
        assert_eq!(total, expected);
    }

    #[test]
    fn display_contains_counters() {
        let m = Metrics {
            steps: 3,
            deadlocks: 1,
            occ_aborts: 2,
            occ_retries: 5,
            wal_io_errors: 1,
            injected_faults: 4,
            txn_timeouts: 2,
            zombie_reaps: 1,
            worker_panics: 1,
            batch_pushes: 6,
            batched_ops: 24,
            max_batch: 8,
            ..Metrics::default()
        };
        let s = m.to_string();
        assert!(s.contains("steps=3") && s.contains("deadlocks=1"));
        assert!(s.contains("occab=2") && s.contains("occretry=5"));
        assert!(s.contains("walapp=0") && s.contains("walsync=0"));
        assert!(s.contains("walerr=1") && s.contains("faults=4"));
        assert!(s.contains("timeouts=2") && s.contains("reaps=1"));
        assert!(s.contains("panics=1"));
        assert!(s.contains("batches=6") && s.contains("batchops=24"));
        assert!(s.contains("maxbatch=8"));
    }
}
