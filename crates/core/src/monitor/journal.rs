//! The monitor → durability journal boundary.
//!
//! A [`MonitorJournal`] receives every *state transition* of a monitor
//! — appends, suffix truncations and retraction-floor raises — in the
//! exact order the monitor applied them, so a write-ahead log can
//! later replay the sequence into a fresh monitor and arrive at a
//! byte-identical state (verdict ladder, floor, state hash). The trait
//! lives in `pwsr_core` so the monitors can call it; the durable
//! implementation (`pwsr_durability`'s WAL) lives downstream — core
//! has no I/O dependency.
//!
//! Both drivers attach a journal the same way
//! (`OnlineMonitor::with_journal`, `ShardedMonitor::with_journal`), and
//! it has one caller under either: the monitor's stage-1 state
//! (`SeqState`, shared code), which owns it. It reports a run after the
//! §2.2 checks and before the run is applied, a truncation when it
//! undoes anything, and a checkpoint when it raises the floor.
//!
//! Ordering contract: in the sharded monitor `SeqState` sits **under
//! the order-claiming sequence mutex**, so journal order IS claimed
//! schedule order even under concurrent pushes — the property that
//! makes single-threaded replay of a concurrently-written log exact.
//! The single writer satisfies the contract trivially.
//!
//! The three transitions form a tiny replay language:
//!
//! | callback | replay action on a fresh `OnlineMonitor` |
//! |---|---|
//! | [`appended`](MonitorJournal::appended) | `push_logged(op)` |
//! | [`truncated`](MonitorJournal::truncated) | `truncate_to(n)` |
//! | [`floor_raised`](MonitorJournal::floor_raised) | `checkpoint(floor)` |
//!
//! A transaction abort (`ShardedMonitor::retract_txn` /
//! `OnlineMonitor::retract_txns`) needs no record of its own: it
//! decomposes into one truncation plus re-appends of the surviving
//! suffix, and both monitors emit exactly that decomposition. An abort
//! never reaches below the floor: every executor checkpoints only past
//! transactions no abort can take back. (The WAL also decodes a fourth
//! record, `Reset` — fresh monitor, same scopes — and recovery replays
//! it for logs that hold one, but neither monitor nor any executor
//! writes it.)

use crate::op::Operation;

/// Receiver for a monitor's state transitions, in application order.
/// `Send` because the sharded monitor carries its journal across
/// pushing threads (always under the sequence mutex); `Debug` so
/// journaled monitors stay debuggable.
pub trait MonitorJournal: Send + std::fmt::Debug {
    /// `op` was appended at the end of the recorded schedule.
    fn appended(&mut self, op: &Operation);

    /// `ops` were appended contiguously (one batch admission). The
    /// default decomposes into per-op [`appended`](Self::appended)
    /// calls; journals with a cheaper framed multi-op representation
    /// (the WAL's `OpBatch` record) override it. Replay of either form
    /// must reconstruct the identical schedule, so overriding is a
    /// pure amortization.
    fn appended_batch(&mut self, ops: &[Operation]) {
        for op in ops {
            self.appended(op);
        }
    }

    /// The recorded schedule was truncated to its first `new_len`
    /// operations (an abort retracting a suffix).
    fn truncated(&mut self, new_len: usize);

    /// The retraction floor rose to `floor`: the prefix below it is
    /// permanent (a checkpoint boundary — the durable-snapshot point).
    fn floor_raised(&mut self, floor: usize);
}
