//! CMP-1: bounded-memory streaming via committed-prefix compaction.
//!
//! A long stream of short transactions is pushed through two
//! [`OnlineMonitor`] twins: one declares each transaction finished at
//! its last operation and compacts the committed prefix on a fixed
//! cadence ([`OnlineMonitor::compact`]), the other retains the whole
//! history. The experiment checks
//!
//! * **resident memory**: the compacting monitor's structural
//!   footprint ([`OnlineMonitor::resident_bytes_estimate`]) must
//!   *plateau* — its peak (sampled just before each compaction) stays
//!   a small constant multiple of one epoch, far below the
//!   uncompacted twin's linearly-growing footprint;
//! * **verdict parity**: both twins must end at the identical verdict
//!   (the twin-harness property, sampled here at scale).
//!
//! `trials` scales the stream: `ops ≈ trials × 200_000` (default 10 ≈
//! 2·10⁶ ops; `--trials 50` reaches the 10⁷-op tier; `--smoke` caps at
//! 8). The workload interleaves pairs of transactions on disjoint
//! items with reuse across epochs, so reads-from edges, last-writer
//! transitions and graph growth are all exercised while the verdict
//! stays `Serializable` (no frozen-graph shortcut).

use crate::report::Table;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::OnlineMonitor;
use pwsr_core::op::Operation;
use pwsr_core::state::ItemSet;
use pwsr_core::value::Value;

/// Items in the workload's sliding window.
const ITEMS: usize = 64;
/// Conjunct scopes (16 items each).
const SCOPES: usize = 4;
/// Operations per transaction (r x, w x, r x', w x').
const OPS_PER_TXN: usize = 4;
/// Transaction pairs per compaction epoch.
const PAIRS_PER_EPOCH: usize = 2048;

/// The counts CMP-1's shape check and table are made of.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactExpStats {
    /// Operations streamed through each twin.
    pub ops: u64,
    /// Compaction sweeps the compacting twin ran.
    pub compactions: u64,
    /// Operations reclaimed (summarized away) across those sweeps.
    pub ops_reclaimed: u64,
    /// Peak resident estimate of the compacting twin, sampled just
    /// *before* each compaction — the plateau ceiling.
    pub resident_bytes_pre: u64,
    /// Resident estimate after the final compaction — the plateau
    /// floor the monitor returns to.
    pub resident_bytes_post: u64,
    /// The uncompacted twin's resident estimate at end of stream.
    pub baseline_resident_bytes: u64,
}

impl CompactExpStats {
    /// Baseline resident bytes over the compacting twin's plateau
    /// ceiling — how much memory compaction actually bounds.
    pub fn memory_ratio(&self) -> f64 {
        if self.resident_bytes_pre > 0 {
            self.baseline_resident_bytes as f64 / self.resident_bytes_pre as f64
        } else {
            f64::INFINITY
        }
    }
}

/// The workload's conjunct scopes: `SCOPES` disjoint windows of
/// `ITEMS / SCOPES` items.
pub fn scopes() -> Vec<ItemSet> {
    (0..SCOPES)
        .map(|s| {
            let mut set = ItemSet::new();
            let width = ITEMS / SCOPES;
            for i in 0..width {
                set.insert(ItemId((s * width + i) as u32));
            }
            set
        })
        .collect()
}

/// Deterministic stream generator: transaction pairs `(A, B)` on
/// disjoint items (A even, B odd), strictly alternating their
/// operations, with item reuse across epochs. `sink` receives every
/// operation in stream order plus a flag marking each transaction's
/// last operation.
fn stream(pairs: usize, mut sink: impl FnMut(Operation, bool)) {
    let mut cur = [0i64; ITEMS];
    let mut counter = 0i64;
    for j in 0..pairs {
        let a = TxnId(2 * j as u32 + 1);
        let b = TxnId(2 * j as u32 + 2);
        let xa = 2 * (j % (ITEMS / 2));
        let xb = xa + 1;
        let xa2 = (xa + 2) % ITEMS;
        let xb2 = (xa2 + 1) % ITEMS;
        let mut emit = |txn: TxnId, item: usize, write: bool, last: bool| {
            let op = if write {
                counter += 1;
                cur[item] = counter;
                Operation::write(txn, ItemId(item as u32), Value::Int(counter))
            } else {
                Operation::read(txn, ItemId(item as u32), Value::Int(cur[item]))
            };
            sink(op, last);
        };
        // r x, w x on each side, then r x', w x' — alternating A/B.
        emit(a, xa, false, false);
        emit(b, xb, false, false);
        emit(a, xa, true, false);
        emit(b, xb, true, false);
        emit(a, xa2, false, false);
        emit(b, xb2, false, false);
        emit(a, xa2, true, true);
        emit(b, xb2, true, true);
    }
}

/// Run the comparison. `trials` scales the stream length (0 = 10
/// epochs of ~200k ops each).
pub fn cmp1(trials: u64, _seed: u64) -> (bool, String, CompactExpStats) {
    let units = if trials == 0 { 10 } else { trials };
    let pairs = (units as usize) * 200_000 / (2 * OPS_PER_TXN);
    let pairs = pairs.max(2 * PAIRS_PER_EPOCH);
    let total_ops = (pairs * 2 * OPS_PER_TXN) as u64;

    // Compacting twin: finish each transaction at its last op, compact
    // every PAIRS_PER_EPOCH pairs. Resident is sampled around each
    // sweep.
    let mut compacting = OnlineMonitor::new(scopes());
    let mut since_epoch = 0usize;
    let mut peak_pre = 0usize;
    {
        let m = &mut compacting;
        let mut done_in_pair = 0usize;
        stream(pairs, |op, last| {
            let txn = op.txn;
            m.push(op).expect("coherent stream");
            if last {
                m.finish_txn(txn);
                done_in_pair += 1;
                if done_in_pair == 2 {
                    done_in_pair = 0;
                    since_epoch += 1;
                    if since_epoch == PAIRS_PER_EPOCH {
                        since_epoch = 0;
                        peak_pre = peak_pre.max(m.resident_bytes_estimate());
                        m.compact();
                    }
                }
            }
        });
        m.compact();
    }
    let resident_post = compacting.resident_bytes_estimate();

    // Uncompacted twin: identical stream, full history retained.
    let mut baseline = OnlineMonitor::new(scopes());
    stream(pairs, |op, _| {
        baseline.push(op).expect("coherent stream");
    });
    let baseline_resident = baseline.resident_bytes_estimate();

    let stats = CompactExpStats {
        ops: total_ops,
        compactions: compacting.compactions(),
        ops_reclaimed: compacting.ops_reclaimed(),
        resident_bytes_pre: peak_pre as u64,
        resident_bytes_post: resident_post as u64,
        baseline_resident_bytes: baseline_resident as u64,
    };

    let parity = compacting.verdict() == baseline.verdict();
    let plateaued = stats.memory_ratio() >= 4.0 && resident_post < peak_pre;
    let reclaimed = stats.ops_reclaimed >= total_ops / 2;
    let ok = parity && stats.compactions > 0 && plateaued && reclaimed;

    let mut t = Table::new(
        "CMP-1  Committed-prefix compaction: bounded memory",
        &[
            "ops",
            "compactions",
            "reclaimed",
            "peak resident",
            "post resident",
            "baseline resident",
            "memory ratio",
            "verdict parity",
        ],
    );
    t.row(&[
        total_ops.to_string(),
        stats.compactions.to_string(),
        stats.ops_reclaimed.to_string(),
        format!("{}K", stats.resident_bytes_pre / 1024),
        format!("{}K", stats.resident_bytes_post / 1024),
        format!("{}K", stats.baseline_resident_bytes / 1024),
        format!("{:.1}x", stats.memory_ratio()),
        parity.to_string(),
    ]);
    (ok, t.render(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest stream the experiment accepts still plateaus,
    /// reclaims, and stays verdict-identical to its uncompacted twin.
    #[test]
    fn cmp1_smoke() {
        let (ok, text, stats) = cmp1(1, 0);
        assert!(ok, "{text}");
        assert!(stats.compactions > 0);
        assert!(stats.resident_bytes_pre < stats.baseline_resident_bytes);
    }
}
