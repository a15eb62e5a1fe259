//! Property tests for WAL corruption handling — the satellite
//! guarantee: **arbitrary truncation or bit-flips of a valid log must
//! recover exactly the longest cleanly-checksummed record prefix**,
//! and the recovered monitor must match the uncrashed twin's state
//! (hash, verdict, schedule) at that prefix.
//!
//! The uncrashed twin is not re-derived through the recovery code
//! (that would be circular): during session generation we snapshot
//! the **live** monitor's state hash and verdict after every journal
//! record, and recovery at a k-record prefix must reproduce
//! snapshot `k` exactly.

use proptest::prelude::*;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::journal::MonitorJournal;
use pwsr_core::monitor::{OnlineMonitor, Verdict};
use pwsr_core::op::Operation;
use pwsr_core::state::ItemSet;
use pwsr_core::value::Value;
use pwsr_durability::checkpoint::{state_hash, StateHash};
use pwsr_durability::recover::recover;
use pwsr_durability::wal::{scan, SharedWal, SyncPolicy, WalRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_ITEMS: u32 = 6;
const N_TXNS: u32 = 6;

fn scopes() -> Vec<ItemSet> {
    let mut a = ItemSet::new();
    let mut b = ItemSet::new();
    for i in 0..N_ITEMS / 2 {
        a.insert(ItemId(i));
    }
    for i in N_ITEMS / 2..N_ITEMS {
        b.insert(ItemId(i));
    }
    vec![a, b]
}

/// A generated journal session: the logged records, the frame byte
/// boundaries, and the live monitor's state snapshot after each
/// record (`snaps[k]` = state after `records[..k]`).
struct Session {
    bytes: Vec<u8>,
    records: Vec<WalRecord>,
    bounds: Vec<usize>,
    snaps: Vec<StateHash>,
    verdicts: Vec<Option<Verdict>>,
}

/// Drive a live monitor through random §2.2-valid pushes interleaved
/// with truncations, floor raises, and the occasional reset — every
/// transition journaled into an in-memory WAL, every post-record
/// state snapshotted.
fn build_session(seed: u64, steps: usize) -> Session {
    let mut rng = StdRng::seed_from_u64(seed);
    let wal = SharedWal::in_memory(SyncPolicy::Off);
    let mut journal: Box<dyn MonitorJournal> = Box::new(wal.clone());
    let mut live = OnlineMonitor::new(scopes());
    let mut records: Vec<WalRecord> = Vec::new();
    let mut snaps = vec![state_hash(&live)];
    let mut verdicts: Vec<Option<Verdict>> = vec![None];
    let record = |records: &mut Vec<WalRecord>,
                  snaps: &mut Vec<StateHash>,
                  verdicts: &mut Vec<Option<Verdict>>,
                  live: &OnlineMonitor,
                  rec: WalRecord| {
        records.push(rec);
        snaps.push(state_hash(live));
        verdicts.push(Some(live.verdict()));
    };
    for _ in 0..steps {
        let roll: u32 = rng.random_range(0..100);
        if roll < 78 {
            // Trial-push a random op; §2.2 rejections leave the
            // monitor untouched, so we just retry a few times.
            for _ in 0..8 {
                let txn = TxnId(rng.random_range(1..=N_TXNS));
                let item = ItemId(rng.random_range(0..N_ITEMS));
                let value = Value::Int(rng.random_range(-9..9));
                let op = if rng.random_bool(0.5) {
                    Operation::read(txn, item, value)
                } else {
                    Operation::write(txn, item, value)
                };
                if live.push_logged(op.clone()).is_ok() {
                    journal.appended(&op);
                    record(
                        &mut records,
                        &mut snaps,
                        &mut verdicts,
                        &live,
                        WalRecord::Op(op),
                    );
                    break;
                }
            }
        } else if roll < 88 {
            let floor = live.log_floor();
            if live.len() > floor {
                let n = rng.random_range(floor..live.len());
                journal.truncated(n);
                live.truncate_to(n);
                record(
                    &mut records,
                    &mut snaps,
                    &mut verdicts,
                    &live,
                    WalRecord::Truncate(n as u64),
                );
            }
        } else if roll < 96 {
            let floor = live.log_floor();
            if live.len() > floor {
                let n = rng.random_range(floor..=live.len());
                journal.floor_raised(n);
                live.checkpoint(n);
                record(
                    &mut records,
                    &mut snaps,
                    &mut verdicts,
                    &live,
                    WalRecord::Floor(n as u64),
                );
            }
        } else {
            wal.with(|w| w.append(&WalRecord::Reset));
            live = OnlineMonitor::new(scopes());
            record(
                &mut records,
                &mut snaps,
                &mut verdicts,
                &live,
                WalRecord::Reset,
            );
        }
    }
    let bytes = wal.dump_bytes().unwrap();
    let mut bounds = vec![0usize];
    for r in &records {
        bounds.push(bounds.last().unwrap() + r.encode_frame().len());
    }
    assert_eq!(*bounds.last().unwrap(), bytes.len());
    Session {
        bytes,
        records,
        bounds,
        snaps,
        verdicts,
    }
}

/// Recovery at `bytes` must yield exactly `k` records and reproduce
/// snapshot `k`.
fn assert_recovers_prefix(s: &Session, bytes: &[u8], k: usize, ctx: &str) {
    let rec = recover(scopes(), None, bytes).expect(ctx);
    assert_eq!(rec.records_applied, k, "{ctx}: wrong record count");
    assert_eq!(rec.valid_bytes, s.bounds[k], "{ctx}: wrong valid prefix");
    assert_eq!(
        state_hash(&rec.monitor),
        s.snaps[k],
        "{ctx}: state hash diverged from uncrashed twin"
    );
    if let Some(v) = s.verdicts[k] {
        assert_eq!(
            rec.monitor.verdict(),
            v,
            "{ctx}: verdict diverged from uncrashed twin"
        );
    }
}

proptest! {
    /// A clean log replays completely and byte-identically.
    #[test]
    fn clean_log_recovers_exactly(seed in 0u64..1_000_000, steps in 10usize..80) {
        let s = build_session(seed, steps);
        let scanned = scan(&s.bytes);
        prop_assert_eq!(&scanned.records, &s.records);
        prop_assert_eq!(scanned.corruption, None);
        assert_recovers_prefix(&s, &s.bytes, s.records.len(), "clean");
    }

    /// Truncating the log at ANY byte recovers exactly the records
    /// whose frames lie wholly within the cut, with twin parity.
    #[test]
    fn truncation_recovers_longest_prefix(seed in 0u64..1_000_000, steps in 10usize..60, cut_sel in 0.0f64..1.0) {
        let s = build_session(seed, steps);
        let cut = ((s.bytes.len() as f64) * cut_sel) as usize;
        let k = s.bounds.iter().filter(|&&b| b <= cut).count() - 1;
        let truncated = &s.bytes[..cut];
        let scanned = scan(truncated);
        // Corruption flagged unless the cut fell on a frame boundary.
        prop_assert_eq!(scanned.corruption.is_none(), cut == s.bounds[k]);
        assert_recovers_prefix(&s, truncated, k, "truncated");
    }

    /// Flipping ANY single bit recovers exactly the records before
    /// the damaged frame — detected, truncated, never replayed.
    #[test]
    fn bit_flip_recovers_longest_prefix(seed in 0u64..1_000_000, steps in 10usize..60, byte_sel in 0.0f64..1.0, bit in 0u8..8) {
        let s = build_session(seed, steps);
        prop_assume!(!s.bytes.is_empty());
        let byte = (((s.bytes.len() - 1) as f64) * byte_sel) as usize;
        let mut dirty = s.bytes.clone();
        dirty[byte] ^= 1 << bit;
        // The frame containing the flipped byte.
        let i = s.bounds.iter().filter(|&&b| b <= byte).count() - 1;
        let scanned = scan(&dirty);
        prop_assert!(scanned.corruption.is_some(), "flip at byte {} undetected", byte);
        assert_recovers_prefix(&s, &dirty[..s.bounds[i]], i, "bit-flipped (prefix)");
        // And scanning the damaged stream itself stops exactly there.
        prop_assert_eq!(&scanned.records, &s.records[..i]);
        prop_assert_eq!(scanned.valid_bytes, s.bounds[i]);
    }
}
