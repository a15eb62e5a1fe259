//! Crash recovery: load checkpoint (if any), replay the WAL tail
//! through a fresh monitor, stop cleanly at the first corrupt byte.
//!
//! The guarantee this module enforces: a recovered monitor is
//! **byte-identical** (state hash, verdict ladder, floor, schedule)
//! to the pre-crash monitor *at the last durable record* — a torn or
//! bit-flipped tail is detected by its checksum and truncated, never
//! silently replayed.
//!
//! Recovery is one sequence on the calling thread: validate the
//! checkpoint (replay its prefix, compare the state hash), scan the
//! WAL, apply the tail. A test holds `recover` to a reference that
//! pushes the prefix one operation at a time, at every cut and bit
//! flip of a journal.

use std::fmt;

use pwsr_core::error::CoreError;
use pwsr_core::monitor::OnlineMonitor;
use pwsr_core::state::ItemSet;

use crate::checkpoint::{validate, Checkpoint, CheckpointError};
use crate::wal::{scan, WalCorruption, WalRecord};

/// The outcome of a successful recovery.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt monitor, positioned exactly at the last durable
    /// record.
    pub monitor: OnlineMonitor,
    /// Logical WAL records applied (after the checkpoint prefix).
    pub records_applied: usize,
    /// Byte length of the valid WAL prefix that was replayed.
    pub valid_bytes: usize,
    /// `None` if the log ended cleanly; otherwise the detected (and
    /// truncated) tail damage.
    pub corruption: Option<WalCorruption>,
}

/// Why recovery refused to produce a monitor. Corrupt WAL *tails* are
/// not errors (they are truncated); these are integrity failures in
/// what *did* checksum cleanly.
#[derive(Debug)]
pub enum RecoverError {
    /// The checkpoint failed to decode or its replayed state hash did
    /// not match the stored one.
    Checkpoint(CheckpointError),
    /// A cleanly-checksummed record was inconsistent with the monitor
    /// state (e.g. `Truncate` beyond the length or below the floor) —
    /// a logic-level impossibility for logs this crate wrote, so it
    /// indicates tampering rather than a crash.
    InconsistentRecord {
        /// Zero-based index of the offending record in the tail.
        index: usize,
        /// What was inconsistent about it.
        detail: String,
    },
    /// A cleanly-checksummed `Op` record was rejected by §2.2
    /// validation during replay.
    Replay {
        /// Zero-based index of the offending record in the tail.
        index: usize,
        /// The schedule-validation error.
        source: CoreError,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            RecoverError::InconsistentRecord { index, detail } => {
                write!(f, "inconsistent WAL record #{index}: {detail}")
            }
            RecoverError::Replay { index, source } => {
                write!(f, "WAL record #{index} failed replay: {source}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<CheckpointError> for RecoverError {
    fn from(e: CheckpointError) -> RecoverError {
        RecoverError::Checkpoint(e)
    }
}

/// Rebuild a monitor from an optional checkpoint plus a WAL byte
/// stream (the tail written *after* the checkpoint was captured).
///
/// 1. A fresh monitor over `scopes` replays the checkpoint prefix and
///    raises its floor; the recomputed state hash must equal the
///    stored one or recovery refuses
///    ([`RecoverError::Checkpoint`] / [`CheckpointError::HashMismatch`]).
/// 2. The WAL is scanned for its longest checksummed prefix; each
///    record replays through the corresponding monitor entry point
///    (`Op` → `push_logged`, `OpBatch` → `push_batch_logged`,
///    `Truncate` → `truncate_to`, `Floor` → `checkpoint`, `Reset` →
///    fresh monitor).
/// 3. Tail corruption is reported, not fatal: the monitor stands at
///    the last durable record.
///
/// The steps run in turn on the calling thread, so the refusals come
/// in their order: an invalid prefix, then a hash mismatch, then the
/// first inconsistent or unreplayable tail record.
pub fn recover(
    scopes: Vec<ItemSet>,
    checkpoint: Option<&Checkpoint>,
    wal_bytes: &[u8],
) -> Result<Recovered, RecoverError> {
    let mut monitor = match checkpoint {
        Some(ckp) => validate(scopes.clone(), ckp)?,
        None => OnlineMonitor::new(scopes.clone()),
    };
    let scanned = scan(wal_bytes);
    let records_applied = scanned.records.len();
    for (index, rec) in scanned.records.into_iter().enumerate() {
        apply_record(&mut monitor, &scopes, rec, index)?;
    }
    Ok(Recovered {
        monitor,
        records_applied,
        valid_bytes: scanned.valid_bytes,
        corruption: scanned.corruption,
    })
}

/// Apply one logical record to `monitor` — the replay side of the
/// `MonitorJournal` language.
fn apply_record(
    monitor: &mut OnlineMonitor,
    scopes: &[ItemSet],
    rec: WalRecord,
    index: usize,
) -> Result<(), RecoverError> {
    match rec {
        WalRecord::Op(op) => monitor
            .push_logged(op)
            .map(|_| ())
            .map_err(|source| RecoverError::Replay { index, source }),
        WalRecord::OpBatch(ops) => monitor
            .push_batch_logged(&ops)
            .map(|_| ())
            .map_err(|source| RecoverError::Replay { index, source }),
        WalRecord::Truncate(n) => {
            let n = n as usize;
            if n > monitor.len() || n < monitor.log_floor() {
                return Err(RecoverError::InconsistentRecord {
                    index,
                    detail: format!(
                        "truncate to {n} outside [{}, {}]",
                        monitor.log_floor(),
                        monitor.len()
                    ),
                });
            }
            monitor.truncate_to(n);
            Ok(())
        }
        WalRecord::Floor(floor) => {
            let floor = floor as usize;
            if floor > monitor.len() {
                return Err(RecoverError::InconsistentRecord {
                    index,
                    detail: format!("floor {floor} beyond length {}", monitor.len()),
                });
            }
            monitor.checkpoint(floor);
            Ok(())
        }
        WalRecord::Reset => {
            *monitor = OnlineMonitor::new(scopes.to_vec());
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{state_hash, Checkpoint};
    use crate::wal::{SharedWal, SyncPolicy};
    use pwsr_core::ids::{ItemId, TxnId};
    use pwsr_core::monitor::journal::MonitorJournal;
    use pwsr_core::op::Operation;
    use pwsr_core::value::Value;

    fn scopes() -> Vec<ItemSet> {
        let mut a = ItemSet::new();
        a.insert(ItemId(0));
        a.insert(ItemId(1));
        let mut b = ItemSet::new();
        b.insert(ItemId(2));
        b.insert(ItemId(3));
        vec![a, b]
    }

    /// A monitor journaled into an in-memory WAL, driven through
    /// pushes, an abort (truncate + re-push), and a floor raise;
    /// recovery from the WAL alone must be state-hash-identical.
    #[test]
    fn recover_exact_after_abort_and_floor() {
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let mut live = OnlineMonitor::new(scopes()).with_journal(Box::new(wal.clone()));
        for op in [
            Operation::write(TxnId(1), ItemId(0), Value::Int(1)),
            Operation::read(TxnId(2), ItemId(0), Value::Int(1)),
            Operation::write(TxnId(2), ItemId(2), Value::Int(2)),
        ] {
            live.push_logged(op).unwrap();
        }
        // Abort T2: truncate to 1, then T1 continues.
        live.truncate_to(1);
        live.push_logged(Operation::read(TxnId(1), ItemId(3), Value::Int(0)))
            .unwrap();
        // Floor rises to 1.
        live.checkpoint(1);

        let bytes = wal.dump_bytes().unwrap();
        let rec = recover(scopes(), None, &bytes).unwrap();
        assert_eq!(rec.corruption, None);
        assert_eq!(rec.valid_bytes, bytes.len());
        assert_eq!(state_hash(&rec.monitor), state_hash(&live));
        assert_eq!(rec.monitor.verdict(), live.verdict());
        assert_eq!(rec.monitor.schedule().ops(), live.schedule().ops());
        assert_eq!(rec.monitor.log_floor(), live.log_floor());
    }

    /// A batch-journaled history (framed `OpBatch` records) recovers
    /// byte-identically to the same history journaled op-by-op.
    #[test]
    fn batch_records_recover_identically() {
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let mut live = OnlineMonitor::new(scopes()).with_journal(Box::new(wal.clone()));
        let b1 = vec![
            Operation::write(TxnId(1), ItemId(0), Value::Int(1)),
            Operation::write(TxnId(1), ItemId(2), Value::Int(2)),
        ];
        let b2 = vec![
            Operation::read(TxnId(2), ItemId(0), Value::Int(1)),
            Operation::write(TxnId(2), ItemId(3), Value::Int(7)),
        ];
        for batch in [&b1, &b2] {
            live.push_batch_logged(batch).unwrap();
        }
        // The shared WAL framed each batch as one multi-op record.
        let stats = wal.stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.batch_pushes, 2);
        assert_eq!(stats.batched_ops, 4);
        assert_eq!(stats.max_batch, 2);
        let rec = recover(scopes(), None, &wal.dump_bytes().unwrap()).unwrap();
        assert_eq!(rec.records_applied, 2);
        assert_eq!(state_hash(&rec.monitor), state_hash(&live));
        assert_eq!(rec.monitor.verdict(), live.verdict());
        assert_eq!(rec.monitor.schedule().ops(), live.schedule().ops());
        // A singleton-journaled twin of the same history recovers to
        // the same state hash — the two wire forms are equivalent.
        let wal2 = SharedWal::in_memory(SyncPolicy::Off);
        let mut twin = OnlineMonitor::new(scopes()).with_journal(Box::new(wal2.clone()));
        for op in b1.iter().chain(&b2) {
            twin.push_logged(op.clone()).unwrap();
        }
        let rec2 = recover(scopes(), None, &wal2.dump_bytes().unwrap()).unwrap();
        assert_eq!(state_hash(&rec2.monitor), state_hash(&live));
    }

    #[test]
    fn recover_from_checkpoint_plus_tail() {
        let mut live = OnlineMonitor::new(scopes());
        live.push_logged(Operation::write(TxnId(1), ItemId(0), Value::Int(1)))
            .unwrap();
        live.push_logged(Operation::read(TxnId(2), ItemId(0), Value::Int(1)))
            .unwrap();
        live.checkpoint(2);
        let ckp = Checkpoint::capture(&live, None);

        // Tail written after the checkpoint.
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let mut live = live.with_journal(Box::new(wal.clone()));
        live.push_logged(Operation::write(TxnId(2), ItemId(3), Value::Int(7)))
            .unwrap();

        let rec = recover(scopes(), Some(&ckp), &wal.dump_bytes().unwrap()).unwrap();
        assert_eq!(rec.records_applied, 1);
        assert_eq!(state_hash(&rec.monitor), state_hash(&live));
    }

    #[test]
    fn checkpoint_hash_mismatch_refused() {
        let mut live = OnlineMonitor::new(scopes());
        live.push_logged(Operation::write(TxnId(1), ItemId(0), Value::Int(1)))
            .unwrap();
        live.checkpoint(1);
        let mut ckp = Checkpoint::capture(&live, None);
        ckp.hash.0[0] ^= 0xFF;
        match recover(scopes(), Some(&ckp), &[]) {
            Err(RecoverError::Checkpoint(CheckpointError::HashMismatch { .. })) => {}
            other => panic!("expected hash mismatch, got {other:?}"),
        }
    }

    /// `recover` spelled out from `scan` and the monitor's entry points:
    /// the prefix pushed one operation at a time rather than in
    /// transaction runs, and no record checked before it is applied.
    /// Refusals are carried as their text.
    fn recover_one_by_one(
        scopes: Vec<ItemSet>,
        checkpoint: Option<&Checkpoint>,
        wal_bytes: &[u8],
    ) -> Result<Recovered, String> {
        let mut monitor = OnlineMonitor::new(scopes.clone());
        if let Some(ckp) = checkpoint {
            for op in &ckp.ops {
                monitor
                    .push_logged(op.clone())
                    .map_err(|e| format!("checkpoint: invalid checkpoint prefix: {e}"))?;
            }
            monitor.checkpoint(ckp.floor);
            let actual = state_hash(&monitor);
            if actual != ckp.hash {
                return Err(format!(
                    "checkpoint: checkpoint state-hash mismatch: stored {}, replayed {actual}",
                    ckp.hash
                ));
            }
        }
        let s = scan(wal_bytes);
        for rec in &s.records {
            match rec {
                WalRecord::Op(op) => drop(monitor.push_logged(op.clone()).unwrap()),
                WalRecord::OpBatch(ops) => drop(monitor.push_batch_logged(ops).unwrap()),
                WalRecord::Truncate(n) => drop(monitor.truncate_to(*n as usize)),
                WalRecord::Floor(f) => drop(monitor.checkpoint(*f as usize)),
                WalRecord::Reset => monitor = OnlineMonitor::new(scopes.clone()),
            }
        }
        Ok(Recovered {
            monitor,
            records_applied: s.records.len(),
            valid_bytes: s.valid_bytes,
            corruption: s.corruption,
        })
    }

    /// Both recoveries of one input agree: on every `Recovered` field,
    /// on the monitor's digest, verdict and floor, or on the refusal.
    fn assert_same_recovery(ckp: Option<&Checkpoint>, bytes: &[u8], ctx: &str) {
        let recovered = recover(scopes(), ckp, bytes).map_err(|e| e.to_string());
        let reference = recover_one_by_one(scopes(), ckp, bytes);
        match (recovered, reference) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    (a.records_applied, a.valid_bytes, a.corruption),
                    (b.records_applied, b.valid_bytes, b.corruption),
                    "{ctx}"
                );
                assert_eq!(state_hash(&a.monitor), state_hash(&b.monitor), "{ctx}");
                assert_eq!(a.monitor.verdict(), b.monitor.verdict(), "{ctx}");
                assert_eq!(a.monitor.log_floor(), b.monitor.log_floor(), "{ctx}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}"),
            (a, b) => panic!("{ctx}: recover {a:?}, one by one {b:?}"),
        }
    }

    /// A checkpoint (taken with a live tail above its floor) and a
    /// journal with single operations, batches, an abort's truncate
    /// and a floor raise behind it.
    fn checkpoint_and_journal() -> (Checkpoint, Vec<u8>) {
        use crate::checkpoint::advance_frontier;
        let w = |t, i, v| Operation::write(TxnId(t), ItemId(i), Value::Int(v));
        let r = |t, i, v| Operation::read(TxnId(t), ItemId(i), Value::Int(v));
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let mut live = OnlineMonitor::new(scopes()).with_journal(Box::new(wal.clone()));
        live.push_batch_logged(&[w(1, 0, 1), w(1, 2, 2)]).unwrap();
        live.push_batch_logged(&[r(2, 0, 1), w(2, 3, 3)]).unwrap();
        live.push_batch_logged(&[r(3, 2, 2)]).unwrap();
        live.push_batch_logged(&[r(1, 3, 3)]).unwrap();
        live.finish_txn(TxnId(1));
        live.finish_txn(TxnId(2));
        live.checkpoint(4);
        // Checkpoint below the length: T3's read is re-journaled as
        // the head of the restarted WAL.
        let (ckp, _) = advance_frontier(&mut live, &wal, None);
        assert_eq!((ckp.floor, ckp.ops.len(), live.len()), (4, 4, 6));
        live.push_batch_logged(&[w(3, 1, 4), w(3, 0, 5)]).unwrap();
        live.push_batch_logged(&[r(4, 1, 4), w(4, 2, 6)]).unwrap();
        // Abort T4, then it runs again; the floor follows.
        live.truncate_to(8);
        live.push_batch_logged(&[r(4, 0, 5), w(4, 1, 7)]).unwrap();
        live.checkpoint(8);
        live.push_batch_logged(&[w(5, 3, 8)]).unwrap();
        let bytes = wal.dump_bytes().unwrap();
        let rec = recover(scopes(), Some(&ckp), &bytes).unwrap();
        assert_eq!(rec.monitor.verdict(), live.verdict());
        assert_eq!((rec.records_applied, rec.corruption), (8, None));
        (ckp, bytes)
    }

    /// Recovery equals the one-by-one reference on every input the
    /// journal can be damaged into: cut at every byte, and one bit
    /// flipped in every frame.
    #[test]
    fn recovery_equals_the_one_by_one_reference_on_every_cut_and_flip() {
        let (ckp, bytes) = checkpoint_and_journal();
        for cut in 0..=bytes.len() {
            assert_same_recovery(Some(&ckp), &bytes[..cut], &format!("cut at {cut}"));
        }
        let mut at = 0;
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let frame = crate::wal::FRAME_HEADER + len;
            // Once in the header, once in the payload.
            for byte in [at + 1, at + frame - 1] {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 0x10;
                assert_same_recovery(Some(&ckp), &flipped, &format!("flip in byte {byte}"));
            }
            at += frame;
        }
    }

    /// Refusals keep their order: the prefix, then the hash, then the
    /// tail.
    #[test]
    fn refusals_keep_their_precedence() {
        let (ckp, _) = checkpoint_and_journal();
        // A tail that would be refused on its own, with a torn end.
        let mut bad_tail = WalRecord::Truncate(99).encode_frame();
        bad_tail.extend_from_slice(&[7, 0, 0]);
        match recover(scopes(), Some(&ckp), &bad_tail) {
            Err(RecoverError::InconsistentRecord { index: 0, .. }) => {}
            other => panic!("expected inconsistent record, got {other:?}"),
        }
        // Tampered hash: refused before any tail record is applied.
        let mut tampered = ckp.clone();
        tampered.hash.0[31] ^= 1;
        match recover(scopes(), Some(&tampered), &bad_tail) {
            Err(RecoverError::Checkpoint(CheckpointError::HashMismatch { expected, actual })) => {
                assert_eq!((expected, actual), (tampered.hash, ckp.hash));
            }
            other => panic!("expected hash mismatch, got {other:?}"),
        }
        // Invalid prefix (T1 writes item 0 twice): refused before the
        // hash is looked at.
        let mut invalid = tampered.clone();
        invalid.ops[1] = invalid.ops[0].clone();
        match recover(scopes(), Some(&invalid), &bad_tail) {
            Err(RecoverError::Checkpoint(CheckpointError::InvalidPrefix(_))) => {}
            other => panic!("expected invalid prefix, got {other:?}"),
        }
    }

    /// The degenerate inputs: nothing at all, and a checkpoint with
    /// an empty journal behind it.
    #[test]
    fn empty_inputs_recover() {
        let rec = recover(scopes(), None, &[]).unwrap();
        assert_eq!(
            (rec.monitor.len(), rec.records_applied, rec.valid_bytes),
            (0, 0, 0)
        );
        assert_eq!(rec.corruption, None);
        let (ckp, _) = checkpoint_and_journal();
        let rec = recover(scopes(), Some(&ckp), &[]).unwrap();
        assert_eq!((rec.records_applied, rec.corruption), (0, None));
        assert_eq!(state_hash(&rec.monitor), ckp.hash);
        assert_eq!(rec.monitor.log_floor(), ckp.floor);
    }

    #[test]
    fn inconsistent_truncate_refused() {
        let bytes = {
            let wal = SharedWal::in_memory(SyncPolicy::Off);
            wal.with(|w| w.append(&WalRecord::Truncate(5)));
            wal.dump_bytes().unwrap()
        };
        match recover(scopes(), None, &bytes) {
            Err(RecoverError::InconsistentRecord { index: 0, .. }) => {}
            other => panic!("expected inconsistent record, got {other:?}"),
        }
    }

    /// The shared-frontier pairing end-to-end: a journaled monitor
    /// advances the durable frontier twice (checkpoint → WAL restart →
    /// compact, the second capture chained from the first checkpoint),
    /// then "crashes". Recovery from `checkpoint + truncated WAL`
    /// rebuilds the uncompacted state; re-compacting it to the same
    /// frontier converges on the live monitor's exact resident shape,
    /// and both twins stay verdict-identical on subsequent pushes.
    #[test]
    fn compaction_recovery_round_trip() {
        use crate::checkpoint::advance_frontier;

        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let mut live = OnlineMonitor::new(scopes()).with_journal(Box::new(wal.clone()));
        // Ops 0..3 belong to T1/T2 (which settle); op 3 opens T3.
        for op in [
            Operation::write(TxnId(1), ItemId(0), Value::Int(1)),
            Operation::read(TxnId(2), ItemId(0), Value::Int(1)),
            Operation::write(TxnId(2), ItemId(2), Value::Int(2)),
            Operation::write(TxnId(3), ItemId(3), Value::Int(3)),
        ] {
            live.push_logged(op).unwrap();
        }
        live.finish_txn(TxnId(1));
        live.finish_txn(TxnId(2));
        live.checkpoint(3);

        let (ckp1, stats1) = advance_frontier(&mut live, &wal, None);
        assert_eq!(ckp1.floor, 3);
        assert_eq!((stats1.frontier, stats1.txns_summarized), (3, 2));
        assert_eq!(live.schedule().base(), 3);
        // Checkpoint + truncated WAL already reconstruct this state.
        let rec = recover(scopes(), Some(&ckp1), &wal.dump_bytes().unwrap()).unwrap();
        assert_eq!(rec.monitor.len(), 4);
        assert_eq!(rec.monitor.verdict(), live.verdict());

        // The compacted monitor keeps running: T3 reads across the
        // summarized boundary (its writer was compacted away), T4
        // opens, and the frontier advances again — chained from ckp1,
        // since ops below base 3 no longer exist to snapshot.
        live.push_logged(Operation::read(TxnId(3), ItemId(2), Value::Int(2)))
            .unwrap();
        live.push_logged(Operation::write(TxnId(4), ItemId(1), Value::Int(9)))
            .unwrap();
        live.finish_txn(TxnId(3));
        live.checkpoint(5);
        let (ckp2, stats2) = advance_frontier(&mut live, &wal, Some(&ckp1));
        assert_eq!(ckp2.floor, 5);
        assert_eq!(ckp2.ops.len(), 5, "chained capture spans both epochs");
        assert_eq!(stats2.frontier, 5);
        assert_eq!(live.schedule().base(), 5);

        // Crash. Recovery rebuilds the uncompacted state...
        let rec = recover(scopes(), Some(&ckp2), &wal.dump_bytes().unwrap()).unwrap();
        assert_eq!(rec.corruption, None);
        assert_eq!(rec.records_applied, 1, "only the live tail replays");
        let mut twin = rec.monitor;
        assert_eq!(twin.len(), 6);
        assert_eq!(twin.log_floor(), 5);
        assert_eq!(twin.verdict(), live.verdict());
        // ...and re-compacting to the same frontier converges on the
        // live monitor's exact resident shape.
        for t in [TxnId(1), TxnId(2), TxnId(3)] {
            twin.finish_txn(t);
        }
        twin.compact();
        assert_eq!(twin.schedule().base(), live.schedule().base());
        assert_eq!(twin.schedule().ops(), live.schedule().ops());
        assert_eq!(state_hash(&twin), state_hash(&live));
        // Both twins keep certifying identically past the crash.
        let next = Operation::read(TxnId(4), ItemId(3), Value::Int(3));
        assert_eq!(
            twin.push_logged(next.clone()).unwrap(),
            live.push_logged(next).unwrap()
        );
    }

    #[test]
    fn torn_tail_truncated_not_fatal() {
        let wal = SharedWal::in_memory(SyncPolicy::Off);
        let mut journal: Box<dyn MonitorJournal> = Box::new(wal.clone());
        journal.appended(&Operation::write(TxnId(1), ItemId(0), Value::Int(1)));
        journal.appended(&Operation::read(TxnId(2), ItemId(0), Value::Int(1)));
        let mut bytes = wal.dump_bytes().unwrap();
        bytes.truncate(bytes.len() - 3); // torn final record
        let rec = recover(scopes(), None, &bytes).unwrap();
        assert_eq!(rec.records_applied, 1);
        assert!(rec.corruption.is_some());
        assert_eq!(rec.monitor.len(), 1);
    }
}
