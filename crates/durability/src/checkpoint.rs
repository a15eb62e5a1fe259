//! Hashed checkpoints: a durable snapshot of the monitor's permanent
//! prefix (the operations at or below the retraction floor), sealed
//! with a SHA-256 **state hash** over the schedule prefix, the full
//! verdict ladder, and the floor itself. Recovery rebuilds the prefix,
//! recomputes the hash, and refuses to proceed on any mismatch — so a
//! checkpoint can never silently diverge from the state it claims.
//!
//! # File format (`PWSRCKP1`)
//!
//! ```text
//! magic "PWSRCKP1" | floor u64 LE | n_ops u64 LE |
//!   n_ops × [len u32 LE | op body]               |
//!   state hash [u8; 32] | crc32 u32 LE (all preceding bytes)
//! ```

use std::fmt;

use pwsr_core::monitor::{OnlineMonitor, Verdict};
use pwsr_core::op::Operation;

use crate::crc32::crc32;
use crate::sha256::Sha256;
use crate::wal::encode_op_into;

const MAGIC: &[u8; 8] = b"PWSRCKP1";

/// A 32-byte state digest, hex-printable.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateHash(pub [u8; 32]);

impl fmt::Debug for StateHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StateHash({self})")
    }
}

impl fmt::Display for StateHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

fn hash_opt_index(h: &mut Sha256, idx: Option<pwsr_core::ids::OpIndex>) {
    h.update(&idx.map_or(u64::MAX, |p| p.0 as u64).to_le_bytes());
}

/// The canonical digest of a monitor's observable state: schedule
/// prefix (byte-exact op encoding), every `Verdict` field, and the
/// undo-log floor. Two monitors with equal state hashes agree on the
/// recorded schedule, the entire verdict ladder (level, serializable,
/// DR, all three first-failure positions, both lemma certificates),
/// and which prefix is permanent.
///
/// The digest has two halves: the schedule is absorbed first, then
/// sealed with the verdict and the floor. Only the seal needs a
/// monitor, which is what lets [`recover`](crate::recover::recover)
/// absorb a checkpoint's operations while the monitor is still being
/// rebuilt.
pub fn state_hash(monitor: &OnlineMonitor) -> StateHash {
    seal(
        hash_ops(monitor.schedule().ops()),
        monitor.verdict(),
        monitor.log_floor(),
    )
}

/// The schedule half of [`state_hash`]: the domain tag, the operation
/// count and every operation's length-prefixed byte encoding.
pub(crate) fn hash_ops(ops: &[Operation]) -> Sha256 {
    let mut h = Sha256::new();
    h.update(b"pwsr-state-v1\0");
    h.update(&(ops.len() as u64).to_le_bytes());
    let mut buf = Vec::with_capacity(32);
    for op in ops {
        buf.clear();
        encode_op_into(&mut buf, op);
        h.update(&(buf.len() as u32).to_le_bytes());
        h.update(&buf);
    }
    h
}

/// The verdict half of [`state_hash`]: absorb every `Verdict` field
/// and the undo-log floor behind the schedule, and finish the digest.
pub(crate) fn seal(mut h: Sha256, v: Verdict, floor: usize) -> StateHash {
    h.update(&(v.len as u64).to_le_bytes());
    h.update(&[
        v.level as u8,
        v.serializable as u8,
        v.dr as u8,
        v.lemma2_certified as u8,
        v.lemma6_certified as u8,
    ]);
    hash_opt_index(&mut h, v.first_violation);
    hash_opt_index(&mut h, v.first_non_serializable);
    hash_opt_index(&mut h, v.first_non_dr);
    h.update(&(floor as u64).to_le_bytes());
    StateHash(h.finalize())
}

/// A snapshot of the permanent prefix: the `floor` operations at or
/// below the retraction floor, plus the state hash of the monitor
/// state those operations reconstruct (floor raised to `floor`).
///
/// Scopes are *not* stored: a checkpoint is only meaningful to the
/// owner of the monitor configuration, which supplies them at
/// recovery — the hash then proves the combination is the right one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The retraction floor at capture time.
    pub floor: usize,
    /// The schedule prefix `[0, floor)`.
    pub ops: Vec<Operation>,
    /// State hash of the floor-prefix monitor (see [`state_hash`]).
    pub hash: StateHash,
}

/// Why a checkpoint failed to decode or validate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Shorter than its fixed framing.
    Truncated,
    /// The first 8 bytes are not `PWSRCKP1`.
    BadMagic,
    /// The trailing CRC-32 does not match.
    BadCrc,
    /// Structurally invalid (op count / lengths inconsistent).
    Malformed,
    /// Replaying the stored prefix produced a different state hash
    /// than the checkpoint claims (wrong scopes, or tampered file).
    HashMismatch {
        /// The hash the checkpoint file claims.
        expected: StateHash,
        /// The hash the replayed prefix actually produced.
        actual: StateHash,
    },
    /// The stored prefix is not even a valid schedule (§2.2).
    InvalidPrefix(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::BadCrc => write!(f, "checkpoint CRC mismatch"),
            CheckpointError::Malformed => write!(f, "malformed checkpoint"),
            CheckpointError::HashMismatch { expected, actual } => {
                write!(
                    f,
                    "checkpoint state-hash mismatch: stored {expected}, replayed {actual}"
                )
            }
            CheckpointError::InvalidPrefix(e) => write!(f, "invalid checkpoint prefix: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Capture the permanent prefix of `monitor`. The hash is computed
    /// by replaying the prefix into a fresh twin — O(floor), and
    /// self-validating: capture fails loudly (panics) if the prefix
    /// does not replay, which would indicate monitor corruption.
    ///
    /// # Panics
    ///
    /// If the monitor has already **compacted** part of its schedule
    /// away (`schedule().base() > 0`) the summarized operations no
    /// longer exist to snapshot; chain from the checkpoint that covers
    /// them with [`Checkpoint::capture_after`] instead.
    pub fn capture(monitor: &OnlineMonitor) -> Checkpoint {
        assert_eq!(
            monitor.schedule().base(),
            0,
            "monitor has compacted its prefix away; chain from the \
             previous checkpoint with Checkpoint::capture_after"
        );
        let floor = monitor.log_floor();
        let ops = monitor.schedule().ops()[..floor].to_vec();
        let twin = replay_prefix(monitor.scopes().to_vec(), &ops, floor)
            .expect("a monitor's own permanent prefix must replay");
        Checkpoint {
            floor,
            ops,
            hash: state_hash(&twin),
        }
    }

    /// Capture the permanent prefix of a monitor that may already have
    /// **compacted** ([`OnlineMonitor::compact`]) part of that prefix
    /// away, by chaining from the previous checkpoint: `prev` supplies
    /// the operations below its own floor (which by the frontier
    /// invariant covers everything the monitor summarized), and the
    /// monitor's live tail supplies the rest up to the current floor.
    /// The stored hash is, as in [`Checkpoint::capture`], that of the
    /// *uncompacted* floor-prefix twin — so recovery validates it the
    /// same way whether or not compaction ever ran.
    ///
    /// # Panics
    ///
    /// If `prev` does not reach the monitor's compaction point
    /// (`prev.floor < schedule().base()`), or the floor regressed
    /// below `prev.floor` — both impossible for checkpoints taken from
    /// this monitor in order.
    pub fn capture_after(prev: &Checkpoint, monitor: &OnlineMonitor) -> Checkpoint {
        let floor = monitor.log_floor();
        let base = monitor.schedule().base();
        assert!(
            prev.floor >= base,
            "previous checkpoint (floor {}) does not cover the \
             summarized prefix (base {base})",
            prev.floor
        );
        assert!(
            floor >= prev.floor,
            "retraction floor {floor} regressed below the previous \
             checkpoint's floor {}",
            prev.floor
        );
        let mut ops = prev.ops.clone();
        ops.extend_from_slice(&monitor.schedule().ops()[prev.floor - base..floor - base]);
        let twin = replay_prefix(monitor.scopes().to_vec(), &ops, floor)
            .expect("a monitor's own permanent prefix must replay");
        Checkpoint {
            floor,
            ops,
            hash: state_hash(&twin),
        }
    }

    /// Serialize to the `PWSRCKP1` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.ops.len() * 24);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.floor as u64).to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u64).to_le_bytes());
        let mut buf = Vec::with_capacity(32);
        for op in &self.ops {
            buf.clear();
            encode_op_into(&mut buf, op);
            out.extend_from_slice(&(buf.len() as u32).to_le_bytes());
            out.extend_from_slice(&buf);
        }
        out.extend_from_slice(&self.hash.0);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode and CRC-validate (the hash is *not* replay-verified
    /// here; that happens at [`recover`](crate::recover::recover),
    /// which has the scopes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < MAGIC.len() + 8 + 8 + 32 + 4 {
            return Err(CheckpointError::Truncated);
        }
        if &bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != crc {
            return Err(CheckpointError::BadCrc);
        }
        let floor = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
        let n_ops = u64::from_le_bytes(body[16..24].try_into().unwrap()) as usize;
        let mut at = 24usize;
        let mut ops = Vec::with_capacity(n_ops.min(1 << 20));
        for _ in 0..n_ops {
            let len_raw = body.get(at..at + 4).ok_or(CheckpointError::Malformed)?;
            let len = u32::from_le_bytes(len_raw.try_into().unwrap()) as usize;
            at += 4;
            let op_bytes = body.get(at..at + len).ok_or(CheckpointError::Malformed)?;
            let rec = crate::wal::WalRecord::decode_op_body(op_bytes)
                .ok_or(CheckpointError::Malformed)?;
            ops.push(rec);
            at += len;
        }
        if at + 32 != body.len() {
            return Err(CheckpointError::Malformed);
        }
        let mut hash = [0u8; 32];
        hash.copy_from_slice(&body[at..at + 32]);
        Ok(Checkpoint {
            floor,
            ops,
            hash: StateHash(hash),
        })
    }
}

/// Advance the shared durable frontier in one motion — the
/// checkpoint / WAL-truncation / compaction pairing PR 7 deferred:
///
/// 1. **Checkpoint** the permanent prefix (chained via
///    [`Checkpoint::capture_after`] when `prev` is supplied, so the
///    monitor may already be compacted);
/// 2. **Restart the WAL** ([`Wal::restart`](crate::wal::Wal::restart))
///    and re-journal the live tail above the floor, so
///    `checkpoint + WAL` still reconstructs the exact monitor state —
///    everything below the floor now lives only in the checkpoint;
/// 3. **Compact** the monitor's committed prefix
///    ([`OnlineMonitor::compact`]), reclaiming the structures the
///    checkpoint just made durable.
///
/// Returns the new checkpoint (persist it before trusting the
/// truncated WAL!) and the compaction stats. The caller must quiesce
/// the monitor for the duration — this is a maintenance operation,
/// not a concurrent one — and should note the WAL is truncated *in
/// place*: a crash between steps 2 and 3 with the checkpoint not yet
/// persisted loses the prefix, so persist-then-restart ordering is on
/// the caller when the WAL and checkpoint live on real storage.
///
/// Recovery after this call is `recover(scopes, Some(&ckp), wal)` —
/// it rebuilds the *uncompacted* state and may then re-run
/// `finish_txn`/`compact` to reach the same resident shape; verdicts
/// agree either way (the twin-harness property).
pub fn advance_frontier(
    monitor: &mut OnlineMonitor,
    wal: &crate::wal::SharedWal,
    prev: Option<&Checkpoint>,
) -> (Checkpoint, pwsr_core::monitor::CompactStats) {
    let ckp = match prev {
        Some(p) => Checkpoint::capture_after(p, monitor),
        None => Checkpoint::capture(monitor),
    };
    let base = monitor.schedule().base();
    let tail = &monitor.schedule().ops()[ckp.floor - base..];
    wal.with(|w| {
        w.restart();
        for op in tail {
            w.append_op(op);
        }
        w.sync();
    });
    let stats = monitor.compact();
    (ckp, stats)
}

/// Replay `ops` into a fresh monitor over `scopes` and raise the floor
/// to `floor` — the canonical "rebuild the checkpoint state" step.
/// Each maximal run of one transaction's consecutive operations goes
/// through [`OnlineMonitor::push_batch_logged`] as one admission (a
/// run of one included): the state reached is that of pushing the
/// operations singly, and so is the error if the prefix is not a
/// valid schedule — the first malformed operation's, in either form.
pub(crate) fn replay_prefix(
    scopes: Vec<pwsr_core::state::ItemSet>,
    ops: &[Operation],
    floor: usize,
) -> Result<OnlineMonitor, pwsr_core::error::CoreError> {
    let mut m = OnlineMonitor::new(scopes);
    for run in ops.chunk_by(|a, b| a.txn == b.txn) {
        m.push_batch_logged(run)?;
    }
    m.checkpoint(floor);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::ids::{ItemId, TxnId};
    use pwsr_core::state::ItemSet;
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

    fn sample_monitor() -> OnlineMonitor {
        let mut m = OnlineMonitor::new(scopes());
        m.push_logged(Operation::write(TxnId(1), ItemId(0), Value::Int(5)))
            .unwrap();
        m.push_logged(Operation::read(TxnId(2), ItemId(0), Value::Int(5)))
            .unwrap();
        m.push_logged(Operation::write(TxnId(2), ItemId(2), Value::Int(9)))
            .unwrap();
        m.push_logged(Operation::read(TxnId(1), ItemId(3), Value::Int(0)))
            .unwrap();
        m.checkpoint(2);
        m
    }

    #[test]
    fn state_hash_is_deterministic_and_sensitive() {
        let m1 = sample_monitor();
        let m2 = sample_monitor();
        assert_eq!(state_hash(&m1), state_hash(&m2));
        let mut m3 = sample_monitor();
        m3.push_logged(Operation::write(TxnId(3), ItemId(1), Value::Int(1)))
            .unwrap();
        assert_ne!(state_hash(&m1), state_hash(&m3));
        // Floor alone changes the hash: same schedule, different
        // permanent prefix.
        let mut m4 = sample_monitor();
        m4.checkpoint(3);
        assert_ne!(state_hash(&m1), state_hash(&m4));
    }

    /// The digest of a fixed monitor, as recorded from `state_hash`
    /// before it was split into [`hash_ops`] and [`seal`]: the split
    /// (and anything later done to either half) may not move a byte.
    #[test]
    fn state_hash_golden_value_survives_the_split() {
        let m = sample_monitor();
        assert_eq!(
            state_hash(&m).to_string(),
            "7838418025bd827ec78c8e1b11c5ecd87e16e9428b2c66a2f115c084c4c9b06c"
        );
        // The two halves, composed by hand the way `recover` does.
        let by_halves = seal(hash_ops(m.schedule().ops()), m.verdict(), m.log_floor());
        assert_eq!(by_halves, state_hash(&m));
    }

    /// `replay_prefix` admits maximal same-transaction runs as
    /// batches; on a prefix whose transactions interleave (runs of
    /// one, two and three, and a transaction that comes back) it
    /// reaches the state of the one-by-one loop: same digest, same
    /// resident shape. An invalid prefix is refused with the same
    /// error wherever in a run the malformed operation sits.
    #[test]
    fn batched_prefix_replay_equals_one_by_one() {
        let w = |t, i, v| Operation::write(TxnId(t), ItemId(i), Value::Int(v));
        let r = |t, i, v| Operation::read(TxnId(t), ItemId(i), Value::Int(v));
        let ops = vec![
            w(1, 0, 1),
            r(2, 0, 1),
            w(2, 2, 2),
            r(1, 2, 2),
            w(3, 1, 3),
            r(3, 3, 0),
            w(3, 0, 4),
            r(2, 1, 3),
            w(1, 3, 5),
        ];
        let floor = 6;
        let one_by_one = |ops: &[Operation]| {
            let mut m = OnlineMonitor::new(scopes());
            for op in ops {
                m.push_logged(op.clone())?;
            }
            m.checkpoint(floor);
            Ok::<_, pwsr_core::error::CoreError>(m)
        };
        let batched = replay_prefix(scopes(), &ops, floor).unwrap();
        let single = one_by_one(&ops).unwrap();
        assert_eq!(state_hash(&batched), state_hash(&single));
        assert_eq!(batched.log_floor(), floor);
        assert_eq!(
            batched.resident_bytes_estimate(),
            single.resident_bytes_estimate()
        );
        // T3 writes item 1 twice, at the end of its run of three.
        let mut invalid = ops.clone();
        invalid[6] = w(3, 1, 4);
        assert_eq!(
            replay_prefix(scopes(), &invalid, floor)
                .unwrap_err()
                .to_string(),
            one_by_one(&invalid).unwrap_err().to_string()
        );
    }

    #[test]
    fn capture_roundtrip() {
        let m = sample_monitor();
        let ckp = Checkpoint::capture(&m);
        assert_eq!(ckp.floor, 2);
        assert_eq!(ckp.ops.len(), 2);
        let bytes = ckp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckp);
    }

    #[test]
    fn corruption_rejected() {
        let bytes = Checkpoint::capture(&sample_monitor()).to_bytes();
        assert_eq!(
            Checkpoint::from_bytes(&bytes[..10]),
            Err(CheckpointError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            Checkpoint::from_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        );
        for i in 8..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert_eq!(
                Checkpoint::from_bytes(&flipped),
                Err(CheckpointError::BadCrc),
                "flip at byte {i} not caught by CRC"
            );
        }
    }
}
