//! # `pwsr_durability` — WAL, hashed checkpoints, crash recovery
//!
//! The durability layer behind the online monitors: every admitted
//! operation (and every retraction) streams into an append-only,
//! length-prefixed, CRC-32-checksummed **write-ahead log** via the
//! [`MonitorJournal`](pwsr_core::monitor::journal::MonitorJournal)
//! hook; periodic **hashed checkpoints** snapshot the permanent
//! prefix below the retraction floor under a SHA-256 state digest;
//! and **recovery** rebuilds a byte-identical monitor from
//! `checkpoint + WAL tail`, truncating (never replaying) torn or
//! bit-flipped tails.
//!
//! Recovery is mostly the monitor re-certifying the recorded history;
//! what this crate adds to it — scanning, checksumming, hashing — is
//! kept beside that work, not in front of it. A recovery from a
//! checkpoint runs in two lanes: the journal scan and the schedule
//! half of the checkpoint's state hash on a scoped helper thread, the
//! prefix replay on the caller's (see [`mod@recover`]). The CRC-32
//! folds eight bytes per step (`crc32`), and the checkpoint prefix
//! is replayed in whole-transaction runs. None of it is observable:
//! digests, verdicts and refusals are those of doing every step in
//! sequence, one byte and one operation at a time.
//!
//! The crate is dependency-free by design (the container is offline):
//! CRC-32 and SHA-256 are implemented here, against published test
//! vectors.
//!
//! | module | contents |
//! |---|---|
//! | [`wal`] | frame format, [`Wal`]/[`SharedWal`], sync/error policies, corruption-detecting scan |
//! | [`checkpoint`] | [`state_hash`] (schedule half + verdict seal), the `PWSRCKP1` checkpoint format, [`advance_frontier`] |
//! | [`mod@recover`] | [`recover`](recover::recover): checkpoint replay beside scan + hash, then tail replay |
//! | [`fault`] | the deterministic chaos plane: `FaultPlan` and its fault points |
//! | `crc32`, `sha256` | the hand-rolled checksums (CRC-32 slicing-by-8) |

#![warn(missing_docs)]

pub mod checkpoint;
mod crc32;
pub mod fault;
pub mod recover;
mod sha256;
pub mod wal;

pub use checkpoint::{advance_frontier, state_hash, Checkpoint, StateHash};
pub use recover::recover;
pub use wal::{scan, SharedWal, SyncPolicy, Wal, WalRecord, WalScan};
