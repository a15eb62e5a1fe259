//! The write-ahead log: an append-only stream of length-prefixed,
//! CRC-32-checksummed records capturing every state transition of a
//! monitor (see `pwsr_core::monitor::journal::MonitorJournal`).
//!
//! # Frame format
//!
//! ```text
//! +----------------+----------------+===========+
//! | len: u32 LE    | crc32: u32 LE  |  payload  |
//! +----------------+----------------+===========+
//! ```
//!
//! `len` is the payload length; `crc32` covers the payload only. The
//! reader stops at the first anomaly — torn header, torn payload,
//! checksum mismatch, or malformed payload — and reports the longest
//! valid record prefix, never silently replaying damaged bytes.
//!
//! # Record payloads
//!
//! | tag | record | body |
//! |---|---|---|
//! | 1 | `Op` | txn `u32` LE, item `u32` LE, action `u8` (0=read, 1=write), value (tagged) |
//! | 2 | `Truncate` | new length `u64` LE |
//! | 3 | `Floor` | floor `u64` LE |
//! | 4 | `Reset` | (empty) |
//! | 5 | `OpBatch` | one or more `Op` bodies back to back, never empty |
//!
//! `Reset` is replayed (recovery starts a fresh monitor there), but
//! nothing writes it: both monitors retract through their undo-logs.
//!
//! Value encoding: tag `u8` — 0 = `Int` + `i64` LE, 1 = `Bool` + `u8`,
//! 2 = `Str` + `u32` LE byte length + UTF-8 bytes.
//!
//! A [`Wal`] frames every append straight from the caller's record or
//! operations into one buffer it keeps: the header's room first, then
//! the payload, then the length and checksum over that room. After
//! warm-up an append allocates nothing. [`WalRecord::encode_frame`]
//! runs the same framing into a fresh buffer.
//!
//! # Where the fsync runs
//!
//! [`SyncPolicy::PerRecord`] and every explicit [`Wal::sync`] call
//! `sync_data` on the calling thread. A [`SyncPolicy::Batched`] due
//! point on a file sink does not: the appending thread consults the
//! fault plane and flushes the `BufWriter`, then hands the `sync_data`
//! to the WAL's own sync thread and returns. That thread, started at
//! the first hand-off, calls `sync_data` once per hand-off, in order,
//! on a cloned descriptor of the same file. A failed hand-off or
//! background fsync is recorded, and the WAL's next call applies it
//! through the error policy as a failed sync step. [`Wal::sync`]
//! first waits for every handed-off fsync, and dropping the WAL joins
//! the thread after every one has completed.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::journal::MonitorJournal;
use pwsr_core::op::{Action, Operation};
use pwsr_core::value::Value;

use crate::crc32::crc32;
use crate::fault::{FaultHandle, WalFault, WalSite};

/// Bytes of the `[len][crc]` frame header.
pub(crate) const FRAME_HEADER: usize = 8;

/// One logical WAL record — the replay language of
/// [`MonitorJournal`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// An operation appended to the recorded schedule.
    Op(Operation),
    /// A contiguous run of operations appended by one batch admission
    /// (one frame, one checksum, one sync-policy tick for the whole
    /// run). Replays exactly as the equivalent sequence of
    /// [`WalRecord::Op`] records; never empty on the wire.
    OpBatch(Vec<Operation>),
    /// The schedule was truncated to its first `n` operations.
    Truncate(u64),
    /// The retraction floor rose to `floor`.
    Floor(u64),
    /// The monitor was replaced by a fresh one; appends follow.
    /// Replayed for logs that hold it, but nothing writes it.
    Reset,
}

const TAG_OP: u8 = 1;
const TAG_TRUNCATE: u8 = 2;
const TAG_FLOOR: u8 = 3;
const TAG_RESET: u8 = 4;
const TAG_OP_BATCH: u8 = 5;

const VAL_INT: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_STR: u8 = 2;

/// Encode an operation body (no tag byte) into `buf`. Shared with the
/// checkpoint format and the state hash, so all three agree on the
/// byte-level representation of an operation.
pub fn encode_op_into(buf: &mut Vec<u8>, op: &Operation) {
    buf.extend_from_slice(&op.txn.0.to_le_bytes());
    buf.extend_from_slice(&op.item.0.to_le_bytes());
    buf.push(match op.action {
        Action::Read => 0,
        Action::Write => 1,
    });
    match &op.value {
        Value::Int(i) => {
            buf.push(VAL_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Bool(b) => {
            buf.push(VAL_BOOL);
            buf.push(*b as u8);
        }
        Value::Str(s) => {
            buf.push(VAL_STR);
            let bytes = s.as_bytes();
            buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            buf.extend_from_slice(bytes);
        }
    }
}

fn decode_op(body: &[u8]) -> Option<(Operation, usize)> {
    if body.len() < 10 {
        return None;
    }
    let txn = TxnId(u32::from_le_bytes(body[0..4].try_into().ok()?));
    let item = ItemId(u32::from_le_bytes(body[4..8].try_into().ok()?));
    let action = match body[8] {
        0 => Action::Read,
        1 => Action::Write,
        _ => return None,
    };
    let (value, used) = match body[9] {
        VAL_INT => {
            let raw = body.get(10..18)?;
            (Value::Int(i64::from_le_bytes(raw.try_into().ok()?)), 18)
        }
        VAL_BOOL => {
            let raw = *body.get(10)?;
            if raw > 1 {
                return None;
            }
            (Value::Bool(raw == 1), 11)
        }
        VAL_STR => {
            let len = u32::from_le_bytes(body.get(10..14)?.try_into().ok()?) as usize;
            let raw = body.get(14..14 + len)?;
            let s = std::str::from_utf8(raw).ok()?;
            (Value::Str(Arc::from(s)), 14 + len)
        }
        _ => return None,
    };
    Some((
        Operation {
            txn,
            action,
            item,
            value,
        },
        used,
    ))
}

/// Frame the payload `encode` writes: clear `buf`, reserve the
/// `[len][crc]` header, let `encode` append the payload behind it, and
/// write the header over the reservation. The one framing routine: a
/// [`Wal`] frames every append into the buffer it keeps, and
/// [`WalRecord::encode_frame`] into a fresh one.
fn frame_into(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    buf.clear();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    encode(buf);
    let (header, payload) = buf.split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// The payload of a [`WalRecord::Op`] holding `op`.
fn op_payload(buf: &mut Vec<u8>, op: &Operation) {
    buf.push(TAG_OP);
    encode_op_into(buf, op);
}

/// The payload of a [`WalRecord::OpBatch`] holding `ops`. Op bodies
/// are self-delimiting, so the batch needs no count prefix — decode
/// consumes bodies to exhaustion.
fn batch_payload(buf: &mut Vec<u8>, ops: &[Operation]) {
    buf.push(TAG_OP_BATCH);
    for op in ops {
        encode_op_into(buf, op);
    }
}

impl WalRecord {
    /// Encode this record's payload (tag + body) into `buf`.
    fn encode_payload_into(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Op(op) => op_payload(buf, op),
            WalRecord::OpBatch(ops) => batch_payload(buf, ops),
            WalRecord::Truncate(n) => {
                buf.push(TAG_TRUNCATE);
                buf.extend_from_slice(&n.to_le_bytes());
            }
            WalRecord::Floor(f) => {
                buf.push(TAG_FLOOR);
                buf.extend_from_slice(&f.to_le_bytes());
            }
            WalRecord::Reset => buf.push(TAG_RESET),
        }
    }

    /// Encode this record as a complete checksummed frame, in a fresh
    /// buffer: the bytes [`Wal::append`] writes for it.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        frame_into(&mut frame, |buf| self.encode_payload_into(buf));
        frame
    }

    /// Decode an operation body as produced by [`encode_op_into`],
    /// requiring full consumption (the checkpoint format stores bare
    /// op bodies with their own length prefixes).
    pub(crate) fn decode_op_body(body: &[u8]) -> Option<Operation> {
        let (op, used) = decode_op(body)?;
        (used == body.len()).then_some(op)
    }

    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, body) = payload.split_first()?;
        match tag {
            TAG_OP => {
                let (op, used) = decode_op(body)?;
                (used == body.len()).then_some(WalRecord::Op(op))
            }
            TAG_OP_BATCH => {
                let mut ops = Vec::new();
                let mut rest = body;
                while !rest.is_empty() {
                    let (op, used) = decode_op(rest)?;
                    ops.push(op);
                    rest = &rest[used..];
                }
                (!ops.is_empty()).then_some(WalRecord::OpBatch(ops))
            }
            TAG_TRUNCATE => (body.len() == 8)
                .then(|| WalRecord::Truncate(u64::from_le_bytes(body.try_into().unwrap()))),
            TAG_FLOOR => (body.len() == 8)
                .then(|| WalRecord::Floor(u64::from_le_bytes(body.try_into().unwrap()))),
            TAG_RESET => body.is_empty().then_some(WalRecord::Reset),
            _ => None,
        }
    }
}

/// Why a WAL scan stopped before the end of the byte stream. In every
/// case the scan's `valid_bytes` marks the longest cleanly-checksummed
/// record prefix; bytes past it are discarded, never replayed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalCorruption {
    /// Fewer than `FRAME_HEADER` bytes remained at offset `at`.
    TornHeader {
        /// Byte offset of the torn header.
        at: usize,
    },
    /// The header at `at` promised `want` payload bytes but only
    /// `have` remained (a torn final record).
    TornPayload {
        /// Byte offset of the frame whose payload is torn.
        at: usize,
        /// Payload bytes the header promised.
        want: usize,
        /// Payload bytes actually present.
        have: usize,
    },
    /// The payload at `at` failed its CRC-32 (bit rot / torn write).
    ChecksumMismatch {
        /// Byte offset of the damaged frame.
        at: usize,
    },
    /// The payload at `at` checksummed cleanly but did not decode —
    /// an unknown tag or malformed body.
    MalformedPayload {
        /// Byte offset of the undecodable frame.
        at: usize,
    },
}

impl fmt::Display for WalCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalCorruption::TornHeader { at } => write!(f, "torn frame header at byte {at}"),
            WalCorruption::TornPayload { at, want, have } => {
                write!(
                    f,
                    "torn payload at byte {at} (want {want} bytes, have {have})"
                )
            }
            WalCorruption::ChecksumMismatch { at } => write!(f, "checksum mismatch at byte {at}"),
            WalCorruption::MalformedPayload { at } => write!(f, "malformed payload at byte {at}"),
        }
    }
}

/// Result of scanning a WAL byte stream.
#[derive(Clone, Debug)]
pub struct WalScan {
    /// Records decoded from the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (`== input.len()` iff clean).
    pub valid_bytes: usize,
    /// `None` on a clean end-of-log; otherwise why the scan stopped.
    pub corruption: Option<WalCorruption>,
}

/// Scan `bytes` for checksummed records, stopping cleanly at the first
/// anomaly.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    let corruption = loop {
        if at == bytes.len() {
            break None;
        }
        if bytes.len() - at < FRAME_HEADER {
            break Some(WalCorruption::TornHeader { at });
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let have = bytes.len() - at - FRAME_HEADER;
        if len > have {
            break Some(WalCorruption::TornPayload {
                at,
                want: len,
                have,
            });
        }
        let payload = &bytes[at + FRAME_HEADER..at + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break Some(WalCorruption::ChecksumMismatch { at });
        }
        match WalRecord::decode_payload(payload) {
            Some(rec) => records.push(rec),
            None => break Some(WalCorruption::MalformedPayload { at }),
        }
        at += FRAME_HEADER + len;
    };
    WalScan {
        records,
        valid_bytes: at,
        corruption,
    }
}

/// When the WAL forces written bytes down to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every record, on the appending thread: an append
    /// returns once its record is durable. Maximum durability, slowest.
    PerRecord,
    /// `fsync` once every `n` records. The appending thread flushes the
    /// records to the file and hands the `fsync` to the WAL's sync
    /// thread without waiting for it. [`Wal::sync`] waits for every
    /// handed-off `fsync`, then syncs on the calling thread. A failed
    /// one is applied by the WAL's next call, as a failed sync.
    Batched(usize),
    /// Never `fsync` (the OS flushes on its own schedule); still
    /// flushed on [`Wal::sync`] and drop.
    #[default]
    Off,
}

/// Append/byte/fsync counters, mirrored into the scheduler's
/// `Metrics` at end of run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Frame bytes written (header + payload).
    pub bytes: u64,
    /// Explicit syncs issued (counted even for the in-memory sink, so
    /// policy behaviour is testable without touching a filesystem). A
    /// `Batched` one counts when handed to the sync thread, and stops
    /// counting if it fails there, as a failed sync never counts.
    pub fsyncs: u64,
    /// I/O errors observed (including ones the error policy healed).
    pub io_errors: u64,
    /// Appends/syncs/rotations that succeeded only after a retry.
    pub retries: u64,
    /// Records discarded because the WAL was already fail-stopped.
    /// Non-zero means durable history is missing — the caller must
    /// surface it, never ignore it.
    pub dropped_records: u64,
    /// Faults the chaos plane fired inside this WAL.
    pub injected_faults: u64,
    /// Multi-op [`WalRecord::OpBatch`] records appended.
    pub batch_pushes: u64,
    /// Operations carried inside those batch records.
    pub batched_ops: u64,
    /// Largest single batch appended.
    pub max_batch: u64,
    /// True once the WAL degraded from its file sink to memory.
    pub degraded: bool,
}

/// How the WAL responds to an I/O error, replacing the old silent
/// sticky-drop with an explicit, surfaced choice. The policy applies
/// alike to all three sites — append, sync and rotation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WalErrorPolicy {
    /// Keep the first error sticky, drop (and count) every later
    /// record, and surface the error through [`Wal::io_error`] /
    /// [`SharedWal::take_error`] so the admission path can refuse to
    /// report success.
    #[default]
    FailStop,
    /// Before every re-attempt, repair the sink to its last valid
    /// frame boundary; then re-attempt the failed append, sync or
    /// rotation, up to `attempts` times with exponential backoff
    /// capped at `cap_us` microseconds. Escalates to the fail-stop
    /// behaviour when the attempts run out.
    RetryBackoff {
        /// Maximum re-attempts after the initial failure.
        attempts: u32,
        /// Backoff cap in microseconds.
        cap_us: u64,
    },
    /// Abandon the failing file sink for memory, then attempt the
    /// failed append, sync or rotation once more there. Nothing is
    /// lost: the logical log is the surviving file prefix concatenated
    /// with the memory tail, reassembled by [`Wal::dump_bytes`]
    /// (frames are self-delimiting, so the concatenation scans
    /// cleanly). Durability is reduced, not correctness — and the
    /// degradation is visible in [`WalStats::degraded`].
    DegradeToMemory,
}

enum Sink {
    Mem(Vec<u8>),
    /// The `BufWriter` flushes itself when the WAL is dropped.
    File {
        writer: BufWriter<File>,
        path: PathBuf,
    },
}

impl Sink {
    /// Cut the log back to its first `len` bytes: the repair after a
    /// torn write, and (with `len == 0`) the rotation.
    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        match self {
            Sink::Mem(buf) => {
                buf.truncate(len as usize);
                Ok(())
            }
            Sink::File { writer, .. } => {
                // Buffered bytes must reach the file before the cut,
                // or a later flush would land them behind it.
                writer.flush()?;
                writer.get_mut().set_len(len)?;
                writer.get_mut().seek(SeekFrom::Start(len)).map(|_| ())
            }
        }
    }
}

impl fmt::Debug for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sink::Mem(buf) => write!(f, "Mem({} bytes)", buf.len()),
            Sink::File { path, .. } => write!(f, "File({})", path.display()),
        }
    }
}

/// The WAL's sync thread: one `sync_data` per [`Syncer::request`], in
/// request order, on its own descriptor of the sink's file.
#[derive(Debug)]
struct Syncer {
    queue: Arc<SyncQueue>,
    thread: Option<JoinHandle<()>>,
}

#[derive(Debug, Default)]
struct SyncQueue {
    state: Mutex<SyncState>,
    /// Signalled on a request, a completion and the close.
    changed: Condvar,
    /// Raised after a push to `state.failures`, so the WAL's calls
    /// look for one without the lock; the failures are read under it.
    failed: AtomicBool,
}

#[derive(Debug, Default)]
struct SyncState {
    requested: u64,
    done: u64,
    failures: Vec<std::io::Error>,
    closed: bool,
}

impl Syncer {
    fn start(file: File) -> std::io::Result<Syncer> {
        let queue = Arc::new(SyncQueue::default());
        let served = Arc::clone(&queue);
        let thread = std::thread::Builder::new()
            .name("wal-sync".into())
            .spawn(move || served.serve(&file))?;
        Ok(Syncer {
            queue,
            thread: Some(thread),
        })
    }

    fn request(&self) {
        self.queue.state.lock().requested += 1;
        self.queue.changed.notify_all();
    }

    /// Block until every requested `sync_data` has returned.
    fn wait_idle(&self) {
        let mut state = self.queue.state.lock();
        while state.done < state.requested {
            state = self.queue.changed.wait(state);
        }
    }

    fn take_failures(&self) -> Vec<std::io::Error> {
        if !self.queue.failed.load(Ordering::Relaxed) {
            return Vec::new();
        }
        self.queue.failed.store(false, Ordering::Relaxed);
        std::mem::take(&mut self.queue.state.lock().failures)
    }
}

impl SyncQueue {
    fn serve(&self, file: &File) {
        let mut state = self.state.lock();
        loop {
            if state.done < state.requested {
                drop(state);
                let synced = file.sync_data();
                state = self.state.lock();
                state.done += 1;
                if let Err(e) = synced {
                    state.failures.push(e);
                    self.failed.store(true, Ordering::Relaxed);
                }
                self.changed.notify_all();
            } else if state.closed {
                return;
            } else {
                state = self.changed.wait(state);
            }
        }
    }
}

impl Drop for Syncer {
    fn drop(&mut self) {
        self.queue.state.lock().closed = true;
        self.queue.changed.notify_all();
        if let Some(thread) = self.thread.take() {
            // The thread serves every request before it sees the close.
            let _ = thread.join();
        }
    }
}

/// An append-only write-ahead log over an in-memory buffer or a file.
///
/// I/O errors are handled by the configured [`WalErrorPolicy`]; an
/// error the policy cannot heal becomes sticky, is reported by
/// [`Wal::io_error`] / `Wal::take_io_error`, and every subsequent
/// append is dropped *and counted* ([`WalStats::dropped_records`]) —
/// the journal callbacks have no error channel, so the owner polls at
/// sync points and must refuse to report durable success while an
/// error is pending. A `Batched` fsync failure surfaces at the call
/// after it (see the module docs); after [`Wal::sync`] none is left
/// unapplied.
#[derive(Debug)]
pub struct Wal {
    sink: Sink,
    policy: SyncPolicy,
    error_policy: WalErrorPolicy,
    faults: Option<FaultHandle>,
    pending: usize,
    stats: WalStats,
    io_error: Option<std::io::Error>,
    /// Byte length of the valid frame prefix in the *current* sink
    /// (unlike `stats.bytes`, resets on rotation) — the repair target
    /// after a torn write.
    good_len: u64,
    /// Set when a file sink degraded to memory: the abandoned path and
    /// the length of its surviving valid prefix.
    degraded_prefix: Option<(PathBuf, u64)>,
    /// A `Batched` due point's failure on the appending thread
    /// (injected, or met flushing or handing off), waiting for the
    /// next call.
    deferred: Option<std::io::Error>,
    /// Started at the first `Batched` hand-off on a file sink.
    syncer: Option<Syncer>,
    /// The frame of the latest append, kept so that framing allocates
    /// nothing once the buffer has grown to the largest record.
    frame: Vec<u8>,
}

impl Wal {
    fn new(sink: Sink, policy: SyncPolicy) -> Wal {
        Wal {
            sink,
            policy,
            error_policy: WalErrorPolicy::default(),
            faults: None,
            pending: 0,
            stats: WalStats::default(),
            io_error: None,
            good_len: 0,
            degraded_prefix: None,
            deferred: None,
            syncer: None,
            frame: Vec::new(),
        }
    }

    /// An in-memory WAL (crash-injection harnesses, tests).
    pub fn in_memory(policy: SyncPolicy) -> Wal {
        Wal::new(Sink::Mem(Vec::new()), policy)
    }

    /// Create (truncating) a file-backed WAL at `path`.
    pub fn create(path: &Path, policy: SyncPolicy) -> std::io::Result<Wal> {
        let writer = BufWriter::new(File::create(path)?);
        let path = path.to_path_buf();
        Ok(Wal::new(Sink::File { writer, path }, policy))
    }

    /// Choose how I/O errors are handled. Builder-style.
    pub fn with_error_policy(mut self, policy: WalErrorPolicy) -> Wal {
        self.error_policy = policy;
        self
    }

    /// Arm a fault plan beneath the sink. Builder-style.
    pub fn with_faults(mut self, faults: FaultHandle) -> Wal {
        self.faults = Some(faults);
        self
    }

    /// Append one record, applying the sync policy.
    pub fn append(&mut self, record: &WalRecord) {
        self.append_with(|buf| record.encode_payload_into(buf));
    }

    /// Append the record whose payload `encode` writes, framed in the
    /// buffer this WAL keeps, and apply the sync policy. Returns
    /// whether the record landed (it is dropped, and counted, under a
    /// sticky I/O error).
    fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> bool {
        // Taken out for the I/O step, which borrows the whole WAL, and
        // put back with its capacity.
        let mut frame = std::mem::take(&mut self.frame);
        frame_into(&mut frame, encode);
        let landed = self.io(WalSite::Append, &frame);
        let len = frame.len() as u64;
        self.frame = frame;
        if !landed {
            self.stats.dropped_records += 1;
            return false;
        }
        self.stats.appends += 1;
        self.stats.bytes += len;
        self.good_len += len;
        self.pending += 1;
        match self.policy {
            SyncPolicy::PerRecord => self.sync(),
            SyncPolicy::Batched(n) => {
                if self.pending >= n.max(1) {
                    self.sync_behind();
                }
            }
            SyncPolicy::Off => {}
        }
        true
    }

    /// A `Batched` due point: consult the fault plane and flush here,
    /// and hand the `sync_data` to the sync thread. A failure here
    /// waits in `deferred` for the next call.
    fn sync_behind(&mut self) {
        let handed = self.inject(WalSite::Sync, &[]).and_then(|()| {
            let Sink::File { writer, .. } = &mut self.sink else {
                return Ok(());
            };
            writer.flush()?;
            if self.syncer.is_none() {
                self.syncer = Some(Syncer::start(writer.get_ref().try_clone()?)?);
            }
            self.syncer.as_ref().expect("started above").request();
            Ok(())
        });
        match handed {
            Ok(()) => self.synced(),
            Err(e) => self.deferred = Some(e),
        }
    }

    fn synced(&mut self) {
        self.stats.fsyncs += 1;
        self.pending = 0;
    }

    /// Append `op` as a [`WalRecord::Op`] record.
    pub fn append_op(&mut self, op: &Operation) {
        self.append_with(|buf| op_payload(buf, op));
    }

    /// Append a contiguous batch of operations as one framed
    /// [`WalRecord::OpBatch`] record: one checksum, one sync-policy
    /// tick, and one stats update for the whole run. Empty batches are
    /// a no-op (the wire format forbids them); the batch counters only
    /// advance when the record actually landed (not dropped by a
    /// sticky I/O error).
    pub fn append_batch(&mut self, ops: &[Operation]) {
        if ops.is_empty() {
            return;
        }
        if self.append_with(|buf| batch_payload(buf, ops)) {
            self.stats.batch_pushes += 1;
            self.stats.batched_ops += ops.len() as u64;
            self.stats.max_batch = self.stats.max_batch.max(ops.len() as u64);
        }
    }

    /// Flush buffered bytes and force them to stable storage on the
    /// calling thread, after every fsync handed to the sync thread has
    /// returned; a failed one is applied first.
    pub fn sync(&mut self) {
        if let Some(syncer) = &self.syncer {
            syncer.wait_idle();
        }
        if self.io(WalSite::Sync, &[]) {
            self.synced();
        }
    }

    /// Discard all logged records (checkpoint rotation: once a
    /// checkpoint covers the prefix below the floor, the tail restarts
    /// from the checkpoint state).
    pub(crate) fn restart(&mut self) {
        if self.io(WalSite::Rotate, &[]) {
            self.pending = 0;
            self.good_len = 0;
            // The rotation discards all prior records; a prefix
            // surviving from an earlier degradation is obsolete.
            self.degraded_prefix = None;
        }
    }

    /// One I/O step at `site` (`frame` is empty except for appends),
    /// after applying any recorded `Batched` fsync failure. Returns
    /// whether the step took effect; if it did not, an error is now
    /// sticky.
    fn io(&mut self, site: WalSite, frame: &[u8]) -> bool {
        self.settle();
        if self.io_error.is_some() {
            return false;
        }
        match self.attempt(site, frame) {
            Ok(()) => true,
            Err(first) => self.heal(site, frame, first),
        }
    }

    /// Apply every recorded `Batched` fsync failure, oldest first, as
    /// a sync step that failed with it.
    fn settle(&mut self) {
        let mut failures = self
            .syncer
            .as_ref()
            .map_or_else(Vec::new, Syncer::take_failures);
        // The hand-off counted these fsyncs.
        self.stats.fsyncs -= failures.len() as u64;
        failures.extend(self.deferred.take());
        for first in failures {
            if self.io_error.is_none() && self.heal(WalSite::Sync, &[], first) {
                self.synced();
            }
        }
    }

    /// The only place the error policy is applied: the step at `site`
    /// failed with `first`. Returns whether the policy healed it; if
    /// not, `first` is now sticky.
    fn heal(&mut self, site: WalSite, frame: &[u8], first: std::io::Error) -> bool {
        self.stats.io_errors += 1;
        let healed = match self.error_policy {
            WalErrorPolicy::FailStop => false,
            WalErrorPolicy::RetryBackoff { attempts, cap_us } => {
                let mut backoff = 1u64;
                let mut healed = false;
                for _ in 0..attempts {
                    // A failed attempt may have left a partial frame;
                    // every re-attempt starts from the last frame
                    // boundary. A sink that cannot be repaired is not
                    // re-attempted.
                    if self.sink.truncate(self.good_len).is_err() {
                        break;
                    }
                    if self.attempt(site, frame).is_ok() {
                        self.stats.retries += 1;
                        healed = true;
                        break;
                    }
                    self.stats.io_errors += 1;
                    std::thread::sleep(std::time::Duration::from_micros(
                        backoff.min(cap_us.max(1)),
                    ));
                    backoff = backoff.saturating_mul(2);
                }
                healed
            }
            WalErrorPolicy::DegradeToMemory => {
                self.degrade();
                self.attempt(site, frame).is_ok()
            }
        };
        if !healed {
            self.io_error = Some(first);
        }
        healed
    }

    /// One invocation of `site`: consult the chaos plane, then append
    /// `frame` to, force, or rotate the sink.
    fn attempt(&mut self, site: WalSite, frame: &[u8]) -> std::io::Result<()> {
        self.inject(site, frame)?;
        match (site, &mut self.sink) {
            (WalSite::Append, Sink::Mem(buf)) => {
                buf.extend_from_slice(frame);
                Ok(())
            }
            (WalSite::Append, Sink::File { writer, .. }) => writer.write_all(frame),
            (WalSite::Sync, Sink::Mem(_)) => Ok(()),
            (WalSite::Sync, Sink::File { writer, .. }) => {
                writer.flush().and_then(|()| writer.get_ref().sync_data())
            }
            (WalSite::Rotate, sink) => sink.truncate(0),
        }
    }

    /// Consult the chaos plane at `site`: a fault that fires is this
    /// invocation's error (a torn write lands part of `frame` first).
    fn inject(&mut self, site: WalSite, frame: &[u8]) -> std::io::Result<()> {
        let Some(fault) = self.faults.as_ref().and_then(|p| p.fire_wal(site)) else {
            return Ok(());
        };
        self.stats.injected_faults += 1;
        if let WalFault::ShortWrite { keep } = fault {
            // A torn write: part of the frame lands, then the error.
            let keep = keep.min(frame.len().saturating_sub(1));
            match &mut self.sink {
                Sink::Mem(buf) => buf.extend_from_slice(&frame[..keep]),
                Sink::File { writer, .. } => writer.write_all(&frame[..keep])?,
            }
        }
        Err(std::io::Error::other(format!(
            "injected {fault:?} at {site:?}"
        )))
    }

    /// Abandon a failing file sink for an in-memory one, remembering
    /// the surviving file prefix so [`Wal::dump_bytes`] can reassemble
    /// the full logical log. A memory sink only drops its torn tail.
    fn degrade(&mut self) {
        match &mut self.sink {
            Sink::Mem(buf) => buf.truncate(self.good_len as usize),
            Sink::File { writer, path } => {
                let _ = writer.flush();
                let _ = writer.get_ref().sync_data();
                self.degraded_prefix = Some((path.clone(), self.good_len));
                self.sink = Sink::Mem(Vec::new());
                self.good_len = 0;
            }
        }
        self.stats.degraded = true;
    }

    /// Counters so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// First unhealed I/O error, if any (sticky), after applying any
    /// recorded `Batched` fsync failure.
    pub fn io_error(&mut self) -> Option<&std::io::Error> {
        self.settle();
        self.io_error.as_ref()
    }

    /// Take the sticky I/O error, clearing it, after applying any
    /// recorded `Batched` fsync failure.
    pub(crate) fn take_io_error(&mut self) -> Option<std::io::Error> {
        self.settle();
        self.io_error.take()
    }

    /// The full logical log: the valid frame prefix of the current
    /// sink, preceded by the surviving file prefix if this WAL
    /// degraded to memory mid-run. Works for both sinks (file sinks
    /// are flushed first); partial frames from torn writes are
    /// excluded, so the result always scans cleanly.
    pub fn dump_bytes(&mut self) -> std::io::Result<Vec<u8>> {
        let file_prefix = |path: &Path, len: u64| {
            std::fs::read(path).map(|mut bytes| {
                bytes.truncate(len as usize);
                bytes
            })
        };
        let mut out = match &self.degraded_prefix {
            Some((path, len)) => file_prefix(path, *len)?,
            None => Vec::new(),
        };
        match &mut self.sink {
            Sink::Mem(buf) => {
                out.extend_from_slice(&buf[..(self.good_len as usize).min(buf.len())])
            }
            Sink::File { writer, path } => {
                writer.flush()?;
                out.extend(file_prefix(path, self.good_len)?);
            }
        }
        Ok(out)
    }
}

/// A clonable, thread-safe handle to a [`Wal`] — the concrete
/// [`MonitorJournal`] implementation the monitors and schedulers hook.
///
/// Clones share the underlying log: a monitor journals into one clone
/// while its owner keeps another to sync, seal and recover from.
#[derive(Clone)]
pub struct SharedWal(Arc<Mutex<Wal>>);

impl fmt::Debug for SharedWal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let wal = self.0.lock();
        f.debug_struct("SharedWal")
            .field("sink", &wal.sink)
            .field("policy", &wal.policy)
            .field("stats", &wal.stats)
            .finish()
    }
}

impl SharedWal {
    /// Wrap a [`Wal`] (in-memory or file-backed) for shared use.
    pub fn new(wal: Wal) -> SharedWal {
        SharedWal(Arc::new(Mutex::new(wal)))
    }

    /// An in-memory shared WAL (the common harness configuration).
    pub fn in_memory(policy: SyncPolicy) -> SharedWal {
        SharedWal::new(Wal::in_memory(policy))
    }

    /// Run `f` with the locked WAL.
    pub fn with<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        f(&mut self.0.lock())
    }

    /// Counters so far.
    pub fn stats(&self) -> WalStats {
        self.0.lock().stats()
    }

    /// Force buffered bytes to stable storage.
    pub fn sync(&self) {
        self.0.lock().sync();
    }

    /// Take the sticky (unhealed) I/O error, clearing it. Admission
    /// paths call this at their sync points: `Some` means durable
    /// history was lost and the run must not be reported successful.
    pub fn take_error(&self) -> Option<std::io::Error> {
        self.0.lock().take_io_error()
    }

    /// The full logical log bytes for either sink (see
    /// [`Wal::dump_bytes`]).
    pub fn dump_bytes(&self) -> std::io::Result<Vec<u8>> {
        self.0.lock().dump_bytes()
    }
}

impl MonitorJournal for SharedWal {
    fn appended(&mut self, op: &Operation) {
        self.0.lock().append_op(op);
    }

    fn appended_batch(&mut self, ops: &[Operation]) {
        self.0.lock().append_batch(ops);
    }

    fn truncated(&mut self, new_len: usize) {
        self.0.lock().append(&WalRecord::Truncate(new_len as u64));
    }

    fn floor_raised(&mut self, floor: usize) {
        self.0.lock().append(&WalRecord::Floor(floor as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn op(txn: u32, item: u32, write: bool, value: Value) -> Operation {
        if write {
            Operation::write(TxnId(txn), ItemId(item), value)
        } else {
            Operation::read(TxnId(txn), ItemId(item), value)
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Op(op(0, 1, false, Value::Int(7))),
            WalRecord::Op(op(1, 2, true, Value::Bool(true))),
            WalRecord::Op(op(2, 3, true, Value::Str(Arc::from("hello wal")))),
            WalRecord::Truncate(2),
            WalRecord::Op(op(3, 1, true, Value::Int(-42))),
            WalRecord::Floor(1),
            WalRecord::Reset,
            WalRecord::Op(op(4, 5, false, Value::Str(Arc::from("")))),
            WalRecord::OpBatch(vec![
                op(5, 0, true, Value::Int(1)),
                op(5, 1, false, Value::Bool(false)),
                op(5, 2, true, Value::Str(Arc::from("batched"))),
            ]),
        ]
    }

    #[test]
    fn roundtrip_clean() {
        let records = sample_records();
        let mut wal = Wal::in_memory(SyncPolicy::Off);
        for r in &records {
            wal.append(r);
        }
        let bytes = wal.dump_bytes().unwrap();
        let s = scan(&bytes);
        assert_eq!(s.records, records);
        assert_eq!(s.valid_bytes, bytes.len());
        assert_eq!(s.corruption, None);
        assert_eq!(wal.stats().appends, records.len() as u64);
        assert_eq!(wal.stats().bytes, bytes.len() as u64);
    }

    #[test]
    fn truncation_recovers_prefix() {
        let records = sample_records();
        let mut wal = Wal::in_memory(SyncPolicy::Off);
        for r in &records {
            wal.append(r);
        }
        let bytes = wal.dump_bytes().unwrap();
        // Frame boundaries.
        let mut bounds = vec![0usize];
        for r in &records {
            bounds.push(bounds.last().unwrap() + r.encode_frame().len());
        }
        for cut in 0..=bytes.len() {
            let s = scan(&bytes[..cut]);
            let k = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(s.records, records[..k], "cut={cut}");
            assert_eq!(s.valid_bytes, bounds[k], "cut={cut}");
            assert_eq!(s.corruption.is_none(), cut == bounds[k], "cut={cut}");
        }
    }

    #[test]
    fn bit_flip_detected() {
        let records = sample_records();
        let mut wal = Wal::in_memory(SyncPolicy::Off);
        for r in &records {
            wal.append(r);
        }
        let clean = wal.dump_bytes().unwrap();
        let mut bounds = vec![0usize];
        for r in &records {
            bounds.push(bounds.last().unwrap() + r.encode_frame().len());
        }
        for byte in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[byte] ^= 0x10;
            let s = scan(&dirty);
            // The flip lands in frame i; everything before i must
            // survive, nothing from a damaged frame may be replayed.
            let i = bounds.iter().filter(|&&b| b <= byte).count() - 1;
            assert!(s.records.len() <= records.len());
            assert_eq!(
                &s.records[..i.min(s.records.len())],
                &records[..i.min(s.records.len())]
            );
            assert!(
                s.records.len() >= i || s.corruption.is_some(),
                "byte={byte}"
            );
            assert!(
                s.corruption.is_some(),
                "flip at byte {byte} went undetected"
            );
            assert_eq!(s.records, records[..i], "byte={byte}");
        }
    }

    #[test]
    fn batch_append_counts_and_roundtrips() {
        let mut wal = Wal::in_memory(SyncPolicy::Batched(4));
        let batch: Vec<Operation> = (0..3)
            .map(|i| op(7, i, i % 2 == 0, Value::Int(i as i64)))
            .collect();
        wal.append_batch(&batch);
        wal.append_batch(&[]);
        wal.append_batch(&batch[..2]);
        let stats = wal.stats();
        // One framed record per non-empty batch; the empty batch is a
        // no-op on both the wire and the counters.
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.batch_pushes, 2);
        assert_eq!(stats.batched_ops, 5);
        assert_eq!(stats.max_batch, 3);
        // Batched(4) counts records, not carried ops: two records are
        // below the threshold, so no fsync yet.
        assert_eq!(stats.fsyncs, 0);
        let s = scan(&wal.dump_bytes().unwrap());
        assert_eq!(
            s.records,
            vec![
                WalRecord::OpBatch(batch.clone()),
                WalRecord::OpBatch(batch[..2].to_vec()),
            ]
        );
        assert_eq!(s.corruption, None);
    }

    #[test]
    fn empty_batch_payload_is_malformed() {
        // An on-the-wire OpBatch with zero ops must not decode: the
        // writer never produces one, so it can only be corruption.
        let payload = vec![TAG_OP_BATCH];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let s = scan(&frame);
        assert_eq!(s.records, vec![]);
        assert!(matches!(
            s.corruption,
            Some(WalCorruption::MalformedPayload { at: 0 })
        ));
    }

    #[test]
    fn dropped_batch_leaves_counters_untouched() {
        let plan = FaultPlan::new()
            .on_wal(WalSite::Append, 0, WalFault::ShortWrite { keep: 1 })
            .share();
        let mut wal = Wal::in_memory(SyncPolicy::Off).with_faults(plan);
        let batch = vec![op(1, 0, true, Value::Int(9))];
        wal.append_batch(&batch);
        let stats = wal.stats();
        assert_eq!(stats.dropped_records, 1);
        assert_eq!(stats.batch_pushes, 0);
        assert_eq!(stats.batched_ops, 0);
        assert_eq!(stats.max_batch, 0);
    }

    #[test]
    fn sync_policy_counts() {
        let records = sample_records();
        let dir = std::env::temp_dir().join("pwsr_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(format!("wal_counts_{name}_{}.log", std::process::id()));
        for file in [false, true] {
            let open = |name, policy| {
                if file {
                    Wal::create(&path(name), policy).unwrap()
                } else {
                    Wal::in_memory(policy)
                }
            };
            let mut per = open("per", SyncPolicy::PerRecord);
            let mut batched = open("batched", SyncPolicy::Batched(3));
            let mut off = open("off", SyncPolicy::Off);
            for r in &records {
                per.append(r);
                batched.append(r);
                off.append(r);
            }
            assert_eq!(per.stats().fsyncs, records.len() as u64, "file {file}");
            assert_eq!(
                batched.stats().fsyncs,
                (records.len() / 3) as u64,
                "file {file}"
            );
            assert_eq!(off.stats().fsyncs, 0, "file {file}");
            off.sync();
            assert_eq!(off.stats().fsyncs, 1, "file {file}");
            drop((per, batched, off));
            if file {
                for name in ["per", "batched", "off"] {
                    let s = scan(&std::fs::read(path(name)).unwrap());
                    assert_eq!(s.records, records, "{name}");
                    assert_eq!(s.corruption, None, "{name}");
                    std::fs::remove_file(path(name)).unwrap();
                }
            }
        }
    }

    /// `Batched(2)` with the first sync failing, on both sinks under
    /// each policy. The script appends 2 (the due point fails), 1
    /// more, 1 more (the next due point), then syncs. The failure is
    /// not applied at its due point but by the next call, and from
    /// there on the stats, the pending error and the records equal
    /// those of a failed sync on the calling thread.
    #[test]
    fn batched_sync_failure_surfaces_at_the_next_call() {
        let retry = WalErrorPolicy::RetryBackoff {
            attempts: 2,
            cap_us: 10,
        };
        let due = WalStats {
            appends: 2,
            bytes: 34,
            injected_faults: 1,
            ..WalStats::default()
        };
        // (policy, stats after the next append, stats at the end,
        // error pending, floors of the surviving records)
        let cells: [(_, _, _, _, &[u64]); 3] = [
            (
                WalErrorPolicy::FailStop,
                WalStats {
                    io_errors: 1,
                    dropped_records: 1,
                    ..due
                },
                WalStats {
                    io_errors: 1,
                    dropped_records: 2,
                    ..due
                },
                true,
                &[0, 1],
            ),
            (
                retry,
                WalStats {
                    appends: 3,
                    bytes: 51,
                    fsyncs: 1,
                    io_errors: 1,
                    retries: 1,
                    ..due
                },
                WalStats {
                    appends: 4,
                    bytes: 68,
                    fsyncs: 3,
                    io_errors: 1,
                    retries: 1,
                    ..due
                },
                false,
                &[0, 1, 2, 3],
            ),
            (
                WalErrorPolicy::DegradeToMemory,
                WalStats {
                    appends: 3,
                    bytes: 51,
                    fsyncs: 1,
                    io_errors: 1,
                    degraded: true,
                    ..due
                },
                WalStats {
                    appends: 4,
                    bytes: 68,
                    fsyncs: 3,
                    io_errors: 1,
                    degraded: true,
                    ..due
                },
                false,
                &[0, 1, 2, 3],
            ),
        ];
        let dir = std::env::temp_dir().join("pwsr_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (cell, (policy, next, end, pending, floors)) in cells.into_iter().enumerate() {
            let path = dir.join(format!("wal_behind_{}_{cell}.log", std::process::id()));
            for file in [false, true] {
                let plan = FaultPlan::new().on_wal(WalSite::Sync, 0, WalFault::SyncFail);
                let wal = if file {
                    Wal::create(&path, SyncPolicy::Batched(2)).unwrap()
                } else {
                    Wal::in_memory(SyncPolicy::Batched(2))
                };
                let mut wal = wal.with_faults(plan.share()).with_error_policy(policy);
                let at = format!("{policy:?}, file sink {file}");
                wal.append(&WalRecord::Floor(0));
                wal.append(&WalRecord::Floor(1));
                assert_eq!(wal.stats(), due, "{at}: applied at its due point");
                wal.append(&WalRecord::Floor(2));
                assert_eq!(wal.stats(), next, "{at}: not applied by the next call");
                wal.append(&WalRecord::Floor(3));
                wal.sync();
                assert_eq!(wal.stats(), end, "{at}");
                assert_eq!(wal.io_error().is_some(), pending, "{at}");
                let want: Vec<WalRecord> = floors.iter().map(|&f| WalRecord::Floor(f)).collect();
                let s = scan(&wal.dump_bytes().unwrap());
                assert_eq!(s.records, want, "{at}");
                assert_eq!(s.corruption, None, "{at}");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn file_sink_roundtrip() {
        let dir = std::env::temp_dir().join("pwsr_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("wal_{}.log", std::process::id()));
        let records = sample_records();
        {
            let mut wal = Wal::create(&path, SyncPolicy::Batched(2)).unwrap();
            for r in &records {
                wal.append(r);
            }
            wal.sync();
            assert!(wal.io_error().is_none());
        }
        let bytes = std::fs::read(&path).unwrap();
        let s = scan(&bytes);
        assert_eq!(s.records, records);
        assert_eq!(s.corruption, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn restart_clears_log() {
        let mut wal = Wal::in_memory(SyncPolicy::Off);
        wal.append(&WalRecord::Reset);
        wal.restart();
        assert!(wal.dump_bytes().unwrap().is_empty());
        wal.append(&WalRecord::Floor(3));
        assert_eq!(
            scan(&wal.dump_bytes().unwrap()).records,
            vec![WalRecord::Floor(3)]
        );
    }

    #[test]
    fn fail_stop_surfaces_and_counts_drops() {
        let plan = FaultPlan::new()
            .on_wal(WalSite::Append, 2, WalFault::ShortWrite { keep: 3 })
            .share();
        let records = sample_records();
        let mut wal = Wal::in_memory(SyncPolicy::Off).with_faults(plan.clone());
        for r in &records {
            wal.append(r);
        }
        assert!(wal.io_error().is_some(), "fault must surface");
        assert_eq!(wal.stats().appends, 2);
        assert_eq!(wal.stats().io_errors, 1);
        assert_eq!(
            wal.stats().dropped_records,
            records.len() as u64 - 2,
            "every record after the fail-stop must be counted as dropped"
        );
        assert_eq!(plan.injected(), 1);
        // The valid prefix excludes the torn frame.
        let bytes = wal.dump_bytes().unwrap();
        let s = scan(&bytes);
        assert_eq!(s.records, records[..2]);
        assert_eq!(s.corruption, None);
        assert!(wal.take_io_error().is_some());
        assert!(wal.io_error().is_none());
    }

    #[test]
    fn retry_backoff_heals_a_torn_write() {
        let plan = FaultPlan::new()
            .on_wal(WalSite::Append, 1, WalFault::ShortWrite { keep: 5 })
            .share();
        let records = sample_records();
        let mut wal = Wal::in_memory(SyncPolicy::Off)
            .with_faults(plan)
            .with_error_policy(WalErrorPolicy::RetryBackoff {
                attempts: 3,
                cap_us: 10,
            });
        for r in &records {
            wal.append(r);
        }
        assert!(wal.io_error().is_none(), "retry must heal the fault");
        assert_eq!(wal.stats().appends, records.len() as u64);
        assert_eq!(wal.stats().io_errors, 1);
        assert_eq!(wal.stats().retries, 1);
        assert_eq!(wal.stats().dropped_records, 0);
        // The repaired log holds every record, no torn bytes between.
        let s = scan(&wal.dump_bytes().unwrap());
        assert_eq!(s.records, records);
        assert_eq!(s.corruption, None);
    }

    #[test]
    fn retry_exhaustion_escalates_to_fail_stop() {
        let mut plan = FaultPlan::new();
        for idx in 1..6 {
            plan = plan.on_wal(WalSite::Append, idx, WalFault::ShortWrite { keep: 2 });
        }
        let mut wal = Wal::in_memory(SyncPolicy::Off)
            .with_faults(plan.share())
            .with_error_policy(WalErrorPolicy::RetryBackoff {
                attempts: 3,
                cap_us: 10,
            });
        for r in sample_records().iter().take(3) {
            wal.append(r);
        }
        assert!(wal.io_error().is_some(), "persistent fault must escalate");
        assert!(wal.stats().dropped_records >= 1);
        let s = scan(&wal.dump_bytes().unwrap());
        assert_eq!(s.records, sample_records()[..1]);
    }

    #[test]
    fn degrade_to_memory_loses_nothing() {
        let dir = std::env::temp_dir().join("pwsr_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("wal_degrade_{}.log", std::process::id()));
        let plan = FaultPlan::new()
            .on_wal(WalSite::Append, 3, WalFault::ShortWrite { keep: 1 })
            .share();
        let records = sample_records();
        let mut wal = Wal::create(&path, SyncPolicy::Batched(2))
            .unwrap()
            .with_faults(plan)
            .with_error_policy(WalErrorPolicy::DegradeToMemory);
        for r in &records {
            wal.append(r);
        }
        assert!(wal.io_error().is_none());
        assert!(wal.stats().degraded);
        assert_eq!(wal.stats().appends, records.len() as u64);
        // Full logical log = surviving file prefix ++ memory tail.
        let s = scan(&wal.dump_bytes().unwrap());
        assert_eq!(s.records, records);
        assert_eq!(s.corruption, None);
        // The abandoned file still scans cleanly up to the tear.
        let on_disk = scan(&std::fs::read(&path).unwrap());
        assert_eq!(on_disk.records, records[..3]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_failure_policies() {
        // Fail-stop: surfaced.
        let plan = FaultPlan::new()
            .on_wal(WalSite::Sync, 0, WalFault::SyncFail)
            .share();
        let mut wal = Wal::in_memory(SyncPolicy::PerRecord).with_faults(plan);
        wal.append(&WalRecord::Reset);
        assert!(wal.io_error().is_some());
        // Retry: healed.
        let plan = FaultPlan::new()
            .on_wal(WalSite::Sync, 0, WalFault::SyncFail)
            .share();
        let mut wal = Wal::in_memory(SyncPolicy::PerRecord)
            .with_faults(plan)
            .with_error_policy(WalErrorPolicy::RetryBackoff {
                attempts: 2,
                cap_us: 10,
            });
        wal.append(&WalRecord::Reset);
        assert!(wal.io_error().is_none());
        assert_eq!(wal.stats().retries, 1);
        assert_eq!(wal.stats().fsyncs, 1);
    }

    #[test]
    fn rotate_failure_degrades_to_fresh_memory_log() {
        let dir = std::env::temp_dir().join("pwsr_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("wal_rotate_{}.log", std::process::id()));
        let plan = FaultPlan::new()
            .on_wal(WalSite::Rotate, 0, WalFault::RotateFail)
            .share();
        let mut wal = Wal::create(&path, SyncPolicy::Off)
            .unwrap()
            .with_faults(plan)
            .with_error_policy(WalErrorPolicy::DegradeToMemory);
        wal.append(&WalRecord::Reset);
        wal.restart();
        assert!(wal.io_error().is_none());
        assert!(wal.stats().degraded);
        // The post-rotation log is empty and lives in memory.
        assert!(wal.dump_bytes().unwrap().is_empty());
        wal.append(&WalRecord::Floor(2));
        assert_eq!(
            scan(&wal.dump_bytes().unwrap()).records,
            vec![WalRecord::Floor(2)]
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Every fault site under every error policy, plus one exhausted
    /// retry per site, on both sinks. Each cell runs one script —
    /// append 3, sync, restart, append 2, sync — and pins the whole
    /// `WalStats`, whether an error is pending, and the records the
    /// logical log scans to. Both sinks must agree cell by cell.
    #[test]
    fn fault_matrix_sites_by_policies() {
        const RETRY: WalErrorPolicy = WalErrorPolicy::RetryBackoff {
            attempts: 2,
            cap_us: 10,
        };
        let torn = (WalSite::Append, WalFault::ShortWrite { keep: 3 });
        let sync = (WalSite::Sync, WalFault::SyncFail);
        let rotate = (WalSite::Rotate, WalFault::RotateFail);
        // (site and fault, invocation indices, policy, stats, error
        // pending, floors of the surviving records)
        let cells: [(_, &[u64], _, _, _, &[u64]); 12] = [
            (
                torn,
                &[1],
                WalErrorPolicy::FailStop,
                WalStats {
                    appends: 1,
                    bytes: 17,
                    io_errors: 1,
                    dropped_records: 4,
                    injected_faults: 1,
                    ..WalStats::default()
                },
                true,
                &[0],
            ),
            (
                torn,
                &[1],
                RETRY,
                WalStats {
                    appends: 5,
                    bytes: 85,
                    fsyncs: 2,
                    io_errors: 1,
                    retries: 1,
                    injected_faults: 1,
                    ..WalStats::default()
                },
                false,
                &[3, 4],
            ),
            (
                torn,
                &[1],
                WalErrorPolicy::DegradeToMemory,
                WalStats {
                    appends: 5,
                    bytes: 85,
                    fsyncs: 2,
                    io_errors: 1,
                    injected_faults: 1,
                    degraded: true,
                    ..WalStats::default()
                },
                false,
                &[3, 4],
            ),
            (
                torn,
                &[1, 2, 3],
                RETRY,
                WalStats {
                    appends: 1,
                    bytes: 17,
                    io_errors: 3,
                    dropped_records: 4,
                    injected_faults: 3,
                    ..WalStats::default()
                },
                true,
                &[0],
            ),
            (
                sync,
                &[0],
                WalErrorPolicy::FailStop,
                WalStats {
                    appends: 3,
                    bytes: 51,
                    io_errors: 1,
                    dropped_records: 2,
                    injected_faults: 1,
                    ..WalStats::default()
                },
                true,
                &[0, 1, 2],
            ),
            (
                sync,
                &[0],
                RETRY,
                WalStats {
                    appends: 5,
                    bytes: 85,
                    fsyncs: 2,
                    io_errors: 1,
                    retries: 1,
                    injected_faults: 1,
                    ..WalStats::default()
                },
                false,
                &[3, 4],
            ),
            (
                sync,
                &[0],
                WalErrorPolicy::DegradeToMemory,
                WalStats {
                    appends: 5,
                    bytes: 85,
                    fsyncs: 2,
                    io_errors: 1,
                    injected_faults: 1,
                    degraded: true,
                    ..WalStats::default()
                },
                false,
                &[3, 4],
            ),
            (
                sync,
                &[0, 1, 2],
                RETRY,
                WalStats {
                    appends: 3,
                    bytes: 51,
                    io_errors: 3,
                    dropped_records: 2,
                    injected_faults: 3,
                    ..WalStats::default()
                },
                true,
                &[0, 1, 2],
            ),
            (
                rotate,
                &[0],
                WalErrorPolicy::FailStop,
                WalStats {
                    appends: 3,
                    bytes: 51,
                    fsyncs: 1,
                    io_errors: 1,
                    dropped_records: 2,
                    injected_faults: 1,
                    ..WalStats::default()
                },
                true,
                &[0, 1, 2],
            ),
            (
                rotate,
                &[0],
                RETRY,
                WalStats {
                    appends: 5,
                    bytes: 85,
                    fsyncs: 2,
                    io_errors: 1,
                    retries: 1,
                    injected_faults: 1,
                    ..WalStats::default()
                },
                false,
                &[3, 4],
            ),
            (
                rotate,
                &[0],
                WalErrorPolicy::DegradeToMemory,
                WalStats {
                    appends: 5,
                    bytes: 85,
                    fsyncs: 2,
                    io_errors: 1,
                    injected_faults: 1,
                    degraded: true,
                    ..WalStats::default()
                },
                false,
                &[3, 4],
            ),
            (
                rotate,
                &[0, 1, 2],
                RETRY,
                WalStats {
                    appends: 3,
                    bytes: 51,
                    fsyncs: 1,
                    io_errors: 3,
                    dropped_records: 2,
                    injected_faults: 3,
                    ..WalStats::default()
                },
                true,
                &[0, 1, 2],
            ),
        ];
        let dir = std::env::temp_dir().join("pwsr_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (cell, ((site, fault), nths, policy, stats, pending, floors)) in
            cells.into_iter().enumerate()
        {
            let path = dir.join(format!("wal_matrix_{}_{cell}.log", std::process::id()));
            for file in [false, true] {
                let plan = nths
                    .iter()
                    .fold(FaultPlan::new(), |p, &nth| p.on_wal(site, nth, fault));
                let wal = if file {
                    Wal::create(&path, SyncPolicy::Off).unwrap()
                } else {
                    Wal::in_memory(SyncPolicy::Off)
                };
                let mut wal = wal.with_faults(plan.share()).with_error_policy(policy);
                for k in 0..3 {
                    wal.append(&WalRecord::Floor(k));
                }
                wal.sync();
                wal.restart();
                for k in 3..5 {
                    wal.append(&WalRecord::Floor(k));
                }
                wal.sync();
                let at = format!("cell {cell} ({site:?} × {policy:?}), file sink {file}");
                assert_eq!(wal.stats(), stats, "{at}");
                assert_eq!(wal.io_error().is_some(), pending, "{at}");
                let want: Vec<WalRecord> = floors.iter().map(|&f| WalRecord::Floor(f)).collect();
                let s = scan(&wal.dump_bytes().unwrap());
                assert_eq!(s.records, want, "{at}");
                assert_eq!(s.corruption, None, "{at}");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn dump_bytes_matches_file_contents() {
        let dir = std::env::temp_dir().join("pwsr_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("wal_dump_{}.log", std::process::id()));
        let records = sample_records();
        let mut wal = Wal::create(&path, SyncPolicy::Off).unwrap();
        for r in &records {
            wal.append(r);
        }
        let dumped = wal.dump_bytes().unwrap();
        assert_eq!(scan(&dumped).records, records);
        wal.sync();
        assert_eq!(std::fs::read(&path).unwrap(), dumped);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shared_wal_is_a_journal() {
        let shared = SharedWal::in_memory(SyncPolicy::Off);
        let mut journal: Box<dyn MonitorJournal> = Box::new(shared.clone());
        journal.appended(&op(0, 0, false, Value::Int(1)));
        journal.truncated(0);
        journal.floor_raised(0);
        let s = scan(&shared.dump_bytes().unwrap());
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.records[1], WalRecord::Truncate(0));
        assert_eq!(s.records[2], WalRecord::Floor(0));
        assert_eq!(shared.stats().appends, 3);
    }
}
