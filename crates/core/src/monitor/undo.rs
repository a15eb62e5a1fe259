//! The **retraction layer**: per-push delta records, the side tape
//! their variable parts live on, and the LIFO undo-log contract.
//!
//! Every stage of the certifier (`stages`) owns one `UndoLog`; a
//! *logged push* captures in it, before mutating anything
//! destructively, exactly the deltas it is about to apply. Each
//! journal entry is a **fixed-size record** — nothing in it owns heap
//! memory — plus a run of `u32` words on the journal's [`Tape`]:
//!
//! * `SeqDelta` (the sequence stage's record) — the order-defining
//!   table rows: the displaced `last_write` entry, the schedule's
//!   previous per-transaction last-operation position and item bound
//!   (both monotone, hence not recomputable), and whether the push
//!   created its transaction's slot. No tape words;
//! * `GlobalDelta` (the global stage's) — the total-order-dependent
//!   state: the delayed-read mark freshly set on the reads-from
//!   writer, whether the push set `first_non_dr`, and how many
//!   per-conjunct Lemma-6 kills it made. On the tape: the killed
//!   conjunct ids, then the global reduced conflict graph's frame;
//! * a position (a conjunct stage's record, one per push that touched
//!   the conjunct) with that conjunct's graph frame on the tape;
//! * a **graph frame** (`GraphDelta` is its trailer) — one
//!   projection-graph access: the conflict edges freshly inserted, in
//!   insertion order; the reader list a write drained, last reader
//!   first; then the trailer — the displaced writer, the two counts,
//!   and flags for node creation, the reader push of a read, and
//!   whether the access froze the projection (first cycle);
//! * a **data-access-graph frame**
//!   ([`OnlineAccessDag::record_logged`]) — the unit edges freshly
//!   inserted, then one trailer word. Only the single writer keeps the
//!   access graph; its frames ride an `UndoLog<()>` of the monitor's
//!   own, one entry per push.
//!
//! A frame is written front to back while the push runs and read back
//! to front when it is retracted: the trailer comes off first and says
//! how many words precede it.
//!
//! ## The LIFO invariant
//!
//! Retraction is sound **only in reverse push order** (journal order).
//! Four facts make it exact under that discipline, and none of them
//! survive out-of-order removal:
//!
//! 1. **Pearce–Kelly stays valid without reordering.** Removing the
//!    most recently inserted edges first means the maintained
//!    topological order always satisfies a *superset* of the surviving
//!    constraints ([`IncrementalDag::remove_edge`] relies on this);
//!    removing an arbitrary older edge would leave the affected-region
//!    bookkeeping of later insertions dangling.
//! 2. **Monotone state has a unique pre-image.** `first_violation`,
//!    `first_non_dr`, a projection's `cyclic_at` and the schedule's
//!    `item_ub` only ever move one way under pushes; each delta records
//!    whether *its* push moved them, so popping deltas in reverse
//!    restores each to exactly its prior value.
//! 3. **Displaced values are captured, not recomputed.** `last_write`,
//!    the drained reader lists and the per-transaction last positions
//!    are overwritten destructively by a push; the delta carries the
//!    previous value, so the pop is `O(1)` per table — no rescan.
//! 4. **The tape is a stack in step with the entries.** A push appends
//!    its frames and then its record; a retraction pops the record and
//!    then consumes exactly that push's frames from the tape's end, in
//!    the reverse of the order they were written (the record and the
//!    operation say which frames there are). At rest the tape holds
//!    the frames of the retained entries and nothing else, so the
//!    newest entry's words are always the last ones — no offsets are
//!    stored, and dropping the oldest entries drops a prefix of the
//!    tape.
//!
//! `UndoLog` packages the discipline: a deque of per-push records
//! above a *floor* (`base`), each with the number of tape words it
//! owns. Pushes below the floor are permanent —
//! `UndoLog::checkpoint` raises the floor (dropping the oldest
//! entries and their words) once no live transaction can force a
//! retraction that deep, which is what bounds the log's memory over a
//! long run. Committed-prefix compaction renumbers graph nodes; the
//! node ids retained frames mention are found, and rewritten, by
//! `UndoLog::walk_back`, which visits the entries newest first with
//! a cursor that reads frames the way a retraction would.
//!
//! The layout is the same under both drivers, because the journals
//! belong to the stage state, not to the driver: one sequence journal,
//! one global journal, one journal per conjunct. [`ShardedMonitor`]
//! reaches each behind its stage's lock, so a truncate touches each
//! shard for `O(ops undone in that shard)` and unaffected shards not at
//! all; [`OnlineMonitor`] reaches them directly, and a push it is told
//! not to log empties them all (what came before an unretractable push
//! can never be retracted either).
//!
//! [`OnlineMonitor`]: super::OnlineMonitor
//! [`ShardedMonitor`]: super::sharded::ShardedMonitor
//! [`IncrementalDag::remove_edge`]: crate::graph::IncrementalDag::remove_edge
//! [`OnlineAccessDag::record_logged`]: crate::dag::OnlineAccessDag::record_logged

use std::collections::VecDeque;

const ABSENT: u32 = u32::MAX;

/// The side tape of one journal: the `u32` words of its entries'
/// frames, oldest entry first. Writers [`Tape::push`] while a push
/// runs; a retraction [`Tape::pop`]s the same words back, last first.
#[derive(Clone, Debug, Default)]
pub struct Tape {
    words: VecDeque<u32>,
}

impl Tape {
    /// Append one word.
    pub fn push(&mut self, word: u32) {
        self.words.push_back(word);
    }

    /// Take the last word back. Panics on an empty tape: a trailer
    /// promised words that were never written.
    pub fn pop(&mut self) -> u32 {
        self.words
            .pop_back()
            .expect("side tape underflow: frame trailer and tape out of step")
    }

    /// Words currently on the tape.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Is the tape empty?
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// A read position over a tape's words that moves towards the front —
/// what [`UndoLog::walk_back`] hands its visitor.
pub(crate) struct TapeCursor<'a> {
    words: &'a mut [u32],
    end: usize,
}

impl TapeCursor<'_> {
    /// The word before the cursor, by value; the cursor steps over it.
    pub(crate) fn pop(&mut self) -> u32 {
        self.end -= 1;
        self.words[self.end]
    }

    /// The `n` words before the cursor, in tape order; the cursor
    /// steps over them.
    pub(crate) fn take(&mut self, n: usize) -> &mut [u32] {
        self.end -= n;
        &mut self.words[self.end..self.end + n]
    }
}

/// The trailer of a graph frame: the fixed part of what one
/// projection-graph access applied. `NONE` = "nothing applied" (the
/// graph was already frozen), which makes frozen-period retraction a
/// no-op for free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct GraphDelta {
    /// Bit set of the `GraphDelta::*` flag constants.
    pub(crate) flags: u32,
    /// Fresh conflict edges on the tape (two words each).
    pub(crate) n_edges: u32,
    /// Drained readers on the tape (write access only).
    pub(crate) n_readers: u32,
    /// The displaced `last_writer` (write access only; `u32::MAX` when
    /// the item had none).
    pub(crate) prev_writer: u32,
}

impl GraphDelta {
    /// A node was created for the accessing transaction's slot.
    pub(crate) const ADDED_NODE: u32 = 1;
    /// This access set `cyclic_at` (the projection froze here).
    pub(crate) const FROZE: u32 = 2;
    /// Write access: `prev_writer` and the reader words are meaningful.
    pub(crate) const WROTE: u32 = 4;
    /// Read access: the node was pushed onto the item's reader list.
    pub(crate) const READ_PUSHED: u32 = 8;

    /// The frame of an access that applied nothing.
    pub(crate) const NONE: GraphDelta = GraphDelta {
        flags: 0,
        n_edges: 0,
        n_readers: 0,
        prev_writer: ABSENT,
    };

    pub(crate) fn has(&self, flag: u32) -> bool {
        self.flags & flag != 0
    }

    /// Close the frame whose edge and reader words are already on
    /// `tape`.
    pub(crate) fn seal(self, tape: &mut Tape) {
        tape.push(self.prev_writer);
        tape.push(self.n_readers);
        tape.push(self.n_edges);
        tape.push(self.flags);
    }

    /// Take the trailer of the last frame off `tape`; the caller then
    /// pops `n_readers` reader words and `2 · n_edges` edge words.
    pub(crate) fn open(tape: &mut Tape) -> GraphDelta {
        let flags = tape.pop();
        let n_edges = tape.pop();
        let n_readers = tape.pop();
        let prev_writer = tape.pop();
        GraphDelta {
            flags,
            n_edges,
            n_readers,
            prev_writer,
        }
    }

    /// Step `cursor` over the graph frame before it, handing `visit`
    /// every projection-graph node id the frame mentions — edge
    /// endpoints, drained readers and the displaced writer (the
    /// `u32::MAX` "no previous writer" sentinel is skipped).
    /// Committed-prefix compaction calls this twice per retained
    /// frame: once to mark the nodes that must survive the
    /// condensation (a retained entry has to stay replayable in LIFO
    /// order), once to renumber them.
    pub(crate) fn visit_nodes(cursor: &mut TapeCursor<'_>, mut visit: impl FnMut(&mut u32)) {
        let _flags = cursor.pop();
        let n_edges = cursor.pop() as usize;
        let n_readers = cursor.pop() as usize;
        for word in cursor.take(1 + n_readers + 2 * n_edges) {
            if *word != ABSENT {
                visit(word);
            }
        }
    }
}

/// The order-defining table rows one push displaced — the sequence
/// stage's half of the retraction contract.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SeqDelta {
    /// The push created its transaction's slot.
    pub(crate) new_slot: bool,
    /// `item_ub` before the push (monotone, not recomputable).
    pub(crate) prev_item_ub: usize,
    /// `last_write[item]` before the push (consulted for writes).
    pub(crate) prev_last_write: u32,
    /// The transaction's previous last-operation position (consulted
    /// when the push did not create the slot).
    pub(crate) prev_slot_last: u32,
}

/// The total-order-dependent deltas of one push: delayed-read tracking
/// (the global stage). Its tape words: the ids of the conjuncts whose
/// `conjunct_non_dr` the push set, then the global graph's frame.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GlobalDelta {
    /// The writer slot a dirty-read mark was freshly set on
    /// (`u32::MAX`: none).
    pub(crate) dr_mark: u32,
    /// The push set `first_non_dr`.
    pub(crate) set_first_non_dr: bool,
    /// Conjunct ids on the tape.
    pub(crate) n_kills: u32,
}

impl Default for GlobalDelta {
    fn default() -> GlobalDelta {
        GlobalDelta {
            dr_mark: ABSENT,
            set_first_non_dr: false,
            n_kills: 0,
        }
    }
}

impl GlobalDelta {
    /// Renumber the dirty-read mark's writer *slot* down by `s_cut`
    /// after a compaction. A mark on a summarized slot is dropped: its
    /// delayed-read row was reclaimed, and a summarized (finished)
    /// writer's mark can never trip again, so there is nothing left to
    /// retract.
    pub(crate) fn shift_slots(&mut self, s_cut: u32) {
        self.dr_mark = match self.dr_mark {
            ABSENT => ABSENT,
            s if s >= s_cut => s - s_cut,
            _ => ABSENT,
        };
    }
}

/// A journal of per-push records above a retraction *floor*, with the
/// side tape their frames live on.
///
/// For the contiguous stage logs entry `k` describes the push at
/// schedule position `base + k` (a shard's log holds only the pushes
/// that touched the shard and tags each record with its position);
/// [`UndoLog::pop`] consumes entries in LIFO order (the only order in
/// which the deltas are sound — see the module invariant), and
/// [`UndoLog::checkpoint`] drops entries from the *front* once the
/// positions they describe can no longer be retracted, bounding the
/// log's memory.
#[derive(Clone, Debug, Default)]
pub(crate) struct UndoLog<D> {
    /// Each record with the number of tape words it owns.
    entries: VecDeque<(D, u32)>,
    tape: Tape,
    /// Tape words owned by `entries` — the tape's length at rest.
    sealed: usize,
    base: usize,
}

impl<D> UndoLog<D> {
    /// An empty log whose floor is `base` (nothing below is logged).
    pub(crate) fn new(base: usize) -> UndoLog<D> {
        UndoLog {
            entries: VecDeque::new(),
            tape: Tape::default(),
            sealed: 0,
            base,
        }
    }

    /// The retraction floor: the prefix length below which pushes are
    /// permanent.
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// Logged entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// One past the last logged position (`base + len`).
    pub(crate) fn end(&self) -> usize {
        self.base + self.entries.len()
    }

    /// The side tape: a push appends its frames here before
    /// [`UndoLog::record`]; a retraction pops them after
    /// [`UndoLog::pop`].
    pub(crate) fn tape(&mut self) -> &mut Tape {
        &mut self.tape
    }

    /// Journal one push's record (the push at position
    /// [`UndoLog::end`]); the words appended to the tape since the
    /// previous record become its frames.
    pub(crate) fn record(&mut self, delta: D) {
        let words = self.tape.len() - self.sealed;
        self.sealed = self.tape.len();
        self.entries.push_back((delta, words as u32));
    }

    /// How many of the oldest records satisfy `below` (which must hold
    /// for a prefix of them) — a shard's count of entries under a new
    /// floor.
    pub(crate) fn count_front(&self, mut below: impl FnMut(&D) -> bool) -> usize {
        self.entries.partition_point(|(d, _)| below(d))
    }

    /// Retract the most recent entry (LIFO): returns its record and
    /// leaves its frames at the end of the tape for the caller to pop,
    /// all of them, before the next call on this log.
    pub(crate) fn pop(&mut self) -> Option<D> {
        debug_assert_eq!(self.tape.len(), self.sealed, "previous frames not consumed");
        let (delta, words) = self.entries.pop_back()?;
        self.sealed -= words as usize;
        Some(delta)
    }

    /// Drop every entry and restart the floor at `base` — the effect
    /// of an *unlogged* push, which is permanent by definition.
    pub(crate) fn reset(&mut self, base: usize) {
        self.entries.clear();
        self.tape.words.clear();
        self.sealed = 0;
        self.base = base;
    }

    /// Drop the `n` oldest entries and their tape words, raising the
    /// floor by `n`.
    pub(crate) fn drop_oldest(&mut self, n: usize) {
        debug_assert_eq!(self.tape.len(), self.sealed, "frames not consumed");
        let words: usize = self.entries.drain(..n).map(|(_, w)| w as usize).sum();
        self.tape.words.drain(..words);
        self.sealed -= words;
        self.base += n;
    }

    /// Raise the floor to `floor` (clamped to `[base, end]`), dropping
    /// the entries below it: those pushes become permanent and their
    /// memory is reclaimed. Returns the new floor.
    pub(crate) fn checkpoint(&mut self, floor: usize) -> usize {
        let floor = floor.clamp(self.base, self.end());
        self.drop_oldest(floor - self.base);
        self.base
    }

    /// Visit the retained entries **newest first**, each with a cursor
    /// placed at the end of its frames; the visitor steps the cursor
    /// over the entry's words as a retraction would pop them — as many
    /// of them as it cares about, never past the entry's first — and
    /// may rewrite them and the record in place.
    pub(crate) fn walk_back(&mut self, mut visit: impl FnMut(&mut D, &mut TapeCursor<'_>)) {
        debug_assert_eq!(self.tape.len(), self.sealed, "frames not consumed");
        let words = self.tape.words.make_contiguous();
        let mut cursor = TapeCursor {
            end: words.len(),
            words,
        };
        for (delta, owned) in self.entries.iter_mut().rev() {
            let first = cursor.end - *owned as usize;
            visit(delta, &mut cursor);
            assert!(
                cursor.end >= first,
                "walk_back: read past the entry's frames"
            );
            cursor.end = first;
        }
    }

    /// Bytes of the retained records and their tape words.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<(D, u32)>()
            + self.tape.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undo_log_floor_and_lifo() {
        let mut log: UndoLog<u32> = UndoLog::new(3);
        assert_eq!((log.base(), log.len(), log.end()), (3, 0, 3));
        for d in 0..4 {
            log.record(d);
        }
        assert_eq!(log.end(), 7);
        assert_eq!(log.pop(), Some(3));
        assert_eq!(log.len(), 3);
        // Checkpoint drops the oldest entries and raises the floor.
        assert_eq!(log.checkpoint(5), 5);
        assert_eq!((log.base(), log.len()), (5, 1));
        assert_eq!(log.pop(), Some(2));
        // Clamped: cannot undercut the floor or overshoot the end.
        assert_eq!(log.checkpoint(0), 5);
        assert_eq!(log.checkpoint(99), 5);
        log.reset(9);
        assert_eq!((log.base(), log.len(), log.end()), (9, 0, 9));
    }

    /// The tape moves in step with the entries: a pop leaves exactly
    /// the popped entry's words at the end, a checkpoint drops exactly
    /// the dropped entries' words from the front, and a walk visits
    /// each entry's own words, newest first.
    #[test]
    fn tape_words_follow_their_entries() {
        let mut log: UndoLog<u32> = UndoLog::new(0);
        for entry in 0..4u32 {
            for word in 0..entry {
                log.tape().push(10 * entry + word);
            }
            log.record(entry);
        }
        assert_eq!(log.tape().len(), 6);
        let mut seen = Vec::new();
        log.walk_back(|entry, cursor| {
            let words = cursor.take(*entry as usize);
            seen.push((*entry, words.to_vec()));
            words.iter_mut().for_each(|w| *w += 100);
        });
        assert_eq!(
            seen,
            vec![
                (3, vec![30, 31, 32]),
                (2, vec![20, 21]),
                (1, vec![10]),
                (0, vec![])
            ]
        );
        assert_eq!(log.pop(), Some(3));
        assert_eq!(
            [log.tape().pop(), log.tape().pop(), log.tape().pop()],
            [132, 131, 130]
        );
        // Entries 0 and 1 go; entry 2's two words are what is left.
        assert_eq!(log.checkpoint(2), 2);
        assert_eq!(log.tape().len(), 2);
        assert_eq!(log.pop(), Some(2));
        assert_eq!([log.tape().pop(), log.tape().pop()], [121, 120]);
        assert!(log.tape().is_empty());
    }

    #[test]
    fn graph_frame_round_trip_and_node_visit() {
        let mut log: UndoLog<()> = UndoLog::new(0);
        let tape = log.tape();
        // Two edges (5→9, 7→9), readers [7, 8] written last first.
        for w in [5, 9, 7, 9, 8, 7] {
            tape.push(w);
        }
        let delta = GraphDelta {
            flags: GraphDelta::WROTE | GraphDelta::FROZE,
            n_edges: 2,
            n_readers: 2,
            prev_writer: ABSENT,
        };
        delta.seal(tape);
        log.record(());
        let mut nodes = Vec::new();
        log.walk_back(|(), cursor| {
            GraphDelta::visit_nodes(cursor, |n| {
                nodes.push(*n);
                *n += 1;
            })
        });
        assert_eq!(nodes, vec![5, 9, 7, 9, 8, 7], "the sentinel is skipped");
        log.pop();
        let tape = log.tape();
        assert_eq!(GraphDelta::open(tape), delta);
        assert_eq!(
            [tape.pop(), tape.pop()],
            [8, 9],
            "readers, first reader first"
        );
        assert_eq!(
            [tape.pop(), tape.pop(), tape.pop(), tape.pop()],
            [10, 8, 10, 6]
        );
    }
}
