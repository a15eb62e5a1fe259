//! The certifier's **stage state**, written once: what a push does to
//! the sequence tables, to the total-order-dependent state and to one
//! conjunct's projection, how each is retracted, and how each is
//! compacted.
//!
//! Definition 2 quantifies PWSR per conjunct and Lemmas 2/6 certify
//! each projection on its own, so the executable spec is one state
//! machine in three parts:
//!
//! * [`SeqState`] — the growing [`Schedule`], the per-item latest
//!   write (reads-from), each transaction's first position, the
//!   finished flags and the summarized set: everything that *defines*
//!   the total order;
//! * [`GlobalState`] — what needs the whole order: delayed-read marks
//!   (Definition 5), the first non-DR prefix, the per-conjunct Lemma-6
//!   kills and the global reduced conflict graph;
//! * [`ShardState`] — one conjunct's reduced conflict graph.
//!
//! Each part owns its undo journal (see [`undo`](super::undo)) and its
//! `apply` / `undo` / `raise_floor` / `compact` / `resident_bytes`.
//! Nothing here takes a lock, touches an atomic or knows a ticket: the
//! parts are plain data, and the two drivers differ only in
//! how they hold them. [`OnlineMonitor`](super::OnlineMonitor) owns
//! one of each (and one [`ShardState`] per conjunct) and walks a run
//! operation by operation; [`ShardedMonitor`](super::sharded::ShardedMonitor)
//! puts each behind its ranked lock and serves the same calls in
//! ticket order, one stage at a time. Because a stage sees its
//! operations in position order under either driver, the two reach the
//! same state on the same interleaving by construction.
//!
//! Stage 1 also **decides and journals** each of its transitions for
//! both drivers: [`SeqState`] is the one caller of the durability
//! journal ([`MonitorJournal`]), bounds a truncation, decides whether a
//! floor rose, and keeps the retraction floor (`log.base()`; an
//! unlogged run moves it to the new length) that compaction stops at.
//! A driver hands each call a closure that walks its other stages.
//!
//! The §2.2 totals ([`TxnTotals`], applying the rule
//! [`Transaction::new`](crate::txn::Transaction::new) applies), the full
//! [`Verdict`] assembly ([`GlobalState::verdict`]) and the admission
//! probe ([`admits`]) sit here for the same reason: one definition, two
//! callers.

use super::journal::MonitorJournal;
use super::undo::{GlobalDelta, SeqDelta, UndoLog};
use super::{
    AdmissionLevel, Applied, CompactStats, FinishedFlags, NodeMaps, ProjGraph, ScopeIndex,
    SummarizedSet, Verdict, VerdictLevel,
};
use crate::error::{CoreError, Result};
use crate::ids::{ItemId, OpIndex, TxnId};
use crate::op::Operation;
use crate::schedule::Schedule;
use crate::state::{ItemSet, SetPool};
use crate::txn::validate_22;
use std::ops::Deref;

const NO_POS: u32 = u32::MAX;

/// One transaction's running §2.2 read/write totals. Where the rows
/// live is the driver's business (per slot for the single writer, in
/// striped maps outside the sequence lock for the pipeline).
#[derive(Clone, Debug, Default)]
pub(super) struct TxnTotals {
    rs: ItemSet,
    ws: ItemSet,
}

impl TxnTotals {
    /// §2.2-validate `ops` (one transaction's run, in program order)
    /// against the totals and record them — atomically: on any failure
    /// the bits set for earlier operations of the run are cleared
    /// again, so a rejected run leaves no trace (`validate_22` rejects
    /// duplicates, hence every bit set here was fresh).
    pub(super) fn admit(&mut self, ops: &[Operation]) -> Result<()> {
        for (i, op) in ops.iter().enumerate() {
            if let Err(e) = validate_22(&self.rs, &self.ws, op) {
                ops[..i].iter().for_each(|prior| self.strip(prior));
                return Err(e);
            }
            if op.is_write() {
                self.ws.insert(op.item);
            } else {
                self.rs.insert(op.item);
            }
        }
        Ok(())
    }

    /// Clear the bit `op` set: it never claimed a position, or was
    /// retracted.
    pub(super) fn strip(&mut self, op: &Operation) {
        if op.is_write() {
            self.ws.remove(op.item);
        } else {
            self.rs.remove(op.item);
        }
    }

    /// Empty the row for its next transaction (spill buffers kept).
    pub(super) fn clear(&mut self) {
        self.rs.clear();
        self.ws.clear();
    }

    pub(super) fn heap_bytes(&self) -> usize {
        self.rs.heap_bytes() + self.ws.heap_bytes()
    }
}

/// One operation [`SeqState::truncate`] took back, handed to the
/// driver to undo its other stages with.
pub(super) struct Undone {
    pub(super) op: Operation,
    /// The position the operation held.
    pub(super) pos: OpIndex,
    pub(super) slot: usize,
    /// The operation was its transaction's first: the slot is gone.
    pub(super) new_slot: bool,
}

/// Stage-1 state: the order-defining tables, and the one owner of the
/// durability journal.
#[derive(Debug, Default)]
pub(super) struct SeqState {
    /// The growing schedule — the interleaving being certified.
    pub(super) schedule: Schedule,
    /// Per item: position of the latest write (`NO_POS` if none).
    last_write: Vec<u32>,
    /// Per slot: position of the transaction's first operation.
    first_op: Vec<u32>,
    /// Sequence-half undo journal (entries only for logged pushes);
    /// its base is the retraction floor.
    pub(super) log: UndoLog<SeqDelta>,
    /// Durability journal: hears every append, truncation and floor
    /// raise before it is applied.
    pub(super) journal: Option<Box<dyn MonitorJournal>>,
    /// Transactions declared finished but not yet summarized.
    finished: FinishedFlags,
    /// Transactions collapsed into the permanent prefix: pushes and
    /// retractions for them are rejected.
    summarized: SummarizedSet,
    /// Compaction calls that advanced the frontier / total operations
    /// reclaimed by them.
    pub(super) compactions: u64,
    pub(super) ops_reclaimed: u64,
    /// The node tables a compaction sweep works in, one graph at a
    /// time.
    maps: NodeMaps,
}

impl SeqState {
    /// `txn`'s slot, if it has pushed anything; an error if it was
    /// summarized (its push or retraction must be refused).
    pub(super) fn slot(&self, txn: TxnId) -> Result<Option<usize>> {
        if self.summarized.contains(txn) {
            return Err(CoreError::SummarizedTransaction { txn });
        }
        Ok(self.schedule.txn_slot(txn))
    }

    pub(super) fn is_summarized(&self, txn: TxnId) -> bool {
        self.summarized.contains(txn)
    }

    /// The position of `txn`'s first live operation, `O(1)`.
    pub(super) fn first_op_of(&self, txn: TxnId) -> Option<usize> {
        let slot = self.schedule.txn_slot(txn)?;
        Some(self.first_op[slot] as usize)
    }

    /// What retracting `victims` takes, the one answer both drivers
    /// act on: the earliest position any of them still holds — where
    /// the driver truncates to — and, appended to `survivors`, every
    /// other transaction's operation from there on, in order — what it
    /// re-pushes. `None` if no victim has a live operation; an error
    /// if one was summarized.
    pub(super) fn retraction(
        &self,
        victims: &[TxnId],
        survivors: &mut Vec<Operation>,
    ) -> Result<Option<usize>> {
        let mut first: Option<usize> = None;
        for &txn in victims {
            if let Some(slot) = self.slot(txn)? {
                let p = self.first_op[slot] as usize;
                first = Some(first.map_or(p, |f| f.min(p)));
            }
        }
        if let Some(first) = first {
            let tail = &self.schedule.ops()[first - self.schedule.base()..];
            survivors.extend(tail.iter().filter(|o| !victims.contains(&o.txn)).cloned());
        }
        Ok(first)
    }

    /// Declare `txn` finished (advisory until it is summarized).
    pub(super) fn finish(&mut self, txn: TxnId) {
        if let Some(slot) = self.schedule.txn_slot(txn) {
            self.finished.mark(slot);
        }
    }

    /// Stage 1: report one transaction's validated run to the journal
    /// (as one `appended_batch` when `framed`), reserve the segment
    /// `[len, len + k)` for it in one `Schedule` append and, when
    /// `logged`, record one [`SeqDelta`] per operation (computed
    /// arithmetically from the pre-run snapshot — within a
    /// single-transaction run, operation `i`'s previous-slot-last is
    /// simply `p0 + i - 1`, and §2.2's read-after-write rejection
    /// guarantees no read in the run resolves against a writer inside
    /// the run), so retraction stays one pop per operation whatever
    /// the run's length; unlogged, the run is permanent and the floor
    /// moves past it. `existing` is the transaction's slot as
    /// [`SeqState::slot`] just reported it. Appends to `rf_slots`, per
    /// operation, the slot of the writer a read takes its value from;
    /// returns the first position and the transaction's slot.
    pub(super) fn apply(
        &mut self,
        ops: &[Operation],
        existing: Option<usize>,
        logged: bool,
        framed: bool,
        rf_slots: &mut Vec<Option<usize>>,
    ) -> (usize, usize) {
        if let Some(journal) = self.journal.as_deref_mut() {
            if framed {
                journal.appended_batch(ops);
            } else {
                journal.appended(&ops[0]);
            }
        }
        let p0 = self.schedule.len();
        let base = self.schedule.base();
        let pre_slot_last = existing.map_or(0, |sl| self.schedule.slot_last_raw(sl));
        let mut cur_ub = self.schedule.item_ub();
        for (i, op) in ops.iter().enumerate() {
            let idx = op.item.index();
            let delta = SeqDelta {
                new_slot: existing.is_none() && i == 0,
                prev_item_ub: cur_ub,
                prev_last_write: self.last_write.get(idx).copied().unwrap_or(NO_POS),
                prev_slot_last: if i == 0 {
                    pre_slot_last
                } else {
                    (p0 + i - 1) as u32
                },
            };
            cur_ub = cur_ub.max(idx + 1);
            let rf = if op.is_write() {
                if self.last_write.len() <= idx {
                    self.last_write.resize(idx + 1, NO_POS);
                }
                self.last_write[idx] = (p0 + i) as u32;
                None
            } else {
                // A writer below the compaction base is summarized,
                // hence finished: its dirty-read mark could never
                // trip, so skipping it keeps verdict parity with an
                // uncompacted replay (its row was reclaimed).
                let w = delta.prev_last_write;
                (w != NO_POS && w as usize >= base)
                    .then(|| self.schedule.slot_of_op(OpIndex(w as usize)))
            };
            rf_slots.push(rf);
            if logged {
                self.log.record(delta);
            }
        }
        let slot = self.schedule.push_segment_unchecked(ops, existing);
        if existing.is_none() {
            self.first_op.push(p0 as u32);
            self.finished.slot_created(ops[0].txn);
        }
        if !logged {
            self.log.reset(self.schedule.len());
        }
        (p0, slot)
    }

    /// Retract logged operations until the schedule is `n` long, newest
    /// first, handing each to `undo_rest` to undo the driver's other
    /// stages; the journal hears of it if anything is undone. Returns
    /// the number undone. Panics if `n` is beyond the length or below
    /// the retraction floor, whose pushes are permanent: unlogged,
    /// checkpointed, or compacted (the frontier never passes the floor).
    pub(super) fn truncate(&mut self, n: usize, mut undo_rest: impl FnMut(Undone)) -> usize {
        let (len, floor) = (self.schedule.len(), self.log.base());
        assert!(
            (floor..=len).contains(&n),
            "truncate_to({n}) beyond length {len} or below the retraction floor {floor}"
        );
        if let Some(journal) = self.journal.as_deref_mut().filter(|_| n < len) {
            journal.truncated(n);
        }
        for _ in n..len {
            undo_rest(self.undo());
        }
        len - n
    }

    /// Retract the last logged operation from the schedule and the
    /// tables.
    fn undo(&mut self) -> Undone {
        let sd = self.log.pop().expect("one sequence entry per logged push");
        let pos = OpIndex(self.schedule.len() - 1);
        let slot = self.schedule.slot_of_op(pos);
        let op = self
            .schedule
            .pop_op_unchecked(sd.new_slot, sd.prev_slot_last, sd.prev_item_ub);
        if op.is_write() {
            self.last_write[op.item.index()] = sd.prev_last_write;
        }
        if sd.new_slot {
            self.first_op.pop();
            self.finished.slot_popped(op.txn);
        }
        Undone {
            op,
            pos,
            slot,
            new_slot: sd.new_slot,
        }
    }

    /// Make the pushes below `floor` (clamped to the logged range)
    /// permanent, dropping their deltas; only if the floor rose, the
    /// journal hears of it and `raise_rest` raises the driver's other
    /// stages. Returns the new floor.
    pub(super) fn raise_floor(&mut self, floor: usize, raise_rest: impl FnOnce(usize)) -> usize {
        let before = self.log.base();
        let floor = self.log.checkpoint(floor);
        if floor > before {
            if let Some(journal) = self.journal.as_deref_mut() {
                journal.floor_raised(floor);
            }
            raise_rest(floor);
        }
        floor
    }

    /// The compaction frontier: the longest prefix of the schedule
    /// below the retraction floor (the prefix that is already
    /// permanent) in which every operation belongs to a finished
    /// transaction whose *last* operation also lies in that prefix.
    pub(super) fn frontier(&self) -> usize {
        let (schedule, limit) = (&self.schedule, self.log.base());
        let mut hi = schedule.base();
        let mut frontier = schedule.base();
        for p in schedule.base()..limit {
            let slot = schedule.slot_of_op(OpIndex(p));
            if !self.finished.is_finished(slot) {
                break;
            }
            let last = schedule.slot_last_raw(slot) as usize;
            if last >= limit {
                break;
            }
            hi = hi.max(last + 1);
            if p + 1 == hi {
                frontier = p + 1;
            }
        }
        frontier
    }

    /// Collapse the prefix below [`SeqState::frontier`] out of the
    /// schedule and the per-slot tables; if anything moved, hand
    /// `compact_rest` the summarized slot count, the sweep's node tables
    /// and the summarized transactions (in slot order) for the driver's
    /// other stages. Returns what was reclaimed.
    pub(super) fn compact(
        &mut self,
        compact_rest: impl FnOnce(usize, &mut NodeMaps, &[TxnId]),
    ) -> CompactStats {
        let frontier = self.frontier();
        let base = self.schedule.base();
        if frontier <= base {
            return CompactStats {
                frontier: base,
                ..CompactStats::default()
            };
        }
        let summarized = self.schedule.compact_prefix(frontier);
        let s_cut = summarized.len();
        self.first_op.drain(..s_cut);
        self.finished.compact(s_cut);
        for t in &summarized {
            self.summarized.insert(*t);
        }
        self.compactions += 1;
        self.ops_reclaimed += (frontier - base) as u64;
        compact_rest(s_cut, &mut self.maps, &summarized);
        CompactStats {
            frontier,
            ops_reclaimed: frontier - base,
            txns_summarized: s_cut,
        }
    }

    pub(super) fn resident_bytes(&self) -> usize {
        self.schedule.resident_bytes()
            + (self.last_write.len() + self.first_op.len()) * std::mem::size_of::<u32>()
            + self.log.resident_bytes()
            + self.finished.resident_bytes()
            + self.summarized.resident_bytes()
    }
}

/// Stage-2 state: everything that needs the full total order.
#[derive(Clone, Debug)]
pub(super) struct GlobalState {
    /// The global reduced conflict graph (serializability).
    pub(super) graph: ProjGraph,
    /// Per slot: items written that someone else has read — the
    /// writer's next operation materializes the dirty read.
    dirty_reads: Vec<ItemSet>,
    /// Rows `dirty_reads` gave up, reused by the slots created next.
    spare_sets: SetPool,
    first_non_dr: Option<OpIndex>,
    /// Conjunct ids (as bits) in whose scope a dirty read has
    /// materialized — each kills the Lemma 6 certificate for its scope.
    lemma6_killed: ItemSet,
    /// Global-half undo journal (entries only for logged pushes).
    pub(super) log: UndoLog<GlobalDelta>,
}

impl GlobalState {
    pub(super) fn new() -> GlobalState {
        GlobalState {
            graph: ProjGraph::default(),
            dirty_reads: Vec::new(),
            spare_sets: SetPool::default(),
            first_non_dr: None,
            lemma6_killed: ItemSet::new(),
            log: UndoLog::new(0),
        }
    }

    /// Stage 2: delayed-read tracking and the global conflict graph
    /// for the operation at `p`, whose reads-from writer slot stage 1
    /// resolved as `rf_slot`. Exact for the prefix ending at `p`
    /// provided operations arrive in position order. Returns whether
    /// this operation materialized a dirty read — it belongs to a
    /// dirtily-read transaction, first such operation or not — which
    /// is exactly when [`admits`] would have refused it at `PwsrDr`.
    pub(super) fn apply(
        &mut self,
        scopes: &[ItemSet],
        slot: usize,
        op: &Operation,
        rf_slot: Option<usize>,
        p: OpIndex,
        logged: bool,
    ) -> bool {
        let mut delta = GlobalDelta::default();
        let mut tape = logged.then(|| self.log.tape());
        while self.dirty_reads.len() <= slot {
            self.dirty_reads.push(self.spare_sets.take());
        }
        // This operation proves its transaction was still running: any
        // earlier read *from* it is now a DR violation.
        let caused_non_dr = !self.dirty_reads[slot].is_empty();
        if caused_non_dr {
            if self.first_non_dr.is_none() {
                self.first_non_dr = Some(p);
                delta.set_first_non_dr = true;
            }
            for (k, scope) in scopes.iter().enumerate() {
                if !scope.is_disjoint(&self.dirty_reads[slot])
                    && self.lemma6_killed.insert(ItemId(k as u32))
                {
                    if let Some(tape) = tape.as_deref_mut() {
                        tape.push(k as u32);
                        delta.n_kills += 1;
                    }
                }
            }
        }
        // A read leaves a pending mark on its reads-from writer; the
        // writer's next operation (above, a later push) trips it.
        if let (false, Some(w_slot)) = (op.is_write(), rf_slot) {
            if w_slot != slot && self.dirty_reads[w_slot].insert(op.item) {
                delta.dr_mark = w_slot as u32;
            }
        }
        self.graph
            .apply(slot, op.item.index(), op.is_write(), p, tape);
        if logged {
            self.log.record(delta);
        }
        caused_non_dr
    }

    /// Retract the last logged operation's stage-2 effects.
    /// `new_slot`: the operation had created `slot`.
    pub(super) fn undo(&mut self, slot: usize, item: ItemId, new_slot: bool) {
        let gd = self.log.pop().expect("one global entry per logged push");
        let tape = self.log.tape();
        self.graph.undo(slot, item.index(), tape);
        if gd.dr_mark != NO_POS {
            self.dirty_reads[gd.dr_mark as usize].remove(item);
        }
        for _ in 0..gd.n_kills {
            self.lemma6_killed.remove(ItemId(tape.pop()));
        }
        if gd.set_first_non_dr {
            self.first_non_dr = None;
        }
        if new_slot {
            while self.dirty_reads.len() > slot {
                let row = self.dirty_reads.pop().expect("length checked");
                self.spare_sets.give(row);
            }
        }
    }

    pub(super) fn raise_floor(&mut self, floor: usize) {
        self.log.checkpoint(floor);
    }

    /// Drop the first `s_cut` (summarized) slots: cut the global graph
    /// down (`ProjGraph::condense`), shift the slots retained journal
    /// entries name, recycle the delayed-read rows.
    pub(super) fn compact(&mut self, s_cut: usize, maps: &mut NodeMaps) {
        self.graph.compact(&mut self.log, s_cut, maps, |delta| {
            delta.shift_slots(s_cut as u32)
        });
        let rows = self.dirty_reads.len();
        for row in self.dirty_reads.drain(..s_cut.min(rows)) {
            self.spare_sets.give(row);
        }
    }

    pub(super) fn resident_bytes(&self) -> usize {
        self.graph.resident_bytes()
            + ItemSet::rows_bytes(&self.dirty_reads)
            + self.log.resident_bytes()
    }

    /// The ladder rung given whether every conjunct projection is
    /// still serializable.
    pub(super) fn level(&self, pwsr: bool) -> VerdictLevel {
        VerdictLevel::compose(self.graph.serializable(), self.first_non_dr.is_none(), pwsr)
    }

    /// Has no in-scope dirty read of conjunct `k` materialized?
    pub(super) fn lemma6_clean(&self, k: usize) -> bool {
        !self.lemma6_killed.contains(ItemId(k as u32))
    }

    /// The full verdict over a prefix of `len` operations, given the
    /// first position at which some conjunct projection went cyclic
    /// (the minimum over the shards' `cyclic_at`).
    pub(super) fn verdict(&self, len: usize, first_violation: Option<OpIndex>) -> Verdict {
        let pwsr = first_violation.is_none();
        Verdict {
            len,
            level: self.level(pwsr),
            serializable: self.graph.serializable(),
            dr: self.first_non_dr.is_none(),
            first_violation,
            first_non_serializable: self.graph.cyclic_at,
            first_non_dr: self.first_non_dr,
            lemma2_certified: pwsr,
            lemma6_certified: pwsr && self.lemma6_killed.is_empty(),
        }
    }
}

/// Stage-3 state: one conjunct's reduced conflict graph plus its own
/// undo journal — one record (the position) and one graph frame per
/// logged push that touched the conjunct, in position order.
#[derive(Clone, Debug, Default)]
pub(super) struct ShardState {
    pub(super) graph: ProjGraph,
    pub(super) log: UndoLog<u32>,
}

impl ShardState {
    /// Stage 3: the conjunct's conflict graph for the operation at
    /// `p`. Anything but [`Applied::Clean`] is a breach of the PWSR
    /// rung — this access would not have been admitted — but only
    /// [`Applied::Closed`] moves the conjunct's first-violation
    /// position.
    pub(super) fn apply(
        &mut self,
        slot: usize,
        op: &Operation,
        p: OpIndex,
        logged: bool,
    ) -> Applied {
        let tape = logged.then(|| self.log.tape());
        let applied = self
            .graph
            .apply(slot, op.item.index(), op.is_write(), p, tape);
        if logged {
            self.log.record(p.0 as u32);
        }
        applied
    }

    /// Retract the conjunct's last logged access, which was at `p`.
    pub(super) fn undo(&mut self, slot: usize, item: ItemId, p: OpIndex) {
        let pos = self.log.pop().expect("one shard entry per touched push");
        debug_assert_eq!(pos as usize, p.0);
        self.graph.undo(slot, item.index(), self.log.tape());
    }

    pub(super) fn raise_floor(&mut self, floor: usize) {
        let below = self.log.count_front(|&pos| (pos as usize) < floor);
        self.log.drop_oldest(below);
    }

    pub(super) fn compact(&mut self, s_cut: usize, maps: &mut NodeMaps) {
        self.graph.compact(&mut self.log, s_cut, maps, |_| {});
    }

    pub(super) fn resident_bytes(&self) -> usize {
        self.graph.resident_bytes() + self.log.resident_bytes()
    }
}

/// Would admitting this access by the transaction in `slot` keep
/// `level`? Read-only and exact against the current state. `global`
/// and `shard` hand out the stage states however the driver holds them
/// — plain references, or read guards taken in rank order and released
/// before the next is asked for.
pub(super) fn admits<G, S>(
    scope_index: &ScopeIndex,
    slot: Option<usize>,
    item: ItemId,
    is_write: bool,
    level: AdmissionLevel,
    global: impl Fn() -> G,
    shard: impl Fn(usize) -> S,
) -> bool
where
    G: Deref<Target = GlobalState>,
    S: Deref<Target = ShardState>,
{
    let conjuncts = || {
        scope_index
            .of(item)
            .iter()
            .all(|&k| shard(k as usize).graph.admits(slot, item.index(), is_write))
    };
    match level {
        AdmissionLevel::Serializable => global().graph.admits(slot, item.index(), is_write),
        AdmissionLevel::Pwsr => conjuncts(),
        AdmissionLevel::PwsrDr => {
            // Any operation of a dirtily-read transaction materializes
            // the DR violation.
            let clean = slot
                .and_then(|s| global().dirty_reads.get(s).map(ItemSet::is_empty))
                .unwrap_or(true);
            clean && conjuncts()
        }
    }
}
