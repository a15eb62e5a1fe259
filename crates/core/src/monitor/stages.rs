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
//!   kills, and the global reduced conflict graph, kept as one more
//!   [`ShardState`] whose scope is every item;
//! * [`ShardState`] — one conjunct's reduced conflict graph and, in the
//!   pipeline's lane mode, the delayed-read state of the transactions
//!   homed in it.
//!
//! The single writer, and the pipeline outside lane mode, keep all
//! three from the first push.
//!
//! **The disjoint phase is lane mode's.** On a monitor whose scopes are
//! pairwise disjoint, until the first run that *spans* — touches items
//! of two scopes, or an item outside every scope — every transaction
//! keeps to the items of one conjunct, its home. The global conflict
//! graph is then the disjoint union of the conjunct graphs (the lemma
//! is at `ProjGraph::condense`), so serializability is PWSR and its
//! first failure is the first conjunct cycle. Definition 5's test stays
//! home too: a read and the write it reads from touch one item, hence
//! one conjunct, and the writer's next operation is in that conjunct as
//! well. The pipeline's *lane mode* (on a monitor with no journal)
//! rests on this locality. Each conjunct then has a [`SeqState`] of its
//! own, a lane, whose schedule holds the conjunct's operations — with
//! its own positions and slots, which the conjunct stage keys its graph
//! and marks by — while the one [`SeqState`] of the whole order holds
//! none and keeps the summarized set and the sweep counts
//! ([`SeqState::swept_to`]). A lane resolves every reads-from pair the
//! whole order would, since a read and its writer share an item. The
//! conjunct stage keeps the marks of its transactions, one flag per
//! transaction, with its own first non-DR position — which is also
//! where its Lemma 6 certificate died, every mark being in its scope —
//! and stage 2 stays idle. Leaving lane mode gives stage 2
//! ([`GlobalState::resume`]) and each conjunct ([`ShardState::resume`])
//! what the swept prefix decided for good, then pushes the lanes'
//! retained operations again, in position order, through every stage.
//! Which stage owns the marks is decided here alone: a conjunct stage
//! built for a lane ([`ShardState::conjunct`]) keeps them, and
//! [`GlobalState::verdict`] picks the first non-DR prefix from the
//! conjunct stages while stage 2 is idle, its own otherwise.
//!
//! Each part owns its undo journal (see [`undo`](super::undo)) and its
//! `apply` / `undo` / `raise_floor` / `compact` / `resident_bytes`.
//! Nothing here takes a lock or touches an atomic: the parts are plain
//! data, and the two drivers differ only in how they hold them.
//! [`OnlineMonitor`](super::OnlineMonitor) owns one of each (and one
//! [`ShardState`] per conjunct) and walks a run operation by operation;
//! [`ShardedMonitor`](super::sharded::ShardedMonitor) puts each behind
//! its ranked lock, taken in claimed order, and serves the same calls
//! one stage at a time. Because a stage sees its
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
//! [`Transaction::new`](crate::txn::Transaction::new) applies) and the
//! full [`Verdict`] assembly ([`GlobalState::verdict`]) sit here for
//! the same reason: one definition, two callers. So does the admission
//! probe ([`admits`]), whose one caller is
//! [`OnlineMonitor::admits`](super::OnlineMonitor::admits): it reads
//! the stage states, so it lives beside them.

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

    /// Per live transaction, in slot (first-appearance) order: the
    /// position of its first operation and, if it was declared
    /// finished, that of its last.
    pub(super) fn txn_spans(&self) -> impl Iterator<Item = (usize, Option<usize>)> + '_ {
        self.first_op.iter().enumerate().map(|(slot, &first)| {
            let finished = self.finished.is_finished(slot);
            let last = finished.then(|| self.schedule.slot_last_raw(slot) as usize);
            (first as usize, last)
        })
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
        self.compact_to(self.frontier(), true, compact_rest)
    }

    /// [`SeqState::compact`] to a `frontier` the driver computed: a
    /// prefix of the permanent one that holds every operation of each
    /// transaction it touches. `refuse`: this state's own summarized
    /// set takes the summarized transactions (a lane's copy is
    /// refreshed from the whole order's instead).
    pub(super) fn compact_to(
        &mut self,
        frontier: usize,
        refuse: bool,
        compact_rest: impl FnOnce(usize, &mut NodeMaps, &[TxnId]),
    ) -> CompactStats {
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
        for t in summarized.iter().filter(|_| refuse) {
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

    /// Lane mode (see the module docs) keeps each conjunct's operations
    /// in a stage-1 state of its own, a *lane*; this state
    /// then stands for the whole order and holds none of them. Count a
    /// sweep of the lanes that moved the frontier of the whole order to
    /// `frontier` and `summarized` the transactions given (ascending,
    /// so that they join the set's ranges at its end); the schedule
    /// restarts empty there.
    pub(super) fn swept_to(&mut self, frontier: usize, summarized: &[TxnId]) {
        debug_assert!(
            self.schedule.ops().is_empty(),
            "no operation outside the lanes"
        );
        summarized.iter().for_each(|&t| self.summarized.insert(t));
        self.compactions += 1;
        self.ops_reclaimed += (frontier - self.schedule.base()) as u64;
        self.schedule = Schedule::starting_at(frontier);
        self.log.reset(frontier);
    }

    /// Refresh a lane's copy of the summarized set from `whole`, the
    /// state that stands for the whole order, so that a transaction
    /// summarized in any lane is refused in every lane.
    pub(super) fn share_summarized(&mut self, whole: &SeqState) {
        self.summarized.clone_from(&whole.summarized);
    }

    /// Mark finished every transaction `lane` holds as finished: lane
    /// mode ended and its operations were pushed again here.
    pub(super) fn finish_from(&mut self, lane: &SeqState) {
        for (slot, &txn) in lane.schedule.txn_ids().iter().enumerate() {
            if lane.finished.is_finished(slot) {
                self.finish(txn);
            }
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

/// Stage-2 state: everything that needs the full total order. Idle
/// in lane mode, whose conjunct stages keep what it would (see the
/// module docs); kept from the first push everywhere else.
#[derive(Clone, Debug)]
pub(super) struct GlobalState {
    /// The global reduced conflict graph (serializability): a conjunct
    /// whose scope is every item, with its own position-keyed journal.
    /// `None` while idle in lane mode, where the conjunct stages decide
    /// instead — the graph would be their disjoint union. Only the
    /// readers ask; nothing in lane mode applies, undoes, raises or
    /// compacts this stage.
    pub(super) graph: Option<ShardState>,
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
    /// Stage-2 state, idle if its driver starts in lane mode.
    pub(super) fn new(in_lanes: bool) -> GlobalState {
        GlobalState {
            graph: (!in_lanes).then(ShardState::default),
            dirty_reads: Vec::new(),
            spare_sets: SetPool::default(),
            first_non_dr: None,
            lemma6_killed: ItemSet::new(),
            log: UndoLog::new(0),
        }
    }

    /// Lane mode ends: keep stage 2 from `base`, the sweeps' base, on,
    /// starting from what the summarized prefix below it decided for
    /// good in the `conjuncts`' stages, as [`ShardState::resume`] does
    /// for each of them. A conjunct cycle closed there froze the global
    /// graph (every conjunct cycle is a global one), so the graph starts
    /// frozen at the earliest; and a conjunct whose first non-DR
    /// position lies there had its Lemma 6 certificate killed, the
    /// earliest of them being the first non-DR prefix. Nothing else of
    /// the prefix matters: `ProjGraph::condense`'s lemma says no later
    /// cycle can use it, and its writers are finished, so no mark on
    /// them can trip. The driver then pushes the retained operations
    /// through this stage again.
    pub(super) fn resume<'a>(
        &mut self,
        base: usize,
        conjuncts: impl IntoIterator<Item = &'a ShardState>,
    ) {
        let below = |q: Option<OpIndex>| q.filter(|q| q.0 < base);
        let mut graph = ShardState::default();
        for (k, c) in conjuncts.into_iter().enumerate() {
            graph.graph.cyclic_at = earliest(graph.graph.cyclic_at, below(c.graph.cyclic_at));
            if let Some(q) = below(c.first_non_dr) {
                self.lemma6_killed.insert(ItemId(k as u32));
                self.first_non_dr = earliest(self.first_non_dr, Some(q));
            }
        }
        self.graph = Some(graph);
    }

    /// The global graph; stage 2 is kept wherever this is called.
    fn kept(&mut self) -> &mut ShardState {
        self.graph
            .as_mut()
            .expect("stage 2 idles only in lane mode")
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
        self.kept().apply(slot, op, None, p, logged);
        let mut delta = GlobalDelta::default();
        let tape = self.log.tape();
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
                    && logged
                {
                    tape.push(k as u32);
                    delta.n_kills += 1;
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
        if logged {
            self.log.record(delta);
        }
        caused_non_dr
    }

    /// Retract the last logged operation's stage-2 effects; it was at
    /// `p`. `new_slot`: the operation had created `slot`.
    pub(super) fn undo(&mut self, slot: usize, item: ItemId, p: OpIndex, new_slot: bool) {
        self.kept().undo(slot, item, p);
        let gd = self.log.pop().expect("one global entry per logged push");
        if gd.dr_mark != NO_POS {
            self.dirty_reads[gd.dr_mark as usize].remove(item);
        }
        let tape = self.log.tape();
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
        self.kept().raise_floor(floor);
    }

    /// Drop the first `s_cut` (summarized) slots: shift the slots
    /// retained journal entries name, cut the global graph down
    /// (`ProjGraph::condense`), recycle the delayed-read rows.
    pub(super) fn compact(&mut self, s_cut: usize, maps: &mut NodeMaps) {
        self.log
            .walk_back(|delta, _| delta.shift_slots(s_cut as u32));
        self.kept().compact(s_cut, maps);
        let rows = self.dirty_reads.len();
        for row in self.dirty_reads.drain(..s_cut.min(rows)) {
            self.spare_sets.give(row);
        }
    }

    pub(super) fn resident_bytes(&self) -> usize {
        self.graph.as_ref().map_or(0, ShardState::resident_bytes)
            + ItemSet::rows_bytes(&self.dirty_reads)
            + self.log.resident_bytes()
    }

    /// What the global graph says of serializability — `None` while
    /// idle in lane mode, where it is exactly PWSR.
    pub(super) fn serializable(&self) -> Option<bool> {
        self.graph.as_ref().map(|g| g.graph.serializable())
    }

    /// The maintained global serialization order over `txns` (the
    /// slots' transactions), or `None` once the graph is cyclic.
    pub(super) fn order(&self, txns: &[TxnId]) -> Option<Vec<TxnId>> {
        self.graph.as_ref()?.graph.order(txns)
    }

    /// The first non-DR prefix, given `homes`, the earliest first
    /// non-DR position the conjunct stages keep: theirs is the answer
    /// while stage 2 idles in lane mode, stage 2's own otherwise. The
    /// one place that picks between the two.
    pub(super) fn first_non_dr(&self, homes: Option<OpIndex>) -> Option<OpIndex> {
        match self.graph {
            None => homes,
            Some(_) => self.first_non_dr,
        }
    }

    /// The ladder rung given whether every conjunct projection is
    /// still serializable and whether the prefix is still DR.
    pub(super) fn level(&self, pwsr: bool, dr: bool) -> VerdictLevel {
        let serializable = self.serializable().unwrap_or(pwsr);
        VerdictLevel::compose(serializable, dr, pwsr)
    }

    /// Has no in-scope dirty read of conjunct `k` materialized? In lane
    /// mode its own stage, `home`, knows: every mark there is in its
    /// scope, so its first non-DR position is the kill.
    pub(super) fn lemma6_clean(&self, k: usize, home: &ShardState) -> bool {
        match self.graph {
            None => home.first_non_dr.is_none(),
            Some(_) => !self.lemma6_killed.contains(ItemId(k as u32)),
        }
    }

    /// The full verdict over a prefix of `len` operations, given what
    /// the conjunct stages keep: the first position at which one of
    /// their projections went cyclic (the minimum over their
    /// `cyclic_at`) — in lane mode also the first non-serializable
    /// prefix — and `homes`, the earliest of their first non-DR
    /// positions (see [`GlobalState::first_non_dr`]).
    pub(super) fn verdict(
        &self,
        len: usize,
        first_violation: Option<OpIndex>,
        homes: Option<OpIndex>,
    ) -> Verdict {
        let first_non_dr = self.first_non_dr(homes);
        let pwsr = first_violation.is_none();
        let first_non_serializable = self
            .graph
            .as_ref()
            .map_or(first_violation, |g| g.graph.cyclic_at);
        // In lane mode every mark lies in its home's scope, so a dirty
        // read kills a certificate exactly when it materializes.
        let killed = match self.graph {
            None => first_non_dr.is_some(),
            Some(_) => !self.lemma6_killed.is_empty(),
        };
        Verdict {
            len,
            level: self.level(pwsr, first_non_dr.is_none()),
            serializable: first_non_serializable.is_none(),
            dr: first_non_dr.is_none(),
            first_violation,
            first_non_serializable,
            first_non_dr,
            lemma2_certified: pwsr,
            lemma6_certified: pwsr && !killed,
        }
    }
}

/// Stage-3 state: one conjunct's reduced conflict graph plus its own
/// undo journal — one record (the position) and one graph frame per
/// logged push that touched the conjunct, in position order — and, in
/// lane mode, the delayed-read state of the transactions homed in it.
#[derive(Clone, Debug, Default)]
pub(super) struct ShardState {
    pub(super) graph: ProjGraph,
    pub(super) log: UndoLog<u32>,
    /// Does this stage keep the delayed-read state of the transactions
    /// homed in it? Set for a lane's conjunct only, and lane mode is
    /// unlogged, so no mark is journaled.
    keeps_marks: bool,
    /// Lane mode, per slot: has another transaction read a value the
    /// slot's transaction (homed here) wrote? Its next operation then
    /// materializes a dirty read. What stage 2 keeps as a row of marked
    /// items is one flag here, every mark being in this scope.
    read_from: Vec<bool>,
    /// Lane mode: the first position at which a transaction homed here
    /// materialized a dirty read — where this conjunct's Lemma 6
    /// certificate died.
    pub(super) first_non_dr: Option<OpIndex>,
}

impl ShardState {
    /// The stage of one conjunct, which keeps the marks of the
    /// transactions homed in it if the conjunct has a lane.
    pub(super) fn conjunct(in_lane: bool) -> ShardState {
        ShardState {
            keeps_marks: in_lane,
            ..ShardState::default()
        }
    }

    /// Lane mode ends: a fresh stage for this conjunct, to push the
    /// retained operations from `base` into again, which keeps no marks
    /// (stage 2 keeps them from now on) and only what the summarized
    /// prefix below `base` decided for good — a cycle closed there, so
    /// the graph starts frozen — by the lemma [`GlobalState::resume`]
    /// rests on.
    pub(super) fn resume(&self, base: usize) -> ShardState {
        let mut fresh = ShardState::default();
        fresh.graph.cyclic_at = self.graph.cyclic_at.filter(|q| q.0 < base);
        fresh
    }

    /// Stage 3: the conjunct's conflict graph for the operation at
    /// `p` and, in lane mode, its delayed-read marks, given the slot of
    /// the writer a read takes its value from. Anything but
    /// [`Applied::Clean`] is a breach of the PWSR rung — this access
    /// would not have been admitted — but only [`Applied::Closed`]
    /// moves the conjunct's first-violation position. The flag is
    /// whether the operation materialized a dirty read (always `false`
    /// where stage 2 keeps the marks; it answers then).
    pub(super) fn apply(
        &mut self,
        slot: usize,
        op: &Operation,
        rf_slot: Option<usize>,
        p: OpIndex,
        logged: bool,
    ) -> (Applied, bool) {
        let tape = logged.then(|| self.log.tape());
        let applied = self
            .graph
            .apply(slot, op.item.index(), op.is_write(), p, tape);
        if logged {
            self.log.record(p.0 as u32);
        }
        if !self.keeps_marks {
            return (applied, false);
        }
        debug_assert!(!logged, "lane mode keeps no journal");
        let caused_non_dr = self.was_read_from(slot);
        if caused_non_dr && self.first_non_dr.is_none() {
            self.first_non_dr = Some(p);
        }
        if let (false, Some(w_slot)) = (op.is_write(), rf_slot) {
            if w_slot != slot && !self.was_read_from(w_slot) {
                if self.read_from.len() <= w_slot {
                    self.read_from.resize(w_slot + 1, false);
                }
                self.read_from[w_slot] = true;
            }
        }
        (applied, caused_non_dr)
    }

    /// Has another transaction read from the one in `slot` (lane mode)?
    fn was_read_from(&self, slot: usize) -> bool {
        self.read_from.get(slot) == Some(&true)
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

    /// Drop the first `s_cut` (summarized) slots: cut the graph down
    /// (`ProjGraph::condense`) and, in lane mode, the delayed-read
    /// flags with it.
    pub(super) fn compact(&mut self, s_cut: usize, maps: &mut NodeMaps) {
        self.graph.compact(&mut self.log, s_cut, maps, |_| {});
        let cut = s_cut.min(self.read_from.len());
        self.read_from.drain(..cut);
    }

    pub(super) fn resident_bytes(&self) -> usize {
        self.graph.resident_bytes() + self.log.resident_bytes() + self.read_from.len()
    }
}

/// Would admitting this access by the transaction in `slot` keep
/// `level`? Read-only and exact against the current state of `global`
/// (which the single writer keeps from its first push) and the
/// conjunct `shards`.
pub(super) fn admits(
    scope_index: &ScopeIndex,
    slot: Option<usize>,
    item: ItemId,
    is_write: bool,
    level: AdmissionLevel,
    (global, shards): (&GlobalState, &[ShardState]),
) -> bool {
    let conjuncts = || {
        scope_index.of(item).iter().all(|&k| {
            shards[k as usize]
                .graph
                .admits(slot, item.index(), is_write)
        })
    };
    match level {
        AdmissionLevel::Serializable => {
            let graph = global
                .graph
                .as_ref()
                .expect("the single writer keeps stage 2");
            graph.graph.admits(slot, item.index(), is_write)
        }
        AdmissionLevel::Pwsr => conjuncts(),
        AdmissionLevel::PwsrDr => {
            // Any operation of a dirtily-read transaction materializes
            // the DR violation.
            let clean =
                slot.is_none_or(|s| global.dirty_reads.get(s).is_none_or(ItemSet::is_empty));
            clean && conjuncts()
        }
    }
}

/// The earlier of two optional positions.
pub(super) fn earliest(a: Option<OpIndex>, b: Option<OpIndex>) -> Option<OpIndex> {
    a.into_iter().chain(b).min()
}
