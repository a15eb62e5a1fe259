//! An indexed view of a [`Schedule`] for the operation-indexed lemmas.
//!
//! The paper's induction (Lemmas 2/6, Theorems 1–3) asks the same
//! positional questions at every prefix of a schedule: *what has
//! transaction `T` read up to operation `p`?*, *what will it still
//! write after `p`?*, *has it finished by `p`?*. Answering them from
//! the raw operation sequence costs a full scan (and an allocation)
//! per `(txn, p)` query — `O(n)` each, `O(n²)` for a sweep.
//!
//! [`ScheduleIndex`] builds, in one pass over the schedule:
//!
//! * per-transaction operation position lists (ascending),
//! * per-transaction **prefix read/write sets** — the `RS`/`WS` of the
//!   transaction's first `k` operations as a dense [`ItemSet`] bitset,
//! * the *reads-from* source of every read position, and
//! * last-operation positions (the `txn_finished_by` lookup).
//!
//! Because a transaction reads and writes each item at most once
//! (§2.2), suffix sets are exact word-wise differences of totals and
//! prefixes: `WS(after(T, p, S)) = WS(T) − WS(before(T, p, S))`. Every
//! query is then a binary search over the transaction's own positions
//! plus a few word operations — no rescans, no `Vec<Operation>`
//! clones.
//!
//! ## Storage: one row per operation, nothing per transaction
//!
//! The tables live in the crate-private `PrefixTables`, extended one
//! operation at a time. An operation changes exactly one side of its
//! transaction — a read grows `RS`, a write grows `WS` — so a push
//! appends **one** set to an append-only row store (`rows[p]` is the
//! changed side after operation `p`) and records, per position, *which
//! position's row* holds the transaction's `RS` and which its `WS` at
//! that point: its own for the side it changed, its predecessor's
//! entry for the other. A query finds the transaction's last operation
//! at or before `p` and follows that one index; no row is ever copied
//! for the side that did not change. Position lists are runs of one
//! shared arena (a run that has to grow while it is not the last one
//! moves to the end; the holes are squeezed out when they outweigh the
//! live runs), so creating a transaction's tables calls no allocator.
//!
//! `ScheduleIndex::new` replays the schedule through
//! `PrefixTables::push` — the one table-building implementation. The
//! monitors do not keep these tables: their verdicts need only the
//! per-item latest write and each transaction's running totals (see
//! `monitor::stages`), and the Lemma 2/6 audit
//! ([`OnlineMonitor::certify_prefix`](crate::monitor::OnlineMonitor::certify_prefix))
//! builds an index from the schedule when asked.

use crate::ids::{OpIndex, TxnId};
use crate::op::{Action, Operation};
use crate::schedule::Schedule;
use crate::state::ItemSet;

const NONE: u32 = u32::MAX;

/// What the tables record per live position.
#[derive(Clone, Copy, Debug)]
struct OpRow {
    /// Position whose row is the transaction's `RS` after this
    /// operation (`NONE`: it has read nothing yet).
    rs_at: u32,
    /// Likewise for `WS`.
    ws_at: u32,
    /// The write this operation reads from (`NONE`: not a read, or a
    /// read of the initial state).
    reads_from: u32,
}

/// One slot's run of positions inside the arena.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: u32,
    len: u32,
}

/// The positional/prefix tables behind [`ScheduleIndex`]. Grown one
/// operation at a time via [`PrefixTables::push`]; every query is
/// answered from the tables without rescanning operations.
#[derive(Clone, Debug, Default)]
struct PrefixTables {
    /// Absolute position of the first live row — mirrors the
    /// schedule's compaction base. Positions stored in the tables are
    /// absolute; `ops` and `rows` are tail-relative storage.
    base: usize,
    /// Per slot: its ascending positions, as a run of `arena`.
    runs: Vec<Run>,
    arena: Vec<u32>,
    /// Arena words no run covers any more.
    holes: usize,
    /// The other half of the arena's double buffer (see
    /// [`PrefixTables::squeeze`]).
    arena_spare: Vec<u32>,
    /// Per live position: row indices and the reads-from source.
    ops: Vec<OpRow>,
    /// Per live position: the side the operation changed, after it.
    rows: Vec<ItemSet>,
    /// Per item: position of the latest write seen so far.
    last_write: Vec<u32>,
    /// Referenced when a query names a transaction not in the
    /// schedule, or a side a transaction has not touched yet.
    empty: ItemSet,
}

impl PrefixTables {
    /// Ascending positions of slot `slot`'s operations.
    fn positions(&self, slot: usize) -> &[u32] {
        let Run { start, len } = self.runs[slot];
        &self.arena[start as usize..(start + len) as usize]
    }

    fn row(&self, at: u32) -> &ItemSet {
        match at {
            NONE => &self.empty,
            q => &self.rows[q as usize - self.base],
        }
    }

    /// `(RS, WS)` of slot `slot` after its operation at position `q`.
    fn sets_at(&self, q: u32) -> (&ItemSet, &ItemSet) {
        let op = self.ops[q as usize - self.base];
        (self.row(op.rs_at), self.row(op.ws_at))
    }

    /// `(RS(T), WS(T))` of slot `slot` over the whole prefix.
    fn totals(&self, slot: usize) -> (&ItemSet, &ItemSet) {
        match self.positions(slot).last() {
            Some(&q) => self.sets_at(q),
            None => (&self.empty, &self.empty),
        }
    }

    /// `(RS, WS)` of slot `slot`'s operations at positions `≤ p` (the
    /// paper's `before` convention includes `p` itself).
    fn sets_before(&self, slot: usize, p: OpIndex) -> (&ItemSet, &ItemSet) {
        let positions = self.positions(slot);
        match positions.partition_point(|&q| q as usize <= p.0) {
            0 => (&self.empty, &self.empty),
            k => self.sets_at(positions[k - 1]),
        }
    }

    /// Append `p` to slot `slot`'s run (creating the slot if it is the
    /// next one), moving the run to the arena's end first when it is
    /// not already there.
    fn push_position(&mut self, slot: usize, p: u32) {
        debug_assert!(slot <= self.runs.len(), "slots are created in order");
        if slot == self.runs.len() {
            self.runs.push(Run {
                start: self.arena.len() as u32,
                len: 0,
            });
        }
        let Run { start, len } = self.runs[slot];
        let (start, end) = (start as usize, (start + len) as usize);
        if end != self.arena.len() {
            self.runs[slot].start = self.arena.len() as u32;
            self.arena.extend_from_within(start..end);
            self.holes += end - start;
        }
        self.arena.push(p);
        self.runs[slot].len += 1;
        if self.holes > self.arena.len() / 2 {
            self.squeeze();
        }
    }

    /// Copy the live runs, in slot order, into the spare buffer and
    /// swap the two: the holes left by moved runs are gone, and
    /// neither buffer is freed.
    fn squeeze(&mut self) {
        let mut packed = std::mem::take(&mut self.arena_spare);
        packed.clear();
        for run in &mut self.runs {
            let at = packed.len() as u32;
            packed
                .extend_from_slice(&self.arena[run.start as usize..(run.start + run.len) as usize]);
            run.start = at;
        }
        self.arena_spare = std::mem::replace(&mut self.arena, packed);
        self.holes = 0;
    }

    /// Append the operation at position `self.len()` for transaction
    /// slot `slot`: one row for the side it changes, `O(words)`.
    fn push(&mut self, slot: usize, op: &Operation) {
        let p = (self.base + self.ops.len()) as u32;
        if self.last_write.len() <= op.item.index() {
            self.last_write.resize(op.item.index() + 1, NONE);
        }
        // The transaction's entry so far: its previous operation's.
        let mut entry = match self.runs.get(slot).filter(|r| r.len > 0) {
            Some(run) => {
                self.ops[self.arena[(run.start + run.len - 1) as usize] as usize - self.base]
            }
            None => OpRow {
                rs_at: NONE,
                ws_at: NONE,
                reads_from: NONE,
            },
        };
        self.push_position(slot, p);
        let grown = match op.action {
            Action::Read => {
                entry.reads_from = self.last_write[op.item.index()];
                &mut entry.rs_at
            }
            Action::Write => {
                entry.reads_from = NONE;
                self.last_write[op.item.index()] = p;
                &mut entry.ws_at
            }
        };
        let mut row = match *grown {
            NONE => ItemSet::new(),
            q => self.rows[q as usize - self.base].clone(),
        };
        row.insert(op.item);
        *grown = p;
        self.rows.push(row);
        self.ops.push(entry);
    }

    /// Build the tables for a complete schedule by replaying it through
    /// [`PrefixTables::push`] — the single table-building path.
    fn build(schedule: &Schedule) -> PrefixTables {
        let mut t = PrefixTables {
            base: schedule.base(),
            ..PrefixTables::default()
        };
        for (i, o) in schedule.ops().iter().enumerate() {
            t.push(schedule.slot_of_op(OpIndex(schedule.base() + i)), o);
        }
        t
    }

    /// The write the read at live position `p` takes its value from.
    fn reads_from(&self, p: OpIndex) -> Option<OpIndex> {
        let w = self.ops[p.0 - self.base].reads_from;
        (w != NONE).then_some(OpIndex(w as usize))
    }
}

/// Positional lookup tables for one schedule, built once in `O(n)`.
#[derive(Clone, Debug)]
pub struct ScheduleIndex<'s> {
    schedule: &'s Schedule,
    tables: PrefixTables,
}

impl<'s> ScheduleIndex<'s> {
    /// Index `schedule` in one pass (slots come from the schedule's own
    /// dense tables — no hashing here).
    pub fn new(schedule: &'s Schedule) -> ScheduleIndex<'s> {
        ScheduleIndex {
            schedule,
            tables: PrefixTables::build(schedule),
        }
    }

    /// The indexed schedule.
    pub fn schedule(&self) -> &'s Schedule {
        self.schedule
    }

    /// The dense slot of `txn` (its index in `schedule.txn_ids()`).
    pub fn slot(&self, txn: TxnId) -> Option<usize> {
        self.schedule.txn_slot(txn)
    }

    /// Ascending operation positions of `txn`.
    pub fn positions_of(&self, txn: TxnId) -> &[u32] {
        self.slot(txn).map_or(&[][..], |s| self.tables.positions(s))
    }

    /// `RS(before(T, p, S))`: items `txn` has read at or before `p`.
    pub fn read_set_before(&self, txn: TxnId, p: OpIndex) -> &ItemSet {
        match self.slot(txn) {
            Some(s) => self.tables.sets_before(s, p).0,
            None => &self.tables.empty,
        }
    }

    /// `WS(before(T, p, S))`: items `txn` has written at or before `p`.
    pub fn write_set_before(&self, txn: TxnId, p: OpIndex) -> &ItemSet {
        match self.slot(txn) {
            Some(s) => self.tables.sets_before(s, p).1,
            None => &self.tables.empty,
        }
    }

    /// `RS(T)`: everything `txn` reads in the whole schedule.
    pub fn read_set_total(&self, txn: TxnId) -> &ItemSet {
        match self.slot(txn) {
            Some(s) => self.tables.totals(s).0,
            None => &self.tables.empty,
        }
    }

    /// `WS(T)`: everything `txn` writes in the whole schedule.
    pub fn write_set_total(&self, txn: TxnId) -> &ItemSet {
        match self.slot(txn) {
            Some(s) => self.tables.totals(s).1,
            None => &self.tables.empty,
        }
    }

    /// `(WS(T), WS(before(T, p, S)))` as row references, when the
    /// transaction appears in the schedule. The lemma updates fuse
    /// these with the conjunct mask in one word-wise pass.
    pub(crate) fn ws_total_and_before(
        &self,
        txn: TxnId,
        p: OpIndex,
    ) -> Option<(&ItemSet, &ItemSet)> {
        let s = self.slot(txn)?;
        Some((self.tables.totals(s).1, self.tables.sets_before(s, p).1))
    }

    /// `WS(after(T^d, p, S))` into `out`: the items of `d` that `txn`
    /// still writes strictly after `p`. Exact because a transaction
    /// writes each item at most once (§2.2).
    pub fn write_set_after_into(&self, txn: TxnId, p: OpIndex, d: &ItemSet, out: &mut ItemSet) {
        let Some((total, before)) = self.ws_total_and_before(txn, p) else {
            out.clear();
            return;
        };
        out.clone_from(total);
        out.difference_with(before);
        out.intersect_with(d);
    }

    /// Has `txn` completed all its operations at or before `p`
    /// (`after(T, p, S) = ε`)?
    pub fn txn_finished_by(&self, txn: TxnId, p: OpIndex) -> bool {
        self.positions_of(txn)
            .last()
            .is_none_or(|&last| last as usize <= p.0)
    }

    /// The position of `txn`'s last operation, if it has any.
    pub fn last_op_of(&self, txn: TxnId) -> Option<OpIndex> {
        self.positions_of(txn).last().map(|&q| OpIndex(q as usize))
    }

    /// The §3.2 reads-from source of position `p`, precomputed. The
    /// returned position can fall below the schedule's compaction base
    /// when the writer was summarized.
    pub fn reads_from(&self, p: OpIndex) -> Option<OpIndex> {
        self.tables.reads_from(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ItemId;
    use crate::op::Operation;
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    /// Example 1's schedule: r1(a,0), r2(a,0), w2(d,0), r1(c,5), w1(b,5).
    fn example1() -> Schedule {
        Schedule::new(vec![
            rd(1, 0, 0),
            rd(2, 0, 0),
            wr(2, 3, 0),
            rd(1, 2, 5),
            wr(1, 1, 5),
        ])
        .unwrap()
    }

    #[test]
    fn prefix_tables_match_scans() {
        let s = example1();
        let ix = ScheduleIndex::new(&s);
        for &t in s.txn_ids() {
            for p in s.positions() {
                let before = s.before_txn(t, p);
                assert_eq!(
                    *ix.read_set_before(t, p),
                    crate::op::read_set(&before),
                    "rs_before({t}, {p:?})"
                );
                assert_eq!(
                    *ix.write_set_before(t, p),
                    crate::op::write_set(&before),
                    "ws_before({t}, {p:?})"
                );
                assert_eq!(ix.txn_finished_by(t, p), s.txn_finished_by(t, p));
            }
            assert_eq!(ix.last_op_of(t), s.last_op_of(t));
        }
    }

    #[test]
    fn suffix_write_sets_match_projected_scans() {
        let s = example1();
        let ix = ScheduleIndex::new(&s);
        let d = ItemSet::from_iter([ItemId(1), ItemId(2)]);
        let mut out = ItemSet::new();
        for &t in s.txn_ids() {
            for p in s.positions() {
                ix.write_set_after_into(t, p, &d, &mut out);
                assert_eq!(
                    out,
                    crate::op::write_set(&s.after_txn_proj(t, &d, p)),
                    "ws_after({t}, {p:?})"
                );
            }
        }
    }

    #[test]
    fn reads_from_table_matches_schedule() {
        let s = Schedule::new(vec![wr(1, 0, 1), wr(2, 0, 2), rd(3, 0, 2), rd(3, 1, 0)]).unwrap();
        let ix = ScheduleIndex::new(&s);
        for p in s.positions() {
            assert_eq!(ix.reads_from(p), s.reads_from(p));
        }
    }

    #[test]
    fn unknown_txn_is_empty_and_finished() {
        let s = example1();
        let ix = ScheduleIndex::new(&s);
        let ghost = TxnId(99);
        assert!(ix.read_set_before(ghost, OpIndex(4)).is_empty());
        assert!(ix.write_set_total(ghost).is_empty());
        assert!(ix.txn_finished_by(ghost, OpIndex(0)));
        assert_eq!(ix.last_op_of(ghost), None);
        assert_eq!(ix.positions_of(ghost), &[] as &[u32]);
    }
}
