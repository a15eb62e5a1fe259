//! Schedules: interleaved executions of several transactions.
//!
//! §2.2: a schedule `S = (τ_S, ≺_S)` is a finite set of transactions
//! with a total order on all their operations that respects each
//! transaction's own order. Since we store the interleaving itself, the
//! per-transaction orders are respected by construction; validation
//! instead enforces the transaction well-formedness rules of
//! [`crate::txn`].
//!
//! The module also provides the paper's positional notions:
//! `before(seq, p, S)`, `after(seq, p, S)`, `depth(p, S)` and the
//! *reads-from* relation of §3.2, plus execution (`[DS1] S [DS2]`) and a
//! read-coherence check connecting recorded read values to an initial
//! state.

use crate::catalog::Catalog;
use crate::error::{CoreError, Result};
use crate::ids::{IdMap, OpIndex, TxnId};
use crate::op::{Action, Operation};
use crate::state::{DbState, ItemSet};
use crate::txn::Transaction;
use std::collections::BTreeMap;
use std::fmt;

/// A schedule: the total order `≺_S` over all operations.
///
/// Alongside the operation sequence the schedule carries small
/// positional tables built once at construction — each operation's
/// dense transaction slot, each transaction's last position, and the
/// item-id upper bound — so the checkers' positional queries
/// (`txn_finished_by`, reads-from sweeps, conflict grouping) run
/// without hashing or rescanning.
/// Positions are **absolute** and survive committed-prefix compaction:
/// after `Schedule::compact_prefix` the operations below `base` are
/// gone, but every retained position keeps its original `OpIndex`, so
/// monotone facts recorded about the prefix (first-violation indices,
/// last-write positions, undo-floor bounds) stay valid unremapped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The live operation tail: positions `[base, base + ops.len())`.
    ops: Vec<Operation>,
    /// Number of operations reclaimed by committed-prefix compaction;
    /// the absolute position of `ops[0]`.
    base: usize,
    /// Transaction ids in order of first appearance.
    txns: Vec<TxnId>,
    /// Transaction id → dense slot (index into `txns`).
    slot_of: IdMap<TxnId, u32>,
    /// Per live operation (tail-relative): the dense slot of its
    /// transaction.
    op_slot: Vec<u32>,
    /// Per slot: the **absolute** position of the transaction's last
    /// operation.
    slot_last: Vec<u32>,
    /// One past the largest item id accessed (0 when empty).
    item_ub: usize,
}

impl Schedule {
    /// Derive the positional tables from a validated operation
    /// sequence plus its first-appearance transaction order.
    fn finish(ops: Vec<Operation>, txns: Vec<TxnId>) -> Schedule {
        let slot_of: IdMap<TxnId, u32> = txns
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        let mut op_slot = Vec::with_capacity(ops.len());
        let mut slot_last = vec![0u32; txns.len()];
        let mut item_ub = 0usize;
        for (p, o) in ops.iter().enumerate() {
            let s = slot_of[&o.txn];
            op_slot.push(s);
            slot_last[s as usize] = p as u32;
            item_ub = item_ub.max(o.item.index() + 1);
        }
        Schedule {
            ops,
            base: 0,
            txns,
            slot_of,
            op_slot,
            slot_last,
            item_ub,
        }
    }

    /// An empty schedule whose first position is `base`: what is left
    /// of one whose first `base` operations were compacted away.
    pub(crate) fn starting_at(base: usize) -> Schedule {
        Schedule {
            base,
            ..Schedule::default()
        }
    }

    /// Append a contiguous **segment** of operations, all from one
    /// transaction, paying the positional-table bookkeeping once for
    /// the whole run instead of per operation — the monitors' only
    /// growth step. `existing` is the transaction's slot as
    /// [`Schedule::txn_slot`] reports it (the caller has just looked
    /// it up to validate the run, so the hash is probed once per run);
    /// returns the dense slot the segment landed in. The caller owns
    /// the order, has §2.2-validated the run, and guarantees `ops` is
    /// nonempty and single-txn; the segment occupies positions
    /// `[len, len + ops.len())` exactly as if pushed one by one, so
    /// `pop_op_unchecked` undoes its operations individually in LIFO
    /// order.
    pub(crate) fn push_segment_unchecked(
        &mut self,
        ops: &[Operation],
        existing: Option<usize>,
    ) -> usize {
        debug_assert!(!ops.is_empty());
        debug_assert!(ops.iter().all(|o| o.txn == ops[0].txn));
        debug_assert_eq!(existing, self.txn_slot(ops[0].txn));
        let p0 = self.base + self.ops.len();
        let slot = match existing {
            Some(s) => s as u32,
            None => {
                let s = self.txns.len() as u32;
                self.txns.push(ops[0].txn);
                self.slot_of.insert(ops[0].txn, s);
                self.slot_last.push(p0 as u32);
                s
            }
        };
        self.op_slot.extend(std::iter::repeat_n(slot, ops.len()));
        self.slot_last[slot as usize] = (p0 + ops.len() - 1) as u32;
        for o in ops {
            self.item_ub = self.item_ub.max(o.item.index() + 1);
        }
        self.ops.extend_from_slice(ops);
        slot as usize
    }

    /// The position of slot `slot`'s last operation — the value a
    /// sequence-stage undo-log entry captures before a push displaces
    /// it.
    pub(crate) fn slot_last_raw(&self, slot: usize) -> u32 {
        self.slot_last[slot]
    }

    /// Retract the last operation appended — the undo-log's schedule
    /// half — and hand it back. `new_txn` says the popped operation
    /// was its transaction's first (the transaction disappears);
    /// otherwise `prev_slot_last` restores the transaction's previous
    /// last-operation position. `prev_item_ub` restores the item
    /// bound captured before the push (it is monotone, so it cannot
    /// be recomputed locally).
    pub(crate) fn pop_op_unchecked(
        &mut self,
        new_txn: bool,
        prev_slot_last: u32,
        prev_item_ub: usize,
    ) -> Operation {
        let op = self.ops.pop().expect("pop on empty schedule");
        let slot = self.op_slot.pop().expect("op_slot in step") as usize;
        if new_txn {
            debug_assert_eq!(slot + 1, self.txns.len());
            let t = self.txns.pop().expect("txn in step");
            debug_assert_eq!(t, op.txn);
            self.slot_of.remove(&t);
            self.slot_last.pop();
        } else {
            self.slot_last[slot] = prev_slot_last;
        }
        self.item_ub = prev_item_ub;
        op
    }

    /// Build a schedule from an interleaved operation sequence.
    ///
    /// Validates that every per-transaction subsequence satisfies the
    /// §2.2 assumptions (read/write each item at most once, no
    /// read-after-write).
    pub fn new(ops: Vec<Operation>) -> Result<Schedule> {
        let mut txns: Vec<TxnId> = Vec::new();
        let mut per_txn: BTreeMap<TxnId, Vec<Operation>> = BTreeMap::new();
        for o in &ops {
            if !per_txn.contains_key(&o.txn) {
                txns.push(o.txn);
            }
            per_txn.entry(o.txn).or_default().push(o.clone());
        }
        for (id, seq) in per_txn {
            // Transaction::new re-runs the well-formedness rules.
            Transaction::new(id, seq)?;
        }
        Ok(Schedule::finish(ops, txns))
    }

    /// Concatenate complete transactions serially, in the given order.
    pub fn serial(txns: &[Transaction]) -> Result<Schedule> {
        let mut ops = Vec::with_capacity(txns.iter().map(Transaction::len).sum());
        for t in txns {
            ops.extend_from_slice(t.ops());
        }
        Schedule::new(ops)
    }

    /// The live operation sequence — positions `[base, len)`. Before
    /// any compaction (`base == 0`) this is the whole schedule.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations ever appended, **including** the compacted
    /// prefix: `base + ops().len()`.
    pub fn len(&self) -> usize {
        self.base + self.ops.len()
    }

    /// Is the schedule empty (never held an operation)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The absolute position of the first live operation — the number
    /// of operations reclaimed by `Schedule::compact_prefix`.
    pub fn base(&self) -> usize {
        self.base
    }

    /// The operation at absolute position `p`. Panics if `p` fell
    /// below the compaction base.
    pub fn op(&self, p: OpIndex) -> &Operation {
        debug_assert!(
            p.0 >= self.base,
            "op({}): position below the compaction base {}",
            p.0,
            self.base
        );
        &self.ops[p.0 - self.base]
    }

    /// All live positions, first to last.
    pub fn positions(&self) -> impl Iterator<Item = OpIndex> {
        (self.base..self.base + self.ops.len()).map(OpIndex)
    }

    /// Reclaim the prefix `[base, frontier)` of the schedule. The
    /// caller (the monitors' committed-prefix compaction) guarantees
    /// the frontier is **transaction-closed**: every transaction with
    /// an operation below `frontier` has *all* its operations below
    /// `frontier`. Because slots are assigned in first-appearance
    /// order, those transactions occupy exactly the slot prefix, so
    /// surviving slots renumber by a constant shift. Returns the
    /// summarized transaction ids in slot order.
    pub(crate) fn compact_prefix(&mut self, frontier: usize) -> Vec<TxnId> {
        assert!(
            frontier >= self.base && frontier <= self.len(),
            "compact_prefix({frontier}) outside [{}, {}]",
            self.base,
            self.len()
        );
        let cut = frontier - self.base;
        if cut == 0 {
            return Vec::new();
        }
        let s_cut = if cut == self.ops.len() {
            self.txns.len()
        } else {
            self.op_slot[cut] as usize
        };
        debug_assert!(
            self.slot_last[..s_cut]
                .iter()
                .all(|&l| (l as usize) < frontier),
            "compact_prefix: unfinished transaction below the frontier"
        );
        debug_assert!(self.op_slot[..cut].iter().all(|&s| (s as usize) < s_cut));
        debug_assert!(self.op_slot[cut..].iter().all(|&s| (s as usize) >= s_cut));
        let summarized: Vec<TxnId> = self.txns.drain(..s_cut).collect();
        for t in &summarized {
            self.slot_of.remove(t);
        }
        for s in self.slot_of.values_mut() {
            *s -= s_cut as u32;
        }
        self.ops.drain(..cut);
        self.op_slot.drain(..cut);
        for s in &mut self.op_slot {
            *s -= s_cut as u32;
        }
        self.slot_last.drain(..s_cut);
        self.base = frontier;
        summarized
    }

    /// Bytes of the live operation tail and the positional tables
    /// (the hash table at one control byte per entry).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ops.len() * (size_of::<Operation>() + size_of::<u32>())
            + self.txns.len() * (2 * size_of::<TxnId>() + 2 * size_of::<u32>() + 1)
    }

    /// `depth(p, S)`: number of operations strictly before `p`.
    pub fn depth(&self, p: OpIndex) -> usize {
        p.depth()
    }

    /// `τ_S`: the transaction ids, in order of first appearance.
    pub fn txn_ids(&self) -> &[TxnId] {
        &self.txns
    }

    /// Extract transaction `id` (its operations in schedule order).
    pub fn transaction(&self, id: TxnId) -> Transaction {
        Transaction::new_unchecked(
            id,
            self.ops.iter().filter(|o| o.txn == id).cloned().collect(),
        )
    }

    /// Extract every transaction, in first-appearance order.
    pub fn transactions(&self) -> Vec<Transaction> {
        self.txns.iter().map(|&id| self.transaction(id)).collect()
    }

    /// `S^d`: the projection onto operations whose item is in `d`.
    pub fn project(&self, d: &ItemSet) -> Schedule {
        let ops: Vec<Operation> = self
            .ops
            .iter()
            .filter(|o| d.contains(o.item))
            .cloned()
            .collect();
        let mut txns = Vec::new();
        for o in &ops {
            if !txns.contains(&o.txn) {
                txns.push(o.txn);
            }
        }
        Schedule::finish(ops, txns)
    }

    /// `before(T_i, p, S)`: the operations of transaction `txn` that
    /// precede `p` in `S`; if `p` belongs to `txn` it is **included**
    /// (the paper's convention).
    pub fn before_txn(&self, txn: TxnId, p: OpIndex) -> Vec<Operation> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(i, o)| o.txn == txn && *i + self.base <= p.0)
            .map(|(_, o)| o.clone())
            .collect()
    }

    /// `after(T_i, p, S)`: the operations of `txn` not in
    /// `before(T_i, p, S)` — i.e. strictly after `p`.
    pub fn after_txn(&self, txn: TxnId, p: OpIndex) -> Vec<Operation> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(i, o)| o.txn == txn && *i + self.base > p.0)
            .map(|(_, o)| o.clone())
            .collect()
    }

    /// `before(T_i^d, p, S)`: like [`Schedule::before_txn`] but
    /// restricted to items in `d` (needed by Lemmas 2, 4, 6, 8).
    pub fn before_txn_proj(&self, txn: TxnId, d: &ItemSet, p: OpIndex) -> Vec<Operation> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(i, o)| o.txn == txn && d.contains(o.item) && *i + self.base <= p.0)
            .map(|(_, o)| o.clone())
            .collect()
    }

    /// `after(T_i^d, p, S)`: the projected complement.
    pub fn after_txn_proj(&self, txn: TxnId, d: &ItemSet, p: OpIndex) -> Vec<Operation> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(i, o)| o.txn == txn && d.contains(o.item) && *i + self.base > p.0)
            .map(|(_, o)| o.clone())
            .collect()
    }

    /// The dense slot of `txn` (its index in [`Schedule::txn_ids`]).
    pub(crate) fn txn_slot(&self, txn: TxnId) -> Option<usize> {
        self.slot_of.get(&txn).map(|&s| s as usize)
    }

    /// The dense transaction slot of the operation at absolute
    /// position `p` (which must not fall below the compaction base).
    pub fn slot_of_op(&self, p: OpIndex) -> usize {
        self.op_slot[p.0 - self.base] as usize
    }

    /// One past the largest item id accessed by any operation (0 when
    /// the schedule is empty) — sizes dense per-item scratch tables.
    pub(crate) fn item_ub(&self) -> usize {
        self.item_ub
    }

    /// Has transaction `txn` completed all its operations at or before
    /// position `p` (`after(T, p, S) = ε`)? O(1) via the last-position
    /// table.
    pub fn txn_finished_by(&self, txn: TxnId, p: OpIndex) -> bool {
        self.txn_slot(txn)
            .is_none_or(|s| self.slot_last[s] as usize <= p.0)
    }

    /// The position of `txn`'s last operation, if it has any.
    pub fn last_op_of(&self, txn: TxnId) -> Option<OpIndex> {
        self.txn_slot(txn)
            .map(|s| OpIndex(self.slot_last[s] as usize))
    }

    /// Has the transaction owning the operation at `op_pos` finished by
    /// `p`? O(1) and hash-free (both positions index dense tables).
    pub(crate) fn op_txn_finished_by(&self, op_pos: OpIndex, p: OpIndex) -> bool {
        self.slot_last[self.op_slot[op_pos.0 - self.base] as usize] as usize <= p.0
    }

    /// All `(reader, writer)` position pairs of the reads-from relation,
    /// gathered in one pass tracking the latest writer per item.
    pub fn reads_from_pairs(&self) -> Vec<(OpIndex, OpIndex)> {
        const NONE: u32 = u32::MAX;
        let mut last_write = vec![NONE; self.item_ub];
        let mut out = Vec::new();
        for (p, o) in self.ops.iter().enumerate() {
            match o.action {
                Action::Read => {
                    let w = last_write[o.item.index()];
                    if w != NONE {
                        out.push((OpIndex(self.base + p), OpIndex(w as usize)));
                    }
                }
                Action::Write => {
                    last_write[o.item.index()] = (self.base + p) as u32;
                }
            }
        }
        out
    }

    /// Execute the schedule from `initial`: apply every write in order.
    /// This is the `[DS1] S [DS2]` of the paper.
    pub fn apply(&self, initial: &DbState) -> DbState {
        let mut ds = initial.clone();
        for o in &self.ops {
            if o.is_write() {
                ds.set(o.item, o.value.clone());
            }
        }
        ds
    }

    /// Check *read coherence* against an initial state: every read
    /// operation's recorded value equals the latest preceding write to
    /// that item, or the initial state's value if none. This is what
    /// makes a recorded schedule an actual *execution* from `initial`.
    pub fn check_read_coherence(&self, initial: &DbState) -> Result<()> {
        let mut current = initial.clone();
        for (i, o) in self.ops.iter().enumerate() {
            match o.action {
                Action::Read => {
                    let expected = current.get(o.item).ok_or(CoreError::MissingItem(o.item))?;
                    if expected != &o.value {
                        return Err(CoreError::MalformedSchedule(format!(
                            "read at position {i} returned {} but the current value is {expected}",
                            o.value
                        )));
                    }
                }
                Action::Write => {
                    current.set(o.item, o.value.clone());
                }
            }
        }
        Ok(())
    }

    /// Render like the paper: `r1(a, 0), r2(a, 0), w2(d, 0), …`.
    pub fn display(&self, catalog: &Catalog) -> String {
        let body: Vec<String> = self.ops.iter().map(|o| o.display(catalog)).collect();
        body.join(", ")
    }
}

#[cfg(test)]
impl Schedule {
    /// The §3.2 *reads-from* relation: the write operation that read
    /// `p` takes its value from — the latest write to the same item
    /// strictly before `p` (with no intervening write, which "latest"
    /// guarantees). `None` if `p` is not a read or reads the initial
    /// state.
    pub(crate) fn reads_from(&self, p: OpIndex) -> Option<OpIndex> {
        let o = &self.ops[p.0 - self.base];
        if o.action != Action::Read {
            return None;
        }
        self.ops[..p.0 - self.base]
            .iter()
            .rposition(|w| w.action == Action::Write && w.item == o.item)
            .map(|i| OpIndex(self.base + i))
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, o) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{o}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ItemId;
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    /// Example 1's schedule:
    /// S: r1(a,0), r2(a,0), w2(d,0), r1(c,5), w1(b,5)
    /// with a=0,b=1,c=2,d=3.
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

    fn ds1() -> DbState {
        DbState::from_pairs([
            (ItemId(0), Value::Int(0)),
            (ItemId(1), Value::Int(10)),
            (ItemId(2), Value::Int(5)),
            (ItemId(3), Value::Int(10)),
        ])
    }

    #[test]
    fn example1_execution() {
        // [DS1] S [DS2] with DS2 = {(a,0),(b,5),(c,5),(d,0)}.
        let s = example1();
        let ds2 = s.apply(&ds1());
        assert_eq!(ds2.get(ItemId(0)), Some(&Value::Int(0)));
        assert_eq!(ds2.get(ItemId(1)), Some(&Value::Int(5)));
        assert_eq!(ds2.get(ItemId(2)), Some(&Value::Int(5)));
        assert_eq!(ds2.get(ItemId(3)), Some(&Value::Int(0)));
        s.check_read_coherence(&ds1()).unwrap();
    }

    #[test]
    fn example1_transactions() {
        let s = example1();
        assert_eq!(s.txn_ids(), &[TxnId(1), TxnId(2)]);
        let t1 = s.transaction(TxnId(1));
        assert_eq!(t1.len(), 3);
        let t2 = s.transaction(TxnId(2));
        assert_eq!(t2.len(), 2);
    }

    #[test]
    fn example1_projection() {
        // S^{a,c} keeps the three reads on a and c, in schedule order.
        let s = example1();
        let proj = s.project(&ItemSet::from_iter([ItemId(0), ItemId(2)]));
        assert_eq!(proj.len(), 3);
        assert!(proj.ops().iter().all(|o| o.is_read()));
        assert_eq!(proj.ops()[0].txn, TxnId(1));
        assert_eq!(proj.ops()[1].txn, TxnId(2));
    }

    #[test]
    fn before_after_with_paper_example() {
        // With p = w2(d, 0) (position 2):
        //   before(T2, p, S) = r2(a,0), w2(d,0)   (p included, p ∈ T2)
        //   after(T1, p, S)  = r1(c,5), w1(b,5)
        let s = example1();
        let p = OpIndex(2);
        let before_t2 = s.before_txn(TxnId(2), p);
        assert_eq!(before_t2.len(), 2);
        assert!(before_t2[1].is_write());
        let after_t1 = s.after_txn(TxnId(1), p);
        assert_eq!(after_t1.len(), 2);
        assert_eq!(after_t1[0].item, ItemId(2));
        assert_eq!(s.depth(p), 2);
    }

    #[test]
    fn before_excludes_p_of_other_txn() {
        let s = example1();
        let p = OpIndex(2); // w2(d,0) — belongs to T2, not T1
        let before_t1 = s.before_txn(TxnId(1), p);
        // T1 ops before position 2: just r1(a,0).
        assert_eq!(before_t1.len(), 1);
        assert_eq!(before_t1[0].item, ItemId(0));
    }

    #[test]
    fn projected_before_after() {
        let s = example1();
        let d = ItemSet::from_iter([ItemId(1), ItemId(2)]); // {b, c}
        let p = OpIndex(3); // r1(c,5)
        let before = s.before_txn_proj(TxnId(1), &d, p);
        assert_eq!(before.len(), 1); // r1(c,5) itself (r1(a,0) not in d)
        let after = s.after_txn_proj(TxnId(1), &d, p);
        assert_eq!(after.len(), 1); // w1(b,5)
    }

    #[test]
    fn reads_from_relation() {
        // w1(a,1), r2(a,1): T2 reads a from T1's write.
        let s = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 1), rd(2, 1, 0)]).unwrap();
        assert_eq!(s.reads_from(OpIndex(1)), Some(OpIndex(0)));
        assert_eq!(s.reads_from(OpIndex(2)), None); // reads initial state
        assert_eq!(s.reads_from(OpIndex(0)), None); // a write
        assert_eq!(s.reads_from_pairs(), vec![(OpIndex(1), OpIndex(0))]);
    }

    #[test]
    fn reads_from_latest_write_wins() {
        let s = Schedule::new(vec![wr(1, 0, 1), wr(2, 0, 2), rd(3, 0, 2)]).unwrap();
        assert_eq!(s.reads_from(OpIndex(2)), Some(OpIndex(1)));
    }

    #[test]
    fn read_coherence_catches_stale_value() {
        let s = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 99)]).unwrap();
        let initial = DbState::from_pairs([(ItemId(0), Value::Int(0))]);
        assert!(s.check_read_coherence(&initial).is_err());
    }

    #[test]
    fn serial_constructor_concatenates_in_order() {
        let t1 = Transaction::new(TxnId(1), vec![rd(1, 0, 0), wr(1, 1, 5)]).unwrap();
        let t2 = Transaction::new(TxnId(2), vec![wr(2, 2, 7)]).unwrap();
        let serial = Schedule::serial(&[t1, t2]).unwrap();
        assert_eq!(serial.len(), 3);
        assert_eq!(serial.ops()[2].txn, TxnId(2));
    }

    #[test]
    fn schedule_validates_txn_rules() {
        // T1 reads a twice across the interleaving — rejected.
        let err = Schedule::new(vec![rd(1, 0, 0), rd(2, 0, 0), rd(1, 0, 0)]);
        assert!(err.is_err());
    }

    #[test]
    fn txn_finished_by_and_last_op() {
        let s = example1();
        assert_eq!(s.last_op_of(TxnId(2)), Some(OpIndex(2)));
        assert!(s.txn_finished_by(TxnId(2), OpIndex(2)));
        assert!(!s.txn_finished_by(TxnId(1), OpIndex(2)));
        assert!(s.txn_finished_by(TxnId(1), OpIndex(4)));
        assert_eq!(s.last_op_of(TxnId(9)), None);
    }
}
