//! The **online verdict monitor**: incremental schedule indexing and
//! live Lemma 2/6 certification, one operation at a time.
//!
//! PR 2's batch tables ([`ScheduleIndex`]) answer the paper's
//! positional questions from prefix tables built once per schedule; but
//! every quantity they maintain — per-transaction position lists,
//! prefix `RS`/`WS` bitsets, last-write-per-item, reads-from — changes
//! by `O(words)` when one operation is appended. [`OnlineIndex`]
//! exploits that: it owns a *growing* [`Schedule`] and applies exactly
//! the same table update per `push` that the batch path applies per
//! schedule operation (the batch `ScheduleIndex::new` is literally a
//! replay through the shared builder, and [`OnlineIndex::index`]
//! borrows the live tables back into a `ScheduleIndex` without
//! copying).
//!
//! [`OnlineMonitor`] layers the paper's verdicts on top, maintained
//! **incrementally** after every push:
//!
//! * a **reduced conflict graph** per conjunct scope `d_e` plus one
//!   global graph, under Pearce–Kelly incremental topological ordering
//!   ([`IncrementalDag`]) — serializability and PWSR are certified (or
//!   refuted, with the first offending prefix) the moment the closing
//!   conflict edge arrives, classical SGT-style;
//! * the **delayed-read** status (Definition 5): a read records a
//!   pending dirty-read mark on its reads-from writer; the writer's
//!   next operation — the first prefix that is not DR — trips it;
//! * the **Lemma 2/6 inclusion certificates**, via two exact
//!   equivalences (proved below) that make the per-push cost `O(words)`
//!   instead of an `O(n·|τ|)` sweep.
//!
//! ## Why the inclusions can be monitored in O(words)
//!
//! Fix a conjunct scope `d`, the current prefix `S` and the maintained
//! topological order `T_1 ≺ … ≺ T_m` of the reduced conflict graph of
//! `S^d`.
//!
//! **Lemma 2.** Unfolding the view-set recurrence, the inclusion
//! `RS(before(T_i^d, p, S)) ⊆ VS(T_i, p, d, S)` fails for some `p` iff
//! there exist a read `r_i(x)` at position `r` and a write `w_j(x)` at
//! position `w` with `x ∈ d`, `r < w`, and `T_j ≺ T_i` in the order
//! (take `p` between `r` and `w`; conversely any failure yields such a
//! pair). But `r < w` puts the conflict edge `T_i → T_j` in the graph,
//! and the maintained order respects every edge — so the pair cannot
//! exist while the projection is acyclic. Hence *Lemma 2's inclusion
//! holds at every prefix position iff the projection's conflict graph
//! is acyclic*, which the incremental graph already tracks.
//!
//! **Lemma 6.** By the same unfolding, the DR-variant inclusion fails
//! for some `p` iff some read `r_i(x)`, `x ∈ d`, at position `r` has
//! its order-latest predecessor writing `x` still *unfinished* at `r`.
//! While the projection is acyclic, that predecessor is exactly the
//! reads-from writer of the read (writes of `x` are chained by `ww`
//! edges in schedule order, and writes after `r` are forced order-after
//! `T_i` by the `rw` edge) — and "unfinished at `r`" means the writer
//! emits a later operation, i.e. the dirty read *materializes*. Hence
//! *Lemma 6's inclusion holds at every prefix position iff the
//! projection is acyclic and no read of an item in `d` ever read from a
//! transaction that was still running* — the per-scope DR mark the
//! monitor already maintains.
//!
//! Both equivalences are pinned against the batch sweep
//! ([`inclusion_holds_everywhere`]) by [`OnlineMonitor::certify_prefix`]
//! and by the prefix-parity property tests in
//! `tests/monitor_props.rs` — the expensive recomputation is the
//! test oracle, not the runtime path.
//!
//! ## Beyond the single writer
//!
//! Three layers added on top of the per-push core:
//!
//! * an **undo-log** ([`OnlineMonitor::push_logged`] /
//!   [`OnlineMonitor::truncate_to`]): every logged push records the
//!   exact graph-edge and table deltas it applied, so a scheduler
//!   abort that rewrote its trace re-syncs in `O(ops undone)` instead
//!   of an `O(n)` rebuild. The delta records and the LIFO retraction
//!   contract live in the shared [`undo`] layer (see its module docs
//!   for the invariant), which the sharded monitor consumes too;
//!   [`OnlineMonitor::checkpoint`] raises the log's floor once no
//!   live transaction can force a retraction that deep, bounding the
//!   log's memory over a long run;
//! * the **Theorem 1/3 hypotheses live**
//!   ([`OnlineMonitor::guarantees`]): fixed structure is a property of
//!   the *programs* ([`ProgramTraits`], supplied once at
//!   construction), scope disjointness is checked once at
//!   construction, and `DAG(S, IC)` acyclicity rides an incremental
//!   [`OnlineAccessDag`] instead of being
//!   rebuilt from the trace;
//! * a **sharded concurrent monitor** ([`sharded::ShardedMonitor`]):
//!   per-conjunct shards behind their own locks with a ticketed
//!   pipeline, for certification under real OS-thread parallelism.

pub mod journal;
pub mod sharded;
pub mod undo;

use crate::constraint::IntegrityConstraint;
use crate::dag::OnlineAccessDag;
use crate::error::{CoreError, MalformedKind, Result};
use crate::graph::IncrementalDag;
use crate::ids::{ItemId, OpIndex, TxnId};
use crate::index::{PrefixTables, ScheduleIndex};
use crate::op::{Action, Operation};
use crate::schedule::Schedule;
use crate::state::{ItemSet, SetPool};
use crate::theorems::{Guarantee, ProgramTraits};
use crate::viewset::inclusion_holds_everywhere;
use undo::{GlobalDelta, GraphDelta, PushDelta, SeqDelta, Tape, UndoLog};

const ABSENT: u32 = u32::MAX;

/// A growing [`Schedule`] plus the PR-2 positional/prefix tables,
/// maintained in `O(words)` per appended operation.
///
/// `push` enforces the §2.2 per-transaction rules (read/write each item
/// at most once, no read-after-write) from the live prefix bitsets, so
/// the owned schedule is valid at every moment; [`OnlineIndex::index`]
/// exposes the full [`ScheduleIndex`] query surface over the current
/// prefix with zero copying.
#[derive(Clone, Debug, Default)]
pub struct OnlineIndex {
    schedule: Schedule,
    tables: PrefixTables,
}

impl OnlineIndex {
    /// An empty index.
    pub fn new() -> OnlineIndex {
        OnlineIndex::default()
    }

    /// Append one operation, updating every table in `O(words)`.
    ///
    /// Errors (leaving the index untouched) if the operation violates
    /// its transaction's §2.2 well-formedness within the prefix.
    pub fn push(&mut self, op: Operation) -> Result<OpIndex> {
        let p = OpIndex(self.schedule.len());
        let slot = match self.schedule.txn_slot(op.txn) {
            Some(s) => {
                let (rs, ws) = self.tables.totals(s);
                validate_22(rs, ws, &op)?;
                s
            }
            None => self.schedule.txn_ids().len(),
        };
        self.tables.push(slot, &op);
        self.schedule.push_op_unchecked(op);
        Ok(p)
    }

    /// Number of operations pushed so far.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The current prefix as a schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The batch query surface over the live tables — a thin freeze of
    /// the incremental construction, no copying.
    pub fn index(&self) -> ScheduleIndex<'_> {
        ScheduleIndex::borrowed(&self.schedule, &self.tables)
    }

    /// The §3.2 reads-from source of position `p`, `O(1)`. `p` must be
    /// at or above the compaction base; the *result* may fall below it
    /// (a read whose writer was summarized).
    pub fn reads_from(&self, p: OpIndex) -> Option<OpIndex> {
        self.tables.reads_from(p)
    }

    /// Committed-prefix compaction: collapse the permanent prefix below
    /// `frontier` out of the schedule and every per-slot table, and
    /// return the summarized transactions (the callers' slots shift
    /// down by that count). Positions stay absolute; only storage is
    /// reclaimed.
    pub(crate) fn compact(&mut self, frontier: usize) -> Vec<TxnId> {
        let summarized = self.schedule.compact_prefix(frontier);
        self.tables.compact(summarized.len(), frontier);
        summarized
    }

    /// Surrender the accumulated schedule.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// The latest-write position of `item` (`u32::MAX` if none) — the
    /// one table entry a push overwrites destructively, captured by
    /// the undo-log before the push.
    pub(crate) fn last_write_raw(&self, item: ItemId) -> u32 {
        self.tables.last_write_raw(item.index())
    }

    /// Retract the most recent push. The [`SeqDelta`] is the captured
    /// sequence half of that push's undo-log entry.
    pub(crate) fn pop_for_undo(&mut self, seq: &SeqDelta) {
        let p = OpIndex(self.schedule.len() - 1);
        let slot = self.schedule.slot_of_op(p);
        let op = self.schedule.op(p).clone();
        self.tables
            .pop(slot, &op, seq.prev_last_write, seq.new_slot);
        self.schedule
            .pop_op_unchecked(seq.new_slot, seq.prev_slot_last, seq.prev_item_ub);
    }
}

/// Which conjuncts contain each item — the scopes inverted once at
/// construction, so that admitting an operation looks its conjuncts
/// up instead of testing every scope.
#[derive(Clone, Debug, Default)]
pub(crate) struct ScopeIndex {
    /// `conjuncts[starts[i]..starts[i + 1]]` = the conjuncts
    /// containing item `i`, ascending.
    starts: Vec<u32>,
    conjuncts: Vec<u32>,
}

impl ScopeIndex {
    pub(crate) fn new(scopes: &[ItemSet]) -> ScopeIndex {
        let item_ub = scopes
            .iter()
            .filter_map(|s| s.iter().last())
            .map(|i| i.index() + 1)
            .max()
            .unwrap_or(0);
        let mut starts = vec![0u32; item_ub + 1];
        for item in scopes.iter().flat_map(ItemSet::iter) {
            starts[item.index() + 1] += 1;
        }
        for i in 0..item_ub {
            starts[i + 1] += starts[i];
        }
        let mut conjuncts = vec![0u32; starts[item_ub] as usize];
        let mut fill = starts.clone();
        for (k, scope) in scopes.iter().enumerate() {
            for item in scope.iter() {
                conjuncts[fill[item.index()] as usize] = k as u32;
                fill[item.index()] += 1;
            }
        }
        ScopeIndex { starts, conjuncts }
    }

    /// The conjuncts containing `item`, ascending (none for an item no
    /// scope mentions).
    pub(crate) fn of(&self, item: ItemId) -> &[u32] {
        match self.starts.get(item.index()..item.index() + 2) {
            Some(&[lo, hi]) => &self.conjuncts[lo as usize..hi as usize],
            _ => &[],
        }
    }

    fn resident_bytes(&self) -> usize {
        (self.starts.len() + self.conjuncts.len()) * std::mem::size_of::<u32>()
    }
}

/// Which transactions were declared finished
/// ([`OnlineMonitor::finish_txn`]) and are not yet summarized: one
/// flag per slot, so the frontier scan and the declaration itself
/// neither hash nor allocate. A declaration outlives a retraction of
/// the transaction's operations — the optimistic executors re-push
/// committed survivors when another transaction aborts — so a finished
/// transaction that loses its slot is parked by id until a push gives
/// it a slot again.
#[derive(Clone, Debug, Default)]
pub(crate) struct FinishedFlags {
    by_slot: Vec<bool>,
    /// Finished transactions that currently have no slot (normally
    /// empty: only a retraction reaching a finished transaction's
    /// first operation puts one here).
    detached: Vec<TxnId>,
}

impl FinishedFlags {
    /// `txn` was just given the next slot.
    pub(crate) fn slot_created(&mut self, txn: TxnId) {
        let parked = self.detached.iter().position(|&t| t == txn);
        if let Some(at) = parked {
            self.detached.swap_remove(at);
        }
        self.by_slot.push(parked.is_some());
    }

    /// The last slot, which belonged to `txn`, was retracted.
    pub(crate) fn slot_popped(&mut self, txn: TxnId) {
        if self.by_slot.pop() == Some(true) {
            self.detached.push(txn);
        }
    }

    pub(crate) fn mark(&mut self, slot: usize) {
        self.by_slot[slot] = true;
    }

    pub(crate) fn is_finished(&self, slot: usize) -> bool {
        self.by_slot[slot]
    }

    /// The first `s_cut` slots were summarized.
    pub(crate) fn compact(&mut self, s_cut: usize) {
        self.by_slot.drain(..s_cut);
    }

    fn resident_bytes(&self) -> usize {
        self.by_slot.len() + self.detached.len() * std::mem::size_of::<TxnId>()
    }
}

/// The two per-node tables a compaction sweep works in — which nodes
/// must survive, and the old→new numbering — for one or several
/// graphs laid out one after another. The monitor keeps them between
/// sweeps, so a sweep allocates nothing however many graphs it
/// condenses.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeMaps {
    kept: Vec<bool>,
    map: Vec<u32>,
    /// `starts[g]..starts[g + 1]` = graph `g`'s region.
    starts: Vec<usize>,
}

impl NodeMaps {
    /// One region per graph size given, every node unmarked.
    pub(crate) fn layout(&mut self, sizes: impl Iterator<Item = usize>) {
        self.starts.clear();
        self.starts.push(0);
        let mut end = 0;
        for n in sizes {
            end += n;
            self.starts.push(end);
        }
        self.kept.clear();
        self.kept.resize(end, false);
        self.map.clear();
        self.map.resize(end, ABSENT);
    }

    pub(crate) fn kept(&mut self, g: usize) -> &mut [bool] {
        &mut self.kept[self.starts[g]..self.starts[g + 1]]
    }

    pub(crate) fn map(&self, g: usize) -> &[u32] {
        &self.map[self.starts[g]..self.starts[g + 1]]
    }

    fn both(&mut self, g: usize) -> (&mut [bool], &mut [u32]) {
        let range = self.starts[g]..self.starts[g + 1];
        (&mut self.kept[range.clone()], &mut self.map[range])
    }
}

/// One projection's reduced conflict graph, maintained incrementally.
///
/// Mirrors the batch reduced construction (each operation conflicts
/// with the latest writer of its item and, for writes, the readers
/// since that write — same transitive closure as the full graph) on
/// top of [`IncrementalDag`]. Once a cycle appears the graph freezes:
/// conflict edges are only ever added, so the projection stays
/// non-serializable for every longer prefix.
#[derive(Clone, Debug, Default)]
struct ProjGraph {
    dag: IncrementalDag,
    /// Schedule transaction slot → projection node.
    node_of_slot: Vec<u32>,
    /// Projection node → schedule transaction slot.
    slot_of_node: Vec<u32>,
    /// Per item: the node of its latest writer.
    last_writer: Vec<u32>,
    /// Per item: reader nodes since the latest write. A write empties
    /// the list in place (journaling its members first when logging),
    /// so each item's buffer is allocated once and reused.
    readers: Vec<Vec<u32>>,
    /// First prefix position whose projection is non-serializable.
    cyclic_at: Option<OpIndex>,
}

impl ProjGraph {
    fn grow(&mut self, slot: usize, item: usize) {
        if self.node_of_slot.len() <= slot {
            self.node_of_slot.resize(slot + 1, ABSENT);
        }
        if self.last_writer.len() <= item {
            self.last_writer.resize(item + 1, ABSENT);
            self.readers.resize_with(item + 1, Vec::new);
        }
    }

    fn node(&mut self, slot: usize) -> u32 {
        if self.node_of_slot[slot] == ABSENT {
            let n = self.dag.add_node();
            self.node_of_slot[slot] = n;
            self.slot_of_node.push(slot as u32);
        }
        self.node_of_slot[slot]
    }

    /// Would this access keep the projection acyclic? Read-only. The
    /// conflict edges it would add all end at the accessing
    /// transaction's node and start at the item's last writer and, for
    /// a write, at the readers since.
    fn admits(&self, slot: Option<usize>, item: usize, is_write: bool) -> bool {
        if self.cyclic_at.is_some() {
            return false;
        }
        let node = match slot.map(|s| self.node_of_slot.get(s).copied().unwrap_or(ABSENT)) {
            // A fresh node only *receives* edges: no cycle possible.
            None | Some(ABSENT) => return true,
            Some(n) => n,
        };
        let writer = self.last_writer.get(item).copied().filter(|&w| w != ABSENT);
        let readers = match self.readers.get(item) {
            Some(readers) if is_write => readers.as_slice(),
            _ => &[],
        };
        let sources = writer
            .into_iter()
            .chain(readers.iter().copied())
            .filter(|&s| s != node);
        self.dag.admits_edges_from(sources, node)
    }

    /// Record one access, adding its reduced conflict edges. With a
    /// `tape`, exactly what was applied is journaled as one graph
    /// frame (see [`undo`]) for LIFO retraction by [`ProjGraph::undo`].
    fn apply(
        &mut self,
        slot: usize,
        item: usize,
        is_write: bool,
        p: OpIndex,
        mut tape: Option<&mut Tape>,
    ) {
        let mut delta = GraphDelta::NONE;
        if self.cyclic_at.is_none() {
            // (A frozen graph applies nothing: non-serializability is
            // monotone.)
            self.grow(slot, item);
            if self.node_of_slot[slot] == ABSENT {
                delta.flags |= GraphDelta::ADDED_NODE;
            }
            let t = self.node(slot);
            // Insert one conflict edge into `t`, journaling it if fresh;
            // returns whether it would have closed a cycle.
            let mut link = |dag: &mut IncrementalDag, from: u32| match dag.insert_edge(from, t) {
                Ok(fresh) => {
                    if let (true, Some(tape)) = (fresh, tape.as_deref_mut()) {
                        tape.push(from);
                        tape.push(t);
                        delta.n_edges += 1;
                    }
                    false
                }
                Err(_) => true,
            };
            let w = self.last_writer[item];
            let mut closed = false;
            if w != ABSENT && w != t {
                closed |= link(&mut self.dag, w);
            }
            if is_write {
                for &r in &self.readers[item] {
                    if r != t {
                        closed |= link(&mut self.dag, r);
                    }
                }
                // The drained reader list and the displaced writer are
                // exactly what retraction must put back.
                if let Some(tape) = tape.as_deref_mut() {
                    for &r in self.readers[item].iter().rev() {
                        tape.push(r);
                    }
                    delta.n_readers = self.readers[item].len() as u32;
                }
                delta.prev_writer = w;
                delta.flags |= GraphDelta::WROTE;
                self.readers[item].clear();
                self.last_writer[item] = t;
            } else {
                self.readers[item].push(t);
                delta.flags |= GraphDelta::READ_PUSHED;
            }
            if closed {
                self.cyclic_at = Some(p);
                delta.flags |= GraphDelta::FROZE;
            }
        }
        if let Some(tape) = tape {
            delta.seal(tape);
        }
    }

    /// Retract one logged access by consuming its frame from the end
    /// of `tape`. Sound only in LIFO (journal) order: the maintained
    /// Pearce–Kelly order then satisfies a superset of the surviving
    /// constraints, so no reordering is needed.
    fn undo(&mut self, slot: usize, item: usize, tape: &mut Tape) {
        let delta = GraphDelta::open(tape);
        if delta.has(GraphDelta::FROZE) {
            self.cyclic_at = None;
        }
        if delta.has(GraphDelta::WROTE) {
            self.last_writer[item] = delta.prev_writer;
            debug_assert!(self.readers[item].is_empty());
            for _ in 0..delta.n_readers {
                let r = tape.pop();
                self.readers[item].push(r);
            }
        } else if delta.has(GraphDelta::READ_PUSHED) {
            let popped = self.readers[item].pop();
            debug_assert_eq!(popped, Some(self.node_of_slot[slot]));
        }
        for _ in 0..delta.n_edges {
            let v = tape.pop();
            let u = tape.pop();
            self.dag.remove_edge(u, v);
        }
        if delta.has(GraphDelta::ADDED_NODE) {
            self.dag.remove_last_node();
            self.slot_of_node.pop();
            self.node_of_slot[slot] = ABSENT;
        }
    }

    /// Committed-prefix compaction of one projection, in its own
    /// storage. The `s_cut` summarized transaction slots occupy the
    /// node-id prefix (node ids follow first-access order, and every
    /// summarized access precedes every survivor access in the
    /// schedule); their nodes are dropped except the **boundary
    /// facts** — each item's last writer and readers-since-last-write
    /// — plus any node a retained undo entry references (the caller
    /// has marked those in `kept`), with reachability among all kept
    /// nodes condensed exactly
    /// ([`IncrementalDag::retain_condensed`]). Kept summarized nodes
    /// lose their slot (they are pure summary — `ABSENT` in
    /// `slot_of_node`, skipped by [`ProjGraph::order`]); survivor slots
    /// shift down by `s_cut`. Fills `map` with the old→new node
    /// numbering (`ABSENT` = dropped) so undo entries can be renamed.
    ///
    /// Verdict parity: `admits`/`apply` consult only `last_writer`,
    /// `readers` and reachability between their nodes — all preserved
    /// exactly — and `cyclic_at` is an absolute position, so every
    /// future verdict equals the uncompacted twin's.
    fn compact(&mut self, s_cut: usize, kept: &mut [bool], map: &mut [u32]) {
        debug_assert_eq!(kept.len(), self.dag.len());
        // The to-be-summarized prefix: slot-less summary nodes from
        // earlier compactions (kept back then only for boundary facts
        // or undo references — re-evaluated below, so stale ones are
        // finally dropped) plus the nodes of slots `0..s_cut`.
        let b = self
            .slot_of_node
            .iter()
            .take_while(|&&s| s == ABSENT || (s as usize) < s_cut)
            .count();
        debug_assert!(self.slot_of_node[b..]
            .iter()
            .all(|&s| s != ABSENT && (s as usize) >= s_cut));
        for k in kept.iter_mut().skip(b) {
            *k = true; // survivors always stay
        }
        for &w in &self.last_writer {
            if w != ABSENT {
                kept[w as usize] = true;
            }
        }
        for rs in &self.readers {
            for &r in rs {
                kept[r as usize] = true;
            }
        }
        self.dag.retain_condensed_into(kept, map);
        // `map` is monotone, so a kept node's new row never lies
        // beyond its old one: the table can be rewritten front to back.
        for (old, &new) in map.iter().enumerate() {
            if new != ABSENT {
                let slot = self.slot_of_node[old];
                self.slot_of_node[new as usize] = if slot != ABSENT && slot as usize >= s_cut {
                    slot - s_cut as u32
                } else {
                    ABSENT
                };
            }
        }
        self.slot_of_node.truncate(self.dag.len());
        let gone = s_cut.min(self.node_of_slot.len());
        self.node_of_slot.drain(..gone);
        let renumber = |n: &mut u32| {
            if *n != ABSENT {
                *n = map[*n as usize];
            }
        };
        self.node_of_slot.iter_mut().for_each(renumber);
        self.last_writer.iter_mut().for_each(renumber);
        self.readers.iter_mut().flatten().for_each(renumber);
    }

    /// Bytes of the graph, the slot↔node tables and the per-item
    /// boundary facts.
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dag.resident_bytes()
            + (self.node_of_slot.len() + self.slot_of_node.len() + self.last_writer.len())
                * size_of::<u32>()
            + self
                .readers
                .iter()
                .map(|r| size_of::<Vec<u32>>() + r.len() * size_of::<u32>())
                .sum::<usize>()
    }

    fn serializable(&self) -> bool {
        self.cyclic_at.is_none()
    }

    /// The maintained serialization order, `None` once cyclic.
    /// Summarized (slot-less) summary nodes are skipped: the order is
    /// over the *surviving* transactions.
    fn order(&self, txns: &[TxnId]) -> Option<Vec<TxnId>> {
        self.serializable().then(|| {
            self.dag
                .order()
                .iter()
                .filter(|&&n| self.slot_of_node[n as usize] != ABSENT)
                .map(|&n| txns[self.slot_of_node[n as usize] as usize])
                .collect()
        })
    }
}

/// The verdict ladder after a push, strongest guarantee first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictLevel {
    /// The global conflict graph is acyclic: conflict-serializable.
    Serializable,
    /// Not serializable, but PWSR **and** delayed-read — Theorem 2
    /// certifies strong correctness live.
    DrPreserving,
    /// PWSR only: every conjunct projection serializable, but no
    /// theorem hypothesis holds — anomalies are possible (Example 2).
    Pwsr,
    /// Some conjunct projection is non-serializable: not PWSR.
    Violation,
}

impl VerdictLevel {
    /// Compose the ladder from its three (monotonically worsening)
    /// components. This is the **only** composition point — shared by
    /// the single-writer verdict, the sharded verdict and the sharded
    /// lock-free floor — so the byte-parity contract between the two
    /// monitors cannot drift through a divergent re-implementation.
    pub(crate) fn compose(serializable: bool, dr: bool, pwsr: bool) -> VerdictLevel {
        if !pwsr {
            VerdictLevel::Violation
        } else if serializable {
            VerdictLevel::Serializable
        } else if dr {
            VerdictLevel::DrPreserving
        } else {
            VerdictLevel::Pwsr
        }
    }
}

/// The §2.2 admissibility of `op` against its transaction's current
/// read/write totals — the one validation both the single-writer
/// index and the sharded monitor's sequence stage apply (shared so
/// the error precedence cannot diverge between the two paths).
fn validate_22(rs: &ItemSet, ws: &ItemSet, op: &Operation) -> Result<()> {
    let reason = match op.action {
        Action::Read if rs.contains(op.item) => Some(MalformedKind::DuplicateRead),
        Action::Read if ws.contains(op.item) => Some(MalformedKind::ReadAfterWrite),
        Action::Write if ws.contains(op.item) => Some(MalformedKind::DuplicateWrite),
        _ => None,
    };
    match reason {
        Some(reason) => Err(CoreError::MalformedTransaction {
            txn: op.txn,
            reason,
            item: op.item,
        }),
        None => Ok(()),
    }
}

/// The monitor's state after a push — cheap to copy, produced by every
/// [`OnlineMonitor::push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Prefix length this verdict describes.
    pub len: usize,
    /// The strongest rung of the ladder that still holds.
    pub level: VerdictLevel,
    /// Is the prefix conflict-serializable?
    pub serializable: bool,
    /// Is the prefix delayed-read (Definition 5)?
    pub dr: bool,
    /// First prefix with a non-serializable conjunct projection.
    pub first_violation: Option<OpIndex>,
    /// First prefix that is not globally serializable.
    pub first_non_serializable: Option<OpIndex>,
    /// First prefix that is not delayed-read.
    pub first_non_dr: Option<OpIndex>,
    /// Lemma 2's inclusion holds at every position, for every conjunct
    /// whose projection is serializable (see the module equivalence).
    pub lemma2_certified: bool,
    /// Lemma 6's inclusion holds at every position, for every
    /// serializable conjunct projection.
    pub lemma6_certified: bool,
}

impl Verdict {
    /// Is the prefix PWSR (Definition 2)?
    pub fn pwsr(&self) -> bool {
        self.first_violation.is_none()
    }
}

/// The transactions collapsed into the permanent prefix by
/// committed-prefix compaction, as a sorted set of disjoint id ranges
/// (`O(compactions)` resident, not `O(transactions)`).
///
/// Membership — not a watermark — decides rejection: transaction ids
/// need not arrive in order (an OCC retry can carry an id smaller than
/// an already-summarized one), so "id below the highest summarized id"
/// must not be conflated with "summarized".
#[derive(Clone, Debug, Default)]
struct SummarizedSet {
    /// Sorted, disjoint, non-adjacent inclusive ranges.
    ranges: Vec<(u32, u32)>,
}

impl SummarizedSet {
    fn contains(&self, t: TxnId) -> bool {
        let i = self.ranges.partition_point(|&(_, hi)| hi < t.0);
        self.ranges.get(i).is_some_and(|&(lo, _)| lo <= t.0)
    }

    fn insert(&mut self, t: TxnId) {
        let x = t.0;
        let i = self
            .ranges
            .partition_point(|&(_, hi)| hi < x.saturating_sub(1));
        // `i` is the first range that could absorb or follow x.
        match self.ranges.get_mut(i) {
            Some(r) if r.0 <= x && x <= r.1 => {}
            Some(r) if x > r.1 && x - r.1 == 1 => {
                r.1 = x;
                // Merge with the successor if now adjacent.
                if self
                    .ranges
                    .get(i + 1)
                    .is_some_and(|&(lo, _)| lo > x && lo - x == 1)
                {
                    self.ranges[i].1 = self.ranges[i + 1].1;
                    self.ranges.remove(i + 1);
                }
            }
            Some(r) if r.0 > x && r.0 - x == 1 => r.0 = x,
            _ => self.ranges.insert(i, (x, x)),
        }
    }

    fn resident_bytes(&self) -> usize {
        self.ranges.len() * std::mem::size_of::<(u32, u32)>()
    }
}

/// What one [`OnlineMonitor::compact`] /
/// [`sharded::ShardedMonitor::compact`] call reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// The compaction frontier after the call: every position below it
    /// is summarized (equals [`Schedule::base`] afterwards).
    pub frontier: usize,
    /// Operations collapsed out of live storage by this call.
    pub ops_reclaimed: usize,
    /// Transactions summarized by this call.
    pub txns_summarized: usize,
}

/// The compaction frontier both monitors compute: the longest prefix
/// of `schedule` below `limit` (the prefix that is already permanent)
/// in which every operation belongs to a finished transaction whose
/// *last* operation also lies in that prefix.
fn compaction_frontier(schedule: &Schedule, finished: &FinishedFlags, limit: usize) -> usize {
    let mut hi = schedule.base();
    let mut frontier = schedule.base();
    for p in schedule.base()..limit {
        let slot = schedule.slot_of_op(OpIndex(p));
        if !finished.is_finished(slot) {
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

/// Live verdicts over a growing schedule: per-conjunct and global
/// conflict graphs under incremental cycle detection, delayed-read
/// tracking, and the Lemma 2/6 inclusion certificates — all updated in
/// `O(words)` amortized per [`OnlineMonitor::push`].
#[derive(Clone, Debug)]
pub struct OnlineMonitor {
    index: OnlineIndex,
    /// The conjunct data sets `d_e` (projection scopes).
    scopes: Vec<ItemSet>,
    /// The scopes inverted: which conjuncts contain an item.
    scope_index: ScopeIndex,
    global: ProjGraph,
    conjuncts: Vec<ProjGraph>,
    /// Per slot: items this transaction wrote that another transaction
    /// has read — its *next* operation materializes a dirty read.
    dirty_reads: Vec<ItemSet>,
    /// Rows `dirty_reads` gave up (retraction, compaction), reused by
    /// the slots created next.
    spare_sets: SetPool,
    first_non_dr: Option<OpIndex>,
    /// Per conjunct: first position where an in-scope dirty read
    /// materialized (kills the Lemma 6 certificate for that scope).
    conjunct_non_dr: Vec<Option<OpIndex>>,
    first_violation: Option<OpIndex>,
    /// What is known about the generating programs (Theorem 1 input;
    /// static, supplied at construction).
    traits: ProgramTraits,
    /// Are the scopes pairwise disjoint? Every theorem requires it;
    /// checked once at construction — it never changes.
    scopes_disjoint: bool,
    /// `DAG(S, IC)` maintained live (Theorem 3's hypothesis).
    access_dag: OnlineAccessDag,
    /// Per-push retraction records above the log's floor, when logging
    /// (the shared [`undo`] layer; unlogged pushes raise the floor).
    log: Option<UndoLog<PushDelta>>,
    /// Transactions declared finished ([`OnlineMonitor::finish_txn`])
    /// but not yet summarized — the compaction frontier advances only
    /// over finished transactions.
    finished: FinishedFlags,
    /// Transactions collapsed into the permanent prefix: pushes for
    /// them are rejected with [`CoreError::SummarizedTransaction`].
    summarized: SummarizedSet,
    /// Compaction calls that actually advanced the frontier.
    compactions: u64,
    /// Total operations reclaimed across all compactions.
    ops_reclaimed: u64,
    /// The node tables compaction works in: region 0 is the global
    /// graph's, region `k + 1` conjunct `k`'s.
    maps: NodeMaps,
    /// The running read/write sets a batch is validated against.
    batch_sets: (ItemSet, ItemSet),
}

impl OnlineMonitor {
    /// A monitor over explicit projection scopes, with nothing assumed
    /// about the generating programs.
    pub fn new(scopes: Vec<ItemSet>) -> OnlineMonitor {
        OnlineMonitor::with_traits(scopes, ProgramTraits::unknown())
    }

    /// A monitor over explicit projection scopes, given what is known
    /// about the generating programs (Theorem 1's hypothesis is a
    /// property of programs, not schedules — it is prechecked here,
    /// once, rather than per push). Scope disjointness — required by
    /// every theorem — is also decided here: both inputs are static.
    pub fn with_traits(scopes: Vec<ItemSet>, traits: ProgramTraits) -> OnlineMonitor {
        let n = scopes.len();
        let scopes_disjoint = scopes
            .iter()
            .enumerate()
            .all(|(i, a)| scopes[i + 1..].iter().all(|b| a.is_disjoint(b)));
        OnlineMonitor {
            index: OnlineIndex::new(),
            scope_index: ScopeIndex::new(&scopes),
            scopes,
            global: ProjGraph::default(),
            conjuncts: vec![ProjGraph::default(); n],
            dirty_reads: Vec::new(),
            spare_sets: SetPool::default(),
            first_non_dr: None,
            conjunct_non_dr: vec![None; n],
            first_violation: None,
            traits,
            scopes_disjoint,
            access_dag: OnlineAccessDag::new(n),
            log: None,
            finished: FinishedFlags::default(),
            summarized: SummarizedSet::default(),
            compactions: 0,
            ops_reclaimed: 0,
            maps: NodeMaps::default(),
            batch_sets: (ItemSet::new(), ItemSet::new()),
        }
    }

    /// A monitor over the conjunct scopes of an integrity constraint —
    /// one projection per `d_e`, exactly Definition 2's decomposition.
    pub fn for_constraint(ic: &IntegrityConstraint) -> OnlineMonitor {
        OnlineMonitor::new(ic.conjuncts().iter().map(|c| c.items().clone()).collect())
    }

    /// Append one operation and return the updated verdict.
    ///
    /// Cost: the `O(words)` index update and the touched graphs' edge
    /// insertions (amortized near-constant under Pearce–Kelly) — no
    /// table rebuild, no schedule rescan, no scan over the scopes.
    ///
    /// An unlogged push is permanent: it raises the floor below which
    /// [`OnlineMonitor::truncate_to`] can retract.
    pub fn push(&mut self, op: Operation) -> Result<Verdict> {
        let v = self.push_inner(op, false)?;
        if let Some(log) = &mut self.log {
            log.reset(self.index.len());
        }
        Ok(v)
    }

    /// [`OnlineMonitor::push`] recording an undo-log entry, so the
    /// push can later be retracted by [`OnlineMonitor::truncate_to`].
    pub fn push_logged(&mut self, op: Operation) -> Result<Verdict> {
        if self.log.is_none() {
            self.log = Some(UndoLog::new(self.index.len()));
        }
        self.push_inner(op, true)
    }

    fn push_inner(&mut self, op: Operation, logged: bool) -> Result<Verdict> {
        if self.summarized.contains(op.txn) {
            return Err(CoreError::SummarizedTransaction { txn: op.txn });
        }
        let (txn, item, is_read) = (op.txn, op.item, op.is_read());
        let existing_slot = self.index.schedule().txn_slot(txn);
        let seq = SeqDelta {
            new_slot: existing_slot.is_none(),
            prev_item_ub: self.index.schedule().item_ub(),
            prev_last_write: self.index.last_write_raw(item),
            prev_slot_last: existing_slot.map_or(0, |s| self.index.schedule().slot_last_raw(s)),
        };
        let mut global = GlobalDelta::default();
        let p = self.index.push(op)?;
        let slot = self.index.schedule().slot_of_op(p);
        if seq.new_slot {
            self.finished.slot_created(txn);
            self.dirty_reads.push(self.spare_sets.take());
        }
        // The push's frames go on the log's tape as they are applied.
        let mut tape = match &mut self.log {
            Some(log) if logged => Some(log.tape()),
            _ => None,
        };
        // 1. This operation proves its transaction was still running:
        //    any earlier read *from* it is now a DR violation.
        if !self.dirty_reads[slot].is_empty() {
            if self.first_non_dr.is_none() {
                self.first_non_dr = Some(p);
                global.set_first_non_dr = true;
            }
            for (k, scope) in self.scopes.iter().enumerate() {
                if self.conjunct_non_dr[k].is_none() && !scope.is_disjoint(&self.dirty_reads[slot])
                {
                    self.conjunct_non_dr[k] = Some(p);
                    if let Some(tape) = tape.as_deref_mut() {
                        tape.push(k as u32);
                        global.n_kills += 1;
                    }
                }
            }
        }
        // 2. A read leaves a pending mark on its reads-from writer; the
        //    writer's next operation (step 1, later push) trips it. A
        //    writer below the compaction base is summarized, hence
        //    finished: its mark could never trip, so skipping it keeps
        //    verdict parity with the uncompacted twin.
        if is_read {
            if let Some(w) = self.index.reads_from(p) {
                if w.0 >= self.index.schedule().base() {
                    let w_slot = self.index.schedule().slot_of_op(w);
                    if w_slot != slot && self.dirty_reads[w_slot].insert(item) {
                        global.dr_mark = w_slot as u32;
                    }
                }
            }
        }
        // 3. Conflict graphs: global plus every scope containing the
        //    item (this is where serializability / PWSR flip), and the
        //    live data access graph (Theorem 3's hypothesis).
        self.global
            .apply(slot, item.index(), !is_read, p, tape.as_deref_mut());
        let mut set_first_violation = false;
        for &k in self.scope_index.of(item) {
            let graph = &mut self.conjuncts[k as usize];
            graph.apply(slot, item.index(), !is_read, p, tape.as_deref_mut());
            match tape.as_deref_mut() {
                Some(tape) => self.access_dag.record_logged(slot, k, !is_read, p, tape),
                None => {
                    self.access_dag.record(slot, k, !is_read, p);
                }
            }
            if self.first_violation.is_none() && graph.cyclic_at == Some(p) {
                self.first_violation = Some(p);
                set_first_violation = true;
            }
        }
        if logged {
            self.log.as_mut().expect("log enabled").record(PushDelta {
                seq,
                global,
                set_first_violation,
            });
        }
        Ok(self.verdict())
    }

    /// **Batch admission**: append one transaction's program-ordered
    /// run of operations and return the verdict after each — the
    /// single-writer twin of [`sharded::ShardedMonitor::push_batch`],
    /// with the
    /// same contract: the slice must be nonempty operations of a
    /// single transaction in program order (panics otherwise), and
    /// admission is **atomic** — the whole run is §2.2-validated
    /// up front against a copy of the transaction's live read/write
    /// sets, so a malformed operation anywhere in the run rejects
    /// the batch with the monitor untouched (no partial prefix is
    /// admitted). Verdicts, certificates and undo behaviour are
    /// byte-identical to pushing the operations one at a time; the
    /// batch boundary only matters to journaling callers (the
    /// scheduler's admission layer frames the run as one WAL record).
    /// An empty slice returns an empty vector.
    pub fn push_batch(&mut self, ops: &[Operation]) -> Result<Vec<Verdict>> {
        let verdicts = self.batch_inner(ops, false)?;
        if let Some(log) = &mut self.log {
            log.reset(self.index.len());
        }
        Ok(verdicts)
    }

    /// [`OnlineMonitor::push_batch`] recording one undo-log entry per
    /// operation, so batch-admitted operations retract individually
    /// through [`OnlineMonitor::truncate_to`] exactly like singleton
    /// [`OnlineMonitor::push_logged`] calls.
    pub fn push_batch_logged(&mut self, ops: &[Operation]) -> Result<Vec<Verdict>> {
        if self.log.is_none() {
            self.log = Some(UndoLog::new(self.index.len()));
        }
        self.batch_inner(ops, true)
    }

    fn batch_inner(&mut self, ops: &[Operation], logged: bool) -> Result<Vec<Verdict>> {
        let Some(first) = ops.first() else {
            return Ok(Vec::new());
        };
        let txn = first.txn;
        assert!(
            ops.iter().all(|o| o.txn == txn),
            "push_batch requires a single-transaction batch (the program-order unit)"
        );
        if self.summarized.contains(txn) {
            return Err(CoreError::SummarizedTransaction { txn });
        }
        // Pre-validate the whole run on simulated bitsets so the
        // per-op loop below cannot fail midway.
        let (rs, ws) = &mut self.batch_sets;
        match self.index.schedule().txn_slot(txn) {
            Some(s) => {
                let (live_rs, live_ws) = self.index.tables.totals(s);
                rs.clone_from(live_rs);
                ws.clone_from(live_ws);
            }
            None => {
                rs.clear();
                ws.clear();
            }
        }
        for op in ops {
            validate_22(rs, ws, op)?;
            if op.is_write() {
                ws.insert(op.item);
            } else {
                rs.insert(op.item);
            }
        }
        let mut verdicts = Vec::with_capacity(ops.len());
        for op in ops {
            verdicts.push(
                self.push_inner(op.clone(), logged)
                    .expect("batch pre-validated"),
            );
        }
        Ok(verdicts)
    }

    /// Retract logged pushes until the prefix is `n` operations long,
    /// in `O(ops undone)` — the undo-log alternative to rebuilding
    /// after a scheduler abort rewrote the trace. Returns the number
    /// of operations undone.
    ///
    /// Panics if `n` exceeds the current length or undercuts the
    /// logged floor (unlogged pushes are permanent).
    pub fn truncate_to(&mut self, n: usize) -> usize {
        assert!(
            n <= self.index.len(),
            "truncate_to({n}) beyond length {}",
            self.index.len()
        );
        assert!(
            n >= self.log_floor(),
            "truncate_to({n}) undercuts the undo-log floor {}",
            self.log_floor()
        );
        let undone = self.index.len() - n;
        for _ in 0..undone {
            let log = self
                .log
                .as_mut()
                .expect("logged pushes exist above the floor");
            let delta = log.pop().expect("one log entry per logged push");
            let tape = log.tape();
            let p = OpIndex(self.index.len() - 1);
            let slot = self.index.schedule().slot_of_op(p);
            let op = self.index.schedule().op(p);
            let (txn, item, is_write) = (op.txn, op.item, op.is_write());
            // Reverse application order: graphs first, then tables.
            for &k in self.scope_index.of(item).iter().rev() {
                self.access_dag.undo(slot, k, is_write, tape);
                self.conjuncts[k as usize].undo(slot, item.index(), tape);
            }
            self.global.undo(slot, item.index(), tape);
            if delta.set_first_violation {
                self.first_violation = None;
            }
            for _ in 0..delta.global.n_kills {
                self.conjunct_non_dr[tape.pop() as usize] = None;
            }
            if delta.global.set_first_non_dr {
                self.first_non_dr = None;
            }
            if delta.global.dr_mark != ABSENT {
                self.dirty_reads[delta.global.dr_mark as usize].remove(item);
            }
            self.index.pop_for_undo(&delta.seq);
            if delta.seq.new_slot {
                self.finished.slot_popped(txn);
                let row = self.dirty_reads.pop().expect("one row per slot");
                self.spare_sets.give(row);
            }
        }
        undone
    }

    /// Operations retractable by [`OnlineMonitor::truncate_to`]
    /// (equivalently, undo-log entries held: `len() - log_floor()`).
    pub fn logged_len(&self) -> usize {
        self.log.as_ref().map_or(0, UndoLog::len)
    }

    /// The undo-log floor: the prefix length below which pushes are
    /// permanent (equals [`OnlineMonitor::len`] when nothing is
    /// logged).
    pub fn log_floor(&self) -> usize {
        self.log.as_ref().map_or(self.index.len(), UndoLog::base)
    }

    /// Raise the undo-log floor to `floor` (clamped to the currently
    /// logged range), making the pushes below it permanent and
    /// reclaiming their delta memory — the long-run memory bound for
    /// admission logs: once every transaction that started before
    /// `floor` has settled, nothing can force a retraction below it.
    /// Returns the new floor.
    pub fn checkpoint(&mut self, floor: usize) -> usize {
        match &mut self.log {
            Some(log) => log.checkpoint(floor),
            None => self.index.len(),
        }
    }

    /// Declare `txn` finished: it will issue no further operations.
    /// Committed-prefix compaction ([`OnlineMonitor::compact`]) only
    /// advances over finished transactions. Advisory until the
    /// transaction is summarized — a later push for it is still
    /// accepted and simply holds the frontier back.
    pub fn finish_txn(&mut self, txn: TxnId) {
        if let Some(slot) = self.index.schedule().txn_slot(txn) {
            self.finished.mark(slot);
        }
    }

    /// The **compaction frontier**: the longest prefix in which every
    /// operation belongs to a finished transaction whose *last*
    /// operation also lies in that prefix, clamped to the undo-log
    /// floor (a compacted push must already be permanent — this is the
    /// frontier-safety condition shared with checkpointing and WAL
    /// truncation).
    pub fn compaction_frontier(&self) -> usize {
        compaction_frontier(self.index.schedule(), &self.finished, self.log_floor())
    }

    /// **Committed-prefix compaction**: collapse the prefix below
    /// [`OnlineMonitor::compaction_frontier`] into a summary —
    /// per-item last-writer/last-reader boundary facts plus the
    /// condensed reachability of each conflict graph — reclaiming
    /// schedule segments, prefix-table rows, graph nodes, Pearce–Kelly
    /// order slots and delayed-read rows. Every structure is cut down
    /// in its own storage, and the tables the sweep works in are the
    /// monitor's own: its allocations do not grow with the prefix or
    /// with the number of conjuncts.
    ///
    /// Every verdict, certificate and admission decision after the
    /// call is byte-identical to an uncompacted twin's (pinned by the
    /// twin harness in `crates/core/tests/monitor_props.rs`); pushes
    /// for summarized transactions are rejected with
    /// [`CoreError::SummarizedTransaction`], and
    /// [`OnlineMonitor::truncate_to`] below the frontier keeps
    /// panicking — the frontier never exceeds the undo-log floor.
    pub fn compact(&mut self) -> CompactStats {
        let frontier = self.compaction_frontier();
        let base = self.index.schedule().base();
        if frontier <= base {
            return CompactStats {
                frontier: base,
                ops_reclaimed: 0,
                txns_summarized: 0,
            };
        }
        // Nodes a retained undo entry references must survive the
        // condensation: the entry has to stay replayable in LIFO order.
        let sizes = std::iter::once(&self.global).chain(&self.conjuncts);
        self.maps.layout(sizes.map(|g| g.dag.len()));
        let maps = &mut self.maps;
        Self::walk_log_nodes(
            self.log.as_mut(),
            self.index.schedule(),
            &self.scope_index,
            |graph, node| maps.kept(graph)[*node as usize] = true,
        );
        let summarized = self.index.compact(frontier);
        let s_cut = summarized.len();
        for (g, graph) in std::iter::once(&mut self.global)
            .chain(&mut self.conjuncts)
            .enumerate()
        {
            let (kept, map) = self.maps.both(g);
            graph.compact(s_cut, kept, map);
        }
        // Rename the node ids retained undo entries reference.
        let maps = &self.maps;
        Self::walk_log_nodes(
            self.log.as_mut(),
            self.index.schedule(),
            &self.scope_index,
            |graph, node| *node = maps.map(graph)[*node as usize],
        );
        for delta in self.log.iter_mut().flat_map(UndoLog::iter_mut) {
            delta.global.shift_slots(s_cut as u32);
        }
        for row in self.dirty_reads.drain(..s_cut.min(self.dirty_reads.len())) {
            self.spare_sets.give(row);
        }
        self.access_dag.compact_entities(s_cut);
        self.finished.compact(s_cut);
        for t in &summarized {
            self.summarized.insert(*t);
        }
        self.compactions += 1;
        self.ops_reclaimed += (frontier - base) as u64;
        CompactStats {
            frontier,
            ops_reclaimed: frontier - base,
            txns_summarized: s_cut,
        }
    }

    /// Hand `visit` every conflict-graph node id the retained undo
    /// entries mention, with the graph it belongs to (0 = global,
    /// `k + 1` = conjunct `k`), reading each entry's frames the way
    /// [`OnlineMonitor::truncate_to`] would pop them.
    fn walk_log_nodes(
        log: Option<&mut UndoLog<PushDelta>>,
        schedule: &Schedule,
        scope_index: &ScopeIndex,
        mut visit: impl FnMut(usize, &mut u32),
    ) {
        let Some(log) = log else {
            return;
        };
        let mut p = log.end();
        log.walk_back(|_, cursor| {
            p -= 1;
            for &k in scope_index.of(schedule.op(OpIndex(p)).item).iter().rev() {
                OnlineAccessDag::skip_frame(cursor);
                GraphDelta::visit_nodes(cursor, |node| visit(k as usize + 1, node));
            }
            GraphDelta::visit_nodes(cursor, |node| visit(0, node));
        });
    }

    /// Compaction calls that actually advanced the frontier.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Total operations reclaimed across all compactions.
    pub fn ops_reclaimed(&self) -> u64 {
        self.ops_reclaimed
    }

    /// Was `txn` summarized into the permanent prefix?
    pub fn is_summarized(&self, txn: TxnId) -> bool {
        self.summarized.contains(txn)
    }

    /// A structural estimate of the monitor's resident state, in
    /// bytes: live rows × element sizes across the schedule, prefix
    /// tables, graphs, delayed-read rows and the undo log with its
    /// tape. Its job is to make the compaction plateau measurable
    /// without an allocator hook, so it counts what the monitor must
    /// hold, not what it happens to have reserved: `Vec` growth slack,
    /// the retired rows kept for reuse (at most what the last sweep or
    /// retraction released) and the scratch tables are left out.
    /// `crates/core/tests/alloc_budget.rs` holds it within a factor of
    /// two of the bytes a counting allocator sees live whenever the
    /// monitor is at a high-water mark (before a sweep, or never
    /// swept).
    pub fn resident_bytes_estimate(&self) -> usize {
        self.index.schedule().resident_bytes()
            + self.index.tables.resident_bytes()
            + ItemSet::rows_bytes(&self.scopes)
            + self.scope_index.resident_bytes()
            + self.global.resident_bytes()
            + self
                .conjuncts
                .iter()
                .map(|g| std::mem::size_of::<ProjGraph>() + g.resident_bytes())
                .sum::<usize>()
            + ItemSet::rows_bytes(&self.dirty_reads)
            + self.access_dag.resident_bytes()
            + self.log.as_ref().map_or(0, UndoLog::resident_bytes)
            + self.finished.resident_bytes()
            + self.summarized.resident_bytes()
    }

    /// Would admitting this access keep `level`? Read-only — the
    /// speculative test behind `MonitorAdmission` in the scheduler.
    /// A summarized transaction is never admitted: its push would be
    /// rejected ([`CoreError::SummarizedTransaction`]) regardless of
    /// what the graphs say.
    pub fn admits(&self, txn: TxnId, item: ItemId, is_write: bool, level: AdmissionLevel) -> bool {
        if self.summarized.contains(txn) {
            return false;
        }
        let slot = self.index.schedule().txn_slot(txn);
        match level {
            AdmissionLevel::Serializable => self.admits_graph_global(slot, item.index(), is_write),
            AdmissionLevel::Pwsr => self.admits_conjuncts(slot, item, is_write),
            AdmissionLevel::PwsrDr => {
                // Any operation of a dirtily-read transaction
                // materializes the DR violation.
                let clean = slot
                    .and_then(|s| self.dirty_reads.get(s))
                    .is_none_or(ItemSet::is_empty);
                clean && self.admits_conjuncts(slot, item, is_write)
            }
        }
    }

    fn admits_graph_global(&self, slot: Option<usize>, item: usize, is_write: bool) -> bool {
        self.global.admits(slot, item, is_write)
    }

    fn admits_conjuncts(&self, slot: Option<usize>, item: ItemId, is_write: bool) -> bool {
        self.scope_index
            .of(item)
            .iter()
            .all(|&k| self.conjuncts[k as usize].admits(slot, item.index(), is_write))
    }

    /// The current verdict (what the last `push` returned).
    pub fn verdict(&self) -> Verdict {
        let serializable = self.global.serializable();
        let pwsr = self.first_violation.is_none();
        let dr = self.first_non_dr.is_none();
        let level = VerdictLevel::compose(serializable, dr, pwsr);
        Verdict {
            len: self.index.len(),
            level,
            serializable,
            dr,
            first_violation: self.first_violation,
            first_non_serializable: self.global.cyclic_at,
            first_non_dr: self.first_non_dr,
            lemma2_certified: pwsr,
            lemma6_certified: pwsr && self.conjunct_non_dr.iter().all(Option::is_none),
        }
    }

    /// The underlying growing index (schedule + query tables).
    pub fn online_index(&self) -> &OnlineIndex {
        &self.index
    }

    /// The current prefix.
    pub fn schedule(&self) -> &Schedule {
        self.index.schedule()
    }

    /// Number of operations pushed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Has nothing been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The projection scopes.
    pub fn scopes(&self) -> &[ItemSet] {
        &self.scopes
    }

    /// The maintained serialization order of conjunct `k`'s projection
    /// (a topological order of its reduced conflict graph), or `None`
    /// once the projection is non-serializable.
    pub fn conjunct_order(&self, k: usize) -> Option<Vec<TxnId>> {
        self.conjuncts[k].order(self.index.schedule().txn_ids())
    }

    /// The maintained global serialization order, or `None`.
    pub fn serialization_order(&self) -> Option<Vec<TxnId>> {
        self.global.order(self.index.schedule().txn_ids())
    }

    /// Does the Lemma 2 certificate hold for conjunct `k`?
    pub fn lemma2_holds(&self, k: usize) -> bool {
        self.conjuncts[k].serializable()
    }

    /// Does the Lemma 6 certificate hold for conjunct `k`?
    pub fn lemma6_holds(&self, k: usize) -> bool {
        self.conjuncts[k].serializable() && self.conjunct_non_dr[k].is_none()
    }

    /// First position whose projection on conjunct `k` is cyclic.
    pub fn conjunct_first_cycle(&self, k: usize) -> Option<OpIndex> {
        self.conjuncts[k].cyclic_at
    }

    /// Re-derive every certificate with the batch machinery and compare
    /// against the incremental flags: for each serializable conjunct,
    /// the full `inclusion_holds_everywhere` sweep (Lemma 2, and
    /// Lemma 6) must agree with [`OnlineMonitor::lemma2_holds`] /
    /// [`OnlineMonitor::lemma6_holds`]. `O(n·|τ|)` — the audit path,
    /// not the per-push path.
    pub fn certify_prefix(&self) -> bool {
        let s = self.index.schedule();
        for (k, d) in self.scopes.iter().enumerate() {
            let Some(order) = self.conjunct_order(k) else {
                continue; // Lemma preconditions need a serialization order.
            };
            if inclusion_holds_everywhere(s, d, &order, false) != self.lemma2_holds(k) {
                return false;
            }
            if inclusion_holds_everywhere(s, d, &order, true) != self.lemma6_holds(k) {
                return false;
            }
        }
        true
    }

    /// What is known about the generating programs (Theorem 1 input).
    pub fn program_traits(&self) -> ProgramTraits {
        self.traits
    }

    /// Are the projection scopes pairwise disjoint? Required by every
    /// theorem (Example 5); decided once at construction.
    pub fn scopes_disjoint(&self) -> bool {
        self.scopes_disjoint
    }

    /// Is the live `DAG(S, IC)` still acyclic (Theorem 3's
    /// hypothesis)? Maintained incrementally per push — no trace
    /// rebuild.
    pub fn dag_acyclic(&self) -> bool {
        self.access_dag.is_acyclic()
    }

    /// First position whose access closed a `DAG(S, IC)` cycle.
    pub fn first_dag_cycle(&self) -> Option<OpIndex> {
        self.access_dag.first_cycle()
    }

    /// The theorems whose hypotheses hold **live** on the current
    /// prefix — the incremental counterpart of
    /// [`classify`](crate::theorems::classify): Theorem 1 from the
    /// static program traits, Theorem 2 from the maintained
    /// delayed-read flag, Theorem 3 from the live access DAG; all
    /// void unless the prefix is PWSR over disjoint scopes.
    pub fn guarantees(&self) -> Vec<Guarantee> {
        let mut out = Vec::new();
        if self.scopes_disjoint && self.first_violation.is_none() {
            if self.traits.all_fixed_structure == Some(true) {
                out.push(Guarantee::Theorem1FixedStructure);
            }
            if self.first_non_dr.is_none() {
                out.push(Guarantee::Theorem2DelayedRead);
            }
            if self.access_dag.is_acyclic() {
                out.push(Guarantee::Theorem3AcyclicDag);
            }
        }
        out
    }

    /// Does some theorem certify strong correctness of the current
    /// prefix, live?
    pub fn strongly_correct_guaranteed(&self) -> bool {
        !self.guarantees().is_empty()
    }
}

/// What a `MonitorAdmission` policy protects: the verdict floor an
/// admitted operation must preserve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionLevel {
    /// Keep the global conflict graph acyclic (classical SGT).
    Serializable,
    /// Keep every conjunct projection acyclic (Definition 2 live).
    Pwsr,
    /// PWSR **and** delayed-read — the Theorem 2 hypothesis, enforced
    /// per operation.
    PwsrDr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dr::is_delayed_read;
    use crate::ids::ItemId;
    use crate::serializability::{is_conflict_serializable, is_conflict_serializable_proj};
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    /// Example 2's scopes: d1 = {a, b}, d2 = {c}.
    fn example2_scopes() -> Vec<ItemSet> {
        vec![
            ItemSet::from_iter([ItemId(0), ItemId(1)]),
            ItemSet::from_iter([ItemId(2)]),
        ]
    }

    /// Example 2's schedule: PWSR, not serializable, not DR.
    fn example2_ops() -> Vec<Operation> {
        vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ]
    }

    #[test]
    fn online_index_matches_batch_index() {
        let ops = example2_ops();
        let mut online = OnlineIndex::new();
        for (k, op) in ops.iter().enumerate() {
            assert_eq!(online.push(op.clone()).unwrap(), OpIndex(k));
            let prefix = Schedule::new(ops[..=k].to_vec()).unwrap();
            let batch = ScheduleIndex::new(&prefix);
            let live = online.index();
            assert_eq!(online.schedule(), &prefix);
            for &t in prefix.txn_ids() {
                for p in prefix.positions() {
                    assert_eq!(live.read_set_before(t, p), batch.read_set_before(t, p));
                    assert_eq!(live.write_set_before(t, p), batch.write_set_before(t, p));
                    assert_eq!(live.txn_finished_by(t, p), batch.txn_finished_by(t, p));
                }
            }
            for p in prefix.positions() {
                assert_eq!(live.reads_from(p), batch.reads_from(p));
            }
        }
    }

    #[test]
    fn online_index_rejects_malformed_transactions() {
        let mut ix = OnlineIndex::new();
        ix.push(rd(1, 0, 0)).unwrap();
        ix.push(wr(1, 1, 1)).unwrap();
        assert!(ix.push(rd(1, 0, 0)).is_err(), "duplicate read");
        assert!(ix.push(rd(1, 1, 1)).is_err(), "read after write");
        assert!(ix.push(wr(1, 1, 2)).is_err(), "duplicate write");
        // Nothing was appended by the failed pushes.
        assert_eq!(ix.len(), 2);
        ix.push(rd(2, 0, 0)).unwrap();
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn example2_monitored_live() {
        let mut m = OnlineMonitor::new(example2_scopes());
        let mut last = None;
        for op in example2_ops() {
            last = Some(m.push(op).unwrap());
        }
        let v = last.unwrap();
        // PWSR but not serializable and not DR — no guarantee rung.
        assert_eq!(v.level, VerdictLevel::Pwsr);
        assert!(v.pwsr() && !v.serializable && !v.dr);
        // The global cycle closes at r1(c, −1): position 4. That same
        // operation is the first to prove T1 was still running when T2
        // read its write of a, so position 4 is also the first non-DR
        // prefix (every shorter prefix ends with T1 "finished").
        assert_eq!(v.first_non_serializable, Some(OpIndex(4)));
        assert_eq!(v.first_non_dr, Some(OpIndex(4)));
        assert!(v.lemma2_certified);
        assert!(!v.lemma6_certified, "the in-scope dirty read kills Lemma 6");
        assert!(m.certify_prefix());
    }

    #[test]
    fn serial_prefixes_stay_serializable_and_dr() {
        let mut m = OnlineMonitor::new(example2_scopes());
        for op in [wr(1, 0, 1), rd(1, 2, 1), rd(2, 0, 1), wr(2, 2, 2)] {
            let v = m.push(op).unwrap();
            assert_eq!(v.level, VerdictLevel::Serializable);
            assert!(v.dr && v.lemma2_certified && v.lemma6_certified);
        }
        assert!(m.certify_prefix());
        assert_eq!(m.serialization_order(), Some(vec![TxnId(1), TxnId(2)]));
    }

    #[test]
    fn non_pwsr_flagged_at_the_closing_operation() {
        // w1(a), r2(a), w2(b), r1(b): a cycle inside conjunct {a, b}.
        let ops = [wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)];
        let mut m = OnlineMonitor::new(example2_scopes());
        for (k, op) in ops.iter().enumerate() {
            let v = m.push(op.clone()).unwrap();
            if k < 3 {
                assert!(v.pwsr(), "prefix of {} ops is still PWSR", k + 1);
            } else {
                assert_eq!(v.level, VerdictLevel::Violation);
                assert_eq!(v.first_violation, Some(OpIndex(3)));
            }
        }
        assert_eq!(m.conjunct_first_cycle(0), Some(OpIndex(3)));
        assert!(m.conjunct_order(0).is_none());
        assert!(m.conjunct_order(1).is_some());
    }

    #[test]
    fn verdict_matches_batch_checkers_at_every_prefix() {
        let scopes = example2_scopes();
        for ops in [
            example2_ops(),
            vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)],
            vec![
                wr(1, 1, 1),
                wr(2, 1, 2),
                rd(2, 0, 0),
                rd(3, 1, 2),
                rd(1, 0, 0),
            ],
        ] {
            let mut m = OnlineMonitor::new(scopes.clone());
            for k in 0..ops.len() {
                let v = m.push(ops[k].clone()).unwrap();
                let prefix = Schedule::new(ops[..=k].to_vec()).unwrap();
                assert_eq!(v.serializable, is_conflict_serializable(&prefix));
                assert_eq!(v.dr, is_delayed_read(&prefix));
                assert_eq!(
                    v.pwsr(),
                    scopes
                        .iter()
                        .all(|d| is_conflict_serializable_proj(&prefix, d))
                );
                assert!(m.certify_prefix());
            }
        }
    }

    #[test]
    fn admission_rejects_exactly_the_offending_op() {
        // The canonical non-PWSR interleaving: the cycle in {a, b}
        // closes at r1(b) — admission at level Pwsr must reject it and
        // nothing before it.
        let ops = [wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)];
        let mut m = OnlineMonitor::new(example2_scopes());
        for (k, op) in ops.iter().enumerate() {
            let ok = m.admits(op.txn, op.item, op.is_write(), AdmissionLevel::Pwsr);
            if k < 3 {
                assert!(ok, "op {k} must be admitted");
                m.push(op.clone()).unwrap();
            } else {
                assert!(!ok, "the cycle-closing read must be rejected");
            }
        }
        assert_eq!(m.len(), 3);
        assert!(m.verdict().pwsr());
    }

    #[test]
    fn dr_admission_rejects_the_materializing_op() {
        // w1(a), r2(a): T2 read T1's write. T1's next operation would
        // materialize the dirty read; level PwsrDr rejects it while
        // plain Pwsr admits it.
        let mut m = OnlineMonitor::new(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(rd(2, 0, 1)).unwrap();
        assert!(!m.admits(TxnId(1), ItemId(2), false, AdmissionLevel::PwsrDr));
        assert!(m.admits(TxnId(1), ItemId(2), false, AdmissionLevel::Pwsr));
        // A third transaction is unaffected.
        assert!(m.admits(TxnId(3), ItemId(2), true, AdmissionLevel::PwsrDr));
    }

    #[test]
    fn serializable_admission_is_stricter_than_pwsr() {
        // Example 2's last op closes the *global* cycle but no
        // conjunct cycle: Serializable rejects it, Pwsr admits it.
        let ops = example2_ops();
        let mut m = OnlineMonitor::new(example2_scopes());
        for op in &ops[..4] {
            assert!(m.admits(op.txn, op.item, op.is_write(), AdmissionLevel::Serializable));
            m.push(op.clone()).unwrap();
        }
        let last = &ops[4];
        assert!(!m.admits(
            last.txn,
            last.item,
            last.is_write(),
            AdmissionLevel::Serializable
        ));
        assert!(m.admits(last.txn, last.item, last.is_write(), AdmissionLevel::Pwsr));
    }

    #[test]
    fn empty_monitor_is_trivially_serializable() {
        let m = OnlineMonitor::new(example2_scopes());
        let v = m.verdict();
        assert_eq!(v.level, VerdictLevel::Serializable);
        assert!(v.dr && v.lemma2_certified && v.lemma6_certified);
        assert!(m.is_empty());
        assert!(m.certify_prefix());
    }

    /// Push every op logged, truncate back to every length, and check
    /// the monitor equals a fresh replay of the shortened prefix —
    /// verdict, certificates, admission behaviour and audit.
    #[test]
    fn truncate_to_equals_fresh_replay() {
        let runs = [
            example2_ops(),
            vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)],
            vec![
                wr(1, 1, 1),
                wr(2, 1, 2),
                rd(2, 0, 0),
                rd(3, 1, 2),
                rd(1, 0, 0),
            ],
        ];
        for ops in runs {
            for cut in 0..=ops.len() {
                let mut m = OnlineMonitor::new(example2_scopes());
                for op in &ops {
                    m.push_logged(op.clone()).unwrap();
                }
                assert_eq!(m.logged_len(), ops.len());
                assert_eq!(m.truncate_to(cut), ops.len() - cut);
                let mut fresh = OnlineMonitor::new(example2_scopes());
                for op in &ops[..cut] {
                    fresh.push(op.clone()).unwrap();
                }
                assert_eq!(m.verdict(), fresh.verdict(), "cut {cut}");
                assert_eq!(m.schedule(), fresh.schedule());
                assert_eq!(m.guarantees(), fresh.guarantees());
                assert!(m.certify_prefix());
                // The truncated monitor keeps working: admission and
                // further pushes agree with the fresh monitor.
                for op in &ops[cut..] {
                    assert_eq!(
                        m.admits(op.txn, op.item, op.is_write(), AdmissionLevel::Pwsr),
                        fresh.admits(op.txn, op.item, op.is_write(), AdmissionLevel::Pwsr)
                    );
                    assert_eq!(
                        m.push_logged(op.clone()).unwrap(),
                        fresh.push(op.clone()).unwrap()
                    );
                }
                assert_eq!(m.verdict(), fresh.verdict());
            }
        }
    }

    #[test]
    fn unlogged_pushes_raise_the_undo_floor() {
        let mut m = OnlineMonitor::new(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap(); // permanent
        m.push_logged(rd(2, 0, 1)).unwrap();
        m.push_logged(rd(2, 1, -1)).unwrap();
        assert_eq!(m.logged_len(), 2);
        assert_eq!(m.truncate_to(1), 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "undercuts the undo-log floor")]
    fn truncate_below_floor_panics() {
        let mut m = OnlineMonitor::new(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push_logged(rd(2, 0, 1)).unwrap();
        m.truncate_to(0);
    }

    /// The live Theorem 1/2/3 hypotheses equal the batch classifier at
    /// every prefix, for each program-trait assumption.
    #[test]
    fn live_guarantees_match_batch_classify() {
        use crate::theorems::classify;
        let ic = {
            use crate::constraint::{Conjunct, Formula, Term};
            IntegrityConstraint::new(vec![
                Conjunct::new(
                    0,
                    Formula::implies(
                        Formula::gt(Term::var(ItemId(0)), Term::int(0)),
                        Formula::gt(Term::var(ItemId(1)), Term::int(0)),
                    ),
                ),
                Conjunct::new(1, Formula::gt(Term::var(ItemId(2)), Term::int(0))),
            ])
            .unwrap()
        };
        let runs = [
            example2_ops(),                                           // cyclic DAG, non-DR
            vec![rd(1, 0, 1), wr(1, 2, 1), rd(2, 1, 1), wr(2, 2, 2)], // acyclic DAG
            vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)], // non-PWSR
        ];
        for traits in [
            ProgramTraits::unknown(),
            ProgramTraits::fixed_structure(),
            ProgramTraits::not_fixed_structure(),
        ] {
            for ops in &runs {
                let scopes: Vec<ItemSet> =
                    ic.conjuncts().iter().map(|c| c.items().clone()).collect();
                let mut m = OnlineMonitor::with_traits(scopes, traits);
                assert!(m.scopes_disjoint());
                for k in 0..ops.len() {
                    m.push(ops[k].clone()).unwrap();
                    let prefix = Schedule::new(ops[..=k].to_vec()).unwrap();
                    let batch = classify(&prefix, &ic, traits);
                    assert_eq!(
                        m.dag_acyclic(),
                        batch.dag.is_acyclic(),
                        "DAG acyclicity diverged at prefix {k}"
                    );
                    assert_eq!(
                        m.guarantees(),
                        batch.guarantees,
                        "guarantees diverged at prefix {k}"
                    );
                    assert_eq!(
                        m.strongly_correct_guaranteed(),
                        batch.strongly_correct_guaranteed()
                    );
                }
            }
        }
    }

    #[test]
    fn compaction_preserves_verdicts_and_rejects_summarized() {
        // Two transactions finish, the prefix compacts, two more run:
        // every verdict must equal an uncompacted twin's, and pushes
        // for summarized transactions must be rejected.
        let ops1 = [wr(1, 0, 1), rd(2, 0, 1), wr(2, 2, 5), rd(1, 2, 5)];
        let ops2 = [wr(3, 1, 7), rd(4, 1, 7), wr(4, 2, 8), rd(3, 2, 8)];
        let mut m = OnlineMonitor::new(example2_scopes());
        let mut twin = OnlineMonitor::new(example2_scopes());
        for op in &ops1 {
            assert_eq!(m.push(op.clone()).unwrap(), twin.push(op.clone()).unwrap());
        }
        m.finish_txn(TxnId(1));
        m.finish_txn(TxnId(2));
        assert_eq!(m.compaction_frontier(), 4);
        let stats = m.compact();
        assert_eq!(
            (stats.frontier, stats.ops_reclaimed, stats.txns_summarized),
            (4, 4, 2)
        );
        assert_eq!(m.schedule().base(), 4);
        assert_eq!(m.len(), 4);
        assert_eq!(m.verdict(), twin.verdict());
        assert!(m.is_summarized(TxnId(1)) && m.is_summarized(TxnId(2)));
        let err = m.push(wr(1, 0, 9)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::SummarizedTransaction { txn: TxnId(1) }
        ));
        assert!(err.to_string().contains("summarized"), "{err}");
        assert!(m.resident_bytes_estimate() < twin.resident_bytes_estimate());
        for op in &ops2 {
            assert_eq!(
                m.push(op.clone()).unwrap(),
                twin.push(op.clone()).unwrap(),
                "post-compaction push diverged"
            );
            assert_eq!(m.guarantees(), twin.guarantees());
        }
        // A second compaction over the survivors also matches.
        m.finish_txn(TxnId(3));
        m.finish_txn(TxnId(4));
        assert_eq!(m.compact().frontier, 8);
        assert_eq!(m.verdict(), twin.verdict());
        assert_eq!(m.compactions(), 2);
        assert_eq!(m.ops_reclaimed(), 8);
    }

    #[test]
    fn compaction_frontier_respects_unfinished_and_floor() {
        let mut m = OnlineMonitor::new(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(rd(2, 0, 1)).unwrap();
        // T2 unfinished: the frontier cannot pass its first op.
        m.finish_txn(TxnId(1));
        assert_eq!(m.compaction_frontier(), 1);
        // Logged pushes above the undo floor clamp the frontier too.
        let mut l = OnlineMonitor::new(example2_scopes());
        l.push_logged(wr(1, 0, 1)).unwrap();
        l.finish_txn(TxnId(1));
        assert_eq!(l.compaction_frontier(), 0, "above the undo floor");
        l.checkpoint(1);
        assert_eq!(l.compaction_frontier(), 1);
        assert_eq!(l.compact().ops_reclaimed, 1);
    }

    #[test]
    fn overlapping_scopes_void_every_guarantee() {
        // Example 5's lesson, live: non-disjoint scopes yield no
        // guarantee regardless of the other hypotheses.
        let scopes = vec![
            ItemSet::from_iter([ItemId(0), ItemId(1)]),
            ItemSet::from_iter([ItemId(1), ItemId(2)]),
        ];
        let mut m = OnlineMonitor::with_traits(scopes, ProgramTraits::fixed_structure());
        assert!(!m.scopes_disjoint());
        m.push(rd(1, 0, 10)).unwrap();
        m.push(wr(1, 1, 0)).unwrap();
        let v = m.verdict();
        assert!(v.pwsr() && v.dr && m.dag_acyclic());
        assert!(m.guarantees().is_empty());
        assert!(!m.strongly_correct_guaranteed());
    }
}
