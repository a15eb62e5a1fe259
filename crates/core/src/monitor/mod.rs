//! The **online verdict monitor**: live Lemma 2/6 certification of a
//! growing schedule, one operation (or one transaction's run of them)
//! at a time.
//!
//! The batch deciders answer the paper's questions from tables built
//! once per schedule ([`ScheduleIndex`](crate::index::ScheduleIndex));
//! but what the *verdicts* depend on — each item's latest write
//! (reads-from), each transaction's running `RS`/`WS` totals (§2.2),
//! the conflict edges an access adds — changes by `O(1)` words when
//! one operation is appended. The certifier is that observation as a
//! state machine, written once in the private `stages` module: the
//! order-defining sequence tables, the total-order-dependent state and
//! one conflict graph per conjunct, each with its own undo journal.
//! Two drivers hold it. [`OnlineMonitor`], here, owns the stage state
//! outright and is the single-writer reference;
//! [`sharded::ShardedMonitor`] puts the same structs behind ranked
//! locks and ticket turnstiles so that threads certify concurrently.
//! On the same interleaving they reach the same state by construction
//! — the same code ran in the same order on the same data.
//!
//! The verdicts, maintained **incrementally** after every push:
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
//! ## What a driver adds
//!
//! Everything a push does to the certified state, how it is retracted
//! ([`undo`]: per-stage LIFO journals over side tapes, bounded by
//! [`OnlineMonitor::checkpoint`]) and how the committed prefix is
//! collapsed ([`OnlineMonitor::compact`]) is stage code, shared. The
//! single writer adds, and only it maintains:
//!
//! * the **§2.2 totals per slot** — it has the transaction's slot in
//!   hand, so a run is validated against a row of a plain vector (the
//!   pipeline keeps the same rows in striped maps outside its
//!   sequence lock);
//! * the **Theorem 1/3 hypotheses live**
//!   ([`OnlineMonitor::guarantees`]): fixed structure is a property of
//!   the *programs* ([`ProgramTraits`], supplied once at
//!   construction), scope disjointness is checked once at
//!   construction, and `DAG(S, IC)` acyclicity rides an incremental
//!   [`OnlineAccessDag`] instead of being rebuilt from the trace. The
//!   access graph's probe inserts and retracts edges, so it wants one
//!   writer; its undo frames ride a journal of the monitor's own, in
//!   step with the stage journals;
//! * **per-call logging**: [`OnlineMonitor::push_logged`] journals,
//!   [`OnlineMonitor::push`] does not and thereby makes everything so
//!   far permanent (a pipeline is built logged or unlogged);
//! * a full [`Verdict`] after every operation, where the pipeline
//!   returns a lock-free floor and causality flags.
//!
//! Tickets and the atomic floor are the pipeline's; see [`sharded`].
//! The durability journal ([`journal::MonitorJournal`]) is both
//! drivers': each reports what it applies, at the same points.

pub mod journal;
pub mod sharded;
mod stages;
pub mod undo;

use crate::constraint::IntegrityConstraint;
use crate::dag::OnlineAccessDag;
use crate::error::Result;
use crate::graph::IncrementalDag;
use crate::ids::{ItemId, OpIndex, TxnId};
use crate::op::Operation;
use crate::schedule::Schedule;
use crate::state::ItemSet;
use crate::theorems::{Guarantee, ProgramTraits};
use crate::viewset::inclusion_holds_everywhere;
use journal::MonitorJournal;
use stages::{GlobalState, SeqState, ShardState, TxnTotals};
use undo::{GraphDelta, Tape, UndoLog};

const ABSENT: u32 = u32::MAX;

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
/// must survive, and the old→new numbering — for one graph at a time.
/// The monitor keeps them between sweeps, so a sweep allocates nothing
/// however many graphs it condenses.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeMaps {
    kept: Vec<bool>,
    map: Vec<u32>,
}

impl NodeMaps {
    /// Both tables sized for a graph of `n` nodes, every node unmarked.
    fn reset(&mut self, n: usize) -> (&mut [bool], &mut [u32]) {
        self.kept.clear();
        self.kept.resize(n, false);
        self.map.clear();
        self.map.resize(n, ABSENT);
        (&mut self.kept, &mut self.map)
    }
}

/// What one access did to a [`ProjGraph`]. Anything but `Clean` means
/// the access, against the graph just before it, would not have been
/// admitted ([`ProjGraph::admits`] answers `false`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Applied {
    /// Its conflict edges went in and the projection is still acyclic.
    Clean,
    /// It closed the projection's first cycle: the graph froze here.
    Closed,
    /// The graph was already frozen, so nothing was applied — the
    /// access was never certified. A retraction that un-freezes the
    /// graph re-pushes it.
    Frozen,
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
    /// Says whether the access went in clean, closed the first cycle,
    /// or met a graph that was already frozen.
    fn apply(
        &mut self,
        slot: usize,
        item: usize,
        is_write: bool,
        p: OpIndex,
        mut tape: Option<&mut Tape>,
    ) -> Applied {
        let mut delta = GraphDelta::NONE;
        let mut applied = Applied::Frozen;
        if self.cyclic_at.is_none() {
            // (A frozen graph applies nothing: non-serializability is
            // monotone until a retraction un-freezes it.)
            applied = Applied::Clean;
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
                applied = Applied::Closed;
            }
        }
        if let Some(tape) = tape {
            delta.seal(tape);
        }
        applied
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

    /// Committed-prefix compaction of one projection and the journal
    /// that retracts it. Nodes a retained journal entry mentions must
    /// survive the condensation (the entry has to stay replayable in
    /// LIFO order) and are renamed afterwards; each entry's tape words
    /// end with its graph frame, and `renumber` adjusts whatever the
    /// record itself names.
    fn compact<D>(
        &mut self,
        log: &mut UndoLog<D>,
        s_cut: usize,
        maps: &mut NodeMaps,
        mut renumber: impl FnMut(&mut D),
    ) {
        let (kept, map) = maps.reset(self.dag.len());
        log.walk_back(|_, cursor| {
            GraphDelta::visit_nodes(cursor, |node| kept[*node as usize] = true)
        });
        self.condense(s_cut, kept, map);
        log.walk_back(|delta, cursor| {
            GraphDelta::visit_nodes(cursor, |node| *node = map[*node as usize]);
            renumber(delta);
        });
    }

    /// The condensation itself, in the graph's own storage. The
    /// `s_cut` summarized transaction slots occupy the
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
    fn condense(&mut self, s_cut: usize, kept: &mut [bool], map: &mut [u32]) {
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

/// The verdict ladder after a push, strongest guarantee first. The
/// declaration order is the ladder's: a worse rung compares greater,
/// and `level as u8` (0…3) is the byte the state hash absorbs and the
/// sharded monitor's lock-free floor holds (between retractions the
/// ladder only worsens, so `fetch_max` on it is exact).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
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
    /// Decode the lock-free floor's byte (`level as u8`).
    pub(crate) fn from_floor(byte: u8) -> VerdictLevel {
        match byte {
            0 => VerdictLevel::Serializable,
            1 => VerdictLevel::DrPreserving,
            2 => VerdictLevel::Pwsr,
            _ => VerdictLevel::Violation,
        }
    }

    /// Compose the ladder from its three (monotonically worsening)
    /// components — the only composition point, behind every verdict
    /// and the sharded monitor's lock-free floor.
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

    /// Does the prefix sit at or above the rung `level` protects? The
    /// whole-prefix counterpart of the per-push
    /// [`PushOutcome::breaches`](sharded::PushOutcome::breaches): an
    /// executor admitting at `level` must only ever return a verdict
    /// that meets it. (`serializable` implies `pwsr()` — a conjunct
    /// cycle uses edges the global graph also contains.)
    pub fn meets(&self, level: AdmissionLevel) -> bool {
        match level {
            AdmissionLevel::Serializable => self.serializable,
            AdmissionLevel::Pwsr => self.pwsr(),
            AdmissionLevel::PwsrDr => self.pwsr() && self.dr,
        }
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

/// Live verdicts over a growing schedule: per-conjunct and global
/// conflict graphs under incremental cycle detection, delayed-read
/// tracking, and the Lemma 2/6 inclusion certificates — all updated in
/// `O(words)` amortized per [`OnlineMonitor::push`].
///
/// The single-writer driver of the certifier in `stages`: it owns
/// the three stage states directly and walks each admitted run through
/// them operation by operation. Beside them it keeps what only a
/// single writer maintains — the per-slot §2.2 totals, the live data
/// access graph (Theorem 3) with the log its undo frames ride, and the
/// static [`ProgramTraits`] (Theorem 1).
#[derive(Debug)]
pub struct OnlineMonitor {
    /// The conjunct data sets `d_e` (projection scopes).
    scopes: Vec<ItemSet>,
    /// The scopes inverted: which conjuncts contain an item.
    scope_index: ScopeIndex,
    seq: SeqState,
    global: GlobalState,
    conjuncts: Vec<ShardState>,
    /// First prefix with a non-serializable conjunct projection: the
    /// minimum over the conjuncts' first cycles.
    first_violation: Option<OpIndex>,
    /// Per slot: the transaction's running §2.2 read/write totals.
    totals: Vec<TxnTotals>,
    /// Rows `totals` gave up (retraction, compaction), emptied and
    /// reused by the slots created next.
    spare_totals: Vec<TxnTotals>,
    /// What is known about the generating programs (Theorem 1 input;
    /// static, supplied at construction).
    traits: ProgramTraits,
    /// Are the scopes pairwise disjoint? Every theorem requires it;
    /// checked once at construction — it never changes.
    scopes_disjoint: bool,
    /// `DAG(S, IC)` maintained live (Theorem 3's hypothesis).
    access_dag: OnlineAccessDag,
    /// One entry per logged push, in step with the stage journals: its
    /// tape carries the push's data-access-graph frames, one per
    /// conjunct containing the item, ascending.
    dag_log: UndoLog<()>,
    /// Per operation of the run being admitted: its reads-from writer
    /// slot, as the sequence stage resolved it.
    rf_slots: Vec<Option<usize>>,
    /// The verdict after each operation of the last admitted run.
    verdicts: Vec<Verdict>,
    /// Durability journal: hears every append, truncation and floor
    /// raise before it is applied.
    journal: Option<Box<dyn MonitorJournal>>,
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
            scope_index: ScopeIndex::new(&scopes),
            scopes,
            seq: SeqState::default(),
            global: GlobalState::new(n),
            conjuncts: vec![ShardState::default(); n],
            first_violation: None,
            totals: Vec::new(),
            spare_totals: Vec::new(),
            traits,
            scopes_disjoint,
            access_dag: OnlineAccessDag::new(n),
            dag_log: UndoLog::new(0),
            rf_slots: Vec::new(),
            verdicts: Vec::new(),
            journal: None,
        }
    }

    /// Attach a durability journal: every append, truncation and
    /// checkpoint-floor raise is reported to `journal` before it is
    /// applied — the single-writer twin of
    /// [`sharded::ShardedMonitor::with_journal`], with the same calls
    /// at the same points, so a WAL written here replays into a fresh
    /// monitor (see [`MonitorJournal`]). An unlogged push is journaled
    /// as its append alone. Attach before the first push, or where the
    /// journal's own history ends.
    pub fn with_journal(mut self, journal: Box<dyn MonitorJournal>) -> OnlineMonitor {
        self.journal = Some(journal);
        self
    }

    /// A monitor over the conjunct scopes of an integrity constraint —
    /// one projection per `d_e`, exactly Definition 2's decomposition.
    pub fn for_constraint(ic: &IntegrityConstraint) -> OnlineMonitor {
        OnlineMonitor::new(ic.scopes())
    }

    /// Append one operation and return the updated verdict.
    ///
    /// Cost: the `O(1)` table updates and the touched graphs' edge
    /// insertions (amortized near-constant under Pearce–Kelly) — no
    /// table rebuild, no schedule rescan, no scan over the scopes.
    /// Errors (leaving the monitor untouched) if the operation
    /// violates its transaction's §2.2 well-formedness or the
    /// transaction was summarized.
    ///
    /// An unlogged push is permanent: it raises the floor below which
    /// [`OnlineMonitor::truncate_to`] can retract to the new length.
    pub fn push(&mut self, op: Operation) -> Result<Verdict> {
        self.admit(std::slice::from_ref(&op), false, false)
            .map(|v| v[0])
    }

    /// [`OnlineMonitor::push`] recording undo-log entries, so the
    /// push can later be retracted by [`OnlineMonitor::truncate_to`].
    pub fn push_logged(&mut self, op: Operation) -> Result<Verdict> {
        self.admit(std::slice::from_ref(&op), true, false)
            .map(|v| v[0])
    }

    /// **Batch admission**: append one transaction's program-ordered
    /// run of operations and return the verdict after each — the
    /// single-writer twin of [`sharded::ShardedMonitor::push_batch`],
    /// with the same contract: the slice must be operations of a
    /// single transaction in program order (panics otherwise), and
    /// admission is **atomic** — the whole run is §2.2-validated up
    /// front against the transaction's totals, so a malformed
    /// operation anywhere in the run rejects the batch with the
    /// monitor untouched (no partial prefix is admitted). Verdicts,
    /// certificates and undo behaviour are byte-identical to pushing
    /// the operations one at a time; the batch boundary only matters
    /// to an attached journal, which hears the run as one
    /// `appended_batch` (the WAL frames it as one record). An empty
    /// slice returns an empty vector.
    pub fn push_batch(&mut self, ops: &[Operation]) -> Result<Vec<Verdict>> {
        self.admit(ops, false, true).map(<[Verdict]>::to_vec)
    }

    /// [`OnlineMonitor::push_batch`] recording undo-log entries per
    /// operation, so batch-admitted operations retract individually
    /// through [`OnlineMonitor::truncate_to`] exactly like singleton
    /// [`OnlineMonitor::push_logged`] calls.
    pub fn push_batch_logged(&mut self, ops: &[Operation]) -> Result<Vec<Verdict>> {
        self.admit(ops, true, true).map(<[Verdict]>::to_vec)
    }

    /// The one admission path: validate the run against its
    /// transaction's totals, report it to the journal (as one
    /// `appended_batch` when `framed`), claim its segment (stage 1),
    /// then take each operation through the global stage, the stage of
    /// every conjunct containing its item, and the data access graph —
    /// recording undo entries for all of it when `logged`. Returns the
    /// verdict after each operation.
    fn admit(&mut self, ops: &[Operation], logged: bool, framed: bool) -> Result<&[Verdict]> {
        self.verdicts.clear();
        let Some(first) = ops.first() else {
            return Ok(&self.verdicts);
        };
        let txn = first.txn;
        assert!(
            ops.iter().all(|o| o.txn == txn),
            "push_batch requires a single-transaction batch (the program-order unit)"
        );
        let existing = self.seq.slot(txn)?;
        let slot = existing.unwrap_or_else(|| {
            let mut row = self.spare_totals.pop().unwrap_or_default();
            row.clear();
            self.totals.push(row);
            self.totals.len() - 1
        });
        if let Err(e) = self.totals[slot].admit(ops) {
            if existing.is_none() {
                self.spare_totals.extend(self.totals.pop());
            }
            return Err(e);
        }
        if let Some(journal) = self.journal.as_deref_mut() {
            if framed {
                journal.appended_batch(ops);
            } else {
                journal.appended(first);
            }
        }
        self.rf_slots.clear();
        let (p0, slot) = self.seq.apply(ops, existing, logged, &mut self.rf_slots);
        for (i, op) in ops.iter().enumerate() {
            let p = OpIndex(p0 + i);
            self.global
                .apply(&self.scopes, slot, op, self.rf_slots[i], p, logged);
            for &k in self.scope_index.of(op.item) {
                if self.conjuncts[k as usize].apply(slot, op, p, logged) == Applied::Closed {
                    self.first_violation.get_or_insert(p);
                }
                if logged {
                    let tape = self.dag_log.tape();
                    self.access_dag
                        .record_logged(slot, k, op.is_write(), p, tape);
                } else {
                    self.access_dag.record(slot, k, op.is_write(), p);
                }
            }
            if logged {
                self.dag_log.record(());
            }
            self.verdicts
                .push(self.global.verdict(p.0 + 1, self.first_violation));
        }
        if !logged {
            // Permanent, and so is everything before it: the journals
            // restart empty at the new length.
            let len = self.seq.schedule.len();
            if self.seq.log.len() > 0 {
                self.conjuncts.iter_mut().for_each(|c| c.log.reset(len));
            }
            self.seq.log.reset(len);
            self.global.log.reset(len);
            self.dag_log.reset(len);
        }
        Ok(&self.verdicts)
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
            n <= self.len(),
            "truncate_to({n}) beyond length {}",
            self.len()
        );
        assert!(
            n >= self.log_floor(),
            "truncate_to({n}) undercuts the undo-log floor {}",
            self.log_floor()
        );
        let undone = self.len() - n;
        if let Some(journal) = self.journal.as_deref_mut().filter(|_| undone > 0) {
            journal.truncated(n);
        }
        for _ in 0..undone {
            let u = self.seq.undo();
            self.dag_log.pop();
            // Reverse application order within the push.
            for &k in self.scope_index.of(u.op.item).iter().rev() {
                let tape = self.dag_log.tape();
                self.access_dag.undo(u.slot, k, u.op.is_write(), tape);
                self.conjuncts[k as usize].undo(u.slot, u.op.item, u.pos);
            }
            self.global.undo(u.slot, u.op.item, u.new_slot);
            if u.new_slot {
                self.spare_totals.extend(self.totals.pop());
            } else {
                self.totals[u.slot].strip(&u.op);
            }
        }
        // Every conjunct that went cyclic at or after `n` is acyclic
        // again, and the minimum over the others is unchanged.
        if self.first_violation.is_some_and(|p| p.0 >= n) {
            self.first_violation = None;
        }
        undone
    }

    /// Abort `victims`: truncate to the earliest operation any of them
    /// still holds, then re-admit — logged, through the ordinary
    /// admission path — every other transaction's operation from there
    /// on, in its original order. The single-writer form of
    /// [`sharded::ShardedMonitor::retract_txn`], which states what the
    /// re-push may and may not be assumed to preserve; both act on the
    /// same stage-1 answer. Returns `(ops undone, ops re-pushed)`, the
    /// abort's cost: proportional to the suffix, not to the schedule.
    ///
    /// A transaction the monitor has never seen contributes nothing; a
    /// summarized one is rejected with
    /// [`CoreError::SummarizedTransaction`] and nothing is retracted.
    /// Panics, as [`OnlineMonitor::truncate_to`] does, if the earliest
    /// operation lies below the undo-log floor.
    ///
    /// [`CoreError::SummarizedTransaction`]: crate::error::CoreError::SummarizedTransaction
    pub fn retract_txns(&mut self, victims: &[TxnId]) -> Result<(usize, usize)> {
        let mut survivors = Vec::new();
        let Some(first) = self.seq.retraction(victims, &mut survivors)? else {
            return Ok((0, 0));
        };
        let undone = self.truncate_to(first);
        for op in &survivors {
            self.admit(std::slice::from_ref(op), true, false)
                .expect("a survivor was admitted after the same predecessors before");
        }
        Ok((undone, survivors.len()))
    }

    /// Operations retractable by [`OnlineMonitor::truncate_to`]
    /// (equivalently, undo-log entries held: `len() - log_floor()`).
    pub fn logged_len(&self) -> usize {
        self.seq.log.len()
    }

    /// The undo-log floor: the prefix length below which pushes are
    /// permanent (equals [`OnlineMonitor::len`] when nothing is
    /// logged).
    pub fn log_floor(&self) -> usize {
        self.seq.log.base()
    }

    /// Raise the undo-log floor to `floor` (clamped to the currently
    /// logged range), making the pushes below it permanent and
    /// reclaiming their delta memory — the long-run memory bound for
    /// admission logs: once every transaction that started before
    /// `floor` has settled, nothing can force a retraction below it.
    /// Returns the new floor.
    pub fn checkpoint(&mut self, floor: usize) -> usize {
        let before = self.log_floor();
        let floor = self.seq.raise_floor(floor);
        if floor > before {
            if let Some(journal) = self.journal.as_deref_mut() {
                journal.floor_raised(floor);
            }
            self.global.raise_floor(floor);
            self.conjuncts.iter_mut().for_each(|c| c.raise_floor(floor));
            self.dag_log.checkpoint(floor);
        }
        floor
    }

    /// Declare `txn` finished: it will issue no further operations.
    /// Committed-prefix compaction ([`OnlineMonitor::compact`]) only
    /// advances over finished transactions. Advisory until the
    /// transaction is summarized — a later push for it is still
    /// accepted and simply holds the frontier back.
    pub fn finish_txn(&mut self, txn: TxnId) {
        self.seq.finish(txn);
    }

    /// The position of `txn`'s first live operation, `O(1)` — what a
    /// checkpoint over a set of live transactions takes the minimum
    /// of. `None` for a transaction with no live operation.
    pub fn first_op_of(&self, txn: TxnId) -> Option<OpIndex> {
        self.seq.first_op_of(txn).map(OpIndex)
    }

    /// The **compaction frontier**: the longest prefix in which every
    /// operation belongs to a finished transaction whose *last*
    /// operation also lies in that prefix, clamped to the undo-log
    /// floor (a compacted push must already be permanent — this is the
    /// frontier-safety condition shared with checkpointing and WAL
    /// truncation).
    pub fn compaction_frontier(&self) -> usize {
        self.seq.frontier(self.log_floor())
    }

    /// **Committed-prefix compaction**: collapse the prefix below
    /// [`OnlineMonitor::compaction_frontier`] into a summary —
    /// per-item last-writer/last-reader boundary facts plus the
    /// condensed reachability of each conflict graph — reclaiming
    /// schedule segments, graph nodes, Pearce–Kelly order slots,
    /// delayed-read rows and §2.2 totals. Every structure is cut down
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
    ///
    /// [`CoreError::SummarizedTransaction`]: crate::error::CoreError::SummarizedTransaction
    pub fn compact(&mut self) -> CompactStats {
        let (stats, _) = self.seq.compact(self.log_floor());
        let s_cut = stats.txns_summarized;
        if stats.ops_reclaimed > 0 {
            self.global.compact(s_cut, &mut self.seq.maps);
            for c in &mut self.conjuncts {
                c.compact(s_cut, &mut self.seq.maps);
            }
            self.access_dag.compact_entities(s_cut);
            self.spare_totals.extend(self.totals.drain(..s_cut));
        }
        stats
    }

    /// Compaction calls that actually advanced the frontier.
    pub fn compactions(&self) -> u64 {
        self.seq.compactions
    }

    /// Total operations reclaimed across all compactions.
    pub fn ops_reclaimed(&self) -> u64 {
        self.seq.ops_reclaimed
    }

    /// Was `txn` summarized into the permanent prefix?
    pub fn is_summarized(&self, txn: TxnId) -> bool {
        self.seq.is_summarized(txn)
    }

    /// A structural estimate of the monitor's resident state, in
    /// bytes: live rows × element sizes across the schedule, order
    /// tables, graphs, delayed-read rows, §2.2 totals and the undo
    /// journals with their tapes. Its job is to make the compaction
    /// plateau measurable without an allocator hook, so it counts what
    /// the monitor must hold, not what it happens to have reserved:
    /// `Vec` growth slack, the retired rows kept for reuse (at most
    /// what the last sweep or retraction released) and the scratch
    /// tables are left out.
    /// `crates/core/tests/alloc_budget.rs` holds it within a factor of
    /// two of the bytes a counting allocator sees live whenever the
    /// monitor is at a high-water mark (before a sweep, or never
    /// swept).
    pub fn resident_bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        ItemSet::rows_bytes(&self.scopes)
            + self.scope_index.resident_bytes()
            + self.seq.resident_bytes()
            + self.global.resident_bytes()
            + self
                .conjuncts
                .iter()
                .map(|c| size_of::<ShardState>() + c.resident_bytes())
                .sum::<usize>()
            + self
                .totals
                .iter()
                .map(|t| size_of::<TxnTotals>() + t.heap_bytes())
                .sum::<usize>()
            + self.access_dag.resident_bytes()
            + self.dag_log.resident_bytes()
    }

    /// Would admitting this access keep `level`? Read-only — the
    /// speculative test behind `MonitorAdmission` in the scheduler.
    /// A summarized transaction is never admitted: its push would be
    /// rejected ([`CoreError::SummarizedTransaction`]) regardless of
    /// what the graphs say.
    ///
    /// [`CoreError::SummarizedTransaction`]: crate::error::CoreError::SummarizedTransaction
    pub fn admits(&self, txn: TxnId, item: ItemId, is_write: bool, level: AdmissionLevel) -> bool {
        let Ok(slot) = self.seq.slot(txn) else {
            return false;
        };
        let (global, conjunct) = (|| &self.global, |k: usize| &self.conjuncts[k]);
        stages::admits(
            &self.scope_index,
            slot,
            item,
            is_write,
            level,
            global,
            conjunct,
        )
    }

    /// The current verdict (what the last `push` returned).
    pub fn verdict(&self) -> Verdict {
        self.global.verdict(self.len(), self.first_violation)
    }

    /// The current prefix.
    pub fn schedule(&self) -> &Schedule {
        &self.seq.schedule
    }

    /// Number of operations pushed.
    pub fn len(&self) -> usize {
        self.seq.schedule.len()
    }

    /// Has nothing been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.seq.schedule.is_empty()
    }

    /// The projection scopes.
    pub fn scopes(&self) -> &[ItemSet] {
        &self.scopes
    }

    /// The maintained serialization order of conjunct `k`'s projection
    /// (a topological order of its reduced conflict graph), or `None`
    /// once the projection is non-serializable.
    pub fn conjunct_order(&self, k: usize) -> Option<Vec<TxnId>> {
        self.conjuncts[k].graph.order(self.seq.schedule.txn_ids())
    }

    /// The maintained global serialization order, or `None`.
    pub fn serialization_order(&self) -> Option<Vec<TxnId>> {
        self.global.graph.order(self.seq.schedule.txn_ids())
    }

    /// Does the Lemma 2 certificate hold for conjunct `k`?
    pub fn lemma2_holds(&self, k: usize) -> bool {
        self.conjuncts[k].graph.serializable()
    }

    /// Does the Lemma 6 certificate hold for conjunct `k`?
    pub fn lemma6_holds(&self, k: usize) -> bool {
        self.lemma2_holds(k) && self.global.lemma6_clean(k)
    }

    /// First position whose projection on conjunct `k` is cyclic.
    pub fn conjunct_first_cycle(&self, k: usize) -> Option<OpIndex> {
        self.conjuncts[k].graph.cyclic_at
    }

    /// Re-derive every certificate with the batch machinery and compare
    /// against the incremental flags: for each serializable conjunct,
    /// the full `inclusion_holds_everywhere` sweep (Lemma 2, and
    /// Lemma 6) must agree with [`OnlineMonitor::lemma2_holds`] /
    /// [`OnlineMonitor::lemma6_holds`]. `O(n·|τ|)` — the audit path,
    /// not the per-push path.
    pub fn certify_prefix(&self) -> bool {
        let s = self.schedule();
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
        let v = self.verdict();
        if self.scopes_disjoint && v.pwsr() {
            if self.traits.all_fixed_structure == Some(true) {
                out.push(Guarantee::Theorem1FixedStructure);
            }
            if v.dr {
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
    use crate::error::CoreError;
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
    fn online_index_rejects_malformed_transactions() {
        let mut m = OnlineMonitor::new(example2_scopes());
        m.push(rd(1, 0, 0)).unwrap();
        m.push(wr(1, 1, 1)).unwrap();
        assert!(m.push(rd(1, 0, 0)).is_err(), "duplicate read");
        assert!(m.push(rd(1, 1, 1)).is_err(), "read after write");
        assert!(m.push(wr(1, 1, 2)).is_err(), "duplicate write");
        // A run is refused whole, wherever its malformed operation
        // sits, for a transaction seen before or not.
        assert!(m.push_batch(&[rd(1, 2, 0), wr(1, 1, 2)]).is_err());
        assert!(m.push_batch(&[rd(3, 0, 0), rd(3, 0, 0)]).is_err());
        // Nothing was appended by the failed pushes, and no bit of a
        // refused run stuck.
        assert_eq!(m.len(), 2);
        assert_eq!(m.schedule().txn_ids(), &[TxnId(1)]);
        m.push(rd(1, 2, 0)).unwrap();
        m.push(rd(3, 0, 0)).unwrap();
        assert_eq!(m.len(), 4);
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
                let mut m = OnlineMonitor::with_traits(ic.scopes(), traits);
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
