//! Generators and oracles shared by the core property suites
//! (`proptests`, `bitset_props`, `lemma_props`, `monitor_props`,
//! `sharded_props`, `batch_props`, `retract_props`) and by the
//! pipeline explorer (`monitor::sharded::explore`, which includes this
//! file): random well-formed transactions, random interleavings of
//! them or of runs cut from them, two-scope carvings of the item
//! universe, lane-partitioned workloads, a journal that keeps the full
//! schedule, the verdict the batch deciders give a schedule, and the
//! oracles a monitor must pass against them and the order verifier.
//! The prefix and compaction properties are written once here, over a
//! [`Driver`]: `monitor_props` runs them on the single writer,
//! `sharded_props` on the sharded pipeline.

// Each suite is its own crate and uses a subset of these.
#![allow(dead_code)]

use proptest::prelude::*;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::error::CoreError;
use pwsr_core::ids::{ItemId, OpIndex, TxnId};
use pwsr_core::monitor::journal::MonitorJournal;
use pwsr_core::monitor::sharded::{PushOutcome, ShardedMonitor};
use pwsr_core::monitor::{AdmissionLevel, CompactStats, OnlineMonitor, Verdict, VerdictLevel};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::{
    is_conflict_serializable, is_conflict_serializable_proj, serialization_order_proj,
};
use pwsr_core::state::ItemSet;
use pwsr_core::txn::Transaction;
use pwsr_core::value::Value;
use pwsr_core::verify::verify;
use pwsr_core::viewset::inclusion_holds_everywhere;
use std::sync::Arc;

pub const MAX_ITEMS: u32 = 6;

/// Random well-formed transactions over items `0..max_items`: per item
/// at most one read then one write, so every suffix of a transaction
/// is §2.2-valid even after a truncation removed its prefix.
pub fn arb_transactions(n_txns: u32, max_items: u32) -> impl Strategy<Value = Vec<Transaction>> {
    let per_txn = proptest::collection::btree_map(
        0..max_items,
        (any::<bool>(), any::<bool>(), -20i64..20),
        1..=max_items as usize,
    );
    proptest::collection::vec(per_txn, n_txns as usize).prop_map(move |txn_specs| {
        txn_specs
            .into_iter()
            .enumerate()
            .map(|(k, spec)| {
                let txn = TxnId(k as u32 + 1);
                let mut ops = Vec::new();
                for (item, (do_read, do_write, v)) in spec {
                    if do_read {
                        ops.push(Operation::read(txn, ItemId(item), Value::Int(v)));
                    }
                    if do_write || !do_read {
                        ops.push(Operation::write(txn, ItemId(item), Value::Int(v + 1)));
                    }
                }
                Transaction::new(txn, ops).expect("respects §2.2")
            })
            .collect()
    })
}

/// Interleave complete transactions by a byte stream of picks.
pub fn interleave_random(txns: &[Transaction], mix: &[u8]) -> Vec<Operation> {
    interleaved_runs(txns, &[], mix).concat()
}

/// Split each transaction into contiguous program-order runs (batch
/// sizes 1..=4 drawn from `sizes`), then interleave the runs across
/// transactions by the `mix` byte stream — per-transaction run order
/// is preserved, which is exactly what the executors guarantee.
pub fn interleaved_runs(txns: &[Transaction], sizes: &[u8], mix: &[u8]) -> Vec<Vec<Operation>> {
    let mut si = 0usize;
    let mut queues: Vec<Vec<Vec<Operation>>> = txns
        .iter()
        .map(|t| {
            let mut runs = Vec::new();
            let mut rest = t.ops();
            while !rest.is_empty() {
                let k = (1 + (sizes.get(si).copied().unwrap_or(0) as usize) % 4).min(rest.len());
                si += 1;
                runs.push(rest[..k].to_vec());
                rest = &rest[k..];
            }
            runs.reverse(); // pop() yields program order
            runs
        })
        .collect();
    let total: usize = queues.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut mi = 0usize;
    while out.len() < total {
        let pick = (mix.get(mi).copied().unwrap_or(0) as usize) % queues.len();
        mi += 1;
        for off in 0..queues.len() {
            let k = (pick + off) % queues.len();
            if let Some(run) = queues[k].pop() {
                out.push(run);
                break;
            }
        }
    }
    out
}

/// Two scopes carved out of the item universe by a bitmask (items
/// whose bit is unset fall outside every scope).
pub fn scopes_from_bits(d1_bits: u32, d2_bits: u32) -> Vec<ItemSet> {
    let d1: ItemSet = (0..MAX_ITEMS)
        .filter(|i| d1_bits & (1 << i) != 0)
        .map(ItemId)
        .collect();
    let d2: ItemSet = (0..MAX_ITEMS)
        .filter(|i| d2_bits & (1 << i) != 0 && d1_bits & (1 << i) == 0)
        .map(ItemId)
        .collect();
    vec![d1, d2]
}

/// A lane-partitioned workload: the items `0..MAX_ITEMS` dealt
/// round-robin into one to three disjoint scopes, and `n_txns`
/// transactions that each keep to the items of one scope, its lane.
/// In half the cases one of the first three transactions *spans*
/// instead: at a drawn point of its run it also reads or writes an
/// item of the next lane — or, with one scope, the item `MAX_ITEMS`,
/// outside every scope. So on an unlogged pipeline half the cases stay
/// in lane mode throughout, and the other half leave it at that
/// transaction.
pub fn arb_lanes(n_txns: u32) -> impl Strategy<Value = (Vec<ItemSet>, Vec<Transaction>)> {
    (
        1usize..=3,
        arb_transactions(n_txns, MAX_ITEMS),
        proptest::collection::vec(0usize..3, n_txns as usize),
        (any::<bool>(), 0usize..3, any::<bool>(), 0usize..8),
    )
        .prop_map(move |(n_scopes, txns, lanes, spanning)| {
            let (span, span_at, span_write, span_pos) = spanning;
            let lane_of = |item: ItemId| item.index() % n_scopes;
            let scopes = (0..n_scopes)
                .map(|k| {
                    (0..MAX_ITEMS)
                        .map(ItemId)
                        .filter(|&i| lane_of(i) == k)
                        .collect()
                })
                .collect();
            let txns = txns
                .into_iter()
                .zip(lanes)
                .enumerate()
                .map(|(j, (t, lane))| {
                    let (txn, lane) = (t.id(), lane % n_scopes);
                    let mut ops: Vec<Operation> = t
                        .ops()
                        .iter()
                        .filter(|o| lane_of(o.item) == lane)
                        .cloned()
                        .collect();
                    if ops.is_empty() {
                        ops.push(Operation::write(txn, ItemId(lane as u32), Value::Int(0)));
                    }
                    if span && j == span_at % n_txns as usize {
                        let other = match n_scopes {
                            1 => ItemId(MAX_ITEMS),
                            _ => ItemId(((lane + 1) % n_scopes) as u32),
                        };
                        let op = match span_write {
                            true => Operation::write(txn, other, Value::Int(0)),
                            false => Operation::read(txn, other, Value::Int(0)),
                        };
                        ops.insert(span_pos % (ops.len() + 1), op);
                    }
                    Transaction::new(txn, ops).expect("respects §2.2")
                })
                .collect();
            (scopes, txns)
        })
}

/// A workload of `n_txns` transactions: half the time over two scopes
/// carved out by bitmasks ([`scopes_from_bits`]), half the time
/// lane-partitioned ([`arb_lanes`]).
pub fn arb_workload(n_txns: u32) -> impl Strategy<Value = (Vec<ItemSet>, Vec<Transaction>)> {
    let carved = (0u32..64, 0u32..64, arb_transactions(n_txns, MAX_ITEMS));
    let carved = carved.prop_map(|(d1, d2, txns)| (scopes_from_bits(d1, d2), txns));
    prop_oneof![carved, arb_lanes(n_txns)]
}

/// A journal that keeps the full recorded schedule, whatever a sweep
/// drops from the monitor's own.
#[derive(Clone, Debug, Default)]
pub struct Trail(Arc<parking_lot::Mutex<Vec<Operation>>>);

impl Trail {
    /// The schedule recorded so far.
    pub fn schedule(&self) -> Schedule {
        Schedule::new(self.0.lock().clone()).expect("a recorded schedule is valid")
    }
}

impl MonitorJournal for Trail {
    fn appended(&mut self, op: &Operation) {
        self.0.lock().push(op.clone());
    }

    fn truncated(&mut self, new_len: usize) {
        self.0.lock().truncate(new_len);
    }

    fn floor_raised(&mut self, _: usize) {}
}

/// The first `n` operations of `schedule`.
fn prefix(schedule: &Schedule, n: usize) -> Schedule {
    Schedule::new(schedule.ops()[..n].to_vec()).expect("valid prefix")
}

/// The shortest prefix of `schedule` that `holds` fails on (a property
/// that, once lost, stays lost), by bisection above the first `lo`
/// operations, on which it is known to hold.
fn first_failing(s: &Schedule, lo: usize, holds: impl Fn(&Schedule) -> bool) -> Option<OpIndex> {
    if holds(s) {
        return None;
    }
    let (mut lo, mut hi) = (lo, s.len());
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if holds(&prefix(s, mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(OpIndex(hi - 1))
}

/// Lemma 6's inclusion on conjunct `d`, swept in full under the batch
/// decider's order; `false` when `S^d` has none.
pub fn lemma6_batch(schedule: &Schedule, d: &ItemSet) -> bool {
    serialization_order_proj(schedule, d)
        .is_some_and(|order| inclusion_holds_everywhere(schedule, d, &order, true))
}

/// The [`Verdict`]s the batch deciders give `schedule`, every field
/// and position: entry `n` is its first `n` operations', what either
/// monitor driver must report after them. Each rung, once lost on a
/// growing schedule, stays lost, so one bisection per rung over the
/// whole schedule places it in every prefix.
pub fn batch_verdicts(schedule: &Schedule, scopes: &[ItemSet]) -> Vec<Verdict> {
    let pwsr = |s: &Schedule| scopes.iter().all(|d| is_conflict_serializable_proj(s, d));
    let lemma6 = |s: &Schedule| scopes.iter().all(|d| lemma6_batch(s, d));
    let first_non_serializable = first_failing(schedule, 0, is_conflict_serializable);
    // A conjunct cycle is a cycle of the whole schedule: PWSR holds
    // until serializability is lost.
    let first_violation = first_non_serializable.and_then(|p| first_failing(schedule, p.0, pwsr));
    let first_non_dr = first_failing(schedule, 0, is_delayed_read);
    // With a conjunct cyclic there is no order to sweep under: Lemma 6
    // is lost by the first violation at the latest.
    let upto = first_violation.map(|v| prefix(schedule, v.0 + 1));
    let lemma6_lost = first_failing(upto.as_ref().unwrap_or(schedule), 0, lemma6);
    let verdict = |len: usize| {
        let before = |p: Option<OpIndex>| p.filter(|p| p.0 < len);
        let [violation, non_serializable, non_dr] =
            [first_violation, first_non_serializable, first_non_dr].map(before);
        let level = match (violation, non_serializable, non_dr) {
            (Some(_), _, _) => VerdictLevel::Violation,
            (None, None, _) => VerdictLevel::Serializable,
            (None, Some(_), None) => VerdictLevel::DrPreserving,
            (None, Some(_), Some(_)) => VerdictLevel::Pwsr,
        };
        Verdict {
            len,
            level,
            serializable: non_serializable.is_none(),
            dr: non_dr.is_none(),
            first_violation: violation,
            first_non_serializable: non_serializable,
            first_non_dr: non_dr,
            lemma2_certified: violation.is_none(),
            lemma6_certified: before(lemma6_lost).is_none(),
        }
    };
    (0..=schedule.len()).map(verdict).collect()
}

/// What a property returns: `Err` names the first check that failed.
pub type Checked = std::result::Result<(), TestCaseError>;

/// The three admission levels.
pub const LEVELS: [AdmissionLevel; 3] = [
    AdmissionLevel::Serializable,
    AdmissionLevel::Pwsr,
    AdmissionLevel::PwsrDr,
];

/// Did a transaction other than `txn` read, in `before`, a value `txn`
/// wrote? Then `txn`'s next operation shows it was still running at
/// that read: a dirty read (Definition 5).
fn read_while_running(before: &[Operation], txn: TxnId) -> bool {
    let mut writer = std::collections::HashMap::new();
    before.iter().any(|o| {
        let dirty = !o.is_write() && o.txn != txn && writer.get(&o.item) == Some(&txn);
        if o.is_write() {
            writer.insert(o.item, o.txn);
        }
        dirty
    })
}

/// A monitor driver — the single writer ([`Single`]) or the sharded
/// pipeline — as the shared prefix and compaction properties drive it.
pub trait Driver: Sized {
    /// A fresh driver over `scopes`, journaling undo frames if `logged`.
    fn start(scopes: &[ItemSet], logged: bool) -> Self;
    /// Push `op` and check what the push reports against `want`, the
    /// batch deciders' verdict on the prefix it ends, and against
    /// `single`, an uncompacted single writer that holds the prefix
    /// before it.
    fn push_checked(&mut self, op: &Operation, want: Verdict, single: &OnlineMonitor) -> Checked;
    /// Declare `txn` finished; if `sweep`, raise the undo floor over
    /// everything pushed (nothing live may abort in these runs) and
    /// sweep, returning what the sweep reports.
    fn finish(&mut self, txn: TxnId, sweep: bool) -> Option<CompactStats>;
    /// What the oracles read.
    fn state(&self) -> State;
    /// The sweeps that reclaimed something, the operations they
    /// reclaimed in all, and the resident estimate.
    fn reclaimed(&self) -> (u64, u64, usize);
    /// Is `txn`, if summarized, refused whatever it tries next? A push
    /// is refused as [`CoreError::SummarizedTransaction`] twice over: a
    /// refused push leaves no §2.2 totals bit behind.
    fn sealed(&mut self, txn: TxnId) -> bool;
    /// Abort `txn` (a logged driver): truncate to its first operation
    /// and re-push the survivors; the operations undone and re-pushed.
    fn retract(&mut self, txn: TxnId) -> (usize, usize);
    /// Retract the logged suffix down to `n` operations.
    fn truncate(&mut self, n: usize);
    /// The rung the driver reports without a full verdict.
    fn floor(&self) -> VerdictLevel;
}

/// Twice refused as summarized.
fn refused_twice<T>(txn: TxnId, mut push: impl FnMut() -> Result<T, CoreError>) -> bool {
    let summarized = |r: Result<T, CoreError>| matches!(r, Err(CoreError::SummarizedTransaction { txn: t }) if t == txn);
    summarized(push()) && summarized(push())
}

/// A driver's state as the oracles read it: its verdict, its live tail
/// (what a sweep left of the schedule) and per conjunct the order it
/// offers and its Lemma 2 and Lemma 6 certificates.
pub struct State(
    pub Verdict,
    pub Schedule,
    pub Vec<(Option<Vec<TxnId>>, bool, bool)>,
);

/// The single writer as a [`Driver`]; its pushes are logged if `.1`.
pub struct Single(pub OnlineMonitor, bool);

impl Driver for Single {
    fn start(scopes: &[ItemSet], logged: bool) -> Self {
        Single(OnlineMonitor::new(scopes.to_vec()), logged)
    }

    /// Before the push every admission probe is `single`'s; the push
    /// returns `want`; after it the global order passes the verifier on
    /// the live tail.
    fn push_checked(&mut self, op: &Operation, want: Verdict, single: &OnlineMonitor) -> Checked {
        for level in LEVELS {
            let probe = |m: &OnlineMonitor| m.admits(op.txn, op.item, op.is_write(), level);
            prop_assert_eq!(probe(&self.0), probe(single), "{:?} at {:?}", op, level);
        }
        let pushed = match self.1 {
            true => self.0.push_logged(op.clone()),
            false => self.0.push(op.clone()),
        };
        prop_assert_eq!(pushed.expect("§2.2-valid"), want, "{:?}", op);
        let order = self.0.serialization_order();
        prop_assert_eq!(order.is_some(), want.serializable, "global order");
        if let Some(order) = order {
            let verified = verify(self.0.schedule(), None, &order);
            prop_assert_eq!(verified, Ok(()), "global order {:?}", order);
        }
        Ok(())
    }

    fn finish(&mut self, txn: TxnId, sweep: bool) -> Option<CompactStats> {
        self.0.finish_txn(txn);
        sweep.then(|| {
            self.0.checkpoint(self.0.len());
            self.0.compact()
        })
    }

    fn state(&self) -> State {
        let m = &self.0;
        let conjunct = |k| (m.conjunct_order(k), m.lemma2_holds(k), m.lemma6_holds(k));
        let conjuncts = (0..m.scopes().len()).map(conjunct).collect();
        State(m.verdict(), m.schedule().clone(), conjuncts)
    }

    fn reclaimed(&self) -> (u64, u64, usize) {
        let m = &self.0;
        (
            m.compactions(),
            m.ops_reclaimed(),
            m.resident_bytes_estimate(),
        )
    }

    /// Every probe of it is refused, and so is its push.
    fn sealed(&mut self, txn: TxnId) -> bool {
        let op = Operation::write(txn, ItemId(MAX_ITEMS), Value::Int(0));
        let admitted = |level| self.0.admits(txn, op.item, true, level);
        let probed = !LEVELS.into_iter().any(admitted);
        !self.0.is_summarized(txn) || (probed && refused_twice(txn, || self.0.push(op.clone())))
    }

    fn retract(&mut self, txn: TxnId) -> (usize, usize) {
        self.0.retract_txns(&[txn]).expect("never summarized")
    }

    fn truncate(&mut self, n: usize) {
        self.0.truncate_to(n);
    }

    /// The verdict's own rung.
    fn floor(&self) -> VerdictLevel {
        self.0.verdict().level
    }
}

impl Driver for ShardedMonitor {
    fn start(scopes: &[ItemSet], logged: bool) -> Self {
        match logged {
            true => ShardedMonitor::new_logged(scopes.to_vec()),
            false => ShardedMonitor::new(scopes.to_vec()),
        }
    }

    /// The push's whole [`PushOutcome`] is what `single` and the batch
    /// deciders give it: its position; as its floor, and the lock-free
    /// floor after it, `want`'s level; `single`'s refusal at
    /// `Serializable` and at `Pwsr` (pushes one at a time leave no
    /// stage pending, so the first cannot miss); and whether another
    /// transaction read from its own while it ran.
    fn push_checked(&mut self, op: &Operation, want: Verdict, single: &OnlineMonitor) -> Checked {
        let refused = |level| !single.admits(op.txn, op.item, op.is_write(), level);
        let before = single.schedule().ops();
        let told = PushOutcome {
            pos: OpIndex(before.len()),
            floor: want.level,
            caused_non_serializable: refused(AdmissionLevel::Serializable),
            caused_violation: refused(AdmissionLevel::Pwsr),
            caused_non_dr: read_while_running(before, op.txn),
        };
        let outcome = self.push_outcome(op.clone()).expect("§2.2-valid");
        prop_assert_eq!(outcome, told, "{:?}", op);
        prop_assert_eq!(self.floor(), want.level, "lock-free floor");
        Ok(())
    }

    fn finish(&mut self, txn: TxnId, sweep: bool) -> Option<CompactStats> {
        self.finish_txn(txn);
        sweep.then(|| {
            self.checkpoint([]);
            self.compact()
        })
    }

    fn state(&self) -> State {
        let m = self;
        let conjunct = |k| (m.conjunct_order(k), m.lemma2_holds(k), m.lemma6_holds(k));
        let conjuncts = (0..m.scopes().len()).map(conjunct).collect();
        State(m.verdict(), m.snapshot_schedule(), conjuncts)
    }

    fn reclaimed(&self) -> (u64, u64, usize) {
        (
            self.compactions(),
            self.ops_reclaimed(),
            self.resident_bytes_estimate(),
        )
    }

    /// Its push, its batch push and its retraction are all refused.
    fn sealed(&mut self, txn: TxnId) -> bool {
        let op = Operation::write(txn, ItemId(MAX_ITEMS), Value::Int(0));
        !self.is_summarized(txn)
            || (refused_twice(txn, || self.push(op.clone()))
                && self.push_batch(&[op]).is_err()
                && self.retract_txn(txn).is_err())
    }

    fn retract(&mut self, txn: TxnId) -> (usize, usize) {
        self.retract_txn(txn).expect("never summarized")
    }

    fn truncate(&mut self, n: usize) {
        self.truncate_to(n);
    }

    /// The lock-free floor.
    fn floor(&self) -> VerdictLevel {
        ShardedMonitor::floor(self)
    }
}

/// The oracles a sharded monitor that recorded `s` must pass,
/// none of them certifier code: its verdict is the batch deciders'
/// (every field, positions included), and [`check_lemmas_and_orders`].
pub fn check_against_oracles(s: &Schedule, scopes: &[ItemSet], m: &ShardedMonitor) -> Checked {
    let state = m.state();
    prop_assert_eq!(state.0, batch_verdicts(s, scopes)[s.len()], "verdict");
    check_lemmas_and_orders(s, scopes, &state)
}

/// The breach flags of pushes that recorded `ops` (`out[p]` for the
/// operation at `p`), against the single writer's refusal on the prefix
/// before each: the `Pwsr` and `PwsrDr` flags equal it, and a
/// `Serializable` breach comes only with a refusal. A refusal without
/// that breach — a miss — is allowed only before `lanes_end`, the first
/// position of the run that ended lane mode (0 for a pipeline from its
/// first push), after a conjunct cycle whose closing push was told (see
/// `PushOutcome`'s docs). `caused_non_dr`
/// is also held to the prefix itself, which shares no code with the
/// stages: another transaction read from the pushing one while it ran.
pub fn check_flags(
    scopes: &[ItemSet],
    ops: &[Operation],
    out: &[PushOutcome],
    lanes_end: usize,
) -> Result<(), String> {
    let mut single = OnlineMonitor::new(scopes.to_vec());
    for (p, (op, o)) in ops.iter().zip(out).enumerate() {
        let refused = |l| !single.admits(op.txn, op.item, op.is_write(), l);
        let flags = |l| (o.breaches(l), refused(l));
        let pwsr = [AdmissionLevel::Pwsr, AdmissionLevel::PwsrDr].map(flags);
        let (breach, refusal) = flags(AdmissionLevel::Serializable);
        let fv = single.verdict().first_violation;
        let told = p < lanes_end && fv.is_some_and(|q| out[q.0].caused_violation);
        let wrong = if pwsr.iter().any(|(b, r)| b != r) {
            "a PWSR flag differs from the single writer's refusal"
        } else if o.caused_non_dr != read_while_running(&ops[..p], op.txn) {
            "caused_non_dr differs from the prefix's dirty reads"
        } else if breach && !refusal {
            "a Serializable breach where the single writer admits"
        } else if refusal && !breach && !told {
            "a Serializable refusal the push was not told of"
        } else {
            single.push(op.clone()).expect("recorded schedule is valid");
            continue;
        };
        return Err(format!("{wrong} at p@{p}: {o:?}"));
    }
    Ok(())
}

/// Per conjunct of a driver that recorded `s`: its Lemma 2 certificate
/// is the projection's serializability; the order it offers passes
/// [`verify`] on its live tail, and under that order the tail passes
/// the Lemma 2 inclusion sweep. Its Lemma 6 certificate is the Lemma 6
/// sweep under that order while nothing is swept; after a sweep it is
/// the sweep of all of `s` under the batch decider's order, and grants
/// nothing the tail refuses (a dirty read in the summarized prefix
/// withdrew it for good, which the tail alone cannot show).
pub fn check_lemmas_and_orders(s: &Schedule, scopes: &[ItemSet], state: &State) -> Checked {
    let State(_, tail, conjuncts) = state;
    for (k, (d, (order, lemma2, lemma6))) in scopes.iter().zip(conjuncts).enumerate() {
        let serializable = is_conflict_serializable_proj(s, d);
        prop_assert_eq!(*lemma2, serializable, "Lemma 2, scope {}", k);
        prop_assert_eq!(order.is_some(), serializable, "scope {} offers an order", k);
        let Some(order) = order else {
            prop_assert!(!lemma6, "Lemma 6 without an order, scope {}", k);
            continue;
        };
        let verified = verify(tail, Some(d), order);
        prop_assert_eq!(verified, Ok(()), "scope {} order {:?}", k, order);
        let [two, six] = [false, true].map(|dr| inclusion_holds_everywhere(tail, d, order, dr));
        prop_assert!(two, "Lemma 2 sweep under scope {}'s order", k);
        let want = match tail.base() {
            0 => six,
            _ => lemma6_batch(s, d),
        };
        prop_assert_eq!(*lemma6, want, "Lemma 6, scope {}", k);
        prop_assert!(six || !lemma6, "Lemma 6 on the tail, scope {}", k);
    }
    Ok(())
}

/// Push `txns`, interleaved by `mix`, one at a time into a fresh `D`
/// (`logged` or not). Given a `stride`, `D` sweeps after every
/// `stride`-th completed transaction and after the last push. Every
/// push passes [`Driver::push_checked`] and leaves the batch deciders'
/// verdict, and so does every sweep; every prefix — given a stride,
/// every prefix a sweep ends — passes [`check_lemmas_and_orders`];
/// every sweep reports exactly [`swept`], counts only if it reclaimed
/// something, and then lowers the resident estimate; summarized
/// transactions are sealed off. Returns `D` and the uncompacted single
/// writer that held each push's prefix.
pub fn check_pushes<D: Driver>(
    (scopes, txns): &(Vec<ItemSet>, Vec<Transaction>),
    mix: &[u8],
    stride: Option<usize>,
    logged: bool,
) -> Result<(D, OnlineMonitor), TestCaseError> {
    let schedule = Schedule::new(interleave_random(txns, mix)).expect("valid interleaving");
    let verdicts = batch_verdicts(&schedule, scopes);
    let mut m = D::start(scopes, logged);
    let mut single = OnlineMonitor::new(scopes.to_vec());
    let mut completed = 0usize;
    for (p, op) in schedule.ops().iter().enumerate() {
        m.push_checked(op, verdicts[p + 1], &single)?;
        single.push(op.clone()).expect("valid interleaving");
        let last = schedule.last_op_of(op.txn) == Some(OpIndex(p));
        completed += usize::from(last);
        // The last push completes a transaction too.
        let end = p + 1 == schedule.len();
        let sweep = last && stride.is_some_and(|n| end || completed.is_multiple_of(n));
        if last {
            let (compactions, ops, resident) = m.reclaimed();
            let base = m.state().1.base();
            if let Some(stats) = m.finish(op.txn, sweep) {
                let want = swept(&schedule, base, p + 1);
                prop_assert_eq!(stats, want, "sweep after prefix {}", p + 1);
                let moved = want.ops_reclaimed > 0;
                let (now_compactions, now_ops, now_resident) = m.reclaimed();
                prop_assert_eq!(now_compactions, compactions + u64::from(moved));
                prop_assert_eq!(now_ops, ops + want.ops_reclaimed as u64);
                prop_assert!(!moved || now_resident < resident, "resident estimate kept");
            }
        }
        let state = m.state();
        prop_assert_eq!(state.0, verdicts[p + 1], "prefix {}", p + 1);
        if sweep || stride.is_none() {
            check_lemmas_and_orders(&prefix(&schedule, p + 1), scopes, &state)?;
        }
    }
    for t in txns {
        prop_assert!(m.sealed(t.id()), "{:?} not sealed off", t.id());
    }
    Ok((m, single))
}

/// What a sweep of the first `len` operations of `s` must report when
/// every transaction that ended in them is finished and past the undo
/// floor, and `base` operations were summarized before: the longest
/// prefix that holds every operation of each transaction it touches is
/// the new frontier, and the transactions with an operation in
/// `[base, frontier)` are summarized.
fn swept(s: &Schedule, base: usize, len: usize) -> CompactStats {
    let (mut hi, mut frontier) = (0, base);
    for (p, op) in s.ops()[..len].iter().enumerate() {
        hi = hi.max(s.last_op_of(op.txn).expect("in s").0 + 1);
        if hi == p + 1 {
            frontier = frontier.max(p + 1);
        }
    }
    let txns: std::collections::HashSet<_> =
        s.ops()[base..frontier].iter().map(|o| o.txn).collect();
    CompactStats {
        frontier,
        ops_reclaimed: frontier - base,
        txns_summarized: txns.len(),
    }
}
