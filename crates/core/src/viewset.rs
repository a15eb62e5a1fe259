//! View sets `VS(T_i, p, d, S)` — Lemma 2 and Lemma 6.
//!
//! The *view set* of transaction `T_i` before operation `p` with respect
//! to data set `d` over-approximates the items `T_i` may have read
//! before `p`:
//!
//! * **Lemma 2** (general schedules): before `p`, a transaction can
//!   read all items except those written *after* `p` by transactions
//!   serialized before it:
//!   `VS(T_1) = d`, `VS(T_i) = VS(T_{i-1}) − WS(after(T^d_{i-1}, p, S))`.
//! * **Lemma 6** (DR schedules): items written by *incomplete*
//!   predecessors are excluded outright, but items written by
//!   *completed* predecessors are added back:
//!   `VS(T_i) = VS(T_{i-1}) − WS(T^d_{i-1})` if `after(T_{i-1}, p, S) ≠ ε`,
//!   `VS(T_i) = VS(T_{i-1}) ∪ WS(T^d_{i-1})` otherwise.
//!
//! Both lemmas assert `RS(before(T^d_i, p, S)) ⊆ VS(T_i, p, d, S)`; the
//! inclusion checkers below let tests and benches verify this on every
//! schedule prefix, which is exactly how the paper's operation-indexed
//! induction uses them.
//!
//! ## Hot path
//!
//! Every entry point reduces the schedule to four per-transaction
//! quantities (all projected to `d`): `RS(before)`, `WS(after)`,
//! `WS(T^d)` and whether the transaction has finished by `p`. They are
//! computed two ways. The per-position functions gather them in
//! **one** pass over the operation sequence, then run the recurrence as
//! the lemma states it. [`inclusion_holds_everywhere`] maintains them
//! **incrementally** while sweeping `p` (the
//! [`certify_prefix`](crate::monitor::OnlineMonitor::certify_prefix)
//! audit), so the full induction sweep is `O(n·|order|)` word
//! operations instead of `O(n²·|order|)` rescans.

use crate::ids::{OpIndex, TxnId};
use crate::schedule::Schedule;
use crate::state::ItemSet;
use std::collections::HashMap;

/// The per-transaction quantities (parallel to `order`, projected to
/// `d`) that both lemmas consume.
struct PerTxn {
    /// `RS(before(T_i^d, p, S))`.
    rs_before: Vec<ItemSet>,
    /// `WS(after(T_i^d, p, S))`.
    ws_after: Vec<ItemSet>,
    /// `WS(T_i^d)` (prefix ∪ suffix).
    ws_total: Vec<ItemSet>,
    /// `after(T_i, p, S) = ε` (over *all* items, not just `d`).
    finished: Vec<bool>,
}

impl PerTxn {
    fn with_len(n: usize) -> PerTxn {
        PerTxn {
            rs_before: vec![ItemSet::new(); n],
            ws_after: vec![ItemSet::new(); n],
            ws_total: vec![ItemSet::new(); n],
            finished: vec![true; n],
        }
    }

    /// Gather everything in a single scan of the operation sequence.
    fn by_scan(schedule: &Schedule, d: &ItemSet, order: &[TxnId], p: OpIndex) -> PerTxn {
        let mut out = PerTxn::with_len(order.len());
        let slot: HashMap<TxnId, usize> = order.iter().enumerate().map(|(k, &t)| (t, k)).collect();
        for (i, o) in schedule.ops().iter().enumerate() {
            let Some(&k) = slot.get(&o.txn) else {
                continue;
            };
            if i > p.0 {
                out.finished[k] = false;
            }
            if !d.contains(o.item) {
                continue;
            }
            if o.is_read() {
                if i <= p.0 {
                    out.rs_before[k].insert(o.item);
                }
            } else {
                out.ws_total[k].insert(o.item);
                if i > p.0 {
                    out.ws_after[k].insert(o.item);
                }
            }
        }
        out
    }
}

/// Lemma 2's recurrence over precomputed `WS(after)` sets.
fn fold_general(d: &ItemSet, ws_after: &[ItemSet]) -> Vec<ItemSet> {
    let mut out = Vec::with_capacity(ws_after.len());
    let mut current = d.clone();
    for (i, _) in ws_after.iter().enumerate() {
        if i > 0 {
            current.difference_with(&ws_after[i - 1]);
        }
        out.push(current.clone());
    }
    out
}

/// Lemma 6's recurrence over precomputed `WS(T^d)`/completion flags.
fn fold_dr(d: &ItemSet, ws_total: &[ItemSet], finished: &[bool]) -> Vec<ItemSet> {
    let mut out = Vec::with_capacity(ws_total.len());
    let mut current = d.clone();
    for i in 0..ws_total.len() {
        if i > 0 {
            if finished[i - 1] {
                current.union_with(&ws_total[i - 1]);
            } else {
                current.difference_with(&ws_total[i - 1]);
            }
        }
        out.push(current.clone());
    }
    out
}

/// Lemma 2's inclusion, checked against the running view set without
/// materializing the `Vec<ItemSet>`. `current` is caller-provided
/// scratch so sweeps stay allocation-free.
fn check_general(d: &ItemSet, per: &PerTxn, current: &mut ItemSet) -> bool {
    current.clone_from(d);
    for i in 0..per.rs_before.len() {
        if i > 0 {
            current.difference_with(&per.ws_after[i - 1]);
        }
        if !per.rs_before[i].is_subset(current) {
            return false;
        }
    }
    true
}

/// Lemma 6's inclusion, same shape.
fn check_dr(d: &ItemSet, per: &PerTxn, current: &mut ItemSet) -> bool {
    current.clone_from(d);
    for i in 0..per.rs_before.len() {
        if i > 0 {
            if per.finished[i - 1] {
                current.union_with(&per.ws_total[i - 1]);
            } else {
                current.difference_with(&per.ws_total[i - 1]);
            }
        }
        if !per.rs_before[i].is_subset(current) {
            return false;
        }
    }
    true
}

/// Lemma 2's view sets, one per transaction of `order` (a serialization
/// order of `S^d`), all relative to operation `p`.
pub fn view_sets_general(
    schedule: &Schedule,
    d: &ItemSet,
    order: &[TxnId],
    p: OpIndex,
) -> Vec<ItemSet> {
    let per = PerTxn::by_scan(schedule, d, order, p);
    fold_general(d, &per.ws_after)
}

/// Lemma 6's view sets for DR schedules.
pub fn view_sets_dr(schedule: &Schedule, d: &ItemSet, order: &[TxnId], p: OpIndex) -> Vec<ItemSet> {
    let per = PerTxn::by_scan(schedule, d, order, p);
    fold_dr(d, &per.ws_total, &per.finished)
}

/// Check Lemma 2's inclusion `RS(before(T^d_i, p, S)) ⊆ VS(T_i, p, d, S)`
/// for every transaction in `order`, at operation `p`.
pub fn lemma2_inclusion_holds(
    schedule: &Schedule,
    d: &ItemSet,
    order: &[TxnId],
    p: OpIndex,
) -> bool {
    let mut current = ItemSet::new();
    check_general(d, &PerTxn::by_scan(schedule, d, order, p), &mut current)
}

/// Check Lemma 6's inclusion for DR schedules at operation `p`.
pub fn lemma6_inclusion_holds(
    schedule: &Schedule,
    d: &ItemSet,
    order: &[TxnId],
    p: OpIndex,
) -> bool {
    let mut current = ItemSet::new();
    check_dr(d, &PerTxn::by_scan(schedule, d, order, p), &mut current)
}

/// Check a lemma's inclusion at **every** operation of the schedule —
/// the full sweep the induction performs.
///
/// The per-transaction sets are maintained incrementally while `p`
/// advances: each operation moves exactly one item between a
/// before/after set, so the whole sweep costs `O(n·|order|)` word
/// operations rather than `O(n²·|order|)` rescans.
pub fn inclusion_holds_everywhere(
    schedule: &Schedule,
    d: &ItemSet,
    order: &[TxnId],
    dr: bool,
) -> bool {
    let n = order.len();
    let slot: HashMap<TxnId, usize> = order.iter().enumerate().map(|(k, &t)| (t, k)).collect();
    // Initial state "before position 0": nothing read yet, everything
    // still ahead.
    let mut per = PerTxn::with_len(n);
    let mut last_pos: Vec<Option<usize>> = vec![None; n];
    for (i, o) in schedule.ops().iter().enumerate() {
        if let Some(&k) = slot.get(&o.txn) {
            last_pos[k] = Some(i);
            // Transactions that never appear keep finished = true.
            per.finished[k] = false;
            if o.is_write() && d.contains(o.item) {
                per.ws_total[k].insert(o.item);
                per.ws_after[k].insert(o.item);
            }
        }
    }
    let mut current = ItemSet::new();
    for (i, o) in schedule.ops().iter().enumerate() {
        // Move the operation at position i into `before(·, p=i, S)`.
        if let Some(&k) = slot.get(&o.txn) {
            if d.contains(o.item) {
                if o.is_read() {
                    per.rs_before[k].insert(o.item);
                } else {
                    per.ws_after[k].remove(o.item);
                }
            }
            if last_pos[k] == Some(i) {
                per.finished[k] = true;
            }
        }
        let ok = if dr {
            check_dr(d, &per, &mut current)
        } else {
            check_general(d, &per, &mut current)
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ItemId;
    use crate::op::Operation;
    use crate::pwsr::is_pwsr;
    use crate::serializability::serialization_order;
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    /// Example 2's schedule, d1 = {a,b} (items 0,1), d2 = {c} (item 2).
    fn example2() -> Schedule {
        Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ])
        .unwrap()
    }

    #[test]
    fn lemma2_base_case_is_d() {
        let s = example2();
        let d = ItemSet::from_iter([ItemId(0), ItemId(1)]);
        let vs = view_sets_general(&s, &d, &[TxnId(1), TxnId(2)], OpIndex(0));
        assert_eq!(vs[0], d);
    }

    #[test]
    fn lemma2_excludes_items_written_after_p() {
        // d = {a, b}; serialization order of S^{d1} is T1, T2.
        // At p = position 0 (w1(a,1)): T1 writes nothing in d after p
        // (w1(a) is at p itself, `after` is strict) … so VS(T2) = d.
        let s = example2();
        let d = ItemSet::from_iter([ItemId(0), ItemId(1)]);
        let vs = view_sets_general(&s, &d, &[TxnId(1), TxnId(2)], OpIndex(0));
        assert_eq!(vs[1], d);

        // For a variant where T1's write of a comes *after* p, VS(T2)
        // must exclude a.
        let s2 = Schedule::new(vec![
            rd(1, 2, 1), // p here
            wr(1, 0, 1), // T1 writes a after p
            rd(2, 0, 1),
            rd(2, 1, -1),
        ])
        .unwrap();
        let vs = view_sets_general(&s2, &d, &[TxnId(1), TxnId(2)], OpIndex(0));
        assert_eq!(vs[0], d);
        assert!(!vs[1].contains(ItemId(0)));
        assert!(vs[1].contains(ItemId(1)));
    }

    #[test]
    fn lemma2_inclusion_on_example2_projections() {
        // Lemma 2 holds per conjunct on Example 2's schedule (the lemma
        // is unconditional given serializability of the projection).
        use crate::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
        let (a, b, c) = (ItemId(0), ItemId(1), ItemId(2));
        let ic = IntegrityConstraint::new(vec![
            Conjunct::new(
                0,
                Formula::implies(
                    Formula::gt(Term::var(a), Term::int(0)),
                    Formula::gt(Term::var(b), Term::int(0)),
                ),
            ),
            Conjunct::new(1, Formula::gt(Term::var(c), Term::int(0))),
        ])
        .unwrap();
        let s = example2();
        let report = is_pwsr(&s, &ic);
        assert!(report.ok());
        for (conj, verdict) in ic.conjuncts().iter().zip(&report.per_conjunct) {
            let order = verdict.order.clone().unwrap();
            assert!(inclusion_holds_everywhere(&s, conj.items(), &order, false));
        }
    }

    #[test]
    fn lemma6_completed_predecessor_items_are_added_back() {
        // DR schedule: T1 finishes, then T2 reads T1's write.
        let s = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2)]).unwrap();
        assert!(crate::dr::is_delayed_read(&s));
        let d = ItemSet::from_iter([ItemId(0), ItemId(1)]);
        let order = serialization_order(&s).unwrap();
        assert_eq!(order, vec![TxnId(1), TxnId(2)]);
        // At p = position 1 (the read), T1 is finished: VS(T2) ⊇ {a}.
        let vs = view_sets_dr(&s, &d, &order, OpIndex(1));
        assert!(vs[1].contains(ItemId(0)));
        assert!(lemma6_inclusion_holds(&s, &d, &order, OpIndex(1)));
    }

    #[test]
    fn lemma6_incomplete_predecessor_items_are_removed() {
        // T1 writes a but is NOT finished at p: VS(T2) excludes a.
        let s = Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 1, 0), // p = here; T1 still has an op coming
            wr(1, 1, 9),
        ])
        .unwrap();
        let d = ItemSet::from_iter([ItemId(0), ItemId(1)]);
        let vs = view_sets_dr(&s, &d, &[TxnId(1), TxnId(2)], OpIndex(1));
        assert!(!vs[1].contains(ItemId(0)));
    }

    #[test]
    fn dr_viewset_at_least_general_after_completion() {
        // Once every earlier transaction has finished, Lemma 6's set is
        // a superset of Lemma 2's (writes get added back).
        let s = Schedule::new(vec![wr(1, 0, 1), rd(1, 1, 0), rd(2, 0, 1), wr(2, 1, 2)]).unwrap();
        assert!(crate::dr::is_delayed_read(&s));
        let d = ItemSet::from_iter([ItemId(0), ItemId(1)]);
        let order = vec![TxnId(1), TxnId(2)];
        let p = OpIndex(3);
        let gen = view_sets_general(&s, &d, &order, p);
        let drv = view_sets_dr(&s, &d, &order, p);
        for (g, v) in gen.iter().zip(&drv) {
            assert!(g.is_subset(v), "general {g:?} ⊄ dr {v:?}");
        }
    }

    #[test]
    fn inclusion_sweep_on_serial_schedule() {
        let s = Schedule::new(vec![wr(1, 0, 1), wr(2, 0, 2), rd(3, 0, 2)]).unwrap();
        let d = ItemSet::from_iter([ItemId(0)]);
        let order = serialization_order(&s).unwrap();
        assert!(inclusion_holds_everywhere(&s, &d, &order, false));
        assert!(inclusion_holds_everywhere(&s, &d, &order, true));
    }

    #[test]
    fn incremental_sweep_matches_per_p_checks() {
        let s = example2();
        let d = ItemSet::from_iter([ItemId(0), ItemId(1)]);
        for order in [vec![TxnId(1), TxnId(2)], vec![TxnId(2), TxnId(1)]] {
            for dr in [false, true] {
                let per_p = s.positions().all(|p| {
                    if dr {
                        lemma6_inclusion_holds(&s, &d, &order, p)
                    } else {
                        lemma2_inclusion_holds(&s, &d, &order, p)
                    }
                });
                assert_eq!(inclusion_holds_everywhere(&s, &d, &order, dr), per_p);
            }
        }
    }
}
