//! The retraction contract, as one sequential property both drivers
//! of the certifier are held to — no threads.
//!
//! *For any interleaving of pushes and retractions in which every
//! transaction that was told its push would not have been admitted is
//! eventually retracted, the quiescent verdict meets the admission
//! level, and the monitor equals a fresh replay of the operations that
//! survived.* This is non-interference stated for the certifier: an
//! aborted transaction may not change what the committed ones are
//! certified against. A parity suite cannot see a breach of it — the
//! two drivers share one set of stage code and would share the flaw —
//! so the oracle here is the contract itself plus a monitor that never
//! saw the aborted operations at all.
//!
//! "Told" is the driver's own word for it: the sharded driver's
//! [`PushOutcome::breaches`], the single writer's
//! [`OnlineMonitor::admits`] taken just before the push. The two run
//! in lockstep on the same actions, so the property also holds them to
//! each other: the same pushes are told, a retraction costs the same.
//!
//! Each driver also journals what it applies, and at quiescence its
//! journal, replayed into a fresh single writer, must rebuild that
//! driver's schedule and verdict. The streams need not agree: the
//! single writer retracts a set in one truncation, the pipeline one
//! victim at a time.
//!
//! [`PushOutcome::breaches`]: pwsr_core::monitor::sharded::PushOutcome::breaches

mod common;

use common::{arb_transactions, MAX_ITEMS};
use parking_lot::Mutex;
use proptest::prelude::*;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::journal::MonitorJournal;
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::{AdmissionLevel, OnlineMonitor};
use pwsr_core::op::Operation;
use pwsr_core::serializability::precedence_graph_proj;
use pwsr_core::state::ItemSet;
use pwsr_core::txn::Transaction;
use std::sync::Arc;

/// `n` scopes carved out of the item universe: item `i` belongs to
/// conjunct `assign[i]`, or to none when that is `n` or more.
fn scopes_from_assignment(n: usize, assign: &[u8]) -> Vec<ItemSet> {
    (0..n)
        .map(|k| {
            (0..MAX_ITEMS)
                .filter(|&i| assign[i as usize] as usize == k)
                .map(ItemId)
                .collect()
        })
        .collect()
}

/// One journal call, as a driver made it.
#[derive(Debug)]
enum Heard {
    Op(Operation),
    Batch(Vec<Operation>),
    Truncate(usize),
}

/// A journal that keeps what it hears where the test can read it.
#[derive(Clone, Debug, Default)]
struct Recorder(Arc<Mutex<Vec<Heard>>>);

impl Recorder {
    fn hear(&self, heard: Heard) {
        self.0.lock().push(heard);
    }

    /// What was heard, replayed into a fresh single writer.
    fn replay(&self, scopes: &[ItemSet]) -> OnlineMonitor {
        let mut m = OnlineMonitor::new(scopes.to_vec());
        for heard in self.0.lock().iter() {
            match heard {
                Heard::Op(op) => drop(m.push_logged(op.clone()).expect("journaled op")),
                Heard::Batch(ops) => drop(m.push_batch_logged(ops).expect("journaled run")),
                Heard::Truncate(n) => drop(m.truncate_to(*n)),
            }
        }
        m
    }
}

impl MonitorJournal for Recorder {
    fn appended(&mut self, op: &Operation) {
        self.hear(Heard::Op(op.clone()));
    }

    fn appended_batch(&mut self, ops: &[Operation]) {
        self.hear(Heard::Batch(ops.to_vec()));
    }

    fn truncated(&mut self, new_len: usize) {
        self.hear(Heard::Truncate(new_len));
    }

    fn floor_raised(&mut self, _: usize) {
        unreachable!("the run never checkpoints");
    }
}

/// How often a transaction is restarted after a retraction before it
/// gives up for good (so every run ends).
const LIVES: u8 = 2;

/// The two drivers in lockstep, the operations that survive, and where
/// every transaction stands.
struct Run<'a> {
    txns: &'a [Transaction],
    level: AdmissionLevel,
    sharded: ShardedMonitor,
    single: OnlineMonitor,
    /// What each driver journaled.
    sharded_heard: Recorder,
    single_heard: Recorder,
    /// The surviving operations, in order: what a fresh monitor is fed.
    live: Vec<Operation>,
    /// Per transaction: operations pushed in its current attempt.
    cursor: Vec<usize>,
    lives: Vec<u8>,
    /// Told and not yet retracted; such a transaction pushes no more.
    told: Vec<TxnId>,
}

impl Run<'_> {
    fn ix(txn: TxnId) -> usize {
        txn.0 as usize - 1
    }

    fn running(&self, k: usize) -> bool {
        self.lives[k] > 0 && self.cursor[k] < self.txns[k].len()
    }

    /// The next operation of transaction `k`, if it may push one now.
    /// At `PwsrDr` that excludes a read of an item whose latest writer
    /// is another transaction not yet finished — still running, or told
    /// and waiting to be retracted: it is the precondition
    /// `retract_txn` states for a DR-sensitive floor (the executor
    /// keeps written items dirty until their writer commits). Without
    /// it a re-push may hand such a read to an earlier writer and mint
    /// a delayed-read break that no push was ever told of.
    fn next_op(&self, k: usize) -> Option<&Operation> {
        let txn = self.txns[k].id();
        if !self.running(k) || self.told.contains(&txn) {
            return None;
        }
        let op = &self.txns[k].ops()[self.cursor[k]];
        if self.level == AdmissionLevel::PwsrDr && op.is_read() {
            let writer = self
                .live
                .iter()
                .rev()
                .find(|w| w.is_write() && w.item == op.item)
                .map(|w| w.txn);
            let unfinished = |w: TxnId| self.running(Self::ix(w)) || self.told.contains(&w);
            if writer.is_some_and(|w| w != txn && unfinished(w)) {
                return None;
            }
        }
        Some(op)
    }

    /// Push `k`'s next operation through both drivers; both must say
    /// the same about whether it would have been admitted.
    fn push(&mut self, k: usize) -> Result<(), TestCaseError> {
        let op = self.next_op(k).expect("chosen because it can push").clone();
        let refused = !self
            .single
            .admits(op.txn, op.item, op.is_write(), self.level);
        self.single.push_logged(op.clone()).expect("§2.2-valid");
        let outcome = self.sharded.push_outcome(op.clone()).expect("§2.2-valid");
        prop_assert_eq!(
            outcome.breaches(self.level),
            refused,
            "{:?} at {:?}: {:?}",
            op,
            self.level,
            outcome
        );
        if refused {
            self.told.push(op.txn);
        }
        self.live.push(op);
        self.cursor[k] += 1;
        Ok(())
    }

    /// Retract `victims` — one call on the single writer, one per
    /// victim on the pipeline — and restart them.
    fn retract(&mut self, victims: &[TxnId]) -> Result<(), TestCaseError> {
        let one = self.single.retract_txns(victims).expect("never summarized");
        let mut each = (0, 0);
        for &v in victims {
            each = self.sharded.retract_txn(v).expect("never summarized");
        }
        if victims.len() == 1 {
            prop_assert_eq!(one, each, "retracting {:?} cost differently", victims);
        }
        self.live.retain(|o| !victims.contains(&o.txn));
        self.told.retain(|t| !victims.contains(t));
        for &v in victims {
            self.cursor[Self::ix(v)] = 0;
            self.lives[Self::ix(v)] -= 1;
        }
        Ok(())
    }

    /// Quiescence: nobody told is left. The verdict meets the level,
    /// both drivers equal a monitor that only ever saw `live`, and
    /// each driver's journal replays to that driver.
    fn check_quiescent(&self) -> Result<(), TestCaseError> {
        prop_assert!(self.told.is_empty());
        let mut fresh = OnlineMonitor::new(self.single.scopes().to_vec());
        for op in &self.live {
            fresh
                .push_logged(op.clone())
                .expect("survivors are §2.2-valid");
        }
        let replay = self.single_heard.replay(fresh.scopes());
        prop_assert_eq!(
            replay.schedule(),
            self.single.schedule(),
            "single writer's journal"
        );
        prop_assert_eq!(replay.verdict(), self.single.verdict());
        let replay = self.sharded_heard.replay(fresh.scopes());
        prop_assert_eq!(
            replay.schedule(),
            &self.sharded.snapshot_schedule(),
            "pipeline's journal"
        );
        prop_assert_eq!(replay.verdict(), self.sharded.verdict());
        let v = fresh.verdict();
        prop_assert!(v.meets(self.level), "{:?} below {:?}", v, self.level);
        prop_assert_eq!(self.single.verdict(), v, "single writer vs fresh replay");
        prop_assert_eq!(self.sharded.verdict(), v, "pipeline vs fresh replay");
        prop_assert_eq!(self.single.schedule(), fresh.schedule());
        prop_assert_eq!(&self.sharded.snapshot_schedule(), fresh.schedule());
        prop_assert_eq!(self.single.log_floor(), fresh.log_floor());
        prop_assert_eq!(self.sharded.log_floor(), fresh.log_floor());
        prop_assert_eq!(self.sharded.floor(), v.level, "lock-free floor");
        for (k, d) in fresh.scopes().iter().enumerate() {
            let lemmas = (fresh.lemma2_holds(k), fresh.lemma6_holds(k));
            prop_assert_eq!(
                (self.single.lemma2_holds(k), self.single.lemma6_holds(k)),
                lemmas
            );
            prop_assert_eq!(
                (self.sharded.lemma2_holds(k), self.sharded.lemma6_holds(k)),
                lemmas
            );
            prop_assert_eq!(
                self.single.conjunct_first_cycle(k),
                fresh.conjunct_first_cycle(k)
            );
            // Undo keeps the Pearce–Kelly order it has (it satisfies a
            // superset of the surviving constraints), so the maintained
            // order need not be the one a fresh replay arrives at; it
            // must be *a* serialization order of the same projection.
            let order = self.single.conjunct_order(k);
            prop_assert_eq!(order.is_some(), fresh.conjunct_order(k).is_some());
            if let Some(order) = order {
                let (g, proj_txns) = precedence_graph_proj(fresh.schedule(), d);
                prop_assert_eq!(order.len(), fresh.conjunct_order(k).unwrap().len());
                let pos = |t: TxnId| order.iter().position(|&x| x == t).unwrap();
                for (u, w) in g.edges() {
                    prop_assert!(pos(proj_txns[u]) < pos(proj_txns[w]), "scope {}", k);
                }
            }
        }
        prop_assert_eq!(
            self.single.serialization_order().is_some(),
            fresh.serialization_order().is_some()
        );
        prop_assert!(
            self.single.certify_prefix(),
            "Lemma 2/6 audit after retraction"
        );
        Ok(())
    }
}

proptest! {
    /// Random interleavings of well-formed pushes and retractions over
    /// 3–6 transactions and 1–3 conjuncts, at every admission level.
    /// Each step either retracts someone who was told — one of them,
    /// or all of them in one call on the single writer — or pushes the
    /// next operation of a transaction that may push; a transaction
    /// that was told stops pushing until it has been retracted, then
    /// starts over. When the steps run out, whoever is still told is
    /// retracted, and the quiescent state is checked; it is checked on
    /// the way too, whenever a retraction leaves nobody told.
    #[test]
    fn told_transactions_retracted_leaves_a_certified_replay(
        all_txns in arb_transactions(6),
        n_txns in 3usize..=6,
        n_scopes in 1usize..=3,
        assign in proptest::collection::vec(0u8..4, MAX_ITEMS as usize),
        steps in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..96),
    ) {
        let txns = &all_txns[..n_txns];
        let scopes = scopes_from_assignment(n_scopes, &assign);
        for level in [
            AdmissionLevel::Serializable,
            AdmissionLevel::Pwsr,
            AdmissionLevel::PwsrDr,
        ] {
            let (sharded_heard, single_heard) = (Recorder::default(), Recorder::default());
            let mut run = Run {
                txns,
                level,
                sharded: ShardedMonitor::new_logged(scopes.clone())
                    .with_journal(Box::new(sharded_heard.clone())),
                single: OnlineMonitor::new(scopes.clone())
                    .with_journal(Box::new(single_heard.clone())),
                sharded_heard,
                single_heard,
                live: Vec::new(),
                cursor: vec![0; n_txns],
                lives: vec![LIVES; n_txns],
                told: Vec::new(),
            };
            for &(what, who) in &steps {
                let who = who as usize;
                let pushable = (0..n_txns)
                    .map(|off| (who + off) % n_txns)
                    .find(|&k| run.next_op(k).is_some());
                match pushable {
                    Some(k) if run.told.is_empty() || what % 4 != 0 => run.push(k)?,
                    _ if !run.told.is_empty() => {
                        let victims = if what % 16 == 0 {
                            run.told.clone()
                        } else {
                            vec![run.told[who % run.told.len()]]
                        };
                        run.retract(&victims)?;
                        if run.told.is_empty() {
                            run.check_quiescent()?;
                        }
                    }
                    // Nobody may push and nobody was told: at `PwsrDr`
                    // the running transactions wait on each other's
                    // writes. One of them gives up, as a deadlock
                    // victim would.
                    _ => match (0..n_txns).find(|&k| run.running(k)) {
                        Some(k) => run.retract(&[txns[k].id()])?,
                        None => break,
                    },
                }
            }
            while let Some(&victim) = run.told.last() {
                run.retract(&[victim])?;
            }
            run.check_quiescent()?;
        }
    }
}
