//! # pwsr-core — the formal model of *predicate-wise serializability*
//!
//! This crate implements, as an executable library, the full formalism of
//! Rastogi, Mehrotra, Breitbart, Korth and Silberschatz,
//! *"On Correctness of Nonserializable Executions"* (PODS 1993; JCSS 56,
//! 68–82, 1998):
//!
//! * **Database model** (§2.1): data items with finite domains, partial
//!   database states as variable assignments, the conflict-detecting union
//!   `⊔`, restrictions `DS^d`, and consistency of restrictions defined by
//!   extension-existence ([`state`], [`solver`]).
//! * **Integrity constraints** (§2.1): quantifier-free first-order
//!   formulae over data items, kept as a conjunction `C_1 ∧ … ∧ C_l` of
//!   conjuncts over (ideally disjoint) data sets ([`constraint`]).
//! * **Transactions and schedules** (§2.2): operations carry the *value*
//!   attribute the paper adds to the classical model, plus the derived
//!   notions `RS`, `WS`, `read`, `write`, projections `S^d`,
//!   `before`/`after`, and `depth` ([`op`], [`txn`], [`schedule`]).
//! * **Correctness criteria**: conflict/view serializability
//!   ([`serializability`]), PWSR (Definition 2, [`pwsr`]), strong
//!   correctness (Definition 1, [`strong`]), delayed-read and ACA
//!   schedules (Definition 5, [`dr`]), and the data access graph of §3.3
//!   ([`dag`]).
//! * **Proof artifacts as values**: the view sets of Lemmas 2 and 6
//!   ([`viewset`]) and the per-transaction states of Definition 4
//!   ([`txstate`]) are first-class, so the paper's operation-indexed
//!   induction can be *checked* on any schedule.
//! * **Theorems 1–3** as a verdict engine ([`theorems`]).
//! * **Online certification** ([`monitor`]): a growing indexed schedule
//!   whose serializability / PWSR / delayed-read verdicts and Lemma 2/6
//!   certificates are maintained incrementally per appended operation,
//!   with admission-time rejection of verdict-breaking operations, an
//!   undo-log for `O(ops undone)` abort re-sync, live Theorem 1/3
//!   hypotheses, and a sharded concurrent variant
//!   ([`monitor::sharded`]) that certifies under real OS-thread
//!   parallelism.
//!
//! The crate is deliberately minimal — its only dependency is the
//! workspace's vendored `parking_lot` stand-in (the sharded monitor's
//! locks) — so that the substrate crates (`pwsr-tplang`,
//! `pwsr-scheduler`, …) can build on a small, well-tested kernel.
//!
//! ## Quick start
//!
//! ```
//! use pwsr_core::prelude::*;
//!
//! // Database {a, b, c} with IC = (a>0 → b>0) ∧ (c>0)  — paper Example 2.
//! let mut catalog = Catalog::new();
//! let a = catalog.add_item("a", Domain::int_range(-10, 10));
//! let b = catalog.add_item("b", Domain::int_range(-10, 10));
//! let c = catalog.add_item("c", Domain::int_range(-10, 10));
//! let ic = IntegrityConstraint::new(vec![
//!     Conjunct::new(0, Formula::implies(
//!         Formula::gt(Term::var(a), Term::int(0)),
//!         Formula::gt(Term::var(b), Term::int(0)),
//!     )),
//!     Conjunct::new(1, Formula::gt(Term::var(c), Term::int(0))),
//! ]).unwrap();
//! assert!(ic.is_disjoint());
//!
//! // The schedule of Example 2: PWSR but not strongly correct.
//! let t1 = TxnId(1);
//! let t2 = TxnId(2);
//! let s = Schedule::new(vec![
//!     Operation::write(t1, a, Value::Int(1)),
//!     Operation::read(t2, a, Value::Int(1)),
//!     Operation::read(t2, b, Value::Int(-1)),
//!     Operation::write(t2, c, Value::Int(-1)),
//!     Operation::read(t1, c, Value::Int(-1)),
//! ]).unwrap();
//!
//! assert!(is_pwsr(&s, &ic).ok());          // each projection serializable
//! assert!(!is_conflict_serializable(&s));  // but S itself is not
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod constraint;
pub mod dag;
pub mod dr;
pub mod error;
pub mod graph;
pub mod history;
pub mod ids;
pub mod index;
pub mod monitor;
pub mod notation;
pub mod op;
pub mod pwsr;
pub mod schedule;
pub mod serializability;
pub mod solver;
pub mod state;
pub mod strong;
pub mod theorems;
pub mod txn;
pub mod txstate;
pub mod value;
pub mod viewset;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::catalog::Catalog;
    pub use crate::constraint::{Conjunct, Formula, IntegrityConstraint, Term};
    pub use crate::dag::{data_access_graph, DataAccessGraph};
    pub use crate::dr::{is_aca, is_delayed_read, is_strict, RecoveryClass};
    pub use crate::error::CoreError;
    pub use crate::history::{Event, History, HistoryClass, Outcome};
    pub use crate::ids::{ConjunctId, ItemId, OpIndex, TxnId};
    pub use crate::index::ScheduleIndex;
    pub use crate::monitor::{AdmissionLevel, OnlineMonitor, VerdictLevel};
    pub use crate::notation::{parse_history, parse_schedule};
    pub use crate::op::{Action, OpStruct, Operation};
    pub use crate::pwsr::{is_pwsr, PwsrReport};
    pub use crate::schedule::Schedule;
    pub use crate::serializability::{
        is_conflict_serializable, is_conflict_serializable_proj, is_view_serializable,
        precedence_graph, serialization_order, serialization_order_proj,
    };
    pub use crate::solver::Solver;
    pub use crate::state::{DbState, ItemSet};
    pub use crate::strong::{check_strong_correctness, StrongReport};
    pub use crate::theorems::{classify, Guarantee, ProgramTraits, Verdict};
    pub use crate::txn::Transaction;
    pub use crate::txstate::transaction_states;
    pub use crate::value::{Domain, Value};
    pub use crate::viewset::{view_sets_dr, view_sets_general};
}
