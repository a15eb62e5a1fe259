//! # pwsr-gen — workload generation
//!
//! Experiments need three kinds of raw material:
//!
//! * **Constraints** ([`constraints`]) — random integrity constraints in
//!   the paper's normal form (disjoint conjuncts), with shapes for
//!   which provably-correct transaction templates exist, plus a
//!   consistent initial state.
//! * **Programs** ([`templates`], [`gadgets`]) — transaction programs
//!   that are correct in isolation: chain-preserving templates
//!   (optionally reading across conjuncts, optionally fixed-structure)
//!   and the paper's Example-2 "violation gadget", which is correct in
//!   isolation yet breaks consistency under the right PWSR
//!   interleaving.
//! * **Executions** ([`chaos`]) — unconstrained interleavings of
//!   program mixes from one stepping loop: seeded random executions for
//!   sampling, and full enumeration of small instances by replay (used
//!   to count which interleavings each criterion admits).
//!
//! [`workloads`] assembles these into the scenario families the paper
//! motivates: CAD long transactions, course registration (§2.3) and
//! multidatabases (§4). [`workloads::random_workload`] is the
//! randomized harness input used by the THM-1/2/3 experiments.

pub mod chaos;
pub mod constraints;
pub mod gadgets;
pub mod templates;
pub mod workloads;
