//! # pwsr-bench — the shape experiments
//!
//! One module per experiment family from `EXPERIMENTS.md`'s index; each
//! experiment returns whether its outcome has the shape the paper
//! predicts, plus a printable table, so the `experiments` binary can
//! regenerate every example, figure and theorem of the paper (see
//! `EXPERIMENTS.md` for the paper-vs-measured record). Nothing here
//! reads a clock: how fast the certified path runs is measured by the
//! repository benchmark (`benchmark/`).

pub mod analysis_exp;
pub mod bank_exp;
pub mod base_exp;
pub mod chaos_exp;
pub mod compact_exp;
pub mod examples_exp;
pub mod exhaustive_exp;
pub mod lemmas_exp;
pub mod monitor_exp;
pub mod perf_exp;
pub mod recovery_exp;
mod report;
pub mod theorems_exp;
