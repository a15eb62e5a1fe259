//! The five workloads. Names are fixed: later changes are compared by
//! them.

pub mod occ;
pub mod recover;
pub mod stream;
