//! # pwsr-baselines — the correctness criteria the paper compares with
//!
//! * [`setwise`] — *setwise serializability* over atomic data sets
//!   (Sha, Lehoczky, Jensen \[14\]), the paper's primary comparator. The
//!   criterion coincides with PWSR when the atomic data sets are the
//!   conjunct scopes; \[14\] claims consistency for *straight-line*
//!   transactions, and its per-set induction gap (diagnosed in §3.1)
//!   is exhibited here as executable checks.
//! * [`degree2`] — degree-2 consistency / cursor stability, the §4
//!   example of an "operationally defined, ad-hoc" criterion; shown to
//!   admit consistency violations (write skew) that PWSR-with-
//!   restrictions rules out.

pub mod degree2;
pub mod setwise;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::degree2::satisfies_degree2;
    pub use crate::setwise::{is_setwise_serializable, AtomicDataSets};
}
