//! Deterministic fault injection — the chaos plane.
//!
//! A [`FaultPlan`] is a finite map from *fault points* to faults. WAL
//! points are keyed by `(site, invocation index)` — the k-th append,
//! sync, or rotation since the plan was armed — and executor points by
//! `(transaction, access index within its current attempt)`. Both
//! keyings are functions of the workload, not of thread timing, so a
//! faulted run replays exactly: the same plan against the same seed
//! fires the same faults at the same logical instants, no matter how
//! the OS schedules the worker threads.
//!
//! A WAL invocation is one *attempt* at its site: the first, and every
//! re-attempt the WAL's error policy makes after a failure (a retry, or
//! the one attempt on memory after degrading). A failed append retried
//! twice therefore consumes three append indices.
//!
//! Each point fires **at most once** (firing consumes it). Without
//! this, a stall registered at `(txn 3, access 1)` would re-fire on
//! every retry of transaction 3 and livelock the executor; with it, a
//! fault means "the k-th occurrence of this event misbehaves once",
//! which is also what real transient faults look like.
//!
//! The plan is cheap to consult (one atomic bump plus a hash lookup
//! under an uncontended mutex) and is threaded through the system as a
//! [`FaultHandle`] (`Arc<FaultPlan>`): the WAL holds one beneath its
//! sink, the OCC executor holds one beside its tuning knobs, and the
//! chaos harness holds a third clone to assert afterwards that every
//! registered point actually fired ([`FaultPlan::remaining`] == 0) and
//! count what was injected ([`FaultPlan::injected`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A fault injected beneath the WAL sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalFault {
    /// The write persists only `keep` bytes of the frame (clamped to
    /// at least one byte short of complete), then reports an error —
    /// a torn write caught in the act.
    ShortWrite {
        /// Bytes of the frame that reach the sink before the error.
        keep: usize,
    },
    /// The durability barrier (`fsync`) reports an I/O error; bytes
    /// already written are unaffected.
    SyncFail,
    /// The checkpoint rotation (`Wal::restart`) fails before touching
    /// the log.
    RotateFail,
}

/// Where in the WAL a fault point sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WalSite {
    /// `Wal::append` — indexed by frame-write attempt.
    Append,
    /// `Wal::sync` — indexed by durability-barrier attempt.
    Sync,
    /// `Wal::restart` — indexed by rotation attempt.
    Rotate,
}

/// A fault injected into an executor worker at one access of one
/// transaction's attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecFault {
    /// Sleep `ms` milliseconds after the access completes, holding
    /// whatever dirty items the transaction has published — the
    /// stalled-writer scenario the zombie reaper exists for.
    Stall {
        /// Milliseconds to sleep.
        ms: u64,
    },
    /// Panic after the access completes, outside every latch.
    Panic,
    /// Panic while holding the stripe latch, before the access mutates
    /// store or monitor — exercises lock poisoning and in-latch unwind.
    PanicInStripe,
}

/// A seeded, schedule-driven map from deterministic fault points to
/// faults. See the [module docs](self) for the keying discipline.
#[derive(Default)]
pub struct FaultPlan {
    wal: Mutex<HashMap<(WalSite, u64), WalFault>>,
    exec: Mutex<HashMap<(u32, u32), ExecFault>>,
    append_seen: AtomicU64,
    sync_seen: AtomicU64,
    rotate_seen: AtomicU64,
    injected: AtomicU64,
}

/// Shared handle to a [`FaultPlan`]; clones observe the same points
/// and counters.
pub type FaultHandle = Arc<FaultPlan>;

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("wal_points", &self.wal.lock().len())
            .field("exec_points", &self.exec.lock().len())
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish()
    }
}

impl FaultPlan {
    /// An empty plan (no faults fire until points are registered).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Register a WAL fault at the `nth` invocation of `site`
    /// (0-based). Builder-style.
    pub fn on_wal(self, site: WalSite, nth: u64, fault: WalFault) -> FaultPlan {
        self.wal.lock().insert((site, nth), fault);
        self
    }

    /// Register an executor fault at access `access` (0-based, within
    /// the attempt) of transaction `txn`. Builder-style.
    pub fn on_access(self, txn: u32, access: u32, fault: ExecFault) -> FaultPlan {
        self.exec.lock().insert((txn, access), fault);
        self
    }

    /// Finish building: wrap in the shared handle the WAL and the
    /// executors take.
    pub fn share(self) -> FaultHandle {
        Arc::new(self)
    }

    /// Consult-and-consume the fault point for the next invocation of
    /// `site`. Called by the WAL on every append/sync/rotate attempt; each
    /// call advances the site's invocation counter whether or not a
    /// point fires.
    pub fn fire_wal(&self, site: WalSite) -> Option<WalFault> {
        let counter = match site {
            WalSite::Append => &self.append_seen,
            WalSite::Sync => &self.sync_seen,
            WalSite::Rotate => &self.rotate_seen,
        };
        let idx = counter.fetch_add(1, Ordering::Relaxed);
        let fault = self.wal.lock().remove(&(site, idx));
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Consult-and-consume the fault point for access `access` of
    /// transaction `txn`'s current attempt.
    pub fn fire_exec(&self, txn: u32, access: u32) -> Option<ExecFault> {
        let fault = self.exec.lock().remove(&(txn, access));
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Registered points that have not fired. A chaos harness asserts
    /// this is zero after the run: a fault that never fired means the
    /// sweep mis-predicted an invocation index and tested nothing.
    pub fn remaining(&self) -> usize {
        self.wal.lock().len() + self.exec.lock().len()
    }
}

/// SplitMix64: the `index`-th deterministic 64-bit choice derived from
/// `seed`. The chaos sweep derives every fault parameter (site index,
/// victim transaction, stall length, short-write cut) through this, so
/// a fault point is a pure function of `(seed, index)`.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_fire_once_at_their_index() {
        let plan = FaultPlan::new()
            .on_wal(WalSite::Append, 2, WalFault::SyncFail)
            .on_wal(WalSite::Sync, 0, WalFault::SyncFail)
            .share();
        assert_eq!(plan.fire_wal(WalSite::Append), None); // idx 0
        assert_eq!(plan.fire_wal(WalSite::Append), None); // idx 1
        assert_eq!(plan.fire_wal(WalSite::Append), Some(WalFault::SyncFail)); // idx 2
        assert_eq!(plan.fire_wal(WalSite::Append), None); // idx 3
        assert_eq!(plan.fire_wal(WalSite::Sync), Some(WalFault::SyncFail));
        assert_eq!(plan.fire_wal(WalSite::Sync), None);
        assert_eq!(plan.injected(), 2);
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn exec_points_consume_on_fire() {
        let plan = FaultPlan::new()
            .on_access(3, 1, ExecFault::Stall { ms: 5 })
            .share();
        assert_eq!(plan.fire_exec(3, 0), None);
        assert_eq!(plan.fire_exec(3, 1), Some(ExecFault::Stall { ms: 5 }));
        // A retry of the same attempt reaches access 1 again; the
        // consumed point must not re-fire (livelock guard).
        assert_eq!(plan.fire_exec(3, 1), None);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn sites_have_independent_counters() {
        let plan = FaultPlan::new()
            .on_wal(WalSite::Rotate, 0, WalFault::RotateFail)
            .share();
        for _ in 0..5 {
            assert_eq!(plan.fire_wal(WalSite::Append), None);
        }
        assert_eq!(plan.fire_wal(WalSite::Rotate), Some(WalFault::RotateFail));
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(42, 0), mix(42, 0));
        assert_ne!(mix(42, 0), mix(42, 1));
        assert_ne!(mix(42, 0), mix(43, 0));
        // Low bits should vary (used modulo small ranges).
        let lows: std::collections::HashSet<u64> = (0..64).map(|i| mix(7, i) % 8).collect();
        assert!(lows.len() > 4);
    }
}
