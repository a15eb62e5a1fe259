//! A shared/exclusive lock table over (space, item) keys.
//!
//! A *lock space* is a unit of serializability: global 2PL uses a
//! single space; predicate-wise 2PL uses one space per conjunct, so
//! locking discipline is enforced independently per conjunct — exactly
//! the relaxation PWSR formalizes. Items are keyed within their space,
//! upgrades (S→X by the sole shared holder) are supported, and the
//! table reports the conflicting holders on failure so the executor can
//! build waits-for edges.

use pwsr_core::ids::{ItemId, TxnId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A lock space (partition of the lock name space).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct SpaceId(pub(crate) u32);

/// Lock modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// Current holders of one lock.
#[derive(Clone, Debug, Default)]
struct Holders {
    shared: BTreeSet<TxnId>,
    exclusive: Option<TxnId>,
}

/// The lock table.
#[derive(Clone, Debug, Default)]
pub(crate) struct LockTable {
    locks: HashMap<(SpaceId, ItemId), Holders>,
    /// Per-transaction held keys (for O(holdings) release).
    held: BTreeMap<TxnId, BTreeSet<(SpaceId, ItemId)>>,
    acquisitions: u64,
}

impl LockTable {
    /// Total successful acquisitions (metric).
    pub(crate) fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// The mode `txn` holds on `key`, if any.
    #[cfg(test)]
    fn held_mode(&self, txn: TxnId, space: SpaceId, item: ItemId) -> Option<LockMode> {
        let h = self.locks.get(&(space, item))?;
        if h.exclusive == Some(txn) {
            Some(LockMode::Exclusive)
        } else if h.shared.contains(&txn) {
            Some(LockMode::Shared)
        } else {
            None
        }
    }

    /// Try to acquire (or upgrade to) `mode` on `(space, item)` for
    /// `txn`. On conflict, returns the blocking holders.
    pub(crate) fn try_acquire(
        &mut self,
        txn: TxnId,
        space: SpaceId,
        item: ItemId,
        mode: LockMode,
    ) -> Result<(), Vec<TxnId>> {
        let h = self.locks.entry((space, item)).or_default();
        match mode {
            LockMode::Shared => {
                if let Some(x) = h.exclusive {
                    if x != txn {
                        return Err(vec![x]);
                    }
                    // Already hold X: S is implied.
                    return Ok(());
                }
                if h.shared.insert(txn) {
                    self.acquisitions += 1;
                    self.held.entry(txn).or_default().insert((space, item));
                }
                Ok(())
            }
            LockMode::Exclusive => {
                if let Some(x) = h.exclusive {
                    if x == txn {
                        return Ok(());
                    }
                    return Err(vec![x]);
                }
                let others: Vec<TxnId> = h.shared.iter().copied().filter(|&t| t != txn).collect();
                if !others.is_empty() {
                    return Err(others);
                }
                // Either no holders, or an upgrade from own S.
                h.shared.remove(&txn);
                h.exclusive = Some(txn);
                self.acquisitions += 1;
                self.held.entry(txn).or_default().insert((space, item));
                Ok(())
            }
        }
    }

    /// The holders currently conflicting with `txn` acquiring `mode`.
    pub(crate) fn conflicting_holders(
        &self,
        txn: TxnId,
        space: SpaceId,
        item: ItemId,
        mode: LockMode,
    ) -> Vec<TxnId> {
        let Some(h) = self.locks.get(&(space, item)) else {
            return Vec::new();
        };
        match mode {
            LockMode::Shared => match h.exclusive {
                Some(x) if x != txn => vec![x],
                _ => Vec::new(),
            },
            LockMode::Exclusive => {
                if let Some(x) = h.exclusive {
                    if x != txn {
                        return vec![x];
                    }
                    return Vec::new();
                }
                h.shared.iter().copied().filter(|&t| t != txn).collect()
            }
        }
    }

    /// Release every lock held by `txn`.
    pub(crate) fn release_all(&mut self, txn: TxnId) {
        if let Some(keys) = self.held.remove(&txn) {
            for key in keys {
                if let Some(h) = self.locks.get_mut(&key) {
                    h.shared.remove(&txn);
                    if h.exclusive == Some(txn) {
                        h.exclusive = None;
                    }
                    if h.shared.is_empty() && h.exclusive.is_none() {
                        self.locks.remove(&key);
                    }
                }
            }
        }
    }

    /// Release only `txn`'s locks inside `space` (early per-conjunct
    /// release for long transactions).
    pub(crate) fn release_space(&mut self, txn: TxnId, space: SpaceId) {
        let Some(keys) = self.held.get_mut(&txn) else {
            return;
        };
        let to_drop: Vec<(SpaceId, ItemId)> =
            keys.iter().copied().filter(|(s, _)| *s == space).collect();
        for key in to_drop {
            keys.remove(&key);
            if let Some(h) = self.locks.get_mut(&key) {
                h.shared.remove(&txn);
                if h.exclusive == Some(txn) {
                    h.exclusive = None;
                }
                if h.shared.is_empty() && h.exclusive.is_none() {
                    self.locks.remove(&key);
                }
            }
        }
    }

    /// The spaces in which `txn` currently holds at least one lock.
    pub(crate) fn spaces_held(&self, txn: TxnId) -> BTreeSet<SpaceId> {
        self.held
            .get(&txn)
            .map(|keys| keys.iter().map(|(s, _)| *s).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S0: SpaceId = SpaceId(0);
    const S1: SpaceId = SpaceId(1);

    fn item(n: u32) -> ItemId {
        ItemId(n)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lt = LockTable::default();
        assert!(lt
            .try_acquire(TxnId(1), S0, item(0), LockMode::Shared)
            .is_ok());
        assert!(lt
            .try_acquire(TxnId(2), S0, item(0), LockMode::Shared)
            .is_ok());
        assert_eq!(lt.held_mode(TxnId(1), S0, item(0)), Some(LockMode::Shared));
    }

    #[test]
    fn exclusive_excludes() {
        let mut lt = LockTable::default();
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Exclusive)
            .unwrap();
        let err = lt
            .try_acquire(TxnId(2), S0, item(0), LockMode::Shared)
            .unwrap_err();
        assert_eq!(err, vec![TxnId(1)]);
        let err = lt
            .try_acquire(TxnId(2), S0, item(0), LockMode::Exclusive)
            .unwrap_err();
        assert_eq!(err, vec![TxnId(1)]);
    }

    #[test]
    fn upgrade_when_sole_shared_holder() {
        let mut lt = LockTable::default();
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Shared)
            .unwrap();
        assert!(lt
            .try_acquire(TxnId(1), S0, item(0), LockMode::Exclusive)
            .is_ok());
        assert_eq!(
            lt.held_mode(TxnId(1), S0, item(0)),
            Some(LockMode::Exclusive)
        );
    }

    #[test]
    fn upgrade_blocked_by_other_readers() {
        let mut lt = LockTable::default();
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Shared)
            .unwrap();
        lt.try_acquire(TxnId(2), S0, item(0), LockMode::Shared)
            .unwrap();
        let err = lt
            .try_acquire(TxnId(1), S0, item(0), LockMode::Exclusive)
            .unwrap_err();
        assert_eq!(err, vec![TxnId(2)]);
    }

    #[test]
    fn x_holder_gets_shared_for_free() {
        let mut lt = LockTable::default();
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Exclusive)
            .unwrap();
        assert!(lt
            .try_acquire(TxnId(1), S0, item(0), LockMode::Shared)
            .is_ok());
        // Mode stays exclusive.
        assert_eq!(
            lt.held_mode(TxnId(1), S0, item(0)),
            Some(LockMode::Exclusive)
        );
    }

    #[test]
    fn spaces_are_independent() {
        let mut lt = LockTable::default();
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Exclusive)
            .unwrap();
        // Same item id, different space: no conflict.
        assert!(lt
            .try_acquire(TxnId(2), S1, item(0), LockMode::Exclusive)
            .is_ok());
    }

    #[test]
    fn release_all_clears() {
        let mut lt = LockTable::default();
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Exclusive)
            .unwrap();
        lt.try_acquire(TxnId(1), S1, item(1), LockMode::Shared)
            .unwrap();
        lt.release_all(TxnId(1));
        assert!(lt.locks.is_empty());
        assert!(lt
            .try_acquire(TxnId(2), S0, item(0), LockMode::Exclusive)
            .is_ok());
    }

    #[test]
    fn release_space_is_partial() {
        let mut lt = LockTable::default();
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Exclusive)
            .unwrap();
        lt.try_acquire(TxnId(1), S1, item(1), LockMode::Exclusive)
            .unwrap();
        lt.release_space(TxnId(1), S0);
        assert!(lt
            .try_acquire(TxnId(2), S0, item(0), LockMode::Exclusive)
            .is_ok());
        assert!(lt
            .try_acquire(TxnId(2), S1, item(1), LockMode::Exclusive)
            .is_err());
        assert_eq!(lt.spaces_held(TxnId(1)), [S1].into_iter().collect());
    }

    #[test]
    fn conflicting_holders_reports_without_mutating() {
        let mut lt = LockTable::default();
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Shared)
            .unwrap();
        lt.try_acquire(TxnId(2), S0, item(0), LockMode::Shared)
            .unwrap();
        let holders = lt.conflicting_holders(TxnId(3), S0, item(0), LockMode::Exclusive);
        assert_eq!(holders, vec![TxnId(1), TxnId(2)]);
        assert_eq!(
            lt.conflicting_holders(TxnId(3), S0, item(0), LockMode::Shared),
            Vec::<TxnId>::new()
        );
    }

    #[test]
    fn acquisition_counter_counts_new_grants_only() {
        let mut lt = LockTable::default();
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Shared)
            .unwrap();
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Shared)
            .unwrap(); // re-grant
        assert_eq!(lt.acquisitions(), 1);
        lt.try_acquire(TxnId(1), S0, item(0), LockMode::Exclusive)
            .unwrap(); // upgrade
        assert_eq!(lt.acquisitions(), 2);
    }
}
