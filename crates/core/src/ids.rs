//! Compact identifier newtypes.
//!
//! Data items, transactions, conjuncts and schedule positions are all
//! referred to through `u32`-sized newtypes. Interning keeps the hot
//! checker paths free of string hashing (names live in the
//! [`Catalog`](crate::catalog::Catalog) side table), per the usual
//! database-engine idiom.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a data item (a variable of the database, §2.1).
///
/// Produced by [`Catalog::add_item`](crate::catalog::Catalog::add_item);
/// the numeric value indexes the catalog's dense side tables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

/// Identifier of a transaction within a schedule (§2.2).
///
/// The paper writes `T_1, T_2, …`; we keep the subscript.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u32);

/// Identifier of a conjunct `C_e` of the integrity constraint (§2.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConjunctId(pub u32);

/// Position of an operation inside a schedule.
///
/// The paper's `depth(p, S)` — the number of operations preceding `p` —
/// is exactly the numeric value of the operation's `OpIndex`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpIndex(pub usize);

impl ItemId {
    /// Index into dense per-item tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TxnId {
    /// Raw numeric id.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl ConjunctId {
    /// Index into dense per-conjunct tables.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl OpIndex {
    /// `depth(p, S)`: number of operations strictly preceding `p`.
    #[inline]
    pub(crate) fn depth(self) -> usize {
        self.0
    }
}

/// A one-multiply (Fx-style) hasher for the `u32` ids above, for the
/// maps the monitors probe inside their serial sections, in place of
/// SipHash. Ids are counters the program assigns, not adversarial
/// keys, and an odd multiplier is a bijection on the low bits, so
/// dense ids land in distinct buckets.
#[derive(Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(id)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(b.into()));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by an id newtype, hashed with [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Debug for ConjunctId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for ConjunctId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Debug for OpIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p@{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_matches_index() {
        assert_eq!(OpIndex(0).depth(), 0);
        assert_eq!(OpIndex(7).depth(), 7);
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", ItemId(3)), "d3");
        assert_eq!(format!("{:?}", TxnId(1)), "T1");
        assert_eq!(format!("{}", ConjunctId(2)), "C2");
        assert_eq!(format!("{:?}", OpIndex(4)), "p@4");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(ItemId(1) < ItemId(2));
        assert!(TxnId(1) < TxnId(10));
        assert!(OpIndex(0) < OpIndex(1));
    }
}
