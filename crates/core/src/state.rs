//! Database states as partial variable assignments, and item sets.
//!
//! §2.1: a database state is a set of pairs `DS = {(d′, v′)}` assigning a
//! value to every item; its *restriction* `DS^d` keeps only the items in
//! `d ⊆ D`. Because restrictions are everywhere in the paper (read sets,
//! write effects, view sets, per-conjunct states), [`DbState`] is a
//! **partial** assignment; a "full" state is simply one that is total for
//! the catalog.
//!
//! The union `DS^{d1}_1 ⊔ DS^{d2}_2` is the paper's ⊔: set union that is
//! *undefined* (here: an error) when the operands disagree on an item.

use crate::error::{CoreError, Result};
use crate::ids::ItemId;
use crate::value::Value;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// A set of data items `d ⊆ D` (a "data set" in the paper).
///
/// Backed by a dense bitset indexed by [`ItemId`]: item ids are
/// interned catalog indices (small and dense), so membership is a bit
/// test and union/difference/subset are word-wise loops. The first 64
/// ids live in an **inline** word; only ids ≥ 64 spill to a heap
/// vector — so for the common case (conjunct scopes, per-transaction
/// read/write sets over small catalogs) every set operation is
/// allocation-free. Iteration remains in ascending id order, matching
/// the previous `BTreeSet`-backed representation.
///
/// Invariant: the trailing spill word, when present, is nonzero — so
/// the derived `PartialEq`/`Eq`/`Hash` see a canonical form.
#[derive(Default, PartialEq, Eq, Hash)]
pub struct ItemSet {
    /// Bits for ids 0..64.
    word0: u64,
    /// Bits for ids ≥ 64: `rest[k]` covers ids `64(k+1)..64(k+2)`.
    rest: Vec<u64>,
}

const WORD_BITS: usize = 64;

/// Retired [`ItemSet`]s kept, emptied, for reuse: a set whose members
/// reach 64 owns a spill buffer, and a monitor that retires rows (a
/// retraction, a compaction) at the rate it creates them can hand the
/// buffers on instead of freeing and allocating them.
#[derive(Clone, Debug, Default)]
pub(crate) struct SetPool {
    sets: Vec<ItemSet>,
}

impl SetPool {
    /// An empty set, from the pool if it has one.
    pub(crate) fn take(&mut self) -> ItemSet {
        self.sets.pop().unwrap_or_default()
    }

    /// Retire `set` into the pool.
    pub(crate) fn give(&mut self, mut set: ItemSet) {
        set.clear();
        self.sets.push(set);
    }
}

impl Clone for ItemSet {
    fn clone(&self) -> Self {
        ItemSet {
            word0: self.word0,
            rest: self.rest.clone(),
        }
    }

    /// Reuses the spill vector's allocation (hot-path `clone_from`s
    /// into scratch sets never reallocate).
    fn clone_from(&mut self, source: &Self) {
        self.word0 = source.word0;
        self.rest.clone_from(&source.rest);
    }
}

impl ItemSet {
    /// The empty set.
    pub fn new() -> Self {
        ItemSet::default()
    }

    /// Build from anything yielding [`ItemId`]s.
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator
    pub fn from_iter<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        let mut out = ItemSet::new();
        for id in iter {
            out.insert(id);
        }
        out
    }

    /// Drop trailing zero spill words to keep the canonical form.
    fn normalize(&mut self) {
        while self.rest.last() == Some(&0) {
            self.rest.pop();
        }
    }

    /// The spill word covering `id`, or 0.
    #[inline]
    fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.word0
        } else {
            self.rest.get(w - 1).copied().unwrap_or(0)
        }
    }

    /// Insert an item; returns whether it was newly inserted.
    pub fn insert(&mut self, id: ItemId) -> bool {
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        let word = if w == 0 {
            &mut self.word0
        } else {
            if w > self.rest.len() {
                self.rest.resize(w, 0);
            }
            &mut self.rest[w - 1]
        };
        let fresh = *word & (1 << b) == 0;
        *word |= 1 << b;
        fresh
    }

    /// Remove an item; returns whether it was present.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        if w == 0 {
            let present = self.word0 & (1 << b) != 0;
            self.word0 &= !(1 << b);
            return present;
        }
        if w > self.rest.len() {
            return false;
        }
        let present = self.rest[w - 1] & (1 << b) != 0;
        self.rest[w - 1] &= !(1 << b);
        self.normalize();
        present
    }

    /// Remove every item (keeps the spill allocation for reuse).
    pub fn clear(&mut self) {
        self.word0 = 0;
        self.rest.clear();
    }

    /// Heap bytes of the spill words (0 while every member is below
    /// 64).
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.rest.as_slice())
    }

    /// Bytes of a table of sets, spill words included — what the
    /// monitors' resident estimates count per table.
    pub(crate) fn rows_bytes<'a>(rows: impl IntoIterator<Item = &'a ItemSet>) -> usize {
        rows.into_iter()
            .map(|set| std::mem::size_of::<ItemSet>() + set.heap_bytes())
            .sum()
    }

    /// Membership test.
    pub fn contains(&self, id: ItemId) -> bool {
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        self.word(w) & (1 << b) != 0
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.word0.count_ones() as usize
            + self
                .rest
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.word0 == 0 && self.rest.is_empty()
    }

    /// Iterate items in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ItemId> + '_ {
        std::iter::once(self.word0)
            .chain(self.rest.iter().copied())
            .enumerate()
            .flat_map(|(wi, word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(ItemId((wi * WORD_BITS) as u32 + b))
                })
            })
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// `self ∩ other`.
    pub fn intersection(&self, other: &ItemSet) -> ItemSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// `self − other`.
    pub fn difference(&self, other: &ItemSet) -> ItemSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// In-place `self ∪= other` (no allocation when capacity suffices).
    pub fn union_with(&mut self, other: &ItemSet) {
        self.word0 |= other.word0;
        if other.rest.len() > self.rest.len() {
            self.rest.resize(other.rest.len(), 0);
        }
        for (w, &o) in self.rest.iter_mut().zip(&other.rest) {
            *w |= o;
        }
    }

    /// In-place `self ∩= other`.
    pub fn intersect_with(&mut self, other: &ItemSet) {
        self.word0 &= other.word0;
        self.rest.truncate(other.rest.len());
        for (w, &o) in self.rest.iter_mut().zip(&other.rest) {
            *w &= o;
        }
        self.normalize();
    }

    /// In-place `self −= other`.
    pub fn difference_with(&mut self, other: &ItemSet) {
        self.word0 &= !other.word0;
        for (w, &o) in self.rest.iter_mut().zip(&other.rest) {
            *w &= !o;
        }
        self.normalize();
    }

    /// Are the two sets disjoint (`self ∩ other = ∅`)?
    pub fn is_disjoint(&self, other: &ItemSet) -> bool {
        self.word0 & other.word0 == 0
            && self.rest.iter().zip(&other.rest).all(|(&a, &b)| a & b == 0)
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &ItemSet) -> bool {
        self.word0 & !other.word0 == 0
            && self.rest.len() <= other.rest.len()
            && self
                .rest
                .iter()
                .zip(&other.rest)
                .all(|(&a, &b)| a & !b == 0)
    }

    /// In-place `self ∪= other ∩ mask` in one word-wise pass (the
    /// Lemma 6 update for a completed predecessor).
    pub fn union_with_masked(&mut self, other: &ItemSet, mask: &ItemSet) {
        self.word0 |= other.word0 & mask.word0;
        let n = other.rest.len().min(mask.rest.len());
        if n > self.rest.len() {
            self.rest.resize(n, 0);
        }
        for i in 0..n {
            self.rest[i] |= other.rest[i] & mask.rest[i];
        }
        self.normalize();
    }

    /// In-place `self −= other ∩ mask` in one word-wise pass (the
    /// Lemma 6 update for an incomplete predecessor).
    pub fn difference_with_masked(&mut self, other: &ItemSet, mask: &ItemSet) {
        self.word0 &= !(other.word0 & mask.word0);
        for (i, w) in self.rest.iter_mut().enumerate() {
            let o = other.rest.get(i).copied().unwrap_or(0);
            let m = mask.rest.get(i).copied().unwrap_or(0);
            *w &= !(o & m);
        }
        self.normalize();
    }

    /// In-place `self −= (a − b) ∩ mask` in one word-wise pass — the
    /// Lemma 2 update `VS −= WS(after(T^d, p, S))` with the suffix
    /// write set expressed as total − prefix.
    pub fn difference_with_masked_diff(&mut self, a: &ItemSet, b: &ItemSet, mask: &ItemSet) {
        self.word0 &= !(a.word0 & !b.word0 & mask.word0);
        for (i, w) in self.rest.iter_mut().enumerate() {
            let aw = a.rest.get(i).copied().unwrap_or(0);
            let bw = b.rest.get(i).copied().unwrap_or(0);
            let m = mask.rest.get(i).copied().unwrap_or(0);
            *w &= !(aw & !bw & m);
        }
        self.normalize();
    }

    /// Is `self ∩ mask ⊆ other`? The projected-subset test the lemma
    /// checkers run on their hot path, fused into one word-wise pass.
    pub fn masked_subset(&self, mask: &ItemSet, other: &ItemSet) -> bool {
        self.word0 & mask.word0 & !other.word0 == 0
            && self.rest.iter().enumerate().all(|(i, &a)| {
                let m = mask.rest.get(i).copied().unwrap_or(0);
                let o = other.rest.get(i).copied().unwrap_or(0);
                a & m & !o == 0
            })
    }

    /// An arbitrary element shared with `other`, if any.
    pub fn common_item(&self, other: &ItemSet) -> Option<ItemId> {
        let both0 = self.word0 & other.word0;
        if both0 != 0 {
            return Some(ItemId(both0.trailing_zeros()));
        }
        self.rest
            .iter()
            .zip(&other.rest)
            .enumerate()
            .find_map(|(wi, (&a, &b))| {
                let both = a & b;
                (both != 0).then(|| ItemId(((wi + 1) * WORD_BITS) as u32 + both.trailing_zeros()))
            })
    }
}

/// Order as element-lexicographic over ascending ids, matching the
/// previous `BTreeSet` representation's derived `Ord`.
impl PartialOrd for ItemSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ItemSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl FromIterator<ItemId> for ItemSet {
    fn from_iter<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        ItemSet::from_iter(iter)
    }
}

impl<const N: usize> From<[ItemId; N]> for ItemSet {
    fn from(items: [ItemId; N]) -> Self {
        ItemSet::from_iter(items)
    }
}

impl fmt::Debug for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{id:?}")?;
        }
        write!(f, "}}")
    }
}

/// A (partial) database state: a finite map from items to values.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DbState(BTreeMap<ItemId, Value>);

impl DbState {
    /// The empty assignment `∅`.
    pub fn new() -> Self {
        DbState::default()
    }

    /// Build from `(item, value)` pairs. Later pairs overwrite earlier
    /// ones (use [`DbState::union`] for the paper's conflict-checking ⊔).
    pub fn from_pairs<I: IntoIterator<Item = (ItemId, Value)>>(pairs: I) -> Self {
        DbState(pairs.into_iter().collect())
    }

    /// Assign `item := value`, returning the previous value if any.
    pub fn set(&mut self, item: ItemId, value: Value) -> Option<Value> {
        self.0.insert(item, value)
    }

    /// The value of `item`, if assigned.
    pub fn get(&self, item: ItemId) -> Option<&Value> {
        self.0.get(&item)
    }

    /// The value of `item`, or a [`CoreError::MissingItem`] error.
    pub fn require(&self, item: ItemId) -> Result<&Value> {
        self.get(item).ok_or(CoreError::MissingItem(item))
    }

    /// Remove `item` from the assignment.
    pub fn unset(&mut self, item: ItemId) -> Option<Value> {
        self.0.remove(&item)
    }

    /// Number of assigned items.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is nothing assigned?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The set of assigned items.
    pub fn items(&self) -> ItemSet {
        ItemSet::from_iter(self.0.keys().copied())
    }

    /// Iterate `(item, value)` pairs in ascending item order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &Value)> + '_ {
        self.0.iter().map(|(k, v)| (*k, v))
    }

    /// The restriction `DS^d`: keep only items in `d`.
    pub fn restrict(&self, d: &ItemSet) -> DbState {
        // Iterate the smaller side.
        if d.len() < self.0.len() {
            DbState(
                d.iter()
                    .filter_map(|id| self.0.get(&id).map(|v| (id, v.clone())))
                    .collect(),
            )
        } else {
            DbState(
                self.0
                    .iter()
                    .filter(|(id, _)| d.contains(**id))
                    .map(|(id, v)| (*id, v.clone()))
                    .collect(),
            )
        }
    }

    /// `DS^{D−d}`: drop the items in `d`.
    pub fn without(&self, d: &ItemSet) -> DbState {
        DbState(
            self.0
                .iter()
                .filter(|(id, _)| !d.contains(**id))
                .map(|(id, v)| (*id, v.clone()))
                .collect(),
        )
    }

    /// The paper's ⊔: union of two assignments, **undefined** (an error)
    /// if they disagree on any item.
    pub fn union(&self, other: &DbState) -> Result<DbState> {
        let mut out = self.0.clone();
        for (&item, v) in &other.0 {
            match out.entry(item) {
                Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
                Entry::Occupied(e) => {
                    if e.get() != v {
                        return Err(CoreError::UnionConflict {
                            item,
                            left: e.get().clone(),
                            right: v.clone(),
                        });
                    }
                }
            }
        }
        Ok(DbState(out))
    }

    /// Right-biased overwrite: `self` updated with every pair of
    /// `updates`. This is the state-transformer form used in
    /// Definition 4 (`state^{d−WS} ∪ write(T^d)`), where overwriting is
    /// intended rather than an error.
    pub fn updated_with(&self, updates: &DbState) -> DbState {
        let mut out = self.0.clone();
        for (&item, v) in &updates.0 {
            out.insert(item, v.clone());
        }
        DbState(out)
    }

    /// Do `self` and `other` agree on every item they both assign?
    pub fn compatible(&self, other: &DbState) -> bool {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .iter()
            .all(|(id, v)| large.get(id).is_none_or(|w| w == v))
    }

    /// Is the state total for the given item set (assigns all of `d`)?
    pub fn is_total_for(&self, d: &ItemSet) -> bool {
        d.iter().all(|id| self.0.contains_key(&id))
    }

    /// Does `self` extend `other` (assign everything `other` does, with
    /// equal values)?
    pub fn extends(&self, other: &DbState) -> bool {
        other.iter().all(|(id, v)| self.get(id) == Some(v))
    }
}

impl FromIterator<(ItemId, Value)> for DbState {
    fn from_iter<I: IntoIterator<Item = (ItemId, Value)>>(iter: I) -> Self {
        DbState::from_pairs(iter)
    }
}

impl fmt::Debug for DbState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (id, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({id:?}, {v})")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> ItemId {
        ItemId(n)
    }

    #[test]
    fn itemset_algebra() {
        let a = ItemSet::from_iter([id(1), id(2), id(3)]);
        let b = ItemSet::from_iter([id(3), id(4)]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).len(), 1);
        assert_eq!(a.difference(&b).len(), 2);
        assert!(!a.is_disjoint(&b));
        assert_eq!(a.common_item(&b), Some(id(3)));
        assert!(a.intersection(&b).is_subset(&a));
    }

    #[test]
    fn itemset_canonical_after_removals() {
        // Removing a high bit must not leave trailing zero words behind
        // (Eq/Hash are derived over the canonical word vector).
        let mut a = ItemSet::from_iter([id(1), id(200)]);
        a.remove(id(200));
        assert_eq!(a, ItemSet::from_iter([id(1)]));
        let mut b = ItemSet::from_iter([id(300)]);
        b.difference_with(&ItemSet::from_iter([id(300)]));
        assert_eq!(b, ItemSet::new());
        assert!(b.is_empty());
        let mut c = ItemSet::from_iter([id(70)]);
        c.intersect_with(&ItemSet::from_iter([id(1)]));
        assert_eq!(c, ItemSet::new());
    }

    #[test]
    fn itemset_inplace_ops_match_pure_ops() {
        let a = ItemSet::from_iter([id(1), id(65), id(200)]);
        let b = ItemSet::from_iter([id(65), id(3)]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.union(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, a.intersection(&b));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, a.difference(&b));
    }

    #[test]
    fn itemset_fused_masked_ops_match_composed_ops() {
        let base = ItemSet::from_iter([id(0), id(2), id(70), id(200)]);
        let other = ItemSet::from_iter([id(0), id(70), id(130)]);
        let mask = ItemSet::from_iter([id(0), id(1), id(70), id(130), id(200)]);
        let b = ItemSet::from_iter([id(0)]);

        let mut fused = base.clone();
        fused.union_with_masked(&other, &mask);
        assert_eq!(fused, base.union(&other.intersection(&mask)));

        let mut fused = base.clone();
        fused.difference_with_masked(&other, &mask);
        assert_eq!(fused, base.difference(&other.intersection(&mask)));

        let mut fused = base.clone();
        fused.difference_with_masked_diff(&other, &b, &mask);
        assert_eq!(
            fused,
            base.difference(&other.difference(&b).intersection(&mask))
        );
    }

    #[test]
    fn itemset_masked_subset() {
        let a = ItemSet::from_iter([id(1), id(2), id(80)]);
        let mask = ItemSet::from_iter([id(1), id(80)]);
        let big = ItemSet::from_iter([id(1), id(80), id(99)]);
        let small = ItemSet::from_iter([id(1)]);
        assert!(a.masked_subset(&mask, &big)); // {1,80} ⊆ {1,80,99}
        assert!(!a.masked_subset(&mask, &small)); // 80 escapes
        assert!(a.masked_subset(&ItemSet::new(), &ItemSet::new()));
    }

    #[test]
    fn itemset_iter_ascending_and_ord() {
        let a = ItemSet::from_iter([id(200), id(3), id(64)]);
        let got: Vec<u32> = a.iter().map(|i| i.0).collect();
        assert_eq!(got, vec![3, 64, 200]);
        // Element-lexicographic order, as with the old BTreeSet backing.
        let b = ItemSet::from_iter([id(3), id(65)]);
        assert!(a < b); // [3,64,..] < [3,65]
        assert!(ItemSet::new() < a);
    }

    #[test]
    fn restriction_keeps_only_d() {
        // Paper §2.1: DS^d = {(d′,v′) : d′ ∈ d and (d′,v′) ∈ DS}.
        let ds = DbState::from_pairs([
            (id(0), Value::Int(5)),
            (id(1), Value::Int(6)),
            (id(2), Value::Int(7)),
        ]);
        let d = ItemSet::from_iter([id(0), id(2), id(9)]);
        let r = ds.restrict(&d);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(id(0)), Some(&Value::Int(5)));
        assert_eq!(r.get(id(2)), Some(&Value::Int(7)));
        assert_eq!(r.get(id(1)), None);
    }

    #[test]
    fn union_agrees_ok() {
        let l = DbState::from_pairs([(id(0), Value::Int(5)), (id(1), Value::Int(1))]);
        let r = DbState::from_pairs([(id(0), Value::Int(5)), (id(2), Value::Int(9))]);
        let u = l.union(&r).unwrap();
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn union_conflict_is_undefined() {
        // §2.1: DS1^{d1} ⊔ DS2^{d2} is undefined if they disagree.
        let l = DbState::from_pairs([(id(0), Value::Int(5))]);
        let r = DbState::from_pairs([(id(0), Value::Int(6))]);
        let err = l.union(&r).unwrap_err();
        assert!(matches!(err, CoreError::UnionConflict { item, .. } if item == id(0)));
    }

    #[test]
    fn updated_with_overwrites() {
        let base = DbState::from_pairs([(id(0), Value::Int(1)), (id(1), Value::Int(2))]);
        let upd = DbState::from_pairs([(id(1), Value::Int(9)), (id(2), Value::Int(3))]);
        let out = base.updated_with(&upd);
        assert_eq!(out.get(id(0)), Some(&Value::Int(1)));
        assert_eq!(out.get(id(1)), Some(&Value::Int(9)));
        assert_eq!(out.get(id(2)), Some(&Value::Int(3)));
    }

    #[test]
    fn compatible_and_extends() {
        let small = DbState::from_pairs([(id(0), Value::Int(1))]);
        let big = DbState::from_pairs([(id(0), Value::Int(1)), (id(1), Value::Int(2))]);
        let clash = DbState::from_pairs([(id(0), Value::Int(7))]);
        assert!(small.compatible(&big));
        assert!(big.extends(&small));
        assert!(!small.extends(&big));
        assert!(!clash.compatible(&big));
    }

    #[test]
    fn without_drops_items() {
        let ds = DbState::from_pairs([(id(0), Value::Int(1)), (id(1), Value::Int(2))]);
        let out = ds.without(&ItemSet::from_iter([id(0)]));
        assert_eq!(out.len(), 1);
        assert_eq!(out.get(id(1)), Some(&Value::Int(2)));
    }

    #[test]
    fn total_for() {
        let ds = DbState::from_pairs([(id(0), Value::Int(1)), (id(1), Value::Int(2))]);
        assert!(ds.is_total_for(&ItemSet::from_iter([id(0), id(1)])));
        assert!(!ds.is_total_for(&ItemSet::from_iter([id(0), id(2)])));
        assert!(ds.is_total_for(&ItemSet::new()));
    }

    #[test]
    fn require_missing() {
        let ds = DbState::new();
        assert!(matches!(
            ds.require(id(5)),
            Err(CoreError::MissingItem(i)) if i == id(5)
        ));
    }
}
