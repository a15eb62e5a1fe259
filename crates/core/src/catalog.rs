//! The catalog: the finite set `D` of data items with names and domains.
//!
//! §2.1: *"A database consists of a finite set, D, of data items."* The
//! catalog interns item names to dense [`ItemId`]s and owns each item's
//! [`Domain`]; everything downstream works with ids only.

use crate::error::{CoreError, Result};
use crate::ids::ItemId;
use crate::value::{Domain, Value};
use std::collections::HashMap;

/// The set `D` of data items: name ↔ id interning plus per-item domains.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    names: Vec<String>,
    domains: Vec<Domain>,
    by_name: HashMap<String, ItemId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a data item with its domain, returning its id.
    ///
    /// Re-registering an existing name replaces its domain and returns
    /// the existing id (useful when refining domains for experiments).
    pub fn add_item(&mut self, name: &str, domain: Domain) -> ItemId {
        if let Some(&id) = self.by_name.get(name) {
            self.domains[id.index()] = domain;
            return id;
        }
        let id = ItemId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.domains.push(domain);
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Register `n` items named `prefix0 … prefix{n-1}` sharing a domain.
    pub fn add_items(&mut self, prefix: &str, n: usize, domain: Domain) -> Vec<ItemId> {
        (0..n)
            .map(|i| self.add_item(&format!("{prefix}{i}"), domain.clone()))
            .collect()
    }

    /// The id of the item called `name`, if there is one. Allocates
    /// nothing: a miss is an answer, not an error (it is how `tplang`
    /// tells a local variable from a data item).
    pub fn get(&self, name: &str) -> Option<ItemId> {
        self.by_name.get(name).copied()
    }

    /// Look up an item by name; a miss is [`CoreError::UnknownItem`].
    pub fn lookup(&self, name: &str) -> Result<ItemId> {
        self.get(name)
            .ok_or_else(|| CoreError::UnknownItem(name.to_owned()))
    }

    /// The item's name.
    pub fn name(&self, id: ItemId) -> &str {
        &self.names[id.index()]
    }

    /// The item's domain.
    pub fn domain(&self, id: ItemId) -> &Domain {
        &self.domains[id.index()]
    }

    /// Does `value` belong to `id`'s domain?
    pub fn in_domain(&self, id: ItemId, value: &Value) -> bool {
        self.domain(id).contains(value)
    }

    /// Validate that a value is in the item's domain.
    pub fn check_domain(&self, id: ItemId, value: &Value) -> Result<()> {
        if self.in_domain(id, value) {
            Ok(())
        } else {
            Err(CoreError::OutOfDomain {
                item: id,
                value: value.clone(),
            })
        }
    }

    /// Number of registered items (`|D|`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate all item ids in registration order.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.names.len() as u32).map(ItemId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_lookup() {
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(0, 3));
        let b = cat.add_item("b", Domain::bools());
        assert_ne!(a, b);
        assert_eq!(cat.lookup("a").unwrap(), a);
        assert_eq!(cat.name(b), "b");
        assert_eq!(cat.len(), 2);
        assert!(cat.lookup("zzz").is_err());
        assert_eq!(cat.get("a"), Some(a));
        assert_eq!(cat.get("zzz"), None);
    }

    #[test]
    fn reregister_replaces_domain() {
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(0, 1));
        let a2 = cat.add_item("a", Domain::int_range(0, 9));
        assert_eq!(a, a2);
        assert_eq!(cat.domain(a).size(), 10);
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn bulk_items() {
        let mut cat = Catalog::new();
        let ids = cat.add_items("x", 4, Domain::int_range(-1, 1));
        assert_eq!(ids.len(), 4);
        assert_eq!(cat.name(ids[2]), "x2");
        assert_eq!(cat.items().count(), 4);
    }

    #[test]
    fn domain_checks() {
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(0, 3));
        assert!(cat.check_domain(a, &Value::Int(2)).is_ok());
        let err = cat.check_domain(a, &Value::Int(9)).unwrap_err();
        assert!(matches!(err, CoreError::OutOfDomain { .. }));
    }
}
