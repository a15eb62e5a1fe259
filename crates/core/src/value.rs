//! Values and finite domains.
//!
//! §2.1 of the paper: *"For each data item d′ ∈ D, Dom(d′) denotes the
//! domain of d′. A database state maps every data item d′ to a value
//! v′ ∈ Dom(d′)."*
//!
//! The constraint language ranges over numeric and string constants; we
//! support integers, booleans and interned strings. Domains are kept
//! **finite** so that restriction-consistency ("does a consistent
//! extension exist?", §2.1) is decidable by search — see
//! [`crate::solver`] and the substitution note in `DESIGN.md`.

use std::fmt;
use std::sync::Arc;

/// A runtime value of a data item.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Integer constant (e.g. `5`, `100`).
    Int(i64),
    /// Boolean constant; comparisons evaluate to these.
    Bool(bool),
    /// String constant (e.g. `"Jim"`), reference-counted for cheap clones.
    Str(Arc<str>),
}

impl Value {
    /// Shorthand for a string value.
    pub fn str(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }

    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

/// The finite domain `Dom(d′)` of a data item.
///
/// All of the paper's examples use small integers; bounded integer
/// windows are the common case and are stored without materialising the
/// value list.
#[derive(Clone, PartialEq, Eq)]
pub enum Domain {
    /// All integers in `lo..=hi`.
    IntRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// `{false, true}`.
    Bools,
    /// An explicit, finite list of values (deduplicated, sorted).
    Explicit(Vec<Value>),
}

impl Domain {
    /// Integer window `lo..=hi`. Panics if `lo > hi`.
    pub fn int_range(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty integer domain {lo}..={hi}");
        Domain::IntRange { lo, hi }
    }

    /// Number of values in the domain.
    pub fn size(&self) -> u64 {
        match self {
            Domain::IntRange { lo, hi } => (hi - lo) as u64 + 1,
            Domain::Bools => 2,
            Domain::Explicit(vals) => vals.len() as u64,
        }
    }

    /// Iterate over every value of the domain in ascending order.
    pub fn iter(&self) -> DomainIter<'_> {
        match self {
            Domain::IntRange { lo, hi } => DomainIter::Range {
                next: *lo,
                hi: *hi,
                done: false,
            },
            Domain::Bools => DomainIter::Bools { next: 0 },
            Domain::Explicit(vals) => DomainIter::Explicit { vals, idx: 0 },
        }
    }

    /// An arbitrary member of the domain (the smallest).
    pub fn any_value(&self) -> Value {
        self.iter().next().expect("domains are non-empty")
    }
}

#[cfg(test)]
impl Domain {
    /// An explicit domain from a list of values (deduplicated, sorted).
    pub(crate) fn explicit(mut values: Vec<Value>) -> Self {
        values.sort();
        values.dedup();
        assert!(!values.is_empty(), "explicit domain must be non-empty");
        Domain::Explicit(values)
    }

    /// Does the domain contain `v`?
    pub(crate) fn contains(&self, v: &Value) -> bool {
        match self {
            Domain::IntRange { lo, hi } => matches!(v, Value::Int(x) if lo <= x && x <= hi),
            Domain::Bools => matches!(v, Value::Bool(_)),
            Domain::Explicit(vals) => vals.binary_search(v).is_ok(),
        }
    }
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::IntRange { lo, hi } => write!(f, "[{lo}..={hi}]"),
            Domain::Bools => write!(f, "{{false,true}}"),
            Domain::Explicit(vals) => {
                write!(f, "{{")?;
                for (i, v) in vals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Iterator over the members of a [`Domain`].
pub enum DomainIter<'a> {
    /// Iterating an integer window.
    Range {
        /// Next value to yield.
        next: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Whether the window is exhausted.
        done: bool,
    },
    /// Iterating `{false, true}`.
    Bools {
        /// 0 = `false` next, 1 = `true` next, 2 = exhausted.
        next: u8,
    },
    /// Iterating an explicit list.
    Explicit {
        /// The domain's value list.
        vals: &'a [Value],
        /// Next index to yield.
        idx: usize,
    },
}

impl Iterator for DomainIter<'_> {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        match self {
            DomainIter::Range { next, hi, done } => {
                if *done {
                    return None;
                }
                let v = *next;
                if v == *hi {
                    *done = true;
                } else {
                    *next += 1;
                }
                Some(Value::Int(v))
            }
            DomainIter::Bools { next } => match *next {
                0 => {
                    *next = 1;
                    Some(Value::Bool(false))
                }
                1 => {
                    *next = 2;
                    Some(Value::Bool(true))
                }
                _ => None,
            },
            DomainIter::Explicit { vals, idx } => {
                let v = vals.get(*idx)?.clone();
                *idx += 1;
                Some(v)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            DomainIter::Range { next, hi, done } => {
                if *done {
                    0
                } else {
                    (*hi - *next) as usize + 1
                }
            }
            DomainIter::Bools { next } => 2usize.saturating_sub(*next as usize),
            DomainIter::Explicit { vals, idx } => vals.len() - *idx,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for DomainIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_range_membership_and_size() {
        let d = Domain::int_range(-2, 3);
        assert_eq!(d.size(), 6);
        assert!(d.contains(&Value::Int(-2)));
        assert!(d.contains(&Value::Int(3)));
        assert!(!d.contains(&Value::Int(4)));
        assert!(!d.contains(&Value::Bool(true)));
    }

    #[test]
    fn int_range_iterates_in_order() {
        let d = Domain::int_range(0, 2);
        let vals: Vec<Value> = d.iter().collect();
        assert_eq!(vals, vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
        assert_eq!(d.iter().len(), 3);
    }

    #[test]
    fn bool_domain() {
        let d = Domain::Bools;
        assert_eq!(d.size(), 2);
        let vals: Vec<Value> = d.iter().collect();
        assert_eq!(vals, vec![Value::Bool(false), Value::Bool(true)]);
    }

    #[test]
    fn explicit_domain_dedups_and_sorts() {
        let d = Domain::explicit(vec![Value::Int(3), Value::Int(1), Value::Int(3)]);
        assert_eq!(d.size(), 2);
        let vals: Vec<Value> = d.iter().collect();
        assert_eq!(vals, vec![Value::Int(1), Value::Int(3)]);
        assert!(d.contains(&Value::Int(1)));
        assert!(!d.contains(&Value::Int(2)));
    }

    #[test]
    fn str_values_compare() {
        let jim = Value::str("Jim");
        let jim2 = Value::str("Jim");
        assert_eq!(jim, jim2);
        assert_eq!(format!("{jim}"), "\"Jim\"");
    }

    #[test]
    fn any_value_is_member() {
        for d in [
            Domain::int_range(-5, 5),
            Domain::Bools,
            Domain::explicit(vec![Value::str("x"), Value::str("y")]),
        ] {
            assert!(d.contains(&d.any_value()));
        }
    }

    #[test]
    #[should_panic]
    fn empty_int_range_panics() {
        let _ = Domain::int_range(3, 2);
    }

    #[test]
    fn singleton_range() {
        let d = Domain::int_range(7, 7);
        assert_eq!(d.size(), 1);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![Value::Int(7)]);
    }
}
