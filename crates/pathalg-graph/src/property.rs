//! Property maps — the partial function `ν : (N ∪ E) × P ⇀ V` of Definition 2.1.
//!
//! Each node and edge carries its own [`PropertyMap`], a small ordered map from
//! property names to [`Value`]s. Property sets on real graphs are tiny (a
//! handful of entries), so the map is backed by a sorted `Vec` rather than a
//! hash map: lookups are a short binary search, iteration order is
//! deterministic, and memory overhead per object stays minimal.

use crate::value::Value;
use std::fmt;

/// An ordered collection of `property → value` pairs for a single object.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PropertyMap {
    entries: Vec<(String, Value)>,
}

impl PropertyMap {
    /// Creates an empty property map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value of a property, replacing any previous value.
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        let value = value.into();
        match self
            .entries
            .binary_search_by(|(k, _)| k.as_str().cmp(&name))
        {
            Ok(idx) => self.entries[idx].1 = value,
            Err(idx) => self.entries.insert(idx, (name, value)),
        }
    }

    /// Returns the value of a property, or `None` if the property is not set
    /// (ν is a partial function).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|idx| &self.entries[idx].1)
    }

    /// Iterates over `(name, value)` pairs in property-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl fmt::Display for PropertyMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// Later occurrences of the same property name overwrite earlier ones.
impl<K: Into<String>, V: Into<Value>> FromIterator<(K, V)> for PropertyMap {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = PropertyMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let mut props = PropertyMap::new();
        assert_eq!(props.iter().count(), 0);
        props.insert("name", "Moe");
        props.insert("age", 41i64);
        assert_eq!(props.iter().count(), 2);
        assert_eq!(props.get("name"), Some(&Value::str("Moe")));
        assert_eq!(props.get("age"), Some(&Value::Int(41)));
        assert_eq!(props.get("missing"), None);
    }

    #[test]
    fn insert_overwrites_previous_value() {
        let mut props = PropertyMap::new();
        props.insert("name", "Moe");
        props.insert("name", "Apu");
        assert_eq!(props.iter().count(), 1);
        assert_eq!(props.get("name"), Some(&Value::str("Apu")));
    }

    #[test]
    fn iteration_is_sorted_by_property_name() {
        let props: PropertyMap = [("zeta", 1i64), ("alpha", 2), ("mid", 3)]
            .into_iter()
            .collect();
        let keys: Vec<_> = props.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn from_iter_last_value_wins() {
        let props = PropertyMap::from_iter([("x", 1i64), ("x", 2i64)]);
        assert_eq!(props.get("x"), Some(&Value::Int(2)));
    }

    #[test]
    fn display_is_readable() {
        let props = PropertyMap::from_iter([("name", "Moe")]);
        assert_eq!(props.to_string(), "{name: \"Moe\"}");
        assert_eq!(PropertyMap::new().to_string(), "{}");
    }
}
