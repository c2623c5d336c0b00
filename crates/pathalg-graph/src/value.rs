//! Property values.
//!
//! The paper leaves the value set `V` abstract; practical property-graph
//! systems (Neo4j, Kùzu, MillenniumDB, …) support at least strings, integers,
//! floats, booleans and null. Selection conditions in the algebra compare
//! property values with `=`, `≠`, `<`, `>`, `≤`, `≥` (footnote 1 of the paper),
//! so [`Value`] provides SQL-style typed comparison that only succeeds within a
//! comparable type family (numbers with numbers, strings with strings, …).

use std::cmp::Ordering;
use std::fmt;

/// A property value attached to a node or an edge.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Absent / unknown value (the SQL NULL analogue).
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer value.
    Int(i64),
    /// 64-bit floating-point value.
    Float(f64),
    /// UTF-8 string value.
    Str(String),
}

impl Value {
    /// Builds a string value from anything convertible into a `String`.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Returns the value as a float, converting integers losslessly.
    pub(crate) fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style typed comparison.
    ///
    /// Returns `None` when the two values are not comparable: any comparison
    /// involving `Null`, or comparisons across type families (e.g. a string
    /// with an integer). Numbers compare across `Int` / `Float`.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Int(_), Float(_)) | (Float(_), Int(_)) | (Float(_), Float(_)) => {
                let a = self.as_float()?;
                let b = other.as_float()?;
                a.partial_cmp(&b)
            }
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_comparison_within_families() {
        assert_eq!(Value::Int(3).compare(&Value::Int(5)), Some(Ordering::Less));
        assert_eq!(
            Value::Float(2.5).compare(&Value::Int(2)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::str("Apu").compare(&Value::str("Moe")),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Bool(true).compare(&Value::Bool(true)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn cross_family_comparison_is_undefined() {
        assert_eq!(Value::Int(1).compare(&Value::str("1")), None);
        assert_eq!(Value::Bool(true).compare(&Value::Int(1)), None);
        assert_eq!(Value::Null.compare(&Value::Null), None);
        assert_eq!(Value::Null.compare(&Value::Int(0)), None);
    }

    #[test]
    fn condition_equality_follows_sql_null_semantics() {
        let eq = |a: Value, b: Value| a.compare(&b) == Some(Ordering::Equal);
        assert!(eq(Value::str("Moe"), Value::str("Moe")));
        assert!(!eq(Value::str("Moe"), Value::str("Apu")));
        assert!(!eq(Value::Null, Value::Null));
        assert!(eq(Value::Int(2), Value::Float(2.0)));
    }

    #[test]
    fn conversions_and_accessors() {
        let v: Value = 42i64.into();
        assert_eq!(v.as_float(), Some(42.0));
        let v: Value = "hello".into();
        assert_eq!(v.as_str(), Some("hello"));
        let v: Value = true.into();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn display_format() {
        assert_eq!(Value::str("Moe").to_string(), "\"Moe\"");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
