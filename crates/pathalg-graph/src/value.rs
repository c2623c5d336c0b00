//! Property values.
//!
//! The paper leaves the value set `V` abstract; practical property-graph
//! systems (Neo4j, Kùzu, MillenniumDB, …) support at least strings, integers,
//! floats, booleans and null. Selection conditions in the algebra compare
//! property values with `=`, `≠`, `<`, `>`, `≤`, `≥` (footnote 1 of the paper),
//! so [`Value`] provides a deterministic total order across types as well as
//! SQL-style typed comparison that only succeeds within a comparable type
//! family (numbers with numbers, strings with strings, …).

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

    /// Returns the value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
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

    /// A coarse type name, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
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

    /// Total ordering across all values, used where a deterministic order of
    /// heterogeneous values is needed (e.g. stable sorting of result rows).
    ///
    /// The order is: `Null < Bool < Int/Float (by numeric value) < Str`.
    /// `NaN` sorts after every other float.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let fa = a.as_float().unwrap_or(f64::NAN);
                let fb = b.as_float().unwrap_or(f64::NAN);
                fa.total_cmp(&fb)
            }
            (a, b) => rank(a).cmp(&rank(b)),
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
    fn total_order_is_deterministic_across_types() {
        let mut vs = vec![
            Value::str("z"),
            Value::Int(10),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
            Value::Bool(false),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(10),
                Value::str("z"),
            ]
        );
    }

    #[test]
    fn conversions_and_accessors() {
        let v: Value = 42i64.into();
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.as_float(), Some(42.0));
        let v: Value = "hello".into();
        assert_eq!(v.as_str(), Some("hello"));
        assert_eq!(v.type_name(), "string");
        let v: Value = true.into();
        assert_eq!(v, Value::Bool(true));
        assert_eq!(v.type_name(), "bool");
    }

    #[test]
    fn display_format() {
        assert_eq!(Value::str("Moe").to_string(), "\"Moe\"");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn nan_sorts_last_among_numbers() {
        let mut vs = [Value::Float(f64::NAN), Value::Float(1.0), Value::Int(3)];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vs[0], Value::Float(1.0));
        assert_eq!(vs[1], Value::Int(3));
        assert!(matches!(vs[2], Value::Float(x) if x.is_nan()));
    }
}
