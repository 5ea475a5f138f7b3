//! Runtime values and SQL comparison semantics.

use std::cmp::Ordering;
use std::fmt;

/// A runtime SQL value.
///
/// `Bool` never appears in stored records (there was no BOOLEAN column type
/// in 1988 SQL); it exists as the result type of predicate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL (unknown).
    Null,
    /// Result of a predicate; `Null` encodes the third truth value.
    Bool(bool),
    /// SMALLINT.
    SmallInt(i16),
    /// INTEGER.
    Int(i32),
    /// LARGEINT (Tandem's 64-bit integer).
    LargeInt(i64),
    /// DOUBLE PRECISION.
    Double(f64),
    /// CHAR(n) / VARCHAR(n) contents.
    Str(String),
}

impl Value {
    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as i64, if this value is an integer type.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::SmallInt(v) => Some(v as i64),
            Value::Int(v) => Some(v as i64),
            Value::LargeInt(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view as f64 (integers promote), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Double(v) => Some(v),
            _ => self.as_i64().map(|v| v as f64),
        }
    }

    /// String view, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL (unknown) or
    /// the values are not comparable (type error surfaces earlier, at bind
    /// time; this is a defensive fallback).
    ///
    /// CHAR comparison ignores trailing spaces, per SQL PAD SPACE semantics.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.trim_end_matches(' ').cmp(b.trim_end_matches(' '))),
            _ => {
                // Numeric comparison with promotion. Integer/integer stays
                // exact; any double forces a floating comparison.
                if let (Some(a), Some(b)) = (self.as_i64(), other.as_i64()) {
                    Some(a.cmp(&b))
                } else {
                    let (a, b) = (self.as_f64()?, other.as_f64()?);
                    a.partial_cmp(&b)
                }
            }
        }
    }

    /// Is `other` this value bit for bit: `==`, but a double compares by
    /// its bits, so `-0.0` is not `0.0` and a NaN is itself. What decides
    /// whether a stored value changed.
    pub fn is_identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }

    /// Approximate size of this value on the wire, in bytes. Used for
    /// message-byte accounting.
    pub fn wire_size(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::SmallInt(_) => 2,
            Value::Int(_) => 4,
            Value::LargeInt(_) | Value::Double(_) => 8,
            Value::Str(s) => 2 + s.len(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::SmallInt(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::LargeInt(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_compares_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn cross_width_integer_comparison_is_exact() {
        assert_eq!(
            Value::SmallInt(7).sql_cmp(&Value::LargeInt(7)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(-1).sql_cmp(&Value::LargeInt(i64::MAX)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn double_promotes_integers() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Double(3.0).sql_cmp(&Value::LargeInt(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn char_padding_is_insignificant() {
        assert_eq!(
            Value::Str("AB  ".into()).sql_cmp(&Value::Str("AB".into())),
            Some(Ordering::Equal)
        );
        // ... but interior spaces matter.
        assert_eq!(
            Value::Str("A B".into()).sql_cmp(&Value::Str("AB".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn wire_size_tracks_content() {
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Int(5).wire_size(), 5);
        assert_eq!(Value::Str("abcd".into()).wire_size(), 7);
    }
}
