//! Runtime values flowing through queries, updates, and cached results.
//!
//! The paper's query/update model (§2.1) only requires values that support
//! the five comparison operators `{<, <=, >, >=, =}`, so `Value` carries a
//! total order. Floating-point values are wrapped so that equality and
//! hashing are well-defined (NaN is rejected at construction).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A finite, totally ordered `f64`.
///
/// Construction rejects NaN so that `Eq`/`Ord`/`Hash` are coherent. `-0.0`
/// is canonicalized to `0.0` so equal values hash identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Real(f64);

impl Real {
    /// Wraps a float, canonicalizing `-0.0`; returns `None` for NaN.
    pub fn new(v: f64) -> Option<Real> {
        if v.is_nan() {
            None
        } else if v == 0.0 {
            Some(Real(0.0))
        } else {
            Some(Real(v))
        }
    }

    /// The underlying float.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for Real {}

impl PartialOrd for Real {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Real {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Hash for Real {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for Real {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.fract() == 0.0 && self.0.abs() < 1e15 {
            // Keep a trailing ".0" so the canonical text round-trips as Real.
            write!(f, "{:.1}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A SQL value.
///
/// Values are totally ordered (needed for order-by and range predicates) and
/// hashable (needed for cache keys and group-by). Cross-type comparisons
/// order by type tag first (`Int < Real < Str`), except that `Int` and
/// `Real` compare numerically, matching common SQL engines.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A finite, totally ordered float (see [`Real`]).
    Real(Real),
    /// A UTF-8 string.
    Str(String),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor for float values; panics on NaN.
    pub fn real(v: f64) -> Value {
        Value::Real(Real::new(v).expect("NaN is not a valid SQL value"))
    }

    /// Numeric view, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(r.get()),
            Value::Str(_) => None,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Int(_) | Value::Real(_) => 0,
            Value::Str(_) => 1,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => a.cmp(b),
            (Value::Int(a), Value::Real(b)) => (*a as f64).total_cmp(&b.get()),
            (Value::Real(a), Value::Int(b)) => a.get().total_cmp(&(*b as f64)),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Str(s) => {
                // SQL string literal with '' escaping.
                f.write_str("'")?;
                for (i, run) in s.split('\'').enumerate() {
                    if i > 0 {
                        f.write_str("''")?;
                    }
                    f.write_str(run)?;
                }
                f.write_str("'")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_rejects_nan() {
        assert!(Real::new(f64::NAN).is_none());
        assert!(Real::new(1.5).is_some());
    }

    #[test]
    fn real_canonicalizes_negative_zero() {
        let a = Real::new(0.0).unwrap();
        let b = Real::new(-0.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.get().to_bits(), b.get().to_bits());
    }

    #[test]
    fn int_real_compare_numerically() {
        assert_eq!(Value::Int(2).cmp(&Value::real(2.0)), Ordering::Equal);
        assert!(Value::Int(1) < Value::real(1.5));
        assert!(Value::real(2.5) > Value::Int(2));
    }

    #[test]
    fn strings_sort_after_numbers() {
        assert!(Value::Int(999) < Value::str("a"));
        assert!(Value::real(1e9) < Value::str(""));
    }

    #[test]
    fn display_escapes_quotes() {
        assert_eq!(Value::str("o'brien").to_string(), "'o''brien'");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::real(2.0).to_string(), "2.0");
    }

    #[test]
    fn ordering_is_total_on_samples() {
        let vals = [
            Value::Int(-1),
            Value::Int(0),
            Value::real(0.5),
            Value::Int(1),
            Value::str(""),
            Value::str("a"),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }
}
