//! SQL values and data types with SQL92 comparison semantics, and the
//! one key contract every keyed structure uses.
//!
//! [`Value`] is the runtime representation used by the storage layer, the
//! expression evaluator and the preference model. Comparisons follow SQL's
//! three-valued logic (`NULL`-propagating [`Value::sql_eq`] /
//! [`Value::sql_cmp`]). [`Value::total_cmp`] is that comparison made
//! total, the order of `ORDER BY`: NULLs sort first and equal each other,
//! `-0.0` equals `0.0`, INT against FLOAT compares exactly, and NaN keeps
//! a rank of its own. [`Key`] orders, compares and hashes a sequence of
//! values by it — the one key type of `DISTINCT`, `GROUP BY`, the hash
//! join, `GROUPING`, the preference tag interning and both secondary
//! indexes, so each of them groups and matches exactly as SQL `=` does.

use crate::date::Date;
use crate::error::{Error, Result};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The SQL data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean truth values.
    Bool,
    /// 64-bit signed integers (`INTEGER`).
    Int,
    /// 64-bit IEEE-754 floats (`FLOAT` / `DOUBLE` / `NUMERIC`).
    Float,
    /// UTF-8 strings (`VARCHAR` / `TEXT`).
    Str,
    /// Calendar dates (`DATE`).
    Date,
}

impl DataType {
    /// SQL spelling of the type, used by `EXPLAIN` and error messages.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INTEGER",
            DataType::Float => "FLOAT",
            DataType::Str => "VARCHAR",
            DataType::Date => "DATE",
        }
    }

    /// True for INT and FLOAT.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// Whether a value of type `other` can be stored in a column of `self`
    /// (identity, or INT into FLOAT).
    pub fn accepts(self, other: DataType) -> bool {
        self == other || (self == DataType::Float && other == DataType::Int)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A runtime SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL (unknown).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// True iff the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's data type, or `None` for NULL (which is untyped).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Numeric view of the value: INT and FLOAT yield their magnitude,
    /// DATE yields its day count (so `AROUND '1999/7/3'` distances work),
    /// everything else is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(d.days() as f64),
            _ => None,
        }
    }

    /// Integer view (INT only).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view (BOOL only).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view (STR only).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL equality under three-valued logic: `None` if either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL ordering comparison under three-valued logic.
    ///
    /// Returns `None` if either side is NULL or NaN, or the types are
    /// incomparable (the engine's type checker rejects incomparable
    /// comparisons earlier; `None` here is a defensive fallback treated as
    /// UNKNOWN). INT against FLOAT compares exactly, not through `f64`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(i), Value::Float(f)) => int_float_cmp(*i, *f),
            (Value::Float(f), Value::Int(i)) => int_float_cmp(*i, *f).map(Ordering::reverse),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            // NULL, and every other pairing (dates only compare with
            // dates, not with bare numbers).
            _ => None,
        }
    }

    /// [`Value::sql_cmp`] made total, for sorting and every key: NULL
    /// first, then BOOL, the numbers, DATE and STR. NULL equals NULL, and
    /// `-0.0` equals `0.0`. A NaN sorts by its bits as in
    /// [`f64::total_cmp`] — above `+inf`, or below `-inf` when its sign
    /// bit is set — and equals only a NaN of the same bits. Wherever
    /// `sql_cmp` is `Some`, the two agree.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Date(_) => 3,
                Value::Str(_) => 4,
            }
        }
        match (self, other) {
            (Value::Float(a), Value::Float(b)) if a == b => Ordering::Equal,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            // A NaN is the one float `int_float_cmp` cannot place, and no
            // integer lies between the NaNs and the infinities.
            (Value::Int(i), Value::Float(f)) => {
                int_float_cmp(*i, *f).unwrap_or_else(|| 0.0f64.total_cmp(f))
            }
            (Value::Float(_), Value::Int(_)) => other.total_cmp(self).reverse(),
            (a, b) => a.sql_cmp(b).unwrap_or_else(|| rank(a).cmp(&rank(b))),
        }
    }

    /// SQL's "not distinct": equal under [`Value::total_cmp`] (NULLs
    /// equal, `-0.0` equals `0.0`, INT 1 equals FLOAT 1.0).
    pub fn key_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// SQL `+`.
    pub fn add(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// SQL `-`. Also supports DATE − DATE (day difference, INT) and
    /// DATE − INT (date shifted back).
    pub fn sub(&self, other: &Value) -> Result<Value> {
        let days = |a: &Date, b| checked(a.days().checked_sub(b), || format!("{self} - {other}"));
        match (self, other) {
            (Value::Date(a), Value::Date(b)) => days(a, b.days()).map(Value::Int),
            (Value::Date(a), Value::Int(b)) => days(a, *b).map(|d| Value::Date(Date::from_days(d))),
            _ => self.numeric_binop(other, "-", |a, b| a.checked_sub(b), |a, b| a - b),
        }
    }

    /// SQL `*`.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// SQL `/`. Integer division by zero is an execution error; float
    /// division follows IEEE-754.
    pub fn div(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(_), Value::Int(0)) => Err(Error::Exec("integer division by zero".into())),
            _ => self.numeric_binop(other, "/", |a, b| a.checked_div(b), |a, b| a / b),
        }
    }

    /// SQL unary minus.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(checked(i.checked_neg(), || format!("-({i})"))?)),
            Value::Float(f) => Ok(Value::Float(-f)),
            v => Err(Error::Type(format!(
                "cannot negate {} value",
                v.type_name()
            ))),
        }
    }

    /// SQL `ABS`.
    pub fn abs(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(checked(i.checked_abs(), || {
                format!("ABS({i})")
            })?)),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            v => Err(Error::Type(format!(
                "ABS expects a numeric argument, got {}",
                v.type_name()
            ))),
        }
    }

    fn numeric_binop(
        &self,
        other: &Value,
        op: &str,
        int_op: impl Fn(i64, i64) -> Option<i64>,
        float_op: impl Fn(f64, f64) -> f64,
    ) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => {
                checked(int_op(*a, *b), || format!("{a} {op} {b}")).map(Value::Int)
            }
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y))
                    if a.data_type().is_some_and(DataType::is_numeric)
                        && b.data_type().is_some_and(DataType::is_numeric) =>
                {
                    Ok(Value::Float(float_op(x, y)))
                }
                _ => Err(Error::Type(format!(
                    "operator {op} expects numeric operands, got {} and {}",
                    a.type_name(),
                    b.type_name()
                ))),
            },
        }
    }

    /// Human-readable type name for diagnostics (NULL included).
    pub fn type_name(&self) -> &'static str {
        match self.data_type() {
            None => "NULL",
            Some(t) => t.sql_name(),
        }
    }

    /// Coerce the value to `target` where SQL allows it implicitly
    /// (INT → FLOAT, string → DATE for date literals). Returns a type
    /// error otherwise.
    pub fn coerce_to(&self, target: DataType) -> Result<Value> {
        match (self, target) {
            (Value::Null, _) => Ok(Value::Null),
            (v, t) if v.data_type() == Some(t) => Ok(v.clone()),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            (Value::Str(s), DataType::Date) => Ok(Value::Date(Date::parse(s)?)),
            (v, t) => Err(Error::Type(format!(
                "cannot coerce {} to {}",
                v.type_name(),
                t.sql_name()
            ))),
        }
    }
}

/// `i` against `f`, exactly — `None` iff `f` is NaN. A float from 2^63
/// up is above every `i64`, one below -2^63 under every `i64`; in
/// between, its integral part fits an `i64`, so the integral parts decide
/// and then `f`'s fraction does.
fn int_float_cmp(i: i64, f: f64) -> Option<Ordering> {
    // `i64::MAX as f64` is exactly 2^63, `i64::MIN as f64` exactly -2^63.
    if f.is_nan() {
        None
    } else if f >= i64::MAX as f64 {
        Some(Ordering::Less)
    } else if f < i64::MIN as f64 {
        Some(Ordering::Greater)
    } else {
        let whole = f.trunc();
        let by_fraction = if f > whole {
            Ordering::Less
        } else if f < whole {
            Ordering::Greater
        } else {
            Ordering::Equal
        };
        Some(i.cmp(&(whole as i64)).then(by_fraction))
    }
}

/// An integer result, or the overflow error naming the operation
/// `what` describes.
fn checked(result: Option<i64>, what: impl FnOnce() -> String) -> Result<i64> {
    result.ok_or_else(|| Error::Exec(format!("integer overflow in {}", what())))
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // INT and FLOAT that compare key-equal must hash equally: hash
            // integral floats as their integer value (`-0.0` as 0; 2^63,
            // equal to no INT, shares `i64::MAX`'s hash, which is harmless).
            Value::Int(i) => {
                state.write_u8(2);
                i.hash(state);
            }
            Value::Float(f) => {
                if f.fract() == 0.0
                    && f.is_finite()
                    && *f >= i64::MIN as f64
                    && *f <= i64::MAX as f64
                {
                    state.write_u8(2);
                    (*f as i64).hash(state);
                } else {
                    state.write_u8(3);
                    f.to_bits().hash(state);
                }
            }
            Value::Date(d) => {
                state.write_u8(4);
                d.days().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(5);
                s.hash(state);
            }
        }
    }
}

/// A key over a sequence of values — a `DISTINCT` row, a `GROUP BY` or
/// `GROUPING` key, a join key, an index key, an interned slot value.
/// `Ord` is lexicographic by [`Value::total_cmp`] (a proper prefix sorts
/// first), and equality is that order's: [`Value::key_eq`] field by
/// field. `Hash` feeds each field's [`Value`] hash in turn, with no length
/// prefix; keys `Ord` calls equal hash equally.
///
/// A map holds `Key<'static>`s and is probed with a key borrowing the
/// probe's values (`Key::borrowed`), so a hit allocates nothing.
#[derive(Debug, Clone)]
pub struct Key<'a>(Cow<'a, [Value]>);

impl<'a> Key<'a> {
    /// A key borrowing `values`.
    pub fn borrowed(values: &'a [Value]) -> Self {
        Key(Cow::Borrowed(values))
    }

    /// A key owning `values`.
    pub fn owned(values: Vec<Value>) -> Key<'static> {
        Key(Cow::Owned(values))
    }

    /// The same key, owning its values (cloned if borrowed).
    pub fn into_owned(self) -> Key<'static> {
        Key::owned(self.0.into_owned())
    }

    /// The key's values, in order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }
}

impl Ord for Key<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.values(), other.values());
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    }
}

impl PartialOrd for Key<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in self.values() {
            v.hash(state);
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn null_propagates_through_comparison() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).sql_cmp(&Value::Int(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn incomparable_types_yield_unknown() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("1")), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
        let d = Value::Date(Date::from_days(10));
        assert_eq!(d.sql_cmp(&Value::Int(10)), None);
    }

    #[test]
    fn date_comparison_and_arithmetic() {
        let a = Value::Date(Date::parse("1999-07-03").unwrap());
        let b = Value::Date(Date::parse("1999-07-05").unwrap());
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Less));
        assert_eq!(b.sub(&a).unwrap(), Value::Int(2));
        assert_eq!(b.sub(&Value::Int(2)).unwrap(), a);
    }

    /// Negation, `ABS` and date subtraction overflow into an execution
    /// error too, not a panic (debug builds) or a wrapped result
    /// (release builds).
    #[test]
    fn unary_and_date_overflow_is_an_error() {
        let min = Value::Int(i64::MIN);
        let day = Value::Date(Date::from_days(0));
        for result in [
            min.neg(),
            min.abs(),
            day.sub(&Value::Int(i64::MIN)),
            Value::Date(Date::from_days(i64::MIN)).sub(&Value::Date(Date::from_days(1))),
        ] {
            let err = result.unwrap_err();
            assert!(err.to_string().contains("integer overflow"), "{err}");
        }
    }

    #[test]
    fn arithmetic_null_propagation() {
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(Value::Int(1).mul(&Value::Null).unwrap(), Value::Null);
        assert_eq!(Value::Null.abs().unwrap(), Value::Null);
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).sub(&Value::Int(1)).is_err());
    }

    #[test]
    fn division_by_zero() {
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        // Float division by zero is IEEE infinity, not an error.
        let v = Value::Float(1.0).div(&Value::Float(0.0)).unwrap();
        assert_eq!(v, Value::Float(f64::INFINITY));
    }

    #[test]
    fn mixed_arithmetic_promotes_to_float() {
        assert_eq!(
            Value::Int(1).add(&Value::Float(0.5)).unwrap(),
            Value::Float(1.5)
        );
    }

    #[test]
    fn strings_do_not_add() {
        assert!(Value::str("a").add(&Value::str("b")).is_err());
    }

    #[test]
    fn total_order_sorts_nulls_first() {
        let mut vs = vec![Value::Int(2), Value::Null, Value::Int(1)];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vs, vec![Value::Null, Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn key_eq_unifies_int_and_float() {
        assert!(Value::Int(5).key_eq(&Value::Float(5.0)));
        assert!(!Value::Int(5).key_eq(&Value::Float(5.5)));
        assert!(Value::Null.key_eq(&Value::Null));
    }

    #[test]
    fn hash_consistent_with_key_eq() {
        assert_eq!(hash_of(&Value::Int(5)), hash_of(&Value::Float(5.0)));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Int(0)));
    }

    #[test]
    fn signed_zeros_are_one_value() {
        let (neg, pos) = (Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(neg.total_cmp(&pos), Ordering::Equal);
        assert!(neg.key_eq(&Value::Int(0)));
        assert_eq!(neg.sql_cmp(&pos), Some(Ordering::Equal));
        // Nothing sits between them: they order like 0 against the rest.
        assert_eq!(
            neg.total_cmp(&Value::Float(-f64::MIN_POSITIVE)),
            Ordering::Greater
        );
        assert_eq!(
            pos.total_cmp(&Value::Float(f64::MIN_POSITIVE)),
            Ordering::Less
        );
    }

    #[test]
    fn int_against_float_is_exact() {
        let p53 = 1i64 << 53;
        let cmp = |i: i64, f: f64| Value::Int(i).total_cmp(&Value::Float(f));
        // `as f64` rounds 2^53 + 1 to 2^53; the comparison does not.
        assert_eq!(cmp(p53 + 1, p53 as f64), Ordering::Greater);
        assert_eq!(cmp(p53, p53 as f64), Ordering::Equal);
        assert_eq!(cmp(-p53 - 1, -p53 as f64), Ordering::Less);
        assert_eq!(
            Value::Int(p53 + 1).sql_eq(&Value::Float(p53 as f64)),
            Some(false)
        );
        // At the ends of i64: 2^63 is above every INT, -2^63 is i64::MIN.
        assert_eq!(cmp(i64::MAX, 9_223_372_036_854_775_808.0), Ordering::Less);
        assert_eq!(
            cmp(i64::MAX - 1, 9_223_372_036_854_775_808.0),
            Ordering::Less
        );
        assert_eq!(cmp(i64::MIN, -9_223_372_036_854_775_808.0), Ordering::Equal);
        assert_eq!(cmp(i64::MIN, f64::NEG_INFINITY), Ordering::Greater);
        // Fractions decide between equal integral parts, either sign.
        assert_eq!(cmp(2, 2.5), Ordering::Less);
        assert_eq!(cmp(-2, -2.5), Ordering::Greater);
        assert_eq!(cmp(0, -0.5), Ordering::Greater);
        // NaN: no SQL order; in the total order by its sign, as before.
        assert_eq!(Value::Int(1).sql_cmp(&Value::Float(f64::NAN)), None);
        assert_eq!(cmp(i64::MAX, f64::NAN), Ordering::Less);
        assert_eq!(cmp(i64::MIN, -f64::NAN), Ordering::Greater);
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert!(Value::str("x").coerce_to(DataType::Int).is_err());
        let d = Value::str("1999/7/3").coerce_to(DataType::Date).unwrap();
        assert_eq!(d, Value::Date(Date::parse("1999-07-03").unwrap()));
        assert_eq!(Value::Null.coerce_to(DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }

    fn hash_of(v: &impl Hash) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    /// Values at the edges of the key contract, or one step from one:
    /// INTs at ±2^53 and at the ends of i64 next to the FLOATs `as f64`
    /// makes of them (2^53 + 1 rounds to 2^53, i64::MAX to 2^63), both
    /// zeros, NaN of either sign, the infinities, a fraction, and NULL,
    /// BOOL, STR and DATE. Three draws in four are an edge as it is, so
    /// the pairs SQL calls equal, and the near misses, are common.
    fn arb_key_value() -> impl Strategy<Value = Value> {
        let p53 = 1i64 << 53;
        let mut edges = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::str(""),
            Value::str("a"),
            Value::Date(Date::from_days(0)),
            Value::Date(Date::from_days(1)),
        ];
        for i in [
            0,
            1,
            p53,
            p53 + 1,
            -p53 - 1,
            i64::MAX - 1,
            i64::MAX,
            i64::MIN,
        ] {
            edges.extend([Value::Int(i), Value::Float(i as f64)]);
        }
        for f in [
            -0.0,
            0.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            edges.push(Value::Float(f));
        }
        // The fourth draw steps one INT, or one float bit pattern (an
        // ulp; past ±0 and the infinities it reaches NaNs), away.
        (0..edges.len(), -1i64..=1, 0..4u8).prop_map(move |(i, step, nudge)| {
            match (&edges[i], nudge) {
                (Value::Int(n), 0) => Value::Int(n.saturating_add(step)),
                (Value::Float(f), 0) => Value::Float(f64::from_bits(
                    (f.to_bits() as i64).wrapping_add(step) as u64,
                )),
                (v, _) => v.clone(),
            }
        })
    }

    fn arb_key() -> impl Strategy<Value = Key<'static>> {
        proptest::collection::vec(arb_key_value(), 0..3).prop_map(Key::owned)
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::Float),
            "[a-z]{0,8}".prop_map(Value::Str),
            (-100_000i64..100_000).prop_map(|d| Value::Date(Date::from_days(d))),
        ]
    }

    proptest! {
        #[test]
        fn total_cmp_is_a_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
            // Antisymmetry.
            prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
            // Transitivity of <=.
            if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
                prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
            }
            // Reflexivity.
            prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        }

        #[test]
        fn sql_cmp_agrees_with_total_cmp_on_comparables(a in arb_value(), b in arb_value()) {
            if let Some(ord) = a.sql_cmp(&b) {
                prop_assert_eq!(ord, a.total_cmp(&b));
            }
        }

        #[test]
        fn key_eq_implies_equal_hash(a in arb_value(), b in arb_value()) {
            use std::collections::hash_map::DefaultHasher;
            fn h(v: &Value) -> u64 {
                let mut s = DefaultHasher::new();
                v.hash(&mut s);
                s.finish()
            }
            if a.key_eq(&b) {
                prop_assert_eq!(h(&a), h(&b));
            }
        }

        #[test]
        fn add_commutes_on_ints(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
            let x = Value::Int(a).add(&Value::Int(b)).unwrap();
            let y = Value::Int(b).add(&Value::Int(a)).unwrap();
            prop_assert_eq!(x, y);
        }
    }

    // The key contract's properties draw from a few dozen edge values,
    // so a given pair turns up about once per 700 cases: they run 4096
    // at least, which takes a fraction of a second.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn key_ord_is_a_total_order(a in arb_key(), b in arb_key(), c in arb_key()) {
            prop_assert_eq!(a.cmp(&a), Ordering::Equal);
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
            if a <= b && b <= c {
                prop_assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
            }
            if a == b && b == c {
                prop_assert!(a == c, "{a:?} = {b:?} = {c:?}");
            }
        }

        #[test]
        fn key_eq_is_ord_equal_and_implies_equal_hash(a in arb_key(), b in arb_key()) {
            prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
            prop_assert_eq!(a == b, a.values().len() == b.values().len()
                && a.values().iter().zip(b.values()).all(|(x, y)| x.key_eq(y)));
            if a == b {
                prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} = {:?}", a, b);
            }
        }

        #[test]
        fn key_values_sql_cmp_agrees_with_total_cmp(
            a in arb_key_value(), b in arb_key_value(), c in arb_key_value()
        ) {
            if let Some(ord) = a.sql_cmp(&b) {
                prop_assert_eq!(ord, a.total_cmp(&b), "{:?} vs {:?}", a, b);
            }
            // Transitivity of the one-value order on the edge values too.
            if a.total_cmp(&b).is_le() && b.total_cmp(&c).is_le() {
                prop_assert!(a.total_cmp(&c).is_le(), "{a:?} <= {b:?} <= {c:?}");
            }
        }
    }
}
