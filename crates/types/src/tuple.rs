//! Tuples: ordered collections of [`Value`]s matching a [`Schema`].

use crate::error::Result;
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::ops::Index;

/// A row of values. Positionally aligned with some [`Schema`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the tuple has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Field at `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Concatenate two tuples (join output).
    pub fn join(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple { values }
    }

    /// Project the fields at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Validate the tuple against `schema` (arity, types, nullability).
    pub fn check_against(&self, schema: &Schema) -> Result<()> {
        if self.values.len() != schema.len() {
            return Err(crate::error::Error::Type(format!(
                "tuple has {} fields but schema {} has {}",
                self.values.len(),
                schema,
                schema.len()
            )));
        }
        for (v, c) in self.values.iter().zip(schema.columns()) {
            c.check_value(v)?;
        }
        Ok(())
    }

    /// Consume the tuple, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple![1, "audi", 39_999.5, Value::Null]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    #[test]
    fn join_concatenates() {
        let a = tuple![1, "x"];
        let b = tuple![2.5];
        let j = a.join(&b);
        assert_eq!(j.len(), 3);
        assert_eq!(j[0], Value::Int(1));
        assert_eq!(j[2], Value::Float(2.5));
    }

    #[test]
    fn project_reorders() {
        let t = tuple![10, 20, 30];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![30, 10]);
    }

    #[test]
    fn check_against_schema() {
        let s = Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("name", DataType::Str),
        ])
        .unwrap();
        assert!(tuple![1, "ok"].check_against(&s).is_ok());
        assert!(tuple![1].check_against(&s).is_err()); // arity
        assert!(tuple!["oops", "x"].check_against(&s).is_err()); // type
        let mut nullable_name = tuple![2, "y"].into_values();
        nullable_name[1] = Value::Null;
        assert!(Tuple::new(nullable_name).check_against(&s).is_ok());
    }

    #[test]
    fn display_renders_values() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, a)");
    }
}
