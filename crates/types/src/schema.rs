//! Relation schemas and column resolution.
//!
//! A [`Schema`] is an ordered list of [`Column`]s, each with a name, a
//! [`DataType`], nullability and an optional table qualifier. Column lookup
//! implements SQL name resolution: an unqualified name matches any column
//! with that name (ambiguity is an error), a qualified name `t.c` matches
//! only columns whose qualifier is `t`.

use crate::error::{Error, Result};
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::fmt;

/// A column of a relation schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lower-cased; SQL identifiers are case-insensitive).
    pub name: String,
    /// Declared data type.
    pub data_type: DataType,
    /// Whether NULLs are admitted.
    pub nullable: bool,
    /// Table alias or name this column is visible under, if any.
    pub qualifier: Option<String>,
}

impl Column {
    /// A nullable column without a qualifier.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into().to_ascii_lowercase(),
            data_type,
            nullable: true,
            qualifier: None,
        }
    }

    /// Mark the column NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }

    /// Attach a table qualifier.
    pub fn qualified(mut self, q: impl Into<String>) -> Self {
        self.qualifier = Some(q.into().to_ascii_lowercase());
        self
    }

    /// `qualifier.name` or bare `name`.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether `value` may be stored in this column (type + nullability).
    pub fn check_value(&self, value: &Value) -> Result<()> {
        match value {
            Value::Null if self.nullable => Ok(()),
            Value::Null => Err(Error::Type(format!("column '{}' is NOT NULL", self.name))),
            v => {
                let vt = v.data_type().expect("non-null value has a type");
                if self.data_type.accepts(vt) {
                    Ok(())
                } else {
                    Err(Error::Type(format!(
                        "column '{}' has type {} but value has type {}",
                        self.name,
                        self.data_type.sql_name(),
                        vt.sql_name()
                    )))
                }
            }
        }
    }
}

/// An ordered list of columns describing a relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// An empty schema.
    pub fn empty() -> Self {
        Schema { columns: vec![] }
    }

    /// Build a schema from columns. Duplicate fully-qualified names are
    /// rejected (two `a.x` columns), but the same bare name under different
    /// qualifiers is fine (`a.x`, `b.x` after a join).
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            for d in &columns[..i] {
                if c.name == d.name && c.qualifier == d.qualifier {
                    return Err(Error::Catalog(format!(
                        "duplicate column '{}'",
                        c.qualified_name()
                    )));
                }
            }
        }
        Ok(Schema { columns })
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True iff the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Resolve a possibly-qualified column reference to its index.
    ///
    /// Matching is case-insensitive. Unqualified names that match several
    /// columns are ambiguous; unknown names are a plan error.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        self.lookup(qualifier, name)?.ok_or_else(|| {
            let shown = match qualifier {
                Some(q) => format!("{q}.{name}").to_ascii_lowercase(),
                None => name.to_ascii_lowercase(),
            };
            Error::Plan(format!("unknown column '{shown}'"))
        })
    }

    /// [`Schema::resolve`] with a typed answer for "not here": `Ok(None)`
    /// when no column matches (the binder then tries the enclosing
    /// frame), `Err` only for an ambiguous reference.
    ///
    /// Allocation-free for the usual lower-case input: names are only
    /// lower-cased when they hold an ASCII upper-case byte, and the
    /// qualifier is compared only on a name hit. Every column is still
    /// visited, so an ambiguous reference is always detected.
    pub fn lookup(&self, qualifier: Option<&str>, name: &str) -> Result<Option<usize>> {
        let name = ascii_lower(name);
        let qualifier = qualifier.map(ascii_lower);
        let mut hit = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.name != *name {
                continue;
            }
            let qual_matches = match (&qualifier, &c.qualifier) {
                (None, _) => true,
                (Some(q), Some(cq)) => **q == *cq,
                (Some(_), None) => false,
            };
            if qual_matches {
                if hit.is_some() {
                    return Err(Error::Plan(format!("ambiguous column reference '{name}'")));
                }
                hit = Some(i);
            }
        }
        Ok(hit)
    }

    /// Re-qualify every column under a new table alias (used by `FROM t AS a`).
    pub fn with_qualifier(&self, q: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| {
                    let mut c = c.clone();
                    c.qualifier = Some(q.to_ascii_lowercase());
                    c
                })
                .collect(),
        }
    }

    /// Drop all qualifiers (used when a derived table's output becomes a
    /// fresh relation).
    pub fn without_qualifiers(&self) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| {
                    let mut c = c.clone();
                    c.qualifier = None;
                    c
                })
                .collect(),
        }
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }
}

/// `s` lower-cased, borrowed unless it holds an ASCII upper-case byte.
fn ascii_lower(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{} {}", c.qualified_name(), c.data_type.sql_name())?;
            if !c.nullable {
                f.write_str(" NOT NULL")?;
            }
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int)
                .not_null()
                .qualified("cars"),
            Column::new("make", DataType::Str).qualified("cars"),
            Column::new("price", DataType::Float).qualified("cars"),
        ])
        .unwrap()
    }

    #[test]
    fn resolve_unqualified_and_qualified() {
        let s = sample();
        assert_eq!(s.resolve(None, "make").unwrap(), 1);
        assert_eq!(s.resolve(Some("cars"), "price").unwrap(), 2);
        assert_eq!(s.resolve(Some("CARS"), "PRICE").unwrap(), 2);
    }

    #[test]
    fn unknown_and_wrong_qualifier() {
        let s = sample();
        assert!(s.resolve(None, "nope").is_err());
        assert!(s.resolve(Some("other"), "make").is_err());
    }

    #[test]
    fn ambiguous_reference_after_join() {
        let a = sample();
        let b = sample().with_qualifier("b");
        let j = a.join(&b);
        assert!(j.resolve(None, "make").is_err());
        assert_eq!(j.resolve(Some("b"), "make").unwrap(), 4);
        assert_eq!(j.resolve(Some("cars"), "make").unwrap(), 1);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            Column::new("x", DataType::Int),
            Column::new("x", DataType::Int),
        ]);
        assert!(r.is_err());
        // Same name, different qualifier is fine.
        let ok = Schema::new(vec![
            Column::new("x", DataType::Int).qualified("a"),
            Column::new("x", DataType::Int).qualified("b"),
        ]);
        assert!(ok.is_ok());
    }

    #[test]
    fn check_value_enforces_type_and_nullability() {
        let c = Column::new("n", DataType::Int).not_null();
        assert!(c.check_value(&Value::Int(1)).is_ok());
        assert!(c.check_value(&Value::Null).is_err());
        assert!(c.check_value(&Value::str("x")).is_err());
        let f = Column::new("f", DataType::Float);
        // INT stores into FLOAT.
        assert!(f.check_value(&Value::Int(1)).is_ok());
        assert!(f.check_value(&Value::Null).is_ok());
    }

    #[test]
    fn names_are_lowercased() {
        let c = Column::new("Price", DataType::Int).qualified("Cars");
        assert_eq!(c.name, "price");
        assert_eq!(c.qualifier.as_deref(), Some("cars"));
        assert_eq!(c.qualified_name(), "cars.price");
    }

    #[test]
    fn display_lists_columns() {
        let s = Schema::new(vec![Column::new("id", DataType::Int).not_null()]).unwrap();
        assert_eq!(s.to_string(), "(id INTEGER NOT NULL)");
    }
}
