//! Sargable conjuncts, and the per-page synopses paged scans check them
//! against.
//!
//! A [`Sarg`] is a WHERE conjunct of the form `column <op> literal`. The
//! engine extracts them once per scan; an index probe answers them, and
//! without an index a paged scan skips the heap pages whose
//! `Synopsis` — per column, the least and greatest value stored on the
//! page — shows that no row there can satisfy them all. Either way the
//! full predicate is still evaluated on every row that is read, so a sarg
//! only ever removes rows that would fail it.

use prefsql_types::{DataType, Tuple, Value};
use std::cmp::Ordering;

/// A sargable conjunct: one column of the scanned table compared with a
/// literal, normalised the way index keys and synopses hold the column's
/// values ([`Sarg::literal`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Sarg {
    /// `col = literal`
    Eq {
        /// Column position in the table schema.
        col: usize,
        /// The literal.
        value: Value,
    },
    /// `col >= low AND col <= high` (either bound may be open). Strict
    /// `<` / `>` conjuncts are widened to their inclusive bound.
    Range {
        /// Column position in the table schema.
        col: usize,
        /// Inclusive lower bound.
        low: Option<Value>,
        /// Inclusive upper bound.
        high: Option<Value>,
    },
}

impl Sarg {
    /// A literal compared with a column of type `ty`, as index keys and
    /// synopses hold that column's values: coerced where SQL coerces
    /// implicitly (INT into FLOAT, a string into DATE). A literal that
    /// does not coerce stays as it is — the comparison then never holds,
    /// or holds numerically, the same either way.
    pub fn literal(v: &Value, ty: DataType) -> Value {
        v.coerce_to(ty).unwrap_or_else(|_| v.clone())
    }

    /// The column the conjunct constrains.
    pub fn col(&self) -> usize {
        match self {
            Sarg::Eq { col, .. } | Sarg::Range { col, .. } => *col,
        }
    }

    /// The inclusive bounds the conjunct confines its column to (`None`
    /// is open).
    pub fn bounds(&self) -> (Option<&Value>, Option<&Value>) {
        match self {
            Sarg::Eq { value, .. } => (Some(value), Some(value)),
            Sarg::Range { low, high, .. } => (low.as_ref(), high.as_ref()),
        }
    }
}

/// Per column, the least and greatest comparable value any row placed on
/// one heap page has held, under [`Value::total_cmp`] — `None` when no
/// row has held one. NULL and NaN are left out. A synopsis only widens;
/// see [`crate::backend`] for when.
#[derive(Debug, Clone, Default)]
pub(crate) struct Synopsis(Vec<Option<(Value, Value)>>);

impl Synopsis {
    /// Widen to cover `row`. Takes the row by value so a bound moves in
    /// rather than being cloned: only a column's first value on the page
    /// is copied (it is both bounds).
    pub(crate) fn widen(&mut self, row: Tuple) {
        let values = row.into_values();
        if self.0.len() < values.len() {
            self.0.resize(values.len(), None);
        }
        for (bounds, v) in self.0.iter_mut().zip(values) {
            if v.is_null() || matches!(v, Value::Float(f) if f.is_nan()) {
                continue;
            }
            match bounds {
                None => *bounds = Some((v.clone(), v)),
                Some((min, max)) => {
                    if v.total_cmp(min) == Ordering::Less {
                        *min = v;
                    } else if v.total_cmp(max) == Ordering::Greater {
                        *max = v;
                    }
                }
            }
        }
    }

    /// May some row of the page make every conjunct in `sargs` TRUE?
    ///
    /// Soundness: a row satisfies `col` in `[low, high]` only if
    /// `sql_cmp` finds its value comparable with both bounds, which rules
    /// out NULL and NaN — the values a synopsis leaves out, so a column
    /// with no bounds (`None`) can satisfy no conjunct. Wherever
    /// `sql_cmp` is defined, `total_cmp` agrees with it (`-0.0` equals
    /// `0.0`, INT against FLOAT is exact). Hence `max < low` or
    /// `min > high` means no row on the page is inside the range, and
    /// the page can be skipped. An incomparable literal makes the
    /// conjunct never TRUE, so skipping on it is sound too. A `false`
    /// here is therefore only ever given for pages whose every row the
    /// full predicate would reject.
    pub(crate) fn admits(&self, sargs: &[Sarg]) -> bool {
        sargs.iter().all(|s| {
            let Some(Some((min, max))) = self.0.get(s.col()) else {
                return false;
            };
            let (low, high) = s.bounds();
            low.map_or(true, |low| max.total_cmp(low) != Ordering::Less)
                && high.map_or(true, |high| min.total_cmp(high) != Ordering::Greater)
        })
    }
}

/// The page filter a paged scan runs through: it skips the slotted pages
/// whose synopsis admits no row for `sargs` (`Synopsis::admits`), and
/// counts the pages it read and skipped (EXPLAIN ANALYZE's
/// `pages_read=` / `pages_skipped=`). With no sargs it skips nothing;
/// the in-memory backend ignores it.
#[derive(Debug, Default)]
pub struct PageFilter<'a> {
    sargs: &'a [Sarg],
    /// Heap pages the scan read (each page of a jumbo chain counts).
    pub pages_read: u64,
    /// Slotted pages the scan skipped unread.
    pub pages_skipped: u64,
}

impl<'a> PageFilter<'a> {
    /// A filter skipping the pages no row of which can satisfy every
    /// conjunct in `sargs`.
    pub fn new(sargs: &'a [Sarg]) -> Self {
        PageFilter {
            sargs,
            ..PageFilter::default()
        }
    }

    /// Does the page `synopsis` describes have to be read? Counts it
    /// either way.
    pub(crate) fn reads(&mut self, synopsis: &Synopsis) -> bool {
        let read = synopsis.admits(self.sargs);
        if read {
            self.pages_read += 1;
        } else {
            self.pages_skipped += 1;
        }
        read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_types::tuple;

    fn range(col: usize, low: Option<Value>, high: Option<Value>) -> Sarg {
        Sarg::Range { col, low, high }
    }

    #[test]
    fn bounds_are_inclusive_and_skip_only_outside() {
        let mut s = Synopsis::default();
        for i in [5i64, 9, 7] {
            s.widen(tuple![i, format!("k{i}")]);
        }
        let int = |i: i64| Some(Value::Int(i));
        // At the page's min and max: read.
        assert!(s.admits(&[range(0, int(9), None)]));
        assert!(s.admits(&[range(0, None, int(5))]));
        assert!(s.admits(&[Sarg::Eq {
            col: 0,
            value: Value::Float(7.0)
        }]));
        // Past them: skip.
        assert!(!s.admits(&[range(0, int(10), None)]));
        assert!(!s.admits(&[range(0, None, int(4))]));
        // Inside them, a synopsis cannot see the gap: read.
        assert!(s.admits(&[range(0, int(6), int(6))]));
        // Every conjunct must admit; strings order bytewise.
        let k = |s: &str| Some(Value::str(s));
        assert!(s.admits(&[range(1, k("k5"), k("k6")), range(0, int(0), None)]));
        assert!(!s.admits(&[range(1, k("k90"), None), range(0, int(0), None)]));
    }

    #[test]
    fn nulls_nans_and_negative_zero() {
        let mut s = Synopsis::default();
        s.widen(Tuple::new(vec![Value::Null, Value::Float(-0.0)]));
        s.widen(Tuple::new(vec![Value::Float(f64::NAN), Value::Float(0.0)]));
        // Column 0 holds no comparable value: no conjunct can hold.
        assert!(!s.admits(&[range(0, None, Some(Value::Float(f64::INFINITY)))]));
        // -0.0 and 0.0 are one value: `= 0` and `<= -0.0` both read them.
        let zero = Sarg::literal(&Value::Int(0), DataType::Float);
        assert_eq!(zero, Value::Float(0.0));
        assert!(s.admits(&[Sarg::Eq {
            col: 1,
            value: zero
        }]));
        let neg = Sarg::literal(&Value::Float(-0.0), DataType::Float);
        assert!(s.admits(&[range(1, None, Some(neg))]));
        // No sargs: every page is read.
        assert!(Synopsis::default().admits(&[]));
    }
}
