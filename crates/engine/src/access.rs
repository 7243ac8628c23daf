//! Index access-path selection.
//!
//! "Having the right indices available current SQL optimizers can
//! efficiently process this SQL query" (paper §3.2) — this module is the
//! engine's version of that: given a single-table scan with a WHERE
//! predicate, find an equality or range conjunct that an existing index can
//! answer, and return the candidate row ids. The full predicate is always
//! re-evaluated on the candidates, so index selection is purely an
//! optimization and never changes results. The A2 ablation benchmark flips
//! [`crate::Engine::set_use_indexes`] to measure the difference.
//!
//! The planner ([`crate::plan`]) is the one caller of [`sargs`] and
//! [`choose_access_path`], for a SELECT's table and a DML target alike.

use prefsql_parser::ast::{BinaryOp, Expr};
use prefsql_storage::Table;
use prefsql_types::{Schema, Value};

pub use prefsql_storage::Sarg;

/// Split a predicate into its top-level AND conjuncts.
pub fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut v = conjuncts(left);
            v.extend(conjuncts(right));
            v
        }
        other => vec![other],
    }
}

/// The sargable conjuncts of `predicate` for a scan of one table whose
/// columns `schema` exposes (the table's schema under the scan's
/// qualifier), literals [normalised](Sarg::literal) to their column's
/// type. Index choice ([`choose_access_path`]) and paged-scan pruning
/// both read this one list.
pub fn sargs(schema: &Schema, predicate: Option<&Expr>) -> Vec<Sarg> {
    predicate.map_or_else(Vec::new, |pred| {
        conjuncts(pred)
            .into_iter()
            .filter_map(|c| sarg_of(c, schema))
            .collect()
    })
}

/// Try to interpret one conjunct as a sargable predicate over `schema`.
/// Only column references that resolve in it, compared against non-NULL
/// literals, qualify.
fn sarg_of(conjunct: &Expr, schema: &Schema) -> Option<Sarg> {
    let resolve = |e: &Expr| -> Option<usize> {
        match e {
            Expr::Column { qualifier, name } => schema.resolve(qualifier.as_deref(), name).ok(),
            _ => None,
        }
    };
    let literal = |col: usize, e: &Expr| -> Option<Value> {
        match e {
            Expr::Literal(v) if !v.is_null() => {
                Some(Sarg::literal(v, schema.column(col).data_type))
            }
            _ => None,
        }
    };
    match conjunct {
        Expr::Binary { left, op, right } => {
            // Normalize to column-op-literal.
            let (col, op, val) = if let Some(c) = resolve(left) {
                (c, *op, literal(c, right)?)
            } else {
                let c = resolve(right)?;
                (c, flip(*op)?, literal(c, left)?)
            };
            match op {
                BinaryOp::Eq => Some(Sarg::Eq { col, value: val }),
                BinaryOp::GtEq | BinaryOp::Gt => Some(Sarg::Range {
                    col,
                    low: Some(val),
                    high: None,
                }),
                BinaryOp::LtEq | BinaryOp::Lt => Some(Sarg::Range {
                    col,
                    low: None,
                    high: Some(val),
                }),
                _ => None,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let col = resolve(expr)?;
            Some(Sarg::Range {
                col,
                low: Some(literal(col, low)?),
                high: Some(literal(col, high)?),
            })
        }
        _ => None,
    }
}

fn flip(op: BinaryOp) -> Option<BinaryOp> {
    Some(match op {
        BinaryOp::Eq => BinaryOp::Eq,
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        _ => return None,
    })
}

/// The access path chosen for a table scan.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full sequential scan.
    SeqScan,
    /// Candidate row ids produced by an index probe; the description names
    /// the probe for EXPLAIN output.
    Index {
        /// Row ids to re-check against the full predicate.
        row_ids: Vec<usize>,
        /// Human-readable probe description.
        describe: String,
    },
}

/// Choose an access path for `table` given the [`sargs`] of its scan's
/// WHERE. Strict `>`/`<` bounds are widened to inclusive index ranges;
/// the residual predicate re-check (always applied by the caller)
/// restores exactness. No sargs means a full scan.
pub fn choose_access_path(table: &Table, sargs: &[Sarg]) -> AccessPath {
    // Prefer equality probes (hash, then B-tree), then ranges.
    for s in sargs {
        if let Sarg::Eq { col, value } = s {
            if let Some(idx) = table.find_hash_index(&[*col]) {
                return AccessPath::Index {
                    row_ids: idx.lookup(std::slice::from_ref(value)).to_vec(),
                    describe: format!(
                        "hash index on {} = {value}",
                        table.schema().column(*col).name
                    ),
                };
            }
            if let Some(idx) = table.find_btree_index(*col) {
                return AccessPath::Index {
                    row_ids: idx.range(Some(value), Some(value)),
                    describe: format!(
                        "btree index on {} = {value}",
                        table.schema().column(*col).name
                    ),
                };
            }
        }
    }
    // Merge range sargs per column so `x >= a AND x <= b` uses one probe.
    for s in sargs {
        if let Sarg::Range { col, low, high } = s {
            if let Some(idx) = table.find_btree_index(*col) {
                let (mut lo, mut hi) = (low.clone(), high.clone());
                for other in sargs {
                    if let Sarg::Range {
                        col: c2,
                        low: l2,
                        high: h2,
                    } = other
                    {
                        if c2 == col {
                            if lo.is_none() {
                                lo = l2.clone();
                            }
                            if hi.is_none() {
                                hi = h2.clone();
                            }
                        }
                    }
                }
                return AccessPath::Index {
                    row_ids: idx.range(lo.as_ref(), hi.as_ref()),
                    describe: format!(
                        "btree index on {} range [{}, {}]",
                        table.schema().column(*col).name,
                        lo.map(|v| v.to_string()).unwrap_or_else(|| "-inf".into()),
                        hi.map(|v| v.to_string()).unwrap_or_else(|| "+inf".into()),
                    ),
                };
            }
        }
    }
    AccessPath::SeqScan
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_parser::parse_expression;
    use prefsql_storage::IndexKind;
    use prefsql_types::{tuple, Column, DataType, Date};

    fn table_with_indexes() -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("make", DataType::Str),
            Column::new("price", DataType::Int),
        ])
        .unwrap();
        let mut t = Table::new("cars", schema);
        for (i, (m, p)) in [("audi", 40), ("bmw", 35), ("audi", 20), ("vw", 25)]
            .iter()
            .enumerate()
        {
            t.insert(tuple![i as i64, *m, *p]).unwrap();
        }
        t.create_index("i_make", &["make"], IndexKind::Hash)
            .unwrap();
        t.create_index("i_price", &["price"], IndexKind::BTree)
            .unwrap();
        t
    }

    fn path(t: &Table, pred: &str) -> AccessPath {
        let e = parse_expression(pred).unwrap();
        choose_access_path(t, &sargs(t.schema(), Some(&e)))
    }

    #[test]
    fn equality_uses_hash_index() {
        let t = table_with_indexes();
        match path(&t, "make = 'audi'") {
            AccessPath::Index { row_ids, describe } => {
                assert_eq!(row_ids, vec![0, 2]);
                assert!(describe.contains("hash index"));
            }
            other => panic!("expected index path, got {other:?}"),
        }
    }

    #[test]
    fn flipped_equality_also_matches() {
        let t = table_with_indexes();
        assert!(matches!(path(&t, "'bmw' = make"), AccessPath::Index { .. }));
    }

    #[test]
    fn range_uses_btree() {
        let t = table_with_indexes();
        match path(&t, "price >= 25 AND price <= 35") {
            AccessPath::Index { row_ids, .. } => {
                // candidates with price in [25, 35]: rows 1 (35) and 3 (25)
                let mut r = row_ids;
                r.sort_unstable();
                assert_eq!(r, vec![1, 3]);
            }
            other => panic!("expected index path, got {other:?}"),
        }
    }

    #[test]
    fn between_is_sargable() {
        let t = table_with_indexes();
        assert!(matches!(
            path(&t, "price BETWEEN 25 AND 35"),
            AccessPath::Index { .. }
        ));
    }

    #[test]
    fn equality_beats_range() {
        let t = table_with_indexes();
        match path(&t, "price > 10 AND make = 'vw'") {
            AccessPath::Index { describe, .. } => assert!(describe.contains("hash")),
            other => panic!("expected index path, got {other:?}"),
        }
    }

    #[test]
    fn unindexed_or_complex_predicates_seq_scan() {
        let t = table_with_indexes();
        assert_eq!(path(&t, "id = 3"), AccessPath::SeqScan); // no index on id
        assert_eq!(path(&t, "make = 'a' OR make = 'b'"), AccessPath::SeqScan);
        assert_eq!(path(&t, "make = price"), AccessPath::SeqScan); // not a literal
        assert_eq!(path(&t, "LENGTH(make) = 3"), AccessPath::SeqScan);
        assert_eq!(choose_access_path(&t, &[]), AccessPath::SeqScan);
    }

    #[test]
    fn literals_are_normalised_to_the_column_and_qualifiers_resolve() {
        let schema = Schema::new(vec![
            Column::new("x", DataType::Float),
            Column::new("d", DataType::Date),
        ])
        .unwrap()
        .with_qualifier("t");
        let of = |pred: &str| sargs(&schema, Some(&parse_expression(pred).unwrap()));
        let zero = Sarg::Eq {
            col: 0,
            value: Value::Float(0.0),
        };
        assert_eq!(of("x = 0"), vec![zero.clone()]);
        assert_eq!(of("t.x = -0.0 AND u.x = 1"), vec![zero]);
        assert_eq!(
            of("'2001-02-03' < d"),
            vec![Sarg::Range {
                col: 1,
                low: Some(Value::Date(Date::parse("2001-02-03").unwrap())),
                high: None,
            }]
        );
        assert_eq!(of("x = NULL OR x = 1"), vec![]);
    }

    #[test]
    fn conjunct_splitting() {
        let e = parse_expression("a = 1 AND (b = 2 AND c = 3) AND d > 4").unwrap();
        assert_eq!(conjuncts(&e).len(), 4);
        let single = parse_expression("a = 1 OR b = 2").unwrap();
        assert_eq!(conjuncts(&single).len(), 1);
    }
}
