//! Index access-path selection.
//!
//! "Having the right indices available current SQL optimizers can
//! efficiently process this SQL query" (paper §3.2) — this module is the
//! engine's version of that. The planner ([`crate::plan`]) puts every
//! bound filter on its input through `filter`, the one place an access
//! path is chosen: on a base-table scan, the conjuncts comparing a column
//! of the scanned row with a literal (sargs) pick an index probe or ride
//! on the scan, whose paged form skips the pages they rule out. The filter
//! still checks every row, so the choice never changes results. The A2
//! ablation benchmark flips [`crate::EngineCore::set_use_indexes`] to
//! measure the difference.
//!
//! An index probe yields its candidates in key order, and `sort`, the
//! one place an ORDER BY becomes a [`PlanNode::Sort`], reads that order:
//! over a chain of filters on such a probe, ascending keys that are a
//! prefix of it need no Sort, and LIMIT stops the probe after the rows it
//! keeps.

use crate::bind::{Bound, BoundExpr, CmpOp};
use crate::exec::ExecCtx;
use crate::plan::{PlanNode, SortKey};
use prefsql_parser::ast::{BinaryOp, Expr};
use prefsql_storage::Table;
use prefsql_types::{Result, Schema};
use std::mem::take;

pub use prefsql_storage::Sarg;

/// Split a predicate into its top-level AND conjuncts (the planner lifts
/// a WHERE's `[NOT] EXISTS` conjuncts into joins before binding it).
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

/// `pred`, bound over `input`'s row, as a [`PlanNode::Filter`] on
/// `input`. A base table's [`PlanNode::SeqScan`] first becomes the access
/// path `pred`'s sargs choose, if sargs are on: an index probe, or the
/// scan carrying the sargs.
pub(crate) fn filter(ctx: &ExecCtx<'_>, mut input: PlanNode, pred: Bound) -> Result<PlanNode> {
    if let (
        true,
        PlanNode::SeqScan {
            table,
            qualifier,
            sargs,
            mask,
            schema,
            ..
        },
    ) = (ctx.use_indexes(), &mut input)
    {
        *sargs = sargs_of(schema, &pred.expr);
        // The probe counter is bumped at operator open, not here: EXPLAIN
        // plans without executing and must not disturb the statistics.
        if let AccessPath::Index {
            row_ids,
            order,
            describe,
        } = choose_access_path(ctx.catalog().table(table)?, sargs)
        {
            input = PlanNode::IndexScan {
                table: take(table),
                qualifier: take(qualifier),
                row_ids,
                order,
                describe,
                mask: take(mask),
                schema: take(schema),
            };
        }
    }
    Ok(PlanNode::Filter {
        input: Box::new(input),
        pred,
    })
}

/// ORDER BY `keys` over `input`: a [`PlanNode::Sort`] that keeps the
/// first `limit` rows of the order (all of them when `None`), or `input`
/// itself when there are no keys or `input` already yields its rows in
/// their order — a chain of filters over an index probe whose key order
/// ([`PlanNode::IndexScan`]'s `order`) starts with the keys, each a bare
/// column of the row, ascending. A stable sort of rows already in key
/// order is the identity, ties included, so dropping it never changes
/// results. DESC keys, expressions, other columns and anything but a
/// filter between the keys and the probe keep the Sort.
pub(crate) fn sort(input: PlanNode, keys: Vec<SortKey>, limit: Option<u64>) -> PlanNode {
    let mut scan = &input;
    while let PlanNode::Filter { input, .. } = scan {
        scan = input;
    }
    let in_order = match scan {
        PlanNode::IndexScan { order, .. } => {
            keys.len() <= order.len() && keys.iter().zip(order).all(|(key, &col)| {
                key.asc
                    && matches!(key.key.expr, BoundExpr::Column { depth: 0, ordinal } if ordinal == col)
            })
        }
        _ => false,
    };
    if keys.is_empty() || in_order {
        return input;
    }
    PlanNode::Sort {
        input: Box::new(input),
        keys,
        limit,
    }
}

/// The sargs of `pred`, bound over a row `schema` describes, in conjunct
/// order: what index choice and paged-scan pruning both read.
fn sargs_of(schema: &Schema, pred: &BoundExpr) -> Vec<Sarg> {
    match pred {
        BoundExpr::And(left, right) => [sargs_of(schema, left), sargs_of(schema, right)].concat(),
        conjunct => sarg_of(conjunct, schema).into_iter().collect(),
    }
}

/// One conjunct as a sarg: a column of the row itself (depth 0) compared
/// with a non-NULL literal in either order, or non-negated `BETWEEN` two,
/// literals [normalised](Sarg::literal) to the column's type.
fn sarg_of(conjunct: &BoundExpr, schema: &Schema) -> Option<Sarg> {
    let column = |e: &BoundExpr| match e {
        BoundExpr::Column { depth: 0, ordinal } => Some(*ordinal),
        _ => None,
    };
    let literal = |col: usize, e: &BoundExpr| match e {
        BoundExpr::Literal(v) if !v.is_null() => {
            Some(Sarg::literal(v, schema.column(col).data_type))
        }
        _ => None,
    };
    let (col, low, high) = match conjunct {
        BoundExpr::Compare { op, left, right } => {
            // `col op literal`, or `literal op col` read the other way.
            let (col, value, column_left) = match column(left) {
                Some(c) => (c, literal(c, right)?, true),
                None => {
                    let c = column(right)?;
                    (c, literal(c, left)?, false)
                }
            };
            match (op, column_left) {
                (CmpOp::Eq, _) => return Some(Sarg::Eq { col, value }),
                (CmpOp::NotEq, _) => return None,
                (CmpOp::Gt | CmpOp::GtEq, true) | (CmpOp::Lt | CmpOp::LtEq, false) => {
                    (col, Some(value), None)
                }
                _ => (col, None, Some(value)),
            }
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let col = column(expr)?;
            (col, Some(literal(col, low)?), Some(literal(col, high)?))
        }
        _ => return None,
    };
    Some(Sarg::Range { col, low, high })
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
        /// The columns whose order the row ids come in (ascending, ties
        /// in the index's arrival order): a B-tree index's key columns,
        /// or a hash probe's column, on which every candidate ties.
        order: Vec<usize>,
        /// Human-readable probe description.
        describe: String,
    },
}

/// Choose an access path for `table` given the sargs of the filter on
/// its scan. Strict `>`/`<` bounds are widened to inclusive index ranges;
/// the residual predicate re-check (always applied by the caller)
/// restores exactness. No sargs means a full scan.
pub fn choose_access_path(table: &Table, sargs: &[Sarg]) -> AccessPath {
    // Prefer equality probes (hash, then B-tree), then ranges.
    for s in sargs {
        if let Sarg::Eq { col, value } = s {
            if let Some(idx) = table.find_hash_index(&[*col]) {
                return AccessPath::Index {
                    row_ids: idx.lookup(std::slice::from_ref(value)).to_vec(),
                    order: vec![*col],
                    describe: format!(
                        "hash index on {} = {value}",
                        table.schema().column(*col).name
                    ),
                };
            }
            if let Some(idx) = table.find_btree_index(*col) {
                return AccessPath::Index {
                    row_ids: idx.range(Some(value), Some(value)),
                    order: idx.key_columns().to_vec(),
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
                    order: idx.key_columns().to_vec(),
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
    //! Sargs read off bound predicates — bound through an [`ExecCtx`] as
    //! the planner binds a scan's filter — and the paths they choose.
    use super::*;
    use crate::bind::bind_over;
    use crate::exec::Engine;
    use prefsql_parser::parse_expression;
    use prefsql_storage::IndexKind;
    use prefsql_types::{tuple, Column, DataType, Date, Value};

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

    /// The sargs of `pred` bound over `schema`'s row inside the
    /// enclosing scopes `outer`.
    fn sargs(schema: &Schema, outer: &[&Schema], pred: &str) -> Vec<Sarg> {
        let engine = Engine::new();
        let ctx = engine.read_ctx().unwrap();
        let bound = bind_over(&ctx, &parse_expression(pred).unwrap(), schema, outer).unwrap();
        sargs_of(schema, &bound)
    }

    fn path(t: &Table, pred: &str) -> AccessPath {
        choose_access_path(t, &sargs(t.schema(), &[], pred))
    }

    #[test]
    fn equality_uses_hash_index() {
        let t = table_with_indexes();
        match path(&t, "make = 'audi'") {
            AccessPath::Index {
                row_ids,
                order,
                describe,
            } => {
                assert_eq!(row_ids, vec![0, 2]);
                assert_eq!(order, vec![1]);
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
            AccessPath::Index { row_ids, order, .. } => {
                // candidates with price in [25, 35], in price order: rows
                // 3 (25) and 1 (35)
                assert_eq!(row_ids, vec![3, 1]);
                assert_eq!(order, vec![2]);
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
        let outer = Schema::new(vec![Column::new("x", DataType::Int)])
            .unwrap()
            .with_qualifier("u");
        let of = |pred: &str| sargs(&schema, &[&outer], pred);
        let zero = Sarg::Eq {
            col: 0,
            value: Value::Float(0.0),
        };
        assert_eq!(of("x = 0"), vec![zero.clone()]);
        // `u.x` is the enclosing block's column, at depth 1.
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
        assert_eq!(of("x = NULL AND x NOT BETWEEN 1 AND 2"), vec![]);
    }

    #[test]
    fn conjunct_splitting() {
        let e = parse_expression("a = 1 AND (b = 2 AND c = 3) AND d > 4").unwrap();
        assert_eq!(conjuncts(&e).len(), 4);
        let single = parse_expression("a = 1 OR b = 2").unwrap();
        assert_eq!(conjuncts(&single).len(), 1);
    }
}
