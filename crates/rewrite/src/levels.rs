//! Level-column synthesis and dominance-condition construction.
//!
//! Every base preference contributes one computed column to the auxiliary
//! derived relation (the paper's `Makelevel`/`Diesellevel` CASE columns,
//! §3.2), such that **smaller column value = better tuple**:
//!
//! | base preference | column expression |
//! |-----------------|-------------------|
//! | `AROUND t`      | `ABS(e - t)` |
//! | `BETWEEN l, u`  | `CASE WHEN e IS NULL THEN NULL WHEN e < l THEN l - e WHEN e > u THEN e - u ELSE 0 END` |
//! | `LOWEST`        | `e` |
//! | `HIGHEST`       | `-(e)` |
//! | `POS (v...)`    | `CASE WHEN e IS NULL THEN NULL WHEN e IN (v...) THEN 1 ELSE 2 END` |
//! | `NEG (v...)`    | ... levels 1/2 swapped |
//! | `POS/POS`, `POS/NEG` | three-level CASE |
//! | `CONTAINS (t...)` | `1 +` one `CASE ... LIKE '%t%' THEN 0 ELSE 1` per term |
//! | `EXPLICIT`      | the raw attribute value (dominance uses the closure) |
//!
//! NULL attribute values produce NULL level columns; every dominance
//! comparison against NULL is UNKNOWN, so NULL-valued tuples are
//! incomparable — exactly the strict-partial-order semantics of the native
//! preference model.

use crate::compile::fold_const_for_sql;
use prefsql_parser::ast::{BinaryOp, Expr, PrefExpr, SelectItem, UnaryOp};
use prefsql_pref::{BasePref, PrefNode, Preference};
use prefsql_types::{Error, Result, Value};

/// Reserved prefix for generated columns and aliases; the facade strips
/// output columns carrying it.
pub const GEN_PREFIX: &str = "prefsql_";

/// Reject a user name (a column, a preference query's alias) carrying [`GEN_PREFIX`].
pub fn check_reserved<'n>(mut names: impl Iterator<Item = &'n str>) -> Result<()> {
    let Some(n) = names.find(|n| n.to_ascii_lowercase().starts_with(GEN_PREFIX)) else {
        return Ok(());
    };
    let msg = format!("'{n}' uses the reserved name prefix '{GEN_PREFIX}'");
    Err(Error::Unsupported(msg))
}

/// [`check_reserved`] over the aliases of a select list.
pub fn check_aliases(select: &[SelectItem]) -> Result<()> {
    check_reserved(select.iter().filter_map(|item| match item {
        SelectItem::Expr { alias, .. } => alias.as_deref(),
        _ => None,
    }))
}

/// Name of the level column for base-preference slot `i`.
pub fn level_column_name(slot: usize) -> String {
    format!("{GEN_PREFIX}p{slot}")
}

/// Name of the grouping column for grouping expression `j`.
pub fn grouping_column_name(j: usize) -> String {
    format!("{GEN_PREFIX}g{j}")
}

/// The level/distance column expression for one base-preference leaf of
/// the (registry-resolved) preference term.
pub fn level_column_expr(leaf: &PrefExpr) -> Result<Expr> {
    let in_list = |expr: &Expr, values: &[Value]| Expr::InList {
        expr: Box::new(expr.clone()),
        list: values.iter().map(|v| Expr::Literal(v.clone())).collect(),
        negated: false,
    };
    let null_guard = |expr: &Expr| {
        (
            Expr::IsNull {
                expr: Box::new(expr.clone()),
                negated: false,
            },
            Expr::Literal(Value::Null),
        )
    };
    match leaf {
        PrefExpr::Around { expr, target } => {
            let t = fold_const_for_sql(target)?;
            Ok(Expr::Function {
                name: "abs".into(),
                args: vec![Expr::binary(
                    expr.clone(),
                    BinaryOp::Minus,
                    Expr::Literal(t),
                )],
            })
        }
        PrefExpr::Between { expr, low, up } => {
            let l = Expr::Literal(fold_const_for_sql(low)?);
            let u = Expr::Literal(fold_const_for_sql(up)?);
            Ok(Expr::Case {
                operand: None,
                branches: vec![
                    null_guard(expr),
                    (
                        Expr::binary(expr.clone(), BinaryOp::Lt, l.clone()),
                        Expr::binary(l, BinaryOp::Minus, expr.clone()),
                    ),
                    (
                        Expr::binary(expr.clone(), BinaryOp::Gt, u.clone()),
                        Expr::binary(expr.clone(), BinaryOp::Minus, u),
                    ),
                ],
                else_result: Some(Box::new(Expr::lit(0))),
            })
        }
        PrefExpr::Lowest { expr } => Ok(expr.clone()),
        PrefExpr::Highest { expr } => Ok(Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(expr.clone()),
        }),
        PrefExpr::Pos { expr, values } => Ok(Expr::Case {
            operand: None,
            branches: vec![null_guard(expr), (in_list(expr, values), Expr::lit(1))],
            else_result: Some(Box::new(Expr::lit(2))),
        }),
        PrefExpr::Neg { expr, values } => Ok(Expr::Case {
            operand: None,
            branches: vec![null_guard(expr), (in_list(expr, values), Expr::lit(2))],
            else_result: Some(Box::new(Expr::lit(1))),
        }),
        PrefExpr::PosPos {
            expr,
            first,
            second,
        } => Ok(Expr::Case {
            operand: None,
            branches: vec![
                null_guard(expr),
                (in_list(expr, first), Expr::lit(1)),
                (in_list(expr, second), Expr::lit(2)),
            ],
            else_result: Some(Box::new(Expr::lit(3))),
        }),
        PrefExpr::PosNeg { expr, pos, neg } => Ok(Expr::Case {
            operand: None,
            branches: vec![
                null_guard(expr),
                (in_list(expr, pos), Expr::lit(1)),
                (in_list(expr, neg), Expr::lit(3)),
            ],
            else_result: Some(Box::new(Expr::lit(2))),
        }),
        PrefExpr::Contains { expr, terms } => {
            // 1 + Σ (term missing ? 1 : 0); NULL text yields NULL.
            let mut sum = Expr::lit(1);
            for t in terms {
                let like = Expr::Like {
                    expr: Box::new(expr.clone()),
                    pattern: Box::new(Expr::lit(format!("%{t}%"))),
                    negated: false,
                };
                let miss = Expr::Case {
                    operand: None,
                    branches: vec![(like, Expr::lit(0))],
                    else_result: Some(Box::new(Expr::lit(1))),
                };
                sum = Expr::binary(sum, BinaryOp::Plus, miss);
            }
            Ok(Expr::Case {
                operand: None,
                branches: vec![null_guard(expr)],
                else_result: Some(Box::new(sum)),
            })
        }
        // EXPLICIT keeps the raw value; dominance enumerates the closure.
        PrefExpr::Explicit { expr, .. } => Ok(expr.clone()),
        PrefExpr::Named(n) => Err(Error::Plan(format!(
            "named preference '{n}' must be resolved before level synthesis"
        ))),
        PrefExpr::Pareto(_) | PrefExpr::Prioritized(_) => Err(Error::Plan(
            "level columns are synthesized per base preference, not per \
             composite term"
                .into(),
        )),
    }
}

// -------------------------------------------------------------- dominance

fn qcol(qual: &str, slot: usize) -> Expr {
    Expr::qcol(qual, level_column_name(slot))
}

pub(crate) fn and(l: Expr, r: Expr) -> Expr {
    Expr::binary(l, BinaryOp::And, r)
}

pub(crate) fn or(l: Expr, r: Expr) -> Expr {
    Expr::binary(l, BinaryOp::Or, r)
}

pub(crate) fn and_all(mut parts: Vec<Expr>) -> Expr {
    match parts.len() {
        0 => Expr::lit(true),
        1 => parts.pop().expect("len checked"),
        _ => {
            let first = parts.remove(0);
            parts.into_iter().fold(first, and)
        }
    }
}

pub(crate) fn or_all(mut parts: Vec<Expr>) -> Expr {
    match parts.len() {
        0 => Expr::lit(false),
        1 => parts.pop().expect("len checked"),
        _ => {
            let first = parts.remove(0);
            parts.into_iter().fold(first, or)
        }
    }
}

pub(crate) fn both_null(a: Expr, b: Expr) -> Expr {
    and(
        Expr::IsNull {
            expr: Box::new(a),
            negated: false,
        },
        Expr::IsNull {
            expr: Box::new(b),
            negated: false,
        },
    )
}

/// SQL condition: the tuple bound to `winner` strictly dominates the tuple
/// bound to `loser` under the compiled preference (structural recursion
/// over the Pareto/prioritization tree, comparing level columns).
pub fn dominance_condition(pref: &Preference, winner: &str, loser: &str) -> Expr {
    node_better(pref, pref.root(), winner, loser)
}

fn node_better(pref: &Preference, node: &PrefNode, w: &str, l: &str) -> Expr {
    match node {
        PrefNode::Base { slot } => base_better(&pref.bases()[*slot], *slot, w, l),
        PrefNode::Pareto(children) => {
            // better-or-equiv in all children AND strictly better in one.
            let mut all = Vec::with_capacity(children.len());
            let mut one = Vec::with_capacity(children.len());
            for c in children {
                all.push(or(node_better(pref, c, w, l), node_equiv(c, w, l)));
                one.push(node_better(pref, c, w, l));
            }
            and(and_all(all), or_all(one))
        }
        PrefNode::Prioritized(children) => {
            // b1 OR (e1 AND b2) OR (e1 AND e2 AND b3) ...
            let mut disjuncts = Vec::with_capacity(children.len());
            let mut prefix_equiv: Vec<Expr> = Vec::new();
            for c in children {
                let mut conj = prefix_equiv.clone();
                conj.push(node_better(pref, c, w, l));
                disjuncts.push(and_all(conj));
                prefix_equiv.push(node_equiv(c, w, l));
            }
            or_all(disjuncts)
        }
    }
}

fn node_equiv(node: &PrefNode, w: &str, l: &str) -> Expr {
    match node {
        PrefNode::Base { slot } => base_equiv(*slot, w, l),
        PrefNode::Pareto(children) | PrefNode::Prioritized(children) => {
            and_all(children.iter().map(|c| node_equiv(c, w, l)).collect())
        }
    }
}

fn base_better(base: &BasePref, slot: usize, w: &str, l: &str) -> Expr {
    match base {
        BasePref::Explicit { .. } => {
            // Disjunction over the transitive closure:
            // (w = better AND l = worse) OR ...
            let pairs = base.explicit_closure();
            or_all(
                pairs
                    .into_iter()
                    .map(|(b, wv)| {
                        and(
                            Expr::binary(qcol(w, slot), BinaryOp::Eq, Expr::Literal(b)),
                            Expr::binary(qcol(l, slot), BinaryOp::Eq, Expr::Literal(wv)),
                        )
                    })
                    .collect(),
            )
        }
        _ => Expr::binary(qcol(w, slot), BinaryOp::Lt, qcol(l, slot)),
    }
}

/// Equivalence of two tuples at one base preference: equal level columns,
/// or both NULL (NULL-valued tuples are mutually substitutable, matching
/// the native model).
fn base_equiv(slot: usize, w: &str, l: &str) -> Expr {
    or(
        Expr::binary(qcol(w, slot), BinaryOp::Eq, qcol(l, slot)),
        both_null(qcol(w, slot), qcol(l, slot)),
    )
}

// ------------------------------------------------------ quality functions

/// `Some((function, args))` iff `expr` is itself a call of a quality
/// function (`TOP`/`LEVEL`/`DISTANCE`, §2.2.3).
pub fn quality_call(expr: &Expr) -> Option<(&str, &[Expr])> {
    match expr {
        Expr::Function { name, args } if matches!(name.as_str(), "top" | "level" | "distance") => {
            Some((name, args))
        }
        _ => None,
    }
}

/// True iff `expr` calls a quality function anywhere. Quality functions
/// need the optima over *all* candidates, which a materialized view's
/// stored winner set cannot answer — view definitions reject them and
/// view cache hits never serve them.
pub fn uses_quality(expr: &Expr) -> bool {
    quality_call(expr).is_some() || expr.children().into_iter().any(uses_quality)
}

/// Default output alias for a quality-function select item, e.g.
/// `LEVEL(color)` → `level_color` (keeps the adorned result readable).
pub fn default_quality_alias(expr: &Expr) -> Option<String> {
    let (func, args) = quality_call(expr)?;
    Some(match args.first() {
        Some(Expr::Column { name: col, .. }) => format!("{func}_{col}"),
        _ => func.to_string(),
    })
}

/// Which quality function applies to which base preference (§2.2.3):
/// `LEVEL` is categorical, `DISTANCE` numeric, `TOP` universal. Both
/// execution modes validate through this, so they raise the same error.
pub fn check_quality(func: &str, base: &BasePref) -> Result<()> {
    let numeric = matches!(
        base,
        BasePref::Around { .. } | BasePref::Between { .. } | BasePref::Lowest | BasePref::Highest
    );
    match func {
        "level" if numeric => Err(Error::Plan(
            "LEVEL() applies to categorical preferences; use DISTANCE() for \
             numeric preferences"
                .into(),
        )),
        "distance" if !numeric => Err(Error::Plan(
            "DISTANCE() applies to numeric preferences; use LEVEL() for \
             categorical preferences"
                .into(),
        )),
        "level" | "distance" | "top" => Ok(()),
        other => Err(Error::Plan(format!("unknown quality function '{other}'"))),
    }
}

/// Translate a `TOP`/`LEVEL`/`DISTANCE` call into an expression over the
/// level columns of the relation aliased `qual`. `aux` is the auxiliary
/// derived-table query, needed for the data-dependent optimum of
/// `LOWEST`/`HIGHEST` (emitted as a scalar `SELECT MIN(...)` sub-query).
pub fn quality_expr(
    func: &str,
    slot: usize,
    base: &BasePref,
    qual: &str,
    aux: &prefsql_parser::ast::Query,
) -> Result<Expr> {
    check_quality(func, base)?;
    let col = qcol(qual, slot);
    let min_subquery = || {
        let alias = format!("{GEN_PREFIX}a3");
        let q = prefsql_parser::ast::Query {
            select: vec![prefsql_parser::ast::SelectItem::Expr {
                expr: Expr::Function {
                    name: "min".into(),
                    args: vec![Expr::qcol(alias.clone(), level_column_name(slot))],
                },
                alias: None,
            }],
            from: vec![prefsql_parser::ast::TableRef::Derived {
                query: Box::new(aux.clone()),
                alias,
            }],
            ..Default::default()
        };
        Expr::ScalarSubquery(Box::new(q))
    };
    Ok(match (func, base) {
        ("level", BasePref::Explicit { .. }) => {
            // Map each known value to its depth in the closure DAG;
            // unmentioned values are undominated, hence level 1.
            let closure = base.explicit_closure();
            let mut values: Vec<Value> = Vec::new();
            for (b, w) in &closure {
                if !values.contains(b) {
                    values.push(b.clone());
                }
                if !values.contains(w) {
                    values.push(w.clone());
                }
            }
            // NULL stays NULL, like every other quality of an unknown
            // value (a simple `CASE col WHEN …` would send it to ELSE).
            let unknown = Expr::IsNull {
                expr: Box::new(col.clone()),
                negated: false,
            };
            let mut branches = vec![(unknown, Expr::Literal(Value::Null))];
            branches.extend(values.into_iter().map(|v| {
                let depth = base.level(&v).unwrap_or(1);
                let is_v = Expr::binary(col.clone(), BinaryOp::Eq, Expr::Literal(v));
                (is_v, Expr::lit(depth))
            }));
            Expr::Case {
                operand: None,
                branches,
                else_result: Some(Box::new(Expr::lit(1))),
            }
        }
        ("distance", BasePref::Lowest | BasePref::Highest) => {
            Expr::binary(col, BinaryOp::Minus, min_subquery())
        }
        // The level column *is* the categorical level / numeric distance.
        ("level" | "distance", _) => col,
        (_, BasePref::Around { .. } | BasePref::Between { .. }) => {
            Expr::binary(col, BinaryOp::Eq, Expr::lit(0))
        }
        (_, BasePref::Lowest | BasePref::Highest) => {
            Expr::binary(col, BinaryOp::Eq, min_subquery())
        }
        (_, BasePref::Explicit { .. }) => {
            // Top iff the value is never on the worse side of the closure.
            let closure = base.explicit_closure();
            let mut dominated: Vec<Value> = Vec::new();
            for (_, w) in closure {
                if !dominated.contains(&w) {
                    dominated.push(w);
                }
            }
            if dominated.is_empty() {
                return Ok(Expr::lit(true));
            }
            Expr::InList {
                expr: Box::new(col),
                list: dominated.into_iter().map(Expr::Literal).collect(),
                negated: true,
            }
        }
        _ => Expr::binary(col, BinaryOp::Eq, Expr::lit(1)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_parser::parse_expression;

    fn around_leaf() -> PrefExpr {
        PrefExpr::Around {
            expr: Expr::col("duration"),
            target: Box::new(Expr::lit(14)),
        }
    }

    #[test]
    fn around_level_is_abs_distance() {
        let e = level_column_expr(&around_leaf()).unwrap();
        assert_eq!(e.to_string(), "abs((duration - 14))");
    }

    #[test]
    fn around_date_target_emits_date_literal() {
        let leaf = PrefExpr::Around {
            expr: Expr::col("start_day"),
            target: Box::new(Expr::lit("1999/7/3")),
        };
        let e = level_column_expr(&leaf).unwrap();
        assert_eq!(e.to_string(), "abs((start_day - DATE '1999-07-03'))");
    }

    #[test]
    fn pos_level_is_the_paper_case_expression() {
        let leaf = PrefExpr::Pos {
            expr: Expr::col("make"),
            values: vec![Value::str("Audi")],
        };
        let e = level_column_expr(&leaf).unwrap();
        let printed = e.to_string();
        assert!(
            printed.contains("WHEN make IN ('Audi') THEN 1"),
            "{printed}"
        );
        assert!(printed.contains("ELSE 2"), "{printed}");
        assert!(printed.contains("make IS NULL THEN NULL"), "{printed}");
    }

    #[test]
    fn between_level_cases_both_sides() {
        let leaf = PrefExpr::Between {
            expr: Expr::col("price"),
            low: Box::new(Expr::lit(1500)),
            up: Box::new(Expr::lit(2000)),
        };
        let printed = level_column_expr(&leaf).unwrap().to_string();
        assert!(
            printed.contains("(price < 1500) THEN (1500 - price)"),
            "{printed}"
        );
        assert!(
            printed.contains("(price > 2000) THEN (price - 2000)"),
            "{printed}"
        );
        assert!(printed.contains("ELSE 0"), "{printed}");
    }

    #[test]
    fn contains_level_counts_misses() {
        let leaf = PrefExpr::Contains {
            expr: Expr::col("body"),
            terms: vec!["skyline".into()],
        };
        let printed = level_column_expr(&leaf).unwrap().to_string();
        assert!(printed.contains("LIKE '%skyline%'"), "{printed}");
    }

    #[test]
    fn level_exprs_parse_back() {
        // Everything we emit must be valid SQL for the host engine.
        for leaf in [
            around_leaf(),
            PrefExpr::Lowest {
                expr: Expr::col("mileage"),
            },
            PrefExpr::Highest {
                expr: Expr::col("power"),
            },
            PrefExpr::PosNeg {
                expr: Expr::col("category"),
                pos: vec![Value::str("roadster")],
                neg: vec![Value::str("passenger")],
            },
            PrefExpr::Contains {
                expr: Expr::col("body"),
                terms: vec!["a".into(), "b".into()],
            },
        ] {
            let e = level_column_expr(&leaf).unwrap();
            let printed = e.to_string();
            let reparsed = parse_expression(&printed)
                .unwrap_or_else(|err| panic!("reparse failed for {printed}: {err}"));
            assert_eq!(reparsed.to_string(), printed);
        }
    }

    #[test]
    fn composite_terms_rejected() {
        let composite = PrefExpr::Pareto(vec![around_leaf(), around_leaf()]);
        assert!(level_column_expr(&composite).is_err());
    }
}
