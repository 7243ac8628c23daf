//! Compile a parsed preference term ([`PrefExpr`]) into the semantic
//! [`Preference`] of `prefsql-pref` plus the list of attribute expressions
//! its base preferences score.
//!
//! The compiled form drives both execution paths:
//! * the **rewrite** path derives one level/distance column per base
//!   preference from `bases[i]` + `base_exprs[i]`;
//! * the **native** path (ablation baselines) evaluates `base_exprs[i]`
//!   per tuple into slot vectors and runs the BMO selection directly.

use prefsql_parser::ast::{BinaryOp, Expr, PrefExpr, UnaryOp};
use prefsql_pref::{BasePref, PrefNode, Preference};
use prefsql_types::{Date, Error, Result, Value};

/// A compiled complex preference.
#[derive(Debug, Clone)]
pub struct CompiledPreference {
    /// The semantic preference (strict partial order over slot vectors).
    pub preference: Preference,
    /// `base_exprs[i]` is the attribute expression scored by
    /// `preference.bases()[i]`.
    pub base_exprs: Vec<Expr>,
}

impl CompiledPreference {
    /// Find the slot whose base expression matches `expr` structurally
    /// (used to resolve `LEVEL(attr)` / `DISTANCE(attr)` / `TOP(attr)`).
    /// An unqualified column reference also matches a qualified base
    /// expression with the same column name.
    pub fn slot_of(&self, expr: &Expr) -> Option<usize> {
        if let Some(i) = self.base_exprs.iter().position(|e| e == expr) {
            return Some(i);
        }
        if let Expr::Column {
            qualifier: None,
            name,
        } = expr
        {
            return self
                .base_exprs
                .iter()
                .position(|e| matches!(e, Expr::Column { name: n, .. } if n == name));
        }
        None
    }

    /// The slot a quality-function call `func(args)` refers to — the one
    /// argument-count and attribute-match check both execution modes run.
    pub fn quality_slot(&self, func: &str, args: &[Expr]) -> Result<usize> {
        let [attr] = args else {
            return Err(Error::Rewrite(format!(
                "{func}() expects exactly one attribute argument"
            )));
        };
        self.slot_of(attr).ok_or_else(|| {
            Error::Rewrite(format!(
                "{func}({attr}) does not match any base preference of the \
                 PREFERRING clause"
            ))
        })
    }
}

/// Compile `pref` (with all [`PrefExpr::Named`] references already
/// resolved — see [`crate::PreferenceRegistry::resolve`]).
pub fn compile_preference(pref: &PrefExpr) -> Result<CompiledPreference> {
    let mut bases = Vec::new();
    let mut base_exprs = Vec::new();
    let root = build(pref, &mut bases, &mut base_exprs)?;
    let preference = Preference::new(root, bases)?;
    Ok(CompiledPreference {
        preference,
        base_exprs,
    })
}

fn build(
    pref: &PrefExpr,
    bases: &mut Vec<BasePref>,
    base_exprs: &mut Vec<Expr>,
) -> Result<PrefNode> {
    let mut leaf = |base: BasePref, expr: &Expr| -> PrefNode {
        let slot = bases.len();
        bases.push(base);
        base_exprs.push(expr.clone());
        PrefNode::Base { slot }
    };
    match pref {
        PrefExpr::Around { expr, target } => {
            let t = fold_numeric(target)?;
            Ok(leaf(BasePref::Around { target: t }, expr))
        }
        PrefExpr::Between { expr, low, up } => {
            let low = fold_numeric(low)?;
            let up = fold_numeric(up)?;
            Ok(leaf(BasePref::Between { low, up }, expr))
        }
        PrefExpr::Lowest { expr } => Ok(leaf(BasePref::Lowest, expr)),
        PrefExpr::Highest { expr } => Ok(leaf(BasePref::Highest, expr)),
        PrefExpr::Pos { expr, values } => Ok(leaf(
            BasePref::Pos {
                values: values.clone(),
            },
            expr,
        )),
        PrefExpr::Neg { expr, values } => Ok(leaf(
            BasePref::Neg {
                values: values.clone(),
            },
            expr,
        )),
        PrefExpr::PosPos {
            expr,
            first,
            second,
        } => Ok(leaf(
            BasePref::PosPos {
                first: first.clone(),
                second: second.clone(),
            },
            expr,
        )),
        PrefExpr::PosNeg { expr, pos, neg } => Ok(leaf(
            BasePref::PosNeg {
                pos: pos.clone(),
                neg: neg.clone(),
            },
            expr,
        )),
        PrefExpr::Explicit { expr, edges } => Ok(leaf(
            BasePref::Explicit {
                edges: edges.clone(),
            },
            expr,
        )),
        PrefExpr::Contains { expr, terms } => Ok(leaf(
            BasePref::Contains {
                terms: terms.clone(),
            },
            expr,
        )),
        PrefExpr::Named(name) => Err(Error::Plan(format!(
            "named preference '{name}' must be resolved against the \
             preference registry before compilation"
        ))),
        PrefExpr::Pareto(parts) => Ok(PrefNode::Pareto(
            parts
                .iter()
                .map(|p| build(p, bases, base_exprs))
                .collect::<Result<_>>()?,
        )),
        PrefExpr::Prioritized(parts) => Ok(PrefNode::Prioritized(
            parts
                .iter()
                .map(|p| build(p, bases, base_exprs))
                .collect::<Result<_>>()?,
        )),
    }
}

/// Constant-fold an expression into a number. `AROUND`/`BETWEEN` operands
/// must be constants: numeric literals, arithmetic over them, or date
/// strings / `DATE` literals (folded to their day count, matching the
/// engine's date arithmetic).
pub fn fold_numeric(expr: &Expr) -> Result<f64> {
    let v = fold_const(expr)?;
    match &v {
        Value::Str(s) => {
            let d = Date::parse(s).map_err(|_| {
                Error::Plan(format!(
                    "AROUND/BETWEEN operand '{s}' is neither a number nor a date"
                ))
            })?;
            Ok(d.days() as f64)
        }
        other => other.as_f64().ok_or_else(|| {
            Error::Plan(format!(
                "AROUND/BETWEEN operand must fold to a number, got {}",
                other.type_name()
            ))
        }),
    }
}

/// Constant-fold literals and arithmetic over literals.
pub fn fold_const(expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => fold_const(expr)?.neg(),
        Expr::Binary { left, op, right } => {
            let l = fold_const(left)?;
            let r = fold_const(right)?;
            match op {
                BinaryOp::Plus => l.add(&r),
                BinaryOp::Minus => l.sub(&r),
                BinaryOp::Mul => l.mul(&r),
                BinaryOp::Div => l.div(&r),
                other => Err(Error::Plan(format!(
                    "operator {} is not constant-foldable here",
                    other.sql()
                ))),
            }
        }
        other => Err(Error::Plan(format!(
            "expression '{other}' is not a constant"
        ))),
    }
}

/// The constant value a preference target folds to, for SQL emission:
/// date strings become `DATE` literals so the emitted SQL stays typed.
pub fn fold_const_for_sql(expr: &Expr) -> Result<Value> {
    let v = fold_const(expr)?;
    if let Value::Str(s) = &v {
        if let Ok(d) = Date::parse(s) {
            return Ok(Value::Date(d));
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_parser::{parse_statement, Statement};

    fn pref_of(sql: &str) -> PrefExpr {
        match parse_statement(sql).unwrap() {
            Statement::Select(q) => q.preferring.unwrap(),
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn compile_paper_opel_query() {
        let p = pref_of(
            "SELECT * FROM car PREFERRING (category = 'roadster' ELSE category <> 'passenger' \
             AND price AROUND 40000 AND HIGHEST(power)) \
             CASCADE color = 'red' CASCADE LOWEST(mileage);",
        );
        let c = compile_preference(&p).unwrap();
        assert_eq!(c.preference.arity(), 5);
        assert!(matches!(c.preference.bases()[0], BasePref::PosNeg { .. }));
        assert!(matches!(
            c.preference.bases()[1],
            BasePref::Around { target } if target == 40000.0
        ));
        assert!(matches!(c.preference.bases()[2], BasePref::Highest));
        assert!(matches!(c.preference.bases()[3], BasePref::Pos { .. }));
        assert!(matches!(c.preference.bases()[4], BasePref::Lowest));
        assert_eq!(c.base_exprs[0], Expr::col("category"));
        assert_eq!(c.base_exprs[4], Expr::col("mileage"));
    }

    #[test]
    fn slot_lookup_by_attribute() {
        let p = pref_of(
            "SELECT * FROM trips PREFERRING start_day AROUND '1999/7/3' AND duration AROUND 14;",
        );
        let c = compile_preference(&p).unwrap();
        assert_eq!(c.slot_of(&Expr::col("start_day")), Some(0));
        assert_eq!(c.slot_of(&Expr::col("duration")), Some(1));
        assert_eq!(c.slot_of(&Expr::col("nope")), None);
    }

    #[test]
    fn date_targets_fold_to_day_counts() {
        let p = pref_of("SELECT * FROM trips PREFERRING start_day AROUND '1999/7/3';");
        let c = compile_preference(&p).unwrap();
        let expected = Date::parse("1999-07-03").unwrap().days() as f64;
        assert!(matches!(
            c.preference.bases()[0],
            BasePref::Around { target } if target == expected
        ));
    }

    #[test]
    fn arithmetic_targets_fold() {
        let p = pref_of("SELECT * FROM t PREFERRING x AROUND 2 * (10 + 5);");
        let c = compile_preference(&p).unwrap();
        assert!(matches!(
            c.preference.bases()[0],
            BasePref::Around { target } if target == 30.0
        ));
    }

    #[test]
    fn non_constant_target_rejected() {
        let p = pref_of("SELECT * FROM t PREFERRING x AROUND y;");
        assert!(compile_preference(&p).is_err());
    }

    #[test]
    fn invalid_between_rejected() {
        let p = pref_of("SELECT * FROM t PREFERRING x BETWEEN 10, 5;");
        assert!(compile_preference(&p).is_err());
    }

    #[test]
    fn unresolved_named_preference_rejected() {
        let p = PrefExpr::Named("cheap".into());
        assert!(compile_preference(&p).is_err());
    }

    #[test]
    fn fold_const_for_sql_turns_date_strings_into_dates() {
        let v = fold_const_for_sql(&Expr::lit("1999/7/3")).unwrap();
        assert!(matches!(v, Value::Date(_)));
        let v = fold_const_for_sql(&Expr::lit(14)).unwrap();
        assert_eq!(v, Value::Int(14));
    }
}
