//! The scalar expression evaluator.
//!
//! Expressions are evaluated against an *environment*: a stack of
//! `(schema, tuple)` frames, innermost first, so correlated sub-queries can
//! see the columns of enclosing query blocks (the paper's rewritten
//! `NOT EXISTS` predicates reference `A1.*` from inside the `A2` block).
//!
//! Predicate truth follows SQL three-valued logic: `NULL` comparisons
//! produce `NULL`, `AND`/`OR`/`NOT` use Kleene logic, and a `WHERE` clause
//! keeps a row only when the predicate is exactly `TRUE`.

use prefsql_parser::ast::{BinaryOp, Expr, Query, UnaryOp};
use prefsql_types::{Error, Result, Schema, Tuple, Value};

/// One name-resolution frame: the schema and current tuple of a query block.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The block's input schema.
    pub schema: &'a Schema,
    /// The current tuple.
    pub tuple: &'a Tuple,
}

/// Callback used to evaluate sub-queries; implemented by the executor.
pub trait SubqueryEval {
    /// Execute `query` with `frames` as the outer environment and return
    /// its rows.
    fn eval_subquery(&self, query: &Query, frames: &[Frame<'_>]) -> Result<Vec<Tuple>>;

    /// Does `query` return at least one row? Implementations may
    /// short-circuit after the first qualifying row (real DBMSs do for
    /// `EXISTS`, and the paper's `NOT EXISTS` rewrite leans on it).
    fn eval_subquery_exists(&self, query: &Query, frames: &[Frame<'_>]) -> Result<bool> {
        Ok(!self.eval_subquery(query, frames)?.is_empty())
    }
}

/// Evaluate `expr` in the environment `frames` (innermost first).
pub fn eval(expr: &Expr, frames: &[Frame<'_>], sq: &dyn SubqueryEval) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { qualifier, name } => {
            // Innermost frame wins; outer frames provide correlation.
            for frame in frames {
                if let Some(idx) = frame.schema.lookup(qualifier.as_deref(), name)? {
                    return Ok(frame.tuple[idx].clone());
                }
            }
            let shown = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.clone(),
            };
            Err(Error::Plan(format!("unknown column '{shown}'")))
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, frames, sq)?;
            match op {
                UnaryOp::Neg => v.neg(),
                UnaryOp::Not => Ok(truth_not(v)?),
            }
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, frames, sq),
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, frames, sq)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, frames, sq)?;
            let lo = eval(low, frames, sq)?;
            let hi = eval(high, frames, sq)?;
            let ge = sql_ge(&v, &lo);
            let le = sql_le(&v, &hi);
            let t = three_and(ge, le);
            Ok(truth_negate(t, *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, frames, sq)?;
            let mut saw_null = false;
            let mut found = false;
            for item in list {
                let w = eval(item, frames, sq)?;
                match v.sql_eq(&w) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            let t = if found {
                Some(true)
            } else if saw_null {
                None
            } else {
                Some(false)
            };
            Ok(truth_negate(t, *negated))
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let v = eval(expr, frames, sq)?;
            let rows = sq.eval_subquery(query, frames)?;
            let mut saw_null = false;
            let mut found = false;
            for row in &rows {
                if row.len() != 1 {
                    return Err(Error::Exec(
                        "IN sub-query must return exactly one column".into(),
                    ));
                }
                match v.sql_eq(&row[0]) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            let t = if found {
                Some(true)
            } else if saw_null {
                None
            } else {
                Some(false)
            };
            Ok(truth_negate(t, *negated))
        }
        Expr::Exists { query, negated } => {
            let any = sq.eval_subquery_exists(query, frames)?;
            Ok(Value::Bool(any != *negated))
        }
        Expr::ScalarSubquery(query) => {
            let rows = sq.eval_subquery(query, frames)?;
            match rows.len() {
                0 => Ok(Value::Null),
                1 => {
                    if rows[0].len() != 1 {
                        return Err(Error::Exec(
                            "scalar sub-query must return exactly one column".into(),
                        ));
                    }
                    Ok(rows[0][0].clone())
                }
                n => Err(Error::Exec(format!("scalar sub-query returned {n} rows"))),
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, frames, sq)?;
            let p = eval(pattern, frames, sq)?;
            match (&v, &p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => Ok(Value::Bool(like_match(s, pat) != *negated)),
                _ => Err(Error::Type(format!(
                    "LIKE expects string operands, got {} and {}",
                    v.type_name(),
                    p.type_name()
                ))),
            }
        }
        Expr::Case {
            operand,
            branches,
            else_result,
        } => {
            let op_val = operand.as_ref().map(|o| eval(o, frames, sq)).transpose()?;
            for (when, then) in branches {
                let hit = match &op_val {
                    Some(ov) => {
                        let wv = eval(when, frames, sq)?;
                        ov.sql_eq(&wv) == Some(true)
                    }
                    None => {
                        let wv = eval(when, frames, sq)?;
                        truth(&wv) == Some(true)
                    }
                };
                if hit {
                    return eval(then, frames, sq);
                }
            }
            match else_result {
                Some(e) => eval(e, frames, sq),
                None => Ok(Value::Null),
            }
        }
        Expr::Function { name, args } => eval_scalar_function(name, args, frames, sq),
        Expr::Wildcard => Err(Error::Plan("'*' is only valid inside COUNT(*)".into())),
    }
}

fn eval_binary(
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
    frames: &[Frame<'_>],
    sq: &dyn SubqueryEval,
) -> Result<Value> {
    // Kleene logic with short-circuiting for AND/OR.
    match op {
        BinaryOp::And => {
            let l = truth(&eval(left, frames, sq)?);
            if l == Some(false) {
                return Ok(Value::Bool(false));
            }
            let r = truth(&eval(right, frames, sq)?);
            return Ok(truth_to_value(three_and(l, r)));
        }
        BinaryOp::Or => {
            let l = truth(&eval(left, frames, sq)?);
            if l == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = truth(&eval(right, frames, sq)?);
            return Ok(truth_to_value(three_or(l, r)));
        }
        _ => {}
    }
    let l = eval(left, frames, sq)?;
    let r = eval(right, frames, sq)?;
    match op {
        BinaryOp::Plus => l.add(&r),
        BinaryOp::Minus => l.sub(&r),
        BinaryOp::Mul => l.mul(&r),
        BinaryOp::Div => l.div(&r),
        BinaryOp::Eq => Ok(truth_to_value(l.sql_eq(&r))),
        BinaryOp::NotEq => Ok(truth_to_value(l.sql_eq(&r).map(|b| !b))),
        BinaryOp::Lt => Ok(truth_to_value(
            l.sql_cmp(&r).map(|o| o == std::cmp::Ordering::Less),
        )),
        BinaryOp::LtEq => Ok(truth_to_value(
            l.sql_cmp(&r).map(|o| o != std::cmp::Ordering::Greater),
        )),
        BinaryOp::Gt => Ok(truth_to_value(
            l.sql_cmp(&r).map(|o| o == std::cmp::Ordering::Greater),
        )),
        BinaryOp::GtEq => Ok(truth_to_value(
            l.sql_cmp(&r).map(|o| o != std::cmp::Ordering::Less),
        )),
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

fn eval_scalar_function(
    name: &str,
    args: &[Expr],
    frames: &[Frame<'_>],
    sq: &dyn SubqueryEval,
) -> Result<Value> {
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(Error::Type(format!(
                "{name}() expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match name {
        "abs" => {
            arity(1)?;
            eval(&args[0], frames, sq)?.abs()
        }
        "lower" | "upper" => {
            arity(1)?;
            let v = eval(&args[0], frames, sq)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Str(if name == "lower" {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                })),
                other => Err(Error::Type(format!(
                    "{name}() expects a string, got {}",
                    other.type_name()
                ))),
            }
        }
        "length" => {
            arity(1)?;
            let v = eval(&args[0], frames, sq)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(Error::Type(format!(
                    "length() expects a string, got {}",
                    other.type_name()
                ))),
            }
        }
        "round" | "floor" | "ceil" => {
            arity(1)?;
            let v = eval(&args[0], frames, sq)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i)),
                Value::Float(f) => Ok(Value::Float(match name {
                    "round" => f.round(),
                    "floor" => f.floor(),
                    _ => f.ceil(),
                })),
                other => Err(Error::Type(format!(
                    "{name}() expects a number, got {}",
                    other.type_name()
                ))),
            }
        }
        "least" | "greatest" => {
            if args.is_empty() {
                return Err(Error::Type(format!("{name}() needs arguments")));
            }
            let mut best: Option<Value> = None;
            for a in args {
                let v = eval(a, frames, sq)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b) {
                            Some(o) => {
                                (name == "least") == (o == std::cmp::Ordering::Less)
                                    && o != std::cmp::Ordering::Equal
                            }
                            None => {
                                return Err(Error::Type(format!(
                                    "{name}() arguments are not comparable"
                                )))
                            }
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.expect("non-empty args"))
        }
        "coalesce" => {
            for a in args {
                let v = eval(a, frames, sq)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "count" | "sum" | "avg" | "min" | "max" => Err(Error::Plan(format!(
            "aggregate {name}() is not allowed in this context"
        ))),
        "top" | "level" | "distance" => Err(Error::Unsupported(format!(
            "quality function {name}() requires a PREFERRING clause and is \
             resolved by the Preference SQL rewriter — it cannot be executed \
             by the host SQL engine directly"
        ))),
        other => Err(Error::Plan(format!("unknown function '{other}'"))),
    }
}

/// SQL `LIKE` with `%` (any sequence) and `_` (any single char),
/// case-sensitive, over Unicode scalar values.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|k| rec(&s[k..], rest)),
            Some(('_', rest)) => !s.is_empty() && rec(&s[1..], rest),
            Some((c, rest)) => s.first() == Some(c) && rec(&s[1..], rest),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

// ------------------------- three-valued logic helpers -------------------

/// SQL truth of a value: `Some(bool)` for BOOL, `None` for NULL, error for
/// anything else is avoided by treating non-bool as an error at call sites
/// that require predicates; here non-bool non-null maps to `None`.
pub fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        _ => None,
    }
}

fn truth_to_value(t: Option<bool>) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn truth_not(v: Value) -> Result<Value> {
    match v {
        Value::Bool(b) => Ok(Value::Bool(!b)),
        Value::Null => Ok(Value::Null),
        other => Err(Error::Type(format!(
            "NOT expects a boolean, got {}",
            other.type_name()
        ))),
    }
}

fn truth_negate(t: Option<bool>, negated: bool) -> Value {
    truth_to_value(t.map(|b| b != negated))
}

fn three_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn three_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn sql_ge(a: &Value, b: &Value) -> Option<bool> {
    a.sql_cmp(b).map(|o| o != std::cmp::Ordering::Less)
}

fn sql_le(a: &Value, b: &Value) -> Option<bool> {
    a.sql_cmp(b).map(|o| o != std::cmp::Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_parser::parse_expression;
    use prefsql_types::{tuple, Column, DataType};

    struct NoSubqueries;
    impl SubqueryEval for NoSubqueries {
        fn eval_subquery(&self, _: &Query, _: &[Frame<'_>]) -> Result<Vec<Tuple>> {
            Err(Error::Plan("no sub-queries in this test".into()))
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("price", DataType::Int).qualified("cars"),
            Column::new("make", DataType::Str).qualified("cars"),
            Column::new("rating", DataType::Float).qualified("cars"),
        ])
        .unwrap()
    }

    fn ev(src: &str, t: &Tuple) -> Result<Value> {
        let e = parse_expression(src).unwrap();
        let s = schema();
        let frames = [Frame {
            schema: &s,
            tuple: t,
        }];
        eval(&e, &frames, &NoSubqueries)
    }

    #[test]
    fn arithmetic_and_columns() {
        let t = tuple![40_000, "audi", 4.5];
        assert_eq!(ev("price / 2 + 1", &t).unwrap(), Value::Int(20_001));
        assert_eq!(ev("ABS(price - 50000)", &t).unwrap(), Value::Int(10_000));
        assert_eq!(ev("cars.price", &t).unwrap(), Value::Int(40_000));
        assert_eq!(ev("-price", &t).unwrap(), Value::Int(-40_000));
    }

    #[test]
    fn comparisons_and_logic() {
        let t = tuple![40_000, "audi", 4.5];
        assert_eq!(
            ev("price > 30000 AND make = 'audi'", &t).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            ev("price < 30000 OR make = 'bmw'", &t).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(ev("NOT (make = 'bmw')", &t).unwrap(), Value::Bool(true));
        assert_eq!(
            ev("price BETWEEN 30000 AND 50000", &t).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            ev("make IN ('audi', 'bmw')", &t).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(ev("make NOT IN ('vw')", &t).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation_in_predicates() {
        let t = Tuple::new(vec![Value::Null, Value::str("audi"), Value::Float(4.5)]);
        assert_eq!(ev("price > 30000", &t).unwrap(), Value::Null);
        assert_eq!(
            ev("price > 30000 AND make = 'audi'", &t).unwrap(),
            Value::Null
        );
        // Kleene: NULL AND FALSE = FALSE, NULL OR TRUE = TRUE.
        assert_eq!(
            ev("price > 30000 AND make = 'bmw'", &t).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            ev("price > 30000 OR make = 'audi'", &t).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(ev("price IS NULL", &t).unwrap(), Value::Bool(true));
        assert_eq!(ev("price IS NOT NULL", &t).unwrap(), Value::Bool(false));
        // IN with NULL candidate: unknown unless found.
        assert_eq!(ev("price IN (1, 2)", &t).unwrap(), Value::Null);
        assert_eq!(ev("1 IN (1, price)", &t).unwrap(), Value::Bool(true));
        assert_eq!(ev("3 IN (1, price)", &t).unwrap(), Value::Null);
    }

    #[test]
    fn case_expressions() {
        let t = tuple![40_000, "audi", 4.5];
        assert_eq!(
            ev("CASE WHEN make = 'audi' THEN 1 ELSE 2 END", &t).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            ev("CASE make WHEN 'bmw' THEN 1 WHEN 'audi' THEN 2 END", &t).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            ev("CASE WHEN make = 'bmw' THEN 1 END", &t).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn scalar_functions() {
        let t = tuple![40_000, "Audi", 4.5];
        assert_eq!(ev("LOWER(make)", &t).unwrap(), Value::str("audi"));
        assert_eq!(ev("UPPER(make)", &t).unwrap(), Value::str("AUDI"));
        assert_eq!(ev("LENGTH(make)", &t).unwrap(), Value::Int(4));
        assert_eq!(ev("LEAST(3, 1, 2)", &t).unwrap(), Value::Int(1));
        assert_eq!(ev("GREATEST(3, 1, 2)", &t).unwrap(), Value::Int(3));
        assert_eq!(ev("COALESCE(NULL, 5)", &t).unwrap(), Value::Int(5));
        assert_eq!(ev("ROUND(rating)", &t).unwrap(), Value::Float(5.0));
        assert!(ev("NOSUCHFN(1)", &t).is_err());
    }

    #[test]
    fn quality_functions_rejected_by_engine() {
        let t = tuple![1, "a", 1.0];
        let err = ev("LEVEL(make)", &t).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "got {err:?}");
        assert!(ev("DISTANCE(price)", &t).is_err());
        assert!(ev("TOP(price)", &t).is_err());
    }

    #[test]
    fn unknown_column_reports_name() {
        let t = tuple![1, "a", 1.0];
        let err = ev("nope", &t).unwrap_err();
        assert!(err.to_string().contains("nope"));
        let err = ev("other.price", &t).unwrap_err();
        assert!(err.to_string().contains("other.price"));
    }

    #[test]
    fn outer_frame_resolution() {
        let inner_schema =
            Schema::new(vec![Column::new("x", DataType::Int).qualified("a2")]).unwrap();
        let outer_schema =
            Schema::new(vec![Column::new("x", DataType::Int).qualified("a1")]).unwrap();
        let inner_t = tuple![10];
        let outer_t = tuple![20];
        let frames = [
            Frame {
                schema: &inner_schema,
                tuple: &inner_t,
            },
            Frame {
                schema: &outer_schema,
                tuple: &outer_t,
            },
        ];
        let e = parse_expression("a2.x < a1.x").unwrap();
        assert_eq!(eval(&e, &frames, &NoSubqueries).unwrap(), Value::Bool(true));
        // Unqualified resolves innermost-first.
        let e = parse_expression("x").unwrap();
        assert_eq!(eval(&e, &frames, &NoSubqueries).unwrap(), Value::Int(10));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("audi", "au%"));
        assert!(like_match("audi", "%di"));
        assert!(like_match("audi", "a_d_"));
        assert!(like_match("audi", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("audi", "b%"));
        assert!(!like_match("audi", "a_d"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("xayb", "x%y_"));
        let t = tuple![1, "audi", 1.0];
        assert_eq!(ev("make LIKE 'au%'", &t).unwrap(), Value::Bool(true));
        assert_eq!(ev("make NOT LIKE 'b%'", &t).unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_errors_surface() {
        let t = tuple![1, "a", 1.0];
        assert!(ev("1 / 0", &t).is_err());
        assert_eq!(ev("price / 0.0", &t).unwrap(), Value::Float(f64::INFINITY));
    }
}
