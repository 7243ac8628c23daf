//! The scalar expression evaluator: bind once, then evaluate by ordinal.
//!
//! Every expression reaching this module was bound at plan time by
//! [`crate::bind`], so a column reference is a `(depth, ordinal)` pair and
//! the environment is nothing but rows: [`Env`] holds the evaluating
//! node's own input row and the rows of the enclosing query blocks,
//! innermost first — no schemas, no names, no per-row allocation. Column
//! values are read by reference; a comparison of two columns clones
//! neither. A sub-query is a plan bound with this environment's shape as
//! its outer scope, so its operators see the current row as depth 1.
//!
//! Predicate truth follows SQL three-valued logic: `NULL` comparisons
//! produce `NULL`, `AND`/`OR`/`NOT` use Kleene logic, and a `WHERE` clause
//! keeps a row only when the predicate is exactly `TRUE` ([`holds`]).
//! Resolution errors (unknown or ambiguous columns, unknown functions)
//! were raised by the binder; what remains here are data errors —
//! division by zero, type mismatches, a scalar sub-query with two rows.

use crate::bind::{AggCall, AggExpr, AggFunc, ArithOp, BoundExpr, CmpOp, Func, LikeOperand};
use crate::exec::ExecCtx;
use crate::physical;
use crate::plan::QueryPlan;
use prefsql_types::{DataType, Error, Result, Tuple, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// The rows an expression is evaluated against: the node's own input row
/// (depth 0) and the enclosing blocks' rows (depth 1.., innermost first).
#[derive(Debug, Clone, Copy)]
pub struct Env<'a> {
    /// The evaluating node's input row.
    row: &'a Tuple,
    /// The enclosing query blocks' current rows, innermost first.
    outer: &'a [&'a Tuple],
}

impl<'a> Env<'a> {
    /// `row` inside the enclosing rows `outer`.
    pub fn new(row: &'a Tuple, outer: &'a [&'a Tuple]) -> Self {
        Env { row, outer }
    }

    fn column(self, depth: usize, ordinal: usize) -> &'a Value {
        match depth {
            0 => &self.row[ordinal],
            d => &self.outer[d - 1][ordinal],
        }
    }

    /// The outer environment a sub-query evaluated here runs in.
    fn chain(self) -> Vec<&'a Tuple> {
        let mut rows = Vec::with_capacity(self.outer.len() + 1);
        rows.push(self.row);
        rows.extend_from_slice(self.outer);
        rows
    }
}

/// Evaluate `expr` in `env`.
pub fn eval(expr: &BoundExpr, env: Env<'_>, ctx: &ExecCtx<'_>) -> Result<Value> {
    value(expr, env, ctx).map(Cow::into_owned)
}

/// Evaluate a row of expressions in `env` into `out`, a reused buffer.
pub fn eval_row(exprs: &[BoundExpr], env: Env, ctx: &ExecCtx, out: &mut Vec<Value>) -> Result<()> {
    let mut push = |v| out.push(v);
    (exprs.iter()).try_for_each(|e| eval(e, env, ctx).map(&mut push))
}

/// Is `pred` exactly TRUE in `env` (the `WHERE` / `ON` / `HAVING` test)?
pub fn holds(pred: &BoundExpr, env: Env<'_>, ctx: &ExecCtx<'_>) -> Result<bool> {
    Ok(truth_of(pred, env, ctx)? == Some(true))
}

/// The value of a scalar expression — borrowed straight from the row or
/// the plan for columns and literals; predicates go through [`truth_of`].
fn value<'v>(e: &'v BoundExpr, env: Env<'v>, ctx: &ExecCtx<'_>) -> Result<Cow<'v, Value>> {
    Ok(Cow::Owned(match e {
        BoundExpr::Literal(v) => return Ok(Cow::Borrowed(v)),
        BoundExpr::Column { depth, ordinal } => {
            return Ok(Cow::Borrowed(env.column(*depth, *ordinal)))
        }
        BoundExpr::Neg(x) => value(x, env, ctx)?.neg()?,
        BoundExpr::Arith { op, left, right } => {
            let (l, r) = (value(left, env, ctx)?, value(right, env, ctx)?);
            match op {
                ArithOp::Add => l.add(&r)?,
                ArithOp::Sub => l.sub(&r)?,
                ArithOp::Mul => l.mul(&r)?,
                ArithOp::Div => l.div(&r)?,
            }
        }
        BoundExpr::ScalarSubquery(plan) => {
            let mut rows = run_subquery(plan, env, ctx)?;
            match rows.len() {
                0 => Value::Null,
                1 => {
                    if rows[0].len() != 1 {
                        return Err(Error::Exec(
                            "scalar sub-query must return exactly one column".into(),
                        ));
                    }
                    rows.swap_remove(0).into_values().swap_remove(0)
                }
                n => return Err(Error::Exec(format!("scalar sub-query returned {n} rows"))),
            }
        }
        BoundExpr::Case {
            operand,
            branches,
            else_result,
        } => {
            let op_val = operand.as_ref().map(|o| value(o, env, ctx)).transpose()?;
            for (when, then) in branches {
                let hit = match &op_val {
                    Some(ov) => ov.sql_eq(value(when, env, ctx)?.as_ref()) == Some(true),
                    None => truth_of(when, env, ctx)? == Some(true),
                };
                if hit {
                    return value(then, env, ctx);
                }
            }
            match else_result {
                Some(e) => return value(e, env, ctx),
                None => Value::Null,
            }
        }
        BoundExpr::Call { func, args } => return call(*func, args, env, ctx),
        predicate => truth_to_value(truth_of(predicate, env, ctx)?),
    }))
}

/// The SQL truth of an expression: predicates are decided without
/// building a [`Value`]; any other expression is evaluated and its value
/// read as a truth (non-boolean values are UNKNOWN).
fn truth_of(e: &BoundExpr, env: Env<'_>, ctx: &ExecCtx<'_>) -> Result<Option<bool>> {
    Ok(match e {
        BoundExpr::And(l, r) => {
            let a = truth_of(l, env, ctx)?;
            if a == Some(false) {
                return Ok(a);
            }
            three_and(a, truth_of(r, env, ctx)?)
        }
        BoundExpr::Or(l, r) => {
            let a = truth_of(l, env, ctx)?;
            if a == Some(true) {
                return Ok(a);
            }
            three_or(a, truth_of(r, env, ctx)?)
        }
        BoundExpr::Not(x) => match value(x, env, ctx)?.as_ref() {
            Value::Bool(b) => Some(!b),
            Value::Null => None,
            other => {
                return Err(Error::Type(format!(
                    "NOT expects a boolean, got {}",
                    other.type_name()
                )))
            }
        },
        BoundExpr::Compare { op, left, right } => {
            let (l, r) = (value(left, env, ctx)?, value(right, env, ctx)?);
            match op {
                CmpOp::Eq => l.sql_eq(&r),
                CmpOp::NotEq => l.sql_eq(&r).map(|b| !b),
                CmpOp::Lt => l.sql_cmp(&r).map(|o| o == Ordering::Less),
                CmpOp::LtEq => l.sql_cmp(&r).map(|o| o != Ordering::Greater),
                CmpOp::Gt => l.sql_cmp(&r).map(|o| o == Ordering::Greater),
                CmpOp::GtEq => l.sql_cmp(&r).map(|o| o != Ordering::Less),
            }
        }
        BoundExpr::IsNull { expr, negated } => Some(value(expr, env, ctx)?.is_null() != *negated),
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = value(expr, env, ctx)?;
            let lo = value(low, env, ctx)?;
            let hi = value(high, env, ctx)?;
            let ge = v.sql_cmp(&lo).map(|o| o != Ordering::Less);
            let le = v.sql_cmp(&hi).map(|o| o != Ordering::Greater);
            three_and(ge, le).map(|b| b != *negated)
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = value(expr, env, ctx)?;
            let mut candidates = list.iter().map(|item| value(item, env, ctx));
            membership(&v, &mut candidates)?.map(|b| b != *negated)
        }
        BoundExpr::InSubquery {
            expr,
            plan,
            negated,
        } => {
            let v = value(expr, env, ctx)?;
            let rows = run_subquery(plan, env, ctx)?;
            let mut candidates = rows.iter().map(|row| {
                if row.len() != 1 {
                    return Err(Error::Exec(
                        "IN sub-query must return exactly one column".into(),
                    ));
                }
                Ok(Cow::Borrowed(&row[0]))
            });
            membership(&v, &mut candidates)?.map(|b| b != *negated)
        }
        BoundExpr::Exists {
            plan,
            first_row,
            negated,
        } => Some(any_row(plan, *first_row, env, ctx)? != *negated),
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = value(expr, env, ctx)?;
            let matched = match pattern {
                LikeOperand::Fixed(p) => match v.as_ref() {
                    Value::Null => None,
                    Value::Str(s) => Some(p.matches(s)),
                    other => {
                        return Err(like_type_error(other.type_name(), DataType::Str.sql_name()))
                    }
                },
                LikeOperand::Dynamic(p) => match (v.as_ref(), value(p, env, ctx)?.as_ref()) {
                    (Value::Null, _) | (_, Value::Null) => None,
                    (Value::Str(s), Value::Str(p)) => Some(like_match(s, p)),
                    (a, b) => return Err(like_type_error(a.type_name(), b.type_name())),
                },
            };
            matched.map(|b| b != *negated)
        }
        scalar => truth(value(scalar, env, ctx)?.as_ref()),
    })
}

fn like_type_error(subject: &str, pattern: &str) -> Error {
    Error::Type(format!(
        "LIKE expects string operands, got {subject} and {pattern}"
    ))
}

/// SQL `IN`: TRUE on a match, else UNKNOWN if any comparison was, else
/// FALSE. Candidates are evaluated lazily, up to the first match.
fn membership<'v>(
    v: &Value,
    candidates: &mut dyn Iterator<Item = Result<Cow<'v, Value>>>,
) -> Result<Option<bool>> {
    let mut saw_null = false;
    for w in candidates {
        match v.sql_eq(w?.as_ref()) {
            Some(true) => return Ok(Some(true)),
            Some(false) => {}
            None => saw_null = true,
        }
    }
    Ok(if saw_null { None } else { Some(false) })
}

/// Run a sub-query to completion in `env` (one `subquery_evals` tick).
fn run_subquery(plan: &QueryPlan, env: Env<'_>, ctx: &ExecCtx<'_>) -> Result<Vec<Tuple>> {
    ctx.stats.borrow_mut().subquery_evals += 1;
    Ok(physical::execute(ctx, plan.root(), &env.chain())?.rows)
}

/// Does the `EXISTS` sub-query return a row in `env`? A `first_row` plan
/// is pulled one row at a time and stops at the first qualifying row
/// (real DBMSs do).
///
/// This per-row probe is what is left of `EXISTS` once the planner has
/// taken its share: a correlated `[NOT] EXISTS` that is a top-level AND
/// conjunct of a WHERE clause never gets here — it runs as a semi/anti
/// join ([`crate::join`]), built once per statement, probed match-first,
/// with a NULL or NaN correlation key meaning "no partner". What stays
/// is an uncorrelated `EXISTS` (one first-row probe per statement
/// already), one under OR, NOT, CASE or in a SELECT list, one over an
/// aggregate, DISTINCT or LIMIT, and one whose FROM reads the enclosing
/// row.
fn any_row(plan: &QueryPlan, first_row: bool, env: Env<'_>, ctx: &ExecCtx<'_>) -> Result<bool> {
    if !first_row {
        return Ok(!run_subquery(plan, env, ctx)?.is_empty());
    }
    ctx.stats.borrow_mut().subquery_evals += 1;
    let outer = env.chain();
    let mut op = physical::build(ctx, plan.root(), &outer);
    physical::any_row(op.as_mut())
}

fn call<'v>(
    func: Func,
    args: &'v [BoundExpr],
    env: Env<'v>,
    ctx: &ExecCtx<'_>,
) -> Result<Cow<'v, Value>> {
    let name = func.name();
    let arg = |i: usize| value(&args[i], env, ctx);
    Ok(Cow::Owned(match func {
        Func::Abs => arg(0)?.abs()?,
        Func::Lower | Func::Upper => match arg(0)?.as_ref() {
            Value::Null => Value::Null,
            Value::Str(s) if func == Func::Lower => Value::Str(s.to_lowercase()),
            Value::Str(s) => Value::Str(s.to_uppercase()),
            other => {
                return Err(Error::Type(format!(
                    "{name}() expects a string, got {}",
                    other.type_name()
                )))
            }
        },
        Func::Length => match arg(0)?.as_ref() {
            Value::Null => Value::Null,
            Value::Str(s) => Value::Int(s.chars().count() as i64),
            other => {
                return Err(Error::Type(format!(
                    "length() expects a string, got {}",
                    other.type_name()
                )))
            }
        },
        Func::Round | Func::Floor | Func::Ceil => match arg(0)?.as_ref() {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(*i),
            Value::Float(f) => Value::Float(match func {
                Func::Round => f.round(),
                Func::Floor => f.floor(),
                _ => f.ceil(),
            }),
            other => {
                return Err(Error::Type(format!(
                    "{name}() expects a number, got {}",
                    other.type_name()
                )))
            }
        },
        Func::Least | Func::Greatest => {
            let mut best: Option<Cow<'v, Value>> = None;
            for i in 0..args.len() {
                let v = arg(i)?;
                if v.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b) {
                            Some(o) => {
                                (func == Func::Least) == (o == Ordering::Less)
                                    && o != Ordering::Equal
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
            return Ok(best.expect("the binder rejects an empty argument list"));
        }
        Func::Coalesce => {
            for i in 0..args.len() {
                let v = arg(i)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Value::Null
        }
    }))
}

impl AggExpr {
    /// The expression's value over one group of an aggregate block whose
    /// input rows are `width` wide. `members` is empty only for the one
    /// global group of an aggregate over no rows; the residue then sees
    /// an all-NULL row.
    pub(crate) fn eval(
        &self,
        members: &[Tuple],
        width: usize,
        outer: &[&Tuple],
        ctx: &ExecCtx<'_>,
    ) -> Result<Value> {
        let mut row = match members.first() {
            Some(first) => first.values().to_vec(),
            None => vec![Value::Null; width],
        };
        for c in &self.calls {
            row.push(c.eval(members, outer, ctx)?);
        }
        eval(&self.residue, Env::new(&Tuple::new(row), outer), ctx)
    }
}

impl AggCall {
    fn eval(&self, members: &[Tuple], outer: &[&Tuple], ctx: &ExecCtx<'_>) -> Result<Value> {
        let Some(arg) = &self.arg else {
            return Ok(Value::Int(members.len() as i64));
        };
        let mut values = Vec::with_capacity(members.len());
        for row in members {
            let v = eval(arg, Env::new(row, outer), ctx)?;
            if !v.is_null() {
                values.push(v);
            }
        }
        let name = self.func.name();
        match self.func {
            AggFunc::Count => Ok(Value::Int(values.len() as i64)),
            AggFunc::Sum | AggFunc::Avg => {
                if values.is_empty() {
                    return Ok(Value::Null);
                }
                let mut acc = Value::Int(0);
                for v in &values {
                    acc = acc.add(v)?;
                }
                if self.func == AggFunc::Avg {
                    acc.coerce_to(DataType::Float)?
                        .div(&Value::Float(values.len() as f64))
                } else {
                    Ok(acc)
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let mut best: Option<Value> = None;
                for v in values {
                    best = Some(match best {
                        None => v,
                        Some(b) => match v.sql_cmp(&b) {
                            Some(Ordering::Less) if self.func == AggFunc::Min => v,
                            Some(Ordering::Greater) if self.func == AggFunc::Max => v,
                            Some(_) => b,
                            None => {
                                return Err(Error::Type(format!(
                                    "{name}() over incomparable values"
                                )))
                            }
                        },
                    });
                }
                Ok(best.unwrap_or(Value::Null))
            }
        }
    }
}

/// A `LIKE` pattern split once at its `%` wildcards into segments of
/// literal characters and `_` (any one character).
///
/// Matching is the greedy segment scan: the first segment is anchored at
/// the start, the last at the end, and every segment between takes its
/// leftmost match — which is never worse than a later one, because a `%`
/// follows it. That is O(|subject| · |pattern|) in the worst case and
/// allocates nothing; case-sensitive, over Unicode scalar values.
#[derive(Debug, Clone)]
pub struct LikePattern {
    segments: Vec<Vec<char>>,
}

impl LikePattern {
    /// Split `pattern` at its `%` wildcards.
    pub fn new(pattern: &str) -> Self {
        LikePattern {
            segments: pattern.split('%').map(|s| s.chars().collect()).collect(),
        }
    }

    /// Does `subject` match the whole pattern?
    pub fn matches(&self, subject: &str) -> bool {
        let (first, rest) = self
            .segments
            .split_first()
            .expect("split yields at least one segment");
        let Some((last, middle)) = rest.split_last() else {
            return strip_segment(first, subject) == Some("");
        };
        let Some(mut tail) = strip_segment(first, subject) else {
            return false;
        };
        for seg in middle {
            match find_segment(seg, tail) {
                Some(after) => tail = after,
                None => return false,
            }
        }
        ends_with_segment(last, tail)
    }
}

/// `s` after a prefix matching `seg`, if it starts with one.
fn strip_segment<'s>(seg: &[char], s: &'s str) -> Option<&'s str> {
    let mut chars = s.chars();
    for &p in seg {
        let c = chars.next()?;
        if p != '_' && p != c {
            return None;
        }
    }
    Some(chars.as_str())
}

/// `s` after the leftmost match of `seg`.
fn find_segment<'s>(seg: &[char], s: &'s str) -> Option<&'s str> {
    let mut from = s;
    loop {
        if let Some(after) = strip_segment(seg, from) {
            return Some(after);
        }
        let mut chars = from.chars();
        chars.next()?;
        from = chars.as_str();
    }
}

/// Does `s` end with a match of `seg`?
fn ends_with_segment(seg: &[char], s: &str) -> bool {
    let mut chars = s.chars();
    seg.iter()
        .rev()
        .all(|&p| chars.next_back().is_some_and(|c| p == '_' || p == c))
}

/// SQL `LIKE` with `%` (any sequence) and `_` (any single char),
/// case-sensitive, over Unicode scalar values.
pub fn like_match(s: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(s)
}

// ------------------------- three-valued logic helpers -------------------

/// SQL truth of a value: `Some(bool)` for BOOL, `None` for NULL and for
/// any non-boolean value.
pub fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn truth_to_value(t: Option<bool>) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind;
    use crate::exec::Engine;
    use prefsql_parser::parse_expression;
    use prefsql_types::{tuple, Column, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("price", DataType::Int).qualified("cars"),
            Column::new("make", DataType::Str).qualified("cars"),
            Column::new("rating", DataType::Float).qualified("cars"),
        ])
        .unwrap()
    }

    /// Bind `src` against `scope`, then evaluate it with `row` innermost
    /// and `outer` around it.
    fn run(src: &str, scope: &[&Schema], row: &Tuple, outer: &[&Tuple]) -> Result<Value> {
        let engine = Engine::new();
        let ctx = engine.read_ctx()?;
        let e = bind(&ctx, &parse_expression(src)?, scope)?;
        eval(&e, Env::new(row, outer), &ctx)
    }

    fn ev(src: &str, t: &Tuple) -> Result<Value> {
        run(src, &[&schema()], t, &[])
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
        let scope = [&inner_schema, &outer_schema];
        let (inner_t, outer_t) = (tuple![10], tuple![20]);
        let outer = [&outer_t];
        assert_eq!(
            run("a2.x < a1.x", &scope, &inner_t, &outer).unwrap(),
            Value::Bool(true)
        );
        // Unqualified resolves innermost-first.
        assert_eq!(run("x", &scope, &inner_t, &outer).unwrap(), Value::Int(10));
        assert_eq!(
            run("a1.x", &scope, &inner_t, &outer).unwrap(),
            Value::Int(20)
        );
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
    fn like_segments_anchor_and_never_overlap() {
        // The last segment is anchored at the end and may not reuse what
        // the first one consumed.
        assert!(!like_match("ab", "ab%b"));
        assert!(like_match("abb", "ab%b"));
        assert!(like_match("abcabc", "%bc%bc"));
        assert!(!like_match("abc", "%bc%bc"));
        assert!(!like_match("", "_"));
        assert!(like_match("é", "_"));
        assert!(like_match("naïve", "na_ve"));
        assert!(!like_match("Audi", "audi"), "case-sensitive");
        let t = Tuple::new(vec![Value::Int(1), Value::Null, Value::Float(1.0)]);
        assert_eq!(ev("make LIKE 'a%'", &t).unwrap(), Value::Null);
        assert!(ev("price LIKE 'a%'", &t).is_err());
    }

    /// `LIKE` is O(|subject| · |pattern|): a 200-character subject against
    /// a pattern that made the old recursive matcher retry every suffix
    /// per `%` (436 ms at 48 characters) answers at once.
    #[test]
    fn like_does_not_backtrack_exponentially() {
        let subject = "a".repeat(200);
        let started = std::time::Instant::now();
        assert!(!like_match(&subject, "%a%a%a%a%a%a%b"));
        assert!(like_match(&subject, "%a%a%a%a%a%a%a"));
        assert!(
            started.elapsed() < std::time::Duration::from_millis(200),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn division_errors_surface() {
        let t = tuple![1, "a", 1.0];
        assert!(ev("1 / 0", &t).is_err());
        assert_eq!(ev("price / 0.0", &t).unwrap(), Value::Float(f64::INFINITY));
    }
}
