//! The binder: every expression the engine runs is resolved once, at plan
//! time, into a [`BoundExpr`].
//!
//! Binding lowers an AST [`Expr`] against a *scope chain* — the input
//! schema of the node that evaluates it, then the input schemas of the
//! enclosing query blocks, innermost first (the paper's rewritten `NOT
//! EXISTS` predicates reference `prefsql_a1.*` from inside the
//! `prefsql_a2` block). Afterwards nothing on the per-row path resolves a
//! name:
//!
//! * a column reference becomes `(depth, ordinal)` — depth 0 is the
//!   evaluating node's own input row, depth `d` the row of the `d`-th
//!   enclosing block;
//! * operators and scalar functions are pre-dispatched (an unknown
//!   function, an aggregate outside an aggregate context or a wrong
//!   arity is an error here, not on the first row);
//! * an `EXISTS` / `IN` / scalar sub-query becomes a child plan, planned
//!   once with the current scope chain as its outer scope, and an `EXISTS`
//!   probe learns here whether it may stop at its first row;
//! * a `LIKE` against a literal pattern is split into its `%`-separated
//!   segments once.
//!
//! Resolution is SQL's: the innermost frame that knows a name wins,
//! ambiguity is checked within one frame, and unknown or ambiguous
//! columns are plan errors — raised at bind time, so they surface at
//! `EXPLAIN`, over an empty table, and behind a short-circuited `AND` or a
//! never-taken `CASE` branch alike. [`crate::eval`] runs the result.

use crate::eval::LikePattern;
use crate::exec::ExecCtx;
use crate::plan::{plan_exists, plan_query_in, QueryPlan};
use crate::program::Program;
use prefsql_parser::ast::{BinaryOp, Expr, Query, UnaryOp};
use prefsql_types::{Error, Result, Schema, Value};
use std::fmt;
use std::sync::Arc;

/// An expression with every name resolved and every operator dispatched.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// A constant.
    Literal(Value),
    /// Column `ordinal` of the row `depth` frames out (0 = own input).
    Column {
        /// Frame depth: 0 = the evaluating node's input row, `d` = the
        /// `d`-th enclosing query block.
        depth: usize,
        /// Position in that frame's row.
        ordinal: usize,
    },
    /// Arithmetic negation.
    Neg(Box<BoundExpr>),
    /// Kleene `NOT`.
    Not(Box<BoundExpr>),
    /// Kleene `AND` (short-circuits on FALSE).
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Kleene `OR` (short-circuits on TRUE).
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// `+ - * /`.
    Arith {
        /// The operator.
        op: ArithOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// `= <> < <= > >=` under three-valued logic.
    Compare {
        /// The operator.
        op: CmpOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// IS NOT NULL.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Inclusive lower bound.
        low: Box<BoundExpr>,
        /// Inclusive upper bound.
        high: Box<BoundExpr>,
        /// NOT BETWEEN.
        negated: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// NOT IN.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// The sub-query, planned with this expression's scope as outer.
        plan: Arc<QueryPlan>,
        /// NOT IN.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// The sub-query — when `first_row`, already stripped to the
        /// streaming sub-tree a probe pulls one row from.
        plan: Arc<QueryPlan>,
        /// The probe may stop at its first row: the sub-query is a
        /// streaming scan/filter/join tree once its projection and sorts
        /// are stripped.
        first_row: bool,
        /// NOT EXISTS.
        negated: bool,
    },
    /// `(SELECT ...)` producing one value.
    ScalarSubquery(Arc<QueryPlan>),
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// The pattern: pre-split when it is a string literal.
        pattern: LikeOperand,
        /// NOT LIKE.
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        /// Simple-CASE operand.
        operand: Option<Box<BoundExpr>>,
        /// `(when, then)` branches.
        branches: Vec<(BoundExpr, BoundExpr)>,
        /// ELSE result.
        else_result: Option<Box<BoundExpr>>,
    },
    /// A scalar function call, arity already checked.
    Call {
        /// The function.
        func: Func,
        /// Its arguments.
        args: Vec<BoundExpr>,
    },
}

/// What a bound expression reads ([`BoundExpr::reads`]).
#[derive(Debug, Default)]
pub(crate) struct Reads {
    /// The frames it reads, one bit per depth (bit 0: its own input row;
    /// depths past 63 share bit 63).
    pub(crate) depths: u64,
    /// The ordinals it reads of its own input row, repeats included.
    pub(crate) own_columns: Vec<usize>,
}

/// The columns of their own row `exprs` read, as a mask over `width`
/// columns — or `None` (read them all) when one holds a sub-query, whose
/// plan may read the row through a correlated reference the mask cannot
/// see. What a scan that feeds only these expressions must decode.
pub(crate) fn columns_read<'e>(
    exprs: impl IntoIterator<Item = &'e BoundExpr>,
    width: usize,
) -> Option<Vec<bool>> {
    let mut mask = vec![false; width];
    for expr in exprs {
        for ordinal in expr.reads()?.own_columns {
            if let Some(read) = mask.get_mut(ordinal) {
                *read = true;
            }
        }
    }
    Some(mask)
}

impl BoundExpr {
    /// The frames and own-row columns this expression reads — `None`
    /// when it holds a sub-query, whose plan may read them through
    /// correlated references this walk does not see.
    pub(crate) fn reads(&self) -> Option<Reads> {
        let mut reads = Some(Reads::default());
        self.visit(&mut |e| match e {
            BoundExpr::Column { depth, ordinal } => {
                if let Some(r) = &mut reads {
                    r.depths |= 1 << (*depth).min(63);
                    if *depth == 0 {
                        r.own_columns.push(*ordinal);
                    }
                }
            }
            BoundExpr::Exists { .. }
            | BoundExpr::InSubquery { .. }
            | BoundExpr::ScalarSubquery(_) => reads = None,
            _ => {}
        });
        reads
    }

    /// Call `f` on this expression and every sub-expression, parents
    /// first. A sub-query is a leaf: its plan's expressions are not
    /// visited.
    pub(crate) fn visit<F: FnMut(&BoundExpr)>(&self, f: &mut F) {
        f(self);
        match self {
            BoundExpr::Literal(_)
            | BoundExpr::Column { .. }
            | BoundExpr::Exists { .. }
            | BoundExpr::ScalarSubquery(_) => {}
            BoundExpr::Neg(e)
            | BoundExpr::Not(e)
            | BoundExpr::IsNull { expr: e, .. }
            | BoundExpr::InSubquery { expr: e, .. } => e.visit(f),
            BoundExpr::And(a, b)
            | BoundExpr::Or(a, b)
            | BoundExpr::Arith {
                left: a, right: b, ..
            }
            | BoundExpr::Compare {
                left: a, right: b, ..
            } => {
                a.visit(f);
                b.visit(f);
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.visit(f);
                if let LikeOperand::Dynamic(p) = pattern {
                    p.visit(f);
                }
            }
            BoundExpr::Case {
                operand,
                branches,
                else_result,
            } => {
                for e in operand.iter().chain(else_result) {
                    e.visit(f);
                }
                for (w, t) in branches {
                    w.visit(f);
                    t.visit(f);
                }
            }
            BoundExpr::Call { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
        }
    }

    /// [`BoundExpr::visit`], handing out each node mutably.
    pub(crate) fn visit_mut<F: FnMut(&mut BoundExpr)>(&mut self, f: &mut F) {
        f(self);
        match self {
            BoundExpr::Literal(_)
            | BoundExpr::Column { .. }
            | BoundExpr::Exists { .. }
            | BoundExpr::ScalarSubquery(_) => {}
            BoundExpr::Neg(e)
            | BoundExpr::Not(e)
            | BoundExpr::IsNull { expr: e, .. }
            | BoundExpr::InSubquery { expr: e, .. } => e.visit_mut(f),
            BoundExpr::And(a, b)
            | BoundExpr::Or(a, b)
            | BoundExpr::Arith {
                left: a, right: b, ..
            }
            | BoundExpr::Compare {
                left: a, right: b, ..
            } => {
                a.visit_mut(f);
                b.visit_mut(f);
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.visit_mut(f);
                low.visit_mut(f);
                high.visit_mut(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.visit_mut(f);
                for e in list {
                    e.visit_mut(f);
                }
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.visit_mut(f);
                if let LikeOperand::Dynamic(p) = pattern {
                    p.visit_mut(f);
                }
            }
            BoundExpr::Case {
                operand,
                branches,
                else_result,
            } => {
                for e in operand.iter_mut().chain(else_result) {
                    e.visit_mut(f);
                }
                for (w, t) in branches {
                    w.visit_mut(f);
                    t.visit_mut(f);
                }
            }
            BoundExpr::Call { args, .. } => {
                for a in args {
                    a.visit_mut(f);
                }
            }
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

/// The pattern side of a `LIKE`.
#[derive(Debug, Clone)]
pub enum LikeOperand {
    /// A string literal, split once at bind time.
    Fixed(LikePattern),
    /// Anything else, evaluated (and split) per row.
    Dynamic(Box<BoundExpr>),
}

/// The scalar functions the host engine executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Func {
    Abs,
    Lower,
    Upper,
    Length,
    Round,
    Floor,
    Ceil,
    Least,
    Greatest,
    Coalesce,
}

impl Func {
    /// The SQL name (lower-case), as error messages show it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Func::Abs => "abs",
            Func::Lower => "lower",
            Func::Upper => "upper",
            Func::Length => "length",
            Func::Round => "round",
            Func::Floor => "floor",
            Func::Ceil => "ceil",
            Func::Least => "least",
            Func::Greatest => "greatest",
            Func::Coalesce => "coalesce",
        }
    }
}

/// The aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    fn parse(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }

    /// The SQL name (lower-case), as error messages show it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// One aggregate call of a block: `func(arg)` folded over each group's
/// rows, `arg: None` for `COUNT(*)`.
#[derive(Debug, Clone)]
pub(crate) struct AggCall {
    pub(crate) func: AggFunc,
    pub(crate) arg: Option<Bound>,
}

/// A bound expression together with its source, which is what `EXPLAIN`
/// prints (Display) for filters, join conditions and projections, and
/// the program it compiles to: the one form of every expression an
/// operator evaluates.
#[derive(Debug, Clone)]
pub struct Bound {
    /// The expression as written.
    pub source: Expr,
    /// What the operators evaluate.
    pub expr: BoundExpr,
    /// `expr`'s program, once the plan is compiled
    /// (`program::compile_plan`).
    pub prog: Program,
}

impl Bound {
    /// `expr`, written as `source`, not compiled yet.
    pub fn new(source: Expr, expr: BoundExpr) -> Self {
        Bound {
            source,
            expr,
            prog: Program::default(),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.source.fmt(f)
    }
}

/// Bind `expr` against `scope` (innermost first).
pub(crate) fn bind(ctx: &ExecCtx<'_>, expr: &Expr, scope: &[&Schema]) -> Result<BoundExpr> {
    Binder::new(ctx, scope).expr(expr)
}

/// Bind `expr` for a node whose input rows are described by `input`,
/// inside a block whose enclosing scopes are `outer`.
pub(crate) fn bind_over(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    input: &Schema,
    outer: &[&Schema],
) -> Result<BoundExpr> {
    bind(ctx, expr, &chain(input, outer))
}

/// [`bind_over`], keeping the source for `EXPLAIN`.
pub(crate) fn bind_shown(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    input: &Schema,
    outer: &[&Schema],
) -> Result<Bound> {
    Ok(Bound::new(
        expr.clone(),
        bind_over(ctx, expr, input, outer)?,
    ))
}

/// Bind an expression of an aggregate block (a SELECT item, HAVING, an
/// ORDER BY key over the group) over the block's aggregate row: the input
/// row extended with one column per entry of `calls`. Each aggregate call
/// — allowed at the top, not inside another's argument — is appended to
/// `calls` and reads the column of its entry.
pub(crate) fn bind_aggregate(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    input: &Schema,
    outer: &[&Schema],
    calls: &mut Vec<AggCall>,
) -> Result<BoundExpr> {
    let scope = chain(input, outer);
    let mut binder = Binder::new(ctx, &scope);
    binder.aggs = Some(calls);
    binder.expr(expr)
}

/// `input` followed by the enclosing scopes.
fn chain<'s>(input: &'s Schema, outer: &[&'s Schema]) -> Vec<&'s Schema> {
    let mut scope = Vec::with_capacity(outer.len() + 1);
    scope.push(input);
    scope.extend_from_slice(outer);
    scope
}

struct Binder<'a, 'c> {
    ctx: &'a ExecCtx<'c>,
    scope: &'a [&'a Schema],
    /// `Some` in an aggregate context: the block's calls so far.
    aggs: Option<&'a mut Vec<AggCall>>,
}

impl<'a, 'c> Binder<'a, 'c> {
    fn new(ctx: &'a ExecCtx<'c>, scope: &'a [&'a Schema]) -> Self {
        Binder {
            ctx,
            scope,
            aggs: None,
        }
    }

    fn boxed(&mut self, e: &Expr) -> Result<Box<BoundExpr>> {
        self.expr(e).map(Box::new)
    }

    fn expr(&mut self, e: &Expr) -> Result<BoundExpr> {
        Ok(match e {
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Column { qualifier, name } => self.column(qualifier.as_deref(), name)?,
            Expr::Unary { op, expr } => {
                let inner = self.boxed(expr)?;
                match op {
                    UnaryOp::Neg => BoundExpr::Neg(inner),
                    UnaryOp::Not => BoundExpr::Not(inner),
                }
            }
            Expr::Binary { left, op, right } => {
                let (left, right) = (self.boxed(left)?, self.boxed(right)?);
                let arith = |op, left, right| BoundExpr::Arith { op, left, right };
                match op {
                    BinaryOp::And => BoundExpr::And(left, right),
                    BinaryOp::Or => BoundExpr::Or(left, right),
                    BinaryOp::Plus => arith(ArithOp::Add, left, right),
                    BinaryOp::Minus => arith(ArithOp::Sub, left, right),
                    BinaryOp::Mul => arith(ArithOp::Mul, left, right),
                    BinaryOp::Div => arith(ArithOp::Div, left, right),
                    cmp => BoundExpr::Compare {
                        op: match cmp {
                            BinaryOp::Eq => CmpOp::Eq,
                            BinaryOp::NotEq => CmpOp::NotEq,
                            BinaryOp::Lt => CmpOp::Lt,
                            BinaryOp::LtEq => CmpOp::LtEq,
                            BinaryOp::Gt => CmpOp::Gt,
                            _ => CmpOp::GtEq,
                        },
                        left,
                        right,
                    },
                }
            }
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: self.boxed(expr)?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: self.boxed(expr)?,
                low: self.boxed(low)?,
                high: self.boxed(high)?,
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: self.boxed(expr)?,
                list: list.iter().map(|e| self.expr(e)).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => BoundExpr::InSubquery {
                expr: self.boxed(expr)?,
                plan: self.subquery(query)?,
                negated: *negated,
            },
            Expr::Exists { query, negated } => {
                let (plan, first_row) = plan_exists(self.ctx, query, self.scope)?;
                BoundExpr::Exists {
                    plan: Arc::new(plan),
                    first_row,
                    negated: *negated,
                }
            }
            Expr::ScalarSubquery(query) => BoundExpr::ScalarSubquery(self.subquery(query)?),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: self.boxed(expr)?,
                pattern: match pattern.as_ref() {
                    Expr::Literal(Value::Str(p)) => LikeOperand::Fixed(LikePattern::new(p)),
                    other => LikeOperand::Dynamic(self.boxed(other)?),
                },
                negated: *negated,
            },
            Expr::Case {
                operand,
                branches,
                else_result,
            } => BoundExpr::Case {
                operand: operand.as_deref().map(|o| self.boxed(o)).transpose()?,
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((self.expr(w)?, self.expr(t)?)))
                    .collect::<Result<_>>()?,
                else_result: else_result.as_deref().map(|e| self.boxed(e)).transpose()?,
            },
            Expr::Function { name, args } => self.call(name, args)?,
            Expr::Wildcard => return Err(Error::Plan("'*' is only valid inside COUNT(*)".into())),
        })
    }

    /// Innermost frame first; ambiguity is an error of the frame that
    /// has the name, an outer frame is never consulted past a hit.
    fn column(&self, qualifier: Option<&str>, name: &str) -> Result<BoundExpr> {
        for (depth, schema) in self.scope.iter().enumerate() {
            if let Some(ordinal) = schema.lookup(qualifier, name)? {
                return Ok(BoundExpr::Column { depth, ordinal });
            }
        }
        let shown = match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.to_string(),
        };
        Err(Error::Plan(format!("unknown column '{shown}'")))
    }

    fn subquery(&self, query: &Query) -> Result<Arc<QueryPlan>> {
        plan_query_in(self.ctx, query, self.scope).map(Arc::new)
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<BoundExpr> {
        if let Some(func) = AggFunc::parse(name) {
            return self.aggregate(func, args);
        }
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
        let func = match name {
            "abs" => Func::Abs,
            "lower" => Func::Lower,
            "upper" => Func::Upper,
            "length" => Func::Length,
            "round" => Func::Round,
            "floor" => Func::Floor,
            "ceil" => Func::Ceil,
            "least" => Func::Least,
            "greatest" => Func::Greatest,
            "coalesce" => Func::Coalesce,
            "top" | "level" | "distance" => {
                return Err(Error::Unsupported(format!(
                    "quality function {name}() requires a PREFERRING clause and is \
                     resolved by the Preference SQL rewriter — it cannot be executed \
                     by the host SQL engine directly"
                )))
            }
            other => return Err(Error::Plan(format!("unknown function '{other}'"))),
        };
        match func {
            Func::Least | Func::Greatest if args.is_empty() => {
                return Err(Error::Type(format!("{name}() needs arguments")))
            }
            Func::Least | Func::Greatest | Func::Coalesce => {}
            _ => arity(1)?,
        }
        let args = args.iter().map(|a| self.expr(a)).collect::<Result<_>>()?;
        Ok(BoundExpr::Call { func, args })
    }

    /// An aggregate call: in an aggregate context it is collected and
    /// replaced by a reference past the input's columns; anywhere else
    /// it is an error.
    fn aggregate(&mut self, func: AggFunc, args: &[Expr]) -> Result<BoundExpr> {
        let name = func.name();
        if self.aggs.is_none() {
            return Err(Error::Plan(format!(
                "aggregate {name}() is not allowed in this context"
            )));
        }
        let arg = match args {
            [Expr::Wildcard] if func == AggFunc::Count => None,
            [arg] => Some(Bound::new(
                arg.clone(),
                Binder::new(self.ctx, self.scope).expr(arg)?,
            )),
            _ => {
                return Err(Error::Type(format!(
                    "{name}() expects exactly one argument"
                )))
            }
        };
        let width = self.scope[0].len();
        let aggs = self.aggs.as_mut().expect("checked above");
        aggs.push(AggCall { func, arg });
        Ok(BoundExpr::Column {
            depth: 0,
            ordinal: width + aggs.len() - 1,
        })
    }
}
