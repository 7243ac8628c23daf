//! The abstract syntax tree for SQL + Preference SQL.

use prefsql_types::{DataType, Result, Value};

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A (possibly preference) query.
    Select(Box<Query>),
    /// `INSERT INTO t [(cols)] VALUES (...), ... | SELECT ...`
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// Row source.
        source: InsertSource,
    },
    /// `CREATE TABLE t (col type [NOT NULL], ...)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `CREATE VIEW v AS SELECT ...`
    CreateView {
        /// View name.
        name: String,
        /// Defining query.
        query: Box<Query>,
    },
    /// `CREATE MATERIALIZED PREFERENCE VIEW v AS SELECT ... PREFERRING ...`
    /// — a stored, incrementally maintained BMO result (the serving cache
    /// for repeated skyline queries over mostly-stable catalogs).
    CreateMaterializedView {
        /// View name.
        name: String,
        /// Defining preference query.
        query: Box<Query>,
    },
    /// `CREATE [UNIQUE] INDEX i ON t (cols) [USING HASH|BTREE]`
    CreateIndex {
        /// Index name.
        name: String,
        /// Table the index lives on.
        table: String,
        /// Indexed columns.
        columns: Vec<String>,
        /// `USING HASH` if true, ordered (B-tree) otherwise.
        hash: bool,
    },
    /// `CREATE PREFERENCE p AS <pref>` — the Preference Definition Language
    /// for persistent preference objects (paper §2.2: "they can be defined
    /// as persistent objects using a Preference Definition Language").
    CreatePreference {
        /// Preference name.
        name: String,
        /// The preference term.
        pref: PrefExpr,
    },
    /// `DELETE FROM t [WHERE cond]`
    Delete {
        /// Target table.
        table: String,
        /// Row filter; `None` deletes everything.
        where_clause: Option<Expr>,
    },
    /// `UPDATE t SET c1 = e1, ... [WHERE cond]`
    Update {
        /// Target table.
        table: String,
        /// `(column, new value)` assignments.
        assignments: Vec<(String, Expr)>,
        /// Row filter; `None` updates everything.
        where_clause: Option<Expr>,
    },
    /// `DROP TABLE t`
    DropTable(String),
    /// `DROP VIEW v`
    DropView(String),
    /// `DROP MATERIALIZED PREFERENCE VIEW v`
    DropMaterializedView(String),
    /// `REFRESH MATERIALIZED PREFERENCE VIEW v` — rebuild the stored result
    /// from scratch (recovers a view marked stale by a failed maintenance).
    RefreshMaterializedView(String),
    /// `DROP PREFERENCE p`
    DropPreference(String),
    /// `EXPLAIN [ANALYZE] <statement>` — with `ANALYZE` the statement is
    /// actually executed (side effects included) and the plan comes back
    /// annotated with the observed per-operator metrics.
    Explain {
        /// `EXPLAIN ANALYZE`: execute and annotate with observed metrics.
        analyze: bool,
        /// The statement being explained.
        statement: Box<Statement>,
    },
}

/// Source of rows for INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (..), (..)` — each inner vec is one row of expressions.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO ... SELECT ...` — the paper allows preference queries
    /// as INSERT sub-queries.
    Query(Box<Query>),
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// NOT NULL constraint.
    pub not_null: bool,
}

/// A query block: standard SQL plus the Preference SQL clauses
/// (`PREFERRING`, `GROUPING`, `BUT ONLY`), mirroring §2.2.5 of the paper.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// SELECT DISTINCT.
    pub distinct: bool,
    /// FROM item(s); multiple items form a cross join.
    pub from: Vec<TableRef>,
    /// WHERE condition (hard constraints).
    pub where_clause: Option<Expr>,
    /// PREFERRING term (soft constraints) — the Preference SQL extension.
    pub preferring: Option<PrefExpr>,
    /// GROUPING attribute list (per-group BMO).
    pub grouping: Vec<Expr>,
    /// BUT ONLY quality threshold.
    pub but_only: Option<Expr>,
    /// Standard GROUP BY.
    pub group_by: Vec<Expr>,
    /// HAVING condition.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderByItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
}

/// A FROM item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table or view, optionally aliased.
    Named {
        /// Table/view name.
        name: String,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
    /// A parenthesized derived table `(SELECT ...) alias`.
    Derived {
        /// The sub-query.
        query: Box<Query>,
        /// Mandatory alias.
        alias: String,
    },
    /// `left [INNER] JOIN right ON cond` / `left CROSS JOIN right`.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join condition (`None` for CROSS JOIN).
        on: Option<Expr>,
    },
}

/// An ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending (default) or descending.
    pub asc: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operator names are self-describing
pub enum BinaryOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Mul,
    Div,
}

impl BinaryOp {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A possibly-qualified column reference.
    Column {
        /// Table qualifier (`t` in `t.c`), if given.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// IS NOT NULL if true.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// NOT BETWEEN if true.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// NOT IN if true.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The sub-query (single output column).
        query: Box<Query>,
        /// NOT IN if true.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)` — the workhorse of the paper's rewrite.
    Exists {
        /// The sub-query.
        query: Box<Query>,
        /// NOT EXISTS if true.
        negated: bool,
    },
    /// Scalar sub-query `(SELECT ...)` producing a single value.
    ScalarSubquery(Box<Query>),
    /// `expr [NOT] LIKE pattern` (`%`/`_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// NOT LIKE if true.
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`
    Case {
        /// Simple-CASE operand, if present.
        operand: Option<Box<Expr>>,
        /// `(when, then)` branches.
        branches: Vec<(Expr, Expr)>,
        /// ELSE result.
        else_result: Option<Box<Expr>>,
    },
    /// Function call: scalar (`ABS`, `LOWER`, ...), aggregate (`COUNT`,
    /// `SUM`, ...) or quality function (`TOP`, `LEVEL`, `DISTANCE`).
    Function {
        /// Function name, lower-cased.
        name: String,
        /// Arguments. `COUNT(*)` is represented as `count` with a single
        /// [`Expr::Wildcard`] argument.
        args: Vec<Expr>,
    },
    /// `*` inside `COUNT(*)`.
    Wildcard,
}

impl Expr {
    /// Convenience: unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into().to_ascii_lowercase(),
        }
    }

    /// Convenience: qualified column reference.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.into().to_ascii_lowercase()),
            name: name.into().to_ascii_lowercase(),
        }
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience: binary operation.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// `self AND other`, flattening a `None` left side.
    pub fn and_maybe(acc: Option<Expr>, next: Expr) -> Expr {
        match acc {
            None => next,
            Some(a) => Expr::binary(a, BinaryOp::And, next),
        }
    }

    /// True if the expression (sub)tree contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        const AGGS: [&str; 5] = ["count", "sum", "avg", "min", "max"];
        match self {
            Expr::Function { name, args } => {
                AGGS.contains(&name.as_str()) || args.iter().any(Expr::contains_aggregate)
            }
            _ => self.children().iter().any(|c| c.contains_aggregate()),
        }
    }

    /// Immediate child expressions (not descending into sub-queries).
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Wildcard => vec![],
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => vec![expr],
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            Expr::InList { expr, list, .. } => {
                let mut v = vec![expr.as_ref()];
                v.extend(list.iter());
                v
            }
            Expr::InSubquery { expr, .. } => vec![expr],
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => vec![],
            Expr::Like { expr, pattern, .. } => vec![expr, pattern],
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                let mut v: Vec<&Expr> = vec![];
                if let Some(o) = operand {
                    v.push(o);
                }
                for (w, t) in branches {
                    v.push(w);
                    v.push(t);
                }
                if let Some(e) = else_result {
                    v.push(e);
                }
                v
            }
            Expr::Function { args, .. } => args.iter().collect(),
        }
    }

    /// Fallible top-down rewrite — the one recursive `Expr` clone in the
    /// stack. `f` sees every node before its children: `Ok(Some(e))`
    /// replaces the node with `e` (whose children are not visited),
    /// `Ok(None)` keeps the node and maps the children listed by
    /// [`Expr::children`]. Sub-queries are never entered.
    pub fn try_map(&self, f: &mut impl FnMut(&Expr) -> Result<Option<Expr>>) -> Result<Expr> {
        if let Some(replaced) = f(self)? {
            return Ok(replaced);
        }
        let mut bx = |e: &Expr| e.try_map(f).map(Box::new);
        Ok(match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Wildcard
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => self.clone(),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: bx(expr)?,
            },
            Expr::Binary { left, op, right } => Expr::Binary {
                left: bx(left)?,
                op: *op,
                right: bx(right)?,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: bx(expr)?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: bx(expr)?,
                low: bx(low)?,
                high: bx(high)?,
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: bx(expr)?,
                list: list.iter().map(|e| e.try_map(f)).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => Expr::InSubquery {
                expr: bx(expr)?,
                query: query.clone(),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: bx(expr)?,
                pattern: bx(pattern)?,
                negated: *negated,
            },
            Expr::Case {
                operand,
                branches,
                else_result,
            } => Expr::Case {
                operand: operand.as_deref().map(&mut bx).transpose()?,
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((w.try_map(f)?, t.try_map(f)?)))
                    .collect::<Result<_>>()?,
                else_result: else_result
                    .as_deref()
                    .map(|e| e.try_map(f).map(Box::new))
                    .transpose()?,
            },
            Expr::Function { name, args } => Expr::Function {
                name: name.clone(),
                args: args.iter().map(|e| e.try_map(f)).collect::<Result<_>>()?,
            },
        })
    }
}

/// A preference term — the paper's preference algebra (§2.2).
///
/// Base preferences are leaves; [`PrefExpr::Pareto`] (`AND`) and
/// [`PrefExpr::Prioritized`] (`CASCADE`) assemble complex preferences.
#[derive(Debug, Clone, PartialEq)]
pub enum PrefExpr {
    /// `expr AROUND target` — favour values close to `target`.
    Around {
        /// The scored expression (a column or arithmetic over columns).
        expr: Expr,
        /// Target value expression (must fold to a numeric/date constant).
        target: Box<Expr>,
    },
    /// `expr BETWEEN low, up` — favour values inside `[low, up]`, closer to
    /// the violated limit is better outside.
    Between {
        /// The scored expression.
        expr: Expr,
        /// Interval lower bound.
        low: Box<Expr>,
        /// Interval upper bound.
        up: Box<Expr>,
    },
    /// `LOWEST(expr)` — the smaller the better.
    Lowest {
        /// The scored expression.
        expr: Expr,
    },
    /// `HIGHEST(expr)` — the larger the better.
    Highest {
        /// The scored expression.
        expr: Expr,
    },
    /// POS preference: `expr IN (v1, ...)` or `expr = v` — desired values.
    Pos {
        /// The scored expression.
        expr: Expr,
        /// The preferred value set.
        values: Vec<Value>,
    },
    /// NEG preference: `expr NOT IN (v1, ...)` or `expr <> v` — disliked
    /// values.
    Neg {
        /// The scored expression.
        expr: Expr,
        /// The disliked value set.
        values: Vec<Value>,
    },
    /// POS/POS: `expr = a ELSE expr = b` — first choice, second choice,
    /// anything else.
    PosPos {
        /// The scored expression.
        expr: Expr,
        /// First-choice values.
        first: Vec<Value>,
        /// Second-choice values.
        second: Vec<Value>,
    },
    /// POS/NEG: `expr = a ELSE expr <> b` — first choice, then anything but
    /// the disliked set, the disliked set last.
    PosNeg {
        /// The scored expression.
        expr: Expr,
        /// First-choice values.
        pos: Vec<Value>,
        /// Disliked values.
        neg: Vec<Value>,
    },
    /// `expr EXPLICIT ('a' BETTER 'b', ...)` — a finite better-than graph;
    /// the induced SPO is its transitive closure.
    Explicit {
        /// The scored expression.
        expr: Expr,
        /// `(better, worse)` edges.
        edges: Vec<(Value, Value)>,
    },
    /// `expr CONTAINS ('term', ...)` — full-text preference: the more of
    /// the terms occur in the text, the better (paper §2.2.1 / \[LeK99\]).
    Contains {
        /// The text expression.
        expr: Expr,
        /// Search terms.
        terms: Vec<String>,
    },
    /// `PREFERENCE p` — use a named preference created with
    /// `CREATE PREFERENCE`.
    Named(String),
    /// Pareto accumulation (`AND`): equal importance.
    Pareto(Vec<PrefExpr>),
    /// Prioritization (`CASCADE` / `,`): ordered importance.
    Prioritized(Vec<PrefExpr>),
}

impl PrefExpr {
    /// The base preferences of the term, left to right.
    pub fn base_prefs(&self) -> Vec<&PrefExpr> {
        match self {
            PrefExpr::Pareto(ps) | PrefExpr::Prioritized(ps) => {
                ps.iter().flat_map(|p| p.base_prefs()).collect()
            }
            leaf => vec![leaf],
        }
    }

    /// The expression a base preference scores, if it is a base preference.
    pub fn base_expr(&self) -> Option<&Expr> {
        match self {
            PrefExpr::Around { expr, .. }
            | PrefExpr::Between { expr, .. }
            | PrefExpr::Lowest { expr }
            | PrefExpr::Highest { expr }
            | PrefExpr::Pos { expr, .. }
            | PrefExpr::Neg { expr, .. }
            | PrefExpr::PosPos { expr, .. }
            | PrefExpr::PosNeg { expr, .. }
            | PrefExpr::Explicit { expr, .. }
            | PrefExpr::Contains { expr, .. } => Some(expr),
            PrefExpr::Named(_) | PrefExpr::Pareto(_) | PrefExpr::Prioritized(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_maybe_accumulates() {
        let e = Expr::and_maybe(None, Expr::lit(1));
        assert_eq!(e, Expr::lit(1));
        let e2 = Expr::and_maybe(Some(e), Expr::lit(2));
        match e2 {
            Expr::Binary { op, .. } => assert_eq!(op, BinaryOp::And),
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn contains_aggregate_walks_tree() {
        let agg = Expr::Function {
            name: "sum".into(),
            args: vec![Expr::col("x")],
        };
        let wrapped = Expr::binary(Expr::lit(1), BinaryOp::Plus, agg);
        assert!(wrapped.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        let scalar_fn = Expr::Function {
            name: "abs".into(),
            args: vec![Expr::col("x")],
        };
        assert!(!scalar_fn.contains_aggregate());
    }

    #[test]
    fn base_prefs_flattens_nested_terms() {
        let p = PrefExpr::Prioritized(vec![
            PrefExpr::Pareto(vec![
                PrefExpr::Highest {
                    expr: Expr::col("memory"),
                },
                PrefExpr::Around {
                    expr: Expr::col("price"),
                    target: Box::new(Expr::lit(40_000)),
                },
            ]),
            PrefExpr::Pos {
                expr: Expr::col("color"),
                values: vec![Value::str("red")],
            },
        ]);
        let bases = p.base_prefs();
        assert_eq!(bases.len(), 3);
        assert!(bases[0].base_expr().is_some());
    }
}
