//! The statement-level rewriter: preference queries in, standard SQL out.

use crate::compile::{compile_preference, CompiledPreference};
use crate::levels::{
    and_all, both_null, check_aliases, default_quality_alias, dominance_condition,
    grouping_column_name, level_column_expr, level_column_name, or, quality_call, quality_expr,
};
use crate::registry::PreferenceRegistry;
use prefsql_parser::ast::{
    BinaryOp, Expr, InsertSource, OrderByItem, Query, SelectItem, Statement, TableRef,
};
use prefsql_types::{Error, Result};
use std::collections::HashSet;

/// Alias of the outer auxiliary relation in the rewritten query.
pub const A1: &str = "prefsql_a1";
/// Alias of the inner (NOT EXISTS) auxiliary relation.
pub const A2: &str = "prefsql_a2";

/// What the rewriter did with a statement.
#[derive(Debug, Clone)]
pub enum RewriteOutput {
    /// No preference constructs anywhere — forward the original statement
    /// unchanged (§3.1 pass-through).
    Passthrough,
    /// Preference constructs were rewritten into standard SQL.
    Rewritten {
        /// The rewritten, PREFERRING-free statement.
        statement: Box<Statement>,
        /// Its SQL text (what a wire-level pre-processor would forward).
        sql: String,
        /// The compiled top-level preference, for introspection.
        compiled: Option<CompiledPreference>,
    },
    /// Preference DDL consumed by the registry (CREATE/DROP PREFERENCE).
    Handled(String),
}

/// A stateful rewriter holding the named-preference registry.
#[derive(Debug, Default)]
pub struct Rewriter {
    registry: PreferenceRegistry,
}

impl Rewriter {
    /// A rewriter with an empty registry.
    pub fn new() -> Self {
        Rewriter::default()
    }

    /// The named-preference registry.
    pub fn registry(&self) -> &PreferenceRegistry {
        &self.registry
    }

    /// Process one statement: consume preference DDL, rewrite preference
    /// queries, pass everything else through.
    pub fn process(&mut self, stmt: &Statement) -> Result<RewriteOutput> {
        match stmt {
            Statement::CreatePreference { name, pref } => {
                self.registry.create(name.clone(), pref.clone())?;
                Ok(RewriteOutput::Handled(format!("created preference {name}")))
            }
            Statement::DropPreference(name) => {
                self.registry.drop(name)?;
                Ok(RewriteOutput::Handled(format!("dropped preference {name}")))
            }
            other => match rewrite_statement(other, &self.registry)? {
                None => Ok(RewriteOutput::Passthrough),
                Some((statement, compiled)) => {
                    let sql = statement.to_string();
                    Ok(RewriteOutput::Rewritten {
                        statement: Box::new(statement),
                        sql,
                        compiled,
                    })
                }
            },
        }
    }
}

/// Rewrite a statement if it contains preference constructs anywhere
/// (top level, INSERT source, view body, or FROM-level derived tables).
/// Returns `None` when the statement is preference-free.
pub fn rewrite_statement(
    stmt: &Statement,
    registry: &PreferenceRegistry,
) -> Result<Option<(Statement, Option<CompiledPreference>)>> {
    match stmt {
        Statement::Select(q) => {
            let (rewritten, compiled, changed) = rewrite_query_rec(q, registry)?;
            Ok(changed.then(|| (Statement::Select(Box::new(rewritten)), compiled)))
        }
        Statement::Insert {
            table,
            columns,
            source: InsertSource::Query(q),
        } => {
            let (rewritten, compiled, changed) = rewrite_query_rec(q, registry)?;
            Ok(changed.then(|| {
                (
                    Statement::Insert {
                        table: table.clone(),
                        columns: columns.clone(),
                        source: InsertSource::Query(Box::new(rewritten)),
                    },
                    compiled,
                )
            }))
        }
        Statement::CreateView { name, query } => {
            let (rewritten, compiled, changed) = rewrite_query_rec(query, registry)?;
            Ok(changed.then(|| {
                (
                    Statement::CreateView {
                        name: name.clone(),
                        query: Box::new(rewritten),
                    },
                    compiled,
                )
            }))
        }
        Statement::Explain { analyze, statement } => {
            let r = rewrite_statement(statement, registry)?;
            Ok(r.map(|(s, c)| {
                (
                    Statement::Explain {
                        analyze: *analyze,
                        statement: Box::new(s),
                    },
                    c,
                )
            }))
        }
        _ => Ok(None),
    }
}

/// Rewrite a single query block with a PREFERRING clause. Errors if the
/// query has none.
///
/// ```
/// use prefsql_parser::{parse_statement, Statement};
/// use prefsql_rewrite::{rewrite_query, PreferenceRegistry};
///
/// let stmt = parse_statement("SELECT * FROM trips PREFERRING duration AROUND 14").unwrap();
/// let Statement::Select(q) = stmt else { unreachable!() };
/// let (rewritten, compiled) = rewrite_query(&q, &PreferenceRegistry::new()).unwrap();
/// let sql = rewritten.to_string();
/// assert!(sql.contains("abs((duration - 14)) AS prefsql_p0"));
/// assert!(sql.contains("NOT EXISTS"));
/// assert_eq!(compiled.preference.arity(), 1);
/// ```
pub fn rewrite_query(
    query: &Query,
    registry: &PreferenceRegistry,
) -> Result<(Query, CompiledPreference)> {
    let (q, compiled, _) = rewrite_query_rec(query, registry)?;
    match compiled {
        Some(c) => Ok((q, c)),
        None => Err(Error::Rewrite(
            "query has no PREFERRING clause to rewrite".into(),
        )),
    }
}

/// Recursive rewrite: handles preference queries inside FROM derived
/// tables, enforces the documented restriction that WHERE sub-queries may
/// not contain PREFERRING, and rewrites the top level if needed.
/// Returns `(query, top_level_compiled, changed)`.
fn rewrite_query_rec(
    query: &Query,
    registry: &PreferenceRegistry,
) -> Result<(Query, Option<CompiledPreference>, bool)> {
    // Restriction (paper §2.2.5): "sub-queries in the WHERE clause may not
    // contain PREFERRING clauses".
    for e in [&query.where_clause, &query.having, &query.but_only]
        .into_iter()
        .flatten()
    {
        check_no_preferring_in_expr_subqueries(e)?;
    }

    let mut q = query.clone();
    let mut changed = false;

    // FROM-level derived tables may themselves be preference queries.
    let mut new_from = Vec::with_capacity(q.from.len());
    for item in &q.from {
        let (item, c) = rewrite_table_ref(item, registry)?;
        changed |= c;
        new_from.push(item);
    }
    q.from = new_from;

    let Some(pref_ast) = q.preferring.clone() else {
        return Ok((q, None, changed));
    };
    check_aliases(&q.select)?;

    // ---- the heart of the rewrite (paper §3.2) ----
    let resolved = registry.resolve(&pref_ast)?;
    let compiled = compile_preference(&resolved)?;
    let leaves: Vec<_> = resolved.base_prefs().into_iter().cloned().collect();
    debug_assert_eq!(leaves.len(), compiled.preference.arity());

    let from_aliases = collect_aliases(&q.from);

    // Auxiliary relation: original FROM/WHERE plus one level column per
    // base preference and one column per GROUPING expression.
    let mut aux_select: Vec<SelectItem> = vec![SelectItem::Wildcard];
    for (i, leaf) in leaves.iter().enumerate() {
        aux_select.push(SelectItem::Expr {
            expr: level_column_expr(leaf)?,
            alias: Some(level_column_name(i)),
        });
    }
    for (j, g) in q.grouping.iter().enumerate() {
        aux_select.push(SelectItem::Expr {
            expr: g.clone(),
            alias: Some(grouping_column_name(j)),
        });
    }
    let aux = Query {
        select: aux_select,
        from: q.from.clone(),
        where_clause: q.where_clause.clone(),
        ..Default::default()
    };

    // Inner block: a competitor in A2 dominates the candidate in A1.
    let mut inner_conjuncts: Vec<Expr> = Vec::new();
    if let Some(b) = &q.but_only {
        inner_conjuncts.push(translate_clause(b, &compiled, A2, &aux, &from_aliases)?);
    }
    for j in 0..q.grouping.len() {
        let g1 = Expr::qcol(A1, grouping_column_name(j));
        let g2 = Expr::qcol(A2, grouping_column_name(j));
        inner_conjuncts.push(or(
            Expr::binary(g2.clone(), BinaryOp::Eq, g1.clone()),
            both_null(g2, g1),
        ));
    }
    inner_conjuncts.push(dominance_condition(&compiled.preference, A2, A1));
    let not_exists = Expr::Exists {
        query: Box::new(Query {
            select: vec![SelectItem::Expr {
                expr: Expr::lit(1),
                alias: None,
            }],
            from: vec![TableRef::Derived {
                query: Box::new(aux.clone()),
                alias: A2.to_string(),
            }],
            where_clause: Some(and_all(inner_conjuncts)),
            ..Default::default()
        }),
        negated: true,
    };

    // Outer block: BUT ONLY threshold plus non-domination.
    let mut outer_conjuncts: Vec<Expr> = Vec::new();
    if let Some(b) = &q.but_only {
        outer_conjuncts.push(translate_clause(b, &compiled, A1, &aux, &from_aliases)?);
    }
    outer_conjuncts.push(not_exists);

    // SELECT list: translate quality functions, re-qualify original table
    // aliases onto A1.
    let mut out_select = Vec::with_capacity(q.select.len());
    for item in &q.select {
        out_select.push(match item {
            SelectItem::Wildcard => SelectItem::Wildcard,
            // Original qualifiers vanish behind the derived table, so
            // `t.*` over the only FROM item becomes `*`. With several
            // FROM items the rewriter (which sees no catalog) cannot tell
            // which columns are `t`'s: refuse rather than return more
            // columns than plain SQL would.
            SelectItem::QualifiedWildcard(t) if !from_aliases.contains(&t.to_ascii_lowercase()) => {
                return Err(Error::Rewrite(format!("unknown table '{t}' in '{t}.*'")))
            }
            SelectItem::QualifiedWildcard(_) if from_aliases.len() == 1 => SelectItem::Wildcard,
            SelectItem::QualifiedWildcard(t) => {
                return Err(Error::Unsupported(format!(
                    "'{t}.*' over a multi-table FROM combined with PREFERRING is only \
                     supported in native mode"
                )))
            }
            SelectItem::Expr { expr, alias } => {
                let translated = translate_clause(expr, &compiled, A1, &aux, &from_aliases)?;
                let alias = alias.clone().or_else(|| default_quality_alias(expr));
                SelectItem::Expr {
                    expr: translated,
                    alias,
                }
            }
        });
    }

    let order_by = q
        .order_by
        .iter()
        .map(|o| {
            Ok(OrderByItem {
                expr: translate_clause(&o.expr, &compiled, A1, &aux, &from_aliases)?,
                asc: o.asc,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let group_by = q
        .group_by
        .iter()
        .map(|g| translate_clause(g, &compiled, A1, &aux, &from_aliases))
        .collect::<Result<Vec<_>>>()?;
    let having = q
        .having
        .as_ref()
        .map(|h| translate_clause(h, &compiled, A1, &aux, &from_aliases))
        .transpose()?;

    let rewritten = Query {
        select: out_select,
        distinct: q.distinct,
        from: vec![TableRef::Derived {
            query: Box::new(aux),
            alias: A1.to_string(),
        }],
        where_clause: Some(and_all(outer_conjuncts)),
        preferring: None,
        grouping: vec![],
        but_only: None,
        group_by,
        having,
        order_by,
        limit: q.limit,
    };
    Ok((rewritten, Some(compiled), true))
}

fn rewrite_table_ref(item: &TableRef, registry: &PreferenceRegistry) -> Result<(TableRef, bool)> {
    match item {
        TableRef::Named { .. } => Ok((item.clone(), false)),
        TableRef::Derived { query, alias } => {
            let (q, _, changed) = rewrite_query_rec(query, registry)?;
            Ok((
                TableRef::Derived {
                    query: Box::new(q),
                    alias: alias.clone(),
                },
                changed,
            ))
        }
        TableRef::Join { left, right, on } => {
            let (l, cl) = rewrite_table_ref(left, registry)?;
            let (r, cr) = rewrite_table_ref(right, registry)?;
            Ok((
                TableRef::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    on: on.clone(),
                },
                cl || cr,
            ))
        }
    }
}

/// Aliases (or bare names) of the original FROM items, lower-cased.
fn collect_aliases(from: &[TableRef]) -> HashSet<String> {
    fn walk(item: &TableRef, out: &mut HashSet<String>) {
        match item {
            TableRef::Named { name, alias } => {
                out.insert(
                    alias
                        .clone()
                        .unwrap_or_else(|| name.clone())
                        .to_ascii_lowercase(),
                );
            }
            TableRef::Derived { alias, .. } => {
                out.insert(alias.to_ascii_lowercase());
            }
            TableRef::Join { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut out = HashSet::new();
    for item in from {
        walk(item, &mut out);
    }
    out
}

/// Translate one outer-query expression: quality-function calls become
/// level-column expressions over `qual`, and column references qualified by
/// an original FROM alias are re-qualified onto `qual` (all original
/// columns are visible there through the aux `SELECT *`). Sub-queries
/// inside translated clauses stay as-is (correlation into the rewritten
/// aliases is not supported).
fn translate_clause(
    expr: &Expr,
    compiled: &CompiledPreference,
    qual: &str,
    aux: &Query,
    from_aliases: &HashSet<String>,
) -> Result<Expr> {
    expr.try_map(&mut |e| {
        if let Some((func, args)) = quality_call(e) {
            let slot = compiled.quality_slot(func, args)?;
            let base = &compiled.preference.bases()[slot];
            return quality_expr(func, slot, base, qual, aux).map(Some);
        }
        Ok(match e {
            Expr::Column {
                qualifier: Some(t),
                name,
            } if from_aliases.contains(&t.to_ascii_lowercase()) => Some(Expr::Column {
                qualifier: Some(qual.to_string()),
                name: name.clone(),
            }),
            _ => None,
        })
    })
}

fn check_no_preferring_in_expr_subqueries(expr: &Expr) -> Result<()> {
    fn check_query(q: &Query) -> Result<()> {
        if q.preferring.is_some() {
            return Err(Error::Unsupported(
                "sub-queries in the WHERE clause may not contain PREFERRING \
                 clauses (Preference SQL 1.3 restriction, paper §2.2.5)"
                    .into(),
            ));
        }
        for e in [&q.where_clause, &q.having].into_iter().flatten() {
            check_no_preferring_in_expr_subqueries(e)?;
        }
        Ok(())
    }
    match expr {
        Expr::Exists { query, .. }
        | Expr::InSubquery { query, .. }
        | Expr::ScalarSubquery(query) => check_query(query)?,
        _ => {}
    }
    for child in expr.children() {
        check_no_preferring_in_expr_subqueries(child)?;
    }
    Ok(())
}
