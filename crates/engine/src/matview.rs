//! Materialized preference views: DDL, REFRESH and the DML maintenance
//! hooks.
//!
//! A `CREATE MATERIALIZED PREFERENCE VIEW` runs its defining BMO query
//! once and stores per-base-row state ([`MatViewEntry`]) in the catalog.
//! Every DML statement against the base table then calls one of the
//! `after_*` hooks here — still under the statement's catalog write lock,
//! so readers never observe a view out of sync with its table. The hooks
//! translate the row delta into the incremental skyline algebra of
//! `prefsql_pref::incremental`, which keeps the stored winner list
//! ([`MatViewDef::winners`]) equal to the BMO result without
//! recomputation: a new row is tested against the winners only, a lost
//! winner re-examines only the rows it beat.
//!
//! The entries hold no rows: a read fetches the winners from the base
//! table by row id, which is why the entries must mirror its rids.
//!
//! Maintenance never fails the triggering DML: any error (dropped
//! columns, arithmetic on changed data, ...) marks the view *stale*
//! instead, as does a DML statement whose storage step fails after the
//! table changed. Stale views refuse reads until `REFRESH MATERIALIZED
//! PREFERENCE VIEW` rebuilds them from scratch.

use crate::bind::{bind, BoundExpr};
use crate::eval::{eval, holds, Env};
use crate::exec::{Engine, ExecCtx};
use prefsql_parser::ast::{Expr, PrefExpr, Query, SelectItem, Statement, TableRef};
use prefsql_parser::parse_statement;
use prefsql_rewrite::levels::uses_quality;
use prefsql_rewrite::{compile_preference, CompiledPreference};
use prefsql_storage::{Catalog, MatViewDef, MatViewEntry, Table};
use prefsql_types::{Error, Result, Schema, Tuple};

/// A view definition re-parsed from its stored SQL: everything a
/// maintenance pass needs that is plain data (usable across the
/// shared-borrow / mutable-borrow phases of a hook).
pub(crate) struct ViewSpec {
    /// The defining query (validated at CREATE time).
    pub query: Query,
    /// The compiled preference plus its base expressions.
    pub compiled: CompiledPreference,
    /// Qualifier the base table's columns are exposed under (FROM alias
    /// or the table name).
    pub qual: String,
}

/// Parse and compile a stored view definition. The SQL was validated at
/// CREATE time, so failures here mean the environment changed under the
/// view — callers mark it stale.
pub(crate) fn view_spec(sql: &str) -> Result<ViewSpec> {
    let query = match parse_statement(sql)? {
        Statement::Select(q) => *q,
        other => {
            return Err(Error::Catalog(format!(
                "materialized view definition is not a query: {other}"
            )))
        }
    };
    let pref = query.preferring.clone().ok_or_else(|| {
        Error::Catalog("materialized view definition lost its PREFERRING clause".into())
    })?;
    let compiled = compile_preference(&pref)?;
    let qual = match &query.from[..] {
        [TableRef::Named { name, alias }] => alias.as_deref().unwrap_or(name).to_ascii_lowercase(),
        _ => {
            return Err(Error::Catalog(
                "materialized view definition lost its single base table".into(),
            ))
        }
    };
    Ok(ViewSpec {
        query,
        compiled,
        qual,
    })
}

/// True if `expr` contains a sub-query anywhere.
fn has_subquery(expr: &Expr) -> bool {
    matches!(
        expr,
        Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_)
    ) || expr.children().iter().any(|c| has_subquery(c))
}

/// True if the preference term contains an unresolved named preference.
fn has_named(pref: &PrefExpr) -> bool {
    match pref {
        PrefExpr::Named(_) => true,
        PrefExpr::Pareto(parts) | PrefExpr::Prioritized(parts) => parts.iter().any(has_named),
        _ => false,
    }
}

/// Validate a `CREATE MATERIALIZED PREFERENCE VIEW` defining query and
/// return `(base_table, qualifier)`. The restrictions keep the stored
/// result maintainable: a single named base table, a PREFERRING clause,
/// an optional WHERE and a plain projection — every construct whose
/// result could depend on more than the current winner set is rejected.
pub(crate) fn validate_definition(query: &Query) -> Result<(String, String)> {
    let unsupported = |what: &str| -> Error {
        Error::Unsupported(format!(
            "CREATE MATERIALIZED PREFERENCE VIEW does not support {what}"
        ))
    };
    let (base, qual) = match &query.from[..] {
        [TableRef::Named { name, alias }] => (
            name.to_ascii_lowercase(),
            alias.as_deref().unwrap_or(name).to_ascii_lowercase(),
        ),
        _ => {
            return Err(unsupported(
                "anything but a single named base table in FROM",
            ))
        }
    };
    let pref = query
        .preferring
        .as_ref()
        .ok_or_else(|| unsupported("definitions without a PREFERRING clause"))?;
    if has_named(pref) {
        return Err(Error::Plan(
            "named preferences must be resolved before CREATE MATERIALIZED \
             PREFERENCE VIEW reaches the engine"
                .into(),
        ));
    }
    if !query.grouping.is_empty() {
        return Err(unsupported("GROUPING"));
    }
    if query.but_only.is_some() {
        return Err(unsupported("BUT ONLY"));
    }
    if !query.group_by.is_empty() || query.having.is_some() {
        return Err(unsupported("GROUP BY/HAVING"));
    }
    if !query.order_by.is_empty() {
        return Err(unsupported("ORDER BY"));
    }
    if query.limit.is_some() {
        return Err(unsupported("LIMIT"));
    }
    if query.distinct {
        return Err(unsupported("DISTINCT"));
    }
    for item in &query.select {
        if let SelectItem::Expr { expr, .. } = item {
            if expr.contains_aggregate() {
                return Err(unsupported("aggregates in the select list"));
            }
            if uses_quality(expr) {
                return Err(unsupported(
                    "quality functions (TOP/LEVEL/DISTANCE) in the select list",
                ));
            }
            if has_subquery(expr) {
                return Err(unsupported("sub-queries in the select list"));
            }
        }
    }
    if let Some(w) = &query.where_clause {
        if has_subquery(w) {
            return Err(unsupported("sub-queries in WHERE"));
        }
        if uses_quality(w) {
            return Err(unsupported("quality functions in WHERE"));
        }
    }
    Ok((base, qual))
}

/// The schema base-table rows are evaluated under: the table's columns
/// exposed through the view's FROM qualifier (same idiom as UPDATE/DELETE
/// expression evaluation).
fn eval_schema(table: &Table, qual: &str) -> Schema {
    table.schema().without_qualifiers().with_qualifier(qual)
}

/// A view's per-row expressions bound against its base table: the WHERE
/// clause and one expression per base preference (the slot vector).
struct BoundView {
    where_clause: Option<BoundExpr>,
    slots: Vec<BoundExpr>,
}

impl BoundView {
    /// Bind `spec`'s expressions against `table` as it exists now — a
    /// dangling column is an error here, before any row is looked at.
    fn new(ctx: &ExecCtx<'_>, spec: &ViewSpec, table: &Table) -> Result<BoundView> {
        let schema = eval_schema(table, &spec.qual);
        let scope = [&schema];
        Ok(BoundView {
            where_clause: (spec.query.where_clause.as_ref())
                .map(|w| bind(ctx, w, &scope))
                .transpose()?,
            slots: (spec.compiled.base_exprs.iter())
                .map(|e| bind(ctx, e, &scope))
                .collect::<Result<_>>()?,
        })
    }

    /// Compute the view entry for one base-table row: evaluate the WHERE
    /// clause (three-valued: only exactly-TRUE qualifies) and the base
    /// preference expressions into the slot vector. The caller integrates
    /// the entry into the winner list.
    fn entry_for(&self, ctx: &ExecCtx<'_>, row: &Tuple) -> Result<MatViewEntry> {
        let env = Env::new(row, &[]);
        let qualifies = match &self.where_clause {
            None => true,
            Some(pred) => holds(pred, env, ctx)?,
        };
        let slots = (self.slots.iter())
            .map(|e| eval(e, env, ctx))
            .collect::<Result<Vec<_>>>()?;
        Ok(MatViewEntry { slots, qualifies })
    }
}

/// Build a fresh [`MatViewDef`] for `CREATE MATERIALIZED PREFERENCE
/// VIEW`: validate the defining query, then compute the stored state
/// exactly as REFRESH does — a broken projection fails CREATE, not the
/// first read.
pub(crate) fn build_def(
    engine: &Engine,
    cat: &Catalog,
    name: &str,
    query: &Query,
) -> Result<MatViewDef> {
    let (base, _) = validate_definition(query)?;
    let sql = query.to_string();
    let (schema, entries, winners) = rebuild_from_base(engine, cat, &sql, &base)?;
    Ok(MatViewDef {
        name: name.to_string(),
        sql,
        base_table: base,
        schema,
        entries,
        winners,
        stale: false,
    })
}

/// `REFRESH MATERIALIZED PREFERENCE VIEW`: rebuild the stored result from
/// the current base table and clear the stale flag. Returns the number of
/// rows the view now serves.
///
/// Any rebuild failure — the base table gone, its schema changed under
/// the view (DROP + CREATE with a different shape), an evaluation error —
/// marks the view *stale* and returns a diagnostic: the one thing REFRESH
/// must never do is leave a non-stale view serving rows that no longer
/// match the definition.
pub(crate) fn refresh(engine: &Engine, cat: &mut Catalog, name: &str) -> Result<usize> {
    let (sql, base) = {
        let def = cat.matview(name).ok_or_else(|| {
            Error::Catalog(format!(
                "unknown materialized preference view '{}'",
                name.to_ascii_lowercase()
            ))
        })?;
        (def.sql.clone(), def.base_table.clone())
    };
    match rebuild_from_base(engine, cat, &sql, &base) {
        Ok((schema, entries, winners)) => {
            let def = cat
                .matview_mut(name)
                .expect("view existed above and the catalog is write-locked");
            def.schema = schema;
            def.entries = entries;
            def.winners = winners;
            def.stale = false;
            Ok(def.winner_count())
        }
        Err(e) => {
            if let Some(def) = cat.matview_mut(name) {
                def.stale = true;
            }
            Err(Error::Catalog(format!(
                "cannot refresh materialized preference view '{name}': {e} \
                 (the view stays stale)"
            )))
        }
    }
}

/// The view state computed from scratch (CREATE and REFRESH): validate
/// the definition against the *current* base table, compute one entry per
/// row, run the full skyline rebuild. Returns the schema, the entries and
/// the winner list.
fn rebuild_from_base(
    engine: &Engine,
    cat: &Catalog,
    sql: &str,
    base: &str,
) -> Result<(Schema, Vec<MatViewEntry>, Vec<usize>)> {
    let spec = view_spec(sql)?;
    let table = cat.table(base)?;
    let schema = eval_schema(table, &spec.qual);
    let mut entries = Vec::with_capacity(table.len());
    engine.with_ctx_over(cat, |ctx| {
        // Re-bind the definition against the table as it exists *now* —
        // the validation CREATE ran bound to the schema of that moment,
        // and a DROP/CREATE cycle may have replaced the table with a
        // different shape whose rows must not be served through the old
        // projection. Binding resolves every column before the first row,
        // so an empty base table cannot let a dangling reference slide.
        crate::plan::projection_plan(ctx, &spec.query.select, &schema, schema.len(), &[])?;
        let view = BoundView::new(ctx, &spec, table)?;
        table.for_each_row(|_, row| {
            entries.push(view.entry_for(ctx, row)?);
            Ok(())
        })
    })?;
    let winners = prefsql_pref::incremental::rebuild(&entries, &spec.compiled.preference);
    Ok((schema, entries, winners))
}

/// The views on `table` a DML hook must maintain: registered, not stale.
fn live_views_on(cat: &Catalog, table: &str) -> Vec<String> {
    cat.matviews_on(table)
        .into_iter()
        .filter(|n| cat.matview(n).is_some_and(|v| !v.stale))
        .collect()
}

/// Maintain every live view on `table` after an INSERT appended the rows
/// `from_rid..len`. Returns `(views maintained, dominance comparisons)`;
/// a failing view is marked stale instead of failing the INSERT.
pub(crate) fn after_insert(
    engine: &Engine,
    cat: &mut Catalog,
    table: &str,
    from_rid: usize,
) -> (u64, u64) {
    maintain(
        engine,
        cat,
        table,
        |ctx, spec| {
            let t = ctx.catalog().table(table)?;
            let view = BoundView::new(ctx, spec, t)?;
            let mut out = Vec::new();
            t.for_each_row_from(from_rid.min(t.len()), |_, row| {
                out.push(view.entry_for(ctx, row)?);
                Ok(())
            })?;
            Ok(out)
        },
        |def, spec, new_entries| {
            for entry in new_entries {
                prefsql_pref::incremental::apply_insert(
                    &mut def.entries,
                    &mut def.winners,
                    entry,
                    &spec.compiled.preference,
                );
            }
        },
    )
}

/// Maintain every live view on `table` after `doomed` row ids were
/// deleted (ids as of *before* the compaction — the same list handed to
/// [`Table::delete_rows`]). Returns `(views maintained, dominance
/// comparisons)`.
pub(crate) fn after_delete(
    engine: &Engine,
    cat: &mut Catalog,
    table: &str,
    doomed: &[usize],
) -> (u64, u64) {
    if doomed.is_empty() {
        return (0, 0);
    }
    maintain(
        engine,
        cat,
        table,
        |_, _| Ok(()),
        |def, spec, ()| {
            prefsql_pref::incremental::apply_delete(
                &mut def.entries,
                &mut def.winners,
                doomed,
                &spec.compiled.preference,
            );
        },
    )
}

/// Maintain every live view on `table` after an UPDATE replaced the rows
/// at `ids` in place. Returns `(views maintained, dominance
/// comparisons)`.
pub(crate) fn after_update(
    engine: &Engine,
    cat: &mut Catalog,
    table: &str,
    ids: &[usize],
) -> (u64, u64) {
    if ids.is_empty() {
        return (0, 0);
    }
    maintain(
        engine,
        cat,
        table,
        |ctx, spec| {
            let t = ctx.catalog().table(table)?;
            let view = BoundView::new(ctx, spec, t)?;
            ids.iter()
                .map(|&rid| view.entry_for(ctx, &t.fetch_row(rid)?))
                .collect::<Result<Vec<_>>>()
        },
        |def, spec, new_entries| {
            for (&rid, entry) in ids.iter().zip(new_entries) {
                prefsql_pref::incremental::apply_replace(
                    &mut def.entries,
                    &mut def.winners,
                    rid,
                    entry,
                    &spec.compiled.preference,
                );
            }
        },
    )
}

/// Mark every view on `table` stale: the base table was dropped, or a
/// DML statement failed after changing it, so the entries may no longer
/// mirror its row ids.
pub(crate) fn mark_stale(cat: &mut Catalog, table: &str) {
    for name in cat.matviews_on(table) {
        if let Some(def) = cat.matview_mut(&name) {
            def.stale = true;
        }
    }
}

/// The shared two-phase shape of every DML hook: phase 1 computes the
/// delta in a statement context of `engine` over a shared catalog borrow
/// (expression evaluation needs the whole catalog, and the session's
/// knobs apply as to any statement), phase 2 applies it to the view
/// through the mutable borrow. Any phase-1 error marks the view stale;
/// the DML statement itself never fails on view maintenance. Returns
/// `(views maintained, dominance comparisons)` — the spec's freshly
/// compiled preference counts every [`better`] call the incremental
/// algebra makes, which the caller charges to the triggering DML
/// statement.
///
/// [`better`]: prefsql_pref::compose::Preference::better
fn maintain<D>(
    engine: &Engine,
    cat: &mut Catalog,
    table: &str,
    prepare: impl Fn(&ExecCtx<'_>, &ViewSpec) -> Result<D>,
    apply: impl Fn(&mut MatViewDef, &ViewSpec, D),
) -> (u64, u64) {
    let mut maintained = 0;
    let mut comparisons = 0;
    for name in live_views_on(cat, table) {
        let sql = match cat.matview(&name) {
            Some(def) => def.sql.clone(),
            None => continue,
        };
        let delta = view_spec(&sql).and_then(|spec| {
            let d = engine.with_ctx_over(cat, |ctx| prepare(ctx, &spec))?;
            Ok((spec, d))
        });
        let Some(def) = cat.matview_mut(&name) else {
            continue;
        };
        match delta {
            Ok((spec, d)) => {
                apply(def, &spec, d);
                comparisons += spec.compiled.preference.comparisons();
                maintained += 1;
            }
            Err(_) => def.stale = true,
        }
    }
    (maintained, comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(sql: &str) -> Query {
        match parse_statement(sql).unwrap() {
            Statement::Select(q) => *q,
            other => panic!("expected a query, got {other:?}"),
        }
    }

    #[test]
    fn validate_accepts_the_supported_shape() {
        let (base, qual) = validate_definition(&q(
            "SELECT id, price FROM cars c WHERE price > 0 PREFERRING LOWEST(price)",
        ))
        .unwrap();
        assert_eq!(base, "cars");
        assert_eq!(qual, "c");
    }

    #[test]
    fn validate_rejects_unmaintainable_constructs() {
        for sql in [
            "SELECT * FROM a, b PREFERRING LOWEST(x)",
            "SELECT * FROM cars",
            "SELECT * FROM cars PREFERRING LOWEST(price) GROUPING color",
            "SELECT * FROM cars PREFERRING LOWEST(price) BUT ONLY level(price) <= 1",
            "SELECT color, COUNT(*) FROM cars PREFERRING LOWEST(color) GROUP BY color",
            "SELECT * FROM cars PREFERRING LOWEST(price) ORDER BY price",
            "SELECT * FROM cars PREFERRING LOWEST(price) LIMIT 3",
            "SELECT DISTINCT make FROM cars PREFERRING LOWEST(price)",
            "SELECT level(price) FROM cars PREFERRING LOWEST(price)",
            "SELECT * FROM cars WHERE EXISTS (SELECT 1 FROM cars) PREFERRING LOWEST(price)",
            "SELECT (SELECT 1) FROM cars PREFERRING LOWEST(price)",
        ] {
            assert!(validate_definition(&q(sql)).is_err(), "accepted: {sql}");
        }
    }

    #[test]
    fn matview_lifecycle_tracks_dml() {
        use crate::exec::{Engine, ExecOutcome};
        let mut e = Engine::new();
        e.execute_sql("CREATE TABLE cars (id INTEGER, price INTEGER, mileage INTEGER)")
            .unwrap();
        e.execute_sql("INSERT INTO cars VALUES (1, 30, 50), (2, 20, 70), (3, 40, 40)")
            .unwrap();
        e.execute_sql(
            "CREATE MATERIALIZED PREFERENCE VIEW best AS \
             SELECT id, price FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)",
        )
        .unwrap();
        let winners = |e: &mut Engine| -> Vec<i64> {
            e.execute_sql("SELECT id FROM best")
                .unwrap()
                .expect_rows()
                .rows
                .iter()
                .map(|r| match &r[0] {
                    prefsql_types::Value::Int(i) => *i,
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        // (1,30,50), (2,20,70), (3,40,40) are pairwise incomparable.
        assert_eq!(winners(&mut e), vec![1, 2, 3]);
        // A dominating row evicts 1 and 3; maintenance is incremental.
        e.execute_sql("INSERT INTO cars VALUES (4, 25, 35)")
            .unwrap();
        assert_eq!(winners(&mut e), vec![2, 4]);
        assert_eq!(e.take_view_maintenance(), 1);
        // Deleting the new winner promotes exactly what it dominated.
        e.execute_sql("DELETE FROM cars WHERE id = 4").unwrap();
        assert_eq!(winners(&mut e), vec![1, 2, 3]);
        // UPDATE moves a row across the skyline boundary.
        e.execute_sql("UPDATE cars SET price = 10, mileage = 10 WHERE id = 3")
            .unwrap();
        assert_eq!(winners(&mut e), vec![3]);
        // EXPLAIN shows the serving scan, not a base-table plan.
        let out = e.execute_sql("EXPLAIN SELECT id FROM best").unwrap();
        let ExecOutcome::Explain(text) = out else {
            panic!("expected EXPLAIN output")
        };
        assert!(text.contains("Materialized view scan: best"), "{text}");
        // Dropping the base table leaves the view stale; reads error
        // until REFRESH (which then fails on the missing table).
        e.execute_sql("DROP TABLE cars").unwrap();
        let err = e.execute_sql("SELECT id FROM best").unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        assert!(e
            .execute_sql("REFRESH MATERIALIZED PREFERENCE VIEW best")
            .is_err());
        e.execute_sql("DROP MATERIALIZED PREFERENCE VIEW best")
            .unwrap();
    }

    #[test]
    fn refresh_recovers_a_stale_view() {
        use crate::exec::Engine;
        let mut e = Engine::new();
        e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
        e.execute_sql("INSERT INTO t VALUES (2), (1), (3)").unwrap();
        e.execute_sql(
            "CREATE MATERIALIZED PREFERENCE VIEW low AS SELECT x FROM t PREFERRING LOWEST(x)",
        )
        .unwrap();
        {
            let mut cat = e.catalog_mut();
            cat.matview_mut("low").unwrap().stale = true;
        }
        assert!(e.execute_sql("SELECT * FROM low").is_err());
        e.execute_sql("REFRESH MATERIALIZED PREFERENCE VIEW low")
            .unwrap();
        let rel = e.execute_sql("SELECT x FROM low").unwrap().expect_rows();
        assert_eq!(rel.rows, vec![prefsql_types::tuple![1]]);
    }

    /// CREATE computes the stored state the way REFRESH does, dangling
    /// column references included: an empty base table evaluates nothing,
    /// and a computed select-list column resolves lazily, so neither may
    /// let one slide into the catalog.
    #[test]
    fn create_rejects_dangling_columns_over_an_empty_table() {
        use crate::exec::Engine;
        let mut e = Engine::new();
        e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
        for body in [
            "SELECT nope + 1 FROM t PREFERRING LOWEST(x)",
            "SELECT x FROM t WHERE nope > 0 PREFERRING LOWEST(x)",
            "SELECT x FROM t PREFERRING LOWEST(nope)",
        ] {
            let sql = format!("CREATE MATERIALIZED PREFERENCE VIEW v AS {body}");
            assert!(e.execute_sql(&sql).is_err(), "accepted: {body}");
        }
        e.execute_sql(
            "CREATE MATERIALIZED PREFERENCE VIEW v AS SELECT x FROM t PREFERRING LOWEST(x)",
        )
        .unwrap();
    }

    #[test]
    fn subquery_and_quality_detection_walks_nested_expressions() {
        let query = q("SELECT 1 + (SELECT 2) FROM t PREFERRING LOWEST(x)");
        let SelectItem::Expr { expr, .. } = &query.select[0] else {
            panic!()
        };
        assert!(has_subquery(expr));
        let query = q("SELECT abs(level(x)) FROM t PREFERRING LOWEST(x)");
        let SelectItem::Expr { expr, .. } = &query.select[0] else {
            panic!()
        };
        assert!(uses_quality(expr));
    }
}
