//! Materialized preference views: the stored definition, DDL, REFRESH
//! and the DML maintenance hooks.
//!
//! A `CREATE MATERIALIZED PREFERENCE VIEW` parses, compiles and binds its
//! definition once ([`MatViewDef`]: the query, its compiled preference,
//! and its WHERE, slot and select-list expressions bound against the base
//! table), runs the defining BMO once, and stores its state — one
//! [`ViewSkyline`]: a row of score cells per base row and the winner
//! list — in the catalog. Only REFRESH compiles and binds it again. Every
//! DML statement against the base table then calls one of the `after_*`
//! hooks here — still under the statement's catalog write lock, so
//! readers never observe a view out of sync with its table. The hooks
//! run the stored expressions' programs over the changed rows (as the
//! preference operator does, [`crate::program`]) and hand them to the
//! incremental skyline algebra of `prefsql_pref::incremental`, which
//! lowers each once and keeps the winner list equal to the BMO result
//! without recomputation: a new row is tested against the winners only,
//! a lost winner re-examines only the rows it beat.
//!
//! The store holds no rows: a read fetches the winners from the base
//! table by row id, which is why its rows must mirror the table's rids.
//!
//! Binding once is sound because a view reads only its base table — a
//! sub-query anywhere in the definition is rejected — a table changes
//! shape only by being dropped, and [`Catalog::drop_table`] marks the
//! views on it stale.
//! Maintenance never fails the triggering DML: any error marks the view
//! *stale* instead, as does a DML statement whose storage step fails
//! after the table changed. Stale views refuse reads and skip
//! maintenance until `REFRESH MATERIALIZED PREFERENCE VIEW` rebuilds
//! them from scratch.

use crate::bind::{bind, columns_read, Bound};
use crate::catalog::Catalog;
use crate::eval::Env;
use crate::exec::{Engine, ExecCtx};
use crate::plan::{projection_plan, Projection};
use crate::program::Regs;
use prefsql_parser::ast::{Expr, Query, SelectItem, TableRef};
use prefsql_pref::ViewSkyline;
use prefsql_rewrite::levels::{check_aliases, uses_quality};
use prefsql_rewrite::{compile_preference, CompiledPreference};
use prefsql_storage::Table;
use prefsql_types::{Error, Result, Schema, Tuple, Value};

/// A stored materialized preference view: its compiled definition and
/// the state maintenance keeps current.
#[derive(Debug)]
pub struct MatViewDef {
    /// View name (lower-cased).
    pub name: String,
    /// The single base table the view reads (lower-cased).
    pub base_table: String,
    /// The defining query as CREATE parsed it, named preferences
    /// resolved: a native query with the same FROM, WHERE and preference
    /// is served by the view.
    pub(crate) query: Query,
    /// The compiled preference. Its dominance counter is reset after
    /// every rebuild and taken after every maintenance step, so each
    /// statement is charged only its own tests.
    pub(crate) compiled: CompiledPreference,
    /// The definition's expressions, bound against the base table.
    pub(crate) bound: BoundView,
    /// The base-table schema under the view's qualifier: the schema the
    /// bound expressions evaluate against, and the one the winner rows
    /// fetched from the base table are read under.
    pub schema: Schema,
    /// One row of cells per base-table row, in row-id order, and the
    /// winners: the view contents.
    pub(crate) state: ViewSkyline,
    /// True when maintenance could not keep the view current (the base
    /// table was dropped, a maintenance step failed, or a DML statement
    /// failed after changing the table). Stale views refuse reads until
    /// `REFRESH MATERIALIZED PREFERENCE VIEW` rebuilds them.
    pub stale: bool,
}

impl MatViewDef {
    /// Number of rows currently served by the view.
    pub fn winner_count(&self) -> usize {
        self.state.winners().len()
    }
}

/// True if `expr` contains a sub-query anywhere.
fn has_subquery(expr: &Expr) -> bool {
    matches!(
        expr,
        Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_)
    ) || expr.children().iter().any(|c| has_subquery(c))
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
    check_aliases(&query.select)?;
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
    if (pref.base_prefs().iter())
        .filter_map(|b| b.base_expr())
        .any(has_subquery)
    {
        return Err(unsupported("sub-queries in PREFERRING"));
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

/// A view's expressions bound against its base table: the WHERE clause,
/// one expression per base preference (the slot vector), and the select
/// list a read by name projects the winners through.
#[derive(Debug)]
pub(crate) struct BoundView {
    where_clause: Option<Bound>,
    slots: Vec<Bound>,
    /// Output schema and columns of the view's select list.
    pub(crate) output: Schema,
    pub(crate) projections: Vec<Projection>,
}

impl BoundView {
    /// Bind the definition against `schema`, the base table as it exists
    /// now — a dangling column is an error here, before any row is looked
    /// at, so an empty base table cannot let one slide.
    fn new(
        ctx: &ExecCtx<'_>,
        query: &Query,
        compiled: &CompiledPreference,
        schema: &Schema,
    ) -> Result<BoundView> {
        let scope = [schema];
        let (output, projections) = projection_plan(ctx, &query.select, schema, &[])?;
        let bound = |e: &Expr| {
            let mut b = Bound::new(e.clone(), bind(ctx, e, &scope)?);
            b.compile();
            Ok(b)
        };
        let slots = compiled.base_exprs.iter().map(bound);
        Ok(BoundView {
            where_clause: query.where_clause.as_ref().map(bound).transpose()?,
            slots: slots.collect::<Result<_>>()?,
            output,
            projections,
        })
    }

    /// Evaluate one base-table row into `out`: its base-preference values,
    /// and whether its WHERE clause is exactly TRUE.
    fn evaluate(
        &self,
        ctx: &ExecCtx<'_>,
        row: &Tuple,
        out: &mut Evaluated,
        regs: &mut Regs,
    ) -> Result<()> {
        let env = Env::new(row, &[]);
        for slot in &self.slots {
            out.0.push(slot.prog.eval(env, ctx, regs)?);
        }
        out.1.push(match &self.where_clause {
            None => true,
            Some(pred) => pred.prog.holds(env, ctx, regs)?,
        });
        Ok(())
    }
}

/// Base rows, evaluated: their slots back to back, and which qualify.
type Evaluated = (Vec<Value>, Vec<bool>);

/// Each evaluated row's slots and qualifies flag, in order.
fn rows((slots, qualifies): &Evaluated, arity: usize) -> impl Iterator<Item = (&[Value], bool)> {
    slots.chunks_exact(arity).zip(qualifies.iter().copied())
}

/// Build a [`MatViewDef`] from scratch — CREATE and REFRESH: validate the
/// defining query, compile its preference, bind it against the *current*
/// base table, compute one entry per row and run the full skyline
/// rebuild. A broken projection fails here, not at the first read.
pub(crate) fn build_def(
    engine: &Engine,
    cat: &Catalog,
    name: &str,
    query: &Query,
) -> Result<MatViewDef> {
    let (base_table, qual) = validate_definition(query)?;
    let pref = query.preferring.as_ref().expect("validated above");
    let compiled = compile_preference(pref)?;
    let table = cat.table(&base_table)?;
    // The table's columns under the view's FROM qualifier (the idiom of
    // UPDATE/DELETE expression evaluation).
    let schema = table.schema().without_qualifiers().with_qualifier(&qual);
    let mut evaluated = Evaluated::default();
    let bound = engine.with_ctx_over(cat, |ctx| {
        let view = BoundView::new(ctx, query, &compiled, &schema)?;
        // A definition holds no sub-query, so the mask is never `None`.
        let reads = view.where_clause.iter().chain(&view.slots);
        let mask = columns_read(reads.map(|c| &c.expr), schema.len());
        let mut regs = Regs::default();
        table.for_each_row_where(0, mask.as_deref(), |_, row| {
            view.evaluate(ctx, row, &mut evaluated, &mut regs)
        })?;
        Ok(view)
    })?;
    let (slots, qualifies) = evaluated;
    let state = ViewSkyline::new(&compiled.preference, &slots, qualifies);
    // The rebuild's tests belong to no DML statement.
    compiled.preference.take_comparisons();
    Ok(MatViewDef {
        name: name.to_string(),
        base_table,
        query: query.clone(),
        compiled,
        bound,
        schema,
        state,
        stale: false,
    })
}

/// `REFRESH MATERIALIZED PREFERENCE VIEW`: rebuild the view from its
/// stored query against the current base table, which clears the stale
/// flag. Returns the number of rows the view now serves.
///
/// Any rebuild failure — the base table gone, its schema changed under
/// the view (DROP + CREATE with a different shape), an evaluation error —
/// marks the view *stale* and returns a diagnostic: the one thing REFRESH
/// must never do is leave a non-stale view serving rows that no longer
/// match the definition.
pub(crate) fn refresh(engine: &Engine, cat: &mut Catalog, name: &str) -> Result<usize> {
    let def = cat.matview(name).ok_or_else(|| {
        Error::Catalog(format!(
            "unknown materialized preference view '{}'",
            name.to_ascii_lowercase()
        ))
    })?;
    let rebuilt = build_def(engine, cat, &def.name, &def.query);
    let def = cat
        .matview_mut(name)
        .expect("view existed above and the catalog is write-locked");
    match rebuilt {
        Ok(fresh) => {
            *def = fresh;
            Ok(def.winner_count())
        }
        Err(e) => {
            def.stale = true;
            Err(Error::Catalog(format!(
                "cannot refresh materialized preference view '{name}': {e} \
                 (the view stays stale)"
            )))
        }
    }
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
        |ctx, view, t| {
            let (mut delta, mut regs) = (Evaluated::default(), Regs::default());
            t.for_each_row_where(from_rid, None, |_, row| {
                view.evaluate(ctx, row, &mut delta, &mut regs)
            })?;
            Ok(delta)
        },
        |def, delta| {
            let pref = &def.compiled.preference;
            for (slots, qualifies) in rows(&delta, pref.arity()) {
                def.state.insert(pref, slots, qualifies);
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
        |_, _, _| Ok(()),
        |def, ()| def.state.delete(&def.compiled.preference, doomed),
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
        |ctx, view, t| {
            let (mut delta, mut regs) = (Evaluated::default(), Regs::default());
            for &rid in ids {
                view.evaluate(ctx, &t.fetch_row(rid, None)?, &mut delta, &mut regs)?;
            }
            Ok(delta)
        },
        |def, delta| {
            let pref = &def.compiled.preference;
            for (&rid, (slots, qualifies)) in ids.iter().zip(rows(&delta, pref.arity())) {
                def.state.replace(pref, rid, slots, qualifies);
            }
        },
    )
}

/// The shared two-phase shape of every DML hook: phase 1 evaluates the
/// view's bound expressions over the changed rows in a statement context
/// of `engine` over a shared catalog borrow (the session's knobs apply as
/// to any statement), phase 2 applies the delta to the view through the
/// mutable borrow. Any phase-1 error marks the view stale; the DML
/// statement itself never fails on view maintenance. Returns `(views
/// maintained, dominance comparisons)` — the comparisons phase 2 made,
/// taken from the view's preference, which the caller charges to the
/// triggering DML statement.
fn maintain<D>(
    engine: &Engine,
    cat: &mut Catalog,
    table: &str,
    prepare: impl Fn(&ExecCtx<'_>, &BoundView, &Table) -> Result<D>,
    apply: impl Fn(&mut MatViewDef, D),
) -> (u64, u64) {
    let mut maintained = 0;
    let mut comparisons = 0;
    for name in cat.matviews_on(table) {
        let def = cat.matview(&name).expect("listed above");
        if def.stale {
            continue;
        }
        let delta = engine.with_ctx_over(cat, |ctx| prepare(ctx, &def.bound, cat.table(table)?));
        let def = cat.matview_mut(&name).expect("listed above");
        match delta {
            Ok(d) => {
                apply(def, d);
                comparisons += def.compiled.preference.take_comparisons();
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
    use prefsql_parser::ast::Statement;
    use prefsql_parser::parse_statement;

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
            "SELECT * FROM cars PREFERRING LOWEST(price + (SELECT MAX(price) FROM cars))",
            "SELECT * FROM cars PREFERRING LOWEST(price) AND (SELECT 1) AROUND 2",
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

    /// A view is bound once and only its base table's drop marks it
    /// stale, so it may read no other table: a sub-query in PREFERRING
    /// would keep a plan bound to `s` across a drop and re-create of `s`.
    #[test]
    fn create_rejects_a_preference_that_reads_another_table() {
        use crate::exec::Engine;
        let mut e = Engine::new();
        for sql in [
            "CREATE TABLE t (x INTEGER)",
            "CREATE TABLE s (y INTEGER)",
            "INSERT INTO s VALUES (1)",
        ] {
            e.execute_sql(sql).unwrap();
        }
        let err = e
            .execute_sql(
                "CREATE MATERIALIZED PREFERENCE VIEW v AS \
                 SELECT x FROM t PREFERRING LOWEST(x + (SELECT MAX(y) FROM s))",
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("sub-queries in PREFERRING"),
            "{err}"
        );
        for sql in [
            "DROP TABLE s",
            "CREATE TABLE s (z VARCHAR, y INTEGER)",
            "INSERT INTO t VALUES (1)",
        ] {
            e.execute_sql(sql).unwrap();
        }
        assert!(e.catalog().matview("v").is_none());
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

    /// The winner list holds base row ids in row order, which is the
    /// order a read of the view returns its rows in.
    #[test]
    fn winners_preserve_entry_order() {
        use crate::exec::Engine;
        let mut e = Engine::new();
        e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
        e.execute_sql("INSERT INTO t VALUES (3), (9), (3)").unwrap();
        e.execute_sql(
            "CREATE MATERIALIZED PREFERENCE VIEW v AS SELECT x FROM t PREFERRING LOWEST(x)",
        )
        .unwrap();
        let cat = e.catalog();
        let v = cat.matview("v").unwrap();
        assert_eq!(v.state.winners(), [0, 2]);
        assert_eq!(v.winner_count(), 2);
    }

    /// The view's preference outlives the statements that maintain it,
    /// so its dominance counter must be emptied by every rebuild and by
    /// every maintenance step: a DML statement reports its own tests,
    /// not a CREATE's, a REFRESH's or an earlier statement's.
    #[test]
    fn each_statement_is_charged_only_its_own_maintenance_tests() {
        use crate::exec::Engine;
        let mut e = Engine::new();
        e.execute_sql("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER)")
            .unwrap();
        e.execute_sql(
            "INSERT INTO t VALUES (1, 1, 9), (2, 5, 5), (3, 9, 1), (4, 8, 8), (5, 7, 9), (6, 9, 7)",
        )
        .unwrap();
        let tests = |e: &mut Engine, sql: &str| {
            e.take_stats();
            e.execute_sql(sql).unwrap();
            e.take_stats().dominance_tests
        };
        let create = "CREATE MATERIALIZED PREFERENCE VIEW v AS \
                      SELECT * FROM t PREFERRING LOWEST(a) AND LOWEST(b)";
        tests(&mut e, create);
        // Row 4 (8, 8) is beaten by (5, 5): losing a non-winner tests
        // nothing.
        assert_eq!(tests(&mut e, "DELETE FROM t WHERE id = 4"), 0);
        // Move the winner (5, 5) off the frontier and back, twice.
        let round = |e: &mut Engine| {
            tests(e, "UPDATE t SET a = 9, b = 9 WHERE id = 2")
                + tests(e, "UPDATE t SET a = 5, b = 5 WHERE id = 2")
        };
        let first = round(&mut e);
        assert!(first > 0);
        assert_eq!(round(&mut e), first);
        tests(&mut e, "REFRESH MATERIALIZED PREFERENCE VIEW v");
        assert_eq!(tests(&mut e, "DELETE FROM t WHERE id = 5"), 0);
    }
}
