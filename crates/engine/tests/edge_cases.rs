//! Edge-case coverage for the host engine: NULL handling in every clause,
//! boundary LIMIT/DISTINCT behaviour, coercions, views over views, and
//! failure paths that must be clean errors.

use prefsql_engine::{Engine, ExecOutcome};
use prefsql_types::Value;

fn rows(e: &mut Engine, sql: &str) -> Vec<Vec<Value>> {
    e.execute_sql(sql)
        .unwrap_or_else(|err| panic!("query failed: {sql}: {err}"))
        .expect_rows()
        .rows
        .into_iter()
        .map(|t| t.into_values())
        .collect()
}

#[test]
fn order_by_puts_nulls_first() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (2), (NULL), (1)")
        .unwrap();
    let r = rows(&mut e, "SELECT x FROM t ORDER BY x");
    assert_eq!(
        r,
        vec![vec![Value::Null], vec![Value::Int(1)], vec![Value::Int(2)]]
    );
    let r = rows(&mut e, "SELECT x FROM t ORDER BY x DESC");
    assert_eq!(
        r,
        vec![vec![Value::Int(2)], vec![Value::Int(1)], vec![Value::Null]]
    );
}

#[test]
fn order_by_multiple_keys() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (a INTEGER, b INTEGER)")
        .unwrap();
    e.execute_sql("INSERT INTO t VALUES (1, 2), (1, 1), (0, 9)")
        .unwrap();
    let r = rows(&mut e, "SELECT a, b FROM t ORDER BY a, b DESC");
    assert_eq!(
        r,
        vec![
            vec![Value::Int(0), Value::Int(9)],
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(1), Value::Int(1)],
        ]
    );
}

#[test]
fn limit_zero_and_oversized() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
    assert!(rows(&mut e, "SELECT x FROM t LIMIT 0").is_empty());
    assert_eq!(rows(&mut e, "SELECT x FROM t LIMIT 99").len(), 2);
}

#[test]
fn distinct_groups_nulls_together() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (NULL), (NULL), (1)")
        .unwrap();
    assert_eq!(rows(&mut e, "SELECT DISTINCT x FROM t").len(), 2);
}

#[test]
fn group_by_null_key_forms_a_group() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (g VARCHAR, v INTEGER)")
        .unwrap();
    e.execute_sql("INSERT INTO t VALUES (NULL, 1), (NULL, 2), ('a', 3)")
        .unwrap();
    let r = rows(&mut e, "SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g");
    assert_eq!(r.len(), 2);
    // NULL group sorts first under the total order.
    assert_eq!(r[0], vec![Value::Null, Value::Int(3)]);
}

#[test]
fn min_max_over_strings_and_dates() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (s VARCHAR, d DATE)").unwrap();
    e.execute_sql("INSERT INTO t VALUES ('pear', DATE '1999-07-03'), ('apple', DATE '2001-01-01')")
        .unwrap();
    let r = rows(&mut e, "SELECT MIN(s), MAX(s), MIN(d), MAX(d) FROM t");
    assert_eq!(r[0][0], Value::str("apple"));
    assert_eq!(r[0][1], Value::str("pear"));
    assert_eq!(r[0][2].to_string(), "1999-07-03");
    assert_eq!(r[0][3].to_string(), "2001-01-01");
}

#[test]
fn avg_promotes_to_float() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
    let r = rows(&mut e, "SELECT AVG(x) FROM t");
    assert_eq!(r[0][0], Value::Float(1.5));
}

#[test]
fn having_without_group_by() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
    assert_eq!(
        rows(&mut e, "SELECT SUM(x) FROM t HAVING SUM(x) > 2").len(),
        1
    );
    assert_eq!(
        rows(&mut e, "SELECT SUM(x) FROM t HAVING SUM(x) > 5").len(),
        0
    );
}

#[test]
fn insert_coerces_ints_into_float_columns() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (f FLOAT, d DATE)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (3, '1999/7/3')")
        .unwrap();
    let r = rows(&mut e, "SELECT f, d FROM t");
    assert_eq!(r[0][0], Value::Float(3.0));
    assert_eq!(r[0][1].to_string(), "1999-07-03");
}

#[test]
fn three_level_view_stack() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE base (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO base VALUES (1), (2), (3), (4)")
        .unwrap();
    e.execute_sql("CREATE VIEW v1 AS SELECT * FROM base WHERE x > 1")
        .unwrap();
    e.execute_sql("CREATE VIEW v2 AS SELECT * FROM v1 WHERE x > 2")
        .unwrap();
    e.execute_sql("CREATE VIEW v3 AS SELECT * FROM v2 WHERE x > 3")
        .unwrap();
    let r = rows(&mut e, "SELECT x FROM v3");
    assert_eq!(r, vec![vec![Value::Int(4)]]);
}

#[test]
fn view_over_dropped_table_errors_at_query_time() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE base (x INTEGER)").unwrap();
    e.execute_sql("CREATE VIEW v AS SELECT * FROM base")
        .unwrap();
    e.execute_sql("DROP TABLE base").unwrap();
    assert!(e.execute_sql("SELECT * FROM v").is_err());
}

#[test]
fn three_way_cross_join_cardinality() {
    let mut e = Engine::new();
    for t in ["a", "b", "c"] {
        e.execute_sql(&format!("CREATE TABLE {t} (x INTEGER)"))
            .unwrap();
        e.execute_sql(&format!("INSERT INTO {t} VALUES (1), (2)"))
            .unwrap();
    }
    assert_eq!(rows(&mut e, "SELECT * FROM a, b, c").len(), 8);
    assert_eq!(
        rows(
            &mut e,
            "SELECT * FROM a, b, c WHERE a.x = b.x AND b.x = c.x"
        )
        .len(),
        2
    );
}

#[test]
fn in_subquery_with_nulls_follows_three_valued_logic() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("CREATE TABLE s (y INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (1), (3)").unwrap();
    e.execute_sql("INSERT INTO s VALUES (1), (NULL)").unwrap();
    // 1 IN (1, NULL) = TRUE; 3 IN (1, NULL) = UNKNOWN -> filtered.
    assert_eq!(
        rows(&mut e, "SELECT x FROM t WHERE x IN (SELECT y FROM s)").len(),
        1
    );
    // NOT IN with NULL present: nothing qualifies (classic SQL trap).
    assert_eq!(
        rows(&mut e, "SELECT x FROM t WHERE x NOT IN (SELECT y FROM s)").len(),
        0
    );
}

#[test]
fn case_without_else_yields_null() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (1)").unwrap();
    let r = rows(&mut e, "SELECT CASE WHEN x = 2 THEN 'two' END FROM t");
    assert_eq!(r, vec![vec![Value::Null]]);
}

#[test]
fn scalar_subquery_cardinality_errors() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
    // Two rows in a scalar position: error.
    assert!(e.execute_sql("SELECT (SELECT x FROM t)").is_err());
    // Zero rows: NULL.
    let r = rows(&mut e, "SELECT (SELECT x FROM t WHERE x > 9)");
    assert_eq!(r, vec![vec![Value::Null]]);
}

#[test]
fn update_with_correlated_subquery_value() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (1), (5)").unwrap();
    e.execute_sql("UPDATE t SET x = (SELECT MAX(x) FROM t) WHERE x = 1")
        .unwrap();
    let r = rows(&mut e, "SELECT x FROM t ORDER BY x");
    assert_eq!(r, vec![vec![Value::Int(5)], vec![Value::Int(5)]]);
}

#[test]
fn delete_with_subquery_predicate() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("CREATE TABLE banned (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    e.execute_sql("INSERT INTO banned VALUES (2)").unwrap();
    match e
        .execute_sql("DELETE FROM t WHERE x IN (SELECT x FROM banned)")
        .unwrap()
    {
        ExecOutcome::Count(n) => assert_eq!(n, 1),
        other => panic!("expected count, got {other:?}"),
    }
    assert_eq!(
        rows(&mut e, "SELECT COUNT(*) FROM t"),
        vec![vec![Value::Int(2)]]
    );
}

#[test]
fn like_escaping_of_wildcards_is_literal_percent_free() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (s VARCHAR)").unwrap();
    e.execute_sql("INSERT INTO t VALUES ('100%'), ('100x')")
        .unwrap();
    // '%' in the pattern is a wildcard (no ESCAPE support — SQL92 entry
    // minimal); both rows match '100%'.
    assert_eq!(rows(&mut e, "SELECT s FROM t WHERE s LIKE '100%'").len(), 2);
    assert_eq!(rows(&mut e, "SELECT s FROM t WHERE s LIKE '100_'").len(), 2);
}

#[test]
fn empty_values_and_arity_checks() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER, y INTEGER)")
        .unwrap();
    assert!(e.execute_sql("INSERT INTO t (x) VALUES (1, 2)").is_err());
    e.execute_sql("INSERT INTO t (y) VALUES (7)").unwrap();
    let r = rows(&mut e, "SELECT x, y FROM t");
    assert_eq!(r, vec![vec![Value::Null, Value::Int(7)]]);
}

#[test]
fn select_expression_aliases_usable_in_order_by() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (a INTEGER, b INTEGER)")
        .unwrap();
    e.execute_sql("INSERT INTO t VALUES (1, 10), (2, 1)")
        .unwrap();
    let r = rows(&mut e, "SELECT a, a * b AS product FROM t ORDER BY product");
    assert_eq!(r[0][1], Value::Int(2));
    assert_eq!(r[1][1], Value::Int(10));
}

#[test]
fn comparison_type_mismatch_is_unknown_not_error() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (1)").unwrap();
    // Comparing INT to a string yields UNKNOWN -> row filtered, no error
    // (defensive dynamic typing; a stricter checker could reject).
    assert!(rows(&mut e, "SELECT x FROM t WHERE x = 'one'").is_empty());
}

#[test]
fn update_everything_and_delete_everything_counts() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    match e.execute_sql("UPDATE t SET x = 0").unwrap() {
        ExecOutcome::Count(n) => assert_eq!(n, 3),
        other => panic!("{other:?}"),
    }
    match e.execute_sql("DELETE FROM t").unwrap() {
        ExecOutcome::Count(n) => assert_eq!(n, 3),
        other => panic!("{other:?}"),
    }
}

#[test]
fn group_by_keys_use_key_equality_like_distinct_and_joins() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (id INTEGER, x INTEGER)")
        .unwrap();
    e.execute_sql("INSERT INTO t VALUES (1, 7), (2, NULL), (3, NULL)")
        .unwrap();
    // INT 1 and FLOAT 1.0 are equal under `=`, DISTINCT and the hash
    // join, so they are one group, not two.
    let key = "CASE WHEN id = 1 THEN 1 ELSE 1.0 END";
    let r = rows(
        &mut e,
        &format!("SELECT COUNT(*) FROM t WHERE id < 3 GROUP BY {key}"),
    );
    assert_eq!(r, vec![vec![Value::Int(2)]]);
    let r = rows(
        &mut e,
        &format!("SELECT DISTINCT {key} FROM t WHERE id < 3"),
    );
    assert_eq!(r.len(), 1);
    // NULL stays a group of its own.
    let r = rows(&mut e, "SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY x");
    assert_eq!(
        r,
        vec![
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(7), Value::Int(1)]
        ]
    );
}

/// Unknown and ambiguous columns are plan errors raised when the
/// statement is bound — a deliberate change from evaluation-time errors:
/// they no longer depend on the data (an empty table), on
/// short-circuiting (`FALSE AND …`, a never-taken `CASE` branch) or on
/// the statement running at all (`EXPLAIN`).
#[test]
fn name_resolution_errors_are_raised_at_bind_time() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    e.execute_sql("CREATE TABLE u (x INTEGER, y INTEGER)")
        .unwrap();
    let err = |e: &mut Engine, sql: &str| match e.execute_sql(sql) {
        Err(err) => err.to_string(),
        Ok(out) => panic!("{sql} succeeded: {out:?}"),
    };
    // Over an empty table, in every clause.
    for sql in [
        "SELECT nope FROM t",
        "SELECT x FROM t WHERE nope = 1",
        "SELECT x FROM t ORDER BY nope",
        "SELECT COUNT(*) FROM t GROUP BY nope",
        "SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.y = nope)",
    ] {
        assert!(err(&mut e, sql).contains("unknown column 'nope'"), "{sql}");
    }
    e.execute_sql("INSERT INTO t VALUES (1)").unwrap();
    // Behind a short-circuit that never evaluates the reference.
    for sql in [
        "SELECT x FROM t WHERE FALSE AND nope = 1",
        "SELECT CASE WHEN TRUE THEN 1 ELSE nope END FROM t",
        "DELETE FROM t WHERE FALSE AND nope = 1",
    ] {
        assert!(err(&mut e, sql).contains("unknown column 'nope'"), "{sql}");
    }
    // EXPLAIN binds without executing.
    assert!(err(&mut e, "EXPLAIN SELECT nope FROM t").contains("unknown column 'nope'"));
    // Ambiguity after a join is checked within the one frame that has
    // the name — also when no row ever reaches the projection.
    for sql in [
        "SELECT x FROM t JOIN u ON t.x = u.y",
        "SELECT x FROM t, u WHERE FALSE",
        "EXPLAIN SELECT x FROM t, u",
    ] {
        assert!(
            err(&mut e, sql).contains("ambiguous column reference 'x'"),
            "{sql}"
        );
    }
    // The statement failed before touching anything.
    assert_eq!(rows(&mut e, "SELECT x FROM t"), vec![vec![Value::Int(1)]]);
}

/// Native `BUT ONLY` binds against two frames — the candidate's quality
/// values, then its row — so a threshold can mix a quality function with
/// a plain column.
#[test]
fn native_but_only_mixes_quality_functions_and_columns() {
    use prefsql_engine::physical::execute;
    use prefsql_engine::plan::plan_preference;
    use prefsql_parser::ast::Statement;

    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE cars (id INTEGER, price INTEGER, color VARCHAR)")
        .unwrap();
    e.execute_sql(
        "INSERT INTO cars VALUES (1, 95, 'red'), (2, 105, 'blue'), (3, 120, 'blue'), \
         (4, 100, 'red')",
    )
    .unwrap();
    let Statement::Select(query) = prefsql_parser::parse_statement(
        "SELECT id, DISTANCE(price) FROM cars PREFERRING price AROUND 100 \
         BUT ONLY DISTANCE(price) <= 10 AND color <> 'red'",
    )
    .unwrap() else {
        panic!("expected a SELECT");
    };
    let ctx = e.read_ctx().unwrap();
    let pref = query.preferring.as_ref().unwrap();
    let plan = plan_preference(&ctx, &query, pref).unwrap();
    let got: Vec<Vec<Value>> = execute(&ctx, plan.root(), &[])
        .unwrap()
        .rows
        .into_iter()
        .map(|t| t.into_values())
        .collect();
    // Id 4 (distance 0) and id 1 are red, id 3 is 20 away: the threshold
    // leaves id 2 alone, 5 away.
    assert_eq!(got, vec![vec![Value::Int(2), Value::Int(5)]]);
}

/// SQL calls `-0.0` and `0.0` one value, and compares an INT literal with
/// a FLOAT column numerically: an index probe and a paged scan's page
/// skipping must find exactly what a sequential scan finds. Both used to
/// miss rows — a B-tree index on `x` answered `x = 0.0` with the `0.0`
/// row alone, a hash index answered `x = 0` with nothing.
#[test]
fn index_probes_and_page_skipping_follow_sql_equality_on_zeros_and_int_literals() {
    use prefsql_engine::{BackendKind, EngineCore};
    use prefsql_types::knobs::{DEFAULT_POOL_BYTES, MIN_POOL_BYTES};
    use std::sync::Arc;

    let setup = |kind: BackendKind, index: &str| {
        let pool = match kind {
            BackendKind::Paged => MIN_POOL_BYTES,
            BackendKind::Mem => DEFAULT_POOL_BYTES,
        };
        let mut e = Engine::with_core(Arc::new(EngineCore::with_storage(kind, pool)));
        e.execute_sql("CREATE TABLE t (x FLOAT, y INTEGER)")
            .unwrap();
        // The zeros sit between runs of filler, so on the paged backend
        // they share a page with few others and most pages can be skipped.
        let filler = |from: i64| -> String {
            (from..from + 400)
                .map(|i| format!("({}.5, {i})", 10 + i))
                .collect::<Vec<_>>()
                .join(", ")
        };
        e.execute_sql(&format!("INSERT INTO t VALUES {}", filler(100)))
            .unwrap();
        e.execute_sql("INSERT INTO t VALUES (-0.0, 1), (0.0, 2)")
            .unwrap();
        e.execute_sql(&format!("INSERT INTO t VALUES {}", filler(1000)))
            .unwrap();
        if !index.is_empty() {
            e.execute_sql(&format!("CREATE INDEX ix ON t (x){index}"))
                .unwrap();
        }
        e
    };
    let probes = [
        "x = 0.0",
        "x = 0",
        "x = -0.0",
        "0 = x",
        "x <= 0",
        "x >= -0.0 AND x < 1",
        "x BETWEEN 0 AND 0",
        "x > -1 AND x <= -0.0",
    ];
    for (kind, index) in [
        (BackendKind::Mem, ""),
        (BackendKind::Mem, " USING hash"),
        (BackendKind::Mem, " USING btree"),
        (BackendKind::Paged, ""),
        (BackendKind::Paged, " USING hash"),
        (BackendKind::Paged, " USING btree"),
    ] {
        let mut e = setup(kind, index);
        for probe in probes {
            let how = format!("{kind:?}{index}: {probe}");
            let got = rows(&mut e, &format!("SELECT y FROM t WHERE {probe} ORDER BY y"));
            assert_eq!(got, vec![vec![Value::Int(1)], vec![Value::Int(2)]], "{how}");
            let updated = e
                .execute_sql(&format!("UPDATE t SET y = y WHERE {probe}"))
                .unwrap();
            assert!(matches!(updated, ExecOutcome::Count(2)), "{how}");
        }
        if kind == BackendKind::Paged && index.is_empty() {
            let ExecOutcome::Explain(report) = e
                .execute_sql("EXPLAIN ANALYZE SELECT y FROM t WHERE x = 0")
                .unwrap()
            else {
                panic!("EXPLAIN ANALYZE returns a report");
            };
            assert!(report.contains("[prune: x = 0.0]"), "{report}");
            assert!(report.contains("pages_skipped="), "{report}");
        }
    }
}
