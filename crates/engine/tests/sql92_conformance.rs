//! A mini SQL92-entry-level conformance battery for the host engine.
//!
//! The paper's claim (§3.1): "Any additional code, generated for query
//! rewriting by the Preference SQL Optimizer, is fully SQL92 entry-level
//! compliant. Thus Preference SQL can run in combination with any SQL92
//! entry-level compliant database system." Our engine *is* that database
//! system, so it must cover the constructs the rewriter emits plus the
//! surrounding entry-level basics. Each case is (query, expected rows).

use prefsql_engine::Engine;
use prefsql_types::Value;

/// A small fixed sales schema exercising joins, groups and NULLs.
fn fixture() -> Engine {
    let mut e = Engine::new();
    e.execute_sql(
        "CREATE TABLE emp (id INTEGER NOT NULL, name VARCHAR, dept INTEGER, salary INTEGER)",
    )
    .unwrap();
    e.execute_sql("CREATE TABLE dept (id INTEGER NOT NULL, dname VARCHAR)")
        .unwrap();
    e.execute_sql(
        "INSERT INTO emp VALUES \
         (1, 'ann', 10, 5000), (2, 'bob', 10, 4000), (3, 'cat', 20, 6000), \
         (4, 'dan', 20, NULL), (5, 'eve', NULL, 3000)",
    )
    .unwrap();
    e.execute_sql("INSERT INTO dept VALUES (10, 'sales'), (20, 'tech'), (30, 'empty')")
        .unwrap();
    e
}

fn check(e: &mut Engine, sql: &str, expected: Vec<Vec<Value>>) {
    let got: Vec<Vec<Value>> = e
        .execute_sql(sql)
        .unwrap_or_else(|err| panic!("{sql}\nfailed: {err}"))
        .expect_rows()
        .rows
        .into_iter()
        .map(|t| t.into_values())
        .collect();
    assert_eq!(got, expected, "mismatch for: {sql}");
}

fn i(v: i64) -> Value {
    Value::Int(v)
}
fn s(v: &str) -> Value {
    Value::str(v)
}

#[test]
fn projections_and_expressions() {
    let mut e = fixture();
    check(&mut e, "SELECT 1 + 2 * 3", vec![vec![i(7)]]);
    check(&mut e, "SELECT (1 + 2) * 3", vec![vec![i(9)]]);
    check(&mut e, "SELECT -(-5)", vec![vec![i(5)]]);
    check(&mut e, "SELECT ABS(3 - 10)", vec![vec![i(7)]]);
    check(
        &mut e,
        "SELECT name FROM emp WHERE id = 1",
        vec![vec![s("ann")]],
    );
    check(
        &mut e,
        "SELECT salary / 1000 AS k FROM emp WHERE id = 1",
        vec![vec![i(5)]],
    );
}

#[test]
fn where_predicates() {
    let mut e = fixture();
    check(
        &mut e,
        "SELECT id FROM emp WHERE salary > 4000 AND dept = 10",
        vec![vec![i(1)]],
    );
    check(
        &mut e,
        "SELECT id FROM emp WHERE salary BETWEEN 4000 AND 5000 ORDER BY id",
        vec![vec![i(1)], vec![i(2)]],
    );
    check(
        &mut e,
        "SELECT id FROM emp WHERE name IN ('ann', 'cat') ORDER BY id",
        vec![vec![i(1)], vec![i(3)]],
    );
    check(
        &mut e,
        "SELECT id FROM emp WHERE name LIKE '%a%' ORDER BY id",
        vec![vec![i(1)], vec![i(3)], vec![i(4)]],
    );
    check(
        &mut e,
        "SELECT id FROM emp WHERE dept IS NULL",
        vec![vec![i(5)]],
    );
    check(
        &mut e,
        "SELECT id FROM emp WHERE NOT (dept = 10) ORDER BY id",
        vec![vec![i(3)], vec![i(4)]],
    );
}

#[test]
fn joins() {
    let mut e = fixture();
    check(
        &mut e,
        "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id \
         WHERE e.salary >= 5000 ORDER BY e.name",
        vec![vec![s("ann"), s("sales")], vec![s("cat"), s("tech")]],
    );
    // NULL dept never joins.
    check(
        &mut e,
        "SELECT COUNT(*) FROM emp e JOIN dept d ON e.dept = d.id",
        vec![vec![i(4)]],
    );
    // Comma-join + WHERE is identical to JOIN ... ON.
    check(
        &mut e,
        "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.id",
        vec![vec![i(4)]],
    );
}

#[test]
fn aggregation() {
    let mut e = fixture();
    check(&mut e, "SELECT COUNT(*) FROM emp", vec![vec![i(5)]]);
    check(&mut e, "SELECT COUNT(salary) FROM emp", vec![vec![i(4)]]);
    check(&mut e, "SELECT SUM(salary) FROM emp", vec![vec![i(18_000)]]);
    check(
        &mut e,
        "SELECT MIN(salary), MAX(salary) FROM emp",
        vec![vec![i(3000), i(6000)]],
    );
    check(
        &mut e,
        "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept",
        vec![
            vec![Value::Null, i(1)],
            vec![i(10), i(2)],
            vec![i(20), i(2)],
        ],
    );
    check(
        &mut e,
        "SELECT dept, SUM(salary) FROM emp GROUP BY dept HAVING SUM(salary) > 6000 \
         ORDER BY dept",
        vec![vec![i(10), i(9000)]],
    );
}

#[test]
fn subqueries() {
    let mut e = fixture();
    check(
        &mut e,
        "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)",
        vec![vec![s("cat")]],
    );
    check(
        &mut e,
        "SELECT dname FROM dept WHERE id IN (SELECT dept FROM emp) ORDER BY dname",
        vec![vec![s("sales")], vec![s("tech")]],
    );
    check(
        &mut e,
        "SELECT dname FROM dept d WHERE NOT EXISTS \
         (SELECT 1 FROM emp e WHERE e.dept = d.id)",
        vec![vec![s("empty")]],
    );
    // Correlated scalar sub-query in the select list.
    check(
        &mut e,
        "SELECT d.dname, (SELECT COUNT(*) FROM emp e WHERE e.dept = d.id) \
         FROM dept d ORDER BY d.dname",
        vec![
            vec![s("empty"), i(0)],
            vec![s("sales"), i(2)],
            vec![s("tech"), i(2)],
        ],
    );
}

#[test]
fn case_expressions_the_rewriter_shape() {
    // The exact CASE pattern the rewriter emits for POS preferences.
    let mut e = fixture();
    check(
        &mut e,
        "SELECT id, CASE WHEN name IS NULL THEN NULL WHEN name IN ('ann') THEN 1 \
         ELSE 2 END AS lvl FROM emp WHERE dept = 10 ORDER BY id",
        vec![vec![i(1), i(1)], vec![i(2), i(2)]],
    );
    // Nested derived table + NOT EXISTS anti-join — the full rewrite shape
    // over plain data.
    check(
        &mut e,
        "SELECT a1.id FROM \
         (SELECT *, CASE WHEN dept = 10 THEN 1 ELSE 2 END AS lvl FROM emp \
          WHERE salary IS NOT NULL) a1 \
         WHERE NOT EXISTS (SELECT 1 FROM \
         (SELECT *, CASE WHEN dept = 10 THEN 1 ELSE 2 END AS lvl FROM emp \
          WHERE salary IS NOT NULL) a2 \
         WHERE a2.lvl < a1.lvl) ORDER BY a1.id",
        vec![vec![i(1)], vec![i(2)]],
    );
}

#[test]
fn set_like_behaviour() {
    let mut e = fixture();
    check(
        &mut e,
        "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL ORDER BY dept",
        vec![vec![i(10)], vec![i(20)]],
    );
    check(
        &mut e,
        "SELECT id FROM emp ORDER BY salary DESC, id LIMIT 2",
        vec![vec![i(3)], vec![i(1)]],
    );
}

#[test]
fn ddl_dml_roundtrip() {
    let mut e = fixture();
    e.execute_sql("CREATE TABLE archive (id INTEGER, name VARCHAR)")
        .unwrap();
    e.execute_sql("INSERT INTO archive SELECT id, name FROM emp WHERE dept = 20")
        .unwrap();
    check(
        &mut e,
        "SELECT name FROM archive ORDER BY id",
        vec![vec![s("cat")], vec![s("dan")]],
    );
    e.execute_sql("UPDATE archive SET name = UPPER(name) WHERE id = 3")
        .unwrap();
    check(
        &mut e,
        "SELECT name FROM archive ORDER BY id",
        vec![vec![s("CAT")], vec![s("dan")]],
    );
    e.execute_sql("DELETE FROM archive WHERE id = 4").unwrap();
    check(&mut e, "SELECT COUNT(*) FROM archive", vec![vec![i(1)]]);
    e.execute_sql("DROP TABLE archive").unwrap();
    assert!(e.execute_sql("SELECT * FROM archive").is_err());
}

#[test]
fn views_behave_like_their_definition() {
    let mut e = fixture();
    e.execute_sql("CREATE VIEW rich AS SELECT * FROM emp WHERE salary >= 5000")
        .unwrap();
    check(
        &mut e,
        "SELECT name FROM rich ORDER BY name",
        vec![vec![s("ann")], vec![s("cat")]],
    );
    // View joins with base tables.
    check(
        &mut e,
        "SELECT r.name, d.dname FROM rich r JOIN dept d ON r.dept = d.id ORDER BY r.name",
        vec![vec![s("ann"), s("sales")], vec![s("cat"), s("tech")]],
    );
    // Views see later inserts (no materialization).
    e.execute_sql("INSERT INTO emp VALUES (6, 'fay', 10, 9000)")
        .unwrap();
    check(&mut e, "SELECT COUNT(*) FROM rich", vec![vec![i(3)]]);
}

#[test]
fn string_functions_and_literals() {
    let mut e = fixture();
    check(
        &mut e,
        "SELECT LOWER('AbC'), UPPER('AbC')",
        vec![vec![s("abc"), s("ABC")]],
    );
    check(&mut e, "SELECT LENGTH('hello')", vec![vec![i(5)]]);
    check(&mut e, "SELECT 'it''s'", vec![vec![s("it's")]]);
    check(
        &mut e,
        "SELECT COALESCE(NULL, NULL, 'x')",
        vec![vec![s("x")]],
    );
    check(
        &mut e,
        "SELECT LEAST(3, 1, 2), GREATEST(3, 1, 2)",
        vec![vec![i(1), i(3)]],
    );
}

#[test]
fn boolean_and_null_literals() {
    let mut e = fixture();
    check(
        &mut e,
        "SELECT TRUE, FALSE",
        vec![vec![Value::Bool(true), Value::Bool(false)]],
    );
    check(&mut e, "SELECT NULL", vec![vec![Value::Null]]);
    check(
        &mut e,
        "SELECT 1 = 1, 1 = 2",
        vec![vec![Value::Bool(true), Value::Bool(false)]],
    );
    check(&mut e, "SELECT NULL = NULL", vec![vec![Value::Null]]);
}

/// Names resolve once, at plan time, innermost block first; a reference
/// to an enclosing block reaches exactly the row that block is on.
#[test]
fn bind_time_scoping() {
    let mut e = fixture();
    // The sub-query's own `a` shadows the outer `a`: `a.id = 3` is about
    // the inner row, so the EXISTS holds for every outer row.
    check(
        &mut e,
        "SELECT a.id FROM emp a WHERE EXISTS (SELECT 1 FROM emp a WHERE a.id = 3) \
         ORDER BY a.id",
        (1..=5).map(|k| vec![i(k)]).collect(),
    );
    // Two-level correlation: the innermost block reads its parent (`e`,
    // depth 1) and the outermost block (`d`, depth 2). Only sales has an
    // employee someone in the same department out-earns.
    check(
        &mut e,
        "SELECT d.id FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE e.dept = d.id \
         AND EXISTS (SELECT 1 FROM emp f WHERE f.dept = d.id AND f.salary > e.salary))",
        vec![vec![i(10)]],
    );
    // A correlated reference inside IN (...) and inside a scalar sub-query.
    check(
        &mut e,
        "SELECT d.dname FROM dept d WHERE 'bob' IN \
         (SELECT e.name FROM emp e WHERE e.dept = d.id)",
        vec![vec![s("sales")]],
    );
    check(
        &mut e,
        "SELECT d.dname, (SELECT MAX(e.salary) FROM emp e WHERE e.dept = d.id) \
         FROM dept d ORDER BY d.id",
        vec![
            vec![s("sales"), i(5000)],
            vec![s("tech"), i(6000)],
            vec![s("empty"), Value::Null],
        ],
    );
    // ORDER BY an output alias; HAVING and ORDER BY over aggregates.
    check(
        &mut e,
        "SELECT name, salary * 2 AS dbl FROM emp WHERE salary IS NOT NULL ORDER BY dbl DESC",
        vec![
            vec![s("cat"), i(12000)],
            vec![s("ann"), i(10000)],
            vec![s("bob"), i(8000)],
            vec![s("eve"), i(6000)],
        ],
    );
    check(
        &mut e,
        "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING SUM(salary) > 5000 \
         ORDER BY MAX(salary) DESC",
        vec![vec![i(20), i(2)], vec![i(10), i(2)]],
    );
    // An assignment reads the row it replaces.
    e.execute_sql("UPDATE emp SET salary = salary + 1 WHERE dept = 10")
        .unwrap();
    check(
        &mut e,
        "SELECT id, salary FROM emp WHERE dept = 10 ORDER BY id",
        vec![vec![i(1), i(5001)], vec![i(2), i(4001)]],
    );
}
