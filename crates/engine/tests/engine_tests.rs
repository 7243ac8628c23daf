//! Engine integration tests: DDL, DML, the full SELECT pipeline, and the
//! correlated NOT EXISTS pattern the Preference SQL rewrite relies on —
//! including the paper's §3.2 Cars example executed verbatim.

use prefsql_engine::{BackendKind, Engine, EngineCore, ExecOutcome};
use prefsql_types::knobs::MIN_POOL_BYTES;
use prefsql_types::Value;
use std::sync::Arc;

fn setup_cars() -> Engine {
    let mut e = Engine::new();
    e.execute_sql(
        "CREATE TABLE cars (identifier INTEGER NOT NULL, make VARCHAR, model VARCHAR, \
         price INTEGER, mileage INTEGER, airbag VARCHAR, diesel VARCHAR)",
    )
    .unwrap();
    e.execute_sql(
        "INSERT INTO cars VALUES \
         (1, 'Audi', 'A6', 40000, 15000, 'yes', 'no'), \
         (2, 'BMW', '5 series', 35000, 30000, 'yes', 'yes'), \
         (3, 'Volkswagen', 'Beetle', 20000, 10000, 'yes', 'no')",
    )
    .unwrap();
    e
}

fn rows(e: &mut Engine, sql: &str) -> Vec<Vec<Value>> {
    e.execute_sql(sql)
        .unwrap_or_else(|err| panic!("query failed: {sql}: {err}"))
        .expect_rows()
        .rows
        .into_iter()
        .map(|t| t.into_values())
        .collect()
}

fn ints(rows: &[Vec<Value>], col: usize) -> Vec<i64> {
    rows.iter()
        .map(|r| r[col].as_int().expect("int column"))
        .collect()
}

#[test]
fn select_projection_and_where() {
    let mut e = setup_cars();
    let r = rows(
        &mut e,
        "SELECT identifier, price FROM cars WHERE price > 25000",
    );
    assert_eq!(ints(&r, 0), vec![1, 2]);
    let r = rows(&mut e, "SELECT * FROM cars WHERE make = 'Audi'");
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].len(), 7);
}

#[test]
fn select_without_from() {
    let mut e = Engine::new();
    let r = rows(&mut e, "SELECT 1 + 1, 'hello'");
    assert_eq!(r, vec![vec![Value::Int(2), Value::str("hello")]]);
}

#[test]
fn insert_returns_count_and_validates() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER NOT NULL, y VARCHAR)")
        .unwrap();
    match e
        .execute_sql("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        .unwrap()
    {
        ExecOutcome::Count(n) => assert_eq!(n, 2),
        other => panic!("expected count, got {other:?}"),
    }
    // NOT NULL violation.
    assert!(e.execute_sql("INSERT INTO t VALUES (NULL, 'x')").is_err());
    // Arity mismatch.
    assert!(e.execute_sql("INSERT INTO t VALUES (1)").is_err());
    // Column-list insert with reordering; omitted column becomes NULL.
    e.execute_sql("INSERT INTO t (y, x) VALUES ('c', 3)")
        .unwrap();
    let mut e2 = e;
    let r = rows(&mut e2, "SELECT x, y FROM t WHERE x = 3");
    assert_eq!(r, vec![vec![Value::Int(3), Value::str("c")]]);
}

#[test]
fn insert_from_select() {
    let mut e = setup_cars();
    e.execute_sql("CREATE TABLE expensive (identifier INTEGER, price INTEGER)")
        .unwrap();
    e.execute_sql("INSERT INTO expensive SELECT identifier, price FROM cars WHERE price >= 35000")
        .unwrap();
    let r = rows(&mut e, "SELECT * FROM expensive ORDER BY price");
    assert_eq!(ints(&r, 0), vec![2, 1]);
}

#[test]
fn order_by_asc_desc_and_limit() {
    let mut e = setup_cars();
    let r = rows(&mut e, "SELECT identifier FROM cars ORDER BY price DESC");
    assert_eq!(ints(&r, 0), vec![1, 2, 3]);
    let r = rows(&mut e, "SELECT identifier FROM cars ORDER BY price LIMIT 2");
    assert_eq!(ints(&r, 0), vec![3, 2]);
    // ORDER BY an alias.
    let r = rows(
        &mut e,
        "SELECT identifier, price / 1000 AS kprice FROM cars ORDER BY kprice DESC LIMIT 1",
    );
    assert_eq!(ints(&r, 0), vec![1]);
    // ORDER BY a non-projected column.
    let r = rows(&mut e, "SELECT identifier FROM cars ORDER BY mileage");
    assert_eq!(ints(&r, 0), vec![3, 1, 2]);
}

#[test]
fn distinct_unifies_rows() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE d (x INTEGER, y FLOAT)")
        .unwrap();
    e.execute_sql("INSERT INTO d VALUES (1, 1.0), (1, 1.0), (1, 2.0), (2, 1)")
        .unwrap();
    let r = rows(&mut e, "SELECT DISTINCT x, y FROM d");
    assert_eq!(r.len(), 3);
    // INT 1 and FLOAT 1.0 in the same column position de-duplicate.
    let r = rows(&mut e, "SELECT DISTINCT y FROM d");
    assert_eq!(r.len(), 2);
}

#[test]
fn group_by_aggregates() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE sales (region VARCHAR, amount INTEGER)")
        .unwrap();
    e.execute_sql("INSERT INTO sales VALUES ('n', 10), ('n', 20), ('s', 5), ('s', NULL), ('w', 7)")
        .unwrap();
    let r = rows(
        &mut e,
        "SELECT region, COUNT(*), COUNT(amount), SUM(amount), AVG(amount), \
         MIN(amount), MAX(amount) FROM sales GROUP BY region ORDER BY region",
    );
    assert_eq!(r.len(), 3);
    // north: 2 rows, sum 30, avg 15.
    assert_eq!(r[0][0], Value::str("n"));
    assert_eq!(r[0][1], Value::Int(2));
    assert_eq!(r[0][3], Value::Int(30));
    assert_eq!(r[0][4], Value::Float(15.0));
    // south: COUNT(*) counts the NULL row, COUNT(amount) does not.
    assert_eq!(r[1][1], Value::Int(2));
    assert_eq!(r[1][2], Value::Int(1));
    assert_eq!(r[1][5], Value::Int(5));
}

#[test]
fn global_aggregate_over_empty_input() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE empty_t (x INTEGER)").unwrap();
    let r = rows(&mut e, "SELECT COUNT(*), SUM(x) FROM empty_t");
    assert_eq!(r, vec![vec![Value::Int(0), Value::Null]]);
}

#[test]
fn having_filters_groups() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE s (g VARCHAR, v INTEGER)")
        .unwrap();
    e.execute_sql("INSERT INTO s VALUES ('a', 1), ('a', 2), ('b', 3)")
        .unwrap();
    let r = rows(
        &mut e,
        "SELECT g, COUNT(*) FROM s GROUP BY g HAVING COUNT(*) > 1",
    );
    assert_eq!(r, vec![vec![Value::str("a"), Value::Int(2)]]);
}

#[test]
fn aggregate_arithmetic_in_select() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE s (v INTEGER)").unwrap();
    e.execute_sql("INSERT INTO s VALUES (10), (20)").unwrap();
    let r = rows(&mut e, "SELECT SUM(v) * 2 + COUNT(*) FROM s");
    assert_eq!(r, vec![vec![Value::Int(62)]]);
}

#[test]
fn joins_inner_and_cross() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE a (x INTEGER)").unwrap();
    e.execute_sql("CREATE TABLE b (y INTEGER)").unwrap();
    e.execute_sql("INSERT INTO a VALUES (1), (2)").unwrap();
    e.execute_sql("INSERT INTO b VALUES (2), (3)").unwrap();
    let r = rows(&mut e, "SELECT * FROM a CROSS JOIN b");
    assert_eq!(r.len(), 4);
    let r = rows(&mut e, "SELECT * FROM a JOIN b ON a.x = b.y");
    assert_eq!(r, vec![vec![Value::Int(2), Value::Int(2)]]);
    // Comma join + WHERE is the same thing.
    let r = rows(&mut e, "SELECT * FROM a, b WHERE a.x = b.y");
    assert_eq!(r.len(), 1);
    // Self join with aliases.
    let r = rows(
        &mut e,
        "SELECT a1.x, a2.x FROM a a1, a a2 WHERE a1.x < a2.x",
    );
    assert_eq!(r, vec![vec![Value::Int(1), Value::Int(2)]]);
}

#[test]
fn ambiguous_column_is_an_error() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE a (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO a VALUES (1)").unwrap();
    let err = e.execute_sql("SELECT x FROM a a1, a a2").unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn derived_tables() {
    let mut e = setup_cars();
    let r = rows(
        &mut e,
        "SELECT c.identifier FROM (SELECT * FROM cars WHERE price < 36000) c \
         WHERE c.mileage < 20000",
    );
    assert_eq!(ints(&r, 0), vec![3]);
    // Computed columns in derived tables are addressable by alias.
    let r = rows(
        &mut e,
        "SELECT d.lvl FROM (SELECT identifier, CASE WHEN make = 'Audi' THEN 1 ELSE 2 END \
         AS lvl FROM cars) d ORDER BY d.lvl, d.identifier",
    );
    assert_eq!(ints(&r, 0), vec![1, 2, 2]);
}

#[test]
fn views_expand() {
    let mut e = setup_cars();
    e.execute_sql("CREATE VIEW cheap AS SELECT * FROM cars WHERE price <= 35000")
        .unwrap();
    let r = rows(&mut e, "SELECT identifier FROM cheap ORDER BY identifier");
    assert_eq!(ints(&r, 0), vec![2, 3]);
    // Views of views.
    e.execute_sql("CREATE VIEW cheap_diesel AS SELECT * FROM cheap WHERE diesel = 'yes'")
        .unwrap();
    let r = rows(&mut e, "SELECT identifier FROM cheap_diesel");
    assert_eq!(ints(&r, 0), vec![2]);
    // View with alias in a join.
    let r = rows(
        &mut e,
        "SELECT c.identifier FROM cheap c JOIN cars ON c.identifier = cars.identifier \
         ORDER BY c.identifier",
    );
    assert_eq!(ints(&r, 0), vec![2, 3]);
    // Creating a view over a missing table fails eagerly.
    assert!(e
        .execute_sql("CREATE VIEW broken AS SELECT * FROM nope")
        .is_err());
}

#[test]
fn subqueries_exists_in_scalar() {
    let mut e = setup_cars();
    // Correlated EXISTS.
    let r = rows(
        &mut e,
        "SELECT c1.identifier FROM cars c1 WHERE EXISTS \
         (SELECT 1 FROM cars c2 WHERE c2.price < c1.price) ORDER BY c1.identifier",
    );
    assert_eq!(ints(&r, 0), vec![1, 2]);
    // NOT EXISTS: the cheapest car.
    let r = rows(
        &mut e,
        "SELECT c1.identifier FROM cars c1 WHERE NOT EXISTS \
         (SELECT 1 FROM cars c2 WHERE c2.price < c1.price)",
    );
    assert_eq!(ints(&r, 0), vec![3]);
    // IN sub-query.
    let r = rows(
        &mut e,
        "SELECT identifier FROM cars WHERE price IN (SELECT MAX(price) FROM cars)",
    );
    assert_eq!(ints(&r, 0), vec![1]);
    // Scalar sub-query in SELECT.
    let r = rows(&mut e, "SELECT (SELECT COUNT(*) FROM cars)");
    assert_eq!(r, vec![vec![Value::Int(3)]]);
}

#[test]
fn paper_cars_rewrite_executes_exactly() {
    // §3.2: create the Aux view and run the NOT EXISTS maxima query for
    // PREFERRING Make = 'Audi' AND Diesel = 'yes'. The paper's own SQL.
    let mut e = setup_cars();
    e.execute_sql(
        "CREATE VIEW aux AS \
         SELECT *, CASE WHEN make = 'Audi' THEN 1 ELSE 2 END AS makelevel, \
         CASE WHEN diesel = 'yes' THEN 1 ELSE 2 END AS diesellevel FROM cars",
    )
    .unwrap();
    e.execute_sql(
        "CREATE TABLE max_result (identifier INTEGER, make VARCHAR, model VARCHAR, \
         price INTEGER, mileage INTEGER, airbag VARCHAR, diesel VARCHAR)",
    )
    .unwrap();
    e.execute_sql(
        "INSERT INTO max_result \
         SELECT identifier, make, model, price, mileage, airbag, diesel \
         FROM aux a1 \
         WHERE NOT EXISTS (SELECT 1 FROM aux a2 \
           WHERE a2.makelevel <= a1.makelevel AND \
                 a2.diesellevel <= a1.diesellevel AND \
                 (a2.makelevel < a1.makelevel OR a2.diesellevel < a1.diesellevel))",
    )
    .unwrap();
    let r = rows(
        &mut e,
        "SELECT identifier FROM max_result ORDER BY identifier",
    );
    // The Audi (1) and the diesel BMW (2) are Pareto-optimal; the
    // Volkswagen (3) is dominated by both.
    assert_eq!(ints(&r, 0), vec![1, 2]);
}

/// A top-level `PREFERRING` block is one more engine statement, and the
/// rewrite's plain SQL is its oracle; a nested block carrying one is
/// refused with a typed error, and a quality function needs a
/// `PREFERRING` clause.
#[test]
fn preference_constructs_rejected_by_host_engine() {
    use prefsql_rewrite::{RewriteOutput, Rewriter};
    use prefsql_types::Error;

    let mut e = setup_cars();
    let sql = "SELECT identifier, price FROM cars PREFERRING LOWEST(price) AND HIGHEST(mileage)";
    let native = rows(&mut e, sql);
    let stmt = prefsql_parser::parse_statement(sql).unwrap();
    let RewriteOutput::Rewritten { statement, .. } = Rewriter::new().process(&stmt).unwrap() else {
        panic!("a PREFERRING query is rewritten");
    };
    let rewritten: Vec<Vec<Value>> = (e.execute(&statement).unwrap().expect_rows().rows)
        .into_iter()
        .map(|t| t.into_values())
        .collect();
    assert_eq!(native, rewritten);
    assert_eq!(ints(&native, 0), vec![2, 3]);

    let err = e
        .execute_sql(
            "SELECT identifier FROM cars c WHERE EXISTS \
             (SELECT * FROM cars d WHERE d.price < c.price PREFERRING LOWEST(d.mileage))",
        )
        .unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "{err:?}");
    assert!(err.to_string().contains("paper §2.2.5"), "{err}");

    let err = e.execute_sql("SELECT LEVEL(make) FROM cars").unwrap_err();
    assert!(err.to_string().contains("quality function"), "{err}");
}

#[test]
fn indexes_accelerate_without_changing_results() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (k INTEGER, v INTEGER)")
        .unwrap();
    let values: Vec<String> = (0..500).map(|i| format!("({}, {})", i % 50, i)).collect();
    e.execute_sql(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();

    let baseline = rows(&mut e, "SELECT v FROM t WHERE k = 7 ORDER BY v");
    e.take_stats();
    e.execute_sql("CREATE INDEX i_k ON t (k) USING hash")
        .unwrap();
    let indexed = rows(&mut e, "SELECT v FROM t WHERE k = 7 ORDER BY v");
    let s = e.take_stats();
    assert_eq!(baseline, indexed);
    assert_eq!(s.index_probes, 1);
    assert_eq!(s.rows_scanned, 10, "only matching rows touched");

    // Disable indexes: same answer, full scan.
    e.set_use_indexes(false);
    let scanned = rows(&mut e, "SELECT v FROM t WHERE k = 7 ORDER BY v");
    let s = e.take_stats();
    assert_eq!(baseline, scanned);
    assert_eq!(s.index_probes, 0);
    assert_eq!(s.rows_scanned, 500);
}

#[test]
fn btree_range_access_path() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (k INTEGER, v INTEGER)")
        .unwrap();
    let values: Vec<String> = (0..100).map(|i| format!("({i}, {i})")).collect();
    e.execute_sql(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    e.execute_sql("CREATE INDEX i_k ON t (k)").unwrap();
    e.take_stats();
    let r = rows(&mut e, "SELECT v FROM t WHERE k BETWEEN 10 AND 19");
    let s = e.take_stats();
    assert_eq!(r.len(), 10);
    assert_eq!(s.index_probes, 1);
    assert_eq!(s.rows_scanned, 10);
}

#[test]
fn explain_renders_plan() {
    let mut e = setup_cars();
    e.execute_sql("CREATE INDEX i_make ON cars (make) USING hash")
        .unwrap();
    let out = match e
        .execute_sql("EXPLAIN SELECT * FROM cars WHERE make = 'Audi' ORDER BY price")
        .unwrap()
    {
        ExecOutcome::Explain(s) => s,
        other => panic!("expected explain, got {other:?}"),
    };
    assert!(out.contains("Index probe"), "{out}");
    assert!(out.contains("sort(1 keys)"), "{out}");
    // Without a usable index: seq scan.
    let out = match e
        .execute_sql("EXPLAIN SELECT * FROM cars WHERE price / 2 = 100")
        .unwrap()
    {
        ExecOutcome::Explain(s) => s,
        other => panic!("expected explain, got {other:?}"),
    };
    assert!(out.contains("Seq scan"), "{out}");
}

#[test]
fn explain_does_not_disturb_stats() {
    // EXPLAIN plans without executing: a read-only introspection
    // statement must leave the execution counters untouched.
    let mut e = setup_cars();
    e.execute_sql("CREATE INDEX i_make ON cars (make) USING hash")
        .unwrap();
    e.take_stats();
    e.execute_sql("EXPLAIN SELECT * FROM cars WHERE make = 'Audi'")
        .unwrap();
    let s = e.take_stats();
    assert_eq!(s.index_probes, 0);
    assert_eq!(s.rows_scanned, 0);
    assert_eq!(s.subquery_evals, 0);
}

#[test]
fn ddl_errors() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
    assert!(e.execute_sql("CREATE TABLE t (y INTEGER)").is_err());
    assert!(e.execute_sql("DROP TABLE nope").is_err());
    assert!(e.execute_sql("SELECT * FROM missing").is_err());
    assert!(e.execute_sql("CREATE INDEX i ON missing (x)").is_err());
    assert!(e.execute_sql("CREATE INDEX i ON t (nope)").is_err());
    e.execute_sql("DROP TABLE t").unwrap();
    assert!(e.execute_sql("SELECT * FROM t").is_err());
}

#[test]
fn delete_rows() {
    let mut e = setup_cars();
    e.execute_sql("CREATE INDEX i_make ON cars (make) USING hash")
        .unwrap();
    match e
        .execute_sql("DELETE FROM cars WHERE price < 30000")
        .unwrap()
    {
        ExecOutcome::Count(n) => assert_eq!(n, 1),
        other => panic!("expected count, got {other:?}"),
    }
    let r = rows(&mut e, "SELECT identifier FROM cars ORDER BY identifier");
    assert_eq!(ints(&r, 0), vec![1, 2]);
    // Index still consistent after compaction.
    let r = rows(&mut e, "SELECT identifier FROM cars WHERE make = 'BMW'");
    assert_eq!(ints(&r, 0), vec![2]);
    // DELETE without WHERE empties the table.
    match e.execute_sql("DELETE FROM cars").unwrap() {
        ExecOutcome::Count(n) => assert_eq!(n, 2),
        other => panic!("expected count, got {other:?}"),
    }
    assert!(rows(&mut e, "SELECT * FROM cars").is_empty());
    assert!(e.execute_sql("DELETE FROM missing").is_err());
}

#[test]
fn update_rows() {
    let mut e = setup_cars();
    e.execute_sql("CREATE INDEX i_price ON cars (price)")
        .unwrap();
    match e
        .execute_sql("UPDATE cars SET price = price - 5000, airbag = 'no' WHERE make = 'Audi'")
        .unwrap()
    {
        ExecOutcome::Count(n) => assert_eq!(n, 1),
        other => panic!("expected count, got {other:?}"),
    }
    let r = rows(&mut e, "SELECT price, airbag FROM cars WHERE make = 'Audi'");
    assert_eq!(r, vec![vec![Value::Int(35_000), Value::str("no")]]);
    // Index sees the new value.
    let r = rows(
        &mut e,
        "SELECT identifier FROM cars WHERE price BETWEEN 34000 AND 36000 ORDER BY identifier",
    );
    assert_eq!(ints(&r, 0), vec![1, 2]);
    // Type errors abort before mutating.
    assert!(e
        .execute_sql("UPDATE cars SET price = 'expensive'")
        .is_err());
    let r = rows(&mut e, "SELECT price FROM cars WHERE identifier = 2");
    assert_eq!(r, vec![vec![Value::Int(35_000)]]);
    // Unknown column.
    assert!(e.execute_sql("UPDATE cars SET nope = 1").is_err());
    // UPDATE without WHERE touches every row.
    match e.execute_sql("UPDATE cars SET airbag = 'yes'").unwrap() {
        ExecOutcome::Count(n) => assert_eq!(n, 3),
        other => panic!("expected count, got {other:?}"),
    }
}

fn count(e: &mut Engine, sql: &str) -> usize {
    match e.execute_sql(sql) {
        Ok(ExecOutcome::Count(n)) => n,
        other => panic!("expected a count from {sql}, got {other:?}"),
    }
}

/// An engine over a fresh core on `kind`, with a four-page pool when
/// paged.
fn engine_on(kind: BackendKind) -> Engine {
    Engine::with_core(Arc::new(EngineCore::with_storage(kind, MIN_POOL_BYTES)))
}

/// DML finds its target rows the way a SELECT does: an index the WHERE
/// can use yields candidates that the bound predicate re-checks. One
/// probe per statement, and the same rows as a scan with indexes off,
/// on both backends.
#[test]
fn dml_targets_take_the_index_path_and_match_the_scan() {
    for kind in [BackendKind::Mem, BackendKind::Paged] {
        let run = |indexed: bool| {
            let mut e = engine_on(kind);
            e.execute_sql("CREATE TABLE cars (id INTEGER, make VARCHAR, price INTEGER)")
                .unwrap();
            let values: Vec<String> = (0..300)
                .map(|i| format!("({i}, '{}', {})", ["opel", "audi", "bmw"][i % 3], 1_000 + i))
                .collect();
            e.execute_sql(&format!("INSERT INTO cars VALUES {}", values.join(", ")))
                .unwrap();
            e.execute_sql("CREATE INDEX by_make ON cars (make) USING hash")
                .unwrap();
            e.set_use_indexes(indexed);
            let mut probes = Vec::new();
            let mut counts = Vec::new();
            for dml in [
                "UPDATE cars SET price = price + 1 WHERE make = 'opel' AND id < 150",
                "UPDATE cars SET make = 'seat' WHERE make = 'opel' AND id >= 270",
                "DELETE FROM cars WHERE make = 'opel'",
            ] {
                e.take_stats();
                counts.push(count(&mut e, dml));
                probes.push(e.take_stats().index_probes);
            }
            e.set_use_indexes(true);
            let all = rows(&mut e, "SELECT id, make, price FROM cars ORDER BY id");
            // The index saw the assigned key column.
            let seat = rows(
                &mut e,
                "SELECT id FROM cars WHERE make = 'seat' ORDER BY id",
            );
            (all, seat, counts, probes)
        };
        let (all, seat, counts, probes) = run(true);
        let (all_scan, seat_scan, counts_scan, probes_scan) = run(false);
        assert_eq!(all, all_scan, "{kind:?}: index path changed the result");
        assert_eq!(seat, seat_scan, "{kind:?}");
        assert_eq!(
            ints(&seat, 0),
            vec![270, 273, 276, 279, 282, 285, 288, 291, 294, 297]
        );
        assert_eq!(counts, vec![50, 10, 90], "{kind:?}");
        assert_eq!(counts, counts_scan, "{kind:?}");
        assert_eq!(
            probes,
            vec![1, 1, 1],
            "{kind:?}: one probe per DML statement"
        );
        assert_eq!(probes_scan, vec![0, 0, 0], "{kind:?}");
    }
}

/// UPDATE keeps rids, so an index whose key it did not assign stays
/// exact: updating a non-key column of an indexed paged table reads the
/// heap once (the target scan), not once more per index.
#[test]
fn update_of_a_non_key_column_reads_the_heap_once() {
    let core = Arc::new(EngineCore::with_storage(BackendKind::Paged, MIN_POOL_BYTES));
    let mut e = Engine::with_core(Arc::clone(&core));
    e.execute_sql("CREATE TABLE cars (id INTEGER, make VARCHAR, price INTEGER)")
        .unwrap();
    let values: Vec<String> = (0..4_000)
        .map(|i| format!("({i}, 'make-{}-padding-padding', {i})", i % 7))
        .collect();
    e.execute_sql(&format!("INSERT INTO cars VALUES {}", values.join(", ")))
        .unwrap();
    e.execute_sql("CREATE INDEX by_make ON cars (make) USING hash")
        .unwrap();
    let misses = || core.pool_stats().misses;
    let before = misses();
    rows(&mut e, "SELECT COUNT(*) FROM cars");
    let heap_pass = misses() - before;
    assert!(
        heap_pass > 20,
        "the table must dwarf the pool: {heap_pass} pages"
    );
    let before = misses();
    assert_eq!(
        count(&mut e, "UPDATE cars SET price = 0 WHERE id = 1234"),
        1
    );
    let update = misses() - before;
    assert!(
        update <= heap_pass + heap_pass / 4,
        "UPDATE missed {update} pages; one heap pass is {heap_pass}"
    );
    // The untouched index still answers, at the same rid.
    let r = rows(
        &mut e,
        "SELECT price FROM cars WHERE make = 'make-2-padding-padding' AND id = 1234",
    );
    assert_eq!(r, vec![vec![Value::Int(0)]]);
}

#[test]
fn three_valued_logic_in_where() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE n (x INTEGER)").unwrap();
    e.execute_sql("INSERT INTO n VALUES (1), (NULL), (3)")
        .unwrap();
    // NULL comparisons drop rows.
    assert_eq!(rows(&mut e, "SELECT x FROM n WHERE x > 0").len(), 2);
    assert_eq!(rows(&mut e, "SELECT x FROM n WHERE x IS NULL").len(), 1);
    assert_eq!(rows(&mut e, "SELECT x FROM n WHERE NOT (x > 0)").len(), 0);
    assert_eq!(
        rows(&mut e, "SELECT x FROM n WHERE x > 0 OR x IS NULL").len(),
        3
    );
}

#[test]
fn date_columns_roundtrip() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE trips (start_day DATE, duration INTEGER)")
        .unwrap();
    e.execute_sql("INSERT INTO trips VALUES (DATE '1999-07-01', 14), ('1999/7/5', 10)")
        .unwrap();
    let r = rows(
        &mut e,
        "SELECT duration FROM trips WHERE start_day >= DATE '1999-07-02'",
    );
    assert_eq!(r, vec![vec![Value::Int(10)]]);
    // Date arithmetic: difference in days.
    let r = rows(
        &mut e,
        "SELECT start_day - DATE '1999-07-01' FROM trips ORDER BY start_day",
    );
    assert_eq!(r, vec![vec![Value::Int(0)], vec![Value::Int(4)]]);
}

#[test]
fn qualified_wildcard() {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE a (x INTEGER)").unwrap();
    e.execute_sql("CREATE TABLE b (y INTEGER, z INTEGER)")
        .unwrap();
    e.execute_sql("INSERT INTO a VALUES (1)").unwrap();
    e.execute_sql("INSERT INTO b VALUES (2, 3)").unwrap();
    let r = rows(&mut e, "SELECT b.* FROM a, b");
    assert_eq!(r, vec![vec![Value::Int(2), Value::Int(3)]]);
    assert!(e.execute_sql("SELECT nope.* FROM a, b").is_err());
}

#[test]
fn star_plus_computed_columns() {
    // `SELECT *, CASE ... END AS lvl` — the shape the rewriter emits.
    let mut e = setup_cars();
    let r = rows(
        &mut e,
        "SELECT *, CASE WHEN make = 'Audi' THEN 1 ELSE 2 END AS makelevel FROM cars \
         ORDER BY makelevel, identifier",
    );
    assert_eq!(r[0].len(), 8);
    assert_eq!(r[0][7], Value::Int(1)); // the Audi first
}

#[test]
fn stats_track_correlated_subquery_cost() {
    let mut e = setup_cars();
    e.take_stats();
    let not_exists = "SELECT c1.identifier FROM cars c1 WHERE NOT EXISTS \
                      (SELECT 1 FROM cars c2 WHERE c2.price < c1.price)";
    let anti = rows(&mut e, not_exists);
    let s = e.take_stats();
    // A WHERE conjunct plans as an anti-join: no sub-query evaluation,
    // the outer scan plus one build of the inner table.
    assert_eq!(s.subquery_evals, 0);
    assert_eq!(s.rows_scanned, 3 + 3);
    // Behind `OR 1 = 0` it is no conjunct: one probe per outer row, the
    // same rows.
    let probed = rows(&mut e, &format!("{not_exists} OR 1 = 0"));
    assert_eq!(e.take_stats().subquery_evals, 3);
    assert_eq!(probed, anti);
}
