//! Differential testing: the rewrite path (NOT EXISTS on the host engine)
//! and the native path (explicit skyline algorithms in the preference
//! layer) must return identical result sets for every query and workload.
//! This is the strongest correctness evidence for the paper's central
//! claim that the rewrite implements the BMO model faithfully.

use prefsql::{ExecutionMode, PrefSqlConnection, SkylineAlgo};
use prefsql_workload::{bks01, cars, computers, cosima, hotels, oldtimer, trips};

/// Run `sql` in rewrite mode and all three native modes (including the
/// cost-based auto selection); assert identical row multisets
/// (order-insensitive unless the query orders).
fn assert_all_modes_agree(table: prefsql::storage::Table, sql: &str) {
    let mut results = Vec::new();
    for mode in [
        ExecutionMode::Rewrite,
        ExecutionMode::Native(SkylineAlgo::Naive),
        ExecutionMode::Native(SkylineAlgo::Bnl),
        ExecutionMode::Native(SkylineAlgo::Auto),
    ] {
        let mut conn = PrefSqlConnection::new();
        conn.engine_mut()
            .catalog_mut()
            .create_table(table.clone())
            .unwrap();
        conn.set_mode(mode);
        let rs = conn
            .query(sql)
            .unwrap_or_else(|e| panic!("{mode:?} failed on {sql}: {e}"));
        let mut rows: Vec<String> = rs.rows().iter().map(|r| r.to_string()).collect();
        rows.sort();
        results.push((mode, rows));
    }
    let (ref base_mode, ref expected) = results[0];
    for (mode, rows) in &results[1..] {
        assert_eq!(
            rows, expected,
            "result mismatch between {base_mode:?} and {mode:?} on: {sql}"
        );
    }
}

#[test]
fn oldtimer_query_agrees() {
    assert_all_modes_agree(oldtimer::table(), oldtimer::QUERY);
}

#[test]
fn paper_cars_agrees() {
    assert_all_modes_agree(
        cars::paper_fixture(),
        "SELECT identifier, make FROM cars PREFERRING make = 'Audi' AND diesel = 'yes'",
    );
}

#[test]
fn opel_flagship_agrees() {
    assert_all_modes_agree(cars::market(300, 41), cars::OPEL_QUERY);
}

#[test]
fn computers_pareto_and_cascade_agree() {
    let t = computers::table(250, 42);
    assert_all_modes_agree(t.clone(), computers::PARETO_QUERY);
    assert_all_modes_agree(t, computers::CASCADE_QUERY);
}

#[test]
fn but_only_trips_agrees() {
    assert_all_modes_agree(trips::table(250, 43), trips::BUT_ONLY_QUERY);
}

#[test]
fn grouping_agrees() {
    assert_all_modes_agree(
        hotels::table(200, 44),
        "SELECT id, location, price FROM hotels PREFERRING LOWEST(price) GROUPING location",
    );
}

/// A `GROUPING` query selects per partition through the same rule as an
/// ungrouped one, so a group's size no longer decides how it is
/// evaluated: two groups of 4 000 independent points return the
/// rewrite's rows at the window's cost. (The nested loop every group
/// used to run needed ~950 k dominance tests here.)
#[test]
fn large_groups_agree_with_the_rewrite_at_window_cost() {
    use prefsql::storage::Table;
    use prefsql::types::{Column, DataType, Schema, Tuple, Value};
    let mut cols = vec![
        Column::new("id", DataType::Int).not_null(),
        Column::new("g", DataType::Int),
    ];
    cols.extend((0..3).map(|i| Column::new(format!("d{i}"), DataType::Float)));
    let mut table = Table::new("pts", Schema::new(cols).unwrap());
    let points = bks01::points(8_000, 3, bks01::Distribution::Independent, 48);
    for (id, p) in points.into_iter().enumerate() {
        let mut values = vec![Value::Int(id as i64), Value::Int(id as i64 % 2)];
        values.extend(p.into_iter().map(Value::Float));
        table.insert(Tuple::new(values)).unwrap();
    }
    let sql = "SELECT id FROM pts PREFERRING LOWEST(d0) AND LOWEST(d1) AND LOWEST(d2) \
               GROUPING g ORDER BY id";
    let run = |mode: ExecutionMode| {
        let mut conn = PrefSqlConnection::new();
        conn.engine_mut()
            .catalog_mut()
            .create_table(table.clone())
            .unwrap();
        conn.set_mode(mode);
        conn.set_threads(1);
        conn.query(sql).unwrap()
    };
    let rewrite = run(ExecutionMode::Rewrite);
    let native = run(ExecutionMode::native());
    assert_eq!(native.column_as_ints(0), rewrite.column_as_ints(0));
    assert!(native.len() > 2, "more than one winner per group");
    // 42 795 when this was written.
    assert!(
        native.dominance_tests() < 50_000,
        "{}",
        native.dominance_tests()
    );
}

#[test]
fn neg_preference_agrees() {
    assert_all_modes_agree(hotels::table(150, 45), hotels::NEG_QUERY);
}

#[test]
fn skyline_distributions_agree() {
    for dist in bks01::Distribution::ALL {
        for d in [2, 4] {
            assert_all_modes_agree(bks01::table(200, d, dist, 46), &bks01::skyline_query(d));
        }
    }
}

#[test]
fn cosima_query_agrees() {
    assert_all_modes_agree(cosima::snapshot(300, 47).offers, cosima::COMPARISON_QUERY);
}

#[test]
fn explicit_preference_agrees() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE shirts (id INTEGER, color VARCHAR, price INTEGER)")
        .unwrap();
    conn.execute(
        "INSERT INTO shirts VALUES (1, 'red', 10), (2, 'blue', 5), (3, 'grey', 3), \
         (4, 'pink', 9), (5, 'red', 20)",
    )
    .unwrap();
    // Re-extract the table to share across modes.
    let table = conn.engine().catalog().table("shirts").unwrap().clone();
    assert_all_modes_agree(
        table,
        "SELECT id FROM shirts PREFERRING \
         color EXPLICIT ('red' BETTER 'blue', 'blue' BETTER 'grey') AND LOWEST(price)",
    );
}

/// One run per execution mode of `sql` over `tables`: the rendered rows
/// (in result order) or the error message.
fn outcomes_per_mode(
    tables: &[prefsql::storage::Table],
    sql: &str,
) -> Vec<(ExecutionMode, Result<Vec<String>, String>)> {
    [
        ExecutionMode::Rewrite,
        ExecutionMode::Native(SkylineAlgo::Naive),
        ExecutionMode::Native(SkylineAlgo::Bnl),
        ExecutionMode::Native(SkylineAlgo::Auto),
    ]
    .into_iter()
    .map(|mode| {
        let mut conn = PrefSqlConnection::new();
        for t in tables {
            conn.engine_mut()
                .catalog_mut()
                .create_table(t.clone())
                .unwrap();
        }
        conn.set_mode(mode);
        let outcome = conn
            .query(sql)
            .map(|rs| rs.rows().iter().map(|r| r.to_string()).collect())
            .map_err(|e| e.to_string());
        (mode, outcome)
    })
    .collect()
}

/// Every mode must produce the same rows in the same order — or fail
/// with the same error.
fn assert_modes_agree_on_value_or_error(tables: &[prefsql::storage::Table], sql: &str) {
    let outcomes = outcomes_per_mode(tables, sql);
    let (_, oracle) = &outcomes[0];
    for (mode, outcome) in &outcomes[1..] {
        assert_eq!(outcome, oracle, "{mode:?} vs the rewrite oracle on: {sql}");
    }
}

/// The `prefsql_` prefix names generated columns, so no user name may
/// carry it: a table column would collide with the native operator's
/// generated columns and be hidden from wildcards, a
/// select-list alias would be kept by one mode and dropped by the other.
/// Every mode refuses all three with the one reserved-prefix error.
#[test]
fn reserved_prefix_is_refused_alike_in_every_mode() {
    let mut errors = Vec::new();
    for mode in [
        ExecutionMode::Rewrite,
        ExecutionMode::Native(SkylineAlgo::Auto),
    ] {
        let mut conn = PrefSqlConnection::new();
        conn.set_mode(mode);
        let mut outcome = Vec::new();
        let mut run = |sql: &str| match conn.execute(sql) {
            Ok(_) if sql.contains("prefsql_") || sql.contains("PREFSQL_") => {
                panic!("{mode:?} accepted: {sql}")
            }
            Ok(_) => {}
            Err(e) => outcome.push(e.to_string()),
        };
        run("CREATE TABLE t (prefsql_s0 INTEGER, x INTEGER, g INTEGER)");
        run("CREATE TABLE t (x INTEGER, PREFSQL_G0 INTEGER)");
        run("CREATE TABLE t (x INTEGER, g INTEGER)");
        run("INSERT INTO t VALUES (1, 2), (3, 4)");
        run("SELECT x AS prefsql_v, g FROM t PREFERRING LOWEST(x)");
        assert_eq!(outcome.len(), 3, "{mode:?}: {outcome:?}");
        for e in &outcome {
            assert!(
                e.contains("reserved name prefix 'prefsql_'"),
                "{mode:?}: {e}"
            );
        }
        errors.push(outcome);
    }
    assert_eq!(errors[0], errors[1]);
}

/// A small table with a numeric and a categorical attribute, NULLs in
/// both, for the quality-function matrix.
fn quality_fixture() -> prefsql::storage::Table {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE q (id INTEGER, a INTEGER, c VARCHAR)")
        .unwrap();
    conn.execute(
        "INSERT INTO q VALUES (1, 7, 'red'), (2, 3, 'blue'), (3, 12, 'green'), \
         (4, 7, 'pink'), (5, NULL, 'red'), (6, 9, NULL), (7, 5, 'blue'), (8, 3, 'red')",
    )
    .unwrap();
    let table = conn.engine().catalog().table("q").unwrap().clone();
    table
}

#[test]
fn quality_functions_in_select_agree() {
    assert_all_modes_agree(
        trips::table(150, 48),
        "SELECT id, duration, DISTANCE(duration), TOP(duration) FROM trips \
         PREFERRING duration AROUND 12",
    );

    // Every (function × base-preference kind) pair: the modes agree on
    // the value, or on the plan error (LEVEL of a numeric preference,
    // DISTANCE of a categorical one).
    let table = [quality_fixture()];
    let kinds = [
        ("a", "a AROUND 7"),
        ("a", "a BETWEEN 5, 9"),
        ("a", "LOWEST(a)"),
        ("a", "HIGHEST(a)"),
        ("c", "c IN ('red', 'blue')"),
        ("c", "c <> 'green'"),
        ("c", "c = 'red' ELSE c = 'blue'"),
        ("c", "c = 'red' ELSE c <> 'blue'"),
        (
            "c",
            "c EXPLICIT ('red' BETTER 'blue', 'blue' BETTER 'green')",
        ),
        ("c", "c CONTAINS ('re', 'd')"),
    ];
    let mut errors = 0;
    for (attr, pref) in kinds {
        for func in ["TOP", "LEVEL", "DISTANCE"] {
            // The second base preference keeps the winner set wide, so
            // the functions are evaluated on imperfect matches too.
            let sql = format!(
                "SELECT id, {func}({attr}) FROM q PREFERRING {pref} AND HIGHEST(id) ORDER BY id"
            );
            assert_modes_agree_on_value_or_error(&table, &sql);
            errors += usize::from(outcomes_per_mode(&table, &sql)[0].1.is_err());
        }
    }
    // 4 numeric kinds reject LEVEL, 6 categorical kinds reject DISTANCE.
    assert_eq!(errors, 10);
    let level_of_numeric = "SELECT LEVEL(a) FROM q PREFERRING LOWEST(a)";
    for (mode, outcome) in outcomes_per_mode(&table, level_of_numeric) {
        let err = outcome.expect_err("LEVEL() of a numeric preference");
        assert!(
            err.contains("LEVEL() applies to categorical preferences"),
            "{mode:?}: {err}"
        );
    }

    // Quality functions in ORDER BY, combined with DISTINCT and LIMIT,
    // nested in expressions and in BUT ONLY.
    for sql in [
        "SELECT DISTINCT c FROM q PREFERRING LOWEST(a) AND HIGHEST(id) \
         ORDER BY DISTANCE(a) DESC, c LIMIT 3",
        "SELECT id, DISTANCE(a) + 1 AS d1 FROM q PREFERRING a AROUND 6 AND HIGHEST(id) \
         ORDER BY DISTANCE(a), id LIMIT 4",
        "SELECT DISTINCT LEVEL(c) FROM q PREFERRING c = 'red' ELSE c = 'blue' AND LOWEST(id) \
         ORDER BY LEVEL(c) DESC LIMIT 2",
        "SELECT id, TOP(a), LEVEL(c) FROM q PREFERRING HIGHEST(a) AND c IN ('blue') \
         BUT ONLY DISTANCE(a) <= 5 AND LEVEL(c) <= 2 ORDER BY TOP(a), id",
        "SELECT id FROM q PREFERRING a AROUND 7 AND HIGHEST(id) ORDER BY TOP(a) DESC, id LIMIT 1",
    ] {
        assert_modes_agree_on_value_or_error(&table, sql);
        let outcomes = outcomes_per_mode(&table, sql);
        assert!(outcomes[0].1.is_ok(), "{sql}: {:?}", outcomes[0].1);
    }
}

/// `t.*` must mean what it means in plain SQL — never silently more
/// columns. Native mode plans the select list with the engine's own
/// projection; the rewriter, which widens `t.*` to `*` over its derived
/// table, refuses when that would not be exact.
#[test]
fn qualified_wildcards_match_plain_sql() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE a (k INTEGER, x INTEGER)")
        .unwrap();
    conn.execute("CREATE TABLE b (k INTEGER, y INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO a VALUES (1, 10), (2, 20), (3, 5)")
        .unwrap();
    conn.execute("INSERT INTO b VALUES (1, 7), (2, 8), (3, 9)")
        .unwrap();
    let join = "FROM a JOIN b ON a.k = b.k";
    let plain_columns: Vec<String> = conn
        .query(&format!("SELECT a.* {join}"))
        .unwrap()
        .column_names()
        .iter()
        .map(|c| c.to_string())
        .collect();
    assert_eq!(plain_columns, ["k", "x"]);
    let plain_err = conn
        .query(&format!("SELECT zz.* {join}"))
        .unwrap_err()
        .to_string();
    assert!(
        plain_err.contains("unknown table 'zz' in 'zz.*'"),
        "{plain_err}"
    );

    for mode in [
        ExecutionMode::native(),
        ExecutionMode::Native(SkylineAlgo::Bnl),
    ] {
        conn.set_mode(mode);
        let err = conn
            .query(&format!("SELECT zz.* {join} PREFERRING LOWEST(a.x)"))
            .unwrap_err()
            .to_string();
        assert_eq!(err, plain_err, "{mode:?}");
        let rs = conn
            .query(&format!("SELECT a.* {join} PREFERRING LOWEST(a.x)"))
            .unwrap();
        assert_eq!(rs.column_names(), plain_columns, "{mode:?}");
        assert_eq!(rs.rows().len(), 1);
        assert_eq!(rs.rows()[0].to_string(), "(3, 5)", "{mode:?}");
        let both = conn
            .query(&format!("SELECT b.*, a.x {join} PREFERRING LOWEST(a.x)"))
            .unwrap();
        assert_eq!(both.column_names(), ["k", "y", "x"], "{mode:?}");
    }

    // The rewriter: unknown qualifier is the same complaint; a known one
    // over a multi-table FROM is refused outright, not widened to `*`.
    conn.set_mode(ExecutionMode::Rewrite);
    let err = conn
        .query(&format!("SELECT zz.* {join} PREFERRING LOWEST(a.x)"))
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown table 'zz' in 'zz.*'"), "{err}");
    let err = conn
        .query(&format!("SELECT a.* {join} PREFERRING LOWEST(a.x)"))
        .unwrap_err();
    assert!(matches!(err, prefsql::Error::Unsupported(_)), "{err}");
    // Over a single FROM item `t.*` ≡ `*`, and every mode agrees.
    let a = conn.engine().catalog().table("a").unwrap().clone();
    assert_modes_agree_on_value_or_error(&[a], "SELECT a.* FROM a PREFERRING LOWEST(x)");
}

#[test]
fn nulls_agree_across_modes() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE t (id INTEGER, x INTEGER, c VARCHAR)")
        .unwrap();
    conn.execute(
        "INSERT INTO t VALUES (1, 5, 'red'), (2, NULL, 'red'), (3, 9, NULL), (4, 5, 'blue')",
    )
    .unwrap();
    let table = conn.engine().catalog().table("t").unwrap().clone();
    assert_all_modes_agree(
        table.clone(),
        "SELECT id FROM t PREFERRING LOWEST(x) AND c IN ('red')",
    );
    assert_all_modes_agree(
        table,
        "SELECT id FROM t PREFERRING LOWEST(x) CASCADE c = 'red'",
    );
}

/// The value kinds the scored kernel treats specially — NULL, NaN,
/// `-0.0` next to `0.0`, an `INTEGER` column against a `1.0` literal in an
/// `EXPLICIT` graph, values the graph does not mention, dates, mixed-case
/// `CONTAINS` text — as one table, every mode against the rewrite. (The
/// `compose.rs` proptest holds the same kinds against the reference tree
/// walk, plus the wrong-typed ones: a string under `LOWEST` or a number
/// under `CONTAINS` means something else to the host SQL — `<` on
/// strings, a `LIKE` type error — so the modes have nothing to agree on
/// there.)
#[test]
fn value_semantics_agree_across_modes() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE v (id INTEGER, x FLOAT, n INTEGER, c VARCHAR, d DATE)")
        .unwrap();
    conn.execute(
        "INSERT INTO v VALUES \
         (1, 0.0, 1, 'red', '1999-07-03'), (2, -0.0, 1, 'Red dress', '1999-07-05'), \
         (3, 1.0, 2, 'blue', '1999-07-01'), (4, NULL, NULL, NULL, NULL), \
         (5, 0.0 / 0.0, 3, 'pink', '1999-07-03'), (6, 2.5, 2, 'grey', '1999-07-04'), \
         (7, 1.0, 1, 'red', NULL)",
    )
    .unwrap();
    let table = conn.engine().catalog().table("v").unwrap().clone();
    for pref in [
        "LOWEST(x) AND HIGHEST(n)",
        "x AROUND 0 CASCADE LOWEST(n)",
        "HIGHEST(x) CASCADE x BETWEEN -1, 1",
        // Int(1) in the data is the graph's 1.0, as SQL `=` has it; 3
        // and NULL are outside the graph.
        "n EXPLICIT (1.0 BETTER 2) AND LOWEST(x)",
        "c EXPLICIT ('red' BETTER 'blue', 'blue' BETTER 'grey') AND HIGHEST(x)",
        "d AROUND '1999-07-03' CASCADE c CONTAINS 'red'",
        "(c = 'red' ELSE c <> 'pink') AND LOWEST(d)",
    ] {
        let sql = format!("SELECT id FROM v PREFERRING {pref}");
        assert_all_modes_agree(table.clone(), &sql);
    }
}

mod random_query_sweep {
    use super::{assert_all_modes_agree, assert_modes_agree_on_value_or_error};
    use prefsql::storage::Table;
    use prefsql::types::{tuple, Column, DataType, Schema, Tuple, Value};
    use proptest::prelude::*;

    /// A random table over a fixed 4-column schema (with NULLs mixed in).
    fn arb_table() -> impl Strategy<Value = Table> {
        let row = (
            0i64..20,
            0i64..20,
            prop_oneof![
                Just(Some("red")),
                Just(Some("blue")),
                Just(Some("green")),
                Just(None)
            ],
            prop_oneof![(0i64..15).prop_map(Some), Just(None)],
        );
        proptest::collection::vec(row, 1..35).prop_map(|rows| {
            let schema = Schema::new(vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
                Column::new("c", DataType::Str),
                Column::new("d", DataType::Int),
            ])
            .expect("static schema");
            let mut t = Table::new("r", schema);
            for (i, (a, b, c, d)) in rows.into_iter().enumerate() {
                let c = c.map(Value::str).unwrap_or(Value::Null);
                let d = d.map(Value::Int).unwrap_or(Value::Null);
                t.insert(Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::Int(a),
                    Value::Int(b),
                    c,
                    d,
                ]))
                .expect("row fits schema");
            }
            let _ = tuple![0]; // keep the macro import used
            t
        })
    }

    /// A random preference term as SQL text.
    fn arb_pref_sql() -> impl Strategy<Value = String> {
        let leaf = prop_oneof![
            Just("LOWEST(a)".to_string()),
            Just("HIGHEST(b)".to_string()),
            Just("LOWEST(d)".to_string()),
            (0i64..20).prop_map(|k| format!("a AROUND {k}")),
            (0i64..10, 10i64..20).prop_map(|(l, u)| format!("b BETWEEN {l}, {u}")),
            Just("c IN ('red', 'blue')".to_string()),
            Just("c <> 'green'".to_string()),
            Just("c = 'red' ELSE c = 'blue'".to_string()),
            Just("c = 'red' ELSE c <> 'blue'".to_string()),
            Just("c EXPLICIT ('red' BETTER 'blue', 'blue' BETTER 'green')".to_string()),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 2..4)
                    .prop_map(|parts| format!("({})", parts.join(" AND "))),
                proptest::collection::vec(inner, 2..3)
                    .prop_map(|parts| format!("({})", parts.join(" CASCADE "))),
            ]
        })
    }

    /// The quality calls of one random attribute: TOP and DISTANCE of a
    /// numeric one, TOP and LEVEL of the categorical `c`.
    fn arb_quality_sql() -> impl Strategy<Value = String> {
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")].prop_map(|attr| {
            let measure = if attr == "c" { "LEVEL" } else { "DISTANCE" };
            format!("TOP({attr}), {measure}({attr})")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any random preference over any random table: the rewrite and
        /// all three native algorithms agree.
        #[test]
        fn all_modes_agree_on_random_queries(table in arb_table(), pref in arb_pref_sql()) {
            let sql = format!("SELECT id FROM r PREFERRING {pref}");
            assert_all_modes_agree(table, &sql);
        }

        /// Same with a random GROUPING attribute.
        #[test]
        fn all_modes_agree_with_grouping(table in arb_table(), pref in arb_pref_sql()) {
            let sql = format!("SELECT id FROM r PREFERRING {pref} GROUPING c");
            assert_all_modes_agree(table, &sql);
        }

        /// Quality functions of a random attribute (§2.2.3): every mode
        /// gives the rewrite's values, or its error when the preference
        /// does not name the attribute exactly once.
        #[test]
        fn quality_functions_agree_on_random_queries(
            table in arb_table(),
            pref in arb_pref_sql(),
            quality in arb_quality_sql()
        ) {
            let sql = format!("SELECT id, {quality} FROM r PREFERRING {pref} ORDER BY id");
            assert_modes_agree_on_value_or_error(&[table], &sql);
        }
    }
}

#[test]
fn randomized_differential_sweep() {
    // Many random workloads × a mix of preference shapes; any divergence
    // between the rewrite and the native algorithms fails loudly.
    let queries = [
        "SELECT id FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)",
        "SELECT id FROM car PREFERRING HIGHEST(power) CASCADE price AROUND 40000",
        "SELECT id FROM car PREFERRING category = 'roadster' ELSE category <> 'passenger'",
        "SELECT id FROM car PREFERRING price BETWEEN 20000, 30000 AND LOWEST(mileage)",
        "SELECT id FROM car PREFERRING (LOWEST(price) AND HIGHEST(power)) CASCADE \
         color IN ('red', 'black') CASCADE LOWEST(mileage)",
        "SELECT id FROM car PREFERRING color IN ('red') GROUPING make",
        "SELECT id FROM car WHERE price < 60000 PREFERRING HIGHEST(power) \
         BUT ONLY DISTANCE(power) <= 50",
    ];
    for seed in 0..5 {
        let t = cars::market(120, 100 + seed);
        for q in &queries {
            assert_all_modes_agree(t.clone(), q);
        }
    }
}

/// Preference blocks beyond a top-level SELECT: in a derived table (under
/// another preference or a plain block, with a named preference), as an
/// INSERT source, as a view body read under a WHERE, and under GROUP BY /
/// HAVING. Native mode plans each BMO itself, and each statement's
/// outcome — its rows or count, or the kind of its error — is the
/// rewrite's. A `PREFERRING` sub-query is refused alike (paper §2.2.5).
#[test]
fn preference_blocks_at_any_depth_agree() {
    use prefsql::{Error, QueryResult};
    type Outcome = Result<String, std::mem::Discriminant<Error>>;
    const SETUP: &[&str] = &[
        "CREATE TABLE t (x INTEGER, y VARCHAR)",
        "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a'), (2, 'a'), (5, 'b'), (4, 'c'), (4, 'c')",
        "CREATE PREFERENCE small AS LOWEST(x)",
    ];
    // Each shape's statements, run after SETUP in a fresh session; the
    // native EXPLAIN of the one named second shows the BMO.
    let shapes: &[(&[&str], Option<&str>)] = &[
        (
            &[
                "SELECT * FROM (SELECT * FROM t PREFERRING LOWEST(x) GROUPING y) d \
               PREFERRING HIGHEST(x)",
            ],
            Some(
                "SELECT * FROM (SELECT * FROM t PREFERRING LOWEST(x) GROUPING y) d \
                  PREFERRING HIGHEST(x)",
            ),
        ),
        (
            &[
                "SELECT d.y, d.x * 10 AS z FROM (SELECT * FROM t PREFERRING HIGHEST(x) \
               GROUPING y) d ORDER BY d.y",
            ],
            Some("SELECT d.y FROM (SELECT * FROM t PREFERRING HIGHEST(x) GROUPING y) d"),
        ),
        (
            &["SELECT x, y FROM (SELECT * FROM t PREFERRING PREFERENCE small) d ORDER BY y"],
            Some("SELECT x FROM (SELECT * FROM t PREFERRING PREFERENCE small) d"),
        ),
        (
            &[
                "CREATE TABLE w (x INTEGER, y VARCHAR)",
                "INSERT INTO w SELECT * FROM t PREFERRING LOWEST(x) GROUPING y",
                "SELECT * FROM w ORDER BY y, x",
            ],
            Some("INSERT INTO w SELECT * FROM t PREFERRING LOWEST(x) GROUPING y"),
        ),
        (
            &[
                "CREATE VIEW v AS SELECT * FROM t PREFERRING HIGHEST(x) GROUPING y",
                "SELECT * FROM v WHERE x > 2 ORDER BY y, x",
            ],
            Some("SELECT * FROM v WHERE x > 2"),
        ),
        (
            &["SELECT y, COUNT(*) AS n, MAX(DISTANCE(x)) AS far FROM t \
               PREFERRING x AROUND 3 GROUPING y GROUP BY y HAVING COUNT(*) >= 1 ORDER BY y"],
            Some(
                "SELECT y, MAX(DISTANCE(x)) FROM t PREFERRING x AROUND 3 GROUP BY y \
                  HAVING COUNT(*) >= 1",
            ),
        ),
        (
            &["SELECT * FROM t WHERE x IN (SELECT x FROM t PREFERRING LOWEST(x))"],
            None,
        ),
    ];
    for (stmts, explained) in shapes {
        let mut per_mode: Vec<Vec<Outcome>> = Vec::new();
        for mode in [ExecutionMode::Rewrite, ExecutionMode::native()] {
            let mut conn = PrefSqlConnection::new();
            conn.set_mode(mode);
            for sql in SETUP {
                conn.execute(sql).unwrap();
            }
            let outcomes = stmts.iter().map(|sql| {
                let outcome = conn.execute(sql).map(|r| match r {
                    QueryResult::Rows(rs) => {
                        let rows: Vec<String> = rs.rows().iter().map(|r| r.to_string()).collect();
                        format!("{:?} {rows:?}", rs.column_names())
                    }
                    other => format!("{other:?}"),
                });
                outcome.map_err(|e| std::mem::discriminant(&e))
            });
            per_mode.push(outcomes.collect());
            if let (ExecutionMode::Native(_), Some(sql)) = (mode, explained) {
                let Ok(QueryResult::Explain(plan)) = conn.execute(&format!("EXPLAIN {sql}")) else {
                    panic!("native EXPLAIN failed: {sql}");
                };
                assert!(plan.contains("Preference (BMO"), "{sql}:\n{plan}");
                // The header marks the plan's BMO, a view body's included.
                let header = plan.starts_with("Native preference plan:\n");
                assert!(header, "{sql}:\n{plan}");
            }
        }
        assert_eq!(per_mode[0], per_mode[1], "rewrite vs native on {stmts:?}");
        // Every shape runs but the sub-query, which both modes refuse.
        let refused = vec![Err(std::mem::discriminant(&Error::Unsupported(
            String::new(),
        )))];
        match explained {
            Some(_) => assert!(per_mode[0].iter().all(Result::is_ok), "{per_mode:?}"),
            None => assert_eq!(per_mode[0], refused),
        }
    }
}
