//! Broader end-to-end suite: BMO semantics on generated workloads,
//! GROUPING, EXPLICIT/CONTAINS preferences, named preferences, pass-through
//! behaviour and result invariants.

use prefsql::{PrefSqlConnection, Value};
use prefsql_workload::{bks01, computers, cosima, hotels, jobs, trips};

fn conn_with(table: prefsql::storage::Table) -> PrefSqlConnection {
    let mut conn = PrefSqlConnection::new();
    conn.engine_mut().catalog_mut().create_table(table).unwrap();
    conn
}

#[test]
fn bmo_result_is_exactly_the_maximal_set() {
    // Differential check against a trivially correct reference
    // implementation computed from the raw rows.
    let mut conn = conn_with(computers::table(300, 5));
    let rs = conn
        .query("SELECT id FROM computers PREFERRING HIGHEST(main_memory) AND HIGHEST(cpu_speed)")
        .unwrap();
    let mut got = rs.column_as_ints(0);
    got.sort_unstable();

    let all = conn
        .query("SELECT id, main_memory, cpu_speed FROM computers")
        .unwrap();
    let pts: Vec<(i64, i64, i64)> = all
        .rows()
        .iter()
        .map(|r| {
            (
                r[0].as_int().unwrap(),
                r[1].as_int().unwrap(),
                r[2].as_int().unwrap(),
            )
        })
        .collect();
    let mut expected: Vec<i64> = pts
        .iter()
        .filter(|(_, m, c)| {
            !pts.iter()
                .any(|(_, m2, c2)| m2 >= m && c2 >= c && (m2 > m || c2 > c))
        })
        .map(|(id, _, _)| *id)
        .collect();
    expected.sort_unstable();
    assert_eq!(got, expected);
}

#[test]
fn grouping_returns_per_group_maxima() {
    let mut conn = conn_with(hotels::table(200, 8));
    let rs = conn
        .query("SELECT id, location, price FROM hotels PREFERRING LOWEST(price) GROUPING location")
        .unwrap();
    // Reference: cheapest price per location.
    let all = conn
        .query("SELECT id, location, price FROM hotels")
        .unwrap();
    use std::collections::HashMap;
    let mut best: HashMap<String, i64> = HashMap::new();
    for r in all.rows() {
        let loc = r[1].to_string();
        let p = r[2].as_int().unwrap();
        best.entry(loc)
            .and_modify(|b| *b = (*b).min(p))
            .or_insert(p);
    }
    assert!(rs.len() >= best.len(), "at least one winner per group");
    for r in rs.rows() {
        let loc = r[1].to_string();
        let p = r[2].as_int().unwrap();
        assert_eq!(p, best[&loc], "group {loc} winner must be its minimum");
    }
    // Every location is represented.
    let mut locs: Vec<String> = rs.rows().iter().map(|r| r[1].to_string()).collect();
    locs.sort();
    locs.dedup();
    assert_eq!(locs.len(), best.len());
}

#[test]
fn explicit_preference_end_to_end() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE shirts (id INTEGER, color VARCHAR)")
        .unwrap();
    conn.execute("INSERT INTO shirts VALUES (1, 'red'), (2, 'blue'), (3, 'grey'), (4, 'pink')")
        .unwrap();
    let rs = conn
        .query(
            "SELECT id FROM shirts PREFERRING color EXPLICIT \
             ('red' BETTER 'blue', 'blue' BETTER 'grey') ORDER BY id",
        )
        .unwrap();
    // red undominated; pink unmentioned hence incomparable and undominated;
    // blue and grey dominated by red.
    assert_eq!(rs.column_as_ints(0), vec![1, 4]);
}

#[test]
fn contains_preference_end_to_end() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE docs (id INTEGER, body VARCHAR)")
        .unwrap();
    conn.execute(
        "INSERT INTO docs VALUES \
         (1, 'the skyline operator in databases'), \
         (2, 'pareto optimality and the skyline'), \
         (3, 'cooking recipes')",
    )
    .unwrap();
    let rs = conn
        .query("SELECT id FROM docs PREFERRING body CONTAINS ('skyline', 'pareto')")
        .unwrap();
    assert_eq!(rs.column_as_ints(0), vec![2]);
}

#[test]
fn named_preferences_across_statements() {
    let mut conn = conn_with(trips::table(120, 3));
    conn.execute("CREATE PREFERENCE fortnight AS duration AROUND 14")
        .unwrap();
    conn.execute("CREATE PREFERENCE cheap AS LOWEST(price)")
        .unwrap();
    let rs = conn
        .query("SELECT id, duration, price FROM trips PREFERRING PREFERENCE fortnight CASCADE PREFERENCE cheap")
        .unwrap();
    assert!(!rs.is_empty());
    // All winners share the best available |duration - 14|, and among
    // those have minimal price.
    let all = conn.query("SELECT duration, price FROM trips").unwrap();
    let best_dist = all
        .rows()
        .iter()
        .map(|r| (r[0].as_int().unwrap() - 14).abs())
        .min()
        .unwrap();
    let best_price = all
        .rows()
        .iter()
        .filter(|r| (r[0].as_int().unwrap() - 14).abs() == best_dist)
        .map(|r| r[1].as_int().unwrap())
        .min()
        .unwrap();
    for r in rs.rows() {
        assert_eq!((r[1].as_int().unwrap() - 14).abs(), best_dist);
        assert_eq!(r[2].as_int().unwrap(), best_price);
    }
}

#[test]
fn pass_through_results_identical_to_raw_engine() {
    // §3.1: "Queries without preferences are just passed through".
    let table = jobs::table(2_000, 17);
    let mut conn = conn_with(table.clone());
    let mut raw = prefsql::engine::Engine::new();
    raw.catalog_mut().create_table(table).unwrap();

    for sql in [
        "SELECT COUNT(*) FROM profiles",
        "SELECT region, COUNT(*) FROM profiles GROUP BY region ORDER BY region",
        "SELECT id FROM profiles WHERE region = 3 AND salary > 50000 ORDER BY id LIMIT 10",
    ] {
        let via_layer = conn.query(sql).unwrap();
        let direct = raw.execute_sql(sql).unwrap().expect_rows();
        assert_eq!(
            via_layer.rows(),
            direct.rows.as_slice(),
            "mismatch on {sql}"
        );
    }
}

#[test]
fn skyline_query_sizes_follow_bks01_distributions() {
    // E-shape check: anti-correlated ≫ independent ≫ correlated.
    let n = 400;
    let mut sizes = Vec::new();
    for dist in bks01::Distribution::ALL {
        let mut conn = conn_with(bks01::table(n, 3, dist, 23));
        let rs = conn.query(&bks01::skyline_query(3)).unwrap();
        sizes.push(rs.len());
    }
    let (ind, corr, anti) = (sizes[0], sizes[1], sizes[2]);
    assert!(corr < ind, "correlated {corr} !< independent {ind}");
    assert!(ind < anti, "independent {ind} !< anti-correlated {anti}");
}

#[test]
fn cosima_result_sizes_are_survey_friendly() {
    // §4.3: "predominantly the size of the Pareto-optimal set was between
    // 1 and 20".
    let mut in_range = 0;
    let runs = 20;
    for seed in 0..runs {
        let snap = cosima::snapshot(600, seed);
        let mut conn = conn_with(snap.offers);
        let rs = conn.query(cosima::COMPARISON_QUERY).unwrap();
        assert!(!rs.is_empty());
        if (1..=20).contains(&rs.len()) {
            in_range += 1;
        }
    }
    assert!(
        in_range * 10 >= runs * 8,
        "expected ≥80% of snapshots in 1..=20, got {in_range}/{runs}"
    );
}

#[test]
fn top_quality_function_flags_perfect_matches() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE t (id INTEGER, x INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t VALUES (1, 10), (2, 12)")
        .unwrap();
    let rs = conn
        .query("SELECT id, TOP(x) FROM t PREFERRING x AROUND 10 ORDER BY id")
        .unwrap();
    // Only the perfect match survives BMO, flagged TRUE.
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows()[0][1], Value::Bool(true));
    // With no perfect match, survivors are flagged FALSE.
    let rs = conn
        .query("SELECT id, TOP(x) FROM t PREFERRING x AROUND 11 ORDER BY id")
        .unwrap();
    assert_eq!(rs.len(), 2);
    for r in rs.rows() {
        assert_eq!(r[1], Value::Bool(false));
    }
}

#[test]
fn nulls_are_incomparable_not_filtered() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE t (id INTEGER, x INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t VALUES (1, 5), (2, NULL), (3, 9)")
        .unwrap();
    let rs = conn
        .query("SELECT id FROM t PREFERRING LOWEST(x) ORDER BY id")
        .unwrap();
    // 5 beats 9; NULL is incomparable and survives.
    assert_eq!(rs.column_as_ints(0), vec![1, 2]);
}

#[test]
fn empty_table_gives_empty_bmo() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE t (id INTEGER, x INTEGER)")
        .unwrap();
    let rs = conn.query("SELECT id FROM t PREFERRING LOWEST(x)").unwrap();
    assert!(rs.is_empty());
}

#[test]
fn preference_on_view() {
    let mut conn = conn_with(computers::table(100, 31));
    conn.execute("CREATE VIEW cheap AS SELECT * FROM computers WHERE price < 2000")
        .unwrap();
    let rs = conn
        .query("SELECT id FROM cheap PREFERRING HIGHEST(main_memory)")
        .unwrap();
    assert!(!rs.is_empty());
}

#[test]
fn grouping_with_but_only() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE cars2 (id INTEGER, make VARCHAR, price INTEGER)")
        .unwrap();
    conn.execute(
        "INSERT INTO cars2 VALUES (1, 'audi', 30000), (2, 'audi', 35000), \
         (3, 'bmw', 90000), (4, 'bmw', 95000)",
    )
    .unwrap();
    // Cheapest per make, but only if within 40000 of the global optimum…
    let rs = conn
        .query(
            "SELECT id FROM cars2 PREFERRING LOWEST(price) GROUPING make \
             BUT ONLY DISTANCE(price) <= 40000 ORDER BY id",
        )
        .unwrap();
    // audi winner (30000, distance 0) passes; bmw winner (90000, distance
    // 60000) is filtered by the quality threshold.
    assert_eq!(rs.column_as_ints(0), vec![1]);
}

/// Cross-stack oracle: run the flagship Opel query through the full
/// rewrite pipeline, then *independently* verify the BMO property using
/// the preference model compiled straight from the AST — every returned
/// row must be undominated among the WHERE-qualified candidates, and every
/// non-returned candidate must be dominated by someone.
#[test]
fn opel_result_is_exactly_the_maximal_set_by_independent_oracle() {
    use prefsql::parser::ast::Statement;
    use prefsql::parser::parse_statement;
    use prefsql::pref::{maximal_scored, ScoreMatrix, SkylineAlgo};
    use prefsql::rewrite::{compile_preference, PreferenceRegistry};

    let mut conn = conn_with(prefsql_workload::cars::market(300, 77));
    let sql = prefsql_workload::cars::OPEL_QUERY;
    let result = conn.query(&format!("{sql} ORDER BY id")).unwrap();
    let result_ids: Vec<i64> = result
        .rows()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();

    // Oracle: candidates + slot vectors via plain SQL, dominance via the
    // compiled preference's nested loop (no rewriter, no NOT EXISTS
    // involved).
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        unreachable!()
    };
    let resolved = PreferenceRegistry::new()
        .resolve(q.preferring.as_ref().unwrap())
        .unwrap();
    let compiled = compile_preference(&resolved).unwrap();
    let slot_sql = format!(
        "SELECT id, {} FROM car WHERE make = 'Opel'",
        compiled
            .base_exprs
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let candidates = conn.query(&slot_sql).unwrap();
    let slots: Vec<(i64, Vec<prefsql::Value>)> = candidates
        .rows()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r.values()[1..].to_vec()))
        .collect();
    let rows: Vec<Vec<prefsql::Value>> = slots.iter().map(|(_, sv)| sv.clone()).collect();
    let m = ScoreMatrix::lower(&compiled.preference, &rows);
    let winners = maximal_scored(&m, &compiled.preference, &m.ids(), SkylineAlgo::Naive, 1);
    let mut oracle_ids: Vec<i64> = winners.into_iter().map(|i| slots[i].0).collect();
    oracle_ids.sort_unstable();
    assert_eq!(
        result_ids, oracle_ids,
        "rewrite output must equal the BMO oracle"
    );
    assert!(!result_ids.is_empty());
}

#[test]
fn grouping_on_multiple_attributes() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE offers (id INTEGER, shop VARCHAR, used BOOLEAN, price INTEGER)")
        .unwrap();
    conn.execute(
        "INSERT INTO offers VALUES \
         (1, 'a', TRUE, 10), (2, 'a', TRUE, 8), \
         (3, 'a', FALSE, 20), (4, 'b', TRUE, 9), (5, 'b', TRUE, 12)",
    )
    .unwrap();
    let rs = conn
        .query("SELECT id FROM offers PREFERRING LOWEST(price) GROUPING shop, used ORDER BY id")
        .unwrap();
    // Cheapest per (shop, used) group: (a,true)->2, (a,false)->3, (b,true)->4.
    assert_eq!(rs.column_as_ints(0), vec![2, 3, 4]);
}

#[test]
fn update_delete_through_the_preference_layer() {
    // DML passes through the layer untouched and composes with preference
    // queries on the mutated state.
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE cars3 (id INTEGER, price INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO cars3 VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    assert_eq!(
        conn.execute("DELETE FROM cars3 WHERE price = 10").unwrap(),
        prefsql::QueryResult::Count(1)
    );
    assert_eq!(
        conn.execute("UPDATE cars3 SET price = 5 WHERE id = 3")
            .unwrap(),
        prefsql::QueryResult::Count(1)
    );
    let rs = conn
        .query("SELECT id FROM cars3 PREFERRING LOWEST(price)")
        .unwrap();
    assert_eq!(rs.column_as_ints(0), vec![3]);
}

#[test]
fn distinct_and_limit_compose_with_preferring() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE t (id INTEGER, grp VARCHAR, x INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'a', 5), (2, 'a', 5), (3, 'b', 5), (4, 'b', 9)")
        .unwrap();
    let rs = conn
        .query("SELECT DISTINCT grp FROM t PREFERRING LOWEST(x)")
        .unwrap();
    assert_eq!(rs.len(), 2); // winners 1,2,3 project to groups a,b
    let rs = conn
        .query("SELECT id FROM t PREFERRING LOWEST(x) ORDER BY id LIMIT 2")
        .unwrap();
    assert_eq!(rs.column_as_ints(0), vec![1, 2]);
}
