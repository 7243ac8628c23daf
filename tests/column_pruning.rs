//! Column pruning: a plan carries only the columns it reads, and never
//! loses one its semantics read.
//!
//! Every case runs in both modes (rewrite and native) on three sessions:
//! the in-memory backend, the paged backend behind the smallest legal
//! pool, and whatever the environment configures (the paged and 4 KiB
//! window CI legs). Its rows must equal those of the oracle: the same
//! statement with every derived select list written out by hand, or an
//! equivalent statement with nothing to prune. The mem backend lends
//! whole rows whatever a mask says, so only the paged session can see a
//! column wrongly masked to `NULL`.

use prefsql::{ExecutionMode, QueryResult, Session};
use prefsql_engine::{BackendKind, EngineCore};
use prefsql_types::knobs::{DEFAULT_POOL_BYTES, MIN_POOL_BYTES};
use prefsql_workload::jobs;
use std::sync::Arc;

/// Rows in `cars`: enough for the paged table to span many pages, few
/// enough for per-row sub-queries in a debug build.
const ROWS: usize = 600;

/// The sessions every case runs on, labelled, each holding the data.
fn sessions() -> Vec<(&'static str, Session)> {
    let cores = [
        ("mem", Some(BackendKind::Mem), DEFAULT_POOL_BYTES),
        ("paged", Some(BackendKind::Paged), MIN_POOL_BYTES),
        ("env", None, 0),
    ];
    cores
        .into_iter()
        .map(|(label, kind, pool)| {
            let mut s = match kind {
                Some(kind) => Session::with_core(Arc::new(EngineCore::with_storage(kind, pool))),
                None => Session::new(),
            };
            load(&mut s);
            (label, s)
        })
        .collect()
}

/// `cars` (seven columns, NULLs in `power`, a hash index on `make` and a
/// B-tree index on `power`), `dealers` and an empty `sink`.
fn load(s: &mut Session) {
    run(
        s,
        "CREATE TABLE cars (id INTEGER NOT NULL, make VARCHAR NOT NULL, \
         price INTEGER, power INTEGER, mileage INTEGER, color VARCHAR, note VARCHAR)",
    );
    let makes = ["audi", "bmw", "opel", "vw"];
    let colors = ["red", "blue", "black"];
    let mut state = 0x9e37_79b9_u64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % m
    };
    let rows: Vec<String> = (0..ROWS)
        .map(|id| {
            let power = match next(30) {
                0 => "NULL".to_string(),
                p => (60 + p * 8).to_string(),
            };
            format!(
                "({id}, '{}', {}, {power}, {}, '{}', 'note {id}')",
                makes[next(4) as usize],
                5_000 + next(40_000),
                next(200_000),
                colors[next(3) as usize],
            )
        })
        .collect();
    run(s, &format!("INSERT INTO cars VALUES {}", rows.join(", ")));
    run(s, "CREATE INDEX idx_make ON cars (make) USING hash");
    run(s, "CREATE INDEX idx_power ON cars (power) USING btree");
    run(
        s,
        "CREATE TABLE dealers (make VARCHAR, city VARCHAR, rating INTEGER)",
    );
    run(
        s,
        "INSERT INTO dealers VALUES ('audi', 'Ingolstadt', 3), ('bmw', 'Munich', 4), \
         ('opel', 'Ruesselsheim', 2), ('vw', 'Wolfsburg', 5), ('audi', 'Neckarsulm', 4)",
    );
    run(
        s,
        "CREATE VIEW recent AS SELECT * FROM cars WHERE mileage < 150000",
    );
    run(
        s,
        "CREATE TABLE sink (id INTEGER, note VARCHAR, price INTEGER)",
    );
}

fn run(s: &mut Session, sql: &str) {
    s.execute(sql)
        .unwrap_or_else(|e| panic!("{sql} failed: {e}"));
}

/// The rendered rows of `sql`, sorted unless `ordered`.
fn rows(s: &mut Session, sql: &str, ordered: bool) -> Vec<String> {
    let rs = s.query(sql).unwrap_or_else(|e| panic!("{sql} failed: {e}"));
    let mut out: Vec<String> = rs.rows().iter().map(|r| r.to_string()).collect();
    if !ordered {
        out.sort();
    }
    out
}

/// Both modes: the rewrite and the native BMO operator.
fn modes() -> [ExecutionMode; 2] {
    [ExecutionMode::Rewrite, ExecutionMode::native()]
}

/// `sql` and `oracle` return the same rows — in the same order when
/// `ordered` — in both modes on every session, and select something.
fn same(sql: &str, oracle: &str, ordered: bool) {
    for (label, mut s) in sessions() {
        for mode in modes() {
            s.set_mode(mode);
            let got = rows(&mut s, sql, ordered);
            let want = rows(&mut s, oracle, ordered);
            assert!(
                !want.is_empty(),
                "{label}/{}: {oracle} is empty",
                mode.label()
            );
            assert_eq!(got, want, "{label}/{}: {sql}", mode.label());
        }
    }
}

#[test]
fn distinct_inside_a_derived_table_keeps_its_columns() {
    same(
        "SELECT d.make FROM (SELECT DISTINCT make, color FROM cars) d",
        "SELECT make FROM cars GROUP BY make, color",
        false,
    );
    same(
        "SELECT COUNT(*) FROM (SELECT DISTINCT * FROM cars WHERE power > 200) d",
        "SELECT COUNT(*) FROM cars WHERE power > 200",
        false,
    );
}

#[test]
fn group_by_inside_a_derived_table_keeps_its_keys_and_arguments() {
    same(
        "SELECT g.make FROM (SELECT make, color, COUNT(*) AS n, SUM(price) AS s \
         FROM cars GROUP BY make, color) g WHERE g.n > 40",
        "SELECT make FROM cars GROUP BY make, color HAVING COUNT(*) > 40",
        false,
    );
    same(
        "SELECT g.s FROM (SELECT make, COUNT(*) AS n, SUM(price) AS s, MAX(mileage) AS m \
         FROM cars GROUP BY make) g",
        "SELECT SUM(price) FROM cars GROUP BY make",
        false,
    );
}

#[test]
fn limit_and_order_inside_a_derived_table() {
    same(
        "SELECT l.id FROM (SELECT * FROM cars ORDER BY price, id LIMIT 20) l",
        "SELECT l.id FROM (SELECT id, make, price, power, mileage, color, note \
         FROM cars ORDER BY price, id LIMIT 20) l",
        true,
    );
}

#[test]
fn grouping_preference_inside_a_derived_table() {
    same(
        "SELECT p.id FROM (SELECT * FROM cars \
         PREFERRING LOWEST(price) AND HIGHEST(power) GROUPING make) p",
        "SELECT p.id FROM (SELECT id, make, price, power, mileage, color, note FROM cars \
         PREFERRING LOWEST(price) AND HIGHEST(power) GROUPING make) p",
        false,
    );
}

/// The outer block sorts by a derived column it does not select.
#[test]
fn order_by_a_derived_column_not_selected() {
    same(
        "SELECT d.id FROM (SELECT * FROM cars WHERE power > 100) d ORDER BY d.mileage, d.id",
        "SELECT d.id FROM (SELECT id, mileage FROM cars WHERE power > 100) d \
         ORDER BY d.mileage, d.id",
        true,
    );
}

/// Correlated sub-queries read derived and view columns the outer select
/// list omits: as a decorrelated semi join, as the per-row probe (behind
/// `OR 1 = 0`), through `IN` and as a scalar.
#[test]
fn correlated_sub_queries_read_columns_the_outer_select_omits() {
    let exists = "EXISTS (SELECT 1 FROM dealers WHERE dealers.make = d.make \
                  AND dealers.rating * 40 > d.power)";
    for from in ["(SELECT * FROM cars) d", "recent d"] {
        let oracle_from = match from {
            "recent d" => "(SELECT id, make, power FROM cars WHERE mileage < 150000) d",
            _ => "(SELECT id, make, power FROM cars) d",
        };
        for pred in [exists.to_string(), format!("({exists} OR 1 = 0)")] {
            same(
                &format!("SELECT d.id FROM {from} WHERE {pred}"),
                &format!("SELECT d.id FROM {oracle_from} WHERE {pred}"),
                false,
            );
            same(
                &format!("SELECT d.id FROM {from} WHERE NOT {pred}"),
                &format!("SELECT d.id FROM {oracle_from} WHERE NOT {pred}"),
                false,
            );
        }
    }
    same(
        "SELECT d.id FROM (SELECT * FROM cars) d WHERE d.price IN \
         (SELECT c.price + 0 FROM cars c WHERE c.make = d.make AND c.color = d.color \
          AND c.mileage < 60000)",
        "SELECT d.id FROM (SELECT id, make, price, color FROM cars) d WHERE d.price IN \
         (SELECT c.price + 0 FROM cars c WHERE c.make = d.make AND c.color = d.color \
          AND c.mileage < 60000)",
        false,
    );
    same(
        "SELECT d.id, (SELECT MAX(c.price) FROM cars c WHERE c.make = d.make \
         AND c.color = d.color) FROM recent d WHERE d.power > 250",
        "SELECT d.id, (SELECT MAX(c.price) FROM cars c WHERE c.make = d.make \
         AND c.color = d.color) FROM (SELECT id, make, color, power FROM cars \
         WHERE mileage < 150000) d WHERE d.power > 250",
        false,
    );
}

/// One view body and one derived body, each used twice with different
/// column needs and once more inside a sub-query: every use shares one
/// materialization, which must hold what all of them read.
#[test]
fn one_body_used_with_different_column_needs() {
    same(
        "SELECT a.id, b.color FROM recent a JOIN recent b ON a.id = b.id \
         WHERE a.price > (SELECT AVG(r.power) * 100 FROM recent r WHERE r.make = 'bmw')",
        "SELECT a.id, b.color FROM (SELECT id, price FROM cars WHERE mileage < 150000) a \
         JOIN (SELECT id, color FROM cars WHERE mileage < 150000) b ON a.id = b.id \
         WHERE a.price > (SELECT AVG(power) * 100 FROM cars \
         WHERE mileage < 150000 AND make = 'bmw')",
        false,
    );
    let body = "(SELECT * FROM cars WHERE price < 30000)";
    same(
        &format!(
            "SELECT x.id, y.note FROM {body} x, {body} y WHERE x.id = y.id \
             AND EXISTS (SELECT 1 FROM {body} z WHERE z.color = x.color AND z.id < 10)"
        ),
        "SELECT x.id, y.note FROM (SELECT id, color FROM cars WHERE price < 30000) x, \
         (SELECT id, note FROM cars WHERE price < 30000) y WHERE x.id = y.id \
         AND EXISTS (SELECT 1 FROM (SELECT id, color FROM cars WHERE price < 30000) z \
         WHERE z.color = x.color AND z.id < 10)",
        false,
    );
}

/// `SELECT *` over a derived `PREFERRING` block, and quality functions
/// inside and over one.
#[test]
fn star_and_quality_functions_over_a_derived_preference() {
    same(
        "SELECT * FROM (SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(power)) p",
        "SELECT * FROM (SELECT id, make, price, power, mileage, color, note FROM cars \
         PREFERRING LOWEST(price) AND HIGHEST(power)) p",
        false,
    );
    same(
        "SELECT q.id, q.dist FROM (SELECT *, DISTANCE(price) AS dist FROM cars \
         PREFERRING price AROUND 20000) q",
        "SELECT q.id, q.dist FROM (SELECT id, DISTANCE(price) AS dist FROM cars \
         PREFERRING price AROUND 20000) q",
        false,
    );
    same(
        "SELECT id, DISTANCE(price), TOP(power) FROM (SELECT * FROM cars WHERE make = 'bmw') d \
         PREFERRING price AROUND 20000 AND HIGHEST(power) ORDER BY id",
        "SELECT id, DISTANCE(price), TOP(power) FROM (SELECT id, price, power FROM cars \
         WHERE make = 'bmw') d PREFERRING price AROUND 20000 AND HIGHEST(power) ORDER BY id",
        true,
    );
}

#[test]
fn insert_select_from_a_derived_table() {
    for (label, mut s) in sessions() {
        for mode in modes() {
            s.set_mode(mode);
            let mut got = Vec::new();
            for source in [
                "SELECT d.id, d.note, d.price FROM (SELECT * FROM cars WHERE price < 9000) d",
                "SELECT d.id, d.note, d.price FROM (SELECT id, note, price FROM cars \
                 WHERE price < 9000) d",
            ] {
                run(&mut s, "DELETE FROM sink");
                run(&mut s, &format!("INSERT INTO sink {source}"));
                got.push(rows(&mut s, "SELECT * FROM sink", false));
            }
            assert!(!got[1].is_empty(), "{label}: nothing inserted");
            assert!(!got[1].iter().any(|r| r.contains("NULL")), "{label}");
            assert_eq!(got[0], got[1], "{label}/{}", mode.label());
        }
    }
}

#[test]
fn three_way_join_over_derived_tables() {
    same(
        "SELECT a.id, b.city, c.note FROM (SELECT * FROM cars) a \
         JOIN (SELECT * FROM dealers) b ON a.make = b.make \
         JOIN (SELECT * FROM cars) c ON c.id = a.id WHERE a.price < 9000",
        "SELECT a.id, b.city, c.note FROM (SELECT id, make, price FROM cars) a \
         JOIN (SELECT make, city FROM dealers) b ON a.make = b.make \
         JOIN (SELECT id, note FROM cars) c ON c.id = a.id WHERE a.price < 9000",
        false,
    );
}

fn explained(s: &mut Session, sql: &str) -> String {
    match s.execute(&format!("EXPLAIN {sql}")).expect("EXPLAIN runs") {
        QueryResult::Explain(text) => text,
        other => panic!("EXPLAIN produced {other:?}"),
    }
}

/// A hash probe lends its rows in row-id order, a B-tree range probe in
/// key order: the order the probe lists them, not the table's.
#[test]
fn index_probes_lend_rows_in_probe_order() {
    for (label, mut s) in sessions() {
        let hash = "SELECT id, make, note FROM cars WHERE make = 'opel'";
        assert!(explained(&mut s, hash).contains("Index"), "{label}");
        assert_eq!(
            rows(&mut s, hash, true),
            rows(&mut s, &format!("{hash} ORDER BY id"), true),
            "{label}"
        );
        let range = "SELECT id, power, color FROM cars WHERE power >= 250";
        assert!(explained(&mut s, range).contains("Index"), "{label}");
        let probed = rows(&mut s, range, true);
        assert_eq!(
            probed,
            rows(&mut s, &format!("{range} ORDER BY power, id"), true),
            "{label}: a range probe returns key order"
        );
        assert_ne!(
            probed,
            rows(&mut s, &format!("{range} ORDER BY id"), true),
            "{label}: key order is not row-id order here"
        );
        // Through a derived table, whose body probes the index.
        same_in(
            &mut s,
            "SELECT d.id FROM (SELECT * FROM cars WHERE power >= 250) d",
            "SELECT id FROM cars WHERE power >= 250 ORDER BY power, id",
        );
    }
}

/// Ordered equality of two statements in both modes on one session.
fn same_in(s: &mut Session, sql: &str, oracle: &str) {
    for mode in modes() {
        s.set_mode(mode);
        assert_eq!(rows(s, sql, true), rows(s, oracle, true), "{sql}");
    }
}

/// The rewrite of the §3.3 job search: `prefsql_a1`'s projection holds
/// the candidate's id and its four slot expressions, not the 74-column
/// profile, and `prefsql_a2` shares it.
#[test]
fn jobsearch_derived_tables_carry_only_id_and_slots() {
    let mut s = Session::new();
    s.engine_mut()
        .catalog_mut()
        .create_table(jobs::table(2_000, 1))
        .unwrap();
    run(
        &mut s,
        "CREATE INDEX idx_region ON profiles (region) USING hash",
    );
    run(&mut s, "CREATE INDEX idx_salary ON profiles (salary)");
    s.set_mode(ExecutionMode::Rewrite);
    let sql = "SELECT id FROM profiles WHERE region = 0 AND salary BETWEEN 40000 AND 60000 \
               PREFERRING HIGHEST(experience_years) AND HIGHEST(skill_java) \
               AND HIGHEST(english_level) AND HIGHEST(mobility_km)";
    let plan = explained(&mut s, sql);
    let projects: Vec<&str> = plan
        .lines()
        .skip_while(|l| !l.contains("Host engine plan:"))
        .filter(|l| l.trim_start().starts_with("Project:"))
        .collect();
    let expected = "Project: profiles.id, -(experience_years), -(skill_java), -(english_level), \
                    -(mobility_km)";
    let derived = projects.iter().filter(|l| l.trim() == expected).count();
    assert_eq!(derived, 2, "{plan}");
    let native = {
        s.set_mode(ExecutionMode::native());
        rows(&mut s, sql, false)
    };
    s.set_mode(ExecutionMode::Rewrite);
    assert_eq!(rows(&mut s, sql, false), native);
}
