//! Differential evidence for the Grace hash join.
//!
//! The hash join's contract is *byte-identical rows and order* with the
//! nested-loop join it replaces: left-major, right-minor, exactly the
//! sequence the NLJ emits. Every test here renders both results with
//! `ResultSet::to_string()` and diffs the bytes, so column order, row
//! order, and value formatting are all part of the assertion:
//!
//! 1. A fixed fact ⋈ dim sweep (pure equi, multi-key, mixed
//!    equi + residual) across batch sizes 1/7/1024 and window budgets
//!    off / 64 KiB / 4 KiB — the 4 KiB runs overflow into the Grace
//!    partitioned path.
//! 2. Fallback regressions: non-equi and subquery ON conditions must
//!    plan as nested-loop (never panic, never drop a conjunct), and
//!    EXPLAIN must say so.
//! 3. A Grace acceptance run: a build side far over a 64 KiB window
//!    returns bytes identical to the unbounded run, reports
//!    `runs_written >= 2` through `ResultSet::spill_metrics()`, and
//!    leaves no spill directory behind.
//! 4. A property test over random equi-join schemas: random key
//!    arities, domains small enough to force duplicate- and NULL-key
//!    collisions, hash (bounded and unbounded) vs nested-loop.
//! 5. The per-statement build: a correlated EXISTS that re-opens a
//!    join — keyless or keyed — must not re-scan its right side once per
//!    outer row.
//! 6. Session knobs under DML: the window budget and the hash-join
//!    toggle reach a join inside `INSERT ... SELECT` and `CREATE VIEW`.
//! 7. The bound key split: keys and residual per ON shape, byte-diffed
//!    against the keyless run, and identical binder errors either way.
//! 8. Semi and anti joins: every correlated `[NOT] EXISTS` shape as a
//!    WHERE conjunct (the join kind) against the same predicate behind
//!    `OR 1 = 0` (the per-row probe) — NULL, NaN, `-0.0` and INT-vs-FLOAT
//!    keys, residuals, two levels of nesting, a joined and an ordered
//!    sub-query — keyed and keyless, in memory and through Grace; and
//!    the shapes that must stay a per-row `Filter`.

use prefsql::engine::bind::BoundExpr;
use prefsql::engine::explain::render;
use prefsql::engine::physical::{build, drain_batched};
use prefsql::engine::PlanNode;
use prefsql::parser::ast::Statement;
use prefsql::parser::parse_statement;
use prefsql::storage::Table;
use prefsql::types::{Column, DataType, Schema, Tuple, Value};
use prefsql::PrefSqlConnection;
use proptest::prelude::*;

// ------------------------------------------------------------ fixtures

/// A tiny deterministic generator so fixtures need no `rand`.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// `fact(id, k, g, v)` — `k` is the join key over a small domain (to
/// force duplicate matches) with NULLs mixed in; `g` is a second key
/// column; `v` feeds residual predicates.
fn fact_table(rows: usize, key_domain: u64, seed: u64) -> Table {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int).not_null(),
        Column::new("k", DataType::Int),
        Column::new("g", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .expect("static schema");
    let mut t = Table::new("fact", schema);
    let mut s = seed;
    for i in 0..rows {
        let k = match lcg(&mut s) % 10 {
            0 => Value::Null,
            _ => Value::Int((lcg(&mut s) % key_domain) as i64),
        };
        t.insert(Tuple::new(vec![
            Value::Int(i as i64),
            k,
            Value::Int((lcg(&mut s) % 4) as i64),
            Value::Int((lcg(&mut s) % 100) as i64),
        ]))
        .expect("row fits schema");
    }
    t
}

/// `dim(k, g, w, name)` — keys over the same domain as `fact.k`, again
/// with NULLs (which must never match anything).
fn dim_table(rows: usize, key_domain: u64, seed: u64) -> Table {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("g", DataType::Int),
        Column::new("w", DataType::Int),
        Column::new("name", DataType::Str),
    ])
    .expect("static schema");
    let mut t = Table::new("dim", schema);
    let mut s = seed;
    for i in 0..rows {
        let k = match lcg(&mut s) % 12 {
            0 => Value::Null,
            _ => Value::Int((lcg(&mut s) % key_domain) as i64),
        };
        t.insert(Tuple::new(vec![
            k,
            Value::Int((lcg(&mut s) % 4) as i64),
            Value::Int((lcg(&mut s) % 100) as i64),
            Value::Str(format!("d{i}")),
        ]))
        .expect("row fits schema");
    }
    t
}

fn explain(conn: &mut PrefSqlConnection, sql: &str) -> String {
    match conn.execute(sql).expect("explain executes") {
        prefsql::QueryResult::Explain(text) => text,
        other => panic!("EXPLAIN produced {other:?}"),
    }
}

fn conn_with(tables: Vec<Table>) -> PrefSqlConnection {
    let mut conn = PrefSqlConnection::new();
    for t in tables {
        conn.engine_mut()
            .catalog_mut()
            .create_table(t)
            .expect("fresh catalog");
    }
    conn
}

/// The three join shapes under test: pure equi, multi-key equi, and an
/// equi key with a non-equi residual that must survive the split.
const JOIN_QUERIES: [&str; 3] = [
    "SELECT f.id, f.v, d.name FROM fact f JOIN dim d ON f.k = d.k",
    "SELECT f.id, d.name FROM fact f JOIN dim d ON f.k = d.k AND f.g = d.g",
    "SELECT f.id, f.v, d.w, d.name FROM fact f JOIN dim d ON f.k = d.k AND f.v > d.w",
];

// ------------------------------------------------- the documented contract

/// Hash join ≡ nested-loop join, bytes and order, across window budgets
/// (off, generous, tight enough that every run takes the Grace path)
/// and all three join shapes. The baseline is the nested-loop join with
/// the window off — the executor every prior release shipped.
#[test]
fn hash_join_matches_nested_loop_bytes_and_order() {
    let fact = fact_table(600, 23, 7);
    let dim = dim_table(80, 23, 11);

    let mut nlj = conn_with(vec![fact.clone(), dim.clone()]);
    nlj.engine_mut().set_use_hash_join(false);

    for sql in JOIN_QUERIES {
        let expected = nlj.query(sql).expect("nested-loop run").to_string();
        for window in [None, Some(64 * 1024), Some(4096)] {
            let mut hash = conn_with(vec![fact.clone(), dim.clone()]);
            hash.set_window_bytes(window);
            let got = hash.query(sql).expect("hash run").to_string();
            assert_eq!(
                got, expected,
                "hash join diverged from nested-loop: window={window:?} sql={sql}"
            );
        }
    }
}

/// The same contract at the operator level, driven at batch sizes the
/// session never uses: 1 (tuple-at-a-time), 7 (odd, never aligned with
/// internal buffers), and 1024 (the default).
#[test]
fn hash_join_matches_nested_loop_across_batch_sizes() {
    let fact = fact_table(400, 17, 3);
    let dim = dim_table(60, 17, 5);

    let drained = |conn: &PrefSqlConnection, sql: &str, batch: usize| -> Vec<Tuple> {
        let stmt = parse_statement(sql).expect("parseable");
        let Statement::Select(q) = stmt else {
            panic!("test query is a SELECT");
        };
        conn.engine()
            .with_read_ctx(|ctx| {
                let plan = ctx.plan_for(&q)?;
                let mut op = build(ctx, plan.root(), &[]);
                op.open()?;
                let rows = drain_batched(op.as_mut(), batch)?;
                op.close();
                Ok(rows)
            })
            .expect("operator drive")
    };

    let mut nlj = conn_with(vec![fact.clone(), dim.clone()]);
    nlj.engine_mut().set_use_hash_join(false);
    for sql in JOIN_QUERIES {
        let expected = drained(&nlj, sql, 1024);
        for window in [None, Some(4096)] {
            let mut hash = conn_with(vec![fact.clone(), dim.clone()]);
            hash.set_window_bytes(window);
            for batch in [1usize, 7, 1024] {
                let got = drained(&hash, sql, batch);
                assert_eq!(
                    got, expected,
                    "operator drive diverged: window={window:?} batch={batch} sql={sql}"
                );
            }
        }
    }
}

// ----------------------------------------------------------- fallbacks

/// Mixed conditions keep the non-equi conjunct as a residual on the
/// hash join — EXPLAIN must show both the key and the residual, and the
/// residual must actually filter (the equi-only result is strictly
/// larger).
#[test]
fn mixed_condition_keeps_residual_and_filters() {
    let mut conn = conn_with(vec![fact_table(200, 11, 1), dim_table(40, 11, 2)]);

    let plan = explain(
        &mut conn,
        "EXPLAIN SELECT f.id FROM fact f JOIN dim d ON f.k = d.k AND f.v > d.w",
    );
    assert!(plan.contains("join=hash"), "not a hash join:\n{plan}");
    assert!(plan.contains("residual="), "residual dropped:\n{plan}");

    let with_residual = conn
        .query("SELECT COUNT(*) FROM fact f JOIN dim d ON f.k = d.k AND f.v > d.w")
        .expect("mixed join")
        .to_string();
    let equi_only = conn
        .query("SELECT COUNT(*) FROM fact f JOIN dim d ON f.k = d.k")
        .expect("equi join")
        .to_string();
    assert_ne!(
        with_residual, equi_only,
        "residual predicate filtered nothing — the conjunct was dropped"
    );
}

/// Conditions the hash join cannot handle fall back to the nested-loop
/// join cleanly: pure non-equi, and ON conditions containing a
/// subquery. Both must execute (no panic) and EXPLAIN as nested-loop.
#[test]
fn non_equi_and_subquery_conditions_fall_back_to_nested_loop() {
    let mut conn = conn_with(vec![fact_table(50, 7, 9), dim_table(20, 7, 4)]);

    for sql in [
        "SELECT f.id FROM fact f JOIN dim d ON f.v > d.w",
        "SELECT f.id FROM fact f JOIN dim d \
         ON f.k = d.k AND EXISTS (SELECT 1 FROM dim x WHERE x.w = f.v)",
    ] {
        let plan = explain(&mut conn, &format!("EXPLAIN {sql}"));
        assert!(
            plan.contains("Nested-loop join"),
            "expected nested-loop fallback for {sql}:\n{plan}"
        );
        assert!(!plan.contains("join=hash"), "unexpected hash join:\n{plan}");
        conn.query(sql).expect("fallback executes");
    }
}

// ------------------------------------------------------ Grace acceptance

/// A build side far over a 64 KiB window forces the Grace partitioned
/// path: the result must be byte-identical to the unbounded run, the
/// metrics must prove real partitioning (≥ 2 overflow runs), and the
/// spill directory must be gone once the result is materialized.
#[test]
fn grace_overflow_is_byte_identical_and_reports_runs() {
    let fact = fact_table(8_000, 997, 21);
    let dim = dim_table(4_000, 997, 22);
    let sql = "SELECT f.id, d.name FROM fact f JOIN dim d ON f.k = d.k";

    let mut unbounded = conn_with(vec![fact.clone(), dim.clone()]);
    // Explicit: a PREFSQL_WINDOW ceiling in the environment (as the CI
    // rerun sets) must not turn the baseline into a spilling run.
    unbounded.set_window_bytes(None);
    let expected = unbounded.query(sql).expect("unbounded run");
    assert!(
        expected.spill_metrics().is_none(),
        "unbounded run must not spill"
    );

    let mut bounded = conn_with(vec![fact, dim]);
    bounded.set_window_bytes(Some(64 * 1024));
    let rs = bounded.query(sql).expect("bounded run");
    assert_eq!(
        rs.to_string(),
        expected.to_string(),
        "window budget changed the join result"
    );

    let m = rs.spill_metrics().expect("bounded run reports metrics");
    assert!(m.runs_written >= 2, "{m:?}");
    assert!(m.bytes_spilled > 64 * 1024, "{m:?}");
    assert!(m.passes >= 1, "{m:?}");
    let dir = m.spill_dir.as_deref().expect("metrics name the spill dir");
    assert!(!dir.exists(), "spill dir survived the query: {dir:?}");
}

// ------------------------------------------- session knobs under DML

/// A join is planned and bounded the same way wherever it runs: as a
/// SELECT, as the source of `INSERT ... SELECT`, and as the body a
/// `CREATE VIEW` validates. The write-side statements used to build
/// their contexts with default knobs — always a hash join, never a
/// window.
#[test]
fn dml_and_view_validation_honour_the_session_knobs() {
    let join = "SELECT f.id, d.name FROM fact f JOIN dim d ON f.k = d.k";
    let mut conn = conn_with(vec![fact_table(600, 149, 31), dim_table(600, 149, 32)]);
    conn.execute("CREATE TABLE o (id INTEGER, name VARCHAR)")
        .expect("target table");

    // The memory bound: every statement that runs the join spills it.
    conn.set_window_bytes(Some(4096));
    let select_runs = conn
        .query(join)
        .expect("bounded select")
        .spill_metrics()
        .expect("a 4 KiB window spills a 600-row build side")
        .runs_written;
    assert!(select_runs >= 2, "{select_runs}");
    let _ = conn.engine().take_spill_metrics();
    for sql in [
        format!("INSERT INTO o {join}"),
        format!("CREATE VIEW joined AS {join}"),
    ] {
        conn.execute(&sql).expect("write-side statement");
        let m = conn.engine().take_spill_metrics();
        let m = m.unwrap_or_else(|| panic!("window ignored by: {sql}"));
        assert_eq!(m.runs_written, select_runs, "{sql}");
    }
    conn.set_window_bytes(None);

    // The hash-join toggle: the source plan of the INSERT is the plan
    // the SELECT gets.
    for (on, node) in [(true, "join=hash"), (false, "Nested-loop join")] {
        conn.engine_mut().set_use_hash_join(on);
        for sql in [join.to_string(), format!("INSERT INTO o {join}")] {
            let plan = explain(&mut conn, &format!("EXPLAIN ANALYZE {sql}"));
            assert!(plan.contains(node), "hash join {on}: {sql}\n{plan}");
        }
    }
}

// ----------------------------------------------- NLJ rematerialization

/// A join builds its right side once per statement, not once per
/// `open`: a correlated EXISTS over a join re-opens the join for every
/// outer row, and before the fix re-scanned the inner tables every time
/// — the nested loop until PR 7, a keyed join (re-hashing its build per
/// probe) until PR 22. The scan counters pin the fix.
#[test]
fn nested_loop_sides_materialize_once_per_statement() {
    let mut conn = conn_with(vec![fact_table(30, 5, 13), dim_table(50, 5, 14)]);
    // An in-memory build: a spilling (Grace) build is not cached.
    conn.set_window_bytes(None);
    let _ = conn.engine().take_stats();
    conn.query(
        "SELECT f1.id FROM fact f1 \
         WHERE EXISTS (SELECT 1 FROM fact f2, dim d WHERE f2.v = f1.v)",
    )
    .expect("correlated exists over cross join");
    let stats = conn.engine().take_stats();
    // One outer scan (30), the streaming left scan re-opened per probe
    // (30 × 30 — scans lend the table slice, re-opening is free), and
    // exactly ONE materialization of the 50-row right side. The old
    // per-open behaviour re-materialized the right side on every probe,
    // pushing the count past 30 + 900 + 30 × 50 = 2430.
    assert!(
        stats.rows_scanned <= 30 + 30 * 30 + 50,
        "right join side was re-materialized per outer row: {stats:?}"
    );

    // The same probe over a keyed join scans no more than over the
    // keyless one (the toggle off): one build of `dim`, and the left
    // scan pulled row by row up to the first match, as the nested loop
    // does. The keyed join used to re-hash `dim` per probe: 2 430 rows
    // against the keyless 567.
    let keyed = "SELECT f1.id FROM fact f1 WHERE EXISTS \
                 (SELECT 1 FROM fact f2 JOIN dim d ON f2.k = d.k WHERE f2.v = f1.v)";
    let mut scanned = Vec::new();
    for hash in [true, false] {
        conn.engine_mut().set_use_hash_join(hash);
        let _ = conn.engine().take_stats();
        conn.query(keyed).expect("correlated exists over a join");
        scanned.push(conn.engine().take_stats().rows_scanned);
    }
    assert!(
        scanned[0] <= scanned[1],
        "keyed vs keyless scans: {scanned:?}"
    );
}

// ------------------------------------------------------ bound key split

/// The plan of the sub-query behind a WHERE clause's `EXISTS`, rendered
/// as EXPLAIN renders a tree (EXPLAIN itself prints the outer block).
fn exists_plan(conn: &PrefSqlConnection, sql: &str) -> String {
    let Statement::Select(q) = parse_statement(sql).expect("parseable") else {
        panic!("test query is a SELECT");
    };
    conn.engine()
        .with_read_ctx(|ctx| {
            let plan = ctx.plan_for(&q)?;
            let mut node = plan.root();
            let pred = loop {
                match node {
                    PlanNode::Filter { pred, .. } => break pred,
                    other => node = other.input().expect("a WHERE filter"),
                }
            };
            let BoundExpr::Exists { plan, .. } = &pred.expr else {
                panic!("not an EXISTS: {pred}");
            };
            let mut out = String::new();
            render(plan.root(), 0, &mut out);
            Ok(out)
        })
        .expect("plans")
}

/// The planner splits the *bound* ON condition. Per case: the keys and
/// residual the join's plan line shows with the hash-join toggle on
/// (no keys: the nested loop), and the rendered rows against the
/// toggle-off run.
#[test]
fn bound_key_split_plans_keys_and_matches_the_nested_loop() {
    let (fact, dim) = (fact_table(150, 7, 41), dim_table(40, 7, 42));
    let mut hash = conn_with(vec![fact.clone(), dim.clone()]);
    let mut nlj = conn_with(vec![fact, dim]);
    nlj.engine_mut().set_use_hash_join(false);
    let select = "SELECT f.id, f.v, d.name FROM fact f JOIN dim d ON";
    // (query, keys — `None` for the nested loop —, residual)
    let cases: [(String, Option<&str>, Option<&str>); 7] = [
        // Reversed sides normalize to (left, right).
        (format!("{select} d.k = f.k"), Some("f.k = d.k"), None),
        (
            format!("{select} f.k = d.k AND d.g = f.g"),
            Some("f.k = d.k, f.g = d.g"),
            None,
        ),
        // An expression key, bound against its own input.
        (
            format!("{select} f.k + 1 = d.k"),
            Some("(f.k + 1) = d.k"),
            None,
        ),
        // A same-side equality is residual, never a key.
        (
            format!("{select} f.k = f.g AND f.k = d.k"),
            Some("f.k = d.k"),
            Some("(f.k = f.g)"),
        ),
        (format!("{select} f.k = f.g"), None, Some("(f.k = f.g)")),
        // A correlated conjunct is residual and the join keeps its key
        // (it used to make the whole join a nested loop).
        (
            "SELECT f1.id FROM fact f1 WHERE EXISTS \
             (SELECT 1 FROM fact f2 JOIN dim d ON f2.k = d.k AND d.g = f1.g)"
                .to_string(),
            Some("f2.k = d.k"),
            Some("(d.g = f1.g)"),
        ),
        // A sub-query conjunct keeps the join keyless.
        (
            format!("{select} f.k = d.k AND EXISTS (SELECT 1 FROM dim x WHERE x.w = f.v)"),
            None,
            Some("((f.k = d.k) AND EXISTS"),
        ),
    ];
    for (sql, keys, residual) in cases {
        let plan = if sql.contains("f1") {
            exists_plan(&hash, &sql)
        } else {
            explain(&mut hash, &format!("EXPLAIN {sql}"))
        };
        match keys {
            Some(keys) => {
                assert!(
                    plan.contains(&format!("join=hash keys=[{keys}] window=")),
                    "{sql}\n{plan}"
                );
                match residual {
                    Some(r) => assert!(plan.contains(&format!(" residual={r}")), "{sql}\n{plan}"),
                    None => assert!(!plan.contains("residual="), "{sql}\n{plan}"),
                }
            }
            None => {
                let r = residual.expect("a keyless case has a condition");
                assert!(
                    plan.contains(&format!("Nested-loop join on {r}")),
                    "{sql}\n{plan}"
                );
                assert!(!plan.contains("join=hash"), "{sql}\n{plan}");
            }
        }
        assert_eq!(
            hash.query(&sql).expect("hash run").to_string(),
            nlj.query(&sql).expect("nested-loop run").to_string(),
            "{sql}"
        );
    }

    // Unknown and ambiguous columns are the binder's errors, the same
    // text either way.
    for (sql, message) in [
        (format!("{select} f.k = d.nope"), "unknown column 'd.nope'"),
        (
            format!("{select} k = d.k"),
            "ambiguous column reference 'k'",
        ),
    ] {
        let error = |conn: &mut PrefSqlConnection| match conn.query(&sql) {
            Ok(_) => panic!("{sql} succeeded"),
            Err(e) => e.to_string(),
        };
        let on = error(&mut hash);
        assert!(on.contains(message), "{sql}: {on}");
        assert_eq!(on, error(&mut nlj), "{sql}");
    }
}

// ------------------------------------------------------------ proptest

/// A random table over one or two join-key columns plus an id, with
/// keys drawn from a domain small enough to force heavy duplication and
/// NULLs mixed in.
fn arb_side(max_rows: usize) -> impl Strategy<Value = Vec<(Option<i64>, Option<i64>, i64)>> {
    proptest::collection::vec(
        (
            prop_oneof![(0i64..6).prop_map(Some), Just(None)],
            prop_oneof![(0i64..4).prop_map(Some), Just(None)],
            0i64..100,
        ),
        0..max_rows,
    )
}

fn side_table(name: &str, rows: &[(Option<i64>, Option<i64>, i64)]) -> Table {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int).not_null(),
        Column::new("k1", DataType::Int),
        Column::new("k2", DataType::Int),
        Column::new("p", DataType::Int),
    ])
    .expect("static schema");
    let mut t = Table::new(name, schema);
    for (i, (k1, k2, p)) in rows.iter().enumerate() {
        t.insert(Tuple::new(vec![
            Value::Int(i as i64),
            k1.map(Value::Int).unwrap_or(Value::Null),
            k2.map(Value::Int).unwrap_or(Value::Null),
            Value::Int(*p),
        ]))
        .expect("row fits schema");
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random equi-join schemas: one or two key columns, optional
    /// residual, random (duplicate- and NULL-heavy) contents on both
    /// sides. Hash — unbounded and under a window small enough to
    /// spill — must render byte-identically to nested-loop.
    #[test]
    fn random_equi_joins_match_nested_loop(
        left in arb_side(30),
        right in arb_side(30),
        two_keys in any::<bool>(),
        residual in any::<bool>(),
    ) {
        let mut on = String::from("l.k1 = r.k1");
        if two_keys {
            on.push_str(" AND l.k2 = r.k2");
        }
        if residual {
            on.push_str(" AND l.p > r.p");
        }
        let sql = format!("SELECT l.id, r.id, l.p, r.p FROM lhs l JOIN rhs r ON {on}");
        let tables = || vec![side_table("lhs", &left), side_table("rhs", &right)];

        let mut nlj = conn_with(tables());
        nlj.engine_mut().set_use_hash_join(false);
        let expected = nlj.query(&sql).expect("nested-loop run").to_string();

        for window in [None, Some(4096)] {
            let mut hash = conn_with(tables());
            hash.set_window_bytes(window);
            let got = hash.query(&sql).expect("hash run").to_string();
            prop_assert_eq!(&got, &expected, "window={:?} sql={}", window, sql);
        }
    }
}

// ------------------------------------------------- semi and anti joins

/// A table on the session's backend (`PREFSQL_BACKEND` decides, so the
/// paged CI leg runs these through slotted pages too).
fn backend_table(conn: &PrefSqlConnection, name: &str, cols: &[(&str, DataType)]) -> Table {
    let schema = Schema::new(cols.iter().map(|(c, t)| Column::new(*c, *t)).collect())
        .expect("static schema");
    conn.engine()
        .core()
        .make_table(name, schema)
        .expect("table builds")
}

/// `o(id, k, i, v)` — the outer block — and `n(id, k, i, w)`, `m(x, y)`
/// — the sub-queries' tables. `k` (FLOAT) draws from NULL, NaN, `-0.0`,
/// `0.0`, `1.0`, `2.5` and a hot `3.0` (most of `n`, so the 4 KiB Grace
/// run chunks one key's partners); `i` (INTEGER) from NULL, 0..=3, so
/// `n.i = o.k` pairs INT 1 with FLOAT 1.0. `n` is wide enough that its
/// narrowed build overflows a 4 KiB window.
fn exists_conn(seed: u64) -> PrefSqlConnection {
    let mut conn = PrefSqlConnection::new();
    let float_key = |s: &mut u64| match lcg(s) % 10 {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(-0.0),
        3 => Value::Float(0.0),
        4 => Value::Float(1.0),
        5 => Value::Float(2.5),
        _ => Value::Float(3.0),
    };
    let int_key = |s: &mut u64| match lcg(s) % 5 {
        0 => Value::Null,
        k => Value::Int(k as i64 - 1),
    };
    let mut s = seed;
    let mut o = backend_table(
        &conn,
        "o",
        &[
            ("id", DataType::Int),
            ("k", DataType::Float),
            ("i", DataType::Int),
            ("v", DataType::Int),
        ],
    );
    for id in 0..120 {
        let row = vec![
            Value::Int(id),
            float_key(&mut s),
            int_key(&mut s),
            Value::Int((lcg(&mut s) % 100) as i64),
        ];
        o.insert(Tuple::new(row)).expect("row fits");
    }
    let mut n = backend_table(
        &conn,
        "n",
        &[
            ("id", DataType::Int),
            ("k", DataType::Float),
            ("i", DataType::Int),
            ("w", DataType::Int),
        ],
    );
    for id in 0..400 {
        let row = vec![
            Value::Int(id),
            float_key(&mut s),
            int_key(&mut s),
            Value::Int((lcg(&mut s) % 100) as i64),
        ];
        n.insert(Tuple::new(row)).expect("row fits");
    }
    let mut m = backend_table(&conn, "m", &[("x", DataType::Int), ("y", DataType::Int)]);
    for _ in 0..60 {
        let row = vec![
            Value::Int((lcg(&mut s) % 100) as i64),
            Value::Int((lcg(&mut s) % 100) as i64),
        ];
        m.insert(Tuple::new(row)).expect("row fits");
    }
    for t in [o, n, m] {
        conn.engine_mut()
            .catalog_mut()
            .create_table(t)
            .expect("fresh catalog");
    }
    conn
}

/// Correlated `EXISTS` bodies (`SELECT 1 …`), each planned as a semi or
/// anti join when it is a WHERE conjunct.
const EXISTS_BODIES: [&str; 10] = [
    // NULL, NaN and -0.0 vs 0.0 keys.
    "SELECT 1 FROM n WHERE n.k = o.k",
    // INT 1 against FLOAT 1.0.
    "SELECT 1 FROM n WHERE n.i = o.k",
    // A key and a non-equi residual; an uncorrelated conjunct pushed
    // into the build.
    "SELECT 1 FROM n WHERE n.w > o.v AND n.k = o.k AND n.w < 90",
    // Keyless: the residual alone (the rewrite's shape).
    "SELECT 1 FROM n WHERE n.w > o.v AND n.i < o.i",
    // A residual two levels out: the inner sub-query reads `o`.
    "SELECT 1 FROM n WHERE n.k = o.k AND EXISTS (SELECT 1 FROM m WHERE m.x = n.w AND m.y > o.v)",
    // The inner sub-query as the join: its residual reads `o`.
    "SELECT 1 FROM n WHERE n.i = o.i OR n.w = o.v",
    // A sub-query over a join.
    "SELECT 1 FROM n JOIN m ON n.w = m.x WHERE n.i = o.i AND m.y > o.v",
    // A sub-query with ORDER BY.
    "SELECT 1 FROM n WHERE n.k = o.k ORDER BY n.w DESC",
    // A correlated conjunct that reads only the outer row.
    "SELECT 1 FROM n WHERE o.v > 50 AND n.i = o.i",
    // NULL-safe keys stay residual.
    "SELECT 1 FROM n WHERE (n.i = o.i OR (n.i IS NULL AND o.i IS NULL)) AND n.w > o.v",
];

/// `WHERE [NOT] EXISTS (body)` as a conjunct — the semi/anti join — and
/// behind `OR 1 = 0` — the per-row probe — render byte-identically, with
/// the hash-join toggle on and off, the window off and at 4 KiB (every
/// keyed build takes Grace), and beside an ordinary conjunct.
#[test]
fn exists_conjuncts_as_semi_and_anti_joins_match_the_probe() {
    for hash in [true, false] {
        for window in [None, Some(4096)] {
            let mut conn = exists_conn(77);
            conn.engine_mut().set_use_hash_join(hash);
            conn.set_window_bytes(window);
            for body in EXISTS_BODIES {
                for (not, kind) in [("", "Semi join"), ("NOT ", "Anti join")] {
                    let exists = format!("{not}EXISTS ({body})");
                    for sql in [
                        format!("SELECT o.id, o.k, o.i FROM o WHERE {exists}"),
                        format!("SELECT o.id FROM o WHERE o.v > 20 AND {exists} AND o.id < 100"),
                    ] {
                        let plan = explain(&mut conn, &format!("EXPLAIN {sql}"));
                        assert!(plan.contains(kind), "{sql}\n{plan}");
                        let probed = sql.replace(&exists, &format!("(({exists}) OR 1 = 0)"));
                        let plan = explain(&mut conn, &format!("EXPLAIN {probed}"));
                        assert!(!plan.contains(kind), "{probed}\n{plan}");
                        assert_eq!(
                            conn.query(&sql).expect("join run").to_string(),
                            conn.query(&probed).expect("probe run").to_string(),
                            "hash={hash} window={window:?}: {sql}"
                        );
                    }
                }
            }
        }
    }
}

/// The keyed kinds really take Grace under a 4 KiB window — the hot key
/// makes a partition pair chunk — and still match the unbounded run.
#[test]
fn keyed_semi_and_anti_joins_spill_through_grace() {
    for not in ["", "NOT "] {
        let sql = format!(
            "SELECT o.id FROM o WHERE {not}EXISTS (SELECT 1 FROM n WHERE n.k = o.k AND n.w > o.v)"
        );
        let mut unbounded = exists_conn(5);
        unbounded.set_window_bytes(None);
        let expected = unbounded.query(&sql).expect("in memory");
        assert!(expected.spill_metrics().is_none(), "{sql}");
        let mut bounded = exists_conn(5);
        bounded.set_window_bytes(Some(4096));
        let got = bounded.query(&sql).expect("grace");
        let m = got
            .spill_metrics()
            .expect("a 4 KiB window spills the build");
        assert!(m.runs_written >= 2, "{m:?}");
        assert_eq!(got.to_string(), expected.to_string(), "{sql}");
    }
}

/// The `EXISTS` shapes that stay a per-row probe: a LIMIT, an aggregate
/// or DISTINCT in the sub-query, an uncorrelated one, one under NOT or
/// OR, one whose FROM reads the outer row.
#[test]
fn non_conjunct_and_non_streaming_exists_stay_a_filter() {
    let mut conn = exists_conn(9);
    for sql in [
        "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM n WHERE n.k = o.k LIMIT 1)",
        "SELECT o.id FROM o WHERE EXISTS (SELECT COUNT(*) FROM n WHERE n.k = o.k)",
        "SELECT o.id FROM o WHERE EXISTS (SELECT DISTINCT n.w FROM n WHERE n.k = o.k)",
        "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM n WHERE n.w > 90)",
        "SELECT o.id FROM o WHERE NOT (o.v > 50 AND EXISTS (SELECT 1 FROM n WHERE n.k = o.k))",
        "SELECT o.id FROM o WHERE o.v > 50 OR NOT EXISTS (SELECT 1 FROM n WHERE n.k = o.k)",
        "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM n JOIN m ON m.x = o.v WHERE n.i = o.i)",
    ] {
        let plan = explain(&mut conn, &format!("EXPLAIN {sql}"));
        assert!(plan.contains("Filter: "), "{sql}\n{plan}");
        assert!(
            !plan.contains("Semi join") && !plan.contains("Anti join"),
            "{sql}\n{plan}"
        );
        conn.query(sql).expect("probe runs");
    }
}
