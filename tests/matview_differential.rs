//! Differential evidence for incremental materialized-preference-view
//! maintenance.
//!
//! The serving contract under test: after *every* DML statement, a query
//! served from the view's stored winner set is byte-identical (schema,
//! rows, and row order) to recomputing the BMO from scratch. Three
//! layers of proof:
//!
//! 1. A property test interleaving random INSERT/DELETE/UPDATE sequences
//!    against random preference composition trees (Pareto ⊗ and
//!    prioritization & over a/b/c, NULLs included). Two sessions on
//!    *separate* cores apply the identical DML stream — one owns a
//!    materialized view (cache hits), the other recomputes cold — so the
//!    only variable is the cache. Checked after every single statement,
//!    under threads ∈ {1, 8} × window ∈ {off, 4 KiB}, against both the
//!    native recompute and the paper's rewrite path.
//! 2. A deterministic delete-of-winner scenario: deleting a winner must
//!    promote exactly the rows it exclusively dominated, without a full
//!    rebuild (the maintained entries equal a REFRESH-built set).
//! 3. A concurrent-sessions stress case: writer sessions hammer DML on
//!    the base table while reader sessions are served from the view;
//!    afterwards the incrementally maintained content must equal both a
//!    cold recompute and a from-scratch REFRESH.
//! 4. A definition dimension: the same random DML against views with a
//!    WHERE clause, a FROM alias, a projection and a CASCADE over a POS
//!    preference, so rows cross the WHERE under UPDATE; checked after
//!    every statement, served ≡ cold ≡ a read of the view by name.
//! 5. Serving edges: definitions with literal and operator forms that
//!    must still be served when queried with their own text, and a base
//!    table dropped and re-created straight through the catalog.

use prefsql::engine::EngineCore;
use prefsql::parser::ast::{Expr, PrefExpr};
use prefsql::storage::Table;
use prefsql::types::{Column, DataType, Schema, Tuple, Value};
use prefsql::{ExecutionMode, ResultSet, Session};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// --------------------------------------------------------- generators

/// A random preference composition tree over columns a, b, c — base
/// preferences at the leaves, Pareto (`AND`) and prioritization
/// (`CASCADE`) at the inner nodes.
fn arb_pref() -> impl Strategy<Value = PrefExpr> {
    let leaf = prop_oneof![
        Just(PrefExpr::Lowest {
            expr: Expr::col("a")
        }),
        Just(PrefExpr::Highest {
            expr: Expr::col("b")
        }),
        (0i64..12).prop_map(|k| PrefExpr::Around {
            expr: Expr::col("a"),
            target: Box::new(Expr::lit(k)),
        }),
        (0i64..6, 6i64..12).prop_map(|(l, u)| PrefExpr::Between {
            expr: Expr::col("b"),
            low: Box::new(Expr::lit(l)),
            up: Box::new(Expr::lit(u)),
        }),
        proptest::collection::vec(0i64..8, 1..3).prop_map(|vs| PrefExpr::Pos {
            expr: Expr::col("c"),
            values: vs.into_iter().map(Value::Int).collect(),
        }),
        Just(PrefExpr::Neg {
            expr: Expr::col("c"),
            values: vec![Value::Int(3)],
        }),
        Just(PrefExpr::Explicit {
            expr: Expr::col("c"),
            edges: vec![
                (Value::Int(1), Value::Int(2)),
                (Value::Int(2), Value::Int(5))
            ],
        }),
    ];
    leaf.prop_recursive(2, 6, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..3).prop_map(PrefExpr::Pareto),
            proptest::collection::vec(inner, 2..3).prop_map(PrefExpr::Prioritized),
        ]
    })
}

/// One random DML statement. Delete/update targets pick from the rows
/// still alive at application time (modulo the live count), so every
/// generated statement is effective once the table is non-empty. A
/// `FailedInsert` stages a valid row ahead of one with a string in an
/// INTEGER column: the statement fails, and must store neither.
#[derive(Debug, Clone)]
enum Op {
    Insert { a: i64, b: i64, c: Option<i64> },
    FailedInsert { a: i64, b: i64, c: Option<i64> },
    Delete { pick: usize },
    Update { pick: usize, a: i64, b: i64 },
}

fn arb_cell() -> impl Strategy<Value = (i64, i64, Option<i64>)> {
    (
        0i64..12,
        0i64..12,
        prop_oneof![(0i64..8).prop_map(Some), Just(None)],
    )
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            arb_cell().prop_map(|(a, b, c)| Op::Insert { a, b, c }),
            arb_cell().prop_map(|(a, b, c)| Op::FailedInsert { a, b, c }),
            (0usize..64).prop_map(|pick| Op::Delete { pick }),
            (0usize..64, 0i64..12, 0i64..12).prop_map(|(pick, a, b)| Op::Update { pick, a, b }),
        ],
        1..16,
    )
}

// ------------------------------------------------------------ harness

fn sql_cell(c: &Option<i64>) -> String {
    c.map(|v| v.to_string()).unwrap_or_else(|| "NULL".into())
}

fn setup(s: &mut Session, seed: &[(i64, i64, Option<i64>)]) {
    s.execute("CREATE TABLE r (id INTEGER, a INTEGER, b INTEGER, c INTEGER)")
        .unwrap();
    for (i, (a, b, c)) in seed.iter().enumerate() {
        s.execute(&format!(
            "INSERT INTO r VALUES ({i}, {a}, {b}, {})",
            sql_cell(c)
        ))
        .unwrap();
    }
}

/// The view's current content through the engine's by-name access path.
fn read_view(s: &mut Session) -> ResultSet {
    s.set_mode(ExecutionMode::Rewrite);
    s.query("SELECT * FROM v").unwrap()
}

/// View definitions, `{pref}` standing for the generated preference.
/// The first is every column of `r`; the others have a WHERE that
/// UPDATEs move rows across (a and b are what they assign), an alias, a
/// projection and a CASCADE over a POS preference.
const DEFINITIONS: [&str; 4] = [
    "SELECT * FROM r PREFERRING {pref}",
    "SELECT * FROM r WHERE c IS NOT NULL AND a < 9 PREFERRING {pref}",
    "SELECT x.id, x.a FROM r x WHERE x.b > 2 PREFERRING {pref}",
    "SELECT id, a, c FROM r WHERE b <> 4 PREFERRING c IN (1, 2) CASCADE ({pref})",
];

/// Assert the cached serving path for `sql` agrees with every recompute
/// flavour and with a read of the view by name.
fn check(inc: &mut Session, cold: &mut Session, sql: &str) {
    inc.set_mode(ExecutionMode::native());
    let served = inc.query(sql).unwrap();
    assert_eq!(
        served.view_activity().and_then(|v| v.served_by.as_deref()),
        Some("v"),
        "query must be served from the materialized view: {sql}"
    );
    assert_eq!(
        served.dominance_tests(),
        0,
        "a view hit skips the dominance pass: {sql}"
    );
    cold.set_mode(ExecutionMode::native());
    let recomputed = cold.query(sql).unwrap();
    assert!(
        recomputed.view_activity().is_none(),
        "cold session has no view to serve from"
    );
    assert_eq!(
        served, recomputed,
        "cache hit diverged from native recompute: {sql}"
    );
    // The rewrite qualifies `*` columns by its own alias.
    cold.set_mode(ExecutionMode::Rewrite);
    let oracle = cold.query(sql).unwrap();
    assert_eq!(
        (served.schema().without_qualifiers(), served.rows()),
        (oracle.schema().without_qualifiers(), oracle.rows()),
        "cache hit diverged from rewrite path: {sql}"
    );
    assert_eq!(served.rows(), read_view(inc).rows(), "read by name: {sql}");
}

fn row_count(s: &mut Session) -> Vec<i64> {
    s.set_mode(ExecutionMode::Rewrite);
    s.query("SELECT COUNT(*) FROM r").unwrap().column_as_ints(0)
}

/// Apply one op to both sessions.
fn apply(op: &Op, live: &mut Vec<i64>, next_id: &mut i64, sessions: &mut [&mut Session]) {
    let sql = match op {
        Op::Insert { a, b, c } => {
            let id = *next_id;
            *next_id += 1;
            live.push(id);
            format!("INSERT INTO r VALUES ({id}, {a}, {b}, {})", sql_cell(c))
        }
        Op::FailedInsert { a, b, c } => {
            let sql = format!(
                "INSERT INTO r VALUES ({}, {a}, {b}, {}), (-1, 'x', {b}, {})",
                *next_id,
                sql_cell(c),
                sql_cell(c)
            );
            for s in sessions {
                let before = row_count(s);
                assert!(s.execute(&sql).is_err(), "must fail: {sql}");
                assert_eq!(row_count(s), before, "a failed INSERT stores no row: {sql}");
            }
            return;
        }
        Op::Delete { pick } => {
            if live.is_empty() {
                return;
            }
            let id = live.remove(pick % live.len());
            format!("DELETE FROM r WHERE id = {id}")
        }
        Op::Update { pick, a, b } => {
            if live.is_empty() {
                return;
            }
            let id = live[pick % live.len()];
            format!("UPDATE r SET a = {a}, b = {b} WHERE id = {id}")
        }
    };
    for s in sessions {
        s.set_mode(ExecutionMode::Rewrite);
        s.execute(&sql).unwrap();
    }
}

/// Run one full scenario over the view `SELECT * FROM r PREFERRING
/// {pref}`, queried by an explicit column list.
fn run_scenario(
    pref: &PrefExpr,
    seed: &[(i64, i64, Option<i64>)],
    ops: &[Op],
    threads: usize,
    window: Option<usize>,
) {
    let pref = pref.to_string();
    let query = format!("SELECT id, a, b, c FROM r PREFERRING {pref}");
    let view = DEFINITIONS[0].replace("{pref}", &pref);
    run_definition(&view, &query, seed, ops, threads, window);
}

/// Seed both cores, create the view `body` on one, and check `query`
/// after the build, after every DML statement, and after a final
/// REFRESH (incremental state ≡ from-scratch rebuild).
fn run_definition(
    body: &str,
    query: &str,
    seed: &[(i64, i64, Option<i64>)],
    ops: &[Op],
    threads: usize,
    window: Option<usize>,
) {
    let mut inc = Session::new();
    let mut cold = Session::new();
    for s in [&mut inc, &mut cold] {
        s.set_threads(threads);
        s.set_window_bytes(window);
        setup(s, seed);
    }
    inc.execute(&format!("CREATE MATERIALIZED PREFERENCE VIEW v AS {body}"))
        .unwrap();
    check(&mut inc, &mut cold, query);

    let mut live: Vec<i64> = (0..seed.len() as i64).collect();
    let mut next_id = seed.len() as i64;
    for op in ops {
        apply(op, &mut live, &mut next_id, &mut [&mut inc, &mut cold]);
        check(&mut inc, &mut cold, query);
    }

    let incremental = read_view(&mut inc);
    inc.execute("REFRESH MATERIALIZED PREFERENCE VIEW v")
        .unwrap();
    assert_eq!(
        incremental,
        read_view(&mut inc),
        "incrementally maintained content must equal a from-scratch rebuild: {body}"
    );
}

// ------------------------------------------------------------- proofs

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Layer 1: random DML against random preference trees, checked
    /// after every statement under the full knob matrix.
    #[test]
    fn incremental_view_equals_full_recompute(
        pref in arb_pref(),
        seed in proptest::collection::vec(arb_cell(), 0..12),
        ops in arb_ops(),
    ) {
        for threads in [1usize, 8] {
            for window in [None, Some(4096usize)] {
                run_scenario(&pref, &seed, &ops, threads, window);
            }
        }
    }
}

/// Layer 2: deleting a winner promotes exactly the rows it exclusively
/// dominated — pinned deterministically so the scenario is always
/// exercised regardless of what the random sweeps draw.
#[test]
fn delete_of_winner_promotes_dominated_rows() {
    let pref = PrefExpr::Pareto(vec![
        PrefExpr::Lowest {
            expr: Expr::col("a"),
        },
        PrefExpr::Lowest {
            expr: Expr::col("b"),
        },
    ]);
    // (0: 1,1) dominates (1: 2,3) and (2: 3,2); (3: 0,9) and (4: 9,0)
    // are incomparable winners.
    let seed = [
        (1, 1, None),
        (2, 3, None),
        (3, 2, None),
        (0, 9, None),
        (9, 0, None),
    ];
    let ops = [Op::Delete { pick: 0 }]; // removes id 0, the (1,1) winner
    run_scenario(&pref, &seed, &ops, 1, None);

    // And visibly: the promotion really happened.
    let mut s = Session::new();
    setup(&mut s, &seed);
    s.execute(&format!(
        "CREATE MATERIALIZED PREFERENCE VIEW v AS SELECT * FROM r PREFERRING {pref}"
    ))
    .unwrap();
    assert_eq!(
        s.query("SELECT id FROM v").unwrap().column_as_ints(0),
        vec![0, 3, 4]
    );
    s.execute("DELETE FROM r WHERE id = 0").unwrap();
    assert_eq!(
        s.query("SELECT id FROM v").unwrap().column_as_ints(0),
        vec![1, 2, 3, 4],
        "rows dominated only by the deleted winner are promoted"
    );

    // The hit is a plan-time choice: the one native plan tree has the
    // view scan where `Preference` and its source would be, under the
    // engine's ordinary Sort / Project / Limit.
    s.set_mode(ExecutionMode::native());
    let sql = format!("SELECT id FROM r PREFERRING {pref} ORDER BY id DESC LIMIT 2");
    let explain = |s: &mut Session, prefix: &str| match s.execute(&format!("{prefix} {sql}")) {
        Ok(prefsql::QueryResult::Explain(text)) => text,
        other => panic!("expected EXPLAIN output, got {other:?}"),
    };
    let plan = explain(&mut s, "EXPLAIN");
    let lines: Vec<&str> = plan.lines().map(str::trim_start).collect();
    assert_eq!(
        lines,
        [
            "Native preference plan:",
            "limit 2",
            "Project: id",
            "sort(1 keys)",
            "Materialized view scan: v (4 winners) [view=v hit]",
        ],
        "{plan}"
    );
    let report = explain(&mut s, "EXPLAIN ANALYZE");
    let scan = report
        .lines()
        .find(|l| l.contains("Materialized view scan: v"))
        .unwrap_or_else(|| panic!("no view scan in:\n{report}"));
    assert!(scan.contains("(actual rows=4 "), "{scan}");
    assert!(!report.contains("Preference (BMO"), "{report}");
    assert!(report.contains(", 0 dominance comparison(s)"), "{report}");
    let served = s.query(&sql).unwrap();
    assert_eq!(served.column_as_ints(0), vec![4, 3]);
    assert_eq!(served.dominance_tests(), 0);
    // A stale view refuses to serve, and the plan says why it recomputes.
    s.engine_mut().catalog_mut().matview_mut("v").unwrap().stale = true;
    let plan = explain(&mut s, "EXPLAIN");
    assert!(
        plan.contains("base preference(s)) [view=v stale]"),
        "{plan}"
    );
    assert!(plan.contains("Seq scan: r"), "{plan}");
    let cold = s.query(&sql).unwrap();
    assert_eq!(cold, served);
    assert!(cold.dominance_tests() > 0 && cold.view_activity().is_none());
}

/// A statement that fails part-way must leave the view in step with its
/// table: a multi-row INSERT whose second row has the wrong type stores
/// neither row, and the view keeps serving exactly what a cold run
/// computes. The valid row would be the new sole winner.
#[test]
fn failed_insert_keeps_view_in_step() {
    let pref = PrefExpr::Pareto(vec![
        PrefExpr::Lowest {
            expr: Expr::col("a"),
        },
        PrefExpr::Lowest {
            expr: Expr::col("b"),
        },
    ]);
    let seed = [(5, 5, Some(1)), (3, 4, None)];
    let ops = [
        Op::FailedInsert {
            a: 1,
            b: 1,
            c: Some(0),
        },
        Op::Insert {
            a: 2,
            b: 2,
            c: None,
        },
    ];
    run_scenario(&pref, &seed, &ops, 1, None);
}

/// Layer 3: concurrent writers and cache-served readers over one shared
/// core. Statement-level isolation makes each DML + its view maintenance
/// atomic, so readers always see a consistent winner set, and the final
/// incremental state equals both a cold recompute and a REFRESH rebuild.
#[test]
fn concurrent_dml_keeps_view_equivalent() {
    let pref = "LOWEST(a) AND HIGHEST(b)";
    let core = EngineCore::shared();
    let mut admin = Session::with_core(Arc::clone(&core));
    admin
        .execute("CREATE TABLE r (id INTEGER, a INTEGER, b INTEGER, c INTEGER)")
        .unwrap();
    for i in 0..32 {
        admin
            .execute(&format!(
                "INSERT INTO r VALUES ({i}, {}, {}, {})",
                i % 7,
                (i * 5) % 11,
                i % 3
            ))
            .unwrap();
    }
    admin
        .execute(&format!(
            "CREATE MATERIALIZED PREFERENCE VIEW v AS SELECT * FROM r PREFERRING {pref}"
        ))
        .unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                let mut s = Session::with_core(core);
                // Each writer owns a private id range, so its deletes and
                // updates always target rows it inserted itself.
                let base = 1000 * (w + 1);
                for i in 0..40 {
                    let id = base + i;
                    s.execute(&format!(
                        "INSERT INTO r VALUES ({id}, {}, {}, NULL)",
                        (w * 3 + i) % 9,
                        (w + i * 7) % 13
                    ))
                    .unwrap();
                    match i % 3 {
                        0 => {
                            s.execute(&format!("DELETE FROM r WHERE id = {id}"))
                                .unwrap();
                        }
                        1 => {
                            s.execute(&format!(
                                "UPDATE r SET a = {}, b = {} WHERE id = {id}",
                                (i + 1) % 9,
                                (w + i) % 13
                            ))
                            .unwrap();
                        }
                        _ => {}
                    }
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let core = Arc::clone(&core);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut s = Session::with_core(core);
                s.set_mode(ExecutionMode::native());
                let sql = format!("SELECT id FROM r PREFERRING {pref}");
                let mut hits = 0u32;
                while !done.load(Ordering::Relaxed) {
                    let rs = s.query(&sql).unwrap();
                    if rs
                        .view_activity()
                        .is_some_and(|v| v.served_by.as_deref() == Some("v"))
                    {
                        hits += 1;
                    }
                }
                assert!(hits > 0, "readers were never served from the view");
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer panicked");
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader panicked");
    }

    // Quiesced: cached content ≡ cold recompute ≡ rebuilt-from-scratch.
    let sql = format!("SELECT id, a, b, c FROM r PREFERRING {pref}");
    admin.set_mode(ExecutionMode::native());
    let served = admin.query(&sql).unwrap();
    assert_eq!(
        served.view_activity().and_then(|v| v.served_by.as_deref()),
        Some("v")
    );
    admin.set_mode(ExecutionMode::Rewrite);
    assert_eq!(served, admin.query(&sql).unwrap());
    let incremental = read_view(&mut admin);
    admin
        .execute("REFRESH MATERIALIZED PREFERENCE VIEW v")
        .unwrap();
    assert_eq!(incremental, read_view(&mut admin));
}

// ------------------------------------------------- definition dimension

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Layer 4: random DML against views with a WHERE, an alias, a
    /// projection and a CASCADE, checked after every statement.
    #[test]
    fn views_with_where_alias_and_projection_stay_in_step(
        pref in arb_pref(),
        seed in proptest::collection::vec(arb_cell(), 0..12),
        ops in arb_ops(),
    ) {
        for def in DEFINITIONS {
            let body = def.replace("{pref}", &pref.to_string());
            run_definition(&body, &body, &seed, &ops, 1, None);
        }
    }
}

/// Layer 5: a definition is served when queried with its own text,
/// whatever literal and operator forms it is spelt with.
#[test]
fn definitions_are_served_when_queried_with_their_own_text() {
    let seed: Vec<(i64, i64, Option<i64>)> = (0..24)
        .map(|i| (i % 7, (i * 5) % 11, (i % 4 != 0).then_some(i % 5)))
        .collect();
    for body in [
        "SELECT * FROM r WHERE a > -3 PREFERRING LOWEST(b)",
        "SELECT * FROM r WHERE b < 7.5 PREFERRING a AROUND -1.5",
        "SELECT * FROM r WHERE a <> 3 PREFERRING HIGHEST(b) AND LOWEST(a)",
        "SELECT * FROM r WHERE NOT (a > 5 OR b < 2) PREFERRING LOWEST(a)",
        "SELECT * FROM r WHERE a BETWEEN 2 AND 6 PREFERRING b BETWEEN 3, 5",
        "SELECT x.id AS k, x.b FROM r x WHERE x.a >= 1 PREFERRING LOWEST(x.a)",
        "SELECT * FROM r WHERE c IN (1, 3) PREFERRING (LOWEST(a) AND HIGHEST(b)) CASCADE LOWEST(c)",
        "SELECT id FROM r WHERE 'it''s' <> 'x' PREFERRING c IN (2) CASCADE LOWEST(a)",
    ] {
        let mut inc = Session::new();
        let mut cold = Session::new();
        setup(&mut inc, &seed);
        setup(&mut cold, &seed);
        inc.execute(&format!("CREATE MATERIALIZED PREFERENCE VIEW v AS {body}"))
            .unwrap();
        check(&mut inc, &mut cold, body);
    }
}

/// A table dropped and re-created straight through the catalog is
/// another table: the views on it go stale, so neither a read by name
/// nor a matching native query is served the old winners' row ids, and
/// REFRESH binds the view to the new table.
#[test]
fn a_base_table_recreated_through_the_catalog_is_not_served_stale_winners() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (id INTEGER, x INTEGER)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 5), (2, 1), (3, 9)")
        .unwrap();
    s.execute("CREATE MATERIALIZED PREFERENCE VIEW v AS SELECT * FROM t PREFERRING LOWEST(x)")
        .unwrap();
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("x", DataType::Int),
    ])
    .unwrap();
    let mut t = Table::new("t", schema);
    for (id, x) in [(10, 100), (20, 200), (30, 0)] {
        t.insert(Tuple::new(vec![Value::Int(id), Value::Int(x)]))
            .unwrap();
    }
    {
        let mut cat = s.engine_mut().catalog_mut();
        cat.drop_table("t").unwrap();
        cat.create_table(t).unwrap();
    }
    let err = s.query("SELECT * FROM v").unwrap_err();
    assert!(err.to_string().contains("stale"), "{err}");
    s.set_mode(ExecutionMode::native());
    let native = s.query("SELECT * FROM t PREFERRING LOWEST(x)").unwrap();
    assert!(native.view_activity().is_none(), "served by a stale view");
    assert_eq!(native.column_as_ints(0), vec![30]);
    s.execute("REFRESH MATERIALIZED PREFERENCE VIEW v").unwrap();
    assert_eq!(
        s.query("SELECT * FROM v").unwrap().column_as_ints(0),
        vec![30]
    );
    let served = s.query("SELECT * FROM t PREFERRING LOWEST(x)").unwrap();
    assert_eq!(
        served.view_activity().and_then(|v| v.served_by.as_deref()),
        Some("v")
    );
    assert_eq!(served.column_as_ints(0), vec![30]);
}
