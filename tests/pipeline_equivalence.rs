//! Equivalence evidence for the physical operator pipeline.
//!
//! Three layers of proof that the refactored executor preserves
//! semantics:
//!
//! 1. A property test over *random preference compositions* (Pareto ⊗ and
//!    prioritization & trees, not just single base preferences): every
//!    tree is executed four ways — one tuple per pull (`batch: None`),
//!    batched (batch sizes 1, 7, 1024), parallel (1, 2, 8 threads, both through the full
//!    pipeline and directly on the decomposable window), and the naive
//!    abstract §3.2 selection — asserting identical result *sequences*
//!    (the native path guarantees input order, so order is part of the
//!    contract, not just the multiset).
//! 2. A golden sweep running every workload's demo queries through both
//!    the paper's rewrite path and the native operator pipeline, diffing
//!    the result sets.
//! 3. A thread-count invariance sweep: the same demo queries, evaluated
//!    natively with `threads ∈ {1, 2, 8, 64}`, must render byte-identical
//!    outputs — including a workload large enough that the cost model
//!    actually engages the parallel window.
//! 4. Window-budget invariance: every random composition tree and every
//!    workload demo query returns identical results with the
//!    external-memory window unbounded, generously bounded (0 spill
//!    passes), and tightly bounded (1 and many spill passes), combined
//!    with the thread knob — plus a 64 k-row acceptance run whose
//!    metrics must show ≥ 2 passes and whose spill directory must be
//!    gone afterwards.

use prefsql::parser::ast::{Expr, PrefExpr, Query, SelectItem, TableRef};
use prefsql::pref::{maximal_naive, maximal_parallel, Preference};
use prefsql::rewrite::compile::compile_preference;
use prefsql::storage::Table;
use prefsql::types::{Column, DataType, Schema, Tuple, Value};
use prefsql::{ExecutionMode, NativeOptions, PrefSqlConnection, SkylineAlgo};
use prefsql_rewrite::PreferenceRegistry;
use proptest::prelude::*;

mod common;
use common::demo_queries;

// ------------------------------------------------------------ proptest

/// A random table over (id, a, b, c) with NULLs mixed into c.
fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, Option<i64>)>> {
    proptest::collection::vec(
        (
            0i64..12,
            0i64..12,
            prop_oneof![(0i64..8).prop_map(Some), Just(None)],
        ),
        0..40,
    )
}

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
    ];
    leaf.prop_recursive(3, 10, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(PrefExpr::Pareto),
            proptest::collection::vec(inner, 2..3).prop_map(PrefExpr::Prioritized),
        ]
    })
}

fn build_table(rows: &[(i64, i64, Option<i64>)]) -> Table {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int).not_null(),
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Int),
        Column::new("c", DataType::Int),
    ])
    .expect("static schema");
    let mut t = Table::new("r", schema);
    for (i, (a, b, c)) in rows.iter().enumerate() {
        let c = c.map(Value::Int).unwrap_or(Value::Null);
        t.insert(Tuple::new(vec![
            Value::Int(i as i64),
            Value::Int(*a),
            Value::Int(*b),
            c,
        ]))
        .expect("row fits schema");
    }
    t
}

/// The query `SELECT id FROM r PREFERRING <pref>` as an AST.
fn pref_query(pref: PrefExpr) -> Query {
    Query {
        select: vec![SelectItem::Expr {
            expr: Expr::col("id"),
            alias: None,
        }],
        from: vec![TableRef::Named {
            name: "r".into(),
            alias: None,
        }],
        preferring: Some(pref),
        ..Default::default()
    }
}

/// The compiled preference and per-row slot vectors, evaluated
/// out-of-band (base expressions are plain column references here).
fn compiled_slots(table: &Table, pref: &PrefExpr) -> (Preference, Vec<Vec<Value>>) {
    let compiled = compile_preference(pref).expect("compilable preference");
    let schema = table.schema();
    let slot_cols: Vec<usize> = compiled
        .base_exprs
        .iter()
        .map(|e| match e {
            Expr::Column { name, .. } => schema.resolve(None, name).expect("known column"),
            other => panic!("unexpected base expression {other}"),
        })
        .collect();
    let slots: Vec<Vec<Value>> = table
        .rows()
        .iter()
        .map(|r| slot_cols.iter().map(|&c| r[c].clone()).collect())
        .collect();
    (compiled.preference, slots)
}

/// Winner ids of the abstract §3.2 selection via `maximal_naive`.
fn expected_ids(table: &Table, pref: &PrefExpr) -> Vec<i64> {
    let (preference, slots) = compiled_slots(table, pref);
    maximal_naive(&slots, &preference)
        .into_iter()
        .map(|i| table.rows()[i][0].as_int().expect("integer id"))
        .collect()
}

/// Run `query` natively with `opts` against a fresh catalog holding
/// `table`, returning the id column.
fn native_ids(table: &Table, query: &Query, opts: NativeOptions) -> Vec<i64> {
    let registry = PreferenceRegistry::new();
    let mut conn = PrefSqlConnection::new();
    conn.engine_mut()
        .catalog_mut()
        .create_table(table.clone())
        .expect("fresh catalog");
    let rs = prefsql::native::run_native_in(conn.engine(), &registry, query, opts, None)
        .expect("native evaluation succeeds");
    rs.column_as_ints(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// naive ≡ bnl ≡ auto ≡ the planned Preference operator, over
    /// random composition trees and random slot vectors.
    #[test]
    fn algorithms_and_planned_operator_agree(rows in arb_rows(), pref in arb_pref()) {
        let table = build_table(&rows);
        let expected = expected_ids(&table, &pref);
        let query = pref_query(pref);
        for algo in [
            SkylineAlgo::Naive,
            SkylineAlgo::Bnl,
            SkylineAlgo::Auto,
        ] {
            let ids = native_ids(&table, &query, NativeOptions::with_algo(algo));
            prop_assert_eq!(
                &ids,
                &expected,
                "algorithm {:?} disagrees with the abstract selection",
                algo
            );
        }
    }

    /// The four execution shapes — one tuple per pull, batched (1, 7, 1024)
    /// and parallel (1, 2, 8 threads) — all reproduce the abstract
    /// selection, in the same order (winners stream in input order).
    #[test]
    fn batched_parallel_and_streaming_agree(rows in arb_rows(), pref in arb_pref()) {
        let table = build_table(&rows);
        let expected = expected_ids(&table, &pref);
        let query = pref_query(pref.clone());
        for batch in [None, Some(1), Some(7), Some(1024)] {
            for threads in [1usize, 2, 8] {
                let opts = NativeOptions {
                    algo: SkylineAlgo::Auto,
                    threads,
                    batch,
                    ..NativeOptions::default()
                };
                let ids = native_ids(&table, &query, opts);
                prop_assert_eq!(
                    &ids,
                    &expected,
                    "batch={:?} threads={} disagrees with the abstract selection",
                    batch,
                    threads
                );
            }
        }
        // The cost model keeps tiny inputs serial; force the threaded
        // window directly on the compiled slot vectors so partitioning
        // and the merge-filter are genuinely exercised per tree.
        let (preference, slots) = compiled_slots(&table, &pref);
        let serial = maximal_naive(&slots, &preference);
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(
                maximal_parallel(&slots, &preference, threads),
                serial.clone(),
                "forced parallel window (threads={}) diverged",
                threads
            );
        }
    }

    /// Window-budget invariance: the external-memory window returns the
    /// abstract selection at every budget — unbounded (`None`), generous
    /// (everything fits, 0 spill passes), tight (one overflow run), and
    /// one-tuple-at-a-time tiny (many passes) — combined with the thread
    /// knob and the tuple-at-a-time drive loop.
    #[test]
    fn window_budgets_agree(rows in arb_rows(), pref in arb_pref()) {
        let table = build_table(&rows);
        let expected = expected_ids(&table, &pref);
        let query = pref_query(pref);
        // Raw budgets below the session-knob minimum are deliberate:
        // NativeOptions takes bytes verbatim, so 64 B forces a pass per
        // few tuples even on these 40-row tables.
        for window in [None, Some(1 << 20), Some(512), Some(64)] {
            for threads in [1usize, 2, 8] {
                let opts = NativeOptions {
                    algo: SkylineAlgo::Auto,
                    threads,
                    batch: Some(1024),
                    window_bytes: window,
                };
                let ids = native_ids(&table, &query, opts);
                prop_assert_eq!(
                    &ids,
                    &expected,
                    "window={:?} threads={} disagrees with the abstract selection",
                    window,
                    threads
                );
            }
        }
        // The spool/streaming split must not depend on the drive loop.
        let opts = NativeOptions {
            algo: SkylineAlgo::Auto,
            threads: 1,
            batch: None,
            window_bytes: Some(64),
        };
        prop_assert_eq!(&native_ids(&table, &query, opts), &expected);
    }
}

// ---------------------------------------------------------- golden sweep

/// Run `sql` in rewrite mode and in the native auto pipeline; assert
/// identical row multisets.
fn diff_rewrite_vs_pipeline(table: Table, sql: &str) {
    let mut results = Vec::new();
    for mode in [ExecutionMode::Rewrite, ExecutionMode::native()] {
        let mut conn = PrefSqlConnection::new();
        conn.engine_mut()
            .catalog_mut()
            .create_table(table.clone())
            .expect("fresh catalog");
        conn.set_mode(mode);
        let rs = conn
            .query(sql)
            .unwrap_or_else(|e| panic!("{mode:?} failed on {sql}: {e}"));
        let mut rows: Vec<String> = rs.rows().iter().map(|r| r.to_string()).collect();
        rows.sort();
        results.push((mode, rows));
    }
    assert_eq!(
        results[0].1, results[1].1,
        "rewrite vs pipeline mismatch on: {sql}"
    );
}

#[test]
fn golden_rewrite_vs_pipeline_demo_queries() {
    for (table, sql) in demo_queries() {
        diff_rewrite_vs_pipeline(table, &sql);
    }
}

// ------------------------------------------- thread-count invariance

/// Evaluate `sql` natively with `threads ∈ {1, 2, 8, 64}` (64 exceeds
/// any plausible host width); every rendering must be byte-identical to
/// the single-threaded one.
fn native_thread_sweep(table: &Table, sql: &str) {
    let mut outputs: Vec<(usize, String)> = Vec::new();
    for threads in [1usize, 2, 8, 64] {
        let mut conn = PrefSqlConnection::new();
        conn.engine_mut()
            .catalog_mut()
            .create_table(table.clone())
            .expect("fresh catalog");
        conn.set_mode(ExecutionMode::native());
        conn.set_threads(threads);
        let rs = conn
            .query(sql)
            .unwrap_or_else(|e| panic!("threads={threads} failed on {sql}: {e}"));
        outputs.push((threads, rs.to_string()));
    }
    let base = outputs[0].1.clone();
    for (threads, out) in &outputs[1..] {
        assert_eq!(out, &base, "threads={threads} changed the result of: {sql}");
    }
}

#[test]
fn golden_thread_sweep_demo_queries() {
    for (table, sql) in demo_queries() {
        native_thread_sweep(&table, &sql);
    }
}

/// A fresh connection's thread knob comes from `PREFSQL_THREADS` (or
/// the host width) — CI pins that env var to 1 and to 8 and re-runs
/// this suite, so the env-selected degree flows through the *default*
/// path of a query large enough to engage the partitioned window, and
/// must match the explicitly-serial result.
#[test]
fn golden_default_threads_follow_env_on_large_query() {
    use prefsql::pref::PARALLEL_CUTOFF;
    use prefsql_workload::jobs;
    let n = PARALLEL_CUTOFF + 1_000;
    let table = jobs::table(n, 82);
    let soft: Vec<&str> = jobs::second_selection(0).iter().map(|&(_, s)| s).collect();
    let sql = format!("SELECT id FROM profiles PREFERRING {}", soft.join(" AND "));

    let mut serial = PrefSqlConnection::new();
    serial
        .engine_mut()
        .catalog_mut()
        .create_table(table.clone())
        .expect("fresh catalog");
    serial.set_mode(ExecutionMode::native());
    serial.set_threads(1);
    let expected = serial.query(&sql).expect("serial run").to_string();

    let mut env_driven = PrefSqlConnection::new(); // knob left at the env default
    env_driven
        .engine_mut()
        .catalog_mut()
        .create_table(table)
        .expect("fresh catalog");
    env_driven.set_mode(ExecutionMode::native());
    let got = env_driven.query(&sql).expect("env-default run").to_string();
    assert_eq!(
        got,
        expected,
        "default threads knob ({}) changed the result",
        env_driven.threads()
    );
}

#[test]
fn golden_thread_sweep_engages_parallel_window() {
    use prefsql::pref::{choose_degree, PARALLEL_CUTOFF};
    use prefsql_workload::jobs;
    // Unfiltered profiles above the cutoff, so threads >= 2 genuinely
    // run the partitioned window, not the serial fallback.
    let n = PARALLEL_CUTOFF + 1_000;
    assert!(choose_degree(n, 2) > 1, "cost model must engage here");
    let soft: Vec<&str> = jobs::second_selection(0).iter().map(|&(_, s)| s).collect();
    let sql = format!("SELECT id FROM profiles PREFERRING {}", soft.join(" AND "));
    native_thread_sweep(&jobs::table(n, 80), &sql);
}

// ------------------------------------------- window-budget invariance

/// Evaluate `sql` natively with the external-memory window unbounded,
/// at 64 KiB, and at the 4 KiB minimum; every rendering must be
/// byte-identical to the unbounded one. The demo-query fixtures cover
/// spilling under `BUT ONLY` (the spool pass) and the GROUPING
/// fallback, not just plain skylines.
fn native_window_sweep(table: &Table, sql: &str) {
    let mut outputs: Vec<(Option<usize>, String)> = Vec::new();
    for window in [None, Some(64 << 10), Some(4 << 10)] {
        let mut conn = PrefSqlConnection::new();
        conn.engine_mut()
            .catalog_mut()
            .create_table(table.clone())
            .expect("fresh catalog");
        conn.set_mode(ExecutionMode::native());
        conn.set_window_bytes(window);
        let rs = conn
            .query(sql)
            .unwrap_or_else(|e| panic!("window={window:?} failed on {sql}: {e}"));
        outputs.push((window, rs.to_string()));
    }
    let base = outputs[0].1.clone();
    for (window, out) in &outputs[1..] {
        assert_eq!(out, &base, "window={window:?} changed the result of: {sql}");
    }
}

#[test]
fn golden_window_sweep_demo_queries() {
    for (table, sql) in demo_queries() {
        native_window_sweep(&table, &sql);
    }
}

/// The acceptance run for the external-memory subsystem: a 64 k-row
/// workload query under a window budget orders of magnitude below the
/// candidate-set size (64 k extended rows are several MiB; the budget
/// is 4 KiB, far under a tenth of that). The metrics must prove the
/// multi-pass loop ran — at least one overflow run, at least two passes
/// — and the spill directory must be gone after the query returns.
#[test]
fn golden_external_window_64k_multipass_and_cleanup() {
    use prefsql_workload::jobs;
    let table = jobs::table(64_000, 83);
    let soft: Vec<&str> = jobs::second_selection(0).iter().map(|&(_, s)| s).collect();
    let sql = format!("SELECT id FROM profiles PREFERRING {}", soft.join(" AND "));

    let mut unbounded = PrefSqlConnection::new();
    unbounded
        .engine_mut()
        .catalog_mut()
        .create_table(table.clone())
        .expect("fresh catalog");
    unbounded.set_mode(ExecutionMode::native());
    unbounded.set_window_bytes(None);
    let expected = unbounded.query(&sql).expect("unbounded run").to_string();

    let mut bounded = PrefSqlConnection::new();
    bounded
        .engine_mut()
        .catalog_mut()
        .create_table(table)
        .expect("fresh catalog");
    bounded.set_mode(ExecutionMode::native());
    bounded.set_window_bytes(Some(4096));
    let rs = bounded.query(&sql).expect("bounded run");
    assert_eq!(rs.to_string(), expected, "window budget changed the result");

    let m = rs.spill_metrics().expect("bounded run reports metrics");
    assert!(m.runs_written >= 1, "{m:?}");
    assert!(m.passes >= 2, "{m:?}");
    assert!(
        m.bytes_spilled > 10 * 4096,
        "the overflow must dwarf the window: {m:?}"
    );
    let dir = m
        .spill_dir
        .as_ref()
        .expect("spilling records its directory");
    assert!(
        !dir.exists(),
        "all temp files must be removed after the query: {dir:?}"
    );
}

// -------------------------------------------------- plan/EXPLAIN parity

/// EXPLAIN must render the plan the executor runs, in both modes.
#[test]
fn explain_reflects_executed_plan_in_both_modes() {
    let mut conn = PrefSqlConnection::new();
    conn.execute("CREATE TABLE t (x INTEGER, y INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t VALUES (1, 9), (2, 8), (3, 7)")
        .unwrap();

    // Rewrite mode: the host plan tree shows the scan + dominance filter.
    let out = conn
        .execute("EXPLAIN SELECT x FROM t WHERE y > 0 PREFERRING LOWEST(x)")
        .unwrap();
    let text = match out {
        prefsql::QueryResult::Explain(text) => text,
        other => panic!("expected explain, got {other:?}"),
    };
    assert!(text.contains("Preference SQL rewrite:"), "{text}");
    assert!(text.contains("Host engine plan:"), "{text}");
    assert!(text.contains("Seq scan"), "{text}");
    assert!(text.contains("Filter:"), "{text}");

    // Native mode: the Preference operator sits on the same planned source.
    conn.set_mode(ExecutionMode::native());
    let out = conn
        .execute("EXPLAIN SELECT x FROM t WHERE y > 0 PREFERRING LOWEST(x)")
        .unwrap();
    let text = match out {
        prefsql::QueryResult::Explain(text) => text,
        other => panic!("expected explain, got {other:?}"),
    };
    assert!(text.contains("Native preference plan:"), "{text}");
    assert!(text.contains("Preference (BMO, algo=auto"), "{text}");
    assert!(text.contains("Seq scan"), "{text}");
    assert!(text.contains("Filter:"), "{text}");
}

/// The non-panicking result accessors report rows exactly for SELECTs.
#[test]
fn non_panicking_row_accessors() {
    let mut conn = PrefSqlConnection::new();
    let ddl = conn.execute("CREATE TABLE t (x INTEGER)").unwrap();
    assert!(ddl.rows().is_none());
    assert!(ddl.into_rows().is_none());
    conn.execute("INSERT INTO t VALUES (1)").unwrap();
    let sel = conn.execute("SELECT x FROM t").unwrap();
    assert_eq!(sel.rows().map(|rs| rs.len()), Some(1));
    assert!(sel.into_rows().is_some());
}

// -------------------------------------------------------- switch points

/// `auto ≡ naive` on either side of every size a selection rule switches
/// on, or used to: 64 (the retired nested-loop cutoff) and
/// `PARALLEL_CUTOFF`, at the thread knobs that engage the partitioned
/// window above it — for each bks01 distribution under a Pareto
/// preference and for a CASCADE tree with ties in its first level.
#[test]
fn auto_agrees_with_the_abstract_selection_around_every_switch_point() {
    use prefsql::pref::{choose_degree, maximal_with_threads, BasePref, PrefNode, PARALLEL_CUTOFF};
    use prefsql_workload::bks01::{points, Distribution};
    let lowest =
        |root: PrefNode, d: usize| Preference::new(root, vec![BasePref::Lowest; d]).unwrap();
    let bases = |d: usize| {
        (0..d)
            .map(|slot| PrefNode::Base { slot })
            .collect::<Vec<_>>()
    };
    assert!(choose_degree(PARALLEL_CUTOFF, 2) > 1 && choose_degree(PARALLEL_CUTOFF - 1, 8) == 1);
    for n in [63, 64, 65, PARALLEL_CUTOFF - 1, PARALLEL_CUTOFF + 1] {
        for dist in Distribution::ALL {
            // The oracle is quadratic in the skyline: at the large sizes
            // two dimensions keep the anti-correlated one small.
            let d = if n > 1_000 && dist == Distribution::AntiCorrelated {
                2
            } else {
                3
            };
            let floats: Vec<Vec<Value>> = points(n, d, dist, 11)
                .into_iter()
                .map(|p| p.into_iter().map(Value::Float).collect())
                .collect();
            // d0 in eight buckets CASCADE the remaining dimensions.
            let bucketed: Vec<Vec<Value>> = floats
                .iter()
                .map(|row| {
                    let mut row = row.clone();
                    row[0] = Value::Int((row[0].as_f64().unwrap() * 8.0) as i64);
                    row
                })
                .collect();
            let rest = match d {
                2 => PrefNode::Base { slot: 1 },
                _ => PrefNode::Pareto(bases(d).split_off(1)),
            };
            let cascade = PrefNode::Prioritized(vec![PrefNode::Base { slot: 0 }, rest]);
            for (slots, pref) in [
                (&floats, lowest(PrefNode::Pareto(bases(d)), d)),
                (&bucketed, lowest(cascade, d)),
            ] {
                let expected = maximal_naive(slots, &pref);
                for threads in [1, 2, 8] {
                    assert_eq!(
                        maximal_with_threads(slots, &pref, SkylineAlgo::Auto, threads),
                        expected,
                        "n={n} {dist:?} threads={threads}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- tally

/// The dominance-test tally is the paper's cost unit and the exact
/// counter every benchmark comparison leans on. One seeded input (bks01
/// independent, d = 4, 2 000 rows), every algorithm, the exact counts
/// recorded at the commit before the skyline loops moved to per-call
/// tallies: a fold that drops or double-counts a worker shows here. A
/// window probe still counts as the directed tests it stands for — one
/// when the window entry wins, two otherwise.
#[test]
fn dominance_tally_is_pinned_for_every_algorithm() {
    use prefsql::pref::{maximal_bnl, maximal_external, BasePref, PrefNode};
    use prefsql_workload::bks01::{points, Distribution};
    let pref = Preference::new(
        PrefNode::Pareto((0..4).map(|slot| PrefNode::Base { slot }).collect()),
        vec![BasePref::Lowest; 4],
    )
    .unwrap();
    let slots: Vec<Vec<Value>> = points(2_000, 4, Distribution::Independent, 7)
        .into_iter()
        .map(|p| p.into_iter().map(Value::Float).collect())
        .collect();

    let naive = maximal_naive(&slots, &pref);
    assert_eq!(naive.len(), 107);
    assert_eq!(pref.take_comparisons(), 426_037, "naive");
    assert_eq!(maximal_bnl(&slots, &pref), naive);
    assert_eq!(pref.take_comparisons(), 48_826, "bnl");
    assert_eq!(maximal_parallel(&slots, &pref, 2), naive);
    assert_eq!(pref.take_comparisons(), 63_276, "parallel(2)");
    let (external, metrics) = maximal_external(&slots, &pref, 4096).unwrap();
    assert_eq!(external, naive);
    assert_eq!(metrics.passes, 2);
    assert_eq!(pref.take_comparisons(), 48_826, "external");
}

/// `EXPLICIT` used to rebuild its transitive closure inside every
/// dominance test. A 6-node graph Pareto-composed with `LOWEST` over
/// 2 000 rows (two colours outside the graph): the closure is built once
/// with the preference, the winners agree with the nested loop, and the
/// number of tests is what it was when each one paid for a closure.
#[test]
fn explicit_preference_over_2000_rows_tests_exactly_as_before() {
    use prefsql::pref::{maximal, BasePref, PrefNode};
    let e = |a: &str, b: &str| (Value::str(a), Value::str(b));
    let pref = Preference::new(
        PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
        vec![
            BasePref::Explicit {
                edges: vec![
                    e("red", "blue"),
                    e("red", "green"),
                    e("blue", "grey"),
                    e("green", "grey"),
                    e("grey", "brown"),
                    e("white", "brown"),
                ],
            },
            BasePref::Lowest,
        ],
    )
    .unwrap();
    let colors = [
        "red", "blue", "green", "grey", "brown", "white", "pink", "teal",
    ];
    // A small LCG keeps the input independent of any RNG crate.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let slots: Vec<Vec<Value>> = (0..2_000)
        .map(|_| {
            vec![
                Value::str(colors[next(colors.len() as u64) as usize]),
                Value::Int(next(500) as i64),
            ]
        })
        .collect();

    let auto = maximal(&slots, &pref, SkylineAlgo::Auto);
    assert_eq!(auto.len(), 6);
    assert_eq!(pref.take_comparisons(), 8_759, "auto (BNL)");
    assert_eq!(maximal_naive(&slots, &pref), auto);
    assert_eq!(pref.take_comparisons(), 59_431, "naive");
}
