//! **P1** — the physical operator pipeline on the jobs workload, at
//! `PREFSQL_BENCH_ROWS` rows and a quarter of that (CI runs it reduced):
//!
//! * `streamed_scan_filter_limit` — streaming scan → filter → sort →
//!   limit (the limit stops pulling, so the projection never touches
//!   dropped rows);
//! * `rewrite_not_exists` — the paper's §3.2 rewrite: its `NOT EXISTS`
//!   runs as one anti join — the auxiliary relation materialized once,
//!   built once, and every outer row probed match-first through the
//!   dominance predicate;
//! * `native_preference_op` — the same preference query through the
//!   `PreferenceOp` physical operator (`SkylineAlgo::Auto`).
//!
//! The last two are the pair ROADMAP item 2 reads: the paper's own path
//! against native BMO over the same rows.
//!
//! Two ORDER BY … LIMIT shapes at fixed sizes follow, as `p1_order_limit`:
//!
//! * `ordered_probe_limit` — a B-tree range probe on `products` (5 000
//!   rows) whose key order serves `ORDER BY price`: no Sort, and the
//!   LIMIT stops the probe after ten rows;
//! * `top_k_sort` — `ORDER BY price LIMIT 10` over `cars::market(64 000)`
//!   with no index: the Sort keeps ten rows, copying only those that rank
//!   among the best ten seen.
//!
//! `streamed_scan_filter_limit` above takes the second path too (`ORDER
//! BY salary DESC` has no ordered probe).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prefsql::{ExecutionMode, SkylineAlgo};
use prefsql_bench::{bench_rows, conn_with, run};
use prefsql_workload::{cars, jobs, products};

fn preference_sql() -> String {
    let soft: Vec<&str> = jobs::second_selection(0).iter().map(|&(_, s)| s).collect();
    format!(
        "SELECT id FROM profiles WHERE region = 3 PREFERRING {}",
        soft.join(" AND ")
    )
}

fn bench_streaming_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("p1_plan_pipeline");
    group.sample_size(10);

    let rows = bench_rows();
    for n in [rows / 4, rows] {
        let table = jobs::table(n, 21);

        // Streaming scan → filter → sort → limit.
        let mut conn = conn_with(table.clone());
        group.bench_with_input(
            BenchmarkId::new("streamed_scan_filter_limit", n),
            &n,
            |b, _| {
                b.iter(|| {
                    run(
                        &mut conn,
                        "SELECT id, salary FROM profiles WHERE salary > 55000 \
                         ORDER BY salary DESC LIMIT 25",
                    )
                    .len()
                })
            },
        );

        // The rewritten dominance anti-join (one probe per outer row).
        let sql = preference_sql();
        let mut conn = conn_with(table.clone());
        conn.set_mode(ExecutionMode::Rewrite);
        group.bench_with_input(BenchmarkId::new("rewrite_not_exists", n), &sql, |b, sql| {
            b.iter(|| run(&mut conn, sql).len())
        });

        // The native Preference operator.
        let mut conn = conn_with(table);
        conn.set_mode(ExecutionMode::Native(SkylineAlgo::Auto));
        group.bench_with_input(
            BenchmarkId::new("native_preference_op", n),
            &sql,
            |b, sql| b.iter(|| run(&mut conn, sql).len()),
        );
    }
    group.finish();
}

fn bench_order_limit(c: &mut Criterion) {
    let mut group = c.benchmark_group("p1_order_limit");
    group.sample_size(10);

    let mut conn = conn_with(products::table(5_000, 21));
    conn.execute("CREATE INDEX idx_price ON products (price)")
        .expect("index on price");
    group.bench_function("ordered_probe_limit", |b| {
        b.iter(|| {
            run(
                &mut conn,
                "SELECT id, price FROM products WHERE price BETWEEN 1500 AND 1700 \
                 ORDER BY price LIMIT 10",
            )
            .len()
        })
    });

    let mut conn = conn_with(cars::market(64_000, 21));
    group.bench_function("top_k_sort", |b| {
        b.iter(|| run(&mut conn, "SELECT id FROM car ORDER BY price LIMIT 10").len())
    });
    group.finish();
}

criterion_group!(benches, bench_streaming_stages, bench_order_limit);
criterion_main!(benches);
