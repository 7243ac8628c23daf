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
//!
//! `p1_residual` times the rewrite's dominance residual alone, at fixed
//! size: the anti join's residual of the four-way Pareto rewrite over
//! `jobs::table(2 000, 21)`'s region-3 rows, taken from the planned
//! statement and evaluated over every (build row, left row) pair of its
//! two inputs — once as the compiled program the join runs
//! (`compiled`), once through `eval::holds`, the tree walk (`tree_walk`).
//! Its throughput is residual tests per second: 10^9 over it is the ns
//! per test ROADMAP item 2 quotes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prefsql::engine::eval::{holds, Env};
use prefsql::engine::physical;
use prefsql::engine::plan::{JoinKind, PlanNode};
use prefsql::engine::program::Regs;
use prefsql::parser::{ast::Statement, parse_statement};
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

/// The anti join of `node`'s plan, if it has one.
fn anti_join(node: &PlanNode) -> Option<&PlanNode> {
    match node {
        PlanNode::Join {
            kind: JoinKind::Anti,
            ..
        } => Some(node),
        PlanNode::Join { left, right, .. } => anti_join(left).or_else(|| anti_join(right)),
        other => other.input().and_then(anti_join),
    }
}

fn bench_residual(c: &mut Criterion) {
    let mut group = c.benchmark_group("p1_residual");
    group.sample_size(20);

    let mut conn = conn_with(jobs::table(2_000, 21));
    let sql = conn
        .rewritten_sql(&preference_sql())
        .expect("rewrite")
        .expect("a preference query is rewritten");
    let Ok(Statement::Select(query)) = parse_statement(&sql) else {
        panic!("the rewrite is one SELECT: {sql}");
    };
    let engine = conn.engine();
    let plan = engine.plan_for(&query).expect("plan");
    let Some(PlanNode::Join {
        left,
        right,
        residual: Some(residual),
        ..
    }) = anti_join(plan.root())
    else {
        panic!("the rewrite plans one anti join with a residual");
    };
    let ctx = engine.read_ctx().expect("context");
    let lefts = physical::execute(&ctx, left, &[]).expect("left").rows;
    let builds = physical::execute(&ctx, right, &[]).expect("right").rows;
    let pairs = (lefts.len() * builds.len()) as u64;
    group.throughput(Throughput::Elements(pairs));

    // Each variant counts the pairs it accepts; both must agree.
    let mut regs = Regs::default();
    let mut compiled = || {
        let mut accepted = 0u64;
        for l in &lefts {
            let outer = [l];
            for b in &builds {
                let env = Env::new(b, &outer);
                accepted += u64::from(residual.prog.holds(env, &ctx, &mut regs).unwrap());
            }
        }
        accepted
    };
    let tree_walk = || {
        let mut accepted = 0u64;
        for l in &lefts {
            let outer = [l];
            for b in &builds {
                let env = Env::new(b, &outer);
                accepted += u64::from(holds(&residual.expr, env, &ctx).unwrap());
            }
        }
        accepted
    };
    assert_eq!(
        compiled(),
        tree_walk(),
        "the program and the tree walk agree"
    );
    group.bench_function(BenchmarkId::new("compiled", pairs), |b| {
        b.iter(|| black_box(compiled()))
    });
    group.bench_function(BenchmarkId::new("tree_walk", pairs), |b| {
        b.iter(|| black_box(tree_walk()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_streaming_stages,
    bench_order_limit,
    bench_residual
);
criterion_main!(benches);
