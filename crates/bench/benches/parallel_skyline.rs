//! **P2** — batched execution + the parallel skyline window.
//!
//! Two ablations over the jobs and cars workloads at 8k / 64k rows:
//!
//! * `batched_scan_filter` vs `tuple_scan_filter` — the same planned
//!   scan → filter → project pipeline driven through
//!   `Operator::next_batch` asking for 1024 rows per pull and for one
//!   row per pull (what batching buys over a tuple-at-a-time drive);
//! * `skyline_threads/{workload}_{n}/{t}` — the full native preference
//!   query at `\threads ∈ {1, 2, 4}`: above `PARALLEL_CUTOFF`
//!   candidates the auto mode partitions the BNL window across `t`
//!   scoped threads and merge-filters the union.
//!
//! Numbers are recorded in the README's pipeline section. Note the
//! thread ablation measures real OS threads: on a single-core host the
//! 2/4-thread rows cost a merge-filter without buying concurrency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prefsql::parser::ast::Statement;
use prefsql::{ExecutionMode, PrefSqlConnection};
use prefsql_bench::{conn_with, run};
use prefsql_engine::physical::{build, drain_batched, DEFAULT_BATCH};
use prefsql_workload::{cars, jobs};

const SIZES: [usize; 2] = [8_000, 64_000];

fn jobs_pref_sql() -> String {
    let soft: Vec<&str> = jobs::second_selection(0).iter().map(|&(_, s)| s).collect();
    // No pre-selection: the whole table is the candidate set, so the
    // cost model engages the parallel window at every benched size.
    format!("SELECT id FROM profiles PREFERRING {}", soft.join(" AND "))
}

fn bench_batched_vs_tuple(c: &mut Criterion) {
    let mut group = c.benchmark_group("p2_batched_vs_tuple");
    group.sample_size(10);
    for n in SIZES {
        let conn = conn_with(jobs::table(n, 31));
        let engine = conn.engine();
        let query = match prefsql::parser::parse_statement(
            "SELECT id, salary FROM profiles WHERE salary > 55000",
        )
        .expect("static SQL")
        {
            Statement::Select(q) => *q,
            other => panic!("expected SELECT, got {other:?}"),
        };
        let ctx = engine.read_ctx().expect("healthy core");
        let plan = ctx.plan_for(&query).expect("plannable query");

        group.bench_with_input(BenchmarkId::new("tuple_scan_filter", n), &n, |b, _| {
            b.iter(|| {
                let mut op = build(&ctx, plan.root(), &[]);
                drain_batched(op.as_mut(), 1).expect("clean drive").len()
            })
        });
        group.bench_with_input(BenchmarkId::new("batched_scan_filter", n), &n, |b, _| {
            b.iter(|| {
                let mut op = build(&ctx, plan.root(), &[]);
                drain_batched(op.as_mut(), DEFAULT_BATCH)
                    .expect("clean drive")
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_skyline_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("p2_skyline_threads");
    group.sample_size(10);
    for n in SIZES {
        let workloads: [(&str, PrefSqlConnection, String); 2] = [
            ("jobs", conn_with(jobs::table(n, 32)), jobs_pref_sql()),
            (
                "cars",
                conn_with(cars::market(n, 33)),
                cars::OPEL_QUERY.to_string(),
            ),
        ];
        for (name, mut conn, sql) in workloads {
            conn.set_mode(ExecutionMode::native());
            for threads in [1usize, 2, 4] {
                conn.set_threads(threads);
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}_{n}"), threads),
                    &sql,
                    |b, sql| b.iter(|| run(&mut conn, sql).len()),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_batched_vs_tuple, bench_skyline_threads);
criterion_main!(benches);
