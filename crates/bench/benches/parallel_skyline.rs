//! **P2** — batched execution + the parallel skyline window.
//!
//! Two ablations over the jobs and cars workloads:
//!
//! * `batched_scan_filter` vs `tuple_scan_filter` (8 k / 64 k rows) —
//!   the same planned scan → filter → project pipeline driven through
//!   `Operator::next_batch` asking for 1024 rows per pull and for one
//!   row per pull (what batching buys over a tuple-at-a-time drive);
//! * `skyline_threads/{workload}_{n}/{t}` — the full native preference
//!   query at `\threads ∈ {1, 2, 4}` over `n = PARALLEL_CUTOFF` rows, all
//!   of them candidates, so the auto mode runs the threaded window at
//!   every `t > 1`: it partitions the BNL window across `t` scoped
//!   threads and merge-filters the union. The 1-thread row is the serial
//!   window over the same candidates.
//!
//! Numbers are recorded in the README's parallel-skyline section, with
//! the host's CPU count: the thread rows measure real OS threads, so a
//! degree above the CPU count buys a merge-filter and no concurrency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prefsql::parser::ast::Statement;
use prefsql::{ExecutionMode, PrefSqlConnection};
use prefsql_bench::{conn_with, run};
use prefsql_engine::physical::{build, drain_batched, DEFAULT_BATCH};
use prefsql_pref::{choose_degree, PARALLEL_CUTOFF};
use prefsql_workload::{cars, jobs};

const SIZES: [usize; 2] = [8_000, 64_000];

fn jobs_pref_sql() -> String {
    let soft: Vec<&str> = jobs::second_selection(0).iter().map(|&(_, s)| s).collect();
    // No pre-selection: the whole table is the candidate set.
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

/// The Opel query's preference over the whole `car` table: its
/// `make = 'Opel'` pre-selection would leave a fraction of the rows as
/// candidates, below the cutoff.
fn cars_pref_sql() -> String {
    let (_, pref) = cars::OPEL_QUERY
        .split_once(" PREFERRING ")
        .expect("the Opel query has a PREFERRING clause");
    format!("SELECT * FROM car PREFERRING {pref}")
}

fn bench_skyline_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("p2_skyline_threads");
    group.sample_size(10);
    let n = PARALLEL_CUTOFF;
    let workloads: [(&str, &str, PrefSqlConnection, String); 2] = [
        (
            "jobs",
            "profiles",
            conn_with(jobs::table(n, 32)),
            jobs_pref_sql(),
        ),
        (
            "cars",
            "car",
            conn_with(cars::market(n, 33)),
            cars_pref_sql(),
        ),
    ];
    for (name, table, mut conn, sql) in workloads {
        // Both queries read the whole table: every row is a candidate.
        let candidates = conn.engine().catalog().row_count(table).expect("loaded");
        assert!(
            choose_degree(candidates, 2) > 1,
            "{candidates} candidates would run the serial window"
        );
        conn.set_mode(ExecutionMode::native());
        // A perfect match would answer before any window runs.
        assert!(
            run(&mut conn, &sql).dominance_tests() > 0,
            "{name}: the perfect-match pre-pass answered, no window ran"
        );
        for threads in [1usize, 2, 4] {
            conn.set_threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_{n}"), threads),
                &sql,
                |b, sql| b.iter(|| run(&mut conn, sql).len()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_batched_vs_tuple, bench_skyline_threads);
criterion_main!(benches);
