//! **A1** — rewrite vs. native skyline operators (§3.3 outlook:
//! "implementing a generalized skyline operator in the kernel of an
//! SQL-system clearly holds much promise for additional speed-ups").
//!
//! Sweeps candidate-set size and data distribution ([BKS01] model) over
//! three evaluation strategies: the paper's NOT EXISTS rewrite on the host
//! engine, and the native operator run as the naive nested loop and as
//! the serial window.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prefsql::{ExecutionMode, PrefSqlConnection, SkylineAlgo};
use prefsql_bench::{conn_with, run};
use prefsql_workload::bks01::{self, Distribution};

fn modes() -> [(&'static str, ExecutionMode); 3] {
    [
        ("rewrite_not_exists", ExecutionMode::Rewrite),
        ("native_naive", ExecutionMode::Native(SkylineAlgo::Naive)),
        ("native_bnl", ExecutionMode::Native(SkylineAlgo::Bnl)),
    ]
}

fn bench_size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_size_sweep_d3_independent");
    group.sample_size(10);
    let sql = bks01::skyline_query(3);
    for n in [250usize, 500, 1000] {
        let table = bks01::table(n, 3, Distribution::Independent, 5);
        for (label, mode) in modes() {
            let mut conn: PrefSqlConnection = conn_with(table.clone());
            conn.set_mode(mode);
            group.bench_with_input(BenchmarkId::new(label, n), &sql, |b, sql| {
                b.iter(|| run(&mut conn, sql).len())
            });
        }
    }
    group.finish();
}

fn bench_distribution_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_distribution_sweep_n500_d3");
    group.sample_size(10);
    let sql = bks01::skyline_query(3);
    for dist in Distribution::ALL {
        let table = bks01::table(500, 3, dist, 6);
        for (label, mode) in modes() {
            let mut conn: PrefSqlConnection = conn_with(table.clone());
            conn.set_mode(mode);
            group.bench_with_input(BenchmarkId::new(label, dist.label()), &sql, |b, sql| {
                b.iter(|| run(&mut conn, sql).len())
            });
        }
    }
    group.finish();
}

fn bench_dimension_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_dimension_sweep_n400_independent");
    group.sample_size(10);
    for d in [2usize, 3, 5] {
        let sql = bks01::skyline_query(d);
        let table = bks01::table(400, d, Distribution::Independent, 7);
        for (label, mode) in modes() {
            let mut conn: PrefSqlConnection = conn_with(table.clone());
            conn.set_mode(mode);
            group.bench_with_input(BenchmarkId::new(label, d), &sql, |b, sql| {
                b.iter(|| run(&mut conn, sql).len())
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_size_sweep,
    bench_distribution_sweep,
    bench_dimension_sweep
);
criterion_main!(benches);
