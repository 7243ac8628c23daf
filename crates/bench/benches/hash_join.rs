//! **Join micro-bench** — the one join operator end to end through the
//! SQL layer: keyed (`hash`, the default plan) and keyless (`nlj`, the
//! nested loop `set_use_hash_join(false)` plans). Sizes follow
//! `PREFSQL_BENCH_ROWS` (`rows / 8` and `rows` fact rows); the tables in
//! CHANGES.md (PR 22) ran `PREFSQL_BENCH_ROWS=64000`, i.e. 8 k and 64 k.
//!
//! Two groups:
//!
//! * `hash_join` — fact ⋈ dim with the 256-row dim on the right (the
//!   side the operator builds on), matched (uniform) vs skewed (every
//!   dim key identical) keys, keyed vs keyless; and `dim_left/*`, the
//!   same tables with dim on the *left*, so the fact table is the build —
//!   `COUNT(*)` at both sizes and `SELECT dim.name, fact.id` at `rows`.
//!   The `dim_left` rows decided the build side (ROADMAP 5(a)): the
//!   retired estimate-chosen `build=left` path bucketed and concatenated
//!   the whole join output and lost to building on the larger right
//!   input.
//! * `hash_join_grace` — a 4096-row build (~130 KiB serialized) that
//!   overflows a 64 KiB window, measuring the partitioned spill path
//!   against the same join run unbounded, over `rows` fact rows.
//!
//! The `COUNT(*)` queries keep the measured cost in the join itself, not
//! in result rendering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prefsql::storage::Table;
use prefsql::types::{Column, DataType, Schema, Tuple, Value};
use prefsql::PrefSqlConnection;
use prefsql_bench::bench_rows;

const SQL: &str = "SELECT COUNT(*) FROM fact JOIN dim ON fact.k = dim.k";
const DIM_LEFT_COUNT: &str = "SELECT COUNT(*) FROM dim JOIN fact ON dim.k = fact.k";
const DIM_LEFT_SELECT: &str = "SELECT dim.name, fact.id FROM dim JOIN fact ON dim.k = fact.k";
const KEY_DOMAIN: i64 = 256;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// `fact(id, k, v)` — `rows` probe tuples with uniform keys.
fn fact_table(rows: usize, seed: u64) -> Table {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int).not_null(),
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .expect("static schema");
    let mut t = Table::new("fact", schema);
    let mut s = seed;
    for i in 0..rows {
        t.insert(Tuple::new(vec![
            Value::Int(i as i64),
            Value::Int((lcg(&mut s) % KEY_DOMAIN as u64) as i64),
            Value::Int((lcg(&mut s) % 1000) as i64),
        ]))
        .expect("row fits schema");
    }
    t
}

/// `dim(k, name)`. Matched: keys cycle over the whole domain. Skewed:
/// every key identical, so one hash partition carries the entire build
/// (the Grace group's worst case: repartitioning cannot split it, so the
/// pair is joined in window-sized chunks).
fn dim_table(rows: usize, skewed: bool) -> Table {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("name", DataType::Str),
    ])
    .expect("static schema");
    let mut t = Table::new("dim", schema);
    for i in 0..rows {
        let k = if skewed { 7 } else { i as i64 % KEY_DOMAIN };
        t.insert(Tuple::new(vec![
            Value::Int(k),
            Value::Str(format!("dim-{i:06}")),
        ]))
        .expect("row fits schema");
    }
    t
}

fn connect(fact_rows: usize, dim_rows: usize, skewed: bool) -> PrefSqlConnection {
    let mut conn = PrefSqlConnection::new();
    conn.engine_mut()
        .catalog_mut()
        .create_table(fact_table(fact_rows, 42))
        .expect("fresh catalog");
    conn.engine_mut()
        .catalog_mut()
        .create_table(dim_table(dim_rows, skewed))
        .expect("fresh catalog");
    conn
}

fn run(conn: &mut PrefSqlConnection, sql: &str) -> usize {
    conn.query(sql).expect("join query").len()
}

fn bench_keyed_vs_keyless(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_join");
    group.sample_size(10);
    let rows = bench_rows();
    for n in [rows / 8, rows] {
        group.throughput(Throughput::Elements(n as u64));
        for skewed in [false, true] {
            let keys = if skewed { "skewed" } else { "matched" };
            let label = format!("{keys}/{n}");

            let mut nlj = connect(n, 256, skewed);
            nlj.engine_mut().set_use_hash_join(false);
            nlj.set_window_bytes(None);
            group.bench_function(BenchmarkId::new("nlj", &label), |b| {
                b.iter(|| run(&mut nlj, SQL))
            });

            let mut hash = connect(n, 256, skewed);
            hash.set_window_bytes(None);
            group.bench_function(BenchmarkId::new("hash", &label), |b| {
                b.iter(|| run(&mut hash, SQL))
            });
        }

        let mut dim_left = connect(n, 256, false);
        dim_left.set_window_bytes(None);
        group.bench_function(BenchmarkId::new("dim_left/count", n), |b| {
            b.iter(|| run(&mut dim_left, DIM_LEFT_COUNT))
        });
        if n == rows {
            group.bench_function(BenchmarkId::new("dim_left/select", n), |b| {
                b.iter(|| run(&mut dim_left, DIM_LEFT_SELECT))
            });
        }
    }
    group.finish();
}

fn bench_grace_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_join_grace");
    group.sample_size(10);
    let n = bench_rows();
    group.throughput(Throughput::Elements(n as u64));
    for skewed in [false, true] {
        let keys = if skewed { "skewed" } else { "matched" };

        let mut unbounded = connect(n, 4096, skewed);
        unbounded.set_window_bytes(None);
        group.bench_function(BenchmarkId::new("unbounded", keys), |b| {
            b.iter(|| run(&mut unbounded, SQL))
        });

        let mut bounded = connect(n, 4096, skewed);
        bounded.set_window_bytes(Some(64 * 1024));
        group.bench_function(BenchmarkId::new("window-64k", keys), |b| {
            b.iter(|| run(&mut bounded, SQL))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_keyed_vs_keyless, bench_grace_window);
criterion_main!(benches);
