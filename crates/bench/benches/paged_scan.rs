//! **Paged-storage scan cost** — the heap-file backend against the
//! in-memory default, and the price of a buffer pool that does not fit
//! the table.
//!
//! One aggregate full scan (`SELECT COUNT(*), SUM(v) FROM r`) over
//! 8 k and 64 k rows, three storage configurations:
//!
//! * `mem` — the default in-memory table (baseline);
//! * `paged-warm` — heap pages behind a pool comfortably larger than
//!   the table, pre-touched, so every pin is a hit;
//! * `paged-cold` — the same pages behind the four-page minimum pool,
//!   so every scan runs at ~100% miss/eviction rate and each page comes
//!   back off the file.
//!
//! Three point-lookup rows ride on the cold configuration, each finding
//! its row without an index on `id`. Ids were inserted ascending, so the
//! page synopses let each scan skip every page but the one holding `k`:
//!
//! * `select-cold` — `SELECT v FROM r WHERE id = k`;
//! * `update-cold` — `UPDATE r SET v = … WHERE id = k`: the target scan
//!   decodes only the `id` column of that page, then one slot is
//!   rewritten in place;
//! * `delete-cold` — `DELETE FROM r WHERE id = k`: the same scan, then
//!   one slot tombstoned (the file is rewritten only once tombstones
//!   outnumber live rows, which these few deletes never reach).
//!
//! Recorded medians land in `BENCH_paged_scan.json`; the spread between
//! `paged-warm` and `mem` is the slotted-page decode overhead, the
//! spread between `paged-cold` and `paged-warm` is the pure I/O cost
//! the pool exists to amortize, and the DML rows against `paged-cold`
//! show what a write costs beyond finding its row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prefsql::types::{Column, DataType, Schema, Tuple, Value};
use prefsql::{QueryResult, Session};
use prefsql_engine::{BackendKind, EngineCore};
use prefsql_types::knobs::MIN_POOL_BYTES;
use std::sync::Arc;

const SIZES: [usize; 2] = [8_000, 64_000];
const QUERY: &str = "SELECT COUNT(*), SUM(v) FROM r";

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A session over a fresh core of the given storage configuration with
/// `r(id, v)` loaded: `rows` tuples of uniform noise.
fn session_with(kind: BackendKind, pool_bytes: usize, rows: usize) -> Session {
    let core = Arc::new(EngineCore::with_storage(kind, pool_bytes));
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int).not_null(),
        Column::new("v", DataType::Int),
    ])
    .expect("static schema");
    let mut t = core.make_table("r", schema).expect("table builds");
    let mut s = 42u64;
    t.insert_all((0..rows).map(|i| {
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Int((lcg(&mut s) % 100_000) as i64),
        ])
    }))
    .expect("rows insert");
    let mut session = Session::with_core(Arc::clone(&core));
    session
        .engine_mut()
        .catalog_mut()
        .create_table(t)
        .expect("fresh catalog");
    session
}

fn bench_paged_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("paged_scan");
    group.sample_size(20);
    for rows in SIZES {
        group.throughput(Throughput::Elements(rows as u64));
        // Baseline: the default in-memory backend.
        let mut mem = session_with(BackendKind::Mem, MIN_POOL_BYTES, rows);
        group.bench_with_input(BenchmarkId::new("mem", fmt(rows)), &(), |b, _| {
            b.iter(|| mem.query(QUERY).expect("scan").len())
        });
        // Warm pool: 8 MiB holds the whole table; one priming scan makes
        // every timed pin a hit.
        let mut warm = session_with(BackendKind::Paged, 8 << 20, rows);
        warm.query(QUERY).expect("priming scan");
        group.bench_with_input(BenchmarkId::new("paged-warm", fmt(rows)), &(), |b, _| {
            b.iter(|| warm.query(QUERY).expect("scan").len())
        });
        // Cold pool: the four-page minimum evicts continuously — every
        // timed scan re-reads the heap file page by page.
        let mut cold = session_with(BackendKind::Paged, MIN_POOL_BYTES, rows);
        group.bench_with_input(BenchmarkId::new("paged-cold", fmt(rows)), &(), |b, _| {
            b.iter(|| cold.query(QUERY).expect("scan").len())
        });
        // Point lookups and single-row DML on the same cold table. Ids
        // step by a prime so successive statements land on scattered
        // pages, and no id is deleted twice.
        let mut k = 0;
        let mut next_id = || {
            k += 1;
            k * 7_919 % rows
        };
        group.bench_with_input(BenchmarkId::new("select-cold", fmt(rows)), &(), |b, _| {
            b.iter(|| {
                let sql = format!("SELECT v FROM r WHERE id = {}", next_id());
                assert_eq!(cold.query(&sql).expect("lookup").len(), 1, "{sql}");
            })
        });
        let mut affect_one = |sql: String| match cold.execute(&sql).expect("dml") {
            QueryResult::Count(1) => {}
            other => panic!("{sql} must affect one row: {other:?}"),
        };
        group.bench_with_input(BenchmarkId::new("update-cold", fmt(rows)), &(), |b, _| {
            b.iter(|| {
                let id = next_id();
                affect_one(format!("UPDATE r SET v = {id} WHERE id = {id}"))
            })
        });
        group.bench_with_input(BenchmarkId::new("delete-cold", fmt(rows)), &(), |b, _| {
            b.iter(|| affect_one(format!("DELETE FROM r WHERE id = {}", next_id())))
        });
    }
    group.finish();
}

fn fmt(rows: usize) -> String {
    format!("{}k", rows / 1_000)
}

criterion_group!(benches, bench_paged_scan);
criterion_main!(benches);
