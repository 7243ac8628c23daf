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
//! One row runs a preference the cold way, on its own four-page pool:
//!
//! * `pref-cold` — `SELECT id, price FROM p WHERE make = 3 PREFERRING
//!   LOWEST(price) AND HIGHEST(power)` over `p`, eight INTEGER columns
//!   with no view and no index. A sixth of the rows pass the filter; the
//!   operator keeps each candidate as its row id and cells, the scan
//!   decodes only the three columns filter and slots read, and only the
//!   winners are fetched whole.
//!
//! Two more rows work a materialized preference view on its own
//! four-page pool:
//!
//! * `view-cold` — a native-mode skyline the view serves, over
//!   `w(id, a, b)` whose `rows / 1000` winners each sit on a different
//!   page. The view stores no rows, so the read fetches every winner
//!   from the heap by row id, and the pool has evicted each winner's
//!   page since the previous read;
//! * `view-churn` — two UPDATEs by id: one moves a winner off the
//!   frontier, the next moves it back. The first is the costly
//!   maintenance step — a lost winner is tested against every row to
//!   find those it beat — and the second evicts the run-mate the first
//!   promoted.
//!
//! Recorded medians land in `BENCH_paged_scan.json`; the spread between
//! `paged-warm` and `mem` is the slotted-page decode overhead, the
//! spread between `paged-cold` and `paged-warm` is the pure I/O cost
//! the pool exists to amortize, and the DML rows against `paged-cold`
//! show what a write costs beyond finding its row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prefsql::types::{Column, DataType, Schema, Tuple, Value};
use prefsql::{ExecutionMode, QueryResult, Session};
use prefsql_engine::{BackendKind, EngineCore};
use prefsql_types::knobs::MIN_POOL_BYTES;
use std::sync::Arc;

const SIZES: [usize; 2] = [8_000, 64_000];
const QUERY: &str = "SELECT COUNT(*), SUM(v) FROM r";
const SKYLINE: &str = "SELECT id FROM w PREFERRING LOWEST(a) AND LOWEST(b)";
const PREF_COLD: &str =
    "SELECT id, price FROM p WHERE make = 3 PREFERRING LOWEST(price) AND HIGHEST(power)";
/// One `w` row in this many is a winner of [`SKYLINE`].
const WINNER_EVERY: usize = 1_000;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A session over a fresh core of the given storage configuration with
/// `r(id, v)` loaded: `rows` tuples of uniform noise.
fn session_with(kind: BackendKind, pool_bytes: usize, rows: usize) -> Session {
    let mut s = 42u64;
    let rows = (0..rows).map(|i| vec![i as i64, (lcg(&mut s) % 100_000) as i64]);
    session_over(kind, pool_bytes, "r", &["id", "v"], rows)
}

/// A session over a fresh core with one table `name` of INTEGER
/// `columns` (the first NOT NULL) loaded from `rows`.
fn session_over(
    kind: BackendKind,
    pool_bytes: usize,
    name: &str,
    columns: &[&str],
    rows: impl Iterator<Item = Vec<i64>>,
) -> Session {
    let core = Arc::new(EngineCore::with_storage(kind, pool_bytes));
    let columns = columns.iter().enumerate().map(|(i, c)| {
        let col = Column::new(*c, DataType::Int);
        if i == 0 {
            col.not_null()
        } else {
            col
        }
    });
    let schema = Schema::new(columns.collect()).expect("static schema");
    let mut t = core.make_table(name, schema).expect("table builds");
    t.insert_all(rows.map(|r| Tuple::new(r.into_iter().map(Value::Int).collect())))
        .expect("rows insert");
    let mut session = Session::with_core(Arc::clone(&core));
    session
        .engine_mut()
        .catalog_mut()
        .create_table(t)
        .expect("fresh catalog");
    session
}

/// A session on the four-page pool with `p` loaded: an id, a `make` of
/// six, and six columns of uniform noise.
fn pref_session(rows: usize) -> Session {
    let mut s = 7u64;
    let columns = [
        "id", "make", "price", "power", "mileage", "year", "doors", "seats",
    ];
    let rows = (0..rows).map(|i| {
        let mut row = vec![i as i64, (lcg(&mut s) % 6) as i64];
        row.extend((2..columns.len()).map(|_| (lcg(&mut s) % 100_000) as i64));
        row
    });
    let mut session = session_over(BackendKind::Paged, MIN_POOL_BYTES, "p", &columns, rows);
    session.set_mode(ExecutionMode::native());
    session
}

/// A session on the four-page pool with `w(id, a, b)` loaded and a
/// materialized view of [`SKYLINE`] over it. `b` falls as `a` rises:
/// the first row of every run of [`WINNER_EVERY`] lies on the frontier,
/// and the rest of its run lies one step of `b` behind it.
fn view_session(rows: usize) -> Session {
    let rows = (0..rows).map(|i| {
        let leader = i - i % WINNER_EVERY;
        let behind = i64::from(i != leader);
        vec![i as i64, i as i64, (rows - leader) as i64 + behind]
    });
    let mut session = session_over(
        BackendKind::Paged,
        MIN_POOL_BYTES,
        "w",
        &["id", "a", "b"],
        rows,
    );
    session
        .execute(
            "CREATE MATERIALIZED PREFERENCE VIEW best AS \
             SELECT * FROM w PREFERRING LOWEST(a) AND LOWEST(b)",
        )
        .expect("view builds");
    session.set_mode(ExecutionMode::native());
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
        let mut pref = pref_session(rows);
        let winners = pref.query(PREF_COLD).expect("cold preference").len();
        assert!(winners > 0, "the preference selects something");
        group.bench_with_input(BenchmarkId::new("pref-cold", fmt(rows)), &(), |b, _| {
            b.iter(|| assert_eq!(pref.query(PREF_COLD).expect("read").len(), winners))
        });
        drop(pref);
        let mut view = view_session(rows);
        let served = view.query(SKYLINE).expect("served read");
        assert_eq!(
            served.view_activity().and_then(|v| v.served_by.as_deref()),
            Some("best"),
            "the view serves the skyline"
        );
        let winners = rows.div_ceil(WINNER_EVERY);
        group.bench_with_input(BenchmarkId::new("view-cold", fmt(rows)), &(), |b, _| {
            b.iter(|| assert_eq!(view.query(SKYLINE).expect("read").len(), winners))
        });
        // A winner `(a, b)` moved to `(a + 2, b + 1)` is beaten by the next
        // row of its run, `(a + 1, b + 1)`, which takes its place.
        let mut leader = 0;
        group.bench_with_input(BenchmarkId::new("view-churn", fmt(rows)), &(), |b, _| {
            b.iter(|| {
                leader = (leader + WINNER_EVERY) % rows;
                for step in ["a = a + 2, b = b + 1", "a = a - 2, b = b - 1"] {
                    let sql = format!("UPDATE w SET {step} WHERE id = {leader}");
                    match view.execute(&sql).expect("update") {
                        QueryResult::Count(1) => {}
                        other => panic!("{sql} must affect one row: {other:?}"),
                    }
                }
            })
        });
        let served = view.query(SKYLINE).expect("served read");
        assert_eq!(served.len(), winners, "churn leaves the frontier as it was");
        assert_eq!(
            served.view_activity().and_then(|v| v.served_by.as_deref()),
            Some("best"),
            "maintenance kept the view live"
        );
    }
    group.finish();
}

fn fmt(rows: usize) -> String {
    format!("{}k", rows / 1_000)
}

criterion_group!(benches, bench_paged_scan);
criterion_main!(benches);
