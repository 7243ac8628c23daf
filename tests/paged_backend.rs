//! Differential and regression coverage for the paged heap-file storage
//! backend — plus the estimation/clamping/refresh bugfix sweep that
//! shipped with it.
//!
//! The seam under test is [`StorageBackend`]: every query the golden
//! demo mix runs against the default in-memory tables must return
//! byte-identical renderings when the same data lives in slotted heap
//! pages behind the smallest legal buffer pool (four pages), where
//! every scan evicts. The paged backend earns its keep only if it is
//! *invisible* at the result surface.

mod common;

use common::demo_queries;
use prefsql::shell::Shell;
use prefsql::storage::{HeapFile, Table};
use prefsql::{ExecutionMode, QueryResult, Session};
use prefsql_engine::{BackendKind, EngineCore};
use prefsql_types::knobs::{DEFAULT_POOL_BYTES, MIN_POOL_BYTES};
use std::sync::Arc;
use std::thread;

/// A fresh paged core over the smallest legal pool (four pages), so
/// any table bigger than ~16 KiB scans through constant eviction.
fn paged_core() -> Arc<EngineCore> {
    Arc::new(EngineCore::with_storage(BackendKind::Paged, MIN_POOL_BYTES))
}

/// A fresh in-memory core, explicit so the suite stays deterministic
/// under the CI matrix leg that exports `PREFSQL_BACKEND=paged`.
fn mem_core() -> Arc<EngineCore> {
    Arc::new(EngineCore::with_storage(
        BackendKind::Mem,
        DEFAULT_POOL_BYTES,
    ))
}

/// Copy a mem-backed fixture table into `session`'s core on whatever
/// backend that core is configured for.
fn load(session: &mut Session, fixture: &Table) {
    let mut t = session
        .core()
        .make_table(fixture.name(), fixture.schema().clone())
        .expect("fixture table builds on the configured backend");
    t.insert_all(fixture.rows().iter().cloned())
        .expect("fixture rows insert");
    session
        .engine_mut()
        .catalog_mut()
        .create_table(t)
        .expect("fresh catalog");
}

/// Every demo query, in both execution modes, renders byte-identically
/// whether its table lives in memory or in heap pages behind a
/// four-page pool.
#[test]
fn demo_queries_are_byte_identical_across_backends() {
    for (fixture, sql) in demo_queries() {
        let mut mem = Session::with_core(mem_core());
        let mut paged = Session::with_core(paged_core());
        load(&mut mem, &fixture);
        load(&mut paged, &fixture);
        for mode in [ExecutionMode::Rewrite, ExecutionMode::native()] {
            mem.set_mode(mode);
            paged.set_mode(mode);
            let a = mem.query(&sql).expect("mem run");
            let b = paged.query(&sql).expect("paged run");
            assert_eq!(
                a.to_string(),
                b.to_string(),
                "backend changed the result of {sql:?} in {} mode",
                mode.label()
            );
            // The paged run actually went through the pool.
            assert!(
                b.pool_stats().is_some(),
                "paged results carry pool counters: {sql:?}"
            );
            assert!(a.pool_stats().is_none(), "mem results don't: {sql:?}");
        }
    }
}

/// DML parity: INSERT, UPDATE and DELETE through SQL behave identically
/// on both backends, including index-assisted reads afterwards.
#[test]
fn dml_round_trips_identically_on_both_backends() {
    let script = [
        "CREATE TABLE cars (id INTEGER, make VARCHAR, price INTEGER)",
        "INSERT INTO cars VALUES (1, 'audi', 30), (2, 'bmw', 45), (3, 'opel', 20), (4, 'vw', 25)",
        "CREATE INDEX by_make ON cars (make)",
        "UPDATE cars SET price = price + 5 WHERE make = 'opel'",
        "DELETE FROM cars WHERE id = 2",
        "INSERT INTO cars VALUES (5, 'seat', 18)",
    ];
    let probes = [
        "SELECT id, make, price FROM cars ORDER BY id",
        "SELECT id FROM cars WHERE make = 'opel'",
        "SELECT id, price FROM cars PREFERRING LOWEST(price)",
    ];
    let mut mem = Session::with_core(mem_core());
    let mut paged = Session::with_core(paged_core());
    for stmt in script {
        mem.execute(stmt).expect("mem DML");
        paged.execute(stmt).expect("paged DML");
    }
    for probe in probes {
        assert_eq!(
            mem.query(probe).unwrap().to_string(),
            paged.query(probe).unwrap().to_string(),
            "{probe}"
        );
    }
}

/// A table far larger than the pool scans correctly — the four-page
/// pool must evict continuously, and the shared counters prove it did.
#[test]
fn tiny_pool_scans_a_table_much_larger_than_itself() {
    let core = paged_core();
    let mut s = Session::with_core(Arc::clone(&core));
    s.execute("CREATE TABLE big (id INTEGER, v INTEGER)")
        .unwrap();
    let n: i64 = 4_000;
    for chunk in 0..(n / 200) {
        let values: Vec<String> = (0..200)
            .map(|i| {
                let id = chunk * 200 + i;
                format!("({id}, {})", id % 97)
            })
            .collect();
        s.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
            .unwrap();
    }
    let rs = s.query("SELECT COUNT(*), SUM(id) FROM big").unwrap();
    assert_eq!(rs.column_as_ints(0), vec![n]);
    assert_eq!(rs.column_as_ints(1), vec![n * (n - 1) / 2]);
    // Every row position survives paging: spot-check an ordered slice.
    let rs = s
        .query("SELECT id FROM big WHERE id >= 3990 ORDER BY id")
        .unwrap();
    assert_eq!(rs.column_as_ints(0), (3_990..4_000).collect::<Vec<_>>());
    let stats = core.pool_stats();
    assert!(
        stats.evictions > 0,
        "a 4-page pool over {n} rows must evict: {stats:?}"
    );
    assert!(stats.misses > stats.capacity_pages as u64, "{stats:?}");
}

/// Eight sessions hammer one shared paged core whose pool is four
/// pages: results stay byte-identical to the single-session baseline
/// while pins, evictions and write-backs interleave.
#[test]
fn eight_concurrent_sessions_share_one_tiny_pool() {
    let core = paged_core();
    let mut setup = Session::with_core(Arc::clone(&core));
    setup
        .execute("CREATE TABLE pts (x INTEGER, y INTEGER)")
        .unwrap();
    let values: Vec<String> = (0..2_000)
        .map(|i| format!("({i}, {})", 2_000 - i))
        .collect();
    setup
        .execute(&format!("INSERT INTO pts VALUES {}", values.join(", ")))
        .unwrap();
    let probes = [
        "SELECT x FROM pts PREFERRING LOWEST(x)",
        "SELECT x, y FROM pts WHERE x < 40 ORDER BY x",
        "SELECT COUNT(*) FROM pts",
    ];
    let baselines: Vec<String> = probes
        .iter()
        .map(|p| setup.query(p).unwrap().to_string())
        .collect();
    thread::scope(|scope| {
        for _ in 0..8 {
            let core = Arc::clone(&core);
            let baselines = &baselines;
            scope.spawn(move || {
                let mut s = Session::with_core(core);
                for _ in 0..4 {
                    for (probe, baseline) in probes.iter().zip(baselines) {
                        assert_eq!(&s.query(probe).unwrap().to_string(), baseline, "{probe}");
                    }
                }
            });
        }
    });
    let stats = core.pool_stats();
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
}

/// The shell surfaces the storage seam: `\backend` introspection and
/// its refusal on a non-empty catalog, `backend=paged` in EXPLAIN, the
/// per-statement `Pool:` counter line, and `\pool` resizing.
#[test]
fn shell_reports_backend_and_pool_observability() {
    let mut sh = Shell::over(Session::with_core(paged_core()));
    assert_eq!(sh.feed_line("\\backend"), "backend: paged\n");
    sh.feed_line("CREATE TABLE cars (id INTEGER, price INTEGER);");
    sh.feed_line("INSERT INTO cars VALUES (1, 10), (2, 20), (3, 15);");
    // Switching under a live catalog is refused, not silently applied.
    let out = sh.feed_line("\\backend mem");
    assert!(out.starts_with("ERROR:"), "{out}");
    assert!(out.contains("already holds tables"), "{out}");
    assert_eq!(sh.feed_line("\\backend"), "backend: paged\n");
    // EXPLAIN names the backend serving the scan...
    let out = sh.feed_line("EXPLAIN SELECT id FROM cars;");
    assert!(out.contains("[backend=paged]"), "{out}");
    // ...and every row result reports its buffer-pool delta.
    let out = sh.feed_line("SELECT id FROM cars PREFERRING LOWEST(price);");
    assert!(out.contains("| 1  |") && out.contains("(1 rows)"), "{out}");
    assert!(out.contains("Pool: size=16 KiB"), "{out}");
    assert!(out.contains("hits="), "{out}");
    assert!(out.contains("misses="), "{out}");
    assert_eq!(sh.feed_line("\\pool 64k"), "pool: 64 KiB\n");
    assert_eq!(sh.feed_line("\\pool"), "pool: 64 KiB\n");
    let out = sh.feed_line("SELECT id FROM cars;");
    assert!(out.contains("Pool: size=64 KiB"), "{out}");
}

/// Materialized preference views serve, maintain and recompute
/// identically when their base table lives in heap pages.
#[test]
fn materialized_views_ride_on_the_paged_backend() {
    let mut s = Session::with_core(paged_core());
    s.execute("CREATE TABLE cars (id INTEGER, price INTEGER, hp INTEGER)")
        .unwrap();
    s.execute("INSERT INTO cars VALUES (1, 10, 90), (2, 20, 120), (3, 15, 120), (4, 30, 200)")
        .unwrap();
    s.execute(
        "CREATE MATERIALIZED PREFERENCE VIEW best AS \
         SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(hp)",
    )
    .unwrap();
    let sql = "SELECT id FROM cars PREFERRING LOWEST(price) AND HIGHEST(hp)";
    s.set_mode(ExecutionMode::native());
    let hit = s.query(sql).unwrap();
    assert_eq!(
        hit.view_activity().and_then(|v| v.served_by.as_deref()),
        Some("best"),
        "the view serves the paged-base query"
    );
    s.set_mode(ExecutionMode::Rewrite);
    let oracle = s.query(sql).unwrap();
    assert_eq!(hit, oracle, "cache hit ≡ recompute over heap pages");
    // Incremental maintenance reads the new row back off its heap page.
    s.execute("INSERT INTO cars VALUES (5, 5, 300)").unwrap();
    assert_eq!(s.last_view_maintained(), 1);
    s.set_mode(ExecutionMode::native());
    assert_eq!(s.query(sql).unwrap().column_as_ints(0), vec![5]);
    s.execute("DELETE FROM cars WHERE id = 5").unwrap();
    let hit = s.query(sql).unwrap();
    s.set_mode(ExecutionMode::Rewrite);
    assert_eq!(hit, s.query(sql).unwrap(), "delete-of-winner promotes");
}

/// Regression (refresh revalidation): a DROP TABLE / CREATE TABLE cycle
/// that changes the base schema must leave REFRESH with a diagnostic
/// and a still-stale view — never a view serving rows projected through
/// the old shape.
#[test]
fn refresh_revalidates_base_schema_after_drop_create() {
    let mut s = Session::with_core(mem_core());
    s.execute("CREATE TABLE cars (id INTEGER, price INTEGER)")
        .unwrap();
    s.execute("INSERT INTO cars VALUES (1, 30), (2, 20)")
        .unwrap();
    s.execute(
        "CREATE MATERIALIZED PREFERENCE VIEW best AS \
         SELECT id FROM cars PREFERRING LOWEST(price)",
    )
    .unwrap();
    s.execute("DROP TABLE cars").unwrap();
    s.execute("CREATE TABLE cars (name VARCHAR)").unwrap();
    let err = s
        .execute("REFRESH MATERIALIZED PREFERENCE VIEW best")
        .expect_err("the view's projection no longer matches the base");
    let msg = err.to_string();
    assert!(
        msg.contains("cannot refresh materialized preference view 'best'"),
        "{msg}"
    );
    assert!(msg.contains("stays stale"), "{msg}");
    let listing = s.command("\\d", "").unwrap();
    assert!(
        listing.contains("best (stale; REFRESH to rebuild)"),
        "{listing}"
    );
    // Restoring a compatible shape lets REFRESH recover the view.
    s.execute("DROP TABLE cars").unwrap();
    s.execute("CREATE TABLE cars (id INTEGER, price INTEGER)")
        .unwrap();
    s.execute("INSERT INTO cars VALUES (7, 3), (8, 9)").unwrap();
    s.execute("REFRESH MATERIALIZED PREFERENCE VIEW best")
        .unwrap();
    s.set_mode(ExecutionMode::native());
    let rs = s
        .query("SELECT id FROM cars PREFERRING LOWEST(price)")
        .unwrap();
    assert_eq!(rs.column_as_ints(0), vec![7]);
    assert_eq!(
        rs.view_activity().and_then(|v| v.served_by.as_deref()),
        Some("best"),
        "recovered view serves again"
    );
}

/// A left-deep three-table join: the join of t1 and t2 streams through
/// the probe of the 100-row t3 build.
#[test]
fn three_table_join_returns_the_joined_rows() {
    let mut s = Session::with_core(mem_core());
    s.execute("CREATE TABLE t1 (a INTEGER, b INTEGER)").unwrap();
    s.execute("CREATE TABLE t2 (a INTEGER, c INTEGER)").unwrap();
    s.execute("CREATE TABLE t3 (c INTEGER, d INTEGER)").unwrap();
    let rows = |n: i64| -> String {
        (0..n)
            .map(|i| format!("({i}, {i})"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    s.execute(&format!("INSERT INTO t1 VALUES {}", rows(10)))
        .unwrap();
    s.execute(&format!("INSERT INTO t2 VALUES {}", rows(20)))
        .unwrap();
    s.execute(&format!("INSERT INTO t3 VALUES {}", rows(100)))
        .unwrap();
    let rs = s
        .query("SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a JOIN t3 ON t2.c = t3.c ORDER BY t1.a")
        .unwrap();
    assert_eq!(rs.column_as_ints(0), (0..10).collect::<Vec<_>>());
}

/// A small deterministic generator (xorshift64*), so the churn below is
/// seeded and reproducible without a dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// Close a paged table's heap file and open it again, as a restarted
/// database would: every page is flushed, the cached pages are dropped,
/// and the table comes back through `open` — rid directory and page
/// synopses rebuilt from the file alone.
fn reopen(s: &mut Session, name: &str, path: &std::path::Path) {
    let pool = Arc::clone(s.core().pool());
    let mut cat = s.engine_mut().catalog_mut();
    let table = cat.table(name).unwrap();
    table.flush_storage().unwrap();
    table.release_storage().unwrap();
    let schema = table.schema().clone();
    cat.drop_table(name).unwrap();
    let file = Arc::new(HeapFile::open(path, true).unwrap());
    cat.create_table(Table::paged_open(name, schema, file, pool).unwrap())
        .unwrap();
}

/// Page skipping is invisible at the result surface: mem ≡ paged, byte
/// for byte, through a seeded churn of key-changing UPDATEs (which widen
/// page synopses), DELETEs past the compaction threshold (whose rewrite
/// rebuilds them), a reopen (`open` rebuilds them from the file), jumbo
/// rows (never skipped), and a key column loaded in random rather than
/// ascending order — probed with `=`, strict and inclusive bounds swept
/// across page minima and maxima, BETWEEN, string ranges, and NULL /
/// NaN / `-0.0` / INT-vs-FLOAT literals.
#[test]
fn page_skipping_is_byte_identical_to_mem_under_churn() {
    let path =
        std::env::temp_dir().join(format!("prefsql-paged-churn-{}.heap", std::process::id()));
    let schema_sql = "CREATE TABLE t (k INTEGER, r INTEGER, f FLOAT, s VARCHAR)";
    let mut mem = Session::with_core(mem_core());
    mem.execute(schema_sql).unwrap();
    let mut paged = Session::with_core(paged_core());
    {
        // Built by hand (not by CREATE TABLE) so the file outlives the
        // table for the reopen below.
        let fixture = mem.engine_mut().catalog_mut().table("t").unwrap().clone();
        let file = Arc::new(HeapFile::create(&path, false).unwrap());
        let pool = Arc::clone(paged.core().pool());
        let t = Table::paged("t", fixture.schema().clone(), file, pool);
        paged.engine_mut().catalog_mut().create_table(t).unwrap();
    }
    // Rows as the shell renders them (the result's pool counters, which
    // only the paged side carries, are not part of the comparison).
    let shown = |r: QueryResult| match r {
        QueryResult::Rows(rs) => rs.to_string(),
        other => format!("{other:?}"),
    };
    let both = |mem: &mut Session, paged: &mut Session, sql: &str| {
        let a = mem.execute(sql).map(shown);
        let b = paged.execute(sql).map(shown);
        assert_eq!(a.is_ok(), b.is_ok(), "{sql}: {a:?} vs {b:?}");
        if let (Ok(a), Ok(b)) = (a, b) {
            assert_eq!(a, b, "{sql}");
        }
    };
    let mut rng = Rng(0x5EED_2026);
    // 1 200 rows: `k` ascending (clusters per page), `r` a random
    // permutation (spread over every page), `f` with zeros of both
    // signs, NaN and NULL, and every 97th `s` a jumbo string.
    let n: i64 = 1_200;
    let mut r_keys: Vec<i64> = (0..n).collect();
    for i in (1..r_keys.len()).rev() {
        r_keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for chunk in (0..n).collect::<Vec<_>>().chunks(100) {
        let values: Vec<String> = chunk
            .iter()
            .map(|&k| {
                let f = match k % 11 {
                    0 => "-0.0".to_string(),
                    1 => "0.0".to_string(),
                    2 => "0.0 / 0.0".to_string(),
                    3 => "NULL".to_string(),
                    _ => format!("{}.25", k % 40 - 20),
                };
                let s = if k % 97 == 50 {
                    format!("'{}'", "j".repeat(5_000))
                } else {
                    format!("'s{k:04}-{}'", "p".repeat(40))
                };
                format!("({k}, {}, {f}, {s})", r_keys[k as usize])
            })
            .collect();
        both(
            &mut mem,
            &mut paged,
            &format!("INSERT INTO t VALUES {}", values.join(", ")),
        );
    }
    let probe = |mem: &mut Session, paged: &mut Session, around: i64| {
        for v in around - 60..around + 60 {
            for op in ["=", "<", "<=", ">", ">="] {
                both(
                    mem,
                    paged,
                    &format!("SELECT COUNT(*), SUM(r), SUM(LENGTH(s)) FROM t WHERE k {op} {v}"),
                );
            }
        }
        for sql in [
            "SELECT * FROM t WHERE k = 5.0",
            "SELECT k FROM t WHERE k < 5.5 AND k > 1.5",
            "SELECT k, r FROM t WHERE k BETWEEN 4.5 AND 41 ORDER BY r",
            "SELECT k FROM t WHERE r = 77",
            "SELECT k FROM t WHERE r >= 1100 AND r < 1110",
            "SELECT k FROM t WHERE 300 <= r AND r <= 300",
            "SELECT k FROM t WHERE s >= 's0100' AND s < 's0150'",
            "SELECT k FROM t WHERE s BETWEEN 's0600' AND 's0640'",
            "SELECT k FROM t WHERE s > 'j'",
            "SELECT k FROM t WHERE f = 0",
            "SELECT k FROM t WHERE f = -0.0",
            "SELECT k FROM t WHERE f <= 0 AND f >= 0",
            "SELECT k FROM t WHERE f > -1 AND f < 1",
            "SELECT k FROM t WHERE f = 3",
            "SELECT k FROM t WHERE f = 0.0 / 0.0",
            "SELECT k FROM t WHERE f IS NULL AND k < 100",
            "SELECT k FROM t WHERE k = NULL",
            "SELECT k FROM t WHERE k >= 20000",
            "SELECT COUNT(*) FROM t WHERE k > 500 AND k < 400",
            "UPDATE t SET r = r WHERE k BETWEEN 100 AND 180",
        ] {
            both(mem, paged, sql);
        }
    };
    probe(&mut mem, &mut paged, 200);
    // Key-changing updates, in place: rows move to keys far past every
    // page's range (and back below it), widening their pages' synopses.
    let moved = |mem: &mut Session, paged: &mut Session| {
        probe(mem, paged, 600);
        both(mem, paged, "SELECT k FROM t WHERE k >= 20000 ORDER BY k");
        both(mem, paged, "SELECT k FROM t WHERE k < 0 ORDER BY k");
        both(mem, paged, "SELECT k FROM t WHERE r >= 5000 ORDER BY k");
    };
    for _ in 0..30 {
        let k = rng.below(n as u64) as i64;
        let sql = match rng.below(3) {
            0 => format!("UPDATE t SET k = k + 20000 WHERE k = {k}"),
            1 => format!("UPDATE t SET k = -k, r = r + 5000 WHERE k = {k}"),
            _ => format!("UPDATE t SET f = -0.0 WHERE r = {k}"),
        };
        both(&mut mem, &mut paged, &sql);
    }
    moved(&mut mem, &mut paged);
    // Updates that grow rows into jumbo chains rewrite the file.
    for _ in 0..5 {
        let k = rng.below(n as u64) as i64;
        let sql = format!("UPDATE t SET s = '{}' WHERE k = {k}", "g".repeat(4_500));
        both(&mut mem, &mut paged, &sql);
    }
    moved(&mut mem, &mut paged);
    // Past the compaction threshold: the rewrite narrows every synopsis.
    both(
        &mut mem,
        &mut paged,
        "DELETE FROM t WHERE k < 700 AND k > -1",
    );
    probe(&mut mem, &mut paged, 900);
    // Reopen: synopses rebuilt from the file, then more churn — new rows
    // with keys in random order, deletes by key.
    reopen(&mut paged, "t", &path);
    probe(&mut mem, &mut paged, 1_000);
    // The reopened table does skip pages (the sweeps above went through
    // the skipping path, not around it).
    match paged.execute("EXPLAIN ANALYZE SELECT r FROM t WHERE k = 1000") {
        Ok(QueryResult::Explain(report)) => {
            assert!(report.contains("[prune: k = 1000]"), "{report}");
            assert!(report.contains("pages_skipped="), "{report}");
        }
        other => panic!("expected an EXPLAIN ANALYZE report, got {other:?}"),
    }
    for _ in 0..60 {
        let k = rng.below(3 * n as u64) as i64;
        let sql = if rng.below(3) == 0 {
            format!("DELETE FROM t WHERE r = {k}")
        } else {
            format!("INSERT INTO t VALUES ({k}, {k}, {}.5, 'n{k:05}')", k % 7)
        };
        both(&mut mem, &mut paged, &sql);
    }
    probe(&mut mem, &mut paged, 1_100);
    both(&mut mem, &mut paged, "SELECT * FROM t ORDER BY k, r");
}

/// A materialized view over a paged table many times the pool's size:
/// the view stores no rows, so every served read fetches its winners
/// from the heap by row id, and with anti-correlated `a`/`b` those
/// winners sit on pages all over the table — each read goes through
/// the evicting pool. Through seeded INSERT / UPDATE / DELETE churn
/// (new winners, winners moved and deleted, non-winners promoted, the
/// compaction rewrite past the tombstone threshold) the served result
/// stays byte-identical to the same view over the in-memory backend
/// and to the rewrite recompute.
#[test]
fn view_winners_are_fetched_through_an_evicting_pool() {
    let mut mem = Session::with_core(mem_core());
    let mut paged = Session::with_core(paged_core());
    let both = |mem: &mut Session, paged: &mut Session, sql: &str| {
        for s in [mem, paged] {
            s.set_mode(ExecutionMode::Rewrite);
            s.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    };
    both(
        &mut mem,
        &mut paged,
        "CREATE TABLE r (id INTEGER, a INTEGER, b INTEGER, pad VARCHAR)",
    );
    // 3 000 rows of ~70 bytes: `b` falls as `a` rises, with noise, so
    // the skyline is a long frontier in random rid order.
    let mut rng = Rng(0x0B1E_C7ED);
    let n = 3_000;
    let mut row = |id: u64| {
        let a = rng.below(1_000);
        let b = 1_000 - a + rng.below(200);
        format!("({id}, {a}, {b}, '{}')", "p".repeat(48))
    };
    for chunk in (0..n).collect::<Vec<_>>().chunks(100) {
        let values: Vec<String> = chunk.iter().map(|&id| row(id)).collect();
        let sql = format!("INSERT INTO r VALUES {}", values.join(", "));
        both(&mut mem, &mut paged, &sql);
    }
    match paged.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM r") {
        Ok(QueryResult::Explain(report)) => {
            let pages: u64 = (report.split("pages_read=").nth(1))
                .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|digits| digits.parse().ok())
                .unwrap_or_else(|| panic!("no page count in:\n{report}"));
            assert!(pages >= 40, "the table must span 40+ pages: {report}");
        }
        other => panic!("expected an EXPLAIN ANALYZE report, got {other:?}"),
    }
    let pref = "LOWEST(a) AND LOWEST(b)";
    both(
        &mut mem,
        &mut paged,
        &format!("CREATE MATERIALIZED PREFERENCE VIEW v AS SELECT * FROM r PREFERRING {pref}"),
    );
    let sql = format!("SELECT id, a, b FROM r PREFERRING {pref}");
    let check = |mem: &mut Session, paged: &mut Session, step: &str| {
        let mut served = Vec::new();
        for s in [&mut *mem, &mut *paged] {
            s.set_mode(ExecutionMode::native());
            let rs = s.query(&sql).unwrap();
            assert_eq!(
                rs.view_activity().and_then(|v| v.served_by.as_deref()),
                Some("v"),
                "{step}: the view serves the query"
            );
            served.push(rs);
        }
        let misses = served[1].pool_stats().map_or(0, |p| p.misses);
        assert!(
            misses >= 8,
            "{step}: {} winners must come off evicted pages, {misses} misses",
            served[1].len()
        );
        assert_eq!(served[0], served[1], "{step}: paged ≡ mem");
        paged.set_mode(ExecutionMode::Rewrite);
        assert_eq!(served[1], paged.query(&sql).unwrap(), "{step}: ≡ rewrite");
        assert_eq!(
            mem.query("SELECT * FROM v").unwrap(),
            paged.query("SELECT * FROM v").unwrap(),
            "{step}: the view read by name"
        );
        served[1].len()
    };
    assert!(check(&mut mem, &mut paged, "build") >= 20);
    let mut next_id = n;
    for step in 0..60 {
        let id = rng.below(next_id);
        let sql = match rng.below(4) {
            0 => {
                next_id += 1;
                let a = rng.below(1_000);
                format!("INSERT INTO r VALUES ({next_id}, {a}, {}, 'n')", 990 - a)
            }
            1 => format!("DELETE FROM r WHERE id = {id}"),
            2 => format!("UPDATE r SET b = b - 150 WHERE id = {id}"),
            _ => format!("UPDATE r SET a = a + 300, b = b + 300 WHERE id = {id}"),
        };
        both(&mut mem, &mut paged, &sql);
        check(&mut mem, &mut paged, &format!("step {step}: {sql}"));
    }
    // Deleting most of the table compacts the heap file; the surviving
    // entries follow the compacted row ids.
    both(
        &mut mem,
        &mut paged,
        "DELETE FROM r WHERE id < 2000 AND a > 200",
    );
    check(&mut mem, &mut paged, "after compaction");
}
