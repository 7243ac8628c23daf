//! Batch-boundary integration tests for the one pull protocol: for every
//! operator shape the planner emits — including batches that straddle
//! LIMIT cutoffs, empty result sets and final short batches — the result
//! must not depend on how many rows each pull asks for, and (for at
//! least one query per group) must equal rows written out by hand, so
//! the oracle is never the code under test alone. Runs on the paged
//! backend too (`PREFSQL_BACKEND=paged`), where the scan lends from a
//! refilled decode buffer instead of the catalog's rows.

use prefsql_engine::physical::{build, drain_batched};
use prefsql_engine::Engine;
use prefsql_parser::ast::Statement;
use prefsql_parser::parse_statement;
use prefsql_types::{tuple, Tuple, Value};

/// Prime mid-size straddles (3, 7) and everything-in-one-pull (1024),
/// each compared against one row per pull.
const BATCH_SIZES: [usize; 3] = [3, 7, 1024];

fn setup() -> Engine {
    let mut e = Engine::new();
    e.execute_sql("CREATE TABLE t (id INTEGER NOT NULL, grp INTEGER, v INTEGER)")
        .unwrap();
    // 50 rows: grp cycles 0..5, v descends — enough to straddle every
    // batch size in BATCH_SIZES several times.
    for i in 0..50 {
        e.execute_sql(&format!(
            "INSERT INTO t VALUES ({i}, {}, {})",
            i % 5,
            100 - i
        ))
        .unwrap();
    }
    e.execute_sql("CREATE INDEX idx_grp ON t (grp) USING hash")
        .unwrap();
    e
}

fn select_query(sql: &str) -> prefsql_parser::ast::Query {
    match parse_statement(sql).unwrap() {
        Statement::Select(q) => *q,
        other => panic!("expected SELECT, got {other:?}"),
    }
}

/// Drive `sql` one row per pull and at every batch size; all runs must
/// produce identical row vectors (same tuples, same order), equal to
/// `expected` where the caller spelled the rows out. Returns the rows.
fn assert_same_at_every_batch_size(
    engine: &Engine,
    sql: &str,
    expected: Option<Vec<Tuple>>,
) -> Vec<Tuple> {
    let query = select_query(sql);
    let ctx = engine.read_ctx().unwrap();
    let plan = ctx.plan_for(&query).unwrap();
    let run = |batch| {
        let mut op = build(&ctx, plan.root(), &[]);
        drain_batched(op.as_mut(), batch).unwrap()
    };

    let single = run(1);
    if let Some(expected) = expected {
        assert_eq!(single, expected, "wrong rows for: {sql}");
    }
    for batch in BATCH_SIZES {
        assert_eq!(run(batch), single, "batch={batch} diverged on: {sql}");
    }
    single
}

/// Rows of integers, spelled out.
fn int_rows<const N: usize>(rows: impl IntoIterator<Item = [i64; N]>) -> Option<Vec<Tuple>> {
    Some(
        rows.into_iter()
            .map(|r| Tuple::new(r.into_iter().map(Value::Int).collect()))
            .collect(),
    )
}

#[test]
fn scan_filter_project_agree_across_batch_sizes() {
    let e = setup();
    assert_same_at_every_batch_size(&e, "SELECT id, v FROM t", None);
    // v = 100 - id, so v > 75 keeps ids 0..25.
    assert_same_at_every_batch_size(
        &e,
        "SELECT id FROM t WHERE v > 75",
        int_rows((0..25).map(|i| [i])),
    );
    assert_same_at_every_batch_size(
        &e,
        "SELECT id, v + 1 FROM t WHERE grp = 2",
        int_rows((0..10).map(|k| [5 * k + 2, 101 - (5 * k + 2)])),
    );
    // Empty result: every pull is filtered away entirely.
    assert_same_at_every_batch_size(&e, "SELECT id FROM t WHERE v > 1000", Some(vec![]));
}

#[test]
fn limit_cutoffs_agree_across_batch_sizes() {
    let e = setup();
    // Cutoffs that land mid-batch, on batch edges, at 0 and past the end.
    for n in [0, 1, 5, 7, 49, 50, 500] {
        assert_same_at_every_batch_size(
            &e,
            &format!("SELECT id FROM t LIMIT {n}"),
            int_rows((0..n.min(50)).map(|i| [i])),
        );
    }
    assert_same_at_every_batch_size(
        &e,
        "SELECT id FROM t WHERE grp = 1 LIMIT 4",
        int_rows([[1], [6], [11], [16]]),
    );
    // Ascending v is descending id.
    assert_same_at_every_batch_size(
        &e,
        "SELECT id, v FROM t ORDER BY v LIMIT 9",
        int_rows((0..9).map(|k| [49 - k, 51 + k])),
    );
}

#[test]
fn pipeline_breakers_and_joins_agree_across_batch_sizes() {
    let e = setup();
    assert_same_at_every_batch_size(
        &e,
        "SELECT id, v FROM t ORDER BY v DESC",
        int_rows((0..50).map(|i| [i, 100 - i])),
    );
    assert_same_at_every_batch_size(
        &e,
        "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp",
        int_rows((0..5).map(|g| [g, 10])),
    );
    // Hash join (equi key) and nested loop (non-equi condition).
    assert_same_at_every_batch_size(
        &e,
        "SELECT a.id, b.id FROM t a, t b WHERE a.id = b.id AND a.v > 90",
        int_rows((0..10).map(|i| [i, i])),
    );
    assert_same_at_every_batch_size(
        &e,
        "SELECT a.id, b.id FROM t a JOIN t b ON a.id > b.id + 47",
        int_rows([[48, 0], [49, 0], [49, 1]]),
    );
    assert_same_at_every_batch_size(
        &e,
        "SELECT x.id FROM (SELECT id, v FROM t WHERE v > 60) x WHERE x.v < 90",
        int_rows((11..40).map(|i| [i])),
    );
}

#[test]
fn distinct_keeps_first_occurrences_in_input_order() {
    let e = setup();
    assert_same_at_every_batch_size(
        &e,
        "SELECT DISTINCT grp FROM t",
        int_rows((0..5).map(|g| [g])),
    );
    // INT 1 and FLOAT 1.0 are one value under key equality; the first
    // occurrence (id 0, the FLOAT) is the one that is kept.
    assert_same_at_every_batch_size(
        &e,
        "SELECT DISTINCT CASE WHEN id = 1 THEN 1 ELSE 1.0 END FROM t WHERE id < 4",
        Some(vec![tuple![1.0]]),
    );
    // NULLs are duplicates of each other.
    assert_same_at_every_batch_size(
        &e,
        "SELECT DISTINCT CASE WHEN id < 2 THEN NULL ELSE grp END FROM t WHERE id < 5",
        Some(vec![tuple![Value::Null], tuple![2], tuple![3], tuple![4]]),
    );
    // DISTINCT beneath LIMIT: the quota is met by pulling on, not by
    // over-asking the scan.
    assert_same_at_every_batch_size(
        &e,
        "SELECT DISTINCT grp FROM t LIMIT 3",
        int_rows([[0], [1], [2]]),
    );
}

#[test]
fn index_scan_agrees_across_batch_sizes() {
    let e = setup();
    // grp has a hash index; the planner picks the index probe for
    // equality — verify by the stats, then diff the drive loops.
    let query = select_query("SELECT id FROM t WHERE grp = 3");
    let rows = {
        let ctx = e.read_ctx().unwrap();
        let plan = ctx.plan_for(&query).unwrap();
        let mut op = build(&ctx, plan.root(), &[]);
        let rows = drain_batched(op.as_mut(), 3).unwrap();
        e.note_stats(ctx.take_stats());
        rows
    };
    assert_eq!(rows.len(), 10);
    assert!(e.take_stats().index_probes > 0, "expected an index probe");
    assert_same_at_every_batch_size(
        &e,
        "SELECT id FROM t WHERE grp = 3",
        int_rows((0..10).map(|k| [5 * k + 3])),
    );
}

/// `rows_scanned` is charged by the scan as it produces rows, which
/// makes every base table a counting source: an `EXISTS` probe must stop
/// the scans beneath it at the first qualifying row.
#[test]
fn exists_probe_stops_its_sources_at_the_first_match() {
    let mut e = setup();
    e.execute_sql("CREATE TABLE one (k INTEGER)").unwrap();
    e.execute_sql("INSERT INTO one VALUES (1)").unwrap();
    e.execute_sql("CREATE TABLE pair (lo INTEGER, hi INTEGER)")
        .unwrap();
    e.execute_sql("INSERT INTO pair VALUES (100, 200), (6, 8)")
        .unwrap();
    e.take_stats();

    // Filter over a scan: rows id 0..=7 of t, plus the outer row.
    let out = e
        .execute_sql("SELECT k FROM one WHERE EXISTS (SELECT 1 FROM t WHERE t.id = 7)")
        .unwrap();
    assert_eq!(out.expect_rows().rows, vec![tuple![1]]);
    let stats = e.take_stats();
    assert_eq!(stats.subquery_evals, 1);
    assert_eq!(stats.rows_scanned, 1 + 8);

    // A nested-loop join (non-equi condition) beneath the probe: the
    // left scan stops at id 7, the first row inside (6, 8); the right
    // side is materialized once (2 rows).
    let out = e
        .execute_sql(
            "SELECT k FROM one WHERE EXISTS \
             (SELECT 1 FROM t JOIN pair ON t.id > pair.lo AND t.id < pair.hi)",
        )
        .unwrap();
    assert_eq!(out.expect_rows().rows, vec![tuple![1]]);
    assert_eq!(e.take_stats().rows_scanned, 1 + 8 + 2);
}
