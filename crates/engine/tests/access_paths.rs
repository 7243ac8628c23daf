//! Access paths chosen from the filter on a scan, on the mem and the
//! paged backend: the shapes of sargable and non-sargable conjuncts the
//! other suites leave open. Each statement is also run with sargs off
//! (`set_use_indexes(false)`, a full scan) and must return the same rows.

use prefsql_engine::{BackendKind, Engine, EngineCore, ExecOutcome};
use prefsql_types::knobs::{DEFAULT_POOL_BYTES, MIN_POOL_BYTES};
use prefsql_types::Value;
use std::sync::Arc;

const BACKENDS: [BackendKind; 2] = [BackendKind::Mem, BackendKind::Paged];

/// `t` (2 000 rows, `k` unique, `make` one of five) with a B-tree index
/// on `k` and, when `make_index`, a hash index on `make`; `o` (50 rows)
/// for the `EXISTS` blocks. The paged pool is the smallest, so `t`
/// spans many pages.
fn engine(kind: BackendKind, make_index: bool) -> Engine {
    let pool = match kind {
        BackendKind::Paged => MIN_POOL_BYTES,
        BackendKind::Mem => DEFAULT_POOL_BYTES,
    };
    let mut e = Engine::with_core(Arc::new(EngineCore::with_storage(kind, pool)));
    e.execute_sql("CREATE TABLE t (k INTEGER, make VARCHAR, v INTEGER)")
        .unwrap();
    let rows: Vec<String> = (0..2_000)
        .map(|i| format!("({i}, 'm{}', {})", i / 400, (i * 7919) % 1_000))
        .collect();
    e.execute_sql(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    e.execute_sql("CREATE TABLE o (id INTEGER)").unwrap();
    let ids: Vec<String> = (0..50).map(|i| format!("({})", i * 37)).collect();
    e.execute_sql(&format!("INSERT INTO o VALUES {}", ids.join(", ")))
        .unwrap();
    e.execute_sql("CREATE INDEX i_k ON t (k)").unwrap();
    if make_index {
        e.execute_sql("CREATE INDEX i_make ON t (make) USING hash")
            .unwrap();
    }
    e
}

fn explain(e: &mut Engine, sql: &str) -> String {
    match e.execute_sql(&format!("EXPLAIN {sql}")).unwrap() {
        ExecOutcome::Explain(plan) => plan,
        other => panic!("EXPLAIN {sql}: {other:?}"),
    }
}

/// What `sql` returns — its rows, or its count for DML — and the index
/// probes it made.
fn run(e: &mut Engine, sql: &str) -> (String, u64) {
    e.take_stats();
    let out = match e.execute_sql(sql).unwrap() {
        ExecOutcome::Rows(rel) => format!(
            "{:?}",
            rel.rows
                .into_iter()
                .map(|t| t.into_values())
                .collect::<Vec<Vec<Value>>>()
        ),
        ExecOutcome::Count(n) => format!("{n} rows"),
        other => panic!("{sql}: {other:?}"),
    };
    (out, e.take_stats().index_probes)
}

/// `sql` probes an index once, and returns what a full scan of a fresh
/// copy of the tables returns.
fn probes_once(kind: BackendKind, sql: &str) -> String {
    let (got, probes) = run(&mut engine(kind, true), sql);
    assert_eq!(probes, 1, "{kind:?}: {sql}");
    let mut full = engine(kind, true);
    full.set_use_indexes(false);
    assert_eq!(run(&mut full, sql), (got.clone(), 0), "{kind:?}: {sql}");
    got
}

/// A literal before its column is read the other way round: `5 < k` is
/// `k > 5`, in a SELECT and in an UPDATE or DELETE target alike.
#[test]
fn literal_first_compares_probe_an_index() {
    for kind in BACKENDS {
        let e = &mut engine(kind, true);
        let cases = [
            (
                "SELECT k, v FROM t WHERE 1990 < k ORDER BY k",
                "Index probe: t via btree index on k range [1990, +inf] (10 candidates)",
            ),
            (
                "SELECT COUNT(*) FROM t WHERE 'm3' = make",
                "Index probe: t via hash index on make = m3 (400 candidates)",
            ),
            (
                "UPDATE t SET v = v + 1 WHERE 10 >= k",
                "Index probe: t via btree index on k range [-inf, 10] (11 candidates)",
            ),
            (
                "DELETE FROM t WHERE 'm4' = make AND 1995 <= k",
                "Index probe: t via hash index on make = m4 (400 candidates)",
            ),
        ];
        for (sql, probe) in cases {
            let plan = explain(e, sql);
            assert!(plan.contains(probe), "{kind:?}: {sql}\n{plan}");
            probes_once(kind, sql);
        }
    }
}

/// `NOT BETWEEN` and `= NULL` constrain no range an index or a page
/// synopsis could answer: the scan is a full one, with nothing to prune.
#[test]
fn not_between_and_equals_null_give_no_sarg() {
    for kind in BACKENDS {
        let mut e = engine(kind, true);
        for sql in [
            "SELECT k FROM t WHERE k NOT BETWEEN 5 AND 1990 ORDER BY k",
            "SELECT k FROM t WHERE k = NULL",
            "SELECT k FROM t WHERE NULL = make AND k NOT BETWEEN 0 AND 1",
            "UPDATE t SET v = v WHERE k NOT BETWEEN 0 AND 1998",
        ] {
            let plan = explain(&mut e, sql);
            assert!(plan.contains("Seq scan: t"), "{kind:?}: {sql}\n{plan}");
            assert!(!plan.contains("[prune:"), "{kind:?}: {sql}\n{plan}");
            let (got, probes) = run(&mut e, sql);
            assert_eq!(probes, 0, "{sql}");
            e.set_use_indexes(false);
            assert_eq!(run(&mut e, sql).0, got, "{sql}");
            e.set_use_indexes(true);
        }
        let (rows, _) = run(&mut e, "SELECT k FROM t WHERE k = NULL");
        assert_eq!(rows, "[]");
    }
}

/// A semi or anti join's build reads the conjuncts of the sub-query
/// that reach only its own row: a pushed literal conjunct probes the
/// index (or, with none, prunes the paged scan alone), while the
/// correlated conjunct — a hash key or a residual — never becomes a
/// sarg, though `k` has an index too.
#[test]
fn a_semi_or_anti_join_build_probes_its_pushed_literal_conjunct() {
    for kind in BACKENDS {
        for not in ["", "NOT "] {
            for correlated in ["t.k = o.id", "t.k > o.id * 40"] {
                let sql = format!(
                    "SELECT o.id FROM o WHERE {not}EXISTS \
                     (SELECT 1 FROM t WHERE {correlated} AND 'm2' = t.make) ORDER BY o.id"
                );
                let plan = explain(&mut engine(kind, true), &sql);
                let join = if not.is_empty() {
                    "Semi join"
                } else {
                    "Anti join"
                };
                assert!(plan.contains(join), "{kind:?}: {sql}\n{plan}");
                assert!(
                    plan.contains("Index probe: t via hash index on make = m2"),
                    "{kind:?}: {sql}\n{plan}"
                );
                let got = probes_once(kind, &sql);
                // The per-row probe of the same predicate agrees.
                let probed = sql.replace(" ORDER BY", " OR 1 = 0 ORDER BY");
                assert_eq!(run(&mut engine(kind, true), &probed).0, got, "{probed}");

                let mut e = engine(kind, false);
                let plan = explain(&mut e, &sql);
                assert!(!plan.contains("Index probe"), "{kind:?}: {sql}\n{plan}");
                if kind == BackendKind::Paged {
                    let scan = plan
                        .lines()
                        .find(|l| l.contains("Seq scan: t"))
                        .unwrap_or_else(|| panic!("{plan}"));
                    assert!(scan.ends_with("[prune: make = 'm2']"), "{plan}");
                }
                assert_eq!(run(&mut e, &sql), (got, 0), "{kind:?}: {sql}");
            }
        }
    }
}

/// A `PREFERRING` block's source is its FROM/WHERE under the filter, so
/// its candidates come off an index probe when the WHERE has one.
#[test]
fn a_preferring_source_reads_an_index_probe() {
    for kind in BACKENDS {
        let e = &mut engine(kind, true);
        for sql in [
            "SELECT k, v FROM t WHERE make = 'm1' PREFERRING LOWEST(v) ORDER BY k",
            "SELECT k FROM t WHERE k BETWEEN 100 AND 700 PREFERRING v AROUND 500 AND HIGHEST(k) \
             ORDER BY k",
        ] {
            let plan = explain(e, sql);
            let preference = plan
                .find("Preference (BMO")
                .unwrap_or_else(|| panic!("{plan}"));
            let probe = plan
                .find("Index probe: t")
                .unwrap_or_else(|| panic!("{plan}"));
            assert!(preference < probe, "{kind:?}: {sql}\n{plan}");
            probes_once(kind, sql);
        }
    }
}
