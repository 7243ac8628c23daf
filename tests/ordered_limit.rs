//! ORDER BY served in order, and a Sort under LIMIT that keeps k rows.
//!
//! An index probe yields its candidates in key order — a B-tree probe in
//! its index's key columns, a hash probe all tied on its column — so an
//! ascending ORDER BY on a prefix of that order plans no Sort. Each such
//! statement must return exactly the rows of the same statement written
//! so that the Sort stays (`x + 0`, or DESC where every candidate ties)
//! over the same probe, tie order included, and of the full scan under
//! the Sort, after UPDATEs that moved rows out of their key and back.
//! Every case runs on the mem backend, on the paged one behind the
//! smallest pool, and on whatever the environment configures.
//!
//! A Sort under `LIMIT n` keeps only n rows: `ORDER BY … LIMIT n` must be
//! the first n rows of the unbounded `ORDER BY …`, over generated rows
//! holding ties, NULL, NaN, both zeros, INT against FLOAT past 2^53 and
//! strings.

use prefsql::storage::Table;
use prefsql::{ExecutionMode, QueryResult, Session};
use prefsql_engine::{BackendKind, EngineCore};
use prefsql_types::knobs::{DEFAULT_POOL_BYTES, MIN_POOL_BYTES};
use prefsql_types::{Column, DataType, Schema, Tuple, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// `t`: 600 rows. `x` repeats every 50 rows and is NULL on every 23rd,
/// `y` is a FLOAT with both zeros and NULLs, `z` a small INTEGER, `m` one
/// of five strings, `r` the row number mod 3. A B-tree on `x`, a
/// composite B-tree on `(y, z)` and a hash index on `m`. Every third row
/// (`r = 0`) then leaves its key and comes back.
fn setup() -> String {
    let rows: Vec<String> = (0..600)
        .map(|i| {
            let x = if i % 23 == 0 {
                "NULL".to_string()
            } else {
                ((i * 37) % 50).to_string()
            };
            let y = match i % 19 {
                0 => "NULL".to_string(),
                1 => "-0.0".to_string(),
                _ => format!("{:.1}", f64::from((i * 11) % 40) / 2.0 - 5.0),
            };
            format!("({i}, {x}, {y}, {}, 'm{}', {})", i % 7, i % 5, i % 3)
        })
        .collect();
    let mut sql = format!(
        "CREATE TABLE t (id INTEGER, x INTEGER, y FLOAT, z INTEGER, m VARCHAR, r INTEGER); \
         INSERT INTO t VALUES {}; \
         CREATE INDEX t_x ON t (x); \
         CREATE INDEX t_yz ON t (y, z); \
         CREATE INDEX t_m ON t (m) USING hash; \
         UPDATE t SET x = x + 1000, y = y + 1000 WHERE r = 0; \
         UPDATE t SET x = x - 1000, y = y - 1000 WHERE r = 0;",
        rows.join(", ")
    );
    for r in 0..5 {
        sql.push_str(&format!(
            " UPDATE t SET m = 'away{r}' WHERE m = 'm{r}' AND r = 0; \
             UPDATE t SET m = 'm{r}' WHERE m = 'away{r}';"
        ));
    }
    sql
}

/// Fresh sessions, labelled, each holding `t`.
fn sessions() -> Vec<(&'static str, Session)> {
    [
        ("mem", Some((BackendKind::Mem, DEFAULT_POOL_BYTES))),
        ("paged", Some((BackendKind::Paged, MIN_POOL_BYTES))),
        ("env", None),
    ]
    .into_iter()
    .map(|(label, core)| {
        let mut s = match core {
            Some((kind, pool)) => {
                Session::with_core(Arc::new(EngineCore::with_storage(kind, pool)))
            }
            None => Session::new(),
        };
        s.execute_script(&setup())
            .unwrap_or_else(|e| panic!("{label}: setup failed: {e}"));
        (label, s)
    })
    .collect()
}

/// The rows of `sql` in the order returned, each value's `Debug` form
/// (so `-0.0` and `0.0` differ).
fn rows(s: &mut Session, sql: &str) -> Vec<String> {
    let rs = s.query(sql).unwrap_or_else(|e| panic!("{sql} failed: {e}"));
    rs.rows()
        .iter()
        .map(|r| format!("{:?}", r.values()))
        .collect()
}

fn explain(s: &mut Session, sql: &str) -> String {
    match s.execute(&format!("EXPLAIN {sql}")) {
        Ok(QueryResult::Explain(text)) => text,
        other => panic!("EXPLAIN {sql}: {other:?}"),
    }
}

/// `(ordered, sorted, full)`: the first statement's ORDER BY is served by
/// the index probe, the second's keeps its Sort over the same probe. When
/// `full`, a full scan under the Sort returns the same rows too: the keys
/// cover the probe's order, so ties come in row-id order either way. On a
/// prefix of a composite key they come in the order of the rest.
const SERVED_IN_ORDER: &[(&str, &str, bool)] = &[
    // B-tree range probes.
    (
        "SELECT id, x FROM t WHERE x BETWEEN 10 AND 30 ORDER BY x",
        "SELECT id, x FROM t WHERE x BETWEEN 10 AND 30 ORDER BY x + 0",
        true,
    ),
    (
        "SELECT id, x FROM t WHERE x BETWEEN 10 AND 30 ORDER BY x LIMIT 10",
        "SELECT id, x FROM t WHERE x BETWEEN 10 AND 30 ORDER BY x + 0 LIMIT 10",
        true,
    ),
    (
        "SELECT id FROM t WHERE x < 5 ORDER BY x",
        "SELECT id FROM t WHERE x < 5 ORDER BY x + 0",
        true,
    ),
    (
        "SELECT id, x FROM t WHERE x > 40 AND z <> 2 ORDER BY x ASC LIMIT 7",
        "SELECT id, x FROM t WHERE x > 40 AND z <> 2 ORDER BY x + 0 LIMIT 7",
        true,
    ),
    (
        "SELECT t.id FROM t WHERE 44 <= x ORDER BY t.x",
        "SELECT t.id FROM t WHERE 44 <= x ORDER BY t.x + 0",
        true,
    ),
    (
        "SELECT x AS k, id FROM t WHERE x BETWEEN 3 AND 9 ORDER BY k",
        "SELECT x AS k, id FROM t WHERE x BETWEEN 3 AND 9 ORDER BY k + 0",
        true,
    ),
    // B-tree equality probes: every candidate ties.
    (
        "SELECT id FROM t WHERE x = 7 ORDER BY x",
        "SELECT id FROM t WHERE x = 7 ORDER BY x + 0",
        true,
    ),
    (
        "SELECT id FROM t WHERE x = 7 ORDER BY x LIMIT 3",
        "SELECT id FROM t WHERE x = 7 ORDER BY x DESC LIMIT 3",
        true,
    ),
    // A composite B-tree on (y, z): its key and a prefix of it, INT and
    // FLOAT literals against the FLOAT column, both zeros.
    (
        "SELECT id, y, z FROM t WHERE y BETWEEN -2 AND 3 ORDER BY y, z",
        "SELECT id, y, z FROM t WHERE y BETWEEN -2 AND 3 ORDER BY y + 0, z + 0",
        true,
    ),
    (
        "SELECT id, y FROM t WHERE y BETWEEN -1 AND 2.5 ORDER BY y LIMIT 12",
        "SELECT id, y FROM t WHERE y BETWEEN -1 AND 2.5 ORDER BY y + 0 LIMIT 12",
        false,
    ),
    (
        "SELECT id, y, z FROM t WHERE y = 0 ORDER BY y, z",
        "SELECT id, y, z FROM t WHERE y = 0 ORDER BY y + 0, z + 0",
        true,
    ),
    (
        "SELECT id, y FROM t WHERE y = -0.0 ORDER BY y",
        "SELECT id, y FROM t WHERE y = -0.0 ORDER BY y DESC",
        false,
    ),
    (
        "SELECT id, y FROM t WHERE y >= 4.5 ORDER BY y",
        "SELECT id, y FROM t WHERE y >= 4.5 ORDER BY y + 0",
        false,
    ),
    // Hash equality probes: every candidate ties on the column.
    (
        "SELECT id FROM t WHERE m = 'm3' ORDER BY m",
        "SELECT id FROM t WHERE m = 'm3' ORDER BY m DESC",
        true,
    ),
    (
        "SELECT id, x FROM t WHERE m = 'm1' AND x > 10 ORDER BY m LIMIT 5",
        "SELECT id, x FROM t WHERE m = 'm1' AND x > 10 ORDER BY m DESC LIMIT 5",
        true,
    ),
];

#[test]
fn an_ordered_probe_returns_what_its_sort_would() {
    for (label, mut s) in sessions() {
        for &(ordered, sorted, full) in SERVED_IN_ORDER {
            let plan = explain(&mut s, ordered);
            assert!(plan.contains("Index probe"), "{label}: {ordered}\n{plan}");
            assert!(!plan.contains("sort("), "{label}: {ordered}\n{plan}");
            let plan = explain(&mut s, sorted);
            assert!(plan.contains("Index probe"), "{label}: {sorted}\n{plan}");
            assert!(plan.contains("sort("), "{label}: {sorted}\n{plan}");
            let got = rows(&mut s, ordered);
            assert!(!got.is_empty(), "{label}: {ordered}");
            assert_eq!(got, rows(&mut s, sorted), "{label}: {ordered}");
            s.engine_mut().set_use_indexes(false);
            let scanned = rows(&mut s, ordered);
            s.engine_mut().set_use_indexes(true);
            assert_eq!(got == scanned, full, "{label}: full scan {ordered}");
        }
    }
}

/// A probe's candidates come in key order, not row-id order, and within
/// a key in row-id order — also after the UPDATEs of [`setup`] moved
/// rows out of their key and back, since a table rebuilds the indexes
/// over the columns an UPDATE assigned.
#[test]
fn ties_come_in_row_id_order_after_updates() {
    for (label, mut s) in sessions() {
        let sql = "SELECT x, id FROM t WHERE x BETWEEN 5 AND 9 ORDER BY x";
        let got: Vec<(Value, i64)> = (s.query(sql).unwrap().rows().iter())
            .map(|r| match r.values() {
                [x, Value::Int(id)] => (x.clone(), *id),
                other => panic!("{other:?}"),
            })
            .collect();
        assert!(got.len() > 20, "{label}: {got:?}");
        assert!(got.windows(2).any(|w| w[0].1 > w[1].1), "{label}: {got:?}");
        assert!(
            got.windows(2).all(|w| w[0].0 != w[1].0 || w[0].1 < w[1].1),
            "{label}: {got:?}"
        );
    }
}

/// Where the rule does not apply the Sort stays: DESC, an expression,
/// another column or one past the index's order, a scan with no key
/// order, and an aggregate or a preference between the keys and the
/// probe.
#[test]
fn the_sort_stays_where_the_probe_order_does_not_serve() {
    let kept = [
        "SELECT id, x FROM t WHERE x BETWEEN 10 AND 30 ORDER BY x DESC",
        "SELECT id FROM t WHERE x BETWEEN 10 AND 30 ORDER BY x + 0",
        "SELECT id FROM t WHERE x BETWEEN 10 AND 30 ORDER BY id",
        "SELECT id FROM t WHERE x BETWEEN 10 AND 30 ORDER BY x, id",
        "SELECT id FROM t WHERE y BETWEEN -2 AND 3 ORDER BY z",
        "SELECT id FROM t WHERE y BETWEEN -2 AND 3 ORDER BY y DESC, z",
        "SELECT id FROM t WHERE m = 'm3' ORDER BY m, id",
        "SELECT id, x FROM t ORDER BY x",
        "SELECT id, z FROM t WHERE z = 3 ORDER BY z",
        "SELECT x, COUNT(*) FROM t WHERE x BETWEEN 10 AND 30 GROUP BY x ORDER BY x",
        "SELECT id, x FROM t WHERE x BETWEEN 10 AND 30 PREFERRING LOWEST(z) ORDER BY x",
    ];
    for (label, mut s) in sessions() {
        for mode in [ExecutionMode::Rewrite, ExecutionMode::native()] {
            s.set_mode(mode);
            for sql in kept {
                let plan = explain(&mut s, sql);
                assert!(
                    plan.contains("sort("),
                    "{label}/{}: {sql}\n{plan}",
                    mode.label()
                );
            }
        }
        // The kept sorts really order: DESC over the probe, and the full
        // scan's ascending keys.
        for (sql, desc) in [(kept[0], true), (kept[7], false)] {
            let xs: Vec<Value> = (s.query(sql).unwrap().rows().iter())
                .map(|r| r.values()[1].clone())
                .collect();
            assert!(xs.len() > 100, "{label}: {sql}");
            assert!(
                xs.windows(2).all(|w| {
                    let ord = w[0].total_cmp(&w[1]);
                    if desc {
                        ord.is_ge()
                    } else {
                        ord.is_le()
                    }
                }),
                "{label}: {sql}: {xs:?}"
            );
        }
    }
}

/// Under a LIMIT an ordered probe is charged only the rows it lent: the
/// shortest prefix of its candidates holding the LIMIT's rows.
#[test]
fn a_limit_over_an_ordered_probe_scans_only_the_rows_it_lends() {
    for (label, mut s) in sessions() {
        s.engine_mut().take_stats();
        let got = rows(
            &mut s,
            "SELECT id, x FROM t WHERE x BETWEEN 10 AND 30 ORDER BY x LIMIT 10",
        );
        let stats = s.engine_mut().take_stats();
        assert_eq!(got.len(), 10, "{label}");
        assert_eq!((stats.rows_scanned, stats.index_probes), (10, 1), "{label}");

        // `x > 40` probes [40, +inf]; the filter drops `x = 40` and
        // `z = 2`. The candidates, in probe order, are those of `x >= 40`.
        let candidates = s
            .query("SELECT x, z FROM t WHERE x >= 40 ORDER BY x")
            .unwrap();
        let passes = |r: &Tuple| r.values()[0] != Value::Int(40) && r.values()[1] != Value::Int(2);
        let lent = (candidates.rows().iter())
            .scan(0, |kept, r| {
                (*kept < 7).then(|| *kept += usize::from(passes(r)))
            })
            .count();
        s.engine_mut().take_stats();
        let got = rows(
            &mut s,
            "SELECT id, x FROM t WHERE x > 40 AND z <> 2 ORDER BY x LIMIT 7",
        );
        let stats = s.engine_mut().take_stats();
        assert_eq!(got.len(), 7, "{label}");
        assert!(lent > 7, "{label}: the filter drops some candidates");
        assert_eq!(stats.rows_scanned, lent as u64, "{label}");
    }
}

// ---------------------------------------------------------- bounded sort

/// A key error surfaces whatever the LIMIT keeps, `LIMIT 0` included.
#[test]
fn a_key_error_still_fails_under_a_limit() {
    for (label, mut s) in sessions() {
        for n in [0, 1, 10] {
            let sql = format!("SELECT id FROM t ORDER BY 1 / (x - x) LIMIT {n}");
            let err = s.query(&sql).expect_err(&sql);
            assert!(err.to_string().contains("zero"), "{label}: {sql}: {err}");
        }
    }
}

/// DISTINCT sits between LIMIT and the Sort, which then keeps every row:
/// the first distinct values, not the distinct values of the first rows.
#[test]
fn distinct_under_a_limit_is_unchanged() {
    for (label, mut s) in sessions() {
        let got = rows(&mut s, "SELECT DISTINCT z FROM t ORDER BY z LIMIT 3");
        assert_eq!(got, ["[Int(0)]", "[Int(1)]", "[Int(2)]"], "{label}");
        let got = rows(&mut s, "SELECT DISTINCT m FROM t ORDER BY m DESC LIMIT 2");
        assert_eq!(got, ["[Str(\"m4\")]", "[Str(\"m3\")]"], "{label}");
    }
}

/// The first `n` rows of an unbounded statement, re-sorted by `id`.
fn first_ids(s: &mut Session, sql: &str, n: usize) -> Vec<String> {
    let rs = s.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut ids: Vec<i64> = (rs.rows().iter().take(n))
        .map(|r| match r.values()[0] {
            Value::Int(id) => id,
            ref v => panic!("{v:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids.into_iter().map(|id| format!("[Int({id})]")).collect()
}

/// A LIMIT inside a derived table or an `IN` sub-query bounds that block's
/// own Sort.
#[test]
fn a_limit_in_a_nested_block_keeps_that_blocks_first_rows() {
    for (label, mut s) in sessions() {
        let inner = "SELECT id, x FROM t WHERE z = 1 ORDER BY x DESC, y";
        let want = first_ids(&mut s, inner, 4);
        let got = rows(
            &mut s,
            &format!("SELECT d.id FROM ({inner} LIMIT 4) d ORDER BY d.id"),
        );
        assert_eq!(got, want, "{label}");

        let inner = "SELECT id FROM t WHERE z = 2 ORDER BY y DESC, x";
        let want = first_ids(&mut s, inner, 5);
        let got = rows(
            &mut s,
            &format!("SELECT id FROM t WHERE id IN ({inner} LIMIT 5) ORDER BY id"),
        );
        assert_eq!(got, want, "{label}");
    }
}

/// Native `PREFERRING … ORDER BY … LIMIT` keeps the first rows of its
/// ordered winners, as the rewrite does.
#[test]
fn a_limit_over_a_preference_keeps_its_first_ordered_winners() {
    let all = "SELECT id, x FROM t WHERE z <> 1 PREFERRING LOWEST(y) GROUPING m \
               ORDER BY x DESC, m";
    for (label, mut s) in sessions() {
        s.set_mode(ExecutionMode::native());
        let winners = rows(&mut s, all);
        assert!(winners.len() > 3, "{label}: {winners:?}");
        for n in [0, 1, 3, 100] {
            let sql = format!("{all} LIMIT {n}");
            let got = rows(&mut s, &sql);
            assert_eq!(got, winners[..n.min(winners.len())], "{label}: {sql}");
            s.set_mode(ExecutionMode::Rewrite);
            assert_eq!(rows(&mut s, &sql), got, "{label}: rewrite {sql}");
            s.set_mode(ExecutionMode::native());
        }
    }
}

/// The values a generated column draws from: ties, NULL, NaN, both
/// zeros, INT and FLOAT around 2^53, strings.
fn palettes() -> [Vec<Value>; 3] {
    let big = 1_i64 << 53;
    [
        [
            None,
            Some(-1),
            Some(0),
            Some(1),
            Some(big),
            Some(big + 1),
            Some(i64::MAX),
        ]
        .map(|v| v.map_or(Value::Null, Value::Int))
        .to_vec(),
        [
            None,
            Some(f64::NAN),
            Some(-0.0),
            Some(0.0),
            Some(1.0),
            Some(big as f64),
            Some(big as f64 + 2.0),
            Some(f64::NEG_INFINITY),
        ]
        .map(|v| v.map_or(Value::Null, Value::Float))
        .to_vec(),
        [None, Some(""), Some("a"), Some("ab"), Some("b"), Some("é")]
            .map(|v| v.map_or(Value::Null, Value::str))
            .to_vec(),
    ]
}

/// ORDER BY keys to draw from: columns, INT against FLOAT in one key,
/// and a key most rows tie on.
const KEYS: [&str; 7] = [
    "i",
    "f",
    "s",
    "COALESCE(i, f)",
    "COALESCE(f, i)",
    "id / 3",
    "g.s",
];

/// A generated row: `(i, f, s)` as indices into [`palettes`].
type Row = (usize, usize, usize);

/// Generated rows, 1–3 keys (an index into [`KEYS`], ascending or not),
/// a limit around the row count, and the source shape.
fn arb_case() -> impl Strategy<Value = (Vec<Row>, Vec<(usize, bool)>, usize, usize)> {
    let lens = palettes().map(|p| p.len());
    let row = (0..lens[0], 0..lens[1], 0..lens[2]);
    let key = (0..KEYS.len(), any::<bool>());
    (
        proptest::collection::vec(row, 0..40),
        proptest::collection::vec(key, 1..4),
        0..45usize,
        0..3usize,
    )
}

fn generated(rows: &[Row]) -> Session {
    let [ints, floats, strs] = palettes();
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("i", DataType::Int),
        Column::new("f", DataType::Float),
        Column::new("s", DataType::Str),
    ])
    .unwrap();
    let mut g = Table::new("g", schema);
    for (id, &(i, f, s)) in rows.iter().enumerate() {
        let row = vec![
            Value::Int(id as i64),
            ints[i].clone(),
            floats[f].clone(),
            strs[s].clone(),
        ];
        g.insert(Tuple::new(row)).unwrap();
    }
    let one = Schema::new(vec![Column::new("o", DataType::Int)]).unwrap();
    let mut one = Table::new("one", one);
    one.insert(Tuple::new(vec![Value::Int(1)])).unwrap();
    let core = EngineCore::with_storage(BackendKind::Mem, DEFAULT_POOL_BYTES);
    let mut s = Session::with_core(Arc::new(core));
    let mut catalog = s.engine_mut().catalog_mut();
    catalog.create_table(g).unwrap();
    catalog.create_table(one).unwrap();
    drop(catalog);
    s
}

proptest! {
    /// `ORDER BY … LIMIT n` is the first `n` rows of `ORDER BY …`, for
    /// `n` of 0, 1, a drawn count, more than the rows and `i64::MAX`,
    /// over a base table's lent rows, a filter's selection of them, and
    /// a join's rows handed over.
    #[test]
    fn a_bounded_sort_keeps_the_first_rows_of_the_full_sort(
        (data, keys, k, shape) in arb_case()
    ) {
        let mut s = generated(&data);
        let order: Vec<String> = keys
            .iter()
            .map(|&(key, asc)| format!("{} {}", KEYS[key], if asc { "ASC" } else { "DESC" }))
            .collect();
        let from = ["g", "g WHERE i IS NULL OR i <> 0", "g, one"][shape];
        let full = format!("SELECT id, i, f, s FROM {from} ORDER BY {}", order.join(", "));
        let all = rows(&mut s, &full);
        for n in [0, 1, k, data.len() + 5, i64::MAX as usize] {
            let got = rows(&mut s, &format!("{full} LIMIT {n}"));
            prop_assert_eq!(&got[..], &all[..n.min(all.len())], "{} LIMIT {}", full, n);
        }
    }
}
