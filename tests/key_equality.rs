//! Key equality: every keyed structure groups and matches exactly as SQL
//! `=` does, because all of them key on `prefsql_types::Key`, whose
//! order is `Value::total_cmp` — SQL's comparison made total.
//!
//! The edges are the two zeros (`-0.0 = 0.0` is TRUE) and INT against
//! FLOAT past 2^53, where `i as f64` rounds and an inexact comparison
//! would call 9007199254740993 equal to 9007199254740992.0. Each case
//! runs in both modes (the rewrite is the oracle of `GROUPING`, POS and
//! NEG) on the in-memory backend, the paged backend behind the smallest
//! legal pool, and whatever the environment configures (the paged and
//! 4 KiB window CI legs, the latter taking the Grace join).

use prefsql::{ExecutionMode, Session};
use prefsql_engine::{BackendKind, EngineCore};
use prefsql_types::knobs::{DEFAULT_POOL_BYTES, MIN_POOL_BYTES};
use std::sync::Arc;

/// Fresh sessions, labelled, each holding the tables `setup` creates.
fn sessions(setup: &str) -> Vec<(&'static str, Session)> {
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
        s.execute_script(setup)
            .unwrap_or_else(|e| panic!("{label}: setup failed: {e}"));
        (label, s)
    })
    .collect()
}

/// The rendered rows of `sql`, in the order the statement returns them.
fn rows(s: &mut Session, sql: &str) -> Vec<String> {
    let rs = s.query(sql).unwrap_or_else(|e| panic!("{sql} failed: {e}"));
    rs.rows().iter().map(|r| r.to_string()).collect()
}

/// `sql` returns exactly `want`, in order, in both modes on every
/// session.
fn expect(setup: &str, sql: &str, want: &[&str]) {
    for (label, mut s) in sessions(setup) {
        for mode in [ExecutionMode::Rewrite, ExecutionMode::native()] {
            s.set_mode(mode);
            assert_eq!(rows(&mut s, sql), want, "{label}/{}: {sql}", mode.label());
        }
    }
}

const THREE_ZEROS: &str = "CREATE TABLE t (id INTEGER, g FLOAT, x INTEGER); \
     INSERT INTO t VALUES (1, 0.0, 5), (2, -0.0, 3), (3, 0.0, 9);";

const NEGATIVE_ZERO_FIRST: &str = "CREATE TABLE t (id INTEGER, g FLOAT, x INTEGER); \
     INSERT INTO t VALUES (1, -0.0, 5), (2, 1.0, 3);";

#[test]
fn grouping_puts_both_zeros_in_one_group() {
    expect(
        THREE_ZEROS,
        "SELECT id FROM t PREFERRING LOWEST(x) GROUPING g ORDER BY id",
        &["(2)"],
    );
}

#[test]
fn distinct_and_group_by_agree_with_where() {
    expect(
        THREE_ZEROS,
        "SELECT id FROM t WHERE g = 0 ORDER BY id",
        &["(1)", "(2)", "(3)"],
    );
    // One group, whose value is its first row's.
    expect(THREE_ZEROS, "SELECT DISTINCT g FROM t", &["(0.0)"]);
    expect(
        THREE_ZEROS,
        "SELECT g, COUNT(*) FROM t GROUP BY g",
        &["(0.0, 3)"],
    );
    let first_negative = "CREATE TABLE t (id INTEGER, g FLOAT); \
         INSERT INTO t VALUES (1, -0.0), (2, 0.0), (3, -0.0);";
    expect(first_negative, "SELECT DISTINCT g FROM t", &["(-0.0)"]);
    expect(
        first_negative,
        "SELECT g, COUNT(*) FROM t GROUP BY g",
        &["(-0.0, 3)"],
    );
}

#[test]
fn order_by_keeps_the_two_zeros_as_ties_in_input_order() {
    expect(
        THREE_ZEROS,
        "SELECT id FROM t ORDER BY g",
        &["(1)", "(2)", "(3)"],
    );
    expect(
        THREE_ZEROS,
        "SELECT id FROM t ORDER BY g DESC, x DESC",
        &["(3)", "(1)", "(2)"],
    );
}

#[test]
fn pos_and_neg_membership_treat_both_zeros_as_one_value() {
    for pos in ["g IN (0.0)", "g = 0.0", "g IN (0)"] {
        expect(
            NEGATIVE_ZERO_FIRST,
            &format!("SELECT id FROM t PREFERRING {pos} ORDER BY id"),
            &["(1)"],
        );
    }
    for neg in ["g <> 0.0", "g NOT IN (0.0)"] {
        expect(
            NEGATIVE_ZERO_FIRST,
            &format!("SELECT id FROM t PREFERRING {neg} ORDER BY id"),
            &["(2)"],
        );
    }
}

/// 9007199254740993 is 2^53 + 1, the first INT that `as f64` rounds (to
/// 2^53). SQL `=` compares exactly, so it does not equal 2^53 as a
/// FLOAT; 2^53 itself does, and so do the small pairs.
#[test]
fn int_against_float_compares_exactly_in_every_join() {
    let setup = "CREATE TABLE a (k INTEGER); CREATE TABLE b (k FLOAT); \
         INSERT INTO a VALUES (9007199254740993), (9007199254740992), (5), (-9007199254740993); \
         INSERT INTO b VALUES (9007199254740992.0), (5.0), (-9007199254740992.0);";
    let want = ["(9007199254740992)", "(5)"];
    for sql in [
        "SELECT a.k FROM a JOIN b ON a.k = b.k",
        "SELECT k FROM a WHERE EXISTS (SELECT * FROM b WHERE b.k = a.k)",
        "SELECT k FROM a WHERE k IN (SELECT k FROM b)",
        "SELECT k FROM a WHERE k = 9007199254740992.0 OR k = 5.0",
    ] {
        for (label, mut s) in sessions(setup) {
            for hash in [true, false] {
                s.engine_mut().set_use_hash_join(hash);
                assert_eq!(rows(&mut s, sql), want, "{label}, hash join {hash}: {sql}");
            }
        }
    }
    let not_exists = "SELECT k FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE b.k = a.k)";
    expect(
        setup,
        not_exists,
        &["(9007199254740993)", "(-9007199254740993)"],
    );
}

#[test]
fn int_against_float_compares_exactly_in_where_and_groups() {
    let setup = "CREATE TABLE t (id INTEGER, i INTEGER, f FLOAT); \
         INSERT INTO t VALUES (1, 9007199254740993, 9007199254740992.0), \
         (2, 9007199254740992, 9007199254740992.0), (3, 5, 5.0);";
    expect(
        setup,
        "SELECT id FROM t WHERE i = f ORDER BY id",
        &["(2)", "(3)"],
    );
    expect(setup, "SELECT id FROM t WHERE i > f ORDER BY id", &["(1)"]);
    // The INT of row 1 and the FLOAT of row 2 are two keys; the FLOAT
    // of row 2 and the INT of row 3 (both 2^53) are one.
    let key = "CASE WHEN id = 2 THEN f WHEN id = 3 THEN 9007199254740992 ELSE i END";
    expect(
        setup,
        &format!("SELECT MIN(id), COUNT(*) FROM t GROUP BY {key}"),
        &["(1, 1)", "(2, 2)"],
    );
    // Row 2's FLOAT is its group's value; at this magnitude it renders
    // without a fraction.
    expect(
        setup,
        &format!("SELECT DISTINCT {key} FROM t"),
        &["(9007199254740993)", "(9007199254740992)"],
    );
}

/// A build over a 4 KiB window takes the Grace path: both inputs are
/// hash-partitioned by key before any bucket is probed, so a key pair
/// SQL calls equal must route to one partition, and an unequal one must
/// still not match.
#[test]
fn grace_partitions_route_equal_keys_together() {
    let mut setup = String::from(
        "CREATE TABLE a (id INTEGER, k INTEGER); CREATE TABLE b (k FLOAT, pad VARCHAR);",
    );
    let pad = "x".repeat(40);
    let floats: Vec<String> = (0..400)
        .map(|i| format!("({}.5, '{pad}')", i - 200))
        .chain(["(-0.0, 'z')".into(), "(9007199254740992.0, 'p')".into()])
        .collect();
    setup += &format!("INSERT INTO b VALUES {};", floats.join(", "));
    setup += "INSERT INTO a VALUES (1, 0), (2, 9007199254740993), (3, 9007199254740992), (4, 7);";
    let sql = "SELECT a.id, b.pad FROM a JOIN b ON a.k = b.k";
    for (label, mut s) in sessions(&setup) {
        s.set_window_bytes(Some(4096));
        let rs = s.query(sql).unwrap();
        let got: Vec<String> = rs.rows().iter().map(|r| r.to_string()).collect();
        assert_eq!(got, ["(1, z)", "(3, p)"], "{label}");
        let spilled = rs.spill_metrics().map_or(0, |m| m.runs_written);
        assert!(spilled > 0, "{label}: the build should have spilled");
        s.engine_mut().set_use_hash_join(false);
        assert_eq!(rows(&mut s, sql), got, "{label}: nested loop");
    }
}
