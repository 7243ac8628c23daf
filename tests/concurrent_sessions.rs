//! Concurrent-correctness stress suite for the shared engine core.
//!
//! Two invariants pin the session runtime:
//!
//! 1. *Read stability*: N threads, each with its own [`Session`] over
//!    one shared core, replay the golden `demo_queries()` mix (in both
//!    execution modes, threads offset so modes interleave) and every
//!    rendering must be byte-identical to the single-session baseline
//!    captured before the flood.
//! 2. *Statement atomicity*: concurrent writers inserting fixed-size
//!    batches and rewriting a column in single statements are never
//!    observed mid-statement by concurrent readers.

use prefsql::storage::Table;
use prefsql::{ExecutionMode, Session};
use prefsql_engine::EngineCore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

mod common;
use common::demo_queries;

/// Stress degree: the session-default thread knob (CI pins
/// `PREFSQL_THREADS=8`), kept in [2, 8] so the test always exercises
/// real concurrency without exploding on wide hosts.
fn stress_threads() -> usize {
    prefsql::NativeOptions::default().threads.clamp(2, 8)
}

/// Load every demo table into one shared core, deduplicating by table
/// name (several demo queries reuse a name with identical content;
/// queries whose same-named table *differs* are dropped from the mix).
fn shared_demo_core() -> (Arc<EngineCore>, Vec<String>) {
    let core = EngineCore::shared();
    let mut session = Session::with_core(Arc::clone(&core));
    let mut loaded: HashMap<String, Table> = HashMap::new();
    let mut queries = Vec::new();
    for (table, sql) in demo_queries() {
        let name = table.name().to_string();
        match loaded.get(&name) {
            None => {
                session
                    .engine_mut()
                    .catalog_mut()
                    .create_table(table.clone())
                    .expect("fresh catalog");
                loaded.insert(name, table);
                queries.push(sql);
            }
            Some(existing)
                if existing.schema() == table.schema() && existing.rows() == table.rows() =>
            {
                queries.push(sql)
            }
            Some(_) => {} // same name, different fixture: not co-loadable
        }
    }
    assert!(
        queries.len() >= 8,
        "the dedup must keep a substantial mix, got {}",
        queries.len()
    );
    (core, queries)
}

/// Render `sql` through a session in `mode`.
fn run_in(session: &mut Session, mode: ExecutionMode, sql: &str) -> String {
    session.set_mode(mode);
    session
        .query(sql)
        .unwrap_or_else(|e| panic!("{mode:?} failed on {sql}: {e}"))
        .to_string()
}

#[test]
fn stress_demo_mix_is_byte_identical_across_sessions() {
    let (core, queries) = shared_demo_core();
    let modes = [ExecutionMode::Rewrite, ExecutionMode::native()];

    // Single-session baseline, both modes, before any concurrency.
    let baseline: Vec<[String; 2]> = {
        let mut s = Session::with_core(Arc::clone(&core));
        queries
            .iter()
            .map(|sql| [run_in(&mut s, modes[0], sql), run_in(&mut s, modes[1], sql)])
            .collect()
    };

    let n = stress_threads();
    let workers: Vec<_> = (0..n)
        .map(|t| {
            let core = Arc::clone(&core);
            let queries = queries.clone();
            let baseline = baseline.clone();
            thread::spawn(move || {
                let mut s = Session::with_core(core);
                // Each thread starts at a different query and alternates
                // modes with an offset, so rewrite and native runs of
                // every query overlap across threads.
                for step in 0..queries.len() {
                    let qi = (step + t) % queries.len();
                    let mi = (step + t) % 2;
                    let got = run_in(&mut s, modes[mi], &queries[qi]);
                    assert_eq!(
                        got, baseline[qi][mi],
                        "thread {t} diverged from the single-session baseline on: {}",
                        queries[qi]
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("stress thread panicked");
    }
}

#[test]
fn dml_statements_are_never_observed_mid_statement() {
    const BATCH: usize = 7;
    const ROUNDS: usize = 25;
    const UPD_ROWS: usize = 50;

    // Two tables, one invariant each — the invariants must hold at
    // *statement* boundaries even with several writers interleaving:
    //
    // * `ins`: writers append whole BATCH-row INSERT statements, so any
    //   snapshot's row count is a multiple of BATCH;
    // * `upd`: writers rewrite *every* row's y in one UPDATE statement,
    //   so any snapshot (always taken between statements) is uniform.
    //
    // (They have to be separate tables: an INSERT from one writer
    // landing between another writer's UPDATEs legitimately makes a
    // mixed-y table without any statement being half-applied.)
    let core = EngineCore::shared();
    let mut setup = Session::with_core(Arc::clone(&core));
    setup.execute("CREATE TABLE ins (x INTEGER)").unwrap();
    setup.execute("CREATE TABLE upd (y INTEGER)").unwrap();
    let seed: Vec<String> = (0..UPD_ROWS).map(|_| "(0)".to_string()).collect();
    setup
        .execute(&format!("INSERT INTO upd VALUES {}", seed.join(", ")))
        .unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let core = Arc::clone(&core);
            thread::spawn(move || {
                let mut s = Session::with_core(core);
                for round in 0..ROUNDS {
                    // One INSERT statement per 7-row batch...
                    let values: Vec<String> = (0..BATCH)
                        .map(|i| format!("({})", (w * ROUNDS + round) * BATCH + i))
                        .collect();
                    s.execute(&format!("INSERT INTO ins VALUES {}", values.join(", ")))
                        .unwrap();
                    // ...and one UPDATE statement rewriting every row's y
                    // to one writer-unique constant.
                    s.execute(&format!("UPDATE upd SET y = {}", w * ROUNDS + round))
                        .unwrap();
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let core = Arc::clone(&core);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut s = Session::with_core(core);
                let mut observations = 0u32;
                while !done.load(Ordering::Relaxed) || observations == 0 {
                    // Insert atomicity: the row count only moves in
                    // whole batches.
                    let rs = s.query("SELECT COUNT(*) FROM ins").unwrap();
                    let count = rs.column_as_ints(0)[0];
                    assert_eq!(
                        count % BATCH as i64,
                        0,
                        "a partially applied INSERT batch became visible"
                    );
                    // Update atomicity: a whole-table UPDATE is all or
                    // nothing, so y is uniform in every snapshot.
                    let rs = s.query("SELECT MIN(y), MAX(y) FROM upd").unwrap();
                    let row = &rs.rows()[0];
                    assert_eq!(row[0], row[1], "a half-applied UPDATE became visible");
                    observations += 1;
                }
                assert!(observations > 0);
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer panicked");
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader panicked");
    }

    let mut check = Session::with_core(core);
    let rs = check.query("SELECT COUNT(*) FROM ins").unwrap();
    assert_eq!(rs.column_as_ints(0)[0], (2 * ROUNDS * BATCH) as i64);
    let rs = check.query("SELECT COUNT(*) FROM upd").unwrap();
    assert_eq!(rs.column_as_ints(0)[0], UPD_ROWS as i64);
}
