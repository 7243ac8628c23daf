//! `view_dml_mix` — one session on the **paged** backend with the buffer
//! pool sized to a quarter of the base table's pages, a materialized
//! preference view over a 64 k-row car market, and a 60/40 write/read
//! mix: price UPDATEs (36 %), DELETEs by id (20 %, one in five removes a
//! current winner), seeded INSERTs (4 %); reads are the
//! exact-match preference query the view serves (36 %), plus one in ten
//! (4 %) a preference query no view matches, which runs a cold BMO
//! through the pool.
//!
//! Chosen because it uses `pref` and `engine` differently from the
//! read-only workloads (incremental maintenance, not batch BMO) and is
//! the only one where `storage` (pages, pins, evictions, write-back)
//! works: a read-path gain paid for by writes, or a pool change, shows
//! as `write_p50_ms` and `read_p50_ms` moving apart. The other three
//! workloads use the in-memory backend (the data fits).

use super::{must, Conn, Env, Expect, Kind, Outcome, Scale, Source, Stmt, Workload, WriteTally};
use crate::util::Rng;
use prefsql::{ExecutionMode, Session};
use prefsql_engine::{BackendKind, EngineCore};
use prefsql_storage::page::PAGE_SIZE;
use prefsql_workload::cars;
use std::collections::HashMap;
use std::sync::Arc;

/// The workload.
pub struct ViewDml;

const PREFERENCE: &str = "LOWEST(price) AND LOWEST(mileage)";

/// The statement classes of one 50-statement round. The round is
/// shuffled once per seed and then repeated, so any stretch of the
/// stream holds the classes in these exact proportions. They are chosen
/// so that each reported percentile lies well inside one class and not
/// on the border between a sub-millisecond class and a 20 ms one, where
/// it would flip with the seed: the scan-bound statements (update,
/// delete, cold read) make up 60 %, so the overall median and the write
/// median are an UPDATE, the 95th percentile a DELETE, and the read
/// median a served read.
const ROUND: [(Class, usize); 5] = [
    (Class::Insert, 2),
    (Class::Update, 18),
    (Class::Delete, 10),
    (Class::ReadServed, 18),
    (Class::ReadCold, 2),
];

#[derive(Debug, Clone, Copy)]
enum Class {
    Insert,
    Update,
    Delete,
    ReadServed,
    ReadCold,
}

fn base_rows(scale: Scale) -> usize {
    scale.pick(64_000, 4_000)
}

fn served_query() -> String {
    format!("SELECT id, price FROM car PREFERRING {PREFERENCE}")
}

impl Workload for ViewDml {
    fn name(&self) -> &'static str {
        "view_dml_mix"
    }

    fn setup(&self, seed: u64, scale: Scale) -> Result<Env, String> {
        let rows = base_rows(scale);
        let source = cars::market(rows, seed);
        // Bulk-load, then read the table's page count off the pool: rows
        // are appended, so each page misses exactly once, when it is
        // allocated ...
        let core = Arc::new(EngineCore::with_storage(
            BackendKind::Paged,
            prefsql_types::knobs::DEFAULT_POOL_BYTES,
        ));
        let mut table = core
            .make_table("car", source.schema().clone())
            .map_err(|e| e.to_string())?;
        table
            .insert_all(source.rows().iter().cloned())
            .map_err(|e| e.to_string())?;
        let table_pages = core.pool_stats().misses as usize;
        // ... and size the pool to a quarter of the table: the working
        // set does not fit, every full scan evicts.
        let pool_bytes = core
            .resize_pool(table_pages / 4 * PAGE_SIZE)
            .map_err(|e| e.to_string())?;
        let mut session = Session::with_core(Arc::clone(&core));
        session
            .engine_mut()
            .catalog_mut()
            .create_table(table)
            .map_err(|e| e.to_string())?;
        session.set_mode(ExecutionMode::native());
        must(
            &mut session,
            &format!("CREATE MATERIALIZED PREFERENCE VIEW best AS SELECT * FROM car PREFERRING {PREFERENCE}"),
        )?;
        Ok(Env {
            core,
            conns: vec![Conn::InProc(Box::new(session))],
            server: None,
            connect_ms: Vec::new(),
            largest_table: "car",
            facts: vec![
                ("car_rows", rows as f64),
                ("car_pages", table_pages as f64),
                ("pool_pages", (pool_bytes / PAGE_SIZE) as f64),
            ],
        })
    }

    fn sources(&self, seed: u64, scale: Scale, _env: &Env) -> Result<Vec<Box<dyn Source>>, String> {
        let rows = base_rows(scale) as i64;
        let mut rng = Rng::new(seed, 0xD31);
        let mut round: Vec<Class> = ROUND
            .iter()
            .flat_map(|(class, n)| std::iter::repeat(*class).take(*n))
            .collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Ok(vec![Box::new(Mix {
            rng,
            round,
            pos: 0,
            live: (0..rows).collect(),
            slot: (0..rows).map(|id| (id, id as usize)).collect(),
            next_id: rows,
            winners: Vec::new(),
            warmup: scale.pick(100, 50),
        })])
    }

    fn traced_count(&self, scale: Scale) -> usize {
        scale.pick(300, 100)
    }

    fn final_check(&self, env: &mut Env, writes: &WriteTally) -> Vec<String> {
        let initial = env
            .facts
            .iter()
            .find(|(k, _)| *k == "car_rows")
            .map_or(0.0, |(_, v)| *v) as u64;
        let Some(session) = env.session() else {
            return vec!["view workload lost its session".into()];
        };
        let mut problems = Vec::new();
        // Row count = initial + inserts - deletes.
        match session.query("SELECT COUNT(*) FROM car") {
            Ok(rs) => {
                let have = rs.rows()[0].get(0).as_int().unwrap_or(-1);
                let want = (initial + writes.inserted - writes.deleted) as i64;
                if have != want {
                    problems.push(format!("car holds {have} rows, expected {want}"));
                }
            }
            Err(e) => problems.push(format!("row count: {e}")),
        }
        // The incrementally maintained view == a cold recompute (the
        // same query once the view is gone).
        let served = session.query(&served_query());
        if let Err(e) = session.execute("DROP MATERIALIZED VIEW best") {
            problems.push(format!("drop view: {e}"));
        }
        match (served, session.query(&served_query())) {
            (Ok(served), Ok(cold)) => {
                if served.view_activity().and_then(|v| v.served_by.as_deref()) != Some("best") {
                    problems.push("the matching query was not served by the view".into());
                }
                let (a, b) = (
                    super::digest_rows(&served, false),
                    super::digest_rows(&cold, false),
                );
                if (a.rows, a.checksum) != (b.rows, b.checksum) {
                    problems.push(format!(
                        "view serves {} rows, cold recompute finds {}",
                        a.rows, b.rows
                    ));
                }
            }
            (Err(e), _) | (_, Err(e)) => problems.push(format!("view check: {e}")),
        }
        problems
    }

    fn predicted_share(&self) -> Option<(&'static str, f64)> {
        None
    }
}

/// The seeded statement stream, with the model of the table it needs to
/// know what each DML statement must affect.
struct Mix {
    rng: Rng,
    round: Vec<Class>,
    pos: usize,
    /// Ids currently in the table, and where each sits in `live`.
    live: Vec<i64>,
    slot: HashMap<i64, usize>,
    next_id: i64,
    /// Winner ids the last served read returned (an application deletes
    /// what it was shown: the best offer sells first).
    winners: Vec<i64>,
    warmup: usize,
}

impl Mix {
    fn forget(&mut self, id: i64) {
        if let Some(at) = self.slot.remove(&id) {
            self.live.swap_remove(at);
            if let Some(&moved) = self.live.get(at) {
                self.slot.insert(moved, at);
            }
        }
    }

    fn random_live(&mut self) -> i64 {
        *self.rng.pick(&self.live)
    }

    /// A row drawn like `cars::market` draws them.
    fn insert_sql(&mut self) -> String {
        let id = self.next_id;
        self.next_id += 1;
        self.slot.insert(id, self.live.len());
        self.live.push(id);
        let rng = &mut self.rng;
        let price = 10_000 + rng.range(0, 70_000) / (1 + rng.range(0, 3));
        let power = 50 + price / 700 + rng.range(0, 80);
        format!(
            "INSERT INTO car VALUES ({id}, '{}', '{}', '{}', {price}, {power}, {}, '{}')",
            rng.pick(&cars::MAKES),
            rng.pick(&cars::CATEGORIES),
            rng.pick(&cars::COLORS),
            rng.range(0, 250_000),
            if rng.below(10) < 4 { "yes" } else { "no" }
        )
    }
}

impl Source for Mix {
    fn next_stmt(&mut self) -> Stmt {
        let key = self.pos as u32;
        self.pos += 1;
        let write = |class, sql| Stmt {
            key,
            sql,
            kind: Kind::Write,
            class,
            expect: Expect::Affected(1),
            want_ids: false,
        };
        match self.round[key as usize % self.round.len()] {
            Class::Insert => {
                let sql = self.insert_sql();
                write("insert", sql)
            }
            Class::Delete => {
                // One delete in five removes a current winner.
                let winner = if self.rng.below(5) == 0 {
                    let live = &self.slot;
                    self.winners.retain(|id| live.contains_key(id));
                    self.winners.pop()
                } else {
                    None
                };
                let id = winner.unwrap_or_else(|| self.random_live());
                self.forget(id);
                write("delete", format!("DELETE FROM car WHERE id = {id}"))
            }
            Class::Update => {
                let id = self.random_live();
                let price = self.rng.range(10_000, 80_000);
                write(
                    "update",
                    format!("UPDATE car SET price = {price} WHERE id = {id}"),
                )
            }
            Class::ReadServed => Stmt {
                want_ids: true,
                ..Stmt::read(key as usize, "read_served", served_query())
            },
            Class::ReadCold => Stmt::read(
                key as usize,
                "read_cold",
                format!(
                    "SELECT id, price FROM car WHERE make = '{}' \
                     PREFERRING LOWEST(price) AND HIGHEST(power)",
                    cars::MAKES[(key as usize / self.round.len()) % cars::MAKES.len()]
                ),
            ),
        }
    }

    fn observe(&mut self, stmt: &Stmt, outcome: &Outcome) {
        if stmt.want_ids && outcome.ok {
            self.winners.clone_from(&outcome.ids);
        }
    }

    fn warmup_len(&self) -> usize {
        self.warmup
    }

    fn golden_len(&self) -> usize {
        // About what a measured phase gets through; later statements are
        // held to the model (affected rows, non-empty BMO) only.
        10 * self.warmup
    }
}
