//! The four workloads and the vocabulary they share: a [`Stmt`] is one
//! generated statement, a [`Source`] hands a client its statements, a
//! [`Conn`] is the public entry point a client drives (an in-process
//! [`Session`] or a TCP [`Client`]), and an [`Env`] is everything
//! set-up builds.

pub mod jobsearch;
pub mod skyline;
pub mod viewdml;
pub mod wire;

use crate::util::row_hash;
use prefsql::{QueryResult, Session};
use prefsql_engine::EngineCore;
use prefsql_server::{protocol, Client, Response, ServerHandle};
use prefsql_types::Error;
use std::sync::Arc;

/// How much data and how many statements a run uses. Claims use
/// [`Scale::Full`]; [`Scale::Quick`] exists for `cargo test` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes recorded in the README and the committed baseline.
    Full,
    /// Seconds-long smoke scale: same code paths, small tables.
    Quick,
}

impl Scale {
    /// `full` when [`Scale::Full`], else `quick`.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Whether a statement returns rows or changes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Row-returning statement.
    Read,
    /// INSERT / UPDATE / DELETE.
    Write,
}

/// What the correctness gate holds a reply against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The (row count, checksum) recorded for this key — from the golden
    /// file for seed 1, else from the statement's first execution, which
    /// must itself be non-empty (a BMO set never is empty).
    Recorded,
    /// DML that must affect exactly this many rows.
    Affected(u64),
}

/// One generated statement.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Position in the client's list or stream: the key golden files and
    /// warm-up expectations are recorded under.
    pub key: u32,
    /// The SQL text — all the engine ever sees of the workload.
    pub sql: String,
    /// Read or write.
    pub kind: Kind,
    /// Statement class, for per-class reporting.
    pub class: &'static str,
    /// What a correct reply looks like.
    pub expect: Expect,
    /// Collect the first column's integers from the reply (the view
    /// workload deletes rows it was just shown).
    pub want_ids: bool,
}

impl Stmt {
    /// A read checked against its recorded reply.
    pub fn read(key: usize, class: &'static str, sql: String) -> Stmt {
        Stmt {
            key: key as u32,
            sql,
            kind: Kind::Read,
            class,
            expect: Expect::Recorded,
            want_ids: false,
        }
    }
}

/// A client's supply of statements.
pub trait Source: Send {
    /// The next statement to send.
    fn next_stmt(&mut self) -> Stmt;
    /// Feed a reply back (closed loop: the next statement may depend on it).
    fn observe(&mut self, _stmt: &Stmt, _outcome: &Outcome) {}
    /// How many statements the untimed warm-up pass sends.
    fn warmup_len(&self) -> usize;
    /// How many statements `--bless` records: every distinct statement
    /// of a list; a prefix of a stream (it has no last statement).
    fn golden_len(&self) -> usize;
    /// At most this many statements are worth replaying stage by stage
    /// in a traced run.
    fn replay_len(&self) -> usize {
        usize::MAX
    }
}

/// A fixed list replayed in order, over and over.
pub struct Cycle {
    list: Vec<Stmt>,
    warmup: usize,
    pos: usize,
}

impl Cycle {
    /// Cycle over `list` (non-empty); the warm-up pass sends its first
    /// `warmup` statements.
    pub fn new(list: Vec<Stmt>, warmup: usize) -> Self {
        assert!(!list.is_empty(), "a workload needs statements");
        Cycle {
            warmup: warmup.min(list.len()),
            list,
            pos: 0,
        }
    }
}

impl Source for Cycle {
    fn next_stmt(&mut self) -> Stmt {
        let stmt = self.list[self.pos % self.list.len()].clone();
        self.pos += 1;
        stmt
    }

    fn warmup_len(&self) -> usize {
        self.warmup
    }

    fn golden_len(&self) -> usize {
        self.list.len()
    }

    fn replay_len(&self) -> usize {
        // Three passes are plenty for per-statement medians.
        3 * self.list.len()
    }
}

/// The digest of one reply, computed outside the timed region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// The statement succeeded.
    pub ok: bool,
    /// Rows returned, or rows affected for DML.
    pub rows: u64,
    /// Order-insensitive checksum of the rendered rows (0 for DML).
    pub checksum: u64,
    /// First-column integers, when the statement asked for them.
    pub ids: Vec<i64>,
    /// The error text of a failed statement.
    pub error: Option<String>,
}

/// One public entry point under load.
pub enum Conn {
    /// `Session::execute`, in-process.
    InProc(Box<Session>),
    /// `Client::request` over loopback TCP.
    Wire(Client),
}

/// An undigested reply (what the timed call returns).
pub enum Raw {
    /// From [`Conn::InProc`].
    InProc(Result<QueryResult, Error>),
    /// From [`Conn::Wire`].
    Wire(std::io::Result<Response>),
}

impl Conn {
    /// Send one statement and wait for its reply — the timed call.
    pub fn call(&mut self, sql: &str) -> Raw {
        match self {
            Conn::InProc(session) => Raw::InProc(session.execute(sql)),
            Conn::Wire(client) => Raw::Wire(client.request(sql)),
        }
    }
}

/// The wire form of one result row, so in-process and TCP replies to the
/// same statement digest to the same checksum.
fn render_row(row: &prefsql_types::Tuple) -> String {
    let cells: Vec<String> = row
        .values()
        .iter()
        .map(|v| protocol::escape(&v.to_string()))
        .collect();
    cells.join("\t")
}

/// Digest a row result.
pub fn digest_rows(rs: &prefsql::ResultSet, want_ids: bool) -> Outcome {
    Outcome {
        ok: true,
        rows: rs.len() as u64,
        checksum: rs
            .rows()
            .iter()
            .fold(0u64, |acc, r| acc.wrapping_add(row_hash(&render_row(r)))),
        ids: if want_ids {
            rs.rows().iter().filter_map(|r| r.get(0).as_int()).collect()
        } else {
            Vec::new()
        },
        error: None,
    }
}

fn failed(error: String) -> Outcome {
    Outcome {
        error: Some(error),
        ..Outcome::default()
    }
}

impl Raw {
    /// Reduce a reply to what the correctness gate compares.
    pub fn digest(&self, want_ids: bool) -> Outcome {
        match self {
            Raw::InProc(Ok(QueryResult::Rows(rs))) => digest_rows(rs, want_ids),
            Raw::InProc(Ok(QueryResult::Count(n))) => Outcome {
                ok: true,
                rows: *n as u64,
                ..Outcome::default()
            },
            Raw::InProc(Ok(other)) => failed(format!("unexpected reply {other:?}")),
            Raw::InProc(Err(e)) => failed(e.to_string()),
            Raw::Wire(Err(e)) => failed(e.to_string()),
            Raw::Wire(Ok(resp)) if !resp.is_ok() => failed(resp.status.clone()),
            Raw::Wire(Ok(resp)) if resp.header.is_some() => Outcome {
                ok: true,
                rows: resp.payload.len() as u64,
                checksum: resp
                    .payload
                    .iter()
                    .fold(0u64, |acc, l| acc.wrapping_add(row_hash(l))),
                ids: if want_ids {
                    resp.payload
                        .iter()
                        .filter_map(|l| l.split('\t').next()?.parse().ok())
                        .collect()
                } else {
                    Vec::new()
                },
                error: None,
            },
            // `OK INSERT <n>` — the DML terminator.
            Raw::Wire(Ok(resp)) => match resp.status.rsplit(' ').next().map(str::parse::<u64>) {
                Some(Ok(n)) => Outcome {
                    ok: true,
                    rows: n,
                    ..Outcome::default()
                },
                _ => failed(format!("unexpected reply {}", resp.status)),
            },
        }
    }
}

/// Everything set-up builds for one run.
pub struct Env {
    /// The shared engine core (catalog, buffer pool).
    pub core: Arc<EngineCore>,
    /// One connection per client thread.
    pub conns: Vec<Conn>,
    /// The in-process server, for the wire workload.
    pub server: Option<ServerHandle>,
    /// `Client::connect` + greeting + `\mode native` samples (ms) taken
    /// during set-up (wire workload only).
    pub connect_ms: Vec<f64>,
    /// The workload's largest table (scan-rate probe).
    pub largest_table: &'static str,
    /// Sizes worth recording next to a result (rows, pages, ...).
    pub facts: Vec<(&'static str, f64)>,
}

impl Env {
    /// The in-process session of a single-session workload.
    pub fn session(&mut self) -> Option<&mut Session> {
        match self.conns.first_mut() {
            Some(Conn::InProc(s)) => Some(s),
            _ => None,
        }
    }

    /// Disconnect clients and stop the server, waiting for its threads.
    pub fn shutdown(mut self) -> Result<(), String> {
        for conn in self.conns.drain(..) {
            if let Conn::Wire(client) = conn {
                client.quit().map_err(|e| format!("client quit: {e}"))?;
            }
        }
        if let Some(server) = self.server.take() {
            server.stop().map_err(|e| format!("server stop: {e}"))?;
        }
        Ok(())
    }
}

/// One benchmark workload.
pub trait Workload: Sync {
    /// Name, as in `BENCHMARK.json`.
    fn name(&self) -> &'static str;
    /// Build tables, indexes, views, server and connections — the timed
    /// set-up.
    fn setup(&self, seed: u64, scale: Scale) -> Result<Env, String>;
    /// One statement source per client, generated from `seed`.
    fn sources(&self, seed: u64, scale: Scale, env: &Env) -> Result<Vec<Box<dyn Source>>, String>;
    /// Statements per client in each fixed-count loop of a traced run
    /// (a whole number of list passes, so counters repeat exactly).
    fn traced_count(&self, scale: Scale) -> usize;
    /// End-of-run invariants; each returned string is one violation.
    fn final_check(&self, _env: &mut Env, _writes: &WriteTally) -> Vec<String> {
        Vec::new()
    }
    /// The layer-share prediction written down before measuring, if one
    /// was made: `(share metric, at least this share of statement time)`.
    fn predicted_share(&self) -> Option<(&'static str, f64)>;
}

/// Rows the measured statements inserted and deleted (for the row-count
/// invariant of the view workload).
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteTally {
    /// Rows inserted by successful INSERTs.
    pub inserted: u64,
    /// Rows removed by successful DELETEs.
    pub deleted: u64,
}

impl WriteTally {
    /// Count the rows a statement that passed the gate inserted or deleted.
    pub fn note(&mut self, stmt: &Stmt, outcome: &Outcome) {
        match stmt.class {
            "insert" => self.inserted += outcome.rows,
            "delete" => self.deleted += outcome.rows,
            _ => {}
        }
    }

    /// Fold another tally in.
    pub fn add(&mut self, other: WriteTally) {
        self.inserted += other.inserted;
        self.deleted += other.deleted;
    }
}

/// All workloads, in reporting order.
pub fn all() -> [&'static dyn Workload; 4] {
    [
        &jobsearch::JobSearch,
        &skyline::Skyline,
        &wire::WireShort,
        &viewdml::ViewDml,
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static dyn Workload> {
    all().into_iter().find(|w| w.name() == name)
}

/// An in-process session over a fresh mem-backed core, independent of
/// `PREFSQL_*` environment defaults.
pub(crate) fn mem_session() -> (Arc<EngineCore>, Session) {
    let core = Arc::new(EngineCore::with_storage(
        prefsql_engine::BackendKind::Mem,
        prefsql_types::knobs::DEFAULT_POOL_BYTES,
    ));
    let session = Session::with_core(Arc::clone(&core));
    (core, session)
}

/// Run set-up SQL that must succeed.
pub(crate) fn must(session: &mut Session, sql: &str) -> Result<(), String> {
    session
        .execute(sql)
        .map(|_| ())
        .map_err(|e| format!("set-up statement failed: {e}: {sql}"))
}
