//! The per-connection session runtime.
//!
//! A [`Session`] is what one client *owns*: the execution mode
//! (`\mode`), the preference registry + rewriter, a private spill
//! directory for external-memory runs, and an [`Engine`] façade holding
//! the resource knobs (`\algo`, `\threads`, `\window`) as one
//! [`NativeOptions`] value that every statement runs under. What it
//! *borrows* is the shared [`EngineCore`] — catalog and index toggles —
//! so any number of sessions can serve concurrent connections against
//! one database:
//!
//! ```text
//!            ┌───────────┐ ┌───────────┐ ┌───────────┐
//! clients ──►│ Session 1 │ │ Session 2 │ │ Session N │   knobs, rewriter,
//!            └─────┬─────┘ └─────┬─────┘ └─────┬─────┘   spill dir
//!                  └──────┬──────┴──────┬──────┘
//!                         ▼             ▼
//!                  ┌─────────────────────────┐
//!                  │  EngineCore (Arc)       │   RwLock<Catalog>
//!                  └─────────────────────────┘
//! ```
//!
//! Both the interactive shell and the TCP server are thin clients of
//! this type: all knob handling lives in [`Session::command`], so the
//! two front ends cannot drift.

use crate::native::{self, NativeOptions, SkylineAlgo};
use crate::result::ResultSet;
use prefsql_engine::{BackendKind, Engine, EngineCore, ExecOutcome};
use prefsql_parser::ast::{Expr as PExpr, InsertSource, Query, Statement};
use prefsql_parser::{parse_statement, parse_statements};
use prefsql_rewrite::{RewriteOutput, Rewriter};
use prefsql_types::knobs::{fmt_bytes, parse_size, MIN_WINDOW_BYTES};
use prefsql_types::{Error, Result};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How preference queries are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// The paper's approach: rewrite to SQL92 and let the host engine
    /// evaluate the `NOT EXISTS` dominance anti-join.
    #[default]
    Rewrite,
    /// Native evaluation through the engine's `Preference` plan node
    /// (ablation A1: "implementing a generalized skyline operator in the
    /// kernel ... holds much promise"). The default is
    /// [`SkylineAlgo::Auto`] — see [`ExecutionMode::native`].
    Native(SkylineAlgo),
}

impl ExecutionMode {
    /// Native evaluation with the default algorithm
    /// ([`SkylineAlgo::Auto`]).
    pub fn native() -> Self {
        ExecutionMode::Native(SkylineAlgo::default())
    }

    /// The label the shell and server display: `rewrite` or
    /// `native (<algo>)`.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::Rewrite => "rewrite",
            ExecutionMode::Native(SkylineAlgo::Naive) => "native (naive)",
            ExecutionMode::Native(SkylineAlgo::Bnl) => "native (bnl)",
            ExecutionMode::Native(SkylineAlgo::Auto) => "native (auto)",
        }
    }
}

/// Result of executing one Preference SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Rows of a SELECT.
    Rows(ResultSet),
    /// Affected-row count of an INSERT, UPDATE or DELETE.
    Count(usize),
    /// Acknowledgement of DDL or preference DDL.
    Message(String),
    /// EXPLAIN output (includes the rewritten SQL for preference queries).
    Explain(String),
}

impl QueryResult {
    /// The rows of a SELECT result, or `None` for counts/messages/EXPLAIN.
    pub fn rows(&self) -> Option<&ResultSet> {
        match self {
            QueryResult::Rows(rs) => Some(rs),
            _ => None,
        }
    }

    /// Consume the result into its rows, or `None` for other outcomes.
    pub fn into_rows(self) -> Option<ResultSet> {
        match self {
            QueryResult::Rows(rs) => Some(rs),
            _ => None,
        }
    }

    /// The rows of a SELECT result (panics otherwise; test/demo
    /// convenience — production code should prefer [`QueryResult::rows`]).
    pub fn expect_rows(self) -> ResultSet {
        match self {
            QueryResult::Rows(rs) => rs,
            other => panic!("expected rows, got {other:?}"),
        }
    }
}

/// Distinguishes concurrently-created session spill dirs within one
/// process (the directory name also carries the pid, so concurrent
/// *processes* cannot collide either).
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// One client's runtime state over a shared [`EngineCore`]: execution
/// mode, rewriter/registry, and a lazily created private spill directory
/// (removed on drop). The native-evaluation knobs are the engine
/// façade's one [`NativeOptions`] value.
pub struct Session {
    engine: Engine,
    rewriter: Rewriter,
    /// Whether preference SELECTs run natively (`\mode native`) instead
    /// of through the rewrite; the algorithm is the knobs' `algo`.
    native: bool,
    /// This session's private spill directory, created on first use and
    /// removed when the session drops.
    spill_dir: Option<PathBuf>,
    /// Number of materialized preference views the last forwarded
    /// statement incrementally maintained (front ends print it after
    /// DML, the way spill metrics follow a windowed query).
    last_view_maintained: u64,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A fresh session over its own private core (an empty catalog).
    pub fn new() -> Self {
        Session::with_core(EngineCore::shared())
    }

    /// A session over an existing shared core — the server spawns one of
    /// these per accepted connection.
    pub fn with_core(core: Arc<EngineCore>) -> Self {
        core.metrics().session_opened();
        let mut session = Session {
            engine: Engine::with_core(core),
            rewriter: Rewriter::new(),
            native: false,
            spill_dir: None,
            last_view_maintained: 0,
        };
        // The engine starts at the defaults without a window; the
        // session's default window comes with its spill directory.
        session.set_window_bytes(NativeOptions::default().window_bytes);
        session
    }

    /// The shared engine core this session executes against.
    pub fn core(&self) -> &Arc<EngineCore> {
        self.engine.core()
    }

    /// The session's engine façade (catalog access, stats, index toggles).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (bulk loading, index toggles).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Switch the evaluation strategy for preference queries. Entering
    /// native mode with an algorithm also sets the `\algo` knob.
    pub fn set_mode(&mut self, mode: ExecutionMode) {
        self.native = match mode {
            ExecutionMode::Rewrite => false,
            ExecutionMode::Native(algo) => {
                self.set_algo(algo);
                true
            }
        };
    }

    /// The current evaluation strategy.
    pub fn mode(&self) -> ExecutionMode {
        if self.native {
            ExecutionMode::Native(self.algo())
        } else {
            ExecutionMode::Rewrite
        }
    }

    /// Set the native skyline algorithm. Applies immediately when in
    /// native mode, and is remembered for the next `\mode native`.
    pub fn set_algo(&mut self, algo: SkylineAlgo) {
        self.engine.set_knobs(NativeOptions {
            algo,
            ..self.engine.knobs()
        });
    }

    /// The native skyline algorithm `\mode native` would use.
    pub fn algo(&self) -> SkylineAlgo {
        self.engine.knobs().algo
    }

    /// Cap the parallel-window degree for native preference evaluation
    /// (clamped to at least 1; `1` forces the serial window). The
    /// skyline only actually parallelizes above
    /// [`prefsql_pref::PARALLEL_CUTOFF`] candidates.
    pub fn set_threads(&mut self, threads: usize) {
        self.engine.set_knobs(NativeOptions {
            threads: threads.max(1),
            ..self.engine.knobs()
        });
    }

    /// The parallel-window degree knob.
    pub fn threads(&self) -> usize {
        self.engine.knobs().threads
    }

    /// Set the external-memory window budget (default: `PREFSQL_WINDOW`,
    /// or `None` = unbounded): `Some(bytes)` streams native candidate
    /// sets larger than the budget through the bounded-window multi-pass
    /// BNL with spill-to-disk overflow runs, and partitions oversized
    /// hash-join build sides (clamped to at least [`MIN_WINDOW_BYTES`]);
    /// `None` never spills.
    ///
    /// The budget and the session's spill directory are set once, here,
    /// on the engine: every statement context — plain SQL joins and
    /// native preference evaluation alike — reads them from there.
    pub fn set_window_bytes(&mut self, window_bytes: Option<usize>) {
        let window_bytes = window_bytes.map(|b| b.max(MIN_WINDOW_BYTES));
        self.engine.set_knobs(NativeOptions {
            window_bytes,
            ..self.engine.knobs()
        });
        let base = window_bytes.map(|_| self.spill_base().to_path_buf());
        self.engine.set_spill_base(base);
    }

    /// The external-memory window budget knob.
    pub fn window_bytes(&self) -> Option<usize> {
        self.engine.knobs().window_bytes
    }

    /// The session's private spill directory, named on first use.
    /// External-memory runs land here instead of the bare system temp
    /// dir, so concurrent sessions never share spill state and teardown
    /// is one `remove_dir_all`. The directory itself only appears the
    /// first time an operator actually spills (`SpillManager::new_in`
    /// creates the whole path), so sessions that never overflow never
    /// touch the filesystem.
    fn spill_base(&mut self) -> &Path {
        self.spill_dir.get_or_insert_with(|| {
            std::env::temp_dir().join(format!(
                "prefsql-session-{}-{}",
                std::process::id(),
                SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        })
    }

    /// Execute one statement of Preference SQL.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute a `;`-separated script, returning one result per statement.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        parse_statements(sql)?
            .iter()
            .map(|s| self.execute_statement(s))
            .collect()
    }

    /// Execute a query and return its rows (errors on non-SELECT).
    pub fn query(&mut self, sql: &str) -> Result<ResultSet> {
        match self.execute(sql)? {
            QueryResult::Rows(rs) => Ok(rs),
            other => Err(Error::Exec(format!(
                "statement did not produce rows: {other:?}"
            ))),
        }
    }

    /// The SQL a preference statement is rewritten into (passthrough
    /// statements return `None`). Purely introspective — nothing is
    /// executed.
    pub fn rewritten_sql(&mut self, sql: &str) -> Result<Option<String>> {
        let stmt = parse_statement(sql)?;
        match self.rewriter.process(&stmt)? {
            RewriteOutput::Rewritten { sql, .. } => Ok(Some(sql)),
            RewriteOutput::Passthrough => Ok(None),
            RewriteOutput::Handled(_) => Err(Error::Exec(
                "statement is preference DDL, not a query".into(),
            )),
        }
    }

    /// Number of materialized preference views the last forwarded
    /// statement incrementally maintained (0 for reads and for DML on
    /// tables without views).
    pub fn last_view_maintained(&self) -> u64 {
        self.last_view_maintained
    }

    /// Execute a parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        // Every statement — whichever path evaluates it — feeds the
        // engine-wide metrics registry exactly once, here.
        let started = Instant::now();
        let result = self.execute_statement_inner(stmt);
        let metrics = self.engine.core().metrics();
        metrics.note_statement(started.elapsed().as_nanos() as u64, result.is_ok());
        match &result {
            Ok(QueryResult::Rows(rs)) => metrics.add_rows_returned(rs.len() as u64),
            Ok(QueryResult::Count(n)) => metrics.add_rows_affected(*n as u64),
            _ => {}
        }
        result
    }

    fn execute_statement_inner(&mut self, stmt: &Statement) -> Result<QueryResult> {
        // Materialized preference view DDL: the engine owns the stored
        // result but has no preference registry, so named preferences in
        // the definition resolve through this session's registry first.
        if let Statement::CreateMaterializedView { name, query } = stmt {
            let mut q = (**query).clone();
            if let Some(p) = &q.preferring {
                q.preferring = Some(self.rewriter.registry().resolve(p)?);
            }
            let resolved = Statement::CreateMaterializedView {
                name: name.clone(),
                query: Box::new(q),
            };
            return self.forward(&resolved, false);
        }
        // Native mode hands preference SELECTs — plain or under EXPLAIN
        // [ANALYZE] — to the engine's preference planner.
        if self.native {
            let (target, explain) = match stmt {
                Statement::Explain { analyze, statement } => (statement.as_ref(), Some(*analyze)),
                other => (other, None),
            };
            if let Statement::Select(q) = target {
                if q.preferring.is_some() {
                    return self.run_native(q, explain);
                }
            }
        }
        match self.rewriter.process(stmt)? {
            RewriteOutput::Handled(msg) => Ok(QueryResult::Message(msg)),
            RewriteOutput::Passthrough => self.forward(stmt, false),
            RewriteOutput::Rewritten { statement, sql, .. } => {
                // EXPLAIN of a preference query shows the rewrite first
                // (ANALYZE additionally executes the rewritten statement
                // and annotates the host plan — the engine handles both).
                if let Statement::Explain {
                    statement: inner, ..
                } = statement.as_ref()
                {
                    let plan = match self.engine.execute(&statement)? {
                        ExecOutcome::Explain(p) => p,
                        other => {
                            return Err(Error::Exec(format!(
                                "EXPLAIN produced unexpected outcome: {other:?}"
                            )))
                        }
                    };
                    return Ok(QueryResult::Explain(format!(
                        "Preference SQL rewrite:\n  {}\n\nHost engine plan:\n{plan}",
                        inner
                    )));
                }
                let _ = sql; // the wire-format text; statement is executed directly

                // INSERT ... SELECT * PREFERRING ...: a wildcard over the
                // rewritten query exposes the generated level columns, which
                // must not reach the target table. Materialize, strip, then
                // insert the clean rows through the engine's validation path.
                if let Statement::Insert {
                    table,
                    columns,
                    source: InsertSource::Query(q),
                } = statement.as_ref()
                {
                    let rel = self.engine.run_query(q)?;
                    let rs = ResultSet::new(rel).strip_generated_columns();
                    let values: Vec<Vec<PExpr>> = rs
                        .rows()
                        .iter()
                        .map(|r| r.values().iter().cloned().map(PExpr::Literal).collect())
                        .collect();
                    if values.is_empty() {
                        return Ok(QueryResult::Count(0));
                    }
                    let insert = Statement::Insert {
                        table: table.clone(),
                        columns: columns.clone(),
                        source: InsertSource::Values(values),
                    };
                    return self.forward(&insert, false);
                }
                self.forward(&statement, true)
            }
        }
    }

    /// The shared buffer pool's counters before a statement, so its row
    /// result can report the statement's own delta (paged backend only —
    /// the counters are cumulative across all sessions on the core).
    fn pool_snapshot(&self) -> Option<prefsql_storage::PoolStats> {
        match self.engine.backend_kind() {
            BackendKind::Paged => Some(self.engine.pool_stats()),
            BackendKind::Mem => None,
        }
    }

    fn forward(&mut self, stmt: &Statement, strip_generated: bool) -> Result<QueryResult> {
        // Discard spill and view-maintenance accounting a prior rowless
        // statement (e.g. an INSERT ... SELECT whose join spilled) may
        // have left behind, so every result reports only its own work.
        let _ = self.engine.take_spill_metrics();
        let _ = self.engine.take_view_maintenance();
        self.last_view_maintained = 0;
        let pool_before = self.pool_snapshot();
        let outcome = self.engine.execute(stmt)?;
        self.last_view_maintained = self.engine.take_view_maintenance();
        match outcome {
            ExecOutcome::Rows(rel) => {
                let rs = ResultSet::new(rel);
                let rs = if strip_generated {
                    rs.strip_generated_columns()
                } else {
                    rs
                };
                // A hash join that overflowed `\window` reports its run
                // accounting the same way native skylines do.
                let rs = rs.with_spill(self.engine.take_spill_metrics());
                let rs =
                    rs.with_pool(pool_before.map(|before| self.engine.pool_stats().since(&before)));
                Ok(QueryResult::Rows(rs))
            }
            ExecOutcome::Count(n) => Ok(QueryResult::Count(n)),
            ExecOutcome::Ddl(msg) => Ok(QueryResult::Message(msg)),
            ExecOutcome::Explain(text) => Ok(QueryResult::Explain(text)),
        }
    }

    /// A native-mode preference SELECT: executed (`explain: None`),
    /// explained (`Some(false)`), or — `EXPLAIN ANALYZE`, `Some(true)` —
    /// executed with every operator of its one plan tree instrumented and
    /// reported as that tree plus the statement's footer lines.
    fn run_native(&mut self, q: &Query, explain: Option<bool>) -> Result<QueryResult> {
        let registry = self.rewriter.registry();
        if explain == Some(false) {
            let plan = native::explain(&self.engine, registry, q)?;
            return Ok(QueryResult::Explain(format!(
                "Native preference plan:\n{plan}"
            )));
        }
        // Like `forward`, report this statement's buffer-pool delta.
        let pool_before = self.pool_snapshot();
        let analyze = explain.is_some();
        let was = self.engine.profiling();
        self.engine.set_profiling(was || analyze);
        let started = Instant::now();
        let result = native::run_native_in(&self.engine, registry, q, self.engine.knobs(), None);
        self.engine.set_profiling(was);
        let elapsed = started.elapsed();
        let rs = result?.with_pool(pool_before.map(|b| self.engine.pool_stats().since(&b)));
        if !analyze {
            return Ok(QueryResult::Rows(rs));
        }
        let mut text = format!(
            "Native preference plan:\n{}",
            self.engine.take_analyzed().unwrap_or_default()
        );
        let _ = writeln!(
            text,
            "Preference evaluation: {} winner(s), {} dominance comparison(s)",
            rs.len(),
            rs.dominance_tests()
        );
        if let Some(m) = rs.spill_metrics() {
            let _ = writeln!(
                text,
                "{}",
                crate::footer::spill_line(&self.window_label(), m)
            );
        }
        if let Some(p) = rs.pool_stats() {
            let _ = writeln!(text, "{}", crate::footer::pool_line(&self.pool_label(), p));
        }
        let _ = writeln!(
            text,
            "Execution: returned {} row(s) in {:.3} ms",
            rs.len(),
            elapsed.as_secs_f64() * 1e3
        );
        Ok(QueryResult::Explain(text))
    }

    /// Arm or disarm always-on statement profiling: every subsequently
    /// executed statement leaves its analyzed plan behind for
    /// [`Session::take_analyzed`]. The server's slow-query log runs
    /// sessions this way; `EXPLAIN ANALYZE` needs no arming.
    pub fn set_profile_all(&mut self, on: bool) {
        self.engine.set_profiling(on);
    }

    /// Consume the analyzed plan of the last profiled statement
    /// (`None` when the statement did not execute a profiled plan —
    /// DDL, meta output, or profiling not armed).
    pub fn take_analyzed(&mut self) -> Option<String> {
        self.engine.take_analyzed()
    }

    /// Handle a session-level `\`-meta-command shared by every front end
    /// (shell, server): `\mode`, `\algo`, `\threads`, `\window`,
    /// `\pool`, `\backend`, `\metrics`, `\rewrite`, `\d`. Returns `None` for
    /// commands the session does not own (`\q`, `\timing`, `\help`, ...)
    /// so the caller can layer its own on top.
    pub fn command(&mut self, head: &str, arg: &str) -> Option<String> {
        let out = match head {
            "\\mode" => match arg {
                "" => format!("mode: {}\n", self.mode().label()),
                "rewrite" => {
                    self.set_mode(ExecutionMode::Rewrite);
                    "mode: rewrite\n".into()
                }
                // `\mode native` uses the session's `\algo` choice
                // (auto unless changed).
                "native" => {
                    self.native = true;
                    format!("mode: {}\n", self.mode().label())
                }
                algo_arg if SkylineAlgo::parse(algo_arg).is_some() => {
                    let algo = SkylineAlgo::parse(algo_arg).expect("guard checked");
                    self.set_mode(ExecutionMode::Native(algo));
                    format!("mode: {}\n", self.mode().label())
                }
                other => {
                    format!("unknown mode '{other}' (rewrite|native|naive|bnl|auto)\n")
                }
            },
            "\\algo" => match arg {
                "" => format!("algo: {}\n", self.algo().label()),
                a => match SkylineAlgo::parse(a) {
                    Some(algo) => {
                        self.set_algo(algo);
                        format!("algo: {}\n", algo.label())
                    }
                    None => format!("unknown algorithm '{a}' (auto|naive|bnl)\n"),
                },
            },
            "\\threads" => match arg {
                "" => format!("threads: {}\n", self.threads()),
                n => match n.parse::<usize>() {
                    Ok(n) if n >= 1 => {
                        self.set_threads(n);
                        format!("threads: {}\n", self.threads())
                    }
                    _ => format!("invalid thread count '{n}' (positive integer)\n"),
                },
            },
            "\\window" => match arg {
                "" => format!("window: {}\n", self.window_label()),
                "off" | "unlimited" => {
                    self.set_window_bytes(None);
                    "window: off\n".into()
                }
                w => match parse_size(w) {
                    // `set_window_bytes` clamps sub-minimum budgets up to
                    // MIN_WINDOW_BYTES; echo what actually took effect,
                    // flagging when it differs from what was asked for.
                    Some(n) if n >= 1 => {
                        self.set_window_bytes(Some(n));
                        let clamped = if n < MIN_WINDOW_BYTES {
                            " (clamped)"
                        } else {
                            ""
                        };
                        format!("window: {}{clamped}\n", self.window_label())
                    }
                    _ => format!(
                        "invalid window budget '{w}' (bytes with optional k/m suffix, or 'off')\n"
                    ),
                },
            },
            "\\pool" => match arg {
                "" => format!("pool: {}\n", self.pool_label()),
                p => match parse_size(p) {
                    Some(n) if n >= 1 => match self.engine.core().resize_pool(n) {
                        // The pool clamps to its four-page floor and
                        // rounds to whole pages; echo the effective size,
                        // flagging when the floor raised the request.
                        Ok(effective) => {
                            let clamped = if effective > n { " (clamped)" } else { "" };
                            format!("pool: {}{clamped}\n", fmt_bytes(effective as u64))
                        }
                        Err(e) => format!("ERROR: {e}\n"),
                    },
                    _ => format!("invalid pool size '{p}' (bytes with optional k/m suffix)\n"),
                },
            },
            "\\backend" => match arg {
                "" => format!("backend: {}\n", self.engine.backend_kind().label()),
                // Unlike the `PREFSQL_BACKEND` ceiling (anything
                // non-"paged" means mem), an interactive typo should be
                // an error, not a silent fallback.
                b => match b.to_ascii_lowercase().as_str() {
                    kind @ ("mem" | "paged") => {
                        match self.engine.core().set_backend(BackendKind::parse(kind)) {
                            Ok(()) => format!("backend: {kind}\n"),
                            Err(e) => format!("ERROR: {e}\n"),
                        }
                    }
                    _ => format!("unknown backend '{b}' (mem|paged)\n"),
                },
            },
            "\\metrics" => {
                let mut out = String::new();
                for (k, v) in self.engine.core().metrics_report() {
                    let _ = writeln!(out, "{k:<32} {v}");
                }
                out
            }
            "\\rewrite" => match self.rewritten_sql(arg) {
                Ok(Some(sql)) => format!("{sql}\n"),
                Ok(None) => "query contains no preference constructs\n".into(),
                Err(e) => format!("ERROR: {e}\n"),
            },
            "\\d" => {
                if arg.is_empty() {
                    self.list_relations()
                } else {
                    self.describe_table(arg)
                }
            }
            _ => return None,
        };
        Some(out)
    }

    /// The `\window` display label: `64 KiB` or `off`.
    pub fn window_label(&self) -> String {
        match self.window_bytes() {
            Some(b) => fmt_bytes(b as u64),
            None => "off".into(),
        }
    }

    /// The `\pool` display label: the shared buffer pool's current
    /// capacity, e.g. `1 MiB`.
    pub fn pool_label(&self) -> String {
        let stats = self.engine.pool_stats();
        fmt_bytes((stats.capacity_pages * prefsql_storage::page::PAGE_SIZE) as u64)
    }

    fn list_relations(&self) -> String {
        let catalog = self.engine.catalog();
        let mut out = String::new();
        let tables = catalog.table_names();
        let views = catalog.view_names();
        let _ = writeln!(out, "tables ({}):", tables.len());
        for t in tables {
            let n = catalog.table(&t).map(|t| t.len()).unwrap_or(0);
            let _ = writeln!(out, "  {t} ({n} rows)");
        }
        if !views.is_empty() {
            let _ = writeln!(out, "views ({}):", views.len());
            for v in views {
                let _ = writeln!(out, "  {v}");
            }
        }
        let matviews = catalog.matview_names();
        if !matviews.is_empty() {
            let _ = writeln!(out, "materialized preference views ({}):", matviews.len());
            for v in matviews {
                match catalog.matview(&v) {
                    Some(d) if d.stale => {
                        let _ = writeln!(out, "  {v} (stale; REFRESH to rebuild)");
                    }
                    Some(d) => {
                        let _ = writeln!(out, "  {v} ({} rows)", d.winner_count());
                    }
                    None => {
                        let _ = writeln!(out, "  {v}");
                    }
                }
            }
        }
        out
    }

    fn describe_table(&self, name: &str) -> String {
        match self.engine.catalog().table(name) {
            Ok(t) => {
                let mut out = format!("table {} {}\n", t.name(), t.schema());
                let idx = t.index_names();
                if !idx.is_empty() {
                    let _ = writeln!(out, "indexes: {}", idx.join(", "));
                }
                out
            }
            Err(e) => format!("ERROR: {e}\n"),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.engine.core().metrics().session_closed();
        // Best-effort teardown of the private spill dir; leaking temp
        // files on failure beats panicking in a destructor.
        if let Some(dir) = self.spill_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_share_one_core() {
        let core = EngineCore::shared();
        let mut a = Session::with_core(Arc::clone(&core));
        let mut b = Session::with_core(core);
        a.execute("CREATE TABLE t (x INTEGER)").unwrap();
        a.execute("INSERT INTO t VALUES (3), (1)").unwrap();
        // Session B sees A's table through the shared catalog...
        let rs = b.query("SELECT x FROM t PREFERRING LOWEST(x)").unwrap();
        assert_eq!(rs.column_as_ints(0), vec![1]);
        // ...but keeps its own knobs and preference registry.
        b.set_mode(ExecutionMode::native());
        assert_eq!(a.mode(), ExecutionMode::Rewrite);
        b.execute("CREATE PREFERENCE cheap AS LOWEST(x)").unwrap();
        assert!(a
            .query("SELECT x FROM t PREFERRING PREFERENCE cheap")
            .is_err());
        let rs = b
            .query("SELECT x FROM t PREFERRING PREFERENCE cheap")
            .unwrap();
        assert_eq!(rs.column_as_ints(0), vec![1]);
    }

    #[test]
    fn knob_commands_round_trip() {
        let mut s = Session::new();
        assert_eq!(s.command("\\mode", "").unwrap(), "mode: rewrite\n");
        assert_eq!(s.command("\\mode", "bnl").unwrap(), "mode: native (bnl)\n");
        assert_eq!(s.command("\\algo", "").unwrap(), "algo: bnl\n");
        assert_eq!(s.command("\\algo", "naive").unwrap(), "algo: naive\n");
        assert_eq!(s.mode(), ExecutionMode::Native(SkylineAlgo::Naive));
        assert_eq!(
            s.command("\\algo", "warp").unwrap(),
            "unknown algorithm 'warp' (auto|naive|bnl)\n"
        );
        assert_eq!(s.command("\\threads", "4").unwrap(), "threads: 4\n");
        assert_eq!(s.threads(), 4);
        assert_eq!(s.command("\\window", "64k").unwrap(), "window: 64 KiB\n");
        assert_eq!(s.window_bytes(), Some(64 << 10));
        // A sub-minimum budget takes effect clamped, and says so.
        assert_eq!(
            s.command("\\window", "100").unwrap(),
            "window: 4 KiB (clamped)\n"
        );
        assert_eq!(s.window_bytes(), Some(MIN_WINDOW_BYTES));
        assert_eq!(s.command("\\window", "off").unwrap(), "window: off\n");
        // The storage knobs: backend is introspectable, the pool resizes
        // with the same clamp reporting as `\window`.
        assert_eq!(s.command("\\backend", "").unwrap(), "backend: mem\n");
        assert!(s
            .command("\\backend", "disk")
            .unwrap()
            .contains("unknown backend"));
        assert_eq!(s.command("\\pool", "64k").unwrap(), "pool: 64 KiB\n");
        assert_eq!(s.command("\\pool", "").unwrap(), "pool: 64 KiB\n");
        assert_eq!(
            s.command("\\pool", "1k").unwrap(),
            "pool: 16 KiB (clamped)\n"
        );
        assert!(s
            .command("\\pool", "banana")
            .unwrap()
            .contains("invalid pool size"));
        // Commands the session doesn't own bounce back to the front end.
        assert!(s.command("\\q", "").is_none());
        assert!(s.command("\\timing", "").is_none());
    }

    /// prefbench's trace rebuilds `NativeOptions` from the session's
    /// accessors and runs `run_native_in` beside `Session::execute`; the
    /// two roads must run under the same knobs and agree.
    #[test]
    fn session_knobs_and_run_native_in_agree() {
        let mut s = Session::new();
        assert_eq!(s.engine().knobs(), NativeOptions::default());
        s.execute("CREATE TABLE t (x INTEGER, y INTEGER)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 9), (5, 5), (9, 1), (9, 9), (2, 8)")
            .unwrap();
        for (head, arg) in [
            ("\\threads", "3"),
            ("\\window", "64k"),
            ("\\algo", "bnl"),
            ("\\mode", "native"),
        ] {
            s.command(head, arg).unwrap();
        }
        let sql = "SELECT x, y FROM t PREFERRING LOWEST(x) AND LOWEST(y)";
        let plan = match s.execute(&format!("EXPLAIN {sql}")).unwrap() {
            QueryResult::Explain(p) => p,
            other => panic!("expected EXPLAIN output, got {other:?}"),
        };
        assert!(plan.contains("algo=bnl"), "{plan}");

        let ExecutionMode::Native(algo) = s.mode() else {
            panic!("expected native mode, got {:?}", s.mode());
        };
        let opts = NativeOptions {
            algo,
            threads: s.threads(),
            batch: Some(prefsql_engine::physical::DEFAULT_BATCH),
            window_bytes: s.window_bytes(),
        };
        assert_eq!(opts, s.engine().knobs());
        assert_eq!((opts.threads, opts.window_bytes), (3, Some(64 << 10)));
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!("expected a SELECT");
        };
        let one_call =
            native::run_native_in(s.engine(), s.rewriter.registry(), &q, opts, None).unwrap();
        let session = s.query(sql).unwrap();
        assert_eq!(session, one_call);
        assert_eq!(session.dominance_tests(), one_call.dominance_tests());
        assert_eq!(session.column_as_ints(0), vec![1, 5, 9, 2]);
    }

    #[test]
    fn algo_is_remembered_across_mode_switches() {
        let mut s = Session::new();
        s.set_algo(SkylineAlgo::Naive);
        assert_eq!(
            s.mode(),
            ExecutionMode::Rewrite,
            "algo alone doesn't switch"
        );
        s.set_mode(ExecutionMode::Native(s.algo()));
        assert_eq!(s.mode(), ExecutionMode::Native(SkylineAlgo::Naive));
        // Changing the algorithm while native applies immediately.
        s.set_algo(SkylineAlgo::Bnl);
        assert_eq!(s.mode(), ExecutionMode::Native(SkylineAlgo::Bnl));
    }

    #[test]
    fn matview_serves_native_queries_and_tracks_dml() {
        let mut s = Session::new();
        s.execute("CREATE TABLE cars (id INTEGER, price INTEGER, hp INTEGER)")
            .unwrap();
        s.execute("INSERT INTO cars VALUES (1, 10, 90), (2, 20, 120), (3, 15, 120), (4, 30, 200)")
            .unwrap();
        // Named preferences resolve through the session registry before
        // the engine stores the definition.
        s.execute("CREATE PREFERENCE sporty AS LOWEST(price) AND HIGHEST(hp)")
            .unwrap();
        s.execute(
            "CREATE MATERIALIZED PREFERENCE VIEW best AS \
             SELECT * FROM cars PREFERRING PREFERENCE sporty",
        )
        .unwrap();

        let sql = "SELECT id FROM cars PREFERRING PREFERENCE sporty";
        s.set_mode(ExecutionMode::native());
        let hit = s.query(sql).unwrap();
        assert_eq!(
            hit.view_activity().and_then(|v| v.served_by.as_deref()),
            Some("best"),
            "native query over the view's BMO is served from the cache"
        );
        // Byte-identical to the rewrite-path recomputation.
        s.set_mode(ExecutionMode::Rewrite);
        let oracle = s.query(sql).unwrap();
        assert!(oracle.view_activity().is_none(), "rewrite path recomputes");
        assert_eq!(hit, oracle);

        // EXPLAIN says how the cache relates to the query.
        s.set_mode(ExecutionMode::native());
        let plan = match s.execute(&format!("EXPLAIN {sql}")).unwrap() {
            QueryResult::Explain(p) => p,
            other => panic!("expected EXPLAIN output, got {other:?}"),
        };
        assert!(plan.contains("[view=best hit]"), "{plan}");
        assert!(plan.contains("Materialized view scan: best"), "{plan}");
        let plan = match s
            .execute("EXPLAIN SELECT id FROM cars PREFERRING LOWEST(hp)")
            .unwrap()
        {
            QueryResult::Explain(p) => p,
            other => panic!("expected EXPLAIN output, got {other:?}"),
        };
        assert!(plan.contains("[view=best miss]"), "{plan}");

        // DML reports incremental maintenance, and the next hit serves
        // the updated winner set.
        assert_eq!(s.last_view_maintained(), 0);
        s.execute("INSERT INTO cars VALUES (5, 5, 300)").unwrap();
        assert_eq!(s.last_view_maintained(), 1);
        let hit = s.query(sql).unwrap();
        assert_eq!(hit.column_as_ints(0), vec![5], "(5,300) dominates all");
        s.execute("DELETE FROM cars WHERE id = 5").unwrap();
        assert_eq!(s.last_view_maintained(), 1);
        let hit = s.query(sql).unwrap();
        s.set_mode(ExecutionMode::Rewrite);
        assert_eq!(hit, s.query(sql).unwrap(), "delete-of-winner promotes");

        // `\d` lists the view with its current cardinality.
        let listing = s.command("\\d", "").unwrap();
        assert!(
            listing.contains("materialized preference views (1):"),
            "{listing}"
        );
        assert!(listing.contains("best ("), "{listing}");
    }

    #[test]
    fn spill_dir_is_private_and_removed_on_drop() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (x INTEGER, y INTEGER)").unwrap();
        let values: Vec<String> = (0..400).map(|i| format!("({i}, {})", 400 - i)).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        s.set_mode(ExecutionMode::native());
        s.set_window_bytes(Some(4096));
        let rs = s
            .query("SELECT x FROM t PREFERRING LOWEST(x) AND LOWEST(y)")
            .unwrap();
        assert_eq!(rs.rows().len(), 400);
        let m = rs.spill_metrics().expect("bounded window reports metrics");
        assert!(m.runs_written >= 1, "anti-correlated 400 rows must spill");
        let dir = s.spill_dir.clone().expect("spill dir was created");
        assert!(dir.exists());
        drop(s);
        assert!(!dir.exists(), "session teardown removes its spill dir");
    }

    #[test]
    fn passthrough_standard_sql() {
        let mut c = Session::new();
        c.execute("CREATE TABLE t (x INTEGER)").unwrap();
        assert_eq!(
            c.execute("INSERT INTO t VALUES (1), (2)").unwrap(),
            QueryResult::Count(2)
        );
        let rs = c.query("SELECT x FROM t ORDER BY x DESC").unwrap();
        assert_eq!(rs.column_as_ints(0), vec![2, 1]);
    }

    #[test]
    fn preference_query_executes_via_rewrite() {
        let mut c = Session::new();
        c.execute("CREATE TABLE t (x INTEGER)").unwrap();
        c.execute("INSERT INTO t VALUES (5), (9), (14), (20)")
            .unwrap();
        let rs = c.query("SELECT x FROM t PREFERRING x AROUND 13").unwrap();
        assert_eq!(rs.column_as_ints(0), vec![14]);
    }

    #[test]
    fn select_star_hides_level_columns() {
        let mut c = Session::new();
        c.execute("CREATE TABLE t (x INTEGER, y VARCHAR)").unwrap();
        c.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        let rs = c.query("SELECT * FROM t PREFERRING LOWEST(x)").unwrap();
        assert_eq!(rs.column_names(), vec!["x", "y"]);
        assert_eq!(rs.rows().len(), 1);
    }

    #[test]
    fn rewritten_sql_introspection() {
        let mut c = Session::new();
        let sql = c
            .rewritten_sql("SELECT * FROM t PREFERRING LOWEST(x)")
            .unwrap()
            .unwrap();
        assert!(sql.contains("NOT EXISTS"), "{sql}");
        assert!(c.rewritten_sql("SELECT * FROM t").unwrap().is_none());
    }

    #[test]
    fn preference_ddl_is_handled_in_layer() {
        let mut c = Session::new();
        c.execute("CREATE TABLE cars (price INTEGER)").unwrap();
        c.execute("INSERT INTO cars VALUES (10), (20)").unwrap();
        let r = c
            .execute("CREATE PREFERENCE cheap AS LOWEST(price)")
            .unwrap();
        assert!(matches!(r, QueryResult::Message(_)));
        let rs = c
            .query("SELECT price FROM cars PREFERRING PREFERENCE cheap")
            .unwrap();
        assert_eq!(rs.column_as_ints(0), vec![10]);
        c.execute("DROP PREFERENCE cheap").unwrap();
        assert!(c
            .query("SELECT price FROM cars PREFERRING PREFERENCE cheap")
            .is_err());
    }

    #[test]
    fn explain_shows_rewrite_and_plan() {
        let mut c = Session::new();
        c.execute("CREATE TABLE t (x INTEGER)").unwrap();
        let out = c
            .execute("EXPLAIN SELECT * FROM t PREFERRING LOWEST(x)")
            .unwrap();
        match out {
            QueryResult::Explain(text) => {
                assert!(text.contains("Preference SQL rewrite:"), "{text}");
                assert!(text.contains("NOT EXISTS"), "{text}");
                assert!(text.contains("Host engine plan:"), "{text}");
            }
            other => panic!("expected explain, got {other:?}"),
        }
    }

    #[test]
    fn threads_knob_is_clamped_and_preserves_results() {
        let mut c = Session::new();
        assert!(c.threads() >= 1);
        c.set_threads(0);
        assert_eq!(c.threads(), 1);
        c.set_threads(8);
        assert_eq!(c.threads(), 8);
        c.execute("CREATE TABLE t (x INTEGER)").unwrap();
        c.execute("INSERT INTO t VALUES (5), (3), (9)").unwrap();
        c.set_mode(ExecutionMode::native());
        let rs = c.query("SELECT x FROM t PREFERRING LOWEST(x)").unwrap();
        assert_eq!(rs.column_as_ints(0), vec![3]);
    }

    #[test]
    fn window_knob_is_clamped_and_preserves_results() {
        let mut c = Session::new();
        c.set_window_bytes(None);
        assert_eq!(c.window_bytes(), None);
        // Sub-minimum budgets clamp up to the smallest sane window.
        c.set_window_bytes(Some(1));
        assert_eq!(c.window_bytes(), Some(MIN_WINDOW_BYTES));
        c.set_window_bytes(Some(1 << 20));
        assert_eq!(c.window_bytes(), Some(1 << 20));
        // A bounded window returns the same rows, with metrics attached.
        c.execute("CREATE TABLE t (x INTEGER)").unwrap();
        c.execute("INSERT INTO t VALUES (5), (3), (9)").unwrap();
        c.set_mode(ExecutionMode::native());
        c.set_window_bytes(Some(4096));
        let rs = c.query("SELECT x FROM t PREFERRING LOWEST(x)").unwrap();
        assert_eq!(rs.column_as_ints(0), vec![3]);
        let m = rs.spill_metrics().expect("window budget reports metrics");
        assert_eq!(m.runs_written, 0, "3 tuples fit any window");
        assert_eq!(m.passes, 0, "stayed in memory");
        // Without a budget there are no metrics.
        c.set_window_bytes(None);
        let rs = c.query("SELECT x FROM t PREFERRING LOWEST(x)").unwrap();
        assert!(rs.spill_metrics().is_none());
    }

    #[test]
    fn script_execution() {
        let mut c = Session::new();
        let results = c
            .execute_script(
                "CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (3), (1); \
                 SELECT x FROM t PREFERRING LOWEST(x);",
            )
            .unwrap();
        assert_eq!(results.len(), 3);
        assert!(matches!(&results[2], QueryResult::Rows(rs) if rs.len() == 1));
    }
}
