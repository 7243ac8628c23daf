//! The traced run: spans recorded **in the benchmark's own code** around
//! calls into each crate's public functions, and the per-layer metrics
//! derived from them. Nothing under `crates/` is instrumented.
//!
//! A traced run makes three fixed-count passes over the workload's
//! statement stream (fixed counts, so the exact counters repeat):
//!
//! 1. **untraced** — the plain closed loop, for the reference wall time;
//! 2. **traced** — the same loop with one root span per statement and the
//!    entry-point call (`core.execute` or `server.roundtrip`) as its
//!    child; (traced − untraced) ÷ untraced is the tracing overhead;
//! 3. **staged replay** — single-threaded, in-process: each read runs
//!    once through `Session::execute` and once stage by stage (parse →
//!    process | compile → plan → execute → maximal → render), asserting
//!    that both give the same rows; each write runs stage by stage only,
//!    so it is applied exactly once.
//!
//! A layer's self time is its span minus its children; the shares the
//! README predicted are printed next to the measured ones.

use crate::json::Json;
use crate::metrics::{Metric, Report, PER_LAYER};
use crate::run::{check, class_table, drive, prepare, warm_up, RunArgs, Stop};
use crate::util::{calib_ms, median, quantile, sorted};
use crate::workload::{digest_rows, Conn, Env, Kind, Outcome, Stmt, Workload, WriteTally};
use prefsql::native::{run_native_in, NativeOptions};
use prefsql::{ExecutionMode, QueryResult, Session};
use prefsql_engine::{Engine, EngineCore, ExecOutcome, ExecStats};
use prefsql_parser::ast::{Expr, Query, SelectItem, Statement};
use prefsql_parser::parse_statement;
use prefsql_pref::{bmo_grouped, maximal_with_threads};
use prefsql_rewrite::levels::GEN_PREFIX;
use prefsql_rewrite::{compile_preference, RewriteOutput, Rewriter};
use prefsql_server::protocol;
use prefsql_types::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// One timed interval. Spans of one statement share `stmt_id`; `parent`
/// is the span that caused this one (0 for a root).
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (> 0).
    pub id: u32,
    /// Causing span, 0 for none.
    pub parent: u32,
    /// The statement this span belongs to.
    pub stmt_id: u32,
    /// `layer.name`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// An in-memory span recorder; written out only when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u32,
    /// Everything recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose ids start at `first_id` (threads get disjoint
    /// id ranges and a common epoch).
    pub fn new(epoch: Instant, first_id: u32) -> Self {
        Tracer {
            epoch,
            next_id: first_id.max(1),
            spans: Vec::new(),
        }
    }

    /// Take an id for a span whose end is not known yet.
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Record a span under a reserved id.
    pub fn put(
        &mut self,
        id: u32,
        name: &'static str,
        parent: u32,
        stmt_id: u32,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            stmt_id,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Record a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u32,
        stmt_id: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.put(id, name, parent, stmt_id, start, end);
        id
    }

    /// Time one call into a layer and record it.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        stmt_id: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.add(name, parent, stmt_id, start, Instant::now());
        out
    }
}

/// Which statement a `stmt_id` was (trace-file index).
#[derive(Debug, Clone)]
pub struct StmtRef {
    /// The id spans carry.
    pub stmt_id: u32,
    /// Pass: `traced` or `replay`.
    pub pass: &'static str,
    /// Client index.
    pub client: usize,
    /// Statement key.
    pub key: u32,
    /// Statement class.
    pub class: &'static str,
}

/// Per-client recorder for the traced pass (hooked into the closed loop
/// right after each reply).
#[derive(Debug)]
pub struct ClientProbe {
    /// The client's spans.
    pub tracer: Tracer,
    /// The statements those spans belong to.
    pub statements: Vec<StmtRef>,
    stmt_base: u32,
}

impl ClientProbe {
    /// A probe for `client`, with id ranges disjoint from other clients'.
    pub fn new(epoch: Instant, client: usize) -> Self {
        let base = (client as u32 + 1) << 26;
        ClientProbe {
            tracer: Tracer::new(epoch, base),
            statements: Vec::new(),
            stmt_base: base,
        }
    }

    /// Record one statement of the traced pass: a root span and the
    /// entry-point call as its child.
    pub fn record(
        &mut self,
        client: usize,
        stmt: &Stmt,
        wire: bool,
        sent: Instant,
        replied: Instant,
    ) {
        let stmt_id = self.stmt_base + self.statements.len() as u32;
        let root = self.tracer.add("stmt", 0, stmt_id, sent, replied);
        let call = if wire {
            "server.roundtrip"
        } else {
            "core.execute"
        };
        self.tracer.add(call, root, stmt_id, sent, replied);
        self.statements.push(StmtRef {
            stmt_id,
            pass: "traced",
            client,
            key: stmt.key,
            class: stmt.class,
        });
    }
}

/// Counters gathered at the same boundaries as the spans.
#[derive(Debug, Default)]
struct Counters {
    sql_bytes: u64,
    processed: u64,
    rewritten: u64,
    sql_bytes_out: u64,
    stats: ExecStats,
    rows_out: u64,
    views_maintained: u64,
    view_hits: u64,
    staged_tests: u64,
    candidates: u64,
    winners: u64,
    spill_bytes: u64,
    bytes_out: u64,
    mismatches: u64,
    statements: u64,
    failed: u64,
    problems: Vec<String>,
    writes: WriteTally,
}

impl Counters {
    fn problem(&mut self, text: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(text);
        }
    }

    fn mismatch(&mut self, text: String) {
        self.mismatches += 1;
        self.problem(text);
    }
}

/// The candidate-slot query of a native preference statement:
/// `SELECT [id,] <base exprs> [, <grouping exprs>] FROM … WHERE …`.
/// `id` rides along (when the table has one) so staged winners can be
/// matched to the one-call result row by row.
fn candidate_query(q: &Query, base_exprs: &[Expr], with_id: bool) -> Query {
    let item = |expr: Expr, alias: String| SelectItem::Expr {
        expr,
        alias: Some(alias),
    };
    let mut select = Vec::new();
    if with_id {
        select.push(item(
            Expr::Column {
                qualifier: None,
                name: "id".into(),
            },
            "bench_id".into(),
        ));
    }
    select.extend(
        base_exprs
            .iter()
            .enumerate()
            .map(|(i, e)| item(e.clone(), format!("bench_s{i}"))),
    );
    select.extend(
        q.grouping
            .iter()
            .enumerate()
            .map(|(j, e)| item(e.clone(), format!("bench_g{j}"))),
    );
    Query {
        select,
        from: q.from.clone(),
        where_clause: q.where_clause.clone(),
        ..Default::default()
    }
}

/// Sorted first-column integers of a result that has an `id` column.
fn result_ids(rs: &prefsql::ResultSet) -> Option<Vec<i64>> {
    let at = rs.column_names().iter().position(|n| *n == "id")?;
    let mut ids: Vec<i64> = rs
        .rows()
        .iter()
        .filter_map(|r| r.get(at).as_int())
        .collect();
    ids.sort_unstable();
    Some(ids)
}

/// The staged replay of one session's statements.
struct Replay<'a> {
    session: &'a mut Session,
    rewriter: Rewriter,
    tracer: Tracer,
    statements: Vec<StmtRef>,
    counters: Counters,
}

impl Replay<'_> {
    fn native_opts(&self) -> Option<NativeOptions> {
        match self.session.mode() {
            ExecutionMode::Native(algo) => Some(NativeOptions {
                algo,
                threads: self.session.threads(),
                batch: Some(prefsql_engine::physical::DEFAULT_BATCH),
                window_bytes: self.session.window_bytes(),
            }),
            ExecutionMode::Rewrite => None,
        }
    }

    fn harvest_stats(&mut self) {
        let stats = self.session.engine().take_stats();
        self.counters.stats.absorb(stats);
    }

    /// Replay one statement; returns the digest the source observes.
    fn statement(
        &mut self,
        client: usize,
        stmt: &Stmt,
        expected: &mut HashMap<u32, (u64, u64)>,
    ) -> Outcome {
        let stmt_id = (1 << 30) + self.statements.len() as u32;
        self.statements.push(StmtRef {
            stmt_id,
            pass: "replay",
            client,
            key: stmt.key,
            class: stmt.class,
        });
        self.counters.statements += 1;
        self.counters.sql_bytes += stmt.sql.len() as u64;
        let root = self.tracer.reserve();
        let started = Instant::now();
        let _ = self.session.engine().take_stats();
        let outcome = match stmt.kind {
            Kind::Write => self.write(root, stmt_id, stmt),
            Kind::Read => self.read(root, stmt_id, stmt),
        };
        self.tracer
            .put(root, "stmt", 0, stmt_id, started, Instant::now());
        match check(stmt, &outcome, expected) {
            Err(problem) => self.counters.problem(problem),
            Ok(()) => self.counters.writes.note(stmt, &outcome),
        }
        outcome
    }

    /// parse → process → `Engine::execute`, the DML applied exactly once.
    fn write(&mut self, root: u32, stmt_id: u32, stmt: &Stmt) -> Outcome {
        let staged = self.tracer.reserve();
        let started = Instant::now();
        let outcome = (|| -> Result<Outcome, String> {
            let ast = self
                .tracer
                .time("parser.parse", staged, stmt_id, || {
                    parse_statement(&stmt.sql)
                })
                .map_err(|e| e.to_string())?;
            let processed = self
                .tracer
                .time("rewrite.process", staged, stmt_id, || {
                    self.rewriter.process(&ast)
                })
                .map_err(|e| e.to_string())?;
            self.counters.processed += 1;
            if !matches!(processed, RewriteOutput::Passthrough) {
                return Err("DML was not passed through".into());
            }
            let _ = self.session.engine().take_view_maintenance();
            let engine = self.session.engine_mut();
            let done = self
                .tracer
                .time("engine.dml", staged, stmt_id, || engine.execute(&ast))
                .map_err(|e| e.to_string())?;
            self.counters.views_maintained += self.session.engine().take_view_maintenance();
            match done {
                ExecOutcome::Count(n) => Ok(Outcome {
                    ok: true,
                    rows: n as u64,
                    ..Outcome::default()
                }),
                other => Err(format!("DML returned {other:?}")),
            }
        })();
        self.tracer
            .put(staged, "staged", root, stmt_id, started, Instant::now());
        self.harvest_stats();
        outcome.unwrap_or_else(|error| Outcome {
            error: Some(error),
            ..Outcome::default()
        })
    }

    /// One-call path, then the same statement stage by stage.
    fn read(&mut self, root: u32, stmt_id: u32, stmt: &Stmt) -> Outcome {
        let session = &mut *self.session;
        let one_call = self
            .tracer
            .time("core.execute", root, stmt_id, || session.execute(&stmt.sql));
        self.harvest_stats();
        let rs = match &one_call {
            Ok(QueryResult::Rows(rs)) => rs,
            other => {
                return Outcome {
                    error: Some(match other {
                        Ok(reply) => format!("a read returned {reply:?}"),
                        Err(e) => e.to_string(),
                    }),
                    ..Outcome::default()
                }
            }
        };
        let outcome = digest_rows(rs, stmt.want_ids);
        self.counters.rows_out += rs.len() as u64;
        let served = rs.view_activity().is_some_and(|v| v.served_by.is_some());
        self.counters.view_hits += u64::from(served);
        self.counters.spill_bytes += rs.spill_metrics().map_or(0, |m| m.bytes_spilled);

        let staged = self.tracer.reserve();
        let started = Instant::now();
        if let Err(problem) = self.stages(staged, stmt_id, stmt, rs, served) {
            self.counters.mismatch(format!("{problem}: {}", stmt.sql));
        }
        let mut lines = Vec::new();
        self.tracer.time("server.render", staged, stmt_id, || {
            protocol::render_result(&one_call, &mut lines)
        });
        self.counters.bytes_out += lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        self.tracer
            .put(staged, "staged", root, stmt_id, started, Instant::now());
        // The staged calls scan again; only the one-call path's work is
        // charged to the workload.
        let _ = self.session.engine().take_stats();
        let _ = self.session.engine().take_spill_metrics();
        outcome
    }

    fn stages(
        &mut self,
        staged: u32,
        stmt_id: u32,
        stmt: &Stmt,
        one_call: &prefsql::ResultSet,
        served: bool,
    ) -> Result<(), String> {
        let ast = self
            .tracer
            .time("parser.parse", staged, stmt_id, || {
                parse_statement(&stmt.sql)
            })
            .map_err(|e| e.to_string())?;
        let native = match (&ast, self.native_opts()) {
            (Statement::Select(q), Some(opts)) if q.preferring.is_some() => {
                Some((q.as_ref(), opts))
            }
            _ => None,
        };
        let Some((q, opts)) = native else {
            return self.rewrite_stages(staged, stmt_id, &ast, one_call);
        };

        // Native preference statement: `rewrite` only compiles.
        let pref = q.preferring.as_ref().expect("checked above");
        let resolved = self
            .rewriter
            .registry()
            .resolve(pref)
            .map_err(|e| e.to_string())?;
        let compiled = self
            .tracer
            .time("rewrite.compile", staged, stmt_id, || {
                compile_preference(&resolved)
            })
            .map_err(|e| e.to_string())?;
        // A view hit skips scan and dominance altogether; replaying them
        // would time work the statement never did.
        if !served {
            let ids = result_ids(one_call);
            let cand = candidate_query(q, &compiled.base_exprs, ids.is_some());
            let engine = self.session.engine_mut();
            self.tracer
                .time("engine.plan", staged, stmt_id, || engine.plan_for(&cand))
                .map_err(|e| e.to_string())?;
            let cand_stmt = Statement::Select(Box::new(cand));
            let rel = self
                .tracer
                .time("engine.execute", staged, stmt_id, || {
                    engine.execute(&cand_stmt)
                })
                .map_err(|e| e.to_string())?
                .into_rows()
                .ok_or("candidate query returned no relation")?;
            let skip = usize::from(ids.is_some());
            let arity = compiled.preference.arity();
            let slots: Vec<Vec<Value>> = rel
                .rows
                .iter()
                .map(|r| r.values()[skip..skip + arity].to_vec())
                .collect();
            let keys: Vec<Vec<Value>> = rel
                .rows
                .iter()
                .map(|r| r.values()[skip + arity..].to_vec())
                .collect();
            let _ = compiled.preference.take_comparisons();
            let winners = self.tracer.time("pref.maximal", staged, stmt_id, || {
                if q.grouping.is_empty() {
                    maximal_with_threads(&slots, &compiled.preference, opts.algo, opts.threads)
                } else {
                    bmo_grouped(&slots, &keys, &compiled.preference)
                }
            });
            self.counters.staged_tests += compiled.preference.take_comparisons();
            self.counters.candidates += slots.len() as u64;
            self.counters.winners += winners.len() as u64;
            let comparable = q.but_only.is_none() && q.limit.is_none() && !q.distinct;
            if comparable {
                if winners.len() != one_call.len() {
                    return Err(format!(
                        "staged BMO has {} winners, one call returned {}",
                        winners.len(),
                        one_call.len()
                    ));
                }
                if let Some(want) = ids {
                    let mut have: Vec<i64> = winners
                        .iter()
                        .filter_map(|&i| rel.rows[i].get(0).as_int())
                        .collect();
                    have.sort_unstable();
                    if have != want {
                        return Err("staged BMO picked other rows than one call".into());
                    }
                }
            }
        }
        let engine = self.session.engine();
        let registry = self.rewriter.registry();
        let whole = self
            .tracer
            .time("core.native", staged, stmt_id, || {
                run_native_in(engine, registry, q, opts, None)
            })
            .map_err(|e| e.to_string())?;
        if &whole != one_call {
            return Err("run_native_in and Session::execute disagree".into());
        }
        Ok(())
    }

    /// Rewrite-mode preference statement or plain SQL: process, plan,
    /// execute the rewritten (or original) statement on the host engine.
    fn rewrite_stages(
        &mut self,
        staged: u32,
        stmt_id: u32,
        ast: &Statement,
        one_call: &prefsql::ResultSet,
    ) -> Result<(), String> {
        let processed = self
            .tracer
            .time("rewrite.process", staged, stmt_id, || {
                self.rewriter.process(ast)
            })
            .map_err(|e| e.to_string())?;
        self.counters.processed += 1;
        let target = match &processed {
            RewriteOutput::Passthrough => ast,
            RewriteOutput::Rewritten { statement, sql, .. } => {
                self.counters.rewritten += 1;
                self.counters.sql_bytes_out += sql.len() as u64;
                statement.as_ref()
            }
            RewriteOutput::Handled(_) => return Err("preference DDL in a workload".into()),
        };
        let engine = self.session.engine_mut();
        if let Statement::Select(q) = target {
            self.tracer
                .time("engine.plan", staged, stmt_id, || engine.plan_for(q))
                .map_err(|e| e.to_string())?;
        }
        let rel = self
            .tracer
            .time("engine.execute", staged, stmt_id, || engine.execute(target))
            .map_err(|e| e.to_string())?
            .into_rows()
            .ok_or("statement returned no relation")?;
        // The session strips the rewrite's generated level columns.
        let keep: Vec<usize> = rel
            .schema
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.name.starts_with(GEN_PREFIX))
            .map(|(i, _)| i)
            .collect();
        let same = rel.rows.len() == one_call.len()
            && rel
                .rows
                .iter()
                .zip(one_call.rows())
                .all(|(a, b)| a.project(&keep) == *b);
        if same {
            Ok(())
        } else {
            Err("staged execution and one call returned different rows".into())
        }
    }
}

/// Sequential scan rate of `table` through `Table::scan_batch`, rows/s
/// (median of three full scans).
fn scan_rows_per_s(core: &Arc<EngineCore>, table: &str) -> Result<f64, String> {
    let engine = Engine::with_core(Arc::clone(core));
    let catalog = engine.catalog();
    let table = catalog.table(table).map_err(|e| e.to_string())?;
    let mut rates = Vec::new();
    let mut buf = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let (mut pos, mut rows) = (0usize, 0usize);
        loop {
            buf.clear();
            let more = table
                .scan_batch(&mut pos, &mut buf, 1024)
                .map_err(|e| e.to_string())?;
            rows += buf.len();
            if !more {
                break;
            }
        }
        rates.push(rows as f64 / started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE));
    }
    Ok(median(&rates))
}

/// Durations (ns) of every span called `name`.
fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    sorted(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect(),
    )
}

/// Largest share by which a span's children overrun it, over all spans
/// with children (self time = span − children must not go negative).
fn span_sum_error(spans: &[Span]) -> f64 {
    let mut children: HashMap<u32, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.ns();
    }
    spans
        .iter()
        .filter_map(|s| {
            let kids = *children.get(&s.id)?;
            Some(((kids - s.ns()) / s.ns().max(1.0)).max(0.0))
        })
        .fold(0.0, f64::max)
}

/// The traced run: every per-layer metric of `BENCHMARK.json`.
pub fn run_traced(workload: &dyn Workload, args: &RunArgs) -> Result<Report, String> {
    let calib_before = calib_ms();
    let mut p = prepare(workload, args, 1)?;
    let warm = warm_up(&mut p);
    let count = workload.traced_count(args.scale);
    let wire = matches!(p.env.conns.first(), Some(Conn::Wire(_)));

    // Pass 1: untraced reference.
    let pool_before = p.env.core.pool_stats();
    let untraced = drive(
        &mut p.env.conns,
        &mut p.sources,
        &mut p.expected,
        None,
        |_, _| Stop::Count(count),
    );
    let pool = p.env.core.pool_stats().since(&pool_before);

    // Pass 2: the same loop with spans.
    let epoch = Instant::now();
    let mut probes: Vec<ClientProbe> = (0..p.env.conns.len())
        .map(|client| ClientProbe::new(epoch, client))
        .collect();
    let traced = drive(
        &mut p.env.conns,
        &mut p.sources,
        &mut p.expected,
        Some(&mut probes),
        |_, _| Stop::Count(count),
    );

    // Pass 3: staged replay, single-threaded and in-process (for the
    // wire workload on a twin session over the server's core).
    let mut twin = wire.then(|| {
        let mut s = Session::with_core(Arc::clone(&p.env.core));
        s.set_mode(ExecutionMode::native());
        s
    });
    let Env { conns, .. } = &mut p.env;
    let session: &mut Session = match (twin.as_mut(), conns.first_mut()) {
        (Some(twin), _) => twin,
        (None, Some(Conn::InProc(s))) => s,
        _ => return Err("no session to replay on".into()),
    };
    let mut replay = Replay {
        session,
        rewriter: Rewriter::new(),
        tracer: Tracer::new(epoch, 1),
        statements: Vec::new(),
        counters: Counters::default(),
    };
    for (client, source) in p.sources.iter_mut().enumerate() {
        let n = count.min(source.replay_len());
        for _ in 0..n {
            let stmt = source.next_stmt();
            let outcome = replay.statement(client, &stmt, &mut p.expected.per_client[client]);
            source.observe(&stmt, &outcome);
        }
    }
    let Replay {
        tracer: replay_tracer,
        statements: replay_statements,
        counters: c,
        ..
    } = replay;
    drop(twin);

    let scan_rate = scan_rows_per_s(&p.env.core, p.env.largest_table)?;
    let mut writes = c.writes;
    for phase in [&warm, &untraced, &traced] {
        writes.add(phase.writes);
    }
    let broken = workload.final_check(&mut p.env, &writes);
    let connect_ms = std::mem::take(&mut p.env.connect_ms);
    let facts = p.env.facts.clone();
    Env::shutdown(p.env)?;
    let calib_after = calib_ms();

    // ---- derive the per-layer metrics from the spans ----
    let mut spans = replay_tracer.spans;
    let mut statements = replay_statements;
    for probe in probes {
        spans.extend(probe.tracer.spans);
        statements.extend(probe.statements);
    }
    let refs: HashMap<u32, &StmtRef> = statements.iter().map(|s| (s.stmt_id, s)).collect();
    // Per statement: total ns per span name.
    let mut by_stmt: BTreeMap<u32, HashMap<&'static str, f64>> = BTreeMap::new();
    for s in &spans {
        *by_stmt
            .entry(s.stmt_id)
            .or_default()
            .entry(s.name)
            .or_default() += s.ns();
    }
    // Median one-call time per (client, key) from the replay, to set
    // against the round trips of the traced pass.
    let mut in_proc: HashMap<(usize, u32), Vec<f64>> = HashMap::new();
    let mut round_trip: HashMap<(usize, u32), Vec<f64>> = HashMap::new();
    for (id, parts) in &by_stmt {
        let r = refs[id];
        if let Some(&t) = parts.get("core.execute").filter(|_| r.pass == "replay") {
            in_proc.entry((r.client, r.key)).or_default().push(t);
        }
        if let Some(&t) = parts.get("server.roundtrip") {
            round_trip.entry((r.client, r.key)).or_default().push(t);
        }
    }
    let in_proc: HashMap<_, f64> = in_proc.into_iter().map(|(k, v)| (k, median(&v))).collect();
    let round_trip_p50: HashMap<_, f64> = round_trip.iter().map(|(k, v)| (*k, median(v))).collect();

    let mut core_self = Vec::new();
    let mut slot_tail = Vec::new();
    let mut wire_self = Vec::new();
    let (mut t_total, mut t_engine, mut t_pref, mut t_front) = (0.0, 0.0, 0.0, 0.0);
    for (id, parts) in &by_stmt {
        let r = refs[id];
        let get = |name: &str| parts.get(name).copied();
        let or0 = |name: &str| get(name).unwrap_or(0.0);
        if r.pass == "traced" {
            if let (Some(rt), Some(inner)) =
                (get("server.roundtrip"), in_proc.get(&(r.client, r.key)))
            {
                wire_self.push(rt - inner);
            }
            continue;
        }
        let exec_self = (or0("engine.execute") - or0("engine.plan")).max(0.0);
        let mut front = or0("parser.parse")
            + or0("rewrite.process")
            + or0("rewrite.compile")
            + or0("engine.plan");
        let mut pref = 0.0;
        let total = match get("core.execute") {
            // A write: only the staged path ran.
            None => or0("staged"),
            Some(whole) => {
                let inner = match get("core.native") {
                    Some(native) => {
                        // Whatever `run_native_in` did besides compiling
                        // and fetching candidates is dominance + tail —
                        // taken as the remainder, so the three shares of
                        // a statement add up to its one-call time.
                        let rest = native - or0("engine.execute") - or0("rewrite.compile");
                        pref += rest.max(0.0);
                        if let Some(max) = get("pref.maximal") {
                            slot_tail.push(rest - max);
                        }
                        native
                    }
                    None => or0("rewrite.process") + or0("engine.execute"),
                };
                let own = whole - or0("parser.parse") - inner;
                core_self.push(own);
                front += own.max(0.0);
                whole
            }
        };
        // What the user waits for: the round trip on the wire workload.
        let total = match round_trip_p50.get(&(r.client, r.key)) {
            Some(&rt) => {
                front += (rt - total).max(0.0);
                rt
            }
            None => total,
        };
        t_total += total;
        t_engine += exec_self + or0("engine.dml");
        t_pref += pref;
        t_front += front;
    }
    let share = |part: f64| if t_total > 0.0 { part / t_total } else { 0.0 };

    let us = |v: &[f64], p: f64| quantile(v, p) / 1e3;
    let msq = |v: &[f64], p: f64| quantile(v, p) / 1e6;
    let parse = durations(&spans, "parser.parse");
    let exec = durations(&spans, "engine.execute");
    let maximal = durations(&spans, "pref.maximal");
    let trips = durations(&spans, "server.roundtrip");
    // `core.execute` of the in-process workloads: the traced pass (all
    // statements); of the wire workload: the twin session's replay.
    let core_exec = sorted(
        spans
            .iter()
            .filter(|s| s.name == "core.execute" && (wire || refs[&s.stmt_id].pass == "traced"))
            .map(Span::ns)
            .collect(),
    );
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let write_p50_ms = untraced.percentile(0.5, |kind| kind == Kind::Write);
    let values: Vec<(&str, f64)> = vec![
        ("parser.parse_us_p50", us(&parse, 0.5)),
        ("parser.parse_us_p95", us(&parse, 0.95)),
        ("parser.sql_bytes", c.sql_bytes as f64),
        (
            "rewrite.process_us_p50",
            us(&durations(&spans, "rewrite.process"), 0.5),
        ),
        (
            "rewrite.rewritten_share",
            ratio(c.rewritten as f64, c.processed as f64),
        ),
        ("rewrite.sql_bytes_out", c.sql_bytes_out as f64),
        (
            "engine.plan_us_p50",
            us(&durations(&spans, "engine.plan"), 0.5),
        ),
        ("engine.execute_ms_p50", msq(&exec, 0.5)),
        ("engine.execute_ms_p95", msq(&exec, 0.95)),
        ("engine.rows_scanned", c.stats.rows_scanned as f64),
        ("engine.index_probes", c.stats.index_probes as f64),
        ("engine.subquery_evals", c.stats.subquery_evals as f64),
        (
            "engine.rows_scanned_per_row_out",
            ratio(c.stats.rows_scanned as f64, c.rows_out as f64),
        ),
        (
            "engine.dml_ms_p50",
            msq(&durations(&spans, "engine.dml"), 0.5),
        ),
        ("engine.views_maintained", c.views_maintained as f64),
        ("engine.view_hits", c.view_hits as f64),
        ("pref.maximal_ms_p50", msq(&maximal, 0.5)),
        ("pref.maximal_ms_p95", msq(&maximal, 0.95)),
        ("pref.dominance_tests", c.stats.dominance_tests as f64),
        (
            "pref.ns_per_test",
            ratio(maximal.iter().sum(), c.staged_tests as f64),
        ),
        (
            "pref.tests_per_candidate",
            ratio(c.staged_tests as f64, c.candidates as f64),
        ),
        (
            "pref.winner_share",
            ratio(c.winners as f64, c.candidates as f64),
        ),
        ("storage.scan_rows_per_s", scan_rate),
        (
            "storage.pool_hit_share",
            ratio(pool.hits as f64, (pool.hits + pool.misses) as f64),
        ),
        ("storage.pool_misses", pool.misses as f64),
        ("storage.pool_evictions", pool.evictions as f64),
        ("storage.pool_writebacks", pool.writebacks as f64),
        ("storage.spill_bytes", c.spill_bytes as f64),
        ("core.execute_ms_p50", msq(&core_exec, 0.5)),
        ("core.self_us_p50", us(&sorted(core_self), 0.5)),
        (
            "core.native_ms_p50",
            msq(&durations(&spans, "core.native"), 0.5),
        ),
        ("core.slot_tail_ms_p50", msq(&sorted(slot_tail), 0.5)),
        ("server.roundtrip_ms_p50", msq(&trips, 0.5)),
        ("server.roundtrip_ms_p95", msq(&trips, 0.95)),
        ("server.wire_self_us_p50", us(&sorted(wire_self), 0.5)),
        (
            "server.render_us_p50",
            us(&durations(&spans, "server.render"), 0.5),
        ),
        ("server.bytes_out", c.bytes_out as f64),
        ("server.connect_ms_p50", median(&connect_ms)),
        ("share.engine", share(t_engine)),
        ("share.pref_tail", share(t_pref)),
        ("share.frontend", share(t_front)),
        ("write_p50_ms", write_p50_ms),
        (
            "bench.trace_overhead_share",
            ratio(traced.wall_s - untraced.wall_s, untraced.wall_s),
        ),
        ("bench.calib_ms", (calib_before + calib_after) / 2.0),
        ("bench.spans", spans.len() as f64),
        ("bench.span_sum_error_max", span_sum_error(&spans)),
        ("bench.staged_mismatches", c.mismatches as f64),
        ("bench.traced_statements", c.statements as f64),
        ("bench.untraced_wall_s", untraced.wall_s),
        ("bench.traced_wall_s", traced.wall_s),
    ];
    // `values` is written in the order of `PER_LAYER`, which supplies
    // the units; a metric added to one and not the other is a bug.
    assert_eq!(values.len(), PER_LAYER.len(), "per-layer metric tables");
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(&values)
        .map(|((name, unit), (computed, value))| {
            assert_eq!(name, computed, "per-layer metric order");
            Metric::new(name, *value, unit)
        })
        .collect();

    let mut notes = vec![format!(
        "layer shares of statement time: engine {:.3}, pref+tail {:.3}, front end {:.3}",
        share(t_engine),
        share(t_pref),
        share(t_front)
    )];
    if let Some((share_name, at_least)) = workload.predicted_share() {
        let measured = metrics
            .iter()
            .find(|m| m.name == share_name)
            .map_or(0.0, |m| m.value);
        notes.push(format!(
            "predicted {share_name} >= {at_least:.2}, measured {measured:.3}: {}",
            if measured >= at_least {
                "holds"
            } else {
                "does NOT hold"
            }
        ));
    }

    if let Some(dir) = &args.out {
        write_trace(dir, workload.name(), args.seed, &spans, &statements)?;
    }

    let samples = untraced.count() + traced.count();
    let classes = class_table(&[&untraced, &traced]);
    let attempted = (warm.count() + samples) as u64 + c.statements;
    let failed = warm.failed + untraced.failed + traced.failed + c.failed + broken.len() as u64;
    let mut problems = warm.problems;
    problems.extend(untraced.problems);
    problems.extend(traced.problems);
    problems.extend(c.problems);
    problems.extend(broken);
    Ok(Report {
        workload: workload.name().to_string(),
        seed: args.seed,
        scale: args.scale,
        traced: true,
        attempted,
        failed,
        samples: samples as u64,
        metrics,
        extra: Vec::new(),
        classes,
        facts: facts.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        calib_ms: (calib_before, calib_after),
        problems,
        notes,
    })
}

/// `<out>/trace_<workload>.json`: every span, plus which statement each
/// `stmt_id` was.
fn write_trace(
    dir: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    statements: &[StmtRef],
) -> Result<(), String> {
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        (
            "statements",
            Json::Arr(
                statements
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("stmt_id", Json::Num(f64::from(s.stmt_id))),
                            ("pass", Json::str(s.pass)),
                            ("client", Json::Num(s.client as f64)),
                            ("key", Json::Num(f64::from(s.key))),
                            ("class", Json::str(s.class)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Num(f64::from(s.id))),
                            ("parent", Json::Num(f64::from(s.parent))),
                            ("stmt_id", Json::Num(f64::from(s.stmt_id))),
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
}
