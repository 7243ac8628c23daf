//! The executor: statements in, relations out.
//!
//! This module is statement dispatch plus DML, split into three pieces so
//! many sessions can share one catalog:
//!
//! * [`EngineCore`] — the shared, thread-safe heart: the catalog behind a
//!   readers-writer lock plus global toggles. Sessions share it through an
//!   `Arc`; queries take read locks, DML/DDL the write lock, so statements
//!   are isolated at statement granularity.
//! * [`ExecCtx`] — per-statement execution state: the FROM cache,
//!   execution counters and the view-recursion guard, pinned to a catalog
//!   borrow (a read guard for queries, a plain borrow under the write lock
//!   for DML expression evaluation). A fresh context per statement replaces
//!   the old `begin_statement` cache reset.
//! * [`Engine`] — the single-session façade the rest of the stack talks
//!   to. It keeps the pre-refactor API (`execute_sql`, `catalog()`,
//!   `take_stats`, ...) while delegating to a shared or private core.
//!
//! Queries are compiled into a logical plan ([`crate::plan`]) exactly once
//! per statement — every expression bound ([`crate::bind`]), every
//! sub-query planned as a child of the expression that runs it — and run
//! by the streaming physical operators of [`crate::physical`]. `EXPLAIN`
//! renders the same plan object the executor runs. DML binds its
//! expressions once per statement the same way and evaluates them per
//! row by ordinal.

use crate::access::{self, choose_access_path, AccessPath};
use crate::bind::{bind, BoundExpr};
use crate::catalog::Catalog;
use crate::eval::{eval, holds, Env};
use crate::knobs::NativeOptions;
use crate::plan::{plan_query, QueryPlan};
use prefsql_parser::ast::{Expr, InsertSource, Query, Statement};
use prefsql_parser::parse_statement;
use prefsql_storage::spill::{SpillManager, SpillMetrics};
use prefsql_storage::{BufferPool, HeapFile, IndexKind, PageFilter, PoolStats, Table};
use prefsql_types::{Column, Error, Result, Schema, Tuple, Value};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A materialized relation: schema + rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Column descriptions.
    pub schema: Schema,
    /// The rows.
    pub rows: Vec<Tuple>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// SELECT result.
    Rows(Relation),
    /// Row count of an INSERT.
    Count(usize),
    /// DDL acknowledgement message.
    Ddl(String),
    /// EXPLAIN output.
    Explain(String),
}

impl ExecOutcome {
    /// The rows of a SELECT outcome, or `None` for counts/DDL/EXPLAIN.
    pub fn rows(&self) -> Option<&Relation> {
        match self {
            ExecOutcome::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// Consume the outcome into its rows, or `None` for other outcomes.
    pub fn into_rows(self) -> Option<Relation> {
        match self {
            ExecOutcome::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// The rows of a SELECT outcome (panics on other outcomes; test/demo
    /// convenience — production code should prefer [`ExecOutcome::rows`]).
    pub fn expect_rows(self) -> Relation {
        match self {
            ExecOutcome::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }
}

/// Execution counters, exposed for the experiment harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-table rows touched by scans and index probes.
    pub rows_scanned: u64,
    /// Number of index probes taken.
    pub index_probes: u64,
    /// Number of sub-query evaluations (one per outer row for correlated
    /// sub-queries — the O(n²) heart of the rewrite).
    pub subquery_evals: u64,
    /// Dominance comparisons ([`prefsql_pref::compose::Preference::better`])
    /// charged to this statement — the paper's unit of preference-
    /// evaluation cost. Includes skyline evaluation and materialized-view
    /// maintenance.
    pub dominance_tests: u64,
}

impl ExecStats {
    /// Fold another counter set into this one (per-statement contexts
    /// report into the session accumulator).
    pub fn absorb(&mut self, other: ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.index_probes += other.index_probes;
        self.subquery_evals += other.subquery_evals;
        self.dominance_tests += other.dominance_tests;
    }
}

/// Map a poisoned-lock error onto the stack's error type: one panicking
/// session must surface as a reportable error in its peers, not take the
/// whole server down.
fn poisoned<T>(_: PoisonError<T>) -> Error {
    Error::Concurrency("engine catalog lock poisoned by a panicked session".into())
}

/// Which storage backend `CREATE TABLE` builds new tables on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The in-memory `Vec<Tuple>` store (the default).
    Mem,
    /// Slotted heap-file pages served through the shared buffer pool.
    Paged,
}

impl BackendKind {
    /// Interpret a `PREFSQL_BACKEND` / `\backend` value: `paged` selects
    /// the heap-file backend, anything else the in-memory default.
    pub fn parse(v: &str) -> BackendKind {
        if v.trim().eq_ignore_ascii_case("paged") {
            BackendKind::Paged
        } else {
            BackendKind::Mem
        }
    }

    /// `"mem"` or `"paged"` — the label EXPLAIN and the shell show.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Mem => "mem",
            BackendKind::Paged => "paged",
        }
    }
}

/// The shared, thread-safe core of the engine: the catalog behind a
/// [`RwLock`] plus global toggles and the storage substrate every session
/// shares — the backend selection for new tables and the pinning buffer
/// pool paged tables read through. Many [`Engine`] façades (one per
/// session) hold the same core through an `Arc`; concurrent queries take
/// the read lock for the duration of one statement, DML and DDL take the
/// write lock, which gives statement-level isolation.
pub struct EngineCore {
    catalog: RwLock<Catalog>,
    use_indexes: AtomicBool,
    use_hash_join: AtomicBool,
    /// `true` = new tables go to paged heap files.
    paged: AtomicBool,
    /// The buffer pool all paged tables of this core share.
    pool: Arc<BufferPool>,
    /// Lazily created directory holding this core's heap files; removed
    /// when the core drops (heap files themselves delete on drop).
    data_dir: Mutex<Option<PathBuf>>,
    /// Heap-file name sequence within the data dir.
    heap_seq: AtomicU64,
    /// Engine-wide metrics: every session's finished statements fold
    /// their deltas in here.
    metrics: crate::metrics::MetricsRegistry,
}

impl Default for EngineCore {
    fn default() -> Self {
        EngineCore::new()
    }
}

impl EngineCore {
    /// A fresh core with an empty catalog. The storage substrate comes
    /// from the environment: `PREFSQL_BACKEND=paged` selects the
    /// heap-file backend for new tables, `PREFSQL_POOL=N[k|m]` sizes the
    /// shared buffer pool ([`crate::knobs`]). Both are read per core —
    /// not cached process-wide — so test harnesses can vary them between
    /// cores.
    pub fn new() -> Self {
        let (kind, pool_bytes) = crate::knobs::storage_from_env();
        EngineCore::with_storage(kind, pool_bytes)
    }

    /// A fresh core with an explicit storage configuration (tests and
    /// harnesses that must not depend on the environment).
    pub fn with_storage(kind: BackendKind, pool_bytes: usize) -> Self {
        EngineCore {
            catalog: RwLock::new(Catalog::new()),
            use_indexes: AtomicBool::new(true),
            use_hash_join: AtomicBool::new(true),
            paged: AtomicBool::new(kind == BackendKind::Paged),
            pool: Arc::new(BufferPool::new(pool_bytes)),
            data_dir: Mutex::new(None),
            heap_seq: AtomicU64::new(0),
            metrics: crate::metrics::MetricsRegistry::new(),
        }
    }

    /// The engine-wide metrics registry shared by this core's sessions.
    pub fn metrics(&self) -> &crate::metrics::MetricsRegistry {
        &self.metrics
    }

    /// A machine-parseable report of the registry plus the live
    /// buffer-pool counters — what `\metrics` and the server's `METRICS`
    /// verb print, one `key value` pair per line.
    pub fn metrics_report(&self) -> Vec<(String, String)> {
        let mut out = self.metrics.snapshot();
        let pool = self.pool_stats();
        let served = pool.hits + pool.misses;
        let ratio = if served == 0 {
            "1.000".to_string()
        } else {
            format!("{:.3}", pool.hits as f64 / served as f64)
        };
        out.push((
            "pool.capacity_pages".into(),
            pool.capacity_pages.to_string(),
        ));
        out.push(("pool.hits".into(), pool.hits.to_string()));
        out.push(("pool.misses".into(), pool.misses.to_string()));
        out.push(("pool.evictions".into(), pool.evictions.to_string()));
        out.push(("pool.writebacks".into(), pool.writebacks.to_string()));
        out.push(("pool.hit_ratio".into(), ratio));
        out
    }

    /// A fresh shared core, ready to be handed to many sessions.
    pub fn shared() -> Arc<EngineCore> {
        Arc::new(EngineCore::new())
    }

    /// The backend newly created tables use.
    pub fn backend_kind(&self) -> BackendKind {
        if self.paged.load(Ordering::Relaxed) {
            BackendKind::Paged
        } else {
            BackendKind::Mem
        }
    }

    /// Switch the backend for *future* tables. Refused once the catalog
    /// holds tables — existing rows are not migrated, and a mixed
    /// catalog is exactly what the per-database selection model avoids.
    pub fn set_backend(&self, kind: BackendKind) -> Result<()> {
        let cat = self.catalog_read()?;
        if !cat.table_names().is_empty() {
            return Err(Error::Catalog(
                "cannot switch storage backend: catalog already holds tables \
                 (backend selection happens at database open)"
                    .into(),
            ));
        }
        drop(cat);
        self.paged
            .store(kind == BackendKind::Paged, Ordering::Relaxed);
        Ok(())
    }

    /// The buffer pool shared by this core's paged tables.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Cumulative buffer-pool counters (hits/misses/evictions/writebacks).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Resize the shared buffer pool (the `\pool` command); clamps to the
    /// 16 KiB minimum and returns the size actually in effect.
    pub fn resize_pool(&self, bytes: usize) -> Result<usize> {
        self.pool.resize(bytes)?;
        Ok(self.pool.capacity_pages() * prefsql_storage::page::PAGE_SIZE)
    }

    /// Build an empty table on the configured backend. Paged tables get a
    /// fresh heap file in this core's (lazily created) data directory.
    pub fn make_table(&self, name: &str, schema: Schema) -> Result<Table> {
        match self.backend_kind() {
            BackendKind::Mem => Ok(Table::new(name, schema)),
            BackendKind::Paged => {
                let dir = self.data_dir()?;
                let seq = self.heap_seq.fetch_add(1, Ordering::Relaxed);
                let path = dir.join(format!("{}-{seq}.heap", name.to_ascii_lowercase()));
                let file = Arc::new(HeapFile::create(path, true)?);
                Ok(Table::paged(name, schema, file, Arc::clone(&self.pool)))
            }
        }
    }

    /// The core's heap-file directory, created on first use:
    /// `<tmp>/prefsql-db-<pid>-<addr>` — unique per core within the
    /// process and across concurrent processes.
    fn data_dir(&self) -> Result<PathBuf> {
        let mut slot = self
            .data_dir
            .lock()
            .map_err(|_| Error::Concurrency("engine data-dir lock poisoned".into()))?;
        if let Some(dir) = &*slot {
            return Ok(dir.clone());
        }
        let dir = std::env::temp_dir().join(format!(
            "prefsql-db-{}-{:x}",
            std::process::id(),
            self as *const EngineCore as usize
        ));
        std::fs::create_dir_all(&dir)?;
        *slot = Some(dir.clone());
        Ok(dir)
    }

    /// Enable or disable the access paths a WHERE's sargs open: index
    /// probes and paged scans' page skipping (ablation A2; off, every
    /// scan reads every row). Global: the toggle is part of the core, not
    /// of any one session.
    pub fn set_use_indexes(&self, on: bool) {
        self.use_indexes.store(on, Ordering::Relaxed);
    }

    /// Whether index access paths are enabled.
    pub fn use_indexes(&self) -> bool {
        self.use_indexes.load(Ordering::Relaxed)
    }

    /// Enable or disable the hash-join fast path for equi-join ON
    /// conditions (ablation/differential baseline: off plans every join
    /// as a nested loop). Global, like the index toggle.
    pub fn set_use_hash_join(&self, on: bool) {
        self.use_hash_join.store(on, Ordering::Relaxed);
    }

    /// Whether the hash-join fast path is enabled.
    pub fn use_hash_join(&self) -> bool {
        self.use_hash_join.load(Ordering::Relaxed)
    }

    /// Take the catalog read lock directly (catalog inspection without
    /// statement machinery).
    pub fn catalog_read(&self) -> Result<RwLockReadGuard<'_, Catalog>> {
        self.catalog.read().map_err(poisoned)
    }

    /// Take the catalog write lock (DML, DDL, bulk loading). Held for a
    /// whole statement, so readers never observe a half-applied write.
    pub fn catalog_write(&self) -> Result<RwLockWriteGuard<'_, Catalog>> {
        self.catalog.write().map_err(poisoned)
    }
}

impl Drop for EngineCore {
    fn drop(&mut self) {
        // The catalog (and with it every heap file's Arc) is still alive
        // here, so remove the whole tree: unlinking open files is fine on
        // the platforms we run, and HeapFile's own delete-on-drop then
        // no-ops. Best-effort — a vanished temp dir must not panic a drop.
        if let Ok(slot) = self.data_dir.get_mut() {
            if let Some(dir) = slot.take() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

/// How a statement context sees the catalog: queries hold the core's read
/// guard, DML evaluation borrows the catalog the statement's write guard
/// already protects.
enum CatalogSource<'c> {
    Guard(RwLockReadGuard<'c, Catalog>),
    Borrowed(&'c Catalog),
}

/// Per-statement execution state: a catalog borrow plus the caches and
/// counters that must not leak across statements. One context is created
/// per statement and dropped when it completes, which is what makes the
/// engine's read path shareable — nothing mutable outlives the statement.
pub struct ExecCtx<'c> {
    catalog: CatalogSource<'c>,
    use_indexes: bool,
    use_hash_join: bool,
    /// The session knobs this statement plans under.
    knobs: NativeOptions,
    /// Directory spill managers root their run dirs in (`None` = the
    /// system temp dir).
    spill_base: Option<PathBuf>,
    /// Spill metrics reported by operators during this statement.
    spill: RefCell<Option<SpillMetrics>>,
    /// Per-statement cache of materialized FROM sources — views, derived
    /// tables, join builds (uncorrelated in SQL92, so caching is sound).
    from_cache: RefCell<HashMap<String, Arc<dyn Any + Send + Sync>>>,
    pub(crate) stats: RefCell<ExecStats>,
    /// Guard against runaway view recursion (during planning).
    pub(crate) view_depth: RefCell<u32>,
    /// When set, [`crate::physical::build`] instruments every operator
    /// and execution reports per-node metrics here (`EXPLAIN ANALYZE`
    /// and the slow-query log; plain statements carry `None`).
    profiler: Option<crate::metrics::Profiler>,
    /// The top-level plan executed under the profiler — kept alive so
    /// the profiler's node addresses stay valid for rendering.
    profiled_plan: RefCell<Option<Arc<QueryPlan>>>,
}

impl<'c> ExecCtx<'c> {
    fn with_source(catalog: CatalogSource<'c>, use_indexes: bool, knobs: NativeOptions) -> Self {
        ExecCtx {
            catalog,
            use_indexes,
            use_hash_join: true,
            knobs,
            spill_base: None,
            spill: RefCell::new(None),
            from_cache: RefCell::new(HashMap::new()),
            stats: RefCell::new(ExecStats::default()),
            view_depth: RefCell::new(0),
            profiler: None,
            profiled_plan: RefCell::new(None),
        }
    }

    /// A statement context over a plain catalog borrow with default
    /// knobs and no window budget — for tests that drive the operators
    /// against a hand-built catalog. The engine builds its own contexts,
    /// session knobs applied, in one private `Engine` constructor.
    pub fn over(catalog: &'c Catalog, use_indexes: bool) -> Self {
        ExecCtx::with_source(
            CatalogSource::Borrowed(catalog),
            use_indexes,
            NativeOptions::without_window(),
        )
    }

    /// The catalog this statement runs against.
    pub fn catalog(&self) -> &Catalog {
        match &self.catalog {
            CatalogSource::Guard(g) => g,
            CatalogSource::Borrowed(c) => c,
        }
    }

    /// Whether index access paths are enabled for this statement.
    pub fn use_indexes(&self) -> bool {
        self.use_indexes
    }

    /// Set the hash-join toggle (builder style; defaults to on).
    pub fn with_hash_join(mut self, on: bool) -> Self {
        self.use_hash_join = on;
        self
    }

    /// Whether equi-join ON conditions plan as hash joins.
    pub fn use_hash_join(&self) -> bool {
        self.use_hash_join
    }

    /// Run this statement under `knobs` instead of the session's
    /// (builder style).
    pub fn with_knobs(mut self, knobs: NativeOptions) -> Self {
        self.knobs = knobs;
        self
    }

    /// The session knobs this statement plans under: the preference
    /// operator's algorithm, degree, drive batch and window budget, and
    /// the keyed join's window budget.
    pub fn knobs(&self) -> NativeOptions {
        self.knobs
    }

    /// Root spill-run directories under `base` (builder style; defaults
    /// to the system temp dir).
    pub fn with_spill_base(mut self, base: Option<PathBuf>) -> Self {
        self.spill_base = base;
        self
    }

    /// A spill manager for one spilling operator of this statement,
    /// rooted in the session's spill directory when one is pinned.
    pub(crate) fn spill_manager(&self) -> Result<SpillManager> {
        match &self.spill_base {
            Some(dir) => SpillManager::new_in(dir),
            None => SpillManager::new(),
        }
    }

    /// Attach a per-operator profiler to this statement (builder style):
    /// execution will run instrumented and report per-node metrics.
    pub fn with_profiler(mut self) -> Self {
        self.profiler = Some(crate::metrics::Profiler::new());
        self
    }

    /// The statement's profiler, when execution runs instrumented.
    pub fn profiler(&self) -> Option<&crate::metrics::Profiler> {
        self.profiler.as_ref()
    }

    /// The top-level plan executed under the profiler, if any.
    pub fn profiled_plan(&self) -> Option<Arc<QueryPlan>> {
        self.profiled_plan.borrow().clone()
    }

    /// Register `plan` as this statement's top-level profiled plan (a
    /// no-op without a profiler, or once a plan is already registered).
    /// The Preference SQL facade calls this for the native plan it gets
    /// from [`crate::plan::plan_preference`] and executes itself.
    pub fn profile_plan(&self, plan: &Arc<QueryPlan>) {
        if self.profiler.is_some() {
            let mut slot = self.profiled_plan.borrow_mut();
            if slot.is_none() {
                *slot = Some(Arc::clone(plan));
            }
        }
    }

    /// Charge dominance comparisons to this statement (the preference
    /// operator reports the choke-point counter of
    /// [`prefsql_pref::compose::Preference`] here).
    pub fn note_dominance_tests(&self, n: u64) {
        self.stats.borrow_mut().dominance_tests += n;
    }

    /// Report one operator's spill metrics into the statement's
    /// accumulator (folded when several operators spill).
    pub fn note_spill(&self, m: SpillMetrics) {
        let mut slot = self.spill.borrow_mut();
        match &mut *slot {
            Some(acc) => acc.absorb(&m),
            None => *slot = Some(m),
        }
    }

    /// Read and reset the statement's accumulated spill metrics.
    pub fn take_spill(&self) -> Option<SpillMetrics> {
        self.spill.borrow_mut().take()
    }

    /// The value this statement cached under `key`, if any.
    pub(crate) fn cached<T: Any + Send + Sync>(&self, key: &str) -> Option<Arc<T>> {
        let hit = Arc::clone(self.from_cache.borrow().get(key)?);
        hit.downcast().ok()
    }

    /// Cache `value` under `key` for the rest of this statement.
    pub(crate) fn cache<T: Any + Send + Sync>(&self, key: String, value: T) -> Arc<T> {
        let value = Arc::new(value);
        self.from_cache
            .borrow_mut()
            .insert(key, Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
        value
    }

    /// This statement's execution counters so far.
    pub fn stats(&self) -> ExecStats {
        *self.stats.borrow()
    }

    /// Read and reset this statement's execution counters.
    pub fn take_stats(&self) -> ExecStats {
        std::mem::take(&mut self.stats.borrow_mut())
    }

    /// Plan (and bind) `query` as a top-level block of this statement.
    /// Its sub-queries are planned with it, once; nothing is re-planned
    /// per outer row.
    pub fn plan_for(&self, query: &Query) -> Result<Arc<QueryPlan>> {
        Ok(Arc::new(plan_query(self, query)?))
    }

    /// Plan and execute a top-level query block.
    pub fn run_query(&self, query: &Query) -> Result<Relation> {
        let plan = self.plan_for(query)?;
        // Keep the plan alive so a profiled statement's profile can be
        // rendered against it.
        self.profile_plan(&plan);
        crate::physical::execute(self, plan.root(), &[])
    }
}

/// Read access to the shared catalog, `Deref`-transparent to [`Catalog`]
/// so pre-refactor `engine.catalog().table(..)` call sites keep working.
/// Held for the duration of the borrow — drop it before issuing DML.
pub struct CatalogRead<'e>(RwLockReadGuard<'e, Catalog>);

impl std::ops::Deref for CatalogRead<'_> {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.0
    }
}

/// Write access to the shared catalog (bulk loading by tests/workloads),
/// `Deref`/`DerefMut`-transparent to [`Catalog`].
pub struct CatalogWrite<'e>(RwLockWriteGuard<'e, Catalog>);

impl std::ops::Deref for CatalogWrite<'_> {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.0
    }
}

impl std::ops::DerefMut for CatalogWrite<'_> {
    fn deref_mut(&mut self) -> &mut Catalog {
        &mut self.0
    }
}

/// The SQL engine: a single-session façade over an [`EngineCore`].
///
/// `Engine::new()` creates a private core — the embedded, single-session
/// shape every test and example uses. [`Engine::with_core`] attaches a
/// session to a shared core instead; any number of such façades may run
/// statements concurrently from their own threads.
///
/// ```
/// use prefsql_engine::Engine;
///
/// let mut e = Engine::new();
/// e.execute_sql("CREATE TABLE t (x INTEGER, name VARCHAR)").unwrap();
/// e.execute_sql("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
/// let out = e.execute_sql("SELECT name FROM t WHERE x = 2").unwrap();
/// let rel = out.rows().expect("SELECT produces rows");
/// assert_eq!(rel.rows[0][0].to_string(), "b");
/// ```
pub struct Engine {
    core: Arc<EngineCore>,
    /// Session-accumulated execution counters (per-statement contexts
    /// report into this; [`Engine::take_stats`] reads and resets it).
    stats: RefCell<ExecStats>,
    /// The session knobs every statement context is built with
    /// ([`Engine::set_knobs`]).
    knobs: NativeOptions,
    /// Per-session spill-run base directory ([`Engine::set_spill_base`]).
    spill_base: Option<PathBuf>,
    /// Spill metrics harvested from finished statements
    /// ([`Engine::take_spill_metrics`] reads and resets).
    spill: RefCell<Option<SpillMetrics>>,
    /// Number of materialized-view maintenance applications performed by
    /// DML statements since the last [`Engine::take_view_maintenance`].
    view_maintained: std::cell::Cell<u64>,
    /// When `true`, every statement context runs instrumented
    /// (`EXPLAIN ANALYZE` sets it for the inner statement; the session
    /// layer sets it durably for slow-query logging).
    profiling: std::cell::Cell<bool>,
    /// The analyzed-plan rendering of the most recent profiled
    /// statement ([`Engine::take_analyzed`] reads and resets).
    last_analyzed: RefCell<Option<String>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// A fresh engine with a private, empty core.
    pub fn new() -> Self {
        Engine::with_core(EngineCore::shared())
    }

    /// A session façade over a shared core.
    pub fn with_core(core: Arc<EngineCore>) -> Self {
        Engine {
            core,
            stats: RefCell::new(ExecStats::default()),
            knobs: NativeOptions::without_window(),
            spill_base: None,
            spill: RefCell::new(None),
            view_maintained: std::cell::Cell::new(0),
            profiling: std::cell::Cell::new(false),
            last_analyzed: RefCell::new(None),
        }
    }

    /// The shared core behind this façade (clone the `Arc` to attach
    /// further sessions).
    pub fn core(&self) -> &Arc<EngineCore> {
        &self.core
    }

    /// Read access to the catalog. The returned guard derefs to
    /// [`Catalog`]; a poisoned lock is recovered here (read-only
    /// inspection stays available even after a peer session panicked —
    /// statement execution surfaces [`Error::Concurrency`] instead).
    pub fn catalog(&self) -> CatalogRead<'_> {
        CatalogRead(
            self.core
                .catalog
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Mutable catalog access (bulk loading by tests/workloads). Takes
    /// the core's write lock; recovery on poison mirrors
    /// [`Engine::catalog`].
    pub fn catalog_mut(&mut self) -> CatalogWrite<'_> {
        CatalogWrite(
            self.core
                .catalog
                .write()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Enable or disable index access paths (ablation A2).
    pub fn set_use_indexes(&mut self, on: bool) {
        self.core.set_use_indexes(on);
    }

    /// Whether index access paths are enabled.
    pub fn use_indexes(&self) -> bool {
        self.core.use_indexes()
    }

    /// Enable or disable the hash-join fast path (global toggle on the
    /// shared core, like [`Engine::set_use_indexes`]).
    pub fn set_use_hash_join(&mut self, on: bool) {
        self.core.set_use_hash_join(on);
    }

    /// Whether the hash-join fast path is enabled.
    pub fn use_hash_join(&self) -> bool {
        self.core.use_hash_join()
    }

    /// The storage backend newly created tables use.
    pub fn backend_kind(&self) -> BackendKind {
        self.core.backend_kind()
    }

    /// Cumulative buffer-pool counters of the shared core (sessions
    /// snapshot these around a statement to report per-query deltas).
    pub fn pool_stats(&self) -> PoolStats {
        self.core.pool_stats()
    }

    /// Set this session's knobs: every later statement context plans
    /// under them. A fresh engine has [`NativeOptions::without_window`].
    pub fn set_knobs(&mut self, knobs: NativeOptions) {
        self.knobs = knobs;
    }

    /// This session's knobs.
    pub fn knobs(&self) -> NativeOptions {
        self.knobs
    }

    /// Root this session's spill-run directories under `base` (`None` =
    /// the system temp dir). The directory need not exist yet; spill
    /// managers create it on first use.
    pub fn set_spill_base(&mut self, base: Option<PathBuf>) {
        self.spill_base = base;
    }

    /// Read and reset the spill metrics accumulated by statements run
    /// since the last call (`None` = nothing spilled).
    pub fn take_spill_metrics(&self) -> Option<SpillMetrics> {
        self.spill.borrow_mut().take()
    }

    /// Read and reset the number of materialized-preference-view
    /// maintenance applications (one per view kept current by a DML
    /// statement) since the last call.
    pub fn take_view_maintenance(&self) -> u64 {
        self.view_maintained.replace(0)
    }

    fn note_view_maintenance(&self, n: u64) {
        self.view_maintained.set(self.view_maintained.get() + n);
        self.core.metrics().add_views_maintained(n);
    }

    /// Run every statement instrumented (`true`) or only under
    /// `EXPLAIN ANALYZE` (`false`, the default). The session layer turns
    /// this on for slow-query logging: after each statement,
    /// [`Engine::take_analyzed`] then holds the analyzed plan.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling.set(on);
    }

    /// Whether statements currently run instrumented.
    pub fn profiling(&self) -> bool {
        self.profiling.get()
    }

    /// Read and reset the analyzed-plan rendering of the most recent
    /// profiled statement (`None` when nothing profiled ran, e.g. DDL).
    pub fn take_analyzed(&self) -> Option<String> {
        self.last_analyzed.borrow_mut().take()
    }

    /// Harvest a finished profiled context: fold the per-operator
    /// profile into the engine-wide registry and render the analyzed
    /// plan while the plan `Arc` (and with it the profiler's node
    /// addresses) is still alive.
    fn harvest_profile(&self, ctx: &ExecCtx<'_>) {
        let Some(prof) = ctx.profiler() else {
            return;
        };
        self.core.metrics().absorb_profile(prof);
        if let Some(plan) = ctx.profiled_plan() {
            let mut text = String::new();
            crate::explain::render_analyzed(plan.root(), prof, 0, &mut text);
            *self.last_analyzed.borrow_mut() = Some(text);
        }
    }

    /// Read and reset the session's execution counters.
    pub fn take_stats(&self) -> ExecStats {
        std::mem::take(&mut self.stats.borrow_mut())
    }

    /// Fold a finished statement's counters into the session accumulator
    /// (callers that drive [`Engine::read_ctx`] directly report here).
    /// Also feeds the engine-wide registry — the session accumulator is
    /// drained by [`Engine::take_stats`], the registry never is.
    pub fn note_stats(&self, stats: ExecStats) {
        self.core.metrics().add_exec_stats(&stats);
        self.stats.borrow_mut().absorb(stats);
    }

    /// The one place a statement context is built — for a read, for the
    /// source query of a DML statement, for view validation and for view
    /// maintenance alike: the core's index and hash-join toggles, this
    /// session's knobs and spill directory, and a profiler when
    /// statements run instrumented.
    fn ctx<'c>(&self, catalog: CatalogSource<'c>) -> ExecCtx<'c> {
        let ctx = ExecCtx::with_source(catalog, self.core.use_indexes(), self.knobs)
            .with_hash_join(self.core.use_hash_join())
            .with_spill_base(self.spill_base.clone());
        if self.profiling.get() {
            ctx.with_profiler()
        } else {
            ctx
        }
    }

    /// Begin a read statement against the shared core. The context holds
    /// the catalog read lock until dropped; its counters are *not*
    /// automatically folded into [`Engine::take_stats`] — use
    /// [`Engine::with_read_ctx`] (or [`Engine::note_stats`]) for that.
    pub fn read_ctx(&self) -> Result<ExecCtx<'_>> {
        Ok(self.ctx(CatalogSource::Guard(self.core.catalog_read()?)))
    }

    /// Run `f` inside a fresh read-statement context and fold the
    /// context's counters (and any spill metrics) into the session
    /// accumulators.
    pub fn with_read_ctx<R>(&self, f: impl FnOnce(&ExecCtx<'_>) -> Result<R>) -> Result<R> {
        self.run_in_ctx(self.read_ctx()?, f)
    }

    /// [`Engine::with_read_ctx`] for the statements that hold the
    /// catalog write lock: the context borrows `cat`, the catalog the
    /// statement's guard protects.
    pub(crate) fn with_ctx_over<R>(
        &self,
        cat: &Catalog,
        f: impl FnOnce(&ExecCtx<'_>) -> Result<R>,
    ) -> Result<R> {
        self.run_in_ctx(self.ctx(CatalogSource::Borrowed(cat)), f)
    }

    /// [`Engine::with_read_ctx`] over a context the caller prepared
    /// ([`Engine::read_ctx`] plus per-call overrides of the knobs or the
    /// spill directory).
    pub fn run_in_ctx<R>(
        &self,
        ctx: ExecCtx<'_>,
        f: impl FnOnce(&ExecCtx<'_>) -> Result<R>,
    ) -> Result<R> {
        let out = f(&ctx);
        self.harvest_profile(&ctx);
        self.note_stats(ctx.take_stats());
        if let Some(m) = ctx.take_spill() {
            self.core.metrics().add_spill(&m);
            let mut slot = self.spill.borrow_mut();
            match &mut *slot {
                Some(acc) => acc.absorb(&m),
                None => *slot = Some(m),
            }
        }
        out
    }

    /// Parse and execute one SQL statement.
    pub fn execute_sql(&mut self, sql: &str) -> Result<ExecOutcome> {
        let stmt = parse_statement(sql)?;
        self.execute(&stmt)
    }

    /// Execute a parsed statement. Queries and EXPLAIN take the core's
    /// read lock, everything else the write lock, each for exactly one
    /// statement.
    pub fn execute(&mut self, stmt: &Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::Select(q) => {
                let rel = self.run_query(q)?;
                Ok(ExecOutcome::Rows(rel))
            }
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                let mut cat = self.core.catalog_write()?;
                let before = cat.table(table)?.len();
                let out = self.run_insert(&mut cat, table, columns.as_deref(), source)?;
                let (m, cmp) = crate::matview::after_insert(self, &mut cat, table, before);
                self.note_view_maintenance(m);
                self.note_maintenance_dominance(cmp);
                Ok(out)
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let mut cat = self.core.catalog_write()?;
                let doomed = self.matching_row_ids(&cat, table, where_clause.as_ref())?;
                let n = store(&mut cat, table, |t| t.delete_rows(&doomed))?;
                let (m, cmp) = crate::matview::after_delete(self, &mut cat, table, &doomed);
                self.note_view_maintenance(m);
                self.note_maintenance_dominance(cmp);
                Ok(ExecOutcome::Count(n))
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                let mut cat = self.core.catalog_write()?;
                let ids = self.run_update(&mut cat, table, assignments, where_clause.as_ref())?;
                let (m, cmp) = crate::matview::after_update(self, &mut cat, table, &ids);
                self.note_view_maintenance(m);
                self.note_maintenance_dominance(cmp);
                Ok(ExecOutcome::Count(ids.len()))
            }
            Statement::CreateTable { name, columns } => {
                let cols = columns
                    .iter()
                    .map(|c| {
                        let col = Column::new(c.name.clone(), c.data_type);
                        Ok(if c.not_null { col.not_null() } else { col })
                    })
                    .collect::<Result<Vec<_>>>()?;
                let schema = Schema::new(cols)?;
                let table = self.core.make_table(name, schema)?;
                self.core.catalog_write()?.create_table(table)?;
                Ok(ExecOutcome::Ddl(format!("created table {name}")))
            }
            Statement::CreateView { name, query } => {
                let mut cat = self.core.catalog_write()?;
                // Validate the view body against the current catalog by
                // planning and running it once on an empty environment.
                self.with_ctx_over(&cat, |ctx| ctx.run_query(query))?;
                cat.create_view(name, (**query).clone())?;
                Ok(ExecOutcome::Ddl(format!("created view {name}")))
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                hash,
            } => {
                let kind = if *hash {
                    IndexKind::Hash
                } else {
                    IndexKind::BTree
                };
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.core.catalog_write()?.table_mut(table)?.create_index(
                    name.clone(),
                    &cols,
                    kind,
                )?;
                Ok(ExecOutcome::Ddl(format!("created index {name} on {table}")))
            }
            Statement::CreateMaterializedView { name, query } => {
                let mut cat = self.core.catalog_write()?;
                let def = crate::matview::build_def(self, &cat, name, query)?;
                let n = def.winner_count();
                cat.create_matview(def)?;
                Ok(ExecOutcome::Ddl(format!(
                    "created materialized preference view {name} ({n} rows)"
                )))
            }
            Statement::DropMaterializedView(name) => {
                self.core.catalog_write()?.drop_matview(name)?;
                Ok(ExecOutcome::Ddl(format!(
                    "dropped materialized preference view {name}"
                )))
            }
            Statement::RefreshMaterializedView(name) => {
                let mut cat = self.core.catalog_write()?;
                let n = crate::matview::refresh(self, &mut cat, name)?;
                Ok(ExecOutcome::Ddl(format!(
                    "refreshed materialized preference view {name} ({n} rows)"
                )))
            }
            Statement::DropTable(name) => {
                let mut cat = self.core.catalog_write()?;
                // Discard the table's cached pool pages before the drop;
                // its heap file goes when the last shared handle does.
                cat.table(name)?.release_storage()?;
                cat.drop_table(name)?;
                Ok(ExecOutcome::Ddl(format!("dropped table {name}")))
            }
            Statement::DropView(name) => {
                self.core.catalog_write()?.drop_view(name)?;
                Ok(ExecOutcome::Ddl(format!("dropped view {name}")))
            }
            Statement::CreatePreference { .. } | Statement::DropPreference(_) => {
                Err(Error::Unsupported(
                    "preference definitions are handled by the Preference SQL \
                     layer, not the host engine"
                        .into(),
                ))
            }
            Statement::Explain { analyze, statement } => {
                if *analyze {
                    return self.explain_analyze(statement);
                }
                let text = self.with_read_ctx(|ctx| crate::explain::explain(ctx, statement))?;
                Ok(ExecOutcome::Explain(text))
            }
        }
    }

    /// `EXPLAIN ANALYZE`: actually execute `stmt` — side effects
    /// included, byte-identical to a plain run by construction — with
    /// every operator instrumented, then return the executed plan
    /// annotated with the observed per-node metrics. Statements without
    /// a profiled plan (DDL, VALUES-only DML) report the execution
    /// summary line alone.
    fn explain_analyze(&mut self, stmt: &Statement) -> Result<ExecOutcome> {
        let was = self.profiling.replace(true);
        self.last_analyzed.borrow_mut().take();
        let started = std::time::Instant::now();
        let out = self.execute(stmt);
        let elapsed = started.elapsed();
        self.profiling.set(was);
        let out = out?;
        let mut text = self.take_analyzed().unwrap_or_default();
        let summary = match &out {
            ExecOutcome::Rows(r) => format!("returned {} row(s)", r.rows.len()),
            ExecOutcome::Count(n) => format!("affected {n} row(s)"),
            ExecOutcome::Ddl(msg) => msg.clone(),
            ExecOutcome::Explain(_) => "explained".to_string(),
        };
        use std::fmt::Write as _;
        let _ = writeln!(
            text,
            "Execution: {summary} in {:.3} ms",
            elapsed.as_secs_f64() * 1e3
        );
        Ok(ExecOutcome::Explain(text))
    }

    /// Charge view-maintenance dominance comparisons to the session and
    /// the engine-wide registry (maintenance runs under the DML write
    /// lock, outside any read-statement context).
    fn note_maintenance_dominance(&self, n: u64) {
        if n > 0 {
            self.note_stats(ExecStats {
                dominance_tests: n,
                ..ExecStats::default()
            });
        }
    }

    // ------------------------------------------------------------- queries

    /// Plan `query` inside a fresh read-statement context. The plan is
    /// plain data and remains valid after the context's lock is released.
    pub fn plan_for(&self, query: &Query) -> Result<Arc<QueryPlan>> {
        self.with_read_ctx(|ctx| ctx.plan_for(query))
    }

    /// Execute a query block as one read statement.
    pub fn run_query(&self, query: &Query) -> Result<Relation> {
        self.with_read_ctx(|ctx| ctx.run_query(query))
    }

    // ----------------------------------------------------------------- DML

    fn run_insert(
        &self,
        cat: &mut Catalog,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
    ) -> Result<ExecOutcome> {
        // Materialize the rows before touching the target table (also makes
        // `INSERT INTO t SELECT ... FROM t` well-defined). Evaluation runs
        // in a statement context borrowing the write-locked catalog.
        let incoming: Vec<Tuple> = self.with_ctx_over(cat, |ctx| match source {
            InsertSource::Values(rows) => {
                // VALUES see no columns: bound in an empty scope,
                // evaluated against an empty row.
                let empty = Tuple::default();
                rows.iter()
                    .map(|row| {
                        row.iter()
                            .map(|e| eval(&bind(ctx, e, &[])?, Env::new(&empty, &[]), ctx))
                            .collect()
                    })
                    .collect()
            }
            InsertSource::Query(q) => Ok(ctx.run_query(q)?.rows),
        })?;
        let target = cat.table(table)?;
        let schema = target.schema().clone();
        // Map the incoming positions onto the target columns.
        let positions: Vec<usize> = match columns {
            None => (0..schema.len()).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| schema.resolve(None, c))
                .collect::<Result<_>>()?,
        };
        let mut staged = Vec::with_capacity(incoming.len());
        for row in &incoming {
            if row.len() != positions.len() {
                return Err(Error::Exec(format!(
                    "INSERT supplies {} values but {} columns are targeted",
                    row.len(),
                    positions.len()
                )));
            }
            let mut values = vec![Value::Null; schema.len()];
            for (v, &pos) in row.values().iter().zip(&positions) {
                // Implicit coercions (INT into FLOAT, string into DATE).
                values[pos] = match schema.column(pos).data_type {
                    dt if v.is_null() => {
                        let _ = dt;
                        Value::Null
                    }
                    dt => v.coerce_to(dt).unwrap_or_else(|_| v.clone()),
                };
            }
            // Validate every row before the first is stored: a statement
            // that fails here leaves the table as it was.
            let tuple = Tuple::new(values);
            tuple.check_against(&schema)?;
            staged.push(tuple);
        }
        let n = store(cat, table, |t| t.insert_all(staged))?;
        Ok(ExecOutcome::Count(n))
    }

    /// Row ids of `table` satisfying `predicate` (all rows when `None`),
    /// ascending. The target rows are found as a SELECT finds them: the
    /// WHERE's sargs pick an index, whose candidates the bound predicate
    /// re-checks; otherwise a scan skips the pages the sargs rule out and
    /// decodes only the columns the predicate reads. Either way the rows
    /// decoded are charged to `rows_scanned`.
    fn matching_row_ids(
        &self,
        cat: &Catalog,
        table: &str,
        predicate: Option<&Expr>,
    ) -> Result<Vec<usize>> {
        let t = cat.table(table)?;
        let Some(predicate) = predicate else {
            return Ok((0..t.len()).collect());
        };
        let schema = t.schema().without_qualifiers().with_qualifier(t.name());
        self.with_ctx_over(cat, |ctx| {
            let pred = bind(ctx, predicate, &[&schema])?;
            let sargs = if ctx.use_indexes() {
                access::sargs(&schema, Some(predicate))
            } else {
                Vec::new()
            };
            let mut ids = Vec::new();
            let mut scanned = 0;
            match choose_access_path(t, &sargs) {
                AccessPath::Index { mut row_ids, .. } => {
                    ctx.stats.borrow_mut().index_probes += 1;
                    row_ids.sort_unstable();
                    row_ids.dedup();
                    scanned = row_ids.len() as u64;
                    for rid in row_ids {
                        if holds(&pred, Env::new(&t.fetch_row(rid)?, &[]), ctx)? {
                            ids.push(rid);
                        }
                    }
                }
                AccessPath::SeqScan => {
                    let mask = columns_read(&pred, schema.len());
                    let mut filter = PageFilter::new(&sargs);
                    t.for_each_row_where(mask.as_deref(), &mut filter, |rid, row| {
                        scanned += 1;
                        if holds(&pred, Env::new(row, &[]), ctx)? {
                            ids.push(rid);
                        }
                        Ok(())
                    })?;
                }
            }
            ctx.stats.borrow_mut().rows_scanned += scanned;
            Ok(ids)
        })
    }

    /// Apply an UPDATE and return the ids of the replaced rows (the
    /// caller drives view maintenance off them).
    fn run_update(
        &self,
        cat: &mut Catalog,
        table: &str,
        assignments: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> Result<Vec<usize>> {
        let ids = self.matching_row_ids(cat, table, predicate)?;
        // Pre-resolve target columns and compute the new tuples before
        // mutating, so a failing assignment leaves the table untouched.
        let (positions, new_rows) = {
            let t = cat.table(table)?;
            let schema = t.schema().clone();
            let positions: Vec<usize> = assignments
                .iter()
                .map(|(c, _)| schema.resolve(None, c))
                .collect::<Result<_>>()?;
            let eval_schema = schema.without_qualifiers().with_qualifier(t.name());
            let new_rows = self.with_ctx_over(cat, |ctx| {
                let exprs = assignments
                    .iter()
                    .map(|(_, e)| bind(ctx, e, &[&eval_schema]))
                    .collect::<Result<Vec<_>>>()?;
                let mut new_rows = Vec::with_capacity(ids.len());
                for &rid in &ids {
                    let row = t.fetch_row(rid)?;
                    let mut values = row.values().to_vec();
                    for (expr, &pos) in exprs.iter().zip(&positions) {
                        let v = eval(expr, Env::new(&row, &[]), ctx)?;
                        let target_type = schema.column(pos).data_type;
                        values[pos] = v.coerce_to(target_type).unwrap_or(v);
                    }
                    let tuple = Tuple::new(values);
                    tuple.check_against(&schema)?;
                    new_rows.push(tuple);
                }
                Ok(new_rows)
            })?;
            (positions, new_rows)
        };
        store(cat, table, |t| {
            for (&rid, row) in ids.iter().zip(new_rows) {
                t.replace_row(rid, row)?;
            }
            // UPDATE keeps rids: only indexes keyed on an assigned column
            // are stale.
            if !ids.is_empty() {
                t.rebuild_indexes_over(&positions)?;
            }
            Ok(())
        })?;
        Ok(ids)
    }
}

/// Run a DML statement's storage step on `table`. A step that fails may
/// have changed the table already, so the views on it can no longer
/// trust their score rows to mirror its row ids: they go stale (REFRESH
/// rebuilds them) and the error is returned.
fn store<T>(
    cat: &mut Catalog,
    table: &str,
    step: impl FnOnce(&mut Table) -> Result<T>,
) -> Result<T> {
    let out = step(cat.table_mut(table)?);
    if out.is_err() {
        cat.mark_views_stale(table);
    }
    out
}

/// The columns of its own row `pred` reads, as a mask over `width`
/// columns — or `None` (read them all) when it holds a sub-query, whose
/// plan may read the row through a correlated reference the mask cannot
/// see.
fn columns_read(pred: &BoundExpr, width: usize) -> Option<Vec<bool>> {
    let mut mask = vec![false; width];
    for ordinal in pred.reads()?.own_columns {
        if let Some(read) = mask.get_mut(ordinal) {
            *read = true;
        }
    }
    Some(mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A storage step that fails after changing the table leaves the
    /// views on it stale, so none serves rows by ids that moved; REFRESH
    /// brings them back in step with what the table holds.
    #[test]
    fn a_failed_storage_step_marks_the_tables_views_stale() {
        let mut e = Engine::new();
        e.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
        e.execute_sql("INSERT INTO t VALUES (3), (2)").unwrap();
        e.execute_sql(
            "CREATE MATERIALIZED PREFERENCE VIEW low AS SELECT x FROM t PREFERRING LOWEST(x)",
        )
        .unwrap();
        {
            let mut cat = e.catalog_mut();
            let failed = store(&mut cat, "t", |t| {
                t.insert(Tuple::new(vec![Value::Int(1)]))?;
                Err::<(), _>(Error::Exec("simulated write failure".into()))
            });
            assert!(failed.is_err());
            assert!(cat.matview("low").unwrap().stale);
        }
        let err = e.execute_sql("SELECT x FROM low").unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        e.execute_sql("REFRESH MATERIALIZED PREFERENCE VIEW low")
            .unwrap();
        let rel = e.execute_sql("SELECT x FROM low").unwrap().expect_rows();
        assert_eq!(rel.rows, vec![Tuple::new(vec![Value::Int(1)])]);
    }

    #[test]
    fn shared_core_visible_across_facades() {
        let core = EngineCore::shared();
        let mut writer = Engine::with_core(Arc::clone(&core));
        writer.execute_sql("CREATE TABLE t (x INTEGER)").unwrap();
        writer.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
        let mut reader = Engine::with_core(core);
        let out = reader.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.expect_rows().rows[0][0], Value::Int(2));
    }

    #[test]
    fn poisoned_lock_is_a_concurrency_error() {
        let core = EngineCore::shared();
        let poisoner = Arc::clone(&core);
        let handle = std::thread::spawn(move || {
            let _guard = poisoner.catalog_write().unwrap();
            panic!("poison the catalog lock");
        });
        assert!(handle.join().is_err());
        let mut session = Engine::with_core(core);
        let err = session.execute_sql("SELECT 1").unwrap_err();
        assert!(matches!(err, Error::Concurrency(_)), "got {err:?}");
        assert_eq!(err.layer(), "concurrency");
    }

    #[test]
    fn facade_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Engine>();
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<EngineCore>();
    }
}
