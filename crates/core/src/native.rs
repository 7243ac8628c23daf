//! Native preference evaluation — the "skyline operator in the kernel"
//! alternative the paper's outlook points at (§3.3: "implementing a
//! generalized skyline operator in the kernel of an SQL-system clearly
//! holds much promise").
//!
//! Instead of rewriting to a `NOT EXISTS` anti-join, native mode asks the
//! host engine for a plan with a first-class BMO node in it. Everything
//! about that plan lives in `prefsql-engine`: it is *planned* by
//! [`prefsql_engine::plan::plan_preference`] (FROM/WHERE source → slot
//! projection → `PlanNode::Preference`, or a materialized-view scan on a
//! cache hit → the ordinary Sort/Project/Distinct/Limit tail), *built* by
//! `physical::build` like every other operator (so `EXPLAIN ANALYZE`
//! instruments it), and *rendered* by `explain::render`. What is left
//! here is the facade's part: [`NativeOptions`] (the session knobs the
//! planner bakes in) and [`run_native_in`] — resolve named preferences
//! through the session's registry, plan, execute, wrap the [`ResultSet`].
//! Semantics are identical to the rewrite path — the `rewrite_vs_native`
//! differential test suite and ablation benchmark A1 depend on that.

use crate::knobs;
use crate::result::{ResultSet, ViewActivity};
use prefsql_engine::physical::{execute, DEFAULT_BATCH};
use prefsql_engine::plan::{plan_preference, QueryPlan};
use prefsql_engine::{Engine, ExecCtx};
use prefsql_parser::ast::Query;
use prefsql_rewrite::PreferenceRegistry;
use prefsql_types::{Error, Result};
use std::path::Path;
use std::sync::Arc;

pub use prefsql_pref::{SkylineAlgo, SpillMetrics};

/// Execution knobs for the native preference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeOptions {
    /// How the maximal-set selection is driven (the shell's `\algo`).
    pub algo: SkylineAlgo,
    /// Parallel-window degree knob (the shell's `\threads N`):
    /// [`SkylineAlgo::Auto`] splits the window across up to this many
    /// scoped OS threads once the candidate set reaches
    /// [`prefsql_pref::PARALLEL_CUTOFF`]; `1` forces the serial window.
    pub threads: usize,
    /// Rows requested per pull by the loop draining the source plan;
    /// `None` drives it one tuple per pull, like `Some(1)` (the
    /// differential suites pin that the result does not depend on the
    /// drive granularity with this).
    pub batch: Option<usize>,
    /// External-memory window budget in bytes (the shell's
    /// `\window N[k|m]`): [`SkylineAlgo::Auto`] streams the candidate
    /// set through the bounded-window multi-pass BNL with spill-to-disk
    /// overflow runs once the candidates exceed this many bytes. `None`
    /// (the default without `PREFSQL_WINDOW`) never spills.
    pub window_bytes: Option<usize>,
}

impl Default for NativeOptions {
    /// Auto algorithm, session-default parallelism (`PREFSQL_THREADS`
    /// or the host width), batched drive loop, session-default window
    /// budget (`PREFSQL_WINDOW` or unbounded).
    fn default() -> Self {
        NativeOptions {
            algo: SkylineAlgo::default(),
            threads: knobs::default_threads(),
            batch: Some(DEFAULT_BATCH),
            window_bytes: knobs::default_window_bytes(),
        }
    }
}

impl NativeOptions {
    /// Default options with a forced algorithm.
    pub fn with_algo(algo: SkylineAlgo) -> Self {
        NativeOptions {
            algo,
            ..NativeOptions::default()
        }
    }
}

/// Plan `query` inside `ctx`: named preferences resolve through the
/// session's `registry` (the engine has none), the engine does the rest.
fn plan(
    ctx: &ExecCtx<'_>,
    registry: &PreferenceRegistry,
    query: &Query,
    opts: NativeOptions,
) -> Result<QueryPlan> {
    let pref = query
        .preferring
        .as_ref()
        .ok_or_else(|| Error::Plan("native evaluation requires a PREFERRING clause".into()))?;
    let resolved = registry.resolve(pref)?;
    plan_preference(ctx, query, &resolved, opts.algo, opts.threads, opts.batch)
}

/// Evaluate a preference query natively as one read statement on
/// `engine`'s shared core: plan it with a `Preference` node (or a
/// materialized-view scan when a view serves it) and run that one tree.
///
/// The statement context is `engine`'s own ([`Engine::read_ctx`]: the
/// session's `\window` budget and spill directory); `opts.window_bytes`
/// and a `Some` `spill_base` override it for this call only.
pub fn run_native_in(
    engine: &Engine,
    registry: &PreferenceRegistry,
    query: &Query,
    opts: NativeOptions,
    spill_base: Option<&Path>,
) -> Result<ResultSet> {
    let mut ctx = engine.read_ctx()?.with_window(opts.window_bytes);
    if let Some(base) = spill_base {
        ctx = ctx.with_spill_base(Some(base.to_path_buf()));
    }
    // Report only this statement's spill (see `Session::forward`).
    let _ = engine.take_spill_metrics();
    let (rel, served_by, dominance) = engine.run_in_ctx(ctx, |ctx| {
        let plan = Arc::new(plan(ctx, registry, query, opts)?);
        // Under EXPLAIN ANALYZE (or the server's slow-query log) the
        // context carries a profiler: keep the plan alive for rendering.
        ctx.profile_plan(&plan);
        let rel = execute(ctx, plan.root(), &[])?;
        let served_by = plan.served_by().map(str::to_owned);
        // A view hit skipped the dominance pass entirely (its upkeep was
        // charged at DML time), so a served query reports zero.
        Ok((rel, served_by, ctx.stats().dominance_tests))
    })?;
    Ok(ResultSet::new(rel)
        .with_spill(engine.take_spill_metrics())
        .with_dominance(dominance)
        .with_views(served_by.map(|name| ViewActivity {
            served_by: Some(name),
            maintained: 0,
        })))
}

/// The plan [`run_native_in`] would execute, rendered by the engine's
/// one EXPLAIN renderer.
pub fn explain(
    engine: &Engine,
    registry: &PreferenceRegistry,
    query: &Query,
    opts: NativeOptions,
) -> Result<String> {
    let ctx = engine.read_ctx()?.with_window(opts.window_bytes);
    engine.run_in_ctx(ctx, |ctx| {
        let plan = plan(ctx, registry, query, opts)?;
        let mut out = String::new();
        prefsql_engine::explain::render(plan.root(), 0, &mut out);
        Ok(out)
    })
}
