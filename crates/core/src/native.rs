//! Native preference evaluation — the "skyline operator in the kernel"
//! alternative the paper's outlook points at (§3.3: "implementing a
//! generalized skyline operator in the kernel of an SQL-system clearly
//! holds much promise").
//!
//! Instead of rewriting to a `NOT EXISTS` anti-join, native mode asks the
//! host engine for a plan with a first-class BMO node in it. Everything
//! about that plan lives in `prefsql-engine`: it is *planned* by
//! [`prefsql_engine::plan::plan_preference`] (FROM/WHERE source →
//! `PlanNode::Preference`, or a materialized-view scan on a cache hit →
//! the ordinary Sort/Project/Distinct/Limit tail), *built* by
//! `physical::build` like every other operator (so `EXPLAIN ANALYZE`
//! instruments it), and *rendered* by `explain::render`. The knobs the
//! planner bakes in are the engine's [`NativeOptions`], one value per
//! session, re-exported here. What is left here is the facade's part,
//! [`run_native_in`]: resolve named preferences through the session's
//! registry, plan, execute, wrap the [`ResultSet`].
//! Semantics are identical to the rewrite path — the `rewrite_vs_native`
//! differential test suite and ablation benchmark A1 depend on that.

use crate::result::{ResultSet, ViewActivity};
use prefsql_engine::physical::execute;
use prefsql_engine::plan::{plan_preference, QueryPlan};
use prefsql_engine::{Engine, ExecCtx};
use prefsql_parser::ast::Query;
use prefsql_rewrite::PreferenceRegistry;
use prefsql_types::{Error, Result};
use std::path::Path;
use std::sync::Arc;

pub use prefsql_engine::NativeOptions;
pub use prefsql_pref::{SkylineAlgo, SpillMetrics};

/// Plan `query` inside `ctx`, under the context's knobs: named
/// preferences resolve through the session's `registry` (the engine has
/// none), the engine does the rest.
fn plan(ctx: &ExecCtx<'_>, registry: &PreferenceRegistry, query: &Query) -> Result<QueryPlan> {
    let pref = query
        .preferring
        .as_ref()
        .ok_or_else(|| Error::Plan("native evaluation requires a PREFERRING clause".into()))?;
    let resolved = registry.resolve(pref)?;
    plan_preference(ctx, query, &resolved)
}

/// Evaluate a preference query natively as one read statement on
/// `engine`'s shared core: plan it with a `Preference` node (or a
/// materialized-view scan when a view serves it) and run that one tree.
///
/// The statement context is `engine`'s own ([`Engine::read_ctx`]: the
/// session's spill directory), run under `opts` instead of the session's
/// knobs; a `Some` `spill_base` overrides the directory for this call
/// only.
pub fn run_native_in(
    engine: &Engine,
    registry: &PreferenceRegistry,
    query: &Query,
    opts: NativeOptions,
    spill_base: Option<&Path>,
) -> Result<ResultSet> {
    let mut ctx = engine.read_ctx()?.with_knobs(opts);
    if let Some(base) = spill_base {
        ctx = ctx.with_spill_base(Some(base.to_path_buf()));
    }
    // Report only this statement's spill (see `Session::forward`).
    let _ = engine.take_spill_metrics();
    let (rel, served_by, dominance) = engine.run_in_ctx(ctx, |ctx| {
        let plan = Arc::new(plan(ctx, registry, query)?);
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

/// The plan [`run_native_in`] would execute under `engine`'s own knobs,
/// rendered by the engine's one EXPLAIN renderer.
pub fn explain(engine: &Engine, registry: &PreferenceRegistry, query: &Query) -> Result<String> {
    engine.with_read_ctx(|ctx| {
        let plan = plan(ctx, registry, query)?;
        let mut out = String::new();
        prefsql_engine::explain::render(plan.root(), 0, &mut out);
        Ok(out)
    })
}
