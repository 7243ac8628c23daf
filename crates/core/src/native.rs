//! Native preference evaluation — the "skyline operator in the kernel"
//! alternative the paper's outlook points at (§3.3: "implementing a
//! generalized skyline operator in the kernel of an SQL-system clearly
//! holds much promise").
//!
//! Instead of rewriting to a `NOT EXISTS` anti-join, native mode hands a
//! preference SELECT to the host engine as it is: a top-level block with
//! `PREFERRING` is one more engine statement, planned with a first-class
//! BMO node ([`prefsql_engine::ExecCtx::plan_for`]: FROM/WHERE source →
//! `PlanNode::Preference`, or a materialized-view scan on a cache hit →
//! the ordinary Sort/Project/Distinct/Limit tail), built by
//! `physical::build` like every other operator, and explained and
//! `EXPLAIN ANALYZE`d by the engine's one report. The knobs the planner
//! bakes in are the engine's [`NativeOptions`], one value per session,
//! re-exported here. What is left here is the facade's part: resolving
//! named preferences through the session's registry (the engine has
//! none), and [`run_native_in`], one statement under explicit knobs.
//! Semantics are identical to the rewrite path — the `rewrite_vs_native`
//! differential test suite and ablation benchmark A1 depend on that.

use crate::result::{Baseline, ResultSet};
use prefsql_engine::Engine;
use prefsql_parser::ast::{PrefExpr, Query};
use prefsql_rewrite::PreferenceRegistry;
use prefsql_types::Result;
use std::path::Path;

pub use prefsql_engine::NativeOptions;
pub use prefsql_pref::{SkylineAlgo, SpillMetrics};

/// `query` with the named preferences of its `PREFERRING` clause
/// resolved through `registry`, or `None` when it names none (the query
/// is then used as it is, not cloned).
pub(crate) fn resolve(registry: &PreferenceRegistry, query: &Query) -> Result<Option<Query>> {
    let Some(pref) = &query.preferring else {
        return Ok(None);
    };
    let names_one = pref
        .base_prefs()
        .iter()
        .any(|base| matches!(base, PrefExpr::Named(_)));
    if !names_one {
        return Ok(None);
    }
    let mut resolved = query.clone();
    resolved.preferring = Some(registry.resolve(pref)?);
    Ok(Some(resolved))
}

/// Evaluate a preference query natively as one read statement on
/// `engine`'s shared core: the engine plans it with a `Preference` node
/// (or a materialized-view scan when a view serves it) and runs that one
/// tree; a query without `PREFERRING` runs as plain SQL.
///
/// The statement context is `engine`'s own ([`Engine::read_ctx`]: the
/// session's spill directory), run under `opts` instead of the session's
/// knobs; a `Some` `spill_base` overrides the directory for this call
/// only. The result reports what `Session::execute` reports.
pub fn run_native_in(
    engine: &Engine,
    registry: &PreferenceRegistry,
    query: &Query,
    opts: NativeOptions,
    spill_base: Option<&Path>,
) -> Result<ResultSet> {
    let resolved = resolve(registry, query)?;
    let query = resolved.as_ref().unwrap_or(query);
    let mut ctx = engine.read_ctx()?.with_knobs(opts);
    if let Some(base) = spill_base {
        ctx = ctx.with_spill_base(Some(base.to_path_buf()));
    }
    let baseline = Baseline::of(engine);
    let rel = engine.run_in_ctx(ctx, |ctx| ctx.run_query(query))?;
    Ok(ResultSet::assemble(engine, rel, baseline))
}
