//! Native preference evaluation — the "skyline operator in the kernel"
//! alternative the paper's outlook points at (§3.3: "implementing a
//! generalized skyline operator in the kernel of an SQL-system clearly
//! holds much promise").
//!
//! Instead of rewriting to a `NOT EXISTS` anti-join, native mode skips the
//! rewrite and hands every statement to the host engine as it is: each
//! block with `PREFERRING`, at any depth of FROM, plans a first-class BMO
//! node (`PlanNode::Preference`, or a materialized-view scan on a cache
//! hit) under the ordinary block tail, explained and `EXPLAIN ANALYZE`d
//! by the engine's one report. The planner's knobs are the engine's
//! [`NativeOptions`], re-exported here with [`run_native_in`], one query
//! under explicit knobs. Named preferences resolve through the session's
//! registry first (the engine has none). Semantics are identical to the
//! rewrite path — the `rewrite_vs_native` differential suite and ablation
//! benchmark A1 depend on that.

use crate::result::{Baseline, ResultSet};
use prefsql_engine::Engine;
use prefsql_parser::ast::Query;
use prefsql_rewrite::{map_query, PreferenceRegistry};
use prefsql_types::Result;
use std::path::Path;

pub use prefsql_engine::NativeOptions;
pub use prefsql_pref::{SkylineAlgo, SpillMetrics};

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
    let resolved = map_query(query, &mut |block| registry.resolve_block(block))?;
    let query = resolved.as_ref().unwrap_or(query);
    let mut ctx = engine.read_ctx()?.with_knobs(opts);
    if let Some(base) = spill_base {
        ctx = ctx.with_spill_base(Some(base.to_path_buf()));
    }
    let baseline = Baseline::of(engine);
    let rel = engine.run_in_ctx(ctx, |ctx| ctx.run_query(query))?;
    Ok(ResultSet::assemble(engine, rel, baseline))
}
