//! `EXPLAIN`: a textual rendering of the plan the executor runs.
//!
//! The tree printed here is the very [`PlanNode`] object produced by
//! [`crate::plan::plan_query`] and executed by [`crate::physical`] — there
//! is no second access-path derivation, so EXPLAIN can never drift from
//! execution. The Preference SQL facade additionally prefixes the
//! rewritten SQL, so `EXPLAIN SELECT ... PREFERRING ...` shows both the
//! rewrite and the host plan. [`render_analyzed`] prints the same tree
//! annotated with a [`Profiler`]'s observed per-node metrics — what
//! `EXPLAIN ANALYZE` shows after actually executing the statement.
//!
//! Native mode has no renderer of its own: its plan is a tree of these
//! same nodes with a [`PlanNode::Preference`] (or, on a materialized
//! view hit, a tagged [`PlanNode::MatViewScan`]) in it, so `render` /
//! `render_analyzed` print it — `comparisons=` on the `Preference` line
//! comes from the operator's [`crate::physical::Operator::counters`].

use crate::access::Sarg;
use crate::exec::ExecCtx;
use crate::metrics::Profiler;
use crate::plan::{JoinKind, PlanNode, Projection};
use prefsql_parser::ast::Statement;
use prefsql_pref::SkylineAlgo;
use prefsql_types::knobs::fmt_bytes;
use prefsql_types::{Result, Value};
use std::fmt::Write as _;

/// Render an execution plan for `stmt` inside one statement context.
pub fn explain(ctx: &ExecCtx<'_>, stmt: &Statement) -> Result<String> {
    match stmt {
        Statement::Select(q) => {
            let plan = ctx.plan_for(q)?;
            let mut out = String::new();
            render(plan.root(), 0, &mut out);
            Ok(out)
        }
        Statement::Insert { table, source, .. } => {
            let mut out = format!("Insert into {table}\n");
            if let prefsql_parser::ast::InsertSource::Query(q) = source {
                let plan = ctx.plan_for(q)?;
                render(plan.root(), 1, &mut out);
            } else {
                out.push_str("  Values\n");
            }
            Ok(out)
        }
        Statement::Explain { statement, .. } => explain(ctx, statement),
        other => Ok(format!("Utility statement: {other}\n")),
    }
}

/// Render a plan sub-tree into `out`, one node per line, children
/// indented below their parent.
pub fn render(node: &PlanNode, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    node_line(node, out);
    out.push('\n');
    for child in children(node) {
        render(child, depth + 1, out);
    }
}

/// Render a plan sub-tree annotated per node with the metrics `prof`
/// observed while the plan actually executed — the body of
/// `EXPLAIN ANALYZE`. A node without a profile entry never ran (a
/// short-circuited probe, the unpulled side of an empty join).
pub fn render_analyzed(node: &PlanNode, prof: &Profiler, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    node_line(node, out);
    match prof.node(node) {
        Some(m) => {
            let _ = write!(
                out,
                " (actual rows={} batches={} time={:.3}ms",
                m.rows,
                m.batches,
                m.total_ns() as f64 / 1e6
            );
            for (k, v) in &m.extras {
                let _ = write!(out, " {k}={v}");
            }
            out.push(')');
        }
        None => out.push_str(" (never executed)"),
    }
    out.push('\n');
    for child in children(node) {
        render_analyzed(child, prof, depth + 1, out);
    }
}

/// The direct children of a plan node, in render order.
fn children(node: &PlanNode) -> Vec<&PlanNode> {
    match node {
        PlanNode::Join { left, right, .. } => vec![left, right],
        other => other.input().into_iter().collect(),
    }
}

/// Append one node's description — no indentation, no newline — shared
/// by the plain and the analyzed rendering so they can never drift.
fn node_line(node: &PlanNode, out: &mut String) {
    match node {
        PlanNode::Nothing { .. } => {
            out.push_str("Result: one empty row");
        }
        PlanNode::SeqScan {
            table,
            qualifier,
            rows,
            backend,
            sargs,
            schema,
        } => {
            let _ = write!(out, "Seq scan: {}({rows} rows)", shown(table, qualifier));
            // The default in-memory backend stays unmarked so existing
            // EXPLAIN output is byte-identical; paged scans are tagged,
            // with the conjuncts their page synopses are checked against.
            if *backend != "mem" {
                let _ = write!(out, " [backend={backend}]");
                if !sargs.is_empty() {
                    let shown: Vec<String> = sargs
                        .iter()
                        .map(|s| sarg_text(&schema.column(s.col()).name, s))
                        .collect();
                    let _ = write!(out, " [prune: {}]", shown.join(" AND "));
                }
            }
        }
        PlanNode::MatViewScan {
            view,
            winners,
            serves,
            ..
        } => {
            let rows = winners.len();
            let _ = write!(out, "Materialized view scan: {view} ({rows} winners)");
            if *serves {
                let _ = write!(out, " [view={view} hit]");
            }
        }
        PlanNode::Preference { spec, .. } => {
            // Under Auto the effective degree is cost-based per input
            // (serial under PARALLEL_CUTOFF candidates) — surface the
            // session's ceiling.
            let _ = write!(out, "Preference (BMO, algo={}", spec.knobs.algo.label());
            if matches!(spec.knobs.algo, SkylineAlgo::Auto) && spec.knobs.threads > 1 {
                let _ = write!(out, ", threads={}", spec.knobs.threads);
            }
            if !spec.groups.is_empty() {
                let _ = write!(out, ", {} grouping key(s)", spec.groups.len());
            }
            // External-memory mode: the window budget the operator streams
            // under (spilled_runs/passes are runtime facts — the shell
            // prints them as a metrics line after each execution).
            if let Some(budget) = spec.external_budget() {
                let _ = write!(out, ", window={}", fmt_bytes(budget as u64));
            }
            let _ = write!(
                out,
                ", {} base preference(s)",
                spec.compiled.preference.arity()
            );
            if spec.but_only.is_some() {
                out.push_str(", but-only threshold");
            }
            out.push(')');
            // Why a materialized preference view on the base table did
            // not serve this query.
            if let Some((name, state)) = &spec.view {
                let _ = write!(out, " [view={name} {state}]");
            }
        }
        PlanNode::IndexScan {
            table,
            qualifier,
            row_ids,
            describe,
            ..
        } => {
            let _ = write!(
                out,
                "Index probe: {}via {describe} ({} candidates)",
                shown(table, qualifier),
                row_ids.len()
            );
        }
        PlanNode::Materialize { label, .. } => {
            let _ = write!(out, "{label}");
        }
        PlanNode::Join {
            kind,
            keys,
            residual,
            window,
            ..
        } => {
            let hash = |out: &mut String| {
                let shown: Vec<String> = keys.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                let window = window.map_or_else(|| "off".to_string(), |b| fmt_bytes(b as u64));
                let _ = write!(out, "keys=[{}] window={window}", shown.join(", "));
                if let Some(r) = residual {
                    let _ = write!(out, " residual={r}");
                }
            };
            match (kind, keys.is_empty(), residual) {
                (JoinKind::Inner, true, Some(cond)) => {
                    let _ = write!(out, "Nested-loop join on {cond}");
                }
                (JoinKind::Inner, true, None) => out.push_str("Cross join"),
                (JoinKind::Inner, false, _) => {
                    out.push_str("join=hash ");
                    hash(out);
                }
                (JoinKind::Semi | JoinKind::Anti, ..) => {
                    let label = if *kind == JoinKind::Semi {
                        "Semi"
                    } else {
                        "Anti"
                    };
                    let _ = write!(out, "{label} join on ");
                    match residual {
                        Some(cond) if keys.is_empty() => {
                            let _ = write!(out, "{cond}");
                        }
                        _ => hash(out),
                    }
                }
            }
        }
        PlanNode::Filter { pred, .. } => {
            let _ = write!(out, "Filter: {pred}");
        }
        PlanNode::Project {
            projections,
            schema,
            ..
        } => {
            let cols: Vec<String> = schema
                .columns()
                .iter()
                .zip(projections)
                .map(|(c, p)| match p {
                    Projection::Passthrough(_) => c.qualified_name(),
                    Projection::Computed(e) => format!("{e}"),
                })
                .collect();
            let _ = write!(out, "Project: {}", cols.join(", "));
        }
        PlanNode::Sort { keys, .. } => {
            let _ = write!(out, "sort({} keys)", keys.len());
        }
        PlanNode::Distinct { .. } => {
            out.push_str("distinct");
        }
        PlanNode::Limit { label, .. } => {
            let _ = write!(out, "{label}");
        }
        PlanNode::Aggregate { spec, .. } => {
            let mut steps = format!("aggregate({} keys", spec.group_by.len());
            if spec.having.is_some() {
                steps.push_str(", having");
            }
            if !spec.order_by.is_empty() {
                let _ = write!(steps, ", sort({} keys)", spec.order_by.len());
            }
            steps.push(')');
            let _ = write!(out, "{steps}");
        }
    }
}

/// One sargable conjunct as SQL over column `col`.
fn sarg_text(col: &str, sarg: &Sarg) -> String {
    let lit = |v: &Value| match v {
        Value::Str(_) | Value::Date(_) => format!("'{}'", v.to_string().replace('\'', "''")),
        _ => v.to_string(),
    };
    match sarg.bounds() {
        (Some(value), _) if matches!(sarg, Sarg::Eq { .. }) => format!("{col} = {}", lit(value)),
        (Some(low), Some(high)) => format!("{col} BETWEEN {} AND {}", lit(low), lit(high)),
        (Some(low), None) => format!("{col} >= {}", lit(low)),
        (None, Some(high)) => format!("{col} <= {}", lit(high)),
        (None, None) => format!("{col} IS NOT NULL"),
    }
}

/// `table AS alias` when the exposed qualifier differs from the table
/// name, with a trailing space either way.
fn shown(table: &str, qualifier: &str) -> String {
    if qualifier == table.to_ascii_lowercase() {
        format!("{table} ")
    } else {
        format!("{table} AS {qualifier} ")
    }
}
