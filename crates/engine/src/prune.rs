//! Column pruning: a plan carries only the columns it reads.
//!
//! [`prune`] runs once over each finished statement plan
//! (`plan::plan_statement`, and `plan::plan_target` for UPDATE and
//! DELETE), the plans of its sub-queries included. It knows nothing of
//! preferences: the columns each node needs flow top-down, and each node
//! renumbers the bound ordinals it holds on the way back up — depth 0 for
//! its own input, and depth 1 for a semi or anti join residual's left row
//! and a `BUT ONLY` threshold's source row.
//!
//! What narrows:
//!
//! * a [`PlanNode::Project`] below the root — a derived table's or view
//!   body's select list, the build row of a semi or anti join — keeps
//!   only the output columns its consumers read;
//! * a [`PlanNode::Materialize`] takes its body's narrowed width. Every
//!   use of one `cache_key` in the statement shares one materialization,
//!   so each body is narrowed to the union of what all of its uses read
//!   (the rewrite's `prefsql_a1` and `prefsql_a2`), and a cache hit never
//!   hands back a relation of another width;
//! * every scan — [`PlanNode::SeqScan`], [`PlanNode::IndexScan`],
//!   [`PlanNode::MatViewScan`] — and rid mode's winner fetch
//!   ([`crate::preference::PrefSpec::rid_mask`]) decode only the columns
//!   read above them. Their width stays; on the paged backend the others
//!   read as `NULL`, and the mem backend lends whole rows regardless.
//!
//! What stays whole: everything a `Distinct` reads; the columns GROUP BY
//! keys, aggregate arguments, preference slots, `GROUPING` keys and `BUT
//! ONLY` read; everything a sort key, filter, join key or residual reads;
//! the whole input row of any expression holding a sub-query, whose plan
//! may read that row at any depth; and the statement's root. The output
//! of an inner join is not narrowed by the join itself, but its ordinals
//! are renumbered when an input narrows.
//!
//! The pass inserts no node. It walks the tree first to collect what
//! each materialization's uses read, again until those unions stop
//! growing (a body nested in another sees its host's final union), and
//! then once more to rewrite it.

use crate::bind::BoundExpr;
use crate::plan::{JoinKind, PlanNode, Projection, QueryPlan};
use prefsql_types::{Result, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// Where each output column of a pruned node went: entry `old` is its
/// new ordinal ([`GONE`] when dropped); `None` when no column moved.
type Renumber = Option<Vec<usize>>;

/// The new ordinal of a dropped column. Nothing reads it.
const GONE: usize = usize::MAX;

/// Narrow the plan under `root` to the columns it reads; `whole` says
/// whether the root's consumer reads every column of it (a query's
/// result) or none (the row ids of UPDATE and DELETE targets).
pub(crate) fn prune(root: &mut PlanNode, whole: bool) -> Result<()> {
    let need = vec![whole; root.schema().len()];
    let mut pass = Pass {
        shared: HashMap::new(),
        apply: false,
        grew: true,
    };
    while pass.grew {
        pass.grew = false;
        pass.node(root, need.clone())?;
    }
    pass.apply = true;
    pass.node(root, need)?;
    Ok(())
}

struct Pass {
    /// The union of the columns every use of a materialization reads, by
    /// `cache_key`.
    shared: HashMap<String, Vec<bool>>,
    /// Rewriting the tree; otherwise only collecting `shared`.
    apply: bool,
    /// A union of `shared` grew during this walk.
    grew: bool,
}

impl Pass {
    /// Narrow `node` to the output columns `need` marks, and say where
    /// its columns went. Only the rewriting walk changes the node.
    fn node(&mut self, node: &mut PlanNode, mut need: Vec<bool>) -> Result<Renumber> {
        match node {
            PlanNode::Nothing { .. } => Ok(None),
            PlanNode::SeqScan { mask, .. }
            | PlanNode::IndexScan { mask, .. }
            | PlanNode::MatViewScan { mask, .. } => {
                if self.apply {
                    *mask = need.contains(&false).then_some(need);
                }
                Ok(None)
            }
            PlanNode::Materialize {
                cache_key,
                input,
                schema,
                ..
            } => {
                let union = self.shared.entry(cache_key.clone()).or_default();
                union.resize(need.len(), false);
                for (u, n) in union.iter_mut().zip(&need) {
                    self.grew |= *n && !*u;
                    *u |= *n;
                }
                let union = union.clone();
                let map = self.node(input, union)?;
                if self.apply {
                    narrow(schema, &map)?;
                }
                Ok(map)
            }
            PlanNode::Join {
                kind,
                left,
                right,
                keys,
                residual,
                schema,
                ..
            } => {
                let (lw, rw) = (left.schema().len(), right.schema().len());
                let (mut lneed, mut rneed) = (vec![false; lw], vec![false; rw]);
                for (l, r) in keys.iter_mut() {
                    self.expr(&mut l.expr, 0, &mut lneed)?;
                    self.expr(&mut r.expr, 0, &mut rneed)?;
                }
                let inner = *kind == JoinKind::Inner;
                if inner {
                    // Bound against the combined row.
                    if let Some(res) = residual.as_mut() {
                        self.expr(&mut res.expr, 0, &mut need)?;
                    }
                    lneed.iter_mut().zip(&need).for_each(|(l, n)| *l |= n);
                    rneed.iter_mut().zip(&need[lw..]).for_each(|(r, n)| *r |= n);
                } else {
                    // The sub-query's own predicate: the right row
                    // innermost, the left row one frame out.
                    if let Some(res) = residual.as_mut() {
                        reads(&res.expr, 1, &mut lneed);
                        self.expr(&mut res.expr, 0, &mut rneed)?;
                    }
                    lneed.iter_mut().zip(&need).for_each(|(l, n)| *l |= n);
                }
                let lmap = self.node(left, lneed)?;
                let rmap = self.node(right, rneed)?;
                if !self.apply {
                    return Ok(None);
                }
                for (l, r) in keys.iter_mut() {
                    renumber(&mut l.expr, 0, &lmap);
                    renumber(&mut r.expr, 0, &rmap);
                }
                if !inner {
                    if let Some(res) = residual.as_mut() {
                        renumber(&mut res.expr, 0, &rmap);
                        renumber(&mut res.expr, 1, &lmap);
                    }
                    if lmap.is_some() {
                        *schema = left.schema().clone();
                    }
                    return Ok(lmap);
                }
                let map = concat(lmap, lw, left.schema().len(), rmap, rw);
                if map.is_some() {
                    if let Some(res) = residual.as_mut() {
                        renumber(&mut res.expr, 0, &map);
                    }
                    *schema = left.schema().join(right.schema());
                }
                Ok(map)
            }
            PlanNode::Filter { input, pred } => {
                self.expr(&mut pred.expr, 0, &mut need)?;
                let map = self.node(input, need)?;
                renumber(&mut pred.expr, 0, &map);
                Ok(map)
            }
            PlanNode::Project {
                input,
                projections,
                schema,
            } => {
                let mut inner = vec![false; input.schema().len()];
                for (p, _) in projections.iter_mut().zip(&need).filter(|(_, n)| **n) {
                    match p {
                        Projection::Passthrough(j) => inner[*j] = true,
                        Projection::Computed(b) => self.expr(&mut b.expr, 0, &mut inner)?,
                    }
                }
                let map = self.node(input, inner)?;
                if !self.apply {
                    return Ok(None);
                }
                for p in projections.iter_mut() {
                    match p {
                        Projection::Passthrough(j) => *j = map.as_ref().map_or(*j, |m| m[*j]),
                        Projection::Computed(b) => renumber(&mut b.expr, 0, &map),
                    }
                }
                if !need.contains(&false) {
                    return Ok(None);
                }
                let mut kept = need.iter();
                projections.retain(|_| *kept.next().unwrap_or(&true));
                let map = Some(kept_at(&need));
                narrow(schema, &map)?;
                Ok(map)
            }
            PlanNode::Sort { input, keys, .. } => {
                for k in keys.iter_mut() {
                    self.expr(&mut k.key.expr, 0, &mut need)?;
                }
                let map = self.node(input, need)?;
                for k in keys.iter_mut() {
                    renumber(&mut k.key.expr, 0, &map);
                }
                Ok(map)
            }
            PlanNode::Distinct { input } => {
                need.fill(true);
                self.node(input, need)
            }
            PlanNode::Limit { input, .. } => self.node(input, need),
            PlanNode::Preference {
                input,
                spec,
                schema,
            } => {
                let w = input.schema().len();
                let rid = spec.rid_table.is_some();
                // Rid mode fetches its winners by row id: the source feeds
                // the slots and GROUPING keys only.
                let mut inner = if rid {
                    vec![false; w]
                } else {
                    need[..w].to_vec()
                };
                for c in spec.slots.iter_mut().chain(&mut spec.groups) {
                    self.expr(&mut c.expr, 0, &mut inner)?;
                }
                // Its quality values innermost, then the source row.
                if let Some(c) = spec.but_only.as_mut() {
                    reads(&c.expr, 1, &mut inner);
                    self.subplans(&mut c.expr)?;
                }
                let map = self.node(input, inner)?;
                if !self.apply {
                    return Ok(None);
                }
                if rid {
                    spec.rid_mask = need[..w].contains(&false).then(|| need[..w].to_vec());
                }
                for c in spec.slots.iter_mut().chain(&mut spec.groups) {
                    renumber(&mut c.expr, 0, &map);
                }
                if let Some(c) = spec.but_only.as_mut() {
                    renumber(&mut c.expr, 1, &map);
                }
                extend(schema, input.schema(), w, map)
            }
            PlanNode::Aggregate {
                input,
                spec,
                schema,
            } => {
                let w = input.schema().len();
                let mut inner = need[..w].to_vec();
                let args = spec.calls.iter_mut().filter_map(|c| c.arg.as_mut());
                for b in spec.group_by.iter_mut().chain(args) {
                    self.expr(&mut b.expr, 0, &mut inner)?;
                }
                let map = self.node(input, inner)?;
                if !self.apply {
                    return Ok(None);
                }
                let args = spec.calls.iter_mut().filter_map(|c| c.arg.as_mut());
                for b in spec.group_by.iter_mut().chain(args) {
                    renumber(&mut b.expr, 0, &map);
                }
                extend(schema, input.schema(), w, map)
            }
        }
    }

    /// Mark in `need` the columns `expr` reads at `depth`, and prune the
    /// plans of the sub-queries it holds.
    fn expr(&mut self, expr: &mut BoundExpr, depth: usize, need: &mut [bool]) -> Result<()> {
        reads(expr, depth, need);
        self.subplans(expr)
    }

    /// Prune the plan of every sub-query `expr` holds: its root whole,
    /// but for a first-row `EXISTS` probe, whose rows nothing reads.
    fn subplans(&mut self, expr: &mut BoundExpr) -> Result<()> {
        let mut result = Ok(());
        expr.visit_mut(&mut |e| {
            let (plan, whole) = match e {
                BoundExpr::Exists {
                    plan, first_row, ..
                } => (plan, !*first_row),
                BoundExpr::InSubquery { plan, .. } | BoundExpr::ScalarSubquery(plan) => {
                    (plan, true)
                }
                _ => return,
            };
            if result.is_ok() {
                result = self.plan(plan, whole);
            }
        });
        result
    }

    fn plan(&mut self, plan: &mut Arc<QueryPlan>, whole: bool) -> Result<()> {
        let root = &mut Arc::make_mut(plan).root;
        let need = vec![whole; root.schema().len()];
        self.node(root, need).map(drop)
    }
}

/// Mark in `need` the columns of the row `depth` frames out that `expr`
/// reads — all of them when it holds a sub-query, whose plan may read
/// that row through a correlated reference this walk does not see.
fn reads(expr: &BoundExpr, depth: usize, need: &mut [bool]) {
    expr.visit(&mut |e| match e {
        BoundExpr::Column { depth: d, ordinal } if *d == depth => {
            if let Some(n) = need.get_mut(*ordinal) {
                *n = true;
            }
        }
        BoundExpr::Exists { .. } | BoundExpr::InSubquery { .. } | BoundExpr::ScalarSubquery(_) => {
            need.fill(true)
        }
        _ => {}
    });
}

/// Renumber the reads of `expr` at `depth` by `map`. An expression
/// holding a sub-query reads a row that was kept whole, so the reads of
/// its sub-query's plan never move.
fn renumber(expr: &mut BoundExpr, depth: usize, map: &Renumber) {
    let Some(map) = map else {
        return;
    };
    expr.visit_mut(&mut |e| {
        if let BoundExpr::Column { depth: d, ordinal } = e {
            if *d == depth {
                *ordinal = map[*ordinal];
            }
        }
    });
}

/// The renumbering that keeps the columns `kept` marks, in order.
fn kept_at(kept: &[bool]) -> Vec<usize> {
    let mut next = 0;
    let to = |&k: &bool| {
        next += usize::from(k);
        if k {
            next - 1
        } else {
            GONE
        }
    };
    kept.iter().map(to).collect()
}

/// Drop from `schema` the columns `map` drops.
fn narrow(schema: &mut Schema, map: &Renumber) -> Result<()> {
    if let Some(map) = map {
        let columns = schema.columns().iter().zip(map);
        let kept = columns
            .filter(|(_, &to)| to != GONE)
            .map(|(c, _)| c.clone());
        *schema = Schema::new(kept.collect())?;
    }
    Ok(())
}

/// The renumbering of `l`'s `lw` columns (now `new_lw`) followed by
/// `r`'s `rw`.
fn concat(l: Renumber, lw: usize, new_lw: usize, r: Renumber, rw: usize) -> Renumber {
    if l.is_none() && r.is_none() {
        return None;
    }
    let l = l.unwrap_or_else(|| (0..lw).collect());
    let r = r.unwrap_or_else(|| (0..rw).collect());
    let shifted = r
        .into_iter()
        .map(|o| if o == GONE { GONE } else { o + new_lw });
    Some(l.into_iter().chain(shifted).collect())
}

/// A node whose output is its `w`-column input (now `input`) followed by
/// columns of its own: rebuild `schema` and say where its columns went.
fn extend(schema: &mut Schema, input: &Schema, w: usize, map: Renumber) -> Result<Renumber> {
    if map.is_none() {
        return Ok(None);
    }
    let own = &schema.columns()[w..];
    let map = concat(map, w, input.len(), None, own.len());
    *schema = input.join(&Schema::new(own.to_vec())?);
    Ok(map)
}
