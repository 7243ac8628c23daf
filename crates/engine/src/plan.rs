//! The logical plan: a query block compiled into an operator tree.
//!
//! [`plan_query`] turns a parsed [`Query`] into a [`PlanNode`] tree exactly
//! once per statement, absorbing all plan-time decisions — access-path
//! selection ([`choose_access_path`]), view expansion, ORDER BY alias
//! substitution, projection/aggregate output schemas. The tree is the
//! single source of truth for execution: `EXPLAIN` renders it and the
//! physical operators of [`crate::physical`] run it, so the two can never
//! drift apart.
//!
//! Preference queries take the same road: [`plan_preference`] (the native
//! mode's planner — [`plan_query`] itself keeps rejecting `PREFERRING`,
//! because in rewrite mode the engine is the plain-SQL oracle) lays
//! [`PlanNode::Preference`] over the ordinary FROM/WHERE source, or swaps
//! the whole BMO for a [`PlanNode::MatViewScan`] when a materialized
//! preference view defines it, and hands the result to the very
//! `plan_block` that layers Sort/Project/Distinct/Limit on plain SQL.

use crate::access::{self, choose_access_path, conjuncts, AccessPath, Sarg};
use crate::bind::{bind, bind_aggregate, bind_over, bind_shown, AggExpr, Bound, BoundExpr};
use crate::exec::ExecCtx;
use crate::preference::{PrefSpec, QualityCol};
use prefsql_parser::ast::{BinaryOp, Expr, OrderByItem, PrefExpr, Query, SelectItem, TableRef};
use prefsql_rewrite::levels::{
    check_aliases, check_quality, default_quality_alias, quality_call, uses_quality,
};
use prefsql_rewrite::{compile_preference, CompiledPreference};
use prefsql_types::{Column, DataType, Error, Result, Schema};

/// One compiled query block, ready for execution and EXPLAIN.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    root: PlanNode,
}

impl QueryPlan {
    /// The root of the operator tree.
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// The materialized preference view whose stored winner set replaced
    /// this plan's BMO (a native-mode cache hit), if any.
    pub fn served_by(&self) -> Option<&str> {
        let mut node = &self.root;
        loop {
            match node {
                PlanNode::MatViewScan {
                    view, serves: true, ..
                } => return Some(view),
                _ => node = node.input()?,
            }
        }
    }
}

/// A node of the logical operator tree. Every node knows its output
/// schema; expressions are bound ([`crate::bind`]) against the node's
/// input and the enclosing blocks (aliases already substituted where SQL
/// requires it).
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// `SELECT` without `FROM`: a single empty tuple.
    Nothing {
        /// The (empty) output schema.
        schema: Schema,
    },
    /// Full scan of a base table: streams straight off the stored rows,
    /// no copy. A paged table skips the pages whose synopses rule out
    /// `sargs`; the parent [`PlanNode::Filter`] still checks every row.
    SeqScan {
        /// Table name in the catalog.
        table: String,
        /// Qualifier the columns are exposed under (alias or table name).
        qualifier: String,
        /// Row count at plan time (informational, for EXPLAIN).
        rows: usize,
        /// Storage backend serving the scan (`"mem"` or `"paged"`; EXPLAIN
        /// tags non-default backends).
        backend: &'static str,
        /// The sargable conjuncts of the block's WHERE over this table
        /// (empty unless it is the block's only FROM item and sargs are
        /// on, [`crate::EngineCore::set_use_indexes`]).
        sargs: Vec<Sarg>,
        /// Output schema (table schema re-qualified).
        schema: Schema,
    },
    /// Scan of a materialized preference view: fetches the stored
    /// winners' rows from the base table by row id, in entry order — the
    /// serving cache a registered skyline reads instead of recomputing
    /// BMO.
    MatViewScan {
        /// View name in the catalog.
        view: String,
        /// The view's base table, which holds the winner rows.
        table: String,
        /// Entry ids of the stored winners (= base-table row ids), taken
        /// at plan time like an index probe's row ids (EXPLAIN shows
        /// their count).
        winners: Vec<usize>,
        /// The scan stands in for a [`PlanNode::Preference`] the view
        /// defines (EXPLAIN tags it `[view=… hit]`), rather than reading
        /// the view by name.
        serves: bool,
        /// Output schema (base-table schema under the view's qualifier).
        schema: Schema,
    },
    /// Index probe of a base table: candidate row ids were computed at
    /// plan time; the full predicate is re-checked by the parent
    /// [`PlanNode::Filter`], so the probe never changes results.
    IndexScan {
        /// Table name in the catalog.
        table: String,
        /// Qualifier the columns are exposed under (alias or table name).
        qualifier: String,
        /// Candidate row ids.
        row_ids: Vec<usize>,
        /// Human-readable probe description (for EXPLAIN).
        describe: String,
        /// Output schema (table schema re-qualified).
        schema: Schema,
    },
    /// A sub-plan materialized once per statement (views and derived
    /// tables are uncorrelated in SQL92, so caching is sound).
    Materialize {
        /// `View expansion: ...` / `Derived table ...` (for EXPLAIN).
        label: String,
        /// Per-statement materialization cache key: the body — derived
        /// table SQL, view or matview name — never the alias, so every
        /// use of one body in a statement (the rewrite's `prefsql_a1` and
        /// `prefsql_a2`) shares one materialization.
        cache_key: String,
        /// The sub-plan.
        input: Box<PlanNode>,
        /// Output schema (sub-plan schema re-qualified).
        schema: Schema,
    },
    /// A join — `JOIN … ON`, `FROM a, b`, a cross join, or a correlated
    /// `[NOT] EXISTS` conjunct of a WHERE clause — run by
    /// [`crate::join::JoinOp`]: the right input is built once per
    /// statement, bucketed by `keys`, and the left streams through the
    /// probe. An inner join emits left-major, right-minor pairs; a semi
    /// or anti join emits left rows, in their order. No keys is the
    /// nested loop (and an inner join with no residual the cross join).
    Join {
        /// What the join emits.
        kind: JoinKind,
        /// Left (streamed) input.
        left: Box<PlanNode>,
        /// Right (built) input.
        right: Box<PlanNode>,
        /// Equi-key pairs: (left-side expr, right-side expr), each
        /// bound against its own input schema.
        keys: Vec<(Bound, Bound)>,
        /// The conditions that are not keys — all of them when there
        /// are none. An inner join checks its ON conjuncts against the
        /// combined row; a semi/anti join checks the sub-query's own
        /// predicate, its right row innermost and the left row one
        /// block out.
        residual: Option<Bound>,
        /// Session window budget baked in at plan time; a keyed build
        /// larger than this partitions to spill runs. `None` never
        /// spills — always so for a keyless join.
        window: Option<usize>,
        /// Output schema: the combined row for an inner join, the left
        /// row for a semi/anti join.
        schema: Schema,
    },
    /// Keep rows whose predicate is exactly TRUE.
    Filter {
        /// Input node.
        input: Box<PlanNode>,
        /// The predicate.
        pred: Bound,
    },
    /// Evaluate the SELECT list.
    Project {
        /// Input node.
        input: Box<PlanNode>,
        /// One entry per output column.
        projections: Vec<Projection>,
        /// Output schema.
        schema: Schema,
    },
    /// Stable sort (runs below [`PlanNode::Project`]: sort keys may use
    /// non-projected columns).
    Sort {
        /// Input node.
        input: Box<PlanNode>,
        /// Sort keys, select aliases already substituted.
        keys: Vec<SortKey>,
    },
    /// Duplicate elimination (first occurrence wins).
    Distinct {
        /// Input node.
        input: Box<PlanNode>,
    },
    /// Emit at most `n` rows.
    Limit {
        /// Input node.
        input: Box<PlanNode>,
        /// Row cap.
        n: u64,
        /// EXPLAIN label.
        label: String,
    },
    /// Best-Matches-Only selection (`PREFERRING` / `GROUPING` /
    /// `BUT ONLY`) over the FROM/WHERE source; the operator evaluates the
    /// slot and grouping expressions of [`PrefSpec`] over each source row
    /// and emits the winners extended with the quality-function columns.
    Preference {
        /// Input node: the FROM/WHERE source itself.
        input: Box<PlanNode>,
        /// Everything the preference operator needs (boxed: it holds the
        /// compiled preference and would dwarf every other variant).
        spec: Box<PrefSpec>,
        /// Output schema (source schema + quality columns).
        schema: Schema,
    },
    /// Grouped aggregation (GROUP BY / HAVING / aggregate SELECT items,
    /// including the post-aggregate ORDER BY).
    Aggregate {
        /// Input node.
        input: Box<PlanNode>,
        /// Everything the aggregate operator needs.
        spec: AggSpec,
        /// Output schema.
        schema: Schema,
    },
}

/// What a [`PlanNode::Join`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Every (left, right) pair the condition accepts, combined.
    Inner,
    /// `WHERE EXISTS (…)`: each left row with at least one partner.
    Semi,
    /// `WHERE NOT EXISTS (…)`: each left row with no partner.
    Anti,
}

/// How one output column of a [`PlanNode::Project`] is produced.
#[derive(Debug, Clone)]
pub enum Projection {
    /// Copy input column by position (wildcards).
    Passthrough(usize),
    /// Evaluate an expression.
    Computed(Bound),
}

/// One ORDER BY key.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// The key expression (aliases substituted).
    pub expr: BoundExpr,
    /// Ascending (default) or descending.
    pub asc: bool,
}

/// The full specification of an aggregate block.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// GROUP BY expressions.
    pub group_by: Vec<BoundExpr>,
    /// HAVING predicate.
    pub having: Option<AggExpr>,
    /// One output expression per SELECT item (may contain aggregates).
    pub select: Vec<AggExpr>,
    /// Post-aggregate ORDER BY keys.
    pub order_by: Vec<AggSortKey>,
}

/// An ORDER BY key over aggregate output.
#[derive(Debug, Clone)]
pub struct AggSortKey {
    /// Where the key is read from.
    pub key: AggKey,
    /// Ascending or descending.
    pub asc: bool,
}

/// How an aggregate ORDER BY key is computed, decided at bind time: from
/// the output row when the (alias-substituted) key binds against the
/// output schema, else recomputed over the group from the verbatim
/// expression (aggregate expressions referenced as written).
#[derive(Debug, Clone)]
pub enum AggKey {
    /// Evaluated against the aggregate's output row.
    Output(BoundExpr),
    /// Recomputed over the group's rows.
    Group(AggExpr),
}

impl PlanNode {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            PlanNode::Nothing { schema }
            | PlanNode::SeqScan { schema, .. }
            | PlanNode::MatViewScan { schema, .. }
            | PlanNode::IndexScan { schema, .. }
            | PlanNode::Materialize { schema, .. }
            | PlanNode::Join { schema, .. }
            | PlanNode::Project { schema, .. }
            | PlanNode::Preference { schema, .. }
            | PlanNode::Aggregate { schema, .. } => schema,
            PlanNode::Filter { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Limit { input, .. } => input.schema(),
        }
    }

    /// The node's single input, if it is a pass-through node.
    pub fn input(&self) -> Option<&PlanNode> {
        match self {
            PlanNode::Filter { input, .. }
            | PlanNode::Materialize { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Limit { input, .. }
            | PlanNode::Preference { input, .. }
            | PlanNode::Aggregate { input, .. } => Some(input),
            _ => None,
        }
    }
}

/// The PREFERRING/GROUPING/BUT ONLY clauses and quality functions never
/// reach the host engine — the Preference SQL layer rewrites them away.
fn reject_preference_constructs(query: &Query) -> Result<()> {
    if query.preferring.is_some() || !query.grouping.is_empty() || query.but_only.is_some() {
        return Err(Error::Unsupported(
            "PREFERRING/GROUPING/BUT ONLY must be rewritten by the Preference \
             SQL optimizer before reaching the host SQL engine"
                .into(),
        ));
    }
    Ok(())
}

/// Compile one (top-level or uncorrelated) query block into a plan tree.
pub fn plan_query(ctx: &ExecCtx<'_>, query: &Query) -> Result<QueryPlan> {
    plan_query_in(ctx, query, &[])
}

/// Compile a query block nested in the scopes `outer` (innermost first:
/// the input schema of the node evaluating the sub-query, then its
/// enclosing blocks). Every expression of the block is bound here, its
/// own sub-queries included — once per enclosing plan, not per row.
pub(crate) fn plan_query_in(
    ctx: &ExecCtx<'_>,
    query: &Query,
    outer: &[&Schema],
) -> Result<QueryPlan> {
    reject_preference_constructs(query)?;
    let source = plan_source(ctx, query, outer)?;
    let visible = source.schema().len();
    let root = plan_block(ctx, query, source, visible, outer)?;
    Ok(QueryPlan { root })
}

/// Plan the sub-query of an `EXISTS` in `outer` and decide whether a
/// probe may stop at its first row: then the plan returned is already
/// the streaming sub-tree a probe pulls from (`true`), else the whole
/// block to run to completion (`false`).
pub(crate) fn plan_exists(
    ctx: &ExecCtx<'_>,
    query: &Query,
    outer: &[&Schema],
) -> Result<(QueryPlan, bool)> {
    let plan = plan_query_in(ctx, query, outer)?;
    let (root, first_row) = first_row_probe(plan.root);
    Ok((QueryPlan { root }, first_row))
}

/// Can an `EXISTS` probe pull a single row from this block? Strip the top
/// projection (the select list of an `EXISTS` is irrelevant) and any
/// sorts (existence is order-independent); the rest must be fully
/// streaming so the first qualifying row short-circuits. Aggregates,
/// DISTINCT and LIMIT need full evaluation (`LIMIT 0` must yield
/// `false`). Returns the stripped sub-tree and `true`, or the block
/// unchanged and `false`.
fn first_row_probe(root: PlanNode) -> (PlanNode, bool) {
    fn streaming(n: &PlanNode) -> bool {
        match n {
            PlanNode::Nothing { .. }
            | PlanNode::SeqScan { .. }
            | PlanNode::IndexScan { .. }
            | PlanNode::Materialize { .. } => true,
            PlanNode::Filter { input, .. } => streaming(input),
            // The right input is drained into the build whatever it is.
            PlanNode::Join { left, .. } => streaming(left),
            _ => false,
        }
    }
    let PlanNode::Project { input, .. } = &root else {
        return (root, false);
    };
    let mut node = input.as_ref();
    while let PlanNode::Sort { input, .. } = node {
        node = input;
    }
    if !streaming(node) {
        return (root, false);
    }
    let PlanNode::Project { input, .. } = root else {
        unreachable!("matched above")
    };
    let mut node = *input;
    while let PlanNode::Sort { input, .. } = node {
        node = *input;
    }
    (node, true)
}

/// Compile only the FROM/WHERE part of a query block (the native
/// preference path's candidate fetch is this plus the slot projection).
///
/// A top-level AND conjunct of the WHERE clause that is a correlated
/// `[NOT] EXISTS` ([`exists_join`]) becomes a semi/anti
/// [`PlanNode::Join`] over the source filtered by the other conjuncts;
/// stacked in conjunct order, each keeps the left rows in their order,
/// so the block's rows and their order are the per-row filter's. The
/// one permitted divergence is error timing, as for every join: a
/// predicate that errors may surface at the build, or not at all.
pub(crate) fn plan_source(ctx: &ExecCtx<'_>, query: &Query, outer: &[&Schema]) -> Result<PlanNode> {
    let input = plan_from(ctx, query, outer)?;
    let Some(pred) = &query.where_clause else {
        return Ok(input);
    };
    let mut rest = Vec::new();
    let mut joins = Vec::new();
    for conjunct in conjuncts(pred) {
        if let Expr::Exists {
            query: sub,
            negated,
        } = conjunct
        {
            if let Some(join) = exists_join(ctx, sub, input.schema(), outer)? {
                joins.push((*negated, join));
                continue;
            }
        }
        rest.push(conjunct);
    }
    let filter = |pred: &Expr, input: PlanNode| -> Result<PlanNode> {
        Ok(PlanNode::Filter {
            pred: bind_shown(ctx, pred, input.schema(), outer)?,
            input: Box::new(input),
        })
    };
    if joins.is_empty() {
        return filter(pred, input);
    }
    let rest = rest.into_iter().cloned();
    let mut node = match rest.reduce(|a, b| Expr::binary(a, BinaryOp::And, b)) {
        Some(p) => filter(&p, input)?,
        None => input,
    };
    for (negated, (right, keys, residual)) in joins {
        let kind = if negated {
            JoinKind::Anti
        } else {
            JoinKind::Semi
        };
        node = join(ctx, kind, node, right, keys, residual);
    }
    Ok(node)
}

/// A semi/anti join's right input, its `(left, right)` hash keys and
/// its residual.
type ExistsJoin = (PlanNode, Vec<(Bound, Bound)>, Option<Bound>);

/// Plan `[NOT] EXISTS (sub)`, in a block whose rows are `left` inside
/// the scopes `outer`, as a semi/anti join — or `None`, keeping the
/// per-row probe, unless
///
/// * `sub` is a first-row probe ([`first_row_probe`]: no aggregate,
///   DISTINCT or LIMIT),
/// * its FROM reads no enclosing row (the build is shared by every left
///   row; a FROM correlated through an ON condition fails to plan with
///   no outer scope), and
/// * its WHERE reads the enclosing block — an uncorrelated `EXISTS` is
///   one first-row probe already.
///
/// The WHERE is bound once, as the sub-query's own predicate: its right
/// row at depth 0, the left row at depth 1. Its conjuncts reading only
/// the right row filter the right input. An `=` between an operand
/// reading only the right row and one reading only the left row is a
/// hash key (none with the hash-join toggle off), split by what each
/// operand reads ([`BoundExpr::reads`]) as [`split_on`] splits ON.
/// Everything else is the residual, in its original order. A conjunct
/// holding a sub-query, whose reads that walk cannot see, is always
/// residual.
///
/// The build keeps only the right columns its keys and residual read
/// (all of them when the residual holds a sub-query), so the right rows
/// are never copied whole; the bound residual and keys are renumbered,
/// not re-bound.
fn exists_join(
    ctx: &ExecCtx<'_>,
    sub: &Query,
    left: &Schema,
    outer: &[&Schema],
) -> Result<Option<ExistsJoin>> {
    let Some(pred) = &sub.where_clause else {
        return Ok(None);
    };
    reject_preference_constructs(sub)?;
    let Ok(right) = plan_from(ctx, sub, &[]) else {
        return Ok(None);
    };
    let mut scope = vec![left];
    scope.extend_from_slice(outer);
    let visible = right.schema().len();
    let source = PlanNode::Filter {
        pred: bind_shown(ctx, pred, right.schema(), &scope)?,
        input: Box::new(right),
    };
    let block = plan_block(ctx, sub, source, visible, &scope)?;
    let (PlanNode::Filter { input: right, pred }, true) = first_row_probe(block) else {
        return Ok(None);
    };

    fn bound(source: &Expr, expr: &BoundExpr) -> Bound {
        Bound {
            source: source.clone(),
            expr: expr.clone(),
        }
    }
    let frames = |e: &BoundExpr| e.reads().map(|r| r.depths);
    let mut conjuncts = Vec::new();
    conjuncts_of(&pred.source, &pred.expr, &mut conjuncts);
    let (mut pushed, mut keys, mut rest) = (Vec::new(), Vec::new(), Vec::new());
    let mut correlated = false;
    for (source, expr) in conjuncts {
        let reads = frames(expr);
        if reads.is_some_and(|m| m <= 1) {
            pushed.push(bound(source, expr));
            continue;
        }
        correlated |= reads.is_some();
        if let (
            Expr::Binary {
                left: a,
                op: BinaryOp::Eq,
                right: b,
            },
            BoundExpr::Compare {
                left: ba,
                right: bb,
                ..
            },
        ) = (source, expr)
        {
            let sides = match (frames(ba), frames(bb)) {
                (Some(2), Some(1)) => Some((bound(a, ba), bound(b, bb))),
                (Some(1), Some(2)) => Some((bound(b, bb), bound(a, ba))),
                _ => None,
            };
            if let Some(key) = sides.filter(|_| ctx.use_hash_join()) {
                keys.push(key);
                continue;
            }
        }
        rest.push(bound(source, expr));
    }
    if !correlated {
        return Ok(None);
    }
    let mut right = *right;
    if let Some(pred) = conjoin(pushed) {
        right = PlanNode::Filter {
            input: Box::new(right),
            pred,
        };
    }
    let mut residual = conjoin(rest);

    // Narrow the build to the right columns its keys and residual read,
    // renumbering their depth-0 reads.
    let mut kept = vec![false; right.schema().len()];
    for e in keys.iter().map(|k| &k.1).chain(&residual) {
        match e.expr.reads() {
            Some(reads) => reads.own_columns.into_iter().for_each(|o| kept[o] = true),
            None => kept.fill(true),
        }
    }
    if kept.contains(&false) {
        let ords: Vec<usize> = (0..kept.len()).filter(|&i| kept[i]).collect();
        let mut renumber = vec![0; kept.len()];
        for (new, &old) in ords.iter().enumerate() {
            renumber[old] = new;
        }
        for e in keys.iter_mut().map(|k| &mut k.1).chain(&mut residual) {
            e.expr.visit_mut(&mut |x| {
                if let BoundExpr::Column { depth: 0, ordinal } = x {
                    *ordinal = renumber[*ordinal];
                }
            });
        }
        let columns = ords.iter().map(|&i| right.schema().column(i).clone());
        right = PlanNode::Project {
            schema: Schema::new(columns.collect())?,
            projections: ords.into_iter().map(Projection::Passthrough).collect(),
            input: Box::new(right),
        };
    }
    // A left key is evaluated over the left row itself, one frame in.
    for (l, _) in &mut keys {
        l.expr.visit_mut(&mut |x| {
            if let BoundExpr::Column { depth, .. } = x {
                *depth -= 1;
            }
        });
    }
    Ok(Some((right, keys, residual)))
}

/// AND the conjuncts together, in order.
fn conjoin(conjuncts: Vec<Bound>) -> Option<Bound> {
    conjuncts.into_iter().reduce(|a, b| Bound {
        source: Expr::binary(a.source, BinaryOp::And, b.source),
        expr: BoundExpr::And(Box::new(a.expr), Box::new(b.expr)),
    })
}

/// Compile a preference query block into the one plan tree native mode
/// executes: `plan_source` → [`PlanNode::Preference`] → the ordinary
/// `plan_block` tail. `pref` is `query.preferring` with named preferences
/// already resolved (the engine has no preference registry); the
/// session's knobs come from `ctx`.
///
/// Quality functions in SELECT / ORDER BY / BUT ONLY are lowered to
/// references to columns the preference operator appends once the
/// data-dependent optima are final. When a fresh materialized preference
/// view defines exactly this BMO and nothing in the block needs more than
/// the winner set, a scan of the view replaces source and operator alike.
pub fn plan_preference(ctx: &ExecCtx<'_>, query: &Query, pref: &PrefExpr) -> Result<QueryPlan> {
    if !query.group_by.is_empty() || query.having.is_some() {
        return Err(Error::Unsupported(
            "GROUP BY/HAVING combined with PREFERRING is only supported in \
             rewrite mode"
                .into(),
        ));
    }
    check_aliases(&query.select)?;
    let compiled = compile_preference(pref)?;
    let source = plan_source(ctx, query, &[])?;
    let n_orig = source.schema().len();

    // The outer block, quality calls lowered to generated columns.
    let mut quality = Vec::new();
    let mut lower = |e: &Expr| lower_quality(e, &compiled, &mut quality);
    let mut block = Query {
        distinct: query.distinct,
        limit: query.limit,
        ..Default::default()
    };
    for item in &query.select {
        block.select.push(match item {
            SelectItem::Expr { expr, alias } => SelectItem::Expr {
                expr: lower(expr)?,
                // Output names come from the expression as written, not
                // from the generated column it was lowered to.
                alias: alias.clone().or_else(|| {
                    uses_quality(expr).then(|| {
                        default_quality_alias(expr)
                            .unwrap_or_else(|| expr.to_string().to_ascii_lowercase())
                    })
                }),
            },
            wildcard => wildcard.clone(),
        });
    }
    for o in &query.order_by {
        block.order_by.push(OrderByItem {
            expr: lower(&o.expr)?,
            asc: o.asc,
        });
    }
    let but_only = query.but_only.as_ref().map(&mut lower).transpose()?;

    // A view hit is byte-identical to recomputation only if the block
    // needs nothing but the winner set (no optima, no threshold, no
    // groups) and the cold plan would feed the skyline in row-id order —
    // the order view rows are kept in; an index probe feeds key order.
    let mut scan = &source;
    while let PlanNode::Filter { input: next, .. }
    | PlanNode::Join {
        kind: JoinKind::Semi | JoinKind::Anti,
        left: next,
        ..
    } = scan
    {
        scan = next;
    }
    let probes_index = matches!(scan, PlanNode::IndexScan { .. });
    let servable =
        query.grouping.is_empty() && but_only.is_none() && quality.is_empty() && !probes_index;
    let view = classify_view(ctx, query, pref, servable);

    let bmo = match &view {
        Some((name, "hit")) => {
            let def = ctx.catalog().matview(name).expect("classified above");
            PlanNode::MatViewScan {
                view: def.name.clone(),
                table: def.base_table.clone(),
                winners: def.state.winners().to_vec(),
                serves: true,
                schema: def.schema.clone(),
            }
        }
        _ => {
            // The operator evaluates the slot and GROUPING expressions.
            let scope = [source.schema()];
            let bind_all = |exprs: &[Expr]| -> Result<Vec<BoundExpr>> {
                exprs.iter().map(|e| bind(ctx, e, &scope)).collect()
            };
            let appended: Vec<Column> = quality
                .iter()
                .map(|q| q.column(infer_type(&compiled.base_exprs[q.slot], source.schema())))
                .collect();
            // `BUT ONLY` sees a candidate as two frames: its quality
            // values innermost, then the source row.
            let quality_schema = Schema::new(appended.clone())?;
            let spec = PrefSpec {
                slots: bind_all(&compiled.base_exprs)?,
                groups: bind_all(&query.grouping)?,
                but_only: (but_only.as_ref())
                    .map(|e| bind(ctx, e, &[&quality_schema, source.schema()]))
                    .transpose()?,
                compiled,
                quality,
                knobs: ctx.knobs(),
                view,
            };
            let mut columns = source.schema().columns().to_vec();
            columns.extend(appended);
            PlanNode::Preference {
                input: Box::new(source),
                spec: Box::new(spec),
                schema: Schema::new(columns)?,
            }
        }
    };
    let root = plan_block(ctx, &block, bmo, n_orig, &[])?;
    Ok(QueryPlan { root })
}

/// Replace the quality-function calls in `expr` with references to the
/// columns the preference operator appends, registering each distinct
/// `(function, slot)` pair in `quality`. Validation happens here, at plan
/// time, so both modes reject `LEVEL(numeric)` & co. with one error.
fn lower_quality(
    expr: &Expr,
    compiled: &CompiledPreference,
    quality: &mut Vec<QualityCol>,
) -> Result<Expr> {
    expr.try_map(&mut |e| {
        let Some((func, args)) = quality_call(e) else {
            return Ok(None);
        };
        let slot = compiled.quality_slot(func, args)?;
        check_quality(func, &compiled.preference.bases()[slot])?;
        let col = QualityCol {
            func: func.to_string(),
            slot,
        };
        let name = col.name();
        if !quality.contains(&col) {
            quality.push(col);
        }
        Ok(Some(Expr::Column {
            qualifier: None,
            name,
        }))
    })
}

/// How the materialized preference views on the query's base table relate
/// to it: the view's name plus `"hit"` (a fresh view defines exactly this
/// BMO — same FROM, WHERE and resolved preference — and the block is
/// `servable` from its winner set), `"stale"` (it does, but refuses reads
/// until REFRESH) or `"miss"`. `None` without views on a single base table.
fn classify_view(
    ctx: &ExecCtx<'_>,
    query: &Query,
    pref: &PrefExpr,
    servable: bool,
) -> Option<(String, &'static str)> {
    let [TableRef::Named { name: base, .. }] = query.from.as_slice() else {
        return None;
    };
    let cat = ctx.catalog();
    let candidates = cat.matviews_on(base);
    for name in &candidates {
        let Some(def) = cat.matview(name) else {
            continue;
        };
        // The stored query is the one CREATE parsed, its preference
        // already resolved.
        let vq = &def.query;
        if vq.from == query.from
            && vq.where_clause == query.where_clause
            && vq.preferring.as_ref() == Some(pref)
        {
            let state = match (def.stale, servable) {
                (true, _) => "stale",
                (false, true) => "hit",
                (false, false) => "miss",
            };
            return Some((name.clone(), state));
        }
    }
    Some((candidates.into_iter().next()?, "miss"))
}

/// Layer projection/aggregation, DISTINCT and LIMIT on top of a source.
/// Wildcards expand to the first `visible` source columns (a preference
/// source carries generated slot/quality columns behind them).
fn plan_block(
    ctx: &ExecCtx<'_>,
    query: &Query,
    source: PlanNode,
    visible: usize,
    outer: &[&Schema],
) -> Result<PlanNode> {
    let needs_agg = !query.group_by.is_empty()
        || query.having.is_some()
        || query.select.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });
    let mut node = if needs_agg {
        plan_aggregate(ctx, query, source, outer)?
    } else {
        let input_schema = source.schema().clone();
        let sorted = if query.order_by.is_empty() {
            source
        } else {
            let keys = query
                .order_by
                .iter()
                .map(|o| {
                    let expr = substitute_alias(&o.expr, query);
                    Ok(SortKey {
                        expr: bind_over(ctx, &expr, &input_schema, outer)?,
                        asc: o.asc,
                    })
                })
                .collect::<Result<_>>()?;
            PlanNode::Sort {
                input: Box::new(source),
                keys,
            }
        };
        let (schema, projections) =
            projection_plan(ctx, &query.select, &input_schema, visible, outer)?;
        PlanNode::Project {
            input: Box::new(sorted),
            projections,
            schema,
        }
    };
    if query.distinct {
        node = PlanNode::Distinct {
            input: Box::new(node),
        };
    }
    if let Some(n) = query.limit {
        node = PlanNode::Limit {
            input: Box::new(node),
            n,
            label: format!("limit {n}"),
        };
    }
    Ok(node)
}

fn plan_aggregate(
    ctx: &ExecCtx<'_>,
    query: &Query,
    source: PlanNode,
    outer: &[&Schema],
) -> Result<PlanNode> {
    let input_schema = source.schema().clone();
    let mut columns = Vec::new();
    let mut select = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Expr { expr, alias } => {
                columns.push(Column::new(
                    output_name(expr, alias.as_deref()),
                    infer_type(expr, &input_schema),
                ));
                select.push(expr);
            }
            _ => {
                return Err(Error::Plan(
                    "SELECT * cannot be combined with GROUP BY/aggregates".into(),
                ))
            }
        }
    }
    let schema = Schema::new(dedupe_columns(columns))?;
    let group_by = query
        .group_by
        .iter()
        .map(|e| bind_over(ctx, e, &input_schema, outer))
        .collect::<Result<_>>()?;
    let agg = |e: &Expr| bind_aggregate(ctx, e, &input_schema, outer);
    let having = query.having.as_ref().map(agg).transpose()?;
    let select = select.into_iter().map(agg).collect::<Result<_>>()?;
    let order_by = query
        .order_by
        .iter()
        .map(|o| {
            let output = substitute_alias(&o.expr, query);
            let key = match bind(ctx, &output, &[&schema]) {
                Ok(e) => AggKey::Output(e),
                Err(_) => AggKey::Group(agg(&o.expr)?),
            };
            Ok(AggSortKey { key, asc: o.asc })
        })
        .collect::<Result<_>>()?;
    Ok(PlanNode::Aggregate {
        input: Box::new(source),
        spec: AggSpec {
            group_by,
            having,
            select,
            order_by,
        },
        schema,
    })
}

/// Resolve the FROM clause into a source node. Multiple FROM items
/// cross-join left to right.
///
/// Only the leftmost item streams inside the block's environment; every
/// item joined on to the right is materialized once per statement with
/// no outer rows (SQL92 FROM items are uncorrelated), so it is planned
/// with no outer scope.
fn plan_from(ctx: &ExecCtx<'_>, query: &Query, outer: &[&Schema]) -> Result<PlanNode> {
    if query.from.is_empty() {
        return Ok(PlanNode::Nothing {
            schema: Schema::empty(),
        });
    }
    // Index access only applies when one named table is the *only* FROM
    // item (the sargable conjunct analysis resolves against its schema;
    // with joins the residual re-check could not see the other side).
    let allow_index = query.from.len() == 1 && matches!(&query.from[0], TableRef::Named { .. });
    let mut acc: Option<PlanNode> = None;
    for item in &query.from {
        let scope = if acc.is_none() { outer } else { &[] };
        let next = plan_table_ref(ctx, item, query, allow_index, scope)?;
        acc = Some(match acc {
            None => next,
            Some(left) => join(ctx, JoinKind::Inner, left, next, Vec::new(), None),
        });
    }
    Ok(acc.expect("non-empty FROM"))
}

fn plan_table_ref(
    ctx: &ExecCtx<'_>,
    item: &TableRef,
    query: &Query,
    allow_index: bool,
    outer: &[&Schema],
) -> Result<PlanNode> {
    match item {
        TableRef::Named { name, alias } => {
            plan_named(ctx, name, alias.as_deref(), query, allow_index)
        }
        TableRef::Derived { query: sub, alias } => {
            let body = plan_query(ctx, sub)?;
            let schema = body
                .root
                .schema()
                .without_qualifiers()
                .with_qualifier(alias);
            Ok(PlanNode::Materialize {
                label: format!("Derived table {alias}"),
                cache_key: format!("derived:{sub}"),
                input: Box::new(body.root),
                schema,
            })
        }
        TableRef::Join { left, right, on } => {
            let l = plan_table_ref(ctx, left, query, false, outer)?;
            let r = plan_table_ref(ctx, right, query, false, &[])?;
            let (keys, residual) = match on {
                Some(on) => split_on(ctx, on, l.schema(), r.schema(), outer)?,
                None => (Vec::new(), None),
            };
            Ok(join(ctx, JoinKind::Inner, l, r, keys, residual))
        }
    }
}

/// A join node; only a keyed one gets the session's window budget.
fn join(
    ctx: &ExecCtx<'_>,
    kind: JoinKind,
    left: PlanNode,
    right: PlanNode,
    keys: Vec<(Bound, Bound)>,
    residual: Option<Bound>,
) -> PlanNode {
    PlanNode::Join {
        kind,
        window: if keys.is_empty() {
            None
        } else {
            ctx.knobs().window_bytes
        },
        schema: match kind {
            JoinKind::Inner => left.schema().join(right.schema()),
            JoinKind::Semi | JoinKind::Anti => left.schema().clone(),
        },
        left: Box::new(left),
        right: Box::new(right),
        keys,
        residual,
    }
}

/// A join's `(left, right)` hash keys and its residual.
pub(crate) type KeysAndResidual = (Vec<(Bound, Bound)>, Option<Bound>);

/// Bind a join's ON condition and split it into hash keys and the
/// residual ([`PlanNode::Join`]).
///
/// The condition is bound once, against the combined input inside the
/// block's enclosing scopes `outer`, so unknown and ambiguous columns are
/// the binder's errors whatever the split does. A conjunct of its
/// AND-chain is a key iff it is `=` between an operand reading only the
/// left input and one reading only the right; each key side is then bound
/// against its own input. Every other conjunct stays in the residual, in
/// its original order — among them a conjunct reaching an enclosing
/// block's row, which keeps the cached build uncorrelated. A sub-query
/// anywhere in ON, or the hash-join toggle off, plans no keys: the whole
/// condition is the residual, the nested loop.
pub(crate) fn split_on(
    ctx: &ExecCtx<'_>,
    on: &Expr,
    left: &Schema,
    right: &Schema,
    outer: &[&Schema],
) -> Result<KeysAndResidual> {
    let on = bind_shown(ctx, on, &left.join(right), outer)?;
    if on.expr.reads().is_none() || !ctx.use_hash_join() {
        return Ok((Vec::new(), Some(on)));
    }
    let mut conjuncts = Vec::new();
    conjuncts_of(&on.source, &on.expr, &mut conjuncts);
    let mut keys = Vec::new();
    let mut rest = Vec::new();
    for (source, expr) in conjuncts {
        if let (
            Expr::Binary {
                left: a,
                op: BinaryOp::Eq,
                right: b,
            },
            BoundExpr::Compare {
                left: ba,
                right: bb,
                ..
            },
        ) = (source, expr)
        {
            let sides = match (input_of(ba, left.len()), input_of(bb, left.len())) {
                (Some(true), Some(false)) => Some((a, b)),
                (Some(false), Some(true)) => Some((b, a)),
                _ => None,
            };
            if let Some((lk, rk)) = sides {
                keys.push((
                    bind_shown(ctx, lk, left, &[])?,
                    bind_shown(ctx, rk, right, &[])?,
                ));
                continue;
            }
        }
        rest.push(Bound {
            source: source.clone(),
            expr: expr.clone(),
        });
    }
    if keys.is_empty() {
        return Ok((keys, Some(on)));
    }
    Ok((keys, conjoin(rest)))
}

/// Flatten a bound AND-chain into its conjuncts, left to right, each
/// beside its source.
fn conjuncts_of<'e>(
    source: &'e Expr,
    expr: &'e BoundExpr,
    out: &mut Vec<(&'e Expr, &'e BoundExpr)>,
) {
    match (source, expr) {
        (
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            },
            BoundExpr::And(l, r),
        ) => {
            conjuncts_of(left, l, out);
            conjuncts_of(right, r, out);
        }
        pair => out.push(pair),
    }
}

/// The join input a bound operand reads: `Some(true)` for only the left
/// (depth-0 ordinals below `split`), `Some(false)` for only the right,
/// `None` for both, neither, an enclosing block's row, or a sub-query.
fn input_of(operand: &BoundExpr, split: usize) -> Option<bool> {
    let reads = operand.reads()?;
    if reads.depths != 1 {
        return None;
    }
    let left = reads.own_columns.iter().any(|&o| o < split);
    let right = reads.own_columns.iter().any(|&o| o >= split);
    (left != right).then_some(left)
}

fn plan_named(
    ctx: &ExecCtx<'_>,
    name: &str,
    alias: Option<&str>,
    query: &Query,
    allow_index: bool,
) -> Result<PlanNode> {
    let qual = alias.unwrap_or(name).to_ascii_lowercase();
    // How EXPLAIN names an expanded (materialized) view.
    let shown = match alias {
        Some(a) => format!("{name} AS {a}"),
        None => name.to_string(),
    };
    // Views expand recursively at plan time.
    if let Some(view) = ctx.catalog().view(name) {
        let depth = *ctx.view_depth.borrow();
        if depth > 32 {
            return Err(Error::Plan(format!("view expansion too deep at '{name}'")));
        }
        *ctx.view_depth.borrow_mut() += 1;
        let planned = plan_query(ctx, &view.query);
        *ctx.view_depth.borrow_mut() -= 1;
        let plan = planned?;
        let schema = plan
            .root
            .schema()
            .without_qualifiers()
            .with_qualifier(&qual);
        return Ok(PlanNode::Materialize {
            label: format!("View expansion: {shown}"),
            cache_key: format!("view:{name}"),
            input: Box::new(plan.root),
            schema,
        });
    }
    // Materialized preference views serve their stored winner set
    // directly: the winners' base rows fetched by row id plus the view's
    // own projection — no BMO recomputation.
    if let Some(mv) = ctx.catalog().matview(name) {
        if mv.stale {
            return Err(Error::Catalog(format!(
                "materialized preference view '{}' is stale; run \
                 REFRESH MATERIALIZED PREFERENCE VIEW {}",
                mv.name, mv.name
            )));
        }
        let scan = PlanNode::MatViewScan {
            view: mv.name.clone(),
            table: mv.base_table.clone(),
            winners: mv.state.winners().to_vec(),
            serves: false,
            schema: mv.schema.clone(),
        };
        let project = PlanNode::Project {
            input: Box::new(scan),
            projections: mv.bound.projections.clone(),
            schema: mv.bound.output.clone(),
        };
        let schema = project.schema().without_qualifiers().with_qualifier(&qual);
        return Ok(PlanNode::Materialize {
            label: format!("Materialized preference view: {shown}"),
            cache_key: format!("matview:{name}"),
            input: Box::new(project),
            schema,
        });
    }
    let table = ctx.catalog().table(name)?;
    let schema = table.schema().without_qualifiers().with_qualifier(&qual);
    let sargs = if ctx.use_indexes() && allow_index {
        access::sargs(&schema, query.where_clause.as_ref())
    } else {
        Vec::new()
    };
    Ok(match choose_access_path(table, &sargs) {
        AccessPath::SeqScan => PlanNode::SeqScan {
            table: name.to_string(),
            qualifier: qual,
            rows: table.len(),
            backend: table.backend_label(),
            sargs,
            schema,
        },
        // The probe counter is bumped at operator open, not here: EXPLAIN
        // plans without executing and must not disturb the statistics.
        AccessPath::Index { row_ids, describe } => PlanNode::IndexScan {
            table: name.to_string(),
            qualifier: qual,
            row_ids,
            describe,
            schema,
        },
    })
}

/// Expand a SELECT list against the input schema, binding computed items
/// in the enclosing scopes `outer`; wildcards cover its first `visible`
/// columns.
pub(crate) fn projection_plan(
    ctx: &ExecCtx<'_>,
    select: &[SelectItem],
    input_schema: &Schema,
    visible: usize,
    outer: &[&Schema],
) -> Result<(Schema, Vec<Projection>)> {
    let mut columns = Vec::new();
    let mut projections = Vec::new();
    let wild = &input_schema.columns()[..visible];
    for item in select {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in wild.iter().enumerate() {
                    columns.push(c.clone());
                    projections.push(Projection::Passthrough(i));
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let t = t.to_ascii_lowercase();
                let mut any = false;
                for (i, c) in wild.iter().enumerate() {
                    if c.qualifier.as_deref() == Some(t.as_str()) {
                        columns.push(c.clone());
                        projections.push(Projection::Passthrough(i));
                        any = true;
                    }
                }
                if !any {
                    return Err(Error::Plan(format!("unknown table '{t}' in '{t}.*'")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = output_name(expr, alias.as_deref());
                let dtype = infer_type(expr, input_schema);
                columns.push(Column::new(name, dtype));
                projections.push(Projection::Computed(bind_shown(
                    ctx,
                    expr,
                    input_schema,
                    outer,
                )?));
            }
        }
    }
    Ok((Schema::new(dedupe_columns(columns))?, projections))
}

/// Substitute a bare output-alias reference in ORDER BY with its select
/// expression (`SELECT price * 2 AS p ... ORDER BY p`).
fn substitute_alias(expr: &Expr, query: &Query) -> Expr {
    if let Expr::Column {
        qualifier: None,
        name,
    } = expr
    {
        for item in &query.select {
            if let SelectItem::Expr {
                expr: sel,
                alias: Some(a),
            } = item
            {
                if a == name {
                    return sel.clone();
                }
            }
        }
    }
    expr.clone()
}

/// Make output column names unique (SQL permits `SELECT a1.x, a2.x` and
/// repeated aggregates; our [`Schema`] requires unique names, so later
/// duplicates get a positional suffix).
fn dedupe_columns(columns: Vec<Column>) -> Vec<Column> {
    let mut out: Vec<Column> = Vec::with_capacity(columns.len());
    for mut c in columns {
        let clashes = |name: &str, out: &[Column]| {
            out.iter()
                .any(|o| o.name == name && o.qualifier == c.qualifier)
        };
        if clashes(&c.name, &out) {
            let mut k = 2;
            while clashes(&format!("{}_{k}", c.name), &out) {
                k += 1;
            }
            c.name = format!("{}_{k}", c.name);
        }
        out.push(c);
    }
    out
}

/// Output column name for an expression select item.
fn output_name(expr: &Expr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_owned();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        other => other.to_string().to_ascii_lowercase(),
    }
}

/// Best-effort static type inference for output schemas (informational —
/// runtime values carry their own types).
fn infer_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Str),
        Expr::Column { qualifier, name } => schema
            .resolve(qualifier.as_deref(), name)
            .map(|i| schema.column(i).data_type)
            .unwrap_or(DataType::Str),
        Expr::Unary { expr, .. } => infer_type(expr, schema),
        Expr::Binary { left, op, right } => match op {
            prefsql_parser::ast::BinaryOp::Plus
            | prefsql_parser::ast::BinaryOp::Minus
            | prefsql_parser::ast::BinaryOp::Mul
            | prefsql_parser::ast::BinaryOp::Div => {
                let l = infer_type(left, schema);
                let r = infer_type(right, schema);
                if l == DataType::Float || r == DataType::Float {
                    DataType::Float
                } else {
                    DataType::Int
                }
            }
            _ => DataType::Bool,
        },
        Expr::IsNull { .. }
        | Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Exists { .. }
        | Expr::Like { .. } => DataType::Bool,
        Expr::Case {
            branches,
            else_result,
            ..
        } => branches
            .first()
            .map(|(_, t)| infer_type(t, schema))
            .or_else(|| else_result.as_ref().map(|e| infer_type(e, schema)))
            .unwrap_or(DataType::Str),
        Expr::Function { name, args } => match name.as_str() {
            "count" | "length" => DataType::Int,
            "avg" => DataType::Float,
            "abs" | "sum" | "min" | "max" | "round" | "floor" | "ceil" | "least" | "greatest"
            | "coalesce" => args
                .first()
                .map(|a| infer_type(a, schema))
                .unwrap_or(DataType::Float),
            "lower" | "upper" => DataType::Str,
            _ => DataType::Str,
        },
        Expr::ScalarSubquery(_) => DataType::Str,
        Expr::Wildcard => DataType::Str,
    }
}
