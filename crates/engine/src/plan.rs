//! The logical plan: a query block compiled into an operator tree.
//!
//! `plan_query` turns a parsed [`Query`] into a [`PlanNode`] tree exactly
//! once per statement, absorbing all plan-time decisions — access-path
//! selection (`access::filter`), view expansion, ORDER BY keys
//! resolved against the select list and served by an ordered index probe
//! where one yields their order (`access::sort`), projection/aggregate
//! output schemas. The tree is the single source of truth for execution:
//! `EXPLAIN` renders it and the physical operators of [`crate::physical`]
//! run it, so the two can never drift apart. Once a statement's tree is
//! finished, sub-query plans included, `plan_statement` runs the pruning
//! pass (`crate::prune`) over it: derived tables, view bodies and join
//! builds shrink to the columns their consumers read, and every scan
//! decodes only those.
//!
//! Every block's select list is expanded by `projection_plan`, the one
//! place the `prefsql_*` columns are hidden: a wildcard never expands a
//! column named with [`GEN_PREFIX`] — the rewrite's level and grouping
//! columns, the quality columns a [`PlanNode::Preference`] appends. An
//! explicit reference still binds.
//!
//! Preference queries take the same road: every FROM-level block with
//! `PREFERRING` — the statement's own, a derived table, a view body, an
//! INSERT source — is planned by `plan_preference`, which lays
//! [`PlanNode::Preference`] over the ordinary FROM/WHERE source, or swaps
//! the whole BMO for a [`PlanNode::MatViewScan`] when a materialized
//! preference view defines it, and hands the result to the very
//! `plan_block` that layers the aggregate fold, HAVING and
//! Sort/Project/Distinct/Limit on plain SQL. Only an expression
//! sub-query refuses `PREFERRING` (paper §2.2.5).
//!
//! UPDATE and DELETE plan here too (`plan_target`): a SELECT's access
//! path to the table under one filter of the WHERE, whose lent row ids
//! are the targets. A base table plans as a plain [`PlanNode::SeqScan`];
//! the bound filter put on it picks its access path (`access::filter`).

use crate::access::{self, conjuncts, Sarg};
use crate::bind::{bind, bind_aggregate, bind_over, bind_shown, AggCall, Bound, BoundExpr};
use crate::exec::ExecCtx;
use crate::explain::children;
use crate::preference::{PrefSpec, QualityCol};
use crate::program::compile_plan;
use crate::prune::prune;
use prefsql_parser::ast::{BinaryOp, Expr, OrderByItem, PrefExpr, Query, SelectItem, TableRef};
use prefsql_rewrite::levels::{
    check_aliases, check_quality, default_quality_alias, quality_call, uses_quality, GEN_PREFIX,
};
use prefsql_rewrite::{compile_preference, preferring_in_subquery, CompiledPreference};
use prefsql_types::{Column, DataType, Error, Result, Schema};

/// One compiled query block, ready for execution and EXPLAIN.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub(crate) root: PlanNode,
}

impl QueryPlan {
    /// The root of the operator tree.
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// The materialized preference view whose stored winner set replaced
    /// a BMO of this plan (a native-mode cache hit), if any: the first
    /// serving view scan in pre-order, at any depth — under a derived
    /// table, a join side or another block's preference.
    pub fn served_by(&self) -> Option<&str> {
        fn find(node: &PlanNode) -> Option<&str> {
            match node {
                PlanNode::MatViewScan {
                    view, serves: true, ..
                } => Some(view),
                _ => children(node).into_iter().find_map(find),
            }
        }
        find(&self.root)
    }

    /// Does a BMO selection run in this plan, at any depth: a
    /// `Preference` node, or a view scan serving one?
    pub fn holds_bmo(&self) -> bool {
        fn find(node: &PlanNode) -> bool {
            matches!(
                node,
                PlanNode::Preference { .. } | PlanNode::MatViewScan { serves: true, .. }
            ) || children(node).into_iter().any(find)
        }
        find(&self.root)
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
        /// The sargable conjuncts of the [`PlanNode::Filter`] on this
        /// scan (`access::filter`; empty when none sits on it or sargs
        /// are off, [`crate::EngineCore::set_use_indexes`]).
        sargs: Vec<Sarg>,
        /// The columns a paged scan decodes; the others read as `NULL`
        /// (`None`: all of them). Set by the pruning pass
        /// (`crate::prune`) to the columns some node above reads, at
        /// any depth. EXPLAIN omits it.
        mask: Option<Vec<bool>>,
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
        /// The columns a paged fetch decodes, as [`PlanNode::SeqScan`]'s.
        mask: Option<Vec<bool>>,
        /// Output schema (base-table schema under the view's qualifier).
        schema: Schema,
    },
    /// Index probe of a base table: candidate row ids were computed at
    /// plan time; the full predicate is re-checked by the parent
    /// [`PlanNode::Filter`], so the probe never changes results. The rows
    /// come in the order of `order`, which an ORDER BY on a prefix of it
    /// needs no Sort for (`access::sort`).
    IndexScan {
        /// Table name in the catalog.
        table: String,
        /// Qualifier the columns are exposed under (alias or table name).
        qualifier: String,
        /// Candidate row ids.
        row_ids: Vec<usize>,
        /// The columns whose ascending order the row ids come in, ties
        /// in the index's arrival order: a B-tree probe's index key
        /// columns, a hash equality probe's column (every candidate ties
        /// on it).
        order: Vec<usize>,
        /// Human-readable probe description (for EXPLAIN).
        describe: String,
        /// The columns a paged fetch decodes, as [`PlanNode::SeqScan`]'s.
        mask: Option<Vec<bool>>,
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
    /// non-projected columns). Planned only where the input's order does
    /// not already satisfy the keys (`access::sort`).
    Sort {
        /// Input node.
        input: Box<PlanNode>,
        /// Sort keys, select aliases already substituted.
        keys: Vec<SortKey>,
        /// The block's LIMIT, when nothing between it and the sort drops
        /// rows (no DISTINCT): only the first `limit` rows of the order
        /// are kept. `None` keeps them all.
        limit: Option<u64>,
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
    /// Grouped aggregation: one row per group, in order of first
    /// appearance — the group's first input row (all NULL for the one
    /// global group of no rows) extended with one column per aggregate
    /// call. The block's HAVING, ORDER BY and select list run above it as
    /// its ordinary Filter, Sort and Project.
    Aggregate {
        /// Input node.
        input: Box<PlanNode>,
        /// The GROUP BY keys and the calls to fold.
        spec: AggSpec,
        /// Output schema: the input's, then one column per call.
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
    pub key: Bound,
    /// Ascending (default) or descending.
    pub asc: bool,
}

/// What a [`PlanNode::Aggregate`] folds.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// GROUP BY expressions.
    pub group_by: Vec<Bound>,
    /// The block's aggregate calls — those of its select list, HAVING and
    /// ORDER BY — in the order of the columns they fill.
    pub(crate) calls: Vec<AggCall>,
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

/// Plan a statement's query — a SELECT, an INSERT's source, a view body
/// checked at CREATE — narrow the finished tree, its sub-queries' plans
/// included, to the columns it reads ([`prune`]), and compile the
/// expressions its operators evaluate ([`compile_plan`]).
pub(crate) fn plan_statement(ctx: &ExecCtx<'_>, query: &Query) -> Result<QueryPlan> {
    let mut plan = plan_query(ctx, query)?;
    prune(&mut plan.root, true)?;
    compile_plan(&mut plan.root);
    Ok(plan)
}

/// Compile one FROM-level query block — a statement's own, a derived
/// table, a view body — into a plan tree; a block with `PREFERRING`
/// plans its BMO (`plan_preference`).
fn plan_query(ctx: &ExecCtx<'_>, query: &Query) -> Result<QueryPlan> {
    match &query.preferring {
        Some(pref) => plan_preference(ctx, query, pref),
        None => plan_query_in(ctx, query, &[]),
    }
}

/// An expression sub-query carries no `PREFERRING` (paper §2.2.5); the
/// parser admits `GROUPING` and `BUT ONLY` only beside one.
fn refuse_preferring(query: &Query) -> Result<()> {
    match query.preferring {
        Some(_) => Err(preferring_in_subquery()),
        None => Ok(()),
    }
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
    refuse_preferring(query)?;
    let source = plan_source(ctx, query, outer)?;
    let root = plan_block(ctx, query, source, outer)?;
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
/// preference path's candidate fetch is this plus the slot projection),
/// the WHERE bound and put on the source by [`access::filter`].
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
        let pred = bind_shown(ctx, pred, input.schema(), outer)?;
        access::filter(ctx, input, pred)
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
/// the right row filter the right input and choose its access path
/// ([`access::filter`]). An `=` between an operand
/// reading only the right row and one reading only the left row is a
/// hash key (none with the hash-join toggle off), split by what each
/// operand reads ([`BoundExpr::reads`]) as [`split_on`] splits ON.
/// Everything else is the residual, in its original order. A conjunct
/// holding a sub-query, whose reads that walk cannot see, is always
/// residual.
///
/// The right input is topped by a [`PlanNode::Project`] of its columns:
/// the build's row, which the pruning pass (`crate::prune`) narrows to
/// the columns the keys and residual read (all of them when the residual
/// holds a sub-query), renumbering both.
fn exists_join(
    ctx: &ExecCtx<'_>,
    sub: &Query,
    left: &Schema,
    outer: &[&Schema],
) -> Result<Option<ExistsJoin>> {
    let Some(pred) = &sub.where_clause else {
        return Ok(None);
    };
    refuse_preferring(sub)?;
    let Ok(right) = plan_from(ctx, sub, &[]) else {
        return Ok(None);
    };
    let mut scope = vec![left];
    scope.extend_from_slice(outer);
    let source = PlanNode::Filter {
        pred: bind_shown(ctx, pred, right.schema(), &scope)?,
        input: Box::new(right),
    };
    let block = plan_block(ctx, sub, source, &scope)?;
    let (PlanNode::Filter { input: right, pred }, true) = first_row_probe(block) else {
        return Ok(None);
    };

    fn bound(source: &Expr, expr: &BoundExpr) -> Bound {
        Bound::new(source.clone(), expr.clone())
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
        right = access::filter(ctx, right, pred)?;
    }
    let residual = conjoin(rest);

    // The build's row: the right columns, which the pruning pass narrows
    // to those the keys and residual read.
    let schema = right.schema().clone();
    let right = PlanNode::Project {
        projections: (0..schema.len()).map(Projection::Passthrough).collect(),
        schema,
        input: Box::new(right),
    };
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
    conjuncts.into_iter().reduce(|a, b| {
        Bound::new(
            Expr::binary(a.source, BinaryOp::And, b.source),
            BoundExpr::And(Box::new(a.expr), Box::new(b.expr)),
        )
    })
}

/// Compile a preference query block into one plan tree: `plan_source` →
/// [`PlanNode::Preference`] → the ordinary `plan_block` tail. `pref` is
/// `query.preferring`, its named preferences already resolved (the
/// engine has no preference registry); the session's knobs come from
/// `ctx`.
///
/// Quality functions in SELECT / GROUP BY / HAVING / ORDER BY / BUT ONLY
/// are lowered to
/// references to columns the preference operator appends once the
/// data-dependent optima are final. When a fresh materialized preference
/// view defines exactly this BMO and nothing in the block needs more than
/// the winner set, a scan of the view replaces source and operator alike.
fn plan_preference(ctx: &ExecCtx<'_>, query: &Query, pref: &PrefExpr) -> Result<QueryPlan> {
    check_aliases(&query.select)?;
    let compiled = compile_preference(pref)?;
    let source = plan_source(ctx, query, &[])?;

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
    for g in &query.group_by {
        block.group_by.push(lower(g)?);
    }
    block.having = query.having.as_ref().map(&mut lower).transpose()?;
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
                mask: None,
                schema: def.schema.clone(),
            }
        }
        _ => {
            // The operator evaluates the slot and GROUPING expressions.
            let scope = [source.schema()];
            let bind_all = |exprs: &[Expr]| -> Result<Vec<Bound>> {
                (exprs.iter())
                    .map(|e| bind(ctx, e, &scope).map(|x| Bound::new(e.clone(), x)))
                    .collect()
            };
            let appended: Vec<Column> = quality
                .iter()
                .map(|q| q.column(infer_type(&compiled.base_exprs[q.slot], source.schema())))
                .collect();
            // `BUT ONLY` sees a candidate as two frames: its quality
            // values innermost, then the source row.
            let quality_schema = Schema::new(appended.clone())?;
            let mut spec = PrefSpec {
                slots: bind_all(&compiled.base_exprs)?,
                groups: bind_all(&query.grouping)?,
                but_only: (but_only.as_ref())
                    .map(|e| {
                        let expr = bind(ctx, e, &[&quality_schema, source.schema()]);
                        expr.map(|x| Bound::new(e.clone(), x))
                    })
                    .transpose()?,
                compiled,
                quality,
                knobs: ctx.knobs(),
                view,
                rid_table: None,
                rid_mask: None,
            };
            spec.rid_table = rid_mode(&source, &spec);
            let mut columns = source.schema().columns().to_vec();
            columns.extend(appended);
            PlanNode::Preference {
                input: Box::new(source),
                spec: Box::new(spec),
                schema: Schema::new(columns)?,
            }
        }
    };
    let root = plan_block(ctx, &block, bmo, &[])?;
    Ok(QueryPlan { root })
}

/// Put the preference `spec` over `source` in rid mode if it qualifies,
/// returning the table its candidates' row ids belong to:
///
/// * the source is a chain of filters over one base-table scan or index
///   probe, which lend row ids;
/// * there is no `BUT ONLY`, whose threshold reads the whole candidate
///   row;
/// * the operator streams under no window budget
///   ([`PrefSpec::external_budget`]): a budget weighs, and its spill runs
///   hold, the candidates' rows, as the external-memory suite pins;
/// * the scan may yield more rows than one pull of the drive loop. The
///   winners are fetched again by row id, and on a source that small
///   they are a large share of the candidates (a skyline's share falls
///   as its input grows), so copying the few candidate rows costs less.
///
/// The pruning pass (`crate::prune`) then has the scan decode only the
/// columns the filters, slots and `GROUPING` keys read, and the winner
/// fetch only those read above the preference.
fn rid_mode(source: &PlanNode, spec: &PrefSpec) -> Option<String> {
    if spec.but_only.is_some() || spec.external_budget().is_some() {
        return None;
    }
    let mut scan = source;
    while let PlanNode::Filter { input, .. } = scan {
        scan = input;
    }
    let (table, rows) = match scan {
        PlanNode::SeqScan { table, rows, .. } => (table, *rows),
        PlanNode::IndexScan { table, row_ids, .. } => (table, row_ids.len()),
        _ => return None,
    };
    if rows <= spec.knobs.batch.unwrap_or(1) {
        return None;
    }
    Some(table.clone())
}

/// Plan how UPDATE or DELETE reaches the rows of base table `table` its
/// WHERE `pred` selects: a SELECT's access path (an index probe, or a
/// scan skipping the pages the sargs rule out) under one filter of the
/// whole bound predicate ([`access::filter`]), whose lent row ids
/// ([`crate::physical::Batch::row_ids`]) are the targets. No column of
/// the root is read, so the pruning pass masks the scan to the columns
/// `pred` reads.
pub(crate) fn plan_target(ctx: &ExecCtx<'_>, table: &str, pred: &Expr) -> Result<QueryPlan> {
    // A view's name is no target: fail as the catalog does.
    ctx.catalog().table(table)?;
    let scan = plan_named(ctx, table, None)?;
    let pred = bind_shown(ctx, pred, scan.schema(), &[])?;
    let mut root = access::filter(ctx, scan, pred)?;
    prune(&mut root, false)?;
    compile_plan(&mut root);
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

/// Layer the block's tail on top of a source: the aggregate fold and
/// HAVING when the block aggregates, then ORDER BY as a Sort, the select
/// list as a Project ([`projection_plan`]), DISTINCT and LIMIT. An ORDER
/// BY key reads the select list's output as the items computing it
/// ([`computed_by`]); any other key is bound over the source as written.
/// The Sort goes where the source already yields the keys' order — an
/// index probe under filters ([`access::sort`]) — and otherwise keeps
/// only the LIMIT's rows when no DISTINCT sits between the two.
fn plan_block(
    ctx: &ExecCtx<'_>,
    query: &Query,
    source: PlanNode,
    outer: &[&Schema],
) -> Result<PlanNode> {
    let needs_agg = !query.group_by.is_empty()
        || query.having.is_some()
        || query.select.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });
    let (input, keys, projections, schema) = if needs_agg {
        plan_aggregate(ctx, query, source, outer)?
    } else {
        let input = source.schema();
        let (schema, projections) = projection_plan(ctx, &query.select, input, outer)?;
        let item = |i: usize| match &projections[i] {
            Projection::Passthrough(j) => {
                let c = input.column(*j);
                Expr::Column {
                    qualifier: c.qualifier.clone(),
                    name: c.name.clone(),
                }
            }
            Projection::Computed(b) => b.source.clone(),
        };
        let keys = query
            .order_by
            .iter()
            .map(|o| {
                let key = match bind(ctx, &o.expr, &[&schema]) {
                    Ok(key) if key.reads().is_some() => computed_by(&o.expr, &schema, item)?,
                    _ => o.expr.clone(),
                };
                let expr = bind_over(ctx, &key, input, outer)?;
                Ok(SortKey {
                    key: Bound::new(key, expr),
                    asc: o.asc,
                })
            })
            .collect::<Result<_>>()?;
        (source, keys, projections, schema)
    };
    // The Project between LIMIT and Sort keeps every row, DISTINCT may not.
    let limit = query.limit.filter(|_| !query.distinct);
    let mut node = PlanNode::Project {
        input: Box::new(access::sort(input, keys, limit)),
        projections,
        schema,
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

/// Plan an aggregate block up to its Sort: the [`PlanNode::Aggregate`]
/// fold under HAVING's Filter, the ORDER BY keys and the select list, all
/// bound over the fold's row by the aggregate binder into one call list.
/// A key that binds against the select list's output reads each output
/// column as the select item computing it ([`computed_by`]). The plan of
/// a sub-query in such a key is beyond that substitution, so the key is
/// bound over the group and may read only select columns that are the
/// input column of their name. Any other key is bound as written.
fn plan_aggregate(
    ctx: &ExecCtx<'_>,
    query: &Query,
    source: PlanNode,
    outer: &[&Schema],
) -> Result<(PlanNode, Vec<SortKey>, Vec<Projection>, Schema)> {
    let input = source.schema().clone();
    let mut columns = Vec::new();
    let mut select = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Expr { expr, alias } => {
                columns.push(Column::new(
                    output_name(expr, alias.as_deref()),
                    infer_type(expr, &input),
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
    let plain = schema.columns().iter().zip(&select);
    let plain = plain.filter(
        |(c, e)| matches!(e, Expr::Column { name, .. } if name.eq_ignore_ascii_case(&c.name)),
    );
    let plain = Schema::new(plain.map(|(c, _)| c.clone()).collect())?;
    let group_by = query
        .group_by
        .iter()
        .map(|e| bind_over(ctx, e, &input, outer).map(|x| Bound::new(e.clone(), x)))
        .collect::<Result<_>>()?;
    let mut calls = Vec::new();
    let mut agg = |e: &Expr| {
        let expr = bind_aggregate(ctx, e, &input, outer, &mut calls)?;
        Ok(Bound::new(e.clone(), expr))
    };
    let having = query.having.as_ref().map(&mut agg).transpose()?;
    let select: Vec<Bound> = select.into_iter().map(&mut agg).collect::<Result<_>>()?;
    let keys = query
        .order_by
        .iter()
        .map(|o| {
            let key = match bind(ctx, &o.expr, &[&schema]) {
                Ok(key) if key.reads().is_some() => {
                    computed_by(&o.expr, &schema, |i| select[i].source.clone())?
                }
                Ok(_) if bind(ctx, &o.expr, &[&plain]).is_ok() => o.expr.clone(),
                Ok(_) => {
                    return Err(Error::Plan(format!(
                        "ORDER BY {}: a sub-query over groups may read only \
                         select columns that are input columns",
                        o.expr
                    )))
                }
                Err(_) => o.expr.clone(),
            };
            Ok(SortKey {
                key: agg(&key)?,
                asc: o.asc,
            })
        })
        .collect::<Result<_>>()?;
    // Nothing reads the types of the call columns.
    let columns = calls
        .iter()
        .enumerate()
        .map(|(k, c)| Column::new(format!("{}#{k}", c.func.name()), DataType::Str));
    let mut node = PlanNode::Aggregate {
        schema: input.join(&Schema::new(columns.collect())?),
        input: Box::new(source),
        spec: AggSpec { group_by, calls },
    };
    if let Some(pred) = having {
        node = PlanNode::Filter {
            input: Box::new(node),
            pred,
        };
    }
    let projections = select.into_iter().map(Projection::Computed).collect();
    Ok((node, keys, projections, schema))
}

/// Resolve the FROM clause into a source node, base tables as plain
/// scans. Multiple FROM items cross-join left to right.
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
    let mut acc: Option<PlanNode> = None;
    for item in &query.from {
        let scope = if acc.is_none() { outer } else { &[] };
        let next = plan_table_ref(ctx, item, scope)?;
        acc = Some(match acc {
            None => next,
            Some(left) => join(ctx, JoinKind::Inner, left, next, Vec::new(), None),
        });
    }
    Ok(acc.expect("non-empty FROM"))
}

fn plan_table_ref(ctx: &ExecCtx<'_>, item: &TableRef, outer: &[&Schema]) -> Result<PlanNode> {
    match item {
        TableRef::Named { name, alias } => plan_named(ctx, name, alias.as_deref()),
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
            let l = plan_table_ref(ctx, left, outer)?;
            let r = plan_table_ref(ctx, right, &[])?;
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
        rest.push(Bound::new(source.clone(), expr.clone()));
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

/// Plan the FROM item `name`; a base table's access path is chosen by the filter on it.
fn plan_named(ctx: &ExecCtx<'_>, name: &str, alias: Option<&str>) -> Result<PlanNode> {
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
            mask: None,
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
    Ok(PlanNode::SeqScan {
        table: name.to_string(),
        schema: table.schema().without_qualifiers().with_qualifier(&qual),
        qualifier: qual,
        rows: table.len(),
        backend: table.backend_label(),
        sargs: Vec::new(),
        mask: None,
    })
}

/// Expand a SELECT list against the input schema, binding computed items
/// in the enclosing scopes `outer`. Wildcards skip the columns named with
/// [`GEN_PREFIX`]: the rewrite's level and grouping columns and the
/// quality columns a preference operator appends. No user column or
/// preference query alias carries the prefix, so no application sees
/// them; an explicit reference still binds.
pub(crate) fn projection_plan(
    ctx: &ExecCtx<'_>,
    select: &[SelectItem],
    input_schema: &Schema,
    outer: &[&Schema],
) -> Result<(Schema, Vec<Projection>)> {
    let mut columns = Vec::new();
    let mut projections = Vec::new();
    let wild = input_schema.columns().iter().enumerate();
    let wild = wild.filter(|(_, c)| !c.name.starts_with(GEN_PREFIX));
    for item in select {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in wild.clone() {
                    columns.push(c.clone());
                    projections.push(Projection::Passthrough(i));
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let t = t.to_ascii_lowercase();
                let mut any = false;
                for (i, c) in wild.clone() {
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

/// An ORDER BY key that binds against the block's `output` and reads only
/// output columns, each column replaced by `item(i)`, the select
/// expression computing output column `i` — so the key binds over the
/// block's input, or over its groups.
fn computed_by(key: &Expr, output: &Schema, item: impl Fn(usize) -> Expr) -> Result<Expr> {
    key.try_map(&mut |e| match e {
        Expr::Column { qualifier, name } => {
            Ok(output.lookup(qualifier.as_deref(), name)?.map(&item))
        }
        _ => Ok(None),
    })
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
