//! The physical operator layer: Volcano-style streaming execution of a
//! [`PlanNode`] tree.
//!
//! Every operator implements [`Operator`] — `open`, one batched pull
//! method ([`Operator::next_batch`]) and `close` — and pulls [`Batch`]es
//! of at most `max` rows from its children, so large inputs stream
//! through filters, joins, projections and limits instead of
//! materializing at every step. Pipeline breakers (sort, distinct's seen
//! set, aggregation, the per-statement materialization of views and
//! derived tables) buffer exactly where the semantics require it and
//! nowhere else.
//!
//! There is one pull protocol. A [`Batch`] hides how its rows are held:
//! buffered operators (scans, materializations, sort/aggregate/BMO
//! output) *lend* a slice of their buffer, a filter narrows a lent slice
//! with a selection vector instead of copying it, and streaming
//! producers (projection, joins) hand over their own scratch buffer so a
//! draining consumer moves the rows out. Tuples are heap-allocated, so
//! this is what makes batching pay on this engine: a `scan → filter →
//! project` chain decides on borrowed tuples and builds nothing but the
//! final narrow output rows, and no wide row is cloned for being dropped.
//!
//! [`build`] is the only place operators are constructed — the BMO
//! operator of [`crate::preference`] included — so the instrumentation
//! shim wraps every node of every plan alike.

use crate::bind::BoundExpr;
use crate::eval::{eval, eval_row, holds, truth, Env};
use crate::exec::{ExecCtx, Relation};
use crate::join::JoinOp;
use crate::plan::{AggKey, AggSpec, PlanNode, Projection, SortKey};
use prefsql_storage::PageFilter;
use prefsql_types::{Result, Schema, Tuple, Value};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A Volcano-style physical operator: a pull-based cursor over batches
/// of tuples.
pub trait Operator {
    /// Acquire resources and prepare to produce tuples.
    fn open(&mut self) -> Result<()>;
    /// The next batch of at most `max` rows (`max >= 1`).
    ///
    /// `max` is a pull quota, not a hint: an operator asked for `k` rows
    /// never asks a child for more than `k` at a time, so a `LIMIT` or a
    /// one-row `EXISTS` probe above stops the sources beneath it exactly
    /// where a tuple-at-a-time pull would. A batch may hold fewer rows
    /// than `max` — even none, when this pull's share of the input was
    /// filtered away — without the stream being over: the end is the one
    /// batch for which [`Batch::is_end`] holds, it carries no rows, and
    /// every call after it returns it again.
    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>>;
    /// Release resources (idempotent).
    fn close(&mut self);
    /// Operator-specific observability counters, read at close by the
    /// instrumentation shim (`EXPLAIN ANALYZE`): joins report
    /// build/probe/spilled rows, preference operators dominance
    /// comparisons. The default reports nothing.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// A boxed operator tied to the lifetime of its plan/context/environment.
pub type BoxOperator<'a> = Box<dyn Operator + 'a>;

/// One pull's worth of rows, borrowed from the operator that produced it
/// until the next call on that operator.
///
/// Consumers read the rows in place ([`Batch::rows`]), narrow them
/// ([`Batch::retain`]) or take them ([`Batch::take_into`]) and never
/// learn which of the three holdings is behind the batch.
pub struct Batch<'a>(Held<'a>);

enum Held<'a> {
    /// The stream is exhausted.
    End,
    /// Rows lent from a buffer the producer keeps; `sel`, when present,
    /// lists (ascending) the indices of `rows` the batch consists of.
    Lent {
        rows: &'a [Tuple],
        sel: Option<&'a [usize]>,
    },
    /// Rows in the producer's scratch buffer, which it clears on its next
    /// pull anyway: the consumer may move them out.
    Owned(&'a mut Vec<Tuple>),
}

impl<'a> Batch<'a> {
    /// The end-of-stream batch.
    pub fn end() -> Self {
        Batch(Held::End)
    }

    /// Lend the next run of up to `max` rows of a buffer, advancing the
    /// cursor `pos`; the end once the buffer is spent. This is the whole
    /// pull method of every buffered operator.
    pub fn lend(rows: &'a [Tuple], pos: &mut usize, max: usize) -> Self {
        if *pos >= rows.len() {
            return Batch::end();
        }
        let end = pos.saturating_add(max).min(rows.len());
        let run = &rows[*pos..end];
        *pos = end;
        Batch(Held::Lent {
            rows: run,
            sel: None,
        })
    }

    /// Hand over the rows of a streaming producer's scratch buffer (an
    /// empty buffer is an empty batch, not the end).
    pub fn owned(rows: &'a mut Vec<Tuple>) -> Self {
        Batch(Held::Owned(rows))
    }

    /// Is this the end of the stream?
    pub fn is_end(&self) -> bool {
        matches!(self.0, Held::End)
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        match &self.0 {
            Held::End => 0,
            Held::Lent { rows, sel } => sel.map_or(rows.len(), <[usize]>::len),
            Held::Owned(rows) => rows.len(),
        }
    }

    /// True iff the batch has no rows (the end, or a pull whose input
    /// was all filtered away).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows, in order, borrowed.
    pub fn rows(&self) -> impl Iterator<Item = &Tuple> + '_ {
        let (rows, sel): (&[Tuple], Option<&[usize]>) = match &self.0 {
            Held::End => (&[], None),
            Held::Lent { rows, sel } => (rows, *sel),
            Held::Owned(rows) => (rows, None),
        };
        selected(rows.len(), sel).map(move |i| &rows[i])
    }

    /// Append the rows to `out`: moved when the producer handed them
    /// over, cloned when it only lent them.
    pub fn take_into(self, out: &mut Vec<Tuple>) {
        match self.0 {
            Held::End => {}
            Held::Lent { rows, sel } => {
                out.extend(selected(rows.len(), sel).map(|i| rows[i].clone()))
            }
            Held::Owned(rows) => out.append(rows),
        }
    }

    /// Narrow the batch to the rows `keep` accepts, preserving order.
    /// Lent rows stay where they are — the survivors' indices go to the
    /// caller's `sel` scratch, so a dropped row is never copied; rows
    /// that were handed over are compacted in place.
    pub fn retain(
        self,
        sel: &'a mut Vec<usize>,
        mut keep: impl FnMut(&Tuple) -> Result<bool>,
    ) -> Result<Self> {
        match self.0 {
            Held::End => Ok(self),
            Held::Lent { rows, sel: from } => {
                sel.clear();
                for i in selected(rows.len(), from) {
                    if keep(&rows[i])? {
                        sel.push(i);
                    }
                }
                Ok(Batch(Held::Lent {
                    rows,
                    sel: Some(sel),
                }))
            }
            Held::Owned(rows) => {
                let mut kept = 0;
                for i in 0..rows.len() {
                    if keep(&rows[i])? {
                        rows.swap(kept, i);
                        kept += 1;
                    }
                }
                rows.truncate(kept);
                Ok(Batch(Held::Owned(rows)))
            }
        }
    }
}

/// The indices a lent batch consists of: those listed in `sel`, or all
/// `n` of the lent run.
fn selected(n: usize, sel: Option<&[usize]>) -> impl Iterator<Item = usize> + '_ {
    (0..sel.map_or(n, <[usize]>::len)).map(move |k| sel.map_or(k, |s| s[k]))
}

/// Build the physical operator tree for a plan node. `outer` holds the
/// enclosing query blocks' current rows, innermost first, for a
/// correlated sub-query (empty for top-level queries) — the rows its
/// bound expressions reach at depth 1 and beyond. When the statement
/// context carries a profiler, every operator — this node and, through
/// the recursive calls below, each of its children — is wrapped in the
/// instrumentation shim.
pub fn build<'a>(
    ctx: &'a ExecCtx<'a>,
    node: &'a PlanNode,
    outer: &'a [&'a Tuple],
) -> BoxOperator<'a> {
    let op = build_plain(ctx, node, outer);
    match ctx.profiler() {
        Some(p) => Box::new(crate::metrics::Instrumented::new(op, p, node)),
        None => op,
    }
}

/// The uninstrumented construction dispatch behind [`build`].
fn build_plain<'a>(
    ctx: &'a ExecCtx<'a>,
    node: &'a PlanNode,
    outer: &'a [&'a Tuple],
) -> BoxOperator<'a> {
    match node {
        PlanNode::Nothing { .. } => Box::new(NothingOp {
            row: [Tuple::new(vec![])],
            pos: 0,
        }),
        PlanNode::SeqScan { table, sargs, .. } => Box::new(SeqScanOp {
            ctx,
            table,
            rows: &[],
            pos: 0,
            paged: None,
            filter: PageFilter::new(sargs),
            buf: Vec::new(),
            buf_pos: 0,
            scan_pos: 0,
        }),
        PlanNode::Preference { input, spec, .. } => Box::new(crate::preference::PreferenceOp::new(
            build(ctx, input, outer),
            ctx,
            spec,
        )),
        PlanNode::MatViewScan { table, winners, .. } => {
            Box::new(RowIdScanOp::new(ctx, table, winners, false))
        }
        PlanNode::IndexScan { table, row_ids, .. } => {
            Box::new(RowIdScanOp::new(ctx, table, row_ids, true))
        }
        PlanNode::Materialize {
            cache_key,
            input,
            schema,
            ..
        } => Box::new(MaterializeOp {
            ctx,
            input,
            cache_key,
            schema,
            rel: None,
            pos: 0,
        }),
        PlanNode::Join {
            kind,
            left,
            right,
            keys,
            residual,
            window,
            ..
        } => Box::new(JoinOp::new(
            ctx,
            *kind,
            build(ctx, left, outer),
            right,
            keys,
            residual.as_ref().map(|b| &b.expr),
            *window,
            outer,
        )),
        PlanNode::Filter { input, pred } => Box::new(FilterOp {
            ctx,
            input: build(ctx, input, outer),
            pred: &pred.expr,
            outer,
            sel: Vec::new(),
        }),
        PlanNode::Project {
            input, projections, ..
        } => Box::new(ProjectOp {
            ctx,
            input: build(ctx, input, outer),
            projections,
            outer,
            out: Vec::new(),
        }),
        PlanNode::Sort { input, keys } => Box::new(SortOp {
            ctx,
            input: build(ctx, input, outer),
            keys,
            outer,
            sorted: Vec::new(),
            pos: 0,
        }),
        PlanNode::Distinct { input } => Box::new(DistinctOp {
            input: build(ctx, input, outer),
            seen: HashSet::new(),
            sel: Vec::new(),
        }),
        PlanNode::Limit { input, n, .. } => Box::new(LimitOp {
            input: build(ctx, input, outer),
            remaining: *n,
        }),
        PlanNode::Aggregate { input, spec, .. } => Box::new(AggregateOp {
            ctx,
            width: input.schema().len(),
            input: build(ctx, input, outer),
            spec,
            outer,
            out: Vec::new(),
            pos: 0,
        }),
    }
}

/// Build, open and fully drain the operator tree for `node` into a
/// materialized [`Relation`].
pub fn execute(ctx: &ExecCtx<'_>, node: &PlanNode, outer: &[&Tuple]) -> Result<Relation> {
    let schema = node.schema().clone();
    let mut op = build(ctx, node, outer);
    let rows = drain(op.as_mut())?;
    Ok(Relation { schema, rows })
}

/// Rows requested per [`Operator::next_batch`] call by the default drive
/// loops: large enough to amortize a virtual call over a cache-friendly
/// run of tuples, small enough to keep scratch buffers resident.
pub const DEFAULT_BATCH: usize = 1024;

/// Open `op`, pull every tuple, and close it — the operator is closed
/// even when opening or pulling errors, so resources held by the
/// sub-tree are always released. Pipeline breakers use this to consume
/// their children. Pulls batches of [`DEFAULT_BATCH`].
pub fn drain(op: &mut (dyn Operator + '_)) -> Result<Vec<Tuple>> {
    drain_batched(op, DEFAULT_BATCH)
}

/// [`drain`] with an explicit batch size (clamped to at least 1) — the
/// batch-boundary tests sweep this to pin that results do not depend on
/// the drive granularity.
pub fn drain_batched(op: &mut (dyn Operator + '_), batch: usize) -> Result<Vec<Tuple>> {
    let batch = batch.max(1);
    let mut rows = Vec::new();
    let result = op.open().and_then(|()| loop {
        match op.next_batch(batch) {
            Ok(b) if b.is_end() => break Ok(()),
            Ok(b) => b.take_into(&mut rows),
            Err(e) => break Err(e),
        }
    });
    op.close();
    result?;
    Ok(rows)
}

/// Open `op`, pull one row at a time until a row arrives or the stream
/// ends, and close it: does `op` produce any row at all? One-row pulls
/// are what makes an `EXISTS` probe stop every source beneath it at the
/// first qualifying row.
pub(crate) fn any_row(op: &mut (dyn Operator + '_)) -> Result<bool> {
    let found = op.open().and_then(|()| loop {
        match op.next_batch(1) {
            Ok(b) if b.is_end() => break Ok(false),
            Ok(b) if b.is_empty() => {}
            Ok(_) => break Ok(true),
            Err(e) => break Err(e),
        }
    });
    op.close();
    found
}

fn compare_key_rows(a: &[Value], b: &[Value], asc: &[bool]) -> Ordering {
    for (i, &up) in asc.iter().enumerate() {
        let ord = a[i].total_cmp(&b[i]);
        let ord = if up { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// A hash key over the values of one row — a `DISTINCT` row, a
/// `GROUP BY` key, a join key. Equality is [`Value::key_eq`] per field
/// (NULLs are equal, INT 1 equals FLOAT 1.0); hashing uses [`Value`]'s
/// `Hash`, consistent with `key_eq` by the type crate's proptest
/// contract.
#[derive(Debug, Clone)]
pub(crate) struct RowKey(pub(crate) Vec<Value>);

impl PartialEq for RowKey {
    fn eq(&self, other: &RowKey) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a.key_eq(b))
    }
}

impl Eq for RowKey {}

impl Hash for RowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            v.hash(state);
        }
    }
}

// ------------------------------------------------------------- sources

/// `SELECT` without `FROM`: one empty tuple.
struct NothingOp {
    row: [Tuple; 1],
    pos: usize,
}

impl Operator for NothingOp {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        Ok(Batch::lend(&self.row, &mut self.pos, max))
    }

    fn close(&mut self) {
        self.pos = self.row.len();
    }
}

/// Full table scan. The in-memory backend lends runs of the catalog's
/// stored rows with no upfront copy — a `LIMIT` above stops the scan
/// after a handful of rows no matter how large the table is. The paged
/// backend decodes the requested number of rows through the buffer pool
/// into one owned buffer, lends that, and refills it once it is spent,
/// so consumers see the same borrowed batches either way; a refill steps
/// over the pages the plan's sargs rule out.
struct SeqScanOp<'a> {
    ctx: &'a ExecCtx<'a>,
    table: &'a str,
    /// Mem backend: the backend's contiguous rows.
    rows: &'a [Tuple],
    pos: usize,
    /// Paged backend: the table handle to decode from (`None` = mem).
    paged: Option<&'a prefsql_storage::Table>,
    /// Paged backend: the page filter refills run through, and its
    /// page counts (EXPLAIN ANALYZE's `pages_read=` / `pages_skipped=`).
    filter: PageFilter<'a>,
    /// Paged backend: the decode buffer batches are lent from.
    buf: Vec<Tuple>,
    buf_pos: usize,
    /// Paged backend: the backend scan cursor (rid of the next refill).
    scan_pos: usize,
}

impl Operator for SeqScanOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        self.scan_pos = 0;
        self.buf.clear();
        self.buf_pos = 0;
        let table = self.ctx.catalog().table(self.table)?;
        match table.mem_rows() {
            Some(rows) => {
                self.rows = rows;
                self.paged = None;
            }
            None => {
                self.rows = &[];
                self.paged = Some(table);
            }
        }
        Ok(())
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        let batch = match self.paged {
            None => Batch::lend(self.rows, &mut self.pos, max),
            Some(table) => {
                if self.buf_pos >= self.buf.len() {
                    self.buf.clear();
                    self.buf_pos = 0;
                    table.scan_batch_where(
                        &mut self.scan_pos,
                        &mut self.buf,
                        max,
                        &mut self.filter,
                    )?;
                }
                Batch::lend(&self.buf, &mut self.buf_pos, max)
            }
        };
        // Rows are charged to the statement's scan counter as they are
        // *produced*, not at open: a `LIMIT` (or a short-circuiting
        // `EXISTS`) that stops pulling early really did touch fewer
        // rows, and `rows_scanned` reports exactly that.
        if !batch.is_empty() {
            self.ctx.stats.borrow_mut().rows_scanned += batch.len() as u64;
        }
        Ok(batch)
    }

    fn close(&mut self) {
        self.rows = &[];
        self.paged = None;
        self.buf = Vec::new();
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("pages_read", self.filter.pages_read),
            ("pages_skipped", self.filter.pages_skipped),
        ]
    }
}

/// Row-id scan: fetch the row ids chosen at plan time from a table and
/// lend them — an index probe's candidates (the parent filter re-checks
/// the full predicate, so the probe is purely an optimization) or a
/// materialized preference view's winners (whose score rows mirror the base
/// table's row ids). The fetched rows count as scanned; only an index
/// probe counts toward `index_probes`.
struct RowIdScanOp<'a> {
    ctx: &'a ExecCtx<'a>,
    table: &'a str,
    row_ids: &'a [usize],
    probe: bool,
    rows: Vec<Tuple>,
    pos: usize,
}

impl<'a> RowIdScanOp<'a> {
    fn new(ctx: &'a ExecCtx<'a>, table: &'a str, row_ids: &'a [usize], probe: bool) -> Self {
        RowIdScanOp {
            ctx,
            table,
            row_ids,
            probe,
            rows: Vec::new(),
            pos: 0,
        }
    }
}

impl Operator for RowIdScanOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let table = self.ctx.catalog().table(self.table)?;
        let mut stats = self.ctx.stats.borrow_mut();
        stats.index_probes += u64::from(self.probe);
        stats.rows_scanned += self.row_ids.len() as u64;
        drop(stats);
        self.rows = self
            .row_ids
            .iter()
            .map(|&rid| table.fetch_row(rid))
            .collect::<Result<_>>()?;
        Ok(())
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        Ok(Batch::lend(&self.rows, &mut self.pos, max))
    }

    fn close(&mut self) {
        self.rows = Vec::new();
    }
}

/// Execute a sub-plan once per statement (views, derived tables) and
/// stream from the cached result thereafter.
struct MaterializeOp<'a> {
    ctx: &'a ExecCtx<'a>,
    input: &'a PlanNode,
    cache_key: &'a str,
    schema: &'a Schema,
    rel: Option<Arc<Relation>>,
    pos: usize,
}

impl Operator for MaterializeOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let rel = match self.ctx.cached::<Relation>(self.cache_key) {
            Some(hit) => hit,
            None => {
                // Views and derived tables are uncorrelated in SQL92:
                // execute with an empty environment, then re-qualify the
                // schema.
                let rows = execute(self.ctx, self.input, &[])?.rows;
                let rel = Relation {
                    schema: self.schema.clone(),
                    rows,
                };
                self.ctx.cache(self.cache_key.to_string(), rel)
            }
        };
        self.rel = Some(rel);
        Ok(())
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        let rel = self.rel.as_ref().expect("open() before next_batch()");
        Ok(Batch::lend(&rel.rows, &mut self.pos, max))
    }

    fn close(&mut self) {
        self.rel = None;
    }
}

// ------------------------------------------------------- tuple pipeline

/// Keep tuples whose predicate evaluates to exactly TRUE.
struct FilterOp<'a> {
    ctx: &'a ExecCtx<'a>,
    input: BoxOperator<'a>,
    pred: &'a BoundExpr,
    outer: &'a [&'a Tuple],
    /// Reused selection-vector scratch (survivors of a lent batch).
    sel: Vec<usize>,
}

impl Operator for FilterOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        // A filter only shrinks a batch, so forwarding `max` keeps the
        // quota; survivors are selected, not copied.
        let (ctx, pred, outer) = (self.ctx, self.pred, self.outer);
        self.input
            .next_batch(max)?
            .retain(&mut self.sel, |t| holds(pred, Env::new(t, outer), ctx))
    }

    fn close(&mut self) {
        self.input.close();
        self.sel = Vec::new();
    }
}

/// Evaluate the SELECT list per tuple.
struct ProjectOp<'a> {
    ctx: &'a ExecCtx<'a>,
    input: BoxOperator<'a>,
    projections: &'a [Projection],
    outer: &'a [&'a Tuple],
    /// Output scratch handed to the consumer.
    out: Vec<Tuple>,
}

impl Operator for ProjectOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        // The narrow output rows are built straight from the child's
        // (borrowed) rows — the wide source tuples are never cloned.
        let batch = self.input.next_batch(max)?;
        if batch.is_end() {
            return Ok(batch);
        }
        self.out.clear();
        for t in batch.rows() {
            let mut values = Vec::with_capacity(self.projections.len());
            for p in self.projections {
                values.push(match p {
                    Projection::Passthrough(idx) => t[*idx].clone(),
                    Projection::Computed(b) => eval(&b.expr, Env::new(t, self.outer), self.ctx)?,
                });
            }
            self.out.push(Tuple::new(values));
        }
        Ok(Batch::owned(&mut self.out))
    }

    fn close(&mut self) {
        self.input.close();
        self.out = Vec::new();
    }
}

/// Stable sort — a pipeline breaker: drains its input at `open`.
struct SortOp<'a> {
    ctx: &'a ExecCtx<'a>,
    input: BoxOperator<'a>,
    keys: &'a [SortKey],
    outer: &'a [&'a Tuple],
    sorted: Vec<Tuple>,
    pos: usize,
}

impl Operator for SortOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let rows = drain(self.input.as_mut())?;
        let mut keyed: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        for row in &rows {
            let key = self
                .keys
                .iter()
                .map(|k| eval(&k.expr, Env::new(row, self.outer), self.ctx))
                .collect::<Result<Vec<_>>>()?;
            keyed.push(key);
        }
        let asc: Vec<bool> = self.keys.iter().map(|k| k.asc).collect();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| compare_key_rows(&keyed[a], &keyed[b], &asc));
        self.sorted = order.into_iter().map(|i| rows[i].clone()).collect();
        Ok(())
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        Ok(Batch::lend(&self.sorted, &mut self.pos, max))
    }

    fn close(&mut self) {
        self.input.close();
        self.sorted = Vec::new();
    }
}

/// Duplicate elimination; first occurrence wins, input order preserved.
struct DistinctOp<'a> {
    input: BoxOperator<'a>,
    seen: HashSet<RowKey>,
    /// Reused selection-vector scratch (first occurrences of a lent batch).
    sel: Vec<usize>,
}

impl Operator for DistinctOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.seen.clear();
        self.input.open()
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        let seen = &mut self.seen;
        self.input.next_batch(max)?.retain(&mut self.sel, |t| {
            Ok(seen.insert(RowKey(t.values().to_vec())))
        })
    }

    fn close(&mut self) {
        self.input.close();
        self.seen = HashSet::new();
        self.sel = Vec::new();
    }
}

/// Emit at most `n` tuples, then stop pulling from the input entirely.
struct LimitOp<'a> {
    input: BoxOperator<'a>,
    remaining: u64,
}

impl Operator for LimitOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        if self.remaining == 0 {
            return Ok(Batch::end());
        }
        // Never request more than the remaining quota from the child: a
        // LIMIT cutoff in the middle of a batch must stop the pull there.
        let want = self.remaining.min(max as u64) as usize;
        let batch = self.input.next_batch(want)?;
        self.remaining = if batch.is_end() {
            0
        } else {
            self.remaining.saturating_sub(batch.len() as u64)
        };
        Ok(batch)
    }

    fn close(&mut self) {
        self.input.close();
    }
}

// ----------------------------------------------------------- aggregates

/// Grouped aggregation — a pipeline breaker: drains its input, groups,
/// applies HAVING, projects each group and sorts the aggregate output.
struct AggregateOp<'a> {
    ctx: &'a ExecCtx<'a>,
    /// Width of the input rows (an empty global group evaluates its
    /// residues against an all-NULL row this wide).
    width: usize,
    input: BoxOperator<'a>,
    spec: &'a AggSpec,
    outer: &'a [&'a Tuple],
    out: Vec<Tuple>,
    pos: usize,
}

impl Operator for AggregateOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let rows = drain(self.input.as_mut())?;
        self.out = self.run(rows)?;
        Ok(())
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        Ok(Batch::lend(&self.out, &mut self.pos, max))
    }

    fn close(&mut self) {
        self.input.close();
        self.out = Vec::new();
    }
}

impl AggregateOp<'_> {
    fn run(&self, rows: Vec<Tuple>) -> Result<Vec<Tuple>> {
        let (ctx, spec, outer) = (self.ctx, self.spec, self.outer);
        // Partition, groups in order of first appearance.
        let mut groups: Vec<Vec<Tuple>> = Vec::new();
        let mut index: HashMap<RowKey, usize> = HashMap::new();
        for row in rows {
            let mut key = Vec::with_capacity(spec.group_by.len());
            eval_row(&spec.group_by, Env::new(&row, outer), ctx, &mut key)?;
            let g = *index.entry(RowKey(key)).or_insert(groups.len());
            if g == groups.len() {
                groups.push(Vec::new());
            }
            groups[g].push(row);
        }
        // No GROUP BY + aggregates: one global group, even when empty.
        if spec.group_by.is_empty() && groups.is_empty() {
            groups.push(vec![]);
        }

        // HAVING.
        let mut kept_groups = Vec::new();
        for members in groups {
            let keep = match &spec.having {
                None => true,
                Some(h) => truth(&h.eval(&members, self.width, outer, ctx)?) == Some(true),
            };
            if keep {
                kept_groups.push(members);
            }
        }

        // Project each group.
        let mut out_rows = Vec::with_capacity(kept_groups.len());
        for members in &kept_groups {
            let values = spec
                .select
                .iter()
                .map(|e| e.eval(members, self.width, outer, ctx))
                .collect::<Result<_>>()?;
            out_rows.push(Tuple::new(values));
        }

        // ORDER BY over the aggregate output (output aliases, or aggregate
        // expressions recomputed over the group — decided at bind time).
        if !spec.order_by.is_empty() {
            let mut keys: Vec<Vec<Value>> = Vec::with_capacity(out_rows.len());
            for (row, members) in out_rows.iter().zip(&kept_groups) {
                let key = spec
                    .order_by
                    .iter()
                    .map(|o| match &o.key {
                        AggKey::Output(e) => eval(e, Env::new(row, &[]), ctx),
                        AggKey::Group(e) => e.eval(members, self.width, outer, ctx),
                    })
                    .collect::<Result<_>>()?;
                keys.push(key);
            }
            let asc: Vec<bool> = spec.order_by.iter().map(|o| o.asc).collect();
            let mut order: Vec<usize> = (0..out_rows.len()).collect();
            order.sort_by(|&a, &b| compare_key_rows(&keys[a], &keys[b], &asc));
            out_rows = order.into_iter().map(|i| out_rows[i].clone()).collect();
        }
        Ok(out_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{bind, Bound};
    use crate::exec::Engine;
    use crate::plan::JoinKind;
    use prefsql_parser::ast::{BinaryOp, Expr, Query, Statement};
    use prefsql_types::{Column, DataType};
    use std::cell::Cell;
    use std::rc::Rc;

    /// A counting source: lends integer tuples and records how many it
    /// handed out and the largest batch ever requested, so the tests can
    /// prove a parent stopped pulling exactly where it should.
    struct ProbeSource {
        rows: Vec<Tuple>,
        pos: usize,
        served: Rc<Cell<usize>>,
        largest_request: Rc<Cell<usize>>,
    }

    fn probe(n: i64) -> (ProbeSource, Rc<Cell<usize>>, Rc<Cell<usize>>) {
        let served = Rc::new(Cell::new(0));
        let largest = Rc::new(Cell::new(0));
        let src = ProbeSource {
            rows: (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect(),
            pos: 0,
            served: Rc::clone(&served),
            largest_request: Rc::clone(&largest),
        };
        (src, served, largest)
    }

    impl Operator for ProbeSource {
        fn open(&mut self) -> Result<()> {
            self.pos = 0;
            Ok(())
        }

        fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
            self.largest_request
                .set(self.largest_request.get().max(max));
            let batch = Batch::lend(&self.rows, &mut self.pos, max);
            self.served.set(self.served.get() + batch.len());
            Ok(batch)
        }

        fn close(&mut self) {}
    }

    fn ints<'t>(rows: impl IntoIterator<Item = &'t Tuple>) -> Vec<i64> {
        rows.into_iter()
            .map(|t| t[0].as_int().expect("int"))
            .collect()
    }

    /// The probe source's schema (`x INTEGER`) and `x = v` over it.
    fn x_schema() -> Schema {
        Schema::new(vec![Column::new("x", DataType::Int)]).unwrap()
    }

    fn column(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    fn equals(left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op: BinaryOp::Eq,
            right: Box::new(right),
        }
    }

    #[test]
    fn limit_stops_pulling_its_child_mid_batch() {
        let (src, served, largest) = probe(100);
        let mut limit = LimitOp {
            input: Box::new(src),
            remaining: 3,
        };
        limit.open().unwrap();
        // One oversized request: the limit must clamp the child pull to
        // its quota, not forward `max` and discard the overshoot.
        let batch = limit.next_batch(10).unwrap();
        assert_eq!(ints(batch.rows()), vec![0, 1, 2]);
        assert_eq!(served.get(), 3, "child must serve exactly the quota");
        assert_eq!(largest.get(), 3, "child must never be asked for more");
        // Exhausted limits report the end and never touch the child again.
        assert!(limit.next_batch(10).unwrap().is_end());
        assert!(limit.next_batch(10).unwrap().is_end());
        assert_eq!(served.get(), 3);
        limit.close();
    }

    #[test]
    fn limit_cutoffs_do_not_depend_on_the_batch_size() {
        for (rows, lim, batch) in [
            (10i64, 4u64, 3usize), // cutoff mid-batch
            (10, 10, 3),           // cutoff == input end, short final batch
            (10, 0, 5),            // LIMIT 0
            (0, 5, 4),             // empty input
            (7, 20, 7),            // limit beyond input, exact batch fit
            (10, 4, 1),            // one row per pull
        ] {
            let (src, _, _) = probe(rows);
            let mut limit = LimitOp {
                input: Box::new(src),
                remaining: lim,
            };
            let got = drain_batched(&mut limit, batch).unwrap();
            let expected: Vec<i64> = (0..rows.min(lim as i64)).collect();
            assert_eq!(ints(&got), expected, "rows={rows} lim={lim} batch={batch}");
        }
    }

    #[test]
    fn lent_cursor_ends_after_a_short_final_batch_and_stays_ended() {
        let (mut src, _, _) = probe(10);
        src.open().unwrap();
        assert_eq!(src.next_batch(7).unwrap().len(), 7);
        let last = src.next_batch(7).unwrap();
        assert_eq!(ints(last.rows()), vec![7, 8, 9]);
        assert!(!last.is_end(), "a batch with rows is never the end");
        assert!(src.next_batch(7).unwrap().is_end());
        assert!(src.next_batch(7).unwrap().is_end());
    }

    #[test]
    fn drain_batched_clamps_zero_batch() {
        let (src, _, _) = probe(4);
        let mut limit = LimitOp {
            input: Box::new(src),
            remaining: 4,
        };
        // A zero batch size must not loop forever.
        assert_eq!(
            ints(&drain_batched(&mut limit, 0).unwrap()),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn retain_selects_lent_rows_and_compacts_handed_over_rows() {
        let rows: Vec<Tuple> = (0..6).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let even = |t: &Tuple| Ok(t[0].as_int().unwrap() % 2 == 0);
        let big = |t: &Tuple| Ok(t[0].as_int().unwrap() >= 2);

        // Lent: nothing is copied, a second narrowing composes.
        let (mut sel1, mut sel2, mut pos) = (Vec::new(), Vec::new(), 0);
        let batch = Batch::lend(&rows, &mut pos, 10)
            .retain(&mut sel1, even)
            .unwrap()
            .retain(&mut sel2, big)
            .unwrap();
        assert_eq!(ints(batch.rows()), vec![2, 4]);
        assert_eq!(batch.len(), 2);
        let mut taken = Vec::new();
        batch.take_into(&mut taken);
        assert_eq!(ints(&taken), vec![2, 4]);

        // Handed over: compacted in place, then moved out.
        let mut scratch = rows.clone();
        let mut sel = Vec::new();
        let batch = Batch::owned(&mut scratch).retain(&mut sel, even).unwrap();
        assert_eq!(ints(batch.rows()), vec![0, 2, 4]);
        batch.take_into(&mut taken);
        assert_eq!(ints(&taken), vec![2, 4, 0, 2, 4]);
        assert!(scratch.is_empty(), "the rows were moved, not cloned");

        // A batch narrowed to nothing is empty, not the end.
        let mut pos = 0;
        let none = Batch::lend(&rows, &mut pos, 10)
            .retain(&mut sel, |_| Ok(false))
            .unwrap();
        assert!(none.is_empty() && !none.is_end());
    }

    #[test]
    fn exists_probe_over_a_filter_stops_at_the_first_match() {
        let engine = Engine::new();
        let ctx = engine.read_ctx().unwrap();
        let schema = x_schema();
        let bound = |e: Expr| bind(&ctx, &e, &[&schema]).unwrap();
        let pred = bound(equals(column("x"), Expr::Literal(Value::Int(7))));
        let (src, served, largest) = probe(100);
        let mut filter = FilterOp {
            ctx: &ctx,
            input: Box::new(src),
            pred: &pred,
            outer: &[],
            sel: Vec::new(),
        };
        assert!(any_row(&mut filter).unwrap());
        assert_eq!(served.get(), 8, "rows 0..=7, nothing past the match");
        assert_eq!(largest.get(), 1, "a filter asked for one row asks for one");

        // No match: the probe reads the whole input and reports false.
        let pred = bound(equals(column("x"), Expr::Literal(Value::Int(-1))));
        let (src, served, _) = probe(20);
        let mut filter = FilterOp {
            ctx: &ctx,
            input: Box::new(src),
            pred: &pred,
            outer: &[],
            sel: Vec::new(),
        };
        assert!(!any_row(&mut filter).unwrap());
        assert_eq!(served.get(), 20);
    }

    /// An engine holding `r(y)` = 9, 5, 7 — a join's right input — and
    /// the query `SELECT y FROM r` that reads it.
    fn right_input() -> (Engine, Box<Query>) {
        let mut engine = Engine::new();
        engine.execute_sql("CREATE TABLE r (y INTEGER)").unwrap();
        engine
            .execute_sql("INSERT INTO r VALUES (9), (5), (7)")
            .unwrap();
        let Statement::Select(query) = prefsql_parser::parse_statement("SELECT y FROM r").unwrap()
        else {
            panic!("expected a SELECT");
        };
        (engine, query)
    }

    #[test]
    fn exists_probe_over_a_nested_loop_join_stops_at_the_first_match() {
        let (engine, query) = right_input();
        let ctx = engine.read_ctx().unwrap();
        let right = ctx.plan_for(&query).unwrap();
        let schema = x_schema().join(right.root().schema());
        let on = bind(&ctx, &equals(column("x"), column("y")), &[&schema]).unwrap();
        let (src, served, largest) = probe(100);
        let mut join = JoinOp::new(
            &ctx,
            JoinKind::Inner,
            Box::new(src),
            right.root(),
            &[],
            Some(&on),
            None,
            &[],
        );
        // The first left row with a partner is x = 5.
        assert!(any_row(&mut join).unwrap());
        assert_eq!(served.get(), 6, "left rows 0..=5, nothing past the match");
        assert_eq!(largest.get(), 1);

        // Driven in full at a batch size that splits a left row's
        // matches, the join emits left-major, right-minor order.
        let (src, _, _) = probe(10);
        let mut join = JoinOp::new(
            &ctx,
            JoinKind::Inner,
            Box::new(src),
            right.root(),
            &[],
            None,
            None,
            &[],
        );
        let all = drain_batched(&mut join, 2).unwrap();
        assert_eq!(all.len(), 30);
        assert_eq!(
            all[..4]
                .iter()
                .map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap()))
                .collect::<Vec<_>>(),
            vec![(0, 9), (0, 5), (0, 7), (1, 9)]
        );
    }

    #[test]
    fn exists_probe_over_a_keyed_join_stops_at_the_first_match() {
        let (engine, query) = right_input();
        let ctx = engine.read_ctx().unwrap();
        let right = ctx.plan_for(&query).unwrap();
        let key = |name: &str, schema: &Schema| Bound {
            source: column(name),
            expr: bind(&ctx, &column(name), &[schema]).unwrap(),
        };
        let keys = [(key("x", &x_schema()), key("y", right.root().schema()))];
        let (src, served, largest) = probe(100);
        let mut join = JoinOp::new(
            &ctx,
            JoinKind::Inner,
            Box::new(src),
            right.root(),
            &keys,
            None,
            None,
            &[],
        );
        // The left input is pulled one row at a time up to x = 5, the
        // first row whose bucket is not empty, and not a row further.
        assert!(any_row(&mut join).unwrap());
        assert_eq!(served.get(), 6, "left rows 0..=5, nothing past the match");
        assert_eq!(largest.get(), 1);
    }
}
