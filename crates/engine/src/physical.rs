//! The physical operator layer: Volcano-style streaming execution of a
//! [`PlanNode`] tree.
//!
//! Every operator implements [`Operator`] (`open`/`next`/`close`) and
//! pulls [`Tuple`]s from its children one at a time, so large inputs
//! stream through filters, joins, projections and limits instead of
//! materializing at every step. Pipeline breakers (sort, distinct's seen
//! set, aggregation, the per-statement materialization of views and
//! derived tables) buffer exactly where the semantics require it and
//! nowhere else.
//!
//! [`build`] is the only place operators are constructed — the BMO
//! operator of [`crate::preference`] included — so the instrumentation
//! shim wraps every node of every plan alike.

use crate::eval::{eval, truth, Frame};
use crate::exec::{ExecCtx, Relation};
use crate::plan::{AggSpec, PlanNode, Projection, SortKey};
use prefsql_parser::ast::Expr;
use prefsql_types::{DataType, Error, Result, Schema, Tuple, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// A Volcano-style physical operator: a pull-based tuple cursor.
pub trait Operator {
    /// Acquire resources and prepare to produce tuples.
    fn open(&mut self) -> Result<()>;
    /// The next output tuple, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Tuple>>;
    /// Append up to `max` tuples (`max >= 1`) to `out`. Returns
    /// `Ok(true)` while the stream may still have tuples and `Ok(false)`
    /// once it is exhausted; a `true` return with a coincidentally
    /// drained input simply makes the following call report `false`
    /// having appended nothing.
    ///
    /// The default implementation loops [`Operator::next`]; hot
    /// operators override it to amortize dynamic dispatch and per-tuple
    /// `Result` plumbing (scans and materialized buffers copy slices,
    /// filters and projections process whole child batches). `next` and
    /// `next_batch` advance the same cursor, so callers may interleave
    /// them freely.
    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        for _ in 0..max {
            match self.next()? {
                Some(t) => out.push(t),
                None => return Ok(false),
            }
        }
        Ok(true)
    }
    /// Borrowed batched access: operators whose output already sits in a
    /// buffer (scans, index probes, materialized views, sorted or
    /// aggregated results) expose the next run of up to `max` tuples
    /// (`max >= 1`) as a borrowed slice, advancing the same cursor
    /// `next`/`next_batch` use. Returns `Ok(None)` when the operator
    /// streams and has no buffer to lend (the default) — callers then
    /// fall back to [`Operator::next_batch`]; an empty slice means
    /// exhausted.
    ///
    /// This is what makes batching pay on this engine: tuples are
    /// heap-allocated, so consumers that can work on borrowed tuples
    /// (filters deciding survival, projections building narrow output
    /// rows) skip cloning the wide source tuples entirely.
    fn next_slice(&mut self, max: usize) -> Result<Option<&[Tuple]>> {
        let _ = max;
        Ok(None)
    }
    /// Selection-vector variant of [`Operator::next_slice`]: lend a
    /// borrowed batch together with the indices into it that this
    /// operator actually emits (appended to `sel`). Filters implement
    /// this by lending their child's slice untouched and selecting the
    /// surviving indices, which lets a projection above a filtered scan
    /// run the whole chain without cloning a single wide source tuple.
    /// The default delegates to `next_slice` with an all-rows selection;
    /// `Ok(None)` and the empty-slice end marker behave as there.
    fn next_selection(&mut self, max: usize, sel: &mut Vec<usize>) -> Result<Option<&[Tuple]>> {
        match self.next_slice(max)? {
            Some(slice) => {
                sel.extend(0..slice.len());
                Ok(Some(slice))
            }
            None => Ok(None),
        }
    }
    /// Release resources (idempotent).
    fn close(&mut self);
    /// Operator-specific observability counters, read at close by the
    /// instrumentation shim (`EXPLAIN ANALYZE`): hash joins report
    /// build/probe/spilled rows, preference operators dominance
    /// comparisons. The default reports nothing.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// A boxed operator tied to the lifetime of its plan/context/environment.
pub type BoxOperator<'a> = Box<dyn Operator + 'a>;

/// Build the physical operator tree for a plan node. `outer` is the
/// enclosing environment for correlated sub-queries (empty for top-level
/// queries). When the statement context carries a profiler, every
/// operator — this node and, through the recursive calls below, each of
/// its children — is wrapped in the instrumentation shim.
pub fn build<'a>(
    ctx: &'a ExecCtx<'a>,
    node: &'a PlanNode,
    outer: &'a [Frame<'a>],
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
    outer: &'a [Frame<'a>],
) -> BoxOperator<'a> {
    match node {
        PlanNode::Nothing { .. } => Box::new(NothingOp { done: false }),
        PlanNode::SeqScan { table, .. } => Box::new(SeqScanOp {
            ctx,
            table,
            rows: &[],
            pos: 0,
            paged: None,
            buf: Vec::new(),
            buf_pos: 0,
            scan_pos: 0,
        }),
        PlanNode::Preference {
            input,
            spec,
            schema,
        } => Box::new(crate::preference::PreferenceOp::new(
            build(ctx, input, outer),
            ctx,
            input.schema(),
            spec,
            schema,
        )),
        PlanNode::MatViewScan { view, winners, .. } => Box::new(MatViewScanOp {
            ctx,
            view,
            ids: winners,
            rows: Vec::new(),
            pos: 0,
        }),
        PlanNode::IndexScan { table, row_ids, .. } => Box::new(IndexScanOp {
            ctx,
            table,
            row_ids,
            rows: Vec::new(),
            pos: 0,
        }),
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
        PlanNode::NestedLoopJoin {
            left,
            right,
            on,
            schema,
        } => Box::new(NestedLoopJoinOp {
            ctx,
            left: build(ctx, left, outer),
            right,
            on: on.as_ref(),
            schema,
            outer,
            right_rows: None,
            cur: None,
            ridx: 0,
        }),
        PlanNode::HashJoin {
            left,
            right,
            keys,
            residual,
            build_left,
            window,
            schema,
        } => Box::new(crate::join::HashJoinOp::new(
            ctx,
            build(ctx, left, outer),
            build(ctx, right, outer),
            keys,
            residual.as_ref(),
            *build_left,
            *window,
            left.schema(),
            right.schema(),
            schema,
            outer,
        )),
        PlanNode::Filter { input, pred } => Box::new(FilterOp {
            ctx,
            child_schema: input.schema(),
            input: build(ctx, input, outer),
            pred,
            outer,
            batch: Vec::new(),
        }),
        PlanNode::Project {
            input, projections, ..
        } => Box::new(ProjectOp {
            ctx,
            child_schema: input.schema(),
            input: build(ctx, input, outer),
            projections,
            outer,
            batch: Vec::new(),
            sel: Vec::new(),
        }),
        PlanNode::Sort { input, keys } => Box::new(SortOp {
            ctx,
            child_schema: input.schema(),
            input: build(ctx, input, outer),
            keys,
            outer,
            sorted: Vec::new(),
            pos: 0,
        }),
        PlanNode::Distinct { input } => Box::new(DistinctOp {
            input: build(ctx, input, outer),
            seen: Vec::new(),
        }),
        PlanNode::Limit { input, n, .. } => Box::new(LimitOp {
            input: build(ctx, input, outer),
            remaining: *n,
        }),
        PlanNode::Aggregate {
            input,
            spec,
            schema,
        } => Box::new(AggregateOp {
            ctx,
            child_schema: input.schema(),
            input: build(ctx, input, outer),
            spec,
            schema,
            outer,
            out: Vec::new(),
            pos: 0,
        }),
    }
}

/// Build, open and fully drain the operator tree for `node` into a
/// materialized [`Relation`].
pub fn execute(ctx: &ExecCtx<'_>, node: &PlanNode, outer: &[Frame<'_>]) -> Result<Relation> {
    let schema = node.schema().clone();
    let mut op = build(ctx, node, outer);
    let rows = drain(op.as_mut())?;
    Ok(Relation { schema, rows })
}

/// Tuples pulled per [`Operator::next_batch`] call by the default drive
/// loops: large enough to amortize a virtual call over a cache-friendly
/// run of tuples, small enough to keep scratch buffers resident.
pub const DEFAULT_BATCH: usize = 1024;

/// Shared [`Operator::next`] body for buffered operators: a clone of the
/// tuple at `pos`, advancing it. `None` at exhaustion.
pub(crate) fn next_from(rows: &[Tuple], pos: &mut usize) -> Option<Tuple> {
    let t = rows.get(*pos)?;
    *pos += 1;
    Some(t.clone())
}

/// Shared [`Operator::next_batch`] body for buffered operators: append
/// the next run of up to `max` tuples of `rows` to `out`, advancing
/// `pos`. Returns `true` while tuples remain.
pub(crate) fn batch_from(
    rows: &[Tuple],
    pos: &mut usize,
    out: &mut Vec<Tuple>,
    max: usize,
) -> bool {
    let end = (*pos + max).min(rows.len());
    out.extend_from_slice(&rows[*pos..end]);
    *pos = end;
    *pos < rows.len()
}

/// Shared [`Operator::next_slice`] body for buffered operators: lend
/// the next run of up to `max` tuples of `rows`, advancing `pos`.
/// Empty at exhaustion.
pub(crate) fn slice_from<'a>(rows: &'a [Tuple], pos: &mut usize, max: usize) -> &'a [Tuple] {
    let end = (*pos + max).min(rows.len());
    let slice = &rows[*pos..end];
    *pos = end;
    slice
}

/// Open `op`, pull every tuple, and close it — the operator is closed
/// even when opening or pulling errors, so resources held by the
/// sub-tree are always released. Pipeline breakers use this to consume
/// their children. Pulls batches of [`DEFAULT_BATCH`].
pub fn drain(op: &mut (dyn Operator + '_)) -> Result<Vec<Tuple>> {
    drain_batched(op, DEFAULT_BATCH)
}

/// [`drain`] with an explicit batch size (clamped to at least 1) — the
/// batch-boundary tests sweep this to pin batched ≡ streaming.
pub fn drain_batched(op: &mut (dyn Operator + '_), batch: usize) -> Result<Vec<Tuple>> {
    let batch = batch.max(1);
    let mut rows = Vec::new();
    let result = op.open().and_then(|()| loop {
        match op.next_batch(&mut rows, batch) {
            Ok(true) => {}
            Ok(false) => break Ok(()),
            Err(e) => break Err(e),
        }
    });
    op.close();
    result?;
    Ok(rows)
}

/// The tuple-at-a-time drive loop: one virtual call and one `Result`
/// per tuple through [`Operator::next`]. Kept as the differential
/// baseline the batched loop is tested against.
pub fn drain_tuple_at_a_time(op: &mut (dyn Operator + '_)) -> Result<Vec<Tuple>> {
    let mut rows = Vec::new();
    let result = op.open().and_then(|()| loop {
        match op.next() {
            Ok(Some(t)) => rows.push(t),
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    });
    op.close();
    result?;
    Ok(rows)
}

/// Evaluate `expr` for `tuple` under `schema`, with the enclosing
/// environment appended. The statement context doubles as the
/// sub-query evaluation bridge.
pub(crate) fn eval_row(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    schema: &Schema,
    tuple: &Tuple,
    outer: &[Frame<'_>],
) -> Result<Value> {
    let mut frames = Vec::with_capacity(outer.len() + 1);
    frames.push(Frame { schema, tuple });
    frames.extend_from_slice(outer);
    eval(expr, &frames, ctx)
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

// ------------------------------------------------------------- sources

/// `SELECT` without `FROM`: one empty tuple.
struct NothingOp {
    done: bool,
}

impl Operator for NothingOp {
    fn open(&mut self) -> Result<()> {
        self.done = false;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.done {
            Ok(None)
        } else {
            self.done = true;
            Ok(Some(Tuple::new(vec![])))
        }
    }

    fn close(&mut self) {
        self.done = true;
    }
}

/// Full table scan. The in-memory backend streams straight off the
/// catalog's stored rows with no upfront copy — a `LIMIT` above stops
/// the scan after a handful of clones no matter how large the table is.
/// The paged backend decodes page-sized batches through the buffer pool
/// into an owned buffer that `next_slice` then lends, so consumers see
/// the same borrowed-batch interface either way.
struct SeqScanOp<'a> {
    ctx: &'a ExecCtx<'a>,
    table: &'a str,
    /// Mem fast path: the backend's contiguous rows.
    rows: &'a [Tuple],
    pos: usize,
    /// Paged path: the table handle to pull batches from (`None` = mem).
    paged: Option<&'a prefsql_storage::Table>,
    /// Paged path: the owned decode buffer `next_slice` lends from.
    buf: Vec<Tuple>,
    buf_pos: usize,
    /// Paged path: the backend scan cursor (rid of the next refill).
    scan_pos: usize,
}

impl SeqScanOp<'_> {
    /// Refill the paged buffer with up to `max` rows; `false` at EOF.
    fn refill(&mut self, max: usize) -> Result<bool> {
        let table = self.paged.expect("refill is paged-only");
        self.buf.clear();
        self.buf_pos = 0;
        table.scan_batch(&mut self.scan_pos, &mut self.buf, max)?;
        Ok(!self.buf.is_empty())
    }

    /// Charge `n` rows to the statement's scan counter. Rows are charged
    /// as they are *produced*, not at open: a `LIMIT` (or a
    /// short-circuiting `EXISTS`) that stops pulling early really did
    /// touch fewer rows, and `rows_scanned` reports exactly that.
    fn charge(&self, n: usize) {
        if n > 0 {
            self.ctx.stats.borrow_mut().rows_scanned += n as u64;
        }
    }
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

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.paged.is_none() {
            return match self.rows.get(self.pos) {
                Some(t) => {
                    self.pos += 1;
                    self.charge(1);
                    Ok(Some(t.clone()))
                }
                None => Ok(None),
            };
        }
        if self.buf_pos >= self.buf.len() && !self.refill(DEFAULT_BATCH)? {
            return Ok(None);
        }
        let t = self.buf[self.buf_pos].clone();
        self.buf_pos += 1;
        self.charge(1);
        Ok(Some(t))
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        let Some(table) = self.paged else {
            let before = out.len();
            let more = batch_from(self.rows, &mut self.pos, out, max);
            self.charge(out.len() - before);
            return Ok(more);
        };
        // Emit any rows `next`/`next_slice` already decoded first, then
        // pull straight from the backend into the caller's buffer.
        if self.buf_pos < self.buf.len() {
            let end = (self.buf_pos + max).min(self.buf.len());
            out.extend_from_slice(&self.buf[self.buf_pos..end]);
            self.charge(end - self.buf_pos);
            self.buf_pos = end;
            return Ok(true);
        }
        let before = out.len();
        let more = table.scan_batch(&mut self.scan_pos, out, max)?;
        self.charge(out.len() - before);
        Ok(more)
    }

    fn next_slice(&mut self, max: usize) -> Result<Option<&[Tuple]>> {
        if self.paged.is_none() {
            let slice = slice_from(self.rows, &mut self.pos, max);
            self.charge(slice.len());
            return Ok(Some(slice));
        }
        if self.buf_pos >= self.buf.len() && !self.refill(max)? {
            return Ok(Some(&[]));
        }
        let end = (self.buf_pos + max).min(self.buf.len());
        self.charge(end - self.buf_pos);
        let slice = &self.buf[self.buf_pos..end];
        self.buf_pos = end;
        Ok(Some(slice))
    }

    fn close(&mut self) {
        self.rows = &[];
        self.paged = None;
        self.buf = Vec::new();
    }
}

/// Materialized preference view scan: stream the stored winner rows
/// chosen at plan time, in entry order. Winners are cloned at open (the
/// stored entries stay put), and count as scanned rows — the serving cost
/// of a cache hit.
struct MatViewScanOp<'a> {
    ctx: &'a ExecCtx<'a>,
    view: &'a str,
    ids: &'a [usize],
    rows: Vec<Tuple>,
    pos: usize,
}

impl Operator for MatViewScanOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let def = self.ctx.catalog().matview(self.view).ok_or_else(|| {
            Error::Catalog(format!(
                "unknown materialized preference view '{}'",
                self.view
            ))
        })?;
        let fetch = |&i: &usize| {
            let entry = def.entries.get(i).ok_or_else(|| {
                Error::Exec(format!(
                    "materialized preference view '{}' changed under its plan",
                    self.view
                ))
            })?;
            Ok(entry.output.clone())
        };
        self.rows = self.ids.iter().map(fetch).collect::<Result<_>>()?;
        self.ctx.stats.borrow_mut().rows_scanned += self.rows.len() as u64;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        Ok(next_from(&self.rows, &mut self.pos))
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        Ok(batch_from(&self.rows, &mut self.pos, out, max))
    }

    fn next_slice(&mut self, max: usize) -> Result<Option<&[Tuple]>> {
        Ok(Some(slice_from(&self.rows, &mut self.pos, max)))
    }

    fn close(&mut self) {
        self.rows = Vec::new();
    }
}

/// Index probe: stream the candidate rows chosen at plan time. The parent
/// filter re-checks the full predicate, so the probe is purely an
/// optimization.
struct IndexScanOp<'a> {
    ctx: &'a ExecCtx<'a>,
    table: &'a str,
    row_ids: &'a [usize],
    rows: Vec<Tuple>,
    pos: usize,
}

impl Operator for IndexScanOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let table = self.ctx.catalog().table(self.table)?;
        let mut stats = self.ctx.stats.borrow_mut();
        stats.index_probes += 1;
        stats.rows_scanned += self.row_ids.len() as u64;
        drop(stats);
        self.rows = self
            .row_ids
            .iter()
            .map(|&rid| table.fetch_row(rid))
            .collect::<Result<_>>()?;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        Ok(next_from(&self.rows, &mut self.pos))
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        Ok(batch_from(&self.rows, &mut self.pos, out, max))
    }

    fn next_slice(&mut self, max: usize) -> Result<Option<&[Tuple]>> {
        Ok(Some(slice_from(&self.rows, &mut self.pos, max)))
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
        if let Some(hit) = self.ctx.from_cache.borrow().get(self.cache_key) {
            self.rel = Some(Arc::clone(hit));
            return Ok(());
        }
        // Views and derived tables are uncorrelated in SQL92: execute with
        // an empty environment, then re-qualify the schema.
        let rel = execute(self.ctx, self.input, &[])?;
        let rel = Arc::new(Relation {
            schema: self.schema.clone(),
            rows: rel.rows,
        });
        self.ctx
            .from_cache
            .borrow_mut()
            .insert(self.cache_key.to_string(), Arc::clone(&rel));
        self.rel = Some(rel);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        let rel = self.rel.as_ref().expect("open() before next()");
        Ok(next_from(&rel.rows, &mut self.pos))
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        let rel = self.rel.as_ref().expect("open() before next_batch()");
        Ok(batch_from(&rel.rows, &mut self.pos, out, max))
    }

    fn next_slice(&mut self, max: usize) -> Result<Option<&[Tuple]>> {
        let rel = self.rel.as_ref().expect("open() before next_slice()");
        Ok(Some(slice_from(&rel.rows, &mut self.pos, max)))
    }

    fn close(&mut self) {
        self.rel = None;
    }
}

// ------------------------------------------------------- tuple pipeline

/// Keep tuples whose predicate evaluates to exactly TRUE.
struct FilterOp<'a> {
    ctx: &'a ExecCtx<'a>,
    child_schema: &'a Schema,
    input: BoxOperator<'a>,
    pred: &'a Expr,
    outer: &'a [Frame<'a>],
    /// Reused child-batch scratch buffer for [`Operator::next_batch`].
    batch: Vec<Tuple>,
}

impl Operator for FilterOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        while let Some(t) = self.input.next()? {
            let v = eval_row(self.ctx, self.pred, self.child_schema, &t, self.outer)?;
            if truth(&v) == Some(true) {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        // The filter only shrinks a batch, so requesting `max - appended`
        // from the child can never overfill `out`.
        let mut appended = 0;
        // Fast path: a buffered child lends borrowed slices — evaluate
        // the predicate on borrowed tuples and clone only the survivors,
        // so dropped rows are never copied at all.
        let (ctx, schema, pred, outer) = (self.ctx, self.child_schema, self.pred, self.outer);
        while appended < max {
            let Some(slice) = self.input.next_slice(max - appended)? else {
                break;
            };
            if slice.is_empty() {
                return Ok(false);
            }
            for t in slice {
                let v = eval_row(ctx, pred, schema, t, outer)?;
                if truth(&v) == Some(true) {
                    out.push(t.clone());
                    appended += 1;
                }
            }
        }
        // General path: a streaming child hands owned batches through
        // the scratch buffer.
        while appended < max {
            self.batch.clear();
            let more = self.input.next_batch(&mut self.batch, max - appended)?;
            for t in self.batch.drain(..) {
                let v = eval_row(self.ctx, self.pred, self.child_schema, &t, self.outer)?;
                if truth(&v) == Some(true) {
                    out.push(t);
                    appended += 1;
                }
            }
            if !more {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn next_selection(&mut self, max: usize, sel: &mut Vec<usize>) -> Result<Option<&[Tuple]>> {
        // Lend the child's borrowed slice untouched and select the
        // surviving indices — no tuple is cloned at all; the parent
        // copies only what it keeps.
        let (ctx, schema, pred, outer) = (self.ctx, self.child_schema, self.pred, self.outer);
        match self.input.next_slice(max)? {
            None => Ok(None),
            Some(slice) => {
                for (i, t) in slice.iter().enumerate() {
                    let v = eval_row(ctx, pred, schema, t, outer)?;
                    if truth(&v) == Some(true) {
                        sel.push(i);
                    }
                }
                Ok(Some(slice))
            }
        }
    }

    fn close(&mut self) {
        self.input.close();
        self.batch = Vec::new();
    }
}

/// Materialize one side of a join once per statement. Join inputs come
/// from `FROM` table references, which are uncorrelated in SQL92, so
/// the result is cached in the statement's materialization cache — a
/// plan re-opened inside the same statement (a correlated sub-query
/// probed per outer row, a cached statement re-driven) reuses it
/// instead of re-scanning.
pub(crate) fn materialize_join_side<'a>(
    ctx: &'a ExecCtx<'a>,
    node: &'a PlanNode,
) -> Result<Arc<Relation>> {
    let key = format!("join-side:{node:?}");
    if let Some(hit) = ctx.from_cache.borrow().get(&key) {
        return Ok(Arc::clone(hit));
    }
    let rel = Arc::new(execute(ctx, node, &[])?);
    ctx.from_cache.borrow_mut().insert(key, Arc::clone(&rel));
    Ok(rel)
}

/// Nested-loop join: the right input is materialized once per statement
/// (see [`materialize_join_side`]), the left input streams.
struct NestedLoopJoinOp<'a> {
    ctx: &'a ExecCtx<'a>,
    left: BoxOperator<'a>,
    right: &'a PlanNode,
    on: Option<&'a Expr>,
    schema: &'a Schema,
    outer: &'a [Frame<'a>],
    right_rows: Option<Arc<Relation>>,
    cur: Option<Tuple>,
    ridx: usize,
}

impl Operator for NestedLoopJoinOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right_rows = Some(materialize_join_side(self.ctx, self.right)?);
        self.cur = None;
        self.ridx = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        let right_rows = &self.right_rows.as_ref().expect("open() before next()").rows;
        loop {
            if self.cur.is_none() {
                self.cur = self.left.next()?;
                self.ridx = 0;
                if self.cur.is_none() {
                    return Ok(None);
                }
            }
            let l = self.cur.as_ref().expect("left row set above");
            while self.ridx < right_rows.len() {
                let joined = l.join(&right_rows[self.ridx]);
                self.ridx += 1;
                let keep = match self.on {
                    None => true,
                    Some(cond) => {
                        let v = eval_row(self.ctx, cond, self.schema, &joined, self.outer)?;
                        truth(&v) == Some(true)
                    }
                };
                if keep {
                    return Ok(Some(joined));
                }
            }
            self.cur = None;
        }
    }

    fn close(&mut self) {
        self.left.close();
        self.right_rows = None;
    }
}

/// Evaluate the SELECT list per tuple.
struct ProjectOp<'a> {
    ctx: &'a ExecCtx<'a>,
    child_schema: &'a Schema,
    input: BoxOperator<'a>,
    projections: &'a [Projection],
    outer: &'a [Frame<'a>],
    /// Reused child-batch scratch buffer for [`Operator::next_batch`].
    batch: Vec<Tuple>,
    /// Reused selection-vector scratch for the borrowed fast path.
    sel: Vec<usize>,
}

/// Evaluate one SELECT list against one (borrowed) child tuple.
fn project_one(
    ctx: &ExecCtx<'_>,
    child_schema: &Schema,
    projections: &[Projection],
    outer: &[Frame<'_>],
    t: &Tuple,
) -> Result<Tuple> {
    let mut values = Vec::with_capacity(projections.len());
    for p in projections {
        values.push(match p {
            Projection::Passthrough(idx) => t[*idx].clone(),
            Projection::Computed(e) => eval_row(ctx, e, child_schema, t, outer)?,
        });
    }
    Ok(Tuple::new(values))
}

impl Operator for ProjectOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        let Some(t) = self.input.next()? else {
            return Ok(None);
        };
        Ok(Some(project_one(
            self.ctx,
            self.child_schema,
            self.projections,
            self.outer,
            &t,
        )?))
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        let mut appended = 0;
        // Fast path: project straight off a borrowed slice-with-selection
        // (a buffered child, or a filter lending its own buffered
        // child's slice) — the wide source tuples are never cloned.
        let (ctx, schema, projections, outer) =
            (self.ctx, self.child_schema, self.projections, self.outer);
        let mut sel = std::mem::take(&mut self.sel);
        while appended < max {
            sel.clear();
            let Some(slice) = self.input.next_selection(max - appended, &mut sel)? else {
                break;
            };
            if slice.is_empty() {
                self.sel = sel;
                return Ok(false);
            }
            for &i in &sel {
                out.push(project_one(ctx, schema, projections, outer, &slice[i])?);
                appended += 1;
            }
        }
        self.sel = sel;
        // General path: one projected tuple per owned child-batch tuple
        // through the scratch buffer.
        while appended < max {
            self.batch.clear();
            let more = self.input.next_batch(&mut self.batch, max - appended)?;
            for t in &self.batch {
                out.push(project_one(
                    self.ctx,
                    self.child_schema,
                    self.projections,
                    self.outer,
                    t,
                )?);
                appended += 1;
            }
            if !more {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn close(&mut self) {
        self.input.close();
        self.batch = Vec::new();
    }
}

/// Stable sort — a pipeline breaker: drains its input at `open`.
struct SortOp<'a> {
    ctx: &'a ExecCtx<'a>,
    child_schema: &'a Schema,
    input: BoxOperator<'a>,
    keys: &'a [SortKey],
    outer: &'a [Frame<'a>],
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
                .map(|k| eval_row(self.ctx, &k.expr, self.child_schema, row, self.outer))
                .collect::<Result<Vec<_>>>()?;
            keyed.push(key);
        }
        let asc: Vec<bool> = self.keys.iter().map(|k| k.asc).collect();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| compare_key_rows(&keyed[a], &keyed[b], &asc));
        self.sorted = order.into_iter().map(|i| rows[i].clone()).collect();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        Ok(next_from(&self.sorted, &mut self.pos))
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        Ok(batch_from(&self.sorted, &mut self.pos, out, max))
    }

    fn next_slice(&mut self, max: usize) -> Result<Option<&[Tuple]>> {
        Ok(Some(slice_from(&self.sorted, &mut self.pos, max)))
    }

    fn close(&mut self) {
        self.input.close();
        self.sorted = Vec::new();
    }
}

/// Duplicate elimination; first occurrence wins, input order preserved.
struct DistinctOp<'a> {
    input: BoxOperator<'a>,
    seen: Vec<Tuple>,
}

impl Operator for DistinctOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.seen.clear();
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        while let Some(t) = self.input.next()? {
            let dup = self
                .seen
                .iter()
                .any(|s| s.values().iter().zip(t.values()).all(|(a, b)| a.key_eq(b)));
            if !dup {
                self.seen.push(t.clone());
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.input.close();
        self.seen = Vec::new();
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

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            Some(t) => {
                self.remaining -= 1;
                Ok(Some(t))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        if self.remaining == 0 {
            return Ok(false);
        }
        // Never request more than the remaining quota from the child: a
        // LIMIT cutoff in the middle of a batch must stop the pull there.
        let want = self.remaining.min(max as u64) as usize;
        let mut taken = 0;
        let mut more = true;
        while taken < want && more {
            // Prefer the child's borrowed slice (still quota-clamped).
            match self.input.next_slice(want - taken)? {
                Some([]) => more = false,
                Some(slice) => {
                    out.extend_from_slice(slice);
                    taken += slice.len();
                }
                None => {
                    let before = out.len();
                    more = self.input.next_batch(out, want - taken)?;
                    taken += out.len() - before;
                }
            }
        }
        self.remaining -= taken as u64;
        if !more {
            self.remaining = 0;
        }
        Ok(self.remaining > 0)
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
    child_schema: &'a Schema,
    input: BoxOperator<'a>,
    spec: &'a AggSpec,
    schema: &'a Schema,
    outer: &'a [Frame<'a>],
    out: Vec<Tuple>,
    pos: usize,
}

impl Operator for AggregateOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let rows = drain(self.input.as_mut())?;
        self.out = run_aggregate(
            self.ctx,
            self.spec,
            self.child_schema,
            self.schema,
            rows,
            self.outer,
        )?;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        Ok(next_from(&self.out, &mut self.pos))
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        Ok(batch_from(&self.out, &mut self.pos, out, max))
    }

    fn next_slice(&mut self, max: usize) -> Result<Option<&[Tuple]>> {
        Ok(Some(slice_from(&self.out, &mut self.pos, max)))
    }

    fn close(&mut self) {
        self.input.close();
        self.out = Vec::new();
    }
}

fn run_aggregate(
    ctx: &ExecCtx<'_>,
    spec: &AggSpec,
    input_schema: &Schema,
    out_schema: &Schema,
    rows: Vec<Tuple>,
    outer: &[Frame<'_>],
) -> Result<Vec<Tuple>> {
    // Partition.
    let mut groups: Vec<(Vec<Value>, Vec<Tuple>)> = Vec::new();
    let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for row in rows {
        let key: Vec<Value> = spec
            .group_by
            .iter()
            .map(|e| eval_row(ctx, e, input_schema, &row, outer))
            .collect::<Result<_>>()?;
        let norm = key
            .iter()
            .map(|v| format!("{v:?}"))
            .collect::<Vec<_>>()
            .join("\x1f");
        match index.get(&norm) {
            Some(&g) => groups[g].1.push(row),
            None => {
                index.insert(norm, groups.len());
                groups.push((key, vec![row]));
            }
        }
    }
    // No GROUP BY + aggregates: one global group, even when empty.
    if spec.group_by.is_empty() && groups.is_empty() {
        groups.push((vec![], vec![]));
    }

    // HAVING.
    let mut kept_groups = Vec::new();
    for (key, members) in groups {
        let keep = match &spec.having {
            None => true,
            Some(h) => {
                let v = eval_agg(ctx, h, input_schema, &members, outer)?;
                truth(&v) == Some(true)
            }
        };
        if keep {
            kept_groups.push((key, members));
        }
    }

    // Project each group.
    let mut out_rows = Vec::with_capacity(kept_groups.len());
    for (_, members) in &kept_groups {
        let mut values = Vec::with_capacity(spec.select.len());
        for expr in &spec.select {
            values.push(eval_agg(ctx, expr, input_schema, members, outer)?);
        }
        out_rows.push(Tuple::new(values));
    }

    // ORDER BY over the aggregate output (references output aliases or
    // aggregate expressions verbatim).
    if !spec.order_by.is_empty() {
        let mut keys: Vec<Vec<Value>> = Vec::with_capacity(out_rows.len());
        for (i, row) in out_rows.iter().enumerate() {
            let mut key = Vec::with_capacity(spec.order_by.len());
            for o in &spec.order_by {
                // Try against the output schema first, then re-compute
                // from the group.
                let v = match eval_row(ctx, &o.output, out_schema, row, &[]) {
                    Ok(v) => v,
                    Err(_) => eval_agg(ctx, &o.original, input_schema, &kept_groups[i].1, outer)?,
                };
                key.push(v);
            }
            keys.push(key);
        }
        let asc: Vec<bool> = spec.order_by.iter().map(|o| o.asc).collect();
        let mut order: Vec<usize> = (0..out_rows.len()).collect();
        order.sort_by(|&a, &b| compare_key_rows(&keys[a], &keys[b], &asc));
        out_rows = order.into_iter().map(|i| out_rows[i].clone()).collect();
    }
    Ok(out_rows)
}

/// Evaluate an expression that may contain aggregate calls over the rows
/// of one group: aggregates are folded to literals first, then the
/// residue is evaluated against the group's first row.
fn eval_agg(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    input_schema: &Schema,
    members: &[Tuple],
    outer: &[Frame<'_>],
) -> Result<Value> {
    let folded = fold_aggregates(ctx, expr, input_schema, members, outer)?;
    let empty_row = Tuple::new(vec![Value::Null; input_schema.len()]);
    let first = members.first().unwrap_or(&empty_row);
    eval_row(ctx, &folded, input_schema, first, outer)
}

fn fold_aggregates(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    input_schema: &Schema,
    members: &[Tuple],
    outer: &[Frame<'_>],
) -> Result<Expr> {
    expr.try_map(&mut |e| match e {
        Expr::Function { name, args }
            if matches!(name.as_str(), "count" | "sum" | "avg" | "min" | "max") =>
        {
            let v = compute_aggregate(ctx, name, args, input_schema, members, outer)?;
            Ok(Some(Expr::Literal(v)))
        }
        _ => Ok(None),
    })
}

fn compute_aggregate(
    ctx: &ExecCtx<'_>,
    name: &str,
    args: &[Expr],
    input_schema: &Schema,
    members: &[Tuple],
    outer: &[Frame<'_>],
) -> Result<Value> {
    if name == "count" && args.len() == 1 && matches!(args[0], Expr::Wildcard) {
        return Ok(Value::Int(members.len() as i64));
    }
    if args.len() != 1 {
        return Err(Error::Type(format!(
            "{name}() expects exactly one argument"
        )));
    }
    let mut values = Vec::with_capacity(members.len());
    for row in members {
        let v = eval_row(ctx, &args[0], input_schema, row, outer)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    match name {
        "count" => Ok(Value::Int(values.len() as i64)),
        "sum" | "avg" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let mut acc = Value::Int(0);
            for v in &values {
                acc = acc.add(v)?;
            }
            if name == "avg" {
                acc.coerce_to(DataType::Float)?
                    .div(&Value::Float(values.len() as f64))
            } else {
                Ok(acc)
            }
        }
        "min" | "max" => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => match v.sql_cmp(&b) {
                        Some(Ordering::Less) if name == "min" => v,
                        Some(Ordering::Greater) if name == "max" => v,
                        Some(_) => b,
                        None => {
                            return Err(Error::Type(format!("{name}() over incomparable values")))
                        }
                    },
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        _ => unreachable!("caller checked the aggregate name"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// An instrumented source: serves integer tuples and records how many
    /// tuples it handed out and the largest batch ever requested, so the
    /// tests can prove a parent stopped pulling mid-batch.
    struct ProbeSource {
        rows: Vec<Tuple>,
        pos: usize,
        serve_slices: bool,
        served: Rc<Cell<usize>>,
        largest_request: Rc<Cell<usize>>,
    }

    fn probe(n: i64) -> (ProbeSource, Rc<Cell<usize>>, Rc<Cell<usize>>) {
        let served = Rc::new(Cell::new(0));
        let largest = Rc::new(Cell::new(0));
        let src = ProbeSource {
            rows: (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect(),
            pos: 0,
            serve_slices: false,
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

        fn next(&mut self) -> Result<Option<Tuple>> {
            self.largest_request.set(self.largest_request.get().max(1));
            match self.rows.get(self.pos) {
                Some(t) => {
                    self.pos += 1;
                    self.served.set(self.served.get() + 1);
                    Ok(Some(t.clone()))
                }
                None => Ok(None),
            }
        }

        fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
            self.largest_request
                .set(self.largest_request.get().max(max));
            let end = (self.pos + max).min(self.rows.len());
            out.extend_from_slice(&self.rows[self.pos..end]);
            self.served.set(self.served.get() + (end - self.pos));
            self.pos = end;
            Ok(self.pos < self.rows.len())
        }

        fn next_slice(&mut self, max: usize) -> Result<Option<&[Tuple]>> {
            if !self.serve_slices {
                return Ok(None);
            }
            self.largest_request
                .set(self.largest_request.get().max(max));
            let end = (self.pos + max).min(self.rows.len());
            let slice = &self.rows[self.pos..end];
            self.served.set(self.served.get() + slice.len());
            self.pos = end;
            Ok(Some(slice))
        }

        fn close(&mut self) {}
    }

    fn ints(rows: &[Tuple]) -> Vec<i64> {
        rows.iter().map(|t| t[0].as_int().expect("int")).collect()
    }

    #[test]
    fn limit_stops_pulling_its_child_mid_batch_via_slices() {
        // Same quota discipline when the child lends borrowed slices.
        let (mut src, served, largest) = probe(100);
        src.serve_slices = true;
        let mut limit = LimitOp {
            input: Box::new(src),
            remaining: 3,
        };
        limit.open().unwrap();
        let mut out = Vec::new();
        assert!(!limit.next_batch(&mut out, 10).unwrap());
        assert_eq!(ints(&out), vec![0, 1, 2]);
        assert_eq!(served.get(), 3);
        assert_eq!(largest.get(), 3);
        limit.close();
    }

    #[test]
    fn limit_stops_pulling_its_child_mid_batch() {
        let (src, served, largest) = probe(100);
        let mut limit = LimitOp {
            input: Box::new(src),
            remaining: 3,
        };
        limit.open().unwrap();
        let mut out = Vec::new();
        // One oversized request: the limit must clamp the child pull to
        // its quota, not forward `max` and discard the overshoot.
        let more = limit.next_batch(&mut out, 10).unwrap();
        assert_eq!(ints(&out), vec![0, 1, 2]);
        assert!(!more, "quota exhausted must report end-of-stream");
        assert_eq!(served.get(), 3, "child must serve exactly the quota");
        assert_eq!(largest.get(), 3, "child must never be asked for more");
        // Exhausted limits never touch the child again.
        let mut out2 = Vec::new();
        assert!(!limit.next_batch(&mut out2, 10).unwrap());
        assert!(out2.is_empty());
        assert_eq!(served.get(), 3);
        limit.close();
    }

    #[test]
    fn limit_batches_straddling_the_cutoff_agree_with_next() {
        for (rows, lim, batch) in [
            (10i64, 4u64, 3usize), // cutoff mid-batch
            (10, 10, 3),           // cutoff == input end, short final batch
            (10, 0, 5),            // LIMIT 0
            (0, 5, 4),             // empty input
            (7, 20, 7),            // limit beyond input, exact batch fit
        ] {
            let (src, _, _) = probe(rows);
            let mut batched = LimitOp {
                input: Box::new(src),
                remaining: lim,
            };
            let batched_rows = drain_batched(&mut batched, batch).unwrap();

            let (src, _, _) = probe(rows);
            let mut streamed = LimitOp {
                input: Box::new(src),
                remaining: lim,
            };
            let streamed_rows = drain_tuple_at_a_time(&mut streamed).unwrap();
            assert_eq!(
                ints(&batched_rows),
                ints(&streamed_rows),
                "rows={rows} lim={lim} batch={batch}"
            );
        }
    }

    #[test]
    fn default_next_batch_mirrors_next() {
        // Drive the default implementation (ProbeSource wrapped so the
        // override is not used) against plain next().
        struct DefaultOnly(ProbeSource);
        impl Operator for DefaultOnly {
            fn open(&mut self) -> Result<()> {
                self.0.open()
            }
            fn next(&mut self) -> Result<Option<Tuple>> {
                self.0.next()
            }
            fn close(&mut self) {
                self.0.close()
            }
        }
        let (src, _, _) = probe(10);
        let mut op = DefaultOnly(src);
        op.open().unwrap();
        let mut out = Vec::new();
        assert!(op.next_batch(&mut out, 7).unwrap());
        assert_eq!(out.len(), 7);
        // Final short batch reports exhaustion.
        assert!(!op.next_batch(&mut out, 7).unwrap());
        assert_eq!(ints(&out), (0..10).collect::<Vec<_>>());
        // Subsequent calls keep reporting exhaustion with no tuples.
        assert!(!op.next_batch(&mut out, 7).unwrap());
        assert_eq!(out.len(), 10);
        op.close();
    }

    #[test]
    fn scan_style_emission_yields_final_short_batch() {
        let (mut src, _, _) = probe(10);
        src.open().unwrap();
        let mut out = Vec::new();
        assert!(src.next_batch(&mut out, 7).unwrap());
        assert_eq!(out.len(), 7);
        assert!(!src.next_batch(&mut out, 7).unwrap());
        assert_eq!(out.len(), 10);
        // Empty batch after exhaustion.
        assert!(!src.next_batch(&mut out, 7).unwrap());
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn interleaving_next_and_next_batch_shares_the_cursor() {
        let (mut src, _, _) = probe(6);
        src.open().unwrap();
        assert_eq!(src.next().unwrap().unwrap()[0], Value::Int(0));
        let mut out = Vec::new();
        assert!(src.next_batch(&mut out, 3).unwrap());
        assert_eq!(ints(&out), vec![1, 2, 3]);
        assert_eq!(src.next().unwrap().unwrap()[0], Value::Int(4));
        assert!(!src.next_batch(&mut out, 3).unwrap());
        assert_eq!(ints(&out), vec![1, 2, 3, 5]);
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
}
