//! The physical operator layer: Volcano-style streaming execution of a
//! [`PlanNode`] tree.
//!
//! Every operator implements [`Operator`] — `open`, one batched pull
//! method ([`Operator::next_batch`]) and `close` — and pulls [`Batch`]es
//! of at most `max` rows from its children, so large inputs stream
//! through filters, joins, projections and limits instead of
//! materializing at every step. Pipeline breakers buffer exactly where
//! the semantics require it and nowhere else: the sort the rows it keeps
//! (all of them, or under a LIMIT the best k so far), each cloned once;
//! distinct its seen set; aggregation one row and one
//! accumulator per call for each group; a view or derived table its
//! per-statement materialization. The keyed ones — distinct's seen set,
//! aggregation's group index and the join's build ([`crate::join`]) —
//! key on [`prefsql_types::Key`], the one key contract, so they group
//! and match exactly as SQL `=` does.
//!
//! There is one pull protocol. A [`Batch`] hides how its rows are held:
//! buffered operators (scans, materializations, sort/BMO output) *lend*
//! a slice of their buffer, a filter narrows a lent slice with a
//! selection vector instead of copying it, and streaming producers
//! (projection, joins, aggregate groups) hand over their own scratch
//! buffer so a draining consumer moves the rows out. Tuples are
//! heap-allocated, so this is what makes batching pay on this engine: a
//! `scan → filter → project` chain decides on borrowed tuples and builds
//! nothing but the final narrow output rows, and no wide row is cloned
//! for being dropped.
//!
//! A lent batch of a base table's rows also carries their row ids
//! ([`Batch::row_ids`]): the sequential scan lends them on both backends
//! (a mem table's row id is the row's position, a paged refill reports
//! the ids of the rows it decoded), and the row-id scan lends the ids it
//! fetched. They sit beside the rows, not beside the selection, so a
//! filter narrowing the batch keeps them aligned for free. Batches that
//! were built — projections, joins, materializations, operator output —
//! carry none. The preference operator's rid mode ([`crate::preference`])
//! keeps only these ids of its candidates and fetches the few winners.
//!
//! [`build`] is the only place operators are constructed — the BMO
//! operator of [`crate::preference`] included — so the instrumentation
//! shim wraps every node of every plan alike.

use crate::bind::{AggCall, Bound};
use crate::eval::Env;
use crate::exec::{ExecCtx, Relation};
use crate::join::JoinOp;
use crate::plan::{AggSpec, PlanNode, Projection, SortKey};
use crate::program::Regs;
use prefsql_storage::PageFilter;
use prefsql_types::{Error, Key, Result, Schema, Tuple, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
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
    /// lists in order the indices of `rows` the batch consists of
    /// (ascending, but for a gather by row id, [`Batch::gather`]), and
    /// `ids` the row ids of `rows` (all of them, not just the selected).
    Lent {
        rows: &'a [Tuple],
        sel: Option<&'a [usize]>,
        ids: Ids<'a>,
    },
    /// Rows in the producer's scratch buffer, which it clears on its next
    /// pull anyway: the consumer may move them out.
    Owned(&'a mut Vec<Tuple>),
}

/// The row ids of a buffer a producer lends from ([`Batch::lend_ids`]).
#[derive(Debug, Clone, Copy)]
pub enum RowIds<'a> {
    /// A row's id is its position in the buffer: a mem table's rows.
    Position,
    /// Entry `i` is the id of the buffer's row `i`.
    Listed(&'a [usize]),
}

/// The row ids of a lent run: none, or one per row of the run.
#[derive(Clone, Copy)]
enum Ids<'a> {
    None,
    /// Row `i` of the run has id `first + i`.
    From(usize),
    /// Row `i` of the run has id `ids[i]`.
    Listed(&'a [usize]),
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
        Batch::lend_run(rows, None, pos, max)
    }

    /// [`Batch::lend`] for a buffer of a base table's rows, whose ids the
    /// batch carries along ([`Batch::row_ids`]).
    pub fn lend_ids(rows: &'a [Tuple], ids: RowIds<'a>, pos: &mut usize, max: usize) -> Self {
        Batch::lend_run(rows, Some(ids), pos, max)
    }

    fn lend_run(rows: &'a [Tuple], ids: Option<RowIds<'a>>, pos: &mut usize, max: usize) -> Self {
        if *pos >= rows.len() {
            return Batch::end();
        }
        let (start, end) = (*pos, pos.saturating_add(max).min(rows.len()));
        *pos = end;
        Batch(Held::Lent {
            rows: &rows[start..end],
            sel: None,
            ids: match ids {
                None => Ids::None,
                Some(RowIds::Position) => Ids::From(start),
                Some(RowIds::Listed(ids)) => Ids::Listed(&ids[start..end]),
            },
        })
    }

    /// Lend the next run of up to `max` of the rows `ids` lists, in the
    /// order listed, advancing the cursor `pos` over `ids`: a mem table's
    /// rows by row id, which the batch carries along. No row is copied.
    pub fn gather(rows: &'a [Tuple], ids: &'a [usize], pos: &mut usize, max: usize) -> Self {
        if *pos >= ids.len() {
            return Batch::end();
        }
        let (start, end) = (*pos, pos.saturating_add(max).min(ids.len()));
        *pos = end;
        Batch(Held::Lent {
            rows,
            sel: Some(&ids[start..end]),
            ids: Ids::From(0),
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
            Held::Lent { rows, sel, .. } => sel.map_or(rows.len(), <[usize]>::len),
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
            Held::Lent { rows, sel, .. } => (rows, *sel),
            Held::Owned(rows) => (rows, None),
        };
        selected(rows.len(), sel).map(move |i| &rows[i])
    }

    /// The row ids of the rows, in the order of [`Batch::rows`] — `None`
    /// unless the producer lent a base table's rows with their ids.
    pub fn row_ids(&self) -> Option<impl Iterator<Item = usize> + '_> {
        let Held::Lent { rows, sel, ids } = &self.0 else {
            return None;
        };
        let (first, listed) = match *ids {
            Ids::None => return None,
            Ids::From(first) => (first, None),
            Ids::Listed(ids) => (0, Some(ids)),
        };
        Some(selected(rows.len(), *sel).map(move |i| listed.map_or(first + i, |ids| ids[i])))
    }

    /// The rows, in order: borrowed when the producer lent them, moved
    /// out when it handed them over — a consumer keeping only some of
    /// them copies those alone ([`Cow::into_owned`]).
    pub fn into_rows(self) -> impl Iterator<Item = Cow<'a, Tuple>> {
        let (lent, owned) = match self.0 {
            Held::End => (None, None),
            Held::Lent { rows, sel, .. } => (
                Some(selected(rows.len(), sel).map(move |i| Cow::Borrowed(&rows[i]))),
                None,
            ),
            Held::Owned(rows) => (None, Some(rows.drain(..).map(Cow::Owned))),
        };
        lent.into_iter()
            .flatten()
            .chain(owned.into_iter().flatten())
    }

    /// Append the rows to `out`: moved when the producer handed them
    /// over, cloned when it only lent them.
    pub fn take_into(self, out: &mut Vec<Tuple>) {
        match self.0 {
            Held::End => {}
            Held::Lent { rows, sel, .. } => {
                out.extend(selected(rows.len(), sel).map(|i| rows[i].clone()))
            }
            Held::Owned(rows) => out.append(rows),
        }
    }

    /// Narrow the batch to the rows `keep` accepts, preserving order.
    /// Lent rows stay where they are — the survivors' indices go to the
    /// caller's `sel` scratch, so a dropped row is never copied, and
    /// their row ids stay beside them; rows that were handed over are
    /// compacted in place.
    pub fn retain(
        self,
        sel: &'a mut Vec<usize>,
        mut keep: impl FnMut(&Tuple) -> Result<bool>,
    ) -> Result<Self> {
        match self.0 {
            Held::End => Ok(self),
            Held::Lent {
                rows,
                sel: from,
                ids,
            } => {
                sel.clear();
                for i in selected(rows.len(), from) {
                    if keep(&rows[i])? {
                        sel.push(i);
                    }
                }
                Ok(Batch(Held::Lent {
                    rows,
                    sel: Some(sel),
                    ids,
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
        PlanNode::SeqScan {
            table, sargs, mask, ..
        } => Box::new(SeqScanOp {
            ctx,
            table,
            rows: &[],
            pos: 0,
            paged: None,
            filter: PageFilter::new(sargs),
            mask: mask.as_deref(),
            buf: Vec::new(),
            rids: Vec::new(),
            buf_pos: 0,
            scan_pos: 0,
        }),
        PlanNode::Preference { input, spec, .. } => Box::new(crate::preference::PreferenceOp::new(
            build(ctx, input, outer),
            ctx,
            spec,
        )),
        PlanNode::MatViewScan {
            table,
            winners,
            mask,
            ..
        } => Box::new(RowIdScanOp::new(ctx, table, winners, false, mask)),
        PlanNode::IndexScan {
            table,
            row_ids,
            mask,
            ..
        } => Box::new(RowIdScanOp::new(ctx, table, row_ids, true, mask)),
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
            residual.as_ref(),
            *window,
            outer,
        )),
        PlanNode::Filter { input, pred } => Box::new(FilterOp {
            ctx,
            input: build(ctx, input, outer),
            pred,
            outer,
            sel: Vec::new(),
            regs: Regs::default(),
        }),
        PlanNode::Project {
            input, projections, ..
        } => Box::new(ProjectOp {
            ctx,
            input: build(ctx, input, outer),
            projections,
            outer,
            out: Vec::new(),
            regs: Regs::default(),
        }),
        PlanNode::Sort { input, keys, limit } => Box::new(SortOp {
            ctx,
            input: build(ctx, input, outer),
            keys,
            keep: limit.map_or(usize::MAX, |k| usize::try_from(k).unwrap_or(usize::MAX)),
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
            groups: Vec::new().into_iter(),
            out: Vec::new(),
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
    let mut rows = Vec::new();
    for_each_batch(op, batch.max(1), |b| {
        b.take_into(&mut rows);
        Ok(())
    })?;
    Ok(rows)
}

/// Open `op`, hand every batch of at most `batch` rows it produces to
/// `f`, and close it — closed even when opening, pulling or `f` errors.
fn for_each_batch(
    op: &mut (dyn Operator + '_),
    batch: usize,
    mut f: impl FnMut(Batch<'_>) -> Result<()>,
) -> Result<()> {
    let result = op.open().and_then(|()| loop {
        let b = op.next_batch(batch)?;
        if b.is_end() {
            break Ok(());
        }
        f(b)?;
    });
    op.close();
    result
}

/// [`drain`] for a producer of a base table's rows, built from `node`:
/// their ids ([`Batch::row_ids`]) in pull order, not the rows.
pub(crate) fn row_ids(ctx: &ExecCtx<'_>, node: &PlanNode) -> Result<Vec<usize>> {
    let mut ids = Vec::new();
    for_each_batch(build(ctx, node, &[]).as_mut(), DEFAULT_BATCH, |b| {
        ids.extend(b.row_ids().expect("a base-table source lends row ids"));
        Ok(())
    })?;
    Ok(ids)
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
/// into one owned buffer, lends that, and refills it in place once it is
/// spent, so consumers see the same borrowed batches either way; a
/// refill steps over the pages the plan's sargs rule out and decodes
/// only the columns of the plan's mask. Both lend the rows' ids.
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
    /// Paged backend: the columns refills decode (all when `None`).
    mask: Option<&'a [bool]>,
    /// Paged backend: the decode buffer batches are lent from, and the
    /// row ids of its rows.
    buf: Vec<Tuple>,
    rids: Vec<usize>,
    buf_pos: usize,
    /// Paged backend: the backend scan cursor (rid of the next refill).
    scan_pos: usize,
}

impl Operator for SeqScanOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        self.scan_pos = 0;
        self.buf.clear();
        self.rids.clear();
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
            None => Batch::lend_ids(self.rows, RowIds::Position, &mut self.pos, max),
            Some(table) => {
                if self.buf_pos >= self.buf.len() {
                    self.buf_pos = 0;
                    table.scan_batch_where(
                        &mut self.scan_pos,
                        &mut self.buf,
                        &mut self.rids,
                        max,
                        self.mask,
                        &mut self.filter,
                    )?;
                }
                Batch::lend_ids(
                    &self.buf,
                    RowIds::Listed(&self.rids),
                    &mut self.buf_pos,
                    max,
                )
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
        self.rids = Vec::new();
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("pages_read", self.filter.pages_read),
            ("pages_skipped", self.filter.pages_skipped),
        ]
    }
}

/// Row-id scan: the rows of a table whose ids were chosen at plan time,
/// in the order listed — an index probe's candidates (the parent filter
/// re-checks the full predicate, so the probe is purely an optimization)
/// or a materialized preference view's winners (whose score rows mirror
/// the base table's row ids). The mem backend's rows are lent where they
/// lie, through a selection over the ids ([`Batch::gather`]): no row is
/// copied. The paged backend fetches each pull's rows when pulled,
/// decoding only the columns of the plan's mask, and lends those. As for
/// [`SeqScanOp`], rows count as scanned when lent, so a LIMIT that stops
/// early fetched and charged fewer; only an index probe counts toward
/// `index_probes`, at open. Either way the rows are lent with their ids.
struct RowIdScanOp<'a> {
    ctx: &'a ExecCtx<'a>,
    table: &'a str,
    row_ids: &'a [usize],
    probe: bool,
    /// Paged backend: the columns a fetch decodes (all when `None`).
    mask: Option<&'a [bool]>,
    /// Mem backend: the table's rows, lent by id.
    lent: Option<&'a [Tuple]>,
    /// Paged backend: the table rows are fetched from.
    paged: Option<&'a prefsql_storage::Table>,
    /// Paged backend: the rows fetched by the last pull.
    rows: Vec<Tuple>,
    /// Position in `row_ids` of the next row to lend.
    pos: usize,
}

impl<'a> RowIdScanOp<'a> {
    fn new(
        ctx: &'a ExecCtx<'a>,
        table: &'a str,
        row_ids: &'a [usize],
        probe: bool,
        mask: &'a Option<Vec<bool>>,
    ) -> Self {
        RowIdScanOp {
            ctx,
            table,
            row_ids,
            probe,
            mask: mask.as_deref(),
            lent: None,
            paged: None,
            rows: Vec::new(),
            pos: 0,
        }
    }
}

impl Operator for RowIdScanOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let table = self.ctx.catalog().table(self.table)?;
        self.ctx.stats.borrow_mut().index_probes += u64::from(self.probe);
        match table.mem_rows() {
            Some(rows) => {
                if let Some(rid) = self.row_ids.iter().find(|&&rid| rid >= rows.len()) {
                    return Err(Error::Io(format!("row {rid} out of bounds")));
                }
                self.lent = Some(rows);
                self.paged = None;
            }
            None => {
                self.lent = None;
                self.paged = Some(table);
            }
        }
        Ok(())
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        let batch = match (self.lent, self.paged) {
            (Some(rows), _) => Batch::gather(rows, self.row_ids, &mut self.pos, max),
            (None, Some(table)) => {
                let start = self.pos;
                let ids = &self.row_ids[start..start.saturating_add(max).min(self.row_ids.len())];
                self.rows.clear();
                for &rid in ids {
                    self.rows.push(table.fetch_row(rid, self.mask)?);
                }
                self.pos += ids.len();
                Batch::lend_ids(&self.rows, RowIds::Listed(ids), &mut 0, max)
            }
            (None, None) => Batch::end(),
        };
        if !batch.is_empty() {
            self.ctx.stats.borrow_mut().rows_scanned += batch.len() as u64;
        }
        Ok(batch)
    }

    fn close(&mut self) {
        self.lent = None;
        self.paged = None;
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
    pred: &'a Bound,
    outer: &'a [&'a Tuple],
    /// Reused selection-vector scratch (survivors of a lent batch).
    sel: Vec<usize>,
    regs: Regs,
}

impl Operator for FilterOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        // A filter only shrinks a batch, so forwarding `max` keeps the
        // quota; survivors are selected, not copied.
        let (ctx, pred, outer, regs) = (self.ctx, &self.pred.prog, self.outer, &mut self.regs);
        self.input
            .next_batch(max)?
            .retain(&mut self.sel, |t| pred.holds(Env::new(t, outer), ctx, regs))
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
    regs: Regs,
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
                    Projection::Computed(b) => {
                        (b.prog).eval(Env::new(t, self.outer), self.ctx, &mut self.regs)?
                    }
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

/// Stable sort — a pipeline breaker: consumes its input at `open` and
/// keeps the first `keep` rows of the order, the LIMIT above it
/// (`usize::MAX` for all). Every row's keys are evaluated, a pull at a
/// time, but a row is copied only if it ranks among the best `keep`
/// seen so far: once that many are kept, they form a max-heap on (keys,
/// arrival), and a later row replaces the top only if it ranks strictly
/// before it — a tie arrived later, so it ranks after. A full sort
/// never fills the heap and is the same loop. Nothing is reserved for
/// `keep` rows up front.
struct SortOp<'a> {
    ctx: &'a ExecCtx<'a>,
    input: BoxOperator<'a>,
    keys: &'a [SortKey],
    keep: usize,
    outer: &'a [&'a Tuple],
    sorted: Vec<Tuple>,
    pos: usize,
}

impl Operator for SortOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let (ctx, outer, sort_keys, keep) = (self.ctx, self.outer, self.keys, self.keep);
        let n = sort_keys.len();
        // Kept row `s`, its keys flat at `s * n..`, and its arrival number.
        let (mut rows, mut keys, mut seqs) = (Vec::new(), Vec::new(), Vec::new());
        // Once `keep` rows are kept: their slots, the last-ranked on top.
        let mut heap: Vec<usize> = Vec::new();
        // One pull's keys, evaluated before any of its rows is copied: a
        // full sort then compares keys lying together in memory.
        let mut pulled_keys = Vec::new();
        let mut seq = 0;
        let mut regs = Regs::default();
        // A key error is returned once the input is drained, so an error
        // of the input itself still comes first.
        let mut failed = None;
        let cmp_keys = |a: &[Value], b: &[Value]| {
            let mut ords = sort_keys.iter().zip(a.iter().zip(b)).map(|(k, (x, y))| {
                let (x, y) = if k.asc { (x, y) } else { (y, x) };
                x.total_cmp(y)
            });
            ords.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal)
        };
        let slot = |s: usize| s * n..(s + 1) * n;
        let cmp = |keys: &[Value], seqs: &[usize], a: usize, b: usize| {
            cmp_keys(&keys[slot(a)], &keys[slot(b)]).then_with(|| seqs[a].cmp(&seqs[b]))
        };
        for_each_batch(self.input.as_mut(), DEFAULT_BATCH, |batch| {
            if failed.is_some() {
                return Ok(());
            }
            let pulled: Vec<Cow<'_, Tuple>> = batch.into_rows().collect();
            pulled_keys.clear();
            let evaluated = pulled.iter().try_for_each(|row| {
                sort_keys.iter().try_for_each(|k| {
                    pulled_keys.push(k.key.prog.eval(Env::new(row, outer), ctx, &mut regs)?);
                    Ok(())
                })
            });
            if let Err(e) = evaluated {
                failed = Some(e);
                return Ok(());
            }
            for (row, row_keys) in pulled.into_iter().zip(pulled_keys.chunks_mut(n)) {
                seq += 1;
                if rows.len() < keep {
                    rows.push(row.into_owned());
                    keys.extend(
                        row_keys
                            .iter_mut()
                            .map(|v| std::mem::replace(v, Value::Null)),
                    );
                    seqs.push(seq);
                    if rows.len() == keep {
                        heap = (0..keep).collect();
                        for i in (0..keep / 2).rev() {
                            sift_down(&mut heap, i, |a, b| cmp(&keys, &seqs, a, b));
                        }
                    }
                    continue;
                }
                let Some(&top) = heap.first() else {
                    continue;
                };
                if cmp_keys(row_keys, &keys[slot(top)]).is_lt() {
                    rows[top] = row.into_owned();
                    keys[slot(top)].swap_with_slice(row_keys);
                    seqs[top] = seq;
                    sift_down(&mut heap, 0, |a, b| cmp(&keys, &seqs, a, b));
                }
            }
            Ok(())
        })?;
        if let Some(e) = failed {
            return Err(e);
        }
        // The kept rows in arrival order (a heap's replacements moved
        // them), then the stable sort by their keys.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&s| seqs[s]);
        order.sort_by(|&a, &b| cmp_keys(&keys[slot(a)], &keys[slot(b)]));
        self.sorted = order
            .into_iter()
            .map(|i| std::mem::take(&mut rows[i]))
            .collect();
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

/// Restore the max-heap property of `heap` below position `i`, where
/// `cmp` orders the entries; the greatest ends on top.
fn sift_down(heap: &mut [usize], mut i: usize, cmp: impl Fn(usize, usize) -> Ordering) {
    loop {
        let mut top = i;
        for child in [2 * i + 1, 2 * i + 2] {
            if child < heap.len() && cmp(heap[child], heap[top]).is_gt() {
                top = child;
            }
        }
        if top == i {
            return;
        }
        heap.swap(i, top);
        i = top;
    }
}

/// Duplicate elimination; first occurrence wins, input order preserved.
struct DistinctOp<'a> {
    input: BoxOperator<'a>,
    seen: HashSet<Key<'static>>,
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
            let key = Key::borrowed(t.values());
            Ok(!seen.contains(&key) && seen.insert(key.into_owned()))
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

/// Grouped aggregation — a pipeline breaker: folds every input row, in
/// place, into its group's accumulators at `open`, keeping a clone of
/// each group's first row only. It then hands over one row per group, in
/// order of first appearance: that first row extended with the calls'
/// values.
struct AggregateOp<'a> {
    ctx: &'a ExecCtx<'a>,
    /// Width of the input rows (the global group of no rows starts from
    /// an all-NULL row this wide).
    width: usize,
    input: BoxOperator<'a>,
    spec: &'a AggSpec,
    outer: &'a [&'a Tuple],
    /// The finished group rows not handed over yet.
    groups: std::vec::IntoIter<Tuple>,
    /// Output scratch handed to the consumer.
    out: Vec<Tuple>,
}

impl Operator for AggregateOp<'_> {
    fn open(&mut self) -> Result<()> {
        let (ctx, spec, outer) = (self.ctx, self.spec, self.outer);
        let calls = spec.calls.len();
        // Group `g`'s first row, and its accumulators at `g * calls..`.
        let (mut firsts, mut accs) = (Vec::new(), Vec::new());
        let mut index: HashMap<Key<'static>, usize> = HashMap::new();
        let (mut key, mut regs) = (Vec::new(), Regs::default());
        let mut fold = |row: &Tuple| {
            let env = Env::new(row, outer);
            let mut g = 0;
            if !spec.group_by.is_empty() {
                key.clear();
                for c in &spec.group_by {
                    key.push(c.prog.eval(env, ctx, &mut regs)?);
                }
                let probe = Key::borrowed(&key);
                g = match index.get(&probe) {
                    Some(&g) => g,
                    None => {
                        index.insert(probe.into_owned(), firsts.len());
                        firsts.len()
                    }
                };
            }
            if g == firsts.len() {
                let mut first = Vec::with_capacity(row.len() + calls);
                first.extend_from_slice(row.values());
                firsts.push(first);
                accs.extend(spec.calls.iter().map(AggCall::start));
            }
            for (call, acc) in spec.calls.iter().zip(&mut accs[g * calls..]) {
                call.fold(acc, env, ctx, &mut regs)?;
            }
            Ok(())
        };
        for_each_batch(self.input.as_mut(), DEFAULT_BATCH, |b| {
            b.rows().try_for_each(&mut fold)
        })?;
        // No GROUP BY: one global group, even over no rows.
        if spec.group_by.is_empty() && firsts.is_empty() {
            firsts.push(vec![Value::Null; self.width]);
            accs.extend(spec.calls.iter().map(AggCall::start));
        }
        let mut accs = accs.into_iter();
        let rows = firsts
            .into_iter()
            .map(|mut row| {
                for (call, acc) in spec.calls.iter().zip(accs.by_ref()) {
                    row.push(call.finish(acc)?);
                }
                Ok(Tuple::new(row))
            })
            .collect::<Result<Vec<_>>>()?;
        self.groups = rows.into_iter();
        Ok(())
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        self.out.clear();
        self.out.extend(self.groups.by_ref().take(max));
        if self.out.is_empty() {
            return Ok(Batch::end());
        }
        Ok(Batch::owned(&mut self.out))
    }

    fn close(&mut self) {
        self.input.close();
        self.groups = Vec::new().into_iter();
        self.out = Vec::new();
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
        let bound = |e: Expr| {
            let mut pred = Bound::new(e.clone(), bind(&ctx, &e, &[&schema]).unwrap());
            pred.compile();
            pred
        };
        let pred = bound(equals(column("x"), Expr::Literal(Value::Int(7))));
        let (src, served, largest) = probe(100);
        let mut filter = FilterOp {
            ctx: &ctx,
            input: Box::new(src),
            pred: &pred,
            outer: &[],
            sel: Vec::new(),
            regs: Regs::default(),
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
            regs: Regs::default(),
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
        let source = equals(column("x"), column("y"));
        let expr = bind(&ctx, &source, &[&schema]).unwrap();
        let mut on = Bound::new(source, expr);
        on.compile();
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
        let key = |name: &str, schema: &Schema| {
            let mut key = Bound::new(column(name), bind(&ctx, &column(name), &[schema]).unwrap());
            key.compile();
            key
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
