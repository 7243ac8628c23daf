//! The Best-Matches-Only physical operator — the "generalized skyline
//! operator in the kernel of an SQL-system" the paper's outlook points at
//! (§3.3).
//!
//! [`PlanNode::Preference`](crate::plan::PlanNode::Preference) is planned
//! for every FROM-level `PREFERRING` block by `crate::plan::plan_query`,
//! built here (only) through [`crate::physical::build`], and rendered by
//! [`crate::explain`] like every other node. The operator is a pipeline breaker: it drains the
//! FROM/WHERE source, representing each row once as it arrives — one
//! [`ScoreMatrix`] lowers its base-preference slots to cells, a slot
//! that is a column of the row straight from where it lies, any other
//! evaluated first (EXPLAIN ANALYZE's `lower_us=`) — applies the `BUT ONLY`
//! threshold, runs the maximal-set selection of `prefsql-pref` (over the
//! whole candidate set or once per `GROUPING` partition, driven as
//! [`SkylineAlgo`] says) and streams the winners, each extended with the
//! quality-function columns ([`QualityCol`]) the plan above references.
//! Dominance tests, optima and quality values all read the cells, which
//! travel with their candidates through [`ExternalSkyline`] and the
//! `BUT ONLY` spool; a quality value is [`Preference::quality`] of a
//! winner's cell, the one native TOP/LEVEL/DISTANCE. Semantics are
//! identical to the rewrite path; the `rewrite_vs_native` differential
//! suite and ablation A1 depend on that.
//!
//! A candidate is its cells plus one of two things, fixed at plan time
//! ([`PrefSpec::rid_table`]):
//!
//! * **Rid mode** — the source is a chain of filters over one base-table
//!   `SeqScan` or `IndexScan` that may yield more than one pull of rows,
//!   there is no `BUT ONLY` and no window budget (the planner's
//!   `rid_mode` says why). The scan lends its rows with their row ids
//!   ([`Batch::row_ids`]), the operator keeps only the ids, and the few
//!   winners are fetched by id, in winner order, through
//!   [`Table::fetch_row`] — not charged to `rows_scanned` again. Nothing
//!   reads a candidate's other columns, so the pruning pass has the
//!   sequential scan decode only what the filters, slots and `GROUPING`
//!   keys read, and the winner fetch only what the plan above reads
//!   ([`PrefSpec::rid_mask`]).
//! * **The row path** — every other source (a join, a derived table or
//!   view, a semi/anti join, a source of one pull), `BUT ONLY`, whose
//!   threshold reads the source row, or a window budget, whose spill
//!   runs hold rows: the operator takes each candidate's row out of the
//!   batch ([`Batch::take_into`]).
//!
//! The operator tree is the same either way, and so is EXPLAIN: the scan
//! and filters under the preference run as operators and report their
//! exact `actual rows=`.

use crate::bind::{Bound, BoundExpr};
use crate::eval::Env;
use crate::exec::ExecCtx;
use crate::knobs::NativeOptions;
use crate::physical::{Batch, BoxOperator, Operator};
use crate::program::Regs;
use prefsql_pref::external::{split_cells, with_cells, ExternalSkyline, CELL_BYTES};
use prefsql_pref::{bmo_grouped_scored, maximal_scored, Preference, ScoreMatrix, SkylineAlgo};
use prefsql_rewrite::levels::GEN_PREFIX;
use prefsql_rewrite::CompiledPreference;
use prefsql_storage::spill::{tuple_spill_bytes, RunReader, RunWriter, SpillManager, SpillMetrics};
use prefsql_storage::Table;
use prefsql_types::{Column, DataType, Error, Result, Tuple, Value};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Everything the preference operator needs, fixed at plan time.
#[derive(Debug, Clone)]
pub struct PrefSpec {
    /// The compiled preference.
    pub compiled: CompiledPreference,
    /// `compiled.base_exprs` bound against the source.
    pub slots: Vec<Bound>,
    /// The `GROUPING` expressions, bound against the source.
    pub groups: Vec<Bound>,
    /// `BUT ONLY` threshold with quality calls lowered to column
    /// references into [`PrefSpec::quality`], bound against two frames:
    /// the candidate's quality values (depth 0), then its source row
    /// (depth 1).
    pub but_only: Option<Bound>,
    /// The quality-function columns appended to every winner.
    pub quality: Vec<QualityCol>,
    /// The session knobs — algorithm, degree ceiling, drive batch and
    /// window budget — taken from the statement context at plan time.
    pub knobs: NativeOptions,
    /// A materialized preference view on the base table that could not
    /// serve this query, and why (`"miss"` / `"stale"`) — EXPLAIN only.
    pub view: Option<(String, &'static str)>,
    /// Rid mode: the base table whose row ids the source lends — a chain
    /// of filters over one scan of it, and no `BUT ONLY`. The operator
    /// then keeps a candidate as its row id and cells and fetches only
    /// the winners; `None` keeps the candidates' rows (the row path).
    pub rid_table: Option<String>,
    /// Rid mode: the columns a winner fetch decodes (all when `None`),
    /// set by the pruning pass to those the plan above reads.
    pub rid_mask: Option<Vec<bool>>,
}

impl PrefSpec {
    /// The window budget the operator streams under: only the ungrouped
    /// [`SkylineAlgo::Auto`] goes external (a GROUPING query selects per
    /// partition of one in-memory matrix; forced algorithms stay pinned
    /// for the differential suites).
    pub(crate) fn external_budget(&self) -> Option<usize> {
        match (self.groups.is_empty(), self.knobs.algo) {
            (true, SkylineAlgo::Auto) => self.knobs.window_bytes,
            _ => None,
        }
    }
}

/// One quality-function column: `func(slot's attribute)` per §2.2.3,
/// its value [`Preference::quality`] of the slot's cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityCol {
    /// `"top"`, `"level"` or `"distance"` (validated against the slot's
    /// base preference at plan time).
    pub func: String,
    /// The base-preference slot the call refers to.
    pub slot: usize,
}

impl QualityCol {
    /// The generated column name, e.g. `prefsql_distance0`.
    pub(crate) fn name(&self) -> String {
        format!("{GEN_PREFIX}{}{}", self.func, self.slot)
    }

    /// The output column. `slot_type` is the inferred type of the slot's
    /// attribute expression (distances of integer attributes stay
    /// integral, as on the rewrite path).
    pub(crate) fn column(&self, slot_type: DataType) -> Column {
        let dtype = match self.func.as_str() {
            "top" => DataType::Bool,
            "distance" if slot_type == DataType::Float => DataType::Float,
            _ => DataType::Int,
        };
        Column::new(self.name(), dtype)
    }
}

/// The Best-Matches-Only physical operator (see the module docs).
pub(crate) struct PreferenceOp<'a> {
    input: BoxOperator<'a>,
    ctx: &'a ExecCtx<'a>,
    spec: &'a PrefSpec,
    winners: Vec<Tuple>,
    pos: usize,
    /// Dominance comparisons of the last [`Operator::open`].
    comparisons: u64,
    /// Winners the last [`Operator::open`] selected, pulled or not.
    selected: u64,
    /// Time the last [`Operator::open`] spent lowering candidates to
    /// cells (slots and `GROUPING` keys), apart from the selection.
    lower: Duration,
    /// The registers the `BUT ONLY` threshold runs in.
    regs: RefCell<Regs>,
}

/// Rid mode's winner fetch: the base table the candidates' row ids name,
/// and the columns to decode ([`PrefSpec::rid_mask`]).
type Fetch<'a> = (&'a Table, Option<&'a [bool]>);

/// What the operator keeps of a candidate until the selection is made:
/// its source row on the row path ([`Tuple`]), its row id in rid mode
/// (`usize`). Either travels beside its cells.
trait Candidate: Sized {
    /// Append the candidates of a pulled batch to `out`, in order.
    fn take(batch: Batch<'_>, out: &mut Vec<Self>) -> Result<()>;
    /// Does the candidate pass the `BUT ONLY` threshold?
    fn passes(&self, op: &PreferenceOp<'_>, cells: &[f64], best: &[Option<f64>]) -> Result<bool>;
    /// The candidate's source row; `fetch` is the rid-mode winner fetch.
    fn into_row(self, fetch: Option<Fetch<'_>>) -> Result<Tuple>;
}

impl Candidate for Tuple {
    fn take(batch: Batch<'_>, out: &mut Vec<Self>) -> Result<()> {
        batch.take_into(out);
        Ok(())
    }

    fn passes(&self, op: &PreferenceOp<'_>, cells: &[f64], best: &[Option<f64>]) -> Result<bool> {
        op.passes_but_only(self, cells, best)
    }

    fn into_row(self, _: Option<Fetch<'_>>) -> Result<Tuple> {
        Ok(self)
    }
}

impl Candidate for usize {
    fn take(batch: Batch<'_>, out: &mut Vec<Self>) -> Result<()> {
        let ids = batch.row_ids().ok_or_else(|| {
            Error::Exec("a rid-mode preference source lent rows without row ids".into())
        })?;
        out.extend(ids);
        Ok(())
    }

    /// Rid mode is never planned under `BUT ONLY`.
    fn passes(&self, _: &PreferenceOp<'_>, _: &[f64], _: &[Option<f64>]) -> Result<bool> {
        Ok(true)
    }

    fn into_row(self, fetch: Option<Fetch<'_>>) -> Result<Tuple> {
        let (table, mask) =
            fetch.ok_or_else(|| Error::Exec("rid-mode winner without a table".into()))?;
        table.fetch_row(self, mask)
    }
}

/// Where candidates go once the window budget trips (a spool run first
/// when `BUT ONLY` must wait for the optima).
enum Sink<'p> {
    Skyline(ExternalSkyline<'p>),
    Spool {
        manager: SpillManager,
        writer: RunWriter,
        /// The current pull's frames, written as one.
        frames: Vec<Tuple>,
    },
}

impl Sink<'_> {
    fn push(&mut self, row: Tuple, cells: &[f64]) -> Result<()> {
        match self {
            Sink::Skyline(machine) => machine.push(row, cells),
            Sink::Spool { frames, .. } => {
                frames.push(with_cells(row, cells));
                Ok(())
            }
        }
    }
}

impl<'a> PreferenceOp<'a> {
    /// Wrap `input`, the source rows the preference selects from.
    pub(crate) fn new(input: BoxOperator<'a>, ctx: &'a ExecCtx<'a>, spec: &'a PrefSpec) -> Self {
        PreferenceOp {
            input,
            ctx,
            spec,
            winners: Vec::new(),
            pos: 0,
            comparisons: 0,
            selected: 0,
            lower: Duration::ZERO,
            regs: RefCell::default(),
        }
    }

    fn preference(&self) -> &'a Preference {
        &self.spec.compiled.preference
    }

    /// Rid mode's winner fetch, from the base table whose rows the
    /// candidates' ids name.
    fn rid_fetch(&self) -> Result<Option<Fetch<'a>>> {
        let Some(table) = &self.spec.rid_table else {
            return Ok(None);
        };
        let mask = self.spec.rid_mask.as_deref();
        Ok(Some((self.ctx.catalog().table(table)?, mask)))
    }

    /// The quality-column values of a row whose lowered slots are `cells`.
    fn quality_values(&self, cells: &[f64], best: &[Option<f64>]) -> Vec<Value> {
        let pref = self.preference();
        let value = |q: &QualityCol| pref.quality(&q.func, q.slot, cells[q.slot], best[q.slot]);
        self.spec.quality.iter().map(value).collect()
    }

    /// `BUT ONLY` filter for one source row (§2.2.5), evaluated with the
    /// final data-dependent optima.
    fn passes_but_only(&self, row: &Tuple, cells: &[f64], best: &[Option<f64>]) -> Result<bool> {
        let Some(threshold) = &self.spec.but_only else {
            return Ok(true);
        };
        let quality = Tuple::new(self.quality_values(cells, best));
        let source = [row];
        let env = Env::new(&quality, &source);
        (threshold.prog).holds(env, self.ctx, &mut self.regs.borrow_mut())
    }

    /// Buffer the winners — fetched by row id in rid mode, in winner
    /// order — extended with the quality their cells give.
    fn set_winners<C: Candidate, Cells: AsRef<[f64]>>(
        &mut self,
        winners: impl Iterator<Item = (C, Cells)>,
        best: &[Option<f64>],
    ) -> Result<()> {
        let fetch = self.rid_fetch()?;
        let winners = winners.map(|(winner, cells)| {
            let row = winner.into_row(fetch)?;
            if self.spec.quality.is_empty() {
                return Ok(row);
            }
            let mut values = row.into_values();
            values.extend(self.quality_values(cells.as_ref(), best));
            Ok(Tuple::new(values))
        });
        self.winners = winners.collect::<Result<_>>()?;
        Ok(())
    }

    /// The in-memory selection over `candidates`, candidate `i` lowered
    /// to `matrix` row `i` and keyed by the `i`-th stride of `keys`:
    /// apply `BUT ONLY`, select the maximal survivors, buffer them.
    fn select_in_memory<C: Candidate>(
        &mut self,
        candidates: Vec<C>,
        matrix: &ScoreMatrix,
        keys: &[Value],
        best: &[Option<f64>],
    ) -> Result<()> {
        let preference = self.preference();
        // BUT ONLY filters candidates before dominance (§2.2.5).
        let mut passing = Vec::with_capacity(candidates.len());
        for (i, candidate) in candidates.iter().enumerate() {
            if candidate.passes(self, matrix.row(i), best)? {
                passing.push(i);
            }
        }

        let NativeOptions { algo, threads, .. } = self.spec.knobs;
        let stride = self.spec.groups.len();
        let winner_ids: Vec<usize> = if stride > 0 {
            let key_of = |i: usize| &keys[i * stride..(i + 1) * stride];
            bmo_grouped_scored(matrix, preference, &passing, key_of, algo, threads)
        } else {
            maximal_scored(matrix, preference, &passing, algo, threads)
        };
        // Both selections return ascending ids: one merge pass.
        let mut next = winner_ids.iter().peekable();
        let winners = (candidates.into_iter().zip(0..))
            .filter_map(|(c, i)| next.next_if_eq(&&i).map(|_| (c, matrix.row(i))));
        self.set_winners(winners, best)
    }

    /// The sink the stream goes to once the window budget trips.
    fn engage(&self, budget: usize) -> Result<Sink<'a>> {
        let mut manager = self.ctx.spill_manager()?;
        Ok(match self.spec.but_only {
            Some(_) => Sink::Spool {
                writer: manager.begin_run()?,
                manager,
                frames: Vec::new(),
            },
            None => Sink::Skyline(ExternalSkyline::with_manager(
                self.preference(),
                budget,
                manager,
            )),
        })
    }

    /// Drain the input, lowering every row once as it arrives, and select.
    /// While the candidates fit the window `budget` (if any) they are
    /// buffered for the in-memory selection; once it trips, rows and cells
    /// stream to the spilling multi-pass BNL — through a spool run first
    /// under `BUT ONLY`, whose optima are final only after the last row.
    fn select<C: Candidate>(&mut self, budget: Option<usize>) -> Result<()> {
        let (spec, ctx) = (self.spec, self.ctx);
        let preference = self.preference();
        let arity = preference.arity();
        // While buffering, the matrix holds one row per buffered
        // candidate; once a sink is engaged, only the current pull's.
        let mut matrix = ScoreMatrix::new(preference);
        // A slot that is a column of the source row is lowered where it
        // lies; only the others are evaluated, into `computed`.
        let columns: Vec<Option<usize>> = (spec.slots.iter())
            .map(|c| match c.expr {
                BoundExpr::Column { depth: 0, ordinal } => Some(ordinal),
                _ => None,
            })
            .collect();
        let mut regs = Regs::default();
        let mut computed = vec![Value::Null; arity];
        let (mut keys, mut scratch) = (Vec::new(), Vec::<C>::new());
        let mut best = vec![None; arity];
        let (mut buffered, mut buffered_bytes) = (Vec::new(), 0);
        let mut sink: Option<Sink<'_>> = None;
        let fetch = self.rid_fetch()?;
        let pull = spec.knobs.batch.unwrap_or(1).max(1);
        loop {
            let pulled = self.input.next_batch(pull)?;
            if pulled.is_end() {
                break;
            }
            if sink.is_some() {
                matrix.clear();
            }
            let first = matrix.len();
            let lowering = Instant::now();
            for row in pulled.rows() {
                let env = Env::new(row, &[]);
                for ((s, c), v) in spec.slots.iter().zip(&columns).zip(&mut computed) {
                    if c.is_none() {
                        *v = s.prog.eval(env, ctx, &mut regs)?;
                    }
                }
                let slots = columns.iter().zip(&computed);
                matrix.push(preference, slots.map(|(c, v)| c.map_or(v, |o| &row[o])));
                for g in &spec.groups {
                    keys.push(g.prog.eval(env, ctx, &mut regs)?);
                }
                if budget.is_some() && sink.is_none() {
                    buffered_bytes += tuple_spill_bytes(row) + CELL_BYTES * arity;
                }
            }
            self.lower += lowering.elapsed();
            C::take(pulled, &mut scratch)?;
            // Only quality functions ever read the optima.
            if !spec.quality.is_empty() {
                matrix.fold_minima(first, &mut best);
            }
            match (&mut sink, budget) {
                (Some(sink), _) => {
                    for (i, candidate) in (first..).zip(scratch.drain(..)) {
                        sink.push(candidate.into_row(fetch)?, matrix.row(i))?;
                    }
                }
                (None, Some(budget)) if buffered_bytes > budget => {
                    // Replay the buffer and this pull (every matrix row),
                    // in order: the window sees the stream it would have.
                    let engaged = sink.insert(self.engage(budget)?);
                    let candidates = buffered.drain(..).chain(scratch.drain(..));
                    for (j, candidate) in candidates.enumerate() {
                        engaged.push(candidate.into_row(fetch)?, matrix.row(j))?;
                    }
                }
                (None, _) => buffered.append(&mut scratch),
            }
            if let Some(Sink::Spool { writer, frames, .. }) = &mut sink {
                if !frames.is_empty() {
                    writer.write_batch(frames)?;
                    frames.clear();
                }
            }
        }

        let (winners, metrics) = match sink {
            None => {
                self.select_in_memory(buffered, &matrix, &keys, &best)?;
                if budget.is_some() {
                    // Everything fit: report that the budget was honored.
                    ctx.note_spill(SpillMetrics::default());
                }
                return Ok(());
            }
            Some(Sink::Skyline(machine)) => machine.finish()?,
            Some(Sink::Spool {
                mut manager,
                writer,
                ..
            }) => {
                // Optima are final now; filter the spooled candidates
                // and feed the survivors through the bounded window.
                let spool = writer.finish()?;
                manager.record_run(&spool);
                let budget = budget.expect("a sink is engaged only under a budget");
                let mut machine = ExternalSkyline::with_manager(preference, budget, manager);
                let mut reader = RunReader::open(&spool)?;
                while let Some(frame) = reader.next_tuple()? {
                    let (row, cells) = split_cells(frame, arity)?;
                    if self.passes_but_only(&row, &cells, &best)? {
                        machine.push(row, &cells)?;
                    }
                }
                drop(reader);
                spool.delete()?;
                let (winners, mut metrics) = machine.finish()?;
                // The spool pass reads the whole candidate set once more.
                metrics.passes += 1;
                (winners, metrics)
            }
        };
        // Spilled candidates travel as rows.
        let winners = winners.into_iter().map(|(_, row, cells)| (row, cells));
        self.set_winners(winners, &best)?;
        ctx.note_spill(metrics);
        Ok(())
    }
}

impl Operator for PreferenceOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        self.lower = Duration::ZERO;
        let budget = self.spec.external_budget();
        let result = self.input.open().and_then(|()| match self.spec.rid_table {
            Some(_) => self.select::<usize>(budget),
            None => self.select::<Tuple>(budget),
        });
        self.input.close();
        // Harvest the dominance tally of this selection — the paper's
        // unit of preference-evaluation cost — and charge the statement.
        self.comparisons = self.spec.compiled.preference.take_comparisons();
        self.ctx.note_dominance_tests(self.comparisons);
        self.selected = self.winners.len() as u64;
        result
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        Ok(Batch::lend(&self.winners, &mut self.pos, max))
    }

    fn close(&mut self) {
        self.input.close();
        self.winners = Vec::new();
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("comparisons", self.comparisons),
            ("lower_us", self.lower.as_micros() as u64),
            ("winners", self.selected),
        ]
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::Engine;
    use crate::physical::build;
    use crate::plan::PlanNode;
    use prefsql_parser::ast::Statement;

    /// The winners are lent from the operator's buffer like any buffered
    /// operator's rows: pulls of 2 over a winner set of 5 end with a
    /// short batch, then the end, and the end is sticky.
    #[test]
    fn winners_are_lent_in_batches() {
        let mut engine = Engine::new();
        engine
            .execute_sql("CREATE TABLE t (id INTEGER, x INTEGER, y INTEGER)")
            .unwrap();
        // Five pairwise-incomparable rows (the winners) plus two
        // dominated ones, so batches of 2 end with a short final batch.
        engine
            .execute_sql(
                "INSERT INTO t VALUES (1, 0, 9), (2, 1, 7), (3, 2, 5), \
                 (4, 3, 3), (5, 4, 1), (6, 5, 9), (7, 9, 9)",
            )
            .unwrap();
        let Statement::Select(query) = prefsql_parser::parse_statement(
            "SELECT id FROM t PREFERRING x AROUND 0 AND y AROUND 0",
        )
        .unwrap() else {
            panic!("expected a SELECT");
        };
        let ctx = engine.read_ctx().unwrap();
        let plan = ctx.plan_for(&query).unwrap();
        let PlanNode::Project { input: node, .. } = plan.root() else {
            panic!("expected Project over Preference, got {:?}", plan.root());
        };
        assert!(matches!(**node, PlanNode::Preference { .. }));
        let mut op = build(&ctx, node, &[]);
        op.open().unwrap();
        let mut ids = Vec::new();
        let mut sizes = Vec::new();
        loop {
            let batch = op.next_batch(2).unwrap();
            if batch.is_end() {
                break;
            }
            sizes.push(batch.len());
            ids.extend(batch.rows().map(|t| t[0].as_int().unwrap()));
        }
        assert!(op.next_batch(2).unwrap().is_end(), "stays exhausted");
        assert_eq!(op.counters()[0].0, "comparisons");
        op.close();
        assert_eq!(sizes, vec![2, 2, 1]);
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 5], "the antichain, nothing else");
    }
}
