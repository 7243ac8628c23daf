//! The Best-Matches-Only physical operator — the "generalized skyline
//! operator in the kernel of an SQL-system" the paper's outlook points at
//! (§3.3).
//!
//! [`PlanNode::Preference`](crate::plan::PlanNode::Preference) is planned
//! by [`crate::plan::plan_preference`], built here (only) through
//! [`crate::physical::build`], and rendered by [`crate::explain`] like
//! every other node. The operator is a pipeline breaker: it drains the
//! FROM/WHERE source, representing each row once as it arrives —
//! [`eval_row`] evaluates its bound base-preference expressions and one
//! [`ScoreMatrix`] lowers them to cells — applies the `BUT ONLY`
//! threshold, runs the maximal-set selection of `prefsql-pref` (over the
//! whole candidate set or once per `GROUPING` partition, driven as
//! [`SkylineAlgo`] says) and streams the winners, each extended with the
//! quality-function columns ([`QualityCol`]) the plan above references.
//! Dominance tests, optima and quality values all read the cells, which
//! travel with their rows through [`ExternalSkyline`] and the `BUT ONLY`
//! spool. Semantics are identical to the rewrite path; the
//! `rewrite_vs_native` differential suite and ablation A1 depend on that.

use crate::bind::BoundExpr;
use crate::eval::{eval_row, holds, Env};
use crate::exec::ExecCtx;
use crate::knobs::NativeOptions;
use crate::physical::{Batch, BoxOperator, Operator};
use prefsql_pref::external::{split_cells, with_cells, ExternalSkyline, CELL_BYTES};
use prefsql_pref::score::{is_null_cell, score_of};
use prefsql_pref::{
    bmo_grouped_scored, maximal_scored, BasePref, Preference, ScoreMatrix, SkylineAlgo,
};
use prefsql_rewrite::levels::GEN_PREFIX;
use prefsql_rewrite::CompiledPreference;
use prefsql_storage::spill::{tuple_spill_bytes, RunReader, RunWriter, SpillManager, SpillMetrics};
use prefsql_types::{Column, DataType, Result, Tuple, Value};

/// Everything the preference operator needs, fixed at plan time.
#[derive(Debug, Clone)]
pub struct PrefSpec {
    /// The compiled preference.
    pub compiled: CompiledPreference,
    /// `compiled.base_exprs` bound against the source.
    pub slots: Vec<BoundExpr>,
    /// The `GROUPING` expressions, bound against the source.
    pub groups: Vec<BoundExpr>,
    /// `BUT ONLY` threshold with quality calls lowered to column
    /// references into [`PrefSpec::quality`], bound against two frames:
    /// the candidate's quality values (depth 0), then its source row
    /// (depth 1).
    pub but_only: Option<BoundExpr>,
    /// The quality-function columns appended to every winner.
    pub quality: Vec<QualityCol>,
    /// The session knobs — algorithm, degree ceiling, drive batch and
    /// window budget — taken from the statement context at plan time.
    pub knobs: NativeOptions,
    /// A materialized preference view on the base table that could not
    /// serve this query, and why (`"miss"` / `"stale"`) — EXPLAIN only.
    pub view: Option<(String, &'static str)>,
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

/// One quality-function column: `func(slot's attribute)` per §2.2.3.
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

    /// The function's value for a row whose lowered slots are `cells`;
    /// `best` holds the data-dependent optimum of each slot
    /// (`LOWEST`/`HIGHEST` only).
    fn value(&self, pref: &Preference, cells: &[f64], best: &[Option<f64>]) -> Value {
        let (cell, best) = (cells[self.slot], best[self.slot]);
        // SQL semantics, as on the rewrite path (whose level columns are
        // NULL-guarded): the quality of an unknown value is unknown.
        if is_null_cell(cell) {
            return Value::Null;
        }
        let base = &pref.bases()[self.slot];
        let relative = matches!(base, BasePref::Lowest | BasePref::Highest);
        let numeric = matches!(base, BasePref::Around { .. } | BasePref::Between { .. });
        match self.func.as_str() {
            "level" => pref
                .level_of(self.slot, cell)
                .map_or(Value::Null, Value::Int),
            "distance" => match (score_of(cell), best) {
                (Some(s), Some(b)) if relative => float_or_int(s - b),
                (Some(s), _) if !relative => float_or_int(s),
                _ => Value::Null,
            },
            _ if relative => {
                Value::Bool(matches!((score_of(cell), best), (Some(s), Some(b)) if s == b))
            }
            _ if numeric => Value::Bool(score_of(cell) == Some(0.0)),
            _ => Value::Bool(pref.level_of(self.slot, cell) == Some(1)),
        }
    }
}

/// Distances are conceptually numeric; keep integers integral for display
/// parity with the rewrite path.
fn float_or_int(f: f64) -> Value {
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        Value::Int(f as i64)
    } else {
        Value::Float(f)
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
        }
    }

    fn preference(&self) -> &'a Preference {
        &self.spec.compiled.preference
    }

    /// The quality-column values of a row whose lowered slots are `cells`.
    fn quality_values(&self, cells: &[f64], best: &[Option<f64>]) -> Vec<Value> {
        let value = |q: &QualityCol| q.value(self.preference(), cells, best);
        self.spec.quality.iter().map(value).collect()
    }

    /// `BUT ONLY` filter for one source row (§2.2.5), evaluated with the
    /// final data-dependent optima.
    fn passes_but_only(&self, row: &Tuple, cells: &[f64], best: &[Option<f64>]) -> Result<bool> {
        let Some(threshold) = &self.spec.but_only else {
            return Ok(true);
        };
        let quality = Tuple::new(self.quality_values(cells, best));
        holds(threshold, Env::new(&quality, &[row]), self.ctx)
    }

    /// Buffer the winners, extended with the quality their cells give.
    fn set_winners<C: AsRef<[f64]>>(
        &mut self,
        winners: impl Iterator<Item = (Tuple, C)>,
        best: &[Option<f64>],
    ) {
        let winners = winners.map(|(row, cells)| {
            if self.spec.quality.is_empty() {
                return row;
            }
            let mut values = row.into_values();
            values.extend(self.quality_values(cells.as_ref(), best));
            Tuple::new(values)
        });
        self.winners = winners.collect();
    }

    /// The in-memory selection over `rows`, row `i` lowered to `matrix`
    /// row `i` and keyed by the `i`-th stride of `keys`: apply `BUT ONLY`,
    /// select the maximal surviving rows, buffer them.
    fn select_in_memory(
        &mut self,
        rows: Vec<Tuple>,
        matrix: &ScoreMatrix,
        keys: &[Value],
        best: &[Option<f64>],
    ) -> Result<()> {
        let preference = self.preference();
        // BUT ONLY filters candidates before dominance (§2.2.5).
        let mut candidates = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if self.passes_but_only(row, matrix.row(i), best)? {
                candidates.push(i);
            }
        }

        let NativeOptions { algo, threads, .. } = self.spec.knobs;
        let stride = self.spec.groups.len();
        let winner_ids: Vec<usize> = if stride > 0 {
            let key_of = |i: usize| &keys[i * stride..(i + 1) * stride];
            bmo_grouped_scored(matrix, preference, &candidates, key_of, algo, threads)
        } else {
            maximal_scored(matrix, preference, &candidates, algo, threads)
        };
        // Both selections return ascending ids: one merge pass.
        let mut next = winner_ids.iter().peekable();
        let winners = (rows.into_iter().zip(0..))
            .filter_map(|(row, i)| next.next_if_eq(&&i).map(|_| (row, matrix.row(i))));
        self.set_winners(winners, best);
        Ok(())
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
    fn select(&mut self, budget: Option<usize>) -> Result<()> {
        let (spec, ctx) = (self.spec, self.ctx);
        let preference = self.preference();
        let arity = preference.arity();
        // While buffering, the matrix holds one row per buffered row;
        // once a sink is engaged, only the current pull's rows.
        let mut matrix = ScoreMatrix::new(preference);
        let (mut keys, mut slots, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        let mut best = vec![None; arity];
        let (mut buffered, mut buffered_bytes) = (Vec::new(), 0);
        let mut sink: Option<Sink<'_>> = None;
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
            for row in pulled.rows() {
                let env = Env::new(row, &[]);
                slots.clear();
                eval_row(&spec.slots, env, ctx, &mut slots)?;
                matrix.push(preference, &slots);
                eval_row(&spec.groups, env, ctx, &mut keys)?;
            }
            pulled.take_into(&mut scratch);
            // Only quality functions ever read the optima.
            if !spec.quality.is_empty() {
                matrix.fold_minima(first, &mut best);
            }
            for (i, row) in (first..).zip(scratch.drain(..)) {
                match (&mut sink, budget) {
                    (Some(sink), _) => sink.push(row, matrix.row(i))?,
                    (None, None) => buffered.push(row),
                    (None, Some(budget)) => {
                        buffered_bytes += tuple_spill_bytes(&row) + CELL_BYTES * arity;
                        buffered.push(row);
                        if buffered_bytes > budget {
                            // Replay the buffer (matrix rows 0..=i).
                            let engaged = sink.insert(self.engage(budget)?);
                            for (j, row) in buffered.drain(..).enumerate() {
                                engaged.push(row, matrix.row(j))?;
                            }
                        }
                    }
                }
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
        let winners = winners.into_iter().map(|(_, row, cells)| (row, cells));
        self.set_winners(winners, &best);
        ctx.note_spill(metrics);
        Ok(())
    }
}

impl Operator for PreferenceOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let budget = self.spec.external_budget();
        let result = self.input.open().and_then(|()| self.select(budget));
        self.input.close();
        // Harvest the dominance tally of this selection — the paper's
        // unit of preference-evaluation cost — and charge the statement.
        self.comparisons = self.spec.compiled.preference.take_comparisons();
        self.ctx.note_dominance_tests(self.comparisons);
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
        vec![("comparisons", self.comparisons)]
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::Engine;
    use crate::physical::build;
    use crate::plan::{plan_preference, PlanNode};
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
        let pref = query.preferring.as_ref().unwrap();
        let plan = plan_preference(&ctx, &query, pref).unwrap();
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
