//! The Best-Matches-Only physical operator — the "generalized skyline
//! operator in the kernel of an SQL-system" the paper's outlook points at
//! (§3.3).
//!
//! [`PlanNode::Preference`](crate::plan::PlanNode::Preference) is planned
//! by [`crate::plan::plan_preference`], built here (only) through
//! [`crate::physical::build`], and rendered by [`crate::explain`] like
//! every other node. The operator is a pipeline breaker: it drains its
//! input (source rows extended with one *slot* column per base
//! preference plus the `GROUPING` columns), applies the `BUT ONLY`
//! threshold, runs the maximal-set selection of `prefsql-pref` — the
//! perfect-match pre-pass and the window, over the whole candidate set or
//! once per `GROUPING` partition, driven as [`SkylineAlgo`] says — and
//! streams the winners, each extended with the quality-function columns
//! ([`QualityCol`]) the plan above it references. The slot columns are
//! lowered once, straight from each row, into a [`ScoreMatrix`]; the
//! dominance tests, the `LOWEST`/`HIGHEST` optima and the quality values
//! are all read off its cells. Semantics are identical to the rewrite path; the
//! `rewrite_vs_native` differential suite and ablation A1 depend on that.

use crate::bind::BoundExpr;
use crate::eval::{holds, Env};
use crate::exec::ExecCtx;
use crate::knobs::NativeOptions;
use crate::physical::{drain_batched, Batch, BoxOperator, Operator};
use prefsql_pref::external::ExternalSkyline;
use prefsql_pref::score::{is_null_cell, score_of};
use prefsql_pref::{
    bmo_grouped_scored, maximal_scored, BasePref, Preference, ScoreMatrix, SkylineAlgo,
};
use prefsql_rewrite::levels::GEN_PREFIX;
use prefsql_rewrite::CompiledPreference;
use prefsql_storage::spill::{tuple_spill_bytes, RunReader, RunWriter, SpillManager, SpillMetrics};
use prefsql_types::{Column, DataType, Result, Schema, Tuple, Value};

/// Everything the preference operator needs, fixed at plan time.
#[derive(Debug, Clone)]
pub struct PrefSpec {
    /// The compiled preference; `base_exprs[i]` feeds input slot `i`.
    pub compiled: CompiledPreference,
    /// `BUT ONLY` threshold with quality calls lowered to column
    /// references into [`PrefSpec::quality`], bound against two frames:
    /// the candidate's quality values (depth 0), then its extended input
    /// row (depth 1).
    pub but_only: Option<BoundExpr>,
    /// The quality-function columns appended to every winner.
    pub quality: Vec<QualityCol>,
    /// Number of `GROUPING` columns following the slots in the input.
    pub n_groups: usize,
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
        match (self.n_groups, self.knobs.algo) {
            (0, SkylineAlgo::Auto) => self.knobs.window_bytes,
            _ => None,
        }
    }

    /// Rows requested from the input per pull.
    fn pull_size(&self) -> usize {
        self.knobs.batch.unwrap_or(1).max(1)
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
    /// Columns of the original relation (before the appended slots).
    n_orig: usize,
    winners: Vec<Tuple>,
    pos: usize,
    /// Dominance comparisons of the last [`Operator::open`].
    comparisons: u64,
}

impl<'a> PreferenceOp<'a> {
    /// Wrap `input`, whose tuples (described by `schema`) carry the slot
    /// and grouping columns appended to the original row.
    pub(crate) fn new(
        input: BoxOperator<'a>,
        ctx: &'a ExecCtx<'a>,
        schema: &Schema,
        spec: &'a PrefSpec,
    ) -> Self {
        let arity = spec.compiled.preference.arity();
        PreferenceOp {
            input,
            ctx,
            spec,
            n_orig: schema.len() - arity - spec.n_groups,
            winners: Vec::new(),
            pos: 0,
            comparisons: 0,
        }
    }

    fn preference(&self) -> &'a Preference {
        &self.spec.compiled.preference
    }

    /// The slot values of one extended row.
    fn slots<'r>(&self, row: &'r Tuple) -> &'r [Value] {
        &row.values()[self.n_orig..self.n_orig + self.preference().arity()]
    }

    /// The quality-column values of a row whose lowered slots are `cells`.
    fn quality_values(&self, cells: &[f64], best: &[Option<f64>]) -> Vec<Value> {
        let quality = self.spec.quality.iter();
        quality
            .map(|q| q.value(self.preference(), cells, best))
            .collect()
    }

    /// `BUT ONLY` filter for one extended row (§2.2.5), evaluated with
    /// the final data-dependent optima.
    fn passes_but_only(&self, row: &Tuple, cells: &[f64], best: &[Option<f64>]) -> Result<bool> {
        let Some(threshold) = &self.spec.but_only else {
            return Ok(true);
        };
        let quality = Tuple::new(self.quality_values(cells, best));
        holds(threshold, Env::new(&quality, &[row]), self.ctx)
    }

    /// Buffer the winners, each extended with its quality columns;
    /// `cells(i)` are the lowered slots of the `i`-th winner.
    fn set_winners<'c>(
        &mut self,
        winners: impl Iterator<Item = Tuple>,
        cells: impl Fn(usize) -> &'c [f64],
        best: &[Option<f64>],
    ) {
        self.winners = if self.spec.quality.is_empty() {
            winners.collect()
        } else {
            winners
                .enumerate()
                .map(|(i, row)| {
                    let mut values = row.into_values();
                    values.extend(self.quality_values(cells(i), best));
                    Tuple::new(values)
                })
                .collect()
        };
    }

    /// The in-memory selection shared by the materializing path and the
    /// under-budget streaming path: lower the slot columns once, read the
    /// data-dependent optima off the matrix, apply `BUT ONLY`, run the
    /// maximal-set selection over the surviving row ids, buffer winners.
    fn select_in_memory(&mut self, rows: Vec<Tuple>) -> Result<()> {
        let preference = self.preference();
        let matrix = ScoreMatrix::lower(preference, rows.iter().map(|r| self.slots(r)));
        let mut best = vec![None; preference.arity()];
        // Only quality functions ever read the optima.
        if !self.spec.quality.is_empty() {
            matrix.fold_minima(&mut best);
        }

        // BUT ONLY filters candidates before dominance (§2.2.5).
        let mut candidates = matrix.ids();
        if self.spec.but_only.is_some() {
            let mut kept = Vec::new();
            for i in candidates {
                if self.passes_but_only(&rows[i], matrix.row(i), &best)? {
                    kept.push(i);
                }
            }
            candidates = kept;
        }

        let NativeOptions { algo, threads, .. } = self.spec.knobs;
        let winner_ids: Vec<usize> = if self.spec.n_groups > 0 {
            let first_key = self.n_orig + preference.arity();
            let key_of = |i: usize| &rows[i].values()[first_key..];
            bmo_grouped_scored(&matrix, &candidates, key_of, algo, threads)
        } else {
            maximal_scored(&matrix, &candidates, algo, threads)
        };
        let mut rows = rows.into_iter().map(Some).collect::<Vec<_>>();
        let winners = winner_ids
            .iter()
            .map(|&i| rows[i].take().expect("winner indices are unique"));
        self.set_winners(winners, |w| matrix.row(winner_ids[w]), &best);
        Ok(())
    }

    /// The external-memory path: pull input through the batch API,
    /// buffering until the window budget trips, then hand the stream to
    /// the bounded-window multi-pass BNL (spilling overflow runs to
    /// disk). Queries with a `BUT ONLY` threshold first spool the input
    /// to a run — the threshold's quality functions need the
    /// data-dependent optima, which are only final after the last input
    /// row — and feed the skyline from the spool on a second pass.
    fn open_external(&mut self, budget: usize) -> Result<()> {
        let preference = self.preference();
        let n_orig = self.n_orig;
        // Quality functions need the optima over the whole input, which
        // never sits in one matrix here: rows are lowered batch by batch
        // (and winners once more at the end) through this scratch matrix.
        let wants_quality = !self.spec.quality.is_empty();
        let mut scored = ScoreMatrix::new(preference);
        let mut best: Vec<Option<f64>> = vec![None; preference.arity()];
        let mut buffered: Vec<Tuple> = Vec::new();
        let mut buffered_bytes = 0usize;

        // Pull phase. `sink` engages once the budget trips: the skyline
        // machine directly, or a spool run when BUT ONLY must wait for
        // the optima.
        enum Sink<'p> {
            Skyline(ExternalSkyline<'p>),
            Spool {
                manager: SpillManager,
                writer: RunWriter,
            },
        }
        let mut sink: Option<Sink<'_>> = None;

        let mut scratch: Vec<Tuple> = Vec::new();
        loop {
            let pulled = self.input.next_batch(self.spec.pull_size())?;
            if pulled.is_end() {
                break;
            }
            pulled.take_into(&mut scratch);
            if wants_quality {
                scored.clear();
                for row in &scratch {
                    scored.push(self.slots(row));
                }
                scored.fold_minima(&mut best);
            }
            let mut rows = scratch.drain(..);
            // Buffering phase: accumulate until the budget trips, then
            // replay the buffer into the engaged sink.
            if sink.is_none() {
                for row in rows.by_ref() {
                    buffered_bytes += tuple_spill_bytes(&row);
                    buffered.push(row);
                    if buffered_bytes > budget {
                        if self.spec.but_only.is_some() {
                            let mut manager = self.ctx.spill_manager()?;
                            let mut writer = manager.begin_run()?;
                            writer.write_batch(&buffered)?;
                            buffered = Vec::new();
                            sink = Some(Sink::Spool { manager, writer });
                        } else {
                            let mut machine = ExternalSkyline::with_manager(
                                preference,
                                n_orig,
                                budget,
                                self.ctx.spill_manager()?,
                            );
                            machine.push_batch(buffered.drain(..))?;
                            sink = Some(Sink::Skyline(machine));
                        }
                        break;
                    }
                }
            }
            // Streaming phase: the rest of the batch goes to the sink
            // whole — the spool writes one frame per pulled batch, not
            // one per tuple.
            match &mut sink {
                Some(Sink::Skyline(machine)) => machine.push_batch(rows)?,
                Some(Sink::Spool { writer, .. }) => {
                    let rest: Vec<Tuple> = rows.collect();
                    writer.write_batch(&rest)?;
                }
                None => debug_assert_eq!(rows.count(), 0, "unbuffered rows without a sink"),
            }
        }

        let (winners, metrics) = match sink {
            None => {
                // The whole candidate set fits the budget: stay in
                // memory (and report that the budget was honored).
                self.select_in_memory(buffered)?;
                self.ctx.note_spill(SpillMetrics::default());
                return Ok(());
            }
            Some(Sink::Skyline(machine)) => machine.finish()?,
            Some(Sink::Spool {
                mut manager,
                writer,
            }) => {
                // Optima are final now; filter the spooled candidates
                // and feed the survivors through the bounded window.
                let spool = writer.finish()?;
                manager.record_run(&spool);
                let mut machine =
                    ExternalSkyline::with_manager(preference, n_orig, budget, manager);
                let mut reader = RunReader::open(&spool)?;
                while let Some(row) = reader.next_tuple()? {
                    scored.clear();
                    scored.push(self.slots(&row));
                    if self.passes_but_only(&row, scored.row(0), &best)? {
                        machine.push(row)?;
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
        scored.clear();
        if wants_quality {
            for (_, row) in &winners {
                scored.push(self.slots(row));
            }
        }
        let winners = winners.into_iter().map(|(_, row)| row);
        self.set_winners(winners, |i| scored.row(i), &best);
        self.ctx.note_spill(metrics);
        Ok(())
    }
}

impl Operator for PreferenceOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        let result = match self.spec.external_budget() {
            Some(budget) => {
                let result = self.input.open().and_then(|()| self.open_external(budget));
                self.input.close();
                result
            }
            None => drain_batched(self.input.as_mut(), self.spec.pull_size())
                .and_then(|rows| self.select_in_memory(rows)),
        };
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
