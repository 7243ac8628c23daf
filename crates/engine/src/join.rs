//! The join operator: every `JOIN … ON`, `FROM a, b` and cross join —
//! and every correlated `[NOT] EXISTS` conjunct of a WHERE clause — runs
//! one build/probe loop that builds on the *right* input.
//!
//! The planner (`plan::split_on`) binds a join's ON condition once and
//! splits its AND-chain: a conjunct `=` between an operand reading only
//! the left input and one reading only the right is a hash *key* (each
//! side bound against its own input); every other conjunct stays in the
//! *residual*, checked pair by pair. A sub-query anywhere in ON, or the
//! hash-join toggle off, plans no keys at all.
//!
//! [`JoinOp`] drains the right input into a build: its rows bucketed by
//! key. A keyless join keeps every right row in one bucket and evaluates
//! the whole ON as the residual — that *is* the nested-loop join, and the
//! reference the keyed form is diffed against. The build is cached per
//! statement (FROM items are uncorrelated in SQL92), so a join re-opened
//! by a correlated sub-query probes the same build instead of re-scanning
//! its right input. The left input streams through the probe, so the
//! output is left-major, right-minor — every left row meets its bucket's
//! rows in their arrival order — and the keyed and keyless forms emit the
//! same rows in the same order. The one permitted divergence is *error
//! timing*: an ON expression that errors at evaluation may surface the
//! error after a different number of emitted rows.
//!
//! Key equality is SQL equality restricted to the cases where it can
//! hold: rows whose key contains NULL or NaN can never satisfy `=` and
//! are dropped from both sides up front; `-0.0` is normalized to `0.0`
//! (SQL-equal, but distinct under the total order backing
//! [`Value::key_eq`]). After that, [`Value::key_eq`] coincides exactly
//! with `sql_eq == TRUE` — including INT 1 matching FLOAT 1.0, whose
//! shared hash the `prefsql-types` proptests pin.
//!
//! When a keyed build outgrows the session window budget, both inputs
//! are hash-partitioned into [`SpillManager`] runs with a depth-salted
//! hash (`FANOUT` partitions), every spilled tuple tagged with its
//! per-side arrival sequence. A partition pair whose right half still
//! exceeds the window is re-partitioned once with a fresh salt; a pair
//! that is still too big after that (pathological skew — e.g. one hot
//! key) is joined in window-sized right chunks. Each chunk is a build
//! probed exactly like the in-memory one, so partition-pair output is
//! sorted by `(left seq, right seq)` by construction and a k-way merge of
//! the output runs restores the nested-loop order. A Grace build is not
//! cached, and a keyless join never spills. Spill totals are reported
//! through [`ExecCtx::note_spill`] and ride the same `SpillMetrics`
//! surface as the external skyline.
//!
//! # Semi and anti joins
//!
//! `WHERE … [NOT] EXISTS (SELECT … FROM r WHERE p)` with `p` reading the
//! enclosing row is planned (`plan::exists_join`) as a [`JoinKind::Semi`]
//! / [`JoinKind::Anti`] join: the block's source is the left input, the
//! sub-query's FROM — narrowed to the columns the keys and residual read —
//! the right, `p`'s equalities between the two sides the keys and the
//! rest of `p` the residual, evaluated as the sub-query's own predicate
//! (right row innermost, the left row one block out; no combined row).
//! The rewrite's §3.2 `NOT EXISTS` is the keyless anti join, its
//! dominance predicate the residual. Both kinds run the same build and
//! bucket lookup:
//!
//! * **Semi** emits a left row at its first bucket row whose residual is
//!   TRUE; **Anti** emits a left row when none is.
//! * A left row whose key is NULL or NaN has no partner: Anti emits it,
//!   Semi drops it — exactly `=` never being TRUE in the sub-query.
//! * Output is the left rows in their order (a lent left batch is
//!   narrowed with a selection vector, never copied), so the rows and
//!   their order are the per-row `EXISTS` filter's.
//! * **Match-first probing.** Existence does not depend on the order a
//!   bucket is searched in, so each operator keeps the `MATCH_FIRST` (8)
//!   build rows that most recently satisfied the residual and tries
//!   those (of the probed bucket) before walking the bucket in order. A
//!   row dominating one candidate tends to dominate the next: on the
//!   rewrite's `NOT EXISTS` this cuts the rows examined per probe from
//!   51–80 to 14–41. The build and its order stay untouched — the
//!   statement cache shares them — and error timing is, as above, the
//!   one permitted divergence.
//! * A keyed build over the window takes the Grace path with the same
//!   NULL-key rule (an anti join's unkeyed and partner-less left rows are
//!   output as they are); each pair tests its left rows against every
//!   chunk and copies the left run out in order. A keyless build stays
//!   in memory.

use crate::bind::{Bound, BoundExpr};
use crate::eval::{eval, holds, Env};
use crate::exec::ExecCtx;
use crate::physical::{self, Batch, BoxOperator, Operator, RowKey, DEFAULT_BATCH};
use crate::plan::{JoinKind, PlanNode};
use prefsql_storage::spill::{
    tuple_spill_bytes, RunReader, RunWriter, SpillManager, SpillMetrics, SpillRun,
};
use prefsql_types::{Result, Tuple, Value};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How many build rows a semi/anti join remembers as recent partners
/// and tries first ([`Build::exists`]). Measured on the rewrite's `NOT
/// EXISTS` (`jobsearch_rewrite`, 51–80 rows examined per probe without
/// it): 1 → 39–74, 4 → 16–47, 8 → 14–41, 32 → 14–34.
const MATCH_FIRST: usize = 8;

/// Partitions per Grace spill pass. Small enough that a pass keeps one
/// open run writer per partition; two salted passes separate 64 buckets.
const FANOUT: usize = 8;

/// Partitioning depth at which a still-oversized pair stops recursing
/// and is joined in window-sized chunks (initial pass = depth 0, the one
/// permitted re-partition = depth 1).
const MAX_DEPTH: u32 = 2;

// ----------------------------------------------------------- join keys

/// The hash-table key over the evaluated key expressions of one row, or
/// `None` when the row can never match: a NULL key field makes `=`
/// UNKNOWN, a NaN field makes it FALSE (while both would compare equal to
/// themselves under the total order). `-0.0` is folded to `0.0` so
/// SQL-equal floats share a bucket. After this normalization
/// [`RowKey`]'s equality matches SQL `=` exactly. A keyless join's key is
/// the empty one, shared by every row.
fn join_key(mut values: Vec<Value>) -> Option<RowKey> {
    for v in &mut values {
        match v {
            Value::Null => return None,
            Value::Float(f) if f.is_nan() => return None,
            Value::Float(f) if *f == 0.0 => *f = 0.0,
            _ => {}
        }
    }
    Some(RowKey(values))
}

/// The Grace partition a key routes to at `depth`: a fresh salt per
/// depth, so a re-partitioned pair actually redistributes instead of
/// collapsing back into one bucket.
fn partition_of(key: &RowKey, depth: u32) -> usize {
    let mut h = DefaultHasher::new();
    0x9e37_79b9_7f4a_7c15u64
        .wrapping_mul(u64::from(depth) + 1)
        .hash(&mut h);
    key.hash(&mut h);
    (h.finish() as usize) % FANOUT
}

// ------------------------------------------------------- the operator

/// Everything about one join that is fixed at plan time, bundled so the
/// operator's phases and the recursive Grace pair processing do not
/// thread eight parameters.
#[derive(Clone, Copy)]
struct JoinCfg<'a> {
    ctx: &'a ExecCtx<'a>,
    kind: JoinKind,
    /// `(left key, right key)` pairs, each bound against its own side.
    keys: &'a [(Bound, Bound)],
    /// Bound against the combined row (inner), or as the sub-query's
    /// predicate over the right row inside the left one (semi/anti).
    residual: Option<&'a BoundExpr>,
    outer: &'a [&'a Tuple],
    /// The build-side byte budget (`usize::MAX` = never spill).
    window: usize,
}

impl JoinCfg<'_> {
    /// Evaluate one side's key expressions for one row.
    fn key_of(&self, row: &Tuple, left_side: bool) -> Result<Option<RowKey>> {
        let env = Env::new(row, self.outer);
        let mut vals = Vec::with_capacity(self.keys.len());
        for (lk, rk) in self.keys {
            let key = if left_side { lk } else { rk };
            vals.push(eval(&key.expr, env, self.ctx)?);
        }
        Ok(join_key(vals))
    }

    /// Does the residual predicate accept this combined row?
    fn residual_ok(&self, joined: &Tuple) -> Result<bool> {
        match self.residual {
            None => Ok(true),
            Some(p) => holds(p, Env::new(joined, self.outer), self.ctx),
        }
    }
}

/// Right rows hashed by key — the whole in-memory build, or one
/// window-sized Grace chunk. Hashing a chunk, finding a left row's
/// bucket and walking that bucket under the residual are the one
/// build/probe step both paths run.
struct Build {
    rows: Vec<Tuple>,
    /// Key → bucket number.
    index: HashMap<RowKey, usize>,
    /// Row numbers per bucket, in arrival order.
    buckets: Vec<Vec<u32>>,
    /// The largest bucket's size: the most rows one left row can join.
    widest: usize,
}

impl Build {
    /// Hash `rows`; a row whose key can never match lands in no bucket.
    fn new(cfg: &JoinCfg<'_>, rows: Vec<Tuple>) -> Result<Build> {
        let mut index = HashMap::with_capacity(if cfg.keys.is_empty() { 1 } else { rows.len() });
        let mut buckets: Vec<Vec<u32>> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if let Some(key) = cfg.key_of(row, false)? {
                let fresh = buckets.len();
                let b = *index.entry(key).or_insert(fresh);
                if b == fresh {
                    buckets.push(Vec::new());
                }
                buckets[b].push(i as u32);
            }
        }
        let widest = buckets.iter().map(Vec::len).max().unwrap_or(0);
        Ok(Build {
            rows,
            index,
            buckets,
            widest,
        })
    }

    /// The bucket `left` joins, if any.
    fn bucket(&self, cfg: &JoinCfg<'_>, left: &Tuple) -> Result<Option<usize>> {
        if cfg.keys.is_empty() {
            return Ok((!self.buckets.is_empty()).then_some(0));
        }
        Ok(cfg
            .key_of(left, true)?
            .and_then(|key| self.index.get(&key).copied()))
    }

    /// Semi/anti: does `left` have a partner — a row of its bucket the
    /// residual accepts? The rows of that bucket in `recent` (the build
    /// rows that most recently were a partner, most recent first) are
    /// tried first, then the rest of the bucket in order; a partner found
    /// moves to the front of `recent`. Every residual evaluation ticks
    /// `tests`.
    fn exists(
        &self,
        cfg: &JoinCfg<'_>,
        left: &Tuple,
        recent: &mut Vec<(u32, u32)>,
        tests: &Cell<u64>,
    ) -> Result<bool> {
        let Some(bucket) = self.bucket(cfg, left)? else {
            return Ok(false);
        };
        let Some(residual) = cfg.residual else {
            return Ok(true);
        };
        let mut scope = Vec::with_capacity(cfg.outer.len() + 1);
        scope.push(left);
        scope.extend_from_slice(cfg.outer);
        let partner = |i: u32| {
            tests.set(tests.get() + 1);
            holds(residual, Env::new(&self.rows[i as usize], &scope), cfg.ctx)
        };
        let b = bucket as u32;
        for k in 0..recent.len() {
            if recent[k].0 == b && partner(recent[k].1)? {
                recent[..=k].rotate_right(1);
                return Ok(true);
            }
        }
        for &i in &self.buckets[bucket] {
            if !recent.contains(&(b, i)) && partner(i)? {
                recent.insert(0, (b, i));
                recent.truncate(MATCH_FIRST);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Join `left` with the rows of `bucket` from `*pos` on, handing each
    /// pair the residual accepts — with its right row's number — to
    /// `emit`, until the bucket is spent or `emit` returns `false`.
    fn probe(
        &self,
        cfg: &JoinCfg<'_>,
        left: &Tuple,
        bucket: usize,
        pos: &mut usize,
        mut emit: impl FnMut(usize, Tuple) -> Result<bool>,
    ) -> Result<()> {
        let members = &self.buckets[bucket];
        while let Some(&i) = members.get(*pos) {
            *pos += 1;
            let joined = left.join(&self.rows[i as usize]);
            if cfg.residual_ok(&joined)? && !emit(i as usize, joined)? {
                break;
            }
        }
        Ok(())
    }
}

/// The join physical operator. [`Operator::open`] builds on the right
/// input (or takes the statement's cached build);
/// [`Operator::next_batch`] then streams the left input through it.
pub struct JoinOp<'a> {
    cfg: JoinCfg<'a>,
    /// Semi/anti: the most recent partners ([`Build::exists`]).
    recent: Vec<(u32, u32)>,
    /// Semi/anti: the selection-vector scratch a left batch is narrowed
    /// with.
    sel: Vec<usize>,
    left: BoxOperator<'a>,
    /// The right input's plan: run at the statement's first open (at
    /// every open, when its build spills).
    right: &'a PlanNode,
    state: State,
    /// Output scratch of the streaming states, handed to the consumer.
    out: Vec<Tuple>,
    /// Right rows hashed into a build (observability; `Cell` so the
    /// Grace source closures can count while the inputs are borrowed).
    build_rows: Cell<u64>,
    /// Left rows streamed through the probe.
    probe_rows: Cell<u64>,
    /// Input rows written to Grace partition runs (a re-partitioned row
    /// counts again, mirroring the `passes` semantics).
    spilled_rows: Cell<u64>,
    /// Semi/anti: residual evaluations — the build rows examined.
    residual_tests: Cell<u64>,
}

enum State {
    Closed,
    /// Semi/anti in memory: each left batch is narrowed, like a filter's,
    /// to the rows whose existence test passes.
    Filter(Arc<Build>),
    /// Inner in memory: the left input streams through the probe in
    /// batched pulls. `lbuf[..lpos]` has been probed; `bucket` is the one
    /// `lbuf[lpos - 1]` joins, its rows from `pos` on yet to meet.
    Probe {
        build: Arc<Build>,
        lbuf: Vec<Tuple>,
        lpos: usize,
        left_done: bool,
        bucket: Option<usize>,
        pos: usize,
    },
    /// Grace overflow: k-way merge of sorted output runs.
    Grace(GraceOutput),
}

impl<'a> JoinOp<'a> {
    /// Wire up the operator over the streamed left child and the right
    /// input's plan. `window: None` never spills.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ctx: &'a ExecCtx<'a>,
        kind: JoinKind,
        left: BoxOperator<'a>,
        right: &'a PlanNode,
        keys: &'a [(Bound, Bound)],
        residual: Option<&'a BoundExpr>,
        window: Option<usize>,
        outer: &'a [&'a Tuple],
    ) -> Self {
        JoinOp {
            cfg: JoinCfg {
                ctx,
                kind,
                keys,
                residual,
                outer,
                window: window.unwrap_or(usize::MAX),
            },
            recent: Vec::new(),
            sel: Vec::new(),
            left,
            right,
            state: State::Closed,
            out: Vec::new(),
            build_rows: Cell::new(0),
            probe_rows: Cell::new(0),
            spilled_rows: Cell::new(0),
            residual_tests: Cell::new(0),
        }
    }

    /// Drain the right input until it ends (an in-memory build, cached
    /// for the statement under `key`, if any) or overflows the window
    /// (Grace).
    fn build_phase(
        &mut self,
        right: &mut (dyn Operator + '_),
        key: Option<String>,
    ) -> Result<State> {
        let cfg = self.cfg;
        right.open()?;
        let mut rows: Vec<Tuple> = Vec::new();
        let mut bytes = 0usize;
        loop {
            let batch = right.next_batch(DEFAULT_BATCH)?;
            if batch.is_end() {
                break;
            }
            if cfg.window < usize::MAX {
                bytes += batch.rows().map(tuple_spill_bytes).sum::<usize>();
            }
            batch.take_into(&mut rows);
            if bytes > cfg.window {
                // Grace counts the whole right input (these rows
                // included) at its own source, so nothing is charged here.
                return self.grace_phase(right, rows);
            }
        }
        self.build_rows
            .set(self.build_rows.get() + rows.len() as u64);
        let build = Build::new(&cfg, rows)?;
        let build = match key {
            Some(key) => cfg.ctx.cache(key, build),
            None => Arc::new(build),
        };
        Ok(probe_state(cfg.kind, build))
    }

    /// The Grace overflow path: partition both inputs to spill runs,
    /// process partition pairs (recursing once, then chunking), and leave
    /// a k-way merge over the sorted output runs.
    fn grace_phase(
        &mut self,
        right: &mut (dyn Operator + '_),
        collected: Vec<Tuple>,
    ) -> Result<State> {
        let cfg = self.cfg;
        let mut mgr = cfg.ctx.spill_manager()?;
        let mut passes = 1u32;
        let counts = Counts {
            spilled: &self.spilled_rows,
            tests: &self.residual_tests,
        };
        // Sequence numbers count each side's arrival order: the right
        // rows drained so far, then the rest of its operator.
        let (right_runs, _) = {
            let mut src = operator_source(collected, right, &self.build_rows);
            partition_pass(&cfg, &mut mgr, &mut src, false, 0, counts.spilled)?
        };
        let (left_runs, unkeyed) = {
            let mut src = operator_source(Vec::new(), self.left.as_mut(), &self.probe_rows);
            partition_pass(&cfg, &mut mgr, &mut src, true, 0, counts.spilled)?
        };

        // An anti join's left rows with a NULL or NaN key have no
        // partner: they are output as they are.
        let mut out_runs: Vec<SpillRun> = unkeyed.into_iter().collect();
        for (l, r) in left_runs.into_iter().zip(right_runs) {
            process_pair(&cfg, &mut mgr, l, r, 1, &mut out_runs, &mut passes, counts)?;
        }

        cfg.ctx.note_spill(SpillMetrics {
            runs_written: mgr.runs_written(),
            bytes_spilled: mgr.bytes_spilled(),
            passes,
            spill_dir: Some(mgr.dir().to_path_buf()),
        });
        GraceOutput::new(mgr, out_runs, cfg.kind != JoinKind::Inner).map(State::Grace)
    }
}

/// The in-memory probe over `build`, before the first left row.
fn probe_state(kind: JoinKind, build: Arc<Build>) -> State {
    if kind != JoinKind::Inner {
        return State::Filter(build);
    }
    State::Probe {
        build,
        lbuf: Vec::new(),
        lpos: 0,
        left_done: false,
        bucket: None,
        pos: 0,
    }
}

impl Operator for JoinOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.build_rows.set(0);
        self.probe_rows.set(0);
        self.spilled_rows.set(0);
        self.residual_tests.set(0);
        self.recent.clear();
        self.state = State::Closed;
        self.left.open()?;
        // A build depends on the right input and its key expressions
        // only (the right input is planned with no outer scope). Only a
        // join inside a sub-query is re-opened per outer row; one outside
        // every sub-query opens once, so it skips the cache and the key:
        // the right plan's Debug text, tens of kilobytes for the
        // rewrite's `aux` relation.
        let key = (!self.cfg.outer.is_empty()).then(|| {
            let right_keys: Vec<&BoundExpr> = self.cfg.keys.iter().map(|(_, r)| &r.expr).collect();
            format!("join-build:{:?}:{right_keys:?}", self.right)
        });
        let cached = key.as_deref().and_then(|k| self.cfg.ctx.cached::<Build>(k));
        self.state = match cached {
            Some(build) => probe_state(self.cfg.kind, build),
            None => {
                let mut right = physical::build(self.cfg.ctx, self.right, &[]);
                let state = self.build_phase(right.as_mut(), key);
                right.close();
                state?
            }
        };
        Ok(())
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        let cfg = self.cfg;
        if let State::Filter(build) = &self.state {
            // At most one output row per left row: forwarding `max`
            // keeps the quota, and lent left rows stay lent.
            let (recent, probed, tests) =
                (&mut self.recent, &self.probe_rows, &self.residual_tests);
            let keep = cfg.kind == JoinKind::Semi;
            return self.left.next_batch(max)?.retain(&mut self.sel, |left| {
                probed.set(probed.get() + 1);
                Ok(build.exists(&cfg, left, recent, tests)? == keep)
            });
        }
        let out = &mut self.out;
        out.clear();
        match &mut self.state {
            State::Closed | State::Filter(_) => {}
            State::Grace(g) => {
                while out.len() < max {
                    match g.next()? {
                        Some(t) => out.push(t),
                        None => break,
                    }
                }
            }
            State::Probe {
                build,
                lbuf,
                lpos,
                left_done,
                bucket,
                pos,
            } => {
                while out.len() < max {
                    if let Some(b) = *bucket {
                        build.probe(&cfg, &lbuf[*lpos - 1], b, pos, |_, joined| {
                            out.push(joined);
                            Ok(out.len() < max)
                        })?;
                        if *pos == build.buckets[b].len() {
                            *bucket = None;
                        }
                        continue;
                    }
                    if *lpos == lbuf.len() {
                        if *left_done {
                            break;
                        }
                        // One left row joins at most the widest bucket
                        // (every right row, when keyless), so this many
                        // more are needed whatever they hold: the left
                        // input is never asked for a row a
                        // tuple-at-a-time pull would not also have fetched.
                        let need = (max - out.len()).div_ceil(build.widest.max(1));
                        lbuf.clear();
                        *lpos = 0;
                        let batch = self.left.next_batch(need)?;
                        *left_done = batch.is_end();
                        batch.take_into(lbuf);
                        continue;
                    }
                    *bucket = build.bucket(&cfg, &lbuf[*lpos])?;
                    *pos = 0;
                    *lpos += 1;
                    self.probe_rows.set(self.probe_rows.get() + 1);
                }
            }
        }
        // The streaming states fill the quota unless their input ran
        // dry, so an empty scratch is the end.
        if out.is_empty() {
            return Ok(Batch::end());
        }
        Ok(Batch::owned(out))
    }

    fn close(&mut self) {
        self.left.close();
        self.state = State::Closed;
        self.out = Vec::new();
        self.sel = Vec::new();
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("build_rows", self.build_rows.get()),
            ("probe_rows", self.probe_rows.get()),
            ("residual_tests", self.residual_tests.get()),
            ("spilled_rows", self.spilled_rows.get()),
        ]
    }
}

// --------------------------------------------------- spill plumbing

/// Prefix a tuple with its per-side sequence number.
fn tag1(seq: i64, row: &Tuple) -> Tuple {
    let mut vals = Vec::with_capacity(row.len() + 1);
    vals.push(Value::Int(seq));
    vals.extend_from_slice(row.values());
    Tuple::new(vals)
}

/// Split a spilled input tuple back into `(seq, row)`.
fn untag1(t: Tuple) -> (i64, Tuple) {
    let mut vals = t.into_values();
    let rest = vals.split_off(1);
    let seq = match vals[0] {
        Value::Int(s) => s,
        _ => unreachable!("spilled join tuples are seq-tagged"),
    };
    (seq, Tuple::new(rest))
}

/// Prefix a combined output row with both sequence numbers — the merge
/// key that restores global nested-loop order.
fn tag2(lseq: i64, rseq: i64, joined: &Tuple) -> Tuple {
    let mut vals = Vec::with_capacity(joined.len() + 2);
    vals.push(Value::Int(lseq));
    vals.push(Value::Int(rseq));
    vals.extend_from_slice(joined.values());
    Tuple::new(vals)
}

/// Split an output-run tuple into its merge key and payload.
fn untag2(t: Tuple) -> ((i64, i64), Tuple) {
    let mut vals = t.into_values();
    let rest = vals.split_off(2);
    let (l, r) = match (&vals[0], &vals[1]) {
        (Value::Int(l), Value::Int(r)) => (*l, *r),
        _ => unreachable!("output-run tuples are (lseq, rseq)-tagged"),
    };
    ((l, r), Tuple::new(rest))
}

/// A `(seq, row)` source over already-collected rows followed by the
/// remainder of a child operator, pulled in batches. Every yielded row
/// ticks `count` — the side's observed input cardinality.
fn operator_source<'s>(
    collected: Vec<Tuple>,
    op: &'s mut (dyn Operator + 's),
    count: &'s Cell<u64>,
) -> impl FnMut() -> Result<Option<(i64, Tuple)>> + 's {
    let mut buf = collected;
    let mut pos = 0usize;
    let mut done = false;
    let mut seq = -1i64;
    move || loop {
        if pos < buf.len() {
            let t = std::mem::take(&mut buf[pos]);
            pos += 1;
            seq += 1;
            count.set(count.get() + 1);
            return Ok(Some((seq, t)));
        }
        if done {
            return Ok(None);
        }
        buf.clear();
        pos = 0;
        let batch = op.next_batch(DEFAULT_BATCH)?;
        done = batch.is_end();
        batch.take_into(&mut buf);
    }
}

/// The Grace path's tallies, borrowed from the operator.
#[derive(Clone, Copy)]
struct Counts<'c> {
    spilled: &'c Cell<u64>,
    tests: &'c Cell<u64>,
}

/// Append `tuple` to the run `w` writes, starting the run on first use.
fn write_to(mgr: &mut SpillManager, w: &mut Option<RunWriter>, tuple: &Tuple) -> Result<()> {
    if w.is_none() {
        *w = Some(mgr.begin_run()?);
    }
    w.as_mut().expect("writer created above").write_tuple(tuple)
}

/// Finish a run started by [`write_to`], if any.
fn finish(mgr: &mut SpillManager, w: Option<RunWriter>) -> Result<Option<SpillRun>> {
    let Some(w) = w else {
        return Ok(None);
    };
    let run = w.finish()?;
    mgr.record_run(&run);
    Ok(Some(run))
}

/// One Grace partitioning pass over one side: route every row (tagged
/// with its sequence number) to its key's partition run. Partitions that
/// receive no rows get no run (`None`). Rows whose key contains NULL/NaN
/// can never join: they are dropped, except an anti join's left rows,
/// which go to the second, unkeyed run — each is output as it is.
fn partition_pass(
    cfg: &JoinCfg<'_>,
    mgr: &mut SpillManager,
    src: &mut dyn FnMut() -> Result<Option<(i64, Tuple)>>,
    left_side: bool,
    depth: u32,
    spilled: &Cell<u64>,
) -> Result<(Vec<Option<SpillRun>>, Option<SpillRun>)> {
    let mut writers: Vec<Option<RunWriter>> = (0..FANOUT).map(|_| None).collect();
    let mut unkeyed = None;
    let keep_unkeyed = left_side && cfg.kind == JoinKind::Anti;
    while let Some((seq, row)) = src()? {
        let writer = match cfg.key_of(&row, left_side)? {
            Some(key) => &mut writers[partition_of(&key, depth)],
            None if keep_unkeyed => &mut unkeyed,
            None => continue,
        };
        write_to(mgr, writer, &tag1(seq, &row))?;
        spilled.set(spilled.get() + 1);
    }
    let mut runs = Vec::with_capacity(FANOUT);
    for w in writers {
        runs.push(finish(mgr, w)?);
    }
    Ok((runs, finish(mgr, unkeyed)?))
}

/// Join one partition pair. An oversized pair re-partitions once with a
/// fresh salt; everything else — a pair whose right half fits the window,
/// or one still oversized after re-partitioning (skew) — goes to
/// [`pair_chunks`] (inner) or [`pair_filter`] (semi/anti), which read a
/// fitting right half as their one chunk. Every path appends output runs
/// sorted by `(left seq, right seq)` — semi/anti: by left seq — and
/// deletes its input runs when done.
#[allow(clippy::too_many_arguments)]
fn process_pair(
    cfg: &JoinCfg<'_>,
    mgr: &mut SpillManager,
    left: Option<SpillRun>,
    right: Option<SpillRun>,
    depth: u32,
    out_runs: &mut Vec<SpillRun>,
    passes: &mut u32,
    counts: Counts<'_>,
) -> Result<()> {
    let (left, right) = match (left, right) {
        (Some(l), Some(r)) => (l, r),
        // Left rows with no right partition have no partner: an anti
        // join outputs them as they are.
        (Some(run), None) if cfg.kind == JoinKind::Anti => {
            out_runs.push(run);
            return Ok(());
        }
        // Otherwise a one-sided partition produces no output.
        (Some(run), None) | (None, Some(run)) => {
            let _ = run.delete();
            return Ok(());
        }
        (None, None) => return Ok(()),
    };
    let right_bytes = usize::try_from(right.bytes).unwrap_or(usize::MAX);
    if right_bytes > cfg.window && depth < MAX_DEPTH {
        *passes += 1;
        let left_subs = {
            let mut reader = RunReader::open(&left)?;
            let mut src =
                move || -> Result<Option<(i64, Tuple)>> { Ok(reader.next_tuple()?.map(untag1)) };
            partition_pass(cfg, mgr, &mut src, true, depth, counts.spilled)?.0
        };
        let right_subs = {
            let mut reader = RunReader::open(&right)?;
            let mut src =
                move || -> Result<Option<(i64, Tuple)>> { Ok(reader.next_tuple()?.map(untag1)) };
            partition_pass(cfg, mgr, &mut src, false, depth, counts.spilled)?.0
        };
        let _ = left.delete();
        let _ = right.delete();
        for (l, r) in left_subs.into_iter().zip(right_subs) {
            process_pair(cfg, mgr, l, r, depth + 1, out_runs, passes, counts)?;
        }
        return Ok(());
    }
    match cfg.kind {
        JoinKind::Inner => pair_chunks(cfg, mgr, &left, &right, out_runs),
        JoinKind::Semi | JoinKind::Anti => pair_filter(cfg, mgr, &left, &right, out_runs, counts),
    }
    .map(|()| {
        let _ = left.delete();
        let _ = right.delete();
    })
}

/// The next window-sized chunk of a right run — at least one tuple, at
/// most a window's worth — as `(seqs, rows)`; empty once the run is
/// spent.
fn next_chunk(cfg: &JoinCfg<'_>, reader: &mut RunReader) -> Result<(Vec<i64>, Vec<Tuple>)> {
    let (mut seqs, mut rows) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    while bytes <= cfg.window {
        match reader.next_tuple()? {
            Some(t) => {
                bytes += tuple_spill_bytes(&t);
                let (seq, row) = untag1(t);
                seqs.push(seq);
                rows.push(row);
            }
            None => break,
        }
    }
    Ok((seqs, rows))
}

/// Build on the right half in window-sized chunks — one chunk when it
/// fits, several under skew — and stream the left half, in its spilled
/// (= sequence) order, through each chunk's probe. Probing in ascending
/// left sequence against buckets in ascending right sequence makes each
/// chunk's output sorted by `(left seq, right seq)` with no sort — one
/// output run per chunk; the global merge interleaves them correctly.
fn pair_chunks(
    cfg: &JoinCfg<'_>,
    mgr: &mut SpillManager,
    left: &SpillRun,
    right: &SpillRun,
    out_runs: &mut Vec<SpillRun>,
) -> Result<()> {
    let mut right_reader = RunReader::open(right)?;
    loop {
        let (seqs, rows) = next_chunk(cfg, &mut right_reader)?;
        if rows.is_empty() {
            return Ok(());
        }
        let chunk = Build::new(cfg, rows)?;
        let mut reader = RunReader::open(left)?;
        let mut writer: Option<RunWriter> = None;
        while let Some(t) = reader.next_tuple()? {
            let (lseq, lrow) = untag1(t);
            let Some(b) = chunk.bucket(cfg, &lrow)? else {
                continue;
            };
            chunk.probe(cfg, &lrow, b, &mut 0, |i, joined| {
                write_to(mgr, &mut writer, &tag2(lseq, seqs[i], &joined))?;
                Ok(true)
            })?;
        }
        out_runs.extend(finish(mgr, writer)?);
    }
}

/// The semi/anti form of [`pair_chunks`]: each left row of the pair is
/// tested against every chunk of the right half until one has a partner
/// for it, then the left run is copied, in order, keeping the rows that
/// found one (semi) or the rows that did not (anti) — one output run of
/// seq-tagged left rows.
fn pair_filter(
    cfg: &JoinCfg<'_>,
    mgr: &mut SpillManager,
    left: &SpillRun,
    right: &SpillRun,
    out_runs: &mut Vec<SpillRun>,
    counts: Counts<'_>,
) -> Result<()> {
    // Per left-run position: has the row found a partner yet?
    let mut matched: Vec<bool> = Vec::new();
    let mut right_reader = RunReader::open(right)?;
    loop {
        let (_, rows) = next_chunk(cfg, &mut right_reader)?;
        if rows.is_empty() {
            break;
        }
        let chunk = Build::new(cfg, rows)?;
        let mut recent = Vec::new();
        let mut reader = RunReader::open(left)?;
        let mut pos = 0;
        while let Some(t) = reader.next_tuple()? {
            if pos == matched.len() {
                matched.push(false);
            }
            if !matched[pos] {
                matched[pos] = chunk.exists(cfg, &untag1(t).1, &mut recent, counts.tests)?;
            }
            pos += 1;
        }
    }
    let keep = cfg.kind == JoinKind::Semi;
    let mut reader = RunReader::open(left)?;
    let mut writer = None;
    let mut pos = 0;
    while let Some(t) = reader.next_tuple()? {
        if matched.get(pos).copied().unwrap_or(false) == keep {
            write_to(mgr, &mut writer, &t)?;
        }
        pos += 1;
    }
    out_runs.extend(finish(mgr, writer)?);
    Ok(())
}

/// Streaming k-way merge over the sorted output runs, by `(left seq,
/// right seq)`. Every joined pair lands in exactly one run (its key
/// routes both rows to one partition pair; within a pair, one chunk),
/// so a linear min-scan over the — few dozen at most — run heads
/// restores the exact nested-loop order. A semi/anti join's runs hold
/// seq-tagged left rows, each in exactly one run, merged by left seq.
struct GraceOutput {
    /// Keeps the spill directory (and the output runs) alive until the
    /// operator is closed.
    _mgr: SpillManager,
    /// One lookahead head per non-exhausted run: merge key, payload,
    /// reader.
    heads: Vec<((i64, i64), Tuple, RunReader)>,
    /// Splits a run tuple into merge key and payload.
    untag: fn(Tuple) -> ((i64, i64), Tuple),
}

impl GraceOutput {
    /// Merge `runs`: `(left seq, right seq)`-tagged pairs, or — `left_rows`
    /// — seq-tagged left rows.
    fn new(mgr: SpillManager, runs: Vec<SpillRun>, left_rows: bool) -> Result<GraceOutput> {
        let untag: fn(Tuple) -> ((i64, i64), Tuple) = if left_rows {
            |t| {
                let (seq, row) = untag1(t);
                ((seq, 0), row)
            }
        } else {
            untag2
        };
        let mut heads = Vec::with_capacity(runs.len());
        for run in &runs {
            let mut reader = RunReader::open(run)?;
            if let Some(t) = reader.next_tuple()? {
                let (key, payload) = untag(t);
                heads.push((key, payload, reader));
            }
        }
        Ok(GraceOutput {
            _mgr: mgr,
            heads,
            untag,
        })
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        let mut best: Option<usize> = None;
        for (i, (key, _, _)) in self.heads.iter().enumerate() {
            if best.map_or(true, |b| *key < self.heads[b].0) {
                best = Some(i);
            }
        }
        let Some(i) = best else {
            return Ok(None);
        };
        let out = std::mem::take(&mut self.heads[i].1);
        match self.heads[i].2.next_tuple()? {
            Some(t) => {
                let (key, payload) = (self.untag)(t);
                self.heads[i].0 = key;
                self.heads[i].1 = payload;
            }
            None => {
                self.heads.swap_remove(i);
            }
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    //! The bound key split the planner runs for this operator, and the
    //! operator's key normalization and partitioning.
    use super::*;
    use crate::exec::Engine;
    use crate::plan::split_on;
    use prefsql_parser::parse_expression;
    use prefsql_types::{Column, DataType, Schema};

    fn schema(qual: &str, cols: &[&str]) -> Schema {
        Schema::new(
            cols.iter()
                .map(|c| Column::new(*c, DataType::Int))
                .collect::<Vec<_>>(),
        )
        .unwrap()
        .with_qualifier(qual)
    }

    /// Split `on` between `left` and `right` inside the scopes `outer`:
    /// the keys as `l = r` and the residual, as EXPLAIN shows them.
    fn split(
        on: &str,
        left: &Schema,
        right: &Schema,
        outer: &[&Schema],
    ) -> Result<(Vec<String>, Option<String>)> {
        let engine = Engine::new();
        let ctx = engine.read_ctx()?;
        let (keys, residual) = split_on(&ctx, &parse_expression(on)?, left, right, outer)?;
        Ok((
            keys.iter().map(|(l, r)| format!("{l} = {r}")).collect(),
            residual.map(|r| r.to_string()),
        ))
    }

    #[test]
    fn extracts_simple_equi_key() {
        let (l, r) = (schema("a", &["x", "z"]), schema("b", &["y", "w"]));
        let (keys, residual) = split("a.x = b.y", &l, &r, &[]).unwrap();
        assert_eq!(keys, ["a.x = b.y"]);
        assert_eq!(residual, None);
    }

    #[test]
    fn reversed_sides_normalize_to_left_right() {
        let (l, r) = (schema("a", &["x"]), schema("b", &["y"]));
        let (keys, _) = split("b.y = a.x", &l, &r, &[]).unwrap();
        assert_eq!(keys, ["a.x = b.y"]);
        // Expression keys are bound against their own input too.
        let (keys, _) = split("b.y = a.x + 1", &l, &r, &[]).unwrap();
        assert_eq!(keys, ["(a.x + 1) = b.y"]);
    }

    #[test]
    fn mixed_condition_keeps_non_equi_as_residual() {
        let (l, r) = (schema("a", &["x", "z"]), schema("b", &["y", "w"]));
        let on = "a.z > b.w AND a.x = b.y AND a.z < 9";
        let (keys, residual) = split(on, &l, &r, &[]).unwrap();
        assert_eq!(keys, ["a.x = b.y"]);
        // The other conjuncts, in their original order.
        assert_eq!(residual.as_deref(), Some("((a.z > b.w) AND (a.z < 9))"));
    }

    #[test]
    fn pure_non_equi_condition_bails() {
        // No key: the whole condition is the residual — the nested loop.
        let (l, r) = (schema("a", &["x"]), schema("b", &["y"]));
        let (keys, residual) = split("a.x > b.y", &l, &r, &[]).unwrap();
        assert!(keys.is_empty());
        assert_eq!(residual.as_deref(), Some("(a.x > b.y)"));
    }

    #[test]
    fn same_side_equality_is_residual_not_key() {
        // a.x = a.z is a filter, not a join key; alone it carries none.
        let (l, r) = (schema("a", &["x", "z"]), schema("b", &["y"]));
        let (keys, _) = split("a.x = a.z", &l, &r, &[]).unwrap();
        assert!(keys.is_empty());
        let (keys, residual) = split("a.x = a.z AND a.x = b.y", &l, &r, &[]).unwrap();
        assert_eq!(keys, ["a.x = b.y"]);
        assert_eq!(residual.as_deref(), Some("(a.x = a.z)"));
    }

    #[test]
    fn unresolvable_column_bails_entirely() {
        // o.k resolves against neither input nor any scope: the binder's
        // error, whatever the split would have done.
        let (l, r) = (schema("a", &["x"]), schema("b", &["y"]));
        let on = "a.x = b.y AND o.k = a.x";
        let err = split(on, &l, &r, &[]).unwrap_err();
        assert!(err.to_string().contains("unknown column 'o.k'"), "{err}");
        // Inside a block that has it, the correlated conjunct is residual
        // — never a key, so the build stays uncorrelated — and the join
        // keeps its key.
        let scope = schema("o", &["k"]);
        let (keys, residual) = split(on, &l, &r, &[&scope]).unwrap();
        assert_eq!(keys, ["a.x = b.y"]);
        assert_eq!(residual.as_deref(), Some("(o.k = a.x)"));
    }

    #[test]
    fn subquery_in_condition_bails_entirely() {
        let (l, r) = (schema("a", &["x"]), schema("b", &["y"]));
        let (keys, residual) = split("a.x = b.y AND EXISTS (SELECT 1)", &l, &r, &[]).unwrap();
        assert!(keys.is_empty());
        let residual = residual.expect("the whole condition");
        assert!(
            residual.starts_with("((a.x = b.y) AND EXISTS"),
            "{residual}"
        );
    }

    #[test]
    fn ambiguous_column_bails_entirely() {
        // Both sides expose x under the same qualifier: the binder's
        // ambiguity error, exactly as with no split.
        let (l, r) = (schema("t", &["x"]), schema("t", &["x"]));
        let err = split("x = x", &l, &r, &[]).unwrap_err();
        assert!(
            err.to_string().contains("ambiguous column reference 'x'"),
            "{err}"
        );
    }

    #[test]
    fn join_key_normalizes_sql_equality() {
        // INT and FLOAT of equal value collide.
        let a = join_key(vec![Value::Int(1)]).unwrap();
        let b = join_key(vec![Value::Float(1.0)]).unwrap();
        assert_eq!(a, b);
        // -0.0 and 0.0 are SQL-equal and must share a key.
        let n = join_key(vec![Value::Float(-0.0)]).unwrap();
        let z = join_key(vec![Value::Int(0)]).unwrap();
        assert_eq!(n, z);
        // NULL and NaN keys can never satisfy `=`.
        assert!(join_key(vec![Value::Null]).is_none());
        assert!(join_key(vec![Value::Float(f64::NAN)]).is_none());
    }

    #[test]
    fn depth_salts_redistribute_partitions() {
        // Keys that collide at one depth must not all collide at the
        // next (otherwise re-partitioning a skewed pair is a no-op).
        let keys: Vec<RowKey> = (0..64)
            .map(|i| join_key(vec![Value::Int(i)]).unwrap())
            .collect();
        let moved = keys
            .iter()
            .filter(|k| partition_of(k, 0) != partition_of(k, 1))
            .count();
        assert!(moved > 0, "depth salt must move at least some keys");
    }
}
