//! The hash equi-join: the spill-aware Grace-hash physical operator.
//!
//! The planner's [`split_equi_join`](crate::plan::split_equi_join)
//! inspects a join's ON condition and pulls out the `left-col =
//! right-col` conjuncts a hash join can key on, leaving every other
//! conjunct as a *residual* predicate re-checked after the probe;
//! anything it cannot fully classify — non-equi-only conditions,
//! sub-queries (possibly correlated), columns that do not resolve against
//! the join inputs — keeps the nested-loop join, so evaluation semantics
//! never change behind the optimizer's back. Keys and residual arrive
//! here bound, so the operator evaluates by ordinal.
//!
//! [`HashJoinOp`] executes the plan node. Its output contract is strict:
//! **rows and order are byte-identical to the nested-loop join it
//! replaces** (left-major, right-minor — every left row meets the right
//! rows in their materialization order). The in-memory build=right path
//! gets this for free by streaming the left side; the build=left path
//! buckets matches per left row and emits the buckets in left order; the
//! Grace overflow path tags every spilled tuple with its per-side arrival
//! sequence, keeps partition-pair output sorted by `(left seq, right
//! seq)` by construction, and k-way-merges the sorted output runs. The
//! one permitted divergence is *error timing*: an ON expression that
//! errors at evaluation may surface the error after a different number
//! of emitted rows than the nested loop would.
//!
//! Key equality is SQL equality restricted to the cases where it can
//! hold: rows whose key contains NULL or NaN can never satisfy `=` and
//! are dropped from both sides up front; `-0.0` is normalized to `0.0`
//! (SQL-equal, but distinct under the total order backing
//! [`Value::key_eq`]). After that, [`Value::key_eq`] coincides exactly
//! with `sql_eq == TRUE` — including INT 1 matching FLOAT 1.0, whose
//! shared hash the `prefsql-types` proptests pin.
//!
//! When the build side outgrows the session window budget, both inputs
//! are hash-partitioned into [`SpillManager`] runs with a depth-salted
//! hash (`FANOUT` partitions). A partition pair whose build half still
//! exceeds the window is re-partitioned once with a fresh salt; a pair
//! that is still too big after that (pathological skew — e.g. one hot
//! key) is processed by block nested-loop in window-sized build chunks.
//! Spill totals are reported through [`ExecCtx::note_spill`] and ride
//! the same `SpillMetrics` surface as the external skyline.

use crate::bind::{Bound, BoundExpr};
use crate::eval::{eval, holds, Env};
use crate::exec::ExecCtx;
use crate::physical::{Batch, BoxOperator, Operator, RowKey, DEFAULT_BATCH};
use prefsql_storage::spill::{
    tuple_spill_bytes, RunReader, RunWriter, SpillManager, SpillMetrics, SpillRun,
};
use prefsql_types::{Result, Tuple, Value};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Partitions per Grace spill pass. Small enough that a pass keeps one
/// open run writer per partition; two salted passes separate 64 buckets.
const FANOUT: usize = 8;

/// Partitioning depth at which a still-oversized pair stops recursing
/// and falls back to block nested-loop (initial pass = depth 0, the one
/// permitted re-partition = depth 1).
const MAX_DEPTH: u32 = 2;

// ----------------------------------------------------------- join keys

/// The hash-table key over the evaluated key expressions of one row, or
/// `None` when the row can never match: a NULL key field makes `=`
/// UNKNOWN, a NaN field makes it FALSE (while both would compare equal to
/// themselves under the total order). `-0.0` is folded to `0.0` so
/// SQL-equal floats share a bucket. After this normalization
/// [`RowKey`]'s equality matches SQL `=` exactly.
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
    /// `(left key, right key)` pairs, each bound against its own side.
    keys: &'a [(Bound, Bound)],
    /// Bound against the combined row.
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

/// The hash-join physical operator. All heavy lifting happens in
/// [`Operator::open`]; [`Operator::next_batch`] then streams from
/// whichever state the build phase settled into.
pub struct HashJoinOp<'a> {
    cfg: JoinCfg<'a>,
    left: BoxOperator<'a>,
    right: BoxOperator<'a>,
    build_left: bool,
    state: State,
    /// Output scratch of the streaming states, handed to the consumer.
    out: Vec<Tuple>,
    /// Rows hashed into the build table (observability; `Cell` so the
    /// Grace source closures can count while the children are borrowed).
    build_rows: Cell<u64>,
    /// Rows streamed through the probe side.
    probe_rows: Cell<u64>,
    /// Input rows written to Grace partition runs (a re-partitioned row
    /// counts again, mirroring the `passes` semantics).
    spilled_rows: Cell<u64>,
}

enum State {
    Closed,
    /// In-memory, build=right: the left side streams through the probe
    /// in batched pulls; output order is the nested loop's by
    /// construction. `lbuf[..lpos]` has been probed, and
    /// `matches[midx..]` are the build rows `lbuf[lpos - 1]` has yet to
    /// meet.
    Probe {
        right_rows: Vec<Tuple>,
        table: HashMap<RowKey, Vec<u32>>,
        lbuf: Vec<Tuple>,
        lpos: usize,
        left_done: bool,
        matches: Vec<u32>,
        midx: usize,
    },
    /// In-memory, build=left: matches were bucketed per left row and
    /// concatenated in left order.
    Buffered {
        out: Vec<Tuple>,
        pos: usize,
    },
    /// Grace overflow: k-way merge of sorted output runs.
    Grace(GraceOutput),
}

impl<'a> HashJoinOp<'a> {
    /// Wire up the operator over already-built child operators.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ctx: &'a ExecCtx<'a>,
        left: BoxOperator<'a>,
        right: BoxOperator<'a>,
        keys: &'a [(Bound, Bound)],
        residual: Option<&'a BoundExpr>,
        build_left: bool,
        window: Option<usize>,
        outer: &'a [&'a Tuple],
    ) -> Self {
        HashJoinOp {
            cfg: JoinCfg {
                ctx,
                keys,
                residual,
                outer,
                window: window.unwrap_or(usize::MAX),
            },
            left,
            right,
            build_left,
            state: State::Closed,
            out: Vec::new(),
            build_rows: Cell::new(0),
            probe_rows: Cell::new(0),
            spilled_rows: Cell::new(0),
        }
    }

    /// Drain the build side until it either ends (in-memory join) or
    /// overflows the window (Grace), then set up the streaming state.
    fn build_phase(&mut self) -> Result<State> {
        let cfg = self.cfg;
        let build_op: &mut BoxOperator<'a> = if self.build_left {
            &mut self.left
        } else {
            &mut self.right
        };
        let mut rows: Vec<Tuple> = Vec::new();
        let mut bytes = 0usize;
        let overflowed = loop {
            let batch = build_op.next_batch(DEFAULT_BATCH)?;
            if batch.is_end() {
                break false;
            }
            bytes += batch.rows().map(tuple_spill_bytes).sum::<usize>();
            batch.take_into(&mut rows);
            if bytes > cfg.window {
                break true;
            }
        };
        if overflowed {
            // Grace counts the full build side (these rows included) at
            // its own source, so nothing is charged here.
            return self.grace_phase(&cfg, rows);
        }
        self.build_rows
            .set(self.build_rows.get() + rows.len() as u64);
        if self.build_left {
            self.buffered_phase(&cfg, rows)
        } else {
            let table = build_table(&cfg, &rows, false)?;
            Ok(State::Probe {
                right_rows: rows,
                table,
                lbuf: Vec::new(),
                lpos: 0,
                left_done: false,
                matches: Vec::new(),
                midx: 0,
            })
        }
    }

    /// Build=left in memory: hash the left rows, stream the right side
    /// into per-left-row buckets, emit the buckets in left order.
    fn buffered_phase(&mut self, cfg: &JoinCfg<'a>, left_rows: Vec<Tuple>) -> Result<State> {
        let table = build_table(cfg, &left_rows, true)?;
        let mut buckets: Vec<Vec<Tuple>> = vec![Vec::new(); left_rows.len()];
        loop {
            let batch = self.right.next_batch(DEFAULT_BATCH)?;
            if batch.is_end() {
                break;
            }
            self.probe_rows
                .set(self.probe_rows.get() + batch.len() as u64);
            for r in batch.rows() {
                let Some(key) = cfg.key_of(r, false)? else {
                    continue;
                };
                if let Some(idxs) = table.get(&key) {
                    for &i in idxs {
                        let joined = left_rows[i as usize].join(r);
                        if cfg.residual_ok(&joined)? {
                            buckets[i as usize].push(joined);
                        }
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(buckets.iter().map(Vec::len).sum());
        for b in &mut buckets {
            out.append(b);
        }
        Ok(State::Buffered { out, pos: 0 })
    }

    /// The Grace overflow path: partition both inputs to spill runs,
    /// process partition pairs (recursing once, then block-NLJ), and
    /// leave a k-way merge over the sorted output runs.
    fn grace_phase(&mut self, cfg: &JoinCfg<'a>, collected: Vec<Tuple>) -> Result<State> {
        let mut mgr = cfg.ctx.spill_manager()?;
        let mut passes = 1u32;

        // Partition the build side: the rows drained so far, then the
        // rest of its operator. Sequence numbers count arrival order.
        let build_left = self.build_left;
        let spilled = &self.spilled_rows;
        let (build_op, probe_op): (&mut BoxOperator<'a>, &mut BoxOperator<'a>) = if build_left {
            (&mut self.left, &mut self.right)
        } else {
            (&mut self.right, &mut self.left)
        };
        let build_runs = {
            let mut src = operator_source(collected, build_op.as_mut(), &self.build_rows);
            partition_pass(cfg, &mut mgr, &mut src, build_left, 0, spilled)?
        };
        let probe_runs = {
            let mut src = operator_source(Vec::new(), probe_op.as_mut(), &self.probe_rows);
            partition_pass(cfg, &mut mgr, &mut src, !build_left, 0, spilled)?
        };
        let (left_runs, right_runs) = if build_left {
            (build_runs, probe_runs)
        } else {
            (probe_runs, build_runs)
        };

        let mut out_runs: Vec<SpillRun> = Vec::new();
        for (l, r) in left_runs.into_iter().zip(right_runs) {
            process_pair(cfg, &mut mgr, l, r, 1, &mut out_runs, &mut passes, spilled)?;
        }

        cfg.ctx.note_spill(SpillMetrics {
            runs_written: mgr.runs_written(),
            bytes_spilled: mgr.bytes_spilled(),
            passes,
            spill_dir: Some(mgr.dir().to_path_buf()),
        });
        GraceOutput::new(mgr, out_runs).map(State::Grace)
    }
}

impl Operator for HashJoinOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.build_rows.set(0);
        self.probe_rows.set(0);
        self.spilled_rows.set(0);
        self.left.open()?;
        self.right.open()?;
        self.state = State::Closed;
        self.state = self.build_phase()?;
        Ok(())
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        let cfg = self.cfg;
        self.out.clear();
        match &mut self.state {
            State::Closed => {}
            State::Buffered { out, pos } => return Ok(Batch::lend(out, pos, max)),
            State::Grace(g) => {
                while self.out.len() < max {
                    match g.next()? {
                        Some(t) => self.out.push(t),
                        None => break,
                    }
                }
            }
            State::Probe {
                right_rows,
                table,
                lbuf,
                lpos,
                left_done,
                matches,
                midx,
            } => {
                while self.out.len() < max {
                    if *midx < matches.len() {
                        let joined = lbuf[*lpos - 1].join(&right_rows[matches[*midx] as usize]);
                        *midx += 1;
                        if cfg.residual_ok(&joined)? {
                            self.out.push(joined);
                        }
                        continue;
                    }
                    // Advance to the next probe row, refilling the batch
                    // buffer from the left child as needed.
                    if *lpos == lbuf.len() {
                        if *left_done {
                            break;
                        }
                        lbuf.clear();
                        *lpos = 0;
                        let batch = self.left.next_batch(DEFAULT_BATCH)?;
                        *left_done = batch.is_end();
                        batch.take_into(lbuf);
                        continue;
                    }
                    matches.clear();
                    *midx = 0;
                    if let Some(key) = cfg.key_of(&lbuf[*lpos], true)? {
                        if let Some(idxs) = table.get(&key) {
                            matches.extend_from_slice(idxs);
                        }
                    }
                    *lpos += 1;
                    self.probe_rows.set(self.probe_rows.get() + 1);
                }
            }
        }
        // The streaming states fill the quota unless their input ran
        // dry, so an empty scratch is the end.
        if self.out.is_empty() {
            return Ok(Batch::end());
        }
        Ok(Batch::owned(&mut self.out))
    }

    fn close(&mut self) {
        self.left.close();
        self.right.close();
        self.state = State::Closed;
        self.out = Vec::new();
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("build_rows", self.build_rows.get()),
            ("probe_rows", self.probe_rows.get()),
            ("spilled_rows", self.spilled_rows.get()),
        ]
    }
}

/// Hash one side's rows into `key -> row indices` (insertion order per
/// key, i.e. that side's arrival order).
fn build_table(
    cfg: &JoinCfg<'_>,
    rows: &[Tuple],
    left_side: bool,
) -> Result<HashMap<RowKey, Vec<u32>>> {
    let mut table: HashMap<RowKey, Vec<u32>> = HashMap::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        if let Some(key) = cfg.key_of(row, left_side)? {
            table.entry(key).or_default().push(i as u32);
        }
    }
    Ok(table)
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

/// One Grace partitioning pass over one side: route every row (tagged
/// with its sequence number) to its key's partition run. Rows whose key
/// contains NULL/NaN can never join and are dropped here. Partitions
/// that receive no rows get no run (`None`).
fn partition_pass(
    cfg: &JoinCfg<'_>,
    mgr: &mut SpillManager,
    src: &mut dyn FnMut() -> Result<Option<(i64, Tuple)>>,
    left_side: bool,
    depth: u32,
    spilled: &Cell<u64>,
) -> Result<Vec<Option<SpillRun>>> {
    let mut writers: Vec<Option<RunWriter>> = (0..FANOUT).map(|_| None).collect();
    while let Some((seq, row)) = src()? {
        let Some(key) = cfg.key_of(&row, left_side)? else {
            continue;
        };
        let p = partition_of(&key, depth);
        if writers[p].is_none() {
            writers[p] = Some(mgr.begin_run()?);
        }
        writers[p]
            .as_mut()
            .expect("writer created above")
            .write_tuple(&tag1(seq, &row))?;
        spilled.set(spilled.get() + 1);
    }
    let mut runs = Vec::with_capacity(FANOUT);
    for w in writers {
        runs.push(match w {
            None => None,
            Some(w) => {
                let run = w.finish()?;
                mgr.record_run(&run);
                Some(run)
            }
        });
    }
    Ok(runs)
}

/// Join one partition pair. An oversized pair re-partitions once with a
/// fresh salt; everything else — a pair whose right half fits the window,
/// or one still oversized after re-partitioning (skew) — goes to
/// [`pair_block_nlj`], which reads a fitting right half as its one chunk.
/// Every path appends output runs sorted by `(left seq, right seq)` and
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
    spilled: &Cell<u64>,
) -> Result<()> {
    let (left, right) = match (left, right) {
        (Some(l), Some(r)) => (l, r),
        // A one-sided partition produces no inner-join output.
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
            partition_pass(cfg, mgr, &mut src, true, depth, spilled)?
        };
        let right_subs = {
            let mut reader = RunReader::open(&right)?;
            let mut src =
                move || -> Result<Option<(i64, Tuple)>> { Ok(reader.next_tuple()?.map(untag1)) };
            partition_pass(cfg, mgr, &mut src, false, depth, spilled)?
        };
        let _ = left.delete();
        let _ = right.delete();
        for (l, r) in left_subs.into_iter().zip(right_subs) {
            process_pair(cfg, mgr, l, r, depth + 1, out_runs, passes, spilled)?;
        }
        return Ok(());
    }
    pair_block_nlj(cfg, mgr, &left, &right, out_runs).map(|()| {
        let _ = left.delete();
        let _ = right.delete();
    })
}

/// Hash the right half in window-sized chunks — one chunk when it fits,
/// several under skew — and stream the left half, in its spilled
/// (= sequence) order, against each chunk. Probing in ascending left
/// sequence against match lists in ascending right sequence makes each
/// chunk's output sorted by `(left seq, right seq)` with no sort — one
/// output run per chunk; the global merge interleaves them correctly.
fn pair_block_nlj(
    cfg: &JoinCfg<'_>,
    mgr: &mut SpillManager,
    left: &SpillRun,
    right: &SpillRun,
    out_runs: &mut Vec<SpillRun>,
) -> Result<()> {
    let mut right_reader = RunReader::open(right)?;
    loop {
        // Next build chunk: at least one tuple, at most a window's worth.
        let mut chunk: Vec<(i64, Tuple)> = Vec::new();
        let mut bytes = 0usize;
        while bytes <= cfg.window {
            match right_reader.next_tuple()? {
                Some(t) => {
                    bytes += tuple_spill_bytes(&t);
                    chunk.push(untag1(t));
                }
                None => break,
            }
        }
        if chunk.is_empty() {
            return Ok(());
        }
        let mut table: HashMap<RowKey, Vec<u32>> = HashMap::with_capacity(chunk.len());
        for (i, (_, row)) in chunk.iter().enumerate() {
            if let Some(key) = cfg.key_of(row, false)? {
                table.entry(key).or_default().push(i as u32);
            }
        }
        let mut reader = RunReader::open(left)?;
        let mut writer: Option<RunWriter> = None;
        while let Some(t) = reader.next_tuple()? {
            let (lseq, lrow) = untag1(t);
            let Some(key) = cfg.key_of(&lrow, true)? else {
                continue;
            };
            let Some(idxs) = table.get(&key) else {
                continue;
            };
            for &i in idxs {
                let (rseq, rrow) = &chunk[i as usize];
                let joined = lrow.join(rrow);
                if cfg.residual_ok(&joined)? {
                    if writer.is_none() {
                        writer = Some(mgr.begin_run()?);
                    }
                    writer
                        .as_mut()
                        .expect("writer created above")
                        .write_tuple(&tag2(lseq, *rseq, &joined))?;
                }
            }
        }
        if let Some(w) = writer {
            let run = w.finish()?;
            mgr.record_run(&run);
            out_runs.push(run);
        }
    }
}

/// Streaming k-way merge over the sorted output runs, by `(left seq,
/// right seq)`. Every joined pair lands in exactly one run (its key
/// routes both rows to one partition pair; within a pair, one chunk),
/// so a linear min-scan over the — few dozen at most — run heads
/// restores the exact nested-loop order.
struct GraceOutput {
    /// Keeps the spill directory (and the output runs) alive until the
    /// operator is closed.
    _mgr: SpillManager,
    /// One lookahead head per non-exhausted run: merge key, payload,
    /// reader.
    heads: Vec<((i64, i64), Tuple, RunReader)>,
}

impl GraceOutput {
    fn new(mgr: SpillManager, runs: Vec<SpillRun>) -> Result<GraceOutput> {
        let mut heads = Vec::with_capacity(runs.len());
        for run in &runs {
            let mut reader = RunReader::open(run)?;
            if let Some(t) = reader.next_tuple()? {
                let (key, payload) = untag2(t);
                heads.push((key, payload, reader));
            }
        }
        Ok(GraceOutput { _mgr: mgr, heads })
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
                let (key, payload) = untag2(t);
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
    //! The equi-key split the planner runs for this operator, and the
    //! operator's key normalization and partitioning.
    use super::*;
    use crate::plan::split_equi_join;
    use prefsql_parser::ast::{BinaryOp, Expr};
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

    fn col(q: &str, n: &str) -> Expr {
        Expr::Column {
            qualifier: Some(q.into()),
            name: n.into(),
        }
    }

    fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(a),
            op: BinaryOp::Eq,
            right: Box::new(b),
        }
    }

    fn and(a: Expr, b: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(a),
            op: BinaryOp::And,
            right: Box::new(b),
        }
    }

    #[test]
    fn extracts_simple_equi_key() {
        let l = schema("a", &["x", "z"]);
        let r = schema("b", &["y", "w"]);
        let on = eq(col("a", "x"), col("b", "y"));
        let equi = split_equi_join(&on, &l, &r).expect("equi join");
        assert_eq!(equi.keys.len(), 1);
        assert!(equi.residual.is_none());
    }

    #[test]
    fn reversed_sides_normalize_to_left_right() {
        let l = schema("a", &["x"]);
        let r = schema("b", &["y"]);
        let on = eq(col("b", "y"), col("a", "x"));
        let equi = split_equi_join(&on, &l, &r).expect("equi join");
        assert_eq!(equi.keys[0].0, col("a", "x"));
        assert_eq!(equi.keys[0].1, col("b", "y"));
    }

    #[test]
    fn mixed_condition_keeps_non_equi_as_residual() {
        let l = schema("a", &["x", "z"]);
        let r = schema("b", &["y", "w"]);
        let on = and(
            eq(col("a", "x"), col("b", "y")),
            Expr::Binary {
                left: Box::new(col("a", "z")),
                op: BinaryOp::Gt,
                right: Box::new(col("b", "w")),
            },
        );
        let equi = split_equi_join(&on, &l, &r).expect("equi join");
        assert_eq!(equi.keys.len(), 1);
        assert!(equi.residual.is_some());
    }

    #[test]
    fn pure_non_equi_condition_bails() {
        let l = schema("a", &["x"]);
        let r = schema("b", &["y"]);
        let on = Expr::Binary {
            left: Box::new(col("a", "x")),
            op: BinaryOp::Gt,
            right: Box::new(col("b", "y")),
        };
        assert!(split_equi_join(&on, &l, &r).is_none());
    }

    #[test]
    fn same_side_equality_is_residual_not_key() {
        // a.x = a.z is a filter, not a join key; alone it cannot carry
        // a hash join.
        let l = schema("a", &["x", "z"]);
        let r = schema("b", &["y"]);
        let on = eq(col("a", "x"), col("a", "z"));
        assert!(split_equi_join(&on, &l, &r).is_none());
    }

    #[test]
    fn unresolvable_column_bails_entirely() {
        // outer.k resolves against neither input (a correlated ON): the
        // nested loop must keep raising its resolution error.
        let l = schema("a", &["x"]);
        let r = schema("b", &["y"]);
        let on = and(
            eq(col("a", "x"), col("b", "y")),
            eq(col("outer", "k"), col("a", "x")),
        );
        assert!(split_equi_join(&on, &l, &r).is_none());
    }

    #[test]
    fn subquery_in_condition_bails_entirely() {
        let l = schema("a", &["x"]);
        let r = schema("b", &["y"]);
        let on = and(
            eq(col("a", "x"), col("b", "y")),
            Expr::Exists {
                query: match prefsql_parser::parse_statement("SELECT 1").unwrap() {
                    prefsql_parser::ast::Statement::Select(q) => q,
                    other => panic!("unexpected statement {other:?}"),
                },
                negated: false,
            },
        );
        assert!(split_equi_join(&on, &l, &r).is_none());
    }

    #[test]
    fn ambiguous_column_bails_entirely() {
        // Both sides expose x under the same qualifier: the combined
        // resolution is ambiguous, so the nested loop keeps the error.
        let l = schema("t", &["x"]);
        let r = schema("t", &["x"]);
        let on = eq(
            Expr::Column {
                qualifier: None,
                name: "x".into(),
            },
            Expr::Column {
                qualifier: None,
                name: "x".into(),
            },
        );
        assert!(split_equi_join(&on, &l, &r).is_none());
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
