//! Observability: per-operator profiling and the engine-wide metrics
//! registry.
//!
//! Three pieces, one per consumer:
//!
//! * [`NodeMetrics`] / [`Profiler`] — the per-statement profile of one
//!   executed plan, keyed by plan-node address (stable for exactly as
//!   long as the statement's plan `Arc` is alive, which is why analyzed
//!   rendering happens inside the statement scope). `EXPLAIN ANALYZE`
//!   prints it next to the plan tree.
//! * [`Instrumented`] — the shim [`crate::physical::build`] splices
//!   around every operator when a statement runs under a profiler: it
//!   counts rows and batches, accumulates open/next/close wall time and
//!   captures the operator's own [`Operator::counters`] at close, then
//!   flushes the lot into the profiler. Plain statements never see it —
//!   profiling is opt-in per statement, so the unprofiled hot path pays
//!   nothing.
//! * [`MetricsRegistry`] — the `Send + Sync` engine-wide accumulator
//!   hanging off [`crate::exec::EngineCore`]: every finished statement
//!   folds its deltas in, and the shell's `\metrics`, the server's
//!   `METRICS` verb and the slow-query log all read the same snapshot.

use crate::exec::ExecStats;
use crate::physical::{Batch, BoxOperator, Operator};
use crate::plan::{JoinKind, PlanNode};
use prefsql_storage::spill::SpillMetrics;
use prefsql_types::Result;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Observed execution profile of one plan node: output volume plus the
/// wall time spent inside the operator (children included — this is a
/// Volcano tree, so a parent's pull contains its children's).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Tuples this node produced.
    pub rows: u64,
    /// Pulls ([`Operator::next_batch`] calls) answered, the one that
    /// reported the end included.
    pub batches: u64,
    /// Wall time spent in `open`, nanoseconds.
    pub open_ns: u64,
    /// Wall time spent in `next_batch`, nanoseconds.
    pub next_ns: u64,
    /// Wall time spent in `close`, nanoseconds.
    pub close_ns: u64,
    /// Operator-specific counters ([`Operator::counters`]) captured at
    /// close — dominance comparisons, join build/probe rows, ...
    pub extras: Vec<(&'static str, u64)>,
}

impl NodeMetrics {
    /// Total wall time across open/next/close, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.open_ns + self.next_ns + self.close_ns
    }

    /// Fold another observation of the same node in (an operator can be
    /// rebuilt and rerun — a rebound inner join side, a re-opened
    /// sub-plan — and each run flushes separately).
    fn merge(&mut self, other: NodeMetrics) {
        self.rows += other.rows;
        self.batches += other.batches;
        self.open_ns += other.open_ns;
        self.next_ns += other.next_ns;
        self.close_ns += other.close_ns;
        for (k, v) in other.extras {
            match self.extras.iter_mut().find(|(ek, _)| *ek == k) {
                Some((_, ev)) => *ev += v,
                None => self.extras.push((k, v)),
            }
        }
    }
}

/// Per-statement profile of an executed plan, keyed by plan-node address.
///
/// Addresses are stable while the plan `Arc` lives, which the statement
/// context guarantees (its profiled-plan slot holds the top-level plan —
/// and with it every sub-query plan bound into its expressions — until
/// the statement ends). A node that never ran —
/// short-circuited `EXISTS` probes, the never-pulled side of an empty
/// join — simply has no entry.
#[derive(Debug, Default)]
pub struct Profiler {
    nodes: RefCell<HashMap<usize, (&'static str, NodeMetrics)>>,
}

impl Profiler {
    /// A fresh, empty profile.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Fold one operator run's observations into the node's entry.
    pub(crate) fn flush(&self, key: usize, kind: &'static str, m: NodeMetrics) {
        let mut nodes = self.nodes.borrow_mut();
        nodes
            .entry(key)
            .or_insert_with(|| (kind, NodeMetrics::default()))
            .1
            .merge(m);
    }

    /// The observed metrics of `node`, if it executed.
    pub fn node(&self, node: &PlanNode) -> Option<NodeMetrics> {
        self.nodes
            .borrow()
            .get(&(node as *const PlanNode as usize))
            .map(|(_, m)| m.clone())
    }

    /// True when nothing was recorded (the statement had no profiled
    /// plan execution).
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Totals folded per operator kind, sorted by kind name — what the
    /// engine-wide registry accumulates across statements.
    pub fn per_kind(&self) -> Vec<(&'static str, NodeMetrics)> {
        let mut by_kind: BTreeMap<&'static str, NodeMetrics> = BTreeMap::new();
        for (kind, m) in self.nodes.borrow().values() {
            by_kind.entry(kind).or_default().merge(m.clone());
        }
        by_kind.into_iter().collect()
    }
}

/// The registry label of a plan node — also the `op.<kind>.*` key stem in
/// [`MetricsRegistry::snapshot`].
pub fn node_kind(node: &PlanNode) -> &'static str {
    match node {
        PlanNode::Nothing { .. } => "nothing",
        PlanNode::SeqScan { .. } => "seq_scan",
        PlanNode::MatViewScan { .. } => "matview_scan",
        PlanNode::IndexScan { .. } => "index_scan",
        PlanNode::Materialize { .. } => "materialize",
        PlanNode::Join {
            kind: JoinKind::Semi,
            ..
        } => "semi_join",
        PlanNode::Join {
            kind: JoinKind::Anti,
            ..
        } => "anti_join",
        PlanNode::Join { keys, .. } if keys.is_empty() => "nested_loop_join",
        PlanNode::Join { .. } => "hash_join",
        PlanNode::Filter { .. } => "filter",
        PlanNode::Project { .. } => "project",
        PlanNode::Sort { .. } => "sort",
        PlanNode::Distinct { .. } => "distinct",
        PlanNode::Limit { .. } => "limit",
        PlanNode::Preference { .. } => "preference",
        PlanNode::Aggregate { .. } => "aggregate",
    }
}

/// The instrumentation shim: wraps an operator, forwards every call and
/// records volume plus wall time, flushing into the statement's
/// [`Profiler`] at close. Spliced in by [`crate::physical::build`] only
/// when the statement context carries a profiler.
pub struct Instrumented<'a> {
    inner: BoxOperator<'a>,
    profiler: &'a Profiler,
    key: usize,
    kind: &'static str,
    local: NodeMetrics,
    /// Guards the close-time flush: `close` is idempotent, the flush
    /// (and the capture of the inner operator's counters) must be too.
    flushed: bool,
}

impl<'a> Instrumented<'a> {
    /// Wrap `inner` (built for `node`) so its execution reports into
    /// `profiler` under the node's address.
    pub fn new(inner: BoxOperator<'a>, profiler: &'a Profiler, node: &PlanNode) -> Self {
        Instrumented {
            inner,
            profiler,
            key: node as *const PlanNode as usize,
            kind: node_kind(node),
            local: NodeMetrics::default(),
            flushed: false,
        }
    }
}

impl Operator for Instrumented<'_> {
    fn open(&mut self) -> Result<()> {
        self.flushed = false;
        let t = Instant::now();
        let r = self.inner.open();
        self.local.open_ns += t.elapsed().as_nanos() as u64;
        r
    }

    fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
        let t = Instant::now();
        let r = self.inner.next_batch(max);
        self.local.next_ns += t.elapsed().as_nanos() as u64;
        self.local.batches += 1;
        if let Ok(batch) = &r {
            // The emitted rows: for a narrowed batch the selected ones,
            // not the run of the buffer they were selected from.
            self.local.rows += batch.len() as u64;
        }
        r
    }

    fn close(&mut self) {
        let t = Instant::now();
        self.inner.close();
        self.local.close_ns += t.elapsed().as_nanos() as u64;
        if !self.flushed {
            self.flushed = true;
            for (k, v) in self.inner.counters() {
                if v != 0 {
                    self.local.extras.push((k, v));
                }
            }
            self.profiler
                .flush(self.key, self.kind, std::mem::take(&mut self.local));
        }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }
}

/// Cumulative per-operator-kind totals inside the registry.
#[derive(Debug, Default, Clone, Copy)]
struct KindTotals {
    rows: u64,
    batches: u64,
    ns: u64,
}

/// The engine-wide metrics accumulator: lock-free counters every
/// finished statement folds its deltas into, shared by all sessions of
/// one [`crate::exec::EngineCore`].
///
/// All counters are monotonic except `sessions.open`. Relaxed ordering
/// throughout: these are statistics, not synchronization — a snapshot
/// taken while statements run is approximate by nature.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    statements: AtomicU64,
    statements_errored: AtomicU64,
    statements_slow: AtomicU64,
    statement_ns: AtomicU64,
    rows_returned: AtomicU64,
    rows_affected: AtomicU64,
    rows_scanned: AtomicU64,
    index_probes: AtomicU64,
    subquery_evals: AtomicU64,
    dominance_tests: AtomicU64,
    spill_runs: AtomicU64,
    spill_bytes: AtomicU64,
    spill_passes: AtomicU64,
    views_maintained: AtomicU64,
    sessions_open: AtomicU64,
    sessions_total: AtomicU64,
    op_totals: Mutex<BTreeMap<&'static str, KindTotals>>,
}

impl MetricsRegistry {
    /// A fresh registry with all counters at zero.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Record one finished statement: its wall time and whether it
    /// succeeded.
    pub fn note_statement(&self, elapsed_ns: u64, ok: bool) {
        self.statements.fetch_add(1, Ordering::Relaxed);
        self.statement_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        if !ok {
            self.statements_errored.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one statement that crossed the slow-query threshold.
    pub fn note_slow_statement(&self) {
        self.statements_slow.fetch_add(1, Ordering::Relaxed);
    }

    /// Add rows returned to a client by a query.
    pub fn add_rows_returned(&self, n: u64) {
        self.rows_returned.fetch_add(n, Ordering::Relaxed);
    }

    /// Add rows affected by DML.
    pub fn add_rows_affected(&self, n: u64) {
        self.rows_affected.fetch_add(n, Ordering::Relaxed);
    }

    /// Fold one statement context's execution counters in.
    pub fn add_exec_stats(&self, stats: &ExecStats) {
        self.rows_scanned
            .fetch_add(stats.rows_scanned, Ordering::Relaxed);
        self.index_probes
            .fetch_add(stats.index_probes, Ordering::Relaxed);
        self.subquery_evals
            .fetch_add(stats.subquery_evals, Ordering::Relaxed);
        self.dominance_tests
            .fetch_add(stats.dominance_tests, Ordering::Relaxed);
    }

    /// Add dominance comparisons charged outside a statement context
    /// (materialized-view maintenance under the DML write lock).
    pub fn add_dominance_tests(&self, n: u64) {
        self.dominance_tests.fetch_add(n, Ordering::Relaxed);
    }

    /// Fold one statement's spill metrics in.
    pub fn add_spill(&self, m: &SpillMetrics) {
        self.spill_runs.fetch_add(m.runs_written, Ordering::Relaxed);
        self.spill_bytes
            .fetch_add(m.bytes_spilled, Ordering::Relaxed);
        self.spill_passes
            .fetch_add(u64::from(m.passes), Ordering::Relaxed);
    }

    /// Add materialized-view maintenance applications.
    pub fn add_views_maintained(&self, n: u64) {
        self.views_maintained.fetch_add(n, Ordering::Relaxed);
    }

    /// A session attached to the core.
    pub fn session_opened(&self) {
        self.sessions_open.fetch_add(1, Ordering::Relaxed);
        self.sessions_total.fetch_add(1, Ordering::Relaxed);
    }

    /// A session detached from the core.
    pub fn session_closed(&self) {
        // Saturating: a stray double-close must not wrap the gauge.
        let _ = self
            .sessions_open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Fold a finished statement's per-operator profile into the
    /// cumulative per-kind totals.
    pub fn absorb_profile(&self, profile: &Profiler) {
        let mut totals = self
            .op_totals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (kind, m) in profile.per_kind() {
            let t = totals.entry(kind).or_default();
            t.rows += m.rows;
            t.batches += m.batches;
            t.ns += m.total_ns();
        }
    }

    /// A deterministic, machine-parseable snapshot: `(key, value)` pairs
    /// in a fixed order — the `METRICS` wire verb and `\metrics` both
    /// print exactly these.
    pub fn snapshot(&self) -> Vec<(String, String)> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed).to_string();
        let mut out = vec![
            ("statements.total".to_string(), g(&self.statements)),
            (
                "statements.errored".to_string(),
                g(&self.statements_errored),
            ),
            ("statements.slow".to_string(), g(&self.statements_slow)),
            ("statements.time_ns".to_string(), g(&self.statement_ns)),
            ("rows.returned".to_string(), g(&self.rows_returned)),
            ("rows.affected".to_string(), g(&self.rows_affected)),
            ("rows.scanned".to_string(), g(&self.rows_scanned)),
            ("exec.index_probes".to_string(), g(&self.index_probes)),
            ("exec.subquery_evals".to_string(), g(&self.subquery_evals)),
            ("exec.dominance_tests".to_string(), g(&self.dominance_tests)),
            ("spill.runs".to_string(), g(&self.spill_runs)),
            ("spill.bytes".to_string(), g(&self.spill_bytes)),
            ("spill.passes".to_string(), g(&self.spill_passes)),
            ("views.maintained".to_string(), g(&self.views_maintained)),
            ("sessions.open".to_string(), g(&self.sessions_open)),
            ("sessions.total".to_string(), g(&self.sessions_total)),
        ];
        let totals = self
            .op_totals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (kind, t) in totals.iter() {
            out.push((format!("op.{kind}.rows"), t.rows.to_string()));
            out.push((format!("op.{kind}.batches"), t.batches.to_string()));
            out.push((format!("op.{kind}.time_ns"), t.ns.to_string()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal operator producing `n` single-column rows.
    struct Counting {
        n: usize,
        produced: usize,
        scratch: Vec<prefsql_types::Tuple>,
    }

    impl Operator for Counting {
        fn open(&mut self) -> Result<()> {
            self.produced = 0;
            Ok(())
        }
        fn next_batch(&mut self, max: usize) -> Result<Batch<'_>> {
            self.scratch.clear();
            while self.produced < self.n && self.scratch.len() < max {
                self.produced += 1;
                self.scratch
                    .push(prefsql_types::tuple![self.produced as i64]);
            }
            if self.scratch.is_empty() {
                return Ok(Batch::end());
            }
            Ok(Batch::owned(&mut self.scratch))
        }
        fn close(&mut self) {}
        fn counters(&self) -> Vec<(&'static str, u64)> {
            vec![("probes", self.produced as u64)]
        }
    }

    #[test]
    fn instrumented_counts_rows_and_captures_counters() {
        let profiler = Profiler::new();
        // Any plan node works as the profile key.
        let node = PlanNode::Nothing {
            schema: prefsql_types::Schema::empty(),
        };
        let source = Counting {
            n: 3,
            produced: 0,
            scratch: Vec::new(),
        };
        let mut op = Instrumented::new(Box::new(source), &profiler, &node);
        op.open().unwrap();
        while !op.next_batch(2).unwrap().is_end() {}
        op.close();
        op.close(); // idempotent: must not double-flush
        let m = profiler.node(&node).expect("profiled");
        assert_eq!(m.rows, 3);
        assert_eq!(m.batches, 3, "two pulls with rows plus the end");
        assert_eq!(m.extras, vec![("probes", 3)]);
        let per_kind = profiler.per_kind();
        assert_eq!(per_kind.len(), 1);
        assert_eq!(per_kind[0].0, "nothing");
        assert_eq!(per_kind[0].1.rows, 3);
    }

    #[test]
    fn registry_accumulates_and_snapshots_deterministically() {
        let reg = MetricsRegistry::new();
        reg.note_statement(1_000, true);
        reg.note_statement(2_000, false);
        reg.add_rows_returned(5);
        reg.add_exec_stats(&ExecStats {
            rows_scanned: 10,
            index_probes: 2,
            subquery_evals: 1,
            dominance_tests: 7,
        });
        reg.session_opened();
        reg.session_closed();
        reg.session_closed(); // must not underflow
        let snap: std::collections::HashMap<_, _> = reg.snapshot().into_iter().collect();
        assert_eq!(snap["statements.total"], "2");
        assert_eq!(snap["statements.errored"], "1");
        assert_eq!(snap["statements.time_ns"], "3000");
        assert_eq!(snap["rows.returned"], "5");
        assert_eq!(snap["rows.scanned"], "10");
        assert_eq!(snap["exec.dominance_tests"], "7");
        assert_eq!(snap["sessions.open"], "0");
        assert_eq!(snap["sessions.total"], "1");
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<MetricsRegistry>();
    }
}
