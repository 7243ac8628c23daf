//! The metric vocabulary: which metrics exist, in which unit, and the
//! report one run prints and writes.
//!
//! The two tables below are the code's copy of `BENCHMARK.json`; a test
//! holds them against the file so neither drifts.

use crate::json::Json;
use crate::workload::Scale;

/// `(name, unit)` of every end-to-end metric, in reporting order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("stmt_p50_ms", "ms"),
    ("stmt_p95_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("stmts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric a traced run reports. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("parser.parse_us_p50", "us"),
    ("parser.parse_us_p95", "us"),
    ("parser.sql_bytes", "count"),
    ("rewrite.process_us_p50", "us"),
    ("rewrite.rewritten_share", "ratio"),
    ("rewrite.sql_bytes_out", "count"),
    ("engine.plan_us_p50", "us"),
    ("engine.execute_ms_p50", "ms"),
    ("engine.execute_ms_p95", "ms"),
    ("engine.rows_scanned", "count"),
    ("engine.index_probes", "count"),
    ("engine.subquery_evals", "count"),
    ("engine.rows_scanned_per_row_out", "ratio"),
    ("engine.dml_ms_p50", "ms"),
    ("engine.views_maintained", "count"),
    ("engine.view_hits", "count"),
    ("pref.maximal_ms_p50", "ms"),
    ("pref.maximal_ms_p95", "ms"),
    ("pref.dominance_tests", "count"),
    ("pref.ns_per_test", "ns"),
    ("pref.tests_per_candidate", "ratio"),
    ("pref.winner_share", "ratio"),
    ("storage.scan_rows_per_s", "1/s"),
    ("storage.pool_hit_share", "ratio"),
    ("storage.pool_misses", "count"),
    ("storage.pool_evictions", "count"),
    ("storage.pool_writebacks", "count"),
    ("storage.spill_bytes", "bytes"),
    ("core.execute_ms_p50", "ms"),
    ("core.self_us_p50", "us"),
    ("core.native_ms_p50", "ms"),
    ("core.slot_tail_ms_p50", "ms"),
    ("server.roundtrip_ms_p50", "ms"),
    ("server.roundtrip_ms_p95", "ms"),
    ("server.wire_self_us_p50", "us"),
    ("server.render_us_p50", "us"),
    ("server.bytes_out", "count"),
    ("server.connect_ms_p50", "ms"),
    ("share.engine", "ratio"),
    ("share.pref_tail", "ratio"),
    ("share.frontend", "ratio"),
    ("write_p50_ms", "ms"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.calib_ms", "ms"),
    ("bench.spans", "count"),
    ("bench.span_sum_error_max", "ratio"),
    ("bench.staged_mismatches", "count"),
    ("bench.traced_statements", "count"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
];

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Everything one run of one workload found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// `--seed`
    pub seed: u64,
    /// Full or quick.
    pub scale: Scale,
    /// True for a `--trace 1` run (per-layer metrics).
    pub traced: bool,
    /// Statements sent (warm-up included: a failure there counts too).
    pub attempted: u64,
    /// Errors + refusals + wrong results + broken end-state invariants.
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// The contract's metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Reported for people, outside the contract's metric set.
    pub extra: Vec<Metric>,
    /// `(class, samples, median ms)` per statement class.
    pub classes: Vec<(String, usize, f64)>,
    /// Table sizes and the like.
    pub facts: Vec<(String, f64)>,
    /// Calibration spin before and after, ms.
    pub calib_ms: (f64, f64),
    /// The first few failures.
    pub problems: Vec<String>,
    /// Free-form lines (predicted vs measured shares).
    pub notes: Vec<String>,
}

impl Report {
    /// No statement failed, returned a wrong result, or broke an invariant.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable block: every metric by name and unit.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} seed={} scale={} trace={} ==",
            self.workload,
            self.seed,
            self.scale.pick("full", "quick"),
            u8::from(self.traced)
        );
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(out, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>16} (failed {} / attempted {})",
            "samples", self.samples, self.failed, self.attempted
        );
        for (class, n, p50) in &self.classes {
            let _ = writeln!(out, "  class {class:<28} {p50:>16.4} ms p50 over {n}");
        }
        for (k, v) in &self.facts {
            let _ = writeln!(out, "  fact  {k:<28} {v:>16}");
        }
        let _ = writeln!(
            out,
            "  calib spin before/after            {:>9.3} / {:.3} ms",
            self.calib_ms.0, self.calib_ms.1
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  PROBLEM {p}");
        }
        out
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .render()
    }

    /// The run as a JSON object for result files.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("metrics", metrics_json(&self.metrics)),
            ("extra", metrics_json(&self.extra)),
            (
                "classes",
                Json::Obj(
                    self.classes
                        .iter()
                        .map(|(c, n, p50)| {
                            (
                                c.clone(),
                                Json::obj([
                                    ("samples", Json::Num(*n as f64)),
                                    ("p50_ms", Json::Num(*p50)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "calib_ms",
                Json::Arr(vec![Json::Num(self.calib_ms.0), Json::Num(self.calib_ms.1)]),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
        ])
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))]),
                )
            })
            .collect(),
    )
}
