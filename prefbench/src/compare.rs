//! `prefbench compare <dirA> <dirB>`: hold two result sets against the
//! bounds in `BENCHMARK.json`, one row per (metric, workload).
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `regressed` — it is, and the run-to-run spread is within the bound;
//! * `unresolved` — the spread of either side (distance between the
//!   quartiles as a share of the median) is wider than the bound, so
//!   the runs cannot tell.

use crate::json::Json;
use crate::resultfile;
use crate::util::{median, sorted};
use std::fmt::Write as _;
use std::path::Path;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Spread wider than the bound.
    Unresolved,
}

/// One metric's two sides, judged.
#[derive(Debug, Clone)]
pub struct Judged {
    /// Median over A's runs.
    pub a: f64,
    /// Median over B's runs.
    pub b: f64,
    /// (B − A) ÷ A, signed so that positive is worse.
    pub worse_by: f64,
    /// The wider of the two sides' spreads (`None` under four runs).
    pub spread: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// One (metric, workload) comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The metric's bound.
    pub bound: f64,
    /// Medians, change, spread and verdict.
    pub judged: Judged,
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let v = sorted(values.to_vec());
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    (mid != 0.0).then(|| (cut(3) - cut(1)) / mid.abs())
}

/// Judge one metric from both sides' run values.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Judged {
    let (ma, mb) = (median(a), median(b));
    let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse_by = if higher_is_better { -change } else { change };
    let wide = match (spread(a), spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let verdict = if wide.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Judged {
        a: ma,
        b: mb,
        worse_by,
        spread: wide,
        verdict,
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare every (end-to-end metric, workload) of `benchmark` between
/// the result sets in `dir_a` and `dir_b`.
pub fn compare(benchmark: &Path, dir_a: &Path, dir_b: &Path) -> Result<Vec<Row>, String> {
    let spec = load(benchmark)?;
    let mut rows = Vec::new();
    for workload in spec.get("workloads").map(Json::items).unwrap_or_default() {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("BENCHMARK.json: workload without a name")?;
        let a = load(&resultfile::path(dir_a, workload))?;
        let b = load(&resultfile::path(dir_b, workload))?;
        for metric in spec.get("end_to_end").map(Json::items).unwrap_or_default() {
            let field = |k: &str| metric.get(k).and_then(Json::as_str);
            let name = field("name").ok_or("BENCHMARK.json: metric without a name")?;
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: metric without a bound")?;
            let (va, vb) = (
                resultfile::metric_values(&a, name),
                resultfile::metric_values(&b, name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: no runs report {name}"));
            }
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                bound,
                judged: judge(&va, &vb, field("better") == Some("higher"), bound),
            });
        }
    }
    Ok(rows)
}

/// The table `prefbench compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<14} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<20} {:<14} {:>12.4} {:>12.4} {:>+8.1}% {:>8} {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.judged.a,
            r.judged.b,
            r.judged.worse_by * 100.0,
            r.judged
                .spread
                .map_or_else(|| "n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
            r.bound * 100.0,
            match r.judged.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.0).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [8.0, 12.0, 10.0, 14.0, 6.0];
        assert_eq!(judge(&steady, &steady, false, 0.10).verdict, Verdict::Ok);
        assert_eq!(
            judge(&steady, &slower, false, 0.10).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &noisy, false, 0.10).verdict,
            Verdict::Unresolved
        );
        // Higher is better: the same numbers read the other way round.
        assert_eq!(judge(&steady, &slower, true, 0.10).verdict, Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, true, 0.10).verdict,
            Verdict::Regressed
        );
    }
}
