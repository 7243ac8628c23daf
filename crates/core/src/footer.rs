//! The per-statement observability footer every front end prints after
//! a result: spill, buffer-pool, view-cache and timing lines.
//!
//! One formatter per line keeps the shell transcript, the server smoke
//! session, and `EXPLAIN ANALYZE`'s native annotations byte-consistent —
//! a format change here changes every surface at once instead of
//! drifting per front end.

use crate::result::ResultSet;
use crate::session::Session;
use prefsql_pref::SpillMetrics;
use prefsql_storage::PoolStats;
use std::fmt::Write as _;
use std::time::Duration;

/// `Spill: window=…, spilled_runs=…, spilled_bytes=…, passes=…`
pub(crate) fn spill_line(window_label: &str, m: &SpillMetrics) -> String {
    format!(
        "Spill: window={}, spilled_runs={}, spilled_bytes={}, passes={}",
        window_label,
        m.runs_written,
        prefsql_types::knobs::fmt_bytes(m.bytes_spilled),
        m.passes
    )
}

/// `Pool: size=…, hits=…, misses=…, evictions=…, writebacks=…`
pub(crate) fn pool_line(pool_label: &str, p: &PoolStats) -> String {
    format!(
        "Pool: size={}, hits={}, misses={}, evictions={}, writebacks={}",
        pool_label, p.hits, p.misses, p.evictions, p.writebacks
    )
}

/// `View: served by <name>`
pub(crate) fn view_line(name: &str) -> String {
    format!("View: served by {name}")
}

/// `Maintained: <n> materialized view(s)`
pub(crate) fn maintained_line(n: u64) -> String {
    format!("Maintained: {n} materialized view(s)")
}

/// `Time: <ms> ms`
pub(crate) fn time_line(elapsed: Duration) -> String {
    format!("Time: {:.3} ms", elapsed.as_secs_f64() * 1e3)
}

/// The full footer block for one row result, in the fixed order
/// Spill → Pool → View (each line only when that activity occurred).
pub(crate) fn result_footer(session: &Session, rs: &ResultSet) -> String {
    let mut out = String::new();
    if let Some(m) = rs.spill_metrics() {
        let _ = writeln!(out, "{}", spill_line(&session.window_label(), m));
    }
    if let Some(p) = rs.pool_stats() {
        let _ = writeln!(out, "{}", pool_line(&session.pool_label(), p));
    }
    if let Some(v) = rs.view_activity() {
        if let Some(name) = &v.served_by {
            let _ = writeln!(out, "{}", view_line(name));
        }
    }
    out
}
