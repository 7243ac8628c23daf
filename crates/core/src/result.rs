//! Result sets returned to the application.
//!
//! A [`ResultSet`] holds the engine's relation unchanged — no generated
//! `prefsql_*` column reaches it, since the engine's wildcards never
//! expand one — plus what the engine observed of the statement.

use prefsql_engine::{BackendKind, Engine, Relation};
use prefsql_pref::SpillMetrics;
use prefsql_storage::PoolStats;
use prefsql_types::{Schema, Tuple, Value};
use std::fmt;

/// Materialized-preference-view observability of one query: the view
/// whose stored winner set served one of its BMOs. DML returns a count,
/// not a result set; the views it maintained are
/// [`crate::Session::last_view_maintained`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewActivity {
    /// Name of the materialized preference view that served this query,
    /// when the native path took the cache hit.
    pub served_by: Option<String>,
}

/// A query result: schema plus rows, with display helpers for the
/// examples and the experiment harness. Native preference queries
/// evaluated under a window budget additionally carry their
/// [`SpillMetrics`]; queries a materialized preference view served
/// carry their [`ViewActivity`].
#[derive(Debug, Clone)]
pub struct ResultSet {
    schema: Schema,
    rows: Vec<Tuple>,
    spill: Option<SpillMetrics>,
    views: Option<ViewActivity>,
    pool: Option<PoolStats>,
    /// Dominance comparisons the maximal-set selection performed (native
    /// preference path; 0 for rewrite-path and plain SQL results).
    dominance: u64,
}

/// Result equality is *relation* equality (schema and rows). Spill
/// metrics, view activity and buffer-pool counters are execution
/// observability — a view cache hit and a cold recompute of the same
/// query return equal results, and so do a mem-backed and a paged run,
/// which is exactly what the differential suites assert.
impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl ResultSet {
    /// Wrap an engine relation.
    pub fn new(rel: Relation) -> Self {
        ResultSet {
            schema: rel.schema,
            rows: rel.rows,
            spill: None,
            views: None,
            pool: None,
            dominance: 0,
        }
    }

    /// The rows `rel` one statement on `engine` returned, with what the
    /// engine observed of that statement since `before`: its spill, its
    /// buffer-pool delta, its dominance tests and the view that served
    /// it. The one place an engine relation becomes a result; the
    /// session's counters are read, not drained.
    pub(crate) fn assemble(engine: &Engine, rel: Relation, before: Baseline) -> Self {
        ResultSet {
            schema: rel.schema,
            rows: rel.rows,
            spill: engine.take_spill_metrics(),
            views: engine.served_by().map(|name| ViewActivity {
                served_by: Some(name),
            }),
            pool: before.pool.map(|b| engine.pool_stats().since(&b)),
            dominance: engine.stats().dominance_tests - before.dominance,
        }
    }

    /// Dominance comparisons (kernel calls over a
    /// [`prefsql_pref::ScoreMatrix`]) the maximal-set selection behind
    /// this result performed — the paper's unit of preference-evaluation
    /// cost. Zero for rewrite-path results, plain SQL, and view cache
    /// hits.
    pub fn dominance_tests(&self) -> u64 {
        self.dominance
    }

    /// Spill metrics of the evaluation that produced this result:
    /// `Some` whenever a window budget governed a native preference
    /// query (`passes == 0` means the candidates fit in the window and
    /// the selection stayed in memory), `None` otherwise.
    pub fn spill_metrics(&self) -> Option<&SpillMetrics> {
        self.spill.as_ref()
    }

    /// Materialized-view observability of the query that produced this
    /// result: `Some` when a view's winner set served one of its BMOs, at
    /// any depth of the plan, `None` otherwise.
    pub fn view_activity(&self) -> Option<&ViewActivity> {
        self.views.as_ref()
    }

    /// Buffer-pool counters for the statement that produced this result:
    /// `Some` (a delta over the shared pool — hits, misses, evictions,
    /// write-backs) whenever the session's core runs the paged backend,
    /// `None` on the in-memory default.
    pub fn pool_stats(&self) -> Option<&PoolStats> {
        self.pool.as_ref()
    }

    /// The result schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column names, in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.schema
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect()
    }

    /// All values of column `idx`.
    pub fn column(&self, idx: usize) -> Vec<&Value> {
        self.rows.iter().map(|r| &r[idx]).collect()
    }

    /// All values of column `idx` rendered as strings.
    pub fn column_as_strings(&self, idx: usize) -> Vec<String> {
        self.rows.iter().map(|r| r[idx].to_string()).collect()
    }

    /// All values of column `idx` as i64 (panics on non-integers; test and
    /// example convenience).
    pub fn column_as_ints(&self, idx: usize) -> Vec<i64> {
        self.rows
            .iter()
            .map(|r| r[idx].as_int().expect("integer column"))
            .collect()
    }
}

/// The engine's cumulative counters as a statement starts, so its result
/// can report the statement's own share ([`ResultSet::assemble`]).
pub(crate) struct Baseline {
    /// The shared buffer pool's counters (paged backend only — they are
    /// cumulative across every session on the core).
    pool: Option<PoolStats>,
    dominance: u64,
}

impl Baseline {
    /// Note `engine`'s counters before a statement, discarding the spill
    /// accounting an earlier statement (e.g. an `INSERT … SELECT` whose
    /// join spilled) left behind.
    pub(crate) fn of(engine: &Engine) -> Baseline {
        let _ = engine.take_spill_metrics();
        Baseline {
            pool: (engine.backend_kind() == BackendKind::Paged).then(|| engine.pool_stats()),
            dominance: engine.stats().dominance_tests,
        }
    }
}

impl fmt::Display for ResultSet {
    /// ASCII table rendering, aligned, with a header row.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        widths[i] = widths[i].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        sep(f)?;
        write!(f, "|")?;
        for (h, w) in headers.iter().zip(&widths) {
            write!(f, " {h:w$} |")?;
        }
        writeln!(f)?;
        sep(f)?;
        for row in &rendered {
            write!(f, "|")?;
            for (v, w) in row.iter().zip(&widths) {
                write!(f, " {v:w$} |")?;
            }
            writeln!(f)?;
        }
        sep(f)?;
        writeln!(f, "({} rows)", self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_types::{tuple, Column, DataType};

    fn sample() -> ResultSet {
        ResultSet::new(Relation {
            schema: Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("make", DataType::Str),
            ])
            .unwrap(),
            rows: vec![tuple![1, "audi"], tuple![2, "bmw"]],
        })
    }

    #[test]
    fn accessors() {
        let rs = sample();
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_empty());
        assert_eq!(rs.column_names(), vec!["id", "make"]);
        assert_eq!(rs.column_as_ints(0), vec![1, 2]);
        assert_eq!(rs.column_as_strings(1), vec!["audi", "bmw"]);
    }

    #[test]
    fn display_renders_table() {
        let out = sample().to_string();
        assert!(out.contains("| id | make |"), "{out}");
        assert!(out.contains("| 1  | audi |"), "{out}");
        assert!(out.contains("(2 rows)"), "{out}");
    }
}
