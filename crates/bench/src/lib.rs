//! Shared harness code for the experiment benchmarks (E1–E5, A1, A2).
//!
//! The README's *Build & test* section shows how to run them, and its
//! per-subsystem sections (parallel skyline, external-memory skyline,
//! joins, storage backends) hold the recorded bench results.
//! Benchmarks scale with `PREFSQL_BENCH_ROWS` (default
//! 20 000 profile rows — the paper used 1.4 M on a 332 MHz AIX box; the
//! cost *structure* of E1 depends on the candidate-set size, which is
//! pinned to the paper's 300/600/1000 regardless of the base-table size).

#![forbid(unsafe_code)]

use prefsql::{PrefSqlConnection, ResultSet};
use prefsql_storage::Table;
use prefsql_workload::jobs;

/// Base-table size for the E1 job-search benchmark.
pub fn bench_rows() -> usize {
    std::env::var("PREFSQL_BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000)
}

/// A connection pre-loaded with one table.
pub fn conn_with(table: Table) -> PrefSqlConnection {
    let mut conn = PrefSqlConnection::new();
    conn.engine_mut()
        .catalog_mut()
        .create_table(table)
        .expect("fresh catalog");
    conn
}

/// The three §3.3 query strategies over the job-profile relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// SQL solution 1: four conjunctive WHERE conditions.
    Conjunctive,
    /// SQL solution 2: four disjunctive WHERE conditions.
    Disjunctive,
    /// Preference SQL: four Pareto-accumulated PREFERRING conditions.
    Preference,
}

impl Strategy {
    /// All three, in the paper's order.
    pub const ALL: [Strategy; 3] = [
        Strategy::Conjunctive,
        Strategy::Disjunctive,
        Strategy::Preference,
    ];

    /// Row label used in the experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Conjunctive => "SQL solution 1 (conjunctive)",
            Strategy::Disjunctive => "SQL solution 2 (disjunctive)",
            Strategy::Preference => "Preference SQL (4x Pareto)",
        }
    }
}

/// The fully assembled E1 benchmark query for one strategy.
pub fn e1_query(pre: &str, condition_set: usize, strategy: Strategy) -> String {
    let criteria = jobs::second_selection(condition_set);
    let hard: Vec<&str> = criteria.iter().map(|(h, _)| *h).collect();
    let soft: Vec<&str> = criteria.iter().map(|(_, s)| *s).collect();
    match strategy {
        Strategy::Conjunctive => format!(
            "SELECT id FROM profiles WHERE {pre} AND {}",
            hard.join(" AND ")
        ),
        Strategy::Disjunctive => format!(
            "SELECT id FROM profiles WHERE {pre} AND ({})",
            hard.join(" OR ")
        ),
        Strategy::Preference => format!(
            "SELECT id FROM profiles WHERE {pre} PREFERRING {}",
            soft.join(" AND ")
        ),
    }
}

/// Set up the E1 environment: a loaded, indexed connection plus the
/// pre-selection predicates tuned to the paper's candidate-set sizes.
pub struct E1Setup {
    /// The loaded connection.
    pub conn: PrefSqlConnection,
    /// `(target_size, predicate, actual_size)` per paper row.
    pub preselections: Vec<(usize, String, usize)>,
}

/// Build the E1 environment for `rows` base tuples.
pub fn e1_setup(rows: usize, seed: u64) -> E1Setup {
    let table = jobs::table(rows, seed);
    let mut preselections = Vec::new();
    for target in [300usize, 600, 1000] {
        let (region, lo, hi, actual) = jobs::preselection_for_size(&table, target);
        preselections.push((
            target,
            format!("region = {region} AND salary BETWEEN {lo} AND {hi}"),
            actual,
        ));
    }
    let mut conn = conn_with(table);
    conn.execute("CREATE INDEX idx_region ON profiles (region) USING hash")
        .expect("index DDL");
    conn.execute("CREATE INDEX idx_salary ON profiles (salary)")
        .expect("index DDL");
    E1Setup {
        conn,
        preselections,
    }
}

/// Run a query and return its result set (panics on failure — benchmark
/// queries are static).
pub fn run(conn: &mut PrefSqlConnection, sql: &str) -> ResultSet {
    conn.query(sql)
        .unwrap_or_else(|e| panic!("benchmark query failed: {e}\n{sql}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_setup_produces_three_preselections() {
        let mut s = e1_setup(5_000, 1);
        assert_eq!(s.preselections.len(), 3);
        for (target, pre, actual) in s.preselections.clone() {
            assert!(actual > 0, "target {target} found nothing");
            let rs = run(
                &mut s.conn,
                &format!("SELECT COUNT(*) FROM profiles WHERE {pre}"),
            );
            assert_eq!(rs.rows()[0][0].as_int().unwrap() as usize, actual);
        }
    }

    #[test]
    fn e1_queries_run_under_all_strategies() {
        let mut s = e1_setup(3_000, 2);
        let (_, pre, _) = s.preselections[0].clone();
        for cond in [0, 1] {
            for strat in Strategy::ALL {
                let rs = run(&mut s.conn, &e1_query(&pre, cond, strat));
                // Preference SQL never returns an empty set on a non-empty
                // candidate set.
                if strat == Strategy::Preference {
                    assert!(!rs.is_empty());
                }
            }
        }
    }
}
