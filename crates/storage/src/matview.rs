//! Materialized preference views: stored state for incremental skyline
//! maintenance.
//!
//! A `CREATE MATERIALIZED PREFERENCE VIEW` stores, per base-table row, the
//! evaluated preference slot vector and whether the row passes the view's
//! WHERE clause, plus one list: the row ids of the current *winners*. It
//! stores no rows: the base table owns them, and a read of the view
//! fetches its winners from the table by row id. The invariant maintained
//! by the engine is
//!
//! ```text
//! winners == the maximal set of the qualifying entries, ascending
//! ```
//!
//! Preferences are strict partial orders, so in a finite table every
//! qualifying row that is not a winner is beaten by some winner. That is
//! all maintenance needs: an INSERT compares the new row with the winners
//! only, and a DELETE of a winner re-examines only the rows it beat. The
//! storage layer only holds the data; the dominance algebra lives in
//! `prefsql-pref` and the hook points in `prefsql-engine` (the crate
//! dependency order forbids anything smarter here, just like
//! [`crate::catalog::ViewDef`] stores SQL text).

use prefsql_types::{Schema, Value};

/// Per-base-row state tracked by a materialized preference view.
///
/// Entries mirror the base table's row ids 1:1 and in order: INSERT
/// appends, DELETE compacts exactly as [`crate::Table::delete_rows`] does,
/// UPDATE replaces in place. Serving depends on this mirroring — the
/// position of a winner's entry *is* the row id its row is fetched by —
/// and reading the view (winners, in entry order) is byte-identical to
/// running the defining BMO query from scratch, the order contract every
/// skyline algorithm in `prefsql-pref` honours. A DML statement that
/// breaks the mirroring marks the view stale.
#[derive(Debug, Clone, PartialEq)]
pub struct MatViewEntry {
    /// The evaluated base-preference expressions of this row.
    pub slots: Vec<Value>,
    /// True iff the row passed the view's WHERE clause. Non-qualifying
    /// rows are tracked (to keep ids aligned) but never compete.
    pub qualifies: bool,
}

/// A stored materialized preference view.
#[derive(Debug, Clone, PartialEq)]
pub struct MatViewDef {
    /// View name (lower-cased).
    pub name: String,
    /// The defining query in canonical SQL text (used for plan matching
    /// and for recompiling the preference on maintenance).
    pub sql: String,
    /// The single base table the view reads (lower-cased).
    pub base_table: String,
    /// The base-table schema under the view's qualifier: the schema the
    /// defining query's slot expressions evaluate against, and the one
    /// the winner rows fetched from the base table are read under.
    pub schema: Schema,
    /// One entry per base-table row, in row-id order.
    pub entries: Vec<MatViewEntry>,
    /// The view contents: positions in [`MatViewDef::entries`] (= base
    /// row ids) of the maximal set of the qualifying entries, ascending.
    pub winners: Vec<usize>,
    /// True when maintenance could not keep the view current (e.g. the
    /// base table was dropped, a maintenance step failed, or a DML
    /// statement failed after changing the table). Stale views
    /// refuse reads until `REFRESH MATERIALIZED PREFERENCE VIEW` rebuilds
    /// them.
    pub stale: bool,
}

impl MatViewDef {
    /// The current view contents as base row ids, ascending — the order
    /// the defining BMO query returns them in. The planner takes them once
    /// per statement and the scan fetches the rows from
    /// [`MatViewDef::base_table`] by id.
    pub fn winner_ids(&self) -> Vec<usize> {
        self.winners.clone()
    }

    /// Number of rows currently served by the view.
    pub fn winner_count(&self) -> usize {
        self.winners.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_types::{Column, DataType};

    #[test]
    fn winners_preserve_entry_order() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        let entry = |x: i64| MatViewEntry {
            slots: vec![Value::Int(x)],
            qualifies: true,
        };
        let v = MatViewDef {
            name: "v".into(),
            sql: "SELECT x FROM t PREFERRING LOWEST x".into(),
            base_table: "t".into(),
            schema,
            entries: vec![entry(3), entry(9), entry(3)],
            winners: vec![0, 2],
            stale: false,
        };
        assert_eq!(v.winner_ids(), vec![0, 2]);
        assert_eq!(v.winner_count(), 2);
    }
}
