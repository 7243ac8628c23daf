//! Materialized preference views: stored state for incremental skyline
//! maintenance.
//!
//! A `CREATE MATERIALIZED PREFERENCE VIEW` stores, per base-table row, the
//! evaluated preference slot vector plus bookkeeping that makes DML
//! maintenance incremental: each qualifying row carries the number of
//! *winners* that dominate it. It stores no rows: the base table owns
//! them, and a read of the view fetches its winners from the table by row
//! id. The invariant maintained by the engine is
//!
//! ```text
//! e.dominators == |{ w : w.winner && better(w.slots, e.slots) }|
//! e.winner     ⇔  e.qualifies && e.dominators == 0
//! ```
//!
//! which lets an INSERT run one dominance pass against the current entries
//! and a DELETE of a winner promote exactly the rows it exclusively
//! dominated — no full recomputation. The storage layer only holds the
//! data; the dominance algebra lives in `prefsql-pref` and the hook points
//! in `prefsql-engine` (the crate dependency order forbids anything
//! smarter here, just like [`crate::catalog::ViewDef`] stores SQL text).

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
    /// True iff the row is currently in the BMO result.
    pub winner: bool,
    /// Number of winners strictly better than this row (0 for winners).
    pub dominators: u32,
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
    /// True when maintenance could not keep the view current (e.g. the
    /// base table was dropped, a maintenance step failed, or a DML
    /// statement failed after changing the table). Stale views
    /// refuse reads until `REFRESH MATERIALIZED PREFERENCE VIEW` rebuilds
    /// them.
    pub stale: bool,
}

impl MatViewDef {
    /// The current view contents as entry positions (= base row ids):
    /// the winners, in entry order. One pass over the entries — the
    /// planner takes it once per statement and the scan fetches the rows
    /// from [`MatViewDef::base_table`] by id.
    pub fn winner_ids(&self) -> Vec<usize> {
        let winners = self.entries.iter().enumerate().filter(|(_, e)| e.winner);
        winners.map(|(i, _)| i).collect()
    }

    /// Number of rows currently served by the view.
    pub fn winner_count(&self) -> usize {
        self.entries.iter().filter(|e| e.winner).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_types::{Column, DataType};

    #[test]
    fn winners_preserve_entry_order() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        let entry = |x: i64, winner: bool| MatViewEntry {
            slots: vec![Value::Int(x)],
            qualifies: true,
            winner,
            dominators: u32::from(!winner),
        };
        let v = MatViewDef {
            name: "v".into(),
            sql: "SELECT x FROM t PREFERRING LOWEST x".into(),
            base_table: "t".into(),
            schema,
            entries: vec![entry(3, true), entry(9, false), entry(3, true)],
            stale: false,
        };
        assert_eq!(v.winner_ids(), vec![0, 2]);
        assert_eq!(v.winner_count(), 2);
    }
}
