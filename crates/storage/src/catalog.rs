//! The catalog: name → table / view resolution.
//!
//! Views are stored as SQL text and expanded by the engine's planner (the
//! storage layer cannot parse SQL — that would invert the crate dependency
//! order). This matches how the paper's rewriter materializes its `Aux`
//! relation through `CREATE VIEW`.

use crate::matview::MatViewDef;
use crate::table::Table;
use prefsql_types::{Error, Result};
use std::collections::HashMap;

/// A stored view definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    /// View name (lower-cased).
    pub name: String,
    /// The defining query, as SQL text.
    pub sql: String,
}

/// Maps names to tables and views.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    views: HashMap<String, ViewDef>,
    matviews: HashMap<String, MatViewDef>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table. Fails if any relation of that name exists.
    pub fn create_table(&mut self, table: Table) -> Result<()> {
        let name = table.name().to_owned();
        if self.contains(&name) {
            return Err(Error::Catalog(format!("relation '{name}' already exists")));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Register a view. Fails if any relation of that name exists.
    pub fn create_view(&mut self, name: impl Into<String>, sql: impl Into<String>) -> Result<()> {
        let name = name.into().to_ascii_lowercase();
        if self.contains(&name) {
            return Err(Error::Catalog(format!("relation '{name}' already exists")));
        }
        self.views.insert(
            name.clone(),
            ViewDef {
                name,
                sql: sql.into(),
            },
        );
        Ok(())
    }

    /// Register a materialized preference view (its name is lower-cased).
    /// Fails if any relation of that name exists.
    pub fn create_matview(&mut self, mut def: MatViewDef) -> Result<()> {
        def.name = def.name.to_ascii_lowercase();
        def.base_table = def.base_table.to_ascii_lowercase();
        if self.contains(&def.name) {
            return Err(Error::Catalog(format!(
                "relation '{}' already exists",
                def.name
            )));
        }
        self.matviews.insert(def.name.clone(), def);
        Ok(())
    }

    /// Drop a materialized preference view by name.
    pub fn drop_matview(&mut self, name: &str) -> Result<()> {
        let name = name.to_ascii_lowercase();
        self.matviews
            .remove(&name)
            .map(|_| ())
            .ok_or_else(|| Error::Catalog(format!("unknown materialized preference view '{name}'")))
    }

    /// Look up a materialized preference view.
    pub fn matview(&self, name: &str) -> Option<&MatViewDef> {
        self.matviews.get(&name.to_ascii_lowercase())
    }

    /// Mutable materialized-view lookup (maintenance, REFRESH).
    pub fn matview_mut(&mut self, name: &str) -> Option<&mut MatViewDef> {
        self.matviews.get_mut(&name.to_ascii_lowercase())
    }

    /// All materialized preference view names, sorted.
    pub fn matview_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.matviews.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Names of the materialized views whose base table is `base`,
    /// sorted — the set the engine must maintain after DML on `base`.
    pub fn matviews_on(&self, base: &str) -> Vec<String> {
        let base = base.to_ascii_lowercase();
        let mut names: Vec<String> = self
            .matviews
            .values()
            .filter(|v| v.base_table == base)
            .map(|v| v.name.clone())
            .collect();
        names.sort_unstable();
        names
    }

    /// Live row count of table `name` ([`Table::len`], an in-memory
    /// length on every backend — no row storage is touched).
    pub fn row_count(&self, name: &str) -> Result<usize> {
        self.table(name).map(Table::len)
    }

    /// Drop a table by name.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let name = name.to_ascii_lowercase();
        self.tables
            .remove(&name)
            .map(|_| ())
            .ok_or_else(|| Error::Catalog(format!("unknown table '{name}'")))
    }

    /// Drop a view by name.
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        let name = name.to_ascii_lowercase();
        self.views
            .remove(&name)
            .map(|_| ())
            .ok_or_else(|| Error::Catalog(format!("unknown view '{name}'")))
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        let lname = name.to_ascii_lowercase();
        self.tables
            .get(&lname)
            .ok_or_else(|| Error::Catalog(format!("unknown table '{lname}'")))
    }

    /// Mutable table lookup (INSERT, CREATE INDEX).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let lname = name.to_ascii_lowercase();
        self.tables
            .get_mut(&lname)
            .ok_or_else(|| Error::Catalog(format!("unknown table '{lname}'")))
    }

    /// Look up a view definition.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(&name.to_ascii_lowercase())
    }

    /// True if `name` refers to a table, a view, or a materialized view.
    pub fn contains(&self, name: &str) -> bool {
        let n = name.to_ascii_lowercase();
        self.tables.contains_key(&n)
            || self.views.contains_key(&n)
            || self.matviews.contains_key(&n)
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// All view names, sorted.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.keys().cloned().collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_types::{Column, DataType, Schema};

    fn t(name: &str) -> Table {
        Table::new(
            name,
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
    }

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::new();
        c.create_table(t("cars")).unwrap();
        assert!(c.table("cars").is_ok());
        assert!(c.table("CARS").is_ok()); // case-insensitive
        assert!(c.table("nope").is_err());
        assert!(c.contains("cars"));
    }

    #[test]
    fn duplicate_names_rejected_across_kinds() {
        let mut c = Catalog::new();
        c.create_table(t("r")).unwrap();
        assert!(c.create_table(t("r")).is_err());
        assert!(c.create_view("r", "SELECT 1").is_err());
        c.create_view("v", "SELECT 1").unwrap();
        assert!(c.create_table(t("v")).is_err());
        assert!(c.create_view("V", "SELECT 2").is_err());
    }

    #[test]
    fn drop_table_and_view() {
        let mut c = Catalog::new();
        c.create_table(t("r")).unwrap();
        c.create_view("v", "SELECT 1").unwrap();
        c.drop_table("R").unwrap();
        assert!(!c.contains("r"));
        assert!(c.drop_table("r").is_err());
        c.drop_view("v").unwrap();
        assert!(c.view("v").is_none());
    }

    #[test]
    fn names_listing() {
        let mut c = Catalog::new();
        c.create_table(t("b")).unwrap();
        c.create_table(t("a")).unwrap();
        c.create_view("z", "SELECT 1").unwrap();
        assert_eq!(c.table_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(c.view_names(), vec!["z".to_string()]);
    }

    fn mv(name: &str, base: &str) -> MatViewDef {
        MatViewDef {
            name: name.into(),
            sql: format!("SELECT x FROM {base} PREFERRING LOWEST x"),
            base_table: base.into(),
            schema: Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
            entries: Vec::new(),
            winners: Vec::new(),
            stale: false,
        }
    }

    #[test]
    fn matview_registry_roundtrip() {
        let mut c = Catalog::new();
        c.create_table(t("cars")).unwrap();
        c.create_matview(mv("Best", "CARS")).unwrap();
        // Names are lower-cased and collide with every relation kind.
        assert!(c.contains("best"));
        assert!(c.create_table(t("best")).is_err());
        assert!(c.create_view("best", "SELECT 1").is_err());
        assert!(c.create_matview(mv("BEST", "cars")).is_err());
        let v = c.matview("BEST").unwrap();
        assert_eq!(v.base_table, "cars");
        c.matview_mut("best").unwrap().stale = true;
        assert!(c.matview("best").unwrap().stale);
        assert_eq!(c.matview_names(), vec!["best".to_string()]);
        c.drop_matview("Best").unwrap();
        assert!(c.drop_matview("best").is_err());
        assert!(!c.contains("best"));
    }

    #[test]
    fn matviews_on_filters_by_base_table() {
        let mut c = Catalog::new();
        c.create_table(t("a")).unwrap();
        c.create_table(t("b")).unwrap();
        c.create_matview(mv("v2", "a")).unwrap();
        c.create_matview(mv("v1", "a")).unwrap();
        c.create_matview(mv("w", "b")).unwrap();
        assert_eq!(c.matviews_on("A"), vec!["v1".to_string(), "v2".to_string()]);
        assert_eq!(c.matviews_on("b"), vec!["w".to_string()]);
        assert!(c.matviews_on("c").is_empty());
    }

    #[test]
    fn row_count_tracks_table_statistics() {
        let mut c = Catalog::new();
        c.create_table(t("r")).unwrap();
        assert_eq!(c.row_count("r").unwrap(), 0);
        let tab = c.table_mut("r").unwrap();
        for i in 0..5 {
            tab.insert(prefsql_types::tuple![i]).unwrap();
        }
        assert_eq!(c.row_count("R").unwrap(), 5);
        c.table_mut("r").unwrap().delete_rows(&[0, 3]).unwrap();
        assert_eq!(c.row_count("r").unwrap(), 3);
        assert!(c.row_count("missing").is_err());
    }

    #[test]
    fn view_definition_roundtrip() {
        let mut c = Catalog::new();
        c.create_view("aux", "SELECT * FROM cars").unwrap();
        let v = c.view("AUX").unwrap();
        assert_eq!(v.name, "aux");
        assert_eq!(v.sql, "SELECT * FROM cars");
    }
}
