//! The catalog: name → table / view / materialized preference view.
//!
//! It lives in the engine, above storage, because the definitions it
//! holds are compiled: a [`ViewDef`] is the [`Query`] `CREATE VIEW`
//! parsed, a [`MatViewDef`] the query, its compiled preference and its
//! expressions bound against the base table. No statement parses a
//! definition after CREATE.

use crate::matview::MatViewDef;
use prefsql_parser::ast::Query;
use prefsql_rewrite::levels::check_reserved;
use prefsql_storage::Table;
use prefsql_types::{Error, Result};
use std::collections::HashMap;

/// A stored view definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// View name (lower-cased).
    pub name: String,
    /// The defining query as `CREATE VIEW` parsed it; every statement
    /// that reads the view plans it against the tables as they are then.
    pub query: Query,
}

/// Maps names to tables and views.
#[derive(Debug, Default)]
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
        check_reserved(table.schema().columns().iter().map(|c| c.name.as_str()))?;
        let name = table.name().to_owned();
        if self.contains(&name) {
            return Err(Error::Catalog(format!("relation '{name}' already exists")));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Register a view. Fails if any relation of that name exists.
    pub fn create_view(&mut self, name: &str, query: Query) -> Result<()> {
        let name = name.to_ascii_lowercase();
        if self.contains(&name) {
            return Err(Error::Catalog(format!("relation '{name}' already exists")));
        }
        self.views.insert(name.clone(), ViewDef { name, query });
        Ok(())
    }

    /// Register a materialized preference view (its name is lower-cased).
    /// Fails if any relation of that name exists.
    pub fn create_matview(&mut self, mut def: MatViewDef) -> Result<()> {
        def.name = def.name.to_ascii_lowercase();
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

    /// Mark every materialized view on `table` stale: its score rows may no
    /// longer mirror the table's row ids, and its bound expressions may
    /// not fit the table's shape. Stale views refuse reads and skip
    /// maintenance until REFRESH rebuilds them.
    pub(crate) fn mark_views_stale(&mut self, table: &str) {
        let table = table.to_ascii_lowercase();
        for def in self.matviews.values_mut() {
            if def.base_table == table {
                def.stale = true;
            }
        }
    }

    /// Live row count of table `name` ([`Table::len`], an in-memory
    /// length on every backend — no row storage is touched).
    pub fn row_count(&self, name: &str) -> Result<usize> {
        self.table(name).map(Table::len)
    }

    /// Drop a table by name. The materialized views on it go stale: a
    /// table created later under the same name is another table, whatever
    /// its shape, and only REFRESH may bind a view to it.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let name = name.to_ascii_lowercase();
        self.tables
            .remove(&name)
            .ok_or_else(|| Error::Catalog(format!("unknown table '{name}'")))?;
        self.mark_views_stale(&name);
        Ok(())
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
    use crate::Engine;
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
        assert!(c.create_view("r", Query::default()).is_err());
        c.create_view("v", Query::default()).unwrap();
        assert!(c.create_table(t("v")).is_err());
        assert!(c.create_view("V", Query::default()).is_err());
    }

    #[test]
    fn drop_table_and_view() {
        let mut c = Catalog::new();
        c.create_table(t("r")).unwrap();
        c.create_view("v", Query::default()).unwrap();
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
        c.create_view("z", Query::default()).unwrap();
        assert_eq!(c.table_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(c.view_names(), vec!["z".to_string()]);
    }

    /// An engine with tables `a(x)`, `b(x)` and the materialized views
    /// `v1`, `v2` on `a` and `w` on `b`.
    fn engine_with_matviews() -> Engine {
        let mut e = Engine::new();
        for sql in [
            "CREATE TABLE a (x INTEGER)",
            "CREATE TABLE b (x INTEGER)",
            "CREATE MATERIALIZED PREFERENCE VIEW V2 AS SELECT x FROM A PREFERRING LOWEST(x)",
            "CREATE MATERIALIZED PREFERENCE VIEW v1 AS SELECT x FROM a PREFERRING HIGHEST(x)",
            "CREATE MATERIALIZED PREFERENCE VIEW w AS SELECT x FROM b PREFERRING LOWEST(x)",
        ] {
            e.execute_sql(sql).unwrap();
        }
        e
    }

    #[test]
    fn matview_registry_roundtrip() {
        let mut e = engine_with_matviews();
        // Names are lower-cased and collide with every relation kind.
        assert!(e
            .execute_sql(
                "CREATE MATERIALIZED PREFERENCE VIEW V1 AS SELECT x FROM b PREFERRING LOWEST(x)"
            )
            .is_err());
        let mut c = e.catalog_mut();
        assert!(c.contains("v2"));
        assert!(c.create_table(t("v2")).is_err());
        assert!(c.create_view("v2", Query::default()).is_err());
        assert_eq!(c.matview("V2").unwrap().base_table, "a");
        c.matview_mut("v2").unwrap().stale = true;
        assert!(c.matview("v2").unwrap().stale);
        assert_eq!(c.matview_names(), ["v1", "v2", "w"]);
        c.drop_matview("V2").unwrap();
        assert!(c.drop_matview("v2").is_err());
        assert!(!c.contains("v2"));
    }

    #[test]
    fn matviews_on_filters_by_base_table() {
        let e = engine_with_matviews();
        let c = e.catalog();
        assert_eq!(c.matviews_on("A"), ["v1", "v2"]);
        assert_eq!(c.matviews_on("b"), ["w"]);
        assert!(c.matviews_on("c").is_empty());
    }

    /// Dropping a table marks exactly the views on it stale, whether the
    /// drop comes from `DROP TABLE` or straight through the catalog.
    #[test]
    fn drop_table_marks_its_views_stale() {
        let mut e = engine_with_matviews();
        let mut c = e.catalog_mut();
        c.drop_table("A").unwrap();
        assert!(c.matview("v1").unwrap().stale);
        assert!(c.matview("v2").unwrap().stale);
        assert!(!c.matview("w").unwrap().stale);
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
        let query = Query {
            distinct: true,
            ..Query::default()
        };
        c.create_view("AUX", query.clone()).unwrap();
        let v = c.view("aux").unwrap();
        assert_eq!(v.name, "aux");
        assert_eq!(v.query, query);
    }
}
