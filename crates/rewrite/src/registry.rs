//! Persistent named preferences — the Preference Definition Language
//! (paper §2.2: "they can be defined as persistent objects using a
//! Preference Definition Language").

use prefsql_parser::ast::{PrefExpr, Query};
use prefsql_types::{Error, Result};
use std::collections::HashMap;

/// Stores `CREATE PREFERENCE` objects and resolves [`PrefExpr::Named`]
/// references, including references between named preferences.
#[derive(Debug, Default, Clone)]
pub struct PreferenceRegistry {
    prefs: HashMap<String, PrefExpr>,
}

impl PreferenceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PreferenceRegistry::default()
    }

    /// Register a named preference (`CREATE PREFERENCE name AS pref`).
    /// The definition may reference other named preferences, but must
    /// resolve acyclically at creation time.
    pub fn create(&mut self, name: impl Into<String>, pref: PrefExpr) -> Result<()> {
        let name = name.into().to_ascii_lowercase();
        if self.prefs.contains_key(&name) {
            return Err(Error::Catalog(format!(
                "preference '{name}' already exists"
            )));
        }
        // Validate resolvability (and acyclicity) before storing.
        let mut trail = vec![name.clone()];
        self.resolve_with_trail(&pref, &mut trail)?;
        self.prefs.insert(name, pref);
        Ok(())
    }

    /// Drop a named preference.
    pub fn drop(&mut self, name: &str) -> Result<()> {
        let name = name.to_ascii_lowercase();
        self.prefs
            .remove(&name)
            .map(|_| ())
            .ok_or_else(|| Error::Catalog(format!("unknown preference '{name}'")))
    }

    /// Look up a named preference's definition.
    pub fn get(&self, name: &str) -> Option<&PrefExpr> {
        self.prefs.get(&name.to_ascii_lowercase())
    }

    /// All names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut n: Vec<String> = self.prefs.keys().cloned().collect();
        n.sort_unstable();
        n
    }

    /// Replace every [`PrefExpr::Named`] node by its stored definition,
    /// recursively.
    pub fn resolve(&self, pref: &PrefExpr) -> Result<PrefExpr> {
        let mut trail = Vec::new();
        self.resolve_with_trail(pref, &mut trail)
    }

    /// `block` with the named preferences of its `PREFERRING` clause
    /// resolved, or `None` when it names none (the block is then used as
    /// it is, not cloned). Native mode runs this over every block of a
    /// statement ([`crate::map_blocks`]): the engine has no registry.
    pub fn resolve_block(&self, block: &Query) -> Result<Option<Query>> {
        let Some(pref) = &block.preferring else {
            return Ok(None);
        };
        let names_one = pref
            .base_prefs()
            .iter()
            .any(|base| matches!(base, PrefExpr::Named(_)));
        if !names_one {
            return Ok(None);
        }
        Ok(Some(Query {
            preferring: Some(self.resolve(pref)?),
            ..block.clone()
        }))
    }

    fn resolve_with_trail(&self, pref: &PrefExpr, trail: &mut Vec<String>) -> Result<PrefExpr> {
        match pref {
            PrefExpr::Named(name) => {
                let lname = name.to_ascii_lowercase();
                if trail.contains(&lname) {
                    return Err(Error::Plan(format!(
                        "named preference cycle involving '{lname}'"
                    )));
                }
                let def = self
                    .prefs
                    .get(&lname)
                    .ok_or_else(|| Error::Catalog(format!("unknown preference '{lname}'")))?;
                trail.push(lname);
                let resolved = self.resolve_with_trail(def, trail)?;
                trail.pop();
                Ok(resolved)
            }
            PrefExpr::Pareto(parts) => Ok(PrefExpr::Pareto(
                parts
                    .iter()
                    .map(|p| self.resolve_with_trail(p, trail))
                    .collect::<Result<_>>()?,
            )),
            PrefExpr::Prioritized(parts) => Ok(PrefExpr::Prioritized(
                parts
                    .iter()
                    .map(|p| self.resolve_with_trail(p, trail))
                    .collect::<Result<_>>()?,
            )),
            leaf => Ok(leaf.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_parser::ast::Expr;

    fn lowest(col: &str) -> PrefExpr {
        PrefExpr::Lowest {
            expr: Expr::col(col),
        }
    }

    #[test]
    fn create_and_resolve() {
        let mut r = PreferenceRegistry::new();
        r.create("cheap", lowest("price")).unwrap();
        let resolved = r.resolve(&PrefExpr::Named("CHEAP".into())).unwrap();
        assert_eq!(resolved, lowest("price"));
    }

    #[test]
    fn nested_named_references() {
        let mut r = PreferenceRegistry::new();
        r.create("cheap", lowest("price")).unwrap();
        r.create(
            "combo",
            PrefExpr::Pareto(vec![PrefExpr::Named("cheap".into()), lowest("mileage")]),
        )
        .unwrap();
        let resolved = r.resolve(&PrefExpr::Named("combo".into())).unwrap();
        assert_eq!(
            resolved,
            PrefExpr::Pareto(vec![lowest("price"), lowest("mileage")])
        );
    }

    #[test]
    fn unknown_and_duplicate() {
        let mut r = PreferenceRegistry::new();
        assert!(r.resolve(&PrefExpr::Named("nope".into())).is_err());
        r.create("p", lowest("x")).unwrap();
        assert!(r.create("p", lowest("y")).is_err());
        // Definitions referencing unknown preferences are rejected eagerly.
        assert!(r.create("q", PrefExpr::Named("missing".into())).is_err());
    }

    #[test]
    fn drop_preference() {
        let mut r = PreferenceRegistry::new();
        r.create("p", lowest("x")).unwrap();
        assert_eq!(r.names(), vec!["p".to_string()]);
        r.drop("P").unwrap();
        assert!(r.drop("p").is_err());
        assert!(r.names().is_empty());
    }

    #[test]
    fn self_reference_rejected() {
        let mut r = PreferenceRegistry::new();
        // Can't be created (validated eagerly), so simulate resolution of a
        // self-referential term directly.
        let err = r.create("selfy", PrefExpr::Named("selfy".into()));
        // 'selfy' is unknown at creation *and* cyclic; either error is fine
        // as long as creation fails.
        assert!(err.is_err());
    }
}
