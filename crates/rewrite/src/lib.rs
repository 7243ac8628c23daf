//! # prefsql-rewrite
//!
//! The **Preference SQL optimizer** (paper §3.2): translates preference
//! queries into SQL92-entry-level standard SQL, "piggybacking on the power
//! of the host SQL system".
//!
//! The rewrite of `SELECT s FROM f WHERE w PREFERRING P [GROUPING g]
//! [BUT ONLY b] [ORDER BY o]` is a single self-contained query:
//!
//! ```sql
//! SELECT s' FROM (SELECT *, <level exprs> FROM f WHERE w) prefsql_a1
//! WHERE b'(prefsql_a1)
//!   AND NOT EXISTS (
//!     SELECT 1 FROM (SELECT *, <level exprs> FROM f WHERE w) prefsql_a2
//!     WHERE b'(prefsql_a2)
//!       AND <grouping equality>
//!       AND <prefsql_a2 dominates prefsql_a1>)
//! ORDER BY o'
//! ```
//!
//! where each base preference contributes one computed *level/distance
//! column* (`CASE`/`ABS` arithmetic, exactly the paper's `Makelevel` /
//! `Diesellevel` construction), dominance is composed structurally from the
//! Pareto/prioritization tree, and the quality functions `TOP`, `LEVEL`,
//! `DISTANCE` in the select list or `BUT ONLY` clause are substituted by
//! expressions over the level columns.
//!
//! Non-preference statements pass through untouched (§3.1: "queries without
//! preferences are just passed through ... without causing any noticeable
//! overhead").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod levels;
pub mod registry;
pub mod rewriter;

pub use compile::{compile_preference, CompiledPreference};
pub use registry::PreferenceRegistry;
pub use rewriter::{
    map_blocks, map_query, preferring_in_subquery, rewrite_query, rewrite_statement, RewriteOutput,
    Rewriter,
};
