//! # prefsql-engine
//!
//! A SQL92-entry-level execution engine over `prefsql-storage` — the *host
//! DBMS* of the paper's architecture (§3.1). The Preference SQL rewriter
//! emits plain SQL; this engine executes it, exactly as Informix/Oracle/DB2
//! did for the original system.
//!
//! Supported: SELECT (projection, `*`/`t.*`, expressions, aliases,
//! DISTINCT), FROM (tables, views, derived tables, INNER/CROSS JOIN),
//! WHERE with three-valued logic, correlated and uncorrelated sub-queries
//! (`EXISTS`, `IN`, scalar), `CASE`, `LIKE`, arithmetic, `ABS` and friends,
//! GROUP BY / HAVING with `COUNT`/`SUM`/`AVG`/`MIN`/`MAX`, ORDER BY, LIMIT,
//! INSERT (VALUES and SELECT), CREATE/DROP TABLE/VIEW/INDEX, and EXPLAIN.
//!
//! A block with `PREFERRING` — a statement's own, a derived table, a view
//! body, an INSERT source — plans its BMO selection as one more node
//! ([`PlanNode::Preference`], operator in [`preference`]) of the same
//! tree, executed, explained and `EXPLAIN ANALYZE`d like the rest; the
//! `prefsql` facade's native mode sends statements here as they are. An
//! expression sub-query refuses `PREFERRING` (paper §2.2.5), and a block
//! without it refuses the quality functions.
//!
//! A session's knobs — `\algo`, `\threads`, the drive batch and
//! `\window` — are one [`NativeOptions`] value ([`knobs`]), held by its
//! [`Engine`] and copied into every statement's [`ExecCtx`], where the
//! planner reads them. [`knobs`] is also the one module that reads the
//! `PREFSQL_*` environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod bind;
pub mod catalog;
pub mod eval;
pub mod exec;
pub mod explain;
pub mod join;
pub mod knobs;
mod matview;
pub mod metrics;
pub mod physical;
pub mod plan;
pub mod preference;
pub mod program;
mod prune;

pub use catalog::{Catalog, ViewDef};
pub use exec::{BackendKind, Engine, EngineCore, ExecCtx, ExecOutcome, ExecStats, Relation};
pub use knobs::NativeOptions;
pub use matview::MatViewDef;
pub use metrics::{MetricsRegistry, NodeMetrics, Profiler};
pub use physical::{BoxOperator, Operator};
pub use plan::{PlanNode, QueryPlan};
