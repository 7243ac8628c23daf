//! # Preference SQL
//!
//! A full reproduction of *"Preference SQL — Design, Implementation,
//! Experiences"* (Kießling & Köstler, VLDB 2002): standard SQL extended
//! with **preferences as strict partial orders**, executed by rewriting
//! preference queries into plain SQL92 over a bundled host engine.
//!
//! ```text
//! application ──► PrefSqlConnection ──► Preference SQL optimizer (rewrite)
//!                                            │ standard SQL
//!                                            ▼
//!                                       host SQL engine ──► storage
//! ```
//!
//! Concurrency: all shared engine state lives in a `Send + Sync`
//! [`engine::EngineCore`]; each connection is a [`Session`]
//! ([`PrefSqlConnection`] is the paper's name for it) carrying its own
//! execution mode and private spill directory; its `\algo`, threads and
//! window knobs are one [`NativeOptions`] value held by its engine
//! façade, which every statement runs under. [`Session::new`] makes a
//! private core; [`Session::with_core`] shares one across threads (that
//! is what the `prefsql-server` TCP front end does, one session per
//! connection).
//!
//! # Quickstart
//!
//! ```
//! use prefsql::PrefSqlConnection;
//!
//! let mut conn = PrefSqlConnection::new();
//! conn.execute("CREATE TABLE trips (dest VARCHAR, duration INTEGER)").unwrap();
//! conn.execute("INSERT INTO trips VALUES ('Rome', 10), ('Oslo', 14), ('Pisa', 21)").unwrap();
//!
//! // Soft constraint: 14 days if possible, otherwise as close as possible.
//! let rs = conn.query("SELECT dest FROM trips PREFERRING duration AROUND 14").unwrap();
//! assert_eq!(rs.column_as_strings(0), vec!["Oslo"]);
//!
//! // Even with no exact match, the best alternatives come back — never an
//! // empty result unless the table itself is empty.
//! let rs = conn.query("SELECT dest FROM trips PREFERRING duration AROUND 12").unwrap();
//! assert_eq!(rs.column_as_strings(0), vec!["Rome", "Oslo"]);
//! ```
//!
//! The crate re-exports the full stack: [`parser`], [`engine`], [`pref`]
//! (the preference algebra and skyline algorithms), [`rewrite`] (the
//! optimizer) and [`types`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connection;
pub(crate) mod footer;
pub mod native;
pub mod result;
pub mod session;
pub mod shell;

pub use connection::{ExecutionMode, PrefSqlConnection, QueryResult};
pub use native::{NativeOptions, SkylineAlgo, SpillMetrics};
pub use result::{ResultSet, ViewActivity};
pub use session::Session;

/// Re-export: the host SQL engine.
pub use prefsql_engine as engine;
/// Re-export: SQL + Preference SQL parser.
pub use prefsql_parser as parser;
/// Re-export: the preference model and skyline algorithms.
pub use prefsql_pref as pref;
/// Re-export: the Preference SQL optimizer.
pub use prefsql_rewrite as rewrite;
/// Re-export: storage layer.
pub use prefsql_storage as storage;
/// Re-export: value/type/schema substrate.
pub use prefsql_types as types;

pub use prefsql_types::{Date, Error, Result, Value};
