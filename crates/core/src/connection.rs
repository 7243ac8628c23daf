//! The connection facade — the in-process equivalent of the paper's
//! "Preference ODBC/JDBC driver" (§3.1): applications submit Preference
//! SQL; preference queries are rewritten to standard SQL and forwarded to
//! the host engine; everything else passes through untouched.
//!
//! All execution state lives in [`Session`], so the driver *is* a
//! session: [`PrefSqlConnection::new`] is one over its own private
//! `EngineCore`, [`PrefSqlConnection::with_core`] one of many against a
//! shared catalog (what the `prefsql-server` front end opens per
//! connection).

use crate::session::Session;

pub use crate::session::{ExecutionMode, QueryResult};

/// An in-process Preference SQL connection: rewriter + host engine +
/// named-preference registry, in one self-contained [`Session`].
pub type PrefSqlConnection = Session;
