//! TCP front end for Preference SQL — the layer that turns the library
//! into the *service* the paper actually deployed (§3.1's middleware
//! fielding live portal traffic).
//!
//! ```text
//! prefsql-client ──TCP──►┌──────────────────┐
//! prefsql-client ──TCP──►│  prefsql-server  │  thread per connection
//!        ...             └────────┬─────────┘
//!                          Session per conn (knobs, rewriter, spill dir)
//!                                 │
//!                          EngineCore (shared catalog, RwLock)
//! ```
//!
//! Three pieces:
//!
//! * [`protocol`] — the line-oriented wire format: one request line in,
//!   a block of prefixed payload lines terminated by `OK …` /
//!   `ERROR: …` out.
//! * [`server`] — [`Server`]: a thread-per-connection
//!   `std::net::TcpListener` loop; every accepted connection gets its
//!   own [`prefsql::Session`] over the shared
//!   [`EngineCore`](prefsql_engine::EngineCore).
//! * [`client`] — [`Client`]: a small blocking client used by the
//!   tests, the bench harness and the `prefsql-client` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, Response};
pub use server::{Server, ServerHandle, DEFAULT_MAX_CONNECTIONS, MAX_REQUEST_BYTES};
