//! # prefsql-types
//!
//! Foundation crate of the Preference SQL reproduction: SQL values with
//! three-valued comparison semantics, data types, schemas, tuples, a civil
//! date type and the shared error type used across all layers.
//!
//! Everything in the stack — storage, parser, engine, preference model and
//! the rewriter — speaks in terms of [`Value`], [`DataType`], [`Schema`] and
//! [`Tuple`] defined here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod date;
pub mod error;
pub mod knobs;
pub mod schema;
pub mod tuple;
pub mod value;

pub use date::Date;
pub use error::{Error, Result};
pub use schema::{Column, Schema};
pub use tuple::Tuple;
pub use value::{DataType, Key, Value};
