//! # prefsql-storage
//!
//! The storage substrate of the Preference SQL reproduction: in-memory
//! heap tables, hash and ordered (B-tree) secondary indexes, and a catalog
//! mapping names to tables and view definitions.
//!
//! The paper runs Preference SQL as a pre-processor in front of a host SQL
//! DBMS (Informix, Oracle, DB2, Sybase). This crate plus `prefsql-engine`
//! *is* our host DBMS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod catalog;
pub mod codec;
pub mod heap;
pub mod index;
pub mod matview;
pub mod page;
pub mod pool;
pub mod spill;
pub mod synopsis;
pub mod table;

pub use backend::{MemBackend, PagedBackend, StorageBackend};
pub use catalog::{Catalog, ViewDef};
pub use heap::HeapFile;
pub use index::{BTreeIndex, HashIndex, IndexKind};
pub use matview::{MatViewDef, MatViewEntry};
pub use pool::{BufferPool, PoolStats};
pub use spill::{RunReader, RunWriter, SpillManager, SpillRun};
pub use synopsis::{PageFilter, Sarg};
pub use table::Table;
