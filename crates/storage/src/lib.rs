//! # prefsql-storage
//!
//! The storage substrate of the Preference SQL reproduction: tables on
//! two row stores (in memory, or slotted heap-file pages behind a shared
//! buffer pool), hash and ordered (B-tree) secondary indexes, and spill
//! runs. It stores rows and nothing else: the catalog that maps names to
//! tables and compiled view definitions is `prefsql-engine`'s.
//!
//! The paper runs Preference SQL as a pre-processor in front of a host SQL
//! DBMS (Informix, Oracle, DB2, Sybase). This crate plus `prefsql-engine`
//! *is* our host DBMS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codec;
pub mod heap;
pub mod index;
pub mod page;
pub mod pool;
pub mod spill;
pub mod synopsis;
pub mod table;

pub use backend::{MemBackend, PagedBackend, StorageBackend};
pub use heap::HeapFile;
pub use index::{BTreeIndex, HashIndex, IndexKind};
pub use pool::{BufferPool, PoolStats};
pub use spill::{RunReader, RunWriter, SpillManager, SpillRun};
pub use synopsis::{PageFilter, Sarg};
pub use table::Table;
