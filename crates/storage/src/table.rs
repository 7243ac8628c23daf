//! Heap tables: schema-validated row storage with secondary indexes.
//!
//! A [`Table`] owns a [`StorageBackend`] — the in-memory `Vec<Tuple>`
//! by default, or the paged heap-file store — plus everything that is
//! backend-independent: the schema, validation and secondary indexes.
//! Callers that can exploit contiguous
//! rows (the scan operators' zero-copy path) ask for [`Table::mem_rows`]
//! and fall back to the rid-based accessors ([`Table::fetch_row`],
//! [`Table::scan_batch`], [`Table::for_each_row_where`]) when the rows
//! live on disk. The `_where` variants take a column mask, which spares a
//! paged table decoding the columns the caller does not read, and
//! [`Table::scan_batch_where`] a [`PageFilter`] too, through which a
//! paged table skips the pages its synopses rule out.

use crate::backend::{MemBackend, PagedBackend, StorageBackend};
use crate::heap::HeapFile;
use crate::index::{BTreeIndex, HashIndex, IndexKind};
use crate::pool::BufferPool;
use crate::synopsis::PageFilter;
use prefsql_types::{Error, Result, Schema, Tuple};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// A heap table over one of the storage backends.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    backend: Box<dyn StorageBackend>,
    hash_indexes: HashMap<String, HashIndex>,
    btree_indexes: HashMap<String, BTreeIndex>,
}

impl Table {
    /// Create an empty in-memory table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table::over(name, schema, Box::new(MemBackend::default()))
    }

    /// Create an empty paged table storing rows in `file` through the
    /// shared buffer pool.
    pub fn paged(
        name: impl Into<String>,
        schema: Schema,
        file: Arc<HeapFile>,
        pool: Arc<BufferPool>,
    ) -> Self {
        Table::over(name, schema, Box::new(PagedBackend::create(file, pool)))
    }

    /// Open an existing heap file as a paged table (reopened database).
    /// Indexes are not persisted and start empty.
    pub fn paged_open(
        name: impl Into<String>,
        schema: Schema,
        file: Arc<HeapFile>,
        pool: Arc<BufferPool>,
    ) -> Result<Self> {
        let backend = PagedBackend::open(file, pool)?;
        Ok(Table::over(name, schema, Box::new(backend)))
    }

    fn over(name: impl Into<String>, schema: Schema, backend: Box<dyn StorageBackend>) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            schema,
            backend,
            hash_indexes: HashMap::new(),
            btree_indexes: HashMap::new(),
        }
    }

    /// Table name (lower-cased).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The backend's EXPLAIN label: `"mem"` or `"paged"`.
    pub fn backend_label(&self) -> &'static str {
        self.backend.label()
    }

    /// All rows as a contiguous slice, if the backend keeps them in
    /// memory — the zero-copy fast path. Paged tables return `None`;
    /// use [`Table::scan_batch`] / [`Table::fetch_row`] instead.
    pub fn mem_rows(&self) -> Option<&[Tuple]> {
        self.backend.as_mem()
    }

    /// All rows, in insertion order.
    ///
    /// # Panics
    /// On a paged table — this accessor predates the backend seam and
    /// only exists for in-memory workloads; backend-agnostic callers use
    /// [`Table::mem_rows`] or the rid-based accessors.
    pub fn rows(&self) -> &[Tuple] {
        self.backend
            .as_mem()
            .expect("Table::rows is only available on the in-memory backend")
    }

    /// Row count: an in-memory length on both backends, so the planner
    /// reads it for cardinality without touching row storage.
    pub fn len(&self) -> usize {
        self.backend.row_count()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch one row by id, whichever backend holds it, decoding only
    /// the columns `mask` selects (all when `None`) as
    /// [`Table::scan_batch_where`] does.
    pub fn fetch_row(&self, row_id: usize, mask: Option<&[bool]>) -> Result<Tuple> {
        self.backend.fetch(row_id, mask)
    }

    /// Append up to `max` rows starting at rid `*pos` onto `out`,
    /// advancing `*pos`. Returns `false` once the scan is exhausted.
    pub fn scan_batch(&self, pos: &mut usize, out: &mut Vec<Tuple>, max: usize) -> Result<bool> {
        let (mut rows, mut rids) = (Vec::new(), Vec::new());
        let filter = &mut PageFilter::default();
        let more = self.scan_batch_where(pos, &mut rows, &mut rids, max, None, filter)?;
        out.append(&mut rows);
        Ok(more)
    }

    /// Refill `out` in place with up to `max` rows from rid `*pos` on,
    /// advancing `*pos`, and `rids` with their row ids; returns `false`
    /// once the scan is exhausted. The rows of pages `filter` rules out
    /// are stepped over, so a batch may come from further on than `*pos`.
    /// A caller that reads only the columns `mask` selects (all when
    /// `None`) lets a paged table leave the rest `NULL`; every column of
    /// every row read is still validated.
    pub fn scan_batch_where(
        &self,
        pos: &mut usize,
        out: &mut Vec<Tuple>,
        rids: &mut Vec<usize>,
        max: usize,
        mask: Option<&[bool]>,
        filter: &mut PageFilter<'_>,
    ) -> Result<bool> {
        self.backend.scan(pos, out, rids, max, mask, filter)
    }

    /// Run `f` over every row from rid `from` on, in rid order, reading
    /// only the columns `mask` selects as [`Table::scan_batch_where`] does
    /// (a paged table refills one buffer; the in-memory one lends its rows).
    pub fn for_each_row_where(
        &self,
        from: usize,
        mask: Option<&[bool]>,
        mut f: impl FnMut(usize, &Tuple) -> Result<()>,
    ) -> Result<()> {
        if let Some(rows) = self.backend.as_mem() {
            for (rid, row) in rows.iter().enumerate().skip(from) {
                f(rid, row)?;
            }
            return Ok(());
        }
        let (mut pos, mut buf, mut rids) = (from, Vec::new(), Vec::new());
        let filter = &mut PageFilter::default();
        while self.scan_batch_where(&mut pos, &mut buf, &mut rids, 1024, mask, filter)? {
            for (&rid, row) in rids.iter().zip(&buf) {
                f(rid, row)?;
            }
        }
        Ok(())
    }

    /// Insert one row after validating it against the schema; maintains all
    /// indexes. Returns the new row id.
    pub fn insert(&mut self, row: Tuple) -> Result<usize> {
        row.check_against(&self.schema)?;
        let row_id = self.len();
        for idx in self.hash_indexes.values_mut() {
            idx.insert(row_id, &row);
        }
        for idx in self.btree_indexes.values_mut() {
            idx.insert(row_id, &row);
        }
        self.backend.insert(row)
    }

    /// Bulk insert.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Tuple>) -> Result<usize> {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Create a named index over `columns` (resolved by name). Existing rows
    /// are back-filled. Fails on duplicate index names or unknown columns.
    pub fn create_index(
        &mut self,
        index_name: impl Into<String>,
        columns: &[&str],
        kind: IndexKind,
    ) -> Result<()> {
        let index_name = index_name.into().to_ascii_lowercase();
        if self.hash_indexes.contains_key(&index_name)
            || self.btree_indexes.contains_key(&index_name)
        {
            return Err(Error::Catalog(format!(
                "index '{index_name}' already exists on table '{}'",
                self.name
            )));
        }
        let key_columns: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.resolve(None, c))
            .collect::<Result<_>>()?;
        match kind {
            IndexKind::Hash => {
                let idx = HashIndex::new(key_columns);
                self.hash_indexes.insert(index_name.clone(), idx);
            }
            IndexKind::BTree => {
                let idx = BTreeIndex::new(key_columns);
                self.btree_indexes.insert(index_name.clone(), idx);
            }
        }
        let backfill = self.rebuild_indexes_where(|name, _| name == index_name);
        if backfill.is_err() {
            self.hash_indexes.remove(&index_name);
            self.btree_indexes.remove(&index_name);
        }
        backfill
    }

    /// Find a hash index whose key is exactly `columns` (schema positions).
    pub fn find_hash_index(&self, columns: &[usize]) -> Option<&HashIndex> {
        self.hash_indexes
            .values()
            .find(|i| i.key_columns() == columns)
    }

    /// Find a B-tree index whose *leading* key column is `column`.
    pub fn find_btree_index(&self, column: usize) -> Option<&BTreeIndex> {
        self.btree_indexes
            .values()
            .find(|i| i.key_columns().first() == Some(&column))
    }

    /// Names of all indexes (for EXPLAIN / introspection).
    pub fn index_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .hash_indexes
            .keys()
            .chain(self.btree_indexes.keys())
            .cloned()
            .collect();
        names.sort_unstable();
        names
    }

    /// Fetch a row by id, borrowed.
    ///
    /// # Panics
    /// On a paged table or an out-of-range id — backend-agnostic callers
    /// use [`Table::fetch_row`].
    pub fn row(&self, row_id: usize) -> &Tuple {
        &self.rows()[row_id]
    }

    /// Delete every row whose id is in `row_ids` (any order, duplicates
    /// and ids past the end tolerated); returns the number of rows
    /// removed. Row ids are compacted and all indexes rebuilt.
    pub fn delete_rows(&mut self, row_ids: &[usize]) -> Result<usize> {
        if row_ids.is_empty() {
            return Ok(0);
        }
        // Backends take the ids ascending and distinct, which is how DML
        // hands them over: sort only when they are not.
        let doomed = if row_ids.windows(2).all(|w| w[0] < w[1]) {
            Cow::Borrowed(row_ids)
        } else {
            let mut ids = row_ids.to_vec();
            ids.sort_unstable();
            ids.dedup();
            Cow::Owned(ids)
        };
        let removed = self.backend.delete(&doomed)?;
        self.rebuild_indexes()?;
        Ok(removed)
    }

    /// Replace the row at `row_id` after validating the new tuple.
    /// Call [`Table::rebuild_indexes_over`] once after a batch of
    /// updates, naming the columns they assigned.
    pub fn replace_row(&mut self, row_id: usize, row: Tuple) -> Result<()> {
        row.check_against(&self.schema)?;
        if row_id >= self.len() {
            return Err(Error::Exec(format!(
                "row id {row_id} out of range for table '{}'",
                self.name
            )));
        }
        self.backend.replace(row_id, row)
    }

    /// Rebuild every index from the current rows (after deletes/updates).
    pub fn rebuild_indexes(&mut self) -> Result<()> {
        self.rebuild_indexes_where(|_, _| true)
    }

    /// Rebuild the indexes whose key includes one of `columns` (schema
    /// positions) — after updates that assigned those columns. Updates
    /// keep rids, so every other index is still exact.
    pub fn rebuild_indexes_over(&mut self, columns: &[usize]) -> Result<()> {
        self.rebuild_indexes_where(|_, key| key.iter().any(|c| columns.contains(c)))
    }

    /// Rebuild, in one pass over the rows decoding only key columns,
    /// every index `stale` selects by name and key columns. The old
    /// indexes are replaced only once the pass succeeds.
    fn rebuild_indexes_where(&mut self, stale: impl Fn(&str, &[usize]) -> bool) -> Result<()> {
        let mut hash: Vec<(String, HashIndex)> = self
            .hash_indexes
            .iter()
            .filter(|(name, idx)| stale(name, idx.key_columns()))
            .map(|(name, idx)| (name.clone(), HashIndex::new(idx.key_columns().to_vec())))
            .collect();
        let mut btree: Vec<(String, BTreeIndex)> = self
            .btree_indexes
            .iter()
            .filter(|(name, idx)| stale(name, idx.key_columns()))
            .map(|(name, idx)| (name.clone(), BTreeIndex::new(idx.key_columns().to_vec())))
            .collect();
        if hash.is_empty() && btree.is_empty() {
            return Ok(());
        }
        let mut mask = vec![false; self.schema.len()];
        let keys = (hash.iter().map(|(_, idx)| idx.key_columns()))
            .chain(btree.iter().map(|(_, idx)| idx.key_columns()));
        for &col in keys.flatten() {
            mask[col] = true;
        }
        self.for_each_row_where(0, Some(&mask), |rid, row| {
            for (_, idx) in &mut hash {
                idx.insert(rid, row);
            }
            for (_, idx) in &mut btree {
                idx.insert(rid, row);
            }
            Ok(())
        })?;
        self.hash_indexes.extend(hash);
        self.btree_indexes.extend(btree);
        Ok(())
    }

    /// Release backend resources on DROP TABLE (a paged table's cached
    /// pool pages are discarded; its heap file goes when the last shared
    /// handle does).
    pub fn release_storage(&self) -> Result<()> {
        self.backend.release()
    }

    /// Persist dirty backend state (paged tables flush their pool pages
    /// and sync the heap file; in-memory tables are a no-op).
    pub fn flush_storage(&self) -> Result<()> {
        self.backend.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_types::knobs::MIN_POOL_BYTES;
    use prefsql_types::{tuple, Column, DataType, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cars_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("make", DataType::Str),
            Column::new("price", DataType::Int),
        ])
        .unwrap()
    }

    fn fill(t: &mut Table) {
        t.insert(tuple![1, "audi", 40_000]).unwrap();
        t.insert(tuple![2, "bmw", 35_000]).unwrap();
        t.insert(tuple![3, "vw", 20_000]).unwrap();
    }

    fn cars() -> Table {
        let mut t = Table::new("cars", cars_schema());
        fill(&mut t);
        t
    }

    fn paged_cars(tag: &str) -> Table {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "prefsql-table-test-{}-{}-{tag}.heap",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = Arc::new(HeapFile::create(path, true).unwrap());
        let pool = Arc::new(BufferPool::new(MIN_POOL_BYTES));
        let mut t = Table::paged("cars", cars_schema(), file, pool);
        fill(&mut t);
        t
    }

    #[test]
    fn insert_validates_schema() {
        let mut t = cars();
        assert!(t.insert(tuple![4, "opel", 15_000]).is_ok());
        assert!(t.insert(tuple!["bad", "opel", 1]).is_err());
        assert!(t.insert(tuple![5, "opel"]).is_err());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = cars();
        let r = t.insert(Tuple::new(vec![
            Value::Null,
            Value::str("x"),
            Value::Int(1),
        ]));
        assert!(r.is_err());
    }

    #[test]
    fn index_backfill_and_maintenance() {
        let mut t = cars();
        t.create_index("idx_make", &["make"], IndexKind::Hash)
            .unwrap();
        t.insert(tuple![4, "audi", 45_000]).unwrap();
        let idx = t.find_hash_index(&[1]).unwrap();
        assert_eq!(idx.lookup(&[Value::str("audi")]), &[0, 3]);
    }

    #[test]
    fn btree_index_range_after_creation() {
        let mut t = cars();
        t.create_index("idx_price", &["price"], IndexKind::BTree)
            .unwrap();
        let idx = t.find_btree_index(2).unwrap();
        let rids = idx.range(Some(&Value::Int(30_000)), None);
        assert_eq!(rids, vec![1, 0]);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = cars();
        t.create_index("i", &["make"], IndexKind::Hash).unwrap();
        assert!(t.create_index("i", &["price"], IndexKind::BTree).is_err());
        assert!(t.create_index("j", &["nope"], IndexKind::Hash).is_err());
    }

    #[test]
    fn delete_rows_compacts_and_reindexes() {
        let mut t = cars();
        t.create_index("i_make", &["make"], IndexKind::Hash)
            .unwrap();
        t.create_index("i_price", &["price"], IndexKind::BTree)
            .unwrap();
        assert_eq!(t.delete_rows(&[1]).unwrap(), 1); // drop the BMW
        assert_eq!(t.len(), 2);
        // Row ids compacted: vw moved from 2 to 1.
        assert_eq!(t.row(1)[1], Value::str("vw"));
        // Indexes reflect the new ids.
        let idx = t.find_hash_index(&[1]).unwrap();
        assert_eq!(idx.lookup(&[Value::str("vw")]), &[1]);
        assert_eq!(idx.lookup(&[Value::str("bmw")]), &[] as &[usize]);
        let b = t.find_btree_index(2).unwrap();
        assert_eq!(b.range(None, None).len(), 2);
        // Deleting nothing is a no-op.
        assert_eq!(t.delete_rows(&[]).unwrap(), 0);
        // Duplicate and repeated ids are tolerated.
        assert_eq!(t.delete_rows(&[0, 0]).unwrap(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replace_row_validates_and_reindexes() {
        let mut t = cars();
        t.create_index("i_make", &["make"], IndexKind::Hash)
            .unwrap();
        t.replace_row(0, tuple![1, "opel", 42_000]).unwrap();
        t.rebuild_indexes().unwrap();
        let idx = t.find_hash_index(&[1]).unwrap();
        assert_eq!(idx.lookup(&[Value::str("opel")]), &[0]);
        assert_eq!(idx.lookup(&[Value::str("audi")]), &[] as &[usize]);
        // Validation still applies.
        assert!(t.replace_row(0, tuple!["bad", "x", 1]).is_err());
        assert!(t.replace_row(99, tuple![9, "x", 1]).is_err());
    }

    #[test]
    fn index_names_sorted() {
        let mut t = cars();
        t.create_index("z", &["make"], IndexKind::Hash).unwrap();
        t.create_index("a", &["price"], IndexKind::BTree).unwrap();
        assert_eq!(t.index_names(), vec!["a".to_string(), "z".to_string()]);
    }

    #[test]
    fn paged_table_mirrors_the_mem_api() {
        let mut t = paged_cars("mirror");
        assert_eq!(t.backend_label(), "paged");
        assert!(t.mem_rows().is_none());
        assert_eq!(t.len(), 3);
        assert_eq!(t.fetch_row(2, None).unwrap(), tuple![3, "vw", 20_000]);
        // Validation is backend-independent.
        assert!(t.insert(tuple!["bad", "x", 1]).is_err());
        // Index backfill scans pages; maintenance tracks inserts.
        t.create_index("idx_make", &["make"], IndexKind::Hash)
            .unwrap();
        t.insert(tuple![4, "audi", 45_000]).unwrap();
        let idx = t.find_hash_index(&[1]).unwrap();
        assert_eq!(idx.lookup(&[Value::str("audi")]), &[0, 3]);
        // Delete compacts and reindexes.
        assert_eq!(t.delete_rows(&[1]).unwrap(), 1);
        assert_eq!(t.len(), 3);
        assert_eq!(t.fetch_row(1, None).unwrap()[1], Value::str("vw"));
        let idx = t.find_hash_index(&[1]).unwrap();
        assert_eq!(idx.lookup(&[Value::str("vw")]), &[1]);
        // Replace in place, then scan everything in order.
        t.replace_row(0, tuple![9, "opel", 1]).unwrap();
        let mut rows = Vec::new();
        let mut pos = 0;
        while t.scan_batch(&mut pos, &mut rows, 2).unwrap() {}
        assert_eq!(
            rows,
            vec![
                tuple![9, "opel", 1],
                tuple![3, "vw", 20_000],
                tuple![4, "audi", 45_000],
            ]
        );
    }

    #[test]
    fn for_each_row_from_matches_both_backends() {
        for t in [cars(), paged_cars("foreach")] {
            let mut seen = Vec::new();
            t.for_each_row_where(1, None, |rid, row| {
                seen.push((rid, row[0].clone()));
                Ok(())
            })
            .unwrap();
            assert_eq!(
                seen,
                vec![(1, Value::Int(2)), (2, Value::Int(3))],
                "backend {}",
                t.backend_label()
            );
        }
    }
}
