//! The storage-backend seam: one trait, two row stores.
//!
//! [`StorageBackend`] is the access-path boundary the paper's
//! host-DBMS portability story implies (Preference SQL as a layer over
//! Oracle/DB2): everything above it — catalog, planner, operators —
//! addresses rows by *rid* (dense `0..row_count`, insertion order) and
//! never sees how they are stored. Two implementations:
//!
//! * [`MemBackend`] — the original in-memory `Vec<Tuple>`; the default,
//!   byte-identical to the pre-seam engine. Exposes its slice through
//!   [`StorageBackend::as_mem`] so scans keep the zero-copy fast path.
//! * [`PagedBackend`] — slotted pages in a per-table heap file
//!   ([`crate::page`], [`crate::heap`]) cached by a shared pinning
//!   [`BufferPool`]. Base tables can exceed both RAM and the pool;
//!   placement is append-only (tail page or a fresh page, oversized
//!   tuples in jumbo chains) so a file scan by page order *is* rid
//!   order, including after reopen.
//!
//! Deletes compact: both backends renumber survivors densely, matching
//! the engine's "rid = position" contract. The paged store deletes in
//! place — each doomed slot (or jumbo chain) becomes a tombstone and the
//! rid directory drops its entry — and reclaims the dead space lazily:
//! once tombstones outnumber live rows, one file rewrite packs the
//! survivors, so a deleted row costs amortised O(1) page work. Clones
//! of a paged backend share the heap file and pool (`Arc`) but snapshot
//! the row directory and the page synopses — a table's `Clone` is only
//! used for copies in tests, never for live aliasing.
//!
//! **Page synopses.** The paged store keeps, for every slotted page and
//! every column, the least and greatest value any row placed on the page
//! has held (a zone map, [`crate::synopsis`]): NULL and NaN left out,
//! `None` when the page never held a comparable value in that column. Insert, in-place replace and the compaction
//! rewrite widen it; nothing else changes it, so deletes and key-changing
//! updates leave it loose but never wrong, and a rewrite — which places
//! every survivor afresh — is the only narrowing. Jumbo chains have
//! none and are always read. Synopses live in memory only: `open`
//! rebuilds them in the pass it makes over every page anyway. The one
//! multi-row read, [`StorageBackend::scan`], takes a [`PageFilter`]; a
//! slotted page whose synopsis shows that no row on it can make every
//! sargable conjunct TRUE is stepped over — neither pinned nor
//! validated, like a page an index probe does not touch. The soundness
//! argument is on [`crate::synopsis`]; rows that are read are still
//! checked against the full predicate by the caller, so skipping only
//! removes rows that would fail it. Because rids are assigned in
//! insertion order, keys that arrive ascending cluster per page, and a
//! point lookup by such a key reads one page. The in-memory backend has
//! no synopses.
//!
//! **In-place refill.** [`StorageBackend::scan`] does not append: it
//! refills the caller's row buffer, decoding row `i` of a batch into the
//! tuple slot `i` already holds (`codec::decode_slot` reuses its value
//! vector and strings), and reports each row's rid beside it. A caller
//! that reads only some columns passes a mask, and the paged store leaves
//! the others `NULL` after checking them. A scan that keeps refilling one
//! buffer therefore builds no tuple per row, and a consumer that needs
//! the whole row later — a preference winner, an UPDATE target — fetches
//! it by rid. On a paged table every multi-row read above the seam is
//! such a refill loop: the scan operator's, and the visitor
//! `Table::for_each_row_where`.

use crate::codec;
use crate::heap::HeapFile;
use crate::page::{self, JUMBO_PAYLOAD, MAX_INLINE_TUPLE, PAGE_SIZE};
use crate::pool::BufferPool;
use crate::synopsis::{PageFilter, Synopsis};
use prefsql_types::{Error, Result, Tuple};
use std::fmt;
use std::sync::Arc;

/// Row storage behind a [`crate::Table`]; see the module docs.
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// `"mem"` or `"paged"` — EXPLAIN's `backend=` label.
    fn label(&self) -> &'static str;

    /// Number of stored rows (rids are dense `0..row_count`).
    fn row_count(&self) -> usize;

    /// Fetch one row by rid. Columns whose `mask` entry is `false` need
    /// not be decoded, as for [`StorageBackend::scan`].
    fn fetch(&self, rid: usize, mask: Option<&[bool]>) -> Result<Tuple>;

    /// Refill `out` with up to `max` rows from rid `*pos` on, advancing
    /// `*pos` past them, and `rids` with their row ids. The buffer is
    /// refilled in place: row `i` is decoded into the tuple `out[i]`
    /// already holds, and `out` is cut to the rows read. Columns whose
    /// `mask` entry is `false` need not be decoded (the paged store reads
    /// them as `NULL`). The rows of pages `filter` rules out are stepped
    /// over. Returns `false` once the scan is exhausted (`out` is empty).
    fn scan(
        &self,
        pos: &mut usize,
        out: &mut Vec<Tuple>,
        rids: &mut Vec<usize>,
        max: usize,
        mask: Option<&[bool]>,
        filter: &mut PageFilter<'_>,
    ) -> Result<bool>;

    /// Append a row; returns its rid (always the previous row count).
    fn insert(&mut self, row: Tuple) -> Result<usize>;

    /// Remove the rows at `doomed` — ascending, without duplicates —
    /// compacting rids; returns how many were removed (ids past the end
    /// remove nothing).
    fn delete(&mut self, doomed: &[usize]) -> Result<usize>;

    /// Replace the row at `rid` in place (same rid afterwards).
    fn replace(&mut self, rid: usize, row: Tuple) -> Result<()>;

    /// The backing slice, for the in-memory backend only — the scan
    /// operators' zero-copy fast path.
    fn as_mem(&self) -> Option<&[Tuple]> {
        None
    }

    /// Clone into a fresh box (backends are held as trait objects).
    fn boxed_clone(&self) -> Box<dyn StorageBackend>;

    /// Release cached resources (DROP TABLE): a paged backend drops its
    /// pool pages without write-back.
    fn release(&self) -> Result<()> {
        Ok(())
    }

    /// Persist dirty state (tests and reopen paths): a paged backend
    /// flushes its pool pages and syncs the heap file.
    fn flush(&self) -> Result<()> {
        Ok(())
    }
}

impl Clone for Box<dyn StorageBackend> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Drop the entries of `items` at the positions `doomed` lists
/// (ascending, without duplicates; positions past the end are ignored)
/// in one merge pass, keeping the survivors' order.
fn remove_sorted<T>(items: &mut Vec<T>, doomed: &[usize]) {
    let mut next = doomed.iter().peekable();
    let mut pos = 0;
    items.retain(|_| {
        let gone = next.next_if_eq(&&pos).is_some();
        pos += 1;
        !gone
    });
}

/// The in-memory row store: a plain `Vec<Tuple>`.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    rows: Vec<Tuple>,
}

impl StorageBackend for MemBackend {
    fn label(&self) -> &'static str {
        "mem"
    }

    fn row_count(&self) -> usize {
        self.rows.len()
    }

    fn fetch(&self, rid: usize, _mask: Option<&[bool]>) -> Result<Tuple> {
        self.rows
            .get(rid)
            .cloned()
            .ok_or_else(|| Error::Io(format!("row {rid} out of bounds")))
    }

    fn scan(
        &self,
        pos: &mut usize,
        out: &mut Vec<Tuple>,
        rids: &mut Vec<usize>,
        max: usize,
        _mask: Option<&[bool]>,
        _filter: &mut PageFilter<'_>,
    ) -> Result<bool> {
        let (start, end) = (*pos, pos.saturating_add(max).min(self.rows.len()));
        out.clear();
        rids.clear();
        if start < end {
            out.extend_from_slice(&self.rows[start..end]);
            rids.extend(start..end);
            *pos = end;
        }
        Ok(!out.is_empty())
    }

    fn insert(&mut self, row: Tuple) -> Result<usize> {
        self.rows.push(row);
        Ok(self.rows.len() - 1)
    }

    fn delete(&mut self, doomed: &[usize]) -> Result<usize> {
        let before = self.rows.len();
        remove_sorted(&mut self.rows, doomed);
        Ok(before - self.rows.len())
    }

    fn replace(&mut self, rid: usize, row: Tuple) -> Result<()> {
        *self
            .rows
            .get_mut(rid)
            .ok_or_else(|| Error::Io(format!("row {rid} out of bounds")))? = row;
        Ok(())
    }

    fn as_mem(&self) -> Option<&[Tuple]> {
        Some(&self.rows)
    }

    fn boxed_clone(&self) -> Box<dyn StorageBackend> {
        Box::new(self.clone())
    }
}

/// Where one rid lives in the heap file.
#[derive(Debug, Clone, Copy)]
enum RowLoc {
    /// Slot `slot` of slotted page `page`.
    Slot { page: u32, slot: u16 },
    /// A jumbo chain starting at `page`.
    Jumbo { page: u32 },
}

/// The paged heap-file row store; see the module docs.
#[derive(Debug, Clone)]
pub struct PagedBackend {
    file: Arc<HeapFile>,
    pool: Arc<BufferPool>,
    /// rid → location; insertion order, rebuilt on open by page order.
    /// Never points at a tombstone.
    dir: Vec<RowLoc>,
    /// The synopsis of every page, by page number (a jumbo chain's
    /// pages hold empty ones, never consulted).
    zones: Vec<Synopsis>,
    /// Tombstones in the file: rows deleted since the last rewrite.
    dead: usize,
    /// Pages allocated so far.
    pages: u32,
    /// The tail slotted page new rows may still append to. `None` after
    /// a jumbo allocation — appending behind a jumbo chain would break
    /// "page order = rid order" on reopen.
    tail: Option<u32>,
}

impl PagedBackend {
    /// An empty paged store over a (fresh) heap file.
    pub fn create(file: Arc<HeapFile>, pool: Arc<BufferPool>) -> Self {
        PagedBackend {
            file,
            pool,
            dir: Vec::new(),
            zones: Vec::new(),
            dead: 0,
            pages: 0,
            tail: None,
        }
    }

    /// Open an existing heap file, rebuilding the rid directory and the
    /// page synopses by scanning pages in order (which is insertion
    /// order by construction) and stepping over tombstones.
    pub fn open(file: Arc<HeapFile>, pool: Arc<BufferPool>) -> Result<Self> {
        let pages = file.page_count()?;
        let mut dir = Vec::new();
        let mut zones = Vec::with_capacity(pages as usize);
        let mut dead = 0;
        let mut tail = None;
        let mut skip_until = 0u32;
        for page_no in 0..pages {
            if page_no < skip_until {
                zones.push(Synopsis::default());
                continue;
            }
            let zone = pool.with_page(&file, page_no, |p| {
                let mut zone = Synopsis::default();
                match page::kind(p) {
                    page::KIND_SLOTTED => {
                        for slot in 0..page::slot_count(p) {
                            if page::is_tombstone(p, slot) {
                                dead += 1;
                                continue;
                            }
                            let mut row = Tuple::default();
                            codec::decode_slot(page::read_slot(p, slot)?, None, &mut row)?;
                            zone.widen(row);
                            dir.push(RowLoc::Slot {
                                page: page_no,
                                slot,
                            });
                        }
                        tail = Some(page_no);
                    }
                    page::KIND_JUMBO_FIRST => {
                        let (total, live) = page::jumbo_head(p)?;
                        if live {
                            dir.push(RowLoc::Jumbo { page: page_no });
                        } else {
                            dead += 1;
                        }
                        skip_until = page_no + page::jumbo_pages(total);
                        tail = None;
                    }
                    other => {
                        return Err(Error::Io(format!(
                            "corrupt heap file: unexpected page kind {other} at page {page_no}"
                        )))
                    }
                }
                Ok(zone)
            })?;
            zones.push(zone);
        }
        Ok(PagedBackend {
            file,
            pool,
            dir,
            zones,
            dead,
            pages,
            tail,
        })
    }

    fn encode(row: &Tuple) -> Result<Vec<u8>> {
        let mut bytes = Vec::with_capacity(codec::tuple_spill_bytes(row));
        codec::encode_tuple(&mut bytes, row)?;
        Ok(bytes)
    }

    /// Store `row` behind every stored row, widening the synopsis of the
    /// page it lands on.
    fn append(&mut self, row: Tuple) -> Result<()> {
        let loc = self.place(&Self::encode(&row)?)?;
        if let RowLoc::Slot { page, .. } = loc {
            self.zones[page as usize].widen(row);
        }
        self.dir.push(loc);
        Ok(())
    }

    /// Append an encoded tuple, returning its location.
    fn place(&mut self, bytes: &[u8]) -> Result<RowLoc> {
        if bytes.len() > MAX_INLINE_TUPLE {
            let first = self.pages;
            let total = bytes.len();
            for (i, chunk) in bytes.chunks(JUMBO_PAYLOAD).enumerate() {
                let page_no = first + i as u32;
                self.pool.with_page_mut(&self.file, page_no, true, |p| {
                    page::init_jumbo(p, i == 0, total as u32, chunk);
                    Ok(())
                })?;
            }
            self.pages = first + page::jumbo_pages(total);
            self.zones.resize(self.pages as usize, Synopsis::default());
            self.tail = None;
            return Ok(RowLoc::Jumbo { page: first });
        }
        // Tail page if the tuple fits, else a fresh slotted page —
        // never an earlier page, so scan order stays insertion order.
        if let Some(page_no) = self.tail {
            let placed = self.pool.with_page_mut(&self.file, page_no, false, |p| {
                if page::fits(p, bytes.len()) {
                    Ok(Some(page::append_slot(p, bytes)?))
                } else {
                    Ok(None)
                }
            })?;
            if let Some(slot) = placed {
                return Ok(RowLoc::Slot {
                    page: page_no,
                    slot,
                });
            }
        }
        let page_no = self.pages;
        let slot = self.pool.with_page_mut(&self.file, page_no, true, |p| {
            page::init_slotted(p);
            page::append_slot(p, bytes)
        })?;
        self.pages = page_no + 1;
        self.zones.push(Synopsis::default());
        self.tail = Some(page_no);
        Ok(RowLoc::Slot {
            page: page_no,
            slot,
        })
    }

    /// Reassemble the jumbo chain starting at `page` into `bytes`;
    /// returns the number of pages read.
    fn read_jumbo(&self, page: u32, bytes: &mut Vec<u8>) -> Result<u32> {
        let total = self.pool.with_page(&self.file, page, page::jumbo_total)?;
        bytes.clear();
        bytes.reserve(total);
        let pages = page::jumbo_pages(total);
        for i in 0..pages {
            self.pool.with_page(&self.file, page + i, |p| {
                bytes.extend_from_slice(page::jumbo_chunk(p, total - bytes.len()));
                Ok(())
            })?;
        }
        Ok(pages)
    }

    /// Hand the encoded bytes of the rows from rid `from` on to `f`, in
    /// rid order, until `f` returns `false`; returns the rid after the
    /// last row handed over. Rows go a page at a time: each slotted page
    /// is pinned once, copied out and unpinned before any of its rows
    /// reach `f`, so `f` never runs under the pool mutex. A slotted page
    /// `filter` rules out is stepped over without being pinned.
    fn for_each_encoded(
        &self,
        from: usize,
        filter: &mut PageFilter<'_>,
        mut f: impl FnMut(usize, &[u8]) -> Result<bool>,
    ) -> Result<usize> {
        let mut copy = [0u8; PAGE_SIZE];
        let mut jumbo = Vec::new();
        let mut rid = from;
        while let Some(&loc) = self.dir.get(rid) {
            match loc {
                RowLoc::Slot { page, .. } => {
                    if !filter.reads(&self.zones[page as usize]) {
                        // Consecutive rids share pages by construction,
                        // and page numbers never decrease along rids.
                        // Gallop to the page's end: a search of the whole
                        // rest would miss the cache on every skipped page.
                        let on_page =
                            |l: &RowLoc| matches!(l, RowLoc::Slot { page: on, .. } if *on == page);
                        let mut end = rid + 1;
                        while self.dir.get(end).is_some_and(on_page) {
                            end = rid + 2 * (end - rid);
                        }
                        rid += self.dir[rid..end.min(self.dir.len())].partition_point(on_page);
                        continue;
                    }
                    self.pool.with_page(&self.file, page, |p| {
                        copy.copy_from_slice(p);
                        Ok(())
                    })?;
                    while let Some(&RowLoc::Slot { page: on, slot }) = self.dir.get(rid) {
                        if on != page {
                            break;
                        }
                        rid += 1;
                        if !f(rid - 1, page::read_slot(&copy, slot)?)? {
                            return Ok(rid);
                        }
                    }
                }
                RowLoc::Jumbo { page } => {
                    filter.pages_read += u64::from(self.read_jumbo(page, &mut jumbo)?);
                    rid += 1;
                    if !f(rid - 1, &jumbo)? {
                        return Ok(rid);
                    }
                }
            }
        }
        Ok(rid)
    }

    /// Rewrite the whole heap file from `rows` (lazy delete compaction,
    /// replaces that outgrow their page), rebuilding every synopsis from
    /// the rows placed. The cached pages of the old layout are dead and
    /// dropped without write-back.
    fn rewrite(&mut self, rows: Vec<Tuple>) -> Result<()> {
        self.pool.forget_file(self.file.id())?;
        self.file.truncate()?;
        self.dir.clear();
        self.zones.clear();
        self.dead = 0;
        self.pages = 0;
        self.tail = None;
        for row in rows {
            self.append(row)?;
        }
        Ok(())
    }

    /// Materialize every row in rid order (rewrite paths).
    fn all_rows(&self) -> Result<Vec<Tuple>> {
        let mut rows = Vec::with_capacity(self.dir.len());
        self.for_each_encoded(0, &mut PageFilter::default(), |_, bytes| {
            let mut row = Tuple::default();
            codec::decode_slot(bytes, None, &mut row)?;
            rows.push(row);
            Ok(true)
        })?;
        Ok(rows)
    }
}

impl StorageBackend for PagedBackend {
    fn label(&self) -> &'static str {
        "paged"
    }

    fn row_count(&self) -> usize {
        self.dir.len()
    }

    fn fetch(&self, rid: usize, mask: Option<&[bool]>) -> Result<Tuple> {
        if rid >= self.dir.len() {
            return Err(Error::Io(format!("row {rid} out of bounds")));
        }
        let mut row = Tuple::default();
        self.for_each_encoded(rid, &mut PageFilter::default(), |_, bytes| {
            codec::decode_slot(bytes, mask, &mut row)?;
            Ok(false)
        })?;
        Ok(row)
    }

    fn scan(
        &self,
        pos: &mut usize,
        out: &mut Vec<Tuple>,
        rids: &mut Vec<usize>,
        max: usize,
        mask: Option<&[bool]>,
        filter: &mut PageFilter<'_>,
    ) -> Result<bool> {
        rids.clear();
        if max > 0 {
            *pos = self.for_each_encoded(*pos, filter, |rid, bytes| {
                let n = rids.len();
                if n == out.len() {
                    out.push(Tuple::default());
                }
                codec::decode_slot(bytes, mask, &mut out[n])?;
                rids.push(rid);
                Ok(n + 1 < max)
            })?;
        }
        out.truncate(rids.len());
        Ok(!out.is_empty())
    }

    fn insert(&mut self, row: Tuple) -> Result<usize> {
        self.append(row)?;
        Ok(self.dir.len() - 1)
    }

    fn delete(&mut self, doomed: &[usize]) -> Result<usize> {
        let rids = &doomed[..doomed.partition_point(|&rid| rid < self.dir.len())];
        if rids.is_empty() {
            return Ok(0);
        }
        // Tombstone in rid order, so each page is pinned once.
        let mut i = 0;
        while i < rids.len() {
            match self.dir[rids[i]] {
                RowLoc::Slot { page, .. } => {
                    self.pool.with_page_mut(&self.file, page, false, |p| {
                        while let Some(&RowLoc::Slot { page: on, slot }) =
                            rids.get(i).map(|&rid| &self.dir[rid])
                        {
                            if on != page {
                                break;
                            }
                            page::tombstone_slot(p, slot)?;
                            i += 1;
                        }
                        Ok(())
                    })?;
                }
                RowLoc::Jumbo { page } => {
                    self.pool
                        .with_page_mut(&self.file, page, false, page::tombstone_jumbo)?;
                    i += 1;
                }
            }
        }
        remove_sorted(&mut self.dir, rids);
        self.dead += rids.len();
        // Compact once the dead outnumber the living: the rewrite then
        // re-places fewer rows than were deleted since the last one, so
        // compaction costs amortised O(1) per deleted row.
        if self.dead > self.dir.len() {
            let rows = self.all_rows()?;
            self.rewrite(rows)?;
        }
        Ok(rids.len())
    }

    fn replace(&mut self, rid: usize, row: Tuple) -> Result<()> {
        let loc = *self
            .dir
            .get(rid)
            .ok_or_else(|| Error::Io(format!("row {rid} out of bounds")))?;
        let bytes = Self::encode(&row)?;
        if let RowLoc::Slot { page, slot } = loc {
            if bytes.len() <= MAX_INLINE_TUPLE {
                let done = self.pool.with_page_mut(&self.file, page, false, |p| {
                    page::replace_slot(p, slot, &bytes)
                })?;
                if done {
                    self.zones[page as usize].widen(row);
                    return Ok(());
                }
            }
        }
        // The new encoding doesn't fit where the old row lived (or
        // crosses the jumbo boundary): rewrite the file with the row
        // substituted.
        let mut rows = self.all_rows()?;
        rows[rid] = row;
        self.rewrite(rows)
    }

    fn boxed_clone(&self) -> Box<dyn StorageBackend> {
        Box::new(self.clone())
    }

    fn release(&self) -> Result<()> {
        self.pool.forget_file(self.file.id())
    }

    fn flush(&self) -> Result<()> {
        self.pool.flush_file(self.file.id())?;
        self.file.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;
    use crate::synopsis::Sarg;
    use prefsql_types::knobs::MIN_POOL_BYTES;
    use prefsql_types::{tuple, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fixture(tag: &str, pool_bytes: usize) -> (Arc<HeapFile>, Arc<BufferPool>) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "prefsql-backend-test-{}-{}-{tag}.heap",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        (
            Arc::new(HeapFile::create(path, true).unwrap()),
            Arc::new(BufferPool::new(pool_bytes)),
        )
    }

    fn rows_of(b: &dyn StorageBackend) -> Vec<Tuple> {
        let (mut out, mut buf, mut rids, mut pos) = (Vec::new(), Vec::new(), Vec::new(), 0);
        while b
            .scan(
                &mut pos,
                &mut buf,
                &mut rids,
                7,
                None,
                &mut PageFilter::default(),
            )
            .unwrap()
        {
            assert_eq!(rids, (out.len()..out.len() + buf.len()).collect::<Vec<_>>());
            out.extend_from_slice(&buf);
        }
        out
    }

    /// The rows a scan filtered by `sargs` reads, with its page counts.
    fn pruned(b: &dyn StorageBackend, sargs: &[Sarg]) -> (Vec<Tuple>, u64, u64) {
        let mut filter = PageFilter::new(sargs);
        let (mut rows, mut rids, mut pos) = (Vec::new(), Vec::new(), 0);
        b.scan(
            &mut pos,
            &mut rows,
            &mut rids,
            usize::MAX,
            None,
            &mut filter,
        )
        .unwrap();
        (rows, filter.pages_read, filter.pages_skipped)
    }

    fn key_is(k: i64) -> Vec<Sarg> {
        vec![Sarg::Eq {
            col: 0,
            value: Value::Int(k),
        }]
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "prefsql-backend-test-{}-{}-{tag}.heap",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn paged_matches_mem_through_dml() {
        let (file, pool) = fixture("dml", MIN_POOL_BYTES);
        let mut mem = MemBackend::default();
        let mut paged = PagedBackend::create(file, pool);
        for i in 0..200i64 {
            let row = tuple![i, format!("name-{i}"), i % 7 == 0];
            assert_eq!(mem.insert(row.clone()).unwrap(), paged.insert(row).unwrap());
        }
        assert_eq!(rows_of(&mem), rows_of(&paged));
        assert_eq!(
            mem.fetch(123, None).unwrap(),
            paged.fetch(123, None).unwrap()
        );
        // Replace in place (same size class) and with growth.
        let small = tuple![1i64, "x", false];
        let big = tuple![1i64, "y".repeat(500), true];
        for b in [&mut mem as &mut dyn StorageBackend, &mut paged] {
            b.replace(5, small.clone()).unwrap();
            b.replace(6, big.clone()).unwrap();
        }
        assert_eq!(rows_of(&mem), rows_of(&paged));
        // Compacting delete keeps order and renumbers densely.
        let doomed = [0, 5, 6, 57, 199];
        assert_eq!(mem.delete(&doomed).unwrap(), paged.delete(&doomed).unwrap());
        assert_eq!(mem.row_count(), 195);
        assert_eq!(rows_of(&mem), rows_of(&paged));
    }

    #[test]
    fn jumbo_tuples_round_trip_and_keep_order() {
        let (file, pool) = fixture("jumbo", MIN_POOL_BYTES);
        let mut paged = PagedBackend::create(file, pool);
        let giant = "g".repeat(3 * PAGE_SIZE); // 3-page jumbo chain
        paged.insert(tuple![1i64, "before"]).unwrap();
        paged.insert(tuple![2i64, giant.clone()]).unwrap();
        paged.insert(tuple![3i64, "after"]).unwrap();
        let rows = rows_of(&paged);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], tuple![1i64, "before"]);
        assert_eq!(rows[1][1], Value::str(giant));
        assert_eq!(rows[2], tuple![3i64, "after"]);
        // The small row after the chain went to a fresh page, so page
        // order equals rid order for the reopen scan below.
        assert!(matches!(paged.dir[2], RowLoc::Slot { page, slot: 0 } if page > 1));
    }

    #[test]
    fn writeback_survives_a_cold_reopen() {
        // Write and delete through one pool, then read the file back
        // through a *fresh* handle and pool — nothing can come from a
        // warm cache, so this pins that flush really put the dirty
        // pages, tombstones included, on disk.
        let path = temp_path("reopen");
        let mut mem = MemBackend::default();
        {
            let file = Arc::new(HeapFile::create(&path, false).unwrap());
            let pool = Arc::new(BufferPool::new(MIN_POOL_BYTES));
            let mut paged = PagedBackend::create(file, pool);
            let giant = "j".repeat(PAGE_SIZE * 2);
            let mut rows: Vec<Tuple> = (0..200i64).map(|i| tuple![i, format!("row-{i}")]).collect();
            rows.push(tuple![200i64, giant]);
            rows.push(tuple![201i64, "tail"]);
            for row in rows {
                mem.insert(row.clone()).unwrap();
                paged.insert(row).unwrap();
            }
            // The jumbo row plus the first and last slots of page 1.
            let on_page_1: Vec<usize> = (0..paged.dir.len())
                .filter(|&rid| matches!(paged.dir[rid], RowLoc::Slot { page: 1, .. }))
                .collect();
            let doomed = [on_page_1[0], *on_page_1.last().unwrap(), 200];
            assert_eq!(mem.delete(&doomed).unwrap(), 3);
            assert_eq!(paged.delete(&doomed).unwrap(), 3);
            assert_eq!(paged.dead, 3, "three tombstones, no rewrite yet");
            assert_eq!(rows_of(&paged), rows_of(&mem));
            paged.flush().unwrap();
        }
        let file = Arc::new(HeapFile::open(&path, true).unwrap());
        let pool = Arc::new(BufferPool::new(MIN_POOL_BYTES));
        let mut reopened = PagedBackend::open(Arc::clone(&file), pool).unwrap();
        assert_eq!(reopened.row_count(), 199);
        assert_eq!(reopened.dead, 3, "open steps over the tombstones");
        assert_eq!(rows_of(&reopened), rows_of(&mem));
        assert_eq!(reopened.fetch(198, None).unwrap(), tuple![201i64, "tail"]);
        // Deleting more than half the rows tips tombstones past the live
        // rows: the file is rewritten without them and shrinks.
        let pages_before = file.page_count().unwrap();
        let doomed: Vec<usize> = (0..120).collect();
        assert_eq!(mem.delete(&doomed).unwrap(), 120);
        assert_eq!(reopened.delete(&doomed).unwrap(), 120);
        assert_eq!(reopened.dead, 0);
        reopened.flush().unwrap();
        assert!(
            file.page_count().unwrap() < pages_before,
            "{} pages before the compaction, {} after",
            pages_before,
            file.page_count().unwrap()
        );
        assert_eq!(rows_of(&reopened), rows_of(&mem));
    }

    #[test]
    fn deletes_tolerate_duplicates_and_out_of_range_ids() {
        let (file, pool) = fixture("dupdelete", MIN_POOL_BYTES);
        let mut mem = MemBackend::default();
        let mut paged = PagedBackend::create(file, pool);
        for i in 0..10i64 {
            mem.insert(tuple![i]).unwrap();
            paged.insert(tuple![i]).unwrap();
        }
        let doomed = [3, 10, 99];
        assert_eq!(mem.delete(&doomed).unwrap(), 1);
        assert_eq!(paged.delete(&doomed).unwrap(), 1);
        assert_eq!(paged.delete(&[]).unwrap(), 0);
        assert_eq!(rows_of(&paged), rows_of(&mem));
        // Rids stay dense: the old rid 4 is rid 3 now.
        assert_eq!(paged.fetch(3, None).unwrap(), tuple![4i64]);
    }

    #[test]
    fn table_100x_the_pool_scans_correctly() {
        // 4-page pool, ~400-page table: the scan must survive constant
        // eviction and still come back in insertion order.
        let (file, pool) = fixture("bigscan", MIN_POOL_BYTES);
        let mut paged = PagedBackend::create(file, Arc::clone(&pool));
        let pad = "p".repeat(80); // ~100 B/tuple → ~40 tuples/page
        let n = 16_000i64;
        for i in 0..n {
            paged.insert(tuple![i, pad.clone()]).unwrap();
        }
        assert!(
            paged.pages >= 400,
            "table only {} pages — not 100× the pool",
            paged.pages
        );
        let rows = rows_of(&paged);
        assert_eq!(rows.len(), n as usize);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Value::Int(i as i64));
        }
        let s = pool.stats();
        assert!(s.evictions > 0, "a 100× scan must evict: {s:?}");
    }

    #[test]
    fn clones_share_the_heap_file() {
        let (file, pool) = fixture("clone", MIN_POOL_BYTES);
        let mut paged = PagedBackend::create(file, pool);
        paged.insert(tuple![1i64]).unwrap();
        let snapshot = paged.boxed_clone();
        paged.insert(tuple![2i64]).unwrap();
        // The snapshot's directory is frozen at clone time...
        assert_eq!(snapshot.row_count(), 1);
        assert_eq!(paged.row_count(), 2);
        // ...and still reads its row through the shared file.
        assert_eq!(snapshot.fetch(0, None).unwrap(), tuple![1i64]);
    }

    /// A scan refills one buffer in place: every refill reports the rids
    /// of the rows it decoded — stepping over the pages its filter rules
    /// out — and leaves the columns outside its mask `NULL`.
    #[test]
    fn scans_refill_in_place_with_rids_under_a_mask() {
        let (file, pool) = fixture("refill", MIN_POOL_BYTES);
        let mut paged = PagedBackend::create(file, pool);
        let pad = "r".repeat(80);
        for i in 0..400i64 {
            paged.insert(tuple![i, pad.clone(), i % 3]).unwrap();
        }
        let sargs = [Sarg::Range {
            col: 0,
            low: Some(Value::Int(300)),
            high: None,
        }];
        let mask: &[bool] = &[true, false, true];
        let (mut filter, mut buf, mut rids, mut pos) =
            (PageFilter::new(&sargs), Vec::new(), Vec::new(), 0);
        let mut seen = Vec::new();
        while paged
            .scan(&mut pos, &mut buf, &mut rids, 16, Some(mask), &mut filter)
            .unwrap()
        {
            assert!(buf.len() <= 16 && buf.len() == rids.len());
            for (&rid, row) in rids.iter().zip(&buf) {
                assert_eq!(row, &tuple![rid as i64, Value::Null, rid as i64 % 3]);
                seen.push(rid);
            }
        }
        assert!(buf.is_empty() && rids.is_empty(), "the end leaves nothing");
        // Whole pages below key 300 were stepped over, and every row at
        // or past it was read, in rid order.
        let first = seen[0];
        assert!(first > 0 && first <= 300, "first rid read {first}");
        assert_eq!(seen, (first..400).collect::<Vec<_>>());
        assert!(filter.pages_skipped > 0);
    }

    /// The synopses' whole point: on a ~400-page table behind a 4-page
    /// pool, a point lookup by an ascending key reads the one page that
    /// can hold it — one pool miss — and so does the same lookup after a
    /// reopen, whose synopses `open` rebuilt.
    #[test]
    fn pruned_point_lookup_costs_one_pool_miss_and_one_after_a_reopen() {
        let path = temp_path("prune");
        let pad = "p".repeat(80);
        let n = 16_000i64;
        let k = n / 2;
        let lookup = |b: &PagedBackend, pool: &BufferPool| {
            let before = pool.stats();
            let (rows, read, skipped) = pruned(b, &key_is(k));
            assert!(
                rows.iter().any(|r| r[0] == Value::Int(k)),
                "row {k} missing"
            );
            assert_eq!((read, skipped), (1, u64::from(b.pages) - 1));
            pool.stats().since(&before).misses
        };
        {
            let file = Arc::new(HeapFile::create(&path, false).unwrap());
            let pool = BufferPool::new(MIN_POOL_BYTES);
            let pool = Arc::new(pool);
            let mut paged = PagedBackend::create(file, Arc::clone(&pool));
            for i in 0..n {
                paged.insert(tuple![i, pad.clone()]).unwrap();
            }
            assert!(paged.pages >= 400, "only {} pages", paged.pages);
            assert_eq!(lookup(&paged, &pool), 1);
            paged.flush().unwrap();
        }
        let file = Arc::new(HeapFile::open(&path, true).unwrap());
        let pool = Arc::new(BufferPool::new(MIN_POOL_BYTES));
        let reopened = PagedBackend::open(file, Arc::clone(&pool)).unwrap();
        assert_eq!(lookup(&reopened, &pool), 1);
    }

    /// A key-changing replace widens its page's synopsis, so the row is
    /// found under its new key — and the page is still read for the old
    /// one (loose, never wrong). The compaction rewrite rebuilds the
    /// synopses from the survivors, narrowing them again. Jumbo chains
    /// have none and are read whatever the filter says.
    #[test]
    fn synopses_widen_in_place_and_narrow_on_rewrite() {
        let (file, pool) = fixture("widen", MIN_POOL_BYTES);
        let mut paged = PagedBackend::create(file, pool);
        let pad = "w".repeat(80);
        for i in 0..400i64 {
            paged.insert(tuple![i, pad.clone()]).unwrap();
        }
        let slotted = u64::from(paged.pages);
        paged
            .insert(tuple![1_000i64, "j".repeat(2 * PAGE_SIZE)])
            .unwrap();
        let chain = u64::from(paged.pages) - slotted;
        let keys = |rows: &[Tuple]| -> Vec<Value> { rows.iter().map(|r| r[0].clone()).collect() };
        // Before: 7 lives on page 0 only; the jumbo chain (key 1 000) is
        // read by every filtered scan.
        let (rows, read, skipped) = pruned(&paged, &key_is(7));
        assert!(keys(&rows).contains(&Value::Int(7)));
        assert!(keys(&rows).contains(&Value::Int(1_000)));
        assert_eq!((read, skipped), (1 + chain, slotted - 1));
        // Move key 7 to 5 000, in place.
        paged.replace(7, tuple![5_000i64, pad.clone()]).unwrap();
        let (rows, read, _) = pruned(&paged, &key_is(5_000));
        assert!(keys(&rows).contains(&Value::Int(5_000)));
        assert_eq!(read, 1 + chain);
        let (rows, read, _) = pruned(&paged, &key_is(7));
        assert!(!keys(&rows).contains(&Value::Int(7)));
        assert_eq!(read, 1 + chain, "the old key's page is still read");
        // Delete all but key 5 000 and the jumbo row: past the
        // threshold, the file is rewritten and synopses shrink to fit.
        let doomed: Vec<usize> = (0..400).filter(|&rid| rid != 7).collect();
        paged.delete(&doomed).unwrap();
        assert_eq!(paged.dead, 0, "compacted");
        let (rows, read, skipped) = pruned(&paged, &key_is(7));
        assert_eq!(keys(&rows), vec![Value::Int(1_000)]);
        assert_eq!((read, skipped), (chain, 1));
        assert_eq!(pruned(&paged, &key_is(5_000)).0.len(), 2);
    }
}
