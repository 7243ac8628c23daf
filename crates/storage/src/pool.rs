//! The shared pinning buffer pool of the paged storage backend.
//!
//! One [`BufferPool`] per engine core caches heap-file pages in a fixed
//! number of [`PAGE_SIZE`]-byte frames, shared by every session. Pages
//! are addressed by `(heap-file id, page number)`; a frame holds an
//! `Arc` to its [`HeapFile`] so a dirty page can be written back at
//! eviction time even if the owning table has since been dropped (the
//! file is unlinked only when its last handle — possibly a pool frame —
//! goes away).
//!
//! Access is closure-scoped: [`BufferPool::with_page`] /
//! [`BufferPool::with_page_mut`] pin the frame, run the caller's
//! closure over the raw page bytes, and unpin before returning. Pins
//! are therefore strictly transient — a scan copies a page out under
//! the pin and decodes its tuples after releasing it — which is what
//! lets eight sessions share a four-page pool without pin deadlock. The pool serializes frame access behind one mutex
//! (IO included); that is deliberate v1 simplicity — the interesting
//! contention in this engine is above the storage layer.
//!
//! Eviction is the clock (second-chance) algorithm: every access sets a
//! frame's reference bit; the clock hand clears bits until it finds an
//! unreferenced, unpinned victim, writing it back first when dirty.
//! Hit/miss/eviction/write-back counters are kept per pool and surfaced
//! as [`PoolStats`] next to the spill metrics on the result surface.

use crate::heap::HeapFile;
use crate::page::PAGE_SIZE;
use prefsql_types::knobs::MIN_POOL_BYTES;
use prefsql_types::{Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Buffer-pool observability counters. Queries surface the *delta* of
/// these over their execution next to the spill metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Pool capacity, in pages.
    pub capacity_pages: usize,
    /// Page requests served from a cached frame.
    pub hits: u64,
    /// Page requests that had to read from (or allocate on) disk.
    pub misses: u64,
    /// Frames reclaimed by the clock hand.
    pub evictions: u64,
    /// Dirty pages written back (at eviction or an explicit flush).
    pub writebacks: u64,
}

impl PoolStats {
    /// The counter movement between an earlier snapshot and this one
    /// (capacity is carried over from `self`).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            capacity_pages: self.capacity_pages,
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
        }
    }

    /// True if no page was requested between the snapshots.
    pub fn is_idle(&self) -> bool {
        self.hits == 0 && self.misses == 0
    }
}

#[derive(Debug)]
struct PoolFrame {
    key: Option<(u64, u32)>,
    file: Option<Arc<HeapFile>>,
    data: Vec<u8>,
    dirty: bool,
    pinned: bool,
    referenced: bool,
}

impl PoolFrame {
    fn empty() -> Self {
        PoolFrame {
            key: None,
            file: None,
            data: vec![0u8; PAGE_SIZE],
            dirty: false,
            pinned: false,
            referenced: false,
        }
    }
}

#[derive(Debug)]
struct PoolInner {
    frames: Vec<PoolFrame>,
    map: HashMap<(u64, u32), usize>,
    hand: usize,
    evictions: u64,
    writebacks: u64,
}

/// A fixed-capacity page cache with clock eviction; see the module docs.
#[derive(Debug)]
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// A pool of `bytes / PAGE_SIZE` frames, clamped to at least
    /// [`MIN_POOL_BYTES`] worth (4 pages).
    pub fn new(bytes: usize) -> Self {
        let capacity = bytes.max(MIN_POOL_BYTES) / PAGE_SIZE;
        BufferPool {
            inner: Mutex::new(PoolInner {
                frames: (0..capacity).map(|_| PoolFrame::empty()).collect(),
                map: HashMap::new(),
                hand: 0,
                evictions: 0,
                writebacks: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn locked(&self) -> Result<MutexGuard<'_, PoolInner>> {
        self.inner
            .lock()
            .map_err(|_| Error::Concurrency("buffer pool lock poisoned".into()))
    }

    /// Pool capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.locked().map(|i| i.frames.len()).unwrap_or(0)
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let (capacity, evictions, writebacks) = match self.locked() {
            Ok(i) => (i.frames.len(), i.evictions, i.writebacks),
            Err(_) => (0, 0, 0),
        };
        PoolStats {
            capacity_pages: capacity,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions,
            writebacks,
        }
    }

    /// Pin `page_no` of `file` and run `f` over its bytes.
    pub fn with_page<R>(
        &self,
        file: &Arc<HeapFile>,
        page_no: u32,
        f: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<R> {
        let mut inner = self.locked()?;
        let idx = Self::load(&mut inner, &self.hits, &self.misses, file, page_no, false)?;
        inner.frames[idx].pinned = true;
        let result = f(&inner.frames[idx].data);
        inner.frames[idx].pinned = false;
        result
    }

    /// Pin `page_no` of `file` and run `f` over its bytes mutably; the
    /// frame is marked dirty. With `fresh`, the page is zero-initialized
    /// instead of read from disk (allocating past the current end).
    pub fn with_page_mut<R>(
        &self,
        file: &Arc<HeapFile>,
        page_no: u32,
        fresh: bool,
        f: impl FnOnce(&mut [u8]) -> Result<R>,
    ) -> Result<R> {
        let mut inner = self.locked()?;
        let idx = Self::load(&mut inner, &self.hits, &self.misses, file, page_no, fresh)?;
        inner.frames[idx].pinned = true;
        let result = f(&mut inner.frames[idx].data);
        inner.frames[idx].dirty = true;
        inner.frames[idx].pinned = false;
        result
    }

    /// Find or load the frame for `(file, page_no)`; returns its index.
    fn load(
        inner: &mut PoolInner,
        hits: &AtomicU64,
        misses: &AtomicU64,
        file: &Arc<HeapFile>,
        page_no: u32,
        fresh: bool,
    ) -> Result<usize> {
        let key = (file.id(), page_no);
        if let Some(&idx) = inner.map.get(&key) {
            hits.fetch_add(1, Ordering::Relaxed);
            inner.frames[idx].referenced = true;
            return Ok(idx);
        }
        misses.fetch_add(1, Ordering::Relaxed);
        let idx = Self::victim(inner)?;
        Self::evict_frame(inner, idx)?;
        if fresh {
            inner.frames[idx].data.fill(0);
        } else {
            file.read_page(page_no, &mut inner.frames[idx].data)?;
        }
        let frame = &mut inner.frames[idx];
        frame.key = Some(key);
        frame.file = Some(Arc::clone(file));
        frame.dirty = false;
        frame.referenced = true;
        inner.map.insert(key, idx);
        Ok(idx)
    }

    /// The clock hand: find an unpinned victim frame, giving referenced
    /// frames a second chance.
    fn victim(inner: &mut PoolInner) -> Result<usize> {
        let n = inner.frames.len();
        if n == 0 {
            return Err(Error::Io("buffer pool has no frames".into()));
        }
        // Two full sweeps always suffice: the first clears reference
        // bits, the second takes the first unpinned frame. Only pins —
        // which are transient and held under this same lock — could
        // block every frame, and they can't while we hold it.
        for _ in 0..2 * n {
            let idx = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            let frame = &mut inner.frames[idx];
            if frame.pinned {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            return Ok(idx);
        }
        Err(Error::Io("buffer pool exhausted: all frames pinned".into()))
    }

    /// Write back (if dirty) and unmap frame `idx`.
    fn evict_frame(inner: &mut PoolInner, idx: usize) -> Result<()> {
        let (key, dirty) = (inner.frames[idx].key, inner.frames[idx].dirty);
        let Some(key) = key else { return Ok(()) };
        if dirty {
            let frame = &inner.frames[idx];
            let file = frame
                .file
                .as_ref()
                .expect("occupied frame always carries its file handle");
            file.write_page(key.1, &frame.data)?;
            inner.writebacks += 1;
        }
        inner.evictions += 1;
        inner.map.remove(&key);
        let frame = &mut inner.frames[idx];
        frame.key = None;
        frame.file = None;
        frame.dirty = false;
        Ok(())
    }

    /// Write every dirty page of heap file `file_id` back to disk (the
    /// pages stay cached, clean).
    pub fn flush_file(&self, file_id: u64) -> Result<()> {
        let mut inner = self.locked()?;
        for idx in 0..inner.frames.len() {
            let frame = &inner.frames[idx];
            if frame.dirty && frame.key.is_some_and(|(fid, _)| fid == file_id) {
                let page_no = frame.key.expect("checked above").1;
                frame
                    .file
                    .as_ref()
                    .expect("occupied frame always carries its file handle")
                    .write_page(page_no, &frame.data)?;
                inner.frames[idx].dirty = false;
                inner.writebacks += 1;
            }
        }
        Ok(())
    }

    /// Drop every cached page of heap file `file_id` *without* write-back
    /// — the table was dropped or its file rewritten, so the cached
    /// bytes are dead.
    pub fn forget_file(&self, file_id: u64) -> Result<()> {
        let mut inner = self.locked()?;
        for idx in 0..inner.frames.len() {
            if inner.frames[idx].key.is_some_and(|(fid, _)| fid == file_id) {
                let key = inner.frames[idx].key.expect("checked above");
                inner.map.remove(&key);
                let frame = &mut inner.frames[idx];
                frame.key = None;
                frame.file = None;
                frame.dirty = false;
                frame.referenced = false;
            }
        }
        Ok(())
    }

    /// Resize the pool to `bytes / PAGE_SIZE` frames (clamped to at
    /// least [`MIN_POOL_BYTES`]). Shrinking evicts surplus frames,
    /// writing dirty ones back.
    pub fn resize(&self, bytes: usize) -> Result<()> {
        let capacity = bytes.max(MIN_POOL_BYTES) / PAGE_SIZE;
        let mut inner = self.locked()?;
        while inner.frames.len() > capacity {
            let idx = inner.frames.len() - 1;
            Self::evict_frame(&mut inner, idx)?;
            inner.frames.pop();
        }
        while inner.frames.len() < capacity {
            inner.frames.push(PoolFrame::empty());
        }
        inner.hand = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(tag: &str) -> Arc<HeapFile> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "prefsql-pool-test-{}-{}-{tag}.heap",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Arc::new(HeapFile::create(path, true).unwrap())
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let pool = BufferPool::new(4 * PAGE_SIZE);
        let f = tmp_file("hitmiss");
        pool.with_page_mut(&f, 0, true, |p| {
            p[100] = 42;
            Ok(())
        })
        .unwrap();
        let v = pool.with_page(&f, 0, |p| Ok(p[100])).unwrap();
        assert_eq!(v, 42);
        let s = pool.stats();
        assert_eq!(s.capacity_pages, 4);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn eviction_writes_dirty_pages_back() {
        let pool = BufferPool::new(MIN_POOL_BYTES); // 4 frames
        let f = tmp_file("evict");
        // Dirty 8 distinct pages through a 4-frame pool.
        for page in 0..8u32 {
            pool.with_page_mut(&f, page, true, |p| {
                p[0] = crate::page::KIND_SLOTTED;
                p[1] = page as u8;
                Ok(())
            })
            .unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.misses, 8);
        assert!(s.evictions >= 4, "{s:?}");
        assert!(s.writebacks >= 4, "{s:?}");
        // Every page reads back with its payload — evicted ones from
        // disk, resident ones from the pool.
        for page in 0..8u32 {
            let v = pool.with_page(&f, page, |p| Ok(p[1])).unwrap();
            assert_eq!(v, page as u8);
        }
    }

    #[test]
    fn flush_persists_without_eviction() {
        let pool = BufferPool::new(64 * PAGE_SIZE);
        let f = tmp_file("flush");
        pool.with_page_mut(&f, 0, true, |p| {
            p[7] = 9;
            Ok(())
        })
        .unwrap();
        assert_eq!(f.page_count().unwrap(), 0, "dirty page not yet on disk");
        pool.flush_file(f.id()).unwrap();
        assert_eq!(f.page_count().unwrap(), 1);
        let mut buf = vec![0u8; PAGE_SIZE];
        f.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[7], 9);
        assert_eq!(pool.stats().writebacks, 1);
        // A second flush is a no-op: the page is clean now.
        pool.flush_file(f.id()).unwrap();
        assert_eq!(pool.stats().writebacks, 1);
    }

    #[test]
    fn forget_discards_dirty_pages() {
        let pool = BufferPool::new(64 * PAGE_SIZE);
        let f = tmp_file("forget");
        pool.with_page_mut(&f, 0, true, |p| {
            p[0] = 1;
            Ok(())
        })
        .unwrap();
        pool.forget_file(f.id()).unwrap();
        assert_eq!(f.page_count().unwrap(), 0, "forgotten page never lands");
        // The key is gone: re-reading is a miss (and fails — no page 0).
        assert!(pool.with_page(&f, 0, |_| Ok(())).is_err());
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let pool = BufferPool::new(16 * PAGE_SIZE);
        let f = tmp_file("resize");
        for page in 0..8u32 {
            pool.with_page_mut(&f, page, true, |_| Ok(())).unwrap();
        }
        pool.resize(MIN_POOL_BYTES).unwrap();
        assert_eq!(pool.capacity_pages(), 4);
        // Shrink wrote surviving dirty pages out; data still readable.
        for page in 0..8u32 {
            pool.with_page(&f, page, |_| Ok(())).unwrap();
        }
        pool.resize(32 * PAGE_SIZE).unwrap();
        assert_eq!(pool.capacity_pages(), 32);
        // Sub-minimum resize clamps to the 4-page floor.
        pool.resize(1).unwrap();
        assert_eq!(pool.capacity_pages(), 4);
    }

    #[test]
    fn stats_delta_between_snapshots() {
        let pool = BufferPool::new(4 * PAGE_SIZE);
        let f = tmp_file("delta");
        pool.with_page_mut(&f, 0, true, |_| Ok(())).unwrap();
        let before = pool.stats();
        assert!(pool.stats().since(&before).is_idle());
        pool.with_page(&f, 0, |_| Ok(())).unwrap();
        let d = pool.stats().since(&before);
        assert_eq!((d.hits, d.misses), (1, 0));
        assert!(!d.is_idle());
    }
}
