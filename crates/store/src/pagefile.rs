//! The [`PageStore`] contract and the in-memory reference backend.

use crate::IoStats;
use std::io;
use std::sync::Arc;

/// Page size in bytes; the paper fixes this to 4096 (Sec 6).
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within a page store.
pub type PageId = u64;

/// A page-granular store: fixed-size pages addressed by [`PageId`], with
/// every counted access recorded in shared [`IoStats`].
///
/// # Contract
///
/// * [`allocate`](Self::allocate) returns a zeroed page, reusing released
///   ids first. Allocation itself is **not** counted as I/O; the subsequent
///   `write` is.
/// * [`read_into`](Self::read_into) / [`write`](Self::write) are the
///   counted access paths — one call, one recorded page access. `write`
///   accepts at most [`PAGE_SIZE`] bytes and zero-fills the page tail, so a
///   page's content is always fully determined by its last write.
/// * [`peek_into`](Self::peek_into) is the *uncounted* read used by
///   in-place page editors and diagnostics: the caller accounts for I/O
///   itself (e.g. a read-modify-write charged as one read + one write), or
///   is explicitly outside the cost model (invariant checks, statistics,
///   persistence snapshots). Caching stores must serve `peek` from the same
///   coherent view as `read` but must not touch any counter.
/// * [`release`](Self::release) returns a page to the free list; its
///   content becomes unspecified until the id is reallocated (then zeroed).
/// * [`flush`](Self::flush) makes all prior writes durable on backends
///   with volatile state (buffer pools, OS caches). In-memory stores treat
///   it as a no-op.
///
/// # Fallibility
///
/// `allocate`, `read_into`, `peek_into` and `write` return `io::Result`:
/// a backend over real storage surfaces a failed pread/pwrite as a typed
/// error instead of aborting the process, and every wrapper (buffer pool,
/// journaling store, fault injector) propagates it. In-memory backends
/// never fail and always return `Ok`. Reading or writing an id that was
/// never allocated remains a logic error and may panic — fallibility is
/// for the storage medium, not for misuse.
///
/// # Sharing (`Send`/`Sync`)
///
/// The trait deliberately does not require `Send + Sync` — a backend over
/// a thread-bound resource is legal — but every backend in this crate
/// ([`PageFile`], [`crate::DiskPageFile`], [`crate::BufferPool`] over
/// either) is both, and the read-side methods (`read_into`, `peek_into`,
/// `stats`) take `&self` precisely so a shared store can serve many reader
/// threads at once. Implementations that are `Sync` must keep those
/// `&self` paths safe under concurrent callers (the in-memory file reads
/// immutable pages, the disk file uses positional I/O, the buffer pool
/// takes one latch). Mutating methods keep `&mut self`, so updates
/// remain exclusive by construction.
pub trait PageStore {
    /// Allocates a zeroed page (reusing freed pages first; uncounted).
    fn allocate(&mut self) -> io::Result<PageId>;

    /// Returns a page to the free list (uncounted).
    fn release(&mut self, id: PageId);

    /// Reads page `id` into `out` (counted).
    fn read_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()>;

    /// Reads page `id` into `out` without touching any counter.
    fn peek_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()>;

    /// Writes `data` (at most one page) to `id` (counted). Shorter slices
    /// leave the page tail zeroed.
    fn write(&mut self, id: PageId, data: &[u8]) -> io::Result<()>;

    /// The shared I/O counters of this store.
    fn stats(&self) -> &Arc<IoStats>;

    /// Number of live (allocated, not freed) pages.
    fn live_pages(&self) -> usize;

    /// Total allocated pages including freed ones — the extent of the id
    /// space (`0..capacity_pages()` are all valid page ids).
    fn capacity_pages(&self) -> usize;

    /// The currently free (released, unallocated) page ids, in the order
    /// they would be reused (last element first).
    fn free_list(&self) -> Vec<PageId>;

    /// Makes all prior writes durable. In-memory stores are a no-op.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// The on-disk file backing this store, when there is one (caches
    /// report their backend's). Lets persistence layers locate sibling
    /// metadata next to the page file; `None` for in-memory stores.
    fn backing_path(&self) -> Option<std::path::PathBuf> {
        None
    }

    /// Size of the live portion of the store in bytes — the paper's
    /// Table 1 metric.
    fn size_bytes(&self) -> u64 {
        (self.live_pages() * PAGE_SIZE) as u64
    }

    /// [`read_into`](Self::read_into) returning a fresh boxed page.
    fn read_page(&self, id: PageId) -> io::Result<Box<[u8; PAGE_SIZE]>> {
        let mut out = Box::new([0u8; PAGE_SIZE]);
        self.read_into(id, &mut out)?;
        Ok(out)
    }

    /// [`peek_into`](Self::peek_into) returning a fresh boxed page.
    fn peek_page(&self, id: PageId) -> io::Result<Box<[u8; PAGE_SIZE]>> {
        let mut out = Box::new([0u8; PAGE_SIZE]);
        self.peek_into(id, &mut out)?;
        Ok(out)
    }
}

/// The in-memory [`PageStore`]: a `Vec` of pages with simulated I/O
/// accounting — the substrate the paper's "node accesses" experiments run
/// on, and the default backend of every index.
///
/// Experiment harnesses reset the counters around each query to obtain the
/// paper's metric.
#[derive(Debug)]
pub struct PageFile {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    free: Vec<PageId>,
    stats: Arc<IoStats>,
}

impl Default for PageFile {
    fn default() -> Self {
        Self::new()
    }
}

impl PageFile {
    /// An empty file with fresh counters.
    pub fn new() -> Self {
        Self {
            pages: Vec::new(),
            free: Vec::new(),
            stats: Arc::new(IoStats::new()),
        }
    }

    /// Zero-copy counted read (in-memory only; generic code goes through
    /// [`PageStore::read_into`]).
    pub fn read(&self, id: PageId) -> &[u8] {
        self.stats.record_read();
        &self.pages[id as usize][..]
    }

    /// Zero-copy uncounted read (see [`PageStore::peek_into`] for the
    /// counting contract).
    pub fn peek(&self, id: PageId) -> &[u8] {
        &self.pages[id as usize][..]
    }
}

impl PageStore for PageFile {
    fn allocate(&mut self) -> io::Result<PageId> {
        if let Some(id) = self.free.pop() {
            self.pages[id as usize].fill(0);
            return Ok(id);
        }
        let id = self.pages.len() as PageId;
        self.pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok(id)
    }

    fn release(&mut self, id: PageId) {
        debug_assert!((id as usize) < self.pages.len());
        debug_assert!(!self.free.contains(&id), "double free of page {id}");
        self.free.push(id);
    }

    fn read_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        self.stats.record_read();
        out.copy_from_slice(&self.pages[id as usize][..]);
        Ok(())
    }

    fn peek_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        out.copy_from_slice(&self.pages[id as usize][..]);
        Ok(())
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        assert!(data.len() <= PAGE_SIZE, "page overflow: {}", data.len());
        self.stats.record_write();
        let page = &mut self.pages[id as usize];
        page[..data.len()].copy_from_slice(data);
        page[data.len()..].fill(0);
        Ok(())
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn live_pages(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    fn capacity_pages(&self) -> usize {
        self.pages.len()
    }

    fn free_list(&self) -> Vec<PageId> {
        self.free.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every backend in this crate must stay shareable across threads —
    /// the concurrency contract the query engine builds on. Compile-time
    /// only; if a field ever loses `Send`/`Sync`, this fails to build.
    #[test]
    fn backends_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IoStats>();
        assert_send_sync::<PageFile>();
        assert_send_sync::<crate::DiskPageFile>();
        assert_send_sync::<crate::BufferPool<PageFile>>();
        assert_send_sync::<crate::BufferPool<crate::DiskPageFile>>();
        assert_send_sync::<crate::ObjectHeap<PageFile>>();
        assert_send_sync::<crate::ObjectHeap<crate::BufferPool<crate::DiskPageFile>>>();
        assert_send_sync::<crate::FaultStore<PageFile>>();
        assert_send_sync::<crate::WalStore<crate::DiskPageFile>>();
        assert_send_sync::<crate::BufferPool<crate::WalStore<crate::DiskPageFile>>>();
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let mut f = PageFile::new();
        let a = f.allocate().unwrap();
        let b = f.allocate().unwrap();
        f.write(a, b"hello").unwrap();
        f.write(b, &[9u8; PAGE_SIZE]).unwrap();
        let pa = f.read(a);
        assert_eq!(&pa[..5], b"hello");
        assert_eq!(pa[5], 0);
        assert_eq!(f.read(b)[PAGE_SIZE - 1], 9);
        assert_eq!(f.stats().reads(), 2);
        assert_eq!(f.stats().writes(), 2);
    }

    #[test]
    fn trait_read_matches_zero_copy_read() {
        let mut f = PageFile::new();
        let a = f.allocate().unwrap();
        f.write(a, b"trait").unwrap();
        let boxed = f.read_page(a).unwrap();
        assert_eq!(&boxed[..5], b"trait");
        let mut buf = [0u8; PAGE_SIZE];
        f.peek_into(a, &mut buf).unwrap();
        assert_eq!(buf[..], boxed[..]);
        // One counted read (read_page); peek stays uncounted.
        assert_eq!(f.stats().reads(), 1);
    }

    #[test]
    fn shorter_write_zeroes_tail() {
        let mut f = PageFile::new();
        let a = f.allocate().unwrap();
        f.write(a, &[1u8; 100]).unwrap();
        f.write(a, &[2u8; 10]).unwrap();
        let page = f.read(a);
        assert_eq!(page[9], 2);
        assert_eq!(page[10], 0);
    }

    #[test]
    fn release_reuses_pages() {
        let mut f = PageFile::new();
        let a = f.allocate().unwrap();
        let _b = f.allocate().unwrap();
        assert_eq!(f.live_pages(), 2);
        f.release(a);
        assert_eq!(f.live_pages(), 1);
        assert_eq!(f.free_list(), vec![a]);
        let c = f.allocate().unwrap();
        assert_eq!(c, a);
        assert_eq!(f.live_pages(), 2);
        assert_eq!(f.capacity_pages(), 2);
        // Reused page must come back zeroed.
        assert!(f.peek(c).iter().all(|&x| x == 0));
    }

    #[test]
    fn size_accounting() {
        let mut f = PageFile::new();
        for _ in 0..3 {
            f.allocate().unwrap();
        }
        assert_eq!(f.size_bytes(), 3 * PAGE_SIZE as u64);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn oversized_write_panics() {
        let mut f = PageFile::new();
        let a = f.allocate().unwrap();
        let _ = f.write(a, &[0u8; PAGE_SIZE + 1]);
    }
}
