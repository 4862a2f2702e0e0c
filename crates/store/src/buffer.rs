//! A capacity-bounded, lock-striped LRU buffer pool over any [`PageStore`].
//!
//! The pool's own [`IoStats`] count *logical* accesses — exactly what the
//! caller issued, so an index's node-access accounting is identical
//! whatever backend sits underneath. The backend's counters keep counting
//! *physical* transfers (misses, dirty write-backs), which is how real
//! I/O is measured against buffer size (`tests/pool_invariants.rs` replays
//! one trace through growing pools). Counted logical reads additionally
//! record a cache hit or miss on the pool stats (`hits + misses == reads`
//! at all times in the absence of concurrent readers; under concurrency
//! each read still records exactly one hit or miss, so the totals always
//! agree once readers quiesce).
//!
//! ## Latching
//!
//! Frames are partitioned into `shards` **latches** by page id
//! (`id % shards`), each guarding its own frame table, so concurrent
//! readers of different pages proceed in parallel instead of serialising
//! on one pool-wide lock. The backend sits behind an `RwLock` touched
//! only on misses, evictions and write-backs: miss fetches take it
//! *shared* (positional backend reads are `&self` and run concurrently),
//! mutations take it exclusively. A miss releases its shard latch for the
//! duration of the physical read — same-shard hits are never stuck behind
//! a disk read — which is sound because of a *per-page* argument: a page
//! being miss-fetched has no resident frame, and a dirty version of it
//! can only have existed if an eviction wrote it back **under the same
//! shard latch** the miss just released, ordering the write-back before
//! the fetch; pool mutation (`write`/`release`) is `&mut self` and so
//! cannot overlap `&self` reads at all. Racing fetchers of one page can
//! therefore only duplicate identical work, never diverge. (The eviction
//! write-back staying under the victim's shard latch is load-bearing —
//! moving it outside would let a concurrent miss of the victim read the
//! stale backend image.) Backend locks are only ever acquired while
//! holding at most one shard latch and never the reverse, which makes the
//! pool deadlock-free by construction.
//!
//! Eviction is LRU **per shard** (recency is a pool-wide atomic tick).
//! With one shard this is the exact global LRU of the classic pool — the
//! stack-algorithm property `tests/pool_invariants.rs`
//! (`single_latch_physical_reads_never_grow_with_capacity`) asserts; with
//! more shards it is the standard lock-striped approximation every
//! production buffer manager makes. [`BufferPool::new`] picks a shard
//! count automatically (small pools stay exact, large pools stripe);
//! [`BufferPool::with_shards`] pins it.

use crate::pagefile::{PageId, PageStore, PAGE_SIZE};
use crate::IoStats;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Pools smaller than this stay single-sharded (exact global LRU); larger
/// pools get one shard per this many frames, capped at [`MAX_SHARDS`].
const FRAMES_PER_SHARD: usize = 8;
/// Upper bound on the automatic shard count.
const MAX_SHARDS: usize = 8;

struct Frame {
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    last_used: u64,
}

/// One latch: the frames of every page id with `id % shards == index`,
/// bounded by its share of the pool capacity.
struct Shard {
    frames: HashMap<PageId, Frame>,
    capacity: usize,
}

impl Shard {
    /// Evicts least-recently-used frames until one slot is free, writing
    /// dirty victims back. Called with the shard latch held; takes the
    /// backend lock exclusively per victim (shard → backend order). A
    /// failed write-back reinstates the victim frame (nothing is lost)
    /// and surfaces the backend error.
    fn make_room<S: PageStore>(&mut self, backend: &RwLock<S>) -> io::Result<()> {
        while self.frames.len() >= self.capacity {
            let victim = self
                .frames
                .iter()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(&id, _)| id)
                // xlint: allow(panic-freedom) -- invariant: non-empty shard at capacity
                .expect("non-empty shard at capacity");
            // xlint: allow(panic-freedom) -- invariant: victim resident
            let frame = self.frames.remove(&victim).expect("victim resident");
            if frame.dirty {
                if let Err(e) = write_lock(backend).write(victim, &frame.data[..]) {
                    self.frames.insert(victim, frame);
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

fn lock<'a, S>(m: &'a Mutex<S>) -> MutexGuard<'a, S> {
    // xlint: allow(panic-freedom) -- invariant: buffer pool poisoned — a poisoned lock means a panicked writer, and re-raising is the only sound response
    m.lock().expect("buffer pool poisoned")
}

fn read_lock<'a, S>(l: &'a RwLock<S>) -> RwLockReadGuard<'a, S> {
    // xlint: allow(panic-freedom) -- invariant: buffer pool backend poisoned — a poisoned lock means a panicked writer, and re-raising is the only sound response
    l.read().expect("buffer pool backend poisoned")
}

fn write_lock<'a, S>(l: &'a RwLock<S>) -> RwLockWriteGuard<'a, S> {
    // xlint: allow(panic-freedom) -- invariant: buffer pool backend poisoned — a poisoned lock means a panicked writer, and re-raising is the only sound response
    l.write().expect("buffer pool backend poisoned")
}

/// An LRU page cache in front of a slower [`PageStore`], safe to share
/// across reader threads (`&self` reads take per-shard latches, not one
/// global lock).
///
/// * Counted reads are served from resident frames; misses fetch from the
///   backend (a physical read on the backend's counters). Peeks serve
///   resident frames for coherence but never fetch into the cache.
/// * Writes are absorbed into the frame and marked dirty (**write-back**):
///   the backend sees them only when the frame is evicted or on
///   [`flush`](PageStore::flush). Dropping the pool flushes best-effort;
///   call `flush` explicitly where durability matters.
/// * At most `capacity` pages are resident at any time (each shard is
///   bounded by its share of the capacity, and the shares sum to it).
pub struct BufferPool<S: PageStore> {
    shards: Box<[Mutex<Shard>]>,
    backend: RwLock<S>,
    tick: AtomicU64,
    stats: Arc<IoStats>,
    backend_stats: Arc<IoStats>,
    capacity: usize,
}

impl<S: PageStore> BufferPool<S> {
    /// Wraps `backend` with an LRU cache of `capacity` pages (>= 1),
    /// choosing the shard count automatically: pools of fewer than
    /// 2 × `FRAMES_PER_SHARD` frames stay single-sharded (exact LRU),
    /// larger ones stripe into up to `MAX_SHARDS` latches.
    pub fn new(backend: S, capacity: usize) -> Self {
        let shards = (capacity / FRAMES_PER_SHARD).clamp(1, MAX_SHARDS);
        Self::with_shards(backend, capacity, shards)
    }

    /// Wraps `backend` with an explicit shard count (`1 <= shards <=
    /// capacity`). One shard gives the exact global-LRU pool; more shards
    /// trade LRU exactness for reader parallelism.
    pub fn with_shards(backend: S, capacity: usize, shards: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        assert!(
            (1..=capacity).contains(&shards),
            "shard count {shards} must lie in 1..={capacity}"
        );
        let backend_stats = Arc::clone(backend.stats());
        let shards: Box<[Mutex<Shard>]> = (0..shards)
            .map(|i| {
                let share = capacity / shards + usize::from(i < capacity % shards);
                Mutex::new(Shard {
                    frames: HashMap::with_capacity(share),
                    capacity: share,
                })
            })
            .collect();
        Self {
            shards,
            backend: RwLock::new(backend),
            tick: AtomicU64::new(0),
            stats: Arc::new(IoStats::new()),
            backend_stats,
            capacity,
        }
    }

    /// The configured frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of latches the frame table is striped into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of pages currently resident in the cache.
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(|s| lock(s).frames.len()).sum()
    }

    /// The backend's *physical* I/O counters (misses + write-backs).
    pub fn backend_stats(&self) -> &Arc<IoStats> {
        &self.backend_stats
    }

    /// Exclusive access to the wrapped backend. `&mut self` guarantees no
    /// latch or backend lock is contended — commit protocols use this to
    /// drive the backend directly after a [`write_back`](Self::write_back).
    pub fn backend_mut(&mut self) -> &mut S {
        self.backend
            .get_mut()
            // xlint: allow(panic-freedom) -- invariant: buffer pool backend poisoned — a poisoned lock means a panicked writer, and re-raising is the only sound response
            .expect("buffer pool backend poisoned")
    }

    /// Writes every dirty frame back to the backend **without** flushing
    /// it — the first half of `flush`, split out so a journaling backend
    /// can interleave its own commit protocol between write-back and
    /// durability. Errors if part of the pool was poisoned by an earlier
    /// panic (those frames are suspect and skipped).
    pub fn write_back(&mut self) -> io::Result<()> {
        Self::whole(self.write_dirty(false))
    }

    /// The one walk over every shard's dirty frames: writes each back and,
    /// with `then_flush`, flushes the backend after the last. Runs under
    /// `&mut self`, so no latch can be contended: `get_mut` gives lock-free
    /// access. Poisoned state (a reader or evictor panicked mid-operation)
    /// is skipped rather than trusted — its frames are suspect; `false` is
    /// returned so `write_back` and `flush` can report the gap while `Drop`
    /// stays silent.
    fn write_dirty(&mut self, then_flush: bool) -> (bool, io::Result<()>) {
        let Ok(backend) = self.backend.get_mut() else {
            return (false, Ok(()));
        };
        let mut complete = true;
        for shard in self.shards.iter_mut() {
            let Ok(shard) = shard.get_mut() else {
                complete = false;
                continue;
            };
            for (&id, frame) in shard.frames.iter_mut() {
                if frame.dirty {
                    if let Err(e) = backend.write(id, &frame.data[..]) {
                        return (complete, Err(e));
                    }
                    frame.dirty = false;
                }
            }
        }
        let flushed = if then_flush { backend.flush() } else { Ok(()) };
        (complete, flushed)
    }

    /// A walk's outcome as one result: the backend's error first, then
    /// `Other` for poisoned state the walk had to skip.
    fn whole((complete, result): (bool, io::Result<()>)) -> io::Result<()> {
        result?;
        if !complete {
            return Err(io::Error::other(
                "buffer pool partially poisoned by an earlier panic; dirty frames lost",
            ));
        }
        Ok(())
    }

    fn shard(&self, id: PageId) -> &Mutex<Shard> {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        // ordering: Relaxed — ticks only order evictions; an occasional
        // stale comparison merely evicts a near-LRU frame instead of the
        // exact LRU one, which sharding already permits.
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }
}

impl<S: PageStore> PageStore for BufferPool<S> {
    fn allocate(&mut self) -> io::Result<PageId> {
        write_lock(&self.backend).allocate()
    }

    fn release(&mut self, id: PageId) {
        // The page is dead: discard its frame, dirty or not.
        lock(self.shard(id)).frames.remove(&id);
        write_lock(&self.backend).release(id);
    }

    fn read_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        self.stats.record_read();
        let tick = self.next_tick();
        {
            let mut shard = lock(self.shard(id));
            if let Some(frame) = shard.frames.get_mut(&id) {
                self.stats.record_cache_hit();
                frame.last_used = tick;
                out.copy_from_slice(&frame.data[..]);
                return Ok(());
            }
        }
        // Miss: fetch with the shard latch *released* (same-shard hits
        // proceed during the physical read) and the backend lock *shared*
        // (concurrent misses pread in parallel). Safe because mutation is
        // `&mut self`: the bytes under `id` cannot change while any
        // `&self` reads are in flight, so a racing fetcher of the same
        // page reads identical data.
        self.stats.record_cache_miss();
        let mut data = Box::new([0u8; PAGE_SIZE]);
        read_lock(&self.backend).read_into(id, &mut data)?;
        out.copy_from_slice(&data[..]);
        let mut shard = lock(self.shard(id));
        if let Some(frame) = shard.frames.get_mut(&id) {
            // Another reader cached the page while we fetched: keep its
            // (identical) frame, just refresh recency.
            frame.last_used = tick;
        } else if shard.make_room(&self.backend).is_ok() {
            // A failed eviction write-back only means the fetched page is
            // not cached; the read itself already succeeded.
            shard.frames.insert(
                id,
                Frame {
                    data,
                    dirty: false,
                    last_used: tick,
                },
            );
        }
        Ok(())
    }

    /// Peeks never disturb the pool: a resident (possibly dirty) frame is
    /// served for coherence, but a miss reads straight from the backend
    /// without inserting a frame — so out-of-model scans (invariant
    /// checks, statistics, persistence snapshots) cannot evict the hot
    /// working set, and no counter moves anywhere.
    fn peek_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        {
            let shard = lock(self.shard(id));
            if let Some(frame) = shard.frames.get(&id) {
                out.copy_from_slice(&frame.data[..]);
                return Ok(());
            }
        }
        // Not resident: uncached backend peek outside the shard latch
        // (shared lock — peeks of different pages run concurrently). The
        // same `&mut self`-mutation argument as in `read_into` makes the
        // latch-free window coherent.
        read_lock(&self.backend).peek_into(id, out)
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        assert!(data.len() <= PAGE_SIZE, "page overflow: {}", data.len());
        self.stats.record_write();
        let tick = self.next_tick();
        let mut shard = lock(self.shard(id));
        if !shard.frames.contains_key(&id) {
            shard.make_room(&self.backend)?;
            // A write covers the whole page (shorter data zero-fills), so a
            // miss needs no backend read.
            shard.frames.insert(
                id,
                Frame {
                    data: Box::new([0u8; PAGE_SIZE]),
                    dirty: false,
                    last_used: tick,
                },
            );
        }
        // xlint: allow(panic-freedom) -- invariant: frame just ensured
        let frame = shard.frames.get_mut(&id).expect("frame just ensured");
        frame.data[..data.len()].copy_from_slice(data);
        frame.data[data.len()..].fill(0);
        frame.dirty = true;
        frame.last_used = tick;
        Ok(())
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn live_pages(&self) -> usize {
        read_lock(&self.backend).live_pages()
    }

    fn capacity_pages(&self) -> usize {
        read_lock(&self.backend).capacity_pages()
    }

    fn free_list(&self) -> Vec<PageId> {
        read_lock(&self.backend).free_list()
    }

    /// Writes every dirty frame back and flushes the backend. Reports
    /// `Other` when part of the pool was poisoned by an earlier panic and
    /// had to be skipped (those frames are lost, as in any crashed pool).
    fn flush(&mut self) -> io::Result<()> {
        Self::whole(self.write_dirty(true))
    }

    fn backing_path(&self) -> Option<std::path::PathBuf> {
        read_lock(&self.backend).backing_path()
    }
}

impl<S: PageStore> Drop for BufferPool<S> {
    fn drop(&mut self) {
        // Best-effort, poison-tolerant: skip state a panicking thread left
        // behind rather than panic inside drop (which would abort the
        // process and mask the original panic).
        let _ = self.write_dirty(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageFile;

    fn pool(capacity: usize) -> BufferPool<PageFile> {
        BufferPool::new(PageFile::new(), capacity)
    }

    #[test]
    fn small_pools_stay_exact_and_large_pools_stripe() {
        assert_eq!(pool(1).shard_count(), 1);
        assert_eq!(pool(8).shard_count(), 1);
        assert_eq!(pool(15).shard_count(), 1);
        assert_eq!(pool(16).shard_count(), 2);
        assert_eq!(pool(64).shard_count(), 8);
        assert_eq!(pool(4096).shard_count(), MAX_SHARDS);
        let pinned = BufferPool::with_shards(PageFile::new(), 64, 1);
        assert_eq!(pinned.shard_count(), 1);
    }

    #[test]
    fn shard_capacities_sum_to_the_pool_capacity() {
        for (capacity, shards) in [(7usize, 3usize), (16, 2), (9, 4), (64, 8)] {
            let p = BufferPool::with_shards(PageFile::new(), capacity, shards);
            let total: usize = p.shards.iter().map(|s| lock(s).capacity).sum();
            assert_eq!(total, capacity);
            assert!(p.shards.iter().all(|s| lock(s).capacity >= 1));
        }
    }

    #[test]
    fn read_through_and_hit_on_repeat() {
        let mut p = pool(4);
        let a = p.allocate().unwrap();
        p.write(a, b"cached").unwrap();
        assert_eq!(&p.read_page(a).unwrap()[..6], b"cached");
        assert_eq!(&p.read_page(a).unwrap()[..6], b"cached");
        // Both logical reads hit the frame created by the write.
        assert_eq!(p.stats().reads(), 2);
        assert_eq!(p.stats().cache_hits(), 2);
        assert_eq!(p.stats().cache_misses(), 0);
        // Nothing physical happened yet (write-back policy).
        assert_eq!(p.backend_stats().total(), 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut p = pool(2);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, &[i as u8 + 1; 8]).unwrap();
        }
        // Capacity 2: writing 4 pages evicted the first two to the backend.
        assert!(p.resident_pages() <= 2);
        assert!(p.backend_stats().writes() >= 2);
        // Read-after-evict returns the last written content (via a miss).
        assert_eq!(p.read_page(ids[0]).unwrap()[0], 1);
        assert_eq!(p.stats().cache_misses(), 1);
    }

    #[test]
    fn lru_keeps_the_recently_used_page() {
        let mut p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        p.write(a, b"a").unwrap();
        p.write(b, b"b").unwrap();
        let _ = p.read_page(a).unwrap(); // a is now more recent than b
        p.write(c, b"c").unwrap(); // evicts b, not a
        let misses0 = p.stats().cache_misses();
        let _ = p.read_page(a).unwrap();
        assert_eq!(
            p.stats().cache_misses(),
            misses0,
            "a must still be resident"
        );
        let _ = p.read_page(b).unwrap();
        assert_eq!(p.stats().cache_misses(), misses0 + 1, "b was evicted");
    }

    #[test]
    fn sharded_pool_keeps_reads_and_writes_coherent() {
        let mut p = BufferPool::with_shards(PageFile::new(), 8, 4);
        let ids: Vec<PageId> = (0..24).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, &[i as u8 + 1; 16]).unwrap();
        }
        assert!(p.resident_pages() <= 8);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                p.read_page(id).unwrap()[7],
                i as u8 + 1,
                "page {id} lost its write"
            );
        }
        assert_eq!(
            p.stats().cache_hits() + p.stats().cache_misses(),
            p.stats().reads()
        );
    }

    #[test]
    fn peek_bypasses_all_counting() {
        let mut p = pool(2);
        let a = p.allocate().unwrap();
        p.write(a, b"quiet").unwrap();
        p.flush().unwrap();
        let before = (
            p.stats().reads(),
            p.stats().cache_hits() + p.stats().cache_misses(),
        );
        let page = p.peek_page(a).unwrap();
        assert_eq!(&page[..5], b"quiet");
        assert_eq!(
            (
                p.stats().reads(),
                p.stats().cache_hits() + p.stats().cache_misses()
            ),
            before
        );
    }

    #[test]
    fn peek_misses_do_not_disturb_the_cache() {
        let mut p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let cold = p.allocate().unwrap();
        p.write(a, b"hot-a").unwrap();
        p.write(b, b"hot-b").unwrap();
        p.flush().unwrap();
        // `cold` was zero-allocated and never touched since: not resident.
        assert_eq!(p.resident_pages(), 2);
        let page = p.peek_page(cold).unwrap();
        assert!(page.iter().all(|&x| x == 0));
        // The peek neither cached `cold` nor evicted the hot frames …
        assert_eq!(p.resident_pages(), 2);
        let misses0 = p.stats().cache_misses();
        let _ = p.read_page(a).unwrap();
        let _ = p.read_page(b).unwrap();
        assert_eq!(
            p.stats().cache_misses(),
            misses0,
            "hot set must survive peeks"
        );
        // … and a peek of a dirty resident frame still sees the new bytes.
        p.write(a, b"dirty").unwrap();
        assert_eq!(&p.peek_page(a).unwrap()[..5], b"dirty");
    }

    #[test]
    fn flush_propagates_to_backend_and_clears_dirt() {
        let mut p = pool(4);
        let a = p.allocate().unwrap();
        p.write(a, b"durable").unwrap();
        p.flush().unwrap();
        let w = p.backend_stats().writes();
        assert!(w >= 1);
        p.flush().unwrap();
        assert_eq!(
            p.backend_stats().writes(),
            w,
            "clean frames are not rewritten"
        );
    }

    #[test]
    fn release_discards_the_frame() {
        let mut p = pool(4);
        let a = p.allocate().unwrap();
        p.write(a, b"dead").unwrap();
        p.release(a);
        assert_eq!(p.resident_pages(), 0);
        // Reallocation hands the id back zeroed.
        let b = p.allocate().unwrap();
        assert_eq!(b, a);
        assert!(p.read_page(b).unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }

    #[test]
    #[should_panic(expected = "must lie in")]
    fn more_shards_than_frames_rejected() {
        let _ = BufferPool::with_shards(PageFile::new(), 2, 3);
    }

    #[test]
    fn drop_and_flush_tolerate_poisoned_latches() {
        // Genuinely poison the latch and the backend lock: a dirty frame
        // for an id the backend never allocated panics the eviction
        // write-back *while the shard latch and exclusive backend lock
        // are held*. Afterwards, `flush` must report an error (not panic)
        // and dropping the pool must stay best-effort — not abort via
        // panic-in-drop.
        let mut p = BufferPool::with_shards(PageFile::new(), 1, 1);
        p.write(9_999, b"bogus: no such backend page").unwrap();
        let evict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.write(8_888, b"forces eviction of the bogus frame")
                .unwrap();
        }));
        assert!(evict.is_err(), "evicting the bogus frame must panic");
        let flushed = p.flush();
        assert!(flushed.is_err(), "flush over poisoned state must error");
        drop(p); // must return, skipping the poisoned state
    }

    #[test]
    fn concurrent_readers_see_coherent_pages() {
        let mut p = BufferPool::with_shards(PageFile::new(), 16, 4);
        let ids: Vec<PageId> = (0..64).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, &(i as u64).to_le_bytes()).unwrap();
        }
        let p = &p;
        std::thread::scope(|s| {
            for t in 0..4 {
                let ids = &ids;
                s.spawn(move || {
                    for round in 0..50 {
                        for (i, &id) in ids.iter().enumerate() {
                            if (i + t + round) % 3 == 0 {
                                let page = p.read_page(id).unwrap();
                                let got = u64::from_le_bytes(page[..8].try_into().unwrap());
                                assert_eq!(got, i as u64, "thread {t} read torn page {id}");
                            }
                        }
                    }
                });
            }
        });
        assert!(p.resident_pages() <= 16);
        assert_eq!(
            p.stats().cache_hits() + p.stats().cache_misses(),
            p.stats().reads(),
            "every counted read records exactly one hit or miss"
        );
    }
}
