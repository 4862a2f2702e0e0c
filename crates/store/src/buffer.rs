//! A capacity-bounded LRU buffer pool over any [`PageStore`].
//!
//! The pool's own [`IoStats`] count *logical* accesses — exactly what the
//! caller issued, so an index's node-access accounting is identical
//! whatever backend sits underneath. The backend's counters keep counting
//! *physical* transfers (misses, dirty write-backs), which is how real
//! I/O is measured against buffer size (`tests/pool_invariants.rs` replays
//! one trace through growing pools). Every counted logical read records
//! exactly one cache hit or miss on the pool stats, so `hits + misses ==
//! reads` whenever no read is in flight.
//!
//! One latch guards the frame table and the backend together, and a miss
//! reads the backend while holding it, so eviction is the exact global LRU.
//! No workload here has concurrent misses, the one case lock striping
//! would speed up (see "The buffer pool" in `docs/API.md`).

use crate::pagefile::{PageId, PageStore, PAGE_SIZE};
use crate::IoStats;
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

struct Frame {
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    last_used: u64,
}

/// Everything the latch guards: the resident frames, the backend and the
/// LRU clock.
struct State<S> {
    frames: HashMap<PageId, Frame>,
    backend: S,
    tick: u64,
}

impl<S: PageStore> State<S> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts least-recently-used frames until fewer than `capacity`
    /// remain, writing dirty victims back. A failed write-back reinstates
    /// the victim frame (nothing is lost) and surfaces the backend error.
    fn make_room(&mut self, capacity: usize) -> io::Result<()> {
        while self.frames.len() >= capacity {
            let lru = self
                .frames
                .iter()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(&id, _)| id);
            let Some((victim, frame)) = lru.and_then(|id| self.frames.remove_entry(&id)) else {
                break;
            };
            if frame.dirty {
                if let Err(e) = self.backend.write(victim, &frame.data[..]) {
                    self.frames.insert(victim, frame);
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

/// An LRU page cache in front of a slower [`PageStore`], safe to share
/// across reader threads (every operation takes the pool's one latch).
///
/// * Counted reads are served from resident frames; misses fetch from the
///   backend (a physical read on the backend's counters). Peeks serve
///   resident frames for coherence but never fetch into the cache.
/// * Writes are absorbed into the frame and marked dirty (**write-back**):
///   the backend sees them only when the frame is evicted or on
///   [`flush`](PageStore::flush). Dropping the pool flushes best-effort;
///   call `flush` explicitly where durability matters.
/// * At most `capacity` pages are resident at any time.
pub struct BufferPool<S: PageStore> {
    state: Mutex<State<S>>,
    stats: Arc<IoStats>,
    backend_stats: Arc<IoStats>,
    capacity: usize,
}

impl<S: PageStore> BufferPool<S> {
    /// Wraps `backend` with an LRU cache of `capacity` pages (>= 1).
    pub fn new(backend: S, capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        Self {
            stats: Arc::new(IoStats::new()),
            backend_stats: Arc::clone(backend.stats()),
            state: Mutex::new(State {
                frames: HashMap::with_capacity(capacity),
                backend,
                tick: 0,
            }),
            capacity,
        }
    }

    /// The configured frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently resident in the cache.
    pub fn resident_pages(&self) -> usize {
        self.lock().frames.len()
    }

    /// The backend's *physical* I/O counters (misses + write-backs).
    pub fn backend_stats(&self) -> &Arc<IoStats> {
        &self.backend_stats
    }

    /// Exclusive access to the wrapped backend. `&mut self` guarantees the
    /// latch is not contended — commit protocols use this to drive the
    /// backend directly after a [`write_back`](Self::write_back).
    pub fn backend_mut(&mut self) -> &mut S {
        &mut self
            .state
            .get_mut()
            // xlint: allow(panic-freedom) -- invariant: buffer pool poisoned — a poisoned lock means a panicked writer, and re-raising is the only sound response
            .expect("buffer pool poisoned")
            .backend
    }

    /// Writes every dirty frame back to the backend **without** flushing
    /// it — the first half of `flush`, split out so a journaling backend
    /// can interleave its own commit protocol between write-back and
    /// durability. Errors if the pool was poisoned by an earlier panic
    /// (its frames are suspect and skipped).
    pub fn write_back(&mut self) -> io::Result<()> {
        self.write_dirty(false)
    }

    /// The one walk over the dirty frames: writes each back and, with
    /// `then_flush`, flushes the backend after the last. A poisoned pool
    /// (a reader or evictor panicked mid-operation) is skipped rather than
    /// trusted and reported as `Other`, which `Drop` ignores.
    fn write_dirty(&mut self, then_flush: bool) -> io::Result<()> {
        let Ok(state) = self.state.get_mut() else {
            return Err(io::Error::other(
                "buffer pool poisoned by an earlier panic; dirty frames lost",
            ));
        };
        for (&id, frame) in state.frames.iter_mut() {
            if frame.dirty {
                state.backend.write(id, &frame.data[..])?;
                frame.dirty = false;
            }
        }
        if then_flush {
            state.backend.flush()?;
        }
        Ok(())
    }

    fn lock(&self) -> MutexGuard<'_, State<S>> {
        // xlint: allow(panic-freedom) -- invariant: buffer pool poisoned — a poisoned lock means a panicked writer, and re-raising is the only sound response
        self.state.lock().expect("buffer pool poisoned")
    }
}

impl<S: PageStore> PageStore for BufferPool<S> {
    fn allocate(&mut self) -> io::Result<PageId> {
        self.lock().backend.allocate()
    }

    fn release(&mut self, id: PageId) {
        // The page is dead: discard its frame, dirty or not.
        let mut state = self.lock();
        state.frames.remove(&id);
        state.backend.release(id);
    }

    fn read_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        self.stats.record_read();
        let mut state = self.lock();
        let tick = state.next_tick();
        if let Some(frame) = state.frames.get_mut(&id) {
            self.stats.record_cache_hit();
            frame.last_used = tick;
            out.copy_from_slice(&frame.data[..]);
            return Ok(());
        }
        self.stats.record_cache_miss();
        state.backend.read_into(id, out)?;
        // A failed eviction write-back only means the fetched page is not
        // cached; the read itself already succeeded.
        if state.make_room(self.capacity).is_ok() {
            let frame = Frame {
                data: Box::new(*out),
                dirty: false,
                last_used: tick,
            };
            state.frames.insert(id, frame);
        }
        Ok(())
    }

    /// Peeks never disturb the pool: a resident (possibly dirty) frame is
    /// served for coherence, but a miss reads straight from the backend
    /// without inserting a frame — so out-of-model scans (invariant
    /// checks, statistics, persistence snapshots) cannot evict the hot
    /// working set, and no counter moves anywhere.
    fn peek_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        let state = self.lock();
        match state.frames.get(&id) {
            Some(frame) => {
                out.copy_from_slice(&frame.data[..]);
                Ok(())
            }
            None => state.backend.peek_into(id, out),
        }
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        assert!(data.len() <= PAGE_SIZE, "page overflow: {}", data.len());
        self.stats.record_write();
        let mut state = self.lock();
        let tick = state.next_tick();
        if !state.frames.contains_key(&id) {
            state.make_room(self.capacity)?;
        }
        // A write covers the whole page (shorter data zero-fills), so a
        // miss needs no backend read.
        let frame = state.frames.entry(id).or_insert_with(|| Frame {
            data: Box::new([0u8; PAGE_SIZE]),
            dirty: true,
            last_used: tick,
        });
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
        self.lock().backend.live_pages()
    }

    fn capacity_pages(&self) -> usize {
        self.lock().backend.capacity_pages()
    }

    fn free_list(&self) -> Vec<PageId> {
        self.lock().backend.free_list()
    }

    /// Writes every dirty frame back and flushes the backend. Reports
    /// `Other` when the pool was poisoned by an earlier panic (its dirty
    /// frames are lost, as in any crashed pool).
    fn flush(&mut self) -> io::Result<()> {
        self.write_dirty(true)
    }

    fn backing_path(&self) -> Option<std::path::PathBuf> {
        self.lock().backend.backing_path()
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
    fn eviction_keeps_reads_and_writes_coherent() {
        let mut p = pool(8);
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
    fn drop_and_flush_tolerate_poisoned_latches() {
        // Genuinely poison the latch: a dirty frame for an id the backend
        // never allocated panics the eviction write-back *while the latch
        // is held*. Afterwards, `flush` must report an error (not panic)
        // and dropping the pool must stay best-effort — not abort via
        // panic-in-drop.
        let mut p = pool(1);
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
        let mut p = pool(16);
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
