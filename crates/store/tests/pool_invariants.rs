//! Randomised buffer-pool invariant checks: the pool is driven with a
//! seeded random allocate/read/write/release sequence against a plain
//! in-memory model, verifying after every step that
//!
//! * resident pages never exceed the configured capacity,
//! * every read observes the last write (dirty evictions write back),
//! * the hit/miss counters are monotone and always sum to the counted
//!   logical reads.

use page_store::{BufferPool, DiskPageFile, PageFile, PageId, PageStore, PAGE_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The oracle: page id → expected content of the page's first 8 bytes
/// (pages are stamped with a counter; the rest is zero).
struct Model {
    live: HashMap<PageId, u64>,
    stamp: u64,
}

fn stamped(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

fn drive<S: PageStore>(pool: &mut BufferPool<S>, capacity: usize, seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Model {
        live: HashMap::new(),
        stamp: 0,
    };
    let mut last_hits = 0u64;
    let mut last_misses = 0u64;
    for step in 0..steps {
        let ids: Vec<PageId> = model.live.keys().copied().collect();
        match rng.gen_range(0..10u32) {
            // Allocate (biased so the page population grows past capacity).
            0..=2 => {
                let id = pool.allocate().unwrap();
                assert!(
                    model.live.insert(id, 0).is_none(),
                    "allocate returned a live id {id}"
                );
            }
            // Write a random live page.
            3..=5 if !ids.is_empty() => {
                let id = ids[rng.gen_range(0..ids.len())];
                model.stamp += 1;
                pool.write(id, &stamped(model.stamp)).unwrap();
                model.live.insert(id, model.stamp);
            }
            // Counted read of a random live page.
            6..=7 if !ids.is_empty() => {
                let id = ids[rng.gen_range(0..ids.len())];
                let page = pool.read_page(id).unwrap();
                let want = stamped(model.live[&id]);
                assert_eq!(&page[..8], &want, "step {step}: read lost a write");
                assert!(page[8..].iter().all(|&b| b == 0));
            }
            // Uncounted peek.
            8 if !ids.is_empty() => {
                let id = ids[rng.gen_range(0..ids.len())];
                let page = pool.peek_page(id).unwrap();
                assert_eq!(&page[..8], &stamped(model.live[&id]), "step {step}: peek");
            }
            // Release.
            9 if ids.len() > 1 => {
                let id = ids[rng.gen_range(0..ids.len())];
                pool.release(id);
                model.live.remove(&id);
            }
            _ => {}
        }

        // Invariants, after every operation.
        assert!(
            pool.resident_pages() <= capacity,
            "step {step}: {} resident frames exceed capacity {capacity}",
            pool.resident_pages()
        );
        let stats = pool.stats();
        let (hits, misses) = (stats.cache_hits(), stats.cache_misses());
        assert!(
            hits >= last_hits && misses >= last_misses,
            "step {step}: counters regressed"
        );
        assert_eq!(
            hits + misses,
            stats.reads(),
            "step {step}: hits + misses must equal counted logical reads"
        );
        last_hits = hits;
        last_misses = misses;
    }

    // Every surviving page still carries its last write.
    for (&id, &stamp) in &model.live {
        assert_eq!(&pool.read_page(id).unwrap()[..8], &stamped(stamp));
    }
    assert_eq!(
        pool.stats().cache_hits() + pool.stats().cache_misses(),
        pool.stats().reads()
    );
}

#[test]
fn random_ops_respect_invariants_in_memory() {
    for (capacity, seed) in [(1usize, 1u64), (2, 2), (4, 3), (16, 4)] {
        let mut pool = BufferPool::new(PageFile::new(), capacity);
        drive(&mut pool, capacity, seed, 2_000);
    }
}

#[test]
fn physical_reads_never_grow_with_capacity() {
    // The pool evicts in exact global LRU order, and LRU is a stack
    // algorithm: the pages resident at capacity c are a subset of those
    // resident at any larger capacity, so one trace replayed through
    // growing pools can only miss less. The capacities are the ones the
    // benchmark's pools use.
    const PAGES: u64 = 400;
    let mut rng = SmallRng::seed_from_u64(23);
    // 70 % of reads go to a 48-page hot set, the rest anywhere.
    let trace: Vec<PageId> = (0..6_000)
        .map(|_| match rng.gen_range(0..10u32) {
            0..=6 => rng.gen_range(0..48),
            _ => rng.gen_range(0..PAGES),
        })
        .collect();
    let physical: Vec<u64> = [4usize, 16, 32, 64, 256, 1024]
        .iter()
        .map(|&capacity| {
            let mut file = PageFile::new();
            for _ in 0..PAGES {
                file.allocate().unwrap();
            }
            let pool = BufferPool::new(file, capacity);
            for &id in &trace {
                pool.read_page(id).unwrap();
            }
            pool.backend_stats().reads()
        })
        .collect();
    assert!(
        physical.windows(2).all(|p| p[1] <= p[0]),
        "physical reads grew with capacity: {physical:?}"
    );
    assert!(
        physical[physical.len() - 1] < physical[0],
        "the trace never exercised the cache: {physical:?}"
    );
}

#[test]
fn concurrent_readers_observe_flushed_writes_exactly() {
    // Fill a pool, flush, then hammer it with counted reads from many
    // threads: every read must return the exact page image, resident
    // frames must stay bounded, and afterwards hits + misses == reads.
    let mut pool = BufferPool::new(PageFile::new(), 12);
    let mut rng = SmallRng::seed_from_u64(41);
    let mut expected: HashMap<PageId, u64> = HashMap::new();
    for _ in 0..80 {
        let id = pool.allocate().unwrap();
        let stamp = rng.gen_range(1..u64::MAX);
        pool.write(id, &stamp.to_le_bytes()).unwrap();
        expected.insert(id, stamp);
    }
    pool.flush().unwrap();
    pool.stats().reset();

    let pool = &pool;
    let expected = &expected;
    std::thread::scope(|s| {
        for t in 0..6u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(100 + t);
                let ids: Vec<PageId> = expected.keys().copied().collect();
                for _ in 0..500 {
                    let id = ids[rng.gen_range(0..ids.len())];
                    let page = pool.read_page(id).unwrap();
                    let got = u64::from_le_bytes(page[..8].try_into().unwrap());
                    assert_eq!(got, expected[&id], "torn or stale read of page {id}");
                    assert!(page[8..].iter().all(|&b| b == 0));
                    assert!(pool.resident_pages() <= 12);
                }
            });
        }
    });
    let stats = pool.stats();
    assert_eq!(stats.reads(), 6 * 500);
    assert_eq!(
        stats.cache_hits() + stats.cache_misses(),
        stats.reads(),
        "each counted read records exactly one hit or miss"
    );
}

#[test]
fn random_ops_respect_invariants_on_disk() {
    let mut path = std::env::temp_dir();
    path.push(format!("utree-pool-invariants-{}.pg", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let disk = DiskPageFile::create(&path).unwrap();
    let capacity = 3;
    let mut pool = BufferPool::new(disk, capacity);
    drive(&mut pool, capacity, 99, 800);
    drop(pool);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flush_then_cold_reopen_returns_every_write() {
    let mut path = std::env::temp_dir();
    path.push(format!("utree-pool-reopen-{}.pg", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut rng = SmallRng::seed_from_u64(7);
    let mut expected: HashMap<PageId, u8> = HashMap::new();
    {
        let disk = DiskPageFile::create(&path).unwrap();
        let mut pool = BufferPool::new(disk, 4);
        for i in 0..64u8 {
            let id = pool.allocate().unwrap();
            pool.write(id, &[i; 100]).unwrap();
            expected.insert(id, i);
        }
        // Rewrite a random subset so dirty re-writes are exercised too.
        let ids: Vec<PageId> = expected.keys().copied().collect();
        for _ in 0..32 {
            let id = ids[rng.gen_range(0..ids.len())];
            let v = rng.gen_range(100..200u8);
            pool.write(id, &[v; 100]).unwrap();
            expected.insert(id, v);
        }
        pool.flush().unwrap();
    }

    // Cold reopen without any pool: the bytes must all be on disk.
    let disk = DiskPageFile::open(&path).unwrap();
    for (&id, &v) in &expected {
        let page = disk.peek_page(id).unwrap();
        assert!(page[..100].iter().all(|&b| b == v), "page {id} lost data");
        assert!(page[100..PAGE_SIZE].iter().all(|&b| b == 0));
    }
    drop(disk);
    let _ = std::fs::remove_file(&path);
}
