//! Persistence round-trip: a bulk-loaded index, saved to disk and reopened
//! cold through a tiny buffer pool, must answer every workload query with
//! identical matches/provenance and identical *logical* I/O — only the
//! physical cost model changes.

mod common;

use utree_repro::index::{Cfbs, DiskStore, FilterPayload, Pcrs, ProbTree};
use utree_repro::prelude::*;
use utree_repro::store::{DiskPageFile, PageId, PageStore, PAGE_SIZE};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("utree-persistence-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn build_utree(n: usize, seed: u64) -> (UTree<2>, Vec<UncertainObject<2>>) {
    let objs = datagen::lb_dataset(n, seed);
    let mut tree = UTree::<2>::builder()
        .uniform_catalog(8)
        .build()
        .expect("valid catalog");
    tree.bulk_load(&objs);
    (tree, objs)
}

#[test]
fn saved_utree_reopens_with_identical_outcomes() {
    let (tree, objs) = build_utree(700, 11);
    let centers: Vec<Point<2>> = objs.iter().map(|o| o.mbr().center()).collect();
    let workload = datagen::workload(&centers, 900.0, 0.5, 25, 3);

    let dir = temp_dir("equiv");
    tree.save(&dir).expect("save must succeed");

    // 8-page pools: far smaller than the index, so queries actually churn
    // the cache.
    let reopened = DiskUTree::<2>::open(&dir, 8).expect("open must succeed");
    assert_eq!(reopened.len(), tree.len());
    assert_eq!(reopened.catalog().values(), tree.catalog().values());
    reopened.check_invariants().expect("reopened tree is sound");

    let mode = Refine::reference(1e-8);
    for (i, q) in workload.queries.iter().enumerate() {
        let q = q.refine(mode).build().unwrap();
        let (mem, disk) = (tree.execute(&q), reopened.execute(&q));
        assert_eq!(
            mem.matches, disk.matches,
            "query {i} disagrees after the round trip"
        );
        // Logical node accesses are the paper's metric and must not depend
        // on the storage backend.
        assert_eq!(mem.stats.node_reads, disk.stats.node_reads, "query {i}");
        assert_eq!(mem.stats.heap_reads, disk.stats.heap_reads, "query {i}");
        assert_eq!(
            mem.stats.prob_computations, disk.stats.prob_computations,
            "query {i}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopened_pool_misses_cold_then_hits_warm() {
    let (tree, objs) = build_utree(500, 23);
    let dir = temp_dir("hits");
    tree.save(&dir).unwrap();

    let reopened = DiskUTree::<2>::open(&dir, 8).unwrap();
    let center = objs[0].mbr().center();
    let q = Query::range(Rect::cube(&center, 1200.0))
        .threshold(0.4)
        .refine(Refine::reference(1e-8))
        .build()
        .unwrap();

    let stats = reopened.node_store().stats();
    let first = reopened.execute(&q);
    let misses_after_first = stats.cache_misses();
    assert!(!first.is_empty(), "query centred on data must hit");
    assert!(misses_after_first > 0, "a cold cache must miss");

    let second = reopened.execute(&q);
    assert_eq!(first.matches, second.matches);
    assert!(
        stats.cache_hits() > 0,
        "repeating the query against a warm cache must hit"
    );
    // Hit/miss counters always partition the counted reads.
    assert_eq!(stats.cache_hits() + stats.cache_misses(), stats.reads());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saved_upcr_reopens_with_identical_outcomes() {
    let objs = datagen::lb_dataset(400, 7);
    let mut tree = UPcrTree::<2>::builder().build().expect("default catalog");
    tree.bulk_load(&objs);
    let centers: Vec<Point<2>> = objs.iter().map(|o| o.mbr().center()).collect();
    let workload = datagen::workload(&centers, 1000.0, 0.6, 10, 5);

    let dir = temp_dir("upcr");
    tree.save(&dir).unwrap();
    let reopened = DiskUPcrTree::<2>::open(&dir, 8).unwrap();
    assert_eq!(reopened.len(), tree.len());

    let mode = Refine::reference(1e-8);
    for q in &workload.queries {
        let q = q.refine(mode).build().unwrap();
        let (mem, disk) = (tree.execute(&q), reopened.execute(&q));
        assert_eq!(mem.matches, disk.matches);
        assert_eq!(mem.stats.node_reads, disk.stats.node_reads);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_rejects_wrong_kind_and_dimensionality() {
    let (tree, _) = build_utree(100, 31);
    let dir = temp_dir("mismatch");
    tree.save(&dir).unwrap();
    // Saved as a U-tree: opening as U-PCR must fail.
    assert!(DiskUPcrTree::<2>::open(&dir, 8).is_err());
    // Saved as 2-D: opening as 3-D must fail.
    assert!(DiskUTree::<3>::open(&dir, 8).is_err());
    // And the happy path still works afterwards.
    assert!(DiskUTree::<2>::open(&dir, 8).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopened_tree_supports_further_updates() {
    let (mut tree, objs) = build_utree(200, 41);
    // Delete a few before saving so the snapshot has a non-trivial free
    // list to replicate.
    for o in objs.iter().take(30) {
        assert!(tree.delete(o));
    }
    let dir = temp_dir("updates");
    tree.save(&dir).unwrap();

    let mut reopened = DiskUTree::<2>::open(&dir, 16).unwrap();
    assert_eq!(reopened.len(), 170);
    // Insert new objects through the pool-backed store.
    let extra = datagen::lb_dataset(40, 43);
    for (i, o) in extra.iter().enumerate() {
        reopened.insert(&UncertainObject::new(10_000 + i as u64, o.pdf.clone()));
    }
    assert_eq!(reopened.len(), 210);
    reopened.check_invariants().expect("tree stays sound");
    reopened.commit().expect("commit to disk");

    // Everything — old and new — answers a domain-spanning query.
    let everything = Query::range(Rect::new([0.0, 0.0], [10_000.0, 10_000.0]))
        .threshold(0.01)
        .refine(Refine::reference(1e-7))
        .build()
        .unwrap();
    let out = reopened.execute(&everything);
    assert_eq!(out.len(), 210);

    // commit() persisted pages AND metadata: a cold reopen sees the
    // post-update superstructure, not the originally saved one.
    drop(reopened);
    let cold = DiskUTree::<2>::open(&dir, 16).unwrap();
    assert_eq!(cold.len(), 210, "commit must persist the updated metadata");
    cold.check_invariants().unwrap();
    assert_eq!(cold.execute(&everything).matches, out.matches);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointing_the_directory_an_index_was_opened_from_is_safe() {
    let (tree, _) = build_utree(300, 61);
    let dir = temp_dir("self-save");
    tree.save(&dir).unwrap();

    let mut reopened = DiskUTree::<2>::open(&dir, 16).unwrap();
    let extra = datagen::lb_dataset(20, 63);
    for (i, o) in extra.iter().enumerate() {
        reopened.insert(&UncertainObject::new(20_000 + i as u64, o.pdf.clone()));
    }
    // `save` into the live directory would race the WAL the pools are
    // replaying from, so it is rejected outright...
    let err = reopened.save(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // ...and `checkpoint` is the supported way to fold the log back into
    // the snapshot in place: temp-file-and-rename must neither truncate
    // the live backing files nor tear the snapshot.
    reopened.checkpoint().unwrap();
    assert_eq!(reopened.len(), 320, "the open tree keeps working");

    let fresh = DiskUTree::<2>::open(&dir, 16).unwrap();
    assert_eq!(fresh.len(), 320);
    fresh.check_invariants().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_with_zero_frames_is_a_typed_error() {
    let (tree, _) = build_utree(50, 71);
    let dir = temp_dir("zero-frames");
    tree.save(&dir).unwrap();
    let err = match DiskUTree::<2>::open(&dir, 0) {
        Err(e) => e,
        Ok(_) => panic!("opening with zero frames must fail"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The snapshot format, pinned: a seeded `save` writes these exact bytes
/// (FNV-1a per file), for both payloads. A persistence refactor that moves
/// a byte fails here before any reopen test can mask it.
#[test]
fn saved_files_are_byte_stable() {
    fn digests(dir: &std::path::Path) -> [u64; 3] {
        ["index.pg", "heap.pg", "meta.bin"].map(|f| common::file_fnv(&dir.join(f)))
    }
    let (mut utree, objs) = build_utree(300, 83);
    for o in objs.iter().take(20) {
        assert!(utree.delete(o));
    }
    let dir = temp_dir("pin-utree");
    utree.save(&dir).unwrap();
    assert_eq!(
        digests(&dir),
        [
            1793127353182051292,
            3408749193684308624,
            6009326362445071125
        ],
        "u-tree snapshot bytes moved"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut upcr = UPcrTree::<2>::builder().build().expect("default catalog");
    upcr.bulk_load(&objs);
    let dir = temp_dir("pin-upcr");
    upcr.save(&dir).unwrap();
    assert_eq!(
        digests(&dir),
        [
            4691626325121124082,
            13712061788588561892,
            15672814766999817401
        ],
        "u-pcr snapshot bytes moved"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites page `page` of the page file at `path` with `edit` applied,
/// returning the page as it was.
fn edit_page(
    path: &std::path::Path,
    page: PageId,
    edit: impl FnOnce(&mut [u8; PAGE_SIZE]),
) -> [u8; PAGE_SIZE] {
    let mut file = DiskPageFile::open(path).unwrap();
    let mut bytes = [0u8; PAGE_SIZE];
    file.peek_into(page, &mut bytes).unwrap();
    let was = bytes;
    edit(&mut bytes);
    file.write(page, &bytes).unwrap();
    file.flush().unwrap();
    was
}

/// The root of a saved node file (the one page at the highest level) and
/// its first leaf (the first live page at level 0).
fn root_and_leaf(path: &std::path::Path) -> (PageId, PageId) {
    let file = DiskPageFile::open(path).unwrap();
    let free = file.free_list();
    let mut bytes = [0u8; PAGE_SIZE];
    let levels: Vec<(PageId, u8)> = (0..file.capacity_pages() as PageId)
        .filter(|p| !free.contains(p))
        .map(|p| {
            file.peek_into(p, &mut bytes).unwrap();
            (p, bytes[0])
        })
        .collect();
    let root = levels.iter().max_by_key(|&&(_, l)| l).unwrap();
    let leaf = levels.iter().find(|&&(_, l)| l == 0).unwrap();
    assert!(root.1 > 0, "the saved tree must have an inner root");
    (root.0, leaf.0)
}

/// A saved index whose node pages lie — the root claiming to be a leaf,
/// then a leaf whose count runs past its page — still opens (open decodes
/// no node), and a range query and a top-k query that reach the page
/// return `Err` naming it instead of panicking.
#[test]
fn corrupt_node_pages_fail_queries_not_the_process() {
    corrupt_node_pages_fail_queries::<Cfbs>();
    corrupt_node_pages_fail_queries::<Pcrs>();
}

fn corrupt_node_pages_fail_queries<P: FilterPayload<2>>() {
    let objs = datagen::lb_dataset(300, 17);
    let mut tree = ProbTree::<2, P>::builder()
        .uniform_catalog(6)
        .build()
        .unwrap();
    tree.bulk_load(&objs);
    let dir = temp_dir(&format!("corrupt-{}", P::NAME));
    tree.save(&dir).unwrap();
    let index = dir.join("index.pg");
    let (root, leaf) = root_and_leaf(&index);
    let everything = Rect::new([0.0, 0.0], [10_000.0, 10_000.0]);
    let range = Query::range(everything).threshold(0.5).build().unwrap();
    let top = Query::range(everything).top(objs.len()).build().unwrap();
    let root_at_level_0: fn(&mut [u8; PAGE_SIZE]) = |b| b[0] = 0;
    let count_past_page: fn(&mut [u8; PAGE_SIZE]) = |b| b[1..3].copy_from_slice(&[0xFF, 0xFF]);
    for (page, edit) in [(root, root_at_level_0), (leaf, count_past_page)] {
        let was = edit_page(&index, page, edit);
        let disk = ProbTree::<2, P, DiskStore>::open(&dir, 8).expect("open decodes no node");
        let mut ctx = QueryCtx::new();
        let named = format!("node page {page}");
        let err = disk.try_execute_with(&range, &mut ctx).unwrap_err();
        assert!(err.to_string().contains(&named), "{}: {err}", P::NAME);
        let err = disk.try_rank_topk_with(&top, &mut ctx).unwrap_err();
        assert!(err.to_string().contains(&named), "{}: {err}", P::NAME);
        drop(disk);
        edit_page(&index, page, |b| *b = was);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
