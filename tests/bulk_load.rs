//! STR bulk loading: the packed build must be *observably equivalent* to
//! the insert-built tree — identical matches **and provenance** for range,
//! threshold and top-k ranking queries, in 1, 2 and 3 dimensions — and the
//! equivalence must survive a save/open round trip and a WAL recovery.
//! Plus the `InsertStats` regression tests for the loop path.

mod common;

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use utree_repro::index::{Cfbs, FilterPayload, IndexBackend, Pcrs, ProbTree};
use utree_repro::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("utree-bulk-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Seeded uniform-ball objects in D dimensions.
fn dataset<const D: usize>(n: usize, seed: u64) -> Vec<UncertainObject<D>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            let mut c = [0.0; D];
            for x in &mut c {
                *x = rng.gen_range(300.0..9700.0);
            }
            UncertainObject::new(
                id,
                ObjectPdf::UniformBall {
                    center: Point::new(c),
                    radius: rng.gen_range(40.0..220.0),
                },
            )
        })
        .collect()
}

fn probe_regions<const D: usize>(k: usize, seed: u64) -> Vec<Rect<D>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            let mut c = [0.0; D];
            for x in &mut c {
                *x = rng.gen_range(1200.0..8800.0);
            }
            Rect::cube(&Point::new(c), rng.gen_range(600.0..3200.0))
        })
        .collect()
}

/// Matches with provenance, sorted by id, plus ranked matches — the full
/// observable behaviour the two builds must agree on.
type Observation = (Vec<(u64, Provenance)>, Vec<RankedMatch>);

fn observe<const D: usize, I: ProbIndex<D>>(
    index: &I,
    regions: &[Rect<D>],
    eps: f64,
) -> Vec<Observation> {
    regions
        .iter()
        .enumerate()
        .map(|(i, rq)| {
            let pq = [0.25, 0.5, 0.75][i % 3];
            let out = Query::range(*rq)
                .threshold(pq)
                .refine(Refine::reference(eps))
                .run(index)
                .unwrap();
            let mut matched: Vec<(u64, Provenance)> =
                out.matches.iter().map(|m| (m.id, m.provenance)).collect();
            matched.sort_unstable_by_key(|(id, _)| *id);
            let ranked = Query::range(*rq)
                .top(5)
                .refine(Refine::reference(eps))
                .run(index)
                .unwrap();
            (matched, ranked.matches)
        })
        .collect()
}

fn assert_equivalent<const D: usize>(n: usize, seed: u64, eps: f64) {
    let objs = dataset::<D>(n, seed);
    let mut bulk = UTree::<D>::builder().uniform_catalog(6).build().unwrap();
    let stats = bulk.bulk_load(&objs);
    assert!(stats.io_writes > 0, "packed build must write pages");
    bulk.check_invariants()
        .unwrap_or_else(|e| panic!("{D}-D bulk tree broken: {e}"));
    assert_eq!(bulk.len(), n);

    let mut incremental = UTree::<D>::builder().uniform_catalog(6).build().unwrap();
    for o in &objs {
        incremental.insert(o);
    }

    let regions = probe_regions::<D>(if D >= 3 { 6 } else { 9 }, seed ^ 0xbeef);
    assert_eq!(
        observe(&bulk, &regions, eps),
        observe(&incremental, &regions, eps),
        "{D}-D: packed build disagrees with insert-built tree"
    );

    // The packed tree keeps answering after updates (it is a real R*-tree,
    // not a frozen artifact): delete a slice, insert it back.
    for o in objs.iter().take(n / 4) {
        assert!(bulk.delete(o), "{D}-D: bulk-built entry not deletable");
        incremental.delete(o);
    }
    for o in objs.iter().take(n / 4) {
        bulk.insert(o);
        incremental.insert(o);
    }
    bulk.check_invariants().unwrap();
    assert_eq!(
        observe(&bulk, &regions, eps),
        observe(&incremental, &regions, eps),
        "{D}-D: divergence after post-bulk updates"
    );
}

#[test]
fn bulk_equals_insert_built_1d() {
    assert_equivalent::<1>(400, 11, 1e-8);
}

#[test]
fn bulk_equals_insert_built_2d() {
    assert_equivalent::<2>(500, 22, 1e-8);
}

#[test]
fn bulk_equals_insert_built_3d() {
    assert_equivalent::<3>(200, 33, 1e-6);
}

#[test]
fn upcr_bulk_equals_insert_built() {
    let objs = dataset::<2>(400, 44);
    let mut bulk = UPcrTree::<2>::builder().uniform_catalog(9).build().unwrap();
    let stats = bulk.bulk_load(&objs);
    assert!(stats.io_writes > 0);
    assert_eq!(stats.lp_nanos, 0, "U-PCR stores PCRs verbatim, no CFB fit");
    bulk.check_invariants().unwrap();
    let mut incremental = UPcrTree::<2>::builder().uniform_catalog(9).build().unwrap();
    for o in &objs {
        incremental.insert(o);
    }
    let regions = probe_regions::<2>(8, 45);
    assert_eq!(
        observe(&bulk, &regions, 1e-8),
        observe(&incremental, &regions, 1e-8)
    );
}

/// The serving tier: a bulk-loaded tree saved cold and reopened through
/// the BufferPool/WalStore stack answers identically, and the packed
/// layout survives a post-open commit + crash-style reopen (recovery).
#[test]
fn bulk_built_tree_survives_save_open_and_recovery() {
    let dir = temp_dir("serve");
    let objs = dataset::<2>(600, 55);
    let extra = dataset::<2>(650, 56).split_off(600);

    let mut mem = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
    mem.bulk_load(&objs);
    mem.save(&dir).unwrap();

    let regions = probe_regions::<2>(8, 57);
    let expected = observe(&mem, &regions, 1e-8);

    // Cold open through the pool: identical answers.
    let mut disk = DiskUTree::<2>::open(&dir, 64).unwrap();
    assert_eq!(disk.len(), 600);
    assert_eq!(
        observe(&disk, &regions, 1e-8),
        expected,
        "cold-opened packed tree disagrees with its builder"
    );

    // Commit an update batch on top of the packed base, then reopen
    // without a checkpoint — recovery replays the WAL over the packed
    // snapshot.
    for o in &extra {
        disk.insert(o);
        mem.insert(o);
    }
    disk.commit().unwrap();
    drop(disk);
    let recovered = DiskUTree::<2>::open(&dir, 64).unwrap();
    assert_eq!(recovered.len(), 650);
    assert_eq!(
        observe(&recovered, &regions, 1e-8),
        observe(&mem, &regions, 1e-8),
        "recovery over a packed snapshot lost equivalence"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The packed build must also *cost less to serve*: full leaves and a
/// level-contiguous page order mean a strictly smaller index and strictly
/// fewer *physical* node reads through the buffer pool than the same data
/// inserted one at a time.
#[test]
fn packed_build_reads_fewer_pages_than_insert_built() {
    let objs = dataset::<2>(2000, 66);
    let mut bulk = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
    bulk.bulk_load(&objs);
    let mut incremental = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
    for o in &objs {
        incremental.insert(o);
    }
    assert!(
        bulk.index_size_bytes() < incremental.index_size_bytes(),
        "packed index ({} B) must be smaller than insert-built ({} B)",
        bulk.index_size_bytes(),
        incremental.index_size_bytes()
    );

    // Serve both cold through the disk stack and count the reads that
    // actually hit the node file — the paper's physical-I/O metric.
    let regions = probe_regions::<2>(12, 67);
    let physical_reads = |tree: &UTree<2>, tag: &str| -> u64 {
        let dir = temp_dir(tag);
        tree.save(&dir).unwrap();
        let disk = DiskUTree::<2>::open(&dir, 256).unwrap();
        for rq in &regions {
            Query::range(*rq)
                .threshold(0.5)
                .refine(Refine::reference(1e-7))
                .run(&disk)
                .unwrap();
        }
        let reads = disk.node_store().backend_stats().reads();
        drop(disk);
        let _ = std::fs::remove_dir_all(&dir);
        reads
    };
    let (rb, ri) = (
        physical_reads(&bulk, "phys-bulk"),
        physical_reads(&incremental, "phys-incr"),
    );
    assert!(
        rb < ri,
        "packed tree costs more physical node reads ({rb}) than insert-built ({ri})"
    );
    // Machine-independent layout gates: data and queries are seeded, so
    // both counts repeat exactly in debug and release. Each ceiling is
    // ⌈1.25 × the count when the gate was pinned⌉ (50 node pages, 37
    // physical reads); to re-derive after a deliberate change, print the
    // two values here and scale them the same.
    let nodes = bulk.tree_stats().unwrap().total_nodes();
    assert!(nodes <= 63, "packed tree grew to {nodes} node pages");
    assert!(rb <= 47, "packed tree costs {rb} physical node reads cold");
}

/// `IndexBuilder::bulk` is build + bulk_load in one step.
#[test]
fn builder_bulk_constructs_and_loads() {
    let objs = dataset::<2>(150, 77);
    let tree: UTree<2> = UTree::builder().uniform_catalog(6).bulk(&objs).unwrap();
    assert_eq!(tree.len(), 150);
    tree.check_invariants().unwrap();
    let scan: SeqScan<2> = SeqScan::builder().uniform_catalog(6).bulk(&objs).unwrap();
    assert_eq!(scan.len(), 150);
}

/// Regression for the `InsertStats` aggregation: the loop path (bulk_load
/// on a non-empty tree, and the default trait impl) must accumulate each
/// insert's breakdown exactly once — the aggregate I/O counters equal the
/// sum of the individual insert deltas, and the aggregate CPU clocks stay
/// within the wall-clock actually spent (a double-counted aggregate
/// overshoots it).
#[test]
fn loop_bulk_load_stats_equal_summed_inserts() {
    let objs = dataset::<2>(240, 88);
    let (first, rest) = objs.split_first().unwrap();

    // Twin A: pre-insert one object, then the loop path via bulk_load.
    let mut a = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
    a.insert(first);
    let t0 = Instant::now();
    let agg = a.bulk_load(rest);
    let elapsed = t0.elapsed().as_nanos();

    // Twin B: identical schedule, stats summed by hand.
    let mut b = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
    b.insert(first);
    let mut sum = InsertStats::default();
    for o in rest {
        sum += &b.insert(o);
    }

    assert_eq!(
        (agg.io_reads, agg.io_writes),
        (sum.io_reads, sum.io_writes),
        "loop-path aggregate I/O must equal the summed per-insert deltas"
    );
    assert!(agg.pcr_nanos > 0 && agg.lp_nanos > 0);
    assert!(
        agg.pcr_nanos + agg.lp_nanos <= elapsed,
        "aggregate CPU clocks ({} ns) exceed the build's wall-clock ({elapsed} ns) — \
         per-insert time is being double-counted",
        agg.pcr_nanos + agg.lp_nanos
    );
}

/// Same regression for the packed path: phase clocks are measured once
/// per object and never exceed the build's own wall-clock.
#[test]
fn packed_bulk_load_stats_are_build_level() {
    let objs = dataset::<2>(240, 99);
    let mut tree = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
    let t0 = Instant::now();
    let stats = tree.bulk_load(&objs);
    let elapsed = t0.elapsed().as_nanos();
    assert!(stats.pcr_nanos > 0 && stats.lp_nanos > 0);
    assert!(
        stats.pcr_nanos + stats.lp_nanos <= elapsed,
        "packed-build clocks overshoot wall-clock: {} > {elapsed}",
        stats.pcr_nanos + stats.lp_nanos
    );
    // The empty-input edge: no records, no I/O, len stays zero.
    let mut empty = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
    let zero = empty.bulk_load(Vec::<UncertainObject<2>>::new());
    assert_eq!(zero, InsertStats::default());
    assert!(empty.is_empty());
}

/// Digests of a saved tree's node and heap pages.
fn page_digests<const D: usize, P: FilterPayload<D>>(
    tree: &ProbTree<D, P>,
    name: &str,
) -> [u64; 2] {
    let dir = temp_dir(name);
    tree.save(&dir).unwrap();
    let digests = ["index.pg", "heap.pg"].map(|f| common::file_fnv(&dir.join(f)));
    let _ = std::fs::remove_dir_all(&dir);
    digests
}

/// The I/O half of `InsertStats` (the CPU clocks differ run to run).
fn io_counts(stats: &InsertStats) -> (u64, u64) {
    (stats.io_reads, stats.io_writes)
}

/// Borrowed, owned and filtered (no lower size bound) inputs all build
/// the same pages: `bulk_load` orders by position in the collected input,
/// never by how the iterator delivered it.
fn every_input_form_builds_the_same<P: FilterPayload<2>>(name: &str)
where
    ProbTree<2, P>: IndexBackend<2>,
{
    let objs = dataset::<2>(500, 123);
    let build = || ProbTree::<2, P>::builder().build().unwrap();
    let mut borrowed = build();
    let want_stats = borrowed.bulk_load(&objs);
    let want = page_digests(&borrowed, &format!("{name}-borrowed"));
    assert!(want_stats.io_writes > 0);

    let mut owned = build();
    let stats = owned.bulk_load(objs.clone());
    assert_eq!(page_digests(&owned, &format!("{name}-owned")), want);
    assert_eq!(io_counts(&stats), io_counts(&want_stats));

    let mut filtered = build();
    let iter = objs.iter().filter(|_| true);
    assert_eq!(iter.size_hint(), (0, Some(objs.len())));
    let stats = filtered.bulk_load(iter);
    assert_eq!(page_digests(&filtered, &format!("{name}-filtered")), want);
    assert_eq!(io_counts(&stats), io_counts(&want_stats));

    let mut empty = build();
    assert_eq!(
        empty.bulk_load(objs.iter().filter(|_| false)),
        InsertStats::default()
    );
    assert!(empty.is_empty());
}

#[test]
fn every_input_form_builds_the_same_utree() {
    every_input_form_builds_the_same::<Cfbs>("forms-utree");
    // A one-shard `ShardedIndex` routes every object to its only shard,
    // which must come out as the directly bulk-loaded tree.
    let objs = dataset::<2>(500, 123);
    let mut direct = UTree::<2>::builder().build().unwrap();
    let want_stats = direct.bulk_load(&objs);
    let mut sharded =
        ShardedIndex::<2>::new(UTree::<2>::default_catalog(), TreeConfig::default(), 1);
    let stats = sharded.bulk_load(&objs);
    assert_eq!(
        page_digests(&sharded.shards()[0], "forms-sharded"),
        page_digests(&direct, "forms-direct")
    );
    assert_eq!(io_counts(&stats), io_counts(&want_stats));
}

#[test]
fn every_input_form_builds_the_same_upcr() {
    every_input_form_builds_the_same::<Pcrs>("forms-upcr");
}
