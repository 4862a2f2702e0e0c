//! Per-layer numbers of a traced run: aggregates of the library's own
//! counters, replays of one layer's public functions in isolation, and
//! the arithmetic that turns both into the metrics of `PER_LAYER`.

use crate::metrics::MetricSet;
use crate::run::RunReport;
use page_store::{PageId, PageStore, Wal, PAGE_SIZE};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rstar_base::{str_order_by, NodeCodec};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use uncertain_geom::{Point, Rect};
use uncertain_pdf::{MonteCarlo, PreparedPdf, RefineScratch, UncertainObject};
use utree::entry::{UCodec, ULeafEntry};
use utree::object_codec::decode_object;
use utree::{
    filter_object_planned, CfbView, InsertStats, PreparedQuery, Query, QueryStats, UPcrTree, UTree,
};

/// Caller-timed wall clock and summed library counters over some queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryAgg {
    pub queries: u64,
    pub wall_ns: u64,
    pub stats: QueryStats,
}

impl QueryAgg {
    pub fn add(&mut self, wall_ns: u64, stats: &QueryStats) {
        self.queries += 1;
        self.wall_ns += wall_ns;
        self.stats += stats;
    }

    fn per_query(&self, total: u64) -> f64 {
        ratio(total as f64, self.queries as f64)
    }
}

/// `num / den`, 0 when there was nothing to divide by (a layer the
/// workload did not cross).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `kernel`, `refine`, `filter` and `heap` counters of the queries in
/// `agg`, plus the prediction that the two phases fit inside the wall.
pub fn set_query_layers(
    report: &mut RunReport,
    agg: &QueryAgg,
    kernel_ns_per_sample: f64,
    filter_ns_per_entry: f64,
    heap_fetch_us_per_page: f64,
) {
    let s = &agg.stats;
    let wall = agg.wall_ns as f64;
    let m = &mut report.metrics;
    m.set("kernel.ns_per_sample", kernel_ns_per_sample);
    m.set(
        "kernel.sampling_share",
        ratio(s.refined_samples as f64 * kernel_ns_per_sample, wall),
    );
    m.set(
        "refine.ns_per_sample",
        ratio(s.refine_nanos as f64, s.refined_samples as f64),
    );
    m.set("refine.samples_per_query", agg.per_query(s.refined_samples));
    m.set("refine.phase_share", ratio(s.refine_nanos as f64, wall));
    m.set("filter.ns_per_entry", filter_ns_per_entry);
    m.set(
        "filter.decided_ratio",
        ratio((s.pruned + s.validated) as f64, s.visited as f64),
    );
    m.set("filter.candidates_per_query", agg.per_query(s.candidates));
    m.set(
        "filter.validated_share",
        ratio(s.validated as f64, s.results as f64),
    );
    m.set("heap.pages_per_query", agg.per_query(s.heap_reads));
    m.set("heap.fetch_us_per_page", heap_fetch_us_per_page);
    report.predict(
        "filter phase + refine phase <= query wall",
        s.filter_nanos + s.refine_nanos <= agg.wall_ns as u128,
    );
}

/// `tree.*` from the U-tree's queries. `resident` holds the same kind of
/// queries on a copy with every page in memory, so that the walk's own
/// cost per node excludes the pool and the disk.
pub fn set_tree_layers<const D: usize, S: PageStore>(
    m: &mut MetricSet,
    tree: &UTree<D, S>,
    agg: &QueryAgg,
    resident: &QueryAgg,
    filter_ns_per_entry: f64,
) -> io::Result<()> {
    let s = &agg.stats;
    m.set("tree.query_us", agg.per_query(agg.wall_ns) / 1e3);
    m.set("tree.nodes_per_query", agg.per_query(s.node_reads));
    m.set("tree.visited_per_query", agg.per_query(s.visited));
    m.set(
        "tree.filter_phase_us",
        agg.per_query(s.filter_nanos as u64) / 1e3,
    );
    let r = &resident.stats;
    let walk_ns = r.filter_nanos as f64 - r.visited as f64 * filter_ns_per_entry;
    m.set(
        "tree.walk_ns_per_node",
        ratio(walk_ns.max(0.0), r.node_reads as f64),
    );
    let stats = tree.tree_stats()?;
    m.set("tree.height", stats.nodes_per_level.len() as f64);
    m.set("tree.node_pages", stats.total_nodes() as f64);
    Ok(())
}

/// `upcr.*` from U-PCR's queries.
pub fn set_upcr_layers<const D: usize, S: PageStore>(
    m: &mut MetricSet,
    tree: &UPcrTree<D, S>,
    agg: &QueryAgg,
) -> io::Result<()> {
    let s = &agg.stats;
    m.set("upcr.query_us", agg.per_query(agg.wall_ns) / 1e3);
    m.set("upcr.nodes_per_query", agg.per_query(s.node_reads));
    m.set(
        "upcr.filter_phase_us",
        agg.per_query(s.filter_nanos as u64) / 1e3,
    );
    m.set("upcr.candidates_per_query", agg.per_query(s.candidates));
    m.set("upcr.node_pages", tree.tree_stats()?.total_nodes() as f64);
    Ok(())
}

/// The build chain PCR → CFB (LP) → STR → pack of one `bulk_load` that
/// took `build_ns` for `objs` objects; `pack` is what the other three
/// leave of the build's wall clock.
pub fn set_build_layers(
    report: &mut RunReport,
    objs: usize,
    build_ns: u64,
    stats: &InsertStats,
    str_ns: u64,
) {
    let per_obj_us = |ns: f64| ratio(ns, objs as f64) / 1e3;
    let pack_ns = build_ns as f64 - stats.pcr_nanos as f64 - stats.lp_nanos as f64 - str_ns as f64;
    let m = &mut report.metrics;
    m.set("pcr.us_per_obj", per_obj_us(stats.pcr_nanos as f64));
    m.set("cfb.us_per_obj", per_obj_us(stats.lp_nanos as f64));
    m.set("str.ns_per_obj", ratio(str_ns as f64, objs as f64));
    m.set("pack.us_per_obj", per_obj_us(pack_ns.max(0.0)));
    m.set("build.us_per_obj", per_obj_us(build_ns as f64));
    report.predict("pcr + cfb + str <= build wall", pack_ns >= 0.0);
}

/// One pool's logical counters (hits, misses, reads) and its backend's
/// physical ones, as a snapshot or as the difference of two.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolDelta {
    pub hits: u64,
    pub misses: u64,
    pub reads: u64,
    pub physical_reads: u64,
    pub physical_writes: u64,
}

impl PoolDelta {
    /// Counters of a pool now; subtract an earlier snapshot with `since`.
    pub fn snapshot<S: PageStore>(pool: &page_store::BufferPool<S>) -> Self {
        let logical = pool.stats();
        let physical = pool.backend_stats();
        Self {
            hits: logical.cache_hits(),
            misses: logical.cache_misses(),
            reads: logical.reads(),
            physical_reads: physical.reads(),
            physical_writes: physical.writes(),
        }
    }

    pub fn since(self, earlier: Self) -> Self {
        Self {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            reads: self.reads - earlier.reads,
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
        }
    }

    pub fn plus(self, other: Self) -> Self {
        Self {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            reads: self.reads + other.reads,
            physical_reads: self.physical_reads + other.physical_reads,
            physical_writes: self.physical_writes + other.physical_writes,
        }
    }

    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits as f64, (self.hits + self.misses) as f64)
    }
}

/// `buffer.*` and `disk.reads_per_query` from the pools' counters around
/// `queries` queries. `heap_appends` is how many records went into the
/// heap meanwhile: an append counts one logical read that bypasses the
/// pool's hit/miss accounting.
pub fn set_pool_layers(
    report: &mut RunReport,
    node: PoolDelta,
    heap: PoolDelta,
    queries: u64,
    heap_appends: u64,
) {
    let m = &mut report.metrics;
    m.set("buffer.node_hit_rate", node.hit_rate());
    m.set("buffer.heap_hit_rate", heap.hit_rate());
    m.set(
        "buffer.misses_per_query",
        ratio((node.misses + heap.misses) as f64, queries as f64),
    );
    m.set(
        "disk.reads_per_query",
        ratio(
            (node.physical_reads + heap.physical_reads) as f64,
            queries as f64,
        ),
    );
    report.predict(
        "pool hits + misses (+ heap appends) = logical reads",
        node.hits + node.misses == node.reads
            && heap.hits + heap.misses + heap_appends == heap.reads,
    );
}

/// The Monte-Carlo kernel in isolation: `MonteCarlo::estimate_with` over
/// `PreparedPdf`, on a sample of the workload's objects ([`evenly`]), each
/// against a region that cuts its support in half (so no estimate
/// short-circuits).
///
/// Run a few estimates at a time *between* the traced operations
/// ([`Self::step`], off their clock): this sandbox's speed drifts by a
/// fifth over seconds, and a share of the traced wall clock only means
/// something when both were measured on the same machine.
pub struct KernelReplay<'a, const D: usize> {
    sample: Vec<(&'a UncertainObject<D>, Rect<D>)>,
    mc: MonteCarlo,
    scratch: RefineScratch,
    rng: SmallRng,
    next: usize,
    ns: u64,
}

impl<'a, const D: usize> KernelReplay<'a, D> {
    pub fn new(objs: Vec<&'a UncertainObject<D>>, n1: usize, seed: u64) -> Self {
        let sample = objs
            .into_iter()
            .map(|o| {
                let mbr = o.mbr();
                let mut c = mbr.center();
                c.coords[0] += mbr.extent(0) / 2.0;
                (o, Rect::cube(&c, mbr.extent(0)))
            })
            .collect();
        Self {
            sample,
            mc: MonteCarlo::new(n1),
            scratch: RefineScratch::new(),
            rng: SmallRng::seed_from_u64(seed),
            next: 0,
            ns: 0,
        }
    }

    /// Runs `estimates` more estimates; returns the nanoseconds it took,
    /// for the caller to report as untimed.
    pub fn step(&mut self, estimates: usize) -> u64 {
        let t0 = Instant::now();
        for _ in 0..estimates {
            let (obj, rq) = &self.sample[self.next % self.sample.len()];
            self.next += 1;
            let prepared = PreparedPdf::new(&obj.pdf);
            black_box(
                self.mc
                    .estimate_with(&prepared, rq, &mut self.rng, &mut self.scratch),
            );
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.ns += ns;
        ns
    }

    pub fn ns_per_sample(&self) -> f64 {
        ratio(self.ns as f64, self.scratch.samples() as f64)
    }
}

/// `count` objects spread evenly over `objs`.
pub fn evenly<const D: usize>(
    objs: &[UncertainObject<D>],
    count: usize,
) -> Vec<&UncertainObject<D>> {
    let stride = (objs.len() / count).max(1);
    objs.iter().step_by(stride).take(count).collect()
}

/// Replays the filter rules and the heap fetch for `queries` on `tree`,
/// outside any traversal: `(filter ns per entry, heap µs per page)`.
///
/// The filter replay runs `PreparedQuery::new` + `filter_object_planned`
/// over the entries near each region (MBR meeting the region doubled
/// about its centre — about what a traversal reaches); the heap replay
/// runs `ObjectHeap::page_records` + decode on the pages holding the
/// entries whose MBR meets the region itself.
pub fn replay_filter_and_heap<const D: usize, S: PageStore>(
    tree: &UTree<D, S>,
    queries: &[Query<D>],
) -> io::Result<(f64, f64)> {
    let mut entries: Vec<ULeafEntry<D>> = Vec::with_capacity(tree.len());
    tree.for_each_entry(|e| entries.push(e.clone()));
    let catalog = tree.catalog();

    let (mut filter_ns, mut filtered) = (0u64, 0u64);
    let mut pages: BTreeSet<PageId> = BTreeSet::new();
    for q in queries {
        let rq = q.region();
        let wide = Rect::cube(&rq.center(), 2.0 * rq.extent(0));
        let near: Vec<&ULeafEntry<D>> =
            entries.iter().filter(|e| e.mbr.intersects(&wide)).collect();
        pages.extend(
            near.iter()
                .filter(|e| e.mbr.intersects(rq))
                .map(|e| e.addr.page),
        );
        let t0 = Instant::now();
        let plan = PreparedQuery::new(catalog, rq, q.threshold());
        for e in &near {
            let view = CfbView {
                pair: &e.cfbs,
                catalog,
            };
            black_box(filter_object_planned(&view, &e.mbr, &plan));
        }
        filter_ns += t0.elapsed().as_nanos() as u64;
        filtered += near.len() as u64;
    }

    let t0 = Instant::now();
    for &page in &pages {
        for (_, bytes) in tree.heap().page_records(page)? {
            black_box(decode_object::<D>(&bytes));
        }
    }
    let heap_ns = t0.elapsed().as_nanos() as f64;
    Ok((
        ratio(filter_ns as f64, filtered as f64),
        ratio(heap_ns, pages.len() as f64) / 1e3,
    ))
}

/// Nanoseconds `str_order_by` takes on the tuples `bulk_load` sorts,
/// rebuilt from the packed tree and put back in id order first (sorting
/// sorted input would flatter the sort).
pub fn replay_str<const D: usize, S: PageStore>(tree: &UTree<D, S>) -> u64 {
    type Staged<const D: usize> = (utree::CfbPair<D>, Rect<D>, Vec<u8>, u64);
    let mut staged: Vec<Staged<D>> = Vec::with_capacity(tree.len());
    // The record bytes only matter for their size: what moves in the sort
    // is the Vec header either way.
    tree.for_each_entry(|e| staged.push((e.cfbs, e.mbr, Vec::new(), e.id)));
    staged.sort_unstable_by_key(|t| t.3);
    let leaf_cap = UCodec::<D>::new(Arc::new(tree.catalog().clone())).leaf_capacity();
    let t0 = Instant::now();
    str_order_by(&mut staged, leaf_cap, &|t: &Staged<D>| t.1.center().coords);
    let ns = t0.elapsed().as_nanos() as u64;
    black_box(&staged);
    ns
}

/// The log in isolation, in a directory of its own: `Wal::create`, 64 ×
/// `append_image`, `commit` (one fsync). Returns `(append µs per page,
/// commit-with-sync ms)`, each the median of `rounds` batches.
pub fn replay_wal(dir: &Path, rounds: usize) -> io::Result<(f64, f64)> {
    let mut wal = Wal::create(dir.join("replay.wal"))?;
    let page = [0xA5u8; PAGE_SIZE];
    let mut appends = Vec::with_capacity(rounds);
    let mut syncs = Vec::with_capacity(rounds);
    for round in 0..rounds as u64 {
        let t0 = Instant::now();
        for i in 0..64 {
            wal.append_image(0, round * 64 + i, &page);
        }
        let appended = t0.elapsed();
        let t1 = Instant::now();
        wal.commit()?;
        syncs.push(t1.elapsed().as_secs_f64() * 1e3);
        appends.push(appended.as_secs_f64() * 1e6 / 64.0);
    }
    Ok((
        crate::metrics::median(&appends),
        crate::metrics::median(&syncs),
    ))
}

/// Centres of the objects' MBRs: where the paper draws query regions.
pub fn centers<const D: usize>(objs: &[UncertainObject<D>]) -> Vec<Point<D>> {
    objs.iter().map(|o| o.mbr().center()).collect()
}
