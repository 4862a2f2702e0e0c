//! `walk_cold` — the working set is far above the program's cache and
//! refinement is nearly free.
//!
//! Aircraft, 3-D, uniform spheres; a `UTree` **and** a `UPcrTree` are
//! bulk-loaded, `save`d and reopened as `DiskUTree` / `DiskUPcrTree` with
//! 32-frame pools (about 8 % of the U-tree's node pages, 4 % of U-PCR's,
//! a quarter of the heap's). One client in a closed loop; each operation
//! answers one range query (side 1500, n₁ = 25) on the U-tree and then
//! on U-PCR. Tree walk, filter, buffer pool, disk and heap do the work —
//! the bypass workload for refinement changes and the only gate on
//! `UPcrTree`. Reads come from the OS page cache: latencies are the
//! sandbox's, not a device's.

use crate::check::{answer_hash, check_range, fnv_ids, ground_truth};
use crate::env::RunDir;
use crate::layers::{
    centers, evenly, ratio, replay_filter_and_heap, replay_str, set_build_layers, set_pool_layers,
    set_query_layers, set_tree_layers, set_upcr_layers, KernelReplay, PoolDelta, QueryAgg,
};
use crate::run::{
    checked_indices, query_cycle, repeat_setup, ClosedLoop, OpDone, RunCfg, RunReport, SetupClock,
    Stop,
};
use crate::trace::{TimedStore, Tracer};
use crate::workloads::{finish_trace, set_end_to_end, EndToEnd};
use page_store::{BufferPool, DiskPageFile};
use rstar_base::TreeConfig;
use std::io;
use std::time::Instant;
use uncertain_pdf::UncertainObject;
use utree::{
    DiskUPcrTree, DiskUTree, InsertStats, Query, QueryCtx, QueryOutcome, UCatalog, UPcrTree, UTree,
};

const QS: f64 = 1500.0;
const N1: usize = 25;
const FRAMES: usize = 32;

struct Built {
    objs: Vec<UncertainObject<3>>,
    utree: DiskUTree<3>,
    upcr: DiskUPcrTree<3>,
    /// The in-memory U-tree the disk one was saved from; kept by a traced
    /// run as the resident copy.
    resident: Option<UTree<3>>,
    build_ns: u64,
    build_stats: InsertStats,
    save_ms: f64,
    open_ms: f64,
}

fn set_up(cfg: &RunCfg, dir: &RunDir) -> io::Result<(Built, SetupClock)> {
    let t0 = Instant::now();
    let objs = crate::data::aircraft(cfg.size(12_000, 300), cfg.sub_seed(1));
    let mut utree = UTree::<3>::builder().build().map_err(io::Error::other)?;
    let mut upcr = UPcrTree::<3>::builder().build().map_err(io::Error::other)?;
    let t1 = Instant::now();
    let build_stats = utree.bulk_load(&objs);
    let build_ns = t1.elapsed().as_nanos() as u64;
    upcr.bulk_load(&objs);
    let build_s = t1.elapsed().as_secs_f64();

    let (udir, pdir) = (dir.fresh("utree")?, dir.fresh("upcr")?);
    let t2 = Instant::now();
    utree.save(&udir)?;
    upcr.save(&pdir)?;
    let save_ms = t2.elapsed().as_secs_f64() * 1e3;
    let t3 = Instant::now();
    let disk_utree = DiskUTree::<3>::open(&udir, FRAMES)?;
    let disk_upcr = DiskUPcrTree::<3>::open(&pdir, FRAMES)?;
    let open_ms = t3.elapsed().as_secs_f64() * 1e3;
    let clock = SetupClock {
        total_s: t0.elapsed().as_secs_f64(),
        build_s,
        built_objs: 2 * objs.len(),
    };
    Ok((
        Built {
            objs,
            utree: disk_utree,
            upcr: disk_upcr,
            resident: cfg.trace.then_some(utree),
            build_ns,
            build_stats,
            save_ms,
            open_ms,
        },
        clock,
    ))
}

fn ids(out: &QueryOutcome) -> impl Iterator<Item = u64> + '_ {
    out.matches.iter().map(|m| m.id)
}

pub fn run(cfg: &RunCfg, dir: &RunDir) -> io::Result<RunReport> {
    let (built, clocks) = repeat_setup(cfg.setups(), |_| set_up(cfg, dir))?;
    let Built {
        objs, utree, upcr, ..
    } = &built;
    let n1 = cfg.size(N1, 25);
    let cycle = query_cycle(&centers(objs), cfg.size(4_000, 60), QS, n1, cfg.sub_seed(2));

    let mut report = RunReport::default();
    let mut ctx = QueryCtx::new();
    let mut lp = ClosedLoop::new(Some(cycle.len()));
    let mut plain = |i: usize| {
        let a = utree
            .try_execute_with(&cycle[i], &mut ctx)
            .map_err(|e| e.to_string())?;
        let b = upcr
            .try_execute_with(&cycle[i], &mut ctx)
            .map_err(|e| e.to_string())?;
        Ok(OpDone {
            hash: fnv_ids(answer_hash(ids(&a)), ids(&b)),
            untimed_ns: 0,
        })
    };
    lp.run(Stop::Ops(cfg.size(500, 10)), &mut plain);
    if cfg.trace {
        let mut tracer = Tracer::new();
        let mut ctx = QueryCtx::new();
        let (mut uagg, mut pagg) = (QueryAgg::default(), QueryAgg::default());
        let mut kernel = KernelReplay::new(evenly(objs, 256), n1, cfg.sub_seed(3));
        let node0 = PoolDelta::snapshot(utree.node_store());
        let heap0 = PoolDelta::snapshot(utree.heap().file());
        let traced = lp.run(Stop::seconds(cfg.seconds), |i| {
            let op = tracer.enter("query_pair", i as u64);
            let uopen = tracer.enter("utree.query", i as u64);
            let a = utree.try_execute_with(&cycle[i], &mut ctx);
            let uwall = tracer.exit(uopen);
            let popen = tracer.enter("upcr.query", i as u64);
            let b = upcr.try_execute_with(&cycle[i], &mut ctx);
            let pwall = tracer.exit(popen);
            tracer.exit(op);
            let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
            for (open, out) in [(uopen, &a), (popen, &b)] {
                tracer.derived(open, "filter", out.stats.filter_nanos as u64, false);
                tracer.derived(open, "refine", out.stats.refine_nanos as u64, true);
            }
            uagg.add(uwall, &a.stats);
            pagg.add(pwall, &b.stats);
            Ok(OpDone {
                hash: fnv_ids(answer_hash(ids(&a)), ids(&b)),
                untimed_ns: kernel.step(1),
            })
        });
        let node = PoolDelta::snapshot(utree.node_store()).since(node0);
        let heap = PoolDelta::snapshot(utree.heap().file()).since(heap0);

        let resident = built.resident.as_ref().expect("a traced set-up keeps it");
        let sample: Vec<Query<3>> = cycle.iter().step_by(cycle.len() / 8).copied().collect();
        let kernel_ns = kernel.ns_per_sample();
        let (filter_ns, heap_us) = replay_filter_and_heap(resident, &sample)?;
        let mut ragg = QueryAgg::default();
        for q in cycle.iter().take(cfg.size(1_000, 20)) {
            let t0 = Instant::now();
            let out = resident.execute_with(q, &mut ctx);
            ragg.add(t0.elapsed().as_nanos() as u64, &out.stats);
        }
        set_query_layers(&mut report, &uagg, kernel_ns, filter_ns, heap_us);
        set_tree_layers(&mut report.metrics, utree, &uagg, &ragg, filter_ns)?;
        set_upcr_layers(&mut report.metrics, upcr, &pagg)?;
        set_pool_layers(&mut report, node, heap, uagg.queries, 0);
        set_build_layers(
            &mut report,
            objs.len(),
            built.build_ns,
            &built.build_stats,
            replay_str(resident),
        );
        timed_pool_replay(cfg, dir, &mut report, objs, &cycle)?;
        report.metrics.set("persist.save_ms", built.save_ms);
        report.metrics.set("persist.open_ms", built.open_ms);
        // The pair's two queries are its children; what matters is how
        // much of each query its two phases explain.
        finish_trace(
            cfg,
            dir,
            &mut report,
            &tracer,
            &["utree.query", "upcr.query"],
            &traced,
        )?;
    } else {
        let measured = lp.run(Stop::seconds(cfg.seconds), &mut plain);
        set_end_to_end(
            &mut report,
            EndToEnd {
                clocks: &clocks,
                measured: &measured,
                ops_per_call: 1,
                stored_bytes: utree.index_size_bytes()
                    + utree.heap_size_bytes()
                    + upcr.index_size_bytes()
                    + upcr.heap_size_bytes(),
                stored_objs: utree.len() + upcr.len(),
                fnv_ops: cfg.size(4_000, 20),
            },
        )?;
    }

    // Ground truth for five queries of the cycle (a 3-D ball costs about
    // 10 ms of quadrature per object), shared by the two trees' answers.
    let mut ctx = QueryCtx::new();
    for i in checked_indices(cycle.len(), cfg.size(800, 30)) {
        report.attempted += 1;
        let (Ok(a), Ok(b)) = (
            utree.try_execute_with(&cycle[i], &mut ctx),
            upcr.try_execute_with(&cycle[i], &mut ctx),
        ) else {
            report.failed += 1;
            continue;
        };
        let hash = fnv_ids(answer_hash(ids(&a)), ids(&b));
        report.failed += u64::from(lp.first_hash(i).is_some_and(|h| h != hash));
        let truth = ground_truth(objs, cycle[i].region());
        report.absorb(check_range(&truth, &cycle[i], &a));
        report.absorb(check_range(&truth, &cycle[i], &b));
    }
    report.attempted += lp.attempted;
    report.failed += lp.failed();
    report.note("objects", objs.len());
    report.note("cycle_queries", cycle.len());
    report.note("n1", n1);
    report.note("pool_frames", FRAMES);
    Ok(report)
}

/// The pool's own time per read and the disk's: the same objects packed
/// into a U-tree whose node and heap stores are `TimedStore` over
/// `BufferPool` over `TimedStore` over `DiskPageFile`, queried from the
/// same cycle. The outer clock minus the inner one is the pool.
fn timed_pool_replay(
    cfg: &RunCfg,
    dir: &RunDir,
    report: &mut RunReport,
    objs: &[UncertainObject<3>],
    cycle: &[Query<3>],
) -> io::Result<()> {
    let at = dir.fresh("timed")?;
    let stack = |file: &str| -> io::Result<_> {
        let (inner, below) = TimedStore::new(DiskPageFile::create(at.join(file))?);
        let (outer, above) = TimedStore::new(BufferPool::new(inner, FRAMES));
        Ok((outer, above, below))
    };
    let (node_store, node_above, node_below) = stack("index.pg")?;
    let (heap_store, heap_above, heap_below) = stack("heap.pg")?;
    let mut tree = UTree::<3, _>::with_stores(
        UCatalog::paper_utree_default(),
        TreeConfig::default(),
        node_store,
        heap_store,
    );
    tree.bulk_load(objs);
    let mut ctx = QueryCtx::new();
    let queries = cfg.size(2_000, 30);
    // One pass to write the build's dirty frames back, one to measure.
    for (pass, clocks) in [(0, false), (1, true)] {
        if clocks {
            for c in [&node_above, &node_below, &heap_above, &heap_below] {
                c.reset();
            }
        }
        for q in cycle.iter().skip(pass * queries).take(queries) {
            tree.try_execute_with(q, &mut ctx)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
    }
    let above_ns = node_above.read_ns() + heap_above.read_ns();
    let below_ns = node_below.read_ns() + heap_below.read_ns();
    let above = node_above.reads() + heap_above.reads();
    let below = node_below.reads() + heap_below.reads();
    report.metrics.set(
        "buffer.self_ns_per_read",
        ratio(above_ns.saturating_sub(below_ns) as f64, above as f64),
    );
    report
        .metrics
        .set("disk.read_us", ratio(below_ns as f64, below as f64) / 1e3);
    report.predict(
        "a pool's reads cost at least its backend's",
        above_ns >= below_ns && above >= below,
    );
    Ok(())
}
