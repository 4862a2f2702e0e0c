//! `serve_mixed` — the only workload crossing the service.
//!
//! An `IndexCatalog` with `lb` (uniform-ball, 4 shards) and `ca`
//! (Con-Gau, 2 shards), bulk-loaded, flushed and reopened with
//! 1 024-frame pools (everything fits, warmed before measuring).
//! `QueryService::new(min(2, nproc), 8)`; **closed loop, one client**:
//! batches of 8 requests, each submitted when the previous one has
//! returned; 75 % range / 25 % top-k (k = 1–10), alternating indexes,
//! side 1000, n₁ = 2 000. Closed because `serve(Vec<..>)` is the only
//! admission API and its caller waits for the batch; an open-loop
//! workload belongs to the change that gives the service streaming
//! admission. Crosses `service` admission, `shard` scatter/merge, `rank`,
//! the Con-Gau kernel and pools shared by concurrent readers.

use crate::check::{answer_hash, check_range, check_topk, fnv_ids, ground_truth, Verdict};
use crate::env::{nproc, RunDir};
use crate::layers::{
    centers, evenly, ratio, replay_filter_and_heap, replay_str, set_build_layers, set_pool_layers,
    set_query_layers, set_tree_layers, KernelReplay, PoolDelta, QueryAgg,
};
use crate::metrics::percentile;
use crate::run::{
    checked_indices, repeat_setup, threshold, ClosedLoop, OpDone, RunCfg, RunReport, SetupClock,
    Stop,
};
use crate::trace::Tracer;
use crate::workloads::{finish_trace, set_end_to_end, EndToEnd};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rstar_base::TreeConfig;
use std::io;
use std::time::Instant;
use uncertain_geom::Rect;
use uncertain_pdf::UncertainObject;
use utree::{
    IndexCatalog, InsertStats, ProbIndex, Query, QueryCtx, QueryService, QueryStats, Refine,
    ServiceReply, ServiceReport, ServiceRequest, ShardedIndex, UCatalog,
};

const QS: f64 = 1000.0;
const N1: usize = 2_000;
const FRAMES: usize = 1_024;
const BATCH: usize = 8;
const INDEXES: [(&str, usize); 2] = [("lb", 4), ("ca", 2)];

struct Built {
    /// Objects of `lb` and of `ca`, in `INDEXES` order.
    objs: [Vec<UncertainObject<2>>; 2],
    catalog: IndexCatalog<2>,
    build_ns: u64,
    build_stats: InsertStats,
    flush_ms: f64,
    open_ms: f64,
}

fn set_up(cfg: &RunCfg, dir: &RunDir) -> io::Result<(Built, SetupClock)> {
    let t0 = Instant::now();
    let n = cfg.size(6_000, 300);
    let (lb, _) = crate::data::lb(n, 0, cfg.sub_seed(1));
    // Ids of the two indexes do not overlap, so an answer's ids name its
    // index.
    let ca = crate::data::ca(n, 1_000_000, cfg.sub_seed(2));
    let objs = [lb, ca];
    let at = dir.fresh("catalog")?;
    let mut build_stats = InsertStats::default();
    let mut build_ns = 0u64;
    let flush_ms;
    {
        let mut cat = IndexCatalog::<2>::create(&at, FRAMES)?;
        for ((name, shards), objs) in INDEXES.iter().zip(&objs) {
            cat.create_index(
                name,
                UCatalog::paper_utree_default(),
                TreeConfig::default(),
                *shards,
            )?;
            let index = cat.get_mut(name).expect("just created");
            let t1 = Instant::now();
            build_stats += &index.bulk_load(objs);
            build_ns += t1.elapsed().as_nanos() as u64;
        }
        let t2 = Instant::now();
        cat.flush()?;
        flush_ms = t2.elapsed().as_secs_f64() * 1e3;
    }
    let t3 = Instant::now();
    let catalog = IndexCatalog::<2>::open(&at, FRAMES)?;
    let open_ms = t3.elapsed().as_secs_f64() * 1e3;
    let clock = SetupClock {
        total_s: t0.elapsed().as_secs_f64(),
        build_s: build_ns as f64 / 1e9,
        built_objs: 2 * n,
    };
    Ok((
        Built {
            objs,
            catalog,
            build_ns,
            build_stats,
            flush_ms,
            open_ms,
        },
        clock,
    ))
}

/// The request mix: which index, which kind, where, how strict — all from
/// the seed.
fn request_cycle(
    cfg: &RunCfg,
    objs: &[Vec<UncertainObject<2>>; 2],
    batches: usize,
) -> Vec<Vec<ServiceRequest<2>>> {
    let mut rng = SmallRng::seed_from_u64(cfg.sub_seed(3));
    let n1 = cfg.size(N1, 200);
    let spots = [centers(&objs[0]), centers(&objs[1])];
    let mut counter = 0usize;
    (0..batches)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    let which = counter % 2;
                    let c = spots[which][rng.gen_range(0..spots[which].len())];
                    let region = Rect::cube(&c, QS);
                    let refine = Refine::monte_carlo(n1, cfg.sub_seed(4) ^ counter as u64);
                    let index = INDEXES[which].0.to_string();
                    let topk = rng.gen_range(0..4usize) == 0;
                    let k = rng.gen_range(1..=10usize);
                    counter += 1;
                    if topk {
                        ServiceRequest::TopK {
                            index,
                            query: Query::range(region)
                                .top(k)
                                .refine(refine)
                                .build()
                                .expect("generated queries are valid"),
                        }
                    } else {
                        ServiceRequest::Range {
                            index,
                            query: Query::range(region)
                                .threshold(threshold(counter))
                                .refine(refine)
                                .build()
                                .expect("generated queries are valid"),
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// Hash of a batch's replies in request order; an error reply fails the
/// batch.
fn batch_hash(replies: &[ServiceReply]) -> Result<u64, String> {
    let mut h = answer_hash([]);
    for reply in replies {
        h = match reply {
            ServiceReply::Range(out) => fnv_ids(h, out.matches.iter().map(|m| m.id)),
            ServiceReply::TopK(out) => fnv_ids(h, out.matches.iter().map(|m| m.id)),
            ServiceReply::Error(e) => return Err(e.clone()),
        };
    }
    Ok(h)
}

/// Every latency a report holds, recovered through its nearest-rank
/// percentiles (the vector itself is private).
fn report_latencies(report: &ServiceReport) -> Vec<u64> {
    let n = report.served;
    (1..=n)
        .filter_map(|rank| report.percentile_nanos(100.0 * rank as f64 / n as f64))
        .collect()
}

fn index_of<'a>(catalog: &'a IndexCatalog<2>, name: &str) -> &'a ShardedIndex<2, utree::DiskStore> {
    catalog
        .get(name)
        .expect("the request names a created index")
}

fn objs_of<'a>(objs: &'a [Vec<UncertainObject<2>>; 2], name: &str) -> &'a [UncertainObject<2>] {
    &objs[INDEXES
        .iter()
        .position(|(n, _)| *n == name)
        .expect("known index")]
}

pub fn run(cfg: &RunCfg, dir: &RunDir) -> io::Result<RunReport> {
    // Never more workers than cores: a scaling figure from oversubscribed
    // workers says nothing.
    let workers = nproc().min(2);
    let (built, clocks) = repeat_setup(cfg.setups(), |_| set_up(cfg, dir))?;
    let Built { objs, catalog, .. } = &built;
    let cycle = request_cycle(cfg, objs, cfg.size(160, 12));
    let service = QueryService::new(workers, BATCH);

    let mut report = RunReport::default();
    let mut lp = ClosedLoop::new(Some(cycle.len()));
    let mut plain = |i: usize| {
        let (replies, _) = service.serve(catalog, cycle[i].clone());
        Ok(OpDone {
            hash: batch_hash(&replies)?,
            untimed_ns: 0,
        })
    };
    lp.run(Stop::Ops(cfg.size(50, 4)), &mut plain);
    if cfg.trace {
        let mut tracer = Tracer::new();
        let pools = |catalog: &IndexCatalog<2>| {
            let mut node = PoolDelta::default();
            let mut heap = PoolDelta::default();
            for (name, _) in INDEXES {
                for shard in index_of(catalog, name).shards() {
                    node = node.plus(PoolDelta::snapshot(shard.node_store()));
                    heap = heap.plus(PoolDelta::snapshot(shard.heap().file()));
                }
            }
            (node, heap)
        };
        let (node0, heap0) = pools(catalog);
        let mut reported: Vec<u64> = Vec::new();
        // Per cycle index: how often the batch ran traced, and its wall.
        let mut runs = vec![0u64; cycle.len()];
        let mut batch_wall_ns = 0u64;
        // Both pdfs, as the requests alternate between the indexes.
        let both = evenly(&objs[0], 128)
            .into_iter()
            .zip(evenly(&objs[1], 128))
            .flat_map(|(lb, ca)| [lb, ca])
            .collect();
        let mut kernel = KernelReplay::new(both, cfg.size(N1, 200), cfg.sub_seed(5));
        let traced = lp.run(Stop::seconds(cfg.seconds), |i| {
            let open = tracer.enter("serve", i as u64);
            let (replies, rep) = service.serve(catalog, cycle[i].clone());
            batch_wall_ns += tracer.exit(open);
            let lat = report_latencies(&rep);
            // The requests' [submitted, answered] intervals all start at
            // admission; their union is the slowest one's.
            if let Some(&slowest) = lat.last() {
                tracer.derived(open, "service.requests", slowest, true);
            }
            reported.extend(lat);
            runs[i] += 1;
            Ok(OpDone {
                hash: batch_hash(&replies)?,
                untimed_ns: kernel.step(BATCH),
            })
        });
        let (node1, heap1) = pools(catalog);

        // Direct execution of the whole cycle with one reused context:
        // what the requests cost without admission, queueing or threads.
        let mut ctx = QueryCtx::new();
        let mut direct_ns = vec![0u64; cycle.len()];
        let (mut range_agg, mut rank_agg) = (QueryAgg::default(), QueryAgg::default());
        let (mut shard_sum_ns, mut slowest_ns) = (0u64, 0u64);
        for (i, batch) in cycle.iter().enumerate() {
            for request in batch {
                match request {
                    ServiceRequest::Range { index, query } => {
                        let idx = index_of(catalog, index);
                        let t0 = Instant::now();
                        let out = idx
                            .try_execute_with(query, &mut ctx)
                            .map_err(|e| io::Error::other(e.to_string()))?;
                        let ns = t0.elapsed().as_nanos() as u64;
                        direct_ns[i] += ns;
                        range_agg.add(ns, &out.stats);
                        // The same query shard by shard: what scatter and
                        // merge add, and how much the slowest shard holds.
                        let mut slowest = 0u64;
                        for shard in idx.shards() {
                            let t1 = Instant::now();
                            shard
                                .try_execute_with(query, &mut ctx)
                                .map_err(|e| io::Error::other(e.to_string()))?;
                            let one = t1.elapsed().as_nanos() as u64;
                            shard_sum_ns += one;
                            slowest = slowest.max(one);
                        }
                        slowest_ns += slowest;
                    }
                    ServiceRequest::TopK { index, query } => {
                        let t0 = Instant::now();
                        let out = index_of(catalog, index)
                            .try_rank_topk_with(query, &mut ctx)
                            .map_err(|e| io::Error::other(e.to_string()))?;
                        let ns = t0.elapsed().as_nanos() as u64;
                        direct_ns[i] += ns;
                        rank_agg.add(ns, &out.stats);
                    }
                }
            }
        }
        let direct_total: u64 = runs.iter().zip(&direct_ns).map(|(r, d)| r * d).sum();
        let reported_total: u64 = reported.iter().sum();
        reported.sort_unstable();
        let m = &mut report.metrics;
        if !reported.is_empty() {
            m.set(
                "service.req_p50_ms",
                percentile(&reported, 50.0) as f64 / 1e6,
            );
            m.set(
                "service.req_p99_ms",
                percentile(&reported, 99.0) as f64 / 1e6,
            );
        }
        m.set(
            "service.queue_wait_share",
            (1.0 - ratio(direct_total as f64, reported_total as f64)).max(0.0),
        );
        m.set(
            "service.efficiency",
            ratio(direct_total as f64, batch_wall_ns as f64 * workers as f64),
        );
        m.set(
            "shard.scatter_overhead_us",
            ratio(
                range_agg.wall_ns as f64 - shard_sum_ns as f64,
                range_agg.queries as f64,
            ) / 1e3,
        );
        m.set(
            "shard.slowest_share",
            ratio(slowest_ns as f64, shard_sum_ns as f64),
        );
        let rs: &QueryStats = &rank_agg.stats;
        m.set(
            "rank.query_ms",
            ratio(rank_agg.wall_ns as f64, rank_agg.queries as f64) / 1e6,
        );
        m.set(
            "rank.probes_per_query",
            ratio(rs.prob_computations as f64, rank_agg.queries as f64),
        );
        m.set(
            "rank.nodes_per_query",
            ratio(rs.node_reads as f64, rank_agg.queries as f64),
        );
        m.set("catalog.flush_ms", built.flush_ms);
        m.set("catalog.open_ms", built.open_ms);

        // Filter and heap on the Con-Gau index's first shard.
        let ca = &index_of(catalog, "ca").shards()[0];
        let sample: Vec<Query<2>> = cycle
            .iter()
            .flatten()
            .filter_map(|r| match r {
                ServiceRequest::Range { index, query } if index == "ca" => Some(*query),
                _ => None,
            })
            .take(8)
            .collect();
        let kernel_ns = kernel.ns_per_sample();
        let (filter_ns, heap_us) = replay_filter_and_heap(ca, &sample)?;
        set_query_layers(&mut report, &range_agg, kernel_ns, filter_ns, heap_us);
        // Everything is resident here: the direct queries are the copy.
        set_tree_layers(&mut report.metrics, ca, &range_agg, &range_agg, filter_ns)?;
        set_pool_layers(
            &mut report,
            node1.since(node0),
            heap1.since(heap0),
            (traced.ops() * BATCH) as u64,
            0,
        );
        set_build_layers(
            &mut report,
            objs[0].len() + objs[1].len(),
            built.build_ns,
            &built.build_stats,
            INDEXES
                .iter()
                .flat_map(|(name, _)| index_of(catalog, name).shards())
                .map(replay_str)
                .sum(),
        );
        finish_trace(cfg, dir, &mut report, &tracer, &["serve"], &traced)?;
    } else {
        let measured = lp.run(Stop::seconds(cfg.seconds), &mut plain);
        let stored_bytes = INDEXES
            .iter()
            .map(|(name, _)| index_of(catalog, name))
            .map(|i| i.index_size_bytes() + i.heap_size_bytes())
            .sum();
        set_end_to_end(
            &mut report,
            EndToEnd {
                clocks: &clocks,
                measured: &measured,
                ops_per_call: BATCH,
                stored_bytes,
                stored_objs: objs[0].len() + objs[1].len(),
                fnv_ops: cfg.size(160, 8),
            },
        )?;
    }

    // Ground truth for every reply of one batch in twenty.
    for i in checked_indices(cycle.len(), cfg.size(20, 6)) {
        let (replies, _) = service.serve(catalog, cycle[i].clone());
        report.attempted += 1;
        match batch_hash(&replies) {
            Ok(hash) => report.failed += u64::from(lp.first_hash(i).is_some_and(|h| h != hash)),
            Err(_) => report.failed += 1,
        }
        for (request, reply) in cycle[i].iter().zip(&replies) {
            report.absorb(match (request, reply) {
                (ServiceRequest::Range { index, query }, ServiceReply::Range(out)) => check_range(
                    &ground_truth(objs_of(objs, index), query.region()),
                    query,
                    out,
                ),
                (ServiceRequest::TopK { index, query }, ServiceReply::TopK(out)) => {
                    check_topk(objs_of(objs, index), query, out)
                }
                _ => Verdict {
                    checked: 1,
                    violations: 1,
                },
            });
        }
    }
    report.attempted += lp.attempted * BATCH as u64;
    report.failed += lp.failed();
    report.note("nproc", nproc());
    report.note("workers", workers);
    report.note("objects_per_index", objs[0].len());
    report.note("cycle_batches", cycle.len());
    report.note("pool_frames", FRAMES);
    Ok(report)
}
