//! `refine_mc` — refinement does almost all the work.
//!
//! LB, 2-D, uniform-ball objects (r = 250) in an **in-memory** `UTree`
//! with the paper's catalog; one client in a closed loop; range queries of
//! side 1000 with `p_q` cycling 0.1–0.9 and Monte-Carlo refinement at
//! n₁ = 10 000. The `kernel` layer carries the wall clock and pool, WAL
//! and disk do nothing: refinement-side changes must show here and
//! nowhere else.

use crate::check::{answer_hash, check_range, ground_truth};
use crate::env::RunDir;
use crate::layers::{
    centers, evenly, replay_filter_and_heap, replay_str, set_build_layers, set_query_layers,
    set_tree_layers, KernelReplay, QueryAgg,
};
use crate::run::{
    checked_indices, query_cycle, repeat_setup, ClosedLoop, OpDone, RunCfg, RunReport, SetupClock,
    Stop,
};
use crate::trace::Tracer;
use crate::workloads::{finish_trace, set_end_to_end, EndToEnd};
use std::io;
use std::time::Instant;
use uncertain_pdf::UncertainObject;
use utree::{InsertStats, QueryCtx, UTree};

const QS: f64 = 1000.0;
const N1: usize = 10_000;

struct Built {
    objs: Vec<UncertainObject<2>>,
    tree: UTree<2>,
    build_ns: u64,
    build_stats: InsertStats,
}

fn set_up(cfg: &RunCfg) -> io::Result<(Built, SetupClock)> {
    let t0 = Instant::now();
    let (objs, _) = crate::data::lb(cfg.size(10_000, 400), 0, cfg.sub_seed(1));
    let mut tree = UTree::<2>::builder().build().map_err(io::Error::other)?;
    let t1 = Instant::now();
    let build_stats = tree.bulk_load(&objs);
    let build = t1.elapsed();
    let clock = SetupClock {
        total_s: t0.elapsed().as_secs_f64(),
        build_s: build.as_secs_f64(),
        built_objs: objs.len(),
    };
    Ok((
        Built {
            objs,
            tree,
            build_ns: build.as_nanos() as u64,
            build_stats,
        },
        clock,
    ))
}

pub fn run(cfg: &RunCfg, dir: &RunDir) -> io::Result<RunReport> {
    let (built, clocks) = repeat_setup(cfg.setups(), |_| set_up(cfg))?;
    let Built { objs, tree, .. } = &built;
    let n1 = cfg.size(N1, 500);
    let cycle = query_cycle(&centers(objs), cfg.size(1_000, 40), QS, n1, cfg.sub_seed(2));

    let mut report = RunReport::default();
    let mut ctx = QueryCtx::new();
    let mut agg = QueryAgg::default();
    let mut lp = ClosedLoop::new(Some(cycle.len()));
    let mut plain = |i: usize| {
        let out = tree
            .try_execute_with(&cycle[i], &mut ctx)
            .map_err(|e| e.to_string())?;
        Ok(OpDone {
            hash: answer_hash(out.matches.iter().map(|m| m.id)),
            untimed_ns: 0,
        })
    };
    lp.run(Stop::Ops(cfg.size(50, 5)), &mut plain);

    if cfg.trace {
        let mut tracer = Tracer::new();
        let mut ctx = QueryCtx::new();
        let mut kernel = KernelReplay::new(evenly(objs, 256), n1, cfg.sub_seed(3));
        let traced = lp.run(Stop::seconds(cfg.seconds), |i| {
            let open = tracer.enter("query", i as u64);
            let out = tree.try_execute_with(&cycle[i], &mut ctx);
            let wall = tracer.exit(open);
            let out = out.map_err(|e| e.to_string())?;
            tracer.derived(open, "filter", out.stats.filter_nanos as u64, false);
            tracer.derived(open, "refine", out.stats.refine_nanos as u64, true);
            agg.add(wall, &out.stats);
            Ok(OpDone {
                hash: answer_hash(out.matches.iter().map(|m| m.id)),
                untimed_ns: kernel.step(1),
            })
        });
        let sample: Vec<_> = cycle.iter().step_by(cycle.len() / 8).copied().collect();
        let kernel_ns = kernel.ns_per_sample();
        let (filter_ns, heap_us) = replay_filter_and_heap(tree, &sample)?;
        set_query_layers(&mut report, &agg, kernel_ns, filter_ns, heap_us);
        // The tree is in memory: its own queries are the resident copy.
        set_tree_layers(&mut report.metrics, tree, &agg, &agg, filter_ns)?;
        set_build_layers(
            &mut report,
            objs.len(),
            built.build_ns,
            &built.build_stats,
            replay_str(tree),
        );
        finish_trace(cfg, dir, &mut report, &tracer, &["query"], &traced)?;
    } else {
        let measured = lp.run(Stop::seconds(cfg.seconds), &mut plain);
        set_end_to_end(
            &mut report,
            EndToEnd {
                clocks: &clocks,
                measured: &measured,
                ops_per_call: 1,
                stored_bytes: tree.index_size_bytes() + tree.heap_size_bytes(),
                stored_objs: tree.len(),
                fnv_ops: cfg.size(200, 10),
            },
        )?;
    }

    // Ground truth, outside the timed region: every 50th query of the
    // cycle, which must also answer as it did when it was timed.
    let mut ctx = QueryCtx::new();
    for i in checked_indices(cycle.len(), cfg.size(50, 10)) {
        report.attempted += 1;
        let Ok(out) = tree.try_execute_with(&cycle[i], &mut ctx) else {
            report.failed += 1;
            continue;
        };
        let hash = answer_hash(out.matches.iter().map(|m| m.id));
        report.failed += u64::from(lp.first_hash(i).is_some_and(|h| h != hash));
        report.absorb(check_range(
            &ground_truth(objs, cycle[i].region()),
            &cycle[i],
            &out,
        ));
    }
    report.attempted += lp.attempted;
    report.failed += lp.failed();
    report.note("objects", objs.len());
    report.note("cycle_queries", cycle.len());
    report.note("n1", n1);
    Ok(report)
}
