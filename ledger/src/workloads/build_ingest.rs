//! `build_ingest` — writes beside reads.
//!
//! Set-up bulk-loads LB (uniform balls) into an in-memory `UTree`,
//! `save`s it and reopens it as a `DiskUTree` with 256-frame pools. The
//! measured phase is a stream of transactions from one client: 32
//! mutations (90 % inserts of new objects, 10 % deletes of earlier
//! inserts), then `commit()` under group commit 1 — **one fsync per
//! commit; the flush policy is part of the workload** — then 2 range
//! queries (side 1000, n₁ = 200) on objects the transaction just wrote.
//! Finally the tree is dropped without a checkpoint and reopened, which
//! replays the log. Uses `pcr`/`cfb`/`tree`/`buffer`/`wal`/`disk` for
//! writes beside reads: a read-path gain bought with build time, WAL
//! volume, commit latency or index size shows here.

use crate::check::{answer_hash, check_range, fnv_ids, ground_truth};
use crate::env::RunDir;
use crate::layers::{
    evenly, ratio, replay_filter_and_heap, replay_str, replay_wal, set_build_layers,
    set_pool_layers, set_query_layers, set_tree_layers, KernelReplay, PoolDelta, QueryAgg,
};
use crate::metrics::percentile;
use crate::run::{
    repeat_setup, threshold, ClosedLoop, OpDone, RunCfg, RunReport, SetupClock, Stop,
};
use crate::trace::Tracer;
use crate::workloads::{finish_trace, set_end_to_end, EndToEnd};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::PathBuf;
use std::time::Instant;
use uncertain_geom::Rect;
use uncertain_pdf::UncertainObject;
use utree::{DiskUTree, InsertStats, Query, QueryCtx, Refine, UTree};

const QS: f64 = 1000.0;
const N1: usize = 200;
const FRAMES: usize = 256;
const TX_MUTATIONS: usize = 32;
const TX_READS: usize = 2;
/// Transactions between two whose reads go to the oracle (every 50th
/// query).
const CHECK_EVERY: usize = 25;

struct Built {
    base: Vec<UncertainObject<2>>,
    /// Objects the stream inserts, in order; ids follow the base's.
    fresh: Vec<UncertainObject<2>>,
    tree: DiskUTree<2>,
    at: PathBuf,
    build_ns: u64,
    build_stats: InsertStats,
    /// `str_order_by` replayed on the packed tree (a traced run only).
    str_ns: u64,
    save_ms: f64,
    open_ms: f64,
}

fn set_up(cfg: &RunCfg, dir: &RunDir) -> io::Result<(Built, SetupClock)> {
    let t0 = Instant::now();
    let n = cfg.size(10_000, 400);
    // More fresh objects than the longest allowed run can consume.
    let (base, fresh) = crate::data::lb(n, cfg.size(120_000, 4_000), cfg.sub_seed(1));
    let mut mem = UTree::<2>::builder().build().map_err(io::Error::other)?;
    let t1 = Instant::now();
    let build_stats = mem.bulk_load(&base);
    let build = t1.elapsed();
    let str_ns = if cfg.trace { replay_str(&mem) } else { 0 };
    let at = dir.fresh("tree")?;
    let t2 = Instant::now();
    mem.save(&at)?;
    let save_ms = t2.elapsed().as_secs_f64() * 1e3;
    let t3 = Instant::now();
    let tree = DiskUTree::<2>::open(&at, FRAMES)?;
    let open_ms = t3.elapsed().as_secs_f64() * 1e3;
    let clock = SetupClock {
        total_s: t0.elapsed().as_secs_f64(),
        build_s: build.as_secs_f64(),
        built_objs: n,
    };
    Ok((
        Built {
            base,
            fresh,
            tree,
            at,
            build_ns: build.as_nanos() as u64,
            build_stats,
            str_ns,
            save_ms,
            open_ms,
        },
        clock,
    ))
}

/// Times `f` as a span when tracing, and just runs it when not.
fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, req, f),
        None => f(),
    }
}

/// The client's state: what it has written, what is still live, and the
/// counters a traced run reads afterwards.
struct Ingest<'a> {
    cfg: &'a RunCfg,
    base: &'a [UncertainObject<2>],
    fresh: &'a [UncertainObject<2>],
    tree: DiskUTree<2>,
    rng: SmallRng,
    ctx: QueryCtx,
    /// Next object of `fresh` to insert.
    next: usize,
    /// Indices into `fresh` of inserted objects not deleted since.
    live: Vec<usize>,
    /// Indices into `fresh` the latest transaction inserted.
    last_written: Vec<usize>,
    reads: usize,
    inserts: u64,
    commits: u64,
    insert_stats: InsertStats,
    read_agg: QueryAgg,
    checked: crate::check::Verdict,
}

impl Ingest<'_> {
    fn read_query(&self, about: usize, nth: usize) -> Query<2> {
        let c = self.fresh[about].mbr().center();
        Query::range(Rect::cube(&c, QS))
            .threshold(threshold(nth))
            .refine(Refine::monte_carlo(
                self.cfg.size(N1, 100),
                self.cfg.sub_seed(4) ^ nth as u64,
            ))
            .build()
            .expect("generated queries are valid")
    }

    /// One transaction: mutations, commit, reads of what it wrote.
    fn transaction(
        &mut self,
        tx: usize,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<OpDone, String> {
        let root = tracer.as_mut().map(|t| t.enter("tx", tx as u64));
        let done = self.mutate_commit_read(tx, &mut tracer);
        // Close the root whatever happened inside, so a failed transaction
        // is counted instead of unbalancing the recorder.
        if let (Some(t), Some(root)) = (tracer, root) {
            t.exit(root);
        }
        done
    }

    fn mutate_commit_read(
        &mut self,
        tx: usize,
        tracer: &mut Option<&mut Tracer>,
    ) -> Result<OpDone, String> {
        let req = tx as u64;
        let mut hash = answer_hash([]);
        self.last_written.clear();
        for _ in 0..TX_MUTATIONS {
            if !self.live.is_empty() && self.rng.gen_range(0..10usize) == 0 {
                let victim = self
                    .live
                    .swap_remove(self.rng.gen_range(0..self.live.len()));
                let obj = &self.fresh[victim];
                let tree = &mut self.tree;
                if !spanned(tracer, "delete", req, || tree.delete(obj)) {
                    return Err(format!(
                        "object {} was inserted but is not deletable",
                        obj.id
                    ));
                }
                hash = fnv_ids(hash, [obj.id]);
                self.last_written.retain(|&w| w != victim);
            } else {
                let obj = self
                    .fresh
                    .get(self.next)
                    .ok_or("the insert stream is exhausted")?;
                let tree = &mut self.tree;
                let stats = spanned(tracer, "insert", req, || tree.insert(obj));
                self.insert_stats += &stats;
                self.inserts += 1;
                self.live.push(self.next);
                self.last_written.push(self.next);
                self.next += 1;
            }
        }
        let tree = &mut self.tree;
        spanned(tracer, "commit", req, || tree.commit()).map_err(|e| e.to_string())?;
        self.commits += 1;

        let mut untimed_ns = 0u64;
        for r in 0..TX_READS.min(self.last_written.len()) {
            // The first and the last object this transaction wrote.
            let about = self.last_written[r * (self.last_written.len() - 1)];
            let query = self.read_query(about, self.reads);
            self.reads += 1;
            let (tree, ctx) = (&self.tree, &mut self.ctx);
            let t0 = Instant::now();
            let out = spanned(tracer, "read", req, || tree.try_execute_with(&query, ctx))
                .map_err(|e| e.to_string())?;
            if tracer.is_some() {
                self.read_agg
                    .add(t0.elapsed().as_nanos() as u64, &out.stats);
            }
            hash = fnv_ids(hash, out.matches.iter().map(|m| m.id));
            if tx.is_multiple_of(CHECK_EVERY) {
                // Ground truth needs the objects live right now, so it is
                // taken here — off the clock.
                let t1 = Instant::now();
                let live = self.live.iter().map(|&i| &self.fresh[i]);
                let truth = ground_truth(self.base.iter().chain(live), query.region());
                self.checked += check_range(&truth, &query, &out);
                untimed_ns += t1.elapsed().as_nanos() as u64;
            }
        }
        Ok(OpDone { hash, untimed_ns })
    }
}

pub fn run(cfg: &RunCfg, dir: &RunDir) -> io::Result<RunReport> {
    let (built, clocks) = repeat_setup(cfg.setups(), |_| set_up(cfg, dir))?;
    let stored_bytes = built.tree.index_size_bytes() + built.tree.heap_size_bytes();
    let stored_objs = built.tree.len();
    let mut report = RunReport::default();
    let mut state = Ingest {
        cfg,
        base: &built.base,
        fresh: &built.fresh,
        tree: built.tree,
        rng: SmallRng::seed_from_u64(cfg.sub_seed(3)),
        ctx: QueryCtx::new(),
        next: 0,
        live: Vec::new(),
        last_written: Vec::new(),
        reads: 0,
        inserts: 0,
        commits: 0,
        insert_stats: InsertStats::default(),
        read_agg: QueryAgg::default(),
        checked: Default::default(),
    };

    let mut lp = ClosedLoop::new(None);
    lp.run(Stop::Ops(cfg.size(10, 1)), |tx| state.transaction(tx, None));
    if cfg.trace {
        let mut tracer = Tracer::new();
        let wal_log = built.at.join("wal.log");
        let wal0 = std::fs::metadata(&wal_log)?.len();
        let syncs0 = state.tree.wal_sync_count();
        let node0 = PoolDelta::snapshot(state.tree.node_store());
        let heap0 = PoolDelta::snapshot(state.tree.heap().file());
        let (inserts0, commits0, reads0) = (state.inserts, state.commits, state.reads);
        state.insert_stats = InsertStats::default();
        let mut kernel =
            KernelReplay::new(evenly(&built.base, 256), cfg.size(N1, 100), cfg.sub_seed(5));
        let traced = lp.run(Stop::seconds(cfg.seconds), |tx| {
            let mut done = state.transaction(tx, Some(&mut tracer))?;
            done.untimed_ns += kernel.step(TX_READS);
            Ok(done)
        });
        let mutations = (traced.ops() * TX_MUTATIONS) as f64;
        let inserts = (state.inserts - inserts0) as f64;
        let commits = (state.commits - commits0) as f64;
        let node = PoolDelta::snapshot(state.tree.node_store()).since(node0);
        let heap = PoolDelta::snapshot(state.tree.heap().file()).since(heap0);
        let wal_bytes = std::fs::metadata(&wal_log)?.len() - wal0;

        let mut insert_ns = tracer.durations("insert");
        insert_ns.sort_unstable();
        let mut commit_ns = tracer.durations("commit");
        commit_ns.sort_unstable();
        let mut read_ns = tracer.durations("read");
        read_ns.sort_unstable();
        let (append_us, sync_ms) = replay_wal(&dir.fresh("wal")?, cfg.size(20, 3))?;
        let stats = state.insert_stats;
        let m = &mut report.metrics;
        if !insert_ns.is_empty() && !commit_ns.is_empty() && !read_ns.is_empty() {
            m.set("insert.p50_us", percentile(&insert_ns, 50.0) as f64 / 1e3);
            m.set("insert.p99_us", percentile(&insert_ns, 99.0) as f64 / 1e3);
            m.set(
                "wal.commit_p50_ms",
                percentile(&commit_ns, 50.0) as f64 / 1e6,
            );
            m.set(
                "wal.commit_p95_ms",
                percentile(&commit_ns, 95.0) as f64 / 1e6,
            );
            m.set(
                "ingest.read_p50_us",
                percentile(&read_ns, 50.0) as f64 / 1e3,
            );
        }
        m.set(
            "insert.io_per_obj",
            ratio((stats.io_reads + stats.io_writes) as f64, inserts),
        );
        m.set("wal.bytes_per_obj", ratio(wal_bytes as f64, mutations));
        m.set("wal.syncs", (state.tree.wal_sync_count() - syncs0) as f64);
        m.set("wal.append_us_per_page", append_us);
        m.set("wal.sync_ms", sync_ms);
        m.set(
            "disk.writes_per_commit",
            ratio(
                (node.physical_writes + heap.physical_writes) as f64,
                commits,
            ),
        );
        m.set("persist.save_ms", built.save_ms);
        m.set("persist.open_ms", built.open_ms);
        report.predict(
            "group commit 1: one fsync per commit",
            state.tree.wal_sync_count() - syncs0 == state.commits - commits0,
        );

        let sample: Vec<Query<2>> = (0..8)
            .map(|k| state.read_query(state.live[k * state.live.len() / 8], k))
            .collect();
        let kernel_ns = kernel.ns_per_sample();
        let (filter_ns, heap_us) = replay_filter_and_heap(&state.tree, &sample)?;
        set_query_layers(&mut report, &state.read_agg, kernel_ns, filter_ns, heap_us);
        // Read straight after the writes, the reads mostly hit the pool:
        // they stand in for the resident copy.
        set_tree_layers(
            &mut report.metrics,
            &state.tree,
            &state.read_agg,
            &state.read_agg,
            filter_ns,
        )?;
        set_pool_layers(
            &mut report,
            node,
            heap,
            (state.reads - reads0) as u64,
            state.inserts - inserts0,
        );
        // The pools see the mutations' reads too; per *query* is per read
        // query here, which overstates: say so where it is printed.
        report.note("pool_counters_cover", "mutations and read queries");
        finish_trace(cfg, dir, &mut report, &tracer, &["tx"], &traced)?;
    } else {
        let measured = lp.run(Stop::seconds(cfg.seconds), |tx| state.transaction(tx, None));
        set_end_to_end(
            &mut report,
            EndToEnd {
                clocks: &clocks,
                measured: &measured,
                ops_per_call: TX_MUTATIONS,
                stored_bytes,
                stored_objs,
                fnv_ops: cfg.size(100, 2),
            },
        )?;
    }

    // Crash-stop: no checkpoint, no flush beyond the commits; reopening
    // replays the log and must land on the last commit.
    let expected_len = built.base.len() + state.live.len();
    let Ingest {
        tree,
        live,
        last_written,
        checked,
        ..
    } = state;
    if cfg.trace {
        set_build_layers(
            &mut report,
            built.base.len(),
            built.build_ns,
            &built.build_stats,
            built.str_ns,
        );
    }
    drop(tree);
    let t0 = Instant::now();
    let reopened = DiskUTree::<2>::open(&built.at, FRAMES)?;
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    if cfg.trace {
        report.metrics.set("persist.recover_ms", recover_ms);
    }
    report.attempted += 1;
    if reopened.len() != expected_len {
        report.failed += 1;
        eprintln!(
            "ledger: recovered {} objects, committed {expected_len}",
            reopened.len()
        );
    }
    let mut ctx = QueryCtx::new();
    for &w in &last_written {
        let obj = &built.fresh[w];
        let query = Query::range(Rect::cube(&obj.mbr().center(), QS))
            .threshold(0.5)
            .refine(Refine::reference(1e-6))
            .build()
            .expect("generated queries are valid");
        let found = reopened
            .try_execute_with(&query, &mut ctx)
            .is_ok_and(|out| out.contains(obj.id));
        report.attempted += 1;
        report.failed += u64::from(!found);
    }
    report.absorb(checked);
    report.attempted += lp.attempted * TX_MUTATIONS as u64;
    report.failed += lp.failed();
    report.note("base_objects", built.base.len());
    report.note("live_inserted", live.len());
    report.note("pool_frames", FRAMES);
    report.note("group_commit", 1);
    report.note("recover_ms", recover_ms);
    Ok(report)
}
