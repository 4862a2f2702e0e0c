//! The parallel batch query engine.
//!
//! A [`BatchExecutor`] fans a workload of validated [`Query`]s across a
//! scoped worker pool over **one shared index**. This is the serving shape
//! the paper's structures exist for: filter-step throughput over many
//! concurrent requests, not single-query latency. It builds directly on
//! the two guarantees the rest of the crate provides:
//!
//! * query execution is read-only on the index (`&self` end-to-end), so a
//!   `Sync` backend can be shared by reference across threads — the
//!   in-memory [`crate::UTree`], the disk-backed [`crate::DiskUTree`]
//!   behind its latched buffer pool, [`crate::UPcrTree`] and
//!   [`crate::SeqScan`] all qualify;
//! * all per-query mutable state lives in a [`QueryCtx`], one per worker,
//!   and every candidate seeds its own refinement RNG from the query's
//!   seed and its id — so results (matches,
//!   provenance, per-query cost counters) are **byte-identical** to a
//!   sequential run, whatever the thread count or scheduling.
//!
//! Workers pull queries off a shared atomic cursor (work stealing by
//! construction: an expensive query never blocks the rest of the batch
//! behind one thread), and outcomes are returned in workload order. That
//! pool is `fan_out`, the only place this crate spawns threads:
//! [`crate::service::QueryService::serve`] runs heterogeneous requests
//! against a catalog on the same function.
//!
//! ```
//! use utree::engine::BatchExecutor;
//! use utree::{ProbIndex, Query, Refine, UTree};
//! use uncertain_geom::{Point, Rect};
//! use uncertain_pdf::{ObjectPdf, UncertainObject};
//!
//! let mut tree = UTree::<2>::builder().uniform_catalog(6).build()?;
//! for id in 0..32 {
//!     tree.insert(&UncertainObject::new(
//!         id,
//!         ObjectPdf::UniformBall {
//!             center: Point::new([id as f64 * 30.0, 500.0]),
//!             radius: 20.0,
//!         },
//!     ));
//! }
//! let queries: Vec<_> = (0..8)
//!     .map(|i| {
//!         Query::range(Rect::cube(&Point::new([i as f64 * 120.0, 500.0], ), 200.0))
//!             .threshold(0.5)
//!             .refine(Refine::reference(1e-8))
//!             .build()
//!     })
//!     .collect::<Result<_, _>>()?;
//!
//! let batch = BatchExecutor::new(4).run(&tree, &queries);
//! assert_eq!(batch.outcomes.len(), queries.len());
//! // Identical to the sequential run, in order and in content:
//! let seq = BatchExecutor::run_sequential(&tree, &queries);
//! for (p, s) in batch.outcomes.iter().zip(&seq.outcomes) {
//!     assert_eq!(p.matches, s.matches);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::api::{sealed, ProbIndex, Query, QueryOutcome, RankOutcome, RankQuery};
use crate::query::{QueryCtx, QueryStats};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The crate's one worker pool: fans `items` across `workers` scoped
/// threads (shared atomic cursor, one reused [`QueryCtx`] per worker) and
/// returns the outputs in input order. [`BatchExecutor`] batches and
/// [`crate::service::QueryService::serve`] both run on it. With one worker
/// (or none — an empty batch) the loop runs on the calling thread and
/// nothing is spawned.
///
/// A panic inside `f` is caught per item: the worker keeps draining the
/// cursor (so every item is claimed exactly once and no sibling worker's
/// finished output is torn down mid-batch), and the *original* payload of
/// the first panic in input order is re-raised after all workers join.
/// Without the per-item catch, one bad query would unwind its worker
/// thread and turn the whole batch into a generic "worker panicked" join
/// failure.
pub(crate) fn fan_out<Q, T, F>(workers: usize, items: &[Q], f: F) -> Vec<T>
where
    Q: Sync,
    T: Send,
    F: Fn(&Q, &mut QueryCtx) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    type Caught<T> = Result<T, Box<dyn std::any::Any + Send + 'static>>;
    let drain = || {
        let mut ctx = QueryCtx::new();
        let mut local: Vec<(usize, Caught<T>)> = Vec::new();
        loop {
            // ordering: Relaxed suffices — the fetch_add itself hands out
            // each index exactly once, and the scope join publishes the
            // results.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break;
            };
            let out = catch_unwind(AssertUnwindSafe(|| f(item, &mut ctx)));
            if out.is_err() {
                // The context may hold half-built query state; start the
                // next item fresh.
                ctx = QueryCtx::new();
            }
            local.push((i, out));
        }
        local
    };
    let mut outputs = if workers <= 1 {
        drain()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
            handles
                .into_iter()
                // xlint: allow(panic-freedom) -- invariant: batch worker panicked
                .flat_map(|h| h.join().expect("batch worker panicked"))
                .collect()
        })
    };
    // The cursor hands out each index exactly once, so sorting by index
    // restores input order — and makes "first" panic mean first in it.
    assert_eq!(outputs.len(), items.len(), "an item went unclaimed");
    outputs.sort_unstable_by_key(|&(i, _)| i);
    outputs
        .into_iter()
        .map(|(_, out)| out.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// Executes batches of queries over one shared index with a fixed number
/// of workers (scoped threads; no queries outlive the call). A query that
/// panics does not tear the batch down mid-flight: the rest of the batch
/// is drained, then the first panic is re-raised with its own payload.
///
/// Construction is cheap and the executor is reusable; it holds no state
/// beyond the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchExecutor {
    workers: usize,
}

impl Default for BatchExecutor {
    /// One worker per available CPU (at least one).
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(workers)
    }
}

impl BatchExecutor {
    /// An executor with exactly `workers` worker threads (>= 1).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "batch executor needs at least one worker");
        Self { workers }
    }

    /// Runs `queries` against the shared `index`, returning outcomes in
    /// workload order plus the merged cost counters.
    ///
    /// Requires `I: Sync` — the compiler's proof that sharing `&index`
    /// across the workers is sound. For a backend that is not `Sync`
    /// (e.g. a custom thread-bound store), use
    /// [`BatchExecutor::run_sequential`], which places no such bound.
    /// With one worker (or fewer than two queries) no threads are spawned.
    pub fn run<const D: usize, I>(&self, index: &I, queries: &[Query<D>]) -> BatchOutcome
    where
        I: ProbIndex<D> + Sync + ?Sized,
    {
        self.run_batch(queries, |q, ctx| index.execute_with(q, ctx))
    }

    /// Runs a batch of **top-k ranking queries** against the shared
    /// `index`, returning outcomes in workload order plus the merged cost
    /// counters — the ranking twin of [`BatchExecutor::run`], with the
    /// same guarantees: per-worker contexts carry all mutable state, and
    /// the per-object refinement seeding makes every answer independent
    /// of scheduling.
    pub fn run_ranked<const D: usize, I>(
        &self,
        index: &I,
        queries: &[RankQuery<D>],
    ) -> RankBatchOutcome
    where
        I: ProbIndex<D> + Sync + ?Sized,
    {
        self.run_batch(queries, |q, ctx| index.rank_topk_with(q, ctx))
    }

    /// Runs a ranking batch on the calling thread, in order, with one
    /// reused context — the baseline [`BatchExecutor::run_ranked`] is
    /// verified against, available for non-`Sync` backends.
    pub fn run_ranked_sequential<const D: usize, I>(
        index: &I,
        queries: &[RankQuery<D>],
    ) -> RankBatchOutcome
    where
        I: ProbIndex<D> + ?Sized,
    {
        Self::run_batch_sequential(queries, |q, ctx| index.rank_topk_with(q, ctx))
    }

    /// Runs the batch on the calling thread, in order, with one reused
    /// context — the fallback for non-`Sync` backends and the baseline the
    /// parallel path is verified against. Available without constructing
    /// an executor.
    pub fn run_sequential<const D: usize, I>(index: &I, queries: &[Query<D>]) -> BatchOutcome
    where
        I: ProbIndex<D> + ?Sized,
    {
        Self::run_batch_sequential(queries, |q, ctx| index.execute_with(q, ctx))
    }

    fn run_batch<Q, O, F>(&self, items: &[Q], exec: F) -> Batch<O>
    where
        Q: Sync,
        O: Outcome + Send,
        F: Fn(&Q, &mut QueryCtx) -> O + Sync,
    {
        let workers = self.workers.min(items.len()).max(1);
        let t0 = Instant::now();
        let outcomes = fan_out(workers, items, exec);
        Batch::assemble(outcomes, workers, t0.elapsed().as_nanos())
    }

    fn run_batch_sequential<Q, O: Outcome>(
        items: &[Q],
        exec: impl Fn(&Q, &mut QueryCtx) -> O,
    ) -> Batch<O> {
        let t0 = Instant::now();
        let mut ctx = QueryCtx::new();
        let outcomes = items.iter().map(|q| exec(q, &mut ctx)).collect();
        Batch::assemble(outcomes, 1, t0.elapsed().as_nanos())
    }
}

/// What a [`Batch`] needs from one query's outcome. Sealed: the two
/// outcome kinds are [`QueryOutcome`] and [`RankOutcome`].
pub trait Outcome: sealed::Sealed {
    /// The query's cost counters.
    fn stats(&self) -> &QueryStats;
    /// True when both outcomes hold exactly the same matches (ids,
    /// provenance or rank order, probabilities).
    fn same_answer(&self, other: &Self) -> bool;
}

impl Outcome for QueryOutcome {
    fn stats(&self) -> &QueryStats {
        &self.stats
    }
    fn same_answer(&self, other: &Self) -> bool {
        self.matches == other.matches
    }
}

impl Outcome for RankOutcome {
    fn stats(&self) -> &QueryStats {
        &self.stats
    }
    fn same_answer(&self, other: &Self) -> bool {
        self.matches == other.matches
    }
}

/// Result of one batch run: the per-query outcomes (in workload order) and
/// the workload-level aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch<O> {
    /// One outcome per input query, in input order.
    pub outcomes: Vec<O>,
    /// All per-query [`QueryStats`] merged (`+=`), including the
    /// `visited` counter. The timing fields sum *CPU-side* work across
    /// workers and therefore exceed wall-clock under parallelism; use
    /// [`Batch::wall_nanos`] for elapsed time.
    pub stats: QueryStats,
    /// Workers the batch actually used.
    pub workers: usize,
    /// Wall-clock nanoseconds for the whole batch.
    pub wall_nanos: u128,
}

/// Result of one range-query batch: a [`Batch`] of [`QueryOutcome`]s.
pub type BatchOutcome = Batch<QueryOutcome>;

/// Result of one ranking batch: a [`Batch`] of [`RankOutcome`]s.
pub type RankBatchOutcome = Batch<RankOutcome>;

impl<O: Outcome> Batch<O> {
    fn assemble(outcomes: Vec<O>, workers: usize, wall_nanos: u128) -> Self {
        let mut stats = QueryStats::default();
        for o in &outcomes {
            stats += o.stats();
        }
        Self {
            outcomes,
            stats,
            workers,
            wall_nanos,
        }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Aggregate throughput in queries per second: `NaN` for an empty
    /// batch (no throughput to speak of — and `0.0` would read as a
    /// catastrophic regression to a qps floor), with the wall clock
    /// clamped to ≥ 1 ns so a sub-nanosecond reading cannot divide to
    /// infinity — so the result is finite exactly when the batch ran at
    /// least one query.
    pub fn queries_per_sec(&self) -> f64 {
        queries_per_sec(self.outcomes.len(), self.wall_nanos)
    }

    /// True when this batch did exactly the same work as `other` and
    /// produced exactly the same answers: per-query matches (ids,
    /// provenance or rank, probabilities) and per-query count statistics
    /// all equal, wall-clock ignored. The equivalence the executor
    /// guarantees between parallel and sequential runs of one workload.
    pub fn same_results(&self, other: &Self) -> bool {
        self.outcomes.len() == other.outcomes.len()
            && self
                .outcomes
                .iter()
                .zip(&other.outcomes)
                .all(|(a, b)| a.same_answer(b) && a.stats().same_counts(b.stats()))
    }
}

/// `served` queries over `wall_nanos` as a rate: `NaN` when nothing was
/// served, the wall clock clamped to ≥ 1 ns otherwise (see
/// [`Batch::queries_per_sec`]).
pub(crate) fn queries_per_sec(served: usize, wall_nanos: u128) -> f64 {
    if served == 0 {
        return f64::NAN;
    }
    served as f64 * 1e9 / wall_nanos.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Refine;
    use crate::seqscan::SeqScan;
    use crate::tree::UTree;
    use crate::upcr::UPcrTree;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uncertain_geom::{Point, Rect};
    use uncertain_pdf::{ObjectPdf, UncertainObject};

    fn dataset(n: usize, seed: u64) -> Vec<UncertainObject<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|id| {
                UncertainObject::new(
                    id,
                    ObjectPdf::UniformBall {
                        center: Point::new([
                            rng.gen_range(300.0..9700.0),
                            rng.gen_range(300.0..9700.0),
                        ]),
                        radius: rng.gen_range(50.0..250.0),
                    },
                )
            })
            .collect()
    }

    fn workload(n: usize, seed: u64, refine: Refine) -> Vec<Query<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let c = Point::new([rng.gen_range(500.0..9500.0), rng.gen_range(500.0..9500.0)]);
                Query::range(Rect::cube(&c, rng.gen_range(300.0..1800.0)))
                    .threshold(rng.gen_range(0.05..0.95))
                    .refine(refine)
                    .build()
                    .expect("valid query")
            })
            .collect()
    }

    #[test]
    fn indexes_are_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<UTree<2>>();
        assert_sync::<UPcrTree<2>>();
        assert_sync::<SeqScan<2>>();
        assert_sync::<crate::DiskUTree<2>>();
        assert_sync::<crate::DiskUPcrTree<2>>();
    }

    #[test]
    fn parallel_equals_sequential_on_every_backend() {
        let objs = dataset(300, 5);
        let queries = workload(24, 9, Refine::reference(1e-8));

        let mut utree = UTree::<2>::builder().uniform_catalog(8).build().unwrap();
        let mut upcr = UPcrTree::<2>::builder().uniform_catalog(8).build().unwrap();
        let mut scan = SeqScan::<2>::builder().uniform_catalog(8).build().unwrap();
        utree.bulk_load(&objs);
        upcr.bulk_load(&objs);
        scan.bulk_load(&objs);

        let exec = BatchExecutor::new(4);
        for index in [
            &utree as &(dyn ProbIndex<2> + Sync),
            &upcr as &(dyn ProbIndex<2> + Sync),
            &scan as &(dyn ProbIndex<2> + Sync),
        ] {
            let par = exec.run(index, &queries);
            let seq = BatchExecutor::run_sequential(index, &queries);
            assert!(par.same_results(&seq), "parallel diverged from sequential");
            assert!(par.stats.same_counts(&seq.stats), "merged stats diverged");
            assert_eq!(par.len(), queries.len());
        }
    }

    #[test]
    fn monte_carlo_refinement_is_schedule_independent() {
        // Every candidate seeds its own RNG from (query seed, object id),
        // which is what makes this hold: identical estimates whichever
        // worker runs the query.
        let objs = dataset(120, 21);
        let mut tree = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
        tree.bulk_load(&objs);
        let queries = workload(12, 33, Refine::monte_carlo(20_000, 0xBEEF));
        let par = BatchExecutor::new(3).run(&tree, &queries);
        let seq = BatchExecutor::run_sequential(&tree, &queries);
        assert!(par.same_results(&seq));
        // Spot-check that refined probabilities (f64s out of the sampler)
        // are bit-equal, not merely close.
        for (p, s) in par.outcomes.iter().zip(&seq.outcomes) {
            assert_eq!(p.matches, s.matches);
        }
    }

    #[test]
    fn merged_stats_sum_the_workload() {
        let objs = dataset(150, 2);
        let mut tree = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
        tree.bulk_load(&objs);
        let queries = workload(10, 3, Refine::reference(1e-7));
        let batch = BatchExecutor::new(2).run(&tree, &queries);
        let mut manual = QueryStats::default();
        for o in &batch.outcomes {
            manual += &o.stats;
        }
        assert_eq!(batch.stats, manual);
        assert_eq!(
            batch.stats.visited,
            batch.outcomes.iter().map(|o| o.stats.visited).sum::<u64>(),
            "visited must merge like every other counter"
        );
    }

    #[test]
    fn degenerate_batches_run_without_threads() {
        let tree = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
        let empty: Vec<Query<2>> = Vec::new();
        let out = BatchExecutor::new(8).run(&tree, &empty);
        assert!(out.is_empty());
        assert_eq!(out.stats, QueryStats::default());
        let one = workload(1, 1, Refine::reference(1e-7));
        let out = BatchExecutor::new(8).run(&tree, &one);
        assert_eq!(out.len(), 1);
        assert_eq!(out.workers, 1, "a single query needs a single worker");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = BatchExecutor::new(0);
    }

    #[test]
    fn fan_out_resurfaces_the_original_panic_and_drains_the_batch() {
        use std::sync::atomic::AtomicUsize;

        let items: Vec<usize> = (0..64).collect();
        let attempted = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            fan_out(4, &items, |&i, _ctx| {
                attempted.fetch_add(1, Ordering::SeqCst);
                if i == 13 {
                    panic!("query 13 exploded");
                }
                i * 2
            })
        }));
        let payload = result.expect_err("the batch must fail when a query panics");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("query 13 exploded"),
            "the original panic payload must resurface, not a join error"
        );
        assert_eq!(
            attempted.load(Ordering::SeqCst),
            items.len(),
            "workers must keep draining the cursor past a panicking item"
        );
    }

    #[test]
    fn fan_out_reports_the_first_panic_of_several() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            fan_out(2, &items, |&i, _ctx| {
                if i % 3 == 1 {
                    panic!("boom");
                }
                i
            })
        }));
        let payload = result.expect_err("panicking batch must fail");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom"));
    }

    #[test]
    fn queries_per_sec_is_nan_on_empty_and_finite_otherwise() {
        let tree = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
        let empty = BatchExecutor::new(2).run(&tree, &[]);
        assert!(empty.queries_per_sec().is_nan(), "empty batch must be NaN");

        // A sub-nanosecond wall reading must clamp, not divide to inf.
        let one = workload(1, 7, Refine::reference(1e-7));
        let mut batch = BatchExecutor::run_sequential(&tree, &one);
        batch.wall_nanos = 0;
        let qps = batch.queries_per_sec();
        assert!(qps.is_finite(), "clamped qps must be finite, got {qps}");
        assert_eq!(qps, 1e9);

        let ranked_empty = RankBatchOutcome::assemble(Vec::new(), 1, 0);
        assert!(ranked_empty.queries_per_sec().is_nan());
        let ranked = RankBatchOutcome {
            outcomes: vec![RankOutcome {
                matches: Vec::new(),
                stats: QueryStats::default(),
            }],
            stats: QueryStats::default(),
            workers: 1,
            wall_nanos: 0,
        };
        assert!(ranked.queries_per_sec().is_finite());
    }
}
