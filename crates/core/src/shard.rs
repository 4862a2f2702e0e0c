//! Hash-sharding one logical dataset across several physical trees, with
//! scatter-gather query execution.
//!
//! A [`ShardedIndex`] owns `n` disjoint [`UTree`]s and routes every object
//! to exactly one of them by a stable hash of its id
//! ([`shard_of`]). Queries scatter across all shards and gather one
//! answer:
//!
//! * **range** queries union the per-shard matches into a canonical order
//!   (validated matches by ascending id, then refined matches by
//!   ascending id — see [`canonicalize`]);
//! * **top-k** queries merge the per-shard [`RankedMatch`] streams by the
//!   ranking order (descending probability, ties by ascending id) under a
//!   shared τ cutoff: once `k` merged matches are held, a shard stream is
//!   abandoned at the first element that cannot beat the current k-th
//!   best — the rest of that stream is sorted and can't either.
//!
//! Both answers are **byte-identical to a single unsharded tree** over
//! the same objects, because every per-object decision in the query path
//! is entry-local: validation/pruning and probability bounds come from
//! the object's own CFB payload, and refinement — range and ranking
//! alike — draws from a per-`(seed, id)` stream (see
//! [`crate::query::Refine`]).
//!
//! Per-object provenance and probabilities survive re-partitioning, so
//! shard counts can change offline (rebuild) without changing any answer.
//! Shape-dependent *cost* counters (`node_reads`, `visited`, `pruned`)
//! naturally differ from the oracle's; the entry-local counters
//! (`validated`, `candidates`, `results`, `prob_computations`) sum to
//! exactly the oracle's values.
//!
//! [`ShardedIndex`] implements [`ProbIndex`], so it drops into everything
//! built on the trait: [`crate::service::QueryService`] serving and the
//! fluent query builders.

use crate::api::{
    IndexError, Match, ProbIndex, Provenance, Query, QueryOutcome, RankOutcome, RankQuery,
    RankedMatch,
};
use crate::catalog::UCatalog;
use crate::query::{splitmix64, QueryCtx, QueryStats};
use crate::rank::{push_hit, rank_order};
use crate::tree::{InsertStats, UTree};
use page_store::{PageFile, PageStore};
use rstar_base::TreeConfig;
use std::borrow::Borrow;
use std::cmp::Ordering;
use uncertain_pdf::UncertainObject;

/// The shard an object id routes to: a SplitMix64-style finalizer over the
/// id, reduced modulo the shard count. Stable across processes, platforms
/// and reopens — the routing *is* part of the persistent format once a
/// sharded index is saved.
pub fn shard_of(id: u64, shard_count: usize) -> usize {
    debug_assert!(shard_count > 0);
    (splitmix64(id) % shard_count as u64) as usize
}

/// Rewrites a [`QueryOutcome`]'s matches into the canonical scatter-gather
/// order — validated matches by ascending id, then refined matches by
/// ascending id — without touching stats. Apply to a single-tree oracle's
/// outcome before comparing it byte-for-byte against a sharded answer
/// (the oracle reports matches in its own traversal order).
pub fn canonicalize(mut outcome: QueryOutcome) -> QueryOutcome {
    canonical_sort(&mut outcome.matches);
    outcome
}

/// The canonical scatter-gather order, stated once: validated before
/// refined, ascending id within each (ids are unique, so an unstable sort
/// is deterministic).
fn canonical_sort(matches: &mut [Match]) {
    matches.sort_unstable_by_key(|m| (m.provenance != Provenance::Validated, m.id));
}

/// One logical uncertain-object index partitioned across several physical
/// [`UTree`] shards (see the module docs for the exact answer semantics).
pub struct ShardedIndex<const D: usize, S: PageStore = PageFile> {
    shards: Vec<UTree<D, S>>,
}

impl<const D: usize> ShardedIndex<D, PageFile> {
    /// An empty in-memory sharded index: `shard_count` U-trees over the
    /// same catalog and R* tuning.
    pub fn new(catalog: UCatalog, cfg: TreeConfig, shard_count: usize) -> Self {
        assert!(shard_count >= 1, "a sharded index needs at least one shard");
        Self {
            shards: (0..shard_count)
                .map(|_| UTree::with_config(catalog.clone(), cfg))
                .collect(),
        }
    }
}

impl<const D: usize, S: PageStore> ShardedIndex<D, S> {
    /// Assembles a sharded index from pre-built physical trees (the
    /// catalog's open path; also how a caller shards over custom stores).
    /// Shard order is routing-significant: tree `i` serves
    /// [`shard_of`]`(id, n) == i`.
    pub fn from_trees(shards: Vec<UTree<D, S>>) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded index needs at least one shard"
        );
        Self { shards }
    }

    /// Number of physical shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `id` routes to.
    pub fn shard_for(&self, id: u64) -> usize {
        shard_of(id, self.shards.len())
    }

    /// The physical shard trees, in routing order.
    pub fn shards(&self) -> &[UTree<D, S>] {
        &self.shards
    }

    /// Mutable access for the catalog's commit/checkpoint machinery.
    pub(crate) fn shards_mut(&mut self) -> &mut [UTree<D, S>] {
        &mut self.shards
    }
}

impl<const D: usize, S: PageStore> ProbIndex<D> for ShardedIndex<D, S> {
    fn insert(&mut self, obj: &UncertainObject<D>) -> InsertStats {
        let s = self.shard_for(obj.id);
        self.shards[s].insert(obj)
    }

    fn delete(&mut self, obj: &UncertainObject<D>) -> bool {
        let s = self.shard_for(obj.id);
        self.shards[s].delete(obj)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn index_size_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.index_size_bytes()).sum()
    }

    fn heap_size_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.heap_size_bytes()).sum()
    }

    fn io_counters(&self) -> u64 {
        self.shards.iter().map(|s| s.io_counters()).sum()
    }

    fn reset_io(&self) {
        for s in &self.shards {
            s.reset_io();
        }
    }

    /// Scatter-gather range execution (see module docs for the canonical
    /// merge order). The context is reused across shards; the returned
    /// stats are the sum over shards.
    fn try_execute_with(
        &self,
        query: &Query<D>,
        ctx: &mut QueryCtx,
    ) -> Result<QueryOutcome, IndexError> {
        let mut stats = QueryStats::default();
        let mut matches: Vec<Match> = Vec::new();
        for shard in &self.shards {
            let out = shard.try_execute_with(query, ctx)?;
            stats += &out.stats;
            matches.extend(out.matches);
        }
        canonical_sort(&mut matches);
        Ok(QueryOutcome { matches, stats })
    }

    /// Scatter-gather top-k: every shard answers its local top-k, and the
    /// sorted streams merge under the shared τ cutoff. Correct because an
    /// object in the global top-k is beaten by fewer than `k` objects
    /// globally, hence by fewer than `k` within its own shard — so it is
    /// always present in its shard's local stream.
    fn try_rank_topk_with(
        &self,
        query: &RankQuery<D>,
        ctx: &mut QueryCtx,
    ) -> Result<RankOutcome, IndexError> {
        let k = query.k();
        let mut stats = QueryStats::default();
        let mut matches: Vec<RankedMatch> = Vec::with_capacity(k);
        for shard in &self.shards {
            let out = shard.try_rank_topk_with(query, ctx)?;
            stats += &out.stats;
            for m in out.matches {
                // τ cutoff: once full, the k-th merged match bounds
                // admission. This stream is sorted by the same order, so
                // its first non-admissible element ends it.
                let tau = matches.last().filter(|_| matches.len() == k);
                if tau.is_some_and(|tau| rank_order(&m, tau) != Ordering::Less) {
                    break;
                }
                push_hit(&mut matches, k, m);
            }
        }
        Ok(RankOutcome { matches, stats })
    }

    /// Partitions the load by routing hash, then bulk-loads every shard —
    /// each shard gets the packed STR build when it starts empty.
    fn bulk_load<It>(&mut self, objs: It) -> InsertStats
    where
        It: IntoIterator,
        It::Item: Borrow<UncertainObject<D>>,
    {
        let n = self.shards.len();
        let mut parts: Vec<Vec<It::Item>> = (0..n).map(|_| Vec::new()).collect();
        for obj in objs {
            parts[shard_of(obj.borrow().id, n)].push(obj);
        }
        let mut acc = InsertStats::default();
        for (shard, part) in self.shards.iter_mut().zip(&parts) {
            acc += &shard.bulk_load(part.iter().map(|o| o.borrow()));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Refine;
    use uncertain_geom::{Point, Rect};
    use uncertain_pdf::ObjectPdf;

    fn ball(id: u64, x: f64, y: f64, r: f64) -> UncertainObject<2> {
        UncertainObject::new(
            id,
            ObjectPdf::UniformBall {
                center: Point::new([x, y]),
                radius: r,
            },
        )
    }

    fn dataset(n: u64) -> Vec<UncertainObject<2>> {
        (0..n)
            .map(|i| {
                ball(
                    i,
                    200.0 + (i % 83) as f64 * 110.0,
                    200.0 + ((i * 13) % 71) as f64 * 125.0,
                    30.0 + (i % 7) as f64 * 25.0,
                )
            })
            .collect()
    }

    #[test]
    fn routing_is_stable_and_total() {
        for n in [1usize, 2, 4, 7] {
            for id in 0..500u64 {
                let s = shard_of(id, n);
                assert!(s < n);
                assert_eq!(s, shard_of(id, n), "routing must be deterministic");
            }
        }
        // All shards actually receive load at small counts.
        for n in [2usize, 4, 7] {
            let mut seen = vec![false; n];
            for id in 0..200u64 {
                seen[shard_of(id, n)] = true;
            }
            assert!(seen.iter().all(|&s| s), "degenerate routing for n={n}");
        }
        // The routing is persistent format: pinned against the values saved
        // indexes were partitioned with (per count: six ids, then the
        // id-weighted shard sum over 0..10_000).
        for (n, shards, weighted) in [
            (1usize, [0usize, 0, 0, 0, 0, 0], 0u64),
            (2, [1, 1, 0, 1, 0, 1], 24_868_264),
            (4, [3, 1, 2, 1, 0, 1], 75_847_090),
            (7, [2, 2, 4, 2, 0, 0], 149_981_057),
        ] {
            let ids = [0u64, 1, 2, 3, 1000, 9999];
            assert_eq!(ids.map(|id| shard_of(id, n)), shards, "n={n}");
            let sum: u64 = (0..10_000u64).map(|id| id * shard_of(id, n) as u64).sum();
            assert_eq!(sum, weighted, "n={n}");
        }
    }

    #[test]
    fn sharded_range_answers_match_the_oracle() {
        let objs = dataset(400);
        let mut oracle = UTree::<2>::with_config(UCatalog::uniform(6), TreeConfig::default());
        oracle.bulk_load(&objs);
        let query = Query::range(Rect::new([500.0, 500.0], [6500.0, 6500.0]))
            .threshold(0.3)
            .refine(Refine::reference(1e-8))
            .build()
            .unwrap();
        let expect = canonicalize(oracle.execute(&query));
        assert_eq!(canonicalize(expect.clone()), expect, "not idempotent");

        for n in [1usize, 2, 4, 7] {
            let mut sharded =
                ShardedIndex::<2>::new(UCatalog::uniform(6), TreeConfig::default(), n);
            sharded.bulk_load(&objs);
            assert_eq!(sharded.len(), objs.len());
            let got = sharded.execute(&query);
            assert_eq!(got.matches, expect.matches, "n={n} diverged from oracle");
            // Entry-local counters sum to exactly the oracle's.
            assert_eq!(got.stats.validated, expect.stats.validated);
            assert_eq!(got.stats.candidates, expect.stats.candidates);
            assert_eq!(got.stats.results, expect.stats.results);
            assert_eq!(got.stats.prob_computations, expect.stats.prob_computations);
        }
    }

    #[test]
    fn monte_carlo_answers_are_identical_on_every_backend() {
        // Every object samples from its own (seed, id) stream and stops by
        // its own estimate, so its reported probability cannot depend on
        // which backend, shard or traversal reached it.
        use crate::{SeqScan, UPcrTree};
        use std::collections::BTreeMap;
        let objs = dataset(2_000);
        let query = Query::range(Rect::new([560.0, 430.0], [6470.0, 6380.0]))
            .threshold(0.3)
            .refine(Refine::monte_carlo(4_000, 7))
            .build()
            .unwrap();
        let mut tree = UTree::<2>::with_config(UCatalog::uniform(6), TreeConfig::default());
        tree.bulk_load(&objs);
        let expect = tree.execute(&query);
        // id → `(p bits, samples)` of a refined match, `None` of a validated one.
        let by_id = |o: &QueryOutcome| -> BTreeMap<u64, Option<(u64, usize)>> {
            o.matches.iter().map(|m| (m.id, refined_bits(m))).collect()
        };
        let want = by_id(&expect);
        let drawn: Vec<usize> = want.values().flatten().map(|&(_, s)| s).collect();
        assert!(
            drawn.iter().any(|&s| s < 4_000) && drawn.iter().any(|&s| s > 64),
            "the fixture must stop candidates at different points: {drawn:?}"
        );

        // Same filter, different partitioning: the whole answer is equal,
        // probability bits and sample counts included.
        for n in [1usize, 2, 4, 7] {
            let mut sharded =
                ShardedIndex::<2>::new(UCatalog::uniform(6), TreeConfig::default(), n);
            sharded.bulk_load(&objs);
            let got = sharded.execute(&query);
            assert_eq!(by_id(&got), want, "n={n}");
            assert_eq!(got.stats.refined_samples, expect.stats.refined_samples);
        }

        // Different filters decide different objects for free; what two
        // backends both refine, they refine to the same bits.
        let mut upcr = UPcrTree::<2>::builder().uniform_catalog(6).build().unwrap();
        upcr.bulk_load(&objs);
        let mut scan = SeqScan::<2>::builder().uniform_catalog(6).build().unwrap();
        scan.bulk_load(&objs);
        for (name, got) in [
            ("U-PCR", upcr.execute(&query)),
            ("SeqScan", scan.execute(&query)),
        ] {
            let got = by_id(&got);
            assert!(got.keys().eq(want.keys()), "{name} ids diverged");
            let mut both_refined = 0;
            for (id, g) in &got {
                if let (Some(g), Some(w)) = (g, &want[id]) {
                    assert_eq!(g, w, "{name} refined object {id} differently");
                    both_refined += 1;
                }
            }
            assert!(both_refined > 0, "{name} shared no refined object");
        }
    }

    /// `(p bits, samples)` of a refined match.
    fn refined_bits(m: &Match) -> Option<(u64, usize)> {
        match m.provenance {
            Provenance::Validated => None,
            Provenance::Refined { p, samples } => Some((p.to_bits(), samples)),
        }
    }

    #[test]
    fn sharded_topk_merges_to_the_oracle_answer() {
        let objs = dataset(400);
        let mut oracle = UTree::<2>::with_config(UCatalog::uniform(6), TreeConfig::default());
        oracle.bulk_load(&objs);
        for (k, seed) in [(1usize, 1u64), (10, 7), (25, 99)] {
            let query = Query::range(Rect::new([1000.0, 1000.0], [7000.0, 7000.0]))
                .top(k)
                .refine(Refine::monte_carlo(4_000, seed))
                .build()
                .unwrap();
            let expect = oracle.rank_topk(&query);
            for n in [1usize, 2, 4, 7] {
                let mut sharded =
                    ShardedIndex::<2>::new(UCatalog::uniform(6), TreeConfig::default(), n);
                sharded.bulk_load(&objs);
                let got = sharded.rank_topk(&query);
                assert_eq!(
                    got.matches, expect.matches,
                    "top-{k} n={n} diverged from oracle"
                );
            }
        }
    }

    #[test]
    fn inserts_and_deletes_route_consistently() {
        let objs = dataset(120);
        let mut sharded = ShardedIndex::<2>::new(UCatalog::uniform(6), TreeConfig::default(), 4);
        for o in &objs {
            sharded.insert(o);
        }
        assert_eq!(sharded.len(), 120);
        let per_shard: Vec<_> = sharded.shards().iter().map(|s| s.len()).collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 120);
        assert!(per_shard.iter().all(|&l| l > 0), "all shards should fill");
        for o in objs.iter().take(40) {
            assert!(sharded.delete(o), "routed delete must find its object");
        }
        assert!(!sharded.delete(&ball(9999, 100.0, 100.0, 10.0)));
        assert_eq!(sharded.len(), 80);
    }

    #[test]
    fn sharded_index_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedIndex<2>>();
        assert_send_sync::<ShardedIndex<2, crate::DiskStore>>();
    }
}
