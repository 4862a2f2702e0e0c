//! Prob-range queries, execution statistics and the shared refinement step.

use crate::object_codec::decode_object;
use page_store::{ObjectHeap, PageId, PageStore, RecordAddr};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io;
use std::ops::AddAssign;
use uncertain_geom::Rect;
use uncertain_pdf::{appearance_reference, MonteCarlo, PreparedPdf, RefineScratch};

/// How candidate appearance probabilities are evaluated in the refinement
/// step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Refine {
    /// The paper's Monte-Carlo estimator (Eq. 3) with a deterministic
    /// seed. Every object draws from its own stream, derived from the seed
    /// and the object's id, so its estimate does not depend on the backend,
    /// the traversal order or the thread.
    ///
    /// A range query needs only the decision `P ≥ p_q`, so a candidate
    /// stops sampling once a distribution-free confidence bound separates
    /// its estimate from `p_q` (wrong with probability ≤ 10⁻⁹; see
    /// [`MonteCarlo::decide_with`]); a top-k query ranks by the
    /// probability itself and always draws n₁.
    MonteCarlo {
        /// Samples per candidate: the cap for a range query, the count for
        /// a top-k query (the paper settles on 10⁶; Sec 6.1).
        n1: usize,
        /// Seed for reproducible runs.
        seed: u64,
    },
    /// Deterministic quadrature (exact for uniform/histogram objects) —
    /// used by correctness tests and fast benchmark runs.
    Reference {
        /// Quadrature tolerance.
        tol: f64,
    },
}

impl Refine {
    /// The paper's Monte-Carlo estimator with `n1` samples and a seed.
    pub fn monte_carlo(n1: usize, seed: u64) -> Self {
        Refine::MonteCarlo { n1, seed }
    }

    /// Deterministic quadrature with the given tolerance. The builders
    /// accept only a finite `tol > 0`; anything else is
    /// [`crate::IndexError::InvalidTolerance`].
    pub fn reference(tol: f64) -> Self {
        Refine::Reference { tol }
    }
}

impl Default for Refine {
    fn default() -> Self {
        Refine::MonteCarlo {
            n1: 1_000_000,
            seed: 0xC0FFEE,
        }
    }
}

/// Cost counters for one query (the paper's evaluation metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Index node pages read (Fig 9/10 "number of node accesses").
    pub node_reads: u64,
    /// Heap pages read during refinement (grouped: one I/O per page).
    pub heap_reads: u64,
    /// Appearance probabilities computed (Fig 9/10 "# of prob.
    /// computations").
    pub prob_computations: u64,
    /// Leaf entries inspected by the filter step
    /// (`pruned + validated + candidates`).
    pub visited: u64,
    /// Leaf entries pruned by the filter rules.
    pub pruned: u64,
    /// Results certified without probability computation.
    pub validated: u64,
    /// Entries that required refinement.
    pub candidates: u64,
    /// Final result count.
    pub results: u64,
    /// Monte-Carlo samples actually drawn during refinement: none for an
    /// estimate that short-circuits, fewer than n₁ for a range candidate
    /// decided early. Together with `refine_nanos` this makes the
    /// refinement cost attributable as nanoseconds **per sample**, a
    /// machine-scaled figure the bench gates can compare across runs.
    pub refined_samples: u64,
    /// Wall-clock nanoseconds in the filter step.
    pub filter_nanos: u128,
    /// Wall-clock nanoseconds in the refinement step.
    pub refine_nanos: u128,
}

impl QueryStats {
    /// Total page accesses (index + heap).
    pub fn total_io(&self) -> u64 {
        self.node_reads + self.heap_reads
    }

    /// Fraction of qualifying objects reported without probability
    /// computation (the percentages annotated in Fig 9/10).
    pub fn directly_reported_fraction(&self) -> f64 {
        if self.results == 0 {
            return 0.0;
        }
        self.validated as f64 / self.results as f64
    }

    /// `true` when every *count* field matches `other` — the timing fields
    /// (`filter_nanos`, `refine_nanos`) are ignored. This is the right
    /// equality for comparing a parallel run against a sequential one:
    /// work done is deterministic, wall-clock is not.
    pub fn same_counts(&self, other: &QueryStats) -> bool {
        // Whole-struct equality with the clocks zeroed, so a counter added
        // to QueryStats later is compared automatically instead of being
        // silently excluded.
        let strip = |s: &QueryStats| QueryStats {
            filter_nanos: 0,
            refine_nanos: 0,
            ..*s
        };
        strip(self) == strip(other)
    }
}

impl AddAssign<&QueryStats> for QueryStats {
    fn add_assign(&mut self, other: &QueryStats) {
        self.node_reads += other.node_reads;
        self.heap_reads += other.heap_reads;
        self.prob_computations += other.prob_computations;
        self.visited += other.visited;
        self.pruned += other.pruned;
        self.validated += other.validated;
        self.candidates += other.candidates;
        self.results += other.results;
        self.refined_samples += other.refined_samples;
        self.filter_nanos += other.filter_nanos;
        self.refine_nanos += other.refine_nanos;
    }
}

impl AddAssign<QueryStats> for QueryStats {
    fn add_assign(&mut self, other: QueryStats) {
        *self += &other;
    }
}

/// Reusable per-query scratch state: the cost counters of the query being
/// executed, the result/candidate buffers the filter step fills, and the
/// traversal stack.
///
/// This is the mutable half of query execution. The indexes themselves are
/// only ever *read* during a query (`&self` end-to-end), so one shared
/// index can serve any number of concurrent queries — each carrying its
/// own `QueryCtx`. A context is cheap to create, but reusing one per
/// thread (as [`crate::QueryService`]'s workers do) amortises the buffer
/// allocations across a whole workload.
///
/// No Monte-Carlo generator lives here: every candidate seeds its own
/// from the query's [`Refine`] seed and its id, which is what makes
/// results byte-identical however queries are scheduled across threads.
#[derive(Debug, Default)]
pub struct QueryCtx {
    /// Cost counters of the current query (zeroed when execution begins).
    pub stats: QueryStats,
    /// Ids validated for free by the filter step.
    pub(crate) validated: Vec<u64>,
    /// Entries the filter could not decide; input to refinement, which
    /// sorts them by heap page.
    pub(crate) candidates: Vec<(RecordAddr, u64)>,
    /// Refinement qualifiers: id, computed probability, samples behind it.
    pub(crate) refined: Vec<(u64, f64, usize)>,
    /// Tree-traversal stack (reused by [`rstar_base::RStarTreeBase::visit_with`]).
    pub(crate) stack: Vec<(PageId, usize)>,
    /// Best-first ranking frontier (nodes and undecided objects, keyed by
    /// upper probability bound).
    pub(crate) frontier: std::collections::BinaryHeap<crate::rank::RankItem>,
    /// Lower bounds of objects currently in the frontier, keyed
    /// `(lb_bits, id)` so the k-th best bound is an ordered lookup.
    pub(crate) pending: std::collections::BTreeSet<(u64, u64)>,
    /// Exact ranking results so far (sorted descending, capped at k).
    pub(crate) ranked: Vec<crate::api::RankedMatch>,
    /// Distinct heap pages touched by one-at-a-time refinement (sorted).
    pub(crate) heap_pages: Vec<PageId>,
    /// The Monte-Carlo kernel's running sample count
    /// ([`uncertain_pdf::kernel`] keeps no buffers): refinement charges
    /// each candidate the delta. Not cleared by [`QueryCtx::begin`] — only
    /// deltas are read.
    pub(crate) scratch: RefineScratch,
}

impl QueryCtx {
    /// A fresh context with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets per-query state (stats and buffers) while keeping the buffer
    /// capacity from earlier queries. Every backend calls this on entry to
    /// `try_execute_with` / `try_rank_topk_with`.
    pub(crate) fn begin(&mut self) {
        self.stats = QueryStats::default();
        self.validated.clear();
        self.candidates.clear();
        self.refined.clear();
        self.stack.clear();
        self.frontier.clear();
        self.pending.clear();
        self.ranked.clear();
        self.heap_pages.clear();
    }
}

/// The per-object Monte-Carlo seed.
///
/// A best-first ranking refines objects one at a time in a bound-dependent
/// order that legitimately differs between backends, and a range candidate
/// stops sampling wherever its own estimate clears `p_q`. Deriving each
/// object's stream from `(seed, id)` makes its estimate a pure function of
/// the query — identical on every backend, in any traversal order, on any
/// thread.
pub(crate) fn refine_seed(seed: u64, id: u64) -> u64 {
    seed ^ splitmix64(id)
}

/// The SplitMix64 output function: a bijective bit mixer on `u64`. Shard
/// routing ([`crate::shard::shard_of`]) hashes ids with it, so its values
/// are persistent format.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A candidate whose heap record is gone cannot be refined, and skipping
/// it would be a false dismissal: the index and its heap disagree.
fn missing_record(page: PageId, slot: u16) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("candidate addr {page}/{slot} missing from heap"),
    )
}

/// Appearance probability of the object in heap record `bytes` under
/// `mode`, with the Monte-Carlo samples it took (0 in `Reference` mode).
/// With a threshold the estimate is only as good as the decision against
/// it needs ([`MonteCarlo::decide_with`]); without one it is the full-n₁
/// estimate.
fn appearance<const D: usize>(
    bytes: &[u8],
    id: u64,
    rq: &Rect<D>,
    threshold: Option<f64>,
    mode: Refine,
    scratch: &mut RefineScratch,
) -> (f64, usize) {
    let obj = decode_object::<D>(bytes);
    debug_assert_eq!(obj.id, id, "heap record id mismatch");
    match mode {
        Refine::MonteCarlo { n1, seed } => {
            let mut rng = SmallRng::seed_from_u64(refine_seed(seed, id));
            let prepared = PreparedPdf::new(&obj.pdf);
            let mc = MonteCarlo::new(n1);
            match threshold {
                Some(pq) => mc.decide_with(&prepared, rq, pq, &mut rng, scratch),
                None => {
                    let before = scratch.samples();
                    let p = mc.estimate_with(&prepared, rq, &mut rng, scratch);
                    (p, (scratch.samples() - before) as usize)
                }
            }
        }
        Refine::Reference { tol } => (appearance_reference(&obj.pdf, rq, tol), 0),
    }
}

/// Refines a single candidate for ranking: loads its heap record, computes
/// the appearance probability under `mode` (always the full-n₁ estimate —
/// stopping against a moving k-th bound would make a probability depend on
/// the traversal), and charges the ranking cost model (`prob_computations`
/// per call; `heap_reads` counts *distinct* pages touched this query,
/// tracked in `ctx.heap_pages`). Returns the probability and its samples.
pub(crate) fn refine_one<const D: usize, S: PageStore>(
    heap: &ObjectHeap<S>,
    addr: RecordAddr,
    id: u64,
    rq: &Rect<D>,
    mode: Refine,
    ctx: &mut QueryCtx,
) -> io::Result<(f64, usize)> {
    let t0 = std::time::Instant::now();
    if let Err(at) = ctx.heap_pages.binary_search(&addr.page) {
        ctx.heap_pages.insert(at, addr.page);
        ctx.stats.heap_reads += 1;
    }
    let bytes = heap
        .get(addr)?
        .ok_or_else(|| missing_record(addr.page, addr.slot))?;
    let (p, samples) = appearance(&bytes, id, rq, None, mode, &mut ctx.scratch);
    ctx.stats.refined_samples += samples as u64;
    ctx.stats.prob_computations += 1;
    ctx.stats.refine_nanos += t0.elapsed().as_nanos();
    Ok((p, samples))
}

/// The refinement step of Sec 5.2 over the candidates a context's filter
/// step collected: candidates are stably sorted by heap page in place;
/// each page is loaded once; every candidate's appearance probability is
/// evaluated as far as the comparison with `p_q` needs. Qualifiers are appended to the
/// context's `refined` buffer with the probability computed for them and
/// the samples behind it, and its stats charged.
pub(crate) fn refine_ctx<const D: usize, S: PageStore>(
    heap: &ObjectHeap<S>,
    rq: &Rect<D>,
    pq: f64,
    mode: Refine,
    ctx: &mut QueryCtx,
) -> io::Result<()> {
    let QueryCtx {
        stats,
        candidates,
        refined,
        scratch,
        ..
    } = ctx;
    // Stable: each page's candidates keep their filter order.
    candidates.sort_by_key(|(addr, _)| addr.page);
    let qualified0 = refined.len();
    for run in candidates.chunk_by(|(a, _), (b, _)| a.page == b.page) {
        let page = run[0].0.page;
        let records = heap.page_records(page)?;
        stats.heap_reads += 1;
        for &(RecordAddr { slot, .. }, id) in run {
            let (_, bytes) = records
                .iter()
                .find(|(s, _)| *s == slot)
                .ok_or_else(|| missing_record(page, slot))?;
            let (p_app, samples) = appearance(bytes, id, rq, Some(pq), mode, scratch);
            stats.refined_samples += samples as u64;
            stats.prob_computations += 1;
            if p_app >= pq {
                refined.push((id, p_app, samples));
            }
        }
    }
    stats.results += (refined.len() - qualified0) as u64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_codec::encode_object;
    use uncertain_geom::Point;
    use uncertain_pdf::{ObjectPdf, UncertainObject};

    #[test]
    fn refinement_groups_by_page_and_filters_by_threshold() {
        let mut heap = ObjectHeap::new();
        // Two objects: one mostly inside the query, one mostly outside.
        let inside: UncertainObject<2> = UncertainObject::new(
            1,
            ObjectPdf::UniformBox {
                rect: Rect::new([0.0, 0.0], [10.0, 10.0]),
            },
        );
        let outside: UncertainObject<2> = UncertainObject::new(
            2,
            ObjectPdf::UniformBox {
                rect: Rect::new([90.0, 90.0], [110.0, 110.0]),
            },
        );
        let a1 = heap.insert(&encode_object(&inside)).unwrap();
        let a2 = heap.insert(&encode_object(&outside)).unwrap();
        assert_eq!(a1.page, a2.page, "small records share a page");

        let rq = Rect::new([-1.0, -1.0], [9.0, 11.0]); // 90% of obj 1, 0% of 2
        let mut ctx = QueryCtx::new();
        ctx.candidates.extend([(a1, 1), (a2, 2)]);
        refine_ctx(&heap, &rq, 0.5, Refine::Reference { tol: 1e-9 }, &mut ctx).unwrap();
        let got = &ctx.refined;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 1);
        assert!((got[0].1 - 0.9).abs() < 1e-6, "reported p {}", got[0].1);
        assert_eq!(ctx.stats.heap_reads, 1, "grouping must cost a single I/O");
        assert_eq!(ctx.stats.prob_computations, 2);
        assert_eq!(ctx.stats.results, 1);
    }

    #[test]
    fn monte_carlo_mode_agrees_with_reference() {
        let mut heap = ObjectHeap::new();
        let obj: UncertainObject<2> = UncertainObject::new(
            5,
            ObjectPdf::UniformBall {
                center: Point::new([50.0, 50.0]),
                radius: 10.0,
            },
        );
        let a = heap.insert(&encode_object(&obj)).unwrap();
        let rq = Rect::new([40.0, 40.0], [50.0, 60.0]); // left half: P = 0.5
        let n1 = 60_000;
        let mode = Refine::MonteCarlo { n1, seed: 7 };
        // Far thresholds are decided on a fraction of the budget, close
        // ones spend more of it; the stats count what was drawn.
        let mut spent = Vec::new();
        for (pq, expect_hit) in [(0.1, true), (0.45, true), (0.55, false), (0.9, false)] {
            let mut ctx = QueryCtx::new();
            ctx.candidates.push((a, 5));
            refine_ctx(&heap, &rq, pq, mode, &mut ctx).unwrap();
            assert_eq!(ctx.refined.len() == 1, expect_hit, "pq={pq}");
            if let Some(&(_, _, samples)) = ctx.refined.first() {
                assert_eq!(samples as u64, ctx.stats.refined_samples);
            }
            spent.push(ctx.stats.refined_samples);
        }
        assert!(spent[0] < spent[1] && spent[3] < spent[2], "{spent:?}");
        assert!(spent.iter().all(|&s| s > 0 && s < n1 as u64), "{spent:?}");
        // Ranking has no threshold to stop against: the full budget.
        let mut ctx = QueryCtx::new();
        let (p, samples) = refine_one(&heap, a, 5, &rq, mode, &mut ctx).unwrap();
        assert!((p - 0.5).abs() < 0.02, "p {p}");
        assert_eq!((samples, ctx.stats.refined_samples), (n1, n1 as u64));
    }

    #[test]
    fn a_candidate_missing_from_its_heap_page_is_an_error() {
        // Regression: release builds used to skip the candidate (a false
        // dismissal) or rank it with p = 0.
        let mut heap = ObjectHeap::new();
        let obj = |id| -> UncertainObject<2> {
            UncertainObject::new(
                id,
                ObjectPdf::UniformBox {
                    rect: Rect::new([0.0, 0.0], [10.0, 10.0]),
                },
            )
        };
        let kept = heap.insert(&encode_object(&obj(1))).unwrap();
        let gone = heap.insert(&encode_object(&obj(2))).unwrap();
        heap.remove(gone).unwrap();
        let rq = Rect::new([-1.0, -1.0], [9.0, 11.0]);
        let mode = Refine::monte_carlo(100, 3);

        let mut ctx = QueryCtx::new();
        ctx.candidates.extend([(kept, 1), (gone, 2)]);
        let err = refine_ctx(&heap, &rq, 0.5, mode, &mut ctx).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("missing from heap"), "{err}");

        let err = refine_one(&heap, gone, 2, &rq, mode, &mut ctx).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(matches!(
            crate::IndexError::from(err),
            crate::IndexError::Io { .. }
        ));
    }

    #[test]
    fn per_object_ranking_seeds_are_pinned() {
        // splitmix64(0) is the reference SplitMix64 stream's first output.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(refine_seed(0xCAFE, 42), 0xBDD7_3226_2FEB_A46B);
        assert_eq!(refine_seed(7, 9999), 0x54E4_AD0E_266A_9E12);
    }

    #[test]
    fn stats_accumulate_via_add_assign() {
        let mut a = QueryStats {
            node_reads: 5,
            heap_reads: 1,
            prob_computations: 2,
            ..Default::default()
        };
        let b = QueryStats {
            node_reads: 3,
            validated: 4,
            results: 4,
            ..Default::default()
        };
        a += &b;
        assert_eq!(a.node_reads, 8);
        assert_eq!(a.validated, 4);
        assert_eq!(a.total_io(), 9);
        // By-value and by-reference accumulation are the same operation.
        let mut c = QueryStats::default();
        c += b;
        let mut d = QueryStats::default();
        d += &b;
        assert_eq!(c, d);
    }

    #[test]
    fn add_assign_merges_every_counter() {
        // Stamp every field with a distinct value; a future field added to
        // QueryStats but forgotten in AddAssign will fail the whole-struct
        // equality below.
        let unit = QueryStats {
            node_reads: 1,
            heap_reads: 2,
            prob_computations: 3,
            visited: 4,
            pruned: 5,
            validated: 6,
            candidates: 7,
            results: 8,
            refined_samples: 9,
            filter_nanos: 10,
            refine_nanos: 11,
        };
        let mut acc = unit;
        acc += &unit;
        let expect = QueryStats {
            node_reads: 2,
            heap_reads: 4,
            prob_computations: 6,
            visited: 8,
            pruned: 10,
            validated: 12,
            candidates: 14,
            results: 16,
            refined_samples: 18,
            filter_nanos: 20,
            refine_nanos: 22,
        };
        assert_eq!(acc, expect);
        assert!(acc.same_counts(&expect));
        // same_counts ignores wall-clock, nothing else.
        let mut slower = expect;
        slower.refine_nanos += 1_000;
        assert!(acc.same_counts(&slower));
        let mut busier = expect;
        busier.visited += 1;
        assert!(!acc.same_counts(&busier));
    }

    #[test]
    fn stats_equality_derives() {
        assert_eq!(QueryStats::default(), QueryStats::default());
        assert_eq!(
            Refine::monte_carlo(10, 3),
            Refine::MonteCarlo { n1: 10, seed: 3 }
        );
        assert_ne!(Refine::reference(1e-6), Refine::reference(1e-7));
    }

    #[test]
    fn directly_reported_fraction() {
        let s = QueryStats {
            validated: 9,
            results: 10,
            ..Default::default()
        };
        assert!((s.directly_reported_fraction() - 0.9).abs() < 1e-12);
        assert_eq!(QueryStats::default().directly_reported_fraction(), 0.0);
    }
}
