//! The backend-agnostic index API.
//!
//! The paper evaluates three interchangeable access methods — the U-tree,
//! U-PCR and a sequential scan — over one contract: answer probabilistic
//! range queries, charge I/O and probability computations. This module
//! makes that contract a first-class, typed API:
//!
//! * [`ProbIndex`] — the trait all three structures implement
//!   (insert / delete / size / I/O accounting / query execution);
//! * [`Query`] + [`QueryBuilder`] — a fluent, validated query description:
//!   `Query::range(rect).threshold(0.7).refine(Refine::monte_carlo(1_000_000, 7)).run(&tree)?`;
//! * [`QueryOutcome`] — structured results carrying per-object
//!   [`Provenance`] (validated for free vs refined with its estimated
//!   probability) plus the [`QueryStats`] cost counters;
//! * [`IndexBuilder`] — fallible construction shared by every backend:
//!   `UTree::<2>::builder().catalog(UCatalog::uniform(10)).build()?`;
//! * [`IndexError`] — the one error type: invalid catalogs, invalid
//!   query descriptions and storage I/O failures.
//!
//! `docs/API.md` is the guide to this surface.

use crate::catalog::UCatalog;
use crate::query::{QueryCtx, QueryStats, Refine};
use crate::seqscan::SeqScan;
use crate::tree::{FilterPayload, InsertStats, ProbTree, QueryOptions};
use rstar_base::{NodeCodec, MIN_FANOUT};
use std::borrow::Borrow;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use uncertain_geom::Rect;
use uncertain_pdf::UncertainObject;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Every typed failure of the index API: invalid catalogs and builders,
/// invalid query descriptions, and storage I/O.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IndexError {
    /// A catalog needs at least two values.
    CatalogTooSmall {
        /// How many values were supplied.
        len: usize,
    },
    /// Catalog values must be strictly ascending.
    CatalogNotAscending {
        /// First index where `values[index] >= values[index + 1]` fails to
        /// ascend.
        index: usize,
    },
    /// Catalog values must lie in `[0, 0.5]` (Sec 4.2: PCRs are only
    /// defined there; `pcr(p)` for `p > 0.5` would be empty).
    CatalogValueOutOfRange {
        /// Index of the offending value.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The backend's entries grow with the catalog (U-PCR stores every
    /// PCR), and this one makes a node page hold fewer than
    /// [`rstar_base::MIN_FANOUT`] entries.
    CatalogTooLarge {
        /// How many values were supplied.
        len: usize,
        /// The largest catalog length this backend and dimensionality fit.
        max: usize,
    },
    /// The probability threshold must lie in `[0, 1]`.
    ThresholdOutOfRange {
        /// The offending threshold.
        threshold: f64,
    },
    /// The builder was run without `.threshold(..)`.
    MissingThreshold,
    /// The search region is inverted (`min > max`) in some dimension.
    EmptyRegion {
        /// First dimension where `min > max`.
        dim: usize,
    },
    /// The search region contains a NaN or infinite coordinate.
    NonFiniteRegion {
        /// First dimension with a non-finite bound.
        dim: usize,
    },
    /// A ranking query was built with `k = 0`.
    ZeroK,
    /// A Monte-Carlo refinement mode was requested with `n1 = 0` samples
    /// (Eq. 3 has no defined answer without samples).
    ZeroSampleCount,
    /// A quadrature refinement mode was requested with a tolerance that is
    /// not a finite positive number (the adaptive integrator would never
    /// converge).
    InvalidTolerance {
        /// The offending tolerance.
        tol: f64,
    },
    /// The storage medium failed (a pread/pwrite error surfaced through
    /// the page-store layer while building, loading or querying).
    ///
    /// Carries the rendered [`std::io::Error`]; the enum stays `Clone +
    /// PartialEq` for test ergonomics, which a raw `io::Error` would
    /// forbid.
    Io {
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl From<std::io::Error> for IndexError {
    fn from(e: std::io::Error) -> Self {
        IndexError::Io {
            message: e.to_string(),
        }
    }
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::CatalogTooSmall { len } => {
                write!(f, "a catalog needs at least two values (got {len})")
            }
            IndexError::CatalogNotAscending { index } => {
                write!(
                    f,
                    "catalog values must be strictly ascending (violated at index {index})"
                )
            }
            IndexError::CatalogValueOutOfRange { index, value } => {
                write!(
                    f,
                    "catalog values must lie in [0, 0.5] (value {value} at index {index})"
                )
            }
            IndexError::CatalogTooLarge { len, max } => {
                write!(
                    f,
                    "a catalog of {len} values leaves fewer than {MIN_FANOUT} entries per \
                     node page (at most {max} values fit)"
                )
            }
            IndexError::ThresholdOutOfRange { threshold } => {
                write!(
                    f,
                    "probability threshold must lie in [0, 1] (got {threshold})"
                )
            }
            IndexError::MissingThreshold => {
                write!(f, "query built without a probability threshold")
            }
            IndexError::EmptyRegion { dim } => {
                write!(f, "search region has min > max in dimension {dim}")
            }
            IndexError::NonFiniteRegion { dim } => {
                write!(f, "search region has a non-finite bound in dimension {dim}")
            }
            IndexError::ZeroK => {
                write!(f, "a top-k ranking query needs k >= 1")
            }
            IndexError::ZeroSampleCount => {
                write!(f, "Monte-Carlo refinement needs a sample count n1 >= 1")
            }
            IndexError::InvalidTolerance { tol } => {
                write!(
                    f,
                    "quadrature tolerance must be finite and positive (got {tol})"
                )
            }
            IndexError::Io { message } => {
                write!(f, "index storage I/O failed: {message}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// The region check both builders share ([`QueryBuilder::build`] and
/// [`RankBuilder::build`]): finite bounds first (NaN would make the
/// `min > max` comparison lie), then orientation.
fn validate_region<const D: usize>(region: &Rect<D>) -> Result<(), IndexError> {
    for dim in 0..D {
        if !region.min[dim].is_finite() || !region.max[dim].is_finite() {
            return Err(IndexError::NonFiniteRegion { dim });
        }
        if region.min[dim] > region.max[dim] {
            return Err(IndexError::EmptyRegion { dim });
        }
    }
    Ok(())
}

/// Both fluent builders reject a refinement mode that cannot finish up
/// front: a zero-sample Monte-Carlo mode (so `MonteCarlo::new` never has
/// to panic on a builder-validated query) and a quadrature tolerance that
/// is not a finite positive number (the adaptive integrator would recurse
/// to its depth limit on every slice).
fn validate_refine(refine: &Refine) -> Result<(), IndexError> {
    match *refine {
        Refine::MonteCarlo { n1: 0, .. } => Err(IndexError::ZeroSampleCount),
        Refine::Reference { tol } if !(tol.is_finite() && tol > 0.0) => {
            Err(IndexError::InvalidTolerance { tol })
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Query description
// ---------------------------------------------------------------------------

/// A fully validated probabilistic range query: region, threshold,
/// refinement mode and ablation options.
///
/// Built with [`Query::range`]; executed with [`QueryBuilder::run`] or
/// [`ProbIndex::execute`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query<const D: usize> {
    region: Rect<D>,
    threshold: f64,
    refine: Refine,
    options: QueryOptions,
}

impl<const D: usize> Query<D> {
    /// Starts a fluent query over the given search region.
    pub fn range(region: Rect<D>) -> QueryBuilder<D> {
        QueryBuilder {
            region,
            threshold: None,
            refine: Refine::default(),
            options: QueryOptions::default(),
        }
    }

    /// The search region `r_q`.
    pub fn region(&self) -> &Rect<D> {
        &self.region
    }

    /// The probability threshold `p_q`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// How candidate probabilities are evaluated during refinement.
    pub fn refine_mode(&self) -> Refine {
        self.refine
    }

    /// The ablation switches.
    pub fn options(&self) -> QueryOptions {
        self.options
    }
}

/// Fluent builder returned by [`Query::range`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryBuilder<const D: usize> {
    region: Rect<D>,
    threshold: Option<f64>,
    refine: Refine,
    options: QueryOptions,
}

impl<const D: usize> QueryBuilder<D> {
    /// Sets the probability threshold `p_q ∈ [0, 1]` (required).
    pub fn threshold(mut self, p_q: f64) -> Self {
        self.threshold = Some(p_q);
        self
    }

    /// Sets the refinement mode (default: the paper's Monte-Carlo
    /// estimator with n₁ = 10⁶).
    pub fn refine(mut self, refine: Refine) -> Self {
        self.refine = refine;
        self
    }

    /// Sets the ablation options (default: all filter components on).
    pub fn options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }

    /// Turns the range query into a **top-k ranking query**: instead of a
    /// probability threshold, report the `k` objects with the highest
    /// appearance probability in the region, ordered. Only the region and
    /// the refinement mode carry over: a threshold set so far is dropped
    /// (ranking has none), and so are [`QueryOptions`] — the ablation
    /// switches configure the threshold filter rules, which the bounded
    /// best-first traversal does not run.
    pub fn top(self, k: usize) -> RankBuilder<D> {
        RankBuilder {
            region: self.region,
            k,
            refine: self.refine,
        }
    }

    /// Validates the description into a [`Query`].
    pub fn build(self) -> Result<Query<D>, IndexError> {
        let threshold = self.threshold.ok_or(IndexError::MissingThreshold)?;
        validate_region(&self.region)?;
        if !(0.0..=1.0).contains(&threshold) {
            return Err(IndexError::ThresholdOutOfRange { threshold });
        }
        validate_refine(&self.refine)?;
        Ok(Query {
            region: self.region,
            threshold,
            refine: self.refine,
            options: self.options,
        })
    }

    /// Builds and executes against any [`ProbIndex`]. Both validation
    /// failures and storage I/O failures surface here as [`IndexError`]
    /// (the fluent path never panics on a sick disk).
    pub fn run<I: ProbIndex<D> + ?Sized>(self, index: &I) -> Result<QueryOutcome, IndexError> {
        index.try_execute_with(&self.build()?, &mut QueryCtx::new())
    }
}

// ---------------------------------------------------------------------------
// Ranking queries
// ---------------------------------------------------------------------------

/// A validated probabilistic **top-k ranking query**: report the `k`
/// objects with the highest appearance probability in `region`, ordered by
/// probability (descending, ties by ascending id).
///
/// Built with [`Query::range`]`(..).top(k)`; executed with
/// [`RankBuilder::run`] or [`ProbIndex::rank_topk`]. Objects whose
/// appearance probability is 0 never rank, so the answer may hold fewer
/// than `k` matches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankQuery<const D: usize> {
    region: Rect<D>,
    k: usize,
    refine: Refine,
}

impl<const D: usize> RankQuery<D> {
    /// The search region `r_q`.
    pub fn region(&self) -> &Rect<D> {
        &self.region
    }

    /// How many objects to report.
    pub fn k(&self) -> usize {
        self.k
    }

    /// How candidate probabilities are evaluated during refinement.
    pub fn refine_mode(&self) -> Refine {
        self.refine
    }
}

/// Fluent builder returned by [`QueryBuilder::top`].
#[derive(Debug, Clone, Copy)]
pub struct RankBuilder<const D: usize> {
    region: Rect<D>,
    k: usize,
    refine: Refine,
}

impl<const D: usize> RankBuilder<D> {
    /// Sets the refinement mode (default: the paper's Monte-Carlo
    /// estimator with n₁ = 10⁶; ranking seeds it **per object**, see
    /// `docs/API.md` "Ranking queries").
    pub fn refine(mut self, refine: Refine) -> Self {
        self.refine = refine;
        self
    }

    /// Validates the description into a [`RankQuery`].
    pub fn build(self) -> Result<RankQuery<D>, IndexError> {
        validate_region(&self.region)?;
        if self.k == 0 {
            return Err(IndexError::ZeroK);
        }
        validate_refine(&self.refine)?;
        Ok(RankQuery {
            region: self.region,
            k: self.k,
            refine: self.refine,
        })
    }

    /// Builds and executes against any [`ProbIndex`]. Both validation
    /// failures and storage I/O failures surface here as [`IndexError`].
    pub fn run<I: ProbIndex<D> + ?Sized>(self, index: &I) -> Result<RankOutcome, IndexError> {
        index.try_rank_topk_with(&self.build()?, &mut QueryCtx::new())
    }
}

/// One ranked object: its id, appearance probability, and how the
/// probability was certified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedMatch {
    /// The object's application-level identifier.
    pub id: u64,
    /// The appearance probability the match is ranked by.
    /// `Provenance::Validated` matches carry an exact `1.0`.
    pub p: f64,
    /// [`Provenance::Validated`] when the probability was pinned by the
    /// filter bounds (`r_q ⊇ mbr` ⇒ `p = 1`), [`Provenance::Refined`]
    /// when it was computed.
    pub provenance: Provenance,
}

/// Structured result of one ranking query: at most `k` matches ordered by
/// probability (descending, ties by ascending id) plus the cost counters.
///
/// In the stats, `candidates` counts objects whose bounds could not decide
/// them (they entered the ranking frontier); `prob_computations` counts
/// how many of those were actually refined — the gap is what the
/// PCR-bounded traversal saved over a refine-everything scan.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOutcome {
    /// The ranked matches, best first.
    pub matches: Vec<RankedMatch>,
    /// The paper's cost metrics for this query.
    pub stats: QueryStats,
}

impl RankOutcome {
    /// The ranked ids, best first.
    pub fn ids(&self) -> Vec<u64> {
        self.matches.iter().map(|m| m.id).collect()
    }

    /// Number of ranked objects (≤ k).
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// True when nothing in the region has positive probability.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// True when `id` ranked.
    pub fn contains(&self, id: u64) -> bool {
        self.matches.iter().any(|m| m.id == id)
    }

    /// The lowest probability that still ranked (the implicit threshold
    /// this answer corresponds to).
    pub fn min_probability(&self) -> Option<f64> {
        self.matches.last().map(|m| m.p)
    }

    /// Iterates over the matches, best first.
    pub fn iter(&self) -> std::slice::Iter<'_, RankedMatch> {
        self.matches.iter()
    }
}

impl<'a> IntoIterator for &'a RankOutcome {
    type Item = &'a RankedMatch;
    type IntoIter = std::slice::Iter<'a, RankedMatch>;
    fn into_iter(self) -> Self::IntoIter {
        self.matches.iter()
    }
}

// ---------------------------------------------------------------------------
// Query results
// ---------------------------------------------------------------------------

/// How a query result was certified (per-object match provenance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Provenance {
    /// Reported by the validation rules without any probability
    /// computation (the paper's "directly reported" results).
    Validated,
    /// Survived refinement with the estimated appearance probability `p`.
    Refined {
        /// The appearance probability the refinement step computed.
        p: f64,
        /// Monte-Carlo samples behind `p`. Fewer than the query's n₁: the
        /// object was decided early, and `p ≥ p_q` is wrong with
        /// probability at most 10⁻⁹. Exactly n₁: a full-budget estimate
        /// with standard error at most `√(0.25/n₁)` — a close call if `p`
        /// is within a few of those of `p_q`. 0: `p` was computed by
        /// quadrature ([`Refine::Reference`]) or pinned by the
        /// estimator's containment short-circuits.
        samples: usize,
    },
}

/// One qualifying object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// The object's application-level identifier.
    pub id: u64,
    /// How the match was certified.
    pub provenance: Provenance,
}

/// Structured result of one query: the matches (validated first, refined
/// after, mirroring execution order) plus the cost counters.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The qualifying objects with their provenance.
    pub matches: Vec<Match>,
    /// The paper's cost metrics for this query.
    pub stats: QueryStats,
}

impl QueryOutcome {
    /// The qualifying ids, in execution order.
    pub fn ids(&self) -> Vec<u64> {
        self.matches.iter().map(|m| m.id).collect()
    }

    /// The qualifying ids, ascending (for set comparison).
    pub fn sorted_ids(&self) -> Vec<u64> {
        let mut ids = self.ids();
        ids.sort_unstable();
        ids
    }

    /// Number of qualifying objects.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// True when nothing qualified.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// True when `id` qualified.
    pub fn contains(&self, id: u64) -> bool {
        self.matches.iter().any(|m| m.id == id)
    }

    /// Matches certified for free by the validation rules.
    pub fn validated_count(&self) -> usize {
        self.matches
            .iter()
            .filter(|m| m.provenance == Provenance::Validated)
            .count()
    }

    /// Matches that needed a probability computation.
    pub fn refined_count(&self) -> usize {
        self.matches.len() - self.validated_count()
    }

    /// Iterates over the matches.
    pub fn iter(&self) -> std::slice::Iter<'_, Match> {
        self.matches.iter()
    }
}

impl<'a> IntoIterator for &'a QueryOutcome {
    type Item = &'a Match;
    type IntoIter = std::slice::Iter<'a, Match>;
    fn into_iter(self) -> Self::IntoIter {
        self.matches.iter()
    }
}

impl IntoIterator for QueryOutcome {
    type Item = Match;
    type IntoIter = std::vec::IntoIter<Match>;
    fn into_iter(self) -> Self::IntoIter {
        self.matches.into_iter()
    }
}

/// Assembles an outcome from the two result streams every backend's
/// context produces — validated ids (filter step) then refined
/// `(id, p, samples)` triples — draining the buffers so their capacity
/// stays with the context for the next query.
pub(crate) fn outcome_from_ctx(ctx: &mut QueryCtx) -> QueryOutcome {
    let mut matches = Vec::with_capacity(ctx.validated.len() + ctx.refined.len());
    matches.extend(ctx.validated.drain(..).map(|id| Match {
        id,
        provenance: Provenance::Validated,
    }));
    matches.extend(ctx.refined.drain(..).map(|(id, p, samples)| Match {
        id,
        provenance: Provenance::Refined { p, samples },
    }));
    QueryOutcome {
        matches,
        stats: ctx.stats,
    }
}

/// The one place an infallible query convenience turns a storage error
/// into a panic: [`ProbIndex::execute`], [`ProbIndex::rank_topk`] and
/// [`ProbTree::execute_with`] all end here.
pub(crate) fn or_panic<T>(result: Result<T, IndexError>) -> T {
    // xlint: allow(panic-freedom) -- documented infallible convenience; the try_*_with methods carry the fallible contract
    result.unwrap_or_else(|e| panic!("{e}"))
}

// ---------------------------------------------------------------------------
// The index trait
// ---------------------------------------------------------------------------

/// Anything that can maintain uncertain objects and answer probabilistic
/// range queries — the contract shared by [`crate::UTree`],
/// [`crate::UPcrTree`] and [`SeqScan`].
///
/// Object-safe (except [`ProbIndex::bulk_load`]), so heterogeneous
/// backends can sit behind `dyn ProbIndex<D>`.
pub trait ProbIndex<const D: usize> {
    /// Inserts an object; ids must be unique. Returns the update-cost
    /// breakdown.
    fn insert(&mut self, obj: &UncertainObject<D>) -> InsertStats;

    /// Deletes an object previously inserted (the caller supplies the same
    /// object; payloads are recomputed deterministically to locate it).
    /// Returns `true` when found.
    fn delete(&mut self, obj: &UncertainObject<D>) -> bool;

    /// Number of indexed objects.
    fn len(&self) -> usize;

    /// True when no objects are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the filter structure in bytes (Table 1's metric).
    fn index_size_bytes(&self) -> u64;

    /// Size of the object-detail heap in bytes.
    fn heap_size_bytes(&self) -> u64;

    /// Total filter-structure page accesses (reads + writes) since the
    /// last [`ProbIndex::reset_io`].
    fn io_counters(&self) -> u64;

    /// Resets the I/O counters (harness use).
    fn reset_io(&self);

    /// Executes a validated query, returning matches with provenance and
    /// the cost counters, or a typed [`IndexError::Io`] when the storage
    /// medium fails mid-query.
    ///
    /// This is the **fallible primitive** every backend implements;
    /// [`ProbIndex::execute`] is a panic-on-I/O-error convenience over it
    /// (an in-memory backend cannot fail, so the panic is unreachable
    /// there).
    ///
    /// **The concurrency contract.** Queries only *read* the index
    /// (`&self` end-to-end), and all per-query mutable state lives in the
    /// caller's context, so a shared reference serves any number of
    /// threads at once with **one [`QueryCtx`] per thread** — all in-repo
    /// backends are `Sync` on every storage backend. The context is reset
    /// on entry and its buffers are reused across calls. Every candidate
    /// seeds its own refinement RNG from the query's seed and its id, so
    /// an answer does not depend on which thread ran it.
    fn try_execute_with(
        &self,
        query: &Query<D>,
        ctx: &mut QueryCtx,
    ) -> Result<QueryOutcome, IndexError>;

    /// Executes a validated query with a throwaway [`QueryCtx`],
    /// panicking if the storage medium fails (see
    /// [`ProbIndex::try_execute_with`] for the fallible surface, and for
    /// reusing one context across many queries).
    fn execute(&self, query: &Query<D>) -> QueryOutcome {
        or_panic(self.try_execute_with(query, &mut QueryCtx::new()))
    }

    /// Executes a validated **top-k ranking query**: the `k` objects with
    /// the highest appearance probability in the region, ordered
    /// (descending probability, ties by ascending id). Returns a typed
    /// [`IndexError::Io`] when the storage medium fails mid-query.
    ///
    /// The tree backends run a best-first traversal over PCR-derived
    /// upper probability bounds with lazy refinement — a candidate's
    /// probability is only computed while its upper bound still beats the
    /// current k-th lower bound; [`crate::SeqScan`] is the
    /// refine-everything oracle. All backends return identical matches
    /// under a deterministic refinement mode.
    ///
    /// Same concurrency contract as [`ProbIndex::try_execute_with`]:
    /// `&self` end-to-end, per-query state (the ranking frontier, bound
    /// buffers and result heap) in the caller's [`QueryCtx`].
    fn try_rank_topk_with(
        &self,
        query: &RankQuery<D>,
        ctx: &mut QueryCtx,
    ) -> Result<RankOutcome, IndexError>;

    /// Executes a validated top-k ranking query with a throwaway
    /// [`QueryCtx`], panicking if the storage medium fails (see
    /// [`ProbIndex::try_rank_topk_with`] for the fallible surface).
    fn rank_topk(&self, query: &RankQuery<D>) -> RankOutcome {
        or_panic(self.try_rank_topk_with(query, &mut QueryCtx::new()))
    }

    /// Loads every object from an iterator into the index, returning the
    /// accumulated [`InsertStats`]. Accepts owned or borrowed objects.
    ///
    /// The default is the plain insert loop; per-phase wall-clock
    /// (`pcr_nanos`, `lp_nanos`) and I/O counters accumulate each insert's
    /// breakdown **exactly once** — the aggregate equals the sum of the
    /// individual [`ProbIndex::insert`] stats, with no build-level clock
    /// layered on top of the per-insert clocks. [`crate::UTree`] and
    /// [`crate::UPcrTree`] override this with a Sort-Tile-Recursive bulk
    /// build when the index is empty (packed leaves, bottom-up levels,
    /// build-level timing measured once per phase).
    fn bulk_load<It>(&mut self, objs: It) -> InsertStats
    where
        It: IntoIterator,
        It::Item: Borrow<UncertainObject<D>>,
        Self: Sized,
    {
        let mut acc = InsertStats::default();
        for obj in objs {
            acc += &self.insert(obj.borrow());
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

/// A backend constructible by [`IndexBuilder`]. Implemented by the three
/// structures; sealed against downstream implementations so the builder
/// surface can evolve.
pub trait IndexBackend<const D: usize>: ProbIndex<D> + Sized + sealed::Sealed {
    /// Human-readable backend name (diagnostics, harness tables).
    const NAME: &'static str;

    /// The paper's Sec 6.2 default catalog for this backend.
    fn default_catalog() -> UCatalog;

    #[doc(hidden)]
    fn from_parts(catalog: UCatalog) -> Result<Self, IndexError>;
}

pub(crate) mod sealed {
    use super::{FilterPayload, ProbTree, SeqScan};

    pub trait Sealed {}
    impl<const D: usize, P: FilterPayload<D>, S: page_store::PageStore> Sealed for ProbTree<D, P, S> {}
    impl<const D: usize> Sealed for SeqScan<D> {}
    impl Sealed for crate::tree::Cfbs {}
    impl Sealed for crate::upcr::Pcrs {}
}

impl<const D: usize, P: FilterPayload<D>> IndexBackend<D> for ProbTree<D, P> {
    const NAME: &'static str = P::NAME;

    fn default_catalog() -> UCatalog {
        P::default_catalog()
    }

    /// A U-PCR entry grows with the catalog; one that leaves a node page
    /// fewer than [`MIN_FANOUT`] entries is refused here rather than by
    /// the tree's construction assert.
    fn from_parts(catalog: UCatalog) -> Result<Self, IndexError> {
        let fits = |m: usize| {
            let codec = P::codec(Arc::new(UCatalog::uniform(m)));
            codec.leaf_capacity().min(codec.inner_capacity()) >= MIN_FANOUT
        };
        let len = catalog.len();
        if !fits(len) {
            // Capacities only fall as m grows, and a page holds few values.
            let max = (2..len).take_while(|&m| fits(m)).last().unwrap_or(1);
            return Err(IndexError::CatalogTooLarge { len, max });
        }
        Ok(ProbTree::new(catalog))
    }
}

impl<const D: usize> IndexBackend<D> for SeqScan<D> {
    const NAME: &'static str = "seq-scan";

    fn default_catalog() -> UCatalog {
        // Same filter power per object as the default U-tree.
        UCatalog::paper_utree_default()
    }

    fn from_parts(catalog: UCatalog) -> Result<Self, IndexError> {
        Ok(SeqScan::new(catalog))
    }
}

enum CatalogSpec {
    Ready(UCatalog),
    Uniform(usize),
}

/// Fallible, fluent construction shared by all three backends:
///
/// ```
/// use utree::{ProbIndex, UCatalog, UTree};
///
/// let tree = UTree::<2>::builder()
///     .catalog(UCatalog::uniform(10))
///     .build()
///     .expect("valid catalog");
/// assert!(tree.is_empty());
///
/// // Invalid catalogs are typed errors, not panics:
/// let err = UTree::<2>::builder()
///     .uniform_catalog(1)
///     .build()
///     .err()
///     .unwrap();
/// assert!(err.to_string().contains("at least two"));
/// ```
pub struct IndexBuilder<const D: usize, B: IndexBackend<D>> {
    catalog: Option<CatalogSpec>,
    _backend: PhantomData<fn() -> B>,
}

impl<const D: usize, B: IndexBackend<D>> Default for IndexBuilder<D, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize, B: IndexBackend<D>> IndexBuilder<D, B> {
    /// An empty builder (backend defaults apply at [`IndexBuilder::build`]).
    pub fn new() -> Self {
        IndexBuilder {
            catalog: None,
            _backend: PhantomData,
        }
    }

    /// Uses an already-validated catalog.
    pub fn catalog(mut self, catalog: UCatalog) -> Self {
        self.catalog = Some(CatalogSpec::Ready(catalog));
        self
    }

    /// Uses the evenly spaced catalog `{0, 0.5/(m−1), …, 0.5}`.
    pub fn uniform_catalog(mut self, m: usize) -> Self {
        self.catalog = Some(CatalogSpec::Uniform(m));
        self
    }

    /// Validates and constructs the backend. Without an explicit catalog,
    /// the backend's paper default (Sec 6.2) is used. A catalog whose
    /// entries do not fit a node page is [`IndexError::CatalogTooLarge`].
    pub fn build(self) -> Result<B, IndexError> {
        let catalog = match self.catalog {
            None => B::default_catalog(),
            Some(CatalogSpec::Ready(c)) => c,
            Some(CatalogSpec::Uniform(m)) => UCatalog::try_uniform(m)?,
        };
        B::from_parts(catalog)
    }

    /// Validates, constructs, and **bulk-loads** the backend in one step:
    /// `UTree::builder().uniform_catalog(8).bulk(&objs)?`. On the tree
    /// backends the freshly built (empty) index takes the packed STR
    /// build; on [`crate::SeqScan`] the default insert loop runs.
    pub fn bulk<It>(self, objs: It) -> Result<B, IndexError>
    where
        It: IntoIterator,
        It::Item: Borrow<UncertainObject<D>>,
    {
        let mut backend = self.build()?;
        backend.bulk_load(objs);
        Ok(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UPcrTree, UTree};
    use uncertain_geom::Point;
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

    #[test]
    fn builder_rejects_bad_catalogs_with_typed_errors() {
        let e = SeqScan::<2>::builder()
            .uniform_catalog(1)
            .build()
            .err()
            .unwrap();
        assert_eq!(e, IndexError::CatalogTooSmall { len: 1 });

        // A 2-D U-PCR leaf entry is 16·m + 34 bytes: m = 61 still fits four
        // to a page, m = 62 does not (and used to panic in the tree).
        assert!(UPcrTree::<2>::builder().uniform_catalog(61).build().is_ok());
        for m in [62, 64] {
            let e = UPcrTree::<2>::builder()
                .uniform_catalog(m)
                .build()
                .err()
                .unwrap();
            assert_eq!(e, IndexError::CatalogTooLarge { len: m, max: 61 });
        }
        // The U-tree's entries do not grow with m.
        assert!(UTree::<2>::builder().uniform_catalog(64).build().is_ok());
    }

    #[test]
    fn builder_defaults_follow_the_paper() {
        let t = UTree::<2>::builder().build().unwrap();
        assert_eq!(t.catalog().len(), 15);
        let p2 = UPcrTree::<2>::builder().build().unwrap();
        assert_eq!(p2.catalog().len(), 9);
        let p3 = UPcrTree::<3>::builder().build().unwrap();
        assert_eq!(p3.catalog().len(), 10);
    }

    #[test]
    fn query_builder_validates() {
        let rect = Rect::new([0.0, 0.0], [10.0, 10.0]);
        assert_eq!(
            Query::range(rect).build().unwrap_err(),
            IndexError::MissingThreshold
        );
        for pq in [0.0, 1.0] {
            assert!(Query::range(rect).threshold(pq).build().is_ok(), "{pq}");
        }
        for pq in [1.5, -0.2, f64::NAN] {
            let e = Query::range(rect).threshold(pq).build().unwrap_err();
            assert!(
                matches!(e, IndexError::ThresholdOutOfRange { threshold } if threshold.to_bits() == pq.to_bits()),
                "{pq}: {e:?}"
            );
        }
        // Both builders hold a region to the same rules; the finite check
        // runs first, so a NaN cannot slip past the orientation check.
        for (min, max, expect) in [
            ([5.0, 0.0], [0.0, 10.0], IndexError::EmptyRegion { dim: 0 }),
            (
                [0.0, f64::NAN],
                [10.0, 10.0],
                IndexError::NonFiniteRegion { dim: 1 },
            ),
            (
                [0.0, 0.0],
                [f64::INFINITY, 10.0],
                IndexError::NonFiniteRegion { dim: 0 },
            ),
        ] {
            let region = Rect { min, max };
            let range = Query::range(region).threshold(0.5).build().unwrap_err();
            let top = Query::range(region).top(3).build().unwrap_err();
            assert_eq!((range, top), (expect.clone(), expect));
        }
        let q = Query::range(rect)
            .threshold(0.5)
            .refine(Refine::reference(1e-8))
            .build()
            .unwrap();
        assert_eq!(q.threshold(), 0.5);
        assert_eq!(q.refine_mode(), Refine::Reference { tol: 1e-8 });
    }

    #[test]
    fn builders_reject_zero_sample_monte_carlo() {
        // Regression: `MonteCarlo::new(0)` used to be an assert! panic hit
        // mid-refinement, and a quadrature tolerance that is not a finite
        // positive number used to hang the query; the builders now reject
        // both modes up front with a typed error.
        let rect = Rect::new([0.0, 0.0], [10.0, 10.0]);
        let bad = [Refine::monte_carlo(0, 7)]
            .into_iter()
            .chain([0.0, -1.0, f64::NAN, f64::INFINITY].map(Refine::reference));
        for refine in bad {
            let expect = match refine {
                Refine::Reference { tol } => IndexError::InvalidTolerance { tol },
                Refine::MonteCarlo { .. } => IndexError::ZeroSampleCount,
            };
            let range = Query::range(rect).threshold(0.5).refine(refine).build();
            let top = Query::range(rect).top(3).refine(refine).build();
            // Compared through Debug: NaN != NaN under PartialEq.
            assert_eq!(format!("{:?}", range.unwrap_err()), format!("{expect:?}"));
            assert_eq!(format!("{:?}", top.unwrap_err()), format!("{expect:?}"));
        }
        // n1 >= 1 and a positive tolerance pass, and the typed path exists
        // on the estimator too.
        for refine in [Refine::monte_carlo(1, 7), Refine::reference(1e-12)] {
            assert!(Query::range(rect)
                .threshold(0.5)
                .refine(refine)
                .build()
                .is_ok());
            assert!(Query::range(rect).top(3).refine(refine).build().is_ok());
        }
        assert!(uncertain_pdf::MonteCarlo::try_new(0).is_err());
    }

    #[test]
    fn outcome_carries_provenance() {
        let mut tree = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
        tree.insert(&ball(7, 500.0, 500.0, 100.0));
        tree.insert(&ball(8, 620.0, 500.0, 100.0));
        // Fully containing query: both validated, no integration.
        let out = Query::range(Rect::new([300.0, 300.0], [800.0, 700.0]))
            .threshold(0.95)
            .refine(Refine::reference(1e-8))
            .run(&tree)
            .unwrap();
        assert_eq!(out.sorted_ids(), vec![7, 8]);
        assert_eq!(out.validated_count(), 2);
        assert_eq!(out.refined_count(), 0);
        assert_eq!(out.stats.prob_computations, 0);

        // Half-covering query: refined matches carry their probability.
        let out = Query::range(Rect::new([400.0, 300.0], [500.0, 700.0]))
            .threshold(0.2)
            .refine(Refine::reference(1e-8))
            .run(&tree)
            .unwrap();
        for m in &out {
            if let Provenance::Refined { p, samples } = m.provenance {
                assert!((0.2..=1.0).contains(&p), "match {m:?} below threshold");
                assert_eq!(samples, 0, "quadrature draws no samples");
            }
        }
        assert_eq!(out.len(), out.validated_count() + out.refined_count());
    }

    #[test]
    fn dyn_prob_index_is_object_safe() {
        let mut tree = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
        tree.insert(&ball(1, 100.0, 100.0, 20.0));
        let as_dyn: &dyn ProbIndex<2> = &tree;
        assert_eq!(as_dyn.len(), 1);
        let out = Query::range(Rect::new([0.0, 0.0], [200.0, 200.0]))
            .threshold(0.5)
            .refine(Refine::reference(1e-8))
            .run(as_dyn)
            .unwrap();
        assert_eq!(out.ids(), vec![1]);
    }
}
