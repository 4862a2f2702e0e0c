//! # utree — indexing multi-dimensional uncertain data with arbitrary pdfs
//!
//! A faithful implementation of Tao, Cheng, Xiao, Ngai, Kao, Prabhakar:
//! *"Indexing Multi-Dimensional Uncertain Data with Arbitrary Probability
//! Density Functions"*, VLDB 2005.
//!
//! The library answers **probabilistic range queries** — given a rectangle
//! `r_q` and a threshold `p_q`, find every uncertain object whose
//! appearance probability `∫_{ur ∩ r_q} pdf` is at least `p_q` — while
//! computing as few of those expensive integrals as possible:
//!
//! 1. [`PcrSet`] pre-computes *probabilistically constrained regions*
//!    at the catalog values ([`UCatalog`]);
//! 2. a [`FilterPayload`] decides what an index entry keeps of them:
//!    [`Cfbs`] compresses them into two linear *conservative functional
//!    boxes*, the closed-form optimum of the paper's Sec 4.4 LPs
//!    ([`cfb::fit_cfb_pair`], 8d floats per object),
//!    [`Pcrs`] stores them verbatim;
//! 3. [`ProbTree`] — one type for both of the paper's trees, [`UTree`] =
//!    `ProbTree<D, Cfbs>` and the comparison structure [`UPcrTree`] =
//!    `ProbTree<D, Pcrs>` — indexes the payload in an R*-tree derivative
//!    whose intermediate entries prune whole subtrees (Observation 4), and
//!    whose leaf entries prune/validate objects without integration
//!    (Observation 3; Observation 2 over exact PCRs);
//! 4. only the surviving candidates reach the Monte-Carlo refinement
//!    (the last phase of [`ProbIndex::try_execute_with`]).
//!
//! [`SeqScan`] (no index) is the paper's other comparison point. All
//! three implement the backend-agnostic [`ProbIndex`] trait and are
//! built/queried through the fluent [`api`] surface.
//!
//! Besides threshold queries, the same machinery answers **probabilistic
//! top-k ranking** (`Query::range(..).top(k)` /
//! [`ProbIndex::rank_topk`]): [`filter::prob_bounds_planned`] grades the filter
//! rules into per-object probability bounds, and the trees run a
//! best-first, lazily-refining traversal that computes only a fraction of
//! the appearance probabilities a scan would. The trees are additionally generic over their
//! [`page_store::PageStore`]: `save(dir)` persists an index on disk and
//! [`DiskUTree`]`::open(dir, frames)` reopens it cold through an LRU
//! buffer pool with identical query answers.
//!
//! Queries are **read-only** (`&self` end-to-end; per-query state lives in
//! a [`QueryCtx`]), so one shared index serves concurrent readers, one
//! context per thread, with byte-identical results to a sequential run;
//! [`QueryService`] runs request batches against an [`IndexCatalog`] on a
//! worker pool:
//!
//! ```
//! use utree::{ProbIndex, Query, Refine, UTree};
//! use uncertain_geom::{Point, Rect};
//! use uncertain_pdf::{ObjectPdf, UncertainObject};
//!
//! let mut tree = UTree::<2>::builder().uniform_catalog(10).build()?;
//! tree.insert(&UncertainObject::new(
//!     1,
//!     ObjectPdf::UniformBall { center: Point::new([40.0, 40.0]), radius: 15.0 },
//! ));
//! let outcome = Query::range(Rect::new([0.0, 0.0], [100.0, 100.0]))
//!     .threshold(0.7)
//!     .refine(Refine::reference(1e-8))
//!     .run(&tree)?;
//! assert_eq!(outcome.ids(), vec![1]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod api;
pub mod catalog;
pub mod catalog_store;
pub mod cfb;
pub mod entry;
pub mod filter;
pub mod key;
pub mod object_codec;
pub mod pcr;
mod persist;
pub mod query;
mod rank;
pub mod seqscan;
pub mod service;
pub mod shard;
pub mod tree;
pub mod upcr;

pub use api::{
    IndexBackend, IndexBuilder, IndexError, Match, ProbIndex, Provenance, Query, QueryBuilder,
    QueryOutcome, RankBuilder, RankOutcome, RankQuery, RankedMatch,
};
pub use catalog::UCatalog;
pub use catalog_store::{IndexCatalog, IndexDef};
pub use cfb::{fit_cfb_pair, Cfb, CfbPair, CfbView};
pub use filter::{
    filter_object_planned, prob_bounds_planned, FilterOutcome, PcrAccess, PreparedQuery,
};
pub use key::{PcrKey, PcrMetrics, UKey, UMetrics};
pub use pcr::PcrSet;
pub use query::{QueryCtx, QueryStats, Refine};
pub use seqscan::SeqScan;
pub use service::{QueryService, ServiceReply, ServiceReport, ServiceRequest};
pub use shard::{canonicalize, shard_of, ShardedIndex};
pub use tree::{Cfbs, FilterPayload, InsertStats, ProbTree, QueryOptions, UTree};
pub use upcr::{Pcrs, UPcrTree};

/// The page store of a disk-backed tree: an LRU buffer pool over a
/// journaling [`page_store::WalStore`] over the snapshot file. Commits go
/// to the write-ahead log first; `open` replays the log over the snapshot.
pub type DiskStore = page_store::BufferPool<page_store::WalStore<page_store::DiskPageFile>>;

/// A [`UTree`] reopened from disk through a crash-safe write path — what
/// [`ProbTree::open`] returns for the [`Cfbs`] payload.
pub type DiskUTree<const D: usize> = UTree<D, DiskStore>;

/// A [`UPcrTree`] reopened from disk through a crash-safe write path —
/// what [`ProbTree::open`] returns for the [`Pcrs`] payload.
pub type DiskUPcrTree<const D: usize> = UPcrTree<D, DiskStore>;
