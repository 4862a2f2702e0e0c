//! # utree-repro
//!
//! Umbrella crate of the reproduction of *"Indexing Multi-Dimensional
//! Uncertain Data with Arbitrary Probability Density Functions"* (Tao,
//! Cheng, Xiao, Ngai, Kao, Prabhakar — VLDB 2005).
//!
//! Re-exports the whole stack under one roof:
//!
//! * [`geom`] — d-dimensional geometry;
//! * [`pdf`] — pdf models, marginal CDFs, appearance probability;
//! * [`store`] — paged storage behind the [`store::PageStore`] trait:
//!   in-memory page file, durable disk file, LRU buffer pool;
//! * [`rstar`] — the generic R*-tree machinery (insertion, forced
//!   reinsertion, split, STR bulk build) both of the paper's trees run on;
//! * [`index`] — the paper's structures behind one trait
//!   ([`index::ProbIndex`]): [`index::UTree`], [`index::UPcrTree`],
//!   [`index::SeqScan`];
//! * [`data`] — the LB/CA/Aircraft dataset generators and workloads.
//!
//! ## The API in one example
//!
//! Indexes are built with the shared fluent builder, loaded in bulk, and
//! queried with the [`prelude::Query`] builder; results carry per-object
//! provenance and the paper's cost counters:
//!
//! ```
//! use utree_repro::prelude::*;
//!
//! let mut tree = UTree::<2>::builder()
//!     .catalog(UCatalog::uniform(10))
//!     .build()?;
//! tree.bulk_load(datagen::lb_dataset(200, 42));
//!
//! let outcome = Query::range(Rect::new([2000.0, 2000.0], [4000.0, 4000.0]))
//!     .threshold(0.7)
//!     .refine(Refine::monte_carlo(100_000, 7))
//!     .run(&tree)?;
//!
//! println!(
//!     "{} results ({} validated for free), {} node accesses",
//!     outcome.len(),
//!     outcome.validated_count(),
//!     outcome.stats.node_reads
//! );
//! for m in &outcome {
//!     match m.provenance {
//!         Provenance::Validated => println!("object {} (certified by the filter)", m.id),
//!         // `samples` below the budget of 100 000: decided early, `p` was
//!         // far enough from 0.7; at the budget: a close call.
//!         Provenance::Refined { p, samples } => {
//!             println!("object {} (P = {p:.3} from {samples} samples)", m.id)
//!         }
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same code runs against [`prelude::UPcrTree`] or
//! [`prelude::SeqScan`] — or any `&dyn ProbIndex<D>` — unchanged, and
//! against any storage backend: `tree.save(dir)?` persists an index that
//! [`prelude::DiskUTree`]`::open(dir, frames)?` reopens cold from disk
//! through a bounded LRU buffer pool, answering byte-identically. Disk
//! trees write ahead: `commit()` journals each update batch to a
//! CRC-framed log and fsyncs it before it returns and before any page
//! reaches the backing file, `open` replays committed batches after a
//! crash, and `checkpoint()` folds the log back into the snapshot. See
//! `docs/API.md` for the API guide, including storage backends and
//! durability. Every failure is one [`prelude::IndexError`].

pub use datagen as data;
pub use page_store as store;
pub use rstar_base as rstar;
pub use uncertain_geom as geom;
pub use uncertain_pdf as pdf;
pub use utree as index;

/// One-stop imports for applications.
pub mod prelude {
    pub use datagen;
    pub use page_store::{
        BufferPool, DiskPageFile, FaultMode, FaultStore, PageFile, PageStore, WalStore,
    };
    pub use rstar_base::TreeConfig;
    pub use uncertain_geom::{Point, Rect};
    pub use uncertain_pdf::{HistogramPdf, ObjectPdf, Region, UncertainObject};
    pub use utree::{canonicalize, shard_of};
    pub use utree::{
        DiskUPcrTree, DiskUTree, FilterOutcome, IndexBuilder, IndexCatalog, IndexDef, IndexError,
        InsertStats, Match, ProbIndex, Provenance, Query, QueryBuilder, QueryCtx, QueryOptions,
        QueryOutcome, QueryService, QueryStats, RankOutcome, RankQuery, RankedMatch, Refine,
        SeqScan, ServiceReply, ServiceReport, ServiceRequest, ShardedIndex, UCatalog, UPcrTree,
        UTree,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_builds_and_queries() {
        let mut tree = UTree::<2>::builder()
            .uniform_catalog(6)
            .build()
            .expect("valid catalog");
        let load = tree.bulk_load(datagen::lb_dataset(100, 7));
        assert!(load.io_writes > 0, "bulk load must write pages");
        let outcome = Query::range(Rect::new([0.0, 0.0], [10_000.0, 10_000.0]))
            .threshold(0.5)
            .refine(Refine::reference(1e-6))
            .run(&tree)
            .expect("valid query");
        assert_eq!(
            outcome.len(),
            100,
            "domain-spanning query returns everything"
        );
        assert_eq!(
            outcome.len(),
            outcome.validated_count() + outcome.refined_count()
        );
    }
}
