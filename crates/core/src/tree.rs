//! The probabilistic R*-tree of the paper, once: [`ProbTree`] is the
//! U-tree (Sec 5) when its entries carry conservative functional boxes
//! ([`Cfbs`]) and U-PCR (Sec 6) when they carry the PCRs verbatim
//! ([`crate::upcr::Pcrs`]). A [`FilterPayload`] names everything that
//! differs between the two; every method of the tree is written against it.

use crate::api::{
    or_panic, outcome_from_ctx, sealed, IndexBuilder, IndexError, ProbIndex, Query, QueryOutcome,
    RankOutcome, RankQuery,
};
use crate::catalog::UCatalog;
use crate::cfb::{fit_cfb_pair, CfbPair, CfbView};
use crate::entry::{UCodec, ULeafEntry};
use crate::filter::{FilterOutcome, PcrAccess};
use crate::key::{UKey, UMetrics};
use crate::object_codec::encode_object;
use crate::pcr::PcrSet;
use crate::persist;
use crate::query::{refine_ctx, QueryCtx};
use crate::rank::RankLeaf;
use crate::DiskStore;
use page_store::{
    commit_group, f32_round_down, f32_round_up, DiskPageFile, ObjectHeap, PageFile, PageStore,
    RecordAddr, Wal, WalStore,
};
use rstar_base::{
    str_order_by, KeyMetrics, LeafRecord, NodeCodec, RStarTreeBase, TreeConfig, TreeStats,
};
use std::borrow::Borrow;
use std::io;
use std::ops::AddAssign;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use uncertain_geom::Rect;
use uncertain_pdf::{ObjectPdf, UncertainObject};

/// Ablation switches for query execution
/// ([`crate::api::QueryBuilder::options`]).
///
/// Disabling a component never changes the *result set* (everything not
/// decided by a filter goes through exact refinement) — only the cost.
/// Both tree payloads honour every switch; the sequential scan has no
/// descent and ignores the options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Apply Observation 4 at intermediate entries (off = plain R-tree
    /// `e.MBR(p₁)` intersection pruning).
    pub observation4: bool,
    /// Apply the Observation-3 leaf rules at all (off = MBR intersection
    /// only; every intersecting object becomes a refinement candidate).
    pub leaf_filter: bool,
    /// Allow the validation rules to report results without refinement
    /// (off = validated objects are demoted to candidates).
    pub validation: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            observation4: true,
            leaf_filter: true,
            validation: true,
        }
    }
}

/// Cost breakdown of one insertion (Fig 11a's CPU components), or — via
/// [`crate::api::ProbIndex::bulk_load`] — the accumulated breakdown of a
/// batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InsertStats {
    /// Nanoseconds computing the PCRs (marginal CDF inversion).
    pub pcr_nanos: u128,
    /// Nanoseconds fitting the CFBs (zero for U-PCR).
    pub lp_nanos: u128,
    /// Index page reads caused by the insertion.
    pub io_reads: u64,
    /// Index page writes caused by the insertion.
    pub io_writes: u64,
}

impl AddAssign<&InsertStats> for InsertStats {
    fn add_assign(&mut self, other: &InsertStats) {
        self.pcr_nanos += other.pcr_nanos;
        self.lp_nanos += other.lp_nanos;
        self.io_reads += other.io_reads;
        self.io_writes += other.io_writes;
    }
}

/// The bounding key of a payload's intermediate entries.
pub type KeyOf<const D: usize, P> = <<P as FilterPayload<D>>::Metrics as KeyMetrics<D>>::Key;

/// What a [`ProbTree`] entry stores about an object's PCRs — the one axis
/// along which the paper's two structures differ. Sealed: [`Cfbs`] (the
/// U-tree) and [`crate::upcr::Pcrs`] (U-PCR) are the only payloads.
pub trait FilterPayload<const D: usize>: sealed::Sealed {
    /// Summed R* metrics over the payload's bounding key.
    type Metrics: KeyMetrics<D>;
    /// The leaf entry.
    type Leaf: LeafRecord<KeyOf<D, Self>> + RankLeaf<D>;
    /// The on-page node codec.
    type Codec: NodeCodec<KeyOf<D, Self>, Self::Leaf>;
    /// The per-object filter data a leaf entry carries.
    type Data;

    /// The structure tag in a saved index's metadata.
    const KIND: u8;
    /// Human-readable backend name (see [`crate::IndexBackend::NAME`]).
    const NAME: &'static str;

    /// The paper's Sec 6.2 default catalog for this structure.
    fn default_catalog() -> UCatalog;
    /// Metrics bound to a catalog.
    fn metrics(catalog: Arc<UCatalog>) -> Self::Metrics;
    /// Codec bound to a catalog.
    fn codec(catalog: Arc<UCatalog>) -> Self::Codec;
    /// Computes an object's filter data, already rounded to its on-page
    /// values, plus the nanoseconds spent on PCRs and on CFB fitting.
    fn compute(pdf: &ObjectPdf<D>, catalog: &UCatalog) -> (Self::Data, u128, u128);
    /// Assembles a leaf entry.
    fn leaf(
        data: Self::Data,
        mbr: Rect<D>,
        addr: RecordAddr,
        id: u64,
        catalog: &UCatalog,
    ) -> Self::Leaf;
    /// The key a leaf entry built from `data` contributes to its node
    /// (locates the entry at delete time).
    fn probe_key(data: &Self::Data, catalog: &UCatalog) -> KeyOf<D, Self>;
    /// `e.MBR(p_j)` of an intermediate key; `frac` is the catalog's
    /// interpolation fraction of `p_j` (Eq. 15).
    fn key_rect(key: &KeyOf<D, Self>, j: usize, frac: f64) -> Rect<D>;
    /// The leaf entry's conservative view of the object's PCRs.
    fn access<'a>(leaf: &'a Self::Leaf, catalog: &'a UCatalog) -> impl PcrAccess<D> + 'a;
}

/// The U-tree payload (Sec 4.3–4.4): two conservative functional boxes per
/// object, `(MBR⊥, MBR̄)` pairs in intermediate entries.
#[derive(Debug, Clone, Copy)]
pub enum Cfbs {}

impl<const D: usize> FilterPayload<D> for Cfbs {
    type Metrics = UMetrics<D>;
    type Leaf = ULeafEntry<D>;
    type Codec = UCodec<D>;
    type Data = CfbPair<D>;

    const KIND: u8 = persist::KIND_UTREE;
    const NAME: &'static str = "u-tree";

    fn default_catalog() -> UCatalog {
        UCatalog::paper_utree_default()
    }

    fn metrics(catalog: Arc<UCatalog>) -> UMetrics<D> {
        UMetrics::new(catalog)
    }

    fn codec(catalog: Arc<UCatalog>) -> UCodec<D> {
        UCodec::new(catalog)
    }

    fn compute(pdf: &ObjectPdf<D>, catalog: &UCatalog) -> (CfbPair<D>, u128, u128) {
        let t0 = Instant::now();
        let pcrs = PcrSet::compute(pdf, catalog);
        let pcr_nanos = t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let cfbs = fit_cfb_pair(&pcrs, catalog);
        (cfbs, pcr_nanos, t1.elapsed().as_nanos())
    }

    fn leaf(
        cfbs: CfbPair<D>,
        mbr: Rect<D>,
        addr: RecordAddr,
        id: u64,
        catalog: &UCatalog,
    ) -> ULeafEntry<D> {
        ULeafEntry::new(cfbs, mbr, addr, id, catalog)
    }

    fn probe_key(cfbs: &CfbPair<D>, catalog: &UCatalog) -> UKey<D> {
        ULeafEntry::key_of(cfbs, catalog)
    }

    fn key_rect(key: &UKey<D>, _j: usize, frac: f64) -> Rect<D> {
        key.interp(frac)
    }

    fn access<'a>(leaf: &'a ULeafEntry<D>, catalog: &'a UCatalog) -> impl PcrAccess<D> + 'a {
        CfbView {
            pair: &leaf.cfbs,
            catalog,
        }
    }
}

/// The paper's index, generic over what its entries store
/// ([`FilterPayload`]) and where its pages live ([`PageStore`]): an
/// R*-tree derivative over the payload's bounding keys, plus the
/// object-detail heap file its leaf entries point into. [`UTree`] and
/// [`crate::UPcrTree`] are its two instantiations.
///
/// Construction goes through [`ProbTree::builder`] (shared with the other
/// backends); queries through the fluent [`Query`] API. Both are available
/// generically via the [`ProbIndex`] trait.
///
/// The default store is the in-memory [`PageFile`]; [`ProbTree::open`]
/// yields a disk-backed tree (aliases `DiskUTree` / `DiskUPcrTree`)
/// reading a [`ProbTree::save`]d index cold from disk through a bounded
/// LRU cache over a crash-safe write-ahead log — updates become durable
/// via [`ProbTree::commit`], and reopening after a crash recovers
/// a committed prefix. Query results are byte-identical across backends —
/// only the I/O cost model changes.
///
/// ```
/// use utree::{ProbIndex, Provenance, Query, Refine, UTree};
/// use uncertain_geom::{Point, Rect};
/// use uncertain_pdf::{ObjectPdf, UncertainObject};
///
/// let mut tree = UTree::<2>::builder().uniform_catalog(6).build()?;
/// tree.insert(&UncertainObject::new(
///     1,
///     ObjectPdf::UniformBall { center: Point::new([50.0, 50.0]), radius: 10.0 },
/// ));
///
/// let outcome = Query::range(Rect::new([30.0, 30.0], [70.0, 70.0]))
///     .threshold(0.9)
///     .refine(Refine::reference(1e-8))
///     .run(&tree)?;
/// assert_eq!(outcome.ids(), vec![1]);
/// // The containing query certifies the object without integration:
/// assert_eq!(outcome.matches[0].provenance, Provenance::Validated);
/// assert_eq!(outcome.stats.prob_computations, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ProbTree<const D: usize, P: FilterPayload<D>, S: PageStore = PageFile> {
    tree: RStarTreeBase<D, P::Metrics, P::Leaf, P::Codec, S>,
    heap: ObjectHeap<S>,
    catalog: Arc<UCatalog>,
}

/// The U-tree (paper Sec 5): a fully dynamic, disk-based index for
/// multi-dimensional uncertain data with arbitrary pdfs — the
/// [`ProbTree`] over conservative functional boxes.
pub type UTree<const D: usize, S = PageFile> = ProbTree<D, Cfbs, S>;

impl<const D: usize, P: FilterPayload<D>> ProbTree<D, P> {
    /// Fluent fallible construction (see [`IndexBuilder`]).
    pub fn builder() -> IndexBuilder<D, Self> {
        IndexBuilder::new()
    }

    /// An empty in-memory tree over the given catalog.
    ///
    /// # Panics
    ///
    /// If an entry over `catalog` leaves a node page fewer than
    /// [`rstar_base::MIN_FANOUT`] entries (U-PCR with a large catalog);
    /// [`ProbTree::builder`] returns [`crate::IndexError::CatalogTooLarge`]
    /// instead.
    pub fn new(catalog: UCatalog) -> Self {
        Self::with_config(catalog, TreeConfig::default())
    }

    /// An empty in-memory tree with explicit R* tuning.
    ///
    /// # Panics
    ///
    /// As [`ProbTree::new`], on a catalog too large for a node page.
    pub fn with_config(catalog: UCatalog, cfg: TreeConfig) -> Self {
        Self::with_stores(catalog, cfg, PageFile::new(), PageFile::new())
    }
}

impl<const D: usize, P: FilterPayload<D>, S: PageStore> ProbTree<D, P, S> {
    /// An empty tree over caller-supplied node and heap stores.
    pub fn with_stores(catalog: UCatalog, cfg: TreeConfig, node_store: S, heap_store: S) -> Self {
        let catalog = Arc::new(catalog);
        let metrics = P::metrics(catalog.clone());
        let codec = P::codec(catalog.clone());
        Self {
            tree: RStarTreeBase::with_store(node_store, metrics, codec, cfg)
                // xlint: allow(panic-freedom) -- invariant: node store failed while formatting an empty tree
                .expect("node store failed while formatting an empty tree"),
            heap: ObjectHeap::with_store(heap_store),
            catalog,
        }
    }
}

impl<const D: usize, P: FilterPayload<D>> ProbTree<D, P, DiskStore> {
    /// Opens a [`ProbTree::save`]d index directory, reading node and heap
    /// pages from disk through two LRU buffer pools of `buffer_pages`
    /// frames each. The directory must hold this payload's structure at
    /// this dimensionality.
    ///
    /// The returned tree answers queries byte-identically to the one that
    /// was saved; its logical I/O counters behave exactly like the
    /// in-memory tree's, while the pools' backend counters report the
    /// physical reads that actually hit the disk files.
    pub fn open<Q: AsRef<Path>>(dir: Q, buffer_pages: usize) -> io::Result<Self> {
        let dir = dir.as_ref();
        let (meta, index, heap) = persist::open_parts(dir, P::KIND, D, buffer_pages)?;
        let catalog = Arc::new(UCatalog::try_new(meta.catalog).map_err(persist::invalid_data)?);
        Self::from_recovered(meta.cfg, meta.shape, catalog, index, heap, &dir.display())
    }

    /// Assembles a disk-backed tree over recovered stores — the tail of
    /// `open`, shared with the multi-index catalog (which recovers many
    /// segments against one log before assembling any tree) — refusing a
    /// shape that points outside them (`origin` labels the error).
    pub(crate) fn from_recovered(
        cfg: TreeConfig,
        shape: persist::TreeShape,
        catalog: Arc<UCatalog>,
        index: DiskStore,
        heap: DiskStore,
        origin: &dyn std::fmt::Display,
    ) -> io::Result<Self> {
        shape.check(&index, &heap, origin)?;
        let metrics = P::metrics(catalog.clone());
        let codec = P::codec(catalog.clone());
        Ok(Self {
            tree: RStarTreeBase::from_raw_parts(
                index,
                shape.root,
                shape.height,
                shape.len,
                metrics,
                codec,
                cfg,
            ),
            heap: ObjectHeap::from_raw_parts(heap, shape.heap_open_page),
            catalog,
        })
    }

    /// Commits every update since the last commit as **one atomic WAL
    /// batch**: dirty index and heap pages, allocation changes and the
    /// tree metadata, sealed by a single commit marker — after a crash,
    /// recovery lands on a batch boundary, never between the index and its
    /// heap. The log is fsynced before this returns, so the batch is
    /// durable on return. Uncommitted updates of a dropped tree roll back.
    pub fn commit(&mut self) -> io::Result<()> {
        let meta = persist::encode_meta(&self.saved_meta());
        let wal = self.wal_handle();
        commit_group(&wal, &mut self.journals()?, Some(&meta))
    }

    /// This tree's share of a WAL batch, ready for [`commit_group`]: pool
    /// frames are written back into the journaling stores (nothing reaches
    /// the backing files here) and the two stores are handed out, index
    /// first. The multi-index catalog collects *every* tree's pair and
    /// commits them under a single marker, so an all-indexes commit
    /// recovers atomically.
    pub(crate) fn journals(&mut self) -> io::Result<[&mut WalStore<DiskPageFile>; 2]> {
        self.tree.store_mut().write_back()?;
        self.heap.file_mut().write_back()?;
        Ok([
            self.tree.store_mut().backend_mut(),
            self.heap.file_mut().backend_mut(),
        ])
    }

    fn wal_handle(&mut self) -> Arc<Mutex<Wal>> {
        self.tree.store_mut().backend_mut().wal_handle()
    }

    /// Durably commits, rewrites the full snapshot (`index.pg`, `heap.pg`,
    /// `meta.bin`) of this tree's own directory, and truncates the log —
    /// bounding recovery time and log growth (`persist::checkpoint`).
    /// Readers of the old snapshot files keep their inodes; this tree
    /// continues on the log as usual.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let dir = self
            .tree
            .store()
            .backing_path()
            .and_then(|p| p.parent().map(|d| d.to_path_buf()))
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "tree has no backing directory")
            })?;
        let wal = self.wal_handle();
        persist::checkpoint(self, &wal, Self::commit, |t| {
            persist::save_index(&dir, &t.saved_meta(), t.tree.store(), t.heap.file())
        })
    }

    /// Number of log fsyncs since open (every commit syncs once).
    pub fn wal_sync_count(&mut self) -> u64 {
        self.wal_handle()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sync_count()
    }
}

/// An object's MBR as stored in its leaf entry: f32-exact, rounded
/// outward.
pub(crate) fn storable_mbr<const D: usize>(pdf: &ObjectPdf<D>) -> Rect<D> {
    let raw = pdf.mbr();
    let mut mbr = raw;
    for i in 0..D {
        mbr.min[i] = f32_round_down(raw.min[i]);
        mbr.max[i] = f32_round_up(raw.max[i]);
    }
    mbr
}

impl<const D: usize, P: FilterPayload<D>, S: PageStore> ProbTree<D, P, S> {
    /// The superstructure record that `meta.bin` and every WAL commit
    /// carry.
    pub(crate) fn saved_meta(&self) -> persist::SavedMeta {
        persist::SavedMeta {
            kind: P::KIND,
            dims: D as u8,
            catalog: self.catalog.values().to_vec(),
            cfg: self.tree.config(),
            shape: persist::TreeShape {
                root: self.tree.root_page(),
                height: self.tree.height(),
                len: self.tree.len(),
                heap_open_page: self.heap.open_page(),
            },
        }
    }

    /// Saves the index as a directory (`index.pg`, `heap.pg`, `meta.bin`)
    /// that [`ProbTree::open`] can reopen cold. Node and heap pages are
    /// copied verbatim — they are already in on-page codec format — and
    /// the superstructure (structure tag, catalog, R* tuning,
    /// root/height/len) goes into the metadata file.
    pub fn save<Q: AsRef<Path>>(&self, dir: Q) -> io::Result<()> {
        // A disk-backed tree must not snapshot over its own live directory
        // (the snapshot would disagree with the WAL next to it); that's
        // what `checkpoint()` is for.
        persist::reject_live_dir(self.tree.store(), dir.as_ref())?;
        persist::save_index(
            dir.as_ref(),
            &self.saved_meta(),
            self.tree.store(),
            self.heap.file(),
        )
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &UCatalog {
        &self.catalog
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Index size in bytes (node pages only — Table 1's metric).
    pub fn index_size_bytes(&self) -> u64 {
        self.tree.size_bytes()
    }

    /// Heap (object detail) size in bytes.
    pub fn heap_size_bytes(&self) -> u64 {
        self.heap.size_bytes()
    }

    /// Structure statistics of the index. Fallible: walking the node
    /// pages goes through the store, whose errors surface typed instead
    /// of panicking.
    pub fn tree_stats(&self) -> io::Result<TreeStats> {
        self.tree.stats()
    }

    /// R-tree invariant check (tests); a violation is `InvalidData`.
    pub fn check_invariants(&self) -> io::Result<()> {
        self.tree.check_invariants()
    }

    /// Inserts an object: computes its filter payload, stores the pdf
    /// record in the heap, and inserts the leaf entry (R* insertion with
    /// summed metrics). Object ids must be unique.
    pub fn insert(&mut self, obj: &UncertainObject<D>) -> InsertStats {
        let (data, pcr_nanos, lp_nanos) = P::compute(&obj.pdf, &self.catalog);
        let addr = self
            .heap
            .insert(&encode_object(obj))
            // xlint: allow(panic-freedom) -- invariant: heap store failed during insert
            .expect("heap store failed during insert");
        let entry = P::leaf(data, storable_mbr(&obj.pdf), addr, obj.id, &self.catalog);
        let reads0 = self.tree.io_stats().reads();
        let writes0 = self.tree.io_stats().writes();
        self.tree
            .insert(entry)
            // xlint: allow(panic-freedom) -- invariant: index store failed during insert
            .expect("index store failed during insert");
        InsertStats {
            pcr_nanos,
            lp_nanos,
            io_reads: self.tree.io_stats().reads() - reads0,
            io_writes: self.tree.io_stats().writes() - writes0,
        }
    }

    /// Deletes an object (the caller supplies the same object that was
    /// inserted; its filter payload is recomputed deterministically to
    /// locate the entry). Returns `true` when found.
    pub fn delete(&mut self, obj: &UncertainObject<D>) -> bool {
        let (data, _, _) = P::compute(&obj.pdf, &self.catalog);
        let probe = P::probe_key(&data, &self.catalog);
        match self
            .tree
            .delete(&probe, obj.id)
            // xlint: allow(panic-freedom) -- invariant: index store failed during delete
            .expect("index store failed during delete")
        {
            Some(entry) => {
                self.heap
                    .remove(entry.addr())
                    // xlint: allow(panic-freedom) -- invariant: heap store failed during delete
                    .expect("heap store failed during delete");
                true
            }
            None => false,
        }
    }

    /// Bulk-loads an empty tree with **Sort-Tile-Recursive packing**: the
    /// objects are STR-ordered by the centres of their stored MBRs, then
    /// each object in that order has its filter payload computed, its heap
    /// record appended (leaf-adjacent objects share heap pages) and its
    /// leaf entry written; the index is built bottom-up from those entries
    /// with leaves at full fan-out — no R*-splits, no re-insertions, and a
    /// level-contiguous page layout that [`ProbTree::save`]/[`ProbTree::open`]
    /// serve read-optimised. Nothing but the input items (references, for
    /// borrowed input), one `(centre, position)` pair per object and the
    /// leaf entries is held at once.
    ///
    /// On a non-empty tree this falls back to the plain insert loop (the
    /// packed build assumes it owns the page file). Either way the
    /// returned [`InsertStats`] reports **build-level totals measured once
    /// per phase** — PCR and CFB wall-clock accumulate each object's
    /// breakdown exactly once, and the I/O counters are a single delta
    /// around the whole build.
    pub fn bulk_load<It>(&mut self, objs: It) -> InsertStats
    where
        It: IntoIterator,
        It::Item: Borrow<UncertainObject<D>>,
    {
        if !self.is_empty() {
            let mut acc = InsertStats::default();
            for obj in objs {
                acc += &self.insert(obj.borrow());
            }
            return acc;
        }
        let objs: Vec<It::Item> = objs.into_iter().collect();
        if objs.is_empty() {
            return InsertStats::default();
        }
        let mut order: Vec<([f64; D], usize)> = objs
            .iter()
            .enumerate()
            .map(|(k, obj)| (storable_mbr(&obj.borrow().pdf).center().coords, k))
            .collect();
        let leaf_cap = self.tree.codec().leaf_capacity();
        str_order_by(&mut order, leaf_cap, &|t: &([f64; D], usize)| t.0);
        let mut pcr_nanos = 0u128;
        let mut lp_nanos = 0u128;
        let reads0 = self.tree.io_stats().reads();
        let writes0 = self.tree.io_stats().writes();
        let mut records: Vec<P::Leaf> = Vec::with_capacity(order.len());
        for (_, k) in order {
            let obj = objs[k].borrow();
            let (data, p, l) = P::compute(&obj.pdf, &self.catalog);
            pcr_nanos += p;
            lp_nanos += l;
            let addr = self
                .heap
                .insert(&encode_object(obj))
                // xlint: allow(panic-freedom) -- invariant: heap store failed during bulk load
                .expect("heap store failed during bulk load");
            records.push(P::leaf(
                data,
                storable_mbr(&obj.pdf),
                addr,
                obj.id,
                &self.catalog,
            ));
        }
        self.tree
            .bulk_rebuild_ordered(records)
            // xlint: allow(panic-freedom) -- invariant: index store failed during bulk load
            .expect("index store failed during bulk load");
        InsertStats {
            pcr_nanos,
            lp_nanos,
            io_reads: self.tree.io_stats().reads() - reads0,
            io_writes: self.tree.io_stats().writes() - writes0,
        }
    }

    /// [`ProbIndex::execute`], callable without importing the trait.
    pub fn execute(&self, query: &Query<D>) -> QueryOutcome {
        ProbIndex::execute(self, query)
    }

    /// [`ProbTree::try_execute_with`], panicking on storage failure.
    pub fn execute_with(&self, query: &Query<D>, ctx: &mut QueryCtx) -> QueryOutcome {
        or_panic(self.try_execute_with(query, ctx))
    }

    /// Executes a prob-range query with caller-owned scratch state.
    ///
    /// Filter step: subtrees are pruned with Observation 4
    /// (`r_q ∩ e.MBR(p_j) = ∅` for the largest catalog value `p_j <= p_q`
    /// — interpolated from the U-tree's key, stored verbatim in U-PCR's);
    /// leaf entries are pruned/validated with Observation 3 over the
    /// payload's PCR view (Observation 2 when the PCRs are exact).
    /// Refinement: the remaining candidates' appearance probabilities are
    /// evaluated, one heap I/O per page (Sec 5.2).
    ///
    /// Execution is read-only on the tree (`&self` end-to-end); all
    /// per-query mutable state lives in `ctx`, so a shared tree serves
    /// concurrent queries — one context per thread. `ctx.stats.node_reads`
    /// counts this traversal's own page loads (not a delta of the shared
    /// I/O counters), so per-query stats stay exact however many queries
    /// run at once.
    ///
    /// Callers usually reach this through
    /// [`crate::api::QueryBuilder::run`] or [`ProbIndex::execute`]; a
    /// storage failure mid-traversal surfaces as [`IndexError::Io`].
    pub fn try_execute_with(
        &self,
        query: &Query<D>,
        ctx: &mut QueryCtx,
    ) -> Result<QueryOutcome, IndexError> {
        ctx.begin();
        let rq = query.region();
        let pq = query.threshold();
        let mode = query.refine_mode();
        let opts = query.options();
        // Observation 4 index: p_j = largest catalog value <= p_q
        // (p₁ = 0 guarantees existence; clamp defensively otherwise).
        let j = if opts.observation4 {
            self.catalog
                .largest_leq(pq + crate::filter::PROB_EPS)
                .unwrap_or(0)
        } else {
            0 // e.MBR(p₁=0) covers every object's MBR: plain R-tree pruning
        };
        let frac = self.catalog.fraction(j);
        // One catalog-lookup plan for the whole traversal; per-entry
        // filtering is pure rectangle arithmetic.
        let plan = crate::filter::PreparedQuery::new(&self.catalog, rq, pq);

        let t0 = Instant::now();
        let nodes_read = {
            let QueryCtx {
                stats,
                validated,
                candidates,
                stack,
                ..
            } = &mut *ctx;
            self.tree.visit_with(
                stack,
                |key, _| rq.intersects(&P::key_rect(key, j, frac)),
                |rec| {
                    let outcome = if opts.leaf_filter {
                        let view = P::access(rec, &self.catalog);
                        crate::filter::filter_object_planned(&view, rec.mbr(), &plan)
                    } else if rec.mbr().intersects(rq) {
                        FilterOutcome::Candidate
                    } else {
                        FilterOutcome::Pruned
                    };
                    let outcome = match outcome {
                        FilterOutcome::Validated if !opts.validation => FilterOutcome::Candidate,
                        other => other,
                    };
                    stats.visited += 1;
                    match outcome {
                        FilterOutcome::Pruned => stats.pruned += 1,
                        FilterOutcome::Validated => {
                            stats.validated += 1;
                            validated.push(rec.oid());
                        }
                        FilterOutcome::Candidate => candidates.push((rec.addr(), rec.oid())),
                    }
                },
            )?
        };
        ctx.stats.filter_nanos = t0.elapsed().as_nanos();
        ctx.stats.node_reads = nodes_read;
        ctx.stats.candidates = ctx.candidates.len() as u64;
        ctx.stats.results = ctx.validated.len() as u64;

        let t1 = Instant::now();
        refine_ctx(&self.heap, rq, pq, mode, ctx)?;
        ctx.stats.refine_nanos = t1.elapsed().as_nanos();
        Ok(outcome_from_ctx(ctx))
    }

    /// [`ProbIndex::try_rank_topk_with`] with a throwaway context,
    /// panicking on storage failure.
    pub fn rank_topk(&self, query: &RankQuery<D>) -> RankOutcome {
        ProbIndex::rank_topk(self, query)
    }

    /// Visits every leaf entry (diagnostics / baselines).
    pub fn for_each_entry<F: FnMut(&P::Leaf)>(&self, f: F) {
        self.tree
            .for_each_record(f)
            // xlint: allow(panic-freedom) -- invariant: index store failed during scan
            .expect("index store failed during scan");
    }

    /// Total index-file page accesses (reads + writes) since the last
    /// [`Self::reset_io`] — the harness's update-cost metric.
    pub fn io_counters(&self) -> u64 {
        self.tree.io_stats().total()
    }

    /// Resets the index I/O counters (harness use).
    pub fn reset_io(&self) {
        self.tree.io_stats().reset();
        self.heap.file().stats().reset();
    }

    /// Direct read access to the heap (shared by baselines in benches).
    pub fn heap(&self) -> &ObjectHeap<S> {
        &self.heap
    }

    /// Direct read access to the node store (buffer-pool statistics,
    /// backend counters).
    pub fn node_store(&self) -> &S {
        self.tree.store()
    }
}

impl<const D: usize, P: FilterPayload<D>, S: PageStore> ProbIndex<D> for ProbTree<D, P, S> {
    fn insert(&mut self, obj: &UncertainObject<D>) -> InsertStats {
        ProbTree::insert(self, obj)
    }

    fn delete(&mut self, obj: &UncertainObject<D>) -> bool {
        ProbTree::delete(self, obj)
    }

    fn len(&self) -> usize {
        ProbTree::len(self)
    }

    fn index_size_bytes(&self) -> u64 {
        ProbTree::index_size_bytes(self)
    }

    fn heap_size_bytes(&self) -> u64 {
        ProbTree::heap_size_bytes(self)
    }

    fn io_counters(&self) -> u64 {
        ProbTree::io_counters(self)
    }

    fn reset_io(&self) {
        ProbTree::reset_io(self)
    }

    fn try_execute_with(
        &self,
        query: &Query<D>,
        ctx: &mut QueryCtx,
    ) -> Result<QueryOutcome, IndexError> {
        ProbTree::try_execute_with(self, query, ctx)
    }

    /// Best-first descent: intermediate entries are ordered by the graded
    /// Observation-4 bound — the smallest catalog value `p_j` whose
    /// `e.MBR(p_j)` misses `r_q` caps every subtree object's appearance
    /// probability at `p_j` — and leaf entries by the
    /// [`crate::filter::prob_bounds_planned`] of the payload's PCR view. A
    /// candidate is only refined while its upper bound still beats the
    /// current k-th lower bound, so most probability computations are
    /// skipped.
    fn try_rank_topk_with(
        &self,
        query: &RankQuery<D>,
        ctx: &mut QueryCtx,
    ) -> Result<RankOutcome, IndexError> {
        let rq = *query.region();
        let levels: Vec<(f64, f64)> = (0..self.catalog.len())
            .map(|j| (self.catalog.value(j), self.catalog.fraction(j)))
            .collect();
        let plan = crate::filter::PreparedQuery::ranking(&self.catalog, &rq);
        Ok(crate::rank::rank_best_first(
            &self.tree,
            &self.heap,
            query,
            ctx,
            |key: &KeyOf<D, P>| {
                let mut bound = 1.0f64;
                for (j, &(pj, frac)) in levels.iter().enumerate() {
                    if !rq.intersects(&P::key_rect(key, j, frac)) {
                        bound = bound.min(pj);
                    }
                }
                bound
            },
            |rec: &P::Leaf| {
                let view = P::access(rec, &self.catalog);
                crate::filter::prob_bounds_planned(&view, rec.mbr(), &plan)
            },
        )?)
    }

    fn bulk_load<It>(&mut self, objs: It) -> InsertStats
    where
        It: IntoIterator,
        It::Item: Borrow<UncertainObject<D>>,
    {
        ProbTree::bulk_load(self, objs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryStats, Refine};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uncertain_geom::Point;

    /// A range query with quadrature refinement at tolerance `tol`, run
    /// through `execute`.
    fn run<const D: usize, P: FilterPayload<D>>(
        tree: &ProbTree<D, P>,
        rq: Rect<D>,
        pq: f64,
        tol: f64,
    ) -> (Vec<u64>, QueryStats) {
        let q = Query::range(rq).threshold(pq);
        let out = tree.execute(&q.refine(Refine::reference(tol)).build().unwrap());
        (out.ids(), out.stats)
    }

    fn ball(id: u64, x: f64, y: f64, r: f64) -> UncertainObject<2> {
        UncertainObject::new(
            id,
            ObjectPdf::UniformBall {
                center: Point::new([x, y]),
                radius: r,
            },
        )
    }

    fn build_random(n: usize, seed: u64) -> (UTree<2>, Vec<UncertainObject<2>>) {
        build_random_in(n, seed)
    }

    fn build_random_in<P: FilterPayload<2>>(
        n: usize,
        seed: u64,
    ) -> (ProbTree<2, P>, Vec<UncertainObject<2>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tree = ProbTree::new(UCatalog::uniform(8));
        let mut objs = Vec::new();
        for id in 0..n as u64 {
            let o = ball(
                id,
                rng.gen_range(300.0..9700.0),
                rng.gen_range(300.0..9700.0),
                rng.gen_range(50.0..250.0),
            );
            tree.insert(&o);
            objs.push(o);
        }
        (tree, objs)
    }

    #[test]
    fn empty_tree_query() {
        let tree = UTree::<2>::new(UCatalog::uniform(4));
        let (ids, stats) = run(&tree, Rect::new([0.0, 0.0], [100.0, 100.0]), 0.5, 1e-8);
        assert!(ids.is_empty());
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn single_object_hit_and_miss() {
        let mut tree = UTree::<2>::new(UCatalog::uniform(6));
        tree.insert(&ball(7, 500.0, 500.0, 100.0));
        // Fully containing query at high threshold: hit, and validated
        // without probability computation.
        let (ids, stats) = run(&tree, Rect::new([300.0, 300.0], [700.0, 700.0]), 0.95, 1e-8);
        assert_eq!(ids, vec![7]);
        assert_eq!(stats.validated, 1);
        assert_eq!(stats.prob_computations, 0);
        // Disjoint query: pruned without probability computation.
        let (ids2, stats2) = run(
            &tree,
            Rect::new([5000.0, 5000.0], [6000.0, 6000.0]),
            0.1,
            1e-8,
        );
        assert!(ids2.is_empty());
        assert_eq!(stats2.prob_computations, 0);
    }

    #[test]
    fn query_matches_brute_force_ground_truth() {
        let (tree, objs) = build_random(400, 11);
        tree.check_invariants().unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        for qi in 0..30 {
            let cx = rng.gen_range(500.0..9500.0);
            let cy = rng.gen_range(500.0..9500.0);
            let side = rng.gen_range(200.0..1500.0);
            let pq = rng.gen_range(0.05..0.95);
            let rq = Rect::cube(&Point::new([cx, cy]), side);
            let (mut got, _) = run(&tree, rq, pq, 1e-9);
            got.sort_unstable();
            // Brute force with the same reference evaluator; skip objects
            // whose true probability is within ε of the threshold (filter
            // boundaries are open to either interpretation there).
            let mut expect = Vec::new();
            let mut near_boundary = Vec::new();
            for o in &objs {
                let p = uncertain_pdf::appearance_reference(&o.pdf, &rq, 1e-9);
                if (p - pq).abs() < 1e-4 {
                    near_boundary.push(o.id);
                } else if p >= pq {
                    expect.push(o.id);
                }
            }
            let got_filtered: Vec<u64> = got
                .iter()
                .copied()
                .filter(|id| !near_boundary.contains(id))
                .collect();
            assert_eq!(
                got_filtered, expect,
                "query {qi} mismatch (rq={rq:?}, pq={pq})"
            );
        }
    }

    #[test]
    fn rank_topk_matches_brute_force_ranking() {
        let (tree, objs) = build_random(400, 11);
        let mut rng = SmallRng::seed_from_u64(8);
        for qi in 0..12 {
            let c = Point::new([rng.gen_range(1000.0..9000.0), rng.gen_range(1000.0..9000.0)]);
            let rq = Rect::cube(&c, rng.gen_range(500.0..3000.0));
            let k = rng.gen_range(1..12);
            let q = Query::range(rq)
                .top(k)
                .refine(Refine::reference(1e-9))
                .build()
                .unwrap();
            let out = tree.rank_topk(&q);
            // Brute-force oracle with the index's own probability rule:
            // objects whose (f32-outward-rounded, as stored) MBR is
            // contained in r_q are pinned to 1; everything else gets the
            // reference quadrature; zero-probability objects never rank.
            let mut expect: Vec<(f64, u64)> = objs
                .iter()
                .filter_map(|o| {
                    let raw = o.pdf.mbr();
                    let mbr = Rect {
                        min: [f32_round_down(raw.min[0]), f32_round_down(raw.min[1])],
                        max: [f32_round_up(raw.max[0]), f32_round_up(raw.max[1])],
                    };
                    let p = if rq.contains_rect(&mbr) {
                        1.0
                    } else {
                        uncertain_pdf::appearance_reference(&o.pdf, &rq, 1e-9)
                    };
                    (p > 0.0).then_some((p, o.id))
                })
                .collect();
            expect.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            expect.truncate(k);
            let got: Vec<(f64, u64)> = out.matches.iter().map(|m| (m.p, m.id)).collect();
            assert_eq!(got, expect, "query {qi}: rq={rq:?} k={k}");
            // The ranking is ordered and internally consistent.
            assert!(out
                .matches
                .windows(2)
                .all(|w| w[0].p > w[1].p || (w[0].p == w[1].p && w[0].id < w[1].id)));
            assert!(out.stats.prob_computations <= out.stats.candidates);
            assert_eq!(out.stats.results, out.matches.len() as u64);
        }
    }

    #[test]
    fn rank_topk_skips_most_probability_computations() {
        let (tree, _) = build_random(1500, 23);
        let q = Query::range(Rect::new([2000.0, 2000.0], [7000.0, 7000.0]))
            .top(10)
            .refine(Refine::reference(1e-8))
            .build()
            .unwrap();
        let out = tree.rank_topk(&q);
        assert_eq!(out.len(), 10);
        // The point of the bounded traversal: of the many candidates the
        // region touches, only the contenders for the top 10 are refined.
        assert!(
            out.stats.prob_computations < out.stats.candidates,
            "refined {} of {} candidates — lazy refinement is not lazy",
            out.stats.prob_computations,
            out.stats.candidates
        );
    }

    #[test]
    fn filter_avoids_most_probability_computations() {
        let (tree, _) = build_random(1500, 23);
        let (ids, stats) = run(
            &tree,
            Rect::new([3000.0, 3000.0], [5000.0, 5000.0]),
            0.6,
            1e-8,
        );
        assert!(!ids.is_empty());
        // The entire point of the paper: most decided objects never reach
        // the integrator.
        let decided = stats.pruned + stats.validated;
        assert!(
            decided > stats.prob_computations,
            "filter decided {decided}, refined {} — filtering is broken",
            stats.prob_computations
        );
    }

    #[test]
    fn delete_then_query() {
        let (mut tree, objs) = build_random(300, 31);
        for o in objs.iter().take(150) {
            assert!(tree.delete(o), "object {} must be deletable", o.id);
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 150);
        // Deleted objects never appear in results.
        let (ids, _) = run(
            &tree,
            Rect::new([0.0, 0.0], [10_000.0, 10_000.0]),
            0.01,
            1e-8,
        );
        for o in objs.iter().take(150) {
            assert!(!ids.contains(&o.id), "deleted {} still reported", o.id);
        }
        for o in objs.iter().skip(150) {
            assert!(ids.contains(&o.id), "surviving {} lost", o.id);
        }
    }

    #[test]
    fn delete_missing_returns_false() {
        let (mut tree, objs) = build_random(50, 41);
        let ghost = ball(9999, 5000.0, 5000.0, 100.0);
        assert!(!tree.delete(&ghost));
        assert!(tree.delete(&objs[0]));
        assert!(!tree.delete(&objs[0]), "double delete must fail");
    }

    #[test]
    fn mixed_pdf_types_coexist() {
        let mut tree = UTree::<2>::new(UCatalog::uniform(8));
        tree.insert(&ball(1, 1000.0, 1000.0, 200.0));
        tree.insert(&UncertainObject::new(
            2,
            ObjectPdf::ConGauBall {
                center: Point::new([1100.0, 1000.0]),
                radius: 200.0,
                sigma: 100.0,
            },
        ));
        tree.insert(&UncertainObject::new(
            3,
            ObjectPdf::UniformBox {
                rect: Rect::new([900.0, 900.0], [1300.0, 1300.0]),
            },
        ));
        let h = uncertain_pdf::HistogramPdf::from_fn(
            Rect::new([800.0, 800.0], [1200.0, 1200.0]),
            [8, 8],
            |p| 1.0 + (p.coords[0] - 800.0) / 400.0,
        );
        tree.insert(&UncertainObject::new(4, ObjectPdf::Histogram(h)));
        // A query around the cluster with a generous region takes all four.
        let (mut ids, _) = run(
            &tree,
            Rect::new([600.0, 600.0], [1500.0, 1500.0]),
            0.9,
            1e-8,
        );
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn ablated_queries_return_identical_results() {
        let utree = ablated_ids::<Cfbs>();
        assert!(!utree.is_empty());
        assert_eq!(utree, ablated_ids::<crate::upcr::Pcrs>());
    }

    /// The full-filter answer of one payload, after asserting that every
    /// ablation of it answers the same.
    fn ablated_ids<P: FilterPayload<2>>() -> Vec<u64> {
        let (tree, _) = build_random_in::<P>(500, 77);
        let q = Query::range(Rect::new([2500.0, 2500.0], [5000.0, 5500.0]))
            .threshold(0.55)
            .refine(Refine::reference(1e-8));
        let with = |opts| {
            let out = tree.execute(&q.options(opts).build().unwrap());
            (out.ids(), out.stats)
        };
        let (mut full, s_full) = with(QueryOptions::default());
        full.sort_unstable();
        for opts in [
            QueryOptions {
                observation4: false,
                ..QueryOptions::default()
            },
            QueryOptions {
                validation: false,
                ..QueryOptions::default()
            },
            QueryOptions {
                leaf_filter: false,
                validation: false,
                observation4: false,
            },
        ] {
            let (mut got, s) = with(opts);
            got.sort_unstable();
            assert_eq!(got, full, "ablation {opts:?} changed the answers");
            if !opts.validation {
                assert_eq!(s.validated, 0);
                assert!(s.prob_computations >= s_full.prob_computations);
            }
        }
        full
    }

    #[test]
    fn insert_stats_report_cpu_breakdown() {
        let mut tree = UTree::<2>::new(UCatalog::paper_utree_default());
        let stats = tree.insert(&ball(1, 5000.0, 5000.0, 250.0));
        assert!(stats.lp_nanos > 0, "CFB fitting time must be measured");
        assert!(stats.pcr_nanos > 0, "PCR time must be measured");
        assert!(stats.io_writes > 0, "insertion must write pages");
    }

    /// Delegates every metric to [`UMetrics`] but pins the split rectangle
    /// to an explicit catalog index — lets the test reproduce the
    /// pre-fix `m/2` split choice next to the corrected `⌈m/2⌉ − 1`.
    #[derive(Clone)]
    struct PinnedMedianMetrics {
        inner: UMetrics<2>,
        median: usize,
    }

    impl rstar_base::KeyMetrics<2> for PinnedMedianMetrics {
        type Key = UKey<2>;
        type OverlapProfile = Vec<Rect<2>>;

        fn overlap_profile(&self, k: &UKey<2>) -> Vec<Rect<2>> {
            self.inner.overlap_profile(k)
        }
        fn profile_overlap(&self, a: &Vec<Rect<2>>, b: &Vec<Rect<2>>) -> f64 {
            self.inner.profile_overlap(a, b)
        }
        fn union_with(&self, a: &mut UKey<2>, b: &UKey<2>) {
            self.inner.union_with(a, b)
        }
        fn empty_key(&self) -> UKey<2> {
            self.inner.empty_key()
        }
        fn area(&self, k: &UKey<2>) -> f64 {
            self.inner.area(k)
        }
        fn margin(&self, k: &UKey<2>) -> f64 {
            self.inner.margin(k)
        }
        fn overlap(&self, a: &UKey<2>, b: &UKey<2>) -> f64 {
            self.inner.overlap(a, b)
        }
        fn centroid_distance(&self, a: &UKey<2>, b: &UKey<2>) -> f64 {
            self.inner.centroid_distance(a, b)
        }
        fn split_rect(&self, k: &UKey<2>) -> Rect<2> {
            self.inner.rect_at(k, self.median)
        }
        fn covers(&self, outer: &UKey<2>, inner: &UKey<2>, tolerance: f64) -> bool {
            self.inner.covers(outer, inner, tolerance)
        }
    }

    #[test]
    fn corrected_median_split_does_not_regress() {
        use crate::cfb::fit_cfb_pair;
        use crate::entry::UCodec;
        use crate::key::UMetrics;
        use crate::pcr::PcrSet;
        use page_store::{PageFile, RecordAddr};

        // Even m: the paper's p_{⌈m/2⌉} is index 2, the pre-fix formula
        // picked index 3.
        let cat = Arc::new(UCatalog::uniform(6));
        assert_eq!(cat.median_index(), 2);
        let mut rng = SmallRng::seed_from_u64(4242);
        let entries: Vec<ULeafEntry<2>> = (0..700u64)
            .map(|id| {
                let pdf = ObjectPdf::UniformBall {
                    center: uncertain_geom::Point::new([
                        rng.gen_range(300.0..9700.0),
                        rng.gen_range(300.0..9700.0),
                    ]),
                    radius: rng.gen_range(50.0..300.0),
                };
                let pcrs = PcrSet::compute(&pdf, &cat);
                let cfbs = fit_cfb_pair(&pcrs, &cat);
                let raw = pdf.mbr();
                let mbr = Rect {
                    min: [f32_round_down(raw.min[0]), f32_round_down(raw.min[1])],
                    max: [f32_round_up(raw.max[0]), f32_round_up(raw.max[1])],
                };
                let addr = RecordAddr {
                    page: id / 40,
                    slot: (id % 40) as u16,
                };
                ULeafEntry::new(cfbs, mbr, addr, id, &cat)
            })
            .collect();

        let build = |median: usize| {
            let metrics = PinnedMedianMetrics {
                inner: UMetrics::new(cat.clone()),
                median,
            };
            let mut tree: RStarTreeBase<2, _, ULeafEntry<2>, _, PageFile> = RStarTreeBase::new(
                metrics,
                UCodec::<2>::new(cat.clone()),
                TreeConfig::default(),
            );
            for e in &entries {
                tree.insert(e.clone()).unwrap();
            }
            tree.check_invariants().unwrap();
            tree
        };
        let fixed = build(cat.median_index()); // ⌈m/2⌉ − 1 = 2
        let buggy = build(cat.len() / 2); // the old m/2 = 3

        // Same workload of Observation-4 descents against both trees;
        // compare total node reads (the split's whole job is to keep this
        // low) at the interpolation fractions queries actually use.
        let reads =
            |tree: &RStarTreeBase<2, PinnedMedianMetrics, ULeafEntry<2>, UCodec<2>, PageFile>| {
                let mut rng = SmallRng::seed_from_u64(77);
                let mut total = 0u64;
                for _ in 0..60 {
                    let c = uncertain_geom::Point::new([
                        rng.gen_range(500.0..9500.0),
                        rng.gen_range(500.0..9500.0),
                    ]);
                    let rq = Rect::cube(&c, rng.gen_range(300.0..2000.0));
                    for frac in [0.0, 0.4, 1.0] {
                        total += tree
                            .visit_with(
                                &mut Vec::new(),
                                |key, _| rq.intersects(&key.interp(frac)),
                                |_| {},
                            )
                            .unwrap();
                    }
                }
                total
            };
        let io_fixed = reads(&fixed);
        let io_buggy = reads(&buggy);
        // Equivalence bar: the corrected median must not make the split
        // measurably worse — same record count, invariants hold on both,
        // and the workload's traversal cost stays within 5% of the old
        // split's (it is typically at or below it).
        assert_eq!(fixed.len(), buggy.len());
        assert!(
            (io_fixed as f64) <= (io_buggy as f64) * 1.05,
            "median split regressed: {io_fixed} node reads vs {io_buggy} with the old index"
        );
    }

    #[test]
    fn three_dimensional_utree() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut tree = UTree::<3>::new(UCatalog::uniform(6));
        let mut objs = Vec::new();
        for id in 0..200u64 {
            let o: UncertainObject<3> = UncertainObject::new(
                id,
                ObjectPdf::UniformBall {
                    center: Point::new([
                        rng.gen_range(500.0..9500.0),
                        rng.gen_range(500.0..9500.0),
                        rng.gen_range(500.0..9500.0),
                    ]),
                    radius: 125.0,
                },
            );
            tree.insert(&o);
            objs.push(o);
        }
        tree.check_invariants().unwrap();
        let rq = Rect::new([2000.0, 2000.0, 2000.0], [6000.0, 6000.0, 6000.0]);
        let (mut got, _) = run(&tree, rq, 0.5, 1e-7);
        got.sort_unstable();
        let mut expect: Vec<u64> = objs
            .iter()
            .filter(|o| {
                let p = uncertain_pdf::appearance_reference(&o.pdf, &rq, 1e-7);
                (p - 0.5).abs() >= 1e-4 && p >= 0.5
            })
            .map(|o| o.id)
            .collect();
        expect.sort_unstable();
        let got_clean: Vec<u64> = got
            .into_iter()
            .filter(|id| {
                let o = &objs[*id as usize];
                let p = uncertain_pdf::appearance_reference(&o.pdf, &rq, 1e-7);
                (p - 0.5).abs() >= 1e-4
            })
            .collect();
        assert_eq!(got_clean, expect);
    }
}
