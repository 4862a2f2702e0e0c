//! Sequential-scan baseline (the strategy sketched at the start of Sec 5):
//! CFBs of all objects are stored in a packed file; a query scans every
//! page, applies Observation 3 per object, and refines the survivors.
//!
//! The U-tree's job is to beat this on I/O by pruning subtrees; the filter
//! power per object is identical, which makes this the perfect ablation
//! baseline. It implements the same [`ProbIndex`] contract as the trees,
//! so the harness and applications can swap it in transparently.

use crate::api::{
    outcome_from_ctx, IndexBuilder, IndexError, ProbIndex, Query, QueryOutcome, RankOutcome,
    RankQuery, RankedMatch,
};
use crate::catalog::UCatalog;
use crate::cfb::CfbView;
use crate::entry::{UCodec, ULeafEntry};
use crate::filter::FilterOutcome;
use crate::object_codec::encode_object;
use crate::query::{refine_ctx, QueryCtx, QueryStats};
use crate::tree::{storable_mbr, Cfbs, FilterPayload, InsertStats};
use page_store::{ObjectHeap, PageFile, PageId, PageStore};
use rstar_base::NodeCodec;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use uncertain_pdf::UncertainObject;

/// A flat file of CFB filter entries + the object heap.
pub struct SeqScan<const D: usize> {
    file: PageFile,
    pages: Vec<PageId>,
    /// Entries not yet flushed to a full page.
    open: Vec<ULeafEntry<D>>,
    codec: UCodec<D>,
    heap: ObjectHeap,
    catalog: Arc<UCatalog>,
    len: usize,
}

impl<const D: usize> SeqScan<D> {
    /// Fluent fallible construction (see [`IndexBuilder`]).
    pub fn builder() -> IndexBuilder<D, Self> {
        IndexBuilder::new()
    }

    /// An empty scan file over the given catalog.
    pub fn new(catalog: UCatalog) -> Self {
        let catalog = Arc::new(catalog);
        Self {
            file: PageFile::new(),
            pages: Vec::new(),
            open: Vec::new(),
            codec: UCodec::new(catalog.clone()),
            heap: ObjectHeap::new(),
            catalog,
            len: 0,
        }
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &UCatalog {
        &self.catalog
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Filter-file size in bytes (open tail counted as a page).
    pub fn size_bytes(&self) -> u64 {
        ((self.pages.len() + usize::from(!self.open.is_empty())) * page_store::PAGE_SIZE) as u64
    }

    /// Heap (object detail) size in bytes.
    pub fn heap_size_bytes(&self) -> u64 {
        self.heap.size_bytes()
    }

    /// Total filter-file page accesses (reads + writes) since the last
    /// [`Self::reset_io`].
    pub fn io_counters(&self) -> u64 {
        self.file.stats().total()
    }

    /// Resets the I/O counters (harness use).
    pub fn reset_io(&self) {
        self.file.stats().reset();
        self.heap.file().stats().reset();
    }

    /// Appends an object (packed pages, 100% fill — sequential files have
    /// no update locality to preserve). Returns the same cost breakdown as
    /// the tree inserts (no `lp` shortcut: the scan stores CFBs too).
    pub fn insert(&mut self, obj: &UncertainObject<D>) -> InsertStats {
        self.try_insert(obj)
            // xlint: allow(panic-freedom) -- invariant: in-memory file and heap cannot fail
            .expect("in-memory file and heap cannot fail")
    }

    fn try_insert(&mut self, obj: &UncertainObject<D>) -> io::Result<InsertStats> {
        // A U-tree leaf entry's payload and stored MBR, from the U-tree's
        // own code, so the two cannot drift on what an entry holds.
        let (cfbs, pcr_nanos, lp_nanos) =
            <Cfbs as FilterPayload<D>>::compute(&obj.pdf, &self.catalog);
        let addr = self.heap.insert(&encode_object(obj))?;
        let mbr = storable_mbr(&obj.pdf);
        let entry = ULeafEntry::new(cfbs, mbr, addr, obj.id, &self.catalog);
        let reads0 = self.file.stats().reads();
        let writes0 = self.file.stats().writes();
        self.open.push(entry);
        self.len += 1;
        if self.open.len() == self.codec.leaf_capacity() {
            let full = std::mem::take(&mut self.open);
            self.write_page(&full)?;
        }
        Ok(InsertStats {
            pcr_nanos,
            lp_nanos,
            io_reads: self.file.stats().reads() - reads0,
            io_writes: self.file.stats().writes() - writes0,
        })
    }

    /// Deletes an object by id. A packed file has no search structure, so
    /// the whole file is scanned and repacked — the honest sequential-file
    /// deletion cost the trees are meant to beat.
    pub fn delete(&mut self, obj: &UncertainObject<D>) -> bool {
        self.try_delete(obj)
            // xlint: allow(panic-freedom) -- invariant: in-memory file and heap cannot fail
            .expect("in-memory file and heap cannot fail")
    }

    fn try_delete(&mut self, obj: &UncertainObject<D>) -> io::Result<bool> {
        let mut all: Vec<ULeafEntry<D>> = Vec::with_capacity(self.len);
        for &page in &self.pages {
            all.extend(self.codec.decode_leaf(self.file.read(page))?);
        }
        all.extend(self.open.iter().cloned());
        // A miss stays read-only: the scan above is the whole deletion
        // search cost; nothing is repacked.
        let Some(pos) = all.iter().position(|e| e.id == obj.id) else {
            return Ok(false);
        };
        let removed = all.remove(pos);
        self.heap.remove(removed.addr)?;
        self.rebuild_from(all)?;
        Ok(true)
    }

    /// Repacks `entries` into full pages + open tail.
    fn rebuild_from(&mut self, entries: Vec<ULeafEntry<D>>) -> io::Result<()> {
        for page in self.pages.drain(..) {
            self.file.release(page);
        }
        self.len = entries.len();
        let cap = self.codec.leaf_capacity();
        self.open = Vec::new();
        for chunk in entries.chunks(cap) {
            if chunk.len() == cap {
                self.write_page(chunk)?;
            } else {
                self.open = chunk.to_vec();
            }
        }
        Ok(())
    }

    /// Appends one full page holding `entries`.
    fn write_page(&mut self, entries: &[ULeafEntry<D>]) -> io::Result<()> {
        let page = self.file.allocate()?;
        let mut bytes = Vec::with_capacity(page_store::PAGE_SIZE);
        self.codec.encode_leaf(entries, &mut bytes);
        self.file.write(page, &bytes)?;
        self.pages.push(page);
        Ok(())
    }

    /// The scan itself: hands `f` every stored entry — each full page
    /// through `decode_leaf`, then the open tail — charging one
    /// `node_reads` per page and one for a non-empty (partially filled)
    /// tail.
    fn for_each_entry(
        &self,
        stats: &mut QueryStats,
        mut f: impl FnMut(&mut QueryStats, &ULeafEntry<D>),
    ) -> io::Result<()> {
        for &page in &self.pages {
            stats.node_reads += 1;
            for rec in self.codec.decode_leaf(self.file.read(page))? {
                f(stats, &rec);
            }
        }
        for rec in &self.open {
            f(stats, rec);
        }
        stats.node_reads += u64::from(!self.open.is_empty());
        Ok(())
    }

    /// [`ProbIndex::rank_topk`], callable without importing the trait.
    pub fn rank_topk(&self, query: &RankQuery<D>) -> RankOutcome {
        ProbIndex::rank_topk(self, query)
    }
}

impl<const D: usize> ProbIndex<D> for SeqScan<D> {
    fn insert(&mut self, obj: &UncertainObject<D>) -> InsertStats {
        SeqScan::insert(self, obj)
    }

    fn delete(&mut self, obj: &UncertainObject<D>) -> bool {
        SeqScan::delete(self, obj)
    }

    fn len(&self) -> usize {
        SeqScan::len(self)
    }

    fn index_size_bytes(&self) -> u64 {
        SeqScan::size_bytes(self)
    }

    fn heap_size_bytes(&self) -> u64 {
        SeqScan::heap_size_bytes(self)
    }

    fn io_counters(&self) -> u64 {
        SeqScan::io_counters(self)
    }

    fn reset_io(&self) {
        SeqScan::reset_io(self)
    }

    /// Executes a prob-range query by scanning every page. The
    /// [`QueryOptions`](crate::tree::QueryOptions) ablation switches are
    /// U-tree-specific and ignored here.
    fn try_execute_with(
        &self,
        query: &Query<D>,
        ctx: &mut QueryCtx,
    ) -> Result<QueryOutcome, IndexError> {
        ctx.begin();
        let rq = query.region();
        let pq = query.threshold();
        let mode = query.refine_mode();
        // One catalog-lookup plan for the whole scan; per-entry filtering
        // is pure rectangle arithmetic.
        let plan = crate::filter::PreparedQuery::new(&self.catalog, rq, pq);
        let t0 = Instant::now();
        {
            let QueryCtx {
                stats,
                validated,
                candidates,
                ..
            } = &mut *ctx;
            self.for_each_entry(stats, |stats, rec| {
                let view = CfbView {
                    pair: &rec.cfbs,
                    catalog: &self.catalog,
                };
                stats.visited += 1;
                match crate::filter::filter_object_planned(&view, &rec.mbr, &plan) {
                    FilterOutcome::Pruned => stats.pruned += 1,
                    FilterOutcome::Validated => {
                        stats.validated += 1;
                        validated.push(rec.id);
                    }
                    FilterOutcome::Candidate => candidates.push((rec.addr, rec.id)),
                }
            })?;
        }
        ctx.stats.filter_nanos = t0.elapsed().as_nanos();
        ctx.stats.candidates = ctx.candidates.len() as u64;
        ctx.stats.results = ctx.validated.len() as u64;

        let t1 = Instant::now();
        refine_ctx(&self.heap, rq, pq, mode, ctx)?;
        ctx.stats.refine_nanos = t1.elapsed().as_nanos();
        Ok(outcome_from_ctx(ctx))
    }

    /// Executes a top-k ranking query as the **refine-everything oracle**:
    /// every object whose MBR intersects `r_q` has its appearance
    /// probability computed (objects fully contained are pinned to 1, as
    /// on the trees), then the k best are reported. This is the baseline
    /// the bounded best-first traversals are measured against — identical
    /// answers, maximal `prob_computations`.
    fn try_rank_topk_with(
        &self,
        query: &RankQuery<D>,
        ctx: &mut QueryCtx,
    ) -> Result<RankOutcome, IndexError> {
        ctx.begin();
        let t0 = Instant::now();
        let rq = query.region();
        let k = query.k();
        let mode = query.refine_mode();
        {
            let QueryCtx {
                stats,
                candidates,
                ranked,
                ..
            } = &mut *ctx;
            self.for_each_entry(stats, |stats, rec| {
                stats.visited += 1;
                if rq.contains_rect(&rec.mbr) {
                    stats.validated += 1;
                    crate::rank::push_hit(ranked, k, RankedMatch::validated(rec.id));
                } else if rec.mbr.intersects(rq) {
                    stats.candidates += 1;
                    candidates.push((rec.addr, rec.id));
                } else {
                    stats.pruned += 1;
                }
            })?;
        }
        let cands = std::mem::take(&mut ctx.candidates);
        for &(addr, id) in &cands {
            let (p, samples) = crate::query::refine_one(&self.heap, addr, id, rq, mode, ctx)?;
            if p > 0.0 {
                crate::rank::push_hit(&mut ctx.ranked, k, RankedMatch::refined(id, p, samples));
            }
        }
        // Hand the buffer back so its capacity stays with the context.
        ctx.candidates = cands;
        Ok(crate::rank::finish(ctx, t0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Refine;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uncertain_geom::Point;
    use uncertain_geom::Rect;
    use uncertain_pdf::ObjectPdf;

    /// A range query with quadrature refinement at tolerance `tol`.
    fn run<const D: usize, I: ProbIndex<D>>(
        index: &I,
        rq: Rect<D>,
        pq: f64,
        tol: f64,
    ) -> (Vec<u64>, QueryStats) {
        let out = Query::range(rq)
            .threshold(pq)
            .refine(Refine::reference(tol))
            .run(index)
            .unwrap();
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

    #[test]
    fn seqscan_matches_utree_results_but_reads_everything() {
        let mut rng = SmallRng::seed_from_u64(61);
        let mut scan = SeqScan::new(UCatalog::uniform(8));
        let mut tree = crate::UTree::new(UCatalog::uniform(8));
        for id in 0..500u64 {
            let o = ball(
                id,
                rng.gen_range(300.0..9700.0),
                rng.gen_range(300.0..9700.0),
                200.0,
            );
            scan.insert(&o);
            tree.insert(&o);
        }
        let rq = Rect::new([2000.0, 2000.0], [3500.0, 3500.0]);
        let (mut a, s_scan) = run(&scan, rq, 0.4, 1e-9);
        let (mut b, s_tree) = run(&tree, rq, 0.4, 1e-9);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(
            s_tree.node_reads < s_scan.node_reads,
            "U-tree ({}) must beat the scan ({}) on I/O",
            s_tree.node_reads,
            s_scan.node_reads
        );
    }

    #[test]
    fn scan_reads_every_page() {
        let mut scan = SeqScan::new(UCatalog::uniform(6));
        for id in 0..150u64 {
            scan.insert(&ball(id, 100.0 + id as f64 * 50.0, 5000.0, 20.0));
        }
        let (ids, stats) = run(&scan, Rect::new([0.0, 0.0], [1.0, 1.0]), 0.5, 1e-9);
        assert!(ids.is_empty());
        let expected_pages = 150_usize.div_ceil(41); // leaf capacity 41 in 2D
        assert_eq!(stats.node_reads as usize, expected_pages);
        assert_eq!(stats.visited, 150, "a scan inspects every object");
    }

    #[test]
    fn delete_repacks_and_preserves_answers() {
        let mut scan = SeqScan::new(UCatalog::uniform(8));
        let objs: Vec<UncertainObject<2>> = (0..120u64)
            .map(|id| ball(id, 200.0 + id as f64 * 75.0, 5000.0, 30.0))
            .collect();
        for o in &objs {
            scan.insert(o);
        }
        assert_eq!(scan.len(), 120);
        // Delete every third object.
        for o in objs.iter().step_by(3) {
            assert!(scan.delete(o), "object {} must be deletable", o.id);
        }
        assert_eq!(scan.len(), 80);
        assert!(!scan.delete(&objs[0]), "double delete must fail");
        // Survivors all answer; removed ids never appear.
        let (ids, _) = run(
            &scan,
            Rect::new([0.0, 0.0], [10_000.0, 10_000.0]),
            0.01,
            1e-8,
        );
        assert_eq!(ids.len(), 80);
        assert!(ids.iter().all(|id| id % 3 != 0));
    }

    #[test]
    fn insert_reports_cpu_breakdown() {
        let mut scan = SeqScan::<2>::new(UCatalog::uniform(8));
        let stats = scan.insert(&ball(1, 5000.0, 5000.0, 250.0));
        assert!(stats.pcr_nanos > 0, "PCR time must be measured");
        assert!(stats.lp_nanos > 0, "CFB fitting time must be measured");
    }
}
