//! The concrete rectangle R*-tree: the conventional "precise data"
//! baseline (paper Sec 2.2) and the substrate's primary test rig.

use crate::codec::{InnerEntry, NodeCodec};
use crate::metrics::{rect_covers_eps, KeyMetrics, LeafRecord};
use crate::tree::{RStarTreeBase, TreeConfig};
use page_store::{ByteReader, ByteWriter, PageStore, PAGE_SIZE};
use std::io;
use uncertain_geom::Rect;

/// Plain-rectangle metrics: the R*-tree penalty metrics verbatim.
#[derive(Debug, Clone, Copy, Default)]
pub struct RectMetrics<const D: usize>;

impl<const D: usize> KeyMetrics<D> for RectMetrics<D> {
    type Key = Rect<D>;
    type OverlapProfile = Rect<D>;

    fn overlap_profile(&self, k: &Rect<D>) -> Rect<D> {
        *k
    }

    fn profile_overlap(&self, a: &Rect<D>, b: &Rect<D>) -> f64 {
        a.overlap(b)
    }

    fn union_with(&self, a: &mut Rect<D>, b: &Rect<D>) {
        *a = a.union(b);
    }

    fn area(&self, k: &Rect<D>) -> f64 {
        k.area()
    }

    fn margin(&self, k: &Rect<D>) -> f64 {
        k.margin()
    }

    fn overlap(&self, a: &Rect<D>, b: &Rect<D>) -> f64 {
        a.overlap(b)
    }

    fn centroid_distance(&self, a: &Rect<D>, b: &Rect<D>) -> f64 {
        a.centroid_distance(b)
    }

    fn split_rect(&self, k: &Rect<D>) -> Rect<D> {
        *k
    }

    fn covers(&self, outer: &Rect<D>, inner: &Rect<D>, tolerance: f64) -> bool {
        rect_covers_eps(outer, inner, tolerance)
    }
}

/// A leaf record: rectangle + identifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectLeaf<const D: usize> {
    /// The data rectangle (a point's degenerate rect or an extended object).
    pub rect: Rect<D>,
    /// Stable identifier.
    pub id: u64,
}

impl<const D: usize> LeafRecord<Rect<D>> for RectLeaf<D> {
    fn key(&self) -> Rect<D> {
        self.rect
    }

    fn id(&self) -> u64 {
        self.id
    }
}

/// On-page layout: `count: u16` then fixed-size entries
/// (leaf: 2·D f32 + u64 id; inner: 2·D f32 + u64 child).
#[derive(Debug, Clone, Copy, Default)]
pub struct RectCodec<const D: usize>;

impl<const D: usize> RectCodec<D> {
    const ENTRY: usize = 2 * D * 4 + 8;

    fn capacity() -> usize {
        (PAGE_SIZE - 1 - 2) / Self::ENTRY
    }

    fn put_rect(w: &mut ByteWriter, r: &Rect<D>) {
        for i in 0..D {
            w.put_f32(r.min[i]);
        }
        for i in 0..D {
            w.put_f32(r.max[i]);
        }
    }

    fn get_rect(r: &mut ByteReader<'_>) -> Rect<D> {
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for m in min.iter_mut() {
            *m = r.get_f32();
        }
        for m in max.iter_mut() {
            *m = r.get_f32();
        }
        // f32 rounding can flip degenerate bounds; repair conservatively.
        for i in 0..D {
            if min[i] > max[i] {
                std::mem::swap(&mut min[i], &mut max[i]);
            }
        }
        Rect { min, max }
    }
}

impl<const D: usize> NodeCodec<Rect<D>, RectLeaf<D>> for RectCodec<D> {
    fn leaf_capacity(&self) -> usize {
        Self::capacity()
    }

    fn inner_capacity(&self) -> usize {
        Self::capacity()
    }

    fn encode_leaf(&self, entries: &[RectLeaf<D>], out: &mut Vec<u8>) {
        let mut w = ByteWriter::with_capacity(2 + entries.len() * Self::ENTRY);
        w.put_u16(entries.len() as u16);
        for e in entries {
            Self::put_rect(&mut w, &e.rect);
            w.put_u64(e.id);
        }
        out.extend_from_slice(w.as_slice());
    }

    fn decode_leaf(&self, bytes: &[u8]) -> Vec<RectLeaf<D>> {
        let mut r = ByteReader::new(bytes);
        let n = r.get_u16() as usize;
        (0..n)
            .map(|_| RectLeaf {
                rect: Self::get_rect(&mut r),
                id: r.get_u64(),
            })
            .collect()
    }

    fn encode_inner(&self, entries: &[InnerEntry<Rect<D>>], out: &mut Vec<u8>) {
        let mut w = ByteWriter::with_capacity(2 + entries.len() * Self::ENTRY);
        w.put_u16(entries.len() as u16);
        for e in entries {
            Self::put_rect(&mut w, &e.key);
            w.put_u64(e.child);
        }
        out.extend_from_slice(w.as_slice());
    }

    fn decode_inner(&self, bytes: &[u8]) -> Vec<InnerEntry<Rect<D>>> {
        let mut r = ByteReader::new(bytes);
        let n = r.get_u16() as usize;
        (0..n)
            .map(|_| InnerEntry {
                key: Self::get_rect(&mut r),
                child: r.get_u64(),
            })
            .collect()
    }
}

/// The baseline disk-based R*-tree over rectangles, generic over the
/// backing [`PageStore`] (defaults to the infallible in-memory
/// [`page_store::PageFile`]).
///
/// Every operation is a `try_*` method that surfaces store failures as
/// `io::Result` (the PR-6 fallible-store contract — exercised under
/// `FaultStore` in the tests).
pub struct RectRStarTree<const D: usize, S: PageStore = page_store::PageFile> {
    tree: RStarTreeBase<D, RectMetrics<D>, RectLeaf<D>, RectCodec<D>, S>,
}

impl<const D: usize, S: PageStore> RectRStarTree<D, S> {
    /// An empty tree with R* defaults on the given store.
    pub fn try_new_on(store: S) -> io::Result<Self> {
        Ok(Self {
            tree: RStarTreeBase::with_store(store, RectMetrics, RectCodec, TreeConfig::default())?,
        })
    }

    /// Builds a tree on `store` from a flat record set by STR packing
    /// ([`crate::str_order_by`] + bottom-up level construction) instead
    /// of repeated insertion.
    pub fn try_bulk_load_on(store: S, mut data: Vec<RectLeaf<D>>) -> io::Result<Self> {
        let codec = RectCodec::<D>;
        let cap = NodeCodec::<Rect<D>, RectLeaf<D>>::leaf_capacity(&codec);
        crate::str_order_by(&mut data, cap, &|e: &RectLeaf<D>| e.rect.center().coords);
        Ok(Self {
            tree: RStarTreeBase::bulk_build_ordered(
                store,
                data,
                RectMetrics,
                codec,
                TreeConfig::default(),
            )?,
        })
    }

    /// Inserts a rectangle with an identifier; a failing store surfaces
    /// its `io::Error` and leaves the already-stored pages untouched.
    pub fn try_insert(&mut self, rect: Rect<D>, id: u64) -> io::Result<()> {
        self.tree.insert(RectLeaf { rect, id })
    }

    /// Deletes by (rect, id); `Ok(true)` when found.
    pub fn try_delete(&mut self, rect: Rect<D>, id: u64) -> io::Result<bool> {
        Ok(self.tree.delete(&rect, id)?.is_some())
    }

    /// Conventional range query: ids of rectangles intersecting `query`.
    pub fn try_range(&self, query: &Rect<D>) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        self.tree.visit(
            |key, _| key.intersects(query),
            |rec| {
                if rec.rect.intersects(query) {
                    out.push(rec.id);
                }
            },
        )?;
        Ok(out)
    }

    /// Access to the generic machinery (stats, invariants, I/O counters).
    pub fn inner(&self) -> &RStarTreeBase<D, RectMetrics<D>, RectLeaf<D>, RectCodec<D>, S> {
        &self.tree
    }

    /// Number of stored rectangles.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use page_store::PageFile;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn new_tree<const D: usize>() -> RectRStarTree<D> {
        RectRStarTree::try_new_on(PageFile::new()).unwrap()
    }

    fn random_rect(rng: &mut SmallRng, span: f64) -> Rect<2> {
        let x = rng.gen_range(0.0..10_000.0);
        let y = rng.gen_range(0.0..10_000.0);
        let w = rng.gen_range(0.0..span);
        let h = rng.gen_range(0.0..span);
        Rect::new([x, y], [x + w, y + h])
    }

    /// f32-rounded copy of a rect — what the tree's pages store.
    fn f32_round(r: &Rect<2>) -> Rect<2> {
        Rect {
            min: [r.min[0] as f32 as f64, r.min[1] as f32 as f64],
            max: [r.max[0] as f32 as f64, r.max[1] as f32 as f64],
        }
    }

    #[test]
    fn capacities_are_sane() {
        // 2D: entry = 16 + 8 = 24 bytes; (4096-3)/24 = 170
        assert_eq!(RectCodec::<2>::capacity(), 170);
        // 3D: entry = 24 + 8 = 32 bytes
        assert_eq!(RectCodec::<3>::capacity(), 127);
    }

    #[test]
    fn empty_tree_range_is_empty() {
        let t = new_tree::<2>();
        assert!(t
            .try_range(&Rect::new([0.0, 0.0], [1.0, 1.0]))
            .unwrap()
            .is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn range_query_matches_naive_scan() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut tree = new_tree::<2>();
        let mut data = Vec::new();
        for id in 0..3000u64 {
            let r = random_rect(&mut rng, 80.0);
            tree.try_insert(r, id).unwrap();
            data.push((f32_round(&r), id));
        }
        tree.inner().check_invariants().unwrap();
        for _ in 0..50 {
            let q = random_rect(&mut rng, 700.0);
            let mut got = tree.try_range(&q).unwrap();
            got.sort_unstable();
            let mut expect: Vec<u64> = data
                .iter()
                .filter(|(r, _)| r.intersects(&q))
                .map(|&(_, id)| id)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn queries_prune_subtrees() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut tree = new_tree::<2>();
        for id in 0..5000u64 {
            tree.try_insert(random_rect(&mut rng, 10.0), id).unwrap();
        }
        tree.inner().io_stats().reset();
        let _ = tree
            .try_range(&Rect::new([0.0, 0.0], [300.0, 300.0]))
            .unwrap();
        let accessed = tree.inner().io_stats().reads();
        let total = tree.inner().node_count() as u64;
        assert!(
            accessed < total / 3,
            "query touched {accessed} of {total} nodes — no pruning?"
        );
    }

    #[test]
    fn delete_removes_exactly_one() {
        let mut rng = SmallRng::seed_from_u64(17);
        let mut tree = new_tree::<2>();
        let mut data = Vec::new();
        for id in 0..1200u64 {
            let r = random_rect(&mut rng, 50.0);
            tree.try_insert(r, id).unwrap();
            data.push((r, id));
        }
        // Delete every third element.
        for (r, id) in data.iter().step_by(3) {
            assert!(
                tree.try_delete(*r, *id).unwrap(),
                "id {id} must be deletable"
            );
        }
        tree.inner().check_invariants().unwrap();
        assert_eq!(tree.len(), 800);
        let everything = Rect::new([-1.0, -1.0], [10_001.0, 10_001.0]);
        let mut got = tree.try_range(&everything).unwrap();
        got.sort_unstable();
        let mut expect: Vec<u64> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, &(_, id))| id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn delete_to_empty_and_reuse() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut tree = new_tree::<2>();
        let mut data = Vec::new();
        for id in 0..600u64 {
            let r = random_rect(&mut rng, 30.0);
            tree.try_insert(r, id).unwrap();
            data.push((r, id));
        }
        for (r, id) in &data {
            assert!(tree.try_delete(*r, *id).unwrap());
        }
        assert!(tree.is_empty());
        assert_eq!(tree.inner().height(), 1);
        // The tree must remain fully usable.
        tree.try_insert(Rect::new([1.0, 1.0], [2.0, 2.0]), 9999)
            .unwrap();
        assert_eq!(
            tree.try_range(&Rect::new([0.0, 0.0], [3.0, 3.0])).unwrap(),
            vec![9999]
        );
    }

    #[test]
    fn delete_of_absent_id_returns_false() {
        let mut tree = new_tree::<2>();
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        tree.try_insert(r, 1).unwrap();
        assert!(!tree.try_delete(r, 2).unwrap());
        assert!(tree.try_delete(r, 1).unwrap());
        assert!(!tree.try_delete(r, 1).unwrap());
    }

    #[test]
    fn three_dimensional_tree() {
        let mut rng = SmallRng::seed_from_u64(23);
        let mut tree = new_tree::<3>();
        let mut data = Vec::new();
        for id in 0..2000u64 {
            let c = [
                rng.gen_range(0.0..10_000.0),
                rng.gen_range(0.0..10_000.0),
                rng.gen_range(0.0..10_000.0),
            ];
            let r = Rect::new(c, [c[0] + 20.0, c[1] + 20.0, c[2] + 20.0]);
            tree.try_insert(r, id).unwrap();
            let rr = Rect {
                min: [
                    r.min[0] as f32 as f64,
                    r.min[1] as f32 as f64,
                    r.min[2] as f32 as f64,
                ],
                max: [
                    r.max[0] as f32 as f64,
                    r.max[1] as f32 as f64,
                    r.max[2] as f32 as f64,
                ],
            };
            data.push((rr, id));
        }
        tree.inner().check_invariants().unwrap();
        let q = Rect::new([2000.0, 2000.0, 2000.0], [4000.0, 4000.0, 4000.0]);
        let mut got = tree.try_range(&q).unwrap();
        got.sort_unstable();
        let mut expect: Vec<u64> = data
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|&(_, id)| id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn bulk_load_matches_insert_build_and_packs_tight() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut incremental = new_tree::<2>();
        let mut records = Vec::new();
        for id in 0..5000u64 {
            let r = random_rect(&mut rng, 60.0);
            incremental.try_insert(r, id).unwrap();
            records.push(RectLeaf { rect: r, id });
        }
        let probe = f32_round(&records[123].rect);
        let bulk = RectRStarTree::try_bulk_load_on(PageFile::new(), records).unwrap();
        bulk.inner().check_invariants().unwrap();
        assert_eq!(bulk.len(), 5000);

        // Same answers on every query.
        for _ in 0..40 {
            let q = random_rect(&mut rng, 900.0);
            let mut a = bulk.try_range(&q).unwrap();
            let mut b = incremental.try_range(&q).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }

        // Zero-waste packing: the bulk tree uses no more nodes than the
        // theoretical minimum plus the per-level remainder node.
        let cap = RectCodec::<2>::capacity();
        let min_leaves = 5000usize.div_ceil(cap);
        let stats = bulk.inner().stats().unwrap();
        assert!(
            stats.nodes_per_level[0] <= min_leaves + 1,
            "bulk leaves not packed: {} vs {min_leaves}",
            stats.nodes_per_level[0]
        );
        assert!(
            stats.total_nodes() < incremental.inner().stats().unwrap().total_nodes(),
            "bulk tree must be denser than the insert-built tree"
        );

        // Deletes and further inserts keep working on a bulk-built tree.
        let mut bulk = bulk;
        assert!(
            bulk.try_delete(probe, 123).unwrap(),
            "bulk-built record must delete"
        );
        bulk.try_insert(Rect::new([1.0, 1.0], [2.0, 2.0]), 999_999)
            .unwrap();
        bulk.inner().check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_empty_and_tiny_inputs() {
        let empty = RectRStarTree::<2>::try_bulk_load_on(PageFile::new(), Vec::new()).unwrap();
        assert!(empty.is_empty());
        empty.inner().check_invariants().unwrap();

        let one = RectRStarTree::<2>::try_bulk_load_on(
            PageFile::new(),
            vec![RectLeaf {
                rect: Rect::new([0.0, 0.0], [1.0, 1.0]),
                id: 7,
            }],
        )
        .unwrap();
        assert_eq!(one.len(), 1);
        one.inner().check_invariants().unwrap();
        assert_eq!(
            one.try_range(&Rect::new([0.0, 0.0], [2.0, 2.0])).unwrap(),
            vec![7]
        );
    }

    #[test]
    fn duplicate_rects_with_distinct_ids() {
        let mut tree = new_tree::<2>();
        let r = Rect::new([5.0, 5.0], [6.0, 6.0]);
        for id in 0..700u64 {
            tree.try_insert(r, id).unwrap();
        }
        tree.inner().check_invariants().unwrap();
        assert_eq!(tree.try_range(&r).unwrap().len(), 700);
        for id in 0..700u64 {
            assert!(tree.try_delete(r, id).unwrap());
        }
        assert!(tree.is_empty());
    }
}
