//! The plain-rectangle key, leaf record and page codec: plugged into
//! [`crate::RStarTreeBase`] they give the conventional "precise data"
//! R*-tree (paper Sec 2.2), the test rig this crate's own tests drive.

use crate::codec::{InnerEntry, NodeCodec};
use crate::metrics::{rect_covers_eps, KeyMetrics, LeafRecord};
use page_store::{ByteReader, ByteWriter};
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

    fn empty_key(&self) -> Rect<D> {
        Rect::empty()
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

/// Entry layout: 2·D f32 then a u64 (the record id in a leaf, the child
/// page in an inner node).
#[derive(Debug, Clone, Copy, Default)]
pub struct RectCodec<const D: usize>;

impl<const D: usize> RectCodec<D> {
    const ENTRY: usize = 2 * D * 4 + 8;

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
    fn leaf_entry_size(&self) -> usize {
        Self::ENTRY
    }

    fn inner_entry_size(&self) -> usize {
        Self::ENTRY
    }

    fn put_leaf(&self, e: &RectLeaf<D>, w: &mut ByteWriter) {
        Self::put_rect(w, &e.rect);
        w.put_u64(e.id);
    }

    fn get_leaf(&self, r: &mut ByteReader<'_>) -> RectLeaf<D> {
        RectLeaf {
            rect: Self::get_rect(r),
            id: r.get_u64(),
        }
    }

    fn put_inner(&self, e: &InnerEntry<Rect<D>>, w: &mut ByteWriter) {
        Self::put_rect(w, &e.key);
        w.put_u64(e.child);
    }

    fn get_inner(&self, r: &mut ByteReader<'_>) -> InnerEntry<Rect<D>> {
        InnerEntry {
            key: Self::get_rect(r),
            child: r.get_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{RStarTreeBase, TreeConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::io;

    type RectTree<const D: usize> = RStarTreeBase<D, RectMetrics<D>, RectLeaf<D>, RectCodec<D>>;

    fn new_tree<const D: usize>() -> RectTree<D> {
        RStarTreeBase::new(RectMetrics, RectCodec, TreeConfig::default())
    }

    /// STR-packs `data` ([`crate::str_order_by`] + bottom-up levels)
    /// instead of inserting record by record.
    fn bulk_tree(mut data: Vec<RectLeaf<2>>) -> RectTree<2> {
        let cap = RectCodec::<2>.leaf_capacity();
        crate::str_order_by(&mut data, cap, &|e: &RectLeaf<2>| e.rect.center().coords);
        let mut tree = new_tree::<2>();
        tree.bulk_rebuild_ordered(data).unwrap();
        tree
    }

    /// Conventional range query: ids of rectangles intersecting `query`.
    fn range<const D: usize>(tree: &RectTree<D>, query: &Rect<D>) -> Vec<u64> {
        let mut out = Vec::new();
        tree.visit_with(
            &mut Vec::new(),
            |key, _| key.intersects(query),
            |rec| {
                if rec.rect.intersects(query) {
                    out.push(rec.id);
                }
            },
        )
        .unwrap();
        out
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
        assert_eq!(RectCodec::<2>.leaf_capacity(), 170);
        assert_eq!(RectCodec::<2>.inner_capacity(), 170);
        // 3D: entry = 24 + 8 = 32 bytes
        assert_eq!(RectCodec::<3>.leaf_capacity(), 127);
    }

    #[test]
    fn empty_tree_range_is_empty() {
        let t = new_tree::<2>();
        assert!(range(&t, &Rect::new([0.0, 0.0], [1.0, 1.0])).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn range_query_matches_naive_scan() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut tree = new_tree::<2>();
        let mut data = Vec::new();
        for id in 0..3000u64 {
            let r = random_rect(&mut rng, 80.0);
            tree.insert(RectLeaf { rect: r, id }).unwrap();
            data.push((f32_round(&r), id));
        }
        tree.check_invariants().unwrap();
        for _ in 0..50 {
            let q = random_rect(&mut rng, 700.0);
            let mut got = range(&tree, &q);
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
            tree.insert(RectLeaf {
                rect: random_rect(&mut rng, 10.0),
                id,
            })
            .unwrap();
        }
        tree.io_stats().reset();
        let _ = range(&tree, &Rect::new([0.0, 0.0], [300.0, 300.0]));
        let accessed = tree.io_stats().reads();
        let total = tree.node_count() as u64;
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
            tree.insert(RectLeaf { rect: r, id }).unwrap();
            data.push((r, id));
        }
        // Delete every third element.
        for (r, id) in data.iter().step_by(3) {
            assert!(
                tree.delete(r, *id).unwrap().is_some(),
                "id {id} must be deletable"
            );
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 800);
        let everything = Rect::new([-1.0, -1.0], [10_001.0, 10_001.0]);
        let mut got = range(&tree, &everything);
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
            tree.insert(RectLeaf { rect: r, id }).unwrap();
            data.push((r, id));
        }
        for (r, id) in &data {
            assert!(tree.delete(r, *id).unwrap().is_some());
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        // The tree must remain fully usable.
        let rect = Rect::new([1.0, 1.0], [2.0, 2.0]);
        tree.insert(RectLeaf { rect, id: 9999 }).unwrap();
        assert_eq!(range(&tree, &Rect::new([0.0, 0.0], [3.0, 3.0])), vec![9999]);
    }

    #[test]
    fn delete_of_absent_id_returns_false() {
        let mut tree = new_tree::<2>();
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        tree.insert(RectLeaf { rect: r, id: 1 }).unwrap();
        assert!(tree.delete(&r, 2).unwrap().is_none());
        assert!(tree.delete(&r, 1).unwrap().is_some());
        assert!(tree.delete(&r, 1).unwrap().is_none());
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
            tree.insert(RectLeaf { rect: r, id }).unwrap();
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
        tree.check_invariants().unwrap();
        let q = Rect::new([2000.0, 2000.0, 2000.0], [4000.0, 4000.0, 4000.0]);
        let mut got = range(&tree, &q);
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
            incremental.insert(RectLeaf { rect: r, id }).unwrap();
            records.push(RectLeaf { rect: r, id });
        }
        let probe = f32_round(&records[123].rect);
        let bulk = bulk_tree(records);
        bulk.check_invariants().unwrap();
        assert_eq!(bulk.len(), 5000);

        // Same answers on every query.
        for _ in 0..40 {
            let q = random_rect(&mut rng, 900.0);
            let mut a = range(&bulk, &q);
            let mut b = range(&incremental, &q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }

        // Zero-waste packing: the bulk tree uses no more nodes than the
        // theoretical minimum plus the per-level remainder node.
        let cap = RectCodec::<2>.leaf_capacity();
        let min_leaves = 5000usize.div_ceil(cap);
        let stats = bulk.stats().unwrap();
        assert!(
            stats.nodes_per_level[0] <= min_leaves + 1,
            "bulk leaves not packed: {} vs {min_leaves}",
            stats.nodes_per_level[0]
        );
        assert!(
            stats.total_nodes() < incremental.stats().unwrap().total_nodes(),
            "bulk tree must be denser than the insert-built tree"
        );

        // Deletes and further inserts keep working on a bulk-built tree.
        let mut bulk = bulk;
        assert!(
            bulk.delete(&probe, 123).unwrap().is_some(),
            "bulk-built record must delete"
        );
        let rect = Rect::new([1.0, 1.0], [2.0, 2.0]);
        bulk.insert(RectLeaf { rect, id: 999_999 }).unwrap();
        bulk.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_empty_and_tiny_inputs() {
        let empty = bulk_tree(Vec::new());
        assert!(empty.is_empty());
        empty.check_invariants().unwrap();

        let one = bulk_tree(vec![RectLeaf {
            rect: Rect::new([0.0, 0.0], [1.0, 1.0]),
            id: 7,
        }]);
        assert_eq!(one.len(), 1);
        one.check_invariants().unwrap();
        assert_eq!(range(&one, &Rect::new([0.0, 0.0], [2.0, 2.0])), vec![7]);
    }

    #[test]
    fn duplicate_rects_with_distinct_ids() {
        let mut tree = new_tree::<2>();
        let r = Rect::new([5.0, 5.0], [6.0, 6.0]);
        for id in 0..700u64 {
            tree.insert(RectLeaf { rect: r, id }).unwrap();
        }
        tree.check_invariants().unwrap();
        assert_eq!(range(&tree, &r).len(), 700);
        for id in 0..700u64 {
            assert!(tree.delete(&r, id).unwrap().is_some());
        }
        assert!(tree.is_empty());
    }

    /// `page` mutated 500 seeded ways — bytes flipped, the count replaced,
    /// the tail cut — each of which `decode` reads or refuses as
    /// `InvalidData`, never panicking.
    fn sweep_mutations<T>(page: &[u8], seed: u64, decode: impl Fn(&[u8]) -> io::Result<Vec<T>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for round in 0..500 {
            let mut m = page.to_vec();
            let how = rng.gen_range(0..4u32);
            if how & 1 == 0 {
                for _ in 0..rng.gen_range(1..8) {
                    let at = rng.gen_range(0..m.len());
                    m[at] ^= rng.gen_range(1..=255u8);
                }
            }
            if how == 1 || how == 3 {
                m[..2].copy_from_slice(&rng.gen_range(0..=u16::MAX).to_le_bytes());
            }
            if how >= 2 {
                m.truncate(rng.gen_range(0..=m.len()));
            }
            if let Err(e) = decode(&m) {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "round {round}: {e}");
            }
        }
    }

    #[test]
    fn rect_codec_decodes_or_refuses_mutated_pages() {
        let codec = RectCodec::<2>;
        let records: Vec<RectLeaf<2>> = (0..100u64)
            .map(|id| RectLeaf {
                rect: f32_round(&random_rect(&mut SmallRng::seed_from_u64(id), 50.0)),
                id,
            })
            .collect();
        let inner: Vec<InnerEntry<Rect<2>>> = records
            .iter()
            .map(|r| InnerEntry {
                key: r.rect,
                child: r.id,
            })
            .collect();
        let (mut leaf_page, mut inner_page) = (Vec::new(), Vec::new());
        codec.encode_leaf(&records, &mut leaf_page);
        codec.encode_inner(&inner, &mut inner_page);
        assert_eq!(codec.decode_leaf(&leaf_page).unwrap(), records);
        sweep_mutations(&leaf_page, 1, |b| codec.decode_leaf(b));
        sweep_mutations(&inner_page, 2, |b| codec.decode_inner(b));
    }
}
