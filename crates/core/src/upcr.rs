//! U-PCR: the comparison structure of Sec 6 — the same tree as the U-tree
//! ([`crate::tree::ProbTree`]) with all m PCRs stored verbatim in every
//! (leaf and intermediate) entry instead of CFBs. This module is that
//! payload.
//!
//! Filtering is *stronger* per entry (exact PCRs, Observation 2) but the
//! fat entries shrink fanout, so the structure reads more pages — the
//! trade-off the paper's experiments quantify.

use crate::catalog::UCatalog;
use crate::entry::{UPcrCodec, UPcrLeafEntry};
use crate::filter::PcrAccess;
use crate::key::{PcrKey, PcrMetrics};
use crate::pcr::PcrSet;
use crate::persist;
use crate::tree::{FilterPayload, ProbTree};
use page_store::{PageFile, RecordAddr};
use std::sync::Arc;
use std::time::Instant;
use uncertain_geom::Rect;
use uncertain_pdf::ObjectPdf;

/// The U-PCR payload: the object's PCR at every catalog value, one
/// bounding rectangle per catalog value in intermediate entries.
#[derive(Debug, Clone, Copy)]
pub enum Pcrs {}

/// The U-PCR index — the [`ProbTree`] over verbatim PCRs (the paper tunes
/// m = 9 for 2D and m = 10 for 3D; Sec 6.2).
pub type UPcrTree<const D: usize, S = PageFile> = ProbTree<D, Pcrs, S>;

impl<const D: usize> PcrAccess<D> for &PcrSet<D> {
    fn outer(&self, j: usize) -> Rect<D> {
        *self.rect(j)
    }

    fn inner(&self, j: usize) -> Rect<D> {
        *self.rect(j)
    }
}

impl<const D: usize> FilterPayload<D> for Pcrs {
    type Metrics = PcrMetrics<D>;
    type Leaf = UPcrLeafEntry<D>;
    type Codec = UPcrCodec<D>;
    type Data = PcrSet<D>;

    const KIND: u8 = persist::KIND_UPCR;
    const NAME: &'static str = "u-pcr";

    fn default_catalog() -> UCatalog {
        // Sec 6.2 tuning: m = 9 in 2D, m = 10 in 3D.
        UCatalog::uniform(if D >= 3 { 10 } else { 9 })
    }

    fn metrics(catalog: Arc<UCatalog>) -> PcrMetrics<D> {
        PcrMetrics::new(catalog)
    }

    fn codec(catalog: Arc<UCatalog>) -> UPcrCodec<D> {
        UPcrCodec::new(catalog)
    }

    /// PCRs rounded to their on-page f32 values so that probe keys built at
    /// delete time match stored entries byte-for-byte. U-PCR skips the CFB
    /// fitting entirely.
    fn compute(pdf: &ObjectPdf<D>, catalog: &UCatalog) -> (PcrSet<D>, u128, u128) {
        let t0 = Instant::now();
        let pcrs = PcrSet::compute(pdf, catalog);
        let nanos = t0.elapsed().as_nanos();
        let rounded = PcrSet::from_rects(
            pcrs.rects()
                .iter()
                .map(|r| {
                    let mut min = [0.0; D];
                    let mut max = [0.0; D];
                    for i in 0..D {
                        min[i] = r.min[i] as f32 as f64;
                        max[i] = r.max[i] as f32 as f64;
                        if min[i] > max[i] {
                            std::mem::swap(&mut min[i], &mut max[i]);
                        }
                    }
                    Rect { min, max }
                })
                .collect(),
        );
        (rounded, nanos, 0)
    }

    fn leaf(
        pcrs: PcrSet<D>,
        mbr: Rect<D>,
        addr: RecordAddr,
        id: u64,
        _catalog: &UCatalog,
    ) -> UPcrLeafEntry<D> {
        UPcrLeafEntry {
            pcrs,
            mbr,
            addr,
            id,
        }
    }

    fn probe_key(pcrs: &PcrSet<D>, _catalog: &UCatalog) -> PcrKey<D> {
        PcrKey {
            rects: pcrs.rects().to_vec(),
        }
    }

    fn key_rect(key: &PcrKey<D>, j: usize, _frac: f64) -> Rect<D> {
        key.rects[j]
    }

    fn access<'a>(leaf: &'a UPcrLeafEntry<D>, _catalog: &'a UCatalog) -> impl PcrAccess<D> + 'a {
        &leaf.pcrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ProbIndex, Query};
    use crate::query::{QueryStats, Refine};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uncertain_geom::Point;
    use uncertain_pdf::UncertainObject;

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

    fn build_random(n: usize, seed: u64) -> (UPcrTree<2>, Vec<UncertainObject<2>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tree = UPcrTree::new(UCatalog::uniform(9));
        let mut objs = Vec::new();
        for id in 0..n as u64 {
            let o = UncertainObject::new(
                id,
                ObjectPdf::UniformBall {
                    center: Point::new([
                        rng.gen_range(300.0..9700.0),
                        rng.gen_range(300.0..9700.0),
                    ]),
                    radius: rng.gen_range(50.0..250.0),
                },
            );
            tree.insert(&o);
            objs.push(o);
        }
        (tree, objs)
    }

    #[test]
    fn query_matches_brute_force() {
        let (tree, objs) = build_random(350, 13);
        tree.check_invariants().unwrap();
        let mut rng = SmallRng::seed_from_u64(29);
        for _ in 0..20 {
            let rq = Rect::cube(
                &Point::new([rng.gen_range(500.0..9500.0), rng.gen_range(500.0..9500.0)]),
                rng.gen_range(300.0..1500.0),
            );
            let pq = rng.gen_range(0.05..0.95);
            let (mut got, _) = run(&tree, rq, pq, 1e-9);
            got.sort_unstable();
            let mut expect = Vec::new();
            let mut boundary = Vec::new();
            for o in &objs {
                let p = uncertain_pdf::appearance_reference(&o.pdf, &rq, 1e-9);
                if (p - pq).abs() < 1e-4 {
                    boundary.push(o.id);
                } else if p >= pq {
                    expect.push(o.id);
                }
            }
            let got_clean: Vec<u64> = got
                .into_iter()
                .filter(|id| !boundary.contains(id))
                .collect();
            assert_eq!(got_clean, expect, "rq={rq:?} pq={pq}");
        }
    }

    #[test]
    fn upcr_agrees_with_utree() {
        // Same data, same queries, identical result sets: the two
        // structures differ in cost, never in answers.
        let mut rng = SmallRng::seed_from_u64(3);
        let mut upcr = UPcrTree::new(UCatalog::uniform(9));
        let mut utree = crate::UTree::new(UCatalog::uniform(15));
        for id in 0..250u64 {
            let o = UncertainObject::new(
                id,
                ObjectPdf::ConGauBall {
                    center: Point::new([
                        rng.gen_range(500.0..9500.0),
                        rng.gen_range(500.0..9500.0),
                    ]),
                    radius: 250.0,
                    sigma: 125.0,
                },
            );
            upcr.insert(&o);
            utree.insert(&o);
        }
        for _ in 0..15 {
            let rq = Rect::cube(
                &Point::new([rng.gen_range(1000.0..9000.0), rng.gen_range(1000.0..9000.0)]),
                rng.gen_range(400.0..2000.0),
            );
            let pq = rng.gen_range(0.1..0.9);
            let (mut a, _) = run(&upcr, rq, pq, 1e-9);
            let (mut b, _) = run(&utree, rq, pq, 1e-9);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "structures disagree at rq={rq:?} pq={pq}");
        }
    }

    #[test]
    fn delete_works() {
        let (mut tree, objs) = build_random(200, 17);
        for o in objs.iter().step_by(2) {
            assert!(tree.delete(o));
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 100);
        let (ids, _) = run(
            &tree,
            Rect::new([0.0, 0.0], [10_000.0, 10_000.0]),
            0.01,
            1e-8,
        );
        assert_eq!(ids.len(), 100);
        assert!(ids.iter().all(|id| id % 2 == 1));
    }

    #[test]
    fn fatter_entries_mean_fewer_per_page_than_utree() {
        let upcr = UPcrTree::<2>::new(UCatalog::uniform(9));
        let utree = crate::UTree::<2>::new(UCatalog::uniform(15));
        let _ = (upcr, utree);
        let pcodec = crate::entry::UPcrCodec::<2>::new(Arc::new(UCatalog::uniform(9)));
        use rstar_base::NodeCodec;
        let ucodec = crate::entry::UCodec::<2>::new(Arc::new(UCatalog::uniform(15)));
        assert!(
            NodeCodec::leaf_capacity(&ucodec) > NodeCodec::leaf_capacity(&pcodec),
            "U-tree fanout must exceed U-PCR's (the Sec 4.3 rationale)"
        );
    }
}
