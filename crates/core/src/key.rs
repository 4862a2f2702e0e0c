//! Bounding-key types and summed metrics for the two uncertain indexes.
//!
//! * [`UKey`] — the U-tree intermediate representation of Sec 5.1: two
//!   rectangles `MBR⊥` (at `p₁`) and `MBR̄` (at `p_m`) that define the
//!   linear function `e.MBR(p)` of Eq. 15.
//! * [`PcrKey`] — U-PCR's representation: one rectangle per catalog value.
//!
//! Both implement [`rstar_base::KeyMetrics`] with the **summed**
//! counterparts of the R* penalty metrics (Sec 5.3), and both expose the
//! rectangle at the median catalog value for the split algorithm.

use crate::catalog::UCatalog;
use rstar_base::KeyMetrics;
use std::sync::Arc;
use uncertain_geom::Rect;

/// The U-tree bounding key: the key rectangle at `p₁` and at `p_m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UKey<const D: usize> {
    /// `MBR⊥`: bound of the subtree's `cfb_out(p₁)` boxes.
    pub lo: Rect<D>,
    /// `MBR̄`: bound of the subtree's `cfb_out(p_m)` boxes.
    pub hi: Rect<D>,
}

impl<const D: usize> UKey<D> {
    /// `e.MBR(p_j)` by linear interpolation (Eq. 15), with
    /// `frac = (p_j − p₁)/(p_m − p₁)`.
    ///
    /// Because each object's `cfb_out` is linear in `p` and bounding is
    /// done at the two endpoints, the interpolated rectangle covers every
    /// subtree object's `cfb_out(p_j)` (min of linear functions is concave,
    /// max is convex — the chord bounds both).
    pub fn interp(&self, frac: f64) -> Rect<D> {
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for i in 0..D {
            min[i] = self.lo.min[i] + (self.hi.min[i] - self.lo.min[i]) * frac;
            max[i] = self.lo.max[i] + (self.hi.max[i] - self.lo.max[i]) * frac;
            if min[i] > max[i] {
                let mid = 0.5 * (min[i] + max[i]);
                min[i] = mid;
                max[i] = mid;
            }
        }
        Rect { min, max }
    }
}

/// Summed metrics over the catalog for [`UKey`]s.
#[derive(Debug, Clone)]
pub struct UMetrics<const D: usize> {
    catalog: Arc<UCatalog>,
    /// Interpolation fractions of every catalog value (precomputed).
    fracs: Vec<f64>,
}

impl<const D: usize> UMetrics<D> {
    /// Metrics bound to a catalog.
    pub fn new(catalog: Arc<UCatalog>) -> Self {
        let fracs = (0..catalog.len()).map(|j| catalog.fraction(j)).collect();
        Self { catalog, fracs }
    }

    /// The catalog this metrics object sums over.
    pub fn catalog(&self) -> &Arc<UCatalog> {
        &self.catalog
    }

    /// `e.MBR(p_j)` for a key.
    pub fn rect_at(&self, k: &UKey<D>, j: usize) -> Rect<D> {
        k.interp(self.fracs[j])
    }
}

impl<const D: usize> KeyMetrics<D> for UMetrics<D> {
    type Key = UKey<D>;
    type OverlapProfile = Vec<Rect<D>>;

    fn overlap_profile(&self, k: &UKey<D>) -> Vec<Rect<D>> {
        self.fracs.iter().map(|&f| k.interp(f)).collect()
    }

    fn profile_overlap(&self, a: &Vec<Rect<D>>, b: &Vec<Rect<D>>) -> f64 {
        a.iter().zip(b).map(|(ra, rb)| ra.overlap(rb)).sum()
    }

    fn union_with(&self, a: &mut UKey<D>, b: &UKey<D>) {
        a.lo = a.lo.union(&b.lo);
        a.hi = a.hi.union(&b.hi);
    }

    fn empty_key(&self) -> UKey<D> {
        UKey {
            lo: Rect::empty(),
            hi: Rect::empty(),
        }
    }

    fn area(&self, k: &UKey<D>) -> f64 {
        self.fracs.iter().map(|&f| k.interp(f).area()).sum()
    }

    fn margin(&self, k: &UKey<D>) -> f64 {
        self.fracs.iter().map(|&f| k.interp(f).margin()).sum()
    }

    fn overlap(&self, a: &UKey<D>, b: &UKey<D>) -> f64 {
        self.fracs
            .iter()
            .map(|&f| a.interp(f).overlap(&b.interp(f)))
            .sum()
    }

    fn centroid_distance(&self, a: &UKey<D>, b: &UKey<D>) -> f64 {
        self.fracs
            .iter()
            .map(|&f| a.interp(f).centroid_distance(&b.interp(f)))
            .sum()
    }

    fn split_rect(&self, k: &UKey<D>) -> Rect<D> {
        k.interp(self.fracs[self.catalog.median_index()])
    }

    fn covers(&self, outer: &UKey<D>, inner: &UKey<D>, tolerance: f64) -> bool {
        rstar_base::rect_covers_eps(&outer.lo, &inner.lo, tolerance)
            && rstar_base::rect_covers_eps(&outer.hi, &inner.hi, tolerance)
    }
}

/// The U-PCR bounding key: one rectangle per catalog value
/// (level `j` bounds the subtree's `pcr(p_j)` boxes).
#[derive(Debug, Clone, PartialEq)]
pub struct PcrKey<const D: usize> {
    /// `rects[j]` bounds every `pcr(p_j)` in the subtree.
    pub rects: Vec<Rect<D>>,
}

/// Summed metrics for [`PcrKey`]s (direct sums — no interpolation needed,
/// the exact rectangle at every catalog value is stored).
#[derive(Debug, Clone)]
pub struct PcrMetrics<const D: usize> {
    catalog: Arc<UCatalog>,
}

impl<const D: usize> PcrMetrics<D> {
    /// Metrics bound to a catalog (supplies m and the median index).
    pub fn new(catalog: Arc<UCatalog>) -> Self {
        Self { catalog }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<UCatalog> {
        &self.catalog
    }
}

impl<const D: usize> KeyMetrics<D> for PcrMetrics<D> {
    type Key = PcrKey<D>;
    type OverlapProfile = Vec<Rect<D>>;

    fn overlap_profile(&self, k: &PcrKey<D>) -> Vec<Rect<D>> {
        k.rects.clone()
    }

    fn profile_overlap(&self, a: &Vec<Rect<D>>, b: &Vec<Rect<D>>) -> f64 {
        a.iter().zip(b).map(|(ra, rb)| ra.overlap(rb)).sum()
    }

    fn union_with(&self, a: &mut PcrKey<D>, b: &PcrKey<D>) {
        debug_assert_eq!(a.rects.len(), b.rects.len());
        for (ra, rb) in a.rects.iter_mut().zip(&b.rects) {
            *ra = ra.union(rb);
        }
    }

    fn empty_key(&self) -> PcrKey<D> {
        PcrKey {
            rects: vec![Rect::empty(); self.catalog.len()],
        }
    }

    fn area(&self, k: &PcrKey<D>) -> f64 {
        k.rects.iter().map(Rect::area).sum()
    }

    fn margin(&self, k: &PcrKey<D>) -> f64 {
        k.rects.iter().map(Rect::margin).sum()
    }

    fn overlap(&self, a: &PcrKey<D>, b: &PcrKey<D>) -> f64 {
        a.rects
            .iter()
            .zip(&b.rects)
            .map(|(ra, rb)| ra.overlap(rb))
            .sum()
    }

    fn centroid_distance(&self, a: &PcrKey<D>, b: &PcrKey<D>) -> f64 {
        a.rects
            .iter()
            .zip(&b.rects)
            .map(|(ra, rb)| ra.centroid_distance(rb))
            .sum()
    }

    fn split_rect(&self, k: &PcrKey<D>) -> Rect<D> {
        k.rects[self.catalog.median_index()]
    }

    fn covers(&self, outer: &PcrKey<D>, inner: &PcrKey<D>, tolerance: f64) -> bool {
        outer
            .rects
            .iter()
            .zip(&inner.rects)
            .all(|(o, i)| rstar_base::rect_covers_eps(o, i, tolerance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(lo: Rect<2>, hi: Rect<2>) -> UKey<2> {
        UKey { lo, hi }
    }

    #[test]
    fn interp_endpoints_and_midpoint() {
        let k = key(
            Rect::new([0.0, 0.0], [10.0, 10.0]),
            Rect::new([4.0, 4.0], [6.0, 6.0]),
        );
        assert_eq!(k.interp(0.0), k.lo);
        assert_eq!(k.interp(1.0), k.hi);
        assert_eq!(k.interp(0.5), Rect::new([2.0, 2.0], [8.0, 8.0]));
    }

    #[test]
    fn union_is_componentwise() {
        let cat = Arc::new(UCatalog::uniform(5));
        let metrics = UMetrics::<2>::new(cat);
        let a = key(
            Rect::new([0.0, 0.0], [1.0, 1.0]),
            Rect::new([0.4, 0.4], [0.6, 0.6]),
        );
        let b = key(
            Rect::new([2.0, 0.0], [3.0, 1.0]),
            Rect::new([2.4, 0.4], [2.6, 0.6]),
        );
        let u = metrics.union(&a, &b);
        assert_eq!(u.lo, Rect::new([0.0, 0.0], [3.0, 1.0]));
        assert_eq!(u.hi, Rect::new([0.4, 0.4], [2.6, 0.6]));
        assert!(metrics.covers(&u, &a, 1e-9));
        assert!(metrics.covers(&u, &b, 1e-9));
        assert!(!metrics.covers(&a, &b, 1e-9));
    }

    #[test]
    fn interpolated_union_covers_member_interps() {
        // The concavity/convexity argument in code: chord of the union
        // covers each member at every fraction.
        let cat = Arc::new(UCatalog::uniform(7));
        let metrics = UMetrics::<2>::new(cat.clone());
        let a = key(
            Rect::new([0.0, 0.0], [4.0, 4.0]),
            Rect::new([1.5, 1.5], [2.5, 2.5]),
        );
        let b = key(
            Rect::new([3.0, 3.0], [9.0, 9.0]),
            Rect::new([5.0, 5.0], [7.0, 7.0]),
        );
        let u = metrics.union(&a, &b);
        for j in 0..cat.len() {
            let ru = metrics.rect_at(&u, j);
            assert!(ru.contains_rect(&metrics.rect_at(&a, j)), "a at {j}");
            assert!(ru.contains_rect(&metrics.rect_at(&b, j)), "b at {j}");
        }
    }

    #[test]
    fn summed_metrics_reduce_to_plain_for_constant_keys() {
        // A key with lo == hi behaves like a plain rectangle scaled by m.
        let cat = Arc::new(UCatalog::uniform(4));
        let metrics = UMetrics::<2>::new(cat);
        let r = Rect::new([0.0, 0.0], [2.0, 3.0]);
        let k = key(r, r);
        assert!((metrics.area(&k) - 4.0 * 6.0).abs() < 1e-12);
        assert!((metrics.margin(&k) - 4.0 * 5.0).abs() < 1e-12);
        let k2 = key(
            Rect::new([1.0, 1.0], [3.0, 4.0]),
            Rect::new([1.0, 1.0], [3.0, 4.0]),
        );
        assert!((metrics.overlap(&k, &k2) - 4.0 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn pcr_key_metrics_sum_over_catalog() {
        let cat = Arc::new(UCatalog::uniform(3));
        let metrics = PcrMetrics::<2>::new(cat);
        let k = PcrKey {
            rects: vec![
                Rect::new([0.0, 0.0], [4.0, 4.0]),
                Rect::new([1.0, 1.0], [3.0, 3.0]),
                Rect::new([2.0, 2.0], [2.0, 2.0]),
            ],
        };
        assert!((metrics.area(&k) - (16.0 + 4.0 + 0.0)).abs() < 1e-12);
        assert!((metrics.margin(&k) - (8.0 + 4.0 + 0.0)).abs() < 1e-12);
        assert_eq!(metrics.split_rect(&k), k.rects[1]);
    }

    #[test]
    fn pcr_key_union_and_covers() {
        let cat = Arc::new(UCatalog::uniform(2));
        let metrics = PcrMetrics::<2>::new(cat);
        let a = PcrKey {
            rects: vec![
                Rect::new([0.0, 0.0], [1.0, 1.0]),
                Rect::new([0.2, 0.2], [0.8, 0.8]),
            ],
        };
        let b = PcrKey {
            rects: vec![
                Rect::new([5.0, 5.0], [6.0, 6.0]),
                Rect::new([5.2, 5.2], [5.8, 5.8]),
            ],
        };
        let u = metrics.union(&a, &b);
        assert!(metrics.covers(&u, &a, 0.0));
        assert!(metrics.covers(&u, &b, 0.0));
        assert_eq!(u.rects[0], Rect::new([0.0, 0.0], [6.0, 6.0]));
    }
}
