use crate::Point;

/// An axis-aligned (hyper-)rectangle in `D` dimensions, `min[i] <= max[i]`.
///
/// This is the common currency of the whole stack: MBRs of uncertainty
/// regions, PCRs, CFB evaluations, query regions and tree-entry bounds are
/// all `Rect`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    /// Lower corner.
    pub min: [f64; D],
    /// Upper corner.
    pub max: [f64; D],
}

impl<const D: usize> Rect<D> {
    /// Creates a rectangle from corners. Debug-asserts `min <= max`.
    pub fn new(min: [f64; D], max: [f64; D]) -> Self {
        for i in 0..D {
            debug_assert!(
                min[i] <= max[i],
                "Rect min {:?} must be <= max {:?} on dim {i}",
                min,
                max
            );
        }
        Self { min, max }
    }

    /// A cube with the given `center` and side length `side`.
    pub fn cube(center: &Point<D>, side: f64) -> Self {
        let h = side * 0.5;
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for i in 0..D {
            min[i] = center.coords[i] - h;
            max[i] = center.coords[i] + h;
        }
        Self::new(min, max)
    }

    /// The "empty" rectangle: identity element of [`Rect::union`].
    ///
    /// It contains no point and unions as a no-op.
    pub fn empty() -> Self {
        Self {
            min: [f64::INFINITY; D],
            max: [f64::NEG_INFINITY; D],
        }
    }

    /// True for the identity produced by [`Rect::empty`] (never for a rect
    /// holding at least one point).
    pub fn is_empty(&self) -> bool {
        (0..D).any(|i| self.min[i] > self.max[i])
    }

    /// Extent on dimension `i` (`0` for empty rectangles).
    #[inline]
    pub fn extent(&self, i: usize) -> f64 {
        (self.max[i] - self.min[i]).max(0.0)
    }

    /// d-dimensional volume (the paper calls this AREA).
    pub fn area(&self) -> f64 {
        let mut a = 1.0;
        for i in 0..D {
            a *= self.extent(i);
        }
        a
    }

    /// Margin: the sum of extents over all dimensions (the R*-tree's
    /// perimeter surrogate — MARGIN in the paper's Formula 7).
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut m = 0.0;
        for i in 0..D {
            m += self.extent(i);
        }
        m
    }

    /// Center point.
    pub fn center(&self) -> Point<D> {
        let mut coords = self.min;
        for (c, hi) in coords.iter_mut().zip(self.max) {
            *c = 0.5 * (*c + hi);
        }
        Point::new(coords)
    }

    /// Distance between the centroids of two rectangles (CDIST in Sec 5.3).
    pub fn centroid_distance(&self, other: &Self) -> f64 {
        self.center().distance(&other.center())
    }

    /// Smallest rectangle containing both inputs.
    pub fn union(&self, other: &Self) -> Self {
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for i in 0..D {
            min[i] = self.min[i].min(other.min[i]);
            max[i] = self.max[i].max(other.max[i]);
        }
        Self { min, max }
    }

    /// Intersection; `None` when disjoint (touching edges still intersect).
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for i in 0..D {
            min[i] = self.min[i].max(other.min[i]);
            max[i] = self.max[i].min(other.max[i]);
            if min[i] > max[i] {
                return None;
            }
        }
        Some(Self { min, max })
    }

    /// Volume of the intersection (OVERLAP in Sec 5.3); `0` when disjoint.
    pub fn overlap(&self, other: &Self) -> f64 {
        let mut a = 1.0;
        for i in 0..D {
            let lo = self.min[i].max(other.min[i]);
            let hi = self.max[i].min(other.max[i]);
            if lo >= hi {
                return 0.0;
            }
            a *= hi - lo;
        }
        a
    }

    /// True when the rectangles share at least one point.
    pub fn intersects(&self, other: &Self) -> bool {
        for i in 0..D {
            if self.min[i] > other.max[i] || self.max[i] < other.min[i] {
                return false;
            }
        }
        true
    }

    /// True when `other` lies entirely inside `self` (boundaries allowed).
    pub fn contains_rect(&self, other: &Self) -> bool {
        for i in 0..D {
            if other.min[i] < self.min[i] || other.max[i] > self.max[i] {
                return false;
            }
        }
        true
    }

    /// True when `p` lies inside `self` (boundaries allowed).
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        for i in 0..D {
            if p.coords[i] < self.min[i] || p.coords[i] > self.max[i] {
                return false;
            }
        }
        true
    }

    /// Area increase caused by enlarging `self` to also cover `other`.
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.union(other).area() - self.area()
    }

    /// True if all corners are finite numbers.
    pub fn is_finite(&self) -> bool {
        self.min
            .iter()
            .chain(self.max.iter())
            .all(|c| c.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(min: [f64; 2], max: [f64; 2]) -> Rect<2> {
        Rect::new(min, max)
    }

    #[test]
    fn area_and_margin() {
        let r = r2([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(r.area(), 6.0);
        assert_eq!(r.margin(), 5.0);
    }

    #[test]
    fn empty_behaves_as_union_identity() {
        let e = Rect::<2>::empty();
        let r = r2([1.0, 1.0], [2.0, 2.0]);
        assert!(e.is_empty());
        assert_eq!(e.union(&r), r);
        assert_eq!(r.union(&e), r);
        assert_eq!(e.area(), 0.0);
        assert_eq!(e.margin(), 0.0);
    }

    #[test]
    fn union_contains_both() {
        let a = r2([0.0, 0.0], [1.0, 1.0]);
        let b = r2([2.0, -1.0], [3.0, 0.5]);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r2([0.0, -1.0], [3.0, 1.0]));
    }

    #[test]
    fn overlap_of_disjoint_rects_is_zero() {
        let a = r2([0.0, 0.0], [1.0, 1.0]);
        let b = r2([2.0, 2.0], [3.0, 3.0]);
        assert_eq!(a.overlap(&b), 0.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn overlap_of_touching_rects_is_zero_but_they_intersect() {
        let a = r2([0.0, 0.0], [1.0, 1.0]);
        let b = r2([1.0, 0.0], [2.0, 1.0]);
        assert_eq!(a.overlap(&b), 0.0);
        assert!(a.intersects(&b));
        assert!(a.intersection(&b).is_some());
    }

    #[test]
    fn overlap_matches_intersection_area() {
        let a = r2([0.0, 0.0], [2.0, 2.0]);
        let b = r2([1.0, 1.0], [3.0, 4.0]);
        assert_eq!(a.overlap(&b), 1.0);
        assert_eq!(a.intersection(&b).unwrap().area(), a.overlap(&b));
    }

    #[test]
    fn containment() {
        let outer = r2([0.0, 0.0], [10.0, 10.0]);
        let inner = r2([1.0, 1.0], [2.0, 2.0]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
        assert!(outer.contains_point(&Point::new([0.0, 10.0])));
        assert!(!outer.contains_point(&Point::new([-0.1, 5.0])));
    }

    #[test]
    fn cube_centered() {
        let c = Rect::cube(&Point::new([5.0, 5.0]), 2.0);
        assert_eq!(c, r2([4.0, 4.0], [6.0, 6.0]));
        assert_eq!(c.center(), Point::new([5.0, 5.0]));
    }

    #[test]
    fn enlargement_is_zero_for_contained() {
        let outer = r2([0.0, 0.0], [10.0, 10.0]);
        let inner = r2([1.0, 1.0], [2.0, 2.0]);
        assert_eq!(outer.enlargement(&inner), 0.0);
        assert!(inner.enlargement(&outer) > 0.0);
    }

    #[test]
    fn centroid_distance_3d() {
        let a = Rect::new([0.0, 0.0, 0.0], [2.0, 2.0, 2.0]);
        let b = Rect::new([3.0, 4.0, 1.0], [5.0, 6.0, 3.0]);
        // centers (1,1,1) and (4,5,2): distance sqrt(9+16+1)
        assert!((a.centroid_distance(&b) - 26.0f64.sqrt()).abs() < 1e-12);
    }
}
