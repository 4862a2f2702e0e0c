//! The traits that make the R* machinery generic.

use uncertain_geom::Rect;

/// A bounding key stored in intermediate entries.
///
/// Implementations: `Rect<D>` (baseline R*-tree), the U-tree's
/// `(MBR⊥, MBR̄)` pair, and U-PCR's per-catalog-value rectangle array.
/// `union_with` must be associative, commutative and produce a key covering
/// both inputs (the R-tree family's bounding invariant).
pub trait KeyMetrics<const D: usize> {
    /// The bounding key type.
    type Key: Clone + std::fmt::Debug;

    /// Precomputed form of a key that makes repeated overlap evaluations
    /// cheap (ChooseSubtree computes O(fanout²) overlaps; the U-tree's
    /// summed overlap would otherwise re-interpolate `e.MBR(p_j)` for every
    /// pair).
    type OverlapProfile;

    /// Builds the overlap profile of a key.
    fn overlap_profile(&self, k: &Self::Key) -> Self::OverlapProfile;

    /// (Summed) overlap of two profiled keys; must equal
    /// [`KeyMetrics::overlap`] on the original keys.
    fn profile_overlap(&self, a: &Self::OverlapProfile, b: &Self::OverlapProfile) -> f64;

    /// In-place union: enlarge `a` to also cover `b`.
    fn union_with(&self, a: &mut Self::Key, b: &Self::Key);

    /// Convenience out-of-place union.
    fn union(&self, a: &Self::Key, b: &Self::Key) -> Self::Key {
        let mut out = a.clone();
        self.union_with(&mut out, b);
        out
    }

    /// The bound of no keys, and so of an empty node: the identity of
    /// [`KeyMetrics::union_with`], which must return the other key bit
    /// for bit (an inverted rectangle under min/max unions).
    fn empty_key(&self) -> Self::Key;

    /// (Summed) area — the U-tree's `Σ_j AREA(e.MBR(p_j))`.
    fn area(&self, k: &Self::Key) -> f64;

    /// (Summed) margin — `Σ_j MARGIN(e.MBR(p_j))`.
    fn margin(&self, k: &Self::Key) -> f64;

    /// (Summed) overlap between two keys.
    fn overlap(&self, a: &Self::Key, b: &Self::Key) -> f64;

    /// (Summed) centroid distance between two keys.
    fn centroid_distance(&self, a: &Self::Key, b: &Self::Key) -> f64;

    /// The rectangle the **split** algorithm sorts and evaluates on.
    ///
    /// Sec 5.3: instead of sorting once per catalog value, the U-tree
    /// "examines only the median value p_{m/2}": the split runs the plain
    /// R*-split over `e.MBR(p_{m/2})` rectangles. The baseline R*-tree
    /// returns the key itself.
    fn split_rect(&self, k: &Self::Key) -> Rect<D>;

    /// Conservative containment test used to locate entries during
    /// deletion: must return `true` whenever `inner` (a key that was
    /// unioned into `outer` at some point) lies inside `outer`, with
    /// `tolerance` absorbing the f32 on-page rounding. False positives only
    /// cost extra node reads; false negatives would lose entries.
    fn covers(&self, outer: &Self::Key, inner: &Self::Key, tolerance: f64) -> bool;
}

/// A leaf-level record.
pub trait LeafRecord<K>: Clone + std::fmt::Debug {
    /// The bounding key this record contributes to its node.
    fn key(&self) -> K;

    /// Stable identifier (unique per tree in all our workloads).
    fn id(&self) -> u64;
}

/// Epsilon-tolerant rectangle containment shared by `covers`
/// implementations.
pub fn rect_covers_eps<const D: usize>(outer: &Rect<D>, inner: &Rect<D>, eps: f64) -> bool {
    for i in 0..D {
        if inner.min[i] < outer.min[i] - eps || inner.max[i] > outer.max[i] + eps {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eps_containment_absorbs_rounding() {
        let outer = Rect::new([0.0, 0.0], [10.0, 10.0]);
        let nudged = Rect::new([-0.0005, 0.0], [10.0004, 10.0]);
        assert!(rect_covers_eps(&outer, &nudged, 1e-2));
        assert!(!rect_covers_eps(&outer, &nudged, 1e-5));
        let way_out = Rect::new([0.0, 0.0], [11.0, 10.0]);
        assert!(!rect_covers_eps(&outer, &way_out, 1e-2));
    }
}
