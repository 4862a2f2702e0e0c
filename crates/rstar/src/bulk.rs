//! Sort-Tile-Recursive ordering for bulk loading (Leutenegger et al.,
//! ICDE 1997).
//!
//! STR turns a flat record set into the linear order in which a bottom-up
//! packer should chunk it: sort everything by the first coordinate of its
//! center point, cut the sequence into vertical slabs sized so each slab
//! holds a whole number of leaves, then recurse on the remaining
//! dimensions inside every slab. Records that end up adjacent in the
//! final order are spatially close in *all* dimensions, so packing them
//! `capacity`-at-a-time yields near-square leaf tiles — the layout that
//! minimizes node perimeter and therefore query overlap.
//!
//! This module only produces the order; the packing itself is
//! [`crate::RStarTreeBase::bulk_rebuild_ordered`], which is generic over
//! the key type and so serves the baseline R*-tree, the U-tree, and U-PCR
//! alike (their "center" is the centroid of the uncertainty MBR).

/// Reorders `items` into STR tile order for leaves of `leaf_cap` records,
/// using `center` to place each item in `D`-space.
///
/// The sort within each slab is stable and uses [`f64::total_cmp`], a
/// total order even over NaN coordinates: a NaN (positive sign) sorts
/// after every finite key, a negative NaN before them, and `-0.0` before
/// `0.0`. A NaN centre thus yields a valid, if spatially meaningless,
/// order instead of a panic.
pub fn str_order_by<T, const D: usize, F>(items: &mut [T], leaf_cap: usize, center: &F)
where
    F: Fn(&T) -> [f64; D],
{
    assert!(leaf_cap >= 1, "leaf capacity must be positive");
    str_rec(items, 0, leaf_cap, center);
}

fn str_rec<T, const D: usize, F>(items: &mut [T], dim: usize, leaf_cap: usize, center: &F)
where
    F: Fn(&T) -> [f64; D],
{
    if dim >= D || items.len() <= leaf_cap {
        return;
    }
    items.sort_by(|a, b| center(a)[dim].total_cmp(&center(b)[dim]));
    if dim + 1 >= D {
        return; // last dimension: the sort is the final order
    }
    // S = ceil(P^(1/d)) slabs over the d remaining dimensions, where P is
    // the number of leaves this subset needs (the STR slab rule).
    let leaves = items.len().div_ceil(leaf_cap);
    let remaining_dims = (D - dim) as f64;
    let slabs = (leaves as f64).powf(1.0 / remaining_dims).ceil() as usize;
    let slab_size = items.len().div_ceil(slabs.max(1));
    let mut start = 0;
    while start < items.len() {
        let end = (start + slab_size).min(items.len());
        str_rec(&mut items[start..end], dim + 1, leaf_cap, center);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_dimensional_order_is_a_plain_sort() {
        let mut v: Vec<f64> = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        str_order_by(&mut v, 2, &|x: &f64| [*x]);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn two_dimensional_tiles_group_neighbours() {
        // A 4x4 grid with leaf_cap 4 must tile into the four quadrant-ish
        // slabs: every chunk of 4 consecutive items spans a narrow x-range.
        let mut pts: Vec<[f64; 2]> = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                pts.push([x as f64, y as f64]);
            }
        }
        // Shuffle deterministically.
        pts.reverse();
        pts.swap(3, 11);
        pts.swap(0, 7);
        str_order_by(&mut pts, 4, &|p: &[f64; 2]| *p);
        for chunk in pts.chunks(4) {
            let xs: Vec<f64> = chunk.iter().map(|p| p[0]).collect();
            let span = xs.iter().cloned().fold(f64::MIN, f64::max)
                - xs.iter().cloned().fold(f64::MAX, f64::min);
            assert!(span <= 1.0, "slab spans too much x: {chunk:?}");
        }
    }

    #[test]
    fn small_inputs_are_untouched_by_slabbing() {
        let mut v = vec![[2.0, 1.0], [1.0, 2.0]];
        str_order_by(&mut v, 4, &|p: &[f64; 2]| *p);
        assert_eq!(v.len(), 2);
    }

    /// Seeded xorshift64 keys in `[0, 1)²`, every `nan_every`-th x NaN.
    fn keys(seed: u64, n: usize, nan_every: usize) -> Vec<[f64; 2]> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|k| {
                let p = [next(), next()];
                if nan_every > 0 && k % nan_every == 0 {
                    [f64::NAN, p[1]]
                } else {
                    p
                }
            })
            .collect()
    }

    #[test]
    fn nan_centres_order_without_panicking() {
        // A `partial_cmp(..).unwrap_or(Equal)` comparator is not a total
        // order over these keys; the standard sort may panic on it.
        for seed in 0..100 {
            for (n, nan_every) in [(100, 5), (2_000, 97)] {
                let mut v = keys(seed, n, nan_every);
                str_order_by(&mut v, 32, &|p: &[f64; 2]| *p);
                assert_eq!(v.len(), n);
                let nans = v.iter().filter(|p| p[0].is_nan()).count();
                assert_eq!(nans, n.div_ceil(nan_every), "seed {seed}");
            }
        }
    }

    /// The STR recursion with the former `partial_cmp` comparator.
    fn partial_order(items: &mut [[f64; 2]], dim: usize, leaf_cap: usize) {
        if dim >= 2 || items.len() <= leaf_cap {
            return;
        }
        items.sort_by(|a, b| {
            a[dim]
                .partial_cmp(&b[dim])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if dim + 1 >= 2 {
            return;
        }
        let leaves = items.len().div_ceil(leaf_cap);
        let slabs = (leaves as f64).powf(1.0 / (2 - dim) as f64).ceil() as usize;
        let slab_size = items.len().div_ceil(slabs.max(1));
        for slab in items.chunks_mut(slab_size) {
            partial_order(slab, dim + 1, leaf_cap);
        }
    }

    #[test]
    fn finite_keys_keep_the_partial_cmp_order() {
        for seed in 0..20 {
            let mut v = keys(seed, 1_000, 0);
            // Duplicate keys exercise the stability both sorts share.
            v.extend_from_within(..100);
            let mut old = v.clone();
            partial_order(&mut old, 0, 16);
            str_order_by(&mut v, 16, &|p: &[f64; 2]| *p);
            assert_eq!(v, old, "seed {seed}");
        }
    }
}
