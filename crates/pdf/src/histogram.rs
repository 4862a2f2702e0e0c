//! Grid-histogram pdfs: the "arbitrary pdf" workhorse.
//!
//! The paper's central claim is that the U-tree "does not place any
//! constraints on the data pdfs". A d-dimensional histogram over the MBR of
//! the uncertainty region can approximate any density (Zipf, Poisson rates,
//! multi-modal mixtures, …), and everything the index needs from it —
//! density evaluation, uniform support sampling, per-dimension marginal
//! CDFs — has simple exact forms.

use crate::marginal::NumericMarginal;
use uncertain_geom::{Point, Rect};

/// A piecewise-constant pdf on a regular grid over a rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramPdf<const D: usize> {
    /// Support of the pdf.
    rect: Rect<D>,
    /// Number of cells per dimension (each >= 1).
    bins: [usize; D],
    /// Probability mass per cell in row-major order (dimension 0 slowest);
    /// sums to 1.
    mass: Vec<f64>,
}

impl<const D: usize> HistogramPdf<D> {
    /// Builds a histogram from non-negative cell weights (renormalised).
    ///
    /// `weights.len()` must equal the product of `bins`.
    pub fn new(rect: Rect<D>, bins: [usize; D], weights: Vec<f64>) -> Self {
        let cells: usize = bins.iter().product();
        assert!(cells > 0, "every dimension needs at least one bin");
        assert_eq!(weights.len(), cells, "weight count must match grid size");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "at least one weight must be positive");
        for i in 0..D {
            assert!(rect.extent(i) > 0.0, "support must have positive extent");
        }
        let mass = weights.into_iter().map(|w| w / total).collect();
        Self { rect, bins, mass }
    }

    /// Rebuilds a histogram from cell masses that are *already*
    /// normalised (a prior histogram's [`Self::mass`], e.g. read back from
    /// disk). Skips the renormalising division so a store→load round trip
    /// is bit-exact.
    pub fn from_mass(rect: Rect<D>, bins: [usize; D], mass: Vec<f64>) -> Self {
        let cells: usize = bins.iter().product();
        assert!(cells > 0, "every dimension needs at least one bin");
        assert_eq!(mass.len(), cells, "mass count must match grid size");
        assert!(
            mass.iter().all(|m| m.is_finite() && *m >= 0.0),
            "masses must be finite and non-negative"
        );
        assert!(
            mass.iter().sum::<f64>() > 0.0,
            "at least one mass must be positive"
        );
        debug_assert!(
            (mass.iter().sum::<f64>() - 1.0).abs() < 1e-6,
            "from_mass expects normalised masses"
        );
        for i in 0..D {
            assert!(rect.extent(i) > 0.0, "support must have positive extent");
        }
        Self { rect, bins, mass }
    }

    /// Builds a histogram by sampling `density` at cell centers.
    ///
    /// This is how an application plugs in a truly arbitrary pdf: hand any
    /// non-negative function over the support.
    pub fn from_fn<F: Fn(&Point<D>) -> f64>(rect: Rect<D>, bins: [usize; D], density: F) -> Self {
        let cells: usize = bins.iter().product();
        let mut weights = Vec::with_capacity(cells);
        for flat in 0..cells {
            let idx = Self::unflatten(flat, &bins);
            let mut coords = [0.0; D];
            for i in 0..D {
                let w = rect.extent(i) / bins[i] as f64;
                coords[i] = rect.min[i] + (idx[i] as f64 + 0.5) * w;
            }
            weights.push(density(&Point::new(coords)).max(0.0));
        }
        Self::new(rect, bins, weights)
    }

    /// Support rectangle.
    pub fn rect(&self) -> &Rect<D> {
        &self.rect
    }

    /// Grid resolution per dimension.
    pub fn bins(&self) -> &[usize; D] {
        &self.bins
    }

    /// Normalised cell masses (row-major).
    pub fn mass(&self) -> &[f64] {
        &self.mass
    }

    fn unflatten(mut flat: usize, bins: &[usize; D]) -> [usize; D] {
        let mut idx = [0usize; D];
        for i in (0..D).rev() {
            idx[i] = flat % bins[i];
            flat /= bins[i];
        }
        idx
    }

    fn cell_volume(&self) -> f64 {
        let mut v = 1.0;
        for i in 0..D {
            v *= self.rect.extent(i) / self.bins[i] as f64;
        }
        v
    }

    /// Index of the cell containing `p`, or `None` outside the support.
    fn cell_of(&self, p: &Point<D>) -> Option<usize> {
        let mut flat = 0usize;
        for i in 0..D {
            if p.coords[i] < self.rect.min[i] || p.coords[i] > self.rect.max[i] {
                return None;
            }
            let w = self.rect.extent(i) / self.bins[i] as f64;
            let mut k = ((p.coords[i] - self.rect.min[i]) / w) as usize;
            if k >= self.bins[i] {
                k = self.bins[i] - 1; // right boundary belongs to the last cell
            }
            flat = flat * self.bins[i] + k;
        }
        Some(flat)
    }

    /// Density at `p` (0 outside the support).
    pub fn density(&self, p: &Point<D>) -> f64 {
        match self.cell_of(p) {
            Some(c) => self.mass[c] / self.cell_volume(),
            None => 0.0,
        }
    }

    /// `P(X_dim <= t)`: exact piecewise-linear marginal CDF.
    ///
    /// Collapses the grid on every call; to evaluate more than one `t`,
    /// hold the [`crate::ObjectPdf::marginal`] of the histogram instead.
    pub fn marginal_cdf(&self, dim: usize, t: f64) -> f64 {
        self.marginal(dim).cdf(t)
    }

    /// The exact marginal of dimension `dim`: the grid collapsed onto
    /// that axis once, in O(cells).
    pub(crate) fn marginal(&self, dim: usize) -> NumericMarginal {
        assert!(dim < D);
        let n = self.bins[dim];
        // Row-major with dimension 0 slowest: the index along `dim`
        // advances once every `stride` cells.
        let stride: usize = self.bins[dim + 1..].iter().product();
        let mut cum = vec![0.0; n + 1];
        for (flat, &m) in self.mass.iter().enumerate() {
            cum[1 + (flat / stride) % n] += m;
        }
        for k in 1..=n {
            cum[k] += cum[k - 1];
        }
        NumericMarginal::from_cumulative(cum, self.rect.min[dim], self.rect.max[dim])
    }

    /// Exact probability that the object lies inside `rq` (sum of clipped
    /// cell masses). Used as ground truth in tests and as a fast refinement
    /// path for histogram objects.
    pub fn probability_in(&self, rq: &Rect<D>) -> f64 {
        let mut total = 0.0;
        for (flat, &m) in self.mass.iter().enumerate() {
            if m == 0.0 {
                continue;
            }
            let idx = Self::unflatten(flat, &self.bins);
            let mut frac = 1.0;
            for (i, &cell) in idx.iter().enumerate() {
                let w = self.rect.extent(i) / self.bins[i] as f64;
                let lo = self.rect.min[i] + cell as f64 * w;
                let hi = lo + w;
                let clip_lo = lo.max(rq.min[i]);
                let clip_hi = hi.min(rq.max[i]);
                if clip_lo >= clip_hi {
                    frac = 0.0;
                    break;
                }
                frac *= (clip_hi - clip_lo) / w;
            }
            total += m * frac;
        }
        total.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_grid() -> HistogramPdf<2> {
        HistogramPdf::new(Rect::new([0.0, 0.0], [4.0, 4.0]), [4, 4], vec![1.0; 16])
    }

    #[test]
    fn mass_normalises() {
        let h = HistogramPdf::new(Rect::new([0.0], [1.0]), [4], vec![1.0, 2.0, 3.0, 4.0]);
        let s: f64 = h.mass().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!((h.mass()[3] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn density_of_uniform_grid() {
        let h = uniform_grid();
        // total mass 1 over area 16
        assert!((h.density(&Point::new([1.0, 1.0])) - 1.0 / 16.0).abs() < 1e-12);
        assert_eq!(h.density(&Point::new([5.0, 1.0])), 0.0);
    }

    #[test]
    fn marginal_cdf_uniform_is_linear() {
        let h = uniform_grid();
        assert!((h.marginal_cdf(0, 1.0) - 0.25).abs() < 1e-12);
        assert!((h.marginal_cdf(1, 3.0) - 0.75).abs() < 1e-12);
        assert_eq!(h.marginal_cdf(0, -1.0), 0.0);
        assert_eq!(h.marginal_cdf(0, 9.0), 1.0);
    }

    #[test]
    fn marginal_cdf_skewed() {
        // All mass in the left column.
        let mut w = vec![0.0; 16];
        for row in 0..4 {
            w[row * 4] = 1.0; // dimension 0 slowest ⇒ idx [row, 0]
        }
        let h = HistogramPdf::new(Rect::new([0.0, 0.0], [4.0, 4.0]), [4, 4], w);
        // dim 1 (columns): everything left of 1.0
        assert!((h.marginal_cdf(1, 1.0) - 1.0).abs() < 1e-12);
        assert!((h.marginal_cdf(1, 0.5) - 0.5).abs() < 1e-12);
        // dim 0 (rows) stays uniform
        assert!((h.marginal_cdf(0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probability_in_matches_geometry_for_uniform() {
        let h = uniform_grid();
        let q = Rect::new([0.0, 0.0], [2.0, 2.0]);
        assert!((h.probability_in(&q) - 0.25).abs() < 1e-12);
        let q2 = Rect::new([0.5, 0.5], [1.5, 1.5]); // area 1 of 16
        assert!((h.probability_in(&q2) - 1.0 / 16.0).abs() < 1e-12);
        let outside = Rect::new([10.0, 10.0], [11.0, 11.0]);
        assert_eq!(h.probability_in(&outside), 0.0);
        let all = Rect::new([-1.0, -1.0], [5.0, 5.0]);
        assert!((h.probability_in(&all) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_fn_picks_up_shape() {
        // Density ∝ x on [0,1]²: P(X₀ <= 0.5) should be 0.25.
        let h = HistogramPdf::from_fn(Rect::new([0.0, 0.0], [1.0, 1.0]), [64, 4], |p| p.coords[0]);
        assert!((h.marginal_cdf(0, 0.5) - 0.25).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "weight count")]
    fn wrong_weight_count_panics() {
        HistogramPdf::new(Rect::new([0.0], [1.0]), [4], vec![1.0; 3]);
    }
}
