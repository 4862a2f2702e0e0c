//! Tabulated one-dimensional marginal CDFs.
//!
//! PCR computation (paper Sec 4.1) reduces to inverting the per-dimension
//! cumulative density `o.cdf(x_i)`. For models without a closed form
//! (Constrained-Gaussian, uniform balls in D ≥ 4) the marginal, written in
//! `u = (x − c)/r`, depends only on the object's shape, not on its center
//! or radius. So a [`NumericMarginal`] is tabulated once per shape on
//! `[−1, 1]` and shared by every object of that shape (see
//! `MarginalCdf::UnitTable` in the model module): inserting an object
//! costs a table lookup, not a tabulation.

/// Number of grid cells used by default when tabulating a marginal density.
///
/// The trapezoid error is O((range/N)²) relative to the range; with N = 1024
/// on a unit table this is sub-1e-5 of the object's diameter — far below
/// the query-side tolerances.
pub const DEFAULT_GRID: usize = 1024;

/// A monotone piecewise-linear CDF on `[lo, hi]`, normalised to end at 1.
#[derive(Debug, Clone)]
pub struct NumericMarginal {
    lo: f64,
    hi: f64,
    /// `cdf[k]` = normalised mass in `[lo, lo + k·h]`, `cdf[n] = 1`.
    cdf: Vec<f64>,
    /// Total (unnormalised) mass; callers may want it (e.g. λ in Eq. 16).
    total_mass: f64,
}

impl NumericMarginal {
    /// Tabulates `density` on `[lo, hi]` with `n` cells using the composite
    /// trapezoid rule, then normalises.
    pub fn from_density<F: Fn(f64) -> f64>(density: F, lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 2);
        let h = (hi - lo) / n as f64;
        let mut cdf = Vec::with_capacity(n + 1);
        cdf.push(0.0);
        let mut prev = density(lo).max(0.0);
        let mut acc = 0.0;
        for k in 1..=n {
            let x = lo + k as f64 * h;
            let cur = density(x).max(0.0);
            acc += 0.5 * (prev + cur) * h;
            cdf.push(acc);
            prev = cur;
        }
        Self::from_cumulative(cdf, lo, hi)
    }

    /// The CDF through cumulative masses `cum[k]` at `lo + k·(hi − lo)/n`,
    /// `n = cum.len() − 1`, with `cum[0] = 0`; normalised by `cum[n]`.
    /// Exact for a density that is constant on each cell, such as a
    /// histogram's marginal.
    pub(crate) fn from_cumulative(mut cdf: Vec<f64>, lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "marginal support must be non-degenerate");
        assert!(cdf.len() >= 2, "a marginal needs at least one cell");
        let n = cdf.len() - 1;
        let total_mass = cdf[n];
        assert!(
            total_mass > 0.0 && total_mass.is_finite(),
            "marginal density must have positive finite mass, got {total_mass}"
        );
        for v in cdf.iter_mut() {
            *v /= total_mass;
        }
        // Guard against round-off: the table must be exactly monotone with
        // cdf[n] == 1 so that quantile() is total.
        for k in 1..=n {
            if cdf[k] < cdf[k - 1] {
                cdf[k] = cdf[k - 1];
            }
        }
        cdf[n] = 1.0;
        Self {
            lo,
            hi,
            cdf,
            total_mass,
        }
    }

    /// Unnormalised total mass of the tabulated density.
    pub fn total_mass(&self) -> f64 {
        self.total_mass
    }

    /// `P(X <= t)`, clamped outside the support.
    pub fn cdf(&self, t: f64) -> f64 {
        if t <= self.lo {
            return 0.0;
        }
        if t >= self.hi {
            return 1.0;
        }
        let n = self.cdf.len() - 1;
        let h = (self.hi - self.lo) / n as f64;
        let pos = (t - self.lo) / h;
        let k = (pos.floor() as usize).min(n - 1);
        let frac = pos - k as f64;
        self.cdf[k] + (self.cdf[k + 1] - self.cdf[k]) * frac
    }

    /// Smallest `t` with `P(X <= t) >= p` (linear interpolation inside the
    /// straddling cell): on a flat (zero-mass) stretch, its left end. `p`
    /// outside `[0,1]` clamps to the support ends.
    pub fn quantile(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return self.lo;
        }
        if p >= 1.0 {
            return self.hi;
        }
        // Binary search for the straddling cell, keeping cdf[a] < p <=
        // cdf[b]: the cell found has mass, and every cell left of it ends
        // below p.
        let mut a = 0;
        let mut b = self.cdf.len() - 1;
        while b - a > 1 {
            let mid = (a + b) / 2;
            if self.cdf[mid] < p {
                a = mid;
            } else {
                b = mid;
            }
        }
        let n = self.cdf.len() - 1;
        let h = (self.hi - self.lo) / n as f64;
        let ca = self.cdf[a];
        let cb = self.cdf[b];
        self.lo + a as f64 * h + h * (p - ca) / (cb - ca)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::std_normal_cdf;

    #[test]
    fn uniform_density_gives_linear_cdf() {
        let m = NumericMarginal::from_density(|_| 1.0, 0.0, 10.0, 100);
        assert!((m.cdf(2.5) - 0.25).abs() < 1e-12);
        assert!((m.cdf(10.0) - 1.0).abs() < 1e-12);
        assert!((m.quantile(0.5) - 5.0).abs() < 1e-9);
        assert!((m.total_mass() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_clamps_outside_support() {
        let m = NumericMarginal::from_density(|_| 1.0, -1.0, 1.0, 16);
        assert_eq!(m.cdf(-2.0), 0.0);
        assert_eq!(m.cdf(2.0), 1.0);
        assert_eq!(m.quantile(0.0), -1.0);
        assert_eq!(m.quantile(1.0), 1.0);
    }

    #[test]
    fn gaussian_tabulation_matches_phi() {
        let sigma = 1.0;
        let m = NumericMarginal::from_density(
            |x| (-x * x / (2.0 * sigma * sigma)).exp(),
            -8.0,
            8.0,
            4096,
        );
        for t in [-1.5, -0.5, 0.0, 0.7, 2.0] {
            let expect = std_normal_cdf(t); // truncation at ±8σ is negligible
            assert!(
                (m.cdf(t) - expect).abs() < 1e-5,
                "cdf({t}): {} vs {}",
                m.cdf(t),
                expect
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let m = NumericMarginal::from_density(|x| x.max(0.0), 0.0, 2.0, 2048);
        for p in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let t = m.quantile(p);
            assert!((m.cdf(t) - p).abs() < 1e-6, "round trip at p={p}");
            // density x on [0,2]: CDF = x²/4, quantile = 2√p
            assert!((t - 2.0 * p.sqrt()).abs() < 2e-3, "analytic check at p={p}");
        }
    }

    #[test]
    fn quantile_is_monotone() {
        let m = NumericMarginal::from_density(|x| (x * 3.0).sin().abs() + 0.01, 0.0, 5.0, 512);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let t = m.quantile(i as f64 / 100.0);
            assert!(t >= prev);
            prev = t;
        }
    }
}
