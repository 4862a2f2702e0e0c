//! The pdf models attached to uncertain objects.

use crate::histogram::HistogramPdf;
use crate::marginal::{NumericMarginal, DEFAULT_GRID};
use crate::math::{chi2_cdf_cached, unit_ball_volume};
use crate::region::Region;
use rand::Rng;
use uncertain_geom::{Point, Rect};

/// A probability density function with bounded support.
///
/// The paper's experiments use `UniformBall` (LB, Aircraft) and
/// `ConGauBall` — the *Constrained-Gaussian* of Eq. 16 — (CA). `UniformBox`
/// models sensor-style axis-aligned uncertainty and `Histogram` realises
/// truly arbitrary shapes. The index never looks inside this enum: it only
/// consumes [`ObjectPdf::mbr`], [`ObjectPdf::marginal`] (for PCRs) and the
/// appearance-probability evaluator (for refinement), which is exactly the
/// paper's "unified solution" contract.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectPdf<const D: usize> {
    /// Equal density over a ball (paper Eq. 1 scenario).
    UniformBall {
        /// Ball center.
        center: Point<D>,
        /// Ball radius.
        radius: f64,
    },
    /// Equal density over a box.
    UniformBox {
        /// The support box.
        rect: Rect<D>,
    },
    /// Isotropic Gaussian with mean `center` and std-dev `sigma`, truncated
    /// to the ball of `radius` and renormalised (paper Eq. 16). The paper
    /// uses `sigma = radius / 2`.
    ConGauBall {
        /// Gaussian mean and ball center.
        center: Point<D>,
        /// Truncation radius.
        radius: f64,
        /// Standard deviation before truncation.
        sigma: f64,
    },
    /// Arbitrary grid pdf.
    Histogram(HistogramPdf<D>),
}

/// A per-dimension marginal CDF with an exact or tabulated backend.
///
/// `marginal(i).quantile(p)` is the paper's "solve x from o.cdf(x) = p"
/// (Sec 4.1) — the primitive PCR construction is built on.
#[derive(Debug, Clone)]
pub enum MarginalCdf {
    /// Linear CDF on `[lo, hi]` (uniform box).
    UniformInterval {
        /// Lower support bound.
        lo: f64,
        /// Upper support bound.
        hi: f64,
    },
    /// Marginal of the uniform distribution over a 2-D disk.
    UniformDisk {
        /// Disk center projected on this axis.
        center: f64,
        /// Disk radius.
        radius: f64,
    },
    /// Marginal of the uniform distribution over a 3-D ball.
    UniformSphere {
        /// Ball center projected on this axis.
        center: f64,
        /// Ball radius.
        radius: f64,
    },
    /// Tabulated fallback (Con-Gau, uniform balls for D >= 4, histograms).
    Numeric(NumericMarginal),
}

impl MarginalCdf {
    /// `P(X_i <= t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        match self {
            MarginalCdf::UniformInterval { lo, hi } => ((t - lo) / (hi - lo)).clamp(0.0, 1.0),
            MarginalCdf::UniformDisk { center, radius } => {
                let u = ((t - center) / radius).clamp(-1.0, 1.0);
                // Area fraction of the disk left of the chord at u:
                // (u√(1-u²) + asin(u) + π/2) / π
                (u * (1.0 - u * u).sqrt() + u.asin() + std::f64::consts::FRAC_PI_2)
                    / std::f64::consts::PI
            }
            MarginalCdf::UniformSphere { center, radius } => {
                let u = ((t - center) / radius).clamp(-1.0, 1.0);
                // Volume fraction: 3/4·(u - u³/3 + 2/3)
                0.75 * (u - u * u * u / 3.0 + 2.0 / 3.0)
            }
            MarginalCdf::Numeric(n) => n.cdf(t),
        }
    }

    /// Smallest `t` with `cdf(t) >= p` (clamped to the support).
    ///
    /// Disk/sphere marginals share one precomputed unit inverse-CDF table
    /// (every object has the same shape up to center/radius), polished by
    /// two Newton steps with the analytic marginal density — this keeps the
    /// per-object PCR cost at insertion time low.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        match self {
            MarginalCdf::UniformInterval { lo, hi } => lo + p * (hi - lo),
            MarginalCdf::UniformDisk { center, radius } => {
                center + radius * unit_ball_quantile::<2>(p)
            }
            MarginalCdf::UniformSphere { center, radius } => {
                center + radius * unit_ball_quantile::<3>(p)
            }
            MarginalCdf::Numeric(n) => n.quantile(p),
        }
    }
}

/// Unit-ball marginal CDF on `[-1, 1]` for dimension `BALL_D` (2 or 3).
fn unit_ball_cdf<const BALL_D: usize>(u: f64) -> f64 {
    let u = u.clamp(-1.0, 1.0);
    match BALL_D {
        2 => {
            (u * (1.0 - u * u).sqrt() + u.asin() + std::f64::consts::FRAC_PI_2)
                / std::f64::consts::PI
        }
        3 => 0.75 * (u - u * u * u / 3.0 + 2.0 / 3.0),
        // xlint: allow(panic-freedom) -- invariant: only disk and sphere have table-backed quantiles
        _ => unreachable!("only disk and sphere have table-backed quantiles"),
    }
}

/// Normalised marginal density of the unit ball (the Newton derivative).
fn unit_ball_density<const BALL_D: usize>(u: f64) -> f64 {
    let w2 = (1.0 - u * u).max(0.0);
    match BALL_D {
        2 => 2.0 * w2.sqrt() / std::f64::consts::PI,
        3 => 0.75 * w2,
        // xlint: allow(panic-freedom) -- tag validated at decode time; other values are unconstructible
        _ => unreachable!(),
    }
}

/// Quantile of the unit-ball marginal via a shared 1024-entry table plus
/// Newton polish (absolute accuracy ~1e-12 away from the poles).
fn unit_ball_quantile<const BALL_D: usize>(p: f64) -> f64 {
    use std::sync::OnceLock;
    static DISK: OnceLock<Vec<f64>> = OnceLock::new();
    static SPHERE: OnceLock<Vec<f64>> = OnceLock::new();
    const N: usize = 1024;
    let table = match BALL_D {
        2 => DISK.get_or_init(|| build_unit_table::<2>(N)),
        3 => SPHERE.get_or_init(|| build_unit_table::<3>(N)),
        // xlint: allow(panic-freedom) -- tag validated at decode time; other values are unconstructible
        _ => unreachable!(),
    };
    if p <= 0.0 {
        return -1.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    let pos = p * N as f64;
    let k = (pos.floor() as usize).min(N - 1);
    let frac = pos - k as f64;
    let mut u = table[k] + (table[k + 1] - table[k]) * frac;
    // Newton polish on the analytic CDF.
    for _ in 0..2 {
        let f = unit_ball_cdf::<BALL_D>(u) - p;
        let d = unit_ball_density::<BALL_D>(u);
        if d > 1e-12 {
            u = (u - f / d).clamp(-1.0, 1.0);
        }
    }
    u
}

fn build_unit_table<const BALL_D: usize>(n: usize) -> Vec<f64> {
    (0..=n)
        .map(|k| {
            let p = k as f64 / n as f64;
            crate::math::bisect_monotone(&unit_ball_cdf::<BALL_D>, -1.0, 1.0, p, 1e-14)
        })
        .collect()
}

impl<const D: usize> ObjectPdf<D> {
    /// The support of the pdf (the paper's `o.ur`).
    pub fn region(&self) -> Region<D> {
        match self {
            ObjectPdf::UniformBall { center, radius }
            | ObjectPdf::ConGauBall { center, radius, .. } => Region::Ball {
                center: *center,
                radius: *radius,
            },
            ObjectPdf::UniformBox { rect } => Region::Box { rect: *rect },
            ObjectPdf::Histogram(h) => Region::Box { rect: *h.rect() },
        }
    }

    /// MBR of the uncertainty region (`o.MBR` in the paper).
    pub fn mbr(&self) -> Rect<D> {
        self.region().mbr()
    }

    /// Normalisation constant λ of the Constrained-Gaussian (Eq. 16):
    /// the mass the untruncated Gaussian places inside the ball.
    /// Returns 1 for the other models.
    ///
    /// Memoized ([`chi2_cdf_cached`]) — λ depends only on `(D, r/σ)`, so
    /// the per-sample calls from scalar [`ObjectPdf::density`] and the
    /// `appearance_reference` quadrature hit the cache after the first
    /// evaluation.
    pub fn lambda(&self) -> f64 {
        match self {
            ObjectPdf::ConGauBall { radius, sigma, .. } => {
                chi2_cdf_cached(D, (radius / sigma).powi(2))
            }
            _ => 1.0,
        }
    }

    /// Density at `p` (0 outside the support).
    pub fn density(&self, p: &Point<D>) -> f64 {
        match self {
            ObjectPdf::UniformBall { center, radius } => {
                if center.distance_sq(p) <= radius * radius {
                    1.0 / (unit_ball_volume(D) * radius.powi(D as i32))
                } else {
                    0.0
                }
            }
            ObjectPdf::UniformBox { rect } => {
                if rect.contains_point(p) {
                    1.0 / rect.area()
                } else {
                    0.0
                }
            }
            ObjectPdf::ConGauBall {
                center,
                radius,
                sigma,
            } => {
                let d2 = center.distance_sq(p);
                if d2 > radius * radius {
                    return 0.0;
                }
                let norm = (sigma * (2.0 * std::f64::consts::PI).sqrt()).powi(D as i32);
                ((-d2 / (2.0 * sigma * sigma)).exp() / norm) / self.lambda()
            }
            ObjectPdf::Histogram(h) => h.density(p),
        }
    }

    /// The marginal CDF on dimension `dim`.
    ///
    /// Exact closed forms where they exist; tabulated otherwise. The
    /// tabulation is the one-time per-object cost the paper accepts at
    /// insertion time ("the CFBs need to be computed only once").
    pub fn marginal(&self, dim: usize) -> MarginalCdf {
        assert!(dim < D);
        match self {
            ObjectPdf::UniformBox { rect } => MarginalCdf::UniformInterval {
                lo: rect.min[dim],
                hi: rect.max[dim],
            },
            ObjectPdf::UniformBall { center, radius } => match D {
                1 => MarginalCdf::UniformInterval {
                    lo: center.coords[dim] - radius,
                    hi: center.coords[dim] + radius,
                },
                2 => MarginalCdf::UniformDisk {
                    center: center.coords[dim],
                    radius: *radius,
                },
                3 => MarginalCdf::UniformSphere {
                    center: center.coords[dim],
                    radius: *radius,
                },
                _ => {
                    // Marginal density ∝ (1 - u²)^((D-1)/2)
                    let c = center.coords[dim];
                    let r = *radius;
                    let e = (D as f64 - 1.0) / 2.0;
                    MarginalCdf::Numeric(NumericMarginal::from_density(
                        move |x| {
                            let u = (x - c) / r;
                            (1.0 - u * u).max(0.0).powf(e)
                        },
                        c - r,
                        c + r,
                        DEFAULT_GRID,
                    ))
                }
            },
            ObjectPdf::ConGauBall {
                center,
                radius,
                sigma,
            } => {
                let c = center.coords[dim];
                let r = *radius;
                let s = *sigma;
                if D == 1 {
                    MarginalCdf::Numeric(NumericMarginal::from_density(
                        move |x| (-(x - c) * (x - c) / (2.0 * s * s)).exp(),
                        c - r,
                        c + r,
                        DEFAULT_GRID,
                    ))
                } else {
                    // Slice mass: g(x) times the mass an isotropic (D-1)-dim
                    // Gaussian places inside the cross-section ball of radius
                    // w(x) = sqrt(r² - (x-c)²). Normalisation folds into the
                    // tabulation; the fast chi² (error ≤ 2e-7) is dwarfed by
                    // the grid error.
                    MarginalCdf::Numeric(NumericMarginal::from_density(
                        move |x| {
                            let dx = x - c;
                            let w2 = r * r - dx * dx;
                            if w2 <= 0.0 {
                                return 0.0;
                            }
                            (-dx * dx / (2.0 * s * s)).exp()
                                * crate::math::chi2_cdf_fast(D - 1, w2 / (s * s))
                        },
                        c - r,
                        c + r,
                        DEFAULT_GRID,
                    ))
                }
            }
            ObjectPdf::Histogram(h) => {
                // Delegate to the histogram's exact marginal via tabulation
                // of its piecewise-constant marginal density? Not needed —
                // wrap the exact CDF directly.
                let rect = *h.rect();
                let lo = rect.min[dim];
                let hi = rect.max[dim];
                // Tabulate the exact CDF derivative at high resolution.
                let h2 = h.clone();
                MarginalCdf::Numeric(NumericMarginal::from_density(
                    move |x| {
                        // Numerical derivative of the exact marginal CDF is
                        // avoidable: the marginal density is piecewise
                        // constant; sample the CDF slope at cell resolution.
                        let eps = (hi - lo) * 1e-7;
                        (h2.marginal_cdf(dim, x + eps) - h2.marginal_cdf(dim, x - eps))
                            / (2.0 * eps)
                    },
                    lo,
                    hi,
                    DEFAULT_GRID.max(h.bins()[dim] * 8),
                ))
            }
        }
    }

    /// All `D` marginals at once (PCR computation touches every dimension).
    pub fn marginals(&self) -> Vec<MarginalCdf> {
        (0..D).map(|i| self.marginal(i)).collect()
    }

    /// Draws a point uniformly from the *support* — this is the sampling
    /// distribution of the paper's Monte-Carlo estimator (Eq. 3).
    pub fn sample_support_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Point<D> {
        self.region().sample_uniform(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> ObjectPdf<2> {
        ObjectPdf::UniformBall {
            center: Point::new([100.0, 50.0]),
            radius: 10.0,
        }
    }

    #[test]
    fn uniform_ball_density_integrates_to_one() {
        let p = disk();
        let d = p.density(&Point::new([100.0, 50.0]));
        let area = std::f64::consts::PI * 100.0;
        assert!((d - 1.0 / area).abs() < 1e-12);
        assert_eq!(p.density(&Point::new([120.0, 50.0])), 0.0);
    }

    #[test]
    fn disk_marginal_cdf_midpoint_and_symmetry() {
        let p = disk();
        let m = p.marginal(0);
        assert!((m.cdf(100.0) - 0.5).abs() < 1e-12);
        assert!((m.cdf(90.0)).abs() < 1e-12);
        assert!((m.cdf(110.0) - 1.0).abs() < 1e-12);
        // symmetry: F(c - t) = 1 - F(c + t)
        for t in [2.0, 5.0, 8.0] {
            assert!((m.cdf(100.0 - t) - (1.0 - m.cdf(100.0 + t))).abs() < 1e-10);
        }
    }

    #[test]
    fn disk_quantile_inverts() {
        let m = disk().marginal(1);
        for p in [0.1, 0.25, 0.5, 0.9] {
            let t = m.quantile(p);
            assert!((m.cdf(t) - p).abs() < 1e-8, "p={p}");
        }
        assert_eq!(m.quantile(0.0), 40.0);
        assert_eq!(m.quantile(1.0), 60.0);
    }

    #[test]
    fn sphere_marginal_is_the_cap_volume() {
        let p: ObjectPdf<3> = ObjectPdf::UniformBall {
            center: Point::new([0.0, 0.0, 0.0]),
            radius: 1.0,
        };
        let m = p.marginal(2);
        assert!((m.cdf(0.0) - 0.5).abs() < 1e-12);
        // cap up to u=0.5: 3/4·(0.5 - 0.125/3 + 2/3)
        let expect = 0.75 * (0.5 - 0.125 / 3.0 + 2.0 / 3.0);
        assert!((m.cdf(0.5) - expect).abs() < 1e-12);
    }

    #[test]
    fn congau_lambda_and_density() {
        let p: ObjectPdf<2> = ObjectPdf::ConGauBall {
            center: Point::new([0.0, 0.0]),
            radius: 250.0,
            sigma: 125.0,
        };
        // λ = 1 - exp(-(r/σ)²/2) = 1 - exp(-2)
        let lambda = p.lambda();
        assert!((lambda - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
        // density at center = 1/(2πσ²λ)
        let expect = 1.0 / (2.0 * std::f64::consts::PI * 125.0 * 125.0 * lambda);
        assert!((p.density(&Point::new([0.0, 0.0])) - expect).abs() < 1e-15);
        assert_eq!(p.density(&Point::new([251.0, 0.0])), 0.0);
    }

    #[test]
    fn congau_marginal_symmetric_and_tighter_than_uniform() {
        let c = Point::new([0.0, 0.0]);
        let gau: ObjectPdf<2> = ObjectPdf::ConGauBall {
            center: c,
            radius: 250.0,
            sigma: 125.0,
        };
        let m = gau.marginal(0);
        assert!((m.cdf(0.0) - 0.5).abs() < 1e-6);
        for t in [50.0, 120.0, 200.0] {
            assert!((m.cdf(-t) - (1.0 - m.cdf(t))).abs() < 1e-6);
        }
        // Gaussian concentrates mass near the mean: its 10% quantile must be
        // closer to the center than the uniform disk's.
        let uni = ObjectPdf::UniformBall {
            center: c,
            radius: 250.0,
        };
        assert!(m.quantile(0.1) > uni.marginal(0).quantile(0.1));
    }

    #[test]
    fn mbr_of_ball_and_box() {
        assert_eq!(disk().mbr(), Rect::new([90.0, 40.0], [110.0, 60.0]));
        let b: ObjectPdf<2> = ObjectPdf::UniformBox {
            rect: Rect::new([1.0, 2.0], [3.0, 4.0]),
        };
        assert_eq!(b.mbr(), Rect::new([1.0, 2.0], [3.0, 4.0]));
    }

    #[test]
    fn histogram_marginal_roundtrip() {
        let h = HistogramPdf::from_fn(Rect::new([0.0, 0.0], [1.0, 1.0]), [16, 16], |p| {
            1.0 + p.coords[0]
        });
        let pdf = ObjectPdf::Histogram(h.clone());
        let m = pdf.marginal(0);
        for t in [0.25, 0.5, 0.75] {
            assert!(
                (m.cdf(t) - h.marginal_cdf(0, t)).abs() < 5e-3,
                "tabulated marginal deviates at {t}"
            );
        }
    }

    #[test]
    fn support_sampling_matches_region() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(11);
        let p = disk();
        for _ in 0..100 {
            let x = p.sample_support_uniform(&mut rng);
            assert!(p.region().contains(&x));
        }
    }
}
