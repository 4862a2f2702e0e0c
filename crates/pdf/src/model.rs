//! The pdf models attached to uncertain objects.

use crate::histogram::HistogramPdf;
use crate::marginal::{NumericMarginal, DEFAULT_GRID};
use crate::math::{chi2_cdf_cached, chi2_cdf_fast, unit_ball_volume};
use crate::region::Region;
use rand::Rng;
use std::sync::{Arc, PoisonError, RwLock};
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
/// (Sec 4.1) — the primitive PCR construction is built on. Every variant
/// is cheap to build: closed forms hold a center and a radius, a
/// tabulated shape is shared ([`MarginalCdf::UnitTable`]), and a
/// histogram collapses its grid once.
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
    /// A unit-shape table on `[-1, 1]`, moved to `center` and scaled by
    /// `radius` (Con-Gau, uniform balls for D ≥ 4). Objects of one shape
    /// share one table: Con-Gau's depends only on `(D, r/σ)`.
    UnitTable {
        /// Ball center projected on this axis.
        center: f64,
        /// Ball radius.
        radius: f64,
        /// The shared marginal of the unit-radius shape.
        unit: Arc<NumericMarginal>,
    },
    /// The exact piecewise-linear marginal of a histogram, held per
    /// object.
    Histogram(NumericMarginal),
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
            MarginalCdf::UnitTable {
                center,
                radius,
                unit,
            } => unit.cdf((t - center) / radius),
            MarginalCdf::Histogram(h) => h.cdf(t),
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
            MarginalCdf::UnitTable {
                center,
                radius,
                unit,
            } => center + radius * unit.quantile(p),
            MarginalCdf::Histogram(h) => h.quantile(p),
        }
    }
}

/// A marginal shape on `u = (x − c)/r ∈ [-1, 1]` without a closed form:
/// the key of a shared [`NumericMarginal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitShape {
    /// Uniform ball in `dim ≥ 4` dimensions: density ∝ (1 − u²)^((dim−1)/2).
    UniformBall { dim: usize },
    /// Constrained-Gaussian (Eq. 16) in `dim` dimensions; `kappa` holds
    /// the bits of κ = r/σ.
    ConGau { dim: usize, kappa: u64 },
}

impl UnitShape {
    /// Tabulates the shape's marginal on `[-1, 1]`. Panics (in
    /// [`NumericMarginal::from_density`]) when the density has no positive
    /// finite mass, as for σ = 0 or a non-finite κ.
    fn tabulate(self) -> NumericMarginal {
        let density = move |u: f64| {
            let w2 = (1.0 - u * u).max(0.0);
            match self {
                UnitShape::UniformBall { dim } => w2.powf((dim as f64 - 1.0) / 2.0),
                // Slice mass: the Gaussian at u times the mass an isotropic
                // (dim-1)-dim Gaussian places inside the cross-section ball
                // of radius √(1 − u²) (in units of r). Normalisation folds
                // into the tabulation; the fast chi² (error ≤ 2e-7) is
                // dwarfed by the grid error.
                UnitShape::ConGau { dim, kappa } => {
                    let k2 = f64::from_bits(kappa).powi(2);
                    let slice = if dim == 1 {
                        1.0
                    } else {
                        chi2_cdf_fast(dim - 1, w2 * k2)
                    };
                    (-u * u * k2 / 2.0).exp() * slice
                }
            }
        };
        NumericMarginal::from_density(density, -1.0, 1.0, DEFAULT_GRID)
    }

    /// The marginal of a ball of this shape at `center` with `radius`.
    fn marginal(self, center: f64, radius: f64) -> MarginalCdf {
        assert!(radius > 0.0, "marginal support must be non-degenerate");
        MarginalCdf::UnitTable {
            center,
            radius,
            unit: UNIT_TABLES.get(self),
        }
    }
}

/// A bounded cache of unit-shape tables, first come first served.
///
/// A dataset has few distinct shapes (the paper fixes σ = r/2, so every CA
/// object has κ = 2); a shape past [`UnitTables::CAP`] is tabulated
/// uncached, so a dataset of all-distinct σ pays what a per-object
/// tabulation costs and no more.
struct UnitTables {
    tables: RwLock<Vec<(UnitShape, Arc<NumericMarginal>)>>,
}

/// The process-wide unit-shape tables behind [`MarginalCdf::UnitTable`].
static UNIT_TABLES: UnitTables = UnitTables::new();

impl UnitTables {
    const CAP: usize = 32;

    const fn new() -> Self {
        Self {
            tables: RwLock::new(Vec::new()),
        }
    }

    fn lookup(
        tables: &[(UnitShape, Arc<NumericMarginal>)],
        shape: UnitShape,
    ) -> Option<Arc<NumericMarginal>> {
        tables
            .iter()
            .find(|(s, _)| *s == shape)
            .map(|(_, t)| Arc::clone(t))
    }

    /// The table of `shape`, tabulated on first use. No lock is held while
    /// tabulating, so a panicking tabulation leaves the cache as it was.
    /// A poisoned lock is still read: the only update is one `push`, so
    /// the list is valid at every step.
    fn get(&self, shape: UnitShape) -> Arc<NumericMarginal> {
        let cached = Self::lookup(
            &self.tables.read().unwrap_or_else(PoisonError::into_inner),
            shape,
        );
        if let Some(table) = cached {
            return table;
        }
        let table = Arc::new(shape.tabulate());
        let mut tables = self.tables.write().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have tabulated the same shape meanwhile: keep
        // one table per shape.
        if let Some(first) = Self::lookup(&tables, shape) {
            return first;
        }
        if tables.len() < Self::CAP {
            tables.push((shape, Arc::clone(&table)));
        }
        table
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
    /// Exact closed forms for boxes, disks and spheres; an exact
    /// piecewise-linear form for histograms; otherwise a unit-shape table
    /// shared by every object of the same shape, so no call tabulates
    /// more than once per shape ("the CFBs need to be computed only
    /// once").
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
                _ => UnitShape::UniformBall { dim: D }.marginal(center.coords[dim], *radius),
            },
            ObjectPdf::ConGauBall {
                center,
                radius,
                sigma,
            } => UnitShape::ConGau {
                dim: D,
                kappa: (radius / sigma).to_bits(),
            }
            .marginal(center.coords[dim], *radius),
            ObjectPdf::Histogram(h) => MarginalCdf::Histogram(h.marginal(dim)),
        }
    }

    /// All `D` marginals at once (PCR computation touches every dimension).
    pub fn marginals(&self) -> [MarginalCdf; D] {
        std::array::from_fn(|i| self.marginal(i))
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

    /// The paper's U-tree catalog, p_j = j/28 for j = 0..15.
    fn paper_catalog() -> impl Iterator<Item = f64> {
        (0..15).map(|j| j as f64 / 28.0)
    }

    fn unit_of(m: &MarginalCdf) -> &Arc<NumericMarginal> {
        match m {
            MarginalCdf::UnitTable { unit, .. } => unit,
            other => panic!("expected a unit table, got {other:?}"),
        }
    }

    /// The per-object tabulation the shared table replaces: the same
    /// density on `[c − r, c + r]` in absolute coordinates.
    fn per_object_reference<const D: usize>(c: f64, r: f64, s: f64) -> NumericMarginal {
        NumericMarginal::from_density(
            move |x| {
                let dx = x - c;
                let w2 = r * r - dx * dx;
                if D == 1 {
                    return (-dx * dx / (2.0 * s * s)).exp();
                }
                if w2 <= 0.0 {
                    return 0.0;
                }
                (-dx * dx / (2.0 * s * s)).exp() * chi2_cdf_fast(D - 1, w2 / (s * s))
            },
            c - r,
            c + r,
            DEFAULT_GRID,
        )
    }

    fn shared_table_matches_per_object<const D: usize>() {
        for kappa in [0.5, 1.0, 2.0, 4.0] {
            for (c, r) in [(0.0, 1.0), (-1e6, 1e3), (1e6, 7.5), (12_345.6, 250.0)] {
                let pdf: ObjectPdf<D> = ObjectPdf::ConGauBall {
                    center: Point::new([c; D]),
                    radius: r,
                    sigma: r / kappa,
                };
                let reference = per_object_reference::<D>(c, r, r / kappa);
                for (i, m) in pdf.marginals().iter().enumerate() {
                    for p in paper_catalog() {
                        for q in [p, 1.0 - p] {
                            let (got, want) = (m.quantile(q), reference.quantile(q));
                            assert!(
                                (got - want).abs() <= 1e-9 * r,
                                "D={D} κ={kappa} c={c} r={r} dim {i} p={q}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn congau_shared_table_matches_per_object_tabulation() {
        shared_table_matches_per_object::<1>();
        shared_table_matches_per_object::<2>();
        shared_table_matches_per_object::<3>();
    }

    #[test]
    fn objects_of_one_kappa_share_one_table() {
        let a: ObjectPdf<2> = ObjectPdf::ConGauBall {
            center: Point::new([1000.0, -20.0]),
            radius: 250.0,
            sigma: 125.0,
        };
        let b: ObjectPdf<2> = ObjectPdf::ConGauBall {
            center: Point::new([-3.0, 4e5]),
            radius: 10.0,
            sigma: 5.0,
        };
        let (ma, mb) = (a.marginals(), b.marginals());
        assert!(Arc::ptr_eq(unit_of(&ma[0]), unit_of(&mb[1])));
        assert!(Arc::ptr_eq(unit_of(&ma[0]), unit_of(&ma[1])));
        let other: ObjectPdf<2> = ObjectPdf::ConGauBall {
            center: Point::new([0.0, 0.0]),
            radius: 250.0,
            sigma: 100.0,
        };
        assert!(!Arc::ptr_eq(unit_of(&ma[0]), unit_of(&other.marginal(0))));
        let ball: ObjectPdf<4> = ObjectPdf::UniformBall {
            center: Point::new([1.0, 2.0, 3.0, 4.0]),
            radius: 2.0,
        };
        assert!(Arc::ptr_eq(
            unit_of(&ball.marginal(0)),
            unit_of(&ball.marginal(3))
        ));
    }

    #[test]
    fn concurrent_lookups_are_bit_equal() {
        // κ values no other test uses, so the threads race to tabulate.
        let objects: Vec<ObjectPdf<3>> = [1.37, 2.91, 0.73]
            .iter()
            .enumerate()
            .map(|(i, &kappa)| ObjectPdf::ConGauBall {
                center: Point::new([i as f64 * 100.0, -5.0, 7.0]),
                radius: 40.0,
                sigma: 40.0 / kappa,
            })
            .collect();
        let start = std::sync::Barrier::new(4);
        let faces = || -> Vec<u64> {
            start.wait();
            let mut bits = Vec::new();
            for pdf in &objects {
                for m in pdf.marginals() {
                    bits.extend(paper_catalog().map(|p| m.quantile(p).to_bits()));
                }
            }
            bits
        };
        let runs: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(faces)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for run in &runs[1..] {
            assert_eq!(run, &runs[0]);
        }
    }

    #[test]
    fn shapes_past_the_cap_are_tabulated_uncached() {
        let cache = UnitTables::new();
        for i in 0..UnitTables::CAP + 3 {
            let shape = UnitShape::ConGau {
                dim: 2,
                kappa: (1.0 + i as f64 / 8.0).to_bits(),
            };
            let (first, again) = (cache.get(shape), cache.get(shape));
            assert_eq!(
                Arc::ptr_eq(&first, &again),
                i < UnitTables::CAP,
                "shape {i}"
            );
            assert_eq!(first.quantile(0.3), again.quantile(0.3));
        }
        assert_eq!(cache.tables.read().unwrap().len(), UnitTables::CAP);
    }

    #[test]
    fn a_degenerate_congau_neither_poisons_nor_grows_the_cache() {
        for (radius, sigma) in [(5.0, 0.0), (5.0, f64::NAN), (f64::INFINITY, 1.0)] {
            let bad: ObjectPdf<2> = ObjectPdf::ConGauBall {
                center: Point::new([0.0, 0.0]),
                radius,
                sigma,
            };
            assert!(std::panic::catch_unwind(|| bad.marginal(0)).is_err());
        }
        assert!(!UNIT_TABLES.tables.is_poisoned());
        let tables = UNIT_TABLES.tables.read().unwrap();
        assert!(!tables.iter().any(|(shape, _)| matches!(
            shape,
            UnitShape::ConGau { kappa, .. } if !f64::from_bits(*kappa).is_finite()
        )));
        drop(tables);
        let good: ObjectPdf<2> = ObjectPdf::ConGauBall {
            center: Point::new([0.0, 0.0]),
            radius: 5.0,
            sigma: 2.5,
        };
        let m = good.marginal(1);
        assert!((m.quantile(0.5)).abs() < 1e-9);
        assert!((m.cdf(m.quantile(0.2)) - 0.2).abs() < 1e-9);
    }

    /// Skewed histograms with empty rows and columns: every PCR face cuts
    /// off exactly p of the mass, against both the marginal's own CDF and
    /// the clipped cell sum of a half-space.
    #[test]
    fn histogram_pcr_faces_are_exact() {
        let rect = Rect::new([1000.0, -250.0], [1400.0, 50.0]);
        let mut grids = Vec::new();
        for (bins, seed) in [([8usize, 8usize], 3u64), ([32, 32], 7), ([5, 13], 11)] {
            let mut state = seed;
            let weights = (0..bins[0] * bins[1])
                .map(|flat| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let (row, col) = (flat / bins[1], flat % bins[1]);
                    // Empty every third row and every fourth column; skew
                    // the rest toward high columns.
                    if row % 3 == 1 || col % 4 == 2 {
                        0.0
                    } else {
                        ((state >> 40) as f64 / (1u64 << 24) as f64) * (1 + col * col) as f64
                    }
                })
                .collect();
            grids.push(HistogramPdf::new(rect, bins, weights));
        }
        for h in grids {
            let pdf = ObjectPdf::Histogram(h.clone());
            for (dim, m) in pdf.marginals().iter().enumerate() {
                let below = |t: f64| {
                    let mut half = rect;
                    half.max[dim] = t;
                    h.probability_in(&half)
                };
                for p in paper_catalog() {
                    let (lo, hi) = (m.quantile(p), m.quantile(1.0 - p));
                    assert!((m.cdf(lo) - p).abs() <= 1e-12, "dim {dim} p={p}");
                    assert!((1.0 - m.cdf(hi) - p).abs() <= 1e-12, "dim {dim} p={p}");
                    assert!((below(lo) - p).abs() <= 1e-12, "dim {dim} p={p}");
                    assert!((1.0 - below(hi) - p).abs() <= 1e-12, "dim {dim} p={p}");
                }
            }
        }
    }

    #[test]
    fn histogram_quantile_takes_the_left_end_of_a_flat_stretch() {
        let h = HistogramPdf::new(Rect::new([0.0], [4.0]), [4], vec![1.0, 0.0, 0.0, 1.0]);
        let m = ObjectPdf::Histogram(h).marginal(0);
        assert_eq!(m.quantile(0.5), 1.0);
        assert_eq!(m.cdf(2.0), 0.5);
        assert!((m.quantile(0.75) - 3.5).abs() < 1e-12);
        assert_eq!(m.quantile(0.0), 0.0);
        assert_eq!(m.quantile(1.0), 4.0);
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
