//! Appearance-probability evaluation.
//!
//! `P_app(o, q) = ∫_{o.ur ∩ r_q} o.pdf(x) dx` (paper Eq. 2). The paper
//! evaluates this with Monte-Carlo sampling (Eq. 3) because no closed form
//! exists for, e.g., a Gaussian clipped by an arbitrary rectangle. We
//! implement exactly that estimator — it is the "expensive refinement" whose
//! avoidance motivates the entire U-tree — plus deterministic quadrature
//! references used for validation and ground truth in tests.

use crate::math::{adaptive_simpson, std_normal_cdf, unit_ball_volume};
use crate::model::ObjectPdf;
use rand::Rng;
use uncertain_geom::Rect;

/// The Monte-Carlo estimator of Eq. 3.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    /// Number of points generated in the uncertainty region (the paper's
    /// n₁; Sec 6.1 settles on 10⁶).
    pub n1: usize,
}

/// A Monte-Carlo estimator was requested with `n1 == 0`: Eq. 3 divides by
/// the sampled weight mass, so zero samples has no defined answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroSampleCount;

impl std::fmt::Display for ZeroSampleCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Monte-Carlo sample count n1 must be at least 1")
    }
}

impl std::error::Error for ZeroSampleCount {}

impl Default for MonteCarlo {
    fn default() -> Self {
        Self { n1: 1_000_000 }
    }
}

impl MonteCarlo {
    /// Creates an estimator with the given sample count.
    ///
    /// # Panics
    /// Panics on `n1 == 0`; use [`MonteCarlo::try_new`] for the typed-error
    /// path.
    pub fn new(n1: usize) -> Self {
        // xlint: allow(panic-freedom) -- invariant: Monte-Carlo sample count n1 must be at least 1
        Self::try_new(n1).expect("Monte-Carlo sample count n1 must be at least 1")
    }

    /// Creates an estimator with the given sample count, rejecting
    /// `n1 == 0` as a typed error instead of panicking.
    pub fn try_new(n1: usize) -> Result<Self, ZeroSampleCount> {
        if n1 == 0 {
            return Err(ZeroSampleCount);
        }
        Ok(Self { n1 })
    }

    /// Estimates `P_app(o, q)` per Eq. 3:
    /// generate n₁ points uniformly in `o.ur`, weight each by `o.pdf`, and
    /// return the weight fraction of the points falling inside `rq`.
    ///
    /// Two short-circuits mirror the paper: when `o.ur ∩ r_q = ∅` the
    /// probability is 0 without sampling, and when `o.ur ⊆ r_q` Eq. 3
    /// degenerates to exactly 1 (n₂ = n₁).
    pub fn estimate<const D: usize, R: Rng + ?Sized>(
        &self,
        pdf: &ObjectPdf<D>,
        rq: &Rect<D>,
        rng: &mut R,
    ) -> f64 {
        let mbr = pdf.mbr();
        if !mbr.intersects(rq) {
            return 0.0;
        }
        if rq.contains_rect(&mbr) {
            return 1.0;
        }
        let mut total = 0.0;
        let mut inside = 0.0;
        for _ in 0..self.n1 {
            let x = pdf.sample_support_uniform(rng);
            let w = pdf.density(&x);
            total += w;
            if rq.contains_point(&x) {
                inside += w;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            inside / total
        }
    }
}

/// Deterministic high-accuracy reference for `P_app`.
///
/// * uniform box — exact overlap ratio;
/// * uniform ball — the exact disk/rect intersection area in 2-D,
///   otherwise recursive slice quadrature of the intersection volume;
/// * Con-Gau — recursive slice quadrature of the Gaussian mass in
///   ball ∩ rect, over λ;
/// * histogram — exact clipped cell sums.
///
/// Absolute error is bounded by `tol` (quadrature tolerance), except for the
/// exact paths which are tighter.
pub fn appearance_reference<const D: usize>(pdf: &ObjectPdf<D>, rq: &Rect<D>, tol: f64) -> f64 {
    match pdf {
        ObjectPdf::UniformBox { rect } => rect.overlap(rq) / rect.area(),
        ObjectPdf::UniformBall { center, radius } => {
            let vol = if D == 2 {
                disk_rect_area(&center.coords, *radius, &rq.min, &rq.max)
            } else {
                ball_rect_volume(&center.coords, *radius, &rq.min, &rq.max, tol)
            };
            (vol / (unit_ball_volume(D) * radius.powi(D as i32))).clamp(0.0, 1.0)
        }
        ObjectPdf::ConGauBall {
            center,
            radius,
            sigma,
        } => {
            let mass = gauss_ball_rect_mass(&center.coords, *sigma, *radius, &rq.min, &rq.max, tol);
            (mass / pdf.lambda()).clamp(0.0, 1.0)
        }
        ObjectPdf::Histogram(h) => h.probability_in(rq),
    }
}

/// Volume of `ball(center, r) ∩ rect`, computed by slicing dimension 0 and
/// recursing: the cross-section of a d-ball at offset `dx` is a
/// (d-1)-ball of radius `sqrt(r² - dx²)`.
fn ball_rect_volume(center: &[f64], r: f64, lo: &[f64], hi: &[f64], tol: f64) -> f64 {
    let Some((a, b)) = slice_range(center, r, lo, hi) else {
        return 0.0;
    };
    if center.len() == 1 {
        return b - a;
    }
    let f = |x: f64| {
        let dx = x - center[0];
        let w2 = r * r - dx * dx;
        if w2 <= 0.0 {
            0.0
        } else {
            ball_rect_volume(&center[1..], w2.sqrt(), &lo[1..], &hi[1..], tol * 0.1)
        }
    };
    adaptive_simpson(&f, a, b, tol)
}

/// The part of `[lo₀, hi₀]` whose slices of `ball(center, r)` meet the
/// rest of the rectangle, or `None` when no slice does.
///
/// The slice at `x` is a ball of radius `√(r² − (x − c₀)²)` about the
/// centre's remaining coordinates, and it meets the remaining faces iff
/// that radius exceeds their distance `d` from the centre. So the range is
/// clipped to `c₀ ± √(r² − d²)`: a quadrature over it never samples the
/// slices that miss, which could hide a thin cap between its first nodes.
fn slice_range(center: &[f64], r: f64, lo: &[f64], hi: &[f64]) -> Option<(f64, f64)> {
    debug_assert!(!center.is_empty());
    let d2: f64 = (1..center.len())
        .map(|i| {
            let gap = (lo[i] - center[i]).max(center[i] - hi[i]).max(0.0);
            gap * gap
        })
        .sum();
    if r <= 0.0 || d2 >= r * r {
        return None;
    }
    let half = (r * r - d2).sqrt();
    let a = lo[0].max(center[0] - half);
    let b = hi[0].min(center[0] + half);
    (a < b).then_some((a, b))
}

/// Area of `disk(center, r) ∩ rect`, in closed form: the integral over
/// the clipped x-range of the chord `min(y₁, s) − max(y₀, −s)`, with
/// `s(t) = √(r² − t²)` in coordinates centred on the disk. The range is
/// split where `s` meets `|y₀|` or `|y₁|`, so on each piece each end of
/// the chord is either a rectangle edge or the circle, whose integral is
/// `½(t·√(r² − t²) + r²·asin(t/r))`.
fn disk_rect_area(center: &[f64], r: f64, lo: &[f64], hi: &[f64]) -> f64 {
    let a = (lo[0] - center[0]).max(-r);
    let b = (hi[0] - center[0]).min(r);
    let (y0, y1) = (lo[1] - center[1], hi[1] - center[1]);
    if r <= 0.0 || a >= b || y0 >= y1 {
        return 0.0;
    }
    let s = |t: f64| (r * r - t * t).max(0.0).sqrt();
    let big_s = |t: f64| 0.5 * (t * s(t) + r * r * (t / r).clamp(-1.0, 1.0).asin());
    // Clamped into [a, b]; a cut at an end, or at 0 where |y| ≥ r, only
    // adds an empty or a redundant piece.
    let (t0, t1) = (s(y0), s(y1));
    let mut cuts = [a, b, -t0, t0, -t1, t1].map(|t| t.clamp(a, b));
    cuts.sort_by(f64::total_cmp);
    cuts.windows(2)
        .map(|w| {
            let (p, q) = (w[0], w[1]);
            let mid = s(0.5 * (p + q));
            if y1.min(mid) <= y0.max(-mid) {
                return 0.0;
            }
            let arc = big_s(q) - big_s(p);
            let top = if y1 < mid { y1 * (q - p) } else { arc };
            let bottom = if y0 > -mid { y0 * (q - p) } else { -arc };
            top - bottom
        })
        .sum()
}

/// Mass of an isotropic Gaussian `N(center, σ²I)` restricted to
/// `ball(center, r) ∩ rect` (not yet divided by λ), by the same slicing.
fn gauss_ball_rect_mass(
    center: &[f64],
    sigma: f64,
    r: f64,
    lo: &[f64],
    hi: &[f64],
    tol: f64,
) -> f64 {
    let Some((a, b)) = slice_range(center, r, lo, hi) else {
        return 0.0;
    };
    if center.len() == 1 {
        return std_normal_cdf((b - center[0]) / sigma) - std_normal_cdf((a - center[0]) / sigma);
    }
    let f = |x: f64| {
        let dx = x - center[0];
        let w2 = r * r - dx * dx;
        if w2 <= 0.0 {
            return 0.0;
        }
        let g = (-dx * dx / (2.0 * sigma * sigma)).exp()
            / (sigma * (2.0 * std::f64::consts::PI).sqrt());
        g * gauss_ball_rect_mass(
            &center[1..],
            sigma,
            w2.sqrt(),
            &lo[1..],
            &hi[1..],
            tol * 0.1,
        )
    };
    adaptive_simpson(&f, a, b, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use uncertain_geom::Point;

    fn disk() -> ObjectPdf<2> {
        ObjectPdf::UniformBall {
            center: Point::new([0.0, 0.0]),
            radius: 1.0,
        }
    }

    /// Rectangles span the disk's centre row, so every slice of the
    /// clipped x-range meets them: a rectangle holding only a thin cap
    /// can fall between all five of Simpson's first nodes, and the
    /// quadrature then reads 0.
    #[test]
    fn closed_form_disk_agrees_with_quadrature() {
        let mut rng = SmallRng::seed_from_u64(16);
        for _ in 0..2_000 {
            let c = [rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)];
            let r = rng.gen_range(0.1..3.0);
            let x = rng.gen_range(-4.0..4.0);
            let lo = [x, c[1] - rng.gen_range(0.0..1.2 * r)];
            let hi = [
                x + rng.gen_range(0.0..5.0),
                c[1] + rng.gen_range(0.0..1.2 * r),
            ];
            let exact = disk_rect_area(&c, r, &lo, &hi);
            let quad = ball_rect_volume(&c, r, &lo, &hi, 1e-10);
            assert!(
                (exact - quad).abs() < 1e-9,
                "c={c:?} r={r} rect={lo:?}..{hi:?}: closed form {exact}, quadrature {quad}"
            );
        }
    }

    #[test]
    fn closed_form_disk_over_a_covered_rect_is_the_box_ratio() {
        let pdf = ObjectPdf::UniformBall {
            center: Point::new([3.0, -1.0]),
            radius: 2.0,
        };
        for rq in [
            Rect::new([2.0, -2.0], [4.0, 0.0]),
            Rect::new([3.0, -1.0], [4.2, 0.5]),
            Rect::new([1.6, -1.3], [1.7, -0.2]),
        ] {
            let ratio = rq.area() / (std::f64::consts::PI * 4.0);
            let p = appearance_reference(&pdf, &rq, 1e-9);
            assert!((p - ratio).abs() <= 1e-15, "{rq:?}: {p} != {ratio}");
        }
    }

    #[test]
    fn closed_form_disk_measures_a_thin_cap_exactly() {
        // Everything of a radius-2 disk above y = 1.98: the circular
        // segment r²·acos(d/r) − d·√(r² − d²).
        let (r, d) = (2.0f64, 1.98f64);
        let segment = r * r * (d / r).acos() - d * (r * r - d * d).sqrt();
        let area = disk_rect_area(&[0.0, 0.0], r, &[-3.0, d], &[3.0, 3.0]);
        assert!((area - segment).abs() < 1e-12, "{area} != {segment}");
    }

    /// A rectangle that clips only a thin cap of a ball: every slice of
    /// the outer range outside a 0.6-wide band misses it, and unclipped,
    /// Simpson's first five nodes all landed there and read 0. The 3-D
    /// ball (the same slab over all z) and the 2-D Con-Gau (σ = r) must
    /// read non-zero and within 6σ of a 10⁶-sample Monte-Carlo estimate,
    /// σ the binomial standard error √(p(1 − p)/n₁).
    #[test]
    fn thin_caps_are_measured() {
        fn check<const D: usize>(pdf: &ObjectPdf<D>, rq: &Rect<D>) {
            let n1 = 1_000_000;
            let p = appearance_reference(pdf, rq, 1e-9);
            let mut rng = SmallRng::seed_from_u64(43);
            let est = MonteCarlo::new(n1).estimate(pdf, rq, &mut rng);
            let sigma = (p * (1.0 - p) / n1 as f64).sqrt();
            assert!(p > 0.0, "{pdf:?}: the cap reads 0");
            assert!(
                (p - est).abs() <= 6.0 * sigma,
                "{pdf:?}: reference {p}, Monte-Carlo {est}, σ {sigma}"
            );
        }
        let (r, c) = (2.0266, [-1.327, -1.025]);
        let (lo, hi) = ([-3.360, 0.979], [-0.012, 1.443]);
        let disk = ObjectPdf::UniformBall {
            center: Point::new(c),
            radius: r,
        };
        // The 2-D closed form, for scale: P ≈ 7.0e-4.
        let p_disk = appearance_reference(&disk, &Rect::new(lo, hi), 1e-9);
        assert!((6.9e-4..7.1e-4).contains(&p_disk), "{p_disk}");
        let ball = ObjectPdf::UniformBall {
            center: Point::new([c[0], c[1], 0.0]),
            radius: r,
        };
        check(&ball, &Rect::new([lo[0], lo[1], -r], [hi[0], hi[1], r]));
        let gauss = ObjectPdf::ConGauBall {
            center: Point::new(c),
            radius: r,
            sigma: r,
        };
        check(&gauss, &Rect::new(lo, hi));
    }

    #[test]
    fn reference_full_containment_is_one() {
        let rq = Rect::new([-2.0, -2.0], [2.0, 2.0]);
        assert!((appearance_reference(&disk(), &rq, 1e-8) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reference_half_plane_is_half() {
        let rq = Rect::new([-2.0, -2.0], [0.0, 2.0]);
        assert!((appearance_reference(&disk(), &rq, 1e-9) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn reference_quadrant_is_quarter() {
        let rq = Rect::new([0.0, 0.0], [2.0, 2.0]);
        assert!((appearance_reference(&disk(), &rq, 1e-9) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn reference_disjoint_is_zero() {
        let rq = Rect::new([5.0, 5.0], [6.0, 6.0]);
        assert_eq!(appearance_reference(&disk(), &rq, 1e-9), 0.0);
    }

    #[test]
    fn reference_sphere_half_space() {
        let ball: ObjectPdf<3> = ObjectPdf::UniformBall {
            center: Point::new([0.0, 0.0, 0.0]),
            radius: 1.0,
        };
        let rq = Rect::new([-2.0, -2.0, -2.0], [2.0, 2.0, 0.0]);
        assert!((appearance_reference(&ball, &rq, 1e-8) - 0.5).abs() < 1e-4);
    }

    #[test]
    fn reference_congau_half_plane() {
        let g: ObjectPdf<2> = ObjectPdf::ConGauBall {
            center: Point::new([0.0, 0.0]),
            radius: 250.0,
            sigma: 125.0,
        };
        let rq = Rect::new([-300.0, -300.0], [0.0, 300.0]);
        assert!((appearance_reference(&g, &rq, 1e-9) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn monte_carlo_converges_to_reference() {
        let pdf = disk();
        let rq = Rect::new([-0.3, -0.9], [0.8, 0.4]);
        let exact = appearance_reference(&pdf, &rq, 1e-9);
        let mut rng = SmallRng::seed_from_u64(42);
        let est = MonteCarlo::new(200_000).estimate(&pdf, &rq, &mut rng);
        assert!((est - exact).abs() < 0.01, "MC {est} vs reference {exact}");
    }

    #[test]
    fn monte_carlo_congau_converges() {
        let pdf: ObjectPdf<2> = ObjectPdf::ConGauBall {
            center: Point::new([0.0, 0.0]),
            radius: 250.0,
            sigma: 125.0,
        };
        let rq = Rect::new([-100.0, -50.0], [150.0, 220.0]);
        let exact = appearance_reference(&pdf, &rq, 1e-9);
        let mut rng = SmallRng::seed_from_u64(7);
        let est = MonteCarlo::new(300_000).estimate(&pdf, &rq, &mut rng);
        assert!((est - exact).abs() < 0.01, "MC {est} vs reference {exact}");
    }

    #[test]
    fn monte_carlo_short_circuits() {
        let pdf = disk();
        let mut rng = SmallRng::seed_from_u64(1);
        let contained = Rect::new([-5.0, -5.0], [5.0, 5.0]);
        assert_eq!(
            MonteCarlo::new(10).estimate(&pdf, &contained, &mut rng),
            1.0
        );
        let disjoint = Rect::new([10.0, 10.0], [11.0, 11.0]);
        assert_eq!(MonteCarlo::new(10).estimate(&pdf, &disjoint, &mut rng), 0.0);
    }

    #[test]
    fn monte_carlo_error_shrinks_with_n1() {
        // The Fig 7 phenomenon in miniature: bigger n₁ ⇒ smaller error.
        let pdf = disk();
        let rq = Rect::new([-0.5, -0.5], [0.5, 0.5]);
        let exact = appearance_reference(&pdf, &rq, 1e-10);
        let avg_err = |n1: usize| {
            let mut acc = 0.0;
            for seed in 0..8 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let est = MonteCarlo::new(n1).estimate(&pdf, &rq, &mut rng);
                acc += ((est - exact) / exact).abs();
            }
            acc / 8.0
        };
        let coarse = avg_err(100);
        let fine = avg_err(40_000);
        assert!(
            fine < coarse * 0.5,
            "error did not shrink: coarse {coarse}, fine {fine}"
        );
    }

    #[test]
    fn try_new_rejects_zero_samples() {
        assert_eq!(MonteCarlo::try_new(0).map(|mc| mc.n1), Err(ZeroSampleCount));
        assert_eq!(MonteCarlo::try_new(1).map(|mc| mc.n1), Ok(1));
        assert!(!ZeroSampleCount.to_string().is_empty());
    }

    #[test]
    fn histogram_reference_is_exact() {
        let h = crate::HistogramPdf::new(
            Rect::new([0.0, 0.0], [2.0, 2.0]),
            [2, 2],
            vec![1.0, 1.0, 1.0, 1.0],
        );
        let pdf = ObjectPdf::Histogram(h);
        let rq = Rect::new([0.0, 0.0], [1.0, 2.0]);
        assert!((appearance_reference(&pdf, &rq, 1e-9) - 0.5).abs() < 1e-12);
    }
}
