//! The fused Monte-Carlo refinement kernel.
//!
//! The Monte-Carlo estimator of Eq. 3 is the "expensive refinement" the
//! whole U-tree exists to avoid — and when it *does* run, it runs n₁
//! times per candidate. The scalar path ([`ObjectPdf::density`] inside
//! [`crate::MonteCarlo::estimate`]) re-enters the pdf enum `match`,
//! recomputes every normalisation constant (λ, `unit_ball_volume·r^D`,
//! `2σ²`, the histogram cell volume) and branches on every rejected ball
//! point, once per sample.
//!
//! This module takes all of that out of the sample loop:
//!
//! * [`PreparedPdf`] — a per-object *prepared evaluator*: the support's
//!   MBR and every normalisation constant, computed once per candidate;
//! * [`crate::MonteCarlo::estimate_with`] — one loop per pdf variant,
//!   chosen by a single `match`. Each sample is drawn, weighted, tested
//!   against `r_q` and reduced in one pass, in sample order, with no
//!   buffers between the steps. Ball supports (uniform and Con-Gau) draw
//!   their unit points a [`CHUNK`] at a time in branch-free *rejection
//!   rounds*: every attempt is written at slot `have` and `have` advances
//!   by `|u|² ≤ 1`, so the next attempt overwrites a rejected one;
//! * [`crate::MonteCarlo::decide_with`] — the same loop for a caller that
//!   needs only the *decision* `P ≥ p_q`: it stops at the first chunk
//!   boundary where a distribution-free confidence bound clears `p_q`, so
//!   `n1` is a cap on the samples drawn, not their number;
//! * [`RefineScratch`] — the count of samples drawn, for the caller's
//!   cost accounting.
//!
//! # Equivalence contract
//!
//! The kernel path is **byte-identical** to the scalar oracle under the
//! same seed, and leaves the RNG exactly where the oracle leaves it, by
//! construction:
//!
//! * every attempt draws its coordinates in [`crate::Region::sample_uniform`]'s
//!   order and with its expressions: `gen_range(-1.0..=1.0)` per ball
//!   dimension then `center + u·radius`, and per box dimension
//!   `gen_range(min..=max)`, or nothing when the dimension has no width;
//! * a rejection round that needs `n` points and holds `have` makes
//!   exactly `n − have` attempts, so the rounds end on the attempt the
//!   one-at-a-time loop ends on. A round may not overdraw: the surplus
//!   points are the ones the oracle would draw next, so carrying them
//!   into the next chunk keeps every estimate's bits, but the call then
//!   returns with the RNG ahead of the oracle's. Fig 7's error sweep and
//!   the ledger's kernel replay draw many estimates from one RNG, and
//!   every estimate after the first would move;
//! * every hoisted constant is the value of the *same expression* the
//!   scalar path evaluates per sample (hoisting a deterministic
//!   subexpression cannot change its bits), and the per-sample arithmetic
//!   keeps the scalar's operation order — e.g. the Con-Gau weight stays
//!   `((-d²/2σ²).exp() / norm) / λ`, never folded into a reciprocal
//!   multiply;
//! * squared distances accumulate in dimension order exactly like
//!   `Point::distance_sq`;
//! * the reduction `total += w; inside += select(hit, w, 0.0)` runs per
//!   sample in sample order. The selected-in branch adds exactly `w`, and
//!   the selected-out branch adds `+0.0` — an identity on the non-negative
//!   accumulator — so the sums carry the scalar loop's bits (a multiply by
//!   a mask would not: a degenerate zero-area support makes `w = ∞`);
//! * support checks are *recomputed* from the final coordinates (a
//!   rejection-sampled ball point can round outside `r²` after the
//!   `center + u·radius` scaling; the scalar density returns 0 there and
//!   so does the kernel).
//!
//! `tests/kernel_equivalence.rs` pins this contract across every pdf
//! variant, dimensionality and chunk-boundary sample count, and over
//! sequences of estimates and decisions that share one RNG.

use crate::histogram::HistogramPdf;
use crate::math::unit_ball_volume;
use crate::model::ObjectPdf;
use crate::MonteCarlo;
use rand::Rng;
use uncertain_geom::{Point, Rect};

/// Samples per chunk: the spacing of [`MonteCarlo::decide_with`]'s
/// stopping checks, and the length of a ball's stack buffer of unit
/// points (64 × 3 × f64 = 1.5 KB in 3-D, well inside L1).
pub const CHUNK: usize = 64;

/// The count of Monte-Carlo samples drawn through it: nothing for an
/// estimate that short-circuits, fewer than n₁ for a decision that stops
/// early. The kernel keeps no buffers, so this is all the state a
/// refinement pass carries; one per query context (or thread).
#[derive(Debug, Default)]
pub struct RefineScratch {
    samples: u64,
}

impl RefineScratch {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Monte-Carlo samples drawn through this scratch so far (callers
    /// take deltas per refinement pass).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// A per-object prepared evaluator: enum dispatch, support MBR and all
/// normalisation constants hoisted out of the sample loop.
///
/// Cheap to build (one λ / volume / area evaluation), borrowed from the
/// object's pdf for the duration of one candidate's refinement.
#[derive(Debug)]
pub struct PreparedPdf<'p, const D: usize> {
    mbr: Rect<D>,
    kind: PreparedKind<'p, D>,
}

#[derive(Debug)]
enum PreparedKind<'p, const D: usize> {
    UniformBall {
        center: Point<D>,
        radius: f64,
        r2: f64,
        w_in: f64,
    },
    UniformBox {
        rect: Rect<D>,
        w_in: f64,
    },
    ConGauBall {
        center: Point<D>,
        radius: f64,
        r2: f64,
        two_s2: f64,
        norm: f64,
        lambda: f64,
    },
    Histogram {
        h: &'p HistogramPdf<D>,
        widths: [f64; D],
        cell_vol: f64,
    },
}

impl<'p, const D: usize> PreparedPdf<'p, D> {
    /// Prepares `pdf` for the fused sample loop. Every constant below is
    /// the value of the exact expression the scalar [`ObjectPdf::density`]
    /// evaluates per sample.
    pub fn new(pdf: &'p ObjectPdf<D>) -> Self {
        let kind = match pdf {
            &ObjectPdf::UniformBall { center, radius } => PreparedKind::UniformBall {
                center,
                radius,
                r2: radius * radius,
                w_in: 1.0 / (unit_ball_volume(D) * radius.powi(D as i32)),
            },
            ObjectPdf::UniformBox { rect } => PreparedKind::UniformBox {
                rect: *rect,
                w_in: 1.0 / rect.area(),
            },
            &ObjectPdf::ConGauBall {
                center,
                radius,
                sigma,
            } => PreparedKind::ConGauBall {
                center,
                radius,
                r2: radius * radius,
                two_s2: 2.0 * sigma * sigma,
                norm: (sigma * (2.0 * std::f64::consts::PI).sqrt()).powi(D as i32),
                lambda: pdf.lambda(),
            },
            ObjectPdf::Histogram(h) => {
                let mut widths = [0.0; D];
                let mut cell_vol = 1.0;
                for (i, w) in widths.iter_mut().enumerate() {
                    *w = h.rect().extent(i) / h.bins()[i] as f64;
                    cell_vol *= *w;
                }
                PreparedKind::Histogram {
                    h,
                    widths,
                    cell_vol,
                }
            }
        };
        let mbr = pdf.mbr();
        Self { mbr, kind }
    }

    /// MBR of the support (for the estimator's short-circuits).
    pub fn mbr(&self) -> &Rect<D> {
        &self.mbr
    }

    /// The largest weight the sample loop can produce: what scales a
    /// sample's contribution into `[0, 1]` for the stopping rule of
    /// [`MonteCarlo::decide_with`]. Infinite for a zero-area box.
    fn w_max(&self) -> f64 {
        match &self.kind {
            PreparedKind::UniformBall { w_in, .. } | PreparedKind::UniformBox { w_in, .. } => *w_in,
            // The density at the centre, in the sample loop's operation
            // order, so no sample's weight can round above it.
            PreparedKind::ConGauBall { norm, lambda, .. } => (1.0 / norm) / lambda,
            PreparedKind::Histogram { h, cell_vol, .. } => {
                h.mass().iter().copied().fold(0.0, f64::max) / cell_vol
            }
        }
    }
}

/// Fills `unit` with points uniform in the unit ball by rejection from
/// `[-1, 1]^D`, with no branch on an attempt's outcome and exactly the
/// RNG draws of `unit.len()` [`crate::Region::sample_uniform`] calls.
#[inline(always)]
fn unit_ball_rounds<R: Rng + ?Sized, const D: usize>(rng: &mut R, unit: &mut [[f64; D]]) {
    let n = unit.len();
    let mut have = 0;
    while have < n {
        // A round of `n − have` attempts accepts at most that many, so
        // none is drawn past the n-th acceptance.
        let attempts = n - have;
        for _ in 0..attempts {
            let mut norm_sq = 0.0;
            for c in unit[have].iter_mut() {
                let x: f64 = rng.gen_range(-1.0..=1.0);
                *c = x;
                norm_sq += x * x;
            }
            have += usize::from(norm_sq <= 1.0);
        }
    }
}

/// `center + u·radius` and its squared distance to `center`, accumulated
/// in dimension order like `Point::distance_sq`.
#[inline(always)]
fn ball_point<const D: usize>(center: &Point<D>, radius: f64, u: &[f64; D]) -> ([f64; D], f64) {
    let mut x = [0.0; D];
    let mut d2 = 0.0;
    for d in 0..D {
        x[d] = center.coords[d] + u[d] * radius;
        let diff = center.coords[d] - x[d];
        d2 += diff * diff;
    }
    (x, d2)
}

/// A point uniform in `rect`; a dimension of zero width draws nothing.
#[inline(always)]
fn box_point<R: Rng + ?Sized, const D: usize>(rng: &mut R, rect: &Rect<D>) -> [f64; D] {
    let mut x = [0.0; D];
    for (d, c) in x.iter_mut().enumerate() {
        *c = if rect.min[d] == rect.max[d] {
            rect.min[d]
        } else {
            rng.gen_range(rect.min[d]..=rect.max[d])
        };
    }
    x
}

/// Adds one sample of weight `w` at `x` to `[total, inside]`. The hit is
/// applied as a select, not a multiply: a degenerate support (zero-area
/// box) makes `w` infinite, and `inf * 0.0` would inject NaN where the
/// scalar path simply skips the add.
#[inline(always)]
fn reduce<const D: usize>(sums: &mut [f64; 2], w: f64, rq: &Rect<D>, x: &[f64; D]) {
    let mut hit = true;
    for (d, &xd) in x.iter().enumerate() {
        hit &= (xd >= rq.min[d]) & (xd <= rq.max[d]);
    }
    sums[0] += w;
    sums[1] += if hit { w } else { 0.0 };
}

/// Probability that one [`MonteCarlo::decide_with`] call stops early on
/// the wrong side of `p_q`.
const DELTA: f64 = 1e-9;

/// `KL(Bernoulli(x) ‖ Bernoulli(p))` for `x ∈ [0, 1]`, `p ∈ (0, 1)`.
fn kl_bernoulli(x: f64, p: f64) -> f64 {
    let term = |a: f64, b: f64| if a > 0.0 { a * (a / b).ln() } else { 0.0 };
    term(x, p) + term(1.0 - x, 1.0 - p)
}

impl MonteCarlo {
    /// The kernel form of [`MonteCarlo::estimate`]: byte-identical
    /// probabilities under the same seed, with the same RNG draws, from
    /// one fused per-variant loop with all per-variant constants hoisted
    /// into `prepared`.
    ///
    /// The sample counter in `scratch` is charged with `n1` unless a
    /// short-circuit answers without sampling.
    pub fn estimate_with<const D: usize, R: Rng + ?Sized>(
        &self,
        prepared: &PreparedPdf<'_, D>,
        rq: &Rect<D>,
        rng: &mut R,
        scratch: &mut RefineScratch,
    ) -> f64 {
        self.sample_until(prepared, rq, rng, scratch, |_, _, _| false)
            .0
    }

    /// Decides `P ≥ p_q` with at most `n1` samples: returns the estimate
    /// the decision rests on and the number of samples behind it. The
    /// estimate is bit-for-bit what [`MonteCarlo::estimate_with`] returns
    /// for that many samples under the same seed.
    ///
    /// With `w` the largest density of the pdf, each sample's
    /// `p_q + w_i·(1[in r_q] − p_q)/w` lies in `[0, 1]` and has
    /// expectation `≥ p_q` exactly when `P ≥ p_q`. After every chunk but
    /// the last, sampling stops if the mean `X̄` of those `m` values has
    /// `m·KL(X̄ ‖ p_q) > ln(2·⌈n1/CHUNK⌉/δ)`: by the Chernoff–Hoeffding
    /// bound and a union bound over the checks, the estimate then lies on
    /// the wrong side of `p_q` with probability at most δ = 10⁻⁹ whatever
    /// the pdf. A call that draws all `n1` samples is a plain estimate,
    /// with standard error at most `√(0.25/n1)`.
    ///
    /// Never stops early when `p_q` is 0 or 1 (nothing to separate the
    /// estimate from), when `n1` is a single chunk, or when the pdf has no
    /// finite maximum (a zero-area box).
    pub fn decide_with<const D: usize, R: Rng + ?Sized>(
        &self,
        prepared: &PreparedPdf<'_, D>,
        rq: &Rect<D>,
        p_q: f64,
        rng: &mut R,
        scratch: &mut RefineScratch,
    ) -> (f64, usize) {
        // Asked only where a stop is possible: a histogram's is a scan.
        let may_stop = self.n1 > CHUNK && p_q > 0.0 && p_q < 1.0;
        let w_max = if may_stop {
            prepared.w_max()
        } else {
            f64::INFINITY
        };
        let sequential = w_max > 0.0 && w_max.is_finite();
        let bar = (2.0 * self.n1.div_ceil(CHUNK) as f64 / DELTA).ln();
        self.sample_until(prepared, rq, rng, scratch, |m, inside, total| {
            if !sequential {
                return false;
            }
            let m = m as f64;
            // Clamped: the sums carry rounding error the bound does not.
            let mean = (p_q + (inside - p_q * total) / (m * w_max)).clamp(0.0, 1.0);
            m * kl_bernoulli(mean, p_q) > bar
        })
    }

    /// The one sample loop: `(inside / total, samples drawn)` once `n1`
    /// samples are in or `stop(drawn, inside, total)` says so at a chunk
    /// boundary before that. One `match` picks the variant's loop; each
    /// draws, weighs, tests and reduces a sample before the next.
    fn sample_until<const D: usize, R: Rng + ?Sized>(
        &self,
        prepared: &PreparedPdf<'_, D>,
        rq: &Rect<D>,
        rng: &mut R,
        scratch: &mut RefineScratch,
        stop: impl FnMut(usize, f64, f64) -> bool,
    ) -> (f64, usize) {
        let mbr = prepared.mbr();
        if !mbr.intersects(rq) {
            return (0.0, 0);
        }
        if rq.contains_rect(mbr) {
            return (1.0, 0);
        }
        let mut unit = [[0.0; D]; CHUNK];
        let ([total, inside], drawn) = match prepared.kind {
            PreparedKind::UniformBall {
                ref center,
                radius,
                r2,
                w_in,
            } => self.chunks(stop, |n, sums| {
                unit_ball_rounds(rng, &mut unit[..n]);
                for u in &unit[..n] {
                    let (x, d2) = ball_point(center, radius, u);
                    reduce(sums, if d2 <= r2 { w_in } else { 0.0 }, rq, &x);
                }
            }),
            PreparedKind::ConGauBall {
                ref center,
                radius,
                r2,
                two_s2,
                norm,
                lambda,
            } => self.chunks(stop, |n, sums| {
                unit_ball_rounds(rng, &mut unit[..n]);
                for u in &unit[..n] {
                    let (x, d2) = ball_point(center, radius, u);
                    // Same operation order as the scalar density — the two
                    // divisions stay divisions.
                    let w = if d2 > r2 {
                        0.0
                    } else {
                        ((-d2 / two_s2).exp() / norm) / lambda
                    };
                    reduce(sums, w, rq, &x);
                }
            }),
            PreparedKind::UniformBox { ref rect, w_in } => self.chunks(stop, |n, sums| {
                for _ in 0..n {
                    let x = box_point(rng, rect);
                    let hit = rect.contains_point(&Point::new(x));
                    reduce(sums, if hit { w_in } else { 0.0 }, rq, &x);
                }
            }),
            PreparedKind::Histogram {
                h,
                ref widths,
                cell_vol,
            } => self.chunks(stop, |n, sums| {
                let (rect, bins, mass) = (h.rect(), h.bins(), h.mass());
                for _ in 0..n {
                    let x = box_point(rng, rect);
                    let w = if rect.contains_point(&Point::new(x)) {
                        let mut flat = 0usize;
                        for d in 0..D {
                            // The right boundary joins the last cell.
                            let k = ((x[d] - rect.min[d]) / widths[d]) as usize;
                            flat = flat * bins[d] + k.min(bins[d] - 1);
                        }
                        mass[flat] / cell_vol
                    } else {
                        0.0
                    };
                    reduce(sums, w, rq, &x);
                }
            }),
        };
        scratch.samples += drawn as u64;
        let p = if total == 0.0 { 0.0 } else { inside / total };
        (p, drawn)
    }

    /// Hands `chunk` runs of at most [`CHUNK`] samples to draw and reduce
    /// into `[total, inside]`, until `n1` are in or `stop(drawn, inside,
    /// total)` says so between two runs.
    #[inline(always)]
    fn chunks(
        &self,
        mut stop: impl FnMut(usize, f64, f64) -> bool,
        mut chunk: impl FnMut(usize, &mut [f64; 2]),
    ) -> ([f64; 2], usize) {
        let mut sums = [0.0; 2];
        let mut drawn = 0;
        while drawn < self.n1 {
            let n = (self.n1 - drawn).min(CHUNK);
            chunk(n, &mut sums);
            drawn += n;
            if drawn < self.n1 && stop(drawn, sums[1], sums[0]) {
                break;
            }
        }
        (sums, drawn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn kernel_matches_scalar_on_a_disk() {
        let pdf: ObjectPdf<2> = ObjectPdf::UniformBall {
            center: Point::new([10.0, 20.0]),
            radius: 5.0,
        };
        let rq = Rect::new([8.0, 17.0], [12.5, 21.0]);
        let mc = MonteCarlo::new(10_000);
        let scalar = mc.estimate(&pdf, &rq, &mut SmallRng::seed_from_u64(9));
        let prepared = PreparedPdf::new(&pdf);
        let mut scratch = RefineScratch::new();
        let kernel = mc.estimate_with(
            &prepared,
            &rq,
            &mut SmallRng::seed_from_u64(9),
            &mut scratch,
        );
        assert_eq!(scalar.to_bits(), kernel.to_bits());
        assert_eq!(scratch.samples(), 10_000);
    }

    #[test]
    fn short_circuits_charge_no_samples() {
        let pdf: ObjectPdf<2> = ObjectPdf::UniformBall {
            center: Point::new([0.0, 0.0]),
            radius: 1.0,
        };
        let prepared = PreparedPdf::new(&pdf);
        let mut scratch = RefineScratch::new();
        let mc = MonteCarlo::new(100);
        let mut rng = SmallRng::seed_from_u64(1);
        // One sampled estimate first, so the delta below starts above zero.
        let partial = Rect::new([0.0, 0.0], [2.0, 2.0]);
        mc.estimate_with(&prepared, &partial, &mut rng, &mut scratch);
        let before = scratch.samples();
        assert_eq!(before, 100);
        let disjoint = Rect::new([5.0, 5.0], [6.0, 6.0]);
        assert_eq!(
            mc.estimate_with(&prepared, &disjoint, &mut rng, &mut scratch),
            0.0
        );
        let containing = Rect::new([-2.0, -2.0], [2.0, 2.0]);
        assert_eq!(
            mc.estimate_with(&prepared, &containing, &mut rng, &mut scratch),
            1.0
        );
        assert_eq!(
            scratch.samples() - before,
            0,
            "short-circuits must not sample"
        );
    }
}
