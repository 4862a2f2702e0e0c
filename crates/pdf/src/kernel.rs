//! Chunked, auto-vectorizable refinement kernels.
//!
//! The Monte-Carlo estimator of Eq. 3 is the "expensive refinement" the
//! whole U-tree exists to avoid — and when it *does* run, it runs n₁
//! times per candidate. The scalar path ([`ObjectPdf::density`] inside
//! [`crate::MonteCarlo::estimate`]) re-enters the pdf enum `match` and
//! recomputes every normalisation constant (λ, `unit_ball_volume·r^D`,
//! `2σ²`, the histogram cell volume) on every one of those samples.
//!
//! This module hoists all of that out of the sample loop:
//!
//! * [`PreparedPdf`] — a per-object *prepared evaluator*: one enum
//!   dispatch, the support [`Region`], and every normalisation constant,
//!   computed once per candidate;
//! * [`RefineScratch`] — reusable structure-of-arrays buffers (dim-major
//!   coordinates, weights, containment masks) sized to [`CHUNK`] samples;
//!   after warm-up a refinement pass allocates nothing;
//! * [`crate::MonteCarlo::estimate_with`] — the chunked driver: samples
//!   are generated in **exactly the scalar order** (same RNG consumption),
//!   then density and query-rect containment are evaluated over whole
//!   chunks in plain loops the compiler can vectorize, with branch-free
//!   mask accumulation;
//! * [`crate::MonteCarlo::decide_with`] — the same loop for a caller that
//!   needs only the *decision* `P ≥ p_q`: it stops at the first chunk
//!   boundary where a distribution-free confidence bound clears `p_q`, so
//!   `n1` is a cap on the samples drawn, not their number.
//!
//! # Equivalence contract
//!
//! The kernel path is **byte-identical** to the scalar oracle under the
//! same seed, by construction:
//!
//! * sampling delegates to the same [`Region::sample_uniform`] per point,
//!   so the RNG stream is consumed identically;
//! * every hoisted constant is the value of the *same expression* the
//!   scalar path evaluates per sample (hoisting a deterministic
//!   subexpression cannot change its bits), and the per-sample arithmetic
//!   keeps the scalar's operation order — e.g. the Con-Gau weight stays
//!   `((-d²/2σ²).exp() / norm) / λ`, never folded into a reciprocal
//!   multiply;
//! * squared distances accumulate in dimension order exactly like
//!   `Point::distance_sq`;
//! * the reduction `total += w; inside += select(mask, w, 0.0)` runs per
//!   sample in sample order. The selected-in branch adds exactly `w`, and
//!   the selected-out branch adds `+0.0` — an identity on the non-negative
//!   accumulator — so the sums carry the scalar loop's bits (a multiply by
//!   the mask would not: a degenerate zero-area support makes `w = ∞`);
//! * support checks are *recomputed* from the final coordinates (a
//!   rejection-sampled ball point can round outside `r²` after the
//!   `center + u·radius` scaling; the scalar density returns 0 there and
//!   so does the kernel).
//!
//! `tests/kernel_equivalence.rs` pins this contract across every pdf
//! variant, dimensionality and chunk-boundary sample count.

use crate::histogram::HistogramPdf;
use crate::math::unit_ball_volume;
use crate::model::ObjectPdf;
use crate::region::Region;
use crate::MonteCarlo;
use rand::Rng;
use uncertain_geom::{Point, Rect};

/// Samples evaluated per chunk. 64 × f64 = one 512-byte row per buffer —
/// deep enough to amortise the loop overhead, small enough that all four
/// SoA rows of a 3-D evaluation sit in L1.
pub const CHUNK: usize = 64;

/// Reusable structure-of-arrays scratch for the chunked estimator.
///
/// One instance per query context (or per thread) is the intended
/// pattern: buffers grow to the largest dimensionality seen and are
/// reused for every subsequent candidate — a refinement pass performs no
/// allocation after warm-up.
///
/// The struct also carries the running count of Monte-Carlo samples
/// actually drawn through it ([`RefineScratch::samples`]): nothing for an
/// estimate that short-circuits, fewer than n₁ for a decision that stops
/// early.
#[derive(Debug, Default)]
pub struct RefineScratch {
    /// Dim-major sample coordinates: `coords[d * CHUNK + i]` is
    /// dimension `d` of sample `i`.
    coords: Vec<f64>,
    /// Per-sample pdf weight.
    weights: Vec<f64>,
    /// Per-sample query-rect containment mask (1.0 inside, 0.0 outside).
    masks: Vec<f64>,
    /// Per-sample squared distance to the ball center (ball pdfs only).
    dist2: Vec<f64>,
    /// Monte-Carlo samples drawn through this scratch.
    samples: u64,
}

impl RefineScratch {
    /// Fresh scratch with empty buffers (they size themselves on first
    /// use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the buffers for `dims`-dimensional evaluation (no-op once
    /// warm).
    fn ensure(&mut self, dims: usize) {
        let need = dims * CHUNK;
        if self.coords.len() < need {
            self.coords.resize(need, 0.0);
        }
        if self.weights.len() < CHUNK {
            self.weights.resize(CHUNK, 0.0);
            self.masks.resize(CHUNK, 0.0);
            self.dist2.resize(CHUNK, 0.0);
        }
    }

    /// Monte-Carlo samples drawn through this scratch so far (callers
    /// take deltas per refinement pass).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// A per-object prepared evaluator: enum dispatch, support region and all
/// normalisation constants hoisted out of the sample loop.
///
/// Cheap to build (one λ / volume / area evaluation), borrowed from the
/// object's pdf for the duration of one candidate's refinement.
#[derive(Debug)]
pub struct PreparedPdf<'p, const D: usize> {
    mbr: Rect<D>,
    region: Region<D>,
    kind: PreparedKind<'p, D>,
}

#[derive(Debug)]
enum PreparedKind<'p, const D: usize> {
    UniformBall {
        center: Point<D>,
        r2: f64,
        w_in: f64,
    },
    UniformBox {
        rect: Rect<D>,
        w_in: f64,
    },
    ConGauBall {
        center: Point<D>,
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
    /// Prepares `pdf` for chunked evaluation. Every constant below is the
    /// value of the exact expression the scalar [`ObjectPdf::density`]
    /// evaluates per sample.
    pub fn new(pdf: &'p ObjectPdf<D>) -> Self {
        let region = pdf.region();
        let mbr = region.mbr();
        let kind = match pdf {
            ObjectPdf::UniformBall { center, radius } => PreparedKind::UniformBall {
                center: *center,
                r2: radius * radius,
                w_in: 1.0 / (unit_ball_volume(D) * radius.powi(D as i32)),
            },
            ObjectPdf::UniformBox { rect } => PreparedKind::UniformBox {
                rect: *rect,
                w_in: 1.0 / rect.area(),
            },
            ObjectPdf::ConGauBall {
                center,
                radius,
                sigma,
            } => PreparedKind::ConGauBall {
                center: *center,
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
        Self { mbr, region, kind }
    }

    /// MBR of the support (for the estimator's short-circuits).
    pub fn mbr(&self) -> &Rect<D> {
        &self.mbr
    }

    /// The largest weight [`Self::density_chunk`] can produce: what scales
    /// a sample's contribution into `[0, 1]` for the stopping rule of
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

    /// Draws `n` support-uniform samples into the dim-major `coords`
    /// buffer, consuming the RNG exactly like `n` scalar
    /// [`ObjectPdf::sample_support_uniform`] calls.
    fn sample_chunk<R: Rng + ?Sized>(&self, rng: &mut R, n: usize, coords: &mut [f64]) {
        for i in 0..n {
            let p = self.region.sample_uniform(rng);
            for (d, &c) in p.coords.iter().enumerate() {
                coords[d * CHUNK + i] = c;
            }
        }
    }

    /// Evaluates the pdf density of `n` samples into `weights`.
    fn density_chunk(&self, n: usize, coords: &[f64], dist2: &mut [f64], weights: &mut [f64]) {
        match &self.kind {
            PreparedKind::UniformBall { center, r2, w_in } => {
                dist2_chunk(center, n, coords, dist2);
                let (r2, w_in) = (*r2, *w_in);
                for i in 0..n {
                    weights[i] = if dist2[i] <= r2 { w_in } else { 0.0 };
                }
            }
            PreparedKind::UniformBox { rect, w_in } => {
                weights[..n].fill(*w_in);
                for d in 0..D {
                    let (lo, hi) = (rect.min[d], rect.max[d]);
                    let row = &coords[d * CHUNK..d * CHUNK + n];
                    for i in 0..n {
                        let x = row[i];
                        if x < lo || x > hi {
                            weights[i] = 0.0;
                        }
                    }
                }
            }
            PreparedKind::ConGauBall {
                center,
                r2,
                two_s2,
                norm,
                lambda,
            } => {
                dist2_chunk(center, n, coords, dist2);
                let (r2, two_s2, norm, lambda) = (*r2, *two_s2, *norm, *lambda);
                for i in 0..n {
                    let d2 = dist2[i];
                    // Same operation order as the scalar density — the two
                    // divisions stay divisions.
                    weights[i] = if d2 > r2 {
                        0.0
                    } else {
                        ((-d2 / two_s2).exp() / norm) / lambda
                    };
                }
            }
            PreparedKind::Histogram {
                h,
                widths,
                cell_vol,
            } => {
                let rect = h.rect();
                let bins = h.bins();
                let mass = h.mass();
                for i in 0..n {
                    let mut flat = 0usize;
                    let mut inside = true;
                    for d in 0..D {
                        let x = coords[d * CHUNK + i];
                        if x < rect.min[d] || x > rect.max[d] {
                            inside = false;
                            break;
                        }
                        let mut k = ((x - rect.min[d]) / widths[d]) as usize;
                        if k >= bins[d] {
                            k = bins[d] - 1; // right boundary joins the last cell
                        }
                        flat = flat * bins[d] + k;
                    }
                    weights[i] = if inside { mass[flat] / cell_vol } else { 0.0 };
                }
            }
        }
    }
}

/// Squared distances of `n` dim-major samples to `center`, accumulated in
/// dimension order exactly like `Point::distance_sq`.
fn dist2_chunk<const D: usize>(center: &Point<D>, n: usize, coords: &[f64], dist2: &mut [f64]) {
    dist2[..n].fill(0.0);
    for (d, &c) in center.coords.iter().enumerate() {
        let row = &coords[d * CHUNK..d * CHUNK + n];
        for i in 0..n {
            let diff = c - row[i];
            dist2[i] += diff * diff;
        }
    }
}

/// Query-rect containment masks (1.0 inside, boundary included) for `n`
/// dim-major samples — the branch-free form of `Rect::contains_point`.
fn contains_chunk<const D: usize>(rq: &Rect<D>, n: usize, coords: &[f64], masks: &mut [f64]) {
    masks[..n].fill(1.0);
    for d in 0..D {
        let (lo, hi) = (rq.min[d], rq.max[d]);
        let row = &coords[d * CHUNK..d * CHUNK + n];
        for i in 0..n {
            let x = row[i];
            masks[i] *= u8::from(x >= lo && x <= hi) as f64;
        }
    }
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
    /// The chunked-kernel form of [`MonteCarlo::estimate`]: byte-identical
    /// probabilities under the same seed, evaluated over [`CHUNK`]-sample
    /// SoA rows with all per-variant constants hoisted into `prepared`.
    ///
    /// `scratch` is reused across candidates and queries; see
    /// [`RefineScratch`]. The sample counter in `scratch` is charged with
    /// `n1` unless a short-circuit answers without sampling.
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
    /// boundary before that.
    fn sample_until<const D: usize, R: Rng + ?Sized>(
        &self,
        prepared: &PreparedPdf<'_, D>,
        rq: &Rect<D>,
        rng: &mut R,
        scratch: &mut RefineScratch,
        mut stop: impl FnMut(usize, f64, f64) -> bool,
    ) -> (f64, usize) {
        let mbr = prepared.mbr();
        if !mbr.intersects(rq) {
            return (0.0, 0);
        }
        if rq.contains_rect(mbr) {
            return (1.0, 0);
        }
        scratch.ensure(D);
        let RefineScratch {
            coords,
            weights,
            masks,
            dist2,
            samples,
        } = scratch;
        let mut total = 0.0;
        let mut inside = 0.0;
        let mut remaining = self.n1;
        while remaining > 0 {
            let n = remaining.min(CHUNK);
            prepared.sample_chunk(rng, n, coords);
            prepared.density_chunk(n, coords, dist2, weights);
            contains_chunk(rq, n, coords, masks);
            // Sequential per-sample reduction: same accumulation order as
            // the scalar loop, hence the same bits. The mask is applied as
            // a select, not a multiply — a degenerate support (zero-area
            // box) makes `w` infinite, and `inf * 0.0` would inject NaN
            // where the scalar path simply skips the add.
            for i in 0..n {
                let w = weights[i];
                total += w;
                inside += if masks[i] != 0.0 { w } else { 0.0 };
            }
            remaining -= n;
            if remaining > 0 && stop(self.n1 - remaining, inside, total) {
                break;
            }
        }
        let drawn = self.n1 - remaining;
        *samples += drawn as u64;
        let p = if total == 0.0 { 0.0 } else { inside / total };
        (p, drawn)
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
