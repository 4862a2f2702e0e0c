//! Conservative functional boxes (paper Sec 4.3–4.4).
//!
//! A CFB captures all m PCRs of an object with a *linear function of p*:
//! `cfb(p) = α − β·p` (Eqs. 4–5), so an entry stores 8d floats instead of
//! 2d·m. `cfb_out(p_j)` must contain `pcr(p_j)` and `cfb_in(p_j)` must be
//! contained in it, for every catalog value — the conservativeness that
//! keeps Observation 3 sound.
//!
//! Fitting minimises (maximises, for the inner box) the summed margin
//! `Σ_j MARGIN(cfb(p_j))` (Formula 7), which decomposes per dimension into
//! the tiny linear programs of Sec 4.4. The paper solves them with the
//! Simplex method; here each has a closed-form optimum — a supporting line
//! of the convex hull of the PCR faces at the catalog mean — and the
//! Simplex method only runs for an inner box whose two faces Eq. 14 ties
//! together in a way the closed form does not cover ([`fit_cfb_pair`]).

use crate::catalog::UCatalog;
use crate::filter::PcrAccess;
use crate::pcr::PcrSet;
use page_store::{f32_round_down, f32_round_up};
use simplex_lp::LinearProgram;
use uncertain_geom::Rect;

/// A linear box function `cfb(p) = α − β·p`.
///
/// `alpha` is the rectangle at `p = 0`; `beta_lo[i]`/`beta_hi[i]` are the
/// per-face shrink rates (the paper's `β^{i−}`/`β^{i+}`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cfb<const D: usize> {
    /// Box at `p = 0` (the `α` vector of Eq. 4).
    pub alpha: Rect<D>,
    /// Lower-face slopes `β^{i−}`.
    pub beta_lo: [f64; D],
    /// Upper-face slopes `β^{i+}`.
    pub beta_hi: [f64; D],
}

impl<const D: usize> Cfb<D> {
    /// Lower face on dimension `i` at probability `p`.
    #[inline]
    pub fn face_lo(&self, i: usize, p: f64) -> f64 {
        self.alpha.min[i] - self.beta_lo[i] * p
    }

    /// Upper face on dimension `i` at probability `p`.
    #[inline]
    pub fn face_hi(&self, i: usize, p: f64) -> f64 {
        self.alpha.max[i] - self.beta_hi[i] * p
    }

    /// The box at probability `p`, face by face. Each face of an inner box
    /// is conservative on its own, and at `p = 0.5` (where the PCR is a
    /// point) inward rounding may leave the box empty with crossed faces;
    /// the filter rules compare one face at a time, so they stay sound.
    pub fn eval(&self, p: f64) -> Rect<D> {
        Rect {
            min: std::array::from_fn(|i| self.face_lo(i, p)),
            max: std::array::from_fn(|i| self.face_hi(i, p)),
        }
    }

    /// Rounds every parameter so the evaluated box can only *grow* under
    /// the on-page f32 narrowing (for outer boxes: lower faces down, upper
    /// faces up — note `face = α − β·p` with `p >= 0`, so a lower face
    /// moves down when `α⁻` shrinks or `β⁻` grows).
    pub fn round_outward(&self) -> Self {
        let mut out = *self;
        for i in 0..D {
            out.alpha.min[i] = f32_round_down(self.alpha.min[i]);
            out.alpha.max[i] = f32_round_up(self.alpha.max[i]);
            out.beta_lo[i] = f32_round_up(self.beta_lo[i]);
            out.beta_hi[i] = f32_round_down(self.beta_hi[i]);
        }
        out
    }

    /// Rounds so the evaluated box can only *shrink* (for inner boxes).
    pub fn round_inward(&self) -> Self {
        let mut out = *self;
        for i in 0..D {
            out.alpha.min[i] = f32_round_up(self.alpha.min[i]);
            out.alpha.max[i] = f32_round_down(self.alpha.max[i]);
            out.beta_lo[i] = f32_round_down(self.beta_lo[i]);
            out.beta_hi[i] = f32_round_up(self.beta_hi[i]);
        }
        out
    }
}

/// The (outer, inner) CFB pair of one object — what a U-tree leaf entry
/// stores, and the Observation-3 view of the object's PCRs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfbPair<const D: usize> {
    /// `cfb_out(p_j) ⊇ pcr(p_j)`.
    pub outer: Cfb<D>,
    /// `cfb_in(p_j) ⊆ pcr(p_j)`.
    pub inner: Cfb<D>,
}

/// Evaluating at catalog values yields the Observation-3 approximations.
pub struct CfbView<'a, const D: usize> {
    /// The pair under evaluation.
    pub pair: &'a CfbPair<D>,
    /// The catalog supplying `p_j`.
    pub catalog: &'a UCatalog,
}

impl<const D: usize> PcrAccess<D> for CfbView<'_, D> {
    fn outer(&self, j: usize) -> Rect<D> {
        self.pair.outer.eval(self.catalog.value(j))
    }

    fn inner(&self, j: usize) -> Rect<D> {
        self.pair.inner.eval(self.catalog.value(j))
    }
}

impl<const D: usize> CfbPair<D> {
    /// The on-page pair: outer box rounded outward, inner box inward.
    fn rounded(&self) -> Self {
        CfbPair {
            outer: self.outer.round_outward(),
            inner: self.inner.round_inward(),
        }
    }
}

/// Fits the optimal (summed-margin) outer and inner CFBs to an object's
/// PCRs (paper Sec 4.4), then nudges the results to be exactly feasible
/// under floating point and conservatively f32-rounded for on-page
/// storage.
///
/// Each face's LP has a closed-form optimum. The Simplex method only runs
/// for an inner box whose faces Eq. 14 couples while the top PCR is a box
/// rather than a point in that dimension — never for a catalog ending at
/// 0.5, where `pcr(0.5)` is a point.
pub fn fit_cfb_pair<const D: usize>(pcrs: &PcrSet<D>, catalog: &UCatalog) -> CfbPair<D> {
    fit_repaired(pcrs, catalog).0.rounded()
}

/// The optimal CFB pair before f32 rounding, already repaired to exact
/// feasibility, and the number of dimensions whose inner box needed the
/// Sec 4.4 LP.
///
/// Every objective `Σ_j face(p_j)` equals `m · face(p̄)` at the catalog
/// mean `p̄ = P/m`, so:
/// * an outer face is the supporting line at `p̄` of the lower (upper)
///   convex hull of its PCR faces `(p_j, c_j)`;
/// * the inner faces, ignoring Eq. 14, are the mirrored supporting lines.
///   Eq. 14 (`lo ≤ hi`) is linear in `p`, so checking it at `p₁` and `p_m`
///   checks it everywhere. When it fails and the top PCR is a point in
///   this dimension (always, for a catalog ending at 0.5), Eq. 14 at `p_m`
///   pins both faces to that point and each slope is a min/max over the
///   other catalog values. Nested PCRs make the lower slope `≥ 0 ≥` the
///   upper one, so Eq. 14 then holds; the LP runs only when the top PCR is
///   not a point (or a NaN face defeats every comparison).
pub(crate) fn fit_repaired<const D: usize>(
    pcrs: &PcrSet<D>,
    catalog: &UCatalog,
) -> (CfbPair<D>, usize) {
    let ps = catalog.values();
    let p_bar = catalog.sum() / catalog.len() as f64;
    let last = ps.len() - 1;
    let zero = Cfb {
        alpha: Rect::new([0.0; D], [0.0; D]),
        beta_lo: [0.0; D],
        beta_hi: [0.0; D],
    };
    let mut pair = CfbPair {
        outer: zero,
        inner: zero,
    };
    let mut lp_dims = 0;
    for i in 0..D {
        let lo = |j: usize| pcrs.rect(j).min[i];
        let hi = |j: usize| pcrs.rect(j).max[i];
        let (outer, inner) = (&mut pair.outer, &mut pair.inner);
        (outer.alpha.min[i], outer.beta_lo[i]) = support_below(ps, lo, p_bar);
        (outer.alpha.max[i], outer.beta_hi[i]) = support_above(ps, hi, p_bar);
        (inner.alpha.min[i], inner.beta_lo[i]) = support_above(ps, lo, p_bar);
        (inner.alpha.max[i], inner.beta_hi[i]) = support_below(ps, hi, p_bar);
        let eq14 = |c: &Cfb<D>, j: usize| c.face_lo(i, ps[j]) <= c.face_hi(i, ps[j]);
        if eq14(inner, 0) && eq14(inner, last) {
            continue;
        }
        if lo(last) == hi(last) {
            let (p_m, c_m) = (ps[last], lo(last));
            let slope = |c: f64, p: f64| (c_m - c) / (p_m - p);
            let s_lo = (0..last)
                .map(|j| slope(lo(j), ps[j]))
                .fold(f64::INFINITY, f64::min);
            let s_hi = (0..last)
                .map(|j| slope(hi(j), ps[j]))
                .fold(f64::NEG_INFINITY, f64::max);
            inner.alpha.min[i] = c_m - s_lo * p_m;
            inner.beta_lo[i] = -s_lo;
            inner.alpha.max[i] = c_m - s_hi * p_m;
            inner.beta_hi[i] = -s_hi;
            // Both faces meet at `p_m` by construction (up to rounding).
            if eq14(inner, 0) {
                continue;
            }
        }
        lp_dims += 1;
        lp_inner(pcrs, catalog, i, inner);
    }
    repair(&mut pair, pcrs, ps);
    (pair, lp_dims)
}

/// The line `α − β·p` below every point `(p_j, c(j))` that is highest at
/// `p_bar`: the edge of the lower convex hull spanning `p_bar`, found by
/// gift-wrapping the hull from `p₁` (no allocation, O(m) per hull vertex
/// walked). At a hull vertex exactly on `p_bar` every slope between its
/// two edges is optimal; the walk stops on one of its two edges.
fn support_below(ps: &[f64], c: impl Fn(usize) -> f64, p_bar: f64) -> (f64, f64) {
    let mut a = 0;
    loop {
        // Next hull vertex: the smallest slope from `a`, farthest on ties.
        let slope = |k: usize| (c(k) - c(a)) / (ps[k] - ps[a]);
        let mut b = a + 1;
        let mut s = slope(b);
        for k in a + 2..ps.len() {
            let sk = slope(k);
            if sk <= s {
                (b, s) = (k, sk);
            }
        }
        if ps[b] >= p_bar || b + 1 == ps.len() {
            return (c(a) - s * ps[a], -s);
        }
        a = b;
    }
}

/// [`support_below`] mirrored: the line above every point that is lowest
/// at `p_bar` (the upper hull's edge spanning it).
fn support_above(ps: &[f64], c: impl Fn(usize) -> f64, p_bar: f64) -> (f64, f64) {
    let (alpha, beta) = support_below(ps, |j| -c(j), p_bar);
    (-alpha, -beta)
}

/// The Sec 4.4 inner-box LP of dimension `i`: maximise the summed margin
/// `m·(α⁺−α⁻) − P·(β⁺−β⁻)` s.t. `α⁻−β⁻p_j ≥ pcr_j⁻`, `α⁺−β⁺p_j ≤ pcr_j⁺`
/// and `α⁻−β⁻p_j ≤ α⁺−β⁺p_j` (Eq. 14), over `[α⁻, β⁻, α⁺, β⁺]`.
fn lp_inner<const D: usize>(pcrs: &PcrSet<D>, catalog: &UCatalog, i: usize, inner: &mut Cfb<D>) {
    let m = catalog.len() as f64;
    let p_sum = catalog.sum();
    let mut lp = LinearProgram::maximize(vec![-m, p_sum, m, -p_sum]);
    for (p, r) in catalog.values().iter().zip(pcrs.rects()) {
        lp.greater_eq(vec![1.0, -p, 0.0, 0.0], r.min[i]);
        lp.less_eq(vec![0.0, 0.0, 1.0, -p], r.max[i]);
        lp.less_eq(vec![1.0, -p, -1.0, *p], 0.0);
    }
    match lp.solve() {
        Ok(s) => {
            inner.alpha.min[i] = s.x[0];
            inner.beta_lo[i] = s.x[1];
            inner.alpha.max[i] = s.x[2];
            inner.beta_hi[i] = s.x[3];
        }
        Err(_) => {
            // Fallback: the degenerate point at the smallest PCR's
            // center — inside every (nested) PCR.
            let last = pcrs.rect(pcrs.len() - 1);
            let mid = 0.5 * (last.min[i] + last.max[i]);
            inner.alpha.min[i] = mid;
            inner.beta_lo[i] = 0.0;
            inner.alpha.max[i] = mid;
            inner.beta_hi[i] = 0.0;
        }
    }
}

/// Exact feasibility repair: shifts intercepts by the worst violation so
/// the conservative inclusions hold with zero tolerance.
fn repair<const D: usize>(pair: &mut CfbPair<D>, pcrs: &PcrSet<D>, ps: &[f64]) {
    let CfbPair { outer, inner } = pair;
    for i in 0..D {
        let lo = |j: usize| pcrs.rect(j).min[i];
        let hi = |j: usize| pcrs.rect(j).max[i];
        outer.alpha.min[i] =
            shift_until_feasible(outer.alpha.min[i], outer.beta_lo[i], true, ps, lo);
        outer.alpha.max[i] =
            shift_until_feasible(outer.alpha.max[i], outer.beta_hi[i], false, ps, hi);
        inner.alpha.min[i] =
            shift_until_feasible(inner.alpha.min[i], inner.beta_lo[i], false, ps, lo);
        inner.alpha.max[i] =
            shift_until_feasible(inner.alpha.max[i], inner.beta_hi[i], true, ps, hi);
    }
}

/// The intercept that puts the face `alpha − beta·p` at or `below` (else
/// at or above) every PCR face `c(j)`, evaluated as [`Cfb`] evaluates it.
///
/// A shift under half an ulp of `alpha` rounds away (a face through exact
/// values, as a histogram's can be, may need one), so every step moves at
/// least one ulp. A NaN face counts as no violation.
fn shift_until_feasible(
    mut alpha: f64,
    beta: f64,
    below: bool,
    ps: &[f64],
    c: impl Fn(usize) -> f64,
) -> f64 {
    // Bounded only against a pathological input: a step covers the whole
    // violation unless it rounds away, so one or two steps end the loop.
    for _ in 0..64 {
        let worst = ps.iter().enumerate().fold(0.0f64, |w, (j, &p)| {
            let face = alpha - beta * p;
            w.max(if below { face - c(j) } else { c(j) - face })
        });
        if worst <= 0.0 {
            break;
        }
        alpha = if below {
            (alpha - worst).min(alpha.next_down())
        } else {
            (alpha + worst).max(alpha.next_up())
        };
    }
    alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncertain_geom::Point;
    use uncertain_pdf::ObjectPdf;

    fn fit(pdf: &ObjectPdf<2>, cat: &UCatalog) -> (PcrSet<2>, CfbPair<2>) {
        let pcrs = PcrSet::compute(pdf, cat);
        let pair = fit_cfb_pair(&pcrs, cat);
        (pcrs, pair)
    }

    fn disk() -> ObjectPdf<2> {
        ObjectPdf::UniformBall {
            center: Point::new([5000.0, 5000.0]),
            radius: 250.0,
        }
    }

    #[test]
    fn outer_contains_every_pcr() {
        let cat = UCatalog::uniform(8);
        let (pcrs, pair) = fit(&disk(), &cat);
        for (j, &p) in cat.values().iter().enumerate() {
            let out = pair.outer.eval(p);
            assert!(
                out.contains_rect(pcrs.rect(j)),
                "cfb_out({p}) = {out:?} must contain pcr = {:?}",
                pcrs.rect(j)
            );
        }
    }

    #[test]
    fn inner_contained_in_every_pcr() {
        let cat = UCatalog::uniform(8);
        let (pcrs, pair) = fit(&disk(), &cat);
        for (j, &p) in cat.values().iter().enumerate() {
            let inn = pair.inner.eval(p);
            assert!(
                pcrs.rect(j).contains_rect(&inn),
                "pcr({p}) = {:?} must contain cfb_in = {inn:?}",
                pcrs.rect(j)
            );
        }
    }

    #[test]
    fn congau_cfbs_conservative_too() {
        let pdf: ObjectPdf<2> = ObjectPdf::ConGauBall {
            center: Point::new([1000.0, 2000.0]),
            radius: 250.0,
            sigma: 125.0,
        };
        let cat = UCatalog::paper_utree_default();
        let (pcrs, pair) = fit(&pdf, &cat);
        for (j, &p) in cat.values().iter().enumerate() {
            assert!(
                pair.outer.eval(p).contains_rect(pcrs.rect(j)),
                "outer at {p}"
            );
            assert!(
                pcrs.rect(j).contains_rect(&pair.inner.eval(p)),
                "inner at {p}: pcr={:?} cfb_in={:?}",
                pcrs.rect(j),
                pair.inner.eval(p)
            );
        }
    }

    #[test]
    fn outer_is_tight_for_linear_pcrs() {
        // A uniform box has *linear* PCR faces (quantiles are linear in p),
        // so the optimal linear CFB matches them almost exactly.
        let pdf = ObjectPdf::UniformBox {
            rect: Rect::new([0.0, 0.0], [100.0, 100.0]),
        };
        let cat = UCatalog::uniform(6);
        let (pcrs, pair) = fit(&pdf, &cat);
        for (j, &p) in cat.values().iter().enumerate() {
            let out = pair.outer.eval(p);
            let r = pcrs.rect(j);
            for i in 0..2 {
                assert!(
                    (out.min[i] - r.min[i]).abs() < 0.1,
                    "lower face slack at p={p}"
                );
                assert!(
                    (out.max[i] - r.max[i]).abs() < 0.1,
                    "upper face slack at p={p}"
                );
            }
        }
    }

    #[test]
    fn inner_has_positive_extent_away_from_half() {
        let cat = UCatalog::uniform(8);
        let (_, pair) = fit(&disk(), &cat);
        let inn = pair.inner.eval(0.1);
        assert!(inn.extent(0) > 1.0, "inner box degenerate: {inn:?}");
        assert!(inn.extent(1) > 1.0);
    }

    #[test]
    fn rounding_survives_f32_narrowing() {
        let cat = UCatalog::uniform(8);
        let (pcrs, pair) = fit(&disk(), &cat);
        // Simulate the page codec narrow/widen cycle: values must be
        // unchanged (they are already f32-representable) and inclusions
        // must continue to hold exactly.
        for i in 0..2 {
            let a = pair.outer.alpha.min[i];
            assert_eq!(a as f32 as f64, a);
            let b = pair.inner.beta_hi[i];
            assert_eq!(b as f32 as f64, b);
        }
        for (j, &p) in cat.values().iter().enumerate() {
            assert!(pair.outer.eval(p).contains_rect(pcrs.rect(j)));
        }
    }

    #[test]
    fn view_implements_observation3_access() {
        let cat = UCatalog::uniform(6);
        let (pcrs, pair) = fit(&disk(), &cat);
        let view = CfbView {
            pair: &pair,
            catalog: &cat,
        };
        for j in 0..cat.len() {
            assert!(view.outer(j).contains_rect(pcrs.rect(j)));
            assert!(pcrs.rect(j).contains_rect(&view.inner(j)));
        }
    }

    #[test]
    fn storage_is_8d_values() {
        // The space claim of Sec 4.3: a CFB pair is 8d floats
        // (2d intercept + 2d slope per box).
        let d = 2;
        assert_eq!(
            std::mem::size_of::<CfbPair<2>>(),
            8 * d * std::mem::size_of::<f64>()
        );
    }

    // ---- the closed form against the Sec 4.4 LP ----

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uncertain_pdf::HistogramPdf;

    /// Sec 4.4 verbatim: three Simplex LPs per dimension, then the same
    /// repair as [`fit_repaired`] (unrounded).
    fn lp_fit<const D: usize>(pcrs: &PcrSet<D>, catalog: &UCatalog) -> CfbPair<D> {
        let m = catalog.len() as f64;
        let p_sum = catalog.sum();
        let ps = catalog.values();
        let zero = Cfb {
            alpha: Rect::new([0.0; D], [0.0; D]),
            beta_lo: [0.0; D],
            beta_hi: [0.0; D],
        };
        let mut pair = CfbPair {
            outer: zero,
            inner: zero,
        };
        for i in 0..D {
            // Outer lower face: maximise m·α − P·β s.t. α − β·p_j ≤ pcr_j⁻.
            let mut lp = LinearProgram::maximize(vec![m, -p_sum]);
            for (p, r) in ps.iter().zip(pcrs.rects()) {
                lp.less_eq(vec![1.0, -p], r.min[i]);
            }
            let s = lp.solve().unwrap();
            (pair.outer.alpha.min[i], pair.outer.beta_lo[i]) = (s.x[0], s.x[1]);
            // Outer upper face: minimise m·α − P·β s.t. α − β·p_j ≥ pcr_j⁺.
            let mut lp = LinearProgram::maximize(vec![-m, p_sum]);
            for (p, r) in ps.iter().zip(pcrs.rects()) {
                lp.greater_eq(vec![1.0, -p], r.max[i]);
            }
            let s = lp.solve().unwrap();
            (pair.outer.alpha.max[i], pair.outer.beta_hi[i]) = (s.x[0], s.x[1]);
            lp_inner(pcrs, catalog, i, &mut pair.inner);
        }
        repair(&mut pair, pcrs, ps);
        pair
    }

    /// `Σ_j face(p_j)` for the four faces of dimension `i`:
    /// outer lo, outer hi, inner lo, inner hi.
    fn summed_faces<const D: usize>(pair: &CfbPair<D>, ps: &[f64], i: usize) -> [f64; 4] {
        let sum = |f: &dyn Fn(f64) -> f64| ps.iter().map(|&p| f(p)).sum::<f64>();
        [
            sum(&|p| pair.outer.face_lo(i, p)),
            sum(&|p| pair.outer.face_hi(i, p)),
            sum(&|p| pair.inner.face_lo(i, p)),
            sum(&|p| pair.inner.face_hi(i, p)),
        ]
    }

    fn bits<const D: usize>(pair: &CfbPair<D>) -> Vec<u64> {
        [pair.outer, pair.inner]
            .iter()
            .flat_map(|c| {
                (0..D).flat_map(move |i| {
                    [c.alpha.min[i], c.alpha.max[i], c.beta_lo[i], c.beta_hi[i]].map(f64::to_bits)
                })
            })
            .collect()
    }

    /// Checks one object: (a) every face's summed margin equals the LP's
    /// after repair, (b) the rounded pair is exactly conservative at every
    /// catalog value, (c) optionally, the rounded pair is the LP's bit for
    /// bit. Returns how many dimensions needed the LP.
    fn check_against_lp<const D: usize>(
        pdf: &ObjectPdf<D>,
        cat: &UCatalog,
        byte_equal: bool,
    ) -> usize {
        let pcrs = PcrSet::compute(pdf, cat);
        let (fit, lp_dims) = fit_repaired(&pcrs, cat);
        let oracle = lp_fit(&pcrs, cat);
        let ps = cat.values();
        for i in 0..D {
            let (got, want) = (summed_faces(&fit, ps, i), summed_faces(&oracle, ps, i));
            for f in 0..4 {
                let tol = 1e-9 * got[f].abs().max(want[f].abs()).max(1.0);
                assert!(
                    (got[f] - want[f]).abs() <= tol,
                    "face {f} of dim {i}: closed form {} vs LP {} for {pdf:?} on {ps:?}",
                    got[f],
                    want[f]
                );
            }
        }
        let rounded = fit.rounded();
        for (j, &p) in ps.iter().enumerate() {
            let r = pcrs.rect(j);
            for i in 0..D {
                assert!(
                    rounded.outer.face_lo(i, p) <= r.min[i],
                    "outer lo {i} at {p}"
                );
                assert!(
                    rounded.outer.face_hi(i, p) >= r.max[i],
                    "outer hi {i} at {p}"
                );
                assert!(
                    rounded.inner.face_lo(i, p) >= r.min[i],
                    "inner lo {i} at {p}"
                );
                assert!(
                    rounded.inner.face_hi(i, p) <= r.max[i],
                    "inner hi {i} at {p}"
                );
            }
        }
        if byte_equal {
            assert_eq!(
                bits(&rounded),
                bits(&oracle.rounded()),
                "closed form {rounded:?} vs LP {:?} for {pdf:?} on {ps:?}",
                oracle.rounded()
            );
        }
        lp_dims
    }

    fn arb_center<const D: usize>(rng: &mut SmallRng) -> Point<D> {
        Point::new(std::array::from_fn(|_| rng.gen_range(100.0..9_900.0)))
    }

    fn arb_shape<const D: usize>(rng: &mut SmallRng, shape: usize) -> ObjectPdf<D> {
        match shape {
            0 => ObjectPdf::UniformBall {
                center: arb_center(rng),
                radius: rng.gen_range(20.0..400.0),
            },
            1 => {
                let radius = rng.gen_range(50.0..400.0);
                ObjectPdf::ConGauBall {
                    center: arb_center(rng),
                    radius,
                    sigma: radius * rng.gen_range(0.3..0.9),
                }
            }
            2 => {
                let lo = arb_center::<D>(rng).coords;
                let hi = std::array::from_fn(|i| lo[i] + rng.gen_range(20.0..600.0));
                ObjectPdf::UniformBox {
                    rect: Rect::new(lo, hi),
                }
            }
            _ => {
                let lo = arb_center::<D>(rng).coords;
                let hi = std::array::from_fn(|i| lo[i] + rng.gen_range(20.0..600.0));
                let bins: [usize; D] = std::array::from_fn(|_| rng.gen_range(1..7usize));
                let cells = bins.iter().product();
                let weights = (0..cells).map(|_| rng.gen_range(0.0..1.0)).collect();
                ObjectPdf::Histogram(HistogramPdf::new(Rect::new(lo, hi), bins, weights))
            }
        }
    }

    fn catalogs() -> Vec<UCatalog> {
        let mut cats = vec![UCatalog::paper_utree_default()];
        cats.extend((2..=20).map(UCatalog::uniform));
        cats
    }

    /// Catalogs whose top value is below 0.5: the top PCR is a box, not
    /// a point, so Eq. 14 can bind without pinning the inner faces.
    fn short_catalogs() -> Vec<UCatalog> {
        [
            vec![0.0, 0.05, 0.3, 0.45],
            vec![0.0, 0.1, 0.2, 0.3],
            vec![0.0, 0.02, 0.15, 0.25, 0.4],
        ]
        .into_iter()
        .map(|v| UCatalog::try_new(v).unwrap())
        .collect()
    }

    fn differential<const D: usize>(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for cat in catalogs() {
            for case in 0..24 {
                let shape = case % 4;
                let pdf = arb_shape::<D>(&mut rng, shape);
                let lp_dims = check_against_lp(&pdf, &cat, shape < 3);
                assert_eq!(lp_dims, 0, "LP ran for {pdf:?} on {:?}", cat.values());
            }
        }
        for cat in short_catalogs() {
            let mut lp_ran = 0;
            for case in 0..40 {
                let shape = case % 4;
                let pdf = arb_shape::<D>(&mut rng, shape);
                lp_ran += check_against_lp(&pdf, &cat, shape < 3);
            }
            if cat.values() == [0.0, 0.05, 0.3, 0.45] {
                assert!(lp_ran > 0, "Eq. 14 never bound on {:?}", cat.values());
            }
        }
    }

    #[test]
    fn closed_form_matches_lp_1d() {
        differential::<1>(0xcfb1);
    }

    #[test]
    fn closed_form_matches_lp_2d() {
        differential::<2>(0xcfb2);
    }

    #[test]
    fn closed_form_matches_lp_3d() {
        differential::<3>(0xcfb3);
    }

    /// Histograms whose marginal quantiles kink exactly at the paper
    /// catalog's mean `p̄ = 7/28 = 0.25`, on both faces: the hull has a
    /// vertex on `p̄` and every slope between its edges is optimal.
    #[test]
    fn kink_at_the_catalog_mean_keeps_the_lp_optimum() {
        let cat = UCatalog::paper_utree_default();
        let rect = Rect::new([1000.0, 2000.0], [1400.0, 2300.0]);
        // Marginal masses (2, 1, 2, 1, 2)/8 put a density step at
        // cumulative mass 0.25 from either end.
        let step = [2.0, 1.0, 2.0, 1.0, 2.0];
        let mut weights = Vec::new();
        for a in step {
            for b in [3.0, 1.0, 1.0, 3.0] {
                weights.push(a * b);
            }
        }
        let pdf = ObjectPdf::Histogram(HistogramPdf::new(rect, [5, 4], weights));
        assert_eq!(check_against_lp(&pdf, &cat, false), 0);
        let pdf = ObjectPdf::Histogram(HistogramPdf::new(
            Rect::new([-50.0], [70.0]),
            [5],
            step.to_vec(),
        ));
        assert_eq!(check_against_lp(&pdf, &cat, false), 0);
    }
}
