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
//! Simplex method; here fitting is closed form throughout — each face is a
//! supporting line of the convex hull of its PCR faces at the catalog
//! mean, and an inner box whose faces Eq. 14 couples is a short search
//! over where they meet ([`fit_cfb_pair`]). The Simplex solver
//! (`simplex_lp`) is only the tests' Sec 4.4 oracle.

use crate::catalog::UCatalog;
use crate::filter::PcrAccess;
use crate::pcr::PcrSet;
use page_store::{f32_round_down, f32_round_up};
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
/// Every LP has a closed-form optimum, so no Simplex method runs: the
/// tests check the result against the Sec 4.4 LP.
pub fn fit_cfb_pair<const D: usize>(pcrs: &PcrSet<D>, catalog: &UCatalog) -> CfbPair<D> {
    fit_repaired(pcrs, catalog).rounded()
}

/// The optimal CFB pair before f32 rounding, already repaired to exact
/// feasibility.
///
/// Every objective `Σ_j face(p_j)` equals `m · face(p̄)` at the catalog
/// mean `p̄ = P/m`, so:
/// * an outer face is the supporting line at `p̄` of the lower (upper)
///   convex hull of its PCR faces `(p_j, c_j)`;
/// * the inner faces, ignoring Eq. 14, are the mirrored supporting lines.
///   Eq. 14 (`lo ≤ hi`) is linear in `p`, so checking it at `p₁` and `p_m`
///   checks it everywhere; when it fails, [`coupled_inner`] fits both
///   faces together, also in closed form.
pub(crate) fn fit_repaired<const D: usize>(pcrs: &PcrSet<D>, catalog: &UCatalog) -> CfbPair<D> {
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
    for i in 0..D {
        let lo = |j: usize| pcrs.rect(j).min[i];
        let hi = |j: usize| pcrs.rect(j).max[i];
        let (outer, inner) = (&mut pair.outer, &mut pair.inner);
        (outer.alpha.min[i], outer.beta_lo[i]) = support_below(ps, lo, p_bar);
        (outer.alpha.max[i], outer.beta_hi[i]) = support_above(ps, hi, p_bar);
        (inner.alpha.min[i], inner.beta_lo[i]) = support_above(ps, lo, p_bar);
        (inner.alpha.max[i], inner.beta_hi[i]) = support_below(ps, hi, p_bar);
        let eq14 = |c: &Cfb<D>, j: usize| c.face_lo(i, ps[j]) <= c.face_hi(i, ps[j]);
        if !(eq14(inner, 0) && eq14(inner, last)) {
            [
                (inner.alpha.min[i], inner.beta_lo[i]),
                (inner.alpha.max[i], inner.beta_hi[i]),
            ] = coupled_inner(ps, lo, hi, p_bar);
        }
    }
    repair(&mut pair, pcrs, ps);
    pair
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

/// The inner faces `(α⁻, β⁻)`, `(α⁺, β⁺)` of a dimension whose decoupled
/// optimum violates Eq. 14. Some optimum then has both faces meet at
/// `(p_e, t)`, `e` a catalog end and `t ∈ [lo_e, hi_e]`; for a fixed `t`
/// each is the line through that point with the extreme slope to the other
/// PCR faces, so the summed margin (`∝` the gap at the other end) is
/// concave and piecewise linear in `t`, maximal at an end or where two
/// slope lines cross (O(m³)).
/// A point top PCR pins `t` and Eq. 14 at `p_m`, so only `e = p_m` applies.
/// If no end keeps Eq. 14 at the other, both bind, `L ≡ U`, and the constant
/// line through the top PCR's centre (inside every nested PCR) is optimal.
fn coupled_inner(
    ps: &[f64],
    lo: impl Fn(usize) -> f64,
    hi: impl Fn(usize) -> f64,
    p_bar: f64,
) -> [(f64, f64); 2] {
    let last = ps.len() - 1;
    let mut best = (f64::NEG_INFINITY, [(0.5 * (lo(last) + hi(last)), 0.0); 2]);
    let ends = if lo(last) == hi(last) { 1 } else { 2 };
    for e in [last, 0].into_iter().take(ends) {
        let (p_e, other) = (ps[e], last - e);
        let mut fit_at = |t: f64| {
            // From the top end the lower face takes the smallest slope.
            let s = extreme_slope(ps, e, &lo, t, e == last);
            let r = extreme_slope(ps, e, &hi, t, e != last);
            let faces = [(t - s * p_e, -s), (t - r * p_e, -r)];
            let gap = |(a, b): (f64, f64)| a - b * ps[other];
            let margin = (r - s) * (p_bar - p_e);
            if gap(faces[0]) <= gap(faces[1]) && margin > best.0 {
                best = (margin, faces);
            }
        };
        fit_at(lo(e));
        if lo(e) < hi(e) {
            fit_at(hi(e));
            let d = |j: usize| ps[j] - p_e;
            for c in [&lo as &dyn Fn(usize) -> f64, &hi] {
                for j in (0..ps.len()).filter(|&j| j != e) {
                    for k in (j + 1..ps.len()).filter(|&k| k != e) {
                        let t = (d(k) * c(j) - d(j) * c(k)) / (d(k) - d(j));
                        if lo(e) < t && t < hi(e) {
                            fit_at(t);
                        }
                    }
                }
            }
        }
    }
    best.1
}

/// The smallest (else the largest) slope from `(ps[e], t)` to the points
/// `(p_j, c(j))`, `j ≠ e`.
fn extreme_slope(ps: &[f64], e: usize, c: impl Fn(usize) -> f64, t: f64, smallest: bool) -> f64 {
    let p_e = ps[e];
    // Hot for every catalog ending at 0.5: iterating `ps`, not indexing
    // it, keeps this loop as cheap as a plain fold over `0..m−1`.
    let slopes = ps.iter().enumerate().filter(|&(j, _)| j != e);
    let slopes = slopes.map(|(j, &p)| (c(j) - t) / (p - p_e));
    if smallest {
        slopes.fold(f64::INFINITY, f64::min)
    } else {
        slopes.fold(f64::NEG_INFINITY, f64::max)
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
    use simplex_lp::LinearProgram;
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
            // Inner box: maximise the summed margin m·(α⁺−α⁻) − P·(β⁺−β⁻)
            // s.t. α⁻−β⁻p_j ≥ pcr_j⁻, α⁺−β⁺p_j ≤ pcr_j⁺ and Eq. 14,
            // α⁻−β⁻p_j ≤ α⁺−β⁺p_j, over [α⁻, β⁻, α⁺, β⁺].
            let mut lp = LinearProgram::maximize(vec![-m, p_sum, m, -p_sum]);
            for (p, r) in ps.iter().zip(pcrs.rects()) {
                lp.greater_eq(vec![1.0, -p, 0.0, 0.0], r.min[i]);
                lp.less_eq(vec![0.0, 0.0, 1.0, -p], r.max[i]);
                lp.less_eq(vec![1.0, -p, -1.0, *p], 0.0);
            }
            let s = lp.solve().unwrap();
            (pair.inner.alpha.min[i], pair.inner.beta_lo[i]) = (s.x[0], s.x[1]);
            (pair.inner.alpha.max[i], pair.inner.beta_hi[i]) = (s.x[2], s.x[3]);
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

    /// The parameter bits of dimension `i`: outer `α⁻ α⁺ β⁻ β⁺`, then,
    /// unless `outer_only`, the inner ones.
    fn bits<const D: usize>(pair: &CfbPair<D>, i: usize, outer_only: bool) -> Vec<u64> {
        let boxes = if outer_only {
            &[pair.outer][..]
        } else {
            &[pair.outer, pair.inner]
        };
        boxes
            .iter()
            .flat_map(|c| [c.alpha.min[i], c.alpha.max[i], c.beta_lo[i], c.beta_hi[i]])
            .map(f64::to_bits)
            .collect()
    }

    /// Whether Eq. 14 couples the inner faces of dimension `i` beyond
    /// pinning them: the decoupled inner faces violate it and the top PCR
    /// is a box, not a point. There the optimum need not be unique, so
    /// only the inner box's summed margin is the LP's, not each face.
    fn coupled<const D: usize>(pcrs: &PcrSet<D>, cat: &UCatalog, i: usize) -> bool {
        let (ps, last) = (cat.values(), cat.len() - 1);
        let p_bar = cat.sum() / cat.len() as f64;
        let (lo, hi) = (
            |j: usize| pcrs.rect(j).min[i],
            |j: usize| pcrs.rect(j).max[i],
        );
        let ((a_lo, b_lo), (a_hi, b_hi)) =
            (support_above(ps, lo, p_bar), support_below(ps, hi, p_bar));
        let eq14 = |p: f64| a_lo - b_lo * p <= a_hi - b_hi * p;
        lo(last) != hi(last) && !(eq14(ps[0]) && eq14(ps[last]))
    }

    /// Checks one object against the LP after repair: (a) every outer
    /// face's summed value, and every inner face's unless the dimension
    /// is [`coupled`] (then the inner summed margin), (b) the rounded
    /// pair is exactly conservative at every catalog value, (c)
    /// optionally, the rounded pair is the LP's bit for bit, inner faces
    /// of coupled dimensions aside. Returns how many dimensions are
    /// coupled.
    fn check_against_lp<const D: usize>(
        pdf: &ObjectPdf<D>,
        cat: &UCatalog,
        byte_equal: bool,
    ) -> usize {
        let pcrs = PcrSet::compute(pdf, cat);
        let fit = fit_repaired(&pcrs, cat);
        let oracle = lp_fit(&pcrs, cat);
        let ps = cat.values();
        let near = |got: f64, want: f64, what: &str| {
            let tol = 1e-9 * got.abs().max(want.abs()).max(1.0);
            assert!(
                (got - want).abs() <= tol,
                "{what}: closed form {got} vs LP {want} for {pdf:?} on {ps:?}"
            );
        };
        let mut coupled_dims = 0;
        let (rounded, oracle_rounded) = (fit.rounded(), oracle.rounded());
        for i in 0..D {
            let is_coupled = coupled(&pcrs, cat, i);
            let (got, want) = (summed_faces(&fit, ps, i), summed_faces(&oracle, ps, i));
            let faces = if is_coupled { 2 } else { 4 };
            for f in 0..faces {
                near(got[f], want[f], &format!("face {f} of dim {i}"));
            }
            if is_coupled {
                coupled_dims += 1;
                near(
                    got[3] - got[2],
                    want[3] - want[2],
                    &format!("inner margin of dim {i}"),
                );
            }
            if byte_equal {
                assert_eq!(
                    bits(&rounded, i, is_coupled),
                    bits(&oracle_rounded, i, is_coupled),
                    "dim {i}: closed form {rounded:?} vs LP {oracle_rounded:?} for {pdf:?} on {ps:?}"
                );
            }
        }
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
                    "inner lo {i} at {p} for {pdf:?} on {ps:?}"
                );
                assert!(
                    rounded.inner.face_hi(i, p) <= r.max[i],
                    "inner hi {i} at {p} for {pdf:?} on {ps:?}"
                );
            }
        }
        coupled_dims
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

    /// A random catalog of 2 to 61 values from 0 up to a top below 0.5,
    /// drawn closer to 0.5 (where the top PCR is narrow and Eq. 14 binds)
    /// more often than not.
    fn arb_short_catalog(rng: &mut SmallRng) -> UCatalog {
        let top = 0.5 - rng.gen_range(0.001..0.45) * rng.gen_range(0.001..1.0);
        let mut values = vec![0.0];
        for _ in 1..rng.gen_range(2..62usize) {
            let last = values[values.len() - 1];
            values.push(last + rng.gen_range(0.1..1.0));
        }
        let scale = top / values[values.len() - 1];
        UCatalog::try_new(values.iter().map(|v| v * scale).collect()).unwrap()
    }

    fn differential<const D: usize>(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for cat in catalogs() {
            for case in 0..24 {
                let shape = case % 4;
                let pdf = arb_shape::<D>(&mut rng, shape);
                let coupled = check_against_lp(&pdf, &cat, shape < 3);
                assert_eq!(coupled, 0, "coupled for {pdf:?} on {:?}", cat.values());
            }
        }
        for cat in short_catalogs() {
            let mut coupled = 0;
            for case in 0..40 {
                let shape = case % 4;
                let pdf = arb_shape::<D>(&mut rng, shape);
                coupled += check_against_lp(&pdf, &cat, shape < 3);
            }
            if cat.values() == [0.0, 0.05, 0.3, 0.45] {
                assert!(coupled > 0, "Eq. 14 never bound on {:?}", cat.values());
            }
        }
        let mut coupled = 0;
        for case in 0..SWEEP {
            let cat = arb_short_catalog(&mut rng);
            let pdf = arb_shape::<D>(&mut rng, case % 4);
            coupled += check_against_lp(&pdf, &cat, false);
        }
        assert!(coupled > 0, "no coupled dimension in {SWEEP} {D}-D objects");
    }

    /// Objects per dimensionality in [`differential`]'s seeded sweep over
    /// random catalogs topping below 0.5.
    const SWEEP: usize = 200;

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
