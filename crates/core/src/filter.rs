//! The pruning/validation rules (Observations 1–3 of the paper).
//!
//! Given a prob-range query `(r_q, p_q)` and an object's pre-computed
//! PCR information, these rules decide — in O(d·m) time and **without any
//! appearance-probability integration** — whether the object certainly
//! fails the query (`Pruned`), certainly satisfies it (`Validated`), or
//! must go to the refinement step (`Candidate`).
//!
//! The same decision procedure serves both structures through the
//! [`PcrAccess`] abstraction:
//! * exact PCRs (`PcrSet`) give Observation 2 (used by U-PCR);
//! * conservative functional boxes (`CfbPair`) give Observation 3 —
//!   `outer(j) = cfb_out(p_j) ⊇ pcr(p_j) ⊇ cfb_in(p_j) = inner(j)`.

use crate::catalog::UCatalog;
use uncertain_geom::Rect;

/// Slack for catalog-value selection.
///
/// Thresholds like `p_q = 0.8` make `1 − p_q` fall a few ulps *below* the
/// stored catalog value `0.2`, which would silently demote rule 4/5 to a
/// weaker catalog value. The slack restores the mathematically intended
/// selection; it widens the decision boundary by at most 1e-9 in
/// probability, far below both the PCR quantile accuracy and the
/// Monte-Carlo refinement noise.
pub const PROB_EPS: f64 = 1e-9;

/// Result of the filter step for one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOutcome {
    /// The object certainly does not qualify.
    Pruned,
    /// The object certainly qualifies.
    Validated,
    /// Undecided: the appearance probability must be computed.
    Candidate,
}

/// Conservative access to an object's PCR at catalog index `j`.
///
/// Contract: `outer(j) ⊇ pcr(p_j) ⊇ inner(j)` for every `j`, face by
/// face: every lower face of `inner(j)` lies at or above the PCR's and
/// every upper face at or below it. At `p_j = 0.5` the PCR is a point and
/// `inner(j)` may be empty (crossed faces); the rules never need it to be
/// a valid box, because each compares one face at a time.
pub trait PcrAccess<const D: usize> {
    /// A rectangle containing `pcr(p_j)`.
    fn outer(&self, j: usize) -> Rect<D>;
    /// A rectangle whose every face lies inside `pcr(p_j)`'s.
    fn inner(&self, j: usize) -> Rect<D>;
}

/// Per-query precomputation for the filter rules and probability bounds.
///
/// Which catalog index each rule consults depends only on `(catalog, p_q)`
/// — never on the entry under test. A `PreparedQuery` performs that
/// selection (and the rule-1-vs-rule-2 branch decision, with its
/// `PROB_EPS` gate) once per query; backends build it before the traversal
/// and the per-entry check ([`filter_object_planned`],
/// [`prob_bounds_planned`]) drops to pure rectangle arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct PreparedQuery<'c, const D: usize> {
    /// The search region `r_q`.
    pub rq: Rect<D>,
    /// The probability threshold `p_q` (0 for bounds-only ranking use).
    pub pq: f64,
    /// The catalog values, for the `prob_bounds_planned` sweep.
    values: &'c [f64],
    /// Rule-1 catalog index — `Some` exactly when the high-threshold
    /// branch (`p_q > 1 − p_m − ε`) is taken, in which case rule 2 is not.
    rule1: Option<usize>,
    /// Rule-2 catalog index (low-threshold branch only).
    rule2: Option<usize>,
    /// `p_q > 0.5`: selects rule 4 over rule 5 for `rule45`.
    high: bool,
    /// Rule-4 or rule-5 catalog index, per `high`.
    rule45: Option<usize>,
    /// Rule-3 catalog index.
    rule3: Option<usize>,
}

impl<'c, const D: usize> PreparedQuery<'c, D> {
    /// Prepares a threshold query `(r_q, p_q)` against `catalog`.
    pub fn new(catalog: &'c UCatalog, rq: &Rect<D>, pq: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&pq));
        let pm = catalog.last();
        // The rule-1/rule-2 branch gate carries the same PROB_EPS slack as
        // every catalog lookup: for p_q mathematically equal to 1 − p_m,
        // the float subtraction can land a few ulps to either side, and
        // the ulp-below case would otherwise silently demote the query to
        // rule 2 — much weaker at high thresholds (disjointness from the
        // smallest PCR instead of containment of it).
        let (rule1, rule2) = if pq > 1.0 - pm - PROB_EPS {
            let j = catalog
                .smallest_geq(1.0 - pq - PROB_EPS)
                // xlint: allow(panic-freedom) -- invariant: pq > 1 - pm - eps implies 1 - pq - eps <= pm = catalog.last()
                .expect("pq > 1 - pm - eps implies 1 - pq - eps <= pm = catalog.last()");
            (Some(j), None)
        } else {
            (None, catalog.largest_leq(pq + PROB_EPS))
        };
        let high = pq > 0.5;
        let rule45 = if high {
            catalog.largest_leq(1.0 - pq + PROB_EPS)
        } else {
            catalog.smallest_geq(pq - PROB_EPS)
        };
        let rule3 = catalog.largest_leq((1.0 - pq) / 2.0 + PROB_EPS);
        Self {
            rq: *rq,
            pq,
            values: catalog.values(),
            rule1,
            rule2,
            high,
            rule45,
            rule3,
        }
    }

    /// Prepares a bounds-only query (ranking traversals call
    /// [`prob_bounds_planned`], which never consults the threshold rules).
    pub fn ranking(catalog: &'c UCatalog, rq: &Rect<D>) -> Self {
        Self::new(catalog, rq, 0.0)
    }
}

/// Applies the paper's rules in the prescribed order
/// (Sec 4.1: rules 1→4→3 for `p_q > 0.5`, rules 2→5→3 otherwise, with the
/// catalog-aware value selection of Observation 2 done once in `plan`).
pub fn filter_object_planned<const D: usize, A: PcrAccess<D>>(
    acc: &A,
    mbr: &Rect<D>,
    plan: &PreparedQuery<'_, D>,
) -> FilterOutcome {
    let rq = &plan.rq;

    // ---- pruning --------------------------------------------------------
    if let Some(j) = plan.rule1 {
        // Rule 1: p_j = smallest catalog value >= 1 - p_q. Object fails if
        // r_q does not fully contain (the inner approximation of) pcr(p_j):
        // some face of pcr(p_j) sticks out, so at least p_j >= 1 - p_q mass
        // escapes r_q and P_app < p_q.
        if !rq.contains_rect(&acc.inner(j)) {
            return FilterOutcome::Pruned;
        }
    } else if let Some(j) = plan.rule2 {
        // Rule 2: p_j = largest catalog value <= p_q. Disjointness from
        // (the outer approximation of) pcr(p_j) puts r_q strictly beyond
        // one face, where at most p_j <= p_q mass lives.
        if !rq.intersects(&acc.outer(j)) {
            return FilterOutcome::Pruned;
        }
    }

    // ---- validation -----------------------------------------------------
    if plan.high {
        // Rule 4: p_j = largest catalog value <= 1 - p_q. If r_q covers the
        // part of o.MBR on one side of an outer pcr face, it captures at
        // least 1 - p_j >= p_q mass.
        if let Some(j) = plan.rule45 {
            let outer = acc.outer(j);
            for i in 0..D {
                if covers_slab(rq, mbr, i, outer.min[i], mbr.max[i])
                    || covers_slab(rq, mbr, i, mbr.min[i], outer.max[i])
                {
                    return FilterOutcome::Validated;
                }
            }
        }
    } else if let Some(j) = plan.rule45 {
        // Rule 5: p_j = smallest catalog value >= p_q. Covering the part of
        // o.MBR *outside* an inner pcr face captures at least p_j >= p_q.
        let inner = acc.inner(j);
        for i in 0..D {
            if covers_slab(rq, mbr, i, mbr.min[i], inner.min[i])
                || covers_slab(rq, mbr, i, inner.max[i], mbr.max[i])
            {
                return FilterOutcome::Validated;
            }
        }
    }

    // Rule 3: p_j = largest catalog value <= (1 - p_q)/2. Covering the slab
    // of o.MBR between both outer faces captures >= 1 - 2·p_j >= p_q.
    if let Some(j) = plan.rule3 {
        let outer = acc.outer(j);
        for i in 0..D {
            if covers_slab(rq, mbr, i, outer.min[i], outer.max[i]) {
                return FilterOutcome::Validated;
            }
        }
    }

    FilterOutcome::Candidate
}

/// Does `rq` cover the part of `mbr` whose `dim`-projection lies in
/// `[lo, hi]`? (The paper's O(d) check below Observation 1: full
/// containment on every other dimension plus interval coverage on `dim`.)
fn covers_slab<const D: usize>(rq: &Rect<D>, mbr: &Rect<D>, dim: usize, lo: f64, hi: f64) -> bool {
    for k in 0..D {
        if k != dim && (rq.min[k] > mbr.min[k] || rq.max[k] < mbr.max[k]) {
            return false;
        }
    }
    let lo = lo.max(mbr.min[dim]);
    let hi = hi.min(mbr.max[dim]);
    rq.min[dim] <= lo && rq.max[dim] >= hi
}

/// Conservative bounds `(lo, hi)` on an object's appearance probability
/// `P(o ∈ r_q)`, derived from the same PCR information the filter rules
/// consume — no integration.
///
/// Contract: `lo <= P <= hi`, up to the `PROB_EPS` boundary widening every
/// catalog-driven rule accepts. The bounds are the graded form of the
/// prune/validate rules and power probabilistic *ranking*: a top-k
/// traversal only refines an object while `hi` still beats the current
/// k-th lower bound.
///
/// How each side is obtained (faces of `pcr(p_j)` carry exactly `p_j`
/// mass on their outside):
///
/// * **upper** — mass provably *escaping* `r_q`: per dimension, the lower
///   and upper tails cut off by inner-approximation faces outside `r_q`
///   are disjoint, so their `p_j`s add (`hi = 1 − p_lo − p_hi`); and when
///   `r_q` lies entirely beyond an outer face, the mass inside `r_q` is at
///   most that face's `p_j` (rule-2 logic). Disjoint from the MBR ⇒ 0.
/// * **lower** — mass provably *captured*: in a dimension whose
///   complement `r_q` fully covers (the paper's O(d) slab precondition),
///   either both cut-off tails are bounded by outer faces inside `r_q`
///   (`lo = 1 − p_j − p_j'`, generalising rules 3/4), or `r_q` covers one
///   side of the MBR up to an inner face (`lo = p_j`, rule-5 logic).
///
/// `lo == hi == 1` exactly when `r_q ⊇ mbr` — the only case a ranking
/// backend may report without refinement, because it is decided by the
/// (backend-identical) MBR alone rather than by the tightness of the PCR
/// approximation at hand.
///
/// `plan` is the query's [`PreparedQuery::ranking`], built once and
/// shared by every entry whose bounds the frontier requests.
pub fn prob_bounds_planned<const D: usize, A: PcrAccess<D>>(
    acc: &A,
    mbr: &Rect<D>,
    plan: &PreparedQuery<'_, D>,
) -> (f64, f64) {
    let rq = &plan.rq;
    if !rq.intersects(mbr) {
        return (0.0, 0.0);
    }
    let m = plan.values.len();

    // ---- upper bound ----------------------------------------------------
    let mut hi = 1.0f64;
    for i in 0..D {
        // Tails guaranteed to escape r_q in dimension i: pcr_lo(p_j) <=
        // inner(j).min < rq.min puts p_j mass strictly below r_q (and
        // symmetrically above). The two tails of one dimension are
        // disjoint, so their masses add.
        let mut escape_lo = 0.0f64;
        let mut escape_hi = 0.0f64;
        // Mass *inside* r_q when it sits entirely beyond an outer face:
        // everything in r_q lies outside pcr(p_j), where at most p_j mass
        // lives (rule-2 logic, per face).
        let mut beyond = 1.0f64;
        for j in 0..m {
            let pj = plan.values[j];
            let inner = acc.inner(j);
            if inner.min[i] < rq.min[i] {
                escape_lo = escape_lo.max(pj);
            }
            if inner.max[i] > rq.max[i] {
                escape_hi = escape_hi.max(pj);
            }
            let outer = acc.outer(j);
            if rq.max[i] < outer.min[i] || rq.min[i] > outer.max[i] {
                beyond = beyond.min(pj);
            }
        }
        hi = hi.min(1.0 - escape_lo - escape_hi).min(beyond);
    }
    hi = hi.clamp(0.0, 1.0);

    // ---- lower bound ----------------------------------------------------
    let mut lo = 0.0f64;
    for i in 0..D {
        // The slab precondition: every other dimension fully covered.
        let others_covered = (0..D)
            .filter(|&k| k != i)
            .all(|k| rq.min[k] <= mbr.min[k] && rq.max[k] >= mbr.max[k]);
        if !others_covered {
            continue;
        }
        let covers_lo = rq.min[i] <= mbr.min[i];
        let covers_hi = rq.max[i] >= mbr.max[i];
        // Two-sided: mass cut off below r_q is at most p_j once
        // rq.min <= outer(j).min <= pcr_lo(p_j) (and symmetrically above).
        let mut cut_lo = if covers_lo { Some(0.0f64) } else { None };
        let mut cut_hi = if covers_hi { Some(0.0f64) } else { None };
        // One-sided strips (rule-5 logic): covering the MBR side up to an
        // inner face captures at least that face's p_j.
        let mut strip = 0.0f64;
        for j in 0..m {
            let pj = plan.values[j];
            let outer = acc.outer(j);
            if outer.min[i] >= rq.min[i] {
                cut_lo = Some(cut_lo.map_or(pj, |c: f64| c.min(pj)));
            }
            if outer.max[i] <= rq.max[i] {
                cut_hi = Some(cut_hi.map_or(pj, |c: f64| c.min(pj)));
            }
            let inner = acc.inner(j);
            if covers_lo && inner.min[i] <= rq.max[i] {
                strip = strip.max(pj);
            }
            if covers_hi && inner.max[i] >= rq.min[i] {
                strip = strip.max(pj);
            }
        }
        if let (Some(cl), Some(ch)) = (cut_lo, cut_hi) {
            lo = lo.max(1.0 - cl - ch);
        }
        lo = lo.max(strip);
    }
    lo = lo.clamp(0.0, 1.0).min(hi);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcr::PcrSet;
    use uncertain_pdf::ObjectPdf;

    /// The rules for one entry against a plan prepared for this call.
    fn decide<A: PcrAccess<2>>(
        acc: &A,
        mbr: &Rect<2>,
        cat: &UCatalog,
        rq: &Rect<2>,
        pq: f64,
    ) -> FilterOutcome {
        filter_object_planned(acc, mbr, &PreparedQuery::new(cat, rq, pq))
    }

    /// Uniform square object on [0,10]²: PCR faces are analytic
    /// (quantile p at coordinate 10·p), so every rule is hand-checkable.
    fn square() -> (ObjectPdf<2>, PcrSet<2>, UCatalog, Rect<2>) {
        let pdf = ObjectPdf::UniformBox {
            rect: Rect::new([0.0, 0.0], [10.0, 10.0]),
        };
        let cat = UCatalog::try_new(vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5]).unwrap();
        let pcrs = PcrSet::compute(&pdf, &cat);
        let mbr = pdf.mbr();
        (pdf, pcrs, cat, mbr)
    }

    #[test]
    fn rule1_prunes_high_threshold() {
        let (_, pcrs, cat, mbr) = square();
        // pq = 0.8 > 1 - 0.5: rule 1 with pj = smallest >= 0.2 → 0.2.
        // pcr(0.2) = [2,8]². A query that misses part of it prunes.
        let rq = Rect::new([2.5, 0.0], [10.0, 10.0]); // cuts off left strip of pcr(0.2)
        assert_eq!(decide(&pcrs, &mbr, &cat, &rq, 0.8), FilterOutcome::Pruned);
        // Containing pcr(0.2) fully but not the MBR: candidate (0.8 can't
        // validate because rq misses 0.2 mass on the left... check rules).
        let rq2 = Rect::new([1.0, -1.0], [11.0, 11.0]);
        // rq2 covers the part of MBR right of pcr_1-(0.2)=2 ⇒ P >= 0.8:
        // rule 4 validates.
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq2, 0.8),
            FilterOutcome::Validated
        );
    }

    #[test]
    fn rule2_prunes_low_threshold_disjoint_pcr() {
        let (_, pcrs, cat, mbr) = square();
        // pq = 0.3 <= 0.5: rule 2 with pj = 0.3, pcr(0.3) = [3,7]².
        // rq strictly right of it ⇒ at most 0.3 mass ⇒ pruned.
        let rq = Rect::new([7.5, 0.0], [12.0, 10.0]);
        assert_eq!(decide(&pcrs, &mbr, &cat, &rq, 0.3), FilterOutcome::Pruned);
        // rq reaching into pcr(0.3): not prunable by rule 2 — and since it
        // covers the whole right side beyond pcr faces, validation rules
        // get their chance (rule 5: covers part of MBR right of
        // pcr_1+(0.3)=7 needs rq ⊇ [7,10]×[0,10]: yes!).
        let rq2 = Rect::new([6.5, -0.5], [12.0, 10.5]);
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq2, 0.3),
            FilterOutcome::Validated
        );
    }

    #[test]
    fn rule3_validates_middle_slab() {
        let (_, pcrs, cat, mbr) = square();
        // pq = 0.6: (1-pq)/2 = 0.2 ⇒ pj = 0.2, slab [2,8] on x (full y).
        let rq = Rect::new([1.9, -1.0], [8.1, 11.0]);
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq, 0.6),
            FilterOutcome::Validated
        );
        // Same query but y not fully covered: no validation possible; the
        // true probability is 0.6·1.0 boundary-ish ⇒ candidate.
        let rq2 = Rect::new([1.9, 0.5], [8.1, 11.0]);
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq2, 0.6),
            FilterOutcome::Candidate
        );
    }

    #[test]
    fn rule5_validates_side_strip() {
        let (_, pcrs, cat, mbr) = square();
        // pq = 0.1: pj = smallest >= 0.1 = 0.1; pcr(0.1) faces at 1 and 9.
        // Covering MBR left of pcr_1-(0.1)=1 guarantees P >= 0.1.
        let rq = Rect::new([-2.0, -2.0], [1.0, 12.0]);
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq, 0.1),
            FilterOutcome::Validated
        );
    }

    #[test]
    fn thin_interior_query_is_candidate() {
        let (_, pcrs, cat, mbr) = square();
        // A strip through the middle: P = 0.2; pq = 0.15 can neither be
        // pruned (intersects pcr(0.1)) nor validated (no slab coverage in
        // y, no side strip).
        let rq = Rect::new([4.0, 4.0], [6.0, 6.0]);
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq, 0.15),
            FilterOutcome::Candidate
        );
    }

    #[test]
    fn fully_containing_query_validates_for_pq_one() {
        let (_, pcrs, cat, mbr) = square();
        let rq = Rect::new([-1.0, -1.0], [11.0, 11.0]);
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq, 1.0),
            FilterOutcome::Validated
        );
    }

    #[test]
    fn disjoint_query_pruned_at_any_threshold() {
        let (_, pcrs, cat, mbr) = square();
        let rq = Rect::new([20.0, 20.0], [30.0, 30.0]);
        for pq in [0.05, 0.3, 0.5, 0.7, 0.95] {
            assert_eq!(
                decide(&pcrs, &mbr, &cat, &rq, pq),
                FilterOutcome::Pruned,
                "pq={pq}"
            );
        }
    }

    #[test]
    fn gate_carries_prob_eps_slack_at_one_minus_pm() {
        // Catalog with p_m = 0.4: the rule-1/rule-2 gate sits at
        // p_q = 1 − p_m = 0.6. A query that intersects pcr(0.4) without
        // containing it is prunable by rule 1 only — rule 2 (disjointness)
        // cannot fire. Before the gate carried the PROB_EPS slack,
        // p_q at or one ulp below the float value of `1.0 - 0.4` silently
        // fell into the weaker rule-2 branch and leaked a candidate.
        let pdf = ObjectPdf::UniformBox {
            rect: Rect::new([0.0, 0.0], [10.0, 10.0]),
        };
        let cat = UCatalog::try_new(vec![0.0, 0.2, 0.4]).unwrap();
        let pcrs = PcrSet::compute(&pdf, &cat);
        let mbr = pdf.mbr();
        // pcr(0.4) = [4,6]²; rq cuts into it from the right but leaves its
        // left strip uncovered ⇒ at least 0.4 mass escapes ⇒ P <= 0.6 - ε'
        // (true P = 0.55 here).
        let rq = Rect::new([4.5, -1.0], [12.0, 11.0]);
        let gate = 1.0 - cat.last();
        for pq in [
            f64::from_bits(gate.to_bits() - 1), // one ulp below
            gate,
            f64::from_bits(gate.to_bits() + 1), // one ulp above
        ] {
            assert_eq!(
                decide(&pcrs, &mbr, &cat, &rq, pq),
                FilterOutcome::Pruned,
                "pq = {pq:.17} around 1 - p_m must take rule 1 and prune"
            );
        }
        // Well below the gate the query is a legitimate candidate for the
        // rule-2 branch (P = 0.55 >= pq is plausible): the slack must not
        // drag far-away thresholds into rule 1.
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq, 0.5),
            FilterOutcome::Candidate
        );
    }

    #[test]
    fn prob_bounds_analytic_square() {
        let (_, pcrs, cat, mbr) = square();
        let bounds = |rq| prob_bounds_planned(&pcrs, &mbr, &PreparedQuery::ranking(&cat, rq));
        // Fully containing: pinned to 1 on both sides.
        let all = Rect::new([-1.0, -1.0], [11.0, 11.0]);
        assert_eq!(bounds(&all), (1.0, 1.0));
        // Disjoint: pinned to 0.
        let none = Rect::new([20.0, 20.0], [30.0, 30.0]);
        assert_eq!(bounds(&none), (0.0, 0.0));
        // Left half (true P = 0.5): catalog resolution brackets it.
        let half = Rect::new([-1.0, -1.0], [5.0, 11.0]);
        let (lo, hi) = bounds(&half);
        assert!(lo <= 0.5 + 1e-9 && 0.5 <= hi + 1e-9, "({lo}, {hi})");
        assert!((lo - 0.5).abs() < 1e-6, "exact PCR face at 5 ⇒ tight lower");
        // Interior slab [4,6] × full (true P = 0.2): the two-sided cut
        // bound is exact at catalog faces.
        let slab = Rect::new([4.0, -1.0], [6.0, 11.0]);
        let (lo, hi) = bounds(&slab);
        assert!((lo - 0.2).abs() < 1e-6, "lo = {lo}");
        assert!(lo <= 0.2 + 1e-9 && 0.2 <= hi + 1e-9);
        // Small corner box (true P = 0.01): the beyond-a-face rule caps
        // the upper bound at a small catalog value.
        let corner = Rect::new([0.0, 0.0], [1.0, 1.0]);
        let (lo, hi) = bounds(&corner);
        assert_eq!(lo, 0.0);
        assert!(hi <= 0.2 + 1e-9, "hi = {hi}");
    }

    #[test]
    fn prob_bounds_bracket_reference_probability() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use uncertain_geom::Point;

        let mut rng = SmallRng::seed_from_u64(2024);
        let cat = UCatalog::uniform(8);
        for case in 0..60 {
            let pdf: ObjectPdf<2> = ObjectPdf::UniformBall {
                center: Point::new([rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)]),
                radius: rng.gen_range(5.0..40.0),
            };
            let pcrs = PcrSet::compute(&pdf, &cat);
            let mbr = pdf.mbr();
            let min = [rng.gen_range(-90.0..50.0), rng.gen_range(-90.0..50.0)];
            let rq = Rect::new(
                min,
                [
                    min[0] + rng.gen_range(5.0..120.0),
                    min[1] + rng.gen_range(5.0..120.0),
                ],
            );
            let plan = PreparedQuery::ranking(&cat, &rq);
            let (lo, hi) = prob_bounds_planned(&pcrs, &mbr, &plan);
            assert!(lo <= hi + 1e-12, "case {case}: inverted bounds");
            let p = uncertain_pdf::appearance_reference(&pdf, &rq, 1e-9);
            assert!(
                lo - 1e-6 <= p && p <= hi + 1e-6,
                "case {case}: P = {p} outside [{lo}, {hi}] (rq = {rq:?})"
            );
            // The bounds must cohere with the threshold filter: a pruned
            // object can never have lo >= pq, a validated one never hi < pq.
            for pq in [0.15, 0.5, 0.85] {
                match decide(&pcrs, &mbr, &cat, &rq, pq) {
                    FilterOutcome::Pruned => {
                        assert!(lo < pq + 1e-9, "case {case}: pruned but lo = {lo} >= {pq}")
                    }
                    FilterOutcome::Validated => {
                        assert!(
                            hi >= pq - 1e-9,
                            "case {case}: validated but hi = {hi} < {pq}"
                        )
                    }
                    FilterOutcome::Candidate => {}
                }
            }
        }
    }

    #[test]
    fn prob_bounds_through_cfb_view_stay_sound() {
        use crate::cfb::{fit_cfb_pair, CfbView};
        use uncertain_geom::Point;

        let cat = UCatalog::uniform(8);
        let pdf: ObjectPdf<2> = ObjectPdf::UniformBall {
            center: Point::new([50.0, 50.0]),
            radius: 20.0,
        };
        let pcrs = PcrSet::compute(&pdf, &cat);
        let pair = fit_cfb_pair(&pcrs, &cat);
        let view = CfbView {
            pair: &pair,
            catalog: &cat,
        };
        let mbr = pdf.mbr();
        for rq in [
            Rect::new([20.0, 20.0], [80.0, 80.0]),
            Rect::new([20.0, 20.0], [50.0, 80.0]),
            Rect::new([45.0, 20.0], [55.0, 80.0]),
            Rect::new([62.0, 40.0], [90.0, 60.0]),
        ] {
            let p = uncertain_pdf::appearance_reference(&pdf, &rq, 1e-9);
            let plan = PreparedQuery::ranking(&cat, &rq);
            let (lo_cfb, hi_cfb) = prob_bounds_planned(&view, &mbr, &plan);
            let (lo_pcr, hi_pcr) = prob_bounds_planned(&pcrs, &mbr, &plan);
            assert!(lo_cfb - 1e-6 <= p && p <= hi_cfb + 1e-6, "{rq:?}");
            // CFBs are the lossy compression of the PCRs: their bounds can
            // only be (weakly) looser.
            assert!(lo_cfb <= lo_pcr + 1e-9, "{rq:?}");
            assert!(hi_cfb >= hi_pcr - 1e-9, "{rq:?}");
        }
    }

    #[test]
    fn figure3_walkthrough() {
        // Reconstructs the paper's Figure 3 scenarios with a square object
        // (the paper's polygon replaced by an equivalent-marginal box).
        let (_, pcrs, cat, mbr) = square();
        // q1: pq=0.8, rq misses part of pcr(0.2) ⇒ pruned (Rule 1).
        let rq1 = Rect::new([3.0, 1.0], [12.0, 9.0]);
        assert_eq!(decide(&pcrs, &mbr, &cat, &rq1, 0.8), FilterOutcome::Pruned);
        // q2: pq=0.2, rq beyond the right pcr(0.2) face ⇒ pruned (Rule 2).
        let rq2 = Rect::new([8.5, 2.0], [12.0, 8.0]);
        assert_eq!(decide(&pcrs, &mbr, &cat, &rq2, 0.2), FilterOutcome::Pruned);
        // q3: pq=0.6, rq covers the [2,8] x-slab ⇒ validated (Rule 3).
        let rq3 = Rect::new([1.5, -0.5], [8.5, 10.5]);
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq3, 0.6),
            FilterOutcome::Validated
        );
        // q4: pq=0.8, rq covers MBR right of the left pcr(0.2) face
        // ⇒ validated (Rule 4).
        let rq4 = Rect::new([1.5, -0.5], [10.5, 10.5]);
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq4, 0.8),
            FilterOutcome::Validated
        );
        // q5: pq=0.2, rq covers MBR left of the left pcr(0.2) face
        // ⇒ validated (Rule 5).
        let rq5 = Rect::new([-0.5, -0.5], [2.0, 10.5]);
        assert_eq!(
            decide(&pcrs, &mbr, &cat, &rq5, 0.2),
            FilterOutcome::Validated
        );
    }
}
