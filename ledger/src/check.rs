//! Answer checking, always outside the timed region.
//!
//! Range answers are held to the paper's contract against *exact*
//! probabilities ([`appearance_reference`]): the filter never lies, and
//! what refinement decides may be wrong only within the estimator's
//! stated error. Top-k answers are compared with the refine-everything
//! oracle ([`SeqScan`]) under the same seed.

use std::collections::HashMap;
use uncertain_geom::Rect;
use uncertain_pdf::{appearance_reference, UncertainObject};
use utree::{Provenance, Query, QueryOutcome, RankOutcome, RankQuery, Refine, SeqScan};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Quadrature tolerance of the ground truth: below the slack a validated
/// match gets, and as loose as that allows — a 3-D ball costs tens of
/// milliseconds at 1e-6.
const REFERENCE_TOL: f64 = 5e-5;
/// A validated match may fall short of `p_q` only by quadrature and f32
/// page-rounding noise.
const VALIDATED_SLACK: f64 = 2e-4;
/// Standard errors a refined decision may be off by. The Monte-Carlo
/// estimate of a probability has standard error at most √(0.25 / n₁); six
/// of them keep a sound index from ever failing the check by chance.
const REFINED_SIGMAS: f64 = 6.0;

/// FNV-1a over a sequence of ids, continuing from `h`.
pub fn fnv_ids(mut h: u64, ids: impl IntoIterator<Item = u64>) -> u64 {
    for id in ids {
        for byte in id.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// FNV-1a of one answer's ids, in answer order.
pub fn answer_hash(ids: impl IntoIterator<Item = u64>) -> u64 {
    fnv_ids(FNV_OFFSET, ids)
}

/// Folds per-operation hashes into the run's `answers_fnv`.
pub fn fold_hashes(hashes: &[u64]) -> u64 {
    fnv_ids(FNV_OFFSET, hashes.iter().copied())
}

/// What one oracle comparison found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Object decisions (or ranked positions) compared with the oracle.
    pub checked: u64,
    /// Decisions the oracle contradicts.
    pub violations: u64,
}

impl std::ops::AddAssign for Verdict {
    fn add_assign(&mut self, other: Self) {
        self.checked += other.checked;
        self.violations += other.violations;
    }
}

fn refined_slack(refine: Refine) -> f64 {
    match refine {
        Refine::MonteCarlo { n1, .. } => REFINED_SIGMAS * (0.25 / n1 as f64).sqrt(),
        Refine::Reference { tol } => tol.max(VALIDATED_SLACK),
    }
}

/// Exact appearance probability of every object of `objs` whose MBR
/// meets `region`: the only objects an answer may name.
pub fn ground_truth<'a, const D: usize>(
    objs: impl IntoIterator<Item = &'a UncertainObject<D>>,
    region: &Rect<D>,
) -> Vec<(u64, f64)> {
    objs.into_iter()
        .filter(|o| o.mbr().intersects(region))
        .map(|o| (o.id, appearance_reference(&o.pdf, region, REFERENCE_TOL)))
        .collect()
}

/// Checks a range answer against the [`ground_truth`] of its region.
pub fn check_range<const D: usize>(
    truth: &[(u64, f64)],
    query: &Query<D>,
    outcome: &QueryOutcome,
) -> Verdict {
    let pq = query.threshold();
    let slack = refined_slack(query.refine_mode());
    let mut reported: HashMap<u64, Provenance> = outcome
        .matches
        .iter()
        .map(|m| (m.id, m.provenance))
        .collect();
    let mut verdict = Verdict::default();
    if reported.len() != outcome.matches.len() {
        verdict.violations += 1; // an id reported twice
    }
    for &(id, p) in truth {
        let sound = match reported.remove(&id) {
            Some(Provenance::Validated) => p >= pq - VALIDATED_SLACK,
            Some(Provenance::Refined { .. }) => p >= pq - slack,
            None => p <= pq + slack,
        };
        verdict.checked += 1;
        verdict.violations += u64::from(!sound);
    }
    // Whatever is left was reported although it cannot meet the region.
    verdict.checked += reported.len() as u64;
    verdict.violations += reported.len() as u64;
    verdict
}

/// Checks a top-k answer against [`SeqScan::rank_topk`] over the objects
/// whose MBR meets the region (nothing else can rank): refinement is
/// seeded per object, so ids and probabilities must agree exactly.
pub fn check_topk<'a, const D: usize>(
    objs: impl IntoIterator<Item = &'a UncertainObject<D>>,
    query: &RankQuery<D>,
    outcome: &RankOutcome,
) -> Verdict {
    // The oracle refines everything; its filter payload is never
    // consulted, so the smallest legal catalog keeps building it cheap.
    let mut oracle = SeqScan::<D>::builder()
        .uniform_catalog(2)
        .build()
        .expect("a two-value catalog is valid");
    for obj in objs {
        if obj.mbr().intersects(query.region()) {
            oracle.insert(obj);
        }
    }
    let want = oracle.rank_topk(query);
    let pairs = |o: &RankOutcome| -> Vec<(u64, u64)> {
        o.matches.iter().map(|m| (m.id, m.p.to_bits())).collect()
    };
    Verdict {
        checked: want.matches.len().max(outcome.matches.len()).max(1) as u64,
        violations: u64::from(pairs(&want) != pairs(outcome)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncertain_geom::Point;
    use uncertain_pdf::ObjectPdf;
    use utree::{Match, QueryStats, UTree};

    fn ball(id: u64, x: f64, y: f64) -> UncertainObject<2> {
        UncertainObject::new(
            id,
            ObjectPdf::UniformBall {
                center: Point::new([x, y]),
                radius: 50.0,
            },
        )
    }

    fn fixture() -> (Vec<UncertainObject<2>>, UTree<2>) {
        let objs: Vec<_> = (0..60u64)
            .map(|i| {
                ball(
                    i,
                    100.0 + 35.0 * (i % 10) as f64,
                    100.0 + 40.0 * (i / 10) as f64,
                )
            })
            .collect();
        let mut tree = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
        tree.bulk_load(&objs);
        (objs, tree)
    }

    #[test]
    fn sound_answers_pass_and_lies_are_caught() {
        let (objs, tree) = fixture();
        let q = Query::range(Rect::new([90.0, 90.0], [260.0, 230.0]))
            .threshold(0.6)
            .refine(Refine::monte_carlo(4_000, 5))
            .build()
            .unwrap();
        let good = tree.execute(&q);
        let truth = ground_truth(&objs, q.region());
        let v = check_range(&truth, &q, &good);
        assert!(v.checked > 10 && v.violations == 0, "{v:?}");

        // Dropping a certain match is a false dismissal.
        let mut dismissed = good.clone();
        let whole = truth
            .iter()
            .find(|(_, p)| *p > 0.99)
            .expect("the region contains whole objects")
            .0;
        let at = dismissed
            .matches
            .iter()
            .position(|m| m.id == whole)
            .unwrap();
        dismissed.matches.remove(at);
        assert_eq!(check_range(&truth, &q, &dismissed).violations, 1);

        // Reporting an object far outside the region is a false positive.
        let mut invented = good;
        invented.matches.push(Match {
            id: 59,
            provenance: Provenance::Validated,
        });
        assert_eq!(check_range(&truth, &q, &invented).violations, 1);
        let empty = QueryOutcome {
            matches: vec![],
            stats: QueryStats::default(),
        };
        assert!(check_range(&truth, &q, &empty).violations > 0);
    }

    #[test]
    fn topk_agrees_with_the_scan_and_notices_a_swap() {
        let (objs, tree) = fixture();
        let q = Query::range(Rect::new([120.0, 120.0], [300.0, 260.0]))
            .top(5)
            .refine(Refine::monte_carlo(2_000, 11))
            .build()
            .unwrap();
        let mut out = tree.rank_topk(&q);
        assert_eq!(check_topk(&objs, &q, &out).violations, 0);
        out.matches.swap(0, 4);
        assert_eq!(check_topk(&objs, &q, &out).violations, 1);
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        assert_eq!(answer_hash([]), FNV_OFFSET);
        assert_ne!(answer_hash([1, 2]), answer_hash([2, 1]));
        assert_eq!(
            fold_hashes(&[answer_hash([7])]),
            fold_hashes(&[answer_hash([7])])
        );
    }
}
