//! Property-based tests of the paper's core invariants.
//!
//! These are the load-bearing guarantees: if any of them breaks, the index
//! can return wrong answers — so they are fuzzed over random pdfs,
//! catalogs, queries and LP instances rather than hand-picked cases.
//!
//! The sampling is driven by a seeded [`SmallRng`] (the build environment
//! has no `proptest`): every case prints its inputs on failure via the
//! assertion messages, and reruns are fully deterministic.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simplex_lp::LinearProgram;
use utree_repro::data;
use utree_repro::geom::{Point, Rect};
use utree_repro::index::{
    filter_object_planned, fit_cfb_pair, CfbView, FilterOutcome, PcrSet, PreparedQuery, UCatalog,
};
use utree_repro::pdf::{appearance_reference, ObjectPdf};

const CASES: usize = 64;

/// A random uncertain 2D object over the supported pdf models.
fn arb_pdf(rng: &mut SmallRng) -> ObjectPdf<2> {
    match rng.gen_range(0..3usize) {
        0 => ObjectPdf::UniformBall {
            center: Point::new([rng.gen_range(100.0..9_900.0), rng.gen_range(100.0..9_900.0)]),
            radius: rng.gen_range(20.0..400.0),
        },
        1 => {
            let r = rng.gen_range(50.0..400.0);
            ObjectPdf::ConGauBall {
                center: Point::new([rng.gen_range(100.0..9_900.0), rng.gen_range(100.0..9_900.0)]),
                radius: r,
                sigma: r * rng.gen_range(0.3..0.9),
            }
        }
        _ => {
            let x = rng.gen_range(100.0..9_000.0);
            let y = rng.gen_range(100.0..9_000.0);
            ObjectPdf::UniformBox {
                rect: Rect::new(
                    [x, y],
                    [
                        x + rng.gen_range(20.0..600.0),
                        y + rng.gen_range(20.0..600.0),
                    ],
                ),
            }
        }
    }
}

fn arb_catalog(rng: &mut SmallRng) -> UCatalog {
    UCatalog::uniform(rng.gen_range(3..12usize))
}

/// PCRs are nested: pcr(p) shrinks as p grows (Sec 4.1).
#[test]
fn pcrs_are_nested() {
    let mut rng = SmallRng::seed_from_u64(0x9c25_0001);
    for case in 0..CASES {
        let pdf = arb_pdf(&mut rng);
        let cat = arb_catalog(&mut rng);
        let pcrs = PcrSet::compute(&pdf, &cat);
        for j in 1..pcrs.len() {
            let outer = pcrs.rect(j - 1);
            let inner = pcrs.rect(j);
            for i in 0..2 {
                assert!(outer.min[i] <= inner.min[i] + 1e-6, "case {case}: {pdf:?}");
                assert!(outer.max[i] >= inner.max[i] - 1e-6, "case {case}: {pdf:?}");
            }
        }
        // pcr(p1=0) equals the MBR.
        let mbr = pdf.mbr();
        for i in 0..2 {
            assert!(
                (pcrs.rect(0).min[i] - mbr.min[i]).abs() < 1.0,
                "case {case}: {pdf:?}"
            );
            assert!(
                (pcrs.rect(0).max[i] - mbr.max[i]).abs() < 1.0,
                "case {case}: {pdf:?}"
            );
        }
    }
}

/// CFBs bracket the PCRs at every catalog value (Sec 4.3 contract).
#[test]
fn cfbs_bracket_pcrs() {
    let mut rng = SmallRng::seed_from_u64(0x9c25_0002);
    for case in 0..CASES {
        let pdf = arb_pdf(&mut rng);
        let cat = arb_catalog(&mut rng);
        let pcrs = PcrSet::compute(&pdf, &cat);
        let pair = fit_cfb_pair(&pcrs, &cat);
        for (j, &p) in cat.values().iter().enumerate() {
            let out = pair.outer.eval(p);
            let inn = pair.inner.eval(p);
            let pcr = pcrs.rect(j);
            for i in 0..2 {
                assert!(
                    out.min[i] <= pcr.min[i] + 1e-6,
                    "case {case}: outer low face at p={p}"
                );
                assert!(
                    out.max[i] >= pcr.max[i] - 1e-6,
                    "case {case}: outer high face at p={p}"
                );
                assert!(
                    inn.min[i] >= pcr.min[i],
                    "case {case}: inner low face at p={p}"
                );
                assert!(
                    inn.max[i] <= pcr.max[i],
                    "case {case}: inner high face at p={p}"
                );
            }
        }
    }
}

/// Filter soundness: a pruned object's true appearance probability is
/// below the threshold; a validated object's is above (up to numeric
/// slack). This is Observations 2+3 against quadrature ground truth.
#[test]
fn filter_never_lies() {
    let mut rng = SmallRng::seed_from_u64(0x9c25_0003);
    for case in 0..CASES {
        let pdf = arb_pdf(&mut rng);
        let cat = arb_catalog(&mut rng);
        let qx = rng.gen_range(0.0..9_000.0);
        let qy = rng.gen_range(0.0..9_000.0);
        let qs = rng.gen_range(100.0..3_000.0);
        let pq = rng.gen_range(0.02..0.98);
        let rq = Rect::new([qx, qy], [qx + qs, qy + qs]);
        let truth = appearance_reference(&pdf, &rq, 1e-8);
        let mbr = pdf.mbr();
        const SLACK: f64 = 2e-3; // quantile grid + quadrature noise

        // Observation 2 (exact PCRs)…
        let plan = PreparedQuery::new(&cat, &rq, pq);
        let pcrs = PcrSet::compute(&pdf, &cat);
        match filter_object_planned(&pcrs, &mbr, &plan) {
            FilterOutcome::Pruned => assert!(
                truth < pq + SLACK,
                "case {case}: PCR filter pruned an object with P={truth} >= pq={pq}"
            ),
            FilterOutcome::Validated => assert!(
                truth > pq - SLACK,
                "case {case}: PCR filter validated an object with P={truth} < pq={pq}"
            ),
            FilterOutcome::Candidate => {}
        }

        // …and Observation 3 (CFBs) must both be sound.
        let pair = fit_cfb_pair(&pcrs, &cat);
        let view = CfbView {
            pair: &pair,
            catalog: &cat,
        };
        match filter_object_planned(&view, &mbr, &plan) {
            FilterOutcome::Pruned => assert!(
                truth < pq + SLACK,
                "case {case}: CFB filter pruned an object with P={truth} >= pq={pq}"
            ),
            FilterOutcome::Validated => assert!(
                truth > pq - SLACK,
                "case {case}: CFB filter validated an object with P={truth} < pq={pq}"
            ),
            FilterOutcome::Candidate => {}
        }
    }
}

/// The CFB filter never validates below the threshold at `p_q = 0.5`,
/// where the inner box of every catalog ending at 0.5 has crossed faces
/// after inward f32 rounding. A query covering the MBR in y and ending in
/// x between those crossed faces captures (almost exactly) half the mass
/// on either side; validating it would need the one-sided strip to reach
/// an inner face, and each face on its own lies beyond `pcr(0.5)`.
#[test]
fn cfb_filter_validates_nothing_below_one_half() {
    let cat = UCatalog::paper_utree_default();
    let pq = 0.5;
    let objects = data::lb_dataset(20, 0x9c25_0007)
        .into_iter()
        .chain(data::ca_dataset(20, 0x9c25_0008));
    for (k, obj) in objects.enumerate() {
        let pdf = obj.pdf;
        let mbr = pdf.mbr();
        let pcrs = PcrSet::compute(&pdf, &cat);
        let pair = fit_cfb_pair(&pcrs, &cat);
        let view = CfbView {
            pair: &pair,
            catalog: &cat,
        };
        let (lo, hi) = (pair.inner.face_lo(0, pq), pair.inner.face_hi(0, pq));
        let mid = 0.5 * (lo + hi);
        let (y0, y1) = (mbr.min[1] - 1.0, mbr.max[1] + 1.0);
        let below = Rect::new([mbr.min[0] - 1.0, y0], [mid, y1]);
        let above = Rect::new([mid, y0], [mbr.max[0] + 1.0, y1]);
        for rq in [below, above] {
            let plan = PreparedQuery::new(&cat, &rq, pq);
            if filter_object_planned(&view, &mbr, &plan) == FilterOutcome::Validated {
                let truth = appearance_reference(&pdf, &rq, 1e-9);
                assert!(
                    truth >= pq,
                    "object {k}: validated with P = {truth} < p_q over {rq:?} (inner faces {lo}, {hi})"
                );
            }
        }
    }
}

/// CFB filtering is weaker than exact-PCR filtering, never stronger in a
/// contradictory way: if the CFB view *validates*, exact PCRs must not
/// *prune*, and vice versa.
#[test]
fn cfb_and_pcr_filters_are_consistent() {
    let mut rng = SmallRng::seed_from_u64(0x9c25_0004);
    for case in 0..CASES {
        let pdf = arb_pdf(&mut rng);
        let cat = arb_catalog(&mut rng);
        let qx = rng.gen_range(0.0..9_000.0);
        let qy = rng.gen_range(0.0..9_000.0);
        let qs = rng.gen_range(100.0..3_000.0);
        let pq = rng.gen_range(0.02..0.98);
        let rq = Rect::new([qx, qy], [qx + qs, qy + qs]);
        let mbr = pdf.mbr();
        let pcrs = PcrSet::compute(&pdf, &cat);
        let pair = fit_cfb_pair(&pcrs, &cat);
        let view = CfbView {
            pair: &pair,
            catalog: &cat,
        };
        let plan = PreparedQuery::new(&cat, &rq, pq);
        let a = filter_object_planned(&pcrs, &mbr, &plan);
        let b = filter_object_planned(&view, &mbr, &plan);
        assert!(
            !(a == FilterOutcome::Pruned && b == FilterOutcome::Validated),
            "case {case}: PCR pruned but CFB validated ({pdf:?}, rq={rq:?}, pq={pq})"
        );
        assert!(
            !(a == FilterOutcome::Validated && b == FilterOutcome::Pruned),
            "case {case}: PCR validated but CFB pruned ({pdf:?}, rq={rq:?}, pq={pq})"
        );
    }
}

/// Rectangle algebra invariants the R*-tree machinery relies on.
#[test]
fn rect_algebra() {
    let mut rng = SmallRng::seed_from_u64(0x9c25_0005);
    for case in 0..CASES * 4 {
        let ax = rng.gen_range(-100.0..100.0);
        let ay = rng.gen_range(-100.0..100.0);
        let bx = rng.gen_range(-100.0..100.0);
        let by = rng.gen_range(-100.0..100.0);
        let a = Rect::new(
            [ax, ay],
            [ax + rng.gen_range(0.0..50.0), ay + rng.gen_range(0.0..50.0)],
        );
        let b = Rect::new(
            [bx, by],
            [bx + rng.gen_range(0.0..50.0), by + rng.gen_range(0.0..50.0)],
        );
        let u = a.union(&b);
        assert!(u.contains_rect(&a) && u.contains_rect(&b), "case {case}");
        assert!(u.area() + 1e-9 >= a.area().max(b.area()), "case {case}");
        assert!((a.overlap(&b) - b.overlap(&a)).abs() < 1e-9, "case {case}");
        assert!(
            a.overlap(&b) <= a.area().min(b.area()) + 1e-9,
            "case {case}"
        );
        match a.intersection(&b) {
            Some(i) => {
                assert!(a.intersects(&b), "case {case}");
                assert!((i.area() - a.overlap(&b)).abs() < 1e-9, "case {case}");
            }
            None => assert!(!a.intersects(&b), "case {case}"),
        }
    }
}

/// The Simplex solver against brute-force vertex enumeration on random
/// bounded 2-variable programs.
#[test]
fn simplex_matches_vertex_enumeration() {
    let mut rng = SmallRng::seed_from_u64(0x9c25_0006);
    for case in 0..CASES {
        let c0 = rng.gen_range(-5.0..5.0);
        let c1 = rng.gen_range(-5.0..5.0);
        let rows: Vec<(f64, f64, f64)> = (0..rng.gen_range(3..8usize))
            .map(|_| {
                (
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-10.0..10.0),
                )
            })
            .collect();

        // Box-bound the problem so it is always feasible and bounded.
        let mut lp = LinearProgram::maximize(vec![c0, c1]);
        let mut all_rows: Vec<(f64, f64, f64)> = vec![
            (1.0, 0.0, 20.0),
            (-1.0, 0.0, 20.0),
            (0.0, 1.0, 20.0),
            (0.0, -1.0, 20.0),
        ];
        // Keep (0,0) feasible so feasibility is guaranteed.
        all_rows.extend(rows.iter().filter(|(_, _, rhs)| *rhs >= 0.0));
        for (a, b, rhs) in &all_rows {
            lp.less_eq(vec![*a, *b], *rhs);
        }
        let sol = lp.solve();
        assert!(
            sol.is_ok(),
            "case {case}: boxed feasible LP must solve: {sol:?}"
        );
        let sol = sol.unwrap();

        // Vertex enumeration: all pairwise constraint intersections.
        let mut best = f64::NEG_INFINITY;
        let n = all_rows.len();
        let feasible = |x: f64, y: f64| all_rows.iter().all(|(a, b, r)| a * x + b * y <= r + 1e-7);
        for i in 0..n {
            for j in (i + 1)..n {
                let (a1, b1, r1) = all_rows[i];
                let (a2, b2, r2) = all_rows[j];
                let det = a1 * b2 - a2 * b1;
                if det.abs() < 1e-9 {
                    continue;
                }
                let x = (r1 * b2 - r2 * b1) / det;
                let y = (a1 * r2 - a2 * r1) / det;
                if feasible(x, y) {
                    best = best.max(c0 * x + c1 * y);
                }
            }
        }
        if feasible(0.0, 0.0) {
            best = best.max(0.0);
        }
        assert!(
            (sol.objective_value - best).abs() < 1e-5 * (1.0 + best.abs()),
            "case {case}: simplex {} vs enumeration {best}",
            sol.objective_value
        );
    }
}
