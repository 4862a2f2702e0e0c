//! The stopping rule of [`MonteCarlo::decide_with`] against exact
//! probabilities ([`appearance_reference`]): a decision that stops early
//! must be *right*, whatever the pdf, and one that spends the whole budget
//! must be as accurate as a plain n₁-sample estimate.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_geom::{Point, Rect};
use uncertain_pdf::{
    appearance_reference, HistogramPdf, MonteCarlo, ObjectPdf, PreparedPdf, RefineScratch, CHUNK,
};

const N1: usize = 4_000;

/// One object of each pdf family around `c`, the histogram with a band of
/// zero-mass cells (samples there weigh nothing).
fn objects(c: Point<2>, r: f64) -> [ObjectPdf<2>; 4] {
    let [x, y] = c.coords;
    let support = Rect::new([x - r, y - 0.7 * r], [x + r, y + 0.7 * r]);
    [
        ObjectPdf::UniformBox { rect: support },
        ObjectPdf::Histogram(HistogramPdf::from_fn(support, [6, 5], |p| {
            let dx = p.coords[0] - x;
            if dx.abs() < r / 6.0 {
                0.0
            } else {
                1.0 + (dx / r + 1.0) * 4.0
            }
        })),
        ObjectPdf::UniformBall {
            center: c,
            radius: r,
        },
        ObjectPdf::ConGauBall {
            center: c,
            radius: r,
            sigma: r / 2.0,
        },
    ]
}

#[test]
fn early_decisions_agree_with_exact_probabilities() {
    let mut rng = SmallRng::seed_from_u64(0xDEC1DE);
    let mut scratch = RefineScratch::new();
    let mc = MonteCarlo::new(N1);
    let cap_slack = 6.0 * (0.25 / N1 as f64).sqrt();
    let (mut early, mut capped) = (0u32, 0u32);
    for case in 0..90u64 {
        let c = Point::new([rng.gen_range(100.0..900.0), rng.gen_range(100.0..900.0)]);
        let r = rng.gen_range(20.0..60.0);
        // A query rect with one corner inside the support, so P covers (0, 1).
        let corner = [
            c.coords[0] + rng.gen_range(-0.8..0.8) * r,
            c.coords[1] + rng.gen_range(-0.5..0.5) * r,
        ];
        let rq = Rect::new(corner, [corner[0] + 3.0 * r, corner[1] + 3.0 * r]);
        for (kind, pdf) in objects(c, r).iter().enumerate() {
            let exact = appearance_reference(pdf, &rq, 1e-7);
            let prepared = PreparedPdf::new(pdf);
            for step in 1..=19 {
                let p_q = step as f64 * 0.05;
                for seed in 0..4 {
                    let mut stream = SmallRng::seed_from_u64(case * 1_000 + seed);
                    let (p, m) = mc.decide_with(&prepared, &rq, p_q, &mut stream, &mut scratch);
                    let at = format!("case {case} kind {kind} p_q {p_q:.2} seed {seed}: p̂ {p} from {m} samples, exact {exact}");
                    if m < N1 {
                        early += 1;
                        assert_eq!(p >= p_q, exact >= p_q, "wrong early decision, {at}");
                    } else {
                        capped += 1;
                        assert!((p - exact).abs() <= cap_slack, "capped estimate off, {at}");
                    }
                }
            }
        }
    }
    assert!(early >= 20_000, "only {early} early decisions");
    assert!(capped > 0, "no decision spent the budget");
}

/// `(p̂, samples)` of a decision, checked to carry the bits of `estimate_with`
/// for the same budget when it did not stop early.
fn decide(pdf: &ObjectPdf<2>, rq: &Rect<2>, p_q: f64, n1: usize) -> (f64, usize) {
    let prepared = PreparedPdf::new(pdf);
    let mut scratch = RefineScratch::new();
    let mc = MonteCarlo::new(n1);
    let got = mc.decide_with(
        &prepared,
        rq,
        p_q,
        &mut SmallRng::seed_from_u64(11),
        &mut scratch,
    );
    assert_eq!(scratch.samples(), got.1 as u64);
    if got.1 == n1 {
        let full = mc.estimate_with(
            &prepared,
            rq,
            &mut SmallRng::seed_from_u64(11),
            &mut scratch,
        );
        assert_eq!(got.0.to_bits(), full.to_bits());
    }
    got
}

#[test]
fn the_rule_never_fires_where_it_has_nothing_to_stand_on() {
    let disk = ObjectPdf::UniformBall {
        center: Point::new([0.0, 0.0]),
        radius: 1.0,
    };
    let sliver = Rect::new([0.9, -2.0], [2.0, 2.0]); // P ≈ 0.02
    let most = Rect::new([-0.9, -2.0], [2.0, 2.0]); // P ≈ 0.98

    // Far from a threshold of 0.5 the rule fires within a few chunks …
    for rq in [&sliver, &most] {
        let (_, m) = decide(&disk, rq, 0.5, 10_000);
        assert!(m < 10 * CHUNK, "stopped after {m}");
    }
    // … but p_q = 0 and p_q = 1 separate nothing: every estimate is ≥ 0,
    // and only an estimate of exactly 1 is ≥ 1.
    for (rq, p_q) in [(&sliver, 0.0), (&most, 1.0), (&sliver, 1.0), (&most, 0.0)] {
        assert_eq!(decide(&disk, rq, p_q, 10_000).1, 10_000, "p_q = {p_q}");
    }
    // A budget of one chunk has no boundary to stop at; one sample more
    // and it has.
    assert_eq!(decide(&disk, &sliver, 0.5, CHUNK).1, CHUNK);
    assert_eq!(decide(&disk, &sliver, 0.5, CHUNK + 1).1, CHUNK);

    // A zero-area box weighs every sample ∞: no scale to bound the mean
    // with, so the whole budget is drawn.
    let flat = ObjectPdf::UniformBox {
        rect: Rect::new([10.0, 5.0], [20.0, 5.0]),
    };
    let cut = Rect::new([0.0, 0.0], [11.0, 6.0]);
    assert_eq!(decide(&flat, &cut, 0.5, 1_000).1, 1_000);
}

#[test]
fn short_circuits_decide_without_sampling() {
    let disk = ObjectPdf::UniformBall {
        center: Point::new([0.0, 0.0]),
        radius: 1.0,
    };
    for p_q in [0.0, 0.3, 1.0] {
        let disjoint = Rect::new([5.0, 5.0], [6.0, 6.0]);
        assert_eq!(decide(&disk, &disjoint, p_q, 10_000), (0.0, 0));
        let containing = Rect::new([-2.0, -2.0], [2.0, 2.0]);
        assert_eq!(decide(&disk, &containing, p_q, 10_000), (1.0, 0));
    }
}
