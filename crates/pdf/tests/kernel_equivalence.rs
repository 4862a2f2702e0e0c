//! The kernel-vs-scalar oracle contract: [`MonteCarlo::estimate_with`]
//! (the fused per-variant loops over a [`PreparedPdf`]) must return **byte-identical**
//! probabilities to the scalar [`MonteCarlo::estimate`] under the same seed —
//! across every pdf variant, dimensionality, seed, and chunk-boundary sample
//! count. Any drift here means the kernel changed the RNG consumption order
//! or the floating-point expression shapes, which would silently change query
//! answers everywhere.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_geom::{Point, Rect};
use uncertain_pdf::{HistogramPdf, MonteCarlo, ObjectPdf, PreparedPdf, RefineScratch, CHUNK};

/// n₁ values straddling every chunk boundary the driver can hit.
const SAMPLE_COUNTS: [usize; 5] = [1, CHUNK - 1, CHUNK, CHUNK + 1, 10_000];
const SEEDS: [u64; 3] = [0, 0xC0FFEE, 0x5EED_5EED_5EED_5EED];

fn assert_equivalent<const D: usize>(pdf: &ObjectPdf<D>, rq: &Rect<D>, label: &str) {
    let prepared = PreparedPdf::new(pdf);
    let mut scratch = RefineScratch::new();
    for n1 in SAMPLE_COUNTS {
        let mc = MonteCarlo::new(n1);
        for seed in SEEDS {
            let scalar = mc.estimate(pdf, rq, &mut SmallRng::seed_from_u64(seed));
            let kernel = mc.estimate_with(
                &prepared,
                rq,
                &mut SmallRng::seed_from_u64(seed),
                &mut scratch,
            );
            assert_eq!(
                scalar.to_bits(),
                kernel.to_bits(),
                "{label}: kernel {kernel} != scalar {scalar} at n1={n1} seed={seed:#x}"
            );
        }
    }
}

/// Query rects exercising every estimator path for a support centered at
/// `c` with half-extent `r`: partial overlap, sliver, disjoint, containing,
/// and a degenerate (zero-thickness) slab.
fn query_rects<const D: usize>(c: f64, r: f64) -> Vec<Rect<D>> {
    let full = |lo: f64, hi: f64| Rect::new([lo; D], [hi; D]);
    let mut rects = vec![
        full(c - 0.4 * r, c + 0.9 * r),
        full(c + 0.7 * r, c + 2.0 * r),
        full(c + 3.0 * r, c + 4.0 * r),
        full(c - 2.0 * r, c + 2.0 * r),
        full(c + 0.1 * r, c + 0.1 * r),
    ];
    // An asymmetric rect (different bounds per dim) to catch any
    // per-dimension indexing mistake.
    let mut min = [0.0; D];
    let mut max = [0.0; D];
    for d in 0..D {
        min[d] = c - r * (0.2 + 0.3 * d as f64);
        max[d] = c + r * (0.8 - 0.2 * d as f64);
    }
    rects.push(Rect::new(min, max));
    rects
}

fn ball<const D: usize>(c: f64, r: f64) -> ObjectPdf<D> {
    ObjectPdf::UniformBall {
        center: Point::new([c; D]),
        radius: r,
    }
}

fn congau<const D: usize>(c: f64, r: f64) -> ObjectPdf<D> {
    ObjectPdf::ConGauBall {
        center: Point::new([c; D]),
        radius: r,
        sigma: r / 2.0,
    }
}

fn boxed<const D: usize>(c: f64, r: f64) -> ObjectPdf<D> {
    let mut min = [0.0; D];
    let mut max = [0.0; D];
    for d in 0..D {
        min[d] = c - r * (1.0 + 0.1 * d as f64);
        max[d] = c + r * (1.0 - 0.1 * d as f64);
    }
    ObjectPdf::UniformBox {
        rect: Rect::new(min, max),
    }
}

fn histogram<const D: usize>(c: f64, r: f64) -> ObjectPdf<D> {
    let rect = Rect::new([c - r; D], [c + r; D]);
    ObjectPdf::Histogram(HistogramPdf::from_fn(rect, [4; D], |p| {
        1.0 + p.coords.iter().sum::<f64>().abs()
    }))
}

fn check_variants<const D: usize>() {
    let (c, r) = (100.0, 25.0);
    for rq in query_rects::<D>(c, r) {
        assert_equivalent(&ball::<D>(c, r), &rq, "uniform-ball");
        assert_equivalent(&congau::<D>(c, r), &rq, "congau-ball");
        assert_equivalent(&boxed::<D>(c, r), &rq, "uniform-box");
        assert_equivalent(&histogram::<D>(c, r), &rq, "histogram");
    }
}

#[test]
fn kernel_matches_scalar_1d() {
    check_variants::<1>();
}

#[test]
fn kernel_matches_scalar_2d() {
    check_variants::<2>();
}

#[test]
fn kernel_matches_scalar_3d() {
    check_variants::<3>();
}

/// A box with a degenerate dimension draws no RNG for that dimension in the
/// scalar sampler; the kernel must consume the stream identically.
#[test]
fn kernel_matches_scalar_on_degenerate_box_dim() {
    let pdf: ObjectPdf<2> = ObjectPdf::UniformBox {
        rect: Rect::new([10.0, 5.0], [20.0, 5.0]),
    };
    for rq in [
        Rect::new([12.0, 4.0], [18.0, 6.0]),
        Rect::new([12.0, 5.0], [18.0, 5.0]),
        Rect::new([0.0, 0.0], [14.0, 5.0]),
    ] {
        assert_equivalent(&pdf, &rq, "degenerate-box");
    }
}

/// Scratch reuse across heterogeneous candidates (different variants and
/// query rects back-to-back, as a real refinement pass does) must not leak
/// state between estimates.
#[test]
fn scratch_reuse_is_stateless_across_candidates() {
    let mc = MonteCarlo::new(CHUNK + 7);
    let pdfs: Vec<ObjectPdf<2>> = vec![
        ball::<2>(0.0, 1.0),
        congau::<2>(3.0, 2.0),
        boxed::<2>(-5.0, 1.5),
        histogram::<2>(10.0, 4.0),
    ];
    let rq = Rect::new([-6.0, -6.0], [11.0, 2.0]);
    let mut scratch = RefineScratch::new();
    for round in 0..3 {
        for pdf in &pdfs {
            let scalar = mc.estimate(pdf, &rq, &mut SmallRng::seed_from_u64(round));
            let prepared = PreparedPdf::new(pdf);
            let kernel = mc.estimate_with(
                &prepared,
                &rq,
                &mut SmallRng::seed_from_u64(round),
                &mut scratch,
            );
            assert_eq!(scalar.to_bits(), kernel.to_bits(), "round {round}");
        }
    }
    // The ball is contained by rq and the histogram is disjoint from it —
    // both short-circuit without sampling — so only the congau and box
    // candidates charge the counter.
    assert_eq!(scratch.samples(), 3 * 2 * (CHUNK as u64 + 7));
}

/// [`MonteCarlo::decide_with`] is the same loop with a stopping rule: a
/// decision that rests on `m` samples carries the bits of an `m`-sample
/// [`MonteCarlo::estimate_with`] under the same seed, and one that cannot
/// stop (`p_q` 0 or 1) carries the full-`n1` bits. Returns how many
/// decisions stopped early.
fn assert_decision_is_a_prefix<const D: usize>(
    pdf: &ObjectPdf<D>,
    rq: &Rect<D>,
    label: &str,
) -> usize {
    let prepared = PreparedPdf::new(pdf);
    let mut scratch = RefineScratch::new();
    let mut early = 0;
    for n1 in SAMPLE_COUNTS {
        let mc = MonteCarlo::new(n1);
        for seed in SEEDS {
            let full = mc.estimate_with(
                &prepared,
                rq,
                &mut SmallRng::seed_from_u64(seed),
                &mut scratch,
            );
            for p_q in [0.0, 0.05, 0.5, 0.95, 1.0] {
                let before = scratch.samples();
                let (p, m) = mc.decide_with(
                    &prepared,
                    rq,
                    p_q,
                    &mut SmallRng::seed_from_u64(seed),
                    &mut scratch,
                );
                let at = format!("{label}: n1={n1} seed={seed:#x} p_q={p_q} m={m}");
                assert_eq!(scratch.samples() - before, m as u64, "{at}");
                assert!(m <= n1 && (m == n1 || m % CHUNK == 0), "{at}");
                if p_q == 0.0 || p_q == 1.0 || n1 <= CHUNK {
                    assert!(m == n1 || m == 0, "{at}: stopped early");
                }
                let want = if m == n1 || m == 0 {
                    full
                } else {
                    early += 1;
                    MonteCarlo::new(m).estimate_with(
                        &prepared,
                        rq,
                        &mut SmallRng::seed_from_u64(seed),
                        &mut scratch,
                    )
                };
                assert_eq!(p.to_bits(), want.to_bits(), "{at}");
            }
        }
    }
    early
}

fn check_decisions<const D: usize>() {
    let (c, r) = (100.0, 25.0);
    let mut early = 0;
    for rq in query_rects::<D>(c, r) {
        early += assert_decision_is_a_prefix(&ball::<D>(c, r), &rq, "uniform-ball");
        early += assert_decision_is_a_prefix(&congau::<D>(c, r), &rq, "congau-ball");
        early += assert_decision_is_a_prefix(&boxed::<D>(c, r), &rq, "uniform-box");
        early += assert_decision_is_a_prefix(&histogram::<D>(c, r), &rq, "histogram");
    }
    assert!(early > 0, "no decision stopped early: the rule never fired");
}

#[test]
fn decision_is_a_prefix_of_the_estimate_1d() {
    check_decisions::<1>();
}

#[test]
fn decision_is_a_prefix_of_the_estimate_2d() {
    check_decisions::<2>();
}

#[test]
fn decision_is_a_prefix_of_the_estimate_3d() {
    check_decisions::<3>();
}

/// One run of the shared-RNG sequence at dimensionality `D`: every variant
/// (and a box with a degenerate dimension) against every query rect, at
/// every n₁ in `n1s`, as an estimate and then decisions at three `p_q`,
/// all drawn from **one** RNG on each path. The kernel path calls
/// [`MonteCarlo::estimate_with`] / [`MonteCarlo::decide_with`]; the
/// scalar path calls [`MonteCarlo::estimate`] with the kernel decision's
/// drawn count as its n₁. Asserts equal bits per result, the drawn count
/// charged to the scratch, and equal RNG state afterwards; folds the
/// scalar path's bits and counts into `fnv`.
fn shared_rng_sequence<const D: usize>(n1s: &[usize], fnv: &mut u64) {
    let (c, r) = (100.0, 25.0);
    let mut degenerate = boxed::<D>(c, r);
    if let ObjectPdf::UniformBox { rect } = &mut degenerate {
        rect.max[0] = rect.min[0];
    }
    let pdfs = [
        ball::<D>(c, r),
        congau::<D>(c, r),
        boxed::<D>(c, r),
        histogram::<D>(c, r),
        degenerate,
    ];
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            *fnv = (*fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let mut kernel_rng = SmallRng::seed_from_u64(0x5A4E_D000 + D as u64);
    let mut scalar_rng = SmallRng::seed_from_u64(0x5A4E_D000 + D as u64);
    let mut scratch = RefineScratch::new();
    for &n1 in n1s {
        let mc = MonteCarlo::new(n1);
        for pdf in &pdfs {
            let prepared = PreparedPdf::new(pdf);
            for rq in query_rects::<D>(c, r) {
                let at = format!("D={D} n1={n1} pdf={pdf:?} rq={rq:?}");
                let kernel = mc.estimate_with(&prepared, &rq, &mut kernel_rng, &mut scratch);
                let scalar = mc.estimate(pdf, &rq, &mut scalar_rng);
                assert_eq!(kernel.to_bits(), scalar.to_bits(), "estimate: {at}");
                fold(scalar.to_bits());
                for p_q in [0.05, 0.5, 0.95] {
                    let before = scratch.samples();
                    let (p, m) = mc.decide_with(&prepared, &rq, p_q, &mut kernel_rng, &mut scratch);
                    assert_eq!(
                        scratch.samples() - before,
                        m as u64,
                        "drawn: {at} p_q={p_q}"
                    );
                    // A decision that drew nothing short-circuited, and so
                    // does the scalar estimate at any n₁.
                    let scalar = MonteCarlo::new(m.max(1)).estimate(pdf, &rq, &mut scalar_rng);
                    assert_eq!(
                        p.to_bits(),
                        scalar.to_bits(),
                        "decision: {at} p_q={p_q} m={m}"
                    );
                    fold(m as u64);
                    fold(scalar.to_bits());
                }
            }
        }
    }
    assert_eq!(
        kernel_rng.next_u64(),
        scalar_rng.next_u64(),
        "D={D}: the kernel left the shared RNG somewhere the scalar path did not"
    );
}

/// Estimates and decisions that share one RNG (as Fig 7's error sweep
/// and a replayed refinement pass do) leave it exactly where the scalar
/// path leaves it. Per-estimate equality alone would miss a kernel that
/// draws ahead and carries the surplus into the next call: every bit
/// would match while the shared stream, and so every later figure,
/// moved. The digest is the scalar path's, recorded before the
/// kernel's rejection rounds were introduced, so a change to both paths
/// at once cannot pass.
#[test]
fn shared_rng_sequence_leaves_the_stream_where_the_scalar_path_does() {
    let n1s = [1, 25, CHUNK - 1, CHUNK + 1, 10_000];
    let mut fnv = 0xCBF2_9CE4_8422_2325;
    shared_rng_sequence::<1>(&n1s, &mut fnv);
    shared_rng_sequence::<2>(&n1s, &mut fnv);
    shared_rng_sequence::<3>(&n1s, &mut fnv);
    assert_eq!(
        fnv, 0x922b_264e_2cf6_e25e,
        "scalar-path digest moved: {fnv:#018x}"
    );
}
