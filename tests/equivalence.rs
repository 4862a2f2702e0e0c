//! Cross-crate integration: the three query engines (U-tree, U-PCR,
//! sequential scan) must return identical result sets, and those results
//! must match brute-force ground truth — through inserts, deletes and
//! mixed pdf types.
//!
//! The three-way comparison runs *generically over [`ProbIndex`]*: one
//! function drives every backend, which is the API contract this crate
//! promises.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use utree_repro::prelude::*;

/// Builds a mixed-pdf dataset exercising every model the library ships.
fn mixed_dataset(n: usize, seed: u64) -> Vec<UncertainObject<2>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|id| {
            let cx = rng.gen_range(500.0..9_500.0);
            let cy = rng.gen_range(500.0..9_500.0);
            let pdf = match id % 4 {
                0 => ObjectPdf::UniformBall {
                    center: Point::new([cx, cy]),
                    radius: rng.gen_range(50.0..250.0),
                },
                1 => ObjectPdf::ConGauBall {
                    center: Point::new([cx, cy]),
                    radius: 250.0,
                    sigma: 125.0,
                },
                2 => {
                    let w = rng.gen_range(100.0..400.0);
                    let h = rng.gen_range(100.0..400.0);
                    ObjectPdf::UniformBox {
                        rect: Rect::new([cx - w / 2.0, cy - h / 2.0], [cx + w / 2.0, cy + h / 2.0]),
                    }
                }
                _ => {
                    let half = rng.gen_range(80.0..200.0);
                    ObjectPdf::Histogram(HistogramPdf::from_fn(
                        Rect::new([cx - half, cy - half], [cx + half, cy + half]),
                        [8, 8],
                        |p| 1.0 + (p.coords[0] * 0.01).sin().abs(),
                    ))
                }
            };
            UncertainObject::new(id as u64, pdf)
        })
        .collect()
}

fn ground_truth(objs: &[UncertainObject<2>], rq: &Rect<2>, pq: f64) -> (Vec<u64>, Vec<u64>) {
    let mut expect = Vec::new();
    let mut boundary = Vec::new();
    for o in objs {
        let p = utree_repro::pdf::appearance_reference(&o.pdf, rq, 1e-9);
        if (p - pq).abs() < 2e-4 {
            boundary.push(o.id); // too close to call under numeric noise
        } else if p >= pq {
            expect.push(o.id);
        }
    }
    (expect, boundary)
}

fn clean(mut ids: Vec<u64>, boundary: &[u64]) -> Vec<u64> {
    ids.retain(|id| !boundary.contains(id));
    ids.sort_unstable();
    ids
}

/// Executes one query on any backend and checks the outcome's internal
/// consistency: provenance counts must reconcile with the stat counters,
/// and the filter-step counters must add up.
fn run_checked<I: ProbIndex<2>>(index: &I, q: &QueryBuilder<2>) -> QueryOutcome {
    let outcome = q.run(index).expect("workload queries are valid");
    let s = &outcome.stats;
    assert_eq!(
        s.results as usize,
        outcome.len(),
        "stats.results must equal the number of matches"
    );
    assert_eq!(
        outcome.len(),
        outcome.validated_count() + outcome.refined_count(),
        "every match is either validated or refined"
    );
    assert_eq!(
        s.validated as usize,
        outcome.validated_count(),
        "validated counter must match provenance"
    );
    assert_eq!(
        s.pruned + s.validated + s.candidates,
        s.visited,
        "every inspected leaf entry is pruned, validated or a candidate"
    );
    assert!(
        s.prob_computations >= outcome.refined_count() as u64,
        "every refined match costs at least one probability computation"
    );
    // Refined matches must report probabilities at or above the threshold.
    for m in &outcome {
        if let Provenance::Refined { p, .. } = m.provenance {
            assert!(
                p >= q.build().unwrap().threshold(),
                "refined match {m:?} below threshold"
            );
        }
    }
    outcome
}

/// The ISSUE's trait-level three-way equivalence: one seeded workload,
/// three backends behind the same generic function, identical answers and
/// sane stat invariants everywhere.
#[test]
fn three_backends_agree_generically() {
    let objs = mixed_dataset(350, 4711);
    let mut tree = UTree::<2>::builder().uniform_catalog(12).build().unwrap();
    let mut upcr = UPcrTree::<2>::builder().uniform_catalog(9).build().unwrap();
    let mut scan = SeqScan::<2>::builder().uniform_catalog(12).build().unwrap();
    // Load through the trait as well.
    fn load<I: ProbIndex<2>>(index: &mut I, objs: &[UncertainObject<2>]) {
        index.bulk_load(objs);
        assert_eq!(index.len(), objs.len());
    }
    load(&mut tree, &objs);
    load(&mut upcr, &objs);
    load(&mut scan, &objs);

    let mut rng = SmallRng::seed_from_u64(99);
    for round in 0..15 {
        let c = Point::new([
            rng.gen_range(1_000.0..9_000.0),
            rng.gen_range(1_000.0..9_000.0),
        ]);
        let q = Query::range(Rect::cube(&c, rng.gen_range(300.0..2_500.0)))
            .threshold(rng.gen_range(0.05..0.95))
            .refine(Refine::reference(1e-9));
        let a = run_checked(&tree, &q).sorted_ids();
        let b = run_checked(&upcr, &q).sorted_ids();
        let s = run_checked(&scan, &q).sorted_ids();
        assert_eq!(a, b, "U-tree vs U-PCR, round {round}");
        assert_eq!(a, s, "U-tree vs SeqScan, round {round}");
    }
}

#[test]
fn all_engines_agree_with_ground_truth() {
    let objs = mixed_dataset(400, 2024);
    let mut tree = UTree::<2>::builder().uniform_catalog(12).build().unwrap();
    let mut upcr = UPcrTree::<2>::builder().uniform_catalog(9).build().unwrap();
    let mut scan = SeqScan::<2>::builder().uniform_catalog(12).build().unwrap();
    tree.bulk_load(&objs);
    upcr.bulk_load(&objs);
    scan.bulk_load(&objs);
    tree.check_invariants().unwrap();
    upcr.check_invariants().unwrap();

    let mut rng = SmallRng::seed_from_u64(7);
    for round in 0..25 {
        let c = Point::new([
            rng.gen_range(1_000.0..9_000.0),
            rng.gen_range(1_000.0..9_000.0),
        ]);
        let rq = Rect::cube(&c, rng.gen_range(300.0..2_500.0));
        let pq = rng.gen_range(0.05..0.95);
        let q = Query::range(rq)
            .threshold(pq)
            .refine(Refine::reference(1e-9));

        let t_ids = q.run(&tree).unwrap().ids();
        let p_ids = q.run(&upcr).unwrap().ids();
        let s_ids = q.run(&scan).unwrap().ids();
        let (expect, boundary) = ground_truth(&objs, &rq, pq);
        let expect = clean(expect, &boundary);

        assert_eq!(clean(t_ids, &boundary), expect, "U-tree, round {round}");
        assert_eq!(clean(p_ids, &boundary), expect, "U-PCR, round {round}");
        assert_eq!(clean(s_ids, &boundary), expect, "SeqScan, round {round}");
    }
}

#[test]
fn agreement_survives_interleaved_deletes() {
    let objs = mixed_dataset(300, 555);
    let mut tree = UTree::<2>::builder().uniform_catalog(10).build().unwrap();
    let mut upcr = UPcrTree::<2>::builder()
        .uniform_catalog(10)
        .build()
        .unwrap();
    tree.bulk_load(&objs);
    upcr.bulk_load(&objs);

    let mut rng = SmallRng::seed_from_u64(99);
    let mut alive: Vec<UncertainObject<2>> = objs.clone();
    for round in 0..5 {
        // Delete a random third of the survivors.
        let mut keep = Vec::new();
        for o in alive.drain(..) {
            if rng.gen_bool(1.0 / 3.0) {
                assert!(tree.delete(&o), "U-tree delete {} r{round}", o.id);
                assert!(upcr.delete(&o), "U-PCR delete {} r{round}", o.id);
            } else {
                keep.push(o);
            }
        }
        alive = keep;
        tree.check_invariants().unwrap();
        upcr.check_invariants().unwrap();

        let rq = Rect::cube(
            &Point::new([
                rng.gen_range(2_000.0..8_000.0),
                rng.gen_range(2_000.0..8_000.0),
            ]),
            1_800.0,
        );
        let pq = rng.gen_range(0.1..0.9);
        let q = Query::range(rq)
            .threshold(pq)
            .refine(Refine::reference(1e-9));
        let t_ids = q.run(&tree).unwrap().ids();
        let p_ids = q.run(&upcr).unwrap().ids();
        let (expect, boundary) = ground_truth(&alive, &rq, pq);
        let expect = clean(expect, &boundary);
        assert_eq!(
            clean(t_ids, &boundary),
            expect,
            "U-tree after deletes r{round}"
        );
        assert_eq!(
            clean(p_ids, &boundary),
            expect,
            "U-PCR after deletes r{round}"
        );
    }
}

#[test]
fn monte_carlo_refinement_matches_reference_off_boundary() {
    // With queries whose qualifying objects sit well away from the
    // threshold, MC refinement (the paper's estimator) and quadrature must
    // produce the same result sets.
    let objs = mixed_dataset(150, 31);
    let mut tree = UTree::<2>::builder().uniform_catalog(10).build().unwrap();
    tree.bulk_load(&objs);
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..8 {
        let rq = Rect::cube(
            &Point::new([
                rng.gen_range(2_000.0..8_000.0),
                rng.gen_range(2_000.0..8_000.0),
            ]),
            2_000.0,
        );
        let ref_ids = Query::range(rq)
            .threshold(0.5)
            .refine(Refine::reference(1e-9))
            .run(&tree)
            .unwrap()
            .ids();
        let mc_ids = Query::range(rq)
            .threshold(0.5)
            .refine(Refine::monte_carlo(100_000, 1))
            .run(&tree)
            .unwrap()
            .ids();
        // Objects with P within MC noise of 0.5 may differ; exclude them.
        let noisy: Vec<u64> = objs
            .iter()
            .filter(|o| {
                let p = utree_repro::pdf::appearance_reference(&o.pdf, &rq, 1e-9);
                (p - 0.5).abs() < 0.02
            })
            .map(|o| o.id)
            .collect();
        assert_eq!(clean(ref_ids, &noisy), clean(mc_ids, &noisy));
    }
}

#[test]
fn three_dimensional_engines_agree() {
    let objs = datagen::aircraft_dataset(400, 17);
    let mut tree = UTree::<3>::builder().uniform_catalog(10).build().unwrap();
    let mut upcr = UPcrTree::<3>::builder()
        .uniform_catalog(10)
        .build()
        .unwrap();
    tree.bulk_load(&objs);
    upcr.bulk_load(&objs);
    let mut rng = SmallRng::seed_from_u64(41);
    for _ in 0..10 {
        let c = Point::new([
            rng.gen_range(2_000.0..8_000.0),
            rng.gen_range(2_000.0..8_000.0),
            rng.gen_range(2_000.0..8_000.0),
        ]);
        let q = Query::range(Rect::cube(&c, 1_500.0))
            .threshold(rng.gen_range(0.1..0.9))
            .refine(Refine::reference(1e-7));
        let a = q.run(&tree).unwrap().sorted_ids();
        let b = q.run(&upcr).unwrap().sorted_ids();
        assert_eq!(a, b);
    }
}
