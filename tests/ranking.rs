//! Top-k ranking cross-checks: every backend — the two bounded best-first
//! trees, the refine-everything sequential scan, and the disk-backed
//! reopened variants — must produce *identical* ranked answers under a
//! deterministic refinement mode, and those answers must cohere with the
//! threshold-query surface they share a filter with.

mod common;

use utree_repro::prelude::*;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("utree-ranking-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

struct Fixture {
    utree: UTree<2>,
    upcr: UPcrTree<2>,
    scan: SeqScan<2>,
}

fn fixture(n: usize, seed: u64) -> Fixture {
    let objs = datagen::lb_dataset(n, seed);
    let mut utree = UTree::<2>::builder().uniform_catalog(8).build().unwrap();
    let mut upcr = UPcrTree::<2>::builder().uniform_catalog(8).build().unwrap();
    let mut scan = SeqScan::<2>::builder().uniform_catalog(8).build().unwrap();
    utree.bulk_load(&objs);
    upcr.bulk_load(&objs);
    scan.bulk_load(&objs);
    Fixture { utree, upcr, scan }
}

fn rank_queries(count: usize, seed: u64) -> Vec<RankQuery<2>> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let c = Point::new([rng.gen_range(1000.0..9000.0), rng.gen_range(1000.0..9000.0)]);
            Query::range(Rect::cube(&c, rng.gen_range(500.0..4000.0)))
                .top(rng.gen_range(1..15))
                .refine(Refine::reference(1e-9))
                .build()
                .expect("valid rank query")
        })
        .collect()
}

#[test]
fn all_backends_agree_with_the_seqscan_oracle() {
    for (n, seed) in [(400, 3), (700, 19)] {
        let f = fixture(n, seed);
        for (qi, q) in rank_queries(20, seed ^ 0xAB).iter().enumerate() {
            let oracle = f.scan.rank_topk(q);
            let from_utree = f.utree.rank_topk(q);
            let from_upcr = f.upcr.rank_topk(q);
            assert_eq!(
                from_utree.matches, oracle.matches,
                "n={n} query {qi}: U-tree diverged from the oracle"
            );
            assert_eq!(
                from_upcr.matches, oracle.matches,
                "n={n} query {qi}: U-PCR diverged from the oracle"
            );
        }
    }
}

#[test]
fn topk_agrees_with_threshold_queries() {
    let f = fixture(600, 7);
    for (qi, q) in rank_queries(25, 41).iter().enumerate() {
        let top = f.utree.rank_topk(q);
        // Full ranking from the oracle (k = everything) gives the ground
        // truth ordering and the (k+1)-th probability.
        let full = f.scan.rank_topk(
            &Query::range(*q.region())
                .top(usize::MAX)
                .refine(q.refine_mode())
                .build()
                .unwrap(),
        );
        let k = top.len();
        assert_eq!(
            top.matches,
            full.matches[..k],
            "query {qi}: top-k is not the prefix of the full ranking"
        );
        if full.len() > k {
            let kth = top.min_probability().unwrap();
            let next = full.matches[k].p;
            assert!(
                kth >= next,
                "query {qi}: returned probability {kth} below the (k+1)-th {next}"
            );
            // Cross-check against the threshold surface: querying at a
            // threshold between p_k and p_{k+1} must return exactly the
            // top-k id set (skip near-ties where the filter boundary is
            // legitimately open to either side).
            if kth - next > 1e-6 {
                let pq = 0.5 * (kth + next);
                let range = Query::range(*q.region())
                    .threshold(pq)
                    .refine(q.refine_mode())
                    .run(&f.utree)
                    .unwrap();
                let mut expect: Vec<u64> = top.ids();
                expect.sort_unstable();
                assert_eq!(
                    range.sorted_ids(),
                    expect,
                    "query {qi}: threshold query at p_q={pq} disagrees with top-{k}"
                );
            }
        }
    }
}

#[test]
fn bounded_traversals_refine_less_than_the_oracle() {
    let f = fixture(1200, 13);
    let mut probes_utree = 0u64;
    let mut probes_scan = 0u64;
    for q in &rank_queries(15, 99) {
        probes_utree += f.utree.rank_topk(q).stats.prob_computations;
        probes_scan += f.scan.rank_topk(q).stats.prob_computations;
    }
    assert!(
        probes_utree < probes_scan,
        "best-first ranking computed {probes_utree} probabilities, the \
         refine-everything oracle {probes_scan} — the bounds bought nothing"
    );
    // Machine-independent regression gate: data and queries are seeded, so
    // the count repeats exactly in debug and release. 139 = ⌈1.25 × 111⌉,
    // 111 being the count when the gate was pinned; to re-derive after a
    // deliberate change, print `probes_utree` here and scale it the same.
    assert!(
        probes_utree <= 139,
        "best-first ranking computed {probes_utree} probabilities, over the \
         pinned ceiling of 139 — the bounds got weaker"
    );
}

#[test]
fn reopened_disk_indexes_rank_identically() {
    let f = fixture(500, 23);
    let queries = rank_queries(12, 5);

    let dir_u = temp_dir("utree");
    let dir_p = temp_dir("upcr");
    f.utree.save(&dir_u).expect("save U-tree");
    f.upcr.save(&dir_p).expect("save U-PCR");
    {
        // Tiny pools so ranking actually churns the cache.
        let disk_u = DiskUTree::<2>::open(&dir_u, 8).expect("reopen U-tree");
        let disk_p = DiskUPcrTree::<2>::open(&dir_p, 8).expect("reopen U-PCR");
        for (qi, q) in queries.iter().enumerate() {
            let mem = f.utree.rank_topk(q);
            let disk = disk_u.rank_topk(q);
            assert_eq!(mem.matches, disk.matches, "U-tree query {qi}");
            // Logical cost counters are storage-independent.
            assert!(mem.stats.same_counts(&disk.stats), "U-tree query {qi}");
            let disk = disk_p.rank_topk(q);
            assert_eq!(
                f.upcr.rank_topk(q).matches,
                disk.matches,
                "U-PCR query {qi}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir_u);
    let _ = std::fs::remove_dir_all(&dir_p);
}

#[test]
fn monte_carlo_ranking_is_schedule_independent() {
    let f = fixture(300, 31);
    let queries: Vec<RankQuery<2>> = rank_queries(10, 77)
        .into_iter()
        .map(|q| {
            Query::range(*q.region())
                .top(q.k())
                .refine(Refine::monte_carlo(20_000, 0xBEEF))
                .build()
                .unwrap()
        })
        .collect();
    // Per-object seeding: the same query answers identically however it is
    // scheduled — reused context, fresh context, another thread.
    let seq = common::parallel_equals_sequential(&queries, 4, |q, ctx| {
        f.utree.try_rank_topk_with(q, ctx).unwrap()
    });
    for (q, out) in queries.iter().zip(&seq) {
        assert_eq!(f.utree.rank_topk(q).matches, out.matches);
    }
    // Across backends the refinement stream still depends only on
    // (seed, id) — so any object BOTH trees refine carries a bit-equal
    // estimate. Full set identity is deliberately NOT asserted under
    // Monte-Carlo: a sampled estimate may land outside an object's sound
    // analytic bounds, so trees with different bound tightness can
    // legitimately disagree about marginal contenders (see docs/API.md
    // "Monte-Carlo ties and determinism"; exact agreement is asserted
    // under quadrature in all_backends_agree_with_the_seqscan_oracle).
    for (qi, q) in queries.iter().enumerate() {
        let a = f.utree.rank_topk(q);
        let b = f.upcr.rank_topk(q);
        for (x, y) in a.iter().flat_map(|x| b.iter().map(move |y| (x, y))) {
            if x.id == y.id {
                assert_eq!(x.p, y.p, "MC query {qi}: object {} estimate differs", x.id);
            }
        }
    }
}

#[test]
fn ranked_batches_scale_across_workers_with_identical_answers() {
    let f = fixture(500, 47);
    let queries = rank_queries(32, 11);
    let mut tree = Vec::new();
    for threads in [2, 4, 8] {
        tree = common::parallel_equals_sequential(&queries, threads, |q, ctx| {
            f.utree.try_rank_topk_with(q, ctx).unwrap()
        });
    }
    // The scan backend serves ranked batches under the same contract (one
    // thread count: it refines every intersecting object).
    let scan = common::parallel_equals_sequential(&queries, 4, |q, ctx| {
        f.scan.try_rank_topk_with(q, ctx).unwrap()
    });
    for (a, b) in tree.iter().zip(&scan) {
        assert_eq!(a.matches, b.matches, "tree and oracle batches disagree");
    }
}

#[test]
fn rank_builder_validates() {
    let rect = Rect::new([0.0, 0.0], [10.0, 10.0]);
    assert_eq!(
        Query::range(rect).top(0).build().unwrap_err(),
        IndexError::ZeroK
    );
    let nan = Rect {
        min: [f64::NAN, 0.0],
        max: [10.0, 10.0],
    };
    assert_eq!(
        Query::range(nan).top(3).build().unwrap_err(),
        IndexError::NonFiniteRegion { dim: 0 }
    );
    // A quadrature tolerance that is not a finite positive number never
    // converges: refused up front instead of hanging the query.
    for tol in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let e = Query::range(rect)
            .top(3)
            .refine(Refine::reference(tol))
            .build();
        assert!(
            matches!(e, Err(IndexError::InvalidTolerance { tol: t }) if t.to_bits() == tol.to_bits()),
            "tol {tol}: {e:?}"
        );
    }
    let q = Query::range(rect)
        .top(3)
        .refine(Refine::reference(1e-8))
        .build()
        .unwrap();
    assert_eq!(q.k(), 3);
    assert_eq!(q.refine_mode(), Refine::reference(1e-8));

    // Degenerate inputs answer sanely.
    let empty_tree = UTree::<2>::builder().uniform_catalog(6).build().unwrap();
    let out = empty_tree.rank_topk(&q);
    assert!(out.is_empty());
    assert_eq!(out.min_probability(), None);
}
