//! Criterion benchmarks of whole-index operations: the per-query costs
//! behind Fig 9/10 and the per-update costs behind Fig 11, plus the
//! baseline R*-tree substrate for reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use page_store::PageFile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rstar_base::RectRStarTree;
use std::hint::black_box;
use uncertain_geom::Rect;
use utree::{ProbRangeQuery, Query, RefineMode, UCatalog, UPcrTree, UTree};

const N: usize = 4_000;

fn dataset() -> Vec<uncertain_pdf::UncertainObject<2>> {
    datagen::lb_dataset(N, 1)
}

fn bench_insert(c: &mut Criterion) {
    let objs = dataset();
    let mut g = c.benchmark_group("insert");
    g.sample_size(10);
    g.bench_function("utree_4k", |b| {
        b.iter(|| {
            let mut t = UTree::<2>::new(UCatalog::paper_utree_default());
            for o in objs.iter().take(1_000) {
                t.insert(o);
            }
            black_box(t.len())
        })
    });
    g.bench_function("upcr_4k", |b| {
        b.iter(|| {
            let mut t = UPcrTree::<2>::new(UCatalog::uniform(9));
            for o in objs.iter().take(1_000) {
                t.insert(o);
            }
            black_box(t.len())
        })
    });
    g.bench_function("rstar_baseline_4k", |b| {
        b.iter(|| {
            let mut t = RectRStarTree::<2>::try_new_on(PageFile::new()).unwrap();
            for o in objs.iter().take(1_000) {
                t.try_insert(o.mbr(), o.id).unwrap();
            }
            black_box(t.len())
        })
    });
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let objs = dataset();
    let mut utree = UTree::<2>::new(UCatalog::paper_utree_default());
    let mut upcr = UPcrTree::<2>::new(UCatalog::uniform(9));
    for o in &objs {
        utree.insert(o);
        upcr.insert(o);
    }
    let mut rng = SmallRng::seed_from_u64(5);
    let queries: Vec<ProbRangeQuery<2>> = (0..64)
        .map(|_| {
            let i = rng.gen_range(0..objs.len());
            let c = objs[i].mbr().center();
            ProbRangeQuery::new(Rect::cube(&c, 1_500.0), 0.6)
        })
        .collect();
    let mode = RefineMode::MonteCarlo {
        n1: 10_000,
        seed: 3,
    };

    let mut g = c.benchmark_group("prob_range_query_qs1500_pq0.6");
    for (name, run) in [
        (
            "utree",
            Box::new(|q: &ProbRangeQuery<2>| utree.execute(&Query::from_prob_range(*q, mode)).len())
                as Box<dyn Fn(&ProbRangeQuery<2>) -> usize>,
        ),
        (
            "upcr",
            Box::new(|q: &ProbRangeQuery<2>| upcr.execute(&Query::from_prob_range(*q, mode)).len()),
        ),
    ] {
        let mut k = 0usize;
        g.bench_function(name, |b| {
            b.iter(|| {
                let q = &queries[k % queries.len()];
                k += 1;
                black_box(run(q))
            })
        });
    }
    g.finish();
}

fn bench_threshold_sensitivity(c: &mut Criterion) {
    // Fig 10 per-op: the same query region at different thresholds.
    let objs = dataset();
    let mut utree = UTree::<2>::new(UCatalog::paper_utree_default());
    for o in &objs {
        utree.insert(o);
    }
    let center = objs[7].mbr().center();
    let region = Rect::cube(&center, 1_500.0);
    let mode = RefineMode::MonteCarlo {
        n1: 10_000,
        seed: 3,
    };
    let mut g = c.benchmark_group("query_vs_threshold");
    for pq in [0.3f64, 0.6, 0.9] {
        g.bench_with_input(BenchmarkId::new("pq", pq), &pq, |b, &pq| {
            let q = Query::from_prob_range(ProbRangeQuery::new(region, pq), mode);
            b.iter(|| black_box(utree.execute(&q).len()))
        });
    }
    g.finish();
}

fn bench_delete(c: &mut Criterion) {
    let objs = dataset();
    let mut g = c.benchmark_group("delete");
    g.sample_size(10);
    g.bench_function("utree_build_and_drain_1k", |b| {
        b.iter(|| {
            let mut t = UTree::<2>::new(UCatalog::uniform(9));
            for o in objs.iter().take(1_000) {
                t.insert(o);
            }
            for o in objs.iter().take(1_000) {
                assert!(t.delete(o));
            }
            black_box(t.len())
        })
    });
    g.finish();
}

fn bench_rstar_query_baseline(c: &mut Criterion) {
    // Conventional range search on precise data (Sec 2.2) — context for
    // how much the probabilistic machinery costs on top.
    let objs = dataset();
    let mut t = RectRStarTree::<2>::try_new_on(PageFile::new()).unwrap();
    for o in &objs {
        t.try_insert(o.mbr(), o.id).unwrap();
    }
    let region = Rect::cube(&objs[7].mbr().center(), 1_500.0);
    c.bench_function("rstar_precise_range_baseline", |b| {
        b.iter(|| black_box(t.try_range(&region).unwrap().len()))
    });
}

criterion_group!(
    benches,
    bench_insert,
    bench_query,
    bench_threshold_sensitivity,
    bench_delete,
    bench_rstar_query_baseline
);
criterion_main!(benches);
