//! Query workload generation (paper Sec 6: "A workload contains 100
//! queries with the same parameters q_s and p_q").

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_geom::{Point, Rect};
use utree::{Query, QueryBuilder};

/// A set of prob-range queries sharing `q_s` and `p_q`.
#[derive(Debug, Clone)]
pub struct Workload<const D: usize> {
    /// The queries, region and threshold set; the caller picks the
    /// refinement (`q.refine(mode).run(&index)`).
    pub queries: Vec<QueryBuilder<D>>,
    /// Side length of every query region.
    pub qs: f64,
    /// Probability threshold of every query.
    pub pq: f64,
}

impl<const D: usize> Workload<D> {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Builds a workload of `count` queries: cubes of side `qs` centred at
/// points drawn from `centers` (so "the distribution of the region's
/// location follows that of the underlying data"), all with threshold
/// `pq`.
pub fn workload<const D: usize>(
    centers: &[Point<D>],
    qs: f64,
    pq: f64,
    count: usize,
    seed: u64,
) -> Workload<D> {
    assert!(!centers.is_empty());
    let mut rng = SmallRng::seed_from_u64(seed);
    let queries = (0..count)
        .map(|_| {
            let c = centers[rng.gen_range(0..centers.len())];
            Query::range(Rect::cube(&c, qs)).threshold(pq)
        })
        .collect();
    Workload { queries, qs, pq }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes_and_thresholds() {
        let centers = vec![Point::new([100.0, 200.0]), Point::new([5000.0, 5000.0])];
        let w = workload(&centers, 500.0, 0.6, 100, 42);
        assert_eq!(w.len(), 100);
        for q in &w.queries {
            let q = q.build().unwrap();
            assert_eq!(q.threshold(), 0.6);
            for i in 0..2 {
                assert!((q.region().extent(i) - 500.0).abs() < 1e-9);
            }
            // centred on one of the given centers
            let c = q.region().center();
            assert!(
                centers.iter().any(|p| p.distance(&c) < 1e-9),
                "query not centred on a data point"
            );
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let centers: Vec<Point<2>> = (0..50)
            .map(|i| Point::new([i as f64 * 100.0, i as f64 * 50.0]))
            .collect();
        let a = workload(&centers, 1000.0, 0.3, 20, 7);
        let b = workload(&centers, 1000.0, 0.3, 20, 7);
        assert_eq!(a.queries, b.queries);
    }
}
