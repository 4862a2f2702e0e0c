//! The workloads' datasets: seeded samples of fixed maps.
//!
//! `datagen` draws a dataset's *layout* (where the clusters lie, how tight
//! they are) and its points from one seed, and the cost of a query
//! follows the layout: across seeds, mean query cost moves by a fifth.
//! A benchmark compared across seeds must not measure the map. So the
//! map is fixed — `datagen`'s dataset at [`MAP_SEED`], twice the size the
//! run needs — and the run's seed picks which half of its objects the run
//! indexes, in which order.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_geom::Point;
use uncertain_pdf::{ObjectPdf, UncertainObject};

/// Seed of the fixed maps.
const MAP_SEED: u64 = 0x5EED;

/// `n` of `pool`'s items, chosen and ordered by `seed` (a partial
/// Fisher–Yates shuffle).
fn sample<T: Clone>(pool: &[T], n: usize, seed: u64) -> Vec<T> {
    assert!(
        n <= pool.len(),
        "sample of {n} from a pool of {}",
        pool.len()
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    (0..n)
        .map(|i| {
            let j = rng.gen_range(i..order.len());
            order.swap(i, j);
            pool[order[i]].clone()
        })
        .collect()
}

fn uniform_ball(id: usize, center: Point<2>) -> UncertainObject<2> {
    UncertainObject::new(
        id as u64,
        ObjectPdf::UniformBall {
            center,
            radius: datagen::LB_CA_RADIUS,
        },
    )
}

/// `n` LB objects (uniform balls, r = 250) with ids `0..n`, followed by
/// `more` further ones with ids `n..n + more` for an insert stream.
pub fn lb(n: usize, more: usize, seed: u64) -> (Vec<UncertainObject<2>>, Vec<UncertainObject<2>>) {
    let pool = datagen::lb_points(2 * (n + more), MAP_SEED);
    let mut objs: Vec<_> = sample(&pool, n + more, seed)
        .into_iter()
        .enumerate()
        .map(|(id, center)| uniform_ball(id, center))
        .collect();
    let stream = objs.split_off(n);
    (objs, stream)
}

/// `n` CA objects (Con-Gau, r = 250, σ = 125) with ids from `first_id`.
pub fn ca(n: usize, first_id: u64, seed: u64) -> Vec<UncertainObject<2>> {
    let pool = datagen::ca_points(2 * n, MAP_SEED);
    sample(&pool, n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, center)| {
            UncertainObject::new(
                first_id + i as u64,
                ObjectPdf::ConGauBall {
                    center,
                    radius: datagen::LB_CA_RADIUS,
                    sigma: datagen::CA_SIGMA,
                },
            )
        })
        .collect()
}

/// `n` Aircraft objects (3-D uniform spheres, r = 125) with ids `0..n`.
pub fn aircraft(n: usize, seed: u64) -> Vec<UncertainObject<3>> {
    let pool = datagen::aircraft_dataset(2 * n, MAP_SEED);
    sample(&pool, n, seed)
        .into_iter()
        .enumerate()
        .map(|(id, o)| UncertainObject::new(id as u64, o.pdf))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_follow_the_seed_and_never_repeat_an_object() {
        let (a, stream) = lb(300, 50, 7);
        assert_eq!((a.len(), stream.len()), (300, 50));
        assert_eq!(lb(300, 50, 7).0, a);
        assert_ne!(lb(300, 50, 8).0, a);
        assert!(a.iter().enumerate().all(|(i, o)| o.id == i as u64));
        assert_eq!(stream[0].id, 300);
        let mut centres: Vec<[u64; 2]> = a
            .iter()
            .chain(&stream)
            .map(|o| o.mbr().center().coords.map(f64::to_bits))
            .collect();
        centres.sort_unstable();
        centres.dedup();
        assert_eq!(centres.len(), 350, "an object was drawn twice");
    }

    #[test]
    fn every_dataset_has_its_papers_pdf() {
        assert!(matches!(
            ca(10, 1_000, 3)[9].pdf,
            ObjectPdf::ConGauBall { .. }
        ));
        assert_eq!(ca(10, 1_000, 3)[9].id, 1_009);
        let air = aircraft(20, 3);
        assert!(air.iter().all(|o| matches!(o.pdf, ObjectPdf::UniformBall { radius, .. } if radius == datagen::AIRCRAFT_RADIUS)));
        assert_ne!(aircraft(20, 4), air);
    }
}
