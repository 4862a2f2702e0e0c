//! Uncertainty-region shapes.

use crate::math::unit_ball_volume;
use rand::Rng;
use uncertain_geom::{Point, Rect};

/// The support of an object's pdf (the paper's `o.ur`).
///
/// The paper's experiments use balls (circles for LB/CA, spheres for
/// Aircraft); boxes arise naturally for sensor-reading scenarios and for the
/// histogram model. The PCR/CFB machinery works for "uncertainty regions of
/// any shapes" (Sec 4.1) — everything downstream only consumes the marginal
/// CDFs and the MBR, so adding further shapes is local to this module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Region<const D: usize> {
    /// A d-dimensional ball.
    Ball {
        /// Ball center.
        center: Point<D>,
        /// Ball radius.
        radius: f64,
    },
    /// An axis-aligned box.
    Box {
        /// The box itself.
        rect: Rect<D>,
    },
}

impl<const D: usize> Region<D> {
    /// Minimum bounding rectangle of the region.
    pub fn mbr(&self) -> Rect<D> {
        match self {
            Region::Ball { center, radius } => Rect::cube(center, 2.0 * radius),
            Region::Box { rect } => *rect,
        }
    }

    /// d-dimensional volume (AREA in the paper's Eq. 1).
    pub fn volume(&self) -> f64 {
        match self {
            Region::Ball { radius, .. } => unit_ball_volume(D) * radius.powi(D as i32),
            Region::Box { rect } => rect.area(),
        }
    }

    /// True when `p` belongs to the region (boundary included).
    pub fn contains(&self, p: &Point<D>) -> bool {
        match self {
            Region::Ball { center, radius } => center.distance_sq(p) <= radius * radius,
            Region::Box { rect } => rect.contains_point(p),
        }
    }

    /// Draws a point uniformly from the region.
    ///
    /// Balls use rejection sampling from the bounding cube — the acceptance
    /// rate is `v_D/2^D` (≈0.79 in 2D, ≈0.52 in 3D), plenty for the
    /// dimensionalities the paper evaluates.
    ///
    /// Only the scalar oracle ([`crate::MonteCarlo::estimate`]) calls this
    /// once per sample; the kernel draws the same points, attempt for
    /// attempt, in its own loop (`kernel.rs`).
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Point<D> {
        match self {
            Region::Ball { center, radius } => loop {
                let mut coords = [0.0; D];
                let mut norm_sq = 0.0;
                for c in coords.iter_mut() {
                    let u: f64 = rng.gen_range(-1.0..=1.0);
                    *c = u;
                    norm_sq += u * u;
                }
                if norm_sq <= 1.0 {
                    for (i, c) in coords.iter_mut().enumerate() {
                        *c = center.coords[i] + *c * radius;
                    }
                    return Point::new(coords);
                }
            },
            Region::Box { rect } => {
                let mut coords = [0.0; D];
                for (i, c) in coords.iter_mut().enumerate() {
                    *c = if rect.min[i] == rect.max[i] {
                        rect.min[i]
                    } else {
                        rng.gen_range(rect.min[i]..=rect.max[i])
                    };
                }
                Point::new(coords)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ball_mbr_is_the_enclosing_cube() {
        let r = Region::Ball {
            center: Point::new([10.0, 20.0]),
            radius: 5.0,
        };
        assert_eq!(r.mbr(), Rect::new([5.0, 15.0], [15.0, 25.0]));
    }

    #[test]
    fn volumes_match_closed_forms() {
        let disk = Region::<2>::Ball {
            center: Point::origin(),
            radius: 2.0,
        };
        assert!((disk.volume() - std::f64::consts::PI * 4.0).abs() < 1e-9);
        let sphere = Region::<3>::Ball {
            center: Point::origin(),
            radius: 1.5,
        };
        assert!((sphere.volume() - 4.0 / 3.0 * std::f64::consts::PI * 1.5f64.powi(3)).abs() < 1e-9);
        let b = Region::Box {
            rect: Rect::new([0.0, 0.0], [2.0, 5.0]),
        };
        assert_eq!(b.volume(), 10.0);
    }

    #[test]
    fn containment_respects_boundary() {
        let ball = Region::Ball {
            center: Point::new([0.0, 0.0]),
            radius: 1.0,
        };
        assert!(ball.contains(&Point::new([1.0, 0.0])));
        assert!(!ball.contains(&Point::new([1.0001, 0.0])));
        assert!(ball.contains(&Point::new([0.6, 0.6]))); // dist ≈ 0.849
        assert!(!ball.contains(&Point::new([0.8, 0.8]))); // dist ≈ 1.131
    }

    #[test]
    fn uniform_ball_samples_stay_inside_and_cover_quadrants() {
        let ball = Region::Ball {
            center: Point::new([100.0, 200.0]),
            radius: 10.0,
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let mut quadrants = [0usize; 4];
        for _ in 0..4000 {
            let p = ball.sample_uniform(&mut rng);
            assert!(ball.contains(&p));
            let qi = (p.coords[0] > 100.0) as usize * 2 + (p.coords[1] > 200.0) as usize;
            quadrants[qi] += 1;
        }
        // Uniformity sanity: each quadrant holds roughly a quarter.
        for &q in &quadrants {
            assert!((700..=1300).contains(&q), "skewed quadrants: {quadrants:?}");
        }
    }

    #[test]
    fn uniform_box_samples_stay_inside() {
        let b = Region::Box {
            rect: Rect::new([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),
        };
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let p = b.sample_uniform(&mut rng);
            assert!(b.contains(&p));
        }
    }

    #[test]
    fn degenerate_box_sampling() {
        let b = Region::Box {
            rect: Rect::new([1.0, 2.0], [1.0, 5.0]),
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let p = b.sample_uniform(&mut rng);
        assert_eq!(p.coords[0], 1.0);
    }
}
