/// A point in `D`-dimensional space.
///
/// Coordinates are `f64`; the paper normalises every dimension to the domain
/// `[0, 10000]`, but nothing here assumes that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const D: usize> {
    /// Coordinate per dimension.
    pub coords: [f64; D],
}

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinate array.
    pub const fn new(coords: [f64; D]) -> Self {
        Self { coords }
    }

    /// The origin (all coordinates zero).
    pub const fn origin() -> Self {
        Self::new([0.0; D])
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Self) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (cheaper when only comparing).
    pub fn distance_sq(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = self.coords[i] - other.coords[i];
            acc += d * d;
        }
        acc
    }

    /// Component-wise addition.
    pub fn add(&self, other: &Self) -> Self {
        let mut coords = self.coords;
        for (c, o) in coords.iter_mut().zip(other.coords) {
            *c += o;
        }
        Self::new(coords)
    }

    /// Component-wise subtraction `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        let mut coords = self.coords;
        for (c, o) in coords.iter_mut().zip(other.coords) {
            *c -= o;
        }
        Self::new(coords)
    }

    /// Scales every coordinate by `s`.
    pub fn scale(&self, s: f64) -> Self {
        let mut coords = self.coords;
        for c in coords.iter_mut() {
            *c *= s;
        }
        Self::new(coords)
    }

    /// True if every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    fn from(coords: [f64; D]) -> Self {
        Self::new(coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_hand_computation() {
        let a = Point::new([0.0, 0.0]);
        let b = Point::new([3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new([1.5, -2.0, 7.0]);
        let b = Point::new([-3.0, 0.25, 2.0]);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn origin_is_all_zero() {
        let o = Point::<3>::origin();
        assert_eq!(o.coords, [0.0; 3]);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = Point::new([1.0, 2.0]);
        let b = Point::new([0.5, -1.0]);
        let c = a.add(&b).sub(&b);
        assert_eq!(c, a);
        assert_eq!(a.scale(2.0).coords, [2.0, 4.0]);
    }

    #[test]
    fn from_array() {
        let p: Point<2> = [1.0, 2.0].into();
        assert_eq!(p.coords, [1.0, 2.0]);
    }

    #[test]
    fn finite_detection() {
        assert!(Point::new([1.0, 2.0]).is_finite());
        assert!(!Point::new([f64::NAN, 2.0]).is_finite());
        assert!(!Point::new([f64::INFINITY, 2.0]).is_finite());
    }
}
