//! The U-catalog: the pre-determined probability values at which PCRs are
//! materialised (paper Sec 4.2).

use crate::api::IndexError;

/// A sorted set of probability values `p₁ < p₂ < … < p_m`, all in
/// `[0, 0.5]`, shared by every object in a database.
///
/// The paper's tuning (Sec 6.2) uses evenly spaced catalogs
/// `{0, 0.5/(m−1), …, 0.5}` with m = 9/10 for U-PCR and m = 15 for the
/// U-tree. `p₁ = 0` makes `pcr(p₁)` coincide with the MBR of the
/// uncertainty region, which anchors the linear `e.MBR(p)` interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct UCatalog {
    values: Vec<f64>,
}

impl UCatalog {
    /// Builds a catalog from explicit values (must be strictly ascending,
    /// within `[0, 0.5]`, at least two of them), returning a typed error
    /// instead of panicking on invalid input.
    pub fn try_new(values: Vec<f64>) -> Result<Self, IndexError> {
        if values.len() < 2 {
            return Err(IndexError::CatalogTooSmall { len: values.len() });
        }
        if let Some(index) = values.windows(2).position(|w| w[0] >= w[1]) {
            return Err(IndexError::CatalogNotAscending { index });
        }
        if let Some(index) = values.iter().position(|p| !(0.0..=0.5).contains(p)) {
            return Err(IndexError::CatalogValueOutOfRange {
                index,
                value: values[index],
            });
        }
        Ok(Self { values })
    }

    /// The paper's evenly spaced catalog `{0, 0.5/(m−1), …, 0.5}`,
    /// returning a typed error when `m < 2`.
    pub fn try_uniform(m: usize) -> Result<Self, IndexError> {
        if m < 2 {
            return Err(IndexError::CatalogTooSmall { len: m });
        }
        Self::try_new((0..m).map(|j| 0.5 * j as f64 / (m - 1) as f64).collect())
    }

    /// [`Self::try_uniform`], panicking when `m < 2`.
    pub fn uniform(m: usize) -> Self {
        // xlint: allow(panic-freedom) -- documented infallible convenience wrapper; the try_ variant carries the fallible contract
        Self::try_uniform(m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The U-tree default from Sec 6.2: m = 15, values `0, 1/28, …, 14/28`.
    pub fn paper_utree_default() -> Self {
        Self {
            values: (0..15).map(|j| j as f64 / 28.0).collect(),
        }
    }

    /// Number of values m.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Catalogs are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The values, ascending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `p_j` by index (0-based).
    pub fn value(&self, j: usize) -> f64 {
        self.values[j]
    }

    /// Smallest value `p₁`.
    pub fn first(&self) -> f64 {
        self.values[0]
    }

    /// Largest value `p_m`.
    pub fn last(&self) -> f64 {
        *self
            .values
            .last()
            // xlint: allow(panic-freedom) -- invariant: catalog construction rejects empty value lists
            .expect("catalog construction rejects empty value lists")
    }

    /// Index of the median value `p_{⌈m/2⌉}` used by the split algorithm
    /// (Sec 5.3). The paper's subscript is 1-based, so the 0-based index
    /// is `⌈m/2⌉ − 1`: m = 5 ⇒ p₃ (index 2), m = 6 ⇒ p₃ (index 2). The
    /// earlier `m/2` sat one step high for even m, biasing the split
    /// rectangle toward the small-probability end of the catalog.
    pub fn median_index(&self) -> usize {
        self.values.len().div_ceil(2) - 1
    }

    /// Sum of all values (the constant `P` of the CFB objective,
    /// Formula 11).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Index of the largest catalog value `<= p`, if any.
    pub fn largest_leq(&self, p: f64) -> Option<usize> {
        match self.values.partition_point(|&v| v <= p) {
            0 => None,
            k => Some(k - 1),
        }
    }

    /// Index of the smallest catalog value `>= p`, if any.
    pub fn smallest_geq(&self, p: f64) -> Option<usize> {
        let k = self.values.partition_point(|&v| v < p);
        (k < self.values.len()).then_some(k)
    }

    /// Interpolation fraction of `p_j` between `p₁` and `p_m` — the
    /// parameter of the U-tree's linear `e.MBR(p)` (Eq. 15).
    pub fn fraction(&self, j: usize) -> f64 {
        (self.values[j] - self.first()) / (self.last() - self.first())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_catalog_spacing() {
        let c = UCatalog::uniform(6);
        assert_eq!(c.len(), 6);
        assert_eq!(c.first(), 0.0);
        assert_eq!(c.last(), 0.5);
        assert!((c.value(1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn paper_default_matches_sec_62() {
        let c = UCatalog::paper_utree_default();
        assert_eq!(c.len(), 15);
        assert_eq!(c.first(), 0.0);
        assert!((c.last() - 0.5).abs() < 1e-12);
        assert!((c.value(1) - 1.0 / 28.0).abs() < 1e-15);
        // Built without validation, so check it passes validation.
        assert_eq!(UCatalog::try_new(c.values().to_vec()), Ok(c));
    }

    #[test]
    fn largest_leq_and_smallest_geq() {
        let c = UCatalog::try_new(vec![0.0, 0.1, 0.25, 0.4]).unwrap();
        assert_eq!(c.largest_leq(0.3), Some(2));
        assert_eq!(c.largest_leq(0.25), Some(2));
        assert_eq!(c.largest_leq(0.05), Some(0));
        assert_eq!(c.largest_leq(-0.01), None);
        assert_eq!(c.smallest_geq(0.2), Some(2));
        assert_eq!(c.smallest_geq(0.25), Some(2));
        assert_eq!(c.smallest_geq(0.41), None);
        assert_eq!(c.smallest_geq(0.0), Some(0));
    }

    #[test]
    fn fraction_endpoints() {
        let c = UCatalog::uniform(5);
        assert_eq!(c.fraction(0), 0.0);
        assert_eq!(c.fraction(4), 1.0);
        assert!((c.fraction(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn median_index_is_one_based_ceil_halved() {
        // Sec 5.3 splits at p_{⌈m/2⌉} (1-based) ⇒ 0-based ⌈m/2⌉ − 1.
        assert_eq!(UCatalog::uniform(2).median_index(), 0);
        assert_eq!(UCatalog::uniform(3).median_index(), 1);
        assert_eq!(UCatalog::uniform(4).median_index(), 1);
        assert_eq!(UCatalog::uniform(5).median_index(), 2);
        assert_eq!(UCatalog::uniform(6).median_index(), 2);
        assert_eq!(UCatalog::uniform(15).median_index(), 7);
    }

    #[test]
    fn invalid_values_are_typed_errors() {
        let e = |values: Vec<f64>| UCatalog::try_new(values).unwrap_err();
        assert_eq!(e(vec![0.1]), IndexError::CatalogTooSmall { len: 1 });
        assert_eq!(
            e(vec![0.0, 0.2, 0.2]),
            IndexError::CatalogNotAscending { index: 1 }
        );
        assert_eq!(
            e(vec![0.2, 0.1]),
            IndexError::CatalogNotAscending { index: 0 }
        );
        assert_eq!(
            e(vec![0.0, 0.7]),
            IndexError::CatalogValueOutOfRange {
                index: 1,
                value: 0.7
            }
        );
        assert!(e(vec![0.0, 0.6]).to_string().contains("[0, 0.5]"));
    }
}
