//! Sparse vectors over a 64-bit index domain.
//!
//! The paper's motivating applications (dataset search, text similarity) produce vectors
//! whose ambient dimension is enormous (e.g. `n = 2^64` when indices are hashed join
//! keys) but whose number of non-zero entries is modest.  [`SparseVector`] therefore
//! stores only the non-zero entries, sorted by index, and all sketching code consumes
//! vectors through this interface — matching the paper's observation that "all sketching
//! methods discussed in this paper only need to process the vectors' non-zero entries".

use crate::error::VectorError;
use std::fmt;

/// A sparse real vector: sorted, deduplicated `(index, value)` pairs with non-zero,
/// finite values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    indices: Vec<u64>,
    values: Vec<f64>,
}

impl SparseVector {
    /// Creates an empty (all-zero) vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from arbitrary `(index, value)` pairs.
    ///
    /// Pairs are sorted by index; duplicate indices are combined by summation (the usual
    /// sparse "coordinate format" convention); entries whose final value is exactly zero
    /// are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`VectorError::NonFiniteValue`] if any value is NaN or infinite.
    pub fn from_pairs<I>(pairs: I) -> Result<Self, VectorError>
    where
        I: IntoIterator<Item = (u64, f64)>,
    {
        let mut entries: Vec<(u64, f64)> = Vec::new();
        for (index, value) in pairs {
            if !value.is_finite() {
                return Err(VectorError::NonFiniteValue { index, value });
            }
            entries.push((index, value));
        }
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for (index, value) in entries {
            if let Some(&last) = indices.last() {
                if last == index {
                    let last_value: &mut f64 = values.last_mut().expect("parallel arrays");
                    *last_value += value;
                    continue;
                }
            }
            indices.push(index);
            values.push(value);
        }
        // Drop entries that cancelled to exactly zero.
        let mut out_indices = Vec::with_capacity(indices.len());
        let mut out_values = Vec::with_capacity(values.len());
        for (i, v) in indices.into_iter().zip(values) {
            if v != 0.0 {
                out_indices.push(i);
                out_values.push(v);
            }
        }
        Ok(Self {
            indices: out_indices,
            values: out_values,
        })
    }

    /// Builds a vector from a dense slice; index `i` of the slice becomes index `i` of
    /// the vector.  Zero entries are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`VectorError::NonFiniteValue`] if any value is NaN or infinite.
    pub fn from_dense(values: &[f64]) -> Result<Self, VectorError> {
        Self::from_pairs(
            values
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(i, &v)| (i as u64, v)),
        )
    }

    /// Builds a binary indicator vector with value 1.0 at each of the given indices.
    ///
    /// Duplicate indices are collapsed to a single 1.0 entry (not summed), matching the
    /// `x_1[K]` key-indicator vectors of the paper's Figure 3.
    #[must_use]
    pub fn indicator<I>(indices: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let mut idx: Vec<u64> = indices.into_iter().collect();
        idx.sort_unstable();
        idx.dedup();
        let values = vec![1.0; idx.len()];
        Self {
            indices: idx,
            values,
        }
    }

    /// The number of non-zero entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether the vector has no non-zero entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The sorted non-zero indices.
    #[must_use]
    pub fn indices(&self) -> &[u64] {
        &self.indices
    }

    /// The values corresponding to [`indices`](Self::indices), in the same order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value at `index` (zero if the index is not in the support).
    #[must_use]
    pub fn get(&self, index: u64) -> f64 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Whether `index` is in the support.
    #[must_use]
    pub fn contains(&self, index: u64) -> bool {
        self.indices.binary_search(&index).is_ok()
    }

    /// Iterates over `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The Euclidean (`ℓ2`) norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// The squared Euclidean norm.
    #[must_use]
    pub fn norm_squared(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>()
    }

    /// The `ℓ1` norm (sum of absolute values).
    #[must_use]
    pub fn norm_l1(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum::<f64>()
    }

    /// The `ℓ∞` norm (maximum absolute value); zero for the empty vector.
    #[must_use]
    pub fn norm_inf(&self) -> f64 {
        self.values.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// The sum of the values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Returns a copy scaled by `factor`.
    ///
    /// Scaling by zero returns the empty vector.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        if factor == 0.0 {
            return Self::new();
        }
        Self {
            indices: self.indices.clone(),
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }

    /// Returns a unit-norm copy (`self / ‖self‖`).
    ///
    /// # Errors
    ///
    /// Returns [`VectorError::ZeroVector`] if the vector is empty (norm zero).
    pub fn normalized(&self) -> Result<Self, VectorError> {
        let norm = self.norm();
        if norm == 0.0 {
            return Err(VectorError::ZeroVector);
        }
        Ok(self.scaled(1.0 / norm))
    }

    /// Returns a copy with each value squared (used to sketch `(x_V)²` for post-join
    /// variance estimation, see paper Section 1.2).
    #[must_use]
    pub fn squared_entries(&self) -> Self {
        Self {
            indices: self.indices.clone(),
            values: self.values.iter().map(|v| v * v).collect(),
        }
    }

    /// Returns a copy with each value transformed by `f`.
    ///
    /// Entries mapped to exactly zero are removed.
    ///
    /// # Errors
    ///
    /// Returns [`VectorError::NonFiniteValue`] if `f` produces a NaN or infinite value.
    pub fn mapped<F>(&self, mut f: F) -> Result<Self, VectorError>
    where
        F: FnMut(u64, f64) -> f64,
    {
        SparseVector::from_pairs(self.iter().map(|(i, v)| (i, f(i, v))))
    }

    /// Restricts the vector to the given sorted index set (keeps only entries whose
    /// index is in `support`).
    #[must_use]
    pub fn restricted_to(&self, support: &[u64]) -> Self {
        debug_assert!(
            support.windows(2).all(|w| w[0] < w[1]),
            "support must be sorted"
        );
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, v) in self.iter() {
            if support.binary_search(&i).is_ok() {
                indices.push(i);
                values.push(v);
            }
        }
        Self { indices, values }
    }

    /// Materializes the first `dim` coordinates as a dense `Vec<f64>`.
    ///
    /// # Errors
    ///
    /// Returns [`VectorError::DimensionMismatch`] if any non-zero index is `>= dim`.
    pub fn to_dense(&self, dim: usize) -> Result<Vec<f64>, VectorError> {
        let mut out = vec![0.0; dim];
        for (i, v) in self.iter() {
            let idx = usize::try_from(i).map_err(|_| VectorError::DimensionMismatch {
                expected: dim,
                actual: usize::MAX,
            })?;
            if idx >= dim {
                return Err(VectorError::DimensionMismatch {
                    expected: dim,
                    actual: idx + 1,
                });
            }
            out[idx] = v;
        }
        Ok(out)
    }

    /// The largest non-zero index plus one (a lower bound on any valid dense dimension),
    /// or zero for the empty vector.
    #[must_use]
    pub fn max_dimension(&self) -> u64 {
        self.indices.last().map_or(0, |&i| i + 1)
    }
}

impl fmt::Display for SparseVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseVector(nnz={}, [", self.nnz())?;
        for (k, (i, v)) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            if k >= 8 {
                write!(f, "…")?;
                break;
            }
            write!(f, "{i}:{v}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_vector_properties() {
        let v = SparseVector::new();
        assert_eq!(v.nnz(), 0);
        assert!(v.is_empty());
        assert_eq!(v.norm(), 0.0);
        assert_eq!(v.norm_l1(), 0.0);
        assert_eq!(v.norm_inf(), 0.0);
        assert_eq!(v.sum(), 0.0);
        assert_eq!(v.get(42), 0.0);
        assert_eq!(v.max_dimension(), 0);
    }

    #[test]
    fn from_pairs_sorts_and_drops_zeros() {
        let v = SparseVector::from_pairs([(5, 2.0), (1, -1.0), (3, 0.0)]).unwrap();
        assert_eq!(v.indices(), &[1, 5]);
        assert_eq!(v.values(), &[-1.0, 2.0]);
    }

    #[test]
    fn from_pairs_sums_duplicates() {
        let v = SparseVector::from_pairs([(2, 1.5), (2, 2.5), (7, 1.0)]).unwrap();
        assert_eq!(v.get(2), 4.0);
        assert_eq!(v.nnz(), 2);
        // Duplicates cancelling to zero disappear.
        let w = SparseVector::from_pairs([(2, 1.0), (2, -1.0)]).unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn from_pairs_rejects_non_finite() {
        assert!(matches!(
            SparseVector::from_pairs([(1, f64::NAN)]),
            Err(VectorError::NonFiniteValue { index: 1, .. })
        ));
        assert!(matches!(
            SparseVector::from_pairs([(0, 1.0), (2, f64::INFINITY)]),
            Err(VectorError::NonFiniteValue { index: 2, .. })
        ));
    }

    #[test]
    fn from_dense_roundtrip() {
        let dense = [0.0, 1.5, 0.0, -2.0, 0.0];
        let v = SparseVector::from_dense(&dense).unwrap();
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(1), 1.5);
        assert_eq!(v.get(3), -2.0);
        assert_eq!(v.to_dense(5).unwrap(), dense.to_vec());
    }

    #[test]
    fn to_dense_rejects_small_dimension() {
        let v = SparseVector::from_pairs([(10, 1.0)]).unwrap();
        assert!(matches!(
            v.to_dense(5),
            Err(VectorError::DimensionMismatch { .. })
        ));
        assert_eq!(v.to_dense(11).unwrap()[10], 1.0);
    }

    #[test]
    fn indicator_vector() {
        let v = SparseVector::indicator([5, 1, 5, 9]);
        assert_eq!(v.indices(), &[1, 5, 9]);
        assert_eq!(v.values(), &[1.0, 1.0, 1.0]);
        assert_eq!(v.norm_squared(), 3.0);
    }

    #[test]
    fn norms_match_hand_computation() {
        let v = SparseVector::from_pairs([(0, 3.0), (1, -4.0)]).unwrap();
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert!((v.norm_squared() - 25.0).abs() < 1e-12);
        assert!((v.norm_l1() - 7.0).abs() < 1e-12);
        assert!((v.norm_inf() - 4.0).abs() < 1e-12);
        assert!((v.sum() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn get_and_contains() {
        let v = SparseVector::from_pairs([(2, 1.0), (8, 2.0)]).unwrap();
        assert!(v.contains(2));
        assert!(!v.contains(3));
        assert_eq!(v.get(8), 2.0);
        assert_eq!(v.get(9), 0.0);
    }

    #[test]
    fn scaled_and_normalized() {
        let v = SparseVector::from_pairs([(0, 3.0), (1, 4.0)]).unwrap();
        let s = v.scaled(2.0);
        assert_eq!(s.get(0), 6.0);
        assert_eq!(s.get(1), 8.0);
        let n = v.normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!((n.get(0) - 0.6).abs() < 1e-12);
        // Scaling by zero collapses to the empty vector.
        assert!(v.scaled(0.0).is_empty());
        // Normalizing the zero vector fails.
        assert_eq!(
            SparseVector::new().normalized(),
            Err(VectorError::ZeroVector)
        );
    }

    #[test]
    fn squared_entries_and_mapped() {
        let v = SparseVector::from_pairs([(0, -3.0), (5, 2.0)]).unwrap();
        let sq = v.squared_entries();
        assert_eq!(sq.get(0), 9.0);
        assert_eq!(sq.get(5), 4.0);
        let halved = v.mapped(|_, x| x / 2.0).unwrap();
        assert_eq!(halved.get(0), -1.5);
        // Mapping everything to zero empties the vector.
        let zeroed = v.mapped(|_, _| 0.0).unwrap();
        assert!(zeroed.is_empty());
        // Mapping to NaN errors.
        assert!(v.mapped(|_, _| f64::NAN).is_err());
    }

    #[test]
    fn restricted_to_support() {
        let v = SparseVector::from_pairs([(1, 1.0), (2, 2.0), (3, 3.0)]).unwrap();
        let r = v.restricted_to(&[2, 3, 10]);
        assert_eq!(r.indices(), &[2, 3]);
        assert_eq!(r.values(), &[2.0, 3.0]);
        assert!(v.restricted_to(&[]).is_empty());
    }

    #[test]
    fn iter_yields_sorted_pairs() {
        let v = SparseVector::from_pairs([(9, 1.0), (1, 2.0), (4, 3.0)]).unwrap();
        let pairs: Vec<_> = v.iter().collect();
        assert_eq!(pairs, vec![(1, 2.0), (4, 3.0), (9, 1.0)]);
    }

    #[test]
    fn max_dimension() {
        let v = SparseVector::from_pairs([(0, 1.0), (99, 1.0)]).unwrap();
        assert_eq!(v.max_dimension(), 100);
    }

    #[test]
    fn display_is_compact() {
        let v = SparseVector::from_pairs((0..20).map(|i| (i, 1.0))).unwrap();
        let s = v.to_string();
        assert!(s.contains("nnz=20"));
        assert!(s.contains('…'));
        let small = SparseVector::from_pairs([(1, 2.0)]).unwrap();
        assert!(small.to_string().contains("1:2"));
    }
}
