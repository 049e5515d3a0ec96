//! The naive (expanded-vector) Weighted MinHash sketcher.
//!
//! This implementation follows Algorithm 3 literally: it materializes (index by index)
//! the expanded vector `ā` of length `n·L` and hashes every non-zero position with a
//! hash function from a [`UnitHashFamily`].  Its cost is `O(nnz · m · L)`, which is
//! prohibitive for realistic `L`; it exists to cross-validate the fast
//! active-index sketcher of [`super::fast`] (both must produce statistically
//! indistinguishable estimates).

use super::{validate_params, WeightedMinHashSketch, WmhParams, WmhStream, WmhVariant};
use crate::error::SketchError;
use crate::traits::Sketcher;
use ipsketch_hash::family::{HashFamily, UnitHashFamily};
use ipsketch_hash::unit::UnitHasher;
use ipsketch_vector::rounding::{normalize_and_round, repetition_counts};
use ipsketch_vector::SparseVector;

/// The `O(nnz · m · L)` literal implementation of Algorithm 3.
#[derive(Debug, Clone)]
pub struct NaiveWeightedMinHasher {
    params: WmhParams,
    family: UnitHashFamily,
}

impl NaiveWeightedMinHasher {
    /// Creates a naive Weighted MinHash sketcher (see [`super::WeightedMinHasher::new`]
    /// for the parameter meanings).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `samples == 0` or
    /// `discretization == 0`.
    pub fn new(samples: usize, seed: u64, discretization: u64) -> Result<Self, SketchError> {
        validate_params(samples, discretization)?;
        let family = UnitHashFamily::with_default_kind(seed, samples)?;
        Ok(Self {
            params: WmhParams {
                samples,
                seed,
                discretization,
                variant: WmhVariant::Naive,
                // The naive sketcher hashes expanded positions with a hash family; it
                // never samples a record stream, so its stream field is fixed at v1.
                stream: WmhStream::V1,
            },
            family,
        })
    }

    /// The configuration fingerprint.
    #[must_use]
    pub fn params(&self) -> WmhParams {
        self.params
    }
}

impl Sketcher for NaiveWeightedMinHasher {
    type Output = WeightedMinHashSketch;

    fn sketch(&self, vector: &SparseVector) -> Result<WeightedMinHashSketch, SketchError> {
        let l = self.params.discretization;
        let (rounded, norm) = normalize_and_round(vector, l)?;
        let blocks = repetition_counts(&rounded, l);

        // Every expanded position is identified by the 64-bit key `block·L + offset`;
        // reject vectors whose indices would overflow that addressing scheme (the fast
        // sketcher has no such limitation).
        for &(block, _) in &blocks {
            if block
                .checked_mul(l)
                .and_then(|base| base.checked_add(l - 1))
                .is_none()
            {
                return Err(SketchError::InvalidParameter {
                    name: "discretization",
                    allowed: "block_index * L must fit in 64 bits for the naive sketcher",
                });
            }
        }

        let m = self.params.samples;
        let mut hashes = Vec::with_capacity(m);
        let mut values = Vec::with_capacity(m);
        for sample in 0..m {
            let hasher = self.family.member(sample);
            let mut best_hash = f64::INFINITY;
            let mut best_value = 0.0;
            for &(block, count) in &blocks {
                let base = block * l;
                for offset in 0..count {
                    let h = hasher.hash_unit(base + offset);
                    if h < best_hash {
                        best_hash = h;
                        best_value = rounded.get(block);
                    }
                }
            }
            hashes.push(best_hash);
            values.push(best_value);
        }
        Ok(WeightedMinHashSketch {
            params: self.params,
            hashes,
            values,
            norm,
        })
    }

    fn estimate_inner_product(
        &self,
        a: &WeightedMinHashSketch,
        b: &WeightedMinHashSketch,
    ) -> Result<f64, SketchError> {
        if a.params != self.params || b.params != self.params {
            return Err(crate::error::incompatible(
                "sketches were not produced by this sketcher's configuration".to_string(),
            ));
        }
        super::estimate(a, b)
    }

    fn name(&self) -> &'static str {
        "WMH-naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_vector::{inner_product, weighted_jaccard};

    #[test]
    fn constructor_validates() {
        assert!(NaiveWeightedMinHasher::new(0, 1, 64).is_err());
        assert!(NaiveWeightedMinHasher::new(8, 1, 0).is_err());
        let s = NaiveWeightedMinHasher::new(8, 1, 64).unwrap();
        assert_eq!(s.params().variant, WmhVariant::Naive);
        assert_eq!(s.name(), "WMH-naive");
    }

    #[test]
    fn rejects_overflowing_block_addresses() {
        let s = NaiveWeightedMinHasher::new(4, 1, 1 << 40).unwrap();
        let v = SparseVector::from_pairs([(u64::MAX - 5, 1.0), (3, 1.0)]).unwrap();
        assert!(matches!(
            s.sketch(&v),
            Err(SketchError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn sketch_is_deterministic_and_scaling_invariant() {
        let v = SparseVector::from_pairs([(0, 1.0), (3, 2.0), (7, -1.5)]).unwrap();
        let s = NaiveWeightedMinHasher::new(16, 5, 512).unwrap();
        let a = s.sketch(&v).unwrap();
        let b = s.sketch(&v).unwrap();
        assert_eq!(a, b);
        let scaled = s.sketch(&v.scaled(3.0)).unwrap();
        assert_eq!(a.hashes(), scaled.hashes());
        assert!((scaled.norm() - 3.0 * a.norm()).abs() < 1e-9);
    }

    #[test]
    fn collision_rate_matches_weighted_jaccard() {
        let a = SparseVector::from_pairs([(0, 2.0), (1, 1.0), (2, 3.0), (3, 1.0)]).unwrap();
        let b = SparseVector::from_pairs([(1, 2.0), (2, 2.0), (3, 1.0), (4, 4.0)]).unwrap();
        let expected = weighted_jaccard(&a.normalized().unwrap(), &b.normalized().unwrap());
        let m = 3000;
        let s = NaiveWeightedMinHasher::new(m, 17, 2048).unwrap();
        let sa = s.sketch(&a).unwrap();
        let sb = s.sketch(&b).unwrap();
        let rate = sa
            .hashes()
            .iter()
            .zip(sb.hashes())
            .filter(|(x, y)| x == y)
            .count() as f64
            / m as f64;
        assert!(
            (rate - expected).abs() < 0.04,
            "rate {rate}, expected {expected}"
        );
    }

    #[test]
    fn naive_estimates_are_accurate() {
        let a = SparseVector::from_pairs((0..40u64).map(|i| (i, 1.0 + (i % 3) as f64))).unwrap();
        let b = SparseVector::from_pairs((20..60u64).map(|i| (i, 2.0 - (i % 2) as f64))).unwrap();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();
        let mut total = 0.0;
        let trials = 10;
        for seed in 0..trials {
            let s = NaiveWeightedMinHasher::new(512, seed, 4096).unwrap();
            let sa = s.sketch(&a).unwrap();
            let sb = s.sketch(&b).unwrap();
            total += s.estimate_inner_product(&sa, &sb).unwrap();
        }
        let mean = total / f64::from(trials as u32);
        assert!(
            (mean - exact).abs() < 0.06 * scale,
            "mean {mean}, exact {exact}"
        );
    }

    #[test]
    fn naive_and_fast_agree_statistically() {
        // Different pseudo-randomness, same algorithm: averaged over seeds the two
        // implementations must estimate the same inner product.
        let a = SparseVector::from_pairs((0..50u64).map(|i| (i, ((i % 7) as f64) - 3.0))).unwrap();
        let b = SparseVector::from_pairs((25..75u64).map(|i| (i, ((i % 4) as f64) - 1.5))).unwrap();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();
        let trials = 15;
        let mut fast_total = 0.0;
        let mut naive_total = 0.0;
        for seed in 0..trials {
            let fast = super::super::WeightedMinHasher::new(384, seed, 4096).unwrap();
            let naive = NaiveWeightedMinHasher::new(384, seed, 4096).unwrap();
            let fa = fast.sketch(&a).unwrap();
            let fb = fast.sketch(&b).unwrap();
            let na = naive.sketch(&a).unwrap();
            let nb = naive.sketch(&b).unwrap();
            fast_total += fast.estimate_inner_product(&fa, &fb).unwrap();
            naive_total += naive.estimate_inner_product(&na, &nb).unwrap();
        }
        let fast_mean = fast_total / f64::from(trials as u32);
        let naive_mean = naive_total / f64::from(trials as u32);
        assert!(
            (fast_mean - exact).abs() < 0.07 * scale,
            "fast mean {fast_mean}, exact {exact}"
        );
        assert!(
            (naive_mean - exact).abs() < 0.07 * scale,
            "naive mean {naive_mean}, exact {exact}"
        );
        assert!(
            (fast_mean - naive_mean).abs() < 0.1 * scale,
            "fast {fast_mean} vs naive {naive_mean}"
        );
    }
}
