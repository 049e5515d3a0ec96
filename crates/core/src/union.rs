//! Union-size estimators (Lemma 1 of the paper).
//!
//! The MinHash and Weighted MinHash inner-product estimators both rescale a sum over
//! hash collisions by an estimate of the (weighted) support-union size, which is not
//! known from the sketches directly.  Lemma 1 shows that `Ũ = m / Σ_i min(h_a[i],
//! h_b[i]) − 1` is a `(1 ± ε)` approximation of `|A ∪ B|` when `m = O(1/ε²)`; this is a
//! variant of the classic Flajolet–Martin distinct-elements estimator.  KMV sketches use
//! the closely related k-th order-statistic estimator `(k − 1)/h_(k)`.

use crate::error::SketchError;

/// The Lemma-1 union-size estimator from per-sample minimum hash values.
///
/// `minima[i]` must be `min(h_i over the union of supports)`, i.e.
/// `min(H_a^hash[i], H_b^hash[i])` when estimating from two MinHash sketches.
///
/// # Errors
///
/// Returns [`SketchError::EmptySketch`] if `minima` is empty, and
/// [`SketchError::InvalidParameter`] if any minimum lies outside `[0, 1]`.
pub fn union_size_from_minima(minima: &[f64]) -> Result<f64, SketchError> {
    if minima.is_empty() {
        return Err(SketchError::EmptySketch);
    }
    let mut sum = 0.0;
    for &v in minima {
        // `contains` is false for NaN (both comparisons fail) and for ±∞ (outside the
        // bounds), so no separate finiteness check is needed.
        if !(0.0..=1.0).contains(&v) {
            return Err(SketchError::InvalidParameter {
                name: "minima",
                allowed: "values in [0, 1]",
            });
        }
        sum += v;
    }
    Ok(union_size_from_sum(minima.len(), sum))
}

/// The Lemma-1 estimate `m / sum − 1` from the in-order sum of `m` validated minima —
/// the arithmetic tail of [`union_size_from_minima`], shared with estimators that
/// accumulate the sum themselves.
pub(crate) fn union_size_from_sum(m: usize, sum: f64) -> f64 {
    if sum == 0.0 {
        // All minima are exactly zero — only possible for degenerate hash functions;
        // report an (effectively) infinite union rather than dividing by zero.
        return f64::INFINITY;
    }
    m as f64 / sum - 1.0
}

/// The KMV (k-th minimum value) estimator of the number of distinct elements: given the
/// k-th smallest hash value `tau` over the union, the estimate is `(k − 1) / tau`.
///
/// # Errors
///
/// Returns [`SketchError::InvalidParameter`] if `k == 0` or `tau` is not in `(0, 1]`.
pub fn union_size_from_kth_minimum(k: usize, tau: f64) -> Result<f64, SketchError> {
    if k == 0 {
        return Err(SketchError::InvalidParameter {
            name: "k",
            allowed: ">= 1",
        });
    }
    if !(tau > 0.0 && tau <= 1.0) {
        return Err(SketchError::InvalidParameter {
            name: "tau",
            allowed: "(0, 1]",
        });
    }
    Ok((k as f64 - 1.0) / tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_hash::family::{HashFamily, UnitHashFamily};
    use ipsketch_hash::unit::UnitHasher;

    #[test]
    fn rejects_empty_and_out_of_range() {
        assert!(matches!(
            union_size_from_minima(&[]),
            Err(SketchError::EmptySketch)
        ));
        assert!(union_size_from_minima(&[0.5, 1.5]).is_err());
        assert!(union_size_from_minima(&[-0.1]).is_err());
        assert!(union_size_from_minima(&[f64::NAN]).is_err());
        assert!(union_size_from_minima(&[f64::INFINITY]).is_err());
        assert!(union_size_from_minima(&[f64::NEG_INFINITY]).is_err());
    }

    #[test]
    fn estimate_is_never_negative() {
        // Every minimum is at most 1, so the sum is at most m and `m / sum − 1 >= 0`:
        // even the extreme all-ones input (a sum of minima "exceeding" m is impossible)
        // pins the estimate at exactly zero rather than driving it negative.
        assert_eq!(union_size_from_minima(&[1.0, 1.0, 1.0]).unwrap(), 0.0);
        for m in [1usize, 7, 64] {
            let minima = vec![1.0; m];
            assert!(union_size_from_minima(&minima).unwrap() >= 0.0);
        }
        // Mixed boundary values also stay non-negative.
        let est = union_size_from_minima(&[1.0, 0.5, 1.0, 0.25]).unwrap();
        assert!(est >= 0.0, "estimate {est}");
    }

    #[test]
    fn all_zero_minima_yield_infinite_union() {
        assert_eq!(union_size_from_minima(&[0.0, 0.0]).unwrap(), f64::INFINITY);
    }

    #[test]
    fn exact_for_expected_minimum() {
        // If every minimum equals its expectation 1/(u+1), the estimator returns u.
        let u = 57.0;
        let minima = vec![1.0 / (u + 1.0); 100];
        let est = union_size_from_minima(&minima).unwrap();
        assert!((est - u).abs() < 1e-9);
    }

    #[test]
    fn concentrates_around_true_union_size() {
        // Simulate a set of 500 elements hashed by m = 4096 hash functions; the
        // estimator should land within a few percent of 500.
        let union_size = 500u64;
        let m = 4096;
        let family = UnitHashFamily::with_default_kind(99, m).unwrap();
        let minima: Vec<f64> = (0..m)
            .map(|i| {
                let h = family.member(i);
                (0..union_size)
                    .map(|x| h.hash_unit(x * 7919 + 13))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let est = union_size_from_minima(&minima).unwrap();
        let rel = (est - union_size as f64).abs() / union_size as f64;
        assert!(rel < 0.05, "estimate {est} too far from {union_size}");
    }

    #[test]
    fn estimator_is_scale_sensitive() {
        // Larger minima mean fewer elements.
        let small_set = vec![0.2; 64];
        let large_set = vec![0.01; 64];
        let small = union_size_from_minima(&small_set).unwrap();
        let large = union_size_from_minima(&large_set).unwrap();
        assert!(large > small);
    }

    #[test]
    fn kth_minimum_estimator_basic() {
        // 100 uniform points: the k-th smallest is near k/101, so (k-1)/tau ≈ 100.
        let k = 32;
        let tau = k as f64 / 101.0;
        let est = union_size_from_kth_minimum(k, tau).unwrap();
        assert!((est - 97.8).abs() < 5.0, "estimate {est}");
    }

    #[test]
    fn kth_minimum_estimator_rejects_bad_input() {
        assert!(union_size_from_kth_minimum(0, 0.5).is_err());
        assert!(union_size_from_kth_minimum(5, 0.0).is_err());
        assert!(union_size_from_kth_minimum(5, 1.5).is_err());
    }
}
