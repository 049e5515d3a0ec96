//! Weighted MinHash inner-product sketching — the paper's primary contribution.
//!
//! * [`WeightedMinHashSketch`] is the sketch of Algorithm 3: per-sample minimum hash
//!   values over an implicit *expanded* vector, the (normalized, rounded) entry values
//!   at the minimizing positions, and the Euclidean norm of the original vector.
//! * [`WeightedMinHasher`] (module `fast`) builds the sketch with the "active index"
//!   technique in `O(nnz · m · log L)` time.
//! * [`NaiveWeightedMinHasher`] (module `naive`) builds it by literally materializing
//!   and hashing every expanded position in `O(nnz · m · L)` time; it exists to
//!   cross-check the fast implementation and to ablate the sketching cost.
//! * [`estimate`](fn@estimate) implements Algorithm 5, the estimator whose guarantee is
//!   Theorem 2: error at most `ε · max(‖a_I‖‖b‖, ‖a‖‖b_I‖)` with `m = O(1/ε²)` samples.
//!   [`WeightedMinHasher::estimate_column_pair`] evaluates it, bit for bit, for the six
//!   products of a (query, candidate) column pair in one pass over the samples.
//!
//! [`WeightedMinHasher`] is also a
//! [`MergeableSketcher`](crate::traits::MergeableSketcher): since the record stream of
//! each `(sample, block)` pair depends only on the shared configuration, per-sample
//! minima taken over disjoint partitions of a vector's support min-merge into the
//! minima over the whole support.  Algorithm 3 normalizes by the full vector's norm
//! before rounding, so partitions agree on that norm up front (the announced-norm
//! two-pass protocol — see [`WeightedMinHasher::sketch_partition`]); merged sketches
//! agree with one-shot sketches up to the Algorithm-4 mass absorption at the largest
//! entry.

mod fast;
mod naive;

pub(crate) use fast::check_reference_norm;
pub use fast::WeightedMinHasher;
pub use naive::NaiveWeightedMinHasher;

use crate::error::{incompatible, SketchError};
use crate::method::COLUMN_PAIR_PRODUCTS;
use crate::storage::sampling_sketch_doubles;
use crate::traits::Sketch;
use crate::union::{union_size_from_minima, union_size_from_sum};

/// Which sketching implementation produced a WMH sketch.
///
/// Fast and naive sketches are *statistically* interchangeable but use different
/// pseudo-random constructions, so sketches of the two variants must never be compared
/// against each other; the estimator enforces this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WmhVariant {
    /// The `O(nnz · m · log L)` active-index sketcher (the default).
    Fast,
    /// The `O(nnz · m · L)` expanded-vector sketcher (testing / ablation only).
    Naive,
}

/// Which record-stream definition a fast WMH sketch was sampled with.
///
/// Both streams walk the same implicit expanded vector with geometric skips; they
/// differ only in the logarithm that turns a uniform variate into a skip.  The v1
/// stream is bound to libm's `ln` (reproducible per-platform); the v2 stream uses the
/// deterministic [`fast_log2`](ipsketch_hash::fast_log2), making sketch bytes
/// identical on every platform — and, because the custom logarithm is much cheaper
/// than libm's, substantially faster to build.  The two streams produce statistically
/// interchangeable but bit-incompatible sketches, so the stream is part of the sketch
/// parameters and the estimator refuses to mix them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WmhStream {
    /// The original libm-`ln` stream (the only stream format-v1 catalogs can hold).
    V1,
    /// The deterministic-logarithm stream introduced with format v2.
    V2,
}

impl WmhStream {
    /// The stable encoding byte of this stream (`1` / `2`).
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            WmhStream::V1 => 1,
            WmhStream::V2 => 2,
        }
    }

    /// Parses a stream byte produced by [`as_u8`](Self::as_u8).
    #[must_use]
    pub fn from_u8(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(WmhStream::V1),
            2 => Some(WmhStream::V2),
            _ => None,
        }
    }
}

/// Configuration fingerprint shared by a family of compatible WMH sketches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WmhParams {
    /// Number of samples `m`.
    pub samples: usize,
    /// Master random seed `s`.
    pub seed: u64,
    /// Discretization parameter `L` (squared entries are rounded to multiples of `1/L`).
    pub discretization: u64,
    /// Which implementation produced the sketch.
    pub variant: WmhVariant,
    /// Which record-stream definition the sketch was sampled with.  Always
    /// [`WmhStream::V1`] for the naive variant, which hashes expanded positions
    /// directly and never samples a stream.
    pub stream: WmhStream,
}

/// The Weighted MinHash sketch of Algorithm 3:
/// `W_a = {W_a^hash, W_a^val, ‖a‖}`.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedMinHashSketch {
    pub(crate) params: WmhParams,
    /// `W^hash`: minimum hash value over the expanded vector, per sample.
    pub(crate) hashes: Vec<f64>,
    /// `W^val`: the rounded, normalized entry (`ã[j]`) at the minimizing position, per
    /// sample.
    pub(crate) values: Vec<f64>,
    /// `‖a‖`: the Euclidean norm of the original (un-normalized) vector.
    pub(crate) norm: f64,
}

impl WeightedMinHashSketch {
    /// The per-sample minimum hash values (`W^hash`).
    #[must_use]
    pub fn hashes(&self) -> &[f64] {
        &self.hashes
    }

    /// The per-sample sampled entries of the rounded unit vector (`W^val`).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The stored Euclidean norm of the sketched vector.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// The configuration fingerprint of the sketch.
    #[must_use]
    pub fn params(&self) -> WmhParams {
        self.params
    }
}

impl Sketch for WeightedMinHashSketch {
    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn storage_doubles(&self) -> f64 {
        // One 32-bit hash + one 64-bit value per sample, plus the stored norm.
        sampling_sketch_doubles(self.hashes.len(), 1)
    }
}

/// Algorithm 5: estimates `⟨a, b⟩` from two Weighted MinHash sketches.
///
/// # Errors
///
/// Returns [`SketchError::IncompatibleSketches`] if the sketches differ in sample
/// count, seed, discretization parameter or sketcher variant, and
/// [`SketchError::EmptySketch`] if the sketches contain no samples.
pub fn estimate(a: &WeightedMinHashSketch, b: &WeightedMinHashSketch) -> Result<f64, SketchError> {
    if a.params != b.params {
        return Err(incompatible(format!(
            "sketch parameters differ: {:?} vs {:?}",
            a.params, b.params
        )));
    }
    if a.hashes.len() != b.hashes.len()
        || a.hashes.len() != a.params.samples
        || a.values.len() != a.hashes.len()
        || b.values.len() != b.hashes.len()
    {
        return Err(incompatible(format!(
            "sample counts differ or are inconsistent: {} vs {} (expected {})",
            a.hashes.len(),
            b.hashes.len(),
            a.params.samples
        )));
    }
    let m = a.hashes.len();
    if m == 0 {
        return Err(SketchError::EmptySketch);
    }
    // A sketch with infinite minima never saw an expanded position: either a streaming
    // partial that was never updated, or a partition whose entries all rounded below
    // the 1/L grid (`L` far too small — the paper requires `L ≫ nnz`).  Either way it
    // is not the sketch of any vector, so refuse loudly instead of estimating 0 or
    // surfacing an opaque parameter error from the union estimator.
    if a.hashes.iter().chain(&b.hashes).any(|h| !h.is_finite()) {
        return Err(SketchError::EmptySketch);
    }

    // Line 2: estimate the weighted union size M = Σ_j max(ã[j]², b̃[j]²), which equals
    // |Ā ∪ B̄| / L for the expanded supports, via the Lemma-1 estimator.
    let minima: Vec<f64> = a
        .hashes
        .iter()
        .zip(&b.hashes)
        .map(|(&x, &y)| x.min(y))
        .collect();
    let expanded_union = union_size_from_minima(&minima)?;

    // Lines 1 & 3: inverse-probability-weighted collision sum.
    let mut collision_sum = 0.0;
    for i in 0..m {
        if a.hashes[i] == b.hashes[i] {
            collision_sum += collision_term(a.values[i], b.values[i]);
        }
    }
    Ok(finish(a, b, expanded_union, collision_sum))
}

/// One collision's term `va·vb / min(va², vb²)` of Algorithm 5's sum.
#[inline]
fn collision_term(va: f64, vb: f64) -> f64 {
    let q = (va * va).min(vb * vb);
    debug_assert!(q > 0.0, "sampled entries are non-zero by construction");
    va * vb / q
}

/// Algorithm 5's closing arithmetic: scale the collision sum by the weighted union
/// (line 3) and undo the normalization by the stored norms (line 4).
#[inline]
fn finish(
    a: &WeightedMinHashSketch,
    b: &WeightedMinHashSketch,
    expanded_union: f64,
    collision_sum: f64,
) -> f64 {
    let m = a.hashes.len();
    let weighted_union = expanded_union / a.params.discretization as f64;
    let unit_estimate = weighted_union / m as f64 * collision_sum;
    a.norm * b.norm * unit_estimate
}

/// The six products of a (query, candidate) column pair in one pass: [`estimate`] of
/// `(a[i], b[j])` for each `(i, j)` of [`COLUMN_PAIR_PRODUCTS`], bit for bit.
///
/// One loop over the samples keeps six minima sums, each added in sample order (so
/// each equals [`union_size_from_minima`]'s sum), and records which products collide
/// at each sample as one bit of a per-64-sample mask — no branch per sample.  The
/// collision terms are then added in sample order by walking each mask's set bits.
///
/// Returns `None` — estimate nothing — unless every sketch carries `params`, `m ≥ 1`
/// samples and only hashes in `[0, 1]`.  Under those conditions no check of
/// [`estimate`] can fail for any of the six pairs; otherwise the caller runs the six
/// sequential calls, which produce exactly their own result or first error.
pub(crate) fn estimate_column_pair(
    params: WmhParams,
    a: [&WeightedMinHashSketch; 3],
    b: [&WeightedMinHashSketch; 3],
) -> Option<[f64; 6]> {
    let m = params.samples;
    let well_formed = |s: &&WeightedMinHashSketch| {
        s.params == params && s.hashes.len() == m && s.values.len() == m
    };
    if m == 0 || !a.iter().chain(&b).all(well_formed) {
        return None;
    }
    let (ah, bh) = (a.map(|s| &s.hashes[..m]), b.map(|s| &s.hashes[..m]));
    // Hashes in [0, 1] make every minimum valid for the union estimator (and exclude
    // the non-finite hashes `estimate` refuses).  Not short-circuiting keeps the scan
    // branch-free.
    let mut in_range = true;
    for hashes in ah.iter().chain(&bh) {
        for h in *hashes {
            in_range &= (0.0..=1.0).contains(h);
        }
    }
    if !in_range {
        return None;
    }
    let mut sums = [0.0f64; 6];
    let mut collisions = [0.0f64; 6];
    for start in (0..m).step_by(64) {
        let end = (start + 64).min(m);
        let mut masks = [0u64; 6];
        for k in start..end {
            let x = [ah[0][k], ah[1][k], ah[2][k]];
            let y = [bh[0][k], bh[1][k], bh[2][k]];
            let bit = k - start;
            for (p, &(i, j)) in COLUMN_PAIR_PRODUCTS.iter().enumerate() {
                sums[p] += x[i].min(y[j]);
                masks[p] |= u64::from(x[i] == y[j]) << bit;
            }
        }
        for (p, &(i, j)) in COLUMN_PAIR_PRODUCTS.iter().enumerate() {
            let (va, vb) = (&a[i].values, &b[j].values);
            let mut mask = masks[p];
            while mask != 0 {
                let k = start + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                collisions[p] += collision_term(va[k], vb[k]);
            }
        }
    }
    Some(std::array::from_fn(|p| {
        let (i, j) = COLUMN_PAIR_PRODUCTS[p];
        finish(a[i], b[j], union_size_from_sum(m, sums[p]), collisions[p])
    }))
}

/// Shared parameter validation for the two sketcher constructors.
pub(crate) fn validate_params(samples: usize, discretization: u64) -> Result<(), SketchError> {
    if samples == 0 {
        return Err(SketchError::InvalidParameter {
            name: "samples",
            allowed: ">= 1",
        });
    }
    if discretization == 0 {
        return Err(SketchError::InvalidParameter {
            name: "discretization",
            allowed: ">= 1",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Sketcher;
    use ipsketch_vector::{inner_product, SparseVector};

    fn test_vectors() -> (SparseVector, SparseVector) {
        let a = SparseVector::from_pairs((0..300u64).map(|i| (i, 1.0 + (i % 7) as f64))).unwrap();
        let b = SparseVector::from_pairs((150..450u64).map(|i| (i, 0.5 + (i % 5) as f64))).unwrap();
        (a, b)
    }

    #[test]
    fn sketch_accessors_and_storage() {
        let (a, _) = test_vectors();
        let sketcher = WeightedMinHasher::new(64, 9, 1 << 20).unwrap();
        let sk = sketcher.sketch(&a).unwrap();
        assert_eq!(sk.len(), 64);
        assert!(!sk.is_empty());
        assert_eq!(sk.hashes().len(), 64);
        assert_eq!(sk.values().len(), 64);
        assert!((sk.norm() - a.norm()).abs() < 1e-12);
        assert!((sk.storage_doubles() - (64.0 * 1.5 + 1.0)).abs() < 1e-12);
        assert_eq!(sk.params().samples, 64);
        assert_eq!(sk.params().variant, WmhVariant::Fast);
        // All sampled values come from the rounded unit vector, so |v| <= 1.
        assert!(sk.values().iter().all(|&v| v != 0.0 && v.abs() <= 1.0));
        assert!(sk.hashes().iter().all(|&h| (0.0..1.0).contains(&h)));
    }

    #[test]
    fn estimate_rejects_mismatched_params() {
        let (a, b) = test_vectors();
        let s1 = WeightedMinHasher::new(64, 1, 1 << 20).unwrap();
        let s2 = WeightedMinHasher::new(64, 2, 1 << 20).unwrap();
        let s3 = WeightedMinHasher::new(64, 1, 1 << 21).unwrap();
        let s4 = WeightedMinHasher::new(32, 1, 1 << 20).unwrap();
        let sa = s1.sketch(&a).unwrap();
        for other in [
            s2.sketch(&b).unwrap(),
            s3.sketch(&b).unwrap(),
            s4.sketch(&b).unwrap(),
        ] {
            assert!(matches!(
                estimate(&sa, &other),
                Err(SketchError::IncompatibleSketches { .. })
            ));
        }
    }

    #[test]
    fn estimate_rejects_cross_variant_sketches() {
        let (a, b) = test_vectors();
        let fast = WeightedMinHasher::new(32, 1, 4096).unwrap();
        let naive = NaiveWeightedMinHasher::new(32, 1, 4096).unwrap();
        let sa = fast.sketch(&a).unwrap();
        let sb = naive.sketch(&b).unwrap();
        assert!(matches!(
            estimate(&sa, &sb),
            Err(SketchError::IncompatibleSketches { .. })
        ));
    }

    #[test]
    fn identical_vectors_give_exact_norm_squared() {
        // For a == b every sample collides and va == vb, so the collision sum is m and
        // the estimate is ‖a‖² · M̃; with the union estimator concentrating near 1 for a
        // unit vector, the estimate should be close to ‖a‖² (and is exactly unbiased).
        let (a, _) = test_vectors();
        let exact = inner_product(&a, &a);
        let mut total = 0.0;
        let trials = 20;
        for seed in 0..trials {
            let sketcher = WeightedMinHasher::new(256, seed, 1 << 22).unwrap();
            let sk = sketcher.sketch(&a).unwrap();
            total += estimate(&sk, &sk).unwrap();
        }
        let mean = total / f64::from(trials as u32);
        assert!(
            (mean - exact).abs() < 0.05 * exact,
            "mean {mean} vs exact {exact}"
        );
    }

    #[test]
    fn estimator_is_approximately_unbiased() {
        let (a, b) = test_vectors();
        let exact = inner_product(&a, &b);
        let scale = a.norm() * b.norm();
        let mut total = 0.0;
        let trials = 40;
        for seed in 0..trials {
            let sketcher = WeightedMinHasher::new(256, seed, 1 << 22).unwrap();
            let sa = sketcher.sketch(&a).unwrap();
            let sb = sketcher.sketch(&b).unwrap();
            total += estimate(&sa, &sb).unwrap();
        }
        let mean = total / f64::from(trials as u32);
        assert!(
            (mean - exact).abs() < 0.03 * scale,
            "mean {mean}, exact {exact}, scale {scale}"
        );
    }

    #[test]
    fn well_formed_column_pairs_take_the_fused_pass() {
        let (a, b) = test_vectors();
        let s = WeightedMinHasher::new(130, 4, 1 << 20).unwrap();
        let col = |v: &SparseVector| {
            let squared = SparseVector::from_pairs(v.iter().map(|(i, x)| (i, x * x))).unwrap();
            let key = SparseVector::from_pairs(v.iter().map(|(i, _)| (i, 1.0))).unwrap();
            [&key, v, &squared].map(|v| s.sketch(v).unwrap())
        };
        let (ca, cb) = (col(&a), col(&b));
        let (ra, rb) = (ca.each_ref(), cb.each_ref());
        let fused = estimate_column_pair(s.params(), ra, rb).expect("well formed");
        for (p, &(i, j)) in COLUMN_PAIR_PRODUCTS.iter().enumerate() {
            assert_eq!(
                fused[p].to_bits(),
                estimate(ra[i], rb[j]).unwrap().to_bits()
            );
        }

        // A -0.0 hash is in range: the fused pass takes it, and `f64::min` treats it
        // as the sequential calls do.
        let mut negative_zero = cb[0].clone();
        negative_zero.hashes[7] = -0.0;
        let rb = [&negative_zero, &cb[1], &cb[2]];
        let fused = estimate_column_pair(s.params(), ra, rb).expect("in range");
        for (p, &(i, j)) in COLUMN_PAIR_PRODUCTS.iter().enumerate() {
            assert_eq!(
                fused[p].to_bits(),
                estimate(ra[i], rb[j]).unwrap().to_bits()
            );
        }

        // Inconsistent lengths (only constructible in-crate; the decoder refuses
        // them) leave the fused pass to the sequential calls, as do hashes above 1.
        let mut short_values = cb[1].clone();
        short_values.values.pop();
        let mut short_hashes = cb[2].clone();
        short_hashes.hashes.pop();
        let mut above_one = cb[0].clone();
        above_one.hashes[7] = 1.5;
        for bad in [short_values, short_hashes, above_one] {
            let rb = [&cb[0], &bad, &cb[2]];
            assert!(estimate_column_pair(s.params(), ra, rb).is_none());
            let rb = [&bad, &cb[1], &cb[2]];
            let sequential: Result<Vec<f64>, _> = COLUMN_PAIR_PRODUCTS
                .iter()
                .map(|&(i, j)| s.estimate_inner_product(ra[i], rb[j]))
                .collect();
            let fused = s.estimate_column_pair(ra, rb).map(|p| p.to_vec());
            assert_eq!(
                fused.map(|p| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
                sequential.map(|p| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            );
        }
    }

    #[test]
    fn validate_params_rejects_zero() {
        assert!(validate_params(0, 10).is_err());
        assert!(validate_params(10, 0).is_err());
        assert!(validate_params(10, 10).is_ok());
    }
}
