//! Scalar/vectorized kernel twins.
//!
//! The sketching hot loops of JL, CountSketch and Weighted MinHash, and JL's
//! estimator dot product, ship as a pair of twins: a **scalar reference** (the
//! straightforward loop, kept as the readable spec and the parity baseline) and a
//! **vectorized** kernel (hoisted hash states, 4-wide manual unrolling, branchless
//! sign selection).  The twins are bit-for-bit identical — property tests in
//! `tests/proptests.rs` lock this — so the choice is purely one of speed.
//!
//! Every `Sketcher::sketch`, partition sketch and estimate runs the vectorized
//! kernel.  The scalar twins are reached only explicitly: through each sketcher's
//! `sketch_scalar`, [`dot_scalar`], or a [`KernelMode`] argument (e.g.
//! `WeightedMinHasher::sketch_many`), which is how the tests and the kernels bench
//! compare the two in one process.

/// Which twin of a sketching kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The straightforward reference loops.
    Scalar,
    /// The hoisted-hash, 4-wide unrolled kernels (bit-identical to scalar).
    Vectorized,
}

/// Sequential dot product — the scalar reference for the linear-sketch estimators.
#[must_use]
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dot product with the inner loop unrolled four-wide.
///
/// The accumulation **order is preserved** (one accumulator, products added left to
/// right), so the result is bit-identical to [`dot_scalar`]; the unrolling removes the
/// per-element bounds checks and lets the four multiplies issue independently ahead of
/// the serial add chain.
#[must_use]
pub fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    // −0.0 is the true additive identity (−0.0 + x == x bit-for-bit for every x) and is
    // what `Sum<f64>` folds from, so empty inputs match the scalar twin exactly.
    let mut acc = -0.0;
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        acc += ca[0] * cb[0];
        acc += ca[1] * cb[1];
        acc += ca[2] * cb[2];
        acc += ca[3] * cb[3];
    }
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += x * y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_twins_are_bit_identical() {
        // Including lengths that are not multiples of four, empty, and single-element.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 100] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 3.5 + 0.1).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64).cos() - 0.7).collect();
            assert_eq!(
                dot_scalar(&a, &b).to_bits(),
                dot_unrolled(&a, &b).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn dot_handles_mismatched_lengths_like_zip() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [10.0, 20.0];
        assert_eq!(dot_scalar(&a, &b), 50.0);
        assert_eq!(dot_unrolled(&a, &b), 50.0);
    }
}
