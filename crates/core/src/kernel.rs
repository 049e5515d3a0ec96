//! Scalar/vectorized kernel dispatch.
//!
//! Every sketching hot loop in this crate ships as a pair of twins: a **scalar
//! reference** (the straightforward loop, kept as the readable spec and the parity
//! baseline) and a **vectorized** kernel (hoisted hash states, 4-wide manual unrolling,
//! branchless sign selection).  The twins are bit-for-bit identical — property tests in
//! `tests/proptests.rs` lock this — so selecting between them is purely a performance
//! decision.
//!
//! This module is the single dispatch point: [`mode`] is consulted by every kernel
//! entry (`JlSketcher::sketch`, `CountSketcher::sketch`, `WeightedMinHasher`'s sample
//! loop, `IcwsSketcher::sketch`, and JL's estimator dot product).  CountSketch's
//! estimator needs no dispatch: its interleaved per-repetition dot products are
//! bit-identical to both twins.  The mode is resolved once per process from the
//! `IPSKETCH_KERNEL` environment variable:
//!
//! * unset or `vectorized` — use the vectorized kernels (the default);
//! * `scalar` — force the scalar references (useful for benchmarking the baseline and
//!   for bisecting a suspected kernel bug).
//!
//! Benchmarks and tests that need *both* twins in one process call the per-sketcher
//! `*_scalar` / `*_vectorized` methods directly instead of toggling the global.

use std::sync::OnceLock;

/// Which implementation of the sketching kernels to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The straightforward reference loops.
    Scalar,
    /// The hoisted-hash, 4-wide unrolled kernels (bit-identical to scalar).
    Vectorized,
}

static MODE: OnceLock<KernelMode> = OnceLock::new();

/// The process-wide kernel mode, resolved once from `IPSKETCH_KERNEL`.
///
/// Unrecognized values fall back to [`KernelMode::Vectorized`]; only the exact
/// (case-insensitive) value `scalar` selects the reference kernels.
#[must_use]
pub fn mode() -> KernelMode {
    *MODE.get_or_init(|| match std::env::var("IPSKETCH_KERNEL") {
        Ok(v) if v.trim().eq_ignore_ascii_case("scalar") => KernelMode::Scalar,
        _ => KernelMode::Vectorized,
    })
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

/// Dispatches a dot product through the process-wide [`mode`].
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    match mode() {
        KernelMode::Scalar => dot_scalar(a, b),
        KernelMode::Vectorized => dot_unrolled(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_is_stable_across_calls() {
        assert_eq!(mode(), mode());
    }

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
