//! A deterministic, cross-platform base-2 logarithm for the v2 record stream.
//!
//! # Why not `f64::ln` / `f64::log2`?
//!
//! The v1 record stream samples its geometric skips as `ceil(ln u / ln(1 − p))` using
//! libm's `ln`.  libm implementations are allowed to differ in the last ulp across
//! platforms and versions, so a sketch format whose bytes depend on `ln` is only
//! reproducible on the platform that built it.  The v1 format freezes that behaviour;
//! the v2 stream instead defines its skips in terms of [`fast_log2`], which uses only
//! f64 additions, multiplications and one division.  IEEE 754 specifies those
//! operations exactly, and Rust never contracts them into fused multiply-adds, so the
//! same input bits produce the same output bits on every platform and toolchain.
//!
//! # Accuracy
//!
//! `fast_log2` is *exact* at every power of two (including subnormal ones) and has
//! absolute error below `2e-9` everywhere else — small enough that a geometric skip
//! computed from it differs from the libm-rounded one only when the log ratio falls
//! within ~1e-9 of an integer, i.e. with per-record probability on the order of 1e-8.
//! That changes *which* stream the v2 format defines, not its statistical properties,
//! which is exactly why the v2 stream is a new format rather than a drop-in kernel.
//! On `(0, 1)`, where the stream takes its logarithms, the error is also *relative*:
//! below `2⁻²⁰` of `|log₂ x|` even within an ulp of 1, where `log₂ x` itself is tiny
//! (the reduction leaves `m = x`, `m − 1` is exact, and the series is `z·(…)`).  The
//! record module's undercut test leans on that bound to decide most skips without
//! evaluating them.
//!
//! # Algorithm
//!
//! Subnormals are first scaled by `2^52` (exact).  The input is then split into
//! `m · 2^e` with mantissa `m ∈ [1, 2)` by bit manipulation, and `m` is reduced to
//! `[√2/2, √2)` — entirely in integer arithmetic on the mantissa field, so the
//! reduction costs one integer compare and a bit-select instead of a floating
//! compare and multiply.  With `z = (m − 1) / (m + 1)`, the identity
//! `ln m = 2 atanh z` gives the odd series `2(z + z³/3 + z⁵/5 + z⁷/7 + z⁹/9 + …)`,
//! truncated after the `z⁹` term (`|z| ≤ √2−1 / √2+1 ≈ 0.1716`, so the truncation
//! error is below `7e-10`).  The `log₂e` conversion factor is folded into the series
//! coefficients, and the polynomial is evaluated odd/even-split (second-order
//! Horner) to halve its dependency depth: the series sits on the critical path of
//! the v2 replay kernel, so its *latency*, not its instruction count, is what the
//! sketch-build pays.

/// `2^52`, the exact scale factor that lifts every subnormal into the normal range.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Bit mask selecting the 52 explicit mantissa bits of an `f64`.
const MANTISSA_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;

/// The exponent-field bits of `1.0` (biased exponent 1023, mantissa zero).
const ONE_BITS: u64 = 1023u64 << 52;

/// The exponent-field bits of `0.5` (biased exponent 1022, mantissa zero).
const HALF_BITS: u64 = 1022u64 << 52;

/// The 52 mantissa bits of `√2`: a mantissa at or above this threshold means the
/// significand `1.mant` is `≥ √2`, exactly the predicate `m ≥ SQRT_2` — but decidable
/// on the integer side of the split, before the mantissa is reassembled into a float.
const SQRT2_MANT: u64 = core::f64::consts::SQRT_2.to_bits() & MANTISSA_MASK;

/// The atanh series coefficients `2/(2k+1)` with the `log₂e` conversion factor folded
/// in, so `log₂ m = z · (C[0] + C[1] z² + C[2] z⁴ + C[3] z⁶ + C[4] z⁸)` directly.
const SERIES: [f64; 5] = [
    2.0 * core::f64::consts::LOG2_E,
    2.0 / 3.0 * core::f64::consts::LOG2_E,
    2.0 / 5.0 * core::f64::consts::LOG2_E,
    2.0 / 7.0 * core::f64::consts::LOG2_E,
    2.0 / 9.0 * core::f64::consts::LOG2_E,
];

/// A deterministic base-2 logarithm built from exactly-specified f64 arithmetic.
///
/// Bit-for-bit reproducible across platforms (unlike libm's `log2`/`ln`), exact at
/// every power of two, and within `2e-9` of the true value everywhere on its domain.
/// See the module docs for why the v2 Weighted MinHash stream is defined in terms of
/// this function.
///
/// The domain is finite positive `x`; other inputs are a caller bug (debug-asserted)
/// and return an unspecified value in release builds.
#[inline]
#[must_use]
pub fn fast_log2(x: f64) -> f64 {
    debug_assert!(
        x > 0.0 && x.is_finite(),
        "fast_log2 domain is finite (0, ∞): got {x}"
    );
    // Lift subnormals into the normal range; multiplying a subnormal by 2^52 is exact.
    let (scaled, bias) = if x < f64::MIN_POSITIVE {
        (x * TWO_POW_52, 52.0)
    } else {
        (x, 0.0)
    };
    let bits = scaled.to_bits();
    let exponent = ((bits >> 52) & 0x7FF) as i32 - 1023;
    let mant = bits & MANTISSA_MASK;
    // Reduce to m ∈ [√2/2, √2) so the series argument stays small and symmetric.  The
    // predicate `1.mant ≥ √2` is a mantissa-bit compare, and halving is an exponent
    // field of 0.5 instead of 1.0 — both decided before `m` ever becomes a float.
    let ge = mant >= SQRT2_MANT;
    let m = f64::from_bits(mant | if ge { HALF_BITS } else { ONE_BITS });
    let e = f64::from(exponent) - bias + if ge { 1.0 } else { 0.0 };
    // log₂ m = 2 atanh(z) · log₂e with z = (m − 1)/(m + 1); `m − 1.0` is exact
    // (Sterbenz) and the odd atanh series truncated after z⁹ keeps the error below
    // 7e-10 on this range.  The polynomial in w = z² is split odd/even so the two
    // halves evaluate in parallel, halving the dependency depth of the hot path.
    let f = m - 1.0;
    let z = f / (2.0 + f);
    let w = z * z;
    let w2 = w * w;
    let even = SERIES[0] + w2 * (SERIES[2] + w2 * SERIES[4]);
    let odd = SERIES[1] + w2 * SERIES[3];
    e + z * (even + w * odd)
}

/// Four [`fast_log2`] evaluations in one AVX2 vector: lane `i` of the result is
/// bit-for-bit `fast_log2(x[i])`.
///
/// This is what the deterministic logarithm buys beyond reproducibility: libm's `ln`
/// is an opaque scalar call that cannot be widened, but `fast_log2` is a short chain
/// of exactly-specified f64 operations, and IEEE 754 requires the *packed* forms of
/// those operations to round identically to their scalar forms.  Every data-dependent
/// branch of the scalar code (the subnormal lift, the `√2` reduction) becomes a
/// mask-and-blend here, which not only vectorizes but also removes two
/// hard-to-predict branches from the hot loop.  The v2 replay kernel packs its two
/// logarithms per record (and two records per iteration) into single calls of this
/// function.
///
/// The domain is finite positive lanes, as for [`fast_log2`] (debug-asserted there;
/// unspecified lanes in release builds otherwise).
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (e.g. via
/// `is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
#[must_use]
pub unsafe fn fast_log2_x4(x: core::arch::x86_64::__m256d) -> core::arch::x86_64::__m256d {
    use core::arch::x86_64::*;
    // Subnormal lift, branchless: lanes below MIN_POSITIVE are scaled by 2^52 (exact)
    // and debited 52 from the exponent.  `is_sub` is all-ones per selected lane, so
    // `and_pd` with a constant is a per-lane select of that constant or +0.0.
    let is_sub = _mm256_cmp_pd(x, _mm256_set1_pd(f64::MIN_POSITIVE), _CMP_LT_OQ);
    let lifted = _mm256_mul_pd(x, _mm256_set1_pd(TWO_POW_52));
    let scaled = _mm256_blendv_pd(x, lifted, is_sub);
    let bias = _mm256_and_pd(is_sub, _mm256_set1_pd(52.0));
    let bits = _mm256_castpd_si256(scaled);
    // Exponent field → f64 without a 64-bit int conversion (AVX2 has none): OR the
    // small integer into the mantissa of 2^52 and subtract 2^52.
    let e_biased = _mm256_and_si256(_mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x7FF));
    let e_f = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            e_biased,
            _mm256_set1_epi64x(0x4330_0000_0000_0000),
        )),
        _mm256_set1_pd(TWO_POW_52),
    );
    let mant = _mm256_and_si256(bits, _mm256_set1_epi64x(MANTISSA_MASK as i64));
    // Reduce to m ∈ [√2/2, √2) on the integer side, like the scalar code: the
    // predicate `mant ≥ SQRT2_MANT` is a signed 64-bit compare (both operands are
    // below 2^52, so sign is never an issue), and the √2-or-not exponent field is a
    // byte blend on the two constants.
    let ge = _mm256_cmpgt_epi64(mant, _mm256_set1_epi64x(SQRT2_MANT as i64 - 1));
    let expo = _mm256_blendv_epi8(
        _mm256_set1_epi64x(ONE_BITS as i64),
        _mm256_set1_epi64x(HALF_BITS as i64),
        ge,
    );
    let m = _mm256_castsi256_pd(_mm256_or_si256(mant, expo));
    let e = _mm256_add_pd(
        _mm256_sub_pd(_mm256_sub_pd(e_f, _mm256_set1_pd(1023.0)), bias),
        _mm256_and_pd(_mm256_castsi256_pd(ge), _mm256_set1_pd(1.0)),
    );
    // The same odd/even-split atanh series as the scalar code, in the same order.
    let f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
    let z = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
    let w = _mm256_mul_pd(z, z);
    let w2 = _mm256_mul_pd(w, w);
    let even = _mm256_add_pd(
        _mm256_set1_pd(SERIES[0]),
        _mm256_mul_pd(
            w2,
            _mm256_add_pd(
                _mm256_set1_pd(SERIES[2]),
                _mm256_mul_pd(w2, _mm256_set1_pd(SERIES[4])),
            ),
        ),
    );
    let odd = _mm256_add_pd(
        _mm256_set1_pd(SERIES[1]),
        _mm256_mul_pd(w2, _mm256_set1_pd(SERIES[3])),
    );
    _mm256_add_pd(
        e,
        _mm256_mul_pd(z, _mm256_add_pd(even, _mm256_mul_pd(w, odd))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256PlusPlus;

    #[test]
    fn exact_at_every_normal_power_of_two() {
        for unbiased in -1022i64..=1023 {
            let x = f64::from_bits(((unbiased + 1023) as u64) << 52);
            let got = fast_log2(x);
            assert_eq!(
                got.to_bits(),
                (unbiased as f64).to_bits(),
                "fast_log2(2^{unbiased}) = {got}"
            );
        }
    }

    #[test]
    fn exact_at_every_subnormal_power_of_two() {
        for shift in 0u64..52 {
            let x = f64::from_bits(1u64 << shift);
            let expected = shift as f64 - 1074.0;
            let got = fast_log2(x);
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "fast_log2(2^{expected}) = {got}"
            );
        }
    }

    #[test]
    fn matches_libm_within_2e9_across_all_magnitudes() {
        // Uniform over positive bit patterns covers every binade, subnormals included.
        let mut rng = Xoshiro256PlusPlus::new(0x106);
        let mut checked = 0u64;
        for _ in 0..200_000 {
            let x = f64::from_bits(rng.next_u64() & 0x7FFF_FFFF_FFFF_FFFF);
            if !(x > 0.0 && x.is_finite()) {
                continue;
            }
            let err = (fast_log2(x) - x.log2()).abs();
            assert!(err < 2e-9, "x = {x:e}: error {err:e}");
            checked += 1;
        }
        assert!(checked > 190_000);
    }

    #[test]
    fn matches_libm_on_the_unit_interval() {
        // The record stream only ever evaluates logs of values in (0, 1); sweep that
        // range densely, including values within an ulp of 1.
        let mut rng = Xoshiro256PlusPlus::new(0x207);
        for _ in 0..200_000 {
            let u = rng.next_open_unit_f64();
            let err = (fast_log2(u) - u.log2()).abs();
            assert!(err < 2e-9, "u = {u}: error {err:e}");
        }
        for delta in 1u64..=64 {
            let u = f64::from_bits(1.0f64.to_bits() - delta);
            let err = (fast_log2(u) - u.log2()).abs();
            assert!(err < 2e-9, "u = 1 - {delta} ulp: error {err:e}");
        }
    }

    #[test]
    fn relative_error_is_below_2_pow_minus_20_on_the_unit_interval() {
        // Uniform draws, every binade down to 2^-60, the ulps just below 1, and the
        // √2/2 reduction boundary.
        let mut rng = Xoshiro256PlusPlus::new(0x3E1);
        let mut xs: Vec<f64> = (0..200_000).map(|_| rng.next_open_unit_f64()).collect();
        for binade in 1..=60 {
            let base = 0.5f64.powi(binade);
            xs.extend((0..1_000).map(|_| base * (1.0 + rng.next_unit_f64())));
        }
        for shift in 0..52 {
            let ulps = 1u64 << shift;
            xs.extend((0..8).map(|d| f64::from_bits(1.0f64.to_bits() - ulps - d)));
        }
        let edge = core::f64::consts::FRAC_1_SQRT_2.to_bits();
        xs.extend((0..64).map(|d| f64::from_bits(edge - 32 + d)));
        for x in xs.into_iter().filter(|&x| x > 0.0 && x < 1.0) {
            let exact = x.log2();
            let relative = ((fast_log2(x) - exact) / exact).abs();
            assert!(
                relative < 1.0 / f64::from(1 << 20),
                "x = {x:e}: relative error {relative:e}"
            );
        }
    }

    #[test]
    fn is_deterministic_bit_for_bit() {
        let mut rng = Xoshiro256PlusPlus::new(9);
        for _ in 0..1000 {
            let x = rng.next_range_f64(1e-12, 1e12);
            assert_eq!(fast_log2(x).to_bits(), fast_log2(x).to_bits());
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    #[test]
    fn packed_log_matches_scalar_bit_for_bit() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        use core::arch::x86_64::*;
        let quad = |xs: [f64; 4]| -> [f64; 4] {
            // SAFETY: AVX2 presence checked above.
            let v = unsafe { fast_log2_x4(_mm256_set_pd(xs[3], xs[2], xs[1], xs[0])) };
            let mut out = [0.0; 4];
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
            out
        };
        let check = |xs: [f64; 4]| {
            let got = quad(xs);
            for (x, g) in xs.iter().zip(got) {
                assert_eq!(
                    g.to_bits(),
                    fast_log2(*x).to_bits(),
                    "lane diverged at x = {x:e}"
                );
            }
        };
        // Random positive finite bit patterns cover every binade, subnormals included,
        // and mixed lanes exercise per-lane blending of both reduction branches.
        let mut rng = Xoshiro256PlusPlus::new(0x40F);
        let mut draw = || loop {
            let x = f64::from_bits(rng.next_u64() & 0x7FFF_FFFF_FFFF_FFFF);
            if x > 0.0 && x.is_finite() {
                return x;
            }
        };
        for _ in 0..100_000 {
            check([draw(), draw(), draw(), draw()]);
        }
        // The seams the blends must reproduce exactly: powers of two, the √2
        // reduction boundary, the subnormal threshold, and the domain extremes.
        check([1.0, 2.0, 0.5, core::f64::consts::SQRT_2]);
        check([
            f64::from_bits(core::f64::consts::SQRT_2.to_bits() - 1),
            f64::MIN_POSITIVE,
            f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
            f64::from_bits(1),
        ]);
        check([f64::MAX, f64::from_bits(1.0f64.to_bits() - 1), 1.5, 4.0]);
    }

    #[test]
    fn stays_accurate_across_the_reduction_boundary() {
        // The reduction at √2 switches between the two series branches; both sides of
        // the seam must honour the same accuracy bound (|z| is maximal right here).
        let boundary = core::f64::consts::SQRT_2;
        for delta in -64i64..=64 {
            let x = f64::from_bits((boundary.to_bits() as i64 + delta) as u64);
            let err = (fast_log2(x) - x.log2()).abs();
            assert!(err < 2e-9, "x = √2 {delta:+} ulp: error {err:e}");
        }
    }
}
