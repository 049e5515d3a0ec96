//! Property-based tests for the sketching crate.

use ipsketch_core::icws::IcwsSketcher;
use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_core::serialize::BinarySketch;
use ipsketch_core::traits::{MergeableSketcher, Sketch, Sketcher};
use ipsketch_core::wmh::WeightedMinHasher;
use ipsketch_core::{
    countsketch::CountSketcher, jl::JlSketcher, kmv::KmvSketcher, minhash::MinHasher,
};
use ipsketch_vector::SparseVector;
use proptest::prelude::*;

/// Splits a vector's support into up to `parts` contiguous non-empty chunks.
fn chunks_of(v: &SparseVector, parts: usize) -> Vec<SparseVector> {
    let pairs: Vec<(u64, f64)> = v.iter().collect();
    let len = pairs.len().div_ceil(parts.max(1)).max(1);
    pairs
        .chunks(len)
        .map(|c| SparseVector::from_pairs(c.iter().copied()).expect("chunk is well formed"))
        .collect()
}

/// Element-wise closeness up to floating-point addition order.
fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-9 * (1.0 + y.abs()))
}

/// A non-empty sparse vector with positive-magnitude entries.
fn nonzero_vector() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u64..10_000, 0.05f64..50.0), 1..60).prop_map(|mut pairs| {
        pairs.dedup_by_key(|p| p.0);
        SparseVector::from_pairs(pairs).expect("finite values")
    })
}

/// A pair of non-empty vectors with partially overlapping supports.
fn vector_pair() -> impl Strategy<Value = (SparseVector, SparseVector)> {
    (nonzero_vector(), nonzero_vector(), 0u64..100).prop_map(|(a, b, shift)| {
        // Shift b's indices so the overlap varies across cases.
        let shifted =
            SparseVector::from_pairs(b.iter().map(|(i, v)| (i + shift, v))).expect("finite");
        (a, shifted)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn estimates_are_symmetric((a, b) in vector_pair(), seed in any::<u64>()) {
        for method in SketchMethod::all() {
            let sketcher = AnySketcher::for_budget(method, 64.0, seed).unwrap();
            let sa = sketcher.sketch(&a).unwrap();
            let sb = sketcher.sketch(&b).unwrap();
            let ab = sketcher.estimate_inner_product(&sa, &sb).unwrap();
            let ba = sketcher.estimate_inner_product(&sb, &sa).unwrap();
            prop_assert!((ab - ba).abs() < 1e-9 * (1.0 + ab.abs()), "{method:?}: {ab} vs {ba}");
        }
    }

    #[test]
    fn sketching_is_deterministic(a in nonzero_vector(), seed in any::<u64>()) {
        for method in SketchMethod::all() {
            let sketcher = AnySketcher::for_budget(method, 64.0, seed).unwrap();
            let s1 = sketcher.sketch(&a).unwrap();
            let s2 = sketcher.sketch(&a).unwrap();
            prop_assert_eq!(s1, s2);
        }
    }

    #[test]
    fn storage_respects_budget(a in nonzero_vector(), seed in any::<u64>(), budget in 16.0f64..300.0) {
        for method in SketchMethod::all() {
            let sketcher = AnySketcher::for_budget(method, budget, seed).unwrap();
            let sketch = sketcher.sketch(&a).unwrap();
            prop_assert!(
                sketch.storage_doubles() <= budget + 1e-9,
                "{method:?} used {} of budget {budget}",
                sketch.storage_doubles()
            );
        }
    }

    #[test]
    fn wmh_scaling_invariance(a in nonzero_vector(), seed in any::<u64>(), factor in 0.1f64..50.0) {
        let sketcher = WeightedMinHasher::new(32, seed, 1 << 20).unwrap();
        let original = sketcher.sketch(&a).unwrap();
        let scaled = sketcher.sketch(&a.scaled(factor)).unwrap();
        prop_assert_eq!(original.hashes(), scaled.hashes());
        prop_assert_eq!(original.values(), scaled.values());
        prop_assert!((scaled.norm() - factor * original.norm()).abs() < 1e-6 * scaled.norm());
    }

    #[test]
    fn wmh_self_estimate_is_positive(a in nonzero_vector(), seed in any::<u64>()) {
        let sketcher = WeightedMinHasher::new(64, seed, 1 << 20).unwrap();
        let sk = sketcher.sketch(&a).unwrap();
        let est = sketcher.estimate_inner_product(&sk, &sk).unwrap();
        prop_assert!(est > 0.0, "self inner product estimate {est} should be positive");
    }

    #[test]
    fn minhash_values_come_from_the_vector(a in nonzero_vector(), seed in any::<u64>()) {
        let sketcher = MinHasher::new(16, seed).unwrap();
        let sk = sketcher.sketch(&a).unwrap();
        for &v in sk.values() {
            prop_assert!(a.values().contains(&v));
        }
    }

    #[test]
    fn serialization_round_trips(a in nonzero_vector(), seed in any::<u64>()) {
        let mh = MinHasher::new(8, seed).unwrap().sketch(&a).unwrap();
        prop_assert_eq!(
            ipsketch_core::minhash::MinHashSketch::from_bytes(&mh.to_bytes()).unwrap(),
            mh
        );
        let wmh = WeightedMinHasher::new(8, seed, 1 << 16).unwrap().sketch(&a).unwrap();
        prop_assert_eq!(
            ipsketch_core::wmh::WeightedMinHashSketch::from_bytes(&wmh.to_bytes()).unwrap(),
            wmh
        );
        let jl = JlSketcher::new(8, seed).unwrap().sketch(&a).unwrap();
        prop_assert_eq!(ipsketch_core::jl::JlSketch::from_bytes(&jl.to_bytes()).unwrap(), jl);
        let cs = CountSketcher::new(8, seed).unwrap().sketch(&a).unwrap();
        prop_assert_eq!(
            ipsketch_core::countsketch::CountSketch::from_bytes(&cs.to_bytes()).unwrap(),
            cs
        );
        let kmv = KmvSketcher::new(8, seed).unwrap().sketch(&a).unwrap();
        prop_assert_eq!(ipsketch_core::kmv::KmvSketch::from_bytes(&kmv.to_bytes()).unwrap(), kmv);
    }

    #[test]
    fn jl_linearity(a in nonzero_vector(), seed in any::<u64>(), factor in -5.0f64..5.0) {
        prop_assume!(factor.abs() > 1e-3);
        let sketcher = JlSketcher::new(16, seed).unwrap();
        let sa = sketcher.sketch(&a).unwrap();
        let scaled = sketcher.sketch(&a.scaled(factor)).unwrap();
        for (x, y) in sa.rows().iter().zip(scaled.rows()) {
            prop_assert!((x * factor - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn merge_is_commutative_and_associative(a in nonzero_vector(), seed in any::<u64>()) {
        let chunks = chunks_of(&a, 3);
        prop_assume!(!chunks.is_empty());
        let norm = a.norm();

        // Min-merge methods: exactly commutative and associative.
        macro_rules! check_min_family {
            ($sketcher:expr, $partial:expr) => {{
                let s = $sketcher;
                let partials: Vec<_> = chunks.iter().map($partial).collect();
                let mut left = s.empty_sketch();
                for p in &partials {
                    left = s.merge(&left, p).unwrap();
                }
                let mut right = s.empty_sketch();
                for p in partials.iter().rev() {
                    right = s.merge(p, &right).unwrap();
                }
                prop_assert_eq!(&left, &right);
                if partials.len() == 3 {
                    let ab_c = s
                        .merge(&s.merge(&partials[0], &partials[1]).unwrap(), &partials[2])
                        .unwrap();
                    let a_bc = s
                        .merge(&partials[0], &s.merge(&partials[1], &partials[2]).unwrap())
                        .unwrap();
                    prop_assert_eq!(ab_c, a_bc);
                }
            }};
        }
        let mh = MinHasher::new(24, seed).unwrap();
        check_min_family!(&mh, |c: &SparseVector| mh.sketch(c).unwrap());
        let kmv = KmvSketcher::new(16, seed).unwrap();
        check_min_family!(&kmv, |c: &SparseVector| kmv.sketch(c).unwrap());
        let wmh = WeightedMinHasher::new(24, seed, 1 << 20).unwrap();
        check_min_family!(&wmh, |c: &SparseVector| wmh
            .sketch_partition(c, norm)
            .unwrap());
        let icws = IcwsSketcher::new(16, seed).unwrap();
        check_min_family!(&icws, |c: &SparseVector| icws
            .sketch_partition(c, norm)
            .unwrap());

        // Linear methods: commutative and associative up to floating-point addition
        // order.
        let jl = JlSketcher::new(16, seed).unwrap();
        let jl_parts: Vec<_> = chunks.iter().map(|c| jl.sketch(c).unwrap()).collect();
        if jl_parts.len() == 3 {
            let ab = jl.merge(&jl_parts[0], &jl_parts[1]).unwrap();
            let ba = jl.merge(&jl_parts[1], &jl_parts[0]).unwrap();
            prop_assert_eq!(&ab, &ba);
            let ab_c = jl.merge(&ab, &jl_parts[2]).unwrap();
            let a_bc = jl
                .merge(&jl_parts[0], &jl.merge(&jl_parts[1], &jl_parts[2]).unwrap())
                .unwrap();
            prop_assert!(close(ab_c.rows(), a_bc.rows()));
        }
        let cs = CountSketcher::new(16, seed).unwrap();
        let cs_parts: Vec<_> = chunks.iter().map(|c| cs.sketch(c).unwrap()).collect();
        if cs_parts.len() == 3 {
            let ab = cs.merge(&cs_parts[0], &cs_parts[1]).unwrap();
            prop_assert_eq!(&ab, &cs.merge(&cs_parts[1], &cs_parts[0]).unwrap());
            let ab_c = cs.merge(&ab, &cs_parts[2]).unwrap();
            let a_bc = cs
                .merge(&cs_parts[0], &cs.merge(&cs_parts[1], &cs_parts[2]).unwrap())
                .unwrap();
            prop_assert!(close(ab_c.repetition(0), a_bc.repetition(0)));
        }
    }

    #[test]
    fn chunked_sketching_matches_one_shot((a, b) in vector_pair(), seed in any::<u64>(), parts in 2usize..6) {
        let scale = a.norm() * b.norm();
        for method in [
            SketchMethod::Jl,
            SketchMethod::CountSketch,
            SketchMethod::MinHash,
            SketchMethod::Kmv,
            SketchMethod::WeightedMinHash,
            SketchMethod::Icws,
        ] {
            let sketcher = AnySketcher::for_budget(method, 64.0, seed).unwrap();
            let ca = sketcher.sketch_chunked(&a, parts).unwrap();
            let cb = sketcher.sketch_chunked(&b, parts).unwrap();
            let one_a = sketcher.sketch(&a).unwrap();
            let one_b = sketcher.sketch(&b).unwrap();
            if matches!(method, SketchMethod::MinHash | SketchMethod::Kmv | SketchMethod::Icws) {
                // Pure min-selection with no arithmetic: bit-identical.
                prop_assert_eq!(&ca, &one_a, "{:?}", method);
                prop_assert_eq!(&cb, &one_b, "{:?}", method);
            }
            let est_chunked = sketcher.estimate_inner_product(&ca, &cb).unwrap();
            let est_one = sketcher.estimate_inner_product(&one_a, &one_b).unwrap();
            let tolerance = match method {
                // Shared record streams: the only difference is the Algorithm-4 mass
                // absorption at each vector's max entry.
                SketchMethod::WeightedMinHash => 0.35 * scale + 1e-9,
                _ => 1e-6 * (1.0 + est_one.abs()),
            };
            prop_assert!(
                (est_chunked - est_one).abs() <= tolerance,
                "{:?}: chunked {} vs one-shot {}",
                method,
                est_chunked,
                est_one
            );
        }
    }

    #[test]
    fn update_stream_matches_one_shot(a in nonzero_vector(), seed in any::<u64>()) {
        // Min-family sampling sketches: streamed updates are bit-identical to one-shot
        // (for the normalized samplers, under the announced-norm protocol).
        let mh = MinHasher::new(16, seed).unwrap();
        let mut mh_stream = mh.empty_sketch();
        for (i, v) in a.iter() {
            mh.update(&mut mh_stream, i, v).unwrap();
        }
        prop_assert_eq!(mh_stream, mh.sketch(&a).unwrap());

        let kmv = KmvSketcher::new(12, seed).unwrap();
        let mut kmv_stream = kmv.empty_sketch();
        for (i, v) in a.iter() {
            kmv.update(&mut kmv_stream, i, v).unwrap();
        }
        prop_assert_eq!(kmv_stream, kmv.sketch(&a).unwrap());

        let icws = IcwsSketcher::new(12, seed).unwrap();
        let mut icws_stream = icws.empty_sketch_with_norm(a.norm()).unwrap();
        for (i, v) in a.iter() {
            icws.update(&mut icws_stream, i, v).unwrap();
        }
        prop_assert_eq!(icws_stream, icws.sketch(&a).unwrap());

        let wmh = WeightedMinHasher::new(16, seed, 1 << 20).unwrap();
        let mut wmh_stream = wmh.empty_sketch_with_norm(a.norm()).unwrap();
        for (i, v) in a.iter() {
            wmh.update(&mut wmh_stream, i, v).unwrap();
        }
        prop_assert_eq!(wmh_stream, wmh.sketch_partition(&a, a.norm()).unwrap());

        // Linear sketches: equal up to floating-point addition order.
        let jl = JlSketcher::new(16, seed).unwrap();
        let mut jl_stream = jl.empty_sketch();
        for (i, v) in a.iter() {
            jl.update(&mut jl_stream, i, v).unwrap();
        }
        prop_assert!(close(jl_stream.rows(), jl.sketch(&a).unwrap().rows()));
    }

    #[test]
    fn disjoint_sampling_sketches_estimate_zero(a in nonzero_vector(), seed in any::<u64>()) {
        // Build b on a disjoint index range.
        let offset = a.max_dimension() + 1;
        let b = SparseVector::from_pairs(a.iter().map(|(i, v)| (i + offset, v))).unwrap();
        for method in [SketchMethod::MinHash, SketchMethod::Kmv, SketchMethod::WeightedMinHash, SketchMethod::Icws] {
            let sketcher = AnySketcher::for_budget(method, 64.0, seed).unwrap();
            let sa = sketcher.sketch(&a).unwrap();
            let sb = sketcher.sketch(&b).unwrap();
            let est = sketcher.estimate_inner_product(&sa, &sb).unwrap();
            prop_assert_eq!(est, 0.0, "{:?}", method);
        }
    }
}

/// A sparse vector that may be empty (for the kernels that accept empty input).
fn maybe_empty_vector() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u64..10_000, 0.05f64..50.0), 0..60).prop_map(|mut pairs| {
        pairs.dedup_by_key(|p| p.0);
        SparseVector::from_pairs(pairs).expect("finite values")
    })
}

/// Bit-level equality of two f64 slices — the contract between a scalar reference
/// kernel and its vectorized twin.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The tentpole guarantee of the vectorized kernels: selecting a kernel is purely a
    // performance decision.  Sizes are drawn across the 4-wide unroll boundaries
    // (1, multiples of 4, non-multiples), and the JL/CountSketch cases include empty
    // and single-entry vectors.

    #[test]
    fn jl_vectorized_kernel_is_bit_identical(
        a in maybe_empty_vector(),
        seed in any::<u64>(),
        rows in 1usize..40,
    ) {
        let s = JlSketcher::new(rows, seed).unwrap();
        let scalar = s.sketch_scalar(&a).unwrap();
        let vectorized = s.sketch(&a).unwrap();
        prop_assert!(bits_equal(scalar.rows(), vectorized.rows()));

        let other = s.sketch_scalar(&a.scaled(-1.5)).unwrap();
        prop_assert_eq!(
            ipsketch_core::kernel::dot_scalar(scalar.rows(), other.rows()).to_bits(),
            ipsketch_core::kernel::dot_unrolled(vectorized.rows(), other.rows()).to_bits()
        );
    }

    #[test]
    fn countsketch_vectorized_kernel_is_bit_identical(
        a in maybe_empty_vector(),
        seed in any::<u64>(),
        buckets in 1usize..30,
        reps in 1usize..9,
    ) {
        let s = CountSketcher::with_repetitions(buckets, reps, seed).unwrap();
        let scalar = s.sketch_scalar(&a).unwrap();
        let vectorized = s.sketch(&a).unwrap();
        prop_assert_eq!(scalar.buckets(), vectorized.buckets());
        for rep in 0..reps {
            prop_assert!(bits_equal(scalar.repetition(rep), vectorized.repetition(rep)));
        }
    }

    #[test]
    fn wmh_vectorized_kernel_is_bit_identical(
        a in nonzero_vector(),
        seed in any::<u64>(),
        samples in 1usize..40,
    ) {
        let s = WeightedMinHasher::new(samples, seed, 1 << 20).unwrap();
        let scalar = s.sketch_scalar(&a).unwrap();
        let vectorized = s.sketch(&a).unwrap();
        prop_assert!(bits_equal(scalar.hashes(), vectorized.hashes()));
        prop_assert!(bits_equal(scalar.values(), vectorized.values()));
        prop_assert_eq!(scalar.norm().to_bits(), vectorized.norm().to_bits());
    }

    #[test]
    fn runner_preserves_input_order_under_stress(
        items in proptest::collection::vec(any::<u64>(), 0..300),
        threads in 0usize..16,
    ) {
        // Skewed per-item work (spin proportional to the value's low bits) so chunks
        // complete far out of claim order; the output must still be in input order.
        let out = ipsketch_core::runner::parallel_map(&items, threads, |&x| {
            let spin = (x % 7) * 50;
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            }
            (x, acc)
        });
        prop_assert_eq!(out.len(), items.len());
        for (i, (original, _)) in out.iter().enumerate() {
            prop_assert_eq!(*original, items[i]);
        }
    }
}

/// A non-empty vector whose magnitudes span eight orders, either sign: the heavy keys
/// set small running minima early, so most streams of the light keys are pruned by
/// the v2 undercut test.
fn skewed_vector() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u64..10_000, -6.0f64..2.0, any::<bool>()), 1..80).prop_map(
        |mut entries| {
            entries.dedup_by_key(|e| e.0);
            SparseVector::from_pairs(entries.into_iter().map(|(i, exponent, negative)| {
                (i, 10f64.powf(exponent) * if negative { -1.0 } else { 1.0 })
            }))
            .expect("finite values")
        },
    )
}

/// A sketch's hashes, values and norm as bit patterns.
fn sketch_bits(s: &ipsketch_core::wmh::WeightedMinHashSketch) -> (Vec<u64>, Vec<u64>, u64) {
    (
        s.hashes().iter().map(|x| x.to_bits()).collect(),
        s.values().iter().map(|x| x.to_bits()).collect(),
        s.norm().to_bits(),
    )
}

proptest! {
    // The default configuration, so `PROPTEST_CASES` scales this suite.

    // The served v2 stream's pruned sweep against its unpruned scalar reference, for
    // one vector and for three sharing some keys (a column's key indicator and values,
    // plus an unrelated vector), one-shot and against announced norms, at sample
    // counts covering the serving m = 266 and at a coarse and the default grid.
    #[test]
    fn wmh_v2_sketch_many_vectorized_is_bit_identical(
        a in skewed_vector(),
        b in skewed_vector(),
        seed in any::<u64>(),
        samples in 1usize..300,
        coarse in any::<bool>(),
        announce in any::<bool>(),
        stretch in 1.0f64..4.0,
    ) {
        use ipsketch_core::kernel::KernelMode;
        use ipsketch_core::wmh::WmhStream;
        let l = if coarse { 1 << 12 } else { 1 << 24 };
        let s = WeightedMinHasher::with_stream(samples, seed, l, WmhStream::V2).unwrap();
        let key = SparseVector::from_pairs(a.iter().map(|(i, _)| (i, 1.0))).unwrap();
        let norm = |v: &SparseVector| announce.then(|| v.norm() * stretch);
        let one = [(&a, norm(&a))];
        let three = [(&key, norm(&key)), (&a, norm(&a)), (&b, norm(&b))];
        let scalar = s.sketch_many(one, KernelMode::Scalar).unwrap();
        let vectorized = s.sketch_many(one, KernelMode::Vectorized).unwrap();
        prop_assert_eq!(sketch_bits(&scalar[0]), sketch_bits(&vectorized[0]));
        let scalar = s.sketch_many(three, KernelMode::Scalar).unwrap();
        let vectorized = s.sketch_many(three, KernelMode::Vectorized).unwrap();
        for (x, y) in scalar.iter().zip(&vectorized) {
            prop_assert_eq!(sketch_bits(x), sketch_bits(y));
        }
    }
}
