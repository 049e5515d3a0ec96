//! Bit-identity of the column-level sketching entry point: sketching a column's three
//! Figure-3 vectors in one pass (`WeightedMinHasher::sketch_many`,
//! `AnySketcher::sketch_triple`) must give exactly the sketches — and the first
//! error — of three separate per-vector calls.

use ipsketch_core::kernel::KernelMode;
use ipsketch_core::method::{AnySketch, AnySketcher, SketchMethod, SketchPath};
use ipsketch_core::traits::Sketcher;
use ipsketch_core::wmh::{WeightedMinHashSketch, WeightedMinHasher, WmhStream};
use ipsketch_vector::SparseVector;
use proptest::prelude::*;

const MODES: [KernelMode; 2] = [KernelMode::Scalar, KernelMode::Vectorized];
const SAMPLE_COUNTS: [usize; 8] = [1, 2, 3, 4, 5, 7, 33, 266];

/// A sketch as comparable bit patterns: hashes, values, norm.
fn bits(s: &WeightedMinHashSketch) -> (Vec<u64>, Vec<u64>, u64) {
    (
        s.hashes().iter().map(|x| x.to_bits()).collect(),
        s.values().iter().map(|x| x.to_bits()).collect(),
        s.norm().to_bits(),
    )
}

fn any_bits(s: &AnySketch) -> (Vec<u64>, Vec<u64>, u64) {
    match s {
        AnySketch::WeightedMinHash(w) => bits(w),
        other => panic!("expected a WMH sketch, got {other:?}"),
    }
}

/// The three Figure-3 vectors of a column: key indicator, values, squared values.
/// Zero values drop out of the last two supports, exactly as the join crate builds
/// them.
fn column(rows: &[(u64, f64)]) -> [SparseVector; 3] {
    let pairs = |f: fn(f64) -> f64| {
        SparseVector::from_pairs(rows.iter().map(|&(k, v)| (k, f(v)))).expect("finite")
    };
    [pairs(|_| 1.0), pairs(|v| v), pairs(|v| v * v)]
}

/// Columns whose three supports differ: zero values, entries that round below a
/// coarse 1/L grid (in the values, the squared values, or both), a dominant entry
/// absorbing Algorithm 4's lost mass, and single-row columns.
fn fixtures() -> Vec<[SparseVector; 3]> {
    vec![
        column(&[(42, 3.0)]),
        column(&[(7, -0.5)]),
        column(&[(1, 2.0), (3, 0.0), (4, -1.5), (9, 0.0), (12, 4.0)]),
        column(&[
            (0, 1000.0),
            (1, 0.01),
            (2, 1.0),
            (5, 0.2),
            (8, -30.0),
            (13, 0.0),
        ]),
        column(
            &(0..120u64)
                .map(|k| {
                    (
                        k * 3,
                        if k % 7 == 0 {
                            0.0
                        } else {
                            (k % 11) as f64 - 5.0
                        },
                    )
                })
                .collect::<Vec<_>>(),
        ),
    ]
}

/// The sketchers under test: both record streams, at a coarse grid (so some entries
/// fall below it) and at the serving default.
fn sketchers(m: usize) -> Vec<WeightedMinHasher> {
    let mut out = Vec::new();
    for stream in [WmhStream::V1, WmhStream::V2] {
        for l in [1u64 << 12, 1 << 24] {
            out.push(WeightedMinHasher::with_stream(m, 0xC0FFEE, l, stream).expect("valid"));
        }
    }
    out
}

#[test]
fn one_replay_matches_three_sketch_calls() {
    for m in SAMPLE_COUNTS {
        for s in sketchers(m) {
            for [key, values, squared] in fixtures() {
                let vectors = [&key, &values, &squared];
                let reference: Vec<_> = vectors
                    .iter()
                    .map(|v| bits(&s.sketch_scalar(v).expect("sketchable")))
                    .collect();
                for v in vectors {
                    assert_eq!(
                        bits(&s.sketch(v).unwrap()),
                        bits(&s.sketch_scalar(v).unwrap())
                    );
                }
                for mode in MODES {
                    let joint = s
                        .sketch_many(vectors.map(|v| (v, None)), mode)
                        .expect("sketchable");
                    let joint: Vec<_> = joint.iter().map(bits).collect();
                    assert_eq!(joint, reference, "m {m} {:?} {mode:?}", s.params());
                }
            }
        }
    }
}

#[test]
fn one_replay_matches_three_partition_calls() {
    // Announced norms floor every entry onto the grid (no mass absorption), and a
    // norm above the vector's own pushes more entries below the grid.
    for m in SAMPLE_COUNTS {
        for s in sketchers(m) {
            for [key, values, squared] in fixtures() {
                let vectors = [&key, &values, &squared];
                for stretch in [1.0, 3.0, 1e4] {
                    let inputs = vectors.map(|v| (v, Some(v.norm().max(1.0) * stretch)));
                    let reference: Vec<_> = inputs
                        .iter()
                        .map(|&(v, norm)| {
                            let [alone] = s
                                .sketch_many([(v, norm)], KernelMode::Scalar)
                                .expect("sketchable");
                            assert_eq!(alone, s.sketch_partition(v, norm.unwrap()).unwrap());
                            bits(&alone)
                        })
                        .collect();
                    for mode in MODES {
                        let joint = s.sketch_many(inputs, mode).expect("sketchable");
                        let joint: Vec<_> = joint.iter().map(bits).collect();
                        assert_eq!(joint, reference, "m {m} stretch {stretch} {mode:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn sketch_triple_matches_three_calls_on_every_path() {
    for m in SAMPLE_COUNTS {
        let sketcher = AnySketcher::WeightedMinHash(
            WeightedMinHasher::with_stream(m, 7, 1 << 12, WmhStream::V2).expect("valid"),
        );
        for [key, values, squared] in fixtures() {
            let vectors = [&key, &values, &squared];
            let norms = vectors.map(|v| v.norm() * 1.5);
            for path in [
                SketchPath::OneShot,
                SketchPath::Chunked(1),
                SketchPath::Chunked(2),
                SketchPath::Chunked(5),
                SketchPath::Announced(norms),
            ] {
                let separate: Vec<_> = (0..3)
                    .map(|i| {
                        let sketch = match path {
                            SketchPath::OneShot => sketcher.sketch(vectors[i]),
                            SketchPath::Chunked(p) => sketcher.sketch_chunked(vectors[i], p),
                            SketchPath::Announced(n) => sketcher.sketch_partial(vectors[i], n[i]),
                        };
                        any_bits(&sketch.expect("sketchable"))
                    })
                    .collect();
                let joint = sketcher.sketch_triple(vectors, path).expect("sketchable");
                let joint: Vec<_> = joint.iter().map(any_bits).collect();
                assert_eq!(joint, separate, "m {m} {path:?}");
            }
        }
    }
}

#[test]
fn first_error_follows_vector_order() {
    // Key indicator, then values, then squared values: the joint path reports the
    // error the first failing separate call would, for every sketching method.
    let ok = SparseVector::from_pairs([(1, 2.0), (4, 3.0)]).expect("finite");
    let empty = SparseVector::new();
    let cases: Vec<([&SparseVector; 3], SketchPath)> = vec![
        ([&ok, &empty, &empty], SketchPath::OneShot),
        ([&empty, &ok, &ok], SketchPath::OneShot),
        ([&ok, &ok, &ok], SketchPath::Chunked(0)),
        ([&ok, &empty, &ok], SketchPath::Chunked(3)),
        // Values: announced norm below its own; squared values: not finite.
        (
            [&ok, &ok, &ok],
            SketchPath::Announced([10.0, 1.0, f64::NAN]),
        ),
        // Key indicator: not positive; values: below its own norm.
        ([&ok, &ok, &ok], SketchPath::Announced([0.0, 1.0, 10.0])),
        (
            [&empty, &ok, &ok],
            SketchPath::Announced([f64::INFINITY, 10.0, 100.0]),
        ),
    ];
    for method in SketchMethod::all() {
        let sketcher = AnySketcher::for_budget(method, 64.0, 3).expect("budget fits");
        for (vectors, path) in &cases {
            let separate = (|| -> Result<(), ipsketch_core::SketchError> {
                for (i, v) in vectors.iter().enumerate() {
                    match *path {
                        SketchPath::OneShot => sketcher.sketch(v)?,
                        SketchPath::Chunked(p) => sketcher.sketch_chunked(v, p)?,
                        SketchPath::Announced(n) => sketcher.sketch_partial(v, n[i])?,
                    };
                }
                Ok(())
            })();
            if method == SketchMethod::WeightedMinHash {
                assert!(separate.is_err(), "every case fails for WMH: {path:?}");
            }
            let joint = sketcher.sketch_triple(*vectors, *path).map(|_| ());
            assert_eq!(joint, separate, "{method:?} {path:?}");
        }
    }
}

/// A column of 1–40 rows over a small key space, with some zero and some tiny values.
fn random_column() -> impl Strategy<Value = [SparseVector; 3]> {
    proptest::collection::vec((0u64..500, 0u8..5, -20.0f64..20.0, -1e-3f64..1e-3), 1..40).prop_map(
        |mut rows| {
            rows.sort_by_key(|row| row.0);
            rows.dedup_by_key(|row| row.0);
            let rows: Vec<(u64, f64)> = rows
                .into_iter()
                .map(|(key, kind, value, tiny)| match kind {
                    0 => (key, 0.0),
                    1 => (key, tiny),
                    _ => (key, value),
                })
                .collect();
            column(&rows)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn joint_sketching_is_bit_identical_to_separate_calls(
        [key, values, squared] in random_column(),
        seed in any::<u64>(),
        m in 0usize..SAMPLE_COUNTS.len(),
        coarse in any::<bool>(),
        v1 in any::<bool>(),
        stretch in proptest::option::of(1.0f64..4.0),
    ) {
        let stream = if v1 { WmhStream::V1 } else { WmhStream::V2 };
        let l = if coarse { 1 << 10 } else { 1 << 24 };
        let s = WeightedMinHasher::with_stream(SAMPLE_COUNTS[m], seed, l, stream).unwrap();
        let vectors = [&key, &values, &squared];
        // An all-zero column has nothing to sketch but its key indicator; the join
        // crate rejects it before sketching, and so does this property.
        prop_assume!(!values.is_empty());
        let inputs = vectors.map(|v| (v, stretch.map(|k| v.norm() * k)));
        for mode in MODES {
            let joint = s.sketch_many(inputs, mode).unwrap();
            for (i, &(v, norm)) in inputs.iter().enumerate() {
                let alone = match norm {
                    None => s.sketch_scalar(v).unwrap(),
                    Some(n) => s.sketch_partition(v, n).unwrap(),
                };
                prop_assert_eq!(bits(&joint[i]), bits(&alone), "vector {} {:?}", i, mode);
            }
        }
    }
}
