//! Bit-identity of the column-pair estimation entry point: the six products of a
//! (query, candidate) column pair computed in one pass
//! (`WeightedMinHasher::estimate_column_pair`, `AnySketcher::estimate_column_pair`)
//! must be exactly — result or first error — six sequential `estimate_inner_product`
//! calls, and the interleaved CountSketch estimator must be exactly the median of
//! per-repetition dot products.

use ipsketch_core::countsketch::{CountSketch, CountSketcher};
use ipsketch_core::kernel::{dot_scalar, dot_unrolled};
use ipsketch_core::method::{AnySketch, AnySketcher, SketchMethod, COLUMN_PAIR_PRODUCTS};
use ipsketch_core::serialize::BinarySketch;
use ipsketch_core::traits::Sketcher;
use ipsketch_core::wmh::{WeightedMinHashSketch, WeightedMinHasher, WmhStream};
use ipsketch_core::SketchError;
use ipsketch_vector::SparseVector;

/// Crosses the 64-sample mask boundary on both sides.
const SAMPLE_COUNTS: [usize; 7] = [1, 2, 63, 64, 65, 266, 682];

/// The three Figure-3 vectors of a column: key indicator, values, squared values.
fn column(rows: &[(u64, f64)]) -> [SparseVector; 3] {
    let pairs = |f: fn(f64) -> f64| {
        SparseVector::from_pairs(rows.iter().map(|&(k, v)| (k, f(v)))).expect("finite")
    };
    [pairs(|_| 1.0), pairs(|v| v), pairs(|v| v * v)]
}

/// Rows `lo..lo + n` with negative values, zeros, and entries far below a coarse
/// grid next to a dominant one.
fn rows(lo: u64, n: u64) -> Vec<(u64, f64)> {
    (lo..lo + n)
        .map(|k| {
            let v = match k % 9 {
                0 => -3.5,
                1 => 1e-4,
                2 => 0.0,
                3 => 250.0,
                _ => (k % 13) as f64 - 6.0,
            };
            (k, v)
        })
        .collect()
}

/// Query and candidate columns from disjoint to identical (where every sample
/// collides), plus a single-row column.
fn column_pairs() -> Vec<([SparseVector; 3], [SparseVector; 3])> {
    let query = || column(&rows(0, 40));
    vec![
        (query(), column(&rows(1_000, 40))),
        (query(), column(&rows(30, 40))),
        (query(), column(&rows(10, 25))),
        (query(), column(&rows(0, 40))),
        (column(&[(5, -2.0)]), column(&rows(0, 12))),
    ]
}

/// Both record streams, at a coarse grid (some entries fall below it) and at the
/// serving default.
fn sketchers(m: usize) -> Vec<WeightedMinHasher> {
    let mut out = Vec::new();
    for stream in [WmhStream::V1, WmhStream::V2] {
        for l in [1u64 << 10, 1 << 24] {
            out.push(WeightedMinHasher::with_stream(m, 0xFEED, l, stream).expect("valid"));
        }
    }
    out
}

fn sketch_column(s: &WeightedMinHasher, vectors: &[SparseVector; 3]) -> [WeightedMinHashSketch; 3] {
    vectors.each_ref().map(|v| s.sketch(v).expect("sketchable"))
}

/// Six sequential calls in `COLUMN_PAIR_PRODUCTS` order, stopping at the first error.
fn sequential<S: Sketcher>(
    s: &S,
    a: [&S::Output; 3],
    b: [&S::Output; 3],
) -> Result<[f64; 6], SketchError> {
    let mut out = [0.0; 6];
    for (slot, (i, j)) in out.iter_mut().zip(COLUMN_PAIR_PRODUCTS) {
        *slot = s.estimate_inner_product(a[i], b[j])?;
    }
    Ok(out)
}

/// Results as bit patterns, so `-0.0 != 0.0` and NaNs compare.
fn bits(r: Result<[f64; 6], SketchError>) -> Result<[u64; 6], SketchError> {
    r.map(|p| p.map(f64::to_bits))
}

#[test]
fn fused_pass_matches_six_estimate_calls() {
    for m in SAMPLE_COUNTS {
        for s in sketchers(m) {
            let any = AnySketcher::WeightedMinHash(s);
            for (qa, qb) in column_pairs() {
                let (a, b) = (sketch_column(&s, &qa), sketch_column(&s, &qb));
                let (a, b) = (a.each_ref(), b.each_ref());
                let reference = bits(sequential(&s, a, b));
                assert!(reference.is_ok(), "fixtures are well formed");
                assert_eq!(
                    bits(s.estimate_column_pair(a, b)),
                    reference,
                    "m {m} {:?}",
                    s.params()
                );
                let (wa, wb) = (
                    a.map(|x| AnySketch::WeightedMinHash(x.clone())),
                    b.map(|x| AnySketch::WeightedMinHash(x.clone())),
                );
                assert_eq!(
                    bits(any.estimate_column_pair(wa.each_ref(), wb.each_ref())),
                    reference
                );
            }
        }
    }
}

#[test]
fn identical_columns_collide_on_every_sample() {
    let s = WeightedMinHasher::with_stream(266, 3, 1 << 24, WmhStream::V2).expect("valid");
    let col = sketch_column(&s, &column(&rows(0, 50)));
    let col = col.each_ref();
    let fused = s.estimate_column_pair(col, col).expect("well formed");
    assert_eq!(bits(Ok(fused)), bits(sequential(&s, col, col)));
}

/// Byte offset of the hash of sample `k` in a serialized WMH sketch: header (6),
/// samples, seed and discretization (8 each), variant tag (1), norm (8), then the
/// length-prefixed hashes.
fn hash_offset(k: usize) -> usize {
    6 + 8 + 8 + 8 + 1 + 8 + 8 + 8 * k
}

/// Ways a stored sketch can be malformed, each built through the decoder the way a
/// damaged blob arrives.
#[derive(Debug, Clone, Copy)]
enum Damage {
    NanHash,
    InfiniteHash,
    HashAboveOne,
    NegativeHash,
    ForeignParams,
    WrongLength,
}

const DAMAGES: [Damage; 6] = [
    Damage::NanHash,
    Damage::InfiniteHash,
    Damage::HashAboveOne,
    Damage::NegativeHash,
    Damage::ForeignParams,
    Damage::WrongLength,
];

fn damage(
    s: &WeightedMinHasher,
    sketch: &WeightedMinHashSketch,
    how: Damage,
) -> WeightedMinHashSketch {
    let m = sketch.hashes().len();
    let patch = |k: usize, value: f64| {
        let mut bytes = sketch.to_bytes().to_vec();
        bytes[hash_offset(k)..hash_offset(k) + 8].copy_from_slice(&value.to_le_bytes());
        WeightedMinHashSketch::from_bytes(&bytes).expect("layout is preserved")
    };
    match how {
        Damage::NanHash => patch(m / 2, f64::NAN),
        Damage::InfiniteHash => patch(m / 3, f64::INFINITY),
        Damage::HashAboveOne => patch(m - 1, 1.5),
        Damage::NegativeHash => patch(0, -0.25),
        Damage::ForeignParams => {
            let foreign = WeightedMinHasher::with_stream(
                s.samples(),
                s.seed() ^ 1,
                s.discretization(),
                s.stream(),
            )
            .expect("valid");
            foreign
                .sketch(&column(&rows(0, 20))[1])
                .expect("sketchable")
        }
        Damage::WrongLength => {
            let shorter =
                WeightedMinHasher::with_stream(m + 1, s.seed(), s.discretization(), s.stream())
                    .expect("valid");
            shorter
                .sketch(&column(&rows(0, 20))[1])
                .expect("sketchable")
        }
    }
}

#[test]
fn a_malformed_sketch_yields_the_sequential_result_or_first_error() {
    for m in [1usize, 65, 266] {
        let s = WeightedMinHasher::with_stream(m, 11, 1 << 24, WmhStream::V2).expect("valid");
        for (qa, qb) in column_pairs() {
            let (a, b) = (sketch_column(&s, &qa), sketch_column(&s, &qb));
            for how in DAMAGES {
                for slot in 0..6 {
                    let mut six: Vec<WeightedMinHashSketch> = a.iter().chain(&b).cloned().collect();
                    six[slot] = damage(&s, &six[slot], how);
                    let a = [&six[0], &six[1], &six[2]];
                    let b = [&six[3], &six[4], &six[5]];
                    let reference = bits(sequential(&s, a, b));
                    assert_eq!(
                        bits(s.estimate_column_pair(a, b)),
                        reference,
                        "m {m} {how:?} in slot {slot}"
                    );
                }
            }
            // A hash above 1 on one side alone still leaves every minimum in range,
            // so the sequential calls succeed; on both sides of one product they
            // fail the union estimator.
            for (x, y) in [(0, 3), (1, 3), (2, 3), (0, 4), (0, 5), (1, 4)] {
                let mut six: Vec<WeightedMinHashSketch> = a.iter().chain(&b).cloned().collect();
                six[x] = damage(&s, &six[x], Damage::HashAboveOne);
                six[y] = damage(&s, &six[y], Damage::HashAboveOne);
                let (a, b) = ([&six[0], &six[1], &six[2]], [&six[3], &six[4], &six[5]]);
                assert_eq!(
                    bits(s.estimate_column_pair(a, b)),
                    bits(sequential(&s, a, b)),
                    "m {m} above one in slots {x} and {y}"
                );
            }
            // Two damaged sketches: still the first error of the sequential order.
            let mut six: Vec<WeightedMinHashSketch> = a.iter().chain(&b).cloned().collect();
            six[5] = damage(&s, &six[5], Damage::NanHash);
            six[1] = damage(&s, &six[1], Damage::ForeignParams);
            let (a, b) = ([&six[0], &six[1], &six[2]], [&six[3], &six[4], &six[5]]);
            assert!(matches!(
                s.estimate_column_pair(a, b),
                Err(SketchError::IncompatibleSketches { .. })
            ));
            assert_eq!(
                bits(s.estimate_column_pair(a, b)),
                bits(sequential(&s, a, b))
            );
        }
    }
}

#[test]
fn mixed_methods_fail_like_the_sequential_calls() {
    let wmh = AnySketcher::for_budget(SketchMethod::WeightedMinHash, 200.0, 1).expect("fits");
    let jl = AnySketcher::for_budget(SketchMethod::Jl, 200.0, 1).expect("fits");
    let col = column(&rows(0, 30));
    let w = col.each_ref().map(|v| wmh.sketch(v).expect("sketchable"));
    let mut mixed = w.clone();
    mixed[2] = jl.sketch(&col[2]).expect("sketchable");
    let fused = wmh.estimate_column_pair(w.each_ref(), mixed.each_ref());
    assert!(matches!(
        fused,
        Err(SketchError::IncompatibleSketches { .. })
    ));
    assert_eq!(
        bits(fused),
        bits(sequential(&wmh, w.each_ref(), mixed.each_ref()))
    );
}

#[test]
fn every_method_matches_six_estimate_calls() {
    let (qa, qb) = (column(&rows(0, 40)), column(&rows(30, 40)));
    for method in SketchMethod::all() {
        let s = AnySketcher::for_budget(method, 300.0, 5).expect("fits");
        let a = qa.each_ref().map(|v| s.sketch(v).expect("sketchable"));
        let b = qb.each_ref().map(|v| s.sketch(v).expect("sketchable"));
        let (a, b) = (a.each_ref(), b.each_ref());
        assert_eq!(
            bits(s.estimate_column_pair(a, b)),
            bits(sequential(&s, a, b)),
            "{method:?}"
        );
    }
}

/// The median of per-repetition dot products, computed the straightforward way.
fn per_repetition_median(x: &CountSketch, y: &CountSketch, dot: fn(&[f64], &[f64]) -> f64) -> f64 {
    let mut estimates: Vec<f64> = (0..x.repetitions())
        .map(|rep| dot(x.repetition(rep), y.repetition(rep)))
        .collect();
    estimates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = estimates.len();
    if n % 2 == 1 {
        estimates[n / 2]
    } else {
        (estimates[n / 2 - 1] + estimates[n / 2]) / 2.0
    }
}

#[test]
fn interleaved_countsketch_matches_per_repetition_dots() {
    let [_, qa, _] = column(&rows(0, 40));
    let [_, qb, _] = column(&rows(25, 40));
    let [_, far, _] = column(&rows(5_000, 3));
    let empty = SparseVector::from_pairs(std::iter::empty()).expect("empty is valid");
    for repetitions in 1..=8 {
        for buckets in [1usize, 3, 4, 5, 256] {
            let s = CountSketcher::with_repetitions(buckets, repetitions, 9).expect("valid");
            let sketches: Vec<CountSketch> = [&qa, &qb, &far, &empty]
                .iter()
                .map(|v| s.sketch(v).expect("sketchable"))
                .collect();
            for x in &sketches {
                for y in &sketches {
                    let got = s
                        .estimate_inner_product(x, y)
                        .expect("compatible")
                        .to_bits();
                    for dot in [dot_scalar, dot_unrolled] {
                        assert_eq!(
                            got,
                            per_repetition_median(x, y, dot).to_bits(),
                            "{repetitions} × {buckets}"
                        );
                    }
                }
            }
        }
    }
}
