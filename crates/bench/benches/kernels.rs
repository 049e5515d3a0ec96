//! The kernel baseline suite: scalar-reference vs. vectorized throughput for the
//! sketching hot loops, plus dispatched per-method baselines for sketch-build, merge,
//! and estimate — the trajectory future PRs regress against.
//!
//! Every row is timed by [`Timer`]: the arms of each ratio run interleaved, round by
//! round, and each keeps its best round, so both arms see the same machine
//! conditions.  The suite writes its profile of `target/bench-reports/BENCH_kernels.json`
//! (override the path with `IPSKETCH_BENCH_OUT`; the committed `BENCH_kernels.json` at
//! the repository root is refreshed only by naming it there), with these members:
//!
//! * `results` — one `{group, method, variant, ns_per_iter}` row per timed arm;
//! * `kernel_speedups` — scalar-twin time over vectorized-twin time per kernel
//!   (bit-for-bit identical implementations, so this isolates the restructuring win),
//!   plus `sketch_build/WMH_v2_column`: a column's three vectors sketched by three
//!   vectorized sweeps over one shared replay, and `estimate_column/{WMH,CS}`: a
//!   column pair's six products by six sequential calls (per-repetition dot products
//!   for CS) over one fused call; gated ≥0.90× under `IPSKETCH_BENCH_ENFORCE=1`;
//! * `format_speedups` — the format-v2 kernel win: v1-stream time over v2-stream
//!   time for the WMH custom-ln sketch-build (vectorized twin vs twin), gated ≥1.5×;
//! * `end_to_end_speedups` — table-scale sketch-build, sequential scalar kernels
//!   vs. the work-claiming runner driving vectorized kernels — the speedup a user
//!   of the build path actually observes.
//!
//! Environment knobs:
//!
//! * `IPSKETCH_BENCH_QUICK=1` — CI-sized inputs and short rounds, written under the
//!   `quick` profile;
//! * `IPSKETCH_BENCH_ENFORCE=1` — exit non-zero if any vectorized kernel is more than
//!   10% slower than its scalar reference, or format v2 under 1.5× (the CI
//!   `bench-baseline` gate).

use ipsketch_bench::report::{self, fixed, BenchReport, Floor, Profile, Timer};
use ipsketch_core::countsketch::{CountSketch, CountSketcher};
use ipsketch_core::jl::JlSketcher;
use ipsketch_core::kernel::{dot_scalar, dot_unrolled, KernelMode};
use ipsketch_core::method::{
    AnySketch, AnySketcher, SketchMethod, COLUMN_PAIR_PRODUCTS, DEFAULT_WMH_DISCRETIZATION,
};
use ipsketch_core::runner::parallel_map;
use ipsketch_core::storage::{
    countsketch_buckets_for_budget, jl_rows_for_budget, wmh_samples_for_budget,
};
use ipsketch_core::traits::Sketcher;
use ipsketch_core::wmh::{WeightedMinHasher, WmhStream};
use ipsketch_data::SyntheticPairConfig;
use ipsketch_serve::wire::Json;
use ipsketch_vector::SparseVector;
use std::hint::black_box;
use std::time::Duration;

const SEED: u64 = 7;

struct Config {
    dimension: u64,
    nonzeros: usize,
    budget_doubles: f64,
    table_vectors: usize,
    timer: Timer,
}

impl Config {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                dimension: 2_000,
                nonzeros: 200,
                budget_doubles: 200.0,
                table_vectors: 4,
                timer: Timer {
                    reps: 15,
                    round: Duration::from_millis(20),
                },
            }
        } else {
            // Paper-scale: the Figure 4–6 regime (nnz 2000 vectors, budget 400
            // double-equivalents per sketch).
            Self {
                dimension: 10_000,
                nonzeros: 2_000,
                budget_doubles: 400.0,
                table_vectors: 8,
                timer: Timer {
                    reps: 7,
                    round: Duration::from_millis(100),
                },
            }
        }
    }
}

/// Times one group's arms interleaved and records a `results` row per arm.
struct Rows {
    timer: Timer,
    results: Vec<Json>,
}

impl Rows {
    fn time<const N: usize>(
        &mut self,
        (group, method): (&str, &str),
        variants: [&str; N],
        arms: [&mut dyn FnMut(); N],
    ) -> [f64; N] {
        let ns = self.timer.best_ns(arms);
        for (variant, ns) in variants.into_iter().zip(ns) {
            self.results.push(Json::Obj(vec![
                ("group".into(), Json::str(group)),
                ("method".into(), Json::str(method)),
                ("variant".into(), Json::str(variant)),
                ("ns_per_iter".into(), fixed(ns, 1)),
            ]));
        }
        ns
    }
}

/// A timed arm: calls `f` and keeps its result from being optimized away.
fn arm<T>(mut f: impl FnMut() -> T) -> impl FnMut() {
    move || {
        black_box(f());
    }
}

/// A ratio row: the first arm's time over the second's.
fn speedup(row: impl Into<String>, [s, v]: [f64; 2]) -> (String, f64) {
    (row.into(), s / v)
}

/// A CountSketch estimate as one dot product per repetition, collected and sorted
/// for the median — the per-call shape the interleaved estimator replaces.
fn per_repetition_median(x: &CountSketch, y: &CountSketch) -> f64 {
    let mut estimates: Vec<f64> = (0..x.repetitions())
        .map(|rep| dot_unrolled(x.repetition(rep), y.repetition(rep)))
        .collect();
    estimates.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
    let n = estimates.len();
    if n % 2 == 1 {
        estimates[n / 2]
    } else {
        (estimates[n / 2 - 1] + estimates[n / 2]) / 2.0
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let report = BenchReport::open(
        "BENCH_kernels.json",
        "cargo bench -p ipsketch-bench --bench kernels",
    );
    let cfg = Config::new(report.profile() == Profile::Quick);
    let threads = ipsketch_core::runner::default_threads();
    let mut rows = Rows {
        timer: cfg.timer,
        results: Vec::new(),
    };
    let twin = ["scalar", "vectorized"];
    let generate = |seed| {
        SyntheticPairConfig {
            dimension: cfg.dimension,
            nonzeros: cfg.nonzeros,
            overlap: 0.1,
            ..SyntheticPairConfig::default()
        }
        .generate(seed)
        .expect("valid configuration")
    };
    let pair = generate(SEED);
    let (va, vb) = (pair.a, pair.b);

    // ---- Scalar-twin vs vectorized-twin kernel pairs (bit-for-bit identical). ----
    let mut kernel_speedups: Vec<(String, f64)> = Vec::new();

    let jl = JlSketcher::new(jl_rows_for_budget(cfg.budget_doubles), SEED).expect("rows >= 1");
    let cs = CountSketcher::new(countsketch_buckets_for_budget(cfg.budget_doubles), SEED)
        .expect("buckets >= 1");
    let samples = wmh_samples_for_budget(cfg.budget_doubles);
    let wmh =
        WeightedMinHasher::new(samples, SEED, DEFAULT_WMH_DISCRETIZATION).expect("samples >= 1");
    // The format-v2 WMH record stream (custom deterministic ln): same sampler, same
    // statistical guarantees, bit-incompatible sketches.
    let wmh_v2 =
        WeightedMinHasher::with_stream(samples, SEED, DEFAULT_WMH_DISCRETIZATION, WmhStream::V2)
            .expect("samples >= 1");
    let ns = [
        rows.time(
            ("sketch_build", "JL"),
            twin,
            [
                &mut arm(|| jl.sketch_scalar(&va).expect("sketchable")),
                &mut arm(|| jl.sketch(&va).expect("sketchable")),
            ],
        ),
        rows.time(
            ("sketch_build", "CS"),
            twin,
            [
                &mut arm(|| cs.sketch_scalar(&va).expect("sketchable")),
                &mut arm(|| cs.sketch(&va).expect("sketchable")),
            ],
        ),
        rows.time(
            ("sketch_build", "WMH"),
            twin,
            [
                &mut arm(|| wmh.sketch_scalar(&va).expect("sketchable")),
                &mut arm(|| wmh.sketch(&va).expect("sketchable")),
            ],
        ),
        rows.time(
            ("sketch_build", "WMH_v2"),
            twin,
            [
                &mut arm(|| wmh_v2.sketch_scalar(&va).expect("sketchable")),
                &mut arm(|| wmh_v2.sketch(&va).expect("sketchable")),
            ],
        ),
    ];
    for (kernel, ns) in ["JL", "CS", "WMH", "WMH_v2"].into_iter().zip(ns) {
        kernel_speedups.push(speedup(format!("sketch_build/{kernel}"), ns));
    }
    // The vectorized v2-over-v1 ratio, timed as its own interleaved pair, is the
    // format-v2 sketch-build win.
    let ns = rows.time(
        ("sketch_build_format", "WMH"),
        ["v1_vectorized", "v2_vectorized"],
        [
            &mut arm(|| wmh.sketch(&va).expect("sketchable")),
            &mut arm(|| wmh_v2.sketch(&va).expect("sketchable")),
        ],
    );
    let format_speedups = vec![speedup("sketch_build/WMH_v2_over_v1", ns)];

    // One column's three Figure-3 vectors (key indicator, values, squared values),
    // sketched as three vectorized v2 sweeps against one pass that replays each
    // `(sample, key)` stream once for all three.  Both arms are bit-identical, so the
    // row gates like a kernel twin.
    let triple = |v: &SparseVector| {
        let indicator = SparseVector::from_pairs(v.iter().map(|(i, _)| (i, 1.0)));
        let squared = SparseVector::from_pairs(v.iter().map(|(i, x)| (i, x * x)));
        [
            indicator.expect("finite"),
            v.clone(),
            squared.expect("finite"),
        ]
    };
    let (column_a, column_b) = (triple(&va), triple(&vb));
    let column = column_a.each_ref();
    let ns = rows.time(
        ("sketch_build", "WMH_v2_column"),
        ["three_sweeps", "one_replay"],
        [
            &mut arm(|| column.map(|v| wmh_v2.sketch(v).expect("sketchable"))),
            &mut arm(|| {
                let many = column.map(|v| (v, None));
                wmh_v2
                    .sketch_many(many, KernelMode::Vectorized)
                    .expect("sketchable")
            }),
        ],
    );
    kernel_speedups.push(speedup("sketch_build/WMH_v2_column", ns));

    // Estimator dot product (the JL / CountSketch estimate kernel).
    let (ja, jb) = (
        jl.sketch(&va).expect("sketchable"),
        jl.sketch(&vb).expect("sketchable"),
    );
    let ns = rows.time(
        ("estimate_dot", "JL"),
        twin,
        [
            &mut arm(|| dot_scalar(ja.rows(), jb.rows())),
            &mut arm(|| dot_unrolled(ja.rows(), jb.rows())),
        ],
    );
    kernel_speedups.push(speedup("estimate_dot/JL", ns));

    // One (query, candidate) column pair's six post-join products, as six sequential
    // calls against one fused call — bit-identical arms, so each row gates like a
    // kernel twin.  WMH (at the suite's budget) fuses the six Algorithm-5 passes into
    // one; CountSketch, at the serving companion's 256 buckets × 5 repetitions,
    // interleaves each call's per-repetition dot products.
    let pair_sketchers = [
        AnySketcher::for_budget(SketchMethod::WeightedMinHash, cfg.budget_doubles, SEED)
            .expect("budget fits"),
        AnySketcher::CountSketch(CountSketcher::new(256, SEED).expect("buckets >= 1")),
    ];
    for sketcher in &pair_sketchers {
        let [qa, qb] = [&column_a, &column_b].map(|col| {
            col.each_ref()
                .map(|v| sketcher.sketch(v).expect("sketchable"))
        });
        let (qa, qb) = (qa.each_ref(), qb.each_ref());
        let label = sketcher.method().label();
        let baseline = match sketcher {
            AnySketcher::CountSketch(_) => "per_repetition_dots",
            _ => "six_calls",
        };
        let ns = rows.time(
            ("estimate_column", label),
            [baseline, "fused"],
            [
                &mut arm(|| {
                    COLUMN_PAIR_PRODUCTS.map(|(i, j)| match (qa[i], qb[j]) {
                        (AnySketch::CountSketch(x), AnySketch::CountSketch(y)) => {
                            per_repetition_median(x, y)
                        }
                        (x, y) => sketcher.estimate_inner_product(x, y).expect("compatible"),
                    })
                }),
                &mut arm(|| sketcher.estimate_column_pair(qa, qb).expect("compatible")),
            ],
        );
        kernel_speedups.push(speedup(format!("estimate_column/{label}"), ns));
    }

    // ---- Dispatched per-method baselines: sketch-build, merge, estimate. ----
    for method in SketchMethod::paper_baselines() {
        let sketcher =
            AnySketcher::for_budget(method, cfg.budget_doubles, SEED).expect("budget fits");
        let label = method.label();
        // Merge two announced-norm partials of the same vector (the distributed fold).
        let pairs: Vec<(u64, f64)> = va.iter().collect();
        let (left, right) = pairs.split_at(pairs.len() / 2);
        let partial = |half: &[(u64, f64)]| {
            let half = SparseVector::from_pairs(half.iter().copied()).expect("well formed");
            sketcher.sketch_partial(&half, va.norm()).expect("partial")
        };
        let (pa, pb) = (partial(left), partial(right));
        let (sa, sb) = (sketcher.sketch(&va), sketcher.sketch(&vb));
        let (sa, sb) = (sa.expect("sketchable"), sb.expect("sketchable"));
        rows.time(
            ("sketch_build_dispatch", label),
            ["default"],
            [&mut arm(|| sketcher.sketch(&va).expect("sketchable"))],
        );
        rows.time(
            ("merge", label),
            ["default"],
            [&mut arm(|| {
                sketcher.merge_sketches(&pa, &pb).expect("mergeable")
            })],
        );
        rows.time(
            ("estimate", label),
            ["default"],
            [&mut arm(|| {
                sketcher
                    .estimate_inner_product(&sa, &sb)
                    .expect("compatible")
            })],
        );
    }

    // ---- End-to-end: table-scale sketch-build, sequential scalar vs the runner. ----
    let table: Vec<SparseVector> = (0..cfg.table_vectors as u64)
        .map(|i| generate(SEED + i).a)
        .collect();
    let ns = rows.time(
        ("table_build", "JL"),
        ["seq_scalar", "par_vectorized"],
        [
            &mut arm(|| {
                table
                    .iter()
                    .map(|v| jl.sketch_scalar(v).expect("sketchable"))
                    .collect::<Vec<_>>()
            }),
            &mut arm(|| parallel_map(&table, threads, |v| jl.sketch(v).expect("sketchable"))),
        ],
    );
    let mut end_to_end = vec![speedup("table_build/JL", ns)];
    let ns = rows.time(
        ("table_build", "WMH"),
        ["seq_scalar", "par_vectorized"],
        [
            &mut arm(|| {
                table
                    .iter()
                    .map(|v| wmh.sketch_scalar(v).expect("sketchable"))
                    .collect::<Vec<_>>()
            }),
            &mut arm(|| parallel_map(&table, threads, |v| wmh.sketch(v).expect("sketchable"))),
        ],
    );
    end_to_end.push(speedup("table_build/WMH", ns));

    // ---- Export + gate. ----
    let map = |ratios: &[(String, f64)]| {
        Json::Obj(
            ratios
                .iter()
                .map(|(k, r)| (k.clone(), fixed(*r, 2)))
                .collect(),
        )
    };
    let parameters = Json::Obj(vec![
        ("dimension".into(), Json::u64(cfg.dimension)),
        ("nonzeros".into(), Json::u64(cfg.nonzeros as u64)),
        ("budget_doubles".into(), Json::f64(cfg.budget_doubles)),
        ("seed".into(), Json::u64(SEED)),
        ("table_vectors".into(), Json::u64(cfg.table_vectors as u64)),
        ("threads".into(), Json::u64(threads as u64)),
        ("reps".into(), Json::u64(cfg.timer.reps as u64)),
        (
            "round_ms".into(),
            Json::u64(cfg.timer.round.as_millis() as u64),
        ),
    ]);
    report
        .write(&[
            ("parameters", parameters),
            ("results", Json::Arr(rows.results)),
            ("kernel_speedups", map(&kernel_speedups)),
            ("format_speedups", map(&format_speedups)),
            ("end_to_end_speedups", map(&end_to_end)),
        ])
        .expect("BENCH_kernels.json is writable");

    // Twins: 10% tolerance, so the gate catches real regressions, not scheduler
    // noise.  Format v2: the custom-ln stream must build WMH sketches at least 1.5x
    // faster than the v1 libm stream (vectorized twin vs twin).
    let mut floors = Vec::new();
    for (label, ratios, floor) in [
        ("kernel", &kernel_speedups, Some(0.90)),
        ("format", &format_speedups, Some(1.5)),
        ("end-to-end", &end_to_end, None),
    ] {
        for (row, speedup) in ratios {
            println!("{label} speedup {row}: {speedup:.2}x");
            floors.extend(floor.map(|floor| Floor {
                row: row.clone(),
                measured: Some(*speedup),
                floor,
            }));
        }
    }
    report::enforce(&floors);
}
