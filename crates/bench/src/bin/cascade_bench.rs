//! Tiered-cascade benchmark: per-query latency of the flat primary scan vs the
//! cheap-sketch-prefiltered cascade, plus recall@k, over three workloads.
//!
//! ```sh
//! cargo run --release -p ipsketch-bench --bin cascade_bench
//! ```
//!
//! Workloads (all ingested into a WMH catalog with the default CountSketch
//! companion tier):
//!
//! * `synthetic` — sliding-window key ranges: candidates overlap the query on
//!   a smooth gradient from total to none, the easiest case for a prefilter;
//! * `worldbank` — the World-Bank-like lake ([`DataLakeConfig`]): clustered
//!   key windows and heavy-tailed values, the paper's joinability setting;
//! * `tfidf` — TF-IDF document vectors over a synthetic topical corpus: high
//!   dimension, low pairwise overlap. This is the cascade's worst case *by
//!   construction*: the pruning margin is the Table-1 bound
//!   `confidence·ε·√(rows_q·rows_c)`, which at the default companion
//!   (ε = 1/16, confidence 10) is ~62% of the largest possible key
//!   intersection — wider than any realistic document-overlap gap — so no
//!   candidate can be pruned and the cascade degenerates to the flat scan
//!   plus one cheap pass (≈ break-even latency, recall still exactly 1.0).
//!   The row records that degeneration honestly instead of hiding it.
//!
//! For each workload the same pre-sketched queries rank twice against the
//! catalog's index — the flat scan (every candidate pays the primary estimate)
//! and the cascade at the default confidence — and the report records mean/p50
//! per-query latency for both, the speedup, and recall@k of the cascade against
//! the flat scan (the contract says 1.0: at the default margin the cascade
//! answer *is* the flat answer, so anything else is a bug, not a tuning knob).
//! The timed calls are the index's tiers alone; sketching the query columns
//! (both tiers) happens before the clock starts.  Both answers are checked
//! against [`rank`], the path a served query takes.
//!
//! Results are written under a `quick` or `full` profile beside the committed
//! `BENCH_cascade.json`'s other profile (carried over verbatim) to
//! `target/bench-reports/BENCH_cascade.json`, through the harness the serve and
//! kernel suites share ([`ipsketch_bench::report`]). Environment knobs:
//!
//! * `IPSKETCH_BENCH_QUICK=1` — CI-sized runs under the `quick` profile;
//! * `IPSKETCH_BENCH_ENFORCE=1` — exit non-zero if any workload's measured
//!   speedup falls below 75% of the committed same-profile baseline, or if
//!   recall@k slips below 1.0;
//! * `IPSKETCH_BENCH_OUT` — write the merged report to this path instead.
//!   The committed file stays the enforcement baseline; a refresh of it names
//!   it here explicitly (`IPSKETCH_BENCH_OUT=$PWD/BENCH_cascade.json`).
//!
//! Committed-baseline convention: single runs on shared machines jitter, so
//! committed speedups are a conservative floor across repeated runs on the
//! reference machine, not one lucky run.

use ipsketch_bench::report::{self, fixed, mean, quantile, BenchReport, Floor};
use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_data::text::CorpusConfig;
use ipsketch_data::tfidf::{TfIdfConfig, TfIdfVectorizer};
use ipsketch_data::{Column, DataLakeConfig, Table};
use ipsketch_join::{RankedColumn, DEFAULT_CASCADE_CONFIDENCE};
use ipsketch_serve::service::{rank, Mode, RankRequest};
use ipsketch_serve::wire::Json;
use ipsketch_serve::QueryService;
use std::collections::BTreeSet;
use std::time::Instant;

const SEED: u64 = 7;
/// Primary sketch budget in doubles; the paper's serving scale, and large
/// enough that the per-candidate primary estimate is the flat scan's cost.
const PRIMARY_BUDGET: f64 = 1024.0;
const K: usize = 10;

struct Profile {
    /// Candidate tables per workload (documents, for `tfidf`).
    tables: usize,
    /// Distinct query columns per workload.
    queries: usize,
    /// Timed repetitions of each (query, path) pair.
    reps: usize,
}

impl Profile {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                tables: 48,
                queries: 3,
                reps: 20,
            }
        } else {
            Self {
                tables: 160,
                queries: 5,
                reps: 60,
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct WorkloadResult {
    workload: String,
    candidates: usize,
    flat_mean_us: f64,
    flat_p50_us: u64,
    cascade_mean_us: f64,
    cascade_p50_us: u64,
    speedup: f64,
    recall_at_k: f64,
}

/// One workload: candidate tables plus query tables (whose name never matches
/// a candidate's, so nothing is self-excluded from the ranking).
struct Workload {
    name: &'static str,
    tables: Vec<Table>,
    queries: Vec<Table>,
}

/// Sliding key windows over a shared universe: candidate `i` overlaps the
/// query on a smoothly shrinking range, reaching zero about halfway through.
fn synthetic_workload(profile: &Profile) -> Workload {
    let rows = 600u64;
    let step = 2 * rows / profile.tables as u64;
    let tables = (0..profile.tables)
        .map(|i| {
            let start = i as u64 * step;
            let values = (0..rows as u32)
                .map(|j| f64::from((j * 31) % 97) + 1.0)
                .collect();
            Table::new(
                format!("syn_{i:04}"),
                (start..start + rows).collect(),
                vec![Column::new("v", values)],
            )
            .expect("table")
        })
        .collect();
    let queries = (0..profile.queries)
        .map(|q| {
            let start = q as u64 * 50;
            let values = (0..rows as u32)
                .map(|j| f64::from((j * 13) % 89) + 1.0)
                .collect();
            Table::new(
                format!("benchq_{q}"),
                (start..start + rows).collect(),
                vec![Column::new("v", values)],
            )
            .expect("table")
        })
        .collect();
    Workload {
        name: "synthetic",
        tables,
        queries,
    }
}

/// The World-Bank-like lake; queries are copies of a few lake columns under a
/// non-candidate table name, so each has genuinely joinable partners.
fn worldbank_workload(profile: &Profile) -> Workload {
    let lake = DataLakeConfig {
        tables: profile.tables.min(96),
        columns_per_table: 2,
        min_rows: 200,
        max_rows: 900,
        key_universe: 4_000,
    }
    .generate(SEED)
    .expect("valid config");
    let tables: Vec<Table> = lake.tables().to_vec();
    let queries = tables
        .iter()
        .step_by((tables.len() / profile.queries).max(1))
        .take(profile.queries)
        .enumerate()
        .map(|(q, t)| {
            Table::new(
                format!("benchq_{q}"),
                t.keys().to_vec(),
                vec![Column::new("v", t.columns()[0].values.clone())],
            )
            .expect("table")
        })
        .collect();
    Workload {
        name: "worldbank",
        tables,
        queries,
    }
}

/// TF-IDF vectors of a topical corpus, one single-column table per document
/// (keys are vocabulary term ids, values are raw tf·idf weights — the
/// join-size setting; cosine-normalized weights would shrink every score far
/// below the row-count margin and the prefilter could never prune).
fn tfidf_workload(profile: &Profile) -> Workload {
    let corpus = CorpusConfig {
        documents: profile.tables + profile.queries,
        vocabulary: 2_000,
        ..CorpusConfig::default()
    }
    .generate(SEED)
    .expect("valid corpus");
    let docs: Vec<Vec<String>> = corpus.documents.iter().map(|d| d.tokens.clone()).collect();
    let vectorizer = TfIdfVectorizer::fit(
        &docs,
        TfIdfConfig {
            bigrams: false,
            normalize: false,
            min_document_frequency: 1,
        },
    )
    .expect("vectorizer fits");
    let vectors = vectorizer.vectorize_all(&docs);
    let mut tables = Vec::new();
    let mut queries = Vec::new();
    for (i, vector) in vectors.iter().enumerate() {
        if vector.nnz() == 0 {
            continue;
        }
        let column = Column::new("tfidf", vector.values().to_vec());
        if queries.len() < profile.queries {
            queries.push(
                Table::new(
                    format!("benchq_{i}"),
                    vector.indices().to_vec(),
                    vec![column],
                )
                .expect("table"),
            );
        } else {
            tables.push(
                Table::new(
                    format!("doc_{i:05}"),
                    vector.indices().to_vec(),
                    vec![column],
                )
                .expect("table"),
            );
        }
    }
    Workload {
        name: "tfidf",
        tables,
        queries,
    }
}

/// Recall@k of the cascade answer against the flat answer's column set.
fn recall(cascade: &[RankedColumn], flat: &[RankedColumn]) -> f64 {
    if flat.is_empty() {
        return 1.0;
    }
    let truth: BTreeSet<(&str, &str)> = flat
        .iter()
        .map(|r| (r.id.table.as_str(), r.id.column.as_str()))
        .collect();
    let hits = cascade
        .iter()
        .filter(|r| truth.contains(&(r.id.table.as_str(), r.id.column.as_str())))
        .count();
    hits as f64 / truth.len() as f64
}

fn run_workload(workload: &Workload, profile: &Profile) -> WorkloadResult {
    let root = std::env::temp_dir().join(format!(
        "ipsketch-cascadebench-{}-{}",
        workload.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let spec = AnySketcher::for_budget(SketchMethod::WeightedMinHash, PRIMARY_BUDGET, SEED)
        .expect("budget fits")
        .spec();
    let mut service = QueryService::create(&root, spec).expect("create catalog");
    for table in &workload.tables {
        service.ingest_table(table).expect("ingest");
    }

    // Ingest hydrated both tiers, so the timed loops measure the scans, not
    // blob loads.
    assert!(service.is_fully_hydrated());
    let index = service.index();
    let request = RankRequest {
        mode: Mode::Joinable,
        k: K,
        min_join_size: 0.0,
        cascade: false,
    };
    let micros =
        |started: Instant| u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

    let sketched: Vec<_> = workload
        .queries
        .iter()
        .map(|query| {
            let column = query.columns()[0].name.as_str();
            let primary = index.sketch_query(query, column).expect("sketch");
            let companion = index
                .sketch_companion_query(query, column)
                .expect("companion sketch")
                .expect("created catalogs store companions");
            (query, column, primary, companion)
        })
        .collect();
    // Warm the caches with one untimed pass of both tiers.
    for (_, _, primary, companion) in &sketched {
        index.top_k_joinable(primary, K).expect("warm flat");
        index
            .top_k_joinable_cascade(primary, companion, K, DEFAULT_CASCADE_CONFIDENCE)
            .expect("warm cascade");
    }

    let mut flat_us = Vec::new();
    let mut cascade_us = Vec::new();
    let mut min_recall = 1.0f64;
    for (query, column, primary, companion) in &sketched {
        let mut flat_answer = Vec::new();
        for _ in 0..profile.reps {
            let started = Instant::now();
            flat_answer = index.top_k_joinable(primary, K).expect("flat");
            flat_us.push(micros(started));
        }
        let mut cascade_answer = Vec::new();
        for _ in 0..profile.reps {
            let started = Instant::now();
            (cascade_answer, _) = index
                .top_k_joinable_cascade(primary, companion, K, DEFAULT_CASCADE_CONFIDENCE)
                .expect("cascade");
            cascade_us.push(micros(started));
        }
        for (cascade, answer) in [(false, &flat_answer), (true, &cascade_answer)] {
            let request = RankRequest { cascade, ..request };
            let (ranked, note) =
                rank(index, &[(*query, *column)], vec![primary.clone()], request).expect("rank");
            assert!(note.is_none(), "created catalogs store companions");
            assert_eq!(
                &ranked[0], answer,
                "{}: the served path disagrees",
                workload.name
            );
        }
        min_recall = min_recall.min(recall(&cascade_answer, &flat_answer));
        assert_eq!(
            cascade_answer, flat_answer,
            "{}: cascade diverged from the flat scan at the default margin",
            workload.name
        );
    }
    flat_us.sort_unstable();
    cascade_us.sort_unstable();

    let _ = std::fs::remove_dir_all(&root);
    let flat_mean_us = mean(&flat_us);
    let cascade_mean_us = mean(&cascade_us);
    let result = WorkloadResult {
        workload: workload.name.to_string(),
        candidates: workload.tables.len(),
        flat_mean_us,
        flat_p50_us: quantile(&flat_us, 0.50),
        cascade_mean_us,
        cascade_p50_us: quantile(&cascade_us, 0.50),
        speedup: flat_mean_us / cascade_mean_us.max(f64::MIN_POSITIVE),
        recall_at_k: min_recall,
    };
    println!(
        "{:>10} | {:>4} candidates | flat {:>8.0} us (p50 {:>7}) | cascade {:>8.0} us (p50 {:>7}) | {:>5.2}x | recall@{K} {:.3}",
        result.workload,
        result.candidates,
        result.flat_mean_us,
        result.flat_p50_us,
        result.cascade_mean_us,
        result.cascade_p50_us,
        result.speedup,
        result.recall_at_k
    );
    result
}

impl WorkloadResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::str(&self.workload)),
            ("candidates".into(), Json::u64(self.candidates as u64)),
            ("flat_mean_us".into(), fixed(self.flat_mean_us, 1)),
            ("flat_p50_us".into(), Json::u64(self.flat_p50_us)),
            ("cascade_mean_us".into(), fixed(self.cascade_mean_us, 1)),
            ("cascade_p50_us".into(), Json::u64(self.cascade_p50_us)),
            ("speedup".into(), fixed(self.speedup, 2)),
            ("recall_at_k".into(), fixed(self.recall_at_k, 3)),
        ])
    }
}

fn main() {
    let report = BenchReport::open(
        "BENCH_cascade.json",
        "cargo run --release -p ipsketch-bench --bin cascade_bench",
    );
    let profile = Profile::new(report.profile() == report::Profile::Quick);
    let workloads = [
        synthetic_workload(&profile),
        worldbank_workload(&profile),
        tfidf_workload(&profile),
    ];
    let results: Vec<WorkloadResult> = workloads
        .iter()
        .map(|w| run_workload(w, &profile))
        .collect();

    let parameters = Json::Obj(vec![
        ("tables".to_string(), Json::u64(profile.tables as u64)),
        ("queries".to_string(), Json::u64(profile.queries as u64)),
        ("reps".to_string(), Json::u64(profile.reps as u64)),
        ("k".to_string(), Json::u64(K as u64)),
        ("primary_budget".to_string(), Json::f64(PRIMARY_BUDGET)),
        (
            "confidence".to_string(),
            Json::f64(DEFAULT_CASCADE_CONFIDENCE),
        ),
        ("seed".to_string(), Json::u64(SEED)),
    ]);
    report
        .write(&[
            ("parameters", parameters),
            (
                "results",
                Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
        .expect("report writes");

    // Recall is a correctness contract, not a tuning knob: it is gated even
    // without a committed baseline.  Speedups get 25% tolerance: shared CI
    // runners are noisy; the gate is for real regressions (a broken prefilter,
    // a widened margin), not jitter.
    let mut floors: Vec<Floor> = results
        .iter()
        .map(|r| Floor {
            row: format!("{} recall@{K}", r.workload),
            measured: Some(r.recall_at_k),
            floor: 1.0,
        })
        .collect();
    floors.extend(
        report.relative_floors(&["workload"], "speedup", 0.75, |key| {
            let now = results.iter().find(|r| r.workload == key[0])?;
            Some(now.speedup)
        }),
    );
    report::enforce(&floors);
}
