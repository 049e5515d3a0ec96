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
//! Results merge into the committed `BENCH_cascade.json` at the repository
//! root under a `quick` or `full` profile, and the merged report is written to
//! `target/bench-reports/BENCH_cascade.json`. Environment knobs mirror the
//! serve suite:
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

use ipsketch_bench::report::BenchFiles;
use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_data::text::CorpusConfig;
use ipsketch_data::tfidf::{TfIdfConfig, TfIdfVectorizer};
use ipsketch_data::{Column, DataLakeConfig, Table};
use ipsketch_join::{RankedColumn, DEFAULT_CASCADE_CONFIDENCE};
use ipsketch_serve::service::{rank, Mode, RankRequest};
use ipsketch_serve::wire::Json;
use ipsketch_serve::QueryService;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

const SEED: u64 = 7;
/// Primary sketch budget in doubles; the paper's serving scale, and large
/// enough that the per-candidate primary estimate is the flat scan's cost.
const PRIMARY_BUDGET: f64 = 1024.0;
const K: usize = 10;

struct Profile {
    quick: bool,
    /// Candidate tables per workload (documents, for `tfidf`).
    tables: usize,
    /// Distinct query columns per workload.
    queries: usize,
    /// Timed repetitions of each (query, path) pair.
    reps: usize,
}

impl Profile {
    fn from_env() -> Self {
        let quick = std::env::var("IPSKETCH_BENCH_QUICK").is_ok_and(|v| v.trim() == "1");
        if quick {
            Self {
                quick,
                tables: 48,
                queries: 3,
                reps: 20,
            }
        } else {
            Self {
                quick,
                tables: 160,
                queries: 5,
                reps: 60,
            }
        }
    }

    fn name(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
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

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
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

// ---- Report I/O: merge the measured profile into the committed baseline. ----

fn parse_profile(doc: &Json, profile: &str) -> Option<(Json, Vec<WorkloadResult>)> {
    let section = doc.get("profiles")?.get(profile)?;
    let parameters = section.get("parameters")?.clone();
    let Json::Arr(rows) = section.get("results")? else {
        return None;
    };
    let mut results = Vec::new();
    for row in rows {
        results.push(WorkloadResult {
            workload: row.get("workload")?.as_str()?.to_string(),
            candidates: usize::try_from(row.get("candidates")?.as_u64()?).ok()?,
            flat_mean_us: row.get("flat_mean_us")?.as_f64()?,
            flat_p50_us: row.get("flat_p50_us")?.as_u64()?,
            cascade_mean_us: row.get("cascade_mean_us")?.as_f64()?,
            cascade_p50_us: row.get("cascade_p50_us")?.as_u64()?,
            speedup: row.get("speedup")?.as_f64()?,
            recall_at_k: row.get("recall_at_k")?.as_f64()?,
        });
    }
    Some((parameters, results))
}

fn render_profile(out: &mut String, parameters: &Json, results: &[WorkloadResult]) {
    out.push_str(&format!("      \"parameters\": {parameters},\n"));
    out.push_str("      \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "        {{\"workload\": \"{}\", \"candidates\": {}, \"flat_mean_us\": {:.1}, \
             \"flat_p50_us\": {}, \"cascade_mean_us\": {:.1}, \"cascade_p50_us\": {}, \
             \"speedup\": {:.2}, \"recall_at_k\": {:.3}}}{comma}\n",
            r.workload,
            r.candidates,
            r.flat_mean_us,
            r.flat_p50_us,
            r.cascade_mean_us,
            r.cascade_p50_us,
            r.speedup,
            r.recall_at_k
        ));
    }
    out.push_str("      ]\n");
}

fn write_report(
    files: &BenchFiles,
    profile: &Profile,
    parameters: &Json,
    results: &[WorkloadResult],
    baseline: Option<&Json>,
) -> std::io::Result<PathBuf> {
    let other_name = if profile.quick { "full" } else { "quick" };
    let other = baseline.and_then(|doc| parse_profile(doc, other_name));
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(
        "  \"generated_by\": \"cargo run --release -p ipsketch-bench --bin cascade_bench\",\n",
    );
    out.push_str("  \"profiles\": {\n");
    let mut sections: Vec<(&str, &Json, &[WorkloadResult])> = Vec::new();
    sections.push((profile.name(), parameters, results));
    if let Some((params, rows)) = &other {
        sections.push((other_name, params, rows));
    }
    sections.sort_by_key(|(name, _, _)| *name); // stable file order: full, quick
    for (i, (name, params, rows)) in sections.iter().enumerate() {
        let comma = if i + 1 == sections.len() { "" } else { "," };
        out.push_str(&format!("    \"{name}\": {{\n"));
        render_profile(&mut out, params, rows);
        out.push_str(&format!("    }}{comma}\n"));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    files.write(&out)
}

fn main() {
    let profile = Profile::from_env();
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
    let files = BenchFiles::new("BENCH_cascade.json");
    let baseline = std::fs::read_to_string(&files.committed)
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let path = write_report(&files, &profile, &parameters, &results, baseline.as_ref())
        .expect("report writes");
    println!("\nwrote {}", path.display());

    if std::env::var("IPSKETCH_BENCH_ENFORCE").is_ok_and(|v| v.trim() == "1") {
        // Recall is a correctness contract, not a tuning knob: enforce it even
        // without a committed baseline.
        let mut failures: Vec<String> = results
            .iter()
            .filter(|r| r.recall_at_k < 1.0)
            .map(|r| format!("{}: recall@{K} {} < 1.0", r.workload, r.recall_at_k))
            .collect();
        if let Some((_, committed)) = baseline
            .as_ref()
            .and_then(|doc| parse_profile(doc, profile.name()))
        {
            // 25% tolerance: shared CI runners are noisy; the gate is for real
            // regressions (a broken prefilter, a widened margin), not jitter.
            for base in &committed {
                let Some(now) = results.iter().find(|r| r.workload == base.workload) else {
                    failures.push(format!("{} vanished", base.workload));
                    continue;
                };
                if now.speedup < 0.75 * base.speedup {
                    failures.push(format!(
                        "{}: {:.2}x vs baseline {:.2}x",
                        base.workload, now.speedup, base.speedup
                    ));
                }
            }
        } else {
            println!(
                "no committed `{}` baseline in BENCH_cascade.json; enforcing recall only",
                profile.name()
            );
        }
        if failures.is_empty() {
            println!("all workloads within 25% of the committed baseline");
        } else {
            eprintln!("cascade bench regressed beyond tolerance: {failures:#?}");
            std::process::exit(1);
        }
    }
}
