//! Serving a persistent sketch catalog.
//!
//! The paper's workflow sketches every column of a data lake *once* and answers
//! joinability/relatedness queries from the summaries forever after.  This example
//! exercises that full lifecycle through `ipsketch-serve`:
//!
//! 1. initialize an on-disk catalog with a Weighted MinHash sketcher;
//! 2. ingest a planted "weather" table one-shot and a synthetic lake through the
//!    shard-partial path (two-pass announced-norm protocol, partial sketches folded at
//!    registration);
//! 3. drop the service, reopen the catalog cold, and show that lazily hydrated
//!    queries surface the planted table with estimates identical to an in-memory
//!    index built from scratch.
//!
//! Run with: `cargo run --release --example catalog_service`

use ipsketch::core::method::{AnySketcher, SketchMethod};
use ipsketch::data::{Column, DataLakeConfig, Table};
use ipsketch::join::{JoinEstimator, SketchIndex};
use ipsketch::serve::service::{rank, Mode, RankRequest};
use ipsketch::serve::{shard_rows, QueryService};

fn main() {
    let root = std::env::temp_dir().join(format!("ipsketch-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // The analyst's query table: a year of daily ride anomalies keyed by day index.
    let query = Table::new(
        "taxi",
        (0..365).collect(),
        vec![Column::new(
            "rides",
            (0..365)
                .map(|day| 120.0 * f64::from(day % 7 != 0) - 60.0 + f64::from(day % 11))
                .collect(),
        )],
    )
    .expect("well-formed table");

    // A planted weather table covering an overlapping range of days, whose
    // precipitation column co-varies with ride anomalies.
    let weather = Table::new(
        "weather",
        (100..465).collect(),
        vec![
            Column::new(
                "precip",
                (100..465)
                    .map(|day| 60.0 * f64::from(day % 7 != 0) - 30.0 + f64::from(day % 11) / 2.0)
                    .collect(),
            ),
            Column::new(
                "pressure",
                (100..465)
                    .map(|day| f64::from((day * 31) % 17) - 8.0)
                    .collect(),
            ),
        ],
    )
    .expect("well-formed table");

    // --- 1. Initialize the catalog. -------------------------------------------------
    let spec = AnySketcher::for_budget(SketchMethod::WeightedMinHash, 600.0, 7)
        .expect("budget fits")
        .spec();
    let mut service = QueryService::create(&root, spec).expect("fresh directory");
    println!("initialized catalog at {} with {spec}", root.display());

    // --- 2. Ingest: one-shot and shard-partial. -------------------------------------
    let report = service.ingest_table(&weather).expect("weather ingests");
    println!(
        "one-shot ingest of `weather`: {} columns registered",
        report.registered.len()
    );

    // The synthetic lake arrives "sharded": each table is split into 3 row ranges, the
    // shards exchange Σv² partial sums so WMH can agree on every column's norm, then
    // each shard sketches locally and the service folds the partials.
    let lake = DataLakeConfig {
        tables: 5,
        columns_per_table: 2,
        min_rows: 200,
        max_rows: 400,
        key_universe: 1_000,
    }
    .generate(21)
    .expect("valid config");
    for table in lake.tables() {
        let shards = shard_rows(table, 3);
        let mut session = service.begin_sharded_ingest(table.name());
        for shard in &shards {
            session.announce(shard).expect("norm exchange");
        }
        for shard in &shards {
            session.submit(shard).expect("shard sketches");
        }
        let report = service
            .finish_sharded_ingest(session)
            .expect("registration");
        println!(
            "shard-partial ingest of `{}`: {} columns from {} shards",
            table.name(),
            report.registered.len(),
            shards.len()
        );
    }
    let total = service.catalog().len();
    drop(service);

    // --- 3. Reopen cold and query. --------------------------------------------------
    let mut reopened = QueryService::open(&root).expect("catalog persists");
    assert_eq!(reopened.catalog().len(), total);
    assert_eq!(reopened.hydrated_len(), 0, "hydration is lazy");
    let q = reopened
        .estimator()
        .sketch_column(&query, "rides")
        .expect("query sketches");
    let hydrated = reopened.ensure_hydrated().expect("catalog loads");
    assert_eq!(hydrated, total, "hydration loads every column once");
    let request = RankRequest {
        mode: Mode::Related,
        k: 3,
        min_join_size: 50.0,
        cascade: false,
    };
    let (rankings, _) =
        rank(reopened.index(), &[(&query, "rides")], vec![q], request).expect("query runs");
    let ranked = &rankings[0];
    println!("\ntop related columns for taxi.rides (reopened catalog):");
    for (rank, r) in ranked.iter().enumerate() {
        println!(
            "  {}. {}.{} — join ≈ {:.0}, corr ≈ {:+.2}",
            rank + 1,
            r.id.table,
            r.id.column,
            r.estimated_join_size,
            r.estimated_correlation
        );
    }
    assert_eq!(
        ranked[0].id.table, "weather",
        "planted table is the top hit"
    );
    assert_eq!(ranked[0].id.column, "precip");

    // The served estimates are identical to an in-memory index built from scratch
    // with the same configuration — persistence is transparent.
    let estimator = JoinEstimator::new(spec.build().expect("spec round-trips"));
    let mut in_memory = SketchIndex::new(estimator);
    in_memory.insert_table(&weather).expect("weather indexes");
    let mem_q = in_memory.sketch_query(&query, "rides").expect("sketches");
    let mem_top = &in_memory.top_k_correlated(&mem_q, 1, 50.0).expect("ranks")[0];
    assert_eq!(mem_top.id.table, "weather");
    let served_precip = ranked
        .iter()
        .find(|r| r.id.column == "precip")
        .expect("precip ranked");
    assert_eq!(
        served_precip.estimated_correlation, mem_top.estimated_correlation,
        "served estimate equals the in-memory estimate bit-for-bit"
    );
    println!("\nserved estimates match the in-memory index bit-for-bit ✓");

    std::fs::remove_dir_all(&root).expect("cleanup");
}
