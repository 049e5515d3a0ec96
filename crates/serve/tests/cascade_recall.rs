//! Recall@k regression tests for the tiered query cascade, pinned to a
//! committed fixture catalog with construction-known ground truth.
//!
//! The fixture lake is built so the true joinability order is forced by key
//! overlap (the candidates overlap the query on 95, 75, 55, 35, 15, and 0
//! keys), far apart relative to sketch noise.  At the default margin the
//! cascade must return exactly the flat scan's top-k — recall 1.0 — and at
//! deliberately-too-tight margins the measured recall is recorded so a future
//! change to the bound shows up as a diff here, not as silent quality loss.
//!
//! The fixture bytes under `tests/fixtures/cascade-recall/` are checked in; set
//! `IPSKETCH_BLESS_FIXTURES=1` to regenerate them after an *intentional* format
//! or sketcher change.

use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_data::{Column, Table};
use ipsketch_join::DEFAULT_CASCADE_CONFIDENCE;
use ipsketch_serve::service::{rank, Mode, RankRequest};
use ipsketch_serve::QueryService;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cascade-recall")
}

/// Overlap row counts, largest first: `lake_a` shares 95 keys with the query,
/// `lake_f` none.  These ARE the ground truth — the joinability order.
const OVERLAPS: [(u64, &str); 6] = [
    (95, "lake_a"),
    (75, "lake_b"),
    (55, "lake_c"),
    (35, "lake_d"),
    (15, "lake_e"),
    (0, "lake_f"),
];

/// Decoys sitting just below `lake_d`'s overlap — within cheap-tier noise
/// (CS error ≈ √(|q|·|c|)/√buckets ≈ 7 keys here) but outside the primary
/// tier's resolution of the 35-vs-30 gap.  A margin that trusts the cheap
/// point estimates outright can promote one of these over `lake_d`.
const DECOYS: [(u64, &str); 4] = [
    (34, "decoy_w"),
    (33, "decoy_x"),
    (32, "decoy_y"),
    (31, "decoy_z"),
];

fn candidate(name: &str, overlap: u64) -> Table {
    // `overlap` keys inside the query's 0..100 range, padded to 120 rows with
    // keys far outside it; smooth weights keep every row carrying value mass.
    // Ground-truth candidates overlap the query's high keys, decoys its low
    // keys: disjoint overlap regions keep their cheap-tier sketch noise
    // independent (nested key sets would cancel it and hide misrankings).
    let keys: Vec<u64> = if name.starts_with("decoy") {
        (0..overlap).chain(2000..2000 + (120 - overlap)).collect()
    } else {
        (100 - overlap..100)
            .chain(1000 + overlap..1000 + 120)
            .take(120)
            .collect()
    };
    let values: Vec<f64> = (0..120u32).map(|i| f64::from(i % 17) + 1.0).collect();
    Table::new(name, keys, vec![Column::new("v", values)]).expect("table")
}

fn query_table() -> Table {
    Table::new(
        "q",
        (0..100).collect(),
        vec![Column::new(
            "v",
            (0..100u32).map(|i| f64::from(i % 17) + 1.0).collect(),
        )],
    )
    .expect("table")
}

/// The fixture's sketcher: the paper's WMH method at a modest budget.
fn fixture_spec() -> ipsketch_core::SketcherSpec {
    AnySketcher::for_budget(SketchMethod::WeightedMinHash, 256.0, 7)
        .expect("budget")
        .spec()
}

fn build_fixture(root: &Path) {
    let _ = fs::remove_dir_all(root);
    let mut service = QueryService::create(root, fixture_spec()).expect("create");
    for (overlap, name) in OVERLAPS.into_iter().chain(DECOYS) {
        service
            .ingest_table(&candidate(name, overlap))
            .expect("ingest");
    }
}

/// Every file of a catalog directory, as sorted `(relative path, bytes)` pairs.
fn snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("readdir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_str()
                    .expect("utf8")
                    .replace('\\', "/");
                files.push((rel, fs::read(&path).expect("read")));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn fixture_matches_the_committed_bytes() {
    if std::env::var_os("IPSKETCH_BLESS_FIXTURES").is_some() {
        build_fixture(&fixture_dir());
    }
    let scratch = std::env::temp_dir().join(format!(
        "ipsketch-cascade-recall-rebuild-{}",
        std::process::id()
    ));
    build_fixture(&scratch);
    let rebuilt = snapshot(&scratch);
    let committed = snapshot(&fixture_dir());
    let _ = fs::remove_dir_all(&scratch);
    assert_eq!(
        committed.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        rebuilt.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "fixture file set drifted (regenerate with IPSKETCH_BLESS_FIXTURES=1 only for an \
         intentional change)"
    );
    for ((name, committed_bytes), (_, rebuilt_bytes)) in committed.iter().zip(&rebuilt) {
        assert_eq!(
            committed_bytes, rebuilt_bytes,
            "`{name}` drifted from the committed fixture"
        );
    }
}

/// Recall@k of `answer` against the ground-truth top-k set.
fn recall_at_k(answer: &[ipsketch_join::RankedColumn], truth: &[&str], k: usize) -> f64 {
    let truth: BTreeSet<&str> = truth[..k].iter().copied().collect();
    let hits = answer
        .iter()
        .take(k)
        .filter(|r| truth.contains(r.id.table.as_str()))
        .count();
    hits as f64 / k as f64
}

#[test]
fn default_margin_has_perfect_recall_and_matches_ground_truth() {
    let mut service = QueryService::open(fixture_dir()).expect("open fixture");
    service.ensure_hydrated().expect("hydrate");
    assert!(
        service.companion_estimator().is_some(),
        "fixture stores companion sketches"
    );
    let query = query_table();
    const K: usize = 4;
    let ranked_by = |cascade: bool| {
        let q = service
            .estimator()
            .sketch_column(&query, "v")
            .expect("sketch");
        let request = RankRequest {
            mode: Mode::Joinable,
            k: K,
            min_join_size: 0.0,
            cascade,
        };
        let (mut rankings, note) =
            rank(service.index(), &[(&query, "v")], vec![q], request).expect("rank");
        (rankings.remove(0), note)
    };
    let (flat, _) = ranked_by(false);
    let (cascaded, note) = ranked_by(true);
    assert!(note.is_none());
    assert_eq!(
        cascaded, flat,
        "cascade must equal the flat scan bit for bit"
    );
    // The overlap gaps (95 > 75 > 55 > 35) dwarf sketch noise, so the flat
    // scan itself recovers the construction ground truth — and therefore so
    // does the cascade.
    let truth: Vec<&str> = OVERLAPS.iter().map(|&(_, name)| name).collect();
    let ranked: Vec<&str> = cascaded.iter().map(|r| r.id.table.as_str()).collect();
    assert_eq!(ranked, truth[..K], "ground-truth order");
    assert_eq!(recall_at_k(&cascaded, &truth, K), 1.0);
}

#[test]
fn too_tight_margins_degrade_recall_measurably_and_monotonically() {
    let mut service = QueryService::open(fixture_dir()).expect("open fixture");
    let query = query_table();
    service.ensure_hydrated().expect("hydrate");
    let index = service.index();
    let q = index.sketch_query(&query, "v").expect("sketch");
    let cq = index
        .sketch_companion_query(&query, "v")
        .expect("companion sketch")
        .expect("fixture stores companion sketches");
    const K: usize = 4;
    let truth: Vec<&str> = OVERLAPS.iter().map(|&(_, name)| name).collect();
    // Confidence 0.0 trusts the cheap tier's point estimates outright — no
    // safety margin at all; 1.0 keeps one standard error.  Both are tighter
    // than the default (recorded here so a bound change surfaces as a diff).
    let mut measured = Vec::new();
    for confidence in [0.0, 1.0, DEFAULT_CASCADE_CONFIDENCE] {
        let (answer, _) = index
            .top_k_joinable_cascade(&q, &cq, K, confidence)
            .expect("cascade");
        measured.push(recall_at_k(&answer, &truth, K));
    }
    println!("measured recall@{K} at confidence [0.0, 1.0, default]: {measured:?}");
    // Tightening the margin must never *improve* recall, and the default must
    // stay perfect.  On this committed fixture the decoys measurably cost the
    // no-margin cascade recall (0.75 at confidence 0.0) — if that stops being
    // true the cheap tier got sharper and this fixture should be rebuilt to
    // keep exercising the margin.
    assert!(measured[0] <= measured[1] + 1e-12);
    assert!(measured[1] <= measured[2] + 1e-12);
    assert!(
        measured[0] < 1.0,
        "confidence 0.0 must measurably lose recall on the decoy fixture"
    );
    assert_eq!(measured[2], 1.0, "default margin must keep the true top-k");
    // Every measured recall stays a valid fraction of k.
    for r in &measured {
        assert!((0.0..=1.0).contains(r));
    }
}
