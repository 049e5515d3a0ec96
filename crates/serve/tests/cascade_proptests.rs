//! Property-based tests of the tiered query cascade: whatever catalog the
//! generator builds, the cascade's top-k must be the flat scan's top-k — the
//! same columns, in the same order, with bit-identical scores (the rerank runs
//! the *same* primary estimator over the survivors, and the margin keeps every
//! true top-k candidate alive at the configured confidence).  Planted exact
//! ties must come back in `(score, table, column)` order, cascade or not.

use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_data::{Column, Table};
use ipsketch_join::RankedColumn;
use ipsketch_serve::service::{rank, Mode, RankRequest};
use ipsketch_serve::{CascadeNote, QueryService};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// Ranks the query column `v` of `query` through the one ranking path.
fn ranked(
    service: &mut QueryService,
    query: &Table,
    k: usize,
    cascade: bool,
) -> (Vec<RankedColumn>, Option<CascadeNote>) {
    let q = service
        .estimator()
        .sketch_column(query, "v")
        .expect("sketch");
    service.ensure_hydrated().expect("hydrate");
    let request = RankRequest {
        mode: Mode::Joinable,
        k,
        min_join_size: 0.0,
        cascade,
    };
    let (mut rankings, note) =
        rank(service.index(), &[(query, "v")], vec![q], request).expect("rank");
    (rankings.remove(0), note)
}

/// A candidate table overlapping the query on a generated key range.
fn candidate(index: usize, offset: u64, pattern: u64, rows: u64) -> Table {
    let keys: Vec<u64> = (offset * 40..offset * 40 + rows).collect();
    let values: Vec<f64> = (0..rows as u32)
        .map(|i| match pattern {
            0 => f64::from(i) + 1.0,
            1 => f64::from((i * 37) % 11) + 1.0,
            2 => f64::from((i * 13) % 101) + 0.5,
            _ => f64::from(i % 7) + 1.0,
        })
        .collect();
    Table::new(
        format!("cand_{index}"),
        keys,
        vec![Column::new("v", values)],
    )
    .expect("table")
}

fn query_table() -> Table {
    Table::new(
        "q",
        (0..200).collect(),
        vec![Column::new(
            "v",
            (0..200).map(|i| f64::from(i % 29) + 1.0).collect(),
        )],
    )
    .expect("table")
}

fn method_for(tag: u64) -> SketchMethod {
    match tag {
        0 => SketchMethod::WeightedMinHash,
        1 => SketchMethod::Kmv,
        _ => SketchMethod::MinHash,
    }
}

proptest! {
    // Each case builds an on-disk catalog; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over random catalogs, primary methods, seeds, and `k`, the cascade
    /// answer equals the flat-scan answer bit for bit.
    #[test]
    fn cascade_top_k_matches_the_flat_scan(
        params in proptest::collection::vec((0u64..4, 0u64..4, 60u64..140), 2..8),
        method_tag in 0u64..3,
        seed in 1u64..1000,
        k in 1usize..6,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "ipsketch-cascadeprop-{case}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let spec = AnySketcher::for_budget(method_for(method_tag), 256.0, seed)
            .expect("budget")
            .spec();
        let mut service = QueryService::create(&root, spec).expect("create");
        for (i, &(offset, pattern, rows)) in params.iter().enumerate() {
            service
                .ingest_table(&candidate(i, offset, pattern, rows))
                .expect("ingest");
        }
        let query = query_table();
        prop_assert!(
            service.companion_estimator().is_some(),
            "created catalogs store companions by default"
        );
        let (flat, _) = ranked(&mut service, &query, k, false);
        let (cascaded, note) = ranked(&mut service, &query, k, true);
        prop_assert!(note.is_none(), "companion catalogs never fall back");
        prop_assert_eq!(&cascaded, &flat, "cascade diverged from the flat scan");
        // The cascade returns a prefix of the full flat ranking: deepening k
        // must only append, never reorder.
        let (full, _) = ranked(&mut service, &query, params.len() + 1, false);
        prop_assert_eq!(&full[..cascaded.len()], &cascaded[..]);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Planted exact ties (identical data under different names) must come
    /// back adjacent and in `(table, column)` order through the cascade.
    #[test]
    fn planted_ties_keep_the_deterministic_order(
        offset in 0u64..3,
        pattern in 0u64..4,
        seed in 1u64..1000,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "ipsketch-cascadetie-{case}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let spec = AnySketcher::for_budget(SketchMethod::WeightedMinHash, 256.0, seed)
            .expect("budget")
            .spec();
        let mut service = QueryService::create(&root, spec).expect("create");
        // Two byte-identical twins (an exact score tie) plus one distinct
        // candidate; insert the lexicographically-later twin first so the
        // tie-break, not insertion order, decides.
        let twin = candidate(0, offset, pattern, 100);
        let twin_b = Table::new(
            "cand_zz",
            twin.keys().to_vec(),
            vec![Column::new("v", twin.columns()[0].values.clone())],
        )
        .expect("table");
        service.ingest_table(&twin_b).expect("ingest twin b");
        service.ingest_table(&twin).expect("ingest twin a");
        service
            .ingest_table(&candidate(1, offset + 1, (pattern + 1) % 4, 80))
            .expect("ingest distinct");
        let query = query_table();
        let (cascaded, _) = ranked(&mut service, &query, 3, true);
        let (flat, _) = ranked(&mut service, &query, 3, false);
        prop_assert_eq!(&cascaded, &flat);
        // The twins tie exactly; the earlier table name must rank first.
        let a = cascaded.iter().position(|r| r.id.table == "cand_0");
        let b = cascaded.iter().position(|r| r.id.table == "cand_zz");
        if let (Some(a), Some(b)) = (a, b) {
            let (ra, rb) = (&cascaded[a], &cascaded[b]);
            prop_assert_eq!(ra.score.to_bits(), rb.score.to_bits(), "twins must tie exactly");
            prop_assert!(a < b, "tie must break by (table, column) ascending");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
