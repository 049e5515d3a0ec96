//! Property-based tests of ranking determinism — the invariants distributed
//! serving leans on:
//!
//! * the top-k answer (including exact ties) is invariant under the order
//!   columns were inserted into the index, and
//! * the shard-partial ingest path yields the same top-k for *any* shard
//!   count, so a cluster can repartition rows without changing answers.

use ipsketch_core::method::{AnySketcher, SketchMethod};
use ipsketch_data::{Column, Table};
use ipsketch_join::{JoinEstimator, RankedColumn, SketchIndex};
use ipsketch_serve::service::{rank, Mode, RankRequest};
use ipsketch_serve::{shard_rows, QueryService};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::atomic::{AtomicU64, Ordering};

fn estimator() -> JoinEstimator {
    JoinEstimator::new(AnySketcher::for_budget(SketchMethod::Kmv, 256.0, 7).expect("budget"))
}

/// A candidate table: `offset` picks the key range, `pattern` the values.
/// Two candidates sharing `(offset, pattern)` carry identical data under
/// different names, so their scores tie *exactly* and only the deterministic
/// `(table, column)` tie-break orders them.
fn candidate(index: usize, offset: u64, pattern: u64) -> Table {
    let keys: Vec<u64> = (offset * 50..offset * 50 + 120).collect();
    let values: Vec<f64> = (0..120u32)
        .map(|i| match pattern {
            0 => f64::from(i) + 1.0,
            1 => f64::from((i * 37) % 11) + 1.0,
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
        (0..160).collect(),
        vec![Column::new(
            "v",
            (0..160).map(|i| f64::from(i) + 1.0).collect(),
        )],
    )
    .expect("table")
}

/// A generated lake: each `(offset, pattern)` pair becomes one candidate.
fn lake_params() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..3, 0u64..3), 2..6)
}

/// A Fisher–Yates permutation of `0..n` driven by `seed` (the shim has no
/// `prop_shuffle`; a splitmix-style step is plenty for test-case diversity).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = state
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let j = (state >> 32) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

fn build_index(tables: &[Table], order: &[usize]) -> SketchIndex {
    let mut index = SketchIndex::new(estimator());
    for &i in order {
        index.insert_table(&tables[i]).expect("insert");
    }
    index
}

/// Asserts two rankings agree on the ranked keys *in order* and carry scores
/// equal to within floating-point refolding noise (shard partials sum in a
/// different grouping, so the last ulp may differ; ties only arise between
/// bit-identical candidates, which drift identically, so order is stable).
fn assert_rank_equivalent(a: &[RankedColumn], b: &[RankedColumn]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "ranking lengths differ");
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(&x.id, &y.id, "ranked keys diverge");
        let tolerance = 1e-9 * x.score.abs().max(1.0);
        prop_assert!(
            (x.score - y.score).abs() <= tolerance,
            "score drift beyond refolding noise: {} vs {}",
            x.score,
            y.score
        );
    }
    Ok(())
}

static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Insertion order must be unobservable in the ranking — bit for bit,
    /// including the relative order of exact ties.
    #[test]
    fn top_k_is_invariant_under_build_order(
        params in lake_params(),
        seed in any::<u64>(),
    ) {
        let tables: Vec<Table> = params
            .iter()
            .enumerate()
            .map(|(i, &(offset, pattern))| candidate(i, offset, pattern))
            .collect();
        let order = permutation(tables.len(), seed);
        let query = query_table();
        let baseline = build_index(&tables, &(0..tables.len()).collect::<Vec<_>>());
        let q = baseline.sketch_query(&query, "v").expect("sketch");
        let expected_join = baseline
            .top_k_joinable(&q, tables.len() + 1)
            .expect("baseline join");
        let expected_corr = baseline
            .top_k_correlated(&q, tables.len() + 1, 5.0)
            .expect("baseline corr");

        let permuted = build_index(&tables, &order);
        let q2 = permuted.sketch_query(&query, "v").expect("sketch");
        prop_assert_eq!(
            permuted.top_k_joinable(&q2, tables.len() + 1).expect("join"),
            expected_join
        );
        prop_assert_eq!(
            permuted
                .top_k_correlated(&q2, tables.len() + 1, 5.0)
                .expect("corr"),
            expected_corr
        );
    }
}

proptest! {
    // Each case builds two on-disk catalogs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The two-pass shard-partial path must answer the same top-k whatever
    /// `shard_rows` split the rows arrived in.
    #[test]
    fn top_k_is_invariant_under_shard_count(
        values_a in proptest::collection::vec(1u32..1000, 40..100),
        values_b in proptest::collection::vec(1u32..1000, 40..100),
        shards_one in 1usize..6,
        shards_two in 1usize..6,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let make = |name: &str, values: &[u32]| {
            Table::new(
                name,
                (0..values.len() as u64).collect(),
                vec![Column::new(
                    "v",
                    values.iter().map(|&v| f64::from(v)).collect(),
                )],
            )
            .expect("table")
        };
        let table_a = make("cand_a", &values_a);
        let table_b = make("cand_b", &values_b);
        let query = query_table();
        let spec = AnySketcher::for_budget(SketchMethod::Kmv, 256.0, 7)
            .expect("budget")
            .spec();

        let rank_with = |shards: usize, tag: &str| {
            let root = std::env::temp_dir().join(format!(
                "ipsketch-shardprop-{tag}-{case}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let mut service = QueryService::create(&root, spec).expect("create");
            for table in [&table_a, &table_b] {
                let mut session = service.begin_sharded_ingest(table.name());
                for shard in &shard_rows(table, shards) {
                    session.announce(shard).expect("announce");
                }
                for shard in &shard_rows(table, shards) {
                    session.submit(shard).expect("submit");
                }
                service.finish_sharded_ingest(session).expect("finish");
            }
            service.ensure_hydrated().expect("hydrate");
            let ranked_by = |mode: Mode| {
                let q = service.estimator().sketch_column(&query, "v").expect("sketch");
                let request = RankRequest {
                    mode,
                    k: 3,
                    min_join_size: 5.0,
                    cascade: false,
                };
                let (mut rankings, _) =
                    rank(service.index(), &[(&query, "v")], vec![q], request).expect("rank");
                rankings.remove(0)
            };
            let joinable = ranked_by(Mode::Joinable);
            let related = ranked_by(Mode::Related);
            let _ = std::fs::remove_dir_all(&root);
            (joinable, related)
        };

        let (join_one, corr_one) = rank_with(shards_one, "one");
        let (join_two, corr_two) = rank_with(shards_two, "two");
        assert_rank_equivalent(&join_one, &join_two)?;
        assert_rank_equivalent(&corr_one, &corr_two)?;
    }
}
