//! The four workloads' inputs, made from the seed alone: the tables each
//! catalog ingests, the query columns of every request, and the tables the
//! `ingest_mix` writer adds while readers query.
//!
//! Inputs are drawn so that the work per request barely depends on the seed:
//! query lengths follow a fixed schedule (lake workloads) or fixed ranks of the
//! corpus's length distribution (text), so runs with different seeds measure
//! the same amount of work on different data.

use ipsketch_data::text::CorpusConfig;
use ipsketch_data::tfidf::{TfIdfConfig, TfIdfVectorizer};
use ipsketch_data::{Column, DataLakeConfig, Table};
use ipsketch_serve::protocol::Mode;
use std::time::Duration;

/// Results per ranking.
pub const K: usize = 10;

/// Rows per lake column are drawn from this range (World-Bank-shaped columns).
const LAKE_ROWS: (usize, usize) = (10, 60);
/// Columns per catalog table, as in the default World-Bank-shaped lake.
const LAKE_COLUMNS: usize = 4;
/// The lake's key universe.
const KEY_UNIVERSE: u64 = 4_000;
/// Query columns have between this many rows, evenly spread.
const QUERY_ROWS: (usize, usize) = (10, 30);
/// Distinct query columns of the lake workloads, cycled by the clients.
const LAKE_QUERIES: usize = 64;
/// Held-out query documents of `text_search`, and the batch size.
const TEXT_QUERIES: usize = 64;
const TEXT_BATCH: usize = 8;
/// Candidate documents of `text_search`.
const TEXT_CANDIDATES: usize = 100;
/// Fresh tables `ingest_mix` writes per second of its timed phase, on a fixed
/// schedule; the count is fixed for a given run length, so the catalog grows
/// identically every run.
const FRESH_TABLES_PER_SECOND: f64 = 20.0;
/// `related` queries rank only candidates with at least this estimated join size.
const MIN_JOIN_SIZE: f64 = 4.0;
/// Fresh tables use keys from here on: disjoint from every query's keys, so no
/// answer depends on how far the concurrent writer has got.
const FRESH_KEY_OFFSET: u64 = 1 << 40;
/// Salts that derive the query, fresh-table and probe generators from the seed.
const QUERY_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const FRESH_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PROBE_SALT: u64 = 0x1656_67B1_9E37_79F9;

/// A workload: what traffic runs against which deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LakeScan,
    TextSearch,
    IngestMix,
    Routed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::LakeScan,
        Kind::TextSearch,
        Kind::IngestMix,
        Kind::Routed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LakeScan => "lake_scan",
            Kind::TextSearch => "text_search",
            Kind::IngestMix => "ingest_mix",
            Kind::Routed => "routed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Tables of the catalog a workload serves ([`LAKE_COLUMNS`] columns each).
    fn lake_tables(self) -> usize {
        match self {
            Kind::LakeScan => 160,
            Kind::IngestMix | Kind::Routed => 60,
            Kind::TextSearch => 0,
        }
    }
}

/// Everything a workload sends, made from its seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Ingested during set-up.
    pub catalog: Vec<Table>,
    /// One entry per distinct request: its single-column query tables (one for
    /// `query`, several for `batch-query`).
    pub requests: Vec<Vec<Table>>,
    /// `ingest_mix` only: ingested one by one during the timed phase.
    pub fresh: Vec<Table>,
    pub mode: Mode,
    pub cascade: bool,
    pub min_join_size: f64,
}

impl Inputs {
    /// The inputs of `kind` for `seed`, for a timed phase of `timed`.
    pub fn generate(kind: Kind, seed: u64, timed: Duration) -> Inputs {
        match kind {
            Kind::LakeScan | Kind::Routed => Inputs {
                catalog: lake(kind.lake_tables(), seed),
                requests: lake_queries(seed).into_iter().map(|q| vec![q]).collect(),
                fresh: Vec::new(),
                mode: Mode::Joinable,
                cascade: true,
                min_join_size: 0.0,
            },
            Kind::IngestMix => {
                let count = (FRESH_TABLES_PER_SECOND * timed.as_secs_f64())
                    .round()
                    .max(1.0) as usize;
                Inputs {
                    catalog: lake(kind.lake_tables(), seed),
                    requests: lake_queries(seed).into_iter().map(|q| vec![q]).collect(),
                    fresh: fresh_tables(count, seed),
                    mode: Mode::Related,
                    cascade: false,
                    min_join_size: MIN_JOIN_SIZE,
                }
            }
            Kind::TextSearch => {
                let (catalog, requests) = text(seed);
                Inputs {
                    catalog,
                    requests,
                    fresh: Vec::new(),
                    mode: Mode::Joinable,
                    cascade: true,
                    min_join_size: 0.0,
                }
            }
        }
    }

    /// Query columns over all requests.
    pub fn queries(&self) -> impl Iterator<Item = &Table> {
        self.requests.iter().flatten()
    }
}

fn lake_config(tables: usize, columns: usize, rows: (usize, usize)) -> DataLakeConfig {
    DataLakeConfig {
        tables,
        columns_per_table: columns,
        min_rows: rows.0,
        max_rows: rows.1,
        key_universe: KEY_UNIVERSE,
    }
}

fn lake(tables: usize, seed: u64) -> Vec<Table> {
    lake_config(tables, LAKE_COLUMNS, LAKE_ROWS)
        .generate(seed)
        .expect("valid lake configuration")
        .tables()
        .to_vec()
}

/// Held-out query columns: drawn like lake columns from their own stream, then
/// cut to lengths spread evenly over [`QUERY_ROWS`].
fn lake_queries(seed: u64) -> Vec<Table> {
    let source = lake_config(LAKE_QUERIES, 1, (QUERY_ROWS.1, QUERY_ROWS.1))
        .generate(seed ^ QUERY_SALT)
        .expect("valid query configuration");
    let span = QUERY_ROWS.1 - QUERY_ROWS.0 + 1;
    source
        .tables()
        .iter()
        .enumerate()
        .map(|(i, table)| {
            let rows = QUERY_ROWS.0 + i * span / LAKE_QUERIES;
            Table::new(
                format!("query_{i:03}"),
                table.keys()[..rows].to_vec(),
                vec![Column::new("q", table.columns()[0].values[..rows].to_vec())],
            )
            .expect("a prefix of a valid table is valid")
        })
        .collect()
}

/// Tables for the concurrent writer, on keys no query shares.
fn fresh_tables(count: usize, seed: u64) -> Vec<Table> {
    shifted_tables(count, seed ^ FRESH_SALT, "fresh")
}

/// Pre-sketched tables a traced run commits to time catalog commits.
pub fn probe_tables(count: usize, seed: u64) -> Vec<Table> {
    shifted_tables(count, seed ^ PROBE_SALT, "probe")
}

/// Lake-shaped tables named `{prefix}_NNNN`, on keys past [`FRESH_KEY_OFFSET`].
fn shifted_tables(count: usize, seed: u64, prefix: &str) -> Vec<Table> {
    lake_config(count, 2, LAKE_ROWS)
        .generate(seed)
        .expect("valid lake configuration")
        .tables()
        .iter()
        .enumerate()
        .map(|(i, table)| {
            Table::new(
                format!("{prefix}_{i:04}"),
                table.keys().iter().map(|k| k + FRESH_KEY_OFFSET).collect(),
                table.columns().to_vec(),
            )
            .expect("shifted keys stay unique")
        })
        .collect()
}

/// Raw tf·idf vectors of the default corpus, one single-column table per
/// document (keys are term ids). Documents are ordered by length; queries sit
/// at evenly spaced ranks and are dealt into batches in snake order, so every
/// batch carries about the same number of terms; candidates are evenly spaced
/// over the remaining ranks.
fn text(seed: u64) -> (Vec<Table>, Vec<Vec<Table>>) {
    let corpus = CorpusConfig::default()
        .generate(seed)
        .expect("the default corpus is valid");
    let docs: Vec<Vec<String>> = corpus.documents.iter().map(|d| d.tokens.clone()).collect();
    let vectorizer = TfIdfVectorizer::fit(
        &docs,
        TfIdfConfig {
            bigrams: false,
            normalize: false,
            min_document_frequency: 1,
        },
    )
    .expect("the corpus has terms");
    let vectors = vectorizer.vectorize_all(&docs);
    let mut order: Vec<usize> = (0..vectors.len())
        .filter(|&i| vectors[i].nnz() > 0)
        .collect();
    order.sort_by_key(|&i| (vectors[i].nnz(), i));
    let table = |prefix: &str, i: usize| {
        Table::new(
            format!("{prefix}_{i:04}"),
            vectors[i].indices().to_vec(),
            vec![Column::new("tfidf", vectors[i].values().to_vec())],
        )
        .expect("tf-idf vectors have unique indices")
    };

    let picks = even_picks(order.len(), TEXT_QUERIES);
    let queries: Vec<usize> = picks.iter().map(|&r| order[r]).collect();
    let rest: Vec<usize> = (0..order.len())
        .filter(|r| picks.binary_search(r).is_err())
        .map(|r| order[r])
        .collect();
    let candidates = even_picks(rest.len(), TEXT_CANDIDATES)
        .into_iter()
        .map(|r| table("doc", rest[r]))
        .collect();

    let batches = TEXT_QUERIES / TEXT_BATCH;
    let mut requests: Vec<Vec<Table>> = vec![Vec::new(); batches];
    for (position, &doc) in queries.iter().enumerate() {
        let round = position / batches;
        let slot = position % batches;
        let batch = if round.is_multiple_of(2) {
            slot
        } else {
            batches - 1 - slot
        };
        requests[batch].push(table("query", doc));
    }
    (candidates, requests)
}

/// `count` ranks spread evenly over `0..len` (the middle of each of `count`
/// equal strata), ascending.
fn even_picks(len: usize, count: usize) -> Vec<usize> {
    let count = count.min(len);
    (0..count)
        .map(|j| (2 * j + 1) * len / (2 * count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_their_names() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
            assert!(crate::report::valid_name(kind.name()));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn even_picks_are_distinct_and_spread() {
        assert_eq!(even_picks(10, 5), vec![1, 3, 5, 7, 9]);
        assert_eq!(even_picks(3, 5), vec![0, 1, 2]);
        let picks = even_picks(700, 64);
        assert!(picks.windows(2).all(|w| w[0] < w[1]));
        assert!(*picks.last().unwrap() < 700);
    }

    #[test]
    fn query_lengths_follow_the_schedule_for_every_seed() {
        for seed in [1, 2] {
            let lengths: Vec<usize> = lake_queries(seed).iter().map(Table::rows).collect();
            assert_eq!(lengths.len(), LAKE_QUERIES);
            assert_eq!(lengths[0], QUERY_ROWS.0);
            assert_eq!(*lengths.last().unwrap(), QUERY_ROWS.1);
            assert_eq!(
                lengths,
                lake_queries(seed + 10)
                    .iter()
                    .map(Table::rows)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn fresh_keys_never_meet_query_keys() {
        let fresh = fresh_tables(5, 3);
        assert!(fresh.iter().all(|t| t.keys()[0] >= FRESH_KEY_OFFSET));
        assert!(lake_queries(3)
            .iter()
            .all(|q| q.keys().iter().all(|&k| k < KEY_UNIVERSE)));
    }
}
