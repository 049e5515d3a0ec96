//! A sketch index over a data lake.
//!
//! This is the end-to-end dataset-search workflow the paper motivates: every column of
//! every table in the lake is sketched *once* (a small, reusable summary); a query
//! column is then compared against all indexed sketches to rank candidate tables by
//! estimated joinability (join size) or relatedness (absolute post-join correlation),
//! using "a fraction of the computational resources in comparison to explicitly
//! materializing table joins".

use crate::error::JoinError;
use crate::estimate::{JoinEstimator, SketchedColumn};
use crate::exact::JoinStatistics;
use ipsketch_data::Table;
use std::sync::Arc;

/// Identifies one column of one table in the lake.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnId {
    /// The table name.
    pub table: String,
    /// The column name.
    pub column: String,
}

/// One ranked query result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedColumn {
    /// Which column this is.
    pub id: ColumnId,
    /// The ranking score (estimated join size or |estimated correlation|, depending on
    /// the query).
    pub score: f64,
    /// The estimated join size with the query column.
    pub estimated_join_size: f64,
    /// The estimated post-join correlation with the query column.
    pub estimated_correlation: f64,
}

/// The default confidence multiplier applied to the companion's Table-1 error bound
/// `ε·√(rows_q·rows_c)` when sizing the cascade pruning margin.  At 10× the bound the
/// per-pair probability that a true top-k candidate's cheap estimate strays outside
/// its interval is negligible (the Table-1 experiments measure errors well inside one
/// bound), so the cascade's answer is the flat scan's answer; smaller multipliers
/// trade recall for a thinner survivor set and are exercised by the recall
/// regression tests.
pub const DEFAULT_CASCADE_CONFIDENCE: f64 = 10.0;

/// Telemetry of one cascade query: how hard the cheap tier pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeStats {
    /// Candidates scored by the cheap tier (all indexed columns outside the query's
    /// own table).
    pub candidates: usize,
    /// Candidates that survived the prefilter and were reranked by the primary
    /// estimator.
    pub survivors: usize,
}

/// A pre-sketched data lake supporting joinability and relatedness queries.
///
/// Entries are shared, never copied: cloning an index copies one pointer per
/// column, and the clone and the original hold the same sketch allocations.  A
/// server publishes a clone as an immutable snapshot and keeps mutating its own
/// copy; neither sees the other's later inserts or removals.
#[derive(Debug, Clone)]
pub struct SketchIndex {
    estimator: JoinEstimator,
    /// The cheap-tier (companion) estimator, when the index carries one; required by
    /// the cascade query path and used to sketch companion queries.
    companion: Option<JoinEstimator>,
    entries: Vec<Arc<IndexEntry>>,
}

/// One indexed column: its identity, primary sketch, and (optionally) the cheap
/// companion sketch the cascade prefilter scores with.
#[derive(Debug, Clone)]
struct IndexEntry {
    id: ColumnId,
    sketch: SketchedColumn,
    companion: Option<SketchedColumn>,
}

impl SketchIndex {
    /// Creates an empty index that will sketch columns with the given estimator.
    #[must_use]
    pub fn new(estimator: JoinEstimator) -> Self {
        Self {
            estimator,
            companion: None,
            entries: Vec::new(),
        }
    }

    /// Attaches (or detaches) the cheap-tier companion estimator the cascade query
    /// path prefilters with.  Tables inserted *after* this call are companion-sketched
    /// automatically; already-indexed entries keep whatever companion they were
    /// inserted with.
    pub fn set_companion_estimator(&mut self, companion: Option<JoinEstimator>) {
        self.companion = companion;
    }

    /// The cheap-tier companion estimator, if the index carries one.
    #[must_use]
    pub fn companion_estimator(&self) -> Option<&JoinEstimator> {
        self.companion.as_ref()
    }

    /// Number of indexed columns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The indexed column identifiers, in insertion order.
    pub fn columns(&self) -> impl Iterator<Item = &ColumnId> {
        self.entries.iter().map(|entry| &entry.id)
    }

    /// The estimator this index sketches and ranks with.
    #[must_use]
    pub fn estimator(&self) -> &JoinEstimator {
        &self.estimator
    }

    /// Whether `table.column` is already indexed.
    #[must_use]
    pub fn contains(&self, table: &str, column: &str) -> bool {
        self.entries
            .iter()
            .any(|entry| entry.id.table == table && entry.id.column == column)
    }

    /// Inserts an already-sketched column — the hydration path a persistent catalog
    /// takes when loading stored sketches, which skips re-sketching entirely.  The
    /// caller is responsible for having validated that the sketches match this index's
    /// estimator configuration (catalogs do this against their recorded
    /// [`SketcherSpec`](ipsketch_core::SketcherSpec) at load time); a mismatched column
    /// surfaces as [`JoinError::Sketch`] on the first query that touches it.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the column is already present, so hydration
    /// never silently double-counts a candidate.
    pub fn insert_sketched(&mut self, sketched: SketchedColumn) -> Result<(), JoinError> {
        self.insert_sketched_with_companion(sketched, None)
    }

    /// Inserts an already-sketched column together with its (optional) cheap
    /// companion sketch — the hydration path of a companion-carrying catalog.
    /// Entries without a companion are never pruned by the cascade prefilter: they
    /// survive unconditionally to the primary rerank, so a partially-backfilled
    /// catalog stays exactly as correct as the flat scan.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the column is already present.
    pub fn insert_sketched_with_companion(
        &mut self,
        sketched: SketchedColumn,
        companion: Option<SketchedColumn>,
    ) -> Result<(), JoinError> {
        if self.contains(&sketched.table, &sketched.column) {
            return Err(JoinError::Sketch(
                ipsketch_core::SketchError::IncompatibleSketches {
                    detail: format!(
                        "column `{}.{}` is already indexed",
                        sketched.table, sketched.column
                    ),
                },
            ));
        }
        self.entries.push(Arc::new(IndexEntry {
            id: ColumnId {
                table: sketched.table.clone(),
                column: sketched.column.clone(),
            },
            sketch: sketched,
            companion,
        }));
        Ok(())
    }

    /// Indexes every numeric column of a table.  Columns that cannot be sketched (e.g.
    /// all-zero columns) are skipped and reported back by name.
    ///
    /// Returns the names of the skipped columns.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] only for structural problems (unknown columns cannot occur
    /// here since the names come from the table itself).
    pub fn insert_table(&mut self, table: &Table) -> Result<Vec<String>, JoinError> {
        let mut skipped = Vec::new();
        for column in table.columns() {
            match self.estimator.sketch_column(table, &column.name) {
                Ok(sketched) => {
                    let companion = match &self.companion {
                        Some(est) => Some(est.sketch_column(table, &column.name)?),
                        None => None,
                    };
                    self.entries.push(Arc::new(IndexEntry {
                        id: ColumnId {
                            table: table.name().to_string(),
                            column: column.name.clone(),
                        },
                        sketch: sketched,
                        companion,
                    }));
                }
                Err(JoinError::EmptyColumn { .. }) => skipped.push(column.name.clone()),
                Err(other) => return Err(other),
            }
        }
        Ok(skipped)
    }

    /// Indexes every numeric column of a table by sketching `partitions` row-chunks
    /// independently and merging — the distributed path a sharded deployment takes,
    /// exposed here so single-process users exercise identical code.  Produces entries
    /// interchangeable with [`insert_table`](Self::insert_table) (see
    /// [`JoinEstimator::sketch_column_partitioned`]).
    ///
    /// Returns the names of the skipped (unsketchable) columns.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] for structural problems, including non-mergeable sketch
    /// methods (SimHash).
    pub fn insert_table_partitioned(
        &mut self,
        table: &Table,
        partitions: usize,
    ) -> Result<Vec<String>, JoinError> {
        let mut skipped = Vec::new();
        for column in table.columns() {
            match self
                .estimator
                .sketch_column_partitioned(table, &column.name, partitions)
            {
                Ok(sketched) => {
                    let companion = match &self.companion {
                        Some(est) => {
                            Some(est.sketch_column_partitioned(table, &column.name, partitions)?)
                        }
                        None => None,
                    };
                    self.entries.push(Arc::new(IndexEntry {
                        id: ColumnId {
                            table: table.name().to_string(),
                            column: column.name.clone(),
                        },
                        sketch: sketched,
                        companion,
                    }));
                }
                Err(JoinError::EmptyColumn { .. }) => skipped.push(column.name.clone()),
                Err(other) => return Err(other),
            }
        }
        Ok(skipped)
    }

    /// Sketches a query column with the same configuration as the index.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] if the column is missing or cannot be sketched.
    pub fn sketch_query(&self, table: &Table, column: &str) -> Result<SketchedColumn, JoinError> {
        self.estimator.sketch_column(table, column)
    }

    /// Sketches a query column through the partitioned (chunk-and-merge) path, with the
    /// same configuration as the index.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] if the column is missing or cannot be sketched.
    pub fn sketch_query_partitioned(
        &self,
        table: &Table,
        column: &str,
        partitions: usize,
    ) -> Result<SketchedColumn, JoinError> {
        self.estimator
            .sketch_column_partitioned(table, column, partitions)
    }

    /// Removes an indexed column and returns its sketches — the in-memory half of
    /// catalog column deletion (the catalog tombstones the manifest entry; a hydrated
    /// index drops the candidate here so it stops ranking immediately).
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::NotIndexed`] if the column is not in the index.
    pub fn remove(&mut self, table: &str, column: &str) -> Result<SketchedColumn, JoinError> {
        let position = self
            .entries
            .iter()
            .position(|entry| entry.id.table == table && entry.id.column == column)
            .ok_or_else(|| JoinError::NotIndexed {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        // A snapshot may still share the entry; it keeps its copy.
        Ok(match Arc::try_unwrap(self.entries.remove(position)) {
            Ok(entry) => entry.sketch,
            Err(shared) => shared.sketch.clone(),
        })
    }

    /// Looks up the stored sketch of an indexed column.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::NotIndexed`] if the column is not in the index.
    pub fn get(&self, table: &str, column: &str) -> Result<&SketchedColumn, JoinError> {
        self.entries
            .iter()
            .find(|entry| entry.id.table == table && entry.id.column == column)
            .map(|entry| &entry.sketch)
            .ok_or_else(|| JoinError::NotIndexed {
                table: table.to_string(),
                column: column.to_string(),
            })
    }

    /// Looks up the stored cheap companion sketch of an indexed column, if the entry
    /// carries one.
    #[must_use]
    pub fn get_companion(&self, table: &str, column: &str) -> Option<&SketchedColumn> {
        self.entries
            .iter()
            .find(|entry| entry.id.table == table && entry.id.column == column)
            .and_then(|entry| entry.companion.as_ref())
    }

    /// Ranks all indexed columns (excluding those from the query's own table) by
    /// estimated join size with the query column and returns the top `k`.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the query sketch is incompatible with the index.
    pub fn top_k_joinable(
        &self,
        query: &SketchedColumn,
        k: usize,
    ) -> Result<Vec<RankedColumn>, JoinError> {
        Ok(top_k(self.score_all(query, join_size_score)?, k))
    }

    /// Sketches a query column with the companion (cheap-tier) configuration, or
    /// `None` when the index has no companion estimator.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] if the column is missing or cannot be sketched.
    pub fn sketch_companion_query(
        &self,
        table: &Table,
        column: &str,
    ) -> Result<Option<SketchedColumn>, JoinError> {
        match &self.companion {
            Some(est) => Ok(Some(est.sketch_column(table, column)?)),
            None => Ok(None),
        }
    }

    /// The two-tier joinability query: the cheap companion tier scores every
    /// candidate, an interval prefilter sized from the Table-1 bound keeps the
    /// candidates whose cheap score could still reach the top `k`, and the primary
    /// estimator reranks the survivors.
    ///
    /// Per candidate `c` the cheap score `s_c` is bracketed by the additive margin
    /// `b_c = confidence · ε · √(rows_q · rows_c)` (with `ε = 1/√m` from the
    /// companion's [`SketcherSpec::prefilter_epsilon`](ipsketch_core::SketcherSpec::prefilter_epsilon));
    /// the pruning threshold `τ` is the `k`-th largest lower bound `s_c − b_c`, and a
    /// candidate survives iff `s_c + b_c ≥ τ`.  Whenever every cheap estimate is
    /// within its margin of the true score — which `confidence` is sized to make
    /// overwhelmingly likely — at least `k` candidates with true score above any
    /// pruned candidate survive, so the returned ranking is exactly (bit for bit,
    /// including the deterministic `(score, table, column)` tie-break) the flat
    /// scan's top `k`.  Entries without a stored companion sketch are never pruned.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the index has no companion estimator, the
    /// companion method is not prefilter-eligible, or a sketch is incompatible.
    pub fn top_k_joinable_cascade(
        &self,
        query: &SketchedColumn,
        companion_query: &SketchedColumn,
        k: usize,
        confidence: f64,
    ) -> Result<(Vec<RankedColumn>, CascadeStats), JoinError> {
        let incompatible = |detail: String| {
            JoinError::Sketch(ipsketch_core::SketchError::IncompatibleSketches { detail })
        };
        let companion = self.companion.as_ref().ok_or_else(|| {
            incompatible("this index has no companion (cheap-tier) estimator".to_string())
        })?;
        let epsilon = companion
            .sketcher()
            .spec()
            .prefilter_epsilon()
            .ok_or_else(|| {
                incompatible(format!(
                    "companion method {} is not prefilter-eligible",
                    companion.sketcher().method().label()
                ))
            })?;

        // Cheap tier: score every candidate outside the query's own table and bracket
        // the true score with the bound-sized interval.  A non-finite cheap score (a
        // corrupt companion) falls back to "never pruned" — the primary rerank then
        // surfaces the same typed error the flat scan would.
        let candidates: Vec<&IndexEntry> = self
            .entries
            .iter()
            .map(Arc::as_ref)
            .filter(|entry| entry.id.table != query.table)
            .collect();
        let mut intervals: Vec<Option<(f64, f64)>> = Vec::with_capacity(candidates.len());
        for entry in &candidates {
            let interval = match &entry.companion {
                None => None,
                Some(comp) => {
                    let score = companion.estimate_join_size(companion_query, comp)?;
                    if score.is_finite() {
                        let margin = confidence
                            * epsilon
                            * ((query.rows as f64) * (entry.sketch.rows as f64)).sqrt();
                        Some((score - margin, score + margin))
                    } else {
                        None
                    }
                }
            };
            intervals.push(interval);
        }

        // τ = k-th largest cheap lower bound.  With fewer than k bracketed candidates
        // no threshold exists and everyone survives (the cascade degenerates to the
        // flat scan plus one cheap pass).
        let mut lowers: Vec<f64> = intervals
            .iter()
            .filter_map(|i| i.map(|(lower, _)| lower))
            .collect();
        let threshold = if k > 0 && lowers.len() >= k {
            Some(
                *lowers
                    .select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a))
                    .1,
            )
        } else {
            None
        };

        // Primary rerank of the survivors — the flat scan's scoring, order and
        // non-finite handling.
        let mut scored = Vec::new();
        for (entry, interval) in candidates.iter().zip(&intervals) {
            let survives = match (threshold, interval) {
                (Some(tau), Some((_, upper))) => *upper >= tau,
                _ => true,
            };
            if survives {
                scored.push(self.score_entry(query, entry, join_size_score)?);
            }
        }
        let stats = CascadeStats {
            candidates: candidates.len(),
            survivors: scored.len(),
        };
        Ok((top_k(scored, k), stats))
    }

    /// Answers a batch of cascade joinability queries (each a primary + companion
    /// query-sketch pair) in input order; result `i` is exactly
    /// [`top_k_joinable_cascade`](Self::top_k_joinable_cascade) for query `i`.
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) per-query error; batches are
    /// all-or-nothing.
    pub fn top_k_joinable_cascade_batch(
        &self,
        queries: &[(SketchedColumn, SketchedColumn)],
        k: usize,
        confidence: f64,
    ) -> Result<Vec<Vec<RankedColumn>>, JoinError> {
        queries
            .iter()
            .map(|(q, cq)| {
                self.top_k_joinable_cascade(q, cq, k, confidence)
                    .map(|(results, _)| results)
            })
            .collect()
    }

    /// Ranks all indexed columns (excluding those from the query's own table) by the
    /// absolute value of the estimated post-join correlation and returns the top `k`.
    ///
    /// Columns whose estimated join size is below `min_join_size` are excluded, since a
    /// correlation over a (nearly) empty join is meaningless.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the query sketch is incompatible with the index.
    pub fn top_k_correlated(
        &self,
        query: &SketchedColumn,
        k: usize,
        min_join_size: f64,
    ) -> Result<Vec<RankedColumn>, JoinError> {
        let mut scored = self.score_all(query, |stats| stats.correlation.abs())?;
        scored.retain(|s| s.join_size >= min_join_size);
        Ok(top_k(scored, k))
    }

    /// Answers a batch of joinability queries in one call — the shape a query service
    /// receives over the wire.  Result `i` is the ranking for query `i`, exactly as if
    /// [`top_k_joinable`](Self::top_k_joinable) had been called per query.
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) per-query error; a batch is all-or-nothing
    /// so callers never have to pair partial results back up with their queries.
    pub fn top_k_joinable_batch(
        &self,
        queries: &[SketchedColumn],
        k: usize,
    ) -> Result<Vec<Vec<RankedColumn>>, JoinError> {
        queries.iter().map(|q| self.top_k_joinable(q, k)).collect()
    }

    /// Answers a batch of relatedness (correlation) queries in one call; result `i` is
    /// the ranking for query `i`, as from
    /// [`top_k_correlated`](Self::top_k_correlated).
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) per-query error (batches are
    /// all-or-nothing).
    pub fn top_k_correlated_batch(
        &self,
        queries: &[SketchedColumn],
        k: usize,
        min_join_size: f64,
    ) -> Result<Vec<Vec<RankedColumn>>, JoinError> {
        queries
            .iter()
            .map(|q| self.top_k_correlated(q, k, min_join_size))
            .collect()
    }

    /// Scores every indexed column outside the query's own table, in index order.
    fn score_all(
        &self,
        query: &SketchedColumn,
        score: fn(&JoinStatistics) -> f64,
    ) -> Result<Vec<Scored<'_>>, JoinError> {
        self.entries
            .iter()
            .filter(|entry| entry.id.table != query.table)
            .map(|entry| self.score_entry(query, entry, score))
            .collect()
    }

    /// Scores one candidate with the primary estimator — the single scoring step of
    /// the flat scan and the cascade rerank.
    fn score_entry<'a>(
        &self,
        query: &SketchedColumn,
        entry: &'a IndexEntry,
        score: fn(&JoinStatistics) -> f64,
    ) -> Result<Scored<'a>, JoinError> {
        let stats = self.estimator.estimate(query, &entry.sketch)?;
        let score = score(&stats);
        // Well-formed sketches always estimate finite statistics; a NaN or infinite
        // score means a corrupt/hand-built sketch and has no defensible rank, so
        // fail with a typed error naming the culprit instead of panicking mid-sort.
        if !score.is_finite() {
            return Err(JoinError::NonFiniteScore {
                table: entry.id.table.clone(),
                column: entry.id.column.clone(),
            });
        }
        Ok(Scored {
            entry,
            score,
            join_size: stats.join_size,
            correlation: stats.correlation,
        })
    }
}

/// One candidate scored by the primary estimator.  It borrows its index entry, so
/// only the `k` candidates a query returns pay for cloning their [`ColumnId`].
struct Scored<'a> {
    entry: &'a IndexEntry,
    score: f64,
    join_size: f64,
    correlation: f64,
}

/// The joinability score: the estimated join size.
fn join_size_score(stats: &JoinStatistics) -> f64 {
    stats.join_size
}

/// The `k` best of `scored` as ranked results.
///
/// Deterministic total order: score descending, then `(table, column)` ascending.
/// Without the tie-break, equal scores rank in index insertion order — two indexes
/// holding the same columns could disagree, and a router merging per-node top-k lists
/// could never reproduce a single node's answer bit for bit.
fn top_k(mut scored: Vec<Scored<'_>>, k: usize) -> Vec<RankedColumn> {
    scored.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.entry.id.table.cmp(&b.entry.id.table))
            .then_with(|| a.entry.id.column.cmp(&b.entry.id.column))
    });
    scored
        .into_iter()
        .take(k)
        .map(|s| RankedColumn {
            id: s.entry.id.clone(),
            score: s.score,
            estimated_join_size: s.join_size,
            estimated_correlation: s.correlation,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_core::method::{AnySketch, AnySketcher, SketchMethod};
    use ipsketch_core::serialize::BinarySketch;
    use ipsketch_data::{Column, DataLakeConfig, Table};

    /// A small lake where table "query" joins heavily with "good" and not at all with
    /// "bad", and the "good" table carries a strongly correlated column.
    fn scenario() -> (Table, Table, Table) {
        let keys: Vec<u64> = (0..500).collect();
        let query = Table::new(
            "query",
            keys.clone(),
            vec![Column::new(
                "rides",
                (0..500).map(|i| f64::from(i) + 1.0).collect(),
            )],
        )
        .expect("unique keys");
        let good = Table::new(
            "good",
            (100..600).collect(),
            vec![
                Column::new(
                    "precip",
                    (100..600).map(|i| 2.0 * f64::from(i) + 3.0).collect(),
                ),
                Column::new(
                    "noise",
                    (0..500).map(|i| f64::from((i * 37) % 11) - 5.0).collect(),
                ),
            ],
        )
        .expect("unique keys");
        let bad = Table::new(
            "bad",
            (10_000..10_500).collect(),
            vec![Column::new(
                "other",
                (0..500).map(|i| f64::from(i % 7) + 1.0).collect(),
            )],
        )
        .expect("unique keys");
        (query, good, bad)
    }

    #[test]
    fn empty_index_basics() -> Result<(), JoinError> {
        let index = SketchIndex::new(JoinEstimator::weighted_minhash(200.0, 1)?);
        assert_eq!(index.len(), 0);
        assert!(index.is_empty());
        assert_eq!(index.columns().count(), 0);
        assert!(!index.contains("t", "c"));
        assert!(matches!(
            index.get("t", "c"),
            Err(JoinError::NotIndexed { .. })
        ));
        Ok(())
    }

    #[test]
    fn insert_and_lookup() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 1)?);
        assert!(index.insert_table(&good)?.is_empty());
        assert!(index.insert_table(&bad)?.is_empty());
        assert_eq!(index.len(), 3);
        assert!(index.get("good", "precip").is_ok());
        assert!(index.contains("good", "precip"));
        assert!(index.get("good", "missing").is_err());
        // Query sketches are built with the same configuration.
        let q = index.sketch_query(&query, "rides")?;
        assert_eq!(q.table, "query");
        Ok(())
    }

    #[test]
    fn insert_sketched_hydrates_and_rejects_duplicates() -> Result<(), JoinError> {
        let (query, good, _) = scenario();
        let est = JoinEstimator::weighted_minhash(300.0, 1)?;
        let sketched = est.sketch_column(&good, "precip")?;
        let mut index = SketchIndex::new(est);
        index.insert_sketched(sketched.clone())?;
        assert_eq!(index.len(), 1);
        assert_eq!(index.get("good", "precip")?, &sketched);
        // A second insert of the same (table, column) is a typed error.
        assert!(index.insert_sketched(sketched.clone()).is_err());
        assert_eq!(index.len(), 1);
        // Hydrated entries answer queries like freshly sketched ones.
        let q = index.sketch_query(&query, "rides")?;
        let ranked = index.top_k_joinable(&q, 1)?;
        assert_eq!(ranked[0].id.table, "good");
        Ok(())
    }

    #[test]
    fn remove_drops_the_column_from_ranking() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 7)?);
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        assert_eq!(index.len(), 3);
        let removed = index.remove("good", "precip")?;
        assert_eq!(removed.table, "good");
        assert_eq!(removed.column, "precip");
        assert_eq!(index.len(), 2);
        assert!(!index.contains("good", "precip"));
        // Removing again (or a never-indexed column) is a typed error.
        assert!(matches!(
            index.remove("good", "precip"),
            Err(JoinError::NotIndexed { .. })
        ));
        // The removed column no longer ranks; re-inserting restores it.
        let q = index.sketch_query(&query, "rides")?;
        assert!(index
            .top_k_joinable(&q, 10)?
            .iter()
            .all(|r| r.id.column != "precip"));
        index.insert_sketched(removed)?;
        assert!(index
            .top_k_joinable(&q, 10)?
            .iter()
            .any(|r| r.id.column == "precip"));
        Ok(())
    }

    #[test]
    fn clones_share_entries_and_diverge_only_in_membership() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 7)?);
        index.insert_table(&good)?;
        let snapshot = index.clone();
        assert!(index
            .entries
            .iter()
            .zip(&snapshot.entries)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        let q = index.sketch_query(&query, "rides")?;
        let before = snapshot.top_k_joinable(&q, 10)?;

        index.insert_table(&bad)?;
        let removed = index.remove("good", "precip")?;
        assert_eq!(&removed, snapshot.get("good", "precip")?);
        // The snapshot still holds exactly what it held, and still answers the same.
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot.top_k_joinable(&q, 10)?, before);
        let shared = index.get("good", "noise")?;
        assert!(std::ptr::eq(shared, snapshot.get("good", "noise")?));
        Ok(())
    }

    #[test]
    fn all_zero_columns_are_skipped_not_fatal() -> Result<(), JoinError> {
        let zero = Table::new(
            "zeros",
            vec![1, 2, 3],
            vec![
                Column::new("z", vec![0.0, 0.0, 0.0]),
                Column::new("ok", vec![1.0, 2.0, 3.0]),
            ],
        )?;
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(100.0, 1)?);
        let skipped = index.insert_table(&zero)?;
        assert_eq!(skipped, vec!["z".to_string()]);
        assert_eq!(index.len(), 1);
        Ok(())
    }

    #[test]
    fn joinable_ranking_prefers_overlapping_tables() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(400.0, 7)?);
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        let q = index.sketch_query(&query, "rides")?;
        let ranked = index.top_k_joinable(&q, 3)?;
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].id.table, "good");
        assert!(ranked[0].estimated_join_size > 200.0);
        // The disjoint table lands at the bottom with (near-)zero join size.
        let last = ranked.last().expect("three results");
        assert_eq!(last.id.table, "bad");
        assert!(last.estimated_join_size < 50.0);
        Ok(())
    }

    #[test]
    fn correlation_ranking_finds_the_related_column() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(500.0, 11)?);
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        let q = index.sketch_query(&query, "rides")?;
        let ranked = index.top_k_correlated(&q, 2, 50.0)?;
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].id.table, "good");
        assert_eq!(ranked[0].id.column, "precip");
        assert!(
            ranked[0].estimated_correlation.abs() > 0.5,
            "correlation {}",
            ranked[0].estimated_correlation
        );
        // The disjoint table is filtered out by the minimum-join-size threshold.
        assert!(ranked.iter().all(|r| r.id.table != "bad"));
        Ok(())
    }

    #[test]
    fn batched_queries_match_single_queries() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 7)?);
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        let q1 = index.sketch_query(&query, "rides")?;
        let q2 = index.sketch_query(&bad, "other")?;
        let batch = index.top_k_joinable_batch(&[q1.clone(), q2.clone()], 3)?;
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], index.top_k_joinable(&q1, 3)?);
        assert_eq!(batch[1], index.top_k_joinable(&q2, 3)?);
        let related = index.top_k_correlated_batch(std::slice::from_ref(&q1), 2, 25.0)?;
        assert_eq!(related[0], index.top_k_correlated(&q1, 2, 25.0)?);
        assert!(index.top_k_joinable_batch(&[], 3)?.is_empty());
        // A batch containing one incompatible query fails as a whole.
        let foreign = JoinEstimator::weighted_minhash(300.0, 8)?;
        let bad_query = foreign.sketch_column(&query, "rides")?;
        assert!(index.top_k_joinable_batch(&[q1, bad_query], 3).is_err());
        Ok(())
    }

    /// Rewrites a JL sketch so every row is scaled by 1e308 — the kind of damage a
    /// corrupted blob could carry.  The inner product of the result with the original
    /// sketch overflows to +∞.
    fn inflate_jl(sketch: &AnySketch) -> AnySketch {
        let rows = match sketch {
            AnySketch::Jl(s) => s.rows().to_vec(),
            other => panic!("expected a JL sketch, got {other:?}"),
        };
        let bytes = BinarySketch::to_bytes(sketch);
        // Layout: header (6) + seed (8) + row-count prefix (8), then the row f64s.
        let mut out = bytes[..22].to_vec();
        for row in rows {
            out.extend_from_slice(&(row * 1e308).to_le_bytes());
        }
        AnySketch::from_bytes(&out).expect("layout is preserved")
    }

    #[test]
    fn non_finite_scores_are_typed_errors_not_panics() -> Result<(), JoinError> {
        // Previously the ranking sort carried an `expect("scores are finite")`: a
        // corrupt sketch whose estimate overflowed ranked as garbage, and a NaN score
        // panicked mid-sort.  Both now surface as a typed error naming the culprit.
        let (query, good, _) = scenario();
        let est = JoinEstimator::new(AnySketcher::for_budget(SketchMethod::Jl, 200.0, 3)?);
        let mut index = SketchIndex::new(est);
        index.insert_table(&good)?;
        let q = index.sketch_query(&query, "rides")?;
        assert!(index.top_k_joinable(&q, 5).is_ok(), "sane index ranks fine");

        let evil = SketchedColumn::from_parts(
            "evil",
            "col",
            500,
            inflate_jl(q.key_indicator()),
            q.values().clone(),
            q.squared_values().clone(),
        );
        index.insert_sketched(evil)?;
        let err = index
            .top_k_joinable(&q, 5)
            .expect_err("overflowing estimate must not rank");
        assert!(
            matches!(err, JoinError::NonFiniteScore { ref table, .. } if table == "evil"),
            "unexpected error: {err:?}"
        );
        Ok(())
    }

    #[test]
    fn partitioned_indexing_matches_one_shot_ranking() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut one_shot = SketchIndex::new(JoinEstimator::weighted_minhash(400.0, 7)?);
        one_shot.insert_table(&good)?;
        one_shot.insert_table(&bad)?;
        let mut partitioned = SketchIndex::new(JoinEstimator::weighted_minhash(400.0, 7)?);
        assert!(partitioned.insert_table_partitioned(&good, 4)?.is_empty());
        assert!(partitioned.insert_table_partitioned(&bad, 4)?.is_empty());
        assert_eq!(partitioned.len(), one_shot.len());

        let q_one = one_shot.sketch_query(&query, "rides")?;
        let q_part = partitioned.sketch_query_partitioned(&query, "rides", 4)?;
        let ranked_one = one_shot.top_k_joinable(&q_one, 3)?;
        let ranked_part = partitioned.top_k_joinable(&q_part, 3)?;
        // Same ordering, and join-size estimates agree within WMH's grid-rounding
        // tolerance (the only difference between the two sketching paths).
        assert_eq!(
            ranked_one.iter().map(|r| r.id.clone()).collect::<Vec<_>>(),
            ranked_part.iter().map(|r| r.id.clone()).collect::<Vec<_>>()
        );
        for (a, b) in ranked_one.iter().zip(&ranked_part) {
            assert!(
                (a.estimated_join_size - b.estimated_join_size).abs()
                    <= 0.1 * a.estimated_join_size.max(50.0),
                "{} vs {}",
                a.estimated_join_size,
                b.estimated_join_size
            );
        }
        // Partitioned and one-shot sketches interoperate: a one-shot query against the
        // partition-built index estimates the same joins.
        let mixed = partitioned.top_k_joinable(&q_one, 3)?;
        assert_eq!(mixed[0].id.table, "good");
        Ok(())
    }

    #[test]
    fn query_table_itself_is_excluded() -> Result<(), JoinError> {
        let (query, good, _) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 3)?);
        index.insert_table(&query)?;
        index.insert_table(&good)?;
        let q = index.sketch_query(&query, "rides")?;
        let ranked = index.top_k_joinable(&q, 10)?;
        assert!(ranked.iter().all(|r| r.id.table != "query"));
        Ok(())
    }

    #[test]
    fn ranking_is_invariant_under_insertion_order() -> Result<(), JoinError> {
        // Tables "tie_a".."tie_d" carry byte-identical column data, so their
        // sketches — and therefore their scores against any query — are exactly
        // equal.  Before the (table, column) tie-break, their relative order
        // depended on index insertion order; now every permutation must produce
        // the identical ranked list, bit for bit.
        let (query, good, bad) = scenario();
        let tied: Vec<Table> = ["tie_c", "tie_a", "tie_d", "tie_b"]
            .iter()
            .map(|name| {
                Table::new(
                    *name,
                    (200..700).collect(),
                    vec![Column::new(
                        "v",
                        (200..700).map(|i| f64::from(i) * 0.5 + 1.0).collect(),
                    )],
                )
                .expect("unique keys")
            })
            .collect();
        let mut tables: Vec<&Table> = vec![&good, &bad];
        tables.extend(tied.iter());

        let build = |order: &[usize]| -> Result<Vec<RankedColumn>, JoinError> {
            let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 7)?);
            for &i in order {
                index.insert_table(tables[i])?;
            }
            let q = index.sketch_query(&query, "rides")?;
            index.top_k_joinable(&q, tables.len() + 1)
        };

        let baseline = build(&[0, 1, 2, 3, 4, 5])?;
        // The tied tables must actually tie, or this test has no teeth.
        let tie_scores: Vec<u64> = baseline
            .iter()
            .filter(|r| r.id.table.starts_with("tie_"))
            .map(|r| r.score.to_bits())
            .collect();
        assert_eq!(tie_scores.len(), 4);
        assert!(
            tie_scores.windows(2).all(|w| w[0] == w[1]),
            "planted columns must score identically"
        );
        // Ties break ascending on table name.
        let tie_names: Vec<&str> = baseline
            .iter()
            .filter(|r| r.id.table.starts_with("tie_"))
            .map(|r| r.id.table.as_str())
            .collect();
        assert_eq!(tie_names, vec!["tie_a", "tie_b", "tie_c", "tie_d"]);

        for order in [[5, 4, 3, 2, 1, 0], [2, 0, 4, 1, 5, 3], [3, 5, 1, 4, 0, 2]] {
            let permuted = build(&order)?;
            assert_eq!(
                permuted, baseline,
                "ranking depends on insertion order {order:?}"
            );
        }
        Ok(())
    }

    #[test]
    fn top_k_truncates() -> Result<(), JoinError> {
        let lake = DataLakeConfig {
            tables: 6,
            columns_per_table: 2,
            min_rows: 100,
            max_rows: 300,
            key_universe: 1_000,
        }
        .generate(5)?;
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(200.0, 9)?);
        for table in lake.tables() {
            index.insert_table(table)?;
        }
        let query_table = &lake.tables()[0];
        let q = index.sketch_query(query_table, &query_table.columns()[0].name)?;
        let ranked = index.top_k_joinable(&q, 3)?;
        assert_eq!(ranked.len(), 3);
        // Scores are sorted descending.
        assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score));
        Ok(())
    }

    /// A CountSketch cheap-tier estimator for cascade tests.
    fn cs_companion(seed: u64) -> JoinEstimator {
        JoinEstimator::new(
            AnySketcher::for_budget(SketchMethod::CountSketch, 300.0, seed)
                .expect("valid CS budget"),
        )
    }

    #[test]
    fn cascade_matches_flat_scan_bit_for_bit() -> Result<(), JoinError> {
        let lake = DataLakeConfig {
            tables: 8,
            columns_per_table: 3,
            min_rows: 100,
            max_rows: 300,
            key_universe: 1_000,
        }
        .generate(11)?;
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 5)?);
        index.set_companion_estimator(Some(cs_companion(5)));
        for table in lake.tables() {
            index.insert_table(table)?;
        }
        for table in lake.tables() {
            for column in table.columns() {
                let q = index.sketch_query(table, &column.name)?;
                let cq = index
                    .sketch_companion_query(table, &column.name)?
                    .expect("companion estimator attached");
                for k in [1, 3, 7] {
                    let flat = index.top_k_joinable(&q, k)?;
                    let (cascade, stats) =
                        index.top_k_joinable_cascade(&q, &cq, k, DEFAULT_CASCADE_CONFIDENCE)?;
                    assert_eq!(
                        cascade,
                        flat,
                        "cascade diverged for {}.{column:?}",
                        table.name()
                    );
                    // Bit-stability, not just PartialEq: scores must be identical f64s.
                    for (a, b) in cascade.iter().zip(&flat) {
                        assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                    assert!(stats.survivors <= stats.candidates);
                }
            }
        }
        Ok(())
    }

    #[test]
    fn cascade_batch_matches_per_query_cascade() -> Result<(), JoinError> {
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 3)?);
        index.set_companion_estimator(Some(cs_companion(3)));
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        let q = index.sketch_query(&query, "rides")?;
        let cq = index.sketch_companion_query(&query, "rides")?.unwrap();
        let (single, _) = index.top_k_joinable_cascade(&q, &cq, 3, DEFAULT_CASCADE_CONFIDENCE)?;
        let batch = index.top_k_joinable_cascade_batch(
            &[(q.clone(), cq.clone()), (q, cq)],
            3,
            DEFAULT_CASCADE_CONFIDENCE,
        )?;
        assert_eq!(batch, vec![single.clone(), single]);
        Ok(())
    }

    #[test]
    fn cascade_preserves_the_tie_break() -> Result<(), JoinError> {
        // Same planted byte-identical tables as `ranking_is_invariant_under_insertion_order`:
        // the cascade must break their exactly-equal scores on (table, column) too.
        let (query, good, bad) = scenario();
        let tied: Vec<Table> = ["tie_c", "tie_a", "tie_d", "tie_b"]
            .iter()
            .map(|name| {
                Table::new(
                    *name,
                    (200..700).collect(),
                    vec![Column::new(
                        "v",
                        (200..700).map(|i| f64::from(i) * 0.5 + 1.0).collect(),
                    )],
                )
                .expect("unique keys")
            })
            .collect();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 7)?);
        index.set_companion_estimator(Some(cs_companion(7)));
        index.insert_table(&good)?;
        index.insert_table(&bad)?;
        for table in &tied {
            index.insert_table(table)?;
        }
        let q = index.sketch_query(&query, "rides")?;
        let cq = index.sketch_companion_query(&query, "rides")?.unwrap();
        let (cascade, _) = index.top_k_joinable_cascade(&q, &cq, 10, DEFAULT_CASCADE_CONFIDENCE)?;
        let flat = index.top_k_joinable(&q, 10)?;
        assert_eq!(cascade, flat);
        let tie_names: Vec<&str> = cascade
            .iter()
            .filter(|r| r.id.table.starts_with("tie_"))
            .map(|r| r.id.table.as_str())
            .collect();
        assert_eq!(tie_names, vec!["tie_a", "tie_b", "tie_c", "tie_d"]);
        Ok(())
    }

    #[test]
    fn companionless_entries_survive_the_prefilter_unconditionally() -> Result<(), JoinError> {
        // A partially-backfilled index (some entries carry no companion) must still
        // answer exactly like the flat scan: no-companion entries bypass pruning.
        let (query, good, bad) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 3)?);
        index.set_companion_estimator(Some(cs_companion(3)));
        index.insert_table(&good)?;
        // `bad` is hydrated without a companion, as from a v1 catalog entry.
        let bare = JoinEstimator::weighted_minhash(300.0, 3)?;
        for column in bad.columns() {
            index.insert_sketched(bare.sketch_column(&bad, &column.name)?)?;
        }
        let q = index.sketch_query(&query, "rides")?;
        let cq = index.sketch_companion_query(&query, "rides")?.unwrap();
        // Even with a zero-width margin (confidence 0) the companionless entries are
        // scored by the primary tier.
        let (cascade, stats) = index.top_k_joinable_cascade(&q, &cq, 10, 0.0)?;
        let flat = index.top_k_joinable(&q, 10)?;
        assert_eq!(
            cascade.iter().map(|r| r.id.clone()).collect::<Vec<_>>(),
            flat.iter().map(|r| r.id.clone()).collect::<Vec<_>>()
        );
        assert!(
            cascade.iter().any(|r| r.id.table == "bad"),
            "companionless candidates must appear in the ranking"
        );
        assert_eq!(stats.candidates, index.len());
        Ok(())
    }

    /// Rewrites the first bucket of a CountSketch to NaN, as a damaged blob could —
    /// the decoder accepts any f64 bucket.
    fn nan_bucket(sketch: &AnySketch) -> AnySketch {
        assert!(matches!(sketch, AnySketch::CountSketch(_)));
        let mut bytes = BinarySketch::to_bytes(sketch).to_vec();
        // Layout: header (6) + seed (8) + buckets (8) + table-length prefix (8).
        bytes[30..38].copy_from_slice(&f64::NAN.to_le_bytes());
        AnySketch::from_bytes(&bytes).expect("layout is preserved")
    }

    fn with_nan_key_bucket(column: &SketchedColumn) -> SketchedColumn {
        SketchedColumn::from_parts(
            column.table.clone(),
            column.column.clone(),
            column.rows,
            nan_bucket(column.key_indicator()),
            column.values().clone(),
            column.squared_values().clone(),
        )
    }

    #[test]
    fn a_nan_companion_is_never_pruned() -> Result<(), JoinError> {
        // The best candidates carry a damaged companion whose cheap score is NaN.
        // They must survive the prefilter even at a zero-width margin, where a
        // cheap score read as 0 would put them below a half-overlapping decoy's, so
        // the cascade still answers exactly like the flat scan.
        let (query, good, bad) = scenario();
        let decoy = Table::new(
            "decoy",
            (250..750).collect(),
            vec![Column::new(
                "half",
                (250..750).map(|i| f64::from(i % 13) + 1.0).collect(),
            )],
        )?;
        let primary = JoinEstimator::weighted_minhash(300.0, 3)?;
        let companion = cs_companion(3);
        let mut index = SketchIndex::new(primary.clone());
        index.set_companion_estimator(Some(companion.clone()));
        index.insert_table(&bad)?;
        index.insert_table(&decoy)?;
        for column in good.columns() {
            let damaged = with_nan_key_bucket(&companion.sketch_column(&good, &column.name)?);
            index.insert_sketched_with_companion(
                primary.sketch_column(&good, &column.name)?,
                Some(damaged),
            )?;
        }
        let q = index.sketch_query(&query, "rides")?;
        let cq = index.sketch_companion_query(&query, "rides")?.unwrap();
        for k in [1, 2, 4] {
            let flat = index.top_k_joinable(&q, k)?;
            assert_eq!(flat[0].id.table, "good");
            for confidence in [0.0, DEFAULT_CASCADE_CONFIDENCE] {
                let (cascade, stats) = index.top_k_joinable_cascade(&q, &cq, k, confidence)?;
                assert_eq!(cascade, flat, "k {k} confidence {confidence}");
                assert!(stats.survivors >= good.columns().len());
            }
        }
        Ok(())
    }

    #[test]
    fn a_nan_bucket_in_a_countsketch_primary_is_a_typed_error() -> Result<(), JoinError> {
        // Previously the CountSketch median sorted with `expect("estimates are
        // finite")`, so one NaN bucket panicked the ranking thread.
        let (query, good, _) = scenario();
        let est = JoinEstimator::new(AnySketcher::for_budget(
            SketchMethod::CountSketch,
            300.0,
            3,
        )?);
        let mut index = SketchIndex::new(est.clone());
        index.insert_table(&good)?;
        let q = index.sketch_query(&query, "rides")?;
        let mut evil = with_nan_key_bucket(&est.sketch_column(&good, "precip")?);
        evil.table = "evil".to_string();
        index.insert_sketched(evil)?;
        let err = index
            .top_k_joinable(&q, 5)
            .expect_err("a NaN join size must not rank");
        assert!(
            matches!(err, JoinError::NonFiniteScore { ref table, .. } if table == "evil"),
            "unexpected error: {err:?}"
        );
        Ok(())
    }

    #[test]
    fn tight_margins_prune_and_loose_margins_do_not() -> Result<(), JoinError> {
        let lake = DataLakeConfig {
            tables: 10,
            columns_per_table: 2,
            min_rows: 100,
            max_rows: 300,
            key_universe: 1_000,
        }
        .generate(23)?;
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(200.0, 9)?);
        index.set_companion_estimator(Some(cs_companion(9)));
        for table in lake.tables() {
            index.insert_table(table)?;
        }
        let query_table = &lake.tables()[0];
        let name = &query_table.columns()[0].name;
        let q = index.sketch_query(query_table, name)?;
        let cq = index.sketch_companion_query(query_table, name)?.unwrap();
        // Zero-width margins keep only the cheap tier's own top-k (plus exact ties).
        let (_, tight) = index.top_k_joinable_cascade(&q, &cq, 1, 0.0)?;
        assert!(
            tight.survivors < tight.candidates,
            "a zero-width margin must prune: {tight:?}"
        );
        // An absurdly wide margin keeps everyone.
        let (wide_ranked, wide) = index.top_k_joinable_cascade(&q, &cq, 1, 1e12)?;
        assert_eq!(wide.survivors, wide.candidates);
        assert_eq!(wide_ranked, index.top_k_joinable(&q, 1)?);
        Ok(())
    }

    #[test]
    fn cascade_without_a_companion_estimator_is_a_typed_error() -> Result<(), JoinError> {
        let (query, good, _) = scenario();
        let mut index = SketchIndex::new(JoinEstimator::weighted_minhash(300.0, 3)?);
        index.insert_table(&good)?;
        let q = index.sketch_query(&query, "rides")?;
        assert!(index.sketch_companion_query(&query, "rides")?.is_none());
        let err = index
            .top_k_joinable_cascade(&q, &q, 5, DEFAULT_CASCADE_CONFIDENCE)
            .expect_err("no companion tier");
        assert!(matches!(err, JoinError::Sketch(_)), "unexpected: {err:?}");

        // A companion method without a Table-1 prefilter bound (WMH) is also rejected.
        index.set_companion_estimator(Some(JoinEstimator::weighted_minhash(100.0, 3)?));
        let cq = index.sketch_companion_query(&query, "rides")?.unwrap();
        let err = index
            .top_k_joinable_cascade(&q, &cq, 5, DEFAULT_CASCADE_CONFIDENCE)
            .expect_err("WMH is not prefilter-eligible");
        assert!(matches!(err, JoinError::Sketch(_)), "unexpected: {err:?}");
        Ok(())
    }
}
