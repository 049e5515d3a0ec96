//! Sketch-based estimation of post-join statistics.
//!
//! [`JoinEstimator`] wraps one [`AnySketcher`] (any method, any budget) and pre-computes
//! per column the sketches of the three Figure-3 vectors `x_1[K]`, `x_V` and `x_{V²}`.
//! All of Figure 2's post-join statistics — and, following the correlation-sketches line
//! of work the paper cites, the post-join Pearson correlation — are then estimated from
//! pairwise sketch inner products only, without ever joining the tables.

use crate::error::JoinError;
use crate::exact::JoinStatistics;
use crate::vectorize::ColumnVectors;
use ipsketch_core::method::{AnySketch, AnySketcher, SketchMethod, SketchPath};
use ipsketch_core::serialize::{BinarySketch, SliceReader};
use ipsketch_core::traits::{Sketch, Sketcher};
use ipsketch_core::{FormatVersion, SketchError};
use ipsketch_data::Table;

/// The sketched representation of one table column: sketches of the key-indicator,
/// value and squared-value vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchedColumn {
    /// The table name.
    pub table: String,
    /// The column name.
    pub column: String,
    /// Number of rows in the source table.
    pub rows: usize,
    key_indicator: AnySketch,
    values: AnySketch,
    squared_values: AnySketch,
}

/// Magic number identifying a serialized [`SketchedColumn`] blob ("IPCL").
const COLUMN_BLOB_MAGIC: u32 = 0x4950_434C;

impl SketchedColumn {
    /// Assembles a sketched column from its parts — the hydration path a persistent
    /// catalog takes when loading stored sketches back into an index.  The three
    /// sketches must have been produced by the same sketcher configuration; this is
    /// not checkable here (sketches do not know which Figure-3 vector they summarize),
    /// so catalogs validate each sketch against their recorded
    /// [`SketcherSpec`](ipsketch_core::SketcherSpec) before calling this.
    #[must_use]
    pub fn from_parts(
        table: impl Into<String>,
        column: impl Into<String>,
        rows: usize,
        key_indicator: AnySketch,
        values: AnySketch,
        squared_values: AnySketch,
    ) -> Self {
        Self {
            table: table.into(),
            column: column.into(),
            rows,
            key_indicator,
            values,
            squared_values,
        }
    }

    /// The sketch of the key-indicator vector `x_1[K]`.
    #[must_use]
    pub fn key_indicator(&self) -> &AnySketch {
        &self.key_indicator
    }

    /// The sketch of the value vector `x_V`.
    #[must_use]
    pub fn values(&self) -> &AnySketch {
        &self.values
    }

    /// The sketch of the squared-value vector `x_{V²}`.
    #[must_use]
    pub fn squared_values(&self) -> &AnySketch {
        &self.squared_values
    }

    /// The three sketches in Figure-3 order: key indicator, values, squared values.
    #[must_use]
    pub fn sketches(&self) -> [&AnySketch; 3] {
        [&self.key_indicator, &self.values, &self.squared_values]
    }

    /// Total storage of the three sketches, in 64-bit-double equivalents.
    #[must_use]
    pub fn storage_doubles(&self) -> f64 {
        self.key_indicator.storage_doubles()
            + self.values.storage_doubles()
            + self.squared_values.storage_doubles()
    }

    /// Encodes the column into a self-describing binary blob (magic, the `format`'s
    /// version byte, names, row count, then the three sketches length-prefixed) — the
    /// unit of storage of the on-disk sketch catalog, which derives the byte from its
    /// manifest's [`SketcherSpec`](ipsketch_core::SketcherSpec) format.  The body
    /// layout is identical across versions; the byte records which catalog generation
    /// wrote the blob.
    #[must_use]
    pub fn encode(&self, format: FormatVersion) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        fn put_sketch(out: &mut Vec<u8>, sketch: &AnySketch) {
            let bytes = BinarySketch::to_bytes(sketch);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        let mut out = Vec::new();
        out.extend_from_slice(&COLUMN_BLOB_MAGIC.to_le_bytes());
        out.push(format.as_u8());
        put_str(&mut out, &self.table);
        put_str(&mut out, &self.column);
        out.extend_from_slice(&(self.rows as u64).to_le_bytes());
        put_sketch(&mut out, &self.key_indicator);
        put_sketch(&mut out, &self.values);
        put_sketch(&mut out, &self.squared_values);
        out
    }

    /// Encodes the column as a format-v1 blob — byte-for-byte what the pre-versioning
    /// build wrote.  Versioned catalogs call [`encode`](Self::encode) with their
    /// manifest's format instead.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(FormatVersion::V1)
    }

    /// Decodes a blob previously produced by [`encode`](Self::encode) under either
    /// format, returning the column and the [`FormatVersion`] the blob was written
    /// under (catalogs check it against their manifest's format).
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] wrapping [`SketchError::Corrupt`] on truncation,
    /// bad magic/version, malformed strings, or undecodable sketches.
    pub fn from_bytes_versioned(bytes: &[u8]) -> Result<(Self, FormatVersion), JoinError> {
        let corrupt = |detail: String| JoinError::Sketch(SketchError::Corrupt { detail });
        let mut reader = SliceReader::new(bytes);
        if reader.u32()? != COLUMN_BLOB_MAGIC {
            return Err(corrupt("bad column-blob magic number".to_string()));
        }
        let version = reader.u8()?;
        let Some(format) = FormatVersion::from_u8(version) else {
            return Err(corrupt(FormatVersion::unsupported("column-blob", version)));
        };
        let table = reader.string()?;
        let column = reader.string()?;
        let rows = reader.u64()? as usize;
        let mut get_sketch = || -> Result<AnySketch, JoinError> {
            let len = reader.u32()? as usize;
            Ok(AnySketch::from_bytes(reader.take(len)?)?)
        };
        let key_indicator = get_sketch()?;
        let values = get_sketch()?;
        let squared_values = get_sketch()?;
        reader.finished()?;
        Ok((
            Self {
                table,
                column,
                rows,
                key_indicator,
                values,
                squared_values,
            },
            format,
        ))
    }

    /// Decodes a blob of either format version, discarding the version.
    ///
    /// # Errors
    ///
    /// As [`from_bytes_versioned`](Self::from_bytes_versioned).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, JoinError> {
        Ok(Self::from_bytes_versioned(bytes)?.0)
    }
}

/// One shard's contribution to the squared norms of a column's three Figure-3 vectors
/// — the payload of the announced-norm (`Σv²`) exchange that precedes distributed
/// sketching for the normalized samplers (WMH, ICWS).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ColumnNormPartials {
    /// Rows in the shard.
    pub rows: usize,
    /// `Σ 1²` over the shard's keys (= the shard's row count, kept separate so the
    /// exchange is uniform across the three vectors).
    pub key_indicator_sq: f64,
    /// `Σ v²` over the shard's values.
    pub values_sq: f64,
    /// `Σ v⁴` over the shard's values (the squared-value vector's squared norm).
    pub squared_values_sq: f64,
}

impl ColumnNormPartials {
    /// Accumulates another shard's partials (the coordinator-side fold of the
    /// first-pass exchange).
    pub fn add(&mut self, other: &ColumnNormPartials) {
        self.rows += other.rows;
        self.key_indicator_sq += other.key_indicator_sq;
        self.values_sq += other.values_sq;
        self.squared_values_sq += other.squared_values_sq;
    }
}

/// Sketches table columns and estimates post-join statistics from the sketches.
#[derive(Debug, Clone)]
pub struct JoinEstimator {
    sketcher: AnySketcher,
}

impl JoinEstimator {
    /// Creates an estimator that uses the given sketcher for all three vectors.
    #[must_use]
    pub fn new(sketcher: AnySketcher) -> Self {
        Self { sketcher }
    }

    /// Convenience constructor: a Weighted MinHash estimator within a per-vector
    /// storage budget (in doubles).
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the budget is too small.
    pub fn weighted_minhash(budget_doubles: f64, seed: u64) -> Result<Self, JoinError> {
        Ok(Self::new(AnySketcher::for_budget(
            SketchMethod::WeightedMinHash,
            budget_doubles,
            seed,
        )?))
    }

    /// The underlying sketching method.
    #[must_use]
    pub fn method(&self) -> SketchMethod {
        self.sketcher.method()
    }

    /// Sketches one table column (all three Figure-3 vectors).
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] if the column is missing, empty, or cannot be sketched.
    pub fn sketch_column(&self, table: &Table, column: &str) -> Result<SketchedColumn, JoinError> {
        self.sketch_nonzero_column(table, column, SketchPath::OneShot)
    }

    /// Shared body of the one-shot and partitioned column-sketching paths: builds the
    /// Figure-3 vectors, validates them, and sketches all three along `path`.
    fn sketch_nonzero_column(
        &self,
        table: &Table,
        column: &str,
        path: SketchPath,
    ) -> Result<SketchedColumn, JoinError> {
        let vectors = ColumnVectors::from_table(table, column)?;
        // A column whose values are all zero still has a valid key-indicator sketch but
        // no value mass; MinHash-family sketchers reject empty vectors, so guard early
        // with a clear error.
        if vectors.values.is_empty() {
            return Err(JoinError::EmptyColumn {
                table: vectors.table,
                column: vectors.column,
            });
        }
        self.sketch_vectors(vectors, path)
    }

    /// Sketches a column's three Figure-3 vectors along `path` through the sketcher's
    /// column-level entry point ([`AnySketcher::sketch_triple`]).
    fn sketch_vectors(
        &self,
        vectors: ColumnVectors,
        path: SketchPath,
    ) -> Result<SketchedColumn, JoinError> {
        let [key_indicator, values, squared_values] = self.sketcher.sketch_triple(
            [
                &vectors.key_indicator,
                &vectors.values,
                &vectors.squared_values,
            ],
            path,
        )?;
        Ok(SketchedColumn {
            table: vectors.table,
            column: vectors.column,
            rows: vectors.rows,
            key_indicator,
            values,
            squared_values,
        })
    }

    /// Sketches one table column as `partitions` independent row-chunks merged into one
    /// sketch per Figure-3 vector — the distributed-sketching path.
    ///
    /// Each chunk is sketched on its own (as a shard holding a row range would) and the
    /// partials are folded with [`MergeableSketcher`](ipsketch_core::MergeableSketcher)
    /// semantics; for the normalized samplers (WMH, ICWS) the full column norm is
    /// computed first and announced to every chunk.  The result is interchangeable with
    /// [`sketch_column`](Self::sketch_column): bit-identical for MinHash/KMV/ICWS,
    /// identical up to floating-point addition order for JL/CountSketch, and
    /// estimate-equivalent for WMH.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] if the column is missing, empty, or cannot be sketched,
    /// and for SimHash sketchers (SimHash sketches are not mergeable).
    pub fn sketch_column_partitioned(
        &self,
        table: &Table,
        column: &str,
        partitions: usize,
    ) -> Result<SketchedColumn, JoinError> {
        self.sketch_nonzero_column(table, column, SketchPath::Chunked(partitions))
    }

    /// Computes a shard's contribution to the squared Euclidean norms of the three
    /// Figure-3 vectors of `table.column` — the first pass of the announced-norm
    /// protocol.  Shards evaluate this locally on their row range; a coordinator sums
    /// the partials with [`ColumnNormPartials::add`] to obtain the full column's norms,
    /// which every shard then uses in [`sketch_column_shard`](Self::sketch_column_shard).
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] if the column is missing or the shard has no rows.
    pub fn column_norm_partials(
        table: &Table,
        column: &str,
    ) -> Result<ColumnNormPartials, JoinError> {
        let vectors = ColumnVectors::from_table(table, column)?;
        Ok(ColumnNormPartials {
            rows: vectors.rows,
            key_indicator_sq: vectors.key_indicator.norm_squared(),
            values_sq: vectors.values.norm_squared(),
            squared_values_sq: vectors.squared_values.norm_squared(),
        })
    }

    /// Sketches a shard's row range of `table.column` against announced full-column
    /// norms — the second pass of the announced-norm protocol.  `announced` must be the
    /// sum of every shard's [`column_norm_partials`](Self::column_norm_partials);
    /// partial columns built this way fold with
    /// [`merge_sketched_columns`](Self::merge_sketched_columns) into a column
    /// interchangeable with [`sketch_column`](Self::sketch_column).
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::EmptyColumn`] when the announced value mass is zero (the
    /// full column is all zeros — unsketchable through any path), and sketching errors
    /// otherwise.
    pub fn sketch_column_shard(
        &self,
        table: &Table,
        column: &str,
        announced: &ColumnNormPartials,
    ) -> Result<SketchedColumn, JoinError> {
        let vectors = ColumnVectors::from_table(table, column)?;
        if announced.values_sq <= 0.0 {
            return Err(JoinError::EmptyColumn {
                table: vectors.table,
                column: vectors.column,
            });
        }
        let norms = [
            announced.key_indicator_sq.sqrt(),
            announced.values_sq.sqrt(),
            announced.squared_values_sq.sqrt(),
        ];
        self.sketch_vectors(vectors, SketchPath::Announced(norms))
    }

    /// Folds two shard-partial sketched columns of the same `table.column` into one —
    /// the coordinator side of distributed registration.  Row counts add; the three
    /// sketches merge with [`MergeableSketcher`](ipsketch_core::MergeableSketcher)
    /// semantics.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] for non-mergeable methods or mismatched sketch
    /// configurations, and [`JoinError::NotIndexed`]-style mismatches are reported as
    /// [`JoinError::Sketch`] incompatibilities when the partials name different
    /// columns.
    pub fn merge_sketched_columns(
        &self,
        a: &SketchedColumn,
        b: &SketchedColumn,
    ) -> Result<SketchedColumn, JoinError> {
        if a.table != b.table || a.column != b.column {
            return Err(JoinError::Sketch(SketchError::IncompatibleSketches {
                detail: format!(
                    "cannot merge partials of different columns: `{}.{}` vs `{}.{}`",
                    a.table, a.column, b.table, b.column
                ),
            }));
        }
        Ok(SketchedColumn {
            table: a.table.clone(),
            column: a.column.clone(),
            rows: a.rows + b.rows,
            key_indicator: self
                .sketcher
                .merge_sketches(&a.key_indicator, &b.key_indicator)?,
            values: self.sketcher.merge_sketches(&a.values, &b.values)?,
            squared_values: self
                .sketcher
                .merge_sketches(&a.squared_values, &b.squared_values)?,
        })
    }

    /// The underlying dynamic sketcher.
    #[must_use]
    pub fn sketcher(&self) -> &AnySketcher {
        &self.sketcher
    }

    /// Estimates the full set of post-join statistics for a pair of sketched columns,
    /// from the six inner products of
    /// [`AnySketcher::estimate_column_pair`](ipsketch_core::AnySketcher::estimate_column_pair).
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the sketches are incompatible (different seeds
    /// or budgets).
    pub fn estimate(
        &self,
        a: &SketchedColumn,
        b: &SketchedColumn,
    ) -> Result<JoinStatistics, JoinError> {
        let [join_size, sum_a, sum_b, sum_a_squared, sum_b_squared, inner_product] = self
            .sketcher
            .estimate_column_pair(a.sketches(), b.sketches())?;
        Ok(JoinStatistics::from_sufficient_statistics(
            non_negative(join_size),
            sum_a,
            sum_b,
            non_negative(sum_a_squared),
            non_negative(sum_b_squared),
            inner_product,
        ))
    }

    /// Estimates only the join size (joinability score) for a pair of sketched columns.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Sketch`] if the sketches are incompatible.
    pub fn estimate_join_size(
        &self,
        a: &SketchedColumn,
        b: &SketchedColumn,
    ) -> Result<f64, JoinError> {
        Ok(non_negative(self.sketcher.estimate_inner_product(
            &a.key_indicator,
            &b.key_indicator,
        )?))
    }
}

/// Clamps an estimate of a non-negative quantity at zero.  NaN passes through: it
/// marks a corrupt sketch, and `f64::max` would turn it into a plausible 0.
fn non_negative(estimate: f64) -> f64 {
    if estimate.is_nan() {
        estimate
    } else {
        estimate.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_join_statistics;
    use ipsketch_data::{Column, DataLakeConfig, Table};

    fn correlated_tables(rows: usize, shared: usize, correlation_sign: f64) -> (Table, Table) {
        // Table A covers keys [0, rows); table B covers [rows-shared, 2*rows-shared).
        let keys_a: Vec<u64> = (0..rows as u64).collect();
        let keys_b: Vec<u64> = ((rows - shared) as u64..(2 * rows - shared) as u64).collect();
        let values_a: Vec<f64> = keys_a.iter().map(|&k| (k % 17) as f64 + 1.0).collect();
        let values_b: Vec<f64> = keys_b
            .iter()
            .map(|&k| correlation_sign * ((k % 17) as f64 + 1.0) + 0.5)
            .collect();
        (
            Table::new("A", keys_a, vec![Column::new("v", values_a)]).expect("unique keys"),
            Table::new("B", keys_b, vec![Column::new("v", values_b)]).expect("unique keys"),
        )
    }

    #[test]
    fn constructors_and_accessors() -> Result<(), JoinError> {
        let est = JoinEstimator::weighted_minhash(200.0, 1)?;
        assert_eq!(est.method(), SketchMethod::WeightedMinHash);
        assert_eq!(est.sketcher().method(), SketchMethod::WeightedMinHash);
        assert!(JoinEstimator::weighted_minhash(0.5, 1).is_err());
        let jl = JoinEstimator::new(AnySketcher::for_budget(SketchMethod::Jl, 100.0, 1)?);
        assert_eq!(jl.method(), SketchMethod::Jl);
        Ok(())
    }

    #[test]
    fn sketch_column_validates_input() -> Result<(), JoinError> {
        let est = JoinEstimator::weighted_minhash(100.0, 1)?;
        let (ta, _) = Table::figure_2_tables();
        assert!(est.sketch_column(&ta, "V_A").is_ok());
        assert!(est.sketch_column(&ta, "missing").is_err());
        let zero = Table::new("z", vec![1, 2], vec![Column::new("v", vec![0.0, 0.0])])?;
        assert!(matches!(
            est.sketch_column(&zero, "v"),
            Err(JoinError::EmptyColumn { .. })
        ));
        Ok(())
    }

    #[test]
    fn sketched_column_metadata_and_storage() -> Result<(), JoinError> {
        let est = JoinEstimator::weighted_minhash(100.0, 1)?;
        let (ta, _) = Table::figure_2_tables();
        let sc = est.sketch_column(&ta, "V_A")?;
        assert_eq!(sc.table, "T_A");
        assert_eq!(sc.column, "V_A");
        assert_eq!(sc.rows, 9);
        assert!(sc.storage_doubles() <= 300.0 + 1e-9);
        assert!(sc.storage_doubles() > 0.0);
        Ok(())
    }

    #[test]
    fn from_parts_and_accessors_round_trip() -> Result<(), JoinError> {
        let est = JoinEstimator::weighted_minhash(100.0, 1)?;
        let (ta, _) = Table::figure_2_tables();
        let sc = est.sketch_column(&ta, "V_A")?;
        let rebuilt = SketchedColumn::from_parts(
            sc.table.clone(),
            sc.column.clone(),
            sc.rows,
            sc.key_indicator().clone(),
            sc.values().clone(),
            sc.squared_values().clone(),
        );
        assert_eq!(rebuilt, sc);
        Ok(())
    }

    #[test]
    fn column_blobs_round_trip_and_reject_corruption() -> Result<(), JoinError> {
        let est = JoinEstimator::weighted_minhash(120.0, 3)?;
        let (ta, tb) = Table::figure_2_tables();
        let sa = est.sketch_column(&ta, "V_A")?;
        let sb = est.sketch_column(&tb, "V_B")?;
        let bytes = sa.to_bytes();
        let decoded = SketchedColumn::from_bytes(&bytes)?;
        assert_eq!(decoded, sa);
        // `to_bytes` is the frozen v1 encoding; the v2 encoding differs only in the
        // version byte and both round-trip with their version reported.
        assert_eq!(bytes, sa.encode(FormatVersion::V1));
        let (v1_col, v1_fmt) = SketchedColumn::from_bytes_versioned(&bytes)?;
        assert_eq!((v1_col, v1_fmt), (sa.clone(), FormatVersion::V1));
        let v2_bytes = sa.encode(FormatVersion::V2);
        assert_eq!(v2_bytes[4], 2);
        assert_eq!(&v2_bytes[..4], &bytes[..4]);
        assert_eq!(&v2_bytes[5..], &bytes[5..]);
        let (v2_col, v2_fmt) = SketchedColumn::from_bytes_versioned(&v2_bytes)?;
        assert_eq!((v2_col, v2_fmt), (sa.clone(), FormatVersion::V2));
        // A decoded column estimates identically against a live one.
        let live = est.estimate(&sa, &sb)?;
        let hydrated = est.estimate(&decoded, &sb)?;
        assert_eq!(live.join_size.to_bits(), hydrated.join_size.to_bits());

        // Truncations and header damage are typed corruption errors.
        for cut in [0, 3, 5, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    SketchedColumn::from_bytes(&bytes[..cut]),
                    Err(JoinError::Sketch(SketchError::Corrupt { .. }))
                ),
                "cut at {cut} must fail"
            );
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(SketchedColumn::from_bytes(&bad_magic).is_err());
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        let err = SketchedColumn::from_bytes(&bad_version).expect_err("version 99 unsupported");
        let text = err.to_string();
        assert!(text.contains("version 99"), "{text}");
        assert!(text.contains("versions 1 through 2"), "{text}");
        let mut padded = bytes;
        padded.push(0);
        assert!(SketchedColumn::from_bytes(&padded).is_err());
        Ok(())
    }

    #[test]
    fn shard_norm_partials_sum_to_the_full_column_norms() -> Result<(), JoinError> {
        let (ta, _) = correlated_tables(600, 300, 1.0);
        let full = JoinEstimator::column_norm_partials(&ta, "v")?;
        // Split the rows in three and sum the shard partials.
        let keys = ta.keys();
        let values = &ta.columns()[0].values;
        let mut summed = ColumnNormPartials::default();
        for range in [0..200, 200..400, 400..600] {
            let shard = Table::new(
                "A",
                keys[range.clone()].to_vec(),
                vec![Column::new("v", values[range].to_vec())],
            )?;
            summed.add(&JoinEstimator::column_norm_partials(&shard, "v")?);
        }
        assert_eq!(summed.rows, full.rows);
        assert_eq!(summed.key_indicator_sq, full.key_indicator_sq);
        assert!((summed.values_sq - full.values_sq).abs() <= 1e-9 * full.values_sq);
        assert!(
            (summed.squared_values_sq - full.squared_values_sq).abs()
                <= 1e-9 * full.squared_values_sq
        );
        Ok(())
    }

    #[test]
    fn shard_sketching_folds_into_estimates_matching_one_shot() -> Result<(), JoinError> {
        let (ta, tb) = correlated_tables(900, 500, 1.0);
        for method in [
            SketchMethod::Jl,
            SketchMethod::CountSketch,
            SketchMethod::MinHash,
            SketchMethod::Kmv,
            SketchMethod::WeightedMinHash,
            SketchMethod::Icws,
        ] {
            let est = JoinEstimator::new(AnySketcher::for_budget(method, 300.0, 23)?);
            // First pass: shard-local Σv² partials, folded into the announced norms.
            let keys = ta.keys();
            let values = &ta.columns()[0].values;
            let shards: Vec<Table> = [0..300, 300..600, 600..900]
                .into_iter()
                .map(|range| {
                    Table::new(
                        "A",
                        keys[range.clone()].to_vec(),
                        vec![Column::new("v", values[range].to_vec())],
                    )
                    .expect("contiguous row range of a valid table")
                })
                .collect();
            let mut announced = ColumnNormPartials::default();
            for shard in &shards {
                announced.add(&JoinEstimator::column_norm_partials(shard, "v")?);
            }
            // Second pass: shard sketches folded left to right.
            let mut folded: Option<SketchedColumn> = None;
            for shard in &shards {
                let partial = est.sketch_column_shard(shard, "v", &announced)?;
                folded = Some(match folded {
                    None => partial,
                    Some(acc) => est.merge_sketched_columns(&acc, &partial)?,
                });
            }
            let folded = folded.expect("three shards were folded");
            assert_eq!(folded.rows, 900);

            let one_shot = est.sketch_column(&ta, "v")?;
            let sb = est.sketch_column(&tb, "v")?;
            let from_folded = est.estimate(&folded, &sb)?;
            let from_one_shot = est.estimate(&one_shot, &sb)?;
            let tolerance = match method {
                SketchMethod::WeightedMinHash => 0.10 * from_one_shot.join_size.max(100.0),
                _ => 1e-6 * (1.0 + from_one_shot.join_size.abs()),
            };
            assert!(
                (from_folded.join_size - from_one_shot.join_size).abs() <= tolerance,
                "{method:?}: folded {} vs one-shot {}",
                from_folded.join_size,
                from_one_shot.join_size
            );
            // The sampling methods fold bit-identically.
            if matches!(
                method,
                SketchMethod::MinHash | SketchMethod::Kmv | SketchMethod::Icws
            ) {
                assert_eq!(folded, one_shot, "{method:?}");
            }
        }
        Ok(())
    }

    #[test]
    fn merge_sketched_columns_rejects_different_columns() -> Result<(), JoinError> {
        let est = JoinEstimator::weighted_minhash(150.0, 5)?;
        let (ta, tb) = Table::figure_2_tables();
        let sa = est.sketch_column(&ta, "V_A")?;
        let sb = est.sketch_column(&tb, "V_B")?;
        assert!(matches!(
            est.merge_sketched_columns(&sa, &sb),
            Err(JoinError::Sketch(SketchError::IncompatibleSketches { .. }))
        ));
        Ok(())
    }

    #[test]
    fn sketch_column_shard_rejects_zero_value_mass() -> Result<(), JoinError> {
        let est = JoinEstimator::weighted_minhash(100.0, 5)?;
        let zero = Table::new("z", vec![1, 2], vec![Column::new("v", vec![0.0, 0.0])])?;
        let announced = JoinEstimator::column_norm_partials(&zero, "v")?;
        assert_eq!(announced.values_sq, 0.0);
        assert!(matches!(
            est.sketch_column_shard(&zero, "v", &announced),
            Err(JoinError::EmptyColumn { .. })
        ));
        Ok(())
    }

    #[test]
    fn estimates_track_exact_statistics_on_large_tables() -> Result<(), JoinError> {
        let (ta, tb) = correlated_tables(2_000, 1_000, 1.0);
        let exact = exact_join_statistics(&ta, "v", &tb, "v")?;
        let est = JoinEstimator::weighted_minhash(600.0, 7)?;
        let sa = est.sketch_column(&ta, "v")?;
        let sb = est.sketch_column(&tb, "v")?;
        let approx = est.estimate(&sa, &sb)?;

        assert!(
            (approx.join_size - exact.join_size).abs() / exact.join_size < 0.25,
            "join size {} vs {}",
            approx.join_size,
            exact.join_size
        );
        assert!(
            (approx.sum_a - exact.sum_a).abs() / exact.sum_a.abs() < 0.35,
            "sum_a {} vs {}",
            approx.sum_a,
            exact.sum_a
        );
        assert!(
            (approx.mean_a - exact.mean_a).abs() / exact.mean_a.abs() < 0.35,
            "mean_a {} vs {}",
            approx.mean_a,
            exact.mean_a
        );
        assert!(
            (approx.inner_product - exact.inner_product).abs() / exact.inner_product.abs() < 0.35,
            "inner product {} vs {}",
            approx.inner_product,
            exact.inner_product
        );
        // The joined columns are identical up to an affine shift, so the true
        // correlation is 1; the estimate should be clearly positive and large.
        assert!(exact.correlation > 0.99);
        assert!(
            approx.correlation > 0.5,
            "estimated correlation {} too far from 1",
            approx.correlation
        );
        Ok(())
    }

    #[test]
    fn negative_correlation_is_detected() -> Result<(), JoinError> {
        let (ta, tb) = correlated_tables(2_000, 1_200, -1.0);
        let exact = exact_join_statistics(&ta, "v", &tb, "v")?;
        assert!(exact.correlation < -0.99);
        let est = JoinEstimator::weighted_minhash(600.0, 3)?;
        let sa = est.sketch_column(&ta, "v")?;
        let sb = est.sketch_column(&tb, "v")?;
        let approx = est.estimate(&sa, &sb)?;
        assert!(
            approx.correlation < -0.4,
            "estimated correlation {} should be strongly negative",
            approx.correlation
        );
        Ok(())
    }

    #[test]
    fn disjoint_tables_estimate_empty_join() -> Result<(), JoinError> {
        let a = Table::new(
            "a",
            (0..100).collect(),
            vec![Column::new(
                "v",
                (0..100).map(f64::from).map(|x| x + 1.0).collect(),
            )],
        )?;
        let b = Table::new(
            "b",
            (1_000..1_100).collect(),
            vec![Column::new(
                "v",
                (0..100).map(f64::from).map(|x| x + 1.0).collect(),
            )],
        )?;
        let est = JoinEstimator::weighted_minhash(300.0, 5)?;
        let sa = est.sketch_column(&a, "v")?;
        let sb = est.sketch_column(&b, "v")?;
        let approx = est.estimate(&sa, &sb)?;
        assert_eq!(approx.join_size, 0.0);
        assert_eq!(approx.inner_product, 0.0);
        assert_eq!(approx.correlation, 0.0);
        assert_eq!(est.estimate_join_size(&sa, &sb)?, 0.0);
        Ok(())
    }

    #[test]
    fn incompatible_estimators_are_rejected() -> Result<(), JoinError> {
        let (ta, tb) = Table::figure_2_tables();
        let est1 = JoinEstimator::weighted_minhash(100.0, 1)?;
        let est2 = JoinEstimator::weighted_minhash(100.0, 2)?;
        let sa = est1.sketch_column(&ta, "V_A")?;
        let sb = est2.sketch_column(&tb, "V_B")?;
        assert!(est1.estimate(&sa, &sb).is_err());
        Ok(())
    }

    #[test]
    fn partitioned_sketching_matches_one_shot_estimates() -> Result<(), JoinError> {
        let (ta, tb) = correlated_tables(1_500, 800, 1.0);
        for method in [
            SketchMethod::Jl,
            SketchMethod::CountSketch,
            SketchMethod::MinHash,
            SketchMethod::Kmv,
            SketchMethod::WeightedMinHash,
            SketchMethod::Icws,
        ] {
            let est = JoinEstimator::new(AnySketcher::for_budget(method, 400.0, 17)?);
            let one_a = est.sketch_column(&ta, "v")?;
            let one_b = est.sketch_column(&tb, "v")?;
            let part_a = est.sketch_column_partitioned(&ta, "v", 4)?;
            let part_b = est.sketch_column_partitioned(&tb, "v", 4)?;
            // The sampling methods produce bit-identical sketches through either path.
            if matches!(
                method,
                SketchMethod::MinHash | SketchMethod::Kmv | SketchMethod::Icws
            ) {
                assert_eq!(part_a, one_a, "{method:?}");
                assert_eq!(part_b, one_b, "{method:?}");
            }
            let from_one = est.estimate(&one_a, &one_b)?;
            let from_parts = est.estimate(&part_a, &part_b)?;
            let tolerance = match method {
                SketchMethod::WeightedMinHash => 0.10 * from_one.join_size.max(100.0),
                _ => 1e-6 * (1.0 + from_one.join_size.abs()),
            };
            assert!(
                (from_parts.join_size - from_one.join_size).abs() <= tolerance,
                "{method:?}: partitioned join size {} vs one-shot {}",
                from_parts.join_size,
                from_one.join_size
            );
        }
        Ok(())
    }

    #[test]
    fn partitioned_sketching_rejects_simhash() -> Result<(), JoinError> {
        let (ta, _) = Table::figure_2_tables();
        let est = JoinEstimator::new(AnySketcher::for_budget(SketchMethod::SimHash, 100.0, 1)?);
        assert!(est.sketch_column_partitioned(&ta, "V_A", 2).is_err());
        Ok(())
    }

    #[test]
    fn works_for_every_sketch_method_on_lake_columns() -> Result<(), JoinError> {
        let lake = DataLakeConfig {
            tables: 4,
            columns_per_table: 1,
            min_rows: 300,
            max_rows: 600,
            key_universe: 1_500,
        }
        .generate(21)?;
        let ta = &lake.tables()[0];
        let tb = &lake.tables()[1];
        let col_a = ta.columns()[0].name.clone();
        let col_b = tb.columns()[0].name.clone();
        let exact = exact_join_statistics(ta, &col_a, tb, &col_b)?;
        for method in SketchMethod::paper_baselines() {
            let est = JoinEstimator::new(AnySketcher::for_budget(method, 400.0, 11)?);
            let sa = est.sketch_column(ta, &col_a)?;
            let sb = est.sketch_column(tb, &col_b)?;
            let approx = est.estimate(&sa, &sb)?;
            // Join size is bounded by the smaller table and should be in the right
            // ballpark for every method at this budget.
            assert!(
                (approx.join_size - exact.join_size).abs() <= 0.5 * exact.join_size.max(50.0),
                "{method:?}: join size {} vs exact {}",
                approx.join_size,
                exact.join_size
            );
        }
        Ok(())
    }

    #[test]
    fn column_blob_bytes_are_pinned() -> Result<(), JoinError> {
        // The column's three vectors are sketched in one pass; the blob must be
        // byte-for-byte what three separate sketches give, and what the three-call
        // implementation wrote (the FNV-1a digest below was recorded from it).
        let est = JoinEstimator::weighted_minhash(400.0, 7)?;
        let (ta, tb) = correlated_tables(300, 120, -1.0);
        let (fa, fb) = Table::figure_2_tables();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for (table, column) in [(&ta, "v"), (&tb, "v"), (&fa, "V_A"), (&fb, "V_B")] {
            let bytes = est.sketch_column(table, column)?.encode(FormatVersion::V2);
            let vectors = ColumnVectors::from_table(table, column)?;
            let sketcher = est.sketcher();
            let separate = SketchedColumn::from_parts(
                vectors.table,
                vectors.column,
                vectors.rows,
                sketcher.sketch(&vectors.key_indicator)?,
                sketcher.sketch(&vectors.values)?,
                sketcher.sketch(&vectors.squared_values)?,
            );
            assert_eq!(bytes, separate.encode(FormatVersion::V2), "{column}");
            for byte in bytes {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        assert_eq!(
            digest, 0xd0fc_4cd3_da89_3cee,
            "column blob bytes changed: {digest:#018x}"
        );
        Ok(())
    }
}
