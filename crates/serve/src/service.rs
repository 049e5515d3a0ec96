//! The query service: a [`Catalog`] fronted by an in-memory [`SketchIndex`].
//!
//! The service owns the whole serving workflow the ROADMAP describes: open a catalog,
//! lazily hydrate its stored sketches into the index, ingest new tables (one-shot,
//! chunk-partitioned, or shard-partial with the announced-norm exchange), and rank
//! joinability/relatedness queries through [`rank`], the one ranking path every
//! front end shares.  Hydration is incremental — a column is decoded from disk at
//! most once per service, on the first [`ensure_hydrated`](QueryService::ensure_hydrated)
//! after it becomes visible — so opening a service over a large catalog costs only
//! the manifest read.

use crate::catalog::{decode_column_blob, Catalog, CompactionReport};
use crate::error::CatalogError;
use ipsketch_core::SketcherSpec;
use ipsketch_data::{Column, Table};
use ipsketch_join::{
    ColumnNormPartials, JoinError, JoinEstimator, RankedColumn, SketchIndex, SketchedColumn,
    DEFAULT_CASCADE_CONFIDENCE,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Stable machine-readable code of the [`CascadeNote`] a cascade query answers
/// with when it fell back to the flat scan (the catalog stores no companion
/// sketches — e.g. it was migrated from a format that could not derive them).
pub const NOTE_CASCADE_FALLBACK: &str = "cascade_fallback";

/// The one fallback message, shared by every node so routed cascade answers stay
/// byte-identical to a single-node twin's (notes merge lexicographically).
const CASCADE_FALLBACK_MESSAGE: &str =
    "catalog stores no companion sketches; answered by the flat scan";

/// A typed informational note attached to a cascade answer: the query succeeded,
/// but not through the two-tier path the client asked for.  Never an error — a
/// v1-migrated or companion-less catalog still answers every cascade query, just
/// by the flat scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeNote {
    /// Stable machine-readable note class ([`NOTE_CASCADE_FALLBACK`]).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl CascadeNote {
    /// The note attached when a cascade request is answered by the flat scan
    /// because the catalog stores no companion sketches.  The message is a
    /// fixed string (no paths, no per-node state), so routed answers stay
    /// byte-identical to their single-node twins.
    #[must_use]
    pub fn fallback() -> Self {
        CascadeNote {
            code: NOTE_CASCADE_FALLBACK,
            message: CASCADE_FALLBACK_MESSAGE.to_string(),
        }
    }
}

/// Which statistic a query ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Rank by estimated join size (the default).
    #[default]
    Joinable,
    /// Rank by |estimated post-join correlation|, excluding candidates whose
    /// estimated join size falls below the request's `min_join_size`.
    Related,
}

impl Mode {
    /// The wire token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Joinable => "joinable",
            Mode::Related => "related",
        }
    }

    /// Parses a wire token.
    #[must_use]
    pub fn parse(token: &str) -> Option<Mode> {
        match token {
            "joinable" => Some(Mode::Joinable),
            "related" => Some(Mode::Related),
            _ => None,
        }
    }
}

/// What a [`rank`] call asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankRequest {
    /// The statistic candidates rank by.
    pub mode: Mode,
    /// How many candidates each ranking keeps.
    pub k: usize,
    /// The join-size floor of [`Mode::Related`]; ignored by [`Mode::Joinable`].
    pub min_join_size: f64,
    /// Whether a [`Mode::Joinable`] ranking goes through the two-tier cascade.
    /// Callers refuse it for [`Mode::Related`] before ranking.
    pub cascade: bool,
}

/// A query column as its caller holds it: the cascade sketches its cheap-tier
/// query from it.
pub trait QueryColumn {
    /// What sketching the column can fail with.
    type Error: From<JoinError>;

    /// Sketches the column with `estimator`.
    ///
    /// # Errors
    ///
    /// The column cannot be read or sketched.
    fn sketch_with(&self, estimator: &JoinEstimator) -> Result<SketchedColumn, Self::Error>;
}

/// A column named in a table.
impl QueryColumn for (&Table, &str) {
    type Error = JoinError;

    fn sketch_with(&self, estimator: &JoinEstimator) -> Result<SketchedColumn, JoinError> {
        estimator.sketch_column(self.0, self.1)
    }
}

/// What [`rank`] answers: one ranking per query column, in query order, and
/// the note of a cascade answered by the flat scan.
pub type Ranked = (Vec<Vec<RankedColumn>>, Option<CascadeNote>);

/// Ranks every query column against `index`: the one ranking path.  The
/// node's `query`, `batch-query` and `rank` ops and the CLI's `query` all end
/// here, so their answers agree bit for bit.
///
/// `sketched[i]` is the primary sketch of `queries[i]`; result `i` ranks it.
/// A cascade sketches each column's cheap-tier query with the index's
/// companion estimator and ranks through
/// [`SketchIndex::top_k_joinable_cascade_batch`] at
/// [`DEFAULT_CASCADE_CONFIDENCE`], whose answer is the flat scan's.  When the
/// index has no companion estimator, a cascade is answered by the flat scan
/// and the returned [`CascadeNote`] says so; that is never an error.
///
/// # Errors
///
/// A cheap-tier query that cannot be sketched, or a sketch the index cannot
/// rank against (the first failure by query order: batches are
/// all-or-nothing).
pub fn rank<Q: QueryColumn>(
    index: &SketchIndex,
    queries: &[Q],
    sketched: Vec<SketchedColumn>,
    request: RankRequest,
) -> Result<Ranked, Q::Error> {
    let RankRequest {
        mode,
        k,
        min_join_size,
        cascade,
    } = request;
    let cascade = cascade && mode == Mode::Joinable;
    let rankings = match (mode, index.companion_estimator()) {
        (Mode::Related, _) => index.top_k_correlated_batch(&sketched, k, min_join_size)?,
        (Mode::Joinable, Some(companion)) if cascade => {
            let pairs = queries
                .iter()
                .zip(sketched)
                .map(|(query, primary)| Ok((primary, query.sketch_with(companion)?)))
                .collect::<Result<Vec<_>, Q::Error>>()?;
            index.top_k_joinable_cascade_batch(&pairs, k, DEFAULT_CASCADE_CONFIDENCE)?
        }
        (Mode::Joinable, _) => index.top_k_joinable_batch(&sketched, k)?,
    };
    let note = (cascade && index.companion_estimator().is_none()).then(CascadeNote::fallback);
    Ok((rankings, note))
}

/// A table sketched for one commit: the primary sketch of every column with
/// value mass, in table order, with its cheap-tier companion, and the columns
/// skipped for having none.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SketchedTable {
    /// The primary sketches.
    pub columns: Vec<SketchedColumn>,
    /// `companions[i]` is the companion of `columns[i]`; `None` when the index
    /// has no companion estimator.
    pub companions: Vec<Option<SketchedColumn>>,
    /// Columns skipped because they carry no value mass.
    pub skipped: Vec<String>,
}

/// Sketches every column of `table` for a commit into `index`'s catalog: the
/// one ingest sketching path.  It holds no lock, so a front end sketches while
/// readers keep ranking and takes its writer lock only for the commit,
/// [`QueryService::register_sketched_with_companions`].
///
/// Each column's primary and, when the index has a companion estimator, its
/// companion are sketched along the same path: one-shot, or `partitions`
/// row-chunks merged through the mergeable-sketcher path.
///
/// # Errors
///
/// The first column, in table order, that cannot be sketched for another
/// reason than carrying no value mass (e.g. a non-mergeable method asked for
/// partitions).
pub fn sketch_table(
    index: &SketchIndex,
    table: &Table,
    partitions: Option<usize>,
) -> Result<SketchedTable, JoinError> {
    let sketch = |estimator: &JoinEstimator, column: &str| match partitions {
        Some(partitions) => estimator.sketch_column_partitioned(table, column, partitions),
        None => estimator.sketch_column(table, column),
    };
    let mut sketched = SketchedTable::default();
    for column in table.columns() {
        match sketch(index.estimator(), &column.name) {
            Ok(primary) => {
                // A column the primary can sketch has the value mass the
                // companion needs.
                let companion = index
                    .companion_estimator()
                    .map(|estimator| sketch(estimator, &column.name))
                    .transpose()?;
                sketched.columns.push(primary);
                sketched.companions.push(companion);
            }
            Err(JoinError::EmptyColumn { .. }) => sketched.skipped.push(column.name.clone()),
            Err(other) => return Err(other),
        }
    }
    Ok(sketched)
}

/// Splits a table into (up to) `shards` contiguous row-range shards, each carrying the
/// same table name and column layout — the shape [`ShardedIngestState`] expects.  In a real
/// deployment shards exist because the data arrives partitioned; this helper lets
/// single-process callers (tests, the CLI) rehearse the identical protocol.
#[must_use]
pub fn shard_rows(table: &Table, shards: usize) -> Vec<Table> {
    let rows = table.rows();
    if rows == 0 || shards == 0 {
        return Vec::new();
    }
    let chunk = rows.div_ceil(shards);
    (0..rows)
        .step_by(chunk)
        .map(|start| {
            let end = (start + chunk).min(rows);
            Table::new(
                table.name(),
                table.keys()[start..end].to_vec(),
                table
                    .columns()
                    .iter()
                    .map(|c| Column::new(c.name.clone(), c.values[start..end].to_vec()))
                    .collect(),
            )
            .expect("a contiguous row range of a valid table is a valid table")
        })
        .collect()
}

/// What an ingest call did: which columns were registered and which were skipped as
/// unsketchable (all-zero value mass).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// `(table, column)` keys registered into the catalog.
    pub registered: Vec<(String, String)>,
    /// Columns skipped because they carry no value mass.
    pub skipped: Vec<String>,
}

/// A typed snapshot of a service's state — the single source every surface
/// (`ipsketch info`, the TCP `info` op, `GET /v1/info`) renders from.  All fields
/// are deterministic functions of the catalog's ingest/compaction history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Human-readable sketcher configuration (the `SketcherSpec` display form).
    pub sketcher: String,
    /// The spec fingerprint, 16 lowercase hex digits.
    pub fingerprint: String,
    /// The sketch method label.
    pub method: String,
    /// The catalog's on-disk format version label (e.g. `"v2"`); `"v1"` catalogs
    /// serve read-only until migrated.
    pub format: String,
    /// Registered (live) column count.
    pub columns: usize,
    /// How many registered columns are hydrated into the in-memory index.
    pub hydrated: usize,
    /// Total bytes of sketch blobs on disk (sum of manifest blob lengths).
    pub bytes_on_disk: u64,
    /// The most recent compaction's report, if one ran in this service's lifetime.
    pub last_compaction: Option<CompactionReport>,
}

/// A persistent sketch catalog served through an in-memory index.  The estimator
/// lives inside the index (single source of truth); [`estimator`](Self::estimator)
/// borrows it from there, so queries are always sketched under exactly the
/// configuration the index ranks with.
///
/// # Example
///
/// Create a catalog, ingest a table, and rank a fresh query column against it —
/// then reopen the same directory cold and get identical answers from the lazily
/// hydrated sketches:
///
/// ```
/// use ipsketch_core::method::{AnySketcher, SketchMethod};
/// use ipsketch_data::{Column, Table};
/// use ipsketch_serve::service::{rank, Mode, RankRequest};
/// use ipsketch_serve::QueryService;
///
/// let root = std::env::temp_dir().join(format!("ipsketch-doc-qs-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&root);
/// let spec = AnySketcher::for_budget(SketchMethod::Kmv, 128.0, 7).unwrap().spec();
/// let mut service = QueryService::create(&root, spec).unwrap();
///
/// let weather = Table::new(
///     "weather",
///     (100..300).collect(),
///     vec![Column::new("precip", (100..300).map(f64::from).collect())],
/// ).unwrap();
/// service.ingest_table(&weather).unwrap();
///
/// let taxi = Table::new(
///     "taxi",
///     (0..250).collect(),
///     vec![Column::new("rides", (0..250).map(|i| f64::from(i) + 1.0).collect())],
/// ).unwrap();
/// let request = RankRequest { mode: Mode::Joinable, k: 5, min_join_size: 0.0, cascade: true };
/// let query = service.estimator().sketch_column(&taxi, "rides").unwrap();
/// let (ranked, note) = rank(service.index(), &[(&taxi, "rides")], vec![query], request).unwrap();
/// assert_eq!(ranked[0][0].id.table, "weather");
/// assert!(note.is_none(), "the catalog stores cascade companions");
///
/// let mut reopened = QueryService::open(&root).unwrap();
/// reopened.ensure_hydrated().unwrap();
/// let query = reopened.estimator().sketch_column(&taxi, "rides").unwrap();
/// let (again, _) = rank(reopened.index(), &[(&taxi, "rides")], vec![query], request).unwrap();
/// assert_eq!(again, ranked);
/// # std::fs::remove_dir_all(&root).unwrap();
/// ```
#[derive(Debug)]
pub struct QueryService {
    catalog: Catalog,
    /// Copy-on-write: every change goes through [`Arc::make_mut`], so a
    /// [`snapshot`](Self::snapshot) taken earlier never sees it.
    index: Arc<SketchIndex>,
    hydrated: HashSet<(String, String)>,
    last_compaction: Option<CompactionReport>,
}

impl QueryService {
    /// Initializes a fresh catalog at `root` and serves it.  The catalog declares
    /// the default cheap-sketch companion tier ([`Catalog::default_companion_spec`]),
    /// so its columns serve cascade queries; use
    /// [`create_with_companion`](Self::create_with_companion) to choose a different
    /// companion configuration or none at all.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError`] for filesystem failures, an already-initialized
    /// directory, or a spec that cannot build a sketcher.
    pub fn create(root: impl Into<PathBuf>, spec: SketcherSpec) -> Result<Self, CatalogError> {
        Self::create_with_companion(root, spec, Some(Catalog::default_companion_spec(spec)))
    }

    /// [`create`](Self::create) with an explicit companion (cheap-tier) choice:
    /// `None` builds a flat catalog whose cascade queries fall back to the flat
    /// scan (with a typed [`CascadeNote`]).
    ///
    /// # Errors
    ///
    /// As for [`create`](Self::create), plus [`CatalogError::Incompatible`] for a
    /// companion spec that is not prefilter-eligible (see
    /// [`Catalog::init_with_companion`]).
    pub fn create_with_companion(
        root: impl Into<PathBuf>,
        spec: SketcherSpec,
        companion_spec: Option<SketcherSpec>,
    ) -> Result<Self, CatalogError> {
        Self::from_catalog(Catalog::init_with_companion(root, spec, companion_spec)?)
    }

    /// Opens an existing catalog at `root` and serves it.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError`] if the directory is not a catalog, its manifest is
    /// corrupt, or its recorded spec cannot build a sketcher.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CatalogError> {
        Self::from_catalog(Catalog::open(root)?)
    }

    fn from_catalog(catalog: Catalog) -> Result<Self, CatalogError> {
        let mut index = SketchIndex::new(JoinEstimator::new(catalog.spec().build()?));
        if let Some(companion_spec) = catalog.companion_spec() {
            index.set_companion_estimator(Some(JoinEstimator::new(companion_spec.build()?)));
        }
        Ok(Self {
            catalog,
            index: Arc::new(index),
            hydrated: HashSet::new(),
            last_compaction: None,
        })
    }

    /// The underlying catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The in-memory index, which [`rank`] ranks against once
    /// [`ensure_hydrated`](Self::ensure_hydrated) has loaded every column.
    #[must_use]
    pub fn index(&self) -> &SketchIndex {
        &self.index
    }

    /// The index as of now, as an immutable snapshot: later ingests, drops and
    /// hydration change the service's own copy, never this one.  Taking it
    /// copies no sketch; the first change after it copies one pointer per
    /// column, and entries the two copies share stay one allocation.  A
    /// concurrent front end ranks against a published snapshot, so readers
    /// never wait on a writer.
    #[must_use]
    pub fn snapshot(&self) -> Arc<SketchIndex> {
        Arc::clone(&self.index)
    }

    /// Whether every cataloged column is already hydrated into the index — i.e.
    /// whether queries can run without the exclusive access
    /// [`ensure_hydrated`](Self::ensure_hydrated) needs.
    #[must_use]
    pub fn is_fully_hydrated(&self) -> bool {
        self.hydrated.len() == self.catalog.len()
    }

    /// Compacts the underlying catalog (see [`Catalog::compact`]): removes
    /// unreferenced blob and temp files and rewrites the manifest.  Takes `&mut self`
    /// so a front end schedules it on its maintenance thread behind the same
    /// writer lock as ingests — never concurrent with a registration writing new
    /// blobs.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Io`] for filesystem failures.
    pub fn compact(&mut self) -> Result<CompactionReport, CatalogError> {
        let report = self.catalog.compact()?;
        self.last_compaction = Some(report.clone());
        Ok(report)
    }

    /// Drops a column: writes a deletion tombstone into the catalog manifest (see
    /// [`Catalog::drop_column`]) and evicts the column from the in-memory index, so
    /// it disappears from rankings immediately.  The blob bytes are reclaimed by the
    /// next [`compact`](Self::compact).
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::NotFound`] for unknown keys,
    /// [`CatalogError::Incompatible`] for read-only (format-v1) catalogs, and
    /// [`CatalogError::Io`] for filesystem failures; on error neither the catalog
    /// nor the index changes.
    pub fn drop_column(&mut self, table: &str, column: &str) -> Result<(), CatalogError> {
        self.catalog.drop_column(table, column)?;
        if self
            .hydrated
            .remove(&(table.to_string(), column.to_string()))
        {
            // The catalog committed the tombstone and the index held the column, so
            // this remove cannot miss.
            Arc::make_mut(&mut self.index)
                .remove(table, column)
                .map_err(CatalogError::Join)?;
        }
        Ok(())
    }

    /// A typed snapshot of the service: configuration, column/hydration counts,
    /// on-disk footprint, and the last compaction's report.  Every info surface
    /// (CLI, TCP `info`, `GET /v1/info`) renders from this one struct.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let spec = self.catalog.spec();
        ServiceStats {
            sketcher: spec.to_string(),
            fingerprint: format!("{:016x}", spec.fingerprint()),
            method: spec.method().label().to_string(),
            format: self.catalog.format().label().to_string(),
            columns: self.catalog.len(),
            hydrated: self.hydrated.len(),
            bytes_on_disk: self
                .catalog
                .live_entries()
                .map(|e| e.blob_len + e.companion.as_ref().map_or(0, |c| c.blob_len))
                .sum(),
            last_compaction: self.last_compaction.clone(),
        }
    }

    /// The estimator rebuilt from the catalog's recorded spec (borrowed from the
    /// index, which owns the single copy).
    #[must_use]
    pub fn estimator(&self) -> &JoinEstimator {
        self.index.estimator()
    }

    /// The cheap-tier companion estimator, when the catalog declares a companion
    /// spec; `None` means this catalog has no cascade tier.
    #[must_use]
    pub fn companion_estimator(&self) -> Option<&JoinEstimator> {
        self.index.companion_estimator()
    }

    /// Number of columns already hydrated into the in-memory index.
    #[must_use]
    pub fn hydrated_len(&self) -> usize {
        self.hydrated.len()
    }

    /// Loads every catalog column not yet in the in-memory index; callers run it
    /// before ranking against [`index`](Self::index).  Returns the number of
    /// columns hydrated by this call.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError`] if a stored blob is corrupt or incompatible — the
    /// load-time gate that keeps bad sketches out of estimates.
    pub fn ensure_hydrated(&mut self) -> Result<usize, CatalogError> {
        // Hot path: everything registered is already in the index; queries pay
        // nothing beyond this length comparison (keys are inserted in lock-step with
        // catalog registration, so the counts only diverge when columns were added
        // behind our back — i.e. loaded from disk on open).
        if self.hydrated.len() == self.catalog.len() {
            return Ok(0);
        }
        let missing: Vec<_> = self
            .catalog
            .live_entries()
            .filter(|e| !self.hydrated.contains(&(e.table.clone(), e.column.clone())))
            .cloned()
            .collect();
        let index = Arc::make_mut(&mut self.index);
        for entry in &missing {
            let column = self.catalog.load_entry(entry)?;
            let companion = self.catalog.load_companion_entry(entry)?;
            index.insert_sketched_with_companion(column, companion)?;
            self.hydrated
                .insert((entry.table.clone(), entry.column.clone()));
        }
        Ok(missing.len())
    }

    /// Sketches, registers and hydrates every column of `table` in one shot.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError`] for sketching failures, duplicate columns, or
    /// filesystem failures.
    pub fn ingest_table(&mut self, table: &Table) -> Result<IngestReport, CatalogError> {
        self.commit(sketch_table(&self.index, table, None)?)
    }

    /// Like [`ingest_table`](Self::ingest_table) but sketches each column as
    /// `partitions` row-chunks merged through the mergeable-sketcher path — the
    /// single-process rehearsal of distributed ingest.
    ///
    /// # Errors
    ///
    /// As for [`ingest_table`](Self::ingest_table), plus non-mergeable methods
    /// (SimHash).
    pub fn ingest_table_partitioned(
        &mut self,
        table: &Table,
        partitions: usize,
    ) -> Result<IngestReport, CatalogError> {
        self.commit(sketch_table(&self.index, table, Some(partitions))?)
    }

    /// Commits a sketched table and reports its skipped columns with it.
    fn commit(&mut self, sketched: SketchedTable) -> Result<IngestReport, CatalogError> {
        let mut report =
            self.register_sketched_with_companions(sketched.columns, sketched.companions)?;
        report.skipped = sketched.skipped;
        Ok(report)
    }

    /// Registers sketched columns, each with an optional companion (cheap-tier)
    /// sketch, into the catalog (one manifest commit) and the in-memory index:
    /// the one commit of every write that adds columns.  A concurrent front end
    /// sketches outside its writer lock with [`sketch_table`] and takes the lock
    /// only for this call.  A `None` companion registers the column
    /// companion-less; the cascade then reranks it unconditionally instead of
    /// prefiltering it.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Incompatible`] for sketches or companions not
    /// built under this catalog's specs (or companions supplied to a catalog
    /// that declares none), plus duplicate-column and filesystem failures; on
    /// error nothing from the batch is committed.
    pub fn register_sketched_with_companions(
        &mut self,
        sketched: Vec<SketchedColumn>,
        companions: Vec<Option<SketchedColumn>>,
    ) -> Result<IngestReport, CatalogError> {
        self.catalog
            .register_all_with_companions(&sketched, &companions)?;
        let mut report = IngestReport::default();
        let index = Arc::make_mut(&mut self.index);
        for (column, companion) in sketched.into_iter().zip(companions) {
            let key = (column.table.clone(), column.column.clone());
            index.insert_sketched_with_companion(column, companion)?;
            self.hydrated.insert(key.clone());
            report.registered.push(key);
        }
        Ok(report)
    }

    /// Registers a sketch blob exported by a peer catalog (`export-column` on the
    /// wire): decodes and validates it, checks it names the expected key, and
    /// registers it like any other sketched column.  Returns `false` — without
    /// touching anything — when the key is already registered, so replaying an
    /// import is a harmless no-op (rebalance retries rely on this).
    ///
    /// # Errors
    ///
    /// As [`decode_column_blob`] (undecodable bytes are
    /// [`CatalogError::Corrupt`], a blob of another format or configuration
    /// [`CatalogError::Incompatible`]), plus [`CatalogError::Incompatible`] when
    /// the blob names a different column than the request, and filesystem
    /// failures.
    pub fn import_sketched_blob(
        &mut self,
        table: &str,
        column: &str,
        blob: &[u8],
    ) -> Result<bool, CatalogError> {
        let sketched = decode_column_blob(&self.catalog.spec(), blob)?;
        if sketched.table != table || sketched.column != column {
            return Err(CatalogError::Incompatible {
                detail: format!(
                    "imported blob names column `{}.{}` but the request says `{table}.{column}`",
                    sketched.table, sketched.column
                ),
            });
        }
        match self.register_sketched_with_companions(vec![sketched], vec![None]) {
            Ok(_) => Ok(true),
            Err(CatalogError::DuplicateColumn { .. }) => Ok(false),
            Err(other) => Err(other),
        }
    }

    /// Starts a shard-partial ingest of a table named `table_name` — the genuinely
    /// distributed registration path.  See [`ShardedIngestState`] for the two-pass
    /// protocol.
    ///
    /// The returned state is owned and borrows nothing: sequential callers (the
    /// CLI, tests) and a concurrent front end running many sessions at once drive
    /// the *same* API shape — [`announce`](ShardedIngestState::announce) and
    /// [`submit`](ShardedIngestState::submit) shards, then register the outcome
    /// with [`finish_sharded_ingest`](Self::finish_sharded_ingest).
    #[must_use]
    pub fn begin_sharded_ingest(&self, table_name: impl Into<String>) -> ShardedIngestState {
        ShardedIngestState::new(&self.index, table_name)
    }

    /// Registers the folded columns of a completed [`ShardedIngestState`] into the
    /// catalog and index — the terminal step of a concurrent shard-partial session.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError`] for duplicate columns or filesystem failures, and
    /// [`CatalogError::Incompatible`] if no shard was ever successfully submitted or
    /// the session's partials were sketched under a different configuration than
    /// this service's.
    pub fn finish_sharded_ingest(
        &mut self,
        state: ShardedIngestState,
    ) -> Result<IngestReport, CatalogError> {
        self.commit(state.into_folded()?)
    }
}

/// The coordinator state of one two-pass shard-partial ingest session, owned and
/// self-contained: it borrows nothing, so a concurrent front end can run one state
/// per table in flight (the session map), feeding each from whichever connection the
/// shard arrives on, while queries keep reading the service.
///
/// Shards hold disjoint row ranges of one logical table.  The protocol mirrors what a
/// distributed deployment does:
///
/// 1. **Announce (first pass).**  Every shard reports its `Σv²` partial sums per
///    column via [`announce`](Self::announce) — a cheap local reduction.  The
///    coordinator folds them so all shards agree on each column's full-vector norm,
///    which the normalized samplers (WMH, ICWS) must know *before* sketching
///    (Algorithm 3 normalizes by the whole vector's norm).
/// 2. **Submit (second pass).**  Every shard sketches its rows against the announced
///    norms via [`submit`](Self::submit); the coordinator folds the partial sketches
///    with `MergeableSketcher::merge` semantics as they arrive.
/// 3. **[`QueryService::finish_sharded_ingest`]** registers the folded columns into
///    the catalog and index and reports what was registered or skipped.
///
/// The first `submit` seals the announcement; announcing afterwards is an error, as it
/// would change norms that sketches were already built against.
#[derive(Debug)]
pub struct ShardedIngestState {
    table_name: String,
    /// The catalog's estimators, cloned from its index: submitted shards are
    /// sketched with the primary and, when there is one, the companion
    /// (cheap-tier) estimator, both against the same announced norms.
    estimator: JoinEstimator,
    companion_estimator: Option<JoinEstimator>,
    columns: Vec<String>,
    norms: Vec<ColumnNormPartials>,
    partials: Vec<Option<SketchedColumn>>,
    companion_partials: Vec<Option<SketchedColumn>>,
    /// Set on the first `submit` *attempt* (even a failed one): norms may already
    /// have been used to sketch, so further announcements are refused.
    sealed: bool,
    /// Set only by a fully successful `submit`: the gate `finish` requires.
    submitted: bool,
}

impl ShardedIngestState {
    /// Opens a session for the logical table `table_name`, to be finished into
    /// the catalog `index` serves.
    #[must_use]
    pub fn new(index: &SketchIndex, table_name: impl Into<String>) -> Self {
        ShardedIngestState {
            table_name: table_name.into(),
            estimator: index.estimator().clone(),
            companion_estimator: index.companion_estimator().cloned(),
            columns: Vec::new(),
            norms: Vec::new(),
            partials: Vec::new(),
            companion_partials: Vec::new(),
            sealed: false,
            submitted: false,
        }
    }

    /// The logical table this session ingests.
    #[must_use]
    pub fn table_name(&self) -> &str {
        &self.table_name
    }

    /// First pass: folds `shard`'s per-column `Σv²` partial sums into the announced
    /// norms.  All shards must present the same column set, in the same order, under
    /// the session's table name.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Incompatible`] for a shard of a different table or
    /// column layout, or if called after the first [`submit`](Self::submit).
    pub fn announce(&mut self, shard: &Table) -> Result<(), CatalogError> {
        if self.sealed {
            return Err(CatalogError::Incompatible {
                detail: "norms are sealed once the first shard sketch is submitted".to_string(),
            });
        }
        self.check_shape(shard)?;
        if self.columns.is_empty() {
            self.columns = shard.columns().iter().map(|c| c.name.clone()).collect();
            self.norms = vec![ColumnNormPartials::default(); self.columns.len()];
            self.partials = vec![None; self.columns.len()];
            self.companion_partials = vec![None; self.columns.len()];
        }
        for (i, column) in self.columns.iter().enumerate() {
            let partial = JoinEstimator::column_norm_partials(shard, column)?;
            self.norms[i].add(&partial);
        }
        Ok(())
    }

    /// Second pass: sketches `shard` against the announced norms and folds the
    /// partial sketches into the session state.  Columns whose announced value
    /// mass is zero are skipped here and reported at finish.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Incompatible`] for a shard of a different table or
    /// column layout or a session with no announcements, and sketching errors
    /// (including non-mergeable methods).
    pub fn submit(&mut self, shard: &Table) -> Result<(), CatalogError> {
        if self.columns.is_empty() {
            return Err(CatalogError::Incompatible {
                detail: "no norms announced: every shard must announce before any submits"
                    .to_string(),
            });
        }
        self.check_shape(shard)?;
        // Any submit attempt — even one that fails below — seals the norms: sketches
        // may already have been built against them on other shards.
        self.sealed = true;
        for (i, column) in self.columns.iter().enumerate() {
            let norms = &self.norms[i];
            if norms.values_sq <= 0.0 {
                continue; // Skipped column; reported at finish.
            }
            fold_shard(&self.estimator, &mut self.partials[i], shard, column, norms)?;
            if let Some(companion) = &self.companion_estimator {
                let partial = &mut self.companion_partials[i];
                fold_shard(companion, partial, shard, column, norms)?;
            }
        }
        // Only a fully successful submit counts toward finish's "at least one shard
        // was submitted" requirement.
        self.submitted = true;
        Ok(())
    }

    /// Consumes the session into its folded columns; a column whose announced
    /// value mass is zero is skipped.
    fn into_folded(self) -> Result<SketchedTable, CatalogError> {
        if !self.submitted {
            return Err(CatalogError::Incompatible {
                detail: "sharded ingest finished before any shard was successfully submitted"
                    .to_string(),
            });
        }
        let mut folded = SketchedTable::default();
        let tiers = self.partials.into_iter().zip(self.companion_partials);
        for (column, (partial, companion)) in self.columns.into_iter().zip(tiers) {
            match partial {
                Some(partial) => {
                    folded.columns.push(partial);
                    folded.companions.push(companion);
                }
                None => folded.skipped.push(column),
            }
        }
        Ok(folded)
    }

    /// Validates that a shard belongs to this session: same table name and, once the
    /// column layout is fixed, the same columns in the same order.
    fn check_shape(&self, shard: &Table) -> Result<(), CatalogError> {
        if shard.name() != self.table_name {
            return Err(CatalogError::Incompatible {
                detail: format!(
                    "shard names table `{}`, session ingests `{}`",
                    shard.name(),
                    self.table_name
                ),
            });
        }
        if !self.columns.is_empty() {
            let names: Vec<&str> = shard.columns().iter().map(|c| c.name.as_str()).collect();
            if names != self.columns.iter().map(String::as_str).collect::<Vec<_>>() {
                return Err(CatalogError::Incompatible {
                    detail: format!(
                        "shard columns {names:?} do not match the session's {:?}",
                        self.columns
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Sketches `shard`'s `column` with `estimator` against the announced `norms` and
/// folds it into `partial`.
fn fold_shard(
    estimator: &JoinEstimator,
    partial: &mut Option<SketchedColumn>,
    shard: &Table,
    column: &str,
    norms: &ColumnNormPartials,
) -> Result<(), JoinError> {
    let sketched = estimator.sketch_column_shard(shard, column, norms)?;
    *partial = Some(match partial.take() {
        None => sketched,
        Some(acc) => estimator.merge_sketched_columns(&acc, &sketched)?,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_core::method::{AnySketcher, SketchMethod};
    use ipsketch_data::Column;
    use std::fs;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ipsketch-service-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec_for(method: SketchMethod, seed: u64) -> SketcherSpec {
        AnySketcher::for_budget(method, 256.0, seed)
            .expect("budget fits")
            .spec()
    }

    /// A lake where "query.rides" joins heavily with "good.precip" and not with "bad".
    fn lake() -> (Table, Table, Table) {
        let query = Table::new(
            "query",
            (0..400).collect(),
            vec![Column::new(
                "rides",
                (0..400).map(|i| f64::from(i) + 1.0).collect(),
            )],
        )
        .expect("table");
        let good = Table::new(
            "good",
            (100..500).collect(),
            vec![
                Column::new(
                    "precip",
                    (100..500).map(|i| 2.0 * f64::from(i) + 3.0).collect(),
                ),
                Column::new(
                    "noise",
                    (0..400).map(|i| f64::from((i * 37) % 11) - 5.0).collect(),
                ),
            ],
        )
        .expect("table");
        let bad = Table::new(
            "bad",
            (10_000..10_400).collect(),
            vec![Column::new(
                "other",
                (0..400).map(|i| f64::from(i % 7) + 1.0).collect(),
            )],
        )
        .expect("table");
        (query, good, bad)
    }

    /// Splits a table into `n` contiguous row-range shards carrying the same name and
    /// column layout.
    fn shards_of(table: &Table, n: usize) -> Vec<Table> {
        shard_rows(table, n)
    }

    fn joinable(k: usize, cascade: bool) -> RankRequest {
        RankRequest {
            mode: Mode::Joinable,
            k,
            min_join_size: 0.0,
            cascade,
        }
    }

    fn related(k: usize, min_join_size: f64) -> RankRequest {
        RankRequest {
            mode: Mode::Related,
            k,
            min_join_size,
            cascade: false,
        }
    }

    /// Sketches `table.column`, hydrates `service`, and ranks the column
    /// through [`rank`].
    fn rank_column(
        service: &mut QueryService,
        table: &Table,
        column: &str,
        request: RankRequest,
    ) -> (Vec<RankedColumn>, Option<CascadeNote>) {
        let sketched = service
            .estimator()
            .sketch_column(table, column)
            .expect("sketch");
        service.ensure_hydrated().expect("hydrate");
        let (mut rankings, note) =
            rank(service.index(), &[(table, column)], vec![sketched], request).expect("rank");
        (rankings.remove(0), note)
    }

    #[test]
    fn ingest_query_reopen_matches_in_memory_index() {
        let root = temp_root("e2e");
        let (query, good, bad) = lake();
        let spec = spec_for(SketchMethod::WeightedMinHash, 11);
        let mut service = QueryService::create(&root, spec).expect("create");
        service.ingest_table(&good).expect("ingest good");
        service.ingest_table(&bad).expect("ingest bad");

        let (ranked, _) = rank_column(&mut service, &query, "rides", joinable(3, false));
        assert_eq!(ranked[0].id.table, "good");

        // An in-memory index built with the same spec ranks identically, with
        // identical estimates — the acceptance criterion for the serving layer.
        let est = JoinEstimator::new(spec.build().expect("build"));
        let mut mem = SketchIndex::new(est.clone());
        mem.insert_table(&good).expect("mem good");
        mem.insert_table(&bad).expect("mem bad");
        let mem_ranked = mem
            .top_k_joinable(&mem.sketch_query(&query, "rides").expect("mem query"), 3)
            .expect("mem rank");
        assert_eq!(ranked.len(), mem_ranked.len());
        for (served, in_mem) in ranked.iter().zip(&mem_ranked) {
            assert_eq!(served.id, in_mem.id);
            assert_eq!(served.estimated_join_size, in_mem.estimated_join_size);
            assert_eq!(served.estimated_correlation, in_mem.estimated_correlation);
        }

        // Reopening the catalog cold reproduces the same answers (lazy hydration).
        let mut reopened = QueryService::open(&root).expect("open");
        assert_eq!(reopened.hydrated_len(), 0);
        let (ranked2, _) = rank_column(&mut reopened, &query, "rides", joinable(3, false));
        assert_eq!(reopened.hydrated_len(), 3);
        assert_eq!(ranked, ranked2);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn batched_queries_match_single_queries() {
        let root = temp_root("batch");
        let (query, good, bad) = lake();
        let mut service =
            QueryService::create(&root, spec_for(SketchMethod::Kmv, 5)).expect("create");
        service.ingest_table(&good).expect("good");
        service.ingest_table(&bad).expect("bad");
        let q1 = service.index().sketch_query(&query, "rides").expect("q1");
        let q2 = service.index().sketch_query(&good, "precip").expect("q2");
        let columns = [(&query, "rides"), (&good, "precip")];
        let (batch, note) = rank(
            service.index(),
            &columns,
            vec![q1.clone(), q2],
            joinable(5, false),
        )
        .expect("batch");
        assert!(note.is_none());
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch[0],
            rank_column(&mut service, &query, "rides", joinable(5, false)).0
        );
        assert_eq!(
            batch[1],
            rank_column(&mut service, &good, "precip", joinable(5, false)).0
        );
        let (related_batch, _) = rank(
            service.index(),
            &columns[..1],
            vec![q1.clone()],
            related(2, 10.0),
        )
        .expect("related batch");
        assert_eq!(
            related_batch[0],
            rank_column(&mut service, &query, "rides", related(2, 10.0)).0
        );
        assert_eq!(
            related_batch[0],
            service
                .index()
                .top_k_correlated(&q1, 2, 10.0)
                .expect("index ranks")
        );
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn sharded_ingest_matches_one_shot_for_every_mergeable_method() {
        for (tag, method) in [
            ("jl", SketchMethod::Jl),
            ("cs", SketchMethod::CountSketch),
            ("mh", SketchMethod::MinHash),
            ("kmv", SketchMethod::Kmv),
            ("wmh", SketchMethod::WeightedMinHash),
            ("icws", SketchMethod::Icws),
        ] {
            let root = temp_root(&format!("shard-{tag}"));
            let (query, good, bad) = lake();
            let spec = spec_for(method, 17);
            let mut service = QueryService::create(&root, spec).expect("create");
            for table in [&good, &bad] {
                let mut ingest = service.begin_sharded_ingest(table.name());
                let shards = shards_of(table, 3);
                for shard in &shards {
                    ingest.announce(shard).expect("announce");
                }
                for shard in &shards {
                    ingest.submit(shard).expect("submit");
                }
                let report = service.finish_sharded_ingest(ingest).expect("finish");
                assert_eq!(report.registered.len(), table.columns().len(), "{method:?}");
            }
            let (ranked, _) = rank_column(&mut service, &query, "rides", joinable(3, false));

            // One-shot in-memory baseline with identical configuration.
            let est = JoinEstimator::new(spec.build().expect("build"));
            let mut mem = SketchIndex::new(est.clone());
            mem.insert_table(&good).expect("good");
            mem.insert_table(&bad).expect("bad");
            let mem_ranked = mem
                .top_k_joinable(&mem.sketch_query(&query, "rides").expect("q"), 3)
                .expect("rank");
            assert_eq!(
                ranked.iter().map(|r| r.id.clone()).collect::<Vec<_>>(),
                mem_ranked.iter().map(|r| r.id.clone()).collect::<Vec<_>>(),
                "{method:?}: shard-partial ranking must match one-shot"
            );
            for (a, b) in ranked.iter().zip(&mem_ranked) {
                // Sampling methods merge bit-exactly; the linear maps agree up to
                // float addition order; WMH up to its grid rounding.
                let tolerance = match method {
                    SketchMethod::WeightedMinHash => {
                        0.1 * a.estimated_join_size.max(b.estimated_join_size).max(50.0)
                    }
                    _ => 1e-6 * (1.0 + b.estimated_join_size.abs()),
                };
                assert!(
                    (a.estimated_join_size - b.estimated_join_size).abs() <= tolerance,
                    "{method:?}: {} vs {}",
                    a.estimated_join_size,
                    b.estimated_join_size
                );
            }
            fs::remove_dir_all(&root).expect("cleanup");
        }
    }

    #[test]
    fn owned_session_states_interleave_across_tables() {
        // The front-end shape: two sessions live at once, built from the index
        // the way a node builds them, fed in interleaved order and finished
        // independently — answers match a sequential run exactly.
        let root = temp_root("interleaved");
        let (query, good, bad) = lake();
        let spec = spec_for(SketchMethod::WeightedMinHash, 17);
        let mut service = QueryService::create(&root, spec).expect("create");

        let mut good_session = ShardedIngestState::new(service.index(), good.name());
        let mut bad_session = ShardedIngestState::new(service.index(), bad.name());
        let good_shards = shards_of(&good, 2);
        let bad_shards = shards_of(&bad, 3);
        for shard in &good_shards {
            good_session.announce(shard).expect("announce good");
        }
        for shard in &bad_shards {
            bad_session.announce(shard).expect("announce bad");
        }
        // Interleave the submit passes across the two sessions.
        good_session.submit(&good_shards[0]).expect("good 0");
        for shard in &bad_shards {
            bad_session.submit(shard).expect("bad shard");
        }
        good_session.submit(&good_shards[1]).expect("good 1");
        let bad_report = service.finish_sharded_ingest(bad_session).expect("finish");
        let good_report = service.finish_sharded_ingest(good_session).expect("finish");
        assert_eq!(bad_report.registered.len(), 1);
        assert_eq!(good_report.registered.len(), 2);

        // Identical outcome to a sequential one-session-at-a-time run over a twin
        // catalog, driven through the same owned-state API.
        let root2 = temp_root("interleaved-seq");
        let mut sequential = QueryService::create(&root2, spec).expect("create");
        for table in [&good, &bad] {
            let mut ingest = sequential.begin_sharded_ingest(table.name());
            for shard in &shards_of(table, if table.name() == "good" { 2 } else { 3 }) {
                ingest.announce(shard).expect("announce");
            }
            for shard in &shards_of(table, if table.name() == "good" { 2 } else { 3 }) {
                ingest.submit(shard).expect("submit");
            }
            sequential.finish_sharded_ingest(ingest).expect("finish");
        }
        assert_eq!(
            rank_column(&mut service, &query, "rides", joinable(3, false)),
            rank_column(&mut sequential, &query, "rides", joinable(3, false)),
            "interleaved owned sessions must be indistinguishable from sequential"
        );
        fs::remove_dir_all(&root).expect("cleanup");
        fs::remove_dir_all(&root2).expect("cleanup");
    }

    #[test]
    fn sharded_ingest_protocol_violations_are_typed_errors() {
        let root = temp_root("protocol");
        let (_, good, _) = lake();
        let mut service = QueryService::create(&root, spec_for(SketchMethod::WeightedMinHash, 3))
            .expect("create");
        let shards = shards_of(&good, 2);

        // Submitting before announcing fails.
        let mut ingest = service.begin_sharded_ingest("good");
        assert!(matches!(
            ingest.submit(&shards[0]),
            Err(CatalogError::Incompatible { .. })
        ));
        // A shard of a different table fails.
        assert!(matches!(
            ingest.announce(&lake().2),
            Err(CatalogError::Incompatible { .. })
        ));
        ingest.announce(&shards[0]).expect("announce 0");
        ingest.announce(&shards[1]).expect("announce 1");
        ingest.submit(&shards[0]).expect("submit 0");
        // Announcing after the first submit fails (norms are sealed).
        assert!(matches!(
            ingest.announce(&shards[1]),
            Err(CatalogError::Incompatible { .. })
        ));
        ingest.submit(&shards[1]).expect("submit 1");
        service.finish_sharded_ingest(ingest).expect("finish");

        // Finishing a session that never submitted fails.
        let ingest = service.begin_sharded_ingest("empty");
        assert!(matches!(
            service.finish_sharded_ingest(ingest),
            Err(CatalogError::Incompatible { .. })
        ));
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn all_zero_columns_are_skipped_in_both_ingest_paths() {
        let root = temp_root("zeros");
        let zero = Table::new(
            "zeros",
            (0..50).collect(),
            vec![
                Column::new("z", vec![0.0; 50]),
                Column::new("ok", (0..50).map(|i| f64::from(i) + 1.0).collect()),
            ],
        )
        .expect("table");
        let mut service = QueryService::create(&root, spec_for(SketchMethod::WeightedMinHash, 7))
            .expect("create");
        let report = service.ingest_table(&zero).expect("one-shot ingest");
        assert_eq!(report.skipped, vec!["z".to_string()]);
        assert_eq!(report.registered.len(), 1);

        // The same column through the sharded path is also skipped, after the norm
        // exchange reveals zero value mass.
        let root2 = temp_root("zeros2");
        let mut service2 = QueryService::create(&root2, spec_for(SketchMethod::WeightedMinHash, 7))
            .expect("create");
        let mut ingest = service2.begin_sharded_ingest("zeros");
        let shards = shards_of(&zero, 2);
        for shard in &shards {
            ingest.announce(shard).expect("announce");
        }
        for shard in &shards {
            ingest.submit(shard).expect("submit");
        }
        let report = service2.finish_sharded_ingest(ingest).expect("finish");
        assert_eq!(report.skipped, vec!["z".to_string()]);
        assert_eq!(report.registered.len(), 1);
        fs::remove_dir_all(&root).expect("cleanup");
        fs::remove_dir_all(&root2).expect("cleanup");
    }

    #[test]
    fn stats_track_ingest_hydration_and_compaction() {
        let root = temp_root("stats");
        let (query, good, _) = lake();
        let spec = spec_for(SketchMethod::WeightedMinHash, 11);
        let mut service = QueryService::create(&root, spec).expect("create");
        let empty = service.stats();
        assert_eq!(
            (empty.columns, empty.hydrated, empty.bytes_on_disk),
            (0, 0, 0)
        );
        assert_eq!(empty.fingerprint.len(), 16);
        assert_eq!(empty.sketcher, spec.to_string());
        assert_eq!(empty.format, "v2", "fresh catalogs are the current format");
        assert!(empty.last_compaction.is_none());

        service.ingest_table(&good).expect("ingest");
        let after_ingest = service.stats();
        assert_eq!(after_ingest.columns, 2);
        assert_eq!(after_ingest.hydrated, 2, "direct ingest hydrates");
        assert!(after_ingest.bytes_on_disk > 0);

        let report = service.compact().expect("compact");
        assert_eq!(service.stats().last_compaction, Some(report));

        // A cold reopen reports zero hydrated until the first query.
        drop(service);
        let mut reopened = QueryService::open(&root).expect("open");
        assert_eq!(reopened.stats().hydrated, 0);
        assert!(reopened.stats().last_compaction.is_none());
        rank_column(&mut reopened, &query, "rides", joinable(1, false));
        assert_eq!(reopened.stats().hydrated, 2);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn drop_column_hides_immediately_and_compact_reclaims() {
        let root = temp_root("drop");
        let (query, good, bad) = lake();
        let mut service =
            QueryService::create(&root, spec_for(SketchMethod::Kmv, 9)).expect("create");
        service.ingest_table(&good).expect("good");
        service.ingest_table(&bad).expect("bad");
        assert!(
            rank_column(&mut service, &query, "rides", joinable(10, false))
                .0
                .iter()
                .any(|r| r.id.table == "good" && r.id.column == "precip")
        );

        service.drop_column("good", "precip").expect("drop");
        // Gone from rankings in the same process, with no rehydration needed.
        assert!(
            rank_column(&mut service, &query, "rides", joinable(10, false))
                .0
                .iter()
                .all(|r| !(r.id.table == "good" && r.id.column == "precip"))
        );
        assert_eq!(service.stats().columns, 2);
        assert!(service.is_fully_hydrated());
        // Unknown or already-dropped keys are NotFound.
        assert!(matches!(
            service.drop_column("good", "precip"),
            Err(CatalogError::NotFound { .. })
        ));

        // Gone after a cold reopen too, and compaction reclaims the blob bytes.
        let mut reopened = QueryService::open(&root).expect("open");
        assert!(
            rank_column(&mut reopened, &query, "rides", joinable(10, false))
                .0
                .iter()
                .all(|r| !(r.id.table == "good" && r.id.column == "precip"))
        );
        let before = reopened.stats().bytes_on_disk;
        let report = reopened.compact().expect("compact");
        // The dropped column's primary blob and its cascade companion blob.
        assert_eq!(report.removed_files.len(), 2);
        assert_eq!(report.live_columns, 2);
        assert_eq!(reopened.stats().bytes_on_disk, before);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn snapshots_keep_their_answers_across_ingest_drop_and_compact() {
        let root = temp_root("snapshot");
        let (query, good, bad) = lake();
        let mut service = QueryService::create(&root, spec_for(SketchMethod::WeightedMinHash, 13))
            .expect("create");
        service.ingest_table(&good).expect("good");
        let q = service
            .index()
            .sketch_query(&query, "rides")
            .expect("sketch");
        let answers = |index: &SketchIndex| {
            (
                index.top_k_joinable(&q, 10).expect("joinable"),
                index.top_k_correlated(&q, 10, 1.0).expect("related"),
            )
        };
        let old = service.snapshot();
        let before = answers(&old);

        service.ingest_table(&bad).expect("bad");
        service.drop_column("good", "noise").expect("drop");
        service.compact().expect("compact");
        let new = service.snapshot();

        // The old snapshot still holds what it held and answers bit for bit as
        // before; the new one answers differently.
        assert_eq!(old.len(), 2);
        assert_eq!(answers(&old), before);
        assert_ne!(answers(&new), before);

        // The new snapshot is what a fresh process serving the catalog holds.
        let mut fresh = QueryService::open(&root).expect("open");
        fresh.ensure_hydrated().expect("hydrate");
        let fresh = fresh.snapshot();
        assert_eq!(new.len(), fresh.len());
        for id in fresh.columns() {
            assert_eq!(
                new.get(&id.table, &id.column).expect("indexed"),
                fresh.get(&id.table, &id.column).expect("indexed")
            );
            assert_eq!(
                new.get_companion(&id.table, &id.column),
                fresh.get_companion(&id.table, &id.column)
            );
        }
        assert_eq!(answers(&new), answers(&fresh));

        // The column both snapshots hold is one allocation, not a copy.
        assert!(std::ptr::eq(
            old.get("good", "precip").expect("old"),
            new.get("good", "precip").expect("new")
        ));
        assert!(!std::ptr::eq(
            new.get("good", "precip").expect("new"),
            fresh.get("good", "precip").expect("fresh")
        ));
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn cascade_answers_match_the_flat_scan_and_survive_reopen() {
        let root = temp_root("cascade");
        let (query, good, bad) = lake();
        let spec = spec_for(SketchMethod::WeightedMinHash, 23);
        let mut service = QueryService::create(&root, spec).expect("create");
        assert!(
            service.companion_estimator().is_some(),
            "companions default on"
        );
        service.ingest_table(&good).expect("good");
        service.ingest_table(&bad).expect("bad");

        let (flat, flat_note) = rank_column(&mut service, &query, "rides", joinable(3, false));
        assert!(flat_note.is_none(), "a flat request carries no note");
        let (cascaded, note) = rank_column(&mut service, &query, "rides", joinable(3, true));
        assert!(note.is_none(), "a served cascade carries no fallback note");
        assert_eq!(
            cascaded, flat,
            "cascade answers are bit-identical to the flat scan"
        );

        // A batch of one query agrees with the single ranking.
        let q = service
            .index()
            .sketch_query(&query, "rides")
            .expect("sketch");
        let (batch, batch_note) = rank(
            service.index(),
            &[(&query, "rides")],
            vec![q],
            joinable(3, true),
        )
        .expect("batch");
        assert!(batch_note.is_none());
        assert_eq!(batch, vec![flat.clone()]);

        // A cold reopen hydrates the companions from disk and cascades identically.
        drop(service);
        let mut reopened = QueryService::open(&root).expect("open");
        assert!(reopened.companion_estimator().is_some());
        let (cascaded2, note2) = rank_column(&mut reopened, &query, "rides", joinable(3, true));
        assert!(note2.is_none());
        assert_eq!(cascaded2, flat);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn companionless_catalogs_fall_back_to_the_flat_scan_with_a_note() {
        let root = temp_root("cascade-fallback");
        let (query, good, _) = lake();
        let mut service = QueryService::create_with_companion(
            &root,
            spec_for(SketchMethod::WeightedMinHash, 29),
            None,
        )
        .expect("create flat");
        assert!(service.companion_estimator().is_none());
        service.ingest_table(&good).expect("ingest");

        let (flat, _) = rank_column(&mut service, &query, "rides", joinable(2, false));
        let (ranking, note) = rank_column(&mut service, &query, "rides", joinable(2, true));
        let note = note.expect("fallback is reported");
        assert_eq!(note.code, NOTE_CASCADE_FALLBACK);
        assert_eq!(note, CascadeNote::fallback());
        assert_eq!(ranking, flat);

        // A relatedness ranking is never a cascade, so it carries no note.
        let (_, related_note) = rank_column(&mut service, &query, "rides", related(2, 1.0));
        assert!(related_note.is_none());
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn sharded_ingest_stores_companions_that_match_one_shot_ingest() {
        // Both ingest paths must produce byte-identical companion blobs (CountSketch
        // folds are order-exact over disjoint shards), so cascade answers never
        // depend on which path registered a column.
        let (query, good, _) = lake();
        let spec = spec_for(SketchMethod::Kmv, 31);
        let root_shot = temp_root("cmp-oneshot");
        let root_shard = temp_root("cmp-sharded");
        let mut one_shot = QueryService::create(&root_shot, spec).expect("create");
        one_shot.ingest_table(&good).expect("ingest");
        let mut sharded = QueryService::create(&root_shard, spec).expect("create");
        let mut ingest = sharded.begin_sharded_ingest(good.name());
        let shards = shards_of(&good, 3);
        for shard in &shards {
            ingest.announce(shard).expect("announce");
        }
        for shard in &shards {
            ingest.submit(shard).expect("submit");
        }
        sharded.finish_sharded_ingest(ingest).expect("finish");

        let (a, note_a) = rank_column(&mut one_shot, &query, "rides", joinable(2, true));
        let (b, note_b) = rank_column(&mut sharded, &query, "rides", joinable(2, true));
        assert!(note_a.is_none() && note_b.is_none());
        assert_eq!(a, b, "companion-backed cascades agree across ingest paths");
        fs::remove_dir_all(&root_shot).expect("cleanup");
        fs::remove_dir_all(&root_shard).expect("cleanup");
    }

    #[test]
    fn simhash_catalogs_serve_queries_but_reject_sharded_ingest() {
        let root = temp_root("simhash");
        let (query, good, _) = lake();
        let mut service =
            QueryService::create(&root, spec_for(SketchMethod::SimHash, 3)).expect("create");
        service.ingest_table(&good).expect("one-shot works");
        assert!(
            !rank_column(&mut service, &query, "rides", joinable(2, false))
                .0
                .is_empty()
        );

        let mut ingest = service.begin_sharded_ingest("bad");
        let shards = shards_of(&lake().2, 2);
        ingest
            .announce(&shards[0])
            .expect("announce is method-agnostic");
        assert!(
            ingest.submit(&shards[0]).is_err(),
            "SimHash partials cannot merge"
        );
        // A session whose only submit failed must not finish as if the table were
        // all-zero "skipped" columns — finishing is a typed error.
        assert!(matches!(
            service.finish_sharded_ingest(ingest),
            Err(CatalogError::Incompatible { .. })
        ));
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn imports_refuse_blobs_of_another_format() {
        let root = temp_root("import-format");
        let (_, good, _) = lake();
        let mut service = QueryService::create(&root, spec_for(SketchMethod::WeightedMinHash, 5))
            .expect("create");
        let sketched = service
            .estimator()
            .sketch_column(&good, "precip")
            .expect("sketch");
        let v1 = sketched.encode(ipsketch_core::FormatVersion::V1);
        assert!(matches!(
            service.import_sketched_blob("good", "precip", &v1),
            Err(CatalogError::Incompatible { .. })
        ));
        let v2 = sketched.encode(service.catalog().format());
        assert!(matches!(
            service.import_sketched_blob("good", "precip", &v2),
            Ok(true)
        ));
        fs::remove_dir_all(&root).expect("cleanup");
    }
}
