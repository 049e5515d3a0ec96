//! The on-disk sketch catalog.
//!
//! A catalog is a directory:
//!
//! ```text
//! <root>/
//!   MANIFEST.ipsk      — versioned manifest: sketcher spec + column entries
//!   sketches/
//!     000000.col       — one SketchedColumn blob per registered column
//!     000001.col
//! ```
//!
//! Sketches are computed once and outlive the process that built them — the paper's
//! data-lake workflow.  The manifest records the full sketcher configuration
//! ([`SketcherSpec`]), so a reopened catalog rebuilds the exact sketcher, and every
//! blob is validated against that spec *at load time*: an incompatible or corrupt
//! sketch is a typed [`CatalogError`] when it is read, never a wrong estimate later.
//! All writes go through a temp-file-then-rename so a crash mid-write cannot corrupt
//! a previously valid catalog.

use crate::error::{corrupt, io_error, CatalogError};
use crate::manifest::{fnv64, CompanionRef, Manifest, ManifestEntry};
use ipsketch_core::method::AnySketch;
use ipsketch_core::{FormatVersion, SketcherKind, SketcherSpec};
use ipsketch_join::SketchedColumn;
use std::fs;
use std::path::{Path, PathBuf};

/// File name of the manifest inside the catalog root.
pub const MANIFEST_FILE: &str = "MANIFEST.ipsk";
/// Subdirectory holding the column blobs.
pub const SKETCH_DIR: &str = "sketches";

/// A persistent store of sketched columns, keyed by `(table, column)`.
#[derive(Debug)]
pub struct Catalog {
    root: PathBuf,
    manifest: Manifest,
}

impl Catalog {
    /// Initializes a fresh catalog at `root` (creating the directory if needed) that
    /// will store sketches built by the `spec` configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::NotACatalog`] if `root` already holds a manifest,
    /// [`CatalogError::Incompatible`] if `spec` carries the read-only v1 format
    /// (new catalogs are always written in the current format — v1 exists only so
    /// old catalogs keep loading), and [`CatalogError::Io`] for filesystem failures.
    pub fn init(root: impl Into<PathBuf>, spec: SketcherSpec) -> Result<Self, CatalogError> {
        Self::init_with_companion(root, spec, None)
    }

    /// [`init`](Self::init), optionally declaring a companion (cheap-tier) sketcher
    /// configuration: every subsequently registered column may carry a companion
    /// sketch built by it, which the query cascade's prefilter scores.
    ///
    /// # Errors
    ///
    /// As for [`init`](Self::init), plus [`CatalogError::Incompatible`] if the
    /// companion spec's format disagrees with the primary's or its method has no
    /// Table-1 prefilter bound (only CountSketch and KMV qualify).
    pub fn init_with_companion(
        root: impl Into<PathBuf>,
        spec: SketcherSpec,
        companion_spec: Option<SketcherSpec>,
    ) -> Result<Self, CatalogError> {
        if let Some(companion) = &companion_spec {
            if companion.format != spec.format {
                return Err(CatalogError::Incompatible {
                    detail: format!(
                        "companion spec format {} disagrees with catalog format {}",
                        companion.format.label(),
                        spec.format.label()
                    ),
                });
            }
            if companion.prefilter_epsilon().is_none() {
                return Err(CatalogError::Incompatible {
                    detail: format!(
                        "companion sketcher `{companion}` is not prefilter-eligible \
                         (use a CountSketch or KMV configuration)"
                    ),
                });
            }
        }
        if spec.format < FormatVersion::CURRENT {
            return Err(CatalogError::Incompatible {
                detail: format!(
                    "cannot initialize a catalog in read-only format {}; new catalogs use format {}",
                    spec.format.label(),
                    FormatVersion::CURRENT.label()
                ),
            });
        }
        let root = root.into();
        let manifest_path = root.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(CatalogError::NotACatalog {
                path: root.display().to_string(),
                detail: "directory already holds a catalog manifest".to_string(),
            });
        }
        fs::create_dir_all(root.join(SKETCH_DIR)).map_err(|e| io_error(&root, &e))?;
        let mut manifest = Manifest::new(spec);
        manifest.companion_spec = companion_spec;
        let catalog = Self { root, manifest };
        catalog.write_manifest()?;
        Ok(catalog)
    }

    /// The default companion (cheap-tier) configuration for a catalog whose primary
    /// sketcher is `spec`: a CountSketch sized well below the primary's cost (its
    /// per-pair estimate is one counter-array product instead of the primary's six
    /// sampler products) whose Table-1 bound `ε = 1/√(buckets·repetitions)` sizes
    /// the cascade pruning margin.  Shares the primary's seed so a catalog's whole
    /// configuration stays one number.
    #[must_use]
    pub fn default_companion_spec(spec: SketcherSpec) -> SketcherSpec {
        SketcherSpec::new(
            spec.format,
            SketcherKind::CountSketch {
                buckets: 256,
                repetitions: 5,
                seed: spec.seed(),
            },
        )
    }

    /// Opens an existing catalog, decoding and validating its manifest.  Blobs are not
    /// read here — they are validated individually on [`load`](Self::load), so opening
    /// a large catalog is cheap.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::NotACatalog`] if no manifest exists at `root`,
    /// [`CatalogError::Corrupt`] if the manifest does not decode, and
    /// [`CatalogError::Io`] for filesystem failures.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CatalogError> {
        let root = root.into();
        let manifest_path = root.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            return Err(CatalogError::NotACatalog {
                path: root.display().to_string(),
                detail: format!("no `{MANIFEST_FILE}` found (run `catalog init` first)"),
            });
        }
        let bytes = fs::read(&manifest_path).map_err(|e| io_error(&manifest_path, &e))?;
        // Manifest decode failures gain the file path here, so "unsupported manifest
        // version …" always says *which* manifest.
        let manifest = Manifest::decode(&bytes).map_err(|e| match e {
            CatalogError::Corrupt { detail } => CatalogError::Corrupt {
                detail: format!("`{}`: {detail}", manifest_path.display()),
            },
            other => other,
        })?;
        Ok(Self { root, manifest })
    }

    /// The catalog's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The sketcher configuration every stored sketch was built with.
    #[must_use]
    pub fn spec(&self) -> SketcherSpec {
        self.manifest.spec
    }

    /// The companion (cheap-tier) sketcher configuration, when this catalog stores
    /// companion sketches for the query cascade.
    #[must_use]
    pub fn companion_spec(&self) -> Option<SketcherSpec> {
        self.manifest.companion_spec
    }

    /// The catalog's on-disk format version.  [`FormatVersion::V1`] catalogs are
    /// read-only (load/estimate work; register/drop refuse) until migrated with
    /// `ipsketch catalog migrate`.
    #[must_use]
    pub fn format(&self) -> FormatVersion {
        self.manifest.format()
    }

    /// All manifest entries in registration order, **including** tombstoned ones.
    /// Most callers want [`live_entries`](Self::live_entries); the raw view exists
    /// for migration and diagnostics.
    #[must_use]
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.manifest.entries
    }

    /// The live (non-dropped) columns, in registration order.
    pub fn live_entries(&self) -> impl Iterator<Item = &ManifestEntry> {
        self.manifest.live_entries()
    }

    /// Number of live (non-dropped) columns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.manifest.live_len()
    }

    /// Whether the catalog holds no live columns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers a sketched column: validates its three sketches against the catalog
    /// spec, writes the blob, and commits the updated manifest.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::DuplicateColumn`] if the `(table, column)` key is
    /// taken, [`CatalogError::Incompatible`] if the sketches were not built by the
    /// catalog's sketcher configuration, and [`CatalogError::Io`] for filesystem
    /// failures.
    pub fn register(&mut self, column: &SketchedColumn) -> Result<(), CatalogError> {
        self.register_all(std::slice::from_ref(column))
    }

    /// Registers a batch of sketched columns with **one** manifest commit at the end —
    /// the path table-level ingest takes, so registering an n-column table rewrites
    /// the manifest once instead of n times.  All columns are validated (spec match,
    /// no duplicates against the catalog or within the batch) before any bytes are
    /// written, so a failed batch changes nothing.
    ///
    /// # Errors
    ///
    /// As for [`register`](Self::register); on error no entry from the batch is
    /// committed (blob files already written by the failing batch are orphaned until
    /// the same slots are reused, but are never referenced by the manifest).
    pub fn register_all(&mut self, columns: &[SketchedColumn]) -> Result<(), CatalogError> {
        self.register_batch(columns, None)
    }

    /// [`register_all`](Self::register_all) with one optional companion (cheap-tier)
    /// sketch per column, stored alongside the primary blob and later served to the
    /// query cascade's prefilter.  `companions` must be the same length as `columns`;
    /// a `None` slot registers the column companion-less (it is then never pruned by
    /// the cascade).
    ///
    /// # Errors
    ///
    /// As for [`register_all`](Self::register_all), plus
    /// [`CatalogError::Incompatible`] if a companion is supplied but the catalog
    /// declares no companion spec, a companion was not built by that spec, or a
    /// companion's identity/row count disagrees with its primary.
    pub fn register_all_with_companions(
        &mut self,
        columns: &[SketchedColumn],
        companions: &[Option<SketchedColumn>],
    ) -> Result<(), CatalogError> {
        if columns.len() != companions.len() {
            return Err(CatalogError::Incompatible {
                detail: format!(
                    "{} columns but {} companion slots",
                    columns.len(),
                    companions.len()
                ),
            });
        }
        self.register_batch(columns, Some(companions))
    }

    /// Shared implementation of the registration paths.
    fn register_batch(
        &mut self,
        columns: &[SketchedColumn],
        companions: Option<&[Option<SketchedColumn>]>,
    ) -> Result<(), CatalogError> {
        self.check_writable()?;
        for (i, column) in columns.iter().enumerate() {
            let in_batch_dup = columns[..i]
                .iter()
                .any(|c| c.table == column.table && c.column == column.column);
            if in_batch_dup || self.manifest.find(&column.table, &column.column).is_some() {
                return Err(CatalogError::DuplicateColumn {
                    table: column.table.clone(),
                    column: column.column.clone(),
                });
            }
            validate_column(&self.manifest.spec, column)?;
            if let Some(Some(companion)) = companions.map(|c| &c[i]) {
                self.validate_companion(column, companion)?;
            }
        }
        if columns.is_empty() {
            return Ok(());
        }
        // Blob slots are numbered by raw entry count (tombstones included), so a
        // dropped column's file name is never reused before compaction reclaims it.
        let base = self.manifest.entries.len();
        let mut new_entries = Vec::with_capacity(columns.len());
        for (offset, column) in columns.iter().enumerate() {
            let file = format!("{:06}.col", base + offset);
            let blob = column.encode(self.manifest.format());
            let blob_path = self.root.join(SKETCH_DIR).join(&file);
            write_atomic(&blob_path, &blob)?;
            let companion = match companions.map(|c| &c[offset]) {
                Some(Some(companion)) => {
                    let companion_file = format!("{:06}.cmp", base + offset);
                    let companion_blob = companion.encode(self.manifest.format());
                    write_atomic(
                        &self.root.join(SKETCH_DIR).join(&companion_file),
                        &companion_blob,
                    )?;
                    Some(CompanionRef {
                        file: companion_file,
                        blob_len: companion_blob.len() as u64,
                        checksum: fnv64(&companion_blob),
                    })
                }
                _ => None,
            };
            new_entries.push(ManifestEntry {
                table: column.table.clone(),
                column: column.column.clone(),
                rows: column.rows as u64,
                file,
                blob_len: blob.len() as u64,
                checksum: fnv64(&blob),
                dropped: false,
                companion,
            });
        }
        self.manifest.entries.extend(new_entries);
        if let Err(e) = self.write_manifest() {
            // Keep the in-memory view consistent with the (unchanged) on-disk
            // manifest if the commit itself failed.
            self.manifest.entries.truncate(base);
            return Err(e);
        }
        Ok(())
    }

    /// Loads a registered column, verifying the blob's length and checksum before
    /// decoding and the decoded sketches against the catalog spec after — so a foreign
    /// or corrupt sketch is rejected here, not at estimate time.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::NotFound`] for unknown keys, [`CatalogError::Corrupt`]
    /// for damaged blobs, [`CatalogError::Incompatible`] for spec mismatches, and
    /// [`CatalogError::Io`] for filesystem failures.
    pub fn load(&self, table: &str, column: &str) -> Result<SketchedColumn, CatalogError> {
        let entry = self
            .manifest
            .find(table, column)
            .ok_or_else(|| CatalogError::NotFound {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        self.load_entry(entry)
    }

    /// Loads the column described by a manifest entry (see [`load`](Self::load)).
    ///
    /// # Errors
    ///
    /// As for [`load`](Self::load), minus the key lookup.
    pub fn load_entry(&self, entry: &ManifestEntry) -> Result<SketchedColumn, CatalogError> {
        let path = self.root.join(SKETCH_DIR).join(&entry.file);
        let blob = fs::read(&path).map_err(|e| io_error(&path, &e))?;
        if blob.len() as u64 != entry.blob_len {
            return Err(corrupt(format!(
                "blob `{}` is {} bytes, manifest records {}",
                entry.file,
                blob.len(),
                entry.blob_len
            )));
        }
        if fnv64(&blob) != entry.checksum {
            return Err(corrupt(format!(
                "blob `{}` fails its checksum (truncated or bit-rotted)",
                entry.file
            )));
        }
        let (column, blob_format) =
            SketchedColumn::from_bytes_versioned(&blob).map_err(|e| match e {
                ipsketch_join::JoinError::Sketch(s) => {
                    corrupt(format!("blob `{}`: {s}", entry.file))
                }
                other => CatalogError::Join(other),
            })?;
        if blob_format != self.manifest.format() {
            return Err(corrupt(format!(
                "blob `{}` is format {}, catalog is format {}",
                entry.file,
                blob_format.label(),
                self.manifest.format().label()
            )));
        }
        if column.table != entry.table || column.column != entry.column {
            return Err(corrupt(format!(
                "blob `{}` names column `{}.{}`, manifest records `{}.{}`",
                entry.file, column.table, column.column, entry.table, entry.column
            )));
        }
        validate_column(&self.manifest.spec, &column)?;
        Ok(column)
    }

    /// Reads a registered column's raw blob bytes for node-to-node transfer,
    /// running the full verification chain of [`load`](Self::load) first so a
    /// damaged or foreign blob is never exported.  Returns the entry's row count
    /// and the blob exactly as stored — a peer that registers these bytes holds a
    /// byte-identical copy of the sketch.
    ///
    /// # Errors
    ///
    /// As for [`load`](Self::load).
    pub fn export_blob(&self, table: &str, column: &str) -> Result<(u64, Vec<u8>), CatalogError> {
        let entry = self
            .manifest
            .find(table, column)
            .ok_or_else(|| CatalogError::NotFound {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        self.load_entry(entry)?;
        let path = self.root.join(SKETCH_DIR).join(&entry.file);
        let blob = fs::read(&path).map_err(|e| io_error(&path, &e))?;
        if blob.len() as u64 != entry.blob_len || fnv64(&blob) != entry.checksum {
            return Err(corrupt(format!(
                "blob `{}` changed between verification and export",
                entry.file
            )));
        }
        Ok((entry.rows, blob))
    }

    /// Loads a registered column's companion (cheap-tier) sketch, with the same
    /// verification chain as [`load`](Self::load) but against the companion spec.
    /// Returns `Ok(None)` when the entry stores no companion — the caller's cascade
    /// then treats the column as unprunable rather than failing.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::NotFound`] for unknown keys; otherwise as for
    /// [`load`](Self::load).
    pub fn load_companion(
        &self,
        table: &str,
        column: &str,
    ) -> Result<Option<SketchedColumn>, CatalogError> {
        let entry = self
            .manifest
            .find(table, column)
            .ok_or_else(|| CatalogError::NotFound {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        self.load_companion_entry(entry)
    }

    /// Loads the companion sketch described by a manifest entry, or `None` if the
    /// entry carries no companion (see [`load_companion`](Self::load_companion)).
    ///
    /// # Errors
    ///
    /// As for [`load_companion`](Self::load_companion), minus the key lookup.
    pub fn load_companion_entry(
        &self,
        entry: &ManifestEntry,
    ) -> Result<Option<SketchedColumn>, CatalogError> {
        let Some(companion_ref) = &entry.companion else {
            return Ok(None);
        };
        let path = self.root.join(SKETCH_DIR).join(&companion_ref.file);
        let blob = fs::read(&path).map_err(|e| io_error(&path, &e))?;
        if blob.len() as u64 != companion_ref.blob_len {
            return Err(corrupt(format!(
                "companion blob `{}` is {} bytes, manifest records {}",
                companion_ref.file,
                blob.len(),
                companion_ref.blob_len
            )));
        }
        if fnv64(&blob) != companion_ref.checksum {
            return Err(corrupt(format!(
                "companion blob `{}` fails its checksum (truncated or bit-rotted)",
                companion_ref.file
            )));
        }
        let (companion, blob_format) =
            SketchedColumn::from_bytes_versioned(&blob).map_err(|e| match e {
                ipsketch_join::JoinError::Sketch(s) => {
                    corrupt(format!("companion blob `{}`: {s}", companion_ref.file))
                }
                other => CatalogError::Join(other),
            })?;
        if blob_format != self.manifest.format() {
            return Err(corrupt(format!(
                "companion blob `{}` is format {}, catalog is format {}",
                companion_ref.file,
                blob_format.label(),
                self.manifest.format().label()
            )));
        }
        if companion.table != entry.table || companion.column != entry.column {
            return Err(corrupt(format!(
                "companion blob `{}` names column `{}.{}`, manifest records `{}.{}`",
                companion_ref.file, companion.table, companion.column, entry.table, entry.column
            )));
        }
        let primary = self.load_entry(entry)?;
        self.validate_companion(&primary, &companion)?;
        Ok(Some(companion))
    }

    /// Validates a companion sketch against the catalog's companion spec and its
    /// primary column's identity.
    fn validate_companion(
        &self,
        primary: &SketchedColumn,
        companion: &SketchedColumn,
    ) -> Result<(), CatalogError> {
        let Some(spec) = &self.manifest.companion_spec else {
            return Err(CatalogError::Incompatible {
                detail: format!(
                    "companion sketch supplied for `{}.{}` but this catalog declares \
                     no companion spec",
                    primary.table, primary.column
                ),
            });
        };
        if companion.table != primary.table
            || companion.column != primary.column
            || companion.rows != primary.rows
        {
            return Err(CatalogError::Incompatible {
                detail: format!(
                    "companion sketch identifies `{}.{}` ({} rows), primary is \
                     `{}.{}` ({} rows)",
                    companion.table,
                    companion.column,
                    companion.rows,
                    primary.table,
                    primary.column,
                    primary.rows
                ),
            });
        }
        for sketch in [
            companion.key_indicator(),
            companion.values(),
            companion.squared_values(),
        ] {
            spec.validate_sketch(sketch)
                .map_err(|e| CatalogError::Incompatible {
                    detail: format!(
                        "companion for `{}.{}`: {e}",
                        companion.table, companion.column
                    ),
                })?;
        }
        Ok(())
    }

    /// Rejects mutation of a read-only (format-v1) catalog.
    fn check_writable(&self) -> Result<(), CatalogError> {
        if self.manifest.format() < FormatVersion::CURRENT {
            return Err(CatalogError::Incompatible {
                detail: format!(
                    "catalog at `{}` is format {} and read-only; run `ipsketch catalog \
                     migrate` to upgrade it to format {}",
                    self.root.display(),
                    self.manifest.format().label(),
                    FormatVersion::CURRENT.label()
                ),
            });
        }
        Ok(())
    }

    /// Drops a column by writing a deletion tombstone into the manifest.  The blob
    /// file stays on disk (the write is one atomic manifest rewrite, nothing else)
    /// until [`compact`](Self::compact) reclaims it; the column stops resolving
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::NotFound`] for unknown (or already dropped) keys,
    /// [`CatalogError::Incompatible`] for read-only v1 catalogs (the v1 manifest
    /// layout cannot carry a tombstone), and [`CatalogError::Io`] for filesystem
    /// failures — the in-memory view is rolled back if the commit fails.
    pub fn drop_column(&mut self, table: &str, column: &str) -> Result<(), CatalogError> {
        self.check_writable()?;
        let entry =
            self.manifest
                .find_mut(table, column)
                .ok_or_else(|| CatalogError::NotFound {
                    table: table.to_string(),
                    column: column.to_string(),
                })?;
        entry.dropped = true;
        if let Err(e) = self.write_manifest() {
            if let Some(entry) = self
                .manifest
                .entries
                .iter_mut()
                .find(|e| e.table == table && e.column == column)
            {
                entry.dropped = false;
            }
            return Err(e);
        }
        Ok(())
    }

    /// Rewrites the manifest atomically.
    fn write_manifest(&self) -> Result<(), CatalogError> {
        write_atomic(&self.root.join(MANIFEST_FILE), &self.manifest.encode())
    }

    /// Compacts the catalog: purges tombstoned entries from the manifest, then
    /// deletes files in `sketches/` that no surviving entry references — reclaiming
    /// dropped columns' blobs along with blobs orphaned by failed batch
    /// registrations and stray temp files from interrupted atomic writes.  The
    /// manifest rewrite happens **before** any file deletion, so a crash mid-compact
    /// leaves at worst unreferenced files for the next pass, never a manifest entry
    /// pointing at a deleted blob.  Registration and dropping keep the catalog
    /// *correct* without this — tombstones and orphans are never served — but a
    /// long-running service accumulates them, so its maintenance thread calls this
    /// periodically.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Io`] for filesystem failures; on error the manifest
    /// on disk is unchanged or already purged (both are valid states).
    pub fn compact(&mut self) -> Result<CompactionReport, CatalogError> {
        let dir = self.root.join(SKETCH_DIR);
        let had_tombstones = self.manifest.live_len() != self.manifest.entries.len();
        if had_tombstones {
            let purged: Vec<ManifestEntry> = self
                .manifest
                .entries
                .iter()
                .filter(|e| !e.dropped)
                .cloned()
                .collect();
            let saved = std::mem::replace(&mut self.manifest.entries, purged);
            if let Err(e) = self.write_manifest() {
                self.manifest.entries = saved;
                return Err(e);
            }
        }
        let referenced: std::collections::HashSet<&str> = self
            .manifest
            .entries
            .iter()
            .flat_map(|e| {
                std::iter::once(e.file.as_str())
                    .chain(e.companion.as_ref().map(|c| c.file.as_str()))
            })
            .collect();
        let mut removed = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| io_error(&dir, &e))? {
            let entry = entry.map_err(|e| io_error(&dir, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue; // Never ours: all catalog file names are ASCII.
            };
            if referenced.contains(name) {
                continue;
            }
            fs::remove_file(entry.path()).map_err(|e| io_error(&entry.path(), &e))?;
            removed.push(name.to_string());
        }
        removed.sort_unstable();
        self.write_manifest()?;
        Ok(CompactionReport {
            removed_files: removed,
            live_columns: self.manifest.entries.len(),
        })
    }
}

/// What a [`Catalog::compact`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Names of unreferenced files removed from `sketches/`, sorted.
    pub removed_files: Vec<String>,
    /// Number of columns the rewritten manifest holds.
    pub live_columns: usize,
}

/// Writes `bytes` to `path` via a sibling temp file, fsync, and rename, so readers
/// only ever observe either the old or the new complete contents — including across a
/// crash.  Without the `sync_all` before the rename, journaling filesystems may
/// persist the rename before the data blocks, resurrecting a zero-length file after
/// power loss.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CatalogError> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    let mut file = fs::File::create(&tmp).map_err(|e| io_error(&tmp, &e))?;
    file.write_all(bytes).map_err(|e| io_error(&tmp, &e))?;
    file.sync_all().map_err(|e| io_error(&tmp, &e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| io_error(path, &e))?;
    // Make the rename itself durable by flushing the parent directory entry.  Not
    // every platform can open a directory for sync, so that case is tolerated; but a
    // directory that opens and then fails to sync has not made the rename durable,
    // and the caller must not report the write as committed.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            dir.sync_all().map_err(|e| io_error(parent, &e))?;
        }
    }
    Ok(())
}

/// Validates all three sketches of a column against `spec`.
fn validate_column(spec: &SketcherSpec, column: &SketchedColumn) -> Result<(), CatalogError> {
    for sketch in column.sketches() {
        spec.validate_sketch(sketch)
            .map_err(|e| CatalogError::Incompatible {
                detail: format!("column `{}.{}`: {e}", column.table, column.column),
            })?;
    }
    Ok(())
}

/// Decodes a sketch blob that arrives from outside the catalog — an
/// `import-column` payload or a `rank` query sketch — and checks it could have
/// been built under `spec`: the blob's format is the spec's, each of its three
/// sketches passes [`SketcherSpec::validate_sketch`], and a Weighted MinHash
/// sketch carries only values a sampler can produce (hashes in `[0, 1]`,
/// finite values, a finite positive norm).  Hostile bytes get a typed error,
/// never a panic and never a sketch that would rank.
///
/// # Errors
///
/// [`CatalogError::Corrupt`] when the bytes do not decode;
/// [`CatalogError::Incompatible`] for any other check.
pub fn decode_column_blob(
    spec: &SketcherSpec,
    blob: &[u8],
) -> Result<SketchedColumn, CatalogError> {
    let (column, format) = SketchedColumn::from_bytes_versioned(blob).map_err(|e| match e {
        ipsketch_join::JoinError::Sketch(s) => corrupt(format!("sketch blob: {s}")),
        other => CatalogError::Join(other),
    })?;
    let incompatible = |detail: String| CatalogError::Incompatible {
        detail: format!("column `{}.{}`: {detail}", column.table, column.column),
    };
    if format != spec.format {
        return Err(incompatible(format!(
            "sketch blob is format {}, catalog is format {}",
            format.label(),
            spec.format.label()
        )));
    }
    validate_column(spec, &column)?;
    for sketch in column.sketches() {
        if let AnySketch::WeightedMinHash(wmh) = sketch {
            if !wmh.hashes().iter().all(|h| (0.0..=1.0).contains(h)) {
                return Err(incompatible("WMH hash outside [0, 1]".to_string()));
            }
            if !wmh.values().iter().all(|v| v.is_finite()) {
                return Err(incompatible("non-finite WMH value".to_string()));
            }
            if !(wmh.norm().is_finite() && wmh.norm() > 0.0) {
                return Err(incompatible(
                    "WMH norm is not finite and positive".to_string(),
                ));
            }
        }
    }
    Ok(column)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsketch_core::method::{AnySketcher, SketchMethod};
    use ipsketch_data::{Column, Table};
    use ipsketch_join::JoinEstimator;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ipsketch-catalog-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_table() -> Table {
        Table::new(
            "taxi",
            (0..200).collect(),
            vec![
                Column::new("rides", (0..200).map(|i| f64::from(i) + 1.0).collect()),
                Column::new("tips", (0..200).map(|i| f64::from(i % 13) - 4.0).collect()),
            ],
        )
        .expect("well-formed table")
    }

    fn estimator(seed: u64) -> JoinEstimator {
        JoinEstimator::new(
            AnySketcher::for_budget(SketchMethod::Kmv, 128.0, seed).expect("budget fits"),
        )
    }

    #[test]
    fn init_register_reopen_load_round_trip() {
        let root = temp_root("roundtrip");
        let est = estimator(7);
        let mut catalog = Catalog::init(&root, est.sketcher().spec()).expect("init");
        assert!(catalog.is_empty());
        let table = sample_table();
        let rides = est.sketch_column(&table, "rides").expect("sketch");
        let tips = est.sketch_column(&table, "tips").expect("sketch");
        catalog.register(&rides).expect("register rides");
        catalog.register(&tips).expect("register tips");
        assert_eq!(catalog.len(), 2);

        // Reopen from disk: identical spec, identical sketches bit-for-bit.
        let reopened = Catalog::open(&root).expect("open");
        assert_eq!(reopened.spec(), est.sketcher().spec());
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.load("taxi", "rides").expect("load"), rides);
        assert_eq!(reopened.load("taxi", "tips").expect("load"), tips);
        assert!(matches!(
            reopened.load("taxi", "missing"),
            Err(CatalogError::NotFound { .. })
        ));
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn init_refuses_existing_catalog_and_open_refuses_plain_dirs() {
        let root = temp_root("guards");
        let spec = estimator(1).sketcher().spec();
        Catalog::init(&root, spec).expect("first init");
        assert!(matches!(
            Catalog::init(&root, spec),
            Err(CatalogError::NotACatalog { .. })
        ));
        let plain = temp_root("plain");
        fs::create_dir_all(&plain).expect("mkdir");
        assert!(matches!(
            Catalog::open(&plain),
            Err(CatalogError::NotACatalog { .. })
        ));
        fs::remove_dir_all(&root).expect("cleanup");
        fs::remove_dir_all(&plain).expect("cleanup");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let root = temp_root("dup");
        let est = estimator(3);
        let mut catalog = Catalog::init(&root, est.sketcher().spec()).expect("init");
        let sketched = est.sketch_column(&sample_table(), "rides").expect("sketch");
        catalog.register(&sketched).expect("first");
        assert!(matches!(
            catalog.register(&sketched),
            Err(CatalogError::DuplicateColumn { .. })
        ));
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn foreign_sketches_are_rejected_at_registration() {
        let root = temp_root("foreign");
        let mut catalog = Catalog::init(&root, estimator(3).sketcher().spec()).expect("init");
        // Same method, different seed.
        let reseeded = estimator(4)
            .sketch_column(&sample_table(), "rides")
            .expect("sketch");
        assert!(matches!(
            catalog.register(&reseeded),
            Err(CatalogError::Incompatible { .. })
        ));
        // Different method entirely.
        let other = JoinEstimator::new(
            AnySketcher::for_budget(SketchMethod::Jl, 128.0, 3).expect("budget fits"),
        )
        .sketch_column(&sample_table(), "rides")
        .expect("sketch");
        assert!(matches!(
            catalog.register(&other),
            Err(CatalogError::Incompatible { .. })
        ));
        assert!(catalog.is_empty());
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn damaged_blobs_surface_typed_corruption_at_load() {
        let root = temp_root("damage");
        let est = estimator(9);
        let mut catalog = Catalog::init(&root, est.sketcher().spec()).expect("init");
        let sketched = est.sketch_column(&sample_table(), "rides").expect("sketch");
        catalog.register(&sketched).expect("register");
        let blob_path = root.join(SKETCH_DIR).join(&catalog.entries()[0].file);
        let original = fs::read(&blob_path).expect("read blob");

        // Truncation: length check fires.
        fs::write(&blob_path, &original[..original.len() - 3]).expect("truncate");
        assert!(matches!(
            catalog.load("taxi", "rides"),
            Err(CatalogError::Corrupt { .. })
        ));
        // Same length, flipped byte: checksum fires.
        let mut flipped = original.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        fs::write(&blob_path, &flipped).expect("flip");
        assert!(matches!(
            catalog.load("taxi", "rides"),
            Err(CatalogError::Corrupt { .. })
        ));
        // Deleted blob: typed I/O error.
        fs::remove_file(&blob_path).expect("delete");
        assert!(matches!(
            catalog.load("taxi", "rides"),
            Err(CatalogError::Io { .. })
        ));
        // Restored blob loads again.
        fs::write(&blob_path, &original).expect("restore");
        assert_eq!(catalog.load("taxi", "rides").expect("load"), sketched);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn compaction_removes_orphans_and_keeps_live_blobs() {
        let root = temp_root("compact");
        let est = estimator(5);
        let mut catalog = Catalog::init(&root, est.sketcher().spec()).expect("init");
        let table = sample_table();
        let rides = est.sketch_column(&table, "rides").expect("sketch");
        catalog.register(&rides).expect("register");

        // Plant the two kinds of garbage compaction exists for: an orphaned blob
        // slot (as left by a failed batch) and a stray temp file from an
        // interrupted atomic write.
        let sketch_dir = root.join(SKETCH_DIR);
        fs::write(sketch_dir.join("000007.col"), b"orphan").expect("orphan");
        fs::write(sketch_dir.join("000001.tmp"), b"stray").expect("stray");

        let report = catalog.compact().expect("compact");
        assert_eq!(
            report.removed_files,
            vec!["000001.tmp".to_string(), "000007.col".to_string()]
        );
        assert_eq!(report.live_columns, 1);
        // The live blob is untouched and still loads bit-for-bit.
        assert_eq!(catalog.load("taxi", "rides").expect("load"), rides);
        // A second pass is a no-op.
        assert_eq!(catalog.compact().expect("compact").removed_files.len(), 0);
        // The rewritten manifest still opens.
        assert_eq!(Catalog::open(&root).expect("open").len(), 1);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn drop_column_tombstones_and_compact_reclaims_the_blob() {
        let root = temp_root("drop");
        let est = estimator(11);
        let mut catalog = Catalog::init(&root, est.sketcher().spec()).expect("init");
        let table = sample_table();
        let rides = est.sketch_column(&table, "rides").expect("sketch");
        let tips = est.sketch_column(&table, "tips").expect("sketch");
        catalog
            .register_all(&[rides.clone(), tips])
            .expect("register");
        let dropped_file = catalog.entries()[1].file.clone();

        catalog.drop_column("taxi", "tips").expect("drop");
        // The column stops resolving immediately; the blob file lingers.
        assert!(matches!(
            catalog.load("taxi", "tips"),
            Err(CatalogError::NotFound { .. })
        ));
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.entries().len(), 2);
        assert!(root.join(SKETCH_DIR).join(&dropped_file).exists());
        // Dropping twice (or an unknown column) is NotFound.
        assert!(matches!(
            catalog.drop_column("taxi", "tips"),
            Err(CatalogError::NotFound { .. })
        ));
        // The tombstone survives reopen.
        let mut reopened = Catalog::open(&root).expect("open");
        assert_eq!(reopened.len(), 1);
        assert!(reopened.entries()[1].dropped);
        // A new registration must NOT reuse the tombstoned blob slot.
        let more = Table::new(
            "other",
            (0..50).collect(),
            vec![Column::new("x", (0..50).map(f64::from).collect())],
        )
        .expect("table");
        let x = est.sketch_column(&more, "x").expect("sketch");
        reopened.register(&x).expect("register post-drop");
        assert_eq!(reopened.entries()[2].file, "000002.col");

        // Compaction purges the tombstone and reclaims its blob.
        let report = reopened.compact().expect("compact");
        assert_eq!(report.removed_files, vec![dropped_file.clone()]);
        assert_eq!(report.live_columns, 2);
        assert!(!root.join(SKETCH_DIR).join(&dropped_file).exists());
        assert_eq!(reopened.entries().len(), 2);
        assert_eq!(reopened.load("taxi", "rides").expect("load"), rides);
        assert_eq!(Catalog::open(&root).expect("reopen").entries().len(), 2);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn init_refuses_the_read_only_v1_format() {
        let root = temp_root("init-v1");
        let spec = estimator(2).sketcher().spec();
        let err = Catalog::init(&root, spec.with_format(ipsketch_core::FormatVersion::V1))
            .expect_err("v1 init");
        assert!(matches!(err, CatalogError::Incompatible { .. }));
        assert!(err.to_string().contains("read-only"), "{err}");
    }

    #[test]
    fn corrupt_manifest_is_rejected_on_open() {
        let root = temp_root("manifest");
        Catalog::init(&root, estimator(1).sketcher().spec()).expect("init");
        let manifest_path = root.join(MANIFEST_FILE);
        let mut bytes = fs::read(&manifest_path).expect("read");
        bytes[0] ^= 0xFF;
        fs::write(&manifest_path, &bytes).expect("corrupt");
        assert!(matches!(
            Catalog::open(&root),
            Err(CatalogError::Corrupt { .. })
        ));
        fs::remove_dir_all(&root).expect("cleanup");
    }
}
