//! Format-migration acceptance tests: the committed golden v1 catalog loads
//! read-only and byte-for-byte, migration to the current format is lossless
//! (estimates bit-identical, every method including WMH — migration transcodes
//! the stored sketches, it never re-sketches), and a migration killed mid-run
//! resumes to the same destination bytes.
//!
//! The fixture bytes under `tests/fixtures/v1-catalog/` are checked in; set
//! `IPSKETCH_BLESS_FIXTURES=1` to regenerate them after an *intentional* v1
//! layout change (there should never be one — the layout is frozen).

use ipsketch_core::wmh::{WmhStream, WmhVariant};
use ipsketch_core::{FormatVersion, SketcherKind, SketcherSpec};
use ipsketch_data::{Column, Table};
use ipsketch_join::{JoinEstimator, RankedColumn, SketchedColumn};
use ipsketch_serve::catalog::{MANIFEST_FILE, SKETCH_DIR};
use ipsketch_serve::manifest::{fnv64, Manifest, ManifestEntry};
use ipsketch_serve::service::{rank, Mode, RankRequest};
use ipsketch_serve::{migrate_catalog, CascadeNote, Catalog, CatalogError, QueryService};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsketch-migrate-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Sketches the `rides` query column under `service`'s configuration.
fn rides_query(service: &QueryService) -> SketchedColumn {
    service
        .estimator()
        .sketch_column(&rides(), "rides")
        .expect("query sketches")
}

/// Hydrates `service` and ranks the sketched `rides` query through the one
/// ranking path.
fn ranked(
    service: &mut QueryService,
    query: SketchedColumn,
    k: usize,
    cascade: bool,
) -> (Vec<RankedColumn>, Option<CascadeNote>) {
    service.ensure_hydrated().expect("hydrate");
    let request = RankRequest {
        mode: Mode::Joinable,
        k,
        min_join_size: 0.0,
        cascade,
    };
    let (mut rankings, note) = rank(
        service.index(),
        &[(&rides(), "rides")],
        vec![query],
        request,
    )
    .expect("ranks");
    (rankings.remove(0), note)
}

/// The deterministic source table behind every v1 catalog in this suite.
fn weather() -> Table {
    Table::new(
        "weather",
        (0..120).collect(),
        vec![
            Column::new(
                "precip",
                (0..120).map(|i| 2.0 * f64::from(i) + 3.0).collect(),
            ),
            Column::new(
                "noise",
                (0..120).map(|i| f64::from((i * 37) % 11) - 5.0).collect(),
            ),
            Column::new("steps", (0..120).map(|i| f64::from(i % 13) + 1.0).collect()),
        ],
    )
    .expect("table")
}

/// A query column joining heavily with `weather` (keys 60..180 overlap 60..120).
fn rides() -> Table {
    Table::new(
        "taxi",
        (60..180).collect(),
        vec![Column::new(
            "rides",
            (60..180).map(|i| f64::from(i) + 1.0).collect(),
        )],
    )
    .expect("table")
}

/// Builds the files of a v1 catalog over `weather()` under `spec` — the layout the
/// pre-versioning build wrote, assembled by hand because `Catalog::init` refuses
/// the read-only v1 format.  Returns `(relative path, bytes)` pairs.
fn v1_catalog_files(spec: SketcherSpec) -> Vec<(String, Vec<u8>)> {
    assert_eq!(spec.format, FormatVersion::V1, "fixture builder is v1-only");
    let estimator = JoinEstimator::new(spec.build().expect("spec builds"));
    let table = weather();
    let mut manifest = Manifest::new(spec);
    let mut files = Vec::new();
    for (i, name) in ["precip", "noise", "steps"].iter().enumerate() {
        let column = estimator.sketch_column(&table, name).expect("sketches");
        let blob = column.encode(FormatVersion::V1);
        let file = format!("{i:06}.col");
        manifest.entries.push(ManifestEntry {
            table: "weather".to_string(),
            column: (*name).to_string(),
            rows: column.rows as u64,
            file: file.clone(),
            blob_len: blob.len() as u64,
            checksum: fnv64(&blob),
            dropped: false,
            companion: None,
        });
        files.push((format!("{SKETCH_DIR}/{file}"), blob));
    }
    files.push((MANIFEST_FILE.to_string(), manifest.encode()));
    files
}

fn write_catalog_files(root: &Path, files: &[(String, Vec<u8>)]) {
    for (rel, bytes) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, bytes).expect("write");
    }
}

/// The KMV configuration of the committed golden fixture.
fn golden_spec() -> SketcherSpec {
    SketcherSpec::v1(SketcherKind::Kmv {
        capacity: 32,
        seed: 7,
    })
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-catalog")
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
fn golden_v1_fixture_matches_the_committed_bytes() {
    let mut built = v1_catalog_files(golden_spec());
    built.sort();
    if std::env::var_os("IPSKETCH_BLESS_FIXTURES").is_some() {
        let _ = fs::remove_dir_all(golden_dir());
        write_catalog_files(&golden_dir(), &built);
    }
    let committed = snapshot(&golden_dir());
    let built_names: Vec<&String> = built.iter().map(|(n, _)| n).collect();
    let committed_names: Vec<&String> = committed.iter().map(|(n, _)| n).collect();
    assert_eq!(
        committed_names, built_names,
        "fixture file set drifted (regenerate with IPSKETCH_BLESS_FIXTURES=1 only for an \
         intentional v1 layout change)"
    );
    for ((name, committed_bytes), (_, built_bytes)) in committed.iter().zip(&built) {
        assert_eq!(
            committed_bytes, built_bytes,
            "`{name}` drifted from the frozen v1 layout"
        );
    }
}

#[test]
fn golden_v1_fixture_loads_read_only() {
    let catalog = Catalog::open(golden_dir()).expect("golden catalog opens");
    assert_eq!(catalog.format(), FormatVersion::V1);
    assert_eq!(catalog.len(), 3);
    assert_eq!(catalog.spec(), golden_spec());

    // Queries work: the service hydrates and ranks v1 sketches as always.
    let mut service = QueryService::open(golden_dir()).expect("service opens");
    assert_eq!(service.stats().format, "v1");
    let query = rides_query(&service);
    let (ranking, _) = ranked(&mut service, query, 3, false);
    assert!(
        ranking.iter().any(|r| r.id.column == "precip"),
        "golden catalog must rank the joinable column: {ranking:?}"
    );

    // Writes are refused with the migration pointer; the directory is untouched.
    let before = snapshot(&golden_dir());
    let mut catalog = Catalog::open(golden_dir()).expect("reopen");
    let column = JoinEstimator::new(golden_spec().build().expect("builds"))
        .sketch_column(&rides(), "rides")
        .expect("sketches");
    let err = catalog
        .register_all(&[column])
        .expect_err("register refused");
    assert!(
        matches!(&err, CatalogError::Incompatible { detail }
            if detail.contains("read-only") && detail.contains("catalog migrate")),
        "{err}"
    );
    let err = catalog
        .drop_column("weather", "precip")
        .expect_err("drop refused");
    assert!(matches!(err, CatalogError::Incompatible { .. }), "{err}");
    assert_eq!(
        snapshot(&golden_dir()),
        before,
        "read-only catalog was written"
    );
}

#[test]
fn migration_preserves_every_estimate_bit_for_bit() {
    // WMH is the interesting method: its v1 spec pins the v1 record stream, and
    // migration must carry that stream (and the sketch samples) over unchanged.
    let spec = SketcherSpec::v1(SketcherKind::WeightedMinHash {
        samples: 32,
        seed: 5,
        discretization: 1 << 20,
        variant: WmhVariant::Fast,
        stream: WmhStream::V1,
    });
    let root = temp_root("lossless");
    let src = root.join("v1");
    write_catalog_files(&src, &v1_catalog_files(spec));

    let mut before_service = QueryService::open(&src).expect("source opens");
    let query = rides_query(&before_service);
    let (before, _) = ranked(&mut before_service, query.clone(), 10, false);

    let dest = root.join("v2");
    let mut seen = Vec::new();
    let report = migrate_catalog(&src, &dest, |p| {
        seen.push((p.table.to_string(), p.column.to_string(), p.done, p.total));
    })
    .expect("migration succeeds");
    assert_eq!(
        (report.from, report.to),
        (FormatVersion::V1, FormatVersion::V2)
    );
    assert_eq!(
        (report.columns, report.transcoded, report.resumed),
        (3, 3, 0)
    );
    assert_eq!(seen.len(), 3);
    assert!(seen
        .iter()
        .all(|(t, _, _, total)| t == "weather" && *total == 3));

    // The destination is the writable current format with the same sketcher kind.
    let migrated = Catalog::open(&dest).expect("destination opens");
    assert_eq!(migrated.format(), FormatVersion::V2);
    assert_eq!(
        migrated.spec().kind,
        spec.kind,
        "sketcher kind must not change"
    );

    // Same query, bit-identical answers.
    let mut after_service = QueryService::open(&dest).expect("destination opens");
    let (after, _) = ranked(&mut after_service, query, 10, false);
    assert_eq!(before.len(), after.len());
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(b.id, a.id);
        assert_eq!(b.score.to_bits(), a.score.to_bits(), "score drift");
        assert_eq!(
            b.estimated_join_size.to_bits(),
            a.estimated_join_size.to_bits(),
            "join-size drift"
        );
        assert_eq!(
            b.estimated_correlation.to_bits(),
            a.estimated_correlation.to_bits(),
            "correlation drift"
        );
    }

    // The destination accepts writes: drop a column, which v1 refused.
    let mut migrated = Catalog::open(&dest).expect("reopen");
    migrated.drop_column("weather", "noise").expect("v2 drops");
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn migration_backfills_kmv_companions_that_serve_cascades() {
    // A KMV primary truncates exactly to a smaller-capacity KMV, so migration can
    // backfill the cheap-tier companions even though the raw data is gone — and the
    // migrated catalog then serves cascade queries with no fallback.
    let root = temp_root("backfill");
    let src = root.join("v1");
    write_catalog_files(&src, &v1_catalog_files(golden_spec()));
    let dest = root.join("v2");
    let report = migrate_catalog(&src, &dest, |_| {}).expect("migration succeeds");
    assert_eq!(
        report.backfilled, 3,
        "every KMV column gains a derived companion"
    );

    let migrated = Catalog::open(&dest).expect("destination opens");
    let companion_spec = migrated
        .companion_spec()
        .expect("migrated KMV catalogs declare a companion tier");
    assert_eq!(
        companion_spec.kind,
        SketcherKind::Kmv {
            capacity: 8, // a quarter of the primary's 32
            seed: 7,
        }
    );
    for entry in migrated.live_entries() {
        let companion = migrated
            .load_companion_entry(entry)
            .expect("companion loads")
            .expect("companion stored");
        // The backfilled companion is bit-identical to one sketched from the raw
        // data by the smaller sketcher — the truncation-exactness guarantee.
        let fresh = JoinEstimator::new(companion_spec.build().expect("builds"))
            .sketch_column(&weather(), &entry.column)
            .expect("sketches");
        assert_eq!(
            companion.encode(FormatVersion::V2),
            fresh.encode(FormatVersion::V2),
            "backfilled companion for `{}` drifted from a fresh sketch",
            entry.column
        );
    }

    // Cascade queries over the migrated catalog run the real two-tier path (no
    // note) and answer bit-identically to the flat scan.
    let mut service = QueryService::open(&dest).expect("service opens");
    assert!(service.companion_estimator().is_some(), "companion tier");
    let query = rides_query(&service);
    let (flat, _) = ranked(&mut service, query.clone(), 3, false);
    let (cascaded, note) = ranked(&mut service, query, 3, true);
    assert!(
        note.is_none(),
        "backfilled catalogs cascade without fallback"
    );
    assert_eq!(cascaded, flat);
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn non_derivable_migrations_fall_back_to_the_flat_scan_with_a_note() {
    // A WMH primary cannot derive a companion (no truncation exactness), so the
    // migrated catalog is companion-less — and a cascade request over it must be
    // answered by the flat scan with a typed `info` note, never an error.
    let spec = SketcherSpec::v1(SketcherKind::WeightedMinHash {
        samples: 32,
        seed: 5,
        discretization: 1 << 20,
        variant: WmhVariant::Fast,
        stream: WmhStream::V1,
    });
    let root = temp_root("no-backfill");
    let src = root.join("v1");
    write_catalog_files(&src, &v1_catalog_files(spec));
    let dest = root.join("v2");
    let report = migrate_catalog(&src, &dest, |_| {}).expect("migration succeeds");
    assert_eq!(report.backfilled, 0, "nothing derivable from WMH primaries");
    assert!(Catalog::open(&dest)
        .expect("opens")
        .companion_spec()
        .is_none());

    let mut service = QueryService::open(&dest).expect("service opens");
    assert!(service.companion_estimator().is_none());
    let query = rides_query(&service);
    let (flat, _) = ranked(&mut service, query.clone(), 3, false);
    let (ranking, note) = ranked(&mut service, query, 3, true);
    let note = note.expect("the fallback is reported as a typed note");
    assert_eq!(note.code, ipsketch_serve::NOTE_CASCADE_FALLBACK);
    assert_eq!(ranking, flat);
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn interrupted_migration_resumes_to_identical_bytes() {
    let root = temp_root("resume");
    let src = root.join("v1");
    write_catalog_files(&src, &v1_catalog_files(golden_spec()));

    // The reference: one uninterrupted migration.
    let clean = root.join("clean");
    migrate_catalog(&src, &clean, |_| {}).expect("clean migration");

    // The crash scene: one finished blob, one torn blob, no manifest — exactly what
    // a kill between blob writes leaves behind (blobs land atomically, the manifest
    // lands last).
    let crashed = root.join("crashed");
    let crashed_sketches = crashed.join(SKETCH_DIR);
    fs::create_dir_all(&crashed_sketches).expect("mkdir");
    let finished = fs::read(clean.join(SKETCH_DIR).join("000000.col")).expect("read");
    fs::write(crashed_sketches.join("000000.col"), &finished).expect("write");
    fs::write(
        crashed_sketches.join("000001.col"),
        &finished[..finished.len() / 2],
    )
    .expect("write torn blob");

    let report = migrate_catalog(&src, &crashed, |_| {}).expect("resume succeeds");
    assert_eq!(
        (report.columns, report.resumed, report.transcoded),
        (3, 1, 2),
        "the finished blob resumes, the torn one is rewritten"
    );
    assert_eq!(
        snapshot(&crashed),
        snapshot(&clean),
        "resumed and uninterrupted migrations must converge byte-for-byte"
    );

    // A *finished* destination (manifest present) is refused, not clobbered.
    let err = migrate_catalog(&src, &clean, |_| {}).expect_err("finished dest refused");
    assert!(
        matches!(&err, CatalogError::NotACatalog { detail, .. }
            if detail.contains("already holds a catalog manifest")),
        "{err}"
    );

    // Migrating a current-format catalog is a typed refusal.
    let err = migrate_catalog(&clean, root.join("again"), |_| {}).expect_err("v2 src refused");
    assert!(
        matches!(&err, CatalogError::Incompatible { detail } if detail.contains("already format")),
        "{err}"
    );
    fs::remove_dir_all(&root).expect("cleanup");
}
