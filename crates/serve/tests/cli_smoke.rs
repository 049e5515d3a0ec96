//! End-to-end smoke test of the `ipsketch` binary itself: a full
//! `catalog init → ingest → ingest-partial → query → info` round trip through real
//! process invocations, asserting on exit codes and output — exactly what the CI
//! CLI-smoke job runs, kept here so it is also exercised by plain `cargo test`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ipsketch")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary spawns")
}

fn stdout_of(output: &Output) -> String {
    assert!(
        output.status.success(),
        "command failed with {:?}\nstdout: {}\nstderr: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsketch-bin-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Writes a small joinable lake: `taxi.csv` over keys 0..150, `weather.csv` over keys
/// 50..200 with a precipitation column proportional to the ride counts on the overlap.
fn write_lake(dir: &Path) -> (PathBuf, PathBuf) {
    let mut taxi = String::from("key,rides\n");
    for key in 0..150 {
        taxi.push_str(&format!("{key},{}\n", f64::from(key % 23) + 1.0));
    }
    let mut weather = String::from("key,precip\n");
    for key in 50..200 {
        weather.push_str(&format!("{key},{}\n", 3.0 * (f64::from(key % 23) + 1.0)));
    }
    let taxi_path = dir.join("taxi.csv");
    let weather_path = dir.join("weather.csv");
    fs::write(&taxi_path, taxi).expect("write taxi");
    fs::write(&weather_path, weather).expect("write weather");
    (taxi_path, weather_path)
}

#[test]
fn full_round_trip_from_a_clean_directory() {
    let dir = temp_dir("roundtrip");
    let (taxi, weather) = write_lake(&dir);
    let catalog = dir.join("catalog");
    let catalog_str = catalog.to_str().expect("utf8 path");

    let init = stdout_of(&run(&[
        "catalog",
        "init",
        catalog_str,
        "--method",
        "wmh",
        "--budget",
        "300",
        "--seed",
        "7",
    ]));
    assert!(init.contains("initialized catalog"), "{init}");

    // One-shot ingest of the weather table, shard-partial ingest of the taxi table —
    // both paths land in the same catalog.
    let one_shot = stdout_of(&run(&[
        "ingest",
        catalog_str,
        weather.to_str().expect("utf8"),
    ]));
    assert!(one_shot.contains("registered weather.precip"), "{one_shot}");
    let partial = stdout_of(&run(&[
        "ingest-partial",
        catalog_str,
        taxi.to_str().expect("utf8"),
        "--shards",
        "3",
    ]));
    assert!(partial.contains("registered taxi.rides"), "{partial}");
    assert!(partial.contains("3 shard partials folded"), "{partial}");

    // A query from the taxi side must rank the weather column with a non-empty,
    // non-zero result (the key overlap is 100 rows).
    let query = stdout_of(&run(&[
        "query",
        catalog_str,
        taxi.to_str().expect("utf8"),
        "--column",
        "rides",
        "--top",
        "5",
    ]));
    assert!(query.contains("weather.precip"), "{query}");
    let ranked_lines: Vec<&str> = query
        .lines()
        .filter(|l| l.contains("weather.precip"))
        .collect();
    assert_eq!(ranked_lines.len(), 1, "{query}");

    let info = stdout_of(&run(&["info", catalog_str]));
    assert!(info.contains("columns: 2"), "{info}");
    assert!(info.contains("taxi.rides"), "{info}");
    assert!(info.contains("WMH"), "{info}");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn usage_errors_exit_2_and_runtime_errors_exit_1() {
    let dir = temp_dir("exitcodes");
    let bad_usage = run(&["frobnicate"]);
    assert_eq!(bad_usage.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&bad_usage.stderr).contains("USAGE"),
        "usage errors reprint the usage text"
    );
    let runtime = run(&["info", dir.join("not-a-catalog").to_str().expect("utf8")]);
    assert_eq!(runtime.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&runtime.stderr).contains("error"),
        "runtime errors are reported on stderr"
    );
    let help = run(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn cli_estimates_match_the_in_memory_index_for_all_mergeable_methods() {
    // The ISSUE acceptance criterion: the CLI round trip returns identical estimates
    // to an in-memory SketchIndex for every mergeable method, through both the
    // one-shot and shard-partial ingest paths.
    use ipsketch_core::method::{AnySketcher, SketchMethod};
    use ipsketch_join::{JoinEstimator, SketchIndex};
    use ipsketch_serve::csv::load_table;

    for (method, label) in [
        (SketchMethod::Jl, "jl"),
        (SketchMethod::CountSketch, "cs"),
        (SketchMethod::MinHash, "mh"),
        (SketchMethod::Kmv, "kmv"),
        (SketchMethod::WeightedMinHash, "wmh"),
        (SketchMethod::Icws, "icws"),
    ] {
        let dir = temp_dir(&format!("parity-{label}"));
        let (taxi, weather) = write_lake(&dir);
        let catalog = dir.join("catalog");
        let catalog_str = catalog.to_str().expect("utf8 path");
        stdout_of(&run(&[
            "catalog",
            "init",
            catalog_str,
            "--method",
            label,
            "--budget",
            "200",
            "--seed",
            "11",
        ]));
        // Shard-partial ingest exercises the announced-norm protocol per method.
        stdout_of(&run(&[
            "ingest-partial",
            catalog_str,
            weather.to_str().expect("utf8"),
            "--shards",
            "4",
        ]));
        let query = stdout_of(&run(&[
            "query",
            catalog_str,
            taxi.to_str().expect("utf8"),
            "--column",
            "rides",
            "--top",
            "1",
        ]));
        let cli_line = query
            .lines()
            .find(|l| l.contains("weather.precip"))
            .unwrap_or_else(|| panic!("{label}: no ranked output in {query}"));
        let cli_join_size: f64 = cli_line
            .split_whitespace()
            .nth(2)
            .expect("join_size field")
            .parse()
            .expect("numeric join size");

        // In-memory baseline: same method/budget/seed, same shard-partial path.
        let est =
            JoinEstimator::new(AnySketcher::for_budget(method, 200.0, 11).expect("budget fits"));
        let mut index = SketchIndex::new(est);
        let weather_table = load_table(&weather, None).expect("weather parses");
        index
            .insert_table_partitioned(&weather_table, 4)
            .expect("indexes");
        let taxi_table = load_table(&taxi, None).expect("taxi parses");
        let q = index.sketch_query(&taxi_table, "rides").expect("sketches");
        let ranked = index.top_k_joinable(&q, 1).expect("ranks");
        let expected = ranked[0].estimated_join_size;
        // The CLI prints with two decimals; compare at that precision.
        assert!(
            (cli_join_size - expected).abs() <= 0.005 + 1e-9,
            "{label}: CLI join size {cli_join_size} vs in-memory {expected}"
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn query_cascade_fallback_and_relatedness_answer_through_one_path() {
    use ipsketch_serve::csv::load_table;
    use ipsketch_serve::QueryService;

    let dir = temp_dir("query-paths");
    let (taxi, weather) = write_lake(&dir);
    let mut noise = String::from("key,a,b\n");
    for key in 0..180u32 {
        noise.push_str(&format!(
            "{key},{},{}\n",
            f64::from(key % 7) + 1.0,
            f64::from((key * 13) % 17) + 1.0
        ));
    }
    let noise_path = dir.join("noise.csv");
    fs::write(&noise_path, noise).expect("write noise");
    let taxi = taxi.to_str().expect("utf8");

    // Two catalogs over the same lake: one stores cascade companions (the
    // default), one was initialized without them.
    let catalog_of = |name: &str, extra: &[&str]| {
        let catalog = dir.join(name);
        let path = catalog.to_str().expect("utf8").to_string();
        let mut init = vec![
            "catalog", "init", &path, "--method", "wmh", "--budget", "300", "--seed", "7",
        ];
        init.extend_from_slice(extra);
        stdout_of(&run(&init));
        for table in [&weather, &noise_path] {
            stdout_of(&run(&["ingest", &path, table.to_str().expect("utf8")]));
        }
        path
    };
    let companions = catalog_of("companions", &[]);
    let flat_only = catalog_of("flat-only", &["--no-companion"]);
    let query_args = |catalog: &str, extra: &[&str]| {
        let mut args = vec![
            "query".to_string(),
            catalog.to_string(),
            taxi.to_string(),
            "--column".to_string(),
            "rides".to_string(),
            "--top".to_string(),
            "5".to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        args
    };
    let query = |catalog: &str, extra: &[&str]| {
        let args = query_args(catalog, extra);
        stdout_of(&run(&args.iter().map(String::as_str).collect::<Vec<_>>()))
    };

    // The cascade is invisible in the output bytes when companions exist.
    let cascaded = query(&companions, &["--cascade"]);
    let flat = query(&companions, &["--no-cascade"]);
    assert_eq!(cascaded, flat, "cascade changed the CLI output");
    assert!(flat.contains("weather.precip"), "{flat}");
    assert!(!flat.contains("note"), "{flat}");

    // Without companions the cascade says so first, then prints the flat ranking.
    let fallback = query(&flat_only, &["--cascade"]);
    let (note, ranking) = fallback.split_once('\n').expect("note line");
    assert!(
        note.starts_with("note (cascade_fallback): "),
        "fallback note missing: {fallback}"
    );
    assert_eq!(ranking, query(&flat_only, &["--no-cascade"]));

    // Relatedness rows are the index's correlation ranking, printed.
    let related = query(&companions, &["--relatedness", "--min-join-size", "10"]);
    let mut service = QueryService::open(&companions).expect("catalog opens");
    service.ensure_hydrated().expect("hydrates");
    let taxi_table = load_table(Path::new(taxi), None).expect("taxi parses");
    let q = service
        .index()
        .sketch_query(&taxi_table, "rides")
        .expect("sketches");
    let expected: Vec<String> = service
        .index()
        .top_k_correlated(&q, 5, 10.0)
        .expect("ranks")
        .iter()
        .enumerate()
        .map(|(i, r)| {
            format!(
                "{:<4} {:<28} {:>12.2} {:>10.4}",
                i + 1,
                format!("{}.{}", r.id.table, r.id.column),
                r.estimated_join_size,
                r.estimated_correlation
            )
        })
        .collect();
    assert!(!expected.is_empty());
    let rows: Vec<&str> = related.lines().skip(2).collect();
    assert_eq!(rows, expected, "{related}");

    // A cascaded relatedness query is still a usage error.
    let args = query_args(&companions, &["--cascade", "--relatedness"]);
    let both = run(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(both.status.code(), Some(2));
    fs::remove_dir_all(&dir).expect("cleanup");
}
