//! Plain-text, CSV and JSON bench reports.
//!
//! The experiment binaries print the same rows/series the paper's plots show; this
//! module provides a minimal aligned-table formatter and a CSV writer (under
//! `target/experiments/` by default) so results can be diffed and re-plotted.
//!
//! It is also the one harness the JSON-reporting benches (`kernels`,
//! `cascade_bench`, `loadgen`) share:
//!
//! * [`Profile`] — quick or full, chosen by `IPSKETCH_BENCH_QUICK=1`;
//! * [`quantile`] and [`mean`] over latency samples, and [`Timer`], which times
//!   the arms of a ratio interleaved and keeps each arm's best round;
//! * [`BenchReport`] — floors read from the committed baseline, and a writer
//!   that puts this run's profile beside the committed other profile, copied
//!   verbatim;
//! * [`Floor`] and [`enforce`] — the one gate, under `IPSKETCH_BENCH_ENFORCE=1`.
//!
//! Every report has one layout:
//! `{"version": 1, "generated_by": …, "profiles": {"full": {…}, "quick": {…}}}`.

use ipsketch_serve::wire::Json;
use std::ffi::OsString;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The scale a JSON-reporting bench runs at, and so the section of its report
/// it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Paper- or reference-scale inputs; the default.
    Full,
    /// CI-sized inputs, selected by `IPSKETCH_BENCH_QUICK=1`.
    Quick,
}

impl Profile {
    /// `Quick` when `IPSKETCH_BENCH_QUICK` is `1`, else `Full`.
    #[must_use]
    pub fn from_env() -> Profile {
        Profile::from_var(std::env::var("IPSKETCH_BENCH_QUICK").ok().as_deref())
    }

    fn from_var(value: Option<&str>) -> Profile {
        if value.is_some_and(|v| v.trim() == "1") {
            Profile::Quick
        } else {
            Profile::Full
        }
    }

    /// The profile's key in a report: `"full"` or `"quick"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Profile::Full => "full",
            Profile::Quick => "quick",
        }
    }
}

/// The `q`-quantile of ascending `sorted` samples (nearest rank); 0 when empty.
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The arithmetic mean of `samples`; 0 when empty.
#[must_use]
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

/// `x` as a JSON number with `decimals` digits after the point; `null` if `x`
/// is not finite.
#[must_use]
pub fn fixed(x: f64, decimals: usize) -> Json {
    if x.is_finite() {
        Json::Num(format!("{x:.decimals$}"))
    } else {
        Json::Null
    }
}

/// Interleaved best-of-reps timing.
///
/// Each of `reps` rounds runs every arm in turn, each for the same number of
/// calls, and each arm keeps its fastest round.  The arms of a ratio thus see
/// the same machine conditions (clock drift between arms timed seconds apart
/// moves a ratio more than many kernels differ), and keeping each arm's best
/// discards the slow outliers of both sides alike.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    /// Timed rounds per arm.
    pub reps: usize,
    /// How long the slowest arm's round should last, at least one call.
    pub round: Duration,
}

impl Timer {
    /// Each arm's best time per call, in nanoseconds.  The calls per round
    /// start at one and double until the slowest arm's round lasts
    /// [`round`](Self::round); those untimed rounds also warm the caches.
    pub fn best_ns<const N: usize>(&self, mut arms: [&mut dyn FnMut(); N]) -> [f64; N] {
        fn round_ns(arm: &mut dyn FnMut(), calls: u64) -> f64 {
            let start = Instant::now();
            for _ in 0..calls {
                arm();
            }
            start.elapsed().as_secs_f64() * 1e9
        }
        let target = self.round.as_secs_f64() * 1e9;
        let mut calls = 1u64;
        while arms
            .iter_mut()
            .map(|arm| round_ns(*arm, calls))
            .fold(0.0, f64::max)
            < target
        {
            calls *= 2;
        }
        let mut best = [f64::INFINITY; N];
        for _ in 0..self.reps {
            for (arm, best) in arms.iter_mut().zip(&mut best) {
                *best = best.min(round_ns(*arm, calls) / calls as f64);
            }
        }
        best
    }
}

/// One gated number: `measured` against `floor`.
#[derive(Debug, Clone, PartialEq)]
pub struct Floor {
    /// What is gated, as a failure names it.
    pub row: String,
    /// This run's value; `None` when the run no longer measures the row.
    pub measured: Option<f64>,
    /// The lowest passing value: a row exactly at its floor passes.
    pub floor: f64,
}

/// The failures among `floors`, in order: each vanished row and each row
/// below its floor.
#[must_use]
pub fn failures(floors: &[Floor]) -> Vec<String> {
    floors
        .iter()
        .filter_map(|f| match f.measured {
            None => Some(format!("{} vanished", f.row)),
            Some(x) if x < f.floor => {
                Some(format!("{}: {x:.2} below its floor {:.2}", f.row, f.floor))
            }
            Some(_) => None,
        })
        .collect()
}

/// The gate.  Under `IPSKETCH_BENCH_ENFORCE=1`, prints every failure among
/// `floors` and exits 1 if there is one; without it, does nothing.
pub fn enforce(floors: &[Floor]) {
    if !std::env::var("IPSKETCH_BENCH_ENFORCE").is_ok_and(|v| v.trim() == "1") {
        return;
    }
    let failures = failures(floors);
    if failures.is_empty() {
        println!("all {} gated rows at or above their floors", floors.len());
        return;
    }
    eprintln!("regressed below the gate's floors:");
    for failure in &failures {
        eprintln!("  {failure}");
    }
    std::process::exit(1);
}

/// A bench's JSON report (`BENCH_kernels.json`, `BENCH_cascade.json`,
/// `BENCH_serve.json`): the committed baseline it reads and the file its run
/// writes.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The committed file at the repository root: the baseline a gated run
    /// enforces against, and the source of the other profile a run copies.
    committed: PathBuf,
    /// Where the run writes: the path in `IPSKETCH_BENCH_OUT` when that is
    /// set, else `target/bench-reports/<file>`.  A run never rewrites the
    /// committed baseline unless `IPSKETCH_BENCH_OUT` names it.
    out: PathBuf,
    generated_by: &'static str,
    profile: Profile,
    /// The committed report's text, if it exists and parses.
    baseline: Option<String>,
}

impl BenchReport {
    /// The report whose committed baseline is `file` (e.g. `BENCH_serve.json`),
    /// for a run in the profile `IPSKETCH_BENCH_QUICK` selects; `generated_by`
    /// is the command that runs the bench.
    #[must_use]
    pub fn open(file: &str, generated_by: &'static str) -> BenchReport {
        let (committed, out) = paths(file, std::env::var_os("IPSKETCH_BENCH_OUT"));
        let baseline = std::fs::read_to_string(&committed)
            .ok()
            .filter(|text| Json::parse(text).is_ok());
        BenchReport {
            committed,
            out,
            generated_by,
            profile: Profile::from_env(),
            baseline,
        }
    }

    /// The profile this run measures.
    #[must_use]
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// One floor per `results` row of this profile in the committed report:
    /// `fraction` of the row's `metric`, against what `measured` returns for
    /// the values of the row's `keys` members.  Empty, with a note, when the
    /// committed report has no such profile.
    pub fn relative_floors(
        &self,
        keys: &[&str],
        metric: &str,
        fraction: f64,
        measured: impl Fn(&[&str]) -> Option<f64>,
    ) -> Vec<Floor> {
        let doc = self.baseline.as_deref().and_then(|t| Json::parse(t).ok());
        let rows = doc.as_ref().and_then(|doc| {
            let section = doc.get("profiles")?.get(self.profile.name())?;
            section.get("results")?.as_arr()
        });
        let Some(rows) = rows else {
            println!(
                "no committed `{}` profile in {}: no baseline floors",
                self.profile.name(),
                self.committed.display()
            );
            return Vec::new();
        };
        rows.iter()
            .filter_map(|row| {
                let key = keys
                    .iter()
                    .map(|k| row.get(k)?.as_str())
                    .collect::<Option<Vec<&str>>>()?;
                Some(Floor {
                    row: format!("{} {metric}", key.join("/")),
                    measured: measured(&key),
                    floor: fraction * row.get(metric)?.as_f64()?,
                })
            })
            .collect()
    }

    /// Writes `section`, the members of this run's profile, beside the
    /// committed report's other profile, creating the output directory if
    /// needed.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the directory or writing the file.
    pub fn write(&self, section: &[(&str, Json)]) -> std::io::Result<()> {
        if let Some(dir) = self.out.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&self.out, self.render(section))?;
        println!("\nwrote {}", self.out.display());
        Ok(())
    }

    /// The whole report: `section` as this run's profile and the committed
    /// report's other profile copied byte for byte, in the order full, quick.
    /// A profile is a member per line, with a non-empty array or object spread
    /// one element per line.
    fn render(&self, section: &[(&str, Json)]) -> String {
        let spread = |open, items: Vec<String>, close| {
            format!(
                "{open}\n        {}\n      {close}",
                items.join(",\n        ")
            )
        };
        let member = |(key, value): &(&str, Json)| {
            let value = match value {
                Json::Arr(items) if !items.is_empty() => {
                    spread('[', items.iter().map(Json::to_string).collect(), ']')
                }
                Json::Obj(members) if !members.is_empty() => {
                    let members = members
                        .iter()
                        .map(|(k, v)| format!("{}: {v}", Json::str(k)));
                    spread('{', members.collect(), '}')
                }
                scalar => scalar.to_string(),
            };
            format!("      {}: {value}", Json::str(*key))
        };
        let members: Vec<String> = section.iter().map(member).collect();
        let ours = format!("{{\n{}\n    }}", members.join(",\n"));
        let theirs = |name| self.baseline.as_deref().and_then(|t| profile_text(t, name));
        let (full, quick) = match self.profile {
            Profile::Full => (Some(ours.as_str()), theirs("quick")),
            Profile::Quick => (theirs("full"), Some(ours.as_str())),
        };
        let profiles: Vec<String> = [("full", full), ("quick", quick)]
            .into_iter()
            .filter_map(|(name, text)| Some(format!("    \"{name}\": {}", text?)))
            .collect();
        format!(
            "{{\n  \"version\": 1,\n  \"generated_by\": {},\n  \"profiles\": {{\n{}\n  }}\n}}\n",
            Json::str(self.generated_by),
            profiles.join(",\n")
        )
    }
}

/// The committed and output paths of the report `file`, given the value of
/// `IPSKETCH_BENCH_OUT`.
fn paths(file: &str, out: Option<OsString>) -> (PathBuf, PathBuf) {
    // The bench crate lives at `crates/bench` under the repository root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the bench crate sits two levels below the repository root");
    let default = || root.join("target").join("bench-reports").join(file);
    (root.join(file), out.map_or_else(default, PathBuf::from))
}

/// The text of profile `name` in a report of this layout, exactly as written:
/// from after its `    "name": ` line start through its closing `    }`.
fn profile_text<'a>(report: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\n    \"{name}\": ");
    let start = report.find(&key)? + key.len();
    let len = report[start..].find("\n    }")? + "\n    }".len();
    Some(&report[start..start + len])
}

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have the same arity as the header).
    ///
    /// # Panics
    ///
    /// Panics if the row arity differs from the header arity.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row arity must match the header"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:width$}", cell, width = widths[i]);
                if i + 1 < columns {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |row: &[String]| {
            let line: Vec<String> = row.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.header);
        for row in &self.rows {
            write_row(row);
        }
        out
    }

    /// Writes the CSV rendering to `directory/name.csv`, creating the directory if
    /// needed, and returns the full path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing the file.
    pub fn write_csv(&self, directory: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(directory)?;
        let path = directory.join(format!("{name}.csv"));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }
}

/// The default output directory for experiment CSVs: `target/experiments`.
#[must_use]
pub fn default_output_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Formats a float with a sensible number of significant digits for reports.
#[must_use]
pub fn fmt_f64(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1000.0 || value.abs() < 0.001 {
        format!("{value:.3e}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_default_away_from_the_committed_baseline() {
        let (committed, out) = paths("BENCH_serve.json", None);
        assert_ne!(out, committed);
        assert!(committed.ends_with("BENCH_serve.json"));
        assert!(out.ends_with("target/bench-reports/BENCH_serve.json"));
        // Refreshing a baseline names it explicitly.
        let refresh = paths("BENCH_serve.json", Some(committed.into_os_string()));
        assert_eq!(refresh.1, refresh.0);
    }

    /// A committed report in the older hand-written style: spaces after
    /// colons, fixed decimals, a string holding JSON punctuation.
    const COMMITTED: &str = r#"{
  "version": 1,
  "generated_by": "an older writer",
  "profiles": {
    "full": {
      "parameters": {"tables":160, "note": "a \"quoted\" {brace},\n    }"},
      "results": [
        {"workload": "synthetic", "speedup": 1.59, "recall_at_k": 1.000},
        {"workload": "tfidf", "speedup": 0.92, "recall_at_k": 1.000}
      ]
    },
    "quick": {
      "parameters": {"tables":48},
      "results": [
        {"workload": "synthetic", "speedup": 1.54, "recall_at_k": 1.000}
      ]
    }
  }
}
"#;

    fn report(profile: Profile, committed: Option<&str>) -> BenchReport {
        let (committed_path, out) = paths("BENCH_test.json", None);
        BenchReport {
            committed: committed_path,
            out,
            generated_by: "bench",
            profile,
            baseline: committed.map(String::from),
        }
    }

    fn section(speedup: f64) -> Vec<(&'static str, Json)> {
        let row = |name: &str| {
            Json::Obj(vec![
                ("workload".into(), Json::str(name)),
                ("speedup".into(), fixed(speedup, 2)),
            ])
        };
        vec![
            (
                "parameters",
                Json::Obj(vec![("tables".into(), Json::u64(48))]),
            ),
            ("results", Json::Arr(vec![row("synthetic"), row("tfidf")])),
            ("empty", Json::Arr(Vec::new())),
            (
                "speedups",
                Json::Obj(vec![("tfidf".into(), fixed(speedup, 2))]),
            ),
        ]
    }

    #[test]
    fn a_written_report_keeps_the_other_profile_byte_identical() {
        let full = profile_text(COMMITTED, "full").unwrap();
        assert!(full.starts_with("{\n      \"parameters\"") && full.ends_with("]\n    }"));
        let written = report(Profile::Quick, Some(COMMITTED)).render(&section(1.6));
        assert_eq!(profile_text(&written, "full"), Some(full));
        let doc = Json::parse(&written).expect("a report is JSON");
        assert_eq!(
            doc.get("generated_by").and_then(Json::as_str),
            Some("bench")
        );
        // The written profile replaced the committed one, in file order.
        assert!(written.find("\"full\"").unwrap() < written.find("\"quick\"").unwrap());
        let quick = doc.get("profiles").unwrap().get("quick").unwrap();
        assert_eq!(
            quick.get("speedups").unwrap().to_string(),
            r#"{"tfidf":1.60}"#
        );
        assert_eq!(quick.get("results").unwrap().as_arr().unwrap().len(), 2);
        // Written over itself, a report is a fixed point: each profile's text
        // survives the other's rewrite.
        let refreshed = report(Profile::Quick, Some(&written)).render(&section(1.6));
        assert_eq!(refreshed, written);
        let both = report(Profile::Full, Some(&written)).render(&section(2.0));
        assert_eq!(
            profile_text(&both, "quick"),
            profile_text(&written, "quick")
        );
        // Nothing committed, or no profiles: only this run's profile.
        for committed in [None, Some("{\"version\": 1}")] {
            let alone = report(Profile::Full, committed).render(&section(1.6));
            let doc = Json::parse(&alone).unwrap();
            let profiles = doc.get("profiles").unwrap().as_obj().unwrap();
            assert_eq!(profiles.len(), 1);
            assert_eq!(profiles[0].0, "full");
        }
    }

    #[test]
    fn enforce_reports_vanished_and_low_rows_and_passes_a_row_at_its_floor() {
        let measured = |key: &[&str]| match key {
            ["synthetic"] => Some(0.75 * 1.59),
            _ => None,
        };
        let floors = report(Profile::Full, Some(COMMITTED)).relative_floors(
            &["workload"],
            "speedup",
            0.75,
            measured,
        );
        assert_eq!(floors.len(), 2);
        assert_eq!(floors[0].row, "synthetic speedup");
        assert_eq!(floors[0].measured, Some(floors[0].floor));
        assert_eq!(failures(&floors), ["tfidf speedup vanished"]);
        // No committed profile: no relative floors.
        let none = report(Profile::Quick, Some("{\"version\": 1}"));
        assert!(none
            .relative_floors(&["workload"], "speedup", 0.75, measured)
            .is_empty());

        let low = Floor {
            row: "estimate_dot/JL".into(),
            measured: Some(0.89),
            floor: 0.90,
        };
        let at = Floor {
            measured: Some(0.90),
            ..low.clone()
        };
        assert_eq!(
            failures(&[low, at]),
            ["estimate_dot/JL: 0.89 below its floor 0.90"]
        );
    }

    #[test]
    fn only_quick_equal_to_one_selects_the_quick_profile() {
        assert_eq!(Profile::from_var(Some("1")), Profile::Quick);
        assert_eq!(Profile::from_var(Some(" 1\n")), Profile::Quick);
        for value in [
            None,
            Some(""),
            Some("0"),
            Some("true"),
            Some("yes"),
            Some("11"),
        ] {
            assert_eq!(Profile::from_var(value), Profile::Full, "{value:?}");
        }
        assert_eq!(Profile::Quick.name(), "quick");
        assert_eq!(Profile::Full.name(), "full");
    }

    #[test]
    fn quantile_and_mean_handle_empty_and_single_samples() {
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(mean(&[]), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(quantile(&[7], q), 7);
        }
        assert_eq!(mean(&[7]), 7.0);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 0.5), 3);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 1.0), 5);
        assert_eq!(mean(&[1, 2, 3, 4]), 2.5);
    }

    #[test]
    fn the_timer_reports_every_arm_per_call() {
        let timer = Timer {
            reps: 3,
            round: Duration::from_micros(200),
        };
        let (mut fast, mut slow) = (0u64, 0u64);
        let [f, s] = timer.best_ns([&mut || fast += 1, &mut || {
            slow += 1;
            std::thread::sleep(Duration::from_micros(50));
        }]);
        assert!(f > 0.0 && f < s, "{f} {s}");
        assert!(s >= 50_000.0, "{s}");
        // Both arms made the same calls: the calibration rounds, then three
        // timed rounds of equal length.
        assert_eq!(fast, slow);
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(["method", "error"]);
        assert!(t.is_empty());
        t.push_row(["WMH", "0.01"]);
        t.push_row(["CountSketch", "0.5"]);
        assert_eq!(t.len(), 2);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("method"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns are aligned: "error" column starts at the same offset in every row.
        let offset = lines[0].find("error").unwrap();
        assert_eq!(&lines[2][offset..offset + 4], "0.01");
    }

    #[test]
    #[should_panic(expected = "row arity must match")]
    fn push_row_checks_arity() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn csv_escapes_special_characters() {
        let mut t = TextTable::new(["name", "note"]);
        t.push_row(["plain", "with, comma"]);
        t.push_row(["quoted", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with, comma\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
        assert!(csv.starts_with("name,note\n"));
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join(format!("ipsketch-report-test-{}", std::process::id()));
        let mut t = TextTable::new(["x"]);
        t.push_row(["1"]);
        let path = t.write_csv(&dir, "unit").unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "x\n1\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.12345), "0.1235");
        assert!(fmt_f64(12345.0).contains('e'));
        assert!(fmt_f64(0.00001).contains('e'));
    }
}
