//! Plain-text and CSV report formatting.
//!
//! The experiment binaries print the same rows/series the paper's plots show; this
//! module provides a minimal aligned-table formatter and a CSV writer (under
//! `target/experiments/` by default) so results can be diffed and re-plotted, and
//! [`BenchFiles`], where the JSON-reporting benches read and write.

use std::ffi::OsString;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The two files of a bench that reports JSON against a committed baseline
/// (`BENCH_kernels.json`, `BENCH_cascade.json`, `BENCH_serve.json`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchFiles {
    /// The committed file at the repository root: the baseline a gated run
    /// enforces against, and the report a run merges its own profile into.
    pub committed: PathBuf,
    /// Where the run writes its report: the path in `IPSKETCH_BENCH_OUT` when
    /// that is set, else `target/bench-reports/<file>`.  A run never rewrites
    /// the committed baseline unless `IPSKETCH_BENCH_OUT` names it.
    pub out: PathBuf,
}

impl BenchFiles {
    /// The files of the committed baseline named `file`, e.g. `BENCH_serve.json`.
    #[must_use]
    pub fn new(file: &str) -> BenchFiles {
        BenchFiles::resolve(file, std::env::var_os("IPSKETCH_BENCH_OUT"))
    }

    fn resolve(file: &str, out: Option<OsString>) -> BenchFiles {
        // The bench crate lives at `crates/bench` under the repository root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("the bench crate sits two levels below the repository root");
        BenchFiles {
            committed: root.join(file),
            out: out.map_or_else(
                || root.join("target").join("bench-reports").join(file),
                PathBuf::from,
            ),
        }
    }

    /// Writes `report` to [`out`](Self::out), creating its directory if
    /// needed, and returns the path written.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the directory or writing the file.
    pub fn write(&self, report: &str) -> std::io::Result<PathBuf> {
        if let Some(dir) = self.out.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&self.out, report)?;
        Ok(self.out.clone())
    }
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
        let files = BenchFiles::resolve("BENCH_serve.json", None);
        assert_ne!(files.out, files.committed);
        assert!(files.committed.ends_with("BENCH_serve.json"));
        assert!(files.out.ends_with("target/bench-reports/BENCH_serve.json"));
        // Refreshing a baseline names it explicitly.
        let refresh = BenchFiles::resolve(
            "BENCH_serve.json",
            Some(files.committed.clone().into_os_string()),
        );
        assert_eq!(refresh.out, refresh.committed);
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
