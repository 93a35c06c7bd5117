//! Table rendering and CSV output for experiment results.

use std::fmt::Write as _;
use std::path::Path;

/// A result table: one per reproduced figure.
///
/// # Examples
///
/// ```
/// use pds_bench::report::Table;
///
/// let t = Table {
///     title: "Fig. X".into(),
///     columns: vec!["n".into(), "recall".into()],
///     rows: vec![vec!["1".into(), "100.0%".into()]],
/// };
/// assert!(t.render().contains("Fig. X"));
/// assert!(t.render().contains("100.0%"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure title, e.g. "Fig. 6 — impact of metadata amount".
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (pre-formatted cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub(crate) fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(cells);
    }

    /// Renders an aligned console table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.columns, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (cells are simple numbers/labels here).
    #[must_use]
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the CSV into `dir/<slug>.csv`, creating the directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, dir: &Path, slug: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{slug}.csv")), self.to_csv())
    }
}

/// Formats a float with 2 decimals (latency seconds, MB, recall).
#[must_use]
pub(crate) fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a recall as a percentage with 1 decimal.
#[must_use]
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Fig. X", &["a", "metric"]);
        t.push_row(vec!["1".into(), "2.50".into()]);
        t.push_row(vec!["100".into(), "3.75".into()]);
        let s = t.render();
        assert!(s.contains("## Fig. X"));
        assert!(s.contains("  1"));
        assert!(s.contains("100"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Table::new("T", &["x", "y"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("T", &["x", "y"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.9876), "98.8%");
    }
}
