//! Plain-text table rendering for the experiment binaries (the harness
//! prints the same rows the paper's tables/figures report).

use core::fmt::Write as _;

/// A simple left-padded ASCII table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders to a string with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let sep = if i + 1 == cols { "\n" } else { "  " };
                let _ = write!(out, "{cell:>w$}{sep}", w = widths[i]);
            }
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Formats a float with 3 decimal places (helper for table rows).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal place.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a ratio as a signed percentage ("+43.0%").
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["algo", "throughput"]);
        assert!(t.is_empty());
        t.row(["footprint", "0.43"]);
        t.row(["dor", "0.3"]);
        assert_eq!(t.len(), 2);
        let s = t.render();
        assert!(s.contains("algo"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width (right-aligned columns).
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn numeric_formatters() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f1(12.34), "12.3");
        assert_eq!(pct(0.43), "+43.0%");
        assert_eq!(pct(-0.015), "-1.5%");
    }
}
