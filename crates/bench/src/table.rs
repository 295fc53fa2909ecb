//! Minimal text-table formatting for experiment output.

use std::fmt;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use qtenon_bench::{experiments, TextTable};
///
/// let t: TextTable = experiments::table4();
/// let s = t.to_string();
/// assert!(s.contains("Rocket @ 1 GHz"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub(crate) fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends one row (padded/truncated to the header width).
    pub(crate) fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TextTable {
        /// Number of data rows.
        pub(crate) fn len(&self) -> usize {
            self.rows.len()
        }

        /// Whether the table has no data rows.
        fn is_empty(&self) -> bool {
            self.rows.is_empty()
        }

        /// The rows (for assertions in tests).
        pub(crate) fn rows(&self) -> &[Vec<String>] {
            &self.rows
        }
    }

    #[test]
    fn aligns_columns() {
        let mut t = TextTable::new(vec!["a".into(), "long-header".into()]);
        t.row(vec!["wide-cell".into(), "x".into()]);
        let out = t.to_string();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        // Both columns padded to max width.
        assert!(lines[0].starts_with("a        "));
        assert!(lines[2].starts_with("wide-cell"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["1".into()]);
        assert_eq!(t.rows()[0].len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }
}
