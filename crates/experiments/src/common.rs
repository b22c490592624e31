//! Shared experiment plumbing: plain-text rendering.

use std::fmt;

/// A simple aligned text table (the experiment reports are plain text, one
/// table per paper artifact).
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        TextTable {
            title: title.into(),
            ..Default::default()
        }
    }

    /// Set the header row.
    pub fn header(mut self, cells: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.header = cells.into_iter().map(Into::into).collect();
        self
    }

    /// Append a data row.
    pub fn row(&mut self, cells: impl IntoIterator<Item = impl Into<String>>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .rows
            .iter()
            .chain(std::iter::once(&self.header))
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "  {}", cells.join("  "))
        };
        if !self.header.is_empty() {
            fmt_row(f, &self.header)?;
            writeln!(
                f,
                "  {}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
            )?;
        }
        for row in &self.rows {
            fmt_row(f, row)?;
        }
        Ok(())
    }
}

/// Format bits/s as Mbps with one decimal.
pub fn mbps(bps: f64) -> String {
    format!("{:.1}", bps / 1e6)
}

/// Format a 0..1 fraction with two decimals.
pub fn frac(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new("Demo").header(["scheme", "goodput"]);
        t.row(["XMP-2", "644.3"]);
        t.row(["DCTCP", "513.6"]);
        let s = t.to_string();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("XMP-2"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Columns align: both data lines have the same width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mbps(644_300_000.0), "644.3");
        assert_eq!(frac(0.5), "0.50");
    }
}
