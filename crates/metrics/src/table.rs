use std::fmt;

/// A paper-style ASCII table: a title, a header row, and labelled rows.
///
/// The experiment binaries print their results with this type so the
/// output lines up with the paper's tables (e.g. Table 3's
/// "steps to build the DAG" per transmission range).
///
/// # Examples
///
/// ```
/// use mwn_metrics::Table;
///
/// let mut t = Table::new("Table 3: steps to build the DAG");
/// t.set_headers(["R", "0.05", "0.1"]);
/// t.add_row("Grid", vec!["2.20".into(), "2.0".into()]);
/// let s = t.to_string();
/// assert!(s.contains("Grid"));
/// assert!(s.contains("2.20"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Creates an empty table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            headers: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the header row (first cell labels the row-name column).
    pub fn set_headers<I, S>(&mut self, headers: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a labelled row of cells.
    pub fn add_row(&mut self, label: impl Into<String>, cells: Vec<String>) -> &mut Self {
        self.rows.push((label.into(), cells));
        self
    }

    /// Convenience: appends a row of numeric cells, formatted with
    /// `decimals` fraction digits.
    pub fn add_numeric_row(
        &mut self,
        label: impl Into<String>,
        values: &[f64],
        decimals: usize,
    ) -> &mut Self {
        let cells = values.iter().map(|v| format!("{v:.decimals$}")).collect();
        self.add_row(label, cells)
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The cell at `(row, col)` (not counting the label column), if any.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row)?.1.get(col).map(String::as_str)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths: max of header and every cell in that column.
        let cols = self.headers.len().max(
            self.rows
                .iter()
                .map(|(_, r)| r.len() + 1)
                .max()
                .unwrap_or(0),
        );
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for (label, cells) in &self.rows {
            widths[0] = widths[0].max(label.chars().count());
            for (i, c) in cells.iter().enumerate() {
                if i + 1 < cols {
                    widths[i + 1] = widths[i + 1].max(c.chars().count());
                }
            }
        }
        writeln!(f, "{}", self.title)?;
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "=".repeat(self.title.chars().count().max(total)))?;
        if !self.headers.is_empty() {
            let mut line = String::new();
            for (i, h) in self.headers.iter().enumerate() {
                if i > 0 {
                    line.push_str("   ");
                }
                line.push_str(&format!("{h:<width$}", width = widths[i]));
            }
            writeln!(f, "{}", line.trim_end())?;
            writeln!(f, "{}", "-".repeat(total))?;
        }
        for (label, cells) in &self.rows {
            let mut line = format!("{label:<width$}", width = widths[0]);
            for (i, c) in cells.iter().enumerate() {
                line.push_str("   ");
                let w = widths.get(i + 1).copied().unwrap_or(0);
                line.push_str(&format!("{c:<w$}"));
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_headers_rows() {
        let mut t = Table::new("T");
        t.set_headers(["item", "x", "y"]);
        t.add_row("row1", vec!["7".into(), "8".into()]);
        t.add_row("longer-row", vec!["3".into(), "4".into()]);
        let s = t.to_string();
        assert!(s.starts_with("T\n"));
        assert!(s.contains("longer-row"));
        // columns align: the "x" column starts at the same offset everywhere
        let lines: Vec<&str> = s.lines().collect();
        let header_pos = lines[2].find('x').unwrap();
        let row_pos = lines[4].find('7').unwrap();
        assert_eq!(header_pos, row_pos);
    }

    #[test]
    fn numeric_rows_format_decimals() {
        let mut t = Table::new("nums");
        t.add_numeric_row("r", &[1.23456, 2.0], 2);
        assert_eq!(t.cell(0, 0), Some("1.23"));
        assert_eq!(t.cell(0, 1), Some("2.00"));
    }

    #[test]
    fn cell_out_of_range_is_none() {
        let t = Table::new("empty");
        assert_eq!(t.cell(0, 0), None);
    }

    #[test]
    fn display_without_headers() {
        let mut t = Table::new("no headers");
        t.add_row("x", vec!["y".into()]);
        let s = t.to_string();
        assert!(s.contains('x'));
        assert!(s.contains('y'));
    }
}
