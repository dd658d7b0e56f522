//! Tabular experiment output.
//!
//! Every experiment produces a [`Table`]: a title, a caption tying it back to the
//! paper's figure, a header and rows of strings.  Tables render either as aligned
//! plain text (for the terminal) or as CSV (for plotting).

use serde::{Deserialize, Serialize};

/// A result table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    caption: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        title: impl Into<String>,
        caption: impl Into<String>,
        columns: Vec<impl Into<String>>,
    ) -> Self {
        Table {
            title: title.into(),
            caption: caption.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title (e.g. `"Figure 7.3"`).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the row arity differs from the header.
    pub(crate) fn push_row(&mut self, row: Vec<impl Into<String>>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.columns.len(), "row arity must match the header");
        self.rows.push(row);
    }

    /// Renders as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n{}\n", self.title, self.caption));
        let render = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&render(&self.columns, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let escape = |s: &String| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.columns.iter().map(escape).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(escape).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
impl Table {
    /// Column headers.
    pub(crate) fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Convenience for numeric rows.
    fn push_values(&mut self, row: Vec<f64>) {
        self.push_row(row.into_iter().map(format_number).collect::<Vec<String>>());
    }
}

/// Formats a number compactly: integers without decimals, small fractions with
/// four significant places.
#[cfg(test)]
fn format_number(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render_text() {
        let mut t = Table::new("Figure X", "demo", vec!["a", "b"]);
        t.push_row(vec!["1", "hello"]);
        t.push_values(vec![0.5, 1234.0]);
        let text = t.to_text();
        assert!(text.contains("Figure X"));
        assert!(text.contains("hello"));
        assert!(text.contains("0.5000"));
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("t", "c", vec!["x", "y"]);
        t.push_row(vec!["a,b", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn mismatched_rows_panic() {
        let mut t = Table::new("t", "c", vec!["x", "y"]);
        t.push_row(vec!["only one"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(0.123456), "0.1235");
        assert_eq!(format_number(12345.678), "12345.7");
    }
}
