//! A small column-aligned text table builder.
//!
//! The `lab` CLI, the examples and EXPERIMENTS.md all print tables of
//! "shape / construction / predicted / measured" rows. This builder keeps the
//! formatting in one place and offers three output styles: aligned plain
//! text (for terminals), GitHub-flavored Markdown (for the documentation),
//! and CSV (for further processing).

use core::fmt;

/// Horizontal alignment of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Alignment {
    /// Left-aligned (default; used for names and shapes).
    #[default]
    Left,
    /// Right-aligned (used for numeric columns).
    Right,
}

/// A table: a header, per-column alignments, and rows of cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    alignments: Vec<Alignment>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers, all left-aligned.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        let alignments = vec![Alignment::Left; header.len()];
        Table {
            header,
            alignments,
            rows: Vec::new(),
        }
    }

    /// Sets the per-column alignments. Missing entries stay left-aligned,
    /// extra entries are ignored.
    pub fn with_alignments(mut self, alignments: Vec<Alignment>) -> Table {
        for (i, alignment) in alignments.into_iter().enumerate() {
            if i < self.alignments.len() {
                self.alignments[i] = alignment;
            }
        }
        self
    }

    /// Number of columns.
    pub fn columns(&self) -> usize {
        self.header.len()
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated to the header width.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }

    fn pad(cell: &str, width: usize, alignment: Alignment) -> String {
        let length = cell.chars().count();
        let padding = " ".repeat(width.saturating_sub(length));
        match alignment {
            Alignment::Left => format!("{cell}{padding}"),
            Alignment::Right => format!("{padding}{cell}"),
        }
    }

    /// Renders the table as aligned plain text with a separator under the
    /// header.
    pub fn to_text(&self) -> String {
        let widths = self.column_widths();
        let mut out = String::new();
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, cell)| Table::pad(cell, widths[i], self.alignments[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&render_row(&self.header));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as GitHub-flavored Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        let separators: Vec<&str> = self
            .alignments
            .iter()
            .map(|a| match a {
                Alignment::Left => "---",
                Alignment::Right => "---:",
            })
            .collect();
        out.push_str(&format!("| {} |\n", separators.join(" | ")));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders the table as CSV (quoting cells that contain commas, quotes or
    /// newlines).
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let alignments = vec![Alignment::Left, Alignment::Left, Alignment::Right];
        let mut table = Table::new(vec!["guest", "host", "dilation"]).with_alignments(alignments);
        table.push_row(vec!["ring(24)", "(4,2,3)-mesh", "1"]);
        table.push_row(vec!["(8,8)-mesh", "line(64)", "8"]);
        table
    }

    #[test]
    fn text_output_is_aligned() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("guest"));
        assert!(lines[1].chars().all(|c| c == '-' || c == ' '));
        // Right-aligned numeric column: the single digits line up with the
        // right edge of the "dilation" header.
        let header_end = lines[0].len();
        assert_eq!(lines[2].len(), header_end);
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].ends_with('8'));
    }

    #[test]
    fn markdown_output_has_separator_row() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| guest | host | dilation |");
        assert_eq!(lines[1], "| --- | --- | ---: |");
        assert!(lines[2].contains("ring(24)"));
    }

    #[test]
    fn csv_output_escapes_special_cells() {
        let mut table = Table::new(vec!["name", "value"]);
        table.push_row(vec!["plain", "1"]);
        table.push_row(vec!["with, comma", "2"]);
        table.push_row(vec!["with \"quote\"", "3"]);
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with, comma\",2");
        assert_eq!(lines[3], "\"with \"\"quote\"\"\",3");
    }

    #[test]
    fn short_rows_are_padded_and_long_rows_truncated() {
        let mut table = Table::new(vec!["a", "b"]);
        table.push_row(vec!["only one"]);
        table.push_row(vec!["x", "y", "ignored"]);
        assert_eq!(table.len(), 2);
        let csv = table.to_csv();
        assert!(csv.contains("only one,"));
        assert!(!csv.contains("ignored"));
    }

    #[test]
    fn display_matches_to_text() {
        let table = sample();
        assert_eq!(format!("{table}"), table.to_text());
        assert!(!table.is_empty());
        assert_eq!(table.columns(), 3);
    }

    #[test]
    fn unicode_cells_align_by_character_count() {
        let mut table = Table::new(vec!["construction", "dilation"]);
        table.push_row(vec!["π ∘ H_V", "1"]);
        table.push_row(vec!["U_V ∘ T_L ∘ π", "4"]);
        let text = table.to_text();
        let lines: Vec<&str> = text.lines().collect();
        // Both data lines end with the numeric cell in the same column.
        assert_eq!(lines[2].chars().count(), lines[3].chars().count(),);
    }
}
