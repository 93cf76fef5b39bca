//! A minimal fixed-width text-table printer for experiment output.

/// A simple text table: a header row plus data rows, rendered with aligned
/// columns — enough to reproduce the paper's tables on stdout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row (missing cells are rendered empty, extra cells are
    /// kept).
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
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

    /// Renders the table to a string.
    #[must_use]
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!(" {cell:width$} |"));
            }
            line
        };
        let separator = {
            let mut line = String::from("+");
            for width in &widths {
                line.push_str(&"-".repeat(width + 2));
                line.push('+');
            }
            line
        };
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&separator);
        out.push('\n');
        out.push_str(&render_row(&self.header));
        out.push('\n');
        out.push_str(&separator);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out.push_str(&separator);
        out.push('\n');
        out
    }

    /// Renders and prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["name", "value"]);
        t.add_row(vec!["short".into(), "1".into()]);
        t.add_row(vec!["a-much-longer-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("| name"));
        assert!(s.contains("a-much-longer-name"));
        // All body lines have the same width.
        let widths: Vec<usize> = s.lines().skip(1).map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = TextTable::new("Ragged", &["a", "b", "c"]);
        t.add_row(vec!["1".into()]);
        t.add_row(vec!["1".into(), "2".into(), "3".into(), "4".into()]);
        let s = t.render();
        assert!(s.lines().count() >= 6);
    }
}
