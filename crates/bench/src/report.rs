//! Tabular report rendering for the experiment harness.

use nsql_sim::measure::json_str;
use std::fmt::Write as _;

/// A titled table of experiment results.
pub struct Table {
    /// Title line (experiment id + description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of rendered cells.
    pub rows: Vec<Vec<String>>,
    /// Free-text notes printed under the table.
    pub notes: Vec<String>,
}

/// One column of a measured table: its header and how a row's cell is
/// rendered. Declared together, so a table cannot have a cell without a
/// header or a row shorter than its neighbours.
pub type Col<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

impl Table {
    /// A table with one row per element of `rows` and one column per
    /// element of `cols`.
    pub fn measured<R>(title: impl Into<String>, rows: &[R], cols: &[Col<'_, R>]) -> Table {
        Table {
            title: title.into(),
            headers: cols.iter().map(|(header, _)| header.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| cols.iter().map(|(_, cell)| cell(r)).collect())
                .collect(),
            notes: Vec::new(),
        }
    }

    /// The cell under `header` in the first row whose label (its first
    /// cell) contains `row`.
    pub fn cell(&self, row: &str, header: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == header)?;
        let r = self
            .rows
            .iter()
            .find(|r| r.first().is_some_and(|label| label.contains(row)))?;
        Some(&r[col])
    }

    /// Append a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Render as a markdown-style table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n### {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(line, " {:<w$} |", c, w = widths[i]);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n> {n}");
        }
        out
    }

    /// Render as one JSON object: `{"id", "title", "columns", "rows",
    /// "notes"}`, where `rows` maps each column header to the rendered
    /// cell. The `BENCH_results.json` record format.
    pub fn to_json(&self, id: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"id\": {}, \"title\": {}, \"columns\": [",
            json_str(id),
            json_str(&self.title)
        );
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "{}{}", if i > 0 { ", " } else { "" }, json_str(h));
        }
        let _ = write!(out, "], \"rows\": [");
        for (ri, r) in self.rows.iter().enumerate() {
            let _ = write!(out, "{}{{", if ri > 0 { ", " } else { "" });
            for (i, (h, c)) in self.headers.iter().zip(r).enumerate() {
                let _ = write!(
                    out,
                    "{}{}: {}",
                    if i > 0 { ", " } else { "" },
                    json_str(h),
                    json_str(c)
                );
            }
            let _ = write!(out, "}}");
        }
        let _ = write!(out, "], \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            let _ = write!(out, "{}{}", if i > 0 { ", " } else { "" }, json_str(n));
        }
        let _ = write!(out, "]}}");
        out
    }
}

/// Format a ratio like `3.2x`.
pub fn ratio(num: u64, den: u64) -> String {
    if den == 0 {
        return "-".into();
    }
    format!("{:.1}x", num as f64 / den as f64)
}

/// Format microseconds as milliseconds.
pub fn ms(us: u64) -> String {
    format!("{:.2} ms", us as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        let mut t = Table::measured(
            "E0 — demo",
            &[("alpha", 1u64), ("b", 123_456)],
            &[("name", &|r| r.0.into()), ("value", &|r| r.1.to_string())],
        );
        t.note("a note");
        t
    }

    #[test]
    fn renders_aligned_markdown() {
        let s = demo().render();
        assert!(s.contains("### E0 — demo"));
        assert!(s.contains("| alpha | 1      |"));
        assert!(s.contains("> a note"));
    }

    #[test]
    fn cells_are_found_by_row_label_and_header() {
        let t = demo();
        assert_eq!(t.cell("alpha", "value"), Some("1"));
        assert_eq!(t.cell("b", "value"), Some("123456"));
        assert_eq!(t.cell("b", "no such column"), None);
        assert_eq!(t.cell("no such row", "value"), None);
    }

    #[test]
    fn formats() {
        assert_eq!(ratio(6, 2), "3.0x");
        assert_eq!(ratio(1, 0), "-");
        assert_eq!(ms(1500), "1.50 ms");
    }

    /// `Table::to_json` escapes through `nsql_sim`'s `json_str`, the one
    /// copy; this is the escaping the `BENCH_results.json` records rely on.
    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("µs ≈ x"), "\"µs ≈ x\"");
    }

    #[test]
    fn json_record_shape() {
        let j = demo().to_json("e0");
        assert!(j.starts_with("{\"id\": \"e0\""));
        assert!(j.contains("\"columns\": [\"name\", \"value\"]"));
        assert!(j.contains("{\"name\": \"alpha\", \"value\": \"1\"}"));
        assert!(j.contains("\"notes\": [\"a note\"]"));
    }
}
