//! Shared plumbing for the benchmark harness that regenerates every table
//! and figure of the paper (see `DESIGN.md` Section 5 for the experiment
//! index and `EXPERIMENTS.md` for recorded results).
//!
//! Each `benches/*.rs` target is a plain `harness = false` binary that
//! prints one experiment's table(s) to stdout; `cargo bench` therefore
//! regenerates the entire evaluation. The `micro` target uses Criterion
//! for wall-clock micro-benchmarks.

use std::fmt::Display;

/// A printable results table with Markdown-style formatting.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringifying each cell).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Prints the table as aligned Markdown.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n## {}\n", self.title);
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
            }
            s
        };
        println!("{}", line(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        println!("{sep}");
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

/// Formats a float to two decimals (table cell helper).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// The canonical experiment internet at a given approximate scale.
pub fn internet(approx_ads: usize, seed: u64) -> adroute_topology::Topology {
    adroute_topology::HierarchyConfig::e_series(approx_ads, seed).generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panicking() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(&[&1, &"xyz"]);
        t.row(&[&22, &"q"]);
        t.print();
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.row(&[&1, &2]);
    }

    #[test]
    fn internet_scales() {
        assert!(internet(100, 1).num_ads() >= 49);
    }
}
