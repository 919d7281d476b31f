//! Plain-text tables and series for regenerating the experiment artifacts.
//!
//! Every table and figure in `EXPERIMENTS.md` is produced through these
//! types by the `experiments` binary and the benches, so the rendering is
//! consistent and snapshot-testable.

/// A rectangular text table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row must match the header length; enforced at
    /// render time by padding/truncation-free assertion).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Panics in debug builds if the arity mismatches —
    /// tables are built by trusted experiment code.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: format a float with 3 decimals.
    pub fn f(x: f64) -> String {
        format!("{x:.3}")
    }

    /// Render as an aligned plain-text table via the shared
    /// [`TextTable`](humnet_telemetry::TextTable) renderer, so experiment
    /// tables, run reports, and metrics snapshots share one format.
    pub fn render(&self) -> String {
        let mut t = humnet_telemetry::TextTable::new(&self.headers).with_heading(&self.title);
        for row in &self.rows {
            t.row(row.clone());
        }
        t.render()
    }
}

/// A named (x, y) series, rendered as a two-column table plus an ASCII
/// sparkline — the text stand-in for a paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series title.
    pub title: String,
    /// Axis labels `(x, y)`.
    pub axes: (String, String),
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create a series.
    pub fn new(title: impl Into<String>, x: &str, y: &str) -> Self {
        Series {
            title: title.into(),
            axes: (x.to_owned(), y.to_owned()),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) -> &mut Self {
        self.points.push((x, y));
        self
    }

    /// ASCII sparkline over the y values (8 levels).
    pub fn sparkline(&self) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.points.is_empty() {
            return String::new();
        }
        let ys: Vec<f64> = self.points.iter().map(|&(_, y)| y).collect();
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        ys.iter()
            .map(|&y| {
                if hi > lo {
                    let t = (y - lo) / (hi - lo);
                    LEVELS[((t * 7.0).round() as usize).min(7)]
                } else {
                    LEVELS[3]
                }
            })
            .collect()
    }

    /// Render as title, sparkline, and aligned point table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        out.push_str(&format!("    {}\n\n", self.sparkline()));
        out.push_str(&format!("| {} | {} |\n", self.axes.0, self.axes.1));
        out.push_str("|---|---|\n");
        for &(x, y) in &self.points {
            out.push_str(&format!("| {x:.3} | {y:.4} |\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["short".into(), Table::f(1.0)]);
        t.row(&["much-longer-name".into(), Table::f(0.25)]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| name             | value |"));
        assert!(s.contains("| much-longer-name | 0.250 |"));
        // All data lines are the same width.
        let widths: Vec<usize> = s
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(str::len)
            .collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    fn float_format() {
        assert_eq!(Table::f(0.123456), "0.123");
        assert_eq!(Table::f(2.0), "2.000");
    }

    #[test]
    fn series_sparkline_shape() {
        let mut s = Series::new("ramp", "x", "y");
        for i in 0..8 {
            s.push(i as f64, i as f64);
        }
        let spark = s.sparkline();
        assert_eq!(spark.chars().count(), 8);
        assert!(spark.starts_with('▁'));
        assert!(spark.ends_with('█'));
    }

    #[test]
    fn series_constant_and_empty() {
        let mut s = Series::new("flat", "x", "y");
        s.push(0.0, 5.0).push(1.0, 5.0);
        assert_eq!(s.sparkline().chars().count(), 2);
        let empty = Series::new("none", "x", "y");
        assert_eq!(empty.sparkline(), "");
    }

    #[test]
    fn series_render_contains_points() {
        let mut s = Series::new("demo", "enforcement", "share");
        s.push(0.5, 0.75);
        let r = s.render();
        assert!(r.contains("| 0.500 | 0.7500 |"));
        assert!(r.contains("| enforcement | share |"));
    }
}
