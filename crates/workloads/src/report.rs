//! Result tables: the series each figure in the paper plots, printed as
//! aligned text and serialisable to JSON for EXPERIMENTS.md tooling.

use imca_metrics::json::Json;

/// One experiment's output: an x-axis and one y-series per system.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Title, e.g. "Fig 5: stat time vs clients".
    pub title: String,
    /// X-axis label, e.g. "clients".
    pub xlabel: String,
    /// Y-axis label, e.g. "seconds".
    pub ylabel: String,
    /// Series names (the paper's legends).
    pub series: Vec<String>,
    /// Rows: x value plus one y per series (`None` = not measured).
    pub rows: Vec<Row>,
}

/// One row of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// X value.
    pub x: f64,
    /// One value per series.
    pub y: Vec<Option<f64>>,
}

impl Table {
    /// An empty table with the given axes and series legends.
    pub fn new(
        title: impl Into<String>,
        xlabel: impl Into<String>,
        ylabel: impl Into<String>,
        series: Vec<String>,
    ) -> Table {
        Table {
            title: title.into(),
            xlabel: xlabel.into(),
            ylabel: ylabel.into(),
            series,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, x: f64, y: Vec<Option<f64>>) {
        assert_eq!(y.len(), self.series.len(), "row width != series count");
        self.rows.push(Row { x, y });
    }

    /// Render as an aligned text table (what the bench binaries print).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&format!(
            "({} vs {}, values in {})\n",
            self.xlabel, "series", self.ylabel
        ));
        let mut header = vec![self.xlabel.clone()];
        header.extend(self.series.iter().cloned());
        let mut cells: Vec<Vec<String>> = vec![header];
        for row in &self.rows {
            let mut line = vec![format_x(row.x)];
            for y in &row.y {
                line.push(match y {
                    Some(v) => format_y(*v),
                    None => "-".to_string(),
                });
            }
            cells.push(line);
        }
        let widths: Vec<usize> = (0..cells[0].len())
            .map(|c| cells.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        for row in &cells {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}", w = w))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Serialise to pretty JSON (same document shape the serde-derived
    /// version produced, so existing `results/*.json` stay readable).
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let y =
                    r.y.iter()
                        .map(|v| match v {
                            Some(v) => Json::Float(*v),
                            None => Json::Null,
                        })
                        .collect();
                Json::Obj(vec![
                    ("x".into(), Json::Float(r.x)),
                    ("y".into(), Json::Arr(y)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("title".into(), Json::Str(self.title.clone())),
            ("xlabel".into(), Json::Str(self.xlabel.clone())),
            ("ylabel".into(), Json::Str(self.ylabel.clone())),
            (
                "series".into(),
                Json::Arr(self.series.iter().cloned().map(Json::Str).collect()),
            ),
            ("rows".into(), Json::Arr(rows)),
        ])
        .render_pretty()
    }
}

fn format_x(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

fn format_y(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Convenience for byte sizes on an x axis ("1", "2", ... "1K", "64K").
pub fn human_bytes(n: u64) -> String {
    if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{}M", n >> 20)
    } else if n >= 1 << 10 && n.is_multiple_of(1 << 10) {
        format!("{}K", n >> 10)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "Fig X",
            "clients",
            "seconds",
            vec!["NoCache".into(), "MCD (1)".into()],
        );
        t.push_row(1.0, vec![Some(10.0), Some(12.0)]);
        t.push_row(64.0, vec![Some(500.0), None]);
        t
    }

    #[test]
    fn render_is_aligned_and_complete() {
        let s = sample().render();
        assert!(s.contains("Fig X"));
        assert!(s.contains("NoCache"));
        assert!(s.contains("500"));
        assert!(s.contains('-'), "missing-value marker absent");
        // Every data row has x + one value per series (the header is
        // excluded: legends like "MCD (1)" contain spaces).
        let lines: Vec<&str> = s.lines().skip(3).collect();
        for l in &lines {
            assert_eq!(l.split_whitespace().count(), 3, "bad row: {l:?}");
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = sample();
        t.push_row(2.0, vec![Some(1.0)]);
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(1), "1");
        assert_eq!(human_bytes(2048), "2K");
        assert_eq!(human_bytes(1 << 20), "1M");
        assert_eq!(human_bytes(3000), "3000");
    }
}
