//! Result containers and rendering: fixed-width text tables (what the
//! harness prints, mirroring the paper's tables) and JSON series for
//! mechanical comparison in EXPERIMENTS.md.
//!
//! JSON is emitted by a small hand-rolled serializer (the workspace builds
//! hermetically, with no external crates), producing the same tagged shape
//! `serde` with `#[serde(tag = "kind", rename_all = "snake_case")]` would.

/// Escape a string for inclusion in a JSON document (RFC 8259 §7).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an f64 as a JSON number (finite values only; non-finite values
/// become `null`, which JSON has no number for).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| format!("\"{}\"", json_escape(s))).collect();
    format!("[{}]", cells.join(","))
}

/// A table of results, one per paper table.
#[derive(Debug, Clone)]
pub struct Table {
    pub(crate) title: String,
    pub(crate) headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch in '{}'", self.title);
        self.rows.push(cells.to_vec());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>w$} | ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let sep: String = {
            let mut s = String::from("|");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('|');
            }
            s
        };
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A labelled (x, y) series, one per curve of a paper figure.
#[derive(Debug, Clone)]
pub struct Series {
    pub(crate) label: String,
    /// Axis names, e.g. ("N", "MB/sec").
    pub(crate) x_name: String,
    pub(crate) y_name: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(
        label: impl Into<String>,
        x_name: impl Into<String>,
        y_name: impl Into<String>,
    ) -> Series {
        Series {
            label: label.into(),
            x_name: x_name.into(),
            y_name: y_name.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Peak y value over the series.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|&(_, y)| y).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Render as a two-column listing under the label.
    pub fn render(&self) -> String {
        let mut out = format!("{}  [{} vs {}]\n", self.label, self.y_name, self.x_name);
        for &(x, y) in &self.points {
            out.push_str(&format!("  {x:>12.1}  {y:>14.2}\n"));
        }
        out
    }
}

/// A figure: several series plotted together.
#[derive(Debug, Clone)]
pub struct Figure {
    pub(crate) title: String,
    pub series: Vec<Series>,
}

impl Figure {
    pub fn new(title: impl Into<String>) -> Figure {
        Figure { title: title.into(), series: Vec::new() }
    }

    pub fn push(&mut self, s: Series) {
        self.series.push(s);
    }

    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.title);
        for s in &self.series {
            out.push_str(&s.render());
        }
        out
    }
}

/// Any experiment artifact the harness can emit.
#[derive(Debug, Clone)]
pub enum Artifact {
    Table(Table),
    Figure(Figure),
    /// A single headline number (e.g. RADABS Cray-equivalent Mflops).
    Scalar {
        title: String,
        value: f64,
        unit: String,
    },
    /// A pass/fail verdict with detail lines (PARANOIA, ELEFUNT accuracy).
    Verdict {
        title: String,
        passed: bool,
        details: Vec<String>,
    },
}

impl Artifact {
    pub fn render(&self) -> String {
        match self {
            Artifact::Table(t) => t.render(),
            Artifact::Figure(f) => f.render(),
            Artifact::Scalar { title, value, unit } => format!("{title}: {value:.1} {unit}\n"),
            Artifact::Verdict { title, passed, details } => {
                let mut out = format!("{title}: {}\n", if *passed { "PASSED" } else { "FAILED" });
                for d in details {
                    out.push_str(&format!("  {d}\n"));
                }
                out
            }
        }
    }

    /// Serialize as a tagged JSON object: `{"kind": "...", ...}`.
    pub fn to_json(&self) -> String {
        match self {
            Artifact::Table(t) => {
                let rows: Vec<String> = t.rows.iter().map(|r| json_str_array(r)).collect();
                format!(
                    "{{\"kind\":\"table\",\"title\":\"{}\",\"headers\":{},\"rows\":[{}]}}",
                    json_escape(&t.title),
                    json_str_array(&t.headers),
                    rows.join(",")
                )
            }
            Artifact::Figure(f) => {
                let series: Vec<String> = f
                    .series
                    .iter()
                    .map(|s| {
                        let pts: Vec<String> = s
                            .points
                            .iter()
                            .map(|&(x, y)| format!("[{},{}]", json_f64(x), json_f64(y)))
                            .collect();
                        format!(
                            "{{\"label\":\"{}\",\"x_name\":\"{}\",\"y_name\":\"{}\",\"points\":[{}]}}",
                            json_escape(&s.label),
                            json_escape(&s.x_name),
                            json_escape(&s.y_name),
                            pts.join(",")
                        )
                    })
                    .collect();
                format!(
                    "{{\"kind\":\"figure\",\"title\":\"{}\",\"series\":[{}]}}",
                    json_escape(&f.title),
                    series.join(",")
                )
            }
            Artifact::Scalar { title, value, unit } => format!(
                "{{\"kind\":\"scalar\",\"title\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
                json_escape(title),
                json_f64(*value),
                json_escape(unit)
            ),
            Artifact::Verdict { title, passed, details } => format!(
                "{{\"kind\":\"verdict\",\"title\":\"{}\",\"passed\":{},\"details\":{}}}",
                json_escape(title),
                passed,
                json_str_array(details)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Table X", &["CPUs", "Time"]);
        t.row(&["1".into(), "1861.25".into()]);
        t.row(&["32".into(), "226.62".into()]);
        let r = t.render();
        assert!(r.contains("Table X"));
        assert!(r.contains("1861.25"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5); // title + header + sep + 2 rows
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn series_peak() {
        let mut s = Series::new("COPY", "N", "MB/sec");
        s.push(1.0, 100.0);
        s.push(1000.0, 9000.0);
        s.push(1e6, 7500.0);
        assert_eq!(s.peak(), 9000.0);
    }

    #[test]
    fn artifact_json_shape() {
        let a = Artifact::Scalar {
            title: "RADABS".into(),
            value: 865.9,
            unit: "Cray-equivalent Mflops".into(),
        };
        let j = a.to_json();
        assert_eq!(
            j,
            "{\"kind\":\"scalar\",\"title\":\"RADABS\",\"value\":865.9,\"unit\":\"Cray-equivalent Mflops\"}"
        );
    }

    #[test]
    fn json_escaping_and_nonfinite() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
        let mut t = Table::new("quote \" here", &["h"]);
        t.row(&["cell\n".into()]);
        let j = Artifact::Table(t).to_json();
        assert!(j.contains("quote \\\" here"));
        assert!(j.contains("cell\\n"));
    }

    #[test]
    fn verdict_render_shows_pass() {
        let a = Artifact::Verdict {
            title: "PARANOIA".into(),
            passed: true,
            details: vec!["no flaws".into()],
        };
        let r = a.render();
        assert!(r.contains("PASSED"));
        assert!(r.contains("no flaws"));
    }

    #[test]
    fn figure_renders_all_series() {
        let mut f = Figure::new("Figure 5");
        f.push(Series::new("COPY", "N", "MB/sec"));
        f.push(Series::new("IA", "N", "MB/sec"));
        let r = f.render();
        assert!(r.contains("COPY") && r.contains("IA"));
    }
}
