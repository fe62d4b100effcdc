//! Table rendering and result persistence.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use minijson::ToJson;

/// A simple fixed-width text table matching the paper's exhibits.
#[derive(Debug, Default, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<S: AsRef<str>>(title: &str, header: &[S]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders to a string.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(out, "{:<w$}", c, w = widths[i]);
                } else {
                    let _ = write!(out, "  {:>w$}", c, w = widths[i]);
                }
            }
            let _ = writeln!(out);
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Serializes `value` as pretty JSON to `path`, creating parent dirs.
pub fn dump_json<T: ToJson>(path: &str, value: &T) {
    let p = Path::new(path);
    if let Some(dir) = p.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut f = std::fs::File::create(p).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    let s = value.to_json().pretty();
    f.write_all(s.as_bytes()).expect("write json");
    eprintln!("[json] wrote {path}");
}

/// Renders the steal-graph summary computed from a run trace: the top
/// thief→victim edges, the failed-steal ratio, and the back-off ratio
/// the paper claims stays "considerably less than 1%" (§III-A).
pub fn steal_summary_table(analysis: &wool_trace::Analysis) -> Table {
    let totals = &analysis.totals;
    let mut t = Table::new("Steal graph (from trace)", &["edge", "steals", "share"]);
    let total = totals.total_steals().max(1) as f64;
    for e in analysis.steal_graph.iter().take(10) {
        t.row(vec![
            format!("w{} <- w{}", e.thief, e.victim),
            e.count.to_string(),
            format!("{:.1}%", e.count as f64 / total * 100.0),
        ]);
    }
    t.row(vec![
        "total steals".into(),
        totals.total_steals().to_string(),
        String::new(),
    ]);
    t.row(vec![
        "failed-steal ratio".into(),
        fmt_sig(totals.failed_ratio() * 100.0) + "%",
        String::new(),
    ]);
    t.row(vec![
        "back-off ratio".into(),
        fmt_sig(totals.backoff_ratio() * 100.0) + "%",
        "paper: <1%".into(),
    ]);
    t
}

/// Formats a float with 3 significant-ish digits for table cells.
pub fn fmt_sig(v: f64) -> String {
    if !v.is_finite() {
        return "-".into();
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{:.0}", v)
    } else if a >= 100.0 {
        format!("{:.1}", v)
    } else if a >= 1.0 {
        format!("{:.2}", v)
    } else {
        format!("{:.3}", v)
    }
}

/// Formats a cycle count the way the paper does (k = 1000).
pub fn fmt_kcycles(cycles: f64) -> String {
    if cycles >= 1e6 {
        format!("{:.0}k", cycles / 1e3)
    } else if cycles >= 1e3 {
        format!("{:.1}k", cycles / 1e3)
    } else {
        format!("{:.0}", cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer-name"));
        // All data lines have equal length.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(lines[1].len(), lines[3].len().max(lines[2].len()));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn sig_formatting() {
        assert_eq!(fmt_sig(12345.6), "12346");
        assert_eq!(fmt_sig(123.45), "123.5");
        assert_eq!(fmt_sig(12.345), "12.35");
        assert_eq!(fmt_sig(0.1234), "0.123");
        assert_eq!(fmt_sig(f64::NAN), "-");
    }

    #[test]
    fn kcycle_formatting() {
        assert_eq!(fmt_kcycles(500.0), "500");
        assert_eq!(fmt_kcycles(2500.0), "2.5k");
        assert_eq!(fmt_kcycles(2_500_000.0), "2500k");
    }

    #[test]
    fn json_roundtrip() {
        let path = std::env::temp_dir().join("ws_bench_test.json");
        let path = path.to_str().unwrap();
        dump_json(path, &vec![1, 2, 3]);
        let s = std::fs::read_to_string(path).unwrap();
        let v = minijson::parse(&s).unwrap();
        let nums: Vec<u64> = v
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(nums, vec![1, 2, 3]);
    }
}
