//! Minimal shared argument parsing for the harness binaries.
//!
//! All binaries accept:
//!
//! ```text
//! --only EXHIBIT  run one exhibit of `all_experiments` (default: all nine)
//! --workers N     maximum worker count to sweep to  (default: 4)
//! --scale F       repetition scale factor vs the paper (default: 0.01)
//! --paper         full paper-sized parameters (scale = 1.0)
//! --quick         tiny smoke-test parameters (scale = 0.001)
//! --json DIR       write each exhibit's results to DIR/<exhibit>.json
//!                  (`serve_throughput`: the file to write its rows to)
//! --trace-out PATH record a scheduler event trace of a representative
//!                  run and write it as Chrome/Perfetto trace JSON
//!                  (needs the `trace` cargo feature; see docs/TRACING.md)
//! ```
//!
//! The paper's repetition counts target roughly one second per workload
//! on a 2009 8-core Opteron; `--scale` shrinks them proportionally so a
//! full table regenerates in minutes on a small host.

use crate::experiments::EXHIBITS;

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// The one exhibit to run (`--only`), one of
    /// [`EXHIBITS`]' names; `None` runs all.
    pub only: Option<&'static str>,
    /// Maximum worker count to sweep to.
    pub workers: usize,
    /// Repetition scale factor relative to the paper's counts.
    pub scale: f64,
    /// Optional JSON output directory (`serve_throughput`: file).
    pub json: Option<String>,
    /// Optional Chrome-trace output path (`--trace-out`). Parsed
    /// unconditionally; acting on it requires the `trace` feature.
    pub trace_out: Option<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            only: None,
            workers: 4,
            scale: 0.01,
            json: None,
            trace_out: None,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator, exiting with a usage message on
    /// error.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        Self::try_parse_from(args).unwrap_or_else(|msg| usage(&msg))
    }

    /// Parses from an explicit iterator; `Err` holds the error message,
    /// empty for `--help`.
    pub fn try_parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
            match a.as_str() {
                "--only" => {
                    let name = value("an exhibit")?;
                    let names = EXHIBITS.map(|e| e.name);
                    out.only = Some(names.into_iter().find(|&n| n == name).ok_or(format!(
                        "unknown exhibit: {name} (one of: {})",
                        names.join(", ")
                    ))?);
                }
                "--workers" => {
                    out.workers = value("a number")?
                        .parse()
                        .map_err(|_| "--workers needs a number")?
                }
                "--scale" => {
                    out.scale = value("a number")?
                        .parse()
                        .map_err(|_| "--scale needs a number")?
                }
                "--paper" => out.scale = 1.0,
                "--quick" => out.scale = 0.001,
                "--json" => out.json = Some(value("a path")?),
                "--trace-out" => {
                    out.trace_out = Some(value("a path")?);
                    if !wool_core::trace::TRACE {
                        eprintln!(
                            "warning: --trace-out ignored; rebuild with \
                             `--features trace` to record traces"
                        );
                    }
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(out)
    }

    /// Worker counts to sweep: 1, 2, 4, ... up to `workers`.
    pub fn worker_sweep(&self) -> Vec<usize> {
        let mut v = vec![1usize];
        let mut p = 2;
        while p <= self.workers {
            v.push(p);
            p *= 2;
        }
        if *v.last().unwrap() != self.workers && self.workers > 1 {
            v.push(self.workers);
        }
        v
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--only EXHIBIT] [--workers N] [--scale F | --paper | --quick] \
         [--json DIR] [--trace-out PATH]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> BenchArgs {
        BenchArgs::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let a = parse("");
        assert_eq!(a.workers, 4);
        assert!(a.json.is_none());
    }

    #[test]
    fn flags() {
        let a = parse("--workers 8 --scale 0.5 --json out.json");
        assert_eq!(a.workers, 8);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert!(a.trace_out.is_none());
    }

    #[test]
    fn trace_out_flag() {
        let a = parse("--trace-out results/trace.json");
        assert_eq!(a.trace_out.as_deref(), Some("results/trace.json"));
    }

    #[test]
    fn only_takes_each_exhibit() {
        assert_eq!(parse("").only, None);
        for e in &EXHIBITS {
            assert_eq!(parse(&format!("--only {}", e.name)).only, Some(e.name));
        }
    }

    #[test]
    fn only_rejects_an_unknown_exhibit() {
        let args = ["--only", "table5"].map(String::from);
        let err = BenchArgs::try_parse_from(args).unwrap_err();
        assert!(err.contains("unknown exhibit: table5"), "{err}");
        for e in &EXHIBITS {
            assert!(err.contains(e.name), "{err} lists {}", e.name);
        }
    }

    #[test]
    fn paper_and_quick() {
        assert_eq!(parse("--paper").scale, 1.0);
        assert_eq!(parse("--quick").scale, 0.001);
    }

    #[test]
    fn sweep_is_powers_of_two_plus_max() {
        assert_eq!(parse("--workers 8").worker_sweep(), vec![1, 2, 4, 8]);
        assert_eq!(parse("--workers 6").worker_sweep(), vec![1, 2, 4, 6]);
        assert_eq!(parse("--workers 1").worker_sweep(), vec![1]);
    }
}
