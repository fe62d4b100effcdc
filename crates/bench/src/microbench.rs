//! A tiny Criterion-style harness for the `harness = false` bench
//! targets, since the workspace builds without external dependencies.
//!
//! Usage inside a bench target:
//!
//! ```ignore
//! fn main() {
//!     let mut b = ws_bench::microbench::Bench::from_args();
//!     b.bench("group/name", || do_work());
//!     b.finish();
//! }
//! ```
//!
//! Each benchmark is auto-calibrated to a target sample duration, then
//! timed over several samples; the harness reports the best and median
//! nanoseconds per iteration (best-of is the standard noise-rejection
//! choice for throughput kernels — interference only ever adds time).
//! A positional CLI argument filters benchmarks by substring, matching
//! `cargo bench -- <filter>` usage, and `--out-dir DIR` names the
//! directory the `BENCH_*.json` trajectory is written to (without it,
//! nothing is written):
//!
//! ```text
//! cargo bench -p ws-bench --bench spawn_join -- --out-dir "$PWD"
//! ```

use std::path::PathBuf;
use std::time::{Duration, Instant};

use minijson::Json;

/// Number of timed samples per benchmark (also the run count behind
/// the JSON trajectory's median/p10/p90).
pub const SAMPLES: usize = 12;
/// Target wall-clock duration of one sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(25);

/// Timing summary of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Fastest sample.
    pub best_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 10th-percentile sample (nearest rank).
    pub p10_ns: f64,
    /// 90th-percentile sample (nearest rank).
    pub p90_ns: f64,
    /// Iterations per sample (from calibration).
    pub iters: u64,
}

/// Collects and reports benchmark timings.
#[derive(Default)]
pub struct Bench {
    filter: Option<String>,
    out_dir: Option<PathBuf>,
    ran: usize,
    results: Vec<BenchResult>,
}

impl Bench {
    /// Builds a harness from `std::env::args`, accepting the flags
    /// cargo passes to bench binaries (`--bench`), `--out-dir DIR` and
    /// an optional positional substring filter.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    fn parse(mut args: impl Iterator<Item = String>) -> Self {
        let mut b = Bench::default();
        while let Some(a) = args.next() {
            if a == "--out-dir" {
                b.out_dir = args.next().map(PathBuf::from);
            } else if !a.starts_with("--") {
                b.filter = Some(a);
            }
        }
        b
    }

    /// Runs one benchmark unless filtered out.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        self.ran += 1;

        // Calibrate: find an iteration count filling the target sample.
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t0.elapsed();
            if dt >= TARGET_SAMPLE || iters >= 1 << 30 {
                break;
            }
            // Grow towards the target with a 2x cap per step.
            let scale = (TARGET_SAMPLE.as_secs_f64() / dt.as_secs_f64().max(1e-9)).min(2.0);
            iters = ((iters as f64 * scale).ceil() as u64).max(iters + 1);
        }

        let mut per_iter: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));

        let best = per_iter[0];
        let median = per_iter[SAMPLES / 2];
        self.results.push(BenchResult {
            name: name.to_string(),
            best_ns: best,
            median_ns: median,
            p10_ns: per_iter[(SAMPLES - 1) * 10 / 100],
            p90_ns: per_iter[(SAMPLES - 1) * 90 / 100],
            iters,
        });
        println!(
            "{name:<44} {:>12}/iter  (median {}, {iters} iters x {SAMPLES} samples)",
            fmt_ns(best),
            fmt_ns(median),
        );
    }

    /// All results recorded so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serializes the recorded results as the machine-readable
    /// trajectory format future PRs diff against: an object with the
    /// sampling parameters and one entry per benchmark carrying
    /// median/p10/p90/best nanoseconds per iteration.
    pub fn to_json(&self) -> Json {
        let benchmarks = self
            .results
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(r.name.clone())),
                    ("median_ns".into(), Json::Num(r.median_ns)),
                    ("p10_ns".into(), Json::Num(r.p10_ns)),
                    ("p90_ns".into(), Json::Num(r.p90_ns)),
                    ("best_ns".into(), Json::Num(r.best_ns)),
                    ("iters".into(), Json::Num(r.iters as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("samples_per_benchmark".into(), Json::Num(SAMPLES as f64)),
            ("benchmarks".into(), Json::Arr(benchmarks)),
        ])
    }

    /// Writes [`to_json`](Bench::to_json) (pretty-printed) to `file`
    /// in the `--out-dir` directory; without that flag it only says so.
    /// Errors are reported, not fatal: a read-only directory must not
    /// fail the bench run itself.
    pub fn write_json(&self, file: &str) {
        let Some(path) = self.json_path(file) else {
            println!("not writing {file}: no --out-dir given");
            return;
        };
        match std::fs::write(&path, self.to_json().pretty() + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    fn json_path(&self, file: &str) -> Option<PathBuf> {
        self.out_dir.as_deref().map(|d| d.join(file))
    }

    /// Prints a footer; call after the last benchmark.
    pub fn finish(&self) {
        if self.ran == 0 {
            println!("(no benchmarks matched the filter)");
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_skips_nonmatching() {
        let mut b = Bench {
            filter: Some("match-me".into()),
            ..Bench::default()
        };
        let mut hits = 0;
        b.bench("other/benchmark", || hits += 1);
        assert_eq!(hits, 0);
        assert_eq!(b.ran, 0);
        assert!(b.results().is_empty());
    }

    #[test]
    fn records_ordered_stats_and_json() {
        let mut b = Bench::default();
        b.bench("fast/stats", || {
            std::hint::black_box(1 + 1);
        });
        let r = &b.results()[0];
        assert_eq!(r.name, "fast/stats");
        assert!(r.best_ns <= r.p10_ns && r.p10_ns <= r.median_ns);
        assert!(r.median_ns <= r.p90_ns);
        assert!(r.iters >= 1);

        let json = b.to_json();
        assert_eq!(
            json.get("samples_per_benchmark").and_then(|j| j.as_u64()),
            Some(SAMPLES as u64)
        );
        let arr = json.get("benchmarks").and_then(|j| j.as_array()).unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(
            arr[0].get("name").and_then(|j| j.as_str()),
            Some("fast/stats")
        );
        // Round-trips through the parser.
        let parsed = minijson::parse(&json.pretty()).unwrap();
        assert!(parsed.get("benchmarks").is_some());
    }

    #[test]
    fn out_dir_flag_places_json_at_run_time() {
        let args = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let b = Bench::parse(args(&["--bench", "--out-dir", "/some/dir", "spawn"]).into_iter());
        assert_eq!(b.filter.as_deref(), Some("spawn"));
        assert_eq!(
            b.json_path("BENCH_x.json"),
            Some(PathBuf::from("/some/dir/BENCH_x.json"))
        );
        // No flag, no file: a build tree never writes into a checkout
        // it was copied from.
        let b = Bench::parse(args(&["--bench"]).into_iter());
        assert_eq!(b.filter, None);
        assert_eq!(b.json_path("BENCH_x.json"), None);
    }

    #[test]
    fn runs_and_counts() {
        let mut b = Bench::default();
        let mut hits = 0u64;
        b.bench("fast/no-op", || hits = hits.wrapping_add(1));
        assert!(hits > 0);
        assert_eq!(b.ran, 1);
        b.finish();
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.340 us");
        assert_eq!(fmt_ns(12_340_000.0), "12.340 ms");
        assert_eq!(fmt_ns(2.5e9), "2.500 s");
    }
}
