//! Serve-mode throughput and latency: an open-loop load generator for
//! `wool_core::ServePool`.
//!
//! Sweeps the number of submitter threads from 1 up to `--workers`;
//! each submitter pushes its share of jobs through the global injector
//! as fast as it can (open loop: submission never waits for
//! completion), then joins every handle. Per job we measure the
//! submit-to-completion latency; the row reports completed jobs per
//! second plus the p50/p99 latency of the batch.
//!
//! ```text
//! cargo run --release -p ws-bench --bin serve_throughput -- --workers 4
//! ```
//!
//! Each job is a small fork-join region (parallel fib), so the bench
//! exercises exactly the boundary the design cares about: root jobs
//! arrive through the injector, their children stay on the paper's
//! direct task stack.

use std::time::Instant;

use minijson::{Json, ToJson};
use wool_core::ServePool;
use workloads::fib::fib;
use ws_bench::{dump_json, BenchArgs, Table};

/// One sweep point: `submitters` client threads against one pool.
struct Row {
    submitters: usize,
    jobs: usize,
    elapsed_s: f64,
    jobs_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("submitters".into(), Json::Num(self.submitters as f64)),
            ("jobs".into(), Json::Num(self.jobs as f64)),
            ("elapsed_s".into(), Json::Num(self.elapsed_s)),
            ("jobs_per_s".into(), Json::Num(self.jobs_per_s)),
            ("p50_us".into(), Json::Num(self.p50_us)),
            ("p99_us".into(), Json::Num(self.p99_us)),
        ])
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn run_point(workers: usize, submitters: usize, jobs: usize, fib_n: u64) -> Row {
    let pool = ServePool::start(workers);
    let per_client = jobs.div_ceil(submitters);
    let t0 = Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..submitters)
            .map(|_| {
                let pool = &pool;
                s.spawn(move || {
                    let mut handles = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let submitted = Instant::now();
                        let h = pool
                            .submit(move |h| {
                                std::hint::black_box(fib(h, fib_n));
                                submitted.elapsed()
                            })
                            .expect("pool is serving");
                        handles.push(h);
                    }
                    handles
                        .into_iter()
                        .map(|h| h.join().as_secs_f64() * 1e6)
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("submitter thread"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    drop(pool); // graceful drain (all handles already joined)

    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total = latencies_us.len();
    Row {
        submitters,
        jobs: total,
        elapsed_s,
        jobs_per_s: total as f64 / elapsed_s,
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
    }
}

fn main() {
    let args = BenchArgs::parse();
    // ~50k jobs at paper scale; floor keeps percentiles meaningful at
    // --quick.
    let jobs = ((50_000.0 * args.scale) as usize).max(1_000);
    let fib_n = 12; // ~a few microseconds of fork-join work per job

    let mut table = Table::new(
        &format!(
            "serve_throughput: {} workers, {} jobs per point, fib({}) jobs",
            args.workers, jobs, fib_n
        ),
        &["submitters", "jobs/s", "p50 us", "p99 us", "elapsed s"],
    );
    let mut rows = Vec::new();
    for submitters in sweep(args.workers) {
        let row = run_point(args.workers, submitters, jobs, fib_n);
        table.row(vec![
            row.submitters.to_string(),
            format!("{:.0}", row.jobs_per_s),
            format!("{:.1}", row.p50_us),
            format!("{:.1}", row.p99_us),
            format!("{:.3}", row.elapsed_s),
        ]);
        rows.push(row);
    }
    table.print();
    if let Some(path) = &args.json {
        dump_json(path, &Json::Arr(rows.iter().map(|r| r.to_json()).collect()));
    }
}

/// Submitter counts: 1, 2, 4, ... up to the worker count.
fn sweep(max: usize) -> Vec<usize> {
    let mut v = vec![1usize];
    let mut p = 2;
    while p <= max {
        v.push(p);
        p *= 2;
    }
    if *v.last().unwrap() != max && max > 1 {
        v.push(max);
    }
    v
}
