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
//!
//! Before the sweep it prices the hand-off itself, per job, as the
//! median over batches of 512 jobs of a fixed 1.5 µs spin: `submit`
//! (one client, one worker busy with the jobs it submits), the
//! worker-side overhead on 1 and 2 workers (each worker's time from the
//! batch's start to its last job's end, minus its job bodies, summed;
//! the lowest median of four fresh pools) and joining a finished
//! handle. `--json PATH` writes both parts and the host's CPU
//! model to PATH (CI keeps it as `BENCH_serve.json`).

use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Jobs per hand-off batch.
const BATCH: usize = 512;
/// The body of every hand-off job.
const BODY: Duration = Duration::from_nanos(1_500);

/// Spins for `d`; returns when it started and ended.
fn spin_for(d: Duration) -> (Instant, Instant) {
    let t0 = Instant::now();
    let mut t = t0;
    while t - t0 < d {
        spin_loop();
        t = Instant::now();
    }
    (t0, t)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile(&v, 0.5)
}

/// Per-job submit and ready-join cost in µs, medians over `batches`:
/// one client submits a batch to a one-worker pool that starts running
/// it at once, waits for the batch to finish, then joins every handle.
fn submit_and_join_us(batches: usize) -> (f64, f64) {
    let pool = ServePool::start(1);
    let mut handles = Vec::with_capacity(BATCH);
    let (mut submit, mut join) = (Vec::new(), Vec::new());
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            handles.push(pool.submit(|_| spin_for(BODY)).expect("pool is serving"));
        }
        submit.push(t0.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        for h in handles.drain(..) {
            std::hint::black_box(h.join());
        }
        join.push(t0.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
    }
    (median(submit), median(join))
}

/// Fresh pools per worker-overhead measurement. The OS places a pool's
/// workers for the pool's life, and on a 2-CPU host about half of the
/// placements read the two-worker overhead about 3× higher for every
/// batch of that pool; the lowest pool median is the hand-off's own cost.
const POOLS: usize = 4;

/// Worker-side overhead per job in µs on `workers` workers: the lowest
/// of [`POOLS`] pool medians, each over `batches` batches.
fn worker_overhead_us(workers: usize, batches: usize) -> f64 {
    (0..POOLS)
        .map(|_| pool_overhead_us(workers, batches))
        .fold(f64::INFINITY, f64::min)
}

/// The median worker-side overhead per job in µs over `batches` batches
/// on one pool of `workers` workers. Each batch starts with every worker
/// held by a gate job; the client releases the gates and submits the
/// batch while the workers run it. A worker's overhead is the time from
/// the release to its last job's end minus its job bodies; the batch's
/// is the sum over workers per job. A worker that the OS kept off the
/// CPUs for the whole batch ran no job and adds nothing.
fn pool_overhead_us(workers: usize, batches: usize) -> f64 {
    let pool = ServePool::start(workers);
    let started = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::with_capacity(BATCH);
    let mut overhead = Vec::new();
    for _ in 0..batches {
        started.store(0, Relaxed);
        release.store(false, Relaxed);
        let gates: Vec<_> = (0..workers)
            .map(|_| {
                let (started, release) = (Arc::clone(&started), Arc::clone(&release));
                pool.submit(move |_| {
                    started.fetch_add(1, Relaxed);
                    while !release.load(Relaxed) {
                        spin_loop();
                    }
                })
                .expect("pool is serving")
            })
            .collect();
        while started.load(Relaxed) < workers {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        release.store(true, Relaxed);
        for _ in 0..BATCH {
            let job = pool.submit(|h| (h.worker_index(), spin_for(BODY)));
            handles.push(job.expect("pool is serving"));
        }
        // Sleep through the batch (twice its body time), so the client
        // does not compete with the workers for CPUs.
        std::thread::sleep(2 * BODY * BATCH as u32 / workers as u32);
        gates.into_iter().for_each(|g| g.join());
        // Per worker: its last job's end, and its job bodies.
        let mut ran = vec![(t0, Duration::ZERO); workers];
        for h in handles.drain(..) {
            let (w, (a, b)) = h.join();
            ran[w] = (ran[w].0.max(b), ran[w].1 + (b - a));
        }
        let outside: Duration = ran.iter().map(|&(end, bodies)| end - t0 - bodies).sum();
        overhead.push(outside.as_secs_f64() * 1e6 / BATCH as f64);
    }
    median(overhead)
}

/// The hand-off's per-job costs, in µs.
struct HandOff {
    batches: usize,
    submit_us: f64,
    overhead_1w_us: f64,
    overhead_2w_us: f64,
    ready_join_us: f64,
}

impl HandOff {
    fn measure(batches: usize) -> Self {
        let (submit_us, ready_join_us) = submit_and_join_us(batches);
        HandOff {
            batches,
            submit_us,
            overhead_1w_us: worker_overhead_us(1, batches),
            overhead_2w_us: worker_overhead_us(2, batches),
            ready_join_us,
        }
    }
}

impl ToJson for HandOff {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("batches".into(), Json::Num(self.batches as f64)),
            ("jobs_per_batch".into(), Json::Num(BATCH as f64)),
            ("job_body_us".into(), Json::Num(BODY.as_secs_f64() * 1e6)),
            ("submit_us".into(), Json::Num(self.submit_us)),
            (
                "worker_overhead_1w_us".into(),
                Json::Num(self.overhead_1w_us),
            ),
            (
                "worker_overhead_2w_us".into(),
                Json::Num(self.overhead_2w_us),
            ),
            ("ready_join_us".into(), Json::Num(self.ready_join_us)),
        ])
    }
}

/// The host's CPU model, from `/proc/cpuinfo` where there is one.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = BenchArgs::parse();
    // 400 batches at the default scale, 40 at --quick.
    let batches = ((40_000.0 * args.scale) as usize).max(40);
    let hand_off = HandOff::measure(batches);
    let mut table = Table::new(
        &format!(
            "serve hand-off: µs per job, median of {batches} batches of {BATCH} {:.1} µs jobs",
            BODY.as_secs_f64() * 1e6
        ),
        &["submit", "worker 1w", "worker 2w", "ready join"],
    );
    table.row(
        [
            hand_off.submit_us,
            hand_off.overhead_1w_us,
            hand_off.overhead_2w_us,
            hand_off.ready_join_us,
        ]
        .map(|us| format!("{us:.3}"))
        .to_vec(),
    );
    table.print();

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
        let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
        let host = Json::Obj(vec![
            ("cpu_model".into(), Json::Str(cpu_model())),
            (
                "available_parallelism".into(),
                Json::Num(parallelism as f64),
            ),
        ]);
        let doc = Json::Obj(vec![
            ("host".into(), host),
            ("hand_off".into(), hand_off.to_json()),
            (
                "sweep".into(),
                Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
            ),
        ]);
        dump_json(path, &doc);
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
