//! perfbench — the end-to-end and per-layer benchmark of wool-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fib --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload runs on `min(2, available_parallelism)` workers as a
//! closed loop in the shape of the paper's programs: serial code, a
//! parallel operation, serial code again. The serial code is the
//! operation's own serial elision (see `work.rs`), run once per worker on
//! all cores at once, so every parallel operation is paired with the
//! sequential time of the same work measured just before it.
//!
//! * `fib` — fib(28) with one spawn per call: the paper's finest grain,
//!   where the private spawn/join path is nearly all the work.
//! * `stress` — the paper's stress tree (height 14, 256-iteration
//!   leaves): coarser tasks, so stealing and leap-frogging matter more.
//! * `par` — a wool-par map and dot product over 2^15 seeded `u64`s: the
//!   data-parallel splitter on top of the task stack.
//! * `serve` — the traffic of the repository's `serve_throughput` bench
//!   and `serve` example: `SERVE_CLIENTS` client threads each submit
//!   their share of `SERVE_JOBS` fib(12) jobs to one `ServePool` at once,
//!   then join them. A job is a few microseconds of work, so the
//!   contended injector, the wake-up of idle workers and the hand-off
//!   back to the joiner are most of an operation's time.
//!
//! An operation is one `Pool::run` region, or one batch of serve jobs,
//! stamped at four layer boundaries: issued by the caller, root task
//! entered (the first job's, for `serve`), root task left (the last
//! job's), result back at the caller (every job joined). Every output,
//! serial and parallel, is checked against a reference.
//!
//! End-to-end metrics (`--trace 0`): `speedup_p75`, the upper quartile
//! over operations of paired serial time / parallel latency, and
//! `setup_s`, the time to start a pool and finish its first (empty)
//! operation, as the median of starts spread over the run, each on freshly
//! mapped task stacks (see `fix_mmap_threshold`). A speedup, not
//! an absolute time, because on a shared host the speed of each core
//! drifts by tens of percent over tens of seconds, and the pairing cancels
//! that. For `serve` it reads as jobs per second relative to running the
//! same jobs as plain calls on one core. The upper quartile, not the
//! median, because a preempted virtual CPU stalls a fork-join operation
//! far more than its serial elision, so the lower half of the distribution
//! moves with the other tenants' load (its spread across runs was twice
//! that of the upper quartile); the full tail is in `latency_p99_ms`.
//!
//! Per-layer metrics (`--trace 1`), and the end-to-end result each moves:
//! * region / serve path: `entry_us` (issue → root task runs), `exit_us`
//!   (root task returns → caller resumes), `empty_op_us` (both, with no
//!   work) — `speedup_p75` of short operations, `serve` most;
//! * task bodies: `body_ms`, with `latency_ms`, `latency_p99_ms` and the
//!   reference `serial_ms` for scale;
//! * descriptor ops and the worker loop, from the pool's own counters per
//!   operation: spawns, private joins (%), public and stolen joins,
//!   steals, leap-frog steals, failed steals, steal retries (lost races
//!   and back-offs) and publications — `speedup_p75` of `fib` and `stress`,
//!   and of `par`, where spawns count the splitter's forks. They are taken
//!   on a fresh pool that runs `COUNT_OPS` operations back to back, with
//!   no serial code in between. A batch pool counts inside its regions
//!   only; a serve pool counts for its whole life, so for `serve` the
//!   failed steals and retries include the workers' polling of an empty
//!   injector while the clients start, submit and join.
//!
//! The last line on stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run also writes the stamped spans as
//! a Chrome trace (viewable in Perfetto) under `perfbench/out/`.

mod work;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use wool_core::{Pool, PoolConfig, Stats};
use wool_serve::ServePool;
use work::{Fib, Jobs, Op, Par, Serial, Stress};

const USAGE: &str = "usage: perfbench --workload <fib|stress|par|serve> --seed <n> \
                     --seconds <n> --trace <0|1>";

const FIB_N: u64 = 28;
const STRESS_HEIGHT: u32 = 14;
const STRESS_ITERS: u64 = 256;
const PAR_LEN: usize = 1 << 15;
/// Client threads of `serve`: as many as the repository's `serve` example.
const SERVE_CLIENTS: usize = 4;
/// Jobs per `serve` operation, split evenly among the clients.
const SERVE_JOBS: usize = 512;
/// The job size of the repository's `serve_throughput` bench.
const SERVE_FIB_N: u64 = 12;

/// Rounds of pool starts per run, spread evenly over the measured time;
/// `setup_s` is the median of all their set-up times. A single start is
/// too noisy to compare, and starts taken all at once move with the
/// host's load at the moment they were taken.
const SETUP_ROUNDS: usize = 20;
/// Pools started per round; with `SETUP_ROUNDS`, 400 starts take well
/// under a second of a run.
const SETUPS_PER_ROUND: usize = 20;
/// Operations without work timed by a traced run.
const EMPTY_OPS: usize = 200;
/// Operations whose spans a traced run writes out.
const TRACE_OPS: usize = 2000;
/// Operations a traced run takes the pool's counters over.
const COUNT_OPS: usize = 200;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or(missing("--workload"))?,
        seed: seed.ok_or(missing("--seed"))?,
        seconds: seconds.ok_or(missing("--seconds"))?,
        trace: trace.ok_or(missing("--trace"))?,
    })
}

/// One parallel operation, stamped at the layer boundaries the benchmark
/// sees, with the serial time of the same work measured just before it.
struct Sample {
    /// The paired serial time (see [`serial`]); zero when unpaired.
    serial: Duration,
    /// The caller issues the operation (`Pool::run`, or the first submit).
    start: Instant,
    /// The root task's first instruction, on a worker.
    begin: Instant,
    /// The root task's last instruction.
    end: Instant,
    /// The result is back at the caller.
    done: Instant,
    /// Every serial and the parallel output were correct.
    ok: bool,
}

impl Sample {
    fn latency(&self) -> Duration {
        self.done - self.start
    }
}

/// Runs the serial elisions of `copies`, one copy per worker, each on its
/// own thread and all at once. Returns the serial time on a core of their
/// average speed (the harmonic mean of their times) and whether every
/// output was correct. The cores of a shared host drift in speed
/// independently, by tens of percent; the parallel run uses all of them,
/// so the time on one core alone is no fair reference.
fn serial<W: Serial>(copies: &mut [W]) -> (Duration, bool) {
    let timed = |work: &mut W| {
        work.prepare();
        let t0 = Instant::now();
        let out = work.serial();
        let rate = 1.0 / t0.elapsed().as_secs_f64();
        (rate, work.check(&out))
    };
    let (first, others) = copies.split_first_mut().expect("one copy per worker");
    let results: Vec<(f64, bool)> = std::thread::scope(|s| {
        let others: Vec<_> = others
            .iter_mut()
            .map(|work| s.spawn(move || timed(work)))
            .collect();
        let mut results = vec![timed(first)];
        results.extend(
            others
                .into_iter()
                .map(|t| t.join().expect("serial copy panicked")),
        );
        results
    });
    let rate: f64 = results.iter().map(|r| r.0).sum();
    let ok = results.iter().all(|r| r.1);
    (Duration::from_secs_f64(results.len() as f64 / rate), ok)
}

/// The system under test: a batch pool running one region per operation,
/// or a serve pool running one batch of submitted jobs per operation.
trait System {
    /// Starts a pool; the previous one must be stopped.
    fn start(&mut self);
    /// The serial elision of an operation (see [`serial`]).
    fn serial(&mut self) -> (Duration, bool);
    /// One parallel operation, unpaired.
    fn parallel(&mut self) -> Sample;
    /// An operation without work.
    fn empty_op(&mut self);
    /// Stops the pool; returns its scheduler counters since `start`.
    fn stop(&mut self) -> Stats;

    /// The serial elision, then the same work as a parallel operation.
    fn op(&mut self) -> Sample {
        let (serial, serial_ok) = self.serial();
        let sample = self.parallel();
        Sample {
            serial,
            ok: serial_ok && sample.ok,
            ..sample
        }
    }
}

struct Batch<O> {
    pool: Option<Pool>,
    /// One copy of the operation per worker; the first also runs in
    /// parallel.
    ops: Vec<O>,
    stats: Stats,
}

impl<O: Op> Batch<O> {
    fn new(workers: usize, op: O) -> Self {
        Batch {
            pool: None,
            ops: vec![op; workers],
            stats: Stats::default(),
        }
    }
}

impl<O: Op> System for Batch<O> {
    fn start(&mut self) {
        let cfg = PoolConfig::with_workers(self.ops.len());
        self.pool = Some(Pool::with_config(cfg));
    }

    fn serial(&mut self) -> (Duration, bool) {
        serial(&mut self.ops)
    }

    fn parallel(&mut self) -> Sample {
        let pool = self.pool.as_mut().expect("started");
        let op = &mut self.ops[0];
        op.prepare();
        let start = Instant::now();
        let (begin, out, end) = pool.run(|h| {
            let begin = Instant::now();
            let out = op.run(h);
            (begin, out, Instant::now())
        });
        let done = Instant::now();
        self.stats += pool.last_report().expect("a run leaves a report").total;
        Sample {
            serial: Duration::ZERO,
            start,
            begin,
            end,
            done,
            ok: op.check(&out),
        }
    }

    fn empty_op(&mut self) {
        self.pool.as_mut().expect("started").run(|_| ());
    }

    fn stop(&mut self) -> Stats {
        self.pool = None;
        std::mem::take(&mut self.stats)
    }
}

struct Serve {
    pool: Option<ServePool>,
    /// One copy of the batch per worker, for the serial elisions.
    batches: Vec<Jobs>,
}

impl System for Serve {
    fn start(&mut self) {
        let cfg = PoolConfig::with_workers(self.batches.len());
        self.pool = Some(ServePool::with_config(cfg));
    }

    fn serial(&mut self) -> (Duration, bool) {
        serial(&mut self.batches)
    }

    fn parallel(&mut self) -> Sample {
        let pool = self.pool.as_ref().expect("started");
        let Jobs { count, n, expect } = self.batches[0];
        let start = Instant::now();
        // The clients' outputs, each a job's (begin, output, end).
        let jobs: Vec<(Instant, u64, Instant)> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..SERVE_CLIENTS)
                .map(|_| {
                    s.spawn(move || {
                        let handles: Vec<_> = (0..count / SERVE_CLIENTS)
                            .map(|_| {
                                pool.submit(move |h| {
                                    let begin = Instant::now();
                                    let out = workloads::fib::fib(h, n);
                                    (begin, out, Instant::now())
                                })
                                .expect("a running pool accepts jobs")
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client panicked"))
                .collect()
        });
        let done = Instant::now();
        Sample {
            serial: Duration::ZERO,
            start,
            begin: jobs.iter().map(|j| j.0).min().expect("jobs ran"),
            end: jobs.iter().map(|j| j.2).max().expect("jobs ran"),
            done,
            ok: jobs.len() == count && jobs.iter().all(|j| j.1 == expect),
        }
    }

    fn empty_op(&mut self) {
        let pool = self.pool.as_ref().expect("started");
        pool.submit(|_| ())
            .expect("a running pool accepts jobs")
            .join();
    }

    fn stop(&mut self) -> Stats {
        self.pool
            .take()
            .and_then(|mut p| p.shutdown())
            .map_or_else(Stats::default, |report| report.total)
    }
}

/// Everything one run measured.
struct Run {
    setup_s: Vec<f64>,
    /// The untimed operations after each round of starts.
    warm_ups: Vec<Sample>,
    samples: Vec<Sample>,
    /// Latencies of operations without work (traced runs only).
    empty: Vec<Duration>,
    /// Scheduler counters over `COUNT_OPS` operations (traced runs only).
    stats: Stats,
    /// The operations of the counting phase, checked like the samples.
    counted: Vec<Sample>,
}

/// Runs paired operations for `seconds`. At the start of each of
/// `SETUP_ROUNDS` equal shares of that time, it starts the system
/// `SETUPS_PER_ROUND` times, timing each start up to the end of its first
/// operation, one without work, and then warms the last pool with one
/// untimed operation. A traced run then times `EMPTY_OPS` operations
/// without work, and takes the scheduler counters on a fresh pool.
fn measure(system: &mut impl System, seconds: u64, trace: bool) -> Run {
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS * SETUPS_PER_ROUND);
    let mut warm_ups = Vec::with_capacity(SETUP_ROUNDS);
    let mut samples = Vec::new();
    let length = Duration::from_secs(seconds);
    let round = length / SETUP_ROUNDS as u32;
    let t_begin = Instant::now();
    loop {
        let elapsed = t_begin.elapsed();
        if warm_ups.len() < SETUP_ROUNDS && elapsed >= round * warm_ups.len() as u32 {
            for _ in 0..SETUPS_PER_ROUND {
                system.stop();
                let t0 = Instant::now();
                system.start();
                system.empty_op();
                setup_s.push(t0.elapsed().as_secs_f64());
            }
            // Lazy set-up inside the pool, such as the first touch of each
            // task stack, finishes before timing.
            warm_ups.push(system.op());
        } else if elapsed >= length && warm_ups.len() == SETUP_ROUNDS && !samples.is_empty() {
            break;
        } else {
            samples.push(system.op());
        }
    }
    let mut run = Run {
        setup_s,
        warm_ups,
        samples,
        empty: Vec::new(),
        stats: Stats::default(),
        counted: Vec::new(),
    };
    if trace {
        run.empty = (0..EMPTY_OPS)
            .map(|_| {
                let t0 = Instant::now();
                system.empty_op();
                t0.elapsed()
            })
            .collect();
        system.stop();
        system.start();
        run.counted = (0..COUNT_OPS).map(|_| system.parallel()).collect();
    }
    run.stats = system.stop();
    run
}

/// Nearest-rank percentile of `xs`, `p` in [0, 1].
fn percentile(xs: impl Iterator<Item = f64>, p: f64) -> f64 {
    let mut xs: Vec<f64> = xs.collect();
    xs.sort_by(f64::total_cmp);
    xs[((xs.len() - 1) as f64 * p).round() as usize]
}

fn median(xs: impl Iterator<Item = f64>) -> f64 {
    percentile(xs, 0.5)
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(run: &Run) -> Vec<Metric> {
    let speedups = run
        .samples
        .iter()
        .map(|s| s.serial.as_secs_f64() / s.latency().as_secs_f64());
    vec![
        ("speedup_p75", percentile(speedups, 0.75), "x"),
        ("setup_s", median(run.setup_s.iter().copied()), "s"),
    ]
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let span = |f: fn(&Sample) -> Duration| run.samples.iter().map(f);
    let t = &run.stats;
    let per_op = |count: u64| count as f64 / COUNT_OPS as f64;
    vec![
        ("serial_ms", median(span(|s| s.serial).map(millis)), "ms"),
        (
            "latency_ms",
            median(span(Sample::latency).map(millis)),
            "ms",
        ),
        // The tail is reported here, not gated on: on a shared host its
        // spread from run to run is several times any usable bound.
        (
            "latency_p99_ms",
            percentile(span(Sample::latency).map(millis), 0.99),
            "ms",
        ),
        (
            "entry_us",
            median(span(|s| s.begin - s.start).map(micros)),
            "us",
        ),
        (
            "body_ms",
            median(span(|s| s.end - s.begin).map(millis)),
            "ms",
        ),
        (
            "exit_us",
            median(span(|s| s.done - s.end).map(micros)),
            "us",
        ),
        (
            "empty_op_us",
            median(run.empty.iter().copied().map(micros)),
            "us",
        ),
        ("spawns_per_op", per_op(t.spawns), "count"),
        ("private_join_pct", t.private_join_ratio() * 100.0, "%"),
        ("public_joins_per_op", per_op(t.inlined_public), "count"),
        ("stolen_joins_per_op", per_op(t.stolen_joins), "count"),
        ("steals_per_op", per_op(t.steals), "count"),
        ("leap_steals_per_op", per_op(t.leap_steals), "count"),
        ("failed_steals_per_op", per_op(t.failed_steals), "count"),
        (
            "steal_retries_per_op",
            per_op(t.lost_races + t.backoffs),
            "count",
        ),
        ("publishes_per_op", per_op(t.publishes), "count"),
    ]
}

/// Writes the first `TRACE_OPS` operations as Chrome trace events: one
/// `op` span per operation with its `entry`, `body` and `exit` spans
/// nested inside it, and the paired serial time as an argument.
fn write_trace(run: &Run, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
    let origin = run.samples[0].start;
    let us = |t: Instant| micros(t - origin);
    let mut json = String::from("{\"traceEvents\":[\n");
    for (i, s) in run.samples.iter().take(TRACE_OPS).enumerate() {
        for (name, from, to) in [
            ("op", s.start, s.done),
            ("entry", s.start, s.begin),
            ("body", s.begin, s.end),
            ("exit", s.end, s.done),
        ] {
            let _ = writeln!(
                json,
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{i},\"serial_us\":{:.3}}}}},",
                us(from),
                micros(to - from),
                micros(s.serial),
            );
        }
    }
    json.truncate(json.trim_end().trim_end_matches(',').len());
    json.push_str("\n]}\n");
    // Cargo passes the manifest directory to the program it runs.
    let dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("perfbench"), PathBuf::from)
        .join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Pins glibc's mmap threshold at its default, 128 KiB, which also turns
/// off the allocator's adjustment of it. glibc maps blocks of at least the
/// threshold fresh from the kernel, but raises the threshold whenever such
/// a block is freed, after which a block of that size may come from pages
/// the heap already holds. A pool's task stacks (`stack_capacity` slots
/// per worker) are such blocks, so left alone, pool starts fall into two
/// modes, about 0.35 ms on reused pages and 1 ms on fresh ones, in shares
/// set by the benchmark's own allocation history; the median set-up time
/// moved by half between identical passes. Pinned, every start maps and
/// first touches fresh stacks, as the first pool of a new process does.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_MMAP_THRESHOLD`.
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets an allocator parameter, and no other
    // thread exists yet.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    fix_mmap_threshold();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cpus.min(2);
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let run = match args.workload.as_str() {
        "fib" => measure(&mut Batch::new(workers, Fib::new(FIB_N)), seconds, trace),
        "stress" => {
            let op = Stress::new(STRESS_HEIGHT, STRESS_ITERS);
            measure(&mut Batch::new(workers, op), seconds, trace)
        }
        "par" => measure(
            &mut Batch::new(workers, Par::new(PAR_LEN, seed)),
            seconds,
            trace,
        ),
        "serve" => {
            let batches = vec![Jobs::new(SERVE_JOBS, SERVE_FIB_N); workers];
            let mut serve = Serve {
                pool: None,
                batches,
            };
            measure(&mut serve, seconds, trace)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let checked = || run.samples.iter().chain(&run.counted).chain(&run.warm_ups);
    let attempted = checked().count();
    let failed = checked().filter(|s| !s.ok).count();
    eprintln!(
        "perfbench: {} on {workers} workers ({cpus} CPUs), seed {seed}: {} paired operations",
        args.workload,
        run.samples.len(),
    );
    let metrics = if trace {
        match write_trace(&run, &args.workload, seed) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", "),
    );
    ExitCode::SUCCESS
}
