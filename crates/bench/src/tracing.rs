//! `--trace-out` support: record a scheduler event trace and export it.
//!
//! Every harness binary calls [`maybe_trace`] after its main work.
//! When `--trace-out PATH` was given (and the harness was built with
//! `--features trace`), a representative run — the §IV-A `stress` tree
//! on the full Wool scheduler — is executed once with per-worker event
//! tracing enabled, the merged trace is written to `PATH` as
//! Chrome/Perfetto trace JSON (load it at <https://ui.perfetto.dev> or
//! `chrome://tracing`), and a steal-graph summary is printed.
//!
//! See `docs/TRACING.md` for the event schema and workflow.

use std::path::Path;

use wool_core::{Pool, PoolConfig, Stats, TraceLevel, WoolFull};
use wool_trace::Trace;

use crate::report::{steal_summary_table, Table};
use crate::BenchArgs;

/// Records and exports a trace if `--trace-out` was given; otherwise a
/// no-op. Without the `trace` cargo feature this only warns.
pub fn maybe_trace(args: &BenchArgs) {
    let Some(path) = &args.trace_out else { return };
    if !wool_core::trace::TRACE {
        eprintln!(
            "--trace-out {path}: tracing is not compiled into this binary; \
             rebuild with `--features trace`"
        );
        return;
    }
    run_and_write(args, path);
}

/// Parameters of the representative traced run: a `stress` tree
/// (§IV-A) whose leaves are busy enough (~2K cycles) that thieves
/// have time to engage, so the trace shows real stealing traffic —
/// but small enough that the exported JSON stays in the megabyte
/// range.
const TRACED_HEIGHT: u32 = 12;
const TRACED_LEAF_ITERS: u64 = 2000;
const TRACED_REPS: u64 = 4;

/// Per-worker ring capacity for `--trace-out` runs; holds the whole
/// representative run with room to spare, so counts are exact.
const TRACE_CAPACITY: usize = 1 << 20;

/// Runs a traced job on a freshly configured full-Wool pool and
/// returns the merged trace plus the run's aggregate statistics.
///
/// # Panics
/// Without the `trace` feature, which compiles the recording in.
fn record<R: Send, F>(workers: usize, job: F) -> (Trace, Stats)
where
    F: FnOnce(&mut wool_core::WorkerHandle<WoolFull>) -> R + Send,
{
    if !wool_core::trace::TRACE {
        panic!("recording a trace needs the `trace` feature");
    }
    let cfg = PoolConfig::with_workers(workers.max(2))
        .trace(TraceLevel::All)
        .trace_capacity(TRACE_CAPACITY);
    let mut pool: Pool<WoolFull> = Pool::with_config(cfg);
    pool.run(job);
    let stats = pool
        .last_report()
        .map(|r| r.total)
        .expect("run just completed");
    let trace = pool.take_trace().expect("tracing was configured");
    (trace, stats)
}

/// Traces `fib(n)`: very fine-grained, join-fast-path dominated.
///
/// # Panics
/// Without the `trace` feature.
pub fn record_fib_trace(workers: usize, n: u64) -> (Trace, Stats) {
    record(workers, move |h| workloads::fib::fib(h, n))
}

/// Traces the §IV-A `stress` tree: controllable granularity, with
/// busy leaves that give thieves time to steal.
///
/// # Panics
/// Without the `trace` feature.
pub fn record_stress_trace(
    workers: usize,
    height: u32,
    leaf_iters: u64,
    reps: u64,
) -> (Trace, Stats) {
    record(workers, move |h| {
        workloads::stress::stress(h, height, leaf_iters, reps)
    })
}

/// Writes a trace as compact Chrome trace JSON, creating parent
/// directories as needed.
pub fn write_chrome(path: &str, trace: &Trace) -> std::io::Result<()> {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut text = wool_trace::to_chrome_json(trace).compact();
    text.push('\n');
    std::fs::write(path, text)
}

/// Prints the per-kind event counts and the steal-graph summary.
pub fn print_summary(trace: &Trace) {
    let mut counts = Table::new("Trace events", &["event", "count"]);
    for (name, n) in trace.counts() {
        counts.row(vec![name.to_string(), n.to_string()]);
    }
    counts.row(vec!["dropped".into(), trace.dropped().to_string()]);
    counts.print();
    steal_summary_table(&wool_trace::analyze(trace)).print();
}

fn run_and_write(args: &BenchArgs, path: &str) {
    let workers = args.workers.max(2);
    // `--quick` keeps the exported file small (fewer, coarser
    // tasks) while still showing stealing traffic.
    let (height, leaf_iters, reps) = if args.scale <= 0.001 {
        (8, 200_000, 2)
    } else {
        (TRACED_HEIGHT, TRACED_LEAF_ITERS, TRACED_REPS)
    };
    let (trace, stats) = record_stress_trace(workers, height, leaf_iters, reps);
    match write_chrome(path, &trace) {
        Ok(()) => eprintln!(
            "trace: stress(h={height}, {leaf_iters} iters, \
             {reps} reps) on {workers} workers, {} events \
             ({} steals) -> {path}",
            trace.len(),
            stats.total_steals(),
        ),
        Err(e) => {
            eprintln!("trace: failed to write {path}: {e}");
            return;
        }
    }
    print_summary(&trace);
}
