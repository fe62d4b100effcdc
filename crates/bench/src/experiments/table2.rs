//! Table II — *Optimizing inlined tasks; single processor executions.*
//!
//! Runs `fib(n)` on one worker under each rung of the implementation
//! ladder and reports execution time plus the per-task overhead over a
//! plain procedure call, `(T_1 - T_S) / N_T`, in cycles:
//!
//! | paper row                    | this repo                         |
//! |------------------------------|-----------------------------------|
//! | Base                         | `Pool<LockedBase>`                |
//! | Synchronize on task          | `Pool<SyncOnTask>`                |
//! | Task specific join           | `Pool<TaskSpecific>`              |
//! | Private tasks (no private)   | `Pool<WoolAllPublic>`             |
//! | Private tasks (all private)  | `Pool<WoolFull>` (1 worker ⇒ all  |
//! |                              | tasks stay private)               |
//! | Serial                       | plain recursion, no constructs    |

use workloads::fib::fib_spawn_count;
use workloads::{WorkloadKind, WorkloadSpec};

use crate::cli::BenchArgs;
use crate::measure::{cycles_per, measure_job, on_one_cpu};
use crate::report::{fmt_sig, Table};
use crate::system::{System, SystemKind};

/// One row of the regenerated table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Paper row label.
    pub version: String,
    /// Execution time of `fib(n)` at the fastest trial's rate, seconds.
    pub seconds: f64,
    /// Per-task overhead over a procedure call, cycles.
    pub overhead_cycles: f64,
}

/// The full result.
#[derive(Debug, Clone)]
pub struct Result {
    /// fib argument used.
    pub n: u64,
    /// Tasks spawned.
    pub tasks: u64,
    /// Rows in paper order.
    pub rows: Vec<Row>,
}

/// fib argument for a given scale (paper: 42; scaled down so the
/// default run finishes in seconds).
pub fn fib_n_for_scale(scale: f64) -> u64 {
    if scale >= 1.0 {
        42
    } else if scale >= 0.1 {
        38
    } else if scale >= 0.01 {
        34
    } else {
        27
    }
}

/// The fib argument of one timed trial: 75 024 tasks, at most about a
/// millisecond per rung, so that most trials see no interrupt.
const TRIAL_N: u64 = 24;

/// Runs the experiment.
pub fn run(args: &BenchArgs) -> Result {
    let n = fib_n_for_scale(args.scale);
    let tasks = fib_spawn_count(n);
    let trial_n = n.min(TRIAL_N);
    let trial_tasks = fib_spawn_count(trial_n);
    let trial = WorkloadSpec {
        kind: WorkloadKind::Fib,
        p1: trial_n as usize,
        p2: 0,
        reps: 1,
    };
    // Three times `fib(n)`'s work per rung, and at least ten trials.
    let trials = (3 * tasks / trial_tasks).max(10);

    // The serial baseline T_S and the five rungs, timed round-robin on
    // one pinned CPU (a one-worker pool runs on the calling thread): each
    // round runs one trial of every system, and each keeps its fastest,
    // so a slow stretch of the host hits every row alike.
    let mut systems: Vec<(&str, System, f64)> = [
        ("Base", SystemKind::WoolLockedBase),
        ("Synchronize on task", SystemKind::WoolSyncOnTask),
        ("Task specific join", SystemKind::WoolTaskSpecific),
        ("Private tasks (no private)", SystemKind::WoolAllPublic),
        ("Private tasks (all private)", SystemKind::Wool),
        ("Serial", SystemKind::Serial),
    ]
    .into_iter()
    .map(|(label, kind)| (label, System::create(kind, 1), f64::INFINITY))
    .collect();
    on_one_cpu(|| {
        for _ in 0..trials {
            for (_, sys, best) in &mut systems {
                *best = best.min(measure_job(sys, &trial, 1).seconds);
            }
        }
    });

    let t_s = systems.last().expect("serial row").2;
    let per_n = tasks as f64 / trial_tasks as f64;
    let rows = systems
        .into_iter()
        .map(|(label, _, best)| Row {
            version: label.into(),
            seconds: best * per_n,
            overhead_cycles: cycles_per((best - t_s).max(0.0), trial_tasks),
        })
        .collect();

    Result { n, tasks, rows }
}

/// Renders the paper-style table.
pub fn render(r: &Result) -> Table {
    let mut t = Table::new(
        &format!("Table II: optimizing inlined tasks, fib({}), 1 worker", r.n),
        &["Version", "Time (s)", "Overhead (cyc)"],
    );
    for row in &r.rows {
        t.row(vec![
            row.version.clone(),
            format!("{:.3}", row.seconds),
            fmt_sig(row.overhead_cycles),
        ]);
    }
    t
}

minijson::impl_to_json!(Row {
    version,
    seconds,
    overhead_cycles
});
minijson::impl_to_json!(Result { n, tasks, rows });
