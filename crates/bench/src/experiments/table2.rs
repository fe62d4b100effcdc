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
use crate::measure::{cycles_per, measure_job};
use crate::report::{fmt_sig, Table};
use crate::system::{System, SystemKind};

/// One row of the regenerated table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Paper row label.
    pub version: String,
    /// Execution time, seconds.
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

/// Runs the experiment.
pub fn run(args: &BenchArgs) -> Result {
    let n = fib_n_for_scale(args.scale);
    let tasks = fib_spawn_count(n);
    let spec = WorkloadSpec {
        kind: WorkloadKind::Fib,
        p1: n as usize,
        p2: 0,
        reps: 1,
    };
    let repeats = 3;

    // Serial baseline first: T_S.
    let mut serial = System::create(SystemKind::Serial, 1);
    let t_s = measure_job(&mut serial, &spec, repeats).seconds;

    let ladder: Vec<(String, System)> = vec![
        ("Base".into(), System::create(SystemKind::WoolLockedBase, 1)),
        (
            "Synchronize on task".into(),
            System::create(SystemKind::WoolSyncOnTask, 1),
        ),
        (
            "Task specific join".into(),
            System::create(SystemKind::WoolTaskSpecific, 1),
        ),
        (
            "Private tasks (no private)".into(),
            System::create(SystemKind::WoolAllPublic, 1),
        ),
        (
            "Private tasks (all private)".into(),
            System::create(SystemKind::Wool, 1),
        ),
    ];

    let mut rows = Vec::new();
    for (label, mut sys) in ladder {
        let m = measure_job(&mut sys, &spec, repeats);
        rows.push(Row {
            version: label,
            seconds: m.seconds,
            overhead_cycles: cycles_per((m.seconds - t_s).max(0.0), tasks),
        });
    }
    rows.push(Row {
        version: "Serial".into(),
        seconds: t_s,
        overhead_cycles: 0.0,
    });

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
