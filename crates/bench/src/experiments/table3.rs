//! Table III — *Costs (cycles) of inlined and stolen tasks.*
//!
//! **Inlined column**: the Table II methodology applied to each system:
//! per-task overhead of a spawn+join over a procedure call, measured
//! with `fib` on one worker. For Wool the paper quotes a range
//! "3–19" (all-private to all-public); we report both ends.
//!
//! **Steal columns (2, 4, 8)**: the Podobas et al. methodology — a
//! binary tree of height `k` whose `2^k` leaves each run a sequential
//! computation `C`, executed with `2^k` workers; the load-balancing
//! overhead is the difference against running the same work without
//! scheduling. On hosts with fewer hardware threads than workers the
//! tree cannot actually run in parallel, so we compare against
//! `2^k * T_C / min(p, hw)` — on a big machine this reduces to the
//! paper's `T_tree - T_C`, on a uniprocessor it isolates the same
//! scheduling overhead from a serialized execution.

use workloads::fib::fib_spawn_count;
use workloads::{WorkloadKind, WorkloadSpec};

use crate::cli::BenchArgs;
use crate::measure::{cycles_per, measure_job};
use crate::report::{fmt_sig, Table};
use crate::system::{System, SystemKind};

/// One row: a system's inlined and steal costs.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name.
    pub system: String,
    /// Inlined task overhead, cycles (Wool: best case, all private).
    pub inlined_cycles: f64,
    /// Wool only: worst case (all public); `None` elsewhere.
    pub inlined_cycles_public: Option<f64>,
    /// Steal overhead per `(workers, cycles)` pair.
    pub steal_cycles: Vec<(usize, f64)>,
}

/// The full result.
#[derive(Debug, Clone)]
pub struct Result {
    /// fib argument used for the inlined column.
    pub fib_n: u64,
    /// Leaf iterations used for the steal columns.
    pub leaf_iters: u64,
    /// Hardware threads available (affects the steal formula).
    pub hw_threads: usize,
    /// Rows: wool, cilk-like, tbb-like, omp-like.
    pub rows: Vec<Row>,
}

fn inlined_overhead(kind: SystemKind, n: u64, t_s: f64) -> f64 {
    let spec = WorkloadSpec {
        kind: WorkloadKind::Fib,
        p1: n as usize,
        p2: 0,
        reps: 1,
    };
    let mut sys = System::create(kind, 1);
    let m = measure_job(&mut sys, &spec, 3);
    cycles_per((m.seconds - t_s).max(0.0), fib_spawn_count(n))
}

/// Measures the steal overhead for `p = 2^k` workers on `kind`.
fn steal_overhead(kind: SystemKind, k: u32, leaf_iters: u64, hw: usize) -> f64 {
    let p = 1usize << k;
    let spec = WorkloadSpec {
        kind: WorkloadKind::Stress,
        p1: k as usize,
        p2: leaf_iters as usize,
        reps: 1,
    };
    // Reference: the same tree with no task constructs.
    let mut serial = System::create(SystemKind::Serial, 1);
    let t_serial_tree = measure_job(&mut serial, &spec, 3).seconds;

    let mut sys = System::create(kind, p);
    let t_tree = measure_job(&mut sys, &spec, 3).seconds;

    let ideal = t_serial_tree / p.min(hw) as f64;
    cycles_per((t_tree - ideal).max(0.0), 1)
}

/// Runs the experiment.
pub fn run(args: &BenchArgs) -> Result {
    let fib_n = super::table2::fib_n_for_scale(args.scale);
    // Large leaves so the overhead is measured against substantial work
    // (paper's C); scaled for quick runs.
    let leaf_iters = if args.scale >= 1.0 {
        4_000_000
    } else {
        400_000
    };
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Serial fib time for the inlined column.
    let spec = WorkloadSpec {
        kind: WorkloadKind::Fib,
        p1: fib_n as usize,
        p2: 0,
        reps: 1,
    };
    let mut serial = System::create(SystemKind::Serial, 1);
    let t_s = measure_job(&mut serial, &spec, 3).seconds;

    let ks: Vec<u32> = args
        .worker_sweep()
        .into_iter()
        .filter(|&p| p > 1 && p.is_power_of_two())
        .map(|p| p.trailing_zeros())
        .collect();

    let mut rows = Vec::new();
    for kind in SystemKind::PAPER_SYSTEMS {
        eprintln!("[table3] {}", kind.name());
        let inlined = inlined_overhead(kind, fib_n, t_s);
        let inlined_public = (kind == SystemKind::Wool)
            .then(|| inlined_overhead(SystemKind::WoolAllPublic, fib_n, t_s));
        let steal_cycles = ks
            .iter()
            .map(|&k| (1usize << k, steal_overhead(kind, k, leaf_iters, hw)))
            .collect();
        rows.push(Row {
            system: kind.name().to_string(),
            inlined_cycles: inlined,
            inlined_cycles_public: inlined_public,
            steal_cycles,
        });
    }
    Result {
        fib_n,
        leaf_iters,
        hw_threads: hw,
        rows,
    }
}

/// Renders the paper-style table.
pub fn render(r: &Result) -> Table {
    let mut header = vec!["System".to_string(), "Inlined".to_string()];
    header.extend(r.rows[0].steal_cycles.iter().map(|(p, _)| p.to_string()));
    let mut t = Table::new(
        &format!(
            "Table III: costs (cycles) of inlined and stolen tasks (hw={})",
            r.hw_threads
        ),
        &header,
    );
    for row in &r.rows {
        let inlined = match row.inlined_cycles_public {
            Some(pubc) => format!("{}-{}", fmt_sig(row.inlined_cycles), fmt_sig(pubc)),
            None => fmt_sig(row.inlined_cycles),
        };
        let mut cells = vec![row.system.clone(), inlined];
        for &(_, c) in &row.steal_cycles {
            cells.push(fmt_sig(c));
        }
        t.row(cells);
    }
    t
}

minijson::impl_to_json!(Row {
    system,
    inlined_cycles,
    inlined_cycles_public,
    steal_cycles,
});
minijson::impl_to_json!(Result {
    fib_n,
    leaf_iters,
    hw_threads,
    rows
});
