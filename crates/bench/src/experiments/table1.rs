//! Table I — *Workload characteristics.*
//!
//! For every workload row: the average parallelism under the 0-cycle
//! and 2000-cycle overhead models (measured by the serial span executor
//! [`wool_core::span::measure`] on one repetition, which also counts the
//! tasks `N_T`), the per-repetition sequential size `RepSz`, the task
//! granularity `G_T = T_S / N_T`, and the load-balancing granularity
//! `G_L(p) = T_S / N_M` for each processor count in the sweep (steals
//! counted on Wool runs with `p` workers). Work and span come from the
//! span executor run with the smallest span out of up to 20 runs.

use std::time::{Duration, Instant};

use wool_core::{span, Job};
use workloads::{all_table1_specs, WorkloadSpec};

use crate::cli::BenchArgs;
use crate::measure::measure_job;
use crate::report::{fmt_kcycles, fmt_sig, Table};
use crate::system::{System, SystemKind};

/// Span executor runs per row, at most.
const SPAN_RUNS: usize = 20;

/// A row stops repeating its span run once its runs have taken this
/// long, and times `T_S` once if one run takes this long. Only short
/// runs need the repeats: an interrupt adds about the same time to any
/// run, and a long one dilutes it.
const SPAN_BUDGET: Duration = Duration::from_secs(1);

/// One regenerated Table I row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name with parameters.
    pub workload: String,
    /// Repetitions used.
    pub reps: u64,
    /// Parallelism with zero scheduling overhead.
    pub parallelism0: f64,
    /// Parallelism under the 2000-cycle model.
    pub parallelism_2000: f64,
    /// Sequential size of one repetition, kilocycles.
    pub rep_kcycles: f64,
    /// Task granularity `G_T`, cycles.
    pub g_t: f64,
    /// Load-balancing granularity per worker count, kilocycles
    /// (`(workers, G_L)` pairs).
    pub g_l: Vec<(usize, f64)>,
}

/// The full result.
#[derive(Debug, Clone)]
pub struct Result {
    /// Worker counts measured for `G_L`.
    pub sweep: Vec<usize>,
    /// Rows in Table I order.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
pub fn run(args: &BenchArgs) -> Result {
    let sweep: Vec<usize> = args.worker_sweep().into_iter().filter(|&p| p > 1).collect();
    let specs: Vec<WorkloadSpec> = all_table1_specs()
        .iter()
        .map(|s| s.scale_reps(args.scale))
        .collect();

    let mut rows = Vec::new();
    for spec in &specs {
        eprintln!("[table1] {}", spec.name());
        // Sequential time (T_S) without any task constructs.
        let mut serial = System::create(SystemKind::Serial, 1);
        let mut ms = measure_job(&mut serial, spec, 1);
        if ms.seconds < SPAN_BUDGET.as_secs_f64() {
            let again = measure_job(&mut serial, spec, 1);
            if again.seconds < ms.seconds {
                ms = again;
            }
        }
        let t_s_cycles = ms.cycles;

        // Work and span of one repetition: the reps run one after
        // another, so the job's parallelism is one rep's, and its `N_T`
        // is `reps` times one rep's. A timer interrupt or a descheduling
        // lands in the span of the run it hits, and one rep is short
        // enough that most runs see none: repeat it and keep the run
        // with the smallest span, as `measure_job` keeps the best time.
        // Building the inputs is not part of a run.
        let rep = WorkloadSpec {
            reps: 1,
            ..spec.clone()
        };
        let want = if spec.reps == 1 {
            ms.checksum
        } else {
            measure_job(&mut serial, &rep, 1).checksum
        };
        let start = Instant::now();
        let mut dag: Option<span::SpanReport> = None;
        for _ in 0..SPAN_RUNS {
            let job = rep.job();
            let (checksum, run) = span::measure(|c| job.call(c));
            assert_eq!(
                want,
                checksum,
                "serial and span executor disagree on {}",
                rep.name()
            );
            if dag.is_none_or(|best| run.span0 < best.span0) {
                dag = Some(run);
            }
            if start.elapsed() > SPAN_BUDGET {
                break;
            }
        }
        let dag = dag.expect("SPAN_RUNS is positive");

        let g_t = t_s_cycles / (dag.tasks * spec.reps).max(1) as f64;
        let rep_kcycles = t_s_cycles / spec.reps as f64 / 1e3;

        // Steal counts at each worker count.
        let mut g_l = Vec::new();
        for &p in &sweep {
            let mut wool_p = System::create(SystemKind::Wool, p);
            let mp = measure_job(&mut wool_p, spec, 1);
            let steals = mp.steals.max(1);
            g_l.push((p, t_s_cycles / steals as f64 / 1e3));
        }

        rows.push(Row {
            workload: spec.name(),
            reps: spec.reps,
            parallelism0: dag.parallelism0(),
            parallelism_2000: dag.parallelism_c(),
            rep_kcycles,
            g_t,
            g_l,
        });
    }
    Result { sweep, rows }
}

/// Renders the paper-style table.
pub fn render(r: &Result) -> Table {
    let mut header = ["Workload", "Par(0)", "Par(2k)", "RepSz(kcyc)", "G_T(cyc)"]
        .map(String::from)
        .to_vec();
    header.extend(r.sweep.iter().map(|p| format!("G_L({p})k")));
    let mut t = Table::new("Table I: workload characteristics", &header);
    for row in &r.rows {
        let mut cells = vec![
            row.workload.clone(),
            fmt_sig(row.parallelism0),
            fmt_sig(row.parallelism_2000),
            fmt_sig(row.rep_kcycles),
            fmt_sig(row.g_t),
        ];
        for &(_, gl) in &row.g_l {
            cells.push(fmt_kcycles(gl * 1e3));
        }
        t.row(cells);
    }
    t
}

minijson::impl_to_json!(Row {
    workload,
    reps,
    parallelism0,
    parallelism_2000,
    rep_kcycles,
    g_t,
    g_l,
});
minijson::impl_to_json!(Result { sweep, rows });
