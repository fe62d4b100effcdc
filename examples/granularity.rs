//! Granularity analysis of a workload, in the paper's terms.
//!
//! Runs each Table I benchmark family at a small size and prints the
//! §II granularity measures: task granularity `G_T = T_S / N_T`,
//! load-balancing granularity `G_L = T_S / N_M`, and the measured
//! parallelism under the ideal and 2000-cycle overhead models — the
//! same quantities Table I reports.
//!
//! ```text
//! cargo run --release -p workloads --example granularity -- [workers]
//! ```

use wool_core::{span, Executor, Job, Pool};
use workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    let specs = [
        WorkloadSpec {
            kind: WorkloadKind::Fib,
            p1: 27,
            p2: 0,
            reps: 1,
        },
        WorkloadSpec {
            kind: WorkloadKind::Cholesky,
            p1: 250,
            p2: 1000,
            reps: 8,
        },
        WorkloadSpec {
            kind: WorkloadKind::Mm,
            p1: 64,
            p2: 0,
            reps: 32,
        },
        WorkloadSpec {
            kind: WorkloadKind::Ssf,
            p1: 12,
            p2: 0,
            reps: 16,
        },
        WorkloadSpec {
            kind: WorkloadKind::Stress,
            p1: 8,
            p2: 256,
            reps: 256,
        },
    ];

    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "G_T(cyc)", "G_L(kcyc)", "steals", "par(0)", "par(2k)"
    );
    for spec in specs {
        // Serial span executor: work, span and N_T of the task DAG
        // (the inputs are built before it starts).
        let job = spec.job();
        let (_, dag) = span::measure(|c| job.call(c));

        // Multi-worker run: steal count.
        let mut pool_p: Pool = Pool::new(workers);
        pool_p.run_job(spec.job());
        let rp = pool_p.last_report().unwrap();

        let work = dag.work as f64;
        let g_t = work / dag.tasks.max(1) as f64;
        let steals = rp.total.total_steals();
        let g_l = work / steals.max(1) as f64 / 1e3;
        println!(
            "{:<24} {:>10.0} {:>10.1} {:>10} {:>10.1} {:>10.1}",
            spec.name(),
            g_t,
            g_l,
            steals,
            dag.parallelism0(),
            dag.parallelism_c(),
        );
    }
    println!(
        "\n(G_T: average work per task; G_L: average work per steal on {workers} workers;\n \
         par: T1/Tinf under 0- and 2000-cycle steal-cost models — cf. Table I.)"
    );
}
