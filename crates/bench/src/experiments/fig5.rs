//! Figure 5 — *Speedup of fine grained applications on Wool, Cilk++,
//! TBB and OpenMP.*
//!
//! For cholesky, mm and ssf the paper plots **absolute** speedup
//! (against the sequential program); for stress, speedup relative to
//! single-processor Wool. One panel per workload row of Table I.

use workloads::{all_table1_specs, WorkloadKind, WorkloadSpec};

use super::{series_table, speedups};
use crate::cli::BenchArgs;
use crate::measure::measure_job;
use crate::report::Table;
use crate::system::{System, SystemKind};

/// One panel: a workload, speedups per system and worker count.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Workload name.
    pub workload: String,
    /// Whether the baseline is the serial program (absolute) or
    /// one-worker Wool (relative, stress only).
    pub absolute: bool,
    /// Series: `(system, [(workers, speedup)])`.
    pub series: Vec<(String, Vec<(usize, f64)>)>,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Result {
    /// Panels, one per Table I workload row measured.
    pub panels: Vec<Panel>,
}

/// Runs the experiment over `specs`: [`run`] passes all 24 Table I
/// rows; at small scales a subset keeps the runtime reasonable.
pub fn run_specs(args: &BenchArgs, specs: &[WorkloadSpec]) -> Result {
    let mut panels = Vec::new();
    for spec in specs {
        eprintln!("[fig5] {}", spec.name());
        let absolute = spec.kind != WorkloadKind::Stress;
        let base_kind = if absolute {
            SystemKind::Serial
        } else {
            SystemKind::Wool
        };
        let base = measure_job(&mut System::create(base_kind, 1), spec, 2).seconds;
        let series = SystemKind::PAPER_SYSTEMS
            .into_iter()
            .map(|kind| {
                (
                    kind.name().to_string(),
                    speedups(args, kind, spec, Some(base)),
                )
            })
            .collect();
        panels.push(Panel {
            workload: spec.name(),
            absolute,
            series,
        });
    }
    Result { panels }
}

/// Runs over all Table I rows, reps scaled by `args.scale`.
pub fn run(args: &BenchArgs) -> Result {
    let specs: Vec<WorkloadSpec> = all_table1_specs()
        .iter()
        .map(|s| s.scale_reps(args.scale))
        .collect();
    run_specs(args, &specs)
}

/// Renders one table per panel.
pub fn render(r: &Result) -> Vec<Table> {
    r.panels
        .iter()
        .map(|panel| {
            let kind = if panel.absolute {
                "absolute"
            } else {
                "relative"
            };
            let title = format!("Figure 5: {} — {kind} speedup", panel.workload);
            let rows = panel.series.iter().map(|(n, pts)| (n.as_str(), &pts[..]));
            series_table(&title, "System", rows)
        })
        .collect()
}

minijson::impl_to_json!(Panel {
    workload,
    absolute,
    series
});
minijson::impl_to_json!(Result { panels });
