//! Table IV — *A simple steal cost model, computed and measured
//! speed ups.*
//!
//! For `mm(64)`: combine the steal costs measured for Table III and steal
//! counts with the §IV-D2a model and compare the predicted speedup to
//! the measured one, per system and worker count.

use workloads::{WorkloadKind, WorkloadSpec};

use super::table3;
use crate::cli::BenchArgs;
use crate::measure::measure_job;
use crate::model::{steal_cost_model_speedup, ModelInputs};
use crate::report::{fmt_sig, Table};
use crate::system::{System, SystemKind};

/// Model-vs-measured for one system.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name.
    pub system: String,
    /// `(workers, predicted speedup, measured speedup)` triples.
    pub entries: Vec<(usize, f64, f64)>,
}

/// The full result.
#[derive(Debug, Clone)]
pub struct Result {
    /// Per-repetition work, kilocycles.
    pub rep_kcycles: f64,
    /// Rows for wool, cilk-like, tbb-like (the paper omits OpenMP here:
    /// its mm is a work-sharing loop, not tasks; ours is task-based so
    /// we include it for completeness).
    pub rows: Vec<Row>,
    /// Steal costs reused from Table III.
    pub steal_costs: Vec<(String, Vec<(usize, f64)>)>,
}

/// Runs the experiment, with the steal costs of Table III's result `t3`.
pub fn run(args: &BenchArgs, t3: &table3::Result) -> Result {
    let spec = WorkloadSpec {
        kind: WorkloadKind::Mm,
        p1: 64,
        p2: 0,
        reps: ((16384.0 * args.scale) as u64).max(4),
    };

    // Sequential work per repetition.
    let mut serial = System::create(SystemKind::Serial, 1);
    let ms = measure_job(&mut serial, &spec, 2);
    let work_per_rep = ms.cycles / spec.reps as f64;

    let sweep: Vec<usize> = args.worker_sweep().into_iter().filter(|&p| p > 1).collect();
    let mut rows = Vec::new();
    for kind in SystemKind::PAPER_SYSTEMS {
        eprintln!("[table4] {}", kind.name());
        let costs = t3
            .rows
            .iter()
            .find(|r| r.system == kind.name())
            .expect("system measured in table3");
        let cost_at = |p| costs.steal_cycles.iter().find(|&&(q, _)| q == p);
        let c2 = cost_at(2).map_or(0.0, |&(_, c)| c);

        let mut entries = Vec::new();
        for &p in &sweep {
            // Measured speedup and steal count on this system.
            let mut sys = System::create(kind, p);
            let mp = measure_job(&mut sys, &spec, 1);
            let measured = ms.seconds / mp.seconds;
            let steals_per_rep = mp.steals as f64 / spec.reps as f64;
            let cp = cost_at(p).map_or(c2, |&(_, c)| c);
            let predicted = steal_cost_model_speedup(ModelInputs {
                work: work_per_rep,
                c2,
                cp,
                steals: steals_per_rep,
                p,
            });
            entries.push((p, predicted, measured));
        }
        rows.push(Row {
            system: kind.name().to_string(),
            entries,
        });
    }

    Result {
        rep_kcycles: work_per_rep / 1e3,
        rows,
        steal_costs: t3
            .rows
            .iter()
            .map(|r| (r.system.clone(), r.steal_cycles.clone()))
            .collect(),
    }
}

/// Renders the paper-style table (measured values in parentheses).
pub fn render(r: &Result) -> Table {
    let mut header = vec!["System".to_string()];
    header.extend(r.rows[0].entries.iter().map(|(p, _, _)| p.to_string()));
    let mut t = Table::new(
        &format!(
            "Table IV: steal-cost model vs measured, mm(64), RepSz={}k cycles",
            fmt_sig(r.rep_kcycles)
        ),
        &header,
    );
    for row in &r.rows {
        let mut cells = vec![row.system.clone()];
        for &(_, pred, meas) in &row.entries {
            cells.push(format!("{} ({})", fmt_sig(pred), fmt_sig(meas)));
        }
        t.row(cells);
    }
    t
}

minijson::impl_to_json!(Row { system, entries });
minijson::impl_to_json!(Result {
    rep_kcycles,
    rows,
    steal_costs
});
