//! Figure 4 — *Different implementations of stealing.*
//!
//! The four steal-side implementations (§IV-C: base, peek, trylock,
//! nolock) on the stress benchmark with 256-iteration leaves. The
//! paper plots one panel per parallel-region size (heights 7–11 with
//! repetitions 64K down to 4K) with worker count on the x-axis and
//! relative speedup on the y-axis.

use workloads::{WorkloadKind, WorkloadSpec};

use super::{series_table, speedups};
use crate::cli::BenchArgs;
use crate::report::Table;
use crate::system::SystemKind;

/// One panel: a fixed region size, speedups per system and worker count.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Tree height.
    pub height: usize,
    /// Repetitions.
    pub reps: u64,
    /// Series: `(system, [(workers, relative speedup)])`.
    pub series: Vec<(String, Vec<(usize, f64)>)>,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Result {
    /// Leaf iterations (paper: 256).
    pub leaf_iters: usize,
    /// Panels, small regions to large.
    pub panels: Vec<Panel>,
}

/// Runs the experiment.
pub fn run(args: &BenchArgs) -> Result {
    // Paper: heights 7..11 with reps shifted to 64K..4K.
    let configs = [
        (7usize, 65536u64),
        (8, 32768),
        (9, 16384),
        (10, 8192),
        (11, 4096),
    ];
    let mut panels = Vec::new();
    for (height, base_reps) in configs {
        let reps = ((base_reps as f64 * args.scale) as u64).max(8);
        let spec = WorkloadSpec {
            kind: WorkloadKind::Stress,
            p1: height,
            p2: 256,
            reps,
        };
        eprintln!("[fig4] height={height} reps={reps}");
        let series = SystemKind::FIG4_LADDER
            .into_iter()
            .map(|kind| {
                let label = if kind == SystemKind::WoolTaskSpecific {
                    "nolock"
                } else {
                    kind.name().trim_start_matches("steal:")
                };
                (label.to_string(), speedups(args, kind, &spec, None))
            })
            .collect();
        panels.push(Panel {
            height,
            reps,
            series,
        });
    }
    Result {
        leaf_iters: 256,
        panels,
    }
}

/// Renders one table per panel.
pub fn render(r: &Result) -> Vec<Table> {
    r.panels
        .iter()
        .map(|panel| {
            let title = format!(
                "Figure 4: stress(256, h={}) x{} — relative speedup",
                panel.height, panel.reps
            );
            let rows = panel.series.iter().map(|(n, pts)| (n.as_str(), &pts[..]));
            series_table(&title, "Steal impl", rows)
        })
        .collect()
}

minijson::impl_to_json!(Panel {
    height,
    reps,
    series
});
minijson::impl_to_json!(Result { leaf_iters, panels });
