//! Figure 6 — *Breakdown of CPU time, selected workloads.*
//!
//! Wool runs that record the breakdown events
//! ([`TraceLevel::Breakdown`]) are classified by
//! [`wool_trace::breakdown`] into the paper's categories: NA
//! (application), LA (application acquired through leap frogging), ST
//! (stealing), LF (leap-frog overhead), with TR (startup/shutdown and
//! untracked remainder) computed as region wall time times workers minus
//! the tracked categories. Each bar sums [`REGIONS`] regions on one
//! pool. Values are normalized to the single-worker NA time, as in the
//! paper.

use wool_core::{Executor, Pool, PoolConfig, TraceLevel, WoolFull};
use wool_trace::Breakdown;
use workloads::{WorkloadKind, WorkloadSpec};

use crate::cli::BenchArgs;
use crate::report::{fmt_sig, Table};

/// Regions run and summed per bar. In one short region the other
/// workers may steal nothing or not join at all; summed over several,
/// a bar shows what they do on average.
pub const REGIONS: usize = 5;

/// Breakdown at one worker count, normalized to 1-worker NA.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Worker count.
    pub workers: usize,
    /// Normalized `[TR, NA, LA, ST, LF]`.
    pub fractions: [f64; 5],
}

/// One workload's set of bars.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Workload name.
    pub workload: String,
    /// Bars per worker count.
    pub bars: Vec<Bar>,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Result {
    /// Panels.
    pub panels: Vec<Panel>,
}

/// The paper's Figure 6 workload selection, scaled.
pub fn default_specs(scale: f64) -> Vec<WorkloadSpec> {
    let s = |kind, p1, p2, reps: u64| WorkloadSpec {
        kind,
        p1,
        p2,
        reps: ((reps as f64 * scale) as u64).max(4),
    };
    vec![
        s(WorkloadKind::Cholesky, 500, 2000, 1024),
        s(WorkloadKind::Mm, 64, 0, 16384),
        s(WorkloadKind::Ssf, 13, 0, 8192),
        s(WorkloadKind::Stress, 8, 256, 65536),
        s(WorkloadKind::Stress, 5, 4096, 32768),
    ]
}

/// Runs the experiment.
pub fn run(args: &BenchArgs) -> Result {
    let specs = default_specs(args.scale);
    let sweep = args.worker_sweep();
    let mut panels = Vec::new();
    for spec in &specs {
        eprintln!("[fig6] {}", spec.name());
        let mut bars = Vec::new();
        let mut na1 = f64::NAN;
        for &p in &sweep {
            let cfg = PoolConfig::with_workers(p).trace(TraceLevel::Breakdown);
            let mut pool: Pool<WoolFull> = Pool::with_config(cfg);
            let mut b = Breakdown::default();
            for _ in 0..REGIONS {
                b += region_breakdown(&mut pool, spec);
            }
            if p == 1 {
                na1 = (b.na as f64).max(1.0);
            }
            bars.push(Bar {
                workers: p,
                fractions: b.cycles().map(|c| c as f64 / na1),
            });
        }
        panels.push(Panel {
            workload: spec.name(),
            bars,
        });
    }
    Result { panels }
}

/// Runs `spec` as one region on `pool` and classifies its CPU time.
fn region_breakdown(pool: &mut Pool<WoolFull>, spec: &WorkloadSpec) -> Breakdown {
    pool.run_job(spec.job());
    let wall = pool.last_report().expect("a run just ended").wall_ticks;
    let trace = pool.last_trace().expect("the pool records the breakdown");
    wool_trace::breakdown(trace, wall).unwrap_or_else(|| {
        panic!(
            "{}: breakdown refused ({} events dropped)",
            spec.name(),
            trace.dropped()
        )
    })
}

/// Renders one table per panel (rows = categories, columns = workers).
pub fn render(r: &Result) -> Vec<Table> {
    r.panels
        .iter()
        .map(|panel| {
            let mut header = vec!["Category".to_string()];
            header.extend(panel.bars.iter().map(|b| format!("p={}", b.workers)));
            let mut t = Table::new(
                &format!(
                    "Figure 6: {} — CPU time (normalized to 1-worker NA)",
                    panel.workload
                ),
                &header,
            );
            for (i, label) in Breakdown::LABELS.iter().enumerate() {
                let mut cells = vec![label.to_string()];
                for b in &panel.bars {
                    cells.push(fmt_sig(b.fractions[i]));
                }
                t.row(cells);
            }
            t
        })
        .collect()
}

minijson::impl_to_json!(Bar { workers, fractions });
minijson::impl_to_json!(Panel { workload, bars });
minijson::impl_to_json!(Result { panels });
