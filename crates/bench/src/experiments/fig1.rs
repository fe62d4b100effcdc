//! Figure 1 — *Absolute speedup of fib(42) with no cutoff and relative
//! speedup of stress(4096, 3, 128K) on Wool, Cilk++, TBB and OpenMP.*
//!
//! Left panel: fib with no cutoff, speedup relative to the **serial**
//! program (absolute speedup). Right panel: stress with 4096-iteration
//! leaves, tree height 3, 128K repetitions — speedup relative to the
//! same system's one-worker time (relative speedup), which is how the
//! paper plots it.

use workloads::{WorkloadKind, WorkloadSpec};

use super::{series_table, speedups};
use crate::cli::BenchArgs;
use crate::measure::measure_job;
use crate::report::Table;
use crate::system::{System, SystemKind};

/// One speedup series.
#[derive(Debug, Clone)]
pub struct Series {
    /// System name.
    pub system: String,
    /// `(workers, speedup)` points.
    pub points: Vec<(usize, f64)>,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Result {
    /// fib argument used.
    pub fib_n: u64,
    /// Absolute-speedup series for fib.
    pub fib: Vec<Series>,
    /// Relative-speedup series for stress.
    pub stress: Vec<Series>,
}

/// Runs the experiment.
pub fn run(args: &BenchArgs) -> Result {
    let fib_n = super::table2::fib_n_for_scale(args.scale);
    let fib_spec = WorkloadSpec {
        kind: WorkloadKind::Fib,
        p1: fib_n as usize,
        p2: 0,
        reps: 1,
    };
    let stress_spec = WorkloadSpec {
        kind: WorkloadKind::Stress,
        p1: 3,
        p2: 4096,
        reps: ((131_072.0 * args.scale) as u64).max(16),
    };

    let mut serial = System::create(SystemKind::Serial, 1);
    let fib_ts = measure_job(&mut serial, &fib_spec, 2).seconds;

    let mut fib = Vec::new();
    let mut stress = Vec::new();
    for kind in SystemKind::PAPER_SYSTEMS {
        eprintln!("[fig1] {}", kind.name());
        let series = |spec: &WorkloadSpec, base| Series {
            system: kind.name().to_string(),
            points: speedups(args, kind, spec, base),
        };
        fib.push(series(&fib_spec, Some(fib_ts)));
        stress.push(series(&stress_spec, None));
    }
    Result { fib_n, fib, stress }
}

/// Renders both panels as tables (one row per system, one column per
/// worker count).
pub fn render(r: &Result) -> [Table; 2] {
    let panel = |title: &str, series: &[Series]| {
        let rows = series.iter().map(|s| (s.system.as_str(), &s.points[..]));
        series_table(title, "System", rows)
    };
    [
        panel(
            &format!("Figure 1 (left): fib({}) absolute speedup", r.fib_n),
            &r.fib,
        ),
        panel(
            "Figure 1 (right): stress(4096,3) relative speedup",
            &r.stress,
        ),
    ]
}

minijson::impl_to_json!(Series { system, points });
minijson::impl_to_json!(Result { fib_n, fib, stress });
