//! Ablation sweeps over the design parameters of §III-B.
//!
//! The paper fixes the trip-wire distance and publication batch by
//! construction; this experiment sweeps them (plus the all-public
//! rung, `WoolAllPublic`) on a steal-intensive workload and reports run time, steal
//! counts and publication counts, quantifying how much each knob
//! matters — the ablation DESIGN.md calls out for the private-task
//! scheme.

use wool_core::PoolConfig;
use workloads::{WorkloadKind, WorkloadSpec};

use crate::cli::BenchArgs;
use crate::measure::measure_job;
use crate::report::{fmt_sig, Table};
use crate::system::{System, SystemKind};

/// One configuration's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Trip-wire distance.
    pub trip_distance: usize,
    /// Publication batch size.
    pub publish_batch: usize,
    /// Whether this row ran the all-public rung (`WoolAllPublic`).
    pub force_public: bool,
    /// Run time, seconds.
    pub seconds: f64,
    /// Successful steals.
    pub steals: u64,
    /// Publications performed by owners.
    pub publishes: u64,
    /// Fraction of joins on the no-atomic private path.
    pub private_ratio: f64,
}

/// Join-policy comparison entry (leapfrog vs plain waiting).
#[derive(Debug, Clone)]
pub struct JoinPolicyRow {
    /// System name.
    pub system: String,
    /// Run time, seconds.
    pub seconds: f64,
    /// Successful steals.
    pub steals: u64,
    /// Steals performed while leap-frogging.
    pub leap_steals: u64,
}

/// The full result.
#[derive(Debug, Clone)]
pub struct Result {
    /// Workload used.
    pub workload: String,
    /// Worker count used.
    pub workers: usize,
    /// Rows, one per configuration.
    pub rows: Vec<Row>,
    /// Leapfrog-vs-waiting comparison (the paper's Figure 6 claim that
    /// "simply waiting would be adequate").
    pub join_policy: Vec<JoinPolicyRow>,
}

/// Runs the sweep.
pub fn run(args: &BenchArgs) -> Result {
    let spec = WorkloadSpec {
        kind: WorkloadKind::Stress,
        p1: 8,
        p2: 256,
        reps: ((65_536.0 * args.scale) as u64).max(16),
    };
    let workers = args.workers.max(2);

    let mut rows = Vec::new();
    let mut run_one = |trip: usize, batch: usize, force: bool| {
        let cfg = PoolConfig {
            trip_distance: trip,
            publish_batch: batch,
            ..PoolConfig::with_workers(workers)
        };
        let kind = if force {
            SystemKind::WoolAllPublic
        } else {
            SystemKind::Wool
        };
        let mut sys = System::create_with(kind, cfg);
        let m = measure_job(&mut sys, &spec, 2);
        let t = sys.last_stats();
        rows.push(Row {
            trip_distance: trip,
            publish_batch: batch,
            force_public: force,
            seconds: m.seconds,
            steals: t.total_steals(),
            publishes: t.publishes,
            private_ratio: t.private_join_ratio(),
        });
    };

    for trip in [1usize, 2, 4, 8] {
        for batch in [1usize, 2, 4, 8, 16] {
            run_one(trip, batch, false);
        }
    }
    run_one(2, 4, true); // everything public: the no-private extreme

    // Join-policy ablation: leapfrogging vs plain waiting at blocked
    // joins, on the same steal-heavy workload.
    let mut join_policy = Vec::new();
    for kind in [SystemKind::Wool, SystemKind::WoolNoLeapfrog] {
        let mut sys = System::create(kind, workers);
        let m = measure_job(&mut sys, &spec, 2);
        let t = sys.last_stats();
        join_policy.push(JoinPolicyRow {
            system: kind.name().to_string(),
            seconds: m.seconds,
            steals: t.total_steals(),
            leap_steals: t.leap_steals,
        });
    }

    Result {
        workload: spec.name(),
        workers,
        rows,
        join_policy,
    }
}

/// Renders the join-policy table.
pub fn render_join_policy(r: &Result) -> Table {
    let mut t = Table::new(
        &format!(
            "Ablation: join policy on {} ({} workers)",
            r.workload, r.workers
        ),
        &["policy", "time(s)", "steals", "leap-steals"],
    );
    for row in &r.join_policy {
        t.row(vec![
            row.system.clone(),
            format!("{:.4}", row.seconds),
            row.steals.to_string(),
            row.leap_steals.to_string(),
        ]);
    }
    t
}

/// Renders the sweep table.
pub fn render(r: &Result) -> Table {
    let mut t = Table::new(
        &format!(
            "Ablation: private-task parameters on {} ({} workers)",
            r.workload, r.workers
        ),
        &[
            "trip",
            "batch",
            "public",
            "time(s)",
            "steals",
            "publishes",
            "private%",
        ],
    );
    for row in &r.rows {
        t.row(vec![
            row.trip_distance.to_string(),
            row.publish_batch.to_string(),
            if row.force_public { "all" } else { "-" }.into(),
            format!("{:.4}", row.seconds),
            row.steals.to_string(),
            row.publishes.to_string(),
            fmt_sig(100.0 * row.private_ratio),
        ]);
    }
    t
}

minijson::impl_to_json!(Row {
    trip_distance,
    publish_batch,
    force_public,
    seconds,
    steals,
    publishes,
    private_ratio,
});
minijson::impl_to_json!(JoinPolicyRow {
    system,
    seconds,
    steals,
    leap_steals
});
minijson::impl_to_json!(Result {
    workload,
    workers,
    rows,
    join_policy
});
