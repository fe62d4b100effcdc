//! Cross-crate integration: every workload computes the same result on
//! every scheduler in the repository.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

use wool_core::{Fork, Job};
use workloads::{WorkloadKind, WorkloadSpec};
use ws_bench::{System, SystemKind};

fn check_spec(spec: WorkloadSpec, workers: usize) {
    let mut serial = System::create(SystemKind::Serial, 1);
    let expect = serial.run_job(spec.job());
    for kind in SystemKind::ALL {
        let mut sys = System::create(kind, workers);
        let got = sys.run_job(spec.job());
        assert_eq!(
            got,
            expect,
            "{} on {} with {} workers",
            spec.name(),
            kind.name(),
            workers
        );
    }
}

#[test]
fn fib_agrees_everywhere() {
    check_spec(
        WorkloadSpec {
            kind: WorkloadKind::Fib,
            p1: 17,
            p2: 0,
            reps: 2,
        },
        3,
    );
}

#[test]
fn stress_agrees_everywhere() {
    check_spec(
        WorkloadSpec {
            kind: WorkloadKind::Stress,
            p1: 5,
            p2: 64,
            reps: 4,
        },
        3,
    );
}

#[test]
fn mm_agrees_everywhere() {
    check_spec(
        WorkloadSpec {
            kind: WorkloadKind::Mm,
            p1: 32,
            p2: 0,
            reps: 2,
        },
        3,
    );
}

#[test]
fn ssf_agrees_everywhere() {
    check_spec(
        WorkloadSpec {
            kind: WorkloadKind::Ssf,
            p1: 10,
            p2: 0,
            reps: 2,
        },
        3,
    );
}

#[test]
fn cholesky_agrees_everywhere() {
    check_spec(
        WorkloadSpec {
            kind: WorkloadKind::Cholesky,
            p1: 80,
            p2: 300,
            reps: 1,
        },
        3,
    );
}

#[test]
fn repeated_regions_stay_consistent() {
    // A pool survives many small regions with identical results.
    let spec = WorkloadSpec {
        kind: WorkloadKind::Fib,
        p1: 14,
        p2: 0,
        reps: 1,
    };
    let mut serial = System::create(SystemKind::Serial, 1);
    let expect = serial.run_job(spec.job());
    let mut wool = System::create(SystemKind::Wool, 4);
    for rep in 0..100 {
        assert_eq!(wool.run_job(spec.job()), expect, "region {rep}");
    }
}

/// `for_each_spawn(n, body)`: every index in `0..n` must run exactly
/// once, on every scheduler, including the degenerate shapes — an empty
/// loop, a single iteration (no task spawned at all), and a loop wider
/// than the per-worker task stack (spawns overflow to inline calls).
struct ForEachJob {
    n: usize,
}

impl Job<f64> for ForEachJob {
    fn call<C: Fork>(self, ctx: &mut C) -> f64 {
        let hits: Vec<AtomicU64> = (0..self.n).map(|_| AtomicU64::new(0)).collect();
        ctx.for_each_spawn(self.n, &|_c: &mut C, i: usize| {
            hits[i].fetch_add(1, Relaxed);
        });
        // Weighted checksum: distinguishes "ran twice at i, never at j"
        // from a correct run, unlike a plain counter.
        hits.iter()
            .enumerate()
            .map(|(i, h)| (h.load(Relaxed) * (i as u64 + 1)) as f64)
            .sum()
    }
}

#[test]
fn for_each_spawn_edge_widths_agree_everywhere() {
    // n == 0 (no iterations), n == 1 (direct call only), and
    // n > stack_capacity (8192 default: overflow path).
    for n in [0usize, 1, 10_000] {
        let expect = (n as u64 * (n as u64 + 1) / 2) as f64;
        for kind in SystemKind::ALL {
            let mut sys = System::create(kind, 3);
            let got = sys.run_job(ForEachJob { n });
            assert_eq!(got, expect, "for_each_spawn({n}) on {}", kind.name());
        }
    }
}

#[test]
fn many_workers_on_tiny_work() {
    // More workers than tasks: thieves mostly fail; results still exact.
    for kind in SystemKind::ALL {
        let mut sys = System::create(kind, 8);
        let spec = WorkloadSpec {
            kind: WorkloadKind::Fib,
            p1: 6,
            p2: 0,
            reps: 3,
        };
        assert_eq!(sys.run_job(spec.job()), 3.0 * 8.0, "{}", kind.name());
    }
}
