//! Timing methodology.
//!
//! Each measurement runs a job several times and keeps the **best**
//! wall-clock time (the standard noise-rejection choice for throughput
//! kernels: external interference only ever adds time). Times are
//! reported both in seconds and in cycle ticks so overheads can be
//! quoted per-task in cycles as the paper does.

use std::time::Instant;

use wool_core::cycles;

use crate::system::System;
use workloads::WorkloadSpec;

/// One timed result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Best wall time, seconds.
    pub seconds: f64,
    /// Best wall time, cycle ticks.
    pub cycles: f64,
    /// Successful steals observed in the best run (Wool: per run;
    /// baselines: per run via reset).
    pub steals: u64,
    /// Tasks spawned in the best run.
    pub spawns: u64,
    /// Checksum of the computed result (cross-system validation).
    pub checksum: f64,
}

/// Runs `spec` on `system` `repeats` times, keeping the fastest run.
/// Building a run's inputs (`WorkloadSpec::job`) is not timed.
pub fn measure_job(system: &mut System, spec: &WorkloadSpec, repeats: usize) -> Measurement {
    assert!(repeats >= 1);
    let mut best = Measurement {
        seconds: f64::INFINITY,
        cycles: f64::INFINITY,
        steals: 0,
        spawns: 0,
        checksum: 0.0,
    };
    for _ in 0..repeats {
        system.reset_stats();
        let job = spec.job();
        let t0 = Instant::now();
        let checksum = system.run_job(job);
        let dt = t0.elapsed();
        let secs = dt.as_secs_f64();
        if secs < best.seconds {
            let stats = system.last_stats();
            best.seconds = secs;
            best.cycles = cycles::duration_to_ticks(dt);
            best.steals = stats.total_steals();
            best.spawns = stats.spawns;
            best.checksum = checksum;
        }
    }
    best
}

/// Runs `f` with the calling thread pinned to the lowest CPU its
/// affinity mask allows, and restores the mask afterwards, also when `f`
/// unwinds. Where the mask cannot be read or set, `f` runs unpinned.
pub fn on_one_cpu<R>(f: impl FnOnce() -> R) -> R {
    let _restore = affinity::pin_lowest();
    f()
}

#[cfg(target_os = "linux")]
mod affinity {
    use std::mem::size_of;

    /// glibc's `cpu_set_t`: one bit per CPU, 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
    }

    /// The calling thread's saved mask, restored on drop.
    pub struct Restore(CpuSet);

    impl Drop for Restore {
        fn drop(&mut self) {
            // SAFETY: pid 0 is the calling thread, the set a `cpu_set_t`.
            unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &self.0) };
        }
    }

    pub fn pin_lowest() -> Option<Restore> {
        let mut saved: CpuSet = [0; 16];
        // SAFETY: as in `Restore::drop`.
        if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut saved) } != 0 {
            return None;
        }
        let word = saved.iter().position(|&w| w != 0)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << saved[word].trailing_zeros();
        // SAFETY: as in `Restore::drop`.
        let pinned = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &one) } == 0;
        pinned.then_some(Restore(saved))
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_lowest() {}
}

/// Convenience: seconds → cycles per `n` events.
pub fn cycles_per(seconds: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        seconds * 1e9 * cycles::ticks_per_ns() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemKind;
    use workloads::{WorkloadKind, WorkloadSpec};

    #[test]
    fn measures_and_validates() {
        let spec = WorkloadSpec {
            kind: WorkloadKind::Fib,
            p1: 15,
            p2: 0,
            reps: 2,
        };
        let mut serial = System::create(SystemKind::Serial, 1);
        let mut wool = System::create(SystemKind::Wool, 2);
        let a = measure_job(&mut serial, &spec, 2);
        let b = measure_job(&mut wool, &spec, 2);
        assert!(a.seconds > 0.0 && b.seconds > 0.0);
        assert_eq!(a.checksum, b.checksum, "results must agree");
        assert_eq!(b.spawns, 2 * workloads::fib::fib_spawn_count(15));
    }

    #[test]
    fn cycles_per_handles_zero() {
        assert_eq!(cycles_per(1.0, 0), 0.0);
        assert!(cycles_per(1.0, 1_000_000) > 0.0);
    }
}
