//! Pool configuration.

use crate::trace::TraceLevel;

/// Largest accepted worker count. A thief's index is encoded in a task
/// state word as `STOLEN_BASE + i`, which this bound keeps below the
/// smallest task word, `TASK_MIN`.
pub(crate) const MAX_WORKERS: usize = crate::slot::TASK_MIN - crate::slot::STOLEN_BASE;

/// Configuration for a [`crate::Pool`] or a [`ServePool`](crate::ServePool).
///
/// Idling is not configurable. Every idle worker, batch or serve, spins
/// for 32 empty rounds, yields until round 64, and then parks (only
/// between regions, for a batch worker) until work is published for it
/// or 200 µs pass.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Total number of workers, including the thread that calls
    /// [`crate::Pool::run`]. Must be at least 1.
    pub workers: usize,
    /// Task-pool capacity per worker, in task descriptors. A spawn that
    /// would overflow the pool executes its task eagerly instead
    /// (counted in [`crate::Stats::overflow_inlines`]).
    ///
    /// The capacity bounds nesting depth and reserves address space
    /// (128 bytes per descriptor); memory is committed a page at a time
    /// on first use, 32 descriptors per 4 KiB page, so a deep reserve
    /// costs only the pages the program's nesting reaches.
    pub stack_capacity: usize,
    /// §III-B trip wire: when a steal lands within this many descriptors
    /// of the public boundary, the thief requests publication.
    pub trip_distance: usize,
    /// How many additional descriptors the owner publishes per request.
    pub publish_batch: usize,
    /// What each worker records in its event trace ring: nothing (the
    /// default), the Figure 6 breakdown kinds, or every kind. Kinds
    /// other than the breakdown kinds record only in a build with the
    /// `trace` cargo feature ([`crate::trace::TRACE`]).
    pub trace: TraceLevel,
    /// Per-worker trace ring capacity, in events. When a run records
    /// more, the oldest events are overwritten (and counted as dropped
    /// in the collected trace).
    pub trace_capacity: usize,
    /// Capacity of the global injector queue of a serve-mode pool
    /// ([`ServePool`](crate::ServePool)), in jobs; rounded up to a power of two. Batch
    /// pools never allocate or touch the injector.
    pub injector_capacity: usize,
}

impl Default for PoolConfig {
    /// The defaults with [`default_workers`] workers. This asks the host
    /// for its parallelism (on Linux it reads cgroup files); a caller
    /// that knows its worker count should use
    /// [`with_workers`](PoolConfig::with_workers), which does not.
    fn default() -> Self {
        PoolConfig::with_workers(default_workers())
    }
}

impl PoolConfig {
    /// A configuration with `workers` workers and defaults otherwise.
    /// The defaults are written here, once; unlike
    /// [`Default::default`], this does not ask the host for its
    /// parallelism.
    pub fn with_workers(workers: usize) -> Self {
        PoolConfig {
            workers,
            stack_capacity: 8192,
            trip_distance: 2,
            publish_batch: 4,
            trace: TraceLevel::Off,
            trace_capacity: 1 << 20,
            injector_capacity: 1024,
        }
    }

    /// Builder-style: sets the task-pool capacity (see the field of the
    /// same name: capacity reserves address space, not memory).
    pub fn stack_capacity(mut self, cap: usize) -> Self {
        self.stack_capacity = cap;
        self
    }

    /// Builder-style: sets what the workers' trace rings record.
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Builder-style: sets the per-worker trace ring capacity.
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events;
        self
    }

    /// Builder-style: sets the serve-mode injector queue capacity.
    pub fn injector_capacity(mut self, jobs: usize) -> Self {
        self.injector_capacity = jobs;
        self
    }

    /// Validates the configuration, normalizing degenerate values.
    ///
    /// # Panics
    /// Panics when `workers == 0`: a pool needs at least one worker —
    /// there is no thread that could ever run a task. (Both
    /// `Pool::with_config` and `ServePool::with_config` funnel
    /// through here, so the rejection is uniform.)
    pub fn validated(mut self) -> Self {
        assert!(
            self.workers >= 1,
            "invalid PoolConfig: workers == 0, but a pool needs at least one worker \
             (use PoolConfig::with_workers(n) with n >= 1, or default_workers())"
        );
        assert!(
            self.workers <= MAX_WORKERS,
            "invalid PoolConfig: more than MAX_WORKERS workers"
        );
        self.stack_capacity = self.stack_capacity.max(16);
        self.publish_batch = self.publish_batch.max(1);
        self.trip_distance = self.trip_distance.max(1);
        self.trace_capacity = self.trace_capacity.max(1);
        self.injector_capacity = self.injector_capacity.max(2);
        self
    }
}

/// Default worker count: available parallelism, capped for sanity.
pub fn default_workers() -> usize {
    crate::sync::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PoolConfig::default().validated();
        assert!(c.workers >= 1);
        assert!(c.stack_capacity >= 16);
        assert!(c.publish_batch >= 1);
        assert!(c.trip_distance >= 1);
    }

    #[test]
    fn builder_chains() {
        let c = PoolConfig::with_workers(3).stack_capacity(64).validated();
        assert_eq!(c.workers, 3);
        assert_eq!(c.stack_capacity, 64);
    }

    #[test]
    fn trace_builders() {
        let c = PoolConfig::with_workers(1)
            .trace(TraceLevel::Breakdown)
            .trace_capacity(0)
            .validated();
        assert_eq!(c.trace, TraceLevel::Breakdown);
        assert_eq!(c.trace_capacity, 1, "degenerate capacity normalized");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = PoolConfig::with_workers(0).validated();
    }

    #[test]
    #[should_panic(expected = "MAX_WORKERS")]
    fn too_many_workers_rejected() {
        let _ = PoolConfig::with_workers(MAX_WORKERS + 1).validated();
    }

    #[test]
    fn most_workers_accepted() {
        assert_eq!(
            PoolConfig::with_workers(MAX_WORKERS).validated().workers,
            MAX_WORKERS
        );
    }

    #[test]
    fn with_workers_matches_default_field_for_field() {
        for n in [1, 2, 7] {
            let from_default = PoolConfig {
                workers: n,
                ..PoolConfig::default()
            };
            assert_eq!(
                format!("{:?}", PoolConfig::with_workers(n)),
                format!("{from_default:?}")
            );
        }
    }

    #[test]
    fn injector_capacity_builder() {
        let c = PoolConfig::with_workers(2).injector_capacity(3).validated();
        assert_eq!(c.injector_capacity, 3, "rounded later, by the queue");
    }

    #[test]
    fn degenerate_capacity_normalized() {
        let c = PoolConfig::with_workers(1).stack_capacity(0).validated();
        assert!(c.stack_capacity >= 16);
    }
}
