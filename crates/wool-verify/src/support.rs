//! Shared model infrastructure: the preemption bound, the harness that
//! runs `exec.rs` itself under the checker, and the injector probes.

/// CHESS-style bounded exploration: every schedule with at most
/// `preemptions` preemptions is visited. Unbounded exploration is
/// intractable for these models — each protocol step is several atomic
/// operations, and the schedule count is combinatorial in their number —
/// while small bounds (2–3) are known to retain nearly all bug-finding
/// power (Musuvathi & Qadeer, PLDI'07). `docs/VERIFICATION.md` states
/// the bound used by each suite.
pub fn bounded(preemptions: u32) -> wool_loom::Config {
    wool_loom::Config {
        preemption_bound: Some(preemptions),
        ..wool_loom::Config::default()
    }
}

/// Helpers for the models of the production fork/join/steal code,
/// driven through the `wool_core::model` harness.
#[cfg(loom)]
pub mod exec {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed}; // lint-ok: run tally outside the modeled protocol
    use std::sync::Arc;
    use wool_core::model::{stats, ModelPool, Thief};
    use wool_core::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use wool_core::sync::{hint, thread};
    use wool_core::{Stats, Strategy, WorkerHandle};

    /// The state one execution of a region model shares between the
    /// owner and the thieves: a run counter per task identity, the
    /// owner's `done` signal, and two flags a scenario can use to order
    /// one thread's steps after another's.
    ///
    /// The run counters are plain atomics, not model operations: they
    /// observe the protocol without adding scheduling points to it. A
    /// task bumps its own counter and returns its identity; the join
    /// checks both, so a join that returns before its task has run, or
    /// with the wrong result, fails at the join itself.
    pub struct Region {
        runs: Vec<AtomicUsize>,
        done: AtomicBool,
        flags: [AtomicBool; 2],
    }

    impl Region {
        fn new(tasks: usize) -> Self {
            Region {
                runs: (0..tasks).map(|_| AtomicUsize::new(0)).collect(),
                done: AtomicBool::new(false),
                flags: [AtomicBool::new(false), AtomicBool::new(false)],
            }
        }

        /// Records one run of task `id`; returns `id` as the task's
        /// result.
        pub fn run(&self, id: usize) -> usize {
            self.runs[id].fetch_add(1, Relaxed);
            id
        }

        /// Asserts, at a join, that task `id` has run exactly once.
        pub fn assert_ran(&self, id: usize) {
            let n = self.runs[id].load(Relaxed);
            assert_eq!(
                n, 1,
                "task {id} joined after {n} runs, expected exactly one"
            );
        }

        /// Asserts, at a join, that task `id` has run exactly once and
        /// its result `got` came back.
        pub fn assert_joined(&self, id: usize, got: usize) {
            self.assert_ran(id);
            assert_eq!(got, id, "join of task {id} returned another task's result");
        }

        /// Spawns task `id` (it runs [`run`](Self::run)), runs `call`
        /// inline, joins the task and checks the join with
        /// [`assert_joined`](Self::assert_joined); returns `call`'s
        /// result.
        pub fn fork<S, A, F>(&self, h: &mut WorkerHandle<S>, id: usize, call: F) -> A
        where
            S: Strategy,
            F: FnOnce(&mut WorkerHandle<S>) -> A + Send,
            A: Send,
        {
            let (a, got) = h.fork(call, |_| self.run(id));
            self.assert_joined(id, got);
            a
        }

        /// Sets flag `flag`.
        pub fn signal(&self, flag: usize) {
            self.flags[flag].store(true, SeqCst);
        }

        /// Spins until flag `flag` is set.
        pub fn wait(&self, flag: usize) {
            while !self.flags[flag].load(SeqCst) {
                hint::spin_loop();
            }
        }

        fn assert_each_once(&self) {
            for (id, n) in self.runs.iter().enumerate() {
                let n = n.load(Relaxed);
                assert_eq!(n, 1, "task {id} ran {n} times in the region, expected once");
            }
        }
    }

    /// Real steal attempts until the thief has had `max_misses`
    /// fruitless ones or, after a miss, sees the owner's `done`; returns
    /// its counters. The spin after a miss lets the explorer prune idle
    /// re-polls, and the miss cap bounds each execution's length (the
    /// DFS still chooses which owner operations the capped attempts race
    /// against). Successful steals do not count as misses.
    pub fn thief_loop<S: Strategy>(
        mut thief: Thief<S>,
        region: &Region,
        max_misses: usize,
    ) -> Stats {
        let mut misses = 0;
        loop {
            if !thief.steal() {
                misses += 1;
                if misses == max_misses || region.done.load(SeqCst) {
                    break;
                }
                hint::spin_loop();
            }
        }
        thief.stats()
    }

    /// Every steal is matched by exactly one join of a stolen task,
    /// summed over all workers (leap-frog steals included).
    fn assert_steals_joined(workers: &[Stats]) {
        let steals: u64 = workers.iter().map(|s| s.steals + s.leap_steals).sum();
        let joins: u64 = workers.iter().map(|s| s.stolen_joins).sum();
        assert_eq!(steals, joins, "steals vs stolen joins: {workers:?}");
    }

    /// The common model of one region: `root` runs as worker 0 of a
    /// `workers`-worker pool with `capacity` descriptors per worker,
    /// while each other worker runs a `thief_loop` capped at
    /// `max_misses`. See [`check_region_with`] for what is checked.
    pub fn check_region<S, F>(
        bound: u32,
        workers: usize,
        capacity: usize,
        max_misses: usize,
        tasks: usize,
        root: F,
    ) where
        S: Strategy,
        F: Fn(&mut WorkerHandle<S>, &Region) + Send + Sync + 'static,
    {
        check_region_with(
            bound,
            workers,
            capacity,
            tasks,
            move |thief, region| thief_loop(thief, region, max_misses),
            root,
        );
    }

    /// [`check_region`] with each thief running `thief` instead of a
    /// plain `thief_loop`. Checks, on top of the join-time checks the
    /// scenario makes, that each of the `tasks` tasks ran exactly once
    /// by the end of the region, that every join resolved (a hang is a
    /// checker failure), and that steals equal stolen joins.
    pub fn check_region_with<S, T, F>(
        bound: u32,
        workers: usize,
        capacity: usize,
        tasks: usize,
        thief: T,
        root: F,
    ) where
        S: Strategy,
        T: Fn(Thief<S>, &Region) -> Stats + Send + Sync + 'static,
        F: Fn(&mut WorkerHandle<S>, &Region) + Send + Sync + 'static,
    {
        let thief = Arc::new(thief);
        wool_loom::model_config(super::bounded(bound), move || {
            let (mut pool, thieves) = ModelPool::<S>::new(workers, capacity);
            let region = Arc::new(Region::new(tasks));
            let thieves: Vec<_> = thieves
                .into_iter()
                .map(|t| {
                    let (body, region) = (Arc::clone(&thief), Arc::clone(&region));
                    thread::spawn(move || body(t, &region))
                })
                .collect();
            let mut counters = vec![pool.run(|h| {
                root(h, &region);
                stats(h)
            })];
            region.done.store(true, SeqCst);
            counters.extend(thieves.into_iter().map(|t| t.join().unwrap()));
            region.assert_each_once();
            assert_steals_joined(&counters);
        });
    }
}

/// Counter-instrumented jobs for the injector and serve models: each
/// probe adds its value to a shared sum when run, and bumps `dropped` if
/// disposed unrun.
pub mod probe {
    use std::sync::Arc;
    use wool_core::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// Shared counters the probes report into.
    #[derive(Default)]
    pub struct Counters {
        /// Sum of the values of all probes that ran.
        pub sum: AtomicUsize,
        /// Number of probes that ran.
        pub ran: AtomicUsize,
        /// Number of probes disposed without running.
        pub dropped: AtomicUsize,
    }

    /// A job carrying a value; `None` once it has run.
    pub struct Probe {
        counters: Arc<Counters>,
        value: Option<usize>,
    }

    impl Probe {
        /// Runs the job: adds its value to the sum and counts the run.
        pub fn run(mut self) {
            let value = self.value.take().expect("a probe runs once");
            self.counters.sum.fetch_add(value, Relaxed);
            self.counters.ran.fetch_add(1, Relaxed);
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            if self.value.is_some() {
                self.counters.dropped.fetch_add(1, Relaxed);
            }
        }
    }

    /// Builds a probe job carrying `value`.
    pub fn probe(counters: &Arc<Counters>, value: usize) -> Probe {
        Probe {
            counters: Arc::clone(counters),
            value: Some(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wool_core::sync::atomic::Ordering::Relaxed;

    #[test]
    fn probe_runs_and_drops() {
        use std::sync::Arc;
        let c = Arc::new(probe::Counters::default());
        let q = wool_core::Injector::with_capacity(2);
        q.push(probe::probe(&c, 5)).ok().unwrap();
        q.push(probe::probe(&c, 7)).ok().unwrap();
        q.pop().unwrap().run();
        drop(q); // second probe disposed unrun
        assert_eq!(c.sum.load(Relaxed), 5);
        assert_eq!(c.ran.load(Relaxed), 1);
        assert_eq!(c.dropped.load(Relaxed), 1);
    }
}
