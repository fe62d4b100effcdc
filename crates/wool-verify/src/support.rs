//! Shared model infrastructure: a victim-deque model that mirrors the
//! atomic-operation sequences of `wool-core/src/exec.rs` one-for-one.
//!
//! The model uses the **real** [`TaskSlot`] state word, the real state
//! constants, the real [`spin_while_empty`] loop and the real
//! [`check_transition`] guards, so a protocol change in `exec.rs` that
//! is not reflected here will usually show up as a guard firing inside
//! the models. Task *payloads* are replaced by a task-id word and an
//! execution counter per task: the properties the models assert are
//! **exactly-once execution** and **joins always resolve** (the checker
//! turns a join that can hang into a deadlock/livelock failure).
//!
//! Every function cites the `exec.rs` function it mirrors. Orderings are
//! passed through verbatim for documentation even though the explorer
//! gives every execution sequentially consistent semantics.

use wool_core::slot::{
    check_transition, is_done, is_stolen, spin_while_empty, stolen, TaskSlot, DONE, EMPTY, TASK,
};
use wool_core::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use wool_core::sync::atomic::{AtomicBool, AtomicUsize};
use wool_core::sync::hint;

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

/// Outcome of one modeled steal attempt (mirrors `StealOutcome`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// A task was stolen and executed; carries the task id.
    Executed(usize),
    /// No stealable task was observed.
    Empty,
    /// Lost a race (CAS failure or back-off); retry.
    Retry,
}

/// One victim worker's deque state, as thieves see it: the descriptor
/// array plus the `bot` / `n_public` / `publish_request` words of
/// `worker.rs`, with a task-id word and an execution counter per task
/// standing in for the closure payload.
pub struct VictimModel {
    /// The task descriptors (real state words).
    pub slots: Vec<TaskSlot>,
    /// Per-slot task id, written before the slot's `TASK` store exactly
    /// where `TaskRepr::store` writes the closure.
    pub data: Vec<AtomicUsize>,
    /// Steal frontier (`Worker::bot`).
    pub bot: AtomicUsize,
    /// Public boundary (`Worker::n_public`); unused when `private` is
    /// false.
    pub n_public: AtomicUsize,
    /// Trip-wire publication request (`Worker::publish_request`).
    pub publish_request: AtomicBool,
    /// Per-task-id execution counter; exactly-once means every entry
    /// ends at 1.
    pub executed: Vec<AtomicUsize>,
    /// Whether the modeled strategy uses private tasks (§III-B).
    pub private: bool,
    /// Slots published per trip-wire publication (`publish_batch`).
    pub publish_batch: usize,
}

impl VictimModel {
    /// A model with `nslots` descriptors and `ntasks` task identities.
    pub fn new(nslots: usize, ntasks: usize, private: bool) -> Self {
        VictimModel {
            slots: (0..nslots).map(|_| TaskSlot::default()).collect(),
            data: (0..nslots).map(|_| AtomicUsize::new(usize::MAX)).collect(),
            bot: AtomicUsize::new(0),
            n_public: AtomicUsize::new(0),
            publish_request: AtomicBool::new(false),
            executed: (0..ntasks).map(|_| AtomicUsize::new(0)).collect(),
            private,
            publish_batch: 1,
        }
    }

    /// Mirrors `WorkerHandle::try_push` (spawn). Returns the new `top`.
    ///
    /// `publish_all` corresponds to `Strategy::PUBLISH_ALL` (the
    /// `WoolAllPublic` rung, which publishes every descriptor at once).
    pub fn owner_push(&self, top: usize, id: usize, publish_all: bool) -> usize {
        let k = top;
        let slot = &self.slots[k];
        check_transition(slot, |s| !is_stolen(s), "model spawn reuses slot");
        // TaskRepr::store: the closure write, before the state store.
        self.data[k].store(id, Relaxed);
        if self.private && !publish_all {
            slot.state.store(TASK, Relaxed);
        } else {
            slot.state.store(TASK, Release);
        }
        let top = k + 1;
        if self.private {
            if publish_all {
                self.n_public.store(top, Release);
            } else if self.publish_request.load(Relaxed) {
                self.publish(top);
            }
        }
        top
    }

    /// Mirrors `WorkerHandle::publish` (§III-B trip-wire response).
    pub fn publish(&self, top: usize) {
        self.publish_request.store(false, Relaxed);
        let np = self.n_public.load(Relaxed);
        if top > np {
            self.n_public
                .store((np + self.publish_batch).min(top), Release);
        }
    }

    /// Mirrors `WorkerHandle::join_task` + `rts_join` for the `NoLock`
    /// steal protocol. Consumes the youngest task; returns the new
    /// `top`. Every blocking wait in the real code is a spin here, so a
    /// protocol hole that can hang a join is reported by the checker as
    /// a deadlock or livelock.
    pub fn owner_join(&self, top: usize) -> usize {
        let k = top - 1;
        let slot = &self.slots[k];

        if self.private && k >= self.n_public.load(Relaxed) {
            // Private fast path (join_task): wait out a transient thief,
            // then pop with plain stores.
            while slot.state.load(Relaxed) != TASK {
                hint::spin_loop();
            }
            check_transition(slot, |s| s == TASK || s == EMPTY, "model private pop");
            slot.state.store(EMPTY, Relaxed);
            self.execute(k);
            return k;
        }

        // Public fast path: one swap.
        let mut s = slot.state.swap(EMPTY, AcqRel);
        if s == TASK {
            if self.private && self.n_public.load(Relaxed) > k {
                self.n_public.store(k, Release);
            }
            self.execute(k);
            return k;
        }

        // RTS_join.
        loop {
            if s == EMPTY {
                s = spin_while_empty(slot);
            }
            if s == TASK {
                s = slot.state.swap(EMPTY, AcqRel);
                if s == TASK {
                    self.execute(k);
                    return k;
                }
                continue;
            }
            if is_stolen(s) {
                // leap_wait, reduced to its wait (the model's thieves
                // have no deques of their own to leap-frog into).
                loop {
                    let t = slot.state.load(Acquire);
                    if is_done(t) {
                        s = t;
                        break;
                    }
                    hint::spin_loop();
                }
            }
            assert!(is_done(s), "model join saw unexpected state {s}");
            if self.private && self.n_public.load(Relaxed) > k {
                self.n_public.store(k, Release);
            }
            // The thief advanced `bot`; synchronized on DONE, we own it.
            assert_eq!(
                self.bot.load(Relaxed),
                k + 1,
                "bot does not point past the joined stolen slot"
            );
            self.bot.store(k, Release);
            // finish_stolen: reading the result requires the execution
            // to have happened (exactly once) before the DONE we saw.
            let id = self.data[k].load(Relaxed);
            assert_eq!(
                self.executed[id].load(Relaxed),
                1,
                "result read without a happens-before execution"
            );
            return k;
        }
    }

    /// Mirrors `WorkerHandle::steal_nolock` (`RTS_steal`, Figure 3),
    /// including the §III-A back-off validation and the §III-B privacy
    /// clause and trip wire. `me` is the thief index.
    pub fn thief_attempt(&self, me: usize) -> Attempt {
        let b = self.bot.load(Acquire);
        if self.private {
            let np = self.n_public.load(Acquire);
            if b >= np {
                self.publish_request.store(true, Relaxed);
                return Attempt::Empty;
            }
        }
        if b >= self.slots.len() {
            return Attempt::Empty;
        }
        let slot = &self.slots[b];
        if slot.state.load(Acquire) != TASK {
            return Attempt::Empty;
        }
        if slot
            .state
            .compare_exchange(TASK, EMPTY, AcqRel, Relaxed)
            .is_err()
        {
            return Attempt::Retry;
        }
        // §III-A back-off validation.
        if self.bot.load(Acquire) != b || (self.private && self.n_public.load(Acquire) <= b) {
            // Restore only over an EMPTY: the owner may have consumed
            // this incarnation and reused the slot meanwhile.
            let _ = slot.state.compare_exchange(EMPTY, TASK, Release, Relaxed);
            return Attempt::Retry;
        }
        check_transition(slot, |s| s == EMPTY, "model STOLEN announcement");
        slot.state.store(stolen(me), Release);
        self.bot.store(b + 1, Release);
        if self.private {
            // Trip wire with trip_distance = 1.
            let np = self.n_public.load(Relaxed);
            if np.saturating_sub(b + 1) < 1 {
                self.publish_request.store(true, Relaxed);
            }
        }
        // execute_stolen: run, then publish completion.
        let id = self.data[b].load(Relaxed);
        self.executed[id].fetch_add(1, Relaxed);
        // Legal: STOLEN(me) untouched, or EMPTY if the joining owner's
        // swap already consumed the STOLEN marker and is waiting for the
        // DONE below (mirrors the exec.rs guard; the EMPTY case is the
        // interleaving this model originally caught).
        let mine = stolen(me);
        check_transition(
            slot,
            move |s| s == mine || s == EMPTY,
            "model completion publish",
        );
        slot.state.store(DONE, Release);
        Attempt::Executed(id)
    }

    /// Records an inline execution of the task in slot `k`.
    fn execute(&self, k: usize) {
        let id = self.data[k].load(Relaxed);
        self.executed[id].fetch_add(1, Relaxed);
    }

    /// Asserts the exactly-once property over every task identity.
    pub fn assert_each_executed_once(&self) {
        for (id, n) in self.executed.iter().enumerate() {
            assert_eq!(
                n.load(Relaxed),
                1,
                "task {id} executed {} times, expected exactly once",
                n.load(Relaxed)
            );
        }
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

    /// The model functions are plain sequential code outside a checker
    /// run; a smoke test keeps them honest under `cargo test` without
    /// `--cfg loom`.
    #[test]
    fn sequential_push_join_roundtrip() {
        let m = VictimModel::new(2, 2, true);
        let top = m.owner_push(0, 0, false);
        let top = m.owner_push(top, 1, false);
        let top = m.owner_join(top);
        let top = m.owner_join(top);
        assert_eq!(top, 0);
        m.assert_each_executed_once();
    }

    #[test]
    fn sequential_steal_then_join() {
        let m = VictimModel::new(1, 1, true);
        let top = m.owner_push(0, 0, true);
        assert_eq!(m.thief_attempt(3), Attempt::Executed(0));
        let _ = m.owner_join(top);
        m.assert_each_executed_once();
    }

    #[test]
    fn privacy_miss_requests_publication() {
        let m = VictimModel::new(1, 1, true);
        let top = m.owner_push(0, 0, false);
        assert_eq!(m.thief_attempt(3), Attempt::Empty);
        assert!(m.publish_request.load(Relaxed));
        // The next owner push (or an explicit publish) honors it.
        m.publish(top);
        assert_eq!(m.n_public.load(Relaxed), 1);
        assert_eq!(m.thief_attempt(3), Attempt::Executed(0));
        let _ = m.owner_join(top);
        m.assert_each_executed_once();
    }

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
