//! Work and span (critical path) of a fork-join program.
//!
//! Reproduces the paper's span measurement behind the two *Parallelism*
//! columns of Table I:
//!
//! * column "0": parallelism `T_1 / T_inf` in the abstract model where
//!   load balancing costs nothing;
//! * column "2000": a realistic model where "potentially parallel
//!   computations are assumed to be executed sequentially if the savings
//!   from parallel execution are less than 2000 cycles. Otherwise, they
//!   are assumed to be executed in parallel with an extra cost of 2000
//!   cycles added".
//!
//! Both are properties of the program's task DAG, not of a scheduler,
//! so [`measure`] runs a [`Fork`]-generic program serially on a
//! [`SpanCtx`], in the order a one-worker pool runs it: the call branch
//! of a fork, then its spawned branch; iteration 0 of a
//! `for_each_spawn`, then the spawned iterations in LIFO order. The
//! context reports worker 0 of 1, so a data-parallel splitter builds the
//! same DAG as on a one-worker pool. At each join of spans `a` and `b`
//! under cost `C` it applies the recurrence
//!
//! ```text
//! span_C(a || b) = min(a + b,  max(a, b) + C)
//! ```
//!
//! which chooses sequential execution exactly when the parallel saving
//! `a + b - max(a, b)` is below `C`. With `C = 0` this degenerates to
//! `max(a, b)`, the classic span. Work (`T_1`) accumulates leaf time.
//!
//! Leaf time is measured with the cycle counter between fork/join
//! events: every boundary *flushes* the time since the last mark into
//! the running accumulators. The counter keeps ticking while the thread
//! is descheduled, so a preempted leaf inflates both work and span.

use crate::api::Fork;
use crate::cycles;

/// The realistic overhead model's per-parallel-computation cost, in
/// cycles (the paper's 2000).
pub const DEFAULT_OVERHEAD_CYCLES: u64 = 2000;

/// Runs `f` on a fresh [`SpanCtx`] and returns its result together
/// with the measured work and spans.
pub fn measure<R>(f: impl FnOnce(&mut SpanCtx) -> R) -> (R, SpanReport) {
    let mut ctx = SpanCtx {
        state: SpanState::start(),
        tasks: 0,
    };
    let r = f(&mut ctx);
    let (work, span0, span_c) = ctx.state.finish();
    let report = SpanReport {
        work,
        span0,
        span_c,
        tasks: ctx.tasks,
    };
    (r, report)
}

/// What [`measure`] measured, in cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanReport {
    /// Total work `T_1`: the program's leaf time.
    pub work: u64,
    /// Span with zero scheduling overhead (`T_inf`, Table I column "0").
    pub span0: u64,
    /// Span under the realistic overhead model (Table I column "2000").
    pub span_c: u64,
    /// Tasks a pool would spawn for the program (`N_T`): one per fork,
    /// `n - 1` per `for_each_spawn(n, ..)`.
    pub tasks: u64,
}

impl SpanReport {
    /// Parallelism `T_1 / T_inf` in the zero-overhead model.
    pub fn parallelism0(&self) -> f64 {
        self.work as f64 / self.span0.max(1) as f64
    }

    /// Parallelism under the realistic overhead model.
    pub fn parallelism_c(&self) -> f64 {
        self.work as f64 / self.span_c.max(1) as f64
    }
}

/// The serial span-measuring [`Fork`] context of [`measure`].
#[derive(Debug)]
pub struct SpanCtx {
    state: SpanState,
    tasks: u64,
}

impl Fork for SpanCtx {
    fn fork<RA, RB, FA, FB>(&mut self, a: FA, b: FB) -> (RA, RB)
    where
        FA: FnOnce(&mut Self) -> RA + Send,
        FB: FnOnce(&mut Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        self.tasks += 1;
        let frame = self.state.fork_start();
        let ra = a(self);
        let a_span = self.state.take_branch();
        let rb = b(self);
        let b_span = self.state.take_branch();
        self.state.fork_join(frame, a_span, b_span);
        (ra, rb)
    }

    fn for_each_spawn<F>(&mut self, n: usize, body: &F)
    where
        F: Fn(&mut Self, usize) + Sync,
    {
        if n == 0 {
            return;
        }
        self.tasks += n as u64 - 1;
        let frame = self.state.fork_start();
        body(self, 0);
        // Each joined iteration folds into the direct call's span as a
        // parallel sibling.
        let mut folded = self.state.take_branch();
        for i in (1..n).rev() {
            body(self, i);
            let s = self.state.take_branch();
            folded = (
                combine(folded.0, s.0, 0),
                combine(folded.1, s.1, DEFAULT_OVERHEAD_CYCLES),
            );
        }
        self.state.fork_join(frame, folded, (0, 0));
    }
}

/// The running accumulators of a [`SpanCtx`].
#[derive(Debug, Clone, Default)]
struct SpanState {
    /// Total measured work (cycles of leaf time).
    work: u64,
    /// Running span with `C = 0` for the computation currently being
    /// accumulated (since the last reset point).
    span0: u64,
    /// Running span with `C = DEFAULT_OVERHEAD_CYCLES`.
    span_c: u64,
    /// Cycle timestamp of the last flush.
    mark: u64,
}

/// Saved parent accumulators across a fork (lives on the native stack).
#[derive(Debug, Clone, Copy)]
struct SpanFrame {
    parent0: u64,
    parent_c: u64,
}

impl SpanState {
    /// Empty accumulators, marked now.
    fn start() -> Self {
        SpanState {
            mark: cycles::now(),
            ..SpanState::default()
        }
    }

    /// Adds the leaf time since the last mark to work and both spans.
    fn flush(&mut self) {
        let now = cycles::now();
        let d = now.wrapping_sub(self.mark);
        self.work += d;
        self.span0 += d;
        self.span_c += d;
        self.mark = now;
    }

    /// Called at a fork, before running the first branch: flushes the
    /// leaf segment, saves the parent's accumulated span and starts a
    /// fresh accumulation for the first branch.
    fn fork_start(&mut self) -> SpanFrame {
        self.flush();
        let f = SpanFrame {
            parent0: self.span0,
            parent_c: self.span_c,
        };
        self.span0 = 0;
        self.span_c = 0;
        f
    }

    /// Ends the accumulation of one branch and returns its spans,
    /// restarting accumulation from zero.
    fn take_branch(&mut self) -> (u64, u64) {
        self.flush();
        let b = (self.span0, self.span_c);
        self.span0 = 0;
        self.span_c = 0;
        b
    }

    /// Called at the join: combines the parent span with the two branch
    /// spans under both cost models and resumes the parent accumulation.
    fn fork_join(&mut self, frame: SpanFrame, a: (u64, u64), b: (u64, u64)) {
        self.span0 = frame.parent0 + combine(a.0, b.0, 0);
        self.span_c = frame.parent_c + combine(a.1, b.1, DEFAULT_OVERHEAD_CYCLES);
        self.mark = cycles::now();
    }

    /// `(work, span0, span_c)` after a final flush.
    fn finish(&mut self) -> (u64, u64, u64) {
        self.flush();
        (self.work, self.span0, self.span_c)
    }
}

/// The span recurrence: parallel composition of spans `a` and `b` under
/// per-parallel-region cost `c`.
#[inline]
pub fn combine(a: u64, b: u64, c: u64) -> u64 {
    let sequential = a + b;
    let parallel = a.max(b).saturating_add(c);
    sequential.min(parallel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_zero_cost_is_max() {
        assert_eq!(combine(10, 20, 0), 20);
        assert_eq!(combine(20, 10, 0), 20);
        assert_eq!(combine(0, 0, 0), 0);
    }

    #[test]
    fn combine_prefers_sequential_for_small_savings() {
        // Savings = a + b - max(a,b) = min(a,b). With min < c, sequential.
        assert_eq!(combine(100, 5, 2000), 105);
        // With min >= c... parallel is max + c when that is smaller.
        assert_eq!(combine(10_000, 9_000, 2000), 12_000);
        // Exactly at the boundary parallel == sequential.
        assert_eq!(combine(4000, 2000, 2000), 6000);
    }

    #[test]
    fn combine_is_commutative() {
        for (a, b, c) in [(5, 9, 3), (0, 7, 100), (1000, 1000, 1)] {
            assert_eq!(combine(a, b, c), combine(b, a, c));
        }
    }

    #[test]
    fn fork_join_accumulates_parent() {
        let mut s = SpanState::start();
        let frame = s.fork_start();
        // Pretend branch a took 5000 cycles, b took 4000.
        let joined_frame = frame;
        s.fork_join(joined_frame, (5000, 5000), (4000, 4000));
        // span0 = max(5000,4000) = 5000; span_c = 5000 + 2000 = 7000.
        assert!(s.span0 >= 5000);
        assert!(s.span_c >= 7000);
        // Parallelism with zero overhead >= with 2000 overhead.
        assert!(s.span0 <= s.span_c);
    }

    #[test]
    fn measured_serial_loop_gives_positive_work() {
        let mut s = SpanState::start();
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x = x.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(x);
        let (work, span0, span_c) = s.finish();
        assert!(work > 0);
        // A purely serial computation has span == work.
        assert_eq!(work, span0);
        assert_eq!(work, span_c);
    }

    #[test]
    fn measure_follows_one_worker_order() {
        let order = std::sync::Mutex::new(Vec::new());
        let ((), r) = measure(|c| {
            assert_eq!((c.worker_index(), c.num_workers()), (0, 1));
            c.for_each_spawn(4, &|c, i| {
                order.lock().unwrap().push(i);
                let ((), ()) = c.fork(|_| {}, |_| {});
            });
        });
        // Iteration 0 is the direct call; the spawned ones join LIFO.
        assert_eq!(order.into_inner().unwrap(), [0, 3, 2, 1]);
        assert_eq!(r.tasks, 3 + 4);
        assert!(r.span0 <= r.span_c && r.span_c <= r.work);
    }

    #[test]
    fn nested_balanced_tree_parallelism_grows() {
        // Simulate a balanced binary tree of unit-leaf tasks and verify
        // parallelism T1/Tinf approaches the leaf count with C=0.
        fn tree(s: &mut SpanState, depth: u32, leaf: u64) -> (u64, u64) {
            if depth == 0 {
                s.work += leaf;
                return (leaf, leaf);
            }
            let a = tree(s, depth - 1, leaf);
            let b = tree(s, depth - 1, leaf);
            (
                combine(a.0, b.0, 0),
                combine(a.1, b.1, DEFAULT_OVERHEAD_CYCLES),
            )
        }
        let mut s = SpanState::start();
        let (span0, span_c) = tree(&mut s, 10, 10_000);
        let work = s.work;
        let par0 = work as f64 / span0 as f64;
        let par_c = work as f64 / span_c as f64;
        assert!((par0 - 1024.0).abs() < 1.0, "ideal parallelism {par0}");
        // The realistic model reports less parallelism.
        assert!(par_c < par0);
        assert!(par_c > 100.0, "still substantially parallel: {par_c}");
    }
}
