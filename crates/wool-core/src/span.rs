//! Online work/span (critical path) instrumentation.
//!
//! Reproduces the paper's "span (critical path length) measurement
//! facility in the Wool run time system" that produces the two
//! *Parallelism* columns of Table I:
//!
//! * column "0": parallelism `T_1 / T_inf` in the abstract model where
//!   load balancing costs nothing;
//! * column "2000": a realistic model where "potentially parallel
//!   computations are assumed to be executed sequentially if the savings
//!   from parallel execution are less than 2000 cycles. Otherwise, they
//!   are assumed to be executed in parallel with an extra cost of 2000
//!   cycles added".
//!
//! Both are computed online, during a (single- or multi-worker) run, by
//! the recurrence applied at each join of spans `a` and `b` under cost
//! `C`:
//!
//! ```text
//! span_C(a || b) = min(a + b,  max(a, b) + C)
//! ```
//!
//! which chooses sequential execution exactly when the parallel saving
//! `a + b - max(a, b)` is below `C`. With `C = 0` this degenerates to
//! `max(a, b)`, the classic span. Work (`T_1`) accumulates leaf time.
//!
//! Leaf time is measured with the cycle counter between scheduler
//! events: every fork/join boundary *flushes* the time since the last
//! mark into the running accumulators.

use crate::cycles;

/// The realistic overhead model's per-parallel-computation cost, in
/// cycles (the paper's 2000).
pub const DEFAULT_OVERHEAD_CYCLES: u64 = 2000;

/// Per-worker span instrumentation state.
///
/// Disabled state costs one predictable branch per fork: `fork` reads
/// `enabled` once and runs an uninstrumented copy of its body.
#[derive(Debug, Clone, Default)]
pub struct SpanState {
    /// Whether instrumentation is active for the current run.
    pub enabled: bool,
    /// Total measured work on this worker (cycles of leaf time).
    pub work: u64,
    /// Running span with `C = 0` for the computation currently being
    /// accumulated (since the last reset point).
    pub span0: u64,
    /// Running span with `C = DEFAULT_OVERHEAD_CYCLES`.
    pub span_c: u64,
    /// Cycle timestamp of the last flush.
    pub mark: u64,
}

/// Saved parent accumulators across a fork (lives on the native stack).
#[derive(Debug, Clone, Copy)]
pub struct SpanFrame {
    parent0: u64,
    parent_c: u64,
}

impl SpanState {
    /// Resets the accumulators at the start of an instrumented run.
    pub fn reset(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.work = 0;
        self.span0 = 0;
        self.span_c = 0;
        self.mark = cycles::now();
    }

    /// Adds the leaf time since the last mark to work and both spans.
    #[inline]
    pub fn flush(&mut self) {
        let now = cycles::now();
        let d = now.wrapping_sub(self.mark);
        self.work += d;
        self.span0 += d;
        self.span_c += d;
        self.mark = now;
    }

    /// Called at a fork, before running the first branch: flushes the
    /// leaf segment, saves the parent's accumulated span and starts a
    /// fresh accumulation for branch `a`.
    #[inline]
    pub fn fork_start(&mut self) -> SpanFrame {
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
    /// restarting accumulation from zero. Called after the direct call
    /// `a` and after each join: an inlined branch accumulated in place, a
    /// stolen one was copied in from its descriptor by the join.
    #[inline]
    pub fn take_branch(&mut self) -> (u64, u64) {
        self.flush();
        let b = (self.span0, self.span_c);
        self.span0 = 0;
        self.span_c = 0;
        b
    }

    /// Called at the join: combines the parent span with the two branch
    /// spans under both cost models and resumes the parent accumulation.
    #[inline]
    pub fn fork_join(&mut self, frame: SpanFrame, a: (u64, u64), b: (u64, u64)) {
        self.span0 = frame.parent0 + combine(a.0, b.0, 0);
        self.span_c = frame.parent_c + combine(a.1, b.1, DEFAULT_OVERHEAD_CYCLES);
        self.mark = cycles::now();
    }

    /// Snapshot of `(work, span0, span_c)` after a final flush.
    pub fn finish(&mut self) -> (u64, u64, u64) {
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
        let mut s = SpanState::default();
        s.reset(true);
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
        let mut s = SpanState::default();
        s.reset(true);
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
        let mut s = SpanState::default();
        s.reset(true);
        s.mark = cycles::now();
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
