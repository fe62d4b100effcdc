//! Per-worker state: the direct task stack and its pointers.
//!
//! Each worker owns an array of [`TaskSlot`]s managed with strict stack
//! discipline (§III-A), a [`TaskStack`]: zero-mapped at construction,
//! so a worker's start writes none of its descriptors and each page is
//! committed by the first spawn that reaches it. Two indices delimit the
//! live region:
//!
//! * `top` — the next slot the owner will spawn into. **Private to the
//!   owner** in the direct task stack (one of the paper's key points);
//!   only the Table II *base* strategy maintains the shared mirror
//!   `top_shared`.
//! * `bot` — the oldest unstolen task; thieves steal at `bot` and it is
//!   "implicitly owned by the worker that has stolen (or joined with)
//!   the task bot points to" (§III-A) — there is no lock on it in the
//!   direct task stack.
//!
//! The private-task machinery (§III-B) adds `n_public`: slots with index
//! `< n_public` are public (stealable, joined with an atomic swap);
//! slots `>= n_public` are private (joined with plain loads/stores).
//! We maintain the invariant `bot <= n_public <= top`, which under stack
//! discipline is equivalent to the paper's per-descriptor flag: the
//! public region is always a contiguous prefix of the live stack.

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::cell::UnsafeCell;

use crate::pad::CachePadded;

use crate::config::PoolConfig;
use crate::slot::{TaskSlot, TaskStack};
use crate::span::SpanState;
use crate::spinlock::SpinLock;
use crate::stats::Stats;
use crate::timebreak::{Category, TimeBreak, TimeBreakdown};

/// State touched only by the worker's own thread.
#[derive(Debug)]
pub(crate) struct OwnerState {
    /// Next slot to spawn into (the paper's private `top`).
    pub top: usize,
    /// xorshift64 state for victim selection.
    pub rng: u64,
    /// Event counters.
    pub stats: Stats,
    /// Work/span instrumentation.
    pub span: SpanState,
    /// CPU-time breakdown instrumentation.
    pub tb: TimeBreak,
    /// Region epoch this worker has most recently joined (and begun).
    pub seen_epoch: u64,
    /// Event trace ring (owner-writes-only; see `wool-trace`). Sized by
    /// the pool at construction when tracing is configured.
    #[cfg(feature = "trace")]
    pub trace: wool_trace::TraceRing,
}

impl OwnerState {
    fn new(seed: u64) -> Self {
        OwnerState {
            top: 0,
            rng: seed | 1,
            stats: Stats::default(),
            span: SpanState::default(),
            tb: TimeBreak::default(),
            seen_epoch: 0,
            // Minimal placeholder; the pool installs a ring of the
            // configured capacity before any thread starts.
            #[cfg(feature = "trace")]
            trace: wool_trace::TraceRing::new(1),
        }
    }

    /// Starts a measurement window (a batch region, or a serve worker's
    /// life): zeroes the counters and arms the instrumentation `cfg`
    /// enables, with the time breakdown starting in category `start`.
    pub fn begin(&mut self, cfg: &PoolConfig, start: Category) {
        self.stats = Stats::default();
        self.span.reset(cfg.instrument_span, cfg.span_overhead);
        self.tb.reset(cfg.instrument_time, start);
        #[cfg(feature = "trace")]
        if cfg.instrument_trace {
            self.trace.clear();
            self.trace.set_enabled(true);
        }
    }

    /// Ends the measurement window and returns its report. Stops the
    /// trace ring first, so a reader that synchronizes with the
    /// report's publication may snapshot the ring.
    pub fn finish(&mut self) -> WorkerReport {
        #[cfg(feature = "trace")]
        self.trace.set_enabled(false);
        let (work, span0, span_c) = self.span.finish();
        let mut stats = self.stats;
        // The owner joins every task it pushed exactly once, and each
        // join bumps exactly one of these counters.
        stats.spawns = stats.inlined_private + stats.inlined_public + stats.rts_joins;
        WorkerReport {
            stats,
            work,
            span0,
            span_c,
            breakdown: self.tb.finish(),
        }
    }

    /// Next pseudo-random value (xorshift64*).
    #[inline]
    pub fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Results a worker publishes at the end of a region.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WorkerReport {
    pub stats: Stats,
    pub work: u64,
    /// The worker's final spans; only worker 0's (the root's) are used.
    pub span0: u64,
    pub span_c: u64,
    pub breakdown: TimeBreakdown,
}

/// One worker: shared coordination fields plus owner-only state.
pub(crate) struct Worker {
    /// Index of the oldest unstolen task; thieves steal here.
    pub bot: CachePadded<AtomicUsize>,
    /// Exclusive upper bound of the public (stealable) region.
    pub n_public: AtomicUsize,
    /// Set by thieves to ask the owner to publish more tasks (§III-B
    /// trip wire notification).
    pub publish_request: AtomicBool,
    /// Mirror of `top` maintained only by the Table II *base* strategy.
    pub top_shared: AtomicUsize,
    /// Per-worker lock used by the lock-based strategies.
    pub lock: SpinLock,
    /// The direct task stack itself.
    pub slots: TaskStack,
    /// Owner-only state; see the `Sync` safety comment.
    pub own: UnsafeCell<OwnerState>,
    /// End-of-region report mailbox, published by the owner and read by
    /// the coordinating thread after `report_epoch` is advanced.
    pub report: UnsafeCell<WorkerReport>,
    /// Epoch whose report has been published (Release/Acquire pair with
    /// reads of `report`).
    pub report_epoch: AtomicU64,
    /// Region claim word of a batch pool's background worker: the last
    /// epoch `e` the worker joined, or `e | CLOSED` when the coordinator
    /// closed epoch `e` before the worker joined it. Written only by
    /// `PoolInner::join_region` and `PoolInner::close_region`, whose
    /// CASes decide who owns the worker's part of the region and publish
    /// no data (the report goes through `report_epoch`). They are
    /// `AcqRel` so that a worker whose join fails then reads the
    /// coordinator's `active = false`.
    pub joined: AtomicU64,
}

/// Tag bit of [`Worker::joined`]: the coordinator closed that epoch.
pub(crate) const CLOSED: u64 = 1 << 63;

// SAFETY: `own` and `report` are interior-mutable but accessed under a
// strict protocol: `own` only ever by the thread currently acting as
// this worker (there is exactly one — background workers are pinned, and
// worker 0 is driven by the single thread inside `Pool::run`, which
// holds `&mut Pool`); `report` is written by that thread and read by the
// coordinator only after it Acquire-reads a matching `report_epoch`
// value, which the owner Release-writes after the report. The one
// exception for `own` is the trace ring (feature `trace`): the
// coordinator reads `own.trace` of other workers that joined the region,
// but only after the same `report_epoch` acquire — the owner disables
// the ring and stops writing it strictly before the Release publish, so
// those reads race with nothing. It never reads the ring of a worker it
// closed out of the region. All other fields are atomics, the lock, or
// `TaskSlot`s with their own protocol.
unsafe impl Sync for Worker {}
unsafe impl Send for Worker {}

impl Worker {
    pub fn new(index: usize, capacity: usize) -> Self {
        Worker {
            bot: CachePadded::new(AtomicUsize::new(0)),
            n_public: AtomicUsize::new(0),
            publish_request: AtomicBool::new(false),
            top_shared: AtomicUsize::new(0),
            lock: SpinLock::new(),
            slots: TaskStack::new(capacity),
            own: UnsafeCell::new(OwnerState::new(
                0x9E3779B97F4A7C15u64.wrapping_mul(index as u64 + 1),
            )),
            report: UnsafeCell::new(WorkerReport::default()),
            report_epoch: AtomicU64::new(0),
            joined: AtomicU64::new(0),
        }
    }

    /// The slot at stack index `i`.
    #[inline(always)]
    pub fn slot(&self, i: usize) -> &TaskSlot {
        &self.slots[i]
    }

    /// Task-pool capacity.
    #[inline(always)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::Ordering;

    #[test]
    fn new_worker_is_quiescent() {
        let w = Worker::new(0, 64);
        assert_eq!(w.bot.load(Ordering::Relaxed), 0);
        assert_eq!(w.n_public.load(Ordering::Relaxed), 0);
        assert!(!w.publish_request.load(Ordering::Relaxed));
        assert_eq!(w.capacity(), 64);
    }

    #[test]
    fn rng_streams_differ_between_workers() {
        let a = Worker::new(0, 16);
        let b = Worker::new(1, 16);
        // SAFETY: exclusive access in test.
        let (ra, rb) = unsafe { ((*a.own.get()).next_rand(), (*b.own.get()).next_rand()) };
        assert_ne!(ra, rb);
    }

    #[test]
    fn rng_is_not_constant() {
        let w = Worker::new(3, 16);
        // SAFETY: exclusive access in test.
        let own = unsafe { &mut *w.own.get() };
        let vals: Vec<u64> = (0..8).map(|_| own.next_rand()).collect();
        let first = vals[0];
        assert!(vals.iter().any(|&v| v != first));
    }
}
