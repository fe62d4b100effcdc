//! Per-worker shared state: the direct task stack, its pointers, and
//! the fields other threads read or write. Everything only the owner
//! touches (`top`, counters, trace ring, rng) lives in
//! the owner's [`WorkerHandle`], and reaches other threads only through
//! the report [`Mailbox`].
//!
//! Each worker owns an array of [`TaskSlot`]s managed with strict stack
//! discipline (§III-A), a [`TaskStack`]: zero-mapped at construction,
//! so a worker's start writes none of its descriptors and each page is
//! committed by the first spawn that reaches it. Two indices delimit the
//! live region:
//!
//! * `top` — the next slot the owner will spawn into. **Private to the
//!   owner** in the direct task stack (one of the paper's key points),
//!   so it lives in the owner's `WorkerHandle`, not here; only the
//!   Table II *base* strategy maintains the shared mirror `top_shared`.
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
//!
//! [`Idle`] is the one idle escalation of every worker loop, batch and
//! serve, with its park/wake handshake.

use crate::sync::atomic::Ordering::{Relaxed, Release, SeqCst};
use crate::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize};
use crate::sync::thread::Thread;
use std::cell::UnsafeCell;
use std::sync::OnceLock;
use std::time::Duration;

use crate::pad::CachePadded;

use crate::exec::WorkerHandle;
use crate::slot::{TaskSlot, TaskStack};
use crate::spinlock::SpinLock;
use crate::stats::Stats;
use crate::strategy::Strategy;
use crate::trace::{probe, TraceRing};

/// A worker's victim-selection generator (xorshift64*), seeded from
/// the worker's index so that the workers' streams differ.
#[derive(Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    pub fn for_worker(index: usize) -> Self {
        Rng(0x9E3779B97F4A7C15u64.wrapping_mul(index as u64 + 1) | 1)
    }

    /// Next pseudo-random value.
    #[inline]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// The report mailbox: the one hand-off of owner data to another
/// thread. The owner's `publish_report` fills it with the window's
/// counters at the end of a measurement window and moves its trace ring
/// in; the coordinator reads both there; the owner's next `begin` takes
/// the ring back.
#[derive(Debug)]
pub(crate) struct Mailbox {
    pub report: Stats,
    pub trace: TraceRing,
}

/// One worker: what other threads read or write. Its owner-only state
/// lives in the owner's [`WorkerHandle`].
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
    /// End-of-region report mailbox, published by the owner and read by
    /// the coordinating thread after `report_epoch` is advanced.
    pub report: UnsafeCell<Mailbox>,
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
    /// Set while the owner parks, or is about to (see [`Idle`]).
    pub parked: CachePadded<AtomicBool>,
    /// The owner's thread, registered before its first park.
    pub thread: OnceLock<Thread>,
    /// Set when the owner's thread unwound (see [`DeadOnUnwind`]).
    pub dead: AtomicBool,
}

/// Tag bit of [`Worker::joined`]: the coordinator closed that epoch.
pub(crate) const CLOSED: u64 = 1 << 63;

// SAFETY: `report` is interior-mutable but handed over under a strict
// protocol. It belongs to the thread acting as this worker (there is
// exactly one: background workers are pinned, and worker 0 is driven by
// the single thread inside `Pool::run`, which holds `&mut Pool`), except
// between that thread's Release store of `report_epoch` in
// `WorkerHandle::publish_report` and its next `WorkerHandle::begin`.
// In that span the coordinator reads it, only after it Acquire-reads
// the matching `report_epoch`, and the owner does not touch it: a batch
// worker's next window opens only in a later region, whose `active`
// store the coordinator makes after its reads, and a serve worker has
// no next window. All other fields are atomics, the lock, the
// `OnceLock` thread handle, or `TaskSlot`s with their own protocol.
unsafe impl Sync for Worker {}
unsafe impl Send for Worker {}

impl Worker {
    /// A worker with `capacity` task descriptors; `trace` waits in its
    /// mailbox for the first measurement window.
    pub fn new(capacity: usize, trace: TraceRing) -> Self {
        Worker {
            bot: CachePadded::new(AtomicUsize::new(0)),
            n_public: AtomicUsize::new(0),
            publish_request: AtomicBool::new(false),
            top_shared: AtomicUsize::new(0),
            lock: SpinLock::new(),
            slots: TaskStack::new(capacity),
            report: UnsafeCell::new(Mailbox {
                report: Stats::default(),
                trace,
            }),
            report_epoch: AtomicU64::new(0),
            joined: AtomicU64::new(0),
            parked: CachePadded::new(AtomicBool::new(false)),
            thread: OnceLock::new(),
            dead: AtomicBool::new(false),
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

/// The idle escalation of every worker loop: spin, then yield, then
/// park. A waiter that must stay awake (a thief inside a batch region, a
/// joiner, a coordinator collecting reports, a spinlock) only
/// [`snooze`](Idle::snooze)s.
///
/// The park is one half of a Dekker handshake. The worker sets its
/// [`Worker::parked`] flag, fences, and re-checks for work. A waker makes
/// work available, then [`wake_one`](Idle::wake_one) fences and reads the
/// flags. Both fences are `SeqCst`, so either the re-check sees the work
/// or the waker sees the flag and unparks the worker. The park timeout is
/// only a safety net, for work that comes with no wake.
#[derive(Default)]
pub(crate) struct Idle {
    /// Empty rounds since work was last found.
    pub rounds: u32,
}

impl Idle {
    /// Empty rounds spent spinning before the first yield, and the round
    /// at which a worker that may park parks. Under `--cfg loom` spinning
    /// gains a model nothing, and a short escalation keeps it small.
    const SPIN: u32 = if cfg!(loom) { 1 } else { 32 };
    const PARK_AT: u32 = if cfg!(loom) { 2 } else { 64 };
    pub(crate) const PARK_TIMEOUT: Duration = Duration::from_micros(200);

    /// One empty round that must not park: spin, then yield.
    #[cfg_attr(loom, track_caller)]
    pub(crate) fn snooze(&mut self) {
        self.rounds = self.rounds.saturating_add(1);
        if self.rounds < Self::SPIN {
            crate::sync::hint::spin_loop();
        } else {
            crate::sync::thread::yield_now();
        }
    }

    /// Whether the next empty round of a waiter that may park parks.
    pub(crate) fn parks_next(&self) -> bool {
        self.rounds.saturating_add(1) >= Self::PARK_AT
    }

    /// One empty round of the worker that `h` acts as, when it may
    /// park: snooze until the park round, then park unless `has_work()`,
    /// which runs after the flag is set and fenced. The trace records
    /// `park` and `unpark` around the park itself.
    #[cfg_attr(loom, track_caller)]
    pub(crate) fn wait<S: Strategy>(
        &mut self,
        h: &mut WorkerHandle<S>,
        has_work: impl FnOnce() -> bool,
    ) {
        if !self.parks_next() {
            return self.snooze();
        }
        let wkr = h.wkr();
        wkr.thread.get_or_init(crate::sync::thread::current);
        wkr.parked.store(true, SeqCst);
        fence(SeqCst);
        if has_work() {
            wkr.parked.store(false, Relaxed);
            // The work may not be takeable yet (a submitter between its
            // cell reservation and its publish): wait for it spinning.
            self.rounds = 0;
            return;
        }
        probe!(h, Park, 0);
        crate::sync::thread::park_timeout(Self::PARK_TIMEOUT);
        wkr.parked.store(false, Relaxed);
        probe!(h, Unpark, 0);
    }

    /// Wakes one parked worker, if any; call it after making work
    /// available. Concurrent wakers claim, and wake, different workers.
    pub(crate) fn wake_one(workers: &[Worker]) {
        fence(SeqCst);
        workers.iter().any(Self::claim);
    }

    /// Wakes every parked worker.
    pub(crate) fn wake_all(workers: &[Worker]) {
        fence(SeqCst);
        for w in workers {
            Self::claim(w);
        }
    }

    /// Claims `w`'s parked flag and unparks it; false if it was not set.
    fn claim(w: &Worker) -> bool {
        let claimed = w.parked.load(Relaxed) && w.parked.swap(false, SeqCst);
        if claimed {
            // Registered before the flag store that the swap read.
            w.thread
                .get()
                .expect("parked worker is registered")
                .unpark();
        }
        claimed
    }
}

/// Marks its worker dead when its thread unwinds, so that a coordinator
/// waiting for the worker's report panics instead of waiting forever.
pub(crate) struct DeadOnUnwind<'a>(pub &'a Worker);

impl Drop for DeadOnUnwind<'_> {
    fn drop(&mut self) {
        if crate::sync::thread::panicking() {
            self.0.dead.store(true, Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::Ordering;

    #[test]
    fn new_worker_is_quiescent() {
        let w = Worker::new(64, TraceRing::default());
        assert_eq!(w.bot.load(Ordering::Relaxed), 0);
        assert_eq!(w.n_public.load(Ordering::Relaxed), 0);
        assert!(!w.publish_request.load(Ordering::Relaxed));
        assert_eq!(w.capacity(), 64);
    }

    #[test]
    fn rng_streams_differ_between_workers() {
        assert_ne!(Rng::for_worker(0).next(), Rng::for_worker(1).next());
    }

    #[test]
    fn rng_is_not_constant() {
        let mut rng = Rng::for_worker(3);
        let vals: Vec<u64> = (0..8).map(|_| rng.next()).collect();
        let first = vals[0];
        assert!(vals.iter().any(|&v| v != first));
    }
}
