//! # wool-trace — timeline tracing for the direct task stack scheduler
//!
//! The aggregate counters in `wool-core::Stats` say *how many* steals,
//! publishes and back-offs a run performed; this crate records *when*
//! each of them happened and *who* was involved, so the protocol can be
//! inspected on a timeline (the observability the paper's §V evaluation
//! methodology is built on).
//!
//! Design constraints, in order:
//!
//! 1. **Owner-writes-only.** Each worker records into its own
//!    [`TraceRing`], which lives inside the worker's owner-private
//!    state. Recording is two plain stores and an increment — no
//!    atomics, no sharing, no allocation. The coordinator reads the
//!    rings only after it has observed the worker's end-of-run report
//!    publication (an acquire on `report_epoch` in `wool-core`), which
//!    orders every prior plain store.
//! 2. **Fixed capacity, newest-wins.** The ring never reallocates; when
//!    it wraps, the oldest events are overwritten and counted in
//!    `dropped`. Sequence numbers stay monotone across wraps.
//! 3. **Compiled out when unused.** This crate is only linked under the
//!    `trace` cargo feature of `wool-core`; the recording macro there
//!    expands to nothing without it.
//!
//! The offline side ([`Trace`]) merges per-worker snapshots and offers
//! a Chrome/Perfetto JSON exporter ([`Trace::to_chrome_json`]) plus an
//! analysis pass ([`Trace::analyze`]) computing the steal graph,
//! steal-interval histograms and per-worker utilization timelines.

#![warn(missing_docs)]

use std::collections::BTreeMap;

use minijson::Json;

pub use minijson;

pub mod analysis;
pub mod chrome;

pub use analysis::{Analysis, StealEdge, WorkerUtilization};

/// What happened. The `arg` field of [`Event`] is kind-specific (see
/// each variant's doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A task was pushed onto the owner's task stack. `arg` = stack
    /// depth after the push.
    Spawn = 0,
    /// A join resolved on the private fast path (task above the public
    /// boundary; no synchronization). `arg` = stack depth.
    JoinFastPrivate = 1,
    /// A join resolved on the public fast path (atomic swap saw the
    /// task unstolen). `arg` = stack depth.
    JoinFastPublic = 2,
    /// A join found its task stolen and entered the slow path. `arg` =
    /// the thief's worker index.
    JoinSlow = 3,
    /// A steal attempt started on a victim. `arg` = victim index.
    StealAttempt = 4,
    /// A steal attempt succeeded. `arg` = victim index.
    StealSuccess = 5,
    /// A steal attempt did not acquire a task — empty victim, lost
    /// race, or back-off. `arg` = victim index.
    StealFail = 6,
    /// A steal attempt backed off after losing a race or seeing the
    /// victim's state move. `arg` = victim index.
    Backoff = 7,
    /// The owner made private tasks stealable. `arg` = number of tasks
    /// published.
    Publish = 8,
    /// A thief asked a victim with only private tasks to publish
    /// (tripped the wire). `arg` = victim index.
    PublishRequest = 9,
    /// A blocked joiner started leapfrogging: stealing back from the
    /// thief that holds its task. `arg` = the thief's worker index.
    Leapfrog = 10,
    /// The worker ran out of local work and entered the steal loop.
    /// `arg` = 0.
    Idle = 11,
    /// The worker is about to park its thread, waiting for work.
    /// `arg` = 0.
    Park = 12,
    /// The worker's park returned (woken or timed out); follows its
    /// `Park`. `arg` = 0.
    Unpark = 13,
    /// A root job was pushed into the serve pool's global injector.
    /// Recorded by the *dequeuing* worker (rings are owner-writes-only)
    /// with the submission timestamp the job carried, so queueing
    /// latency is visible on the exported timeline. `arg` = job tag.
    Inject = 14,
    /// A root job was popped from the global injector by this worker.
    /// `arg` = job tag.
    Dequeue = 15,
    /// A root job ran to completion on this worker. `arg` = job tag.
    JobDone = 16,
    /// A data-parallel splitter (`wool-par`) forked a range in half.
    /// `arg` = range length (in items) before the split, saturated to
    /// `u32::MAX`.
    Split = 17,
}

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; 18] = [
        EventKind::Spawn,
        EventKind::JoinFastPrivate,
        EventKind::JoinFastPublic,
        EventKind::JoinSlow,
        EventKind::StealAttempt,
        EventKind::StealSuccess,
        EventKind::StealFail,
        EventKind::Backoff,
        EventKind::Publish,
        EventKind::PublishRequest,
        EventKind::Leapfrog,
        EventKind::Idle,
        EventKind::Park,
        EventKind::Unpark,
        EventKind::Inject,
        EventKind::Dequeue,
        EventKind::JobDone,
        EventKind::Split,
    ];

    /// Stable lowercase name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Spawn => "spawn",
            EventKind::JoinFastPrivate => "join_fast_private",
            EventKind::JoinFastPublic => "join_fast_public",
            EventKind::JoinSlow => "join_slow",
            EventKind::StealAttempt => "steal_attempt",
            EventKind::StealSuccess => "steal_success",
            EventKind::StealFail => "steal_fail",
            EventKind::Backoff => "backoff",
            EventKind::Publish => "publish",
            EventKind::PublishRequest => "publish_request",
            EventKind::Leapfrog => "leapfrog",
            EventKind::Idle => "idle",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::Inject => "inject",
            EventKind::Dequeue => "dequeue",
            EventKind::JobDone => "job_done",
            EventKind::Split => "split",
        }
    }

    /// Whether `arg` names another worker (victim or thief).
    pub fn arg_is_worker(self) -> bool {
        matches!(
            self,
            EventKind::JoinSlow
                | EventKind::StealAttempt
                | EventKind::StealSuccess
                | EventKind::StealFail
                | EventKind::Backoff
                | EventKind::PublishRequest
                | EventKind::Leapfrog
        )
    }
}

/// One recorded scheduler event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Per-worker sequence number, monotone from 0, never reset by
    /// wraparound.
    pub seq: u64,
    /// Timestamp in CPU cycles (the scheduler's `cycles::now()`).
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific argument (victim/thief index, depth, count).
    pub arg: u32,
}

/// A fixed-capacity, owner-writes-only ring of [`Event`]s.
///
/// Not `Sync` and not meant to be: exactly one thread writes, and
/// readers take a [`snapshot`](TraceRing::snapshot) only after an
/// external happens-before edge (the worker's report publication).
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<Event>,
    /// Next sequence number == total events ever recorded.
    seq: u64,
    /// Recording gate; when false, [`TraceRing::record`] is a no-op.
    enabled: bool,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events (rounded up to
    /// 1). Recording starts disabled.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            buf: Vec::with_capacity(capacity.max(1)),
            seq: 0,
            enabled: false,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Forgets all recorded events and restarts sequence numbers.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.seq = 0;
    }

    /// Records one event. Owner thread only; two stores and an add on
    /// the hot path, no allocation after the ring has filled once.
    #[inline]
    pub fn record(&mut self, kind: EventKind, ts: u64, arg: u32) {
        if !self.enabled {
            return;
        }
        let ev = Event {
            seq: self.seq,
            ts,
            kind,
            arg,
        };
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            let cap = self.buf.capacity() as u64;
            let idx = (self.seq % cap) as usize;
            self.buf[idx] = ev;
        }
        self.seq += 1;
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Events lost to wraparound.
    pub fn dropped(&self) -> u64 {
        self.seq - self.buf.len() as u64
    }

    /// Copies the retained events out, oldest first, tagged with the
    /// recording worker's index.
    pub fn snapshot(&self, worker: usize) -> WorkerTrace {
        let mut events = self.buf.clone();
        // After wraparound the vector is rotated; seq order restores
        // chronological order.
        events.sort_by_key(|e| e.seq);
        WorkerTrace {
            worker,
            events,
            dropped: self.dropped(),
        }
    }
}

/// The retained events of one worker.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Worker index.
    pub worker: usize,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring wraparound.
    pub dropped: u64,
}

/// A merged multi-worker trace, plus the cycle-to-nanosecond scale
/// needed to export wall-clock timestamps.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-worker snapshots, indexed by worker.
    pub workers: Vec<WorkerTrace>,
    /// CPU cycles per nanosecond (from the scheduler's calibration).
    pub ticks_per_ns: f64,
}

impl Trace {
    /// Merges per-worker snapshots. `ticks_per_ns` converts event
    /// timestamps to wall-clock time on export.
    pub fn new(workers: Vec<WorkerTrace>, ticks_per_ns: f64) -> Self {
        Trace {
            workers,
            ticks_per_ns,
        }
    }

    /// Total retained events across workers.
    pub fn len(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events lost to wraparound across workers.
    pub fn dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// The earliest timestamp in the trace, used as the zero point on
    /// export.
    pub fn epoch(&self) -> Option<u64> {
        self.workers
            .iter()
            .flat_map(|w| w.events.iter().map(|e| e.ts))
            .min()
    }

    /// Counts retained events per kind.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for w in &self.workers {
            for e in &w.events {
                *m.entry(e.kind.name()).or_insert(0) += 1;
            }
        }
        m
    }

    /// Counts retained events of one kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.workers
            .iter()
            .flat_map(|w| w.events.iter())
            .filter(|e| e.kind == kind)
            .count() as u64
    }

    /// Exports the Chrome/Perfetto trace-event document. See
    /// [`chrome::to_chrome_json`].
    pub fn to_chrome_json(&self) -> Json {
        chrome::to_chrome_json(self)
    }

    /// Runs the offline analysis pass. See [`analysis`].
    pub fn analyze(&self) -> Analysis {
        analysis::analyze(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_ring(cap: usize, n: u64) -> TraceRing {
        let mut r = TraceRing::new(cap);
        r.set_enabled(true);
        for i in 0..n {
            r.record(EventKind::Spawn, 1000 + i, i as u32);
        }
        r
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = TraceRing::new(8);
        r.record(EventKind::Spawn, 1, 0);
        assert_eq!(r.recorded(), 0);
        assert!(r.snapshot(0).events.is_empty());
    }

    #[test]
    fn fills_without_dropping_below_capacity() {
        let r = filled_ring(8, 5);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 0);
        let snap = r.snapshot(3);
        assert_eq!(snap.worker, 3);
        assert_eq!(snap.events.len(), 5);
        assert!(snap.events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }

    #[test]
    fn wraparound_keeps_newest_and_monotone_seq() {
        let r = filled_ring(8, 21);
        assert_eq!(r.recorded(), 21);
        assert_eq!(r.dropped(), 21 - 8);
        let snap = r.snapshot(0);
        assert_eq!(snap.events.len(), 8);
        // Newest 8 events survive: seqs 13..=20, in order.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (13..=20).collect::<Vec<_>>());
        // Payloads moved with them.
        assert!(snap.events.iter().all(|e| e.arg as u64 == e.seq));
        assert!(snap.events.iter().all(|e| e.ts == 1000 + e.seq));
    }

    #[test]
    fn clear_resets_seq() {
        let mut r = filled_ring(4, 10);
        r.clear();
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.dropped(), 0);
        r.record(EventKind::Idle, 5, 0);
        assert_eq!(r.snapshot(0).events[0].seq, 0);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let r = filled_ring(0, 3);
        assert_eq!(r.capacity(), 1);
        let snap = r.snapshot(0);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].seq, 2);
        assert_eq!(snap.dropped, 2);
    }

    /// Randomized wraparound check: for arbitrary capacities and event
    /// counts the snapshot is exactly the newest `min(n, cap)` events
    /// with strictly monotone sequence numbers. (Deterministic
    /// xorshift64* exploration instead of an external proptest dep.)
    #[test]
    fn randomized_wraparound() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        };
        for _ in 0..200 {
            let cap = (rng() % 33) as usize; // 0..=32, incl. clamp case
            let n = rng() % 100;
            let r = filled_ring(cap, n);
            let snap = r.snapshot(0);
            let kept = n.min(cap.max(1) as u64);
            assert_eq!(snap.events.len() as u64, kept, "cap={cap} n={n}");
            assert_eq!(snap.dropped, n - kept);
            for (i, e) in snap.events.iter().enumerate() {
                assert_eq!(e.seq, n - kept + i as u64, "cap={cap} n={n}");
            }
        }
    }

    #[test]
    fn trace_counts_and_epoch() {
        let mut a = TraceRing::new(16);
        a.set_enabled(true);
        a.record(EventKind::StealSuccess, 50, 1);
        a.record(EventKind::StealFail, 60, 1);
        let mut b = TraceRing::new(16);
        b.set_enabled(true);
        b.record(EventKind::StealSuccess, 40, 0);
        let t = Trace::new(vec![a.snapshot(0), b.snapshot(1)], 1.0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.epoch(), Some(40));
        assert_eq!(t.count(EventKind::StealSuccess), 2);
        assert_eq!(t.counts()["steal_fail"], 1);
    }
}
