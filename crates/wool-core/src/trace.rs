//! The scheduler's event vocabulary.
//!
//! Every instrumented point of the scheduler is one [`EventKind`], and
//! the one instrumentation call, `probe!`, both counts it and traces
//! it:
//!
//! * **Counting.** A kind that [`Stats`] counts bumps exactly one
//!   counter, the field named next to the kind in the table below, so
//!   each counter is the number of events of one kind. The table
//!   declares both `EventKind` and `Stats`; `Stats::spawns` is derived
//!   (see [`EventKind::Spawn`]).
//! * **Tracing.** A worker whose pool's [`TraceLevel`] is not `Off`
//!   also records the event, timestamped, into its own [`TraceRing`]:
//!   at `Breakdown` only the kinds that open or close a Figure 6
//!   category ([`EventKind::is_breakdown`]), at `All` every kind. The
//!   ring lives in the worker's handle, beside the counters: recording
//!   is plain stores and an increment, with no atomics, no sharing and
//!   no allocation. The ring also stamps the worker's measurement
//!   window. At the end of the window the owner moves the ring into its
//!   report mailbox; the coordinator snapshots it there only after it
//!   has observed the report (an acquire on `report_epoch`), which
//!   orders every prior store, and the owner's next window takes it
//!   back.
//!
//! Kinds other than the breakdown kinds record only in a build with the
//! `trace` cargo feature ([`TRACE`]). Without it their recording half
//! is dead code: it is still type-checked, and the compiler removes it,
//! so an untraced hot path is the counter increment alone. The
//! breakdown kinds sit on the steal and leap-frog paths only, and
//! record in every build.
//!
//! A finished run's rings merge into a [`Trace`], which counts itself
//! into [`Stats`] ([`Trace::stats`]); the `wool-trace` crate exports it
//! as Chrome trace JSON and computes the steal graph and Figure 6.

use std::collections::BTreeMap;

use crate::stats::Stats;

/// Whether this build records events (the `trace` cargo feature).
pub const TRACE: bool = cfg!(feature = "trace");

/// Counts one `$kind` event of the worker that the handle `$h` (a
/// `WorkerHandle` place) acts as and, when its ring records the kind
/// ([`TraceRing::records`]), records it with argument `$arg` and the
/// current cycle count, or the timestamp given as `at = $ts`. `$arg`
/// and `$ts` are evaluated only when the event is recorded.
macro_rules! probe {
    ($h:expr, $kind:ident, $arg:expr) => {
        $crate::trace::probe!($h, $kind, $arg, at = $crate::cycles::now())
    };
    ($h:expr, $kind:ident, $arg:expr, at = $ts:expr) => {{
        let kind = $crate::trace::EventKind::$kind;
        if let Some(n) = $h.stats.counter(kind) {
            *n += 1;
        }
        if $h.trace.records(kind) {
            $h.trace.record(kind, $ts, ($arg) as u32);
        }
    }};
}
pub(crate) use probe;

/// The event table: each kind's doc, its exported name and, after `=>`,
/// the [`Stats`] field that counts it. It hands its rows to the macro
/// `$then`, so that [`EventKind`] here and [`Stats`] in
/// [`crate::stats`] are both declared from this one list. The rows'
/// order is the order of `Stats`' fields in the worker's handle.
macro_rules! events {
    ($then:ident) => {
        $then! {
            /// A task was pushed onto the owner's task stack. `arg` = stack
            /// depth after the push. Not counted here: every pushed task is
            /// joined exactly once, so `Stats::spawns` is the sum of the three
            /// join counters.
            Spawn = "spawn",
            /// A join resolved on the private fast path (task above the public
            /// boundary; no synchronization). `arg` = stack depth.
            JoinFastPrivate = "join_fast_private" => inlined_private,
            /// A join resolved on the public fast path (atomic swap saw the
            /// task unstolen). `arg` = stack depth.
            JoinFastPublic = "join_fast_public" => inlined_public,
            /// A join entered the run-time system (`RTS_join`): its task was
            /// held by a thief, stolen, or done. `arg` = stack depth.
            RtsJoin = "rts_join" => rts_joins,
            /// A join found its task stolen. `arg` = the thief's worker index
            /// (`u32::MAX` when the thief had already finished it).
            JoinSlow = "join_slow" => stolen_joins,
            /// A blocked joiner started leapfrogging: stealing back from the
            /// thief that holds its task. `arg` = the thief's worker index.
            Leapfrog = "leapfrog",
            /// A steal took a task. `arg` = victim index.
            StealSuccess = "steal_success" => steals,
            /// A leapfrogging joiner took a task from its thief. `arg` = victim
            /// index.
            LeapSteal = "leap_steal" => leap_steals,
            /// A stolen task (`StealSuccess`, `LeapSteal`) finished running on
            /// this worker, or its leap-frog wait (`Leapfrog`) ended: the worker
            /// resumes what it did before that event. `arg` = 0.
            Resume = "resume",
            /// A steal attempt found nothing to steal. `arg` = victim index.
            StealFail = "steal_fail" => failed_steals,
            /// A steal attempt lost the race for a task to the owner or another
            /// thief (a failed CAS or trylock). `arg` = victim index.
            StealLost = "steal_lost" => lost_races,
            /// A steal attempt won its CAS but backed off, because the victim's
            /// `bot` or public boundary moved (§III-A). `arg` = victim index.
            Backoff = "backoff" => backoffs,
            /// The owner made private tasks stealable. `arg` = number of tasks
            /// published.
            Publish = "publish" => publishes,
            /// A thief asked a victim to publish (rang the trip wire): the
            /// victim had only private tasks, or the steal landed within the
            /// trip distance of its public boundary. `arg` = victim index.
            PublishRequest = "publish_request" => publish_requests,
            /// A spawn found the task stack full and ran its task eagerly.
            /// `arg` = stack depth.
            Overflow = "overflow" => overflow_inlines,
            /// The worker ran out of local work and entered the steal loop.
            /// `arg` = 0.
            Idle = "idle",
            /// The worker is about to park its thread, waiting for work.
            /// `arg` = 0.
            Park = "park",
            /// The worker's park returned (woken or timed out); follows its
            /// `Park`. `arg` = 0.
            Unpark = "unpark",
            /// A root job was pushed into the serve pool's global injector.
            /// Recorded by the *dequeuing* worker (rings are owner-writes-only)
            /// with the submission timestamp the job carried, so queueing
            /// latency is visible on the exported timeline. `arg` = job tag.
            Inject = "inject",
            /// A root job was popped from the global injector by this worker.
            /// `arg` = job tag.
            Dequeue = "dequeue",
            /// A root job ran to completion on this worker. `arg` = job tag.
            JobDone = "job_done",
            /// A data-parallel splitter (`wool-par`) forked a range in half.
            /// `arg` = range length (in items) before the split, saturated to
            /// `u32::MAX`.
            Split = "split",
        }
    };
}
pub(crate) use events;

/// Declares [`EventKind`] from the rows of `events!`.
macro_rules! event_kind {
    ($($(#[doc = $doc:literal])* $kind:ident = $name:literal $(=> $field:ident)?,)*) => {
        /// What happened. The `arg` field of [`Event`] is kind-specific
        /// (see each variant's doc).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum EventKind {
            $($(#[doc = $doc])* $kind,)*
        }

        impl EventKind {
            /// All kinds, in declaration order.
            pub const ALL: [EventKind; [$($name),*].len()] = [$(EventKind::$kind),*];

            /// Stable lowercase name used in exported JSON.
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$kind => $name,)*
                }
            }
        }
    };
}
events!(event_kind);

impl EventKind {
    /// The outcomes of a steal attempt: each attempt ends in exactly one
    /// of these.
    pub(crate) const STEAL_OUTCOMES: [EventKind; 5] = [
        EventKind::StealSuccess,
        EventKind::LeapSteal,
        EventKind::StealFail,
        EventKind::StealLost,
        EventKind::Backoff,
    ];

    /// Whether the kind opens or closes a Figure 6 category: these
    /// record at every [`TraceLevel`] but `Off`, in every build.
    #[inline(always)]
    pub const fn is_breakdown(self) -> bool {
        use EventKind::*;
        matches!(self, StealSuccess | LeapSteal | Leapfrog | Resume)
    }

    /// Whether `arg` names another worker (victim or thief).
    pub fn arg_is_worker(self) -> bool {
        use EventKind::*;
        matches!(
            self,
            JoinSlow
                | Leapfrog
                | StealSuccess
                | LeapSteal
                | StealFail
                | StealLost
                | Backoff
                | PublishRequest
        )
    }
}

/// One recorded scheduler event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Per-worker sequence number, monotone from 0, never reset by
    /// wraparound.
    pub seq: u64,
    /// Timestamp in CPU cycles ([`crate::cycles::now`]).
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific argument (victim/thief index, depth, count).
    pub arg: u32,
}

/// What a pool's workers record in their [`TraceRing`]s
/// ([`PoolConfig::trace`](crate::PoolConfig::trace)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// Nothing: no ring, no trace, no clock read for it.
    #[default]
    Off,
    /// The kinds that open or close a Figure 6 category
    /// ([`EventKind::is_breakdown`]), in every build.
    Breakdown,
    /// Every kind with the `trace` cargo feature ([`TRACE`]); the
    /// breakdown kinds alone without it.
    All,
}

/// A fixed-capacity, owner-writes-only ring of [`Event`]s.
///
/// It never reallocates: when it wraps, the oldest events are
/// overwritten and counted as dropped, and sequence numbers stay
/// monotone. Exactly one thread writes; readers take a
/// [`snapshot`](TraceRing::snapshot) only after an external
/// happens-before edge (the worker's report publication).
///
/// The default ring (level `Off`) allocates, holds and records nothing:
/// it is what a worker's handle holds outside a traced measurement
/// window.
#[derive(Debug, Default)]
pub struct TraceRing {
    buf: Vec<Event>,
    /// Next sequence number == total events ever recorded.
    seq: u64,
    level: TraceLevel,
    /// Stamps of the measurement window ([`open`](TraceRing::open),
    /// [`close`](TraceRing::close)).
    window: (u64, u64),
}

impl TraceRing {
    /// Creates a ring that records at `level`, holding at most
    /// `capacity` events (rounded up to 1); the default ring for `Off`.
    pub fn new(level: TraceLevel, capacity: usize) -> Self {
        if level == TraceLevel::Off {
            return TraceRing::default();
        }
        TraceRing {
            buf: Vec::with_capacity(capacity.max(1)),
            level,
            ..TraceRing::default()
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Whether the ring records: every ring but the default one.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// Whether `probe!` records events of `kind` here. For a kind other
    /// than the breakdown kinds this is constant false without the
    /// `trace` feature.
    #[inline(always)]
    pub fn records(&self, kind: EventKind) -> bool {
        if kind.is_breakdown() {
            self.is_enabled()
        } else {
            TRACE && self.level == TraceLevel::All
        }
    }

    /// Opens a measurement window at `ts`: forgets all recorded events
    /// and restarts sequence numbers.
    pub fn open(&mut self, ts: u64) {
        self.buf.clear();
        self.seq = 0;
        self.window = (ts, ts);
    }

    /// Closes the measurement window at `ts`.
    pub fn close(&mut self, ts: u64) {
        self.window.1 = ts;
    }

    /// Records one event if the ring is enabled, whatever its level.
    /// Owner thread only; no allocation.
    #[inline]
    pub fn record(&mut self, kind: EventKind, ts: u64, arg: u32) {
        if !self.is_enabled() {
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
            window: self.window,
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
    /// Start and end stamps of the worker's measurement window, in
    /// cycles; `(0, 0)` for a worker that took no part.
    pub window: (u64, u64),
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

    /// Counts the retained events into [`Stats`] through the map
    /// `probe!` counts with, and derives `spawns` as a worker's report
    /// does. A trace that dropped nothing and recorded at
    /// [`TraceLevel::All`] in a traced build reads exactly its run's
    /// `Stats`.
    pub fn stats(&self) -> Stats {
        let mut stats = Stats::default();
        for e in self.workers.iter().flat_map(|w| &w.events) {
            if let Some(n) = stats.counter(e.kind) {
                *n += 1;
            }
        }
        stats.spawns = stats.joins();
        stats
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of every kind counts 1 into each counted field, 0 into
    /// none, and three joins derive three spawns.
    #[test]
    fn trace_stats_counts_one_event_of_every_kind() {
        let mut ring = TraceRing::new(TraceLevel::All, EventKind::ALL.len());
        for (ts, kind) in EventKind::ALL.into_iter().enumerate() {
            ring.record(kind, ts as u64, 0);
        }
        let trace = Trace::new(vec![ring.snapshot(0)], 1.0);
        assert_eq!(trace.dropped(), 0);
        let mut stats = trace.stats();
        let mut counted = 0;
        for kind in EventKind::ALL {
            if let Some(&mut n) = stats.counter(kind) {
                assert_eq!(n, 1, "{}", kind.name());
                counted += 1;
            }
        }
        assert_eq!(stats.spawns, 3);
        // Every field but `spawns` is a counter, so none was left out.
        let fields = std::mem::size_of::<Stats>() / std::mem::size_of::<u64>();
        assert_eq!(counted, fields - 1);
    }
}
