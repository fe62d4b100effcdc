//! # wool-trace — offline analysis of scheduler event traces
//!
//! `wool-core` counts and records its scheduler events itself: the event
//! vocabulary, the per-worker rings and the merged [`Trace`] live in
//! [`wool_core::trace`], and a pool whose [`TraceLevel`] is not `Off`
//! hands out a [`Trace`] after each run. This crate is the offline half
//! on top of it:
//!
//! * [`to_chrome_json`] exports a trace as a Chrome/Perfetto trace-event
//!   document ([`chrome`]);
//! * [`analyze`] computes the steal graph that `--trace-out` prints, with
//!   the trace's totals counted into `Stats` by [`Trace::stats`]
//!   ([`analysis`]);
//! * [`breakdown`] splits a region's CPU time into Figure 6's categories
//!   from a `TraceLevel::Breakdown` trace.
//!
//! It re-exports the trace data types, so users need only this crate to
//! read a trace.

#![warn(missing_docs)]

pub use minijson;
pub use wool_core::trace::{Event, EventKind, Trace, TraceLevel, TraceRing, WorkerTrace};

pub mod analysis;
pub mod chrome;

pub use analysis::{analyze, breakdown, Analysis, Breakdown, StealEdge};
pub use chrome::to_chrome_json;

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_ring(cap: usize, n: u64) -> TraceRing {
        let mut r = TraceRing::new(TraceLevel::All, cap);
        for i in 0..n {
            r.record(EventKind::Spawn, 1000 + i, i as u32);
        }
        r
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = TraceRing::default();
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
        r.open(3);
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.dropped(), 0);
        r.record(EventKind::Idle, 5, 0);
        r.close(9);
        let snap = r.snapshot(0);
        assert_eq!(snap.events[0].seq, 0);
        assert_eq!(snap.window, (3, 9));
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
        let mut a = TraceRing::new(TraceLevel::All, 16);
        a.record(EventKind::StealSuccess, 50, 1);
        a.record(EventKind::StealFail, 60, 1);
        let mut b = TraceRing::new(TraceLevel::All, 16);
        b.record(EventKind::StealSuccess, 40, 0);
        let t = Trace::new(vec![a.snapshot(0), b.snapshot(1)], 1.0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.epoch(), Some(40));
        assert_eq!(t.count(EventKind::StealSuccess), 2);
        assert_eq!(t.counts()["steal_fail"], 1);
    }
}
