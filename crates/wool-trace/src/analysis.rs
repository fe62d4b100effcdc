//! Offline analysis of a merged [`Trace`]: the steal graph
//! (thief→victim edge weights) and the Figure 6 CPU-time breakdown.

use std::collections::BTreeMap;
use std::ops::AddAssign;

use wool_core::Stats;

use crate::{EventKind, Trace, WorkerTrace};

/// One thief→victim edge of the steal graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealEdge {
    /// The stealing worker.
    pub thief: usize,
    /// The worker stolen from.
    pub victim: usize,
    /// Successful steals along this edge.
    pub count: u64,
}

/// The result of [`analyze`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Steal-graph edges sorted by descending count; leap-frog steals
    /// are edges too, so the counts sum to `totals.total_steals()`.
    pub steal_graph: Vec<StealEdge>,
    /// The trace's events counted into `Stats` ([`Trace::stats`]).
    pub totals: Stats,
}

/// Computes the steal graph of a merged trace, and its totals.
pub fn analyze(trace: &Trace) -> Analysis {
    let mut edges: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for w in &trace.workers {
        for e in &w.events {
            if matches!(e.kind, EventKind::StealSuccess | EventKind::LeapSteal) {
                *edges.entry((w.worker, e.arg as usize)).or_insert(0) += 1;
            }
        }
    }
    let mut steal_graph: Vec<StealEdge> = edges
        .into_iter()
        .map(|((thief, victim), count)| StealEdge {
            thief,
            victim,
            count,
        })
        .collect();
    steal_graph.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then(a.thief.cmp(&b.thief))
            .then(a.victim.cmp(&b.victim))
    });
    Analysis {
        steal_graph,
        totals: trace.stats(),
    }
}

/// Figure 6's split of CPU time into the paper's five categories, in
/// cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Startup and shutdown: the rest of wall time times workers.
    pub tr: u64,
    /// Other application code.
    pub na: u64,
    /// Application code acquired through leap frogging.
    pub la: u64,
    /// Stealing: searching for and acquiring work.
    pub st: u64,
    /// Leap-frog overhead: waiting at a blocked join.
    pub lf: u64,
}

impl Breakdown {
    /// The paper's labels, in the order of [`Breakdown::cycles`].
    pub const LABELS: [&'static str; 5] = ["TR", "NA", "LA", "ST", "LF"];

    /// The five categories in the paper's order.
    pub fn cycles(&self) -> [u64; 5] {
        [self.tr, self.na, self.la, self.st, self.lf]
    }
}

/// Adds category by category: the breakdown of several regions, or of
/// several workers.
impl AddAssign for Breakdown {
    fn add_assign(&mut self, o: Self) {
        self.tr += o.tr;
        self.na += o.na;
        self.la += o.la;
        self.st += o.st;
        self.lf += o.lf;
    }
}

/// One worker's share of [`breakdown`], with TR 0: its categories sum
/// to its measurement window.
fn worker_breakdown(w: &WorkerTrace) -> Option<Breakdown> {
    if w.dropped > 0 {
        return None;
    }
    // Indices into `acc`, in the order of `Breakdown::LABELS`.
    let (na, la, st, lf) = (1, 2, 3, 4);
    let mut acc = [0u64; 5];
    let mut cur = if w.worker == 0 { na } else { st };
    let mut outer = Vec::new();
    let (start, end) = w.window;
    let mut since = start;
    for e in w.events.iter().filter(|e| e.kind.is_breakdown()) {
        let ts = e.ts.min(end).max(since);
        acc[cur] += ts - since;
        since = ts;
        let opened = match e.kind {
            EventKind::StealSuccess => na,
            EventKind::LeapSteal => la,
            EventKind::Leapfrog => lf,
            _ => {
                cur = outer.pop()?;
                continue;
            }
        };
        outer.push(cur);
        cur = opened;
    }
    acc[cur] += end.saturating_sub(since);
    let [tr, na, la, st, lf] = acc;
    Some(Breakdown { tr, na, la, st, lf })
}

/// Figure 6 for one region, from a trace that holds the breakdown kinds.
/// Each worker's events replay on a stack: worker 0 starts in NA and
/// every other worker in ST; `steal_success` opens NA, `leap_steal` LA
/// and `leapfrog` LF, and `resume` returns to the category below. The
/// time between two stamps of the worker's window goes to the category
/// open in between. The workers are summed, and TR is the rest of
/// `wall_ticks` times the number of workers. `None` when a ring dropped
/// events or a `resume` finds no category open.
pub fn breakdown(trace: &Trace, wall_ticks: u64) -> Option<Breakdown> {
    let mut sum = Breakdown::default();
    for w in &trace.workers {
        sum += worker_breakdown(w)?;
    }
    let classified = sum.na + sum.la + sum.st + sum.lf;
    sum.tr = (wall_ticks * trace.workers.len() as u64).saturating_sub(classified);
    Some(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceLevel, TraceRing};

    #[test]
    fn steal_graph_edges_and_totals() {
        let mut t1 = TraceRing::new(TraceLevel::All, 64);
        for _ in 0..3 {
            t1.record(EventKind::StealSuccess, 20, 0);
        }
        t1.record(EventKind::StealFail, 31, 2);
        let mut t2 = TraceRing::new(TraceLevel::All, 64);
        t2.record(EventKind::LeapSteal, 25, 0);
        t2.record(EventKind::Backoff, 40, 1);

        let trace = Trace::new(vec![t1.snapshot(1), t2.snapshot(2)], 1.0);
        let a = analyze(&trace);
        assert_eq!(a.totals, trace.stats());
        assert_eq!(a.totals.total_steals(), 4, "leap-frog steals are steals");
        assert_eq!(a.totals.failed_steals, 1);
        assert_eq!(a.totals.backoffs, 1);
        assert_eq!(
            a.steal_graph[0],
            StealEdge {
                thief: 1,
                victim: 0,
                count: 3
            }
        );
        assert_eq!(
            a.steal_graph[1],
            StealEdge {
                thief: 2,
                victim: 0,
                count: 1
            }
        );
        assert!((a.totals.failed_ratio() - 1.0 / 6.0).abs() < 1e-12);
        assert!(
            (a.totals.backoff_ratio() - 1.0 / 4.0).abs() < 1e-12,
            "over steals"
        );
    }

    /// A failed steal is only an attempt that found nothing, and the
    /// attempts are exactly the five outcomes.
    #[test]
    fn failed_counts_only_empty_attempts() {
        use EventKind::*;
        let mut r = TraceRing::new(TraceLevel::All, 64);
        let outcomes = [StealSuccess, LeapSteal, StealFail, StealLost, Backoff];
        for (i, &kind) in outcomes.iter().enumerate() {
            for _ in 0..=i {
                r.record(kind, 1, 0);
            }
        }
        // Neither a publication request nor a leapfrog is an outcome.
        r.record(PublishRequest, 2, 0);
        r.record(Leapfrog, 3, 0);
        let s = analyze(&Trace::new(vec![r.snapshot(1)], 1.0)).totals;
        assert_eq!(
            (s.total_steals(), s.failed_steals, s.backoffs),
            (1 + 2, 3, 5)
        );
        let attempts = 1 + 2 + 3 + 4 + 5;
        assert!((s.failed_ratio() - 3.0 / attempts as f64).abs() < 1e-12);
    }

    /// `worker`'s trace of a measurement window from `start` to `end`
    /// holding `events`, as a breakdown ring records it.
    fn window(worker: usize, start: u64, end: u64, events: &[(EventKind, u64)]) -> WorkerTrace {
        let mut r = TraceRing::new(TraceLevel::Breakdown, 64);
        r.open(start);
        for &(kind, ts) in events {
            r.record(kind, ts, 0);
        }
        r.close(end);
        r.snapshot(worker)
    }

    #[test]
    fn breakdown_charges_the_open_category() {
        use EventKind::*;
        // Worker 1 starts in ST and runs a stolen task 30..70; a spawn
        // is no category event. Worker 0 starts in NA.
        let w = window(1, 10, 100, &[(Spawn, 20), (StealSuccess, 30), (Resume, 70)]);
        assert_eq!(worker_breakdown(&w).unwrap().cycles(), [0, 40, 0, 50, 0]);
        let root = worker_breakdown(&window(0, 0, 50, &[])).unwrap();
        assert_eq!(root.cycles(), [0, 50, 0, 0, 0]);
        assert_eq!(Breakdown::LABELS, ["TR", "NA", "LA", "ST", "LF"]);
    }

    #[test]
    fn nested_categories_restore_the_outer_one() {
        use EventKind::*;
        // NA, then a leap-frog wait (LF) that steals back a task (LA).
        let events = [(Leapfrog, 10), (LeapSteal, 20), (Resume, 35), (Resume, 40)];
        let b = worker_breakdown(&window(0, 0, 50, &events)).unwrap();
        assert_eq!(b.cycles(), [0, 10 + 10, 15, 0, 10 + 5]);
    }

    /// Time outside a worker's window is not its own, and its categories
    /// sum to the window; a worker that took no part has none.
    #[test]
    fn categories_sum_to_the_window() {
        use EventKind::*;
        let events = [
            (StealSuccess, 5),
            (Leapfrog, 30),
            (Resume, 60),
            (Resume, 120),
        ];
        let b = worker_breakdown(&window(2, 10, 100, &events)).unwrap();
        assert_eq!(b.cycles(), [0, 20 + 40, 0, 0, 30]);
        let absent = TraceRing::default().snapshot(1);
        assert_eq!(worker_breakdown(&absent), Some(Breakdown::default()));
    }

    #[test]
    fn tr_is_the_rest_of_wall_times_workers() {
        use EventKind::*;
        let stolen = window(1, 20, 90, &[(StealSuccess, 40), (Resume, 60)]);
        let trace = Trace::new(vec![window(0, 5, 95, &[]), stolen], 1.0);
        let b = breakdown(&trace, 100).unwrap();
        assert_eq!(b.cycles(), [200 - 90 - 70, 90 + 20, 0, 50, 0]);
        let mut twice = b;
        twice += b;
        assert_eq!(twice.cycles(), b.cycles().map(|c| 2 * c));
        // Windows that overrun the wall time leave no TR.
        assert_eq!(breakdown(&trace, 50).unwrap().tr, 0);
    }

    #[test]
    fn breakdown_refuses_dropped_or_unbalanced_events() {
        let mut r = TraceRing::new(TraceLevel::Breakdown, 2);
        r.open(0);
        for ts in 1..4 {
            r.record(EventKind::StealSuccess, ts, 0);
        }
        r.close(10);
        let trace = Trace::new(vec![window(0, 0, 10, &[]), r.snapshot(1)], 1.0);
        assert_eq!(trace.dropped(), 1);
        assert_eq!(breakdown(&trace, 10), None);
        let unbalanced = window(2, 0, 10, &[(EventKind::Resume, 5)]);
        assert_eq!(worker_breakdown(&unbalanced), None);
    }
}
