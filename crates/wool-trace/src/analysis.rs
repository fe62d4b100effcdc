//! Offline analysis of a merged [`Trace`]: the steal graph
//! (thief→victim edge weights), steal-interval histograms, per-worker
//! utilization timelines, and the Figure 6 CPU-time breakdown.

use std::collections::BTreeMap;

use minijson::Json;

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

/// Utilization summary of one worker over the traced interval.
#[derive(Debug, Clone)]
pub struct WorkerUtilization {
    /// Worker index.
    pub worker: usize,
    /// Fraction of the traced interval spent outside idle spans
    /// (0.0–1.0). 1.0 when the worker never went idle.
    pub busy_fraction: f64,
    /// Busy fraction per timeline bucket (equal slices of the traced
    /// interval), for plotting.
    pub timeline: Vec<f64>,
}

/// The result of [`analyze`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Steal-graph edges sorted by descending count.
    pub steal_graph: Vec<StealEdge>,
    /// Total successful steals in the trace, leap-frog steals included
    /// (sum of edge counts).
    pub steals: u64,
    /// Total steal attempts: each ends in a success, a leap-frog steal,
    /// a failure, a lost race or a back-off.
    pub attempts: u64,
    /// Attempts that found nothing.
    pub failed: u64,
    /// Attempts that lost the race for a task.
    pub lost: u64,
    /// Back-off events.
    pub backoffs: u64,
    /// Publish-request (trip-wire) events.
    pub publish_requests: u64,
    /// Leapfrog entries.
    pub leapfrogs: u64,
    /// Data-parallel splits (`wool-par` fork points).
    pub splits: u64,
    /// Histogram of intervals between consecutive successful steals by
    /// the same thief: bucket `i` counts intervals in
    /// `[2^i, 2^(i+1))` cycles (bucket 0 also holds 0-cycle intervals).
    pub steal_interval_hist: Vec<u64>,
    /// Per-worker utilization, indexed by worker.
    pub utilization: Vec<WorkerUtilization>,
}

/// Number of timeline buckets in [`WorkerUtilization::timeline`].
pub const TIMELINE_BUCKETS: usize = 32;

/// Runs the full analysis pass over a merged trace.
pub fn analyze(trace: &Trace) -> Analysis {
    let mut edges: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut failed = 0;
    let mut lost = 0;
    let mut backoffs = 0;
    let mut publish_requests = 0;
    let mut leapfrogs = 0;
    let mut splits = 0;
    let mut hist = vec![0u64; 64];
    let mut max_bucket = 0;

    for w in &trace.workers {
        let mut last_steal: Option<u64> = None;
        for e in &w.events {
            match e.kind {
                EventKind::StealFail => failed += 1,
                EventKind::StealLost => lost += 1,
                EventKind::Backoff => backoffs += 1,
                EventKind::PublishRequest => publish_requests += 1,
                EventKind::Leapfrog => leapfrogs += 1,
                EventKind::Split => splits += 1,
                EventKind::StealSuccess | EventKind::LeapSteal => {
                    *edges.entry((w.worker, e.arg as usize)).or_insert(0) += 1;
                    if let Some(prev) = last_steal {
                        let dt = e.ts.saturating_sub(prev);
                        let b = (64 - dt.leading_zeros()).saturating_sub(1) as usize;
                        hist[b] += 1;
                        max_bucket = max_bucket.max(b);
                    }
                    last_steal = Some(e.ts);
                }
                _ => {}
            }
        }
    }
    hist.truncate(max_bucket + 1);

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
    let steals = steal_graph.iter().map(|e| e.count).sum();

    Analysis {
        steal_graph,
        steals,
        attempts: steals + failed + lost + backoffs,
        failed,
        lost,
        backoffs,
        publish_requests,
        leapfrogs,
        splits,
        steal_interval_hist: hist,
        utilization: utilization(trace),
    }
}

/// Computes per-worker busy fractions and bucketed timelines from
/// idle/park → unpark/steal-success spans.
fn utilization(trace: &Trace) -> Vec<WorkerUtilization> {
    let (Some(start), Some(end)) = (
        trace.epoch(),
        trace
            .workers
            .iter()
            .flat_map(|w| w.events.iter().map(|e| e.ts))
            .max(),
    ) else {
        return Vec::new();
    };
    let span = (end - start).max(1) as f64;

    trace
        .workers
        .iter()
        .map(|w| {
            // Collect this worker's idle spans.
            let mut spans: Vec<(u64, u64)> = Vec::new();
            let mut idle_since: Option<u64> = None;
            for e in &w.events {
                match e.kind {
                    EventKind::Idle | EventKind::Park => {
                        idle_since.get_or_insert(e.ts);
                    }
                    EventKind::Unpark | EventKind::StealSuccess | EventKind::Dequeue => {
                        if let Some(s) = idle_since.take() {
                            spans.push((s, e.ts));
                        }
                    }
                    _ => {}
                }
            }
            if let Some(s) = idle_since {
                spans.push((s, end));
            }

            let idle_total: u64 = spans.iter().map(|(a, b)| b - a).sum();
            let busy_fraction = (1.0 - idle_total as f64 / span).clamp(0.0, 1.0);

            // Bucketed timeline: subtract each idle span's overlap with
            // each bucket.
            let bucket_w = span / TIMELINE_BUCKETS as f64;
            let mut timeline = vec![1.0f64; TIMELINE_BUCKETS];
            for &(a, b) in &spans {
                let (a, b) = ((a - start) as f64, (b - start) as f64);
                let first = ((a / bucket_w) as usize).min(TIMELINE_BUCKETS - 1);
                let last = ((b / bucket_w) as usize).min(TIMELINE_BUCKETS - 1);
                for (i, slot) in timeline.iter_mut().enumerate().take(last + 1).skip(first) {
                    let lo = (i as f64) * bucket_w;
                    let hi = lo + bucket_w;
                    let overlap = (b.min(hi) - a.max(lo)).max(0.0);
                    *slot = (*slot - overlap / bucket_w).clamp(0.0, 1.0);
                }
            }

            WorkerUtilization {
                worker: w.worker,
                busy_fraction,
                timeline,
            }
        })
        .collect()
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
        let b = worker_breakdown(w)?;
        (sum.na, sum.la, sum.st, sum.lf) =
            (sum.na + b.na, sum.la + b.la, sum.st + b.st, sum.lf + b.lf);
    }
    let classified = sum.na + sum.la + sum.st + sum.lf;
    sum.tr = (wall_ticks * trace.workers.len() as u64).saturating_sub(classified);
    Some(sum)
}

impl Analysis {
    /// Failed attempts as a fraction of all attempts (0 when none).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempts as f64
        }
    }

    /// Back-offs as a fraction of successful steals, leap-frog steals
    /// included (0 when none) — the paper's "always below 1% of
    /// successful steals", and the ratio of `Stats::backoff_ratio`.
    pub fn backoff_ratio(&self) -> f64 {
        if self.steals == 0 {
            0.0
        } else {
            self.backoffs as f64 / self.steals as f64
        }
    }

    /// JSON form of the analysis (steal graph, ratios, histogram,
    /// utilization) for embedding in reports.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "steal_graph".into(),
                Json::Arr(
                    self.steal_graph
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("thief".into(), Json::Num(e.thief as f64)),
                                ("victim".into(), Json::Num(e.victim as f64)),
                                ("count".into(), Json::Num(e.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("steals".into(), Json::Num(self.steals as f64)),
            ("attempts".into(), Json::Num(self.attempts as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("lost".into(), Json::Num(self.lost as f64)),
            ("backoffs".into(), Json::Num(self.backoffs as f64)),
            (
                "publish_requests".into(),
                Json::Num(self.publish_requests as f64),
            ),
            ("leapfrogs".into(), Json::Num(self.leapfrogs as f64)),
            ("failed_ratio".into(), Json::Num(self.failed_ratio())),
            ("backoff_ratio".into(), Json::Num(self.backoff_ratio())),
            (
                "steal_interval_hist".into(),
                Json::Arr(
                    self.steal_interval_hist
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
            (
                "utilization".into(),
                Json::Arr(
                    self.utilization
                        .iter()
                        .map(|u| {
                            Json::Obj(vec![
                                ("worker".into(), Json::Num(u.worker as f64)),
                                ("busy_fraction".into(), Json::Num(u.busy_fraction)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
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
        assert_eq!(a.steals, 4, "leap-frog steals are steals");
        assert_eq!(a.attempts, 6);
        assert_eq!(a.failed, 1);
        assert_eq!(a.backoffs, 1);
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
        assert!((a.failed_ratio() - 1.0 / 6.0).abs() < 1e-12);
        assert!((a.backoff_ratio() - 1.0 / 4.0).abs() < 1e-12, "over steals");
    }

    /// `failed` counts only attempts that found nothing, and the
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
        let a = analyze(&Trace::new(vec![r.snapshot(1)], 1.0));
        assert_eq!((a.steals, a.failed, a.lost, a.backoffs), (1 + 2, 3, 4, 5));
        assert_eq!(a.attempts, 1 + 2 + 3 + 4 + 5);
        assert_eq!(a.attempts, a.steals + a.failed + a.lost + a.backoffs);
    }

    #[test]
    fn interval_histogram_buckets_log2() {
        let mut r = TraceRing::new(TraceLevel::All, 64);
        // Steals at t = 0, 1, 5, 1029: intervals 1 (bucket 0),
        // 4 (bucket 2), 1024 (bucket 10).
        for ts in [0u64, 1, 5, 1029] {
            r.record(EventKind::StealSuccess, ts, 0);
        }
        let a = analyze(&Trace::new(vec![r.snapshot(1)], 1.0));
        assert_eq!(a.steal_interval_hist.len(), 11);
        assert_eq!(a.steal_interval_hist[0], 1);
        assert_eq!(a.steal_interval_hist[2], 1);
        assert_eq!(a.steal_interval_hist[10], 1);
    }

    #[test]
    fn utilization_counts_idle_spans() {
        let mut r = TraceRing::new(TraceLevel::All, 64);
        r.record(EventKind::Spawn, 0, 1);
        r.record(EventKind::Idle, 100, 0);
        r.record(EventKind::Unpark, 300, 0);
        r.record(EventKind::Spawn, 400, 1);
        // Span 0..400; idle 100..300 → busy 200/400 = 0.5.
        let a = analyze(&Trace::new(vec![r.snapshot(0)], 1.0));
        assert_eq!(a.utilization.len(), 1);
        assert!((a.utilization[0].busy_fraction - 0.5).abs() < 1e-9);
        let tl = &a.utilization[0].timeline;
        assert_eq!(tl.len(), TIMELINE_BUCKETS);
        // Buckets fully inside the idle span are 0.
        assert!(tl[TIMELINE_BUCKETS / 2].abs() < 1e-9);
        assert!((tl[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trailing_idle_span_counts_to_trace_end() {
        let mut r = TraceRing::new(TraceLevel::All, 16);
        r.record(EventKind::Spawn, 0, 1);
        r.record(EventKind::Idle, 100, 0);
        let mut other = TraceRing::new(TraceLevel::All, 16);
        other.record(EventKind::Spawn, 200, 1);
        // Trace span 0..200, worker 0 idle 100..200 → busy 0.5.
        let a = analyze(&Trace::new(vec![r.snapshot(0), other.snapshot(1)], 1.0));
        assert!((a.utilization[0].busy_fraction - 0.5).abs() < 1e-9);
        assert!((a.utilization[1].busy_fraction - 1.0).abs() < 1e-9);
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

    #[test]
    fn analysis_json_is_valid() {
        let mut r = TraceRing::new(TraceLevel::All, 16);
        r.record(EventKind::StealSuccess, 2, 0);
        let a = analyze(&Trace::new(vec![r.snapshot(1)], 1.0));
        let parsed = minijson::parse(&a.to_json().pretty()).unwrap();
        assert_eq!(parsed.get("steals").unwrap().as_u64(), Some(1));
    }
}
