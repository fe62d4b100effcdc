//! Chrome trace-event (a.k.a. `chrome://tracing` / Perfetto) export.
//!
//! Emits the JSON object form of the [Trace Event Format]: a top-level
//! object with a `traceEvents` array. Every scheduler event becomes an
//! instant event (`ph: "i"`) on the recording worker's thread lane, and
//! idle periods (from an `idle`/`park` event to the next `unpark` or
//! `steal_success` on the same worker) additionally become duration
//! events (`ph: "X"`) so stalls are visible as solid blocks on the
//! timeline. Timestamps are microseconds relative to the earliest event
//! in the trace.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use minijson::Json;

use crate::{Event, EventKind, Trace};

/// Builds the Chrome trace document for `trace`.
pub fn to_chrome_json(trace: &Trace) -> Json {
    let epoch = trace.epoch().unwrap_or(0);
    // Guard against an uncalibrated (zero) scale.
    let ticks_per_us = (trace.ticks_per_ns * 1e3).max(1e-9);
    let us = |ts: u64| (ts - epoch) as f64 / ticks_per_us;

    let mut events = Vec::new();
    for w in &trace.workers {
        // Thread-name metadata so Perfetto labels the lanes.
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str("thread_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Num(0.0)),
            ("tid".into(), Json::Num(w.worker as f64)),
            (
                "args".into(),
                Json::Obj(vec![(
                    "name".into(),
                    Json::Str(format!("worker {}", w.worker)),
                )]),
            ),
        ]));

        let mut idle_since: Option<u64> = None;
        for e in &w.events {
            match e.kind {
                EventKind::Idle | EventKind::Park => {
                    idle_since.get_or_insert(e.ts);
                }
                EventKind::Unpark | EventKind::StealSuccess | EventKind::Dequeue => {
                    if let Some(start) = idle_since.take() {
                        events.push(duration_event("idle", w.worker, us(start), us(e.ts)));
                    }
                }
                _ => {}
            }
            events.push(instant_event(e, w.worker, us(e.ts)));
        }
        // An idle span still open at the end of the trace is closed at
        // the worker's last timestamp so it remains visible.
        if let (Some(start), Some(last)) = (idle_since, w.events.last()) {
            if last.ts > start {
                events.push(duration_event("idle", w.worker, us(start), us(last.ts)));
            }
        }
    }

    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ns".into())),
        (
            "otherData".into(),
            Json::Obj(vec![
                ("ticks_per_ns".into(), Json::Num(trace.ticks_per_ns)),
                ("dropped_events".into(), Json::Num(trace.dropped() as f64)),
            ]),
        ),
    ])
}

fn instant_event(e: &Event, worker: usize, ts_us: f64) -> Json {
    let mut args = vec![("seq".into(), Json::Num(e.seq as f64))];
    if e.kind.arg_is_worker() {
        args.push(("peer".into(), Json::Num(e.arg as f64)));
    } else if e.arg != 0 {
        args.push(("arg".into(), Json::Num(e.arg as f64)));
    }
    Json::Obj(vec![
        ("name".into(), Json::Str(e.kind.name().into())),
        ("cat".into(), Json::Str(category(e.kind).into())),
        ("ph".into(), Json::Str("i".into())),
        ("s".into(), Json::Str("t".into())), // thread-scoped instant
        ("ts".into(), Json::Num(ts_us)),
        ("pid".into(), Json::Num(0.0)),
        ("tid".into(), Json::Num(worker as f64)),
        ("args".into(), Json::Obj(args)),
    ])
}

fn duration_event(name: &str, worker: usize, start_us: f64, end_us: f64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("cat".into(), Json::Str("state".into())),
        ("ph".into(), Json::Str("X".into())),
        ("ts".into(), Json::Num(start_us)),
        ("dur".into(), Json::Num((end_us - start_us).max(0.0))),
        ("pid".into(), Json::Num(0.0)),
        ("tid".into(), Json::Num(worker as f64)),
    ])
}

fn category(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Spawn
        | EventKind::Overflow
        | EventKind::JoinFastPrivate
        | EventKind::JoinFastPublic
        | EventKind::RtsJoin
        | EventKind::JoinSlow
        | EventKind::Split => "task",
        EventKind::StealSuccess
        | EventKind::LeapSteal
        | EventKind::StealFail
        | EventKind::StealLost
        | EventKind::Backoff
        | EventKind::Leapfrog
        | EventKind::Resume => "steal",
        EventKind::Publish | EventKind::PublishRequest => "publish",
        EventKind::Idle | EventKind::Park | EventKind::Unpark => "state",
        EventKind::Inject | EventKind::Dequeue | EventKind::JobDone => "serve",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceLevel, TraceRing};

    fn sample_trace() -> Trace {
        let mut r0 = TraceRing::new(TraceLevel::All, 32);
        r0.record(EventKind::Spawn, 100, 1);
        r0.record(EventKind::Idle, 200, 0);
        r0.record(EventKind::StealSuccess, 300, 1);
        r0.record(EventKind::JoinFastPrivate, 400, 1);
        let mut r1 = TraceRing::new(TraceLevel::All, 32);
        r1.record(EventKind::Publish, 150, 2);
        Trace::new(vec![r0.snapshot(0), r1.snapshot(1)], 2.0)
    }

    #[test]
    fn document_shape_is_valid_and_reparses() {
        let doc = to_chrome_json(&sample_trace());
        let text = doc.pretty();
        let parsed = minijson::parse(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 5 instants + 2 thread_name metadata + 1 idle duration.
        assert_eq!(events.len(), 8);
        for ev in events {
            assert!(ev.get("ph").is_some());
            assert!(ev.get("pid").is_some());
            assert!(ev.get("tid").is_some());
        }
    }

    #[test]
    fn timestamps_are_relative_microseconds() {
        let doc = to_chrome_json(&sample_trace());
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // Epoch is ts=100 cycles at 2 ticks/ns = 2000 ticks/us. The
        // spawn at cycle 100 exports as ts 0; publish at 150 as 0.025us.
        let spawn = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("spawn"))
            .unwrap();
        assert_eq!(spawn.get("ts").unwrap().as_f64(), Some(0.0));
        let publish = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("publish"))
            .unwrap();
        assert!((publish.get("ts").unwrap().as_f64().unwrap() - 0.025).abs() < 1e-12);
    }

    #[test]
    fn idle_span_closed_by_steal_success() {
        let doc = to_chrome_json(&sample_trace());
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let idle = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("name").and_then(Json::as_str) == Some("idle")
            })
            .expect("idle duration event");
        // Idle from cycle 200 to 300 = 100 cycles = 0.05us at 2t/ns.
        assert!((idle.get("dur").unwrap().as_f64().unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn steal_events_carry_peer() {
        let doc = to_chrome_json(&sample_trace());
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let steal = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("steal_success"))
            .unwrap();
        assert_eq!(
            steal.get("args").unwrap().get("peer").unwrap().as_u64(),
            Some(1)
        );
    }
}
