//! Smoke test for the `--trace-out` pipeline (bench `trace` feature):
//! record a traced `fib` run, export Chrome trace JSON, re-parse it and
//! validate both its structure and its agreement with the scheduler's
//! own statistics.

use minijson::Json;
use wool_trace::analyze;
use ws_bench::tracing::{record_fib_trace, record_stress_trace, write_chrome};

#[test]
fn traced_fib_exports_valid_chrome_json() {
    let (trace, stats) = record_fib_trace(3, 18);
    assert_eq!(
        trace.dropped(),
        0,
        "fib(18) must fit the --trace-out ring capacity"
    );
    assert!(!trace.is_empty());

    // --- acceptance: the trace counts exactly the run's Stats ---
    let analysis = analyze(&trace);
    assert_eq!(trace.stats(), stats);
    let edge_total: u64 = analysis.steal_graph.iter().map(|e| e.count).sum();
    assert_eq!(edge_total, stats.total_steals());
    assert_eq!(trace.count(wool_trace::EventKind::Spawn), stats.spawns);

    // --- export and re-parse ---
    let dir = std::env::temp_dir().join(format!("wool-trace-smoke-{}", std::process::id()));
    let path = dir.join("trace.json");
    let path_str = path.to_str().unwrap();
    write_chrome(path_str, &trace).expect("export must succeed");
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = minijson::parse(&text).expect("exported file must be valid JSON");

    // Top-level Chrome trace shape.
    assert!(doc.get("displayTimeUnit").is_some());
    let other = doc.get("otherData").expect("otherData object");
    assert!(other.get("ticks_per_ns").and_then(Json::as_f64).unwrap() > 0.0);
    assert_eq!(other.get("dropped_events").and_then(Json::as_u64), Some(0));

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Every event record is well-formed per the trace-event format.
    let mut instants = 0u64;
    let mut metadata = 0u64;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(matches!(ph, "i" | "X" | "M"), "unexpected phase {ph}");
        assert!(e.get("name").and_then(Json::as_str).is_some());
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        assert!(tid < 3, "tid must be a worker index");
        match ph {
            "M" => metadata += 1,
            "i" => {
                instants += 1;
                // Timestamps are µs relative to the trace epoch.
                assert!(e.get("ts").and_then(Json::as_f64).unwrap() >= 0.0);
                assert!(e.get("cat").and_then(Json::as_str).is_some());
            }
            _ => {
                assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
            }
        }
    }
    assert_eq!(metadata, 3, "one thread_name record per worker");
    assert_eq!(
        instants,
        trace.len() as u64,
        "every retained event appears as an instant"
    );

    // Steal events in the JSON match the analysis too.
    let steal_instants = events
        .iter()
        .filter(|e| {
            let name = e.get("name").and_then(Json::as_str);
            name == Some("steal_success") || name == Some("leap_steal")
        })
        .count() as u64;
    assert_eq!(steal_instants, stats.total_steals());

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

/// The `--trace-out` workload runs and its totals agree with `Stats`
/// whether or not thieves won any work this time (timing-dependent).
#[test]
fn stress_trace_totals_agree_with_stats() {
    let (trace, stats) = record_stress_trace(4, 10, 2000, 4);
    assert_eq!(trace.dropped(), 0);
    assert_eq!(trace.stats(), stats);
    let analysis = analyze(&trace);
    let edge_total: u64 = analysis.steal_graph.iter().map(|e| e.count).sum();
    assert_eq!(edge_total, stats.total_steals());
}

/// Forces at least one steal deterministically (the spawned branch can
/// only ever execute on a thief) so the steal-graph acceptance check is
/// non-vacuous: the graph is non-empty and equals `Stats.steals`.
#[test]
fn forced_steal_appears_in_graph() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    use wool_core::{Pool, PoolConfig, TraceLevel, WoolFull, WorkerHandle};

    fn fib(h: &mut WorkerHandle<WoolFull>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = h.fork(|h| fib(h, n - 1), |h| fib(h, n - 2));
        a + b
    }

    let cfg = PoolConfig::with_workers(4)
        .trace(TraceLevel::All)
        .trace_capacity(1 << 20);
    let mut pool: Pool<WoolFull> = Pool::with_config(cfg);
    let started = AtomicBool::new(false);
    pool.run(|h| {
        let ((), ()) = h.fork(
            |h| {
                let t0 = Instant::now();
                while !started.load(Ordering::Acquire) {
                    // Keep spawning/joining so the owner services
                    // trip-wire publication requests.
                    std::hint::black_box(fib(h, 8));
                    if t0.elapsed() > Duration::from_secs(30) {
                        panic!("spawned branch was never stolen");
                    }
                    std::thread::yield_now();
                }
            },
            |_| started.store(true, Ordering::Release),
        );
    });

    let stats = pool.last_report().unwrap().total;
    assert!(stats.total_steals() >= 1);
    let trace = pool.take_trace().expect("tracing was configured");
    let analysis = analyze(&trace);
    assert!(!analysis.steal_graph.is_empty());
    if trace.dropped() == 0 {
        assert_eq!(trace.stats(), stats);
        let edge_total: u64 = analysis.steal_graph.iter().map(|e| e.count).sum();
        assert_eq!(edge_total, stats.total_steals());
        // Thief/victim indices are in range and never self-referential.
        for e in &analysis.steal_graph {
            assert!(e.thief < 4 && e.victim < 4);
            assert_ne!(e.thief, e.victim);
        }
    }
}

/// On every Table II rung, a traced `fib(20)` counts exactly its run's
/// `Stats`, and its steal graph counts each steal once, leap-frog
/// steals included.
#[test]
fn steal_graph_total_equals_steals_on_every_rung() {
    use wool_core::{LockedBase, StealLockBase, StealLockPeek, StealLockTrylock, SyncOnTask};
    use wool_core::{Pool, PoolConfig, Strategy, TraceLevel, WorkerHandle};
    use wool_core::{TaskSpecific, WoolAllPublic, WoolFull, WoolNoLeap};

    fn fib<S: Strategy>(h: &mut WorkerHandle<S>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = h.fork(|h| fib(h, n - 1), |h| fib(h, n - 2));
        a + b
    }

    fn check<S: Strategy>() {
        let cfg = PoolConfig::with_workers(3)
            .trace(TraceLevel::All)
            .trace_capacity(1 << 20);
        let mut pool: Pool<S> = Pool::with_config(cfg);
        pool.run(|h| fib(h, 20));
        let stats = pool.last_report().unwrap().total;
        let trace = pool.take_trace().expect("tracing was configured");
        assert_eq!(trace.dropped(), 0, "{}", S::NAME);
        assert_eq!(trace.stats(), stats, "{}", S::NAME);
        let a = analyze(&trace);
        let edge_total: u64 = a.steal_graph.iter().map(|e| e.count).sum();
        assert_eq!(edge_total, stats.total_steals(), "{}", S::NAME);
    }

    check::<WoolFull>();
    check::<WoolNoLeap>();
    check::<WoolAllPublic>();
    check::<TaskSpecific>();
    check::<SyncOnTask>();
    check::<LockedBase>();
    check::<StealLockBase>();
    check::<StealLockPeek>();
    check::<StealLockTrylock>();
}

#[test]
fn summary_table_mentions_paper_claim() {
    let (trace, _) = record_fib_trace(2, 15);
    let table = ws_bench::report::steal_summary_table(&analyze(&trace));
    let text = table.render();
    assert!(text.contains("total steals"));
    assert!(text.contains("back-off ratio"));
    assert!(text.contains("paper: <1%"));
}
