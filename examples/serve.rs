//! Multi-client serving: many submitter threads share one ServePool.
//!
//! Each client thread submits a batch of fork-join jobs through the
//! global injector, waits on its `JobHandle`s, and checks the results;
//! the pool drains gracefully at the end and prints its session report.
//!
//! ```text
//! cargo run --release -p wool-core --example serve
//! ```

use std::time::Instant;

use wool_core::{ServePool, Strategy, WorkerHandle};

/// Parallel Fibonacci — the paper's fine-grain stress kernel. Each job
/// is a root of its own fork-join region; idle workers steal across
/// regions, so even a single big job saturates the pool.
fn fib<S: Strategy>(h: &mut WorkerHandle<S>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = h.fork(move |h| fib(h, n - 1), move |h| fib(h, n - 2));
    a + b
}

fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

fn main() {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    let clients = 4;
    let jobs_per_client = 64;

    let pool = ServePool::start(workers);
    println!(
        "serving with {} workers (strategy {}), injector capacity {}",
        pool.workers(),
        pool.strategy_name(),
        pool.queue_capacity()
    );

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let pool = &pool;
            s.spawn(move || {
                let mut handles = Vec::with_capacity(jobs_per_client);
                for i in 0..jobs_per_client {
                    let n = 18 + ((client + i) % 6) as u64; // fib(18..=23)
                    let h = pool.submit(move |h| fib(h, n)).expect("pool is serving");
                    handles.push((n, h));
                }
                for (n, h) in handles {
                    assert_eq!(h.join(), fib_seq(n), "client {client}: fib({n})");
                }
                println!("client {client}: {jobs_per_client} jobs verified");
            });
        }
    });
    let elapsed = t0.elapsed();

    let report = pool.shutdown().expect("first shutdown");
    println!(
        "ran {} jobs in {:.1} ms: {} spawns, {} steals, {:.1}% private joins",
        report.jobs,
        elapsed.as_secs_f64() * 1e3,
        report.total.spawns,
        report.total.total_steals(),
        100.0 * report.total.private_join_ratio(),
    );
}
