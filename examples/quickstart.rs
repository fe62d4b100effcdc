//! Quickstart: create a pool, fork tasks, read scheduler statistics,
//! and measure the program's parallelism.
//!
//! ```text
//! cargo run --release -p workloads --example quickstart
//! ```

use wool_core::{span, Fork, Pool};

/// Parallel Fibonacci — every recursive call is a spawnable task, no
/// cutoff needed: with the direct task stack a spawn costs a handful of
/// cycles, so granularity control is the scheduler's job, not yours.
fn fib<C: Fork>(c: &mut C, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = c.fork(|c| fib(c, n - 1), |c| fib(c, n - 2));
    a + b
}

/// Parallel sum of a slice by recursive halving.
fn sum<C: Fork>(c: &mut C, xs: &[u64]) -> u64 {
    if xs.len() <= 1024 {
        return xs.iter().sum();
    }
    let (lo, hi) = xs.split_at(xs.len() / 2);
    let (a, b) = c.fork(|c| sum(c, lo), |c| sum(c, hi));
    a + b
}

fn main() {
    let mut pool: Pool = Pool::new(4);

    let n = 30;
    let value = pool.run(|h| fib(h, n));
    println!("fib({n}) = {value}");

    let report = pool.last_report().expect("report after run");
    println!(
        "  spawned {} tasks, {} steals, {:.1}% of joins ran with no atomics",
        report.total.spawns,
        report.total.total_steals(),
        100.0 * report.total.private_join_ratio(),
    );

    // Work and span are properties of the program, not of the pool: the
    // span executor runs the same `fib` serially and measures both.
    let (_, dag) = span::measure(|c| fib(c, n));
    println!(
        "  measured parallelism: {:.1} (ideal), {:.1} (with 2000-cycle steal cost)",
        dag.parallelism0(),
        dag.parallelism_c()
    );

    let xs: Vec<u64> = (0..1_000_000).collect();
    let total = pool.run(|h| sum(h, &xs));
    assert_eq!(total, 999_999 * 1_000_000 / 2);
    println!("sum(0..1e6) = {total}");
}
