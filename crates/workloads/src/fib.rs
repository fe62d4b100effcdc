//! The fib micro-benchmark (Figures 1 and 2 of the paper).
//!
//! "fib (with no cutoff) is an example of very small task granularity;
//! it spawns a task for every 13 cycles worth of work." The paper's
//! headline claim is that Wool achieves speedup on fib(42) *without any
//! cutoff*, where other systems slow down.

use wool_core::Fork;

/// Parallel Fibonacci, one spawn per internal node, no cutoff.
///
/// Mirrors Figure 2: `SPAWN(fib, n-2); a = CALL(fib, n-1); b = JOIN`.
pub fn fib<C: Fork>(c: &mut C, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = c.fork(|c| fib(c, n - 1), |c| fib(c, n - 2));
    a + b
}

/// Parallel Fibonacci with a manual cutoff: below `cutoff`, plain
/// recursion with no task constructs. The granularity-control idiom the
/// paper's private tasks make unnecessary.
pub fn fib_cutoff<C: Fork>(c: &mut C, n: u64, cutoff: u64) -> u64 {
    if n < 2 || n < cutoff {
        return fib_serial(n);
    }
    let (a, b) = c.fork(
        |c| fib_cutoff(c, n - 1, cutoff),
        |c| fib_cutoff(c, n - 2, cutoff),
    );
    a + b
}

/// Plain sequential Fibonacci (the paper's "Serial" row of Table II).
pub fn fib_serial(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_serial(n - 1) + fib_serial(n - 2)
    }
}

/// Number of tasks fib(n) spawns: one per internal node of the call
/// tree, i.e. `calls(n) = 2*fib(n+1) - 1` nodes of which
/// `fib(n+1) - 1`... computed exactly by recurrence below.
pub fn fib_spawn_count(n: u64) -> u64 {
    // spawns(n) = 0 for n < 2; else 1 + spawns(n-1) + spawns(n-2).
    let mut memo = vec![0u64; (n + 1).max(2) as usize];
    for i in 2..=n as usize {
        memo[i] = 1 + memo[i - 1] + memo[i - 2];
    }
    memo[n as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_baseline::SerialExecutor;

    #[test]
    fn serial_values() {
        let known = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55];
        for (n, &v) in known.iter().enumerate() {
            assert_eq!(fib_serial(n as u64), v);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut e = SerialExecutor::new();
        for n in 0..20 {
            assert_eq!(e.run(|c| fib(c, n)), fib_serial(n));
        }
    }

    #[test]
    fn cutoff_matches_serial() {
        let mut e = SerialExecutor::new();
        for cutoff in [0, 2, 5, 10, 30] {
            assert_eq!(e.run(|c| fib_cutoff(c, 18, cutoff)), fib_serial(18));
        }
    }

    #[test]
    fn spawn_count_formula() {
        // Direct recursive count for small n.
        fn count(n: u64) -> u64 {
            if n < 2 {
                0
            } else {
                1 + count(n - 1) + count(n - 2)
            }
        }
        for n in 0..20 {
            assert_eq!(fib_spawn_count(n), count(n), "n={n}");
        }
    }

    #[test]
    fn on_wool_pool() {
        let mut pool: wool_core::Pool = wool_core::Pool::new(2);
        assert_eq!(pool.run(|h| fib(h, 21)), fib_serial(21));
        let spawned = pool.last_report().unwrap().total.spawns;
        assert_eq!(spawned, fib_spawn_count(21));
    }

    /// Table I's `N_T` is the span executor's task count.
    #[test]
    fn span_executor_counts_spawns() {
        for n in [0, 1, 2, 15, 21] {
            let (r, dag) = wool_core::span::measure(|c| fib(c, n));
            assert_eq!(r, fib_serial(n));
            assert_eq!(dag.tasks, fib_spawn_count(n), "n={n}");
        }
    }
}
