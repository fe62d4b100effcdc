//! Task-stack memory: a pool's `stack_capacity` reserves address space,
//! and only the descriptors a program reaches cost resident memory.
//!
//! At a capacity of 2^20 each worker's task stack is 128 MiB, above
//! glibc's 32 MiB ceiling for its mmap threshold, so the stacks are
//! always fresh mappings whatever the process allocated before. Writing
//! them at start would grow the resident set by 256 MiB per pool.
//!
//! This binary holds a single test, so no other test allocates while it
//! reads `VmRSS`.

#![cfg(target_os = "linux")]

use wool_core::{Pool, PoolConfig, ServePool, WoolFull, WorkerHandle};

/// Descriptors per worker: 2^20 of 128 bytes, 128 MiB.
const CAPACITY: usize = 1 << 20;

/// Largest allowed growth of the resident set, in KiB.
const BOUND_KIB: u64 = 16 * 1024;

fn fib(h: &mut WorkerHandle<WoolFull>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = h.fork(move |h| fib(h, n - 1), move |h| fib(h, n - 2));
    a + b
}

/// The process's resident set, in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .expect("VmRSS line");
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmRSS value in kB")
}

#[test]
fn large_stack_capacity_commits_only_touched_pages() {
    let cfg = PoolConfig::with_workers(2).stack_capacity(CAPACITY);

    let before = vm_rss_kib();
    let mut pool: Pool = Pool::with_config(cfg.clone());
    assert_eq!(pool.run(|h| fib(h, 20)), 6765);
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(
        grown < BOUND_KIB,
        "a 2-worker Pool with {CAPACITY} descriptors per worker grew VmRSS by {grown} KiB"
    );
    drop(pool);

    let before = vm_rss_kib();
    let serve: ServePool = ServePool::with_config(cfg);
    let job = serve.submit(|h| fib(h, 12)).expect("pool accepts a job");
    assert_eq!(job.join(), 144);
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(
        grown < BOUND_KIB,
        "a 2-worker ServePool with {CAPACITY} descriptors per worker grew VmRSS by {grown} KiB"
    );
    serve.shutdown();
}
