//! A serve job allocates one heap block, and every block is freed. A
//! counting global allocator checks both on a real two-worker
//! `ServePool`: 1000 submitted and joined jobs allocate at most a few
//! blocks more than 1000, and once the pool is shut down and dropped,
//! every allocation made since before it started has been freed, also
//! for a job whose handle was dropped before the job ran and for a job
//! whose panic reached `join`.

mod counting;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use counting::{ALLOCS, FREES};
use wool_core::ServePool;

const JOBS: u64 = 1000;

#[test]
fn a_serve_job_is_one_allocation_and_every_block_is_freed() {
    let mut handles = Vec::with_capacity(JOBS as usize);
    let started = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let (allocs0, frees0) = (ALLOCS.load(Relaxed), FREES.load(Relaxed));

    let pool = ServePool::start(2);

    // 1. Submit and join 1000 jobs.
    let before = ALLOCS.load(Relaxed);
    for i in 0..JOBS {
        handles.push(pool.submit(move |_| i * 2).unwrap());
    }
    let sum: u64 = handles.drain(..).map(|h| h.join()).sum();
    let allocs = ALLOCS.load(Relaxed) - before;
    assert_eq!(sum, JOBS * (JOBS - 1));
    assert!(
        allocs <= JOBS + 8,
        "{JOBS} submitted and joined jobs made {allocs} allocations"
    );

    // 2. A detached job: its handle is dropped while both workers are
    // held by gate jobs, so the job runs after its handle is gone.
    let gates: Vec<_> = (0..2)
        .map(|_| {
            let (started, release) = (Arc::clone(&started), Arc::clone(&release));
            pool.submit(move |_| {
                started.fetch_add(1, Relaxed);
                while !release.load(Relaxed) {
                    std::hint::spin_loop();
                }
            })
            .unwrap()
        })
        .collect();
    while started.load(Relaxed) < 2 {
        std::thread::yield_now();
    }
    let detached = pool.submit(|_| vec![7u8; 64]).unwrap();
    assert!(!detached.is_finished());
    drop(detached);
    release.store(true, Relaxed);
    gates.into_iter().for_each(|g| g.join());

    // 3. A panicking job whose payload reaches `join`. A silent hook, so
    // the panic prints nothing: libtest would keep the message in its
    // capture buffer, an allocation this test does not own.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let panicking = pool.submit(|_| -> u32 { panic!("job panics") }).unwrap();
    let payload = catch_unwind(AssertUnwindSafe(|| panicking.join())).unwrap_err();
    std::panic::set_hook(hook);
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"job panics"));
    drop(payload);

    let report = pool.shutdown().expect("first shutdown");
    assert_eq!(report.jobs, JOBS + 4);
    drop(report);
    drop(pool);
    let (allocs, frees) = (ALLOCS.load(Relaxed) - allocs0, FREES.load(Relaxed) - frees0);
    assert_eq!(
        allocs, frees,
        "blocks allocated and freed over the pool's life"
    );
}
