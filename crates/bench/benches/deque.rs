//! Microbenchmark: owner-end push/pop throughput of the baselines' task
//! queues — our Chase–Lev (fenced pop) and the locked deque — over task
//! pointers (never dereferenced here).

use std::ptr::without_provenance_mut;

use ws_baseline::node::TaskHeader;
use ws_baseline::{ChaseLev, LockedDeque, NodeQueue};
use ws_bench::microbench::Bench;

const N: usize = 1000;

fn push_all<Q: NodeQueue>() -> Q {
    let q = Q::new();
    for i in 0..N {
        // SAFETY: the bench thread is the queue's only owner.
        unsafe { q.push(without_provenance_mut::<TaskHeader>(i)) };
    }
    q
}

fn main() {
    let mut b = Bench::from_args();
    b.bench("deque/chase-lev push+pop", || {
        let q = push_all::<ChaseLev>();
        for _ in 0..N {
            // SAFETY: as in `push_all`.
            std::hint::black_box(unsafe { q.pop() });
        }
    });
    b.bench("deque/locked push+pop", || {
        let q = push_all::<LockedDeque>();
        for _ in 0..N {
            // SAFETY: as in `push_all`.
            std::hint::black_box(unsafe { q.pop() });
        }
    });
    b.bench("deque/locked steal", || {
        let q = push_all::<LockedDeque>();
        for _ in 0..N {
            std::hint::black_box(q.steal());
        }
    });
    b.finish();
    b.write_json("BENCH_deque.json");
}
