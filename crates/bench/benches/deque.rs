//! Microbenchmark: owner-end push/pop throughput of the baselines' deque
//! substrates — our Chase–Lev (fenced pop) and the locked deque.

use ws_baseline::chase_lev::OwnerToken;
use ws_baseline::{ChaseLev, LockedDeque};
use ws_bench::microbench::Bench;

const N: usize = 1000;

fn main() {
    let mut b = Bench::from_args();
    b.bench("deque/chase-lev push+pop", || {
        let d = ChaseLev::new();
        // SAFETY: single-threaded bench owns the deque.
        let mut tok = unsafe { OwnerToken::new() };
        for i in 0..N {
            d.push(i, &mut tok);
        }
        for _ in 0..N {
            std::hint::black_box(d.pop(&mut tok));
        }
    });
    b.bench("deque/locked push+pop", || {
        let d = LockedDeque::new();
        for i in 0..N {
            d.push(i);
        }
        for _ in 0..N {
            std::hint::black_box(d.pop());
        }
    });
    b.bench("deque/locked steal", || {
        let d = LockedDeque::new();
        for i in 0..N {
            d.push(i);
        }
        for _ in 0..N {
            std::hint::black_box(d.steal());
        }
    });
    b.finish();
}
