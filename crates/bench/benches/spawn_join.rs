//! Microbenchmark: cost of one spawn+inlined-join (the Table II fast
//! path) under every join strategy, plus the serial call baseline.

use wool_core::{
    Fork, LockedBase, Pool, Strategy, SyncOnTask, TaskSpecific, WoolAllPublic, WoolFull,
};
use ws_bench::microbench::Bench;

fn fib<C: Fork>(c: &mut C, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = c.fork(|c| fib(c, n - 1), |c| fib(c, n - 2));
    a + b
}

fn fib_serial(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_serial(n - 1) + fib_serial(n - 2)
    }
}

fn bench_strategy<S: Strategy>(b: &mut Bench, group: &str) {
    let mut pool: Pool<S> = Pool::new(1);
    b.bench(&format!("{group}/{}/20", S::NAME), || {
        std::hint::black_box(pool.run(|h| fib(h, std::hint::black_box(20))));
    });
}

fn main() {
    let mut b = Bench::from_args();
    b.bench("spawn_join/serial-call", || {
        std::hint::black_box(fib_serial(std::hint::black_box(20)));
    });
    bench_strategy::<LockedBase>(&mut b, "spawn_join");
    bench_strategy::<SyncOnTask>(&mut b, "spawn_join");
    bench_strategy::<TaskSpecific>(&mut b, "spawn_join");
    bench_strategy::<WoolAllPublic>(&mut b, "spawn_join");
    bench_strategy::<WoolFull>(&mut b, "spawn_join");
    b.finish();
    b.write_json("BENCH_spawn_join.json");
}
