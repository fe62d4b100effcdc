//! A parallel region allocates nothing: 1000 untraced `Pool::run`
//! regions of one `fork` on a two-worker pool, counted by a global
//! allocator. Worker 0's fresh handle per region allocates nothing, and
//! the report's per-worker counters reuse the previous report's vector.

mod counting;

use std::sync::atomic::Ordering::Relaxed;

use counting::ALLOCS;
use wool_core::Pool;

const REGIONS: u64 = 1000;

/// Allocations allowed over all the regions, however many they are.
const BOUND: u64 = 8;

#[test]
fn a_region_allocates_only_its_report() {
    let mut pool: Pool = Pool::new(2);
    // The first region pays for one-time setup.
    assert_eq!(pool.run(|h| h.fork(|_| 1, |_| 2)), (1, 2));

    let before = ALLOCS.load(Relaxed);
    for _ in 0..REGIONS {
        assert_eq!(pool.run(|h| h.fork(|_| 1, |_| 2)), (1, 2));
    }
    let allocs = ALLOCS.load(Relaxed) - before;
    assert!(
        allocs <= BOUND,
        "{REGIONS} regions made {allocs} allocations"
    );
}
