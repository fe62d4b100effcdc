//! Quantitative checks of the serial span executor
//! ([`wool_core::span::measure`]) against analytically known task DAGs.

use wool_core::span::{measure, SpanCtx};
use wool_core::Fork;

/// A busy leaf of roughly fixed duration, returning a checksum.
fn leaf(iters: u64) -> u64 {
    let mut x = iters | 1;
    for _ in 0..iters {
        x = x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(7);
    }
    std::hint::black_box(x)
}

fn balanced_tree<C: Fork>(h: &mut C, depth: u32, iters: u64) -> u64 {
    if depth == 0 {
        return leaf(iters);
    }
    let (a, b) = h.fork(
        |h| balanced_tree(h, depth - 1, iters),
        |h| balanced_tree(h, depth - 1, iters),
    );
    a.wrapping_add(b)
}

fn run_instrumented(f: impl FnOnce(&mut SpanCtx) -> u64) -> (u64, u64, u64) {
    let (_, r) = measure(f);
    (r.work, r.span0, r.span_c)
}

/// A balanced binary tree of 2^d equal leaves has ideal parallelism
/// close to 2^d (up to instrumentation overhead on the spine).
///
/// On a shared/oversubscribed host a descheduled leaf inflates its
/// measured span (the TSC keeps ticking), so the check retries: it
/// passes if any of a few attempts lands in the expected window.
#[test]
fn balanced_tree_parallelism() {
    const DEPTH: u32 = 6; // 64 leaves
    const ITERS: u64 = 200_000; // leaf >> instrumentation cost
    let ideal = (1u64 << DEPTH) as f64;
    let mut last = 0.0;
    for _ in 0..5 {
        let (work, span0, span_c) = run_instrumented(|h| balanced_tree(h, DEPTH, ITERS));
        assert!(work > 0 && span0 > 0);
        assert!(span_c >= span0);
        let par = work as f64 / span0 as f64;
        last = par;
        if par > ideal * 0.4 && par < ideal * 2.0 {
            return;
        }
    }
    panic!("parallelism {last} never near ideal {ideal} in 5 attempts");
}

/// A purely sequential chain has parallelism ~1 under both models.
#[test]
fn sequential_chain_has_no_parallelism() {
    let (work, span0, span_c) = run_instrumented(|_h| {
        let mut acc = 0u64;
        for _ in 0..64 {
            acc = acc.wrapping_add(leaf(50_000));
        }
        acc
    });
    let par0 = work as f64 / span0 as f64;
    let par_c = work as f64 / span_c as f64;
    // Serial code has span == work exactly (no forks to diverge them).
    assert!((0.99..1.01).contains(&par0), "par0 = {par0}");
    assert!((0.99..1.01).contains(&par_c), "par_c = {par_c}");
}

/// Tiny forked leaves: the realistic (2000-cycle) model should report
/// much less parallelism than the ideal model — the paper's point about
/// fine-grained workloads (cf. Table I, stress leaf 256).
///
/// Retried like `balanced_tree_parallelism`: a descheduled leaf inflates
/// both spans and can hide the cut in one attempt.
#[test]
fn fine_grain_collapses_under_realistic_model() {
    const DEPTH: u32 = 8; // 256 leaves
    const ITERS: u64 = 150; // few hundred cycles per leaf
    let mut last = (0.0, 0.0);
    for _ in 0..5 {
        let (work, span0, span_c) = run_instrumented(|h| balanced_tree(h, DEPTH, ITERS));
        let par0 = work as f64 / span0 as f64;
        let par_c = work as f64 / span_c as f64;
        assert!(par_c <= par0 + 1e-9);
        last = (par0, par_c);
        if par_c < par0 * 0.8 {
            return;
        }
    }
    panic!(
        "2000-cycle model never cut fine-grain parallelism in 5 attempts: {} -> {}",
        last.0, last.1
    );
}

/// Asymmetric trees: the span follows the heavy branch.
#[test]
fn asymmetric_fork_span_tracks_heavy_branch() {
    const HEAVY: u64 = 400_000;
    const LIGHT: u64 = 4_000;
    let (work, span0, _): (u64, u64, u64) = run_instrumented(|h| {
        let (a, b) = h.fork(|_| leaf(HEAVY), |_| leaf(LIGHT));
        a.wrapping_add(b)
    });
    // work ≈ heavy + light, span ≈ heavy  =>  par ≈ (H+L)/H ≈ 1.01.
    // Wide tolerance: host preemption can inflate either branch.
    let par = work as f64 / span0 as f64;
    let expect = (HEAVY + LIGHT) as f64 / HEAVY as f64;
    assert!(
        par >= 0.99 && par < expect * 1.5,
        "par {par}, expected about {expect}"
    );
}

/// `for_each_spawn` is measured too: `WIDTH` equal iterations
/// have ideal parallelism close to `WIDTH`, and each iteration's nested
/// forks fold into its own branch span.
#[test]
fn for_each_spawn_parallelism() {
    const WIDTH: usize = 16;
    const ITERS: u64 = 100_000;
    let ideal = WIDTH as f64;
    let mut last = 0.0;
    for _ in 0..5 {
        let (work, span0, span_c) = run_instrumented(|h| {
            let sum = std::sync::atomic::AtomicU64::new(0);
            h.for_each_spawn(WIDTH, &|h, _| {
                let v = balanced_tree(h, 1, ITERS / 2);
                sum.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
            });
            sum.into_inner()
        });
        assert!(work > 0 && span0 > 0);
        assert!(span_c >= span0);
        let par = work as f64 / span0 as f64;
        last = par;
        // Each iteration is itself a 2-leaf fork, so the ideal
        // parallelism is 2 * WIDTH.
        if par > 2.0 * ideal * 0.4 && par < 2.0 * ideal * 2.0 {
            return;
        }
    }
    panic!(
        "parallelism {last} never near ideal {} in 5 attempts",
        2.0 * ideal
    );
}

/// Repeated measurements of the same program agree (cache and host
/// noise allowed), and the span never exceeds the work.
///
/// Retried like `balanced_tree_parallelism`: a descheduling inside one
/// of the two runs inflates its work.
#[test]
fn work_is_reproducible() {
    fn fib<C: Fork>(c: &mut C, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = c.fork(|c| fib(c, n - 1), |c| fib(c, n - 2));
        a + b
    }
    let mut last = (0, 0);
    for _ in 0..5 {
        let (w1, s1, _) = run_instrumented(|c| fib(c, 21));
        let (w2, _, _) = run_instrumented(|c| fib(c, 21));
        assert!(w1 > 0 && w2 > 0);
        assert!(s1 <= w1);
        last = (w1, w2);
        if (0.5..2.0).contains(&(w2 as f64 / w1 as f64)) {
            return;
        }
    }
    panic!(
        "work never reproducible in 5 attempts: {} vs {}",
        last.0, last.1
    );
}
