//! Cycle-accurate timing.
//!
//! The paper reports all overheads in CPU cycles. On x86_64 we use the
//! time-stamp counter (`rdtsc`), which on every CPU of the last ~15 years
//! ticks at a constant rate close to the base clock frequency. On other
//! architectures we fall back to `std::time::Instant` and convert
//! nanoseconds into "cycles" using a calibrated rate, so all reported
//! numbers stay in the same unit.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Reads the cycle counter.
#[inline(always)]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` is always available on x86_64.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // Fallback: monotonic nanoseconds scaled to the calibrated rate.
        let base = base_instant();
        (base.elapsed().as_nanos() as u64).wrapping_mul(3)
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn base_instant() -> &'static Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now)
}

/// Returns the measured rate of [`now`] in ticks per nanosecond.
///
/// Calibrated once per process by timing the counter against `Instant`
/// over a ~20 ms window.
pub fn ticks_per_ns() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        let t0 = Instant::now();
        let c0 = now();
        while t0.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let c1 = now();
        let dt = t0.elapsed().as_nanos() as f64;
        (c1.wrapping_sub(c0)) as f64 / dt
    })
}

/// Converts a wall-clock duration into equivalent cycle ticks.
pub fn duration_to_ticks(d: Duration) -> f64 {
    d.as_nanos() as f64 * ticks_per_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_enough() {
        let a = now();
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = now();
        assert!(b > a, "counter must advance: {a} -> {b}");
    }

    #[test]
    fn rate_is_sane() {
        let r = ticks_per_ns();
        // Plausible CPU clock rates: 0.5 .. 6 GHz.
        assert!(r > 0.3 && r < 10.0, "ticks/ns = {r}");
    }

    #[test]
    fn ns_roundtrip() {
        let t0 = now();
        std::thread::sleep(Duration::from_millis(5));
        let dt = now() - t0;
        let ns = dt as f64 / ticks_per_ns();
        assert!(ns > 3e6 && ns < 1e9, "5ms measured as {ns}ns");
    }
}
