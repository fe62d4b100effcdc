//! CPU-time breakdown instrumentation (Figure 6).
//!
//! The paper classifies every cycle of every worker into:
//!
//! * **TR** — startup and shutdown (time outside parallel regions),
//! * **NA** — "other application code" (normal useful work),
//! * **LA** — application code acquired through leap frogging,
//! * **ST** — stealing (searching for and acquiring work),
//! * **LF** — leap frogging overhead (waiting at a blocked join and
//!   searching the thief's pool).
//!
//! Each worker keeps a tiny state machine: a current category and the
//! cycle stamp of the last transition. Transitions happen only at
//! scheduler events (entering/leaving the steal loop, blocking at a
//! join, running a stolen task), so the instrumentation does not touch
//! the per-spawn fast path.

use crate::cycles;

/// The five CPU-time categories of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Startup/shutdown: outside any parallel region.
    Tr = 0,
    /// Normal application code.
    Na = 1,
    /// Application code acquired through leap frogging.
    La = 2,
    /// Steal search and acquisition.
    St = 3,
    /// Leap-frog wait/search overhead.
    Lf = 4,
}

impl Category {
    /// All categories in display order.
    pub const ALL: [Category; 5] = [
        Category::Tr,
        Category::Na,
        Category::La,
        Category::St,
        Category::Lf,
    ];

    /// The paper's two-letter label.
    pub fn label(self) -> &'static str {
        match self {
            Category::Tr => "TR",
            Category::Na => "NA",
            Category::La => "LA",
            Category::St => "ST",
            Category::Lf => "LF",
        }
    }
}

/// Accumulated cycles per category.
#[derive(Debug, Default, Clone, Copy)]
pub struct TimeBreakdown {
    acc: [u64; 5],
}

impl TimeBreakdown {
    /// Cycles accumulated in `cat`.
    pub fn get(&self, cat: Category) -> u64 {
        self.acc[cat as usize]
    }

    /// Total cycles across categories.
    pub fn total(&self) -> u64 {
        self.acc.iter().sum()
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, o: &TimeBreakdown) {
        for i in 0..5 {
            self.acc[i] += o.acc[i];
        }
    }
}

/// Per-worker time-breakdown state machine.
#[derive(Debug)]
pub struct TimeBreak {
    /// Whether breakdown tracking is active for this run.
    pub enabled: bool,
    current: Category,
    since: u64,
    totals: TimeBreakdown,
}

impl Default for TimeBreak {
    fn default() -> Self {
        TimeBreak {
            enabled: false,
            current: Category::Tr,
            since: 0,
            totals: TimeBreakdown::default(),
        }
    }
}

impl TimeBreak {
    /// Resets and (de)activates tracking; the worker starts in `cat`.
    pub fn reset(&mut self, enabled: bool, cat: Category) {
        self.enabled = enabled;
        self.current = cat;
        self.since = cycles::now();
        self.totals = TimeBreakdown::default();
    }

    /// Switches to `cat`, attributing elapsed time to the previous one.
    /// Returns the previous category so callers can restore it.
    #[inline]
    pub fn switch(&mut self, cat: Category) -> Category {
        let prev = self.current;
        if self.enabled {
            let now = cycles::now();
            self.totals.acc[prev as usize] += now.wrapping_sub(self.since);
            self.since = now;
            self.current = cat;
        }
        prev
    }

    /// Closes the current interval and returns the totals.
    pub fn finish(&mut self) -> TimeBreakdown {
        if self.enabled {
            let now = cycles::now();
            self.totals.acc[self.current as usize] += now.wrapping_sub(self.since);
            self.since = now;
        }
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(n: u64) {
        let mut x = 0u64;
        for i in 0..n {
            x = x.wrapping_add(i).rotate_left(3);
        }
        std::hint::black_box(x);
    }

    #[test]
    fn disabled_costs_nothing_and_accumulates_nothing() {
        let mut tb = TimeBreak::default();
        tb.reset(false, Category::Na);
        busy(10_000);
        tb.switch(Category::St);
        busy(10_000);
        let t = tb.finish();
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn attributes_time_to_current_category() {
        let mut tb = TimeBreak::default();
        tb.reset(true, Category::Na);
        busy(200_000);
        tb.switch(Category::St);
        busy(200_000);
        let t = tb.finish();
        assert!(t.get(Category::Na) > 0);
        assert!(t.get(Category::St) > 0);
        assert_eq!(t.get(Category::Lf), 0);
        assert_eq!(t.total(), t.get(Category::Na) + t.get(Category::St));
    }

    #[test]
    fn merge_sums() {
        let mut a = TimeBreakdown::default();
        a.acc[Category::Na as usize] = 10;
        let mut b = TimeBreakdown::default();
        b.acc[Category::Na as usize] = 5;
        b.acc[Category::St as usize] = 7;
        a.merge(&b);
        assert_eq!(a.get(Category::Na), 15);
        assert_eq!(a.get(Category::St), 7);
        assert_eq!(a.total(), 22);
    }

    /// Deterministic xorshift64*; same generator as the protocol tests.
    fn rng(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn random_breakdown(seed: &mut u64) -> TimeBreakdown {
        let mut t = TimeBreakdown::default();
        for c in Category::ALL {
            t.acc[c as usize] = rng(seed) >> 32;
        }
        t
    }

    #[test]
    fn merge_is_commutative_and_lossless() {
        let mut seed = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..100 {
            let (a, b) = (random_breakdown(&mut seed), random_breakdown(&mut seed));
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            for c in Category::ALL {
                // Commutative and lossless in every category: no cycle
                // is dropped or double-counted when worker breakdowns
                // are aggregated.
                assert_eq!(ab.get(c), ba.get(c));
                assert_eq!(ab.get(c), a.get(c) + b.get(c));
            }
            assert_eq!(ab.total(), a.total() + b.total());
        }
    }

    #[test]
    fn default_is_merge_identity() {
        let mut seed = 7u64;
        let a = random_breakdown(&mut seed);
        let mut x = a;
        x.merge(&TimeBreakdown::default());
        let mut y = TimeBreakdown::default();
        y.merge(&a);
        for c in Category::ALL {
            assert_eq!(x.get(c), a.get(c));
            assert_eq!(y.get(c), a.get(c));
        }
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = Category::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["TR", "NA", "LA", "ST", "LF"]);
    }
}
