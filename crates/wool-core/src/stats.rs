//! Per-worker scheduler statistics.
//!
//! The paper's evaluation is driven by counters of exactly these events:
//! spawns (`N_T` for task granularity `G_T = T_S / N_T`), steals (`N_M`
//! for load-balancing granularity `G_L = T_S / N_M`), leap-frog steals,
//! and the thief back-offs §III-A promises stay below 1% of successful
//! steals. Counters live in the owner's `WorkerHandle` and are
//! incremented with plain adds, so the hot spawn/join paths pay one
//! `add` instruction at most.
//!
//! [`Stats`] is declared from the event table of [`crate::trace`]: each
//! counter is the number of events of one [`EventKind`], named once in
//! that table and bumped by the same `probe!` that traces the event.
//! [`Trace::stats`](crate::trace::Trace::stats) counts a trace's events
//! through the same map. `spawns` (`N_T`) is the one field that is not a
//! counter: it is derived from the joins.

use std::ops::AddAssign;

use crate::trace::{events, EventKind};

/// Declares [`Stats`], its kind-to-counter map and its merge from the
/// rows of the event table.
macro_rules! stats {
    ($($(#[doc = $doc:literal])* $kind:ident = $name:literal $(=> $field:ident)?,)*) => {
        /// Event counters for one worker (or an aggregate over workers).
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct Stats {
            /// Tasks spawned (the paper's `N_T`). Not counted at the
            /// spawn: the owner joins every pushed task exactly once, so
            /// a worker's report fills it in from the join counters.
            pub spawns: u64,
            $($(
                #[doc = concat!(
                    "Number of [`", stringify!($kind), "`](EventKind::",
                    stringify!($kind), ") events (`", $name, "`)."
                )]
                pub $field: u64,
            )?)*
        }

        impl Stats {
            /// The counter of `kind`'s events, if `Stats` counts them.
            #[inline(always)]
            pub(crate) fn counter(&mut self, kind: EventKind) -> Option<&mut u64> {
                match kind {
                    $(EventKind::$kind => None $(.or(Some(&mut self.$field)))?,)*
                }
            }
        }

        impl AddAssign for Stats {
            fn add_assign(&mut self, o: Self) {
                self.spawns += o.spawns;
                $($(self.$field += o.$field;)?)*
            }
        }
    };
}
events!(stats);

impl Stats {
    /// Joins of every kind. The owner joins each task it pushed exactly
    /// once, and each join is one of these three events, so this is the
    /// number of spawns.
    pub(crate) fn joins(&self) -> u64 {
        self.inlined_private + self.inlined_public + self.rts_joins
    }

    /// Total successful steals including leap-frog steals.
    pub fn total_steals(&self) -> u64 {
        self.steals + self.leap_steals
    }

    /// Steal attempts that found nothing to steal, as a fraction of all
    /// attempts ([`EventKind::StealFail`] over the five outcomes an
    /// attempt ends in).
    pub fn failed_ratio(&self) -> f64 {
        let mut copy = *self;
        let attempts: u64 = EventKind::STEAL_OUTCOMES
            .iter()
            .filter_map(|&kind| copy.counter(kind).copied())
            .sum();
        ratio(self.failed_steals, attempts)
    }

    /// Back-offs as a fraction of successful steals, leap-frog steals
    /// included (the paper reports "always below 1%").
    pub fn backoff_ratio(&self) -> f64 {
        ratio(self.backoffs, self.total_steals())
    }

    /// Joins resolved without any atomic instruction, as a fraction of
    /// all joins.
    pub fn private_join_ratio(&self) -> f64 {
        ratio(self.inlined_private, self.joins())
    }
}

/// `part / whole`, 0 when `whole` is 0.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl std::iter::Sum for Stats {
    fn sum<I: Iterator<Item = Stats>>(iter: I) -> Stats {
        let mut acc = Stats::default();
        for s in iter {
            acc += s;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_aggregates_fields() {
        let a = Stats {
            spawns: 10,
            steals: 2,
            backoffs: 1,
            ..Default::default()
        };
        let b = Stats {
            spawns: 5,
            leap_steals: 3,
            ..Default::default()
        };
        let t: Stats = [a, b].into_iter().sum();
        assert_eq!(t.spawns, 15);
        assert_eq!(t.total_steals(), 5);
        assert_eq!(t.backoffs, 1);
    }

    /// Deterministic xorshift64*; same generator as the protocol tests.
    fn rng(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Random counts in every field, reached through the event table.
    fn random_stats(seed: &mut u64) -> Stats {
        let mut s = Stats {
            spawns: rng(seed) >> 32,
            ..Stats::default()
        };
        for kind in EventKind::ALL {
            if let Some(n) = s.counter(kind) {
                *n = rng(seed) >> 32;
            }
        }
        s
    }

    /// Fieldwise view of every field, reached through the event table.
    fn fields(s: &Stats) -> Vec<u64> {
        let mut s = *s;
        let mut v = vec![s.spawns];
        v.extend(EventKind::ALL.iter().filter_map(|&k| s.counter(k).copied()));
        v
    }

    /// The table reaches every field, so the merge tests below cannot
    /// miss one: `Stats` is `spawns` plus one `u64` per counted kind.
    #[test]
    fn table_reaches_every_field() {
        let n = fields(&Stats::default()).len();
        assert_eq!(std::mem::size_of::<Stats>(), n * std::mem::size_of::<u64>());
    }

    #[test]
    fn merge_is_commutative() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100 {
            let (a, b) = (random_stats(&mut seed), random_stats(&mut seed));
            let mut ab = a;
            ab += b;
            let mut ba = b;
            ba += a;
            assert_eq!(ab, ba);
        }
    }

    #[test]
    fn merge_is_lossless_per_field() {
        // Merging must preserve every counter: the aggregate of N
        // worker reports equals the fieldwise sum, no field dropped or
        // double-counted.
        let mut seed = 0xDEAD_BEEF_CAFE_F00Du64;
        for _ in 0..20 {
            let parts: Vec<Stats> = (0..7).map(|_| random_stats(&mut seed)).collect();
            let merged: Stats = parts.iter().copied().sum();
            let mut expect = vec![0u64; fields(&merged).len()];
            for p in &parts {
                for (e, f) in expect.iter_mut().zip(fields(p)) {
                    *e += f;
                }
            }
            assert_eq!(fields(&merged), expect);
        }
    }

    #[test]
    fn merge_is_associative() {
        let mut seed = 1u64;
        let (a, b, c) = (
            random_stats(&mut seed),
            random_stats(&mut seed),
            random_stats(&mut seed),
        );
        let mut left = a;
        left += b;
        left += c;
        let mut bc = b;
        bc += c;
        let mut right = a;
        right += bc;
        assert_eq!(left, right);
    }

    #[test]
    fn default_is_merge_identity() {
        let mut seed = 42u64;
        let a = random_stats(&mut seed);
        let mut x = a;
        x += Stats::default();
        assert_eq!(x, a);
        let mut y = Stats::default();
        y += a;
        assert_eq!(y, a);
    }

    #[test]
    fn ratios_handle_zero() {
        let s = Stats::default();
        assert_eq!(s.failed_ratio(), 0.0);
        assert_eq!(s.backoff_ratio(), 0.0);
        assert_eq!(s.private_join_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = Stats {
            steals: 8,
            leap_steals: 2,
            backoffs: 1,
            failed_steals: 4,
            inlined_private: 6,
            inlined_public: 2,
            rts_joins: 2,
            ..Default::default()
        };
        assert!((s.failed_ratio() - 4.0 / 15.0).abs() < 1e-12);
        assert!((s.backoff_ratio() - 0.1).abs() < 1e-12);
        assert!((s.private_join_ratio() - 0.6).abs() < 1e-12);
    }
}
