//! Per-worker scheduler statistics.
//!
//! The paper's evaluation is driven by counters of exactly these events:
//! spawns (`N_T` for task granularity `G_T = T_S / N_T`), steals (`N_M`
//! for load-balancing granularity `G_L = T_S / N_M`), leap-frog steals,
//! and the thief back-offs §III-A promises stay below 1% of successful
//! steals. Counters live in the owner's `WorkerHandle` and are
//! incremented with plain adds, so the hot spawn/join paths pay one
//! `add` instruction at most. Each counter is the number of events of one
//! [`EventKind`](crate::trace::EventKind), bumped by the same `probe!`
//! that traces the event (see [`crate::trace`]).

use std::ops::AddAssign;

use crate::trace::EventKind;

/// Event counters for one worker (or an aggregate over workers).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Tasks spawned (the paper's `N_T`). Not counted at the spawn: the
    /// owner joins every pushed task exactly once, so a worker's report
    /// fills it in as `inlined_private + inlined_public + rts_joins`.
    pub spawns: u64,
    /// Joins that found the task private and used the plain-load path
    /// (`join_fast_private`).
    pub inlined_private: u64,
    /// Joins that acquired the task with the atomic swap
    /// (`join_fast_public`).
    pub inlined_public: u64,
    /// Joins that entered the slow path, `RTS_join` (`rts_join`).
    pub rts_joins: u64,
    /// Joins that found their task stolen and had to wait (`join_slow`).
    pub stolen_joins: u64,
    /// Successful steals (the paper's `N_M`; `steal_success`).
    pub steals: u64,
    /// Successful steals performed while leap-frogging (`leap_steal`).
    pub leap_steals: u64,
    /// Steal attempts that found no stealable task (`steal_fail`).
    pub failed_steals: u64,
    /// Steal attempts that lost the race for a task to another thief or
    /// the owner (`steal_lost`).
    pub lost_races: u64,
    /// Steals aborted by the `bot` re-check (§III-A back-off; `backoff`).
    pub backoffs: u64,
    /// Times the owner raised the public boundary (§III-B publications;
    /// `publish`).
    pub publishes: u64,
    /// Times a thief rang a victim's trip wire (`publish_request`): it
    /// found only private tasks, or stole within the trip distance of
    /// the public boundary.
    pub publish_requests: u64,
    /// Spawns that overflowed the task pool and ran eagerly inline
    /// (`overflow`).
    pub overflow_inlines: u64,
}

impl Stats {
    /// The counter of `kind`'s events, `None` for a kind `Stats` does
    /// not count. A steal attempt ends in exactly one of `steal_success`,
    /// `leap_steal`, `steal_fail`, `steal_lost` and `backoff`.
    pub fn count(&self, kind: EventKind) -> Option<u64> {
        let mut copy = *self;
        match kind {
            EventKind::Spawn => Some(self.spawns),
            _ => copy.counter(kind).copied(),
        }
    }

    /// Total successful steals including leap-frog steals.
    pub fn total_steals(&self) -> u64 {
        self.steals + self.leap_steals
    }

    /// Back-offs as a fraction of successful steals (the paper reports
    /// "always below 1%").
    pub fn backoff_ratio(&self) -> f64 {
        let s = self.total_steals();
        if s == 0 {
            0.0
        } else {
            self.backoffs as f64 / s as f64
        }
    }

    /// Joins resolved without any atomic instruction, as a fraction of
    /// all joins.
    pub fn private_join_ratio(&self) -> f64 {
        let total = self.inlined_private + self.inlined_public + self.rts_joins;
        if total == 0 {
            0.0
        } else {
            self.inlined_private as f64 / total as f64
        }
    }
}

impl AddAssign for Stats {
    fn add_assign(&mut self, o: Self) {
        self.spawns += o.spawns;
        self.inlined_private += o.inlined_private;
        self.inlined_public += o.inlined_public;
        self.rts_joins += o.rts_joins;
        self.stolen_joins += o.stolen_joins;
        self.steals += o.steals;
        self.leap_steals += o.leap_steals;
        self.failed_steals += o.failed_steals;
        self.lost_races += o.lost_races;
        self.backoffs += o.backoffs;
        self.publishes += o.publishes;
        self.publish_requests += o.publish_requests;
        self.overflow_inlines += o.overflow_inlines;
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

    fn random_stats(seed: &mut u64) -> Stats {
        Stats {
            spawns: rng(seed) >> 32,
            inlined_private: rng(seed) >> 32,
            inlined_public: rng(seed) >> 32,
            rts_joins: rng(seed) >> 32,
            stolen_joins: rng(seed) >> 32,
            steals: rng(seed) >> 32,
            leap_steals: rng(seed) >> 32,
            failed_steals: rng(seed) >> 32,
            lost_races: rng(seed) >> 32,
            backoffs: rng(seed) >> 32,
            publishes: rng(seed) >> 32,
            publish_requests: rng(seed) >> 32,
            overflow_inlines: rng(seed) >> 32,
        }
    }

    /// Fieldwise view of every counter, so merge tests cannot silently
    /// ignore a newly added field: this match is exhaustive.
    fn fields(s: &Stats) -> [u64; 13] {
        let Stats {
            spawns,
            inlined_private,
            inlined_public,
            rts_joins,
            stolen_joins,
            steals,
            leap_steals,
            failed_steals,
            lost_races,
            backoffs,
            publishes,
            publish_requests,
            overflow_inlines,
        } = *s;
        [
            spawns,
            inlined_private,
            inlined_public,
            rts_joins,
            stolen_joins,
            steals,
            leap_steals,
            failed_steals,
            lost_races,
            backoffs,
            publishes,
            publish_requests,
            overflow_inlines,
        ]
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
            let mut expect = [0u64; 13];
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
        assert_eq!(s.backoff_ratio(), 0.0);
        assert_eq!(s.private_join_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = Stats {
            steals: 8,
            leap_steals: 2,
            backoffs: 1,
            inlined_private: 6,
            inlined_public: 2,
            rts_joins: 2,
            ..Default::default()
        };
        assert!((s.backoff_ratio() - 0.1).abs() < 1e-12);
        assert!((s.private_join_ratio() - 0.6).abs() < 1e-12);
    }
}
