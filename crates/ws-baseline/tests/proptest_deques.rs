//! Property-style and stress tests for the deque substrates.
//!
//! Randomized cases are generated with a seeded xorshift64* generator
//! (deterministic, dependency-free) instead of an external property
//! testing crate: each test replays many random operation sequences
//! against a `VecDeque` reference model.

use std::collections::VecDeque;
use ws_baseline::chase_lev::OwnerToken;
use ws_baseline::{ChaseLev, LockedDeque};

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Operations on a deque, executed single-threaded against a model.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u16),
    Pop,
    Steal,
}

fn random_ops(rng: &mut Rng) -> Vec<Op> {
    let len = (rng.next() % 400) as usize;
    (0..len)
        .map(|_| match rng.next() % 3 {
            0 => Op::Push(rng.next() as u16),
            1 => Op::Pop,
            _ => Op::Steal,
        })
        .collect()
}

/// Chase–Lev agrees with a VecDeque model on any sequential history.
#[test]
fn chase_lev_matches_model() {
    let mut rng = Rng::new(0xD5EA5E);
    for _ in 0..64 {
        let ops = random_ops(&mut rng);
        let d = ChaseLev::new();
        // SAFETY: single-threaded test is the unique owner.
        let mut tok = unsafe { OwnerToken::new() };
        let mut model: VecDeque<u16> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    d.push(v, &mut tok);
                    model.push_back(v);
                }
                Op::Pop => {
                    assert_eq!(d.pop(&mut tok), model.pop_back());
                }
                Op::Steal => {
                    assert_eq!(d.steal().success(), model.pop_front());
                }
            }
        }
        // Drain and compare the remainder.
        let mut rest = Vec::new();
        while let Some(v) = d.pop(&mut tok) {
            rest.push(v);
        }
        rest.reverse();
        assert_eq!(rest, model.into_iter().collect::<Vec<_>>());
    }
}

/// The locked deque agrees with the same model.
#[test]
fn locked_matches_model() {
    let mut rng = Rng::new(0x10CED);
    for _ in 0..64 {
        let ops = random_ops(&mut rng);
        let d = LockedDeque::new();
        let mut model: VecDeque<u16> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    d.push(v);
                    model.push_back(v);
                }
                Op::Pop => {
                    assert_eq!(d.pop(), model.pop_back());
                }
                Op::Steal => {
                    assert_eq!(d.steal().success(), model.pop_front());
                }
            }
        }
        // Drain and compare the remainder.
        let mut rest = Vec::new();
        while let Some(v) = d.pop() {
            rest.push(v);
        }
        rest.reverse();
        assert_eq!(rest, model.into_iter().collect::<Vec<_>>());
    }
}

/// Length hints never drift from the true size across a history.
#[test]
fn chase_lev_len_hint_bounded() {
    let mut rng = Rng::new(0xB0B);
    for _ in 0..64 {
        let ops = random_ops(&mut rng);
        let d = ChaseLev::new();
        // SAFETY: unique owner.
        let mut tok = unsafe { OwnerToken::new() };
        let mut live = 0usize;
        for op in ops {
            match op {
                Op::Push(v) => {
                    d.push(v, &mut tok);
                    live += 1;
                }
                Op::Pop => {
                    if d.pop(&mut tok).is_some() {
                        live -= 1;
                    }
                }
                Op::Steal => {
                    if d.steal().success().is_some() {
                        live -= 1;
                    }
                }
            }
            assert_eq!(d.len_hint(), live);
        }
    }
}

/// Multi-threaded stress: with one owner and several thieves, the union
/// of popped and stolen elements is exactly the pushed multiset.
#[test]
fn chase_lev_concurrent_multiset() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    const PUSHES: u64 = 50_000;
    const THIEVES: usize = 3;

    let d: Arc<ChaseLev<u64>> = Arc::new(ChaseLev::new());
    let done = Arc::new(AtomicBool::new(false));
    let stolen_sum = Arc::new(AtomicU64::new(0));

    let thieves: Vec<_> = (0..THIEVES)
        .map(|_| {
            let d = Arc::clone(&d);
            let done = Arc::clone(&done);
            let sum = Arc::clone(&stolen_sum);
            std::thread::spawn(move || loop {
                match d.steal() {
                    ws_baseline::Steal::Success(v) => {
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                    ws_baseline::Steal::Retry => {}
                    ws_baseline::Steal::Empty => {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    // SAFETY: this thread is the unique owner.
    let mut tok = unsafe { OwnerToken::new() };
    let mut kept = 0u64;
    for v in 1..=PUSHES {
        d.push(v, &mut tok);
        if v % 3 == 0 {
            if let Some(x) = d.pop(&mut tok) {
                kept += x;
            }
        }
    }
    while let Some(x) = d.pop(&mut tok) {
        kept += x;
    }
    done.store(true, Ordering::Release);
    for t in thieves {
        t.join().unwrap();
    }
    assert_eq!(
        kept + stolen_sum.load(Ordering::Relaxed),
        PUSHES * (PUSHES + 1) / 2
    );
}
