//! Property-style and stress tests for the baseline pools' task queues,
//! one suite generic over [`NodeQueue`] and run on both queues.
//!
//! Randomized cases are generated with a seeded xorshift64* generator
//! (deterministic, dependency-free) instead of an external property
//! testing crate. The queues only move pointers, so the tests push
//! integers disguised as `*mut TaskHeader` and never dereference them.

use std::collections::VecDeque;
use std::ptr::without_provenance_mut;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use ws_baseline::node::TaskHeader;
use ws_baseline::{ChaseLev, LockedDeque, NodeQueue};

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

fn node(v: usize) -> *mut TaskHeader {
    without_provenance_mut(v)
}

/// The queue agrees with a `VecDeque` model on random sequential
/// histories: push/pop/steal behave exactly like back-insert,
/// back-remove and front-remove.
fn matches_model<Q: NodeQueue>(seed: u64) {
    let mut rng = Rng::new(seed);
    for _ in 0..64 {
        let q = Q::new();
        let mut model = VecDeque::new();
        for _ in 0..rng.next() % 400 {
            // SAFETY: this thread is the queue's only owner.
            unsafe {
                match rng.next() % 3 {
                    0 => {
                        let v = node(rng.next() as u16 as usize + 1);
                        q.push(v);
                        model.push_back(v);
                    }
                    1 => assert_eq!(q.pop(), model.pop_back()),
                    // Single-threaded: no steal can lose a race.
                    _ => assert_eq!(q.steal(), model.pop_front()),
                }
            }
        }
        // Drain and compare the remainder.
        let mut rest = Vec::new();
        // SAFETY: as above.
        while let Some(v) = unsafe { q.pop() } {
            rest.push(v);
        }
        rest.reverse();
        assert_eq!(rest, Vec::from(model));
    }
}

/// Pushing well past the initial capacity keeps every element and the
/// LIFO/FIFO order of both ends.
fn grows<Q: NodeQueue>() {
    const N: usize = 512;
    let q = Q::new();
    // SAFETY: this thread is the queue's only owner.
    unsafe {
        for i in 1..=N {
            q.push(node(i));
        }
        assert_eq!(q.steal(), Some(node(1)));
        for i in (2..=N).rev() {
            assert_eq!(q.pop(), Some(node(i)));
        }
        assert_eq!(q.pop(), None);
    }
    assert_eq!(q.steal(), None);
}

/// With one owner and several thieves, every pushed element is received
/// exactly once, by the owner's pops or by one thief's steal.
fn concurrent_exactly_once<Q: NodeQueue>() {
    const PUSHES: usize = 50_000;
    const THIEVES: usize = 3;

    let q = Arc::new(Q::new());
    let done = Arc::new(AtomicBool::new(false));
    let seen: Arc<Vec<AtomicU8>> = Arc::new((0..=PUSHES).map(|_| AtomicU8::new(0)).collect());
    let receive = |seen: &[AtomicU8], v: *mut TaskHeader| {
        let prev = seen[v.addr()].fetch_add(1, Ordering::Relaxed);
        assert_eq!(prev, 0, "element {} received twice", v.addr());
    };

    let thieves: Vec<_> = (0..THIEVES)
        .map(|_| {
            let (q, done, seen) = (Arc::clone(&q), Arc::clone(&done), Arc::clone(&seen));
            std::thread::spawn(move || loop {
                match q.steal() {
                    Some(v) => receive(&seen, v),
                    None if done.load(Ordering::Acquire) => break,
                    None => std::thread::yield_now(),
                }
            })
        })
        .collect();

    // SAFETY: this thread is the queue's only owner.
    unsafe {
        for v in 1..=PUSHES {
            q.push(node(v));
            if v % 3 == 0 {
                if let Some(x) = q.pop() {
                    receive(&seen, x);
                }
            }
        }
        while let Some(x) = q.pop() {
            receive(&seen, x);
        }
    }
    done.store(true, Ordering::Release);
    for t in thieves {
        t.join().unwrap();
    }
    for (v, n) in seen.iter().enumerate().skip(1) {
        assert_eq!(n.load(Ordering::Relaxed), 1, "element {v} lost");
    }
}

#[test]
fn chase_lev_matches_model() {
    matches_model::<ChaseLev>(0xD5EA5E);
}

#[test]
fn locked_matches_model() {
    matches_model::<LockedDeque>(0x10CED);
}

#[test]
fn chase_lev_grows() {
    grows::<ChaseLev>();
}

#[test]
fn locked_grows() {
    grows::<LockedDeque>();
}

#[test]
fn chase_lev_concurrent_multiset() {
    concurrent_exactly_once::<ChaseLev>();
}

#[test]
fn locked_concurrent_multiset() {
    concurrent_exactly_once::<LockedDeque>();
}
