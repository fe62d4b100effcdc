//! Idempotent work stealing (Michael, Vechev & Saraswat, PPoPP 2009) —
//! the LIFO-extraction variant.
//!
//! §III-A of the Wool paper cites this algorithm as the other known way
//! to avoid Dijkstra-style fence synchronization: "the idempotent work
//! stealing \[18\] avoid\[s\] Dijkstra style synchronization in favor of
//! atomic operations (in the latter case by exploiting synchronization
//! elsewhere in the algorithm)". The trick is to relax the extraction
//! guarantee from *exactly once* to **at least once**: owner and thieves
//! coordinate through a single packed `anchor = (size, tag)` word, the
//! owner's `put`/`take` use plain stores on it, and only thieves CAS —
//! so the owner's fast path, like the direct task stack's, executes no
//! atomic read-modify-write and no fence.
//!
//! The price is that a task can occasionally be extracted twice (an
//! owner `take` racing a thief's CAS on the same top element), which is
//! only sound for idempotent tasks. That is exactly why the schedulers
//! in this repository do **not** build on it — our task frames transfer
//! ownership and must run exactly once — but it belongs in the substrate
//! collection as the paper's named alternative, with tests that pin
//! down both the multiset guarantee and the duplication behavior.
//!
//! `T: Copy` is required: duplicated extraction hands out bitwise
//! copies, so only trivially duplicable payloads are sound.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Steal;

/// Packs `(size, tag)` into the anchor word.
#[inline]
fn pack(size: u32, tag: u32) -> u64 {
    ((tag as u64) << 32) | size as u64
}

/// Unpacks the anchor word into `(size, tag)`.
#[inline]
fn unpack(a: u64) -> (u32, u32) {
    (a as u32, (a >> 32) as u32)
}

/// An idempotent LIFO work-stealing pool with fixed capacity.
///
/// Owner: [`put`](IdempotentLifo::put) / [`take`](IdempotentLifo::take)
/// (single thread); thieves: [`steal`](IdempotentLifo::steal). Both
/// ends extract from the **top** (it is a shared stack); `take` may
/// duplicate an extraction that a concurrent `steal` also performed.
pub struct IdempotentLifo<T: Copy> {
    anchor: AtomicU64,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// SAFETY: slots are only read at indices below the anchor's size, which
// are fully written by the owner before the Release store/CAS that
// published them; duplicated reads are by-value copies of `T: Copy`.
unsafe impl<T: Copy + Send> Sync for IdempotentLifo<T> {}
unsafe impl<T: Copy + Send> Send for IdempotentLifo<T> {}

impl<T: Copy> IdempotentLifo<T> {
    /// Creates a pool that can hold `capacity` tasks.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity <= u32::MAX as usize);
        IdempotentLifo {
            anchor: AtomicU64::new(pack(0, 0)),
            buf: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    /// Capacity in tasks.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Observed number of stored tasks (racy hint).
    pub fn len_hint(&self) -> usize {
        unpack(self.anchor.load(Ordering::Relaxed)).0 as usize
    }

    /// Owner: pushes a task. Returns it back if the pool is full.
    ///
    /// # Safety
    /// Must only be called from the single owner thread.
    pub unsafe fn put(&self, v: T) -> Result<(), T> {
        let (s, g) = unpack(self.anchor.load(Ordering::Relaxed));
        if s as usize == self.buf.len() {
            return Err(v);
        }
        (*self.buf[s as usize].get()).write(v);
        // Release publishes the slot write; bumping the tag prevents a
        // thief's CAS from succeeding across our put (ABA on size).
        self.anchor
            .store(pack(s + 1, g.wrapping_add(1)), Ordering::Release);
        Ok(())
    }

    /// Owner: takes the most recent task, if any. May extract a task
    /// that a concurrent thief also extracted (idempotence!).
    ///
    /// # Safety
    /// Must only be called from the single owner thread.
    pub unsafe fn take(&self) -> Option<T> {
        let (s, g) = unpack(self.anchor.load(Ordering::Relaxed));
        if s == 0 {
            return None;
        }
        let v = (*self.buf[(s - 1) as usize].get()).assume_init();
        // Plain (Release) store, no RMW: if a thief concurrently CASed
        // the same (s, g), both of us got the element — allowed.
        self.anchor.store(pack(s - 1, g), Ordering::Release);
        Some(v)
    }

    /// Thief: attempts to steal the top task.
    pub fn steal(&self) -> Steal<T> {
        let a = self.anchor.load(Ordering::Acquire);
        let (s, g) = unpack(a);
        if s == 0 {
            return Steal::Empty;
        }
        // SAFETY: index s-1 was fully written before the Acquire-read
        // anchor value was published.
        let v = unsafe { (*self.buf[(s - 1) as usize].get()).assume_init() };
        match self
            .anchor
            .compare_exchange(a, pack(s - 1, g), Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => Steal::Success(v),
            Err(_) => Steal::Retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lifo_order_single_thread() {
        let q = IdempotentLifo::new(16);
        // SAFETY: single-threaded test is the owner.
        unsafe {
            q.put(1).unwrap();
            q.put(2).unwrap();
            q.put(3).unwrap();
            assert_eq!(q.take(), Some(3));
            assert_eq!(q.steal().success(), Some(2));
            assert_eq!(q.take(), Some(1));
            assert_eq!(q.take(), None);
            assert!(q.steal().is_empty());
        }
    }

    #[test]
    fn capacity_respected() {
        let q = IdempotentLifo::new(2);
        // SAFETY: owner thread.
        unsafe {
            q.put(10).unwrap();
            q.put(20).unwrap();
            assert_eq!(q.put(30), Err(30));
            assert_eq!(q.len_hint(), 2);
        }
    }

    #[test]
    fn tag_prevents_cross_put_aba() {
        // A thief holding a stale anchor must not succeed after the
        // owner has popped and re-pushed (the size returns but the tag
        // does not).
        let q = IdempotentLifo::new(8);
        // SAFETY: owner thread.
        unsafe {
            q.put(1).unwrap();
            let stale = q.anchor.load(Ordering::Acquire);
            assert_eq!(q.take(), Some(1));
            q.put(2).unwrap();
            // Same size as `stale`, different tag.
            let now = q.anchor.load(Ordering::Acquire);
            assert_eq!(unpack(stale).0, unpack(now).0);
            assert_ne!(unpack(stale).1, unpack(now).1);
        }
    }

    /// The defining guarantee: under owner/thief concurrency every
    /// pushed value is extracted **at least** once; duplicates are
    /// possible but bounded by the number of extractions.
    #[test]
    fn at_least_once_under_concurrency() {
        const N: u64 = 20_000;
        const THIEVES: usize = 3;
        let q = Arc::new(IdempotentLifo::new(64));
        let done = Arc::new(AtomicBool::new(false));
        let stolen = Arc::new(Mutex::new(Vec::new()));

        let thieves: Vec<_> = (0..THIEVES)
            .map(|_| {
                let q = Arc::clone(&q);
                let done = Arc::clone(&done);
                let stolen = Arc::clone(&stolen);
                std::thread::spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        match q.steal() {
                            Steal::Success(v) => local.push(v),
                            Steal::Retry => {}
                            Steal::Empty => {
                                if done.load(Ordering::Acquire) {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    stolen.lock().unwrap().extend(local);
                })
            })
            .collect();

        let mut taken = Vec::new();
        for v in 0..N {
            // SAFETY: this thread is the unique owner.
            unsafe {
                let mut v = v;
                loop {
                    match q.put(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            // Drain a little to make room.
                            if let Some(x) = q.take() {
                                taken.push(x);
                            }
                        }
                    }
                }
                if v % 2 == 0 {
                    if let Some(x) = q.take() {
                        taken.push(x);
                    }
                }
            }
        }
        // SAFETY: owner thread.
        unsafe {
            while let Some(x) = q.take() {
                taken.push(x);
            }
        }
        done.store(true, Ordering::Release);
        for t in thieves {
            t.join().unwrap();
        }

        let stolen = stolen.lock().unwrap();
        let mut seen: HashSet<u64> = HashSet::new();
        seen.extend(taken.iter().copied());
        seen.extend(stolen.iter().copied());
        // At-least-once: every value extracted by someone.
        for v in 0..N {
            assert!(seen.contains(&v), "value {v} lost");
        }
        // Total extractions >= pushes (duplicates allowed, losses not).
        assert!(taken.len() + stolen.len() >= N as usize);
    }
}
