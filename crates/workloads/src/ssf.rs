//! Sub-string finder (§IV-A, "based on the Sub String Finder example
//! from the TBB distribution").
//!
//! "For each position in a string, it finds from which other position
//! the longest identical substring starts. The string is given by the
//! recursion s_n = s_{n-1} s_{n-2} with s_0 = \"a\" and s_1 = \"b\"
//! where n is the parameter in the workload."
//!
//! The algorithm is the TBB example's: for every position `i`, scan all
//! other positions `j` and count how many characters match starting at
//! `i` and `j`; record the `j` with the longest match. Positions are
//! processed in parallel with recursive range splitting (the TBB
//! `parallel_for` idiom), here wool-par's splitter at a pinned grain.

use wool_core::Fork;
use wool_par::par_range;

/// Builds the Fibonacci string `s_n` (`s_0 = "a"`, `s_1 = "b"`,
/// `s_n = s_{n-1} s_{n-2}`).
pub fn fib_string(n: u32) -> Vec<u8> {
    match n {
        0 => b"a".to_vec(),
        1 => b"b".to_vec(),
        _ => {
            let mut a: Vec<u8> = b"a".to_vec();
            let mut b: Vec<u8> = b"b".to_vec();
            // Invariant: a = s_{k-1}, b = s_k.
            for _ in 2..=n {
                let mut next = Vec::with_capacity(a.len() + b.len());
                next.extend_from_slice(&b);
                next.extend_from_slice(&a);
                a = b;
                b = next;
            }
            b
        }
    }
}

/// Length of `s_n` without building it: `Fib(n+1)` with `Fib(1)=1`,
/// `Fib(2)=1`.
pub fn fib_string_len(n: u32) -> usize {
    let (mut a, mut b) = (1usize, 1usize); // |s_0|, |s_1|
    for _ in 2..=n {
        let next = a + b;
        a = b;
        b = next;
    }
    if n == 0 {
        a
    } else {
        b
    }
}

/// Match length of the two suffixes starting at `i` and `j`.
#[inline]
fn match_len(s: &[u8], i: usize, j: usize) -> usize {
    let mut k = 0;
    let n = s.len();
    while i + k < n && j + k < n && s[i + k] == s[j + k] {
        k += 1;
    }
    k
}

/// For one position `i`: the longest match with any other position.
/// Returns `(best_j, best_len)`.
fn best_for(s: &[u8], i: usize) -> (usize, usize) {
    let mut best = (i, 0usize);
    for j in 0..s.len() {
        if j == i {
            continue;
        }
        let m = match_len(s, i, j);
        if m > best.1 {
            best = (j, m);
        }
    }
    best
}

/// Shared-output writer over the per-position results.
///
/// SAFETY rationale: each index is written by exactly one loop body
/// invocation; the loop joins before the owner reads.
struct OutWriter {
    max: *mut usize,
    pos: *mut usize,
}
unsafe impl Sync for OutWriter {}
unsafe impl Send for OutWriter {}

impl OutWriter {
    /// Records the result for position `i`.
    ///
    /// # Safety
    /// At most one caller per index.
    unsafe fn set(&self, i: usize, m: usize, p: usize) {
        *self.max.add(i) = m;
        *self.pos.add(i) = p;
    }
}

/// Result of a sub-string-finder run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsfResult {
    /// `max[i]`: length of the longest match for position `i`.
    pub max: Vec<usize>,
    /// `pos[i]`: the position it matches.
    pub pos: Vec<usize>,
}

impl SsfResult {
    /// Order-independent checksum for cross-executor validation.
    pub fn checksum(&self) -> u64 {
        self.max
            .iter()
            .zip(&self.pos)
            .enumerate()
            .fold(0u64, |acc, (i, (&m, &p))| {
                acc.wrapping_add((i as u64 + 1).wrapping_mul(m as u64 * 31 + p as u64))
            })
    }
}

/// Parallel sub-string finder over `s`, splitting the position range
/// down to `grain` positions per task.
pub fn ssf_par<C: Fork>(c: &mut C, s: &[u8], grain: usize) -> SsfResult {
    let n = s.len();
    let mut out = SsfResult {
        max: vec![0; n],
        pos: vec![0; n],
    };
    let w = OutWriter {
        max: out.max.as_mut_ptr(),
        pos: out.pos.as_mut_ptr(),
    };
    par_range(0..n).with_grain(grain).for_each(c, |i| {
        let (p, m) = best_for(s, i);
        // SAFETY: index `i` is visited exactly once (see OutWriter).
        // (The method call captures `&w`, keeping the raw pointers
        // behind the Sync wrapper rather than as disjoint fields.)
        unsafe { w.set(i, m, p) };
    });
    out
}

/// Sequential reference.
pub fn ssf_serial(s: &[u8]) -> SsfResult {
    let n = s.len();
    let mut out = SsfResult {
        max: vec![0; n],
        pos: vec![0; n],
    };
    for i in 0..n {
        let (p, m) = best_for(s, i);
        out.max[i] = m;
        out.pos[i] = p;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_baseline::SerialExecutor;

    #[test]
    fn fib_string_construction() {
        assert_eq!(fib_string(0), b"a");
        assert_eq!(fib_string(1), b"b");
        assert_eq!(fib_string(2), b"ba");
        assert_eq!(fib_string(3), b"bab");
        assert_eq!(fib_string(4), b"babba");
        assert_eq!(fib_string(5), b"babbabab");
    }

    #[test]
    fn fib_string_len_matches() {
        for n in 0..20 {
            assert_eq!(fib_string_len(n), fib_string(n).len(), "n={n}");
        }
    }

    #[test]
    fn match_len_basics() {
        let s = b"abcabx";
        assert_eq!(match_len(s, 0, 3), 2); // "ab" == "ab", then c != x
        assert_eq!(match_len(s, 0, 0), 6);
        assert_eq!(match_len(s, 5, 2), 0);
    }

    #[test]
    fn known_small_case() {
        // "baba": position 0 ("baba") matches position 2 ("ba") len 2.
        let s = b"baba";
        let r = ssf_serial(s);
        assert_eq!(r.max[0], 2);
        assert_eq!(r.pos[0], 2);
        // position 1 ("aba") vs position 3 ("a"): len 1.
        assert_eq!(r.max[1], 1);
    }

    #[test]
    fn parallel_matches_serial() {
        let s = fib_string(10);
        let want = ssf_serial(&s);
        let mut e = SerialExecutor::new();
        let got = e.run(|c| ssf_par(c, &s, 4));
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_on_wool_pool() {
        let s = fib_string(11);
        let want = ssf_serial(&s);
        let mut pool: wool_core::Pool = wool_core::Pool::new(3);
        let got = pool.run(|h| ssf_par(h, &s, 8));
        assert_eq!(got, want);
        assert_eq!(got.checksum(), want.checksum());
    }

    #[test]
    fn spawn_count_is_the_halving_tree() {
        // Table I's G_T = T_S / spawns needs ssf's fork tree to be the
        // plain halving recursion: one spawn per range longer than
        // `grain`, halves of `len / 2` and `len - len / 2`.
        fn internal_nodes(len: usize, grain: usize) -> u64 {
            if len <= grain {
                return 0;
            }
            1 + internal_nodes(len / 2, grain) + internal_nodes(len - len / 2, grain)
        }
        let s = fib_string(12);
        let mut pool: wool_core::Pool = wool_core::Pool::new(2);
        for grain in [1, 4] {
            pool.run(|h| ssf_par(h, &s, grain));
            let spawns = pool.last_report().unwrap().total.spawns;
            assert_eq!(spawns, internal_nodes(s.len(), grain), "grain {grain}");
        }
    }

    #[test]
    fn checksum_differs_for_different_strings() {
        let a = ssf_serial(&fib_string(8));
        let b = ssf_serial(&fib_string(9));
        assert_ne!(a.checksum(), b.checksum());
    }
}
