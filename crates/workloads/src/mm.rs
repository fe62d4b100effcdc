//! Dense matrix multiply (§IV-A, "taken from the Wool distribution").
//!
//! "Dense matrix multiply (not blocked) of square matrices with the
//! outermost loop parallelized." One task is spawned per row of the
//! output except the first, which the spawning worker computes as the
//! direct call — exactly the structure the paper's Table IV model
//! analyzes ("63 tasks are spawned each of which will do one iteration
//! of the outermost loop" for n = 64).

use wool_core::Fork;

/// A square matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of side `n`.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Deterministic pseudo-random matrix of side `n`.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to [0, 1).
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let data = (0..n * n).map(|_| next()).collect();
        Matrix { n, data }
    }

    /// Matrix side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element (i, j).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Sum of all elements (checksum for cross-executor validation).
    pub fn checksum(&self) -> f64 {
        self.data.iter().sum()
    }
}

/// Shared-output writer: hands each task exclusive access to one row.
///
/// SAFETY rationale: `for_each_spawn` calls `body` exactly once
/// per row index, so writes are disjoint; the join at the end of the
/// loop orders all writes before the owner reads the result.
struct RowWriter {
    ptr: *mut f64,
    n: usize,
}
unsafe impl Sync for RowWriter {}
unsafe impl Send for RowWriter {}

impl RowWriter {
    /// Exclusive slice for row `i`.
    ///
    /// # Safety
    /// At most one live caller per row index.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, i: usize) -> &mut [f64] {
        std::slice::from_raw_parts_mut(self.ptr.add(i * self.n), self.n)
    }
}

/// Computes one row of `a * b` into `out_row`.
#[inline]
fn mm_row(a_row: &[f64], b: &Matrix, out_row: &mut [f64]) {
    let n = b.n;
    out_row.fill(0.0);
    // i-k-j loop order: stream through b rows, vectorizable inner loop.
    for (k, &aik) in a_row.iter().enumerate() {
        let b_row = b.row(k);
        for j in 0..n {
            out_row[j] += aik * b_row[j];
        }
    }
    let _ = n;
}

/// Parallel dense multiply: spawns one task per output row (minus the
/// direct call), the paper's `mm` structure.
pub fn mm_par<C: Fork>(c: &mut C, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.n, b.n);
    let n = a.n;
    let mut out = Matrix::zeros(n);
    let w = RowWriter {
        ptr: out.data.as_mut_ptr(),
        n,
    };
    c.for_each_spawn(n, &|_c, i| {
        // SAFETY: one task per row index (see RowWriter docs).
        let out_row = unsafe { w.row(i) };
        mm_row(a.row(i), b, out_row);
    });
    out
}

/// Sequential reference multiply (no task constructs): the `T_S`
/// baseline.
pub fn mm_serial(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.n, b.n);
    let n = a.n;
    let mut out = Matrix::zeros(n);
    for i in 0..n {
        let (head, tail) = out.data.split_at_mut((i + 1) * n);
        let _ = tail;
        let out_row = &mut head[i * n..];
        mm_row(a.row(i), b, out_row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_baseline::SerialExecutor;

    fn assert_close(a: &Matrix, b: &Matrix) {
        assert_eq!(a.n, b.n);
        for i in 0..a.n {
            for j in 0..a.n {
                let (x, y) = (a.at(i, j), b.at(i, j));
                assert!((x - y).abs() < 1e-9, "({i},{j}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn identity_times_anything() {
        let n = 8;
        let mut id = Matrix::zeros(n);
        for i in 0..n {
            id.data[i * n + i] = 1.0;
        }
        let a = Matrix::random(n, 42);
        assert_close(&mm_serial(&id, &a), &a);
        assert_close(&mm_serial(&a, &id), &a);
    }

    #[test]
    fn known_product() {
        // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = Matrix {
            n: 2,
            data: vec![1.0, 2.0, 3.0, 4.0],
        };
        let b = Matrix {
            n: 2,
            data: vec![5.0, 6.0, 7.0, 8.0],
        };
        let c = mm_serial(&a, &b);
        assert_eq!(c.data, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn parallel_matches_serial_reference() {
        let a = Matrix::random(33, 1);
        let b = Matrix::random(33, 2);
        let want = mm_serial(&a, &b);
        let mut e = SerialExecutor::new();
        let got = e.run(|c| mm_par(c, &a, &b));
        assert_close(&got, &want);
    }

    #[test]
    fn parallel_on_wool_pool() {
        let a = Matrix::random(48, 3);
        let b = Matrix::random(48, 4);
        let want = mm_serial(&a, &b);
        let mut pool: wool_core::Pool = wool_core::Pool::new(3);
        let got = pool.run(|h| mm_par(h, &a, &b));
        assert_close(&got, &want);
        // n-1 spawned tasks, one direct call.
        assert_eq!(pool.last_report().unwrap().total.spawns, 47);
    }

    #[test]
    fn parallel_on_baselines() {
        let a = Matrix::random(32, 5);
        let b = Matrix::random(32, 6);
        let want = mm_serial(&a, &b);
        let mut tbb = ws_baseline::tbb_like(2);
        assert_close(&tbb.run(|c| mm_par(c, &a, &b)), &want);
        let mut omp = ws_baseline::omp_like(2);
        assert_close(&omp.run(|c| mm_par(c, &a, &b)), &want);
    }

    #[test]
    fn checksum_is_stable() {
        let a = Matrix::random(16, 9);
        assert_eq!(a.checksum(), Matrix::random(16, 9).checksum());
    }
}
