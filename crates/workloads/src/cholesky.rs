//! Sparse Cholesky factorization on a quadtree matrix (§IV-A, "taken
//! from the Cilk-5 distribution").
//!
//! "Sparse matrix factorization on a random square matrix using
//! explicit nested tasks. Parameters are the number of matrix rows and
//! the number of nonzero elements."
//!
//! As in the Cilk-5 benchmark, the matrix is a quadtree: interior nodes
//! have four optional quadrants (`None` = all-zero block), leaves are
//! dense `BLOCK x BLOCK` blocks. The factorization `A = L L^T` recurses
//! on quadrants:
//!
//! ```text
//! L00 = chol(A00)
//! L10 = A10 * L00^-T            (triangular back-substitution)
//! L11 = chol(A11 - L10 * L10^T)
//! ```
//!
//! The parallelism lives inside `backsub` and `mul_subtract`, whose
//! independent quadrant computations are forked — giving the deep,
//! irregular task tree that makes cholesky the most steal-intensive
//! workload in Table I.

use wool_core::Fork;

/// Dense leaf block side. The Cilk-5 benchmark recurses to very small
/// blocks — that is what makes cholesky the finest-grained workload in
/// Table I (G_T around 200 cycles); 4x4 leaves reproduce that regime.
pub const BLOCK: usize = 4;
const B2: usize = BLOCK * BLOCK;

/// A dense leaf block, row-major.
pub type Block = [f64; B2];

/// A quadtree matrix of implicit power-of-two size.
///
/// Quadrants are ordered `[q00, q01, q10, q11]` (row-major blocks);
/// `None` quadrants are identically zero.
#[derive(Debug, Clone)]
pub enum QTree {
    /// A dense `BLOCK x BLOCK` block.
    Leaf(Box<Block>),
    /// Four optional quadrants of half the size.
    Node(Box<[Option<QTree>; 4]>),
}

impl QTree {
    /// An all-zero leaf.
    fn zero_leaf() -> QTree {
        QTree::Leaf(Box::new([0.0; B2]))
    }

    /// An all-zero tree of side `s`.
    fn zero(s: usize) -> QTree {
        if s == BLOCK {
            QTree::zero_leaf()
        } else {
            QTree::Node(Box::new([None, None, None, None]))
        }
    }

    /// Number of explicitly stored nonzero elements.
    pub fn nonzeros(&self) -> usize {
        match self {
            QTree::Leaf(b) => b.iter().filter(|&&x| x != 0.0).count(),
            QTree::Node(q) => q.iter().flatten().map(|t| t.nonzeros()).sum(),
        }
    }

    /// Number of allocated leaf blocks.
    pub fn blocks(&self) -> usize {
        match self {
            QTree::Leaf(_) => 1,
            QTree::Node(q) => q.iter().flatten().map(|t| t.blocks()).sum(),
        }
    }

    /// Sum of absolute values (cross-executor checksum).
    pub fn abs_sum(&self) -> f64 {
        match self {
            QTree::Leaf(b) => b.iter().map(|x| x.abs()).sum(),
            QTree::Node(q) => q.iter().flatten().map(|t| t.abs_sum()).sum(),
        }
    }

    /// Writes the tree of side `s` into `dense` (side `n >= s` row-major
    /// buffer) at offset `(r0, c0)`.
    fn fill_dense(&self, s: usize, r0: usize, c0: usize, n: usize, dense: &mut [f64]) {
        match self {
            QTree::Leaf(b) => {
                for r in 0..BLOCK {
                    for c in 0..BLOCK {
                        dense[(r0 + r) * n + c0 + c] = b[r * BLOCK + c];
                    }
                }
            }
            QTree::Node(q) => {
                let h = s / 2;
                let offs = [(0, 0), (0, h), (h, 0), (h, h)];
                for (t, (dr, dc)) in q.iter().zip(offs) {
                    if let Some(t) = t {
                        t.fill_dense(h, r0 + dr, c0 + dc, n, dense);
                    }
                }
            }
        }
    }

    /// Converts to a dense `s x s` row-major matrix.
    pub fn to_dense(&self, s: usize) -> Vec<f64> {
        let mut d = vec![0.0; s * s];
        self.fill_dense(s, 0, 0, s, &mut d);
        d
    }

    /// Builds a tree of side `s` from a dense row-major `s x s` matrix,
    /// dropping all-zero blocks.
    pub fn from_dense(s: usize, r0: usize, c0: usize, n: usize, dense: &[f64]) -> Option<QTree> {
        if s == BLOCK {
            let mut b = Box::new([0.0; B2]);
            let mut any = false;
            for r in 0..BLOCK {
                for c in 0..BLOCK {
                    let v = dense[(r0 + r) * n + c0 + c];
                    b[r * BLOCK + c] = v;
                    any |= v != 0.0;
                }
            }
            any.then_some(QTree::Leaf(b))
        } else {
            let h = s / 2;
            let q00 = QTree::from_dense(h, r0, c0, n, dense);
            let q01 = QTree::from_dense(h, r0, c0 + h, n, dense);
            let q10 = QTree::from_dense(h, r0 + h, c0, n, dense);
            let q11 = QTree::from_dense(h, r0 + h, c0 + h, n, dense);
            if q00.is_none() && q01.is_none() && q10.is_none() && q11.is_none() {
                None
            } else {
                Some(QTree::Node(Box::new([q00, q01, q10, q11])))
            }
        }
    }
}

/// A sparse symmetric positive-definite test matrix (lower triangle
/// stored), as the cholesky workload's input.
pub struct SpdMatrix {
    /// Quadtree side (power of two, >= BLOCK).
    pub size: usize,
    /// Logical dimension (rows requested).
    pub n: usize,
    /// Lower-triangular storage of A.
    pub tree: QTree,
}

/// Generates a random sparse SPD matrix with `n` rows and roughly
/// `nnz` off-diagonal nonzeros (paper parameters, e.g. `250, 1k`).
///
/// SPD is guaranteed by strict diagonal dominance: `a_ii` exceeds the
/// sum of absolute off-diagonal entries in row/column `i`.
pub fn spd_random(n: usize, nnz: usize, seed: u64) -> SpdMatrix {
    let size = n.next_power_of_two().max(BLOCK);
    let mut dense = vec![0.0f64; size * size];
    let mut rowsum = vec![0.0f64; size];

    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut placed = 0usize;
    let mut attempts = 0usize;
    while placed < nnz && attempts < nnz * 20 {
        attempts += 1;
        if n < 2 {
            break;
        }
        let i = (next() as usize) % n;
        let j = (next() as usize) % n;
        let (i, j) = if i > j { (i, j) } else { (j, i) };
        if i == j || dense[i * size + j] != 0.0 {
            continue;
        }
        let v = ((next() >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
        dense[i * size + j] = v;
        rowsum[i] += v.abs();
        rowsum[j] += v.abs();
        placed += 1;
    }
    // Dominant diagonal (1.0 on padding rows keeps the factor defined).
    for i in 0..size {
        dense[i * size + i] = 1.0 + 2.0 * rowsum[i];
    }
    let tree = QTree::from_dense(size, 0, 0, size, &dense).expect("diagonal is nonzero");
    SpdMatrix { size, n, tree }
}

// ---------------------------------------------------------------------
// dense leaf kernels
// ---------------------------------------------------------------------

/// In-place dense Cholesky of a leaf block (lower triangle; the strict
/// upper triangle is zeroed).
fn leaf_cholesky(a: &mut Block) {
    for j in 0..BLOCK {
        let mut d = a[j * BLOCK + j];
        for k in 0..j {
            d -= a[j * BLOCK + k] * a[j * BLOCK + k];
        }
        assert!(d > 0.0, "matrix not positive definite at {j} (d = {d})");
        let ljj = d.sqrt();
        a[j * BLOCK + j] = ljj;
        for i in (j + 1)..BLOCK {
            let mut v = a[i * BLOCK + j];
            for k in 0..j {
                v -= a[i * BLOCK + k] * a[j * BLOCK + k];
            }
            a[i * BLOCK + j] = v / ljj;
        }
        for i in 0..j {
            a[i * BLOCK + j] = 0.0;
        }
    }
}

/// Leaf back-substitution: `B := B * L^-T` for lower-triangular `L`.
fn leaf_backsub(b: &mut Block, l: &Block) {
    // Row r of X solves X[r][j] * L[j][j] = B[r][j] - sum_{k<j} X[r][k]L[j][k].
    for r in 0..BLOCK {
        for j in 0..BLOCK {
            let mut v = b[r * BLOCK + j];
            for k in 0..j {
                v -= b[r * BLOCK + k] * l[j * BLOCK + k];
            }
            b[r * BLOCK + j] = v / l[j * BLOCK + j];
        }
    }
}

/// Leaf multiply-subtract: `D -= A * B^T` (optionally only the lower
/// triangle of `D`, for symmetric updates).
fn leaf_mul_subtract(d: &mut Block, a: &Block, b: &Block, lower_only: bool) {
    for r in 0..BLOCK {
        let cmax = if lower_only { r + 1 } else { BLOCK };
        for c in 0..cmax {
            let mut v = 0.0;
            for k in 0..BLOCK {
                v += a[r * BLOCK + k] * b[c * BLOCK + k];
            }
            d[r * BLOCK + c] -= v;
        }
    }
}

// ---------------------------------------------------------------------
// parallel quadtree operations
// ---------------------------------------------------------------------

/// `D -= A * B^T` on optional quadtrees of side `s`; returns the new
/// `D`. With `lower_only`, only the lower triangle of `D` is updated
/// (the symmetric `A11` update).
fn mul_subtract<C: Fork>(
    c: &mut C,
    s: usize,
    d: Option<QTree>,
    a: &Option<QTree>,
    b: &Option<QTree>,
    lower_only: bool,
) -> Option<QTree> {
    let (Some(a), Some(b)) = (a.as_ref(), b.as_ref()) else {
        return d;
    };
    let mut d = d.unwrap_or_else(|| QTree::zero(s));
    match (&mut d, a, b) {
        (QTree::Leaf(db), QTree::Leaf(ab), QTree::Leaf(bb)) => {
            leaf_mul_subtract(db, ab, bb, lower_only);
        }
        (QTree::Node(dq), QTree::Node(aq), QTree::Node(bq)) => {
            // dst00 -= a00 b00^T + a01 b01^T        (lower_only: diag)
            // dst01 -= a00 b10^T + a01 b11^T        (skipped if lower)
            // dst10 -= a10 b00^T + a11 b01^T
            // dst11 -= a10 b10^T + a11 b11^T        (lower_only: diag)
            let [d00, d01, d10, d11] = {
                // Move the quadrants out so each fork branch owns its own.
                let dq = &mut **dq;
                [dq[0].take(), dq[1].take(), dq[2].take(), dq[3].take()]
            };
            let q = &Quadrants {
                a: aq,
                b: bq,
                h: s / 2,
                lower_only,
            };
            let ((n00, n01), (n10, n11)) = c.fork(
                |c| c.fork(|c| q.update(c, d00, 0, 0), |c| q.update(c, d01, 0, 2)),
                |c| c.fork(|c| q.update(c, d10, 2, 0), |c| q.update(c, d11, 2, 2)),
            );
            let dq = &mut **dq;
            dq[0] = n00;
            dq[1] = n01;
            dq[2] = n10;
            dq[3] = n11;
        }
        _ => unreachable!("quadtree shape mismatch (all trees share one side)"),
    }
    Some(d)
}

/// The operands of one `mul_subtract` split, borrowed as one value: each
/// fork branch captures a single reference to them, so its closure fits
/// a task descriptor's inline area instead of being boxed.
struct Quadrants<'a> {
    a: &'a [Option<QTree>; 4],
    b: &'a [Option<QTree>; 4],
    /// The quadrants' side.
    h: usize,
    lower_only: bool,
}

impl Quadrants<'_> {
    /// `d -= a[i] b[j]^T + a[i+1] b[j+1]^T`, the destination quadrant
    /// `(i / 2, j / 2)`. A symmetric (`lower_only`) update skips the upper
    /// quadrant and keeps only the lower triangle of the diagonal ones.
    fn update<C: Fork>(&self, c: &mut C, d: Option<QTree>, i: usize, j: usize) -> Option<QTree> {
        if self.lower_only && i < j {
            return d;
        }
        let lower = self.lower_only && i == j;
        let t = mul_subtract(c, self.h, d, &self.a[i], &self.b[j], lower);
        mul_subtract(c, self.h, t, &self.a[i + 1], &self.b[j + 1], lower)
    }
}

/// `B := B * L^-T` on quadtrees of side `s` (lower-triangular `L`).
fn backsub<C: Fork>(c: &mut C, s: usize, b: Option<QTree>, l: &QTree) -> Option<QTree> {
    let mut b = b?;
    match (&mut b, l) {
        (QTree::Leaf(bb), QTree::Leaf(lb)) => {
            leaf_backsub(bb, lb);
        }
        (QTree::Node(bq), QTree::Node(lq)) => {
            let h = s / 2;
            let l00 = lq[0].as_ref().expect("diagonal factor block present");
            let l10 = &lq[2];
            let l11 = lq[3].as_ref().expect("diagonal factor block present");
            let (b00, b01, b10, b11) = {
                let bq = &mut **bq;
                (bq[0].take(), bq[1].take(), bq[2].take(), bq[3].take())
            };
            // Column 0 of X: independent solves against L00.
            let (x00, x10) = c.fork(|c| backsub(c, h, b00, l00), |c| backsub(c, h, b10, l00));
            // Column 1: subtract the cross terms, then solve against L11.
            let (x01, x11) = c.fork(
                |c| {
                    let t = mul_subtract(c, h, b01, &x00, l10, false);
                    backsub(c, h, t, l11)
                },
                |c| {
                    let t = mul_subtract(c, h, b11, &x10, l10, false);
                    backsub(c, h, t, l11)
                },
            );
            let bq = &mut **bq;
            bq[0] = x00;
            bq[1] = x01;
            bq[2] = x10;
            bq[3] = x11;
        }
        _ => unreachable!("quadtree shape mismatch"),
    }
    Some(b)
}

/// Cholesky factorization of a quadtree of side `s` (lower triangle in,
/// lower-triangular factor out).
pub fn cholesky<C: Fork>(c: &mut C, s: usize, a: QTree) -> QTree {
    match a {
        QTree::Leaf(mut b) => {
            leaf_cholesky(&mut b);
            QTree::Leaf(b)
        }
        QTree::Node(mut q) => {
            let h = s / 2;
            let a00 = q[0].take().expect("SPD diagonal block present");
            let a10 = q[2].take();
            let a11 = q[3].take().expect("SPD diagonal block present");
            let l00 = cholesky(c, h, a00);
            let l10 = backsub(c, h, a10, &l00);
            let a11 = mul_subtract(c, h, Some(a11), &l10, &l10, true)
                .expect("diagonal block stays present");
            let l11 = cholesky(c, h, a11);
            let q = &mut *q;
            q[0] = Some(l00);
            q[1] = None;
            q[2] = l10;
            q[3] = Some(l11);
            QTree::Node(Box::new([q[0].take(), None, q[2].take(), q[3].take()]))
        }
    }
}

/// Sequential dense reference Cholesky (for verification).
pub fn dense_cholesky(n: usize, a: &mut [f64]) {
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        assert!(d > 0.0, "not positive definite at {j}");
        let ljj = d.sqrt();
        a[j * n + j] = ljj;
        for i in (j + 1)..n {
            let mut v = a[i * n + j];
            for k in 0..j {
                v -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = v / ljj;
        }
        for i in 0..j {
            a[i * n + j] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_baseline::SerialExecutor;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn dense_roundtrip_through_quadtree() {
        let m = spd_random(40, 100, 7);
        let d = m.tree.to_dense(m.size);
        let t2 = QTree::from_dense(m.size, 0, 0, m.size, &d).unwrap();
        assert_eq!(max_abs_diff(&d, &t2.to_dense(m.size)), 0.0);
    }

    #[test]
    fn quadtree_cholesky_matches_dense_reference() {
        for (n, nnz, seed) in [(16, 30, 1), (40, 120, 2), (100, 400, 3)] {
            let m = spd_random(n, nnz, seed);
            let mut dense = m.tree.to_dense(m.size);
            dense_cholesky(m.size, &mut dense);

            let mut e = SerialExecutor::new();
            let size = m.size;
            let l = e.run(move |c| cholesky(c, size, m.tree));
            let got = l.to_dense(size);
            let diff = max_abs_diff(&dense, &got);
            assert!(diff < 1e-9, "n={n}: max diff {diff}");
        }
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let m = spd_random(64, 200, 11);
        let size = m.size;
        let a_dense = m.tree.to_dense(size);
        let mut e = SerialExecutor::new();
        let l = e.run(move |c| cholesky(c, size, m.tree));
        let ld = l.to_dense(size);
        // Compute L L^T and compare to A (lower triangle).
        for i in 0..size {
            for j in 0..=i {
                let mut v = 0.0;
                for k in 0..size {
                    v += ld[i * size + k] * ld[j * size + k];
                }
                let want = a_dense[i * size + j];
                assert!((v - want).abs() < 1e-9, "LL^T({i},{j}) = {v}, A = {want}");
            }
        }
    }

    #[test]
    fn parallel_on_wool_matches_serial() {
        let m = spd_random(120, 500, 23);
        let size = m.size;
        let a2 = QTree::clone(&m.tree);
        let mut e = SerialExecutor::new();
        let want = e.run(move |c| cholesky(c, size, a2)).to_dense(size);
        let mut pool: wool_core::Pool = wool_core::Pool::new(3);
        let got = pool.run(move |h| cholesky(h, size, m.tree)).to_dense(size);
        assert!(max_abs_diff(&want, &got) < 1e-12);
    }

    #[test]
    fn spd_generator_properties() {
        let m = spd_random(100, 300, 5);
        assert_eq!(m.size, 128);
        assert_eq!(m.n, 100);
        let d = m.tree.to_dense(m.size);
        // Symmetric storage: strictly upper triangle is empty.
        for i in 0..m.size {
            for j in (i + 1)..m.size {
                assert_eq!(d[i * m.size + j], 0.0);
            }
            assert!(d[i * m.size + i] >= 1.0);
        }
        // Roughly the requested number of off-diagonal nonzeros.
        let off = m.tree.nonzeros() - m.size;
        assert!(off > 0 && off <= 300, "off-diagonal nnz = {off}");
    }

    #[test]
    fn nonzeros_and_blocks_counters() {
        let m = spd_random(32, 10, 9);
        assert!(m.tree.nonzeros() >= 32);
        assert!(m.tree.blocks() >= 2);
        assert!(m.tree.abs_sum() > 0.0);
    }
}
