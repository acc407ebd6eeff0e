//! Cholesky factorization of real symmetric positive-definite matrices.
//!
//! Gaussian-process training reduces to factorizing the (jittered) kernel
//! Gram matrix `K + σ²I`. Cholesky gives the solve, the log-determinant for
//! the marginal likelihood, and a cheap positive-definiteness check.
//!
//! The factor is built row by row (Banachiewicz order), so row `n` of a
//! fresh factorization is exactly the arithmetic of appending one row to
//! the factor of the leading `n×n` block: [`Cholesky::push_row`] grows a
//! factor by one observation in O(n²), and [`Cholesky::new`] is "push
//! every row from empty" — a grown factor and a fresh one run the same
//! code and agree bit for bit.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// A lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// # Examples
///
/// ```
/// use oa_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), oa_linalg::LinalgError> {
/// let a = Matrix::from_rows(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
/// let ch = Cholesky::new(&a)?;
/// let x = ch.solve(&[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
///
/// // Growing the factor of the leading 1×1 block by the second row gives
/// // the same factor, bit for bit.
/// let mut grown = Cholesky::new(&Matrix::from_rows(1, 1, vec![4.0]))?;
/// grown.push_row(&[2.0, 3.0])?;
/// assert_eq!(grown, ch);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cholesky {
    n: usize,
    /// Packed lower-triangular rows: row `i` is `l[i(i+1)/2 .. (i+1)(i+2)/2]`.
    l: Vec<f64>,
}

/// Start of packed row `i`.
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

impl Cholesky {
    /// The factor of the empty (0×0) matrix, ready for [`Cholesky::push_row`].
    pub fn empty() -> Self {
        Cholesky::default()
    }

    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass a matrix
    /// whose upper triangle is stale.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input and
    /// [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is not
    /// strictly positive (the caller should add jitter and retry).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::new_with_jitter_at(a, 0.0)
    }

    /// Factorizes `a + jitter·I` (the shift applied only when `jitter > 0`).
    fn new_with_jitter_at(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        Self::from_lower_rows((0..a.rows()).map(|i| &a.row(i)[..=i]), jitter)
    }

    /// Factorizes the matrix whose lower-triangular rows (row `i` holds
    /// `i + 1` entries, diagonal last) are yielded by `rows`, with `jitter`
    /// added to each diagonal entry when `jitter > 0`.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::push_row_jittered`], for the first failing row.
    pub fn from_lower_rows<I, R>(rows: I, jitter: f64) -> Result<Self, LinalgError>
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[f64]>,
    {
        let mut ch = Cholesky::empty();
        for row in rows {
            ch.push_row_jittered(row.as_ref(), jitter)?;
        }
        Ok(ch)
    }

    /// Factorizes `a + jitter·I`, escalating the jitter by ×10 until the
    /// factorization succeeds or `max_tries` is exhausted.
    ///
    /// This is the standard robustification for near-singular GP Gram
    /// matrices (e.g. duplicate training inputs).
    ///
    /// # Errors
    ///
    /// Returns the final [`LinalgError`] if every jitter level fails.
    pub fn new_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<(Self, f64), LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        Self::escalate(initial_jitter, max_tries, |jitter| {
            Self::new_with_jitter_at(a, jitter)
        })
    }

    /// The jitter escalation of [`Cholesky::new_with_jitter`] over any
    /// factorization: `factor(jitter)` is retried at `initial_jitter`,
    /// then ×10 per try (`0` steps to `1e-12`), and the first success is
    /// returned with its jitter level.
    ///
    /// # Errors
    ///
    /// Returns the last attempt's error if every level fails.
    pub fn escalate<F>(
        initial_jitter: f64,
        max_tries: usize,
        mut factor: F,
    ) -> Result<(Self, f64), LinalgError>
    where
        F: FnMut(f64) -> Result<Self, LinalgError>,
    {
        let mut jitter = initial_jitter;
        let mut tries = max_tries.max(1);
        loop {
            match factor(jitter) {
                Ok(ch) => return Ok((ch, jitter)),
                Err(e) => {
                    tries -= 1;
                    if tries == 0 {
                        return Err(e);
                    }
                    jitter = if jitter == 0.0 { 1e-12 } else { jitter * 10.0 };
                }
            }
        }
    }

    /// Appends one row: given the factor of the leading `n×n` block of
    /// `A`, extends it to the factor of the leading `(n+1)×(n+1)` block.
    /// `row` holds `A[n][0..=n]` (diagonal last).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `row.len() != n + 1`
    /// and [`LinalgError::NotPositiveDefinite`] (pivot `n`) when the new
    /// diagonal pivot is not strictly positive or not finite. On error the
    /// factor is left unchanged.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), LinalgError> {
        self.push_row_jittered(row, 0.0)
    }

    /// [`Cholesky::push_row`] with `jitter` added to the diagonal entry
    /// when `jitter > 0` — the row of `A + jitter·I`.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::push_row`].
    // The negated comparison is NaN-aware on purpose: a NaN pivot must be
    // treated as "not positive definite", which `pivot <= 0.0` would miss.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn push_row_jittered(&mut self, row: &[f64], jitter: f64) -> Result<(), LinalgError> {
        let i = self.n;
        if row.len() != i + 1 {
            return Err(LinalgError::DimensionMismatch {
                expected: i + 1,
                found: row.len(),
            });
        }
        let start = self.l.len();
        self.l.reserve(i + 1);
        for (j, &a) in row.iter().enumerate() {
            let mut a_ij = a;
            if j == i && jitter > 0.0 {
                a_ij += jitter;
            }
            let rj = row_start(j);
            let mut sum = a_ij;
            for (l_ik, l_jk) in self.l[start..].iter().zip(&self.l[rj..rj + j]) {
                sum -= l_ik * l_jk;
            }
            if j == i {
                if !(sum > 0.0) || !sum.is_finite() {
                    self.l.truncate(start);
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                self.l.push(sum.sqrt());
            } else {
                let l_ij = sum / self.l[rj + j];
                self.l.push(l_ij);
            }
        }
        self.n += 1;
        Ok(())
    }

    /// Dimension of the factorized system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The lower-triangular factor `L` as a dense matrix.
    pub fn factor(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| {
            if j <= i {
                self.l[row_start(i) + j]
            } else {
                0.0
            }
        })
    }

    fn diag(&self, i: usize) -> f64 {
        self.l[row_start(i) + i]
    }

    /// Solves `A·x = b` via `L·y = b`, `Lᵀ·x = y`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = b.to_vec();
        self.solve_many(&mut x, 1)?;
        Ok(x)
    }

    /// Forward substitution `L·y = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = b.to_vec();
        self.solve_lower_many(&mut y, 1)?;
        Ok(y)
    }

    /// Solves `A·X = B` in place for a row-major `n×m` block `B` (`m`
    /// right-hand sides side by side). Every column sees exactly the
    /// operation sequence of a single-column [`Cholesky::solve`], so the
    /// result is bit-identical to solving each column on its own.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != n·m`.
    pub fn solve_many(&self, b: &mut [f64], m: usize) -> Result<(), LinalgError> {
        self.solve_lower_many(b, m)?;
        self.solve_upper_many(b, m);
        Ok(())
    }

    /// Forward substitution `L·Y = B` in place for a row-major `n×m`
    /// block, column-for-column bit-identical to [`Cholesky::solve_lower`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != n·m`.
    pub fn solve_lower_many(&self, b: &mut [f64], m: usize) -> Result<(), LinalgError> {
        let n = self.n;
        if b.len() != n * m {
            return Err(LinalgError::DimensionMismatch {
                expected: n * m,
                found: b.len(),
            });
        }
        if m == 0 {
            return Ok(());
        }
        // y_i = (b_i − Σ_{j<i} L_ij·y_j) / L_ii, the sum taken in j order
        // per column; rows j < i of `b` already hold y_j. One column runs
        // as a contiguous dot product (a one-candidate prediction); a
        // block runs row-wise so the subtractions vectorize across
        // columns. Both take each column's terms in the same order.
        if m == 1 {
            for i in 0..n {
                let (done, rest) = b.split_at_mut(i);
                let row = &self.l[row_start(i)..row_start(i) + i + 1];
                let mut acc = rest[0];
                for (&l_ij, &y_j) in row[..i].iter().zip(done.iter()) {
                    acc -= l_ij * y_j;
                }
                rest[0] = acc / row[i];
            }
            return Ok(());
        }
        for i in 0..n {
            let (done, rest) = b.split_at_mut(i * m);
            let acc = &mut rest[..m];
            let row = &self.l[row_start(i)..row_start(i) + i + 1];
            for (&l_ij, y_j) in row[..i].iter().zip(done.chunks_exact(m)) {
                for (a, &y) in acc.iter_mut().zip(y_j) {
                    *a -= l_ij * y;
                }
            }
            let l_ii = row[i];
            for a in acc.iter_mut() {
                *a /= l_ii;
            }
        }
        Ok(())
    }

    /// Back substitution `Lᵀ·X = Y` in place for a row-major `n×m` block
    /// whose length was checked by the caller.
    fn solve_upper_many(&self, y: &mut [f64], m: usize) {
        let n = self.n;
        if m == 0 {
            return;
        }
        // x_i = (y_i − Σ_{j>i} L_ji·x_j) / L_ii, the sum taken in
        // ascending j per column; rows j > i already hold x_j.
        for i in (0..n).rev() {
            let (head, tail) = y.split_at_mut((i + 1) * m);
            let acc = &mut head[i * m..];
            for (j, x_j) in (i + 1..n).zip(tail.chunks_exact(m)) {
                let l_ji = self.l[row_start(j) + i];
                for (a, &x) in acc.iter_mut().zip(x_j) {
                    *a -= l_ji * x;
                }
            }
            let l_ii = self.diag(i);
            for a in acc.iter_mut() {
                *a /= l_ii;
            }
        }
    }

    /// `log |A| = 2·Σ log L_ii`, used in the GP marginal likelihood.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.diag(i).ln()).sum::<f64>() * 2.0
    }
}

/// Per-column weighted sums of a row-major `n×m` block:
/// `out[c] = Σ_i block[i][c]·w[i]`, accumulated in row order from the
/// neutral element of `f64`'s [`Sum`](std::iter::Sum) — bit-identical to
/// `column.iter().zip(w).map(|(k, a)| k * a).sum::<f64>()` per column.
///
/// # Panics
///
/// Panics if `block.len() != w.len() * m`.
pub fn column_dots(block: &[f64], m: usize, w: &[f64]) -> Vec<f64> {
    assert_eq!(block.len(), w.len() * m, "block is not n×m");
    let mut acc = vec![std::iter::empty::<f64>().sum::<f64>(); m];
    if m == 0 {
        return acc;
    }
    for (row, &a) in block.chunks_exact(m).zip(w) {
        for (s, &k) in acc.iter_mut().zip(row) {
            *s += k * a;
        }
    }
    acc
}

/// Per-column squared norms of a row-major block with `m` columns:
/// `out[c] = Σ_i block[i][c]²` in row order, bit-identical to
/// `column.iter().map(|t| t * t).sum::<f64>()` per column.
///
/// # Panics
///
/// Panics if `block.len()` is not a multiple of `m`.
pub fn column_sq_norms(block: &[f64], m: usize) -> Vec<f64> {
    let mut acc = vec![std::iter::empty::<f64>().sum::<f64>(); m];
    if m == 0 {
        return acc;
    }
    assert_eq!(block.len() % m, 0, "block is not n×m");
    for row in block.chunks_exact(m) {
        for (s, &t) in acc.iter_mut().zip(row) {
            *s += t * t;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn spd3() -> Matrix {
        // A = Bᵀ·B + I for a fixed B is SPD.
        let b = Matrix::from_rows(3, 3, vec![1.0, 2.0, 0.5, -1.0, 0.3, 2.0, 0.7, -0.2, 1.1]);
        let mut a = b.transpose().mat_mul(&b);
        a.add_diag(1.0);
        a
    }

    /// The factorization as it was written before the packed, row-grown
    /// storage: the differential reference for every test below.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn reference_factor(a: &Matrix) -> Result<Matrix, LinalgError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if !(sum > 0.0) || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    fn reference_solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= l[(i, j)] * y[j];
            }
            y[i] = acc / l[(i, i)];
        }
        y
    }

    fn reference_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let y = reference_solve_lower(l, b);
        let n = y.len();
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= l[(j, i)] * x[j];
            }
            x[i] = acc / l[(i, i)];
        }
        x
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// An RBF-like Gram over random points in `[0,1]^d`, with every
    /// `dup_every`-th point a copy of its predecessor (near-singular).
    fn random_gram(rng: &mut ChaCha8Rng, n: usize, d: usize, dup_every: usize) -> Matrix {
        let mut pts: Vec<Vec<f64>> = Vec::new();
        for i in 0..n {
            if dup_every > 0 && i > 0 && i % dup_every == 0 {
                let prev = pts[i - 1].clone();
                pts.push(prev);
            } else {
                pts.push((0..d).map(|_| rng.gen::<f64>()).collect());
            }
        }
        let ls = 0.05 + rng.gen::<f64>();
        Matrix::from_fn(n, n, |i, j| {
            let d2: f64 = pts[i]
                .iter()
                .zip(&pts[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            (-d2 / (2.0 * ls * ls)).exp()
        })
    }

    #[test]
    fn reconstructs_input() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.factor();
        let rec = l.mat_mul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_gives_exact_residual() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = ch.solve(&b).unwrap();
        let r = a.mat_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        // diag(4, 9) has det 36.
        let a = Matrix::from_rows(2, 2, vec![4.0, 0.0, 0.0, 9.0]);
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.log_det() - 36.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn jitter_rescues_rank_deficient_matrix() {
        // Rank-1 Gram matrix (duplicate GP inputs).
        let a = Matrix::from_rows(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let (ch, jitter) = Cholesky::new_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(ch.dim(), 2);
    }

    #[test]
    fn jitter_failure_returns_the_last_real_error() {
        let a = Matrix::from_rows(2, 2, vec![1.0, f64::NAN, f64::NAN, 1.0]);
        assert_eq!(
            Cholesky::new_with_jitter(&a, 1e-10, 3).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 1 }
        );
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Cholesky::new_with_jitter(&a, 1e-10, 3),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn fresh_factor_equals_the_reference_loop() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for trial in 0..40 {
            let n = 1 + trial % 25;
            let mut a = random_gram(&mut rng, n, 1 + trial % 4, trial % 3);
            a.add_diag(1e-6);
            let ch = Cholesky::new(&a);
            match reference_factor(&a) {
                Ok(l) => assert_eq!(bits(&ch.unwrap().factor()), bits(&l), "trial {trial}"),
                Err(e) => assert_eq!(ch.unwrap_err(), e, "trial {trial}"),
            }
        }
    }

    #[test]
    fn grown_factor_equals_fresh_factor() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for trial in 0..40 {
            let n = 2 + trial % 30;
            // Duplicate rows every 2nd/3rd point make most trials
            // near-singular; a small shift keeps them factorizable.
            let mut a = random_gram(&mut rng, n, 1 + trial % 5, trial % 4);
            a.add_diag(1e-8);
            let Ok(fresh) = Cholesky::new(&a) else {
                continue;
            };
            let mut grown = Cholesky::empty();
            for i in 0..n {
                grown.push_row(&a.row(i)[..=i]).unwrap();
                let lead = Matrix::from_fn(i + 1, i + 1, |r, c| a[(r, c)]);
                let lead = Cholesky::new(&lead).unwrap();
                assert_eq!(
                    bits(&grown.factor()),
                    bits(&lead.factor()),
                    "trial {trial} row {i}"
                );
            }
            assert_eq!(bits(&grown.factor()), bits(&fresh.factor()));
        }
    }

    #[test]
    fn jittered_rows_equal_a_shifted_matrix() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let a = random_gram(&mut rng, 12, 2, 3);
        let mut shifted = a.clone();
        shifted.add_diag(1e-9);
        let rows = Cholesky::from_lower_rows((0..12).map(|i| &a.row(i)[..=i]), 1e-9).unwrap();
        let fresh = Cholesky::new(&shifted).unwrap();
        assert_eq!(bits(&rows.factor()), bits(&fresh.factor()));
    }

    #[test]
    fn failed_push_leaves_the_factor_intact() {
        // Exact duplicate rows: the second pivot is exactly 0.
        let a = Matrix::from_rows(3, 3, vec![2.0, 0.5, 0.5, 0.5, 1.0, 1.0, 0.5, 1.0, 1.0]);
        let mut ch = Cholesky::new(&Matrix::from_fn(2, 2, |i, j| a[(i, j)])).unwrap();
        let before = ch.clone();
        assert_eq!(
            ch.push_row(&a.row(2)[..3]),
            Err(LinalgError::NotPositiveDefinite { pivot: 2 })
        );
        assert_eq!(ch, before);
        assert_eq!(
            ch.push_row(&[f64::NAN, 0.0, 1.0]),
            Err(LinalgError::NotPositiveDefinite { pivot: 2 })
        );
        assert_eq!(ch, before);
        assert_eq!(
            ch.push_row(&[1.0]),
            Err(LinalgError::DimensionMismatch {
                expected: 3,
                found: 1
            })
        );
        assert_eq!(ch, before);
        // The same factor still grows by a valid row afterwards.
        ch.push_row(&[0.5, 1.0, 2.0]).unwrap();
        assert_eq!(ch.dim(), 3);
        assert_eq!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 2 })
        );
    }

    #[test]
    fn multi_rhs_solve_equals_per_column_solve() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for trial in 0..30 {
            let n = 1 + trial % 20;
            let m = trial % 7;
            let mut a = random_gram(&mut rng, n, 2, trial % 3);
            a.add_diag(1e-6);
            let Ok(ch) = Cholesky::new(&a) else {
                continue;
            };
            let l = reference_factor(&a).unwrap();
            let cols: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect())
                .collect();
            let block: Vec<f64> = (0..n * m)
                .map(|k| cols[k % m.max(1)][k / m.max(1)])
                .collect();

            let mut lower = block.clone();
            ch.solve_lower_many(&mut lower, m).unwrap();
            let mut full = block.clone();
            ch.solve_many(&mut full, m).unwrap();
            for (c, col) in cols.iter().enumerate() {
                let want_lower = reference_solve_lower(&l, col);
                let want_full = reference_solve(&l, col);
                for i in 0..n {
                    assert_eq!(lower[i * m + c].to_bits(), want_lower[i].to_bits());
                    assert_eq!(full[i * m + c].to_bits(), want_full[i].to_bits());
                }
                assert_eq!(ch.solve_lower(col).unwrap(), want_lower);
                assert_eq!(ch.solve(col).unwrap(), want_full);
            }
        }
    }

    #[test]
    fn multi_rhs_solve_rejects_a_ragged_block() {
        let ch = Cholesky::new(&spd3()).unwrap();
        let mut b = vec![0.0; 7];
        assert_eq!(
            ch.solve_many(&mut b, 2),
            Err(LinalgError::DimensionMismatch {
                expected: 6,
                found: 7
            })
        );
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn column_reductions_equal_iterator_sums() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (n, m) = (9, 4);
        let block: Vec<f64> = (0..n * m).map(|_| rng.gen::<f64>() - 0.5).collect();
        let w: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let dots = column_dots(&block, m, &w);
        let norms = column_sq_norms(&block, m);
        for c in 0..m {
            let col: Vec<f64> = (0..n).map(|i| block[i * m + c]).collect();
            let dot: f64 = col.iter().zip(&w).map(|(k, a)| k * a).sum();
            let norm: f64 = col.iter().map(|t| t * t).sum();
            assert_eq!(dots[c].to_bits(), dot.to_bits());
            assert_eq!(norms[c].to_bits(), norm.to_bits());
        }
        // An empty column sums to the neutral element, as `Sum` does.
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(column_dots(&[], 2, &[])[0].to_bits(), empty.to_bits());
    }
}
