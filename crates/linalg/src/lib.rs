//! Dense linear-algebra substrate for the INTO-OA reproduction.
//!
//! This crate provides exactly the numerical kernels the rest of the
//! workspace needs, implemented from scratch:
//!
//! * [`Complex`] — a double-precision complex scalar (AC analysis).
//! * [`Matrix`] / [`CMatrix`] — dense row-major real/complex matrices.
//! * [`CluFactor`] — complex LU with partial pivoting, the direct solver
//!   behind the MNA-based circuit simulator in `oa-sim`.
//! * [`Cholesky`] — real SPD Cholesky with jitter escalation and
//!   log-determinant, the factorization behind Gaussian-process training in
//!   `oa-gp`.
//!
//! # Examples
//!
//! Solving a small complex system, as the AC simulator does at every
//! frequency point:
//!
//! ```
//! use oa_linalg::{solve_complex, CMatrix, Complex};
//!
//! # fn main() -> Result<(), oa_linalg::LinalgError> {
//! let mut a = CMatrix::zeros(2, 2);
//! a[(0, 0)] = Complex::new(1e-3, 0.0);   // conductance
//! a[(0, 1)] = Complex::new(0.0, -1e-6);  // -jωC coupling
//! a[(1, 0)] = Complex::new(0.0, -1e-6);
//! a[(1, 1)] = Complex::new(2e-3, 1e-6);
//! let x = solve_complex(&a, &[Complex::ONE, Complex::ZERO])?;
//! assert!(x[0].is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod complex;
mod eigen;
mod error;
mod lu;
mod matrix;
mod sparse;

pub use cholesky::{column_dots, column_sq_norms, Cholesky};
pub use complex::Complex;
pub use eigen::{symmetric_top_eigenpairs, EigenPair};
pub use error::LinalgError;
pub use lu::{factorize_in_place, solve_complex, solve_in_place, CluFactor};
pub use matrix::{CMatrix, Matrix};
pub use sparse::{BatchBuffers, SparsityPattern, SymbolicPlan, LANES, REFINE_GATE};

/// Dot product of two equal-length real vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(oa_linalg::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(super::dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        let _ = super::dot(&[1.0], &[1.0, 2.0]);
    }
}
