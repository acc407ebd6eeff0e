//! Gaussian-process surrogate models for the INTO-OA reproduction.
//!
//! Two surrogates are provided:
//!
//! * [`GpRegressor`] — squared-exponential GP on the unit cube, used by the
//!   continuous **sizing** optimizer (the inner loop of Section II-A).
//! * [`WlGp`] — the paper's WL kernel-based GP over circuit graphs
//!   (Section III-B), with posterior mean/variance (Eq. 3–4) and the
//!   analytic feature gradient (Eq. 5) that drives interpretability and
//!   topology refinement.
//!
//! Hyperparameters (lengthscale/noise for the RBF model; WL iteration count
//! `h`, signal and noise variance for the WL model) are selected by maximum
//! log marginal likelihood over small grids, as the paper prescribes for
//! `h`.
//!
//! The Gram factor of a grid point does not depend on the targets, so
//! `fit_many` factors each grid point once for several outputs on the same
//! inputs (objective plus constraints), and [`RbfGrid`] also grows those
//! factors by one row per new observation. Batched prediction
//! (`predict_many`) scores many candidates against many models with one
//! multi-RHS triangular solve per distinct factor. Every path is
//! bit-identical to fitting and predicting one output and one candidate
//! at a time.
//!
//! # Examples
//!
//! ```
//! use oa_gp::GpRegressor;
//!
//! # fn main() -> Result<(), oa_gp::GpError> {
//! let x: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
//! let y: Vec<f64> = x.iter().map(|p| p[0] * 2.0).collect();
//! let gp = GpRegressor::fit(x, y)?;
//! let (mean, _var) = gp.predict(&[0.25])?;
//! assert!((mean - 0.5).abs() < 0.1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod rbf;
mod train;
mod wlgp;

pub use error::GpError;
pub use rbf::{GpRegressor, RbfGrid, RbfKernel};
pub use train::{FittedGram, TargetScaler};
pub use wlgp::{WlGp, WlGpHyperparams};
