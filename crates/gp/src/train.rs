//! Shared GP training plumbing: target normalization, Gram factorization
//! and the log marginal likelihood used for hyperparameter selection.

use std::sync::Arc;

use oa_linalg::{column_dots, column_sq_norms, Cholesky, LinalgError, Matrix};

use crate::error::GpError;

/// Z-score normalization of training targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetScaler {
    /// Mean of the raw targets.
    pub mean: f64,
    /// Standard deviation of the raw targets (floored to avoid division by
    /// zero on constant data).
    pub std: f64,
}

impl TargetScaler {
    /// Fits the scaler to raw targets.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::NonFiniteTarget`] if any value is not finite and
    /// [`GpError::BadTrainingSet`] on an empty slice.
    pub fn fit(y: &[f64]) -> Result<Self, GpError> {
        if y.is_empty() {
            return Err(GpError::BadTrainingSet {
                inputs: 0,
                targets: 0,
            });
        }
        for (i, v) in y.iter().enumerate() {
            if !v.is_finite() {
                return Err(GpError::NonFiniteTarget { index: i });
            }
        }
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let var = y.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / y.len() as f64;
        Ok(TargetScaler {
            mean,
            std: var.sqrt().max(1e-12),
        })
    }

    /// Normalizes a raw target.
    pub fn normalize(&self, y: f64) -> f64 {
        (y - self.mean) / self.std
    }

    /// Restores a normalized value.
    pub fn denormalize(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }

    /// Restores a normalized variance.
    pub fn denormalize_var(&self, var: f64) -> f64 {
        var * self.std * self.std
    }
}

/// First jitter level tried on a Gram factorization.
pub(crate) const JITTER_START: f64 = 1e-10;
/// Jitter levels tried (×10 each) before a Gram counts as failed.
pub(crate) const JITTER_TRIES: usize = 10;

/// One output's fit against a (shared) Gram factor: `α = (K + σ²I)⁻¹ y`
/// plus the quantities needed for prediction and model selection.
#[derive(Debug, Clone)]
pub struct FittedGram {
    /// Cholesky factor of the noisy Gram matrix, shared by every output
    /// fitted on the same inputs and hyperparameters.
    pub chol: Arc<Cholesky>,
    /// Weight vector `α`.
    pub alpha: Vec<f64>,
    /// Log marginal likelihood of the (normalized) targets.
    pub lml: f64,
}

/// Factorizes `K_signal + noise_var·I` with the GP jitter escalation.
pub(crate) fn factor_gram(k_signal: &Matrix, noise_var: f64) -> Result<Cholesky, LinalgError> {
    let mut k = k_signal.clone();
    k.add_diag(noise_var.max(0.0));
    Cholesky::new_with_jitter(&k, JITTER_START, JITTER_TRIES).map(|(chol, _jitter)| chol)
}

/// Validates several outputs' raw targets against `n` inputs and
/// z-scores them, in output order (the first bad output's error wins).
pub(crate) fn normalize_targets(
    n: usize,
    ys: &[Vec<f64>],
) -> Result<Vec<(TargetScaler, Vec<f64>)>, GpError> {
    ys.iter()
        .map(|y| {
            if n == 0 || y.len() != n {
                return Err(GpError::BadTrainingSet {
                    inputs: n,
                    targets: y.len(),
                });
            }
            let scaler = TargetScaler::fit(y)?;
            let y_norm = y.iter().map(|&v| scaler.normalize(v)).collect();
            Ok((scaler, y_norm))
        })
        .collect()
}

/// Per-output maximum-likelihood selection over a hyperparameter grid
/// whose Gram factor does not depend on the targets: each grid point is
/// factored once, and [`GridSelection::offer`] fits every output against
/// it with one multi-RHS solve and one log-determinant. Each output keeps
/// its own strict-`>` argmax in grid (offer) order, so an output selects
/// exactly what fitting it alone would select.
#[derive(Debug)]
pub(crate) struct GridSelection<H> {
    /// Normalized targets, one per output.
    targets: Vec<Vec<f64>>,
    /// The same targets as a row-major `n×outputs` block.
    block: Vec<f64>,
    best: Vec<Option<(H, FittedGram)>>,
    last_err: Option<LinalgError>,
}

impl<H: Copy> GridSelection<H> {
    pub(crate) fn new(targets: Vec<Vec<f64>>) -> Self {
        let n = targets.first().map_or(0, Vec::len);
        let mut block = Vec::with_capacity(n * targets.len());
        let mut columns: Vec<_> = targets.iter().map(|y| y.iter()).collect();
        for _ in 0..n {
            block.extend(columns.iter_mut().filter_map(|c| c.next()));
        }
        GridSelection {
            best: vec![None; targets.len()],
            targets,
            block,
            last_err: None,
        }
    }

    /// Offers one grid point: its hyperparameters and the factor of its
    /// Gram (or the error that factorization ended with).
    pub(crate) fn offer(&mut self, hyper: H, factor: Result<&Arc<Cholesky>, LinalgError>) {
        let chol = match factor {
            Ok(chol) => chol,
            Err(e) => {
                self.last_err = Some(e);
                return;
            }
        };
        let m = self.targets.len();
        let mut alphas = self.block.clone();
        if let Err(e) = chol.solve_many(&mut alphas, m) {
            self.last_err = Some(e);
            return;
        }
        let n = chol.dim();
        let log_det = chol.log_det();
        for (c, (y_norm, best)) in self.targets.iter().zip(&mut self.best).enumerate() {
            let alpha: Vec<f64> = alphas.iter().skip(c).step_by(m).copied().collect();
            let data_fit: f64 = y_norm.iter().zip(&alpha).map(|(y, a)| y * a).sum();
            let lml = -0.5 * data_fit
                - 0.5 * log_det
                - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
            if best.as_ref().is_none_or(|(_, b)| lml > b.lml) {
                *best = Some((
                    hyper,
                    FittedGram {
                        chol: chol.clone(),
                        alpha,
                        lml,
                    },
                ));
            }
        }
    }

    /// Each output's selected hyperparameters and fit.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::GramNotPd`] carrying the last factorization
    /// error when no grid point factorized. (An empty grid, which no
    /// caller builds, reports a zero-length dimension mismatch.)
    pub(crate) fn finish(self) -> Result<Vec<(H, FittedGram)>, GpError> {
        let last_err = self.last_err.unwrap_or(LinalgError::DimensionMismatch {
            expected: 1,
            found: 0,
        });
        self.best
            .into_iter()
            .map(|b| b.ok_or(GpError::GramNotPd { source: last_err }))
            .collect()
    }
}

/// The first item of each class of `items` under `same`, in order of
/// first appearance.
pub(crate) fn distinct<'a, T>(
    items: impl Iterator<Item = &'a T>,
    same: impl Fn(&T, &T) -> bool,
) -> Vec<&'a T> {
    let mut reps: Vec<&T> = Vec::new();
    for item in items {
        if !reps.iter().any(|r| same(r, item)) {
            reps.push(item);
        }
    }
    reps
}

/// One output of a batched prediction: its position among the predicted
/// models, its fit and its target scaler.
pub(crate) type BatchMember<'a> = (usize, &'a FittedGram, TargetScaler);

/// Posteriors at `m` candidates of the `members` that share one row-major
/// `n×m` cross-kernel block `cross` and per-candidate prior variances
/// `prior`. Members sharing a factor share one multi-RHS triangular
/// solve. Every value is computed with the operation order of a
/// one-candidate, one-output prediction: mean `Σ_i k*_i·α_i`, variance
/// `k(x,x) − ‖L⁻¹k*‖²` clamped at zero, both de-normalized. Results are
/// appended to `out` as `(member position, posteriors)`.
pub(crate) fn posteriors_on_cross(
    members: &[BatchMember<'_>],
    cross: &[f64],
    prior: &[f64],
    m: usize,
    out: &mut Vec<(usize, Vec<(f64, f64)>)>,
) -> Result<(), GpError> {
    let same_factor = |a: &BatchMember<'_>, b: &BatchMember<'_>| Arc::ptr_eq(&a.1.chol, &b.1.chol);
    for rep in distinct(members.iter(), same_factor) {
        let mut v = cross.to_vec();
        rep.1
            .chol
            .solve_lower_many(&mut v, m)
            .map_err(|source| GpError::GramNotPd { source })?;
        let explained = column_sq_norms(&v, m);
        for (g, fitted, scaler) in members.iter().filter(|b| same_factor(rep, b)) {
            if fitted.alpha.len() * m != cross.len() {
                return Err(GpError::DimensionMismatch {
                    expected: cross.len(),
                    found: fitted.alpha.len() * m,
                });
            }
            let means = column_dots(cross, m, &fitted.alpha);
            let post = means
                .iter()
                .zip(prior)
                .zip(&explained)
                .map(|((&mean, &p), &e)| {
                    (
                        scaler.denormalize(mean),
                        scaler.denormalize_var((p - e).max(0.0)),
                    )
                })
                .collect();
            out.push((*g, post));
        }
    }
    Ok(())
}

/// Reorders per-model posteriors (tagged with model positions) into
/// per-candidate rows: `rows[c][g]` is model `g`'s posterior at
/// candidate `c`.
pub(crate) fn by_candidate(
    mut per_model: Vec<(usize, Vec<(f64, f64)>)>,
    m: usize,
) -> Vec<Vec<(f64, f64)>> {
    per_model.sort_by_key(|(g, _)| *g);
    let mut rows: Vec<Vec<(f64, f64)>> = (0..m)
        .map(|_| Vec::with_capacity(per_model.len()))
        .collect();
    for (_, post) in per_model {
        for (row, p) in rows.iter_mut().zip(post) {
            row.push(p);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaler_roundtrips() {
        let y = [1.0, 2.0, 3.0, 10.0];
        let s = TargetScaler::fit(&y).unwrap();
        for v in y {
            assert!((s.denormalize(s.normalize(v)) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn scaler_handles_constant_targets() {
        let s = TargetScaler::fit(&[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(s.normalize(5.0), 0.0);
        assert!(s.std > 0.0);
    }

    #[test]
    fn scaler_rejects_nan() {
        assert!(matches!(
            TargetScaler::fit(&[1.0, f64::NAN]),
            Err(GpError::NonFiniteTarget { index: 1 })
        ));
    }

    /// Offers one factor of `k + noise·I` to a fresh selection over
    /// `targets` and returns each output's fit.
    fn fit_one(k: &Matrix, noise: f64, targets: Vec<Vec<f64>>) -> Vec<FittedGram> {
        let mut sel = GridSelection::new(targets);
        let chol = factor_gram(k, noise).map(Arc::new);
        sel.offer((), chol.as_ref().map_err(|e| *e));
        sel.finish().unwrap().into_iter().map(|(_, f)| f).collect()
    }

    #[test]
    fn fit_interpolates_with_tiny_noise() {
        // K = I → α = y/(1+σ²).
        let k = Matrix::identity(3);
        let y = vec![1.0, -1.0, 0.5];
        let fit = fit_one(&k, 1e-9, vec![y.clone()]);
        for (a, v) in fit[0].alpha.iter().zip(&y) {
            assert!((a - v).abs() < 1e-6);
        }
    }

    #[test]
    fn marginal_likelihood_prefers_matching_noise_level() {
        // Unit-variance, uncorrelated targets under a unit Gram: a small
        // noise level explains them better than drowning them in noise.
        let k = Matrix::identity(4);
        let y = [1.0, -1.0, 1.0, -1.0];
        let y_norm: Vec<f64> = {
            let s = TargetScaler::fit(&y).unwrap();
            y.iter().map(|&v| s.normalize(v)).collect()
        };
        let low = fit_one(&k, 1e-4, vec![y_norm.clone()]);
        let high = fit_one(&k, 10.0, vec![y_norm]);
        assert!(low[0].lml > high[0].lml);
    }

    #[test]
    fn normalize_targets_rejects_mismatched_sizes() {
        assert_eq!(
            normalize_targets(2, &[vec![1.0, 2.0], vec![1.0, 2.0, 3.0]]).unwrap_err(),
            GpError::BadTrainingSet {
                inputs: 2,
                targets: 3
            }
        );
        assert!(matches!(
            normalize_targets(0, &[vec![]]),
            Err(GpError::BadTrainingSet { .. })
        ));
        assert_eq!(
            normalize_targets(2, &[vec![1.0, 2.0], vec![f64::INFINITY, 0.0]]).unwrap_err(),
            GpError::NonFiniteTarget { index: 0 }
        );
    }

    #[test]
    fn selection_reports_the_last_real_factorization_error() {
        let mut sel: GridSelection<u8> = GridSelection::new(vec![vec![1.0, 2.0]]);
        sel.offer(0, Err(LinalgError::NotPositiveDefinite { pivot: 1 }));
        sel.offer(1, Err(LinalgError::NotPositiveDefinite { pivot: 0 }));
        assert_eq!(
            sel.finish().unwrap_err(),
            GpError::GramNotPd {
                source: LinalgError::NotPositiveDefinite { pivot: 0 }
            }
        );
    }

    #[test]
    fn shared_selection_equals_one_selection_per_output() {
        let n = 7;
        let grams: Vec<Matrix> = [0.1, 0.3, 0.9]
            .iter()
            .map(|ls: &f64| {
                Matrix::from_fn(n, n, |i, j| {
                    let d = (i as f64 - j as f64) / n as f64;
                    (-d * d / (2.0 * ls * ls)).exp()
                })
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..4)
            .map(|c| (0..n).map(|i| ((i * (c + 2)) as f64 * 0.7).sin()).collect())
            .collect();
        let offers: Vec<(usize, Arc<Cholesky>)> = grams
            .iter()
            .enumerate()
            .flat_map(|(g, k)| {
                [1e-6, 1e-2].map(|noise| (g, Arc::new(factor_gram(k, noise).unwrap())))
            })
            .collect();
        let mut shared = GridSelection::new(targets.clone());
        for (h, chol) in &offers {
            shared.offer(*h, Ok(chol));
        }
        let shared = shared.finish().unwrap();
        for (y, (h, fit)) in targets.iter().zip(&shared) {
            let mut alone = GridSelection::new(vec![y.clone()]);
            for (h, chol) in &offers {
                alone.offer(*h, Ok(chol));
            }
            let (h1, fit1) = alone.finish().unwrap().remove(0);
            assert_eq!(*h, h1);
            assert_eq!(fit.lml.to_bits(), fit1.lml.to_bits());
            assert_eq!(fit.alpha, fit1.alpha);
            assert!(Arc::ptr_eq(&fit.chol, &fit1.chol));
            let per_column = fit.chol.solve(y).unwrap();
            assert_eq!(fit.alpha, per_column);
        }
    }
}
