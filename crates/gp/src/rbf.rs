//! A squared-exponential GP regressor on the unit cube, used by the
//! continuous sizing optimizer (Section II-A / \[1\] of the paper).
//!
//! The Gram factor of a grid point `(ℓ, σ²)` does not depend on the
//! targets, so [`RbfGrid`] factors each grid point once for every output
//! fitted on the same design, and grows those factors by one row per new
//! observation instead of refactoring them.

use std::sync::Arc;

use oa_linalg::{Cholesky, LinalgError};

use crate::error::GpError;
use crate::train::{
    by_candidate, distinct, normalize_targets, posteriors_on_cross, BatchMember, FittedGram,
    GridSelection, TargetScaler, JITTER_START, JITTER_TRIES,
};

/// Isotropic squared-exponential (RBF) kernel
/// `k(a, b) = σ_f² · exp(−‖a−b‖² / (2ℓ²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbfKernel {
    /// Lengthscale `ℓ` (inputs live in `[0,1]^d`).
    pub lengthscale: f64,
    /// Signal variance `σ_f²`.
    pub signal_var: f64,
}

impl RbfKernel {
    /// Evaluates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the inputs have different lengths.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        // lint: allow(panic, documented contract; fit validates every row against dim and predict rejects mismatched inputs before calling)
        assert_eq!(a.len(), b.len(), "kernel input dimension mismatch");
        self.from_sq_dist(sq_dist(a, b))
    }

    /// The kernel as a function of the squared distance `‖a−b‖²`.
    pub fn from_sq_dist(&self, d2: f64) -> f64 {
        self.signal_var * (-d2 / (2.0 * self.lengthscale * self.lengthscale)).exp()
    }

    /// Same kernel, bit for bit (the grouping key of batched prediction).
    fn same_bits(&self, other: &RbfKernel) -> bool {
        self.lengthscale.to_bits() == other.lengthscale.to_bits()
            && self.signal_var.to_bits() == other.signal_var.to_bits()
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Default lengthscale grid for unit-cube inputs.
const LENGTHSCALES: [f64; 5] = [0.05, 0.1, 0.2, 0.5, 1.0];
/// Default noise grid.
const NOISES: [f64; 3] = [1e-6, 1e-4, 1e-2];

/// One `(ℓ, σ²)` point of the hyperparameter grid and its Gram factor.
#[derive(Debug, Clone)]
struct GridPoint {
    kernel: RbfKernel,
    noise: f64,
    /// The factor of `K + σ²I + jitter·I` at the first jitter level that
    /// factorizes, with that level; or the last level's error when every
    /// level failed.
    factor: Result<(Arc<Cholesky>, f64), LinalgError>,
}

impl GridPoint {
    /// The lower-triangular Gram row `[k(x_i, x_0) … k(x_i, x_i) + σ²]`
    /// from the squared distances of packed row `i`.
    fn gram_row(&self, d2_row: &[f64]) -> Vec<f64> {
        let mut row: Vec<f64> = d2_row
            .iter()
            .map(|&d| self.kernel.from_sq_dist(d))
            .collect();
        if let Some(diag) = row.last_mut() {
            *diag += self.noise.max(0.0);
        }
        row
    }

    /// Factors the whole Gram of the packed distances `d2` from scratch,
    /// escalating the jitter from `start_jitter`.
    fn refactor(&mut self, d2: &[f64], start_jitter: f64) {
        let this = &*self;
        self.factor = Cholesky::escalate(start_jitter, JITTER_TRIES, |jitter| {
            Cholesky::from_lower_rows(packed_rows(d2).map(|r| this.gram_row(r)), jitter)
        })
        .map(|(chol, jitter)| (Arc::new(chol), jitter));
    }

    /// Appends the Gram row of a new observation at the current jitter
    /// level; if that row fails, refactors from scratch through the same
    /// escalation. Either way the factor equals what a fresh
    /// factorization of the grown Gram computes: at every jitter level the
    /// leading rows of a fresh factor are the rows already held, so the
    /// levels below the current one fail for the grown Gram too, and a
    /// point that failed at every level keeps failing.
    fn grow(&mut self, d2: &[f64], d2_row: &[f64], start_jitter: f64) {
        let row = self.gram_row(d2_row);
        let Ok((chol, jitter)) = &mut self.factor else {
            return;
        };
        if Arc::make_mut(chol)
            .push_row_jittered(&row, *jitter)
            .is_err()
        {
            self.refactor(d2, start_jitter);
        }
    }
}

/// Rows of a packed lower-triangular matrix: lengths 1, 2, 3, ….
fn packed_rows(packed: &[f64]) -> impl Iterator<Item = &[f64]> {
    let mut rest = packed;
    let mut len = 0;
    std::iter::from_fn(move || {
        len += 1;
        if rest.len() < len {
            return None;
        }
        let (row, tail) = rest.split_at(len);
        rest = tail;
        Some(row)
    })
}

/// The lengthscale × noise hyperparameter grid of [`GpRegressor`] over one
/// design, with every grid point's Gram factored once for all outputs.
///
/// The grid holds the design, the packed pairwise squared distances and
/// each grid point's factor with its jitter level. [`RbfGrid::push`] grows
/// every factor by one row in O(n²); [`RbfGrid::fit`] then fits any number
/// of outputs against the held factors. The results are bit-identical to
/// fitting each output from scratch on the same design.
///
/// # Examples
///
/// ```
/// use oa_gp::{GpRegressor, RbfGrid};
///
/// # fn main() -> Result<(), oa_gp::GpError> {
/// let mut grid = RbfGrid::new(1);
/// for i in 0..6 {
///     grid.push(vec![i as f64 / 5.0])?;
/// }
/// let ys = vec![
///     (0..6).map(|i| (i as f64).sin()).collect(),
///     (0..6).map(|i| i as f64).collect(),
/// ];
/// let gps = grid.fit(ys)?;
/// assert_eq!(gps.len(), 2);
/// let rows = GpRegressor::predict_many(&gps, &[vec![0.3], vec![0.7]])?;
/// assert_eq!(rows[1][0], gps[0].predict(&[0.7])?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RbfGrid {
    dim: usize,
    x: Arc<Vec<Vec<f64>>>,
    /// Packed lower-triangular `‖x_i − x_j‖²`, diagonal included.
    d2: Vec<f64>,
    points: Vec<GridPoint>,
    start_jitter: f64,
}

impl RbfGrid {
    /// An empty grid for `dim`-dimensional inputs.
    pub fn new(dim: usize) -> Self {
        Self::with_grid(dim, &LENGTHSCALES, &NOISES, JITTER_START)
    }

    fn with_grid(dim: usize, lengthscales: &[f64], noises: &[f64], start_jitter: f64) -> Self {
        let points = lengthscales
            .iter()
            .flat_map(|&lengthscale| {
                noises.iter().map(move |&noise| GridPoint {
                    kernel: RbfKernel {
                        lengthscale,
                        signal_var: 1.0,
                    },
                    noise,
                    // The empty Gram factors at the first level.
                    factor: Ok((Arc::new(Cholesky::empty()), start_jitter)),
                })
            })
            .collect();
        RbfGrid {
            dim,
            x: Arc::new(Vec::new()),
            d2: Vec::new(),
            points,
            start_jitter,
        }
    }

    /// A grid over the whole design `x`, every grid point factored from
    /// scratch.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] if the rows of `x` differ in
    /// length.
    pub fn from_design(x: Arc<Vec<Vec<f64>>>) -> Result<Self, GpError> {
        let dim = x.first().map_or(0, Vec::len);
        let mut grid = Self::new(dim);
        grid.set_design(x)?;
        Ok(grid)
    }

    fn set_design(&mut self, x: Arc<Vec<Vec<f64>>>) -> Result<(), GpError> {
        for xi in x.iter() {
            self.check_dim(xi)?;
        }
        self.d2 = x
            .iter()
            .enumerate()
            .flat_map(|(i, xi)| x.iter().take(i + 1).map(move |xj| sq_dist(xi, xj)))
            .collect();
        for p in &mut self.points {
            p.refactor(&self.d2, self.start_jitter);
        }
        self.x = x;
        Ok(())
    }

    fn check_dim(&self, x: &[f64]) -> Result<(), GpError> {
        if x.len() != self.dim {
            return Err(GpError::DimensionMismatch {
                expected: self.dim,
                found: x.len(),
            });
        }
        Ok(())
    }

    /// Adds one observation's input, growing every grid point's factor by
    /// one row.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] if `x` does not have the
    /// grid's dimension; the grid is then unchanged.
    pub fn push(&mut self, x: Vec<f64>) -> Result<(), GpError> {
        self.check_dim(&x)?;
        let start = self.d2.len();
        let row = self.x.iter().map(|xj| sq_dist(&x, xj));
        self.d2.extend(row);
        self.d2.push(sq_dist(&x, &x));
        let (_, d2_row) = self.d2.split_at(start);
        for p in &mut self.points {
            p.grow(&self.d2, d2_row, self.start_jitter);
        }
        Arc::make_mut(&mut self.x).push(x);
        Ok(())
    }

    /// Fits one GP per target vector in `ys`, each selecting its own
    /// lengthscale and noise by maximum log marginal likelihood over the
    /// held factors (see [`GpRegressor::fit`]). All returned models share
    /// the design and the factors of the grid points they selected.
    ///
    /// # Errors
    ///
    /// [`GpError::BadTrainingSet`] for an empty design or a target vector
    /// of the wrong length, [`GpError::NonFiniteTarget`] for NaN/∞
    /// targets (the first bad output's error wins), and
    /// [`GpError::GramNotPd`] with the last factorization error if no grid
    /// point factorizes.
    pub fn fit(&self, ys: Vec<Vec<f64>>) -> Result<Vec<GpRegressor>, GpError> {
        let normalized = normalize_targets(self.x.len(), &ys)?;
        let (scalers, targets): (Vec<TargetScaler>, Vec<Vec<f64>>) = normalized.into_iter().unzip();
        let mut selection = GridSelection::new(targets);
        for p in &self.points {
            let factor = p.factor.as_ref().map(|(chol, _)| chol).map_err(|e| *e);
            selection.offer((p.kernel, p.noise), factor);
        }
        Ok(selection
            .finish()?
            .into_iter()
            .zip(scalers)
            .map(|(((kernel, noise_var), fitted), scaler)| GpRegressor {
                x: self.x.clone(),
                kernel,
                noise_var,
                scaler,
                fitted,
            })
            .collect())
    }
}

/// Gaussian-process regression with an RBF kernel and grid-search
/// hyperparameter selection by maximum marginal likelihood.
///
/// # Examples
///
/// ```
/// use oa_gp::GpRegressor;
///
/// # fn main() -> Result<(), oa_gp::GpError> {
/// let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
/// let y: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).sin()).collect();
/// let gp = GpRegressor::fit(x, y)?;
/// let (mean, var) = gp.predict(&[0.5])?;
/// assert!((mean - (2.0f64).sin()).abs() < 0.1);
/// assert!(var >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GpRegressor {
    /// Shared training inputs: several GPs over the same design matrix
    /// (objective + one per constraint) hold one copy between them.
    x: Arc<Vec<Vec<f64>>>,
    kernel: RbfKernel,
    noise_var: f64,
    scaler: TargetScaler,
    fitted: FittedGram,
}

impl GpRegressor {
    /// Fits the GP, selecting lengthscale and noise by maximum log marginal
    /// likelihood over a small grid (targets are z-score normalized and
    /// `σ_f² = 1` is fixed, the standard parameterization once targets are
    /// normalized).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::BadTrainingSet`] for empty or mismatched data,
    /// [`GpError::NonFiniteTarget`] for NaN/∞ targets, and
    /// [`GpError::GramNotPd`] with the last factorization error if no
    /// hyperparameter combination factorizes.
    pub fn fit(x: Vec<Vec<f64>>, y: Vec<f64>) -> Result<Self, GpError> {
        Self::fit_shared(Arc::new(x), y)
    }

    /// Like [`GpRegressor::fit`], but borrows the design matrix through an
    /// [`Arc`] so that several GPs trained on the same inputs (objective
    /// plus constraints) share one copy instead of cloning it per model.
    ///
    /// # Errors
    ///
    /// Same as [`GpRegressor::fit`].
    pub fn fit_shared(x: Arc<Vec<Vec<f64>>>, y: Vec<f64>) -> Result<Self, GpError> {
        let targets = y.len();
        Self::fit_many(x.clone(), vec![y])?
            .pop()
            .ok_or(GpError::BadTrainingSet {
                inputs: x.len(),
                targets,
            })
    }

    /// Fits one GP per target vector in `ys` on the shared design `x`.
    /// Each grid point's Gram is factored once for all outputs; each
    /// output selects its own hyperparameters, exactly as
    /// [`GpRegressor::fit_shared`] would select them for it alone.
    ///
    /// # Errors
    ///
    /// Same as [`GpRegressor::fit`]; the first failing output's
    /// validation error wins.
    pub fn fit_many(x: Arc<Vec<Vec<f64>>>, ys: Vec<Vec<f64>>) -> Result<Vec<Self>, GpError> {
        // Length errors first, then input dimensions, then targets: the
        // order in which fitting each output alone reports them.
        if let Some(y) = ys.iter().find(|y| x.is_empty() || y.len() != x.len()) {
            return Err(GpError::BadTrainingSet {
                inputs: x.len(),
                targets: y.len(),
            });
        }
        RbfGrid::from_design(x)?.fit(ys)
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` if the training set is empty (never true for a fitted
    /// model; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The selected kernel hyperparameters.
    pub fn kernel(&self) -> RbfKernel {
        self.kernel
    }

    /// The selected noise variance.
    pub fn noise_var(&self) -> f64 {
        self.noise_var
    }

    /// Posterior mean and (non-negative, de-normalized) variance at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] on a wrong input dimension.
    pub fn predict(&self, x: &[f64]) -> Result<(f64, f64), GpError> {
        Self::predict_many(std::slice::from_ref(self), &[x])?
            .into_iter()
            .flatten()
            .next()
            .ok_or(GpError::BadTrainingSet {
                inputs: self.x.len(),
                targets: 0,
            })
    }

    /// Posteriors of several GPs at several candidates, as one block:
    /// `rows[c][g]` is `gps[g].predict(&candidates[c])`, bit for bit.
    ///
    /// The squared distances to each design are computed once, the cross
    /// kernel once per distinct selected lengthscale, and the triangular
    /// solve `L⁻¹K*` once per distinct selected factor, over all
    /// candidates at once.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] if a candidate's dimension
    /// differs from a model's input dimension.
    pub fn predict_many<C: AsRef<[f64]>>(
        gps: &[GpRegressor],
        candidates: &[C],
    ) -> Result<Vec<Vec<(f64, f64)>>, GpError> {
        for gp in gps {
            let dim = gp.x.first().map_or(0, Vec::len);
            for c in candidates {
                if c.as_ref().len() != dim {
                    return Err(GpError::DimensionMismatch {
                        expected: dim,
                        found: c.as_ref().len(),
                    });
                }
            }
        }
        let m = candidates.len();
        let mut per_model = Vec::with_capacity(gps.len());
        for design in distinct(gps.iter(), |a, b| Arc::ptr_eq(&a.x, &b.x)) {
            // n×m block of ‖x_i − c‖², row-major.
            let d2: Vec<f64> = design
                .x
                .iter()
                .flat_map(|xi| candidates.iter().map(move |c| sq_dist(xi, c.as_ref())))
                .collect();
            let on_design: Vec<(usize, &GpRegressor)> = gps
                .iter()
                .enumerate()
                .filter(|(_, gp)| Arc::ptr_eq(&gp.x, &design.x))
                .collect();
            for (_, rep) in distinct(on_design.iter(), |a, b| a.1.kernel.same_bits(&b.1.kernel)) {
                let kernel = rep.kernel;
                let cross: Vec<f64> = d2.iter().map(|&d| kernel.from_sq_dist(d)).collect();
                let prior: Vec<f64> = candidates
                    .iter()
                    .map(|c| kernel.eval(c.as_ref(), c.as_ref()))
                    .collect();
                let members: Vec<BatchMember<'_>> = on_design
                    .iter()
                    .filter(|(_, gp)| gp.kernel.same_bits(&kernel))
                    .map(|&(g, gp)| (g, &gp.fitted, gp.scaler))
                    .collect();
                posteriors_on_cross(&members, &cross, &prior, m, &mut per_model)?;
            }
        }
        Ok(by_candidate(per_model, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_linalg::Matrix;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn grid1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let x = grid1d(6);
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let gp = GpRegressor::fit(x.clone(), y.clone()).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (m, _) = gp.predict(xi).unwrap();
            assert!((m - yi).abs() < 0.05, "pred {m} vs {yi}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let x = grid1d(5);
        let y = vec![0.0, 0.2, 0.1, -0.1, 0.3];
        let gp = GpRegressor::fit(x, y).unwrap();
        let (_, var_on) = gp.predict(&[0.5]).unwrap();
        // Far outside [0,1] the prediction reverts to the prior.
        let (_, var_off) = gp.predict(&[3.0]).unwrap();
        assert!(var_off > var_on);
    }

    #[test]
    fn mean_reverts_to_prior_far_away() {
        let x = grid1d(5);
        let y = vec![10.0, 11.0, 9.5, 10.5, 10.0];
        let gp = GpRegressor::fit(x, y.clone()).unwrap();
        let (m, _) = gp.predict(&[5.0]).unwrap();
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((m - y_mean).abs() < 0.5, "far-field mean {m}");
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(GpRegressor::fit(vec![], vec![]).is_err());
        assert!(GpRegressor::fit(vec![vec![0.0]], vec![1.0, 2.0]).is_err());
        assert!(GpRegressor::fit(vec![vec![0.0], vec![0.0, 1.0]], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn rejects_wrong_prediction_dimension() {
        let gp = GpRegressor::fit(grid1d(4), vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        assert!(matches!(
            gp.predict(&[0.1, 0.2]),
            Err(GpError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_inputs_do_not_crash() {
        let x = vec![vec![0.5], vec![0.5], vec![0.7]];
        let y = vec![1.0, 1.1, 2.0];
        let gp = GpRegressor::fit(x, y).unwrap();
        let (m, v) = gp.predict(&[0.5]).unwrap();
        assert!(m.is_finite() && v.is_finite());
    }

    #[test]
    fn fit_shared_matches_fit_and_shares_storage() {
        let x = grid1d(6);
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).cos()).collect();
        let owned = GpRegressor::fit(x.clone(), y.clone()).unwrap();
        let shared_x = Arc::new(x);
        let obj = GpRegressor::fit_shared(shared_x.clone(), y.clone()).unwrap();
        let con =
            GpRegressor::fit_shared(shared_x.clone(), y.iter().map(|v| -v).collect()).unwrap();
        // Same predictions as the by-value path...
        for q in [[0.1], [0.55], [0.9]] {
            let (a, va) = owned.predict(&q).unwrap();
            let (b, vb) = obj.predict(&q).unwrap();
            assert_eq!(a, b);
            assert_eq!(va, vb);
        }
        // ...and both models point at the one design matrix.
        assert!(Arc::ptr_eq(&obj.x, &shared_x));
        assert!(Arc::ptr_eq(&con.x, &shared_x));
    }

    /// The per-output fit as written before the shared grid: a dense
    /// Gram per grid point, factored from scratch for every output.
    fn reference_fit(x: &[Vec<f64>], y: &[f64]) -> (RbfKernel, f64, Vec<f64>, f64) {
        let scaler = TargetScaler::fit(y).unwrap();
        let y_norm: Vec<f64> = y.iter().map(|&v| scaler.normalize(v)).collect();
        let n = x.len();
        let mut best: Option<(RbfKernel, f64, Vec<f64>, f64)> = None;
        for &ls in &LENGTHSCALES {
            let kernel = RbfKernel {
                lengthscale: ls,
                signal_var: 1.0,
            };
            let k = Matrix::from_fn(n, n, |i, j| kernel.eval(&x[i], &x[j]));
            for &noise in &NOISES {
                let mut kn = k.clone();
                kn.add_diag(noise);
                let Ok((chol, _)) = Cholesky::new_with_jitter(&kn, 1e-10, 10) else {
                    continue;
                };
                let alpha = chol.solve(&y_norm).unwrap();
                let data_fit: f64 = y_norm.iter().zip(&alpha).map(|(y, a)| y * a).sum();
                let lml = -0.5 * data_fit
                    - 0.5 * chol.log_det()
                    - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
                if best.as_ref().is_none_or(|b| lml > b.3) {
                    best = Some((kernel, noise, alpha, lml));
                }
            }
        }
        best.unwrap()
    }

    fn assert_same_fit(a: &GpRegressor, b: &GpRegressor) {
        assert_eq!(a.kernel, b.kernel);
        assert_eq!(a.noise_var.to_bits(), b.noise_var.to_bits());
        assert_eq!(a.fitted.lml.to_bits(), b.fitted.lml.to_bits());
        assert_eq!(a.fitted.alpha, b.fitted.alpha);
        assert_eq!(
            a.fitted.chol.factor().as_slice(),
            b.fitted.chol.factor().as_slice()
        );
        assert_eq!(a.scaler, b.scaler);
    }

    fn random_design(rng: &mut ChaCha8Rng, n: usize, dim: usize) -> Vec<Vec<f64>> {
        let mut x: Vec<Vec<f64>> = Vec::new();
        for i in 0..n {
            // Every fifth point repeats an earlier one, and coordinates
            // are often clamped to the cube's faces: exact duplicates.
            if i % 5 == 4 {
                let j = rng.gen_range(0..i);
                x.push(x[j].clone());
            } else {
                x.push(
                    (0..dim)
                        .map(|_| (rng.gen::<f64>() * 1.4 - 0.2).clamp(0.0, 1.0))
                        .collect(),
                );
            }
        }
        x
    }

    fn targets(rng: &mut ChaCha8Rng, x: &[Vec<f64>], outputs: usize) -> Vec<Vec<f64>> {
        (0..outputs)
            .map(|o| {
                let w: Vec<f64> = (0..x[0].len()).map(|_| rng.gen::<f64>() * 6.0).collect();
                x.iter()
                    .map(|p| match o {
                        0 => p.iter().zip(&w).map(|(a, b)| (a * b).sin()).sum(),
                        1 => 3.0,
                        _ => p.iter().sum::<f64>() * 1e3 * o as f64 - w[0],
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fit_equals_the_per_output_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for trial in 0..12 {
            let x = random_design(&mut rng, 3 + trial * 3, 1 + trial % 4);
            for y in targets(&mut rng, &x, 3) {
                let gp = GpRegressor::fit(x.clone(), y.clone()).unwrap();
                let (kernel, noise, alpha, lml) = reference_fit(&x, &y);
                assert_eq!(gp.kernel, kernel);
                assert_eq!(gp.noise_var.to_bits(), noise.to_bits());
                assert_eq!(gp.fitted.alpha, alpha);
                assert_eq!(gp.fitted.lml.to_bits(), lml.to_bits());
            }
        }
    }

    #[test]
    fn fit_many_equals_per_output_fit_shared() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for trial in 0..10 {
            let x = Arc::new(random_design(&mut rng, 4 + trial * 4, 1 + trial % 5));
            let ys = targets(&mut rng, &x, 5);
            let many = GpRegressor::fit_many(x.clone(), ys.clone()).unwrap();
            let probes = random_design(&mut rng, 9, x[0].len());
            for (gp, y) in many.iter().zip(&ys) {
                let alone = GpRegressor::fit_shared(x.clone(), y.clone()).unwrap();
                assert_same_fit(gp, &alone);
                assert!(Arc::ptr_eq(&gp.x, &x));
                for p in &probes {
                    assert_eq!(gp.predict(p).unwrap(), alone.predict(p).unwrap());
                }
            }
        }
    }

    #[test]
    fn grown_grid_equals_grid_built_at_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for trial in 0..8 {
            let dim = 1 + trial % 3;
            let x = random_design(&mut rng, 25, dim);
            let mut grown = RbfGrid::new(dim);
            for (i, xi) in x.iter().enumerate() {
                grown.push(xi.clone()).unwrap();
                let fresh = RbfGrid::from_design(Arc::new(x[..=i].to_vec())).unwrap();
                assert_same_grid(&grown, &fresh);
                let ys = targets(&mut rng, &x[..=i], 2);
                if i > 0 {
                    let a = grown.fit(ys.clone()).unwrap();
                    let b = GpRegressor::fit_many(Arc::new(x[..=i].to_vec()), ys).unwrap();
                    for (a, b) in a.iter().zip(&b) {
                        assert_same_fit(a, b);
                    }
                }
            }
        }
    }

    fn assert_same_grid(a: &RbfGrid, b: &RbfGrid) {
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|t| t.to_bits()).collect() };
        assert_eq!(bits(&a.x.concat()), bits(&b.x.concat()));
        assert_eq!(bits(&a.d2), bits(&b.d2));
        assert_eq!(a.points.len(), b.points.len());
        for (p, q) in a.points.iter().zip(&b.points) {
            match (&p.factor, &q.factor) {
                (Ok((c, j)), Ok((d, k))) => {
                    assert_eq!(j.to_bits(), k.to_bits());
                    let bits = |c: &Cholesky| -> Vec<u64> {
                        c.factor().as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(c), bits(d));
                }
                (Err(e), Err(f)) => assert_eq!(e, f),
                (p, q) => panic!("grown {p:?} vs fresh {q:?}"),
            }
        }
    }

    #[test]
    fn grown_grid_refactors_through_the_jitter_escalation() {
        // Zero noise and a zero first jitter level make exact duplicates
        // fail the appended row, forcing the from-scratch escalation; a
        // NaN input fails every level and must stay failed afterwards.
        let lengthscales = [0.3, 2.0];
        let noises = [0.0, 1e-9];
        let x = vec![
            vec![0.2, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.1],
            vec![0.2, 0.4],
            vec![0.9, 0.1],
            vec![0.5, 0.5],
            vec![0.2, 0.4],
        ];
        let mut grown = RbfGrid::with_grid(2, &lengthscales, &noises, 0.0);
        let mut escalated = false;
        for i in 0..x.len() {
            grown.push(x[i].clone()).unwrap();
            let mut fresh = RbfGrid::with_grid(2, &lengthscales, &noises, 0.0);
            fresh.set_design(Arc::new(x[..=i].to_vec())).unwrap();
            assert_same_grid(&grown, &fresh);
            escalated |= grown
                .points
                .iter()
                .any(|p| matches!(p.factor, Ok((_, j)) if j > 0.0));
        }
        assert!(escalated, "no grid point needed a higher jitter level");

        grown.push(vec![f64::NAN, 0.0]).unwrap();
        grown.push(vec![0.7, 0.7]).unwrap();
        let mut poisoned = x.clone();
        poisoned.push(vec![f64::NAN, 0.0]);
        poisoned.push(vec![0.7, 0.7]);
        let mut fresh = RbfGrid::with_grid(2, &lengthscales, &noises, 0.0);
        fresh.set_design(Arc::new(poisoned)).unwrap();
        assert_same_grid(&grown, &fresh);
        assert!(grown.points.iter().all(|p| p.factor.is_err()));
    }

    #[test]
    fn every_grid_point_failing_reports_the_real_factorization_error() {
        let x = vec![vec![0.1], vec![f64::NAN], vec![0.5]];
        assert_eq!(
            GpRegressor::fit(x, vec![1.0, 2.0, 3.0]).unwrap_err(),
            GpError::GramNotPd {
                source: LinalgError::NotPositiveDefinite { pivot: 1 }
            }
        );
    }

    #[test]
    fn batched_prediction_equals_predict() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for trial in 0..6 {
            let dim = 1 + trial % 4;
            let x = Arc::new(random_design(&mut rng, 10 + trial * 5, dim));
            let ys = targets(&mut rng, &x, 5);
            let mut gps = GpRegressor::fit_many(x.clone(), ys.clone()).unwrap();
            // A model on another design joins the same batch.
            let other = random_design(&mut rng, 8, dim);
            gps.push(
                GpRegressor::fit(other.clone(), targets(&mut rng, &other, 1).remove(0)).unwrap(),
            );
            let mut cands = random_design(&mut rng, 37, dim);
            cands.push(x[0].clone());
            let rows = GpRegressor::predict_many(&gps, &cands).unwrap();
            assert_eq!(rows.len(), cands.len());
            for (row, c) in rows.iter().zip(&cands) {
                let want: Vec<(f64, f64)> = gps.iter().map(|g| g.predict(c).unwrap()).collect();
                let bits = |r: &[(f64, f64)]| -> Vec<(u64, u64)> {
                    r.iter().map(|(m, v)| (m.to_bits(), v.to_bits())).collect()
                };
                assert_eq!(bits(row), bits(&want));
                // predict itself is the reference arithmetic, pinned here.
                for (g, &(mean, var)) in gps.iter().zip(row) {
                    let k_star: Vec<f64> = g.x.iter().map(|xi| g.kernel.eval(xi, c)).collect();
                    let m: f64 = k_star.iter().zip(&g.fitted.alpha).map(|(k, a)| k * a).sum();
                    let v = g.fitted.chol.solve_lower(&k_star).unwrap();
                    let e: f64 = v.iter().map(|t| t * t).sum();
                    let var_norm = (g.kernel.eval(c, c) - e).max(0.0);
                    assert_eq!(mean.to_bits(), g.scaler.denormalize(m).to_bits());
                    assert_eq!(var.to_bits(), g.scaler.denormalize_var(var_norm).to_bits());
                }
            }
        }
        assert!(GpRegressor::predict_many(&[], &[vec![0.5]]).unwrap()[0].is_empty());
    }

    #[test]
    fn kernel_peaks_at_zero_distance() {
        let k = RbfKernel {
            lengthscale: 0.3,
            signal_var: 2.0,
        };
        assert_eq!(k.eval(&[0.2, 0.4], &[0.2, 0.4]), 2.0);
        assert!(k.eval(&[0.0], &[1.0]) < 2.0);
    }
}
