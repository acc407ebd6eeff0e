//! The WL kernel-based Gaussian process surrogate (WL-GP) of Section III-B,
//! including the analytic feature gradient of Eq. 5 that powers the
//! interpretability analysis.

use std::sync::Arc;

use oa_graph::WlFeatures;
use oa_linalg::Matrix;

use crate::error::GpError;
use crate::train::{
    by_candidate, distinct, factor_gram, normalize_targets, posteriors_on_cross, BatchMember,
    FittedGram, GridSelection, TargetScaler,
};

/// Hyperparameters of a fitted WL-GP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WlGpHyperparams {
    /// Number of WL iterations `h` selected by maximum likelihood.
    pub h: usize,
    /// Signal variance `σ_f²` (applied to the scale-normalized kernel).
    pub signal_var: f64,
    /// Observation noise variance `σ_n²`.
    pub noise_var: f64,
}

/// Gaussian process over circuit graphs with the WL kernel of Eq. 2.
///
/// The Gram matrix is `K_ij = σ_f²·⟨φ(h)(G_i), φ(h)(G_j)⟩ / s + σ_n²·δ_ij`
/// where `s` is the mean self-similarity of the training graphs (a pure
/// scale normalization that keeps the likelihood grid well-conditioned; the
/// paper's raw inner-product kernel is recovered by folding `σ_f²/s` into the
/// signal variance).
///
/// # Examples
///
/// ```
/// use oa_circuit::Topology;
/// use oa_graph::{CircuitGraph, WlFeaturizer};
/// use oa_gp::WlGp;
///
/// # fn main() -> Result<(), oa_gp::GpError> {
/// let mut wl = WlFeaturizer::new();
/// let feats: Vec<_> = (0..8)
///     .map(|i| {
///         let t = Topology::from_index(i * 1000).expect("in range");
///         wl.featurize(&CircuitGraph::from_topology(&t), 3)
///     })
///     .collect();
/// let y: Vec<f64> = (0..8).map(|i| i as f64).collect();
/// let gp = WlGp::fit(feats.clone(), y)?;
/// let (mean, var) = gp.predict(&feats[0])?;
/// assert!(mean.is_finite() && var >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WlGp {
    /// Shared training features: the objective GP and the per-constraint
    /// GPs of one BO iteration hold one copy between them.
    feats: Arc<Vec<WlFeatures>>,
    hyper: WlGpHyperparams,
    scale: f64,
    scaler: TargetScaler,
    fitted: FittedGram,
}

impl WlGp {
    /// Signal-variance grid.
    const SIGNALS: [f64; 3] = [0.5, 1.0, 2.0];
    /// Noise grid. The upper entries matter: the outer-loop targets (the
    /// best FoM a noisy sizing run found for a topology) carry substantial
    /// observation noise, and a grid capped at small noise would force the
    /// GP to interpolate that noise instead of admitting it.
    const NOISES: [f64; 5] = [1e-6, 1e-4, 1e-2, 1e-1, 0.5];

    /// Fits a WL-GP, selecting `h`, `σ_f²` and `σ_n²` by maximum log
    /// marginal likelihood. `h` ranges over `0..=h_cap` where `h_cap` is the
    /// smallest number of levels extracted across the training features
    /// (the paper uses `h ≤ 6`).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::BadTrainingSet`] for empty/mismatched data,
    /// [`GpError::NonFiniteTarget`] for NaN/∞ targets, and
    /// [`GpError::GramNotPd`] with the last factorization error if no
    /// hyperparameter combination factorizes.
    pub fn fit(feats: Vec<WlFeatures>, y: Vec<f64>) -> Result<Self, GpError> {
        Self::fit_shared(Arc::new(feats), y)
    }

    /// Like [`WlGp::fit`], but borrows the training features through an
    /// [`Arc`] so that several GPs trained on the same graphs (objective
    /// plus constraints, or one per interpretability metric) share one
    /// copy instead of cloning the feature vectors per model.
    ///
    /// # Errors
    ///
    /// Same as [`WlGp::fit`].
    pub fn fit_shared(feats: Arc<Vec<WlFeatures>>, y: Vec<f64>) -> Result<Self, GpError> {
        let targets = y.len();
        Self::fit_many(feats.clone(), vec![y])?
            .pop()
            .ok_or(GpError::BadTrainingSet {
                inputs: feats.len(),
                targets,
            })
    }

    /// Fits one WL-GP per target vector in `ys` on the shared features.
    /// Each `(h, σ_f², σ_n²)` grid point's Gram is factored once for all
    /// outputs; each output selects its own hyperparameters, exactly as
    /// [`WlGp::fit_shared`] would select them for it alone.
    ///
    /// The factors are not grown across calls: `K_ij` is divided by `s`,
    /// the mean self-similarity of the training set, so adding a graph
    /// rescales every entry of the Gram.
    ///
    /// # Errors
    ///
    /// Same as [`WlGp::fit`]; the first failing output's validation error
    /// wins.
    pub fn fit_many(feats: Arc<Vec<WlFeatures>>, ys: Vec<Vec<f64>>) -> Result<Vec<Self>, GpError> {
        let n = feats.len();
        let normalized = normalize_targets(n, &ys)?;
        let (scalers, targets): (Vec<TargetScaler>, Vec<Vec<f64>>) = normalized.into_iter().unzip();
        let h_cap = feats.iter().map(WlFeatures::max_h).min().unwrap_or(0);

        let mut selection = GridSelection::new(targets);
        for h in 0..=h_cap {
            // lint: allow(panic, Matrix::from_fn passes i and j below n = feats.len())
            let raw = Matrix::from_fn(n, n, |i, j| feats[i].kernel(&feats[j], h));
            let scale = raw.diag().iter().sum::<f64>() / n as f64;
            let scale = if scale > 0.0 { scale } else { 1.0 };
            for &sig in &Self::SIGNALS {
                let k = Matrix::from_rows(
                    n,
                    n,
                    raw.as_slice().iter().map(|r| sig * r / scale).collect(),
                );
                for &noise in &Self::NOISES {
                    let hyper = WlGpHyperparams {
                        h,
                        signal_var: sig,
                        noise_var: noise,
                    };
                    let factor = factor_gram(&k, noise).map(Arc::new);
                    selection.offer((hyper, scale), factor.as_ref().map_err(|e| *e));
                }
            }
        }
        Ok(selection
            .finish()?
            .into_iter()
            .zip(scalers)
            .map(|(((hyper, scale), fitted), scaler)| WlGp {
                feats: feats.clone(),
                hyper,
                scale,
                scaler,
                fitted,
            })
            .collect())
    }

    /// Number of training graphs.
    pub fn len(&self) -> usize {
        self.feats.len()
    }

    /// Returns `true` if the training set is empty (never true for a fitted
    /// model; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.feats.is_empty()
    }

    /// The selected hyperparameters.
    pub fn hyperparams(&self) -> WlGpHyperparams {
        self.hyper
    }

    /// Log marginal likelihood of the selected fit — the model-selection
    /// score that chose `h`, `σ_f²` and `σ_n²`. Two models trained on
    /// the same data select the same fit, so equal `lml` is a cheap
    /// necessary condition for posterior equality (the warm-start
    /// differential tests assert it alongside the posterior itself).
    pub fn lml(&self) -> f64 {
        self.fitted.lml
    }

    /// Posterior mean and variance (Eq. 3 and 4) for a new graph's
    /// features.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] if `f` was extracted with
    /// fewer WL levels than the selected `h`.
    pub fn predict(&self, f: &WlFeatures) -> Result<(f64, f64), GpError> {
        Self::predict_many(std::slice::from_ref(self), std::slice::from_ref(f))?
            .into_iter()
            .flatten()
            .next()
            .ok_or(GpError::BadTrainingSet {
                inputs: self.feats.len(),
                targets: 0,
            })
    }

    /// Posteriors of several WL-GPs at several candidate graphs, as one
    /// block: `rows[c][g]` is `gps[g].predict(&candidates[c])`, bit for
    /// bit.
    ///
    /// `⟨φ_h(G_i), φ_h(f)⟩` is computed once per distinct selected `h`,
    /// the cross kernel `σ_f²·raw/s` once per distinct `(h, σ_f², s)`,
    /// and the triangular solve once per distinct selected factor, over
    /// all candidates at once.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] if a candidate was extracted
    /// with fewer WL levels than a model's selected `h`.
    pub fn predict_many(
        gps: &[WlGp],
        candidates: &[WlFeatures],
    ) -> Result<Vec<Vec<(f64, f64)>>, GpError> {
        for gp in gps {
            for f in candidates {
                if f.max_h() < gp.hyper.h {
                    return Err(GpError::DimensionMismatch {
                        expected: gp.hyper.h,
                        found: f.max_h(),
                    });
                }
            }
        }
        let m = candidates.len();
        let mut per_model = Vec::with_capacity(gps.len());
        for design in distinct(gps.iter(), |a, b| Arc::ptr_eq(&a.feats, &b.feats)) {
            let on_design: Vec<(usize, &WlGp)> = gps
                .iter()
                .enumerate()
                .filter(|(_, gp)| Arc::ptr_eq(&gp.feats, &design.feats))
                .collect();
            for (_, h_rep) in distinct(on_design.iter(), |a, b| a.1.hyper.h == b.1.hyper.h) {
                let h = h_rep.hyper.h;
                // n×m block of raw WL inner products, row-major.
                let raw: Vec<f64> = design
                    .feats
                    .iter()
                    .flat_map(|fi| candidates.iter().map(move |f| fi.kernel(f, h)))
                    .collect();
                let raw_prior: Vec<f64> = candidates.iter().map(|f| f.kernel(f, h)).collect();
                let on_h: Vec<(usize, &WlGp)> = on_design
                    .iter()
                    .copied()
                    .filter(|(_, gp)| gp.hyper.h == h)
                    .collect();
                for (_, rep) in distinct(on_h.iter(), |a, b| a.1.same_cross(b.1)) {
                    let (sig, scale) = (rep.hyper.signal_var, rep.scale);
                    let cross: Vec<f64> = raw.iter().map(|r| sig * r / scale).collect();
                    let prior: Vec<f64> = raw_prior.iter().map(|r| sig * r / scale).collect();
                    let members: Vec<BatchMember<'_>> = on_h
                        .iter()
                        .filter(|(_, gp)| gp.same_cross(rep))
                        .map(|&(g, gp)| (g, &gp.fitted, gp.scaler))
                        .collect();
                    posteriors_on_cross(&members, &cross, &prior, m, &mut per_model)?;
                }
            }
        }
        Ok(by_candidate(per_model, m))
    }

    /// Same cross kernel `σ_f²·⟨φ_h(G_i), φ_h(f)⟩/s`, bit for bit, on the
    /// same training graphs.
    fn same_cross(&self, other: &WlGp) -> bool {
        Arc::ptr_eq(&self.feats, &other.feats)
            && self.hyper.h == other.hyper.h
            && self.hyper.signal_var.to_bits() == other.hyper.signal_var.to_bits()
            && self.scale.to_bits() == other.scale.to_bits()
    }

    /// The expected derivative of the (raw-scale) posterior mean with
    /// respect to the count of WL feature `feature_id` (Eq. 5):
    ///
    /// `∂μ/∂φ_j = Σ_i φ_i[j]·[K⁻¹ y]_i`
    ///
    /// scaled back to raw target units. Because the WL kernel is linear in
    /// the feature vector, the derivative is independent of the query graph.
    ///
    /// Returns `0` if the feature never occurs in the training set.
    pub fn feature_gradient(&self, feature_id: u32) -> f64 {
        let coeff = self.hyper.signal_var / self.scale;
        let grad_norm: f64 = self
            .feats
            .iter()
            .zip(&self.fitted.alpha)
            .map(|(fi, a)| coeff * fi.vector(self.hyper.h).get(feature_id) * a)
            .sum();
        grad_norm * self.scaler.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_circuit::{PassiveKind, SubcircuitType, Topology, VariableEdge};
    use oa_graph::{CircuitGraph, WlFeaturizer};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const H_EXTRACT: usize = 4;

    fn featurize_all(wl: &mut WlFeaturizer, ts: &[Topology]) -> Vec<WlFeatures> {
        ts.iter()
            .map(|t| wl.featurize(&CircuitGraph::from_topology(t), H_EXTRACT))
            .collect()
    }

    /// Synthetic target: +10 if the topology has a capacitor-bearing
    /// compensation subcircuit on v1-vout, plus noise-free base.
    fn structural_score(t: &Topology) -> f64 {
        let ty = t.type_on(VariableEdge::V1Vout);
        let has_cap_comp = matches!(
            ty,
            SubcircuitType::Passive(PassiveKind::C)
                | SubcircuitType::Passive(PassiveKind::SeriesRc)
                | SubcircuitType::Passive(PassiveKind::ParallelRc)
        );
        if has_cap_comp {
            10.0
        } else {
            1.0
        }
    }

    fn random_topologies(n: usize, seed: u64) -> Vec<Topology> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        while out.len() < n {
            let t = Topology::random(&mut rng);
            if seen.insert(t) {
                out.push(t);
            }
        }
        out
    }

    #[test]
    fn learns_structure_dependent_targets() {
        let mut wl = WlFeaturizer::new();
        let train = random_topologies(40, 21);
        let feats = featurize_all(&mut wl, &train);
        let y: Vec<f64> = train.iter().map(structural_score).collect();
        let gp = WlGp::fit(feats, y).unwrap();

        // Held-out predictions must separate the two classes.
        let test = random_topologies(30, 99);
        let test_feats = featurize_all(&mut wl, &test);
        let mut hit = 0;
        for (t, f) in test.iter().zip(&test_feats) {
            let (mean, _) = gp.predict(f).unwrap();
            let predicted_high = mean > 5.5;
            let actually_high = structural_score(t) > 5.0;
            if predicted_high == actually_high {
                hit += 1;
            }
        }
        assert!(hit >= 22, "only {hit}/30 held-out predictions correct");
    }

    #[test]
    fn gradient_sign_identifies_beneficial_structure() {
        let mut wl = WlFeaturizer::new();
        let train = random_topologies(50, 33);
        let feats = featurize_all(&mut wl, &train);
        let y: Vec<f64> = train.iter().map(structural_score).collect();
        let gp = WlGp::fit(feats, y).unwrap();

        // The h=0 feature for a plain Miller capacitor type "C" should have
        // a positive gradient (it adds +9 to the target when on v1-vout;
        // C also appears on ground edges where it is neutral, so the signal
        // is diluted but must stay positive).
        if let Some(id) = wl.initial_label_id("C") {
            let g = gp.feature_gradient(id);
            assert!(g > 0.0, "gradient for C = {g}");
        }
        // An unknown feature id has zero gradient.
        assert_eq!(gp.feature_gradient(u32::MAX), 0.0);
    }

    #[test]
    fn prediction_on_training_point_is_close() {
        let mut wl = WlFeaturizer::new();
        let train = random_topologies(25, 7);
        let feats = featurize_all(&mut wl, &train);
        let y: Vec<f64> = train.iter().map(structural_score).collect();
        let gp = WlGp::fit(feats.clone(), y.clone()).unwrap();
        let mut err = 0.0;
        for (f, yi) in feats.iter().zip(&y) {
            let (m, _) = gp.predict(f).unwrap();
            err += (m - yi).abs();
        }
        err /= y.len() as f64;
        assert!(err < 2.0, "mean training error {err}");
    }

    #[test]
    fn variance_is_lower_on_training_points() {
        let mut wl = WlFeaturizer::new();
        let train = random_topologies(20, 13);
        let feats = featurize_all(&mut wl, &train);
        let y: Vec<f64> = train.iter().map(structural_score).collect();
        let gp = WlGp::fit(feats.clone(), y).unwrap();
        let (_, var_train) = gp.predict(&feats[0]).unwrap();

        let novel = random_topologies(60, 77)
            .into_iter()
            .find(|t| !train.contains(t))
            .unwrap();
        let f_novel = wl.featurize(&CircuitGraph::from_topology(&novel), H_EXTRACT);
        let (_, var_novel) = gp.predict(&f_novel).unwrap();
        assert!(var_novel > var_train * 0.5, "novel var not larger");
    }

    #[test]
    fn h_is_selected_within_extracted_range() {
        let mut wl = WlFeaturizer::new();
        let train = random_topologies(15, 3);
        let feats = featurize_all(&mut wl, &train);
        let y: Vec<f64> = train.iter().map(structural_score).collect();
        let gp = WlGp::fit(feats, y).unwrap();
        assert!(gp.hyperparams().h <= H_EXTRACT);
    }

    #[test]
    fn fit_shared_matches_fit_and_shares_storage() {
        let mut wl = WlFeaturizer::new();
        let train = random_topologies(20, 55);
        let feats = featurize_all(&mut wl, &train);
        let y: Vec<f64> = train.iter().map(structural_score).collect();
        let owned = WlGp::fit(feats.clone(), y.clone()).unwrap();
        let shared = Arc::new(feats.clone());
        let obj = WlGp::fit_shared(shared.clone(), y.clone()).unwrap();
        let con = WlGp::fit_shared(shared.clone(), y.iter().map(|v| -v).collect()).unwrap();
        for f in &feats[..5] {
            let (a, va) = owned.predict(f).unwrap();
            let (b, vb) = obj.predict(f).unwrap();
            assert_eq!(a, b);
            assert_eq!(va, vb);
        }
        assert!(Arc::ptr_eq(&obj.feats, &shared));
        assert!(Arc::ptr_eq(&con.feats, &shared));
    }

    /// The per-output fit as written before the shared factors: every
    /// grid point factored from scratch for one output.
    fn reference_fit(feats: &[WlFeatures], y: &[f64]) -> (WlGpHyperparams, f64, Vec<f64>, f64) {
        let scaler = TargetScaler::fit(y).unwrap();
        let y_norm: Vec<f64> = y.iter().map(|&v| scaler.normalize(v)).collect();
        let n = feats.len();
        let h_cap = feats.iter().map(WlFeatures::max_h).min().unwrap();
        let mut best: Option<(WlGpHyperparams, f64, Vec<f64>, f64)> = None;
        for h in 0..=h_cap {
            let raw = Matrix::from_fn(n, n, |i, j| feats[i].kernel(&feats[j], h));
            let scale = (0..n).map(|i| raw[(i, i)]).sum::<f64>() / n as f64;
            let scale = if scale > 0.0 { scale } else { 1.0 };
            for &sig in &WlGp::SIGNALS {
                let k = Matrix::from_fn(n, n, |i, j| sig * raw[(i, j)] / scale);
                for &noise in &WlGp::NOISES {
                    let mut kn = k.clone();
                    kn.add_diag(noise);
                    let Ok((chol, _)) = oa_linalg::Cholesky::new_with_jitter(&kn, 1e-10, 10) else {
                        continue;
                    };
                    let alpha = chol.solve(&y_norm).unwrap();
                    let data_fit: f64 = y_norm.iter().zip(&alpha).map(|(y, a)| y * a).sum();
                    let lml = -0.5 * data_fit
                        - 0.5 * chol.log_det()
                        - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
                    if best.as_ref().is_none_or(|b| lml > b.3) {
                        let hyper = WlGpHyperparams {
                            h,
                            signal_var: sig,
                            noise_var: noise,
                        };
                        best = Some((hyper, scale, alpha, lml));
                    }
                }
            }
        }
        best.unwrap()
    }

    /// Objective plus four constraint-like outputs of a training set.
    fn five_outputs(train: &[Topology]) -> Vec<Vec<f64>> {
        vec![
            train.iter().map(structural_score).collect(),
            train
                .iter()
                .map(|t| t.connected_count() as f64 - 2.0)
                .collect(),
            train.iter().map(|t| (t.index() % 5) as f64).collect(),
            train.iter().map(|_| 1.0).collect(),
            train
                .iter()
                .map(|t| (t.index() as f64 * 0.37).sin() * 1e4)
                .collect(),
        ]
    }

    #[test]
    fn fit_equals_the_per_output_reference() {
        let mut wl = WlFeaturizer::new();
        let train = random_topologies(18, 61);
        let feats = featurize_all(&mut wl, &train);
        for y in five_outputs(&train) {
            let gp = WlGp::fit(feats.clone(), y.clone()).unwrap();
            let (hyper, scale, alpha, lml) = reference_fit(&feats, &y);
            assert_eq!(gp.hyper, hyper);
            assert_eq!(gp.scale.to_bits(), scale.to_bits());
            assert_eq!(gp.fitted.alpha, alpha);
            assert_eq!(gp.lml().to_bits(), lml.to_bits());
        }
    }

    #[test]
    fn fit_many_equals_per_output_fit_shared() {
        let mut wl = WlFeaturizer::new();
        let train = random_topologies(24, 8);
        let feats = Arc::new(featurize_all(&mut wl, &train));
        let ys = five_outputs(&train);
        let many = WlGp::fit_many(feats.clone(), ys.clone()).unwrap();
        assert_eq!(many.len(), 5);
        let probes = featurize_all(&mut wl, &random_topologies(12, 9));
        for (gp, y) in many.iter().zip(&ys) {
            let alone = WlGp::fit_shared(feats.clone(), y.clone()).unwrap();
            assert_eq!(gp.hyper, alone.hyper);
            assert_eq!(gp.scale.to_bits(), alone.scale.to_bits());
            assert_eq!(gp.lml().to_bits(), alone.lml().to_bits());
            assert_eq!(gp.fitted.alpha, alone.fitted.alpha);
            assert_eq!(gp.scaler, alone.scaler);
            assert!(Arc::ptr_eq(&gp.feats, &feats));
            for f in &probes {
                assert_eq!(gp.predict(f).unwrap(), alone.predict(f).unwrap());
            }
        }
        // Outputs that select the same grid point share one factor.
        for a in &many {
            for b in &many {
                if a.hyper == b.hyper {
                    assert!(Arc::ptr_eq(&a.fitted.chol, &b.fitted.chol));
                }
            }
        }
    }

    #[test]
    fn batched_prediction_equals_predict() {
        let mut wl = WlFeaturizer::new();
        let train = random_topologies(30, 14);
        let feats = Arc::new(featurize_all(&mut wl, &train));
        let mut gps = WlGp::fit_many(feats.clone(), five_outputs(&train)).unwrap();
        let other = random_topologies(9, 15);
        gps.push(
            WlGp::fit(
                featurize_all(&mut wl, &other),
                five_outputs(&other).remove(1),
            )
            .unwrap(),
        );
        let pool = featurize_all(&mut wl, &random_topologies(50, 16));
        let rows = WlGp::predict_many(&gps, &pool).unwrap();
        assert_eq!(rows.len(), pool.len());
        for (row, f) in rows.iter().zip(&pool) {
            assert_eq!(row.len(), gps.len());
            for (g, &(mean, var)) in gps.iter().zip(row) {
                // The one-candidate arithmetic, written out.
                let (h, sig) = (g.hyper.h, g.hyper.signal_var);
                let k_star: Vec<f64> = g
                    .feats
                    .iter()
                    .map(|fi| sig * fi.kernel(f, h) / g.scale)
                    .collect();
                let m: f64 = k_star.iter().zip(&g.fitted.alpha).map(|(k, a)| k * a).sum();
                let v = g.fitted.chol.solve_lower(&k_star).unwrap();
                let e: f64 = v.iter().map(|t| t * t).sum();
                let var_norm = (sig * f.kernel(f, h) / g.scale - e).max(0.0);
                assert_eq!(mean.to_bits(), g.scaler.denormalize(m).to_bits());
                assert_eq!(var.to_bits(), g.scaler.denormalize_var(var_norm).to_bits());
                assert_eq!(g.predict(f).unwrap(), (mean, var));
            }
        }
    }

    #[test]
    fn rejects_empty_training_set() {
        assert!(matches!(
            WlGp::fit(vec![], vec![]),
            Err(GpError::BadTrainingSet { .. })
        ));
    }

    #[test]
    fn rejects_underextracted_prediction_features() {
        let mut wl = WlFeaturizer::new();
        let train = random_topologies(10, 4);
        let feats = featurize_all(&mut wl, &train);
        let y: Vec<f64> = train.iter().map(structural_score).collect();
        let gp = WlGp::fit(feats, y).unwrap();
        if gp.hyperparams().h > 0 {
            let f0 = wl.featurize(&CircuitGraph::from_topology(&Topology::bare_cascade()), 0);
            assert!(gp.predict(&f0).is_err());
        }
    }
}
