//! Constrained Bayesian optimization on the unit cube — the automated
//! sizing inner loop of Section II-A (method of \[1\]).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use oa_gp::{GpRegressor, RbfGrid};

use crate::acquisition::weighted_ei;

/// One observed point of a constrained black box.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Objective value (maximized).
    pub objective: f64,
    /// Constraint values; feasible when every entry ≤ 0.
    pub constraints: Vec<f64>,
}

impl Observation {
    /// Returns `true` when every constraint is satisfied.
    pub fn is_feasible(&self) -> bool {
        self.constraints.iter().all(|&c| c <= 0.0)
    }

    /// Total positive constraint violation (0 when feasible).
    pub fn violation(&self) -> f64 {
        self.constraints.iter().map(|&c| c.max(0.0)).sum()
    }
}

/// Configuration of the sizing BO loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoConfig {
    /// Number of random initial points (paper: 10).
    pub n_init: usize,
    /// Number of BO iterations after initialization (paper: 30).
    pub n_iter: usize,
    /// Acquisition candidates per iteration.
    pub n_candidates: usize,
    /// RNG seed; every run with the same seed and black box is identical.
    pub seed: u64,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            n_init: 10,
            n_iter: 30,
            n_candidates: 100,
            seed: 0,
        }
    }
}

/// Result of a constrained-BO run.
#[derive(Debug, Clone, PartialEq)]
pub struct BoResult {
    /// Best point: the feasible observation with the highest objective, or
    /// — when nothing is feasible — the observation with the smallest total
    /// violation.
    pub best: Option<(Vec<f64>, Observation)>,
    /// Every evaluated `(x, observation)` in evaluation order.
    pub history: Vec<(Vec<f64>, Observation)>,
}

impl BoResult {
    /// The best *feasible* observation, if any run point was feasible.
    pub fn best_feasible(&self) -> Option<&(Vec<f64>, Observation)> {
        self.best.as_ref().filter(|(_, obs)| obs.is_feasible())
    }
}

fn better(a: &Observation, b: &Observation) -> bool {
    // Feasible beats infeasible; among feasible, higher objective; among
    // infeasible, lower violation.
    match (a.is_feasible(), b.is_feasible()) {
        (true, false) => true,
        (false, true) => false,
        (true, true) => a.objective > b.objective,
        (false, false) => a.violation() < b.violation(),
    }
}

/// Maximizes a constrained black box on `[0,1]^dim` with GP surrogates and
/// the wEI acquisition.
///
/// The black box returns `None` on evaluation failure (e.g. a singular
/// simulation); failed points are discarded and do not enter the surrogate.
///
/// # Examples
///
/// ```
/// use oa_bo::{maximize_constrained, BoConfig, Observation};
///
/// // Maximize -(x-0.7)² subject to x ≥ 0.5  (c = 0.5 - x ≤ 0).
/// let result = maximize_constrained(1, &BoConfig::default(), |x| {
///     Some(Observation {
///         objective: -(x[0] - 0.7) * (x[0] - 0.7),
///         constraints: vec![0.5 - x[0]],
///     })
/// });
/// let (x, obs) = result.best.expect("found something");
/// assert!(obs.is_feasible());
/// assert!((x[0] - 0.7).abs() < 0.1);
/// ```
pub fn maximize_constrained<F>(dim: usize, config: &BoConfig, black_box: F) -> BoResult
where
    F: FnMut(&[f64]) -> Option<Observation>,
{
    maximize_constrained_anchored(dim, &[], config, black_box)
}

/// Like [`maximize_constrained`], but the first initial points are the
/// caller-provided deterministic `anchors` (clamped to the cube and
/// truncated/padded to `dim`). Domain-informed anchors — e.g. "mid-range
/// devices" or "heavy compensation" for op-amp sizing — make the
/// evaluation of a topology far less dependent on initialization luck,
/// which matters when the optimizer's result is itself the training signal
/// of an outer surrogate.
pub fn maximize_constrained_anchored<F>(
    dim: usize,
    anchors: &[Vec<f64>],
    config: &BoConfig,
    mut black_box: F,
) -> BoResult
where
    F: FnMut(&[f64]) -> Option<Observation>,
{
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut history: Vec<(Vec<f64>, Observation)> = Vec::new();
    // Every surrogate of this run shares one grid of Gram factors over
    // the history's inputs, grown by one row per observation.
    let mut grid = RbfGrid::new(dim);

    let mut evaluate =
        |x: Vec<f64>, history: &mut Vec<(Vec<f64>, Observation)>, grid: &mut RbfGrid| {
            if let Some(obs) = black_box(&x) {
                // The only possible error is a wrong input length, which
                // every point drawn here rules out; a grid left short of the
                // history fails the next fit and falls back to a random
                // proposal.
                let _ = grid.push(x.clone());
                history.push((x, obs));
            }
        };

    // Latin-hypercube initialization: one stratum per point per dimension,
    // permuted independently — far better coverage than iid sampling in
    // the 3–13-dimensional sizing cubes.
    let n_init = config.n_init.max(1);
    let n_anchors = anchors.len().min(n_init);
    for a in anchors.iter().take(n_anchors) {
        let x: Vec<f64> = (0..dim)
            .map(|d| a.get(d).copied().unwrap_or(0.5).clamp(0.0, 1.0))
            .collect();
        evaluate(x, &mut history, &mut grid);
    }
    let n_init = n_init - n_anchors;
    let strata: Vec<Vec<usize>> = (0..dim)
        .map(|_| {
            let mut idx: Vec<usize> = (0..n_init).collect();
            for i in (1..idx.len()).rev() {
                idx.swap(i, rng.gen_range(0..=i));
            }
            idx
        })
        .collect();
    #[allow(clippy::needless_range_loop)] // k indexes every dimension's permutation
    for k in 0..n_init {
        let x: Vec<f64> = (0..dim)
            // lint: allow(panic, strata holds dim permutations of length n_init; d < dim and k < n_init by the loop bounds)
            .map(|d| (strata[d][k] as f64 + rng.gen::<f64>()) / n_init.max(1) as f64)
            .collect();
        evaluate(x, &mut history, &mut grid);
    }
    drop(strata);

    for _ in 0..config.n_iter {
        let x_next = propose(dim, &history, &grid, config, &mut rng);
        evaluate(x_next, &mut history, &mut grid);
    }

    let best = history
        .iter()
        .cloned()
        .reduce(|acc, cur| if better(&cur.1, &acc.1) { cur } else { acc });
    BoResult { best, history }
}

/// Chooses the next point: wEI over a candidate pool of uniform samples and
/// Gaussian perturbations of the incumbent; falls back to uniform random
/// when the surrogates cannot be fitted.
///
/// The objective GP and every constraint GP are fitted against the
/// grid's shared factors, all candidates are drawn before any is scored
/// (scoring draws no randomness), and the pool is scored as one block.
fn propose(
    dim: usize,
    history: &[(Vec<f64>, Observation)],
    grid: &RbfGrid,
    config: &BoConfig,
    rng: &mut ChaCha8Rng,
) -> Vec<f64> {
    let random_point =
        |rng: &mut ChaCha8Rng| (0..dim).map(|_| rng.gen::<f64>()).collect::<Vec<f64>>();
    if history.len() < 2 {
        return random_point(rng);
    }

    // Objective first, then one target vector per constraint. A missing
    // constraint value is NaN, which fails the fit like any other
    // non-finite target.
    let n_cons = history.first().map_or(0, |(_, o)| o.constraints.len());
    let ys: Vec<Vec<f64>> = std::iter::once(history.iter().map(|(_, o)| o.objective).collect())
        .chain((0..n_cons).map(|i| {
            history
                .iter()
                .map(|(_, o)| o.constraints.get(i).copied().unwrap_or(f64::NAN))
                .collect()
        }))
        .collect();
    let Ok(gps) = grid.fit(ys) else {
        return random_point(rng);
    };

    let best_feasible = history
        .iter()
        .filter(|(_, o)| o.is_feasible())
        .map(|(_, o)| o.objective)
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        });

    let incumbent = history
        .iter()
        .cloned()
        .reduce(|acc, cur| if better(&cur.1, &acc.1) { cur } else { acc })
        .map(|(x, _)| x)
        .unwrap_or_else(|| random_point(rng));

    let candidates: Vec<Vec<f64>> = (0..config.n_candidates.max(1))
        .map(|k| {
            // A third uniform exploration, the rest local perturbations of
            // the incumbent at two scales (σ = 0.05 fine / 0.2 coarse,
            // clamped).
            if k % 3 == 0 {
                random_point(rng)
            } else {
                let sigma = if k % 3 == 1 { 0.05 } else { 0.2 };
                incumbent
                    .iter()
                    .map(|&v| {
                        let u1: f64 = rng.gen::<f64>().max(1e-12);
                        let u2: f64 = rng.gen();
                        let normal =
                            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        (v + sigma * normal).clamp(0.0, 1.0)
                    })
                    .collect()
            }
        })
        .collect();
    // A prediction error is a dimension mismatch, which every candidate
    // shares: no candidate is scored, as when each one is skipped.
    let posteriors = GpRegressor::predict_many(&gps, &candidates).unwrap_or_default();

    let mut best_x = None;
    let mut best_acq = f64::NEG_INFINITY;
    for (cand, post) in candidates.into_iter().zip(&posteriors) {
        let Some((obj, cons)) = post.split_first() else {
            continue;
        };
        let acq = weighted_ei(*obj, cons, best_feasible);
        if acq > best_acq {
            best_acq = acq;
            best_x = Some(cand);
        }
    }
    best_x.unwrap_or_else(|| random_point(rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere_with_constraint(x: &[f64]) -> Option<Observation> {
        let d2: f64 = x.iter().map(|v| (v - 0.6) * (v - 0.6)).sum();
        Some(Observation {
            objective: -d2,
            constraints: vec![x[0] - 0.9], // x0 ≤ 0.9
        })
    }

    #[test]
    fn finds_near_optimum_of_smooth_function() {
        let cfg = BoConfig {
            n_init: 8,
            n_iter: 25,
            n_candidates: 60,
            seed: 3,
        };
        let res = maximize_constrained(2, &cfg, sphere_with_constraint);
        let (x, obs) = res.best.unwrap();
        assert!(obs.is_feasible());
        assert!(x.iter().all(|v| (v - 0.6).abs() < 0.25), "best x = {x:?}");
    }

    #[test]
    fn beats_pure_random_search_on_average() {
        let mut bo_scores = Vec::new();
        let mut rand_scores = Vec::new();
        for seed in 0..5u64 {
            let cfg = BoConfig {
                n_init: 10,
                n_iter: 20,
                n_candidates: 60,
                seed,
            };
            let res = maximize_constrained(3, &cfg, |x| {
                Some(Observation {
                    objective: -x.iter().map(|v| (v - 0.42) * (v - 0.42)).sum::<f64>(),
                    constraints: vec![],
                })
            });
            bo_scores.push(res.best.unwrap().1.objective);

            // Random search with the same budget.
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
            let best_rand = (0..30)
                .map(|_| {
                    let x: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
                    -x.iter().map(|v| (v - 0.42) * (v - 0.42)).sum::<f64>()
                })
                .fold(f64::NEG_INFINITY, f64::max);
            rand_scores.push(best_rand);
        }
        let bo_mean: f64 = bo_scores.iter().sum::<f64>() / bo_scores.len() as f64;
        let rand_mean: f64 = rand_scores.iter().sum::<f64>() / rand_scores.len() as f64;
        assert!(bo_mean > rand_mean, "bo {bo_mean} vs random {rand_mean}");
    }

    #[test]
    fn infeasible_problems_return_least_violating_point() {
        let cfg = BoConfig {
            n_init: 5,
            n_iter: 10,
            n_candidates: 30,
            seed: 1,
        };
        let res = maximize_constrained(1, &cfg, |x| {
            Some(Observation {
                objective: x[0],
                constraints: vec![x[0] + 1.0], // always > 0 → infeasible
            })
        });
        assert!(res.best_feasible().is_none());
        let (_, obs) = res.best.clone().unwrap();
        assert!(!obs.is_feasible());
        // Least violation = smallest x.
        assert!(obs.constraints[0] < 1.6);
    }

    #[test]
    fn failed_evaluations_are_skipped() {
        let cfg = BoConfig {
            n_init: 6,
            n_iter: 6,
            n_candidates: 20,
            seed: 9,
        };
        let mut calls = 0;
        let res = maximize_constrained(1, &cfg, |x| {
            calls += 1;
            if x[0] < 0.5 {
                None
            } else {
                Some(Observation {
                    objective: x[0],
                    constraints: vec![],
                })
            }
        });
        assert_eq!(calls, 12);
        assert!(res.history.len() <= 12);
        assert!(res.history.iter().all(|(x, _)| x[0] >= 0.5));
    }

    #[test]
    fn same_seed_reproduces_run() {
        let cfg = BoConfig::default();
        let a = maximize_constrained(2, &cfg, sphere_with_constraint);
        let b = maximize_constrained(2, &cfg, sphere_with_constraint);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn feasible_always_preferred_over_infeasible() {
        let feasible = Observation {
            objective: -100.0,
            constraints: vec![-1.0],
        };
        let infeasible = Observation {
            objective: 100.0,
            constraints: vec![1.0],
        };
        assert!(better(&feasible, &infeasible));
        assert!(!better(&infeasible, &feasible));
    }
}
