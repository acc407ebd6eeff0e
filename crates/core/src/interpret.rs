//! Interpretability (Section III-C / IV-B): per-metric WL-GP surrogates,
//! structure-impact gradients, and remove-and-resimulate sensitivity
//! analysis.

use oa_circuit::{SubcircuitType, Topology, VariableEdge};
use oa_gp::WlGp;
use oa_graph::{CircuitGraph, WlFeaturizer};
use oa_sim::OpAmpPerformance;

use crate::error::IntoOaError;
use crate::evaluator::Evaluator;
use crate::optimizer::OptimizationRun;

/// The performance metrics modelled for interpretability. GBW and power
/// are modelled in log10 (they span decades); the reported gradients are in
/// the modelled units.
pub const MODELLED_METRICS: [&str; 4] = ["gain_db", "log10_gbw", "pm_deg", "log10_power"];

/// Per-metric WL-GP models trained on an optimization run's history —
/// "the WL-GP models … trained during optimization" that Section IV-B
/// analyzes.
#[derive(Debug)]
pub struct MetricModels {
    featurizer: WlFeaturizer,
    models: Vec<(String, WlGp)>,
    wl_levels: usize,
}

/// The gradient-based impact report for one variable subcircuit.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureImpact {
    /// The edge the subcircuit occupies.
    pub edge: VariableEdge,
    /// The subcircuit type.
    pub ty: SubcircuitType,
    /// `(metric name, ∂metric/∂count)` for every modelled metric, using the
    /// position-aware `h = 1` feature when the model's selected `h ≥ 1`,
    /// otherwise the type-level `h = 0` feature.
    pub gradients: Vec<(String, f64)>,
}

impl MetricModels {
    /// Trains one WL-GP per metric from the run history.
    ///
    /// # Errors
    ///
    /// Returns [`IntoOaError::Gp`] if a surrogate cannot be trained (e.g.
    /// fewer than one record).
    pub fn fit(run: &OptimizationRun, wl_levels: usize) -> Result<Self, IntoOaError> {
        let mut featurizer = run.featurizer.clone();
        let feats: Vec<_> = run
            .records
            .iter()
            .map(|r| featurizer.featurize_topology(&r.design.topology, wl_levels))
            .collect();

        let metric_values = |name: &str| -> Vec<f64> {
            run.records
                .iter()
                .map(|r| {
                    let p = &r.design.performance;
                    match name {
                        "gain_db" => p.gain_db,
                        "log10_gbw" => p.gbw_hz.max(1.0).log10(),
                        "pm_deg" => p.pm_deg,
                        "log10_power" => p.power_w.max(1e-12).log10(),
                        _ => unreachable!("metric names are fixed"),
                    }
                })
                .collect()
        };

        // All four metric GPs share one reference-counted copy of the
        // training features and one factor per hyperparameter grid point.
        let ys = MODELLED_METRICS
            .iter()
            .map(|name| metric_values(name))
            .collect();
        let gps = WlGp::fit_many(std::sync::Arc::new(feats), ys)?;
        let models = MODELLED_METRICS
            .iter()
            .map(|name| (*name).to_owned())
            .zip(gps)
            .collect();
        Ok(MetricModels {
            featurizer,
            models,
            wl_levels,
        })
    }

    /// The modelled metric names.
    pub fn metric_names(&self) -> Vec<&str> {
        self.models.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The WL-GP for one metric.
    ///
    /// # Errors
    ///
    /// Returns [`IntoOaError::UnknownMetric`] for a name not in
    /// [`MODELLED_METRICS`].
    pub fn model(&self, metric: &str) -> Result<&WlGp, IntoOaError> {
        self.models
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, m)| m)
            .ok_or_else(|| IntoOaError::UnknownMetric {
                name: metric.to_owned(),
            })
    }

    /// Posterior prediction `(mean, variance)` of a modelled metric for a
    /// topology (Eq. 3–4 applied to the metric's WL-GP).
    ///
    /// # Errors
    ///
    /// Returns [`IntoOaError::UnknownMetric`] for an unknown metric name and
    /// propagates surrogate errors.
    pub fn predict_metric(
        &self,
        metric: &str,
        topology: &Topology,
    ) -> Result<(f64, f64), IntoOaError> {
        let model = self.model(metric)?;
        let mut featurizer = self.featurizer.clone();
        let feats = featurizer.featurize_topology(topology, self.wl_levels);
        Ok(model.predict(&feats)?)
    }

    /// The gradient of a metric with respect to the *type-level* (`h = 0`)
    /// WL feature of a subcircuit type (Eq. 5). Returns 0 for structures
    /// never seen in training.
    ///
    /// # Errors
    ///
    /// Returns [`IntoOaError::UnknownMetric`] for an unknown metric name.
    pub fn type_gradient(&self, metric: &str, ty: SubcircuitType) -> Result<f64, IntoOaError> {
        let model = self.model(metric)?;
        Ok(self
            .featurizer
            .initial_label_id(&ty.mnemonic())
            .map_or(0.0, |id| model.feature_gradient(id)))
    }

    /// Gradient-based impact report for every connected variable subcircuit
    /// of `topology` — the analysis behind Fig. 6's discussion.
    pub fn structure_report(&self, topology: &Topology) -> Vec<StructureImpact> {
        let graph = CircuitGraph::from_topology(topology);
        let mut featurizer = self.featurizer.clone();
        let feats = featurizer.featurize(&graph, self.wl_levels);

        let mut out = Vec::new();
        for edge in VariableEdge::ALL {
            let ty = topology.type_on(edge);
            if ty.is_no_conn() {
                continue;
            }
            let node = graph
                .variable_node(edge)
                .expect("connected edge has a graph node");
            let mut gradients = Vec::new();
            for (name, model) in &self.models {
                let level = usize::min(1, model.hyperparams().h);
                let id = feats.node_label(level, node);
                gradients.push((name.clone(), model.feature_gradient(id)));
            }
            out.push(StructureImpact {
                edge,
                ty,
                gradients,
            });
        }
        out
    }

    /// Human-readable description of the `h = 1` structure of a subcircuit
    /// node (e.g. `(RCs | v1, vout)`).
    pub fn describe_structure(&self, topology: &Topology, edge: VariableEdge) -> Option<String> {
        let graph = CircuitGraph::from_topology(topology);
        let node = graph.variable_node(edge)?;
        let mut featurizer = self.featurizer.clone();
        let feats = featurizer.featurize(&graph, self.wl_levels.max(1));
        Some(featurizer.describe(feats.node_label(1, node)))
    }
}

/// Result of a remove-and-resimulate sensitivity experiment for one
/// subcircuit (the validation used in Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemovalSensitivity {
    /// The removed subcircuit's edge.
    pub edge: VariableEdge,
    /// Performance with the subcircuit in place.
    pub with: OpAmpPerformance,
    /// Performance with the subcircuit removed (edge set to no-connection).
    pub without: OpAmpPerformance,
}

impl RemovalSensitivity {
    /// Change in GBW caused by *removing* the structure (Hz).
    pub fn delta_gbw_hz(&self) -> f64 {
        self.without.gbw_hz - self.with.gbw_hz
    }

    /// Change in phase margin caused by removing the structure (degrees).
    pub fn delta_pm_deg(&self) -> f64 {
        self.without.pm_deg - self.with.pm_deg
    }
}

/// Removes the variable subcircuit on `edge` and re-simulates, holding all
/// other device values fixed.
///
/// # Errors
///
/// Propagates simulation and design-space errors.
pub fn removal_sensitivity(
    evaluator: &Evaluator,
    topology: &Topology,
    values: &oa_circuit::DeviceValues,
    edge: VariableEdge,
) -> Result<RemovalSensitivity, IntoOaError> {
    let with = evaluator.simulate(topology, values)?;
    let without_topology = topology.with_type(edge, SubcircuitType::NoConn)?;
    let without = evaluator.simulate(&without_topology, values)?;
    Ok(RemovalSensitivity {
        edge,
        with,
        without,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, IntoOaConfig};
    use crate::spec::Spec;
    use oa_circuit::{ParamSpace, PassiveKind};

    fn quick_run() -> OptimizationRun {
        optimize(&Spec::s1(), &IntoOaConfig::quick(17))
    }

    #[test]
    fn models_train_on_run_history() {
        let run = quick_run();
        let models = MetricModels::fit(&run, 3).unwrap();
        assert_eq!(models.metric_names().len(), 4);
        assert!(models.model("pm_deg").is_ok());
        assert!(matches!(
            models.model("nonsense"),
            Err(IntoOaError::UnknownMetric { .. })
        ));
    }

    #[test]
    fn structure_report_covers_connected_edges() {
        let run = quick_run();
        let models = MetricModels::fit(&run, 3).unwrap();
        let best = run.best_design().expect("run evaluated something");
        let report = models.structure_report(&best.topology);
        assert_eq!(report.len(), best.topology.connected_count());
        for impact in &report {
            assert_eq!(impact.gradients.len(), 4);
            for (_, g) in &impact.gradients {
                assert!(g.is_finite());
            }
        }
    }

    #[test]
    fn removing_miller_cap_degrades_pm_and_boosts_gbw() {
        // The textbook sanity check the paper performs in IV-B: removing
        // the compensation capacitor raises GBW and collapses PM.
        let evaluator = Evaluator::new(Spec::s1());
        let t = Topology::bare_cascade()
            .with_type(
                VariableEdge::V1Vout,
                SubcircuitType::Passive(PassiveKind::C),
            )
            .unwrap();
        let space = ParamSpace::for_topology(&t);
        let values = space.decode(&[0.5, 0.5, 0.5, 0.8]).unwrap();
        let sens = removal_sensitivity(&evaluator, &t, &values, VariableEdge::V1Vout).unwrap();
        assert!(sens.delta_gbw_hz() > 0.0, "GBW should rise on removal");
        assert!(sens.delta_pm_deg() < 0.0, "PM should fall on removal");
    }

    #[test]
    fn describe_structure_names_the_endpoints() {
        let run = quick_run();
        let models = MetricModels::fit(&run, 3).unwrap();
        let t = Topology::bare_cascade()
            .with_type(
                VariableEdge::V1Vout,
                SubcircuitType::Passive(PassiveKind::SeriesRc),
            )
            .unwrap();
        let desc = models
            .describe_structure(&t, VariableEdge::V1Vout)
            .expect("edge connected");
        assert!(desc.contains("RCs") && desc.contains("v1") && desc.contains("vout"));
    }

    #[test]
    fn type_gradient_is_zero_for_unseen_structures() {
        let run = quick_run();
        let models = MetricModels::fit(&run, 3).unwrap();
        // Find a type that never appeared in this tiny run's history.
        let seen: std::collections::HashSet<String> = run
            .records
            .iter()
            .flat_map(|r| {
                VariableEdge::ALL
                    .iter()
                    .map(|&e| r.design.topology.type_on(e).mnemonic())
                    .collect::<Vec<_>>()
            })
            .collect();
        let unseen = SubcircuitType::catalog()
            .into_iter()
            .find(|ty| !seen.contains(&ty.mnemonic()));
        if let Some(ty) = unseen {
            let g = models.type_gradient("gain_db", ty).unwrap();
            assert_eq!(g, 0.0);
        }
    }
}
