//! The traced run: spans recorded by the benchmark around calls into
//! each layer's public functions, kept in memory and written out at
//! the end, and the in-process replays that produce them.
//!
//! Per replayed request there is one root span (`eval_miss`,
//! `batch_hit`, `step`) whose children are the real
//! `Service::handle_line` call and, next to it, the same request taken
//! apart into the layer calls it makes internally, each timed on the
//! same inputs. A call that happens *inside* another timed call (such as
//! `elaborate` inside `EvalHandle::eval`) is timed by a sibling call and
//! marked `beside`: it is reported on its own and never summed into the
//! coverage of its request.

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use into_oa::{Evaluator, Spec};
use oa_bo::{maximize_constrained_anchored, BoConfig, BoSession, Observation, TopoBoConfig};
use oa_circuit::{elaborate, ParamKind, ParamSpace, Topology};
use oa_gp::GpRegressor;
use oa_graph::WlFeaturizer;
use oa_serve::{
    eval_result_json, observation_from_perf, process_fingerprint, wl_fingerprint, Json, Service,
};
use oa_store::{EvalKey, EvalKind, Store};

use crate::gen::{
    BatchWarm, BoSessions, EvalCold, SESSION_N_INIT, SESSION_POOL, SESSION_STEPS, SIZE_INIT,
    SIZE_ITER,
};
use crate::load::body;
use crate::stats::{median, Rng};

/// Sampled requests replayed per family.
pub const EVAL_SAMPLE: u64 = 200;
pub const BATCH_SAMPLE: u64 = 100;
/// GP training-set sizes timed on captured sizing histories.
/// Training-set size, span name, metric name.
pub const GP_FIT_SIZES: [(usize, &str, &str); 4] = [
    (10, "gp.rbf_fit.n10", "gp.rbf_fit_us.n10"),
    (20, "gp.rbf_fit.n20", "gp.rbf_fit_us.n20"),
    (30, "gp.rbf_fit.n30", "gp.rbf_fit_us.n30"),
    (40, "gp.rbf_fit.n40", "gp.rbf_fit_us.n40"),
];
/// Candidate pool of one sizing-BO acquisition step.
const PREDICT_POOL: usize = 100;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Timed beside the call that contains this work, not inside it.
    pub beside: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        beside: bool,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
            beside,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times `f` as a child of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, request, Some(parent), false);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    /// Times `f` as a `beside` child of `parent`.
    pub fn beside<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, request, Some(parent), true);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Median duration of the spans called `name`, in µs.
    pub fn median_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .named(name)
            .map(|(_, s)| s.duration_ns() as f64 / 1e3)
            .collect();
        median(&d)
    }

    /// Median self time of the spans called `name`, in µs.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .named(name)
            .map(|(i, _)| self_time_ns(&self.spans, i) as f64 / 1e3)
            .collect();
        median(&d)
    }

    /// Median over the `name` spans of the summed durations of their
    /// children, in µs.
    pub fn median_children_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .named(name)
            .map(|(i, _)| {
                children(&self.spans, i)
                    .map(|c| c.duration_ns())
                    .sum::<u64>() as f64
                    / 1e3
            })
            .collect();
        median(&d)
    }

    /// Median coverage over the root spans called `root`.
    pub fn median_coverage(&self, root: &str) -> f64 {
        let c: Vec<f64> = self
            .named(root)
            .filter_map(|(i, _)| coverage(&self.spans, i))
            .collect();
        median(&c)
    }

    /// Writes every span as one TSV row.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out =
            String::from("index\tname\trequest\tparent\tstart_ns\tend_ns\tself_ns\tbeside\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}\n",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                self_time_ns(&self.spans, i),
                s.beside
            ));
        }
        fs::write(path, out)
    }
}

fn children(spans: &[Span], parent: usize) -> impl Iterator<Item = &Span> {
    spans.iter().filter(move |s| s.parent == Some(parent))
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], i: usize) -> u64 {
    let span = &spans[i];
    let mut intervals: Vec<(u64, u64)> = children(spans, i)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

/// Coverage of a root span: the summed durations of its layer children
/// (neither the `serve.handle_line` call itself nor `beside` spans) over
/// the duration of its `serve.handle_line` child. `None` without one.
pub fn coverage(spans: &[Span], root: usize) -> Option<f64> {
    let handle = children(spans, root)
        .find(|c| c.name == HANDLE_LINE)?
        .duration_ns();
    let layers: u64 = children(spans, root)
        .filter(|c| c.name != HANDLE_LINE && !c.beside)
        .map(Span::duration_ns)
        .sum();
    (handle > 0).then(|| layers as f64 / handle as f64)
}

const HANDLE_LINE: &str = "serve.handle_line";

fn eval_key(spec: &str, topology: &Topology, x: &[f64], process_hash: u64) -> Vec<u8> {
    EvalKey {
        kind: EvalKind::Eval,
        topology_code: topology.index() as u64,
        x_bits: x.iter().map(|v| v.to_bits()).collect(),
        spec_id: spec.to_owned(),
        process_hash,
        seed: 0,
    }
    .encode()
}

fn open_service(path: &Path) -> Result<Service, String> {
    Store::open(path)
        .map(Service::new)
        .map_err(|e| format!("open store {}: {e}", path.display()))
}

fn evaluator(spec: &str) -> Evaluator {
    let spec = Spec::all()
        .into_iter()
        .find(|s| s.name == spec)
        .expect("spec of Table I");
    Evaluator::new(spec)
}

/// Replays the first [`EVAL_SAMPLE`] `eval_cold` requests over a fresh
/// store, each beside its layer calls: parse, `EvalHandle::eval` (with
/// `elaborate` beside it), WL fingerprint, encode and `Store::put`. The
/// layer calls must rebuild the exact result bytes `handle_line` served.
pub fn replay_eval_miss(t: &mut Tracer, gen: &EvalCold, dir: &Path) -> Result<(), String> {
    let service = open_service(&dir.join("eval_service.log"))?;
    let mut store = Store::open(dir.join("eval_put.log")).map_err(|e| e.to_string())?;
    let handles: Vec<_> = crate::gen::SPECS
        .iter()
        .map(|s| evaluator(s).into_handle())
        .collect();
    let process_hash = process_fingerprint(handles[0].evaluator());
    let mut wl = WlFeaturizer::new();
    for i in 0..EVAL_SAMPLE {
        let key = gen.key(i);
        let line = key.eval_line(i);
        let handle = &handles[crate::gen::SPECS
            .iter()
            .position(|s| *s == key.spec)
            .expect("known spec")];
        let topology = Topology::from_index(key.topology).map_err(|e| e.to_string())?;
        let values = ParamSpace::for_topology(&topology)
            .decode(&key.x)
            .map_err(|e| e.to_string())?;
        let root = t.open("eval_miss", i, None, false);
        let served = t.time(HANDLE_LINE, i, root, || service.handle_line(&line));
        t.time("serve.json_parse", i, root, || Json::parse(&line))
            .map_err(|e| e.to_string())?;
        let design = t
            .time("sim.eval", i, root, || handle.eval(&topology, &key.x))
            .map_err(|e| format!("eval {i}: {e}"))?;
        let evaluator = handle.evaluator();
        t.beside("circuit.elaborate", i, root, || {
            elaborate(
                &topology,
                &values,
                evaluator.process(),
                evaluator.spec().cl_farads,
            )
        })
        .map_err(|e| e.to_string())?;
        let fingerprint = t.time("graph.wl_fingerprint", i, root, || {
            wl_fingerprint(&mut wl, &topology)
        });
        let result = t.time("serve.encode", i, root, || {
            eval_result_json(&design, fingerprint)
        });
        let store_key = eval_key(key.spec, &topology, &key.x, process_hash);
        t.time("store.put", i, root, || {
            store.put(&store_key, result.as_bytes())
        })
        .map_err(|e| e.to_string())?;
        t.close(root);
        if body(&served) != format!("\"ok\":true,\"result\":{result}}}") {
            return Err(format!(
                "eval {i}: layer calls rebuilt other bytes than handle_line served"
            ));
        }
    }
    Ok(())
}

/// Prefills a fresh store with the `batch_warm` keys through
/// `handle_line`, then replays [`BATCH_SAMPLE`] batches beside parse and
/// one `Store::get` per item.
pub fn replay_batch_hit(t: &mut Tracer, gen: &BatchWarm, dir: &Path) -> Result<(), String> {
    let path = dir.join("batch.log");
    let service = open_service(&path)?;
    for line in gen.prefill_lines() {
        let response = service.handle_line(&line);
        if !body(&response).starts_with("\"ok\":true") || response.contains("{\"error\":") {
            return Err(format!("prefill failed: {response}"));
        }
    }
    // A second handle on the prefilled log, used for reads only.
    let store = Store::open(&path).map_err(|e| e.to_string())?;
    let process_hash = process_fingerprint(&evaluator("S-1"));
    for i in 0..BATCH_SAMPLE {
        let line = gen.line(i);
        let (spec, keys) = gen.batch(i);
        let root = t.open("batch_hit", i, None, false);
        let served = t.time(HANDLE_LINE, i, root, || service.handle_line(&line));
        t.time("serve.json_parse", i, root, || Json::parse(&line))
            .map_err(|e| e.to_string())?;
        for key in keys {
            let topology = Topology::from_index(key.topology).map_err(|e| e.to_string())?;
            let store_key = eval_key(spec, &topology, &key.x, process_hash);
            if t.time("store.get", i, root, || store.get(&store_key))
                .is_none()
            {
                return Err(format!("batch {i}: prefilled key missing"));
            }
        }
        t.close(root);
        if !body(&served).starts_with("\"ok\":true") {
            return Err(format!("batch {i} failed in process: {served}"));
        }
    }
    Ok(())
}

/// Sizing history of one step: `(x, objective)` per successful sim.
type History = Vec<(Vec<f64>, f64)>;

/// Re-runs the sizing BO of `EvalHandle::size_opt` for `topology` with
/// every black-box simulation in a child span of a `bo.sizing` span
/// (beside `core.size_opt`), so the span's self time is the surrogate
/// work. Returns the black-box call count and the history.
fn sizing_split(
    t: &mut Tracer,
    request: u64,
    parent: usize,
    evaluator: &Evaluator,
    topology: &Topology,
    seed: u64,
) -> (usize, History) {
    let space = ParamSpace::for_topology(topology);
    let config = BoConfig {
        n_init: SIZE_INIT,
        n_iter: SIZE_ITER,
        n_candidates: 100,
        seed: seed ^ (topology.index() as u64).wrapping_mul(0x9e37_79b9),
    };
    let anchor = |gm: f64, r: f64, c: f64| -> Vec<f64> {
        space
            .params()
            .iter()
            .map(|p| match p.kind {
                ParamKind::StageGm | ParamKind::Gm => gm,
                ParamKind::Res => r,
                ParamKind::Cap => c,
            })
            .collect()
    };
    let anchors = [
        anchor(0.5, 0.5, 0.5),
        anchor(0.5, 0.5, 0.85),
        anchor(0.25, 0.6, 0.7),
        anchor(0.75, 0.4, 0.6),
    ];
    let spec = *evaluator.spec();
    let span = t.open("bo.sizing", request, Some(parent), true);
    let mut calls = 0;
    let result = maximize_constrained_anchored(space.dim(), &anchors, &config, |x| {
        calls += 1;
        t.time("bo.sizing_sim", request, span, || {
            let values = space.decode(x).ok()?;
            let perf = evaluator.simulate(topology, &values).ok()?;
            let design = evaluator.design_from(*topology, values, perf);
            Some(Observation {
                objective: design.fom.max(1.0).log10(),
                constraints: spec.constraints(&perf),
            })
        })
    });
    t.close(span);
    let history = result
        .history
        .into_iter()
        .map(|(x, o)| (x, o.objective))
        .collect();
    (calls, history)
}

/// Replays one `bo_session` session (client 0, session 0) over a fresh
/// store: every `step` beside a mirrored `BoSession::propose_default`
/// and `EvalHandle::size_opt` on the same inputs, with the sizing BO
/// split into simulation and surrogate time. Then times
/// `GpRegressor::fit`/`predict` on the captured sizing histories.
pub fn replay_session(t: &mut Tracer, gen: &BoSessions, dir: &Path) -> Result<(), String> {
    let service = open_service(&dir.join("session.log"))?;
    let s = gen.session(0, 0);
    let opened = service.handle_line(&gen.open_line(&s, 0));
    if !body(&opened).starts_with("\"ok\":true") {
        return Err(format!("open_session failed in process: {opened}"));
    }
    let handle = evaluator(s.spec).into_handle();
    let spec = *handle.spec();
    let mut mirror = BoSession::new(TopoBoConfig {
        n_init: SESSION_N_INIT,
        n_iter: 0,
        pool_size: SESSION_POOL,
        mutation_fraction: 0.5,
        elite_count: 5,
        wl_levels: 4,
        seed: s.seed,
    });
    let mut histories: Vec<History> = Vec::new();
    for step in 1..=SESSION_STEPS {
        let line = oa_serve::request::step(step, s.id);
        let root = t.open("step", step, None, false);
        let served = t.time(HANDLE_LINE, step, root, || service.handle_line(&line));
        t.time("serve.json_parse", step, root, || Json::parse(&line))
            .map_err(|e| e.to_string())?;
        let proposal = t.time("bo.topo_propose", step, root, || mirror.propose_default());
        let served_topology = Json::parse(&served)
            .ok()
            .and_then(|j| j.get("result")?.get("topology")?.as_u64());
        if proposal.map(|p| p.index() as u64) != served_topology {
            return Err(format!(
                "step {step}: mirrored proposal differs from the served one"
            ));
        }
        if let Some(topology) = proposal {
            let (design, sims) = t.time("core.size_opt", step, root, || {
                handle.size_opt(&topology, s.seed, SIZE_INIT, SIZE_ITER)
            });
            let (calls, history) =
                sizing_split(t, step, root, handle.evaluator(), &topology, s.seed);
            if calls != sims {
                return Err(format!(
                    "step {step}: sizing replay ran {calls} sims, size_opt {sims}"
                ));
            }
            histories.push(history);
            mirror.observe(
                topology,
                design.map(|d| observation_from_perf(&spec, &d.performance)),
            );
        }
        t.close(root);
    }
    let mut rng = Rng::new(s.seed);
    for (h, history) in histories.iter().enumerate() {
        let root = t.open("gp", h as u64, None, false);
        let mut fitted = None;
        for (n, name, _) in GP_FIT_SIZES {
            if history.len() < n {
                break;
            }
            let xs: Vec<Vec<f64>> = history[..n].iter().map(|(x, _)| x.clone()).collect();
            let ys: Vec<f64> = history[..n].iter().map(|(_, y)| *y).collect();
            fitted = t
                .time(name, h as u64, root, || GpRegressor::fit(xs, ys))
                .ok();
        }
        if let (Some(gp), Some((x0, _))) = (fitted, history.first()) {
            let candidates: Vec<Vec<f64>> = (0..PREDICT_POOL)
                .map(|_| (0..x0.len()).map(|_| rng.unit()).collect())
                .collect();
            t.time("gp.rbf_predict", h as u64, root, || {
                candidates
                    .iter()
                    .map(|c| gp.predict(c).map(|(m, _)| m).unwrap_or(0.0))
                    .sum::<f64>()
            });
        }
        t.close(root);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        beside: bool,
    ) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
            beside,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", None, 0, 100, false),
            span("a", Some(0), 10, 30, false),
            span("b", Some(0), 20, 50, false), // overlaps a: 10..50 covered once
            span("c", Some(0), 60, 70, false),
            span("grandchild", Some(3), 61, 69, false), // not a direct child of root
            span("late", Some(0), 90, 120, false),      // clipped to the root's end
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10 - 10);
        assert_eq!(self_time_ns(&spans, 3), 10 - 8);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn coverage_sums_layer_children_over_handle_line() {
        let spans = vec![
            span("eval_miss", None, 0, 1000, false),
            span(HANDLE_LINE, Some(0), 0, 400, false),
            span("serve.json_parse", Some(0), 400, 420, false),
            span("sim.eval", Some(0), 420, 620, false),
            span("circuit.elaborate", Some(0), 620, 660, true),
            span("store.put", Some(0), 660, 800, false),
        ];
        let c = coverage(&spans, 0).unwrap();
        assert!((c - 360.0 / 400.0).abs() < 1e-12, "{c}");
        assert_eq!(coverage(&spans[2..], 0), None);
    }

    #[test]
    fn tracer_medians_and_self_time() {
        let mut t = Tracer::default();
        for i in 0..3 {
            let root = t.open("r", i, None, false);
            t.time("leaf", i, root, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.close(root);
        }
        assert!(t.median_us("leaf") >= 1000.0);
        assert!(t.median_us("r") >= t.median_us("leaf"));
        assert!(t.median_self_us("r") < t.median_us("r"));
        assert!(t.median_children_us("r") >= 1000.0);
    }
}
