//! Pins the exact arithmetic of both BO loops: every history point of
//! real 10+30 sizing runs (S-1..S-5), of synthetic black boxes built to
//! hit the surrogate's edge cases, and of `topology_bo` on a toy oracle
//! is written as hex `f64` bits to `tests/snapshots/sizing_trajectories.txt`.
//! Any change to the GP or acquisition arithmetic — a reordered sum, a
//! different factorization order — shows up as a diff. Regenerate with:
//!
//! ```text
//! OA_REGEN_SNAPSHOT=1 cargo test -p into-oa --test sizing_trajectories
//! ```

use std::fmt::Write as _;
use std::path::Path;

use into_oa::{literature, Evaluator, Spec};
use oa_bo::{
    maximize_constrained_anchored, topology_bo, BoConfig, Observation, TopoBoConfig,
    TopoObservation,
};
use oa_circuit::{ParamKind, ParamSpace, Topology, VariableEdge};

const SNAPSHOT: &str = "tests/snapshots/sizing_trajectories.txt";

fn bits(v: &[f64]) -> String {
    let hex: Vec<String> = v.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
    hex.join(",")
}

fn write_history(out: &mut String, label: &str, history: &[(Vec<f64>, Observation)]) {
    writeln!(out, "{label} n={}", history.len()).unwrap();
    for (k, (x, obs)) in history.iter().enumerate() {
        writeln!(
            out,
            "  {k:02} x={} f={:016x} c={}",
            bits(x),
            obs.objective.to_bits(),
            bits(&obs.constraints)
        )
        .unwrap();
    }
}

/// The sizing black box of `Evaluator::size`: decode, simulate, score.
fn real_runs(out: &mut String) {
    let topologies = [
        literature::c1(),
        literature::r1(),
        literature::c2(),
        literature::r2(),
        Topology::bare_cascade(),
        Topology::from_index(1_234).unwrap(),
        Topology::from_index(17_777).unwrap(),
        Topology::from_index(30_000).unwrap(),
    ];
    for spec in Spec::all() {
        let evaluator = Evaluator::new(spec);
        for (i, topology) in topologies.iter().enumerate() {
            let space = ParamSpace::for_topology(topology);
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
            let config = BoConfig {
                n_init: 10,
                n_iter: 30,
                n_candidates: 100,
                seed: 11 + i as u64 * 7,
            };
            let result = maximize_constrained_anchored(space.dim(), &anchors, &config, |x| {
                let values = space.decode(x).ok()?;
                let perf = evaluator.simulate(topology, &values).ok()?;
                let design = evaluator.design_from(*topology, values, perf);
                Some(Observation {
                    objective: design.fom.max(1.0).log10(),
                    constraints: spec.constraints(&perf),
                })
            });
            let label = format!(
                "real {} topology={} dim={} seed={}",
                spec.name,
                topology.index(),
                space.dim(),
                config.seed
            );
            write_history(out, &label, &result.history);
        }
    }
}

type BlackBox = fn(&[f64]) -> Option<Observation>;

fn sphere(x: &[f64]) -> Option<Observation> {
    let d2: f64 = x.iter().map(|v| (v - 0.6) * (v - 0.6)).sum();
    Some(Observation {
        objective: -d2,
        constraints: vec![x[0] - 0.9, 0.2 - x[x.len() - 1]],
    })
}

/// Optimum on the cube's corner: clamped perturbations land exactly on
/// the boundary again and again, so the design carries duplicate rows.
fn corner(x: &[f64]) -> Option<Observation> {
    Some(Observation {
        objective: x.iter().sum(),
        constraints: vec![],
    })
}

/// Quantized inputs: a flat objective on a lattice, many exact ties.
fn staircase(x: &[f64]) -> Option<Observation> {
    let q: f64 = x.iter().map(|v| (v * 4.0).floor()).sum();
    Some(Observation {
        objective: q,
        constraints: vec![1.5 - q, (x[0] * 3.0).floor() - 2.0],
    })
}

fn constant(_: &[f64]) -> Option<Observation> {
    Some(Observation {
        objective: 2.5,
        constraints: vec![-1.0, 0.5],
    })
}

/// A non-finite target in part of the cube makes every fit fail while it
/// is in the history, forcing the random-proposal fallback.
fn poisoned(x: &[f64]) -> Option<Observation> {
    let objective = if x[0] > 0.8 {
        f64::NAN
    } else {
        (5.0 * x[0]).sin()
    };
    Some(Observation {
        objective,
        constraints: vec![x[0] - 0.7],
    })
}

/// Failing evaluations are dropped from the history.
fn flaky(x: &[f64]) -> Option<Observation> {
    if x[0] < 0.3 {
        return None;
    }
    Some(Observation {
        objective: (3.0 * x[0]).cos() + x.iter().skip(1).sum::<f64>(),
        constraints: vec![0.4 - x[0]],
    })
}

/// Wide dynamic range: objective spans ~12 decades.
fn steep(x: &[f64]) -> Option<Observation> {
    let s: f64 = x.iter().sum::<f64>() / x.len() as f64;
    Some(Observation {
        objective: (28.0 * s).exp(),
        constraints: vec![1e6 * (s - 0.8), -1e-9 * s],
    })
}

fn synthetic_runs(out: &mut String) {
    let boxes: [(&str, BlackBox); 7] = [
        ("sphere", sphere),
        ("corner", corner),
        ("staircase", staircase),
        ("constant", constant),
        ("poisoned", poisoned),
        ("flaky", flaky),
        ("steep", steep),
    ];
    for (name, black_box) in boxes {
        for dim in [1usize, 2, 5] {
            for seed in [3u64, 8] {
                // Duplicate anchors put identical rows into the first
                // Gram matrix for the odd seed.
                let anchors: Vec<Vec<f64>> = if seed % 2 == 0 {
                    vec![vec![0.5; dim]; 3]
                } else {
                    Vec::new()
                };
                let config = BoConfig {
                    n_init: 5,
                    n_iter: 15,
                    n_candidates: 40,
                    seed,
                };
                let result = maximize_constrained_anchored(dim, &anchors, &config, black_box);
                let label = format!("synthetic {name} dim={dim} seed={seed}");
                write_history(out, &label, &result.history);
            }
        }
    }
}

fn toy_oracle(t: &Topology) -> Option<TopoObservation> {
    let comp = !t.type_on(VariableEdge::V1Vout).is_no_conn();
    let score = t.connected_count() as f64 + if comp { 2.5 } else { 0.0 };
    if t.index().is_multiple_of(11) {
        return None;
    }
    Some(TopoObservation {
        objective: score,
        constraints: vec![if comp { -1.0 } else { 1.0 }, (t.index() % 7) as f64 - 3.0],
        metrics: vec![],
    })
}

fn topology_runs(out: &mut String) {
    for seed in [0u64, 5, 9] {
        let config = TopoBoConfig {
            n_init: 6,
            n_iter: 14,
            pool_size: 40,
            seed,
            ..TopoBoConfig::default()
        };
        let result = topology_bo(&config, toy_oracle);
        writeln!(out, "topology seed={seed} n={}", result.history.len()).unwrap();
        for (k, r) in result.history.iter().enumerate() {
            writeln!(
                out,
                "  {k:02} t={} f={:016x} c={}",
                r.topology.index(),
                r.observation.objective.to_bits(),
                bits(&r.observation.constraints)
            )
            .unwrap();
        }
    }
}

#[test]
fn bo_histories_match_snapshot() {
    let mut out = String::new();
    real_runs(&mut out);
    synthetic_runs(&mut out);
    topology_runs(&mut out);

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(SNAPSHOT);
    if std::env::var_os("OA_REGEN_SNAPSHOT").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let snapshot = std::fs::read_to_string(&path).unwrap_or_default();
    if snapshot != out {
        let diff: Vec<String> = snapshot
            .lines()
            .zip(out.lines())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .take(20)
            .map(|(i, (a, b))| format!("line {}:\n-{a}\n+{b}", i + 1))
            .collect();
        panic!(
            "BO histories drifted from the snapshot ({} vs {} lines); \
             regenerate with OA_REGEN_SNAPSHOT=1 only for an intended \
             arithmetic change\n{}",
            snapshot.lines().count(),
            out.lines().count(),
            diff.join("\n")
        );
    }
}
