//! Workspace lint driver: one analysis engine, SARIF output,
//! diff-aware baseline gating, and wire-schema conformance.
//!
//! Usage:
//!
//! ```text
//! oa_lint [--list-rules] [--timings]
//!         [--sarif=<path>] [--baseline=<path>] [--write-baseline=<path>]
//!         [--explain-discharges] [<workspace-root>]
//! oa_lint callgraph [--dot] [--check] [<workspace-root>]
//! oa_lint wire [--check] [<workspace-root>]
//! ```
//!
//! The lint run parses every first-party file, builds the workspace
//! call graph, settles the summary fixpoint and runs the
//! whole-program rules (panic reachability with value-range
//! discharge, lock-order cycles, determinism taint, the effect rules
//! `nonblocking_event_loop` / `alloc_free_kernel` /
//! `lock_across_blocking`, and the wire-schema conformance rules
//! `wire_*` against `crates/serve/protocol.spec`) alongside the
//! token-shaped rules.
//!
//! * `--sarif=<path>` additionally writes the run as a SARIF 2.1.0 log.
//! * `--baseline=<path>` switches to diff-aware mode: only findings
//!   whose fingerprint is absent from the committed snapshot print and
//!   gate the exit code; pre-existing debt is counted but suppressed.
//! * `--write-baseline=<path>` writes the current fingerprints as the
//!   new snapshot (review the diff before committing it).
//! * `--timings` appends `files=… fns=… edges=… discharged=…
//!   parse_ms=… callgraph_ms=… ranges_ms=… effects_ms=… wire_ms=…
//!   elapsed_ms=…` to the stderr summary, for
//!   `scripts/bench_smoke.sh`.
//! * `--explain-discharges` prints each indexing site the value-range
//!   analysis proved in-bounds, with its evidence.
//!
//! `callgraph` prints the workspace call graph as TSV (or DOT with
//! `--dot`). `--check` instead diffs the TSV against the committed
//! snapshot (`crates/analyze/tests/snapshots/callgraph.tsv`) and
//! verifies the lock-acquisition graph is acyclic — the CI gate.
//!
//! `wire` prints the extracted wire-schema catalogue as TSV (every op
//! the dispatch emits, every routing arm, every kind constant and its
//! read sites, response-field and frame-skeleton rows). `--check`
//! instead diffs it against the committed snapshot
//! (`crates/analyze/tests/snapshots/wire.tsv`) — the CI gate that
//! makes any wire-surface change show up in review as a snapshot
//! diff. Regenerate with `oa_lint wire > <snapshot>`.
//!
//! Scans `crates/*/src/**` under the workspace root (default: the
//! current directory). Findings print one per line in deterministic
//! path/line order; exit status is 1 if any gating rule fired and 0
//! otherwise.

use oa_analyze::callgraph::{CallGraph, Workspace};
use oa_analyze::engine::{self, WireInput};
use oa_analyze::{effects, locks, sarif, wire};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const SNAPSHOT: &str = "crates/analyze/tests/snapshots/callgraph.tsv";
const WIRE_SNAPSHOT: &str = "crates/analyze/tests/snapshots/wire.tsv";
const SPEC_PATH: &str = "crates/serve/protocol.spec";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut callgraph = false;
    let mut wire_cmd = false;
    let mut dot = false;
    let mut check = false;
    let mut timings = false;
    let mut explain_discharges = false;
    let mut sarif_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline_path: Option<PathBuf> = None;
    for arg in args.iter() {
        match arg.as_str() {
            "--list-rules" => {
                for rule in oa_analyze::lint::RULES {
                    println!("{:<22} {}", rule.name, rule.description);
                }
                return ExitCode::SUCCESS;
            }
            "callgraph" => callgraph = true,
            "wire" => wire_cmd = true,
            "--dot" => dot = true,
            "--check" => check = true,
            "--timings" => timings = true,
            "--explain-discharges" => explain_discharges = true,
            other => {
                if let Some(path) = other.strip_prefix("--sarif=") {
                    sarif_path = Some(PathBuf::from(path));
                } else if let Some(path) = other.strip_prefix("--baseline=") {
                    baseline_path = Some(PathBuf::from(path));
                } else if let Some(path) = other.strip_prefix("--write-baseline=") {
                    write_baseline_path = Some(PathBuf::from(path));
                } else if other.starts_with("--") {
                    eprintln!("oa_lint: unknown flag {other:?}");
                    return ExitCode::FAILURE;
                } else {
                    root = PathBuf::from(other);
                }
            }
        }
    }

    let inputs = match read_workspace(&root) {
        Ok(inputs) => inputs,
        Err(msg) => {
            eprintln!("oa_lint: {msg}");
            return ExitCode::FAILURE;
        }
    };

    if callgraph {
        return run_callgraph(&root, &inputs, dot, check);
    }
    if wire_cmd {
        return run_wire(&root, &inputs, check);
    }

    // The wire pass reads the declared protocol; a missing or
    // unreadable spec is itself a finding (`wire_spec`), not an abort.
    let wire_input = WireInput {
        path: SPEC_PATH.to_owned(),
        text: std::fs::read_to_string(root.join(SPEC_PATH)).ok(),
    };

    // lint: allow(wall_clock, CLI timing line, not a response path)
    let started = std::time::Instant::now();
    let report = engine::run_with(&inputs, Some(&wire_input));

    if let Some(path) = &sarif_path {
        if let Err(err) = std::fs::write(path, sarif::to_sarif(&report)) {
            eprintln!("oa_lint: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("oa_lint: wrote SARIF log to {}", path.display());
    }
    if let Some(path) = &write_baseline_path {
        if let Err(err) = std::fs::write(path, sarif::write_baseline(&report.findings)) {
            eprintln!("oa_lint: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "oa_lint: wrote baseline ({} fingerprint(s)) to {}",
            report.findings.len(),
            path.display()
        );
    }
    if explain_discharges {
        for d in &report.discharged {
            println!(
                "{}:{}: [discharged] in {}: {}",
                d.path, d.line, d.fn_qual, d.evidence
            );
        }
    }

    // Diff-aware mode: only findings new relative to the baseline
    // print and gate; pre-existing debt is counted but suppressed.
    let gating: Vec<&oa_analyze::Finding> = match &baseline_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => sarif::diff(&report.findings, &sarif::parse_baseline(&text)),
            Err(err) => {
                eprintln!("oa_lint: cannot read baseline {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => report.findings.iter().collect(),
    };
    for finding in &gating {
        println!("{finding}");
    }

    let timing = if timings {
        let t = &report.timings;
        format!(
            " (files={} fns={} edges={} discharged={} \
             parse_ms={} callgraph_ms={} ranges_ms={} effects_ms={} wire_ms={} elapsed_ms={})",
            report.files,
            report.fns,
            report.edges,
            report.discharged.len(),
            t.parse_ms,
            t.callgraph_ms,
            t.ranges_ms,
            t.effects_ms,
            t.wire_ms,
            started.elapsed().as_millis()
        )
    } else {
        String::new()
    };
    if gating.is_empty() {
        let suppressed = report.findings.len();
        if baseline_path.is_some() && suppressed > 0 {
            eprintln!("oa_lint: clean vs baseline ({suppressed} pre-existing suppressed){timing}");
        } else {
            eprintln!("oa_lint: clean{timing}");
        }
        ExitCode::SUCCESS
    } else if baseline_path.is_some() {
        let suppressed = report.findings.len() - gating.len();
        eprintln!(
            "oa_lint: {} new finding(s) vs baseline ({suppressed} pre-existing suppressed){timing}",
            gating.len()
        );
        ExitCode::FAILURE
    } else {
        eprintln!("oa_lint: {} finding(s){timing}", gating.len());
        ExitCode::FAILURE
    }
}

/// The `wire` subcommand: dump the extracted wire-schema catalogue as
/// TSV, or `--check` it against the committed snapshot.
fn run_wire(root: &Path, inputs: &[(String, String)], check: bool) -> ExitCode {
    let ws = Workspace::parse(inputs);
    let tsv = wire::render_tsv(&wire::extract(&ws));
    if !check {
        print!("{tsv}");
        return ExitCode::SUCCESS;
    }
    let snap_path = root.join(WIRE_SNAPSHOT);
    match std::fs::read_to_string(&snap_path) {
        Ok(snap) if snap == tsv => {
            eprintln!(
                "oa_lint: wire catalogue matches snapshot ({} row(s))",
                tsv.lines().count() - 1
            );
            ExitCode::SUCCESS
        }
        Ok(snap) => {
            eprintln!(
                "oa_lint: wire catalogue drifted from snapshot ({} rows now, {} in snapshot);\n\
                 regenerate with `oa_lint wire > {WIRE_SNAPSHOT}` and review the diff",
                tsv.lines().count() - 1,
                snap.lines().count() - 1
            );
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("oa_lint: cannot read {}: {err}", snap_path.display());
            ExitCode::FAILURE
        }
    }
}

/// The `callgraph` subcommand: dump TSV/DOT, or `--check` against the
/// snapshot + lock-graph acyclicity.
fn run_callgraph(root: &Path, inputs: &[(String, String)], dot: bool, check: bool) -> ExitCode {
    let ws = Workspace::parse(inputs);
    let graph = CallGraph::build(&ws);
    if check {
        let tsv = graph.to_tsv();
        let snap_path = root.join(SNAPSHOT);
        let mut ok = true;
        match std::fs::read_to_string(&snap_path) {
            Ok(snap) if snap == tsv => {
                eprintln!(
                    "oa_lint: callgraph matches snapshot ({} lines)",
                    tsv.lines().count()
                );
            }
            Ok(snap) => {
                ok = false;
                eprintln!(
                    "oa_lint: callgraph drifted from snapshot ({} lines now, {} in snapshot);\n\
                     regenerate with `oa_lint callgraph > {SNAPSHOT}` and review the diff",
                    tsv.lines().count(),
                    snap.lines().count()
                );
            }
            Err(err) => {
                ok = false;
                eprintln!("oa_lint: cannot read {}: {err}", snap_path.display());
            }
        }
        let lock_graph = locks::lock_graph(&graph, &effects::summarize(&graph).effects);
        let cycles = lock_graph.cycles();
        if cycles.is_empty() {
            eprintln!(
                "oa_lint: lock graph acyclic ({} ordered pair(s))",
                lock_graph.edges.len()
            );
        } else {
            ok = false;
            for cycle in &cycles {
                let names: Vec<&str> = cycle.iter().map(|(a, _)| a.as_str()).collect();
                eprintln!("oa_lint: lock cycle: {}", names.join(" -> "));
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if dot {
        print!("{}", graph.to_dot());
    } else {
        print!("{}", graph.to_tsv());
    }
    ExitCode::SUCCESS
}

/// Reads every first-party `.rs` file under `<root>/crates/*/src/`
/// into `(workspace-relative path, source)` pairs.
fn read_workspace(root: &Path) -> Result<Vec<(String, String)>, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "no crates/ directory under {}; run from the workspace root",
            root.display()
        ));
    }
    let mut files = Vec::new();
    for krate in sorted_dirs(&crates_dir) {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files);
        }
    }
    files.sort();
    let mut inputs = Vec::new();
    for path in &files {
        let source = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
        inputs.push((relative_to(path, root), source));
    }
    Ok(inputs)
}

/// Immediate subdirectories of `dir`, sorted by name for deterministic
/// output across filesystems.
fn sorted_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Recursively collects `.rs` files under `dir` (which is always a
/// crate `src/` tree, so no skip-list is needed below it).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative display path with forward slashes (the form
/// `lint::scope_of` keys on).
fn relative_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
