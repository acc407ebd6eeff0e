//! Determinism taint: dataflow from unordered-collection iteration to
//! serialization sinks.
//!
//! The hazard is a value derived from `HashMap`/`HashSet` *iteration
//! order* reaching bytes a client can observe; a map used only for
//! lookups is fine anywhere. Sources are iteration
//! methods (`iter`, `keys`, `values`, `drain`, …) on receivers whose
//! type resolves to an unordered collection, and `for`-loops over
//! them; sinks are formatting macros (`format!`, `write!`, …) and
//! string/stream-building methods (`push_str`, `write_all`, …);
//! sorting a tainted value (or collecting it into a `BTreeMap`/
//! `BTreeSet`-typed binding) sanitizes it.
//!
//! Propagation is statement-granular: any tainted identifier read by a
//! statement taints the statement's bindings. Interprocedural flows go
//! through per-function summaries (does it *introduce* taint to its
//! return value, *pass* input taint to its return value, or *sink* its
//! inputs?) settled by the summary fixpoint of [`crate::effects`], so
//! a helper that formats a map leaks through two call layers. Each
//! finding prints the source → sink flow chain. A `determinism`
//! annotation on the source or sink line waives that flow.

use crate::ast::{is_unordered_collection, type_head, Block, CallTarget, Event, StmtPart};
use crate::callgraph::{CallGraph, TypeEnv};
use crate::lint::{is_allowed, Allowed, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Iteration methods whose order is the hazard.
const SOURCE_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Formatting/serialization macro sinks.
const SINK_MACROS: &[&str] = &[
    "format", "write", "writeln", "print", "println", "eprint", "eprintln",
];

/// Byte/string-building method sinks.
const SINK_METHODS: &[&str] = &["push_str", "write_all", "write_fmt", "extend_from_slice"];

/// Where taint came from.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Origin {
    /// Iteration of an unordered collection at a concrete site.
    Internal { file: String, line: u32 },
    /// A caller's argument (used while computing summaries).
    Param,
}

/// A tainted value: its origin plus the statement lines it flowed
/// through (capped, for readable diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Taint {
    origin: Origin,
    hops: Vec<u32>,
}

impl Taint {
    fn hop(&self, line: u32) -> Taint {
        let mut t = self.clone();
        if t.hops.len() < 8 && t.hops.last() != Some(&line) {
            t.hops.push(line);
        }
        t
    }
}

/// What a function does with taint, as seen from call sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    /// Returns a value tainted by its own internal source.
    introduces: Option<(String, u32)>,
    /// Passes tainted inputs through to its return value.
    taints_return: bool,
    /// Feeds tainted inputs into a sink at `(file, line)`.
    sinks_inputs: Option<(String, u32)>,
}

/// Every function's taint summary, plus the flows its body exposes
/// under the current callee summaries.
pub struct TaintSummaries {
    summaries: Vec<Summary>,
    flows: Vec<Vec<Flow>>,
}

impl TaintSummaries {
    /// Empty summaries for `n` call-graph nodes.
    pub(crate) fn new(n: usize) -> TaintSummaries {
        TaintSummaries {
            summaries: vec![Summary::default(); n],
            flows: std::iter::repeat_with(Vec::new).take(n).collect(),
        }
    }

    /// Re-scans node `id` under the current callee summaries; returns
    /// whether its summary changed. Once a whole round changes nothing,
    /// every node's flows are those of the final summaries.
    pub(crate) fn update(&mut self, graph: &CallGraph<'_>, id: usize) -> bool {
        let (summary, flows) = analyze_fn(graph, id, &self.summaries);
        self.flows[id] = flows;
        let changed = summary != self.summaries[id];
        self.summaries[id] = summary;
        changed
    }

    /// Reports every flow not waived by a `determinism` annotation at
    /// its source or sink, once per `(sink, source line)`.
    pub fn check(&self, allowed: &Allowed) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut seen = BTreeSet::new();
        for flow in self.flows.iter().flatten() {
            if is_allowed(allowed, &flow.src_file, "determinism", flow.src_line)
                || is_allowed(allowed, &flow.sink_file, "determinism", flow.sink_line)
            {
                continue;
            }
            if !seen.insert((flow.sink_file.clone(), flow.sink_line, flow.src_line)) {
                continue;
            }
            let src_base = flow.src_file.rsplit('/').next().unwrap_or("").to_owned();
            let mut chain = format!("{src_base}:{}", flow.src_line);
            for hop in &flow.hops {
                chain.push_str(&format!(" -> :{hop}"));
            }
            findings.push(Finding {
                path: flow.sink_file.clone(),
                line: flow.sink_line,
                rule: "determinism",
                message: format!(
                    "HashMap/HashSet iteration order flows to a serialization sink \
                     ({} -> sink at {}:{})",
                    chain,
                    flow.sink_file.rsplit('/').next().unwrap_or(""),
                    flow.sink_line
                ),
            });
        }
        findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
        findings
    }
}

/// One concrete source→sink flow.
struct Flow {
    src_file: String,
    src_line: u32,
    hops: Vec<u32>,
    sink_file: String,
    sink_line: u32,
}

struct FnScan<'g, 'w> {
    graph: &'g CallGraph<'w>,
    env: &'g TypeEnv,
    file: String,
    fn_id: usize,
    summaries: &'g [Summary],
    tainted: BTreeMap<String, Taint>,
    flows: Vec<Flow>,
    summary: Summary,
}

fn analyze_fn(graph: &CallGraph<'_>, id: usize, summaries: &[Summary]) -> (Summary, Vec<Flow>) {
    let def = graph.def(id);
    let Some(body) = &def.body else {
        return (Summary::default(), Vec::new());
    };
    let mut scan = FnScan {
        graph,
        env: graph.type_env(id),
        file: graph.file(id).path.clone(),
        fn_id: id,
        summaries,
        tainted: BTreeMap::new(),
        flows: Vec::new(),
        summary: Summary::default(),
    };
    for p in &def.params {
        scan.tainted.insert(
            p.name.clone(),
            Taint {
                origin: Origin::Param,
                hops: Vec::new(),
            },
        );
    }
    scan_block(&mut scan, body);
    (scan.summary, scan.flows)
}

fn scan_block(scan: &mut FnScan<'_, '_>, block: &Block) {
    for stmt in &block.stmts {
        // Incoming taint: tainted identifiers this statement reads.
        let incoming: Vec<Taint> = stmt
            .reads
            .iter()
            .filter_map(|r| scan.tainted.get(r))
            .cloned()
            .collect();
        let mut effective: Vec<Taint> = incoming;
        let mut sinks: Vec<u32> = Vec::new();
        let mut sanitize: Vec<String> = Vec::new();
        // Nested blocks are scanned *after* bind propagation so a loop
        // body sees its header's tainted bindings (`for k in &map`).
        let mut nested: Vec<&Block> = Vec::new();
        for part in &stmt.parts {
            match part {
                StmtPart::Block(b) => nested.push(b),
                StmtPart::Event(Event::Call(call)) => match &call.target {
                    CallTarget::Method { name, recv } => {
                        if SOURCE_METHODS.contains(&name.as_str()) {
                            if let Some(ty) = scan.graph.resolve_chain(scan.env, recv) {
                                if is_unordered_collection(&ty) {
                                    effective.push(Taint {
                                        origin: Origin::Internal {
                                            file: scan.file.clone(),
                                            line: call.line,
                                        },
                                        hops: Vec::new(),
                                    });
                                }
                            }
                        } else if name.starts_with("sort") {
                            if let Some(root) = recv.split('.').next() {
                                sanitize.push(root.to_owned());
                            }
                        } else if SINK_METHODS.contains(&name.as_str()) {
                            sinks.push(call.line);
                        } else {
                            call_effects(scan, call.line, &mut effective);
                        }
                    }
                    CallTarget::Free { .. } => {
                        call_effects(scan, call.line, &mut effective);
                    }
                    CallTarget::Macro { name } => {
                        if SINK_MACROS.contains(&name.as_str()) {
                            sinks.push(call.line);
                        }
                    }
                },
                StmtPart::Event(_) => {}
            }
        }
        // Sinks fire on everything tainted in the statement (sources
        // and calls included, regardless of token order inside it).
        for sink_line in &sinks {
            for t in &effective {
                emit_flow(scan, t, scan.file.clone(), *sink_line);
            }
        }
        // Propagate into this statement's bindings; a binding declared
        // as an ordered collection is a sanitizer (sorted collect).
        if !effective.is_empty() {
            // One taint per binding; a concrete internal source wins
            // over ambient parameter taint — it is the kind that turns
            // into a finding rather than a summary bit.
            let rep = effective
                .iter()
                .find(|t| matches!(t.origin, Origin::Internal { .. }))
                .unwrap_or(&effective[0])
                .hop(stmt.line);
            for bind in &stmt.binds {
                let ordered = scan
                    .env
                    .vars
                    .get(bind)
                    .is_some_and(|ty| matches!(type_head(ty), "BTreeMap" | "BTreeSet"));
                if !ordered {
                    scan.tainted.insert(bind.clone(), rep.clone());
                }
            }
            if stmt.is_return {
                for t in &effective {
                    match &t.origin {
                        Origin::Param => scan.summary.taints_return = true,
                        Origin::Internal { file, line } => {
                            if scan.summary.introduces.is_none() {
                                scan.summary.introduces = Some((file.clone(), *line));
                            }
                        }
                    }
                }
            }
        }
        for b in nested {
            scan_block(scan, b);
        }
        for var in sanitize {
            scan.tainted.remove(&var);
        }
    }
}

/// Applies callee summaries at a call site: callees that introduce
/// taint add it; callees that sink their inputs fire flows when the
/// statement carries taint; callees that pass taint keep it flowing.
fn call_effects(scan: &mut FnScan<'_, '_>, line: u32, effective: &mut Vec<Taint>) {
    let callees: Vec<usize> = scan.graph.edges[scan.fn_id]
        .iter()
        .filter(|e| e.line == line)
        .map(|e| e.callee)
        .collect();
    for callee in callees {
        let summary = scan.summaries[callee].clone();
        if let Some((file, src_line)) = &summary.introduces {
            effective.push(Taint {
                origin: Origin::Internal {
                    file: file.clone(),
                    line: *src_line,
                },
                hops: vec![line],
            });
        }
        if let Some((sink_file, sink_line)) = &summary.sinks_inputs {
            let inputs: Vec<Taint> = effective
                .iter()
                .filter(|t| t.hops.last() != Some(&line) || t.origin == Origin::Param)
                .cloned()
                .collect();
            for t in &inputs {
                let hopped = t.hop(line);
                emit_flow(scan, &hopped, sink_file.clone(), *sink_line);
            }
        }
        // taints_return: the statement-level propagation below already
        // keeps `effective` flowing into the binds, which is exactly
        // the pass-through behavior — nothing extra to do.
    }
}

fn emit_flow(scan: &mut FnScan<'_, '_>, taint: &Taint, sink_file: String, sink_line: u32) {
    match &taint.origin {
        Origin::Internal { file, line } => scan.flows.push(Flow {
            src_file: file.clone(),
            src_line: *line,
            hops: taint.hops.clone(),
            sink_file,
            sink_line,
        }),
        Origin::Param => {
            if scan.summary.sinks_inputs.is_none() {
                scan.summary.sinks_inputs = Some((sink_file, sink_line));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let inputs: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect();
        let ws = Workspace::parse(&inputs);
        let graph = CallGraph::build(&ws);
        let mut allowed = Allowed::new();
        for (path, src) in &inputs {
            let (rules, _) = crate::lint::annotations_of(path, src);
            allowed.insert(path.clone(), rules);
        }
        crate::effects::summarize(&graph).taint.check(&allowed)
    }

    #[test]
    fn map_keys_into_format_is_a_flow() {
        let f = run(&[(
            "crates/serve/src/a.rs",
            r#"
            fn render(m: &HashMap<String, u32>) -> String {
                let names: Vec<&String> = m.keys().collect();
                format!("{names:?}")
            }
            "#,
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "determinism");
        assert!(f[0].message.contains("a.rs:3"), "{}", f[0].message);
    }

    #[test]
    fn sorted_keys_are_clean() {
        let f = run(&[(
            "crates/serve/src/a.rs",
            r#"
            fn render(m: &HashMap<String, u32>) -> String {
                let mut names: Vec<&String> = m.keys().collect();
                names.sort();
                format!("{names:?}")
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn btree_collect_is_clean() {
        let f = run(&[(
            "crates/serve/src/a.rs",
            r#"
            fn render(m: &HashMap<String, u32>) -> String {
                let sorted: BTreeMap<&String, &u32> = m.iter().collect();
                format!("{sorted:?}")
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn for_loop_over_map_taints_the_bindings() {
        let f = run(&[(
            "crates/serve/src/a.rs",
            r#"
            fn render(m: &HashMap<String, u32>, out: &mut String) {
                for k in &m {
                    out.push_str(k);
                }
            }
            "#,
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn interprocedural_flow_through_a_helper_is_found() {
        let f = run(&[(
            "crates/serve/src/a.rs",
            r#"
            fn keys_of(m: &HashMap<String, u32>) -> Vec<&String> {
                m.keys().collect()
            }
            fn render(m: &HashMap<String, u32>) -> String {
                let ks = keys_of(m);
                format!("{ks:?}")
            }
            "#,
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("a.rs:3"),
            "source site: {}",
            f[0].message
        );
    }

    #[test]
    fn sink_inside_a_helper_is_found_from_the_caller() {
        let f = run(&[(
            "crates/serve/src/a.rs",
            r#"
            fn emit(vals: &[u32], out: &mut String) {
                out.push_str(&format!("{vals:?}"));
            }
            fn render(m: &HashMap<String, u32>, out: &mut String) {
                let vals: Vec<u32> = m.values().copied().collect();
                emit(&vals, out);
            }
            "#,
        )]);
        assert!(!f.is_empty(), "{f:?}");
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let f = run(&[(
            "crates/serve/src/a.rs",
            r#"
            fn render(m: &BTreeMap<String, u32>) -> String {
                let names: Vec<&String> = m.keys().collect();
                format!("{names:?}")
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn annotation_at_the_sink_waives_the_flow() {
        let f = run(&[(
            "crates/serve/src/a.rs",
            r#"
            fn render(m: &HashMap<String, u32>) -> String {
                let names: Vec<&String> = m.keys().collect();
                // lint: allow(determinism, debug log only, never served)
                format!("{names:?}")
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lookup_only_maps_are_clean() {
        let f = run(&[(
            "crates/serve/src/a.rs",
            r#"
            fn get(m: &HashMap<String, u32>, k: &str) -> String {
                let v = m.get(k).copied().unwrap_or(0);
                format!("{v}")
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
