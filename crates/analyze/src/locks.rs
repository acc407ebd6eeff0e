//! Lock-order deadlock detection over an interprocedural
//! lock-acquisition graph.
//!
//! A deadlock needs two threads acquiring the same locks in different
//! orders. The analysis builds a directed graph whose nodes are *lock
//! classes* and whose edge `A → B` means "somewhere, `B` is acquired
//! while `A` is held" — directly in one function, or transitively: a
//! call made while holding `A` reaches a function that may acquire
//! `B`. A cycle in that graph is a potential deadlock and is rejected.
//!
//! **Lock classes.** A lock stored in a struct field gets the
//! workspace-global class `Type.field` (`Service.store`) — the same
//! field reached through any receiver chain is one lock. A lock that
//! is only visible as a parameter or local gets a function-qualified
//! class (`worker_loop#rx`): distinct classes per function, an
//! under-approximation for locks passed across calls (DESIGN.md §10).
//!
//! **Guard scopes.** `let g = x.lock()…;` holds to the end of the
//! enclosing block or an explicit `drop(g)`; any other acquisition
//! (a temporary like `x.lock().unwrap().push(..)`, or a `match
//! x.lock()` scrutinee) holds to the end of its statement. The parser
//! marks the former via [`Stmt::guard_bind`](crate::ast::Stmt) and
//! refuses the marking when control flow intervenes, so `match`-arm
//! temporaries are never over-extended.
//!
//! **One walker.** `walk_guards` tracks the live guards of one body
//! and feeds two consumers: [`lock_graph`] here, and the effect rule
//! `lock_across_blocking` ([`crate::effects`]). The transitive lock
//! classes a call may acquire come from the effect summary.

use crate::ast::{Block, CallSite, CallTarget, Event, StmtPart};
use crate::callgraph::{CallGraph, TypeEnv};
use crate::effects::Effects;
use crate::lint::{is_allowed, Allowed, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Where a lock-order edge was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeOrigin {
    /// File of the acquisition (or call) that created the edge.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable context (`in Service::handle_line`, possibly
    /// `via call to Store::put`).
    pub via: String,
}

/// The lock-acquisition order graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `(held, acquired)` → first observed origin.
    pub edges: BTreeMap<(String, String), EdgeOrigin>,
}

/// Classifies a method event as a lock acquisition, returning the lock
/// class. `read`/`write` require a receiver that provably resolves to
/// `RwLock` (they are common io method names); `lock` also accepts an
/// unresolvable receiver, classed per-function (opaque). Shared with
/// the effect inference (`AcquiresLock` seeding and the
/// `lock_across_blocking` held-set walk).
pub(crate) fn acquisition_class(
    graph: &CallGraph<'_>,
    env: &TypeEnv,
    fn_qual: &str,
    name: &str,
    recv: &str,
) -> Option<String> {
    if !matches!(name, "lock" | "read" | "write") {
        return None;
    }
    match graph.resolve_chain(env, recv) {
        Some(ty) => {
            let head = crate::ast::deref_head(&ty);
            let is_lock = match name {
                "lock" => head == "Mutex",
                _ => head == "RwLock",
            };
            if !is_lock {
                return None;
            }
            if let Some((owner, field)) = graph.resolve_field_owner(env, recv) {
                Some(format!("{owner}.{field}"))
            } else {
                Some(format!("{fn_qual}#{recv}"))
            }
        }
        // `.lock()` strongly implies a mutex even when the receiver
        // type is unknown (match-bound vars, Arc locals without
        // generics evidence); `.read()`/`.write()` do not.
        None if name == "lock" => {
            let tag = if recv.is_empty() { "<expr>" } else { recv };
            Some(format!("{fn_qual}#{tag}"))
        }
        None => None,
    }
}

/// One lock guard live at some point of [`walk_guards`].
pub(crate) struct Held {
    /// Lock class (see [`acquisition_class`]).
    pub(crate) class: String,
    guard_var: Option<String>,
    stmt_scoped: bool,
    block_level: usize,
}

/// What [`walk_guards`] hands its visitor, with the guards live at
/// that point.
pub(crate) enum GuardStep<'a> {
    /// A lock acquisition (not yet among the live guards).
    Acquire {
        /// The acquired lock class.
        class: &'a str,
        /// 1-based line.
        line: u32,
    },
    /// Any other call.
    Call(&'a CallSite),
}

/// Walks the body of node `id` in order, tracking live guards (see
/// the module doc for their scopes), and calls `visit` at every lock
/// acquisition and every other call.
pub(crate) fn walk_guards(
    graph: &CallGraph<'_>,
    id: usize,
    visit: &mut impl FnMut(&[Held], GuardStep<'_>),
) {
    let def = graph.def(id);
    let Some(body) = &def.body else { return };
    let walk = GuardWalk {
        graph,
        env: graph.type_env(id),
        fn_qual: &def.qual,
    };
    walk.block(body, &mut Vec::new(), 0, visit);
}

/// Per-function context of [`walk_guards`].
struct GuardWalk<'a, 'w> {
    graph: &'a CallGraph<'w>,
    env: &'a TypeEnv,
    fn_qual: &'a str,
}

impl GuardWalk<'_, '_> {
    fn block(
        &self,
        block: &Block,
        held: &mut Vec<Held>,
        level: usize,
        visit: &mut impl FnMut(&[Held], GuardStep<'_>),
    ) {
        for stmt in &block.stmts {
            let mut first_acquisition = true;
            for part in &stmt.parts {
                match part {
                    StmtPart::Block(b) => self.block(b, held, level + 1, visit),
                    StmtPart::Event(Event::DropVar { name, .. }) => {
                        held.retain(|h| h.guard_var.as_deref() != Some(name));
                    }
                    StmtPart::Event(Event::Call(call)) => {
                        let class = match &call.target {
                            CallTarget::Method { name, recv } => {
                                acquisition_class(self.graph, self.env, self.fn_qual, name, recv)
                            }
                            _ => None,
                        };
                        let Some(class) = class else {
                            visit(held, GuardStep::Call(call));
                            continue;
                        };
                        visit(
                            held,
                            GuardStep::Acquire {
                                class: &class,
                                line: call.line,
                            },
                        );
                        let is_guard = stmt.guard_bind.is_some() && first_acquisition;
                        first_acquisition = false;
                        held.push(Held {
                            class,
                            guard_var: if is_guard {
                                stmt.guard_bind.clone()
                            } else {
                                None
                            },
                            stmt_scoped: !is_guard,
                            block_level: level,
                        });
                    }
                    StmtPart::Event(
                        Event::Index { .. } | Event::Guard { .. } | Event::Str { .. },
                    ) => {}
                }
            }
            // Statement temporaries die here (only this level's — an
            // outer statement still in progress keeps its temporaries).
            held.retain(|h| !(h.stmt_scoped && h.block_level == level));
        }
        held.retain(|h| h.block_level != level);
    }
}

/// Builds the lock graph for the whole workspace: `held → acquired`
/// for every acquisition made while a guard is live, and `held →`
/// every class a callee may acquire (from `eff`) for every call made
/// while one is. The first origin observed for an edge is kept.
pub fn lock_graph(graph: &CallGraph<'_>, eff: &Effects) -> LockGraph {
    let mut edges: BTreeMap<(String, String), EdgeOrigin> = BTreeMap::new();
    for id in 0..graph.nodes.len() {
        let fn_qual = &graph.def(id).qual;
        let file = &graph.file(id).path;
        let mut record = |from: &str, to: &str, line: u32, via: String| {
            if from != to {
                edges
                    .entry((from.to_owned(), to.to_owned()))
                    .or_insert(EdgeOrigin {
                        file: file.clone(),
                        line,
                        via,
                    });
            }
        };
        walk_guards(graph, id, &mut |held, step| match step {
            GuardStep::Acquire { class, line } => {
                for h in held {
                    record(&h.class, class, line, format!("in {fn_qual}"));
                }
            }
            GuardStep::Call(call) if !matches!(call.target, CallTarget::Macro { .. }) => {
                for e in graph.edges[id].iter().filter(|e| e.line == call.line) {
                    let callee = &graph.def(e.callee).qual;
                    for h in held {
                        for class in &eff.locks[e.callee] {
                            let via = format!("in {fn_qual} via call to {callee}");
                            record(&h.class, class, call.line, via);
                        }
                    }
                }
            }
            GuardStep::Call(_) => {}
        });
    }
    LockGraph { edges }
}

impl LockGraph {
    /// All elementary cycles found by DFS, each as the ordered list of
    /// its edges, deduplicated by normalized rotation. Deterministic.
    pub fn cycles(&self) -> Vec<Vec<(String, String)>> {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (from, to) in self.edges.keys() {
            adj.entry(from).or_default().push(to);
        }
        let mut found: BTreeSet<Vec<(String, String)>> = BTreeSet::new();
        let nodes: Vec<&str> = adj.keys().copied().collect();
        for start in nodes {
            let mut stack: Vec<&str> = vec![start];
            let mut on_stack: BTreeSet<&str> = [start].into();
            dfs(start, &adj, &mut stack, &mut on_stack, &mut found);
        }
        found.into_iter().collect()
    }

    /// Deterministic text dump of the order graph (one edge per line).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for ((from, to), origin) in &self.edges {
            out.push_str(&format!(
                "{from} -> {to}\t{}:{}\t{}\n",
                origin.file, origin.line, origin.via
            ));
        }
        out
    }
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    stack: &mut Vec<&'a str>,
    on_stack: &mut BTreeSet<&'a str>,
    found: &mut BTreeSet<Vec<(String, String)>>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for &next in nexts {
        if let Some(pos) = stack.iter().position(|&n| n == next) {
            // Cycle: stack[pos..] + back edge. Normalize rotation to
            // start at the lexicographically smallest node.
            let cyc: Vec<&str> = stack[pos..].to_vec();
            let min = cyc
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map_or(0, |(i, _)| i);
            let rotated: Vec<&str> = cyc[min..]
                .iter()
                .chain(cyc[..min].iter())
                .copied()
                .collect();
            let edges: Vec<(String, String)> = rotated
                .iter()
                .zip(rotated.iter().cycle().skip(1))
                .map(|(a, b)| ((*a).to_owned(), (*b).to_owned()))
                .collect();
            found.insert(edges);
        } else if !on_stack.contains(next) && stack.len() < 32 {
            stack.push(next);
            on_stack.insert(next);
            dfs(next, adj, stack, on_stack, found);
            stack.pop();
            on_stack.remove(next);
        }
    }
}

/// Reports each cycle of `lg` not waived by a `lock_order` annotation
/// on one of its edges.
pub fn check(lg: &LockGraph, allowed: &Allowed) -> Vec<Finding> {
    let mut findings = Vec::new();
    for cycle in lg.cycles() {
        let origins: Vec<&EdgeOrigin> = cycle.iter().filter_map(|key| lg.edges.get(key)).collect();
        let waived = origins
            .iter()
            .any(|o| is_allowed(allowed, &o.file, "lock_order", o.line));
        if waived {
            continue;
        }
        let mut desc = String::from("lock-order cycle: ");
        for (i, ((from, to), origin)) in cycle.iter().zip(&origins).enumerate() {
            if i > 0 {
                desc.push_str("; ");
            }
            let base = origin.file.rsplit('/').next().unwrap_or("");
            desc.push_str(&format!(
                "{from} -> {to} (at {base}:{} {})",
                origin.line, origin.via
            ));
        }
        let first = origins.first();
        findings.push(Finding {
            path: first.map_or_else(String::new, |o| o.file.clone()),
            line: first.map_or(0, |o| o.line),
            rule: "lock_order",
            message: desc,
        });
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;

    fn run(files: &[(&str, &str)]) -> (Vec<Finding>, LockGraph) {
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
        let lg = lock_graph(&graph, &crate::effects::summarize(&graph).effects);
        (check(&lg, &allowed), lg)
    }

    const PAIR: &str = "pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n";

    #[test]
    fn ab_ba_cycle_is_detected_with_both_sites() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn ab(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ba(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, lg) = run(&[("crates/serve/src/a.rs", &src)]);
        assert!(lg.edges.contains_key(&("Pair.a".into(), "Pair.b".into())));
        assert!(lg.edges.contains_key(&("Pair.b".into(), "Pair.a".into())));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("Pair.a -> Pair.b"),
            "{}",
            f[0].message
        );
        assert!(
            f[0].message.contains("Pair.b -> Pair.a"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn consistent_order_is_silent() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn ab(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ab_again(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, lg) = run(&[("crates/serve/src/a.rs", &src)]);
        assert!(f.is_empty(), "{f:?}");
        assert!(!lg.edges.contains_key(&("Pair.b".into(), "Pair.a".into())));
    }

    #[test]
    fn interprocedural_cycle_through_a_call_is_detected() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn ab(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    self.take_b();
                }}
                fn take_b(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ba(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                    self.take_a();
                }}
                fn take_a(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, _) = run(&[("crates/serve/src/a.rs", &src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("via call to"), "{}", f[0].message);
    }

    #[test]
    fn inner_block_scope_releases_the_guard() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn scoped(&self) {{
                    {{
                        let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    }}
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ba(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, lg) = run(&[("crates/serve/src/a.rs", &src)]);
        assert!(
            !lg.edges.contains_key(&("Pair.a".into(), "Pair.b".into())),
            "guard released at block end: {lg:?}"
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn sequential(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    drop(ga);
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ba(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, _) = run(&[("crates/serve/src/a.rs", &src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn match_scrutinee_lock_is_statement_scoped() {
        let src = "
            pub struct Q { q: Mutex<Vec<u32>> }
            impl Q {
                fn dequeue(&self) -> Option<u32> {
                    let item = match self.q.lock() { Ok(mut g) => g.pop(), Err(p) => None };
                    self.other(item)
                }
                fn other(&self, x: Option<u32>) -> Option<u32> { x }
            }";
        let (_, lg) = run(&[("crates/serve/src/a.rs", src)]);
        // The scrutinee guard must not be held across `self.other(..)`
        // on the following statement.
        assert!(
            lg.edges.is_empty(),
            "statement-scoped scrutinee leaked: {lg:?}"
        );
    }

    #[test]
    fn annotation_on_a_cycle_edge_waives_it() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn ab(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ba(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                    // lint: allow(lock_order, ba only runs single-threaded at startup)
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, _) = run(&[("crates/serve/src/a.rs", &src)]);
        assert!(f.is_empty(), "{f:?}");
    }
}
