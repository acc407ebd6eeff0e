//! The summary engine: one bottom-up fixpoint over the call graph, and
//! the rules that query it.
//!
//! Every function gets an *effect set* — a small lattice of facts
//! about what running it may do:
//!
//! | effect         | seeded from                                        |
//! |----------------|----------------------------------------------------|
//! | `Blocks`       | `thread::sleep`, `connect`, channel `recv`/`send`, |
//! |                | condvar `wait*`, buffered io on sockets/unknowns   |
//! | `Allocates`    | `push`/`insert`/`collect`/`to_vec`/…, `format!`,   |
//! |                | `vec!`, `Box::new`, `with_capacity`                |
//! | `AcquiresLock` | `Mutex::lock` / `RwLock::read`/`write` (via the    |
//! |                | lock analysis' acquisition classifier)             |
//! | `PerformsIo`   | file/socket reads and writes, `accept`, `fs::*`    |
//! | `WallClock`    | `Instant::now`, `SystemTime::now`, `.elapsed()`    |
//! | `Panics`       | `unwrap`/`expect`, indexing, `panic!`-family       |
//!
//! The same summary carries the set of lock classes the function may
//! acquire, itself or through its callees. [`summarize`] unions every
//! callee's summary into its callers until nothing changes, recording
//! for each effect bit a deterministic *witness* — the direct site or
//! the call edge that introduced it — so every diagnostic can print
//! the full entry→site chain. The same rounds also settle the
//! determinism-taint summaries ([`crate::taint`]).
//!
//! `Blocks` deliberately means *may park the thread indefinitely on
//! external progress*: bounded disk io (`File` writes, `sync_data`)
//! is `PerformsIo` only, and single-shot `read`/`write`/`accept` are
//! not `Blocks` because the router's sockets are all constructed
//! nonblocking (`Conn::new` / `Acceptor::bind`). DESIGN.md §12
//! records this soundness envelope.
//!
//! Four rules query the summary:
//!
//! * `panic` — no `Panics` site in a function of the
//!   [`HARDENED_CRATES`] reachable from the [`ENTRY_POINTS`]. Functions
//!   in other crates (the numeric domain layer) are traversed but
//!   their own sites are not collected: the domain layer's panic
//!   policy is "panics are bugs caught by the sweep tests", not
//!   "panics are annotated". Indexing the value-range analysis proves
//!   in bounds ([`crate::ranges`]) needs no annotation;
//! * `nonblocking_event_loop` — no `Blocks` site reachable from the
//!   `oa_router` `event_loop` entry points (brief lock acquisitions
//!   are allowed; holding one across a block is rule 4's job);
//! * `alloc_free_kernel` — no `Allocates` site reachable from the
//!   `oa_linalg` LANES factor/solve kernels;
//! * `lock_across_blocking` — no `Blocks` call while a lock guard is
//!   live (the held-guard walk of [`crate::locks`]).
//!
//! The first three print the entry→function call chain; the chain is
//! the diagnostic's payload.

use crate::ast::{CallSite, CallTarget, Event};
use crate::callgraph::{CallGraph, TypeEnv};
use crate::lint::{is_allowed, Allowed, Finding};
use crate::locks::{acquisition_class, walk_guards, GuardStep};
use crate::taint::TaintSummaries;
use std::collections::{BTreeSet, VecDeque};

/// May park the thread indefinitely (socket/channel/condvar waits,
/// `thread::sleep`, `connect`).
pub const BLOCKS: u8 = 1 << 0;
/// May allocate on the heap.
pub const ALLOCATES: u8 = 1 << 1;
/// May acquire a `Mutex`/`RwLock`.
pub const ACQUIRES_LOCK: u8 = 1 << 2;
/// May perform file or socket io (bounded or not).
pub const PERFORMS_IO: u8 = 1 << 3;
/// May read the wall clock.
pub const WALL_CLOCK: u8 = 1 << 4;
/// May panic.
pub const PANICS: u8 = 1 << 5;

/// The six effect bits, in witness-slot order.
const BITS: [u8; 6] = [
    BLOCKS,
    ALLOCATES,
    ACQUIRES_LOCK,
    PERFORMS_IO,
    WALL_CLOCK,
    PANICS,
];

/// Qualified names of the functions client work enters through.
pub const ENTRY_POINTS: &[&str] = &[
    "Service::handle_line",
    "connection_loop",
    "worker_loop",
    "Store::open_with_faults",
    "event_loop",
];

/// Lib names of the crates whose panic sites must be annotated when
/// reachable. `oa_bo`, `oa_gp` and `oa_graph` joined when the session
/// ops put the BO propose/observe loop and the WL-GP fit on the
/// `Service::handle_line` request path (DESIGN.md §13).
pub const HARDENED_CRATES: &[&str] = &[
    "oa_serve",
    "oa_par",
    "oa_store",
    "oa_fault",
    "oa_router",
    "oa_bo",
    "oa_gp",
    "oa_graph",
];

/// The description of an indexing site (the only `Panics` site the
/// range analysis can discharge).
const INDEXING: &str = "slice/array indexing can panic";

/// How a function came to carry an effect bit.
#[derive(Debug, Clone, Default)]
enum Origin {
    /// Not carried.
    #[default]
    None,
    /// A direct site in this function's body.
    Site {
        /// 1-based line.
        line: u32,
        /// Human-readable description of the seeded operation.
        what: String,
    },
    /// Inherited from a callee.
    Call {
        /// 1-based line of the call.
        line: u32,
        /// Callee node id.
        callee: usize,
    },
}

/// A direct (seeded) effect site in a function body.
#[derive(Debug, Clone)]
struct Site {
    /// 1-based line.
    line: u32,
    /// Effect bits the operation carries.
    bits: u8,
    /// Human-readable description of the operation.
    what: String,
}

/// Per-function effect summaries with per-bit witnesses.
pub struct Effects {
    /// Effect set per call-graph node.
    pub sets: Vec<u8>,
    /// Lock classes per node that it may acquire, itself or through
    /// its callees.
    pub locks: Vec<BTreeSet<String>>,
    /// `origin[id][bit_index]` — first witness for each effect bit.
    origins: Vec<[Origin; 6]>,
    /// Direct sites per node, in body order.
    sites: Vec<Vec<Site>>,
}

/// Every bottom-up summary the rules query, settled by one fixpoint.
pub struct Summaries {
    /// Effect sets and lock classes.
    pub effects: Effects,
    /// Determinism-taint summaries and the flows they expose.
    pub taint: TaintSummaries,
}

/// Seeds every function's direct effects and lock classes, then runs
/// the fixpoint: a Gauss-Seidel sweep in node order, each node reading
/// its callees' current summaries, repeated until a round changes
/// nothing. Union facts cross at most `n - 1` edges, so `n` rounds of
/// change plus one quiet round bound the effect and lock lattices;
/// the taint summaries settle in 7 rounds on the workspace.
pub fn summarize(graph: &CallGraph<'_>) -> Summaries {
    let n = graph.nodes.len();
    let mut effects = Effects::seed(graph);
    let mut taint = TaintSummaries::new(n);
    for _round in 0..=n {
        let mut changed = false;
        for id in 0..n {
            changed |= effects.absorb_callees(graph, id);
            changed |= taint.update(graph, id);
        }
        if !changed {
            break;
        }
    }
    Summaries { effects, taint }
}

/// Names of calls that resolved to workspace functions, keyed by call
/// line. Their std seeding is skipped — the callee's own inferred
/// effects flow through the call edge instead, so a local `connect`
/// helper is not mistaken for `TcpStream::connect`.
fn resolved_call_names(graph: &CallGraph<'_>, id: usize) -> BTreeSet<(u32, String)> {
    graph.edges[id]
        .iter()
        .map(|e| {
            let qual = graph.def(e.callee).qual.as_str();
            let name = qual.rsplit("::").next().unwrap_or(qual).to_owned();
            (e.line, name)
        })
        .collect()
}

/// Classifies one call, returning its seeded effect bits and a
/// human-readable description of the operation. `resolved` is the
/// [`resolved_call_names`] set of the enclosing function.
fn call_effects(
    graph: &CallGraph<'_>,
    env: &TypeEnv,
    fn_qual: &str,
    resolved: &BTreeSet<(u32, String)>,
    call: &CallSite,
) -> Option<(u8, String)> {
    let called = match &call.target {
        // A panic site even when a receiver the type environment cannot
        // resolve falls back to a workspace method of the same name.
        CallTarget::Method { name, .. } if matches!(name.as_str(), "unwrap" | "expect") => {
            return Some((PANICS, format!(".{name}() can panic")));
        }
        CallTarget::Method { name, .. } => name.as_str(),
        CallTarget::Free { path } => path.last().map(String::as_str).unwrap_or(""),
        CallTarget::Macro { .. } => "",
    };
    if !called.is_empty() && resolved.contains(&(call.line, called.to_owned())) {
        return None;
    }
    match &call.target {
        CallTarget::Method { name, recv } => {
            if let Some(class) = acquisition_class(graph, env, fn_qual, name, recv) {
                return Some((ACQUIRES_LOCK, format!("acquires lock `{class}`")));
            }
            method_effects(graph, env, name, recv)
        }
        CallTarget::Free { path } => free_effects(path),
        CallTarget::Macro { name } => macro_effects(name),
    }
}

/// Methods that grow or copy into heap storage.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_str",
    "push_back",
    "push_front",
    "insert",
    "to_owned",
    "to_vec",
    "to_string",
    "collect",
    "with_capacity",
    "reserve",
    "extend",
    "extend_from_slice",
    "resize",
    "append",
    "into_owned",
    "join",
    "concat",
    "repeat",
    "split_off",
];

/// Buffered io methods that park until the transfer completes.
const BUFFERED_IO: &[&str] = &[
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "write_all",
    "write_fmt",
    "flush",
];

/// Receiver type heads whose buffered io is bounded by local work
/// (disk or memory), not by a remote peer. `OpenOptions` appears as a
/// chain head for locals bound via the builder (`let f = OpenOptions::
/// new()…open(p)?`), whose product is a `File`.
const BOUNDED_IO_TYPES: &[&str] = &[
    "File",
    "OpenOptions",
    "BufWriter",
    "BufReader",
    "Vec",
    "VecDeque",
    "String",
    "Cursor",
];

fn method_effects(
    graph: &CallGraph<'_>,
    env: &TypeEnv,
    name: &str,
    recv: &str,
) -> Option<(u8, String)> {
    match name {
        "recv" | "recv_timeout" | "wait" | "wait_timeout" | "wait_while" => Some((
            BLOCKS,
            format!(".{name}() parks on a channel/condvar until signaled"),
        )),
        "send" => Some((
            BLOCKS,
            ".send() parks when a bounded channel is full".to_owned(),
        )),
        _ if BUFFERED_IO.contains(&name) => {
            let head = graph
                .resolve_chain(env, recv)
                .map(|ty| crate::ast::deref_head(&ty))
                .unwrap_or_default();
            if BOUNDED_IO_TYPES.contains(&head.as_str()) {
                Some((PERFORMS_IO, format!(".{name}() on {head} (bounded io)")))
            } else {
                Some((
                    BLOCKS | PERFORMS_IO,
                    format!(".{name}() parks until the peer makes progress"),
                ))
            }
        }
        "read" | "write" | "accept" => Some((PERFORMS_IO, format!(".{name}() single-shot io"))),
        "sync_all" | "sync_data" => Some((PERFORMS_IO, format!(".{name}() flushes to disk"))),
        "elapsed" => Some((WALL_CLOCK, ".elapsed() reads the wall clock".to_owned())),
        _ if ALLOC_METHODS.contains(&name) => Some((ALLOCATES, format!(".{name}() allocates"))),
        _ => None,
    }
}

fn free_effects(path: &[String]) -> Option<(u8, String)> {
    let last = path.last().map(String::as_str).unwrap_or("");
    let prev = path
        .len()
        .checked_sub(2)
        .map(|i| path[i].as_str())
        .unwrap_or("");
    match (prev, last) {
        ("thread", "sleep") => Some((BLOCKS, "thread::sleep parks the thread".to_owned())),
        ("TcpStream" | "UnixStream", "connect" | "connect_timeout") => Some((
            BLOCKS | PERFORMS_IO,
            format!("{prev}::{last} blocks until the peer answers"),
        )),
        ("fs", _) => Some((PERFORMS_IO, format!("fs::{last} touches the filesystem"))),
        ("File" | "OpenOptions", _) => Some((
            PERFORMS_IO,
            format!("{prev}::{last} touches the filesystem"),
        )),
        ("Instant" | "SystemTime", "now") => {
            Some((WALL_CLOCK, format!("{prev}::now() reads the wall clock")))
        }
        ("Box" | "Arc" | "Rc", "new") => Some((ALLOCATES, format!("{prev}::new allocates"))),
        ("Vec" | "String", "with_capacity" | "from") => {
            Some((ALLOCATES, format!("{prev}::{last} allocates")))
        }
        _ => None,
    }
}

fn macro_effects(name: &str) -> Option<(u8, String)> {
    match name {
        "format" | "vec" => Some((ALLOCATES, format!("{name}! allocates"))),
        "println" | "eprintln" | "print" | "eprint" => {
            Some((PERFORMS_IO, format!("{name}! writes to the terminal")))
        }
        "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
        | "assert_ne" => Some((PANICS, format!("{name}! panics"))),
        _ => None,
    }
}

impl Effects {
    /// Seeds each function's direct sites, effect set and lock classes.
    fn seed(graph: &CallGraph<'_>) -> Effects {
        let n = graph.nodes.len();
        let mut eff = Effects {
            sets: vec![0u8; n],
            locks: vec![BTreeSet::new(); n],
            origins: std::iter::repeat_with(Default::default).take(n).collect(),
            sites: vec![Vec::new(); n],
        };
        for id in 0..n {
            let def = graph.def(id);
            let Some(body) = &def.body else { continue };
            let env = graph.type_env(id);
            let resolved = resolved_call_names(graph, id);
            body.walk(&mut |_s, ev| {
                let (line, (bits, what)) = match ev {
                    Event::Index { line, .. } => (*line, (PANICS, INDEXING.to_owned())),
                    Event::Call(call) => {
                        if let CallTarget::Method { name, recv } = &call.target {
                            if let Some(class) =
                                acquisition_class(graph, env, &def.qual, name, recv)
                            {
                                eff.locks[id].insert(class);
                            }
                        }
                        match call_effects(graph, env, &def.qual, &resolved, call) {
                            Some(effects) => (call.line, effects),
                            None => return,
                        }
                    }
                    Event::Guard { .. } | Event::DropVar { .. } | Event::Str { .. } => return,
                };
                eff.sets[id] |= bits;
                for (i, bit) in BITS.iter().enumerate() {
                    if bits & bit != 0 && matches!(eff.origins[id][i], Origin::None) {
                        eff.origins[id][i] = Origin::Site {
                            line,
                            what: what.clone(),
                        };
                    }
                }
                eff.sites[id].push(Site { line, bits, what });
            });
        }
        eff
    }

    /// Unions every callee's effect set and lock classes into `id`'s;
    /// a newly inherited bit takes the call edge as its witness.
    /// Returns whether anything changed.
    fn absorb_callees(&mut self, graph: &CallGraph<'_>, id: usize) -> bool {
        let mut changed = false;
        for e in &graph.edges[id] {
            let add = self.sets[e.callee] & !self.sets[id];
            if add != 0 {
                changed = true;
                self.sets[id] |= add;
                for (i, bit) in BITS.iter().enumerate() {
                    if add & bit != 0 {
                        self.origins[id][i] = Origin::Call {
                            line: e.line,
                            callee: e.callee,
                        };
                    }
                }
            }
            let new: Vec<String> = self.locks[e.callee]
                .difference(&self.locks[id])
                .cloned()
                .collect();
            if !new.is_empty() {
                changed = true;
                self.locks[id].extend(new);
            }
        }
        changed
    }

    /// Formats the witness chain from `id` down to the seeded site for
    /// one effect bit: `-> Store::put (at log.rs:262): .write_all() …`.
    fn witness_text(&self, graph: &CallGraph<'_>, mut id: usize, bit: u8) -> String {
        let idx = BITS.iter().position(|b| *b == bit).unwrap_or(0);
        let mut text = String::new();
        for _ in 0..64 {
            let base = graph.file(id).path.rsplit('/').next().unwrap_or("");
            match &self.origins[id][idx] {
                Origin::Site { line, what } => {
                    text.push_str(&format!(" -> {what} (at {base}:{line})"));
                    return text;
                }
                Origin::Call { line, callee } => {
                    text.push_str(&format!(
                        " -> {} (at {base}:{line})",
                        graph.def(*callee).qual
                    ));
                    id = *callee;
                }
                Origin::None => return text,
            }
        }
        text
    }
}

/// BFS with parent pointers from a set of entry node ids.
fn bfs(graph: &CallGraph<'_>, entries: &[usize]) -> (Vec<bool>, Vec<Option<(usize, u32)>>) {
    let mut reached = vec![false; graph.nodes.len()];
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; graph.nodes.len()];
    let mut queue = VecDeque::new();
    for &id in entries {
        if !reached[id] {
            reached[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for e in &graph.edges[id] {
            if !reached[e.callee] {
                reached[e.callee] = true;
                parent[e.callee] = Some((id, e.line));
                queue.push_back(e.callee);
            }
        }
    }
    (reached, parent)
}

/// Formats the entry→site call chain from the BFS parent pointers:
/// `reachable from Service::handle_line: Service::handle_line ->
/// Store::put (at service.rs:88) -> parse_record (at log.rs:102)`.
fn chain_text(graph: &CallGraph<'_>, parent: &[Option<(usize, u32)>], id: usize) -> String {
    // hops[i] = (node, line of the call in node's body that reaches
    // hops[i+1]); the last hop carries no outgoing line.
    let mut hops: Vec<(usize, Option<u32>)> = Vec::new();
    let mut cur = id;
    let mut via: Option<u32> = None;
    loop {
        hops.push((cur, via));
        match parent[cur] {
            Some((p, line)) if hops.len() <= 64 => {
                via = Some(line);
                cur = p;
            }
            _ => break,
        }
    }
    hops.reverse();
    let entry = graph.def(hops[0].0).qual.clone();
    let mut text = format!("reachable from {entry}: {entry}");
    for i in 1..hops.len() {
        let (caller, call_line) = hops[i - 1];
        let base = graph.file(caller).path.rsplit('/').next().unwrap_or("");
        text.push_str(&format!(
            " -> {} (at {base}:{})",
            graph.def(hops[i].0).qual,
            call_line.unwrap_or(0)
        ));
    }
    text
}

/// Flags every direct site carrying `bits` in any function reachable
/// from `entries`, unless annotated under `rule`. `describe` returns
/// the message text before the call chain, or `None` to skip a site.
fn reachability_rule(
    graph: &CallGraph<'_>,
    eff: &Effects,
    allowed: &Allowed,
    entries: &[usize],
    bits: u8,
    rule: &'static str,
    describe: impl Fn(usize, &Site) -> Option<String>,
) -> Vec<Finding> {
    let (reached, parent) = bfs(graph, entries);
    let mut findings = Vec::new();
    for (id, &is_reached) in reached.iter().enumerate() {
        if !is_reached {
            continue;
        }
        let path = &graph.file(id).path;
        for site in &eff.sites[id] {
            if site.bits & bits == 0 || is_allowed(allowed, path, rule, site.line) {
                continue;
            }
            let Some(text) = describe(id, site) else {
                continue;
            };
            findings.push(Finding {
                path: path.clone(),
                line: site.line,
                rule,
                message: format!("{text}{}", chain_text(graph, &parent, id)),
            });
        }
    }
    findings
}

/// Node ids of the functions named `quals` in the crate `crate_name`
/// (any crate when `None`), in `quals` order.
fn entries(graph: &CallGraph<'_>, quals: &[&str], crate_name: Option<&str>) -> Vec<usize> {
    quals
        .iter()
        .flat_map(|qual| graph.find_qual(qual))
        .filter(|&id| crate_name.is_none_or(|name| graph.file(id).crate_name == name))
        .collect()
}

/// Runs the four effect rules. `allowed` is the annotation map;
/// `discharged` holds the `(path, line)` indexing sites the value-range
/// analysis proved in bounds — those report nothing.
pub fn check(
    graph: &CallGraph<'_>,
    eff: &Effects,
    allowed: &Allowed,
    discharged: &BTreeSet<(String, u32)>,
) -> Vec<Finding> {
    // Rule 1: no reachable panic in the hardened crates.
    let mut findings = reachability_rule(
        graph,
        eff,
        allowed,
        &entries(graph, ENTRY_POINTS, None),
        PANICS,
        "panic",
        |id, site| {
            let file = graph.file(id);
            let proven =
                site.what == INDEXING && discharged.contains(&(file.path.clone(), site.line));
            (HARDENED_CRATES.contains(&file.crate_name.as_str()) && !proven)
                .then(|| format!("{}; ", site.what))
        },
    );

    // Rule 2: nothing blocking on the router's nonblocking event loop.
    findings.extend(reachability_rule(
        graph,
        eff,
        allowed,
        &entries(graph, &["event_loop"], Some("oa_router")),
        BLOCKS,
        "nonblocking_event_loop",
        |_, site| {
            Some(format!(
                "{} — stalls the nonblocking event loop; ",
                site.what
            ))
        },
    ));

    // Rule 3: no allocation in the LANES batch kernels.
    findings.extend(reachability_rule(
        graph,
        eff,
        allowed,
        &entries(
            graph,
            &["SymbolicPlan::factor", "SymbolicPlan::solve_gated"],
            Some("oa_linalg"),
        ),
        ALLOCATES,
        "alloc_free_kernel",
        |_, site| Some(format!("{} — allocates in the LANES hot path; ", site.what)),
    ));

    // Rule 4: nothing blocking while a lock guard is live.
    for id in 0..graph.nodes.len() {
        check_lock_across_blocking(graph, eff, allowed, id, &mut findings);
    }
    findings
}

/// Walks one function's held guards and flags every blocking call —
/// a direct `Blocks` operation, or a call into a function whose
/// summary carries `Blocks` — made while a guard is live.
fn check_lock_across_blocking(
    graph: &CallGraph<'_>,
    eff: &Effects,
    allowed: &Allowed,
    id: usize,
    findings: &mut Vec<Finding>,
) {
    let fn_qual = &graph.def(id).qual;
    let path = &graph.file(id).path;
    let resolved = resolved_call_names(graph, id);
    let mut reported: BTreeSet<(u32, String)> = BTreeSet::new();
    walk_guards(graph, id, &mut |held, step| {
        let GuardStep::Call(call) = step else { return };
        if held.is_empty() {
            return;
        }
        let mut blocking: Vec<(String, Option<usize>)> = Vec::new();
        if let Some((bits, what)) =
            call_effects(graph, graph.type_env(id), fn_qual, &resolved, call)
        {
            if bits & BLOCKS != 0 {
                blocking.push((what, None));
            }
        }
        for e in graph.edges[id].iter().filter(|e| e.line == call.line) {
            if eff.sets[e.callee] & BLOCKS != 0 {
                blocking.push((
                    format!("call to {}", graph.def(e.callee).qual),
                    Some(e.callee),
                ));
            }
        }
        for (what, callee) in blocking {
            let line = call.line;
            if is_allowed(allowed, path, "lock_across_blocking", line)
                || !reported.insert((line, what.clone()))
            {
                continue;
            }
            let witness = callee
                .map(|c| eff.witness_text(graph, c, BLOCKS))
                .unwrap_or_default();
            let classes: Vec<&str> = held.iter().map(|h| h.class.as_str()).collect();
            findings.push(Finding {
                path: path.clone(),
                line,
                rule: "lock_across_blocking",
                message: format!(
                    "{what} may block while holding lock(s) {{{}}} in {fn_qual}{witness}",
                    classes.join(", ")
                ),
            });
        }
    });
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
        let summaries = summarize(&graph);
        check(&graph, &summaries.effects, &allowed, &BTreeSet::new())
    }

    fn panics(files: &[(&str, &str)]) -> Vec<Finding> {
        let mut f: Vec<Finding> = run(files)
            .into_iter()
            .filter(|f| f.rule == "panic")
            .collect();
        f.sort_by_key(|f| f.line);
        f
    }

    #[test]
    fn panic_reachable_from_handler_is_reported_with_chain() {
        let f = panics(&[(
            "crates/serve/src/service.rs",
            r#"
            pub struct Service;
            impl Service {
                pub fn handle_line(&self) { step_one(); }
            }
            fn step_one() { step_two(); }
            fn step_two(v: &[u8]) -> u8 { v[17] }
            "#,
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "panic");
        assert!(f[0].message.contains("indexing"), "{}", f[0].message);
        assert!(
            f[0].message
                .contains("Service::handle_line -> step_one (at service.rs:4) -> step_two"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn unreachable_panic_sites_are_silent() {
        let f = panics(&[(
            "crates/serve/src/service.rs",
            "fn offline_tool(v: &[u8]) -> u8 { v[0] }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn annotated_panic_sites_are_silent() {
        let f = panics(&[(
            "crates/serve/src/service.rs",
            r#"
            pub struct Service;
            impl Service {
                pub fn handle_line(&self, v: &[u8]) -> u8 {
                    // lint: allow(panic, length checked by framing layer)
                    v[0]
                }
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn domain_crates_are_traversed_but_not_collected() {
        let f = panics(&[
            (
                "crates/serve/src/service.rs",
                "pub struct Service;\nimpl Service { pub fn handle_line(&self) { solve(); } }",
            ),
            (
                "crates/linalg/src/lu.rs",
                "pub fn solve(a: &[f64]) -> f64 { a[0] }",
            ),
        ]);
        assert!(
            f.is_empty(),
            "domain-layer indexing is not collected: {f:?}"
        );
    }

    #[test]
    fn panic_macro_and_unwrap_in_pool_are_reported() {
        let f = panics(&[(
            "crates/par/src/pool.rs",
            r#"
            pub fn worker_loop(rx: Receiver<Job>) {
                let job = rx.recv().unwrap();
                if job.poison { panic!("poisoned"); }
            }
            "#,
        )]);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["panic", "panic"]);
        assert!(f[0].message.contains(".unwrap() can panic"));
        assert!(f[1].message.contains("panic! panics"));
    }

    #[test]
    fn summary_carries_transitive_lock_classes() {
        let inputs: Vec<(String, String)> = vec![(
            "crates/serve/src/service.rs".to_owned(),
            r#"
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn outer(&self) { self.inner(); }
                fn inner(&self) { let g = self.a.lock(); self.leaf(); }
                fn leaf(&self) { let g = self.b.lock(); }
            }
            "#
            .to_owned(),
        )];
        let ws = Workspace::parse(&inputs);
        let graph = CallGraph::build(&ws);
        let eff = summarize(&graph).effects;
        let outer = graph.find_qual("S::outer")[0];
        let classes: Vec<&str> = eff.locks[outer].iter().map(String::as_str).collect();
        assert_eq!(classes, vec!["S.a", "S.b"]);
        assert_ne!(eff.sets[outer] & ACQUIRES_LOCK, 0);
    }

    #[test]
    fn blocking_call_reachable_from_event_loop_is_flagged_with_chain() {
        let f = run(&[(
            "crates/router/src/router.rs",
            r#"
            pub fn event_loop() { helper(); }
            fn helper() { std::thread::sleep(d); }
            "#,
        )]);
        let blocking: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == "nonblocking_event_loop")
            .collect();
        assert_eq!(blocking.len(), 1, "{f:?}");
        assert!(
            blocking[0].message.contains(
                "thread::sleep parks the thread — stalls the nonblocking event loop; \
                 reachable from event_loop: event_loop -> helper (at router.rs:2)"
            ),
            "{}",
            blocking[0].message
        );
    }

    #[test]
    fn annotated_blocking_site_is_whitelisted() {
        let f = run(&[(
            "crates/router/src/router.rs",
            r#"
            pub fn event_loop() {
                // lint: allow(nonblocking_event_loop, bounded idle pacing)
                std::thread::sleep(d);
            }
            "#,
        )]);
        assert!(
            f.iter().all(|f| f.rule != "nonblocking_event_loop"),
            "{f:?}"
        );
    }

    #[test]
    fn allocation_in_kernel_is_flagged_transitively() {
        let f = run(&[(
            "crates/linalg/src/sparse.rs",
            r#"
            pub struct SymbolicPlan;
            impl SymbolicPlan {
                pub fn factor(&self) { inner(); }
            }
            fn inner(out: &mut Vec<f64>) { out.push(1.0); }
            "#,
        )]);
        let alloc: Vec<&Finding> = f.iter().filter(|f| f.rule == "alloc_free_kernel").collect();
        assert_eq!(alloc.len(), 1, "{f:?}");
        assert!(alloc[0]
            .message
            .contains("reachable from SymbolicPlan::factor"));
    }

    #[test]
    fn blocking_while_guard_held_is_flagged() {
        let f = run(&[(
            "crates/serve/src/service.rs",
            r#"
            pub struct S { m: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.m.lock().unwrap();
                    std::thread::sleep(d);
                }
            }
            "#,
        )]);
        let lock: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == "lock_across_blocking")
            .collect();
        assert_eq!(lock.len(), 1, "{f:?}");
        assert!(lock[0].message.contains("S.m"), "{}", lock[0].message);
    }

    #[test]
    fn dropping_the_guard_before_blocking_is_clean() {
        let f = run(&[(
            "crates/serve/src/service.rs",
            r#"
            pub struct S { m: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.m.lock().unwrap();
                    drop(g);
                    std::thread::sleep(d);
                }
            }
            "#,
        )]);
        assert!(f.iter().all(|f| f.rule != "lock_across_blocking"), "{f:?}");
    }
}
