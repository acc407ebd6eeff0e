//! `perfbench` — the served-request benchmark of the INTO-OA fabric.
//!
//! Starts two `oa-serve --shard i/2` processes and one `oa-router` over
//! fresh on-disk stores, drives them with two closed-loop clients, checks
//! every response, and prints the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics of a traced run (`--trace 1`). The last stdout
//! line is one JSON object. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload eval_cold|batch_warm|bo_session --seed N
//!           --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//! ```

mod fabric;
mod gen;
mod load;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use oa_router::{HashRing, DEFAULT_VNODES};
use oa_serve::Service;
use oa_store::Store;

use fabric::{Bins, Conn, Counters, Fabric};
use gen::{BatchWarm, BoSessions, EvalCold, Key, BATCH_ITEMS, SESSION_STEPS, SHARDS};
use load::{body, ClientLog};
use stats::{median, percentile, Digest, Rng};
use trace::Tracer;

/// Load per round of the request workloads (one fabric start each).
/// How fast a fabric serves depends on the start (how the two clients'
/// requests come to share the router's shard links) more than it drifts
/// within one, so a run measures many short starts and reports medians.
const ROUND: Duration = Duration::from_millis(500);
/// `eval_cold`: requests always sent, kept and digested.
const EVAL_KEPT: u64 = 1000;
/// `batch_warm`: batches always sent, kept and digested.
const BATCH_KEPT: u64 = 200;
/// Kept responses compared against an in-process `Service`.
const EVAL_COMPARED: usize = 40;
const BATCH_COMPARED: usize = 12;
/// Router-hop probe: lines and alternating rounds.
const PROBE_LINES: u64 = 64;
const PROBE_ROUNDS: usize = 5;
/// `Store::open` repetitions per shard log.
const OPEN_REPEATS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EvalCold,
    BatchWarm,
    BoSession,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::EvalCold => "eval_cold",
            Workload::BatchWarm => "batch_warm",
            Workload::BoSession => "bo_session",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = match get("--workload")?.as_str() {
        "eval_cold" => Workload::EvalCold,
        "batch_warm" => Workload::BatchWarm,
        "bo_session" => Workload::BoSession,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let number = |v: String, flag: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} needs an unsigned integer"))
    };
    let seed = number(get("--seed")?, "--seed")?;
    let seconds = number(get("--seconds")?, "--seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace needs 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
        bin_dir: PathBuf::from(get("--bin-dir")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: usize,
}

#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    layer: Vec<Metric>,
    checks: Vec<(&'static str, Result<(), String>)>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        });
    }

    fn layer(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.layer.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        });
    }

    fn check(&mut self, name: &'static str, result: Result<(), String>) {
        self.checks.push((name, result));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }
}

/// One fabric instance's share of the timed phase.
struct Round {
    logs: Vec<ClientLog>,
    setup_s: f64,
    elapsed_s: f64,
    delta: Counters,
    rss_mb: f64,
}

impl Round {
    fn measured_ok(&self) -> u64 {
        self.logs.iter().map(|l| l.measured_ok).sum()
    }
}

/// The timed phase: [`rounds`] rounds, each on a freshly started fabric.
struct Phase {
    rounds: Vec<Round>,
}

impl Phase {
    fn logs(&self) -> impl Iterator<Item = &ClientLog> {
        self.rounds.iter().flat_map(|r| &r.logs)
    }

    /// Round 0 holds every kept response.
    fn kept_logs(&self) -> &[ClientLog] {
        &self.rounds[0].logs
    }

    fn delta(&self) -> Counters {
        self.rounds
            .iter()
            .fold(Counters::default(), |acc, r| acc.plus(&r.delta))
    }

    fn measured_ok(&self) -> u64 {
        self.rounds.iter().map(Round::measured_ok).sum()
    }

    /// Summed load time of the rounds so far (set-up excluded).
    fn load_time(&self) -> Duration {
        Duration::from_secs_f64(self.rounds.iter().map(|r| r.elapsed_s).sum())
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing a debug build; build with --release");
        exit(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    };
    let run_dir = args.work_dir.join(format!(
        "{}-seed{}-pid{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &run_dir);
    let _ = fs::remove_dir_all(&run_dir);
    match result {
        Ok(outcome) => {
            print_outcome(&args, &outcome);
            exit(if outcome.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}

fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let bins = Bins {
        serve: args.bin_dir.join("oa-serve"),
        router: args.bin_dir.join("oa-router"),
    };
    for bin in [&bins.serve, &bins.router] {
        if !bin.is_file() {
            return Err(format!("missing server binary {}", bin.display()));
        }
    }
    let stores = run_dir.join("stores");
    fs::create_dir_all(&stores).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();

    let eval_gen = EvalCold::new(args.seed);
    let batch_gen = BatchWarm::new(args.seed);
    let session_gen = BoSessions::new(args.seed);

    if args.workload == Workload::BatchWarm {
        out.check("prefill_ok", prefill(&bins, &stores, &batch_gen)?);
    }

    let budget = Duration::from_secs(args.seconds);
    let next_index = AtomicU64::new(0);
    let mut phase = Phase { rounds: Vec::new() };
    let mut fabric = None;
    for r in 0.. {
        if phase.load_time() >= budget {
            break;
        }
        drop(fabric.take());
        // batch_warm restarts over its prefilled stores (set-up includes
        // log recovery); the cold workloads start over empty ones.
        let dir = match args.workload {
            Workload::BatchWarm => stores.clone(),
            _ => stores.join(format!("round{r}")),
        };
        let (f, setup_s) = Fabric::start(&bins, &dir).map_err(|e| format!("fabric start: {e}"))?;
        let gens = (&eval_gen, &batch_gen, &session_gen);
        let round = timed_round(args, &f, setup_s, r, &next_index, gens)?;
        phase.rounds.push(round);
        fabric = Some(f);
    }
    let fabric = fabric.expect("at least one round");

    let mut latencies = Vec::new();
    for log in phase.logs() {
        latencies.extend_from_slice(&log.latencies_ms);
        out.attempted += log.attempted;
        out.failed += log.failed;
    }
    let measured_ok = phase.measured_ok();
    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&phase.rounds.iter().map(f).collect::<Vec<_>>());
    let n = phase.rounds.len();
    out.metric("setup_s", per_round(&|r| r.setup_s), "s", n);
    out.metric(
        "throughput_rps",
        per_round(&|r| r.measured_ok() as f64 / r.elapsed_s),
        "1/s",
        measured_ok as usize,
    );
    let p50 = percentile(&latencies, 50.0).ok_or("no successful request")?;
    let p90 = percentile(&latencies, 90.0).ok_or("no successful request")?;
    out.metric("latency_p50_ms", p50.value, "ms", p50.n);
    out.metric("latency_p90_ms", p90.value, "ms", p90.n);
    out.metric(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted as usize,
    );
    out.metric("server_rss_mb", per_round(&|r| r.rss_mb), "MB", n);

    let failures: Vec<&String> = phase.logs().flat_map(|l| &l.failures).collect();
    out.check(
        "responses_ok",
        if out.failed == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} of {} requests failed, e.g. {:?}",
                out.failed,
                out.attempted,
                failures.first()
            ))
        },
    );
    out.check(
        "stats_invariants",
        stats_invariants(args.workload, &phase, measured_ok),
    );
    let digest = digest(args.workload, phase.kept_logs());
    out.check("digest_stable", digest_stable(args, digest));
    out.check(
        "in_process_equal",
        in_process_equal(
            args,
            &run_dir.join("reference"),
            phase.kept_logs(),
            &eval_gen,
            &batch_gen,
            &session_gen,
        ),
    );

    if args.trace {
        traced_run(
            args,
            run_dir,
            fabric,
            &phase,
            measured_ok,
            &eval_gen,
            &batch_gen,
            &session_gen,
            &mut out,
        )?;
    } else {
        drop(fabric);
    }
    Ok(out)
}

/// The untimed `batch_warm` prefill through a fabric of its own.
fn prefill(bins: &Bins, stores: &Path, gen: &BatchWarm) -> Result<Result<(), String>, String> {
    let (fabric, _) = Fabric::start(bins, stores).map_err(|e| format!("fabric start: {e}"))?;
    let mut conn = Conn::connect(fabric.router_addr()).map_err(|e| e.to_string())?;
    for (id, line) in gen.prefill_lines().iter().enumerate() {
        let response = conn.request(line).map_err(|e| format!("prefill: {e}"))?;
        if let Err(e) = load::classify(&response, id as u64) {
            return Ok(Err(format!("prefill batch {id}: {e}")));
        }
    }
    Ok(Ok(()))
}

/// One round: `stats` before and after the closed-loop load, and the
/// servers' peak RSS. The request workloads load the fabric for
/// [`ROUND`]; in `bo_session` each client runs its session `r` whole.
fn timed_round(
    args: &Args,
    fabric: &Fabric,
    setup_s: f64,
    r: u64,
    next_index: &AtomicU64,
    (eval_gen, batch_gen, session_gen): (&EvalCold, &BatchWarm, &BoSessions),
) -> Result<Round, String> {
    let addr = fabric.router_addr();
    let mut stats_conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let before = Counters::fetch(&mut stats_conn).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let deadline = started + ROUND;
    let logs = match args.workload {
        Workload::EvalCold => {
            let capacity = eval_gen.capacity();
            load::run_indexed(addr, deadline, next_index, EVAL_KEPT, capacity, |i| {
                eval_gen.line(i)
            })
        }
        Workload::BatchWarm => {
            load::run_indexed(addr, deadline, next_index, BATCH_KEPT, u64::MAX, |i| {
                batch_gen.line(i)
            })
        }
        Workload::BoSession => load::run_sessions(addr, session_gen, r),
    }
    .map_err(|e| format!("load: {e}"))?;
    let elapsed_s = started.elapsed().as_secs_f64();
    let after = Counters::fetch(&mut stats_conn).map_err(|e| e.to_string())?;
    let rss_mb = fabric.peak_rss_mb().map_err(|e| e.to_string())?;
    Ok(Round {
        logs,
        setup_s,
        elapsed_s,
        delta: after.since(&before),
        rss_mb,
    })
}

fn stats_invariants(workload: Workload, phase: &Phase, measured_ok: u64) -> Result<(), String> {
    let d = &phase.delta();
    let n = measured_ok as f64;
    let holds = match workload {
        Workload::EvalCold => d.sims == n && d.store_hits == 0.0 && d.appended == n,
        Workload::BatchWarm => {
            d.sims == 0.0 && d.appended == 0.0 && d.store_hits == n * BATCH_ITEMS as f64
        }
        Workload::BoSession => d.session_steps == n && d.sims > 0.0,
    };
    if holds {
        Ok(())
    } else {
        Err(format!(
            "{} ok requests but stats deltas {d:?}",
            measured_ok
        ))
    }
}

/// FNV digest of the kept response bodies in request order.
fn digest(workload: Workload, logs: &[ClientLog]) -> (u64, usize) {
    let mut d = Digest::new();
    let mut n = 0;
    let mut feed = |position: u64, text: &str| {
        d.update(&position.to_le_bytes());
        d.update(text.as_bytes());
        n += 1;
    };
    if workload == Workload::BoSession {
        for (client, log) in logs.iter().enumerate() {
            let mut kept: Vec<&(u64, String)> = log.kept.iter().collect();
            kept.sort();
            for (position, text) in kept {
                feed(((client as u64) << 32) | position, text);
            }
        }
    } else {
        let mut kept: Vec<&(u64, String)> = logs.iter().flat_map(|l| &l.kept).collect();
        kept.sort();
        for (position, text) in kept {
            feed(*position, text);
        }
    }
    (d.0, n)
}

/// The digest must equal the one an earlier run with this seed wrote.
fn digest_stable(args: &Args, (digest, n): (u64, usize)) -> Result<(), String> {
    let dir = args.work_dir.join("digests");
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.txt", args.workload.name(), args.seed));
    let text = format!("{digest:016x} {n}\n");
    match fs::read_to_string(&path) {
        Ok(previous) if previous == text => Ok(()),
        Ok(previous) => Err(format!(
            "digest {} differs from an earlier run's {}",
            text.trim(),
            previous.trim()
        )),
        Err(_) => fs::write(&path, text).map_err(|e| e.to_string()),
    }
}

/// A seeded sample of the kept responses must be byte-equal (id
/// stripped) to `Service::handle_line` over a fresh store.
fn in_process_equal(
    args: &Args,
    dir: &Path,
    logs: &[ClientLog],
    eval_gen: &EvalCold,
    batch_gen: &BatchWarm,
    session_gen: &BoSessions,
) -> Result<(), String> {
    let service = Service::new(Store::open(dir.join("results.log")).map_err(|e| e.to_string())?);
    let mut rng = Rng::new(args.seed ^ 0x7361_6d70);
    let compare = |what: String, line: &str, served: Option<&String>| -> Result<(), String> {
        let served = served.ok_or_else(|| format!("{what}: no kept response"))?;
        let reference = service.handle_line(line);
        if body(&reference) == served {
            Ok(())
        } else {
            Err(format!(
                "{what}: served {served:.120} but in-process {reference:.120}"
            ))
        }
    };
    let find = |client: usize, position: u64| -> Option<&String> {
        let mut candidates = logs.iter().enumerate();
        candidates.find_map(|(c, log)| {
            let eligible = args.workload != Workload::BoSession || c == client;
            let kept = log.kept.iter().find(|(p, _)| *p == position);
            kept.filter(|_| eligible).map(|(_, text)| text)
        })
    };
    match args.workload {
        Workload::EvalCold | Workload::BatchWarm => {
            let (kept, count) = if args.workload == Workload::EvalCold {
                (EVAL_KEPT, EVAL_COMPARED)
            } else {
                (BATCH_KEPT, BATCH_COMPARED)
            };
            let mut sample: Vec<u64> = (0..count).map(|_| rng.below(kept)).collect();
            sample.sort_unstable();
            sample.dedup();
            for i in sample {
                let line = if args.workload == Workload::EvalCold {
                    eval_gen.line(i)
                } else {
                    batch_gen.line(i)
                };
                compare(format!("request {i}"), &line, find(0, i))?;
            }
        }
        Workload::BoSession => {
            let client = rng.below(load::CLIENTS);
            let s = session_gen.session(client, 0);
            let open = session_gen.open_line(&s, 0);
            compare("open_session".into(), &open, find(client as usize, 0))?;
            for step in 1..=SESSION_STEPS {
                let line = oa_serve::request::step(step, s.id);
                compare(format!("step {step}"), &line, find(client as usize, step))?;
            }
        }
    }
    Ok(())
}

/// The per-layer run: router-hop and transport probes on the live
/// fabric, `Store::open` on its logs, then the in-process replays.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    run_dir: &Path,
    fabric: Fabric,
    phase: &Phase,
    measured_ok: u64,
    eval_gen: &EvalCold,
    batch_gen: &BatchWarm,
    session_gen: &BoSessions,
    out: &mut Outcome,
) -> Result<(), String> {
    let ring = HashRing::new(SHARDS, DEFAULT_VNODES);
    let probe_keys: Vec<Key> = match args.workload {
        Workload::BatchWarm => batch_gen
            .prefill_keys()
            .take(PROBE_LINES as usize)
            .cloned()
            .collect(),
        _ => (0..PROBE_LINES).map(|i| eval_gen.key(i)).collect(),
    };
    let probe: Vec<(String, usize)> = probe_keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            (
                k.eval_line(i as u64),
                ring.route(k.topology as u64).expect("ring") as usize,
            )
        })
        .collect();
    let (routed, direct) = probe_hop(&fabric, &probe).map_err(|e| format!("hop probe: {e}"))?;
    let store_paths = fabric.store_paths.clone();
    drop(fabric);

    let mut open_ms = 0.0;
    for path in &store_paths {
        let times: Vec<f64> = (0..OPEN_REPEATS)
            .map(|_| {
                let started = Instant::now();
                let store = Store::open(path).map_err(|e| e.to_string())?;
                let ms = started.elapsed().as_secs_f64() * 1e3;
                drop(store);
                Ok(ms)
            })
            .collect::<Result<_, String>>()?;
        open_ms += median(&times);
    }
    let mut in_process = Vec::new();
    for (s, path) in store_paths.iter().enumerate() {
        let service = Service::new(Store::open(path).map_err(|e| e.to_string())?);
        for _ in 0..PROBE_ROUNDS {
            for (line, _) in probe.iter().filter(|(_, owner)| *owner == s) {
                let started = Instant::now();
                std::hint::black_box(service.handle_line(line));
                in_process.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
    }

    let trace_dir = run_dir.join("trace");
    fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
    let mut t = Tracer::default();
    trace::replay_eval_miss(&mut t, eval_gen, &trace_dir)?;
    trace::replay_batch_hit(&mut t, batch_gen, &trace_dir)?;
    trace::replay_session(&mut t, session_gen, &trace_dir)?;
    let spans_path = args.work_dir.join("traces").join(format!(
        "{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    fs::create_dir_all(spans_path.parent().expect("has a parent")).map_err(|e| e.to_string())?;
    t.write_tsv(&spans_path).map_err(|e| e.to_string())?;

    let n = |name: &str| t.spans.iter().filter(|s| s.name == name).count();
    let d = &phase.delta();
    let per = |v: f64| v / measured_ok.max(1) as f64;
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let client_batches: u64 = phase.logs().map(|l| l.attempted).sum();
    let (parse_family, n_parse) = match args.workload {
        Workload::EvalCold => ("eval_miss", trace::EVAL_SAMPLE),
        Workload::BatchWarm => ("batch_hit", trace::BATCH_SAMPLE),
        Workload::BoSession => ("step", SESSION_STEPS),
    };
    let parse_us = median(
        &t.spans
            .iter()
            .filter(|s| s.name == "serve.json_parse")
            .filter(|s| s.parent.is_some_and(|p| t.spans[p].name == parse_family))
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let direct_us = median(&direct);
    out.layer(
        "router.hop_us",
        median(&routed) - direct_us,
        "us",
        routed.len(),
    );
    out.layer(
        "router.batch_fanout",
        if args.workload == Workload::BatchWarm {
            d.batch_requests / client_batches.max(1) as f64
        } else {
            0.0
        },
        "ratio",
        client_batches as usize,
    );
    out.layer(
        "serve.transport_us",
        direct_us - median(&in_process),
        "us",
        in_process.len(),
    );
    for (family, name) in [
        ("eval_miss", "serve.handle_line_us.eval_miss"),
        ("batch_hit", "serve.handle_line_us.batch_hit"),
        ("step", "serve.handle_line_us.step"),
    ] {
        let values: Vec<f64> = t
            .spans
            .iter()
            .filter(|s| {
                s.name == "serve.handle_line" && s.parent.is_some_and(|p| t.spans[p].name == family)
            })
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        out.layer(name, median(&values), "us", values.len());
    }
    out.layer("serve.json_parse_us", parse_us, "us", n_parse as usize);
    out.layer(
        "serve.encode_us",
        t.median_us("serve.encode"),
        "us",
        n("serve.encode"),
    );
    out.layer(
        "store.get_us",
        t.median_us("store.get"),
        "us",
        n("store.get"),
    );
    out.layer(
        "store.put_us",
        t.median_us("store.put"),
        "us",
        n("store.put"),
    );
    out.layer(
        "store.open_ms",
        open_ms,
        "ms",
        OPEN_REPEATS * store_paths.len(),
    );
    out.layer(
        "circuit.elaborate_us",
        t.median_us("circuit.elaborate"),
        "us",
        n("circuit.elaborate"),
    );
    out.layer("sim.eval_us", t.median_us("sim.eval"), "us", n("sim.eval"));
    out.layer(
        "graph.wl_fingerprint_us",
        t.median_us("graph.wl_fingerprint"),
        "us",
        n("graph.wl_fingerprint"),
    );
    out.layer(
        "bo.sizing_sim_ms",
        t.median_children_us("bo.sizing") / 1e3,
        "ms",
        n("bo.sizing"),
    );
    out.layer(
        "bo.sizing_surrogate_ms",
        t.median_self_us("bo.sizing") / 1e3,
        "ms",
        n("bo.sizing"),
    );
    for (_, span, metric) in trace::GP_FIT_SIZES {
        out.layer(metric, t.median_us(span), "us", n(span));
    }
    out.layer(
        "gp.rbf_predict_us",
        t.median_us("gp.rbf_predict"),
        "us",
        n("gp.rbf_predict"),
    );
    for step in [4u64, 8, 12, 16] {
        let ms = t
            .spans
            .iter()
            .find(|s| s.name == "bo.topo_propose" && s.request == step)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e6);
        out.layer(&format!("bo.topo_propose_ms.step{step:02}"), ms, "ms", 1);
    }
    out.layer(
        "core.size_opt_ms",
        t.median_us("core.size_opt") / 1e3,
        "ms",
        n("core.size_opt"),
    );
    out.layer("serve.sims", per(d.sims), "1/req", measured_ok as usize);
    out.layer(
        "store.appended_records",
        per(d.appended),
        "1/req",
        measured_ok as usize,
    );
    out.layer(
        "store.hits",
        per(d.store_hits),
        "1/req",
        measured_ok as usize,
    );
    out.layer(
        "store.misses",
        per(d.store_misses),
        "1/req",
        measured_ok as usize,
    );
    out.layer(
        "plan.hit_ratio",
        ratio(d.plan_hits, d.plan_misses),
        "ratio",
        (d.plan_hits + d.plan_misses) as usize,
    );
    out.layer(
        "wl.hit_ratio",
        ratio(d.wl_hits, d.wl_misses),
        "ratio",
        (d.wl_hits + d.wl_misses) as usize,
    );
    for root in ["eval_miss", "batch_hit", "step"] {
        out.layer(
            &format!("coverage.{root}"),
            t.median_coverage(root),
            "ratio",
            n(root),
        );
    }
    Ok(())
}

/// Sends every probe line through the router once (so it is a store hit
/// at its owner), then alternately through the router and directly to
/// its owning shard. Returns the two samples of round-trip µs.
fn probe_hop(fabric: &Fabric, probe: &[(String, usize)]) -> std::io::Result<(Vec<f64>, Vec<f64>)> {
    let mut router = Conn::connect(fabric.router_addr())?;
    let mut shards = (0..SHARDS as usize)
        .map(|s| Conn::connect(fabric.shard_addr(s)))
        .collect::<std::io::Result<Vec<_>>>()?;
    for (line, _) in probe {
        router.request(line)?;
    }
    let (mut routed, mut direct) = (Vec::new(), Vec::new());
    let time = |conn: &mut Conn, line: &str| -> std::io::Result<f64> {
        let started = Instant::now();
        let response = conn.request(line)?;
        let us = started.elapsed().as_secs_f64() * 1e6;
        if response.contains("\"ok\":true") {
            Ok(us)
        } else {
            Err(std::io::Error::other(format!("probe failed: {response}")))
        }
    };
    for round in 0..PROBE_ROUNDS {
        for (j, (line, owner)) in probe.iter().enumerate() {
            if (round + j) % 2 == 0 {
                routed.push(time(&mut router, line)?);
                direct.push(time(&mut shards[*owner], line)?);
            } else {
                direct.push(time(&mut shards[*owner], line)?);
                routed.push(time(&mut router, line)?);
            }
        }
    }
    Ok((routed, direct))
}

fn print_outcome(args: &Args, out: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in out.metrics.iter().chain(&out.layer) {
        println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
    for (name, result) in &out.checks {
        match result {
            Ok(()) => println!("check {name} ok"),
            Err(e) => println!("check {name} FAILED: {e}"),
        }
    }
    let reported: Vec<&Metric> = if args.trace {
        out.layer.iter().collect()
    } else {
        // failed_ratio is carried by "attempted"/"failed" and is 0 on a
        // healthy fabric, so it is printed above but not in the result.
        out.metrics
            .iter()
            .filter(|m| m.name != "failed_ratio")
            .collect()
    };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, m) in reported.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// A finite JSON number with every digit Rust prints for the f64.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
