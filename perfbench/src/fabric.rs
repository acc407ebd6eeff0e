//! The measured fabric: two `oa-serve --shard i/2` processes and one
//! `oa-router` over them, started from the release binaries, plus the
//! line-oriented client connection the load generator and probes use.

use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use oa_serve::Json;

use crate::gen::SHARDS;

/// One request/response connection (`TCP_NODELAY`, one line each way).
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// Sends one line and waits for one response line (newline
    /// stripped). EOF is an error.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame)?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(self.buf.trim_end_matches(['\n', '\r']).to_owned())
    }
}

/// A started server process and the address its banner announced.
struct Proc {
    child: Child,
    // Held open so a late write by the server never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

fn spawn(bin: &Path, args: &[&str], log: &Path) -> io::Result<Child> {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(File::create(log)?))
        .spawn()
}

/// Reads banner lines until `prefix` and returns the rest of that line.
fn scrape(mut child: Child, prefix: &str) -> io::Result<Proc> {
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("server exited before '{prefix}'")));
        }
        if let Some(addr) = line.trim_end().strip_prefix(prefix) {
            return Ok(Proc {
                addr: addr.to_owned(),
                child,
                _stdout: reader,
            });
        }
    }
}

/// Paths of the release binaries under test.
#[derive(Debug, Clone)]
pub struct Bins {
    pub serve: PathBuf,
    pub router: PathBuf,
}

/// A running fabric. Dropping it kills and reaps every process.
pub struct Fabric {
    shards: Vec<Proc>,
    router: Option<Proc>,
    pub store_paths: Vec<PathBuf>,
}

impl Fabric {
    /// Starts the shards over `store_dir/shard<i>/results.log` and the
    /// router, and returns with the set-up time: from the first spawn
    /// until a `stats` request through the router answers `ok`.
    pub fn start(bins: &Bins, store_dir: &Path) -> io::Result<(Fabric, f64)> {
        let started = Instant::now();
        let mut children = Vec::new();
        let mut store_paths = Vec::new();
        for i in 0..SHARDS {
            let dir = store_dir.join(format!("shard{i}"));
            fs::create_dir_all(&dir)?;
            let store = dir.join("results.log");
            let shard = format!("{i}/{SHARDS}");
            let args = [
                "--addr",
                "127.0.0.1:0",
                "--store",
                path_str(&store)?,
                "--shard",
                &shard,
            ];
            children.push(spawn(&bins.serve, &args, &dir.join("stderr.log"))?);
            store_paths.push(store);
        }
        let mut fabric = Fabric {
            shards: Vec::new(),
            router: None,
            store_paths,
        };
        let mut pending = children.into_iter();
        while let Some(child) = pending.next() {
            match scrape(child, "oa-serve listening on ") {
                Ok(shard) => fabric.shards.push(shard),
                Err(e) => {
                    for mut rest in pending {
                        let _ = rest.kill();
                        let _ = rest.wait();
                    }
                    return Err(e);
                }
            }
        }
        let list = fabric
            .shards
            .iter()
            .map(|p| p.addr.as_str())
            .collect::<Vec<_>>()
            .join(",");
        let log = store_dir.join("router.stderr.log");
        let router = spawn(
            &bins.router,
            &["--addr", "127.0.0.1:0", "--shards", &list],
            &log,
        )?;
        fabric.router = Some(scrape(router, "oa-router listening on ")?);
        let mut conn = Conn::connect(fabric.router_addr())?;
        for attempt in 0.. {
            let response = conn.request(&oa_serve::request::stats(0))?;
            if response.starts_with("{\"id\":0,\"ok\":true") {
                break;
            }
            if attempt == 200 {
                return Err(io::Error::other(format!(
                    "router never served stats: {response}"
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok((fabric, started.elapsed().as_secs_f64()))
    }

    pub fn router_addr(&self) -> &str {
        &self.router.as_ref().expect("router started").addr
    }

    pub fn shard_addr(&self, i: usize) -> &str {
        &self.shards[i].addr
    }

    /// Summed peak resident set (VmHWM) of the three server processes.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut kb = 0u64;
        for p in self.shards.iter().chain(&self.router) {
            let status = fs::read_to_string(format!("/proc/{}/status", p.child.id()))?;
            let line = status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
            kb += line
                .split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| io::Error::other("unreadable VmHWM"))?;
        }
        Ok(kb as f64 / 1024.0)
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        for p in self.router.iter_mut().chain(self.shards.iter_mut()) {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}

fn path_str(path: &Path) -> io::Result<&str> {
    path.to_str()
        .ok_or_else(|| io::Error::other(format!("non-UTF-8 path {}", path.display())))
}

/// The fabric-wide counters of one `stats` answer (router-summed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub sims: f64,
    pub store_hits: f64,
    pub store_misses: f64,
    pub appended: f64,
    pub plan_hits: f64,
    pub plan_misses: f64,
    pub wl_hits: f64,
    pub wl_misses: f64,
    pub batch_requests: f64,
    pub session_steps: f64,
}

impl Counters {
    pub fn fetch(conn: &mut Conn) -> io::Result<Counters> {
        let response = conn.request(&oa_serve::request::stats(0))?;
        Counters::parse(&response)
            .ok_or_else(|| io::Error::other(format!("unreadable stats answer: {response}")))
    }

    pub fn parse(response: &str) -> Option<Counters> {
        let json = Json::parse(response).ok()?;
        let r = json.get("result")?;
        let num =
            |path: &[&str]| -> Option<f64> { path.iter().try_fold(r, |v, k| v.get(k))?.as_f64() };
        Some(Counters {
            sims: num(&["sims"])?,
            store_hits: num(&["store", "hits"])?,
            store_misses: num(&["store", "misses"])?,
            appended: num(&["store", "appended_records"])?,
            plan_hits: num(&["plan", "hits"])?,
            plan_misses: num(&["plan", "misses"])?,
            wl_hits: num(&["wl", "hits"])?,
            wl_misses: num(&["wl", "misses"])?,
            batch_requests: num(&["endpoints", "eval_batch", "count"])?,
            session_steps: num(&["sessions", "steps"])?,
        })
    }

    fn zip(&self, other: &Counters, f: impl Fn(f64, f64) -> f64) -> Counters {
        Counters {
            sims: f(self.sims, other.sims),
            store_hits: f(self.store_hits, other.store_hits),
            store_misses: f(self.store_misses, other.store_misses),
            appended: f(self.appended, other.appended),
            plan_hits: f(self.plan_hits, other.plan_hits),
            plan_misses: f(self.plan_misses, other.plan_misses),
            wl_hits: f(self.wl_hits, other.wl_hits),
            wl_misses: f(self.wl_misses, other.wl_misses),
            batch_requests: f(self.batch_requests, other.batch_requests),
            session_steps: f(self.session_steps, other.session_steps),
        }
    }

    /// Field-wise `self - before`.
    pub fn since(&self, before: &Counters) -> Counters {
        self.zip(before, |a, b| a - b)
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }
}
