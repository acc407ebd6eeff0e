//! The closed-loop load generator: each client thread owns one
//! connection and sends its next request only after the previous
//! response line has arrived. Every response is checked as it arrives.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::fabric::Conn;
use crate::gen::{BoSessions, SESSION_STEPS};

/// Concurrent closed-loop clients (one per core of the 2-core host).
pub const CLIENTS: u64 = 2;

/// Checks one response to the request with id `id`: it must echo the
/// id and be `ok`, and an `eval_batch` result must hold no per-item
/// error frame. `Err` carries why the request counts as failed:
/// `ok:false` answers, typed frames (`overloaded`, `unavailable`, …) and
/// failed batch items alike.
pub fn classify(response: &str, id: u64) -> Result<(), String> {
    let prefix = format!("{{\"id\":{id},");
    let Some(rest) = response.strip_prefix(&prefix) else {
        return Err(format!("id {id} not echoed: {}", clip(response)));
    };
    if !rest.starts_with("\"ok\":true,\"result\":") {
        return Err(format!("not ok: {}", clip(response)));
    }
    if rest.contains("{\"error\":") {
        return Err(format!("item error: {}", clip(response)));
    }
    Ok(())
}

/// The response with its echoed id stripped: what must be byte-equal
/// whichever path (router, shard, in-process) produced it.
pub fn body(response: &str) -> &str {
    match response.find(",\"ok\":") {
        Some(i) => &response[i + 1..],
        None => response,
    }
}

fn clip(s: &str) -> String {
    s.chars().take(200).collect()
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Send-to-response times of the measured requests that succeeded,
    /// in ms.
    pub latencies_ms: Vec<f64>,
    /// Measured requests answered `ok`.
    pub measured_ok: u64,
    /// Every request sent, bookkeeping ones included.
    pub attempted: u64,
    /// Requests that failed (see [`classify`]) or lost their connection.
    pub failed: u64,
    /// The first failure reasons, for the report.
    pub failures: Vec<String>,
    /// `(position, body)` of the responses kept for the digest and the
    /// in-process comparison.
    pub kept: Vec<(u64, String)>,
}

impl ClientLog {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(reason);
        }
    }

    /// Sends one request and accounts for it. Returns the response when
    /// it passed [`classify`]; reconnects after a socket error.
    fn send(
        &mut self,
        conn: &mut Conn,
        addr: &str,
        line: &str,
        id: u64,
        measured: bool,
    ) -> Option<String> {
        self.attempted += 1;
        let started = Instant::now();
        match conn.request(line) {
            Ok(response) => {
                let ms = started.elapsed().as_secs_f64() * 1e3;
                match classify(&response, id) {
                    Ok(()) => {
                        if measured {
                            self.latencies_ms.push(ms);
                            self.measured_ok += 1;
                        }
                        Some(response)
                    }
                    Err(reason) => {
                        self.fail(reason);
                        None
                    }
                }
            }
            Err(e) => {
                self.fail(format!("socket error: {e}"));
                if let Ok(fresh) = Conn::connect(addr) {
                    *conn = fresh;
                }
                None
            }
        }
    }
}

/// Runs [`CLIENTS`] clients over request lines `line(i)`, `i` drawn
/// from the shared counter `next`, until `deadline`, and past it until
/// indices `0..kept` were all taken; their responses are kept.
pub fn run_indexed<F>(
    addr: &str,
    deadline: Instant,
    next: &AtomicU64,
    kept: u64,
    capacity: u64,
    line: F,
) -> io::Result<Vec<ClientLog>>
where
    F: Fn(u64) -> String + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let line = &line;
                scope.spawn(move || -> io::Result<ClientLog> {
                    let mut conn = Conn::connect(addr)?;
                    let mut log = ClientLog::default();
                    loop {
                        if Instant::now() >= deadline && next.load(Ordering::Relaxed) >= kept {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= capacity {
                            break;
                        }
                        let request = line(i);
                        if let Some(response) = log.send(&mut conn, addr, &request, i, true) {
                            if i < kept {
                                log.kept.push((i, body(&response).to_owned()));
                            }
                        }
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Runs [`CLIENTS`] clients, client `c` running its session `e` whole:
/// `open_session`, [`SESSION_STEPS`] `step`s and `close_session`. Only
/// `step` requests are measured; the open and the steps are kept at
/// positions `0..=SESSION_STEPS`.
pub fn run_sessions(addr: &str, gen: &BoSessions, e: u64) -> io::Result<Vec<ClientLog>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || -> io::Result<ClientLog> {
                    let mut conn = Conn::connect(addr)?;
                    let mut log = ClientLog::default();
                    let s = gen.session(client, e);
                    let open = gen.open_line(&s, 0);
                    if let Some(response) = log.send(&mut conn, addr, &open, 0, false) {
                        log.kept.push((0, body(&response).to_owned()));
                        for step in 1..=SESSION_STEPS {
                            let line = oa_serve::request::step(step, s.id);
                            if let Some(response) = log.send(&mut conn, addr, &line, step, true) {
                                log.kept.push((step, body(&response).to_owned()));
                            }
                        }
                    }
                    let close = oa_serve::request::close_session(SESSION_STEPS + 1, s.id);
                    log.send(&mut conn, addr, &close, SESSION_STEPS + 1, false);
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_answers_pass_and_bodies_drop_the_id() {
        let r = r#"{"id":7,"ok":true,"result":{"topology":3}}"#;
        assert_eq!(classify(r, 7), Ok(()));
        assert_eq!(body(r), r#""ok":true,"result":{"topology":3}}"#);
    }

    #[test]
    fn plain_ok_false_counts_as_failed() {
        let r = r#"{"id":3,"ok":false,"error":"unknown spec 'S-9' (expected S-1..S-5)"}"#;
        assert!(classify(r, 3).unwrap_err().starts_with("not ok"));
    }

    #[test]
    fn typed_router_frames_count_as_failed() {
        for kind in ["overloaded", "unavailable"] {
            let r = format!(r#"{{"id":4,"ok":false,"error":{{"kind":"{kind}"}}}}"#);
            assert!(classify(&r, 4).is_err(), "{kind}");
        }
    }

    #[test]
    fn failed_batch_items_and_wrong_ids_count_as_failed() {
        let r = r#"{"id":5,"ok":true,"result":{"n":2,"items":[{"topology":1},{"error":{"kind":"sim","detail":"x"}}]}}"#;
        assert!(classify(r, 5).unwrap_err().starts_with("item error"));
        let r = r#"{"id":6,"ok":true,"result":{}}"#;
        assert!(classify(r, 60).unwrap_err().contains("not echoed"));
    }

    #[test]
    fn failure_accounting_counts_ok_false_and_typed_frames() {
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let answers = [
                r#"{"id":1,"ok":true,"result":{}}"#,
                r#"{"id":2,"ok":false,"error":"bad request JSON"}"#,
                r#"{"id":3,"ok":false,"error":{"kind":"overloaded"}}"#,
            ];
            for answer in answers {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                writeln!(writer, "{answer}").unwrap();
            }
        });
        let mut conn = Conn::connect(&addr).unwrap();
        let mut log = ClientLog::default();
        for id in 1..=3 {
            log.send(&mut conn, &addr, "{}", id, true);
        }
        server.join().unwrap();
        assert_eq!((log.attempted, log.failed, log.measured_ok), (3, 2, 1));
        assert_eq!(log.latencies_ms.len(), 1);
        assert_eq!(log.failures.len(), 2);
    }
}
