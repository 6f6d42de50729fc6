//! The listener, worker pool and request routing.
//!
//! One layer of threads. Every worker blocks in `accept` on the shared
//! `TcpListener` and serves the connection it took, so the thread the
//! kernel wakes for a connection reads the request, runs it and writes
//! the answer: no thread hands a socket to another. When every worker is
//! busy, new connections wait in the kernel's accept queue (the listen
//! backlog) until one is free; the server never holds a connection it is
//! not serving.
//!
//! A worker runs a request's session work inline, under that session's
//! lock (see [`crate::sessions::Session`]), so the pool is the only set
//! of threads that does session work. Per-connection socket read
//! timeouts and the [`crate::http::Limits`] caps keep a slow or hostile
//! client from wedging a worker.

use crate::http::{read_request, HttpError, Limits, Request, Response};
use crate::sessions::{SessionError, SessionManager, SessionStatus};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tsm_core::json;
use tsm_core::metrics::{Counter, Hist};
use tsm_core::SessionHealth;

/// Serving configuration (see `tsm help` for the CLI surface).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks an ephemeral
    /// port; see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads, each accepting and serving one connection at a
    /// time (at least one). With all of them busy, new connections wait
    /// in the kernel's accept queue.
    pub workers: usize,
    /// Live session cap (the table sheds with `503` beyond it).
    pub sessions_max: usize,
    /// Requests that may wait for a busy session (beyond → `429`).
    pub ingest_queue: usize,
    /// Maximum request body bytes (beyond → `413`).
    pub max_body_bytes: usize,
    /// Maximum request head bytes (beyond → `413`).
    pub max_head_bytes: usize,
    /// Socket read timeout per connection, ms (idle mid-request → `408`).
    pub read_timeout_ms: u64,
    /// Default prediction horizon Δt (s) for `/predict`.
    pub horizon: f64,
    /// `Retry-After` value (s) on shed responses.
    pub retry_after_s: u32,
    /// Seal sessions idle (no request touched them) for this many
    /// milliseconds; `0` disables eviction. Evicted sessions persist
    /// their stream into the store, so their history stays queryable.
    pub idle_timeout_ms: u64,
    /// Checkpoint the WAL into a snapshot after this many appends;
    /// `0` disables. Only meaningful with a WAL-attached manager.
    pub checkpoint_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            sessions_max: 64,
            ingest_queue: 32,
            max_body_bytes: 1 << 20,
            max_head_bytes: 16 << 10,
            read_timeout_ms: 5_000,
            horizon: 0.3,
            retry_after_s: 1,
            idle_timeout_ms: 0,
            checkpoint_every: 0,
        }
    }
}

/// A running server: its worker pool and the session table. Dropping
/// (or [`Server::shutdown`]) stops and joins the workers; the live
/// sessions go with the last handle on the session table.
pub struct Server {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
    maintenance: Option<std::thread::JoinHandle<()>>,
    manager: Arc<SessionManager>,
}

impl Server {
    /// Binds `config.addr` and starts the worker pool over `manager`'s
    /// engine.
    pub fn start(manager: Arc<SessionManager>, config: ServeConfig) -> std::io::Result<Server> {
        let listener = Arc::new(TcpListener::bind(&config.addr)?);
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let config = Arc::new(config);
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let listener = Arc::clone(&listener);
                let stop = Arc::clone(&stop);
                let manager = Arc::clone(&manager);
                let config = Arc::clone(&config);
                std::thread::spawn(move || serve_loop(&listener, &stop, &manager, &config))
            })
            .collect();
        let maintenance = (config.idle_timeout_ms > 0
            || (config.checkpoint_every > 0 && manager.is_durable()))
        .then(|| {
            let stop = Arc::clone(&stop);
            let manager = Arc::clone(&manager);
            let config = Arc::clone(&config);
            std::thread::spawn(move || maintenance_loop(&stop, &manager, &config))
        });
        Ok(Server {
            local_addr,
            stop,
            workers,
            maintenance,
            manager,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The session table this server serves.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Serves until the process dies: blocks until every worker has
    /// exited, which only a panic in each of them makes happen.
    pub fn wait(mut self) {
        self.join_workers();
    }

    /// Stops accepting, finishes the requests in flight and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // Relaxed: the self-connections below are the actual wake-up
        // edge; the flag only needs to eventually be seen.
        self.stop.store(true, Ordering::Relaxed);
        // Wake every worker out of accept() by connecting to ourselves,
        // once per worker: each worker exits on the first connection it
        // accepts after the flag is set, so a worker busy with a request
        // finds its wake-up still queued when it comes back to accept.
        for _ in 0..self.workers.len() {
            // lint:allow(no-silent-result-drop): if the connect fails the
            // listener is already gone, which is what we wanted.
            let _ = TcpStream::connect(self.local_addr);
        }
        self.join_workers();
        if let Some(m) = self.maintenance.take() {
            m.thread().unpark();
            // lint:allow(no-silent-result-drop): join is lifecycle only.
            let _ = m.join();
        }
    }

    fn join_workers(&mut self) {
        for w in self.workers.drain(..) {
            // lint:allow(no-silent-result-drop): a panicked worker has
            // already lost its one connection; join is lifecycle only.
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The serve-side maintenance worker: seals idle sessions and
/// checkpoints the WAL into snapshots, both off the request path. Parks
/// between rounds so shutdown can wake it immediately.
fn maintenance_loop(stop: &AtomicBool, manager: &SessionManager, config: &ServeConfig) {
    let idle = Duration::from_millis(config.idle_timeout_ms);
    // Check often enough that an eviction lands within ~an interval of
    // the deadline, but never spin: at least every 50 ms, at most 1 s.
    let interval = if config.idle_timeout_ms > 0 {
        Duration::from_millis((config.idle_timeout_ms / 4).clamp(50, 1000))
    } else {
        Duration::from_millis(1000)
    };
    let metrics = manager.engine().metrics().clone();
    // Relaxed: pure stop signal; the join in stop_and_join synchronizes.
    while !stop.load(Ordering::Relaxed) {
        if config.idle_timeout_ms > 0 {
            manager.evict_idle(idle);
        }
        if config.checkpoint_every > 0 {
            if let Some(wal) = manager.wal() {
                if wal.appends_since_checkpoint() >= config.checkpoint_every {
                    match wal.checkpoint(manager.engine().matcher().store()) {
                        Ok(Some(report)) => {
                            metrics.incr(Counter::SnapshotCheckpoints);
                            metrics.add(Counter::SnapshotRecords, report.snapshot_streams);
                        }
                        // None: lost the checkpoint race — nothing to do.
                        Ok(None) => {}
                        // Retried at the next threshold crossing; the
                        // uncompacted segments keep durability intact.
                        Err(_) => {}
                    }
                }
            }
        }
        std::thread::park_timeout(interval);
    }
}

/// One worker: accept a connection, serve it, repeat. Blocking in
/// `accept` holds nothing another thread needs; the kernel hands each
/// connection to one waiting worker.
fn serve_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    manager: &SessionManager,
    config: &ServeConfig,
) {
    for stream in listener.incoming() {
        // Relaxed: see Server::stop_and_join — the wake connection, not
        // the flag, provides the synchronization edge.
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else {
            continue; // transient accept failure; keep serving
        };
        handle_connection(&stream, manager, config);
    }
}

fn handle_connection(stream: &TcpStream, manager: &SessionManager, config: &ServeConfig) {
    let metrics = manager.engine().metrics().clone();
    let started = metrics.start();
    // lint:allow(no-silent-result-drop): a socket so broken it cannot
    // take a timeout will fail the first read with the same error.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(config.read_timeout_ms.max(1))));
    // lint:allow(no-silent-result-drop): see read timeout above.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(config.read_timeout_ms.max(1))));
    let limits = Limits {
        max_head_bytes: config.max_head_bytes,
        max_body_bytes: config.max_body_bytes,
    };
    let response = match read_request(&mut BufReader::new(stream), limits) {
        Ok(req) => {
            metrics.add(Counter::ServeBytesIn, req.body.len() as u64);
            route(&req, manager, config)
        }
        Err(HttpError::BadRequest(msg)) => Response::error(400, &msg),
        Err(HttpError::TooLarge(msg)) => Response::error(413, &msg),
        Err(HttpError::Timeout) => Response::error(408, "request timed out"),
        Err(HttpError::Io(_)) => return, // peer vanished; nothing to say
    };
    metrics.incr(Counter::ServeRequests);
    if response.status >= 400 {
        metrics.incr(Counter::ServeRejected);
    }
    metrics.add(Counter::ServeBytesOut, response.body.len() as u64);
    // lint:allow(no-silent-result-drop): the peer may have closed before
    // reading the response; there is no one left to tell.
    let _ = response.write_to(&mut &*stream);
    metrics.observe_since(Hist::ServeLatency, started);
}

fn session_error_response(e: &SessionError, retry_after_s: u32) -> Response {
    let status = match e {
        SessionError::Unknown(_) => return Response::error(404, &e.to_string()),
        SessionError::BadName(_) => return Response::error(400, &e.to_string()),
        SessionError::Runtime(_) => return Response::error(500, &e.to_string()),
        SessionError::Busy => 429,
        SessionError::TableFull { .. } | SessionError::Failed | SessionError::Poisoned => 503,
    };
    Response::shed(status, &e.to_string(), retry_after_s)
}

fn json_f64(v: f64) -> String {
    // JSON has no NaN/inf literal; render them as null.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn route(req: &Request, manager: &SessionManager, config: &ServeConfig) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", path) if path.starts_with("/ingest/") => {
            ingest(req, &path["/ingest/".len()..], manager, config)
        }
        ("GET", "/query") => query(req, manager, config),
        ("GET", "/predict") => predict(req, manager, config),
        ("GET", "/metrics") => metrics_endpoint(req, manager),
        ("GET", "/healthz") => healthz(manager),
        (_, "/query" | "/predict" | "/metrics" | "/healthz") => {
            Response::error(405, &format!("{} not allowed here", req.method))
        }
        (_, path) if path.starts_with("/ingest/") => {
            Response::error(405, &format!("{} not allowed here", req.method))
        }
        (_, path) => Response::error(404, &format!("no route for '{path}'")),
    }
}

fn ingest(req: &Request, name: &str, manager: &SessionManager, config: &ServeConfig) -> Response {
    let samples = match tsm_model::csv::read_samples_csv(req.body.as_slice()) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &format!("ingest body: {e}")),
    };
    let committed = match manager
        .get_or_create(name)
        .and_then(|session| session.ingest(&samples))
    {
        Ok(committed) => committed,
        Err(e) => return session_error_response(&e, config.retry_after_s),
    };
    let accepted = samples.len();
    if !manager.is_durable() {
        return Response::json(
            202,
            format!(
                "{{\"session\": {}, \"accepted\": {accepted}}}\n",
                json::string(name)
            ),
        );
    }
    // The durable contract: push + WAL fsync completed before the
    // acknowledgement leaves, so a `200` here survives a crash.
    match committed {
        Ok(seq) => Response::json(
            200,
            format!(
                "{{\"session\": {}, \"accepted\": {accepted}, \"durable\": true, \
                 \"wal_seq\": {}}}\n",
                json::string(name),
                seq.map_or("null".into(), |s| s.to_string()),
            ),
        ),
        Err(e) => Response::error(500, &format!("durable ingest: {e}")),
    }
}

fn query(req: &Request, manager: &SessionManager, config: &ServeConfig) -> Response {
    let Some(name) = req.param("session") else {
        return Response::error(400, "missing 'session' parameter");
    };
    let top_k = match req.param("k") {
        None => None,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if k > 0 => Some(k),
            _ => return Response::error(400, &format!("bad 'k' value '{raw}'")),
        },
    };
    match manager.get(name).and_then(|session| session.query(top_k)) {
        Err(e) => session_error_response(&e, config.retry_after_s),
        Ok(None) => Response::json(
            200,
            format!(
                "{{\"session\": {}, \"query_len\": 0, \"matches\": []}}\n",
                json::string(name)
            ),
        ),
        Ok(Some(reply)) => {
            let mut body = format!(
                "{{\"session\": {}, \"query_len\": {}, \"matches\": [",
                json::string(name),
                reply.query_len
            );
            for (i, m) in reply.matches.iter().enumerate() {
                if i > 0 {
                    body.push_str(", ");
                }
                body.push_str(&format!(
                    "{{\"stream\": {}, \"start\": {}, \"len\": {}, \"distance\": {}, \
                     \"ws\": {}, \"relation\": {}}}",
                    m.subseq.stream.0,
                    m.subseq.start,
                    m.subseq.len,
                    json_f64(m.distance),
                    json_f64(m.ws),
                    json::string(&format!("{:?}", m.relation)),
                ));
            }
            body.push_str("]}\n");
            Response::json(200, body)
        }
    }
}

fn predict(req: &Request, manager: &SessionManager, config: &ServeConfig) -> Response {
    let Some(name) = req.param("session") else {
        return Response::error(400, "missing 'session' parameter");
    };
    let dt = match req.param("dt") {
        None => manager.horizon(),
        Some(raw) => match raw.parse::<f64>() {
            Ok(dt) if dt.is_finite() && dt > 0.0 => dt,
            _ => return Response::error(400, &format!("bad 'dt' value '{raw}'")),
        },
    };
    match manager.get(name).and_then(|session| session.predict(dt)) {
        Err(e) => session_error_response(&e, config.retry_after_s),
        Ok(None) => Response::json(
            200,
            format!(
                "{{\"session\": {}, \"dt\": {}, \"prediction\": null}}\n",
                json::string(name),
                json_f64(dt)
            ),
        ),
        Ok(Some(outcome)) => {
            let coords: Vec<String> = outcome
                .position
                .coords()
                .iter()
                .map(|&c| json_f64(c))
                .collect();
            Response::json(
                200,
                format!(
                    "{{\"session\": {}, \"dt\": {}, \"prediction\": {{\"position\": [{}], \
                     \"num_matches\": {}, \"query_len\": {}, \"query_stable\": {}}}}}\n",
                    json::string(name),
                    json_f64(dt),
                    coords.join(", "),
                    outcome.num_matches,
                    outcome.query_len,
                    outcome.query_stable,
                ),
            )
        }
    }
}

fn metrics_endpoint(req: &Request, manager: &SessionManager) -> Response {
    let snapshot = manager.engine().metrics().snapshot();
    if req.param("check").is_some_and(|v| v != "0") {
        // Opt-in reconciliation (CI probes it at quiescence; a live
        // in-flight request could skew cross-counter sums transiently).
        if let Err(violation) = snapshot.check_invariants() {
            return Response::error(500, &format!("metrics invariant violated: {violation}"));
        }
    }
    Response::json(200, snapshot.to_json())
}

fn health_label(h: SessionHealth) -> &'static str {
    match h {
        SessionHealth::Healthy => "healthy",
        SessionHealth::Degraded => "degraded",
        SessionHealth::Recovering => "recovering",
    }
}

fn healthz(manager: &SessionManager) -> Response {
    let statuses = manager.statuses();
    let all_ok = statuses
        .iter()
        .all(|(_, s)| !s.failed && s.health == SessionHealth::Healthy);
    let mut body = format!(
        "{{\"status\": \"{}\", \"sessions\": {{",
        if all_ok { "ok" } else { "degraded" }
    );
    for (i, (name, s)) in statuses.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&format!("{}: {}", json::string(name), status_json(s)));
    }
    body.push_str("}}\n");
    Response::json(200, body)
}

fn status_json(s: &SessionStatus) -> String {
    format!(
        "{{\"health\": \"{}\", \"failed\": {}, \"samples\": {}, \"vertices\": {}, \
         \"resyncs\": {}, \"faults_absorbed\": {}, \"pending\": {}}}",
        health_label(s.health),
        s.failed,
        s.samples,
        s.vertices,
        s.resyncs,
        s.faults_absorbed,
        s.pending
    )
}
