//! End-to-end socket tests: a real server on an ephemeral port, driven
//! by hand-written HTTP over `TcpStream`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tsm_core::index_cache::CachedMatcher;
use tsm_core::matcher::Matcher;
use tsm_core::{MetricsRegistry, Params};
use tsm_db::{PatientAttributes, StreamStore};
use tsm_model::{segment_signal, PlrTrajectory, SegmenterConfig};
use tsm_serve::{ServeConfig, Server, SessionManager};
use tsm_signal::{BreathingParams, SignalGenerator};

fn seeded_engine(seed: u64) -> Arc<CachedMatcher> {
    let store = StreamStore::new();
    let patient = store.add_patient(PatientAttributes::new());
    let samples = SignalGenerator::new(BreathingParams::default(), seed).generate(120.0);
    let vertices = segment_signal(&samples, SegmenterConfig::clean());
    let plr = PlrTrajectory::from_vertices(vertices).unwrap();
    store.add_stream(patient, 0, plr, samples.len());
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    Arc::new(CachedMatcher::new(
        Matcher::new(store, params).with_metrics(MetricsRegistry::enabled()),
    ))
}

fn start_server(seed: u64, config: ServeConfig) -> Server {
    let engine = seeded_engine(seed);
    let manager = Arc::new(SessionManager::new(
        engine,
        config.sessions_max,
        config.ingest_queue,
        config.horizon,
    ));
    let mut config = config;
    config.addr = "127.0.0.1:0".into();
    Server::start(manager, config).expect("ephemeral bind")
}

fn csv_body(seed: u64, duration: f64) -> String {
    let samples = SignalGenerator::new(BreathingParams::default(), seed).generate(duration);
    let mut body = String::new();
    for s in &samples {
        body.push_str(&format!("{:.6},{:.6}\n", s.time, s.position[0]));
    }
    body
}

/// Sends raw bytes, reads to EOF, returns (status, full response text).
fn send_raw(addr: std::net::SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // The server may reject (and respond + close) before the whole
    // request is written — e.g. an oversized head — so a failed write or
    // a reset after the response are both expected shapes here.
    let _ = stream.write_all(raw);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) if !buf.is_empty() => break, // RST after the response
            Err(e) => panic!("no response at all: {e}"),
        }
    }
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    (status, text)
}

fn get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let (status, text) = send_raw(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    );
    (status, body_of(&text))
}

fn post(addr: std::net::SocketAddr, target: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, text) = send_raw(addr, raw.as_bytes());
    (status, body_of(&text))
}

fn body_of(response: &str) -> String {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

/// Polls `/healthz` until the named session has drained `samples`.
fn wait_for_drain(addr: std::net::SocketAddr, session: &str, samples: usize) {
    for _ in 0..600 {
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        if body.contains(&format!("\"samples\": {samples}")) && body.contains(session) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("session '{session}' never drained {samples} samples");
}

#[test]
fn ingest_query_predict_round_trip() {
    let server = start_server(70, ServeConfig::default());
    let addr = server.local_addr();

    let body = csv_body(71, 60.0);
    let n = body.lines().count();
    let (status, reply) = post(addr, "/ingest/room-a", &body);
    assert_eq!(status, 202, "{reply}");
    tsm_core::json::validate(&reply).unwrap();
    assert!(reply.contains("\"session\": \"room-a\""));
    assert!(reply.contains(&format!("\"accepted\": {n}")));

    wait_for_drain(addr, "room-a", n);

    let (status, reply) = get(addr, "/query?session=room-a&k=5");
    assert_eq!(status, 200, "{reply}");
    tsm_core::json::validate(&reply).unwrap();
    assert!(reply.contains("\"matches\": [{"), "no matches in {reply}");
    assert!(reply.contains("\"distance\": "));

    let (status, reply) = get(addr, "/predict?session=room-a&dt=0.3");
    assert_eq!(status, 200, "{reply}");
    tsm_core::json::validate(&reply).unwrap();
    assert!(
        reply.contains("\"position\": ["),
        "warm session abstained: {reply}"
    );

    // Unknown session and bad parameters are structured client errors.
    assert_eq!(get(addr, "/query?session=nope").0, 404);
    assert_eq!(get(addr, "/query").0, 400);
    assert_eq!(get(addr, "/query?session=room-a&k=zero").0, 400);
    assert_eq!(get(addr, "/predict?session=room-a&dt=-1").0, 400);
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(post(addr, "/ingest/bad%2Fname", "0.0,1.0\n").0, 400);

    // At quiescence /metrics reconciles and parses, serve counters
    // included.
    let (status, metrics) = get(addr, "/metrics?check=1");
    assert_eq!(status, 200, "{metrics}");
    tsm_core::json::validate(&metrics).unwrap();
    assert!(metrics.contains("\"serve.requests\": "));
    assert!(metrics.contains("\"serve.request_latency_ns\""));

    server.shutdown();
}

#[test]
fn malformed_requests_get_400() {
    let server = start_server(72, ServeConfig::default());
    let addr = server.local_addr();
    for raw in [
        &b"GARBAGE\r\n\r\n"[..],
        b"GET /metrics HTTP/2.0\r\n\r\n",
        b"GET /metrics HTTP/1.1\r\nbroken header line\r\n\r\n",
        b"POST /ingest/a HTTP/1.1\r\nContent-Length: oops\r\n\r\n",
    ] {
        let (status, text) = send_raw(addr, raw);
        assert_eq!(status, 400, "{:?} -> {text}", String::from_utf8_lossy(raw));
        tsm_core::json::validate(&body_of(&text)).unwrap();
    }
    // A malformed ingest body is a 400 naming the line.
    let (status, reply) = post(addr, "/ingest/a", "0.0,1.0\n0.1,wat\n");
    assert_eq!(status, 400);
    assert!(reply.contains("line 2"), "{reply}");
    server.shutdown();
}

#[test]
fn oversized_bodies_get_413() {
    let config = ServeConfig {
        max_body_bytes: 512,
        ..ServeConfig::default()
    };
    let server = start_server(73, config);
    let addr = server.local_addr();
    // Declared up front: rejected from the Content-Length header alone.
    let (status, _) = post(addr, "/ingest/a", &"0.0,1.0\n".repeat(200));
    assert_eq!(status, 413);
    // Smuggled via chunking: rejected when the cap is crossed.
    let chunk = "0.0,1.0\n".repeat(100);
    let raw = format!(
        "POST /ingest/a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{chunk}\r\n0\r\n\r\n",
        chunk.len()
    );
    let (status, _) = send_raw(addr, raw.as_bytes());
    assert_eq!(status, 413);
    // An oversized request head is also a 413.
    let raw = format!(
        "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(32768)
    );
    let (status, _) = send_raw(addr, raw.as_bytes());
    assert_eq!(status, 413);
    server.shutdown();
}

#[test]
fn stalled_connections_time_out_with_408() {
    let config = ServeConfig {
        read_timeout_ms: 300,
        ..ServeConfig::default()
    };
    let server = start_server(74, config);
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Half a request line, then silence: the worker must cut us loose.
    stream.write_all(b"GET /hea").unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("server closed cleanly");
    let text = String::from_utf8_lossy(&buf);
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "expected 408, got {text:?}"
    );
    // The worker is free again: a normal request succeeds afterwards.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    server.shutdown();
}

/// Opens a connection that sends half a request line and then stalls.
fn stall(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"GET /hea").unwrap();
    stream
}

/// Reads a stalled connection's answer, which must be the `408`.
fn expect_408(mut stream: TcpStream) {
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("server closed cleanly");
    let text = String::from_utf8_lossy(&buf);
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "expected 408, got {text:?}"
    );
}

#[test]
fn stalled_client_does_not_delay_other_requests() {
    let config = ServeConfig {
        read_timeout_ms: 3000,
        ..ServeConfig::default()
    };
    assert_eq!(config.workers, 4);
    let server = start_server(80, config);
    let addr = server.local_addr();
    let stalled = stall(addr);
    // Three workers stay free while one waits on the stalled client, so
    // no request queues behind it.
    for i in 0..20 {
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "request {i}: {body}");
    }
    // Every request above was answered before the stalled connection's
    // read timeout: nothing has come back on it yet.
    stalled.set_nonblocking(true).unwrap();
    let err = stalled
        .peek(&mut [0u8; 1])
        .expect_err("the stalled connection was answered before the other requests finished");
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
    stalled.set_nonblocking(false).unwrap();
    expect_408(stalled);
    server.shutdown();
}

#[test]
fn saturated_pool_waits_instead_of_shedding() {
    let config = ServeConfig {
        workers: 1,
        read_timeout_ms: 500,
        ..ServeConfig::default()
    };
    let server = start_server(81, config);
    let addr = server.local_addr();
    // The stalled connection is first in the accept queue, so it holds
    // the only worker until its read times out.
    let stalled = stall(addr);
    let statuses: Vec<(u16, String)> = std::thread::scope(|scope| {
        let calls: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| get(addr, "/healthz")))
            .collect();
        calls.into_iter().map(|c| c.join().unwrap()).collect()
    });
    expect_408(stalled);
    for (status, body) in statuses {
        assert_eq!(status, 200, "a waiting connection was not served: {body}");
    }
    server.shutdown();
}

/// Runs `stop` on a helper thread and fails unless it returns within
/// five seconds, so a lost wake-up fails the test instead of hanging it.
fn assert_returns_promptly(what: &str, stop: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        stop();
        // The receiver is gone only once the deadline has failed the test.
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
        "{what} did not return within 5 s"
    );
}

#[test]
fn shutdown_is_bounded() {
    for workers in [1, 4] {
        for stalled in [false, true] {
            for by_drop in [false, true] {
                let config = ServeConfig {
                    workers,
                    read_timeout_ms: 300,
                    ..ServeConfig::default()
                };
                let server = start_server(82, config);
                let addr = server.local_addr();
                assert_eq!(get(addr, "/healthz").0, 200);
                // A stalled client keeps one worker inside its request
                // for up to the read timeout. Give a worker a moment to
                // take it; the shutdown must be bounded whichever way
                // that race goes.
                let client = stalled.then(|| stall(addr));
                if stalled {
                    std::thread::sleep(Duration::from_millis(50));
                }
                let what = format!(
                    "{} with {workers} workers{}",
                    if by_drop { "drop" } else { "shutdown" },
                    if stalled { ", one stalled" } else { "" }
                );
                if by_drop {
                    assert_returns_promptly(&what, move || drop(server));
                } else {
                    assert_returns_promptly(&what, move || server.shutdown());
                }
                drop(client);
            }
        }
    }
}

#[test]
fn saturated_session_sheds_with_429_and_retry_after() {
    let config = ServeConfig {
        ingest_queue: 1,
        workers: 4,
        ..ServeConfig::default()
    };
    let server = start_server(75, config);
    let addr = server.local_addr();
    // Six clients post large batches to one session at once. The session
    // runs one batch at a time and lets one more wait, so a third
    // concurrent request must shed with 429 + Retry-After, never block.
    // Four workers take four connections at once and the other two wait
    // in the accept queue, so nothing else sheds.
    let batch = csv_body(76, 240.0);
    let raw = format!(
        "POST /ingest/hot HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{batch}",
        batch.len()
    );
    let saw_429 = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            scope.spawn(|| {
                for _ in 0..100 {
                    if saw_429.load(Ordering::Relaxed) {
                        return;
                    }
                    let (status, text) = send_raw(addr, raw.as_bytes());
                    match status {
                        202 => {}
                        429 => {
                            assert!(
                                text.contains("Retry-After:"),
                                "429 without Retry-After: {text}"
                            );
                            tsm_core::json::validate(&body_of(&text)).unwrap();
                            saw_429.store(true, Ordering::Relaxed);
                        }
                        other => panic!("unexpected status {other}: {text}"),
                    }
                }
            });
        }
    });
    assert!(saw_429.into_inner(), "saturated session never answered 429");
    // The server is still live and the metrics funnel recorded the shed.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    tsm_core::json::validate(&metrics).unwrap();
    assert!(!metrics.contains("\"serve.rejected\": 0"), "{metrics}");
    server.shutdown();
}

#[test]
fn exhausted_fault_budget_sheds_ingest_but_keeps_reads() {
    let server = start_server(87, ServeConfig::default());
    let addr = server.local_addr();
    // One bad sample past the default budget of 64.
    let poison: String = (0..65).map(|i| format!("{i},NaN\n")).collect();
    assert_eq!(post(addr, "/ingest/sick", &poison).0, 202);

    let raw = b"POST /ingest/sick HTTP/1.1\r\nHost: t\r\nContent-Length: 8\r\n\r\n99.0,1.0";
    let (status, text) = send_raw(addr, raw);
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("Retry-After:"), "{text}");
    tsm_core::json::validate(&body_of(&text)).unwrap();

    // Reads keep answering from the data the session already holds.
    let (status, reply) = get(addr, "/query?session=sick");
    assert_eq!(status, 200, "{reply}");
    tsm_core::json::validate(&reply).unwrap();
    let (status, reply) = get(addr, "/predict?session=sick");
    assert_eq!(status, 200, "{reply}");
    tsm_core::json::validate(&reply).unwrap();
    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(health.contains("\"failed\": true"), "{health}");

    let (status, metrics) = get(addr, "/metrics?check=1");
    assert_eq!(status, 200, "{metrics}");
    assert_eq!(
        counter_in(&metrics, "cohort.faults_absorbed"),
        64,
        "{metrics}"
    );
    assert_eq!(
        counter_in(&metrics, "cohort.sessions_failed"),
        1,
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn session_table_cap_sheds_with_503() {
    let config = ServeConfig {
        sessions_max: 2,
        ..ServeConfig::default()
    };
    let server = start_server(77, config);
    let addr = server.local_addr();
    assert_eq!(post(addr, "/ingest/a", "0.0,1.0\n").0, 202);
    assert_eq!(post(addr, "/ingest/b", "0.0,1.0\n").0, 202);
    let raw = b"POST /ingest/c HTTP/1.1\r\nHost: t\r\nContent-Length: 8\r\n\r\n0.0,1.0\n";
    let (status, text) = send_raw(addr, raw);
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("Retry-After:"), "{text}");
    // Existing sessions keep working.
    assert_eq!(post(addr, "/ingest/a", "0.1,1.1\n").0, 202);
    server.shutdown();
}

/// The value of counter `name` in a `/metrics` body.
fn counter_in(metrics: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = metrics.find(&key).unwrap_or_else(|| panic!("no {name}"));
    let digits: String = metrics[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn repeated_predict_is_served_from_the_memo() {
    let server = start_server(78, ServeConfig::default());
    let addr = server.local_addr();
    let body = csv_body(79, 60.0);
    let n = body.lines().count();
    assert_eq!(post(addr, "/ingest/memo", &body).0, 202);
    wait_for_drain(addr, "memo", n);

    // No ingest in between: the same query, store and dt.
    let (status, first) = get(addr, "/predict?session=memo&dt=0.3");
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"position\": ["), "abstained: {first}");
    let (status, second) = get(addr, "/predict?session=memo&dt=0.3");
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second, "a repeated /predict changed its answer");

    let (status, metrics) = get(addr, "/metrics?check=1");
    assert_eq!(status, 200, "{metrics}");
    assert!(counter_in(&metrics, "predict.memo_hits") >= 1, "{metrics}");
    assert!(
        counter_in(&metrics, "match.searches") < counter_in(&metrics, "predict.lookups"),
        "{metrics}"
    );
    server.shutdown();
}
