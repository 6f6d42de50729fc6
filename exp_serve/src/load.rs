//! The untraced end-to-end phase: a real `tsm serve` process driven over
//! loopback by closed-loop treatment-room clients, each waiting for its
//! answer before it sends the next request. Everything here is timed from
//! outside the server: client clocks, `/proc/<pid>`, and `/metrics`
//! scrapes at quiescence.

use crate::http::{self, Reply};
use crate::json;
use crate::server::{self, Server};
use crate::workload::{Inputs, Req, Workload, CLIENTS, PRIME_SAMPLES, QUERY_K, WARMUP_S};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// What a run needs to drive one workload.
pub struct Ctx<'a> {
    pub w: &'static Workload,
    pub tsm: &'a Path,
    pub inputs: &'a Inputs,
    /// Scratch directory for WAL directories and server logs.
    pub work: &'a Path,
    /// Length of the timed phase.
    pub seconds: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Predict,
    Query,
}

/// One timed request. Status 0 is a transport failure.
#[derive(Debug, Clone, Copy)]
pub struct Obs {
    pub kind: Kind,
    pub status: u16,
    pub connect_ns: u64,
    pub total_ns: u64,
}

impl Obs {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A read's answer kept for the output checks: which session, how many of
/// its samples the server had acknowledged before answering, the body.
#[derive(Debug, Clone)]
pub struct Answer {
    pub session: usize,
    pub samples: usize,
    pub body: String,
}

/// Everything the end-to-end phase measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Timed-phase requests.
    pub obs: Vec<Obs>,
    /// Timed-phase closed-loop step latencies, ns.
    pub steps_ns: Vec<f64>,
    pub timed_s: f64,
    /// Samples acknowledged during the timed phase.
    pub acked_samples: u64,
    pub server_cpu_s: f64,
    pub loadgen_cpu_s: f64,
    /// Highest `VmHWM` of the server(s), KiB.
    pub peak_rss_kb: u64,
    pub threads: u64,
    pub rss_kb_per_session: f64,
    /// `/metrics` counters at quiescence (summed over churn epochs;
    /// `_hwm` gauges take the max).
    pub counters: BTreeMap<String, u64>,
    pub wal_bytes: u64,
    /// CSV bytes of every acknowledged ingest, priming included.
    pub acked_csv_bytes: u64,
    /// Every `/predict` answer of the static workloads, warm-up included.
    pub predicts: Vec<Answer>,
    /// The final `/query?k=10` of every static predicting session.
    pub queries: Vec<Answer>,
    /// Failed output checks.
    pub failures: Vec<String>,
}

/// One client's record.
#[derive(Default)]
struct Log {
    obs: Vec<Obs>,
    steps_ns: Vec<f64>,
    predicts: Vec<Answer>,
    /// Requests that reached the server (it counts each one).
    sent: u64,
    acked_samples: u64,
    acked_csv_bytes: u64,
    max_wal_seq: u64,
    /// Samples the script has sent the session of the latest ingest: a
    /// step's read follows its own session's ingest.
    script_samples: usize,
    last_timed_end: Option<Instant>,
    /// Steps completed per session.
    steps: Vec<(usize, usize)>,
    first_error: Option<String>,
}

impl Log {
    fn absorb(&mut self, other: Log) {
        self.obs.extend(other.obs);
        self.steps_ns.extend(other.steps_ns);
        self.predicts.extend(other.predicts);
        self.sent += other.sent;
        self.acked_samples += other.acked_samples;
        self.acked_csv_bytes += other.acked_csv_bytes;
        self.max_wal_seq = self.max_wal_seq.max(other.max_wal_seq);
        self.last_timed_end = self.last_timed_end.max(other.last_timed_end);
        self.steps.extend(other.steps);
        self.first_error = self.first_error.take().or(other.first_error);
    }

    /// Sends one scripted request; `timed` says whether it counts.
    fn issue(&mut self, addr: SocketAddr, ctx: &Ctx, req: Req, timed: bool) {
        let w = ctx.w;
        let sources = &ctx.inputs.sources;
        let (kind, session, reply, csv_bytes, samples) = match req {
            Req::Ingest { session, from, n } => {
                let body = sources[w.source_of(session, sources.len())].csv(from, n);
                let target = format!("/ingest/{}", w.session_name(session));
                let reply = http::call(addr, "POST", &target, &body);
                (Kind::Ingest, session, reply, body.len(), from + n)
            }
            Req::Predict { session } => {
                let target = format!("/predict?session={}", w.session_name(session));
                (Kind::Predict, session, http::get(addr, &target), 0, 0)
            }
            Req::Query { session } => {
                let target = format!("/query?session={}&k={QUERY_K}", w.session_name(session));
                (Kind::Query, session, http::get(addr, &target), 0, 0)
            }
            Req::Seal { .. } => return,
        };
        if kind == Kind::Ingest {
            self.script_samples = samples;
        }
        let obs = match &reply {
            Ok(r) => {
                self.sent += 1;
                Obs {
                    kind,
                    status: r.status,
                    connect_ns: r.connect_ns,
                    total_ns: r.total_ns,
                }
            }
            Err(e) => {
                self.first_error.get_or_insert_with(|| e.clone());
                Obs {
                    kind,
                    status: 0,
                    connect_ns: 0,
                    total_ns: 0,
                }
            }
        };
        if timed {
            self.obs.push(obs);
        }
        let Ok(reply) = reply else { return };
        if !reply.ok() {
            self.first_error
                .get_or_insert_with(|| format!("{kind:?} {}: {}", reply.status, reply.body.trim()));
            return;
        }
        match kind {
            Kind::Ingest => {
                self.acked_csv_bytes += csv_bytes as u64;
                if timed {
                    self.acked_samples += ctx.w.samples_per_ingest as u64;
                }
                if let Some(seq) = json::parse(&reply.body)
                    .ok()
                    .and_then(|v| v.get("wal_seq").and_then(json::Value::as_u64))
                {
                    self.max_wal_seq = self.max_wal_seq.max(seq);
                }
            }
            Kind::Predict if !w.is_churn() => self.predicts.push(Answer {
                session,
                samples: self.script_samples,
                body: reply.body,
            }),
            _ => {}
        }
    }

    fn step(&mut self, addr: SocketAddr, ctx: &Ctx, session: usize, k: usize, timed: bool) {
        let started = Instant::now();
        for req in ctx.w.step(session, k, ctx.inputs.sources.len()) {
            self.issue(addr, ctx, req, timed);
        }
        if timed {
            self.steps_ns.push(started.elapsed().as_nanos() as f64);
            self.last_timed_end = Some(Instant::now());
        }
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// CPU seconds of the server and of this load generator.
fn cpu_pair(pid: u32) -> Result<(f64, f64), String> {
    Ok((server::cpu_seconds(Some(pid))?, server::cpu_seconds(None)?))
}

fn join_clients<'s>(
    handles: Vec<std::thread::ScopedJoinHandle<'s, Log>>,
) -> Result<Vec<Log>, String> {
    handles
        .into_iter()
        .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
        .collect()
}

/// Runs the end-to-end phase of `ctx.w`.
pub fn run(ctx: &Ctx) -> Result<E2e, String> {
    let e2e = if ctx.w.is_churn() {
        run_churn(ctx)?
    } else {
        run_static(ctx)?
    };
    if e2e.obs.is_empty() {
        return Err("the timed phase sent no requests".into());
    }
    Ok(e2e)
}

/// Static sessions: prime each with 60 s of signal, 2 s of untimed load,
/// then the timed closed loop. Each client owns every second session and
/// steps through its sessions round-robin.
fn run_static(ctx: &Ctx) -> Result<E2e, String> {
    let w = ctx.w;
    let wal = w.durable.then(|| ctx.work.join("wal"));
    let args = w.serve_args(&ctx.inputs.store, wal.as_deref());
    let server = Server::start(ctx.tsm, &args, &ctx.work.join("serve.log"))?;
    let (addr, pid) = (server.addr, server.pid);
    let idle_rss = server::proc_status(pid)?.rss_kb;
    let mut all = Log {
        sent: server.probes,
        ..Log::default()
    };
    for session in 0..w.sessions {
        let prime = Req::Ingest {
            session,
            from: 0,
            n: PRIME_SAMPLES,
        };
        all.issue(addr, ctx, prime, false);
    }
    if let Some(e) = &all.first_error {
        return Err(format!("priming failed: {e}"));
    }
    let primed_rss = server::proc_status(pid)?.rss_kb;

    let warm_end = Instant::now() + secs(WARMUP_S);
    let stop = warm_end + secs(ctx.seconds);
    let (logs, cpu0) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || drive_static(addr, ctx, c, warm_end, stop)))
            .collect();
        std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
        let cpu0 = cpu_pair(pid);
        (join_clients(clients), cpu0)
    });
    let cpu1 = cpu_pair(pid)?;
    let cpu0 = cpu0?;
    for log in logs? {
        all.absorb(log);
    }
    let mut e2e = E2e {
        timed_s: all
            .last_timed_end
            .map_or(0.0, |t| t.duration_since(warm_end).as_secs_f64()),
        server_cpu_s: cpu1.0 - cpu0.0,
        loadgen_cpu_s: cpu1.1 - cpu0.1,
        rss_kb_per_session: primed_rss.saturating_sub(idle_rss) as f64 / w.sessions as f64,
        ..E2e::default()
    };

    if w.predict {
        all.steps.sort_unstable();
        for &(session, steps) in &all.steps {
            let target = format!("/query?session={}&k={QUERY_K}", w.session_name(session));
            let reply = http::get(addr, &target)?;
            all.sent += 1;
            if !reply.ok() {
                e2e.failures.push(format!(
                    "final {target}: {} {}",
                    reply.status,
                    reply.body.trim()
                ));
            }
            e2e.queries.push(Answer {
                session,
                samples: w.samples_after(steps),
                body: reply.body,
            });
        }
    }
    finish_server(
        ctx,
        server,
        all.sent,
        wal.as_deref(),
        all.max_wal_seq,
        &mut e2e,
    )?;
    report_first_error(&all);
    e2e.obs = all.obs;
    e2e.steps_ns = all.steps_ns;
    e2e.acked_samples = all.acked_samples;
    e2e.acked_csv_bytes = all.acked_csv_bytes;
    e2e.predicts = all.predicts;
    Ok(e2e)
}

fn drive_static(
    addr: SocketAddr,
    ctx: &Ctx,
    client: usize,
    warm_end: Instant,
    stop: Instant,
) -> Log {
    let mine: Vec<usize> = (client..ctx.w.sessions).step_by(CLIENTS).collect();
    let mut done = vec![0usize; mine.len()];
    let mut log = Log::default();
    for turn in 0.. {
        let now = Instant::now();
        if now >= stop || mine.is_empty() {
            break;
        }
        let slot = turn % mine.len();
        log.step(addr, ctx, mine[slot], done[slot], now >= warm_end);
        done[slot] += 1;
    }
    log.steps = mine.into_iter().zip(done).collect();
    log
}

/// Churn: the fixed script (every session's 60 steps) replayed in
/// epochs, each against a fresh server on the base store, until the
/// timed phase has lasted `ctx.seconds`. A faster server runs more epochs
/// of the same script; it never grows a bigger store.
fn run_churn(ctx: &Ctx) -> Result<E2e, String> {
    let w = ctx.w;
    let mut e2e = E2e::default();
    let mut all = Log::default();
    let mut rss_per_session = Vec::new();
    let mut epoch = 0;
    while e2e.timed_s < ctx.seconds {
        let wal = ctx.work.join(format!("wal-{epoch}"));
        let args = w.serve_args(&ctx.inputs.store, Some(&wal));
        let server = Server::start(ctx.tsm, &args, &ctx.work.join(format!("serve-{epoch}.log")))?;
        let (addr, pid) = (server.addr, server.pid);
        let idle_rss = server::proc_status(pid)?.rss_kb;
        let cpu0 = cpu_pair(pid)?;
        let started = Instant::now();
        let logs = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || drive_churn(addr, ctx, c)))
                .collect();
            join_clients(clients)
        })?;
        e2e.timed_s += started.elapsed().as_secs_f64();
        let cpu1 = cpu_pair(pid)?;
        e2e.server_cpu_s += cpu1.0 - cpu0.0;
        e2e.loadgen_cpu_s += cpu1.1 - cpu0.1;
        let mut log = Log {
            sent: server.probes,
            ..Log::default()
        };
        for l in logs {
            log.absorb(l);
        }
        let peak = server::proc_status(pid)?.hwm_kb;
        rss_per_session.push(peak.saturating_sub(idle_rss) as f64 / w.sessions as f64);
        finish_server(ctx, server, log.sent, Some(&wal), log.max_wal_seq, &mut e2e)?;
        all.absorb(log);
        epoch += 1;
    }
    report_first_error(&all);
    e2e.rss_kb_per_session = crate::stats::mean(&rss_per_session).unwrap_or(0.0);
    e2e.obs = all.obs;
    e2e.steps_ns = all.steps_ns;
    e2e.acked_samples = all.acked_samples;
    e2e.acked_csv_bytes = all.acked_csv_bytes;
    Ok(e2e)
}

fn drive_churn(addr: SocketAddr, ctx: &Ctx, client: usize) -> Log {
    let mut log = Log::default();
    for session in (client..ctx.w.sessions).step_by(CLIENTS) {
        for k in 0..ctx.w.churn_steps {
            log.step(addr, ctx, session, k, true);
        }
    }
    log
}

fn report_first_error(log: &Log) {
    if let Some(e) = &log.first_error {
        eprintln!("exp_serve: first failed request: {e}");
    }
}

/// The end of a server's life: scrape `/metrics`, run the invariant
/// check, read `/proc`, SIGKILL it, and for a durable server check that
/// recovery covers every acknowledged WAL sequence number (RPO = 0).
fn finish_server(
    ctx: &Ctx,
    server: Server,
    mut sent: u64,
    wal: Option<&Path>,
    max_acked_seq: u64,
    e2e: &mut E2e,
) -> Result<(), String> {
    let addr = server.addr;
    let scrape = http::get(addr, "/metrics")?;
    sent += 1;
    merge_counters(&mut e2e.counters, &counters_of(&scrape)?);
    let check = http::get(addr, "/metrics?check=1")?;
    if check.status != 200 {
        e2e.failures.push(format!(
            "/metrics?check=1 returned {}: {}",
            check.status,
            check.body.trim()
        ));
    } else {
        let served = counters_of(&check)?
            .get("serve.requests")
            .copied()
            .unwrap_or(0);
        if served != sent {
            e2e.failures.push(format!(
                "serve.requests is {served} but the client sent {sent} requests"
            ));
        }
    }
    let status = server::proc_status(server.pid)?;
    e2e.peak_rss_kb = e2e.peak_rss_kb.max(status.hwm_kb);
    e2e.threads = e2e.threads.max(status.threads);
    if let Some(wal) = wal {
        e2e.wal_bytes += server::dir_bytes(wal)?;
    }
    server.kill();
    if let Some(wal) = wal {
        let last = server::recovered_last_seq(ctx.tsm, wal, &ctx.inputs.store)?;
        if last < max_acked_seq {
            e2e.failures.push(format!(
                "RPO: wal_seq {max_acked_seq} was acknowledged but recovery ends at {last}"
            ));
        }
    }
    Ok(())
}

/// The counters of a `/metrics` reply.
fn counters_of(reply: &Reply) -> Result<BTreeMap<String, u64>, String> {
    let doc = json::parse(&reply.body).map_err(|e| format!("/metrics: {e}"))?;
    let counters = doc
        .get("counters")
        .and_then(json::Value::as_object)
        .ok_or("/metrics: no counters object")?;
    counters
        .iter()
        .map(|(k, v)| {
            v.as_u64()
                .map(|v| (k.clone(), v))
                .ok_or_else(|| format!("/metrics: counter {k} is not a count"))
        })
        .collect()
}

/// Adds one server's counters into a running total (`_hwm` gauges by max).
fn merge_counters(total: &mut BTreeMap<String, u64>, more: &BTreeMap<String, u64>) {
    for (k, &v) in more {
        let slot = total.entry(k.clone()).or_default();
        *slot = if k.ends_with("_hwm") {
            (*slot).max(v)
        } else {
            *slot + v
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_by_sum_and_gauges_by_max() {
        let mut total = BTreeMap::new();
        let a = BTreeMap::from([("wal.appends".to_string(), 3), ("x_hwm".to_string(), 5)]);
        let b = BTreeMap::from([("wal.appends".to_string(), 4), ("x_hwm".to_string(), 2)]);
        merge_counters(&mut total, &a);
        merge_counters(&mut total, &b);
        assert_eq!(total["wal.appends"], 7);
        assert_eq!(total["x_hwm"], 5);
    }
}
