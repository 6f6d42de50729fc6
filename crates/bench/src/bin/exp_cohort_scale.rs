//! Experiment: **cohort scale — ramp-to-saturation soak, pooled vs
//! per-session.**
//!
//! Replay hosts sessions the way `tsm serve` does: sessions are data, and
//! a fixed pool of workers runs them over one shared engine. This binary
//! measures what that buys over the concurrency model the session layer
//! started from — one worker per live session — by ramping the
//! concurrent-session count (1, 2, 4, … 128) and replaying the same
//! fixed-seed cohort at each point through two regimes, both
//! instrumented (metrics on — the production posture) and both on the
//! *same warm* engine:
//!
//! * **per-session** — one worker per session (`threads = N`), the
//!   baseline the ramp is measured against;
//! * **pooled** — a fixed worker pool (`threads = W`, W = the host's
//!   cores clamped to 2..=8).
//!
//! Per-session reports must be bit-identical across both at every point —
//! this is a throughput experiment, never a results one.
//!
//! Run with `--release`; `--quick` shortens the ramp and the sessions;
//! `--json <path>` writes the curve as a JSON document (consumed by
//! `scripts/bench_snapshot.sh` into `BENCH_cohort.json`).

use std::sync::Arc;
use tsm_bench::report::{banner, table};
use tsm_core::metrics::MetricsRegistry;
use tsm_core::session::{CohortReport, CohortRuntime, SessionSpec};
use tsm_core::{CachedMatcher, Matcher, Params};
use tsm_db::{PatientAttributes, PatientId, SharedStore, StreamStore};
use tsm_model::{segment_signal, PlrTrajectory, SegmenterConfig};
use tsm_signal::{BreathingParams, SignalGenerator};

const PATIENTS: u32 = 8;
const STORE_SEED: u64 = 0xC0110;
const LIVE_SEED: u64 = 0x5E55;

/// A store with `PATIENTS` patients, each holding one 240 s base stream
/// — long enough that every prediction tick's match scan does real work.
fn seeded_store() -> SharedStore {
    let store = StreamStore::new();
    for i in 0..PATIENTS {
        let patient = store.add_patient(PatientAttributes::new());
        let samples = SignalGenerator::new(BreathingParams::default(), STORE_SEED + u64::from(i))
            .generate(240.0);
        let vertices = segment_signal(&samples, SegmenterConfig::clean());
        let plr = PlrTrajectory::from_vertices(vertices).expect("seeded stream segments");
        store.add_stream(patient, 0, plr, samples.len());
    }
    store.into_shared()
}

/// The full fixed-seed cohort; ramp points replay prefixes of it, so a
/// session's identity never depends on the ramp point it first appears
/// at.
fn cohort_specs(n: usize, duration_s: f64) -> Vec<SessionSpec> {
    (0..n)
        .map(|i| {
            let patient = PatientId(i as u32 % PATIENTS);
            let session = (i / PATIENTS as usize) as u32 + 1;
            let samples = SignalGenerator::new(BreathingParams::default(), LIVE_SEED + i as u64)
                .generate(duration_s);
            SessionSpec {
                patient,
                session,
                samples,
            }
        })
        .collect()
}

struct Mode {
    wall_s: f64,
    pps: f64,
}

struct RampPoint {
    sessions: usize,
    predictions: usize,
    per_session: Mode,
    pooled: Mode,
}

impl RampPoint {
    /// Pooled throughput over the per-session baseline.
    fn speedup(&self) -> f64 {
        self.pooled.pps / self.per_session.pps
    }
}

fn replay_point(runtime: &CohortRuntime, specs: &[SessionSpec]) -> CohortReport {
    let report = runtime.replay(specs);
    assert!(
        report.sessions.iter().all(|s| s.complete),
        "a session failed mid-soak"
    );
    report
}

/// Best-of-`reps` for every regime at one ramp point, with the regimes
/// interleaved round-robin inside each repeat round: a transient host
/// slowdown then hits all regimes alike instead of skewing whichever one
/// it landed on, so the per-point speedup ratios stay honest. The
/// reports are bit-identical across repeats and regimes (replay is
/// deterministic), so repeats only de-noise the wall clock — keep each
/// regime's fastest.
fn replay_best_of(
    runtimes: &[&CohortRuntime],
    specs: &[SessionSpec],
    reps: usize,
) -> Vec<CohortReport> {
    let mut best: Vec<CohortReport> = runtimes.iter().map(|rt| replay_point(rt, specs)).collect();
    for _ in 1..reps {
        for (slot, rt) in best.iter_mut().zip(runtimes) {
            let next = replay_point(rt, specs);
            assert_eq!(slot.sessions, next.sessions, "replay is not deterministic");
            if next.wall < slot.wall {
                *slot = next;
            }
        }
    }
    best
}

fn mode(report: &CohortReport) -> Mode {
    Mode {
        wall_s: report.wall.as_secs_f64(),
        pps: report.predictions_per_sec(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let ramp: &[usize] = if quick {
        &[1, 2, 4, 8, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    };
    let duration_s = if quick { 20.0 } else { 40.0 };
    // Best-of-N repeats de-noise each point; small points are cheap, so
    // they get more repeats.
    let reps_for = |n: usize| -> usize {
        if quick {
            2
        } else if n <= 8 {
            7
        } else {
            5
        }
    };

    let store = seeded_store();
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let specs = cohort_specs(*ramp.last().expect("non-empty ramp"), duration_s);

    // One persistent engine: per-length feature indexes stay warm across
    // ramp points, so the curve measures steady-state replay throughput,
    // not cold index builds. Both regimes run on it and differ only in
    // thread count.
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(store, params).with_metrics(MetricsRegistry::enabled()),
    ));
    let runtime = |threads: usize| {
        CohortRuntime::with_engine(engine.clone())
            .expect("bench parameters are valid")
            .with_segmenter(SegmenterConfig::clean())
            .with_threads(threads)
    };
    let pooled = runtime(workers);

    banner(&format!(
        "Cohort scale: per-session (threads=N) vs pooled (threads={workers}), instrumented"
    ));

    // Warmup: one small replay, building every index the ramp will touch
    // and paging the store.
    replay_point(&pooled, &specs[..specs.len().min(workers)]);

    let mut points: Vec<RampPoint> = Vec::new();
    for &n in ramp {
        let slice = &specs[..n];
        let per_session_rt = runtime(n);
        let mut reports =
            replay_best_of(&[&per_session_rt, &pooled], slice, reps_for(n)).into_iter();
        let (base, pool) = (
            reports.next().expect("per-session report"),
            reports.next().expect("pooled report"),
        );
        assert_eq!(
            base.sessions, pool.sessions,
            "pooled replay diverged at {n} sessions"
        );
        let predictions = base.total_predictions();
        assert!(predictions > 0, "no predictions at {n} sessions");
        points.push(RampPoint {
            sessions: n,
            predictions,
            per_session: mode(&base),
            pooled: mode(&pool),
        });
    }

    table(
        &[
            "sessions",
            "predictions",
            "per-session p/s",
            "pooled p/s",
            "speedup",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.sessions.to_string(),
                    p.predictions.to_string(),
                    format!("{:.1}", p.per_session.pps),
                    format!("{:.1}", p.pooled.pps),
                    format!("{:.2}x", p.speedup()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!();
    println!("host_cpus: {host_cpus}, pool workers: {workers}");

    if let Some(path) = json_path {
        let mode_json = |m: &Mode| {
            format!(
                "{{ \"wall_s\": {:.6}, \"predictions_per_sec\": {:.3} }}",
                m.wall_s, m.pps
            )
        };
        let ramp_json: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "    {{ \"sessions\": {}, \"predictions\": {}, \
                     \"per_session\": {}, \"pooled\": {}, \"speedup\": {:.4} }}",
                    p.sessions,
                    p.predictions,
                    mode_json(&p.per_session),
                    mode_json(&p.pooled),
                    p.speedup()
                )
            })
            .collect();
        let speedup_at_tail = points.last().map(RampPoint::speedup).unwrap_or(1.0);
        let json = format!(
            "{{\n  \"workers\": {workers},\n  \"host_cpus\": {host_cpus},\n  \
             \"quick\": {quick},\n  \
             \"session_duration_s\": {duration_s},\n  \"ramp\": [\n{}\n  ],\n  \
             \"speedup_at_max_sessions\": {speedup_at_tail:.4}\n}}\n",
            ramp_json.join(",\n")
        );
        std::fs::write(&path, json).expect("write json snapshot");
        println!("wrote {path}");
    }
}
