//! Experiment: **end-to-end online pipeline throughput.**
//!
//! One `SessionRuntime` per held-out session makes one segmentation pass
//! and one prediction per tick; gating and tracking are folds over the
//! recorded tick log, and the cohort shares one `CachedMatcher` so
//! per-length feature indexes are built once, not once per session.
//!
//! This binary replays the held-out sessions on a plain engine and on a
//! metrics-enabled one, and reports aggregate predictions/sec and the
//! throughput kept with metrics on. One pass takes a few milliseconds, so
//! a single pass per arm is decided by noise: after one untimed warm-up
//! pass (which alone pays for the store's feature snapshot), the two arms
//! alternate over [`PASSES`] passes each, every pass on a fresh engine,
//! and each arm reports its median wall time. Run with `--release`; pass
//! `--json <path>` to also write the numbers as a JSON document
//! (consumed by `scripts/bench_snapshot.sh` into `BENCH_pipeline.json`).

use std::sync::Arc;
use std::time::{Duration, Instant};
use tsm_bench::report::{banner, table};
use tsm_bench::{build_bundle, BundleConfig, EvalStream};
use tsm_core::gating::{gate_ticks, GatingWindow};
use tsm_core::metrics::MetricsRegistry;
use tsm_core::session::{SessionConfig, SessionRuntime};
use tsm_core::tracking::{track_ticks, TrackingStats};
use tsm_core::{CachedMatcher, Matcher, Params};
use tsm_db::SharedStore;
use tsm_model::SegmenterConfig;
use tsm_signal::CohortConfig;

const DT: f64 = 0.3;
const EVERY: usize = 30;
const WINDOW_MM: f64 = 3.0;
/// Timed passes per arm.
const PASSES: usize = 11;

/// One session: one pass, one prediction per tick, then gating and
/// tracking folded over the tick log. Returns the predictions made.
fn runtime_session(engine: &Arc<CachedMatcher>, seg: &SegmenterConfig, eval: &EvalStream) -> usize {
    let axis = engine.matcher().params().axis;
    let window = GatingWindow::at_exhale_end(&eval.truth, axis, WINDOW_MM);
    let config = SessionConfig::new(eval.patient, eval.session)
        .with_segmenter(seg.clone())
        .with_horizon(DT)
        .with_cadence(EVERY);
    let mut runtime =
        SessionRuntime::with_engine(engine.clone(), config).expect("valid parameters");
    for &s in &eval.samples {
        runtime.push(s).expect("finite sample");
    }
    let ticks = runtime.ticks();
    let (_, gating) = gate_ticks(ticks, &eval.truth, axis, window);
    let tracking = TrackingStats::from_errors(track_ticks(ticks, &eval.truth, axis));
    assert!(
        gating.ticks > 0 && tracking.ticks > 0,
        "gating/tracking folds idle"
    );
    ticks.iter().filter(|t| t.outcome.is_some()).count()
}

/// One pass over every held-out session on a fresh engine recording into
/// `metrics`: the engine, the predictions made and the wall time.
fn pass(
    store: &SharedStore,
    params: &Params,
    seg: &SegmenterConfig,
    eval: &[EvalStream],
    metrics: MetricsRegistry,
) -> (Arc<CachedMatcher>, usize, Duration) {
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(store.clone(), params.clone()).with_metrics(metrics),
    ));
    let started = Instant::now();
    let predictions = eval.iter().map(|e| runtime_session(&engine, seg, e)).sum();
    (engine, predictions, started.elapsed())
}

fn median(walls: &mut [Duration]) -> Duration {
    walls.sort_unstable();
    walls[walls.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let sessions = 4usize;
    let bundle = build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: sessions,
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: if quick { 45.0 } else { 90.0 },
            dim: 1,
            seed: 0x51E55,
        },
        segmenter: SegmenterConfig::default(),
    });
    let store = bundle.store.into_shared();
    let params = Params::default();
    let seg = SegmenterConfig::default();
    assert_eq!(bundle.eval.len(), sessions, "one held-out stream each");

    banner("Online pipeline: session runtime, metrics off and on");

    // Untimed warm-up: builds the store's feature snapshot, which every
    // later pass shares, and fixes the prediction count.
    let (engine, runtime_predictions, _) = pass(
        &store,
        &params,
        &seg,
        &bundle.eval,
        MetricsRegistry::disabled(),
    );
    assert!(runtime_predictions > 0, "no predictions at all");

    // The arms alternate which runs first, so drift on the host falls on
    // both. The metrics-on arm must make the same predictions, and its
    // ledger must reconcile after every pass.
    let mut plain_walls = Vec::with_capacity(PASSES);
    let mut instrumented_walls = Vec::with_capacity(PASSES);
    let mut snapshot = None;
    for round in 0..PASSES {
        for instrumented in [round % 2 == 1, round % 2 == 0] {
            let metrics = if instrumented {
                MetricsRegistry::enabled()
            } else {
                MetricsRegistry::disabled()
            };
            let (_, predictions, wall) = pass(&store, &params, &seg, &bundle.eval, metrics.clone());
            assert_eq!(
                predictions, runtime_predictions,
                "metrics must not change the predictions"
            );
            if instrumented {
                let snap = metrics.snapshot();
                snap.check_invariants().expect("metrics counters reconcile");
                snapshot = Some(snap);
                instrumented_walls.push(wall);
            } else {
                plain_walls.push(wall);
            }
        }
    }
    let snapshot = snapshot.expect("at least one metrics-on pass");
    let runtime_wall = median(&mut plain_walls);
    let instrumented_wall = median(&mut instrumented_walls);

    let runtime_pps = runtime_predictions as f64 / runtime_wall.as_secs_f64();
    let instrumented_pps = runtime_predictions as f64 / instrumented_wall.as_secs_f64();
    // >1.0 would mean metrics made the replay *faster* (noise); <1.0 is
    // the fractional throughput kept with instrumentation on.
    let metrics_overhead = instrumented_pps / runtime_pps;

    table(
        &["architecture", "predictions", "wall (s)", "predictions/s"],
        &[
            vec![
                "session runtime".into(),
                runtime_predictions.to_string(),
                format!("{:.3}", runtime_wall.as_secs_f64()),
                format!("{runtime_pps:.1}"),
            ],
            vec![
                "runtime + metrics".into(),
                runtime_predictions.to_string(),
                format!("{:.3}", instrumented_wall.as_secs_f64()),
                format!("{instrumented_pps:.1}"),
            ],
        ],
    );
    println!();
    println!(
        "{sessions} sessions, index rebuilds on shared engine: {}",
        engine.cache().rebuild_count()
    );
    println!(
        "metrics-on throughput ratio: {metrics_overhead:.3} \
         ({} windows scored, {} searches)",
        snapshot.counter("match.windows_scored"),
        snapshot.counter("match.searches"),
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"sessions\": {sessions},\n  \"predictions\": {runtime_predictions},\n  \
             \"runtime\": {{ \"wall_s\": {:.6}, \"predictions_per_sec\": {:.3} }},\n  \
             \"runtime_metrics\": {{ \"wall_s\": {:.6}, \"predictions_per_sec\": {:.3} }},\n  \
             \"metrics_overhead\": {:.4},\n  \"metrics\": {}\n}}\n",
            runtime_wall.as_secs_f64(),
            runtime_pps,
            instrumented_wall.as_secs_f64(),
            instrumented_pps,
            metrics_overhead,
            snapshot.to_json(),
        );
        std::fs::write(&path, json).expect("write json snapshot");
        println!("wrote {path}");
    }
}
