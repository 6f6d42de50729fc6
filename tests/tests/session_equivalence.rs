//! Equivalence: one `SessionRuntime` recording one prediction per tick,
//! with gating and tracking folded over its tick log, produces
//! **bit-identical** results to the legacy architecture — three
//! disconnected single-purpose loops, each re-segmenting the live signal
//! and re-matching against the store through its own on-demand session.

use tsm_core::gating::{gate_ticks, GatingAccumulator, GatingWindow};
use tsm_core::pipeline::PredictionOutcome;
use tsm_core::session::{SessionConfig, SessionRuntime};
use tsm_core::tracking::{track_ticks, TrackingStats};
use tsm_core::Params;
use tsm_db::{PatientAttributes, PatientId, SharedStore, StreamStore};
use tsm_model::{segment_signal, PlrTrajectory, Position, Sample, SegmenterConfig};
use tsm_signal::{BreathingParams, NoiseParams, SignalGenerator};

const DT: f64 = 0.3;
const EVERY: usize = 30;
const AXIS: usize = 0;

fn seeded_store(seed: u64) -> (SharedStore, PatientId) {
    let store = StreamStore::new();
    let patient = store.add_patient(PatientAttributes::new());
    for session in 0..2u32 {
        let samples = SignalGenerator::new(BreathingParams::default(), seed + session as u64)
            .with_noise(NoiseParams::typical())
            .generate(100.0);
        let vertices = segment_signal(&samples, SegmenterConfig::clean());
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        store.add_stream(patient, session, plr, samples.len());
    }
    let other = store.add_patient(PatientAttributes::new());
    let samples = SignalGenerator::new(
        BreathingParams {
            amplitude_mm: 9.0,
            period_s: 3.6,
            ..Default::default()
        },
        seed + 77,
    )
    .generate(100.0);
    let vertices = segment_signal(&samples, SegmenterConfig::clean());
    if let Ok(plr) = PlrTrajectory::from_vertices(vertices) {
        store.add_stream(other, 0, plr, samples.len());
    }
    (store.into_shared(), patient)
}

fn live_session(seed: u64) -> (Vec<Sample>, PlrTrajectory) {
    let samples = SignalGenerator::new(BreathingParams::default(), seed)
        .with_noise(NoiseParams::typical())
        .generate(60.0);
    let truth =
        PlrTrajectory::from_vertices(segment_signal(&samples, SegmenterConfig::clean())).unwrap();
    (samples, truth)
}

fn params() -> Params {
    Params {
        min_matches: 1,
        ..Params::default()
    }
}

/// A legacy loop's own session: cadence 0, so it predicts only when the
/// loop asks.
fn legacy_predictor(store: &SharedStore, patient: PatientId) -> SessionRuntime {
    let config = SessionConfig::new(patient, 9).with_segmenter(SegmenterConfig::clean());
    SessionRuntime::new(store.clone(), params(), config).unwrap()
}

#[test]
fn session_runtime_is_bit_identical_to_three_legacy_loops() {
    for seed in [41u64, 42, 43] {
        let (store, patient) = seeded_store(seed);
        let (samples, truth) = live_session(seed + 1000);
        let window = GatingWindow::at_exhale_end(&truth, AXIS, 3.0);

        // ---- Legacy loop 1: prediction only. ---------------------------
        let mut predictor = legacy_predictor(&store, patient);
        let mut legacy_outcomes = Vec::new();
        for (i, &s) in samples.iter().enumerate() {
            predictor.push(s).unwrap();
            if i % EVERY == 0 && i >= EVERY {
                if let Some(o) = predictor.predict(DT) {
                    legacy_outcomes.push(o);
                }
            }
        }

        // ---- Legacy loop 2: gating only (full re-replay). --------------
        let mut predictor = legacy_predictor(&store, patient);
        let mut legacy_acc = GatingAccumulator::new();
        let mut legacy_decisions = Vec::new();
        for (i, &s) in samples.iter().enumerate() {
            predictor.push(s).unwrap();
            if i % EVERY == 0 && i >= EVERY {
                let Some(last) = predictor.live_vertices().last() else {
                    continue;
                };
                let target = last.time + DT;
                let beam = predictor
                    .predict(DT)
                    .is_some_and(|o| window.contains(o.position[AXIS]));
                let truth_in = window.contains(truth.position_at(target)[AXIS]);
                legacy_acc.record(beam, truth_in);
                legacy_decisions.push(beam);
            }
        }

        // ---- Legacy loop 3: tracking only (another full re-replay). ----
        let mut predictor = legacy_predictor(&store, patient);
        let mut last_aim: Option<Position> = None;
        let mut legacy_errors = Vec::new();
        for (i, &s) in samples.iter().enumerate() {
            predictor.push(s).unwrap();
            if i % EVERY == 0 && i >= EVERY {
                if let Some(o) = predictor.predict(DT) {
                    last_aim = Some(o.position);
                }
                let Some(last) = predictor.live_vertices().last() else {
                    continue;
                };
                if let Some(aim) = last_aim {
                    legacy_errors.push((aim[AXIS] - truth.position_at(last.time + DT)[AXIS]).abs());
                }
            }
        }

        // ---- The session runtime: one loop, one prediction per tick. ---
        let config = SessionConfig::new(patient, 9)
            .with_segmenter(SegmenterConfig::clean())
            .with_horizon(DT)
            .with_cadence(EVERY);
        let mut runtime = SessionRuntime::new(store.clone(), params(), config).unwrap();
        for &s in &samples {
            runtime.push(s).unwrap();
        }
        let ticks = runtime.ticks();

        let outcomes: Vec<PredictionOutcome> =
            ticks.iter().filter_map(|t| t.outcome.clone()).collect();
        assert_eq!(
            outcomes, legacy_outcomes,
            "prediction outcomes diverged (seed {seed})"
        );
        assert!(!legacy_outcomes.is_empty(), "no predictions (seed {seed})");

        let (decisions, gating) = gate_ticks(ticks, &truth, AXIS, window);
        assert_eq!(
            decisions, legacy_decisions,
            "gating decisions diverged (seed {seed})"
        );
        assert_eq!(
            gating,
            legacy_acc.stats(),
            "gating stats diverged (seed {seed})"
        );
        assert!(gating.ticks > 10);

        let errors = track_ticks(ticks, &truth, AXIS);
        assert_eq!(
            errors, legacy_errors,
            "tracking errors diverged (seed {seed})"
        );
        let tracking = TrackingStats::from_errors(errors);
        assert_eq!(
            tracking,
            TrackingStats::from_errors(legacy_errors),
            "tracking stats diverged (seed {seed})"
        );
        assert!(tracking.ticks > 10);
    }
}

#[test]
fn pushed_and_flushed_vertices_are_the_live_buffer() {
    let (store, patient) = seeded_store(55);
    let (samples, _) = live_session(56);
    let config = SessionConfig::new(patient, 9).with_segmenter(SegmenterConfig::clean());
    let mut runtime = SessionRuntime::new(store, params(), config).unwrap();
    // Every vertex `push` reports closed, then the tail `finish` flushes:
    // together they are the live buffer, each vertex exactly once.
    let mut seen = Vec::new();
    for &s in &samples {
        seen.extend_from_slice(runtime.push(s).unwrap());
    }
    let pushed = seen.len();
    runtime.finish();
    seen.extend_from_slice(&runtime.live_vertices()[pushed..]);
    assert_eq!(
        seen,
        runtime.live_vertices(),
        "push missed or duplicated vertices"
    );
    assert!(seen.len() > 20);
}
