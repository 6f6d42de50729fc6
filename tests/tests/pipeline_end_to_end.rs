//! End-to-end: simulate → segment → store → dynamic query → match →
//! predict, and verify the predictions beat the naive floors.

use tsm_baselines::{last_position_prediction, linear_extrapolation_prediction};
use tsm_bench::{build_bundle, evaluate_prediction, BundleConfig, PredictionEvalConfig};
use tsm_core::session::{SessionConfig, SessionRuntime};
use tsm_core::Params;
use tsm_model::{segment_signal, PlrTrajectory, SegmenterConfig};
use tsm_signal::{BreathingParams, CohortConfig, NoiseParams, SignalGenerator};

fn bundle() -> tsm_bench::StoreBundle {
    build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: 8,
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: 90.0,
            dim: 1,
            seed: 0xE2E,
        },
        segmenter: SegmenterConfig::default(),
    })
}

#[test]
fn matched_prediction_beats_last_position_at_clinical_latency() {
    let b = bundle();
    let params = Params::default();
    let dt = 0.3; // the paper's upper-bound latency
    let stats = evaluate_prediction(
        &b,
        &params,
        &SegmenterConfig::default(),
        &PredictionEvalConfig {
            dts: vec![dt],
            ..Default::default()
        },
    );
    assert!(
        stats.predictions > 50,
        "too few predictions: {}",
        stats.predictions
    );

    // The naive floor: |p(t) - p(t+dt)| over the same truth trajectories.
    let mut naive_sum = 0.0;
    let mut n = 0usize;
    for e in &b.eval {
        let mut t = e.truth.start_time() + 10.0;
        while t + dt < e.truth.end_time() {
            naive_sum += (e.truth.position_at(t + dt)[0] - e.truth.position_at(t)[0]).abs();
            n += 1;
            t += 1.0;
        }
    }
    let naive = naive_sum / n as f64;
    assert!(
        stats.overall_error < naive,
        "matching ({:.3} mm) must beat last-position ({naive:.3} mm)",
        stats.overall_error
    );
}

#[test]
fn online_predictor_session_full_lifecycle() {
    let b = bundle();
    let params = Params::default();
    let patient = b.patients[0];
    let config = SessionConfig::new(patient, 9);
    let mut predictor = SessionRuntime::new(b.store.clone(), params, config).unwrap();
    let mut generator =
        SignalGenerator::new(BreathingParams::default(), 777).with_noise(NoiseParams::typical());
    let samples = generator.generate(90.0);
    let truth =
        PlrTrajectory::from_vertices(segment_signal(&samples, SegmenterConfig::default())).unwrap();

    let mut errors = Vec::new();
    for (i, &s) in samples.iter().enumerate() {
        predictor.push(s).unwrap();
        if i % 60 == 0 && i > 900 {
            if let Some(outcome) = predictor.predict(0.2) {
                let t_last = predictor.live_vertices().last().unwrap().time;
                errors.push((outcome.position[0] - truth.position_at(t_last + 0.2)[0]).abs());
                assert!(outcome.query_len >= 9);
                assert!(outcome.num_matches >= 3);
            }
        }
    }
    assert!(errors.len() >= 10, "only {} live predictions", errors.len());
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(mean < 3.0, "live prediction error {mean:.3} mm");

    // Session persists and is immediately searchable.
    let streams_before = b.store.num_streams();
    let id = predictor.finish_into_store().expect("persisted");
    assert_eq!(b.store.num_streams(), streams_before + 1);
    assert_eq!(b.store.stream(id).unwrap().meta.patient, patient);
}

#[test]
fn naive_baselines_are_well_defined_on_live_buffers() {
    let mut generator = SignalGenerator::new(BreathingParams::default(), 5);
    let samples = generator.generate(30.0);
    let vertices = segment_signal(&samples, SegmenterConfig::clean());
    assert!(last_position_prediction(&vertices, 0.3).is_some());
    assert!(linear_extrapolation_prediction(&vertices, 0.3).is_some());
}

#[test]
fn prediction_error_grows_with_horizon() {
    // Figure 6a's fundamental shape: longer horizons are harder.
    let b = bundle();
    let params = Params::default();
    let stats = evaluate_prediction(
        &b,
        &params,
        &SegmenterConfig::default(),
        &PredictionEvalConfig {
            dts: vec![0.03, 0.30],
            ..Default::default()
        },
    );
    let short = stats.by_dt[0].1;
    let long = stats.by_dt[1].1;
    assert!(
        short < long,
        "error at 30 ms ({short:.3}) should be below error at 300 ms ({long:.3})"
    );
}
