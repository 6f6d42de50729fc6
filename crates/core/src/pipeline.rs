//! The online prediction pipeline: raw samples in, predictions out.
//!
//! This is the deployment loop of the paper's Figure 1 scenario: the
//! tracking system delivers a sample every 33 ms; the signal is segmented
//! on the fly; when a prediction is requested (to cover system latency
//! `Δt`), the most recent motion becomes a dynamic query, the store is
//! searched, and the retrieved futures vote on the tumor's position at
//! `t + Δt`.
//!
//! The loop itself is [`crate::session::SessionRuntime`]: push samples
//! and call [`predict`](crate::session::SessionRuntime::predict) on
//! demand, or set a cadence and read the recorded
//! [`crate::session::PredictionTick`]s. This module holds what one
//! prediction returns.

use tsm_model::Position;

/// Outcome of one prediction request (with diagnostics the experiments
/// record).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionOutcome {
    /// The predicted position at `t_last_vertex + dt`.
    pub position: Position,
    /// Number of matches that voted.
    pub num_matches: usize,
    /// Length of the dynamic query, in segments.
    pub query_len: usize,
    /// Whether the query's stability strip converged.
    pub query_stable: bool,
}

#[cfg(test)]
mod tests {
    use crate::params::Params;
    use crate::session::{SessionConfig, SessionRuntime};
    use tsm_db::{PatientAttributes, PatientId, StreamStore};
    use tsm_model::{segment_signal, PlrTrajectory, SegmenterConfig};
    use tsm_signal::{BreathingParams, SignalGenerator};

    fn seeded_store(seed: u64) -> (StreamStore, PatientId) {
        let store = StreamStore::new();
        let patient = store.add_patient(PatientAttributes::new());
        // One prior session of the same patient.
        let samples = SignalGenerator::new(BreathingParams::default(), seed).generate(120.0);
        let vertices = segment_signal(&samples, SegmenterConfig::clean());
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        store.add_stream(patient, 0, plr, samples.len());
        (store, patient)
    }

    /// A new session (number 1) of `patient`, segmenting clean signals.
    fn session(store: StreamStore, params: Params, patient: PatientId) -> SessionRuntime {
        let config = SessionConfig::new(patient, 1).with_segmenter(SegmenterConfig::clean());
        SessionRuntime::new(store, params, config).unwrap()
    }

    #[test]
    fn predicts_after_warmup_and_beats_worst_case() {
        let (store, patient) = seeded_store(11);
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        // A prediction 0.3 s ahead once a second.
        let config = SessionConfig::new(patient, 1)
            .with_segmenter(SegmenterConfig::clean())
            .with_horizon(0.3)
            .with_cadence(30);
        let mut runtime = SessionRuntime::new(store, params, config).unwrap();
        // Live breathing, same patient parameters, different seed.
        let mut generator = SignalGenerator::new(BreathingParams::default(), 12);
        let samples = generator.generate(90.0);
        let plr_truth = {
            let vertices = segment_signal(&samples, SegmenterConfig::clean());
            PlrTrajectory::from_vertices(vertices).unwrap()
        };
        for &s in &samples {
            runtime.push(s).unwrap();
        }
        let errors: Vec<f64> = runtime
            .ticks()
            .iter()
            .filter_map(|tick| {
                let outcome = tick.outcome.as_ref()?;
                let truth = plr_truth.position_at(tick.target_time?);
                Some((outcome.position[0] - truth[0]).abs())
            })
            .collect();
        assert!(errors.len() > 10, "too few predictions: {}", errors.len());
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        // 12 mm amplitude breathing: a useful predictor must do far better
        // than the ~4-6 mm error of predicting a constant.
        assert!(mean < 2.5, "mean prediction error {mean} mm");
    }

    #[test]
    fn no_prediction_before_warmup() {
        let (store, patient) = seeded_store(13);
        let runtime = session(store, Params::default(), patient);
        assert!(runtime.predict(0.3).is_none());
        assert!(runtime.current_query().is_none());
    }

    #[test]
    fn finish_persists_the_session() {
        let (store, patient) = seeded_store(14);
        let before = store.num_streams();
        let mut runtime = session(store.clone(), Params::default(), patient);
        let mut generator = SignalGenerator::new(BreathingParams::default(), 15);
        for s in generator.generate(60.0) {
            runtime.push(s).unwrap();
        }
        let id = runtime.finish_into_store().expect("stream persisted");
        assert_eq!(store.num_streams(), before + 1);
        let stored = store.stream(id).unwrap();
        assert_eq!(stored.meta.patient, patient);
        assert_eq!(stored.meta.session, 1);
        assert!(stored.plr.num_segments() > 20);
    }

    #[test]
    fn empty_session_does_not_persist() {
        let (store, patient) = seeded_store(16);
        let before = store.num_streams();
        let runtime = session(store.clone(), Params::default(), patient);
        assert!(runtime.finish_into_store().is_none());
        assert_eq!(store.num_streams(), before);
    }
}
