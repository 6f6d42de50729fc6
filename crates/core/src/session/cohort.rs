//! Cohort replay: N sessions against one shared store, with per-session
//! fault supervision. A worker's panic propagates out of the replay.

use super::health::{DegradationPolicy, SessionHealth};
use super::runtime::{PredictionTick, SessionConfig, SessionRuntime};
use crate::error::TsmError;
use crate::index_cache::CachedMatcher;
use crate::matcher::Matcher;
use crate::metrics::Counter;
use crate::params::Params;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsm_db::{PatientId, SharedStore, StreamStore};
use tsm_model::{Sample, SegmenterConfig};

/// One session's worth of replay input for a [`CohortRuntime`].
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The patient the session belongs to.
    pub patient: PatientId,
    /// The session number.
    pub session: u32,
    /// The raw samples to stream through the session.
    pub samples: Vec<Sample>,
}

/// What one replayed session produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The patient the session belonged to.
    pub patient: PatientId,
    /// The session number.
    pub session: u32,
    /// Every prediction tick the session fired, in order.
    pub ticks: Vec<PredictionTick>,
    /// Vertices the live buffer held at the end.
    pub vertices: usize,
    /// Raw samples consumed.
    pub samples: usize,
    /// Whether the session ran to completion (`false` when it terminated
    /// early with an [`error`](SessionReport::error)).
    pub complete: bool,
    /// Why the session terminated early, if it did — a *structured*
    /// error, so callers can distinguish recoverable input faults
    /// ([`TsmError::is_recoverable`](crate::error::CoreError::is_recoverable))
    /// from fatal ones. A failed session is *not* re-run — replaying the
    /// same poisoned input would fail identically.
    pub error: Option<TsmError>,
    /// Final health of the session (Degraded for failed sessions).
    pub health: SessionHealth,
    /// Segmenter resyncs the session's ingest guard performed.
    pub resyncs: u64,
    /// Recoverable per-sample faults the supervisor absorbed.
    pub recovered_faults: usize,
}

impl SessionReport {
    /// An empty (not-yet-run) report for `spec`.
    fn empty(spec: &SessionSpec) -> Self {
        SessionReport {
            patient: spec.patient,
            session: spec.session,
            ticks: Vec::new(),
            vertices: 0,
            samples: 0,
            complete: false,
            error: None,
            health: SessionHealth::Healthy,
            resyncs: 0,
            recovered_faults: 0,
        }
    }

    /// Marks the session terminated by `err`.
    fn failed(mut self, err: TsmError) -> Self {
        self.error = Some(err);
        self.health = SessionHealth::Degraded;
        self
    }

    /// Number of ticks with an actual prediction.
    pub fn predictions(&self) -> usize {
        self.ticks.iter().filter(|t| t.outcome.is_some()).count()
    }

    /// True when the session saw faults (absorbed samples or resyncs)
    /// yet still ran to completion.
    pub fn degraded_but_complete(&self) -> bool {
        self.complete && (self.recovered_faults > 0 || self.resyncs > 0)
    }
}

/// Aggregate outcome of a cohort replay.
#[derive(Debug, Clone)]
pub struct CohortReport {
    /// Per-session reports, in spec order.
    pub sessions: Vec<SessionReport>,
    /// Wall-clock time of the whole replay.
    pub wall: Duration,
}

impl CohortReport {
    /// Total prediction ticks fired across all sessions.
    pub fn total_ticks(&self) -> usize {
        self.sessions.iter().map(|s| s.ticks.len()).sum()
    }

    /// Total actual predictions across all sessions.
    pub fn total_predictions(&self) -> usize {
        self.sessions.iter().map(|s| s.predictions()).sum()
    }

    /// Aggregate prediction throughput (predictions per wall-clock
    /// second).
    pub fn predictions_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_predictions() as f64 / secs
        } else {
            0.0
        }
    }

    /// Sessions that terminated with an error (always fatal — the
    /// supervisor absorbs recoverable faults).
    pub fn fatal_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.error.is_some()).count()
    }

    /// Sessions that hit faults yet completed.
    pub fn degraded_sessions(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.degraded_but_complete())
            .count()
    }

    /// Total recoverable faults absorbed across all sessions.
    pub fn total_recovered_faults(&self) -> usize {
        self.sessions.iter().map(|s| s.recovered_faults).sum()
    }
}

/// Drives N patient sessions against one shared store: every session is a
/// [`SessionRuntime`] over the one shared engine, run by a fixed pool of
/// worker threads — sessions are data, not threads. Each session's report
/// travels back to the collector as **one** bounded-channel message (no
/// per-tick channel hops). Replays are read-only — the store is never
/// mutated, so every pool size produces identical per-session reports.
pub struct CohortRuntime {
    engine: Arc<CachedMatcher>,
    /// The configuration every session starts from; each session fills
    /// in its own patient and session number.
    template: SessionConfig,
    threads: usize,
}

impl std::fmt::Debug for CohortRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CohortRuntime")
            .field("horizon", &self.template.horizon)
            .field("predict_every", &self.template.predict_every)
            .field("threads", &self.threads)
            .finish()
    }
}

impl CohortRuntime {
    /// Creates a cohort runtime with its own shared engine over `store`.
    /// Defaults: default segmenter, 0.3 s horizon, a prediction tick
    /// every 30 samples (~1 Hz at the paper's 30 Hz sampling), one
    /// thread.
    pub fn new(store: impl Into<SharedStore>, params: Params) -> Result<Self, TsmError> {
        Self::with_engine(Arc::new(CachedMatcher::new(Matcher::new(store, params))))
    }

    /// Creates a cohort runtime over an existing shared engine. The
    /// engine's parameters are validated — an invalid configuration is an
    /// error, not a cohort of silently empty sessions.
    pub fn with_engine(engine: Arc<CachedMatcher>) -> Result<Self, TsmError> {
        engine
            .matcher()
            .params()
            .validate()
            .map_err(TsmError::InvalidParams)?;
        Ok(CohortRuntime {
            engine,
            template: SessionConfig::new(PatientId(0), 0).with_cadence(30),
            threads: 1,
        })
    }

    /// Overrides the segmenter configuration.
    pub fn with_segmenter(mut self, segmenter: SegmenterConfig) -> Self {
        self.template.segmenter = segmenter;
        self
    }

    /// Overrides the prediction horizon.
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.template.horizon = horizon;
        self
    }

    /// Overrides the prediction cadence (`0` disables ticks).
    pub fn with_cadence(mut self, every: usize) -> Self {
        self.template.predict_every = every;
        self
    }

    /// Sets the worker-thread count for [`CohortRuntime::replay`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the degradation policy every session runs under.
    pub fn with_policy(mut self, policy: DegradationPolicy) -> Self {
        self.template.policy = policy;
        self
    }

    /// The shared matching engine.
    pub fn engine(&self) -> &Arc<CachedMatcher> {
        &self.engine
    }

    /// The underlying store handle.
    pub fn store(&self) -> &StreamStore {
        self.engine.matcher().store()
    }

    /// Replays every spec to completion and returns the per-session
    /// reports in spec order.
    ///
    /// Sessions are distributed round-robin over the worker threads, and
    /// each session's report comes back as one bounded-channel message.
    /// A panic in a worker propagates out of this call; it is not
    /// retried, so a panic that only a pooled schedule triggers cannot
    /// hide behind a serial re-run.
    pub fn replay(&self, specs: &[SessionSpec]) -> CohortReport {
        // lint:allow(no-instant-now-in-hot-path): cohort wall-clock for
        // the report, taken once per replay — not a per-window hot path.
        let start = Instant::now();
        let sessions = self.replay_sessions(specs);
        let metrics = self.engine.metrics();
        metrics.add(
            Counter::CohortSessionsFailed,
            sessions.iter().filter(|s| s.error.is_some()).count() as u64,
        );
        // The largest per-session event backlog (ticks plus the terminal
        // event) any session produced — the bound a per-session streaming
        // collector would have needed, kept for capture continuity.
        if let Some(hwm) = sessions.iter().map(|s| s.ticks.len() as u64 + 1).max() {
            metrics.record_max(Counter::CohortBacklogHwm, hwm);
        }
        CohortReport {
            sessions,
            wall: start.elapsed(),
        }
    }

    /// The round-robin replay over the worker pool.
    fn replay_sessions(&self, specs: &[SessionSpec]) -> Vec<SessionReport> {
        let threads = self.threads.min(specs.len().max(1));
        if threads <= 1 {
            return specs.iter().map(|spec| self.drive_session(spec)).collect();
        }
        let mut batches: Vec<Vec<usize>> = (0..threads).map(|_| Vec::new()).collect();
        for i in 0..specs.len() {
            batches[i % threads].push(i);
        }
        // One bounded channel for the whole cohort: every session sends
        // exactly one report, so capacity `specs.len()` means a worker
        // can never block on the collector.
        let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, SessionReport)>(specs.len());
        // lint:allow(no-silent-result-drop): the vendored scope always
        // returns Ok; it wraps `std::thread::scope`, so a worker's panic
        // propagates out of it as a panic instead.
        let _ = crossbeam::thread::scope(|scope| {
            for batch in batches {
                let tx = tx.clone();
                scope.spawn(move |_| {
                    for i in batch {
                        let report = self.drive_session(&specs[i]);
                        // lint:allow(no-silent-result-drop): capacity
                        // covers every session and the receiver outlives
                        // the scope — a send cannot fail here.
                        let _ = tx.send((i, report));
                    }
                });
            }
        });
        drop(tx);
        // Every worker finished without panicking, so every session
        // reported exactly once.
        let mut reports: Vec<(usize, SessionReport)> = rx.into_iter().collect();
        reports.sort_unstable_by_key(|&(i, _)| i);
        reports.into_iter().map(|(_, report)| report).collect()
    }

    /// Runs one session to completion against the shared engine,
    /// keeping its tick log locally (no per-tick channel traffic), under
    /// the session's fault supervisor ([`SessionRuntime::ingest`]):
    /// recoverable faults (bad samples) are absorbed up to the policy's
    /// budget — the session degrades and keeps streaming instead of
    /// dying. Fatal errors, and a blown budget, terminate the session
    /// with a structured error.
    fn drive_session(&self, spec: &SessionSpec) -> SessionReport {
        let mut report = SessionReport::empty(spec);
        let config = SessionConfig {
            patient: spec.patient,
            session: spec.session,
            ..self.template.clone()
        };
        // `CohortRuntime::with_engine` already validated these parameters;
        // should the session still refuse to start, its report says why.
        let mut runtime = match SessionRuntime::with_engine(Arc::clone(&self.engine), config) {
            Ok(runtime) => runtime,
            Err(err) => return report.failed(err),
        };
        let outcome = runtime.ingest(&spec.samples);
        if outcome.is_ok() {
            runtime.finish();
        }
        report.ticks = runtime.ticks().to_vec();
        if let Err(err) = outcome {
            return report.failed(err);
        }
        report.vertices = runtime.live_vertices().len();
        report.samples = runtime.samples_seen();
        report.health = runtime.health();
        report.resyncs = runtime.resyncs();
        report.recovered_faults = runtime.faults_absorbed();
        report.complete = true;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_db::PatientAttributes;
    use tsm_model::{segment_signal, PlrTrajectory};
    use tsm_signal::{BreathingParams, SignalGenerator};

    fn seeded_store(seed: u64) -> (StreamStore, PatientId) {
        let store = StreamStore::new();
        let patient = store.add_patient(PatientAttributes::new());
        let samples = SignalGenerator::new(BreathingParams::default(), seed).generate(120.0);
        let vertices = segment_signal(&samples, SegmenterConfig::clean());
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        store.add_stream(patient, 0, plr, samples.len());
        (store, patient)
    }

    fn live_samples(seed: u64, duration: f64) -> Vec<Sample> {
        SignalGenerator::new(BreathingParams::default(), seed).generate(duration)
    }

    #[test]
    fn cohort_replay_reports_per_session_and_never_mutates_the_store() {
        let (store, patient) = seeded_store(28);
        let shared = store.into_shared();
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let runtime = CohortRuntime::new(shared.clone(), params)
            .unwrap()
            .with_segmenter(SegmenterConfig::clean());
        let specs: Vec<SessionSpec> = (0..3)
            .map(|i| SessionSpec {
                patient,
                session: i + 1,
                samples: live_samples(29 + i as u64, 40.0),
            })
            .collect();
        let v0 = shared.version();
        let report = runtime.replay(&specs);
        assert_eq!(shared.version(), v0, "replay must be read-only");
        assert_eq!(report.sessions.len(), 3);
        for (r, spec) in report.sessions.iter().zip(&specs) {
            assert!(r.complete);
            assert_eq!(r.session, spec.session);
            assert_eq!(r.samples, spec.samples.len());
            assert!(r.vertices > 0);
            assert!(
                r.predictions() > 0,
                "session {} abstained always",
                r.session
            );
        }
        assert_eq!(
            report.total_predictions(),
            report
                .sessions
                .iter()
                .map(|s| s.predictions())
                .sum::<usize>()
        );
    }

    #[test]
    fn cohort_parallel_matches_serial() {
        let (store, patient) = seeded_store(30);
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let specs: Vec<SessionSpec> = (0..3)
            .map(|i| SessionSpec {
                patient,
                session: i + 1,
                samples: live_samples(31 + i as u64, 30.0),
            })
            .collect();
        let serial = CohortRuntime::new(store.clone(), params.clone())
            .unwrap()
            .with_segmenter(SegmenterConfig::clean())
            .replay(&specs);
        let parallel = CohortRuntime::new(store, params)
            .unwrap()
            .with_segmenter(SegmenterConfig::clean())
            .with_threads(3)
            .replay(&specs);
        assert_eq!(serial.sessions, parallel.sessions);
    }

    #[test]
    fn one_poisoned_session_is_absorbed_by_the_supervisor() {
        let (store, patient) = seeded_store(34);
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let mut specs: Vec<SessionSpec> = (0..3)
            .map(|i| SessionSpec {
                patient,
                session: i + 1,
                samples: live_samples(35 + i as u64, 30.0),
            })
            .collect();
        // Poison the middle session with a NaN partway through.
        let mid = specs[1].samples.len() / 2;
        specs[1].samples[mid] = Sample::new_1d(specs[1].samples[mid].time, f64::NAN);
        for threads in [1, 3] {
            let report = CohortRuntime::new(store.clone(), params.clone())
                .unwrap()
                .with_segmenter(SegmenterConfig::clean())
                .with_threads(threads)
                .replay(&specs);
            assert_eq!(report.sessions.len(), 3);
            // The bad sample is a *recoverable* fault: the supervisor
            // absorbs it and the session still runs to completion.
            let bad = &report.sessions[1];
            assert!(bad.complete, "threads={threads}");
            assert!(bad.error.is_none(), "threads={threads}: {:?}", bad.error);
            assert_eq!(bad.recovered_faults, 1, "threads={threads}");
            assert!(bad.degraded_but_complete());
            for r in [&report.sessions[0], &report.sessions[2]] {
                assert!(r.complete, "threads={threads}");
                assert!(r.error.is_none());
                assert_eq!(r.recovered_faults, 0);
                assert!(r.vertices > 0);
            }
            assert_eq!(report.fatal_sessions(), 0);
            assert_eq!(report.degraded_sessions(), 1);
            assert_eq!(report.total_recovered_faults(), 1);
        }
    }

    #[test]
    fn exhausted_fault_budget_fails_with_a_structured_error() {
        let (store, patient) = seeded_store(36);
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let mut samples = live_samples(37, 30.0);
        let mid = samples.len() / 2;
        samples[mid] = Sample::new_1d(samples[mid].time, f64::NAN);
        let specs = [SessionSpec {
            patient,
            session: 1,
            samples,
        }];
        let report = CohortRuntime::new(store, params)
            .unwrap()
            .with_segmenter(SegmenterConfig::clean())
            .with_policy(DegradationPolicy {
                fault_budget: 0,
                ..DegradationPolicy::default()
            })
            .replay(&specs);
        let bad = &report.sessions[0];
        assert!(!bad.complete);
        assert_eq!(
            bad.error,
            Some(TsmError::FaultBudgetExhausted { absorbed: 0 })
        );
        assert_eq!(bad.health, SessionHealth::Degraded);
        assert_eq!(report.fatal_sessions(), 1);
    }

    #[test]
    fn invalid_engine_params_are_an_error_not_silent_sessions() {
        let (store, _) = seeded_store(60);
        let params = Params {
            delta: 0.0,
            ..Params::default()
        };
        let engine = Arc::new(CachedMatcher::new(Matcher::new(store, params)));
        assert!(matches!(
            CohortRuntime::with_engine(engine),
            Err(TsmError::InvalidParams(_))
        ));
    }
}
