//! Pool size never changes results: the cohort runtime schedules
//! sessions over a worker pool, and every scenario here replays one
//! fixed-seed cohort — clean sessions, a gap-faulted session (resync +
//! health machine) and a poisoned session (absorbed recoverable fault) —
//! serially and on `threads ∈ {2, 4}`, and requires bit-identical
//! per-session `SessionReport`s: same ticks, same predictions, same
//! health transitions, same resync and fault accounting.
//!
//! This file is the CI pool-size equivalence stage's target (debug
//! build, fixed seeds): `cargo test -p tsm-core --test session_equivalence`.

use tsm_core::prelude::*;
use tsm_db::{PatientAttributes, PatientId, StreamStore};
use tsm_model::{segment_signal, PlrTrajectory, Sample, SegmenterConfig};
use tsm_signal::{BreathingParams, SignalGenerator};

const POOL_SIZES: [usize; 2] = [2, 4];

fn live_samples(seed: u64, duration: f64) -> Vec<Sample> {
    SignalGenerator::new(BreathingParams::default(), seed).generate(duration)
}

/// A store with `n` patients, each holding one 120 s base stream.
fn seeded_store(n: u32, seed: u64) -> (StreamStore, Vec<PatientId>) {
    let store = StreamStore::new();
    let patients: Vec<PatientId> = (0..n)
        .map(|i| {
            let patient = store.add_patient(PatientAttributes::new());
            let samples = SignalGenerator::new(BreathingParams::default(), seed + u64::from(i))
                .generate(120.0);
            let vertices = segment_signal(&samples, SegmenterConfig::clean());
            let plr = PlrTrajectory::from_vertices(vertices).unwrap();
            store.add_stream(patient, 0, plr, samples.len());
            patient
        })
        .collect();
    (store, patients)
}

/// The fixed-seed scenario cohort: clean, gap-faulted and poisoned
/// sessions spread over several patients.
fn scenario_specs(patients: &[PatientId], seed: u64) -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    for (i, &patient) in patients.iter().enumerate() {
        for session in 1..=3u32 {
            let spec_seed = seed + (i as u64) * 10 + u64::from(session);
            let mut samples = live_samples(spec_seed, 30.0);
            match session {
                // Session 2 of every patient: a 5 s acquisition dropout
                // halfway — the ingest guard resyncs, the session
                // degrades, then recovers.
                2 => {
                    let mid = samples.len() / 2;
                    for s in &mut samples[mid..] {
                        s.time += 5.0;
                    }
                }
                // Session 3 of the first patient: one NaN sample — a
                // recoverable fault the supervisor absorbs.
                3 if i == 0 => {
                    let mid = samples.len() / 2;
                    samples[mid] = Sample::new_1d(samples[mid].time, f64::NAN);
                }
                _ => {}
            }
            specs.push(SessionSpec {
                patient,
                session,
                samples,
            });
        }
    }
    specs
}

fn runtime(store: &StreamStore) -> CohortRuntime {
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    CohortRuntime::new(store.clone(), params)
        .unwrap()
        .with_segmenter(SegmenterConfig::clean())
}

/// Every report either ran to completion or carries the error that
/// ended it — never both, never neither.
fn assert_complete_or_failed(report: &CohortReport) {
    for s in &report.sessions {
        assert!(
            s.complete != s.error.is_some(),
            "session ({:?}, {}) must be exactly one of complete or failed",
            s.patient,
            s.session
        );
    }
}

#[test]
fn pooled_replay_is_bit_identical_to_serial() {
    let (store, patients) = seeded_store(3, 70);
    let specs = scenario_specs(&patients, 100);
    let baseline = runtime(&store).replay(&specs);

    // The scenarios actually exercise the fault machinery.
    assert!(baseline.sessions.iter().all(|s| s.complete));
    assert!(baseline.sessions.iter().any(|s| s.resyncs > 0));
    assert!(baseline.sessions.iter().any(|s| s.recovered_faults > 0));
    assert!(baseline.total_predictions() > 0);
    assert_complete_or_failed(&baseline);

    for threads in POOL_SIZES {
        let pooled = runtime(&store).with_threads(threads).replay(&specs);
        assert_eq!(
            baseline.sessions, pooled.sessions,
            "threads={threads} diverged from the serial replay"
        );
        assert_complete_or_failed(&pooled);
    }
}

#[test]
fn warm_second_replay_is_identical_and_rebuilds_nothing() {
    // The engine persists across replays (warm index cache); reports
    // must not drift between calls on the same runtime.
    let (store, patients) = seeded_store(2, 74);
    let specs = scenario_specs(&patients, 140);
    let rt = runtime(&store).with_threads(4);
    let first = rt.replay(&specs);
    let rebuilds = rt.engine().cache().rebuild_count();
    assert!(rebuilds > 0, "the first replay built no index");
    let second = rt.replay(&specs);
    assert_eq!(first.sessions, second.sessions);
    // The first replay built every index; the second runs entirely on
    // the warm cache.
    assert_eq!(
        rt.engine().cache().rebuild_count(),
        rebuilds,
        "a warm replay rebuilt an index"
    );
}

#[test]
fn more_threads_than_sessions_is_sane() {
    use std::sync::Arc;
    use tsm_core::index_cache::CachedMatcher;
    use tsm_core::matcher::Matcher;
    use tsm_core::metrics::MetricsRegistry;

    let (store, patients) = seeded_store(2, 86);
    // Three sessions on eight threads: the pool is clamped to the cohort.
    let specs: Vec<SessionSpec> = scenario_specs(&patients, 260).into_iter().take(3).collect();
    let baseline = runtime(&store).replay(&specs);

    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let metrics = MetricsRegistry::enabled();
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(store.clone(), params).with_metrics(metrics.clone()),
    ));
    let rt = CohortRuntime::with_engine(engine)
        .unwrap()
        .with_segmenter(SegmenterConfig::clean())
        .with_threads(8);
    let pooled = rt.replay(&specs);

    // Per-session reports are unchanged by the oversized pool.
    assert_eq!(baseline.sessions, pooled.sessions);
    assert_complete_or_failed(&pooled);

    // The one shared registry reconciles.
    let snapshot = rt.engine().metrics().snapshot();
    if let Err(msg) = snapshot.check_invariants() {
        panic!("pooled snapshot does not reconcile: {msg}");
    }
    assert!(snapshot.counter("cohort.sessions") >= specs.len() as u64);

    // An empty cohort on many threads is a no-op, not a hang.
    let empty = rt.replay(&[]);
    assert!(empty.sessions.is_empty());
}

#[test]
fn fault_budget_exhaustion_is_identical_across_pool_sizes() {
    let (store, patients) = seeded_store(2, 82);
    let mut specs = scenario_specs(&patients, 220);
    // Poison one extra session so a zero budget fails it immediately.
    let mid = specs[0].samples.len() / 3;
    let t = specs[0].samples[mid].time;
    specs[0].samples[mid] = Sample::new_1d(t, f64::NAN);
    let zero_budget = DegradationPolicy {
        fault_budget: 0,
        ..DegradationPolicy::default()
    };
    let baseline = runtime(&store).with_policy(zero_budget).replay(&specs);
    let failed = baseline.fatal_sessions();
    assert!(failed >= 1, "no session exhausted the zero budget");
    assert!(baseline.sessions[0].error.is_some());
    assert!(!baseline.sessions[0].complete);
    assert_eq!(baseline.sessions[0].health, SessionHealth::Degraded);
    assert_complete_or_failed(&baseline);
    for threads in POOL_SIZES {
        let pooled = runtime(&store)
            .with_policy(zero_budget)
            .with_threads(threads)
            .replay(&specs);
        assert_eq!(
            baseline.sessions, pooled.sessions,
            "threads={threads}: fault-budget semantics diverged"
        );
        assert_eq!(pooled.fatal_sessions(), failed);
        assert_complete_or_failed(&pooled);
    }
}
