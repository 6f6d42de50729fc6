//! Concurrent-session stress: many live sessions replaying against one
//! shared store must produce exactly the outcomes of a serial replay —
//! the store is read-only during replay and the engine's index cache is
//! safely shared, so scheduling cannot change results.
//!
//! The heavy test is release-only (`cargo test --release`); the tier-1
//! debug run skips it.

use std::sync::Arc;
use tsm_core::session::{CohortRuntime, SessionSpec};
use tsm_core::{CachedMatcher, Matcher, Params};
use tsm_db::{PatientAttributes, PatientId, SharedStore, StreamStore};
use tsm_model::{segment_signal, PlrTrajectory, SegmenterConfig};
use tsm_signal::{BreathingParams, NoiseParams, SignalGenerator};

fn seeded_store(seed: u64, patients: usize) -> (SharedStore, Vec<PatientId>) {
    let store = StreamStore::new();
    let mut ids = Vec::new();
    for p in 0..patients {
        let patient = store.add_patient(PatientAttributes::new());
        ids.push(patient);
        let samples = SignalGenerator::new(BreathingParams::default(), seed + p as u64)
            .with_noise(NoiseParams::typical())
            .generate(90.0);
        let vertices = segment_signal(&samples, SegmenterConfig::clean());
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        store.add_stream(patient, 0, plr, samples.len());
    }
    (store.into_shared(), ids)
}

fn specs(patients: &[PatientId], sessions: usize, seed: u64, duration: f64) -> Vec<SessionSpec> {
    (0..sessions)
        .map(|i| SessionSpec {
            patient: patients[i % patients.len()],
            session: 1 + (i / patients.len()) as u32,
            samples: SignalGenerator::new(BreathingParams::default(), seed + i as u64)
                .with_noise(NoiseParams::typical())
                .generate(duration),
        })
        .collect()
}

fn params() -> Params {
    Params {
        min_matches: 1,
        ..Params::default()
    }
}

/// 8 concurrent sessions against one shared store, on a shared engine:
/// no outcome divergence vs serial replay, and the store is untouched.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; run under cargo test --release")]
fn eight_concurrent_sessions_match_serial_replay() {
    let (store, patients) = seeded_store(0xACE, 2);
    let specs = specs(&patients, 8, 0xBEE, 45.0);
    let engine = Arc::new(CachedMatcher::new(Matcher::new(store.clone(), params())));

    let v0 = store.version();
    let serial = CohortRuntime::with_engine(engine.clone())
        .expect("valid parameters")
        .with_segmenter(SegmenterConfig::clean())
        .with_threads(1)
        .replay(&specs);
    let parallel = CohortRuntime::with_engine(engine)
        .expect("valid parameters")
        .with_segmenter(SegmenterConfig::clean())
        .with_threads(8)
        .replay(&specs);
    assert_eq!(store.version(), v0, "replay must never mutate the store");

    assert_eq!(serial.sessions.len(), 8);
    assert_eq!(
        serial.sessions, parallel.sessions,
        "parallel replay diverged from serial"
    );
    for r in &serial.sessions {
        assert!(r.complete);
        // Ticks fire on a deterministic cadence; predictions may abstain
        // on any given tick, so only the aggregate has a floor.
        assert!(
            r.ticks.len() > 10,
            "session {} saw only {} ticks",
            r.session,
            r.ticks.len()
        );
    }
    assert!(
        serial.total_predictions() > 40,
        "cohort made only {} predictions",
        serial.total_predictions()
    );
}

/// The shared engine builds each per-length index once for the whole
/// cohort; per-session engines re-build the same indexes per session.
#[test]
fn shared_engine_reuses_index_builds_across_sessions() {
    let (store, patients) = seeded_store(0xDAD, 2);
    let specs = specs(&patients, 4, 0xF00, 25.0);

    let shared_engine = Arc::new(CachedMatcher::new(Matcher::new(store.clone(), params())));
    let shared_report = CohortRuntime::with_engine(shared_engine.clone())
        .expect("valid parameters")
        .with_segmenter(SegmenterConfig::clean())
        .replay(&specs);
    let shared_rebuilds = shared_engine.cache().rebuild_count();

    let mut solo_rebuilds = 0;
    let mut solo_predictions = 0;
    for spec in &specs {
        let engine = Arc::new(CachedMatcher::new(Matcher::new(store.clone(), params())));
        let report = CohortRuntime::with_engine(engine.clone())
            .expect("valid parameters")
            .with_segmenter(SegmenterConfig::clean())
            .replay(std::slice::from_ref(spec));
        solo_rebuilds += engine.cache().rebuild_count();
        solo_predictions += report.total_predictions();
    }

    // Identical predictions either way...
    assert_eq!(shared_report.total_predictions(), solo_predictions);
    assert!(shared_report.total_predictions() > 0);
    // ...but the shared engine built each needed index once, not once per
    // session.
    assert!(
        shared_rebuilds < solo_rebuilds,
        "shared engine rebuilt {shared_rebuilds} indexes vs {solo_rebuilds} for per-session engines"
    );
}

/// Two runtimes over one shared handle observe the same version counter,
/// before and after a mutation through a third handle.
#[test]
fn runtimes_share_one_version_counter() {
    let (store, patients) = seeded_store(0xCAB, 1);
    let a = CohortRuntime::new(store.clone(), params()).unwrap();
    let b = CohortRuntime::new(store.clone(), params()).unwrap();
    assert_eq!(a.store().version(), b.store().version());

    // Mutate through the original handle: both runtimes see the bump.
    let samples = SignalGenerator::new(BreathingParams::default(), 9).generate(60.0);
    let vertices = segment_signal(&samples, SegmenterConfig::clean());
    let plr = PlrTrajectory::from_vertices(vertices).unwrap();
    let v_before = a.store().version();
    store.add_stream(patients[0], 5, plr, samples.len());
    assert!(a.store().version() > v_before);
    assert_eq!(a.store().version(), b.store().version());
    assert_eq!(a.store().version(), store.version());
}
