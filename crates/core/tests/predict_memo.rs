//! The prediction memo is invisible: a session driven sample by sample,
//! with `predict` called after every sample, must return the outcome a
//! memo-cold recomputation gives, bit for bit, through every change of
//! the memo's inputs (new vertices, a store mutation, `dt`, the session
//! config, a resync that starts a new epoch).

use std::sync::Arc;
use tsm_core::metrics::MetricsRegistry;
use tsm_core::pipeline::PredictionOutcome;
use tsm_core::predict::{predict_position, AlignMode};
use tsm_core::query::generate_query;
use tsm_core::session::{SessionConfig, SessionRuntime};
use tsm_core::{CachedMatcher, Matcher, Params, QuerySubseq, SearchOptions};
use tsm_db::{PatientAttributes, PatientId, SharedStore, StreamStore};
use tsm_model::{segment_signal, PlrTrajectory, Sample, SegmenterConfig};
use tsm_signal::{BreathingParams, SignalGenerator};

const DT: f64 = 0.3;

fn history(seed: u64) -> PlrTrajectory {
    let samples = SignalGenerator::new(BreathingParams::default(), seed).generate(120.0);
    PlrTrajectory::from_vertices(segment_signal(&samples, SegmenterConfig::clean())).unwrap()
}

fn seeded_store(seed: u64) -> (SharedStore, PatientId) {
    let store = StreamStore::new();
    let patient = store.add_patient(PatientAttributes::new());
    store.add_stream(patient, 0, history(seed), 3600);
    (store.into_shared(), patient)
}

fn live_samples(seed: u64, duration: f64) -> Vec<Sample> {
    SignalGenerator::new(BreathingParams::default(), seed).generate(duration)
}

/// A session over `store` recording into a fresh registry.
fn session(store: &SharedStore, patient: PatientId) -> (SessionRuntime, MetricsRegistry) {
    let metrics = MetricsRegistry::enabled();
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(Arc::clone(store), params).with_metrics(metrics.clone()),
    ));
    let config = SessionConfig::new(patient, 1).with_segmenter(SegmenterConfig::clean());
    (
        SessionRuntime::with_engine(engine, config).unwrap(),
        metrics,
    )
}

/// `SessionRuntime::predict` one layer call at a time, with no memo.
fn cold_predict(rt: &SessionRuntime, dt: f64) -> Option<PredictionOutcome> {
    let config = rt.config();
    let epoch = rt.epoch_vertices();
    let generated = generate_query(epoch, rt.params())?;
    let query = QuerySubseq::new(generated.vertices(epoch).to_vec())
        .with_origin(config.patient, config.session);
    let matches = rt.engine().find_matches(&query, &config.options);
    let position = predict_position(rt.store(), &query, &matches, dt, rt.params(), config.align)?;
    Some(PredictionOutcome {
        position,
        num_matches: matches.len(),
        query_len: generated.len,
        query_stable: generated.stable,
    })
}

fn bits(o: &Option<PredictionOutcome>) -> Option<(Vec<u64>, usize, usize, bool)> {
    o.as_ref().map(|o| {
        let coords = o.position.coords().iter().map(|c| c.to_bits()).collect();
        (coords, o.num_matches, o.query_len, o.query_stable)
    })
}

/// Calls `predict(dt)` and checks it against the cold recomputation.
fn check(rt: &SessionRuntime, dt: f64, at: &str) -> Option<PredictionOutcome> {
    let got = rt.predict(dt);
    assert_eq!(bits(&got), bits(&cold_predict(rt, dt)), "{at}");
    got
}

fn counters(metrics: &MetricsRegistry) -> (u64, u64, u64) {
    let s = metrics.snapshot();
    s.check_invariants().expect("counters reconcile");
    (
        s.counter("predict.lookups"),
        s.counter("predict.memo_hits"),
        s.counter("match.searches"),
    )
}

#[test]
fn memo_is_bit_identical_sample_by_sample() {
    let (store, patient) = seeded_store(81);
    let (mut rt, metrics) = session(&store, patient);
    let mut predicted = 0;
    for (i, &s) in live_samples(82, 60.0).iter().enumerate() {
        rt.push(s).unwrap();
        predicted += usize::from(check(&rt, DT, &format!("sample {i}")).is_some());
    }
    assert!(predicted > 100, "only {predicted} predictions");
    // Most calls saw no new vertex; each of those was a hit and searched
    // nothing (the cold recomputations account for one search per call).
    let (lookups, hits, searches) = counters(&metrics);
    assert!(hits * 2 > lookups, "{hits} hits of {lookups} lookups");
    assert_eq!(searches, 2 * lookups - hits);
}

#[test]
fn a_store_mutation_between_calls_is_seen() {
    let (store, patient) = seeded_store(83);
    let (mut rt, metrics) = session(&store, patient);
    for &s in &live_samples(84, 40.0) {
        rt.push(s).unwrap();
    }
    let before = check(&rt, DT, "warm").expect("warm session predicts");
    // A second copy of the history: every match it held now has a twin.
    store.add_stream(patient, 2, history(83), 3600);
    let (_, hits, _) = counters(&metrics);
    let after = check(&rt, DT, "after add_stream").expect("still predicts");
    assert_eq!(counters(&metrics).1, hits, "served from a stale memo");
    assert!(
        after.num_matches > before.num_matches,
        "new stream's matches missing: {} -> {}",
        before.num_matches,
        after.num_matches
    );
    // Unchanged store: the next call is a hit again.
    check(&rt, DT, "repeat");
    assert_eq!(counters(&metrics).1, hits + 1);
}

#[test]
fn dt_and_config_changes_recompute() {
    let (store, patient) = seeded_store(85);
    let (mut rt, metrics) = session(&store, patient);
    for &s in &live_samples(86, 40.0) {
        rt.push(s).unwrap();
    }
    let base = check(&rt, DT, "base").expect("warm session predicts");
    let (_, hits, _) = counters(&metrics);

    let later = check(&rt, 0.6, "dt 0.6").unwrap();
    assert_ne!(later.position, base.position);
    check(&rt, DT, "dt back");
    assert_eq!(counters(&metrics).1, hits, "a dt change was a hit");

    rt.config_mut().align = AlignMode::FirstVertex;
    check(&rt, DT, "first-vertex alignment");
    assert_eq!(counters(&metrics).1, hits, "an align change was a hit");

    rt.config_mut().options = SearchOptions {
        top_k: Some(2),
        ..SearchOptions::default()
    };
    let top2 = check(&rt, DT, "top-2").unwrap();
    assert_eq!(top2.num_matches, 2);
    assert_eq!(counters(&metrics).1, hits, "an options change was a hit");

    check(&rt, DT, "repeat");
    assert_eq!(counters(&metrics).1, hits + 1);
}

#[test]
fn a_resync_starts_a_fresh_epoch() {
    let (store, patient) = seeded_store(87);
    let (mut rt, metrics) = session(&store, patient);
    let samples = live_samples(88, 80.0);
    let mid = samples.len() / 2;
    for &s in &samples[..mid] {
        rt.push(s).unwrap();
    }
    check(&rt, DT, "before the gap").expect("warm session predicts");
    // A 5 s acquisition dropout: the guard resyncs and the query restarts
    // from the new epoch's vertices.
    let mut abstained = 0;
    for (i, &s) in samples[mid..].iter().enumerate() {
        let shifted = Sample::new_1d(s.time + 5.0, s.position[0]);
        rt.push(shifted).unwrap();
        let outcome = check(&rt, DT, &format!("after the gap, sample {i}"));
        abstained += usize::from(outcome.is_none());
    }
    assert_eq!(rt.resyncs(), 1);
    assert!(abstained > 0, "the new epoch never abstained while warming");
    assert!(
        rt.predict(DT).is_some(),
        "the new epoch never predicted again"
    );
    counters(&metrics);
}
