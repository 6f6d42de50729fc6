//! End-to-end reconciliation of the metrics layer: drive real searches
//! and a real cohort replay through an *enabled* registry and prove the
//! counters add up —
//!
//! * `match.windows_scored == match.windows_abandoned + match.windows_completed`
//! * `index.dur_band_candidates <= index.amp_band_candidates <=
//!   index.bucket_candidates`, on both plans
//! * `cache.hits + cache.misses == cache.lookups`
//! * served + abstained predictions == ticks
//! * `predict.memo_hits <= predict.lookups`
//!
//! and that snapshots diff cleanly across an interval.

use std::sync::Arc;
use tsm_core::metrics::MetricsRegistry;
use tsm_core::session::{CohortRuntime, SessionConfig, SessionRuntime, SessionSpec};
use tsm_core::{CachedMatcher, Matcher, Params, QuerySubseq, SearchOptions};
use tsm_db::{PatientAttributes, PatientId, StreamStore, SubseqRef};
use tsm_model::{segment_signal, PlrTrajectory, Sample, SegmenterConfig, MAX_SIGNATURE_LEN};
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
fn matcher_counters_reconcile_across_all_variants() {
    let (store, _) = seeded_store(61);
    let metrics = MetricsRegistry::enabled();
    let cached = CachedMatcher::new(
        Matcher::new(store.clone(), Params::default()).with_metrics(metrics.clone()),
    );
    let view = store
        .resolve(SubseqRef::new(tsm_db::StreamId(0), 0, 9))
        .unwrap();
    let query = QuerySubseq::from_view(&view);
    let opts = SearchOptions::default();

    // Exercise the cached/pruned plan, the plain scan and the cached
    // scan fallback (a query too long to key an index) against the same
    // registry.
    cached.find_matches(&query, &opts);
    cached.find_matches(&query, &opts);
    cached.matcher().find_matches_with(&query, &opts);
    let long = store
        .resolve(SubseqRef::new(
            tsm_db::StreamId(0),
            0,
            MAX_SIGNATURE_LEN + 1,
        ))
        .expect("a 120 s stream outlasts the signature cap");
    cached.find_matches(&QuerySubseq::from_view(&long), &opts);

    let snap = metrics.snapshot();
    snap.check_invariants().expect("counters reconcile");
    assert_eq!(snap.counter("match.searches"), 4);
    assert!(snap.counter("match.windows_scored") > 0);
    assert_eq!(
        snap.counter("match.windows_scored"),
        snap.counter("match.windows_abandoned") + snap.counter("match.windows_completed")
    );
    // Two cached searches of the same length: one miss, one hit. The
    // long query never looks an index up.
    assert_eq!(snap.counter("cache.lookups"), 2);
    assert_eq!(snap.counter("cache.hits"), 1);
    assert_eq!(snap.counter("cache.misses"), 1);
    assert_eq!(
        snap.counter("cache.hits") + snap.counter("cache.misses"),
        snap.counter("cache.lookups")
    );
    assert_eq!(snap.counter("cache.rebuilds"), 1);
    // The pruned path reported its band funnel.
    assert!(snap.counter("index.bucket_candidates") >= snap.counter("index.amp_band_candidates"));
    assert!(snap.counter("index.amp_band_candidates") >= snap.counter("index.dur_band_candidates"));
    // Search latency histogram observed exactly the cached searches.
    assert_eq!(
        snap.histograms
            .get("match.search_latency_ns")
            .map(|h| h.count)
            .unwrap_or(0),
        3
    );
}

/// Both plans' band funnel is a ledger: the windows with the query's
/// state order (the pruned plan's bucket, the scan's gate survivors),
/// then those inside their source tier's amplitude band, then those
/// inside its duration band too, which are exactly the windows scored
/// when no window is the query's own and no patient is excluded. The
/// scan's gate splits every window of the streams long enough for the
/// query between the bucket and `match.windows_state_mismatch`.
#[test]
fn band_funnel_narrows_to_the_windows_scored() {
    let (store, _) = seeded_store(62);
    let view = store
        .resolve(SubseqRef::new(tsm_db::StreamId(0), 4, 9))
        .unwrap();
    // Detached, so every stored window is another patient's (ws = 0.3).
    let query = QuerySubseq::new(view.vertices().to_vec());
    let windows: u64 = store
        .streams()
        .iter()
        .map(|s| (s.plr.num_segments() + 1).saturating_sub(query.len()) as u64)
        .sum();
    for delta in [0.5, 8.0] {
        let opts = SearchOptions {
            delta_override: Some(delta),
            ..Default::default()
        };
        for scan in [false, true] {
            let metrics = MetricsRegistry::enabled();
            let cached = CachedMatcher::new(
                Matcher::new(store.clone(), Params::default()).with_metrics(metrics.clone()),
            );
            let matches = if scan {
                cached.matcher().find_matches_with(&query, &opts)
            } else {
                cached.find_matches(&query, &opts)
            };
            let snap = metrics.snapshot();
            snap.check_invariants().expect("counters reconcile");
            let bucket = snap.counter("index.bucket_candidates");
            let amp = snap.counter("index.amp_band_candidates");
            let dur = snap.counter("index.dur_band_candidates");
            assert!(dur <= amp && amp <= bucket, "{bucket} -> {amp} -> {dur}");
            assert_eq!(snap.counter("match.windows_scored"), dur);
            assert!(matches.len() as u64 <= dur);
            if delta < 1.0 {
                assert!(amp < bucket, "a tight band kept the whole bucket");
            }
            if scan {
                let mismatch = snap.counter("match.windows_state_mismatch");
                assert_eq!(bucket + mismatch, windows, "δ = {delta}");
            }
        }
    }
}

#[test]
fn session_replay_counters_reconcile_and_diff() {
    let (store, patient) = seeded_store(62);
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let metrics = MetricsRegistry::enabled();
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(store.into_shared(), params).with_metrics(metrics.clone()),
    ));
    let runtime = CohortRuntime::with_engine(engine)
        .unwrap()
        .with_segmenter(SegmenterConfig::clean())
        .with_threads(2);
    let specs: Vec<SessionSpec> = (0..2)
        .map(|i| SessionSpec {
            patient,
            session: i + 1,
            samples: live_samples(63 + i as u64, 40.0),
        })
        .collect();

    let before = metrics.snapshot();
    let report = runtime.replay(&specs);
    let after = metrics.snapshot();
    let interval = after.diff(&before);

    after.check_invariants().expect("counters reconcile");
    interval
        .check_invariants()
        .expect("diffed counters reconcile");

    let total_samples: u64 = specs.iter().map(|s| s.samples.len() as u64).sum();
    assert_eq!(interval.counter("segment.samples"), total_samples);
    assert_eq!(interval.counter("segment.samples_rejected"), 0);
    assert_eq!(interval.counter("cohort.sessions"), 2);
    assert_eq!(interval.counter("cohort.sessions_failed"), 0);
    assert_eq!(
        interval.counter("session.ticks"),
        report.total_ticks() as u64
    );
    assert_eq!(
        interval.counter("session.predictions_served"),
        report.total_predictions() as u64
    );
    assert_eq!(
        interval.counter("session.predictions_served")
            + interval.counter("session.predictions_abstained"),
        interval.counter("session.ticks")
    );
    // Every session emitted vertices, and the backlog high-water mark is
    // bounded by the busiest session's event count.
    assert!(interval.counter("segment.vertices_emitted") > 0);
    assert!(interval.counter("segment.state_transitions") > 0);
    let max_events = report
        .sessions
        .iter()
        .map(|s| s.ticks.len() as u64 + 1)
        .max()
        .unwrap();
    assert_eq!(interval.counter("cohort.backlog_hwm"), max_events);
    // The tick latency histogram saw exactly the ticks.
    assert_eq!(
        interval
            .histograms
            .get("session.tick_latency_ns")
            .map(|h| h.count)
            .unwrap_or(0),
        report.total_ticks() as u64
    );
}

/// Regression: BENCH_pipeline captures showed `cohort.sessions: 0` while
/// four directly-driven sessions ran and produced predictions — the
/// counter was only bumped on the `CohortRuntime::replay` path. Session
/// starts are now counted at runtime construction, so *every* driving
/// style (direct `SessionRuntime`, serial or pooled replay) reconciles
/// against the sessions that actually ran.
#[test]
fn directly_driven_sessions_count_into_cohort_sessions() {
    let (store, patient) = seeded_store(64);
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let metrics = MetricsRegistry::enabled();
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(store.into_shared(), params).with_metrics(metrics.clone()),
    ));
    let sessions_run = 4u64;
    let (mut ticks, mut served) = (0u64, 0u64);
    for i in 0..sessions_run {
        let config = SessionConfig::new(patient, i as u32 + 1)
            .with_segmenter(SegmenterConfig::clean())
            .with_cadence(30);
        let mut runtime = SessionRuntime::with_engine(engine.clone(), config).unwrap();
        for &s in &live_samples(65 + i, 20.0) {
            runtime.push(s).unwrap();
        }
        runtime.finish();
        ticks += runtime.ticks().len() as u64;
        served += runtime
            .ticks()
            .iter()
            .filter(|t| t.outcome.is_some())
            .count() as u64;
    }
    let snap = metrics.snapshot();
    snap.check_invariants().expect("counters reconcile");
    assert_eq!(snap.counter("cohort.sessions"), sessions_run);
    assert!(ticks > 0);
    // The tick logs and the tick counters describe the same ticks.
    assert_eq!(snap.counter("session.ticks"), ticks);
    assert_eq!(snap.counter("session.predictions_served"), served);
}

/// A pooled replay records every session into the one shared registry —
/// the interval must reconcile against the reports exactly.
#[test]
fn pooled_replay_counters_reconcile() {
    let (store, patient) = seeded_store(66);
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let metrics = MetricsRegistry::enabled();
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(store.into_shared(), params).with_metrics(metrics.clone()),
    ));
    let runtime = CohortRuntime::with_engine(engine)
        .unwrap()
        .with_segmenter(SegmenterConfig::clean())
        .with_threads(2);
    let specs: Vec<SessionSpec> = (0..4)
        .map(|i| SessionSpec {
            patient,
            session: i + 1,
            samples: live_samples(67 + i as u64, 30.0),
        })
        .collect();

    let before = metrics.snapshot();
    let report = runtime.replay(&specs);
    let interval = metrics.snapshot().diff(&before);

    interval
        .check_invariants()
        .expect("pooled counters reconcile");
    assert_eq!(
        interval.counter("cohort.sessions"),
        report.sessions.len() as u64
    );
    assert_eq!(interval.counter("cohort.sessions_failed"), 0);
    assert_eq!(
        interval.counter("session.ticks"),
        report.total_ticks() as u64
    );
    assert_eq!(
        interval.counter("session.predictions_served"),
        report.total_predictions() as u64
    );
    let total_samples: u64 = specs.iter().map(|s| s.samples.len() as u64).sum();
    assert_eq!(interval.counter("segment.samples"), total_samples);
    let max_events = report
        .sessions
        .iter()
        .map(|s| s.ticks.len() as u64 + 1)
        .max()
        .unwrap();
    assert_eq!(interval.counter("cohort.backlog_hwm"), max_events);
}

/// Two `predict` calls with no vertex closing in between: the second is
/// answered by the session's memo, so it counts a lookup and a hit but
/// no search.
#[test]
fn repeated_predict_is_one_search_and_one_memo_hit() {
    let (store, patient) = seeded_store(68);
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let metrics = MetricsRegistry::enabled();
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(store.into_shared(), params).with_metrics(metrics.clone()),
    ));
    let config = SessionConfig::new(patient, 1).with_segmenter(SegmenterConfig::clean());
    let mut runtime = SessionRuntime::with_engine(engine, config).unwrap();
    for &s in &live_samples(69, 30.0) {
        runtime.push(s).unwrap();
    }
    let before = metrics.snapshot();
    let first = runtime.predict(0.3);
    let second = runtime.predict(0.3);
    let interval = metrics.snapshot().diff(&before);
    interval.check_invariants().expect("counters reconcile");
    assert!(first.is_some(), "warm session abstained");
    assert_eq!(first, second);
    assert_eq!(interval.counter("predict.lookups"), 2);
    assert_eq!(interval.counter("predict.memo_hits"), 1);
    assert_eq!(interval.counter("match.searches"), 1);
}
