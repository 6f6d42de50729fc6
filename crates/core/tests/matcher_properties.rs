//! Property tests of the matcher and predictor over simulated stores.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tsm_core::matcher::{MatchResult, Matcher, QuerySubseq, SearchOptions};
use tsm_core::metrics::{MetricsRegistry, MetricsSnapshot};
use tsm_core::params::AmplitudeMetric;
use tsm_core::predict::{predict_position, AlignMode};
use tsm_core::{CachedMatcher, Params};
use tsm_db::{FeatureIndex, PatientAttributes, StreamStore, SubseqRef};
use tsm_model::{segment_signal, PlrTrajectory, Position, SegmenterConfig, MAX_SIGNATURE_LEN};
use tsm_signal::{BreathingParams, SignalGenerator};

/// Builds a small store of 2 patients × 2 one-dimensional 60 s streams
/// with the given parameters, returning the store and the first stream's
/// id.
fn build_store(amp: f64, period: f64, seed: u64) -> (StreamStore, tsm_db::StreamId) {
    build_store_with(amp, period, seed, 1, 60.0)
}

/// [`build_store`] with the streams' dimensionality and duration chosen.
fn build_store_with(
    amp: f64,
    period: f64,
    seed: u64,
    dim: usize,
    duration_s: f64,
) -> (StreamStore, tsm_db::StreamId) {
    let store = StreamStore::new();
    let mut first = None;
    for p in 0..2u64 {
        let pid = store.add_patient(PatientAttributes::new());
        for s in 0..2u64 {
            let params = BreathingParams {
                amplitude_mm: amp * (1.0 + 0.1 * p as f64),
                period_s: period,
                dim,
                ..Default::default()
            };
            let samples = SignalGenerator::new(params, seed * 97 + p * 13 + s).generate(duration_s);
            let vertices = segment_signal(&samples, SegmenterConfig::clean());
            if let Ok(plr) = PlrTrajectory::from_vertices(vertices) {
                let id = store.add_stream(pid, s as u32, plr, samples.len());
                first.get_or_insert(id);
            }
        }
    }
    (store, first.expect("at least one stream"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Matcher postconditions: sorted by distance, within delta, state
    /// orders identical to the query, self-overlap excluded.
    #[test]
    fn matcher_postconditions(
        amp in 6.0f64..18.0,
        period in 3.0f64..5.5,
        seed in 1u64..500,
        start in 0usize..10,
    ) {
        let (store, id) = build_store(amp, period, seed);
        let params = Params::default();
        let matcher = Matcher::new(store.clone(), params.clone());
        let Some(view) = store.resolve(SubseqRef::new(id, start, 9)) else {
            return Ok(());
        };
        let query = QuerySubseq::from_view(&view);
        let matches = matcher.find_matches(&query);
        let q_states: Vec<_> = query.states();
        let q_first = query.vertices.first().unwrap().time;
        let q_last = query.vertices.last().unwrap().time;
        for w in matches.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance);
        }
        for m in &matches {
            prop_assert!(m.distance <= params.delta);
            prop_assert!(m.distance >= 0.0);
            let v = store.resolve(m.subseq).unwrap();
            let c_states: Vec<_> = v.states().collect();
            prop_assert_eq!(&c_states, &q_states);
            if m.subseq.stream == id {
                // No overlap with the query's own window.
                prop_assert!(
                    v.last_vertex().time <= q_first || v.first_vertex().time >= q_last
                );
            }
        }
    }

    /// The index-pruned plan (`CachedMatcher` through its cached
    /// `FeatureIndex`) agrees with the scan and the naive oracle on
    /// simulated stores, for every query cut and threshold.
    #[test]
    fn indexed_and_pruned_searches_equal_scan(
        amp in 6.0f64..18.0,
        seed in 1u64..500,
        start in 0usize..8,
        len in 3usize..12,
        delta in 0.2f64..10.0,
    ) {
        let (store, id) = build_store(amp, 4.0, seed);
        let matcher = Matcher::new(store.clone(), Params::default());
        let cached = CachedMatcher::new(matcher.clone());
        let Some(view) = store.resolve(SubseqRef::new(id, start, len)) else {
            return Ok(());
        };
        let query = QuerySubseq::from_view(&view);
        let opts = SearchOptions {
            delta_override: Some(delta),
            ..Default::default()
        };
        let naive = matcher.find_matches_naive(&query, &opts);
        prop_assert_eq!(&naive, &matcher.find_matches_with(&query, &opts));
        prop_assert_eq!(&naive, &cached.find_matches(&query, &opts));
    }

    /// The tentpole invariant: both plans — the columnar scan and the
    /// feature-pruned search `CachedMatcher` runs — return *exactly* the
    /// naive vertex-walking reference's ordered top-k: same windows,
    /// bit-identical distances (MatchResult's `PartialEq` compares f64
    /// equality), same order. Exercised across query cuts, k, δ and
    /// patient restrictions.
    #[test]
    fn all_variants_return_identical_ordered_topk(
        amp in 6.0f64..18.0,
        seed in 1u64..500,
        start in 0usize..8,
        len in 3usize..12,
        k in 1usize..12,
        delta in 0.3f64..10.0,
        restrict in proptest::bool::ANY,
    ) {
        let (store, id) = build_store(amp, 4.0, seed);
        let matcher = Matcher::new(store.clone(), Params::default());
        let cached = CachedMatcher::new(matcher.clone());
        let Some(view) = store.resolve(SubseqRef::new(id, start, len)) else {
            return Ok(());
        };
        let query = QuerySubseq::from_view(&view);
        let opts = SearchOptions {
            top_k: Some(k),
            delta_override: Some(delta),
            restrict_patients: restrict.then(|| {
                store.patients().into_iter().take(1).collect()
            }),
        };
        let naive = matcher.find_matches_naive(&query, &opts);
        prop_assert!(naive.len() <= k);
        prop_assert_eq!(&naive, &matcher.find_matches_with(&query, &opts));
        prop_assert_eq!(&naive, &cached.find_matches(&query, &opts));
        // Instrumentation must be pure observation: a metrics-enabled
        // matcher returns the bit-identical ordered top-k on both plans,
        // and its counters reconcile.
        let metrics = MetricsRegistry::enabled();
        let instrumented = CachedMatcher::new(
            Matcher::new(store.clone(), Params::default()).with_metrics(metrics.clone()),
        );
        prop_assert_eq!(&naive, &instrumented.matcher().find_matches_with(&query, &opts));
        prop_assert_eq!(&naive, &instrumented.find_matches(&query, &opts));
        let snap = metrics.snapshot();
        prop_assert!(snap.check_invariants().is_ok(), "{:?}", snap.check_invariants());
        prop_assert_eq!(snap.counter("match.searches"), 2);
        // The top-k is a prefix of the unbounded result.
        let unbounded = matcher.find_matches_with(&query, &SearchOptions {
            top_k: None,
            ..opts.clone()
        });
        prop_assert_eq!(&unbounded[..naive.len().min(unbounded.len())], &naive[..]);
    }

    /// The plans off the axis metric's common path equal the oracle too:
    /// the spatial amplitude metric, whose windows the band filters by
    /// their axis summary and the exact rescore scores by their spatial
    /// displacement, and queries longer than `MAX_SIGNATURE_LEN`
    /// segments, which `CachedMatcher` sends to the scan. Runs on 3-D
    /// streams long enough for such queries.
    #[test]
    fn spatial_and_long_queries_equal_the_oracle(
        amp in 6.0f64..18.0,
        seed in 1u64..500,
        start in 0usize..8,
        long in proptest::bool::ANY,
        short_len in 3usize..12,
        k in 1usize..12,
        delta in 0.3f64..10.0,
        spatial in proptest::bool::ANY,
    ) {
        let (store, id) = build_store_with(amp, 4.0, seed, 3, 120.0);
        let params = Params {
            amplitude_metric: if spatial {
                AmplitudeMetric::Spatial
            } else {
                AmplitudeMetric::Axis
            },
            ..Params::default()
        };
        let matcher = Matcher::new(store.clone(), params);
        let cached = CachedMatcher::new(matcher.clone());
        let len = if long { MAX_SIGNATURE_LEN + 1 + short_len } else { short_len };
        let view = store.resolve(SubseqRef::new(id, start, len));
        prop_assert!(view.is_some(), "stream too short for a {}-segment query", len);
        let query = QuerySubseq::from_view(&view.unwrap());
        for top_k in [Some(k), None] {
            let opts = SearchOptions {
                top_k,
                delta_override: Some(delta),
                ..Default::default()
            };
            let naive = matcher.find_matches_naive(&query, &opts);
            prop_assert_eq!(&naive, &matcher.find_matches_with(&query, &opts));
            prop_assert_eq!(&naive, &cached.find_matches(&query, &opts));
        }
        // Long queries never build an index; short ones build one.
        prop_assert_eq!(cached.cache().rebuild_count(), u64::from(!long));
    }

    /// Predictions are always finite and inside (a generous expansion of)
    /// the motion envelope.
    #[test]
    fn predictions_stay_in_the_envelope(
        amp in 6.0f64..18.0,
        seed in 1u64..500,
        dt in 0.0f64..0.5,
    ) {
        let (store, id) = build_store(amp, 4.0, seed);
        let params = Params { min_matches: 1, ..Params::default() };
        let matcher = Matcher::new(store.clone(), params.clone());
        let stream = store.stream(id).unwrap();
        let nseg = stream.plr.num_segments();
        prop_assume!(nseg > 15);
        let view = store.resolve(SubseqRef::new(id, nseg / 2, 9)).unwrap();
        let query = QuerySubseq::from_view(&view);
        let matches = matcher.find_matches(&query);
        if let Some(p) = predict_position(&store, &query, &matches, dt, &params, AlignMode::default()) {
            prop_assert!(p.is_finite());
            let lo = stream.plr.vertices().iter().map(|v| v.position[0]).fold(f64::INFINITY, f64::min);
            let hi = stream.plr.vertices().iter().map(|v| v.position[0]).fold(f64::NEG_INFINITY, f64::max);
            let slack = (hi - lo) * 0.5 + 1.0;
            prop_assert!(
                p[0] >= lo - slack && p[0] <= hi + slack,
                "prediction {} outside envelope [{lo}, {hi}]",
                p[0]
            );
        }
    }

    /// The own-stream overlap rule is the only difference a query's
    /// origin stream makes. A query cut from a stored stream drops the
    /// windows of that stream overlapping its span before they are gated
    /// or scored; the same vertices detached from their stream score
    /// every window. Both equal the naive oracle on both plans, and the
    /// own-stream query's results are exactly the detached query's minus
    /// the overlapping windows, with bit-identical distances.
    #[test]
    fn own_stream_query_equals_detached_minus_overlap(
        amp in 6.0f64..18.0,
        seed in 1u64..500,
        start in 0usize..8,
        len in 3usize..12,
        k in 1usize..12,
        delta in 0.3f64..10.0,
    ) {
        let (store, id) = build_store(amp, 4.0, seed);
        let matcher = Matcher::new(store.clone(), Params::default());
        let cached = CachedMatcher::new(matcher.clone());
        let Some(view) = store.resolve(SubseqRef::new(id, start, len)) else {
            return Ok(());
        };
        let own = QuerySubseq::from_view(&view);
        let detached = QuerySubseq {
            origin_stream: None,
            ..own.clone()
        };
        for query in [&own, &detached] {
            for top_k in [Some(k), None] {
                let opts = SearchOptions {
                    top_k,
                    delta_override: Some(delta),
                    ..Default::default()
                };
                let naive = matcher.find_matches_naive(query, &opts);
                prop_assert_eq!(&naive, &matcher.find_matches_with(query, &opts));
                prop_assert_eq!(&naive, &cached.find_matches(query, &opts));
            }
        }
        let all = SearchOptions {
            delta_override: Some(delta),
            ..Default::default()
        };
        let (q_first, q_last) = (view.first_vertex().time, view.last_vertex().time);
        let own_results = matcher.find_matches_with(&own, &all);
        let detached_minus_overlap: Vec<_> = matcher
            .find_matches_with(&detached, &all)
            .into_iter()
            .filter(|m| {
                let c = store.resolve(m.subseq).unwrap();
                let overlaps = c.last_vertex().time > q_first && c.first_vertex().time < q_last;
                m.subseq.stream != id || !overlaps
            })
            .collect();
        prop_assert_eq!(&own_results, &detached_minus_overlap);
    }

    /// A stream whose last vertex lies at 1e39 mm. The store gains a copy
    /// of the query's stream, as another session of the same patient,
    /// with its last vertex moved there. The windows before that vertex
    /// still match the query, the ones across it lie astronomically far
    /// outside the amplitude band, and both plans equal the oracle, with
    /// and without top-k.
    #[test]
    fn streams_ending_at_1e39_mm_equal_the_oracle(
        amp in 6.0f64..18.0,
        seed in 1u64..500,
        start in 0usize..8,
        len in 3usize..12,
        k in 1usize..12,
        delta in 0.3f64..10.0,
    ) {
        let (store, id) = build_store(amp, 4.0, seed);
        let source = store.stream(id).unwrap();
        let mut vertices = source.plr.vertices().to_vec();
        let last = vertices.len() - 1;
        vertices[last].position = Position::new_1d(1e39);
        let copy = store.add_stream(
            source.meta.patient,
            source.meta.session + 1,
            PlrTrajectory::from_vertices(vertices).unwrap(),
            source.raw_len,
        );
        let matcher = Matcher::new(store.clone(), Params::default());
        let cached = CachedMatcher::new(matcher.clone());
        let Some(view) = store.resolve(SubseqRef::new(id, start, len)) else {
            return Ok(());
        };
        let query = QuerySubseq::from_view(&view);
        for top_k in [Some(k), None] {
            let opts = SearchOptions {
                top_k,
                delta_override: Some(delta),
                ..Default::default()
            };
            let naive = matcher.find_matches_naive(&query, &opts);
            prop_assert_eq!(&naive, &matcher.find_matches_with(&query, &opts));
            prop_assert_eq!(&naive, &cached.find_matches(&query, &opts));
            // The copy of the query's own window lies before the moved
            // vertex and matches at distance 0.
            if top_k.is_none() {
                prop_assert!(naive
                    .iter()
                    .any(|m| m.subseq == SubseqRef::new(copy, start, len) && m.distance == 0.0));
            }
        }
    }

    /// Source weights above 1 widen a tier's bands: a same-session window
    /// at `ws = 3` may sit three times farther from the query's summaries
    /// than one at `ws = 1` and still be within δ. The pruned plan bands
    /// each entry by its own tier's weight and binary-searches the widest
    /// band, so it equals the oracle under such weights, for queries cut
    /// from stored streams (all three tiers present).
    #[test]
    fn source_weights_above_one_equal_the_oracle(
        amp in 6.0f64..18.0,
        seed in 1u64..500,
        start in 0usize..8,
        len in 3usize..12,
        k in 1usize..12,
        heavy in 0usize..3,
    ) {
        let (store, id) = build_store(amp, 4.0, seed);
        let (same_patient, same_session) = [(1.5, 3.0), (1.0, 2.0), (1.2, 1.2)][heavy];
        let params = Params {
            ws_same_patient: same_patient,
            ws_same_session: same_session,
            ..Params::default()
        };
        prop_assert!(params.validate().is_ok());
        let matcher = Matcher::new(store.clone(), params);
        let cached = CachedMatcher::new(matcher.clone());
        for stream in [id, tsm_db::StreamId(id.0 + 1)] {
            let Some(view) = store.resolve(SubseqRef::new(stream, start, len)) else {
                continue;
            };
            let query = QuerySubseq::from_view(&view);
            for (delta, top_k) in [0.1, 0.25, 0.5, 1.0, 2.0, 8.0]
                .into_iter()
                .flat_map(|d| [(d, Some(k)), (d, None)])
            {
                let opts = SearchOptions {
                    top_k,
                    delta_override: Some(delta),
                    ..Default::default()
                };
                let naive = matcher.find_matches_naive(&query, &opts);
                prop_assert_eq!(&naive, &matcher.find_matches_with(&query, &opts));
                prop_assert_eq!(&naive, &cached.find_matches(&query, &opts));
            }
        }
    }

    /// A vertex of huge magnitude inside a stream does not hide the
    /// windows after it. The store gains a copy of a 1-D stream, as
    /// another session of the same patient, with the vertex a third of
    /// the way in moved to 1e39 mm. Queries of 6 segments cut from the
    /// original after that vertex match the copy's same window at
    /// distance 0, and both plans equal the oracle: each index entry's
    /// amplitude summary is a direct sum over its own window, so no
    /// window after the vertex inherits its magnitude.
    #[test]
    fn windows_after_a_huge_vertex_equal_the_oracle(
        amp in 6.0f64..18.0,
        seed in 0u64..500,
        offset in 0usize..12,
        k in 1usize..12,
        pick in 0usize..4,
        free in 0.3f64..10.0,
    ) {
        let delta = [0.3, 2.0, 8.0, free][pick];
        let (store, id) = build_store(amp, 4.0, seed);
        let source = store.stream(id).unwrap();
        let mut vertices = source.plr.vertices().to_vec();
        let huge = vertices.len() / 3;
        vertices[huge].position = Position::new_1d(1e39);
        let copy = store.add_stream(
            source.meta.patient,
            source.meta.session + 1,
            PlrTrajectory::from_vertices(vertices).unwrap(),
            source.raw_len,
        );
        let matcher = Matcher::new(store.clone(), Params::default());
        let cached = CachedMatcher::new(matcher.clone());
        let start = huge + 1 + offset;
        let Some(view) = store.resolve(SubseqRef::new(id, start, 6)) else {
            return Ok(());
        };
        let query = QuerySubseq::from_view(&view);
        for top_k in [Some(k), None] {
            let opts = SearchOptions {
                top_k,
                delta_override: Some(delta),
                ..Default::default()
            };
            let naive = matcher.find_matches_naive(&query, &opts);
            prop_assert_eq!(&naive, &matcher.find_matches_with(&query, &opts));
            prop_assert_eq!(&naive, &cached.find_matches(&query, &opts));
            if top_k.is_none() {
                prop_assert!(naive
                    .iter()
                    .any(|m| m.subseq == SubseqRef::new(copy, start, 6) && m.distance == 0.0));
            }
        }
    }

    /// The vote is a function of the set of matches: every order of the
    /// same matches (rank order, store order, reversed, shuffled) gives
    /// the bit-identical prediction, for both alignments and several
    /// horizons. A vote that summed in input order would differ in the
    /// last bits between rank and store order.
    #[test]
    fn vote_is_bit_identical_under_any_permutation(
        amp in 6.0f64..18.0,
        seed in 1u64..500,
        start in 0usize..8,
        len in 3usize..10,
        shuffle in any::<u64>(),
    ) {
        let (store, id) = build_store(amp, 4.0, seed);
        let params = Params { min_matches: 1, ..Params::default() };
        let cached = CachedMatcher::new(Matcher::new(store.clone(), params.clone()));
        let Some(view) = store.resolve(SubseqRef::new(id, start, len)) else {
            return Ok(());
        };
        let query = QuerySubseq::from_view(&view);
        let opts = SearchOptions::default();
        let ranked = cached.find_matches(&query, &opts);
        let mut orders = vec![
            cached.find_matches_in_store_order(&query, &opts),
            ranked.iter().rev().cloned().collect(),
        ];
        let mut shuffled = ranked.clone();
        shuffled.sort_by_key(|m| {
            (u64::from(m.subseq.stream.0) << 32 | u64::from(m.subseq.start))
                .wrapping_add(shuffle)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        orders.push(shuffled);
        let bits = |p: Option<Position>| p.map(|p| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>());
        for align in [AlignMode::FirstVertex, AlignMode::LastVertex] {
            for dt in [0.0, 0.15, 0.3, 0.5] {
                let want = bits(predict_position(&store, &query, &ranked, dt, &params, align));
                for order in &orders {
                    let got = bits(predict_position(&store, &query, order, dt, &params, align));
                    prop_assert_eq!(&got, &want, "{} matches, dt {}, {:?}", ranked.len(), dt, align);
                }
            }
        }
    }

    /// The store-ordered entry points return exactly the ranked search's
    /// results, every field bit for bit, in strictly ascending `(stream,
    /// start)` order: `CachedMatcher`'s through the pruned plan (queries
    /// of up to `MAX_SIGNATURE_LEN` segments) and the scan (longer
    /// queries), and `Matcher`'s through the scan, with and without top-k
    /// and patient restriction.
    #[test]
    fn store_order_search_equals_the_ranked_search(
        amp in 6.0f64..18.0,
        seed in 1u64..500,
        start in 0usize..8,
        long in proptest::bool::ANY,
        short_len in 3usize..12,
        k in 1usize..40,
        delta in 0.3f64..10.0,
        restrict in proptest::bool::ANY,
    ) {
        let (store, id) = build_store_with(amp, 4.0, seed, 1, 120.0);
        let matcher = Matcher::new(store.clone(), Params::default());
        let cached = CachedMatcher::new(matcher.clone());
        let len = if long { MAX_SIGNATURE_LEN + 1 + short_len } else { short_len };
        let view = store.resolve(SubseqRef::new(id, start, len));
        prop_assert!(view.is_some(), "stream too short for a {}-segment query", len);
        let query = QuerySubseq::from_view(&view.unwrap());
        for top_k in [Some(k), None] {
            let opts = SearchOptions {
                top_k,
                delta_override: Some(delta),
                restrict_patients: restrict.then(|| store.patients().into_iter().skip(1).collect()),
            };
            let mut want = cached.find_matches(&query, &opts);
            want.sort_by_key(|m| (m.subseq.stream.0, m.subseq.start));
            let got = cached.find_matches_in_store_order(&query, &opts);
            let scanned = matcher.find_matches_in_store_order(&query, &opts);
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(scanned.len(), want.len());
            for ((g, s), w) in got.iter().zip(&scanned).zip(&want) {
                prop_assert_eq!(bitwise(g), bitwise(w));
                prop_assert_eq!(bitwise(s), bitwise(w));
            }
            for pair in got.windows(2) {
                let key = |m: &MatchResult| (m.subseq.stream.0, m.subseq.start);
                prop_assert!(key(&pair[0]) < key(&pair[1]), "{:?} before {:?}", pair[0], pair[1]);
            }
        }
        prop_assert_eq!(cached.cache().rebuild_count(), u64::from(!long));
    }

    /// Tightening delta only ever shrinks the match set (monotonicity),
    /// and the shrunken set is a prefix of the larger one.
    #[test]
    fn delta_monotonicity(
        amp in 6.0f64..18.0,
        seed in 1u64..500,
    ) {
        let (store, id) = build_store(amp, 4.0, seed);
        let params = Params::default();
        let matcher = Matcher::new(store.clone(), params);
        let Some(view) = store.resolve(SubseqRef::new(id, 3, 9)) else {
            return Ok(());
        };
        let query = QuerySubseq::from_view(&view);
        let loose = matcher.find_matches_with(&query, &SearchOptions {
            delta_override: Some(8.0),
            ..Default::default()
        });
        let tight = matcher.find_matches_with(&query, &SearchOptions {
            delta_override: Some(1.0),
            ..Default::default()
        });
        prop_assert!(tight.len() <= loose.len());
        prop_assert_eq!(&loose[..tight.len()], &tight[..]);
    }
}

/// A match's fields, each float by its bits.
fn bitwise(m: &MatchResult) -> (SubseqRef, u64, u64, tsm_db::SourceRelation) {
    (m.subseq, m.distance.to_bits(), m.ws.to_bits(), m.relation)
}

/// The per-length index follows the store as it grows. Extended one seal
/// at a time, it equals a fresh build over the store's snapshot after
/// every seal, bucket for bucket and entry for entry. The store repeats
/// streams, so equal amplitude summaries tie across streams and the
/// merge's tie order matters. A `CachedMatcher` searched between seals
/// extends its cached indexes and equals the oracle after every seal.
#[test]
fn index_extended_seal_by_seal_equals_a_fresh_build() {
    const LENS: [usize; 3] = [3, 6, 9];
    for seed in [3u64, 17, 101] {
        let (source, _) = build_store(10.0, 4.0, seed);
        let sources = source.streams();
        let store = StreamStore::new();
        let patients = [
            store.add_patient(PatientAttributes::new()),
            store.add_patient(PatientAttributes::new()),
        ];
        let matcher = Matcher::new(store.clone(), Params::default());
        let cached = CachedMatcher::new(matcher.clone());
        let query = QuerySubseq::new(sources[0].plr.vertices()[4..=13].to_vec())
            .with_origin(patients[0], 0);
        let opts = SearchOptions::default();
        let mut grown: Vec<FeatureIndex> = LENS
            .iter()
            .map(|&len| FeatureIndex::build(&store, len, 0))
            .collect();
        for (seal, pick) in [0usize, 1, 0, 2, 3, 1, 0].into_iter().enumerate() {
            let s = &sources[pick % sources.len()];
            store.add_stream(patients[seal % 2], seal as u32, s.plr.clone(), s.raw_len);
            let features = store.segment_features(0);
            for (ix, &len) in grown.iter_mut().zip(&LENS) {
                *ix = ix.extended(&features);
                let fresh = FeatureIndex::from_features(&features, len);
                assert_eq!(*ix, fresh, "seed {seed}, seal {seal}, len {len}");
                assert_eq!(ix.streams(), store.num_streams());
            }
            assert_eq!(
                cached.find_matches(&query, &opts),
                matcher.find_matches_naive(&query, &opts),
                "seed {seed}, seal {seal}"
            );
            assert_eq!(
                *cached.cache().index_for(9),
                FeatureIndex::build(&store, 9, 0)
            );
        }
        // The repeated streams tie in the query's bucket.
        let bucket = grown[2].candidates(query.signature().unwrap());
        assert!(bucket
            .windows(2)
            .any(|w| w[0].amp_sum == w[1].amp_sum && w[0].stream != w[1].stream));
    }
}

/// A window whose distance is NaN is no match for the oracle either. A
/// stream with neighbouring vertices at `f64::MAX` and `-f64::MAX` holds a
/// segment whose displacement overflows to −∞. A detached query cut
/// across it scores its own window at NaN (−∞ − −∞), which both plans drop
/// (`d <= δ` is false) and which the oracle kept while it dropped only
/// windows with `d > δ` (false for NaN too).
#[test]
fn nan_distance_windows_are_no_match_for_the_oracle_either() {
    for seed in [5u64, 9, 23] {
        let (store, id) = build_store(10.0, 4.0, seed);
        let source = store.stream(id).unwrap();
        let mut vertices = source.plr.vertices().to_vec();
        vertices[10].position = Position::new_1d(f64::MAX);
        vertices[11].position = Position::new_1d(-f64::MAX);
        let huge = store.add_stream(
            source.meta.patient,
            source.meta.session + 1,
            PlrTrajectory::from_vertices(vertices).unwrap(),
            source.raw_len,
        );
        let matcher = Matcher::new(store.clone(), Params::default());
        let cached = CachedMatcher::new(matcher.clone());
        for (start, len) in [(8, 6), (10, 1), (5, 9)] {
            let view = store.resolve(SubseqRef::new(huge, start, len)).unwrap();
            let query = QuerySubseq::new(view.vertices().to_vec());
            for top_k in [None, Some(3)] {
                let opts = SearchOptions {
                    top_k,
                    ..Default::default()
                };
                let naive = matcher.find_matches_naive(&query, &opts);
                assert!(
                    naive.iter().all(|m| m.distance <= Params::default().delta),
                    "seed {seed}, ({start}, {len}): {naive:?}"
                );
                assert_eq!(naive, matcher.find_matches_with(&query, &opts));
                assert_eq!(naive, cached.find_matches(&query, &opts));
            }
        }
    }
}

/// An arbitrary snapshot mixing additive counters, `_hwm` gauges and a
/// histogram — the algebra must hold for any combination of present and
/// absent keys.
fn snapshot_strategy() -> impl Strategy<Value = MetricsSnapshot> {
    const KEYS: [&str; 8] = [
        "match.searches",
        "match.windows_scored",
        "cache.lookups",
        "session.ticks",
        "predict.lookups",
        "predict.memo_hits",
        "cohort.backlog_hwm",
        "queue.depth_hwm",
    ];
    (
        proptest::collection::vec(proptest::bool::ANY, KEYS.len()),
        proptest::collection::vec(0u64..1_000_000_000, KEYS.len()),
        proptest::bool::ANY,
        0u64..1000,
        0u64..1_000_000,
        proptest::collection::vec(0u64..1000, 0..4),
    )
        .prop_map(|(present, vals, has_hist, count, sum, buckets)| {
            let mut counters = BTreeMap::new();
            for i in 0..KEYS.len() {
                if present[i] {
                    counters.insert(KEYS[i].to_string(), vals[i]);
                }
            }
            let mut histograms = BTreeMap::new();
            if has_hist {
                histograms.insert(
                    "session.tick_latency_ns".to_string(),
                    tsm_core::metrics::HistogramSnapshot {
                        count,
                        sum,
                        buckets,
                    },
                );
            }
            MetricsSnapshot {
                counters,
                histograms,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Snapshot merge is a commutative, associative monoid operation (the
    /// `_hwm` gauges use max, which is too), so per-worker snapshots can
    /// be combined in any grouping and order.
    #[test]
    fn snapshot_merge_is_associative_and_commutative(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
        c in snapshot_strategy(),
    ) {
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        // The empty snapshot is the identity.
        let empty = MetricsSnapshot::default();
        prop_assert_eq!(a.merge(&empty), a.clone());
    }

    /// Diffing a merge against one operand recovers the other operand on
    /// every additive key; `_hwm` gauges keep the merged maximum (an
    /// interval has no meaningful high-water delta).
    #[test]
    fn snapshot_diff_undoes_merge_on_additive_keys(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
    ) {
        let merged = a.merge(&b);
        let round = merged.diff(&a);
        for k in merged.counters.keys() {
            if k.ends_with("_hwm") {
                prop_assert_eq!(round.counter(k), a.counter(k).max(b.counter(k)));
            } else {
                prop_assert_eq!(round.counter(k), b.counter(k), "additive key {}", k);
            }
        }
        for (k, h) in &merged.histograms {
            let rh = round.histograms.get(k).expect("diff keeps keys");
            let bh = b.histograms.get(k).cloned().unwrap_or_default();
            prop_assert_eq!(rh.count, bh.count, "histogram {} count", k);
            prop_assert_eq!(rh.sum, bh.sum, "histogram {} sum", k);
            prop_assert!(h.count >= rh.count);
        }
    }
}
