//! Cross-crate matching consistency: the online search vs the oracle on
//! realistic data, provenance weighting end-to-end, and the Euclidean
//! baseline's blind spot.

use tsm_baselines::matcher::{EuclideanMatcher, EuclideanMatcherConfig};
use tsm_bench::{build_bundle, BundleConfig};
use tsm_core::matcher::{Matcher, QuerySubseq, SearchOptions};
use tsm_core::{CachedMatcher, Params};
use tsm_db::{SourceRelation, SubseqRef};
use tsm_model::{SegmenterConfig, MAX_SIGNATURE_LEN};
use tsm_signal::CohortConfig;

fn bundle() -> tsm_bench::StoreBundle {
    build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: 6,
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: 90.0,
            dim: 1,
            seed: 0xABC,
        },
        segmenter: SegmenterConfig::default(),
    })
}

/// `CachedMatcher::find_matches` — the online entry point — equals the
/// naive oracle on both of its plans: pruned through the cached index for
/// 9-segment queries, and the scan fallback for a query longer than a
/// state signature can key.
#[test]
fn index_and_scan_agree_on_simulated_data() {
    let b = bundle();
    let matcher = Matcher::new(b.store.clone(), Params::default());
    let cached = CachedMatcher::new(matcher.clone());
    let opts = SearchOptions::default();
    let mut compared = 0;
    for stream in b.store.streams().iter().take(4) {
        let nseg = stream.plr.num_segments();
        for start in [0usize, nseg / 2] {
            let Some(view) = b.store.resolve(SubseqRef::new(stream.meta.id, start, 9)) else {
                continue;
            };
            let q = QuerySubseq::from_view(&view);
            assert_eq!(
                matcher.find_matches_naive(&q, &opts),
                cached.find_matches(&q, &opts)
            );
            compared += 1;
        }
    }
    assert!(compared >= 6);
    assert_eq!(
        cached.cache().rebuild_count(),
        1,
        "9-segment queries share one index"
    );

    let len = MAX_SIGNATURE_LEN + 1;
    let long = b
        .store
        .streams()
        .iter()
        .find_map(|s| b.store.resolve(SubseqRef::new(s.meta.id, 0, len)))
        .expect("some 90 s stream outlasts the signature cap");
    let q = QuerySubseq::from_view(&long);
    for top_k in [None, Some(3)] {
        let opts = SearchOptions {
            top_k,
            ..Default::default()
        };
        let naive = matcher.find_matches_naive(&q, &opts);
        assert!(!naive.is_empty(), "the long query matched nothing");
        assert_eq!(naive, cached.find_matches(&q, &opts));
    }
    assert_eq!(
        cached.cache().rebuild_count(),
        1,
        "the long query built no index"
    );
}

#[test]
fn provenance_tiers_rank_matches_end_to_end() {
    let b = bundle();
    let params = Params::default();
    let matcher = Matcher::new(b.store.clone(), params);
    // Query from a stored stream; its stream-mates should surface high.
    let stream = &b.store.streams()[0];
    let view = b
        .store
        .resolve(SubseqRef::new(stream.meta.id, 3, 9))
        .expect("long enough");
    let q = QuerySubseq::from_view(&view);
    let matches = matcher.find_matches(&q);
    assert!(!matches.is_empty());
    // Same-session matches (when they exist) must carry the largest ws.
    for m in &matches {
        match m.relation {
            SourceRelation::SameSession => assert_eq!(m.ws, 1.0),
            SourceRelation::SamePatient => assert_eq!(m.ws, 0.9),
            SourceRelation::OtherPatient => assert_eq!(m.ws, 0.3),
        }
    }
    // The single best match should not come from another patient: the
    // query's own patient breathes most like the query.
    assert_ne!(matches[0].relation, SourceRelation::OtherPatient);
}

#[test]
fn plr_matcher_enforces_state_order_euclidean_does_not() {
    let b = bundle();
    let params = Params::default();
    let matcher = Matcher::new(b.store.clone(), params.clone());
    let stream = &b.store.streams()[0];
    let view = b
        .store
        .resolve(SubseqRef::new(stream.meta.id, 3, 9))
        .expect("long enough");
    let q = QuerySubseq::from_view(&view);

    let plr_matches = matcher.find_matches(&q);
    let q_states: Vec<_> = q.states();
    for m in &plr_matches {
        let v = b.store.resolve(m.subseq).unwrap();
        let c_states: Vec<_> = v.states().collect();
        assert_eq!(q_states, c_states, "state-order gate violated");
    }

    let euclid = EuclideanMatcher::new(
        b.store.clone(),
        params,
        EuclideanMatcherConfig {
            delta: 50.0,
            ..Default::default()
        },
    );
    let e_matches = euclid.find_matches(&q);
    let out_of_phase = e_matches.iter().any(|m| {
        let v = b.store.resolve(m.subseq).unwrap();
        let c_states: Vec<_> = v.states().collect();
        c_states != q_states
    });
    assert!(
        out_of_phase,
        "Euclidean baseline should admit out-of-phase matches at a loose threshold"
    );
}

#[test]
fn store_statistics_are_consistent() {
    let b = bundle();
    // 6 patients * (2*2 - 1 held out) = 18 streams.
    assert_eq!(b.store.num_streams(), 18);
    let total: usize = b.store.streams().iter().map(|s| s.plr.num_vertices()).sum();
    assert_eq!(total, b.store.total_vertices());
    // PLR compression is substantial (30 Hz raw vs ~3 vertices/cycle).
    for s in b.store.streams().iter() {
        assert!(
            s.compression_ratio() > 10.0,
            "stream {} compresses only {:.1}x",
            s.meta.id,
            s.compression_ratio()
        );
    }
}
