//! The full pipeline on 3-D motion streams: segmentation classifies on
//! the superior-inferior axis but every vertex carries the full spatial
//! position; matching can use either the axis or the spatial amplitude
//! metric; predictions come back as 3-D points.

use tsm_bench::{build_bundle, evaluate_prediction, BundleConfig, PredictionEvalConfig};
use tsm_core::matcher::{Matcher, QuerySubseq, SearchOptions};
use tsm_core::params::AmplitudeMetric;
use tsm_core::predict::{predict_position, AlignMode};
use tsm_core::{CachedMatcher, Params};
use tsm_db::SubseqRef;
use tsm_model::SegmenterConfig;
use tsm_signal::CohortConfig;

fn bundle() -> tsm_bench::StoreBundle {
    build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: 4,
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: 90.0,
            dim: 3,
            seed: 0x3D3D,
        },
        segmenter: SegmenterConfig::default(),
    })
}

#[test]
fn three_dimensional_streams_flow_through_the_pipeline() {
    let b = bundle();
    assert!(b.store.num_streams() > 0);
    for s in b.store.streams().iter() {
        assert_eq!(s.plr.dim(), 3, "stream lost its dimensionality");
    }

    // Matching with the spatial metric retrieves candidates and the
    // predictions are 3-D.
    let params = Params {
        amplitude_metric: AmplitudeMetric::Spatial,
        min_matches: 1,
        ..Params::default()
    };
    let matcher = Matcher::new(b.store.clone(), params.clone());
    let stream = &b.store.streams()[0];
    let nseg = stream.plr.num_segments();
    assert!(nseg > 15);
    let view = b
        .store
        .resolve(SubseqRef::new(stream.meta.id, nseg / 2, 9))
        .unwrap();
    let query = QuerySubseq::from_view(&view);
    let matches = matcher.find_matches(&query);
    assert!(!matches.is_empty(), "no 3-D matches found");
    let p = predict_position(
        &b.store,
        &query,
        &matches,
        0.3,
        &params,
        AlignMode::default(),
    )
    .expect("prediction");
    assert_eq!(p.dim(), 3);
    assert!(p.is_finite());
}

#[test]
fn spatial_and_axis_metrics_agree_on_sign_but_differ_in_value() {
    let b = bundle();
    let axis_params = Params::default();
    let spatial_params = Params {
        amplitude_metric: AmplitudeMetric::Spatial,
        ..Params::default()
    };
    let matcher_axis = Matcher::new(b.store.clone(), axis_params);
    let matcher_spatial = Matcher::new(b.store.clone(), spatial_params);
    let stream = &b.store.streams()[0];
    let view = b
        .store
        .resolve(SubseqRef::new(stream.meta.id, 3, 9))
        .unwrap();
    let query = QuerySubseq::from_view(&view);
    let ma = matcher_axis.find_matches(&query);
    let ms = matcher_spatial.find_matches(&query);
    assert!(!ma.is_empty() && !ms.is_empty());
    // Spatial distances dominate axis distances for the same pairs (they
    // add off-axis deviation), so the spatial match set is a subset at
    // equal delta.
    assert!(ms.len() <= ma.len());
}

/// Under the spatial metric the scan and the cached pruned plan band
/// each window by its axis summaries and score the survivors with the
/// exact rescore's spatial term. Both must still equal the naive oracle
/// bit for bit.
#[test]
fn spatial_metric_plans_equal_the_oracle() {
    let b = bundle();
    let params = Params {
        amplitude_metric: AmplitudeMetric::Spatial,
        ..Params::default()
    };
    let matcher = Matcher::new(b.store.clone(), params);
    let cached = CachedMatcher::new(matcher.clone());
    let mut nonempty = 0;
    for stream in b.store.streams().iter().take(3) {
        let nseg = stream.plr.num_segments();
        for (start, len) in [(0usize, 6usize), (3, 9), (nseg / 2, 12)] {
            let Some(view) = b.store.resolve(SubseqRef::new(stream.meta.id, start, len)) else {
                continue;
            };
            let query = QuerySubseq::from_view(&view);
            for top_k in [None, Some(1), Some(5)] {
                for delta_override in [None, Some(0.5), Some(20.0)] {
                    let opts = SearchOptions {
                        top_k,
                        delta_override,
                        ..Default::default()
                    };
                    let naive = matcher.find_matches_naive(&query, &opts);
                    assert_eq!(naive, matcher.find_matches_with(&query, &opts));
                    assert_eq!(naive, cached.find_matches(&query, &opts));
                    nonempty += usize::from(!naive.is_empty());
                }
            }
        }
    }
    assert!(
        nonempty > 10,
        "only {nonempty} spatial searches found matches"
    );
}

#[test]
fn prediction_error_is_finite_on_3d_replay() {
    let b = bundle();
    let params = Params::default();
    let stats = evaluate_prediction(
        &b,
        &params,
        &SegmenterConfig::default(),
        &PredictionEvalConfig {
            dts: vec![0.2],
            ..Default::default()
        },
    );
    assert!(stats.predictions > 20, "{} predictions", stats.predictions);
    assert!(
        stats.overall_error.is_finite() && stats.overall_error < 3.0,
        "3-D replay error {}",
        stats.overall_error
    );
}
