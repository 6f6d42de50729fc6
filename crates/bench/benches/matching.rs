//! Bench: subsequence matching cost vs store size (Section 7.5 — linear
//! in stored segments), the feature-index pruned plan vs the linear scan
//! (the paper's "future work" indexing, quantified), and both plans at a
//! tight and at the default threshold δ.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tsm_bench::{build_bundle, BundleConfig};
use tsm_core::matcher::{Matcher, QuerySubseq, SearchOptions};
use tsm_core::{CachedMatcher, Params};
use tsm_db::{PatientAttributes, SubseqRef};
use tsm_model::SegmenterConfig;
use tsm_signal::CohortConfig;

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    group.sample_size(20);

    // 60 patients × 2 sessions × 2 streams = 240 streams: the
    // multi-hundred-stream scenario the columnar engine targets.
    for n_patients in [6usize, 12, 24, 60] {
        let bundle = build_bundle(&BundleConfig {
            cohort: CohortConfig {
                n_patients,
                sessions_per_patient: 2,
                streams_per_session: 2,
                stream_duration_s: 120.0,
                dim: 1,
                seed: 7,
            },
            segmenter: SegmenterConfig::default(),
        });
        let params = Params::default();
        let matcher = Matcher::new(bundle.store.clone(), params);
        // A query cut from the first stored stream.
        let first = bundle.store.streams()[0].meta.id;
        let view = bundle
            .store
            .resolve(SubseqRef::new(first, 3, 9))
            .expect("stream long enough");
        let query = QuerySubseq::from_view(&view);

        group.bench_with_input(
            BenchmarkId::new("scan", format!("{n_patients}p")),
            &query,
            |b, q| b.iter(|| black_box(matcher.find_matches(black_box(q)))),
        );

        // The online entry point, warmed so the timed searches hit the
        // cached index instead of rebuilding it.
        let cached = CachedMatcher::new(matcher.clone());
        let options = SearchOptions::default();
        cached.find_matches(&query, &options);
        group.bench_with_input(
            BenchmarkId::new("pruned", format!("{n_patients}p")),
            &query,
            |b, q| b.iter(|| black_box(cached.find_matches(black_box(q), &options))),
        );
    }
    group.finish();
}

/// Both plans at δ = 0.5 and at δ = 8 (Table 1's value and `tsm serve`'s
/// default) on the 60-patient store. The query is cut from a stored
/// stream but comes from a patient with no stored streams, as a live
/// serve session does, so every candidate gets another patient's source
/// weight.
fn bench_delta_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching_delta");
    group.sample_size(20);
    let bundle = build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: 60,
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: 120.0,
            dim: 1,
            seed: 7,
        },
        segmenter: SegmenterConfig::default(),
    });
    let first = bundle.store.streams()[0].meta.id;
    let view = bundle
        .store
        .resolve(SubseqRef::new(first, 3, 9))
        .expect("stream long enough");
    let newcomer = bundle.store.add_patient(PatientAttributes::new());
    let query = QuerySubseq::new(view.vertices().to_vec()).with_origin(newcomer, 0);
    let matcher = Matcher::new(bundle.store.clone(), Params::default());
    let cached = CachedMatcher::new(matcher.clone());
    for delta in [0.5, 8.0] {
        let options = SearchOptions {
            delta_override: Some(delta),
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("scan", delta), &query, |b, q| {
            b.iter(|| black_box(matcher.find_matches_with(black_box(q), &options)))
        });
        // Warmed, so the timed searches hit the cached index.
        cached.find_matches(&query, &options);
        group.bench_with_input(BenchmarkId::new("pruned", delta), &query, |b, q| {
            b.iter(|| black_box(cached.find_matches(black_box(q), &options)))
        });
    }
    group.finish();
}

/// Index construction cost: rolling signatures plus a direct amplitude
/// sum per window, linear in stored windows.
fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);

    for n_patients in [24usize, 60] {
        let bundle = build_bundle(&BundleConfig {
            cohort: CohortConfig {
                n_patients,
                sessions_per_patient: 2,
                streams_per_session: 2,
                stream_duration_s: 120.0,
                dim: 1,
                seed: 7,
            },
            segmenter: SegmenterConfig::default(),
        });
        group.bench_with_input(
            BenchmarkId::new("feature_index", format!("{n_patients}p")),
            &bundle,
            |b, bundle| {
                b.iter(|| black_box(tsm_db::FeatureIndex::build(black_box(&bundle.store), 9, 0)))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matching,
    bench_delta_sweep,
    bench_index_build
);
criterion_main!(benches);
