//! Bench: end-to-end prediction latency — dynamic query generation +
//! matching + position prediction — against the paper's 30 ms budget, and
//! the alignment-mode ablation. The `end_to_end` arm runs the online route
//! a memo-miss `SessionRuntime::predict` takes: the `CachedMatcher`
//! search in store order, then the vote.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tsm_bench::{build_bundle, BundleConfig};
use tsm_core::matcher::{Matcher, QuerySubseq, SearchOptions};
use tsm_core::predict::{predict_position, AlignMode};
use tsm_core::query::generate_query;
use tsm_core::{CachedMatcher, Params};
use tsm_model::{segment_signal, SegmenterConfig};
use tsm_signal::CohortConfig;

fn bench_prediction(c: &mut Criterion) {
    let bundle = build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: 24,
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: 120.0,
            dim: 1,
            seed: 99,
        },
        segmenter: SegmenterConfig::default(),
    });
    let params = Params::default();
    let cached = CachedMatcher::new(Matcher::new(bundle.store.clone(), params.clone()));

    // A live buffer from the first eval stream.
    let eval = &bundle.eval[0];
    let live = segment_signal(&eval.samples, SegmenterConfig::default());

    let mut group = c.benchmark_group("prediction");
    group.sample_size(30);

    group.bench_function("query_generation", |b| {
        b.iter(|| black_box(generate_query(black_box(&live), &params)))
    });

    let outcome = generate_query(&live, &params).expect("buffer long enough");
    let query =
        QuerySubseq::new(outcome.vertices(&live).to_vec()).with_origin(eval.patient, eval.session);

    let options = SearchOptions::default();
    // Builds the cached index outside the timed loop, as a warm server has.
    let matches = cached.find_matches_in_store_order(&query, &options);
    group.bench_function("end_to_end", |b| {
        b.iter(|| {
            let matches = cached.find_matches_in_store_order(black_box(&query), &options);
            black_box(predict_position(
                &bundle.store,
                &query,
                &matches,
                0.3,
                &params,
                AlignMode::FirstVertex,
            ))
        })
    });

    for (name, align) in [
        ("first_vertex", AlignMode::FirstVertex),
        ("last_vertex", AlignMode::LastVertex),
    ] {
        group.bench_with_input(
            BenchmarkId::new("predict_only", name),
            &align,
            |b, &align| {
                b.iter(|| {
                    black_box(predict_position(
                        &bundle.store,
                        &query,
                        black_box(&matches),
                        0.3,
                        &params,
                        align,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_prediction);
criterion_main!(benches);
