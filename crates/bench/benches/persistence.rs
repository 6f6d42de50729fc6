//! Bench: store save/load throughput and the GEMINI filter-and-refine
//! pruning payoff.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tsm_baselines::{filter_and_refine, DftWindow};
use tsm_bench::{build_bundle, BundleConfig};
use tsm_db::{load_store, save_store};
use tsm_model::SegmenterConfig;
use tsm_signal::CohortConfig;

fn bench_persistence(c: &mut Criterion) {
    let bundle = build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: 24,
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: 120.0,
            dim: 1,
            seed: 77,
        },
        segmenter: SegmenterConfig::default(),
    });
    let store = bundle.store;
    let mut encoded = Vec::new();
    save_store(&store, &mut encoded).unwrap();

    let mut group = c.benchmark_group("persistence");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("save", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            save_store(black_box(&store), &mut buf).unwrap();
            buf
        })
    });
    group.bench_function("load", |b| {
        b.iter(|| load_store(black_box(encoded.as_slice())).unwrap())
    });
    group.finish();

    // GEMINI: range search over all stored windows, brute force vs
    // filter-and-refine.
    let mut windows = Vec::new();
    for s in store.streams().iter() {
        let v = s.plr.vertices();
        let mut start = 0;
        while start + 9 < v.len() {
            if let Some(w) = DftWindow::build(&v[start..=start + 9], 0, 64, 4) {
                windows.push(w);
            }
            start += 3;
        }
    }
    let query = windows[windows.len() / 2].clone();
    let epsilon = 10.0;

    let mut group = c.benchmark_group("gemini");
    group.throughput(Throughput::Elements(windows.len() as u64));
    group.bench_function("brute_force_range", |b| {
        b.iter(|| {
            windows
                .iter()
                .enumerate()
                .filter(|(_, w)| query.exact_distance(black_box(w)).unwrap_or(f64::MAX) <= epsilon)
                .count()
        })
    });
    group.bench_function("filter_and_refine", |b| {
        b.iter(|| filter_and_refine(black_box(&query), black_box(&windows), epsilon))
    });
    group.finish();
}

criterion_group!(benches, bench_persistence);
criterion_main!(benches);
