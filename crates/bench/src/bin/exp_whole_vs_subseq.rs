//! Extension experiment: **subsequence-based vs whole-sequence stream
//! similarity** (the Section 5 departure, quantified).
//!
//! Both schemes cluster the same cohorts by patient distance; the
//! question is which recovers the latent phenotypes. The whole-sequence
//! baseline is strong-manned: magnitude spectra (phase-invariant) with
//! enough coefficients to cover the breathing fundamental. Definition 3
//! still wins, because it drops irregular-episode windows as outliers and
//! compares *local patterns*, while every episode and drift pollutes a
//! whole-sequence feature vector somewhere.

use tsm_baselines::{whole_stream_distance, WholeStreamConfig};
use tsm_bench::report::{banner, num, table};
use tsm_bench::{build_bundle, cluster_patients, BundleConfig, StoreBundle};
use tsm_core::cluster::{adjusted_rand_index, k_medoids, DistanceMatrix};
use tsm_core::stream_distance::StreamDistanceConfig;
use tsm_core::Params;
use tsm_model::SegmenterConfig;
use tsm_signal::CohortConfig;

/// Whole-sequence patient distance: mean pairwise whole-stream distance.
fn whole_sequence_matrix(bundle: &StoreBundle) -> DistanceMatrix {
    // Retain enough coefficients to cover the breathing fundamental: a
    // 100 s stream has its fundamental at DFT bin ≈ 100 / period ≈ 18–35,
    // so 16 coefficients would (unfairly) miss it entirely.
    let cfg = WholeStreamConfig {
        resample_points: 256,
        dft_coefficients: 48,
        use_magnitude: true,
    };
    let n = bundle.patients.len();
    DistanceMatrix::from_fn(n, |i, j| {
        let a = bundle.store.streams_of(bundle.patients[i]);
        let b = bundle.store.streams_of(bundle.patients[j]);
        let mut total = 0.0;
        let mut count = 0usize;
        for &ra in &a {
            for &rb in &b {
                if ra == rb {
                    continue;
                }
                let (sa, sb) = (
                    bundle.store.stream(ra).expect("stream"),
                    bundle.store.stream(rb).expect("stream"),
                );
                if let Some(d) = whole_stream_distance(&sa.plr, &sb.plr, 0, &cfg) {
                    total += d;
                    count += 1;
                }
            }
        }
        if count > 0 {
            total / count as f64
        } else {
            1e6
        }
    })
}

fn evaluate(name: &str, seed: u64, quick: bool) -> Vec<String> {
    let bundle = build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: if quick { 8 } else { 16 },
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: 100.0,
            dim: 1,
            seed,
        },
        segmenter: SegmenterConfig::default(),
    });
    let params = Params::default();
    let sdc = StreamDistanceConfig {
        len_segments: 9,
        stride: 3,
    };
    eprintln!("{name}: subsequence distances ...");
    let (sub_labels, _) = cluster_patients(&bundle, &params, &sdc, 4);
    eprintln!("{name}: whole-sequence distances ...");
    let whole_dm = whole_sequence_matrix(&bundle);
    let whole_labels = k_medoids(&whole_dm, 4, 100);
    let sub_ari = adjusted_rand_index(&sub_labels, &bundle.labels);
    let whole_ari = adjusted_rand_index(&whole_labels, &bundle.labels);
    vec![name.to_string(), num(sub_ari, 3), num(whole_ari, 3)]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner("Stream similarity: Definition 3 (subsequence) vs whole-sequence DFT");
    // Three independently sampled cohorts with the same phenotype
    // balance (assignment is round-robin); averaging over them keeps a
    // single lucky draw from deciding the comparison.
    let rows = vec![
        evaluate("cohort A", 0x0A11, quick),
        evaluate("cohort B", 0x0B22, quick),
        evaluate("cohort C", 0x0C33, quick),
    ];
    table(&["cohort", "subsequence ARI", "whole-sequence ARI"], &rows);
    let parse = |s: &String| s.parse::<f64>().unwrap_or(0.0);
    let sub_mean: f64 = rows.iter().map(|r| parse(&r[1])).sum::<f64>() / rows.len() as f64;
    let whole_mean: f64 = rows.iter().map(|r| parse(&r[2])).sum::<f64>() / rows.len() as f64;
    println!();
    println!(
        "VERDICT subsequence-based clustering recovers phenotypes at least as well: {} ({:.3} vs {:.3} mean ARI)",
        sub_mean >= whole_mean - 0.02,
        sub_mean,
        whole_mean
    );
}
