//! Offline analysis: clustering over Definition-4 patient distances must
//! rediscover the simulator's latent phenotypes, and correlation
//! discovery must surface the attribute the simulator correlated with
//! them.

use tsm_bench::{build_bundle, cluster_patients, BundleConfig};
use tsm_core::cluster::{adjusted_rand_index, agglomerative, silhouette};
use tsm_core::correlate::discover_correlations;
use tsm_core::stream_distance::StreamDistanceConfig;
use tsm_core::Params;
use tsm_model::SegmenterConfig;
use tsm_signal::CohortConfig;

fn bundle() -> tsm_bench::StoreBundle {
    build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: 12,
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: 100.0,
            dim: 1,
            seed: 0xC1u64,
        },
        segmenter: SegmenterConfig::default(),
    })
}

#[test]
fn k_medoids_recovers_phenotypes() {
    let b = bundle();
    let params = Params::default();
    let cfg = StreamDistanceConfig {
        len_segments: 9,
        stride: 3,
    };
    let (labels, dm) = cluster_patients(&b, &params, &cfg, 4);
    let ari = adjusted_rand_index(&labels, &b.labels);
    assert!(
        ari > 0.5,
        "clustering failed to recover phenotypes: ARI {ari:.3}, labels {labels:?} vs truth {:?}",
        b.labels
    );
    assert!(silhouette(&dm, &labels) > 0.0);

    // Agglomerative clustering over the same matrix should do comparably.
    let agg = agglomerative(&dm, 4);
    let ari_agg = adjusted_rand_index(&agg, &b.labels);
    assert!(ari_agg > 0.4, "agglomerative ARI {ari_agg:.3}");
}

#[test]
fn correlation_discovery_ranks_the_built_in_correlate_high() {
    // At 12 patients the contingency tables are too small: a 2-category
    // attribute like `sex` beats the built-in 5-category `tumor_site`
    // correlate by chance (observed: sex V 0.87 vs tumor_site V 0.58).
    // Use a cohort large enough for the constructed correlation to
    // dominate sampling noise.
    let b = build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: 24,
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: 100.0,
            dim: 1,
            seed: 0xC1u64,
        },
        segmenter: SegmenterConfig::default(),
    });
    let params = Params::default();
    let cfg = StreamDistanceConfig {
        len_segments: 9,
        stride: 3,
    };
    let (labels, _) = cluster_patients(&b, &params, &cfg, 4);
    let attrs: Vec<_> = b
        .patients
        .iter()
        .map(|&p| b.store.patient_attributes(p).unwrap())
        .collect();
    let assoc = discover_correlations(&attrs, &labels);
    let v = |key: &str| {
        assoc
            .iter()
            .find(|a| a.attribute == key)
            .map(|a| a.cramers_v)
            .unwrap_or(0.0)
    };
    // tumor_site is correlated with phenotype by construction; sex is not.
    assert!(
        v("tumor_site") > v("sex"),
        "tumor_site V {:.3} should exceed sex V {:.3} ({:?})",
        v("tumor_site"),
        v("sex"),
        assoc
            .iter()
            .map(|a| (&a.attribute, a.cramers_v))
            .collect::<Vec<_>>()
    );
}

#[test]
fn patient_distances_order_self_before_others() {
    let b = bundle();
    let params = Params::default();
    let cfg = StreamDistanceConfig {
        len_segments: 9,
        stride: 3,
    };
    // Figure 8c's shape on the first few patients.
    let mut checked = 0;
    for &p in b.patients.iter().take(4) {
        let self_d = tsm_core::patient_distance::patient_distance(&b.store, p, p, &params, &cfg);
        let Some(self_d) = self_d else { continue };
        let mut others = Vec::new();
        for &q in b.patients.iter() {
            if q == p {
                continue;
            }
            if let Some(d) =
                tsm_core::patient_distance::patient_distance(&b.store, p, q, &params, &cfg)
            {
                others.push(d);
            }
        }
        if others.is_empty() {
            continue;
        }
        let mean_other = others.iter().sum::<f64>() / others.len() as f64;
        assert!(
            self_d < mean_other,
            "patient {p}: self {self_d:.3} >= mean other {mean_other:.3}"
        );
        checked += 1;
    }
    assert!(
        checked >= 3,
        "only {checked} patients had defined distances"
    );
}
