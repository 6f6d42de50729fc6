//! Experiment: **Figure 8 — Clustering, stream and patient similarity.**
//!
//! * (a) prediction accuracy with vs without patient clustering
//!   (cluster-restricted search);
//! * (b) stream distances: a stream vs itself, vs other streams of the
//!   same patient, vs streams of other patients;
//! * (c) patient distances: a patient vs themselves, vs other patients.
//!
//! Plus the Section 5.3 applications: does clustering recover the latent
//! phenotypes (adjusted Rand index), and which recorded attributes
//! correlate with the clusters (Cramér's V)?
//!
//! Expected shape (paper): clustering improves prediction; the Figure 8b/c
//! orderings hold (self < same patient < other patient).

use std::collections::HashSet;
use tsm_bench::report::{banner, num, table, table2};
use tsm_bench::{
    build_bundle, cluster_patients, evaluate_prediction, BundleConfig, PredictionEvalConfig,
    StoreBundle,
};
use tsm_core::cluster::{adjusted_rand_index, silhouette};
use tsm_core::correlate::discover_correlations;
use tsm_core::stream_distance::{stream_distance, StreamDistanceConfig};
use tsm_core::Params;
use tsm_db::SourceRelation;
use tsm_model::SegmenterConfig;
use tsm_signal::CohortConfig;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cohort = if quick {
        CohortConfig {
            n_patients: 8,
            sessions_per_patient: 2,
            streams_per_session: 2,
            stream_duration_s: 90.0,
            dim: 1,
            seed: 0xF18,
        }
    } else {
        CohortConfig {
            n_patients: 28,
            sessions_per_patient: 3,
            streams_per_session: 2,
            stream_duration_s: 120.0,
            dim: 1,
            seed: 0xF18,
        }
    };
    let bundle_cfg = BundleConfig {
        cohort,
        segmenter: SegmenterConfig::default(),
    };
    eprintln!("building cohort ...");
    let bundle = build_bundle(&bundle_cfg);
    let params = Params::default();
    let sdc = StreamDistanceConfig {
        len_segments: 9,
        stride: 3,
    };

    // ---- Figure 8b: stream distances by provenance tier -------------
    banner("Figure 8b: mean stream distance by provenance");
    let streams = bundle.store.streams();
    let mut sums = [0.0f64; 3];
    let mut counts = [0usize; 3];
    for (i, a) in streams.iter().enumerate() {
        for (j, b) in streams.iter().enumerate() {
            if j < i {
                continue;
            }
            let tier = if i == j {
                0
            } else if a.meta.patient == b.meta.patient {
                1
            } else {
                2
            };
            // Sample the cross-patient pairs (there are many).
            if tier == 2 && (i + j) % 7 != 0 {
                continue;
            }
            let relation = if i == j {
                SourceRelation::SameSession
            } else {
                bundle
                    .store
                    .relation(a.meta.id, b.meta.id)
                    .expect("streams exist")
            };
            if let Some(d) = stream_distance(a, b, relation, &params, &sdc) {
                sums[tier] += d;
                counts[tier] += 1;
            }
        }
    }
    let tier_mean = |t: usize| {
        if counts[t] > 0 {
            sums[t] / counts[t] as f64
        } else {
            f64::NAN
        }
    };
    table2(
        ("provenance", "mean stream distance"),
        &[
            ("same stream (self)".into(), num(tier_mean(0), 4)),
            ("same patient".into(), num(tier_mean(1), 4)),
            ("other patient".into(), num(tier_mean(2), 4)),
        ],
    );
    println!(
        "VERDICT self < same patient < other patient: {}",
        tier_mean(0) < tier_mean(1) && tier_mean(1) < tier_mean(2)
    );

    // ---- Figure 8c + clustering ---------------------------------------
    banner("Figure 8c: patient distances and clustering");
    eprintln!("computing patient distance matrix ...");
    let (labels, dm) = cluster_patients(&bundle, &params, &sdc, 4);

    // Mean self distance (within-patient) vs cross-patient distance.
    let n = dm.len();
    let mut self_sum = 0.0;
    let mut self_n = 0usize;
    let mut cross_sum = 0.0;
    let mut cross_n = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            cross_sum += dm.get(i, j);
            cross_n += 1;
        }
        // Within-patient: Definition 4 with a == b, approximated by the
        // patient's own stream pairs — recompute cheaply from the store.
        if let Some(d) = tsm_core::patient_distance::patient_distance(
            &bundle.store,
            bundle.patients[i],
            bundle.patients[i],
            &params,
            &sdc,
        ) {
            self_sum += d;
            self_n += 1;
        }
    }
    let self_mean = self_sum / self_n.max(1) as f64;
    let cross_mean = cross_sum / cross_n.max(1) as f64;
    table2(
        ("comparison", "mean patient distance"),
        &[
            ("patient vs self".into(), num(self_mean, 4)),
            ("patient vs others".into(), num(cross_mean, 4)),
        ],
    );
    println!("VERDICT self < others: {}", self_mean < cross_mean);

    let ari = adjusted_rand_index(&labels, &bundle.labels);
    let sil = silhouette(&dm, &labels);
    println!();
    println!("clustering: k = 4 (k-medoids over patient distances)");
    println!("  adjusted Rand index vs latent phenotypes: {ari:.3}");
    println!("  mean silhouette: {sil:.3}");
    println!(
        "VERDICT clustering recovers phenotypes (ARI > 0.5): {}",
        ari > 0.5
    );

    // ---- Correlation discovery (Section 5.3) --------------------------
    banner("Correlation discovery: attributes vs clusters (Cramer's V)");
    let attrs: Vec<_> = bundle
        .patients
        .iter()
        .map(|&p| bundle.store.patient_attributes(p).expect("patient exists"))
        .collect();
    let assoc = discover_correlations(&attrs, &labels);
    let rows: Vec<Vec<String>> = assoc
        .iter()
        .map(|a| vec![a.attribute.clone(), num(a.cramers_v, 3)])
        .collect();
    table(&["attribute", "Cramer's V"], &rows);
    let site_v = assoc
        .iter()
        .find(|a| a.attribute == "tumor_site")
        .map(|a| a.cramers_v)
        .unwrap_or(0.0);
    let sex_v = assoc
        .iter()
        .find(|a| a.attribute == "sex")
        .map(|a| a.cramers_v)
        .unwrap_or(0.0);
    println!(
        "VERDICT tumor_site more associated than sex: {} ({:.3} vs {:.3})",
        site_v > sex_v,
        site_v,
        sex_v
    );

    // ---- Figure 8a: prediction with vs without clustering -------------
    banner("Figure 8a: prediction error with vs without clustering");
    let dts: Vec<f64> = vec![0.1, 0.2, 0.3];
    eprintln!("evaluating: without clustering ...");
    let without = evaluate_prediction(
        &bundle,
        &params,
        &bundle_cfg.segmenter,
        &PredictionEvalConfig {
            dts: dts.clone(),
            ..Default::default()
        },
    );
    eprintln!("evaluating: with clustering ...");
    // Per-patient evaluation with the search restricted to the patient's
    // own cluster.
    let mut with_err_sum = 0.0;
    let mut with_err_n = 0usize;
    let mut with_predictions = 0usize;
    let mut with_opportunities = 0usize;
    for (pix, &pid) in bundle.patients.iter().enumerate() {
        let Some(eval) = bundle.eval.iter().find(|e| e.patient == pid) else {
            continue;
        };
        let cluster: HashSet<_> = bundle
            .patients
            .iter()
            .enumerate()
            .filter(|(qix, _)| labels[*qix] == labels[pix])
            .map(|(_, &q)| q)
            .collect();
        let single = StoreBundle {
            store: bundle.store.clone(),
            patients: bundle.patients.clone(),
            labels: bundle.labels.clone(),
            eval: vec![eval.clone()],
        };
        let stats = evaluate_prediction(
            &single,
            &params,
            &bundle_cfg.segmenter,
            &PredictionEvalConfig {
                dts: dts.clone(),
                restrict_patients: Some(cluster),
                ..Default::default()
            },
        );
        if stats.overall_error.is_finite() {
            let n: usize = stats.by_dt.iter().map(|(_, _, n)| n).sum();
            with_err_sum += stats.overall_error * n as f64;
            with_err_n += n;
        }
        with_predictions += stats.predictions;
        with_opportunities += stats.opportunities;
    }
    let with_error = with_err_sum / with_err_n.max(1) as f64;
    table(
        &["search scope", "mean error (mm)", "coverage"],
        &[
            vec![
                "all patients".into(),
                num(without.overall_error, 3),
                format!("{:.0}%", without.coverage() * 100.0),
            ],
            vec![
                "own cluster only".into(),
                num(with_error, 3),
                format!(
                    "{:.0}%",
                    with_predictions as f64 / with_opportunities.max(1) as f64 * 100.0
                ),
            ],
        ],
    );
    println!(
        "VERDICT clustering improves prediction: {} ({:.3} vs {:.3} mm)",
        with_error < without.overall_error,
        with_error,
        without.overall_error
    );
}
