//! Clustering demo: offline analysis of a synthetic cohort.
//!
//! Generates a 16-patient cohort drawn from four latent breathing
//! phenotypes, computes Definition-4 patient distances, clusters with
//! k-medoids, and checks (a) whether the latent phenotypes are recovered
//! and (b) which recorded attributes correlate with the clusters —
//! the Section 5.3 applications.
//!
//! Run with: `cargo run --release -p tsm-examples --bin clustering_demo`

use tsm_core::cluster::{adjusted_rand_index, k_medoids, silhouette};
use tsm_core::correlate::discover_correlations;
use tsm_core::patient_distance::patient_distance_matrix;
use tsm_core::stream_distance::StreamDistanceConfig;
use tsm_core::Params;
use tsm_db::{PatientAttributes, StreamStore};
use tsm_examples::store_stream;
use tsm_model::SegmenterConfig;
use tsm_signal::{CohortConfig, SyntheticCohort};

fn main() {
    let cohort = SyntheticCohort::generate(CohortConfig {
        n_patients: 16,
        sessions_per_patient: 2,
        streams_per_session: 2,
        stream_duration_s: 100.0,
        dim: 1,
        seed: 0xC1,
    });
    println!(
        "cohort: {} patients, {} raw samples",
        cohort.patients.len(),
        cohort.total_samples()
    );

    // Ingest.
    let store = StreamStore::new();
    let seg_config = SegmenterConfig::default();
    for p in &cohort.patients {
        let mut attrs = PatientAttributes::new();
        attrs.insert("age".into(), p.profile.age.to_string());
        attrs.insert("sex".into(), format!("{:?}", p.profile.sex));
        attrs.insert("tumor_site".into(), format!("{:?}", p.profile.tumor_site));
        attrs.insert(
            "tumor_size_mm".into(),
            format!("{:.1}", p.profile.tumor_size_mm),
        );
        let pid = store.add_patient(attrs);
        for (six, session) in p.sessions.iter().enumerate() {
            for raw in &session.streams {
                store_stream(&store, pid, six as u32, raw, &seg_config);
            }
        }
    }

    // Patient distance matrix (Definition 4 over Definition 3).
    println!("computing patient distances ...");
    let params = Params::default();
    let sdc = StreamDistanceConfig {
        len_segments: 9,
        stride: 3,
    };
    let dm = patient_distance_matrix(&store, &params, &sdc);

    // Cluster and evaluate against the latent phenotypes.
    let labels = k_medoids(&dm, 4, 100);
    let truth = cohort.phenotype_labels();
    println!("\npatient  cluster  latent phenotype");
    for (i, p) in cohort.patients.iter().enumerate() {
        println!("  P{i:<5} {:<8} {:?}", labels[i], p.profile.phenotype);
    }
    println!(
        "\nadjusted Rand index vs latent phenotypes: {:.3}",
        adjusted_rand_index(&labels, &truth)
    );
    println!("mean silhouette: {:.3}", silhouette(&dm, &labels));

    // Correlation discovery.
    let attrs: Vec<_> = store
        .patients()
        .iter()
        .map(|&p| store.patient_attributes(p).expect("patient exists"))
        .collect();
    println!("\nattribute associations with the clustering (Cramer's V):");
    for a in discover_correlations(&attrs, &labels) {
        println!("  {:<15} {:.3}", a.attribute, a.cramers_v);
    }
    println!("\n(tumor_site should rank near the top: the simulator correlates it with phenotype;");
    println!(" sex is uncorrelated by construction and should rank near the bottom)");
}
