//! Shared experiment machinery: cohort ingestion and prediction replay.

use std::collections::HashSet;
use std::time::{Duration, Instant};
use tsm_baselines::matcher::{EuclideanMatcher, EuclideanMatcherConfig};
use tsm_core::cluster::{k_medoids, DistanceMatrix};
use tsm_core::matcher::{Matcher, QuerySubseq, SearchOptions};
use tsm_core::params::Params;
use tsm_core::patient_distance::patient_distance_matrix;
use tsm_core::predict::{predict_position, AlignMode};
use tsm_core::query::{fixed_query, generate_query};
use tsm_core::stream_distance::StreamDistanceConfig;
use tsm_db::{PatientAttributes, PatientId, StreamStore};
use tsm_model::{segment_signal, OnlineSegmenter, PlrTrajectory, Sample, SegmenterConfig, Vertex};
use tsm_signal::{CohortConfig, SyntheticCohort};

/// A held-out stream used for prediction evaluation.
#[derive(Debug, Clone)]
pub struct EvalStream {
    /// The patient it belongs to.
    pub patient: PatientId,
    /// Its session index (the held-out session).
    pub session: u32,
    /// The raw samples to replay.
    pub samples: Vec<Sample>,
    /// Ground-truth PLR of the full stream (what the paper scores
    /// against: "the mean difference between the predicted positions and
    /// PLR values").
    pub truth: PlrTrajectory,
}

/// A cohort ingested into a store, with held-out evaluation streams.
#[derive(Debug)]
pub struct StoreBundle {
    /// The stream database (everything except the held-out streams).
    pub store: StreamStore,
    /// Patient ids, in cohort order.
    pub patients: Vec<PatientId>,
    /// Ground-truth phenotype labels per patient.
    pub labels: Vec<usize>,
    /// Held-out streams (one per patient, from the last session).
    pub eval: Vec<EvalStream>,
}

/// Bundle construction parameters.
#[derive(Debug, Clone)]
pub struct BundleConfig {
    /// The synthetic cohort to generate.
    pub cohort: CohortConfig,
    /// Segmenter configuration used both for ingestion and replay.
    pub segmenter: SegmenterConfig,
}

impl Default for BundleConfig {
    fn default() -> Self {
        BundleConfig {
            cohort: CohortConfig::paper_scale(0xC0FFEE),
            segmenter: SegmenterConfig::default(),
        }
    }
}

/// Converts the recordable part of a patient profile into store
/// attributes (the latent phenotype is deliberately *not* recorded — it
/// is what clustering should rediscover).
fn attributes_of(profile: &tsm_signal::PatientProfile) -> PatientAttributes {
    let mut a = PatientAttributes::new();
    a.insert("age".into(), profile.age.to_string());
    a.insert("sex".into(), format!("{:?}", profile.sex));
    a.insert("tumor_site".into(), format!("{:?}", profile.tumor_site));
    a.insert(
        "tumor_size_mm".into(),
        format!("{:.1}", profile.tumor_size_mm),
    );
    a.insert("recurrent".into(), profile.recurrent.to_string());
    a.insert(
        "marker_size_mm".into(),
        format!("{:.2}", profile.marker_size_mm),
    );
    a
}

/// Generates the cohort, segments every stream, and loads all but the
/// held-out evaluation streams into a fresh store.
///
/// The held-out stream of each patient is the *first stream of the last
/// session*; the rest of that session's streams are stored, so the
/// matcher has same-session history to draw on, exactly as during a real
/// treatment session.
pub fn build_bundle(config: &BundleConfig) -> StoreBundle {
    let cohort = SyntheticCohort::generate(config.cohort);
    let store = StreamStore::new();
    let mut patients = Vec::new();
    let mut eval = Vec::new();
    let labels = cohort.phenotype_labels();
    let last_session = config.cohort.sessions_per_patient.saturating_sub(1);

    for p in &cohort.patients {
        let pid = store.add_patient(attributes_of(&p.profile));
        patients.push(pid);
        for (six, session) in p.sessions.iter().enumerate() {
            for (kix, raw) in session.streams.iter().enumerate() {
                let held_out = six == last_session && kix == 0;
                if held_out {
                    let vertices = segment_signal(raw, config.segmenter.clone());
                    if let Ok(truth) = PlrTrajectory::from_vertices(vertices) {
                        eval.push(EvalStream {
                            patient: pid,
                            session: six as u32,
                            samples: raw.clone(),
                            truth,
                        });
                    }
                    continue;
                }
                let vertices = segment_signal(raw, config.segmenter.clone());
                if let Ok(plr) = PlrTrajectory::from_vertices(vertices) {
                    store.add_stream(pid, six as u32, plr, raw.len());
                }
            }
        }
    }
    StoreBundle {
        store,
        patients,
        labels,
        eval,
    }
}

/// How queries are generated during replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// The paper's stability-driven dynamic length (Section 4.1).
    Dynamic,
    /// A fixed length in segments (the Figure 7a baseline).
    Fixed(usize),
}

/// Which matching engine scores candidates.
#[derive(Debug, Clone)]
pub enum MatchEngine {
    /// The paper's weighted PLR-feature matcher.
    Plr,
    /// The weighted-Euclidean baseline.
    Euclidean(EuclideanMatcherConfig),
}

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct PredictionEvalConfig {
    /// Prediction horizons (seconds). The paper sweeps 0–300 ms.
    pub dts: Vec<f64>,
    /// Attempt a prediction every this many samples (30 = once per
    /// second at 30 Hz).
    pub predict_every: usize,
    /// Query generation mode.
    pub query_mode: QueryMode,
    /// Matching engine.
    pub engine: MatchEngine,
    /// Prediction alignment.
    pub align: AlignMode,
    /// Restrict matching to these patients (cluster-restricted search,
    /// Figure 8a).
    pub restrict_patients: Option<HashSet<PatientId>>,
    /// Override the distance threshold δ (Figure 9 sweep).
    pub delta_override: Option<f64>,
}

impl Default for PredictionEvalConfig {
    fn default() -> Self {
        PredictionEvalConfig {
            dts: (0..=10).map(|i| i as f64 * 0.03).collect(),
            predict_every: 30,
            query_mode: QueryMode::Dynamic,
            engine: MatchEngine::Plr,
            align: AlignMode::default(),
            restrict_patients: None,
            delta_override: None,
        }
    }
}

/// One produced prediction, for paired (same-point) comparisons between
/// configurations: comparing raw means across configurations with
/// different coverage confounds accuracy with "predicting only when it's
/// easy".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionRecord {
    /// Index of the evaluation stream.
    pub eval_ix: u32,
    /// Sample index of the prediction point within that stream.
    pub point_ix: u32,
    /// Index into the configured `dts`.
    pub dt_ix: u8,
    /// Absolute prediction error (mm).
    pub error: f64,
}

impl PredictionRecord {
    /// The identity of the prediction point (for intersecting across
    /// configurations).
    pub fn key(&self) -> (u32, u32, u8) {
        (self.eval_ix, self.point_ix, self.dt_ix)
    }
}

/// Aggregated replay results.
#[derive(Debug, Clone)]
pub struct PredictionStats {
    /// `(dt_seconds, mean_abs_error_mm, n_predictions)` per horizon.
    pub by_dt: Vec<(f64, f64, usize)>,
    /// Every produced prediction (for paired comparisons).
    pub records: Vec<PredictionRecord>,
    /// Mean absolute error over all horizons (Figure 6c's bar).
    pub overall_error: f64,
    /// Prediction points where a prediction was produced.
    pub predictions: usize,
    /// Prediction points attempted (δ and `min_matches` gate some away —
    /// the Figure 9 coverage axis is `predictions / opportunities`).
    pub opportunities: usize,
    /// Mean dynamic query length (segments) over produced queries.
    pub mean_query_len: f64,
    /// Total wall-clock time spent inside query generation + matching +
    /// prediction (Section 7.5's per-prediction cost).
    pub match_time: Duration,
}

impl PredictionStats {
    /// Coverage: fraction of opportunities that produced a prediction.
    pub fn coverage(&self) -> f64 {
        if self.opportunities == 0 {
            0.0
        } else {
            self.predictions as f64 / self.opportunities as f64
        }
    }

    /// Mean wall-clock time per produced prediction.
    pub fn time_per_prediction(&self) -> Duration {
        if self.predictions == 0 {
            Duration::ZERO
        } else {
            self.match_time / self.predictions as u32
        }
    }
}

/// Replays every held-out stream through the online pipeline and scores
/// predictions against the stream's own PLR.
pub fn evaluate_prediction(
    bundle: &StoreBundle,
    params: &Params,
    segmenter: &SegmenterConfig,
    config: &PredictionEvalConfig,
) -> PredictionStats {
    let plr_matcher = Matcher::new(bundle.store.clone(), params.clone());
    let euclid_matcher = match &config.engine {
        MatchEngine::Euclidean(cfg) => Some(EuclideanMatcher::new(
            bundle.store.clone(),
            params.clone(),
            cfg.clone(),
        )),
        MatchEngine::Plr => None,
    };

    let mut err_sum: Vec<f64> = vec![0.0; config.dts.len()];
    let mut err_n: Vec<usize> = vec![0; config.dts.len()];
    let mut records: Vec<PredictionRecord> = Vec::new();
    let mut opportunities = 0usize;
    let mut predictions = 0usize;
    let mut query_len_sum = 0usize;
    let mut query_count = 0usize;
    let mut match_time = Duration::ZERO;

    for (eval_ix, eval) in bundle.eval.iter().enumerate() {
        let mut seg = OnlineSegmenter::new(segmenter.clone());
        let mut live: Vec<Vertex> = Vec::new();
        let search = SearchOptions {
            restrict_patients: config.restrict_patients.clone(),
            top_k: None,
            delta_override: config.delta_override,
        };
        for (i, &s) in eval.samples.iter().enumerate() {
            live.extend(seg.push(s).expect("generated samples are finite"));
            if i % config.predict_every != 0 || i < config.predict_every {
                continue;
            }
            let outcome = match config.query_mode {
                QueryMode::Dynamic => generate_query(&live, params),
                QueryMode::Fixed(len) => fixed_query(&live, len),
            };
            let Some(outcome) = outcome else {
                continue; // warmup: not an opportunity yet
            };
            opportunities += 1;
            query_len_sum += outcome.len;
            query_count += 1;
            let query = QuerySubseq::new(outcome.vertices(&live).to_vec())
                .with_origin(eval.patient, eval.session);

            let started = Instant::now();
            let matches = match &config.engine {
                // The vote sums in store order, so no rank sort is needed.
                MatchEngine::Plr => plr_matcher.find_matches_in_store_order(&query, &search),
                MatchEngine::Euclidean(_) => euclid_matcher
                    .as_ref()
                    .expect("engine built above")
                    .find_matches(&query),
            };
            let mut produced = false;
            for (dix, &dt) in config.dts.iter().enumerate() {
                if let Some(p) =
                    predict_position(&bundle.store, &query, &matches, dt, params, config.align)
                {
                    let t_last = query.vertices.last().expect("non-empty").time;
                    let truth = eval.truth.position_at(t_last + dt);
                    let error = (p[params.axis] - truth[params.axis]).abs();
                    err_sum[dix] += error;
                    err_n[dix] += 1;
                    records.push(PredictionRecord {
                        eval_ix: eval_ix as u32,
                        point_ix: i as u32,
                        dt_ix: dix as u8,
                        error,
                    });
                    produced = true;
                }
            }
            match_time += started.elapsed();
            if produced {
                predictions += 1;
            }
        }
    }

    let by_dt: Vec<(f64, f64, usize)> = config
        .dts
        .iter()
        .zip(err_sum.iter().zip(&err_n))
        .map(|(&dt, (&s, &n))| (dt, if n > 0 { s / n as f64 } else { f64::NAN }, n))
        .collect();
    let total_n: usize = err_n.iter().sum();
    let overall_error = if total_n > 0 {
        err_sum.iter().sum::<f64>() / total_n as f64
    } else {
        f64::NAN
    };
    PredictionStats {
        by_dt,
        records,
        overall_error,
        predictions,
        opportunities,
        mean_query_len: if query_count > 0 {
            query_len_sum as f64 / query_count as f64
        } else {
            0.0
        },
        match_time,
    }
}

/// Paired comparison across configurations: mean error of each
/// configuration over the prediction points *every* configuration
/// produced. Returns the per-configuration means and the number of common
/// points. This removes the coverage confound — a configuration that only
/// predicts in easy situations would otherwise look spuriously accurate.
pub fn paired_errors(stats: &[&PredictionStats]) -> (Vec<f64>, usize) {
    use std::collections::HashSet;
    if stats.is_empty() {
        return (Vec::new(), 0);
    }
    let mut common: Option<HashSet<(u32, u32, u8)>> = None;
    for s in stats {
        let keys: HashSet<_> = s.records.iter().map(|r| r.key()).collect();
        common = Some(match common {
            None => keys,
            Some(c) => c.intersection(&keys).copied().collect(),
        });
    }
    let common = common.expect("stats non-empty");
    let means = stats
        .iter()
        .map(|s| {
            let mut sum = 0.0;
            let mut n = 0usize;
            for r in &s.records {
                if common.contains(&r.key()) {
                    sum += r.error;
                    n += 1;
                }
            }
            if n > 0 {
                sum / n as f64
            } else {
                f64::NAN
            }
        })
        .collect();
    (means, common.len())
}

/// Clusters the bundle's patients by Definition-4 patient distance and
/// returns the labels (in `bundle.patients` order).
pub fn cluster_patients(
    bundle: &StoreBundle,
    params: &Params,
    cfg: &StreamDistanceConfig,
    k: usize,
    threads: usize,
) -> (Vec<usize>, DistanceMatrix) {
    let dm = patient_distance_matrix(&bundle.store, params, cfg, threads);
    let labels = k_medoids(&dm, k, 100);
    (labels, dm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bundle() -> StoreBundle {
        build_bundle(&BundleConfig {
            cohort: CohortConfig {
                n_patients: 4,
                sessions_per_patient: 2,
                streams_per_session: 2,
                stream_duration_s: 60.0,
                dim: 1,
                seed: 21,
            },
            segmenter: SegmenterConfig::default(),
        })
    }

    #[test]
    fn bundle_structure() {
        let b = tiny_bundle();
        assert_eq!(b.patients.len(), 4);
        assert_eq!(b.labels.len(), 4);
        assert_eq!(b.eval.len(), 4);
        // 4 patients * (2 sessions * 2 streams - 1 held out) = 12 streams.
        assert_eq!(b.store.num_streams(), 12);
        // Attributes recorded, phenotype not leaked.
        let attrs = b.store.patient_attributes(b.patients[0]).unwrap();
        assert!(attrs.contains_key("tumor_site"));
        assert!(!attrs.contains_key("phenotype"));
    }

    #[test]
    fn replay_produces_predictions_and_errors() {
        let b = tiny_bundle();
        let params = Params::default();
        let cfg = PredictionEvalConfig {
            dts: vec![0.1, 0.3],
            ..Default::default()
        };
        let stats = evaluate_prediction(&b, &params, &SegmenterConfig::default(), &cfg);
        assert!(
            stats.opportunities > 20,
            "{} opportunities",
            stats.opportunities
        );
        assert!(stats.predictions > 0, "no predictions at all");
        assert!(stats.overall_error.is_finite());
        assert!(
            stats.overall_error < 8.0,
            "error {} mm",
            stats.overall_error
        );
        assert!(stats.mean_query_len >= params.lmin_segments() as f64);
        assert_eq!(stats.by_dt.len(), 2);
    }

    #[test]
    fn fixed_and_euclidean_modes_run() {
        let b = tiny_bundle();
        let params = Params::default();
        let fixed = PredictionEvalConfig {
            dts: vec![0.3],
            query_mode: QueryMode::Fixed(9),
            ..Default::default()
        };
        let s1 = evaluate_prediction(&b, &params, &SegmenterConfig::default(), &fixed);
        assert!(s1.predictions > 0);
        let euclid = PredictionEvalConfig {
            dts: vec![0.3],
            engine: MatchEngine::Euclidean(EuclideanMatcherConfig::default()),
            ..Default::default()
        };
        let s2 = evaluate_prediction(&b, &params, &SegmenterConfig::default(), &euclid);
        assert!(s2.opportunities > 0);
    }

    #[test]
    fn clustering_runs_on_small_bundle() {
        let b = tiny_bundle();
        let params = Params::default();
        let cfg = StreamDistanceConfig {
            len_segments: 6,
            stride: 4,
        };
        let (labels, dm) = cluster_patients(&b, &params, &cfg, 2, 2);
        assert_eq!(labels.len(), 4);
        assert_eq!(dm.len(), 4);
    }
}
