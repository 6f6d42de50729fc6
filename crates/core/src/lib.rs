//! # tsm-core
//!
//! The primary contribution of Wu et al., *Subsequence Matching on
//! Structured Time Series Data* (SIGMOD 2005), implemented over the
//! [`tsm_model`] motion model and the [`tsm_db`] stream database:
//!
//! * **Subsequence stability** (Definition 1) — a scale-free statistic of
//!   how regular the most recent motion is ([`mod@stability`]).
//! * **Dynamic query generation** (Section 4.1) — a stability checking
//!   strip that grows the query subsequence until it is representative
//!   ([`query`]).
//! * **Online subsequence similarity** (Definition 2) — a model-based,
//!   multi-layer, weighted, parametric distance: candidates must share the
//!   query's state order, then a weighted sum of amplitude and frequency
//!   deviations is scaled by per-vertex recency weights and the
//!   source-stream weight ([`similarity`], [`matcher`]).
//! * **Motion prediction** (Section 4.3) — the offset-translated weighted
//!   mean of the retrieved subsequences' futures ([`predict`]).
//! * **Stream and patient distances** (Definitions 3 and 4) and
//!   distance-matrix **clustering** with correlation discovery
//!   ([`mod@stream_distance`], [`mod@patient_distance`], [`cluster`],
//!   [`correlate`]).
//! * An **online session runtime** gluing segmentation, querying,
//!   matching and prediction into the real-time loop the paper deploys,
//!   one prediction per tick serving prediction, gating and tracking
//!   ([`session`], [`pipeline`]), and the Section-6 **generalization
//!   profiles** for other structured domains ([`framework`]).
//!
//! ## Quickstart
//!
//! ```
//! use tsm_core::prelude::*;
//! use tsm_db::{PatientAttributes, StreamStore};
//! use tsm_model::{segment_signal, SegmenterConfig};
//! use tsm_signal::{BreathingParams, SignalGenerator};
//!
//! // 1. Simulate and segment a patient's historical stream.
//! let samples = SignalGenerator::new(BreathingParams::default(), 7).generate(120.0);
//! let vertices = segment_signal(&samples, SegmenterConfig::default());
//! let plr = tsm_model::PlrTrajectory::from_vertices(vertices).unwrap();
//!
//! // 2. Store it.
//! let store = StreamStore::new();
//! let patient = store.add_patient(PatientAttributes::new());
//! let stream = store.add_stream(patient, 0, plr, samples.len());
//!
//! // 3. Build a query from the stream's own recent motion and match.
//! let params = Params::default();
//! let view = store.resolve(tsm_db::SubseqRef::new(stream, 0, 9)).unwrap();
//! let query = QuerySubseq::from_view(&view);
//! let matches = Matcher::new(store.clone(), params.clone()).find_matches(&query);
//! assert!(!matches.is_empty());
//! ```

pub mod batch;
pub mod cluster;
pub mod correlate;
pub mod drift;
pub mod error;
pub mod framework;
pub mod gating;
pub mod index_cache;
pub mod invariants;
pub mod json;
pub mod matcher;
pub mod metrics;
pub mod params;
pub mod patient_distance;
pub mod pipeline;
pub mod predict;
pub mod query;
pub mod session;
pub mod similarity;
pub mod stability;
pub mod stream_distance;
pub mod tracking;
pub mod tuning;

/// Glob import of the most used types.
pub mod prelude {
    pub use crate::batch::{BatchScorer, LANES};
    pub use crate::cluster::{agglomerative, k_medoids, silhouette, DistanceMatrix};
    pub use crate::correlate::{discover_correlations, Association};
    pub use crate::drift::{DriftConfig, DriftMonitor, DriftReport};
    pub use crate::error::{CoreError, TsmError};
    pub use crate::framework::DomainProfile;
    pub use crate::gating::{
        gate_ticks, simulate_gating, GatingAccumulator, GatingStats, GatingWindow,
    };
    pub use crate::index_cache::{CachedMatcher, IndexCache};
    pub use crate::matcher::{MatchResult, Matcher, QuerySubseq, SearchOptions};
    pub use crate::metrics::{
        Counter, Hist, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, SearchTally,
    };
    pub use crate::params::Params;
    pub use crate::patient_distance::patient_distance;
    pub use crate::pipeline::PredictionOutcome;
    pub use crate::predict::{predict_position, predict_position_anchored, AlignMode};
    pub use crate::query::{generate_query, QueryOutcome};
    pub use crate::session::{
        external_session, CohortReport, CohortRuntime, DegradationPolicy, PredictionTick,
        SessionConfig, SessionHealth, SessionReport, SessionRuntime, SessionSpec,
    };
    pub use crate::similarity::{offline_distance, online_distance, vertex_weight, QueryCols};
    pub use crate::stability::{is_stable, stability};
    pub use crate::stream_distance::{stream_distance, StreamDistanceConfig};
    pub use crate::tracking::{simulate_tracking, track_ticks, TrackingStats};
    pub use crate::tuning::{CoordinateDescentTuner, TuningResult, TuningSpace};
}

pub use prelude::*;
