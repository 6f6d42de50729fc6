//! The parametric knobs of the matching system (paper Table 1).
//!
//! The similarity measure is deliberately *parametric*: "It can be applied
//! in other application domains by adjusting the parameters of wa, wf, wi
//! and ws." This module holds those parameters plus the query-generation
//! and prediction knobs, with constructors for each ablation of Figure 6.

use serde::{Deserialize, Serialize};

/// How per-segment amplitude deviations are measured.
///
/// The paper presents motion in 1-D but stresses the data model "can work
/// for any n-dimensional space"; with multi-dimensional streams the
/// spatial metric compares full displacement *vectors* instead of one
/// axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AmplitudeMetric {
    /// Compare displacements along the classification axis only (the
    /// paper's 1-D exposition).
    #[default]
    Axis,
    /// Compare the Euclidean norm of the displacement-vector difference
    /// across all spatial dimensions.
    Spatial,
}

/// All tunable parameters, defaulting to the paper's Table 1 settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Weight for amplitude differences (`wa`, Table 1: 1.0). The paper
    /// always keeps `wa >= wf` "to ensure that the amplitude has more
    /// significance than the frequency".
    pub wa: f64,
    /// Weight for frequency (segment-duration) differences (`wf`,
    /// Table 1: 0.25).
    pub wf: f64,
    /// Base of the per-vertex recency weight (`wi`, Table 1: 0.8). The
    /// weight rises linearly from this base at the oldest vertex to 1.0 at
    /// the most recent one; offline analysis sets every vertex weight
    /// to 1.
    pub wi_base: f64,
    /// Source-stream weight for candidates from the same session
    /// (Table 1: 1.0).
    pub ws_same_session: f64,
    /// Source-stream weight for candidates from another session of the
    /// same patient (Table 1: 0.9).
    pub ws_same_patient: f64,
    /// Source-stream weight for candidates from a different patient
    /// (Table 1: 0.3).
    pub ws_other_patient: f64,
    /// Subsequence distance threshold `δ` (Table 1: 8.0). Candidates with
    /// a larger weighted distance are not considered similar.
    pub delta: f64,
    /// Stability threshold `θ` (Table 1: 6.0): a strip with a stability
    /// statistic at or below this counts as stable.
    pub theta: f64,
    /// Minimum query length in breathing cycles (`L_min`; Section 4.1 and
    /// Figure 7b use 2–3).
    pub lmin_cycles: usize,
    /// Maximum query length in breathing cycles (`L_max`; Section 4.1 and
    /// Figure 7b use 8–9).
    pub lmax_cycles: usize,
    /// Number of most-similar subsequences used per query in the stream
    /// distance (`k` of Definition 3; "for example, k can be 10").
    pub k_retrieve: usize,
    /// Minimum retrieved matches required before a prediction is made
    /// ("we predict only if there are a certain number of retrieved
    /// subsequences").
    pub min_matches: usize,
    /// Classification axis of the motion (must match the segmenter's).
    pub axis: usize,
    /// Amplitude metric for multi-dimensional streams.
    pub amplitude_metric: AmplitudeMetric,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            wa: 1.0,
            wf: 0.25,
            wi_base: 0.8,
            ws_same_session: 1.0,
            ws_same_patient: 0.9,
            ws_other_patient: 0.3,
            delta: 8.0,
            theta: 6.0,
            lmin_cycles: 3,
            lmax_cycles: 8,
            k_retrieve: 10,
            min_matches: 3,
            axis: 0,
            amplitude_metric: AmplitudeMetric::Axis,
        }
    }
}

impl Params {
    /// Figure 6's "no weighting" ablation: amplitude and frequency count
    /// equally, every source tier and every vertex weighs 1.
    pub fn no_weighting() -> Self {
        Params {
            wa: 1.0,
            wf: 1.0,
            wi_base: 1.0,
            ws_same_session: 1.0,
            ws_same_patient: 1.0,
            ws_other_patient: 1.0,
            ..Default::default()
        }
    }

    /// Figure 6's "wa, wf only" ablation: tuned amplitude/frequency
    /// weights, but neither stream nor vertex weighting.
    pub fn amp_freq_only() -> Self {
        Params {
            wi_base: 1.0,
            ws_same_session: 1.0,
            ws_same_patient: 1.0,
            ws_other_patient: 1.0,
            ..Default::default()
        }
    }

    /// Figure 6's "+ weighted streams" ablation: wa/wf plus the
    /// source-stream tiers, but flat vertex weights.
    pub fn with_stream_weights() -> Self {
        Params {
            wi_base: 1.0,
            ..Default::default()
        }
    }

    /// Figure 6's "+ weighted line segments" ablation: wa/wf plus recency
    /// vertex weights, but flat stream weights.
    pub fn with_vertex_weights() -> Self {
        Params {
            ws_same_session: 1.0,
            ws_same_patient: 1.0,
            ws_other_patient: 1.0,
            ..Default::default()
        }
    }

    /// Figure 6's "all weighting" configuration — identical to
    /// [`Params::default`].
    pub fn all_weighting() -> Self {
        Self::default()
    }

    /// Minimum query length in segments (3 per cycle).
    pub fn lmin_segments(&self) -> usize {
        self.lmin_cycles * 3
    }

    /// Maximum query length in segments (3 per cycle).
    pub fn lmax_segments(&self) -> usize {
        self.lmax_cycles * 3
    }

    /// The source-stream weight for a provenance relation.
    pub fn ws(&self, relation: tsm_db::SourceRelation) -> f64 {
        match relation {
            tsm_db::SourceRelation::SameSession => self.ws_same_session,
            tsm_db::SourceRelation::SamePatient => self.ws_same_patient,
            tsm_db::SourceRelation::OtherPatient => self.ws_other_patient,
        }
    }

    /// Validates invariants the paper states (wa ≥ wf, weight ordering,
    /// positive thresholds, sane lengths). A NaN weight or threshold is
    /// rejected, since every comparison with it is false; δ = ∞ (match
    /// everything) is valid.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("wa", self.wa),
            ("wf", self.wf),
            ("delta", self.delta),
            ("theta", self.theta),
        ] {
            if v.is_nan() {
                return Err(format!("{name} must be a number, not NaN"));
            }
        }
        if self.wa < self.wf {
            return Err(format!(
                "amplitude weight wa={} must be >= frequency weight wf={}",
                self.wa, self.wf
            ));
        }
        if !(0.0..=1.0).contains(&self.wi_base) {
            return Err(format!("wi_base={} must be in [0,1]", self.wi_base));
        }
        if !(self.ws_other_patient <= self.ws_same_patient
            && self.ws_same_patient <= self.ws_same_session)
        {
            return Err("source weights must order other <= same-patient <= same-session".into());
        }
        if self.ws_other_patient <= 0.0 {
            return Err("source weights must be positive".into());
        }
        if self.delta <= 0.0 || self.theta <= 0.0 {
            return Err(format!(
                "thresholds must be positive: delta={}, theta={}",
                self.delta, self.theta
            ));
        }
        if self.lmin_cycles == 0 || self.lmin_cycles > self.lmax_cycles {
            return Err(format!(
                "query length bounds invalid: {}..{}",
                self.lmin_cycles, self.lmax_cycles
            ));
        }
        if self.k_retrieve == 0 {
            return Err("k_retrieve must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_db::SourceRelation;

    #[test]
    fn defaults_match_table_1() {
        let p = Params::default();
        assert_eq!(p.wa, 1.0);
        assert_eq!(p.wf, 0.25);
        assert_eq!(p.wi_base, 0.8);
        assert_eq!(p.ws_same_session, 1.0);
        assert_eq!(p.ws_same_patient, 0.9);
        assert_eq!(p.ws_other_patient, 0.3);
        assert_eq!(p.delta, 8.0);
        assert_eq!(p.theta, 6.0);
        p.validate().unwrap();
    }

    #[test]
    fn ablations_are_valid_and_distinct() {
        for p in [
            Params::no_weighting(),
            Params::amp_freq_only(),
            Params::with_stream_weights(),
            Params::with_vertex_weights(),
            Params::all_weighting(),
        ] {
            p.validate().unwrap();
        }
        assert_ne!(Params::no_weighting(), Params::amp_freq_only());
        assert_eq!(Params::all_weighting(), Params::default());
    }

    #[test]
    fn ws_lookup() {
        let p = Params::default();
        assert_eq!(p.ws(SourceRelation::SameSession), 1.0);
        assert_eq!(p.ws(SourceRelation::SamePatient), 0.9);
        assert_eq!(p.ws(SourceRelation::OtherPatient), 0.3);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let bad = Params {
            wa: 0.1,
            wf: 0.5,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = Params {
            ws_other_patient: 2.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = Params {
            lmin_cycles: 9,
            lmax_cycles: 3,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = Params {
            delta: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_rejects_nan_weights_and_thresholds() {
        let nan = f64::NAN;
        let wa = Params {
            wa: nan,
            ..Default::default()
        };
        assert!(wa.validate().is_err(), "wa = NaN accepted");
        let wf = Params {
            wf: nan,
            ..Default::default()
        };
        assert!(wf.validate().is_err(), "wf = NaN accepted");
        let delta = Params {
            delta: nan,
            ..Default::default()
        };
        assert!(delta.validate().is_err(), "delta = NaN accepted");
        let theta = Params {
            theta: nan,
            ..Default::default()
        };
        assert!(theta.validate().is_err(), "theta = NaN accepted");
        // An infinite threshold is a valid "match everything".
        let open = Params {
            delta: f64::INFINITY,
            ..Default::default()
        };
        assert!(open.validate().is_ok());
    }

    #[test]
    fn segment_conversions() {
        let p = Params::default();
        assert_eq!(p.lmin_segments(), 9);
        assert_eq!(p.lmax_segments(), 24);
    }
}
