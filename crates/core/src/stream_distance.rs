//! Whole-stream similarity (paper Definition 3).
//!
//! The distance between streams `R` and `S` is built from offline
//! subsequence distances: every length-`n` subsequence of `R` queries `S`,
//! its `k` most-similar same-state-order subsequences are averaged, and
//! queries that cannot find at least `k` state-order matches are outliers
//! and dropped. The final distance symmetrizes the two directions:
//!
//! ```text
//! D(R, S) = ( D(R → S) + D(S → R) ) / 2
//! ```
//!
//! The offline subsequence distance is
//! [`online_distance`](crate::similarity::online_distance) at flat vertex
//! weights (`wi_base = 1`: offline there is no "current time" to prefer).
//! It keeps the source-stream weight `ws` (Section 5: "the weights over
//! amplitude and frequency are still necessary, so is the weight for a
//! source stream"), so same-patient stream pairs read as closer than
//! other-patient pairs with the same raw shape deviation — this is
//! deliberate and drives Figure 8b's ordering.
//!
//! Windows are scored by the matcher's own kernels over the target
//! stream's [`StreamFeatures`]: [`BatchScorer::match_mask`] gates them on
//! the query's state order and [`BatchScorer::rescore_exact`] scores the
//! survivors, unbounded, bit-identical to the vertex-walking oracle. There
//! is no limit on the subsequence length.

use crate::batch::{BatchScorer, RescanOutcome, LANES};
use crate::params::Params;
use crate::similarity::QueryCols;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tsm_db::{MotionStream, SourceRelation, StreamFeatures};

/// Knobs of the stream-distance computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamDistanceConfig {
    /// Subsequence length in segments (`n` of Definition 3). Default: 9
    /// (three breathing cycles).
    pub len_segments: usize,
    /// Queries advance by this many segments; 1 enumerates every
    /// subsequence as in the paper, larger strides trade fidelity for
    /// speed on long corpora.
    pub stride: usize,
}

impl Default for StreamDistanceConfig {
    fn default() -> Self {
        StreamDistanceConfig {
            len_segments: 9,
            stride: 1,
        }
    }
}

/// One direction of Definition 3: mean over `R`'s (non-outlier) queries of
/// the mean of the `k` most-similar subsequences in `S`.
fn directed_distance(
    r: &MotionStream,
    s: &MotionStream,
    relation: SourceRelation,
    params: &Params,
    cfg: &StreamDistanceConfig,
) -> Option<f64> {
    let len = cfg.len_segments;
    let k = params.k_retrieve;
    let rv = r.plr.vertices();
    if rv.len() < len + 1 || s.plr.vertices().len() < len + 1 {
        return None;
    }
    let flat = Params {
        wi_base: 1.0,
        ..params.clone()
    };
    let ws = params.ws(relation);
    let target = StreamFeatures::build(s, params.axis);
    let same_stream = r.meta.id == s.meta.id;

    let mut scorer = BatchScorer::new();
    let mut total = 0.0;
    let mut n_queries = 0usize;
    let mut starts: Vec<usize> = Vec::new();
    let mut dists: Vec<f64> = Vec::new();
    for start in (0..rv.len() - len).step_by(cfg.stride.max(1)) {
        let cols = QueryCols::build(&rv[start..=start + len], &flat)?;
        let mask = scorer.match_mask(&cols.states, &target);
        starts.clear();
        // A window trivially matches itself.
        starts.extend((0..mask.len()).filter(|&j| mask[j] == 0 && !(same_stream && j == start)));
        dists.clear();
        for run in starts.chunks(LANES) {
            // With no bound and a positive `ws`, every window of the run
            // comes back `Scored`; the other lanes are padding.
            let scored = scorer.rescore_exact(&cols, &flat, &target, run, ws, f64::INFINITY);
            dists.extend(scored.into_iter().filter_map(|o| match o {
                RescanOutcome::Scored(d) => Some(d),
                _ => None,
            }));
        }
        // "If a query cannot find at least k subsequences with the same
        // state order, that query subsequence is an outlier and will be
        // removed."
        if dists.len() >= k {
            dists.sort_by(f64::total_cmp);
            total += dists[..k].iter().sum::<f64>() / k as f64;
            n_queries += 1;
        }
    }
    (n_queries > 0).then(|| total / n_queries as f64)
}

/// The symmetric stream distance (Definition 3). `relation` is the
/// provenance of the pair (drives `ws`); obtain it from
/// [`tsm_db::StreamStore::relation`]. Returns `None` when either stream is
/// too short or every query is an outlier.
pub fn stream_distance(
    a: &Arc<MotionStream>,
    b: &Arc<MotionStream>,
    relation: SourceRelation,
    params: &Params,
    cfg: &StreamDistanceConfig,
) -> Option<f64> {
    let ab = directed_distance(a, b, relation, params, cfg)?;
    let ba = directed_distance(b, a, relation, params, cfg)?;
    Some((ab + ba) * 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_db::{PatientId, StreamId, StreamMeta};
    use tsm_model::{BreathState::*, PlrTrajectory, Vertex};

    fn stream(id: u32, n: usize, amplitude: f64, period: f64) -> Arc<MotionStream> {
        let mut v = Vec::new();
        let mut t = 0.0;
        for i in 0..n {
            // Slight deterministic wobble so self-distance is not exactly 0.
            let a = amplitude * (1.0 + 0.02 * ((i % 3) as f64 - 1.0));
            v.push(Vertex::new_1d(t, a, Exhale));
            v.push(Vertex::new_1d(t + period * 0.4, 0.0, EndOfExhale));
            v.push(Vertex::new_1d(t + period * 0.6, 0.0, Inhale));
            t += period;
        }
        v.push(Vertex::new_1d(t, amplitude, Exhale));
        Arc::new(MotionStream {
            meta: StreamMeta {
                id: StreamId(id),
                patient: PatientId(0),
                session: 0,
            },
            plr: PlrTrajectory::from_vertices(v).unwrap(),
            raw_len: 0,
        })
    }

    fn cfg() -> StreamDistanceConfig {
        StreamDistanceConfig {
            len_segments: 6,
            stride: 1,
        }
    }

    fn params() -> Params {
        Params {
            k_retrieve: 5,
            ..Params::default()
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let a = stream(0, 20, 10.0, 4.0);
        let b = stream(1, 20, 13.0, 4.5);
        let p = params();
        let dab = stream_distance(&a, &b, SourceRelation::OtherPatient, &p, &cfg()).unwrap();
        let dba = stream_distance(&b, &a, SourceRelation::OtherPatient, &p, &cfg()).unwrap();
        assert!((dab - dba).abs() < 1e-12);
    }

    #[test]
    fn self_distance_is_smallest() {
        let a = stream(0, 20, 10.0, 4.0);
        let b = stream(1, 20, 14.0, 4.8);
        let p = params();
        let daa = stream_distance(&a, &a, SourceRelation::SameSession, &p, &cfg()).unwrap();
        let dab = stream_distance(&a, &b, SourceRelation::OtherPatient, &p, &cfg()).unwrap();
        assert!(daa < dab, "self {daa} vs other {dab}");
    }

    #[test]
    fn closer_breathing_means_smaller_distance() {
        let a = stream(0, 20, 10.0, 4.0);
        let near = stream(1, 20, 11.0, 4.1);
        let far = stream(2, 20, 20.0, 6.0);
        let p = params();
        let rel = SourceRelation::OtherPatient;
        let dn = stream_distance(&a, &near, rel, &p, &cfg()).unwrap();
        let df = stream_distance(&a, &far, rel, &p, &cfg()).unwrap();
        assert!(dn < df, "near {dn} vs far {df}");
    }

    #[test]
    fn provenance_weighting_separates_tiers() {
        let a = stream(0, 20, 10.0, 4.0);
        let b = stream(1, 20, 11.0, 4.1);
        let p = params();
        let same = stream_distance(&a, &b, SourceRelation::SamePatient, &p, &cfg()).unwrap();
        let other = stream_distance(&a, &b, SourceRelation::OtherPatient, &p, &cfg()).unwrap();
        assert!(same < other);
        assert!((other / same - 0.9 / 0.3).abs() < 1e-9);
    }

    #[test]
    fn outlier_queries_are_dropped_or_distance_is_none() {
        // A long stream queried against a tiny one: fewer than k candidates
        // per state order means no valid queries at all.
        let a = stream(0, 20, 10.0, 4.0);
        let tiny = stream(1, 3, 10.0, 4.0); // 9 segments -> 4 windows of 6
        let p = params(); // k = 5 > 4
        assert_eq!(
            stream_distance(&a, &tiny, SourceRelation::OtherPatient, &p, &cfg()),
            None
        );
    }

    #[test]
    fn stride_approximates_full_enumeration() {
        let a = stream(0, 30, 10.0, 4.0);
        let b = stream(1, 30, 12.0, 4.3);
        let p = params();
        let rel = SourceRelation::OtherPatient;
        let full = stream_distance(&a, &b, rel, &p, &cfg()).unwrap();
        let strided = stream_distance(
            &a,
            &b,
            rel,
            &p,
            &StreamDistanceConfig {
                len_segments: 6,
                stride: 3,
            },
        )
        .unwrap();
        assert!(
            (full - strided).abs() < 0.25 * full + 0.05,
            "stride diverged: {full} vs {strided}"
        );
    }

    #[test]
    fn too_short_streams_yield_none() {
        let a = stream(0, 20, 10.0, 4.0);
        let b = stream(1, 1, 10.0, 4.0);
        let p = params();
        assert_eq!(
            stream_distance(&a, &b, SourceRelation::OtherPatient, &p, &cfg()),
            None
        );
    }
}
