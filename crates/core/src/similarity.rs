//! The weighted subsequence similarity measure (paper Definition 2).
//!
//! Two subsequences of the same length are similar iff
//!
//! 1. their **state orders are identical** — similar motion must mean the
//!    same physiological actions; and
//! 2. their weighted distance is at most δ.
//!
//! The distance is *model-based* (it runs on PLR segments, not raw
//! samples), *multi-layer* (amplitude and frequency features per segment),
//! *weighted* (per-vertex recency weights `wi`, per-source weights `ws`)
//! and *parametric* (`wa`, `wf`, `wi`, `ws` are all knobs — see
//! [`crate::params::Params`]).
//!
//! Concretely, for query `Q` and candidate `C` with segments `1..=n`:
//!
//! ```text
//!                  Σ_i  wi(i) · ( wa·|ΔA_Q,i − ΔA_C,i|  +  wf·|T_Q,i − T_C,i| )
//! d(Q, C)  =  ───────────────────────────────────────────────────────────────────
//!                                 ws(relation) · Σ_i wi(i)
//! ```
//!
//! * `ΔA` is the *signed displacement* of a segment along the
//!   classification axis, so the distance is insensitive to offset
//!   translation (baseline shift) by construction;
//! * `T` is the segment duration — the frequency feature;
//! * normalizing by `Σ wi` makes the distance a per-segment average, so
//!   one threshold δ works across the dynamic query lengths of
//!   Section 4.1;
//! * dividing by `ws` makes candidates from less-trusted sources look
//!   farther away: the same raw deviation from another patient's stream
//!   (ws = 0.3) reads as 3.3× the distance of a same-session candidate
//!   (ws = 1.0), exactly the preference ordering the paper wants.
//!
//! The *offline* variant ([`offline_distance`]) sets every `wi` to 1 —
//! with no "current time" there is no recency to prefer (Section 5).
//!
//! [`online_distance`] is the oracle. The matcher scores windows through
//! [`QueryCols`] and one exact columnar scorer,
//! [`BatchScorer::rescore_exact`](crate::batch::BatchScorer::rescore_exact),
//! which computes each term with this module's expression and returns
//! bit-identical distances.

use crate::params::Params;
use tsm_db::SourceRelation;
use tsm_model::{Position, Segment, Vertex};

/// The per-vertex recency weight `wi` for segment `i` of `n` (0-based).
///
/// Rises linearly from `wi_base` at the oldest segment to 1.0 at the most
/// recent: "the nearer the vertex is to the end of the subsequence, the
/// higher weight it has".
#[inline]
pub fn vertex_weight(params: &Params, i: usize, n: usize) -> f64 {
    debug_assert!(i < n);
    if n <= 1 {
        return 1.0;
    }
    params.wi_base + (1.0 - params.wi_base) * (i as f64) / ((n - 1) as f64)
}

/// Checks Definition 2's condition 1: identical state orders.
pub fn same_state_order(query: &[Vertex], candidate: &[Vertex]) -> bool {
    query.len() == candidate.len()
        && query.len() >= 2
        && query[..query.len() - 1]
            .iter()
            .zip(&candidate[..candidate.len() - 1])
            .all(|(q, c)| q.state == c.state)
}

/// Raw weighted distance with explicit vertex weights; `None` when the
/// state orders differ or the windows are degenerate.
fn weighted_distance(
    query: &[Vertex],
    candidate: &[Vertex],
    params: &Params,
    relation: SourceRelation,
    use_vertex_weights: bool,
) -> Option<f64> {
    if !same_state_order(query, candidate) {
        return None;
    }
    let n = query.len() - 1;
    let axis = params.axis;
    let mut num = 0.0;
    let mut wsum = 0.0;
    for i in 0..n {
        let qs = Segment::between(&query[i], &query[i + 1]);
        let cs = Segment::between(&candidate[i], &candidate[i + 1]);
        let amp_diff = match params.amplitude_metric {
            crate::params::AmplitudeMetric::Axis => {
                (qs.displacement(axis) - cs.displacement(axis)).abs()
            }
            crate::params::AmplitudeMetric::Spatial => {
                let dq = qs.end_position - qs.start_position;
                let dc = cs.end_position - cs.start_position;
                (dq - dc).norm()
            }
        };
        let freq_diff = (qs.duration() - cs.duration()).abs();
        let wi = if use_vertex_weights {
            vertex_weight(params, i, n)
        } else {
            1.0
        };
        num += wi * (params.wa * amp_diff + params.wf * freq_diff);
        wsum += wi;
    }
    let ws = params.ws(relation);
    Some(num / (wsum * ws))
}

/// The online subsequence distance (Definition 2): recency-weighted,
/// source-weighted, per-segment-normalized. `None` when the state orders
/// differ.
pub fn online_distance(
    query: &[Vertex],
    candidate: &[Vertex],
    params: &Params,
    relation: SourceRelation,
) -> Option<f64> {
    weighted_distance(query, candidate, params, relation, true)
}

/// The offline subsequence distance (Section 5): the online distance with
/// every vertex weight set to 1 (there is no "current time" offline).
/// Source weights still apply.
pub fn offline_distance(
    query: &[Vertex],
    candidate: &[Vertex],
    params: &Params,
    relation: SourceRelation,
) -> Option<f64> {
    weighted_distance(query, candidate, params, relation, false)
}

/// Safety factor for abandon thresholds: the exact scorer compares a
/// window's forward numerator against `bound · Σwi · ws`, while the
/// distance is the numerator divided by `Σwi · ws`. The two roundings
/// differ by a few ULPs, so a 1e-9 relative margin guarantees a window is
/// abandoned only when its distance provably exceeds the bound.
pub(crate) const ABANDON_MARGIN: f64 = 1.0 + 1e-9;

/// The query side of the columnar scoring engine: per-segment features of
/// the query laid out as flat arrays, plus the precomputed recency weights.
///
/// `wsum` is accumulated in the same forward order as the naive
/// [`online_distance`] loop, so distances computed through
/// [`BatchScorer::rescore_exact`](crate::batch::BatchScorer::rescore_exact)
/// are bit-identical to the vertex-walking path.
#[derive(Debug, Clone)]
pub struct QueryCols {
    /// Per-segment breathing state, as canonical indices.
    pub states: Vec<u8>,
    /// Signed displacement of each segment along the classification axis.
    pub disp: Vec<f64>,
    /// Spatial displacement vector of each segment.
    pub dvec: Vec<Position>,
    /// Duration of each segment.
    pub dur: Vec<f64>,
    /// Recency weight `wi(i)` of each segment.
    pub wi: Vec<f64>,
    /// `Σ wi`, accumulated in canonical forward order.
    pub wsum: f64,
}

impl QueryCols {
    /// Extracts the query columns from its vertices. `None` for degenerate
    /// queries (fewer than two vertices).
    pub fn build(vertices: &[Vertex], params: &Params) -> Option<Self> {
        let n = vertices.len().checked_sub(1)?;
        if n == 0 {
            return None;
        }
        let mut states = Vec::with_capacity(n);
        let mut disp = Vec::with_capacity(n);
        let mut dvec = Vec::with_capacity(n);
        let mut dur = Vec::with_capacity(n);
        let mut wi = Vec::with_capacity(n);
        let mut wsum = 0.0f64;
        for (i, w) in vertices.windows(2).enumerate() {
            let s = Segment::between(&w[0], &w[1]);
            states.push(s.state.index() as u8);
            disp.push(s.displacement(params.axis));
            dvec.push(s.end_position - s.start_position);
            dur.push(s.duration());
            let weight = vertex_weight(params, i, n);
            wi.push(weight);
            wsum += weight;
        }
        Some(QueryCols {
            states,
            disp,
            dvec,
            dur,
            wi,
            wsum,
        })
    }

    /// Number of query segments.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always false (degenerate queries cannot be constructed).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_model::BreathState::*;

    fn cycle(t0: f64, amplitude: f64, period: f64, baseline: f64) -> Vec<Vertex> {
        vec![
            Vertex::new_1d(t0, baseline + amplitude, Exhale),
            Vertex::new_1d(t0 + period * 0.4, baseline, EndOfExhale),
            Vertex::new_1d(t0 + period * 0.6, baseline, Inhale),
            Vertex::new_1d(t0 + period, baseline + amplitude, Exhale),
        ]
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let p = Params::default();
        let a = cycle(0.0, 10.0, 4.0, 0.0);
        let d = online_distance(&a, &a, &p, SourceRelation::SameSession).unwrap();
        assert_eq!(d, 0.0);
        assert!(d <= p.delta, "an identical window must be similar");
    }

    #[test]
    fn distance_is_symmetric_within_a_relation() {
        let p = Params::default();
        let a = cycle(0.0, 10.0, 4.0, 0.0);
        let b = cycle(100.0, 12.0, 4.5, 2.0);
        let dab = online_distance(&a, &b, &p, SourceRelation::SamePatient).unwrap();
        let dba = online_distance(&b, &a, &p, SourceRelation::SamePatient).unwrap();
        assert!((dab - dba).abs() < 1e-12);
    }

    #[test]
    fn offset_translation_insensitive() {
        let p = Params::default();
        let a = cycle(0.0, 10.0, 4.0, 0.0);
        let b = cycle(50.0, 10.0, 4.0, 25.0); // same shape, huge baseline shift
        let d = online_distance(&a, &b, &p, SourceRelation::SameSession).unwrap();
        assert!(d < 1e-12, "baseline shift leaked into distance: {d}");
    }

    #[test]
    fn state_order_gate() {
        let p = Params::default();
        let a = cycle(0.0, 10.0, 4.0, 0.0);
        let mut b = cycle(0.0, 10.0, 4.0, 0.0);
        b[1].state = Irregular;
        assert_eq!(
            online_distance(&a, &b, &p, SourceRelation::SameSession),
            None
        );
        // Different lengths gate too.
        assert_eq!(
            online_distance(&a, &a[..3], &p, SourceRelation::SameSession),
            None
        );
        // Degenerate windows gate.
        assert_eq!(
            online_distance(&a[..1], &a[..1], &p, SourceRelation::SameSession),
            None
        );
    }

    #[test]
    fn source_weight_orders_the_tiers() {
        let p = Params::default();
        let a = cycle(0.0, 10.0, 4.0, 0.0);
        let b = cycle(0.0, 12.0, 4.2, 0.0);
        let d_sess = online_distance(&a, &b, &p, SourceRelation::SameSession).unwrap();
        let d_pat = online_distance(&a, &b, &p, SourceRelation::SamePatient).unwrap();
        let d_oth = online_distance(&a, &b, &p, SourceRelation::OtherPatient).unwrap();
        assert!(d_sess < d_pat && d_pat < d_oth);
        assert!((d_pat / d_sess - 1.0 / 0.9).abs() < 1e-9);
        assert!((d_oth / d_sess - 1.0 / 0.3).abs() < 1e-9);
    }

    #[test]
    fn amplitude_counts_more_than_frequency() {
        let p = Params::default();
        let a = cycle(0.0, 10.0, 4.0, 0.0);
        // 1 mm of amplitude deviation per segment...
        let amp_dev = cycle(0.0, 11.0, 4.0, 0.0);
        // ...vs 1 s of duration deviation overall.
        let freq_dev = cycle(0.0, 10.0, 5.0, 0.0);
        let da = online_distance(&a, &amp_dev, &p, SourceRelation::SameSession).unwrap();
        let df = online_distance(&a, &freq_dev, &p, SourceRelation::SameSession).unwrap();
        assert!(da > df, "amplitude {da} vs frequency {df}");
    }

    #[test]
    fn recency_weighting_prefers_matching_tails() {
        let p = Params::default();
        // Two cycles; query deviates from candidate A early, from candidate
        // B late, by the same amount.
        let mut q = cycle(0.0, 10.0, 4.0, 0.0);
        q.extend(cycle(4.0, 10.0, 4.0, 0.0).into_iter().skip(1));
        let mut early = q.clone();
        early[0] = Vertex::new_1d(0.0, 13.0, Exhale); // first segment off
        let mut late = q.clone();
        let last = late.len() - 1;
        late[last] = Vertex::new_1d(8.0, 13.0, Exhale); // last segment off
        let de = online_distance(&q, &early, &p, SourceRelation::SameSession).unwrap();
        let dl = online_distance(&q, &late, &p, SourceRelation::SameSession).unwrap();
        assert!(
            dl > de,
            "recent deviation {dl} should cost more than old deviation {de}"
        );
        // Offline, both deviations cost the same.
        let de_off = offline_distance(&q, &early, &p, SourceRelation::SameSession).unwrap();
        let dl_off = offline_distance(&q, &late, &p, SourceRelation::SameSession).unwrap();
        assert!((de_off - dl_off).abs() < 1e-12);
    }

    #[test]
    fn vertex_weight_shape() {
        let p = Params::default();
        let n = 9;
        assert_eq!(vertex_weight(&p, 0, n), 0.8);
        assert_eq!(vertex_weight(&p, n - 1, n), 1.0);
        for i in 1..n {
            assert!(vertex_weight(&p, i, n) > vertex_weight(&p, i - 1, n));
        }
        assert_eq!(vertex_weight(&p, 0, 1), 1.0);
    }

    #[test]
    fn spatial_metric_sees_off_axis_motion() {
        use crate::params::AmplitudeMetric;
        use tsm_model::Position;
        let mk = |lateral: f64| -> Vec<Vertex> {
            vec![
                Vertex::new(0.0, Position::new_2d(10.0, 0.0), Exhale),
                Vertex::new(1.6, Position::new_2d(0.0, lateral), EndOfExhale),
                Vertex::new(2.4, Position::new_2d(0.0, lateral), Inhale),
                Vertex::new(4.0, Position::new_2d(10.0, 0.0), Exhale),
            ]
        };
        let a = mk(0.0);
        let b = mk(6.0); // identical on axis 0, very different laterally
        let axis_params = Params::default();
        let spatial_params = Params {
            amplitude_metric: AmplitudeMetric::Spatial,
            ..Params::default()
        };
        let d_axis = online_distance(&a, &b, &axis_params, SourceRelation::SameSession).unwrap();
        let d_spatial =
            online_distance(&a, &b, &spatial_params, SourceRelation::SameSession).unwrap();
        assert!(d_axis < 1e-12, "axis metric should be blind here: {d_axis}");
        assert!(
            d_spatial > 1.0,
            "spatial metric missed lateral motion: {d_spatial}"
        );
        // For purely 1-D-differing windows the two metrics agree.
        let c = vec![
            Vertex::new(0.0, Position::new_2d(12.0, 0.0), Exhale),
            Vertex::new(1.6, Position::new_2d(0.0, 0.0), EndOfExhale),
            Vertex::new(2.4, Position::new_2d(0.0, 0.0), Inhale),
            Vertex::new(4.0, Position::new_2d(12.0, 0.0), Exhale),
        ];
        let da = online_distance(&a, &c, &axis_params, SourceRelation::SameSession).unwrap();
        let ds = online_distance(&a, &c, &spatial_params, SourceRelation::SameSession).unwrap();
        assert!((da - ds).abs() < 1e-12);
    }

    #[test]
    fn normalization_makes_length_comparable() {
        let p = Params::default();
        // One cycle with a fixed per-segment deviation...
        let q1 = cycle(0.0, 10.0, 4.0, 0.0);
        let c1 = cycle(0.0, 11.0, 4.0, 0.0);
        // ...and three cycles with the same per-segment deviation.
        let mut q3 = cycle(0.0, 10.0, 4.0, 0.0);
        q3.extend(cycle(4.0, 10.0, 4.0, 0.0).into_iter().skip(1));
        q3.extend(cycle(8.0, 10.0, 4.0, 0.0).into_iter().skip(1));
        let mut c3 = cycle(0.0, 11.0, 4.0, 0.0);
        c3.extend(cycle(4.0, 11.0, 4.0, 0.0).into_iter().skip(1));
        c3.extend(cycle(8.0, 11.0, 4.0, 0.0).into_iter().skip(1));
        let d1 = offline_distance(&q1, &c1, &p, SourceRelation::SameSession).unwrap();
        let d3 = offline_distance(&q3, &c3, &p, SourceRelation::SameSession).unwrap();
        assert!(
            (d1 - d3).abs() < 1e-9,
            "per-segment normalization broken: {d1} vs {d3}"
        );
    }
}
