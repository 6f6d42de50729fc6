//! A Euclidean-matching pipeline: the paper's matcher with the PLR-feature
//! distance swapped for (weighted) Euclidean distance on resampled values.
//!
//! Used by the Figure 6 experiment: "the weighted distance function
//! outperforms the corresponding weighted Euclidean distance function".
//! Candidate enumeration, the self-overlap exclusion and the prediction
//! formula are identical to [`tsm_core::matcher::Matcher`] — only the
//! distance (and the absence of the state-order gate, which Euclidean
//! distance has no analogue for) differ, so the comparison isolates the
//! measure itself.

use crate::euclidean::window_euclidean;
use tsm_core::matcher::{MatchResult, QuerySubseq};
use tsm_core::params::Params;
use tsm_db::{SharedStore, SourceRelation, StreamStore, SubseqRef, SubseqView};

/// Configuration of the Euclidean matcher.
#[derive(Debug, Clone)]
pub struct EuclideanMatcherConfig {
    /// Resampling resolution per window.
    pub samples_per_window: usize,
    /// Distance threshold (mm RMS after mean-centering).
    pub delta: f64,
    /// Recency weight base (1.0 = unweighted).
    pub weight_base: f64,
    /// Whether to honour the source-stream tiers (dividing distance by
    /// `ws` as the PLR measure does).
    pub use_stream_weights: bool,
}

impl Default for EuclideanMatcherConfig {
    fn default() -> Self {
        EuclideanMatcherConfig {
            samples_per_window: 32,
            delta: 3.0,
            weight_base: 0.8,
            use_stream_weights: true,
        }
    }
}

/// The Euclidean baseline matcher.
#[derive(Debug, Clone)]
pub struct EuclideanMatcher {
    store: SharedStore,
    params: Params,
    config: EuclideanMatcherConfig,
}

impl EuclideanMatcher {
    /// Creates the matcher. `params` supplies the axis, source weights and
    /// `min_matches`; `config` the Euclidean-specific knobs. The store is
    /// a shared handle — pass an existing `Arc<StreamStore>` to search the
    /// same database as the core matchers without another wrapper.
    pub fn new(
        store: impl Into<SharedStore>,
        params: Params,
        config: EuclideanMatcherConfig,
    ) -> Self {
        EuclideanMatcher {
            store: store.into(),
            params,
            config,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &StreamStore {
        &self.store
    }

    /// Finds candidate windows (same segment count as the query) within
    /// the Euclidean threshold, sorted by distance.
    pub fn find_matches(&self, query: &QuerySubseq) -> Vec<MatchResult> {
        let n = query.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for stream in self.store.streams().iter() {
            let nseg = stream.plr.num_segments();
            if nseg < n {
                continue;
            }
            for start in 0..=(nseg - n) {
                let r = SubseqRef::new(stream.meta.id, start, n);
                let Some(view) = SubseqView::new(stream.clone(), r) else {
                    continue;
                };
                // Self-overlap exclusion, as in the PLR matcher.
                if query.origin_stream == Some(stream.meta.id) {
                    let q_first = query.vertices.first().map(|v| v.time).unwrap_or(0.0);
                    let q_last = query.vertices.last().map(|v| v.time).unwrap_or(0.0);
                    if view.last_vertex().time > q_first && view.first_vertex().time < q_last {
                        continue;
                    }
                }
                let relation = match query.origin {
                    Some((patient, session)) => {
                        if patient != stream.meta.patient {
                            SourceRelation::OtherPatient
                        } else if session != stream.meta.session {
                            SourceRelation::SamePatient
                        } else {
                            SourceRelation::SameSession
                        }
                    }
                    None => SourceRelation::OtherPatient,
                };
                let Some(mut d) = window_euclidean(
                    &query.vertices,
                    view.vertices(),
                    self.params.axis,
                    self.config.samples_per_window,
                    self.config.weight_base,
                ) else {
                    continue;
                };
                let ws = if self.config.use_stream_weights {
                    self.params.ws(relation)
                } else {
                    1.0
                };
                d /= ws;
                if d <= self.config.delta {
                    out.push(MatchResult {
                        subseq: r,
                        distance: d,
                        ws,
                        relation,
                    });
                }
            }
        }
        out.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_core::predict::{predict_position, AlignMode};
    use tsm_db::PatientAttributes;
    use tsm_model::{BreathState::*, PlrTrajectory, Vertex};

    fn plr(n: usize, amplitude: f64) -> PlrTrajectory {
        let mut v = Vec::new();
        let mut t = 0.0;
        for _ in 0..n {
            v.push(Vertex::new_1d(t, amplitude, Exhale));
            v.push(Vertex::new_1d(t + 1.5, 0.0, EndOfExhale));
            v.push(Vertex::new_1d(t + 2.5, 0.0, Inhale));
            t += 4.0;
        }
        v.push(Vertex::new_1d(t, amplitude, Exhale));
        PlrTrajectory::from_vertices(v).unwrap()
    }

    fn setup() -> (StreamStore, tsm_db::StreamId) {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let id = store.add_stream(p, 0, plr(10, 10.0), 1000);
        store.add_stream(p, 1, plr(10, 30.0), 1000); // very different
        (store, id)
    }

    #[test]
    fn finds_shape_matches_and_excludes_far_shapes() {
        let (store, id) = setup();
        let m = EuclideanMatcher::new(
            store.clone(),
            Params::default(),
            EuclideanMatcherConfig::default(),
        );
        let view = store.resolve(SubseqRef::new(id, 0, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let matches = m.find_matches(&q);
        assert!(!matches.is_empty());
        assert!(matches.iter().all(|r| r.subseq.stream == id));
        for w in matches.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn predictions_compose_with_core_predictor() {
        let (store, id) = setup();
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let m = EuclideanMatcher::new(
            store.clone(),
            params.clone(),
            EuclideanMatcherConfig::default(),
        );
        let view = store.resolve(SubseqRef::new(id, 12, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let matches = m.find_matches(&q);
        assert!(!matches.is_empty());
        let p =
            predict_position(&store, &q, &matches, 0.3, &params, AlignMode::FirstVertex).unwrap();
        let truth = store
            .stream(id)
            .unwrap()
            .plr
            .position_at(q.vertices.last().unwrap().time + 0.3);
        assert!((p[0] - truth[0]).abs() < 1.0, "{} vs {}", p[0], truth[0]);
    }

    #[test]
    fn no_state_order_gate() {
        // The Euclidean matcher happily matches windows whose state orders
        // differ — that is precisely its weakness.
        let (store, id) = setup();
        let m = EuclideanMatcher::new(
            store.clone(),
            Params::default(),
            EuclideanMatcherConfig {
                delta: 100.0,
                ..Default::default()
            },
        );
        let view = store.resolve(SubseqRef::new(id, 0, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let matches = m.find_matches(&q);
        let mut saw_out_of_phase = false;
        for r in &matches {
            if r.subseq.stream == id && r.subseq.start % 3 != 0 {
                saw_out_of_phase = true;
            }
        }
        assert!(saw_out_of_phase, "expected phase-shifted matches");
    }
}
