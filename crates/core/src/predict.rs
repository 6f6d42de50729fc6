//! Online motion prediction from retrieved matches (paper Section 4.3).
//!
//! "The immediate future of a historical subsequence is known. By matching
//! a current query subsequence with a similar historical subsequence, one
//! can predict that the future of the query subsequence will be similar to
//! that of the historical subsequence."
//!
//! The position after `Δt` is the source-weighted mean of the retrieved
//! subsequences' futures, offset-translated onto the query:
//!
//! ```text
//! p̂(Δt) = p_q,align + Σ_j ws_j · (p_j(Δt) − p_j,align) / Σ_j ws_j
//! ```
//!
//! The paper aligns at the **first** vertex of each subsequence; this
//! module also offers last-vertex alignment as an ablation (aligning at
//! the most recent shared point is less exposed to baseline drift across
//! the window — the `predict_alignment` bench quantifies the difference).
//!
//! A mean does not depend on the order of its terms, but a floating-point
//! sum does, so [`predict_position`] fixes one: it sums the votes in
//! store order, ascending `(stream, start)`. The vote then depends only
//! on which matches it gets. The online path hands it the matches in that
//! order
//! ([`crate::index_cache::CachedMatcher::find_matches_in_store_order`]),
//! so its reads walk the store forward; a ranked list is sorted into a
//! copy first.

use crate::matcher::{store_key, MatchResult, QuerySubseq};
use crate::params::Params;
use std::borrow::Cow;
use std::sync::Arc;
use tsm_db::{MotionStream, StreamStore, SubseqRef};
use tsm_model::{Position, Vertex};

/// Which vertex the candidate futures are offset-aligned at.
///
/// The paper's formula aligns at the **first** vertex. Empirically (see
/// the `prediction` bench and EXPERIMENTS.md) first-vertex alignment
/// carries a flat reconstruction-error floor — baseline drift across the
/// multi-cycle query span leaks into every prediction — while last-vertex
/// alignment anchors at the shared "current time" point, has zero error
/// at `dt = 0`, and reproduces the paper's reported error-vs-latency
/// growth shape. This crate therefore defaults to `LastVertex` and keeps
/// `FirstVertex` as the paper-faithful ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignMode {
    /// Paper-faithful: align at the first vertex of each subsequence.
    FirstVertex,
    /// Default: align at the last vertex (the "current time" point).
    #[default]
    LastVertex,
}

/// Predicts the position `dt` seconds after the query's last vertex.
///
/// The votes are summed in store order, ascending `(stream, start)`, so
/// any order of a search's matches gives the bit-identical prediction.
/// Matches already in that order are read in place; others are sorted
/// into a copy.
///
/// Returns `None` when fewer than `params.min_matches` matches are
/// supplied ("we predict only if there are a certain number of retrieved
/// subsequences") or when a match's stream has vanished from the store.
pub fn predict_position(
    store: &StreamStore,
    query: &QuerySubseq,
    matches: &[MatchResult],
    dt: f64,
    params: &Params,
    align: AlignMode,
) -> Option<Position> {
    if query.vertices.len() < 2 || matches.len() < params.min_matches {
        return None;
    }
    let q_anchor = match align {
        AlignMode::FirstVertex => query.vertices.first()?.position,
        AlignMode::LastVertex => query.vertices.last()?.position,
    };
    let matches = in_store_order(matches);
    let streams = store.streams();
    let mut acc = Position::zero(q_anchor.dim());
    let mut wsum = 0.0;
    let mut voters = 0usize;
    for m in matches.iter() {
        let (stream, window) = resolve(&streams, m.subseq)?;
        let (first, last) = (window.first()?, window.last()?);
        // "The immediate future of a historical subsequence is known" —
        // but only if the stream actually extends dt beyond the window.
        // Candidates at a stream's tail would vote with extrapolation
        // artifacts; skip them.
        if last.time + dt > stream.plr.end_time() {
            continue;
        }
        let c_anchor = match align {
            AlignMode::FirstVertex => first.position,
            AlignMode::LastVertex => last.position,
        };
        // The future lies a few segments past the window's last vertex:
        // step there from that vertex rather than search the stream.
        let last_index = m.subseq.start as usize + m.subseq.len as usize;
        let future = stream.plr.position_after(last_index, last.time + dt);
        acc = acc + (future - c_anchor) * m.ws;
        wsum += m.ws;
        voters += 1;
    }
    if wsum <= 0.0 || voters < params.min_matches {
        return None;
    }
    Some(q_anchor + acc * (1.0 / wsum))
}

/// `matches` in store order: as given when they already are, else a
/// sorted copy.
fn in_store_order(matches: &[MatchResult]) -> Cow<'_, [MatchResult]> {
    if matches
        .windows(2)
        .all(|w| store_key(&w[0]) <= store_key(&w[1]))
    {
        return Cow::Borrowed(matches);
    }
    let mut sorted = matches.to_vec();
    sorted.sort_by_key(store_key);
    Cow::Owned(sorted)
}

/// Resolves `r` against `streams`, one snapshot of the store's stream
/// table (indexed by stream id), by the rule of [`StreamStore::resolve`]:
/// `None` when the stream is missing or the window does not fit in it.
/// Otherwise returns the stream and the window's `len + 1` vertices.
///
/// The votes below resolve thousands of matches per call; one
/// [`StreamStore::streams`] snapshot (a single `Arc` clone) replaces a
/// store lock and an `Arc` clone per match.
fn resolve(streams: &[Arc<MotionStream>], r: SubseqRef) -> Option<(&MotionStream, &[Vertex])> {
    let stream = streams.get(r.stream.0 as usize)?;
    let (start, len) = (r.start as usize, r.len as usize);
    if len == 0 {
        return None;
    }
    let window = stream.plr.vertices().get(start..=start + len)?;
    Some((stream, window))
}

/// Predicts the position at `t_last_vertex + dt` **anchored on a fresh
/// raw observation**: the matched subsequences vote only on the
/// *displacement* between `t_last_vertex + dt_anchor` (when
/// `anchor_position` was observed) and `t_last_vertex + dt`, and that
/// displacement is applied to the observation.
///
/// This matters in deployment: the PLR's last vertex lags real time by up
/// to a segment length, so [`predict_position`] must bridge both the
/// system latency *and* the segmentation delay from an old anchor. The
/// tracking system, however, always has a raw position sample from just
/// `latency` ago — anchoring the matched displacement there removes the
/// accumulated drift (the gating experiment quantifies the difference).
#[allow(clippy::too_many_arguments)] // mirrors predict_position plus the anchor pair
pub fn predict_position_anchored(
    store: &StreamStore,
    query: &QuerySubseq,
    matches: &[MatchResult],
    dt_anchor: f64,
    anchor_position: Position,
    dt: f64,
    params: &Params,
    align: AlignMode,
) -> Option<Position> {
    let at_anchor = predict_position(store, query, matches, dt_anchor, params, align)?;
    let at_target = predict_position(store, query, matches, dt, params, align)?;
    Some(anchor_position + (at_target - at_anchor))
}

/// Predicts the duration of the query's next breathing cycle: the
/// source-weighted mean of the matched subsequences' next-cycle durations
/// (Section 4.3: "future frequency, amplitude or position can be
/// predicted ... prediction of the other future characteristics is
/// analogous"). Matches whose stream ends too soon after the window are
/// skipped; returns `None` if none remain.
pub fn predict_next_cycle_duration(
    store: &StreamStore,
    matches: &[MatchResult],
    params: &Params,
) -> Option<f64> {
    if matches.len() < params.min_matches {
        return None;
    }
    let streams = store.streams();
    let mut acc = 0.0;
    let mut wsum = 0.0;
    for m in matches {
        let Some((stream, _)) = resolve(&streams, m.subseq) else {
            continue;
        };
        // The next full cycle after the window: 3 more segments.
        let next_start = m.subseq.start as usize + m.subseq.len as usize;
        let v = stream.plr.vertices();
        if next_start + 3 < v.len() {
            acc += m.ws * (v[next_start + 3].time - v[next_start].time);
            wsum += m.ws;
        }
    }
    (wsum > 0.0).then(|| acc / wsum)
}

/// Predicts the peak-to-trough amplitude of the query's next breathing
/// cycle: the source-weighted mean of the matched subsequences' next-cycle
/// amplitudes along `params.axis` (Section 4.3's "future frequency,
/// amplitude or position"). Returns `None` when no match has a full cycle
/// of stored future.
pub fn predict_next_cycle_amplitude(
    store: &StreamStore,
    matches: &[MatchResult],
    params: &Params,
) -> Option<f64> {
    if matches.len() < params.min_matches {
        return None;
    }
    let axis = params.axis;
    let streams = store.streams();
    let mut acc = 0.0;
    let mut wsum = 0.0;
    for m in matches {
        let Some((stream, _)) = resolve(&streams, m.subseq) else {
            continue;
        };
        let next_start = m.subseq.start as usize + m.subseq.len as usize;
        let v = stream.plr.vertices();
        if next_start + 3 < v.len() {
            let window = &v[next_start..=next_start + 3];
            let lo = window
                .iter()
                .map(|x| x.position[axis])
                .fold(f64::INFINITY, f64::min);
            let hi = window
                .iter()
                .map(|x| x.position[axis])
                .fold(f64::NEG_INFINITY, f64::max);
            acc += m.ws * (hi - lo);
            wsum += m.ws;
        }
    }
    (wsum > 0.0).then(|| acc / wsum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Matcher;
    use tsm_db::{PatientAttributes, SubseqRef};
    use tsm_model::{BreathState::*, PlrTrajectory, Vertex};

    fn plr(n: usize, amplitude: f64, baseline: f64) -> PlrTrajectory {
        let mut v = Vec::new();
        let mut t = 0.0;
        for _ in 0..n {
            v.push(Vertex::new_1d(t, baseline + amplitude, Exhale));
            v.push(Vertex::new_1d(t + 1.5, baseline, EndOfExhale));
            v.push(Vertex::new_1d(t + 2.5, baseline, Inhale));
            t += 4.0;
        }
        v.push(Vertex::new_1d(t, baseline + amplitude, Exhale));
        PlrTrajectory::from_vertices(v).unwrap()
    }

    fn setup() -> (StreamStore, tsm_db::StreamId) {
        let store = StreamStore::new();
        let p0 = store.add_patient(PatientAttributes::new());
        let id = store.add_stream(p0, 0, plr(10, 10.0, 0.0), 1000);
        (store, id)
    }

    #[test]
    fn prediction_tracks_periodic_future() {
        let (store, id) = setup();
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let m = Matcher::new(store.clone(), params.clone());
        // Query: segments 12..21 (4 cycles in, ends at a cycle boundary).
        let view = store.resolve(SubseqRef::new(id, 12, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let matches = m.find_matches(&q);
        assert!(!matches.is_empty());
        let truth_stream = store.stream(id).unwrap();
        let t_last = q.vertices.last().unwrap().time;
        for dt in [0.1, 0.3, 0.5, 1.0] {
            let p = predict_position(&store, &q, &matches, dt, &params, AlignMode::FirstVertex)
                .unwrap();
            let truth = truth_stream.plr.position_at(t_last + dt);
            assert!(
                (p[0] - truth[0]).abs() < 0.8,
                "dt {dt}: predicted {} vs truth {}",
                p[0],
                truth[0]
            );
        }
    }

    #[test]
    fn min_matches_gate() {
        let (store, id) = setup();
        let params = Params {
            min_matches: 1000,
            ..Params::default()
        };
        let m = Matcher::new(store.clone(), Params::default());
        let view = store.resolve(SubseqRef::new(id, 12, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let matches = m.find_matches(&q);
        assert_eq!(
            predict_position(&store, &q, &matches, 0.3, &params, AlignMode::FirstVertex),
            None
        );
    }

    #[test]
    fn alignment_modes_agree_without_baseline_drift() {
        let (store, id) = setup();
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let m = Matcher::new(store.clone(), params.clone());
        let view = store.resolve(SubseqRef::new(id, 12, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let matches = m.find_matches(&q);
        let a =
            predict_position(&store, &q, &matches, 0.3, &params, AlignMode::FirstVertex).unwrap();
        let b =
            predict_position(&store, &q, &matches, 0.3, &params, AlignMode::LastVertex).unwrap();
        assert!((a[0] - b[0]).abs() < 0.8, "{} vs {}", a[0], b[0]);
    }

    #[test]
    fn baseline_shifted_matches_still_predict_correctly() {
        // Patient history contains the same pattern at a shifted baseline;
        // offset translation must absorb the shift.
        let store = StreamStore::new();
        let p0 = store.add_patient(PatientAttributes::new());
        let hist = store.add_stream(p0, 0, plr(10, 10.0, 20.0), 1000);
        let live = store.add_stream(p0, 0, plr(6, 10.0, 0.0), 600);
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let m = Matcher::new(store.clone(), params.clone());
        let view = store.resolve(SubseqRef::new(live, 6, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let matches = m.find_matches(&q);
        // Matches from the shifted history stream exist.
        assert!(matches.iter().any(|r| r.subseq.stream == hist));
        let t_last = q.vertices.last().unwrap().time;
        let truth = store.stream(live).unwrap().plr.position_at(t_last + 0.5);
        let p =
            predict_position(&store, &q, &matches, 0.5, &params, AlignMode::FirstVertex).unwrap();
        assert!(
            (p[0] - truth[0]).abs() < 0.8,
            "baseline shift leaked: {} vs {}",
            p[0],
            truth[0]
        );
    }

    #[test]
    fn anchored_prediction_follows_the_anchor() {
        let (store, id) = setup();
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let m = Matcher::new(store.clone(), params.clone());
        let view = store.resolve(SubseqRef::new(id, 12, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let matches = m.find_matches(&q);
        let t_last = q.vertices.last().unwrap().time;
        let truth_stream = store.stream(id).unwrap();

        // A perfect anchor at dt_anchor: the anchored prediction at
        // dt reproduces the truth as well as (or better than) the
        // unanchored one.
        let dt_anchor = 0.1;
        let dt = 0.4;
        let anchor = truth_stream.plr.position_at(t_last + dt_anchor);
        let anchored = predict_position_anchored(
            &store,
            &q,
            &matches,
            dt_anchor,
            anchor,
            dt,
            &params,
            AlignMode::LastVertex,
        )
        .unwrap();
        let truth = truth_stream.plr.position_at(t_last + dt);
        assert!(
            (anchored[0] - truth[0]).abs() < 0.8,
            "anchored {} vs truth {}",
            anchored[0],
            truth[0]
        );

        // A shifted anchor shifts the prediction by exactly the shift
        // (the matched displacement is anchor-independent).
        let shifted = predict_position_anchored(
            &store,
            &q,
            &matches,
            dt_anchor,
            anchor + Position::new_1d(5.0),
            dt,
            &params,
            AlignMode::LastVertex,
        )
        .unwrap();
        assert!((shifted[0] - anchored[0] - 5.0).abs() < 1e-9);

        // dt == dt_anchor returns the anchor itself.
        let same = predict_position_anchored(
            &store,
            &q,
            &matches,
            dt,
            anchor,
            dt,
            &params,
            AlignMode::LastVertex,
        )
        .unwrap();
        assert!((same[0] - anchor[0]).abs() < 1e-12);
    }

    #[test]
    fn next_cycle_duration_prediction() {
        let (store, id) = setup();
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let m = Matcher::new(store.clone(), params.clone());
        let view = store.resolve(SubseqRef::new(id, 12, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let matches = m.find_matches(&q);
        let d = predict_next_cycle_duration(&store, &matches, &params).unwrap();
        assert!((d - 4.0).abs() < 1e-9, "cycle duration {d}");
    }

    #[test]
    fn next_cycle_amplitude_prediction() {
        let (store, id) = setup();
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let m = Matcher::new(store.clone(), params.clone());
        let view = store.resolve(SubseqRef::new(id, 12, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let matches = m.find_matches(&q);
        let a = predict_next_cycle_amplitude(&store, &matches, &params).unwrap();
        assert!((a - 10.0).abs() < 1e-9, "cycle amplitude {a}");
    }

    #[test]
    fn empty_matches_yield_none() {
        let (store, id) = setup();
        let params = Params::default();
        let view = store.resolve(SubseqRef::new(id, 0, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        assert_eq!(
            predict_position(&store, &q, &[], 0.3, &params, AlignMode::FirstVertex),
            None
        );
        assert_eq!(predict_next_cycle_duration(&store, &[], &params), None);
    }
}
