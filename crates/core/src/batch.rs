//! The batched kernels of the columnar matcher, over the
//! [`tsm_db::StreamFeatures`] columns:
//!
//! * [`BatchScorer::match_mask`] runs the state-order gate over the
//!   **whole stream** at once (one query state against every window
//!   offset per pass — the classic transposed substring filter), so the
//!   two thirds of windows that fail the gate never reach any per-window
//!   code at all;
//! * [`BatchScorer::rescore_exact`] is the one exact scorer: one forward
//!   pass sums up to eight windows' numerators in f64 with the exact
//!   operation sequence of
//!   [`online_distance`](crate::similarity::online_distance), so final
//!   distances are bit-identical to the oracle's. The band survivors of
//!   both plans end here.
//!
//! Both are plain safe Rust over fixed-width arrays, which the
//! autovectorizer lowers to SIMD on stable Rust — no `std::simd`, no
//! `unsafe`.

use crate::params::{AmplitudeMetric, Params};
use crate::similarity::QueryCols;
use tsm_db::StreamFeatures;
use tsm_model::Position;

/// Candidate windows scored per batched pass.
pub const LANES: usize = 8;

/// How one lane of an exact-rescoring group fared (see
/// [`BatchScorer::rescore_exact`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RescanOutcome {
    /// Padding lane (group had fewer than [`LANES`] candidates).
    Inactive,
    /// Abandoned: the exact numerator proved the distance exceeds the
    /// caller's bound.
    Abandoned,
    /// Completed with the exact distance, bit-identical to
    /// [`online_distance`](crate::similarity::online_distance) (it may
    /// still marginally exceed the bound — callers re-check against δ).
    Scored(f64),
}

/// The batched scorer: the state-gate scratch column plus the lane
/// kernels. A search threads one through every stream it visits, so the
/// scratch allocations are reused.
#[derive(Debug, Default)]
pub struct BatchScorer {
    /// Per-window-start gate verdicts for the stream most recently passed
    /// to [`BatchScorer::match_mask`] (`0` = states match the query).
    mask: Vec<u8>,
}

impl BatchScorer {
    /// A fresh scorer.
    pub fn new() -> Self {
        BatchScorer::default()
    }

    /// The transposed state-order gate over one whole stream: entry `j`
    /// of the returned mask is `0` iff the window starting at segment `j`
    /// has exactly the query's state sequence `query_states` (its
    /// [`QueryCols::states`] column). Window starts are walked in blocks
    /// of 16; within a block the query positions run in a fixed-width
    /// inner loop (a compare-and-OR over a `[u8; 16]` register block, the
    /// autovectorizer's favorite shape), so the gate costs `n · nseg` byte
    /// ops for the *entire stream* with the per-loop setup paid once per
    /// block instead of once per query position. Requires
    /// `sf.num_segments() >= query_states.len()`.
    pub fn match_mask(&mut self, query_states: &[u8], sf: &StreamFeatures) -> &[u8] {
        const BLOCK: usize = 16;
        let total = sf.num_segments() + 1 - query_states.len();
        self.mask.clear();
        self.mask.resize(total, 0);
        let states = &sf.states;
        let mut j = 0;
        while j + BLOCK <= total {
            let mut acc = [0u8; BLOCK];
            for (i, &qs) in query_states.iter().enumerate() {
                let col = &states[j + i..j + i + BLOCK];
                for (a, &s) in acc.iter_mut().zip(col) {
                    *a |= (s != qs) as u8;
                }
            }
            self.mask[j..j + BLOCK].copy_from_slice(&acc);
            j += BLOCK;
        }
        for (jj, mj) in self.mask.iter_mut().enumerate().skip(j) {
            for (i, &qs) in query_states.iter().enumerate() {
                if states[jj + i] != qs {
                    *mj = 1;
                    break;
                }
            }
        }
        &self.mask
    }

    /// Exact f64 scoring of up to eight gate-passing windows of one
    /// stream in one pass.
    ///
    /// Each lane sums its numerator in the forward order of
    /// [`online_distance`](crate::similarity::online_distance)'s loop,
    /// term by term with the same expression, so a `Scored` distance is
    /// bit-identical to the oracle's. The lanes advance together, one
    /// query segment at a time, so their additions are independent. A
    /// lane is `Abandoned` when its numerator exceeds
    /// `bound · Σwi · ws · ABANDON_MARGIN`; the margin covers the rounding
    /// of that product and of the division, so a bound equal to a
    /// window's distance never abandons it. There is no early exit: the
    /// partial sums of non-negative terms never decrease, so "some prefix
    /// exceeds the limit" and "the numerator exceeds it" are the same
    /// test, and a mid-loop check would only add branches.
    ///
    /// Callers must have state-gated the windows already (the mask pass
    /// or an index keyed by state signature does).
    #[inline]
    pub fn rescore_exact(
        &mut self,
        cols: &QueryCols,
        params: &Params,
        sf: &StreamFeatures,
        starts: &[usize],
        ws: f64,
        bound: f64,
    ) -> [RescanOutcome; LANES] {
        debug_assert!(!starts.is_empty());
        assert!(starts.len() <= LANES, "more windows than lanes");
        let n = cols.states.len();
        for &s in starts {
            debug_assert!(s + n <= sf.num_segments());
            debug_assert!(
                sf.states[s..s + n] == cols.states[..],
                "rescore_exact on a window that fails the state gate"
            );
        }
        let denom = cols.wsum * ws;
        let limit = bound * denom * crate::similarity::ABANDON_MARGIN;
        // The metric is matched here, outside the loop, so each metric
        // gets its own straight term loop.
        let num = match params.amplitude_metric {
            AmplitudeMetric::Axis => {
                let amp = (&cols.disp[..], &sf.disp[..], |q: f64, c: f64| (q - c).abs());
                Self::exact_numerators(cols, params, sf, starts, amp)
            }
            AmplitudeMetric::Spatial => {
                let amp = (&cols.dvec[..], &sf.dvec[..], |q: Position, c| {
                    (q - c).norm()
                });
                Self::exact_numerators(cols, params, sf, starts, amp)
            }
        };
        let mut out = [RescanOutcome::Inactive; LANES];
        for (o, &x) in out.iter_mut().zip(&num).take(starts.len()) {
            *o = if x > limit {
                RescanOutcome::Abandoned
            } else {
                RescanOutcome::Scored(x / denom)
            };
        }
        out
    }

    /// The term loop of [`BatchScorer::rescore_exact`]: each lane's
    /// numerator, summed forward from zero. `amp` holds the query's and
    /// the stream's amplitude columns and the metric's difference of two
    /// entries.
    #[inline(always)]
    fn exact_numerators<A: Copy>(
        cols: &QueryCols,
        params: &Params,
        sf: &StreamFeatures,
        starts: &[usize],
        (q_amp, c_amp, amp_diff): (&[A], &[A], impl Fn(A, A) -> f64),
    ) -> [f64; LANES] {
        let mut num = [0.0f64; LANES];
        let query = q_amp.iter().zip(&cols.dur).zip(&cols.wi);
        for (i, ((&qa, &qt), &wi)) in query.enumerate() {
            for (acc, &s) in num.iter_mut().zip(starts) {
                let j = s + i;
                let freq_diff = (qt - sf.dur[j]).abs();
                *acc += wi * (params.wa * amp_diff(qa, c_amp[j]) + params.wf * freq_diff);
            }
        }
        num
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::online_distance;
    use tsm_db::{MotionStream, PatientId, SourceRelation, StreamId, StreamMeta};
    use tsm_model::{BreathState, PlrTrajectory, Vertex};

    const STATES: [BreathState; 3] = [
        BreathState::Exhale,
        BreathState::EndOfExhale,
        BreathState::Inhale,
    ];

    /// The vertices of a 255-segment periodic stream and of a 9-segment
    /// query over it: two thirds of the stream's windows state-mismatch,
    /// and the rest split between amplitudes near the query and every
    /// 11th cycle far off, so a bound abandons some windows and scores
    /// others.
    fn fixture_vertices() -> (Vec<Vertex>, Vec<Vertex>) {
        let nseg = 255usize;
        let mut verts = Vec::with_capacity(nseg + 1);
        for i in 0..=nseg {
            // Deterministic pseudo-amplitudes: mostly near 8 mm (near the
            // query), every 11th cycle far off.
            let h = (i as u32).wrapping_mul(2_654_435_761) >> 22;
            let amp = if i % 11 == 0 {
                25.0 + (h % 97) as f64 * 0.1
            } else {
                8.0 + (h % 97) as f64 * 0.01
            };
            let level = if i % 2 == 0 { amp } else { 0.0 };
            verts.push(Vertex::new_1d(i as f64, level, STATES[i % 3]));
        }
        let qverts: Vec<Vertex> = (0..=9)
            .map(|j| {
                let level = if j % 2 == 0 { 8.3 } else { 0.1 };
                Vertex::new_1d(j as f64, level, STATES[j % 3])
            })
            .collect();
        (verts, qverts)
    }

    /// The feature columns of one stream with the given vertices.
    fn features_of(verts: Vec<Vertex>, params: &Params) -> StreamFeatures {
        let stream = MotionStream {
            meta: StreamMeta {
                id: StreamId(0),
                patient: PatientId(0),
                session: 0,
            },
            plr: PlrTrajectory::from_vertices(verts).unwrap(),
            raw_len: 0,
        };
        StreamFeatures::build(&stream, params.axis)
    }

    /// The fixture stream's features, the query's columns, and default
    /// parameters.
    fn fixture() -> (StreamFeatures, QueryCols, Params) {
        let params = Params::default();
        let (verts, qverts) = fixture_vertices();
        let cols = QueryCols::build(&qverts, &params).unwrap();
        (features_of(verts, &params), cols, params)
    }

    /// The starts of every gate-passing window of the fixture stream.
    fn gated_starts(
        batcher: &mut BatchScorer,
        cols: &QueryCols,
        sf: &StreamFeatures,
    ) -> Vec<usize> {
        let mask = batcher.match_mask(&cols.states, sf);
        (0..mask.len()).filter(|&j| mask[j] == 0).collect()
    }

    /// Three 2-D breathing cycles (9 segments): the amplitude grows and
    /// the end-of-exhale plateau drifts sideways by `lateral` mm per
    /// cycle, so the spatial metric sees motion the axis metric does not.
    fn cycles_2d(cycles: usize, amplitude: f64, lateral: f64) -> Vec<Vertex> {
        let mut v = Vec::new();
        for c in 0..cycles {
            let t = c as f64 * 4.0;
            let (amp, side) = (amplitude + 1.5 * c as f64, lateral * c as f64);
            v.push(Vertex::new(t, Position::new_2d(amp, 0.0), STATES[0]));
            v.push(Vertex::new(
                t + 1.6 + 0.1 * c as f64,
                Position::new_2d(0.0, side),
                STATES[1],
            ));
            v.push(Vertex::new(t + 2.4, Position::new_2d(0.0, side), STATES[2]));
        }
        v.push(Vertex::new(
            cycles as f64 * 4.0,
            Position::new_2d(amplitude, 0.0),
            STATES[0],
        ));
        v
    }

    /// Every lane's exact distance is bit-identical to the oracle's, for
    /// both amplitude metrics and every source relation, and padding
    /// lanes stay inactive.
    #[test]
    fn rescore_exact_is_bit_identical_to_online_distance() {
        let query = cycles_2d(1, 10.0, 0.0);
        let stream = cycles_2d(3, 11.5, 2.5);
        let starts = [0usize, 3, 6];
        for metric in [AmplitudeMetric::Axis, AmplitudeMetric::Spatial] {
            let params = Params {
                amplitude_metric: metric,
                ..Params::default()
            };
            let cols = QueryCols::build(&query, &params).unwrap();
            let sf = features_of(stream.clone(), &params);
            let mut scorer = BatchScorer::new();
            for relation in [
                SourceRelation::SameSession,
                SourceRelation::SamePatient,
                SourceRelation::OtherPatient,
            ] {
                let ws = params.ws(relation);
                let out = scorer.rescore_exact(&cols, &params, &sf, &starts, ws, f64::INFINITY);
                for (l, &s) in starts.iter().enumerate() {
                    let naive = online_distance(&query, &stream[s..=s + 3], &params, relation);
                    let RescanOutcome::Scored(d) = out[l] else {
                        panic!("{metric:?} {relation:?} lane {l}: {:?}", out[l]);
                    };
                    assert_eq!(
                        Some(d.to_bits()),
                        naive.map(f64::to_bits),
                        "{metric:?} lane {l}"
                    );
                }
                assert!(out[starts.len()..]
                    .iter()
                    .all(|o| *o == RescanOutcome::Inactive));
            }
        }
        // The lateral drift reaches the spatial metric only.
        let dist = |metric| {
            let params = Params {
                amplitude_metric: metric,
                ..Params::default()
            };
            online_distance(&query, &stream[6..], &params, SourceRelation::SameSession).unwrap()
        };
        assert!(dist(AmplitudeMetric::Spatial) > dist(AmplitudeMetric::Axis) + 1.0);
    }

    /// A bound below a window's distance abandons it; an unbounded
    /// rescore gives the oracle's distance, and a bound equal to that
    /// distance still scores the window (ties are never abandoned).
    #[test]
    fn rescore_exact_abandons_past_the_bound_and_scores_ties() {
        let params = Params::default();
        let query = cycles_2d(1, 10.0, 0.0);
        let far = cycles_2d(1, 40.0, 0.0);
        let cols = QueryCols::build(&query, &params).unwrap();
        let sf = features_of(far.clone(), &params);
        let mut scorer = BatchScorer::new();
        let out = scorer.rescore_exact(&cols, &params, &sf, &[0], 1.0, 0.5);
        assert_eq!(out[0], RescanOutcome::Abandoned);
        let RescanOutcome::Scored(exact) =
            scorer.rescore_exact(&cols, &params, &sf, &[0], 1.0, f64::INFINITY)[0]
        else {
            panic!("unbounded rescore abandoned");
        };
        let naive = online_distance(&query, &far, &params, SourceRelation::SameSession).unwrap();
        assert_eq!(exact.to_bits(), naive.to_bits());
        assert!(exact > 0.5);
        let at_bound = scorer.rescore_exact(&cols, &params, &sf, &[0], 1.0, exact);
        assert_eq!(at_bound[0], RescanOutcome::Scored(exact));
    }

    /// The whole-stream gate agrees with a direct per-window compare.
    #[test]
    fn match_mask_equals_per_window_compare() {
        let (sf, cols, _) = fixture();
        let n = cols.len();
        let total = sf.num_segments() - n + 1;
        let mut batcher = BatchScorer::new();
        let mask = batcher.match_mask(&cols.states, &sf);
        assert_eq!(mask.len(), total);
        for (j, &m) in mask.iter().enumerate().take(total) {
            let direct = sf.states[j..j + n] == cols.states[..];
            assert_eq!(m == 0, direct, "gate disagreement at start {j}");
        }
        // Starts at offset 1 mod 3 misalign the fixture's 3-state cycle:
        // the gate must reject every one of them.
        assert!((0..total).filter(|j| j % 3 == 1).all(|j| mask[j] != 0));
    }

    /// Short groups pad safely: for 1..LANES starts the real lanes score
    /// exactly what a full group gives them and the padding lanes stay
    /// inactive, whatever the bound.
    #[test]
    fn short_groups_pad_safely() {
        let (sf, cols, params) = fixture();
        let mut batcher = BatchScorer::new();
        let matched = gated_starts(&mut batcher, &cols, &sf);
        let full = batcher.rescore_exact(&cols, &params, &sf, &matched[..LANES], 1.0, 2.0);
        for cnt in 1..LANES {
            for bound in [f64::NEG_INFINITY, 2.0, f64::INFINITY] {
                let out = batcher.rescore_exact(&cols, &params, &sf, &matched[..cnt], 1.0, bound);
                assert!(
                    out[cnt..].iter().all(|o| *o == RescanOutcome::Inactive),
                    "cnt {cnt} bound {bound}"
                );
                assert!(out[..cnt].iter().all(|o| *o != RescanOutcome::Inactive));
                if bound == 2.0 {
                    assert_eq!(out[..cnt], full[..cnt], "cnt {cnt}");
                }
            }
        }
    }
}
