//! The batched (8-lane) scoring kernels of the columnar matcher.
//!
//! Every window either plan visits is scored here, in passes over the
//! [`tsm_db::StreamFeatures`] columns (and their [`tsm_db::Mirror32`] f32
//! copies) that use hand-rolled `F32x8` lane structs (plain `[f32; 8]`
//! operations the autovectorizer lowers to SIMD on stable Rust — no
//! `std::simd`, no `unsafe`):
//!
//! * [`BatchScorer::match_mask`] runs the state-order gate over the
//!   **whole stream** at once (one query state against every window
//!   offset per pass — the classic transposed substring filter), so the
//!   two thirds of windows that fail the gate never reach any per-window
//!   code at all;
//! * [`BatchScorer::collect_survivors`] is the scan's f32 prefilter: it
//!   scores the gate-passing windows eight per pass in f32, with early
//!   abandoning lifted to the *lane group*: the accumulation loop exits
//!   only when **every** lane's partial sum proves its distance exceeds
//!   the caller's bound;
//! * [`BatchScorer::rescore_exact`] is the one exact scorer: one forward
//!   pass sums up to eight windows' numerators in f64 with the exact
//!   operation sequence of
//!   [`online_distance`](crate::similarity::online_distance), so final
//!   distances are bit-identical to the oracle's. Survivors of the
//!   prefilter and the pruned plan's band survivors both end here.
//!
//! # Admissibility
//!
//! A lane may be pruned only if its exact f64 numerator provably exceeds
//! `bound · Σwi · ws`. The f32 partial sum differs from that numerator by
//! (a) narrowing error of the query and candidate columns — bounded
//! *absolutely* by the per-window conversion slack assembled from the
//! query-side weighted error sum and the mirror's error-prefix sums — and
//! (b) f32 arithmetic rounding, bounded *relatively* by `(1 + u)^k` with
//! `u = 2^-24` and `k ≤ 2n + 16` rounded operations affecting any term.
//! The lane limit is therefore
//!
//! ```text
//! limit32 = f32_above((bound · Σwi · ws + slack) · rel),   rel ≥ (1+u)^(2n+16)
//! ```
//!
//! so `partial32 > limit32` implies the exact numerator exceeds
//! `bound · Σwi · ws` (see `tests/matcher_properties.rs` for the
//! property-level proof obligation). One limit is shared by **every**
//! window of a stream, computed with the whole stream's conversion
//! slack — the error-prefix sums are monotone, so the stream slack
//! dominates each window's own and the shared limit stays admissible per
//! lane while the engine hoists it out of the per-group loop. Whenever
//! the limit would overflow f32 it saturates to `+∞` and the lane simply
//! never prunes. A lane whose partial goes NaN (only possible via
//! `0 · ∞` under zero weights with overflowing diffs) compares false
//! against any limit and stays a survivor — the exact rescan keeps it
//! correct.

use crate::params::{AmplitudeMetric, Params};
use crate::similarity::QueryCols;
use tsm_db::{f32_above, Mirror32, StreamFeatures};
use tsm_model::Position;

/// Candidate windows scored per batched pass.
pub const LANES: usize = 8;

/// Group-abandon cadence: the all-lanes-over check runs every this many
/// accumulated 8-position chunks (i.e. every `8 · CHECK_EVERY` query
/// segments — short queries just run straight through).
const CHECK_EVERY: usize = 4;

/// Lane limits at or above this saturate to `+∞` (the lane never prunes):
/// close enough to `f32::MAX` that a representable inflated limit is not
/// guaranteed, far enough that everything practical stays exact.
const LIMIT_CEIL: f64 = (f32::MAX / 2.0) as f64;

/// Eight f32 lanes as a plain array. Every op is a straight-line loop
/// over the lanes with no early exit, which LLVM reliably lowers to
/// vector instructions in release builds.
#[derive(Debug, Clone, Copy)]
struct F32x8([f32; LANES]);

impl F32x8 {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        F32x8([v; LANES])
    }

    /// The first eight entries of `s` as a vector (one bounds check,
    /// then a straight contiguous copy LLVM turns into a vector load).
    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        let mut a = [0f32; LANES];
        a.copy_from_slice(&s[..LANES]);
        F32x8(a)
    }

    /// `|self - o|` per lane.
    #[inline(always)]
    fn abs_diff(self, o: F32x8) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x = (*x - y).abs();
        }
        F32x8(a)
    }

    /// `acc += w * self` per lane.
    #[inline(always)]
    fn mul_add_into(self, w: F32x8, acc: &mut F32x8) {
        for l in 0..LANES {
            acc.0[l] += w.0[l] * self.0[l];
        }
    }

    /// Whether every lane strictly exceeds the other's (branchless
    /// reduction; NaN lanes compare false).
    #[inline(always)]
    fn all_gt(self, o: F32x8) -> bool {
        let mut over = true;
        for l in 0..LANES {
            over &= self.0[l] > o.0[l];
        }
        over
    }
}

/// How one lane of an exact-rescoring group fared (see
/// [`BatchScorer::rescore_exact`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RescanOutcome {
    /// Padding lane (group had fewer than [`LANES`] candidates).
    Inactive,
    /// Early-abandoned: a partial sum proved the distance exceeds the
    /// caller's bound.
    Abandoned,
    /// Completed with the exact distance, bit-identical to
    /// [`online_distance`](crate::similarity::online_distance) (it may
    /// still marginally exceed the bound — callers re-check against δ).
    Scored(f64),
}

/// The query side of the f32 prefilter: narrowed columns, premultiplied
/// f32 weights, and the constants of the admissibility argument. `None`
/// from [`BatchQuery::build`] means the query cannot use the f32 tier
/// (spatial amplitude metric, non-finite narrowed values, or negative
/// weights) and the engine scores every gated window exactly.
#[derive(Debug, Clone)]
pub struct BatchQuery {
    n: usize,
    states: Vec<u8>,
    disp32: Vec<f32>,
    dur32: Vec<f32>,
    /// `wa · wi(i)` narrowed to f32 (the amplitude-term coefficient).
    wa_wi32: Vec<f32>,
    /// `wf · wi(i)` narrowed to f32 (the frequency-term coefficient).
    wf_wi32: Vec<f32>,
    wsum: f64,
    wa: f64,
    wf: f64,
    /// `max_i wi(i)` — scales the candidate-side conversion-error sums
    /// (which the mirror stores unweighted) up to a weighted bound.
    wmax: f64,
    /// Query-side weighted conversion slack:
    /// `Σ wi(i)·(wa·|disp[i]−disp32[i]| + wf·|dur[i]−dur32[i]|)`.
    q_slack: f64,
    /// Multiplicative rounding margin `≥ (1+2^-24)^(2n+16)`.
    rel: f64,
}

impl BatchQuery {
    /// Narrows the query columns for the f32 tier.
    pub fn build(cols: &QueryCols, params: &Params) -> Option<Self> {
        if params.amplitude_metric != AmplitudeMetric::Axis {
            return None; // spatial terms need Position vectors
        }
        if !(params.wa >= 0.0 && params.wf >= 0.0) {
            return None; // negative weights break term monotonicity
        }
        let n = cols.len();
        let mut q = BatchQuery {
            n,
            states: cols.states.clone(),
            disp32: Vec::with_capacity(n),
            dur32: Vec::with_capacity(n),
            wa_wi32: Vec::with_capacity(n),
            wf_wi32: Vec::with_capacity(n),
            wsum: cols.wsum,
            wa: params.wa,
            wf: params.wf,
            wmax: 0.0,
            q_slack: 0.0,
            rel: 1.0 + (2 * n + 16) as f64 * 7e-8 + 1e-9,
        };
        let mut finite = true;
        for i in 0..n {
            let d32 = cols.disp[i] as f32;
            let t32 = cols.dur[i] as f32;
            let wa_wi = (params.wa * cols.wi[i]) as f32;
            let wf_wi = (params.wf * cols.wi[i]) as f32;
            finite &= d32.is_finite()
                && t32.is_finite()
                && wa_wi.is_finite()
                && wf_wi.is_finite()
                && cols.wi[i] >= 0.0;
            q.q_slack += cols.wi[i]
                * (params.wa * (cols.disp[i] - d32 as f64).abs()
                    + params.wf * (cols.dur[i] - t32 as f64).abs());
            q.wmax = q.wmax.max(cols.wi[i]);
            q.disp32.push(d32);
            q.dur32.push(t32);
            q.wa_wi32.push(wa_wi);
            q.wf_wi32.push(wf_wi);
        }
        if !finite {
            return None;
        }
        Some(q)
    }

    /// Number of query segments.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (built from a non-degenerate [`QueryCols`]).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The admissible f32 abandon limit for one window (or the whole
    /// span of a lane group): the exact numerator bound plus the span's
    /// conversion slack, inflated by the rounding margin and rounded *up*
    /// into f32. Saturates to `+∞` (never prune) when it would leave the
    /// exactly-representable range.
    #[inline]
    fn lane_limit(&self, m: &Mirror32, start: usize, len: usize, limit_exact: f64) -> f32 {
        let slack = self.q_slack
            + self.wmax
                * (self.wa * m.amp_err_sum(start, len) + self.wf * m.dur_err_sum(start, len));
        let v = ((limit_exact + slack) * self.rel).max(0.0);
        if v < LIMIT_CEIL {
            f32_above(v)
        } else {
            f32::INFINITY
        }
    }

    /// An admissible f32 abandon limit shared by **every** window of one
    /// stream: the slack over the whole stream dominates any window's own
    /// (the error-prefix sums are monotone), so one limit per
    /// `(stream, ws, bound)` stays admissible everywhere and the engine
    /// can hoist it out of the per-group loop. The conversion-error sums
    /// are microscopic next to any practical bound, so the extra slack
    /// does not measurably weaken pruning.
    pub fn stream_limit(&self, sf: &StreamFeatures, ws: f64, bound: f64) -> f32 {
        self.lane_limit(&sf.mirror32, 0, sf.num_segments(), bound * self.wsum * ws)
    }
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

    /// Runs the f32 lane kernel over a whole stream's gate-passing
    /// starts: chunks of up to [`LANES`] are scored against one shared
    /// limit (from [`BatchQuery::stream_limit`] for the same stream),
    /// survivors are appended to `surv`, and the pruned-window count is
    /// returned. The classify step is branchless. Every `start + n` must
    /// be in range, every window must already have passed the state gate
    /// (via [`BatchScorer::match_mask`] or an index keyed by state
    /// signature), and the stream's mirror must be finite. The padding
    /// lanes of a short final chunk get limit −∞, so they count as
    /// "already over" in the group-abandon reduction and are never
    /// reported.
    pub fn collect_survivors(
        &mut self,
        q: &BatchQuery,
        sf: &StreamFeatures,
        starts: &[usize],
        shared: f32,
        surv: &mut Vec<usize>,
    ) -> u64 {
        let n = q.n;
        let m = &sf.mirror32;
        debug_assert!(m.finite, "batched scoring over a non-finite mirror");
        let mut pruned = 0u64;
        surv.reserve(starts.len());
        let full_lim = F32x8::splat(shared);
        for chunk in starts.chunks(LANES) {
            for &s in chunk {
                debug_assert!(s + n <= sf.num_segments());
                debug_assert!(
                    sf.states[s..s + n] == q.states[..],
                    "collect_survivors on a window that fails the state gate"
                );
            }
            let used = chunk.len();
            let mut pad = [chunk[0]; LANES];
            pad[..used].copy_from_slice(chunk);
            let lim = if used == LANES {
                full_lim
            } else {
                let mut lim = F32x8::splat(f32::NEG_INFINITY);
                lim.0[..used].copy_from_slice(&full_lim.0[..used]);
                lim
            };
            let partial = Self::accumulate(q, m, &pad, lim);
            for (l, &s) in chunk.iter().enumerate() {
                let over = partial.0[l] > lim.0[l];
                pruned += over as u64;
                if !over {
                    surv.push(s);
                }
            }
        }
        pruned
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

    /// Accumulation in two phases over the query positions:
    ///
    /// 1. the **full chunks** — the newest `8 · (n / 8)` positions,
    ///    aligned to the query's newest end and accumulated lane-major:
    ///    every load is a contiguous 8-wide slice of the mirror or query
    ///    columns, which LLVM lowers to straight vector loads and
    ///    arithmetic, and each lane keeps a vector accumulator
    ///    (`vacc[l]`);
    /// 2. the **head** — the oldest `n mod 8` positions, accumulated
    ///    position-major with per-lane gathered loads.
    ///
    /// Under the decaying per-position weights the head carries the least
    /// mass, so when it is also a small fraction of the query the kernel
    /// skips it outright: every term is non-negative, so a partial sum
    /// missing a few positions still admissibly proves `exact > bound`
    /// whenever it exceeds the limit, and the rare window whose mass sits
    /// in the skipped positions just falls through to the exact rescan.
    /// The gathered loads cost more than the slight loss of prune power.
    ///
    /// The group-abandon check compares the combined partial sums against
    /// the limits every [`CHECK_EVERY`] chunks; exiting early is sound
    /// because f32 partial sums of non-negative terms are monotone.
    /// Returns the per-lane partials at exit (NaN partials compare false
    /// and leave lanes survivors).
    #[inline]
    fn accumulate(q: &BatchQuery, m: &Mirror32, pad: &[usize; LANES], lim: F32x8) -> F32x8 {
        let head = q.n % LANES;
        let head_from = if head * 4 > q.n { 0 } else { head };
        let mut tail = F32x8::splat(0.0);
        for i in (head_from..head).rev() {
            let mut dv = [0f32; LANES];
            let mut tv = [0f32; LANES];
            for l in 0..LANES {
                dv[l] = m.disp[pad[l] + i];
                tv[l] = m.dur[pad[l] + i];
            }
            F32x8(dv)
                .abs_diff(F32x8::splat(q.disp32[i]))
                .mul_add_into(F32x8::splat(q.wa_wi32[i]), &mut tail);
            F32x8(tv)
                .abs_diff(F32x8::splat(q.dur32[i]))
                .mul_add_into(F32x8::splat(q.wf_wi32[i]), &mut tail);
        }
        let mut vacc = [F32x8::splat(0.0); LANES];
        let mut hi = q.n;
        let mut chunks = 0usize;
        while hi > head {
            let lo = hi - LANES;
            let qd = F32x8::load(&q.disp32[lo..hi]);
            let qt = F32x8::load(&q.dur32[lo..hi]);
            let wa = F32x8::load(&q.wa_wi32[lo..hi]);
            let wf = F32x8::load(&q.wf_wi32[lo..hi]);
            for (l, acc) in vacc.iter_mut().enumerate() {
                let base = pad[l] + lo;
                F32x8::load(&m.disp[base..base + LANES])
                    .abs_diff(qd)
                    .mul_add_into(wa, acc);
                F32x8::load(&m.dur[base..base + LANES])
                    .abs_diff(qt)
                    .mul_add_into(wf, acc);
            }
            hi = lo;
            chunks += 1;
            if chunks.is_multiple_of(CHECK_EVERY)
                && hi > head
                && Self::partials(&vacc, tail).all_gt(lim)
            {
                break;
            }
        }
        Self::partials(&vacc, tail)
    }

    /// Per-lane partial sums: the tail plus a pairwise (fixed-order, so
    /// deterministic) horizontal reduction of each lane's chunk
    /// accumulator.
    #[inline(always)]
    fn partials(vacc: &[F32x8; LANES], tail: F32x8) -> F32x8 {
        let mut out = tail.0;
        for (o, acc) in out.iter_mut().zip(vacc) {
            let a = acc.0;
            *o += ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
        }
        F32x8(out)
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
    /// 11th cycle far off, so the prune tier has work.
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

    /// Exhaustively checks one stream: every start the kernel prunes must
    /// be a window whose oracle distance (at ws = 1) exceeds the bound.
    #[test]
    fn pruned_lanes_are_exactly_refutable() {
        let (sf, cols, params) = fixture();
        let (verts, qverts) = fixture_vertices();
        let bq = BatchQuery::build(&cols, &params).unwrap();
        let n = cols.len();
        let mut batcher = BatchScorer::new();
        let starts = gated_starts(&mut batcher, &cols, &sf);
        assert!(!starts.is_empty(), "fixture has no gate-passing windows");
        let mut surv = Vec::new();
        for &bound in &[0.1, 0.5, 2.0, 8.0, f64::INFINITY] {
            surv.clear();
            let limit = bq.stream_limit(&sf, 1.0, bound);
            let pruned = batcher.collect_survivors(&bq, &sf, &starts, limit, &mut surv);
            assert_eq!(pruned as usize + surv.len(), starts.len(), "bound {bound}");
            // Survivors come back in start order, so the pruned starts are
            // the gaps between them.
            let mut kept = surv.iter().peekable();
            for &start in &starts {
                if kept.next_if_eq(&&start).is_some() {
                    continue;
                }
                let cand = &verts[start..=start + n];
                let d = online_distance(&qverts, cand, &params, SourceRelation::SameSession)
                    .unwrap_or_else(|| panic!("pruned start {start} fails the state gate"));
                assert!(
                    d > bound,
                    "inadmissible prune at start {start}: d = {d} <= bound {bound}"
                );
            }
            assert!(kept.next().is_none(), "survivor outside the input starts");
        }
        // At a tight bound the tier actually prunes something on this
        // fixture (otherwise the admissibility loop above proves nothing).
        surv.clear();
        let limit = bq.stream_limit(&sf, 1.0, 0.1);
        let pruned = batcher.collect_survivors(&bq, &sf, &starts, limit, &mut surv);
        assert!(pruned > 0, "tight bound pruned nothing");
    }

    /// Short final chunks pad safely: for 1..LANES starts the padding
    /// lanes are never reported, whatever the limit.
    #[test]
    fn short_groups_pad_safely() {
        let (sf, cols, params) = fixture();
        let bq = BatchQuery::build(&cols, &params).unwrap();
        let mut batcher = BatchScorer::new();
        let matched = gated_starts(&mut batcher, &cols, &sf);
        let mut surv = Vec::new();
        for cnt in 1..LANES {
            let starts = &matched[..cnt];
            surv.clear();
            let limit = bq.stream_limit(&sf, 1.0, 2.0);
            let pruned = batcher.collect_survivors(&bq, &sf, starts, limit, &mut surv);
            assert_eq!(pruned as usize + surv.len(), cnt, "cnt {cnt}");
            assert!(surv.iter().all(|s| starts.contains(s)), "cnt {cnt}");
            // A limit nothing can exceed keeps every real lane...
            surv.clear();
            let pruned = batcher.collect_survivors(&bq, &sf, starts, f32::INFINITY, &mut surv);
            assert_eq!((pruned, surv.as_slice()), (0, starts), "cnt {cnt}");
            // ...and one everything exceeds prunes exactly the real lanes.
            surv.clear();
            let pruned = batcher.collect_survivors(&bq, &sf, starts, f32::NEG_INFINITY, &mut surv);
            assert_eq!((pruned as usize, surv.len()), (cnt, 0), "cnt {cnt}");
        }
    }

    #[test]
    fn spatial_metric_and_bad_weights_disable_the_tier() {
        let (_, cols, params) = fixture();
        let spatial = Params {
            amplitude_metric: AmplitudeMetric::Spatial,
            ..params.clone()
        };
        assert!(BatchQuery::build(&cols, &spatial).is_none());
        let negative = Params {
            wa: -1.0,
            ..params.clone()
        };
        assert!(BatchQuery::build(&cols, &negative).is_none());
        assert!(BatchQuery::build(&cols, &params).is_some());
    }

    /// The limit saturates (never prunes) instead of going inadmissible
    /// when the bound or slack overflows f32.
    #[test]
    fn limit_saturates_to_never_prune() {
        let (sf, cols, params) = fixture();
        let bq = BatchQuery::build(&cols, &params).unwrap();
        let lim = bq.lane_limit(&sf.mirror32, 0, cols.len(), f64::MAX);
        assert_eq!(lim, f32::INFINITY);
        // A negative bound clamps to zero: prune everything non-zero,
        // admissibly (nothing has distance <= a negative bound).
        let lim = bq.lane_limit(&sf.mirror32, 0, cols.len(), -5.0);
        assert!(lim >= 0.0);
    }
}
