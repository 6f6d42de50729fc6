//! Columnar per-segment feature cache.
//!
//! The matcher's hot loops consume four per-segment quantities — signed
//! displacement along the classification axis, the displacement vector,
//! duration, and breathing state. Walking `Vertex` pairs and building
//! [`tsm_model::Segment`] values per candidate window recomputes all of
//! them `O(windows × len)` times; this module computes each once per
//! stored segment and lays the results out as flat arrays (structure of
//! arrays), plus prefix sums of duration. A window's amplitude summary is
//! a direct forward sum ([`abs_disp_sum`]) rather than a prefix-sum
//! subtraction: after one segment of huge magnitude a prefix sum loses
//! every later window's summary to cancellation.
//!
//! Streams are immutable once inserted (`Arc<MotionStream>`, append-only
//! store), so per-stream features never go stale; the store-level
//! [`SegmentFeatures`] snapshot is invalidated by the store's monotone
//! version counter and rebuilt incrementally — only streams added since
//! the previous snapshot are recomputed.

use crate::ids::StreamId;
use crate::stream::{MotionStream, StreamMeta};
use std::sync::Arc;
use tsm_model::{Position, Segment};

/// The smallest `f32` that is `>= x`, for non-negative finite `x`
/// (round-up conversion). Values beyond `f32::MAX` saturate to infinity.
///
/// This is the rounding direction every error *bound* in the [`Mirror32`]
/// uses: a bound that rounds down could understate the true conversion
/// error and make the f32 pruning tier inadmissible.
pub fn f32_above(x: f64) -> f32 {
    debug_assert!(x >= 0.0 || x.is_nan());
    let y = x as f32; // round-to-nearest
    if !y.is_finite() {
        return f32::INFINITY;
    }
    if (y as f64) >= x {
        y
    } else {
        // y is finite and below x >= 0, so bit-increment is next-up.
        f32::from_bits(y.to_bits() + 1)
    }
}

/// `Σ |d|` over `disp`, summed forward from zero: the amplitude summary
/// of a window (and of a query) that the feature index bands on. Query
/// and index entries both use this one expression, so equal windows get
/// bit-equal summaries.
#[inline]
pub fn abs_disp_sum(disp: &[f64]) -> f64 {
    disp.iter().fold(0.0, |acc, d| acc + d.abs())
}

/// `f32` structure-of-arrays mirror of one stream's f64 feature columns,
/// with per-segment conversion-error bounds.
///
/// The batched scoring tier (`tsm-core`) accumulates candidate distances
/// in f32, eight windows per pass. For that prune to stay *admissible*
/// against the exact f64 distance, the mirror carries, per segment, an
/// upper bound on `|disp[i] - disp32[i]|` and `|dur[i] - dur32[i]|`
/// (the representation error introduced by narrowing), plus prefix sums
/// of those bounds so any window's total conversion slack is two
/// subtractions — the same trick the f64 columns use for durations.
///
/// The mirror is built inside [`StreamFeatures::build`], so it shares the
/// f64 columns' lifecycle exactly: per-stream features are immutable and
/// the store-level snapshot is invalidated by the store version counter.
#[derive(Debug, Clone, PartialEq)]
pub struct Mirror32 {
    /// `disp` narrowed to f32 (round-to-nearest).
    pub disp: Vec<f32>,
    /// `dur` narrowed to f32 (round-to-nearest).
    pub dur: Vec<f32>,
    /// Per-segment upper bound on `|disp[i] - disp[i] as f32|`
    /// (round-up, so never an underestimate).
    pub disp_err: Vec<f32>,
    /// Per-segment upper bound on `|dur[i] - dur[i] as f32|`.
    pub dur_err: Vec<f32>,
    /// Prefix sums of `disp_err` (f64): window conversion slack in O(1).
    pub disp_err_prefix: Vec<f64>,
    /// Prefix sums of `dur_err` (f64).
    pub dur_err_prefix: Vec<f64>,
    /// Whether every mirrored value is finite in f32. When false (a
    /// column magnitude beyond `f32::MAX`), the batched tier must fall
    /// back to exact f64 scoring for this stream.
    pub finite: bool,
}

impl Mirror32 {
    /// Narrows the f64 columns, recording exact per-segment conversion
    /// errors (computed in f64, rounded *up* into f32).
    pub fn build(disp: &[f64], dur: &[f64]) -> Self {
        let n = disp.len();
        debug_assert_eq!(dur.len(), n);
        let mut m = Mirror32 {
            disp: Vec::with_capacity(n),
            dur: Vec::with_capacity(n),
            disp_err: Vec::with_capacity(n),
            dur_err: Vec::with_capacity(n),
            disp_err_prefix: Vec::with_capacity(n + 1),
            dur_err_prefix: Vec::with_capacity(n + 1),
            finite: true,
        };
        m.disp_err_prefix.push(0.0);
        m.dur_err_prefix.push(0.0);
        let mut disp_acc = 0.0f64;
        let mut dur_acc = 0.0f64;
        for i in 0..n {
            let d32 = disp[i] as f32;
            let t32 = dur[i] as f32;
            m.finite &= d32.is_finite() && t32.is_finite();
            let de = f32_above((disp[i] - d32 as f64).abs());
            let te = f32_above((dur[i] - t32 as f64).abs());
            m.disp.push(d32);
            m.dur.push(t32);
            m.disp_err.push(de);
            m.dur_err.push(te);
            disp_acc += de as f64;
            dur_acc += te as f64;
            m.disp_err_prefix.push(disp_acc);
            m.dur_err_prefix.push(dur_acc);
        }
        m
    }

    /// Total displacement conversion-error bound over the window of `len`
    /// segments starting at `start`.
    #[inline]
    pub fn amp_err_sum(&self, start: usize, len: usize) -> f64 {
        self.disp_err_prefix[start + len] - self.disp_err_prefix[start]
    }

    /// Total duration conversion-error bound over the window.
    #[inline]
    pub fn dur_err_sum(&self, start: usize, len: usize) -> f64 {
        self.dur_err_prefix[start + len] - self.dur_err_prefix[start]
    }
}

/// Flat per-segment features of one stream, along one classification axis.
///
/// All segment-indexed vectors have `num_segments()` entries; `times` has
/// one per vertex and the duration prefix sums one more than the segment
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamFeatures {
    /// Provenance of the stream these features describe.
    pub meta: StreamMeta,
    /// Vertex times (`num_segments() + 1` entries).
    pub times: Vec<f64>,
    /// Signed displacement of each segment along the feature axis.
    pub disp: Vec<f64>,
    /// Spatial displacement vector of each segment (for the spatial
    /// amplitude metric).
    pub dvec: Vec<Position>,
    /// Duration of each segment.
    pub dur: Vec<f64>,
    /// Breathing state of each segment, as [`tsm_model::BreathState`]
    /// canonical indices.
    pub states: Vec<u8>,
    /// Prefix sums of `dur`: `dur_prefix[j] = Σ_{i<j} dur[i]`.
    pub dur_prefix: Vec<f64>,
    /// f32 mirror of `disp`/`dur` with conversion-error bounds, for the
    /// batched (8-lane) scoring tier.
    pub mirror32: Mirror32,
}

impl StreamFeatures {
    /// Extracts the columns of one stream.
    pub fn build(stream: &MotionStream, axis: usize) -> Self {
        let vertices = stream.plr.vertices();
        let nseg = vertices.len().saturating_sub(1);
        let mut times = Vec::with_capacity(nseg + 1);
        let mut disp = Vec::with_capacity(nseg);
        let mut dvec = Vec::with_capacity(nseg);
        let mut dur = Vec::with_capacity(nseg);
        let mut states = Vec::with_capacity(nseg);
        let mut dur_prefix = Vec::with_capacity(nseg + 1);
        dur_prefix.push(0.0);
        let mut dur_acc = 0.0f64;
        for w in vertices.windows(2) {
            let s = Segment::between(&w[0], &w[1]);
            times.push(w[0].time);
            let d = s.displacement(axis);
            disp.push(d);
            dvec.push(s.end_position - s.start_position);
            dur.push(s.duration());
            states.push(w[0].state.index() as u8);
            dur_acc += s.duration();
            dur_prefix.push(dur_acc);
        }
        if let Some(last) = vertices.last() {
            times.push(last.time);
        }
        let mirror32 = Mirror32::build(&disp, &dur);
        StreamFeatures {
            meta: stream.meta,
            times,
            disp,
            dvec,
            dur,
            states,
            dur_prefix,
            mirror32,
        }
    }

    /// Number of segments in the stream.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.disp.len()
    }

    /// Sum of `|displacement|` over the window of `len` segments starting
    /// at `start`, summed forward by [`abs_disp_sum`].
    #[inline]
    pub fn amp_sum(&self, start: usize, len: usize) -> f64 {
        abs_disp_sum(&self.disp[start..start + len])
    }

    /// Total duration of the window of `len` segments starting at `start`.
    #[inline]
    pub fn window_duration(&self, start: usize, len: usize) -> f64 {
        self.dur_prefix[start + len] - self.dur_prefix[start]
    }
}

/// A consistent store-wide snapshot of per-stream columnar features.
#[derive(Debug, Clone)]
pub struct SegmentFeatures {
    axis: usize,
    version: u64,
    streams: Vec<Arc<StreamFeatures>>,
}

impl SegmentFeatures {
    /// Builds a snapshot from streams, reusing per-stream features from a
    /// `prior` snapshot on the same axis (streams are immutable, so any
    /// stream both snapshots cover is identical).
    pub(crate) fn build(
        streams: &[Arc<MotionStream>],
        axis: usize,
        version: u64,
        prior: Option<&SegmentFeatures>,
    ) -> Self {
        let reusable = match prior {
            Some(p) if p.axis == axis => p.streams.as_slice(),
            _ => &[],
        };
        let features = streams
            .iter()
            .enumerate()
            .map(|(i, s)| match reusable.get(i) {
                // Stream ids are dense insertion indices, so position `i`
                // in both snapshots is the same immutable stream.
                Some(f) if f.meta == s.meta => f.clone(),
                _ => Arc::new(StreamFeatures::build(s, axis)),
            })
            .collect();
        SegmentFeatures {
            axis,
            version,
            streams: features,
        }
    }

    /// The classification axis the displacement columns use.
    #[inline]
    pub fn axis(&self) -> usize {
        self.axis
    }

    /// The store version this snapshot reflects.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Features of every stream, in stream-id order.
    #[inline]
    pub fn streams(&self) -> &[Arc<StreamFeatures>] {
        &self.streams
    }

    /// Features of one stream.
    #[inline]
    pub fn stream(&self, id: StreamId) -> Option<&Arc<StreamFeatures>> {
        self.streams.get(id.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{PatientAttributes, StreamStore};
    use crate::subsequence::SubseqRef;
    use tsm_model::{BreathState::*, PlrTrajectory, Vertex};

    fn plr(n: usize, amplitude: f64) -> PlrTrajectory {
        let mut v = Vec::new();
        let mut t = 0.0;
        // 2-D positions so both axis 0 and axis 1 are valid feature axes.
        for i in 0..n {
            let a = amplitude + i as f64 * 0.3;
            v.push(Vertex::new(t, Position::new_2d(a, a * 0.1), Exhale));
            v.push(Vertex::new(
                t + 1.5,
                Position::new_2d(0.0, 0.0),
                EndOfExhale,
            ));
            v.push(Vertex::new(t + 2.4, Position::new_2d(0.0, 0.0), Inhale));
            t += 4.0;
        }
        v.push(Vertex::new(t, Position::new_2d(amplitude, 0.0), Exhale));
        PlrTrajectory::from_vertices(v).unwrap()
    }

    #[test]
    fn columns_match_segment_walk() {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let id = store.add_stream(p, 0, plr(5, 10.0), 500);
        let stream = store.stream(id).unwrap();
        let f = StreamFeatures::build(&stream, 0);
        assert_eq!(f.num_segments(), stream.plr.num_segments());
        assert_eq!(f.times.len(), f.num_segments() + 1);
        let view = store
            .resolve(SubseqRef::new(id, 0, f.num_segments()))
            .unwrap();
        for (i, s) in view.segments().enumerate() {
            assert_eq!(f.disp[i], s.displacement(0));
            assert_eq!(f.dur[i], s.duration());
            assert_eq!(f.states[i] as usize, s.state.index());
            assert_eq!(f.dvec[i], s.end_position - s.start_position);
            assert_eq!(f.times[i], s.start_time);
        }
        // Window summaries agree with sums over the segment walk.
        for (start, len) in [(0usize, 3usize), (2, 5), (4, 9)] {
            let view = store.resolve(SubseqRef::new(id, start, len)).unwrap();
            let direct: f64 = view.segments().map(|s| s.displacement(0).abs()).sum();
            assert_eq!(f.amp_sum(start, len), direct);
            let direct_dur: f64 = view.segments().map(|s| s.duration()).sum();
            assert!((f.window_duration(start, len) - direct_dur).abs() < 1e-9);
        }
    }

    /// A window after a segment of huge magnitude keeps its exact
    /// summary: the direct sum never subtracts the huge running total.
    #[test]
    fn amp_sums_after_a_huge_vertex_are_exact() {
        let mut v = plr(6, 10.0).vertices().to_vec();
        v[4].position = Position::new_2d(1e39, 0.0);
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let id = store.add_stream(p, 0, PlrTrajectory::from_vertices(v).unwrap(), 600);
        let f = StreamFeatures::build(&store.stream(id).unwrap(), 0);
        assert!(f.amp_sum(0, 6) >= 1e39);
        let direct: f64 = f.disp[6..12].iter().map(|d| d.abs()).sum();
        assert!(direct > 0.0);
        assert_eq!(f.amp_sum(6, 6), direct);
    }

    #[test]
    fn snapshot_tracks_store_and_reuses_streams() {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        store.add_stream(p, 0, plr(4, 10.0), 400);
        let first = store.segment_features(0);
        assert_eq!(first.streams().len(), 1);
        assert_eq!(first.version(), store.version());

        // Unchanged store: the very same snapshot comes back.
        let again = store.segment_features(0);
        assert!(Arc::ptr_eq(&first.streams()[0], &again.streams()[0]));

        // A new stream invalidates the snapshot but reuses old columns.
        store.add_stream(p, 1, plr(4, 12.0), 400);
        let grown = store.segment_features(0);
        assert_eq!(grown.streams().len(), 2);
        assert!(Arc::ptr_eq(&first.streams()[0], &grown.streams()[0]));
        assert_eq!(grown.version(), store.version());

        // A different axis rebuilds everything.
        let other_axis = store.segment_features(1);
        assert_eq!(other_axis.axis(), 1);
        assert!(!Arc::ptr_eq(&grown.streams()[0], &other_axis.streams()[0]));
    }

    #[test]
    fn mirror32_bounds_conversion_error() {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let id = store.add_stream(p, 0, plr(6, 10.37), 600);
        let stream = store.stream(id).unwrap();
        let f = StreamFeatures::build(&stream, 0);
        let m = &f.mirror32;
        assert!(m.finite);
        assert_eq!(m.disp.len(), f.num_segments());
        assert_eq!(m.disp_err_prefix.len(), f.num_segments() + 1);
        for i in 0..f.num_segments() {
            // The stored error bounds dominate the true conversion error.
            assert!((f.disp[i] - m.disp[i] as f64).abs() <= m.disp_err[i] as f64);
            assert!((f.dur[i] - m.dur[i] as f64).abs() <= m.dur_err[i] as f64);
        }
        // Window error sums dominate the per-segment sums they summarize.
        for (start, len) in [(0usize, 3usize), (2, 5), (4, 9)] {
            let direct_d: f64 = (start..start + len)
                .map(|i| (f.disp[i] - m.disp[i] as f64).abs())
                .sum();
            let direct_t: f64 = (start..start + len)
                .map(|i| (f.dur[i] - m.dur[i] as f64).abs())
                .sum();
            // 1e-12 relative slack covers the f64 prefix accumulation.
            assert!(m.amp_err_sum(start, len) >= direct_d * (1.0 - 1e-12));
            assert!(m.dur_err_sum(start, len) >= direct_t * (1.0 - 1e-12));
        }
    }

    #[test]
    fn f32_above_never_rounds_down() {
        for x in [0.0, 1e-300, 0.1, 1.0 + 1e-9, 12345.6789, 3.0e38, 1e300] {
            let y = f32_above(x);
            assert!(y as f64 >= x, "f32_above({x}) = {y} rounded down");
        }
        assert_eq!(f32_above(f64::INFINITY), f32::INFINITY);
        // Tightness: at most one ulp above the nearest conversion.
        let x = 0.1f64;
        let y = f32_above(x);
        assert!(y == x as f32 || y == f32::from_bits((x as f32).to_bits() + 1));
    }

    #[test]
    fn mirror32_flags_overflowing_columns() {
        let m = Mirror32::build(&[1.0, 1e39], &[1.0, 1.0]);
        assert!(!m.finite);
        let ok = Mirror32::build(&[1.0, -2.5], &[0.5, 0.25]);
        assert!(ok.finite);
        // Exactly representable values carry zero error bounds.
        assert_eq!(ok.disp_err, vec![0.0, 0.0]);
        assert_eq!(ok.amp_err_sum(0, 2), 0.0);
    }

    #[test]
    fn empty_and_single_vertex_streams() {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let id = store.add_stream(
            p,
            0,
            PlrTrajectory::from_vertices(vec![
                Vertex::new_1d(0.0, 1.0, Exhale),
                Vertex::new_1d(1.0, 0.0, EndOfExhale),
            ])
            .unwrap(),
            10,
        );
        let f = store.segment_features(0);
        let sf = f.stream(id).unwrap();
        assert_eq!(sf.num_segments(), 1);
        assert_eq!(sf.dur_prefix, vec![0.0, 1.0]);
        assert_eq!(sf.amp_sum(0, 1), 1.0);
        assert!(f.stream(StreamId(9)).is_none());
    }
}
