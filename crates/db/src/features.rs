//! Columnar per-segment feature cache.
//!
//! The matcher's hot loops consume four per-segment quantities — signed
//! displacement along the classification axis, the displacement vector,
//! duration, and breathing state. Walking `Vertex` pairs and building
//! [`tsm_model::Segment`] values per candidate window recomputes all of
//! them `O(windows × len)` times; this module computes each once per
//! stored segment and lays the results out as flat arrays (structure of
//! arrays), plus the vertex times. Every column is f64: the
//! matcher's state gate, its amplitude and duration bands and its exact
//! scorer all read these columns directly. A window's amplitude summary is
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

/// `Σ |d|` over `disp`, summed forward from zero: the amplitude summary
/// of a window (and of a query) that both search plans band on. The
/// query, the index entries and the scan all use this one expression, so
/// equal windows get bit-equal summaries.
#[inline]
pub fn abs_disp_sum(disp: &[f64]) -> f64 {
    disp.iter().fold(0.0, |acc, d| acc + d.abs())
}

/// Flat per-segment features of one stream, along one classification axis.
///
/// All segment-indexed vectors have `num_segments()` entries; `times` has
/// one per vertex.
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
        for w in vertices.windows(2) {
            let s = Segment::between(&w[0], &w[1]);
            times.push(w[0].time);
            let d = s.displacement(axis);
            disp.push(d);
            dvec.push(s.end_position - s.start_position);
            dur.push(s.duration());
            states.push(w[0].state.index() as u8);
        }
        if let Some(last) = vertices.last() {
            times.push(last.time);
        }
        StreamFeatures {
            meta: stream.meta,
            times,
            disp,
            dvec,
            dur,
            states,
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

    /// Total duration of the window of `len` segments starting at
    /// `start`: its end time minus its start time, one subtraction. Both
    /// search plans band on this value and the index stores it.
    #[inline]
    pub fn window_duration(&self, start: usize, len: usize) -> f64 {
        self.times[start + len] - self.times[start]
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
        assert_eq!(sf.amp_sum(0, 1), 1.0);
        assert!(f.stream(StreamId(9)).is_none());
    }
}
