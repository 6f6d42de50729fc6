//! Store and stream statistics — the catalog views a clinician (or the
//! `tsm info --verbose` command) reads.

use crate::store::StreamStore;
use crate::stream::MotionStream;
use serde::{Deserialize, Serialize};
use tsm_model::{BreathState, CycleExtractor};

/// Summary statistics of one stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Stream duration (s).
    pub duration_s: f64,
    /// Vertices stored.
    pub vertices: usize,
    /// Raw samples the PLR summarizes.
    pub raw_len: usize,
    /// Segment counts per state, indexed by [`BreathState::index`].
    pub state_counts: [usize; 4],
    /// Regular breathing cycles found.
    pub cycles: usize,
    /// Mean cycle period (s), if any cycles exist.
    pub mean_period_s: Option<f64>,
    /// Mean cycle amplitude (mm), if any cycles exist.
    pub mean_amplitude_mm: Option<f64>,
    /// Fraction of segments labelled irregular.
    pub irregular_fraction: f64,
}

impl StreamStats {
    /// Computes the statistics of a stream (cycle features along `axis`).
    pub fn of(stream: &MotionStream, axis: usize) -> Self {
        let plr = &stream.plr;
        let mut state_counts = [0usize; 4];
        for s in plr.states() {
            state_counts[s.index()] += 1;
        }
        let n_segments: usize = state_counts.iter().sum();
        let extractor = CycleExtractor::new(axis);
        let cycles = extractor.cycles(plr);
        StreamStats {
            duration_s: plr.duration(),
            vertices: plr.num_vertices(),
            raw_len: stream.raw_len,
            state_counts,
            cycles: cycles.len(),
            mean_period_s: extractor.mean_period(plr),
            mean_amplitude_mm: extractor.mean_amplitude(plr),
            irregular_fraction: if n_segments > 0 {
                state_counts[BreathState::Irregular.index()] as f64 / n_segments as f64
            } else {
                0.0
            },
        }
    }
}

/// Aggregate statistics of a whole store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Patients in the store.
    pub patients: usize,
    /// Streams in the store.
    pub streams: usize,
    /// Total vertices.
    pub vertices: usize,
    /// Total raw samples summarized.
    pub raw_samples: usize,
    /// Total recorded signal time (s).
    pub total_duration_s: f64,
    /// Overall compression ratio (raw samples per vertex).
    pub compression: f64,
    /// Segment counts per state across all streams.
    pub state_counts: [usize; 4],
    /// Mean per-stream cycle period (s), averaged over streams with
    /// cycles.
    pub mean_period_s: Option<f64>,
    /// Mean per-stream cycle amplitude (mm).
    pub mean_amplitude_mm: Option<f64>,
}

impl StoreStats {
    /// Computes aggregate statistics of the store.
    pub fn of(store: &StreamStore, axis: usize) -> Self {
        let streams = store.streams();
        let mut vertices = 0;
        let mut raw = 0;
        let mut duration = 0.0;
        let mut state_counts = [0usize; 4];
        let mut periods = Vec::new();
        let mut amplitudes = Vec::new();
        for s in streams.iter() {
            let st = StreamStats::of(s, axis);
            vertices += st.vertices;
            raw += st.raw_len;
            duration += st.duration_s;
            for (total, count) in state_counts.iter_mut().zip(st.state_counts) {
                *total += count;
            }
            if let Some(p) = st.mean_period_s {
                periods.push(p);
            }
            if let Some(a) = st.mean_amplitude_mm {
                amplitudes.push(a);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                None
            } else {
                Some(v.iter().sum::<f64>() / v.len() as f64)
            }
        };
        StoreStats {
            patients: store.num_patients(),
            streams: streams.len(),
            vertices,
            raw_samples: raw,
            total_duration_s: duration,
            compression: if vertices > 0 {
                raw as f64 / vertices as f64
            } else {
                0.0
            },
            state_counts,
            mean_period_s: mean(&periods),
            mean_amplitude_mm: mean(&amplitudes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PatientAttributes;
    use tsm_model::{BreathState::*, PlrTrajectory, Vertex};

    fn store() -> StreamStore {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let mut v = Vec::new();
        let mut t = 0.0;
        for _ in 0..4 {
            v.push(Vertex::new_1d(t, 10.0, Exhale));
            v.push(Vertex::new_1d(t + 1.5, 0.0, EndOfExhale));
            v.push(Vertex::new_1d(t + 2.5, 0.0, Inhale));
            t += 4.0;
        }
        v.push(Vertex::new_1d(t, 10.0, Irregular));
        store.add_stream(p, 0, PlrTrajectory::from_vertices(v).unwrap(), 480);
        store
    }

    #[test]
    fn stream_stats() {
        let store = store();
        let s = store.streams()[0].clone();
        let st = StreamStats::of(&s, 0);
        assert_eq!(st.vertices, 13);
        assert_eq!(st.raw_len, 480);
        assert_eq!(st.state_counts, [4, 4, 4, 0]);
        assert_eq!(st.cycles, 4);
        assert!((st.mean_period_s.unwrap() - 4.0).abs() < 1e-9);
        assert!((st.mean_amplitude_mm.unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(st.irregular_fraction, 0.0);
        assert!((st.duration_s - 16.0).abs() < 1e-9);
    }

    #[test]
    fn store_stats_aggregate() {
        let store = store();
        let st = StoreStats::of(&store, 0);
        assert_eq!(st.patients, 1);
        assert_eq!(st.streams, 1);
        assert_eq!(st.vertices, 13);
        assert!((st.compression - 480.0 / 13.0).abs() < 1e-9);
        assert_eq!(st.state_counts, [4, 4, 4, 0]);
        assert!(st.mean_period_s.is_some());
    }

    #[test]
    fn empty_store_stats() {
        let store = StreamStore::new();
        let st = StoreStats::of(&store, 0);
        assert_eq!(st.streams, 0);
        assert_eq!(st.compression, 0.0);
        assert!(st.mean_period_s.is_none());
    }
}
