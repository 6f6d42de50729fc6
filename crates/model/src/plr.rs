//! Piecewise linear trajectories: ordered lists of vertices.

use crate::segment::Segment;
use crate::state::BreathState;
use crate::vertex::Vertex;
use serde::{Deserialize, Serialize};

/// A piecewise linear representation of one motion stream.
///
/// A trajectory with `n` vertices has `n - 1` line segments; segment `i`
/// runs from vertex `i` to vertex `i + 1` and carries vertex `i`'s state.
/// Vertex times are strictly increasing and all positions share one
/// spatial dimensionality — both invariants are checked at construction.
///
/// ```
/// use tsm_model::{BreathState::*, PlrTrajectory, Vertex};
///
/// let plr = PlrTrajectory::from_vertices(vec![
///     Vertex::new_1d(0.0, 10.0, Exhale),
///     Vertex::new_1d(1.5, 0.0, EndOfExhale),
///     Vertex::new_1d(2.5, 0.0, Inhale),
///     Vertex::new_1d(4.0, 10.0, Exhale),
/// ])?;
/// assert_eq!(plr.num_segments(), 3);
/// assert_eq!(plr.state_at(2.0), EndOfExhale);
/// assert_eq!(plr.position_at(0.75)[0], 5.0); // halfway down the exhale
/// # Ok::<(), tsm_model::plr::PlrError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlrTrajectory {
    vertices: Vec<Vertex>,
    dim: usize,
}

/// Errors produced when building a [`PlrTrajectory`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlrError {
    /// The vertex list was empty.
    Empty,
    /// Vertex `index` does not have a strictly larger time than its
    /// predecessor.
    NonMonotonicTime {
        /// Index of the offending vertex.
        index: usize,
    },
    /// Vertex `index` has a different spatial dimensionality than vertex 0.
    DimensionMismatch {
        /// Index of the offending vertex.
        index: usize,
    },
    /// Vertex `index` contains a non-finite time or coordinate.
    NonFinite {
        /// Index of the offending vertex.
        index: usize,
    },
}

impl std::fmt::Display for PlrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlrError::Empty => write!(f, "empty vertex list"),
            PlrError::NonMonotonicTime { index } => {
                write!(f, "vertex {index} has non-increasing time")
            }
            PlrError::DimensionMismatch { index } => {
                write!(f, "vertex {index} has mismatched dimensionality")
            }
            PlrError::NonFinite { index } => {
                write!(f, "vertex {index} has a non-finite value")
            }
        }
    }
}

impl std::error::Error for PlrError {}

impl PlrTrajectory {
    /// Builds a trajectory, validating the invariants.
    pub fn from_vertices(vertices: Vec<Vertex>) -> Result<Self, PlrError> {
        if vertices.is_empty() {
            return Err(PlrError::Empty);
        }
        let dim = vertices[0].position.dim();
        for (i, v) in vertices.iter().enumerate() {
            if !v.time.is_finite() || !v.position.is_finite() {
                return Err(PlrError::NonFinite { index: i });
            }
            if v.position.dim() != dim {
                return Err(PlrError::DimensionMismatch { index: i });
            }
            if i > 0 && v.time <= vertices[i - 1].time {
                return Err(PlrError::NonMonotonicTime { index: i });
            }
        }
        Ok(PlrTrajectory { vertices, dim })
    }

    /// Spatial dimensionality shared by all vertices.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// All vertices, in time order.
    #[inline]
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of line segments (`num_vertices - 1`).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.vertices.len().saturating_sub(1)
    }

    /// Segment `i` (from vertex `i` to vertex `i + 1`).
    #[inline]
    pub fn segment(&self, i: usize) -> Option<Segment> {
        let a = self.vertices.get(i)?;
        let b = self.vertices.get(i + 1)?;
        Some(Segment::between(a, b))
    }

    /// Iterates over all segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.vertices
            .windows(2)
            .map(|w| Segment::between(&w[0], &w[1]))
    }

    /// Start time of the trajectory.
    #[inline]
    pub fn start_time(&self) -> f64 {
        self.vertices[0].time
    }

    /// End time of the trajectory.
    #[inline]
    pub fn end_time(&self) -> f64 {
        self.vertices[self.vertices.len() - 1].time
    }

    /// Total duration in seconds.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end_time() - self.start_time()
    }

    /// Index of the segment containing time `t`, clamped to the first/last
    /// segment for out-of-range times. `None` only for single-vertex
    /// trajectories.
    pub fn segment_index_at(&self, t: f64) -> Option<usize> {
        if self.vertices.len() < 2 {
            return None;
        }
        // Binary search over vertex times.
        let times: &[Vertex] = &self.vertices;
        let mut lo = 0usize;
        let mut hi = times.len() - 1;
        if t <= times[0].time {
            return Some(0);
        }
        if t >= times[hi].time {
            return Some(hi - 1);
        }
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if times[mid].time <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// Interpolated position at time `t`. Out-of-range times extrapolate
    /// along the first/last segment — this is exactly what online
    /// prediction needs when asked about the immediate future of the most
    /// recent segment.
    pub fn position_at(&self, t: f64) -> crate::position::Position {
        match self.segment_index_at(t).and_then(|i| self.segment(i)) {
            Some(seg) => seg.position_at(t),
            None => self.vertices[0].position,
        }
    }

    /// [`position_at`](Self::position_at) for a caller that knows a
    /// vertex at or before `t`: steps forward from vertex `from` instead
    /// of binary-searching the whole trajectory, so a time a few segments
    /// past `from` costs a few comparisons. It finds the same segment, so
    /// the result is bit-equal to `position_at(t)`; when `from` is out of
    /// range or `t` is before vertex `from` (or NaN), it is
    /// `position_at(t)`.
    pub fn position_after(&self, from: usize, t: f64) -> crate::position::Position {
        let v = &self.vertices;
        let n = v.len();
        if n < 2 || !v.get(from).is_some_and(|start| start.time <= t) {
            return self.position_at(t);
        }
        // Segment i spans [v[i].time, v[i + 1].time); past the end, the
        // last segment extrapolates (as in `segment_index_at`).
        let mut i = from.min(n - 2);
        while i + 2 < n && v[i + 1].time <= t {
            i += 1;
        }
        Segment::between(&v[i], &v[i + 1]).position_at(t)
    }

    /// State at time `t` (state of the containing segment).
    pub fn state_at(&self, t: f64) -> BreathState {
        match self.segment_index_at(t) {
            Some(i) => self.vertices[i].state,
            None => self.vertices[0].state,
        }
    }

    /// The state sequence of all segments.
    pub fn states(&self) -> Vec<BreathState> {
        if self.vertices.len() < 2 {
            return Vec::new();
        }
        self.vertices[..self.vertices.len() - 1]
            .iter()
            .map(|v| v.state)
            .collect()
    }

    /// A view of `len` consecutive segments starting at vertex
    /// `start` — i.e. vertices `start ..= start + len`. Returns `None` when
    /// out of range or `len == 0`.
    pub fn window(&self, start: usize, len: usize) -> Option<&[Vertex]> {
        if len == 0 || start + len >= self.vertices.len() {
            return None;
        }
        Some(&self.vertices[start..=start + len])
    }

    /// Root-mean-square reconstruction error of the PLR against raw
    /// samples, along `axis`. Used by tests and experiments to check the
    /// representation is faithful.
    pub fn rms_error(&self, samples: &[crate::sample::Sample], axis: usize) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut ss = 0.0;
        for s in samples {
            let p = self.position_at(s.time);
            let d = p[axis] - s.position[axis];
            ss += d * d;
        }
        (ss / samples.len() as f64).sqrt()
    }

    /// Appends a vertex to a trajectory under construction, preserving the
    /// invariants.
    pub fn push_vertex(&mut self, v: Vertex) -> Result<(), PlrError> {
        if !v.time.is_finite() || !v.position.is_finite() {
            return Err(PlrError::NonFinite {
                index: self.vertices.len(),
            });
        }
        if v.position.dim() != self.dim {
            return Err(PlrError::DimensionMismatch {
                index: self.vertices.len(),
            });
        }
        if v.time <= self.end_time() {
            return Err(PlrError::NonMonotonicTime {
                index: self.vertices.len(),
            });
        }
        self.vertices.push(v);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::BreathState::*;

    fn traj() -> PlrTrajectory {
        PlrTrajectory::from_vertices(vec![
            Vertex::new_1d(0.0, 10.0, Exhale),
            Vertex::new_1d(2.0, 0.0, EndOfExhale),
            Vertex::new_1d(3.0, 0.0, Inhale),
            Vertex::new_1d(4.5, 10.0, Exhale),
            Vertex::new_1d(6.5, 0.0, EndOfExhale),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(PlrTrajectory::from_vertices(vec![]), Err(PlrError::Empty));
        let bad_time = vec![
            Vertex::new_1d(0.0, 1.0, Exhale),
            Vertex::new_1d(0.0, 2.0, Inhale),
        ];
        assert_eq!(
            PlrTrajectory::from_vertices(bad_time),
            Err(PlrError::NonMonotonicTime { index: 1 })
        );
        let bad_dim = vec![
            Vertex::new_1d(0.0, 1.0, Exhale),
            Vertex::new(1.0, crate::position::Position::new_2d(1.0, 2.0), Inhale),
        ];
        assert_eq!(
            PlrTrajectory::from_vertices(bad_dim),
            Err(PlrError::DimensionMismatch { index: 1 })
        );
        let bad_val = vec![Vertex::new_1d(f64::NAN, 1.0, Exhale)];
        assert_eq!(
            PlrTrajectory::from_vertices(bad_val),
            Err(PlrError::NonFinite { index: 0 })
        );
    }

    #[test]
    fn counting() {
        let t = traj();
        assert_eq!(t.num_vertices(), 5);
        assert_eq!(t.num_segments(), 4);
        assert_eq!(t.duration(), 6.5);
        assert_eq!(t.segments().count(), 4);
    }

    #[test]
    fn segment_lookup() {
        let t = traj();
        assert_eq!(t.segment_index_at(-1.0), Some(0));
        assert_eq!(t.segment_index_at(0.0), Some(0));
        assert_eq!(t.segment_index_at(1.9), Some(0));
        assert_eq!(t.segment_index_at(2.0), Some(1));
        assert_eq!(t.segment_index_at(2.5), Some(1));
        assert_eq!(t.segment_index_at(4.0), Some(2));
        assert_eq!(t.segment_index_at(6.5), Some(3));
        assert_eq!(t.segment_index_at(99.0), Some(3));
    }

    #[test]
    fn interpolation_and_extrapolation() {
        let t = traj();
        assert_eq!(t.position_at(1.0)[0], 5.0);
        assert_eq!(t.position_at(2.5)[0], 0.0);
        // Past the end: extrapolate the last (EX->EOE descent) segment.
        assert_eq!(t.position_at(8.5)[0], -10.0);
    }

    #[test]
    fn state_queries() {
        let t = traj();
        assert_eq!(t.state_at(0.5), Exhale);
        assert_eq!(t.state_at(2.5), EndOfExhale);
        assert_eq!(t.state_at(3.5), Inhale);
        assert_eq!(t.states(), vec![Exhale, EndOfExhale, Inhale, Exhale]);
    }

    #[test]
    fn windows() {
        let t = traj();
        let w = t.window(1, 2).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].time, 2.0);
        assert!(t.window(3, 2).is_none());
        assert!(t.window(0, 0).is_none());
        assert!(t.window(0, 4).is_some());
        assert!(t.window(0, 5).is_none());
    }

    #[test]
    fn push_vertex_validates() {
        let mut t = traj();
        assert!(t.push_vertex(Vertex::new_1d(7.0, 5.0, Inhale)).is_ok());
        assert!(matches!(
            t.push_vertex(Vertex::new_1d(6.0, 5.0, Inhale)),
            Err(PlrError::NonMonotonicTime { .. })
        ));
        assert!(matches!(
            t.push_vertex(Vertex::new(
                8.0,
                crate::position::Position::new_2d(0.0, 0.0),
                Inhale
            )),
            Err(PlrError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rms_error_of_exact_plr_is_zero() {
        let t = traj();
        let samples: Vec<_> = (0..65)
            .map(|i| {
                let time = i as f64 * 0.1;
                crate::sample::Sample::new_1d(time, t.position_at(time)[0])
            })
            .collect();
        assert!(t.rms_error(&samples, 0) < 1e-12);
    }
}
