//! Dynamic query subsequence generation (paper Section 4.1).
//!
//! "A stability checking strip is a window of fixed size, moving from the
//! most recent portion back to historical data. ... If the subsequence is
//! stable, the strip halts. If not, the strip will move one vertex back
//! ... until a stable subsequence is found, or there are `L_max` vertices
//! for the query subsequence. The query subsequence is from the beginning
//! vertex of the last strip to the most recent vertex."
//!
//! Consequently: "breathing with high regularity will have shorter query
//! sequences, while breathing with low regularity tends to have longer
//! query subsequences."

use crate::params::Params;
use tsm_model::Vertex;

/// Outcome of dynamic query generation over a live vertex buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Index (into the supplied vertex slice) of the query's first vertex.
    pub start: usize,
    /// Query length in segments.
    pub len: usize,
    /// Whether the halting strip was stable (false means the strip walked
    /// back to `L_max` without finding stability).
    pub stable: bool,
    /// Stability statistic of the final strip.
    pub strip_stability: f64,
}

impl QueryOutcome {
    /// The query's vertex slice within the buffer it was generated from.
    pub fn vertices<'a>(&self, buffer: &'a [Vertex]) -> &'a [Vertex] {
        &buffer[self.start..=self.start + self.len]
    }
}

/// Generates the query subsequence from the most recent motion in
/// `vertices` (the live PLR buffer, oldest first).
///
/// The strip size is `L_min` segments (so a stable recent pattern yields
/// the minimum-length query, as in the paper's Figure 5 where
/// `L_min = 3` cycles); each backwards move grows the query by one
/// segment, up to `L_max` segments. Returns `None` when the buffer holds
/// fewer than `L_min` segments.
pub fn generate_query(vertices: &[Vertex], params: &Params) -> Option<QueryOutcome> {
    let strip = params.lmin_segments();
    let lmax = params.lmax_segments();
    let n_seg = vertices.len().checked_sub(1)?;
    if n_seg < strip || strip == 0 {
        return None;
    }
    let end = vertices.len() - 1; // index of the most recent vertex
    let max_len = lmax.min(n_seg);

    // The strip initially covers the most recent `strip` segments and
    // moves back one vertex at a time.
    let mut query_len = strip;
    loop {
        let strip_start = end - query_len; // strip = first `strip` segs of query
        let strip_vertices = &vertices[strip_start..=strip_start + strip];
        let sigma = crate::stability::stability(strip_vertices, params);
        let stable = sigma <= params.theta;
        if stable || query_len >= max_len {
            return Some(QueryOutcome {
                start: end - query_len,
                len: query_len,
                stable,
                strip_stability: sigma,
            });
        }
        query_len += 1;
    }
}

/// Fixed-length query generation — the baseline the paper compares
/// against in Figure 7a. Takes the most recent `len_segments` segments
/// regardless of stability. Returns `None` when the buffer is too short.
pub fn fixed_query(vertices: &[Vertex], len_segments: usize) -> Option<QueryOutcome> {
    let n_seg = vertices.len().checked_sub(1)?;
    if len_segments == 0 || n_seg < len_segments {
        return None;
    }
    Some(QueryOutcome {
        start: vertices.len() - 1 - len_segments,
        len: len_segments,
        stable: true,
        strip_stability: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_model::BreathState::*;

    fn regular_cycles(n: usize, amplitude: f64) -> Vec<Vertex> {
        let mut v = Vec::new();
        let mut t = 0.0;
        for _ in 0..n {
            v.push(Vertex::new_1d(t, amplitude, Exhale));
            v.push(Vertex::new_1d(t + 1.5, 0.0, EndOfExhale));
            v.push(Vertex::new_1d(t + 2.5, 0.0, Inhale));
            t += 4.0;
        }
        v.push(Vertex::new_1d(t, amplitude, Exhale));
        v
    }

    /// Cycles whose amplitude swings wildly (unstable everywhere).
    fn erratic_cycles(n: usize) -> Vec<Vertex> {
        let mut v = Vec::new();
        let mut t = 0.0;
        for i in 0..n {
            let a = if i % 2 == 0 { 3.0 } else { 20.0 };
            let period = if i % 3 == 0 { 2.0 } else { 6.0 };
            v.push(Vertex::new_1d(t, a, Exhale));
            v.push(Vertex::new_1d(t + period * 0.4, 0.0, EndOfExhale));
            v.push(Vertex::new_1d(t + period * 0.6, 0.0, Inhale));
            t += period;
        }
        v.push(Vertex::new_1d(t, 3.0, Exhale));
        v
    }

    #[test]
    fn stable_breathing_yields_minimum_length() {
        let p = Params::default();
        let buffer = regular_cycles(12, 10.0);
        let q = generate_query(&buffer, &p).unwrap();
        assert_eq!(q.len, p.lmin_segments());
        assert!(q.stable);
        assert_eq!(q.start + q.len, buffer.len() - 1);
        assert_eq!(q.vertices(&buffer).len(), q.len + 1);
    }

    #[test]
    fn erratic_breathing_yields_maximum_length() {
        let p = Params {
            theta: 0.5, // strict, so the erratic strip never stabilizes
            ..Params::default()
        };
        let buffer = erratic_cycles(12);
        let q = generate_query(&buffer, &p).unwrap();
        assert_eq!(q.len, p.lmax_segments());
        assert!(!q.stable);
    }

    #[test]
    fn recently_stabilized_breathing_stops_at_the_transition() {
        let p = Params {
            theta: 1.0,
            ..Params::default()
        };
        // Erratic history followed by enough regular cycles for a stable
        // strip at minimum length.
        let mut buffer = erratic_cycles(6);
        let t0 = buffer.last().unwrap().time;
        let tail: Vec<Vertex> = regular_cycles(4, 10.0)
            .into_iter()
            .skip(1)
            .map(|v| Vertex::new_1d(v.time + t0, v.position[0], v.state))
            .collect();
        buffer.extend(tail);
        let q = generate_query(&buffer, &p).unwrap();
        assert!(q.stable);
        assert_eq!(q.len, p.lmin_segments(), "stable tail should halt strip");
    }

    #[test]
    fn query_always_ends_at_most_recent_vertex() {
        let p = Params::default();
        for buffer in [regular_cycles(10, 8.0), erratic_cycles(10)] {
            let q = generate_query(&buffer, &p).unwrap();
            assert_eq!(q.start + q.len, buffer.len() - 1);
            assert!(q.len >= p.lmin_segments());
            assert!(q.len <= p.lmax_segments());
        }
    }

    #[test]
    fn too_short_buffers_yield_none() {
        let p = Params::default();
        let buffer = regular_cycles(2, 10.0); // 6 segments < lmin 9
        assert_eq!(generate_query(&buffer, &p), None);
        assert_eq!(generate_query(&[], &p), None);
    }

    #[test]
    fn lmax_respects_buffer_size() {
        // Buffer shorter than lmax but longer than lmin: the query can use
        // at most what exists.
        let p = Params {
            theta: 0.0001,
            lmin_cycles: 2,
            lmax_cycles: 100,
            ..Params::default()
        };
        let buffer = erratic_cycles(5); // 15 segments
        let q = generate_query(&buffer, &p).unwrap();
        assert_eq!(q.len, 15);
        assert!(!q.stable);
    }

    #[test]
    fn fixed_query_takes_the_tail() {
        let buffer = regular_cycles(6, 10.0);
        let q = fixed_query(&buffer, 9).unwrap();
        assert_eq!(q.len, 9);
        assert_eq!(q.start + q.len, buffer.len() - 1);
        assert!(fixed_query(&buffer, 100).is_none());
        assert!(fixed_query(&buffer, 0).is_none());
    }

    #[test]
    fn smaller_theta_gives_longer_queries() {
        // Figure 7b: query length increases as the stability threshold
        // decreases.
        let buffer = {
            // Mildly wobbly breathing.
            let mut v = Vec::new();
            let mut t = 0.0;
            for i in 0..14 {
                let a = 10.0 + (i % 3) as f64 * 1.5;
                v.push(Vertex::new_1d(t, a, Exhale));
                v.push(Vertex::new_1d(t + 1.5, 0.0, EndOfExhale));
                v.push(Vertex::new_1d(t + 2.5, 0.0, Inhale));
                t += 4.0 + (i % 2) as f64 * 0.4;
            }
            v.push(Vertex::new_1d(t, 10.0, Exhale));
            v
        };
        let mut lengths = Vec::new();
        for theta in [10.0, 2.0, 0.5, 0.05] {
            let p = Params {
                theta,
                ..Params::default()
            };
            lengths.push(generate_query(&buffer, &p).unwrap().len);
        }
        assert!(
            lengths.windows(2).all(|w| w[0] <= w[1]),
            "lengths not monotone in 1/theta: {lengths:?}"
        );
        assert!(lengths.last() > lengths.first());
    }
}
