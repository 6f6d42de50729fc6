//! Patient similarity (paper Definition 4) and cohort distance matrices.
//!
//! "The distance between two patients is the average distance between two
//! streams, one from the first patient and the other from the second
//! patient." Patient distances feed clustering (Section 5.3), which in
//! turn feeds correlation discovery and cluster-restricted prediction.
//!
//! Every stream distance scores its windows through the matcher's gate
//! and exact kernel (see [`mod@crate::stream_distance`]). The matrix fans the
//! patient pairs out over one scoped thread per available CPU; each pair
//! is a pure function of the store, so the matrix does not depend on the
//! thread count, and a worker's panic is re-raised on the caller.

use crate::cluster::DistanceMatrix;
use crate::params::Params;
use crate::stream_distance::{stream_distance, StreamDistanceConfig};
use tsm_db::{PatientId, StreamStore};

/// The Definition-4 patient distance: the mean of all cross-stream
/// distances between the two patients' streams. For a patient against
/// themselves, distinct stream pairs are used (the diagonal of Figure 8c).
/// Returns `None` when no stream pair produces a distance (e.g. streams
/// too short).
pub fn patient_distance(
    store: &StreamStore,
    a: PatientId,
    b: PatientId,
    params: &Params,
    cfg: &StreamDistanceConfig,
) -> Option<f64> {
    let streams_a = store.streams_of(a);
    let streams_b = store.streams_of(b);
    let mut total = 0.0;
    let mut count = 0usize;
    for &ra in &streams_a {
        for &rb in &streams_b {
            if ra == rb {
                continue; // self-vs-self stream pairs are degenerate
            }
            let (sa, sb) = (store.stream(ra)?, store.stream(rb)?);
            let relation = store.relation(ra, rb)?;
            if let Some(d) = stream_distance(&sa, &sb, relation, params, cfg) {
                total += d;
                count += 1;
            }
        }
    }
    (count > 0).then(|| total / count as f64)
}

/// Builds the full symmetric patient-distance matrix for a cohort,
/// fanning the (patient-pair) work out over `crossbeam` scoped threads,
/// one per available CPU. Pairs with no defined distance are filled with
/// 1.5 × the largest observed distance (so clustering still works).
pub fn patient_distance_matrix(
    store: &StreamStore,
    params: &Params,
    cfg: &StreamDistanceConfig,
) -> DistanceMatrix {
    let patients = store.patients();
    let n = patients.len();
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect();
    let threads = std::thread::available_parallelism().map_or(4, |t| t.get());
    let chunk = pairs.len().div_ceil(threads).max(1);
    let distance =
        |&(i, j): &(usize, usize)| patient_distance(store, patients[i], patients[j], params, cfg);
    let rethrow = |panic| std::panic::resume_unwind(panic);
    let results: Vec<Option<f64>> = crossbeam::thread::scope(|scope| {
        let workers: Vec<_> = pairs
            .chunks(chunk)
            .map(|chunk| scope.spawn(move |_| chunk.iter().map(distance).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(rethrow))
            .collect()
    })
    .unwrap_or_else(rethrow);

    let max_seen = results
        .iter()
        .flatten()
        .cloned()
        .fold(0.0f64, f64::max)
        .max(1.0);
    let mut dm = DistanceMatrix::new(n);
    for (&(i, j), &d) in pairs.iter().zip(&results) {
        let v = if i == j {
            0.0
        } else {
            d.unwrap_or(max_seen * 1.5)
        };
        dm.set(i, j, v);
    }
    dm
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_db::PatientAttributes;
    use tsm_model::{BreathState::*, PlrTrajectory, Vertex};

    fn plr(n: usize, amplitude: f64, period: f64, wobble: f64) -> PlrTrajectory {
        let mut v = Vec::new();
        let mut t = 0.0;
        for i in 0..n {
            let a = amplitude * (1.0 + wobble * ((i % 3) as f64 - 1.0));
            v.push(Vertex::new_1d(t, a, Exhale));
            v.push(Vertex::new_1d(t + period * 0.4, 0.0, EndOfExhale));
            v.push(Vertex::new_1d(t + period * 0.6, 0.0, Inhale));
            t += period;
        }
        v.push(Vertex::new_1d(t, amplitude, Exhale));
        PlrTrajectory::from_vertices(v).unwrap()
    }

    /// Three patients: two deep-slow breathers, one shallow-fast.
    fn setup() -> (StreamStore, Vec<PatientId>) {
        let store = StreamStore::new();
        let specs = [(15.0, 5.0), (14.0, 4.8), (6.0, 3.0)];
        let mut ids = Vec::new();
        for (amp, per) in specs {
            let p = store.add_patient(PatientAttributes::new());
            store.add_stream(p, 0, plr(20, amp, per, 0.02), 0);
            store.add_stream(p, 1, plr(20, amp * 1.03, per * 0.98, 0.02), 0);
            ids.push(p);
        }
        (store, ids)
    }

    fn params() -> Params {
        Params {
            k_retrieve: 5,
            ..Params::default()
        }
    }

    fn cfg() -> StreamDistanceConfig {
        StreamDistanceConfig {
            len_segments: 6,
            stride: 2,
        }
    }

    #[test]
    fn self_distance_smaller_than_cross_distance() {
        let (store, ids) = setup();
        let p = params();
        let c = cfg();
        let d_self = patient_distance(&store, ids[0], ids[0], &p, &c).unwrap();
        let d_like = patient_distance(&store, ids[0], ids[1], &p, &c).unwrap();
        let d_unlike = patient_distance(&store, ids[0], ids[2], &p, &c).unwrap();
        assert!(d_self < d_like, "self {d_self} vs like {d_like}");
        assert!(d_like < d_unlike, "like {d_like} vs unlike {d_unlike}");
    }

    #[test]
    fn distance_is_symmetric() {
        let (store, ids) = setup();
        let p = params();
        let c = cfg();
        let ab = patient_distance(&store, ids[0], ids[1], &p, &c).unwrap();
        let ba = patient_distance(&store, ids[1], ids[0], &p, &c).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    /// A store with no patients gives an empty matrix (no worker gets
    /// an empty chunk of pairs).
    #[test]
    fn empty_store_gives_an_empty_matrix() {
        let dm = patient_distance_matrix(&StreamStore::new(), &params(), &cfg());
        assert_eq!(dm.len(), 0);
    }

    /// The matrix holds each pair's pointwise distance bit for bit, on
    /// whatever number of worker threads the host gives it.
    #[test]
    fn matrix_agrees_with_pointwise_distances() {
        let (store, ids) = setup();
        let p = params();
        let c = cfg();
        let dm = patient_distance_matrix(&store, &p, &c);
        assert_eq!(dm.len(), 3);
        for i in 0..3 {
            assert_eq!(dm.get(i, i), 0.0);
            for j in (i + 1)..3 {
                let d = patient_distance(&store, ids[i], ids[j], &p, &c).unwrap();
                assert_eq!(dm.get(i, j).to_bits(), d.to_bits());
                assert_eq!(dm.get(i, j), dm.get(j, i));
            }
        }
    }
}
