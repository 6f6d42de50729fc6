//! The in-memory stream store.

use crate::features::SegmentFeatures;
use crate::ids::{PatientId, StreamId};
use crate::stream::{MotionStream, StreamMeta};
use crate::subsequence::{SubseqRef, SubseqView};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tsm_model::PlrTrajectory;

/// Free-form patient attributes ("sex", "age", "tumor_site", ...) used by
/// the correlation-discovery application. A `BTreeMap` keeps iteration
/// deterministic.
pub type PatientAttributes = BTreeMap<String, String>;

/// Errors from checked store mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The referenced patient does not exist — streams cannot be orphaned.
    UnknownPatient(PatientId),
    /// The stream's PLR contains a NaN or infinite value. Letting one in
    /// would silently poison every `total_cmp`-ordered top-k downstream,
    /// so it is rejected at the door.
    NonFiniteData {
        /// Index of the first offending vertex.
        vertex: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownPatient(p) => write!(f, "unknown patient {p}"),
            StoreError::NonFiniteData { vertex } => {
                write!(f, "non-finite value at vertex {vertex}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Relative provenance of two streams — the three tiers of the paper's
/// source-stream weight `ws`: subsequences from the same session matter
/// most, those from other sessions of the same patient less, those from a
/// different patient least.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceRelation {
    /// Same patient, same treatment session (includes the same stream).
    SameSession,
    /// Same patient, different session.
    SamePatient,
    /// Different patient.
    OtherPatient,
}

#[derive(Debug, Default)]
struct Inner {
    patients: Vec<PatientAttributes>,
    /// The stream table, shared with every [`StreamStore::streams`]
    /// snapshot: an insert copies it only while a snapshot is alive.
    streams: Arc<Vec<Arc<MotionStream>>>,
    by_patient: BTreeMap<PatientId, Vec<StreamId>>,
}

/// The shared-ownership handle the online path passes around: every
/// matcher, index cache and session runtime holds one of these, so a
/// whole cohort of concurrent sessions searches the *same* database —
/// one mutation through any handle (a persisted session, say) is
/// immediately visible to every other holder, and the store's
/// [`StreamStore::version`] counter observed through any handle agrees.
///
/// `Arc<StreamStore>` rather than a by-value [`StreamStore`] makes the
/// sharing explicit in signatures: a constructor taking
/// `impl Into<SharedStore>` accepts either an existing shared handle
/// (`shared.clone()` — one atomic increment) or a bare store (wrapped
/// once). Nothing on the online path ever deep-copies stream data.
pub type SharedStore = Arc<StreamStore>;

/// The hierarchical stream database: patient records, each with a set of
/// PLR streams (grouped into sessions).
///
/// Cloning the store clones a handle to the same shared data.
#[derive(Debug, Default, Clone)]
pub struct StreamStore {
    inner: Arc<RwLock<Inner>>,
    /// Mutation counter, bumped with `Release` by writers *while still
    /// holding the write lock* and read lock-free with `Acquire` by
    /// [`StreamStore::version`]. The pairing guarantees that a version
    /// observed through any handle covers every mutation up to it —
    /// the protocol the `schedcheck` version-protocol model proves.
    version: Arc<AtomicU64>,
    /// Lazily built columnar feature snapshot, shared across handles and
    /// invalidated by the version counter (see [`StreamStore::segment_features`]).
    features: Arc<Mutex<Option<Arc<SegmentFeatures>>>>,
}

impl StreamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps this handle into a [`SharedStore`] for the online path. The
    /// underlying data is shared either way; this only adds the `Arc`
    /// that session runtimes and matchers thread between themselves.
    pub fn into_shared(self) -> SharedStore {
        Arc::new(self)
    }

    /// A [`SharedStore`] handle over the same data as `self`.
    pub fn shared(&self) -> SharedStore {
        Arc::new(self.clone())
    }

    /// Registers a patient record and returns its id.
    pub fn add_patient(&self, attributes: PatientAttributes) -> PatientId {
        let mut g = self.inner.write();
        let id = PatientId(g.patients.len() as u32);
        g.patients.push(attributes);
        g.by_patient.insert(id, Vec::new());
        // Release-publish under the write lock: a lock-free version()
        // read that observes this bump also observes the insert above.
        self.version.fetch_add(1, Ordering::Release);
        id
    }

    /// Adds a segmented stream for `patient`, recorded in `session`.
    ///
    /// # Panics
    /// Panics if `patient` is unknown (streams cannot be orphaned) or the
    /// PLR contains non-finite values. Fallible callers should use
    /// [`StreamStore::try_add_stream`].
    pub fn add_stream(
        &self,
        patient: PatientId,
        session: u32,
        plr: PlrTrajectory,
        raw_len: usize,
    ) -> StreamId {
        self.try_add_stream(patient, session, plr, raw_len)
            // lint:allow(no-unwrap-in-lib): documented panicking API; the
            // fallible path is try_add_stream.
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked variant of [`StreamStore::add_stream`]: rejects unknown
    /// patients and non-finite vertex data instead of panicking, leaving
    /// the store untouched on error.
    pub fn try_add_stream(
        &self,
        patient: PatientId,
        session: u32,
        plr: PlrTrajectory,
        raw_len: usize,
    ) -> Result<StreamId, StoreError> {
        if let Some(vertex) = plr
            .vertices()
            .iter()
            .position(|v| !v.time.is_finite() || !v.position.is_finite())
        {
            return Err(StoreError::NonFiniteData { vertex });
        }
        let mut g = self.inner.write();
        if (patient.0 as usize) >= g.patients.len() {
            return Err(StoreError::UnknownPatient(patient));
        }
        let id = StreamId(g.streams.len() as u32);
        Arc::make_mut(&mut g.streams).push(Arc::new(MotionStream {
            meta: StreamMeta {
                id,
                patient,
                session,
            },
            plr,
            raw_len,
        }));
        // The patient was bounds-checked above; `or_default` only keeps
        // this branch panic-free, it can never create a new entry.
        g.by_patient.entry(patient).or_default().push(id);
        // Release-publish under the write lock: a lock-free version()
        // read that observes this bump also observes the insert above.
        self.version.fetch_add(1, Ordering::Release);
        Ok(id)
    }

    /// Monotone mutation counter: any insert bumps it, so an index built
    /// at version `v` is exactly up to date while `version() == v`.
    ///
    /// Lock-free: this is the `Acquire` consume side of the publish
    /// protocol (writers bump with `Release` while holding the write
    /// lock), so hot paths can poll it without contending with writers.
    /// A read here may trail an in-flight insert — callers that tag
    /// caches with a pre-build version then merely rebuild once more.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The columnar per-segment feature snapshot for `axis`, building it
    /// on first use and rebuilding only what changed since: streams are
    /// immutable once inserted, so a stale snapshot keeps every
    /// already-extracted stream and only new streams pay extraction cost.
    /// The result is a consistent view — it reflects exactly the streams
    /// present at its [`SegmentFeatures::version`].
    pub fn segment_features(&self, axis: usize) -> Arc<SegmentFeatures> {
        // A snapshot at the current version reflects exactly the streams
        // present now: serve it without touching the stream table.
        if let Some(cached) = self.features.lock().as_ref() {
            if cached.version() == self.version() && cached.axis() == axis {
                return cached.clone();
            }
        }
        // Snapshot streams + version under one read guard so the pair is
        // consistent even while writers insert concurrently: writers
        // bump the counter while holding the write lock, so no bump can
        // interleave with this read-locked section.
        let (streams, version) = {
            let g = self.inner.read();
            (Arc::clone(&g.streams), self.version.load(Ordering::Acquire))
        };
        let mut cache = self.features.lock();
        if let Some(cached) = cache.as_ref() {
            if cached.version() == version && cached.axis() == axis {
                return cached.clone();
            }
        }
        let built = Arc::new(SegmentFeatures::build(
            &streams,
            axis,
            version,
            cache.as_deref(),
        ));
        *cache = Some(built.clone());
        built
    }

    /// Number of patients.
    pub fn num_patients(&self) -> usize {
        self.inner.read().patients.len()
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.inner.read().streams.len()
    }

    /// All patient ids.
    pub fn patients(&self) -> Vec<PatientId> {
        (0..self.num_patients() as u32).map(PatientId).collect()
    }

    /// Attributes of a patient.
    pub fn patient_attributes(&self, id: PatientId) -> Option<PatientAttributes> {
        self.inner.read().patients.get(id.0 as usize).cloned()
    }

    /// The stream with the given id.
    pub fn stream(&self, id: StreamId) -> Option<Arc<MotionStream>> {
        self.inner.read().streams.get(id.0 as usize).cloned()
    }

    /// All streams, in insertion order (a stream's id is its index): a
    /// snapshot of the stream table, which costs one `Arc` clone however
    /// many streams the store holds.
    pub fn streams(&self) -> Arc<Vec<Arc<MotionStream>>> {
        Arc::clone(&self.inner.read().streams)
    }

    /// Ids of all streams belonging to `patient`.
    pub fn streams_of(&self, patient: PatientId) -> Vec<StreamId> {
        self.inner
            .read()
            .by_patient
            .get(&patient)
            .cloned()
            .unwrap_or_default()
    }

    /// Resolves a subsequence reference to a view.
    pub fn resolve(&self, r: SubseqRef) -> Option<SubseqView> {
        let stream = self.stream(r.stream)?;
        SubseqView::new(stream, r)
    }

    /// Provenance relation between two streams.
    pub fn relation(&self, a: StreamId, b: StreamId) -> Option<SourceRelation> {
        let g = self.inner.read();
        let ma = g.streams.get(a.0 as usize)?.meta;
        let mb = g.streams.get(b.0 as usize)?.meta;
        Some(if ma.patient != mb.patient {
            SourceRelation::OtherPatient
        } else if ma.session != mb.session {
            SourceRelation::SamePatient
        } else {
            SourceRelation::SameSession
        })
    }

    /// Every subsequence reference of exactly `len` segments, across all
    /// streams (for a stream with `m` segments there are `m - len + 1`).
    pub fn all_subsequences(&self, len: usize) -> Vec<SubseqRef> {
        let g = self.inner.read();
        let mut out = Vec::new();
        for s in g.streams.iter() {
            let nseg = s.plr.num_segments();
            if nseg >= len && len > 0 {
                for start in 0..=(nseg - len) {
                    out.push(SubseqRef::new(s.meta.id, start, len));
                }
            }
        }
        out
    }

    /// Total vertices stored, across all streams.
    pub fn total_vertices(&self) -> usize {
        self.inner
            .read()
            .streams
            .iter()
            .map(|s| s.plr.num_vertices())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_model::{BreathState::*, Vertex};

    fn plr(n_cycles: usize) -> PlrTrajectory {
        let mut v = Vec::new();
        let mut t = 0.0;
        for _ in 0..n_cycles {
            v.push(Vertex::new_1d(t, 10.0, Exhale));
            v.push(Vertex::new_1d(t + 1.5, 0.0, EndOfExhale));
            v.push(Vertex::new_1d(t + 2.5, 0.0, Inhale));
            t += 4.0;
        }
        v.push(Vertex::new_1d(t, 10.0, Exhale));
        PlrTrajectory::from_vertices(v).unwrap()
    }

    fn store_with_two_patients() -> (StreamStore, Vec<StreamId>) {
        let store = StreamStore::new();
        let p0 = store.add_patient(PatientAttributes::new());
        let p1 = store.add_patient(PatientAttributes::new());
        let ids = vec![
            store.add_stream(p0, 0, plr(5), 500),
            store.add_stream(p0, 0, plr(5), 500),
            store.add_stream(p0, 1, plr(5), 500),
            store.add_stream(p1, 0, plr(5), 500),
        ];
        (store, ids)
    }

    #[test]
    fn hierarchy_bookkeeping() {
        let (store, ids) = store_with_two_patients();
        assert_eq!(store.num_patients(), 2);
        assert_eq!(store.num_streams(), 4);
        assert_eq!(store.streams_of(PatientId(0)), ids[..3].to_vec());
        assert_eq!(store.streams_of(PatientId(1)), ids[3..].to_vec());
        assert_eq!(store.patients(), vec![PatientId(0), PatientId(1)]);
    }

    #[test]
    fn relations() {
        let (store, ids) = store_with_two_patients();
        assert_eq!(
            store.relation(ids[0], ids[0]),
            Some(SourceRelation::SameSession)
        );
        assert_eq!(
            store.relation(ids[0], ids[1]),
            Some(SourceRelation::SameSession)
        );
        assert_eq!(
            store.relation(ids[0], ids[2]),
            Some(SourceRelation::SamePatient)
        );
        assert_eq!(
            store.relation(ids[0], ids[3]),
            Some(SourceRelation::OtherPatient)
        );
        assert_eq!(store.relation(ids[0], StreamId(99)), None);
    }

    #[test]
    fn subsequence_enumeration() {
        let (store, _) = store_with_two_patients();
        // Each stream: 5 cycles -> 15 segments; len 6 -> 10 windows each.
        let subs = store.all_subsequences(6);
        assert_eq!(subs.len(), 4 * 10);
        // Longer than any stream: none.
        assert!(store.all_subsequences(16).is_empty());
        assert!(store.all_subsequences(0).is_empty());
        // Every reference resolves.
        for r in subs {
            assert!(store.resolve(r).is_some());
        }
    }

    #[test]
    fn resolve_rejects_bad_refs() {
        let (store, ids) = store_with_two_patients();
        assert!(store.resolve(SubseqRef::new(ids[0], 0, 15)).is_some());
        assert!(store.resolve(SubseqRef::new(ids[0], 0, 16)).is_none());
        assert!(store.resolve(SubseqRef::new(StreamId(99), 0, 1)).is_none());
    }

    #[test]
    #[should_panic(expected = "unknown patient")]
    fn orphan_streams_rejected() {
        let store = StreamStore::new();
        store.add_stream(PatientId(0), 0, plr(1), 10);
    }

    #[test]
    fn non_finite_data_cannot_enter_the_store() {
        // The PLR constructor is the only way to build a trajectory and it
        // rejects non-finite values, so the store's own NonFiniteData
        // check is defense in depth — assert the front gate holds.
        let bad = PlrTrajectory::from_vertices(vec![
            Vertex::new_1d(0.0, 1.0, Exhale),
            Vertex::new_1d(1.0, f64::NAN, EndOfExhale),
            Vertex::new_1d(2.0, 0.0, Inhale),
        ]);
        assert!(bad.is_err(), "NaN trajectory must not construct");

        // Unknown patients surface as an error through the checked path,
        // leaving the store untouched.
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        assert_eq!(
            store.try_add_stream(PatientId(9), 0, plr(1), 10),
            Err(StoreError::UnknownPatient(PatientId(9)))
        );
        assert_eq!(store.num_streams(), 0);
        let v0 = store.version();
        assert!(store.try_add_stream(p, 0, plr(1), 10).is_ok());
        assert_eq!(store.version(), v0 + 1);
    }

    #[test]
    fn attributes_roundtrip() {
        let store = StreamStore::new();
        let mut attrs = PatientAttributes::new();
        attrs.insert("tumor_site".into(), "LungLowerLobe".into());
        let p = store.add_patient(attrs.clone());
        assert_eq!(store.patient_attributes(p), Some(attrs));
        assert_eq!(store.patient_attributes(PatientId(9)), None);
    }

    #[test]
    fn clones_share_state() {
        let (store, _) = store_with_two_patients();
        let handle = store.clone();
        let p = handle.add_patient(PatientAttributes::new());
        assert_eq!(store.num_patients(), 3);
        assert_eq!(store.patients().last(), Some(&p));
    }

    /// The lock-free version counter agrees across handles and counts
    /// every mutation exactly once under concurrent writers, and any
    /// version observed covers at least that many streams.
    #[test]
    fn version_counts_concurrent_mutations_exactly() {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let v_base = store.version();
        let writers = 4;
        let inserts = 8;
        std::thread::scope(|scope| {
            for _ in 0..writers {
                let handle = store.clone();
                scope.spawn(move || {
                    for _ in 0..inserts {
                        handle.add_stream(p, 0, plr(1), 10);
                        // Publish/consume pair: an observed version bump
                        // implies the stream that caused it is visible.
                        let seen = handle.version();
                        assert!(handle.num_streams() as u64 >= seen - v_base);
                    }
                });
            }
        });
        assert_eq!(store.version(), v_base + writers * inserts);
        assert_eq!(store.num_streams(), (writers * inserts) as usize);
    }
}
