//! Feature index: state-order buckets with amplitude/duration summaries
//! for lower-bound pruning.
//!
//! Keying windows by their packed state-order signature turns Definition
//! 2's state-order gate into a hash lookup; this index goes further. Each
//! candidate window is stored with two cheap summaries — the sum of
//! absolute segment displacements `S` and the window duration `T`.
//! Triangle inequality gives lower bounds on the weighted distance of any
//! query/candidate pair:
//!
//! ```text
//! Σᵢ |dq_i − dc_i|  ≥  |Σᵢ(|dq_i| − |dc_i|)|  =  |S_q − S_c|
//! Σᵢ |Tq_i − Tc_i|  ≥  |Σᵢ(Tq_i − Tc_i)|      =  |T_q − T_c|
//! ```
//!
//! so candidates whose amplitude *or* duration summary differs too much
//! cannot be within δ and are skipped without touching their features.
//! Entries are sorted by `S` within each state-order bucket, making the
//! amplitude band a binary search; the duration band filters the
//! surviving slice. The matcher's pruned plan re-checks every survivor
//! with the exact distance, so results are identical to the scan
//! (property-tested in `tsm-core`).
//!
//! Construction runs on the store's columnar [`SegmentFeatures`]
//! snapshot: window summaries are prefix-sum subtractions and state
//! signatures roll forward one shift/mask per window, so a build is
//! `O(total segments)` instead of the naive `O(windows × len)`.

use crate::features::SegmentFeatures;
use crate::ids::StreamId;
use crate::store::StreamStore;
use crate::subsequence::SubseqRef;
use std::collections::HashMap;
use tsm_model::MAX_SIGNATURE_LEN;

/// One indexed window: its reference plus the prune summaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureEntry {
    /// The window.
    pub subseq: SubseqRef,
    /// Owning stream (duplicated from `subseq` for cheap ws lookup).
    pub stream: StreamId,
    /// Sum of absolute segment displacements along the index axis (mm).
    pub amp_sum: f64,
    /// Window duration (s).
    pub duration: f64,
}

/// How many entries each pruning tier of one banded lookup saw (the
/// matcher's metrics layer records these per search).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BandCounts {
    /// Entries in the signature bucket (first tier, before any band).
    pub bucket: usize,
    /// Entries surviving the amplitude band (second tier).
    pub amp_band: usize,
}

/// The index: state-order signature → entries sorted by `amp_sum`.
#[derive(Debug, Clone)]
pub struct FeatureIndex {
    len: usize,
    axis: usize,
    map: HashMap<u128, Vec<FeatureEntry>>,
    total: usize,
}

impl FeatureIndex {
    /// Builds the index for windows of `len` segments, summarizing along
    /// `axis`. Uses the store's cached columnar feature snapshot, so
    /// repeated builds (different lengths, or rebuilt after appends) pay
    /// feature extraction only for streams not seen before.
    pub fn build(store: &StreamStore, len: usize, axis: usize) -> Self {
        if len == 0 || len > MAX_SIGNATURE_LEN {
            return FeatureIndex {
                len,
                axis,
                map: HashMap::new(),
                total: 0,
            };
        }
        Self::from_features(&store.segment_features(axis), len)
    }

    /// Builds the index for windows of `len` segments directly from a
    /// columnar feature snapshot (`1 <= len <= MAX_SIGNATURE_LEN`).
    pub fn from_features(features: &SegmentFeatures, len: usize) -> Self {
        let axis = features.axis();
        let mut map: HashMap<u128, Vec<FeatureEntry>> = HashMap::new();
        let mut total = 0usize;
        if len == 0 || len > MAX_SIGNATURE_LEN {
            return FeatureIndex {
                len,
                axis,
                map,
                total,
            };
        }
        // Rolling signature bookkeeping: a signature is the leading-1
        // length marker followed by 2 bits per state, oldest state in the
        // highest bits. Sliding the window drops the oldest state (the top
        // 2 bits under the marker) and appends the newest.
        let marker: u128 = 1 << (2 * len);
        let keep_mask: u128 = (1 << (2 * (len - 1))) - 1;
        for sf in features.streams() {
            let nseg = sf.num_segments();
            if nseg < len {
                continue;
            }
            let mut body: u128 = 0;
            for &s in &sf.states[..len] {
                body = (body << 2) | s as u128;
            }
            for start in 0..=(nseg - len) {
                if start > 0 {
                    body = ((body & keep_mask) << 2) | sf.states[start + len - 1] as u128;
                }
                map.entry(marker | body).or_default().push(FeatureEntry {
                    subseq: SubseqRef::new(sf.meta.id, start, len),
                    stream: sf.meta.id,
                    amp_sum: sf.amp_sum(start, len),
                    duration: sf.times[start + len] - sf.times[start],
                });
                total += 1;
            }
        }
        // Stable sort: amp_sum ties keep (stream, start) insertion order,
        // so band iteration is deterministic.
        for entries in map.values_mut() {
            entries.sort_by(|a, b| a.amp_sum.total_cmp(&b.amp_sum));
        }
        FeatureIndex {
            len,
            axis,
            map,
            total,
        }
    }

    /// Window length this index covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total indexed windows.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The summary axis.
    pub fn axis(&self) -> usize {
        self.axis
    }

    /// Candidates with the given state order whose amplitude summary lies
    /// within `[amp_sum - amp_band, amp_sum + amp_band]` **and** whose
    /// duration summary lies within `[duration - dur_band, duration +
    /// dur_band]` — everything outside cannot be within the corresponding
    /// distance threshold. The amplitude band is a binary search over the
    /// sorted bucket; the duration band filters the surviving slice.
    ///
    /// Also reports how many entries each pruning tier saw (for
    /// instrumentation): the whole signature bucket, then the
    /// amplitude-band survivors. Duration-band survivors are whatever the
    /// returned iterator yields.
    pub fn candidates_in_band_counted(
        &self,
        signature: u128,
        amp_sum: f64,
        amp_band: f64,
        duration: f64,
        dur_band: f64,
    ) -> (impl Iterator<Item = &FeatureEntry>, BandCounts) {
        let bucket = self.candidates(signature);
        let lo = bucket.partition_point(|e| e.amp_sum < amp_sum - amp_band);
        let hi = bucket.partition_point(|e| e.amp_sum <= amp_sum + amp_band);
        let counts = BandCounts {
            bucket: bucket.len(),
            amp_band: hi - lo,
        };
        let iter = bucket[lo..hi]
            .iter()
            .filter(move |e| (e.duration - duration).abs() <= dur_band);
        (iter, counts)
    }

    /// All candidates with the given state order (no pruning).
    pub fn candidates(&self, signature: u128) -> &[FeatureEntry] {
        self.map.get(&signature).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PatientAttributes;
    use tsm_model::{state_signature, BreathState::*, PlrTrajectory, Vertex};

    fn store() -> StreamStore {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        for amp_scale in [1.0f64, 1.5] {
            let mut v = Vec::new();
            let mut t = 0.0;
            for i in 0..6 {
                let amp = amp_scale * (10.0 + i as f64 * 0.5);
                v.push(Vertex::new_1d(t, amp, Exhale));
                v.push(Vertex::new_1d(t + 1.5, 0.0, EndOfExhale));
                v.push(Vertex::new_1d(t + 2.5, 0.0, Inhale));
                t += 4.0;
            }
            v.push(Vertex::new_1d(t, amp_scale * 10.0, Exhale));
            store.add_stream(p, 0, PlrTrajectory::from_vertices(v).unwrap(), 720);
        }
        store
    }

    #[test]
    fn index_counts_match_enumeration() {
        let store = store();
        for len in [1usize, 3, 6, 9] {
            let ix = FeatureIndex::build(&store, len, 0);
            assert_eq!(ix.total(), store.all_subsequences(len).len());
        }
    }

    #[test]
    fn rolling_signatures_match_direct_recomputation() {
        let store = store();
        for len in [1usize, 2, 5, 9] {
            let ix = FeatureIndex::build(&store, len, 0);
            let mut seen = 0usize;
            for stream in store.streams() {
                let states = stream.plr.states();
                for start in 0..=(states.len().saturating_sub(len)) {
                    if start + len > states.len() {
                        continue;
                    }
                    let sig = state_signature(states[start..start + len].iter().copied()).unwrap();
                    let hit = ix
                        .candidates(sig)
                        .iter()
                        .any(|e| e.stream == stream.meta.id && e.subseq.start as usize == start);
                    assert!(hit, "window ({}, {start}) missing", stream.meta.id);
                    seen += 1;
                }
            }
            assert_eq!(seen, ix.total(), "len {len}");
        }
    }

    #[test]
    fn prefix_summaries_match_direct_computation() {
        let store = store();
        let ix = FeatureIndex::build(&store, 6, 0);
        let sig =
            state_signature([Exhale, EndOfExhale, Inhale, Exhale, EndOfExhale, Inhale]).unwrap();
        let entries = ix.candidates(sig);
        assert!(!entries.is_empty());
        for e in entries {
            let view = store.resolve(e.subseq).unwrap();
            let direct: f64 = view.segments().map(|s| s.displacement(0).abs()).sum();
            assert!(
                (direct - e.amp_sum).abs() < 1e-9,
                "prefix {} vs direct {direct}",
                e.amp_sum
            );
            assert!((view.duration() - e.duration).abs() < 1e-9);
        }
    }

    #[test]
    fn buckets_are_sorted_and_band_queries_are_correct() {
        let store = store();
        let ix = FeatureIndex::build(&store, 3, 0);
        let sig = state_signature([Exhale, EndOfExhale, Inhale]).unwrap();
        let all = ix.candidates(sig);
        assert!(!all.is_empty());
        for w in all.windows(2) {
            assert!(w[0].amp_sum <= w[1].amp_sum);
        }
        let mid = all[all.len() / 2];
        let band = 2.0;
        let in_band = |sig, amp_band, duration, dur_band| {
            let (iter, counts) =
                ix.candidates_in_band_counted(sig, mid.amp_sum, amp_band, duration, dur_band);
            (iter.copied().collect::<Vec<_>>(), counts)
        };
        // Infinite duration band: equals the pure amplitude filter.
        let (amp_only, counts) = in_band(sig, band, 0.0, f64::INFINITY);
        let brute: Vec<_> = all
            .iter()
            .filter(|e| (e.amp_sum - mid.amp_sum).abs() <= band + 1e-12)
            .copied()
            .collect();
        assert_eq!(amp_only, brute);
        assert_eq!(counts.bucket, all.len());
        assert_eq!(counts.amp_band, brute.len());
        // A finite duration band prunes further and matches brute force.
        let dur_band = 0.5;
        let (both, counts) = in_band(sig, band, mid.duration, dur_band);
        let brute_both: Vec<_> = brute
            .iter()
            .filter(|e| (e.duration - mid.duration).abs() <= dur_band)
            .copied()
            .collect();
        assert_eq!(both, brute_both);
        assert_eq!(counts.amp_band, brute.len());
        assert!(both.len() <= amp_only.len());
        // Zero bands still contain the window itself.
        assert!(!in_band(sig, 1e-9, mid.duration, 1e-9).0.is_empty());
        // Unknown signature: empty.
        let none = state_signature([Irregular, Irregular, Irregular]).unwrap();
        let (hits, counts) = in_band(none, 1e9, 0.0, 1e9);
        assert!(hits.is_empty());
        assert_eq!(counts, BandCounts::default());
    }

    #[test]
    fn builds_from_cached_features_match_store_builds() {
        let store = store();
        let features = store.segment_features(0);
        for len in [3usize, 6] {
            let a = FeatureIndex::build(&store, len, 0);
            let b = FeatureIndex::from_features(&features, len);
            assert_eq!(a.total(), b.total());
            let sig = state_signature(
                vec![Exhale, EndOfExhale, Inhale]
                    .into_iter()
                    .cycle()
                    .take(len),
            )
            .unwrap();
            assert_eq!(a.candidates(sig), b.candidates(sig));
        }
    }

    #[test]
    fn degenerate_lengths() {
        let store = store();
        assert!(FeatureIndex::build(&store, 0, 0).is_empty());
        assert!(FeatureIndex::build(&store, 61, 0).is_empty());
    }
}
