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
//! widest amplitude band a binary search
//! ([`FeatureIndex::candidates_in_amp_range`]); the matcher's pruned plan
//! narrows each entry of that range to the bands of its own source tier
//! and re-checks every survivor with the exact distance, so results are
//! identical to the scan (property-tested in `tsm-core`).
//!
//! Construction runs on the store's columnar [`SegmentFeatures`]
//! snapshot: state signatures roll forward one shift/mask per window, and
//! each amplitude summary is a direct forward sum over its window
//! ([`crate::abs_disp_sum`], the query side's expression), so a build
//! costs `O(windows × len)` additions and no feature extraction.
//!
//! The store only appends streams, and stream ids are dense insertion
//! indices, so an index records how many streams it covers and
//! [`FeatureIndex::extended`] brings a stale one up to date from the
//! streams added since: it sorts the new windows of each touched bucket
//! and merges them in, amplitude ties keeping lower stream ids first.
//! That is the order of a build from scratch over the final snapshot, so
//! the extended index equals it entry for entry.

use crate::features::SegmentFeatures;
use crate::ids::StreamId;
use crate::store::StreamStore;
use crate::subsequence::SubseqRef;
use std::cmp::Ordering;
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

/// The index: state-order signature → entries sorted by `amp_sum`, ties
/// in `(stream, start)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureIndex {
    len: usize,
    axis: usize,
    map: HashMap<u128, Vec<FeatureEntry>>,
    total: usize,
    /// Streams covered: ids `0..streams`.
    streams: usize,
}

impl FeatureIndex {
    /// Builds the index for windows of `len` segments, summarizing along
    /// `axis`. Uses the store's cached columnar feature snapshot, so
    /// repeated builds (different lengths, or rebuilt after appends) pay
    /// feature extraction only for streams not seen before.
    pub fn build(store: &StreamStore, len: usize, axis: usize) -> Self {
        if len == 0 || len > MAX_SIGNATURE_LEN {
            return Self::empty(len, axis);
        }
        Self::from_features(&store.segment_features(axis), len)
    }

    /// Builds the index for windows of `len` segments directly from a
    /// columnar feature snapshot (`1 <= len <= MAX_SIGNATURE_LEN`).
    pub fn from_features(features: &SegmentFeatures, len: usize) -> Self {
        Self::empty(len, features.axis()).extended(features)
    }

    fn empty(len: usize, axis: usize) -> Self {
        FeatureIndex {
            len,
            axis,
            map: HashMap::new(),
            total: 0,
            streams: 0,
        }
    }

    /// This index extended with the windows of the streams `features`
    /// holds beyond the ones it covers. `features` must be a snapshot of
    /// the same store along the index's axis, at least as new as the
    /// snapshot the index was built from; the result equals
    /// [`FeatureIndex::from_features`] of `features`, bucket for bucket
    /// and entry for entry. Costs a copy of the index plus a sort of the
    /// new windows.
    pub fn extended(&self, features: &SegmentFeatures) -> Self {
        debug_assert_eq!(features.axis(), self.axis, "snapshot of another axis");
        let len = self.len;
        let fresh = features.streams().get(self.streams..).unwrap_or(&[]);
        let mut added: HashMap<u128, Vec<FeatureEntry>> = HashMap::new();
        if (1..=MAX_SIGNATURE_LEN).contains(&len) {
            // Rolling signature bookkeeping: a signature is the leading-1
            // length marker followed by 2 bits per state, oldest state in
            // the highest bits. Sliding the window drops the oldest state
            // (the top 2 bits under the marker) and appends the newest.
            let marker: u128 = 1 << (2 * len);
            let keep_mask: u128 = (1 << (2 * (len - 1))) - 1;
            for sf in fresh {
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
                    added.entry(marker | body).or_default().push(FeatureEntry {
                        subseq: SubseqRef::new(sf.meta.id, start, len),
                        stream: sf.meta.id,
                        amp_sum: sf.amp_sum(start, len),
                        duration: sf.window_duration(start, len),
                    });
                }
            }
        }
        let mut map = HashMap::with_capacity(self.map.len() + added.len());
        for (&signature, entries) in &self.map {
            let merged = match added.remove(&signature) {
                Some(new) => merge(entries, by_amp(new)),
                None => entries.clone(),
            };
            map.insert(signature, merged);
        }
        for (signature, new) in added {
            map.insert(signature, by_amp(new));
        }
        FeatureIndex {
            len,
            axis: self.axis,
            total: map.values().map(Vec::len).sum(),
            map,
            streams: self.streams.max(features.streams().len()),
        }
    }

    /// Streams the index covers: every stream whose id is below this.
    pub fn streams(&self) -> usize {
        self.streams
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

    /// The entries with the given state order whose amplitude summary lies
    /// in `[amp_lo, amp_hi]` (a binary search over the sorted bucket),
    /// and the size of the whole bucket (for instrumentation).
    pub fn candidates_in_amp_range(
        &self,
        signature: u128,
        amp_lo: f64,
        amp_hi: f64,
    ) -> (&[FeatureEntry], usize) {
        let bucket = self.candidates(signature);
        let lo = bucket.partition_point(|e| e.amp_sum < amp_lo);
        let hi = bucket.partition_point(|e| e.amp_sum <= amp_hi).max(lo);
        (&bucket[lo..hi], bucket.len())
    }

    /// All candidates with the given state order (no pruning).
    pub fn candidates(&self, signature: u128) -> &[FeatureEntry] {
        self.map.get(&signature).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// `entries`, pushed in `(stream, start)` order, sorted by amplitude
/// summary. The sort is stable, so ties keep `(stream, start)` order.
fn by_amp(mut entries: Vec<FeatureEntry>) -> Vec<FeatureEntry> {
    entries.sort_by(|a, b| a.amp_sum.total_cmp(&b.amp_sum));
    entries
}

/// The merge of two amplitude-sorted runs, where every stream of `new`
/// has a higher id than every stream of `old`: amplitude ties take the
/// `old` entry first, which keeps them in `(stream, start)` order.
fn merge(old: &[FeatureEntry], new: Vec<FeatureEntry>) -> Vec<FeatureEntry> {
    let mut out = Vec::with_capacity(old.len() + new.len());
    let mut rest = old;
    for e in new {
        let cut = rest.partition_point(|o| o.amp_sum.total_cmp(&e.amp_sum) != Ordering::Greater);
        out.extend_from_slice(&rest[..cut]);
        rest = &rest[cut..];
        out.push(e);
    }
    out.extend_from_slice(rest);
    out
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
            for stream in store.streams().iter() {
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

    /// Entry summaries equal the direct sums over each window's segments,
    /// bit for bit (the amplitude summary is a forward sum, not a
    /// prefix-sum subtraction).
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
            assert_eq!(e.amp_sum, direct);
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
        let (hits, bucket) =
            ix.candidates_in_amp_range(sig, mid.amp_sum - band, mid.amp_sum + band);
        let brute: Vec<_> = all
            .iter()
            .filter(|e| (e.amp_sum - mid.amp_sum).abs() <= band + 1e-12)
            .copied()
            .collect();
        assert_eq!(hits, &brute[..]);
        assert_eq!(bucket, all.len());
        // A zero-width range still contains the window itself.
        let (own, _) = ix.candidates_in_amp_range(sig, mid.amp_sum, mid.amp_sum);
        assert!(own.contains(&mid));
        // An inverted range is empty, not a panic.
        assert!(ix.candidates_in_amp_range(sig, 5.0, -5.0).0.is_empty());
        // Unknown signature: empty.
        let none = state_signature([Irregular, Irregular, Irregular]).unwrap();
        assert_eq!(ix.candidates_in_amp_range(none, -1e9, 1e9), (&[][..], 0));
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
