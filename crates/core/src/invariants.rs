//! Debug-build contract checks for the matching hot paths.
//!
//! Each function here is a named invariant of the engine, expressed as a
//! `debug_assert!` so it runs in every debug/test build and compiles to
//! nothing in release — the hot paths pay zero cost in production while
//! the whole test suite continuously re-proves the contracts:
//!
//! * **Prefix-sum monotonicity** — the `abs_disp_prefix` / `dur_prefix`
//!   columns of a [`StreamFeatures`] are non-decreasing and exactly one
//!   entry longer than the segment count, which is what makes
//!   `amp_sum`/`window_duration` single-subtraction lookups sound.
//! * **Band-bound admissibility** — every candidate the
//!   [`tsm_db::FeatureIndex`] yields from a banded lookup actually lies
//!   inside the requested amplitude and duration bands, and its stored
//!   summaries agree with the prefix sums it was built from. A violation
//!   here means the pruning lower bound is unsound (false dismissals).
//! * **Bounded collection** — a top-k [`matcher`](crate::matcher)
//!   collector never holds more than `k` results.
//! * **Strict result order** — a search's finished results are strictly
//!   increasing under the matcher's `(distance, stream, start)` order: no
//!   window appears twice and no two results tie, which is what lets the
//!   final sort be unstable without changing the order.
//! * **Tally reconciliation** — a [`SearchTally`] always satisfies
//!   `windows_scored == windows_abandoned + windows_completed` and the
//!   candidate funnel `bucket ≥ amp_band ≥ dur_band`, including after
//!   merging per-worker tallies at the parallel join point. The f32
//!   prefilter's counters reconcile with that balance: every pruned lane
//!   is an abandoned window, every lane the prefilter touched (pruned or
//!   rescanned) is a scored window, and no group yields more than
//!   [`LANES`](crate::batch::LANES) of them.
//!
//! The functions take already-computed values (not closures) because they
//! are only called where those values are in scope anyway; the
//! `debug_assert!` inside guarantees release builds do no work.

use crate::matcher::{cmp_results, MatchResult};
use crate::metrics::SearchTally;
use std::cmp::Ordering;
use tsm_db::{FeatureEntry, SegmentFeatures, StreamFeatures};

/// Absolute slack for comparisons between independently recomputed
/// floating-point summaries (two evaluations of the same prefix-sum
/// subtraction are bitwise equal; the slack only covers callers that
/// recompute a summary by direct summation).
pub const FLOAT_SLACK: f64 = 1e-9;

/// A bounded collector holds at most `k` entries (`cap = Some(k)`).
#[inline]
pub fn heap_bounded(len: usize, cap: Option<usize>) {
    debug_assert!(
        cap.is_none_or(|k| len <= k),
        "bounded collector overflow: {len} entries with cap {cap:?}",
    );
}

/// A finished search's results are strictly increasing under
/// `cmp_results`: sorted, and no two of them tie.
#[inline]
pub fn results_strictly_ordered(results: &[MatchResult]) {
    debug_assert!(
        results
            .windows(2)
            .all(|w| cmp_results(&w[0], &w[1]) == Ordering::Less),
        "search results not strictly ordered by (distance, stream, start)",
    );
}

/// The prefix-sum columns of one stream are well-formed: one entry longer
/// than the segment count, starting at zero, and non-decreasing (both
/// `|disp|` and duration are non-negative, so their running sums must be
/// monotone). Sound prefix sums are what make `amp_sum` and
/// `window_duration` O(1) lookups exact.
#[inline]
pub fn prefix_sums_monotone(sf: &StreamFeatures) {
    debug_assert!(
        prefix_sums_monotone_impl(sf),
        "malformed prefix sums for stream {:?}: {} segments, {} amp entries, {} dur entries",
        sf.meta.id,
        sf.num_segments(),
        sf.abs_disp_prefix.len(),
        sf.dur_prefix.len(),
    );
}

fn prefix_sums_monotone_impl(sf: &StreamFeatures) -> bool {
    let n = sf.num_segments();
    sf.abs_disp_prefix.len() == n + 1
        && sf.dur_prefix.len() == n + 1
        && sf.abs_disp_prefix.first() == Some(&0.0)
        && sf.dur_prefix.first() == Some(&0.0)
        && sf.abs_disp_prefix.windows(2).all(|w| w[0] <= w[1])
        && sf.dur_prefix.windows(2).all(|w| w[0] <= w[1])
}

/// Every stream in a feature snapshot has sound prefix sums. Called once
/// per search on the consuming side of
/// [`tsm_db::StreamStore::segment_features`], so a corrupted snapshot is
/// caught before any window is scored from it.
#[inline]
pub fn features_snapshot_coherent(features: &SegmentFeatures) {
    #[cfg(debug_assertions)]
    for sf in features.streams() {
        prefix_sums_monotone(sf);
    }
    #[cfg(not(debug_assertions))]
    // lint:allow(no-silent-result-drop): release builds compile the
    // checks away; this keeps the parameter used in both profiles.
    let _ = features;
}

/// A banded index lookup only yields admissible candidates: the entry's
/// stored summaries lie inside the requested amplitude and duration bands,
/// and agree with the prefix sums of the (possibly newer) feature snapshot
/// the candidate is about to be scored from. `start`/`len` locate the
/// window inside `sf`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn band_candidate_admissible(
    entry: &FeatureEntry,
    sf: &StreamFeatures,
    start: usize,
    len: usize,
    q_amp_sum: f64,
    amp_band: f64,
    q_duration: f64,
    dur_band: f64,
) {
    debug_assert!(
        (entry.amp_sum - q_amp_sum).abs() <= amp_band
            && (entry.duration - q_duration).abs() <= dur_band,
        "inadmissible band candidate {:?}: amp {} vs query {} (band {}), dur {} vs query {} (band {})",
        entry.subseq,
        entry.amp_sum,
        q_amp_sum,
        amp_band,
        entry.duration,
        q_duration,
        dur_band,
    );
    debug_assert!(
        (entry.amp_sum - sf.amp_sum(start, len)).abs() <= FLOAT_SLACK
            && (entry.duration - sf.window_duration(start, len)).abs() <= FLOAT_SLACK,
        "index entry {:?} disagrees with feature snapshot: amp {} vs {}, dur {} vs {}",
        entry.subseq,
        entry.amp_sum,
        sf.amp_sum(start, len),
        entry.duration,
        sf.window_duration(start, len),
    );
}

/// A search tally reconciles: every scored window was either abandoned or
/// completed (exactly one of the two), and the candidate funnel only
/// narrows (`bucket ≥ amp band ≥ dur band` survivors). Checked per search
/// and again after merging per-worker tallies at parallel join points, so
/// a lost or double-counted worker tally is caught at the merge.
#[inline]
pub fn tally_reconciled(t: &SearchTally) {
    debug_assert!(
        t.windows_scored == t.windows_abandoned + t.windows_completed,
        "tally out of balance: scored {} != abandoned {} + completed {}",
        t.windows_scored,
        t.windows_abandoned,
        t.windows_completed,
    );
    debug_assert!(
        t.bucket_candidates >= t.amp_band_candidates
            && t.amp_band_candidates >= t.dur_band_candidates,
        "candidate funnel widened: bucket {} -> amp {} -> dur {}",
        t.bucket_candidates,
        t.amp_band_candidates,
        t.dur_band_candidates,
    );
    debug_assert!(
        t.batch_lanes_abandoned <= t.windows_abandoned,
        "batched lanes abandoned {} exceed windows abandoned {}",
        t.batch_lanes_abandoned,
        t.windows_abandoned,
    );
    debug_assert!(
        t.batch_lanes_abandoned + t.f32_prune_rescans <= t.windows_scored,
        "batched lane work (pruned {} + rescans {}) exceeds windows scored {}",
        t.batch_lanes_abandoned,
        t.f32_prune_rescans,
        t.windows_scored,
    );
    debug_assert!(
        t.batch_lanes_abandoned + t.f32_prune_rescans
            <= (crate::batch::LANES as u64) * t.batch_groups_scored,
        "batched lane work (pruned {} + rescans {}) exceeds {} lanes x {} groups",
        t.batch_lanes_abandoned,
        t.f32_prune_rescans,
        crate::batch::LANES,
        t.batch_groups_scored,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(scored: u64, abandoned: u64, completed: u64) -> SearchTally {
        SearchTally {
            windows_scored: scored,
            windows_abandoned: abandoned,
            windows_completed: completed,
            ..SearchTally::default()
        }
    }

    #[test]
    fn balanced_tally_passes() {
        tally_reconciled(&tally(5, 2, 3));
        heap_bounded(3, Some(3));
        heap_bounded(10, None);
    }

    #[test]
    #[should_panic(expected = "tally out of balance")]
    fn unbalanced_tally_is_caught() {
        tally_reconciled(&tally(5, 2, 2));
    }

    #[test]
    #[should_panic(expected = "candidate funnel widened")]
    fn widening_funnel_is_caught() {
        let t = SearchTally {
            bucket_candidates: 1,
            amp_band_candidates: 2,
            ..SearchTally::default()
        };
        tally_reconciled(&t);
    }

    #[test]
    #[should_panic(expected = "bounded collector overflow")]
    fn heap_overflow_is_caught() {
        heap_bounded(4, Some(3));
    }

    #[test]
    fn prefix_sums_of_a_real_stream_are_monotone() {
        use tsm_db::{PatientAttributes, StreamStore};
        use tsm_model::{BreathState::*, PlrTrajectory, Vertex};
        let plr = PlrTrajectory::from_vertices(vec![
            Vertex::new_1d(0.0, 0.0, Inhale),
            Vertex::new_1d(1.0, 8.0, Exhale),
            Vertex::new_1d(2.5, 0.5, EndOfExhale),
            Vertex::new_1d(3.0, 0.4, Inhale),
        ])
        .unwrap();
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        store.add_stream(p, 0, plr, 30);
        let features = store.segment_features(0);
        features_snapshot_coherent(&features);
    }

    #[test]
    #[should_panic(expected = "malformed prefix sums")]
    fn corrupted_prefix_sums_are_caught() {
        use tsm_db::{PatientAttributes, StreamStore};
        use tsm_model::{BreathState::*, PlrTrajectory, Vertex};
        let plr = PlrTrajectory::from_vertices(vec![
            Vertex::new_1d(0.0, 0.0, Inhale),
            Vertex::new_1d(1.0, 8.0, Exhale),
            Vertex::new_1d(2.0, 0.0, EndOfExhale),
        ])
        .unwrap();
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        store.add_stream(p, 0, plr, 20);
        let features = store.segment_features(0);
        let mut broken = (**features.streams().first().unwrap()).clone();
        broken.abs_disp_prefix[1] = -1.0; // running sum of |disp| can never dip
        prefix_sums_monotone(&broken);
    }
}
