//! Debug-build contract checks for the matching hot paths.
//!
//! Each function here is a named invariant of the engine, expressed as a
//! `debug_assert!` so it runs in every debug/test build and compiles to
//! nothing in release — the hot paths pay zero cost in production while
//! the whole test suite continuously re-proves the contracts:
//!
//! * **Band-bound admissibility** — every candidate the pruned plan keeps
//!   from a [`tsm_db::FeatureIndex`] lookup lies inside its source tier's
//!   amplitude and duration bands, and its stored summaries equal the
//!   direct sums over the feature snapshot it is about to be scored
//!   from, which are the sums the scan bands on. A violation here means
//!   the pruning lower bound is unsound (false dismissals).
//! * **Bounded collection** — a top-k [`matcher`](crate::matcher)
//!   collector never holds more than `k` results.
//! * **Strict result order** — a search's finished results are strictly
//!   increasing in store order, ascending `(stream, start)`, and after
//!   the rank sort under the matcher's `(distance, stream, start)` order:
//!   no window appears twice and no two results tie, which is what lets
//!   the rank sort be unstable without changing the order.
//! * **Tally reconciliation** — a [`SearchTally`] always satisfies
//!   `windows_scored == windows_abandoned + windows_completed` and the
//!   candidate funnel `bucket ≥ amp_band ≥ dur_band`, including after
//!   merging per-worker tallies at the parallel join point.
//!
//! The functions take already-computed values (not closures) because they
//! are only called where those values are in scope anyway; the
//! `debug_assert!` inside guarantees release builds do no work.

use crate::matcher::{cmp_results, store_key, Band, MatchResult};
use crate::metrics::SearchTally;
use std::cmp::Ordering;
use tsm_db::{FeatureEntry, SegmentFeatures};

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

/// A search's results before the rank sort are strictly increasing in
/// store order, ascending `(stream, start)`.
#[inline]
pub fn results_in_store_order(results: &[MatchResult]) {
    debug_assert!(
        results
            .windows(2)
            .all(|w| store_key(&w[0]) < store_key(&w[1])),
        "search results not strictly in (stream, start) order",
    );
}

/// A band survivor is admissible: the entry's stored summaries lie inside
/// its source tier's `band`, and equal the direct sums over the window in
/// the (possibly newer) feature snapshot it is about to be scored from —
/// the forward `Σ|disp|` the query side uses, and the window's end time
/// minus its start time ([`tsm_db::StreamFeatures::window_duration`]).
#[inline]
pub(crate) fn band_candidate_admissible(
    entry: &FeatureEntry,
    features: &SegmentFeatures,
    band: &Band,
) {
    debug_assert!(
        band.amp_contains(entry.amp_sum) && band.dur_contains(entry.duration),
        "inadmissible band candidate {:?}: amp {} outside {:?}, dur {} outside {:?}",
        entry.subseq,
        entry.amp_sum,
        band.amp,
        entry.duration,
        band.dur,
    );
    debug_assert!(
        features.stream(entry.stream).is_some_and(|sf| {
            let (start, len) = (entry.subseq.start as usize, entry.subseq.len as usize);
            start + len <= sf.num_segments()
                && entry.amp_sum.to_bits() == sf.amp_sum(start, len).to_bits()
                && entry.duration.to_bits() == sf.window_duration(start, len).to_bits()
        }),
        "index entry {:?} (amp {}, dur {}) disagrees with the feature snapshot",
        entry.subseq,
        entry.amp_sum,
        entry.duration,
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
}
