//! The subsequence search engine: retrieve all stored subsequences similar
//! to a query (paper Section 4.2).
//!
//! There is one search: Definition 2's state-order gate, then its weighted
//! distance, over the store's [`tsm_db::SegmentFeatures`] snapshot. It
//! runs under one of two plans, which differ only in how they list the
//! windows with the query's state order:
//!
//! * the **scan** ([`Matcher::find_matches_with`]) gates every window of
//!   every stream with [`BatchScorer::match_mask`];
//! * the **pruned** plan takes the query's state-order bucket from a
//!   [`FeatureIndex`]. Only
//!   [`crate::index_cache::CachedMatcher::find_matches`] runs it, with the
//!   index of the query's length from its cache.
//!
//! Starts whose window overlaps the query's own window in its origin
//! stream are dropped first, before the gate and any tally. Both plans
//! then keep a window only inside the amplitude and duration bands of its
//! own source tier: one table of bands per search, scaled by each tier's
//! weight `ws`, from one lower bound that no window within δ violates.
//! Every band survivor is scored exactly by
//! [`BatchScorer::rescore_exact`]. A bounded top-k collector keeps only
//! results that can still make the cut. A naive vertex-walking reference
//! ([`Matcher::find_matches_naive`]) is the oracle: the property tests
//! assert every plan returns *identical* results — same windows,
//! bit-identical distances, same order.
//!
//! Both plans score windows in **store order**, ascending `(stream,
//! start)`, and a search without a top-k cap collects its results in that
//! order as they are scored. The online vote needs nothing else
//! ([`crate::predict::predict_position`] sums in store order), so
//! [`crate::index_cache::CachedMatcher::find_matches_in_store_order`] and
//! [`Matcher::find_matches_in_store_order`] return them as they are.
//! Ranked callers get them totally ordered by
//! `(distance, stream, start)`, by one sort on a packed `u128` key; that
//! order equals what the historical stable sort by distance over a scan
//! produced.

use crate::batch::{BatchScorer, RescanOutcome, LANES};
use crate::invariants;
use crate::metrics::{Counter, MetricsRegistry, SearchTally};
use crate::params::Params;
use crate::similarity::{online_distance, QueryCols};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use tsm_db::{
    abs_disp_sum, FeatureIndex, PatientId, SegmentFeatures, SharedStore, SourceRelation,
    StreamFeatures, StreamId, StreamMeta, StreamStore, SubseqRef, SubseqView,
};
use tsm_model::{state_signature, BreathState, Vertex};

/// Safety factor on the half-width of the lower-bound pruning bands. A
/// window's f64 numerator and the band's own arithmetic round relative to
/// `δ · Σwi · ws` by a few ULPs per term; a 1e-9 relative margin covers
/// that for windows of up to a million segments. The rounding of the
/// summaries themselves is relative to their magnitude instead, and
/// [`summary_range`] covers it.
const BAND_MARGIN: f64 = 1.0 + 1e-9;

/// A query subsequence, detached from the store (online queries come from
/// the live stream, which may not have been persisted yet).
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySubseq {
    /// The query's vertices (`len + 1` of them for `len` segments).
    pub vertices: Vec<Vertex>,
    /// Provenance of the query, if known: `(patient, session)`. Drives the
    /// source weight of every candidate; `None` treats every candidate as
    /// coming from another patient.
    pub origin: Option<(PatientId, u32)>,
    /// The stream the query was cut from, if any — candidates overlapping
    /// the query's own window in that stream are excluded (a query always
    /// matches itself perfectly; that tells us nothing).
    pub origin_stream: Option<StreamId>,
}

impl QuerySubseq {
    /// Builds a query from a detached vertex buffer.
    pub fn new(vertices: Vec<Vertex>) -> Self {
        QuerySubseq {
            vertices,
            origin: None,
            origin_stream: None,
        }
    }

    /// Builds a query from a stored subsequence view (used by offline
    /// analysis and the experiments).
    pub fn from_view(view: &SubseqView) -> Self {
        let meta = view.stream().meta;
        QuerySubseq {
            vertices: view.vertices().to_vec(),
            origin: Some((meta.patient, meta.session)),
            origin_stream: Some(meta.id),
        }
    }

    /// Attaches provenance.
    pub fn with_origin(mut self, patient: PatientId, session: u32) -> Self {
        self.origin = Some((patient, session));
        self
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.vertices.len().saturating_sub(1)
    }

    /// Whether the query holds no segments.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The query's state order.
    pub fn states(&self) -> Vec<BreathState> {
        if self.vertices.len() < 2 {
            return Vec::new();
        }
        self.vertices[..self.vertices.len() - 1]
            .iter()
            .map(|v| v.state)
            .collect()
    }

    /// Packed state-order signature.
    pub fn signature(&self) -> Option<u128> {
        state_signature(self.states())
    }
}

/// One retrieved similar subsequence.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResult {
    /// Reference to the matched subsequence.
    pub subseq: SubseqRef,
    /// Weighted distance to the query (Definition 2).
    pub distance: f64,
    /// Source weight of this candidate (also the prediction weight of
    /// Section 4.3).
    pub ws: f64,
    /// Provenance tier of this candidate.
    pub relation: SourceRelation,
}

/// The total result order: by distance, ties broken by `(stream, start)`.
/// Equal to the historical "stable sort by distance over scan order", and
/// shared by both plans.
pub(crate) fn cmp_results(a: &MatchResult, b: &MatchResult) -> Ordering {
    a.distance
        .total_cmp(&b.distance)
        .then_with(|| a.subseq.stream.0.cmp(&b.subseq.stream.0))
        .then_with(|| a.subseq.start.cmp(&b.subseq.start))
}

/// The packed rank key of the result at `index` of a list in store
/// order: the distance's [`f64::total_cmp`] order bits, then `index`. In
/// store order a lower index means a lower `(stream, start)`, so unsigned
/// order on the keys is exactly [`cmp_results`]' order.
fn rank_key(distance: f64, index: usize) -> u128 {
    let bits = distance.to_bits();
    // Negative values flip every bit (larger magnitudes sort first); the
    // rest set the sign bit, which puts them above every negative value.
    let order = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    u128::from(order) << 64 | index as u128
}

/// A search's results, given in store order, in rank order: the total
/// [`cmp_results`] order. This is the one rank sort, which only ranked
/// callers pay; it sorts 16-byte [`rank_key`]s rather than the results.
pub(crate) fn rank(results: Vec<MatchResult>) -> Vec<MatchResult> {
    invariants::results_in_store_order(&results);
    let mut keys: Vec<u128> = results
        .iter()
        .enumerate()
        .map(|(i, m)| rank_key(m.distance, i))
        .collect();
    keys.sort_unstable();
    let ranked: Vec<MatchResult> = keys
        .iter()
        .map(|&key| results[key as u64 as usize].clone())
        .collect();
    invariants::results_strictly_ordered(&ranked);
    ranked
}

/// The store order of results: ascending `(stream, start)`.
pub(crate) fn store_key(m: &MatchResult) -> (u32, u32) {
    (m.subseq.stream.0, m.subseq.start)
}

/// Heap adapter: max-heap by [`cmp_results`], so the *worst* retained
/// result sits on top and is evicted first.
#[derive(Debug)]
struct Ranked(MatchResult);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        cmp_results(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_results(&self.0, &other.0)
    }
}

/// Accumulates results under the δ threshold and (optionally) a top-k cap.
///
/// With a cap, a bounded max-heap holds the best `k` seen so far and
/// [`Collector::bound`] exposes the current k-th best distance — feeding it
/// back into [`BatchScorer::rescore_exact`] lets the scorer abandon any
/// window that provably cannot enter the heap. Ties at the bound are *not*
/// abandoned (the scorer's margin guarantees that), so a later candidate
/// with equal distance but better `(stream, start)` tie-break still gets
/// compared exactly. Without a cap, results are kept in the order they
/// are scored, which both plans make store order.
#[derive(Debug)]
struct Collector {
    delta: f64,
    cap: Option<usize>,
    heap: BinaryHeap<Ranked>,
    results: Vec<MatchResult>,
}

impl Collector {
    fn new(delta: f64, cap: Option<usize>) -> Self {
        Collector {
            delta,
            cap,
            heap: BinaryHeap::new(),
            results: Vec::new(),
        }
    }

    /// The current pruning bound: no window with distance provably above
    /// it can affect the final result set.
    fn bound(&self) -> f64 {
        match self.cap {
            Some(k) if k > 0 && self.heap.len() >= k => self
                .heap
                .peek()
                .map(|w| w.0.distance.min(self.delta))
                .unwrap_or(self.delta),
            _ => self.delta,
        }
    }

    /// Pre-reserves room for `n` more unbounded results (top-k capped
    /// collections size their heap by `k` already). Survivor counts give
    /// the batched scan a per-stream upper bound, turning result-vector
    /// growth into a handful of amortized reservations.
    fn reserve(&mut self, n: usize) {
        if self.cap.is_none() {
            self.results.reserve(n);
        }
    }

    fn push(&mut self, distance: f64, subseq: SubseqRef, ws: f64, relation: SourceRelation) {
        let m = MatchResult {
            subseq,
            distance,
            ws,
            relation,
        };
        match self.cap {
            None => self.results.push(m),
            Some(0) => {}
            Some(k) => {
                if self.heap.len() < k {
                    self.heap.push(Ranked(m));
                } else if let Some(worst) = self.heap.peek() {
                    if cmp_results(&m, &worst.0) == Ordering::Less {
                        self.heap.pop();
                        self.heap.push(Ranked(m));
                    }
                }
            }
        }
        invariants::heap_bounded(self.heap.len(), self.cap);
    }

    /// The results in store order. Uncapped results were pushed in it; a
    /// top-k heap's `k` are sorted into it.
    fn into_results(self) -> Vec<MatchResult> {
        if self.cap.is_none() {
            return self.results;
        }
        let mut out: Vec<MatchResult> = self.heap.into_iter().map(|r| r.0).collect();
        out.sort_unstable_by_key(store_key);
        out
    }
}

/// Search restrictions.
#[derive(Debug, Clone, Default)]
pub struct SearchOptions {
    /// Only consider candidates from these patients (the clustering
    /// application of Section 5.3: "subsequence similarity matching will
    /// only retrieve subsequences from the same cluster").
    pub restrict_patients: Option<HashSet<PatientId>>,
    /// Keep only the `k` nearest matches (by distance). `None` keeps all
    /// matches within δ.
    pub top_k: Option<usize>,
    /// Override the distance threshold δ for this search.
    pub delta_override: Option<f64>,
}

/// A stream's standing in one search: its source tier and whether the
/// patient restriction admits it.
#[derive(Debug, Clone, Copy)]
struct Tier {
    relation: SourceRelation,
    allowed: bool,
}

/// The summary bands of one source tier in one search (see
/// [`Engine::band`]): a window of that tier whose amplitude or duration
/// summary lies outside them cannot be within δ. Each is a closed range
/// of summary values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Band {
    pub(crate) amp: (f64, f64),
    pub(crate) dur: (f64, f64),
}

impl Band {
    pub(crate) fn amp_contains(&self, amp_sum: f64) -> bool {
        self.amp.0 <= amp_sum && amp_sum <= self.amp.1
    }

    pub(crate) fn dur_contains(&self, duration: f64) -> bool {
        self.dur.0 <= duration && duration <= self.dur.1
    }
}

/// The summaries `x ≥ 0` that satisfy `|x − q| ≤ half + eps · (x + q)`:
/// the band of half-width `half` around the query's summary `q`, widened
/// by `eps` of both summaries' magnitudes to cover their rounding.
fn summary_range(q: f64, half: f64, eps: f64) -> (f64, f64) {
    (
        (q * (1.0 - eps) - half) / (1.0 + eps),
        (q * (1.0 + eps) + half) / (1.0 - eps),
    )
}

/// One search's worth of immutable context: the query's columns, the
/// effective δ, the bands of each source tier, and the provenance/overlap
/// data every candidate is checked against. Shared by both plans.
struct Engine<'a> {
    params: &'a Params,
    query: &'a QuerySubseq,
    options: &'a SearchOptions,
    cols: QueryCols,
    n: usize,
    delta: f64,
    q_first: f64,
    q_last: f64,
    /// The bands of each source tier, indexed by `SourceRelation as
    /// usize`. Both plans keep only the windows inside their own tier's
    /// bands.
    bands: [Band; 3],
    /// Every stream's [`Tier`], indexed by stream id, over the feature
    /// snapshot the search runs on.
    tiers: Vec<Tier>,
}

impl<'a> Engine<'a> {
    fn new(
        matcher: &'a Matcher,
        query: &'a QuerySubseq,
        options: &'a SearchOptions,
        features: &SegmentFeatures,
    ) -> Option<Self> {
        let cols = QueryCols::build(&query.vertices, &matcher.params)?;
        let n = cols.len();
        let q_first = query.vertices.first()?.time;
        let q_last = query.vertices.last()?.time;
        let mut engine = Engine {
            params: &matcher.params,
            query,
            options,
            cols,
            n,
            delta: options.delta_override.unwrap_or(matcher.params.delta),
            q_first,
            q_last,
            bands: [Band::default(); 3],
            tiers: Vec::new(),
        };
        let q_amp = abs_disp_sum(&engine.cols.disp);
        let q_dur = q_last - q_first;
        engine.bands = [
            SourceRelation::SameSession,
            SourceRelation::SamePatient,
            SourceRelation::OtherPatient,
        ]
        .map(|r| engine.band(q_amp, q_dur, matcher.params.ws(r)));
        let tiers = features
            .streams()
            .iter()
            .map(|sf| Tier {
                relation: engine.relation(&sf.meta),
                allowed: engine.allows(sf.meta.patient),
            })
            .collect();
        engine.tiers = tiers;
        Some(engine)
    }

    fn collector(&self) -> Collector {
        Collector::new(self.delta, self.options.top_k)
    }

    fn allows(&self, patient: PatientId) -> bool {
        self.options
            .restrict_patients
            .as_ref()
            .is_none_or(|s| s.contains(&patient))
    }

    fn relation(&self, meta: &StreamMeta) -> SourceRelation {
        match self.query.origin {
            Some((patient, session)) => {
                if patient != meta.patient {
                    SourceRelation::OtherPatient
                } else if session != meta.session {
                    SourceRelation::SamePatient
                } else {
                    SourceRelation::SameSession
                }
            }
            None => SourceRelation::OtherPatient,
        }
    }

    /// The summary bands of the source tier with weight `ws`, around the
    /// query's amplitude summary `q_amp` (its forward `Σ|disp|`) and
    /// duration `q_dur` (last vertex time minus first). Definition 2
    /// divides by `Σwi · ws`, so `d ≤ δ` exactly when the numerator is at
    /// most `δ · Σwi · ws`; every term of the numerator is at least
    /// `wi_min` times its amplitude (or duration) part, so
    /// `wa · wi_min · |S_q − S_c| ≤ num` (and likewise for `wf` and `T`),
    /// and a window within δ has `|S_q − S_c| ≤ δ · Σwi · ws / (wa · wi_min)`
    /// and `|T_q − T_c| ≤ δ · Σwi · ws / (wf · wi_min)`. Under the spatial
    /// metric a displacement vector's difference is at least that of its
    /// axis component, so the bound holds there too. Negative weights void
    /// it, and the band is then unbounded.
    fn band(&self, q_amp: f64, q_dur: f64, ws: f64) -> Band {
        let p = self.params;
        let wi_min = self.cols.wi.iter().copied().fold(f64::INFINITY, f64::min);
        let bounded = p.wa >= 0.0 && p.wf >= 0.0 && wi_min > 0.0;
        let half = |w: f64| {
            if bounded && w > 0.0 {
                self.delta * self.cols.wsum * ws / (w * wi_min) * BAND_MARGIN
            } else {
                f64::INFINITY
            }
        };
        // Each summary is a sum of at most n rounded terms (a duration is
        // one subtraction), so its relative error stays below n ulps.
        let eps = self.n as f64 * f64::EPSILON;
        Band {
            amp: summary_range(q_amp, half(p.wa), eps),
            dur: summary_range(q_dur, half(p.wf), eps),
        }
    }

    /// The starts of `sf`'s windows that overlap the query's own window:
    /// empty unless `sf` is the query's origin stream. A query always
    /// matches itself, which tells nothing, so neither plan scores these
    /// windows. Window `j` spans `times[j]..=times[j + n]`, and vertex
    /// times strictly increase, so the overlapping starts form one range.
    /// Requires `sf.num_segments() >= n`.
    fn own_overlap(&self, sf: &StreamFeatures) -> Range<usize> {
        if self.query.origin_stream != Some(sf.meta.id) {
            return 0..0;
        }
        let total = (sf.num_segments() + 1).saturating_sub(self.n);
        let lo = sf.times[self.n..]
            .partition_point(|&t| t <= self.q_first)
            .min(total);
        let hi = sf.times.partition_point(|&t| t < self.q_last);
        lo..hi.clamp(lo, total)
    }

    /// Scans every window of the snapshot's streams: the whole-stream
    /// state gate, then the bands of the stream's own tier, pick each
    /// stream's run of starts for [`Engine::score_run`]. The band funnel
    /// counts as the pruned plan's does, with the gate survivors as the
    /// bucket.
    fn scan_streams(
        &self,
        streams: &[Arc<StreamFeatures>],
        batcher: &mut BatchScorer,
        coll: &mut Collector,
        tally: &mut SearchTally,
    ) {
        let n = self.n;
        let mut starts: Vec<usize> = Vec::new();
        for (sf, tier) in streams.iter().zip(&self.tiers) {
            if !tier.allowed || sf.num_segments() < n {
                continue;
            }
            let skip = self.own_overlap(sf);
            let band = &self.bands[tier.relation as usize];
            let mask = batcher.match_mask(&self.cols.states, sf);
            let mut gated = 0u64;
            starts.clear();
            for j in (0..mask.len()).filter(|&j| mask[j] == 0 && !skip.contains(&j)) {
                gated += 1;
                if !band.amp_contains(sf.amp_sum(j, n)) {
                    continue;
                }
                tally.amp_band_candidates += 1;
                if band.dur_contains(sf.window_duration(j, n)) {
                    starts.push(j);
                }
            }
            tally.windows_state_mismatch += (mask.len() - skip.len()) as u64 - gated;
            tally.bucket_candidates += gated;
            tally.dur_band_candidates += starts.len() as u64;
            self.score_run(sf, &starts, batcher, coll, tally);
        }
    }

    /// Scores one stream's run of band-surviving window starts, none of
    /// which overlaps the query, [`LANES`] at a time with
    /// [`BatchScorer::rescore_exact`], and offers every window within δ
    /// to the collector. The tally keeps
    /// `windows_scored == windows_abandoned + windows_completed`. Kept
    /// out of line: inlined into the pruned plan's band walk, the
    /// `matching` bench's pruned arm at δ = 8 ran about 4% slower.
    #[inline(never)]
    fn score_run(
        &self,
        sf: &StreamFeatures,
        starts: &[usize],
        batcher: &mut BatchScorer,
        coll: &mut Collector,
        tally: &mut SearchTally,
    ) {
        if starts.is_empty() {
            return;
        }
        let relation = self.relation(&sf.meta);
        let ws = self.params.ws(relation);
        coll.reserve(starts.len());
        for group in starts.chunks(LANES) {
            let outs = batcher.rescore_exact(&self.cols, self.params, sf, group, ws, coll.bound());
            for (&start, out) in group.iter().zip(outs) {
                match out {
                    RescanOutcome::Inactive => {
                        debug_assert!(false, "inactive lane inside the candidate count");
                    }
                    RescanOutcome::Abandoned => {
                        tally.windows_scored += 1;
                        tally.windows_abandoned += 1;
                    }
                    RescanOutcome::Scored(d) => {
                        tally.windows_scored += 1;
                        tally.windows_completed += 1;
                        if d <= self.delta {
                            let subseq = SubseqRef::new(sf.meta.id, start, self.n);
                            coll.push(d, subseq, ws, relation);
                        }
                    }
                }
            }
        }
    }
}

/// A stable counting sort of `items` by `key`, every key below `keys`:
/// each item's `value` in key order, and for each key where its run ends.
fn counting_sort<T: Copy, V: Copy + Default>(
    items: &[T],
    keys: usize,
    key: impl Fn(T) -> usize,
    value: impl Fn(T) -> V,
) -> (Vec<V>, Vec<usize>) {
    // `ends[k]` first counts key k's items, then holds where its run
    // starts, then where it ends.
    let mut ends = vec![0usize; keys];
    for &item in items {
        ends[key(item)] += 1;
    }
    let mut at = 0;
    for end in ends.iter_mut() {
        let count = *end;
        *end = at;
        at += count;
    }
    let mut out = vec![V::default(); items.len()];
    for &item in items {
        let end = &mut ends[key(item)];
        out[*end] = value(item);
        *end += 1;
    }
    (out, ends)
}

/// The matcher: a store handle plus parameters.
///
/// ```
/// use tsm_core::{Matcher, Params, QuerySubseq};
/// use tsm_db::{PatientAttributes, StreamStore, SubseqRef};
/// use tsm_model::{BreathState::*, PlrTrajectory, Vertex};
///
/// // Two identical 4-cycle streams for one patient.
/// let store = StreamStore::new();
/// let patient = store.add_patient(PatientAttributes::new());
/// for session in 0..2 {
///     let mut v = Vec::new();
///     for c in 0..4 {
///         let t = c as f64 * 4.0;
///         v.push(Vertex::new_1d(t, 10.0, Exhale));
///         v.push(Vertex::new_1d(t + 1.5, 0.0, EndOfExhale));
///         v.push(Vertex::new_1d(t + 2.5, 0.0, Inhale));
///     }
///     v.push(Vertex::new_1d(16.0, 10.0, Exhale));
///     store.add_stream(patient, session, PlrTrajectory::from_vertices(v).unwrap(), 480);
/// }
///
/// // Query: the first cycle of stream 0.
/// let view = store.resolve(SubseqRef::new(tsm_db::StreamId(0), 0, 3)).unwrap();
/// let query = QuerySubseq::from_view(&view);
/// let matches = Matcher::new(store, Params::default()).find_matches(&query);
/// assert!(!matches.is_empty());
/// assert!(matches.iter().all(|m| m.distance <= Params::default().delta));
/// ```
#[derive(Debug, Clone)]
pub struct Matcher {
    store: SharedStore,
    params: Params,
    metrics: MetricsRegistry,
}

impl Matcher {
    /// Creates a matcher over a store. Accepts either a bare
    /// [`StreamStore`] (wrapped into a [`SharedStore`] once) or an
    /// existing shared handle — pass `shared.clone()` to let several
    /// matchers, caches and session runtimes search the same database
    /// without re-wrapping.
    pub fn new(store: impl Into<SharedStore>, params: Params) -> Self {
        Matcher {
            store: store.into(),
            params,
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Attaches a metrics registry: every search accounts its work there.
    /// The default is a disabled registry, which costs nothing.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// The attached metrics registry (disabled unless
    /// [`Matcher::with_metrics`] was used).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The parameters in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The underlying store handle.
    pub fn store(&self) -> &StreamStore {
        &self.store
    }

    /// The shared store handle (an `Arc` clone — never a data copy), for
    /// threading the same database into another component.
    pub fn shared_store(&self) -> SharedStore {
        self.store.clone()
    }

    /// Finds all similar subsequences with default options.
    pub fn find_matches(&self, query: &QuerySubseq) -> Vec<MatchResult> {
        self.find_matches_with(query, &SearchOptions::default())
    }

    /// Finds all similar subsequences: every stored window with the
    /// query's state order and weighted distance ≤ δ, sorted by distance
    /// (ties by stream, then start). Runs the scan: the state gate over
    /// every window, the bands of each window's source tier, then the
    /// exact score; results are identical to
    /// [`Matcher::find_matches_naive`].
    pub fn find_matches_with(
        &self,
        query: &QuerySubseq,
        options: &SearchOptions,
    ) -> Vec<MatchResult> {
        rank(self.find_matches_in_store_order(query, options))
    }

    /// [`Matcher::find_matches_with`]'s results, every field bit for bit,
    /// in store order (ascending stream, then start) instead of rank
    /// order: the scan without its rank sort, for callers that only vote
    /// ([`crate::predict::predict_position`] sums in this order).
    pub fn find_matches_in_store_order(
        &self,
        query: &QuerySubseq,
        options: &SearchOptions,
    ) -> Vec<MatchResult> {
        if options.top_k == Some(0) {
            return Vec::new();
        }
        let features = self.store.segment_features(self.params.axis);
        let Some(engine) = Engine::new(self, query, options, &features) else {
            return Vec::new();
        };
        let mut coll = engine.collector();
        let mut tally = SearchTally::default();
        engine.scan_streams(
            features.streams(),
            &mut BatchScorer::new(),
            &mut coll,
            &mut tally,
        );
        self.conclude(coll, &tally)
    }

    /// Reference implementation: the naive vertex-walking scan over
    /// [`SubseqView`]s, with no columnar features, no early abandoning and
    /// no bounded collection. Both plans are property-tested to return
    /// exactly its output. Kept simple on purpose — do not optimize.
    pub fn find_matches_naive(
        &self,
        query: &QuerySubseq,
        options: &SearchOptions,
    ) -> Vec<MatchResult> {
        let n = query.len();
        if n == 0 {
            return Vec::new();
        }
        let delta = options.delta_override.unwrap_or(self.params.delta);
        let mut out = Vec::new();
        for stream in self.store.streams().iter() {
            if let Some(allowed) = &options.restrict_patients {
                if !allowed.contains(&stream.meta.patient) {
                    continue;
                }
            }
            let nseg = stream.plr.num_segments();
            if nseg < n {
                continue;
            }
            for start in 0..=(nseg - n) {
                let r = SubseqRef::new(stream.meta.id, start, n);
                let Some(view) = SubseqView::new(stream.clone(), r) else {
                    continue;
                };
                if let Some(m) = self.score_candidate(query, &view, delta) {
                    out.push(m);
                }
            }
        }
        Self::finish(&mut out, options);
        out
    }

    /// The pruned plan: the query's state-order bucket from a feature
    /// index, instead of the scan's gate over every window. The bands are
    /// the scan's ([`Engine::band`]), read from the index entries' stored
    /// summaries, so entries outside them are skipped before their
    /// features are touched; band survivors are scored exactly. Results
    /// are identical to [`Matcher::find_matches_with`] (property-tested).
    /// `index` must cover windows of the query's length along the
    /// matcher's axis, which is why only
    /// [`CachedMatcher`](crate::index_cache::CachedMatcher) calls this:
    /// it picks the index.
    ///
    /// The bucket's binary search takes the widest amplitude band of the
    /// tiers present in the store; each entry in it is then checked
    /// against its own tier's bands.
    ///
    /// Survivors are `(stream, start)` pairs, put in store order by two
    /// counting sorts into a flat start array; each stream's run is looked
    /// up once and scored by [`Engine::score_run`]. Like the scan, the
    /// plan returns its results in store order.
    pub(crate) fn find_matches_pruned(
        &self,
        query: &QuerySubseq,
        index: &FeatureIndex,
        options: &SearchOptions,
    ) -> Vec<MatchResult> {
        let n = query.len();
        debug_assert_eq!(
            index.len(),
            n,
            "pruned search through an index of another length"
        );
        debug_assert_eq!(
            index.axis(),
            self.params.axis,
            "index summarizes another axis"
        );
        if n == 0 || options.top_k == Some(0) {
            return Vec::new();
        }
        let Some(sig) = query.signature() else {
            return self.find_matches_in_store_order(query, options);
        };
        let features = self.store.segment_features(self.params.axis);
        let Some(engine) = Engine::new(self, query, options, &features) else {
            return Vec::new();
        };
        let mut present = [false; 3];
        for t in &engine.tiers {
            present[t.relation as usize] = true;
        }
        let (lo, hi) = engine
            .bands
            .iter()
            .zip(present)
            .filter(|&(_, p)| p)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (b, _)| {
                (lo.min(b.amp.0), hi.max(b.amp.1))
            });
        let (range, bucket) = index.candidates_in_amp_range(sig, lo, hi);
        let mut tally = SearchTally {
            bucket_candidates: bucket as u64,
            ..SearchTally::default()
        };
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut max_start = 0;
        for e in range {
            let Some(tier) = engine.tiers.get(e.stream.0 as usize) else {
                continue;
            };
            let band = &engine.bands[tier.relation as usize];
            if !band.amp_contains(e.amp_sum) {
                continue;
            }
            tally.amp_band_candidates += 1;
            if !band.dur_contains(e.duration) {
                continue;
            }
            tally.dur_band_candidates += 1;
            invariants::band_candidate_admissible(e, &features, band);
            if tier.allowed {
                pairs.push((e.stream.0, e.subseq.start));
                max_start = max_start.max(e.subseq.start as usize);
            }
        }
        // The band lists survivors in amplitude order. Sorting them by
        // start, then stably by the dense stream id, leaves each stream's
        // run of starts ascending, so results come out in store order.
        let (pairs, _) = counting_sort(&pairs, max_start + 1, |(_, start)| start as usize, |p| p);
        let (flat, ends) = counting_sort(
            &pairs,
            engine.tiers.len(),
            |(stream, _)| stream as usize,
            |(_, start)| start as usize,
        );
        let mut coll = engine.collector();
        let mut batcher = BatchScorer::new();
        let mut own: Vec<usize> = Vec::new();
        let mut begin = 0;
        for (sf, &end) in features.streams().iter().zip(&ends) {
            let run = &flat[begin..end];
            begin = end;
            if run.is_empty() {
                continue;
            }
            let skip = engine.own_overlap(sf);
            let run = if skip.is_empty() {
                run
            } else {
                own.clear();
                own.extend(run.iter().copied().filter(|s| !skip.contains(s)));
                &own[..]
            };
            engine.score_run(sf, run, &mut batcher, &mut coll, &mut tally);
        }
        self.conclude(coll, &tally)
    }

    /// Scores one candidate for the naive reference path. Patient
    /// restriction is applied at the stream level by the caller.
    fn score_candidate(
        &self,
        query: &QuerySubseq,
        view: &SubseqView,
        delta: f64,
    ) -> Option<MatchResult> {
        let meta = view.stream().meta;
        // Exclude candidates overlapping the query's own window.
        if query.origin_stream == Some(meta.id) {
            let q_first = query.vertices.first()?.time;
            let q_last = query.vertices.last()?.time;
            let c_first = view.first_vertex().time;
            let c_last = view.last_vertex().time;
            if c_last > q_first && c_first < q_last {
                return None;
            }
        }
        let relation = match query.origin {
            Some((patient, session)) => {
                if patient != meta.patient {
                    SourceRelation::OtherPatient
                } else if session != meta.session {
                    SourceRelation::SamePatient
                } else {
                    SourceRelation::SameSession
                }
            }
            None => SourceRelation::OtherPatient,
        };
        let d = online_distance(&query.vertices, view.vertices(), &self.params, relation)?;
        // Kept only when `d <= delta`, as both plans keep a window: a NaN
        // distance (a displacement that overflowed) is no match.
        (d <= delta).then(|| MatchResult {
            subseq: view.subseq_ref(),
            distance: d,
            ws: self.params.ws(relation),
            relation,
        })
    }

    /// Accounts one finished search and returns its results in store
    /// order.
    fn conclude(&self, coll: Collector, tally: &SearchTally) -> Vec<MatchResult> {
        self.metrics.incr(Counter::Searches);
        self.metrics.record_search(tally);
        let out = coll.into_results();
        invariants::results_in_store_order(&out);
        out
    }

    fn finish(out: &mut Vec<MatchResult>, options: &SearchOptions) {
        // `cmp_results` orders any two distinct windows, and a search
        // yields each window at most once, so no two results tie and the
        // unstable sort gives the stable sort's order.
        out.sort_unstable_by(cmp_results);
        invariants::results_strictly_ordered(out);
        if let Some(k) = options.top_k {
            out.truncate(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AmplitudeMetric;
    use proptest::prelude::*;
    use tsm_db::PatientAttributes;
    use tsm_model::{segment_signal, PlrTrajectory, SegmenterConfig, Vertex};
    use tsm_signal::{BreathingParams, SignalGenerator};
    use BreathState::*;

    /// A PLR stream of `n` cycles with the given amplitude.
    fn plr(n: usize, amplitude: f64) -> PlrTrajectory {
        let mut v = Vec::new();
        let mut t = 0.0;
        for _ in 0..n {
            v.push(Vertex::new_1d(t, amplitude, Exhale));
            v.push(Vertex::new_1d(t + 1.5, 0.0, EndOfExhale));
            v.push(Vertex::new_1d(t + 2.5, 0.0, Inhale));
            t += 4.0;
        }
        v.push(Vertex::new_1d(t, amplitude, Exhale));
        PlrTrajectory::from_vertices(v).unwrap()
    }

    /// Store: patient 0 (sessions 0, 1) breathing at 10 mm; patient 1 at
    /// 10.5 mm; patient 2 at 25 mm (far).
    fn setup() -> (StreamStore, Vec<StreamId>) {
        let store = StreamStore::new();
        let p0 = store.add_patient(PatientAttributes::new());
        let p1 = store.add_patient(PatientAttributes::new());
        let p2 = store.add_patient(PatientAttributes::new());
        let ids = vec![
            store.add_stream(p0, 0, plr(8, 10.0), 800),
            store.add_stream(p0, 1, plr(8, 10.2), 800),
            store.add_stream(p1, 0, plr(8, 10.5), 800),
            store.add_stream(p2, 0, plr(8, 25.0), 800),
        ];
        (store, ids)
    }

    fn query_from(store: &StreamStore, id: StreamId, start: usize, len: usize) -> QuerySubseq {
        let view = store.resolve(SubseqRef::new(id, start, len)).unwrap();
        QuerySubseq::from_view(&view)
    }

    #[test]
    fn retrieves_similar_and_respects_delta() {
        let (store, ids) = setup();
        let m = Matcher::new(store.clone(), Params::default());
        let q = query_from(&store, ids[0], 0, 9);
        let matches = m.find_matches(&q);
        assert!(!matches.is_empty());
        // Sorted by distance.
        for w in matches.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        // All within delta.
        assert!(matches.iter().all(|r| r.distance <= m.params().delta));
        // The far patient's 25 mm breathing must not match a 10 mm query
        // within delta 8: per-segment amp deviation 15mm / ws 0.3 = 50.
        assert!(matches.iter().all(|r| r.subseq.stream != ids[3]));
    }

    #[test]
    fn engine_scan_equals_naive_reference() {
        let (store, ids) = setup();
        let m = Matcher::new(store.clone(), Params::default());
        for (start, len) in [(0usize, 9usize), (1, 6), (3, 3), (5, 12)] {
            let q = query_from(&store, ids[0], start, len);
            for opts in [
                SearchOptions::default(),
                SearchOptions {
                    top_k: Some(3),
                    ..Default::default()
                },
                SearchOptions {
                    delta_override: Some(0.4),
                    ..Default::default()
                },
            ] {
                let naive = m.find_matches_naive(&q, &opts);
                let engine = m.find_matches_with(&q, &opts);
                assert_eq!(naive, engine, "divergence at ({start}, {len})");
            }
        }
    }

    #[test]
    fn tie_breaks_are_deterministic_and_topk_is_a_prefix() {
        let (store, ids) = setup();
        let m = Matcher::new(store.clone(), Params::default());
        // Periodic streams make many candidates with *exactly* equal
        // distances; the (distance, stream, start) order must hold.
        let q = query_from(&store, ids[0], 0, 3);
        let all = m.find_matches(&q);
        for w in all.windows(2) {
            assert_ne!(cmp_results(&w[0], &w[1]), Ordering::Greater);
        }
        for k in [1usize, 2, 5, all.len(), all.len() + 7] {
            let opts = SearchOptions {
                top_k: Some(k),
                ..Default::default()
            };
            let topk = m.find_matches_with(&q, &opts);
            assert_eq!(topk.as_slice(), &all[..k.min(all.len())], "k = {k}");
        }
        let opts = SearchOptions {
            top_k: Some(0),
            ..Default::default()
        };
        assert!(m.find_matches_with(&q, &opts).is_empty());
    }

    #[test]
    fn self_overlap_excluded_but_own_history_allowed() {
        let (store, ids) = setup();
        let m = Matcher::new(store.clone(), Params::default());
        // Query = the *last* 9 segments of stream 0.
        let nseg = store.stream(ids[0]).unwrap().plr.num_segments();
        let q = query_from(&store, ids[0], nseg - 9, 9);
        let matches = m.find_matches(&q);
        // The identical window itself must be excluded...
        assert!(matches
            .iter()
            .all(|r| !(r.subseq.stream == ids[0] && r.subseq.start as usize == nseg - 9)));
        // ...but earlier windows of the same stream are prime candidates.
        assert!(matches.iter().any(|r| r.subseq.stream == ids[0]));
    }

    #[test]
    fn source_relations_assigned_correctly() {
        let (store, ids) = setup();
        let m = Matcher::new(store.clone(), Params::default());
        let q = query_from(&store, ids[0], 0, 9);
        let matches = m.find_matches(&q);
        for r in &matches {
            let expected = if r.subseq.stream == ids[0] {
                SourceRelation::SameSession
            } else if r.subseq.stream == ids[1] {
                SourceRelation::SamePatient
            } else {
                SourceRelation::OtherPatient
            };
            assert_eq!(r.relation, expected);
        }
        // Same-session matches rank first (identical shapes everywhere, so
        // the ws division decides).
        assert_eq!(matches[0].relation, SourceRelation::SameSession);
    }

    #[test]
    fn patient_restriction() {
        let (store, ids) = setup();
        let m = Matcher::new(store.clone(), Params::default());
        let q = query_from(&store, ids[0], 0, 9);
        let mut allowed = HashSet::new();
        allowed.insert(PatientId(1));
        let opts = SearchOptions {
            restrict_patients: Some(allowed),
            ..Default::default()
        };
        let matches = m.find_matches_with(&q, &opts);
        assert!(!matches.is_empty());
        assert!(matches.iter().all(|r| r.subseq.stream == ids[2]));
        // The restricted search agrees with the naive reference and the
        // pruned plan (stream-level filter everywhere).
        assert_eq!(matches, m.find_matches_naive(&q, &opts));
        let fi = FeatureIndex::build(&store, 9, 0);
        assert_eq!(
            m.find_matches_in_store_order(&q, &opts),
            m.find_matches_pruned(&q, &fi, &opts)
        );
    }

    #[test]
    fn top_k_truncates() {
        let (store, ids) = setup();
        let m = Matcher::new(store.clone(), Params::default());
        let q = query_from(&store, ids[0], 0, 9);
        let opts = SearchOptions {
            top_k: Some(5),
            ..Default::default()
        };
        let matches = m.find_matches_with(&q, &opts);
        assert_eq!(matches.len(), 5);
    }

    #[test]
    fn delta_override_tightens_the_net() {
        let (store, ids) = setup();
        let m = Matcher::new(store.clone(), Params::default());
        let q = query_from(&store, ids[0], 0, 9);
        let all = m.find_matches(&q).len();
        let opts = SearchOptions {
            delta_override: Some(0.2),
            ..Default::default()
        };
        let tight = m.find_matches_with(&q, &opts).len();
        assert!(tight < all, "tight {tight} vs all {all}");
    }

    #[test]
    fn pruned_search_equals_scan() {
        let (store, ids) = setup();
        let m = Matcher::new(store.clone(), Params::default());
        let index = FeatureIndex::build(&store, 9, 0);
        // Both plans return the same results in store order.
        let opts = SearchOptions::default();
        for start in [0usize, 1, 3, 6] {
            let q = query_from(&store, ids[0], start, 9);
            let scan = m.find_matches_in_store_order(&q, &opts);
            let pruned = m.find_matches_pruned(&q, &index, &opts);
            assert_eq!(scan, pruned, "divergence at start {start}");
        }
        // Tight delta too.
        let q = query_from(&store, ids[0], 0, 9);
        let opts = SearchOptions {
            delta_override: Some(0.3),
            ..Default::default()
        };
        assert_eq!(
            m.find_matches_in_store_order(&q, &opts),
            m.find_matches_pruned(&q, &index, &opts)
        );
    }

    /// The rank sort orders a store-ordered result list exactly as
    /// `cmp_results` does: signed zeros, subnormals and infinities by
    /// `total_cmp`, and distance ties by stream, then start.
    #[test]
    fn packed_keys_order_as_cmp_results() {
        let distances = [
            f64::NEG_INFINITY,
            -8.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            0.1,
            0.1 + f64::EPSILON,
            8.0,
            f64::MAX,
            f64::INFINITY,
        ];
        // Store order, with each distance shared by several windows.
        let mut results = Vec::new();
        for (i, stream) in [0u32, 1, 7, 9, 12, u32::MAX].into_iter().enumerate() {
            for (j, start) in [0usize, 3, 9, u32::MAX as usize].into_iter().enumerate() {
                results.push(MatchResult {
                    subseq: SubseqRef::new(StreamId(stream), start, 9),
                    distance: distances[(i * 5 + j * 3) % distances.len()],
                    ws: 1.0,
                    relation: SourceRelation::SameSession,
                });
            }
        }
        let mut want = results.clone();
        want.sort_by(cmp_results);
        let bits = |v: &[MatchResult]| -> Vec<(SubseqRef, u64)> {
            v.iter().map(|m| (m.subseq, m.distance.to_bits())).collect()
        };
        assert_eq!(bits(&rank(results)), bits(&want));
    }

    /// A store of 2 patients × 2 simulated 60 s streams of `dim`
    /// dimensions, and its first stream's id.
    fn simulated_store(amp: f64, seed: u64, dim: usize) -> (StreamStore, StreamId) {
        let store = StreamStore::new();
        let mut first = None;
        for p in 0..2u64 {
            let pid = store.add_patient(PatientAttributes::new());
            for s in 0..2u64 {
                let params = BreathingParams {
                    amplitude_mm: amp * (1.0 + 0.1 * p as f64),
                    period_s: 4.0,
                    dim,
                    ..Default::default()
                };
                let samples = SignalGenerator::new(params, seed * 97 + p * 13 + s).generate(60.0);
                let vertices = segment_signal(&samples, SegmenterConfig::clean());
                if let Ok(plr) = PlrTrajectory::from_vertices(vertices) {
                    let id = store.add_stream(pid, s as u32, plr, samples.len());
                    first.get_or_insert(id);
                }
            }
        }
        (store, first.expect("at least one stream"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The band is admissible: every window the oracle returns lies
        /// inside its own source tier's amplitude and duration bands, so
        /// neither plan drops a window the oracle returns. Queries are cut
        /// from stored streams (all three tiers present) or detached from
        /// them (every window another patient's), under both amplitude
        /// metrics, with Table 1's source weights or weights above 1,
        /// where a tier's band is wider than at `ws = 1`. The store also
        /// holds a second stream of the query's session: a copy of its
        /// stream with every position stretched by `1 + stretch`. Its
        /// window at the query's place differs from the query by the same
        /// fraction in every segment, so its amplitude summary lies as far
        /// from the query's as its distance allows. Each query runs at the
        /// drawn δ (0.05 to 10) and at that window's own distance.
        #[test]
        fn band_holds_every_window_the_oracle_returns(
            amp in 6.0f64..18.0,
            seed in 1u64..500,
            start in 0usize..8,
            len in 3usize..12,
            delta in 0.05f64..10.0,
            stretch in 0.01f64..0.5,
            spatial in proptest::bool::ANY,
            heavy in 0usize..4,
        ) {
            let (store, id) = simulated_store(amp, seed, if spatial { 3 } else { 1 });
            let source = store.stream(id).unwrap();
            let stretched = source
                .plr
                .vertices()
                .iter()
                .map(|v| Vertex {
                    position: v.position * (1.0 + stretch),
                    ..*v
                })
                .collect();
            let twin = store.add_stream(
                source.meta.patient,
                source.meta.session,
                PlrTrajectory::from_vertices(stretched).unwrap(),
                source.raw_len,
            );
            let weights = [(0.9, 1.0), (1.5, 3.0), (1.0, 2.0), (1.2, 1.2)];
            let (same_patient, same_session) = weights[heavy];
            let params = Params {
                ws_same_patient: same_patient,
                ws_same_session: same_session,
                amplitude_metric: if spatial {
                    AmplitudeMetric::Spatial
                } else {
                    AmplitudeMetric::Axis
                },
                ..Params::default()
            };
            prop_assert!(params.validate().is_ok());
            let Some(view) = store.resolve(SubseqRef::new(id, start, len)) else {
                return Ok(());
            };
            let own = QuerySubseq::from_view(&view);
            let detached = QuerySubseq::new(own.vertices.clone());
            let twin_view = store.resolve(SubseqRef::new(twin, start, len)).unwrap();
            let relation = SourceRelation::SameSession;
            let twin_d = online_distance(&own.vertices, twin_view.vertices(), &params, relation);
            let matcher = Matcher::new(store.clone(), params);
            let features = store.segment_features(matcher.params.axis);
            for query in [&own, &detached] {
                for delta in [delta, twin_d.unwrap()] {
                    let opts = SearchOptions {
                        delta_override: Some(delta),
                        ..Default::default()
                    };
                    let engine = Engine::new(&matcher, query, &opts, &features).unwrap();
                    for m in matcher.find_matches_naive(query, &opts) {
                        let sf = features.stream(m.subseq.stream).unwrap();
                        let (j, n) = (m.subseq.start as usize, m.subseq.len as usize);
                        let band = &engine.bands[m.relation as usize];
                        let (amp_sum, dur) = (sf.amp_sum(j, n), sf.window_duration(j, n));
                        prop_assert!(
                            band.amp_contains(amp_sum) && band.dur_contains(dur),
                            "{:?} at d = {} (δ = {}): amp {} outside {:?} or dur {} outside {:?}",
                            m.subseq, m.distance, delta, amp_sum, band.amp, dur, band.dur,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_query_matches_nothing() {
        let (store, _) = setup();
        let m = Matcher::new(store, Params::default());
        let q = QuerySubseq::new(vec![]);
        assert!(q.is_empty());
        assert!(m.find_matches(&q).is_empty());
    }

    #[test]
    fn anonymous_queries_treat_everyone_as_other() {
        let (store, ids) = setup();
        let m = Matcher::new(store.clone(), Params::default());
        let view = store.resolve(SubseqRef::new(ids[0], 0, 9)).unwrap();
        let q = QuerySubseq::new(view.vertices().to_vec());
        let matches = m.find_matches(&q);
        assert!(!matches.is_empty());
        assert!(matches
            .iter()
            .all(|r| r.relation == SourceRelation::OtherPatient));
    }
}
