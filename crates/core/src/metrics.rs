//! Zero-cost-when-disabled instrumentation for the online pipeline.
//!
//! The engine's three hot layers — the columnar matcher, the online
//! segmenter and the session runtime — account their work through a
//! [`MetricsRegistry`] handle. A disabled registry (the default) is a
//! `None` inside an `Option<Arc<_>>`: every record call is a branch on a
//! pointer and nothing else — no allocation, no atomics, no clock reads.
//! An enabled registry is a fixed block of atomic counters plus a few
//! fixed-bucket histograms, so recording never allocates either; hot
//! loops accumulate into a plain [`SearchTally`] and flush once per
//! search.
//!
//! Several invariants tie the counters together (checked by
//! [`MetricsSnapshot::check_invariants`] and the test suite):
//!
//! * `match.windows_scored == match.windows_abandoned + match.windows_completed`
//! * `index.dur_band_candidates <= index.amp_band_candidates <=
//!   index.bucket_candidates`
//! * `cache.hits + cache.misses == cache.lookups`
//! * `cache.rebuilds == cache.misses`
//! * `cohort.sessions_failed <= cohort.sessions`
//! * `session.predictions_served + session.predictions_abstained == session.ticks`
//! * `session.abstained_unhealthy <= session.predictions_abstained`
//! * `session.health_recovered <= session.health_recovering <= session.health_degraded`
//! * `segment.resyncs <= segment.smoother_resets`
//! * `serve.rejected <= serve.requests`
//! * `predict.memo_hits <= predict.lookups`
//! * salvage stream counters imply `store.salvage_loads > 0`
//!
//! [`MetricsSnapshot`] is a point-in-time copy: diffable (`later.diff
//! (&earlier)` yields the work done in between) and mergeable across
//! sessions or workers. Counter names ending in `_hwm` are high-water
//! gauges: they merge by `max` and a diff keeps the later value.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every counter the pipeline maintains. The enum is the index into the
/// registry's atomic block, so adding a counter is adding a variant plus
/// its name below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Top-level searches issued against the matcher.
    Searches,
    /// Candidate windows handed to the scorer with a matching state order.
    WindowsScored,
    /// Scored windows whose exact numerator exceeded the abandon limit.
    WindowsAbandoned,
    /// Scored windows whose exact distance was computed.
    WindowsCompleted,
    /// Candidate windows rejected by the state-order gate before scoring.
    WindowsStateMismatch,
    /// Windows with the query's state order, before any band filtering:
    /// the pruned plan's signature bucket, or the scan's gate survivors.
    IndexBucketCandidates,
    /// Of those, the windows inside the amplitude band of their own
    /// source tier.
    IndexAmpBandCandidates,
    /// Of those, the windows inside their tier's duration band too. Both
    /// plans score the ones the patient restriction admits; the scan
    /// never visits a stream the restriction excludes.
    IndexDurBandCandidates,
    /// Index lookups through the `IndexCache`.
    CacheLookups,
    /// Lookups served from the cache.
    CacheHits,
    /// Lookups that had to (re)build an index.
    CacheMisses,
    /// Index builds performed (== misses; kept separate so the cache's
    /// own rebuild counter and the registry can be cross-checked).
    CacheRebuilds,
    /// Raw samples accepted by the segmenter.
    SegmenterSamples,
    /// Non-finite samples rejected at ingest.
    SamplesRejected,
    /// PLR vertices emitted.
    VerticesEmitted,
    /// Emitted vertices whose state differs from the previous vertex.
    StateTransitions,
    /// Times the preprocessing (smoothing) chain was reset, e.g. after a
    /// timestamp regression.
    SmootherResets,
    /// Prediction ticks fired by session runtimes.
    SessionTicks,
    /// Ticks that produced a prediction.
    PredictionsServed,
    /// Ticks where the predictor abstained.
    PredictionsAbstained,
    /// Sessions replayed by cohort runtimes.
    CohortSessions,
    /// Sessions that ended with an error instead of completing.
    CohortSessionsFailed,
    /// High-water mark of the work pending on any one session: a replayed
    /// session's ticks plus its end, or the requests admitted to a serve
    /// session (max-merged gauge, see the module docs).
    CohortBacklogHwm,
    /// Segmenter resyncs triggered by the ingest guard (gap or
    /// backwards time). Every resync also resets the smoother, so
    /// `segment.resyncs <= segment.smoother_resets`.
    SegmenterResyncs,
    /// Duplicate-timestamp samples dropped by the ingest guard.
    DuplicatesDropped,
    /// Distinct stuck-sensor runs detected by the ingest guard.
    StuckRuns,
    /// Transitions into `SessionHealth::Degraded`.
    HealthDegraded,
    /// Transitions into `SessionHealth::Recovering`.
    HealthRecovering,
    /// Transitions back to `SessionHealth::Healthy` after recovery.
    HealthRecovered,
    /// Abstentions forced by session health (a subset of
    /// `session.predictions_abstained`).
    AbstainedUnhealthy,
    /// Recoverable per-sample faults the session supervisor
    /// (`SessionRuntime::ingest`, in replay and serve) absorbed instead
    /// of failing the session.
    CohortFaultsAbsorbed,
    /// Store loads that went through the salvage path.
    SalvageLoads,
    /// Streams recovered across all salvage loads.
    SalvageStreamsRecovered,
    /// Streams lost (expected minus recovered) across salvage loads.
    SalvageStreamsLost,
    /// HTTP requests the serve front-end answered (every response
    /// written, including parse failures and requests shed by admission
    /// control).
    ServeRequests,
    /// Requests shed by admission control or input validation (4xx/5xx
    /// responses), a subset of `serve.requests`.
    ServeRejected,
    /// Request body bytes the serve front-end accepted.
    ServeBytesIn,
    /// Response body bytes the serve front-end wrote.
    ServeBytesOut,
    /// Records appended to the write-ahead log.
    WalAppends,
    /// WAL appends that fsynced before acknowledging (the RPO = 0
    /// contract; a subset of `wal.appends`).
    WalFsyncs,
    /// WAL records applied during crash recovery.
    WalReplayedRecords,
    /// Crash-recovery passes performed.
    WalRecoveries,
    /// Streams captured in published snapshot images.
    SnapshotRecords,
    /// Snapshot checkpoints published.
    SnapshotCheckpoints,
    /// Recoveries that truncated a torn WAL tail (a subset of
    /// `wal.recoveries`).
    RecoveryTruncatedTail,
    /// `SessionRuntime::predict` calls that generated a query.
    PredictLookups,
    /// Lookups answered from the session's prediction memo without a
    /// search (a subset of `predict.lookups`).
    PredictMemoHits,
}

const COUNTER_COUNT: usize = Counter::PredictMemoHits as usize + 1;

const COUNTER_NAMES: [&str; COUNTER_COUNT] = [
    "match.searches",
    "match.windows_scored",
    "match.windows_abandoned",
    "match.windows_completed",
    "match.windows_state_mismatch",
    "index.bucket_candidates",
    "index.amp_band_candidates",
    "index.dur_band_candidates",
    "cache.lookups",
    "cache.hits",
    "cache.misses",
    "cache.rebuilds",
    "segment.samples",
    "segment.samples_rejected",
    "segment.vertices_emitted",
    "segment.state_transitions",
    "segment.smoother_resets",
    "session.ticks",
    "session.predictions_served",
    "session.predictions_abstained",
    "cohort.sessions",
    "cohort.sessions_failed",
    "cohort.backlog_hwm",
    "segment.resyncs",
    "segment.duplicates_dropped",
    "segment.stuck_runs",
    "session.health_degraded",
    "session.health_recovering",
    "session.health_recovered",
    "session.abstained_unhealthy",
    "cohort.faults_absorbed",
    "store.salvage_loads",
    "store.salvage_streams_recovered",
    "store.salvage_streams_lost",
    "serve.requests",
    "serve.rejected",
    "serve.bytes_in",
    "serve.bytes_out",
    "wal.appends",
    "wal.fsyncs",
    "wal.replayed_records",
    "wal.recoveries",
    "snapshot.records",
    "snapshot.checkpoints",
    "recovery.truncated_tail",
    "predict.lookups",
    "predict.memo_hits",
];

impl Counter {
    /// The snapshot key of this counter.
    pub fn name(self) -> &'static str {
        COUNTER_NAMES[self as usize]
    }
}

/// The latency/value histograms the pipeline maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Wall time of one prediction tick (segment + query + search + vote).
    TickLatency,
    /// Wall time of one whole matcher search.
    SearchLatency,
    /// Wall time of one HTTP request in the serve front-end (parse
    /// through response write).
    ServeLatency,
}

const HIST_COUNT: usize = Hist::ServeLatency as usize + 1;

const HIST_NAMES: [&str; HIST_COUNT] = [
    "session.tick_latency_ns",
    "match.search_latency_ns",
    "serve.request_latency_ns",
];

impl Hist {
    /// The snapshot key of this histogram.
    pub fn name(self) -> &'static str {
        HIST_NAMES[self as usize]
    }
}

/// Number of buckets per histogram. Bucket `i` counts values in
/// `[256 << (i-1), 256 << i)` nanoseconds (bucket 0 holds everything
/// below 256 ns, the last bucket everything above ~2 s).
pub const HIST_BUCKETS: usize = 24;

fn bucket_index(ns: u64) -> usize {
    let shifted = ns >> 8;
    if shifted == 0 {
        0
    } else {
        ((64 - shifted.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

#[derive(Debug)]
struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistInner {
    fn new() -> Self {
        HistInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, v: u64) {
        // Relaxed throughout: monotone statistics counters; snapshots
        // tolerate a count/sum/bucket skew of in-flight observations.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed); // Relaxed: see above.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed); // Relaxed: see above.
    }
}

#[derive(Debug)]
struct Inner {
    counters: [AtomicU64; COUNTER_COUNT],
    hists: [HistInner; HIST_COUNT],
}

/// Per-search scratch tally: hot loops bump these plain integers and the
/// search flushes them into the registry once, so the scoring loop never
/// touches an atomic. Cheap enough to maintain unconditionally — the
/// enabled/disabled branch happens only at flush time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchTally {
    /// Windows passed to the scorer (state order matched).
    pub windows_scored: u64,
    /// Windows whose exact numerator exceeded the abandon limit.
    pub windows_abandoned: u64,
    /// Windows whose exact distance was computed.
    pub windows_completed: u64,
    /// Windows rejected by the state-order gate.
    pub windows_state_mismatch: u64,
    /// Windows with the query's state order: signature-bucket entries
    /// (pruned plan) or gate survivors (scan).
    pub bucket_candidates: u64,
    /// Of those, the windows inside the amplitude band of their own
    /// source tier.
    pub amp_band_candidates: u64,
    /// Of those, the windows inside their tier's duration band too.
    pub dur_band_candidates: u64,
}

impl SearchTally {
    /// Folds another tally (e.g. a parallel worker's) into this one. In
    /// debug builds the incoming tally and the merged result are both
    /// checked for reconciliation, so a lost or double-counted worker
    /// tally is caught at the join point.
    pub fn merge(&mut self, other: &SearchTally) {
        crate::invariants::tally_reconciled(other);
        self.windows_scored += other.windows_scored;
        self.windows_abandoned += other.windows_abandoned;
        self.windows_completed += other.windows_completed;
        self.windows_state_mismatch += other.windows_state_mismatch;
        self.bucket_candidates += other.bucket_candidates;
        self.amp_band_candidates += other.amp_band_candidates;
        self.dur_band_candidates += other.dur_band_candidates;
        crate::invariants::tally_reconciled(self);
    }
}

/// A cloneable handle to the instrumentation block. Disabled by default;
/// every clone observes the same counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Inner>>,
}

impl MetricsRegistry {
    /// A registry that records. Allocates its (fixed-size) counter block
    /// once, here; recording never allocates.
    pub fn enabled() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(Inner {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| HistInner::new()),
            })),
        }
    }

    /// A registry that drops everything (the default).
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether this handle records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            if n != 0 {
                // Relaxed: monotone counter; never orders other memory.
                inner.counters[c as usize].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        if let Some(inner) = &self.inner {
            // Relaxed: monotone counter; never orders other memory.
            inner.counters[c as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Raises a high-water gauge to at least `v`.
    #[inline]
    pub fn record_max(&self, c: Counter, v: u64) {
        if let Some(inner) = &self.inner {
            // Relaxed: max-merge gauge; commutative, order-insensitive.
            inner.counters[c as usize].fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Records one observation (in nanoseconds) into a histogram.
    #[inline]
    pub fn observe_ns(&self, h: Hist, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.hists[h as usize].observe(ns);
        }
    }

    /// Starts a timer — `None` when disabled, so the disabled path never
    /// reads the clock.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        // lint:allow(no-instant-now-in-hot-path): this *is* the metrics
        // timing layer every other module is required to route through.
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Completes a timer started with [`MetricsRegistry::start`].
    #[inline]
    pub fn observe_since(&self, h: Hist, started: Option<Instant>) {
        if let Some(t0) = started {
            self.observe_ns(h, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Flushes a per-search tally into the counters. Debug builds check
    /// the tally reconciles (scored = abandoned + completed, narrowing
    /// candidate funnel) before it is folded into the registry.
    pub fn record_search(&self, t: &SearchTally) {
        crate::invariants::tally_reconciled(t);
        if self.inner.is_none() {
            return;
        }
        self.add(Counter::WindowsScored, t.windows_scored);
        self.add(Counter::WindowsAbandoned, t.windows_abandoned);
        self.add(Counter::WindowsCompleted, t.windows_completed);
        self.add(Counter::WindowsStateMismatch, t.windows_state_mismatch);
        self.add(Counter::IndexBucketCandidates, t.bucket_candidates);
        self.add(Counter::IndexAmpBandCandidates, t.amp_band_candidates);
        self.add(Counter::IndexDurBandCandidates, t.dur_band_candidates);
    }

    /// A point-in-time copy of every counter and histogram. A disabled
    /// registry snapshots as empty.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        // Relaxed throughout: snapshots are advisory statistics taken
        // while writers run; cross-counter consistency is reconciled at
        // quiescence (see MetricsSnapshot::check_invariants), not here.
        let mut counters = BTreeMap::new();
        for (i, a) in inner.counters.iter().enumerate() {
            // Relaxed: advisory snapshot (see above).
            counters.insert(COUNTER_NAMES[i].to_string(), a.load(Ordering::Relaxed));
        }
        let mut histograms = BTreeMap::new();
        for (i, h) in inner.hists.iter().enumerate() {
            histograms.insert(
                HIST_NAMES[i].to_string(),
                HistogramSnapshot {
                    // Relaxed: same advisory-snapshot contract as above.
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed), // Relaxed: see above.
                    buckets: h
                        .buckets
                        .iter()
                        // Relaxed: advisory snapshot (see above).
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                },
            );
        }
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (nanoseconds for the latency
    /// histograms).
    pub sum: u64,
    /// Per-bucket observation counts (see [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let n = self.buckets.len().max(other.buckets.len());
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            buckets: (0..n)
                .map(|i| at(&self.buckets, i) + at(&other.buckets, i))
                .collect(),
        }
    }

    fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: (0..self.buckets.len())
                .map(|i| at(&self.buckets, i).saturating_sub(at(&earlier.buckets, i)))
                .collect(),
        }
    }

    /// Mean observed value, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

fn is_hwm(name: &str) -> bool {
    name.ends_with("_hwm")
}

/// A diffable, mergeable copy of the registry at one point in time.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Counter values by name. Names ending in `_hwm` are high-water
    /// gauges (merge by max).
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded (also the disabled-registry
    /// snapshot).
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0) && self.histograms.values().all(|h| h.count == 0)
    }

    /// A counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Combines two snapshots: counters add (gauges take the max),
    /// histograms add bucket-wise. Associative and commutative.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (k, &v) in &other.counters {
            let slot = out.counters.entry(k.clone()).or_insert(0);
            *slot = if is_hwm(k) { (*slot).max(v) } else { *slot + v };
        }
        for (k, h) in &other.histograms {
            let merged = match out.histograms.get(k) {
                Some(mine) => mine.merge(h),
                None => h.clone(),
            };
            out.histograms.insert(k.clone(), merged);
        }
        out
    }

    /// The work recorded between `earlier` and `self` (both from the same
    /// registry): counters subtract (saturating; gauges keep the later
    /// value), histograms subtract bucket-wise.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let empty_h = HistogramSnapshot::default();
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    let before = earlier.counter(k);
                    let d = if is_hwm(k) {
                        v
                    } else {
                        v.saturating_sub(before)
                    };
                    (k.clone(), d)
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let before = earlier.histograms.get(k).unwrap_or(&empty_h);
                    (k.clone(), h.diff(before))
                })
                .collect(),
        }
    }

    /// Checks the counter invariants the instrumentation guarantees.
    /// Returns a description of the first violation, if any.
    pub fn check_invariants(&self) -> Result<(), String> {
        let scored = self.counter("match.windows_scored");
        let abandoned = self.counter("match.windows_abandoned");
        let completed = self.counter("match.windows_completed");
        if scored != abandoned + completed {
            return Err(format!(
                "windows_scored ({scored}) != abandoned ({abandoned}) + completed ({completed})"
            ));
        }
        let bucket = self.counter("index.bucket_candidates");
        let amp_band = self.counter("index.amp_band_candidates");
        let dur_band = self.counter("index.dur_band_candidates");
        if !(dur_band <= amp_band && amp_band <= bucket) {
            return Err(format!(
                "band funnel widened: bucket ({bucket}) -> amp_band ({amp_band}) -> \
                 dur_band ({dur_band})"
            ));
        }
        let lookups = self.counter("cache.lookups");
        let hits = self.counter("cache.hits");
        let misses = self.counter("cache.misses");
        if hits + misses != lookups {
            return Err(format!(
                "cache hits ({hits}) + misses ({misses}) != lookups ({lookups})"
            ));
        }
        let rebuilds = self.counter("cache.rebuilds");
        if rebuilds != misses {
            return Err(format!("cache rebuilds ({rebuilds}) != misses ({misses})"));
        }
        let cohort_sessions = self.counter("cohort.sessions");
        let cohort_failed = self.counter("cohort.sessions_failed");
        if cohort_failed > cohort_sessions {
            return Err(format!(
                "cohort sessions_failed ({cohort_failed}) > sessions ({cohort_sessions})"
            ));
        }
        let ticks = self.counter("session.ticks");
        let served = self.counter("session.predictions_served");
        let abstained = self.counter("session.predictions_abstained");
        if served + abstained != ticks {
            return Err(format!(
                "predictions served ({served}) + abstained ({abstained}) != ticks ({ticks})"
            ));
        }
        let unhealthy = self.counter("session.abstained_unhealthy");
        if unhealthy > abstained {
            return Err(format!(
                "abstained_unhealthy ({unhealthy}) > predictions_abstained ({abstained})"
            ));
        }
        let degraded = self.counter("session.health_degraded");
        let recovering = self.counter("session.health_recovering");
        let recovered = self.counter("session.health_recovered");
        if recovering > degraded {
            return Err(format!(
                "health_recovering ({recovering}) > health_degraded ({degraded})"
            ));
        }
        if recovered > recovering {
            return Err(format!(
                "health_recovered ({recovered}) > health_recovering ({recovering})"
            ));
        }
        let resyncs = self.counter("segment.resyncs");
        let smoother_resets = self.counter("segment.smoother_resets");
        if resyncs > smoother_resets {
            return Err(format!(
                "segment resyncs ({resyncs}) > smoother_resets ({smoother_resets})"
            ));
        }
        let serve_requests = self.counter("serve.requests");
        let serve_rejected = self.counter("serve.rejected");
        if serve_rejected > serve_requests {
            return Err(format!(
                "serve rejected ({serve_rejected}) > requests ({serve_requests})"
            ));
        }
        let predict_lookups = self.counter("predict.lookups");
        let memo_hits = self.counter("predict.memo_hits");
        if memo_hits > predict_lookups {
            return Err(format!(
                "predict memo_hits ({memo_hits}) > lookups ({predict_lookups})"
            ));
        }
        let salvage_loads = self.counter("store.salvage_loads");
        let salvaged = self.counter("store.salvage_streams_recovered");
        let lost = self.counter("store.salvage_streams_lost");
        if salvage_loads == 0 && salvaged + lost > 0 {
            return Err(format!(
                "salvage streams recorded ({salvaged} + {lost}) without a salvage load"
            ));
        }
        let wal_appends = self.counter("wal.appends");
        let wal_fsyncs = self.counter("wal.fsyncs");
        if wal_fsyncs > wal_appends {
            return Err(format!(
                "wal fsyncs ({wal_fsyncs}) > appends ({wal_appends})"
            ));
        }
        let recoveries = self.counter("wal.recoveries");
        let replayed = self.counter("wal.replayed_records");
        let truncated = self.counter("recovery.truncated_tail");
        if recoveries == 0 && replayed + truncated > 0 {
            return Err(format!(
                "wal replay activity ({replayed} replayed, {truncated} truncations) without a \
                 recovery pass"
            ));
        }
        if truncated > recoveries {
            return Err(format!(
                "truncated tails ({truncated}) > recovery passes ({recoveries})"
            ));
        }
        let checkpoints = self.counter("snapshot.checkpoints");
        let snapshot_records = self.counter("snapshot.records");
        if checkpoints == 0 && snapshot_records > 0 {
            return Err(format!(
                "snapshot records ({snapshot_records}) without a checkpoint"
            ));
        }
        Ok(())
    }

    /// Renders the snapshot as a JSON document (hand-written — the
    /// vendored serde is a no-op stand-in). Keys are escaped through
    /// [`crate::json::escape_into`]: the built-in counter names are tame,
    /// but merged snapshots can carry arbitrary keys, and `/metrics`
    /// must never emit invalid JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str("\n    \"");
            crate::json::escape_into(&mut s, k);
            s.push_str(&format!("\": {v}"));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str("\n    \"");
            crate::json::escape_into(&mut s, k);
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            s.push_str(&format!(
                "\": {{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}",
                h.count,
                h.sum,
                buckets.join(", ")
            ));
        }
        s.push_str("\n  }\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let m = MetricsRegistry::disabled();
        assert!(!m.is_enabled());
        m.incr(Counter::Searches);
        m.add(Counter::WindowsScored, 10);
        m.record_max(Counter::CohortBacklogHwm, 7);
        m.observe_ns(Hist::TickLatency, 1000);
        assert!(m.start().is_none());
        let snap = m.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.counter("match.searches"), 0);
    }

    #[test]
    fn enabled_registry_counts_and_shares() {
        let m = MetricsRegistry::enabled();
        let clone = m.clone();
        m.incr(Counter::Searches);
        clone.add(Counter::Searches, 2);
        clone.record_max(Counter::CohortBacklogHwm, 5);
        clone.record_max(Counter::CohortBacklogHwm, 3);
        m.observe_ns(Hist::TickLatency, 300);
        m.observe_ns(Hist::TickLatency, 100_000);
        let snap = m.snapshot();
        assert_eq!(snap.counter("match.searches"), 3);
        assert_eq!(snap.counter("cohort.backlog_hwm"), 5);
        let h = &snap.histograms["session.tick_latency_ns"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 100_300);
        assert_eq!(h.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn bucket_indexing_is_monotone_and_bounded() {
        let mut prev = 0;
        for shift in 0..64 {
            let ix = bucket_index(1u64 << shift);
            assert!(ix >= prev && ix < HIST_BUCKETS);
            prev = ix;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(255), 0);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn snapshot_diff_isolates_an_interval() {
        let m = MetricsRegistry::enabled();
        m.add(Counter::WindowsScored, 5);
        m.record_max(Counter::CohortBacklogHwm, 4);
        let before = m.snapshot();
        m.add(Counter::WindowsScored, 7);
        m.observe_ns(Hist::SearchLatency, 512);
        let after = m.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counter("match.windows_scored"), 7);
        // Gauges keep the later value.
        assert_eq!(d.counter("cohort.backlog_hwm"), 4);
        assert_eq!(d.histograms["match.search_latency_ns"].count, 1);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let m = MetricsRegistry::enabled();
        m.incr(Counter::Searches);
        m.observe_ns(Hist::TickLatency, 999);
        let json = m.snapshot().to_json();
        assert!(json.contains("\"match.searches\": 1"));
        assert!(json.contains("\"session.tick_latency_ns\""));
        assert!(json.contains("\"buckets\": ["));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_rendering_escapes_hostile_keys() {
        // Built-in counter names are tame, but snapshots are a public
        // monoid: merged-in keys can contain anything. The renderer must
        // never let a key break out of its string literal.
        let hostile = "evil\"key\\with\nnewline\tand\u{01}control";
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert(hostile.to_string(), 7);
        snap.counters.insert("plain.key".to_string(), 1);
        snap.histograms.insert(
            hostile.to_string(),
            HistogramSnapshot {
                count: 2,
                sum: 10,
                buckets: vec![2],
            },
        );
        let json = snap.to_json();
        crate::json::validate(&json).expect("escaped snapshot must parse");
        assert!(json.contains("evil\\\"key\\\\with\\nnewline\\tand\\u0001control"));
        assert!(!json.contains(hostile), "raw hostile key leaked through");
    }

    #[test]
    fn json_rendering_of_live_registry_parses() {
        let m = MetricsRegistry::enabled();
        m.incr(Counter::Searches);
        m.incr(Counter::ServeRequests);
        m.observe_ns(Hist::ServeLatency, 12_345);
        crate::json::validate(&m.snapshot().to_json()).expect("snapshot JSON must parse");
    }

    #[test]
    fn serve_rejected_exceeding_requests_violates_invariants() {
        let m = MetricsRegistry::enabled();
        m.add(Counter::ServeRequests, 2);
        m.add(Counter::ServeRejected, 2);
        assert!(m.snapshot().check_invariants().is_ok());
        m.incr(Counter::ServeRejected);
        assert!(m.snapshot().check_invariants().is_err());
    }

    #[test]
    fn memo_hits_exceeding_lookups_violates_invariants() {
        let m = MetricsRegistry::enabled();
        m.add(Counter::PredictLookups, 3);
        m.add(Counter::PredictMemoHits, 3);
        assert!(m.snapshot().check_invariants().is_ok());
        m.incr(Counter::PredictMemoHits);
        assert!(m.snapshot().check_invariants().is_err());
    }

    #[test]
    fn widening_band_funnel_violates_invariants() {
        let m = MetricsRegistry::enabled();
        m.add(Counter::IndexBucketCandidates, 5);
        m.add(Counter::IndexAmpBandCandidates, 3);
        m.add(Counter::IndexDurBandCandidates, 3);
        assert!(m.snapshot().check_invariants().is_ok());
        m.incr(Counter::IndexDurBandCandidates);
        assert!(m.snapshot().check_invariants().is_err());
        m.add(Counter::IndexAmpBandCandidates, 3);
        assert!(m.snapshot().check_invariants().is_err());
    }

    #[test]
    fn invariants_detect_violation() {
        let m = MetricsRegistry::enabled();
        m.add(Counter::WindowsScored, 3);
        m.add(Counter::WindowsAbandoned, 1);
        m.add(Counter::WindowsCompleted, 2);
        assert!(m.snapshot().check_invariants().is_ok());
        m.add(Counter::WindowsScored, 1);
        assert!(m.snapshot().check_invariants().is_err());
    }
}
