//! Version-aware index caching for the online deployment.
//!
//! Dynamic queries vary in length (`L_min`..`L_max` segments), so a
//! deployed matcher wants one [`FeatureIndex`] per length it has actually
//! seen — refreshed only when the store has grown. The store's monotone
//! [`tsm_db::StreamStore::version`] counter makes staleness detection
//! exact: an index built at version `v` is valid while the store is still
//! at `v`. The store only appends streams, so a stale index is not rebuilt
//! from scratch: [`FeatureIndex::extended`] merges in the windows of the
//! streams sealed since, and the result equals a fresh build.

use crate::matcher::{rank, MatchResult, Matcher, QuerySubseq, SearchOptions};
use crate::metrics::{Counter, Hist, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tsm_db::{FeatureIndex, SharedStore};
use tsm_model::MAX_SIGNATURE_LEN;

/// A per-length cache of feature indexes over one store.
#[derive(Debug)]
pub struct IndexCache {
    store: SharedStore,
    axis: usize,
    inner: Mutex<HashMap<usize, (u64, Arc<FeatureIndex>)>>,
    rebuilds: AtomicU64,
    metrics: MetricsRegistry,
}

impl IndexCache {
    /// Creates a cache over `store`, summarizing along `axis` (must match
    /// the matching parameters' axis). Takes a shared handle so the cache
    /// observes the same version counter as every other holder.
    pub fn new(store: impl Into<SharedStore>, axis: usize) -> Self {
        IndexCache {
            store: store.into(),
            axis,
            inner: Mutex::new(HashMap::new()),
            rebuilds: AtomicU64::new(0),
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Attaches a metrics registry (records lookups, hits, misses and
    /// rebuilds when enabled).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// The up-to-date index for windows of `len` segments. When the store
    /// has changed since the cached one was built, it is extended with
    /// the streams added since (built from scratch the first time).
    pub fn index_for(&self, len: usize) -> Arc<FeatureIndex> {
        self.metrics.incr(Counter::CacheLookups);
        let version = self.store.version();
        let stale = {
            let g = self.inner.lock();
            match g.get(&len) {
                Some((v, ix)) if *v == version => {
                    self.metrics.incr(Counter::CacheHits);
                    return ix.clone();
                }
                entry => entry.map(|(_, ix)| Arc::clone(ix)),
            }
        };
        self.metrics.incr(Counter::CacheMisses);
        let built = Arc::new(match stale {
            Some(ix) => ix.extended(&self.store.segment_features(self.axis)),
            None => FeatureIndex::build(&self.store, len, self.axis),
        });
        // The store may have grown *while* we built; tag with the version
        // we read before building so a concurrent insert invalidates us.
        self.publish(len, version, Arc::clone(&built));
        // Relaxed: monotone statistics counter; readers only need an
        // eventually-consistent count, never ordering with the cache map.
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.metrics.incr(Counter::CacheRebuilds);
        built
    }

    /// Caches `index`, built at store `version`, for windows of `len`
    /// segments, unless the cache already holds an index built at a
    /// newer version: a build that started before a seal and finished
    /// after a racing build of a newer version must not replace it.
    fn publish(&self, len: usize, version: u64, index: Arc<FeatureIndex>) {
        let mut g = self.inner.lock();
        if g.get(&len).is_none_or(|(v, _)| *v < version) {
            g.insert(len, (version, index));
        }
    }

    /// How many index builds the cache has performed — a lock-free read,
    /// safe to poll from a hot monitoring loop.
    pub fn rebuild_count(&self) -> u64 {
        // Relaxed: statistics read; may trail a concurrent rebuild.
        self.rebuilds.load(Ordering::Relaxed)
    }
}

/// A matcher with an attached index cache: the online entry point. Every
/// search of 1 to [`MAX_SIGNATURE_LEN`] segments runs the pruned plan
/// through an automatically maintained index; longer queries scan.
#[derive(Debug)]
pub struct CachedMatcher {
    matcher: Matcher,
    cache: IndexCache,
}

impl CachedMatcher {
    /// Creates a cached matcher. The cache shares the matcher's store
    /// handle (an `Arc` clone) rather than taking its own copy, and
    /// records into the matcher's metrics registry.
    pub fn new(matcher: Matcher) -> Self {
        let cache = IndexCache::new(matcher.shared_store(), matcher.params().axis)
            .with_metrics(matcher.metrics().clone());
        CachedMatcher { matcher, cache }
    }

    /// The inner matcher.
    pub fn matcher(&self) -> &Matcher {
        &self.matcher
    }

    /// The metrics registry shared by the matcher and the cache.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.matcher.metrics()
    }

    /// The cache (for diagnostics).
    pub fn cache(&self) -> &IndexCache {
        &self.cache
    }

    /// Searches the store: through the cached [`FeatureIndex`] of the
    /// query's length when the query has 1 to [`MAX_SIGNATURE_LEN`]
    /// segments (the longest a state signature can key), with the plain
    /// scan ([`Matcher::find_matches_with`]) otherwise. Results are
    /// identical to [`Matcher::find_matches_naive`] either way: sorted by
    /// distance, ties by stream, then start.
    pub fn find_matches(&self, query: &QuerySubseq, options: &SearchOptions) -> Vec<MatchResult> {
        let started = self.metrics().start();
        let results = rank(self.search(query, options));
        self.metrics().observe_since(Hist::SearchLatency, started);
        results
    }

    /// [`CachedMatcher::find_matches`]' results, every field bit for bit,
    /// in store order (ascending stream, then start) instead of rank
    /// order: the search without its rank sort. The online vote
    /// ([`crate::predict::predict_position`]) sums in this order.
    pub fn find_matches_in_store_order(
        &self,
        query: &QuerySubseq,
        options: &SearchOptions,
    ) -> Vec<MatchResult> {
        let started = self.metrics().start();
        let results = self.search(query, options);
        self.metrics().observe_since(Hist::SearchLatency, started);
        results
    }

    fn search(&self, query: &QuerySubseq, options: &SearchOptions) -> Vec<MatchResult> {
        let len = query.len();
        if len == 0 || len > MAX_SIGNATURE_LEN {
            return self.matcher.find_matches_in_store_order(query, options);
        }
        let index = self.cache.index_for(len);
        self.matcher.find_matches_pruned(query, &index, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use tsm_db::{PatientAttributes, StreamStore, SubseqRef};
    use tsm_model::{BreathState::*, PlrTrajectory, Vertex};

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

    #[test]
    fn cached_results_equal_scan_and_cache_is_reused() {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let id = store.add_stream(p, 0, plr(8, 10.0), 960);
        store.add_stream(p, 1, plr(8, 10.4), 960);

        let matcher = Matcher::new(store.clone(), Params::default());
        let cached = CachedMatcher::new(Matcher::new(store.clone(), Params::default()));

        let view = store.resolve(SubseqRef::new(id, 0, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let opts = SearchOptions::default();
        let a = matcher.find_matches_with(&q, &opts);
        let b = cached.find_matches(&q, &opts);
        assert_eq!(a, b);
        assert_eq!(cached.cache().rebuild_count(), 1);

        // Second query of the same length: no rebuild.
        let view = store.resolve(SubseqRef::new(id, 3, 9)).unwrap();
        let q2 = QuerySubseq::from_view(&view);
        assert_eq!(
            matcher.find_matches_with(&q2, &opts),
            cached.find_matches(&q2, &opts)
        );
        assert_eq!(cached.cache().rebuild_count(), 1);

        // Different length: one more build.
        let view = store.resolve(SubseqRef::new(id, 0, 6)).unwrap();
        let q3 = QuerySubseq::from_view(&view);
        cached.find_matches(&q3, &opts);
        assert_eq!(cached.cache().rebuild_count(), 2);
    }

    #[test]
    fn store_growth_invalidates_the_cache() {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let id = store.add_stream(p, 0, plr(8, 10.0), 960);
        let cached = CachedMatcher::new(Matcher::new(store.clone(), Params::default()));
        let view = store.resolve(SubseqRef::new(id, 0, 9)).unwrap();
        let q = QuerySubseq::from_view(&view);
        let opts = SearchOptions::default();

        let before = cached.find_matches(&q, &opts).len();
        assert_eq!(cached.cache().rebuild_count(), 1);

        // New session arrives: the next search must see it.
        store.add_stream(p, 1, plr(8, 10.1), 960);
        let after = cached.find_matches(&q, &opts).len();
        assert_eq!(cached.cache().rebuild_count(), 2);
        assert!(after > before, "new stream invisible: {before} -> {after}");

        // And results still agree with a fresh scan, through an index
        // extended with the new stream that equals a fresh build.
        let matcher = Matcher::new(store.clone(), Params::default());
        assert_eq!(
            matcher.find_matches_with(&q, &opts),
            cached.find_matches(&q, &opts)
        );
        assert_eq!(
            *cached.cache().index_for(9),
            FeatureIndex::build(&store, 9, 0)
        );
        assert_eq!(cached.cache().rebuild_count(), 2);
    }

    /// A build that finishes after a racing build of a newer store version
    /// does not replace it: the cache keeps the newer entry, and a lookup
    /// at the newer version hits it.
    #[test]
    fn an_older_build_never_replaces_a_newer_one() {
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        store.add_stream(p, 0, plr(8, 10.0), 960);
        let cache = IndexCache::new(store.clone(), 0);
        let older = FeatureIndex::build(&store, 9, 0);
        store.add_stream(p, 1, plr(8, 10.4), 960);
        let newer = FeatureIndex::build(&store, 9, 0);
        assert_ne!(older, newer);
        let version = store.version();
        cache.publish(9, version, Arc::new(newer.clone()));
        cache.publish(9, version - 1, Arc::new(older));
        assert_eq!(*cache.index_for(9), newer);
        assert_eq!(cache.rebuild_count(), 0);
    }

    #[test]
    fn degenerate_queries_fall_back() {
        let store = StreamStore::new();
        store.add_patient(PatientAttributes::new());
        let cached = CachedMatcher::new(Matcher::new(store, Params::default()));
        let q = QuerySubseq::new(vec![]);
        assert!(cached
            .find_matches(&q, &SearchOptions::default())
            .is_empty());
        assert_eq!(cached.cache().rebuild_count(), 0);
    }
}
