//! Deterministic schedule-checker models of the shared-store runtime's
//! lock-free protocols (see `vendor/schedcheck`).
//!
//! Two protocols are modelled and exhaustively checked under the
//! C11-style acquire/release memory model:
//!
//! 1. **Store version counter → index cache** (`StreamStore::version` /
//!    `IndexCache::index_for`): a writer publishes new stream data with a
//!    `Release` version bump; a cache builder consumes the counter with
//!    `Acquire` before reading the data and tags what it caches; a server
//!    thread that observes the cache tag must observe data at least as
//!    fresh as the tag claims.
//! 2. **Per-worker `SearchTally` flush at the pool-worker join**
//!    (`CohortRuntime`'s pooled replay / `MetricsRegistry::record_search`):
//!    pool workers bump relaxed statistics counters in the one shared
//!    registry and then publish completion with `Release`; a reader that
//!    `Acquire`-observes every worker done must see a reconciled tally
//!    (`scored == abandoned + completed`).
//!
//! (The serve layer's per-session admission counter has its own model
//! in `crates/serve/tests/schedcheck_serve.rs`.)
//!
//! Each sound model is paired with a deliberately broken variant (the
//! exact `Relaxed` downgrade the lint rule `explicit-atomic-ordering`
//! exists to make reviewable) and the checker is required to find a
//! violating interleaving — proving the harness has teeth, not just that
//! the good protocol passes.

use schedcheck::{Model, Ordering, Thread};

/// Builds the three-thread version-counter model.
///
/// Locations: `DATA` (the stream table, collapsed to one cell), `VERSION`
/// (the store's atomic counter), `CACHE_DATA`/`CACHE_TAG` (the index
/// cache's entry, tag = observed version + 1 so "never published" is
/// distinguishable from "published at version 0").
///
/// `bump_ord` is the writer's ordering for the version bump and
/// `publish_ord` the builder's ordering for the cache-tag store — the two
/// release halves of the protocol's two acquire/release pairs.
fn version_protocol(bump_ord: Ordering, publish_ord: Ordering) -> Model {
    let mut m = Model::new();
    let data = m.loc("DATA");
    let version = m.loc("VERSION");
    let cache_data = m.loc("CACHE_DATA");
    let cache_tag = m.loc("CACHE_TAG");

    // Writer: StreamStore::try_add_stream — mutate the table, then bump
    // the version counter to publish.
    let mut writer = Thread::new("writer");
    writer
        .store(data, Ordering::Relaxed, |_| 1)
        .fetch_add(version, bump_ord, 0, |_| 1);
    m.add(writer);

    // Builder: IndexCache::index_for — read the version (Acquire), build
    // from the data, publish the built index tagged with that version.
    let mut builder = Thread::new("builder");
    builder
        .load(version, Ordering::Acquire, 0)
        .load(data, Ordering::Relaxed, 1)
        .store(cache_data, Ordering::Relaxed, |r| r[1])
        .store(cache_tag, publish_ord, |r| r[0] + 1);
    m.add(builder);

    // Server: a later lookup that hits the cache. Observing tag == 2
    // means "built after seeing version 1", which must imply the cached
    // index reflects the version-1 data.
    let mut server = Thread::new("server");
    server
        .load(cache_tag, Ordering::Acquire, 0)
        .load(cache_data, Ordering::Relaxed, 1)
        .assert_that("tag at v1 implies fresh cache", |r| r[0] != 2 || r[1] == 1);
    m.add(server);
    m
}

#[test]
fn version_protocol_release_acquire_is_sound() {
    let rep = version_protocol(Ordering::Release, Ordering::Release).check();
    assert!(!rep.capped, "model too large to check exhaustively");
    assert!(rep.executions > 0);
    if let Some(v) = rep.violation {
        panic!(
            "sound protocol violated `{}`:\n  {}",
            v.assertion,
            v.trace.join("\n  ")
        );
    }
}

#[test]
fn version_protocol_relaxed_bump_is_caught() {
    // The exact bug the Release upgrade of `StreamStore::version` fixed:
    // with a Relaxed bump the builder can observe version 1 but build
    // from the pre-insert table, caching a stale index tagged fresh.
    let rep = version_protocol(Ordering::Relaxed, Ordering::Release).check();
    assert!(!rep.capped, "model too large to check exhaustively");
    let v = rep.violation.expect("relaxed version bump must be caught");
    assert!(v.assertion.starts_with("tag at v1 implies fresh cache"));
}

#[test]
fn version_protocol_relaxed_cache_publish_is_caught() {
    // Break the second pair instead: a Relaxed cache-tag publish lets the
    // server observe the tag before the cached index contents.
    let rep = version_protocol(Ordering::Release, Ordering::Relaxed).check();
    assert!(!rep.capped, "model too large to check exhaustively");
    let v = rep.violation.expect("relaxed cache publish must be caught");
    assert!(v.assertion.starts_with("tag at v1 implies fresh cache"));
}

/// Builds the tally-flush model: two pool workers fold their per-search
/// `SearchTally` into metrics counters with relaxed `fetch_add`s (exactly
/// how `MetricsRegistry::add` behaves), then publish completion; a reader
/// that observes both workers done must see a reconciled tally. In the
/// real code the reader is the caller of `CohortRuntime`'s pooled
/// replay, which reads the one shared registry after the crossbeam scope
/// has joined its workers. `done_ord` is the workers' completion-store
/// ordering — the join edge that scope join provides.
fn tally_flush(done_ord: Ordering) -> Model {
    let mut m = Model::new();
    let scored = m.loc("SCORED");
    let abandoned = m.loc("ABANDONED");
    let completed = m.loc("COMPLETED");
    let done = [m.loc("DONE_0"), m.loc("DONE_1")];

    for (i, flag) in done.iter().enumerate() {
        // Each worker scored two windows: one abandoned, one completed.
        let mut worker = Thread::new(&format!("worker-{i}"));
        worker
            .fetch_add(scored, Ordering::Relaxed, 0, |_| 2)
            .fetch_add(abandoned, Ordering::Relaxed, 0, |_| 1)
            .fetch_add(completed, Ordering::Relaxed, 0, |_| 1)
            .store(*flag, done_ord, |_| 1);
        m.add(worker);
    }

    let mut reader = Thread::new("reader");
    reader
        .load(done[0], Ordering::Acquire, 0)
        .load(done[1], Ordering::Acquire, 1)
        .if_else(
            |r| r[0] == 1 && r[1] == 1,
            |t| {
                t.load(scored, Ordering::Relaxed, 2)
                    .load(abandoned, Ordering::Relaxed, 3)
                    .load(completed, Ordering::Relaxed, 4)
                    .assert_that("flushed tally reconciles", |r| r[2] == r[3] + r[4]);
            },
            |_| {},
        );
    m.add(reader);
    m
}

#[test]
fn tally_flush_release_acquire_is_sound() {
    let rep = tally_flush(Ordering::Release).check();
    assert!(!rep.capped, "model too large to check exhaustively");
    assert!(rep.executions > 0);
    if let Some(v) = rep.violation {
        panic!(
            "sound tally flush violated `{}`:\n  {}",
            v.assertion,
            v.trace.join("\n  ")
        );
    }
}

#[test]
fn tally_flush_relaxed_done_flag_is_caught() {
    // Without the release/acquire join edge the reader can see both
    // workers "done" while their counter increments are still in flight —
    // an unreconciled snapshot.
    let rep = tally_flush(Ordering::Relaxed).check();
    assert!(!rep.capped, "model too large to check exhaustively");
    let v = rep.violation.expect("relaxed done flags must be caught");
    assert!(v.assertion.starts_with("flushed tally reconciles"));
}
