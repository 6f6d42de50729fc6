//! Deterministic schedule-checker models of the serve layer's two
//! admission points (see `vendor/schedcheck` and the models in
//! `crates/core/tests/schedcheck.rs` for the shared-store protocols).
//!
//! 1. **The acceptor's shed path.** The acceptor offers each connection
//!    to a bounded per-worker queue and sheds with a 503 when the queue
//!    is full; workers drain the queue and serve what they take. Both
//!    sides bump the relaxed `serve.requests` / `serve.shed` / handled
//!    counters as they go, then publish completion. An observer (the
//!    metrics endpoint after drain) that `Acquire`-observes both sides
//!    done must see a reconciled ledger: every counted request was
//!    either shed or handled.
//! 2. **A session's admission counter** (`Session::run` in
//!    `crates/serve/src/sessions.rs`). Each request bumps the counter,
//!    then checks the value it bumped from against the cap, and undoes
//!    the bump when it is refused. At most the cap may be admitted at
//!    once, whatever the interleaving.
//!
//! As with the core models, each sound protocol is paired with a
//! deliberately broken variant — the completion stores downgraded to
//! `Relaxed`, or the admission checked before the bump — which the
//! checker must refute by exhibiting an interleaving that breaks it.

use schedcheck::{Model, Ordering, Thread};

/// Builds the shed-funnel model.
///
/// Locations: `QDEPTH` (one worker's bounded queue, capacity 1, collapsed
/// to its depth), `REQUESTS`/`SHED`/`HANDLED` (the relaxed metrics
/// counters), `DONE_A`/`DONE_W` (acceptor and worker completion flags).
///
/// The acceptor admits two connections: each either enqueues (when the
/// queue has room) or is counted and shed at the acceptor. The worker
/// makes one drain attempt and counts what it serves. `done_ord` is the
/// ordering of both completion stores — the release edge the real code
/// gets from the worker threads' channel disconnect + join.
fn shed_funnel(done_ord: Ordering) -> Model {
    let mut m = Model::new();
    let qdepth = m.loc("QDEPTH");
    let requests = m.loc("REQUESTS");
    let shed = m.loc("SHED");
    let handled = m.loc("HANDLED");
    let done_a = m.loc("DONE_A");
    let done_w = m.loc("DONE_W");

    // Acceptor: two connections round-robined onto one worker queue.
    // try_send success is modelled as the depth bump; a full queue takes
    // the shed path, which is where `serve.requests` and `serve.shed`
    // are bumped (handled connections are counted by the worker).
    let mut acceptor = Thread::new("acceptor");
    for slot in 0..2usize {
        acceptor.load(qdepth, Ordering::Relaxed, slot).if_else(
            move |r| r[slot] == 0,
            |t| {
                t.fetch_add(qdepth, Ordering::Release, 2, |_| 1);
            },
            |t| {
                t.fetch_add(requests, Ordering::Relaxed, 2, |_| 1)
                    .fetch_add(shed, Ordering::Relaxed, 2, |_| 1);
            },
        );
    }
    acceptor.store(done_a, done_ord, |_| 1);
    m.add(acceptor);

    // Worker: one drain attempt — take a queued connection if there is
    // one, serve it, count it.
    let mut worker = Thread::new("worker");
    worker.load(qdepth, Ordering::Acquire, 0).if_else(
        |r| r[0] >= 1,
        |t| {
            t.fetch_add(qdepth, Ordering::Relaxed, 1, |_| u64::MAX)
                .fetch_add(requests, Ordering::Relaxed, 1, |_| 1)
                .fetch_add(handled, Ordering::Relaxed, 1, |_| 1);
        },
        |_| {},
    );
    worker.store(done_w, done_ord, |_| 1);
    m.add(worker);

    // Observer: the metrics read after both sides report done. A
    // connection still sitting in the queue is counted by neither side,
    // so the ledger must reconcile exactly.
    let mut observer = Thread::new("observer");
    observer
        .load(done_a, Ordering::Acquire, 0)
        .load(done_w, Ordering::Acquire, 1)
        .if_else(
            |r| r[0] == 1 && r[1] == 1,
            |t| {
                t.load(requests, Ordering::Relaxed, 2)
                    .load(shed, Ordering::Relaxed, 3)
                    .load(handled, Ordering::Relaxed, 4)
                    .assert_that("shed ledger reconciles", |r| r[2] == r[3] + r[4]);
            },
            |_| {},
        );
    m.add(observer);
    m
}

#[test]
fn shed_funnel_release_acquire_is_sound() {
    let rep = shed_funnel(Ordering::Release).check();
    assert!(!rep.capped, "model too large to check exhaustively");
    assert!(rep.executions > 0);
    if let Some(v) = rep.violation {
        panic!(
            "sound shed funnel violated `{}`:\n  {}",
            v.assertion,
            v.trace.join("\n  ")
        );
    }
}

#[test]
fn shed_funnel_relaxed_done_flags_are_caught() {
    // Without the release/acquire completion edge the observer can see
    // both sides "done" while a shed or handled increment is still in
    // flight — `serve.requests` counts a connection the shed/handled
    // split does not.
    let rep = shed_funnel(Ordering::Relaxed).check();
    assert!(!rep.capped, "model too large to check exhaustively");
    let v = rep
        .violation
        .expect("relaxed completion flags must be caught");
    assert!(v.assertion.starts_with("shed ledger reconciles"));
}

/// Builds the session-admission model: three requests race for one
/// session whose cap is two (one running, `--ingest-queue 1` waiting).
///
/// Locations: `COUNT` (the session's admission counter) and `ADMITTED`
/// (how many requests are past admission right now — the quantity the
/// cap bounds; in the real code they run or wait for the runtime lock).
///
/// `bump_first` selects the protocol: bump the counter and check the
/// value it held (`Session::run`), or read the counter, check, and only
/// then bump. Every access to `COUNT` in the real code is `Relaxed`: the
/// read-modify-write alone decides admission, so the model uses no
/// stronger ordering either.
fn session_admission(bump_first: bool) -> Model {
    const CAP: u64 = 2;
    let mut m = Model::new();
    let count = m.loc("COUNT");
    let admitted = m.loc("ADMITTED");
    for i in 0..3 {
        let mut request = Thread::new(&format!("request-{i}"));
        // Register 0: the counter value this request's check sees.
        if bump_first {
            request.fetch_add(count, Ordering::Relaxed, 0, |_| 1);
        } else {
            request.load(count, Ordering::Relaxed, 0);
        }
        request.if_else(
            |r| r[0] < CAP,
            move |t| {
                if !bump_first {
                    t.fetch_add(count, Ordering::Relaxed, 2, |_| 1);
                }
                // In: run (or wait for the lock), then leave and undo
                // the admission. `u64::MAX` is the wrapping decrement.
                t.fetch_add(admitted, Ordering::Relaxed, 1, |_| 1)
                    .assert_that("at most the cap admitted", |r| r[1] < CAP)
                    .fetch_add(admitted, Ordering::Relaxed, 1, |_| u64::MAX)
                    .fetch_add(count, Ordering::Relaxed, 2, |_| u64::MAX);
            },
            move |t| {
                if bump_first {
                    // Refused: undo the bump.
                    t.fetch_add(count, Ordering::Relaxed, 2, |_| u64::MAX);
                }
            },
        );
        m.add(request);
    }
    m
}

#[test]
fn session_admission_bump_then_check_is_sound() {
    let rep = session_admission(true).check();
    assert!(!rep.capped, "model too large to check exhaustively");
    assert!(rep.executions > 0);
    if let Some(v) = rep.violation {
        panic!(
            "sound admission counter violated `{}`:\n  {}",
            v.assertion,
            v.trace.join("\n  ")
        );
    }
}

#[test]
fn session_admission_check_then_bump_is_caught() {
    // Checked before the bump, three requests can all read a count below
    // the cap before any of them bumps it, and all three get in.
    let rep = session_admission(false).check();
    assert!(!rep.capped, "model too large to check exhaustively");
    let v = rep
        .violation
        .expect("check-then-bump admission must be caught");
    assert!(v.assertion.starts_with("at most the cap admitted"));
}
