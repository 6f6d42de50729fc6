//! A deterministic schedule-checker model of the serve layer's admission
//! point (see `vendor/schedcheck` and the models in
//! `crates/core/tests/schedcheck.rs` for the shared-store protocols):
//! **a session's admission counter** (`Session::run` in
//! `crates/serve/src/sessions.rs`). Each request bumps the counter, then
//! checks the value it bumped from against the cap, and undoes the bump
//! when it is refused. At most the cap may be admitted at once, whatever
//! the interleaving.
//!
//! As with the core models, the sound protocol is paired with a
//! deliberately broken variant — the admission checked before the bump —
//! which the checker must refute by exhibiting an interleaving that
//! breaks it.

use schedcheck::{Model, Ordering, Thread};

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
