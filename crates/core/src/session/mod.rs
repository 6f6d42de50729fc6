//! The session layer: one streaming engine per live session, sharded out
//! to a cohort runtime for large session counts.
//!
//! The paper's deployment scenario (Figure 1, Sections 4.3 and 5) is a
//! *single* online loop: the tracking system delivers a sample every
//! 33 ms, the signal is segmented once, and the same evolving PLR drives
//! motion prediction, respiration gating and beam tracking. A
//! [`SessionRuntime`] is that loop as a value — it owns one guarded
//! segmenter pass per live session and fans the resulting vertex and
//! prediction events out to pluggable [`SessionConsumer`]s, all searching
//! a shared [`tsm_db::SharedStore`] handle through one
//! [`crate::index_cache::CachedMatcher`]. A prediction is computed
//! **once** per tick and every consumer sees the same outcome; the legacy
//! alternative — one full replay (segmentation + matching) per
//! application — does the matching work as many times as there are
//! applications.
//!
//! On top of a single session, a [`CohortRuntime`] replays N sessions
//! against the same store. Two scaling regimes:
//!
//! * **Unsharded** (the default, and always the case for
//!   `shards <= 1`): sessions are distributed round-robin over a small
//!   worker pool, all searching through one shared engine and one index
//!   cache. Ideal up to a few dozen sessions.
//! * **Sharded** ([`CohortRuntime::with_shards`]): a [`ShardRouter`]
//!   hashes each session's `(patient, session)` identity to one of S
//!   shard workers. Each shard owns its *own* engine handle — its own
//!   index cache and its own metrics registry — so the shared
//!   `Arc<CachedMatcher>` stops being a cross-shard contention point:
//!   no cache-mutex, no `Arc` refcount cacheline, and no metrics
//!   atomics are shared between shards on the hot path. Completed
//!   sessions are reported in per-shard batches (one bounded channel
//!   message per *session*, not per tick), and a background maintenance
//!   worker rebuilds stale feature indexes when the store version bumps,
//!   off the search path. Shard-local metrics fold back into the
//!   cohort's registry at the end of the replay
//!   ([`crate::metrics::MetricsRegistry::absorb`] — the snapshot monoid).
//!
//! Shard placement is a pure function of `(patient, session, S)`, so a
//! session always lands on the same shard across replays, and a sharded
//! replay produces the *same per-session reports* as the unsharded path
//! — enforced by the `session_equivalence` suite.
//!
//! ## Ownership rules
//!
//! * The store is shared, never copied: every runtime and every shard
//!   engine holds the same `Arc<StreamStore>`, and
//!   [`SessionRuntime::shared_store`] hands the same handle out again.
//! * Replays never mutate the store — [`CohortRuntime::replay`] is
//!   read-only, so its results are a pure function of (store contents,
//!   specs) and serial, parallel and sharded schedules cannot diverge.
//! * Persistence is explicit and terminal:
//!   [`SessionRuntime::finish_into_store`] appends the live stream once,
//!   at end of session, bumping the store version for every other holder
//!   (which is what the maintenance worker watches).

mod cohort;
mod consumers;
mod health;
mod runtime;
mod shard;

pub use cohort::{CohortReport, CohortRuntime, SessionReport, SessionSpec};
pub use consumers::{GatingController, PredictionLog, TrackingController};
pub use health::{DegradationPolicy, SessionHealth};
pub use runtime::{
    external_session, PredictionTick, SessionConfig, SessionConsumer, SessionRuntime,
};
pub use shard::{ShardReport, ShardRouter};
