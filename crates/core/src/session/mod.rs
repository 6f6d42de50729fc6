//! The session layer: one streaming engine per live session, and a
//! cohort runtime that replays many of them on a fixed worker pool.
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
//! against the same store the way `tsm serve` hosts them: sessions are
//! data, a pool of `with_threads(W)` workers runs them round-robin, and
//! every session searches through the one shared engine and its index
//! cache. Each finished session comes back as one bounded-channel
//! message, and a worker panic is contained by re-running the sessions
//! whose reports never arrived. Every pool size produces the *same
//! per-session reports* — enforced by the `session_equivalence` suite.
//!
//! ## Ownership rules
//!
//! * The store is shared, never copied: every runtime holds the same
//!   `Arc<StreamStore>`, and [`SessionRuntime::shared_store`] hands the
//!   same handle out again.
//! * Replays never mutate the store — [`CohortRuntime::replay`] is
//!   read-only, so its results are a pure function of (store contents,
//!   specs) and serial and pooled schedules cannot diverge.
//! * Persistence is explicit and terminal:
//!   [`SessionRuntime::finish_into_store`] appends the live stream once,
//!   at end of session, bumping the store version for every other
//!   holder.

mod cohort;
mod consumers;
mod health;
mod runtime;

pub use cohort::{CohortReport, CohortRuntime, SessionReport, SessionSpec};
pub use consumers::{GatingController, PredictionLog, TrackingController};
pub use health::{DegradationPolicy, SessionHealth};
pub use runtime::{
    external_session, PredictionTick, SessionConfig, SessionConsumer, SessionRuntime,
};
