//! The session layer: one streaming engine per live session, and a
//! cohort runtime that replays many of them on a fixed worker pool.
//!
//! The paper's deployment scenario (Figure 1, Sections 4.3 and 5) is a
//! *single* online loop: the tracking system delivers a sample every
//! 33 ms, the signal is segmented once, and the same evolving PLR drives
//! motion prediction, respiration gating and beam tracking. A
//! [`SessionRuntime`] is that loop as a value — it owns one guarded
//! segmenter pass per live session, searches a shared
//! [`tsm_db::SharedStore`] handle through one
//! [`crate::index_cache::CachedMatcher`], and records every cadence tick
//! in a log ([`SessionRuntime::ticks`]). A prediction is computed
//! **once** per tick; gating ([`crate::gating::gate_ticks`]) and
//! tracking ([`crate::tracking::track_ticks`]) are folds over the same
//! log, so no application repeats the segmentation or the search.
//!
//! On top of a single session, a [`CohortRuntime`] replays N sessions
//! against the same store the way `tsm serve` hosts them: sessions are
//! data, a pool of `with_threads(W)` workers runs them round-robin, and
//! every session searches through the one shared engine and its index
//! cache. Each finished session comes back as one bounded-channel
//! message. A worker panic is not contained: it propagates out of
//! [`CohortRuntime::replay`], so a panic that only a pooled schedule
//! triggers shows instead of hiding behind a serial re-run. Every pool
//! size produces the *same per-session reports* — enforced by the
//! `session_equivalence` suite.
//!
//! ## Ownership rules
//!
//! * The store is shared, never copied: every runtime holds the same
//!   `Arc<StreamStore>`, and [`SessionRuntime::shared_store`] hands the
//!   same handle out again.
//! * A session's results are plain data it owns: the live buffer, the
//!   tick log and the counters, read back through `&self` accessors.
//! * Replays never mutate the store — [`CohortRuntime::replay`] is
//!   read-only, so its results are a pure function of (store contents,
//!   specs) and serial and pooled schedules cannot diverge.
//! * Persistence is explicit and terminal:
//!   [`SessionRuntime::finish_into_store`] appends the live stream once,
//!   at end of session, bumping the store version for every other
//!   holder.

mod cohort;
mod health;
mod runtime;

pub use cohort::{CohortReport, CohortRuntime, SessionReport, SessionSpec};
pub use health::{DegradationPolicy, SessionHealth};
pub use runtime::{external_session, PredictionTick, SessionConfig, SessionRuntime};
