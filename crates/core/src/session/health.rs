//! Session health: the fault-driven state machine and the thresholds
//! that drive it.

use tsm_model::IngestGuardConfig;

/// Health of one live session, driven by the ingest guard's flags and
/// the [`DegradationPolicy`].
///
/// ```text
///           fault (gap, backwards time, duplicate burst,
///                  stuck run, rejected sample)
///  Healthy ────────────────────────────────────────▶ Degraded
///     ▲                                                  │
///     │ `recovery_predictions` served                    │ `recovery_vertices`
///     │ predictions                                      │ fresh vertices
///     └────────────────────────── Recovering ◀───────────┘
/// ```
///
/// While **Degraded**, prediction ticks abstain outright — the
/// post-discontinuity query is either stale (old epoch) or too short
/// (new epoch) to trust. While **Recovering**, predictions are computed
/// and reported, but gating
/// ([`PredictionTick::beam_on`](crate::session::PredictionTick::beam_on))
/// still fails safe to beam-hold until the session is Healthy again. Any
/// new fault drops the session straight back to Degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionHealth {
    /// Clean stream; predictions served, gating live.
    Healthy,
    /// A fault was observed recently; predictions abstain.
    Degraded,
    /// Enough fresh data accumulated; predictions serve again but
    /// gating still holds the beam until recovery completes.
    Recovering,
}

/// Thresholds driving the [`SessionHealth`] state machine and the
/// ingest guard in front of the segmenter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Largest tolerated inter-sample gap (s) before a resync.
    pub max_gap_s: f64,
    /// Per-axis position tolerance (mm) for stuck-sensor detection.
    pub stuck_epsilon_mm: f64,
    /// Consecutive unchanged samples before a stuck run is flagged.
    pub stuck_limit: usize,
    /// Fresh post-fault vertices required to move Degraded → Recovering.
    pub recovery_vertices: usize,
    /// Served predictions required to move Recovering → Healthy.
    pub recovery_predictions: usize,
    /// Recoverable per-sample faults the session's supervisor
    /// ([`SessionRuntime::ingest`](super::SessionRuntime::ingest)) absorbs
    /// before failing the session with
    /// [`TsmError::FaultBudgetExhausted`](crate::error::CoreError::FaultBudgetExhausted).
    pub fault_budget: usize,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            max_gap_s: 1.0,
            stuck_epsilon_mm: 0.0,
            stuck_limit: 90,
            recovery_vertices: 6,
            recovery_predictions: 3,
            fault_budget: 64,
        }
    }
}

impl DegradationPolicy {
    /// The ingest-guard thresholds this policy implies.
    pub fn ingest_guard(&self) -> IngestGuardConfig {
        IngestGuardConfig {
            max_gap_s: self.max_gap_s,
            stuck_epsilon_mm: self.stuck_epsilon_mm,
            stuck_limit: self.stuck_limit,
        }
    }
}
