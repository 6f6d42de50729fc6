//! Beam tracking (the paper's second compensation strategy).
//!
//! "Beam Tracking is another alternative method for precise dose
//! delivery, in which the radiation beam follows the tumor dynamically."
//! Where gating is a binary beam-on/off decision, tracking continuously
//! re-aims the beam — so its quality metric is the *geometric tracking
//! error*: the distance between where the beam points and where the tumor
//! actually is, at every instant.
//!
//! As with gating, the controller only has information from `latency`
//! seconds in the past; the simulation scores any aiming policy against
//! the ground-truth trajectory.

use crate::session::PredictionTick;
use serde::{Deserialize, Serialize};
use tsm_model::{PlrTrajectory, Position};

/// Aggregate tracking-error statistics over a simulated delivery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackingStats {
    /// Mean absolute error along the scored axis (mm).
    pub mean_error: f64,
    /// Root-mean-square error (mm).
    pub rms_error: f64,
    /// 95th-percentile absolute error (mm) — the clinically cited margin
    /// driver.
    pub p95_error: f64,
    /// Worst instantaneous error (mm).
    pub max_error: f64,
    /// Aiming ticks evaluated.
    pub ticks: usize,
}

impl TrackingStats {
    /// Summarizes a set of instantaneous absolute errors — the exact
    /// arithmetic [`simulate_tracking`] applies, exposed so that the
    /// errors of a session's tick log ([`track_ticks`]) summarize into
    /// bit-identical statistics. An empty set yields `NaN` statistics
    /// with zero ticks.
    pub fn from_errors(mut errors: Vec<f64>) -> Self {
        if errors.is_empty() {
            return TrackingStats {
                mean_error: f64::NAN,
                rms_error: f64::NAN,
                p95_error: f64::NAN,
                max_error: f64::NAN,
                ticks: 0,
            };
        }
        let n = errors.len() as f64;
        let mean = errors.iter().sum::<f64>() / n;
        let rms = (errors.iter().map(|e| e * e).sum::<f64>() / n).sqrt();
        errors.sort_by(f64::total_cmp);
        let p95 = errors[((errors.len() - 1) as f64 * 0.95) as usize];
        // errors is non-empty (checked above); NaN is the documented
        // degenerate value either way.
        let max = errors.last().copied().unwrap_or(f64::NAN);
        TrackingStats {
            mean_error: mean,
            rms_error: rms,
            p95_error: p95,
            max_error: max,
            ticks: errors.len(),
        }
    }
}

/// Simulates continuous tracking over `[t0, t1]` at `tick` resolution:
/// at each tick the policy aims the beam (`None` keeps the previous aim —
/// a real MLC cannot vanish), and the instantaneous error against the
/// true position is recorded.
pub fn simulate_tracking(
    truth: &PlrTrajectory,
    axis: usize,
    t0: f64,
    t1: f64,
    tick: f64,
    mut aim: impl FnMut(f64) -> Option<Position>,
) -> TrackingStats {
    assert!(tick > 0.0, "tick must be positive");
    let mut errors: Vec<f64> = Vec::new();
    let mut last_aim = truth.position_at(t0);
    let mut t = t0;
    while t <= t1 {
        if let Some(p) = aim(t) {
            last_aim = p;
        }
        let e = (last_aim[axis] - truth.position_at(t)[axis]).abs();
        errors.push(e);
        t += tick;
    }
    TrackingStats::from_errors(errors)
}

/// Tracks the beam over a session's recorded prediction ticks
/// ([`SessionRuntime::ticks`](crate::session::SessionRuntime::ticks)): a
/// prediction re-aims the beam, an abstention holds the previous aim,
/// and each tick with a predicted-for instant and an aim records the
/// absolute error against the true position there. Returns the errors
/// in tick order; [`TrackingStats::from_errors`] summarizes them.
pub fn track_ticks(ticks: &[PredictionTick], truth: &PlrTrajectory, axis: usize) -> Vec<f64> {
    let mut aim: Option<Position> = None;
    ticks
        .iter()
        .filter_map(|tick| {
            if let Some(o) = &tick.outcome {
                aim = Some(o.position);
            }
            let target = tick.target_time?;
            Some((aim?[axis] - truth.position_at(target)[axis]).abs())
        })
        .collect()
}

/// The uncompensated policy: aim at the position observed `latency`
/// seconds ago.
pub fn last_observed_aim<'a>(
    truth: &'a PlrTrajectory,
    latency: f64,
) -> impl FnMut(f64) -> Option<Position> + 'a {
    move |t| Some(truth.position_at(t - latency))
}

/// The oracle policy: aim at the true current position (zero error by
/// construction; the floor every real policy chases).
pub fn oracle_aim(truth: &PlrTrajectory) -> impl FnMut(f64) -> Option<Position> + '_ {
    move |t| Some(truth.position_at(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_model::{BreathState::*, Vertex};

    fn truth() -> PlrTrajectory {
        let mut v = Vec::new();
        let mut t = 0.0;
        for _ in 0..10 {
            v.push(Vertex::new_1d(t, 10.0, Exhale));
            v.push(Vertex::new_1d(t + 1.5, 0.0, EndOfExhale));
            v.push(Vertex::new_1d(t + 2.5, 0.0, Inhale));
            t += 4.0;
        }
        v.push(Vertex::new_1d(t, 10.0, Exhale));
        PlrTrajectory::from_vertices(v).unwrap()
    }

    #[test]
    fn oracle_has_zero_error() {
        let plr = truth();
        let stats = simulate_tracking(&plr, 0, 2.0, 38.0, 0.02, oracle_aim(&plr));
        assert!(stats.mean_error < 1e-12);
        assert!(stats.max_error < 1e-12);
        assert!(stats.ticks > 1000);
    }

    #[test]
    fn latency_produces_velocity_proportional_error() {
        let plr = truth();
        let s1 = simulate_tracking(&plr, 0, 2.0, 38.0, 0.02, last_observed_aim(&plr, 0.1));
        let s3 = simulate_tracking(&plr, 0, 2.0, 38.0, 0.02, last_observed_aim(&plr, 0.3));
        assert!(s1.mean_error > 0.1);
        // Tripled latency roughly triples the lag error on a piecewise
        // linear trajectory.
        assert!(
            s3.mean_error > 2.0 * s1.mean_error,
            "{} vs {}",
            s3.mean_error,
            s1.mean_error
        );
        assert!(s3.p95_error >= s3.mean_error);
        assert!(s3.max_error >= s3.p95_error);
    }

    #[test]
    fn abstaining_policy_holds_the_last_aim() {
        let plr = truth();
        // Aim once at t0 then abstain: the error becomes the full motion
        // range at the extremes.
        let mut first = true;
        let stats = simulate_tracking(&plr, 0, 2.0, 38.0, 0.02, |t| {
            if first {
                first = false;
                Some(plr.position_at(t))
            } else {
                None
            }
        });
        assert!(stats.max_error > 8.0, "max {}", stats.max_error);
    }

    #[test]
    fn empty_interval() {
        let plr = truth();
        let stats = simulate_tracking(&plr, 0, 10.0, 9.0, 0.02, oracle_aim(&plr));
        assert_eq!(stats.ticks, 0);
        assert!(stats.mean_error.is_nan());
    }
}
