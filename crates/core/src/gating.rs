//! Respiration-gated beam delivery (the paper's Figure 1 application).
//!
//! "Respiration gating delivers radiation doses only when the tumor is in
//! a predetermined location. ... The tumor may move in or out of the
//! gating window, and treatment is delivered when the tumor is in the
//! gating window. ... If treatment is based on the last observed position
//! rather than the current position, this latency will reduce the
//! effectiveness and efficiency of treating a moving tumor."
//!
//! This module simulates gated delivery against a ground-truth trajectory
//! and scores a gating *policy* (a decision function that may only use
//! information available `latency` seconds in the past) on the two
//! clinical axes:
//!
//! * **precision** — of the beam-on time, how much was the tumor truly in
//!   the window (misses irradiate healthy tissue);
//! * **recall** — of the in-window time, how much was treated (missed
//!   opportunity prolongs treatment).

use crate::session::PredictionTick;
use serde::{Deserialize, Serialize};
use tsm_model::PlrTrajectory;

/// The spatial gating window along the classification axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatingWindow {
    /// Window center (mm). Clinically placed at the end-of-exhale
    /// position, the most reproducible phase.
    pub center: f64,
    /// Full window width (mm).
    pub width: f64,
}

impl GatingWindow {
    /// Whether `position` lies inside the window.
    #[inline]
    pub fn contains(&self, position: f64) -> bool {
        (position - self.center).abs() <= self.width * 0.5
    }

    /// A window centered on a trajectory's end-of-exhale level: the
    /// median of its EOE vertex positions. Falls back to the trajectory
    /// minimum when no EOE segments exist.
    pub fn at_exhale_end(plr: &PlrTrajectory, axis: usize, width: f64) -> Self {
        let mut eoe: Vec<f64> = plr.vertices()[..plr.num_vertices().saturating_sub(1)]
            .iter()
            .filter(|v| v.state == tsm_model::BreathState::EndOfExhale)
            .map(|v| v.position[axis])
            .collect();
        let center = if eoe.is_empty() {
            plr.vertices()
                .iter()
                .map(|v| v.position[axis])
                .fold(f64::INFINITY, f64::min)
        } else {
            eoe.sort_by(f64::total_cmp);
            eoe[eoe.len() / 2]
        };
        GatingWindow { center, width }
    }
}

/// Outcome of a simulated gated delivery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatingStats {
    /// Fraction of total time with the beam on (duty cycle).
    pub duty_cycle: f64,
    /// Of beam-on time, the fraction with the tumor truly inside the
    /// window.
    pub precision: f64,
    /// Of true in-window time, the fraction with the beam on.
    pub recall: f64,
    /// Decision ticks evaluated.
    pub ticks: usize,
}

impl GatingStats {
    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        // lint:allow(no-float-eq): exact-zero guard against 0/0; both
        // ratios are non-negative, so the sum is zero iff both are.
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// The streaming core of [`simulate_gating`]: integer precision/recall
/// counters fed one `(beam_on, truth_inside)` decision at a time.
///
/// Extracted so that gating a session's tick log ([`gate_ticks`])
/// accumulates *exactly* the statistics the offline simulation produces
/// — same counters, same final arithmetic, bit-identical
/// [`GatingStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatingAccumulator {
    on_and_in: usize,
    on: usize,
    inside: usize,
    ticks: usize,
}

impl GatingAccumulator {
    /// A fresh accumulator with no decisions recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decision tick.
    pub fn record(&mut self, beam_on: bool, truth_inside: bool) {
        self.ticks += 1;
        if beam_on {
            self.on += 1;
            if truth_inside {
                self.on_and_in += 1;
            }
        }
        if truth_inside {
            self.inside += 1;
        }
    }

    /// Decision ticks recorded so far.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// The aggregate statistics of the decisions recorded so far.
    pub fn stats(&self) -> GatingStats {
        GatingStats {
            duty_cycle: self.on as f64 / self.ticks.max(1) as f64,
            precision: if self.on > 0 {
                self.on_and_in as f64 / self.on as f64
            } else {
                0.0
            },
            recall: if self.inside > 0 {
                self.on_and_in as f64 / self.inside as f64
            } else {
                0.0
            },
            ticks: self.ticks,
        }
    }
}

/// Simulates gated delivery over `[t0, t1]` at `tick` resolution.
///
/// At each tick `t` the policy is asked whether the beam should be on at
/// `t`; the decision is scored against the *true* position at `t`. The
/// policy must respect causality itself (base its answer only on
/// information available at `t - latency`); the helpers below construct
/// the three standard policies.
pub fn simulate_gating(
    truth: &PlrTrajectory,
    axis: usize,
    window: GatingWindow,
    t0: f64,
    t1: f64,
    tick: f64,
    mut beam_on: impl FnMut(f64) -> bool,
) -> GatingStats {
    assert!(tick > 0.0, "tick must be positive");
    let mut acc = GatingAccumulator::new();
    let mut t = t0;
    while t <= t1 {
        let truth_in = window.contains(truth.position_at(t)[axis]);
        let beam = beam_on(t);
        acc.record(beam, truth_in);
        t += tick;
    }
    acc.stats()
}

/// Gates a session's recorded prediction ticks
/// ([`SessionRuntime::ticks`](crate::session::SessionRuntime::ticks)):
/// each tick's beam decision is [`PredictionTick::beam_on`] — on only
/// while the session is Healthy and the prediction lies in `window` —
/// scored against the true position at the tick's predicted-for instant.
/// Ticks fired before the first vertex closed have no target and are
/// skipped. Returns every decision, in tick order, and their statistics.
pub fn gate_ticks(
    ticks: &[PredictionTick],
    truth: &PlrTrajectory,
    axis: usize,
    window: GatingWindow,
) -> (Vec<bool>, GatingStats) {
    let mut acc = GatingAccumulator::new();
    let decisions = ticks
        .iter()
        .filter_map(|tick| {
            let target = tick.target_time?;
            let beam = tick.beam_on(window, axis);
            acc.record(beam, window.contains(truth.position_at(target)[axis]));
            Some(beam)
        })
        .collect();
    (decisions, acc.stats())
}

/// The ideal (zero-latency) policy: gate on the true current position.
pub fn oracle_policy<'a>(
    truth: &'a PlrTrajectory,
    axis: usize,
    window: GatingWindow,
) -> impl FnMut(f64) -> bool + 'a {
    move |t| window.contains(truth.position_at(t)[axis])
}

/// The uncompensated policy of Figure 1: gate on the position observed
/// `latency` seconds ago.
pub fn last_observed_policy<'a>(
    truth: &'a PlrTrajectory,
    axis: usize,
    window: GatingWindow,
    latency: f64,
) -> impl FnMut(f64) -> bool + 'a {
    move |t| window.contains(truth.position_at(t - latency)[axis])
}

/// A predictive policy: gate on a caller-supplied prediction of the
/// position at `t`, made from information available at `t - latency`.
pub fn predicted_policy(
    window: GatingWindow,
    axis: usize,
    mut predict: impl FnMut(f64) -> Option<tsm_model::Position>,
) -> impl FnMut(f64) -> bool {
    move |t| match predict(t) {
        Some(p) => window.contains(p[axis]),
        None => false, // abstaining keeps the beam off (safe default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_model::{BreathState::*, Vertex};

    /// A regular trajectory: 10 cycles, EOE dwell at 0 for 1 s per 4 s
    /// cycle.
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
    fn window_placement_at_exhale_end() {
        let plr = truth();
        let w = GatingWindow::at_exhale_end(&plr, 0, 3.0);
        assert_eq!(w.center, 0.0);
        assert!(w.contains(1.4));
        assert!(!w.contains(1.6));
        assert!(w.contains(-1.4));
    }

    #[test]
    fn oracle_is_perfect() {
        let plr = truth();
        let w = GatingWindow::at_exhale_end(&plr, 0, 3.0);
        let stats = simulate_gating(&plr, 0, w, 2.0, 38.0, 0.02, oracle_policy(&plr, 0, w));
        assert!((stats.precision - 1.0).abs() < 1e-9);
        assert!((stats.recall - 1.0).abs() < 1e-9);
        assert!(stats.duty_cycle > 0.2 && stats.duty_cycle < 0.6);
    }

    #[test]
    fn latency_degrades_last_observed() {
        let plr = truth();
        let w = GatingWindow::at_exhale_end(&plr, 0, 3.0);
        let no_latency = simulate_gating(
            &plr,
            0,
            w,
            2.0,
            38.0,
            0.02,
            last_observed_policy(&plr, 0, w, 0.0),
        );
        let with_latency = simulate_gating(
            &plr,
            0,
            w,
            2.0,
            38.0,
            0.02,
            last_observed_policy(&plr, 0, w, 0.4),
        );
        assert!((no_latency.f1() - 1.0).abs() < 1e-9);
        assert!(
            with_latency.precision < 0.95,
            "latency should cause out-of-window irradiation: precision {}",
            with_latency.precision
        );
        assert!(with_latency.f1() < no_latency.f1());
    }

    #[test]
    fn perfect_prediction_restores_the_oracle() {
        let plr = truth();
        let w = GatingWindow::at_exhale_end(&plr, 0, 3.0);
        // A predictor that happens to be exactly right.
        let policy = predicted_policy(w, 0, |t| Some(plr.position_at(t)));
        let stats = simulate_gating(&plr, 0, w, 2.0, 38.0, 0.02, policy);
        assert!((stats.f1() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn abstaining_predictor_keeps_beam_off() {
        let plr = truth();
        let w = GatingWindow::at_exhale_end(&plr, 0, 3.0);
        let policy = predicted_policy(w, 0, |_| None);
        let stats = simulate_gating(&plr, 0, w, 2.0, 38.0, 0.02, policy);
        assert_eq!(stats.duty_cycle, 0.0);
        assert_eq!(stats.recall, 0.0);
    }

    #[test]
    fn f1_edge_cases() {
        let s = GatingStats {
            duty_cycle: 0.0,
            precision: 0.0,
            recall: 0.0,
            ticks: 10,
        };
        assert_eq!(s.f1(), 0.0);
    }
}
