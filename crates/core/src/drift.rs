//! Baseline-shift monitoring (the paper's Figure 3b phenomenon).
//!
//! "Tumor motion ... can include frequency changes, amplitude changes,
//! **base line shifting** (tumor position changes at the end of exhale),
//! or combinations of these effects." Matching is deliberately
//! offset-insensitive, so baseline drift never breaks retrieval — but the
//! *treatment* cares deeply: a gating window or tracking margin placed at
//! the start of a session silently mis-targets once the exhale-end level
//! wanders. This module watches the end-of-exhale levels and raises an
//! alarm when they drift beyond a clinical tolerance.

use serde::{Deserialize, Serialize};
use tsm_model::{BreathState, IncrementalLineFit, Vertex};

/// Configuration of the drift monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Total shift (mm) between the session's reference level and the
    /// recent level that triggers the alarm.
    pub shift_tolerance_mm: f64,
    /// Trend (mm per minute) that triggers the alarm on its own.
    pub trend_tolerance_mm_per_min: f64,
    /// End-of-exhale levels averaged to form the reference (the start of
    /// the session) and the recent estimate (its end).
    pub window: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            shift_tolerance_mm: 3.0,
            trend_tolerance_mm_per_min: 2.0,
            window: 5,
        }
    }
}

/// The monitor's assessment of a session so far.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// Reference exhale-end level (mm): mean of the first `window` EOE
    /// vertices.
    pub reference_mm: f64,
    /// Recent exhale-end level (mm): mean of the last `window`.
    pub recent_mm: f64,
    /// Least-squares trend of all EOE levels (mm per minute).
    pub trend_mm_per_min: f64,
    /// EOE observations seen.
    pub observations: usize,
    /// Whether either tolerance is exceeded.
    pub alarm: bool,
}

impl DriftReport {
    /// Total shift from the reference (mm, signed).
    pub fn shift_mm(&self) -> f64 {
        self.recent_mm - self.reference_mm
    }
}

/// Streaming baseline monitor: feed it the PLR vertices as they close.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    config: DriftConfig,
    axis: usize,
    levels: Vec<(f64, f64)>, // (time, EOE level)
    fit: IncrementalLineFit,
}

impl DriftMonitor {
    /// Creates a monitor reading exhale-end levels along `axis`.
    pub fn new(config: DriftConfig, axis: usize) -> Self {
        DriftMonitor {
            config,
            axis,
            levels: Vec::new(),
            fit: IncrementalLineFit::new(),
        }
    }

    /// Feeds one closed vertex; only end-of-exhale vertices contribute.
    pub fn push(&mut self, v: &Vertex) {
        if v.state == BreathState::EndOfExhale {
            let level = v.position[self.axis];
            self.levels.push((v.time, level));
            self.fit.push(v.time, level);
        }
    }

    /// Feeds a batch of vertices.
    pub fn extend<'a>(&mut self, vertices: impl IntoIterator<Item = &'a Vertex>) {
        for v in vertices {
            self.push(v);
        }
    }

    /// The current assessment, or `None` before `2 × window` EOE
    /// observations exist (reference and recent must not overlap).
    pub fn report(&self) -> Option<DriftReport> {
        let w = self.config.window.max(1);
        if self.levels.len() < 2 * w {
            return None;
        }
        let mean =
            |slice: &[(f64, f64)]| slice.iter().map(|&(_, y)| y).sum::<f64>() / slice.len() as f64;
        let reference = mean(&self.levels[..w]);
        let recent = mean(&self.levels[self.levels.len() - w..]);
        let trend = self.fit.slope() * 60.0;
        let alarm = (recent - reference).abs() > self.config.shift_tolerance_mm
            || trend.abs() > self.config.trend_tolerance_mm_per_min;
        Some(DriftReport {
            reference_mm: reference,
            recent_mm: recent,
            trend_mm_per_min: trend,
            observations: self.levels.len(),
            alarm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_model::BreathState::*;

    /// Cycles whose EOE level follows `baseline(cycle_index)`.
    fn vertices(n: usize, baseline: impl Fn(usize) -> f64) -> Vec<Vertex> {
        let mut v = Vec::new();
        let mut t = 0.0;
        for i in 0..n {
            let b = baseline(i);
            v.push(Vertex::new_1d(t, b + 10.0, Exhale));
            v.push(Vertex::new_1d(t + 1.5, b, EndOfExhale));
            v.push(Vertex::new_1d(t + 2.5, b, Inhale));
            t += 4.0;
        }
        v
    }

    #[test]
    fn stable_baseline_raises_no_alarm() {
        let mut m = DriftMonitor::new(DriftConfig::default(), 0);
        m.extend(&vertices(20, |_| 0.2));
        let r = m.report().expect("enough observations");
        assert!(!r.alarm);
        assert!(r.shift_mm().abs() < 0.1);
        assert!(r.trend_mm_per_min.abs() < 0.1);
        assert_eq!(r.observations, 20);
    }

    #[test]
    fn drifting_baseline_raises_the_alarm() {
        let mut m = DriftMonitor::new(DriftConfig::default(), 0);
        // 0.35 mm per cycle over 20 cycles = 7 mm shift, ~5 mm/min trend.
        m.extend(&vertices(20, |i| i as f64 * 0.35));
        let r = m.report().expect("enough observations");
        assert!(r.alarm, "drift missed: {r:?}");
        assert!(r.shift_mm() > 4.0);
        assert!(r.trend_mm_per_min > 2.0);
    }

    #[test]
    fn sudden_step_is_caught_by_the_shift_bound() {
        let mut m = DriftMonitor::new(DriftConfig::default(), 0);
        m.extend(&vertices(20, |i| if i < 10 { 0.0 } else { 5.0 }));
        let r = m.report().expect("enough observations");
        assert!(r.alarm);
        assert!((r.shift_mm() - 5.0).abs() < 0.5);
    }

    #[test]
    fn needs_enough_observations() {
        let mut m = DriftMonitor::new(DriftConfig::default(), 0);
        m.extend(&vertices(4, |_| 0.0)); // 4 EOE < 2 * window
        assert!(m.report().is_none());
        m.extend(&vertices(6, |_| 0.0));
        assert!(m.report().is_some());
    }

    #[test]
    fn irregular_vertices_are_ignored() {
        let mut m = DriftMonitor::new(DriftConfig::default(), 0);
        let mut v = vertices(12, |_| 0.0);
        // Wild IRR vertices must not contaminate the levels.
        for x in v.iter_mut().step_by(5) {
            x.state = Irregular;
            x.position = tsm_model::Position::new_1d(40.0);
        }
        m.extend(&v);
        if let Some(r) = m.report() {
            assert!(!r.alarm, "IRR vertices contaminated the monitor: {r:?}");
        }
    }
}
