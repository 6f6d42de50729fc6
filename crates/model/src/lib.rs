//! # tsm-model
//!
//! The motion model and data model substrate for subsequence matching on
//! structured time series, after Wu et al., *Subsequence Matching on
//! Structured Time Series Data*, SIGMOD 2005 (Section 3).
//!
//! A structured time series is one whose internal structure can be
//! described by a finite set of *linear states*. For tumor respiratory
//! motion those states are exhale ([`BreathState::Exhale`]), end-of-exhale
//! ([`BreathState::EndOfExhale`]), inhale ([`BreathState::Inhale`]) and a
//! catch-all irregular state ([`BreathState::Irregular`]). A finite state
//! automaton ([`fsa::Fsa`]) constrains the legal state order, and an online
//! segmentation algorithm ([`segmenter::OnlineSegmenter`]) turns the raw
//! sampled signal into a piecewise linear representation
//! ([`plr::PlrTrajectory`]) whose segments each carry one state.
//!
//! The crate is deliberately free of any application logic: it only knows
//! about samples, states, vertices, segments and trajectories. Everything
//! here runs in constant space and constant time per incoming sample, which
//! is what makes the representation usable for real-time prediction
//! (Section 7.5 of the paper).
//!
//! ## Quick tour
//!
//! ```
//! use tsm_model::prelude::*;
//!
//! // A synthetic two-cycle breathing signal sampled at 30 Hz.
//! let hz = 30.0;
//! let mut segmenter = OnlineSegmenter::new(SegmenterConfig::default());
//! let mut vertices = Vec::new();
//! for i in 0..(8.0 * hz) as usize {
//!     let t = i as f64 / hz;
//!     // 4 s period, 10 mm amplitude, exhale-down/inhale-up.
//!     let y = 5.0 * (1.0 + (2.0 * std::f64::consts::PI * t / 4.0).cos());
//!     vertices.extend(segmenter.push(Sample::new_1d(t, y)).unwrap());
//! }
//! vertices.extend(segmenter.finish());
//! let plr = PlrTrajectory::from_vertices(vertices).unwrap();
//! assert!(plr.num_segments() >= 4);
//! ```

pub mod cardiac;
pub mod csv;
pub mod cycle;
pub mod fsa;
pub mod ingest;
pub mod plr;
pub mod position;
pub mod regression;
pub mod sample;
pub mod segment;
pub mod segmenter;
pub mod smoother;
pub mod state;
pub mod vertex;

/// Convenient glob import of the most used types.
pub mod prelude {
    pub use crate::cardiac::{CardiacCanceller, CardiacCancellerConfig};
    pub use crate::cycle::{BreathingCycle, CycleExtractor};
    pub use crate::fsa::Fsa;
    pub use crate::ingest::{GuardedPush, GuardedSegmenter, IngestFlag, IngestGuardConfig};
    pub use crate::plr::PlrTrajectory;
    pub use crate::position::Position;
    pub use crate::regression::IncrementalLineFit;
    pub use crate::sample::Sample;
    pub use crate::segment::Segment;
    pub use crate::segmenter::{segment_signal, NonFiniteSample, OnlineSegmenter, SegmenterConfig};
    pub use crate::smoother::{MovingAverage, SpikeFilter, StreamFilter};
    pub use crate::state::{state_signature, BreathState, MAX_SIGNATURE_LEN};
    pub use crate::vertex::Vertex;
}

pub use prelude::*;
