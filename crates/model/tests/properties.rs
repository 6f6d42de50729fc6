//! Property-based tests of the model substrate's invariants.

use proptest::prelude::*;
use tsm_model::fsa::Fsa;
use tsm_model::prelude::*;

/// Strategy: a synthetic breathing-like waveform with arbitrary period,
/// amplitude and a little deterministic wobble.
fn waveform_params() -> impl Strategy<Value = (f64, f64, f64, u32)> {
    (
        // Clinical breathing periods; the default window length assumes
        // phases last several hundred milliseconds.
        2.6f64..6.0,   // period (s)
        4.0f64..25.0,  // amplitude (mm)
        10.0f64..40.0, // duration (s)
        0u32..1000,    // phase offset seed
    )
}

fn breathing(t: f64, period: f64, amplitude: f64) -> f64 {
    let phase = (t / period).fract();
    if phase < 0.40 {
        let p = phase / 0.40;
        amplitude * 0.5 * (1.0 + (std::f64::consts::PI * p).cos())
    } else if phase < 0.65 {
        0.0
    } else {
        let p = (phase - 0.65) / 0.35;
        amplitude * 0.5 * (1.0 - (std::f64::consts::PI * p).cos())
    }
}

fn generate(period: f64, amplitude: f64, duration: f64, seed: u32) -> Vec<Sample> {
    let hz = 30.0;
    let offset = seed as f64 / 1000.0 * period;
    (0..(duration * hz) as usize)
        .map(|i| {
            let t = i as f64 / hz;
            Sample::new_1d(t, breathing(t + offset, period, amplitude))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The emitted state sequence always obeys the finite state automaton,
    /// whatever the waveform parameters.
    #[test]
    fn segmenter_output_is_fsa_legal((period, amplitude, duration, seed) in waveform_params()) {
        let samples = generate(period, amplitude, duration, seed);
        let vertices = tsm_model::segmenter::segment_signal(&samples, SegmenterConfig::clean());
        prop_assume!(vertices.len() >= 2);
        let states: Vec<_> = vertices[..vertices.len() - 1].iter().map(|v| v.state).collect();
        Fsa.validate_sequence(&states).unwrap();
    }

    /// Vertex times strictly increase, so the output always forms a valid
    /// PLR trajectory.
    #[test]
    fn segmenter_output_forms_valid_plr((period, amplitude, duration, seed) in waveform_params()) {
        let samples = generate(period, amplitude, duration, seed);
        let vertices = tsm_model::segmenter::segment_signal(&samples, SegmenterConfig::clean());
        prop_assume!(!vertices.is_empty());
        PlrTrajectory::from_vertices(vertices).unwrap();
    }

    /// The PLR reconstructs the (noise-free) signal within a small fraction
    /// of its amplitude.
    #[test]
    fn plr_reconstruction_error_is_bounded((period, amplitude, duration, seed) in waveform_params()) {
        let samples = generate(period, amplitude, duration, seed);
        let vertices = tsm_model::segmenter::segment_signal(&samples, SegmenterConfig::clean());
        prop_assume!(vertices.len() >= 6);
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        // Skip the warmup edge (the first confirmed phase can start late).
        let interior: Vec<Sample> = samples
            .iter()
            .copied()
            .filter(|s| s.time >= plr.start_time() && s.time <= plr.end_time())
            .collect();
        let rms = plr.rms_error(&interior, 0);
        // A straight chord across a half-cosine phase deviates by ~10% of
        // the amplitude on its own; breakpoint-confirmation latency adds a
        // little more. The property is "bounded and amplitude-scaled", not
        // "tight".
        prop_assert!(
            rms <= 0.25 * amplitude + 0.5,
            "rms {rms} too large for amplitude {amplitude}"
        );
    }

    /// Vertex count grows linearly with signal duration (about 3 vertices
    /// per cycle), never with raw sample count — the dimensionality
    /// reduction the paper relies on.
    #[test]
    fn plr_is_compact((period, amplitude, duration, seed) in waveform_params()) {
        let samples = generate(period, amplitude, duration, seed);
        let vertices = tsm_model::segmenter::segment_signal(&samples, SegmenterConfig::clean());
        let cycles = duration / period;
        prop_assert!(
            (vertices.len() as f64) <= 6.0 * cycles + 8.0,
            "{} vertices for {:.1} cycles",
            vertices.len(),
            cycles
        );
    }

    /// Cycle extraction only reports periods in a plausible range around
    /// the true period.
    #[test]
    fn extracted_cycles_match_generator((period, amplitude, duration, seed) in waveform_params()) {
        let samples = generate(period, amplitude, duration, seed);
        let vertices = tsm_model::segmenter::segment_signal(&samples, SegmenterConfig::clean());
        prop_assume!(vertices.len() >= 8);
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        let cycles = CycleExtractor::new(0).cycles(&plr);
        prop_assume!(cycles.len() >= 2);
        // Interior cycles must be within 40% of the true period.
        for c in &cycles[1..cycles.len() - 1] {
            prop_assert!(
                (c.period() - period).abs() <= 0.4 * period,
                "cycle period {} vs true {}",
                c.period(),
                period
            );
        }
    }

    /// Streaming vs batch processing of the same samples agree exactly.
    #[test]
    fn streaming_matches_batch((period, amplitude, duration, seed) in waveform_params()) {
        let samples = generate(period, amplitude, duration.min(20.0), seed);
        let batch = tsm_model::segmenter::segment_signal(&samples, SegmenterConfig::default());
        let mut seg = OnlineSegmenter::new(SegmenterConfig::default());
        let mut streaming = Vec::new();
        for &s in &samples {
            streaming.extend(seg.push(s).unwrap());
        }
        streaming.extend(seg.finish());
        prop_assert_eq!(batch, streaming);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The segmenter never panics and always yields a valid PLR on
    /// adversarial inputs: arbitrary finite values, constants, monotone
    /// ramps, steps.
    #[test]
    fn segmenter_is_robust_to_arbitrary_signals(
        values in proptest::collection::vec(-1e3f64..1e3, 0..400),
        preprocess in proptest::bool::ANY,
    ) {
        let samples: Vec<Sample> = values
            .iter()
            .enumerate()
            .map(|(i, &y)| Sample::new_1d(i as f64 / 30.0, y))
            .collect();
        let config = if preprocess {
            SegmenterConfig::default()
        } else {
            SegmenterConfig::clean()
        };
        let vertices = tsm_model::segmenter::segment_signal(&samples, config);
        if vertices.len() >= 2 {
            let plr = PlrTrajectory::from_vertices(vertices).unwrap();
            // Emitted sequence legal (minus the duplicated terminal state).
            let states = plr.states();
            Fsa.validate_sequence(&states).unwrap();
        }
    }

    /// Constant signals never produce regular breathing states.
    #[test]
    fn constant_signals_yield_no_cycles(level in -100.0f64..100.0, n in 60usize..600) {
        let samples: Vec<Sample> = (0..n)
            .map(|i| Sample::new_1d(i as f64 / 30.0, level))
            .collect();
        let vertices = tsm_model::segmenter::segment_signal(&samples, SegmenterConfig::clean());
        prop_assume!(vertices.len() >= 2);
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        let cycles = CycleExtractor::new(0).cycles(&plr);
        prop_assert!(cycles.is_empty(), "cycles found in a constant signal");
        // A flat line is a legitimate end-of-exhale dwell (until it
        // exceeds the hold bound) or irregular — never EX/IN.
        for s in plr.states() {
            prop_assert!(
                s != BreathState::Exhale && s != BreathState::Inhale,
                "swing state {s} in a constant signal"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental line fit matches a direct two-pass computation.
    #[test]
    fn incremental_fit_matches_batch(points in proptest::collection::vec((0.0f64..100.0, -50.0f64..50.0), 3..60)) {
        // Sort & dedup times to keep the fit well-defined.
        let mut pts = points;
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        pts.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
        prop_assume!(pts.len() >= 3);

        let mut fit = IncrementalLineFit::new();
        for &(t, y) in &pts {
            fit.push(t, y);
        }

        let n = pts.len() as f64;
        let mt = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let sxy: f64 = pts.iter().map(|p| (p.0 - mt) * (p.1 - my)).sum();
        let sxx: f64 = pts.iter().map(|p| (p.0 - mt) * (p.0 - mt)).sum();
        prop_assume!(sxx > 1e-9);
        let slope = sxy / sxx;
        prop_assert!((fit.slope() - slope).abs() <= 1e-6 * (1.0 + slope.abs()),
            "incremental {} vs batch {}", fit.slope(), slope);
    }

    /// Median-of-three spike filtering never invents values outside the
    /// local range of its inputs.
    #[test]
    fn spike_filter_output_within_input_range(xs in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut f = SpikeFilter::new();
        let mut out = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            if let Some(s) = f.push(Sample::new_1d(i as f64, x)) {
                out.push(s.position[0]);
            }
        }
        out.extend(f.finish().into_iter().map(|s| s.position[0]));
        prop_assert_eq!(out.len(), xs.len());
        for &y in &out {
            prop_assert!(y >= lo - 1e-12 && y <= hi + 1e-12);
        }
    }

    /// The moving average is sample-count preserving and also stays within
    /// the input range.
    #[test]
    fn moving_average_preserves_count(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..60),
        w in 1usize..11,
    ) {
        let mut f = MovingAverage::new(w);
        let mut out = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            if let Some(s) = f.push(Sample::new_1d(i as f64, x)) {
                out.push(s);
            }
        }
        out.extend(f.finish());
        prop_assert_eq!(out.len(), xs.len());
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for s in &out {
            prop_assert!(s.position[0] >= lo - 1e-9 && s.position[0] <= hi + 1e-9);
        }
    }
}

fn bit_identical(a: &[Vertex], b: &[Vertex]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("vertex counts differ: {} vs {}", a.len(), b.len()));
    }
    for (i, (va, vb)) in a.iter().zip(b).enumerate() {
        if va.time.to_bits() != vb.time.to_bits() || va.state != vb.state {
            return Err(format!("vertex {i} differs: {va:?} vs {vb:?}"));
        }
        for (ca, cb) in va.position.coords().iter().zip(vb.position.coords()) {
            if ca.to_bits() != cb.to_bits() {
                return Err(format!("vertex {i} position differs: {va:?} vs {vb:?}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exact-duplicate samples are dropped by the ingest guard before they
    /// reach the smoothing chain, so segmentation through a
    /// `GuardedSegmenter` is **bit-identical** with and without them —
    /// whatever the waveform and wherever the duplicates land.
    #[test]
    fn guarded_segmentation_is_invariant_under_duplicate_samples(
        (period, amplitude, duration, seed) in waveform_params(),
        dup_idx in proptest::collection::vec(0usize..1200, 1..12),
    ) {
        let samples = generate(period, amplitude, duration, seed);
        let dup_at: std::collections::BTreeSet<usize> = dup_idx.into_iter().collect();
        let mut dupped = Vec::with_capacity(samples.len() + dup_at.len());
        for (i, &s) in samples.iter().enumerate() {
            dupped.push(s);
            if dup_at.contains(&i) {
                dupped.push(s); // exact copy: same time, same position
            }
        }
        let run = |input: &[Sample]| {
            let mut seg =
                GuardedSegmenter::new(SegmenterConfig::clean(), IngestGuardConfig::default());
            let mut flags = 0usize;
            for &s in input {
                flags += seg.push(s).unwrap().flags.len();
            }
            (seg.duplicates_dropped(), flags, seg.finish())
        };
        let (_, clean_flags, clean) = run(&samples);
        let (dropped, _, with_dups) = run(&dupped);
        prop_assert_eq!(clean_flags, 0, "clean input must not raise flags");
        let n_dups = dupped.len() - samples.len();
        prop_assert_eq!(dropped as usize, n_dups);
        if let Err(msg) = bit_identical(&clean, &with_dups) {
            return Err(TestCaseError::fail(msg));
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stepping forward from a vertex at or before `t` finds the segment
    /// the whole-trajectory search finds, so `position_after` is
    /// bit-equal to `position_at` for every start vertex and every time
    /// from that vertex to the trajectory's end: vertex times, random
    /// times in between, and the end itself.
    #[test]
    fn position_after_is_bit_equal_to_position_at(
        (period, amplitude, duration, seed) in waveform_params(),
        fracs in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let samples = generate(period, amplitude, duration, seed);
        let vertices = tsm_model::segmenter::segment_signal(&samples, SegmenterConfig::clean());
        prop_assume!(!vertices.is_empty());
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        let end = plr.end_time();
        for (from, v) in plr.vertices().iter().enumerate() {
            let later = plr.vertices()[from..].iter().map(|w| w.time);
            let between = fracs.iter().map(|f| v.time + f * (end - v.time));
            for t in later.chain(between).chain([end]) {
                let (stepped, searched) = (plr.position_after(from, t), plr.position_at(t));
                let same = stepped
                    .coords()
                    .iter()
                    .zip(searched.coords())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                prop_assert!(same, "from {} t {}: {:?} vs {:?}", from, t, stepped, searched);
            }
        }
    }
}
