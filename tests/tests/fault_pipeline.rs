//! An empty `FaultPlan` is an exact no-op end to end: running the full
//! pipeline — guarded segmentation, top-k matching, live prediction —
//! over the injected stream produces **bit-identical** results to the
//! clean stream. This is the property that lets `tsm replay --faults`
//! share one code path with the clean replay.

use tsm_core::matcher::{Matcher, QuerySubseq};
use tsm_core::session::{SessionConfig, SessionRuntime};
use tsm_core::Params;
use tsm_db::{PatientAttributes, PatientId, SharedStore, StreamStore, SubseqRef};
use tsm_model::{segment_signal, PlrTrajectory, Sample, SegmenterConfig, Vertex};
use tsm_signal::{BreathingParams, FaultInjector, FaultPlan, NoiseParams, SignalGenerator};

const DT: f64 = 0.3;
const EVERY: usize = 30;

fn passthrough(samples: &[Sample]) -> Vec<Sample> {
    FaultInjector::new(&FaultPlan::empty()).apply(samples)
}

fn assert_samples_bit_identical(a: &[Sample], b: &[Sample]) {
    assert_eq!(a.len(), b.len());
    for (sa, sb) in a.iter().zip(b) {
        assert_eq!(sa.time.to_bits(), sb.time.to_bits());
        for (ca, cb) in sa.position.coords().iter().zip(sb.position.coords()) {
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
    }
}

fn assert_vertices_bit_identical(a: &[Vertex], b: &[Vertex]) {
    assert_eq!(a.len(), b.len());
    for (va, vb) in a.iter().zip(b) {
        assert_eq!(va.time.to_bits(), vb.time.to_bits());
        assert_eq!(va.state, vb.state);
        for (ca, cb) in va.position.coords().iter().zip(vb.position.coords()) {
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
    }
}

/// Builds a store over `make(i)`-generated session signals.
fn store_from(make: impl Fn(u32) -> Vec<Sample>) -> (SharedStore, PatientId) {
    let store = StreamStore::new();
    let patient = store.add_patient(PatientAttributes::new());
    for session in 0..3u32 {
        let samples = make(session);
        let vertices = segment_signal(&samples, SegmenterConfig::clean());
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        store.add_stream(patient, session, plr, samples.len());
    }
    (store.into_shared(), patient)
}

fn session_signal(session: u32) -> Vec<Sample> {
    SignalGenerator::new(BreathingParams::default(), 0xF4A1 + session as u64)
        .with_noise(NoiseParams::typical())
        .generate(80.0)
}

#[test]
fn empty_plan_yields_bit_identical_matches() {
    // Two stores: one built from clean signals, one from the same signals
    // routed through an empty-plan injector. Every top-k search must agree
    // exactly — ranks, scores, and referenced subsequences.
    let (clean_store, _) = store_from(session_signal);
    let (faulted_store, _) = store_from(|s| passthrough(&session_signal(s)));
    let params = Params::default();
    let clean_matcher = Matcher::new(clean_store.clone(), params.clone());
    let faulted_matcher = Matcher::new(faulted_store.clone(), params);

    let mut compared = 0usize;
    for (cs, fs) in clean_store
        .streams()
        .iter()
        .zip(faulted_store.streams().iter())
    {
        assert_eq!(cs.plr.num_segments(), fs.plr.num_segments());
        let nseg = cs.plr.num_segments();
        for start in [0usize, nseg / 3, nseg / 2] {
            let (Some(cv), Some(fv)) = (
                clean_store.resolve(SubseqRef::new(cs.meta.id, start, 9)),
                faulted_store.resolve(SubseqRef::new(fs.meta.id, start, 9)),
            ) else {
                continue;
            };
            let clean_matches = clean_matcher.find_matches(&QuerySubseq::from_view(&cv));
            let faulted_matches = faulted_matcher.find_matches(&QuerySubseq::from_view(&fv));
            assert_eq!(clean_matches, faulted_matches);
            compared += 1;
        }
    }
    assert!(compared >= 6, "only {compared} queries compared");
}

#[test]
fn empty_plan_yields_bit_identical_predictions() {
    let (store, patient) = store_from(session_signal);
    let live = SignalGenerator::new(BreathingParams::default(), 0xF4A1 + 99)
        .with_noise(NoiseParams::typical())
        .generate(60.0);
    let injected = passthrough(&live);
    assert_samples_bit_identical(&live, &injected);

    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let run = |samples: &[Sample]| {
        let config = SessionConfig::new(patient, 9).with_segmenter(SegmenterConfig::clean());
        let mut predictor = SessionRuntime::new(store.clone(), params.clone(), config).unwrap();
        let mut outcomes = Vec::new();
        for (i, &s) in samples.iter().enumerate() {
            predictor.push(s).unwrap();
            if i % EVERY == 0 && i >= EVERY {
                if let Some(o) = predictor.predict(DT) {
                    outcomes.push(o);
                }
            }
        }
        (predictor.live_vertices().to_vec(), outcomes)
    };
    let (clean_vertices, clean_outcomes) = run(&live);
    let (faulted_vertices, faulted_outcomes) = run(&injected);

    assert_vertices_bit_identical(&clean_vertices, &faulted_vertices);
    assert!(
        !clean_outcomes.is_empty(),
        "the live session must serve predictions"
    );
    assert_eq!(clean_outcomes.len(), faulted_outcomes.len());
    for (a, b) in clean_outcomes.iter().zip(&faulted_outcomes) {
        for (ca, cb) in a.position.coords().iter().zip(b.position.coords()) {
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
    }
}
