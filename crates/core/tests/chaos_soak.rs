//! Chaos soak: a fixed seed matrix of fault plans through the cohort
//! runtime. The CI stage runs this test; `tsm chaos` is the same soak on
//! the command line.
//!
//! Pass criteria, per the fault model in DESIGN.md:
//!
//! * no panic anywhere, every session runs to completion;
//! * recoverable faults never terminate a session — the supervisor
//!   absorbs them and the health machine recovers to `Healthy`;
//! * metrics snapshots reconcile after the soak.

use std::sync::Arc;
use tsm_core::metrics::MetricsRegistry;
use tsm_core::session::{CohortRuntime, SessionHealth, SessionSpec};
use tsm_core::{CachedMatcher, Matcher, Params};
use tsm_db::{PatientAttributes, StreamStore};
use tsm_model::{segment_signal, PlrTrajectory, Sample, SegmenterConfig};
use tsm_signal::{
    BreathingParams, FaultInjector, FaultKind, FaultPlan, NoiseParams, SignalGenerator,
};

const SOAK_SEED: u64 = 0xC4A05;
const PLANS: usize = 8;

fn reference_store(seed: u64) -> StreamStore {
    let store = StreamStore::new();
    for p in 0..4u64 {
        let pid = store.add_patient(PatientAttributes::new());
        let samples = SignalGenerator::new(BreathingParams::default(), seed ^ p)
            .with_noise(NoiseParams::typical())
            .generate(120.0);
        let vertices = segment_signal(&samples, SegmenterConfig::default());
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        store.add_stream(pid, 0, plr, samples.len());
    }
    store
}

fn live_signal(seed: u64, duration: f64) -> Vec<Sample> {
    SignalGenerator::new(BreathingParams::default(), seed)
        .with_noise(NoiseParams::typical())
        .generate(duration)
}

fn soak_runtime(store: StreamStore, metrics: &MetricsRegistry, threads: usize) -> CohortRuntime {
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(store, params).with_metrics(metrics.clone()),
    ));
    CohortRuntime::with_engine(engine)
        .expect("soak parameters are valid")
        .with_threads(threads)
}

/// The seed matrix CI soaks on: eight random plans, reproducible forever.
#[test]
fn seeded_fault_matrix_soaks_clean() {
    let store = reference_store(SOAK_SEED);
    let patients = store.patients();
    let specs: Vec<SessionSpec> = (0..PLANS)
        .map(|i| {
            let plan = FaultPlan::random(SOAK_SEED + i as u64);
            assert!(!plan.is_empty(), "random plans schedule at least one event");
            SessionSpec {
                patient: patients[i % patients.len()],
                session: 1,
                samples: FaultInjector::new(&plan)
                    .apply(&live_signal(SOAK_SEED + 1000 + i as u64, 60.0)),
            }
        })
        .collect();

    let metrics = MetricsRegistry::enabled();
    let report = soak_runtime(store, &metrics, 4).replay(&specs);

    assert_eq!(report.sessions.len(), PLANS);
    assert_eq!(
        report.fatal_sessions(),
        0,
        "injected faults must not be fatal"
    );
    let mut degraded = 0usize;
    for (i, r) in report.sessions.iter().enumerate() {
        assert!(r.complete, "plan {i} did not complete");
        let faulted = r.recovered_faults > 0 || r.resyncs > 0;
        if faulted {
            degraded += 1;
            assert_eq!(
                r.health,
                SessionHealth::Healthy,
                "plan {i} ended {:?} without recovering",
                r.health
            );
            assert!(r.degraded_but_complete());
        }
    }
    assert!(
        degraded >= PLANS / 2,
        "the seed matrix must actually exercise degradation ({degraded}/{PLANS} degraded)"
    );
    assert!(report.total_predictions() > 0);
    metrics
        .snapshot()
        .check_invariants()
        .expect("metrics must reconcile after the soak");
}

/// Every recoverable fault category, injected alone and concentrated,
/// leaves the session complete, recovered, and error-free.
#[test]
fn each_recoverable_fault_kind_is_survivable() {
    let kinds: Vec<(&str, FaultKind)> = vec![
        ("dropout", FaultKind::Dropout { samples: 80 }),
        ("duplicate", FaultKind::Duplicate { copies: 5 }),
        ("out-of-order", FaultKind::OutOfOrder { distance: 4 }),
        ("clock-jump-fwd", FaultKind::ClockJump { offset_s: 4.0 }),
        ("clock-jump-back", FaultKind::ClockJump { offset_s: -2.5 }),
        (
            "clock-skew",
            FaultKind::ClockSkew {
                factor: 2.0,
                samples: 60,
            },
        ),
        ("stuck", FaultKind::StuckSensor { samples: 120 }),
        (
            "spike",
            FaultKind::SpikeBurst {
                magnitude_mm: 12.0,
                samples: 6,
            },
        ),
        ("nan", FaultKind::NanBurst { samples: 10 }),
    ];
    let store = reference_store(SOAK_SEED ^ 0xFF);
    let patients = store.patients();
    let specs: Vec<SessionSpec> = kinds
        .iter()
        .enumerate()
        .map(|(i, (_, kind))| {
            let plan = FaultPlan::empty().with(700, kind.clone());
            SessionSpec {
                patient: patients[i % patients.len()],
                session: 1,
                samples: FaultInjector::new(&plan)
                    .apply(&live_signal(SOAK_SEED + 2000 + i as u64, 60.0)),
            }
        })
        .collect();

    let metrics = MetricsRegistry::enabled();
    let report = soak_runtime(store, &metrics, 3).replay(&specs);

    for ((name, _), r) in kinds.iter().zip(&report.sessions) {
        assert!(r.error.is_none(), "{name}: fatal error {:?}", r.error);
        assert!(r.complete, "{name}: session did not complete");
        assert_eq!(
            r.health,
            SessionHealth::Healthy,
            "{name}: ended {:?} without recovering",
            r.health
        );
    }
    metrics.snapshot().check_invariants().unwrap();
}
