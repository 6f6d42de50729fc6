//! Prediction demo: a full image-guided treatment session.
//!
//! A patient has two historical sessions in the database (plus streams
//! from two other patients). A third session is replayed live through
//! [`tsm_core::session::SessionRuntime`]; at one-second intervals the
//! system predicts the tumor position 100/200/300 ms ahead — the latency
//! window of Figure 1 — and the errors are compared against treating at
//! the last observed position.
//!
//! Run with: `cargo run --release -p tsm-examples --bin prediction_demo`

use tsm_core::session::{SessionConfig, SessionRuntime};
use tsm_core::Params;
use tsm_db::StreamStore;
use tsm_examples::{add_patient, store_stream};
use tsm_model::{segment_signal, PlrTrajectory, SegmenterConfig};
use tsm_signal::{BreathingParams, EpisodePlan, NoiseParams, SignalGenerator};

fn main() {
    let seg_config = SegmenterConfig::default();
    let store = StreamStore::new();

    // --- Historical data -----------------------------------------------
    let our_patient = add_patient(&store, &[("name", "patient A")]);
    let patient_params = BreathingParams {
        amplitude_mm: 14.0,
        period_s: 4.2,
        ..Default::default()
    };
    for session in 0..2u32 {
        let mut generator = SignalGenerator::new(patient_params, 100 + session as u64)
            .with_noise(NoiseParams::typical())
            .with_episodes(EpisodePlan::occasional());
        let samples = generator.generate(150.0);
        store_stream(&store, our_patient, session, &samples, &seg_config);
    }
    // Two other patients with different breathing.
    for (i, (amp, per)) in [(7.0, 3.0), (18.0, 5.3)].iter().enumerate() {
        let other = add_patient(&store, &[("name", "other")]);
        let p = BreathingParams {
            amplitude_mm: *amp,
            period_s: *per,
            ..Default::default()
        };
        let mut generator =
            SignalGenerator::new(p, 200 + i as u64).with_noise(NoiseParams::typical());
        let samples = generator.generate(150.0);
        store_stream(&store, other, 0, &samples, &seg_config);
    }
    println!(
        "store: {} patients, {} streams, {} vertices\n",
        store.num_patients(),
        store.num_streams(),
        store.total_vertices()
    );

    // --- Live session ---------------------------------------------------
    let params = Params::default();
    let config = SessionConfig::new(our_patient, 2).with_segmenter(seg_config.clone());
    let mut predictor = SessionRuntime::new(store.clone(), params.clone(), config)
        .expect("default parameters are valid");
    let mut generator = SignalGenerator::new(patient_params, 300)
        .with_noise(NoiseParams::typical())
        .with_episodes(EpisodePlan::occasional());
    let live_samples = generator.generate(120.0);
    let truth = {
        let v = segment_signal(&live_samples, seg_config.clone());
        PlrTrajectory::from_vertices(v).expect("valid PLR")
    };

    let dts = [0.1, 0.2, 0.3];
    let mut err = [0.0f64; 3];
    let mut naive_err = [0.0f64; 3];
    let mut n = [0usize; 3];
    let mut abstained = 0usize;
    for (i, &s) in live_samples.iter().enumerate() {
        predictor.push(s).expect("finite sample");
        if i % 30 != 0 || i < 300 {
            continue;
        }
        let Some(last) = predictor.live_vertices().last() else {
            continue;
        };
        let t_last = last.time;
        let mut any = false;
        for (k, &dt) in dts.iter().enumerate() {
            if let Some(outcome) = predictor.predict(dt) {
                let truth_pos = truth.position_at(t_last + dt)[0];
                err[k] += (outcome.position[0] - truth_pos).abs();
                naive_err[k] += (last.position[0] - truth_pos).abs();
                n[k] += 1;
                any = true;
            }
        }
        if !any {
            abstained += 1;
        }
    }

    println!("latency   matched prediction   last-position baseline");
    println!("-------   ------------------   -----------------------");
    for (k, &dt) in dts.iter().enumerate() {
        if n[k] == 0 {
            println!("{:>4.0} ms   (no predictions)", dt * 1000.0);
            continue;
        }
        println!(
            "{:>4.0} ms   {:>10.3} mm        {:>10.3} mm   ({} predictions)",
            dt * 1000.0,
            err[k] / n[k] as f64,
            naive_err[k] / n[k] as f64,
            n[k]
        );
    }
    println!("\nabstained at {abstained} prediction points (irregular motion or no close matches)");

    // Persist the session for future treatments.
    let id = predictor
        .finish_into_store()
        .expect("session produced a stream");
    println!(
        "session persisted as stream {id}; store now has {} streams",
        store.num_streams()
    );
}
