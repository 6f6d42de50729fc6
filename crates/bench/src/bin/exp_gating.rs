//! Extension experiment: **gated delivery under latency** — quantifying
//! the paper's Figure 1 motivation across the cohort.
//!
//! For each held-out stream, a gating window is placed at its
//! end-of-exhale level and three policies are scored at each system
//! latency: the zero-latency oracle, gating on the last observed
//! position, and gating on the subsequence-matching prediction. The
//! clinical claim to verify: prediction recovers most of the
//! precision/recall the latency destroys.

use tsm_bench::report::{banner, table};
use tsm_bench::{build_bundle, BundleConfig};
use tsm_core::gating::{
    last_observed_policy, oracle_policy, predicted_policy, simulate_gating, GatingWindow,
};
use tsm_core::matcher::{Matcher, QuerySubseq, SearchOptions};
use tsm_core::predict::{predict_position_anchored, AlignMode};
use tsm_core::query::generate_query;
use tsm_core::tracking::{last_observed_aim, simulate_tracking};
use tsm_core::Params;
use tsm_model::SegmenterConfig;
use tsm_signal::CohortConfig;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cohort = CohortConfig {
        n_patients: if quick { 6 } else { 16 },
        sessions_per_patient: 2,
        streams_per_session: 2,
        stream_duration_s: 120.0,
        dim: 1,
        seed: 0x6A7E,
    };
    let bundle = build_bundle(&BundleConfig {
        cohort,
        segmenter: SegmenterConfig::default(),
    });
    let params = Params::default();
    let matcher = Matcher::new(bundle.store.clone(), params.clone());
    let tick = 1.0 / 30.0;

    banner("Gated delivery: F1 (precision/recall) by policy and latency");
    let mut rows = Vec::new();
    let mut verdict_ok = true;
    for latency in [0.1, 0.2, 0.3] {
        let mut f1_oracle = 0.0;
        let mut f1_last = 0.0;
        let mut f1_pred = 0.0;
        let mut duty = 0.0;
        let mut n = 0usize;
        for eval in &bundle.eval {
            let truth = &eval.truth;
            if truth.duration() < 60.0 {
                continue;
            }
            let window = GatingWindow::at_exhale_end(truth, 0, 4.0);
            let (t0, t1) = (20.0, truth.end_time() - 2.0);
            let oracle = simulate_gating(
                truth,
                0,
                window,
                t0,
                t1,
                tick,
                oracle_policy(truth, 0, window),
            );
            let last = simulate_gating(
                truth,
                0,
                window,
                t0,
                t1,
                tick,
                last_observed_policy(truth, 0, window, latency),
            );
            // The deployed policy: the matched subsequences supply the
            // *displacement* over the latency window, anchored on the
            // fresh raw observation from t - latency (which the tracking
            // system always has).
            let policy = predicted_policy(window, 0, |t| {
                let cutoff = t - latency;
                let upto = truth
                    .vertices()
                    .iter()
                    .take_while(|v| v.time <= cutoff)
                    .count();
                let live = &truth.vertices()[..upto];
                let outcome = generate_query(live, &params)?;
                let query = QuerySubseq::new(outcome.vertices(live).to_vec())
                    .with_origin(eval.patient, eval.session);
                let matches =
                    matcher.find_matches_in_store_order(&query, &SearchOptions::default());
                let t_last = query.vertices.last()?.time;
                let anchor = truth.position_at(cutoff);
                predict_position_anchored(
                    &bundle.store,
                    &query,
                    &matches,
                    cutoff - t_last,
                    anchor,
                    t - t_last,
                    &params,
                    AlignMode::default(),
                )
            });
            let predicted = simulate_gating(truth, 0, window, t0, t1, tick, policy);
            f1_oracle += oracle.f1();
            f1_last += last.f1();
            f1_pred += predicted.f1();
            duty += oracle.duty_cycle;
            n += 1;
        }
        let nf = n.max(1) as f64;
        let (o, l, p) = (f1_oracle / nf, f1_last / nf, f1_pred / nf);
        // Prediction must recover at least half of the latency-induced F1
        // loss at every latency.
        if p < l + 0.5 * (o - l) - 1e-9 {
            verdict_ok = false;
        }
        rows.push(vec![
            format!("{:.0} ms", latency * 1000.0),
            format!("{:.3}", o),
            format!("{:.3}", l),
            format!("{:.3}", p),
            format!("{:.0}%", duty / nf * 100.0),
        ]);
    }
    table(
        &[
            "latency",
            "oracle F1",
            "last-observed F1",
            "predicted F1",
            "duty cycle",
        ],
        &rows,
    );
    println!();
    println!("VERDICT prediction recovers >= 50% of the latency-induced F1 loss: {verdict_ok}");

    // ---- Beam tracking: the other compensation strategy ---------------
    banner("Beam tracking: mean geometric error (mm) by policy and latency");
    let mut rows = Vec::new();
    let mut tracking_ok = true;
    for latency in [0.1, 0.2, 0.3] {
        let mut e_last = 0.0;
        let mut e_pred = 0.0;
        let mut p95_last = 0.0;
        let mut p95_pred = 0.0;
        let mut n = 0usize;
        for eval in &bundle.eval {
            let truth = &eval.truth;
            if truth.duration() < 60.0 {
                continue;
            }
            let (t0, t1) = (20.0, truth.end_time() - 2.0);
            let last = simulate_tracking(truth, 0, t0, t1, tick, last_observed_aim(truth, latency));
            let predicted = simulate_tracking(truth, 0, t0, t1, tick, |t| {
                let cutoff = t - latency;
                // Fall back to the fresh observation when matching
                // abstains — holding a stale aim is never right.
                let anchor = truth.position_at(cutoff);
                let predicted = (|| {
                    let upto = truth
                        .vertices()
                        .iter()
                        .take_while(|v| v.time <= cutoff)
                        .count();
                    let live = &truth.vertices()[..upto];
                    let outcome = generate_query(live, &params)?;
                    let query = QuerySubseq::new(outcome.vertices(live).to_vec())
                        .with_origin(eval.patient, eval.session);
                    let matches =
                        matcher.find_matches_in_store_order(&query, &SearchOptions::default());
                    let t_last = query.vertices.last()?.time;
                    predict_position_anchored(
                        &bundle.store,
                        &query,
                        &matches,
                        cutoff - t_last,
                        anchor,
                        t - t_last,
                        &params,
                        AlignMode::default(),
                    )
                })();
                predicted.or(Some(anchor))
            });
            e_last += last.mean_error;
            e_pred += predicted.mean_error;
            p95_last += last.p95_error;
            p95_pred += predicted.p95_error;
            n += 1;
        }
        let nf = n.max(1) as f64;
        if e_pred / nf >= e_last / nf {
            tracking_ok = false;
        }
        rows.push(vec![
            format!("{:.0} ms", latency * 1000.0),
            format!("{:.3}", e_last / nf),
            format!("{:.3}", e_pred / nf),
            format!("{:.3}", p95_last / nf),
            format!("{:.3}", p95_pred / nf),
        ]);
    }
    table(
        &[
            "latency",
            "last-obs mean",
            "predicted mean",
            "last-obs p95",
            "predicted p95",
        ],
        &rows,
    );
    println!();
    println!("VERDICT predicted tracking beats last-observed at every latency: {tracking_ok}");
}
