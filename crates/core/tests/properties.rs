//! Property-based tests of the matching core's invariants.

use proptest::prelude::*;
use tsm_core::prelude::*;
use tsm_core::query::fixed_query;
use tsm_db::SourceRelation;
use tsm_model::{BreathState, Vertex};

/// Strategy: a random regular PLR window of `cycles` breathing cycles with
/// per-cycle amplitude/duration wobble.
fn plr_window(max_cycles: usize) -> impl Strategy<Value = Vec<Vertex>> {
    (
        2usize..=max_cycles,
        proptest::collection::vec((4.0f64..20.0, 2.5f64..6.0), max_cycles),
        0.0f64..30.0, // baseline
    )
        .prop_map(|(cycles, specs, baseline)| {
            let mut v = Vec::new();
            let mut t = 0.0;
            for (amp, period) in specs.iter().take(cycles) {
                v.push(Vertex::new_1d(t, baseline + amp, BreathState::Exhale));
                v.push(Vertex::new_1d(
                    t + period * 0.4,
                    baseline,
                    BreathState::EndOfExhale,
                ));
                v.push(Vertex::new_1d(
                    t + period * 0.6,
                    baseline,
                    BreathState::Inhale,
                ));
                t += period;
            }
            v.push(Vertex::new_1d(
                t,
                baseline + specs[0].0,
                BreathState::Exhale,
            ));
            v
        })
}

/// Two windows with the same cycle count (so their state orders match).
fn window_pair() -> impl Strategy<Value = (Vec<Vertex>, Vec<Vertex>)> {
    (2usize..=4).prop_flat_map(|cycles| {
        let a = plr_window(cycles).prop_filter("cycle count", move |v| v.len() == cycles * 3 + 1);
        let b = plr_window(cycles).prop_filter("cycle count", move |v| v.len() == cycles * 3 + 1);
        (a, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// d(Q, Q) = 0, d >= 0, and d is symmetric within one relation tier.
    #[test]
    fn distance_identity_symmetry_nonnegativity((a, b) in window_pair()) {
        let p = Params::default();
        let rel = SourceRelation::SamePatient;
        let daa = online_distance(&a, &a, &p, rel).unwrap();
        prop_assert!(daa.abs() < 1e-12);
        if let Some(dab) = online_distance(&a, &b, &p, rel) {
            let dba = online_distance(&b, &a, &p, rel).unwrap();
            prop_assert!(dab >= 0.0);
            prop_assert!((dab - dba).abs() < 1e-9);
        }
    }

    /// Baseline shifts never change the distance (offset-translation
    /// insensitivity).
    #[test]
    fn offset_translation_invariance((a, b) in window_pair(), shift in -50.0f64..50.0) {
        let p = Params::default();
        let rel = SourceRelation::SameSession;
        let shifted: Vec<Vertex> = b
            .iter()
            .map(|v| Vertex::new_1d(v.time, v.position[0] + shift, v.state))
            .collect();
        let d0 = online_distance(&a, &b, &p, rel);
        let d1 = online_distance(&a, &shifted, &p, rel);
        match (d0, d1) {
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
            (None, None) => {}
            _ => prop_assert!(false, "gate divergence"),
        }
    }

    /// Source tiers order every distance: same-session <= same-patient <=
    /// other-patient, with the exact ws ratios.
    #[test]
    fn source_tiers_scale_distances((a, b) in window_pair()) {
        let p = Params::default();
        if let Some(ds) = online_distance(&a, &b, &p, SourceRelation::SameSession) {
            let dp = online_distance(&a, &b, &p, SourceRelation::SamePatient).unwrap();
            let do_ = online_distance(&a, &b, &p, SourceRelation::OtherPatient).unwrap();
            prop_assert!(ds <= dp + 1e-12 && dp <= do_ + 1e-12);
            if ds > 1e-9 {
                prop_assert!((dp / ds - 1.0 / 0.9).abs() < 1e-6);
                prop_assert!((do_ / ds - 1.0 / 0.3).abs() < 1e-6);
            }
        }
    }

    /// Vertex weights are within [wi_base, 1] and non-decreasing towards
    /// the end of the query.
    #[test]
    fn vertex_weights_bounded_monotone(n in 2usize..30, base in 0.0f64..1.0) {
        let p = Params { wi_base: base, ..Params::default() };
        let mut prev = 0.0;
        for i in 0..n {
            let w = vertex_weight(&p, i, n);
            prop_assert!(w >= base - 1e-12 && w <= 1.0 + 1e-12);
            prop_assert!(w >= prev - 1e-12);
            prev = w;
        }
        prop_assert!((vertex_weight(&p, n - 1, n) - 1.0).abs() < 1e-12);
    }

    /// Dynamic queries always cover the most recent motion and respect
    /// the length bounds.
    #[test]
    fn query_bounds(buffer in plr_window(14), theta in 0.05f64..20.0) {
        let p = Params { theta, lmin_cycles: 2, lmax_cycles: 6, ..Params::default() };
        prop_assume!(buffer.len() > p.lmin_segments());
        if let Some(q) = generate_query(&buffer, &p) {
            prop_assert!(q.len >= p.lmin_segments());
            prop_assert!(q.len <= p.lmax_segments());
            prop_assert_eq!(q.start + q.len, buffer.len() - 1);
        }
    }

    /// Fixed-length queries also end at the most recent vertex.
    #[test]
    fn fixed_query_bounds(buffer in plr_window(10), len in 1usize..40) {
        match fixed_query(&buffer, len) {
            Some(q) => {
                prop_assert_eq!(q.len, len);
                prop_assert_eq!(q.start + q.len, buffer.len() - 1);
            }
            None => prop_assert!(len == 0 || len > buffer.len() - 1),
        }
    }

    /// Stability is invariant under uniform time+amplitude scaling (up to
    /// the epsilon guards) and IRR relabelling never decreases it.
    #[test]
    fn stability_scale_and_irr(buffer in plr_window(8), scale in 1.2f64..3.0) {
        let p = Params::default();
        let base = stability(&buffer, &p);
        let scaled: Vec<Vertex> = buffer
            .iter()
            .map(|v| Vertex::new_1d(v.time * scale, v.position[0] * scale, v.state))
            .collect();
        let s = stability(&scaled, &p);
        prop_assert!((s - base).abs() <= 0.4 * base.max(0.5), "{base} vs {s}");

        // Relabelling a segment IRR in a *perfectly regular* window must
        // add at least the wa penalty. (In a wobbly window the relabelled
        // segment also leaves its state group, which can reduce that
        // group's deviations, so monotonicity only holds for regular
        // windows.)
        let regular: Vec<Vertex> = {
            let n_cycles = (buffer.len() - 1) / 3;
            let mut v = Vec::new();
            for c in 0..n_cycles {
                let t = c as f64 * 4.0;
                v.push(Vertex::new_1d(t, 10.0, BreathState::Exhale));
                v.push(Vertex::new_1d(t + 1.5, 0.0, BreathState::EndOfExhale));
                v.push(Vertex::new_1d(t + 2.5, 0.0, BreathState::Inhale));
            }
            v.push(Vertex::new_1d(n_cycles as f64 * 4.0, 10.0, BreathState::Exhale));
            v
        };
        if regular.len() >= 5 {
            let s_reg = stability(&regular, &p);
            let mut irr = regular.clone();
            let mid = irr.len() / 2;
            irr[mid].state = BreathState::Irregular;
            prop_assert!(stability(&irr, &p) >= s_reg + p.wa - 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Clustering outputs are structurally valid whatever the distances.
    #[test]
    fn clustering_structural_validity(
        coords in proptest::collection::vec(0.0f64..100.0, 4..24),
        k in 1usize..5,
    ) {
        let n = coords.len();
        let dm = DistanceMatrix::from_fn(n, |i, j| (coords[i] - coords[j]).abs());
        for labels in [k_medoids(&dm, k, 30), agglomerative(&dm, k)] {
            prop_assert_eq!(labels.len(), n);
            let kk = k.min(n);
            prop_assert!(labels.iter().all(|&l| l < kk));
            // Every label in 0..max is used (no gaps).
            let used = labels.iter().copied().collect::<std::collections::HashSet<_>>();
            prop_assert_eq!(used.len(), kk.min(used.len()).max(1).min(kk));
            let s = silhouette(&dm, &labels);
            prop_assert!((-1.0..=1.0).contains(&s), "silhouette {}", s);
        }
    }

    /// ARI is 1 for identical partitions, bounded by 1, and invariant to
    /// label permutation.
    #[test]
    fn ari_properties(labels in proptest::collection::vec(0usize..4, 4..30)) {
        use tsm_core::cluster::adjusted_rand_index;
        let ari = adjusted_rand_index(&labels, &labels);
        prop_assert!((ari - 1.0).abs() < 1e-9);
        let permuted: Vec<usize> = labels.iter().map(|&l| (l + 1) % 4).collect();
        let ari_p = adjusted_rand_index(&labels, &permuted);
        prop_assert!((ari_p - 1.0).abs() < 1e-9);
    }
}
