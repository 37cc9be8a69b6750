//! Property tests for the step-diagnostics layer: gradient statistics
//! against a naive f64 reference, and update-to-weight ratio invariants.

use hero_autograd::diagnostics::{grad_health, StepDiagnostics};
use hero_autograd::optim::{Adam, Optimizer};
use hero_autograd::{Graph, Parameter, Tensor};
use hero_telemetry as telemetry;
use proptest::prelude::*;

/// Seeds `p`'s gradient with exactly `seed` via `d/dp sum(p ⊙ seed)`.
fn seed_grad(p: &Parameter, seed: &[f32]) {
    let mut g = Graph::new();
    let pn = g.param(p);
    let x = g.input(Tensor::from_vec(vec![1, seed.len()], seed.to_vec()));
    let prod = g.mul(pn, x);
    let loss = g.sum(prod);
    g.backward(loss);
}

fn naive_l2(xs: &[f32]) -> f64 {
    xs.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// grad_health norms match a naive f64 reference over random tensors.
    fn grad_norms_match_naive_reference(
        weights in prop::collection::vec(-10.0f32..10.0, 1..24),
        grads in prop::collection::vec(-10.0f32..10.0, 1..24),
    ) {
        let n = weights.len().min(grads.len());
        let (weights, grads) = (&weights[..n], &grads[..n]);
        let p = Parameter::new("w", Tensor::from_vec(vec![1, n], weights.to_vec()));
        seed_grad(&p, grads);
        let h = grad_health(&p);
        let ref_l2 = naive_l2(grads);
        let ref_linf = grads.iter().fold(0.0f64, |m, &g| m.max((g as f64).abs()));
        prop_assert!((h.grad_l2 - ref_l2).abs() <= 1e-4 * (1.0 + ref_l2), "{} vs {ref_l2}", h.grad_l2);
        prop_assert!((h.grad_linf - ref_linf).abs() <= 1e-5 * (1.0 + ref_linf));
        let ref_w = naive_l2(weights);
        prop_assert!((h.weight_l2 - ref_w).abs() <= 1e-4 * (1.0 + ref_w));
        prop_assert_eq!(h.nonfinite, 0);
    }

    /// Non-finite entries are counted exactly and excluded from the norms.
    fn nonfinite_counted_and_excluded(
        grads in prop::collection::vec(-5.0f32..5.0, 1..24),
        stride in 1usize..5,
    ) {
        // Every `stride`-th entry becomes NaN.
        let realized: Vec<f32> = grads
            .iter()
            .enumerate()
            .map(|(i, &g)| if i % stride == 0 { f32::NAN } else { g })
            .collect();
        let p = Parameter::new("w", Tensor::from_vec(vec![1, realized.len()], vec![1.0; realized.len()]));
        seed_grad(&p, &realized);
        let h = grad_health(&p);
        let finite: Vec<f32> = realized.iter().copied().filter(|g| g.is_finite()).collect();
        prop_assert_eq!(h.nonfinite, (realized.len() - finite.len()) as u64);
        let ref_l2 = naive_l2(&finite);
        prop_assert!(h.grad_l2.is_finite());
        prop_assert!((h.grad_l2 - ref_l2).abs() <= 1e-4 * (1.0 + ref_l2));
    }

    /// The recorded update-to-weight ratio is the measured change in the
    /// weights over their pre-step norm, `‖w_post − w_pre‖ / ‖w_pre‖`, for
    /// the update Adam actually wrote — and is always finite and
    /// non-negative.
    fn adam_update_ratio_matches_the_measured_weight_change(
        weights in prop::collection::vec(0.5f32..8.0, 2..12),
        grads in prop::collection::vec(-4.0f32..4.0, 2..12),
        lr in 1e-4f32..0.5,
    ) {
        let n = weights.len().min(grads.len());
        let (weights, grads) = (&weights[..n], &grads[..n]);
        let t = telemetry::scoped(telemetry::TelemetryConfig::default());
        let p = Parameter::new("w", Tensor::from_vec(vec![1, n], weights.to_vec()));
        let mut opt = Adam::new(vec![p.clone()], lr);
        opt.set_diagnostics(StepDiagnostics::named("prop"));
        seed_grad(&p, grads);
        opt.step();
        let snap = t.snapshot();
        let ratio = snap.values["update_ratio/prop/w"].mean;
        prop_assert!(ratio.is_finite() && ratio >= 0.0);
        let delta_l2 = p
            .value()
            .data()
            .iter()
            .zip(weights)
            .map(|(&after, &before)| (after as f64 - before as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        let expected = delta_l2 / naive_l2(weights);
        prop_assert!(
            (ratio - expected).abs() <= 1e-3 * (1.0 + expected),
            "ratio {ratio} vs expected {expected}"
        );
        // The same step also recorded the matching grad/weight norms.
        let gn = snap.values["grad_norm/prop/w"].mean;
        prop_assert!((gn - naive_l2(grads)).abs() <= 1e-4 * (1.0 + naive_l2(grads)));
    }
}
