//! Per-parameter learning-dynamics diagnostics collected at
//! [`Optimizer::step`](crate::optim::Optimizer::step) time.
//!
//! Two concerns live here:
//!
//! * **Gradient telemetry** — when an optimizer carries a labelled
//!   [`StepDiagnostics`] and a telemetry sink is active, every step
//!   records per-layer histograms under the documented namespace:
//!   `grad_norm/<label>/<param>` (L2), `grad_linf/<label>/<param>`,
//!   `weight_norm/<label>/<param>`, and `update_ratio/<label>/<param>`
//!   (the L2 norm of the applied update divided by the pre-step weight
//!   norm — the classic "is my learning rate sane" gauge).
//! * **NaN/Inf watchdog** — every step screens the accumulated gradients
//!   for non-finite values *before* touching weights or optimizer state.
//!   A poisoned update is dropped (even with no diagnostics installed):
//!   the gradients are zeroed and the `watchdog/skipped_updates` /
//!   `watchdog/nonfinite_grads` counters bumped, so long headless runs
//!   survive one bad batch.
//!
//! The screening pass costs one read over the gradients. The paper's
//! networks are tiny (hidden dimension 32, Table I), so this is noise
//! next to the backward pass itself.

use crate::graph::{zero_grads, Parameter};
use hero_telemetry as telemetry;

/// Optimizer-attached diagnostics: the metric label per-layer gradient
/// telemetry records under.
///
/// Attach with
/// [`Optimizer::set_diagnostics`](crate::optim::Optimizer::set_diagnostics):
///
/// ```
/// use hero_autograd::diagnostics::StepDiagnostics;
/// use hero_autograd::nn::{Activation, Mlp, Module};
/// use hero_autograd::optim::{Adam, Optimizer};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = Mlp::new("actor", &[4, 8, 2], Activation::Tanh, &mut rng);
/// let mut opt = Adam::new(net.parameters(), 1e-3);
/// opt.set_diagnostics(StepDiagnostics::named("actor"));
/// ```
#[derive(Clone, Debug)]
pub struct StepDiagnostics {
    label: String,
}

impl StepDiagnostics {
    /// Diagnostics reporting under `label` (e.g. `"actor"`).
    pub fn named(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
        }
    }

    /// The metric-namespace label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Point-in-time health statistics for one parameter's gradient.
#[derive(Clone, Debug, PartialEq)]
pub struct GradHealth {
    /// Parameter name (e.g. `hero.actor.l0.weight`).
    pub name: String,
    /// Parameter shape.
    pub shape: Vec<usize>,
    /// L2 norm over the finite gradient entries.
    pub grad_l2: f64,
    /// L∞ norm (max |g|) over the finite gradient entries.
    pub grad_linf: f64,
    /// L2 norm of the current weights.
    pub weight_l2: f64,
    /// Number of NaN/Inf gradient entries.
    pub nonfinite: u64,
}

fn l2(data: &[f32]) -> f64 {
    data.iter()
        .map(|&x| {
            let x = x as f64;
            x * x
        })
        .sum::<f64>()
        .sqrt()
}

/// Computes [`GradHealth`] for one parameter. Non-finite entries are
/// counted and excluded from the norms, so the dump itself stays finite.
pub fn grad_health(p: &Parameter) -> GradHealth {
    let mut sq = 0.0f64;
    let mut linf = 0.0f64;
    let mut nonfinite = 0u64;
    for &g in p.grad().data() {
        if g.is_finite() {
            let g = g as f64;
            sq += g * g;
            linf = linf.max(g.abs());
        } else {
            nonfinite += 1;
        }
    }
    GradHealth {
        name: p.name().to_string(),
        shape: p.shape(),
        grad_l2: sq.sqrt(),
        grad_linf: linf,
        weight_l2: l2(p.value().data()),
        nonfinite,
    }
}

/// Carries pre-step weight copies from [`pre_step`] to [`post_step`] so
/// the update-to-weight ratio can be measured on the weights actually
/// written. Empty (and free) unless per-layer recording is active.
#[derive(Debug, Default)]
pub struct StepProbe {
    label: Option<String>,
    pre_weights: Vec<Vec<f32>>,
}

/// Outcome of the pre-step gradient screen.
#[derive(Debug)]
pub enum StepScreen {
    /// Gradients are finite; the optimizer must apply the update and then
    /// call [`post_step`] with the probe.
    Proceed(StepProbe),
    /// Non-finite gradients were found: the gradients have been zeroed
    /// and the counters bumped. The optimizer must return without
    /// touching weights or its own state.
    Skip,
}

/// Screens `params` before an optimizer applies an update.
///
/// This is the single non-finite-gradient code path shared by every
/// optimizer: even with `diag == None` a poisoned gradient is skipped,
/// never silently applied. With a labelled `diag` and an active
/// telemetry sink, per-layer gradient/weight norms are also recorded and
/// a [`StepProbe`] with pre-step weight copies is returned for
/// [`post_step`].
pub fn pre_step(params: &[Parameter], diag: Option<&StepDiagnostics>) -> StepScreen {
    let recording = diag.is_some() && telemetry::is_enabled();

    let mut nonfinite_total = 0u64;
    let health: Option<Vec<GradHealth>> = if recording {
        let health: Vec<GradHealth> = params.iter().map(grad_health).collect();
        nonfinite_total = health.iter().map(|h| h.nonfinite).sum();
        Some(health)
    } else {
        for p in params {
            nonfinite_total += p.grad().data().iter().filter(|g| !g.is_finite()).count() as u64;
        }
        None
    };

    if nonfinite_total > 0 {
        zero_grads(params);
        telemetry::counter_add("watchdog/skipped_updates", 1);
        telemetry::counter_add("watchdog/nonfinite_grads", nonfinite_total);
        // The flight recorder wants an ordinal; the nth skip in this
        // process is the best one available this deep in the optimizer
        // (the trainer's update counter lives upstream).
        static SKIPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        telemetry::flight_event(telemetry::FlightEventKind::WatchdogSkip {
            update: SKIPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        });
        return StepScreen::Skip;
    }

    if !recording {
        return StepScreen::Proceed(StepProbe::default());
    }
    let label = diag.expect("recording implies diag").label().to_string();
    for h in health.as_deref().unwrap_or(&[]) {
        telemetry::observe_dyn(&format!("grad_norm/{label}/{}", h.name), h.grad_l2);
        telemetry::observe_dyn(&format!("grad_linf/{label}/{}", h.name), h.grad_linf);
        telemetry::observe_dyn(&format!("weight_norm/{label}/{}", h.name), h.weight_l2);
    }
    let pre_weights = params.iter().map(|p| p.value().data().to_vec()).collect();
    StepScreen::Proceed(StepProbe {
        label: Some(label),
        pre_weights,
    })
}

/// Records the update-to-weight ratio for each parameter after the
/// optimizer wrote the new weights. No-op for a probe from an unlabelled
/// or telemetry-disabled [`pre_step`].
pub fn post_step(params: &[Parameter], probe: &StepProbe) {
    let Some(label) = &probe.label else { return };
    for (p, pre) in params.iter().zip(&probe.pre_weights) {
        let value = p.value();
        let post = value.data();
        let mut delta_sq = 0.0f64;
        for (&after, &before) in post.iter().zip(pre.iter()) {
            let d = after as f64 - before as f64;
            delta_sq += d * d;
        }
        let ratio = delta_sq.sqrt() / (l2(pre) + 1e-12);
        drop(value);
        telemetry::observe_dyn(&format!("update_ratio/{label}/{}", p.name()), ratio);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::tensor::Tensor;

    /// Seeds every gradient entry of `p` with NaN via a real backward pass.
    fn poison_grad(p: &Parameter) {
        let mut g = Graph::new();
        let pn = g.param(p);
        let scaled = g.scale(pn, f32::NAN);
        let loss = g.sum(scaled);
        g.backward(loss);
    }

    /// Seeds grad = each entry of `seed` via d/dp sum(p * seed).
    fn seed_grad(p: &Parameter, seed: &[f32]) {
        let mut g = Graph::new();
        let pn = g.param(p);
        let x = g.input(Tensor::from_slice(seed));
        let prod = g.mul(pn, x);
        let loss = g.sum(prod);
        g.backward(loss);
    }

    #[test]
    fn grad_health_matches_reference() {
        let p = Parameter::new("w", Tensor::from_slice(&[3.0, 4.0]));
        seed_grad(&p, &[1.0, -2.0]);
        let h = grad_health(&p);
        assert_eq!(h.name, "w");
        assert!((h.grad_l2 - (5.0f64).sqrt()).abs() < 1e-6);
        assert!((h.grad_linf - 2.0).abs() < 1e-6);
        assert!((h.weight_l2 - 5.0).abs() < 1e-6);
        assert_eq!(h.nonfinite, 0);
    }

    #[test]
    fn grad_health_counts_nonfinite_and_stays_finite() {
        let p = Parameter::new("w", Tensor::from_slice(&[1.0, 1.0, 1.0]));
        poison_grad(&p);
        let h = grad_health(&p);
        assert_eq!(h.nonfinite, 3);
        assert!(h.grad_l2.is_finite());
        assert!(h.grad_linf.is_finite());
    }

    #[test]
    fn skip_screen_zeroes_grads_and_counts() {
        let _t = telemetry::scoped(telemetry::TelemetryConfig::default());
        let p = Parameter::new("w", Tensor::from_slice(&[1.0, 2.0]));
        poison_grad(&p);
        match pre_step(std::slice::from_ref(&p), None) {
            StepScreen::Skip => {}
            other => panic!("expected Skip, got {other:?}"),
        }
        assert!(p.grad().data().iter().all(|&g| g == 0.0));
        let snap = telemetry::snapshot().unwrap();
        assert_eq!(snap.counters["watchdog/skipped_updates"].total, 1);
        assert_eq!(snap.counters["watchdog/nonfinite_grads"].total, 2);
    }

    #[test]
    fn labelled_step_records_per_layer_histograms() {
        let t = telemetry::scoped(telemetry::TelemetryConfig::default());
        let p = Parameter::new("w", Tensor::from_slice(&[3.0, 4.0]));
        seed_grad(&p, &[0.6, 0.8]);
        let diag = StepDiagnostics::named("actor");
        let probe = match pre_step(std::slice::from_ref(&p), Some(&diag)) {
            StepScreen::Proceed(probe) => probe,
            StepScreen::Skip => panic!("clean grads must proceed"),
        };
        // Emulate an optimizer writing an update of known L2 norm 0.5.
        p.apply_update(|value, _| {
            value.data_mut()[0] += 0.3;
            value.data_mut()[1] -= 0.4;
        });
        post_step(std::slice::from_ref(&p), &probe);
        let snap = t.snapshot();
        assert!((snap.values["grad_norm/actor/w"].mean - 1.0).abs() < 1e-6);
        assert!((snap.values["grad_linf/actor/w"].mean - 0.8).abs() < 1e-6);
        assert!((snap.values["weight_norm/actor/w"].mean - 5.0).abs() < 1e-6);
        assert!((snap.values["update_ratio/actor/w"].mean - 0.1).abs() < 1e-6);
    }

    #[test]
    fn unlabelled_probe_is_free_and_silent() {
        let t = telemetry::scoped(telemetry::TelemetryConfig::default());
        let p = Parameter::new("w", Tensor::from_slice(&[1.0]));
        seed_grad(&p, &[1.0]);
        let probe = match pre_step(std::slice::from_ref(&p), None) {
            StepScreen::Proceed(probe) => probe,
            StepScreen::Skip => panic!("clean grads must proceed"),
        };
        assert!(probe.pre_weights.is_empty());
        post_step(std::slice::from_ref(&p), &probe);
        assert!(t.snapshot().values.is_empty());
    }
}
