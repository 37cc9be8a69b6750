//! Gradient-descent optimizers operating on shared [`Parameter`]s.
//!
//! An optimizer owns an ordered list of parameter handles plus any per-
//! parameter state (Adam moments). The usual loop is: build a graph, call
//! [`Graph::backward`](crate::Graph::backward), then [`Optimizer::step`]
//! (which consumes and zeroes the accumulated gradients).

use crate::diagnostics::{self, StepDiagnostics, StepScreen};
use crate::error::CheckpointError;
use crate::graph::Parameter;

/// A snapshot of an optimizer's mutable state, sufficient to resume
/// training bit-identically: kind tag, step counter `t` (Adam bias
/// correction), learning rate, and per-slot per-parameter buffers
/// (Adam: `[m, v]`).
///
/// Serialized via [`crate::serialize::encode_optimizer`] /
/// [`crate::serialize::decode_optimizer`].
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizerState {
    /// `"adam"`, the only optimizer.
    pub kind: String,
    /// Number of applied (non-skipped) steps.
    pub t: u64,
    /// Learning rate at capture time.
    pub lr: f32,
    /// State buffers: `slots[slot][param][element]`.
    pub slots: Vec<Vec<Vec<f32>>>,
}

/// The kind tag of Adam state, the only optimizer state there is.
pub(crate) const ADAM_KIND: &str = "adam";
/// Adam's state slots: `m` and `v`.
pub(crate) const ADAM_SLOTS: usize = 2;

impl OptimizerState {
    /// Checks that this is Adam state with one `m` and one `v` buffer per
    /// parameter of `params`, each the parameter's size.
    fn check_adam(&self, params: &[Parameter]) -> Result<(), CheckpointError> {
        if self.kind != ADAM_KIND {
            return Err(CheckpointError::ParameterMismatch {
                expected: format!("{ADAM_KIND} optimizer state"),
                found: format!("{} optimizer state", self.kind),
            });
        }
        if self.slots.len() != ADAM_SLOTS {
            return Err(CheckpointError::ParameterMismatch {
                expected: format!("{ADAM_SLOTS} state slots"),
                found: format!("{} state slots", self.slots.len()),
            });
        }
        for slot in &self.slots {
            if slot.len() != params.len() {
                return Err(CheckpointError::ParameterMismatch {
                    expected: format!("{} parameter buffers", params.len()),
                    found: format!("{} parameter buffers", slot.len()),
                });
            }
            for (buf, p) in slot.iter().zip(params) {
                if buf.len() != p.len() {
                    return Err(CheckpointError::ParameterMismatch {
                        expected: format!("{} with {} elements", p.name(), p.len()),
                        found: format!("buffer with {} elements", buf.len()),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The optimizer interface. [`Adam`] is its one implementation.
pub trait Optimizer {
    /// Applies one update from the accumulated gradients, then zeroes them.
    ///
    /// Every step is screened through one shared watchdog code path
    /// ([`diagnostics::pre_step`]): non-finite gradients are never applied.
    /// A poisoned update is dropped — weights *and* optimizer state (Adam
    /// moments and step count) stay untouched — and counted under
    /// `watchdog/*`.
    fn step(&mut self);

    /// The parameters this optimizer updates.
    fn parameters(&self) -> &[Parameter];

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Attaches per-step diagnostics: a metric label for per-layer
    /// gradient telemetry.
    fn set_diagnostics(&mut self, diag: StepDiagnostics);

    /// The attached diagnostics, if any.
    fn diagnostics(&self) -> Option<&StepDiagnostics>;
}

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Debug)]
pub struct Adam {
    params: Vec<Parameter>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    diag: Option<StepDiagnostics>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard betas `(0.9, 0.999)`.
    pub fn new(params: Vec<Parameter>, lr: f32) -> Self {
        Self::with_betas(params, lr, 0.9, 0.999)
    }

    /// Creates an Adam optimizer with custom betas.
    pub fn with_betas(params: Vec<Parameter>, lr: f32, beta1: f32, beta2: f32) -> Self {
        let m = params.iter().map(|p| vec![0.0; p.len()]).collect();
        let v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        Self {
            params,
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m,
            v,
            diag: None,
        }
    }

    /// Captures the mutable state (step counter and both moment buffers)
    /// for checkpointing.
    pub fn export_state(&self) -> OptimizerState {
        OptimizerState {
            kind: ADAM_KIND.to_string(),
            t: self.t,
            lr: self.lr,
            slots: vec![self.m.clone(), self.v.clone()],
        }
    }

    /// Restores state captured by [`Adam::export_state`]. The buffer shapes
    /// must match this optimizer's parameters.
    pub fn import_state(&mut self, state: OptimizerState) -> Result<(), CheckpointError> {
        state.check_adam(&self.params)?;
        self.lr = state.lr;
        self.t = state.t;
        let mut slots = state.slots.into_iter();
        self.m = slots.next().unwrap();
        self.v = slots.next().unwrap();
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        let probe = match diagnostics::pre_step(&self.params, self.diag.as_ref()) {
            StepScreen::Proceed(probe) => probe,
            // A skipped step must not advance `t` either, or the bias
            // correction would drift from the moments actually written.
            StepScreen::Skip => return,
        };
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (p, (m, v)) in self.params.iter().zip(self.m.iter_mut().zip(&mut self.v)) {
            p.apply_update(|value, grad| {
                for (((val, g), mi), vi) in value
                    .data_mut()
                    .iter_mut()
                    .zip(grad.data())
                    .zip(m.iter_mut())
                    .zip(v.iter_mut())
                {
                    *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                    *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                    let m_hat = *mi / bc1;
                    let v_hat = *vi / bc2;
                    *val -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
                }
            });
            p.zero_grad();
        }
        diagnostics::post_step(&self.params, &probe);
    }

    fn parameters(&self) -> &[Parameter] {
        &self.params
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn set_diagnostics(&mut self, diag: StepDiagnostics) {
        self.diag = Some(diag);
    }

    fn diagnostics(&self) -> Option<&StepDiagnostics> {
        self.diag.as_ref()
    }
}

/// Rescales every gradient so the global L2 norm is at most `max_norm`.
/// Returns the norm observed before clipping.
pub fn clip_grad_norm(params: &[Parameter], max_norm: f32) -> f32 {
    let mut sq_sum = 0.0f32;
    for p in params {
        for g in p.grad().data() {
            sq_sum += g * g;
        }
    }
    let norm = sq_sum.sqrt();
    if norm > max_norm && norm > 0.0 {
        let factor = max_norm / norm;
        for p in params {
            p.scale_grad(factor);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::tensor::Tensor;

    /// loss(p) = (p - 3)^2 has its minimum at p = 3.
    fn quadratic_step(p: &Parameter) -> f32 {
        let mut g = Graph::new();
        let pn = g.param(p);
        let target = g.input(Tensor::from_vec(vec![1, 1], vec![3.0]));
        let d = g.sub(pn, target);
        let sq = g.mul(d, d);
        let loss = g.sum(sq);
        let out = g.value(loss).item();
        g.backward(loss);
        out
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = Parameter::new("p", Tensor::from_vec(vec![1, 1], vec![0.0]));
        let mut opt = Adam::new(vec![p.clone()], 0.2);
        for _ in 0..200 {
            quadratic_step(&p);
            opt.step();
        }
        assert!((p.value().item() - 3.0).abs() < 1e-2);
    }

    #[test]
    fn step_zeroes_gradients() {
        let p = Parameter::new("p", Tensor::from_vec(vec![1, 1], vec![0.0]));
        let mut opt = Adam::new(vec![p.clone()], 0.01);
        quadratic_step(&p);
        assert!(p.grad().item() != 0.0);
        opt.step();
        assert_eq!(p.grad().item(), 0.0);
    }

    #[test]
    fn clip_grad_norm_bounds_norm() {
        let p = Parameter::new("p", Tensor::from_slice(&[0.0, 0.0]));
        p.apply_update(|_, _| {});
        // Manually seed a large gradient via a graph.
        let mut g = Graph::new();
        let pn = g.param(&p);
        let scaled = g.scale(pn, 100.0);
        let loss = g.sum(scaled);
        g.backward(loss);
        let before = clip_grad_norm(&[p.clone()], 1.0);
        assert!(before > 1.0);
        let after: f32 = p.grad().data().iter().map(|g| g * g).sum::<f32>().sqrt();
        assert!((after - 1.0).abs() < 1e-4);
    }

    /// Seeds every gradient entry with NaN via a real backward pass.
    fn poison_grad(p: &Parameter) {
        let mut g = Graph::new();
        let pn = g.param(p);
        let scaled = g.scale(pn, f32::NAN);
        let loss = g.sum(scaled);
        g.backward(loss);
    }

    #[test]
    fn nan_grad_never_corrupts_weights_in_skip_mode() {
        // Even with no diagnostics attached: Skip is the default path.
        let p = Parameter::new("p", Tensor::from_slice(&[1.0, -2.0]));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        poison_grad(&p);
        opt.step();
        assert_eq!(p.value().data(), &[1.0, -2.0], "weights untouched");
        assert_eq!(p.grad().data(), &[0.0, 0.0], "poisoned grads cleared");
        // The optimizer must still work afterwards: loss = sum(p)
        // gives grad = 1 per element.
        let mut g = Graph::new();
        let pn = g.param(&p);
        let loss = g.sum(pn);
        g.backward(loss);
        opt.step();
        assert!(p.value().data()[0] != 1.0, "clean step still applies");
        assert!(p.value().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn adam_skipped_step_does_not_advance_bias_correction() {
        // Two optimizers over identical params; one sees a poisoned step
        // first. After one identical clean step each, the updates must be
        // bit-identical — i.e. `t`/moments were untouched by the skip.
        let a = Parameter::new("a", Tensor::from_vec(vec![1, 1], vec![0.0]));
        let b = Parameter::new("b", Tensor::from_vec(vec![1, 1], vec![0.0]));
        let mut opt_a = Adam::new(vec![a.clone()], 0.2);
        let mut opt_b = Adam::new(vec![b.clone()], 0.2);
        poison_grad(&a);
        opt_a.step(); // skipped
        quadratic_step(&a);
        opt_a.step();
        quadratic_step(&b);
        opt_b.step();
        assert_eq!(a.value().item(), b.value().item());
    }

    #[test]
    fn diagnostics_accessors() {
        let p = Parameter::new("p", Tensor::from_slice(&[0.0]));
        let mut opt = Adam::new(vec![p], 0.1);
        assert!(opt.diagnostics().is_none());
        opt.set_diagnostics(crate::diagnostics::StepDiagnostics::named("actor"));
        assert_eq!(opt.diagnostics().unwrap().label(), "actor");
    }

    #[test]
    fn learning_rate_accessors() {
        let p = Parameter::new("p", Tensor::from_slice(&[0.0]));
        let mut opt = Adam::new(vec![p], 0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
