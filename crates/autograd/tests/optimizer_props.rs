//! Property tests for the optimizers and checkpoint robustness.

use hero_autograd::optim::{clip_grad_norm, Adam, Optimizer};
use hero_autograd::serialize::{load_params, save_params};
use hero_autograd::{CheckpointError, Graph, Parameter, Tensor};
use proptest::prelude::*;

/// One gradient step of `loss(p) = ||p − target||²`.
fn quadratic_grad(p: &Parameter, target: &[f32]) -> f32 {
    let mut g = Graph::new();
    let pn = g.param(p);
    let t = g.input(Tensor::from_vec(vec![1, target.len()], target.to_vec()));
    let d = g.sub(pn, t);
    let sq = g.mul(d, d);
    let loss = g.sum(sq);
    let v = g.value(loss).item();
    g.backward(loss);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adam converges to the quadratic's minimum from any start.
    fn adam_converges_on_quadratic(
        start in prop::collection::vec(-3.0f32..3.0, 3),
        target in prop::collection::vec(-3.0f32..3.0, 3),
    ) {
        let p = Parameter::new("p", Tensor::from_vec(vec![1, 3], start));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        for _ in 0..400 {
            quadratic_grad(&p, &target);
            opt.step();
        }
        for (v, t) in p.value().data().iter().zip(&target) {
            prop_assert!((v - t).abs() < 0.1, "{v} vs {t}");
        }
    }

    /// After clipping, the global gradient norm never exceeds the bound.
    fn clip_bounds_global_norm(
        grads in prop::collection::vec(-50.0f32..50.0, 4),
        max_norm in 0.1f32..5.0,
    ) {
        let p = Parameter::new("p", Tensor::zeros(vec![1, 4]));
        // Seed gradients through a weighted-sum graph.
        let mut g = Graph::new();
        let pn = g.param(&p);
        let w = g.input(Tensor::from_vec(vec![1, 4], grads));
        let prod = g.mul(pn, w);
        let loss = g.sum(prod);
        g.backward(loss);
        clip_grad_norm(&[p.clone()], max_norm);
        let norm: f32 = p.grad().data().iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm <= max_norm + 1e-3, "norm {norm} > {max_norm}");
    }

    /// Loading a truncated checkpoint reports a typed corruption error
    /// (a truncated v2 file usually fails its CRC footer check) — never a
    /// panic and never silent success.
    fn truncated_checkpoints_fail_loudly(cut_fraction in 0.05f32..0.95) {
        let p = Parameter::new("weights", Tensor::from_vec(
            vec![4, 4],
            (0..16).map(|v| v as f32).collect(),
        ));
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "hero_truncate_{}_{}.bin",
            std::process::id(),
            (cut_fraction * 1000.0) as u32
        ));
        save_params(&path, &[p.clone()]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f32 * cut_fraction) as usize).max(4);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let fresh = Parameter::new("weights", Tensor::zeros(vec![4, 4]));
        let err = load_params(&path, &[fresh]).unwrap_err();
        prop_assert!(matches!(
            err,
            CheckpointError::Truncated
                | CheckpointError::ParameterMismatch { .. }
                | CheckpointError::CorruptedCrc { .. }
                | CheckpointError::Malformed(_)
        ), "unexpected error: {err}");
        std::fs::remove_file(path).ok();
    }
}
