//! Loss-function subgraph builders.
//!
//! Each helper records the loss on a caller-supplied [`Graph`] and returns
//! the scalar node; gradients then flow through [`Graph::backward`].

use crate::graph::{Graph, NodeId};

/// Mean-squared error `mean((pred - target)^2)` between same-shaped nodes.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn mse(g: &mut Graph, pred: NodeId, target: NodeId) -> NodeId {
    let d = g.sub(pred, target);
    let sq = g.mul(d, d);
    g.mean(sq)
}

/// Negative log-likelihood of one-hot targets under `logits`:
/// `-mean(sum(one_hot * log_softmax(logits)))`.
///
/// `targets` must be a `[batch, classes]` one-hot (or soft-label) input
/// node matching the logits' shape.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn cross_entropy(g: &mut Graph, logits: NodeId, targets: NodeId) -> NodeId {
    let logp = g.log_softmax(logits);
    let picked = g.mul(logp, targets);
    let per_row = g.sum_rows(picked);
    let mean = g.mean(per_row);
    g.neg(mean)
}

/// Mean entropy of the categorical distributions given by row-wise
/// `logits`: `mean_i H(softmax(logits_i))`.
pub fn categorical_entropy(g: &mut Graph, logits: NodeId) -> NodeId {
    let p = g.softmax(logits);
    let logp = g.log_softmax(logits);
    let plogp = g.mul(p, logp);
    let row = g.sum_rows(plogp);
    let mean = g.mean(row);
    g.neg(mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn mse_zero_when_equal() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(vec![2, 1], vec![1.0, 2.0]));
        let b = g.input(Tensor::from_vec(vec![2, 1], vec![1.0, 2.0]));
        let l = mse(&mut g, a, b);
        assert_eq!(g.value(l).item(), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(vec![2, 1], vec![1.0, 2.0]));
        let b = g.input(Tensor::from_vec(vec![2, 1], vec![3.0, 2.0]));
        let l = mse(&mut g, a, b);
        assert_eq!(g.value(l).item(), 2.0); // ((2)^2 + 0)/2
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let mut g = Graph::new();
        let good = g.input(Tensor::from_vec(vec![1, 3], vec![10.0, 0.0, 0.0]));
        let bad = g.input(Tensor::from_vec(vec![1, 3], vec![0.0, 10.0, 0.0]));
        let targets = g.input(Tensor::one_hot(&[0], 3));
        let lg = cross_entropy(&mut g, good, targets);
        let targets2 = g.input(Tensor::one_hot(&[0], 3));
        let lb = cross_entropy(&mut g, bad, targets2);
        assert!(g.value(lg).item() < g.value(lb).item());
    }

    #[test]
    fn entropy_max_for_uniform_logits() {
        let mut g = Graph::new();
        let uniform = g.input(Tensor::zeros(vec![1, 4]));
        let peaked = g.input(Tensor::from_vec(vec![1, 4], vec![10.0, 0.0, 0.0, 0.0]));
        let hu = categorical_entropy(&mut g, uniform);
        let hp = categorical_entropy(&mut g, peaked);
        assert!((g.value(hu).item() - (4.0f32).ln()).abs() < 1e-4);
        assert!(g.value(hp).item() < g.value(hu).item());
    }
}
