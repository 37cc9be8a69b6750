//! Shared interfaces and batch helpers for all algorithms.

use hero_autograd::Tensor;
use rand::rngs::StdRng;

use hero_rl::transition::JointTransition;

/// Losses reported by one gradient update.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct UpdateStats {
    /// Critic (value) loss.
    pub critic_loss: f32,
    /// Actor (policy) loss, for actor–critic methods.
    pub actor_loss: f32,
}

/// Common interface of the multi-agent algorithms compared in the paper's
/// evaluation (Sec. V-A). All of them act in the discrete option space
/// `A_h = [keep lane, slow down, accelerate, lane change]`.
pub trait MultiAgentAlgorithm {
    /// Number of learning agents.
    fn num_agents(&self) -> usize;

    /// Short display name (`"DQN"`, `"COMA"`, …).
    fn name(&self) -> &'static str;

    /// Selects one discrete action per agent. With `explore` the
    /// algorithm's exploration strategy applies; without it the policy is
    /// greedy/deterministic.
    fn act(&mut self, obs: &[Vec<f32>], rng: &mut StdRng, explore: bool) -> Vec<usize>;

    /// Stores a joint transition for learning.
    fn observe(&mut self, transition: JointTransition<usize>);

    /// Runs one gradient update if enough experience is available.
    fn update(&mut self, rng: &mut StdRng) -> Option<UpdateStats>;
}

/// Stacks row slices into a `[rows.len(), d]` tensor.
///
/// # Panics
///
/// Panics when `rows` is empty or rows have unequal widths.
pub fn stack_rows(rows: &[&[f32]]) -> Tensor {
    assert!(!rows.is_empty(), "cannot stack zero rows");
    let d = rows[0].len();
    let mut data = Vec::with_capacity(rows.len() * d);
    for r in rows {
        assert_eq!(r.len(), d, "row width mismatch");
        data.extend_from_slice(r);
    }
    Tensor::from_vec(vec![rows.len(), d], data)
}

/// Stacks owned rows into a `[rows.len(), d]` tensor.
///
/// # Panics
///
/// Panics when `rows` is empty or rows have unequal widths.
pub fn stack_owned(rows: &[Vec<f32>]) -> Tensor {
    let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    stack_rows(&refs)
}

/// A `[n, 1]` column tensor.
pub fn column(values: &[f32]) -> Tensor {
    Tensor::from_vec(vec![values.len(), 1], values.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_rows_shapes() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let t = stack_rows(&[&a, &b]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn stack_rows_rejects_ragged() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32];
        stack_rows(&[&a, &b]);
    }

    #[test]
    fn column_shape() {
        assert_eq!(column(&[1.0, 2.0, 3.0]).shape(), &[3, 1]);
    }
}
