//! COMA — counterfactual multi-agent policy gradients (Foerster et al.,
//! 2018). A single centralized critic estimates `Q(s, (u^{-i}, ·))` for
//! every action of agent `i`; the actor gradient uses the counterfactual
//! advantage `A_i = Q(s, u_i) − Σ_a π_i(a|o_i)·Q(s, a)`, which solves the
//! multi-agent credit-assignment problem without per-agent critics.
//!
//! COMA is on-policy: transitions collected since the last update are
//! consumed in one batched gradient pass and then discarded.

use hero_autograd::nn::{Activation, Mlp, Module};
use hero_autograd::optim::{Adam, Optimizer};
use hero_autograd::{loss, Graph, Parameter, Tensor, TensorPool};
use rand::rngs::StdRng;

use hero_rl::explore::greedy;
use hero_rl::rng::{sample_from_logits, softmax};
use hero_rl::target::{hard_update, soft_update};
use hero_rl::transition::JointTransition;

use crate::common::{column, stack_owned, MultiAgentAlgorithm, UpdateStats};

/// COMA hyper-parameters (defaults follow the paper's Table I).
#[derive(Clone, Copy, Debug)]
pub struct ComaConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Learning rate for actor and critic.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Polyak rate τ for the critic target.
    pub tau: f32,
    /// Entropy regularization weight on the actor.
    pub entropy_coef: f32,
    /// Minimum stored transitions before an update runs.
    pub min_batch: usize,
}

impl Default for ComaConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            lr: 0.01,
            gamma: 0.95,
            tau: 0.01,
            entropy_coef: 0.01,
            min_batch: 32,
        }
    }
}

/// The COMA learner: a shared actor (conditioned on an agent one-hot) and
/// one centralized critic.
pub struct Coma {
    actor: Mlp,
    critic: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    episode_buffer: Vec<JointTransition<usize>>,
    cfg: ComaConfig,
    n_agents: usize,
    obs_dim: usize,
    n_actions: usize,
    /// Buffers of the inference passes.
    pool: TensorPool,
}

impl Coma {
    /// Creates a learner for `n_agents` agents with `obs_dim` local
    /// observations and `n_actions` discrete actions each.
    pub fn new(
        n_agents: usize,
        obs_dim: usize,
        n_actions: usize,
        cfg: ComaConfig,
        rng: &mut StdRng,
    ) -> Self {
        let actor_dims = [obs_dim + n_agents, cfg.hidden, cfg.hidden, n_actions];
        let critic_in = n_agents * obs_dim + n_agents + (n_agents - 1) * n_actions;
        let critic_dims = [critic_in, cfg.hidden, cfg.hidden, n_actions];
        let actor = Mlp::new("coma.actor", &actor_dims, Activation::Relu, rng);
        let critic = Mlp::new("coma.critic", &critic_dims, Activation::Relu, rng);
        let critic_target = Mlp::new("coma.critic_t", &critic_dims, Activation::Relu, rng);
        hard_update(&critic.parameters(), &critic_target.parameters());
        let actor_opt = Adam::new(actor.parameters(), cfg.lr);
        let critic_opt = Adam::new(critic.parameters(), cfg.lr);
        Self {
            actor,
            critic,
            critic_target,
            actor_opt,
            critic_opt,
            episode_buffer: Vec::new(),
            cfg,
            n_agents,
            obs_dim,
            n_actions,
            pool: TensorPool::new(),
        }
    }

    /// Transitions waiting for the next on-policy update.
    pub fn pending(&self) -> usize {
        self.episode_buffer.len()
    }

    /// Trainable parameters (actor then critic) for checkpointing.
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut p = self.actor.parameters();
        p.extend(self.critic.parameters());
        p
    }

    fn actor_input(&self, agent: usize, obs: &[f32]) -> Vec<f32> {
        let mut v = obs.to_vec();
        for j in 0..self.n_agents {
            v.push(if j == agent { 1.0 } else { 0.0 });
        }
        v
    }

    /// Policy logits of `agent` for a local observation.
    pub fn logits(&mut self, agent: usize, obs: &[f32]) -> Vec<f32> {
        let input = self.actor_input(agent, obs);
        let x = Tensor::from_vec(vec![1, input.len()], input);
        self.actor.infer_in(&x, &mut self.pool).into_data()
    }

    fn critic_input(&self, agent: usize, t: &JointTransition<usize>, use_next: bool) -> Vec<f32> {
        let obs = if use_next { &t.next_obs } else { &t.obs };
        let mut v = Vec::with_capacity(
            self.n_agents * self.obs_dim + self.n_agents + (self.n_agents - 1) * self.n_actions,
        );
        for o in obs {
            v.extend_from_slice(o);
        }
        for j in 0..self.n_agents {
            v.push(if j == agent { 1.0 } else { 0.0 });
        }
        for (j, &a) in t.actions.iter().enumerate() {
            if j == agent {
                continue;
            }
            for k in 0..self.n_actions {
                v.push(if k == a { 1.0 } else { 0.0 });
            }
        }
        v
    }
}

impl MultiAgentAlgorithm for Coma {
    fn num_agents(&self) -> usize {
        self.n_agents
    }

    fn name(&self) -> &'static str {
        "COMA"
    }

    fn act(&mut self, obs: &[Vec<f32>], rng: &mut StdRng, explore: bool) -> Vec<usize> {
        obs.iter()
            .enumerate()
            .map(|(i, o)| {
                let logits = self.logits(i, o);
                if explore {
                    sample_from_logits(rng, &logits)
                } else {
                    greedy(&logits)
                }
            })
            .collect()
    }

    fn observe(&mut self, transition: JointTransition<usize>) {
        self.episode_buffer.push(transition);
    }

    fn update(&mut self, _rng: &mut StdRng) -> Option<UpdateStats> {
        if self.episode_buffer.len() < self.cfg.min_batch {
            return None;
        }
        let batch = std::mem::take(&mut self.episode_buffer);
        let n = batch.len();
        let mut critic_total = 0.0;
        let mut actor_total = 0.0;

        for i in 0..self.n_agents {
            // Q_target(s', ·) under the *stored* next joint context — the
            // expected SARSA target over agent i's current policy.
            let next_inputs: Vec<Vec<f32>> = batch
                .iter()
                .map(|t| self.critic_input(i, t, true))
                .collect();
            let next_x = stack_owned(&next_inputs);
            let next_q = self.critic_target.infer_in(&next_x, &mut self.pool);
            let targets: Vec<f32> = batch
                .iter()
                .enumerate()
                .map(|(row, t)| {
                    if t.done {
                        return t.rewards[i];
                    }
                    let probs = softmax(&self.logits(i, &t.next_obs[i]));
                    let expected: f32 = probs
                        .iter()
                        .zip(next_q.row(row))
                        .map(|(p, q)| p * q)
                        .sum();
                    t.rewards[i] + self.cfg.gamma * expected
                })
                .collect();

            // Critic regression on the taken actions.
            let taken: Vec<usize> = batch.iter().map(|t| t.actions[i]).collect();
            let q_all_values = {
                let inputs: Vec<Vec<f32>> = batch
                    .iter()
                    .map(|t| self.critic_input(i, t, false))
                    .collect();
                let mut g = Graph::new();
                let x = g.input(stack_owned(&inputs));
                let q_all = self.critic.forward(&mut g, x);
                let mask = g.input(Tensor::one_hot(&taken, self.n_actions));
                let picked = g.mul(q_all, mask);
                let q_u = g.sum_rows(picked);
                let y = g.input(column(&targets));
                let l = loss::mse(&mut g, q_u, y);
                critic_total += g.value(l).item();
                let q_values = g.value(q_all).clone();
                g.backward(l);
                self.critic_opt.step();
                q_values
            };

            // Counterfactual advantage with the (pre-update) critic values.
            let mut advantages = Vec::with_capacity(n);
            let mut actor_inputs = Vec::with_capacity(n);
            for (row, t) in batch.iter().enumerate() {
                let probs = softmax(&self.logits(i, &t.obs[i]));
                let qs = q_all_values.row(row);
                let baseline: f32 = probs.iter().zip(qs).map(|(p, q)| p * q).sum();
                advantages.push(qs[t.actions[i]] - baseline);
                actor_inputs.push(self.actor_input(i, &t.obs[i]));
            }

            // Policy-gradient step: −E[log π(u|o)·A] − entropy bonus.
            {
                let mut g = Graph::new();
                let x = g.input(stack_owned(&actor_inputs));
                let logits = self.actor.forward(&mut g, x);
                let logp = g.log_softmax(logits);
                let mask = g.input(Tensor::one_hot(&taken, self.n_actions));
                let picked = g.mul(logp, mask);
                let logp_u = g.sum_rows(picked);
                let adv = g.input(column(&advantages));
                let weighted = g.mul(logp_u, adv);
                let pg = g.mean(weighted);
                let pg_loss = g.neg(pg);
                let entropy = loss::categorical_entropy(&mut g, logits);
                let ent_term = g.scale(entropy, -self.cfg.entropy_coef);
                let l = g.add(pg_loss, ent_term);
                actor_total += g.value(l).item();
                g.backward(l);
                self.actor_opt.step();
                hero_autograd::zero_grads(self.critic_opt.parameters());
            }
        }

        soft_update(
            &self.critic.parameters(),
            &self.critic_target.parameters(),
            self.cfg.tau,
        );
        Some(UpdateStats {
            critic_loss: critic_total / self.n_agents as f32,
            actor_loss: actor_total / self.n_agents as f32,
        })
    }
}

impl std::fmt::Debug for Coma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Coma(agents={}, obs_dim={}, n_actions={})",
            self.n_agents, self.obs_dim, self.n_actions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_cfg() -> ComaConfig {
        ComaConfig {
            hidden: 16,
            min_batch: 16,
            ..ComaConfig::default()
        }
    }

    fn bandit(a0: usize, a1: usize) -> JointTransition<usize> {
        let r = if a0 == 1 && a1 == 1 { 1.0 } else { 0.0 };
        JointTransition {
            obs: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            actions: vec![a0, a1],
            rewards: vec![r, r],
            next_obs: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            done: true,
        }
    }

    #[test]
    fn update_requires_min_batch_and_clears_buffer() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut algo = Coma::new(2, 2, 2, small_cfg(), &mut rng);
        for _ in 0..10 {
            algo.observe(bandit(0, 0));
        }
        assert!(algo.update(&mut rng).is_none(), "below min batch");
        for _ in 0..10 {
            algo.observe(bandit(0, 0));
        }
        assert!(algo.update(&mut rng).is_some());
        assert_eq!(algo.pending(), 0, "on-policy data consumed");
    }

    #[test]
    fn learns_a_coordination_bandit() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut algo = Coma::new(2, 2, 2, small_cfg(), &mut rng);
        for _ in 0..800 {
            let obs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
            let acts = algo.act(&obs, &mut rng, true);
            algo.observe(bandit(acts[0], acts[1]));
            algo.update(&mut rng);
        }
        let greedy_acts = algo.act(&[vec![1.0, 0.0], vec![0.0, 1.0]], &mut rng, false);
        assert_eq!(greedy_acts, vec![1, 1]);
    }

    #[test]
    fn counterfactual_advantage_sums_to_zero_under_policy() {
        // By construction Σ_a π(a)·A(a) = 0; spot-check through public
        // pieces: advantage of the baseline action equals Q − baseline.
        let mut rng = StdRng::seed_from_u64(2);
        let mut algo = Coma::new(2, 2, 3, small_cfg(), &mut rng);
        let logits = algo.logits(0, &[0.5, -0.5]);
        let probs = softmax(&logits);
        let qs = [1.0f32, 2.0, 3.0];
        let baseline: f32 = probs.iter().zip(qs).map(|(p, q)| p * q).sum();
        let weighted_adv: f32 = probs
            .iter()
            .zip(qs)
            .map(|(p, q)| p * (q - baseline))
            .sum();
        assert!(weighted_adv.abs() < 1e-5);
    }

    #[test]
    fn act_valid_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut algo = Coma::new(3, 2, 4, small_cfg(), &mut rng);
        let obs = vec![vec![0.0, 0.0]; 3];
        for _ in 0..10 {
            let acts = algo.act(&obs, &mut rng, true);
            assert!(acts.iter().all(|&a| a < 4));
        }
        assert_eq!(algo.name(), "COMA");
        assert_eq!(algo.num_agents(), 3);
    }
}
