//! Independent Deep Q-learning — the paper's distributed (DTDE) baseline:
//! each agent trains its own Q-network from local observations and the
//! shared team reward, exploring with ε-greedy.

use hero_autograd::nn::{Activation, Mlp, Module};
use hero_autograd::optim::{Adam, Optimizer};
use hero_autograd::{Graph, Parameter, Tensor, TensorPool};
use rand::rngs::StdRng;

use hero_rl::buffer::ReplayBuffer;
use hero_rl::explore::{greedy, EpsilonGreedy};
use hero_rl::schedule::Schedule;
use hero_rl::target::soft_update;
use hero_rl::transition::{DiscreteTransition, JointTransition};

use crate::common::{column, stack_rows, MultiAgentAlgorithm, UpdateStats};

/// Hyper-parameters of one DQN agent (defaults follow the paper's
/// Table I).
#[derive(Clone, Copy, Debug)]
pub struct DqnConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Replay capacity.
    pub buffer_capacity: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Polyak rate τ for the target network.
    pub tau: f32,
    /// ε schedule over *action selections*.
    pub epsilon: Schedule,
    /// Minimum stored transitions before updates begin.
    pub warmup: usize,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            lr: 0.01,
            gamma: 0.95,
            buffer_capacity: 100_000,
            batch_size: 1024,
            tau: 0.01,
            epsilon: Schedule::Linear {
                start: 1.0,
                end: 0.05,
                steps: 20_000,
            },
            warmup: 256,
        }
    }
}

/// A single Q-learning agent.
#[derive(Debug)]
pub struct DqnAgent {
    q: Mlp,
    q_target: Mlp,
    opt: Adam,
    explore: EpsilonGreedy,
    buffer: ReplayBuffer<DiscreteTransition>,
    cfg: DqnConfig,
    n_actions: usize,
    /// Buffers of the inference passes.
    pool: TensorPool,
}

impl DqnAgent {
    /// Creates an agent for `obs_dim` observations and `n_actions`
    /// discrete actions.
    pub fn new(obs_dim: usize, n_actions: usize, cfg: DqnConfig, rng: &mut StdRng) -> Self {
        let dims = [obs_dim, cfg.hidden, cfg.hidden, n_actions];
        let q = Mlp::new("dqn.q", &dims, Activation::Relu, rng);
        let q_target = Mlp::new("dqn.q_target", &dims, Activation::Relu, rng);
        hero_rl::target::hard_update(&q.parameters(), &q_target.parameters());
        let opt = Adam::new(q.parameters(), cfg.lr);
        Self {
            q,
            q_target,
            opt,
            explore: EpsilonGreedy::new(cfg.epsilon),
            buffer: ReplayBuffer::new(cfg.buffer_capacity),
            cfg,
            n_actions,
            pool: TensorPool::new(),
        }
    }

    /// Q-values for one observation.
    pub fn q_values(&mut self, obs: &[f32]) -> Vec<f32> {
        let x = Tensor::from_vec(vec![1, obs.len()], obs.to_vec());
        self.q.infer_in(&x, &mut self.pool).into_data()
    }

    /// ε-greedy (or greedy) action selection.
    pub fn act(&mut self, obs: &[f32], rng: &mut StdRng, explore: bool) -> usize {
        let q = self.q_values(obs);
        if explore {
            self.explore.select(rng, &q)
        } else {
            greedy(&q)
        }
    }

    /// Stores a transition.
    pub fn observe(&mut self, t: DiscreteTransition) {
        self.buffer.push(t);
    }

    /// Number of stored transitions.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// One TD update on a uniformly sampled mini-batch; `None` before
    /// warm-up.
    pub fn update(&mut self, rng: &mut StdRng) -> Option<f32> {
        let need = self
            .cfg
            .warmup
            .max(self.cfg.batch_size.min(self.cfg.buffer_capacity));
        if self.buffer.len() < need {
            return None;
        }
        let batch = self.buffer.sample(rng, self.cfg.batch_size);
        let obs: Vec<&[f32]> = batch.iter().map(|t| t.obs.as_slice()).collect();
        let next: Vec<&[f32]> = batch.iter().map(|t| t.next_obs.as_slice()).collect();
        let actions: Vec<usize> = batch.iter().map(|t| t.action).collect();

        // TD target from the target network (no gradient).
        let next_q = self.q_target.infer_in(&stack_rows(&next), &mut self.pool);
        let targets: Vec<f32> = batch
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let row = next_q.row(i);
                let max_next = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                t.reward
                    + if t.done {
                        0.0
                    } else {
                        self.cfg.gamma * max_next
                    }
            })
            .collect();

        let mut g = Graph::new();
        let x = g.input(stack_rows(&obs));
        let q_all = self.q.forward(&mut g, x);
        let mask = g.input(Tensor::one_hot(&actions, self.n_actions));
        let picked = g.mul(q_all, mask);
        let q_sa = g.sum_rows(picked);
        let y = g.input(column(&targets));
        // Per-sample Huber: 0.5·clip(d)² + δ·relu(|d|−δ).
        let d = g.sub(q_sa, y);
        let clipped = g.clamp(d, -1.0, 1.0);
        let quad = g.mul(clipped, clipped);
        let quad = g.scale(quad, 0.5);
        let dn = g.neg(d);
        let rp = g.relu(d);
        let rn = g.relu(dn);
        let abs_d = g.add(rp, rn);
        let excess = g.add_scalar(abs_d, -1.0);
        let lin = g.relu(excess);
        let per_sample = g.add(quad, lin);
        let l = g.mean(per_sample);
        let value = g.value(l).item();
        g.backward(l);
        self.opt.step();
        soft_update(
            &self.q.parameters(),
            &self.q_target.parameters(),
            self.cfg.tau,
        );
        Some(value)
    }

    /// Trainable parameters (for checkpointing).
    pub fn parameters(&self) -> Vec<Parameter> {
        self.q.parameters()
    }
}

/// The multi-agent wrapper: one independent [`DqnAgent`] per agent.
#[derive(Debug)]
pub struct IndependentDqn {
    agents: Vec<DqnAgent>,
}

impl IndependentDqn {
    /// Creates `n_agents` independent learners.
    pub fn new(
        n_agents: usize,
        obs_dim: usize,
        n_actions: usize,
        cfg: DqnConfig,
        rng: &mut StdRng,
    ) -> Self {
        let agents = (0..n_agents)
            .map(|_| DqnAgent::new(obs_dim, n_actions, cfg, rng))
            .collect();
        Self { agents }
    }

    /// The underlying agents.
    pub fn agents(&self) -> &[DqnAgent] {
        &self.agents
    }
}

impl MultiAgentAlgorithm for IndependentDqn {
    fn num_agents(&self) -> usize {
        self.agents.len()
    }

    fn name(&self) -> &'static str {
        "DQN"
    }

    fn act(&mut self, obs: &[Vec<f32>], rng: &mut StdRng, explore: bool) -> Vec<usize> {
        self.agents
            .iter_mut()
            .zip(obs)
            .map(|(a, o)| a.act(o, rng, explore))
            .collect()
    }

    fn observe(&mut self, t: JointTransition<usize>) {
        for (i, agent) in self.agents.iter_mut().enumerate() {
            agent.observe(DiscreteTransition {
                obs: t.obs[i].clone(),
                action: t.actions[i],
                reward: t.rewards[i],
                next_obs: t.next_obs[i].clone(),
                done: t.done,
            });
        }
    }

    fn update(&mut self, rng: &mut StdRng) -> Option<UpdateStats> {
        let mut total = 0.0;
        let mut count = 0;
        for agent in &mut self.agents {
            if let Some(l) = agent.update(rng) {
                total += l;
                count += 1;
            }
        }
        (count > 0).then(|| UpdateStats {
            critic_loss: total / count as f32,
            actor_loss: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_cfg() -> DqnConfig {
        DqnConfig {
            batch_size: 16,
            warmup: 16,
            hidden: 16,
            lr: 0.02,
            epsilon: Schedule::Constant(0.2),
            ..DqnConfig::default()
        }
    }

    /// A 2-state chain: action 1 in state [1,0] yields reward 1.
    fn push_chain(agent: &mut DqnAgent) {
        for _ in 0..8 {
            agent.observe(DiscreteTransition {
                obs: vec![1.0, 0.0],
                action: 1,
                reward: 1.0,
                next_obs: vec![0.0, 1.0],
                done: true,
            });
            agent.observe(DiscreteTransition {
                obs: vec![1.0, 0.0],
                action: 0,
                reward: 0.0,
                next_obs: vec![0.0, 1.0],
                done: true,
            });
        }
    }

    #[test]
    fn no_update_before_warmup() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = DqnAgent::new(2, 2, small_cfg(), &mut rng);
        assert!(agent.update(&mut rng).is_none());
    }

    #[test]
    fn learns_a_one_step_bandit() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = DqnAgent::new(2, 2, small_cfg(), &mut rng);
        push_chain(&mut agent);
        for _ in 0..150 {
            agent.update(&mut rng).unwrap();
        }
        let q = agent.q_values(&[1.0, 0.0]);
        assert!(
            q[1] > q[0] + 0.3,
            "action 1 must dominate after training: {q:?}"
        );
        assert_eq!(agent.act(&[1.0, 0.0], &mut rng, false), 1);
    }

    #[test]
    fn update_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut agent = DqnAgent::new(2, 2, small_cfg(), &mut rng);
        push_chain(&mut agent);
        let first = agent.update(&mut rng).unwrap();
        for _ in 0..80 {
            agent.update(&mut rng);
        }
        let last = agent.update(&mut rng).unwrap();
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn wrapper_routes_per_agent_rewards() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut algo = IndependentDqn::new(2, 2, 2, small_cfg(), &mut rng);
        assert_eq!(algo.num_agents(), 2);
        assert_eq!(algo.name(), "DQN");
        let t = JointTransition {
            obs: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            actions: vec![0, 1],
            rewards: vec![0.5, -0.5],
            next_obs: vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            done: false,
        };
        algo.observe(t);
        assert_eq!(algo.agents()[0].buffer_len(), 1);
        assert_eq!(algo.agents()[1].buffer_len(), 1);
        let acts = algo.act(&[vec![1.0, 0.0], vec![0.0, 1.0]], &mut rng, true);
        assert_eq!(acts.len(), 2);
        assert!(acts.iter().all(|&a| a < 2));
    }
}
