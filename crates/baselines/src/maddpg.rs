//! MADDPG (Lowe et al., 2017) — centralized training with decentralized
//! execution: each agent owns a local actor and a centralized critic over
//! the joint observation and joint action.
//!
//! The lane-change task's high-level action space is discrete, so the
//! actors output categorical logits and the policy gradient flows through
//! a Gumbel-softmax relaxation, exactly as in the original paper's
//! discrete experiments.

use hero_autograd::nn::{Activation, Mlp, Module};
use hero_autograd::optim::{Adam, Optimizer};
use hero_autograd::{loss, zero_grads, Graph, Parameter, Tensor, TensorPool};
use rand::rngs::StdRng;

use hero_rl::buffer::ReplayBuffer;
use hero_rl::explore::greedy;
use hero_rl::rng::{gumbel, sample_from_logits};
use hero_rl::target::{hard_update, soft_update};
use hero_rl::transition::JointTransition;

use crate::common::{column, stack_owned, MultiAgentAlgorithm, UpdateStats};

/// MADDPG hyper-parameters (defaults follow the paper's Table I).
#[derive(Clone, Copy, Debug)]
pub struct MaddpgConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Learning rate for actors and critics.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Polyak rate τ.
    pub tau: f32,
    /// Replay capacity.
    pub buffer_capacity: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Minimum stored transitions before updates begin.
    pub warmup: usize,
    /// Gumbel-softmax temperature for the actor gradient.
    pub gumbel_tau: f32,
}

impl Default for MaddpgConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            lr: 0.01,
            gamma: 0.95,
            tau: 0.01,
            buffer_capacity: 100_000,
            batch_size: 1024,
            warmup: 256,
            gumbel_tau: 1.0,
        }
    }
}

struct MaddpgAgent {
    actor: Mlp,
    actor_target: Mlp,
    critic: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
}

/// The multi-agent MADDPG learner.
pub struct Maddpg {
    agents: Vec<MaddpgAgent>,
    buffer: ReplayBuffer<JointTransition<usize>>,
    cfg: MaddpgConfig,
    obs_dim: usize,
    n_actions: usize,
    /// Buffers of the inference passes.
    pool: TensorPool,
}

impl Maddpg {
    /// Creates a learner for `n_agents` agents with `obs_dim` local
    /// observations and `n_actions` discrete actions each.
    pub fn new(
        n_agents: usize,
        obs_dim: usize,
        n_actions: usize,
        cfg: MaddpgConfig,
        rng: &mut StdRng,
    ) -> Self {
        let joint_in = n_agents * obs_dim + n_agents * n_actions;
        let agents = (0..n_agents)
            .map(|i| {
                let actor_dims = [obs_dim, cfg.hidden, cfg.hidden, n_actions];
                let critic_dims = [joint_in, cfg.hidden, cfg.hidden, 1];
                let actor = Mlp::new(&format!("maddpg.a{i}.actor"), &actor_dims, Activation::Relu, rng);
                let actor_target =
                    Mlp::new(&format!("maddpg.a{i}.actor_t"), &actor_dims, Activation::Relu, rng);
                let critic =
                    Mlp::new(&format!("maddpg.a{i}.critic"), &critic_dims, Activation::Relu, rng);
                let critic_target =
                    Mlp::new(&format!("maddpg.a{i}.critic_t"), &critic_dims, Activation::Relu, rng);
                hard_update(&actor.parameters(), &actor_target.parameters());
                hard_update(&critic.parameters(), &critic_target.parameters());
                let actor_opt = Adam::new(actor.parameters(), cfg.lr);
                let critic_opt = Adam::new(critic.parameters(), cfg.lr);
                MaddpgAgent {
                    actor,
                    actor_target,
                    critic,
                    critic_target,
                    actor_opt,
                    critic_opt,
                }
            })
            .collect();
        Self {
            agents,
            buffer: ReplayBuffer::new(cfg.buffer_capacity),
            cfg,
            obs_dim,
            n_actions,
            pool: TensorPool::new(),
        }
    }

    /// Number of stored joint transitions.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Trainable parameters of every agent (for checkpointing).
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut p = Vec::new();
        for a in &self.agents {
            p.extend(a.actor.parameters());
            p.extend(a.critic.parameters());
        }
        p
    }

    fn joint_obs(&self, per_agent: &[Vec<Vec<f32>>]) -> Tensor {
        // per_agent[j] is a batch of observations of agent j.
        let n = per_agent[0].len();
        let width = self.agents.len() * self.obs_dim;
        let mut data = Vec::with_capacity(n * width);
        for row in 0..n {
            for agent_obs in per_agent {
                data.extend_from_slice(&agent_obs[row]);
            }
        }
        Tensor::from_vec(vec![n, width], data)
    }

    fn joint_actions_one_hot(&self, actions: &[Vec<usize>]) -> Tensor {
        // actions[row][agent] -> concatenated one-hots.
        let n = actions.len();
        let width = self.agents.len() * self.n_actions;
        let mut data = vec![0.0f32; n * width];
        for (row, acts) in actions.iter().enumerate() {
            for (j, &a) in acts.iter().enumerate() {
                data[row * width + j * self.n_actions + a] = 1.0;
            }
        }
        Tensor::from_vec(vec![n, width], data)
    }

    fn actor_logits(&mut self, agent: usize, net: TargetOrOnline, obs: &Tensor) -> Tensor {
        let net = match net {
            TargetOrOnline::Online => &self.agents[agent].actor,
            TargetOrOnline::Target => &self.agents[agent].actor_target,
        };
        net.infer_in(obs, &mut self.pool)
    }
}

#[derive(Clone, Copy)]
enum TargetOrOnline {
    Online,
    Target,
}

impl MultiAgentAlgorithm for Maddpg {
    fn num_agents(&self) -> usize {
        self.agents.len()
    }

    fn name(&self) -> &'static str {
        "MADDPG"
    }

    fn act(&mut self, obs: &[Vec<f32>], rng: &mut StdRng, explore: bool) -> Vec<usize> {
        obs.iter()
            .enumerate()
            .map(|(i, o)| {
                let logits = self
                    .actor_logits(
                        i,
                        TargetOrOnline::Online,
                        &Tensor::from_vec(vec![1, o.len()], o.clone()),
                    )
                    .into_data();
                if explore {
                    sample_from_logits(rng, &logits)
                } else {
                    greedy(&logits)
                }
            })
            .collect()
    }

    fn observe(&mut self, transition: JointTransition<usize>) {
        self.buffer.push(transition);
    }

    fn update(&mut self, rng: &mut StdRng) -> Option<UpdateStats> {
        let need = self.cfg.warmup.max(self.cfg.batch_size.min(self.buffer.capacity()));
        if self.buffer.len() < need {
            return None;
        }
        let batch: Vec<JointTransition<usize>> = self
            .buffer
            .sample(rng, self.cfg.batch_size)
            .into_iter()
            .cloned()
            .collect();
        let n = batch.len();
        let n_agents = self.agents.len();

        // Batched per-agent observation matrices.
        let per_agent_obs: Vec<Vec<Vec<f32>>> = (0..n_agents)
            .map(|j| batch.iter().map(|t| t.obs[j].clone()).collect())
            .collect();
        let per_agent_next: Vec<Vec<Vec<f32>>> = (0..n_agents)
            .map(|j| batch.iter().map(|t| t.next_obs[j].clone()).collect())
            .collect();
        let joint_obs = self.joint_obs(&per_agent_obs);
        let joint_next = self.joint_obs(&per_agent_next);
        let actions: Vec<Vec<usize>> = batch.iter().map(|t| t.actions.clone()).collect();
        let joint_acts = self.joint_actions_one_hot(&actions);

        // Joint next actions from the target actors (greedy one-hot).
        let next_actions: Vec<Vec<usize>> = {
            let mut per_row: Vec<Vec<usize>> = vec![Vec::with_capacity(n_agents); n];
            for j in 0..n_agents {
                let obs_t = stack_owned(&per_agent_next[j]);
                let logits = self.actor_logits(j, TargetOrOnline::Target, &obs_t);
                for (row, slots) in per_row.iter_mut().enumerate() {
                    slots.push(greedy(logits.row(row)));
                }
            }
            per_row
        };
        let joint_next_acts = self.joint_actions_one_hot(&next_actions);

        let mut critic_total = 0.0;
        let mut actor_total = 0.0;
        for i in 0..n_agents {
            // Critic update.
            let next_q = {
                let mut g = Graph::new();
                let xo = g.input(joint_next.clone());
                let xa = g.input(joint_next_acts.clone());
                let qin = g.concat_cols(xo, xa);
                let q = self.agents[i].critic_target.forward(&mut g, qin);
                g.value(q).data().to_vec()
            };
            let targets: Vec<f32> = batch
                .iter()
                .enumerate()
                .map(|(row, t)| {
                    t.rewards[i] + if t.done { 0.0 } else { self.cfg.gamma * next_q[row] }
                })
                .collect();
            {
                let mut g = Graph::new();
                let xo = g.input(joint_obs.clone());
                let xa = g.input(joint_acts.clone());
                let qin = g.concat_cols(xo, xa);
                let q = self.agents[i].critic.forward(&mut g, qin);
                let y = g.input(column(&targets));
                let l = loss::mse(&mut g, q, y);
                critic_total += g.value(l).item();
                g.backward(l);
                self.agents[i].critic_opt.step();
            }

            // Actor update through the Gumbel-softmax relaxation.
            {
                let mut g = Graph::new();
                let own_obs = g.input(stack_owned(&per_agent_obs[i]));
                let logits = self.agents[i].actor.forward(&mut g, own_obs);
                let mut noise = vec![0.0f32; n * self.n_actions];
                for v in noise.iter_mut() {
                    *v = gumbel(rng);
                }
                let gnoise = g.input(Tensor::from_vec(vec![n, self.n_actions], noise));
                let perturbed = g.add(logits, gnoise);
                let scaled = g.scale(perturbed, 1.0 / self.cfg.gumbel_tau);
                let relaxed = g.softmax(scaled);

                // Joint action input with agent i's slot replaced by the
                // relaxed sample.
                let mut parts = Vec::with_capacity(n_agents);
                for j in 0..n_agents {
                    if j == i {
                        parts.push(relaxed);
                    } else {
                        let mut data = vec![0.0f32; n * self.n_actions];
                        for (row, acts) in actions.iter().enumerate() {
                            data[row * self.n_actions + acts[j]] = 1.0;
                        }
                        parts.push(g.input(Tensor::from_vec(vec![n, self.n_actions], data)));
                    }
                }
                let acts_node = g.concat_cols_many(&parts);
                let xo = g.input(joint_obs.clone());
                let qin = g.concat_cols(xo, acts_node);
                let q = self.agents[i].critic.forward(&mut g, qin);
                let neg = g.neg(q);
                let l = g.mean(neg);
                actor_total += g.value(l).item();
                g.backward(l);
                self.agents[i].actor_opt.step();
                zero_grads(self.agents[i].critic_opt.parameters());
            }

            soft_update(
                &self.agents[i].actor.parameters(),
                &self.agents[i].actor_target.parameters(),
                self.cfg.tau,
            );
            soft_update(
                &self.agents[i].critic.parameters(),
                &self.agents[i].critic_target.parameters(),
                self.cfg.tau,
            );
        }
        Some(UpdateStats {
            critic_loss: critic_total / n_agents as f32,
            actor_loss: actor_total / n_agents as f32,
        })
    }
}

impl std::fmt::Debug for Maddpg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Maddpg(agents={}, obs_dim={}, n_actions={})",
            self.agents.len(),
            self.obs_dim,
            self.n_actions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_cfg() -> MaddpgConfig {
        MaddpgConfig {
            hidden: 16,
            batch_size: 32,
            warmup: 32,
            ..MaddpgConfig::default()
        }
    }

    fn coordination_transition(a0: usize, a1: usize) -> JointTransition<usize> {
        // Both agents must pick action 1 to earn the team reward.
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
    fn act_returns_valid_actions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut algo = Maddpg::new(2, 2, 3, small_cfg(), &mut rng);
        let acts = algo.act(&[vec![0.1, 0.2], vec![0.3, 0.4]], &mut rng, true);
        assert_eq!(acts.len(), 2);
        assert!(acts.iter().all(|&a| a < 3));
        assert_eq!(algo.name(), "MADDPG");
    }

    #[test]
    fn no_update_before_warmup() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut algo = Maddpg::new(2, 2, 2, small_cfg(), &mut rng);
        assert!(algo.update(&mut rng).is_none());
    }

    #[test]
    fn learns_a_coordination_bandit() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut algo = Maddpg::new(2, 2, 2, small_cfg(), &mut rng);
        for _ in 0..400 {
            let obs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
            let acts = algo.act(&obs, &mut rng, true);
            algo.observe(coordination_transition(acts[0], acts[1]));
            algo.update(&mut rng);
        }
        let greedy_acts = algo.act(&[vec![1.0, 0.0], vec![0.0, 1.0]], &mut rng, false);
        assert_eq!(
            greedy_acts,
            vec![1, 1],
            "both agents must learn the coordinated action"
        );
    }

    #[test]
    fn update_reports_losses() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut algo = Maddpg::new(2, 2, 2, small_cfg(), &mut rng);
        for _ in 0..40 {
            algo.observe(coordination_transition(0, 1));
        }
        let stats = algo.update(&mut rng).unwrap();
        assert!(stats.critic_loss.is_finite());
        assert!(stats.actor_loss.is_finite());
    }
}
