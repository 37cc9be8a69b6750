//! MAAC — multi-actor-attention-critic (Iqbal & Sha, 2019). Decentralized
//! actors with parameter sharing; each agent's critic attends over the
//! other agents' encoded observation–action pairs through multi-head
//! dot-product attention, and learning follows the soft (maximum-entropy)
//! actor–critic recipe with a counterfactual baseline.

use hero_autograd::nn::{Activation, Linear, Mlp, Module};
use hero_autograd::optim::{Adam, Optimizer};
use hero_autograd::{zero_grads, Graph, NodeId, Parameter, Tensor, TensorPool};
use rand::rngs::StdRng;

use hero_rl::buffer::ReplayBuffer;
use hero_rl::explore::greedy;
use hero_rl::rng::{log_softmax, sample_from_logits, softmax};
use hero_rl::target::{hard_update, soft_update};
use hero_rl::transition::JointTransition;

use crate::common::{column, stack_owned, MultiAgentAlgorithm, UpdateStats};

/// MAAC hyper-parameters (defaults follow the paper's Table I; attention
/// uses 2 heads over the 32-wide embeddings).
#[derive(Clone, Copy, Debug)]
pub struct MaacConfig {
    /// Embedding / hidden width (must be divisible by `heads`).
    pub hidden: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Learning rate for actors and critic.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Polyak rate τ.
    pub tau: f32,
    /// Entropy temperature α of the soft update.
    pub alpha: f32,
    /// Replay capacity.
    pub buffer_capacity: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Minimum stored transitions before updates begin.
    pub warmup: usize,
}

impl Default for MaacConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            heads: 2,
            lr: 0.01,
            gamma: 0.95,
            tau: 0.01,
            alpha: 0.2,
            buffer_capacity: 100_000,
            batch_size: 1024,
            warmup: 256,
        }
    }
}

/// The attention critic: shared encoders, multi-head attention over the
/// other agents, and a shared Q head producing per-action values.
#[derive(Debug)]
struct AttentionCritic {
    state_encoder: Linear,
    pair_encoder: Linear,
    queries: Vec<Linear>,
    keys: Vec<Linear>,
    values: Vec<Linear>,
    q_head: Mlp,
    head_dim: usize,
}

impl AttentionCritic {
    fn new(
        name: &str,
        n_agents: usize,
        obs_dim: usize,
        n_actions: usize,
        cfg: &MaacConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            cfg.hidden % cfg.heads == 0,
            "hidden width must be divisible by the head count"
        );
        let d = cfg.hidden;
        let head_dim = d / cfg.heads;
        let state_encoder = Linear::new(&format!("{name}.enc_s"), obs_dim + n_agents, d, rng);
        let pair_encoder = Linear::new(&format!("{name}.enc_e"), obs_dim + n_actions, d, rng);
        let mk = |prefix: &str, rng: &mut StdRng| {
            (0..cfg.heads)
                .map(|h| Linear::new(&format!("{name}.{prefix}{h}"), d, head_dim, rng))
                .collect::<Vec<_>>()
        };
        let queries = mk("wq", rng);
        let keys = mk("wk", rng);
        let values = mk("wv", rng);
        let q_head = Mlp::new(
            &format!("{name}.q_head"),
            &[2 * d, d, n_actions],
            Activation::Relu,
            rng,
        );
        Self {
            state_encoder,
            pair_encoder,
            queries,
            keys,
            values,
            q_head,
            head_dim,
        }
    }

    /// Q-values `[batch, n_actions]` of agent `i` given every agent's
    /// observation node and every *other* agent's action one-hot node.
    ///
    /// `obs[j]` must be `[batch, obs_dim + n_agents]` for the ego slot
    /// (agent one-hot appended by the caller) — only `obs[i]` is used for
    /// the state path; attention consumes `pair[j] = [obs_j ‖ onehot(a_j)]`
    /// for `j ≠ i`.
    fn forward(
        &self,
        g: &mut Graph,
        i: usize,
        ego_state: NodeId,
        pairs: &[Option<NodeId>],
    ) -> NodeId {
        let s = self.state_encoder.forward(g, ego_state);
        let s = g.relu(s);
        let embeddings: Vec<(usize, NodeId)> = pairs
            .iter()
            .enumerate()
            .filter(|(j, p)| *j != i && p.is_some())
            .map(|(j, p)| {
                let e = self.pair_encoder.forward(g, p.unwrap());
                (j, g.relu(e))
            })
            .collect();
        assert!(
            !embeddings.is_empty(),
            "attention needs at least one other agent"
        );
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut head_outputs = Vec::with_capacity(self.queries.len());
        for h in 0..self.queries.len() {
            let q = self.queries[h].forward(g, s);
            let mut scores = Vec::with_capacity(embeddings.len());
            let mut values = Vec::with_capacity(embeddings.len());
            for (_, e) in &embeddings {
                let k = self.keys[h].forward(g, *e);
                let qk = g.mul(q, k);
                let score = g.sum_rows(qk);
                scores.push(g.scale(score, scale));
                let v = self.values[h].forward(g, *e);
                values.push(g.relu(v));
            }
            let score_mat = g.concat_cols_many(&scores);
            let attn = g.softmax(score_mat);
            let mut x: Option<NodeId> = None;
            for (idx, v) in values.iter().enumerate() {
                let w = g.slice_cols(attn, idx..idx + 1);
                let contrib = g.row_scale(*v, w);
                x = Some(match x {
                    Some(acc) => g.add(acc, contrib),
                    None => contrib,
                });
            }
            head_outputs.push(x.expect("at least one attention target"));
        }
        let x = g.concat_cols_many(&head_outputs);
        let joined = g.concat_cols(s, x);
        self.q_head.forward(g, joined)
    }
}

impl Module for AttentionCritic {
    fn parameters(&self) -> Vec<Parameter> {
        let mut p = self.state_encoder.parameters();
        p.extend(self.pair_encoder.parameters());
        for group in [&self.queries, &self.keys, &self.values] {
            for l in group {
                p.extend(l.parameters());
            }
        }
        p.extend(self.q_head.parameters());
        p
    }
}

/// The MAAC learner.
pub struct Maac {
    actor: Mlp,
    critic: AttentionCritic,
    critic_target: AttentionCritic,
    actor_opt: Adam,
    critic_opt: Adam,
    buffer: ReplayBuffer<JointTransition<usize>>,
    cfg: MaacConfig,
    n_agents: usize,
    obs_dim: usize,
    n_actions: usize,
    /// Buffers of the actor inference passes.
    pool: TensorPool,
}

impl Maac {
    /// Creates a learner for `n_agents` agents with `obs_dim` local
    /// observations and `n_actions` discrete actions each.
    pub fn new(
        n_agents: usize,
        obs_dim: usize,
        n_actions: usize,
        cfg: MaacConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert!(n_agents >= 2, "MAAC's attention needs at least two agents");
        let actor = Mlp::new(
            "maac.actor",
            &[obs_dim + n_agents, cfg.hidden, cfg.hidden, n_actions],
            Activation::Relu,
            rng,
        );
        let critic = AttentionCritic::new("maac.critic", n_agents, obs_dim, n_actions, &cfg, rng);
        let critic_target =
            AttentionCritic::new("maac.critic_t", n_agents, obs_dim, n_actions, &cfg, rng);
        hard_update(&critic.parameters(), &critic_target.parameters());
        let actor_opt = Adam::new(actor.parameters(), cfg.lr);
        let critic_opt = Adam::new(critic.parameters(), cfg.lr);
        Self {
            actor,
            critic,
            critic_target,
            actor_opt,
            critic_opt,
            buffer: ReplayBuffer::new(cfg.buffer_capacity),
            cfg,
            n_agents,
            obs_dim,
            n_actions,
            pool: TensorPool::new(),
        }
    }

    /// Number of stored joint transitions.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
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
        let x = self.actor_batch(agent, &[obs.to_vec()]);
        self.actor.infer_in(&x, &mut self.pool).into_data()
    }

    /// The stacked actor inputs `[obs ‖ onehot(agent)]` of `agent`'s local
    /// observations: one actor pass over them gives every row's logits,
    /// row `r` bitwise the one-row pass on `obs[r]`.
    fn actor_batch(&self, agent: usize, obs: &[Vec<f32>]) -> Tensor {
        let rows: Vec<Vec<f32>> = obs.iter().map(|o| self.actor_input(agent, o)).collect();
        stack_owned(&rows)
    }

    fn pair_vec(&self, obs: &[f32], action: usize) -> Vec<f32> {
        let mut v = obs.to_vec();
        for k in 0..self.n_actions {
            v.push(if k == action { 1.0 } else { 0.0 });
        }
        v
    }

    /// Q-values `[batch, n_actions]` for agent `i` from `critic`, using the
    /// given joint observations and joint actions.
    fn critic_values(
        &self,
        target: bool,
        i: usize,
        obs: &[Vec<Vec<f32>>],
        actions: &[Vec<usize>],
    ) -> Tensor {
        let mut g = Graph::new();
        let ego = g.input(self.actor_batch(i, &obs[i]));
        let pairs: Vec<Option<NodeId>> = (0..self.n_agents)
            .map(|j| {
                (j != i).then(|| {
                    let rows: Vec<Vec<f32>> = obs[j]
                        .iter()
                        .zip(actions.iter().map(|row| row[j]))
                        .map(|(o, a)| self.pair_vec(o, a))
                        .collect();
                    g.input(stack_owned(&rows))
                })
            })
            .collect();
        let critic = if target { &self.critic_target } else { &self.critic };
        let q = critic.forward(&mut g, i, ego, &pairs);
        g.value(q).clone()
    }
}

impl MultiAgentAlgorithm for Maac {
    fn num_agents(&self) -> usize {
        self.n_agents
    }

    fn name(&self) -> &'static str {
        "MAAC"
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

        let per_obs: Vec<Vec<Vec<f32>>> = (0..self.n_agents)
            .map(|j| batch.iter().map(|t| t.obs[j].clone()).collect())
            .collect();
        let per_next: Vec<Vec<Vec<f32>>> = (0..self.n_agents)
            .map(|j| batch.iter().map(|t| t.next_obs[j].clone()).collect())
            .collect();
        let taken: Vec<Vec<usize>> = batch.iter().map(|t| t.actions.clone()).collect();

        // Sample next joint actions from the current policies: one actor
        // pass per agent, then the draws in row-then-agent order.
        let mut next_logits = Vec::with_capacity(self.n_agents);
        for (j, obs) in per_next.iter().enumerate() {
            let x = self.actor_batch(j, obs);
            next_logits.push(self.actor.infer_in(&x, &mut self.pool));
        }
        let next_actions: Vec<Vec<usize>> = (0..n)
            .map(|row| {
                next_logits
                    .iter()
                    .map(|logits| sample_from_logits(rng, logits.row(row)))
                    .collect()
            })
            .collect();

        let mut critic_total = 0.0;
        let mut actor_total = 0.0;
        for i in 0..self.n_agents {
            // Soft TD target: r + γ·E_{a~π}[Q_t(s', a) − α·log π(a|o')].
            let next_q = self.critic_values(true, i, &per_next, &next_actions);
            let next_x = self.actor_batch(i, &per_next[i]);
            let next_pi = self.actor.infer_in(&next_x, &mut self.pool);
            let targets: Vec<f32> = batch
                .iter()
                .enumerate()
                .map(|(row, t)| {
                    if t.done {
                        return t.rewards[i];
                    }
                    let logits = next_pi.row(row);
                    let probs = softmax(logits);
                    let logps = log_softmax(logits);
                    let soft_v: f32 = probs
                        .iter()
                        .zip(next_q.row(row))
                        .zip(&logps)
                        .map(|((p, q), lp)| p * (q - self.cfg.alpha * lp))
                        .sum();
                    t.rewards[i] + self.cfg.gamma * soft_v
                })
                .collect();

            // Critic regression on the taken actions.
            let q_all_pre = {
                let mut g = Graph::new();
                let ego = g.input(self.actor_batch(i, &per_obs[i]));
                let pairs: Vec<Option<NodeId>> = (0..self.n_agents)
                    .map(|j| {
                        (j != i).then(|| {
                            let rows: Vec<Vec<f32>> = per_obs[j]
                                .iter()
                                .zip(taken.iter().map(|row| row[j]))
                                .map(|(o, a)| self.pair_vec(o, a))
                                .collect();
                            g.input(stack_owned(&rows))
                        })
                    })
                    .collect();
                let q_all = self.critic.forward(&mut g, i, ego, &pairs);
                let own: Vec<usize> = taken.iter().map(|row| row[i]).collect();
                let mask = g.input(Tensor::one_hot(&own, self.n_actions));
                let picked = g.mul(q_all, mask);
                let q_u = g.sum_rows(picked);
                let y = g.input(column(&targets));
                let l = hero_autograd::loss::mse(&mut g, q_u, y);
                critic_total += g.value(l).item();
                let values = g.value(q_all).clone();
                g.backward(l);
                self.critic_opt.step();
                values
            };

            // Actor step: ∇ log π(a|o)·(α·log π(a|o) − (Q(a) − b)) with the
            // critic treated as constant and b the counterfactual baseline.
            let actor_x = self.actor_batch(i, &per_obs[i]);
            let pi = self.actor.infer_in(&actor_x, &mut self.pool);
            let mut coeffs = Vec::with_capacity(n);
            let mut own_actions = Vec::with_capacity(n);
            for (row, t) in batch.iter().enumerate() {
                let logits = pi.row(row);
                let probs = softmax(logits);
                let logps = log_softmax(logits);
                let qs = q_all_pre.row(row);
                let baseline: f32 = probs.iter().zip(qs).map(|(p, q)| p * q).sum();
                let a = t.actions[i];
                coeffs.push(self.cfg.alpha * logps[a] - (qs[a] - baseline));
                own_actions.push(a);
            }
            {
                let mut g = Graph::new();
                let x = g.input(actor_x);
                let logits = self.actor.forward(&mut g, x);
                let logp = g.log_softmax(logits);
                let mask = g.input(Tensor::one_hot(&own_actions, self.n_actions));
                let picked = g.mul(logp, mask);
                let logp_u = g.sum_rows(picked);
                let w = g.input(column(&coeffs));
                let weighted = g.mul(logp_u, w);
                let l = g.mean(weighted);
                actor_total += g.value(l).item();
                g.backward(l);
                self.actor_opt.step();
                zero_grads(self.critic_opt.parameters());
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

impl std::fmt::Debug for Maac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Maac(agents={}, obs_dim={}, n_actions={}, heads={})",
            self.n_agents, self.obs_dim, self.n_actions, self.cfg.heads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_cfg() -> MaacConfig {
        MaacConfig {
            hidden: 16,
            heads: 2,
            batch_size: 32,
            warmup: 32,
            ..MaacConfig::default()
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
    fn attention_critic_output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let algo = Maac::new(3, 2, 4, small_cfg(), &mut rng);
        let obs: Vec<Vec<Vec<f32>>> = (0..3).map(|_| vec![vec![0.1, 0.2]; 5]).collect();
        let actions = vec![vec![0, 1, 2]; 5];
        let q = algo.critic_values(false, 1, &obs, &actions);
        assert_eq!(q.shape(), &[5, 4]);
        assert!(q.all_finite());
    }

    #[test]
    fn critic_attends_to_other_agents_actions() {
        // Changing another agent's action must change agent 0's Q-values.
        let mut rng = StdRng::seed_from_u64(1);
        let algo = Maac::new(2, 2, 2, small_cfg(), &mut rng);
        let obs: Vec<Vec<Vec<f32>>> = (0..2).map(|_| vec![vec![0.3, -0.3]]).collect();
        let q_a = algo.critic_values(false, 0, &obs, &[vec![0, 0]]);
        let q_b = algo.critic_values(false, 0, &obs, &[vec![0, 1]]);
        assert_ne!(q_a.data(), q_b.data());
    }

    #[test]
    fn learns_a_coordination_bandit() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut algo = Maac::new(2, 2, 2, small_cfg(), &mut rng);
        for _ in 0..350 {
            let obs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
            let acts = algo.act(&obs, &mut rng, true);
            algo.observe(bandit(acts[0], acts[1]));
            algo.update(&mut rng);
        }
        let greedy_acts = algo.act(&[vec![1.0, 0.0], vec![0.0, 1.0]], &mut rng, false);
        assert_eq!(greedy_acts, vec![1, 1]);
    }

    #[test]
    fn warmup_and_metadata() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut algo = Maac::new(2, 2, 2, small_cfg(), &mut rng);
        assert!(algo.update(&mut rng).is_none());
        assert_eq!(algo.name(), "MAAC");
        assert_eq!(algo.num_agents(), 2);
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn single_agent_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = Maac::new(1, 2, 2, small_cfg(), &mut rng);
    }
}
