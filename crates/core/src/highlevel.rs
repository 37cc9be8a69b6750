//! The high-level cooperation layer (Sec. III-C): a *decentralized*
//! actor–critic over options. The critic `Q_h^i(s_h^i, o^i, o^{-i})`
//! conditions on every agent's option; the actor `π_h^i(o^i | s_h^i,
//! ô^{-i})` conditions on the opponent model's predicted option
//! distributions. TD targets plug the opponent model's probabilities into
//! the target critic directly ("we input the option log probabilities of
//! other agents directly into `Q`, rather than sampling").
//!
//! Transitions are SMDP option segments: the reward field carries the
//! accumulated discounted reward `r_{h,t:t+c}` and the bootstrap uses
//! `γ^c`.

use hero_autograd::diagnostics::StepDiagnostics;
use hero_autograd::nn::{Activation, Mlp, Module};
use hero_autograd::optim::{Adam, Optimizer};
use hero_autograd::{
    loss, serialize, zero_grads, CheckpointError, Graph, Parameter, Tensor, TensorPool,
};
use rand::rngs::StdRng;
use rand::Rng;

use hero_baselines::common::UpdateStats;
use hero_rl::buffer::{Draw, ReplayBuffer};
use hero_rl::snapshot;
use hero_rl::explore::greedy;
use hero_rl::rng::sample_from_logits;
use hero_rl::target::{hard_update, soft_update};
use hero_rl::transition::OptionTransition;

use crate::config::HeroConfig;
use crate::opponent::{push_one_hot, OpponentModel};

/// A pre-sampled minibatch of option segments for
/// [`HighLevelLearner::update_batch`], produced by
/// [`HighLevelLearner::sample_batch`]: replay slots, valid until the next
/// [`HighLevelLearner::store`].
#[derive(Clone, Debug)]
pub struct HighLevelBatch {
    draw: Draw,
}

/// The per-agent high-level learner.
#[derive(Debug)]
pub struct HighLevelLearner {
    actor: Mlp,
    critic: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    buffer: ReplayBuffer<OptionTransition>,
    gamma: f32,
    tau: f32,
    batch_size: usize,
    warmup: usize,
    entropy_weight: f32,
    n_options: usize,
    n_opponents: usize,
    /// The update's arena (see `Graph::reset`): the tape, and through
    /// [`Graph::pool`] every inference pass and input row of the update.
    graph: Graph,
}

impl HighLevelLearner {
    /// Creates a learner for `obs_dim` high-level states, `n_options`
    /// options, and `n_opponents` other agents.
    pub fn new(
        obs_dim: usize,
        n_options: usize,
        n_opponents: usize,
        cfg: &HeroConfig,
        rng: &mut StdRng,
    ) -> Self {
        let opp_width = n_opponents * n_options;
        let actor_dims = [obs_dim + opp_width, cfg.hidden, cfg.hidden, n_options];
        let critic_dims = [
            obs_dim + n_options + opp_width,
            cfg.hidden,
            cfg.hidden,
            1,
        ];
        let actor = Mlp::new("hero.actor", &actor_dims, Activation::Relu, rng);
        let critic = Mlp::new("hero.critic", &critic_dims, Activation::Relu, rng);
        let critic_target = Mlp::new("hero.critic_t", &critic_dims, Activation::Relu, rng);
        hard_update(&critic.parameters(), &critic_target.parameters());
        let mut actor_opt = Adam::new(actor.parameters(), cfg.lr);
        let mut critic_opt = Adam::new(critic.parameters(), cfg.lr);
        actor_opt.set_diagnostics(StepDiagnostics::named("actor"));
        critic_opt.set_diagnostics(StepDiagnostics::named("critic"));
        Self {
            actor,
            critic,
            critic_target,
            actor_opt,
            critic_opt,
            buffer: ReplayBuffer::new(cfg.buffer_capacity),
            gamma: cfg.gamma,
            tau: cfg.tau,
            batch_size: cfg.batch_size,
            warmup: cfg.warmup,
            entropy_weight: cfg.actor_entropy_weight,
            n_options,
            n_opponents,
            graph: Graph::new(),
        }
    }

    /// Number of stored option transitions in `D_h^i`.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Policy logits for a batch of `[n, obs_dim]` states with per-opponent
    /// `[n, n_options]` predicted distributions, in one actor forward pass
    /// whose buffers come from `pool`. Row `r` of the result is bitwise
    /// identical to a one-row call on row `r` of the inputs alone: rows
    /// are independent under the strict kernels.
    pub fn logits(
        &self,
        obs: &Tensor,
        opp_probs: &[Tensor],
        pool: &mut TensorPool,
    ) -> Vec<Vec<f32>> {
        assert_eq!(opp_probs.len(), self.n_opponents, "opponent arity mismatch");
        let input = concat_rows(obs, opp_probs, pool);
        let out = self.actor.infer_in(&input, pool);
        let rows = (0..obs.shape()[0]).map(|r| out.row(r).to_vec()).collect();
        recycle(pool, [input, out]);
        rows
    }

    /// Number of high-level options in the action space.
    pub fn n_options(&self) -> usize {
        self.n_options
    }

    /// Selects an option from precomputed policy logits: greedy when
    /// `explore` is false; otherwise sampled from the softmax policy with
    /// ε-uniform mixing. Consumes one `gen::<f32>()` for the ε gate, then
    /// either a uniform `gen_range` or a softmax sample.
    pub fn select_from_logits(
        &self,
        logits: &[f32],
        rng: &mut StdRng,
        explore: bool,
        epsilon: f32,
    ) -> usize {
        if !explore {
            return greedy(logits);
        }
        if rng.gen::<f32>() < epsilon {
            rng.gen_range(0..self.n_options)
        } else {
            sample_from_logits(rng, logits)
        }
    }

    /// Stores a completed option segment in `D_h^i`.
    pub fn store(&mut self, t: OptionTransition) {
        self.buffer.push(t);
    }

    /// One actor–critic update using the opponent model for TD targets;
    /// `None` before warm-up.
    pub fn update(&mut self, rng: &mut StdRng, opponent: &OpponentModel) -> Option<UpdateStats> {
        let batch = self.sample_batch(rng)?;
        Some(self.update_batch(&batch, opponent))
    }

    /// Draws the next update's minibatch, or `None` before warm-up. The
    /// only RNG-consuming half of an update (see
    /// [`OpponentModel::sample_batch`] for the contract).
    pub fn sample_batch(&self, rng: &mut StdRng) -> Option<HighLevelBatch> {
        let need = self.warmup.max(self.batch_size.min(self.buffer.capacity())).min(2048);
        if self.buffer.len() < need.max(8) {
            return None;
        }
        let n = self.batch_size.min(self.buffer.len().max(8));
        let draw = {
            let _span = hero_rl::telemetry::span("replay_sample");
            self.buffer.draw(rng, n)
        };
        hero_rl::telemetry::counter_add("transitions_sampled", n as u64);
        Some(HighLevelBatch { draw })
    }

    /// The compute half of [`HighLevelLearner::update`]: critic regression
    /// and counterfactual-baseline policy gradient on the pre-sampled
    /// `batch`. Consumes no randomness.
    ///
    /// # Panics
    ///
    /// Panics when a segment was stored since `batch` was drawn.
    pub fn update_batch(
        &mut self,
        batch: &HighLevelBatch,
        opponent: &OpponentModel,
    ) -> UpdateStats {
        let batch = self.buffer.resolve(&batch.draw);
        let n = batch.len();
        let obs_dim = batch[0].obs.len();
        let n_options = self.n_options;
        // Critic input: own state, own option one-hot, then the opponents'
        // options (one-hot, or predicted distributions in the TD target).
        let critic_width = obs_dim + n_options * (1 + self.n_opponents);
        let critic_row = |d: &mut Vec<f32>, t: &OptionTransition, option: usize| {
            d.extend_from_slice(&t.obs);
            push_one_hot(d, option, n_options);
            for &o in &t.other_options {
                push_one_hot(d, o, n_options);
            }
        };

        // One arena serves every pass of the update (see `Graph::reset`):
        // the tape, the inference activations and the input rows all
        // recycle through the graph's pool, so steady-state updates stop
        // allocating per minibatch.
        let mut g = std::mem::take(&mut self.graph);
        g.reset();

        // TD target: r_{t:t+c} + γ^c · Q_target(s', π_h(s', ô'), ô'),
        // with the opponent model's probabilities fed straight into the
        // target critic (no sampling) — all batched.
        let (critic_x, targets) = {
            let pool = g.pool();
            let next_t = pool.matrix(n, obs_dim, |d| {
                for t in &batch {
                    d.extend_from_slice(&t.next_obs);
                }
            });
            let opp_next = opponent.predict_probs(&next_t, pool);
            let next_in = concat_rows(&next_t, &opp_next, pool);
            let next_logits = self.actor.infer_in(&next_in, pool);
            let target_in = pool.matrix(n, critic_width, |d| {
                for row in 0..n {
                    d.extend_from_slice(next_t.row(row));
                    push_one_hot(d, greedy(next_logits.row(row)), n_options);
                    for opp in &opp_next {
                        d.extend_from_slice(opp.row(row));
                    }
                }
            });
            let q_next = self.critic_target.infer_in(&target_in, pool);
            let targets = pool.matrix(n, 1, |d| {
                for (row, t) in batch.iter().enumerate() {
                    d.push(if t.done {
                        t.reward
                    } else {
                        t.reward + self.gamma.powi(t.duration as i32) * q_next.row(row)[0]
                    });
                }
            });
            // Critic regression input: the observed joint options.
            let critic_x = pool.matrix(n, critic_width, |d| {
                for t in &batch {
                    critic_row(d, t, t.option);
                }
            });
            recycle(pool, [next_t, next_in, next_logits, target_in, q_next]);
            recycle(pool, opp_next);
            (critic_x, targets)
        };

        let critic_loss = {
            let x = g.input(critic_x);
            let q = self.critic.forward(&mut g, x);
            let y = g.input(targets);
            let l = loss::mse(&mut g, q, y);
            let v = g.value(l).item();
            if hero_rl::telemetry::is_enabled() {
                // Per-sample TD error and Q estimates (see DESIGN.md
                // "learning-dynamics metrics": td_error, q/high).
                let pred = g.value(q);
                let target = g.value(y);
                for row in 0..n {
                    let p = pred.row(row)[0] as f64;
                    hero_rl::telemetry::observe("td_error", target.row(row)[0] as f64 - p);
                    hero_rl::telemetry::observe("q/high", p);
                }
            }
            g.backward(l);
            self.critic_opt.step();
            v
        };

        // Advantage = Q(s, o_t, o^{-i}_t) − Σ_o π(o)·Q(s, o, o^{-i}_t)
        // (counterfactual-style baseline for variance reduction), from one
        // critic pass over the batch stacked once per option: row
        // `o·n + r` is row `r` with option `o`.
        g.reset();
        let (actor_x, taken, advantages) = {
            let pool = g.pool();
            let obs_t = pool.matrix(n, obs_dim, |d| {
                for t in &batch {
                    d.extend_from_slice(&t.obs);
                }
            });
            let opp_now = opponent.predict_probs(&obs_t, pool);
            let actor_in = concat_rows(&obs_t, &opp_now, pool);
            let logits_t = self.actor.infer_in(&actor_in, pool);
            let q_in = pool.matrix(n_options * n, critic_width, |d| {
                for o in 0..n_options {
                    for t in &batch {
                        critic_row(d, t, o);
                    }
                }
            });
            let q_all = self.critic.infer_in(&q_in, pool);
            let q = q_all.data();
            let advantages = pool.matrix(n, 1, |d| {
                for (row, t) in batch.iter().enumerate() {
                    let probs = hero_rl::rng::softmax(logits_t.row(row));
                    let baseline: f32 = probs
                        .iter()
                        .enumerate()
                        .map(|(o, p)| p * q[o * n + row])
                        .sum();
                    d.push(q[t.option * n + row] - baseline);
                }
            });
            let taken = pool.matrix(n, n_options, |d| {
                for t in &batch {
                    push_one_hot(d, t.option, n_options);
                }
            });
            recycle(pool, [obs_t, logits_t, q_in, q_all]);
            recycle(pool, opp_now);
            (actor_in, taken, advantages)
        };
        let actor_loss = {
            let x = g.input(actor_x);
            let logits = self.actor.forward(&mut g, x);
            let logp = g.log_softmax(logits);
            let mask = g.input(taken);
            let picked = g.mul(logp, mask);
            let logp_u = g.sum_rows(picked);
            let adv = g.input(advantages);
            let weighted = g.mul(logp_u, adv);
            let pg = g.mean(weighted);
            let pg_loss = g.neg(pg);
            let entropy = loss::categorical_entropy(&mut g, logits);
            let ent_term = g.scale(entropy, -self.entropy_weight);
            let l = g.add(pg_loss, ent_term);
            let v = g.value(l).item();
            g.backward(l);
            self.actor_opt.step();
            zero_grads(self.critic_opt.parameters());
            v
        };
        self.graph = g;

        soft_update(
            &self.critic.parameters(),
            &self.critic_target.parameters(),
            self.tau,
        );
        UpdateStats {
            critic_loss,
            actor_loss,
        }
    }

    /// Trainable parameters (actor then critic) for checkpointing.
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut p = self.actor.parameters();
        p.extend(self.critic.parameters());
        p
    }

    /// Captures the learner's full state — networks, target critic, both
    /// Adam optimizers, and the option-segment replay buffer — as named
    /// sections (relative names; the caller prefixes them per agent).
    pub fn save_state(&self) -> Vec<(String, Vec<u8>)> {
        vec![
            ("params".to_string(), serialize::encode_params(&self.parameters())),
            (
                "critic_target".to_string(),
                serialize::encode_params(&self.critic_target.parameters()),
            ),
            (
                "actor_opt".to_string(),
                serialize::encode_optimizer(&self.actor_opt.export_state()),
            ),
            (
                "critic_opt".to_string(),
                serialize::encode_optimizer(&self.critic_opt.export_state()),
            ),
            ("buffer".to_string(), snapshot::encode_replay(&self.buffer)),
        ]
    }

    /// Restores state captured by [`HighLevelLearner::save_state`] into a
    /// learner built with the same dimensions and config.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when a section is missing, malformed, or
    /// shaped for a different architecture, or when a replayed segment
    /// holds an option out of range, the wrong number of opponent options,
    /// or a state of the wrong width; that check runs before anything is
    /// written.
    pub fn load_state(&mut self, sections: &[(String, Vec<u8>)]) -> Result<(), CheckpointError> {
        let actor_opt =
            serialize::decode_optimizer(serialize::require_section(sections, "actor_opt")?)?;
        let critic_opt =
            serialize::decode_optimizer(serialize::require_section(sections, "critic_opt")?)?;
        let buffer = snapshot::decode_replay::<OptionTransition>(serialize::require_section(
            sections, "buffer",
        )?)?;
        for (i, t) in buffer.iter().enumerate() {
            self.check_segment(i, t)?;
        }
        serialize::decode_params(
            serialize::require_section(sections, "params")?,
            &self.parameters(),
        )?;
        serialize::decode_params(
            serialize::require_section(sections, "critic_target")?,
            &self.critic_target.parameters(),
        )?;
        self.actor_opt.import_state(actor_opt)?;
        self.critic_opt.import_state(critic_opt)?;
        self.buffer = buffer;
        Ok(())
    }

    /// Refuses replayed segment `i` unless an update can build its rows:
    /// an option and one option per opponent, each below `n_options`, and
    /// states as wide as the actor's input without the opponent columns.
    /// A segment that fails would panic the next update.
    fn check_segment(&self, i: usize, t: &OptionTransition) -> Result<(), CheckpointError> {
        let obs_dim = self.actor.in_dim() - self.n_opponents * self.n_options;
        let fits = t.option < self.n_options
            && t.other_options.len() == self.n_opponents
            && t.other_options.iter().all(|&o| o < self.n_options)
            && t.obs.len() == obs_dim
            && t.next_obs.len() == obs_dim;
        if fits {
            return Ok(());
        }
        Err(CheckpointError::Malformed(format!(
            "replayed segment {i} (option {}, other options {:?}, states {} and {} wide) does \
             not fit a learner of {} options, {} opponents and {obs_dim}-wide states",
            t.option,
            t.other_options,
            t.obs.len(),
            t.next_obs.len(),
            self.n_options,
            self.n_opponents
        )))
    }
}

/// Concatenates a `[n, a]` tensor with several `[n, b_i]` tensors along
/// columns, into a buffer from `pool`.
fn concat_rows(base: &Tensor, extras: &[Tensor], pool: &mut TensorPool) -> Tensor {
    let n = base.shape()[0];
    let width = base.shape()[1] + extras.iter().map(|t| t.shape()[1]).sum::<usize>();
    pool.matrix(n, width, |data| {
        for row in 0..n {
            data.extend_from_slice(base.row(row));
            for e in extras {
                data.extend_from_slice(e.row(row));
            }
        }
    })
}

/// Hands every tensor's buffer back to `pool`.
pub(crate) fn recycle(pool: &mut TensorPool, tensors: impl IntoIterator<Item = Tensor>) {
    for t in tensors {
        pool.put(t.into_data());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_cfg() -> HeroConfig {
        HeroConfig {
            hidden: 16,
            batch_size: 32,
            warmup: 32,
            ..HeroConfig::default()
        }
    }

    fn opponent(rng: &mut StdRng) -> OpponentModel {
        OpponentModel::new(1, 3, 4, 16, 0.01, 0.01, 1000, 32, rng)
    }

    /// Logits for one state, with one opponent's predicted distribution.
    fn logits_of(hl: &HighLevelLearner, obs: &[f32], opp: &[f32]) -> Vec<f32> {
        let x = Tensor::from_vec(vec![1, obs.len()], obs.to_vec());
        let p = Tensor::from_vec(vec![1, opp.len()], opp.to_vec());
        hl.logits(&x, &[p], &mut TensorPool::new()).remove(0)
    }

    /// The critic's `Q_h(s, o, o^{-i})` with one-hot opponent options.
    fn q_value(hl: &HighLevelLearner, obs: &[f32], option: usize, others: &[usize]) -> f32 {
        let mut row = obs.to_vec();
        push_one_hot(&mut row, option, hl.n_options);
        for &o in others {
            push_one_hot(&mut row, o, hl.n_options);
        }
        let x = Tensor::from_vec(vec![1, row.len()], row);
        hl.critic.infer_in(&x, &mut TensorPool::new()).item()
    }

    const UNIFORM: [f32; 4] = [0.25; 4];

    #[test]
    fn select_option_in_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let hl = HighLevelLearner::new(3, 4, 1, &small_cfg(), &mut rng);
        let logits = logits_of(&hl, &[0.1, 0.2, 0.3], &UNIFORM);
        for _ in 0..20 {
            let o = hl.select_from_logits(&logits, &mut rng, true, 0.1);
            assert!(o < 4);
        }
        let greedy_o = hl.select_from_logits(&logits, &mut rng, false, 0.0);
        let greedy_o2 = hl.select_from_logits(&logits, &mut rng, false, 0.0);
        assert_eq!(greedy_o, greedy_o2);
    }

    #[test]
    fn actor_conditions_on_opponent_prediction() {
        let mut rng = StdRng::seed_from_u64(1);
        let hl = HighLevelLearner::new(3, 4, 1, &small_cfg(), &mut rng);
        let a = logits_of(&hl, &[0.1, 0.2, 0.3], &[1.0, 0.0, 0.0, 0.0]);
        let b = logits_of(&hl, &[0.1, 0.2, 0.3], &[0.0, 0.0, 0.0, 1.0]);
        assert_ne!(a, b, "different opponent predictions must change logits");
    }

    #[test]
    fn no_update_before_warmup() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut hl = HighLevelLearner::new(3, 4, 1, &small_cfg(), &mut rng);
        let opp = opponent(&mut rng);
        assert!(hl.update(&mut rng, &opp).is_none());
    }

    fn segment(option: usize, other: usize, reward: f32) -> OptionTransition {
        OptionTransition {
            obs: vec![1.0, 0.0, 0.0],
            option,
            other_options: vec![other],
            reward,
            duration: 3,
            next_obs: vec![0.0, 1.0, 0.0],
            done: true,
        }
    }

    #[test]
    fn learns_to_prefer_rewarded_option() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut hl = HighLevelLearner::new(3, 4, 1, &small_cfg(), &mut rng);
        let opp = opponent(&mut rng);
        // Option 2 earns 1, everything else 0 (regardless of opponent).
        for _ in 0..30 {
            for o in 0..4 {
                hl.store(segment(o, 0, if o == 2 { 1.0 } else { 0.0 }));
            }
        }
        for _ in 0..200 {
            hl.update(&mut rng, &opp).unwrap();
        }
        let logits = logits_of(&hl, &[1.0, 0.0, 0.0], &UNIFORM);
        assert_eq!(greedy(&logits), 2, "logits: {logits:?}");
    }

    #[test]
    fn q_value_reflects_training_signal() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut hl = HighLevelLearner::new(3, 4, 1, &small_cfg(), &mut rng);
        let opp = opponent(&mut rng);
        for _ in 0..30 {
            hl.store(segment(1, 0, 2.0));
            hl.store(segment(3, 0, -2.0));
        }
        for _ in 0..200 {
            hl.update(&mut rng, &opp);
        }
        let q_good = q_value(&hl, &[1.0, 0.0, 0.0], 1, &[0]);
        let q_bad = q_value(&hl, &[1.0, 0.0, 0.0], 3, &[0]);
        assert!(
            q_good > q_bad + 0.5,
            "Q(good)={q_good} must exceed Q(bad)={q_bad}"
        );
    }

    #[test]
    #[should_panic(expected = "stale replay draw")]
    fn a_batch_is_refused_after_a_store() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut hl = HighLevelLearner::new(3, 4, 1, &small_cfg(), &mut rng);
        let opp = opponent(&mut rng);
        for o in 0..40 {
            hl.store(segment(o % 4, 0, 0.0));
        }
        let batch = hl.sample_batch(&mut rng).expect("past warm-up");
        hl.store(segment(0, 0, 0.0));
        hl.update_batch(&batch, &opp);
    }

    #[test]
    fn smdp_discounting_uses_duration() {
        // Two identical segments but different durations: with done=false
        // and a positive bootstrap the shorter duration discounts less.
        // Verified indirectly through the math: γ^1 > γ^5.
        let cfg = small_cfg();
        assert!(cfg.gamma.powi(1) > cfg.gamma.powi(5));
    }
}
