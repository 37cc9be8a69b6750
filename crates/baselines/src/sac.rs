//! Soft actor–critic (Haarnoja et al., 2018) for continuous control — the
//! algorithm the paper uses to learn the low-level driving skills
//! (Sec. III-D, Fig. 8).
//!
//! The actor is a tanh-squashed Gaussian; twin critics with Polyak targets
//! stabilize the soft TD target `r + γ(min Q' − α·log π)`. The entropy
//! temperature α can be fixed or auto-tuned toward a target entropy.

use hero_autograd::diagnostics::StepDiagnostics;
use hero_autograd::nn::{Activation, ConvEncoder, Linear, Mlp, Module};
use hero_autograd::optim::{Adam, Optimizer};
use hero_autograd::serialize::{self, put_f32, Reader};
use hero_autograd::{loss, zero_grads, CheckpointError, Graph, NodeId, Parameter, Tensor};
use rand::rngs::StdRng;

use hero_rl::buffer::ReplayBuffer;
use hero_rl::snapshot;
use hero_rl::rng::fill_standard_normal;
use hero_rl::target::{hard_update, soft_update};
use hero_rl::transition::ContinuousTransition;

use crate::common::{column, stack_rows, UpdateStats};

const LOG_2PI: f32 = 1.837_877_1;
const TANH_EPS: f32 = 1e-6;

/// How an observation vector is interpreted by the networks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ObsLayout {
    /// The whole observation feeds a plain MLP.
    #[default]
    Flat,
    /// The observation is `[image…, extras…]`: the image part runs through
    /// a convolutional encoder (the paper's CNN over the camera image,
    /// Sec. V-B) and is concatenated with the trailing extras.
    Image {
        /// Image channels.
        channels: usize,
        /// Image height.
        height: usize,
        /// Image width.
        width: usize,
        /// Number of scalar features after the image (speed, laneID,
        /// option conditioning, …).
        extras: usize,
    },
}

impl ObsLayout {
    /// Total observation width this layout expects.
    pub fn obs_dim(&self, flat_dim: usize) -> usize {
        match *self {
            ObsLayout::Flat => flat_dim,
            ObsLayout::Image {
                channels,
                height,
                width,
                extras,
            } => channels * height * width + extras,
        }
    }
}

/// Per-network feature extractor implementing an [`ObsLayout`].
#[derive(Debug)]
struct FeatureNet {
    layout: ObsLayout,
    conv: Option<ConvEncoder>,
    in_dim: usize,
    out_dim: usize,
}

impl FeatureNet {
    fn new(name: &str, layout: ObsLayout, flat_dim: usize, rng: &mut StdRng) -> Self {
        match layout {
            ObsLayout::Flat => Self {
                layout,
                conv: None,
                in_dim: flat_dim,
                out_dim: flat_dim,
            },
            ObsLayout::Image {
                channels,
                height,
                width,
                extras,
            } => {
                let conv = ConvEncoder::new(name, channels, height, width, rng);
                let out_dim = conv.out_dim() + extras;
                Self {
                    layout,
                    conv: Some(conv),
                    in_dim: channels * height * width + extras,
                    out_dim,
                }
            }
        }
    }

    fn forward(&self, g: &mut Graph, obs: NodeId) -> NodeId {
        match self.layout {
            ObsLayout::Flat => obs,
            ObsLayout::Image {
                channels,
                height,
                width,
                extras,
            } => {
                let conv = self.conv.as_ref().expect("image layout has an encoder");
                let n = g.value(obs).shape()[0];
                let img_len = channels * height * width;
                let img_flat = g.slice_cols(obs, 0..img_len);
                let img = g.reshape(img_flat, vec![n, channels, height, width]);
                let feat = conv.forward(g, img);
                if extras > 0 {
                    let extra = g.slice_cols(obs, img_len..img_len + extras);
                    g.concat_cols(feat, extra)
                } else {
                    feat
                }
            }
        }
    }
}

impl Module for FeatureNet {
    fn parameters(&self) -> Vec<Parameter> {
        self.conv.as_ref().map(Module::parameters).unwrap_or_default()
    }
}

/// SAC hyper-parameters (network sizes and rates follow the paper's
/// Table I).
#[derive(Clone, Copy, Debug)]
pub struct SacConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Learning rate for actor, critics, and α.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Polyak rate τ.
    pub tau: f32,
    /// Initial entropy temperature α.
    pub alpha: f32,
    /// When `true`, α is tuned toward `-action_dim` target entropy.
    pub auto_alpha: bool,
    /// Replay capacity.
    pub buffer_capacity: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Minimum stored transitions before updates begin.
    pub warmup: usize,
    /// Clamp range for the actor's log-std head.
    pub log_std_bounds: (f32, f32),
    /// How observations are interpreted (flat MLP or CNN over an image
    /// prefix).
    pub obs_layout: ObsLayout,
}

impl Default for SacConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            lr: 0.01,
            gamma: 0.95,
            tau: 0.01,
            alpha: 0.2,
            auto_alpha: true,
            buffer_capacity: 100_000,
            batch_size: 1024,
            warmup: 256,
            log_std_bounds: (-5.0, 2.0),
            obs_layout: ObsLayout::Flat,
        }
    }
}

/// A tanh-squashed Gaussian policy head (optionally behind a CNN feature
/// extractor).
#[derive(Debug)]
pub struct GaussianActor {
    features: FeatureNet,
    trunk: Mlp,
    mean_head: Linear,
    log_std_head: Linear,
    action_dim: usize,
    log_std_bounds: (f32, f32),
}

impl GaussianActor {
    /// Creates an actor for `obs_dim` → `action_dim` with the given hidden
    /// width.
    pub fn new(
        name: &str,
        obs_dim: usize,
        action_dim: usize,
        hidden: usize,
        log_std_bounds: (f32, f32),
        rng: &mut StdRng,
    ) -> Self {
        Self::with_layout(
            name,
            obs_dim,
            action_dim,
            hidden,
            log_std_bounds,
            ObsLayout::Flat,
            rng,
        )
    }

    /// Creates an actor with an explicit observation layout.
    pub fn with_layout(
        name: &str,
        obs_dim: usize,
        action_dim: usize,
        hidden: usize,
        log_std_bounds: (f32, f32),
        layout: ObsLayout,
        rng: &mut StdRng,
    ) -> Self {
        let features = FeatureNet::new(&format!("{name}.enc"), layout, obs_dim, rng);
        assert_eq!(
            features.in_dim, obs_dim,
            "observation layout does not match obs_dim"
        );
        let feat = features.out_dim;
        Self {
            features,
            trunk: Mlp::new(&format!("{name}.trunk"), &[feat, hidden, hidden], Activation::Relu, rng),
            mean_head: Linear::new(&format!("{name}.mean"), hidden, action_dim, rng),
            log_std_head: Linear::new(&format!("{name}.log_std"), hidden, action_dim, rng),
            action_dim,
            log_std_bounds,
        }
    }

    /// Action dimension.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Records the reparameterized sample `a = tanh(μ + σ·ε)` and its
    /// log-probability (with the tanh change-of-variables correction).
    /// `eps` must be a `[batch, action_dim]` standard-normal input node.
    /// Returns `(action, log_prob)` where `log_prob` is `[batch, 1]`.
    pub fn sample(&self, g: &mut Graph, obs: NodeId, eps: NodeId) -> (NodeId, NodeId) {
        let feat = self.features.forward(g, obs);
        let h = self.trunk.forward(g, feat);
        let h = g.relu(h);
        let mean = self.mean_head.forward(g, h);
        let log_std_raw = self.log_std_head.forward(g, h);
        let (lo, hi) = self.log_std_bounds;
        let log_std = g.clamp(log_std_raw, lo, hi);
        let std = g.exp(log_std);
        let noise = g.mul(std, eps);
        let u = g.add(mean, noise);
        let action = g.tanh(u);

        // log N(u | μ, σ) = -0.5 ε² − log σ − 0.5 ln 2π  (ε is the input
        // noise by construction, so only the −log σ term carries gradient
        // from the density itself; the tanh correction carries the rest).
        let eps_sq = g.mul(eps, eps);
        let gauss = g.scale(eps_sq, -0.5);
        let neg_log_std = g.neg(log_std);
        let base = g.add(gauss, neg_log_std);
        let base = g.add_scalar(base, -0.5 * LOG_2PI);
        let a_sq = g.mul(action, action);
        let neg_a_sq = g.neg(a_sq);
        let one_minus = g.add_scalar(neg_a_sq, 1.0 + TANH_EPS);
        let corr = g.ln(one_minus);
        let neg_corr = g.neg(corr);
        let per_dim = g.add(base, neg_corr);
        let log_prob = g.sum_rows(per_dim);
        (action, log_prob)
    }

    /// The deterministic (mean) action `tanh(μ)` for evaluation.
    pub fn mean_action(&self, obs: &[f32]) -> Vec<f32> {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1, obs.len()], obs.to_vec()));
        let feat = self.features.forward(&mut g, x);
        let h = self.trunk.forward(&mut g, feat);
        let h = g.relu(h);
        let mean = self.mean_head.forward(&mut g, h);
        let a = g.tanh(mean);
        g.value(a).data().to_vec()
    }
}

impl Module for GaussianActor {
    fn parameters(&self) -> Vec<Parameter> {
        let mut p = self.features.parameters();
        p.extend(self.trunk.parameters());
        p.extend(self.mean_head.parameters());
        p.extend(self.log_std_head.parameters());
        p
    }
}

/// A twin-critic Q-network `(obs, action) → value` behind the same
/// observation layout as the actor.
#[derive(Debug)]
struct Critic {
    features: FeatureNet,
    net: Mlp,
}

impl Critic {
    fn new(
        name: &str,
        obs_dim: usize,
        action_dim: usize,
        hidden: usize,
        layout: ObsLayout,
        rng: &mut StdRng,
    ) -> Self {
        let features = FeatureNet::new(&format!("{name}.enc"), layout, obs_dim, rng);
        let net = Mlp::new(
            name,
            &[features.out_dim + action_dim, hidden, hidden, 1],
            Activation::Relu,
            rng,
        );
        Self { features, net }
    }

    fn forward(&self, g: &mut Graph, obs: NodeId, action: NodeId) -> NodeId {
        let feat = self.features.forward(g, obs);
        let qin = g.concat_cols(feat, action);
        self.net.forward(g, qin)
    }
}

impl Module for Critic {
    fn parameters(&self) -> Vec<Parameter> {
        let mut p = self.features.parameters();
        p.extend(self.net.parameters());
        p
    }
}

/// A soft actor–critic agent over squashed actions in `[-1, 1]^d`.
#[derive(Debug)]
pub struct SacAgent {
    actor: GaussianActor,
    q1: Critic,
    q2: Critic,
    q1_target: Critic,
    q2_target: Critic,
    actor_opt: Adam,
    critic_opt: Adam,
    buffer: ReplayBuffer<ContinuousTransition>,
    cfg: SacConfig,
    log_alpha: f32,
    target_entropy: f32,
    obs_dim: usize,
}

impl SacAgent {
    /// Creates an agent for `obs_dim` observations and `action_dim`
    /// squashed continuous actions.
    pub fn new(obs_dim: usize, action_dim: usize, cfg: SacConfig, rng: &mut StdRng) -> Self {
        let actor = GaussianActor::with_layout(
            "sac.actor",
            obs_dim,
            action_dim,
            cfg.hidden,
            cfg.log_std_bounds,
            cfg.obs_layout,
            rng,
        );
        let mk = |name: &str, rng: &mut StdRng| {
            Critic::new(name, obs_dim, action_dim, cfg.hidden, cfg.obs_layout, rng)
        };
        let q1 = mk("sac.q1", rng);
        let q2 = mk("sac.q2", rng);
        let q1_target = mk("sac.q1t", rng);
        let q2_target = mk("sac.q2t", rng);
        hard_update(&q1.parameters(), &q1_target.parameters());
        hard_update(&q2.parameters(), &q2_target.parameters());
        let mut actor_opt = Adam::new(actor.parameters(), cfg.lr);
        actor_opt.set_diagnostics(StepDiagnostics::named("sac.actor"));
        let mut critic_params = q1.parameters();
        critic_params.extend(q2.parameters());
        let mut critic_opt = Adam::new(critic_params, cfg.lr);
        critic_opt.set_diagnostics(StepDiagnostics::named("sac.critic"));
        Self {
            actor,
            q1,
            q2,
            q1_target,
            q2_target,
            actor_opt,
            critic_opt,
            buffer: ReplayBuffer::new(cfg.buffer_capacity),
            cfg,
            log_alpha: cfg.alpha.max(1e-4).ln(),
            target_entropy: -(action_dim as f32),
            obs_dim,
        }
    }

    /// Current entropy temperature α.
    pub fn alpha(&self) -> f32 {
        self.log_alpha.exp()
    }

    /// The policy network (e.g. for checkpointing).
    pub fn actor(&self) -> &GaussianActor {
        &self.actor
    }

    /// Number of stored transitions.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Samples a stochastic action (training) or the mean action
    /// (evaluation) in `[-1, 1]^d`.
    pub fn act(&self, obs: &[f32], rng: &mut StdRng, stochastic: bool) -> Vec<f32> {
        assert_eq!(obs.len(), self.obs_dim, "observation width mismatch");
        if !stochastic {
            return self.actor.mean_action(obs);
        }
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1, obs.len()], obs.to_vec()));
        let mut eps_data = vec![0.0f32; self.actor.action_dim()];
        fill_standard_normal(rng, &mut eps_data);
        let eps = g.input(Tensor::from_vec(vec![1, self.actor.action_dim()], eps_data));
        let (a, _) = self.actor.sample(&mut g, x, eps);
        g.value(a).data().to_vec()
    }

    /// Stores a transition.
    pub fn observe(&mut self, t: ContinuousTransition) {
        self.buffer.push(t);
    }

    /// One SAC update (critics, actor, α); `None` before warm-up.
    pub fn update(&mut self, rng: &mut StdRng) -> Option<UpdateStats> {
        let need = self.cfg.warmup.max(self.cfg.batch_size.min(self.buffer.capacity()));
        if self.buffer.len() < need {
            return None;
        }
        let batch = self.buffer.sample(rng, self.cfg.batch_size);
        let n = batch.len();
        let act_dim = self.actor.action_dim();
        let obs: Vec<&[f32]> = batch.iter().map(|t| t.obs.as_slice()).collect();
        let next: Vec<&[f32]> = batch.iter().map(|t| t.next_obs.as_slice()).collect();
        let acts: Vec<&[f32]> = batch.iter().map(|t| t.action.as_slice()).collect();
        let obs_t = stack_rows(&obs);
        let next_t = stack_rows(&next);
        let acts_t = stack_rows(&acts);

        // Soft TD target (values only; no gradients).
        let alpha = self.alpha();
        let (next_q, next_logp) = {
            let mut g = Graph::new();
            let xn = g.input(next_t.clone());
            let mut eps_data = vec![0.0f32; n * act_dim];
            fill_standard_normal(rng, &mut eps_data);
            let eps = g.input(Tensor::from_vec(vec![n, act_dim], eps_data));
            let (a_next, logp_next) = self.actor.sample(&mut g, xn, eps);
            let xn2 = g.input(next_t.clone());
            let q1 = self.q1_target.forward(&mut g, xn2, a_next);
            let q2 = self.q2_target.forward(&mut g, xn2, a_next);
            let qmin = g.minimum(q1, q2);
            (
                g.value(qmin).data().to_vec(),
                g.value(logp_next).data().to_vec(),
            )
        };
        let targets: Vec<f32> = batch
            .iter()
            .enumerate()
            .map(|(i, t)| {
                t.reward
                    + if t.done {
                        0.0
                    } else {
                        self.cfg.gamma * (next_q[i] - alpha * next_logp[i])
                    }
            })
            .collect();

        // Critic update.
        let (critic_loss, q_mean) = {
            let mut g = Graph::new();
            let x = g.input(obs_t.clone());
            let a = g.input(acts_t);
            let q1 = self.q1.forward(&mut g, x, a);
            let q2 = self.q2.forward(&mut g, x, a);
            let y = g.input(column(&targets));
            let l1 = loss::mse(&mut g, q1, y);
            let l2 = loss::mse(&mut g, q2, y);
            let l = g.add(l1, l2);
            let total = g.sum(l);
            let value = g.value(total).item();
            let q_mean = (g.value(q1).mean() + g.value(q2).mean()) * 0.5;
            g.backward(total);
            self.critic_opt.step();
            (value / 2.0, q_mean)
        };

        // Actor update: minimize E[α·logπ − min Q]. Critic gradients from
        // this pass are discarded.
        let (actor_loss, mean_logp) = {
            let mut g = Graph::new();
            let x = g.input(obs_t);
            let mut eps_data = vec![0.0f32; n * act_dim];
            fill_standard_normal(rng, &mut eps_data);
            let eps = g.input(Tensor::from_vec(vec![n, act_dim], eps_data));
            let (a_new, logp) = self.actor.sample(&mut g, x, eps);
            let x2 = g.input(stack_rows(&obs));
            let q1 = self.q1.forward(&mut g, x2, a_new);
            let q2 = self.q2.forward(&mut g, x2, a_new);
            let qmin = g.minimum(q1, q2);
            let weighted = g.scale(logp, alpha);
            let diff = g.sub(weighted, qmin);
            let l = g.mean(diff);
            let value = g.value(l).item();
            let lp_mean = g.value(logp).mean();
            g.backward(l);
            self.actor_opt.step();
            zero_grads(self.critic_opt.parameters());
            (value, lp_mean)
        };

        // Temperature update toward the target entropy.
        if self.cfg.auto_alpha {
            let grad = -(mean_logp + self.target_entropy);
            self.log_alpha -= self.cfg.lr * grad;
            self.log_alpha = self.log_alpha.clamp(-10.0, 2.0);
        }

        soft_update(&self.q1.parameters(), &self.q1_target.parameters(), self.cfg.tau);
        soft_update(&self.q2.parameters(), &self.q2_target.parameters(), self.cfg.tau);

        if hero_rl::telemetry::is_enabled() {
            hero_rl::telemetry::observe("sac/alpha", f64::from(self.alpha()));
            hero_rl::telemetry::observe("sac/q_mean", f64::from(q_mean));
            hero_rl::telemetry::observe("sac/entropy", f64::from(-mean_logp));
        }

        Some(UpdateStats {
            critic_loss,
            actor_loss,
        })
    }

    /// All trainable parameters (actor followed by critics) for
    /// checkpointing.
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut p = self.actor.parameters();
        p.extend(self.q1.parameters());
        p.extend(self.q2.parameters());
        p
    }

    /// Target-network parameters (q1 target followed by q2 target).
    fn target_parameters(&self) -> Vec<Parameter> {
        let mut p = self.q1_target.parameters();
        p.extend(self.q2_target.parameters());
        p
    }

    /// Captures the complete agent state — networks, target networks, both
    /// Adam optimizers, the replay buffer, and the entropy temperature — as
    /// named checkpoint sections. Restoring via [`SacAgent::load_state`]
    /// makes continued training bit-identical to never having stopped.
    pub fn save_state(&self) -> Vec<(String, Vec<u8>)> {
        let mut scalars = Vec::with_capacity(8);
        put_f32(&mut scalars, self.log_alpha);
        put_f32(&mut scalars, self.target_entropy);
        vec![
            ("params".to_string(), serialize::encode_params(&self.parameters())),
            (
                "q_targets".to_string(),
                serialize::encode_params(&self.target_parameters()),
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
            ("scalars".to_string(), scalars),
        ]
    }

    /// Restores state captured by [`SacAgent::save_state`] into an agent
    /// built with the same dimensions and config.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when a section is missing, malformed, or
    /// shaped for a different architecture. The agent is left unchanged on
    /// a decode error in any section that is validated before application.
    pub fn load_state(&mut self, sections: &[(String, Vec<u8>)]) -> Result<(), CheckpointError> {
        // Decode everything fallible first, then apply.
        let actor_state =
            serialize::decode_optimizer(serialize::require_section(sections, "actor_opt")?)?;
        let critic_state =
            serialize::decode_optimizer(serialize::require_section(sections, "critic_opt")?)?;
        let buffer = snapshot::decode_replay::<ContinuousTransition>(serialize::require_section(
            sections, "buffer",
        )?)?;
        let mut scalars = Reader::new(serialize::require_section(sections, "scalars")?);
        let log_alpha = scalars.f32()?;
        let target_entropy = scalars.f32()?;
        scalars.finish("sac scalars")?;
        if !log_alpha.is_finite() || !target_entropy.is_finite() {
            return Err(CheckpointError::Malformed(
                "sac scalars are not finite".to_string(),
            ));
        }

        serialize::decode_params(
            serialize::require_section(sections, "params")?,
            &self.parameters(),
        )?;
        serialize::decode_params(
            serialize::require_section(sections, "q_targets")?,
            &self.target_parameters(),
        )?;
        self.actor_opt.import_state(actor_state)?;
        self.critic_opt.import_state(critic_state)?;
        self.buffer = buffer;
        self.log_alpha = log_alpha;
        self.target_entropy = target_entropy;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_cfg() -> SacConfig {
        SacConfig {
            hidden: 16,
            batch_size: 32,
            warmup: 32,
            lr: 0.01,
            ..SacConfig::default()
        }
    }

    #[test]
    fn actions_are_squashed() {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = SacAgent::new(3, 2, small_cfg(), &mut rng);
        for _ in 0..20 {
            let a = agent.act(&[0.1, -0.2, 0.3], &mut rng, true);
            assert_eq!(a.len(), 2);
            assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)), "{a:?}");
        }
        let det = agent.act(&[0.1, -0.2, 0.3], &mut rng, false);
        let det2 = agent.act(&[0.1, -0.2, 0.3], &mut rng, false);
        assert_eq!(det, det2, "mean action is deterministic");
    }

    #[test]
    fn log_prob_is_finite_and_negative_for_diffuse_policy() {
        let mut rng = StdRng::seed_from_u64(1);
        let agent = SacAgent::new(2, 2, small_cfg(), &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![4, 2], vec![0.1; 8]));
        let eps = g.input(Tensor::from_vec(vec![4, 2], vec![0.3; 8]));
        let (_, logp) = agent.actor.sample(&mut g, x, eps);
        assert!(g.value(logp).all_finite());
    }

    /// Bandit: reward = 1 - a², maximized at a = 0 (after squashing,
    /// actions near 0).
    #[test]
    fn learns_a_continuous_bandit() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut agent = SacAgent::new(1, 1, small_cfg(), &mut rng);
        for _ in 0..300 {
            let a = agent.act(&[1.0], &mut rng, true);
            let r = 1.0 - a[0] * a[0];
            agent.observe(ContinuousTransition {
                obs: vec![1.0],
                action: a,
                reward: r,
                next_obs: vec![1.0],
                done: true,
            });
            agent.update(&mut rng);
        }
        for _ in 0..200 {
            agent.update(&mut rng);
        }
        let a = agent.act(&[1.0], &mut rng, false);
        assert!(
            a[0].abs() < 0.35,
            "policy should concentrate near 0, got {}",
            a[0]
        );
    }

    #[test]
    fn alpha_auto_tunes_downward_when_entropy_high() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut agent = SacAgent::new(1, 1, small_cfg(), &mut rng);
        let initial = agent.alpha();
        for _ in 0..100 {
            let a = agent.act(&[0.5], &mut rng, true);
            agent.observe(ContinuousTransition {
                obs: vec![0.5],
                action: a,
                reward: 0.0,
                next_obs: vec![0.5],
                done: false,
            });
            agent.update(&mut rng);
        }
        assert_ne!(agent.alpha(), initial, "alpha should move when auto-tuned");
        assert!(agent.alpha().is_finite());
    }

    #[test]
    fn no_update_before_warmup() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut agent = SacAgent::new(2, 1, small_cfg(), &mut rng);
        assert!(agent.update(&mut rng).is_none());
    }

    #[test]
    fn vision_layout_agent_acts_and_updates() {
        let layout = ObsLayout::Image {
            channels: 1,
            height: 6,
            width: 6,
            extras: 2,
        };
        let obs_dim = layout.obs_dim(0);
        assert_eq!(obs_dim, 38);
        let cfg = SacConfig {
            obs_layout: layout,
            hidden: 8,
            batch_size: 8,
            warmup: 8,
            ..SacConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut agent = SacAgent::new(obs_dim, 2, cfg, &mut rng);
        let obs: Vec<f32> = (0..obs_dim).map(|i| (i % 3) as f32 * 0.3).collect();
        let a = agent.act(&obs, &mut rng, true);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
        for i in 0..16 {
            agent.observe(ContinuousTransition {
                obs: obs.clone(),
                action: vec![0.1 * (i % 5) as f32, -0.2],
                reward: (i % 3) as f32 * 0.5,
                next_obs: obs.clone(),
                done: i % 4 == 0,
            });
        }
        let stats = agent.update(&mut rng).expect("warmup satisfied");
        assert!(stats.critic_loss.is_finite());
        assert!(stats.actor_loss.is_finite());
        // Conv encoder parameters must be part of the trainable set.
        assert!(agent.parameters().len() > SacAgent::new(obs_dim, 2, SacConfig {
            obs_layout: ObsLayout::Flat,
            hidden: 8,
            ..SacConfig::default()
        }, &mut rng).parameters().len() - 6, "encoder params present");
    }

    #[test]
    fn save_load_state_resumes_bit_identically() {
        let drive = |agent: &mut SacAgent, rng: &mut StdRng, steps: usize| -> Vec<f32> {
            let mut out = Vec::new();
            for i in 0..steps {
                let obs = vec![(i % 7) as f32 * 0.1, -0.3];
                let a = agent.act(&obs, rng, true);
                out.extend_from_slice(&a);
                let r = 0.5 - a[0] * a[0];
                agent.observe(ContinuousTransition {
                    obs,
                    action: a,
                    reward: r,
                    next_obs: vec![((i + 1) % 7) as f32 * 0.1, -0.3],
                    done: i % 5 == 0,
                });
                if let Some(stats) = agent.update(rng) {
                    out.push(stats.critic_loss);
                    out.push(stats.actor_loss);
                }
            }
            out.push(agent.alpha());
            out
        };

        // Uninterrupted reference run: 40 warmup/training steps + 30 more.
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut agent_a = SacAgent::new(2, 1, small_cfg(), &mut rng_a);
        drive(&mut agent_a, &mut rng_a, 40);
        let tail_a = drive(&mut agent_a, &mut rng_a, 30);

        // Interrupted run: same 40 steps, snapshot, restore into a FRESH
        // agent (different init seed), resume the rng stream, continue.
        let mut rng_b = StdRng::seed_from_u64(11);
        let mut agent_b = SacAgent::new(2, 1, small_cfg(), &mut rng_b);
        drive(&mut agent_b, &mut rng_b, 40);
        let sections = agent_b.save_state();
        let rng_state = rng_b.state();
        drop(agent_b);

        let mut scratch = StdRng::seed_from_u64(999);
        let mut restored = SacAgent::new(2, 1, small_cfg(), &mut scratch);
        restored.load_state(&sections).unwrap();
        let mut rng_c = StdRng::from_state(rng_state);
        let tail_b = drive(&mut restored, &mut rng_c, 30);

        assert_eq!(tail_a, tail_b, "resumed run must match uninterrupted run");
    }

    #[test]
    fn load_state_rejects_missing_and_malformed_sections() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut agent = SacAgent::new(2, 1, small_cfg(), &mut rng);
        let mut sections = agent.save_state();
        sections.retain(|(name, _)| name != "critic_opt");
        assert!(matches!(
            agent.load_state(&sections),
            Err(CheckpointError::MissingSection(_))
        ));

        let mut sections = agent.save_state();
        for (name, bytes) in &mut sections {
            if name == "scalars" {
                bytes.truncate(3);
            }
        }
        assert!(agent.load_state(&sections).is_err());
    }

    #[test]
    fn vision_layout_rejects_wrong_obs_dim() {
        let layout = ObsLayout::Image {
            channels: 1,
            height: 6,
            width: 6,
            extras: 2,
        };
        let cfg = SacConfig {
            obs_layout: layout,
            hidden: 8,
            ..SacConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SacAgent::new(10, 2, cfg, &mut rng)
        }));
        assert!(result.is_err(), "obs_dim must match the layout");
    }
}
