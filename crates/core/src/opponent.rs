//! The opponent-modeling network (Sec. III-C): each agent trains one
//! network per opponent that predicts the opponent's *option* selection
//! from the agent's own high-level state, by maximizing the observed log
//! likelihood with an entropy regularizer:
//!
//! `L(θ^{-i}) = −E[ log π̂^{-i}(o^{-i} | s_h^i) + λ·H(π̂^{-i}) ]`
//!
//! Modeling temporally extended options instead of primitive actions is
//! the paper's key twist: options are stable over several steps, so the
//! prediction problem is tractable and the learned model stabilizes the
//! high-level Q-function against non-stationarity.

use hero_autograd::diagnostics::StepDiagnostics;
use hero_autograd::nn::{Activation, Mlp, Module};
use hero_autograd::optim::{Adam, Optimizer};
use hero_autograd::serialize::{self, put_u64, Reader};
use hero_autograd::{loss, CheckpointError, Graph, Parameter, Tensor, TensorPool};
use rand::rngs::StdRng;

use hero_rl::buffer::{Draw, ReplayBuffer};
use hero_rl::rng::softmax;
use hero_rl::snapshot;

/// One observation for the opponent model: the agent's own high-level
/// state paired with every opponent's observed option.
#[derive(Clone, Debug, PartialEq)]
pub struct OpponentSample {
    /// The observing agent's high-level state `s_h^i`.
    pub obs: Vec<f32>,
    /// The options the opponents selected (one per opponent, in a fixed
    /// order).
    pub options: Vec<usize>,
}

/// A pre-sampled minibatch for [`OpponentModel::update_batch`], produced
/// by [`OpponentModel::sample_batch`]: replay slots, valid until the next
/// [`OpponentModel::observe`].
#[derive(Clone, Debug)]
pub struct OpponentBatch {
    draw: Draw,
}

/// Per-opponent option-prediction networks for one agent.
#[derive(Debug)]
pub struct OpponentModel {
    nets: Vec<Mlp>,
    opts: Vec<Adam>,
    buffer: ReplayBuffer<OpponentSample>,
    entropy_weight: f32,
    batch_size: usize,
    obs_dim: usize,
    n_options: usize,
    informative: bool,
    /// Reused tape arena for update passes (see `Graph::reset`).
    graph: Graph,
}

impl OpponentModel {
    /// Creates models for `n_opponents` opponents, each mapping the
    /// `obs_dim`-dimensional own state to `n_options` logits.
    pub fn new(
        n_opponents: usize,
        obs_dim: usize,
        n_options: usize,
        hidden: usize,
        lr: f32,
        entropy_weight: f32,
        buffer_capacity: usize,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> Self {
        let nets: Vec<Mlp> = (0..n_opponents)
            .map(|j| {
                Mlp::new(
                    &format!("opponent.{j}"),
                    &[obs_dim, hidden, hidden, n_options],
                    Activation::Relu,
                    rng,
                )
            })
            .collect();
        let opts = nets
            .iter()
            .map(|n| {
                let mut opt = Adam::new(n.parameters(), lr);
                opt.set_diagnostics(StepDiagnostics::named("opponent"));
                opt
            })
            .collect();
        Self {
            nets,
            opts,
            buffer: ReplayBuffer::new(buffer_capacity),
            entropy_weight,
            batch_size,
            obs_dim,
            n_options,
            informative: true,
            graph: Graph::new(),
        }
    }

    /// Disables (or re-enables) the model: while disabled, predictions are
    /// exactly uniform and [`OpponentModel::update`] is a no-op — the
    /// "without opponent modeling" ablation of Sec. III-C.
    pub fn set_informative(&mut self, informative: bool) {
        self.informative = informative;
    }

    /// Number of modeled opponents.
    pub fn num_opponents(&self) -> usize {
        self.nets.len()
    }

    /// Number of samples waiting in the model buffer `D_h^{-i}`.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Predicted option *probabilities* for every opponent over a
    /// `[n, obs_dim]` tensor of own states — the `ô^{-i}` fed to the
    /// high-level actor and TD target. Returns one `[n, n_options]` tensor
    /// per opponent. Every buffer, the returned ones included, comes from
    /// `pool`; hand those back with `pool.put`. Row `r` is bitwise
    /// identical to a one-row call on row `r` alone.
    pub fn predict_probs(&self, obs: &Tensor, pool: &mut TensorPool) -> Vec<Tensor> {
        let n = obs.shape()[0];
        let width = self.n_options;
        self.nets
            .iter()
            .map(|net| {
                if !self.informative {
                    return pool.matrix(n, width, |d| d.resize(n * width, 1.0 / width as f32));
                }
                let logits = net.infer_in(obs, pool);
                let probs = pool.matrix(n, width, |d| {
                    for row in 0..n {
                        d.extend(softmax(logits.row(row)));
                    }
                });
                pool.put(logits.into_data());
                probs
            })
            .collect()
    }

    /// Stores one `(s_h^i, o^{-i})` observation (Algorithm 1, line 23).
    ///
    /// # Panics
    ///
    /// Panics when the option count does not match the opponent count.
    pub fn observe(&mut self, obs: Vec<f32>, options: Vec<usize>) {
        assert_eq!(
            options.len(),
            self.nets.len(),
            "one observed option per opponent required"
        );
        self.buffer.push(OpponentSample { obs, options });
    }

    /// One entropy-regularized NLL update per opponent model; returns the
    /// per-opponent losses, or `None` before enough data has arrived.
    pub fn update(&mut self, rng: &mut StdRng) -> Option<Vec<f32>> {
        let batch = self.sample_batch(rng)?;
        Some(self.update_batch(&batch))
    }

    /// Draws the next update's minibatch, or `None` before enough data has
    /// arrived. This is the only RNG-consuming half of an update, so a
    /// coordinator can sample every agent's batch in a fixed order and run
    /// the compute ([`OpponentModel::update_batch`]) on worker threads
    /// without perturbing the random stream.
    pub fn sample_batch(&self, rng: &mut StdRng) -> Option<OpponentBatch> {
        if !self.informative || self.buffer.len() < self.batch_size.min(64) {
            return None;
        }
        let draw = {
            let _span = hero_rl::telemetry::span("replay_sample");
            self.buffer.draw(rng, self.batch_size)
        };
        hero_rl::telemetry::counter_add("transitions_sampled", self.batch_size as u64);
        Some(OpponentBatch { draw })
    }

    /// The compute half of [`OpponentModel::update`]: trains every
    /// opponent network on the pre-sampled `batch` and returns the
    /// per-opponent NLL losses. Consumes no randomness.
    ///
    /// # Panics
    ///
    /// Panics when an observation was stored since `batch` was drawn.
    pub fn update_batch(&mut self, batch: &OpponentBatch) -> Vec<f32> {
        let batch = self.buffer.resolve(&batch.draw);
        let (n, d) = (batch.len(), batch[0].obs.len());
        let width = self.n_options;

        let mut losses = Vec::with_capacity(self.nets.len());
        for (j, (net, opt)) in self.nets.iter().zip(&mut self.opts).enumerate() {
            // Reuse one graph arena across updates: reset() recycles every
            // node buffer, the pooled inputs included, instead of
            // reallocating per minibatch.
            let mut g = std::mem::take(&mut self.graph);
            g.reset();
            let pool = g.pool();
            let obs = pool.matrix(n, d, |data| {
                for s in &batch {
                    data.extend_from_slice(&s.obs);
                }
            });
            let picked = pool.matrix(n, width, |data| {
                for s in &batch {
                    push_one_hot(data, s.options[j], width);
                }
            });
            let x = g.input(obs);
            let logits = net.forward(&mut g, x);
            let targets = g.input(picked);
            let nll = loss::cross_entropy(&mut g, logits, targets);
            // Subtract λ·H: minimizing (NLL − λ·H) maximizes logprob + λH.
            let entropy = loss::categorical_entropy(&mut g, logits);
            let ent_term = g.scale(entropy, -self.entropy_weight);
            let l = g.add(nll, ent_term);
            let nll_value = g.value(nll).item();
            losses.push(nll_value);
            if hero_rl::telemetry::is_enabled() {
                // Prediction quality vs the options actually selected:
                // per-batch cross-entropy and top-1 accuracy (DESIGN.md
                // "learning-dynamics metrics": opponent/xent,
                // opponent/accuracy — the Fig. 10 loss curve signal).
                let logit_rows = g.value(logits);
                let correct = batch
                    .iter()
                    .enumerate()
                    .filter(|&(row, s)| {
                        hero_rl::explore::greedy(logit_rows.row(row)) == s.options[j]
                    })
                    .count();
                hero_rl::telemetry::observe("opponent/xent", nll_value as f64);
                hero_rl::telemetry::observe("opponent/accuracy", correct as f64 / n.max(1) as f64);
            }
            g.backward(l);
            opt.step();
            self.graph = g;
        }
        losses
    }

    /// Trainable parameters of every opponent network (for checkpointing).
    pub fn parameters(&self) -> Vec<Parameter> {
        self.nets.iter().flat_map(|n| n.parameters()).collect()
    }

    /// Captures the model's full state — every opponent network, its Adam
    /// optimizer, and the observation buffer — as named sections (relative
    /// names; the caller prefixes them per agent).
    pub fn save_state(&self) -> Vec<(String, Vec<u8>)> {
        let mut opts = Vec::new();
        put_u64(&mut opts, self.opts.len() as u64);
        for opt in &self.opts {
            let blob = serialize::encode_optimizer(&opt.export_state());
            put_u64(&mut opts, blob.len() as u64);
            opts.extend_from_slice(&blob);
        }
        vec![
            ("params".to_string(), serialize::encode_params(&self.parameters())),
            ("opts".to_string(), opts),
            ("buffer".to_string(), snapshot::encode_replay(&self.buffer)),
        ]
    }

    /// Restores state captured by [`OpponentModel::save_state`] into a
    /// model built with the same dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when a section is missing, malformed, or
    /// sized for a different opponent count/architecture, or when a
    /// replayed sample holds an option out of range, the wrong number of
    /// options, or a state of the wrong width; that check runs before
    /// anything is written.
    pub fn load_state(&mut self, sections: &[(String, Vec<u8>)]) -> Result<(), CheckpointError> {
        let mut r = Reader::new(serialize::require_section(sections, "opts")?);
        let n = r.u64()? as usize;
        if n != self.opts.len() {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint has {n} opponent optimizers, model has {}",
                self.opts.len()
            )));
        }
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.len(1)?;
            states.push(serialize::decode_optimizer(r.take(len)?)?);
        }
        r.finish("opponent opts")?;
        let buffer = snapshot::decode_replay::<OpponentSample>(serialize::require_section(
            sections, "buffer",
        )?)?;
        for (i, s) in buffer.iter().enumerate() {
            self.check_sample(i, s)?;
        }
        serialize::decode_params(
            serialize::require_section(sections, "params")?,
            &self.parameters(),
        )?;
        for (opt, state) in self.opts.iter_mut().zip(states) {
            opt.import_state(state)?;
        }
        self.buffer = buffer;
        Ok(())
    }

    /// Refuses replayed sample `i` unless an update can train on it: one
    /// option per opponent net, each below `n_options`, and a state
    /// `obs_dim` wide. A sample that fails would panic the next update.
    fn check_sample(&self, i: usize, s: &OpponentSample) -> Result<(), CheckpointError> {
        let fits = s.options.len() == self.nets.len()
            && s.options.iter().all(|&o| o < self.n_options)
            && s.obs.len() == self.obs_dim;
        if fits {
            return Ok(());
        }
        Err(CheckpointError::Malformed(format!(
            "replayed sample {i} (options {:?}, state {} wide) does not fit a model of {} nets \
             of {} options and {}-wide states",
            s.options,
            s.obs.len(),
            self.nets.len(),
            self.n_options,
            self.obs_dim
        )))
    }
}

/// Pushes the `width`-wide one-hot encoding of `hot`.
///
/// # Panics
///
/// Panics when `hot >= width`.
pub(crate) fn push_one_hot(data: &mut Vec<f32>, hot: usize, width: usize) {
    assert!(hot < width, "one-hot index {hot} out of range {width}");
    data.extend((0..width).map(|k| if k == hot { 1.0 } else { 0.0 }));
}

impl snapshot::Codec for OpponentSample {
    fn encode(&self, out: &mut Vec<u8>) {
        self.obs.encode(out);
        self.options.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Self {
            obs: snapshot::Codec::decode(r)?,
            options: snapshot::Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn model(rng: &mut StdRng) -> OpponentModel {
        OpponentModel::new(2, 3, 4, 16, 0.01, 0.01, 10_000, 64, rng)
    }

    /// Per-opponent probabilities for one observation.
    fn probs(m: &OpponentModel, obs: &[f32]) -> Vec<Vec<f32>> {
        let x = Tensor::from_vec(vec![1, obs.len()], obs.to_vec());
        m.predict_probs(&x, &mut TensorPool::new())
            .into_iter()
            .map(Tensor::into_data)
            .collect()
    }

    #[test]
    fn predictions_are_distributions() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = model(&mut rng);
        let probs = probs(&m, &[0.1, 0.2, 0.3]);
        assert_eq!(probs.len(), 2);
        for p in &probs {
            assert_eq!(p.len(), 4);
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn batched_predictions_match_single_rows_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = model(&mut rng);
        let rows = [[0.1, 0.2, 0.3], [0.7, -0.4, 0.0], [-1.0, 0.5, 0.25]];
        let x = Tensor::from_vec(vec![3, 3], rows.concat());
        let batched = m.predict_probs(&x, &mut TensorPool::new());
        for (r, row) in rows.iter().enumerate() {
            for (net, single) in batched.iter().zip(probs(&m, row)) {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(net.row(r)), bits(&single), "row {r}");
            }
        }
    }

    #[test]
    fn learns_a_state_dependent_opponent_policy() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = model(&mut rng);
        // Opponent 0 always picks option 2 in state A and option 0 in
        // state B; opponent 1 always picks option 1.
        for _ in 0..200 {
            m.observe(vec![1.0, 0.0, 0.0], vec![2, 1]);
            m.observe(vec![0.0, 1.0, 0.0], vec![0, 1]);
        }
        let mut last = Vec::new();
        for _ in 0..200 {
            if let Some(l) = m.update(&mut rng) {
                last = l;
            }
        }
        assert!(!last.is_empty());
        let probs_a = probs(&m, &[1.0, 0.0, 0.0]);
        assert!(probs_a[0][2] > 0.7, "opp 0 in state A: {:?}", probs_a[0]);
        assert!(probs_a[1][1] > 0.7, "opp 1: {:?}", probs_a[1]);
        let probs_b = probs(&m, &[0.0, 1.0, 0.0]);
        assert!(probs_b[0][0] > 0.7, "opp 0 in state B: {:?}", probs_b[0]);
    }

    #[test]
    fn loss_decreases_on_predictable_opponent() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = model(&mut rng);
        for _ in 0..200 {
            m.observe(vec![0.5, 0.5, 0.0], vec![3, 0]);
        }
        let first = m.update(&mut rng).unwrap();
        for _ in 0..100 {
            m.update(&mut rng);
        }
        let last = m.update(&mut rng).unwrap();
        assert!(last[0] < first[0], "{first:?} -> {last:?}");
        assert!(last[1] < first[1]);
    }

    #[test]
    fn entropy_regularization_keeps_predictions_soft_early() {
        // With a huge λ the model should stay near uniform even on
        // deterministic data.
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = OpponentModel::new(1, 2, 4, 16, 0.01, 5.0, 1_000, 32, &mut rng);
        for _ in 0..100 {
            m.observe(vec![1.0, 0.0], vec![0]);
        }
        for _ in 0..100 {
            m.update(&mut rng);
        }
        let p = probs(&m, &[1.0, 0.0]);
        assert!(
            p[0][0] < 0.6,
            "strong entropy reg must prevent a collapsed prediction: {:?}",
            p[0]
        );
    }

    #[test]
    #[should_panic(expected = "one observed option per opponent")]
    fn observe_rejects_wrong_arity() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = model(&mut rng);
        m.observe(vec![0.0; 3], vec![1]);
    }
}
