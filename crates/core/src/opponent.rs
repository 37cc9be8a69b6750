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
use hero_autograd::{loss, serialize, CheckpointError, Graph, Parameter, Tensor, TensorPool};
use rand::rngs::StdRng;

use hero_rl::buffer::ReplayBuffer;
use hero_rl::rng::{log_softmax, softmax};
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
/// by [`OpponentModel::sample_batch`].
#[derive(Clone, Debug)]
pub struct OpponentBatch {
    samples: Vec<OpponentSample>,
}

/// Per-opponent option-prediction networks for one agent.
#[derive(Debug)]
pub struct OpponentModel {
    nets: Vec<Mlp>,
    opts: Vec<Adam>,
    buffer: ReplayBuffer<OpponentSample>,
    entropy_weight: f32,
    batch_size: usize,
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

    /// Whether the model is enabled (see
    /// [`OpponentModel::set_informative`]).
    pub fn is_informative(&self) -> bool {
        self.informative
    }

    /// Number of modeled opponents.
    pub fn num_opponents(&self) -> usize {
        self.nets.len()
    }

    /// Number of samples waiting in the model buffer `D_h^{-i}`.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Predicted option *probabilities* for every opponent given the own
    /// state — the `ô^{-i}` fed to the high-level actor and TD target.
    pub fn predict_probs(&self, obs: &[f32]) -> Vec<Vec<f32>> {
        if !self.informative {
            return vec![vec![1.0 / self.n_options as f32; self.n_options]; self.nets.len()];
        }
        self.nets
            .iter()
            .map(|net| {
                let logits = net
                    .infer(&Tensor::from_vec(vec![1, obs.len()], obs.to_vec()))
                    .into_data();
                softmax(&logits)
            })
            .collect()
    }

    /// Batched prediction: option probabilities for every opponent over a
    /// `[batch, obs_dim]` tensor of own states. Returns one
    /// `[batch, n_options]` tensor per opponent.
    pub fn predict_probs_batch(&self, obs: &Tensor) -> Vec<Tensor> {
        let n = obs.shape()[0];
        if !self.informative {
            let uniform = Tensor::full(vec![n, self.n_options], 1.0 / self.n_options as f32);
            return vec![uniform; self.nets.len()];
        }
        self.nets
            .iter()
            .map(|net| {
                let logits = net.infer(obs);
                let mut data = Vec::with_capacity(n * self.n_options);
                for row in 0..n {
                    data.extend(softmax(logits.row(row)));
                }
                Tensor::from_vec(vec![n, self.n_options], data)
            })
            .collect()
    }

    /// [`OpponentModel::predict_probs_batch`] through the inference-only
    /// forward path: no autodiff graph, activations recycled via `pool`.
    /// Bitwise identical to the graph path ([`Mlp::infer_in`] replicates
    /// the tape ops' arithmetic exactly).
    pub fn predict_probs_batch_in(&self, obs: &Tensor, pool: &mut TensorPool) -> Vec<Tensor> {
        let n = obs.shape()[0];
        if !self.informative {
            let uniform = Tensor::full(vec![n, self.n_options], 1.0 / self.n_options as f32);
            return vec![uniform; self.nets.len()];
        }
        self.nets
            .iter()
            .map(|net| {
                let logits = net.infer_in(obs, pool);
                let mut data = Vec::with_capacity(n * self.n_options);
                for row in 0..n {
                    data.extend(softmax(logits.row(row)));
                }
                pool.put(logits.into_data());
                Tensor::from_vec(vec![n, self.n_options], data)
            })
            .collect()
    }

    /// Predicted log-probabilities for every opponent.
    pub fn predict_log_probs(&self, obs: &[f32]) -> Vec<Vec<f32>> {
        if !self.informative {
            let lp = -(self.n_options as f32).ln();
            return vec![vec![lp; self.n_options]; self.nets.len()];
        }
        self.nets
            .iter()
            .map(|net| {
                let logits = net
                    .infer(&Tensor::from_vec(vec![1, obs.len()], obs.to_vec()))
                    .into_data();
                log_softmax(&logits)
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
        let samples: Vec<OpponentSample> = {
            let _span = hero_rl::telemetry::span("replay_sample");
            self.buffer
                .sample(rng, self.batch_size)
                .into_iter()
                .cloned()
                .collect()
        };
        hero_rl::telemetry::counter_add("transitions_sampled", samples.len() as u64);
        Some(OpponentBatch { samples })
    }

    /// The compute half of [`OpponentModel::update`]: trains every
    /// opponent network on the pre-sampled `batch` and returns the
    /// per-opponent NLL losses. Consumes no randomness.
    pub fn update_batch(&mut self, batch: &OpponentBatch) -> Vec<f32> {
        let batch = &batch.samples;
        let obs_rows: Vec<&[f32]> = batch.iter().map(|s| s.obs.as_slice()).collect();
        let obs_t = {
            let d = obs_rows[0].len();
            let mut data = Vec::with_capacity(obs_rows.len() * d);
            for r in &obs_rows {
                data.extend_from_slice(r);
            }
            Tensor::from_vec(vec![obs_rows.len(), d], data)
        };

        let mut losses = Vec::with_capacity(self.nets.len());
        for (j, (net, opt)) in self.nets.iter().zip(&mut self.opts).enumerate() {
            let picked: Vec<usize> = batch.iter().map(|s| s.options[j]).collect();
            // Reuse one graph arena across updates: reset() recycles every
            // node buffer instead of reallocating per minibatch.
            let mut g = std::mem::take(&mut self.graph);
            g.reset();
            let x = g.input(obs_t.clone());
            let logits = net.forward(&mut g, x);
            let targets = g.input(Tensor::one_hot(&picked, self.n_options));
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
                let correct = picked
                    .iter()
                    .enumerate()
                    .filter(|&(row, &o)| hero_rl::explore::greedy(logit_rows.row(row)) == o)
                    .count();
                hero_rl::telemetry::observe("opponent/xent", nll_value as f64);
                hero_rl::telemetry::observe(
                    "opponent/accuracy",
                    correct as f64 / picked.len().max(1) as f64,
                );
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
        opts.extend_from_slice(&(self.opts.len() as u64).to_le_bytes());
        for opt in &self.opts {
            let blob = serialize::encode_optimizer(&opt.export_state());
            opts.extend_from_slice(&(blob.len() as u64).to_le_bytes());
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
    /// sized for a different opponent count/architecture.
    pub fn load_state(&mut self, sections: &[(String, Vec<u8>)]) -> Result<(), CheckpointError> {
        let malformed = |what: String| CheckpointError::Malformed(what);
        let opts_blob = serialize::require_section(sections, "opts")?;
        let mut r = snapshot::Reader::new(opts_blob);
        let n = r
            .u64()
            .map_err(|e| malformed(format!("opponent opts: {e}")))? as usize;
        if n != self.opts.len() {
            return Err(malformed(format!(
                "checkpoint has {n} opponent optimizers, model has {}",
                self.opts.len()
            )));
        }
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r
                .len(1)
                .map_err(|e| malformed(format!("opponent opts: {e}")))?;
            let blob = r
                .take(len)
                .map_err(|e| malformed(format!("opponent opts: {e}")))?;
            states.push(serialize::decode_optimizer(blob)?);
        }
        let buffer = snapshot::decode_replay::<OpponentSample>(serialize::require_section(
            sections, "buffer",
        )?)
        .map_err(|e| malformed(format!("opponent buffer: {e}")))?;
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
}

impl snapshot::Codec for OpponentSample {
    fn encode(&self, out: &mut Vec<u8>) {
        self.obs.encode(out);
        self.options.encode(out);
    }
    fn decode(r: &mut snapshot::Reader<'_>) -> Result<Self, snapshot::SnapshotError> {
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

    #[test]
    fn predictions_are_distributions() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = model(&mut rng);
        let probs = m.predict_probs(&[0.1, 0.2, 0.3]);
        assert_eq!(probs.len(), 2);
        for p in &probs {
            assert_eq!(p.len(), 4);
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
        let logp = m.predict_log_probs(&[0.1, 0.2, 0.3]);
        for (p, lp) in probs.iter().zip(&logp) {
            for (a, b) in p.iter().zip(lp) {
                assert!((a.ln() - b).abs() < 1e-4);
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
        let probs_a = m.predict_probs(&[1.0, 0.0, 0.0]);
        assert!(probs_a[0][2] > 0.7, "opp 0 in state A: {:?}", probs_a[0]);
        assert!(probs_a[1][1] > 0.7, "opp 1: {:?}", probs_a[1]);
        let probs_b = m.predict_probs(&[0.0, 1.0, 0.0]);
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
        let p = m.predict_probs(&[1.0, 0.0]);
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
