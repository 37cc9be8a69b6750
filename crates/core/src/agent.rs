//! One HERO agent: the high-level option learner, the opponent model, and
//! the SMDP segment bookkeeping that turns environment steps into option
//! transitions (Algorithm 1).

use hero_autograd::serialize::{self, put_u64, Reader};
use hero_autograd::{CheckpointError, TensorPool};
use hero_baselines::common::UpdateStats;
use hero_rl::snapshot::Codec;
use rand::rngs::StdRng;

use hero_sim::options::DrivingOption;
use hero_sim::track::Track;
use hero_sim::vehicle::VehicleState;

use crate::config::HeroConfig;
use crate::highlevel::HighLevelLearner;
use crate::opponent::OpponentModel;
use crate::options::ActiveOption;

/// Pre-sampled minibatches for one agent's update pass; produced by
/// [`HeroAgent::prepare_update`], consumed by [`HeroAgent::apply_update`].
#[derive(Debug)]
pub struct PreparedUpdate {
    opponent: Option<crate::opponent::OpponentBatch>,
    high: Option<crate::highlevel::HighLevelBatch>,
}

/// Accumulates one option segment between selection and termination.
#[derive(Clone, Debug)]
struct Segment {
    start_obs: Vec<f32>,
    others_at_start: Vec<usize>,
    reward: f32,
    discount: f32,
}

/// One agent's option-execution state for one world: the active option
/// and its half-open SMDP segment.
///
/// The agent itself holds no option state. Whoever hosts a world owns its
/// cursors (one per agent, grouped in a [`crate::trainer::TeamCursor`])
/// and passes them to every option-stepping method, so one agent can act
/// in many worlds at once.
#[derive(Clone, Debug, Default)]
pub struct AgentCursor {
    active: Option<ActiveOption>,
    segment: Option<Segment>,
}

impl AgentCursor {
    /// A fresh cursor with no active option.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently executing option, if any.
    pub fn current_option(&self) -> Option<DrivingOption> {
        self.active.map(|a| a.option)
    }

    /// The active option's execution state (target lane etc.).
    pub fn active(&self) -> Option<&ActiveOption> {
        self.active.as_ref()
    }

    /// Discards any half-finished option state (between episodes).
    pub fn clear(&mut self) {
        self.active = None;
        self.segment = None;
    }

    /// Whether no option (and no segment) is in flight.
    pub fn is_idle(&self) -> bool {
        self.active.is_none() && self.segment.is_none()
    }
}

/// One HERO agent (Fig. 1's two-layer stack minus the shared skill
/// library, which lives in [`crate::skills::SkillLibrary`]).
#[derive(Debug)]
pub struct HeroAgent {
    high: HighLevelLearner,
    opponent: OpponentModel,
    cfg: HeroConfig,
    /// Number of option selections made so far (drives the ε schedule).
    selections: usize,
    /// Cumulative per-opponent prediction-loss traces (Fig. 10).
    opponent_losses: Vec<Vec<f32>>,
    /// Telemetry namespace label (e.g. `agent0`); see
    /// [`HeroAgent::set_metric_label`].
    metric_label: String,
    /// Buffers for the single-row decide forward in
    /// [`HeroAgent::ensure_option`].
    pool: TensorPool,
}

impl HeroAgent {
    /// Creates an agent for `obs_dim` high-level observations and
    /// `n_opponents` other agents.
    pub fn new(obs_dim: usize, n_opponents: usize, cfg: HeroConfig, rng: &mut StdRng) -> Self {
        let high = HighLevelLearner::new(obs_dim, DrivingOption::COUNT, n_opponents, &cfg, rng);
        let mut opponent = OpponentModel::new(
            n_opponents,
            obs_dim,
            DrivingOption::COUNT,
            cfg.hidden,
            cfg.lr,
            cfg.opponent_entropy_weight,
            cfg.buffer_capacity,
            cfg.batch_size.min(256),
            rng,
        );
        opponent.set_informative(cfg.use_opponent_model);
        Self {
            high,
            opponent,
            cfg,
            selections: 0,
            opponent_losses: vec![Vec::new(); n_opponents],
            metric_label: "agent".to_string(),
            pool: TensorPool::new(),
        }
    }

    /// Number of network weights [`HeroAgent::new`] builds for `obs_dim`
    /// observations, `n_opponents` other agents and `hidden`-wide layers:
    /// the actor, the critic and its target, and one opponent net per
    /// opponent. `None` when the count overflows `usize`. Lets a caller
    /// bound an agent's size before allocating it.
    pub fn weight_count(obs_dim: usize, n_opponents: usize, hidden: usize) -> Option<usize> {
        let k = DrivingOption::COUNT;
        let mlp = |dims: [usize; 4]| {
            dims.windows(2).try_fold(0usize, |acc, w| {
                acc.checked_add(w[0].checked_mul(w[1])?.checked_add(w[1])?)
            })
        };
        let actor_in = obs_dim.checked_add(n_opponents.checked_mul(k)?)?;
        let actor = mlp([actor_in, hidden, hidden, k])?;
        let critic = mlp([actor_in.checked_add(k)?, hidden, hidden, 1])?;
        let opponent = mlp([obs_dim, hidden, hidden, k])?;
        actor
            .checked_add(critic.checked_mul(2)?)?
            .checked_add(opponent.checked_mul(n_opponents)?)
    }

    /// Sets the label under which this agent's learning-health metrics are
    /// recorded (`entropy/<label>`, `reward/option_segment`). The trainer
    /// assigns `agent0`, `agent1`, … so per-agent curves stay separable.
    pub fn set_metric_label(&mut self, label: impl Into<String>) {
        self.metric_label = label.into();
    }

    /// The high-level learner (e.g. for checkpointing or inspection).
    pub fn high_level(&self) -> &HighLevelLearner {
        &self.high
    }

    /// The opponent model.
    pub fn opponent_model(&self) -> &OpponentModel {
        &self.opponent
    }

    /// Per-opponent NLL loss traces collected across updates (Fig. 10).
    pub fn opponent_loss_traces(&self) -> &[Vec<f32>] {
        &self.opponent_losses
    }

    /// Ensures `cur` has an active option, selecting a new one from the
    /// actor (conditioned on the opponent model's predictions) when none
    /// is. Returns the option that will execute this step.
    ///
    /// `logits` are this observation's policy logits when the caller
    /// already computed them in a batched forward pass
    /// ([`HeroAgent::batch_logits`]); `None` runs the single-row forward.
    /// The choice changes nothing: rows are independent under the strict
    /// kernels, so a batched row is bitwise the single-row forward, and
    /// randomness and telemetry follow the same order either way.
    ///
    /// `others_last` are the most recent *observed* options of the other
    /// agents (`o^{-i}_{1:t-1}` in the paper).
    #[allow(clippy::too_many_arguments)]
    pub fn ensure_option(
        &mut self,
        cur: &mut AgentCursor,
        logits: Option<&[f32]>,
        high_obs: &[f32],
        state: &VehicleState,
        track: &Track,
        others_last: &[usize],
        rng: &mut StdRng,
        explore: bool,
    ) -> DrivingOption {
        if cur.active.is_none() {
            let computed;
            let logits = match logits {
                Some(row) => row,
                None => {
                    let mut pool = std::mem::take(&mut self.pool);
                    computed = self.batch_logits(&[high_obs], &mut pool).remove(0);
                    self.pool = pool;
                    &computed
                }
            };
            self.start_option(cur, logits, high_obs, state, track, others_last, rng, explore);
        }
        cur.active.expect("option just ensured").option
    }

    /// Policy logits for a batch of high-level observations, in one
    /// forward pass each through the opponent model and the actor, with
    /// every buffer drawn from `pool`. Row `r` of the result corresponds
    /// to `rows[r]` and is bitwise identical to a one-row call on
    /// `rows[r]` alone. This is the batched decide and the serving
    /// daemon's hot path.
    ///
    /// # Panics
    ///
    /// Panics on a ragged batch (rows of differing widths).
    pub fn batch_logits(&self, rows: &[&[f32]], pool: &mut TensorPool) -> Vec<Vec<f32>> {
        let Some(d) = rows.first().map(|r| r.len()) else {
            return Vec::new();
        };
        let obs = pool.matrix(rows.len(), d, |data| {
            for row in rows {
                assert_eq!(row.len(), d, "ragged observation batch");
                data.extend_from_slice(row);
            }
        });
        let opp = self.opponent.predict_probs(&obs, pool);
        let logits = self.high.logits(&obs, &opp, pool);
        crate::highlevel::recycle(pool, opp);
        pool.put(obs.into_data());
        logits
    }

    #[allow(clippy::too_many_arguments)]
    fn start_option(
        &mut self,
        cur: &mut AgentCursor,
        logits: &[f32],
        high_obs: &[f32],
        state: &VehicleState,
        track: &Track,
        others_last: &[usize],
        rng: &mut StdRng,
        explore: bool,
    ) {
        let epsilon = self.cfg.exploration.value(self.selections);
        self.selections += 1;
        let idx = self.high.select_from_logits(logits, rng, explore, epsilon);
        if hero_rl::telemetry::is_enabled() {
            // Policy entropy at selection time — the collapse gauge
            // (DESIGN.md "learning-dynamics metrics": entropy/<agent>).
            let probs = hero_rl::rng::softmax(logits);
            let entropy: f64 = -probs
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| (p as f64) * (p as f64).ln())
                .sum::<f64>();
            hero_rl::telemetry::observe_dyn(
                &format!("entropy/{}", self.metric_label),
                entropy,
            );
        }
        let option = DrivingOption::from_index(idx);
        cur.active = Some(ActiveOption::start(option, state, track));
        cur.segment = Some(Segment {
            start_obs: high_obs.to_vec(),
            others_at_start: others_last.to_vec(),
            reward: 0.0,
            discount: 1.0,
        });
    }

    /// Records the outcome of one environment step while `cur`'s option
    /// executes: accumulates the discounted reward, feeds the opponent
    /// model, advances the termination clock, and — when the option's β
    /// fires (or the episode ends) — closes the SMDP segment into the
    /// high-level buffer.
    ///
    /// Returns `true` when the option terminated at this step.
    ///
    /// # Panics
    ///
    /// Panics when the cursor holds no active option.
    #[allow(clippy::too_many_arguments)]
    pub fn record_step(
        &mut self,
        cur: &mut AgentCursor,
        pre_obs: &[f32],
        others_during: &[usize],
        reward: f32,
        next_obs: &[f32],
        next_state: &VehicleState,
        track: &Track,
        done: bool,
    ) -> bool {
        let active = cur.active.as_mut().expect("record_step without active option");
        let segment = cur.segment.as_mut().expect("segment matches active option");
        self.opponent.observe(pre_obs.to_vec(), others_during.to_vec());
        segment.reward += segment.discount * reward;
        segment.discount *= self.cfg.gamma;
        active.tick();
        let terminated = done || active.terminated(next_state, track, &self.cfg);
        if terminated {
            self.close_segment(cur, next_obs, done);
        }
        terminated
    }

    /// Evaluation-time step bookkeeping: advances `cur`'s active option
    /// and applies its termination condition *without* storing anything
    /// into the replay or opponent-model buffers.
    pub fn observe_step_eval(
        &self,
        cur: &mut AgentCursor,
        next_state: &VehicleState,
        track: &Track,
        done: bool,
    ) {
        if let Some(active) = cur.active.as_mut() {
            active.tick();
            if done || active.terminated(next_state, track, &self.cfg) {
                cur.clear();
            }
        }
    }

    /// Forcibly terminates `cur`'s active option (synchronous-termination
    /// ablation, Sec. III-B). No-op when no option is active.
    pub fn force_terminate(&mut self, cur: &mut AgentCursor, next_obs: &[f32], done: bool) {
        if cur.active.is_some() {
            self.close_segment(cur, next_obs, done);
        }
    }

    fn close_segment(&mut self, cur: &mut AgentCursor, next_obs: &[f32], done: bool) {
        let active = cur.active.take().expect("close_segment with active option");
        let segment = cur.segment.take().expect("segment matches active option");
        hero_rl::telemetry::observe("reward/option_segment", segment.reward as f64);
        hero_rl::telemetry::observe("option/duration", active.elapsed.max(1) as f64);
        self.high.store(hero_rl::transition::OptionTransition {
            obs: segment.start_obs,
            option: active.option.index(),
            other_options: segment.others_at_start,
            reward: segment.reward,
            duration: active.elapsed.max(1),
            next_obs: next_obs.to_vec(),
            done,
        });
    }

    /// One learning step: updates the opponent models and the high-level
    /// actor–critic. Returns the high-level stats when an update ran.
    pub fn update(&mut self, rng: &mut StdRng) -> Option<UpdateStats> {
        let prepared = self.prepare_update(rng);
        self.apply_update(prepared)
    }

    /// The RNG-consuming half of [`HeroAgent::update`]: draws the opponent
    /// and high-level minibatches (in that order — the order the
    /// sequential update consumes randomness). A coordinator calls this
    /// for every agent on one thread, then runs the compute halves
    /// ([`HeroAgent::apply_update`]) in parallel without perturbing any
    /// random stream.
    pub fn prepare_update(&self, rng: &mut StdRng) -> PreparedUpdate {
        let opponent = {
            let _span = hero_rl::telemetry::span("opponent_model");
            self.opponent.sample_batch(rng)
        };
        let high = {
            let _span = hero_rl::telemetry::span("actor_critic");
            self.high.sample_batch(rng)
        };
        PreparedUpdate { opponent, high }
    }

    /// The compute half of [`HeroAgent::update`]: trains on the
    /// pre-sampled batches. Consumes no randomness, touches no replay
    /// buffer, and only mutates this agent's own networks and optimizers —
    /// safe to run for all agents concurrently.
    pub fn apply_update(&mut self, prepared: PreparedUpdate) -> Option<UpdateStats> {
        {
            let _span = hero_rl::telemetry::span("opponent_model");
            if let Some(batch) = &prepared.opponent {
                let losses = self.opponent.update_batch(batch);
                for (trace, l) in self.opponent_losses.iter_mut().zip(&losses) {
                    trace.push(*l);
                }
            }
        }
        let _span = hero_rl::telemetry::span("actor_critic");
        prepared
            .high
            .as_ref()
            .map(|batch| self.high.update_batch(batch, &self.opponent))
    }

    /// Number of stored option transitions.
    pub fn buffer_len(&self) -> usize {
        self.high.buffer_len()
    }

    /// Poisons the high-level actor's first parameter gradient with NaN,
    /// so the next optimizer step trips the non-finite watchdog (used by
    /// the fault-injection harness to prove the watchdog path survives a
    /// real training loop).
    pub fn poison_gradients(&mut self) {
        if let Some(p) = self.high.parameters().first() {
            let shape = p.grad().shape().to_vec();
            p.accumulate_grad(&hero_autograd::Tensor::full(shape, f32::NAN));
        }
    }

    /// Captures the agent's full state — high-level learner, opponent
    /// model, and selection/loss bookkeeping — as named sections (relative
    /// names; the caller prefixes them per agent).
    pub fn save_state(&self) -> Vec<(String, Vec<u8>)> {
        let mut sections: Vec<(String, Vec<u8>)> = self
            .high
            .save_state()
            .into_iter()
            .map(|(name, bytes)| (format!("high/{name}"), bytes))
            .collect();
        sections.extend(
            self.opponent
                .save_state()
                .into_iter()
                .map(|(name, bytes)| (format!("opp/{name}"), bytes)),
        );
        let mut book = Vec::new();
        put_u64(&mut book, self.selections as u64);
        self.opponent_losses.encode(&mut book);
        sections.push(("bookkeeping".to_string(), book));
        sections
    }

    /// Restores state captured by [`HeroAgent::save_state`] into an agent
    /// built with the same dimensions and config.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when a section is missing, malformed, or
    /// shaped for a different architecture.
    pub fn load_state(&mut self, sections: &[(String, Vec<u8>)]) -> Result<(), CheckpointError> {
        let strip = |prefix: &str| -> Vec<(String, Vec<u8>)> {
            sections
                .iter()
                .filter_map(|(name, bytes)| {
                    name.strip_prefix(prefix)
                        .map(|rest| (rest.to_string(), bytes.clone()))
                })
                .collect()
        };
        let mut r = Reader::new(serialize::require_section(sections, "bookkeeping")?);
        let selections = r.u64()? as usize;
        let opponent_losses: Vec<Vec<f32>> = Codec::decode(&mut r)?;
        r.finish("agent bookkeeping")?;
        if opponent_losses.len() != self.opponent_losses.len() {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint tracks {} opponents, agent has {}",
                opponent_losses.len(),
                self.opponent_losses.len()
            )));
        }
        self.high.load_state(&strip("high/"))?;
        self.opponent.load_state(&strip("opp/"))?;
        self.selections = selections;
        self.opponent_losses = opponent_losses;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> HeroConfig {
        HeroConfig {
            hidden: 16,
            batch_size: 16,
            warmup: 16,
            ..HeroConfig::default()
        }
    }

    fn state(d: f32) -> VehicleState {
        VehicleState {
            s: 0.0,
            d,
            heading: 0.0,
            speed: 0.1,
        }
    }

    /// An agent, its cursor, and a fresh option started on `obs`.
    fn started(seed: u64, obs: &[f32], others: &[usize]) -> (HeroAgent, AgentCursor, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agent = HeroAgent::new(3, 1, cfg(), &mut rng);
        let mut cur = AgentCursor::new();
        let track = Track::double_lane();
        agent.ensure_option(&mut cur, None, obs, &state(0.2), &track, others, &mut rng, true);
        (agent, cur, rng)
    }

    #[test]
    fn weight_count_matches_the_built_networks() {
        let mut rng = StdRng::seed_from_u64(8);
        let agent = HeroAgent::new(5, 2, cfg(), &mut rng);
        let sections = agent.save_state();
        let weights: usize = ["high/params", "high/critic_target", "opp/params"]
            .iter()
            .map(|name| {
                let bytes = hero_autograd::serialize::require_section(&sections, name).unwrap();
                hero_autograd::serialize::decode_param_table(bytes)
                    .unwrap()
                    .iter()
                    .map(|e| e.data.len())
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(HeroAgent::weight_count(5, 2, cfg().hidden), Some(weights));
        assert_eq!(HeroAgent::weight_count(usize::MAX, 1, 2), None, "overflow");
    }

    #[test]
    fn ensure_option_is_sticky_until_termination() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = HeroAgent::new(3, 1, cfg(), &mut rng);
        let mut cur = AgentCursor::new();
        let track = Track::double_lane();
        let obs = [0.1, 0.2, 0.3];
        let o1 = agent.ensure_option(&mut cur, None, &obs, &state(0.2), &track, &[0], &mut rng, false);
        let o2 = agent.ensure_option(&mut cur, None, &obs, &state(0.2), &track, &[0], &mut rng, false);
        assert_eq!(o1, o2, "option persists until β fires");
        assert!(cur.current_option().is_some());
    }

    #[test]
    fn precomputed_logits_select_like_the_single_row_forward() {
        let obs = [0.1, 0.2, 0.3];
        let track = Track::double_lane();
        let (mut a, mut cur_a, mut rng_a) = (
            HeroAgent::new(3, 1, cfg(), &mut StdRng::seed_from_u64(6)),
            AgentCursor::new(),
            StdRng::seed_from_u64(7),
        );
        let (mut b, mut cur_b, mut rng_b) = (
            HeroAgent::new(3, 1, cfg(), &mut StdRng::seed_from_u64(6)),
            AgentCursor::new(),
            StdRng::seed_from_u64(7),
        );
        let logits = b.batch_logits(&[&obs], &mut TensorPool::new()).remove(0);
        for _ in 0..5 {
            let oa = a.ensure_option(&mut cur_a, None, &obs, &state(0.2), &track, &[1], &mut rng_a, true);
            let ob = b.ensure_option(
                &mut cur_b,
                Some(&logits),
                &obs,
                &state(0.2),
                &track,
                &[1],
                &mut rng_b,
                true,
            );
            assert_eq!(oa, ob);
            cur_a.clear();
            cur_b.clear();
        }
    }

    #[test]
    fn segment_closes_into_buffer_on_termination() {
        let obs = [0.1, 0.2, 0.3];
        let (mut agent, mut cur, _) = started(1, &obs, &[2]);
        let track = Track::double_lane();
        let mut terminated = false;
        // In-lane options terminate after `in_lane_option_duration` (3) at
        // the latest; lane change needs the budget (9).
        for _ in 0..10 {
            terminated = agent.record_step(
                &mut cur,
                &obs,
                &[2],
                0.5,
                &[0.2, 0.2, 0.2],
                &state(0.2),
                &track,
                false,
            );
            if terminated {
                break;
            }
        }
        assert!(terminated);
        assert_eq!(agent.buffer_len(), 1);
        assert!(cur.current_option().is_none(), "slot freed for re-selection");
    }

    #[test]
    fn done_always_closes_segment() {
        let (mut agent, mut cur, _) = started(2, &[0.0; 3], &[0]);
        let track = Track::double_lane();
        let t = agent.record_step(
            &mut cur,
            &[0.0; 3],
            &[0],
            -20.0,
            &[0.0; 3],
            &state(0.2),
            &track,
            true,
        );
        assert!(t);
        assert_eq!(agent.buffer_len(), 1);
    }

    #[test]
    fn force_terminate_closes_and_is_idempotent() {
        let (mut agent, mut cur, _) = started(3, &[0.0; 3], &[0]);
        agent.force_terminate(&mut cur, &[0.0; 3], false);
        assert_eq!(agent.buffer_len(), 1);
        agent.force_terminate(&mut cur, &[0.0; 3], false);
        assert_eq!(agent.buffer_len(), 1, "no active option, no-op");
    }

    #[test]
    fn one_agent_steps_independent_worlds() {
        let obs = [0.0; 3];
        let (mut agent, mut world_a, mut rng) = started(4, &obs, &[0]);
        let track = Track::double_lane();
        let mut world_b = AgentCursor::new();
        agent.ensure_option(&mut world_b, None, &obs, &state(0.2), &track, &[0], &mut rng, true);
        agent.force_terminate(&mut world_a, &obs, false);
        assert!(world_a.is_idle());
        assert!(!world_b.is_idle(), "closing one world's segment leaves the other's open");
        assert_eq!(agent.buffer_len(), 1);
    }

    #[test]
    fn cleared_cursor_discards_partial_segment() {
        let (agent, mut cur, _) = started(5, &[0.0; 3], &[0]);
        cur.clear();
        assert!(cur.current_option().is_none());
        assert_eq!(agent.buffer_len(), 0, "partial segment dropped, not stored");
    }
}
