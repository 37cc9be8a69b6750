//! The two-stage HERO training pipeline (Fig. 2) and greedy evaluation.
//!
//! Stage one trains the low-level skills in parallel single-vehicle
//! environments ([`crate::skills::SkillLibrary::train`], Algorithm 2).
//! Stage two — this module — runs Algorithm 1: the agents act through
//! their (frozen) skills in the multi-vehicle world while learning the
//! high-level cooperative option policy with opponent modeling. The
//! learner loop itself lives in `crate::learner`, shared with the
//! actor/learner engine ([`crate::rollout`]); [`train_team_checkpointed`]
//! runs it against a world stepped on the calling thread.

use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hero_autograd::serialize::Reader;
use hero_autograd::CheckpointError;
use hero_faultplan::{FaultPlan, KillMode};
use hero_rl::metrics::Recorder;
use hero_rl::snapshot::Codec;
use hero_rl::telemetry;
use hero_sim::env::{CooperativeWorld, Observation};
use hero_sim::track::Track;
use hero_sim::vehicle::{VehicleCommand, VehicleState};

use crate::agent::{AgentCursor, HeroAgent};
use crate::checkpoint::{self, CheckpointStore};
use crate::config::{HeroConfig, TerminationMode};
use crate::learner::{run_episodes, InlineHost, LearnerCore};
use crate::skills::SkillLibrary;

/// One world's state as the team reads it to decide or to record a step:
/// the track, which vehicles the team drives, and every vehicle's state
/// and observation. [`HeroTeam::decide`] builds it from a local
/// [`CooperativeWorld`]; hosts that step worlds elsewhere (actor threads)
/// build it from the data the actors ship back.
#[derive(Clone, Copy)]
pub(crate) struct WorldView<'a> {
    /// The road geometry.
    pub(crate) track: &'a Track,
    /// Indices of the vehicles the team drives, in agent order.
    pub(crate) learners: &'a [usize],
    /// Every vehicle's kinematic state.
    pub(crate) states: &'a [VehicleState],
    /// Every vehicle's observation.
    pub(crate) obs: &'a [Observation],
}

/// Every vehicle's state in `env`.
pub(crate) fn vehicle_states<W: CooperativeWorld>(env: &W) -> Vec<VehicleState> {
    (0..env.num_vehicles()).map(|i| env.vehicle_state(i)).collect()
}

/// What a [`WorldView`] of `env` borrows besides the observations: the
/// track, the learner indices, and every vehicle's state.
fn layout_of<W: CooperativeWorld>(env: &W) -> (Track, Vec<usize>, Vec<VehicleState>) {
    (env.config().track, env.learner_indices(), vehicle_states(env))
}

/// The team's option-execution state for one world: one [`AgentCursor`]
/// per agent plus the joint last-observed-options vector.
///
/// This is the only option state there is. The team owns one cursor for
/// the world it steps itself ([`HeroTeam::cursor`]); the batched rollout
/// engine owns one per in-flight world and passes it with every decision
/// and recorded step.
#[derive(Clone, Debug, Default)]
pub struct TeamCursor {
    agents: Vec<AgentCursor>,
    last_options: Vec<usize>,
}

impl TeamCursor {
    /// An idle cursor continuing from the joint last-options vector `last`.
    fn new(last: Vec<usize>) -> Self {
        Self {
            agents: vec![AgentCursor::new(); last.len()],
            last_options: last,
        }
    }

    /// The per-agent cursors.
    pub fn agents(&self) -> &[AgentCursor] {
        &self.agents
    }

    /// The joint last-observed-options vector (`o_{1:t-1}` in the paper).
    pub fn last_options(&self) -> &[usize] {
        &self.last_options
    }

    /// Overwrites the joint last-options vector (checkpoint restore).
    pub fn set_last_options(&mut self, last: Vec<usize>) {
        assert_eq!(last.len(), self.agents.len(), "cursor/team size mismatch");
        self.last_options = last;
    }

    /// Clears every agent's option state for a new episode. The joint
    /// last-options vector persists across episodes.
    pub fn begin_episode(&mut self) {
        for a in &mut self.agents {
            a.clear();
        }
    }

    /// Whether no agent holds an active option or open segment.
    pub fn is_idle(&self) -> bool {
        self.agents.iter().all(AgentCursor::is_idle)
    }

    fn others_last(&self, k: usize) -> Vec<usize> {
        self.last_options
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != k)
            .map(|(_, &o)| o)
            .collect()
    }
}

/// A team of HERO agents sharing one trained skill library.
#[derive(Debug)]
pub struct HeroTeam {
    agents: Vec<HeroAgent>,
    skills: Arc<SkillLibrary>,
    cfg: HeroConfig,
    cursor: TeamCursor,
}

impl HeroTeam {
    /// Creates a team of `n_learners` agents over `obs_dim`-dimensional
    /// high-level observations.
    pub fn new(
        n_learners: usize,
        obs_dim: usize,
        skills: Arc<SkillLibrary>,
        cfg: HeroConfig,
        seed: u64,
    ) -> Self {
        assert!(n_learners >= 1, "a team needs at least one learner");
        let mut rng = StdRng::seed_from_u64(seed);
        let agents = (0..n_learners)
            .map(|k| {
                let mut a =
                    HeroAgent::new(obs_dim, n_learners.saturating_sub(1), cfg, &mut rng);
                a.set_metric_label(format!("agent{k}"));
                a
            })
            .collect();
        Self {
            agents,
            skills,
            cfg,
            cursor: TeamCursor::new(vec![0; n_learners]),
        }
    }

    /// The team's agents.
    pub fn agents(&self) -> &[HeroAgent] {
        &self.agents
    }

    /// Mutable access to the team's agents.
    pub fn agents_mut(&mut self) -> &mut [HeroAgent] {
        &mut self.agents
    }

    /// The shared skill library.
    pub fn skills(&self) -> &SkillLibrary {
        &self.skills
    }

    /// The team's configuration.
    pub fn config(&self) -> &HeroConfig {
        &self.cfg
    }

    /// The team's own option cursor: the option state of the world the
    /// team steps through [`HeroTeam::decide`] / [`HeroTeam::record`].
    pub fn cursor(&self) -> &TeamCursor {
        &self.cursor
    }

    /// Runs the per-step decision pass on the team's own cursor: ensures
    /// every agent has an active option and produces one command per
    /// *vehicle* (scripted slots get a default command, which the
    /// environment ignores).
    pub fn decide<W: CooperativeWorld>(
        &mut self,
        env: &W,
        obs: &[Observation],
        rng: &mut StdRng,
        explore: bool,
    ) -> Vec<VehicleCommand> {
        let (track, learners, states) = layout_of(env);
        let world = WorldView {
            track: &track,
            learners: &learners,
            states: &states,
            obs,
        };
        self.decide_in(None, &world, None, rng, explore)
    }

    /// Records the step outcome into every agent on the team's own cursor,
    /// handling synchronous termination when configured. `pre_obs` are the
    /// observations the decisions were made from.
    pub fn record<W: CooperativeWorld>(
        &mut self,
        env: &W,
        pre_obs: &[Observation],
        rewards: &[f32],
        next_obs: &[Observation],
        done: bool,
    ) {
        let (track, learners, states) = layout_of(env);
        let after = WorldView {
            track: &track,
            learners: &learners,
            states: &states,
            obs: next_obs,
        };
        self.record_in(None, &after, pre_obs, rewards, done);
    }

    /// [`HeroTeam::decide`] with the world given as data, on `cur` — the
    /// cursor of one of many in-flight worlds — or, with `None`, on the
    /// team's own cursor. `logits[k]`, when given and `Some`, are agent
    /// `k`'s policy logits precomputed by a batched forward pass over many
    /// worlds ([`HeroAgent::batch_logits`]); otherwise the agent runs its
    /// own single-row forward. Randomness and telemetry follow exactly the
    /// order of [`HeroTeam::decide`].
    pub(crate) fn decide_in(
        &mut self,
        cur: Option<&mut TeamCursor>,
        world: &WorldView<'_>,
        logits: Option<&[Option<Vec<f32>>]>,
        rng: &mut StdRng,
        explore: bool,
    ) -> Vec<VehicleCommand> {
        let cur = cur.unwrap_or(&mut self.cursor);
        assert_eq!(world.learners.len(), self.agents.len(), "team/world size mismatch");
        for (k, &v) in world.learners.iter().enumerate() {
            let high_obs = world.obs[v].high_vec();
            let others = cur.others_last(k);
            let row = logits.and_then(|l| l[k].as_deref());
            let option = self.agents[k].ensure_option(
                &mut cur.agents[k],
                row,
                &high_obs,
                &world.states[v],
                world.track,
                &others,
                rng,
                explore,
            );
            cur.last_options[k] = option.index();
        }
        let mut commands = vec![VehicleCommand::default(); world.states.len()];
        for (k, &v) in world.learners.iter().enumerate() {
            let active = *cur.agents[k].active().expect("option ensured above");
            // The skills are frozen after stage one (Fig. 2), so they
            // always execute deterministically; exploration happens in the
            // high-level option space only.
            commands[v] = self.skills.command(
                active.option,
                &world.obs[v],
                &world.states[v],
                active.target_d(world.track),
                rng,
                false,
            );
        }
        commands
    }

    /// [`HeroTeam::record`] with the post-step world given as data, on
    /// `cur` or (with `None`) the team's own cursor.
    pub(crate) fn record_in(
        &mut self,
        cur: Option<&mut TeamCursor>,
        after: &WorldView<'_>,
        pre_obs: &[Observation],
        rewards: &[f32],
        done: bool,
    ) {
        let cur = cur.unwrap_or(&mut self.cursor);
        let mut any_terminated = false;
        for (k, &v) in after.learners.iter().enumerate() {
            let others = cur.others_last(k);
            any_terminated |= self.agents[k].record_step(
                &mut cur.agents[k],
                &pre_obs[v].high_vec(),
                &others,
                rewards[v],
                &after.obs[v].high_vec(),
                &after.states[v],
                after.track,
                done,
            );
        }
        if self.cfg.termination == TerminationMode::Synchronous && any_terminated {
            for (k, &v) in after.learners.iter().enumerate() {
                self.agents[k].force_terminate(&mut cur.agents[k], &after.obs[v].high_vec(), done);
            }
        }
    }

    /// Evaluation-time counterpart of [`HeroTeam::record`]: ticks every
    /// agent's option state machine without storing experience.
    pub fn observe_eval<W: CooperativeWorld>(&mut self, env: &W, done: bool) {
        let track = env.config().track;
        for (k, &v) in env.learner_indices().iter().enumerate() {
            let state = env.vehicle_state(v);
            self.agents[k].observe_step_eval(&mut self.cursor.agents[k], &state, &track, done);
        }
    }

    /// Clears the team's own cursor for a new episode.
    pub fn begin_episode(&mut self) {
        self.cursor.begin_episode();
    }

    /// A fresh per-world cursor seeded from the team's current joint
    /// last-options vector (so a cursor created after a checkpoint restore
    /// continues exactly where the team's own would).
    pub(crate) fn new_cursor(&self) -> TeamCursor {
        TeamCursor::new(self.cursor.last_options.clone())
    }

    /// Folds a world cursor's joint last-options vector back into the
    /// team, so checkpoints ([`HeroTeam::save_state`]) and later use (e.g.
    /// [`evaluate_team`]) continue from it.
    pub(crate) fn absorb_cursor(&mut self, cur: &TeamCursor) {
        self.cursor.set_last_options(cur.last_options.clone());
    }

    /// Captures the team's full state — every agent plus the joint
    /// last-options vector — as named checkpoint sections.
    ///
    /// # Panics
    ///
    /// Panics when the team's own cursor holds a half-finished option
    /// segment: snapshots are only taken at episode boundaries.
    pub fn save_state(&self) -> Vec<(String, Vec<u8>)> {
        assert!(
            self.cursor.is_idle(),
            "team state can only be captured at an episode boundary"
        );
        let mut sections = Vec::new();
        let mut last = Vec::new();
        self.cursor.last_options.encode(&mut last);
        sections.push(("team/last_options".to_string(), last));
        for (k, agent) in self.agents.iter().enumerate() {
            sections.extend(
                agent
                    .save_state()
                    .into_iter()
                    .map(|(name, bytes)| (format!("agent{k}/{name}"), bytes)),
            );
        }
        sections
    }

    /// Restores state captured by [`HeroTeam::save_state`] into a team
    /// built with the same size, dimensions, and config. Any option in
    /// flight on the team's own cursor is discarded.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when sections are missing, malformed,
    /// or shaped for a different team.
    pub fn load_state(&mut self, sections: &[(String, Vec<u8>)]) -> Result<(), CheckpointError> {
        let last_blob =
            hero_autograd::serialize::require_section(sections, "team/last_options")?;
        let mut r = Reader::new(last_blob);
        let last_options: Vec<usize> = Codec::decode(&mut r)?;
        r.finish("team/last_options")?;
        if last_options.len() != self.agents.len() {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint is for a team of {}, this team has {}",
                last_options.len(),
                self.agents.len()
            )));
        }
        for (k, agent) in self.agents.iter_mut().enumerate() {
            let prefix = format!("agent{k}/");
            let agent_sections: Vec<(String, Vec<u8>)> = sections
                .iter()
                .filter_map(|(name, bytes)| {
                    name.strip_prefix(&prefix)
                        .map(|rest| (rest.to_string(), bytes.clone()))
                })
                .collect();
            agent.load_state(&agent_sections)?;
        }
        self.cursor = TeamCursor::new(last_options);
        Ok(())
    }

    /// One learning pass over every agent; returns mean losses when any
    /// agent updated.
    ///
    /// With [`HeroConfig::parallel_update`] set (the default) the compute
    /// phase runs on one scoped thread per agent. The result is
    /// bit-identical to the sequential path: minibatches are sampled on
    /// this thread in agent order (the only RNG consumers), each worker
    /// captures its telemetry instead of recording it, and the captures
    /// are replayed here in agent order after a deterministic join — so
    /// counter totals, value histograms, loss sums, and checkpoint bytes
    /// cannot depend on thread interleaving.
    pub fn update(&mut self, rng: &mut StdRng) -> Option<(f32, f32)> {
        let results: Vec<Option<hero_baselines::common::UpdateStats>> =
            if self.cfg.parallel_update && self.agents.len() > 1 {
                let prepared: Vec<_> = self
                    .agents
                    .iter()
                    .map(|a| a.prepare_update(rng))
                    .collect();
                let capture = telemetry::is_enabled();
                let outcomes: Vec<_> = crossbeam::thread::scope(|s| {
                    let handles: Vec<_> = self
                        .agents
                        .iter_mut()
                        .zip(prepared)
                        .map(|(agent, batches)| {
                            s.spawn(move || {
                                if capture {
                                    telemetry::begin_capture();
                                }
                                let stats = agent.apply_update(batches);
                                (stats, telemetry::take_capture())
                            })
                        })
                        .collect();
                    // Join in agent-index order; panics propagate.
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("agent update thread panicked"))
                        .collect()
                });
                outcomes
                    .into_iter()
                    .map(|(stats, events)| {
                        telemetry::replay(events);
                        stats
                    })
                    .collect()
            } else {
                self.agents.iter_mut().map(|a| a.update(rng)).collect()
            };
        let mut critic = 0.0;
        let mut actor = 0.0;
        let mut count = 0;
        for stats in results.into_iter().flatten() {
            critic += stats.critic_loss;
            actor += stats.actor_loss;
            count += 1;
        }
        (count > 0).then(|| (critic / count as f32, actor / count as f32))
    }
}

/// Knobs of the cooperative-training loop.
#[derive(Clone, Copy, Debug)]
pub struct TrainOptions {
    /// Episodes to run.
    pub episodes: usize,
    /// Run one learning pass every this many environment steps.
    pub update_every: usize,
    /// RNG seed for action sampling.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            episodes: 100,
            update_every: 1,
            seed: 0,
        }
    }
}

/// Trains the team in `env` (Algorithm 1), recording per-episode series:
/// `reward` (mean per-step learner reward), `collision` (0/1),
/// `success` (merge success rate, only for episodes with a blocked
/// learner), and `mean_speed`, plus `critic_loss`/`actor_loss` per update.
pub fn train_team<W: CooperativeWorld>(
    team: &mut HeroTeam,
    env: &mut W,
    opts: &TrainOptions,
) -> Recorder {
    // The default config neither resumes nor runs actors, so no TrainError
    // variant is reachable.
    train_team_checkpointed(team, env, opts, &CheckpointConfig::default())
        .expect("default checkpoint config cannot fail")
        .recorder
}

/// A training run that could not start or could not finish, reported as a
/// typed error so binaries exit nonzero with a message instead of
/// panicking with a backtrace.
#[derive(Debug)]
pub enum TrainError {
    /// Resuming from the checkpoint directory was refused (the checkpoint
    /// was written by the fast-math GEMM tier this build does not have).
    /// Starting fresh would silently discard the run, so the caller must
    /// decide.
    ResumeRefused(hero_autograd::CheckpointError),
    /// Every rollout actor died and the supervisor's respawn budget is
    /// exhausted: the run ends early with a typed abort instead of a
    /// deadlock or a silent partial result.
    FleetLost {
        /// Episodes fully completed before the fleet was lost.
        episodes_run: usize,
        /// Whether a boundary-clean emergency checkpoint was durably
        /// written before aborting (resume picks up from it).
        emergency_checkpoint_saved: bool,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ResumeRefused(e) => write!(f, "refusing to resume: {e}"),
            Self::FleetLost { episodes_run, emergency_checkpoint_saved } => write!(
                f,
                "actor fleet lost after {episodes_run} completed episode(s) with the respawn \
                 budget exhausted ({})",
                if *emergency_checkpoint_saved {
                    "emergency checkpoint saved; rerun with --resume"
                } else {
                    "no boundary-clean state to emergency-checkpoint"
                }
            ),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::ResumeRefused(e) => Some(e),
            Self::FleetLost { .. } => None,
        }
    }
}

/// How (and whether) [`train_team_checkpointed`] checkpoints and injects
/// faults.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Save a checkpoint every this many episodes; `0` disables saving.
    pub every: usize,
    /// Directory for checkpoint files (required for saving or resuming).
    pub dir: Option<PathBuf>,
    /// Resume from the newest valid checkpoint in `dir` (fresh start when
    /// none is loadable).
    pub resume: bool,
    /// How many good checkpoints to retain.
    pub retain: usize,
    /// Deterministic fault injection (kills, IO errors, corruption,
    /// gradient poisoning); [`FaultPlan::none`] in production.
    pub fault_plan: FaultPlan,
    /// How a `kill@ep:N` fault terminates the run.
    pub kill_mode: KillMode,
    /// Write attempts per checkpoint save before it degrades to a counted
    /// drop (`--checkpoint-retry N` = `N + 1` attempts).
    pub save_attempts: usize,
    /// Retry-backoff base in milliseconds (retry `k` sleeps `base << k`,
    /// deterministically — no jitter); `0` disables sleeping (tests).
    pub save_backoff_ms: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            every: 0,
            dir: None,
            resume: false,
            retain: 3,
            fault_plan: FaultPlan::none(),
            kill_mode: KillMode::Return,
            save_attempts: checkpoint::DEFAULT_SAVE_ATTEMPTS,
            save_backoff_ms: checkpoint::DEFAULT_BACKOFF_BASE_MS,
        }
    }
}

impl CheckpointConfig {
    /// Opens the configured checkpoint store (when saving is enabled),
    /// with the retry budget and backoff schedule applied.
    pub(crate) fn open_store(&self) -> Option<CheckpointStore> {
        if self.every == 0 {
            return None;
        }
        let dir = self.dir.as_ref()?;
        let mut store = CheckpointStore::open(dir, self.retain).ok()?;
        store.set_max_attempts(self.save_attempts);
        store.set_backoff_base_ms(self.save_backoff_ms);
        Some(store)
    }
}

/// The result of a checkpointed training run.
#[derive(Debug)]
pub struct TrainOutcome {
    /// The per-episode metric series (cumulative across resumes).
    pub recorder: Recorder,
    /// `false` when a fault-plan kill stopped the run early
    /// ([`KillMode::Return`] only — [`KillMode::Exit`] never returns).
    pub completed: bool,
    /// Episodes actually run in this invocation (excludes episodes
    /// restored from a checkpoint).
    pub episodes_run: usize,
}

/// [`train_team`] plus crash safety: periodically snapshots the complete
/// trainer state (team, RNG streams, recorder, telemetry) into a rotating
/// checkpoint directory, optionally resumes from the newest valid
/// checkpoint, and honors a deterministic [`FaultPlan`].
///
/// With `ckpt.every == 0`, no directory, and an empty fault plan this is
/// step-for-step identical to [`train_team`]. A seeded run that is killed
/// and resumed produces bit-identical metric series and telemetry (modulo
/// the `checkpoint/*` counters themselves) to an uninterrupted run with
/// the same checkpoint cadence.
///
/// # Errors
///
/// [`TrainError::ResumeRefused`] when `ckpt.resume` finds a checkpoint
/// that must not be resumed (a fast-math checkpoint); corrupt checkpoints
/// fall back or start fresh instead.
pub fn train_team_checkpointed<W: CooperativeWorld>(
    team: &mut HeroTeam,
    env: &mut W,
    opts: &TrainOptions,
    ckpt: &CheckpointConfig,
) -> Result<TrainOutcome, TrainError> {
    let (mut core, _) = LearnerCore::start(team, env, opts, ckpt)?;
    let completed = run_episodes(&mut core, &mut InlineHost(env))?;
    Ok(core.finish(completed))
}

/// Greedy evaluation results over a batch of episodes (the paper's
/// Sec. V-B metrics).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalStats {
    /// Fraction of episodes that ended in a collision.
    pub collision_rate: f32,
    /// Fraction of blocked learners that merged successfully.
    pub success_rate: f32,
    /// Mean vehicle speed over all steps.
    pub mean_speed: f32,
    /// Mean per-step learner reward.
    pub mean_reward: f32,
}

/// Evaluates the team greedily (no exploration, no learning) for
/// `episodes` episodes.
pub fn evaluate_team<W: CooperativeWorld>(
    team: &mut HeroTeam,
    env: &mut W,
    episodes: usize,
    seed: u64,
) -> EvalStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut collisions = 0usize;
    let mut merges = 0usize;
    let mut merge_candidates = 0usize;
    let mut speed_sum = 0.0;
    let mut reward_sum = 0.0;
    let mut steps = 0usize;
    for _ in 0..episodes {
        let mut obs = env.reset();
        team.begin_episode();
        while !env.is_done() {
            let commands = team.decide(env, &obs, &mut rng, false);
            let out = env.step(&commands);
            // Keep the agents' option state machines ticking without
            // touching any training buffer.
            team.observe_eval(env, out.done);
            let learners = env.learner_indices();
            reward_sum += learners.iter().map(|&v| out.rewards[v]).sum::<f32>()
                / learners.len() as f32;
            speed_sum += out.mean_speed;
            steps += 1;
            obs = out.observations;
        }
        let learners = env.learner_indices();
        if learners.iter().any(|&v| env.has_collided(v)) {
            collisions += 1;
        }
        for &v in &learners {
            if env.needs_merge(v) {
                merge_candidates += 1;
                if env.has_merged(v) {
                    merges += 1;
                }
            }
        }
    }
    EvalStats {
        collision_rate: collisions as f32 / episodes.max(1) as f32,
        success_rate: if merge_candidates > 0 {
            merges as f32 / merge_candidates as f32
        } else {
            1.0
        },
        mean_speed: speed_sum / steps.max(1) as f32,
        mean_reward: reward_sum / steps.max(1) as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_baselines::sac::SacConfig;
    use hero_sim::env::EnvConfig;
    use hero_sim::scenario;

    fn small_team(env_cfg: EnvConfig, n: usize) -> HeroTeam {
        let skills = Arc::new(SkillLibrary::untrained(env_cfg, SacConfig {
            hidden: 8,
            ..SacConfig::default()
        }, 0));
        let cfg = HeroConfig {
            hidden: 8,
            batch_size: 8,
            warmup: 8,
            ..HeroConfig::default()
        };
        HeroTeam::new(n, env_cfg.high_dim(), skills, cfg, 1)
    }

    #[test]
    fn training_loop_produces_all_series() {
        let env_cfg = EnvConfig {
            max_steps: 6,
            ..EnvConfig::default()
        };
        let mut env = scenario::two_vehicle_merge(env_cfg, 3);
        let mut team = small_team(env_cfg, 2);
        let rec = train_team(
            &mut team,
            &mut env,
            &TrainOptions {
                episodes: 4,
                update_every: 2,
                seed: 5,
            },
        );
        assert_eq!(rec.series("reward").unwrap().len(), 4);
        assert_eq!(rec.series("collision").unwrap().len(), 4);
        assert_eq!(rec.series("mean_speed").unwrap().len(), 4);
        // The blocked learner exists in every episode of this scenario.
        assert_eq!(rec.series("success").unwrap().len(), 4);
    }

    #[test]
    fn train_team_matches_a_hand_written_decide_record_loop() {
        // The public per-step calls, driven by hand, must reproduce the
        // learner core's loop bit for bit (external harnesses time these
        // calls one by one and rely on ending in the same state).
        let env_cfg = EnvConfig {
            max_steps: 8,
            ..EnvConfig::default()
        };
        let opts = TrainOptions {
            episodes: 4,
            update_every: 2,
            seed: 4,
        };
        let mut env_a = scenario::two_vehicle_merge(env_cfg, 8);
        let mut team_a = small_team(env_cfg, 2);
        let rec = train_team(&mut team_a, &mut env_a, &opts);

        let mut env_b = scenario::two_vehicle_merge(env_cfg, 8);
        let mut team_b = small_team(env_cfg, 2);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut steps = 0;
        let mut critic = Vec::new();
        for _ in 0..opts.episodes {
            let mut obs = env_b.reset();
            team_b.begin_episode();
            while !env_b.is_done() {
                let commands = team_b.decide(&env_b, &obs, &mut rng, true);
                let out = env_b.step(&commands);
                team_b.record(&env_b, &obs, &out.rewards, &out.observations, out.done);
                steps += 1;
                if steps % opts.update_every == 0 {
                    if let Some((c, _)) = team_b.update(&mut rng) {
                        critic.push(c.to_bits());
                    }
                }
                obs = out.observations;
            }
        }
        let series: Vec<u32> = rec
            .series("critic_loss")
            .unwrap_or_default()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(series, critic);
        assert_eq!(team_a.save_state(), team_b.save_state());
        assert_eq!(env_a.rng_state(), env_b.rng_state());
    }

    #[test]
    fn evaluation_is_rate_bounded() {
        let env_cfg = EnvConfig {
            max_steps: 5,
            ..EnvConfig::default()
        };
        let mut env = scenario::congestion(env_cfg, 7);
        let mut team = small_team(env_cfg, 3);
        let stats = evaluate_team(&mut team, &mut env, 3, 9);
        assert!((0.0..=1.0).contains(&stats.collision_rate));
        assert!((0.0..=1.0).contains(&stats.success_rate));
        assert!(stats.mean_speed >= 0.0);
    }

    #[test]
    fn synchronous_mode_closes_all_segments_together() {
        let env_cfg = EnvConfig {
            max_steps: 12,
            ..EnvConfig::default()
        };
        let mut env = scenario::two_vehicle_merge(env_cfg, 11);
        let skills = Arc::new(SkillLibrary::untrained(
            env_cfg,
            SacConfig {
                hidden: 8,
                ..SacConfig::default()
            },
            0,
        ));
        let cfg = HeroConfig {
            hidden: 8,
            batch_size: 8,
            warmup: 8,
            termination: TerminationMode::Synchronous,
            ..HeroConfig::default()
        };
        let mut team = HeroTeam::new(2, env_cfg.high_dim(), skills, cfg, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut obs = env.reset();
        team.begin_episode();
        let mut steps = 0;
        while !env.is_done() && steps < 12 {
            let commands = team.decide(&env, &obs, &mut rng, true);
            let out = env.step(&commands);
            team.record(&env, &obs, &out.rewards, &out.observations, out.done);
            // Under synchronous termination no agent may hold an option
            // when another just terminated — i.e. after any step either
            // all agents are active or all are inactive.
            let active_count = team
                .cursor()
                .agents()
                .iter()
                .filter(|a| a.current_option().is_some())
                .count();
            assert!(
                active_count == 0 || active_count == team.agents().len(),
                "mixed activity under synchronous termination at step {steps}"
            );
            obs = out.observations;
            steps += 1;
        }
    }

    #[test]
    fn team_size_must_match_world() {
        let env_cfg = EnvConfig::default();
        let mut env = scenario::congestion(env_cfg, 0); // 3 learners
        let mut team = small_team(env_cfg, 2); // wrong size
        let mut rng = StdRng::seed_from_u64(0);
        let obs = env.reset();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.decide(&env, &obs, &mut rng, true)
        }));
        assert!(result.is_err());
    }
}
