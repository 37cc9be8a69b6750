//! The shared experiment harness: a training/evaluation loop for the flat
//! baselines (which pick one discrete option per step, executed by the
//! fixed [`ScriptedExecutor`]) and a [`Method`] registry so every figure
//! binary trains the same five algorithms through one code path.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hero_baselines::coma::{Coma, ComaConfig};
use hero_baselines::common::MultiAgentAlgorithm;
use hero_baselines::dqn::{DqnConfig, IndependentDqn};
use hero_baselines::maac::{Maac, MaacConfig};
use hero_baselines::maddpg::{Maddpg, MaddpgConfig};
use hero_core::config::HeroConfig;
use hero_core::rollout::{train_team_actor_learner, RolloutOptions};
use hero_core::skills::SkillLibrary;
use hero_core::trainer::{
    evaluate_team, train_team_checkpointed, CheckpointConfig, EvalStats, HeroTeam, TrainError,
    TrainOptions,
};
use hero_faultplan::KillMode;
use hero_rl::metrics::Recorder;
use hero_rl::telemetry;
use hero_rl::transition::JointTransition;
use hero_sim::env::CooperativeWorld;
use hero_sim::options::{DrivingOption, ScriptedExecutor};
use hero_sim::vehicle::VehicleCommand;

/// Training knobs for the flat baselines.
#[derive(Clone, Copy, Debug)]
pub struct BaselineTrainOptions {
    /// Episodes to run.
    pub episodes: usize,
    /// Environment steps between gradient updates.
    pub update_every: usize,
    /// Seed for exploration randomness.
    pub seed: u64,
}

/// Trains a flat baseline in `env`: every step each agent picks one
/// discrete option executed by the scripted low-level controller — the
/// "end-to-end" protocol the paper contrasts HERO against.
pub fn train_baseline<W, A>(algo: &mut A, env: &mut W, opts: &BaselineTrainOptions) -> Recorder
where
    W: CooperativeWorld,
    A: MultiAgentAlgorithm + ?Sized,
{
    train_baseline_faulted(algo, env, opts, &CheckpointConfig::default())
}

/// [`train_baseline`] honoring the kill faults of a [`CheckpointConfig`]'s
/// fault plan, so the flat baselines participate in crash-injection CI.
///
/// Flat baselines do **not** support checkpoint save/resume — the
/// [`MultiAgentAlgorithm`] trait exposes no parameter or buffer state, so
/// a resumed run would silently restart learning from scratch. When the
/// config asks for checkpointing or resume this logs a notice and trains
/// from episode zero; only HERO (and the low-level SAC skills) offer
/// bit-identical resume.
pub fn train_baseline_faulted<W, A>(
    algo: &mut A,
    env: &mut W,
    opts: &BaselineTrainOptions,
    ckpt: &CheckpointConfig,
) -> Recorder
where
    W: CooperativeWorld,
    A: MultiAgentAlgorithm + ?Sized,
{
    if ckpt.every > 0 || ckpt.resume {
        telemetry::progress(
            "flat baselines do not support checkpoint save/resume; training from scratch",
        );
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut rec = Recorder::new();
    let executor = ScriptedExecutor::new();
    let mut step_counter = 0usize;
    for episode in 0..opts.episodes {
        if ckpt.fault_plan.should_kill(episode) {
            telemetry::counter_add("checkpoint/fault_kill", 1);
            let _ = telemetry::flush();
            match ckpt.kill_mode {
                KillMode::Exit => std::process::exit(137),
                KillMode::Return => return rec,
            }
        }
        let mut obs = env.reset();
        let mut ep_reward = 0.0;
        let mut ep_speed = 0.0;
        let mut steps = 0usize;
        while !env.is_done() {
            let (out, rewards) = {
                let _rollout = telemetry::span("rollout");
                let learners = env.learner_indices();
                let high: Vec<Vec<f32>> = learners.iter().map(|&v| obs[v].high_vec()).collect();
                let actions = algo.act(&high, &mut rng, true);
                let mut commands = vec![VehicleCommand::default(); env.num_vehicles()];
                for (k, &v) in learners.iter().enumerate() {
                    let option = DrivingOption::from_index(actions[k]);
                    let state = env.vehicle_state(v);
                    commands[v] = executor.command(option, &state, &env.config().track);
                }
                let out = env.step(&commands);
                let next_high: Vec<Vec<f32>> =
                    learners.iter().map(|&v| out.observations[v].high_vec()).collect();
                let rewards: Vec<f32> = learners.iter().map(|&v| out.rewards[v]).collect();
                algo.observe(JointTransition {
                    obs: high,
                    actions,
                    rewards: rewards.clone(),
                    next_obs: next_high,
                    done: out.done,
                });
                (out, rewards)
            };
            ep_reward += rewards.iter().sum::<f32>() / rewards.len() as f32;
            ep_speed += out.mean_speed;
            steps += 1;
            step_counter += 1;
            if step_counter % opts.update_every == 0 {
                let _update = telemetry::span("update");
                if let Some(stats) = algo.update(&mut rng) {
                    telemetry::counter_add("grad_updates", 1);
                    telemetry::observe("critic_loss", stats.critic_loss as f64);
                    rec.push("critic_loss", stats.critic_loss);
                }
            }
            obs = out.observations;
        }
        telemetry::counter_add("episodes", 1);
        telemetry::progress(&format!("ep {}", episode + 1));
        push_episode_metrics(&mut rec, env, ep_reward, ep_speed, steps);
    }
    rec
}

/// Greedy evaluation of a flat baseline, mirroring
/// [`hero_core::trainer::evaluate_team`].
pub fn evaluate_baseline<W, A>(algo: &mut A, env: &mut W, episodes: usize, seed: u64) -> EvalStats
where
    W: CooperativeWorld,
    A: MultiAgentAlgorithm + ?Sized,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let executor = ScriptedExecutor::new();
    let mut collisions = 0usize;
    let mut merges = 0usize;
    let mut candidates = 0usize;
    let mut speed_sum = 0.0;
    let mut reward_sum = 0.0;
    let mut steps = 0usize;
    for _ in 0..episodes {
        let mut obs = env.reset();
        while !env.is_done() {
            let learners = env.learner_indices();
            let high: Vec<Vec<f32>> = learners.iter().map(|&v| obs[v].high_vec()).collect();
            let actions = algo.act(&high, &mut rng, false);
            let mut commands = vec![VehicleCommand::default(); env.num_vehicles()];
            for (k, &v) in learners.iter().enumerate() {
                let option = DrivingOption::from_index(actions[k]);
                let state = env.vehicle_state(v);
                commands[v] = executor.command(option, &state, &env.config().track);
            }
            let out = env.step(&commands);
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
                candidates += 1;
                if env.has_merged(v) {
                    merges += 1;
                }
            }
        }
    }
    EvalStats {
        collision_rate: collisions as f32 / episodes.max(1) as f32,
        success_rate: if candidates > 0 {
            merges as f32 / candidates as f32
        } else {
            1.0
        },
        mean_speed: speed_sum / steps.max(1) as f32,
        mean_reward: reward_sum / steps.max(1) as f32,
    }
}

fn push_episode_metrics<W: CooperativeWorld>(
    rec: &mut Recorder,
    env: &W,
    ep_reward: f32,
    ep_speed: f32,
    steps: usize,
) {
    let learners = env.learner_indices();
    rec.push("reward", ep_reward / steps.max(1) as f32);
    rec.push(
        "collision",
        if learners.iter().any(|&v| env.has_collided(v)) {
            1.0
        } else {
            0.0
        },
    );
    let candidates: Vec<usize> = learners
        .iter()
        .copied()
        .filter(|&v| env.needs_merge(v))
        .collect();
    if !candidates.is_empty() {
        let merged = candidates.iter().filter(|&&v| env.has_merged(v)).count();
        rec.push("success", merged as f32 / candidates.len() as f32);
    }
    rec.push("mean_speed", ep_speed / steps.max(1) as f32);
}

/// The five methods of the paper's comparison (Sec. V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// HERO (ours).
    Hero,
    /// Independent Deep Q-learning.
    Dqn,
    /// Counterfactual multi-agent policy gradients.
    Coma,
    /// Multi-agent DDPG.
    Maddpg,
    /// Multi-actor-attention-critic.
    Maac,
}

impl Method {
    /// All methods, HERO first.
    pub const ALL: [Method; 5] = [
        Method::Hero,
        Method::Dqn,
        Method::Coma,
        Method::Maddpg,
        Method::Maac,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Method::Hero => "HERO",
            Method::Dqn => "DQN",
            Method::Coma => "COMA",
            Method::Maddpg => "MADDPG",
            Method::Maac => "MAAC",
        }
    }
}

/// A policy trained by the harness, ready for evaluation in any world
/// (plain simulation or the sim-to-real testbed proxy).
pub enum TrainedPolicy {
    /// A HERO team.
    Hero(Box<HeroTeam>),
    /// Any flat baseline.
    Baseline(Box<dyn MultiAgentAlgorithm>),
}

impl TrainedPolicy {
    /// Greedy evaluation in `env`.
    pub fn evaluate<W: CooperativeWorld>(
        &mut self,
        env: &mut W,
        episodes: usize,
        seed: u64,
    ) -> EvalStats {
        match self {
            TrainedPolicy::Hero(team) => evaluate_team(team, env, episodes, seed),
            TrainedPolicy::Baseline(algo) => {
                evaluate_baseline(algo.as_mut(), env, episodes, seed)
            }
        }
    }
}

/// Shared sizing parameters when constructing a method for a scenario.
#[derive(Clone, Copy, Debug)]
pub struct MethodParams {
    /// Number of learning agents.
    pub n_agents: usize,
    /// High-level observation width.
    pub obs_dim: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Construction seed.
    pub seed: u64,
}

/// Builds a method's learner. HERO additionally needs a trained (or
/// deliberately untrained, for ablations) skill library.
pub fn build_method(
    method: Method,
    params: MethodParams,
    hero_parts: Option<(Arc<SkillLibrary>, HeroConfig)>,
) -> TrainedPolicy {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n_actions = DrivingOption::COUNT;
    match method {
        Method::Hero => {
            let (skills, cfg) = hero_parts.expect("HERO requires a skill library");
            // Warm-up never exceeds one mini-batch: smoke-scale runs
            // (`--batch-size 8 --episodes 2`) must reach the instrumented
            // update path, and at paper scale the default warm-up is
            // already below the batch size so nothing changes.
            let cfg = HeroConfig {
                batch_size: params.batch_size,
                warmup: cfg.warmup.min(params.batch_size),
                ..cfg
            };
            TrainedPolicy::Hero(Box::new(HeroTeam::new(
                params.n_agents,
                params.obs_dim,
                skills,
                cfg,
                params.seed,
            )))
        }
        Method::Dqn => TrainedPolicy::Baseline(Box::new(IndependentDqn::new(
            params.n_agents,
            params.obs_dim,
            n_actions,
            DqnConfig {
                batch_size: params.batch_size,
                ..DqnConfig::default()
            },
            &mut rng,
        ))),
        Method::Coma => TrainedPolicy::Baseline(Box::new(Coma::new(
            params.n_agents,
            params.obs_dim,
            n_actions,
            ComaConfig::default(),
            &mut rng,
        ))),
        Method::Maddpg => TrainedPolicy::Baseline(Box::new(Maddpg::new(
            params.n_agents,
            params.obs_dim,
            n_actions,
            MaddpgConfig {
                batch_size: params.batch_size,
                ..MaddpgConfig::default()
            },
            &mut rng,
        ))),
        Method::Maac => TrainedPolicy::Baseline(Box::new(Maac::new(
            params.n_agents,
            params.obs_dim,
            n_actions,
            MaacConfig {
                batch_size: params.batch_size,
                ..MaacConfig::default()
            },
            &mut rng,
        ))),
    }
}

/// Trains a [`TrainedPolicy`] in `env`, returning its learning curves.
pub fn train_policy<W: CooperativeWorld>(
    policy: &mut TrainedPolicy,
    env: &mut W,
    episodes: usize,
    update_every: usize,
    seed: u64,
) -> Recorder {
    train_policy_checkpointed(
        policy,
        env,
        episodes,
        update_every,
        seed,
        &CheckpointConfig::default(),
    )
    .expect("default checkpoint config cannot fail")
}

/// Unwraps a training result for a binary's main path: a typed
/// [`TrainError`] (resume refusal, fleet lost) flushes telemetry, prints
/// the message, and exits nonzero — no panic backtrace, no silent
/// partial run.
pub fn exit_on_train_error<T>(result: Result<T, TrainError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            let _ = telemetry::flush();
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// [`train_policy`] with crash safety: HERO gets full checkpoint/resume
/// and fault injection through
/// [`train_team_checkpointed`]; the flat baselines honor kill faults only
/// (see [`train_baseline_faulted`] for why resume is HERO-only).
///
/// # Errors
///
/// Propagates [`TrainError`] from the HERO trainer (a refused fast-math
/// resume); the baselines cannot fail typed.
pub fn train_policy_checkpointed<W: CooperativeWorld>(
    policy: &mut TrainedPolicy,
    env: &mut W,
    episodes: usize,
    update_every: usize,
    seed: u64,
    ckpt: &CheckpointConfig,
) -> Result<Recorder, TrainError> {
    match policy {
        TrainedPolicy::Hero(team) => Ok(train_team_checkpointed(
            team,
            env,
            &TrainOptions {
                episodes,
                update_every,
                seed,
            },
            ckpt,
        )?
        .recorder),
        TrainedPolicy::Baseline(algo) => Ok(train_baseline_faulted(
            algo.as_mut(),
            env,
            &BaselineTrainOptions {
                episodes,
                update_every,
                seed,
            },
            ckpt,
        )),
    }
}

/// [`train_policy_checkpointed`] with HERO's rollout on supervised actor
/// threads ([`train_team_actor_learner`]). The default one actor and one
/// world (with no actor faults planned) is [`train_team_checkpointed`]
/// itself; more serial actors stay bit-identical to it.
/// The flat baselines train sequentially (their update loop is already
/// the bottleneck, and they hold no per-world cursor state to shard) and
/// log a notice when `rollout` asks for more actors or worlds.
///
/// Requires a concrete [`hero_sim::env::LaneChangeEnv`] because actor
/// threads rebuild world replicas from its config/spawns/seed.
///
/// # Errors
///
/// Propagates [`TrainError`] from the engine: a refused fast-math
/// resume, or a lost actor fleet after the respawn budget is exhausted.
#[allow(clippy::too_many_arguments)]
pub fn train_policy_distributed(
    policy: &mut TrainedPolicy,
    env: &mut hero_sim::env::LaneChangeEnv,
    episodes: usize,
    update_every: usize,
    seed: u64,
    ckpt: &CheckpointConfig,
    rollout: &RolloutOptions,
) -> Result<Recorder, TrainError> {
    if let TrainedPolicy::Hero(team) = policy {
        let opts = TrainOptions {
            episodes,
            update_every,
            seed,
        };
        return Ok(train_team_actor_learner(team, env, &opts, ckpt, rollout)?.recorder);
    }
    if rollout.is_distributed() {
        telemetry::progress("flat baselines train sequentially; ignoring --actors/--batch-worlds");
    }
    train_policy_checkpointed(policy, env, episodes, update_every, seed, ckpt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_baselines::sac::SacConfig;
    use hero_sim::env::EnvConfig;
    use hero_sim::scenario;

    fn tiny_env() -> (EnvConfig, hero_sim::env::LaneChangeEnv) {
        let cfg = EnvConfig {
            max_steps: 5,
            ..EnvConfig::default()
        };
        (cfg, scenario::two_vehicle_merge(cfg, 3))
    }

    #[test]
    fn baseline_loop_records_series() {
        let (cfg, mut env) = tiny_env();
        let mut rng = StdRng::seed_from_u64(0);
        let mut algo = IndependentDqn::new(
            2,
            cfg.high_dim(),
            DrivingOption::COUNT,
            DqnConfig {
                hidden: 8,
                batch_size: 8,
                warmup: 8,
                ..DqnConfig::default()
            },
            &mut rng,
        );
        let rec = train_baseline(
            &mut algo,
            &mut env,
            &BaselineTrainOptions {
                episodes: 3,
                update_every: 2,
                seed: 1,
            },
        );
        assert_eq!(rec.series("reward").unwrap().len(), 3);
        assert_eq!(rec.series("collision").unwrap().len(), 3);
    }

    #[test]
    fn every_method_builds_and_trains_one_episode() {
        let (cfg, _) = tiny_env();
        let skills = Arc::new(SkillLibrary::untrained(
            cfg,
            SacConfig {
                hidden: 8,
                ..SacConfig::default()
            },
            0,
        ));
        let hero_cfg = HeroConfig {
            hidden: 8,
            warmup: 8,
            ..HeroConfig::default()
        };
        for method in Method::ALL {
            let mut env = scenario::two_vehicle_merge(cfg, 5);
            let mut policy = build_method(
                method,
                MethodParams {
                    n_agents: 2,
                    obs_dim: cfg.high_dim(),
                    batch_size: 8,
                    seed: 2,
                },
                Some((skills.clone(), hero_cfg)),
            );
            let rec = train_policy(&mut policy, &mut env, 2, 2, 3);
            assert_eq!(
                rec.series("reward").unwrap().len(),
                2,
                "{} failed to record",
                method.name()
            );
            let stats = policy.evaluate(&mut env, 2, 4);
            assert!((0.0..=1.0).contains(&stats.collision_rate), "{}", method.name());
        }
    }

    #[test]
    fn method_names_match_paper() {
        let names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["HERO", "DQN", "COMA", "MADDPG", "MAAC"]);
    }
}
