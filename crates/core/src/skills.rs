//! The low-level skill library (Sec. III-D): SAC policies that execute the
//! options. The paper trains two skills in parallel single-vehicle
//! environments — lane tracking (serving `keep lane` / `slow down` /
//! `accelerate`, conditioned on the option) and lane change — then reuses
//! them inside every agent.

use hero_autograd::serialize::{load_params, save_params};
use hero_autograd::{CheckpointError, Parameter};
use rand::rngs::StdRng;
use rand::SeedableRng;

use hero_baselines::sac::{ObsLayout, SacAgent, SacConfig};
use hero_rl::metrics::Recorder;
use hero_rl::rollout::run_parallel;
use hero_rl::transition::ContinuousTransition;
use hero_sim::env::{EnvConfig, Observation};
use hero_sim::options::{resolve_lane_change_steering, DrivingOption};
use hero_sim::skill_env::{ManeuverResult, SkillEnv, SkillKind, IN_LANE_TRAINED_OPTIONS};
use hero_sim::vehicle::{VehicleCommand, VehicleState};

/// Configuration of skill training.
#[derive(Clone, Copy, Debug)]
pub struct SkillTrainingConfig {
    /// SAC hyper-parameters for both skills.
    pub sac: SacConfig,
    /// Training episodes per skill.
    pub episodes: usize,
    /// Gradient updates applied after each episode.
    pub updates_per_episode: usize,
    /// Encode the camera image with a CNN (the paper's design, Sec. V-B)
    /// instead of flattening it into the MLP. Slower but closer to the
    /// original architecture.
    pub vision: bool,
}

impl Default for SkillTrainingConfig {
    fn default() -> Self {
        Self {
            sac: SacConfig {
                batch_size: 128,
                warmup: 256,
                ..SacConfig::default()
            },
            episodes: 2_000,
            updates_per_episode: 4,
            vision: false,
        }
    }
}

/// The SAC config for one skill: with `vision`, the image prefix of the
/// observation runs through a convolutional encoder and the trailing
/// `extras` scalars (speed, laneID, option conditioning) are concatenated
/// after it.
fn skill_sac_config(base: SacConfig, env_cfg: &EnvConfig, extras: usize, vision: bool) -> SacConfig {
    if vision {
        SacConfig {
            obs_layout: ObsLayout::Image {
                channels: 1,
                height: env_cfg.camera.rows,
                width: env_cfg.camera.cols,
                extras,
            },
            ..base
        }
    } else {
        SacConfig {
            obs_layout: ObsLayout::Flat,
            ..base
        }
    }
}

/// The trained low-level skills of one (or all — they are shared) agents.
#[derive(Debug)]
pub struct SkillLibrary {
    in_lane: SacAgent,
    lane_change: SacAgent,
    env_cfg: EnvConfig,
}

impl SkillLibrary {
    /// Creates an *untrained* library (useful for tests and for loading
    /// checkpoints into). The SAC config's `obs_layout` is derived per
    /// skill; pass `vision` to route the image through a CNN.
    pub fn untrained(env_cfg: EnvConfig, sac: SacConfig, seed: u64) -> Self {
        Self::untrained_with_vision(env_cfg, sac, false, seed)
    }

    /// [`SkillLibrary::untrained`] with an explicit encoder choice.
    pub fn untrained_with_vision(
        env_cfg: EnvConfig,
        sac: SacConfig,
        vision: bool,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let in_lane_obs = env_cfg.low_dim() + IN_LANE_TRAINED_OPTIONS.len();
        let lane_change_obs = env_cfg.low_dim();
        let in_lane_cfg =
            skill_sac_config(sac, &env_cfg, 2 + IN_LANE_TRAINED_OPTIONS.len(), vision);
        let lane_change_cfg = skill_sac_config(sac, &env_cfg, 2, vision);
        Self {
            in_lane: SacAgent::new(in_lane_obs, 2, in_lane_cfg, &mut rng),
            lane_change: SacAgent::new(lane_change_obs, 2, lane_change_cfg, &mut rng),
            env_cfg,
        }
    }

    /// Trains both skills in parallel single-vehicle environments
    /// (Algorithm 2 / Fig. 8), returning the library and the per-skill
    /// episode-reward curves (`skill/driving-in-lane`, `skill/lane-change`)
    /// plus the lane-change success indicator series
    /// (`skill/lane-change-success`).
    pub fn train(env_cfg: EnvConfig, cfg: SkillTrainingConfig, seed: u64) -> (Self, Recorder) {
        let kinds = [SkillKind::DrivingInLane, SkillKind::LaneChange];
        let mut results = run_parallel(2, |w| {
            train_one_skill(env_cfg, cfg, kinds[w], seed.wrapping_add(w as u64))
        });
        let (lc_agent, lc_curve, lc_success) = results.pop().expect("lane-change worker");
        let (il_agent, il_curve, _) = results.pop().expect("in-lane worker");
        let mut rec = Recorder::new();
        for v in il_curve {
            rec.push("skill/driving-in-lane", v);
        }
        for v in lc_curve {
            rec.push("skill/lane-change", v);
        }
        for v in lc_success {
            rec.push("skill/lane-change-success", v);
        }
        (
            Self {
                in_lane: il_agent,
                lane_change: lc_agent,
                env_cfg,
            },
            rec,
        )
    }

    /// The lane-change skill.
    pub fn lane_change_skill(&self) -> &SacAgent {
        &self.lane_change
    }

    /// The command executing `option` for one step.
    ///
    /// `target_d` is the lateral coordinate of the option's target lane
    /// center (only used by lane change). With `stochastic` the SAC
    /// policies sample; otherwise they act deterministically.
    pub fn command(
        &self,
        option: DrivingOption,
        obs: &Observation,
        state: &VehicleState,
        target_d: f32,
        rng: &mut StdRng,
        stochastic: bool,
    ) -> VehicleCommand {
        match option {
            DrivingOption::KeepLane => {
                // Keep lane preserves speed but still recenters gently so
                // small drifts do not accumulate into wall collisions.
                let track = self.env_cfg.track;
                let center = track.lane_center(state.lane(&track));
                let steer = (1.2 * (center - state.d) - 0.8 * state.heading).clamp(-0.1, 0.1);
                VehicleCommand::new(state.speed, steer)
            }
            DrivingOption::SlowDown | DrivingOption::Accelerate => {
                let mut input = obs.low_flat_vec();
                for o in IN_LANE_TRAINED_OPTIONS {
                    input.push(if o == option { 1.0 } else { 0.0 });
                }
                let a = self.in_lane.act(&input, rng, stochastic);
                let bounds = option.action_bounds().expect("in-lane options have bounds");
                let (linear, angular) = bounds.denormalize(a[0], a[1]);
                VehicleCommand::new(linear, angular)
            }
            DrivingOption::LaneChange => {
                let input = obs.low_flat_vec();
                let a = self.lane_change.act(&input, rng, stochastic);
                let bounds = DrivingOption::LaneChange
                    .action_bounds()
                    .expect("lane change has bounds");
                let (linear, magnitude) = bounds.denormalize(a[0], a[1]);
                let angular = resolve_lane_change_steering(state, target_d, magnitude);
                VehicleCommand::new(linear, angular)
            }
        }
    }

    /// All trainable parameters (in-lane skill then lane-change skill).
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut p = self.in_lane.parameters();
        p.extend(self.lane_change.parameters());
        p
    }

    /// Saves both skills to a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        save_params(path, &self.parameters())
    }

    /// Loads both skills from a checkpoint written by
    /// [`SkillLibrary::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when the file does not match this
    /// library's architecture.
    pub fn load(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        load_params(path, &self.parameters())
    }
}

fn train_one_skill(
    env_cfg: EnvConfig,
    cfg: SkillTrainingConfig,
    kind: SkillKind,
    seed: u64,
) -> (SacAgent, Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = match kind {
        SkillKind::DrivingInLane => SkillEnv::driving_in_lane(env_cfg, seed),
        SkillKind::LaneChange => SkillEnv::lane_change(env_cfg, seed),
    };
    let sac = skill_sac_config(cfg.sac, &env_cfg, 2 + env.condition_dim(), cfg.vision);
    let mut agent = SacAgent::new(env.obs_dim(), env.action_dim(), sac, &mut rng);
    let mut rewards = Vec::with_capacity(cfg.episodes);
    let mut successes = Vec::with_capacity(cfg.episodes);
    for episode in 0..cfg.episodes {
        let mut obs = env.reset();
        let mut total = 0.0;
        {
            let _rollout = hero_rl::telemetry::span("skill_rollout");
            while !env.is_done() {
                let a = agent.act(&obs, &mut rng, true);
                let (next, r, done) = env.step([a[0], a[1]]);
                hero_rl::telemetry::counter_add("skill_env_steps", 1);
                // Stage-one shaped reward — the "intrinsic" skill signal,
                // as opposed to the cooperative reward of stage two.
                hero_rl::telemetry::observe("reward/intrinsic", r as f64);
                agent.observe(ContinuousTransition {
                    obs: obs.clone(),
                    action: a,
                    reward: r,
                    next_obs: next.clone(),
                    done,
                });
                obs = next;
                total += r;
            }
        }
        {
            let _update = hero_rl::telemetry::span("skill_update");
            for _ in 0..cfg.updates_per_episode {
                if agent.update(&mut rng).is_some() {
                    hero_rl::telemetry::counter_add("grad_updates", 1);
                }
            }
        }
        hero_rl::telemetry::counter_add("skill_episodes", 1);
        hero_rl::telemetry::progress(&format!("{kind:?} skill ep {}", episode + 1));
        rewards.push(total);
        successes.push(match env.result() {
            ManeuverResult::Success => 1.0,
            _ => 0.0,
        });
    }
    (agent, rewards, successes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_library_produces_bounded_commands() {
        let env_cfg = EnvConfig::default();
        let lib = SkillLibrary::untrained(env_cfg, SacConfig::default(), 0);
        let mut rng = StdRng::seed_from_u64(0);
        let state = VehicleState {
            s: 0.0,
            d: 0.2,
            heading: 0.0,
            speed: 0.1,
        };
        let obs = Observation {
            lidar: vec![1.0; env_cfg.lidar.beams],
            image: vec![0.0; env_cfg.camera.image_len()],
            speed_norm: 0.4,
            lane_norm: 0.0,
            lane_id: 0,
            speed: 0.1,
        };
        for option in DrivingOption::ALL {
            let cmd = lib.command(option, &obs, &state, 0.6, &mut rng, true);
            assert!(cmd.linear >= 0.0 && cmd.linear <= 0.25, "{option}: {cmd:?}");
            assert!(cmd.angular.abs() <= 0.3, "{option}: {cmd:?}");
            if let Some(b) = option.action_bounds() {
                assert!(cmd.linear >= b.linear.0 - 1e-5 && cmd.linear <= b.linear.1 + 1e-5);
            }
        }
        // Keep-lane preserves speed.
        let keep = lib.command(DrivingOption::KeepLane, &obs, &state, 0.2, &mut rng, false);
        assert_eq!(keep.linear, 0.1);
    }

    #[test]
    fn lane_change_command_steers_toward_target() {
        let env_cfg = EnvConfig::default();
        let lib = SkillLibrary::untrained(env_cfg, SacConfig::default(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        let state = VehicleState {
            s: 0.0,
            d: 0.2,
            heading: 0.0,
            speed: 0.12,
        };
        let obs = Observation {
            lidar: vec![1.0; env_cfg.lidar.beams],
            image: vec![0.0; env_cfg.camera.image_len()],
            speed_norm: 0.5,
            lane_norm: 0.0,
            lane_id: 0,
            speed: 0.12,
        };
        let up = lib.command(DrivingOption::LaneChange, &obs, &state, 0.6, &mut rng, false);
        assert!(up.angular > 0.0, "target above: steer up, got {:?}", up);
        let down_state = VehicleState { d: 0.6, ..state };
        let down = lib.command(DrivingOption::LaneChange, &obs, &down_state, 0.2, &mut rng, false);
        assert!(down.angular < 0.0, "target below: steer down, got {:?}", down);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let env_cfg = EnvConfig::default();
        let lib = SkillLibrary::untrained(env_cfg, SacConfig::default(), 2);
        let path = std::env::temp_dir().join(format!("hero_skills_{}.bin", std::process::id()));
        lib.save(&path).unwrap();
        let mut other = SkillLibrary::untrained(env_cfg, SacConfig::default(), 99);
        other.load(&path).unwrap();
        let (a, b) = (lib.parameters(), other.parameters());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(&*x.value(), &*y.value());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn short_training_run_completes_and_records_curves() {
        let cfg = SkillTrainingConfig {
            episodes: 3,
            updates_per_episode: 1,
            vision: false,
            sac: SacConfig {
                hidden: 8,
                batch_size: 8,
                warmup: 8,
                ..SacConfig::default()
            },
        };
        let (_lib, rec) = SkillLibrary::train(EnvConfig::default(), cfg, 7);
        assert_eq!(rec.series("skill/driving-in-lane").unwrap().len(), 3);
        assert_eq!(rec.series("skill/lane-change").unwrap().len(), 3);
        assert_eq!(rec.series("skill/lane-change-success").unwrap().len(), 3);
    }

    #[test]
    fn vision_skill_training_runs_and_commands_are_bounded() {
        let cfg = SkillTrainingConfig {
            episodes: 2,
            updates_per_episode: 1,
            vision: true,
            sac: SacConfig {
                hidden: 8,
                batch_size: 4,
                warmup: 4,
                ..SacConfig::default()
            },
        };
        let env_cfg = EnvConfig::default();
        let (lib, rec) = SkillLibrary::train(env_cfg, cfg, 9);
        assert_eq!(rec.series("skill/driving-in-lane").unwrap().len(), 2);
        let mut rng = StdRng::seed_from_u64(0);
        let obs = Observation {
            lidar: vec![1.0; env_cfg.lidar.beams],
            image: vec![0.0; env_cfg.camera.image_len()],
            speed_norm: 0.4,
            lane_norm: 0.0,
            lane_id: 0,
            speed: 0.1,
        };
        let state = VehicleState {
            s: 0.0,
            d: 0.2,
            heading: 0.0,
            speed: 0.1,
        };
        let cmd = lib.command(DrivingOption::Accelerate, &obs, &state, 0.2, &mut rng, false);
        let b = DrivingOption::Accelerate.action_bounds().unwrap();
        assert!(cmd.linear >= b.linear.0 && cmd.linear <= b.linear.1);
    }

    #[test]
    fn vision_and_flat_checkpoints_are_incompatible() {
        let env_cfg = EnvConfig::default();
        let flat = SkillLibrary::untrained(env_cfg, SacConfig::default(), 0);
        let path =
            std::env::temp_dir().join(format!("hero_skill_mismatch_{}.bin", std::process::id()));
        flat.save(&path).unwrap();
        let mut vision =
            SkillLibrary::untrained_with_vision(env_cfg, SacConfig::default(), true, 0);
        assert!(vision.load(&path).is_err(), "architectures differ");
        std::fs::remove_file(path).ok();
    }
}
