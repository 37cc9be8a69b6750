//! The "real-world testbed" proxy: the same lane-change world with a
//! configurable sim-to-real domain gap.
//!
//! The paper's Table II deploys policies trained in simulation onto
//! physical vehicles (camera/lidar robots on a two-lane track) and
//! measures the degradation over 20 episodes. We reproduce that protocol
//! by wrapping [`LaneChangeEnv`] with the classic domain-gap ingredients:
//! sensor noise, one-step actuation latency, actuation noise, a per-episode
//! actuation gain (battery/friction variation), and a constant heading
//! drift (calibration error).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::env::{EnvConfig, LaneChangeEnv, Observation, StepOutcome, VehicleSpawn};
use crate::vehicle::VehicleCommand;

/// Strength of each domain-gap ingredient.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimToRealConfig {
    /// Gaussian noise std added to lidar and image cells (observation
    /// units are normalized, so ~0.02 is mild and ~0.1 severe).
    pub obs_noise_std: f32,
    /// Gaussian noise std added to commanded speeds.
    pub action_noise_std: f32,
    /// Whether commands take effect one control period late.
    pub action_delay: bool,
    /// Per-episode actuation gain is drawn uniformly from this range.
    pub gain_range: (f32, f32),
    /// Constant angular bias (rad/s) applied every step.
    pub heading_drift: f32,
}

impl Default for SimToRealConfig {
    fn default() -> Self {
        Self {
            obs_noise_std: 0.02,
            action_noise_std: 0.01,
            action_delay: true,
            gain_range: (0.9, 1.05),
            heading_drift: 0.01,
        }
    }
}

impl SimToRealConfig {
    /// No gap at all — the wrapper becomes an identity layer (useful in
    /// tests).
    pub fn identity() -> Self {
        Self {
            obs_noise_std: 0.0,
            action_noise_std: 0.0,
            action_delay: false,
            gain_range: (1.0, 1.0),
            heading_drift: 0.0,
        }
    }
}

/// [`LaneChangeEnv`] behind a sim-to-real domain gap. Mirrors the inner
/// environment's API so evaluation code is agnostic to which world it runs
/// in.
#[derive(Debug)]
pub struct SimToRealEnv {
    inner: LaneChangeEnv,
    cfg: SimToRealConfig,
    rng: StdRng,
    pending: Vec<VehicleCommand>,
    episode_gain: f32,
}

impl SimToRealEnv {
    /// Wraps a fresh lane-change world in the given domain gap.
    pub fn new(
        env_cfg: EnvConfig,
        spawns: Vec<VehicleSpawn>,
        gap: SimToRealConfig,
        seed: u64,
    ) -> Self {
        let n = spawns.len();
        let mut env = Self {
            inner: LaneChangeEnv::new(env_cfg, spawns, seed),
            cfg: gap,
            rng: StdRng::seed_from_u64(seed ^ 0x5133_7A11),
            pending: vec![VehicleCommand::default(); n],
            episode_gain: 1.0,
        };
        // Draw this episode's gain without resetting the inner world again
        // — the inner constructor already reset it, and an extra reset
        // would desynchronize the spawn jitter from a plain environment
        // built with the same seed.
        let (lo, hi) = env.cfg.gain_range;
        env.episode_gain = if hi > lo {
            env.rng.gen_range(lo..hi)
        } else {
            lo
        };
        env
    }

    /// The wrapped environment's configuration.
    pub fn config(&self) -> &EnvConfig {
        self.inner.config()
    }

    /// Number of vehicles.
    pub fn num_vehicles(&self) -> usize {
        self.inner.num_vehicles()
    }

    /// Indices of the learner-controlled vehicles.
    pub fn learner_indices(&self) -> Vec<usize> {
        self.inner.learner_indices()
    }

    /// Whether the episode has ended.
    pub fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    /// Delegates to [`LaneChangeEnv::needs_merge`].
    pub fn needs_merge(&self, i: usize) -> bool {
        self.inner.needs_merge(i)
    }

    /// Kinematic state of vehicle `i` (exact — on the testbed each robot
    /// knows its own pose from odometry).
    pub fn vehicle_state(&self, i: usize) -> crate::vehicle::VehicleState {
        self.inner.vehicle_state(i)
    }

    /// Delegates to [`LaneChangeEnv::has_merged`].
    pub fn has_merged(&self, i: usize) -> bool {
        self.inner.has_merged(i)
    }

    /// Delegates to [`LaneChangeEnv::has_collided`].
    pub fn has_collided(&self, i: usize) -> bool {
        self.inner.has_collided(i)
    }

    /// Starts a new episode: draws this episode's actuation gain, clears
    /// the latency buffer, and returns noised observations.
    pub fn reset(&mut self) -> Vec<Observation> {
        let (lo, hi) = self.cfg.gain_range;
        self.episode_gain = if hi > lo {
            self.rng.gen_range(lo..hi)
        } else {
            lo
        };
        self.pending = vec![VehicleCommand::default(); self.inner.num_vehicles()];
        let obs = self.inner.reset();
        obs.into_iter().map(|o| self.noise_obs(o)).collect()
    }

    /// Steps the wrapped world with the domain gap applied to both the
    /// commands and the returned observations.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LaneChangeEnv::step`].
    pub fn step(&mut self, commands: &[VehicleCommand]) -> StepOutcome {
        let effective: Vec<VehicleCommand> = if self.cfg.action_delay {
            let delayed = self.pending.clone();
            self.pending = commands.to_vec();
            delayed
        } else {
            commands.to_vec()
        };
        let perturbed: Vec<VehicleCommand> = effective
            .iter()
            .map(|c| {
                VehicleCommand::new(
                    (c.linear * self.episode_gain + self.gaussian() * self.cfg.action_noise_std)
                        .max(0.0),
                    c.angular
                        + self.cfg.heading_drift
                        + self.gaussian() * self.cfg.action_noise_std,
                )
            })
            .collect();
        let mut out = self.inner.step(&perturbed);
        out.observations = out
            .observations
            .into_iter()
            .map(|o| self.noise_obs(o))
            .collect();
        out
    }

    fn noise_obs(&mut self, mut o: Observation) -> Observation {
        if self.cfg.obs_noise_std > 0.0 {
            for v in o.lidar.iter_mut() {
                *v = (*v + self.gaussian() * self.cfg.obs_noise_std).clamp(0.0, 1.0);
            }
            for v in o.image.iter_mut() {
                *v = (*v + self.gaussian() * self.cfg.obs_noise_std).clamp(0.0, 1.0);
            }
            o.speed_norm =
                (o.speed_norm + self.gaussian() * self.cfg.obs_noise_std).clamp(0.0, 1.0);
        }
        o
    }

    fn gaussian(&mut self) -> f32 {
        let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::VehicleRole;

    fn spawns() -> Vec<VehicleSpawn> {
        vec![
            VehicleSpawn {
                lane: 0,
                random_lane: false,
                s: 0.0,
                s_jitter: 0.0,
                speed: 0.1,
                role: VehicleRole::Learner,
            },
            VehicleSpawn {
                lane: 1,
                random_lane: false,
                s: 1.0,
                s_jitter: 0.0,
                speed: 0.1,
                role: VehicleRole::Learner,
            },
        ]
    }

    #[test]
    fn identity_gap_matches_plain_env() {
        let mut plain = LaneChangeEnv::new(EnvConfig::default(), spawns(), 11);
        let mut wrapped = SimToRealEnv::new(
            EnvConfig::default(),
            spawns(),
            SimToRealConfig::identity(),
            11,
        );
        let po = plain.reset();
        let wo = wrapped.reset();
        assert_eq!(po, wo);
        let cmds = [VehicleCommand::coast(0.1), VehicleCommand::coast(0.1)];
        let ps = plain.step(&cmds);
        let ws = wrapped.step(&cmds);
        assert_eq!(ps.observations, ws.observations);
        assert_eq!(ps.rewards, ws.rewards);
    }

    #[test]
    fn noise_perturbs_observations() {
        let gap = SimToRealConfig {
            obs_noise_std: 0.05,
            ..SimToRealConfig::identity()
        };
        let mut plain = LaneChangeEnv::new(EnvConfig::default(), spawns(), 11);
        let mut wrapped = SimToRealEnv::new(EnvConfig::default(), spawns(), gap, 11);
        let po = plain.reset();
        let wo = wrapped.reset();
        assert_ne!(po[0].lidar, wo[0].lidar);
        // Lidar stays normalized.
        assert!(wo[0].lidar.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn action_delay_shifts_commands_by_one_step() {
        let gap = SimToRealConfig {
            action_delay: true,
            ..SimToRealConfig::identity()
        };
        let mut env = SimToRealEnv::new(EnvConfig::default(), spawns(), gap, 3);
        env.reset();
        // First commanded speed 0.2 is delayed: the vehicles execute the
        // default (zero) command on step 1.
        let out = env.step(&[VehicleCommand::new(0.2, 0.0), VehicleCommand::new(0.2, 0.0)]);
        assert!(out.mean_speed < 1e-6, "step 1 executes the empty buffer");
        let out2 = env.step(&[VehicleCommand::new(0.0, 0.0), VehicleCommand::new(0.0, 0.0)]);
        assert!(
            (out2.mean_speed - 0.2).abs() < 1e-6,
            "step 2 executes step 1's command"
        );
    }

    #[test]
    fn episode_gain_scales_speed() {
        let gap = SimToRealConfig {
            gain_range: (0.5, 0.5000001),
            action_delay: false,
            ..SimToRealConfig::identity()
        };
        let mut env = SimToRealEnv::new(EnvConfig::default(), spawns(), gap, 3);
        env.reset();
        let out = env.step(&[VehicleCommand::new(0.2, 0.0), VehicleCommand::new(0.2, 0.0)]);
        assert!((out.mean_speed - 0.1).abs() < 1e-4);
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            let mut e = SimToRealEnv::new(
                EnvConfig::default(),
                spawns(),
                SimToRealConfig::default(),
                99,
            );
            e.reset();
            e.step(&[VehicleCommand::coast(0.1), VehicleCommand::coast(0.1)])
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.rewards, b.rewards);
    }
}

impl crate::env::CooperativeWorld for SimToRealEnv {
    fn reset(&mut self) -> Vec<Observation> {
        SimToRealEnv::reset(self)
    }
    fn step(&mut self, commands: &[VehicleCommand]) -> StepOutcome {
        SimToRealEnv::step(self, commands)
    }
    fn is_done(&self) -> bool {
        SimToRealEnv::is_done(self)
    }
    fn num_vehicles(&self) -> usize {
        SimToRealEnv::num_vehicles(self)
    }
    fn learner_indices(&self) -> Vec<usize> {
        SimToRealEnv::learner_indices(self)
    }
    fn vehicle_state(&self, i: usize) -> crate::vehicle::VehicleState {
        SimToRealEnv::vehicle_state(self, i)
    }
    fn needs_merge(&self, i: usize) -> bool {
        SimToRealEnv::needs_merge(self, i)
    }
    fn has_merged(&self, i: usize) -> bool {
        SimToRealEnv::has_merged(self, i)
    }
    fn has_collided(&self, i: usize) -> bool {
        SimToRealEnv::has_collided(self, i)
    }
    fn config(&self) -> &EnvConfig {
        SimToRealEnv::config(self)
    }
    fn rng_state(&self) -> Vec<u64> {
        // Own noise generator first, then the wrapped world's generator.
        let mut words = self.rng.state().to_vec();
        words.extend(crate::env::CooperativeWorld::rng_state(&self.inner));
        words
    }
    fn set_rng_state(&mut self, state: &[u64]) {
        if state.len() != 8 {
            return;
        }
        if let Ok(words) = <[u64; 4]>::try_from(&state[..4]) {
            self.rng = rand::rngs::StdRng::from_state(words);
        }
        crate::env::CooperativeWorld::set_rng_state(&mut self.inner, &state[4..]);
    }
}
