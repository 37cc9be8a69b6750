//! Single-vehicle environments for training the low-level skills with the
//! paper's intrinsic reward functions (Sec. IV-C, Fig. 4).
//!
//! Two skills exist, matching the paper's Fig. 8:
//!
//! * **driving-in-lane** — executes `slow down` / `accelerate` (and serves
//!   `keep lane`); reward `β·r_deviate + (1−β)·r_travel`.
//! * **lane change** — moves to the adjacent lane within a step budget;
//!   reward `+20` on success, `−20` on failure, `r_travel` otherwise.
//!
//! Actions are squashed `[-1, 1]²` vectors (as produced by a tanh-Gaussian
//! SAC policy) mapped into the option's printed bounds
//! ([`DrivingOption::action_bounds`]). For lane change the angular action
//! is a steering *magnitude*: the environment resolves the sign toward the
//! target lane and counter-steers once the lane boundary is crossed, the
//! same division of labor the paper's testbed uses (road geometry supplies
//! the direction).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::env::{EnvConfig, LaneChangeEnv, VehicleRole, VehicleSpawn};
use crate::options::{adjacent_lane, resolve_lane_change_steering, DrivingOption};
use crate::vehicle::VehicleCommand;

/// Which low-level skill an environment trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkillKind {
    /// Lane tracking under the slow-down / accelerate options.
    DrivingInLane,
    /// The lane-change maneuver.
    LaneChange,
}

/// Terminal result of one lane-change episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ManeuverResult {
    /// Still executing.
    InProgress,
    /// Reached the adjacent lane's center, straightened out.
    Success,
    /// Collided, left the track, or ran out of time.
    Failure,
}

/// Reward for completing the lane change (paper: 20).
pub const LANE_CHANGE_SUCCESS_REWARD: f32 = 20.0;
/// Penalty for failing the lane change (paper: −20).
pub const LANE_CHANGE_FAIL_PENALTY: f32 = -20.0;

/// Weight β between deviation and travel in the driving-in-lane reward.
pub const DEFAULT_BETA: f32 = 0.5;

/// The in-lane options a driving-in-lane skill is conditioned on
/// (keep-lane needs no actuation, so it is not trained).
pub const IN_LANE_TRAINED_OPTIONS: [DrivingOption; 2] =
    [DrivingOption::SlowDown, DrivingOption::Accelerate];

/// A single-vehicle skill-training environment.
#[derive(Debug)]
pub struct SkillEnv {
    inner: LaneChangeEnv,
    kind: SkillKind,
    rng: StdRng,
    beta: f32,
    /// Option currently conditioning the driving-in-lane skill.
    current_option: DrivingOption,
    target_lane: usize,
    result: ManeuverResult,
    maneuver_budget: usize,
}

impl SkillEnv {
    /// Creates a driving-in-lane trainer; each episode samples slow-down or
    /// accelerate as the conditioning option.
    pub fn driving_in_lane(cfg: EnvConfig, seed: u64) -> Self {
        Self::new(cfg, SkillKind::DrivingInLane, seed)
    }

    /// Creates a lane-change trainer.
    pub fn lane_change(cfg: EnvConfig, seed: u64) -> Self {
        Self::new(cfg, SkillKind::LaneChange, seed)
    }

    fn new(mut cfg: EnvConfig, kind: SkillKind, seed: u64) -> Self {
        let maneuver_budget = match kind {
            SkillKind::DrivingInLane => 30,
            // 9 steps: completing in time requires decent speed and
            // steering; the minimum-action corner of the space times out.
            SkillKind::LaneChange => 9,
        };
        cfg.max_steps = maneuver_budget;
        // Random lanes so the learned skills generalize across the track.
        let spawn = VehicleSpawn {
            lane: 0,
            random_lane: true,
            s: 0.0,
            s_jitter: 1.0,
            speed: 0.08,
            role: VehicleRole::Learner,
        };
        let mut env = Self {
            inner: LaneChangeEnv::new(cfg, vec![spawn], seed),
            kind,
            rng: StdRng::seed_from_u64(seed.wrapping_add(0x5EED)),
            beta: DEFAULT_BETA,
            current_option: DrivingOption::SlowDown,
            target_lane: 0,
            result: ManeuverResult::InProgress,
            maneuver_budget,
        };
        env.reset();
        env
    }

    /// Which skill this environment trains.
    pub fn kind(&self) -> SkillKind {
        self.kind
    }

    /// Dimension of the observation vector: flattened low-level state plus
    /// the option one-hot for the driving-in-lane skill.
    pub fn obs_dim(&self) -> usize {
        self.inner.config().low_dim() + self.condition_dim()
    }

    /// Number of conditioning inputs appended to the observation.
    pub fn condition_dim(&self) -> usize {
        match self.kind {
            SkillKind::DrivingInLane => IN_LANE_TRAINED_OPTIONS.len(),
            SkillKind::LaneChange => 0,
        }
    }

    /// Dimension of the (squashed) action vector.
    pub fn action_dim(&self) -> usize {
        2
    }

    /// The option conditioning the current episode.
    pub fn current_option(&self) -> DrivingOption {
        self.current_option
    }

    /// Result of the current (or last) lane-change maneuver.
    pub fn result(&self) -> ManeuverResult {
        self.result
    }

    /// Whether the current episode has ended.
    pub fn is_done(&self) -> bool {
        self.inner.is_done() || self.result != ManeuverResult::InProgress
    }

    /// Starts a new episode and returns the initial observation.
    pub fn reset(&mut self) -> Vec<f32> {
        self.inner.reset();
        self.result = ManeuverResult::InProgress;
        match self.kind {
            SkillKind::DrivingInLane => {
                let pick = self.rng.gen_range(0..IN_LANE_TRAINED_OPTIONS.len());
                self.current_option = IN_LANE_TRAINED_OPTIONS[pick];
                self.target_lane = self.inner.vehicle_state(0).lane(&self.inner.config().track);
            }
            SkillKind::LaneChange => {
                self.current_option = DrivingOption::LaneChange;
                let lane = self.inner.vehicle_state(0).lane(&self.inner.config().track);
                self.target_lane = adjacent_lane(lane, &self.inner.config().track);
            }
        }
        self.observe()
    }

    /// Current observation: `[image…, speed, laneID]` (+ option one-hot for
    /// the driving-in-lane skill).
    pub fn observe(&mut self) -> Vec<f32> {
        let mut v = self.inner.observe(0).low_flat_vec();
        if self.kind == SkillKind::DrivingInLane {
            for opt in IN_LANE_TRAINED_OPTIONS {
                v.push(if opt == self.current_option { 1.0 } else { 0.0 });
            }
        }
        v
    }

    /// Applies a squashed `[-1, 1]²` action, returning
    /// `(next_observation, intrinsic_reward, done)`.
    ///
    /// # Panics
    ///
    /// Panics when called on a finished episode.
    pub fn step(&mut self, squashed: [f32; 2]) -> (Vec<f32>, f32, bool) {
        assert!(!self.is_done(), "step() called on a finished episode");
        let bounds = self
            .current_option
            .action_bounds()
            .expect("trained options always have bounds");
        let (linear, angular_raw) = bounds.denormalize(squashed[0], squashed[1]);
        let track = self.inner.config().track;
        let state = self.inner.vehicle_state(0);
        let target_d = track.lane_center(self.target_lane);

        let angular = match self.kind {
            SkillKind::DrivingInLane => angular_raw,
            SkillKind::LaneChange => resolve_lane_change_steering(&state, target_d, angular_raw),
        };

        let before_s = state.s;
        let out = self.inner.step(&[VehicleCommand::new(linear, angular)]);
        let after = self.inner.vehicle_state(0);
        let cfg = self.inner.config();
        let travel =
            track.signed_delta(before_s, after.s).max(0.0) / (cfg.vehicle.max_speed * cfg.dt);

        let reward = match self.kind {
            SkillKind::DrivingInLane => {
                let dev = track.deviation_from_center(after.d) / (track.lane_width / 2.0);
                self.beta * (-dev.min(1.5)) + (1.0 - self.beta) * travel
            }
            SkillKind::LaneChange => {
                let reached = (after.d - target_d).abs() < 0.05 && after.heading.abs() < 0.15;
                let crashed = out.collisions[0];
                if reached && !crashed {
                    self.result = ManeuverResult::Success;
                    LANE_CHANGE_SUCCESS_REWARD
                } else if crashed || self.inner.step_count() >= self.maneuver_budget {
                    self.result = ManeuverResult::Failure;
                    LANE_CHANGE_FAIL_PENALTY
                } else {
                    travel
                }
            }
        };
        let done = self.is_done();
        (self.observe(), reward, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_dims_include_conditioning() {
        let cfg = EnvConfig::default();
        let mut in_lane = SkillEnv::driving_in_lane(cfg, 0);
        assert_eq!(in_lane.obs_dim(), cfg.low_dim() + 2);
        let lc = SkillEnv::lane_change(cfg, 0);
        assert_eq!(lc.obs_dim(), cfg.low_dim());
        assert_eq!(lc.action_dim(), 2);
        assert_eq!(in_lane.observe().len(), in_lane.obs_dim());
    }

    #[test]
    fn in_lane_episode_samples_trained_options() {
        let mut env = SkillEnv::driving_in_lane(EnvConfig::default(), 7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            env.reset();
            seen.insert(env.current_option());
        }
        assert!(seen.contains(&DrivingOption::SlowDown));
        assert!(seen.contains(&DrivingOption::Accelerate));
    }

    #[test]
    fn centered_straight_driving_scores_higher_than_weaving() {
        let mut env = SkillEnv::driving_in_lane(EnvConfig::default(), 3);
        env.reset();
        let mut straight_total = 0.0;
        while !env.is_done() {
            let (_, r, _) = env.step([0.5, 0.0]);
            straight_total += r;
        }
        env.reset();
        let mut weave_total = 0.0;
        while !env.is_done() {
            let (_, r, _) = env.step([0.5, 1.0]);
            weave_total += r;
        }
        assert!(
            straight_total > weave_total,
            "straight {straight_total} vs weaving {weave_total}"
        );
    }

    #[test]
    fn lane_change_two_phase_controller_succeeds() {
        let mut env = SkillEnv::lane_change(EnvConfig::default(), 5);
        env.reset();
        let mut total = 0.0;
        let mut steps = 0;
        while !env.is_done() {
            // Mid-range speed, strong steer: should complete comfortably.
            let (_, r, _) = env.step([0.0, 0.8]);
            total += r;
            steps += 1;
            assert!(steps <= 12, "episode must terminate inside budget");
        }
        assert_eq!(env.result(), ManeuverResult::Success, "reward sum {total}");
        assert!(total > 0.0);
    }

    #[test]
    fn lane_change_timeout_fails() {
        let mut env = SkillEnv::lane_change(EnvConfig::default(), 6);
        env.reset();
        let mut last_r = 0.0;
        while !env.is_done() {
            // Minimum steering magnitude and speed: cannot finish in budget.
            let (_, r, _) = env.step([-1.0, -1.0]);
            last_r = r;
        }
        assert_eq!(env.result(), ManeuverResult::Failure);
        assert_eq!(last_r, LANE_CHANGE_FAIL_PENALTY);
    }

    #[test]
    fn reset_clears_result() {
        let mut env = SkillEnv::lane_change(EnvConfig::default(), 8);
        env.reset();
        while !env.is_done() {
            env.step([0.0, 0.8]);
        }
        assert_ne!(env.result(), ManeuverResult::InProgress);
        env.reset();
        assert_eq!(env.result(), ManeuverResult::InProgress);
        assert!(!env.is_done());
    }
}
