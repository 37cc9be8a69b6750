//! The cooperative lane-change environment (the paper's case study,
//! Sec. IV) — a multi-agent Markov game over vehicles on a looped track.
//!
//! Every control period each vehicle receives a continuous
//! [`VehicleCommand`]; the environment advances kinematics, detects
//! collisions (vehicle–vehicle and wall), renders per-vehicle observations
//! (lidar / camera / speed / lane), and computes the paper's team reward
//! `r_h = α·r_col + (1−α)·r_travel` (Sec. IV-B). Scripted vehicles (e.g.
//! the plodding vehicle 4 of Fig. 9 that simulates congestion) drive
//! themselves; learners are driven by the caller.
//!
//! This module holds the environment's types and its one-world handle,
//! [`LaneChangeEnv`]; the stepping, sensing and collision code is
//! [`BatchWorld`]'s.

use crate::batch::BatchWorld;
use crate::sensors::{CameraConfig, LidarConfig};
use crate::track::Track;
use crate::vehicle::{VehicleCommand, VehicleParams, VehicleState};

/// What drives a vehicle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VehicleRole {
    /// Controlled by the caller (a learning agent).
    Learner,
    /// Driven internally: keeps its lane at a constant speed.
    Scripted {
        /// The constant target speed (m/s).
        speed: f32,
    },
}

/// Where and how a vehicle starts each episode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VehicleSpawn {
    /// Starting lane index (ignored when `random_lane` is set).
    pub lane: usize,
    /// When `true`, a uniformly random lane is drawn on every reset
    /// (used by the skill-training environments so the learned skills
    /// generalize across lanes).
    pub random_lane: bool,
    /// Starting longitudinal position.
    pub s: f32,
    /// Uniform jitter half-width applied to `s` on every reset.
    pub s_jitter: f32,
    /// Initial speed (m/s).
    pub speed: f32,
    /// Role of this vehicle.
    pub role: VehicleRole,
}

/// Static configuration of the environment.
#[derive(Clone, Copy, Debug)]
pub struct EnvConfig {
    /// Track geometry.
    pub track: Track,
    /// Vehicle footprint and limits (shared by all vehicles).
    pub vehicle: VehicleParams,
    /// Lidar used for the high-level state.
    pub lidar: LidarConfig,
    /// Camera used for the low-level state.
    pub camera: CameraConfig,
    /// Control period (s).
    pub dt: f32,
    /// Episode length in steps (the paper evaluates with 18).
    pub max_steps: usize,
    /// Penalty added to the team reward on collision (paper: −20).
    pub collision_penalty: f32,
    /// Weight α between collision penalty and travel reward.
    pub alpha: f32,
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self {
            track: Track::double_lane(),
            vehicle: VehicleParams::default(),
            lidar: LidarConfig::default(),
            camera: CameraConfig::default(),
            dt: 1.0,
            max_steps: 18,
            collision_penalty: -20.0,
            alpha: 0.5,
        }
    }
}

impl EnvConfig {
    /// Dimension of the high-level observation vector
    /// (`[lidar, speed, laneID]`).
    pub fn high_dim(&self) -> usize {
        self.lidar.beams + 2
    }

    /// Dimension of the flattened low-level observation vector
    /// (`[image, speed, laneID]`).
    pub fn low_dim(&self) -> usize {
        self.camera.image_len() + 2
    }
}

/// One vehicle's observation: the paper's high-level state
/// `[s_lidar, s_speed, s_laneID]` and low-level state
/// `[s_img, s_speed, s_laneID]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    /// Normalized lidar returns, one per beam.
    pub lidar: Vec<f32>,
    /// Flattened occupancy image (`rows × cols`).
    pub image: Vec<f32>,
    /// Speed normalized by the vehicle's maximum.
    pub speed_norm: f32,
    /// Lane index normalized by the lane count.
    pub lane_norm: f32,
    /// Raw lane index.
    pub lane_id: usize,
    /// Raw speed (m/s).
    pub speed: f32,
}

impl Observation {
    /// The high-level feature vector `[lidar…, speed, laneID]`.
    pub fn high_vec(&self) -> Vec<f32> {
        let mut v = self.lidar.clone();
        v.push(self.speed_norm);
        v.push(self.lane_norm);
        v
    }

    /// The flattened low-level feature vector `[image…, speed, laneID]`.
    pub fn low_flat_vec(&self) -> Vec<f32> {
        let mut v = self.image.clone();
        v.push(self.speed_norm);
        v.push(self.lane_norm);
        v
    }
}

/// Everything produced by one environment step.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// Per-vehicle observations after the step.
    pub observations: Vec<Observation>,
    /// Per-vehicle team rewards `r_h^i`.
    pub rewards: Vec<f32>,
    /// Per-vehicle collision flags for this step.
    pub collisions: Vec<bool>,
    /// Whether the episode ended (collision or step limit).
    pub done: bool,
    /// Mean speed over all vehicles this step.
    pub mean_speed: f32,
}

/// The common surface of the simulation and sim-to-real worlds, so
/// training and evaluation code is agnostic to which one it drives.
pub trait CooperativeWorld {
    /// Starts a new episode, returning initial observations.
    fn reset(&mut self) -> Vec<Observation>;
    /// Advances one control period (see [`LaneChangeEnv::step`]).
    fn step(&mut self, commands: &[VehicleCommand]) -> StepOutcome;
    /// Whether the episode has ended.
    fn is_done(&self) -> bool;
    /// Number of vehicles (learners + scripted).
    fn num_vehicles(&self) -> usize;
    /// Indices of learner-controlled vehicles.
    fn learner_indices(&self) -> Vec<usize>;
    /// Kinematic state of vehicle `i`.
    fn vehicle_state(&self, i: usize) -> VehicleState;
    /// Whether vehicle `i` must merge (see [`LaneChangeEnv::needs_merge`]).
    fn needs_merge(&self, i: usize) -> bool;
    /// Whether vehicle `i` has merged (see [`LaneChangeEnv::has_merged`]).
    fn has_merged(&self, i: usize) -> bool;
    /// Whether vehicle `i` has collided this episode.
    fn has_collided(&self, i: usize) -> bool;
    /// The environment configuration.
    fn config(&self) -> &EnvConfig;
    /// The internal RNG stream position(s), so a checkpoint can resume
    /// spawn jitter and domain-randomization noise bit-identically. Worlds
    /// with several generators concatenate their 4-word states.
    fn rng_state(&self) -> Vec<u64>;
    /// Restores RNG stream position(s) captured via
    /// [`CooperativeWorld::rng_state`]. Ignores input of the wrong length
    /// (a checkpoint from a different world type).
    fn set_rng_state(&mut self, state: &[u64]);
}

/// The multi-vehicle cooperative lane-change environment: a handle over
/// world 0 of a one-world [`BatchWorld`], which owns the kinematics,
/// collisions and sensors.
#[derive(Debug)]
pub struct LaneChangeEnv {
    world: BatchWorld,
    seed: u64,
}

/// The seed of world `index` of a [`BatchWorld`] seeded with `base`.
///
/// World 0 keeps the base seed (so it is the [`LaneChangeEnv`] built with
/// the same seed); later worlds get independent streams via a splitmix64
/// scramble of `base + index`. Earlier batching attempts that derived
/// replica RNGs by cloning the parent's generator coupled adjacent
/// worlds' spawn jitter — this function is the contract that prevents
/// that (pinned by the `replicas_draw_independent_streams` regression
/// test).
pub fn replica_seed(base: u64, index: usize) -> u64 {
    if index == 0 {
        return base;
    }
    // splitmix64: a well-mixed 64-bit permutation, so adjacent indices
    // land in unrelated regions of the seed space.
    let mut z = base.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl LaneChangeEnv {
    /// Creates an environment, reset once; call [`LaneChangeEnv::reset`]
    /// to start each further episode.
    ///
    /// # Panics
    ///
    /// Panics when `spawns` is empty or a spawn lane is out of range.
    pub fn new(cfg: EnvConfig, spawns: Vec<VehicleSpawn>, seed: u64) -> Self {
        Self {
            world: BatchWorld::new(cfg, spawns, seed, 1),
            seed,
        }
    }

    /// Environment configuration.
    pub fn config(&self) -> &EnvConfig {
        self.world.config()
    }

    /// The seed this environment was constructed with. Note the RNG
    /// stream advances past the seed position on every reset; use
    /// [`CooperativeWorld::rng_state`] for the live stream position.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The spawn table driving each reset.
    pub fn spawns(&self) -> &[VehicleSpawn] {
        self.world.spawns()
    }

    /// Number of vehicles (learners + scripted).
    pub fn num_vehicles(&self) -> usize {
        self.world.num_vehicles()
    }

    /// Indices of the learner-controlled vehicles.
    pub fn learner_indices(&self) -> Vec<usize> {
        self.world.learner_indices()
    }

    /// Current kinematic state of vehicle `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn vehicle_state(&self, i: usize) -> VehicleState {
        self.world.vehicle_state(0, i)
    }

    /// Whether the current episode has ended.
    pub fn is_done(&self) -> bool {
        self.world.is_done(0)
    }

    /// Steps taken in the current episode.
    pub fn step_count(&self) -> usize {
        self.world.step_count(0)
    }

    /// Whether vehicle `i` started this episode behind slower scripted
    /// traffic in its own lane — i.e. it must merge to make progress.
    pub fn needs_merge(&self, i: usize) -> bool {
        self.world.needs_merge(0, i)
    }

    /// Whether vehicle `i` has left its initial lane without colliding —
    /// the paper's "successful merge".
    pub fn has_merged(&self, i: usize) -> bool {
        self.world.has_merged(0, i)
    }

    /// Whether vehicle `i` has collided this episode.
    pub fn has_collided(&self, i: usize) -> bool {
        self.world.has_collided(0, i)
    }

    /// Starts a new episode (re-randomizing jittered spawn positions) and
    /// returns the initial observations.
    pub fn reset(&mut self) -> Vec<Observation> {
        self.world.reset_world(0)
    }

    /// Renders the observation of vehicle `i` from the current state.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn observe(&mut self, i: usize) -> Observation {
        self.world.observe(0, i)
    }

    /// Advances the world one control period (see
    /// [`BatchWorld::step_worlds`]).
    ///
    /// `commands` must hold one entry per vehicle; entries for scripted
    /// vehicles are ignored (they drive themselves).
    ///
    /// # Panics
    ///
    /// Panics when `commands.len() != num_vehicles()` or when called after
    /// the episode ended (check [`LaneChangeEnv::is_done`]).
    pub fn step(&mut self, commands: &[VehicleCommand]) -> StepOutcome {
        self.world
            .step_worlds(&[0], &[commands])
            .pop()
            .expect("one world stepped")
    }
}

impl CooperativeWorld for LaneChangeEnv {
    fn reset(&mut self) -> Vec<Observation> {
        LaneChangeEnv::reset(self)
    }
    fn step(&mut self, commands: &[VehicleCommand]) -> StepOutcome {
        LaneChangeEnv::step(self, commands)
    }
    fn is_done(&self) -> bool {
        LaneChangeEnv::is_done(self)
    }
    fn num_vehicles(&self) -> usize {
        LaneChangeEnv::num_vehicles(self)
    }
    fn learner_indices(&self) -> Vec<usize> {
        LaneChangeEnv::learner_indices(self)
    }
    fn vehicle_state(&self, i: usize) -> VehicleState {
        LaneChangeEnv::vehicle_state(self, i)
    }
    fn needs_merge(&self, i: usize) -> bool {
        LaneChangeEnv::needs_merge(self, i)
    }
    fn has_merged(&self, i: usize) -> bool {
        LaneChangeEnv::has_merged(self, i)
    }
    fn has_collided(&self, i: usize) -> bool {
        LaneChangeEnv::has_collided(self, i)
    }
    fn config(&self) -> &EnvConfig {
        LaneChangeEnv::config(self)
    }
    fn rng_state(&self) -> Vec<u64> {
        self.world.rng_state(0)
    }
    fn set_rng_state(&mut self, state: &[u64]) {
        self.world.set_rng_state(0, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensors::{CAMERA_OFF_TRACK, CAMERA_VEHICLE};

    fn two_car_spawns() -> Vec<VehicleSpawn> {
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

    fn spawn_at(lane: usize, s: f32, speed: f32) -> VehicleSpawn {
        VehicleSpawn {
            lane,
            random_lane: false,
            s,
            s_jitter: 0.0,
            speed,
            role: VehicleRole::Learner,
        }
    }

    fn coast_all(env: &LaneChangeEnv) -> Vec<VehicleCommand> {
        (0..env.num_vehicles())
            .map(|i| VehicleCommand::coast(env.vehicle_state(i).speed))
            .collect()
    }

    #[test]
    fn reset_places_vehicles_on_lane_centers() {
        let env = LaneChangeEnv::new(EnvConfig::default(), two_car_spawns(), 0);
        assert!((env.vehicle_state(0).d - 0.2).abs() < 1e-6);
        assert!((env.vehicle_state(1).d - 0.6).abs() < 1e-6);
        assert!(!env.is_done());
    }

    #[test]
    fn step_returns_per_vehicle_data() {
        let mut env = LaneChangeEnv::new(EnvConfig::default(), two_car_spawns(), 0);
        let cmds = coast_all(&env);
        let out = env.step(&cmds);
        assert_eq!(out.observations.len(), 2);
        assert_eq!(out.rewards.len(), 2);
        assert_eq!(out.collisions.len(), 2);
        assert!(!out.done);
        assert!(out.mean_speed > 0.0);
    }

    #[test]
    fn forward_progress_earns_positive_reward() {
        let mut env = LaneChangeEnv::new(EnvConfig::default(), two_car_spawns(), 0);
        let out = env.step(&coast_all(&env));
        assert!(out.rewards.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn episode_ends_at_step_limit() {
        let cfg = EnvConfig {
            max_steps: 3,
            ..EnvConfig::default()
        };
        let mut env = LaneChangeEnv::new(cfg, two_car_spawns(), 0);
        for _ in 0..2 {
            let out = env.step(&coast_all(&env));
            assert!(!out.done);
        }
        let out = env.step(&coast_all(&env));
        assert!(out.done);
        assert!(env.is_done());
    }

    #[test]
    #[should_panic(expected = "finished episode")]
    fn stepping_after_done_panics() {
        let cfg = EnvConfig {
            max_steps: 1,
            ..EnvConfig::default()
        };
        let mut env = LaneChangeEnv::new(cfg, two_car_spawns(), 0);
        let cmds = coast_all(&env);
        env.step(&cmds);
        env.step(&cmds);
    }

    #[test]
    fn rear_end_collision_is_detected_and_penalized() {
        let spawns = vec![
            VehicleSpawn {
                lane: 0,
                random_lane: false,
                s: 0.0,
                s_jitter: 0.0,
                speed: 0.2,
                role: VehicleRole::Learner,
            },
            VehicleSpawn {
                lane: 0,
                random_lane: false,
                s: 0.35,
                s_jitter: 0.0,
                speed: 0.0,
                role: VehicleRole::Learner,
            },
        ];
        let mut env = LaneChangeEnv::new(EnvConfig::default(), spawns, 0);
        let mut collided = false;
        for _ in 0..5 {
            if env.is_done() {
                break;
            }
            let out = env.step(&[VehicleCommand::new(0.2, 0.0), VehicleCommand::new(0.0, 0.0)]);
            if out.collisions.iter().any(|&c| c) {
                collided = true;
                assert!(out.rewards[0] < 0.0, "collision must be penalized");
                assert!(out.done);
            }
        }
        assert!(collided, "vehicles closing at 0.2 m/s from 0.35 m must hit");
        assert!(env.has_collided(0) && env.has_collided(1));
    }

    #[test]
    fn wall_collision_when_steering_off_track() {
        let spawns = vec![VehicleSpawn {
            lane: 1,
            random_lane: false,
            s: 0.0,
            s_jitter: 0.0,
            speed: 0.15,
            role: VehicleRole::Learner,
        }];
        let mut env = LaneChangeEnv::new(EnvConfig::default(), spawns, 0);
        let mut hit = false;
        for _ in 0..18 {
            if env.is_done() {
                break;
            }
            let out = env.step(&[VehicleCommand::new(0.2, 0.3)]);
            if out.collisions[0] {
                hit = true;
            }
        }
        assert!(hit, "steering hard outward must leave the track");
    }

    #[test]
    fn scripted_vehicle_ignores_commands() {
        let spawns = vec![
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
                s: 2.0,
                s_jitter: 0.0,
                speed: 0.03,
                role: VehicleRole::Scripted { speed: 0.03 },
            },
        ];
        let mut env = LaneChangeEnv::new(EnvConfig::default(), spawns, 0);
        env.step(&[
            VehicleCommand::coast(0.1),
            VehicleCommand::new(0.25, 0.3), // must be ignored
        ]);
        assert!((env.vehicle_state(1).speed - 0.03).abs() < 1e-6);
        assert_eq!(env.learner_indices(), vec![0]);
    }

    #[test]
    fn needs_merge_detects_blocked_lane() {
        let spawns = vec![
            VehicleSpawn {
                lane: 0,
                random_lane: false,
                s: 0.0,
                s_jitter: 0.0,
                speed: 0.1,
                role: VehicleRole::Learner,
            },
            VehicleSpawn {
                lane: 0,
                random_lane: false,
                s: 1.0,
                s_jitter: 0.0,
                speed: 0.02,
                role: VehicleRole::Scripted { speed: 0.02 },
            },
            VehicleSpawn {
                lane: 1,
                random_lane: false,
                s: 0.5,
                s_jitter: 0.0,
                speed: 0.1,
                role: VehicleRole::Learner,
            },
        ];
        let env = LaneChangeEnv::new(EnvConfig::default(), spawns, 0);
        assert!(env.needs_merge(0), "learner behind slow traffic must merge");
        assert!(!env.needs_merge(1), "scripted vehicles never need to merge");
        assert!(!env.needs_merge(2), "free lane needs no merge");
    }

    #[test]
    fn merge_detection_via_lane_change() {
        let spawns = vec![VehicleSpawn {
            lane: 0,
            random_lane: false,
            s: 0.0,
            s_jitter: 0.0,
            speed: 0.15,
            role: VehicleRole::Learner,
        }];
        let mut env = LaneChangeEnv::new(EnvConfig::default(), spawns, 0);
        assert!(!env.has_merged(0));
        // Steer up into lane 1 over a few steps, then straighten.
        for _ in 0..4 {
            env.step(&[VehicleCommand::new(0.15, 0.22)]);
        }
        for _ in 0..4 {
            if env.is_done() {
                break;
            }
            env.step(&[VehicleCommand::new(0.15, -0.22)]);
        }
        assert!(!env.has_collided(0), "gentle lane change must be safe");
        assert!(env.has_merged(0), "vehicle ended in the other lane");
    }

    #[test]
    fn observations_have_configured_dims() {
        let cfg = EnvConfig::default();
        let mut env = LaneChangeEnv::new(cfg, two_car_spawns(), 0);
        let obs = env.observe(0);
        assert_eq!(obs.high_vec().len(), cfg.high_dim());
        assert_eq!(obs.low_flat_vec().len(), cfg.low_dim());
    }

    #[test]
    fn lidar_alone_reads_the_walls_only() {
        let cfg = EnvConfig::default();
        let mut env = LaneChangeEnv::new(cfg, vec![spawn_at(1, 0.0, 0.1)], 0);
        let scan = env.observe(0).lidar;
        let beams = cfg.lidar.beams;
        assert_eq!(scan.len(), beams);
        // Beam 0 looks straight ahead: nothing within range.
        assert_eq!(scan[0], 1.0);
        // From d = 0.6 on the 0.8 m track, the beam a quarter turn round
        // hits the outer wall 0.2 m away, the one three quarters round the
        // inner wall 0.6 m away.
        assert!((scan[beams / 4] - 0.2 / cfg.lidar.max_range).abs() < 1e-4);
        assert!((scan[3 * beams / 4] - 0.6 / cfg.lidar.max_range).abs() < 1e-4);
        assert!(scan.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn lidar_sees_the_vehicle_ahead_across_the_seam() {
        let cfg = EnvConfig::default();
        let ahead = vec![spawn_at(0, 0.0, 0.1), spawn_at(0, 1.0, 0.1)];
        let mut env = LaneChangeEnv::new(cfg, ahead, 0);
        // The front beam hits the other vehicle's rear face.
        let expected = (1.0 - cfg.vehicle.length / 2.0) / cfg.lidar.max_range;
        let front = env.observe(0).lidar[0];
        assert!((front - expected).abs() < 1e-3, "front beam {front}");
        // A vehicle just past the loop's seam is as visible.
        let across = vec![spawn_at(0, 11.8, 0.1), spawn_at(0, 0.3, 0.1)];
        let mut env = LaneChangeEnv::new(cfg, across, 0);
        let front = env.observe(0).lidar[0];
        assert!(front < 0.25, "front beam {front}");
    }

    #[test]
    fn camera_marks_vehicles_and_off_track_cells() {
        let cfg = EnvConfig::default();
        let mut env =
            LaneChangeEnv::new(cfg, vec![spawn_at(0, 0.0, 0.1), spawn_at(0, 0.9, 0.1)], 0);
        let img = env.observe(0).image;
        assert_eq!(img.len(), cfg.camera.image_len());
        assert!(img.contains(&CAMERA_VEHICLE), "the vehicle ahead must show");
        // From d = 0.2 the window reaches d = -0.4, off the track.
        assert!(img.contains(&CAMERA_OFF_TRACK));
    }

    #[test]
    fn camera_is_empty_alone_mid_track() {
        let cfg = EnvConfig {
            track: Track::new(12.0, 0.4, 4),
            camera: CameraConfig {
                lateral_half: 0.5,
                ..CameraConfig::default()
            },
            ..EnvConfig::default()
        };
        // Lane 1 is centered at d = 0.6: the window spans d in
        // [0.1, 1.1] of the 1.6 m track.
        let mut env = LaneChangeEnv::new(cfg, vec![spawn_at(1, 0.0, 0.1)], 0);
        assert!(env.observe(0).image.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn camera_turns_with_the_heading() {
        // Two twin worlds, stopped: steering turns one ego on the spot.
        let cfg = EnvConfig::default();
        let spawns = vec![spawn_at(0, 0.0, 0.0), spawn_at(0, 0.9, 0.0)];
        let mut straight = LaneChangeEnv::new(cfg, spawns.clone(), 0);
        let mut turned = LaneChangeEnv::new(cfg, spawns, 0);
        let still = VehicleCommand::new(0.0, 0.0);
        let a = straight.step(&[still, still]);
        let b = turned.step(&[VehicleCommand::new(0.0, 0.3), still]);
        assert_eq!(turned.vehicle_state(0).s, straight.vehicle_state(0).s);
        assert!(turned.vehicle_state(0).heading > 0.0);
        assert_ne!(a.observations[0].image, b.observations[0].image);
    }

    #[test]
    fn replicas_draw_independent_streams() {
        // Regression: the worlds of a jittered batch must not share (or
        // couple) RNG streams. World 0 is the environment built with the
        // same seed; worlds 1.. draw distinct spawn jitter from their own
        // seeds.
        let spawns = vec![VehicleSpawn {
            lane: 0,
            random_lane: false,
            s: 0.0,
            s_jitter: 0.5,
            speed: 0.1,
            role: VehicleRole::Learner,
        }];
        let base = LaneChangeEnv::new(EnvConfig::default(), spawns.clone(), 9);
        let worlds = BatchWorld::new(EnvConfig::default(), spawns, 9, 3);
        let positions = [0, 1, 2].map(|w| worlds.vehicle_state(w, 0).s);
        assert_eq!(positions[0].to_bits(), base.vehicle_state(0).s.to_bits());
        assert_eq!(replica_seed(9, 0), 9);
        assert_ne!(replica_seed(9, 1), replica_seed(9, 2));
        assert_ne!(positions[0].to_bits(), positions[1].to_bits());
        assert_ne!(positions[1].to_bits(), positions[2].to_bits());
    }

    #[test]
    fn reset_with_jitter_is_seed_deterministic() {
        let spawns = vec![VehicleSpawn {
            lane: 0,
            random_lane: false,
            s: 0.0,
            s_jitter: 0.5,
            speed: 0.1,
            role: VehicleRole::Learner,
        }];
        let mut a = LaneChangeEnv::new(EnvConfig::default(), spawns.clone(), 42);
        let mut b = LaneChangeEnv::new(EnvConfig::default(), spawns, 42);
        for _ in 0..3 {
            let oa = a.reset();
            let ob = b.reset();
            assert_eq!(oa, ob);
        }
    }
}
