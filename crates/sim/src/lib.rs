//! # hero-sim
//!
//! A deterministic 2D multi-vehicle driving simulator — the Gazebo
//! substitute for the HERO reproduction's cooperative lane-change case
//! study (paper Sec. IV/V).
//!
//! The world is a closed multi-lane loop in Frenet coordinates. Vehicles
//! follow unicycle kinematics driven by continuous `(linear, angular)`
//! speed commands, sense through a 360° ray-cast
//! [lidar](sensors::LidarConfig) and a forward
//! [occupancy camera](sensors::CameraConfig), and collide via
//! oriented-bounding-box tests. [`batch::BatchWorld`] is the one
//! implementation of all three and steps any number of worlds at once.
//! The [`env::LaneChangeEnv`] handle over one of its worlds implements the
//! paper's state/option/reward design; [`skill_env::SkillEnv`] trains the
//! low-level skills on the paper's intrinsic rewards; and
//! [`sim2real::SimToRealEnv`] reproduces the real-world-testbed protocol
//! (Table II) through a configurable domain gap.
//!
//! ## Quickstart
//!
//! ```
//! use hero_sim::env::EnvConfig;
//! use hero_sim::scenario;
//! use hero_sim::vehicle::VehicleCommand;
//!
//! let mut env = scenario::congestion(EnvConfig::default(), 0);
//! let _obs = env.reset();
//! while !env.is_done() {
//!     let cmds: Vec<VehicleCommand> = (0..env.num_vehicles())
//!         .map(|i| VehicleCommand::coast(env.vehicle_state(i).speed))
//!         .collect();
//!     let out = env.step(&cmds);
//!     assert_eq!(out.rewards.len(), env.num_vehicles());
//! }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod env;
pub mod geometry;
pub mod options;
pub mod scenario;
pub mod sensors;
pub mod sim2real;
pub mod skill_env;
pub mod track;
pub mod vehicle;

pub use batch::BatchWorld;
pub use env::{
    replica_seed, CooperativeWorld, EnvConfig, LaneChangeEnv, Observation, StepOutcome,
    VehicleRole, VehicleSpawn,
};
pub use options::{ActionBounds, DrivingOption, ScriptedExecutor};
pub use sim2real::{SimToRealConfig, SimToRealEnv};
pub use skill_env::{ManeuverResult, SkillEnv, SkillKind};
pub use track::Track;
pub use vehicle::{VehicleCommand, VehicleParams, VehicleState};
