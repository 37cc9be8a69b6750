//! # hero
//!
//! A from-scratch Rust reproduction of **"Hierarchical Reinforcement
//! Learning with Opponent Modeling for Distributed Multi-agent
//! Cooperation"** (ICDCS 2022), including every substrate the paper
//! depends on:
//!
//! * [`autograd`] — tape-based reverse-mode automatic differentiation,
//!   neural-network layers, optimizers, losses, checkpointing,
//! * [`sim`] — a deterministic 2D multi-vehicle driving simulator
//!   (the Gazebo substitute) with lidar/camera sensing, intrinsic-reward
//!   skill environments, and a sim-to-real testbed proxy,
//! * [`rl`] — replay buffers, ε-greedy exploration, schedules, target
//!   networks, metrics, and parallel rollouts,
//! * [`baselines`] — Independent DQN, COMA, MADDPG, MAAC, and SAC,
//! * [`core`] — HERO itself: the hierarchical option framework, the
//!   opponent-modeling network, the decentralized high-level
//!   actor–critic, the SAC skill library, and the two-stage trainer.
//!
//! See the repository's `README.md` for the architecture overview,
//! `DESIGN.md` for the substitution table and per-experiment index, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use hero::prelude::*;
//!
//! // Drive the cooperative lane-change world with coasting vehicles.
//! let mut env = hero::sim::scenario::congestion(EnvConfig::default(), 0);
//! let _obs = env.reset();
//! let cmds: Vec<VehicleCommand> = (0..env.num_vehicles())
//!     .map(|i| VehicleCommand::coast(env.vehicle_state(i).speed))
//!     .collect();
//! let out = env.step(&cmds);
//! assert_eq!(out.rewards.len(), 4);
//! ```

#![warn(missing_docs)]

pub use hero_autograd as autograd;
pub use hero_baselines as baselines;
pub use hero_core as core;
pub use hero_rl as rl;
pub use hero_sim as sim;

/// The most common imports for building on this reproduction.
pub mod prelude {
    pub use hero_autograd::{Graph, Parameter, Tensor};
    pub use hero_baselines::common::MultiAgentAlgorithm;
    pub use hero_core::{
        evaluate_team, train_team, EvalStats, HeroConfig, HeroTeam, SkillLibrary,
        SkillTrainingConfig, TrainOptions,
    };
    pub use hero_rl::{Recorder, ReplayBuffer, Schedule};
    pub use hero_sim::{
        CooperativeWorld, DrivingOption, EnvConfig, LaneChangeEnv, Observation, SimToRealConfig,
        SimToRealEnv, VehicleCommand,
    };
}
