//! # hero-rl
//!
//! The reinforcement-learning toolkit shared by HERO and every baseline in
//! this reproduction: transition types, a uniform replay buffer, ε-greedy
//! exploration, scalar schedules, target-network updates, episode metrics
//! with CSV export, sampling helpers, and a parallel rollout driver.
//!
//! ## Quickstart
//!
//! ```
//! use hero_rl::buffer::ReplayBuffer;
//! use hero_rl::transition::DiscreteTransition;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut buf = ReplayBuffer::new(100_000); // Table I capacity
//! buf.push(DiscreteTransition {
//!     obs: vec![0.0; 18],
//!     action: 2,
//!     reward: 0.4,
//!     next_obs: vec![0.1; 18],
//!     done: false,
//! });
//! let mut rng = StdRng::seed_from_u64(0);
//! let batch = buf.sample(&mut rng, 4);
//! assert_eq!(batch.len(), 4);
//! ```

#![warn(missing_docs)]

pub use hero_telemetry as telemetry;

pub mod buffer;
pub mod explore;
pub mod metrics;
pub mod rng;
pub mod rollout;
pub mod schedule;
pub mod snapshot;
pub mod target;
pub mod transition;

pub use buffer::ReplayBuffer;
pub use explore::{greedy, EpsilonGreedy};
pub use metrics::{summarize, MovingAverage, Recorder, Summary};
pub use schedule::Schedule;
pub use snapshot::Codec;
pub use target::{hard_update, soft_update};
pub use transition::{
    ContinuousTransition, DiscreteTransition, JointTransition, OptionTransition, Transition,
};
