//! # hero-baselines
//!
//! The (multi-agent) reinforcement-learning algorithms compared in the
//! HERO paper's evaluation (Sec. V-A), all built on `hero-autograd` and
//! `hero-rl`:
//!
//! * [`dqn::IndependentDqn`] — distributed Q-learning with ε-greedy
//!   exploration,
//! * [`coma::Coma`] — centralized critic with counterfactual advantages,
//! * [`maddpg::Maddpg`] — per-agent centralized critics with Gumbel-softmax
//!   actors,
//! * [`maac::Maac`] — multi-head attention critics with parameter sharing,
//! * [`sac::SacAgent`] — soft actor–critic for continuous control (HERO's
//!   low-level learner).
//!
//! Every multi-agent algorithm implements
//! [`common::MultiAgentAlgorithm`], so the experiment harness can swap
//! them freely.
//!
//! ## Quickstart
//!
//! ```
//! use hero_baselines::common::MultiAgentAlgorithm;
//! use hero_baselines::dqn::{DqnConfig, IndependentDqn};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut algo = IndependentDqn::new(2, 4, 3, DqnConfig::default(), &mut rng);
//! let actions = algo.act(&[vec![0.0; 4], vec![0.0; 4]], &mut rng, true);
//! assert_eq!(actions.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod coma;
pub mod common;
pub mod dqn;
pub mod maac;
pub mod maddpg;
pub mod sac;

pub use coma::{Coma, ComaConfig};
pub use common::{MultiAgentAlgorithm, UpdateStats};
pub use dqn::{DqnAgent, DqnConfig, IndependentDqn};
pub use maac::{Maac, MaacConfig};
pub use maddpg::{Maddpg, MaddpgConfig};
pub use sac::{GaussianActor, SacAgent, SacConfig};
