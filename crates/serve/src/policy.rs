//! Checkpoint → servable policy, with architecture inference.
//!
//! The trainer's checkpoints carry named parameter tables but no
//! architecture record — the trainer always reloads into a live model of
//! the same shape. The serving daemon has no such template, so it
//! *infers* one: the team size from `team/last_options`, and the
//! observation width, hidden width, and option count from the stored
//! shapes of agent 0's actor weights. The weights then load through
//! [`HeroAgent::load_state`], the same shape-validated, staged path the
//! trainer resumes through, so a table that contradicts the inferred
//! architecture fails loudly instead of serving garbage.

use std::path::Path;

use hero_autograd::serialize::{self, decode_param_table};
use hero_autograd::{CheckpointError, TensorPool};
use hero_core::checkpoint::load_latest;
use hero_core::{HeroAgent, HeroConfig};
use hero_rl::snapshot::{Codec, Reader};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An immutable, servable HERO policy: one high-level actor plus
/// opponent-model nets per agent, loaded from one checkpoint.
///
/// The policy is read-only after construction — serving threads share it
/// behind an `Arc` and hot-reload swaps the whole `Arc`, so a batch that
/// started against one checkpoint finishes against that checkpoint.
pub struct ServePolicy {
    agents: Vec<HeroAgent>,
    checkpoint: u64,
    obs_dim: usize,
    n_options: usize,
}

impl ServePolicy {
    /// Builds a policy from decoded checkpoint sections.
    ///
    /// Refuses a checkpoint trained by the fast-math GEMM tier (the same
    /// typed refusal the trainer uses on resume): serving its weights
    /// through strict kernels would silently diverge from the
    /// training-time policy.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::KernelModeMismatch`] on a fast-math
    /// checkpoint; [`CheckpointError::MissingSection`] /
    /// [`CheckpointError::Malformed`] / shape mismatches on a section
    /// list that is not a HERO team snapshot.
    pub fn from_sections(
        checkpoint: u64,
        sections: &[(String, Vec<u8>)],
    ) -> Result<Self, CheckpointError> {
        serialize::check_kernel_mode(sections)?;

        let last_blob = serialize::require_section(sections, "team/last_options")?;
        let mut r = Reader::new(last_blob);
        let last_options: Vec<usize> = Codec::decode(&mut r).map_err(|e| {
            CheckpointError::Malformed(format!("team/last_options: {e}"))
        })?;
        let n_agents = last_options.len();
        if n_agents == 0 {
            return Err(CheckpointError::Malformed(
                "checkpoint describes a team of zero agents".into(),
            ));
        }
        let n_opponents = n_agents - 1;

        // Architecture from agent 0's actor weights: the first weight is
        // [obs_dim + n_opponents * n_options, hidden], the last is
        // [hidden, n_options].
        let actor_blob = serialize::require_section(sections, "agent0/high/params")?;
        let table = decode_param_table(actor_blob)?;
        let actor_weights: Vec<_> = table
            .iter()
            .filter(|e| e.name.starts_with("hero.actor.") && e.name.ends_with(".weight"))
            .collect();
        let (first, last) = match (actor_weights.first(), actor_weights.last()) {
            (Some(f), Some(l)) if f.shape.len() == 2 && l.shape.len() == 2 => (*f, *l),
            _ => {
                return Err(CheckpointError::Malformed(
                    "agent0/high/params holds no rank-2 hero.actor.* weights".into(),
                ))
            }
        };
        let in_width = first.shape[0];
        let hidden = first.shape[1];
        let n_options = last.shape[1];
        let obs_dim = in_width
            .checked_sub(n_opponents * n_options)
            .filter(|&d| d > 0)
            .ok_or_else(|| {
                CheckpointError::Malformed(format!(
                    "actor input width {in_width} cannot fit {n_opponents} opponents × \
                     {n_options} options"
                ))
            })?;

        let cfg = HeroConfig {
            hidden,
            ..HeroConfig::default()
        };
        // The RNG only seeds throwaway init weights; load_state replaces
        // every parameter before the policy serves a request.
        let mut rng = StdRng::seed_from_u64(0);
        let mut agents = Vec::with_capacity(n_agents);
        for k in 0..n_agents {
            let mut agent = HeroAgent::new(obs_dim, n_opponents, cfg.clone(), &mut rng);
            let prefix = format!("agent{k}/");
            let agent_sections: Vec<(String, Vec<u8>)> = sections
                .iter()
                .filter_map(|(name, bytes)| {
                    name.strip_prefix(&prefix)
                        .map(|rest| (rest.to_string(), bytes.clone()))
                })
                .collect();
            agent.load_state(&agent_sections)?;
            agents.push(agent);
        }

        Ok(ServePolicy {
            agents,
            checkpoint,
            obs_dim,
            n_options,
        })
    }

    /// Loads the newest valid checkpoint in `dir` (corrupt newer files
    /// are skipped by the registry scan, exactly as on trainer resume).
    /// Returns `Ok(None)` when the directory holds no loadable
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates [`ServePolicy::from_sections`] errors for the newest
    /// *valid* checkpoint — a CRC-corrupt file falls back to an older
    /// one, but a well-formed checkpoint that refuses to load (fast-math
    /// kernel mode, shapes) is an error, not a fallback.
    pub fn load_newest(dir: &Path) -> Result<Option<(ServePolicy, usize)>, CheckpointError> {
        match load_latest(dir)? {
            None => Ok(None),
            Some(loaded) => {
                let policy = ServePolicy::from_sections(loaded.index, &loaded.sections)?;
                Ok(Some((policy, loaded.corrupt_skipped)))
            }
        }
    }

    /// A randomly initialised policy of the given size, for load
    /// benchmarks that need a realistic forward pass without a training
    /// run (`hero-serve --synthetic`). No checkpoint registry backs it,
    /// so hot-reload is refused while serving one.
    pub fn synthetic(obs_dim: usize, hidden: usize, n_agents: usize, seed: u64) -> ServePolicy {
        assert!(n_agents > 0, "a policy needs at least one agent");
        assert!(obs_dim > 0, "observation width must be positive");
        let cfg = HeroConfig {
            hidden: hidden.max(1),
            ..HeroConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let agents: Vec<HeroAgent> = (0..n_agents)
            .map(|_| HeroAgent::new(obs_dim, n_agents - 1, cfg.clone(), &mut rng))
            .collect();
        let n_options = agents[0].high_level().n_options();
        ServePolicy {
            agents,
            checkpoint: 0,
            obs_dim,
            n_options,
        }
    }

    /// Option logits for a batch of observations, all for `agent`, via
    /// the inference-only forward path ([`HeroAgent::batch_logits_in`]).
    /// Row `r` of the result corresponds to `rows[r]`.
    ///
    /// # Panics
    ///
    /// Panics when `agent` is out of range or any row is not
    /// [`ServePolicy::obs_dim`] wide — the dispatcher validates both
    /// before batching.
    pub fn infer(&self, agent: usize, rows: &[&[f32]], pool: &mut TensorPool) -> Vec<Vec<f32>> {
        self.agents[agent].batch_logits_in(rows, pool)
    }

    /// Index of the checkpoint this policy was loaded from (0 for
    /// synthetic policies).
    pub fn checkpoint(&self) -> u64 {
        self.checkpoint
    }

    /// Observation width each request must provide.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Number of agents (addressable via the request `agent` field).
    pub fn n_agents(&self) -> usize {
        self.agents.len()
    }

    /// Number of high-level options in the action space.
    pub fn n_options(&self) -> usize {
        self.n_options
    }
}
