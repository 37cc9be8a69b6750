//! `hero-serve`: a micro-batching policy-serving daemon for HERO
//! checkpoints (DESIGN.md "Serving").
//!
//! The training stack writes v2 checkpoint registries; this crate turns
//! the newest valid checkpoint into a live observation→action HTTP
//! endpoint:
//!
//! * [`policy`] — loads a checkpoint *without a model template*: agent
//!   count, layer widths, and option count are inferred from the stored
//!   parameter shapes, then the weights are loaded through the same
//!   validated path the trainer resumes through. Checkpoints trained by
//!   the retired fast-math tier are refused with the trainer's typed
//!   error.
//! * [`batch`] — the micro-batching dispatcher: concurrent requests
//!   queue onto one channel; a dispatcher thread coalesces them up to
//!   `--max-batch` rows or a fixed 2 ms deadline and runs ONE
//!   inference-only batched forward per agent policy, reusing a
//!   [`hero_autograd::TensorPool`] arena across batches.
//! * [`server`] — the HTTP surface (`POST /act`, `POST /reload`,
//!   `GET /info`, `GET /stats`, `/metrics`) built on the shared
//!   [`hero_telemetry::http`] machinery, with atomic hot-reload behind
//!   an `Arc` swap that never drops an in-flight request.

#![warn(missing_docs)]

pub mod batch;
pub mod policy;
pub mod server;

pub use batch::{Batcher, ServeStats};
pub use policy::ServePolicy;
pub use server::{start, HeroServer, ServeConfig, ServeError};
