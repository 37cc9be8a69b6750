//! # hero-autograd
//!
//! Tape-based reverse-mode automatic differentiation with dense `f32`
//! tensors, neural-network layers, optimizers, losses, and checkpointing —
//! the numeric substrate of the HERO reproduction.
//!
//! The paper trains tiny networks (hidden dimension 32, Table I), so this
//! engine optimizes for clarity and correctness over throughput: every op's
//! analytic gradient is property-tested against central finite differences
//! (see `tests/gradcheck.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use hero_autograd::nn::{Activation, Mlp, Module};
//! use hero_autograd::optim::{Adam, Optimizer};
//! use hero_autograd::{loss, Graph, Tensor, TensorPool};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = Mlp::new("regressor", &[1, 16, 1], Activation::Tanh, &mut rng);
//! let mut opt = Adam::new(net.parameters(), 1e-2);
//!
//! // Fit y = 2x on a few points.
//! let xs = Tensor::from_vec(vec![4, 1], vec![-1.0, -0.5, 0.5, 1.0]);
//! let ys = Tensor::from_vec(vec![4, 1], vec![-2.0, -1.0, 1.0, 2.0]);
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let x = g.input(xs.clone());
//!     let t = g.input(ys.clone());
//!     let pred = net.forward(&mut g, x);
//!     let l = loss::mse(&mut g, pred, t);
//!     g.backward(l);
//!     opt.step();
//! }
//! // Inference runs without a tape, its buffers drawn from a pool.
//! let mut pool = TensorPool::new();
//! let check = net.infer_in(&Tensor::from_vec(vec![1, 1], vec![0.25]), &mut pool);
//! assert!((check.item() - 0.5).abs() < 0.2);
//! ```

#![warn(missing_docs)]

mod error;
mod graph;
mod tensor;

pub mod diagnostics;
pub mod loss;
pub mod nn;
pub mod optim;
pub mod serialize;

pub use error::{CheckpointError, TensorError};
pub use graph::{copy_params, zero_grads, Graph, NodeId, Parameter};
pub use optim::OptimizerState;
pub use tensor::{
    isa_name, kernel_mode, matmul, matmul_into, matmul_nt, matmul_nt_into, matmul_tn,
    matmul_tn_into, Tensor, TensorPool,
};
