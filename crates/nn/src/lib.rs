//! Feed-forward neural networks for ASDEX.
//!
//! This crate implements the learning substrate of the DAC 2021 paper:
//!
//! * [`Mlp`] — dense feed-forward networks with explicit backprop, the
//!   paper's 3-layer SPICE approximator (eq. 3) and the baselines' policy
//!   and value heads, with allocation-free passes over a [`Workspace`],
//! * [`Sgd`] / [`Adam`] — first-order optimizers over flattened
//!   parameters,
//! * [`Normalizer`] — running standardization of inputs/targets,
//! * categorical policy utilities ([`softmax`], [`log_prob_grad`],
//!   [`kl_divergence`], …) used by A2C/PPO/TRPO, and
//! * training-health guards ([`GradGuard`], [`TrainHealth`]) — global-norm
//!   gradient clipping, non-finite rejection, and running-median
//!   loss-explosion sentinels for the self-healing learning loop.
//!
//! Everything is deterministic given a seeded RNG, which the experiment
//! harnesses rely on, and the kernels are bit for bit the straightforward
//! per-sample arithmetic (see the `mlp` module's determinism contract).
//!
//! # Example
//!
//! ```
//! use asdex_nn::{Mlp, Activation, Adam, Optimizer, mse_output_grad};
//! use asdex_rng::SeedableRng;
//!
//! let mut rng = asdex_rng::rngs::StdRng::seed_from_u64(1);
//! let mut net = Mlp::new(&[2, 16, 1], Activation::Tanh, &mut rng);
//! let mut adam = Adam::new(0.01);
//! for _ in 0..300 {
//!     let trace = net.forward_trace(&[0.5, -0.5]);
//!     let g = net.backward(&trace, &mse_output_grad(trace.output(), &[1.0]));
//!     adam.step(&mut net, g.flat());
//! }
//! assert!((net.forward(&[0.5, -0.5])[0] - 1.0).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod categorical;
mod guard;
mod mlp;
mod normalizer;
mod optimizer;
#[cfg(test)]
mod reference;

pub use activation::Activation;
pub use categorical::{
    entropy, entropy_grad, kl_divergence, kl_grad_new, log_prob_grad, log_softmax,
    sample_categorical, softmax,
};
pub use guard::{GradGuard, GuardOutcome, TrainHealth, UpdateClass};
pub use mlp::{mse, mse_output_grad, mse_output_grad_into, Gradients, Mlp, Trace, Workspace};
pub use normalizer::Normalizer;
pub use optimizer::{Adam, Optimizer, Sgd};
