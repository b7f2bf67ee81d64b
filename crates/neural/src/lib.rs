//! From-scratch multilayer perceptron for the NN-enhanced UCB policy.
//!
//! The paper (Eq. 4) models the reward mapping function as a fully
//! connected MLP
//!
//! ```text
//! S_θ(x, c) = W_L · σ_{L-1}( … σ_1(W_1 [x; c]) )
//! ```
//!
//! whose *gradient with respect to the parameters*, `g_θ(x,c) = ∇_θ S_θ`,
//! drives the exploration bonus of Eq. (5). This crate therefore exposes
//! not just forward/training passes but also [`Mlp::param_gradient`], the
//! flat `∇_θ S_θ` vector.
//!
//! Personalisation (Sec. V-D) trains a base network on all brokers, then
//! **freezes the first `L−1` layers** and fine-tunes only the last one on
//! broker-specific trials; [`Mlp::freeze_layer`] /
//! [`Mlp::freeze_all_but_last`] implement exactly that, and all
//! gradient/update vectors automatically shrink to the trainable
//! parameter subset.

pub mod activation;
pub mod boosted;
pub mod init;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod serialize;

pub use activation::Activation;
pub use boosted::{Gbrt, GbrtConfig, Stump};
pub use layer::Dense;
pub use mlp::{Mlp, MlpBuilder, MlpScratch, TrainScratch};
